"""Per-prime residuals for every verified identity of the all-ones polylogs.

Each function returns the difference polynomial "left side minus right side"
for one prime; a correct identity gives the zero polynomial.  Residuals are
returned, not booleans, so a failure ships the full structured polynomial for
diagnosis (a wrong window slice shows up as a recognizable shape).
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from operator import mul

from .fmp import BlockTriple, Index, oy_fmp, oy_fmp_general, window_slices, zeta_variant
from .modular import bernoulli_mod
from .polyfp import PolyFp, compose_one_minus_t

__all__ = [
    "closed_form_residuals",
    "depth5_symmetry_difference",
    "f_poly",
    "functional_eq_residual",
    "g_poly",
    "kontsevich_residual",
    "main_theorem_residual",
    "obstruction_n5_closed_form",
    "obstruction_n5_residual",
    "recurrence_residual",
    "shuffle_lemma_residual",
]


def _require_p_gt_n(n: int, p: int):
    """The guard of every depth-n identity: p > n, that is p does not divide n!."""
    if p <= n:
        raise ValueError(f"requires p > n, got p={p}, n={n}")


@lru_cache(maxsize=None)
def ones_fmp(k: int, p: int) -> PolyFp:
    """Polylog of the all-ones index of depth k; the empty index gives 1."""
    return PolyFp.one(p) if k == 0 else oy_fmp(Index.ones(k), p)


# Unused by the sweep and the tests; only perfbench's memo figures read it.
@lru_cache(maxsize=None)
def _depth1_power(e: int, p: int) -> PolyFp:
    if e <= 1:
        return ones_fmp(e, p)
    return _depth1_power(e - 1, p) * ones_fmp(1, p)


def _window_terms(parts: tuple[int, ...], poly: PolyFp, p: int, difference=None) -> list:
    """Shift-and-add terms of W(T) * poly, where T = t^p and W(T) is the sum
    of (window slice i) * T^i over i = 1..len(parts).

    Given difference, a function returning D(poly) = poly(t) - poly(1-t), the
    terms are instead those of D(W(T) * poly).  Composition with 1-t takes T
    to 1 - T, so that is (W(T) - W(1-T)) poly + W(1-T) D(poly), with W(1-T)
    expanded by binomials; difference is called only when W(1-T) != 0.
    """
    slices = window_slices(Index(parts), p)
    if difference is None:
        return [(z, i * p, poly) for i, z in enumerate(slices, 1)]
    coeffs = [0, *slices]  # of W, in T
    reflected = [
        (-1) ** j * sum(math.comb(i, j) * z for i, z in enumerate(coeffs)) % p
        for j in range(len(coeffs))
    ]
    terms = [(z - r, j * p, poly) for j, (z, r) in enumerate(zip(coeffs, reflected))]
    if any(reflected):
        diff = difference()
        terms += [(r, j * p, diff) for j, r in enumerate(reflected)]
    return terms


def _f_terms(n: int, k: int, p: int, difference: bool = False) -> list:
    """The k-th summand of f_n: window slices of ({1}^{n-k-2}, 2) against the
    depth-k all-ones polylog; with difference, the summand's D."""
    diff = (lambda: ones_symmetry_difference(k, p)) if difference else None
    return _window_terms((1,) * (n - k - 2) + (2,), ones_fmp(k, p), p, diff)


def _g_terms(n: int, k: int, p: int, difference: bool = False) -> list:
    """The k-th summand of g_n: window slices of {1}^m, m = n-k-2, against
    the polylog of (2, {1}^k); no terms when m < 1.  With difference, the
    summand's D, composing that polylog only if its window part needs it."""
    m = n - k - 2
    if m < 1:
        return []
    h = oy_fmp(Index((2,) + (1,) * k), p)
    return _window_terms((1,) * m, h, p, (lambda: _symmetry_difference(h)) if difference else None)


def _error_terms(
    n: int, p: int, f: bool = True, g: bool = True, k: int | None = None, difference: bool = False
) -> list:
    """Shift-and-add terms of f_n (with f) plus g_n (with g), or of their
    k-th summands alone; with difference, of their D (see _window_terms)."""
    ks = range(n - 1) if k is None else (k,)
    kinds = [kind for kind, wanted in ((_f_terms, f), (_g_terms, g)) if wanted]
    return [term for j in ks for kind in kinds for term in kind(n, j, p, difference)]


@lru_cache(maxsize=None)
def f_poly(n: int, p: int) -> PolyFp:
    """First error-term polynomial, the sum of the _f_terms over k = 0..n-2.
    Empty sum for n < 2."""
    _require_p_gt_n(n, p)
    return PolyFp.sum_of(p, _error_terms(n, p, g=False))


@lru_cache(maxsize=None)
def g_poly(n: int, p: int) -> PolyFp:
    """Second error-term polynomial, the sum of the _g_terms over k = 0..n-2.
    Empty sum for n < 3."""
    _require_p_gt_n(n, p)
    return PolyFp.sum_of(p, _error_terms(n, p, f=False))


@lru_cache(maxsize=None)
def shuffle_lemma_residual(n: int, p: int) -> PolyFp:
    """Product of the depth-(n-1) and depth-1 all-ones polylogs, minus
    (n * depth-n polylog - f_n - g_n), with f_n and g_n summed in place as
    their terms.  Memoized: the shuffle-lemma check, the main theorem's
    induction and the symmetry differences all read it."""
    _require_p_gt_n(n, p)
    terms = [(1, 0, _bridge(n, 0, p)), (-n, 0, ones_fmp(n, p))]
    return PolyFp.sum_of(p, terms + _error_terms(n, p))


def _bridge(n: int, j: int, p: int) -> PolyFp:
    """The three-block sum of ((1)^{n-j-1}, (1), (1)^j), for 0 <= j < n: the
    product of the depth-(n-1) and depth-1 polylogs at j = 0, the depth-n
    polylog at j = n-1."""
    return oy_fmp_general(BlockTriple((1,) * (n - j - 1), (1,), (1,) * j), p)


def recurrence_residual(n: int, k: int, p: int) -> PolyFp:
    """One step of the interpolation between the product form (k=0) and the
    depth-n polylog (k=n-1); summing over k telescopes to the shuffle lemma.
    The residual is bridge k minus (bridge k+1 + depth-n polylog - the k-th
    summands of f_n and g_n)."""
    _require_p_gt_n(n, p)
    if not 0 <= k <= n - 2:
        raise ValueError(f"need 0 <= k <= n-2, got k={k}, n={n}")
    terms = [(1, 0, _bridge(n, k, p)), (-1, 0, _bridge(n, k + 1, p)), (-1, 0, ones_fmp(n, p))]
    return PolyFp.sum_of(p, terms + _error_terms(n, p, k=k))


def _induction_step(n: int, prev: PolyFp, terms: list) -> PolyFp:
    """Y_n by the main theorem's induction step n Y_n = Y_{n-1} l + the sum
    of terms (weight, shift, poly), with l the depth-1 polylog.  The product
    is free where Y_{n-1} = 0."""
    p = prev.p
    inv_n, terms = pow(n, -1, p), [(1, 0, prev * ones_fmp(1, p)), *terms]
    return PolyFp.sum_of(p, [(inv_n * c, s, f) for c, s, f in terms])


@lru_cache(maxsize=None)
def main_theorem_residual(n: int, p: int) -> PolyFp:
    """Depth-n all-ones polylog minus (1/n!) [ (depth-1 polylog)^n + C_n ], where
    the correction C_n is the sum over k = 2..n of (k-1)! (f_k + g_k) times
    (depth-1 polylog)^(n-k).

    Computed by the paper's induction step, an exact identity of polynomials:
    n M_n = M_{n-1} * (depth-1 polylog) - S_n, with M_1 = 0, where M_n is this
    residual and S_n the shuffle lemma's.  It follows from the definitions
    alone, since (n-1)! S_n cancels the product of the depth-(n-1) and depth-1
    polylogs, so no power of the depth-1 polylog is formed.
    """
    _require_p_gt_n(n, p)
    if n <= 1:
        return PolyFp.zero(p)
    prev = main_theorem_residual(n - 1, p)
    return _induction_step(n, prev, [(-1, 0, shuffle_lemma_residual(n, p))])


def _symmetry_difference(f: PolyFp) -> PolyFp:
    """D(f) = f(t) - f(1-t); free for the zero polynomial."""
    return f - compose_one_minus_t(f)


@lru_cache(maxsize=None)
def kontsevich_residual(p: int) -> PolyFp:
    """K = l(t) - l(1-t) for the depth-1 polylog l."""
    return _symmetry_difference(ones_fmp(1, p))


def functional_eq_residual(n: int, p: int) -> PolyFp:
    """L_n(t) - L_n(1-t) for L_n = depth-n polylog - C_n/n! = l^n/n! + M_n,
    with l the depth-1 polylog and M_n the main theorem's residual.

    Composition with 1-t is a ring homomorphism taking l to l - K, so the
    residual is exactly (l^n - (l - K)^n)/n! + M_n - M_n(1-t).  The powers
    are formed only where K != 0, and where M_n = 0 the composition returns
    at once.
    """
    _require_p_gt_n(n, p)
    l, kont = ones_fmp(1, p), kontsevich_residual(p)
    terms = [(1, 0, _symmetry_difference(main_theorem_residual(n, p)))]
    if not kont.is_zero:
        inv_fact = pow(math.factorial(n), -1, p)
        for sign, base in ((1, l), (-1, l - kont)):
            terms.append((sign * inv_fact, 0, reduce(mul, [base] * n, PolyFp.one(p))))
    return PolyFp.sum_of(p, terms)


@lru_cache(maxsize=None)
def ones_symmetry_difference(n: int, p: int) -> PolyFp:
    """D(L_n) = L_n(t) - L_n(1-t) for the depth-n all-ones polylog L_n, by
    the shuffle lemma's induction step: n L_n = L_{n-1} l + f_n + g_n - S_n
    holds exactly for the computed values, with l the depth-1 polylog and S_n
    the shuffle residual.  By the product rule D(xy) = D(x) y + x(1-t) D(y),
    n D(L_n) = D(L_{n-1}) l + L_{n-1}(1-t) K + D(f_n + g_n) - D(S_n), with
    D(L_0) = D(1) = 0.  L_{n-1}(1-t) = L_{n-1} - D(L_{n-1}) is formed only
    where K != 0, and D(f_n + g_n) is a sum of shifted window terms
    (_window_terms).

    On correct code K, every D(L_j) of lower depth, every window's W(T) -
    W(1-T) and S_n are zero, so the whole is a sum of shifted terms and
    composes nothing beyond K's depth-1 polylog.  A nonzero piece is formed
    as it stands, so a broken chain or window still shows.
    """
    _require_p_gt_n(n, p)
    if n == 0:
        return PolyFp.zero(p)
    prev, kont = ones_symmetry_difference(n - 1, p), kontsevich_residual(p)
    terms = [(-1, 0, _symmetry_difference(shuffle_lemma_residual(n, p)))]
    if not kont.is_zero:
        terms.append((1, 0, (ones_fmp(n - 1, p) - prev) * kont))
    return _induction_step(n, prev, terms + _error_terms(n, p, difference=True))


def depth5_symmetry_difference(p: int) -> PolyFp:
    """The depth-5 all-ones polylog minus its image under t -> 1-t, taken
    from the shuffle lemma by ones_symmetry_difference; needs p >= 7."""
    return ones_symmetry_difference(5, p)


def obstruction_n5_closed_form(b: int, p: int) -> PolyFp:
    """The advertised depth-5 difference (b/5) t^p (1 - t^p)(2 t^p - 1), where
    b is B_{p-5} mod p.  The measured difference is zero (see
    depth5_symmetry_difference), so this form is right only where b = 0."""
    c, one = b * pow(5, -1, p), PolyFp.one(p)
    # T (1 - T)(2T - 1) = -T + 3T^2 - 2T^3 with T = t^p
    return PolyFp.sum_of(p, [(-c, p, one), (3 * c, 2 * p, one), (-2 * c, 3 * p, one)])


def obstruction_n5_residual(p: int) -> PolyFp:
    """Difference of the depth-5 polylog under t -> 1-t, taken from the
    shuffle lemma (depth5_symmetry_difference), minus its advertised closed
    form (B_{p-5}/5) t^p (1 - t^p)(2 t^p - 1).  Zero residual means the
    advertised form is exact.  The measured difference is zero at every
    prime in 7..5000, so the residual is minus the advertised form, nonzero
    whenever B_{p-5} != 0 mod p."""
    if p < 7:
        raise ValueError(f"requires p >= 7, got {p}")
    b = bernoulli_mod(p - 5, p).value
    return depth5_symmetry_difference(p) - obstruction_n5_closed_form(b, p)


def closed_form_residuals(p: int) -> list[tuple[str, PolyFp]]:
    """(note, residual) for each worked closed form, at depths 3, 4, 5, and
    for the factorization f_4 = f_3 l, with l the depth-1 polylog.

    Q_n = depth-n polylog - l^n/n! takes the main theorem's induction step
    n Q_n = Q_{n-1} l - S_n + f_n + g_n, with Q_1 = 0, so the residual
    R_n = Q_n - X_n of a stated form X_n takes the step with the terms
    X_{n-1} l - n X_n - S_n + f_n + g_n.  The forms are X_2 = 0,
    X_3 = z(1,2) (T - T^2)/3 with T = t^p, X_4 = X_3 l and
    X_5 = f_3 l^2/15 + f_5/5.  With D = f_3 - 3 X_3, X_4 l - 5 X_5 is
    -(D/3) l^2 - f_5, l^2 the shuffle bridge, so f_5 cancels from the step
    at n = 5, and f_4 - f_3 l is f_4 - 3 X_3 l - D l.  So each product has
    R_{n-1} or D as an operand, and both are zero where the forms hold.
    f_n and g_n enter as their terms, so each check is one sum."""
    if p < 7:
        raise ValueError(f"requires p >= 7, got {p}")
    l, one, z = ones_fmp(1, p), PolyFp.one(p), zeta_variant(Index.of(1, 2), 1, p).value
    minus_3x3 = lambda g: [(-z, p, g), (z, 2 * p, g)]  # -3 X_3 g
    d = PolyFp.sum_of(p, _error_terms(3, p, g=False) + minus_3x3(one))
    tails = {
        2: _error_terms(2, p),
        3: _error_terms(3, p) + minus_3x3(one),
        4: _error_terms(4, p) + minus_3x3(l),
        5: _error_terms(5, p, f=False) + [(-pow(3, -1, p), 0, d * _bridge(2, 0, p))],
    }
    r = {1: PolyFp.zero(p)}
    for n, tail in tails.items():
        r[n] = _induction_step(n, r[n - 1], [(-1, 0, shuffle_lemma_residual(n, p)), *tail])
    f4 = PolyFp.sum_of(p, [*_error_terms(4, p, g=False), *minus_3x3(l), (-1, 0, d * l)])
    return [
        ("closed-form {'n': 3}", r[3]),
        ("closed-form {'n': 4}", r[4]),
        ("closed-form-f4-factorization {}", f4),
        ("closed-form {'n': 5}", r[5]),
    ]
