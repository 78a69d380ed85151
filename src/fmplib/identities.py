"""Per-prime residuals for every verified identity of the all-ones polylogs.

Each function returns the difference polynomial "left side minus right side"
for one prime; a correct identity gives the zero polynomial.  Residuals are
returned, not booleans, so a failure ships the full structured polynomial for
diagnosis (a wrong window slice shows up as a recognizable shape).
"""

from __future__ import annotations

import math
from functools import lru_cache

from .fmp import BlockTriple, Index, oy_fmp, oy_fmp_general, zeta_variant
from .modular import bernoulli_mod
from .polyfp import PolyFp, compose_one_minus_t

__all__ = [
    "FactorialNotInvertible",
    "closed_form_residuals",
    "curly_L",
    "depth5_symmetry_difference",
    "f_poly",
    "functional_eq_residual",
    "g_poly",
    "main_theorem_residual",
    "obstruction_n5_closed_form",
    "obstruction_n5_residual",
    "recurrence_residual",
    "shuffle_lemma_residual",
]


class FactorialNotInvertible(ValueError):
    """n! has no inverse mod p (p <= n)."""


def _require_p_gt_n(n: int, p: int):
    """The guard of every depth-n identity: p > n, that is p does not divide n!."""
    if p <= n:
        raise FactorialNotInvertible(f"requires p > n, got p={p}, n={n}")


@lru_cache(maxsize=None)
def ones_fmp(k: int, p: int) -> PolyFp:
    """Polylog of the all-ones index of depth k; the empty index gives 1."""
    return PolyFp.one(p) if k == 0 else oy_fmp(Index.ones(k), p)


@lru_cache(maxsize=None)
def _depth1_power(e: int, p: int) -> PolyFp:
    if e == 0:
        return PolyFp.one(p)
    return _depth1_power(e - 1, p) * ones_fmp(1, p)


def _window_poly(parts: tuple[int, ...], p: int) -> PolyFp:
    """Sum over i = 1..len(parts) of (window slice i) * t^{i*p}."""
    coeffs = [0] * (len(parts) * p + 1)
    for i in range(1, len(parts) + 1):
        coeffs[i * p] = zeta_variant(Index(parts), i, p).value
    return PolyFp.of(p, coeffs)


def _f_term(n: int, k: int, p: int) -> PolyFp:
    """The k-th summand of f_n: window slices of ({1}^{n-k-2}, 2) against the
    depth-k all-ones polylog."""
    return _window_poly((1,) * (n - k - 2) + (2,), p) * ones_fmp(k, p)


def _g_term(n: int, k: int, p: int) -> PolyFp:
    """The k-th summand of g_n: window slices of {1}^m, m = n-k-2, against
    the polylog of (2, {1}^k); zero when m < 1."""
    m = n - k - 2
    if m < 1:
        return PolyFp.zero(p)
    return _window_poly((1,) * m, p) * oy_fmp(Index((2,) + (1,) * k), p)


@lru_cache(maxsize=None)
def f_poly(n: int, p: int) -> PolyFp:
    """First error-term polynomial, the sum of _f_term over k = 0..n-2.
    Empty sum for n < 2."""
    _require_p_gt_n(n, p)
    return sum((_f_term(n, k, p) for k in range(n - 1)), PolyFp.zero(p))


@lru_cache(maxsize=None)
def g_poly(n: int, p: int) -> PolyFp:
    """Second error-term polynomial, the sum of _g_term over k = 0..n-2.
    Empty sum for n < 3."""
    _require_p_gt_n(n, p)
    return sum((_g_term(n, k, p) for k in range(n - 1)), PolyFp.zero(p))


def shuffle_lemma_residual(n: int, p: int) -> PolyFp:
    """Product of the depth-(n-1) and depth-1 all-ones polylogs, minus
    (n * depth-n polylog - f_n - g_n)."""
    _require_p_gt_n(n, p)
    rhs = ones_fmp(n, p) * n - f_poly(n, p) - g_poly(n, p)
    return _bridge(n, 0, p) - rhs


def _bridge(n: int, j: int, p: int) -> PolyFp:
    """The three-block sum of ((1)^{n-j-1}, (1), (1)^j), for 0 <= j < n: the
    product of the depth-(n-1) and depth-1 polylogs at j = 0, the depth-n
    polylog at j = n-1."""
    return oy_fmp_general(BlockTriple((1,) * (n - j - 1), (1,), (1,) * j), p)


def recurrence_residual(n: int, k: int, p: int) -> PolyFp:
    """One step of the interpolation between the product form (k=0) and the
    depth-n polylog (k=n-1); summing over k telescopes to the shuffle lemma."""
    _require_p_gt_n(n, p)
    if not 0 <= k <= n - 2:
        raise ValueError(f"need 0 <= k <= n-2, got k={k}, n={n}")
    rhs = _bridge(n, k + 1, p) + ones_fmp(n, p) - _f_term(n, k, p) - _g_term(n, k, p)
    return _bridge(n, k, p) - rhs


def _correction_sum(n: int, p: int) -> PolyFp:
    """Sum over k = 2..n of (k-1)! (f_k + g_k) * (depth-1 polylog)^(n-k), by
    Horner in the depth-1 polylog; the k = 1 term is zero, because f_1 and
    g_1 are empty sums."""
    total = PolyFp.zero(p)
    for k in range(2, n + 1):
        weight = math.factorial(k - 1) % p
        total = total * ones_fmp(1, p) + (f_poly(k, p) + g_poly(k, p)) * weight
    return total


def curly_L(n: int, p: int) -> PolyFp:
    """Depth-n polylog minus (1/n!) * correction; equals (1/n!) (depth-1)^n
    whenever the main identity holds at p."""
    _require_p_gt_n(n, p)
    return ones_fmp(n, p) - _correction_sum(n, p) * pow(math.factorial(n), -1, p)


@lru_cache(maxsize=None)
def main_theorem_residual(n: int, p: int) -> PolyFp:
    """Depth-n all-ones polylog minus (1/n!) [ (depth-1 polylog)^n + correction ],
    that is curly_L minus (1/n!) (depth-1 polylog)^n.

    Computed by the paper's induction step, an exact identity of polynomials:
    n M_n = M_{n-1} * (depth-1 polylog) - S_n, with M_1 = 0, where M_n is this
    residual and S_n the shuffle lemma's.  It follows from the definitions
    alone, since (n-1)! S_n cancels the product of the depth-(n-1) and depth-1
    polylogs, so no power of the depth-1 polylog is formed.
    """
    _require_p_gt_n(n, p)
    if n <= 1:
        return PolyFp.zero(p)
    step = main_theorem_residual(n - 1, p) * ones_fmp(1, p) - shuffle_lemma_residual(n, p)
    return step * pow(n, -1, p)


def functional_eq_residual(n: int, p: int) -> PolyFp:
    """The symmetrized combination evaluated at t minus at 1-t."""
    l = curly_L(n, p)
    return l - compose_one_minus_t(l)


def depth5_symmetry_difference(p: int) -> PolyFp:
    """The depth-5 all-ones polylog minus its image under t -> 1-t."""
    five = ones_fmp(5, p)
    return five - compose_one_minus_t(five)


def obstruction_n5_closed_form(b: int, p: int) -> PolyFp:
    """The advertised depth-5 difference (b/5) t^p (1 - t^p)(2 t^p - 1), where
    b is B_{p-5} mod p.  The measured difference is zero (see
    depth5_symmetry_difference), so this form is right only where b = 0."""
    tp = PolyFp.monomial(p, p)
    return tp * (PolyFp.one(p) - tp) * (tp * 2 - PolyFp.one(p)) * (b * pow(5, -1, p))


def obstruction_n5_residual(p: int) -> PolyFp:
    """Difference of the depth-5 polylog under t -> 1-t, minus its advertised
    closed form (B_{p-5}/5) t^p (1 - t^p)(2 t^p - 1).  Zero residual means the
    advertised form is exact.  The measured difference is zero at every prime
    in 7..5000, so the residual is minus the advertised form, nonzero whenever
    B_{p-5} != 0 mod p."""
    if p < 7:
        raise ValueError(f"requires p >= 7, got {p}")
    b = bernoulli_mod(p - 5, p).value
    return depth5_symmetry_difference(p) - obstruction_n5_closed_form(b, p)


def closed_form_residuals(p: int) -> list[tuple[str, PolyFp]]:
    """(note, residual) for each worked closed form, at depths 3, 4, 5, and
    for the factorization f_4 = f_3 * (depth-1 polylog)."""
    if p < 7:
        raise ValueError(f"requires p >= 7, got {p}")
    one = PolyFp.one(p)
    tp = PolyFp.monomial(p, p)
    z12 = zeta_variant(Index.of(1, 2), 1, p).value
    tail = tp * (one - tp) * z12  # t^p (1-t)^p times the depth-2 zeta value
    l1 = lambda e: _depth1_power(e, p)

    n3 = ones_fmp(3, p) - (l1(3) * pow(6, -1, p) + tail * pow(3, -1, p))
    n4 = ones_fmp(4, p) - (l1(4) * pow(24, -1, p) + tail * l1(1) * pow(3, -1, p))
    f4 = f_poly(4, p) - f_poly(3, p) * l1(1)
    n5 = ones_fmp(5, p) - (
        l1(5) * pow(120, -1, p)
        + f_poly(3, p) * l1(2) * pow(15, -1, p)
        + f_poly(5, p) * pow(5, -1, p)
    )
    return [
        ("closed-form {'n': 3}", n3),
        ("closed-form {'n': 4}", n4),
        ("closed-form-f4-factorization {}", f4),
        ("closed-form {'n': 5}", n5),
    ]
