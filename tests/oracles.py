"""Slow reference implementations that the tests check the library against.

Each is written independently of the fast path it checks, or is the
per-coefficient loop that the fast path replaced, kept here as it was.
"""

import itertools
import math
from operator import add, sub

from fmplib import identities
from fmplib.fmp import BlockTriple, Index, oy_fmp, zeta_variant
from fmplib.modular import inverse_table, require_prime
from fmplib.polyfp import PolyFp, compose_one_minus_t
from fmplib.ss import enumerate_phi, grouped_index, oy_from_ss, ss_star


def schoolbook_mul(f: PolyFp, g: PolyFp) -> PolyFp:
    """Quadratic-time reference product, an independent check on the
    packed-integer and shift-and-add convolutions."""
    assert f.p == g.p
    out = [0] * max(len(f.coeffs) + len(g.coeffs) - 1, 0)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] += a * b
    return PolyFp.of(f.p, out)


def shift_add_list(terms, p):
    """The sum of c * t^shift * f over the (c, shift, f) terms, each f a
    coefficient sequence, as a list of coefficients: the list accumulator
    that the packed-integer one in polyfp replaced.

    Every term is added into one list of plain ints, and the sum is reduced
    mod p once at the end, so a sum of many polynomials costs one pass per
    term and one reduction.  A term that starts past the list's end, the
    first one always, is copied in, not added to zeros.  Weights may be any
    ints, negative too.
    """
    out: list[int] = []
    for c, shift, f in terms:
        if not c or not f:
            continue
        if shift >= len(out):
            out.extend([0] * (shift - len(out)))
            out.extend(f if c == 1 else [c * y for y in f])
            continue
        end = shift + len(f)
        if end > len(out):
            out.extend([0] * (end - len(out)))
        old = out[shift:end]
        if c == 1:
            out[shift:end] = map(add, old, f)
        elif c == -1:
            out[shift:end] = map(sub, old, f)
        else:
            out[shift:end] = [x + c * y for x, y in zip(old, f)]
    return [x % p for x in out]


def compose_binomial(f: PolyFp) -> PolyFp:
    """Independent oracle for f(1-t): exact binomial expansion."""
    out = [0] * len(f.coeffs)
    for i, c in enumerate(f.coeffs):
        if c:
            for j in range(i + 1):
                out[j] = (out[j] + c * math.comb(i, j) * (-1) ** j) % f.p
    return PolyFp.of(f.p, out)


def _horner_block(block: tuple[int, ...], p: int) -> list[int]:
    # Horner at the affine argument: res <- res*(1-t) + c, degree < p throughout.
    res: list[int] = []
    for c in reversed(block):
        nxt = [0] * (len(res) + 1)
        for i, r in enumerate(res):
            if r:
                nxt[i] = (nxt[i] + r) % p
                nxt[i + 1] = (nxt[i + 1] - r) % p
        nxt[0] = (nxt[0] + c) % p
        res = nxt
    return res


def compose_horner(f: PolyFp) -> PolyFp:
    """Second oracle for f(1-t): Horner in (1-t)^p = 1 - t^p over blocks of
    size p, each block by an O(p^2) Horner at 1-t."""
    p = f.p
    blocks = [f.coeffs[i : i + p] for i in range(0, len(f.coeffs), p)]
    acc: list[int] = []
    for block in reversed(blocks):
        if acc:
            grown = acc + [0] * p
            for i, c in enumerate(acc):
                if c:
                    grown[i + p] = (grown[i + p] - c) % p
            acc = grown
        small = _horner_block(block, p)
        if len(small) > len(acc):
            acc.extend([0] * (len(small) - len(acc)))
        for i, c in enumerate(small):
            if c:
                acc[i] = (acc[i] + c) % p
    return PolyFp.of(p, acc)


def naive_reference_product(blocks: BlockTriple, p: int) -> PolyFp:
    """The three-block sum over itertools.product tuples, each tuple's
    running totals and powers recomputed from scratch: the nested-loop
    oracle that the depth-first enumeration replaced."""
    inv = inverse_table(p)
    a, b, c = len(blocks.first), len(blocks.second), len(blocks.third)
    coeffs = [0] * (blocks.total_depth * (p - 1) + 1)
    for ls in itertools.product(range(1, p), repeat=a):
        term_a = 1
        total_a = 0
        for l, k in zip(ls, blocks.first):
            total_a += l
            if total_a % p == 0:
                break
            term_a = term_a * pow(inv[total_a % p], k, p) % p
        else:
            for ms in itertools.product(range(1, p), repeat=b):
                term_b = term_a
                total_b = 0
                for m, k in zip(ms, blocks.second):
                    total_b += m
                    if total_b % p == 0:
                        break
                    term_b = term_b * pow(inv[total_b % p], k, p) % p
                else:
                    base = total_a + total_b
                    for ns in itertools.product(range(1, p), repeat=c):
                        term = term_b
                        total = base
                        for n, k in zip(ns, blocks.third):
                            total += n
                            if total % p == 0:
                                break
                            term = term * pow(inv[total % p], k, p) % p
                        else:
                            coeffs[total] = (coeffs[total] + term) % p
    return PolyFp.of(p, coeffs)


def window_extend_loop(values: list[int], k: int, p: int) -> list[int]:
    """One chain step: add a summand l in (0,p); the new running total is the
    new denominator.

    new[S] = (sum of old[S-p+1 .. S-1]) * S^{-k}, forced to 0 when p | S.
    Prefix sums keep the step linear in the support size.
    """
    inv = inverse_table(p)
    old_len = len(values)
    prefix = [0] * (old_len + 1)
    for i, v in enumerate(values):
        prefix[i + 1] = (prefix[i] + v) % p
    hi = old_len - 1 + p - 1
    out = [0] * (hi + 1)
    for s in range(1, hi + 1):
        if s % p == 0:
            continue
        a = max(s - p + 1, 0)
        b = min(s, old_len)
        if b <= a:
            continue
        w = (prefix[b] - prefix[a]) % p
        if w:
            iv = inv[s % p]
            out[s] = w * (iv if k == 1 else pow(iv, k, p)) % p
    return out


def ss_star_loop(index: Index, slot: int, p: int) -> PolyFp:
    """Sum over strictly increasing chains 0 < n_1 < ... < n_s < p of
    t^{n_slot} / (n_1^{k_1} ... n_s^{k_s}); every other argument is fixed at 1.

    Ascending prefix-sum DP up to the slot, suffix sums past it; cost O(s*p)
    and degree always below p.
    """
    require_prime(p)
    ks = index.parts
    s = len(ks)
    if not 1 <= slot <= s:
        raise ValueError(f"slot {slot} out of range 1..{s}")
    inv = inverse_table(p)

    heads = [0] * p  # chains for the first c parts ending exactly at v
    heads[0] = 1
    for c in range(slot):
        k = ks[c]
        run = 0
        new = [0] * p
        for v in range(1, p):
            run = (run + heads[v - 1]) % p
            if run:
                iv = inv[v]
                new[v] = run * (iv if k == 1 else pow(iv, k, p)) % p
        heads = new

    tails = [1] * p  # completions with the parts past the slot, all entries above v
    for c in range(s - 1, slot - 1, -1):
        k = ks[c]
        run = 0
        new = [0] * p
        for v in range(p - 2, -1, -1):
            u = v + 1
            iv = inv[u]
            run = (run + (iv if k == 1 else pow(iv, k, p)) * tails[u]) % p
            new[v] = run
        tails = new

    return PolyFp.of(p, [heads[v] * tails[v] % p for v in range(p)])


def depth1_powers(e: int, p: int) -> list[PolyFp]:
    """(depth-1 polylog)^j for j = 0..e, each one product on the last.  Not
    memoized, so a test that perturbs the chain values gets their powers."""
    l, powers = identities.ones_fmp(1, p), [PolyFp.one(p)]
    for _ in range(e):
        powers.append(powers[-1] * l)
    return powers


def correction_sum_powers(n: int, p: int) -> PolyFp:
    """The correction sum term by term: (k-1)! (f_k + g_k) times the power
    (depth-1 polylog)^(n-k), summed over k = 2..n."""
    total, powers = PolyFp.zero(p), depth1_powers(n - 2, p)
    for k in range(2, n + 1):
        weight = math.factorial(k - 1) % p
        fg = identities.f_poly(k, p) + identities.g_poly(k, p)
        total = total + fg * powers[n - k] * weight
    return total


def curly_L(n: int, p: int) -> PolyFp:
    """Depth-n polylog minus (1/n!) * correction sum; equals (1/n!) times
    (depth-1 polylog)^n whenever the main theorem holds at p."""
    inv_fact = pow(math.factorial(n), -1, p)
    return identities.ones_fmp(n, p) - correction_sum_powers(n, p) * inv_fact


def main_theorem_direct(n: int, p: int) -> PolyFp:
    """The main-theorem residual by its definition, curly_L minus
    (1/n!) (depth-1 polylog)^n, forming every power of the depth-1 polylog."""
    inv_fact = pow(math.factorial(n), -1, p)
    return curly_L(n, p) - depth1_powers(n, p)[n] * inv_fact


def functional_eq_direct(n: int, p: int) -> PolyFp:
    """The functional-equation residual by its definition, curly_L at t minus
    curly_L at 1-t, composing the whole of curly_L."""
    l = curly_L(n, p)
    return l - compose_one_minus_t(l)


def ones_symmetry_difference_direct(n: int, p: int) -> PolyFp:
    """The depth-n all-ones polylog minus its image under t -> 1-t, composing
    the whole polylog."""
    f = identities.ones_fmp(n, p)
    return f - compose_one_minus_t(f)


def corollary_direct(n: int, p: int) -> PolyFp:
    """A corollary's residual by its definition, F(t) - F(1-t) for F the
    conversion of the depth-n all-ones index, composing the whole of F."""
    f = oy_from_ss(Index.ones(n), p)
    return f - compose_one_minus_t(f)


def closed_forms_direct(p: int) -> list[tuple[str, PolyFp]]:
    """The worked closed forms by their statements, forming every power of
    the depth-1 polylog: depth-n polylog - (depth-1 polylog)^n/n! - tail_n."""
    z12 = zeta_variant(Index.of(1, 2), 1, p).value
    l1 = depth1_powers(5, p)
    f3 = identities.f_poly(3, p)
    tail = PolyFp.of(p, [0] * p + [1]) - PolyFp.of(p, [0] * (2 * p) + [1])
    tail_third = tail * (z12 * pow(3, -1, p))

    def depth(n):
        return identities.ones_fmp(n, p) - l1[n] * pow(math.factorial(n), -1, p)

    n5 = depth(5) - f3 * l1[2] * pow(15, -1, p) - identities.f_poly(5, p) * pow(5, -1, p)
    return [
        ("closed-form {'n': 3}", depth(3) - tail_third),
        ("closed-form {'n': 4}", depth(4) - tail_third * l1[1]),
        ("closed-form-f4-factorization {}", identities.f_poly(4, p) - f3 * l1[1]),
        ("closed-form {'n': 5}", n5),
    ]


def window_poly(parts: tuple[int, ...], p: int) -> PolyFp:
    """Sum over i = 1..len(parts) of (window slice i) * t^{i*p}, one
    zeta_variant per slice."""
    coeffs = [0] * (len(parts) * p + 1)
    for i in range(1, len(parts) + 1):
        coeffs[i * p] = zeta_variant(Index(parts), i, p).value
    return PolyFp.of(p, coeffs)


def f_term(n: int, k: int, p: int) -> PolyFp:
    """The k-th summand of f_n as a product: window polynomial of
    ({1}^{n-k-2}, 2) times the depth-k all-ones polylog."""
    return window_poly((1,) * (n - k - 2) + (2,), p) * identities.ones_fmp(k, p)


def g_term(n: int, k: int, p: int) -> PolyFp:
    """The k-th summand of g_n as a product: window polynomial of {1}^m,
    m = n-k-2, times the polylog of (2, {1}^k); zero when m < 1."""
    m = n - k - 2
    if m < 1:
        return PolyFp.zero(p)
    return window_poly((1,) * m, p) * oy_fmp(Index((2,) + (1,) * k), p)


def f_poly_sum(n: int, p: int) -> PolyFp:
    """f_n as a chain of reduced additions of its summands."""
    return sum((f_term(n, k, p) for k in range(n - 1)), PolyFp.zero(p))


def g_poly_sum(n: int, p: int) -> PolyFp:
    """g_n as a chain of reduced additions of its summands."""
    return sum((g_term(n, k, p) for k in range(n - 1)), PolyFp.zero(p))


def shuffle_lemma_sum(n: int, p: int) -> PolyFp:
    """The shuffle-lemma residual from f_poly_sum and g_poly_sum."""
    rhs = identities.ones_fmp(n, p) * n - f_poly_sum(n, p) - g_poly_sum(n, p)
    return identities._bridge(n, 0, p) - rhs


def recurrence_sum(n: int, k: int, p: int) -> PolyFp:
    """The recurrence residual from f_term and g_term."""
    bridge = identities._bridge
    rhs = bridge(n, k + 1, p) + identities.ones_fmp(n, p) - f_term(n, k, p) - g_term(n, k, p)
    return bridge(n, k, p) - rhs


def oy_from_ss_loop(index: Index, p: int) -> PolyFp:
    """The conversion surjection by surjection: each strict-chain polylog
    added once per surjection, each group shifted by t^{(i-1)p}."""
    groups = enumerate_phi(index.depth)
    total = PolyFp.zero(p)
    for i in sorted(groups):
        inner = PolyFp.zero(p)
        for phi in groups[i]:
            inner = inner + ss_star(grouped_index(phi, index), phi.values[-1], p)
        total = total + inner.shifted((i - 1) * p)
    return total


def eval_terms(terms: list[dict], p: int) -> PolyFp:
    """One side of a corollary term list, term by term: each strict-chain
    polylog composed with 1-t on its own and multiplied by its coefficient
    polynomial in T = t^p."""
    total = PolyFp.zero(p)
    for term in terms:
        poly = ss_star(Index(tuple(term["index"])), term["slot"], p)
        if term["arg"] == "1-t":
            poly = compose_one_minus_t(poly)
        elif term["arg"] != "t":
            raise ValueError(f"unknown argument {term['arg']!r}")
        spread = [0] * ((len(term["coeff"]) - 1) * p + 1)
        for j, c in enumerate(term["coeff"]):
            spread[j * p] = c % p
        total = total + PolyFp.of(p, spread) * poly
    return total
