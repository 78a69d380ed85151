"""Dense polynomial ring over Z/pZ."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmplib.identities import ones_fmp
from fmplib.modular import PrimeMismatch
from fmplib.polyfp import MINUS_INFINITY, PolyFp, compose_one_minus_t

PRIMES = [5, 7, 11, 13, 17, 31]


@st.composite
def poly_pairs(draw, count=2, max_len=30, prime_pool=PRIMES):
    p = draw(st.sampled_from(prime_pool))
    polys = tuple(
        PolyFp.of(p, draw(st.lists(st.integers(0, 500), max_size=max_len)))
        for _ in range(count)
    )
    return (p, *polys)


def schoolbook_mul(f: PolyFp, g: PolyFp) -> PolyFp:
    """Quadratic-time reference product, an independent check on the
    packed-integer convolution."""
    assert f.p == g.p
    out = [0] * max(len(f.coeffs) + len(g.coeffs) - 1, 0)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] += a * b
    return PolyFp.of(f.p, out)


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


@st.composite
def multi_block_polys(draw):
    """Polynomials at primes where composition splits into 1 to 3 blocks of
    size p, with a full or a partial last block."""
    p = draw(st.sampled_from([101, 211]))
    blocks = draw(st.integers(1, 3))
    last = p if draw(st.booleans()) else draw(st.integers(1, p - 1))
    rng = draw(st.randoms(use_true_random=False))
    return PolyFp.of(p, [rng.randrange(p) for _ in range((blocks - 1) * p + last)])


# --- construction and degree ----------------------------------------------


def test_normalization_and_zero():
    assert PolyFp.of(5, [1, 5, 10]) == PolyFp(5, (1,))
    assert PolyFp.of(5, [0, 0]) == PolyFp.zero(5)
    assert PolyFp.zero(5).coeffs == ()
    assert PolyFp.of(5, [-1]) == PolyFp(5, (4,))
    with pytest.raises(ValueError):
        PolyFp(5, (1, 0))  # not normalized
    with pytest.raises(ValueError):
        PolyFp.of(6, [1])  # modulus not prime


def test_degree_marker():
    assert PolyFp.zero(7).degree == MINUS_INFINITY
    assert PolyFp.zero(7).degree < -(10**9)
    assert PolyFp.one(7).degree == 0
    assert PolyFp.monomial(7, 12).degree == 12


# --- addition --------------------------------------------------------------


def test_add_examples():
    p = 5
    t_plus_1 = PolyFp.of(p, [1, 1])
    assert t_plus_1 + PolyFp.of(p, [4, 4]) == PolyFp.zero(p)
    assert PolyFp.of(p, [0, 3, 1]) + PolyFp.of(p, [0, 2]) == PolyFp.of(p, [0, 0, 1])
    f = PolyFp.of(p, [2, 0, 3])
    assert f + PolyFp.zero(p) == f


# --- multiplication ---------------------------------------------------------


def test_mul_examples():
    p = 5
    assert PolyFp.of(p, [1, -1]) * PolyFp.of(p, [1, 1, 1, 1, 1]) == PolyFp.of(
        p, [1, 0, 0, 0, 0, -1]
    )
    f = PolyFp.of(p, [3, 1, 4])
    assert f * PolyFp.one(p) == f
    # (2t+1)(3t+4) = 6t^2 + 11t + 4 = t^2 + t + 4 mod 5
    assert PolyFp.of(p, [1, 2]) * PolyFp.of(p, [4, 3]) == PolyFp.of(p, [4, 1, 1])


def test_pow_examples():
    p = 5
    one_minus_t = PolyFp.of(p, [1, -1])
    assert one_minus_t**5 == PolyFp.of(p, [1, 0, 0, 0, 0, -1])
    f = PolyFp.of(p, [2, 3, 1])
    assert f**0 == PolyFp.one(p)
    assert f**1 == f


def test_scalar_mul():
    f = PolyFp.of(7, [1, 2, 3])
    assert f * 3 == PolyFp.of(7, [3, 6, 9])
    assert 0 * f == PolyFp.zero(7)
    assert -1 * f == -f


def test_prime_mismatch():
    with pytest.raises(PrimeMismatch):
        PolyFp.one(5) * PolyFp.one(7)
    with pytest.raises(PrimeMismatch):
        PolyFp.one(5) + PolyFp.one(7)


@given(poly_pairs())
def test_kronecker_mul_matches_schoolbook(data):
    _, f, g = data
    assert f * g == schoolbook_mul(f, g)


@given(poly_pairs(count=3))
def test_ring_axioms(data):
    _, f, g, h = data
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f - g) + g == f


@given(poly_pairs(count=1, max_len=12, prime_pool=[5, 7, 11, 13]))
def test_frobenius_power(data):
    # f^p spreads every exponent by p (coefficients fixed, since c^p = c)
    p, f = data
    spread = [0] * (p * len(f.coeffs))
    for d, c in enumerate(f.coeffs):
        spread[p * d] = c
    assert f**p == PolyFp.of(p, spread)


def test_mul_degree_adds():
    f = PolyFp.of(7, [1, 1, 3])
    g = PolyFp.of(7, [2, 5])
    assert (f * g).degree == f.degree + g.degree
    assert (f * PolyFp.zero(7)).degree == MINUS_INFINITY


# --- composition at 1 - t ----------------------------------------------------


def test_compose_basics():
    p = 7
    t = PolyFp.monomial(p, 1)
    assert compose_one_minus_t(t) == PolyFp.of(p, [1, -1])
    assert compose_one_minus_t(PolyFp.zero(p)).is_zero
    assert compose_one_minus_t(PolyFp.one(p)) == PolyFp.one(p)


def test_compose_fixed_point_depth1_polylog():
    # sum of t^l / l at p = 5 is its own image under t -> 1-t
    f = PolyFp.of(5, [0, 1, 3, 2, 4])
    assert compose_one_minus_t(f) == f


@given(poly_pairs(count=1, max_len=40))
def test_compose_involution(data):
    _, f = data
    assert compose_one_minus_t(compose_one_minus_t(f)) == f


@given(poly_pairs(count=1, max_len=60))
def test_compose_matches_binomial_oracle(data):
    _, f = data
    assert compose_one_minus_t(f) == compose_binomial(f)


@settings(max_examples=40, deadline=None)
@given(multi_block_polys())
def test_compose_matches_horner_across_blocks(f):
    fast = compose_one_minus_t(f)
    assert fast == compose_horner(f)
    if f.p == 101:
        assert fast == compose_binomial(f)


def test_compose_depth5_symmetry_at_1009():
    p = 1009
    five = ones_fmp(5, p)
    assert compose_one_minus_t(five) == five
    f = PolyFp.of(p, [(7 * i * i + 3) % p for i in range(3 * p + 17)])
    assert compose_one_minus_t(compose_one_minus_t(f)) == f


@given(poly_pairs())
def test_compose_is_ring_homomorphism(data):
    _, f, g = data
    assert compose_one_minus_t(f + g) == compose_one_minus_t(f) + compose_one_minus_t(g)
    assert compose_one_minus_t(f * g) == compose_one_minus_t(f) * compose_one_minus_t(g)


@given(poly_pairs(count=1))
def test_compose_preserves_degree(data):
    _, f = data
    assert compose_one_minus_t(f).degree == f.degree


# --- serialization -----------------------------------------------------------


def test_str_format():
    assert str(PolyFp.of(5, [0, 1, 3, 2, 4])) == "t + 3t^2 + 2t^3 + 4t^4 (mod 5)"
    assert str(PolyFp.zero(7)) == "0 (mod 7)"
    assert str(PolyFp.one(7)) == "1 (mod 7)"
    assert str(PolyFp.of(7, [0, 0, 1])) == "t^2 (mod 7)"


def test_compact_roundtrip():
    f = PolyFp.of(5, [0, 1, 3, 2, 4])
    assert f.compact() == "[5; 0,1,3,2,4]"
    assert PolyFp.from_compact(f.compact()) == f
    z = PolyFp.zero(11)
    assert PolyFp.from_compact(z.compact()) == z
    with pytest.raises(ValueError):
        PolyFp.from_compact("nonsense")


def test_shifted():
    f = PolyFp.of(7, [1, 2])
    assert f.shifted(3) == PolyFp.of(7, [0, 0, 0, 1, 2])
    assert PolyFp.zero(7).shifted(4).is_zero
