"""Dense polynomial ring over Z/pZ."""

import math
import random
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import compose_binomial, compose_horner, schoolbook_mul, shift_add_list

from fmplib import fmp, polyfp
from fmplib.identities import ones_fmp
from fmplib.modular import is_prime
from fmplib.polyfp import (
    _TWO_POINT_MIN,
    PolyFp,
    _convolve,
    _pack,
    _shift_add,
    compose_one_minus_t,
)

PRIMES = [5, 7, 11, 13, 17, 31]


@st.composite
def poly_pairs(draw, count=2, max_len=30, prime_pool=PRIMES):
    p = draw(st.sampled_from(prime_pool))
    polys = tuple(
        PolyFp.of(p, draw(st.lists(st.integers(0, 500), max_size=max_len)))
        for _ in range(count)
    )
    return (p, *polys)


@st.composite
def multi_block_polys(draw):
    """Polynomials at primes where composition splits into 1 to 3 blocks of
    size p, with a full or a partial last block."""
    p = draw(st.sampled_from([101, 211]))
    blocks = draw(st.integers(1, 3))
    last = p if draw(st.booleans()) else draw(st.integers(1, p - 1))
    rng = draw(st.randoms(use_true_random=False))
    return PolyFp.of(p, [rng.randrange(p) for _ in range((blocks - 1) * p + last)])


# --- construction ------------------------------------------------------------


def test_normalization_and_zero():
    assert PolyFp.of(5, [1, 5, 10]) == PolyFp(5, (1,))
    assert PolyFp.of(5, [0, 0]) == PolyFp.zero(5)
    assert PolyFp.zero(5).coeffs == array("I")
    assert PolyFp.of(5, [-1]) == PolyFp(5, (4,))
    assert PolyFp(5, (1, 0)) == PolyFp(5, (1,))  # the constructor normalizes
    with pytest.raises(ValueError):
        PolyFp.of(6, [1])  # modulus not prime


# --- storage -----------------------------------------------------------------

#: The largest prime below 2^32, and the smallest above it.
_LAST_WORD_PRIME, _FIRST_WIDE_PRIME = 4294967291, 4294967311


@pytest.mark.parametrize("make", [tuple, list, lambda c: array("I", c)])
def test_coefficients_are_4_byte_words(make):
    f = PolyFp(7, make([3, 0, 5, 0, 0]))
    assert isinstance(f.coeffs, array) and f.coeffs.typecode == "I"
    assert f.coeffs.itemsize == 4
    assert list(f.coeffs) == [3, 0, 5]
    for g in (PolyFp.of(7, make([10, 0, 12])), f + f, f * f, -f, f.shifted(2)):
        assert g.coeffs.typecode == "I", g


def test_normalized_array_is_kept():
    words = array("I", [1, 2, 3])
    assert PolyFp(5, words).coeffs is words
    padded = array("I", [1, 2, 3, 0])
    assert PolyFp(5, padded).coeffs == words and list(padded) == [1, 2, 3, 0]


def test_primes_up_to_the_word_size():
    assert is_prime(_LAST_WORD_PRIME) and is_prime(_FIRST_WIDE_PRIME)
    p = _LAST_WORD_PRIME
    f = PolyFp.of(p, [p - 1, 1, p - 2])
    assert list(f.coeffs) == [p - 1, 1, p - 2]
    assert f * f == schoolbook_mul(f, f)
    assert fmp._chain_values((), p) == array("I", [1])
    with pytest.raises(ValueError, match="2\\^32"):
        PolyFp.of(_FIRST_WIDE_PRIME, [1])
    with pytest.raises(ValueError, match="2\\^32"):
        PolyFp(_FIRST_WIDE_PRIME, ())
    with pytest.raises(ValueError, match="2\\^32"):
        fmp._chain_values((), _FIRST_WIDE_PRIME)


def test_polyfp_is_unhashable():
    with pytest.raises(TypeError):
        hash(PolyFp.of(5, [1, 2]))
    with pytest.raises(TypeError):
        hash(PolyFp.zero(5))


@pytest.mark.parametrize("width", range(1, 17))
def test_pack_tuple_and_array_agree(width):
    # A stored vector packs to the chunk sum of its entries read as a tuple.
    top = min(2 ** (8 * width), 2**32) - 1
    rng = random.Random(width)
    values = (top, 0, 1, *(rng.randrange(top + 1) for _ in range(40)), top)
    packed = sum(v << (8 * width * i) for i, v in enumerate(values))
    assert _pack(array("I", values), width) == packed
    assert _pack(array("I"), width) == 0


# --- addition --------------------------------------------------------------


def test_add_examples():
    p = 5
    t_plus_1 = PolyFp.of(p, [1, 1])
    assert t_plus_1 + PolyFp.of(p, [4, 4]) == PolyFp.zero(p)
    assert PolyFp.of(p, [0, 3, 1]) + PolyFp.of(p, [0, 2]) == PolyFp.of(p, [0, 0, 1])
    f = PolyFp.of(p, [2, 0, 3])
    assert f + PolyFp.zero(p) == f


def test_zero_operand_sums_form_nothing(monkeypatch):
    # Adding zero, or subtracting it, returns the other operand itself, with
    # no sum formed; operands of different primes are still refused.
    p, f = 13, PolyFp.of(13, [2, 0, 3])
    zero = PolyFp.zero(p)

    def summed(*args):
        raise AssertionError("a sum with a zero operand was formed")

    monkeypatch.setattr(polyfp, "_shift_add", summed)
    assert f + zero is f and zero + f is f and f - zero is f
    assert (zero + zero).is_zero and (zero - zero).is_zero
    monkeypatch.undo()
    with pytest.raises(ValueError, match="mod 13 vs mod 7"):
        f + PolyFp.zero(7)
    with pytest.raises(ValueError, match="mod 13 vs mod 7"):
        f - PolyFp.zero(7)
    assert zero - f == PolyFp.of(p, [11, 0, 10])


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


def test_scalar_mul():
    f = PolyFp.of(7, [1, 2, 3])
    assert f * 3 == PolyFp.of(7, [3, 6, 9])
    assert 0 * f == PolyFp.zero(7)
    assert -1 * f == -f


def test_prime_mismatch():
    with pytest.raises(ValueError, match="mod 5 vs mod 7"):
        PolyFp.one(5) * PolyFp.one(7)
    with pytest.raises(ValueError, match="mod 5 vs mod 7"):
        PolyFp.one(5) + PolyFp.one(7)
    with pytest.raises(ValueError, match="mod 5 vs mod 7"):
        # equal coefficient tuples at two primes are not a zero difference
        PolyFp.one(5) - PolyFp.one(7)
    with pytest.raises(ValueError, match="mod 5 vs mod 7"):
        PolyFp.sum_of(5, [(1, 0, PolyFp.one(5)), (1, 0, PolyFp.one(7))])


@given(poly_pairs())
def test_kronecker_mul_matches_schoolbook(data):
    _, f, g = data
    assert f * g == schoolbook_mul(f, g)


def _kronecker_cases():
    """(p, shorter length, width) with packed width 1 to 8 bytes on both
    sides of each 2^(8w) boundary: for each w, the largest prime p whose
    bound (p-1)^2 * 8 fits in w bytes, at the shorter length where the bound
    still fits and at the one where it first crosses into w + 1 bytes.  Up
    to 8 bytes the chunks are converted both ways by strided byte copies;
    then 9 bytes at p = 2^31 - 1, length 8, packed the same way and
    unpacked coefficient by coefficient.  Every case multiplies dense
    operands and a two-nonzero one, so each width is also reached by a
    sparse shape.  Every length is below _TWO_POINT_MIN, so these cases
    test _convolve's one-point path; _two_point_cases test the other."""
    cases = []
    for w in range(1, 9):
        p = math.isqrt((2 ** (8 * w) - 1) // 8) + 1
        while not is_prime(p) or (p - 1) ** 2 * 8 >= 2 ** (8 * w):
            p -= 1
        cross = -(-(2 ** (8 * w)) // (p - 1) ** 2)
        cases += [(p, cross - 1, w), (p, cross, w + 1)]
    cases.append((2**31 - 1, 8, 9))
    return cases


@pytest.mark.parametrize("p,length,width", _kronecker_cases())
def test_kronecker_mul_exact_at_every_width(p, length, width):
    # The bound is the largest product coefficient, reached when every
    # coefficient is p - 1; the longer operand is 3 longer.  The two-nonzero
    # operand has the shape of the closed forms' f_3 = c(T - T^2), T = t^p,
    # with t^((length - 1) // 2) for T and t^(length - 1) for T^2.
    assert ((p - 1) ** 2 * length).bit_length() in range(8 * width - 7, 8 * width + 1)
    assert length + 3 < _TWO_POINT_MIN
    rng = random.Random(p * length)
    dense = [rng.randrange(1, p) for _ in range(length)]
    mixed = [rng.randrange(p) for _ in range(length + 3)]
    c = rng.randrange(1, p)
    two = [0] * length
    two[(length - 1) // 2], two[-1] = c, p - c
    cases = (([p - 1] * length, [p - 1] * (length + 3)), (dense, mixed), (two, mixed))
    for a, b in cases:
        f, g = PolyFp.of(p, a), PolyFp.of(p, b)
        expected = list(schoolbook_mul(f, g).coeffs)
        assert _convolve(f.coeffs, g.coeffs, p) == expected
        assert _convolve(g.coeffs, f.coeffs, p) == expected


def _two_point_cases():
    """(p, shorter length, width) for products that take _convolve's
    two-point path, on both sides of each 2^(8w) boundary that such a
    product reaches: for each w from 2 to 9, the largest prime p whose bound
    (p-1)^2 * _TWO_POINT_MIN fits in w bytes, at the shorter length where
    the bound still fits and at the one where it first crosses into w + 1
    bytes.  So the chunks are 2 to 10 bytes wide (p = 13 to 2^32 - 5), and
    both lengths' parities occur at every boundary; then 9 bytes at
    p = 2^31 - 1."""
    cases = []
    for w in range(2, 10):
        p = math.isqrt((2 ** (8 * w) - 1) // _TWO_POINT_MIN) + 1
        while not is_prime(p) or (p - 1) ** 2 * _TWO_POINT_MIN >= 2 ** (8 * w):
            p -= 1
        cross = -(-(2 ** (8 * w)) // (p - 1) ** 2)
        cases += [(p, cross - 1, w), (p, cross, w + 1)]
    cases.append((2**31 - 1, _TWO_POINT_MIN, 9))
    return cases


@pytest.mark.parametrize("p,length,width", _two_point_cases())
def test_two_point_mul_exact_at_every_width(p, length, width):
    # All-(p-1) operands in a 4:1 shape reach the bound in every middle
    # chunk of both halves; a dense operand against one a coefficient
    # longer gives an even product length, and the closed forms' two-nonzero
    # shape (as in test_kronecker_mul_exact_at_every_width) against one two
    # longer an odd one.  Every operand ends in a nonzero, so its length is
    # as given, and both argument orders are checked.
    assert ((p - 1) ** 2 * length).bit_length() in range(8 * width - 7, 8 * width + 1)
    assert length >= _TWO_POINT_MIN
    rng = random.Random(p * length)
    dense = [rng.randrange(1, p) for _ in range(length)]
    c = rng.randrange(1, p)
    two = [0] * length
    two[(length - 1) // 2], two[-1] = c, p - c

    def mixed(size):
        return [rng.randrange(p) for _ in range(size - 1)] + [rng.randrange(1, p)]

    top = [p - 1] * length
    cases = ((top, top * 4), (dense, mixed(length + 1)), (two, mixed(length + 2)))
    for a, b in cases:
        f, g = PolyFp.of(p, a), PolyFp.of(p, b)
        assert (len(f.coeffs), len(g.coeffs)) == (len(a), len(b))
        expected = list(schoolbook_mul(f, g).coeffs)
        assert _convolve(f.coeffs, g.coeffs, p) == expected
        assert _convolve(g.coeffs, f.coeffs, p) == expected


@st.composite
def crossover_pairs(draw):
    """Coefficient vectors whose shorter length is one below _TWO_POINT_MIN
    to two above it, at primes whose chunks are 1 to 10 bytes wide, each
    dense or all p - 1, the longer up to twice as long."""
    p = draw(st.sampled_from([2, 13, 257, 4099, 65521, 2**31 - 1, 2**32 - 5]))
    shorter = draw(st.integers(_TWO_POINT_MIN - 1, _TWO_POINT_MIN + 2))
    longer = draw(st.integers(shorter, 2 * shorter))
    rng = draw(st.randoms(use_true_random=False))

    def vector(size):
        if draw(st.booleans()):
            return array("I", [p - 1] * size)
        return array("I", [rng.randrange(p) for _ in range(size)])

    return p, vector(shorter), vector(longer)


@settings(max_examples=30, deadline=None)
@given(crossover_pairs())
def test_convolve_matches_schoolbook_at_the_crossover(data):
    # _convolve on the raw vectors, so a trailing zero keeps its length; a
    # vector times itself too.
    p, a, b = data
    expected = list(schoolbook_mul(PolyFp(p, a), PolyFp(p, b)).coeffs)
    for x, y in ((a, b), (b, a)):
        product = _convolve(x, y, p)
        assert len(product) == len(a) + len(b) - 1
        assert PolyFp(p, product) == PolyFp(p, expected)
    square = schoolbook_mul(PolyFp(p, a), PolyFp(p, a))
    assert PolyFp(p, _convolve(a, a, p)) == square


#: The nonzero count that perfbench (child.py's SPARSE_NNZ) and
#: tests/test_work_counts.py call sparse.
_FEW_NONZEROS = 6


@st.composite
def sparse_dense_pairs(draw):
    """A polynomial with exactly 6 or exactly 7 nonzero coefficients, spread
    over up to three blocks of size p, and a dense one with more than 6."""
    p = draw(st.sampled_from([5, 13, 101, 211]))
    rng = draw(st.randoms(use_true_random=False))
    nonzeros = draw(st.sampled_from([_FEW_NONZEROS, _FEW_NONZEROS + 1]))
    length = draw(st.integers(nonzeros, 3 * p))
    sparse = [0] * length
    for d in rng.sample(range(length), nonzeros):
        sparse[d] = rng.randrange(1, p)
    dense = [rng.randrange(1, p) for _ in range(draw(st.integers(7, 2 * p)))]
    return PolyFp.of(p, sparse), PolyFp.of(p, dense)


@settings(max_examples=60)
@given(sparse_dense_pairs())
def test_sparse_mul_matches_schoolbook(data):
    # Both shapes, 6 and 7 nonzeros, take the one Kronecker path; 6 is the
    # count that perfbench still reports as sparse.
    sparse, dense = data
    expected = schoolbook_mul(sparse, dense)
    assert sparse * dense == expected
    assert dense * sparse == expected


def test_sparse_mul_zero_operand():
    p = 13
    f = PolyFp.of(p, range(1, 12))
    assert (f * PolyFp.zero(p)).is_zero and (PolyFp.zero(p) * f).is_zero
    # an unnormalized all-zero vector packs to 0, and Kronecker unpacks zeros
    zeros = array("I", [0, 0, 0])
    assert _convolve(zeros, f.coeffs, p) == [0] * (len(f.coeffs) + 2)
    assert _convolve(f.coeffs, zeros, p) == [0] * (len(f.coeffs) + 2)


_coefficient_lists = st.one_of(
    st.just([]),
    st.lists(st.just(0), min_size=1, max_size=5),
    st.lists(st.integers(-500, 500), max_size=12),
)


@st.composite
def shift_add_terms(draw):
    """(c, shift, coefficients) terms with weights of either sign or zero,
    zero and unreduced coefficient lists, and shifts that overlap."""
    p = draw(st.sampled_from(PRIMES))
    weights = st.one_of(st.just(0), st.just(1), st.just(-1), st.integers(-3 * p, 3 * p))
    terms = st.tuples(weights, st.integers(0, 15), _coefficient_lists)
    return p, draw(st.lists(terms, max_size=8))


@example((7, []))
@given(shift_add_terms())
def test_sum_of_matches_schoolbook_products(data):
    p, terms = data
    polys = [(c, shift, PolyFp.of(p, coeffs)) for c, shift, coeffs in terms]
    expected = PolyFp.zero(p)
    for c, shift, f in polys:
        expected = expected + schoolbook_mul(PolyFp.of(p, [0] * shift + [c]), f)
    assert PolyFp.sum_of(p, polys) == expected
    # the raw accumulator takes stored vectors with trailing zeros
    stored = [(c, shift, array("I", [y % p for y in f])) for c, shift, f in terms]
    assert PolyFp(p, _shift_add(stored, p)) == expected


@example((7, []))
@given(shift_add_terms())
def test_packed_sum_matches_list_accumulator(data):
    # The terms as stored 'I' vectors, each also taken a second time at
    # another weight and shift, so that one packed vector serves two terms.
    p, terms = data
    stored = [(c, shift, array("I", [y % p for y in f])) for c, shift, f in terms]
    case = stored + [(c + 1, shift + 1, f) for c, shift, f in stored]
    total = _shift_add(case, p)
    assert total.typecode == "I"
    assert PolyFp(p, total) == PolyFp(p, shift_add_list(case, p))


@pytest.mark.parametrize("p,count,width", [*_kronecker_cases(), (2**31 - 1, 300, 9)])
def test_packed_sum_exact_at_every_width(p, count, width):
    # The sum's bound count * (p-1)^2 is _convolve's with the term count for
    # the shorter length, so the product's cases give every bound width from
    # 1 to 9 bytes on both sides of each boundary (the sum packs bounds below
    # 4 bytes into 4-byte chunks); then many terms above 8 bytes.
    # Every weight of the first sum reduces to p - 1 and every coefficient
    # is p - 1, and with shifts 0 to 3 over 8 coefficients all terms overlap
    # at t^3..t^7, so those chunks reach the bound.  Half the terms share
    # one vector.  The second sum has random weights, vectors and shifts.
    assert ((count * (p - 1) ** 2).bit_length() + 7) // 8 == width
    rng = random.Random(p * count)
    top = array("I", [p - 1] * 8)
    weights = (-1, p - 1, -1 - 3 * p)
    full = [
        (rng.choice(weights), rng.randrange(4), top if i % 2 else array("I", top))
        for i in range(count)
    ]
    mixed = [
        (
            rng.randrange(-3 * p, 3 * p),
            rng.randrange(12),
            array("I", [rng.randrange(p) for _ in range(rng.randrange(1, 9))]),
        )
        for _ in range(count)
    ]
    for terms in (full, mixed):
        assert PolyFp(p, _shift_add(terms, p)) == PolyFp(p, shift_add_list(terms, p))


def _sum_width(count, p):
    """The chunk width in bytes of a sum of count terms: see _shift_add."""
    return max(4, ((count * (p - 1) ** 2).bit_length() + 7) // 8)


#: Primes whose sums of 1 to 7 terms take every chunk width from 4 to 9.
_WIDE_PRIMES = [5, 101, 65521, 1048573, 16777213, 268435399, 2**31 - 1, 2**32 - 5]


@st.composite
def zero_test_sums(draw):
    """Terms of stored vectors at primes whose sums are 4 to 9 bytes wide:
    random ones; each also negated, so the sum is zero and every chunk of
    its total a multiple of p; or that zero sum with a term
    [(-2^(8w)) % p, 1] added, for w the sum's width, whose first chunk
    carries a multiple of p into the next: the packed total is divisible by
    p but the sum is not zero."""
    p = draw(st.sampled_from(_WIDE_PRIMES))
    rng = draw(st.randoms(use_true_random=False))
    terms = [
        (
            rng.randrange(-p, 2 * p),
            rng.randrange(6),
            array("I", [rng.randrange(p) for _ in range(rng.randrange(1, 6))]),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    shape = draw(st.sampled_from(["random", "zero", "carried"]))
    if shape != "random":
        terms += [(-c, shift, f) for c, shift, f in terms]
    if shape == "carried":
        # _shift_add drops the terms whose weight is 0 mod p
        width = _sum_width(sum(1 for c, _, _ in terms if c % p) + 1, p)
        terms.append((1, draw(st.integers(0, 6)), array("I", [(-(1 << 8 * width)) % p, 1])))
    return p, shape, terms


@settings(max_examples=200)
@given(zero_test_sums())
def test_zero_test_matches_list_accumulator(data):
    p, shape, terms = data
    expected = PolyFp(p, shift_add_list(terms, p))
    assert PolyFp(p, _shift_add(terms, p)) == expected
    if shape != "random":
        assert expected.is_zero is (shape == "zero")


def _zero_test_terms(shape, n, p, rng):
    """Two random terms of n coefficients, with weights nonzero mod p; for
    "zero" and "carried" each also negated, and for "carried" the term
    [(-2^(8w)) % p, 1] added at t^(n-2), as in zero_test_sums."""
    terms = [
        (rng.randrange(1, p) + p * rng.randrange(-1, 2), 0, array("I", rng.choices(range(p), k=n)))
        for _ in range(2)
    ]
    if shape != "random":
        terms += [(-c, shift, f) for c, shift, f in terms]
    if shape == "carried":
        width = _sum_width(len(terms) + 1, p)
        terms.append((1, n - 2, array("I", [(-(1 << 8 * width)) % p, 1])))
    return terms


@pytest.mark.parametrize("p", _WIDE_PRIMES)
def test_zero_test_keeps_one_mask_per_width(p, monkeypatch):
    # From an empty store: sums of 3 chunks build their masks, sums of 300
    # grow them, and sums of 3 again read the longer masks, which AND to the
    # same result.  Each sum is checked against the list accumulator.
    monkeypatch.setattr(polyfp, "_HIGH_MASKS", {})
    masks, rng, longest = polyfp._HIGH_MASKS, random.Random(p), 0
    for n in (3, 300, 3):
        for shape in ("zero", "carried", "random"):
            terms = _zero_test_terms(shape, n, p, rng)
            expected = PolyFp(p, shift_add_list(terms, p))
            assert PolyFp(p, _shift_add(terms, p)) == expected, (n, shape)
            assert expected.is_zero is (shape == "zero")
        longest = max(longest, n)
        assert masks, n
        for (width, spare), mask in masks.items():
            assert mask.bit_length() == 8 * width * longest, (n, width)
            assert mask >> spare & 1 and not mask >> spare - 1 & 1


# (p, k, width): k-term zero sums whose quotient chunks reach 2^(spare-1),
# for spare = 8 width - p.bit_length(), under the bound k (p-1)^2 < p 2^spare
# that keeps them below 2^spare, so _shift_add's zero test must pass them.
_ZERO_TEST_CASES = [
    (16411, 5, 4),
    (262147, 5, 5),
    (4194319, 5, 6),
    (67108879, 5, 7),
    (1073741827, 5, 8),
    (2**31 - 1, 4, 8),
    (2**32 - 5, 200, 9),
]


@pytest.mark.parametrize("p,k,width", _ZERO_TEST_CASES)
def test_zero_sum_is_recognised_without_unpacking(p, k, width, monkeypatch):
    # Weights p - 1 (k - 1 times) and k - 1 on the all-(p-1) vector: every
    # chunk of the total is (k-1)(p-1)p.  A zero sum of k - 1 such terms and
    # a carried term [(-2^(8w)) % p, 1] past them is divisible by p and not
    # zero; its quotient's carried chunk lies in [2^spare, 2^(spare+1)].
    assert _sum_width(k, p) == width
    spare = 8 * width - p.bit_length()
    assert k * (p - 1) ** 2 < p << spare and (k - 1) * (p - 1) >= 1 << (spare - 1)
    top = array("I", [p - 1] * 3)
    zero = [(p - 1, 0, top)] * (k - 1) + [(k - 1, 0, top)]
    carried = [(p - 1, 0, top)] * (k - 2) + [(k - 2, 0, top)]
    carried.append((1, 3, array("I", [(-(1 << 8 * width)) % p, 1])))
    expected = shift_add_list(carried, p)
    assert any(expected)
    assert PolyFp(p, _shift_add(carried, p)) == PolyFp(p, expected)

    def unpacked(*args):
        raise AssertionError("a zero sum was unpacked")

    monkeypatch.setattr(polyfp, "_residues", unpacked)
    assert _shift_add(zero, p) == array("I", [0] * 3)


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
    assert math.prod([f] * p, start=PolyFp.one(p)) == PolyFp.of(p, spread)


def test_mul_degree_adds():
    f = PolyFp.of(7, [1, 1, 3])
    g = PolyFp.of(7, [2, 5])
    assert len((f * g).coeffs) - 1 == (len(f.coeffs) - 1) + (len(g.coeffs) - 1)
    assert len((f * PolyFp.zero(7)).coeffs) - 1 == -1


# --- composition at 1 - t ----------------------------------------------------


def test_compose_basics():
    p = 7
    t = PolyFp.of(p, [0, 1])
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
    assert len(compose_one_minus_t(f).coeffs) - 1 == len(f.coeffs) - 1


# --- serialization -----------------------------------------------------------


def test_str_format():
    assert str(PolyFp.of(5, [0, 1, 3, 2, 4])) == "t + 3t^2 + 2t^3 + 4t^4 (mod 5)"
    assert str(PolyFp.zero(7)) == "0 (mod 7)"
    assert str(PolyFp.one(7)) == "1 (mod 7)"
    assert str(PolyFp.of(7, [0, 0, 1])) == "t^2 (mod 7)"


def test_compact_form():
    assert PolyFp.of(5, [0, 1, 3, 2, 4]).compact() == "[5; 0,1,3,2,4]"
    assert PolyFp.zero(11).compact() == "[11; 0]"


def test_shifted():
    f = PolyFp.of(7, [1, 2])
    assert f.shifted(3) == PolyFp.of(7, [0, 0, 0, 1, 2])
    # padded with zero words in front of the array
    assert f.shifted(3).coeffs == array("I", [0, 0, 0, 1, 2])
    assert f.shifted(0) == f
    assert PolyFp.zero(7).shifted(4).is_zero
