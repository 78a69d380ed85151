"""Inverses and residues mod p, prime enumeration, Bernoulli numbers mod p."""

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fmplib.modular import (
    Residue,
    bernoulli_mod,
    inverse_table,
    is_prime,
    primes_in,
)

SMALL_PRIMES = [5, 7, 11, 13, 17, 19, 23, 31]


def extended_gcd(a, b):
    if b == 0:
        return a, 1, 0
    g, x, y = extended_gcd(b, a % b)
    return g, y, x - (a // b) * y


def bernoulli_exact(n_max):
    """B_0..B_n_max as exact rationals via sum(C(m+1, j) B_j) = 0."""
    bs = [Fraction(1)]
    for m in range(1, n_max + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * bs[j]
        bs.append(-acc / (m + 1))
    return bs


def reduce_fraction(q: Fraction, p: int) -> int:
    assert q.denominator % p != 0
    return q.numerator * pow(q.denominator, p - 2, p) % p


def bernoulli_triangle(m: int, p: int) -> int:
    """B_m mod p by the Akiyama-Tanigawa scheme run mod p; every divisor is
    <= m+1 < p.  O(m^2), a second oracle next to the exact rationals."""
    row = [pow(j + 1, p - 2, p) for j in range(m + 1)]
    for i in range(1, m + 1):
        for j in range(m + 1 - i):
            row[j] = (j + 1) * (row[j] - row[j + 1]) % p
    return row[0]


# --- inverse table -----------------------------------------------------------


def test_inverse_examples():
    assert inverse_table(5)[3] == 2
    assert inverse_table(13)[4] == 10
    g, x, _ = extended_gcd(4, 13)
    assert g == 1 and x % 13 == 10
    assert 4 * 10 % 13 == 1


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_inverse_of_one(p):
    assert inverse_table(p)[1] == 1


@given(st.sampled_from(SMALL_PRIMES), st.data())
def test_inverse_involution_and_product(p, data):
    inv = inverse_table(p)
    a = data.draw(st.integers(1, p - 1))
    assert inv[inv[a]] == a
    assert a * inv[a] % p == 1


# --- residue record ------------------------------------------------------------


def test_residue_validation():
    with pytest.raises(ValueError):
        Residue(5, 5)
    with pytest.raises(ValueError):
        Residue(-1, 5)
    with pytest.raises(ValueError):
        Residue(1, 6)


def test_residue_ops():
    # A residue is a record: equality and printing, no arithmetic.
    a = Residue(3, 7)
    assert a == Residue(3, 7) and a != Residue(3, 11) and a != 3
    assert str(a) == "3 (mod 7)"
    with pytest.raises(TypeError):
        -a


# --- primes ----------------------------------------------------------------


def test_primes_in_examples():
    assert primes_in(5, 20) == [5, 7, 11, 13, 17, 19]
    assert primes_in(7, 7) == [7]
    assert primes_in(24, 28) == []
    assert primes_in(2, 11) == [5, 7, 11]  # floor at 5


def test_primes_in_empty_range_rejected():
    with pytest.raises(ValueError):
        primes_in(10, 5)


def test_primes_in_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    # Whole ranges, windows whose low end is not 5, and a range sieved in
    # three spans of _SIEVE_SPAN.
    ranges = ((5, 10_000), (1000, 1100), (1, 4), (4, 11), (25, 29), (121, 127), (9, 140_000))
    for lo, hi in ranges:
        expected = [n for n in range(max(lo, 5), hi + 1) if trial(n)]
        assert primes_in(lo, hi) == expected


def test_primes_in_memory_follows_the_window():
    lo, hi = 10**9, 10**9 + 1000
    tracemalloc.start()
    try:
        got = primes_in(lo, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [n for n in range(lo, hi + 1) if is_prime(n)]
    assert peak < 1_000_000, peak


def test_is_prime_spot():
    assert is_prime(2) and is_prime(199) and is_prime(104729)
    assert not is_prime(1) and not is_prime(0) and not is_prime(187)


# --- Bernoulli -------------------------------------------------------------


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_bernoulli_b0(p):
    assert bernoulli_mod(0, p) == Residue(1, p)


def test_bernoulli_examples():
    # B_2 = 1/6, B_8 = -1/30, reduced from the exact rationals
    assert bernoulli_mod(2, 7) == Residue(6, 7)
    assert bernoulli_mod(2, 7).value == reduce_fraction(Fraction(1, 6), 7)
    assert bernoulli_mod(8, 11).value == reduce_fraction(Fraction(-1, 30), 11)


def test_bernoulli_guards():
    with pytest.raises(ValueError, match="B_10 mod 11: need m <= p - 3"):
        bernoulli_mod(10, 11)  # m > p - 3
    with pytest.raises(ValueError):
        bernoulli_mod(3, 11)  # odd index
    with pytest.raises(ValueError):
        bernoulli_mod(-2, 11)


def test_bernoulli_dual_path_against_exact_rationals():
    # The power-sum route must agree with exact rational recurrence + reduction
    # for every even m <= p - 3 and every prime 7 <= p <= 199.
    primes = primes_in(7, 199)
    exact = bernoulli_exact(primes[-1] - 3)
    for p in primes:
        for m in range(0, p - 2, 2):
            assert bernoulli_mod(m, p).value == reduce_fraction(exact[m], p), (m, p)


def test_bernoulli_matches_triangle():
    # From the boundary prime p = 5, where only m = 0 and m = 2 are defined.
    for p in primes_in(5, 300):
        for m in sorted({0, 2, p - 5, p - 3} & set(range(0, p - 2, 2))):
            assert bernoulli_mod(m, p).value == bernoulli_triangle(m, p), (m, p)
