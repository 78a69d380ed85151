"""Exact arithmetic in Z/pZ: prime enumeration, residues, Bernoulli numbers mod p.

Everything here is a pure function of its inputs; all values are immutable
and safe to share between workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "DenominatorNotInvertible",
    "PrimeMismatch",
    "Residue",
    "bernoulli_mod",
    "inverse_table",
    "is_prime",
    "primes_in",
    "require_prime",
]


class PrimeMismatch(ValueError):
    """Arithmetic between values attached to different primes."""


class DenominatorNotInvertible(ValueError):
    """Bernoulli index so large that the von Staudt-Clausen denominator hits p."""


# Deterministic Miller-Rabin witnesses, exact for n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic primality check (Miller-Rabin with fixed witness set)."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def primes_in(lo: int, hi: int) -> list[int]:
    """All primes p with max(lo, 5) <= p <= hi, ascending.

    The floor of 5 is global: below it the chain sums are empty or degenerate.
    Only the window [max(lo, 5), hi] is sieved, by the primes up to isqrt(hi),
    so memory grows with the width of the range and the root of hi, not hi.
    """
    if lo > hi:
        raise ValueError(f"empty range: lo={lo} > hi={hi}")
    lo = max(lo, 5)
    if hi < lo:
        return []
    root = math.isqrt(hi)
    base = bytearray([1]) * (root + 1)
    window = bytearray([1]) * (hi - lo + 1)
    for q in range(2, root + 1):
        if base[q]:
            base[q * q :: q] = bytearray(len(range(q * q, root + 1, q)))
            start = max(q * q, -(-lo // q) * q)
            window[start - lo :: q] = bytearray(len(range(start, hi + 1, q)))
    return [lo + i for i, flag in enumerate(window) if flag]


@lru_cache(maxsize=None)
def inverse_table(p: int) -> tuple[int, ...]:
    """inv[i] = i^{-1} mod p for 1 <= i < p; index 0 is unused."""
    require_prime(p)
    inv = [0] * p
    inv[1] = 1
    for i in range(2, p):
        inv[i] = (p - (p // i) * inv[p % i]) % p
    return tuple(inv)


@dataclass(frozen=True)
class Residue:
    """An element of Z/pZ tagged with its prime: the (value, p) record that
    zeta_variant and bernoulli_mod return.  Equal only to a residue of the
    same value and prime."""

    value: int
    p: int

    def __post_init__(self):
        require_prime(self.p)
        if not 0 <= self.value < self.p:
            raise ValueError(f"{self.value} is not reduced mod {self.p}")

    def __neg__(self):
        return Residue(-self.value % self.p, self.p)

    def __str__(self):
        return f"{self.value} (mod {self.p})"


def bernoulli_mod(m: int, p: int) -> Residue:
    """Reduction mod p of the rational Bernoulli number B_m, m even.

    Requires m <= p - 3 so that the von Staudt-Clausen denominator of B_m is
    prime to p.  Even index makes the B_1 sign convention immaterial.  For
    2 <= m <= p - 3 it uses the power-sum congruence
    sum_{a<p} a^m = p B_m (mod p^2) (Buhler and Harvey, "Irregular primes to
    163 million", 2011): O(p) modular powers, where the Akiyama-Tanigawa
    triangle costs O(m^2).
    """
    require_prime(p)
    if m < 0 or m % 2 != 0:
        raise ValueError(f"Bernoulli index must be even and nonnegative, got {m}")
    if m > p - 3:
        raise DenominatorNotInvertible(f"B_{m} mod {p}: need m <= p - 3")
    if m == 0:
        return Residue(1, p)
    p2 = p * p
    power_sum = sum(pow(a, m, p2) for a in range(1, p)) % p2
    return Residue(power_sum // p % p, p)
