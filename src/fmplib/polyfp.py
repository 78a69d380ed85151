"""Dense univariate polynomials over Z/pZ, one prime at a time."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable

from .modular import PrimeMismatch, require_prime

__all__ = [
    "MINUS_INFINITY",
    "PolyFp",
    "compose_one_minus_t",
]

#: Degree of the zero polynomial.  A distinguished marker, deliberately not -1:
#: it compares below every integer and survives degree arithmetic audits.
MINUS_INFINITY = float("-inf")


def _normalize(coeffs: list[int]) -> tuple[int, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _convolve(a: tuple[int, ...], b: tuple[int, ...], p: int) -> list[int]:
    """Exact convolution of reduced coefficient vectors.

    Kronecker substitution: pack each vector into one big integer with enough
    room per chunk that product coefficients cannot collide, multiply, unpack.
    Exact for every p (no floating point, no fixed-width overflow), and far
    faster than a Python-level schoolbook loop at the degrees the identity
    sweeps reach (~10^3).
    """
    if not a or not b:
        return []
    bound = (p - 1) * (p - 1) * min(len(a), len(b))
    width = (bound.bit_length() + 7) // 8
    abig = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in a), "little")
    bbig = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in b), "little")
    raw = (abig * bbig).to_bytes(width * (len(a) + len(b)), "little")
    return [
        int.from_bytes(raw[i * width : (i + 1) * width], "little") % p
        for i in range(len(a) + len(b) - 1)
    ]


@dataclass(frozen=True)
class PolyFp:
    """A normalized dense polynomial: coeffs[d] is the coefficient of t^d.

    The zero polynomial is the empty coefficient tuple.  Coefficients are
    canonical ints in [0, p); construct through `of` to get reduction for free.
    """

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        require_prime(self.p)
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("coefficients not normalized; use PolyFp.of")

    @classmethod
    def of(cls, p: int, coeffs: Iterable[int]) -> "PolyFp":
        require_prime(p)
        return cls(p, _normalize([int(c) % p for c in coeffs]))

    @classmethod
    def zero(cls, p: int) -> "PolyFp":
        return cls(p, ())

    @classmethod
    def one(cls, p: int) -> "PolyFp":
        return cls.of(p, (1,))

    @classmethod
    def monomial(cls, p: int, degree: int, coeff: int = 1) -> "PolyFp":
        return cls.of(p, [0] * degree + [coeff])

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else MINUS_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, d: int) -> int:
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else 0

    def _check(self, other: "PolyFp"):
        if self.p != other.p:
            raise PrimeMismatch(f"mod {self.p} vs mod {other.p}")

    def __add__(self, other: "PolyFp") -> "PolyFp":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        return PolyFp(self.p, _normalize(out))

    def __sub__(self, other: "PolyFp") -> "PolyFp":
        self._check(other)
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] = (out[i] - c) % self.p
        return PolyFp(self.p, _normalize(out))

    def __neg__(self) -> "PolyFp":
        return PolyFp(self.p, tuple(-c % self.p for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.p
            if c == 0:
                return PolyFp.zero(self.p)
            return PolyFp(self.p, _normalize([a * c % self.p for a in self.coeffs]))
        if isinstance(other, PolyFp):
            self._check(other)
            return PolyFp(self.p, _normalize(_convolve(self.coeffs, other.coeffs, self.p)))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "PolyFp":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = PolyFp.one(self.p)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def shifted(self, d: int) -> "PolyFp":
        """Multiply by t^d."""
        if self.is_zero:
            return self
        return PolyFp(self.p, (0,) * d + self.coeffs)

    def __str__(self):
        if self.is_zero:
            return f"0 (mod {self.p})"
        terms = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if d == 0:
                terms.append(str(c))
            else:
                base = "t" if d == 1 else f"t^{d}"
                terms.append(base if c == 1 else f"{c}{base}")
        return " + ".join(terms) + f" (mod {self.p})"

    def compact(self) -> str:
        """Compact list form "[p; c0,c1,...]" used in machine-readable reports."""
        coeffs = self.coeffs if self.coeffs else (0,)
        return f"[{self.p}; {','.join(str(c) for c in coeffs)}]"

    @classmethod
    def from_compact(cls, text: str) -> "PolyFp":
        body = text.strip()
        if not (body.startswith("[") and body.endswith("]")) or ";" not in body:
            raise ValueError(f"not a compact polynomial: {text!r}")
        head, tail = body[1:-1].split(";", 1)
        coeffs = [int(c) for c in tail.split(",")] if tail.strip() else []
        return cls.of(int(head), coeffs)


def _factorial_tables(n: int, p: int) -> tuple[list[int], list[int]]:
    """k! and 1/k! mod p for 0 <= k < n; needs n <= p so every k! is a unit."""
    fact = [1] * n
    for k in range(1, n):
        fact[k] = fact[k - 1] * k % p
    inv_fact = [1] * n
    inv_fact[-1] = pow(fact[-1], p - 2, p)
    for k in range(n - 1, 0, -1):
        inv_fact[k - 1] = inv_fact[k] * k % p
    return fact, inv_fact


def _block_at_one_minus_t(
    block: tuple[int, ...], p: int, fact: list[int], inv_fact: list[int]
) -> list[int]:
    # Taylor shift g(x) = f(1+x): with a_i = c_i i!, the coefficient of x^k is
    # (1/k!) sum_i a_i / (i-k)!, a correlation of a against 1/j!, done as one
    # convolution of reversed a with 1/j!.  Then f(1-t) = g(-t).
    n = len(block)
    weighted = tuple(block[i] * fact[i] % p for i in range(n - 1, -1, -1))
    corr = _convolve(weighted, tuple(inv_fact[:n]), p)
    shifted = [corr[n - 1 - k] * inv_fact[k] % p for k in range(n)]
    shifted[1::2] = [-c % p for c in shifted[1::2]]
    return shifted


def compose_one_minus_t(f: PolyFp) -> PolyFp:
    """f(1-t), exactly, in (Z/pZ)[t].

    Splits the coefficient vector into blocks of size p and runs Horner in
    y = (1-t)^p, which equals 1 - t^p by the Frobenius identity.  Each block
    (degree < p) is composed with 1-t by a Taylor shift done as one
    Kronecker convolution against 1/k! (von zur Gathen and Gerhard, "Fast
    algorithms for Taylor shifts", 1997): O(p) Python-level work and one
    bignum multiply per block, where Horner at 1-t costs O(p^2).  Factorials
    below p are invertible mod p, so the arithmetic stays exact.  An
    involution, and a ring homomorphism with respect to + and *.
    """
    p = f.p
    if f.is_zero:
        return f
    fact, inv_fact = _factorial_tables(min(p, len(f.coeffs)), p)
    blocks = [f.coeffs[i : i + p] for i in range(0, len(f.coeffs), p)]
    acc: list[int] = []
    for block in reversed(blocks):
        # acc <- acc * (1 - t^p) + block(1 - t)
        small = _block_at_one_minus_t(block, p, fact, inv_fact)
        acc = [
            (a + c - b) % p
            for a, c, b in zip_longest(acc, small, [0] * p + acc, fillvalue=0)
        ]
    return PolyFp(p, _normalize(acc))

