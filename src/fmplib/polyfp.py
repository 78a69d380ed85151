"""Dense univariate polynomials over Z/pZ, one prime at a time."""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import islice
from operator import add, sub

from .modular import require_prime

__all__ = [
    "PolyFp",
    "compose_one_minus_t",
]


# Every stored coefficient vector (PolyFp, the chain DP's memo, the
# strict-chain heads and tails) is an array of 4-byte unsigned words: an
# int takes 4 bytes there, where a tuple or list slot and its int take about
# 33.  So every prime must be below 2^32; a p-long vector could not be held
# at a larger p anyway.  Narrower types for small p would save more but
# cost about three times as much to build from a list.
_WORD = "I"


def _words(values: Iterable[int]) -> array:
    """values, each in [0, 2^32), as a stored coefficient vector."""
    return array(_WORD, values)


def _require_word_prime(p: int) -> int:
    """p, if it is a prime whose residues fit in one stored word."""
    if p >= 1 << 32:
        raise ValueError(f"p = {p} is not below 2^32, the coefficient word size")
    return require_prime(p)


def _normalize(coeffs: Sequence[int]) -> array:
    """coeffs without trailing zeros, as an 'I' array of 4-byte words, in at
    most one copy: an 'I' array with no trailing zero is returned as it is."""
    if not any(coeffs):
        return _words(())
    n = len(coeffs)
    while coeffs[n - 1] == 0:
        n -= 1
    if isinstance(coeffs, array) and coeffs.typecode == _WORD:
        return coeffs if n == len(coeffs) else coeffs[:n]
    return _words(coeffs if n == len(coeffs) else islice(coeffs, n))


def _shift_add(terms: Iterable[tuple[int, int, Sequence[int]]], p: int) -> list[int]:
    """The sum of c * t^shift * f over the (c, shift, f) terms, each f a
    coefficient sequence, as a list of coefficients.

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


def _pack(v: Sequence[int], width: int) -> int:
    """The integer whose width-byte little-endian chunks are the entries of
    v, each below p < 2^32.  The entries are staged as 4-byte words (an 'I'
    array is its own staging) and copied into the chunks by one strided
    slice per byte that both a word and a chunk hold; the chunks' higher
    bytes stay zero."""
    words = v if isinstance(v, array) and v.typecode == _WORD else _words(v)
    if sys.byteorder == "big":
        words = _words(words)  # v may be a PolyFp's own array
        words.byteswap()
    staged, size = words.tobytes(), words.itemsize
    chunks = bytearray(width * len(v))
    for j in range(min(width, size)):
        chunks[j::width] = staged[j::size]
    return int.from_bytes(chunks, "little")


def _unpack(x: int, width: int, n: int) -> array:
    """The first n width-byte chunks of x, width <= 8, as 8-byte words:
    _pack in reverse."""
    chunks = x.to_bytes(width * n, "little")
    staged = bytearray(8 * n)
    for j in range(width):
        staged[j::8] = chunks[j::width]
    words = array("Q", staged)
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _convolve(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Exact convolution of reduced coefficient vectors, by Kronecker
    substitution: pack each vector into one big integer with enough room per
    chunk that product coefficients cannot collide, multiply, unpack.

    Exact for every p (no floating point, no fixed-width overflow), and far
    faster than a Python-level schoolbook loop at the degrees the identity
    sweeps reach (~10^3).  Chunks of up to 8 bytes (p up to about 2^21 at
    operand lengths about p) are converted by C-level strided byte copies
    from 4-byte words into the chunks (_pack) and from the chunks into
    8-byte words (_unpack); the chunks keep
    their width, so the bignum product is no larger.  Wider chunks are
    converted one coefficient at a time.
    """
    n = len(a) + len(b) - 1
    bound = (p - 1) * (p - 1) * min(len(a), len(b))
    width = (bound.bit_length() + 7) // 8
    if width <= 8:
        return [x % p for x in _unpack(_pack(a, width) * _pack(b, width), width, n)]
    abig = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in a), "little")
    bbig = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in b), "little")
    raw = (abig * bbig).to_bytes(width * n, "little")
    return [int.from_bytes(raw[i * width : (i + 1) * width], "little") % p for i in range(n)]


@dataclass(frozen=True)
class PolyFp:
    """A normalized dense polynomial: coeffs[d] is the coefficient of t^d.

    Coefficients are canonical ints in [0, p), stored as an array('I') of
    4-byte words, so p must be below 2^32; the zero polynomial is the empty
    array.  The constructor takes any sequence and strips trailing zeros, and
    `of` also reduces.  The array may be shared with a memo, so it is never
    mutated, and a PolyFp is not hashable.
    """

    p: int
    coeffs: array

    __hash__ = None

    def __post_init__(self):
        _require_word_prime(self.p)
        object.__setattr__(self, "coeffs", _normalize(self.coeffs))

    @classmethod
    def of(cls, p: int, coeffs: Iterable[int]) -> "PolyFp":
        _require_word_prime(p)
        return cls(p, [int(c) % p for c in coeffs])

    @classmethod
    def sum_of(cls, p: int, terms: Iterable[tuple[int, int, "PolyFp"]]) -> "PolyFp":
        """The sum of c * t^shift * f over (c, shift, f) terms, reduced once;
        see _shift_add."""

        def coefficients():
            for c, shift, f in terms:
                if f.p != p:
                    raise ValueError(f"mod {p} vs mod {f.p}")
                yield c, shift, f.coeffs

        return cls(p, _shift_add(coefficients(), p))

    @classmethod
    def zero(cls, p: int) -> "PolyFp":
        return cls(p, ())

    @classmethod
    def one(cls, p: int) -> "PolyFp":
        return cls.of(p, (1,))

    @property
    def degree(self) -> int:
        """-1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "PolyFp") -> "PolyFp":
        return PolyFp.sum_of(self.p, [(1, 0, self), (1, 0, other)])

    def __sub__(self, other: "PolyFp") -> "PolyFp":
        if self.p == other.p and self.coeffs == other.coeffs:
            return PolyFp(self.p, ())
        return PolyFp.sum_of(self.p, [(1, 0, self), (-1, 0, other)])

    def __neg__(self) -> "PolyFp":
        return PolyFp.sum_of(self.p, [(-1, 0, self)])

    def __mul__(self, other):
        if isinstance(other, int):
            return PolyFp.sum_of(self.p, [(other, 0, self)])
        if isinstance(other, PolyFp):
            if self.p != other.p:
                raise ValueError(f"mod {self.p} vs mod {other.p}")
            if not self.coeffs or not other.coeffs:
                return PolyFp(self.p, ())
            return PolyFp(self.p, _convolve(self.coeffs, other.coeffs, self.p))
        return NotImplemented

    __rmul__ = __mul__

    def shifted(self, d: int) -> "PolyFp":
        """Multiply by t^d."""
        if self.is_zero:
            return self
        return PolyFp(self.p, _words([0]) * d + self.coeffs)

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
    block: Sequence[int], p: int, fact: list[int], inv_fact: list[int]
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
        acc = _shift_add([(1, 0, acc), (-1, p, acc), (1, 0, small)], p)
    return PolyFp(p, acc)

