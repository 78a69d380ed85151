"""Dense univariate polynomials over Z/pZ, one prime at a time."""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import islice

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
_WORD, _WORD_LIMIT = "I", 1 << 32


def _words(values: Iterable[int]) -> array:
    """values, each in [0, 2^32), as a stored coefficient vector."""
    return array(_WORD, values)


def _require_word_prime(p: int) -> int:
    """p, if it is a prime whose residues fit in one stored word."""
    if p >= _WORD_LIMIT:
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


def _pack(words: array, width: int) -> int:
    """The integer whose width-byte little-endian chunks are the entries of
    the stored vector words, each below p < 2^32.  The words are copied into
    the chunks by one strided slice per byte that both a word and a chunk
    hold; the chunks' higher bytes stay zero.  At width 4 on a little-endian
    host the words are the chunks."""
    if sys.byteorder == "big":
        words = _words(words)  # a copy: words may be a PolyFp's own array
        words.byteswap()
    elif width == words.itemsize:
        return int.from_bytes(words, "little")
    staged, size = words.tobytes(), words.itemsize
    chunks = bytearray(width * len(words))
    for j in range(min(width, size)):
        chunks[j::width] = staged[j::size]
    return int.from_bytes(chunks, "little")


def _negated(v: array, p: int) -> array:
    """-v mod p for residues v, in C: each chunk of packed all-p minus packed
    v is p - x, with no borrow; the few equal to p, where x = 0, are reset."""
    chunks = (_pack(_words([p]) * len(v), 4) - _pack(v, 4)).to_bytes(4 * len(v), "little")
    out, at, i = array(_WORD, chunks), p.to_bytes(4, "little"), -1
    if sys.byteorder == "big":
        out.byteswap()
    while (i := chunks.find(at, i + 1)) >= 0:
        if i % 4 == 0:
            out[i // 4] = 0
    return out


def _residues(x: int, width: int, n: int, p: int) -> list[int]:
    """The first n width-byte chunks of x, each reduced mod p: _pack in
    reverse.  4-byte chunks on a little-endian host are read as 4-byte
    words; other chunks of up to 8 bytes are copied into 8-byte words by one
    strided slice per byte, and wider ones are read one at a time."""
    chunks = x.to_bytes(width * n, "little")
    if width == 4 and sys.byteorder == "little":
        return [y % p for y in array(_WORD, chunks)]
    if width > 8:
        starts = range(0, width * n, width)
        return [int.from_bytes(chunks[i : i + width], "little") % p for i in starts]
    staged = bytearray(8 * n)
    for j in range(width):
        staged[j::8] = chunks[j::width]
    words = array("Q", staged)
    if sys.byteorder == "big":
        words.byteswap()
    return [y % p for y in words]


def _shift_add(terms: Iterable[tuple[int, int, array]], p: int) -> array:
    """The sum of c * t^shift * f over the (c, shift, f) terms, each f a
    stored vector, reduced mod p, as an 'I' array.

    Kronecker substitution, as in _convolve: each distinct f is packed once
    into one big integer, and each term adds its packed value times c,
    shifted by whole chunks, into one total, so every coefficient is added
    in C.  With each c reduced into [0, p) and each entry below p, no chunk
    of the total exceeds k (p-1)^2 for k terms, which fixes the chunk width.
    The width is at least 4 bytes, so that a stored vector's words are its
    chunks: for small p, the strided copies of 2- and 3-byte chunks cost
    more than the narrower total saves.  The total is unpacked and reduced
    once, unless p divides the total and no chunk of total // p reaches 2^b
    for b = 8 width - p.bit_length(): p times such chunks carries nothing,
    so p divides every chunk (every zero sum passes if k (p-1)^2 < p 2^b).
    Weights may be any ints; every entry of every f is below p.
    """
    live = [(c, shift, f) for weight, shift, f in terms if (c := weight % p) and f]
    if not live:
        return _words(())
    n = max(shift + len(f) for _, shift, f in live)
    width = max(4, ((len(live) * (p - 1) ** 2).bit_length() + 7) // 8)
    packed: dict[int, int] = {}
    total = 0
    for c, shift, f in live:
        if id(f) not in packed:
            packed[id(f)] = _pack(f, width)
        total += packed[id(f)] * c << 8 * width * shift
    if total % p == 0:
        spare = 8 * width - p.bit_length()
        high = ((1 << 8 * width) - (1 << spare)).to_bytes(width, "little") * n
        if not (total // p) & int.from_bytes(high, "little"):
            return _words([0]) * n
    return _words(_residues(total, width, n, p))


# Shorter operand length from which _convolve multiplies at two points.  Its
# time over one point's (one core): 1.26-1.32 at 128-160 and 1.00-1.06 at 256
# for p <= 257 at 1:1; 0.81-0.94 at 256 for p >= 401 or 4:1; 0.73-0.85 at 1024.
_TWO_POINT_MIN = 256


def _convolve(a: array, b: array, p: int) -> list[int]:
    """Exact convolution of stored vectors, entries below p, by Kronecker
    substitution: pack each vector into one big integer with enough room per
    chunk that product coefficients cannot collide, multiply, unpack.

    Exact for every p (no floating point, no fixed-width overflow), and far
    faster than a Python-level schoolbook loop at the degrees the identity
    sweeps reach (~10^3).  Operands are packed from 4-byte words into the
    chunks by C-level strided byte copies (_pack), and the product is
    unpacked by _residues.  Once the shorter operand has _TWO_POINT_MIN
    coefficients, both are evaluated at +-s, s = 2^(4 width), not at s^2
    (Harvey's KS2): with a = E_a(t^2) + t O_a(t^2), x = a(s) b(s) and
    y = a(-s) b(-s) give x + y = 2 h_even(s^2) and x - y = 2s h_odd(s^2),
    whose chunks are the product's even and odd coefficients: two
    half-size products in place of one, about 0.7 of its time.
    """
    n = len(a) + len(b) - 1
    bound = (p - 1) * (p - 1) * min(len(a), len(b))
    width = (bound.bit_length() + 7) // 8
    if min(len(a), len(b)) < _TWO_POINT_MIN:
        return _residues(_pack(a, width) * _pack(b, width), width, n, p)
    half = 4 * width
    even_a, odd_a = _pack(a[0::2], width), _pack(a[1::2], width) << half
    even_b, odd_b = _pack(b[0::2], width), _pack(b[1::2], width) << half
    x, y = (even_a + odd_a) * (even_b + odd_b), (even_a - odd_a) * (even_b - odd_b)
    out = [0] * n
    out[0::2] = _residues((x + y) >> 1, width, (n + 1) // 2, p)
    out[1::2] = _residues((x - y) >> (half + 1), width, n // 2, p)
    return out


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
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "PolyFp") -> "PolyFp":
        if self.p == other.p and not (self.coeffs and other.coeffs):
            return other if self.is_zero else self
        return PolyFp.sum_of(self.p, [(1, 0, self), (1, 0, other)])

    def __sub__(self, other: "PolyFp") -> "PolyFp":
        if self.p == other.p and other.is_zero:
            return self
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


def _factorial_tables(n: int, p: int) -> tuple[list[int], array]:
    """k! and 1/k! mod p for 0 <= k < n, the inverses as a stored vector for
    _convolve; needs n <= p so every k! is a unit."""
    fact = [1] * n
    for k in range(1, n):
        fact[k] = fact[k - 1] * k % p
    inv_fact = [1] * n
    inv_fact[-1] = pow(fact[-1], p - 2, p)
    for k in range(n - 1, 0, -1):
        inv_fact[k - 1] = inv_fact[k] * k % p
    return fact, _words(inv_fact)


def _block_at_one_minus_t(
    block: Sequence[int], p: int, fact: list[int], inv_fact: array
) -> array:
    # Taylor shift g(x) = f(1+x): with a_i = c_i i!, the coefficient of x^k is
    # (1/k!) sum_i a_i / (i-k)!, a correlation of a against 1/j!, done as one
    # convolution of reversed a with 1/j!.  Then f(1-t) = g(-t).
    n = len(block)
    weighted = _words([c * f % p for c, f in zip(block[::-1], fact[n - 1 :: -1])])
    corr = _convolve(weighted, inv_fact[:n], p)
    shifted = [c * f % p for c, f in zip(corr[n - 1 :: -1], inv_fact)]
    shifted[1::2] = [-c % p for c in shifted[1::2]]
    return _words(shifted)


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
    acc = _words(())
    for block in reversed(blocks):
        # acc <- acc * (1 - t^p) + block(1 - t)
        small = _block_at_one_minus_t(block, p, fact, inv_fact)
        acc = _shift_add([(1, 0, acc), (-1, p, acc), (1, 0, small)], p)
    return PolyFp(p, acc)

