"""Chain sums over (0,p)^r: the kernel shared by every polylog flavor here.

For an index (k_1,...,k_r) the basic object is the distribution
S |-> sum' of 1/(L_1^{k_1} ... L_r^{k_r}) over tuples 0 < l_1,...,l_r < p
with partial sums L_x = l_1+...+l_x and final sum L_r = S, where sum' skips
every tuple with some L_x divisible by p.  The generating polynomial of that
distribution is the polylog; window slices of it are the zeta variants.

Two independent evaluation paths are kept on purpose: a sliding-window DP and
a literal sum over tuples (`naive_reference*`), enumerated depth first with
one loop per part and a table of v^{-k} per exponent, every tuple adding its
own term.  The DP's exclusion logic is the likeliest bug site, so the loops
are the oracle of record at small scale.

Chain values of depth r and weight w obey v[rp - S] = (-1)^w v[S], since
l_x -> p - l_x maps each L_x to xp - L_x, keeps every exclusion and signs
L_x^{-k_x} by (-1)^{k_x}; so do three-block sums and products.  From
_HALF_MIN outputs on, a chain step or bridge product whose inputs pass a
C-level check of the law forms its entries S <= rp/2 (r the output's depth)
and mirrors the rest, if an operand runs past them; any other takes the full path.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, cycle, islice, repeat
from operator import mul

from .modular import Residue, inverse_table, require_prime
from .polyfp import PolyFp, _negated, _require_word_prime, _shift_add, _words

__all__ = [
    "BlockTriple",
    "Index",
    "ORACLE_BUDGET",
    "all_indices",
    "chain_distribution",
    "naive_reference",
    "naive_reference_general",
    "oy_fmp",
    "oy_fmp_general",
    "window_slices",
    "zeta_variant",
]

#: Most tuples a nested-loop oracle may enumerate.  The sweeps run the
#: oracles at p <= 13 only, where the largest enumerates 13^4 = 28,561.
ORACLE_BUDGET = 10_000_000


@dataclass(frozen=True)
class Index:
    """A nonempty tuple of positive integers (k_1,...,k_r)."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("index must be nonempty")
        if any(k < 1 for k in self.parts):
            raise ValueError(f"index parts must be positive: {self.parts}")

    @classmethod
    def of(cls, *parts: int) -> "Index":
        return cls(tuple(parts))

    @classmethod
    def ones(cls, n: int) -> "Index":
        return cls((1,) * n)

    @property
    def depth(self) -> int:
        return len(self.parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __str__(self):
        return "(" + ",".join(map(str, self.parts)) + ")"


@dataclass(frozen=True)
class BlockTriple:
    """Three index blocks (first, second, third), each possibly empty.

    The first two blocks run independent chains; the third continues from the
    combined total of the first two.  Total depth must be at least 1.
    """

    first: tuple[int, ...]
    second: tuple[int, ...]
    third: tuple[int, ...]

    def __post_init__(self):
        for block in (self.first, self.second, self.third):
            if any(k < 1 for k in block):
                raise ValueError(f"block parts must be positive: {block}")
        if self.total_depth < 1:
            raise ValueError("total depth must be at least 1")

    @property
    def total_depth(self) -> int:
        return len(self.first) + len(self.second) + len(self.third)


# At one prime a full sweep's chain steps and strict-chain polylogs ask for
# the exponents 1 to 6, 35 times at p = 1051 and 47 at 64007, and miss this
# memo 9 times; a miss at k > 1 builds a p-long tuple.  Keeping 6 misses 6
# times and did not pay: a full sweep at 64007 took 2.16-2.46 s with 4 kept
# and 2.30-2.51 s with 6 (3 cold runs each, one core), and its max RSS rose
# from 77 to 81 MB.
@lru_cache(maxsize=4)
def _inverse_powers(k: int, p: int) -> Sequence[int]:
    """tab[v] = v^{-k} mod p for 0 < v < p, and tab[0] = 0."""
    inv = inverse_table(p)
    return inv if k == 1 else tuple([pow(iv, k, p) for iv in inv])


def _window_extend(values: Sequence[int], k: int, p: int, size: int | None = None) -> list[int]:
    """One chain step: add a summand l in (0,p); the new running total is the
    new denominator.  The first size outputs, by default all n + p - 1.

    new[S] = (sum of old[S-p+1 .. S-1]) * S^{-k}, forced to 0 when p | S.
    With prefix sums P over the n old values, the window sum is
    P[min(S, n)] - P[max(S-p+1, 0)]: two shifted copies of P, zipped against
    the period-p table of S^{-k}, whose 0 entry does the forcing.  Linear in
    the support size; only the final comprehension runs as bytecode, the
    prefix sums and shifts run in C.
    """
    n = len(values)
    prefix = [0, *accumulate(islice(values, size))]
    upper = chain(prefix, repeat(prefix[-1], p - 2))
    lower = chain(repeat(0, p), islice(prefix, 1, n))
    table = islice(cycle(_inverse_powers(k, p)), size)
    return [(u - d) * w % p for u, d, w in zip(upper, lower, table)]


# Shortest output of the half path.  Half over full time (one core): a step
# 1.5-1.8 below 64 outputs, 0.82-0.92 at 200-500, 0.65-0.78 from 769; a product
# of depths (r, 1) 1.1-2.5 below 769, 0.75-0.98 from 769 (1.1 for r = 1).
_HALF_MIN = 1024


def _reflects(v: array, parts: tuple[int, ...], p: int) -> bool:
    """Whether v obeys the reflection of parts: whether _reflected gives it back."""
    return _reflected(v, parts, p) == v


def _reflected(low: array, parts: tuple[int, ...], p: int) -> array:
    """The vector of length r(p-1)+1 that obeys v[rp - S] = (-1)^w v[S] for
    parts' depth r and weight w, and is zero below r and equal to low,
    zero-padded, on r <= S < h = rp//2 + 1 (but 0 at S = rp/2 if w is odd)."""
    r, h, odd = len(parts), len(parts) * p // 2 + 1, sum(parts) % 2
    low = _words([0]) * r + low[r:h] + _words([0]) * (h - len(low))
    if odd and r * p % 2 == 0:
        low[h - 1] = 0
    tail = low[r : r * p - h + 1][::-1]
    return low + (_negated(tail, p) if odd else tail)


def _extend(values: array, parts: tuple[int, ...], k: int, p: int) -> array:
    """_window_extend as stored words, of a vector of parts' depth and weight."""
    if len(values) + p - 1 < _HALF_MIN or not _reflects(values, parts, p):
        return _words(_window_extend(values, k, p))
    low = _words(_window_extend(values, k, p, (len(parts) + 1) * p // 2 + 1))
    return _reflected(low, parts + (k,), p)


def _product(a: PolyFp, b: PolyFp, first: tuple[int, ...], second: tuple[int, ...]) -> PolyFp:
    """a * b, of vectors of the depths and weights of first and second."""
    p, h = a.p, (len(first) + len(second)) * a.p // 2 + 1
    halve = len(a.coeffs) + len(b.coeffs) > _HALF_MIN and max(len(a.coeffs), len(b.coeffs)) > h
    if not (halve and _reflects(a.coeffs, first, p) and _reflects(b.coeffs, second, p)):
        return a * b
    low = PolyFp(p, a.coeffs[:h]) * PolyFp(p, b.coeffs[:h])
    return PolyFp(p, _reflected(low.coeffs, first + second, p))


# Least p at which a bridge (1)^r x (1) is _ones_bridge's chain step, not a
# dense product: the first prime whose bridge products take 5-byte chunks.
# Step over product time, r = 1..4 (one core, best of 7, checks included):
# 0.81-1.12 at 1621; 0.56-0.79 at 1627, 0.37-0.52 at 4099, 0.13-0.19 at 16001.
_BRIDGE_STEP_MIN = 1627


def _ones_bridge(r: int, p: int) -> array | None:
    """c_r = a_r * b, for a_r the chain values of (1)^r and b those of (1),
    as one chain step on c_{r-1} + a_r (c_0 = b); None unless b is the table
    of inverses and a_r is the chain step on a_{r-1}, on which the rule rests.

    With theta = t d/dt, U = t + ... + t^{p-1} and Z zeroing the values at
    multiples of p, theta b = U and theta a_r = Z(U a_{r-1}).  So by the
    Leibniz rule, for p not dividing S, S c_r[S] = W(c_{r-1} + a_r)[S] -
    x_m / S, where W is the step's window sum and x_m, m = S // p, is window
    slice m of a_{r-1}, which Z took away (zero on correct code; 1/S is
    b[S - mp]).  The r values at multiples of p are the dot products
    c_r[mp] = sum over l of a_r[mp - l] / l, each formed: a_r need not reflect.
    """
    ones, inv = (1,) * r, _inverse_powers(1, p)
    a, b = _chain_values(ones, p), _chain_values((1,), p)
    # At r = 1, a is b, which the first test compares with the table.
    if b != _words(inv) or r > 1 and a != _extend(_chain_values(ones[:-1], p), ones[:-1], 1, p):
        return None
    c = _chain_values((), p, ones[:-1], (1,)) if r > 1 else b
    out = _extend(_shift_add([(1, 0, c), (1, 0, a)], p), ones, 1, p)
    descending = inv[:0:-1]  # 1/l for l = p-1 down to 1
    for top in range(p, len(out), p):
        out[top] = sum(map(mul, a[top - p + 1 : top], descending)) % p
    slices = window_slices(Index(ones[:-1]), p) if r > 1 else ()
    for top, x in zip(range(p, len(out), p), slices):
        if x:
            span = zip(out[top + 1 : top + p], _inverse_powers(2, p)[1:])
            out[top + 1 : top + p] = _words([(v - x * w) % p for v, w in span])
    return out


@lru_cache(maxsize=None)
def _chain_values(parts: tuple[int, ...], p: int, *start: tuple[int, ...]) -> array:
    """Chain values of parts, one step on those of parts[:-1], from the
    empty chain (total 0, value 1) or, with start = (first, second), from the
    product of those blocks' polylogs, or from _ones_bridge for the start
    ((1)^r, (1)) at p from _BRIDGE_STEP_MIN on.  A depth-1 chain (k) from the
    empty one is the table of S^{-k}, which is what its step would give.
    Shorter prefixes and shorter bridges are read shortest first, so none
    recurses more than one level.  Every value a step leaves at a multiple
    of p is zero, checked once per memo entry: a nonzero one means a faulty
    step.  Stored as 4-byte words, as PolyFp stores its coefficients (so p
    must be below 2^32), and shared with the polylogs built from them: never
    mutate an entry."""
    if len(parts) == 1 and not start:
        return _words(_inverse_powers(parts[0], _require_word_prime(p)))
    if not parts:
        _require_word_prime(p)
        if not start:
            return _words([1])
        first, second = start
        if second == (1,) and set(first) == {1} and p >= _BRIDGE_STEP_MIN:
            for r in range(1, len(first)):
                _chain_values((), p, first[:r], second)
            bridge = _ones_bridge(len(first), p)
            if bridge is not None:
                return bridge
        return _product(oy_fmp(Index(first), p), oy_fmp(Index(second), p), first, second).coeffs
    for r in range(len(parts)):
        previous = _chain_values(parts[:r], p, *start)
    values = _extend(previous, sum(start, ()) + parts[:-1], parts[-1], p)
    if any(values[::p]):
        raise ValueError(f"nonzero chain value at a multiple of {p} for {parts}")
    return values


def chain_distribution(index: Index, p: int) -> array:
    """values[S] = sum' over chains with final partial sum S, by the
    sliding-window DP; entries at multiples of p are zero."""
    return _chain_values(index.parts, p)


# One prime's working set: a full sweep reads the slices of 21 indices at a
# prime, most of them several times (the error terms, the recurrence and the
# symmetry differences).  Keeping more primes would grow with the prime range.
@lru_cache(maxsize=32)
def window_slices(index: Index, p: int) -> tuple[int, ...]:
    """Every window slice of the chain sum, read in one pass: slice i, for
    i = 1..depth, sums the chain values over (i-1)p < S < ip.  A tuple, since
    every caller shares the memoized result."""
    values = chain_distribution(index, p)
    return tuple([sum(values[lo + 1 : lo + p]) % p for lo in range(0, index.depth * p, p)])


def oy_fmp(index: Index, p: int) -> PolyFp:
    """The chain-sum polylog: sum of values[S] * t^S, degree <= depth*(p-1)."""
    return PolyFp(p, chain_distribution(index, p))


def zeta_variant(index: Index, i: int, p: int) -> Residue:
    """Window slice i of the chain sum: restrict to (i-1)p < L_r < ip."""
    if not 1 <= i <= index.depth:
        raise ValueError(f"window {i} out of range 1..{index.depth}")
    return Residue(window_slices(index, p)[i - 1], p)


def oy_fmp_general(blocks: BlockTriple, p: int) -> PolyFp:
    """Three-block chain sum: the first two blocks' chains are independent,
    and each part of the third block is one chain step on their combined
    total, every new total a denominator subject to the p-divisibility
    exclusion.  So it is the third block's chain values continued from the
    product of the first two polylogs; with the first or second block empty,
    the three blocks form one chain.  The shuffle bridges
    ((1)^{n-j-1}, (1), (1)^j) share their steps through the chain memo."""
    first, second, third = blocks.first, blocks.second, blocks.third
    if not first or not second:
        return oy_fmp(Index(first + second + third), p)
    return PolyFp(p, _chain_values(third, p, first, second))


def _oracle_inverses(p: int, parts: tuple[int, ...]) -> list[tuple[int, ...]]:
    """tables[x][v] = v^{-k} mod p for the exponent k = parts[x], and
    tables[x][0] = 0, for a nested-loop oracle over the p^len(parts) tuples;
    one table per distinct exponent, built from the inverse table.  Refused
    before anything is built when p is not prime or the tuples exceed
    ORACLE_BUDGET.  Independent of the DP's _inverse_powers on purpose."""
    require_prime(p)
    if p ** len(parts) > ORACLE_BUDGET:
        raise ValueError(f"p^depth = {p}^{len(parts)} exceeds {ORACLE_BUDGET}")
    inv = inverse_table(p)
    tables = {k: tuple([pow(v, k, p) for v in inv]) for k in set(parts)}
    return [tables[k] for k in parts]


def naive_reference(index: Index, p: int) -> PolyFp:
    """Literal transcription of the chain sum: nested loops over all tuples,
    skipping any whose running denominator hits a multiple of p.  One chain
    is the three-block sum with the whole index in the third block."""
    return naive_reference_general(BlockTriple((), (), index.parts), p)


def naive_reference_general(blocks: BlockTriple, p: int) -> PolyFp:
    """Nested-loop oracle for the three-block sum, tuple by tuple.

    Depth first, one loop per part: each loop carries the running total and
    the term of its prefix down to the next, and the loop over the last part
    adds each tuple's term straight into the coefficient of its final total.
    The weight of part x at running denominator v is tables[x][v % p], whose
    0 entry drops every tuple with a partial sum at a multiple of p.  The
    second block's denominators restart from 0 and the third block's go on
    from the combined total of the first two; no two tuples are merged.
    """
    parts = blocks.first + blocks.second + blocks.third
    # Doubled tables: entries r+1 .. r+p-1 are the weights at totals
    # t+1 .. t+p-1 for any t = r mod p.
    tables = [tab * 2 for tab in _oracle_inverses(p, parts)]
    second = len(blocks.first)  # position of the second block's first part
    third = second + len(blocks.second)  # and of the third block's
    last = len(parts) - 1
    coeffs = [0] * (len(parts) * (p - 1) + 1)

    def walk(x: int, base: int, total: int, term: int) -> None:
        # base + total is the combined total so far; total is the running
        # denominator of the chain that part x continues.
        if x == second:
            base, total = base + total, 0
        if x == third:
            base, total = 0, base + total
        r = total % p
        weights = tables[x][r + 1 : r + p]
        if x == last:
            for s, w in enumerate(weights, base + total + 1):
                coeffs[s] += term * w
        else:
            for s, w in enumerate(weights, total + 1):
                if w:
                    walk(x + 1, base, s, term * w % p)

    walk(0, 0, 0, 1)
    return PolyFp.of(p, coeffs)


def all_indices(max_weight: int, max_depth: int) -> list[Index]:
    """Every index with weight <= max_weight and depth <= max_depth, ordered
    by weight then lexicographically.  Used by crosscheck sweeps and tests."""
    out: list[Index] = []
    for w in range(1, max_weight + 1):
        for r in range(1, min(w, max_depth) + 1):
            for cuts in itertools.combinations(range(1, w), r - 1):
                bounds = (0,) + cuts + (w,)
                parts = tuple(bounds[i + 1] - bounds[i] for i in range(r))
                out.append(Index(parts))
    return out
