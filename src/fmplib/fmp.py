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
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, cycle, islice, repeat

from .modular import Residue, inverse_table, require_prime
from .polyfp import PolyFp, _require_word_prime, _words

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


@lru_cache(maxsize=4)
def _inverse_powers(k: int, p: int) -> Sequence[int]:
    """tab[v] = v^{-k} mod p for 0 < v < p, and tab[0] = 0.  A few recent
    tables are kept: one prime's chain steps and strict-chain polylogs ask for
    the same few exponents again and again."""
    inv = inverse_table(p)
    return inv if k == 1 else tuple([pow(iv, k, p) for iv in inv])


def _window_extend(values: Sequence[int], k: int, p: int) -> list[int]:
    """One chain step: add a summand l in (0,p); the new running total is the
    new denominator.

    new[S] = (sum of old[S-p+1 .. S-1]) * S^{-k}, forced to 0 when p | S.
    With prefix sums P over the n old values, the window sum is
    P[min(S, n)] - P[max(S-p+1, 0)]: two shifted copies of P, zipped against
    the period-p table of S^{-k}, whose 0 entry does the forcing.  Linear in
    the support size; only the final comprehension runs as bytecode, the
    prefix sums and shifts run in C.
    """
    n = len(values)
    prefix = [0, *accumulate(values)]
    upper = chain(prefix, repeat(prefix[-1], p - 2))
    lower = chain(repeat(0, p), islice(prefix, 1, n))
    table = islice(cycle(_inverse_powers(k, p)), n + p - 1)
    return [(u - d) * w % p for u, d, w in zip(upper, lower, table)]


@lru_cache(maxsize=None)
def _chain_values(parts: tuple[int, ...], p: int) -> array:
    """Chain values of parts, one step on those of parts[:-1]; the empty
    chain has total 0 with value 1.  Every value at a multiple of p is zero,
    checked once per memo entry: a nonzero one means a faulty chain step.

    Stored as 4-byte words, as PolyFp stores its coefficients (so p must be
    below 2^32), and shared with the polylogs built from them: never mutate
    an entry."""
    if not parts:
        _require_word_prime(p)
        return _words([1])
    values = _words(_window_extend(_chain_values(parts[:-1], p), parts[-1], p))
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


@lru_cache(maxsize=None)
def oy_fmp_general(blocks: BlockTriple, p: int) -> PolyFp:
    """Three-block chain sum, by recursion on the third block.

    Chains for the first and second blocks are independent, so with the third
    block empty the sum is the product of their polylogs, and with the first
    or second block empty the three blocks form one chain.  Each part of the
    third block is one chain step on the combined total, every new total being
    a denominator subject to the p-divisibility exclusion.  The shuffle
    bridges ((1)^{n-j-1}, (1), (1)^j) share their steps through the memo.
    """
    first, second, third = blocks.first, blocks.second, blocks.third
    if not first or not second:
        return oy_fmp(Index(first + second + third), p)
    if not third:
        return oy_fmp(Index(first), p) * oy_fmp(Index(second), p)
    shorter = oy_fmp_general(BlockTriple(first, second, third[:-1]), p)
    return PolyFp(p, _window_extend(shorter.coeffs, third[-1], p))


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
