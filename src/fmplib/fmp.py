"""Chain sums over (0,p)^r: the kernel shared by every polylog flavor here.

For an index (k_1,...,k_r) the basic object is the distribution
S |-> sum' of 1/(L_1^{k_1} ... L_r^{k_r}) over tuples 0 < l_1,...,l_r < p
with partial sums L_x = l_1+...+l_x and final sum L_r = S, where sum' skips
every tuple with some L_x divisible by p.  The generating polynomial of that
distribution is the polylog; window slices of it are the zeta variants.

Two independent evaluation paths are kept on purpose: a sliding-window DP and
literal nested loops (`naive_reference*`).  The DP's exclusion logic is the
likeliest bug site, so the loops are the oracle of record at small scale.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import lru_cache

from .modular import Residue, inverse_table, require_prime
from .polyfp import PolyFp, _convolve, _normalize

__all__ = [
    "BlockTriple",
    "ChainDistribution",
    "DEFAULT_ORACLE_BUDGET",
    "Index",
    "OracleTooLarge",
    "all_indices",
    "chain_distribution",
    "naive_reference",
    "naive_reference_general",
    "oracle_budget",
    "oy_fmp",
    "oy_fmp_general",
    "zeta_variant",
]

DEFAULT_ORACLE_BUDGET = 10_000_000
_BUDGET_ENV = "FMP_ORACLE_BUDGET"


class OracleTooLarge(ValueError):
    """The naive oracle would enumerate more tuples than the budget allows."""


def oracle_budget(budget: int | None) -> int:
    """The given tuple budget, else $FMP_ORACLE_BUDGET, else the default."""
    if budget is not None:
        return budget
    env = os.environ.get(_BUDGET_ENV)
    return int(env) if env else DEFAULT_ORACLE_BUDGET


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

    @classmethod
    def of(cls, first, second, third) -> "BlockTriple":
        return cls(tuple(first), tuple(second), tuple(third))

    @property
    def total_depth(self) -> int:
        return len(self.first) + len(self.second) + len(self.third)


def _window_extend(values: list[int], k: int, p: int) -> list[int]:
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


@lru_cache(maxsize=None)
def _chain_values(parts: tuple[int, ...], p: int) -> tuple[int, ...]:
    require_prime(p)
    values = [1]  # the empty chain: total 0 with value 1
    for k in parts:
        values = _window_extend(values, k, p)
    return tuple(values)


@dataclass(frozen=True)
class ChainDistribution:
    """values[S] = sum' over chains with final partial sum S, for one index
    and one prime.  Entries at multiples of p are identically zero."""

    p: int
    index: Index
    values: tuple[int, ...]

    def __post_init__(self):
        for s in range(0, len(self.values), self.p):
            if self.values[s] != 0:
                raise ValueError(f"nonzero value at excluded S={s}")

    def window_sum(self, i: int) -> Residue:
        """Sum of values over (i-1)p < S < ip."""
        if not 1 <= i <= self.index.depth:
            raise ValueError(f"window {i} out of range 1..{self.index.depth}")
        lo, hi = (i - 1) * self.p, i * self.p
        return Residue(sum(self.values[lo + 1 : hi]) % self.p, self.p)

    def to_poly(self) -> PolyFp:
        return PolyFp(self.p, _normalize(list(self.values)))


def chain_distribution(index: Index, p: int) -> ChainDistribution:
    """Distribution of final partial sums, by the sliding-window DP."""
    return ChainDistribution(p, index, _chain_values(index.parts, p))


def oy_fmp(index: Index, p: int) -> PolyFp:
    """The chain-sum polylog: sum of values[S] * t^S, degree <= depth*(p-1)."""
    return chain_distribution(index, p).to_poly()


def zeta_variant(index: Index, i: int, p: int) -> Residue:
    """Window slice i of the chain sum: restrict to (i-1)p < L_r < ip."""
    return chain_distribution(index, p).window_sum(i)


def oy_fmp_general(blocks: BlockTriple, p: int) -> PolyFp:
    """Three-block chain sum.

    Chains for the first and second blocks are independent, so their
    distributions convolve; the third block keeps extending the combined
    total, every new total being a denominator subject to the p-divisibility
    exclusion.  Empty blocks contribute factor 1 at offset 0.
    """
    a = _chain_values(blocks.first, p)
    b = _chain_values(blocks.second, p)
    values = _convolve(a, b, p)
    for k in blocks.third:
        values = _window_extend(values, k, p)
    return PolyFp(p, _normalize(list(values)))


def naive_reference(index: Index, p: int, budget: int | None = None) -> PolyFp:
    """Literal transcription of the chain sum: nested loops over all tuples,
    skipping any whose running denominator hits a multiple of p."""
    require_prime(p)
    budget = oracle_budget(budget)
    if p**index.depth > budget:
        raise OracleTooLarge(f"p^depth = {p}^{index.depth} exceeds budget {budget}")
    inv = inverse_table(p)
    coeffs = [0] * (index.depth * (p - 1) + 1)
    for tup in itertools.product(range(1, p), repeat=index.depth):
        total = 0
        term = 1
        for l, k in zip(tup, index.parts):
            total += l
            if total % p == 0:
                break
            term = term * pow(inv[total % p], k, p) % p
        else:
            coeffs[total] = (coeffs[total] + term) % p
    return PolyFp.of(p, coeffs)


def naive_reference_general(blocks: BlockTriple, p: int, budget: int | None = None) -> PolyFp:
    """Nested-loop oracle for the three-block sum."""
    require_prime(p)
    budget = oracle_budget(budget)
    if p**blocks.total_depth > budget:
        raise OracleTooLarge(
            f"p^depth = {p}^{blocks.total_depth} exceeds budget {budget}"
        )
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
