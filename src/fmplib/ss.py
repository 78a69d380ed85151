"""Strictly-increasing chain polylogs, adjacent-distinct surjections, and the
conversion rebuilding the chain-sum polylog from slot-indexed pieces.

The two t <-> 1-t corollaries at depths 3 and 4 come from the conversion of
the all-ones index: read at t it is the corollary's left side, and composed
with 1-t its right side, so the residual is F(t) - F(1-t).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import mul

from .fmp import Index, _inverse_powers, _oracle_inverses
from .modular import require_prime
from .polyfp import PolyFp, _normalize, compose_one_minus_t

__all__ = [
    "AdjacentDistinctSurjection",
    "ENUMERATION_CAP",
    "EnumerationCapExceeded",
    "corollary_depth3_residual",
    "corollary_depth4_residual",
    "enumerate_phi",
    "grouped_index",
    "oy_from_ss",
    "ss_star",
    "ss_star_reference",
]

#: Deepest surjection family enumerated; the family grows faster than r!.
ENUMERATION_CAP = 8


class EnumerationCapExceeded(ValueError):
    """Surjection enumeration request above ENUMERATION_CAP."""


@dataclass(frozen=True)
class AdjacentDistinctSurjection:
    """A surjection of [r] onto [s] with no two adjacent values equal."""

    values: tuple[int, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("empty surjection")
        s = max(self.values)
        if set(self.values) != set(range(1, s + 1)):
            raise ValueError(f"not surjective onto an initial segment: {self.values}")
        for a in range(len(self.values) - 1):
            if self.values[a] == self.values[a + 1]:
                raise ValueError(f"adjacent repeat at position {a + 1}: {self.values}")

    @property
    def r(self) -> int:
        return len(self.values)

    @property
    def s(self) -> int:
        return max(self.values)

    def descent_prefix(self) -> tuple[int, ...]:
        """delta(i) = number of descents among the first i-1 adjacent pairs."""
        out = [0] * self.r
        for a in range(1, self.r):
            out[a] = out[a - 1] + (1 if self.values[a - 1] > self.values[a] else 0)
        return tuple(out)

    @property
    def beta(self) -> int:
        return self.descent_prefix()[-1] + 1


@lru_cache(maxsize=None)
def _all_surjections(r: int) -> tuple[AdjacentDistinctSurjection, ...]:
    found: list[AdjacentDistinctSurjection] = []
    seen = [False] * (r + 1)
    seq: list[int] = []

    def rec(mx: int, distinct: int):
        pos = len(seq)
        if pos == r:
            if distinct == mx:
                found.append(AdjacentDistinctSurjection(tuple(seq)))
            return
        for v in range(1, r + 1):
            if seq and v == seq[-1]:
                continue
            new_mx = v if v > mx else mx
            new_distinct = distinct + (0 if seen[v] else 1)
            # every value below the running max must still fit in the tail
            if new_mx - new_distinct > r - pos - 1:
                continue
            was = seen[v]
            seen[v] = True
            seq.append(v)
            rec(new_mx, new_distinct)
            seq.pop()
            seen[v] = was

    rec(0, 0)
    return tuple(found)


def enumerate_phi(r: int) -> dict[int, tuple[AdjacentDistinctSurjection, ...]]:
    """All adjacent-distinct surjections from [r], grouped by beta.

    Group i holds the maps with exactly i-1 descents; the groups partition the
    whole family and every key 1..r is present (possibly empty).
    """
    if r < 1:
        raise ValueError(f"depth must be positive, got {r}")
    if r > ENUMERATION_CAP:
        raise EnumerationCapExceeded(f"depth {r} above enumeration cap {ENUMERATION_CAP}")
    groups: dict[int, list[AdjacentDistinctSurjection]] = {i: [] for i in range(1, r + 1)}
    for phi in _all_surjections(r):
        groups[phi.beta].append(phi)
    return {i: tuple(phis) for i, phis in groups.items()}


def grouped_index(phi: AdjacentDistinctSurjection, index: Index) -> Index:
    """Depth-s index whose c-th part sums the original parts over the fiber of c."""
    if phi.r != index.depth:
        raise ValueError(f"dimension mismatch: surjection on [{phi.r}], index depth {index.depth}")
    parts = [0] * phi.s
    for k, v in zip(index.parts, phi.values):
        parts[v - 1] += k
    return Index(tuple(parts))


def ss_star(index: Index, slot: int, p: int) -> PolyFp:
    """Sum over strictly increasing chains 0 < n_1 < ... < n_s < p of
    t^{n_slot} / (n_1^{k_1} ... n_s^{k_s}); every other argument is fixed at 1.

    Ascending prefix-sum DP up to the slot, suffix sums past it; cost O(s*p)
    and degree always below p.
    """
    require_prime(p)
    ks = index.parts
    s = len(ks)
    if not 1 <= slot <= s:
        raise ValueError(f"slot {slot} out of range 1..{s}")

    heads = [1] + [0] * (p - 1)  # chains for the first c parts ending exactly at v
    for c in range(slot):
        # new[v] = v^{-k} * (heads[0] + ... + heads[v-1]) for 0 < v < p
        tab = _inverse_powers(ks[c], p)
        heads = [0] + [run * w % p for run, w in zip(accumulate(heads), tab[1:])]

    tails = [1] * p  # completions with the parts past the slot, all entries above v
    for c in range(s - 1, slot - 1, -1):
        # new[v] = sum over u > v of u^{-k} * tails[u], and new[p-1] = 0
        tab = _inverse_powers(ks[c], p)
        suffix = list(accumulate(map(mul, reversed(tab), reversed(tails))))
        tails = [run % p for run in suffix[-2::-1]] + [0]

    return PolyFp(p, _normalize([h * w % p for h, w in zip(heads, tails)]))


def ss_star_reference(index: Index, slot: int, p: int) -> PolyFp:
    """Literal loop over strictly increasing tuples; the oracle for ss_star."""
    if not 1 <= slot <= index.depth:
        raise ValueError(f"slot {slot} out of range 1..{index.depth}")
    inv = _oracle_inverses(p, index.depth)
    coeffs = [0] * p
    for tup in itertools.combinations(range(1, p), index.depth):
        term = 1
        for n, k in zip(tup, index.parts):
            term = term * pow(inv[n], k, p) % p
        pos = tup[slot - 1]
        coeffs[pos] = (coeffs[pos] + term) % p
    return PolyFp.of(p, coeffs)


def oy_from_ss(index: Index, p: int) -> PolyFp:
    """Rebuild the chain-sum polylog as sum over i of t^{(i-1)p} times the
    slot-indexed strict-chain polylogs of the grouped indices; must agree with
    oy_fmp exactly, prime by prime.  Each distinct (grouped index, slot) is
    evaluated once."""
    groups = enumerate_phi(index.depth)
    polys: dict[tuple[Index, int], PolyFp] = {}
    total = PolyFp.zero(p)
    for i in sorted(groups):
        inner = PolyFp.zero(p)
        for phi in groups[i]:
            key = (grouped_index(phi, index), phi.values[-1])
            if key not in polys:
                polys[key] = ss_star(*key, p)
            inner = inner + polys[key]
        total = total + inner.shifted((i - 1) * p)
    return total


def _corollary_residual(n: int, p: int) -> PolyFp:
    """F(t) - F(1-t) for F the depth-n all-ones chain-sum polylog, rebuilt
    from strict-chain polylogs by oy_from_ss.

    Group i of the conversion is the T^{i-1} part of the corollary's left
    side, with T = t^p.  Composing with 1-t is a ring homomorphism and
    (1-t)^p = 1 - T, so F(1-t) is exactly the right side: every strict-chain
    polylog at 1-t with coefficient (1-T)^{i-1}.
    """
    f = oy_from_ss(Index.ones(n), p)
    return f - compose_one_minus_t(f)


def corollary_depth3_residual(p: int) -> PolyFp:
    """Left minus right of the depth-3 strict-chain functional equation."""
    return _corollary_residual(3, p)


def corollary_depth4_residual(p: int) -> PolyFp:
    """Left minus right of the depth-4 strict-chain functional equation."""
    return _corollary_residual(4, p)
