"""Strictly-increasing chain polylogs, adjacent-distinct surjections, and the
conversion rebuilding the chain-sum polylog from slot-indexed pieces.

The two t <-> 1-t corollaries at depths 3 and 4 are transcribed as term lists
in checked-in JSON data files (coefficient as a polynomial in the formal
symbol T = t^p, index, indeterminate slot, argument side) so each of the
twenty-plus terms can be audited independently of the evaluation code.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
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
    "corollary_terms",
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
    oy_fmp exactly, prime by prime."""
    groups = enumerate_phi(index.depth)
    total = PolyFp.zero(p)
    for i in sorted(groups):
        inner = PolyFp.zero(p)
        for phi in groups[i]:
            inner = inner + ss_star(grouped_index(phi, index), phi.values[-1], p)
        total = total + inner.shifted((i - 1) * p)
    return total


@lru_cache(maxsize=None)
def corollary_terms(name: str) -> dict:
    """Load one of the checked-in corollary term lists (corollary_d3 / _d4)."""
    payload = resources.files("fmplib").joinpath(f"data/{name}.json").read_text()
    return json.loads(payload)


def _residual_in_blocks(lhs: list[dict], rhs: list[dict], p: int) -> PolyFp:
    """Sum of the lhs terms minus sum of the rhs terms.

    A term is c(T) times the strict-chain polylog of (index, slot) at t or at
    1-t, with T = t^p.  That polylog has degree below p, and so has its
    composition with 1-t, so the terms' T^j parts fill disjoint blocks of
    size p.  Composition is linear, so block j is the combination of the
    t-terms' polylogs by their T^j coefficients, plus the composition of the
    same combination of the 1-t-terms' polylogs: one composition per block,
    and no polynomial products.  Each (index, slot) is evaluated once.
    """
    polys: dict[tuple, PolyFp] = {}
    terms = []  # (polylog, argument, signed coefficients)
    for side, sign in ((lhs, 1), (rhs, -1)):
        for term in side:
            if term["arg"] not in ("t", "1-t"):
                raise ValueError(f"unknown argument {term['arg']!r}")
            key = (tuple(term["index"]), term["slot"])
            if key not in polys:
                polys[key] = ss_star(Index(key[0]), key[1], p)
            terms.append((polys[key], term["arg"], [sign * c for c in term["coeff"]]))
    total = PolyFp.zero(p)
    for j in range(max(len(coeff) for _, _, coeff in terms)):
        part = {"t": PolyFp.zero(p), "1-t": PolyFp.zero(p)}
        for poly, arg, coeff in terms:
            if j < len(coeff):
                part[arg] = part[arg] + poly * coeff[j]
        block = part["t"] + compose_one_minus_t(part["1-t"])
        total = total + block.shifted(j * p)
    return total


def _corollary_residual(name: str, p: int) -> PolyFp:
    data = corollary_terms(name)
    return _residual_in_blocks(data["lhs"], data["rhs"], p)


def corollary_depth3_residual(p: int) -> PolyFp:
    """Left minus right of the depth-3 strict-chain functional equation."""
    return _corollary_residual("corollary_d3", p)


def corollary_depth4_residual(p: int) -> PolyFp:
    """Left minus right of the depth-4 strict-chain functional equation."""
    return _corollary_residual("corollary_d4", p)
