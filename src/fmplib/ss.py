"""Strictly-increasing chain polylogs, adjacent-distinct surjections, and the
conversion rebuilding the chain-sum polylog from slot-indexed pieces.

The two t <-> 1-t corollaries at depths 3 and 4 come from the conversion of
the all-ones index: read at t it is the corollary's left side, and composed
with 1-t its right side, so the residual is F(t) - F(1-t).

The strict-chain polylog of an index k of depth s and weight w at slot j is
(-1)^w t^p times that of reversed k at slot s+1-j, read at 1/t, since
m_i = p - n_{s+1-i} maps chains to chains, n_j to p - m_{s+1-j}, and signs
the weight by (-1)^w.  The last slot is a heads vector, slot 1 its reverse's
mirror, and of each interior pair one is formed, one mirrored.  The same map
makes the tails signed prefix sums of reversed heads (ss_star).
"""

from __future__ import annotations

import itertools
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .fmp import Index, _inverse_powers, _oracle_inverses, oy_fmp
from .identities import _symmetry_difference, ones_symmetry_difference
from .polyfp import PolyFp, _negated, _require_word_prime, _words

__all__ = [
    "AdjacentDistinctSurjection",
    "ENUMERATION_CAP",
    "conversion_residual",
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

    @property
    def beta(self) -> int:
        """The group key: one more than the number of descents."""
        return 1 + sum(a > b for a, b in zip(self.values, self.values[1:]))


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
        raise ValueError(f"depth {r} above enumeration cap {ENUMERATION_CAP}")
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


# The head memo keeps one prime's working set: prop42 and the corollaries
# read 11 prefixes and reversed suffixes of two parts or more; the rest
# serves other callers, such as `fmp compute ss`.  Keeping more primes would
# grow memory with the prime range.
@lru_cache(maxsize=16)
def _heads(prefix: tuple[int, ...], p: int) -> array:
    """heads[v] = sum over strict chains 0 < n_1 < ... < n_c = v of
    1/(n_1^{k_1} ... n_c^{k_c}), for the c >= 2 parts of prefix.  One pass
    on the heads of prefix[:-1].

    Stored as 4-byte words, as PolyFp stores its coefficients: every entry
    is below p < 2^32."""
    # new[v] = v^{-k} * (heads[0] + ... + heads[v-1]) for 0 < v < p
    tab = _inverse_powers(prefix[-1], p)
    heads = _heads(prefix[:-1], p) if len(prefix) > 2 else _inverse_powers(prefix[0], p)
    return _words([0] + [run * w % p for run, w in zip(accumulate(heads), tab[1:])])


def _heads_of(prefix: tuple[int, ...], p: int) -> Sequence[int]:
    """The heads of a nonempty prefix.  A one-part prefix (k) has the heads
    v^{-k}, 0 at v = 0: its power table, no pass and no memo slot.  Missing
    longer prefixes are formed shortest first, so no pass recurses more than
    one level, however deep the prefix."""
    if len(prefix) == 1:
        return _inverse_powers(prefix[0], p)
    for c in range(2, len(prefix)):
        _heads(prefix[:c], p)
    return _heads(prefix, p)


# One prime's working set: at one prime a full sweep's conversions ask 77
# times for 32 distinct (index, slot) pairs, and prop42's 46 times for 28.
@lru_cache(maxsize=32)
def ss_star(index: Index, slot: int, p: int) -> PolyFp:
    """Sum over strictly increasing chains 0 < n_1 < ... < n_s < p of
    t^{n_slot} / (n_1^{k_1} ... n_s^{k_s}); every other argument is fixed at 1.

    The elementwise product of the heads of the parts up to the slot and the
    tails of the parts past it; degree always below p.  At the last slot the
    tails are 1 (the empty chain above n_s), so the polylog is the heads of
    the whole index, and slot 1 is mirrored from the last slot of the
    reversed index.  Only an interior slot forms a product, or is mirrored
    from its reversed partner if that sorts first.  Heads are prefix-sum
    passes memoized per prefix, and the tails of a suffix are signed prefix
    sums of the heads of the reversed suffix, so the slots of one index, and
    indices sharing a prefix or a reversed suffix, share their passes:
    prop42 and the two corollaries form 4 products and 11 passes for their
    32 polylogs at one prime.  The head memo keeps one prime's vectors, as
    4-byte words, and this one keeps one prime's polylogs, which the
    conversions of several indices and the groups of one conversion share.
    """
    _require_word_prime(p)
    ks = index.parts
    if not 1 <= slot <= len(ks):
        raise ValueError(f"slot {slot} out of range 1..{len(ks)}")
    if slot == len(ks):
        return PolyFp(p, _heads_of(ks, p))
    partner = (ks[::-1], len(ks) + 1 - slot)
    if slot == 1 or partner < (ks, slot):
        return _mirrored(ss_star(Index(partner[0]), partner[1], p), index.weight % 2)
    # The suffix of weight w' has tails[v] = (-1)^w' sums[p-1-v], by the same law.
    suffix = ks[slot:]
    sums = list(accumulate(_heads_of(suffix[::-1], p)))
    product = _words([h * s % p for h, s in zip(_heads_of(ks[:slot], p), reversed(sums))])
    return PolyFp(p, _negated(product, p) if sum(suffix) % 2 else product)


def _mirrored(f: PolyFp, odd: int) -> PolyFp:
    """(-1)^odd t^p f(1/t), in C, for f of degree below p with f(0) = 0."""
    v = _words([0]) * (f.p - len(f.coeffs) + 1) + f.coeffs[:0:-1]
    return PolyFp(f.p, _negated(v, f.p) if odd else v)


def ss_star_reference(index: Index, slot: int, p: int) -> PolyFp:
    """Literal loop over strictly increasing tuples, each weight read from
    the oracle's per-exponent tables; the oracle for ss_star."""
    if not 1 <= slot <= index.depth:
        raise ValueError(f"slot {slot} out of range 1..{index.depth}")
    tables = _oracle_inverses(p, index.parts)
    coeffs = [0] * p
    for tup in itertools.combinations(range(1, p), index.depth):
        term = 1
        for n, tab in zip(tup, tables):
            term = term * tab[n] % p
        coeffs[tup[slot - 1]] += term
    return PolyFp.of(p, coeffs)


@lru_cache(maxsize=None)
def _conversion_plan(index: Index) -> tuple[tuple[tuple[int, Index, int], int], ...]:
    """((group, grouped index, slot), count) for each distinct term of
    oy_from_ss; independent of p, and kept for every index."""
    groups = enumerate_phi(index.depth).items()
    terms = ((i, grouped_index(phi, index), phi.values[-1]) for i, phis in groups for phi in phis)
    return tuple(Counter(terms).items())


def _conversion_terms(index: Index, p: int) -> list[tuple[int, int, PolyFp]]:
    """The shift-and-add terms of oy_from_ss: one per distinct (group,
    grouped index, slot), weighted by its count of surjections; a (grouped
    index, slot) that recurs is read from ss_star's memo."""
    return [(c, (i - 1) * p, ss_star(g, slot, p)) for (i, g, slot), c in _conversion_plan(index)]


def oy_from_ss(index: Index, p: int) -> PolyFp:
    """Rebuild the chain-sum polylog as sum over i of t^{(i-1)p} times the
    slot-indexed strict-chain polylogs of the grouped indices; must agree with
    oy_fmp exactly, prime by prime."""
    return PolyFp.sum_of(p, _conversion_terms(index, p))


def conversion_residual(index: Index, p: int) -> PolyFp:
    """oy_from_ss(index, p) - oy_fmp(index, p), as one sum: where the
    conversion holds, its zero total is recognised without unpacking."""
    return PolyFp.sum_of(p, _conversion_terms(index, p) + [(-1, 0, oy_fmp(index, p))])


def _corollary_residual(n: int, p: int) -> PolyFp:
    """F(t) - F(1-t) for F the depth-n all-ones chain-sum polylog, rebuilt
    from strict-chain polylogs by oy_from_ss; needs p > n.

    Group i of the conversion is the T^{i-1} part of the corollary's left
    side, with T = t^p.  Composing with 1-t is a ring homomorphism and
    (1-t)^p = 1 - T, so F(1-t) is exactly the right side: every strict-chain
    polylog at 1-t with coefficient (1-T)^{i-1}.

    The difference is that of the all-ones polylog L_n, taken from the
    shuffle lemma (ones_symmetry_difference), plus that of F - L_n.  The
    conversion makes F = L_n, so the second composes the zero polynomial
    unless the conversion or a chain is broken.  F - L_n is prop42's
    conversion residual.
    """
    rest = conversion_residual(Index.ones(n), p)
    return ones_symmetry_difference(n, p) + _symmetry_difference(rest)


def corollary_depth3_residual(p: int) -> PolyFp:
    """Left minus right of the depth-3 strict-chain functional equation."""
    return _corollary_residual(3, p)


def corollary_depth4_residual(p: int) -> PolyFp:
    """Left minus right of the depth-4 strict-chain functional equation."""
    return _corollary_residual(4, p)
