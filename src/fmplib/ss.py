"""Strictly-increasing chain polylogs, adjacent-distinct surjections, and the
conversion rebuilding the chain-sum polylog from slot-indexed pieces.

The two t <-> 1-t corollaries at depths 3 and 4 come from the conversion of
the all-ones index: read at t it is the corollary's left side, and composed
with 1-t its right side, so the residual is F(t) - F(1-t).
"""

from __future__ import annotations

import itertools
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import mul

from .fmp import Index, _inverse_powers, _oracle_inverses
from .identities import _symmetry_difference, ones_fmp, ones_symmetry_difference
from .polyfp import PolyFp, _require_word_prime, _words

__all__ = [
    "AdjacentDistinctSurjection",
    "ENUMERATION_CAP",
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


# The head and tail memos keep one prime's working set: prop42 and the two
# corollaries share 15 head prefixes and 7 tail suffixes, plus the two empty
# bases.  Keeping more primes would grow memory with the prime range.
@lru_cache(maxsize=16)
def _heads(prefix: tuple[int, ...], p: int) -> array:
    """heads[v] = sum over strict chains 0 < n_1 < ... < n_c = v of
    1/(n_1^{k_1} ... n_c^{k_c}), for the c parts of prefix; the empty prefix
    is the chain ending at 0.  One pass on the heads of prefix[:-1].

    Stored as 4-byte words, as PolyFp stores its coefficients: every entry
    is below p < 2^32."""
    if not prefix:
        return _words([1] + [0] * (p - 1))
    # new[v] = v^{-k} * (heads[0] + ... + heads[v-1]) for 0 < v < p
    tab = _inverse_powers(prefix[-1], p)
    heads = _heads(prefix[:-1], p).tolist()
    return _words([0] + [run * w % p for run, w in zip(accumulate(heads), tab[1:])])


@lru_cache(maxsize=8)
def _tails(suffix: tuple[int, ...], p: int) -> array:
    """tails[v] = sum over strict chains v < n_1 < ... < n_c < p of
    1/(n_1^{k_1} ... n_c^{k_c}), for the c parts of suffix; the empty suffix
    completes every v with 1.  One pass on the tails of suffix[1:], stored
    as _heads stores its vectors."""
    if not suffix:
        return _words([1] * p)
    # new[v] = sum over u > v of u^{-k} * tails[u], and new[p-1] = 0
    tab = _inverse_powers(suffix[0], p)
    tails = _tails(suffix[1:], p).tolist()
    running = list(accumulate(map(mul, reversed(tab), reversed(tails))))
    return _words([run % p for run in running[-2::-1]] + [0])


# One prime's working set: at one prime a full sweep's conversions ask 77
# times for 32 distinct (index, slot) pairs, and prop42's 46 times for 28.
@lru_cache(maxsize=32)
def ss_star(index: Index, slot: int, p: int) -> PolyFp:
    """Sum over strictly increasing chains 0 < n_1 < ... < n_s < p of
    t^{n_slot} / (n_1^{k_1} ... n_s^{k_s}); every other argument is fixed at 1.

    The elementwise product of the heads of the parts up to the slot and the
    tails of the parts past it; degree always below p.  Heads and tails are
    prefix- and suffix-sum passes memoized per prefix and suffix, so the
    slots of one index, and indices sharing a prefix or a suffix, share their
    passes: prop42 and the two corollaries make 22 passes at one prime,
    where a pass per part of each of their 32 distinct polylogs would make
    80.  The memos keep one prime's vectors, as 4-byte words, and this one
    keeps one prime's polylogs, which the conversions of several indices and
    the groups of one conversion share.
    """
    _require_word_prime(p)
    ks = index.parts
    if not 1 <= slot <= len(ks):
        raise ValueError(f"slot {slot} out of range 1..{len(ks)}")
    heads, tails = _heads(ks[:slot], p).tolist(), _tails(ks[slot:], p).tolist()
    return PolyFp(p, [h * w % p for h, w in zip(heads, tails)])


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


def oy_from_ss(index: Index, p: int) -> PolyFp:
    """Rebuild the chain-sum polylog as sum over i of t^{(i-1)p} times the
    slot-indexed strict-chain polylogs of the grouped indices; must agree with
    oy_fmp exactly, prime by prime.  Each distinct (group, grouped index,
    slot) is one term weighted by its count of surjections; a (grouped
    index, slot) that recurs is read from ss_star's memo."""
    counts = Counter(
        (i, grouped_index(phi, index), phi.values[-1])
        for i, phis in enumerate_phi(index.depth).items()
        for phi in phis
    )
    return PolyFp.sum_of(
        p,
        [(c, (i - 1) * p, ss_star(grouped, slot, p)) for (i, grouped, slot), c in counts.items()],
    )


def _corollary_residual(n: int, p: int) -> PolyFp:
    """F(t) - F(1-t) for F the depth-n all-ones chain-sum polylog, rebuilt
    from strict-chain polylogs by oy_from_ss; needs p > n.

    Group i of the conversion is the T^{i-1} part of the corollary's left
    side, with T = t^p.  Composing with 1-t is a ring homomorphism and
    (1-t)^p = 1 - T, so F(1-t) is exactly the right side: every strict-chain
    polylog at 1-t with coefficient (1-T)^{i-1}.

    The difference is that of the all-ones polylog L_n, taken from the main
    theorem (ones_symmetry_difference), plus that of F - L_n.  The
    conversion makes F = L_n, so the second composes the zero polynomial
    unless the conversion or a chain is broken.
    """
    f = oy_from_ss(Index.ones(n), p)
    rest = f - ones_fmp(n, p)
    return ones_symmetry_difference(n, p) + _symmetry_difference(rest)


def corollary_depth3_residual(p: int) -> PolyFp:
    """Left minus right of the depth-3 strict-chain functional equation."""
    return _corollary_residual(3, p)


def corollary_depth4_residual(p: int) -> PolyFp:
    """Left minus right of the depth-4 strict-chain functional equation."""
    return _corollary_residual(4, p)
