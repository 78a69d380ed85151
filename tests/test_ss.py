"""Strict-chain polylogs, surjection enumeration, conversion, corollaries."""

import itertools
import json
import math
import pathlib

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import eval_terms, oy_from_ss_loop, ss_star_loop

from fmplib import ss
from fmplib.fmp import Index, all_indices, oy_fmp
from fmplib.polyfp import PolyFp
from fmplib.ss import (
    AdjacentDistinctSurjection,
    ENUMERATION_CAP,
    corollary_depth3_residual,
    corollary_depth4_residual,
    enumerate_phi,
    grouped_index,
    oy_from_ss,
    ss_star,
    ss_star_reference,
)


def brute_surjections(r):
    out = []
    for values in itertools.product(range(1, r + 1), repeat=r):
        s = max(values)
        if set(values) != set(range(1, s + 1)):
            continue
        if any(values[i] == values[i + 1] for i in range(r - 1)):
            continue
        out.append(values)
    return out


# --- enumeration ----------------------------------------------------------------


def test_enumerate_r1():
    groups = enumerate_phi(1)
    assert groups == {1: (AdjacentDistinctSurjection((1,)),)}


def test_enumerate_r2_groups():
    groups = enumerate_phi(2)
    assert groups[1] == (AdjacentDistinctSurjection((1, 2)),)
    assert groups[2] == (AdjacentDistinctSurjection((2, 1)),)


def test_enumerate_r3_count():
    groups = enumerate_phi(3)
    total = [phi for phis in groups.values() for phi in phis]
    assert len(total) == 8
    assert sum(1 for phi in total if phi.s == 2) == 2
    assert sum(1 for phi in total if phi.s == 3) == 6


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_enumeration_matches_brute_force(r):
    expected = sorted(brute_surjections(r))
    got = sorted(
        phi.values for phis in enumerate_phi(r).values() for phi in phis
    )
    assert got == expected


def test_groups_partition_by_beta():
    for r in (2, 3, 4):
        groups = enumerate_phi(r)
        assert set(groups) == set(range(1, r + 1))
        for i, phis in groups.items():
            assert all(phi.beta == i for phi in phis)


def test_enumeration_cap():
    with pytest.raises(ValueError, match="depth 9 above enumeration cap 8"):
        enumerate_phi(9)
    with pytest.raises(ValueError):
        enumerate_phi(0)


def test_surjection_validation():
    with pytest.raises(ValueError):
        AdjacentDistinctSurjection((1, 1, 2))  # adjacent repeat
    with pytest.raises(ValueError):
        AdjacentDistinctSurjection((1, 3))  # not onto an initial segment
    with pytest.raises(ValueError):
        AdjacentDistinctSurjection(())


# --- classification ---------------------------------------------------------------


def test_classify_examples():
    # descent-count prefix and the group key beta = delta(r) + 1
    for values, prefix, beta in (
        ((1, 2), (0, 0), 1),
        ((2, 1), (0, 1), 2),
        ((1, 2, 1), (0, 0, 1), 2),
    ):
        phi = AdjacentDistinctSurjection(values)
        assert (phi.descent_prefix(), phi.beta) == (prefix, beta)


def test_grouped_index_examples():
    k = Index.of(3, 5)
    assert grouped_index(AdjacentDistinctSurjection((2, 1)), k) == Index.of(5, 3)
    assert grouped_index(
        AdjacentDistinctSurjection((1, 2, 1)), Index.ones(3)
    ) == Index.of(2, 1)
    ident = AdjacentDistinctSurjection((1, 2, 3))
    assert grouped_index(ident, Index.of(1, 2, 1)) == Index.of(1, 2, 1)


def test_grouped_index_dimension_mismatch():
    with pytest.raises(ValueError):
        grouped_index(AdjacentDistinctSurjection((1, 2)), Index.ones(3))


# --- strict-chain polylogs ----------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("p", [5, 7, 11])
def test_depth1_equals_chain_polylog(k, p):
    assert ss_star(Index.of(k), 1, p) == oy_fmp(Index.of(k), p)


def test_ss_star_depth2_example():
    # sum over 0 < n1 < n2 < 5 of t^{n2}/(n1 n2)
    assert ss_star(Index.of(1, 1), 2, 5) == PolyFp.of(5, [0, 0, 3, 3, 4])
    assert ss_star(Index.of(1, 1), 2, 5) == ss_star_reference(Index.of(1, 1), 2, 5)


def test_ss_star_slot1_example():
    assert ss_star(Index.of(1, 2), 1, 7) == ss_star_reference(Index.of(1, 2), 1, 7)


@given(st.sampled_from(all_indices(4, 3)), st.sampled_from([5, 7, 11, 13]), st.data())
@settings(max_examples=30)
def test_ss_star_matches_reference(idx, p, data):
    slot = data.draw(st.integers(1, idx.depth))
    assert ss_star(idx, slot, p) == ss_star_reference(idx, slot, p)


@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=4),
    st.sampled_from([5, 7, 13, 101, 211]),
)
@settings(max_examples=40)
def test_ss_star_matches_loop(parts, p):
    idx = Index(tuple(parts))
    for slot in range(1, idx.depth + 1):
        assert ss_star(idx, slot, p) == ss_star_loop(idx, slot, p)


@given(st.sampled_from(all_indices(4, 3)), st.sampled_from([5, 7, 11, 13]))
@settings(max_examples=30)
def test_ss_star_degree_below_p(idx, p):
    for slot in range(1, idx.depth + 1):
        assert ss_star(idx, slot, p).degree < p


def test_ss_star_exact_across_primes_and_evictions(fresh_memos):
    # Every slot of every index of weight <= 5 and depth <= 4, with the four
    # primes interleaved key by key, in forward and then reverse order: the
    # bounded head and tail memos evict and recompute, and no vector may be
    # read at the wrong prime or after eviction.
    primes = (5, 7, 11, 13)
    keys = [(idx, slot) for idx in all_indices(5, 4) for slot in range(1, idx.depth + 1)]
    expected = {(key, p): ss_star_reference(*key, p) for key in keys for p in primes}
    for key in keys:
        for p in primes:
            assert ss_star(*key, p) == expected[key, p], (key, p)
    # ss_star's own memo holds the last keys of the forward pass; clear it
    # so that every read of the reverse pass reaches the head and tail memos.
    ss_star.cache_clear()
    for key in keys[::-1]:
        for p in primes:
            assert ss_star(*key, p) == expected[key, p], (key, p)
    for memo in (ss._heads, ss._tails):
        info = memo.cache_info()
        assert info.currsize == info.maxsize < info.misses, info


def test_ss_star_slot_range():
    with pytest.raises(ValueError):
        ss_star(Index.of(1, 2), 3, 7)
    with pytest.raises(ValueError):
        ss_star(Index.of(1, 2), 0, 7)


# --- conversion -----------------------------------------------------------------------


@pytest.mark.parametrize("k,p", [(1, 5), (2, 7), (3, 11)])
def test_conversion_depth1(k, p):
    assert oy_from_ss(Index.of(k), p) == oy_fmp(Index.of(k), p)


def test_conversion_depth2_structure():
    # depth 2 decomposes as last-slot part plus t^p times first-slot reversed part
    p, k = 7, Index.of(1, 2)
    expected = ss_star(Index.of(1, 2), 2, p) + ss_star(Index.of(2, 1), 1, p).shifted(p)
    assert oy_from_ss(k, p) == expected
    assert oy_from_ss(k, p) == oy_fmp(k, p)


def test_conversion_depth3():
    assert oy_from_ss(Index.of(1, 2, 1), 11) == oy_fmp(Index.of(1, 2, 1), 11)


@pytest.mark.parametrize("p", [5, 7, 13])
def test_conversion_family(p):
    for idx in all_indices(4, 3):
        assert oy_from_ss(idx, p) == oy_fmp(idx, p), str(idx)


CONVERSION_INDICES = [Index.ones(n) for n in range(1, 5)] + [Index.of(1, 2, 1), Index.of(3, 1, 2)]


@pytest.mark.parametrize("p", [5, 7, 11, 101, 1009])
def test_conversion_matches_the_surjection_loop(p):
    for idx in CONVERSION_INDICES:
        assert oy_from_ss(idx, p) == oy_from_ss_loop(idx, p), str(idx)


@pytest.mark.parametrize("p", [11, 101])
def test_conversion_matches_the_surjection_loop_where_nonzero(p, monkeypatch):
    # A strict-chain polylog off by t that two surjections of [4] share: the
    # conversion no longer equals the chain-sum polylog, and the weighted
    # terms must still equal the surjection loop.
    original = ss.ss_star

    def perturbed(index, slot, q):
        poly = original(index, slot, q)
        if (index.parts, slot) == ((2, 1, 1), 1):
            poly = poly + PolyFp.of(q, [0, 1])
        return poly

    monkeypatch.setattr(ss, "ss_star", perturbed)
    monkeypatch.setattr(oracles, "ss_star", perturbed)
    idx = Index.ones(4)
    assert oy_from_ss(idx, p) != oy_fmp(idx, p)
    assert oy_from_ss(idx, p) == oy_from_ss_loop(idx, p)


def test_conversion_cap():
    # raised by the enumeration, before any strict-chain polylog is computed
    with pytest.raises(ValueError, match="depth 9 above enumeration cap 8"):
        oy_from_ss(Index.ones(ENUMERATION_CAP + 1), 7)


# --- the two strict-chain corollaries ----------------------------------------------------
#
# tests/data/corollary_d*.json transcribe the corollaries' term lists: one record
# per term, with coefficient a polynomial in the formal symbol T = t^p
# (ascending), index, indeterminate slot and argument side.  They are the
# audited oracle for the conversion-based residuals.

DATA = pathlib.Path(__file__).resolve().parent / "data"
RESIDUALS = {
    "corollary_d3": corollary_depth3_residual,
    "corollary_d4": corollary_depth4_residual,
}
# The depth-3 left side is transcribed with the slots of (2,1) and (1,2)
# swapped against the conversion; see test_d3_slot_pair_identity.
D3_LHS_SWAP = {((2, 1), 2): ((2, 1), 1), ((1, 2), 1): ((1, 2), 2)}


def corollary_terms(name):
    return json.loads((DATA / f"{name}.json").read_text())


def test_term_lists_shape():
    d3 = corollary_terms("corollary_d3")
    d4 = corollary_terms("corollary_d4")
    assert len(d3["lhs"]) == 5 and len(d3["rhs"]) == 5
    assert len(d4["lhs"]) == 15 and len(d4["rhs"]) == 15
    for data in (d3, d4):
        for side in ("lhs", "rhs"):
            for term in data[side]:
                assert 1 <= term["slot"] <= len(term["index"])
                assert term["arg"] in ("t", "1-t")
                assert term["coeff"]
                assert all(k >= 1 for k in term["index"])
    # every lhs term takes argument t, every rhs term 1-t
    for data in (d3, d4):
        assert all(t["arg"] == "t" for t in data["lhs"])
        assert all(t["arg"] == "1-t" for t in data["rhs"])


def _by_key(terms, rename=None):
    """(index, slot) -> coefficient list in T, trailing zeros dropped."""
    out = {}
    for term in terms:
        key = (tuple(term["index"]), term["slot"])
        key = (rename or {}).get(key, key)
        coeff = out.setdefault(key, [])
        coeff.extend([0] * (len(term["coeff"]) - len(coeff)))
        for j, c in enumerate(term["coeff"]):
            coeff[j] += c
    return {k: _trim(c) for k, c in out.items()}


def _trim(coeff):
    while coeff and coeff[-1] == 0:
        coeff = coeff[:-1]
    return coeff


def _conversion_terms(n):
    """The term lists the conversion of 1^n gives: each surjection phi adds
    T^(beta-1) at t and (1-T)^(beta-1) at 1-t to (grouped index, last value)."""
    lhs, rhs = {}, {}
    for beta, phis in enumerate_phi(n).items():
        for phi in phis:
            key = (grouped_index(phi, Index.ones(n)).parts, phi.values[-1])
            left = lhs.setdefault(key, [0] * n)
            right = rhs.setdefault(key, [0] * n)
            left[beta - 1] += 1
            for j in range(beta):
                right[j] += math.comb(beta - 1, j) * (-1) ** j
    return (
        {k: _trim(c) for k, c in lhs.items()},
        {k: _trim(c) for k, c in rhs.items()},
    )


def test_term_lists_are_the_conversion():
    lhs, rhs = _conversion_terms(4)
    d4 = corollary_terms("corollary_d4")
    assert _by_key(d4["lhs"]) == lhs
    assert _by_key(d4["rhs"]) == rhs
    lhs, rhs = _conversion_terms(3)
    d3 = corollary_terms("corollary_d3")
    assert _by_key(d3["rhs"]) == rhs
    assert _by_key(d3["lhs"]) != lhs
    assert _by_key(d3["lhs"], D3_LHS_SWAP) == lhs


@pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 1009])
def test_d3_slot_pair_identity(p):
    """ss(21;2) + ss(12;1) = ss(21;1) + ss(12;2) at every p >= 5.

    In the difference the coefficient of t^c is c^-2 (c H_2 - H_1), where
    H_k is the sum of n^-k over 0 < n < p.  By Wolstenholme's theorem both
    harmonic sums vanish mod p for p >= 5, so the transcribed depth-3 left
    side, which swaps these slots, equals the conversion's.
    """
    a, b = Index.of(2, 1), Index.of(1, 2)
    assert ss_star(a, 2, p) + ss_star(b, 1, p) == ss_star(a, 1, p) + ss_star(b, 2, p)
    # the swap is not trivial: each swapped term differs from the one it replaces
    assert ss_star(a, 2, p) != ss_star(a, 1, p)
    assert ss_star(b, 1, p) != ss_star(b, 2, p)


@pytest.mark.parametrize("p", [7, 11, 31])
def test_corollary_depth3(p):
    assert corollary_depth3_residual(p).is_zero


@pytest.mark.parametrize("p", [7, 11, 13])
def test_corollary_depth4(p):
    assert corollary_depth4_residual(p).is_zero


def test_corollary_depth4_exceptional_at_5():
    # p = 5 is the one genuine exceptional prime below the floor of 7: the
    # depth-4 all-ones polylog is not t <-> 1-t symmetric at n = p - 1.
    assert corollary_depth3_residual(5).is_zero
    assert not corollary_depth4_residual(5).is_zero


def _term_by_term(name, p):
    data = corollary_terms(name)
    return eval_terms(data["lhs"], p) - eval_terms(data["rhs"], p)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 1009])
@pytest.mark.parametrize("name", ["corollary_d3", "corollary_d4"])
def test_blocks_match_term_by_term(name, p):
    expected = _term_by_term(name, p)
    assert RESIDUALS[name](p) == expected
    assert expected.is_zero == ((name, p) != ("corollary_d4", 5))


# One key per corollary that the depth-3 slot swap leaves alone.
PERTURBED = {"corollary_d3": ((1, 1, 1), 3), "corollary_d4": ((1, 1, 1, 1), 4)}


@pytest.mark.parametrize("p", [11, 101])
@pytest.mark.parametrize("name", ["corollary_d3", "corollary_d4"])
def test_blocks_match_term_by_term_where_nonzero(name, p, monkeypatch):
    # A strict-chain polylog off by t at one key: both evaluations see it.
    original = ss.ss_star

    def perturbed(index, slot, p):
        poly = original(index, slot, p)
        if (index.parts, slot) == PERTURBED[name]:
            poly = poly + PolyFp.of(p, [0, 1])
        return poly

    monkeypatch.setattr(ss, "ss_star", perturbed)
    monkeypatch.setattr(oracles, "ss_star", perturbed)
    expected = _term_by_term(name, p)
    assert not expected.is_zero
    assert RESIDUALS[name](p) == expected


def test_unknown_argument_raises():
    data = corollary_terms("corollary_d3")
    rhs = [dict(data["rhs"][0], arg="t^2")] + data["rhs"][1:]
    with pytest.raises(ValueError, match="unknown argument"):
        eval_terms(rhs, 7)
