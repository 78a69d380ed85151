"""Strict-chain polylogs, surjection enumeration, conversion, corollaries."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmplib.fmp import Index, all_indices, oy_fmp
from fmplib.polyfp import PolyFp
from fmplib.ss import (
    AdjacentDistinctSurjection,
    ENUMERATION_CAP,
    EnumerationCapExceeded,
    corollary_depth3_residual,
    corollary_depth4_residual,
    corollary_terms,
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
    with pytest.raises(EnumerationCapExceeded):
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


@given(st.sampled_from(all_indices(4, 3)), st.sampled_from([5, 7, 11, 13]))
@settings(max_examples=30)
def test_ss_star_degree_below_p(idx, p):
    for slot in range(1, idx.depth + 1):
        assert ss_star(idx, slot, p).degree < p


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


def test_conversion_cap():
    # raised by the enumeration, before any strict-chain polylog is computed
    with pytest.raises(EnumerationCapExceeded):
        oy_from_ss(Index.ones(ENUMERATION_CAP + 1), 7)


# --- the two transcribed corollaries ---------------------------------------------------


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


@pytest.mark.parametrize("p", [7, 11, 31])
def test_corollary_depth3(p):
    assert corollary_depth3_residual(p).is_zero


@pytest.mark.parametrize("p", [7, 11, 13])
def test_corollary_depth4(p):
    assert corollary_depth4_residual(p).is_zero


def test_corollary_depth4_exceptional_at_5():
    # p = 5 is the one genuine exceptional prime below the floor of 7
    assert corollary_depth3_residual(5).is_zero
    assert not corollary_depth4_residual(5).is_zero
