"""Chain distributions, the window DP, and the nested-loop oracles."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmplib.fmp import (
    BlockTriple,
    Index,
    OracleTooLarge,
    all_indices,
    chain_distribution,
    naive_reference,
    naive_reference_general,
    oy_fmp,
    oy_fmp_general,
    zeta_variant,
)
from fmplib.modular import Residue
from fmplib.polyfp import PolyFp


@st.composite
def small_indices(draw, max_weight=5, max_depth=4):
    return draw(st.sampled_from(all_indices(max_weight, max_depth)))


# --- Index / BlockTriple types ----------------------------------------------


def test_index_validation():
    idx = Index.of(1, 2, 1)
    assert idx.depth == 3 and idx.weight == 4
    assert Index.ones(3).parts == (1, 1, 1)
    with pytest.raises(ValueError):
        Index(())
    with pytest.raises(ValueError):
        Index((1, 0))


def test_block_triple_validation():
    b = BlockTriple.of((1, 1), (1,), ())
    assert b.total_depth == 3
    with pytest.raises(ValueError):
        BlockTriple.of((), (), ())
    with pytest.raises(ValueError):
        BlockTriple.of((0,), (), (1,))


def test_all_indices_family():
    fam = all_indices(5, 4)
    assert len(fam) == 30
    assert len(set(fam)) == 30
    assert all(i.weight <= 5 and i.depth <= 4 for i in fam)
    # deterministic order
    assert fam == all_indices(5, 4)


# --- chain distributions -----------------------------------------------------


def test_chain_distribution_depth1():
    dist = chain_distribution(Index.of(1), 5)
    assert dist.values == (0, 1, 3, 2, 4)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_chain_distribution_single_tuple(p):
    # only the chain l1 = l2 = 1 ends at total 2
    dist = chain_distribution(Index.of(1, 1), p)
    assert dist.values[2] * 2 % p == 1


def test_chain_distribution_matches_naive():
    dist = chain_distribution(Index.of(1, 2), 7)
    assert dist.to_poly() == naive_reference(Index.of(1, 2), 7)


@given(small_indices(), st.sampled_from([5, 7, 11]))
@settings(max_examples=20)
def test_excluded_positions_are_zero(idx, p):
    dist = chain_distribution(idx, p)
    assert all(dist.values[s] == 0 for s in range(0, len(dist.values), p))
    assert len(dist.values) == idx.depth * (p - 1) + 1


# --- the polylog -------------------------------------------------------------


def test_oy_fmp_depth1():
    assert oy_fmp(Index.of(1), 5) == PolyFp.of(5, [0, 1, 3, 2, 4])
    assert oy_fmp(Index.of(1), 5) == naive_reference(Index.of(1), 5)


def test_oy_fmp_depth2_square_identity():
    p = 5
    f1 = oy_fmp(Index.of(1), p)
    half = pow(2, p - 2, p)
    assert oy_fmp(Index.of(1, 1), p) == f1 * f1 * half


def test_oy_fmp_matches_naive_21():
    assert oy_fmp(Index.of(2, 1), 11) == naive_reference(Index.of(2, 1), 11)


def test_naive_reference_p3_exhaustive():
    # (1,1): tuples (1,2),(2,1) hit total 3 (excluded); (1,1)->t^2/2, (2,2)->t^4/8
    assert naive_reference(Index.of(1, 1), 3) == PolyFp.of(3, [0, 0, 2, 0, 2])


def test_oracle_budget_guard():
    with pytest.raises(OracleTooLarge):
        naive_reference(Index.ones(4), 7, budget=100)
    with pytest.raises(OracleTooLarge):
        naive_reference_general(BlockTriple.of((1,), (1,), (1, 1)), 7, budget=100)


def test_oracle_budget_env(monkeypatch):
    monkeypatch.setenv("FMP_ORACLE_BUDGET", "10")
    with pytest.raises(OracleTooLarge):
        naive_reference(Index.of(1, 1), 7)
    monkeypatch.setenv("FMP_ORACLE_BUDGET", "1000000")
    naive_reference(Index.of(1, 1), 7)


# --- zeta variants -----------------------------------------------------------


@pytest.mark.parametrize("p", [5, 7, 11, 13, 31])
def test_zeta_depth1_weight2_vanishes(p):
    assert zeta_variant(Index.of(2), 1, p) == Residue(0, p)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_zeta_last_window_reflection(p):
    assert zeta_variant(Index.of(1, 2), 2, p) == -zeta_variant(Index.of(1, 2), 1, p)


@given(small_indices(max_weight=6), st.sampled_from([7, 11, 13, 17]))
@settings(max_examples=25)
def test_zeta_reflection_general(idx, p):
    rhs = zeta_variant(idx, 1, p)
    expected = rhs if idx.weight % 2 == 0 else -rhs
    assert zeta_variant(idx, idx.depth, p) == expected


@given(small_indices(max_weight=6), st.sampled_from([5, 7, 11, 13, 17]))
@settings(max_examples=25)
def test_zeta_window_partition(idx, p):
    dist = chain_distribution(idx, p)
    total = sum(
        zeta_variant(idx, i, p).value for i in range(1, idx.depth + 1)
    ) % p
    assert total == sum(dist.values) % p


def test_zeta_window_out_of_range():
    with pytest.raises(ValueError):
        zeta_variant(Index.of(1, 2), 3, 7)
    with pytest.raises(ValueError):
        zeta_variant(Index.of(1, 2), 0, 7)


# --- three-block sums ---------------------------------------------------------


@pytest.mark.parametrize("n,p", [(2, 5), (3, 7), (4, 7)])
def test_general_product_form(n, p):
    blocks = BlockTriple.of((1,) * (n - 1), (1,), ())
    expected = oy_fmp(Index.ones(n - 1), p) * oy_fmp(Index.of(1), p)
    assert oy_fmp_general(blocks, p) == expected


@pytest.mark.parametrize("n,p", [(2, 5), (3, 7), (5, 11)])
def test_general_collapses_to_plain(n, p):
    blocks = BlockTriple.of((), (1,), (1,) * (n - 1))
    assert oy_fmp_general(blocks, p) == oy_fmp(Index.ones(n), p)


def test_general_matches_naive():
    blocks = BlockTriple.of((1, 1), (1,), (1,))
    assert oy_fmp_general(blocks, 7) == naive_reference_general(blocks, 7)


def test_general_empty_first_blocks():
    blocks = BlockTriple.of((), (), (2, 1))
    assert oy_fmp_general(blocks, 7) == oy_fmp(Index.of(2, 1), 7)


# --- DP vs oracle, small scale (full grid runs in the acceptance suite) -------


@pytest.mark.parametrize("p", [5, 7])
def test_oracle_equivalence_sample(p):
    for idx in all_indices(4, 3):
        assert oy_fmp(idx, p) == naive_reference(idx, p), str(idx)
