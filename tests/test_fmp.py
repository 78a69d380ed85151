"""Chain distributions, the window DP, and the nested-loop oracles."""

import itertools
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import naive_reference_product, window_extend_loop

from fmplib import fmp, ss
from fmplib.fmp import (
    ORACLE_BUDGET,
    BlockTriple,
    Index,
    _window_extend,
    all_indices,
    chain_distribution,
    naive_reference,
    naive_reference_general,
    oy_fmp,
    oy_fmp_general,
    window_slices,
    zeta_variant,
)
from fmplib.modular import Residue
from fmplib.polyfp import PolyFp
from fmplib.sweep import _block_triples


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
    b = BlockTriple((1, 1), (1,), ())
    assert b.total_depth == 3
    with pytest.raises(ValueError):
        BlockTriple((), (), ())
    with pytest.raises(ValueError):
        BlockTriple((0,), (), (1,))


def test_all_indices_family():
    fam = all_indices(5, 4)
    assert len(fam) == 30
    assert len(set(fam)) == 30
    assert all(i.weight <= 5 and i.depth <= 4 for i in fam)
    # deterministic order
    assert fam == all_indices(5, 4)


# --- chain distributions -----------------------------------------------------


def test_chain_distribution_depth1():
    assert chain_distribution(Index.of(1), 5) == array("I", [0, 1, 3, 2, 4])


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_chain_distribution_single_tuple(p):
    # only the chain l1 = l2 = 1 ends at total 2
    values = chain_distribution(Index.of(1, 1), p)
    assert values[2] * 2 % p == 1


def test_chain_distribution_matches_naive():
    values = chain_distribution(Index.of(1, 2), 7)
    assert PolyFp.of(7, values) == naive_reference(Index.of(1, 2), 7)


@given(small_indices(), st.sampled_from([5, 7, 11]))
@settings(max_examples=20)
def test_excluded_positions_are_zero(idx, p):
    values = chain_distribution(idx, p)
    assert all(values[s] == 0 for s in range(0, len(values), p))
    assert len(values) == idx.depth * (p - 1) + 1


def test_nonzero_value_at_multiple_of_p_is_refused(monkeypatch, fresh_memos):
    # A faulty chain step that leaves a value at S = p is caught where the
    # chain values are memoized, before any polylog or slice reads them.
    original = fmp._window_extend

    def faulty(values, k, p):
        out = original(values, k, p)
        if len(out) > p:  # the second step on; the first ends below p
            out[p] = 1
        return out

    monkeypatch.setattr(fmp, "_window_extend", faulty)
    with pytest.raises(ValueError, match="nonzero chain value at a multiple of 7"):
        oy_fmp(Index.of(1, 1), 7)


@st.composite
def chain_steps(draw):
    """A reduced coefficient vector of length 1..4p, about a quarter zeros,
    at a prime up to 211."""
    p = draw(st.sampled_from([5, 7, 13, 101, 211]))
    rng = draw(st.randoms(use_true_random=False))
    length = draw(st.integers(1, 4 * p))
    return p, [rng.randrange(p) if rng.randrange(4) else 0 for _ in range(length)]


@settings(max_examples=60)
@given(chain_steps(), st.sampled_from([1, 2, 3]))
def test_window_extend_matches_loop(step, k):
    p, values = step
    expected = window_extend_loop(values, k, p)
    assert _window_extend(values, k, p) == expected
    assert _window_extend(tuple(values), k, p) == expected


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


def test_oracle_budget_guard(monkeypatch):
    # 17^6 tuples exceed the budget; the oracles' one guard refuses before it
    # builds the inverse table, so none of them starts to loop.
    assert 17**6 > ORACLE_BUDGET
    monkeypatch.setattr(fmp, "inverse_table", None)
    with pytest.raises(ValueError, match=r"p\^depth = 17\^6 exceeds 10000000"):
        naive_reference(Index.ones(6), 17)
    with pytest.raises(ValueError, match=r"p\^depth = 17\^6 exceeds 10000000"):
        naive_reference_general(BlockTriple((1, 1), (1, 1), (1, 1)), 17)
    with pytest.raises(ValueError, match=r"p\^depth = 17\^6 exceeds 10000000"):
        ss.ss_star_reference(Index.ones(6), 1, 17)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_depth_first_oracle_matches_product_triples(p):
    # At p = 3 partial sums inside every block hit multiples of p.
    for blocks in _block_triples(4):
        assert naive_reference_general(blocks, p) == naive_reference_product(blocks, p), blocks


def test_depth_first_oracle_matches_product_chains():
    for idx in all_indices(5, 4):
        blocks = BlockTriple((), (), idx.parts)
        assert naive_reference_general(blocks, 11) == naive_reference_product(blocks, 11), idx


def _refuse(*args, **kwargs):
    raise AssertionError("an oracle read the DP's structures")


def test_oracles_independent_of_dp(fresh_memos, monkeypatch):
    # The oracles must not lean on the DP they check: with its chain steps,
    # chain memo, power tables and strict-chain passes all refusing, they
    # still return the values the DP gave before.
    p, idx, blocks = 7, Index.of(2, 1, 1), BlockTriple((1, 2), (1,), (2,))
    expected = (
        oy_fmp(idx, p),
        oy_fmp_general(blocks, p),
        [ss.ss_star(idx, slot, p) for slot in (1, 2, 3)],
    )
    for module, name in [
        (fmp, "_window_extend"),
        (fmp, "_inverse_powers"),
        (fmp, "_chain_values"),
        (ss, "_inverse_powers"),
        (ss, "_heads"),
        (ss, "_tails"),
    ]:
        monkeypatch.setattr(module, name, _refuse)
    got = (
        naive_reference(idx, p),
        naive_reference_general(blocks, p),
        [ss.ss_star_reference(idx, slot, p) for slot in (1, 2, 3)],
    )
    assert got == expected


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
    total = sum(
        zeta_variant(idx, i, p).value for i in range(1, idx.depth + 1)
    ) % p
    assert total == sum(chain_distribution(idx, p)) % p
    assert window_slices(idx, p) == tuple(zeta_variant(idx, i, p).value for i in range(1, idx.depth + 1))


def test_zeta_window_out_of_range():
    with pytest.raises(ValueError):
        zeta_variant(Index.of(1, 2), 3, 7)
    with pytest.raises(ValueError):
        zeta_variant(Index.of(1, 2), 0, 7)


# --- three-block sums ---------------------------------------------------------


@pytest.mark.parametrize("n,p", [(2, 5), (3, 7), (4, 7)])
def test_general_product_form(n, p):
    blocks = BlockTriple((1,) * (n - 1), (1,), ())
    expected = oy_fmp(Index.ones(n - 1), p) * oy_fmp(Index.of(1), p)
    assert oy_fmp_general(blocks, p) == expected


@pytest.mark.parametrize("n,p", [(2, 5), (3, 7), (5, 11)])
def test_general_collapses_to_plain(n, p):
    blocks = BlockTriple((), (1,), (1,) * (n - 1))
    assert oy_fmp_general(blocks, p) == oy_fmp(Index.ones(n), p)


def test_general_matches_naive():
    blocks = BlockTriple((1, 1), (1,), (1,))
    assert oy_fmp_general(blocks, 7) == naive_reference_general(blocks, 7)


def test_general_empty_first_blocks():
    # With the first or second block empty the three blocks form one chain.
    for blocks in _block_triples(4):
        if not blocks.first or not blocks.second:
            assert oy_fmp_general(blocks, 7) == naive_reference_general(blocks, 7), blocks


# --- DP vs oracle, small scale (full grid runs in the acceptance suite) -------


@pytest.mark.parametrize("p", [5, 7])
def test_oracle_equivalence_sample(p):
    for idx in all_indices(4, 3):
        assert oy_fmp(idx, p) == naive_reference(idx, p), str(idx)
