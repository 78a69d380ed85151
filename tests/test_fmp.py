"""Chain distributions, the window DP, and the nested-loop oracles."""

import itertools
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import naive_reference_product, schoolbook_mul, window_extend_loop

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
from fmplib.polyfp import PolyFp, _words
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

    def faulty(values, k, p, size=None):
        out = original(values, k, p, size)
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
    for size in (len(values), len(expected) // 2 + 1):
        assert _window_extend(values, k, p, size) == expected[:size]


# --- the reflection v[rp - S] = (-1)^w v[S] ---------------------------------


def _reflection_defects(coeffs, depth, weight, p):
    """The S in depth..depth*(p-1) where v[depth*p - S] != (-1)^weight v[S],
    for v the coefficients padded to depth*(p-1) + 1."""
    v = list(coeffs) + [0] * (depth * (p - 1) + 1 - len(coeffs))
    sign = (-1) ** weight
    return [s for s in range(depth, len(v)) if v[depth * p - s] != sign * v[s] % p]


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_loop_oracles_obey_the_reflection(p):
    # l_i -> p - l_i maps every partial sum L_x to xp - L_x, keeps every
    # exclusion and turns L_x^{-k_x} into (-1)^{k_x} L_x^{-k_x}.
    for idx in all_indices(5, 4):
        got = naive_reference(idx, p).coeffs
        assert _reflection_defects(got, idx.depth, idx.weight, p) == [], idx
    for blocks in _block_triples(4):
        parts = blocks.first + blocks.second + blocks.third
        got = naive_reference_general(blocks, p).coeffs
        assert _reflection_defects(got, len(parts), sum(parts), p) == [], blocks


@st.composite
def reflecting(draw, primes=(5, 13, 101, 211, 401), depths=(0, 1, 2, 3, 4)):
    """(p, parts, v): a random vector of the depth r and weight w of parts,
    with v[rp - S] = (-1)^w v[S] and a nonzero top coefficient, or, one time
    in four, that vector with one entry bumped, which breaks the law: a
    random one, the centre S = rp/2 or S = 0, below the depth."""
    p, depth = draw(st.sampled_from(primes)), draw(st.sampled_from(depths))
    parts = tuple(draw(st.lists(st.sampled_from([1, 2]), min_size=depth, max_size=depth)))
    rng = draw(st.randoms(use_true_random=False))
    body = [rng.randrange(p) if rng.randrange(4) else 0 for _ in range(depth * (p - 2) + 1)]
    body[0], n, sign = body[0] or 1, len(body), (-1) ** sum(parts)
    for j in range(n // 2):
        body[n - 1 - j] = sign * body[j] % p
    if n % 2 and sign < 0:
        body[n // 2] = 0
    v = [0] * depth + body
    if draw(st.integers(0, 3)) == 0:
        i = rng.choice([rng.randrange(len(v)), depth * p // 2, 0])
        v[i] = (v[i] + 1) % p
    return p, parts, array("I", v)


@settings(max_examples=60)
@given(reflecting(), st.sampled_from([1, 2, 3]))
def test_half_chain_step_matches_loop(data, k):
    # Inputs above and below the gate, of either sign, reflecting or not.
    p, parts, v = data
    assert fmp._extend(v, parts, k, p).tolist() == window_extend_loop(v.tolist(), k, p)


@settings(max_examples=30)
@given(st.data(), st.sampled_from([1, 2]))
def test_half_bridge_and_its_step_match_schoolbook(data, k):
    # A three-block shape: a product of two chain vectors, one more step on
    # the combined total.
    p = data.draw(st.sampled_from([7, 13, 211, 401]))
    _, first, a = data.draw(reflecting(primes=(p,), depths=(1, 2, 3)))
    _, second, b = data.draw(reflecting(primes=(p,), depths=tuple(range(1, 5 - len(first)))))
    f, g = PolyFp(p, a), PolyFp(p, b)
    got = fmp._product(f, g, first, second)
    expected = schoolbook_mul(f, g)
    assert got == expected
    step = fmp._extend(got.coeffs, first + second, k, p)
    assert PolyFp(p, step) == PolyFp.of(p, window_extend_loop(expected.coeffs.tolist(), k, p))


@pytest.mark.parametrize("where", ["below the depth", "centre", "top"])
def test_half_path_refuses_a_bumped_chain(where):
    # Above the gate, chain values of (1, 2) bumped at S = 0, at the centre
    # S = rp/2 (where odd weight forces a zero) or at the top; every kernel
    # output still matches the loops.
    p, parts = 401, (1, 2)
    v = array("I", chain_distribution(Index(parts), p))
    s = {"below the depth": 0, "centre": len(parts) * p // 2, "top": len(v) - 1}[where]
    v[s] = (v[s] + 1) % p
    assert fmp._extend(v, parts, 1, p).tolist() == window_extend_loop(v.tolist(), 1, p)
    f, g = PolyFp(p, v), oy_fmp(Index.of(1), p)
    assert fmp._product(f, g, parts, (1,)) == schoolbook_mul(f, g)


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


@pytest.mark.parametrize("p", [5, 13, 1051, 4099])
def test_depth1_chains_are_the_power_tables(fresh_memos, p):
    # Read from _inverse_powers, not stepped: the same words as the chain
    # step from the empty chain.
    for k in range(1, 7):
        assert fmp._chain_values((k,), p) == _words(_window_extend([1], k, p)), k


@pytest.mark.parametrize("p", [7, 13])
def test_large_parts_match_the_oracles(fresh_memos, p):
    # Index parts have no upper bound: a part of 1000 takes one power table,
    # equal to raising each inverse to the 1000th power.
    idx = Index.of(1000, 1)
    assert list(fmp._inverse_powers(1000, p)) == [pow(v, -1000, p) if v else 0 for v in range(p)]
    assert oy_fmp(idx, p) == naive_reference(idx, p)
    for slot in (1, 2):
        assert ss.ss_star(idx, slot, p) == ss.ss_star_reference(idx, slot, p)


def test_deep_index_matches_the_loop_steps(fresh_memos):
    # 600 parts from cold memos: the chain memo steps each missing prefix on
    # the one before, shortest first, so no step recurses on a deep chain.
    p, values = 5, [1]
    for _ in range(600):
        values = window_extend_loop(values, 1, p)
    assert any(values)
    assert oy_fmp(Index.ones(600), p) == PolyFp.of(p, values)


def test_deep_third_block_matches_the_loop_steps(fresh_memos):
    # A bridge with 600 parts in its third block, from cold memos: the chain
    # memo continues the product of the first two blocks one part at a time,
    # shortest first, as it steps a plain chain.
    p = 7
    got = oy_fmp_general(BlockTriple((1,), (1,), (1,) * 600), p)
    values = list((oy_fmp(Index.of(1), p) * oy_fmp(Index.of(1), p)).coeffs)
    for _ in range(600):
        values = window_extend_loop(values, 1, p)
    assert any(values)
    assert got == PolyFp.of(p, values)


def test_nonzero_bridge_value_at_multiple_of_p_is_refused(monkeypatch, fresh_memos):
    # A faulty step of a bridge's third block is caught as a chain's is: the
    # bridge's steps are entries of the chain memo.  Only the bridge step
    # has more than p outputs; the product before it takes no chain step.
    original = fmp._window_extend

    def faulty(values, k, p, size=None):
        out = original(values, k, p, size)
        if len(out) > p:
            out[p] = 1
        return out

    monkeypatch.setattr(fmp, "_window_extend", faulty)
    with pytest.raises(ValueError, match="nonzero chain value at a multiple of 7"):
        oy_fmp_general(BlockTriple((1,), (1,), (1,)), 7)


@pytest.mark.parametrize("p", [7, 13, 1621, 1627, 4099])
def test_ones_bridge_steps_match_kronecker(fresh_memos, p):
    # Each bridge (1)^r x (1) as one chain step on the next shorter, against
    # the dense product it replaces.  Called directly it runs at any prime; a
    # bridge start takes it from fmp._BRIDGE_STEP_MIN on (here 1621 lies
    # below, 1627 on it), and the product otherwise.
    l = oy_fmp(Index.of(1), p)
    for r in range(1, 7):
        expected = oy_fmp(Index.ones(r), p) * l
        assert PolyFp(p, fmp._ones_bridge(r, p)) == expected, r
        assert oy_fmp_general(BlockTriple((1,) * r, (1,), ()), p) == expected, r


def test_deep_ones_bridge_walks_shortest_first(fresh_memos, monkeypatch):
    # From cold memos, the bridge of (1)^600 x (1) reads its 599 shorter
    # bridges shortest first, so none recurses more than one level.
    p = 7
    monkeypatch.setattr(fmp, "_BRIDGE_STEP_MIN", p)
    got = oy_fmp_general(BlockTriple((1,) * 600, (1,), ()), p)
    assert got == oy_fmp(Index.ones(600), p) * oy_fmp(Index.of(1), p)


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
    first = zeta_variant(Index.of(1, 2), 1, p).value
    assert zeta_variant(Index.of(1, 2), 2, p) == Residue(-first % p, p)


@given(small_indices(max_weight=6), st.sampled_from([7, 11, 13, 17]))
@settings(max_examples=25)
def test_zeta_reflection_general(idx, p):
    expected = (-1) ** idx.weight * zeta_variant(idx, 1, p).value % p
    assert zeta_variant(idx, idx.depth, p) == Residue(expected, p)


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
