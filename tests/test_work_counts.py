"""How much work the all-ones identities do at one prime.

The shuffle lemma, the recurrence and the main theorem share their dense
products and chain steps through the memos: each product of the depth-(n-1)
and depth-1 polylogs is formed once, every chain extends its prefix's chain,
and each bridge of the recurrence is one chain step on a shorter bridge.
The main theorem follows from the shuffle lemma by the induction step, so it
forms no power of the depth-1 polylog, and the functional equation follows
from the main theorem and the Kontsevich residual, so it forms no power and
composes no polylog of depth above 1.  The depth-5 symmetry difference of
obstruction-n5 and the depth-3 and depth-4 differences of the corollaries
follow from the shuffle lemma's own induction step and the Kontsevich
residual: each is a sum of shifted window terms, and composes only the
zero polynomial, on correct code.  The shuffle residual is memoized, so
each depth's is evaluated once and shared by the shuffle-lemma check, the
main theorem and the differences.  The worked closed forms take the main
theorem's induction step on their own residuals: each of their products has
a residual of lower depth or the defect of f_3 as an operand, zero on
correct code, and the square of the depth-1 polylog is the shuffle bridge,
so after the main theorem they form no product.  The oracle crosscheck
compares each chain once.  The strict-chain polylogs of prop42 and the
corollaries share their prefix-sum passes through the head memo, each
distinct one is evaluated once per prime, a polylog at its index's last
slot is the heads of the whole index, slot 1 is mirrored from the last slot
of the reversed index, and only an interior slot forms a product, its tail
read from the heads of its reversed suffix; of each reversed interior pair
one is formed and the other mirrored from it.  These counts guard that
sharing, which no result would reveal if it broke.  A full
12-identity sweep at one prime is counted too, so that a change to the sweep
or identity layers cannot add work unseen; it computes B_{p-5} once.  Every
polynomial sum takes its terms as stored 'I' vectors, so no sum reduces and
stages a term again.
"""

import functools
import sys
from array import array

import pytest

from fmplib import fmp, identities, modular, polyfp, ss
from fmplib.polyfp import PolyFp
from fmplib.sweep import IDENTITY_IDS, RunConfig, run_sweep

P = 101


def _fmplib_modules():
    return [m for name, m in sys.modules.items() if name.startswith("fmplib.")]


def _wrap_everywhere(monkeypatch, original, wrapper):
    """Replace original by wrapper in every fmplib module that bound it."""
    for module in _fmplib_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, wrapper)


@pytest.fixture
def counts(fresh_memos, monkeypatch):
    """Work done from cold memos, by kind.  For the strict-chain polylogs:
    ss_star's misses, those mirrored from a reversed partner, those read as
    the heads of their whole index (last slot), and the head passes, one
    per head memo miss; the rest of the misses are products
    (_strict_products)."""
    seen = {
        "products": 0,
        "dense": 0,
        "steps": 0,
        "compositions": 0,
        "ss_star": 0,
        "mirrored": 0,
        "heads_reads": 0,
        "passes": 0,
        "oracles": 0,
        "shuffle_residuals": 0,
        "bernoulli": 0,
    }
    convolve, window_extend = polyfp._convolve, fmp._window_extend
    compose, ss_star = polyfp.compose_one_minus_t, ss.ss_star
    oracle = fmp.naive_reference_general
    shuffle_residual, bernoulli = identities.shuffle_lemma_residual, modular.bernoulli_mod
    mirrored = ss._mirrored

    def counted_convolve(a, b, p):
        # An operand with at most 6 nonzeros (perfbench's SPARSE_NNZ) makes
        # a sparse product, not a dense one.
        seen["products"] += 1
        if min(len(a) - a.count(0), len(b) - b.count(0)) > 6:
            seen["dense"] += 1
        return convolve(a, b, p)

    def counted_window_extend(values, k, p, size=None):
        seen["steps"] += 1
        return window_extend(values, k, p, size)

    def counted_compose(f):
        # Composing the zero polynomial returns at once, so it is no work.
        seen["compositions"] += not f.is_zero
        return compose(f)

    def counted_mirrored(f, odd):
        # A strict-chain polylog read from its reversed partner forms no
        # product; the other misses of ss_star form one each.
        seen["mirrored"] += 1
        return mirrored(f, odd)

    def counted_heads_read(index, slot, p):
        # A key at its index's last slot is the heads of the whole index:
        # no product.  Every ss_star miss counts once.
        seen["heads_reads"] += slot == index.depth
        return True

    def counted_oracle(blocks, p):
        seen["oracles"] += 1
        return oracle(blocks, p)

    def counted_misses(memo, key, work=lambda *args: True):
        # A fresh memo of the same size around a counting evaluation, so an
        # evaluation is counted once per miss, not once per call.
        evaluate = memo.__wrapped__

        def counted(*args):
            seen[key] += work(*args)
            return evaluate(*args)

        return functools.lru_cache(**memo.cache_parameters())(counted)

    _wrap_everywhere(monkeypatch, convolve, counted_convolve)
    _wrap_everywhere(monkeypatch, window_extend, counted_window_extend)
    _wrap_everywhere(monkeypatch, compose, counted_compose)
    _wrap_everywhere(
        monkeypatch, ss_star, counted_misses(ss_star, "ss_star", counted_heads_read)
    )
    _wrap_everywhere(monkeypatch, oracle, counted_oracle)
    _wrap_everywhere(
        monkeypatch, shuffle_residual, counted_misses(shuffle_residual, "shuffle_residuals")
    )
    _wrap_everywhere(monkeypatch, bernoulli, counted_misses(bernoulli, "bernoulli"))
    monkeypatch.setattr(ss, "_mirrored", counted_mirrored)
    # The passes recurse through the module's names, so the patch counts them;
    # a one-part head is its power table, read without the memo: no pass.
    monkeypatch.setattr(ss, "_heads", counted_misses(ss._heads, "passes"))
    return seen


def _all_checked_pass(report):
    """Every outcome passes, but main-theorem and shuffle-lemma n = 1, where
    nothing is checked."""
    for e in report.entries:
        for o in e.outcomes:
            if e.identity in ("main-theorem", "shuffle-lemma") and e.params == {"n": 1}:
                assert o.passed is None and o.note, o
            else:
                assert o.passed is True, (e.identity, e.params, o)


def test_all_ones_identities_share_products_and_chain_steps(counts):
    ids = ("shuffle-lemma", "recurrence", "main-theorem")
    report = run_sweep(RunConfig(lo=P, hi=P, identities=ids))
    assert report.ok
    _all_checked_pass(report)
    # f_n, g_n and the residuals are sums of shifted terms: the only products
    # are the four dense bridges.
    assert counts["products"] == counts["dense"] <= 4, counts
    assert counts["steps"] <= 14, counts


def test_all_ones_identities_form_no_product_above_the_bridge_step(counts):
    # From fmp._BRIDGE_STEP_MIN on each bridge (1)^r x (1) is a chain step on
    # the next shorter bridge, and M_{n-1} * L_1 in the main theorem has a
    # zero operand: no product at all.
    p = fmp._BRIDGE_STEP_MIN
    ids = ("shuffle-lemma", "recurrence", "main-theorem")
    report = run_sweep(RunConfig(lo=p, hi=p, identities=ids))
    _all_checked_pass(report)
    assert counts["products"] == 0, counts


def test_main_theorem_forms_only_the_shuffle_products(counts):
    report = run_sweep(RunConfig(lo=P, hi=P, identities=("main-theorem",)))
    _all_checked_pass(report)
    assert counts["dense"] <= 4, counts


def test_functional_eq_forms_no_power_of_depth1(counts):
    # One composition of the depth-1 polylog (the Kontsevich residual K) and
    # the three shuffle bridges of M_2..M_4.  K and every M_n are zero, so the
    # difference of powers multiplies by zero and M_n(1-t) composes zero.
    report = run_sweep(RunConfig(lo=P, hi=P, identities=("functional-eq",)))
    assert all(o.passed is True for e in report.entries for o in e.outcomes)
    assert counts["products"] == counts["dense"] <= 4, counts


def test_closed_forms_forms_no_power_of_depth1(counts):
    # After the main theorem the shuffle residuals, f_n, g_n and the bridge
    # L_1^2 of S_2 are memoized, and every product of the closed forms has a
    # zero operand: a residual of lower depth, or f_3 - 3 X_3.
    run_sweep(RunConfig(lo=P, hi=P, identities=("main-theorem",)))
    products = counts["products"]
    report = run_sweep(RunConfig(lo=P, hi=P, identities=("closed-forms",)))
    _all_checked_pass(report)
    assert counts["products"] == products, counts


def test_symmetry_differences_compose_no_deep_polylog(counts):
    # With the memos of kontsevich (K) and main-theorem (S_n, f_n, g_n) warm,
    # every piece of the depth-3 to 5 differences is zero or a window slice:
    # no product, dense or not, and no composition of a nonzero polynomial.
    run_sweep(RunConfig(lo=P, hi=P, identities=("kontsevich", "main-theorem")))
    assert counts["compositions"] == 1, counts
    before = dict(counts)
    ids = ("obstruction-n5", "corollary-d3", "corollary-d4")
    report = run_sweep(RunConfig(lo=P, hi=P, identities=ids))
    # B_{p-5} is nonzero at 101, so obstruction-n5 fails there by design.
    assert [e.outcomes[0].passed for e in report.entries] == [False, True, True]
    assert counts["products"] == before["products"], counts
    assert counts["dense"] == before["dense"], counts
    assert counts["compositions"] == before["compositions"], counts


def test_crosscheck_runs_each_loop_oracle_once(counts):
    # 42 distinct chains (the 30 of weight <= 5 and depth <= 4, and 12
    # heavier ones in parts 1 and 2) plus the 124 three-block triples with
    # both outer blocks nonempty.
    report = run_sweep(RunConfig(lo=7, hi=7, identities=("oracle-crosscheck",)))
    assert report.entries[0].outcomes[0].passed is True
    assert counts["oracles"] <= 166, counts


def _strict_products(counts):
    """Strict-chain polylogs formed as a product: the misses of ss_star that
    are neither mirrored from a partner nor a heads read at the last slot."""
    return counts["ss_star"] - counts["mirrored"] - counts["heads_reads"]


def test_prop42_shares_strict_chain_passes(counts):
    # The 14 indices' conversions ask for 46 strict-chain polylogs, 28 of
    # them distinct, each evaluated once.  14 sit at their index's last slot
    # and are heads vectors, 11 are mirrored from a reversed partner (every
    # slot 1 of depth 2 or more from the last slot of its reverse), and only
    # 3, at interior slots, form a product.  The heads take 10 passes, each
    # shared by every slot and index that has its prefix or its reversed
    # suffix; a one-part head is its power table and takes none.
    report = run_sweep(RunConfig(lo=P, hi=P, identities=("prop42",)))
    _all_checked_pass(report)
    assert counts["ss_star"] <= 28, counts
    assert _strict_products(counts) <= 3, counts
    assert counts["passes"] <= 10, counts
    assert counts["passes"] + _strict_products(counts) <= 13, counts


def test_full_sweep_at_one_prime(counts):
    # The bounds are the counts measured with the main theorem taken from the
    # shuffle lemma; the functional equation from the main theorem and the
    # Kontsevich residual; the depth-5 symmetry difference and the
    # corollaries' differences from the shuffle lemma and the Kontsevich
    # residual; each corollary's conversion evaluating each
    # distinct strict-chain polylog once; and the closed forms from the main
    # theorem's residual.  The one composition of a nonzero polynomial is the
    # depth-1 polylog's, for K.  Neither main-theorem n = 1, shuffle-lemma
    # n = 1 nor oracle-crosscheck checks anything at this prime.
    report = run_sweep(RunConfig(lo=P, hi=P, identities=IDENTITY_IDS))
    checked = [
        (e.identity, e.params) for e in report.entries if e.outcomes[0].passed is not None
    ]
    assert len(checked) == 22
    assert ("main-theorem", {"n": 1}) not in checked
    assert ("shuffle-lemma", {"n": 1}) not in checked
    assert ("oracle-crosscheck", {}) not in checked
    # The products are the four shuffle bridges and K's one Taylor shift, all
    # dense.  The error terms, the residuals, the symmetry differences, the
    # conversion and the advertised closed forms are sums of shifted terms,
    # and every other product has a zero operand, so it forms nothing.
    assert counts["products"] <= 5, counts
    assert counts["dense"] <= 5, counts
    assert counts["steps"] <= 25, counts
    assert counts["compositions"] <= 1, counts
    # One shuffle residual per depth 1..5, shared by shuffle-lemma, the main
    # theorem's induction and the symmetry differences.
    assert counts["shuffle_residuals"] == 5, counts
    # 77 strict-chain polylogs asked for, 32 of them distinct: 15 heads
    # reads, 13 mirrored from a reversed partner and 4 products.  The
    # corollaries add the heads of (1,1,1) to prop42's passes.
    assert counts["ss_star"] <= 32, counts
    assert _strict_products(counts) <= 4, counts
    assert counts["passes"] <= 11, counts
    assert counts["passes"] + _strict_products(counts) <= 15, counts
    # obstruction-n5 and zeta-vanishing share one B_{p-5}.
    assert counts["bernoulli"] == 1, counts


def test_full_sweep_at_the_bridge_step_forms_one_product(counts):
    # From fmp._BRIDGE_STEP_MIN on the shuffle bridges, L_1^2 among them, are
    # chain steps, so the one product left is K's Taylor shift.
    p = fmp._BRIDGE_STEP_MIN
    run_sweep(RunConfig(lo=p, hi=p, identities=IDENTITY_IDS))
    assert counts["products"] == counts["dense"] == 1, counts
    assert counts["compositions"] == counts["bernoulli"] == 1, counts


def test_error_terms_are_summed_in_place(fresh_memos, monkeypatch):
    # At fmp._BRIDGE_STEP_MIN every sum of these identities is zero on
    # correct code but the four bridge steps' c_{r-1} + a_r, and a zero sum
    # is recognised without unpacking.  f_n and g_n enter each residual as
    # their terms, so no sum of them alone is unpacked.
    residues, callers = polyfp._residues, []

    def recorded(*args):
        callers.append(sys._getframe(2).f_code.co_name)  # past _shift_add
        return residues(*args)

    monkeypatch.setattr(polyfp, "_residues", recorded)
    p = fmp._BRIDGE_STEP_MIN
    ids = ("shuffle-lemma", "recurrence", "main-theorem", "closed-forms", "prop42")
    _all_checked_pass(run_sweep(RunConfig(lo=p, hi=p, identities=ids)))
    assert callers == ["_ones_bridge"] * 4, callers


# Each symmetry difference run alone from cold memos: the shuffle bridges
# of S_2..S_n, K's one Taylor shift, the chain steps those need (a depth-1
# chain is its power table and takes none) and one shuffle residual per
# depth; the corollaries add their conversions' strict-chain polylogs:
# corollary-d3's 5 are 2 heads reads, 2 mirrored and 1 product on 3 passes,
# corollary-d4's 15 are 5 heads reads, 7 mirrored and 3 products on 9
# passes.  No deep polylog is composed.
_ALONE = {
    "obstruction-n5": dict(products=5, dense=5, steps=9, compositions=1, shuffle_residuals=5),
    "corollary-d3": dict(
        products=3,
        dense=3,
        steps=3,
        compositions=1,
        shuffle_residuals=3,
        ss_star=5,
        mirrored=2,
        heads_reads=2,
        passes=3,
    ),
    "corollary-d4": dict(
        products=4,
        dense=4,
        steps=6,
        compositions=1,
        shuffle_residuals=4,
        ss_star=15,
        mirrored=7,
        heads_reads=5,
        passes=9,
    ),
}


@pytest.mark.parametrize("identity", list(_ALONE))
def test_symmetry_difference_alone_from_cold_memos(counts, identity):
    report = run_sweep(RunConfig(lo=P, hi=P, identities=(identity,)))
    # B_{p-5} is nonzero at 101, so obstruction-n5 fails there by design.
    assert report.entries[0].outcomes[0].passed is (identity != "obstruction-n5")
    assert {key: counts[key] for key in _ALONE[identity]} == _ALONE[identity], counts


def test_every_sum_term_is_a_stored_vector(fresh_memos, monkeypatch):
    # A term that is not an 'I' array is reduced and staged again by every
    # sum that takes it.  The full sweep covers sum_of and K's composition;
    # a three-block composition runs the Horner step three times.
    shift_add, sums = polyfp._shift_add, []

    def recorded(terms, p):
        terms = list(terms)
        sums.append([type(f) is array and f.typecode == "I" for _, _, f in terms])
        return shift_add(terms, p)

    _wrap_everywhere(monkeypatch, shift_add, recorded)
    run_sweep(RunConfig(lo=P, hi=P, identities=IDENTITY_IDS))
    assert sums and all(all(stored) for stored in sums), sums
    sums.clear()
    polyfp.compose_one_minus_t(PolyFp.of(P, range(1, 2 * P + 5)))
    assert sums == [[True] * 3] * 3, sums


@pytest.mark.parametrize("p", [101, 1051])
def test_half_path_exactly_above_the_gate(fresh_memos, monkeypatch, p):
    # In a full sweep every chain step from fmp._HALF_MIN outputs on, and
    # every bridge product above it with an operand longer than the half h
    # it would form, takes the half path (forms its lower half and reflects
    # it), and no other does: the bridge of depths (1, 1) is short at every
    # prime.  All inputs of correct code reflect, so a reflection check that
    # always failed would show here.  Each check reflects its input once, so
    # the halves are the reflections beyond the checks.
    extend, product = fmp._extend, fmp._product
    reflects, reflected = fmp._reflects, fmp._reflected
    seen = {"below": 0, "short": 0, "above": 0, "checks": 0, "failed": 0, "reflections": 0}

    def counted_extend(values, parts, k, p):
        seen["above" if len(values) + p - 1 >= fmp._HALF_MIN else "below"] += 1
        return extend(values, parts, k, p)

    def counted_product(a, b, first, second):
        h = (len(first) + len(second)) * a.p // 2 + 1
        if len(a.coeffs) + len(b.coeffs) <= fmp._HALF_MIN:
            seen["below"] += 1
        else:
            seen["above" if max(len(a.coeffs), len(b.coeffs)) > h else "short"] += 1
        return product(a, b, first, second)

    def counted_reflects(v, parts, p):
        seen["checks"] += 1
        ok = reflects(v, parts, p)
        seen["failed"] += not ok
        return ok

    def counted_reflected(low, parts, p):
        seen["reflections"] += 1
        return reflected(low, parts, p)

    monkeypatch.setattr(fmp, "_extend", counted_extend)
    monkeypatch.setattr(fmp, "_product", counted_product)
    monkeypatch.setattr(fmp, "_reflects", counted_reflects)
    monkeypatch.setattr(fmp, "_reflected", counted_reflected)
    run_sweep(RunConfig(lo=p, hi=p, identities=IDENTITY_IDS))
    halves = seen["reflections"] - seen["checks"]
    if p < fmp._HALF_MIN:
        assert seen["below"] > 0 and seen["above"] == seen["reflections"] == 0, seen
    else:
        assert seen["below"] == seen["failed"] == 0 and seen["short"] > 0, seen
        assert seen["above"] == halves > 0, seen
