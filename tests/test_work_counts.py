"""How much work the all-ones identities do at one prime.

The shuffle lemma, the recurrence and the main theorem share their dense
products and chain steps through the memos: each product of the depth-(n-1)
and depth-1 polylogs is formed once, every chain extends its prefix's chain,
and each bridge of the recurrence is one chain step on a shorter bridge.
The main theorem follows from the shuffle lemma by the induction step, so it
forms no power of the depth-1 polylog, and the functional equation follows
from the main theorem and the Kontsevich residual, so it forms no power and
composes no polylog of depth above 1.  So do the depth-5 symmetry
difference of obstruction-n5 and the depth-3 and depth-4 differences of the
corollaries: each is a sum of shifted window terms, and composes only the
zero polynomial, on correct code.  The worked closed forms follow from
the main theorem too, and take the square of the depth-1 polylog from the
shuffle bridge, so they form no power of their own.  The oracle crosscheck
compares each chain once.  The strict-chain polylogs of prop42 and the
corollaries share their prefix- and suffix-sum passes through the head and
tail memos, and each distinct one is evaluated once per prime.  These
counts guard that sharing, which no result would reveal if it broke.  A full
12-identity sweep at one prime is counted too, so that a change to the sweep
or identity layers cannot add work unseen.
"""

import functools
import sys

import pytest

from fmplib import fmp, polyfp, ss
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
    seen = {
        "products": 0,
        "dense": 0,
        "steps": 0,
        "compositions": 0,
        "ss_star": 0,
        "passes": 0,
        "oracles": 0,
    }
    convolve, window_extend = polyfp._convolve, fmp._window_extend
    compose, ss_star = polyfp.compose_one_minus_t, ss.ss_star
    oracle = fmp.naive_reference_general

    def counted_convolve(a, b, p):
        # An operand with at most 6 nonzeros (perfbench's SPARSE_NNZ) makes
        # a sparse product, not a dense one.
        seen["products"] += 1
        if min(len(a) - a.count(0), len(b) - b.count(0)) > 6:
            seen["dense"] += 1
        return convolve(a, b, p)

    def counted_window_extend(values, k, p):
        seen["steps"] += 1
        return window_extend(values, k, p)

    def counted_compose(f):
        # Composing the zero polynomial returns at once, so it is no work.
        seen["compositions"] += not f.is_zero
        return compose(f)

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
    _wrap_everywhere(monkeypatch, ss_star, counted_misses(ss_star, "ss_star"))
    _wrap_everywhere(monkeypatch, oracle, counted_oracle)
    # The steps recurse through the module's names, so the patch counts them;
    # the empty prefix or suffix is no pass.
    nonempty = lambda parts, p: bool(parts)
    monkeypatch.setattr(ss, "_heads", counted_misses(ss._heads, "passes", nonempty))
    monkeypatch.setattr(ss, "_tails", counted_misses(ss._tails, "passes", nonempty))
    return seen


def _all_checked_pass(report):
    """Every outcome passes, but main-theorem n = 1, where nothing is checked."""
    for e in report.entries:
        for o in e.outcomes:
            if (e.identity, e.params) == ("main-theorem", {"n": 1}):
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
    # After the main theorem, the closed forms' one dense product is C_4 * L_1
    # in the Horner sum for C_5; L_1^2 is the shuffle bridge of M_2.
    run_sweep(RunConfig(lo=P, hi=P, identities=("main-theorem",)))
    dense = counts["dense"]
    report = run_sweep(RunConfig(lo=P, hi=P, identities=("closed-forms",)))
    _all_checked_pass(report)
    assert counts["dense"] - dense <= 1, counts


def test_symmetry_differences_compose_no_deep_polylog(counts):
    # With the memos of kontsevich (K) and main-theorem (M_n, f_n, g_n) warm,
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


def test_prop42_shares_strict_chain_passes(counts):
    # The 14 indices' conversions ask for 46 strict-chain polylogs, 28 of
    # them distinct, each evaluated once and built from 14 head and 6 tail
    # passes, each shared by every slot and index that has its prefix or
    # suffix.
    report = run_sweep(RunConfig(lo=P, hi=P, identities=("prop42",)))
    _all_checked_pass(report)
    assert counts["ss_star"] <= 28, counts
    assert counts["passes"] <= 20, counts


def test_full_sweep_at_one_prime(counts):
    # The bounds are the counts measured with the main theorem taken from the
    # shuffle lemma; the functional equation, the depth-5 symmetry difference
    # and the corollaries' differences from the main theorem and the
    # Kontsevich residual; each corollary's conversion evaluating each
    # distinct strict-chain polylog once; and the closed forms from the main
    # theorem's residual.  The one composition of a nonzero polynomial is the
    # depth-1 polylog's, for K.  Neither main-theorem n = 1 nor
    # oracle-crosscheck checks anything at this prime.
    report = run_sweep(RunConfig(lo=P, hi=P, identities=IDENTITY_IDS))
    checked = [
        (e.identity, e.params) for e in report.entries if e.outcomes[0].passed is not None
    ]
    assert len(checked) == 23
    assert ("main-theorem", {"n": 1}) not in checked
    assert ("oracle-crosscheck", {}) not in checked
    # The dense products are the four shuffle bridges, C_4 * L_1 in C_5 and
    # K's one Taylor shift.  The other three have an operand of two nonzero
    # coefficients, f_3 or C_3 = 2 f_3: f_3 * L_1 in the f_4 factorization,
    # f_3 * L_1^2 in the depth-5 closed form and C_3 * L_1 in C_4.  The error
    # terms, the residuals, the symmetry differences, the conversion and the
    # advertised closed forms are sums of shifted terms and form no product.
    assert counts["products"] <= 9, counts
    assert counts["dense"] <= 6, counts
    assert counts["steps"] <= 25, counts
    assert counts["compositions"] <= 1, counts
    # 77 strict-chain polylogs asked for, 32 of them distinct.
    assert counts["ss_star"] <= 32, counts
    # The corollaries add the head (1,1,1,1) and the tail (1,1,1) to prop42's.
    assert counts["passes"] <= 22, counts
