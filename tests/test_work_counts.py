"""How much work the all-ones identities do at one prime.

The shuffle lemma, the recurrence and the main theorem share their dense
products and chain steps through the memos: each product of the depth-(n-1)
and depth-1 polylogs is formed once, every chain extends its prefix's chain,
and each bridge of the recurrence is one chain step on a shorter bridge.
The main theorem follows from the shuffle lemma by the induction step, and
the correction sums are evaluated by Horner, so neither forms a power of the
depth-1 polylog.  The oracle crosscheck compares each chain once.  These
counts guard that sharing, which no result would reveal if it broke.  A full
12-identity sweep at one prime is counted too, so that a change to the sweep
or identity layers cannot add work unseen.
"""

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
def counts(monkeypatch):
    for module in _fmplib_modules():
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    seen = {"dense": 0, "steps": 0, "compositions": 0, "ss_star": 0, "oracles": 0}
    convolve, window_extend = polyfp._convolve, fmp._window_extend
    compose, ss_star = polyfp.compose_one_minus_t, ss.ss_star
    oracle = fmp.naive_reference_general

    def counted_convolve(a, b, p):
        # An operand with few nonzeros is shift-and-add, not a dense product.
        if min(len(a) - a.count(0), len(b) - b.count(0)) > polyfp._SPARSE_NONZEROS:
            seen["dense"] += 1
        return convolve(a, b, p)

    def counted_window_extend(values, k, p):
        seen["steps"] += 1
        return window_extend(values, k, p)

    def counted_compose(f):
        seen["compositions"] += 1
        return compose(f)

    def counted_ss_star(index, slot, p):
        seen["ss_star"] += 1
        return ss_star(index, slot, p)

    def counted_oracle(blocks, p):
        seen["oracles"] += 1
        return oracle(blocks, p)

    _wrap_everywhere(monkeypatch, convolve, counted_convolve)
    _wrap_everywhere(monkeypatch, window_extend, counted_window_extend)
    _wrap_everywhere(monkeypatch, compose, counted_compose)
    _wrap_everywhere(monkeypatch, ss_star, counted_ss_star)
    _wrap_everywhere(monkeypatch, oracle, counted_oracle)
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
    assert counts["dense"] <= 4, counts
    assert counts["steps"] <= 14, counts


def test_main_theorem_forms_only_the_shuffle_products(counts):
    report = run_sweep(RunConfig(lo=P, hi=P, identities=("main-theorem",)))
    _all_checked_pass(report)
    assert counts["dense"] <= 4, counts


def test_functional_eq_forms_no_power_of_depth1(counts):
    # The correction sums are Horner in the depth-1 polylog, so no power of it
    # is formed.
    report = run_sweep(RunConfig(lo=P, hi=P, identities=("functional-eq",)))
    assert all(o.passed is True for e in report.entries for o in e.outcomes)
    assert counts["dense"] <= 10, counts


def test_crosscheck_runs_each_loop_oracle_once(counts):
    # 42 distinct chains (the 30 of weight <= 5 and depth <= 4, and 12
    # heavier ones in parts 1 and 2) plus the 124 three-block triples with
    # both outer blocks nonempty.
    report = run_sweep(RunConfig(lo=7, hi=7, identities=("oracle-crosscheck",)))
    assert report.entries[0].outcomes[0].passed is True
    assert counts["oracles"] <= 166, counts


def test_full_sweep_at_one_prime(counts):
    # The bounds are the counts measured with the main theorem taken from the
    # shuffle lemma, each corollary as one composition of the conversion of
    # the all-ones index (each distinct strict-chain polylog evaluated once)
    # and the correction sums by Horner.  The 4 powers of the depth-1 polylog
    # that closed-forms forms, and the Horner steps of functional-eq's
    # correction sums, are left.  Neither main-theorem n = 1 nor
    # oracle-crosscheck checks anything at this prime.
    report = run_sweep(RunConfig(lo=P, hi=P, identities=IDENTITY_IDS))
    checked = [
        (e.identity, e.params) for e in report.entries if e.outcomes[0].passed is not None
    ]
    assert len(checked) == 23
    assert ("main-theorem", {"n": 1}) not in checked
    assert ("oracle-crosscheck", {}) not in checked
    assert counts["dense"] <= 31, counts
    assert counts["steps"] <= 25, counts
    assert counts["compositions"] <= 8, counts
    assert counts["ss_star"] <= 62, counts
