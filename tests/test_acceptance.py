"""Acceptance gate: every criterion at its stated range, exact equality.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion clause.  All checks are exact (zero tolerance) since the whole
library is exact arithmetic.

Every clause is expected to pass.  The depth-5 clauses (criterion 5b, 5c
and 6d) check the laws that the library and independent brute force agree on
under the definitions in the README:

    zeta^(i)(1,1,1,2) = B_{p-5} * (1, -2, 2, -1)_i  (mod p),  i = 1..4, and
    the depth-5 all-ones polylog is t <-> 1-t symmetric,

at every prime in 7..199.  A nested-loop sum written without fmplib, with
exact rational Bernoulli numbers and a binomial-expansion composition, gives
the window slices [6,2,5,1] at p = 7, [5,1,10,6] at 11, [3,7,6,10] at 13 and
[4,9,8,13] at 17, and a zero symmetry difference at 7, 11 and 13.  The
symmetry follows from the window law: in the depth-5 closed form (checked by
the closed-forms sweep) every term is built from the symmetric depth-1
polylog, T(1-T) with T = t^p, and the window polynomial of (1,1,1,2), which
is B_{p-5} T(1-T)(1-T+T^2) and so is fixed by T -> 1-T too.  The advertised
depth-5 defect (B_{p-5}/5) t^p (1-t^p)(2t^p-1) is therefore off by exactly
itself; it vanishes only where B_{p-5} = 0 (mod p), which in range is p = 37,
the irregular pair (37, 32).  The obstruction-n5 and zeta-vanishing sweeps
still check the advertised statements and report the other primes as
exceptional.
"""

import json
import math
import random

from fmplib.fmp import (
    Index,
    all_indices,
    naive_reference,
    naive_reference_general,
    oy_fmp,
    oy_fmp_general,
    zeta_variant,
)
from fmplib.identities import (
    depth5_symmetry_difference,
    functional_eq_residual,
    main_theorem_residual,
    obstruction_n5_closed_form,
    obstruction_n5_residual,
    ones_fmp,
    recurrence_residual,
    shuffle_lemma_residual,
)
from fmplib.modular import bernoulli_mod, primes_in
from fmplib.polyfp import PolyFp, compose_one_minus_t
from fmplib.ss import (
    corollary_depth3_residual,
    corollary_depth4_residual,
    oy_from_ss,
    ss_star,
    ss_star_reference,
)
from fmplib.sweep import RunConfig, _block_triples, run_sweep

P_MAX = 199


def _line(clause: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {clause}: {status}{suffix}")


# --- criterion 1: oracle equivalence -----------------------------------------


def test_c1_oracle_equivalence():
    failures = []
    for p in primes_in(5, 13):
        for idx in all_indices(5, 4):
            if oy_fmp(idx, p) != naive_reference(idx, p):
                failures.append(("window-dp", p, str(idx)))
        for idx in all_indices(5, 3):
            for slot in range(1, idx.depth + 1):
                if ss_star(idx, slot, p) != ss_star_reference(idx, slot, p):
                    failures.append(("strict-chain-dp", p, str(idx), slot))
    for p in primes_in(5, 7):
        for blocks in _block_triples(4):
            if oy_fmp_general(blocks, p) != naive_reference_general(blocks, p):
                failures.append(("three-block-dp", p, blocks))
    ok = not failures
    _line("criterion 1: DP equals nested-loop oracles", ok, "exact, primes <= 13")
    assert ok, failures[:5]


# --- criterion 2: depth-1 symmetry --------------------------------------------


def test_c2_depth1_symmetry():
    bad = []
    for p in primes_in(5, P_MAX):
        f = ones_fmp(1, p)
        if compose_one_minus_t(f) != f:
            bad.append(p)
    _line("criterion 2: depth-1 polylog symmetric under t -> 1-t", not bad, "5..199")
    assert not bad, bad


# --- criterion 3: the factorial formula ----------------------------------------


def test_c3_main_identity():
    bad = []
    below_floor = []
    for n in range(1, 6):
        floor = max(7, n + 2)
        for p in primes_in(floor, P_MAX):
            if not main_theorem_residual(n, p).is_zero:
                bad.append((n, p))
        for p in primes_in(5, floor - 1):
            if p > n and not main_theorem_residual(n, p).is_zero:
                below_floor.append((n, p))
    _line(
        "criterion 3: factorial formula, n = 1..5",
        not bad,
        f"primes to 199; exceptional below floor: {below_floor or 'none'}",
    )
    assert not bad, bad


# --- criterion 4: shuffle lemma and recurrence ----------------------------------


def test_c4_shuffle_and_recurrence():
    bad = []
    for n in range(1, 6):
        for p in primes_in(max(7, n + 2), P_MAX):
            if not shuffle_lemma_residual(n, p).is_zero:
                bad.append(("shuffle", n, p))
    for n in range(2, 5):
        for p in primes_in(7, 31):
            total = PolyFp.zero(p)
            for k in range(n - 1):
                r = recurrence_residual(n, k, p)
                if not r.is_zero:
                    bad.append(("recurrence", n, k, p))
                total = total + r
            if total != shuffle_lemma_residual(n, p):
                bad.append(("telescoping", n, p))
    _line(
        "criterion 4: shuffle lemma (n <= 5, p <= 199), recurrence and "
        "telescoping (n <= 4, p <= 31)",
        not bad,
    )
    assert not bad, bad


# --- criterion 5: functional equations -------------------------------------------


def test_c5_functional_equations_low_depth():
    bad = []
    for n in range(1, 5):
        for p in primes_in(7, P_MAX):
            if not functional_eq_residual(n, p).is_zero:
                bad.append((n, p))
    _line("criterion 5a: symmetrized combination invariant, n <= 4", not bad, "7..199")
    assert not bad, bad


def _compose_binomial(f: PolyFp) -> PolyFp:
    """f(1-t) by exact binomial expansion, independent of compose_one_minus_t."""
    out = [0] * len(f.coeffs)
    for i, c in enumerate(f.coeffs):
        if c:
            for j in range(i + 1):
                out[j] = (out[j] + c * math.comb(i, j) * (-1) ** j) % f.p
    return PolyFp.of(f.p, out)


def test_c5_obstruction_closed_form():
    bad = []
    for p in primes_in(7, P_MAX):
        b = bernoulli_mod(p - 5, p).value
        c = b * pow(5, p - 2, p)
        # (b/5) T (1-T)(2T-1) = (b/5)(-T + 3T^2 - 2T^3) with T = t^p
        advertised = PolyFp.of(p, [0] * p + [-c] + [0] * (p - 1) + [3 * c]
                               + [0] * (p - 1) + [-2 * c])
        if not depth5_symmetry_difference(p).is_zero:
            bad.append(("difference", p))
        if obstruction_n5_closed_form(b, p) != advertised:
            bad.append(("advertised", p))
        if obstruction_n5_residual(p) != -advertised:
            bad.append(("residual", p))
    ok = not bad
    _line(
        "criterion 5b: depth-5 defect is the zero polynomial; the advertised "
        "(B_{p-5}/5) t^p (1-t^p)(2t^p-1) is off by exactly itself",
        ok,
        "7..199",
    )
    assert ok, bad[:8]


def test_c5_obstruction_witness():
    bad = []
    for p in (7, 11):
        five = ones_fmp(5, p)
        if five.is_zero or five != naive_reference(Index.ones(5), p):
            bad.append(("polylog", p))
        # five is symmetric, so t * five (not symmetric, same block count) is
        # what catches a composition that returns its input unchanged
        for f in (five, five.shifted(1)):
            if compose_one_minus_t(f) != _compose_binomial(f):
                bad.append(("composition", p, len(f.coeffs) - 1))
    witnesses = [
        p for p in primes_in(7, P_MAX) if not depth5_symmetry_difference(p).is_zero
    ]
    ok = not bad and not witnesses
    _line(
        "criterion 5c: no prime witnesses a depth-5 symmetry failure",
        ok,
        "7..199; polylog and composition cross-checked by brute force at 7, 11",
    )
    assert ok, (bad, witnesses[:8])


# --- criterion 6: zeta-value facts -------------------------------------------------


def test_c6_repeated_index_vanishing():
    bad = []
    for k in range(1, 7):
        for r in range(1, 7):
            if k * r <= 6:
                for p in primes_in(k * r + 2, P_MAX):
                    if zeta_variant(Index((k,) * r), 1, p).value:
                        bad.append((k, r, p))
    _line("criterion 6a: repeated indices vanish beyond floor k*r + 2", not bad)
    assert not bad, bad


def test_c6_weight4_vanishing():
    bad = []
    w4 = [i for i in all_indices(4, 4) if i.weight == 4]
    for p in primes_in(11, P_MAX):
        for idx in w4:
            if zeta_variant(idx, 1, p).value:
                bad.append((str(idx), p))
    _line("criterion 6b: all weight-4 indices vanish", not bad, "11..199")
    assert not bad, bad


def test_c6_bernoulli_congruence():
    bad = [
        p
        for p in primes_in(7, P_MAX)
        if zeta_variant(Index.of(1, 1, 1, 2), 1, p) != bernoulli_mod(p - 5, p)
    ]
    _line("criterion 6c: zeta(1,1,1,2) = B_{p-5}", not bad, "7..199")
    assert not bad, bad


def test_c6_window2_vanishing():
    law = (1, -2, 2, -1)
    idx = Index.of(1, 1, 1, 2)
    bad = []
    for p in primes_in(7, P_MAX):
        b = bernoulli_mod(p - 5, p).value
        expected = [b * s % p for s in law]
        windows = [zeta_variant(idx, i, p).value for i in range(1, 5)]
        if windows != expected:
            bad.append((p, windows, expected))
        if p <= 13:
            coeffs = naive_reference(idx, p).coeffs
            brute = [sum(coeffs[(i - 1) * p + 1 : i * p]) % p for i in range(1, 5)]
            if brute != expected:
                bad.append(("nested loops", p, brute, expected))
    ok = not bad
    _line(
        "criterion 6d: window slices of (1,1,1,2) are B_{p-5} * (1,-2,2,-1), "
        "so window 2 is -2 B_{p-5}",
        ok,
        "7..199; nested loops at 7, 11, 13",
    )
    assert ok, bad[:5]


def test_c6_reflection_relation():
    rng = random.Random(20260810)
    sample = rng.sample(all_indices(6, 6), 12)
    bad = []
    for idx in sample:
        for p in (7, 11, 13, 17, 23):
            lhs = zeta_variant(idx, idx.depth, p).value
            expected = (-1) ** idx.weight * zeta_variant(idx, 1, p).value % p
            if lhs != expected:
                bad.append((str(idx), p))
    _line("criterion 6e: last window = (-1)^weight * first window", not bad)
    assert not bad, bad


# --- criterion 7: conversion and the transcribed corollaries -------------------------


def test_c7_conversion_and_corollaries():
    bad = []
    for p in primes_in(5, 31):
        for idx in all_indices(4, 3):
            if oy_from_ss(idx, p) != oy_fmp(idx, p):
                bad.append(("conversion", str(idx), p))
    for p in primes_in(7, 31):
        if not corollary_depth3_residual(p).is_zero:
            bad.append(("corollary-d3", p))
        if not corollary_depth4_residual(p).is_zero:
            bad.append(("corollary-d4", p))
    _line(
        "criterion 7: conversion (depth <= 3, weight <= 4, 5..31) and both "
        "corollaries (7..31)",
        not bad,
    )
    assert not bad, bad


# --- criterion 8: determinism ---------------------------------------------------------


def test_c8_deterministic_reports():
    identities = (
        "kontsevich",
        "shuffle-lemma",
        "recurrence",
        "main-theorem",
        "functional-eq",
        "obstruction-n5",
        "closed-forms",
        "zeta-vanishing",
        "prop42",
        "corollary-d3",
        "corollary-d4",
        "oracle-crosscheck",
    )
    reports = []
    for workers in (1, 2):
        rep = run_sweep(RunConfig(lo=7, hi=31, identities=identities, workers=workers))
        d = rep.to_dict()
        d.pop("timing")
        reports.append(json.dumps(d, sort_keys=True))
    ok = reports[0] == reports[1]
    _line("criterion 8: reports byte-identical across worker counts", ok)
    assert ok
