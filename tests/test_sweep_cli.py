"""Sweep driver, report plumbing, and the command-line interface."""

import argparse
import concurrent.futures
import dataclasses
import hashlib
import importlib.util
import itertools
import json
import os
import pathlib
import tracemalloc

import pytest

from fmplib import cli, fmp, sweep
from fmplib.cli import main, parse_index, parse_n_values, parse_prime_range
from fmplib.fmp import BlockTriple, Index
from fmplib.modular import primes_in
from fmplib.polyfp import PolyFp
from fmplib.sweep import (
    IDENTITY_IDS,
    IdentityEntry,
    PrimeOutcome,
    RunConfig,
    SweepReport,
    merge_reports,
    run_sweep,
    skip_reason,
)


def _stripped(report: SweepReport) -> str:
    d = report.to_dict()
    d.pop("timing")
    return json.dumps(d, sort_keys=True)


# --- config -------------------------------------------------------------------


def test_runconfig_validation(monkeypatch):
    with pytest.raises(ValueError):
        RunConfig(lo=31, hi=7, identities=("kontsevich",))
    with pytest.raises(ValueError):
        RunConfig(lo=5, hi=7, identities=("unknown-identity",))
    with pytest.raises(ValueError):
        RunConfig(lo=5, hi=7, identities=("kontsevich",), floor=3)
    with pytest.raises(ValueError):
        RunConfig(lo=5, hi=7, identities=("kontsevich",), workers=0)
    with pytest.raises(ValueError, match="identity kontsevich takes no depth n"):
        RunConfig(lo=5, hi=7, identities=("main-theorem", "kontsevich"), depths=(3,))
    with pytest.raises(ValueError, match=r"depths must be >= 1, got \(0, 1\)"):
        RunConfig(lo=5, hi=7, identities=("shuffle-lemma",), depths=(0, 1))
    with pytest.raises(ValueError, match="a floor applies to one identity, not 2"):
        RunConfig(lo=5, hi=7, identities=("kontsevich", "main-theorem"), floor=11)
    # Nothing selected, or one identity or depth twice, would report an
    # empty or a doubled sweep.
    with pytest.raises(ValueError, match="no identity selected"):
        RunConfig(lo=5, hi=7, identities=())
    with pytest.raises(ValueError, match=r"identity repeated in \('kontsevich', 'kontsevich'\)"):
        RunConfig(lo=5, hi=7, identities=("kontsevich", "kontsevich"))
    with pytest.raises(ValueError, match=r"depth repeated in \(3, 3\)"):
        RunConfig(lo=5, hi=7, identities=("main-theorem",), depths=(3, 3))
    # The one floor replaces the default floor of every depth.
    config = RunConfig(lo=5, hi=7, identities=("main-theorem",), floor=11, depths=(2, 5))
    assert [floor for _, _, floor in sweep._jobs(config)] == [11, 11]
    config = RunConfig(lo=5, hi=7, identities=("main-theorem",), depths=(2, 5))
    assert [floor for _, _, floor in sweep._jobs(config)] == [5, 7]
    # Every caller of run_sweep is bounded, not only the CLI; a pool would
    # start all its workers, so the bound is tested on the config alone.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with pytest.raises(ValueError, match="--workers 3 exceeds the 2 available CPUs"):
        RunConfig(lo=5, hi=7, identities=("kontsevich",), workers=3)
    assert RunConfig(lo=5, hi=7, identities=("kontsevich",), workers=2).workers == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    with pytest.raises(ValueError, match="--workers 2 exceeds the 1 available CPUs"):
        RunConfig(lo=5, hi=7, identities=("kontsevich",), workers=2)


def test_default_floors():
    config = RunConfig(lo=5, hi=7, identities=("kontsevich", "main-theorem", "obstruction-n5"))
    assert sweep._jobs(config) == [
        ("kontsevich", {}, 5),
        *(("main-theorem", {"n": n}, floor) for n, floor in zip(range(1, 6), (5, 5, 5, 6, 7))),
        ("obstruction-n5", {}, 7),
    ]


def test_prime_range_must_lie_below_the_word_size(monkeypatch):
    # Refused before any prime is sieved or evaluated, so a prime that the
    # stored words cannot hold never becomes an "error:" outcome.
    with pytest.raises(ValueError, match="hi = 4294967296 is not below 2\\^32"):
        RunConfig(lo=5, hi=1 << 32, identities=("kontsevich",))
    assert RunConfig(lo=5, hi=(1 << 32) - 1, identities=("kontsevich",)).hi == (1 << 32) - 1
    monkeypatch.setattr(cli, "skip_reason", _no_sweep)
    monkeypatch.setattr(cli, "run_sweep", _no_sweep)
    with pytest.raises(SystemExit) as err:
        main(["verify", "kontsevich", "--primes", "4294967311..4294967400"])
    assert err.value.code == "error: hi = 4294967400 is not below 2^32, the coefficient word size"


# --- sweeps ---------------------------------------------------------------------


def test_sweep_kontsevich_clean():
    report = run_sweep(RunConfig(lo=5, hi=31, identities=("kontsevich",)))
    assert report.ok
    entry = report.entries[0]
    assert [o.p for o in entry.outcomes] == [5, 7, 11, 13, 17, 19, 23, 29, 31]
    assert all(o.passed for o in entry.outcomes)
    assert entry.exceptional == []


def test_sweep_gate_notes():
    report = run_sweep(RunConfig(lo=5, hi=13, identities=("shuffle-lemma",), depths=(5,)))
    [entry] = report.entries
    assert entry.params == {"n": 5}
    skipped = [o for o in entry.outcomes if o.passed is None]
    assert [o.p for o in skipped] == [5]
    assert skipped[0].note == "requires p > n = 5"
    assert entry.ok  # floor is 6, the skipped prime lies below it


def test_sweep_main_theorem_n1_checks_nothing():
    # M_1 = 0 by definition, so the n = 1 job is null at every prime; the
    # deeper jobs are evaluated.
    report = run_sweep(RunConfig(lo=5, hi=31, identities=("main-theorem",)))
    by_n = {e.params["n"]: e for e in report.entries}
    assert sorted(by_n) == [1, 2, 3, 4, 5]
    assert [o.p for o in by_n[1].outcomes] == [5, 7, 11, 13, 17, 19, 23, 29, 31]
    assert all(o.passed is None for o in by_n[1].outcomes)
    assert all(o.note == "requires n >= 2" for o in by_n[1].outcomes)
    assert all(o.passed is True for o in by_n[2].outcomes)
    assert report.ok
    assert "main-theorem n=1: ok (0 primes checked" in report.to_text()


@pytest.mark.parametrize("identity", [i for i in IDENTITY_IDS if sweep._IDENTITIES[i].depths])
def test_every_evaluated_depth_checks_something(identity):
    # Each depth is either skipped with a note or evaluated to at least one
    # check, so no prime passes with nothing checked (recurrence n = 1 has
    # no step, main-theorem n = 1 a residual zero by definition).
    p, row = 13, sweep._IDENTITIES[identity]
    for n in range(1, 7):
        if sweep._null_note(identity, {"n": n}, p) is None:
            result = row.evaluate(n, p)
            checks = [result] if isinstance(result, PolyFp) else list(result)
            assert checks, n


def test_one_faulty_prime_fails_alone(monkeypatch, fresh_memos):
    # A chain step that leaves a nonzero value at S = p when p = 11 trips the
    # chain memo's check; that prime fails with the message, the others pass.
    original = fmp._window_extend

    def faulty(values, k, p, size=None):
        out = original(values, k, p, size)
        if p == 11 and len(out) > p:
            out[p] = 1
        return out

    monkeypatch.setattr(fmp, "_window_extend", faulty)
    config = RunConfig(lo=5, hi=31, identities=("shuffle-lemma",), depths=(2,))
    [entry] = run_sweep(config).entries
    [bad] = [o for o in entry.outcomes if o.p == 11]
    assert bad == PrimeOutcome(
        11, False, note="error: nonzero chain value at a multiple of 11 for (1, 1)"
    )
    assert all(o.passed for o in entry.outcomes if o.p != 11)
    assert entry.exceptional == [11] and not entry.ok


def test_arithmetic_fault_fails_its_prime_but_other_errors_propagate(monkeypatch):
    def evaluate(p):
        if p == 7:
            raise ZeroDivisionError("division by zero")
        return PolyFp.zero(p)

    row = dataclasses.replace(sweep._IDENTITIES["kontsevich"], evaluate=evaluate)
    monkeypatch.setitem(sweep._IDENTITIES, "kontsevich", row)
    report = run_sweep(RunConfig(lo=5, hi=13, identities=("kontsevich",)))
    assert [(o.p, o.passed, o.note) for o in report.entries[0].outcomes] == [
        (5, True, None),
        (7, False, "error: division by zero"),
        (11, True, None),
        (13, True, None),
    ]
    assert "exceptional: [7]" in report.to_text()
    assert "kontsevich,-,7,false,\n" in report.to_csv()
    # A fault of the program, not of the arithmetic, still ends the sweep.
    row = dataclasses.replace(row, evaluate=lambda p: None)
    monkeypatch.setitem(sweep._IDENTITIES, "kontsevich", row)
    with pytest.raises(TypeError):
        run_sweep(RunConfig(lo=5, hi=13, identities=("kontsevich",)))


def test_sweep_crosscheck_null_where_nothing_checked():
    report = run_sweep(RunConfig(lo=11, hi=19, identities=("oracle-crosscheck",)))
    entry = report.entries[0]
    assert [(o.p, o.passed) for o in entry.outcomes] == [
        (11, True),
        (13, True),
        (17, None),
        (19, None),
    ]
    assert all(o.note.endswith("nothing checked") for o in entry.outcomes[2:])
    assert entry.ok
    assert "2 primes checked" in report.to_text()


def _one_chain(blocks: BlockTriple) -> BlockTriple:
    """The triple as the crosscheck compares it: one with exactly one empty
    outer block is the chain of its joined index."""
    if bool(blocks.first) != bool(blocks.second):
        return BlockTriple((), (), blocks.first + blocks.second + blocks.third)
    return blocks


@pytest.mark.parametrize("p", [5, 7])
def test_crosscheck_compares_every_triple_once(p, monkeypatch):
    # Both loops are recorded: a chain compared by oy_fmp/naive_reference is
    # the triple ((), (), chain).
    fast, loops = [], []

    def recorder(seen):
        def record(arg, q):
            seen.append(arg if isinstance(arg, BlockTriple) else BlockTriple((), (), arg.parts))
            return PolyFp.zero(q)

        return record

    for name, seen in (
        ("oy_fmp", fast),
        ("oy_fmp_general", fast),
        ("naive_reference", loops),
        ("naive_reference_general", loops),
    ):
        monkeypatch.setattr(sweep, name, recorder(seen))
    for _ in sweep._oracle_crosscheck(p):
        pass
    assert fast == loops
    compared = set(fast)
    for blocks in sweep._block_triples(4):
        if blocks not in compared:
            chain = BlockTriple((), (), blocks.first + blocks.second + blocks.third)
            assert chain in compared, blocks
    assert len({_one_chain(b) for b in fast}) == len(fast), "a chain is compared twice"


@pytest.mark.parametrize("max_depth", [1, 2, 3, 4])
def test_block_triples_are_every_triple_once(max_depth):
    blocks = [()] + [
        parts for d in range(1, max_depth + 1) for parts in itertools.product((1, 2), repeat=d)
    ]
    expected = {
        BlockTriple(a, b, c)
        for a, b, c in itertools.product(blocks, repeat=3)
        if 1 <= len(a) + len(b) + len(c) <= max_depth
    }
    triples = sweep._block_triples(max_depth)
    assert len(triples) == len(set(triples))
    assert set(triples) == expected


@pytest.mark.parametrize("p", [11, 13])
def test_zeta_vanishing_checks_each_zeta_once(p, monkeypatch):
    seen = []
    zeta_variant = sweep.zeta_variant

    def recorded(index, i, q):
        seen.append((index, i))
        return zeta_variant(index, i, q)

    monkeypatch.setattr(sweep, "zeta_variant", recorded)
    notes = [note for note, _ in sweep._zeta_vanishing(p)]
    assert len(notes) == len(set(notes)) == len(seen) == len(set(seen)) == 21


def test_entry_ok_fails_only_on_false_at_or_above_floor():
    outcomes = [PrimeOutcome(5, False), PrimeOutcome(7, None, note="n/a"), PrimeOutcome(11, True)]
    assert IdentityEntry("kontsevich", {}, 7, outcomes).ok
    assert not IdentityEntry("kontsevich", {}, 5, outcomes).ok


def test_sweep_obstruction_reports_exceptional():
    report = run_sweep(RunConfig(lo=7, hi=31, identities=("obstruction-n5",)))
    entry = report.entries[0]
    assert not report.ok
    assert entry.exceptional == [7, 11, 13, 17, 19, 23, 29, 31]
    failing = entry.outcomes[0]
    assert failing.residual is not None and failing.residual.startswith("[7;")


def test_sweep_deterministic_across_workers(monkeypatch):
    # More workers than primes per worker; allowed as if there were 3 CPUs.
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    base = dict(lo=7, hi=31, identities=("kontsevich", "main-theorem"))
    r1 = run_sweep(RunConfig(workers=1, **base))
    r2 = run_sweep(RunConfig(workers=3, **base))
    assert _stripped(r1) == _stripped(r2)
    assert r1.timing["workers"] == 1 and r2.timing["workers"] == 3


# SHA-256 of the JSON report of every identity, without its timing.  Pinned
# from the sweep that took each symmetry difference by composing the whole
# polylog, so a faster path must give the same bytes.  The sweep at 4099
# was pinned from the one-point multiply; its shuffle bridges have since
# become chain steps (fmp._ones_bridge), so there only the closed forms'
# products and K's Taylor shift take the two-point multiply with 5-byte
# chunks.  All three were re-pinned when
# shuffle-lemma n = 1 became null ("requires n >= 2"), after checking that
# those outcomes were the reports' only change.
_GOLDEN_REPORTS = {
    (5, 199): "06eb65c291715b7e1c9165faee8f681591ec3ab284665a93a7520761e8a4b630",
    (1051, 1051): "e5a064f66dcd9008cfe9967d1de02ff31327db762da8cf6ac974a45c4f201185",
    (4099, 4099): "815f790869362b3dae5afc8618b98930a7fb763034f566cf7aab6540260cc8ab",
}


@pytest.mark.parametrize("lo,hi", list(_GOLDEN_REPORTS))
def test_full_sweep_report_is_golden(lo, hi):
    d = json.loads(run_sweep(RunConfig(lo=lo, hi=hi, identities=IDENTITY_IDS)).to_json())
    del d["timing"]
    text = json.dumps(d, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == _GOLDEN_REPORTS[lo, hi]


def test_sweep_one_prime_starts_no_pool(monkeypatch):
    def no_pool(max_workers):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    report = run_sweep(RunConfig(lo=101, hi=101, identities=("main-theorem",), workers=2))
    assert [e.params["n"] for e in report.entries] == [1, 2, 3, 4, 5]
    assert report.ok


def test_sweep_task_is_the_prime(monkeypatch):
    tasks = []

    class InlinePool:
        """Runs the pool's tasks in this process and records them."""

        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            args = list(zip(*iterables))
            tasks.extend(args)
            return [fn(*a) for a in args]

    base = dict(lo=7, hi=31, identities=("kontsevich", "main-theorem"))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    report = run_sweep(RunConfig(workers=2, **base))
    assert [task[-1] for task in tasks] == [7, 11, 13, 17, 19, 23, 29, 31]
    monkeypatch.undo()
    assert _stripped(report) == _stripped(run_sweep(RunConfig(**base)))


# --- merge ------------------------------------------------------------------------


def test_merge_disjoint_and_overlapping():
    a = run_sweep(RunConfig(lo=7, hi=31, identities=("kontsevich",)))
    b = run_sweep(RunConfig(lo=37, hi=61, identities=("kontsevich",)))
    c = run_sweep(RunConfig(lo=29, hi=43, identities=("kontsevich",)))
    merged = merge_reports([a, b, c])
    primes = [o.p for o in merged.entries[0].outcomes]
    assert primes == sorted(set(primes))
    assert primes[0] == 7 and primes[-1] == 61
    assert merged.ranges == [(7, 31), (29, 43), (37, 61)]
    assert merged.ok


def test_merge_conflict():
    a = run_sweep(RunConfig(lo=7, hi=13, identities=("kontsevich",)))
    b = run_sweep(RunConfig(lo=7, hi=13, identities=("kontsevich",)))
    tampered = b.entries[0].outcomes[0]
    b.entries[0].outcomes[0] = PrimeOutcome(tampered.p, False, "[7; 1]", None)
    with pytest.raises(ValueError, match="kontsevich disagrees at p=7: "):
        merge_reports([a, b])


def test_merge_floor_mismatch():
    a = run_sweep(RunConfig(lo=7, hi=13, identities=("kontsevich",)))
    b = run_sweep(
        RunConfig(lo=17, hi=19, identities=("kontsevich",), floor=11)
    )
    with pytest.raises(ValueError, match="floor mismatch for kontsevich: 5 vs 11"):
        merge_reports([a, b])


def test_report_with_stale_budget_key_loads_and_merges():
    a = run_sweep(RunConfig(lo=7, hi=13, identities=("kontsevich",)))
    old = a.to_dict()
    old["config"]["budget"] = 10_000_000
    b = run_sweep(RunConfig(lo=17, hi=19, identities=("kontsevich",)))
    loaded = SweepReport.from_json(json.dumps(old))
    assert loaded.to_dict() == a.to_dict()
    assert merge_reports([loaded, b]).ranges == [(7, 13), (17, 19)]


# --- rendering ----------------------------------------------------------------------


def test_json_roundtrip_and_schema():
    report = run_sweep(RunConfig(lo=7, hi=13, identities=("main-theorem",)))
    payload = json.loads(report.to_json())
    assert set(payload) == {"config", "identities", "timing"}
    assert payload["config"]["ranges"] == [[7, 13]]
    entry = payload["identities"][0]
    assert set(entry) == {"id", "params", "floor", "primes", "exceptional"}
    assert all(set(o) >= {"p", "pass"} for o in entry["primes"])
    # residuals only on failure
    assert all("residual" not in o for o in entry["primes"] if o["pass"])
    assert SweepReport.from_json(report.to_json()).to_dict() == report.to_dict()


def test_csv_render():
    report = run_sweep(RunConfig(lo=7, hi=13, identities=("kontsevich",)))
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "identity,params,prime,pass,residual_degree"
    assert lines[1] == "kontsevich,-,7,true,"


def test_text_render():
    report = run_sweep(RunConfig(lo=7, hi=13, identities=("kontsevich",)))
    assert "overall: ok" in report.to_text()


# --- CLI ------------------------------------------------------------------------------


def test_parse_index_forms():
    assert parse_index("1,2,1") == Index.of(1, 2, 1)
    assert parse_index("1^4") == Index.ones(4)
    assert parse_index("1^3,2") == Index.of(1, 1, 1, 2)
    with pytest.raises(argparse.ArgumentTypeError):
        parse_index("1,x")
    for text in ("0,1", "2,1^-3", "1^0,2"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_index(text)


def test_parse_ranges():
    assert parse_prime_range("7..199") == (7, 199)
    assert parse_prime_range("13") == (13, 13)
    assert parse_n_values("3") == (3,)
    assert parse_n_values("1..5") == (1, 2, 3, 4, 5)


@pytest.mark.parametrize("text", ["5..", "..5", "a..b", "5..7..9", "", "9..7"])
def test_parse_prime_range_rejects(text):
    with pytest.raises(argparse.ArgumentTypeError):
        parse_prime_range(text)


@pytest.mark.parametrize("text", ["5..", "..5", "a..b", "1..x", "", "3..1"])
def test_parse_n_values_rejects(text):
    with pytest.raises(argparse.ArgumentTypeError):
        parse_n_values(text)


def test_cli_compute_oy(capsys):
    assert main(["compute", "oy", "--index", "1", "--prime", "5"]) == 0
    assert capsys.readouterr().out.strip() == "t + 3t^2 + 2t^3 + 4t^4 (mod 5)"


@pytest.mark.parametrize(
    "kind, flags",
    [
        ("oy", ["--prime", "7"]),
        ("ss", ["--slot", "1", "--prime", "601"]),
        ("zeta", ["--prime", "7"]),
    ],
)
def test_cli_compute_deep_index(fresh_memos, capsys, kind, flags):
    # 600 parts from cold memos: no memo recurses once per part.
    assert main(["compute", kind, "--index", "1^600", *flags]) == 0
    assert capsys.readouterr().out.strip().endswith(")")


def test_cli_compute_zeta_matches_bernoulli(capsys):
    main(["compute", "zeta", "--index", "1,1,1,2", "--window", "1", "--prime", "13"])
    zeta_out = capsys.readouterr().out.strip()
    main(["compute", "zeta", "--index", "1,1,1,2", "--prime", "13"])  # window 1
    default_out = capsys.readouterr().out.strip()
    main(["compute", "bernoulli", "--m", "8", "--prime", "13"])
    bern_out = capsys.readouterr().out.strip()
    assert zeta_out == default_out == bern_out == "3 (mod 13)"


def test_cli_compute_bernoulli_b0(capsys):
    main(["compute", "bernoulli", "--m", "0", "--prime", "7"])
    assert capsys.readouterr().out.strip() == "1 (mod 7)"


def test_cli_compute_guards():
    with pytest.raises(SystemExit):
        main(["compute", "oy", "--index", "1", "--prime", "4"])
    with pytest.raises(SystemExit):
        main(["compute", "oy", "--index", "1", "--prime", "3"])
    with pytest.raises(SystemExit):
        main(["compute", "oy", "--prime", "7"])
    with pytest.raises(SystemExit):
        main(["compute", "bernoulli", "--prime", "7"])
    # a given --window 0 is not the default
    with pytest.raises(SystemExit) as err:
        main(["compute", "zeta", "--index", "1,1,1,2", "--window", "0", "--prime", "13"])
    assert err.value.code == "error: window 0 out of range 1..4"


@pytest.mark.parametrize(
    "kind,given,flag",
    [
        ("oy", ["--index", "1,2", "--slot", "2"], "slot"),
        ("oy", ["--index", "1,2", "--window", "1"], "window"),
        ("oy", ["--index", "1,2", "--m", "2"], "m"),
        ("ss", ["--index", "1,2", "--slot", "1", "--window", "1"], "window"),
        ("ss", ["--index", "1,2", "--slot", "1", "--m", "2"], "m"),
        ("zeta", ["--index", "1,2", "--m", "2"], "m"),
        ("zeta", ["--index", "1,2", "--slot", "1"], "slot"),
        ("bernoulli", ["--m", "2", "--index", "1"], "index"),
        ("bernoulli", ["--m", "2", "--window", "1"], "window"),
        ("bernoulli", ["--m", "2", "--slot", "1"], "slot"),
    ],
)
def test_cli_compute_refuses_unread_flags(kind, given, flag, capsys):
    with pytest.raises(SystemExit) as err:
        main(["compute", kind, "--prime", "7", *given])
    assert err.value.code == f"error: compute {kind} takes no --{flag}"
    assert capsys.readouterr().out == ""


def test_cli_verify_pass_and_fail(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(
        ["verify", "main-theorem", "--n", "3", "--primes", "7..31", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["identities"][0]["params"] == {"n": 3}
    capsys.readouterr()

    code = main(["verify", "obstruction-n5", "--primes", "7..31", "--format", "text"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_verify_range_below_floor():
    with pytest.raises(SystemExit) as err:
        main(["verify", "main-theorem", "--n", "5", "--primes", "2..5"])
    assert str(err.value.code).startswith("error: ")
    assert str(err.value.code).endswith("nothing to verify")


def test_cli_verify_nothing_checked(capsys):
    # The oracles only run at p <= 13: every prime of 17..31 is null.
    with pytest.raises(SystemExit) as err:
        main(["verify", "oracle-crosscheck", "--primes", "17..31"])
    assert str(err.value.code).endswith("nothing to verify")
    assert capsys.readouterr().out == ""
    # The other identities do check those primes.
    assert main(["verify", "all", "--primes", "17..31", "--format", "text"]) == 1
    text = capsys.readouterr().out
    assert "oracle-crosscheck: ok (0 primes checked" in text
    assert "kontsevich: ok (5 primes checked" in text


def _no_sweep(config):
    raise AssertionError("the sweep ran")


# The reason is the skip gate's note at the primes at or above the floor, or
# the floor itself when no prime reaches it.
_REFUSALS = {
    "main-theorem --floor 199 --primes 5..197": (
        "no prime in 5..197 was checked at or above the identity floor"
    ),
    "main-theorem --n 1 --primes 5..31": "no prime in 5..31 was checked (requires n >= 2)",
    "recurrence --n 1 --primes 5..13": "no prime in 5..13 was checked (requires n >= 2)",
    "oracle-crosscheck --primes 17..31": (
        "no prime in 17..31 was checked (oracle caps below this prime; nothing checked)"
    ),
    "recurrence --n 13..14 --floor 5 --primes 5..13": (
        "no prime in 5..13 was checked (requires p > n = 13; requires p > n = 14)"
    ),
}


@pytest.mark.parametrize("argv", [command.split() for command in _REFUSALS])
def test_cli_verify_refuses_before_sweeping(monkeypatch, argv):
    monkeypatch.setattr(cli, "run_sweep", _no_sweep)
    with pytest.raises(SystemExit) as err:
        main(["verify", *argv])
    assert err.value.code == f"error: {_REFUSALS[' '.join(argv)]}; nothing to verify"


def test_skip_gate_reads_primes_lazily():
    # The gate stops at its first evaluated (job, prime) pair, p = 5 here,
    # without sieving the rest of the range or listing its primes.
    config = RunConfig(lo=5, hi=2 * 10**6, identities=("kontsevich",))
    tracemalloc.start()
    try:
        reason = skip_reason(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reason is None
    assert peak < 1_000_000, peak


def test_skip_gate_reads_each_threshold_once(monkeypatch):
    # oracle-crosscheck is capped at 13, so from 17 on its note never
    # changes: the gate reads it at the first prime at or above the floor and
    # each threshold, not at each of the 78,492 primes in 17..10^6.
    calls = []
    original = sweep._null_note

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(sweep, "_null_note", counted)
    config = RunConfig(lo=17, hi=10**6, identities=("oracle-crosscheck",))
    assert skip_reason(config) == "(oracle caps below this prime; nothing checked)"
    assert len(calls) <= 4, len(calls)


def _gate_by_every_prime(config):
    # The skip gate read at every prime of the range at or above each floor.
    notes = {}
    for ident, params, floor in sweep._jobs(config):
        for p in (q for q in primes_in(config.lo, config.hi) if q >= floor):
            note = sweep._null_note(ident, params, p)
            if note is None:
                return None
            notes[note] = None
    return f"({'; '.join(notes)})" if notes else "at or above the identity floor"


@pytest.mark.parametrize("identity", IDENTITY_IDS)
def test_skip_gate_matches_every_prime_reading(identity):
    # Depths (6, 20) with floor 5 over 5..7: n = 6 is skipped at 5 and
    # evaluated at 7, so a gate reading one prime per job refuses wrongly.
    depths = [(), (3,), (1, 13), (6, 20)] if sweep._IDENTITIES[identity].depths else [()]
    grid = itertools.product(depths, (None, 5, 19), range(1, 30, 4), (7, 13, 23, 31))
    for depth, floor, lo, hi in grid:
        if lo <= hi:
            config = RunConfig(lo, hi, (identity,), depth, floor)
            assert skip_reason(config) == _gate_by_every_prime(config), config


# A depth below 1 is refused by RunConfig, the one place that checks it.
_DEPTH_REFUSALS = {"0": "(0,)", "0..2": "(0, 1, 2)"}


@pytest.mark.parametrize("text", list(_DEPTH_REFUSALS))
def test_cli_verify_refuses_depth_below_one(monkeypatch, text):
    monkeypatch.setattr(cli, "run_sweep", _no_sweep)
    with pytest.raises(SystemExit) as err:
        main(["verify", "main-theorem", "--n", text, "--primes", "5..31"])
    assert err.value.code == f"error: depths must be >= 1, got {_DEPTH_REFUSALS[text]}"


def test_cli_verify_all_matches_merged_sweeps(capsys):
    assert main(["verify", "all", "--primes", "5..31", "--format", "json"]) == 1
    report = SweepReport.from_json(capsys.readouterr().out)
    singles = [
        run_sweep(RunConfig(lo=5, hi=31, identities=(ident,))) for ident in IDENTITY_IDS
    ]
    assert _stripped(report) == _stripped(merge_reports(singles))
    assert not report.ok  # obstruction-n5 and zeta-vanishing report exceptional primes


def test_cli_verify_workers_bounded_by_cpus(monkeypatch, capsys):
    # Never run with a large --workers: the pool would start them all.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    seen = []

    def fake_run_sweep(config):
        seen.append(config.workers)
        return run_sweep(dataclasses.replace(config, workers=1))

    monkeypatch.setattr(cli, "run_sweep", fake_run_sweep)
    with pytest.raises(SystemExit) as err:
        main(["verify", "kontsevich", "--primes", "7..13", "--workers", "3"])
    assert err.value.code == "error: --workers 3 exceeds the 2 available CPUs"
    assert seen == []
    assert main(["verify", "kontsevich", "--primes", "7..13", "--workers", "2"]) == 0
    assert seen == [2]


def test_cli_verify_rejects_n_for_unparameterized(monkeypatch):
    monkeypatch.setattr(cli, "run_sweep", _no_sweep)
    for argv, message in (
        (["kontsevich", "--n", "3"], "identity kontsevich takes no depth n"),
        (["all", "--n", "3"], "identity kontsevich takes no depth n"),
        (["all", "--floor", "11"], "a floor applies to one identity, not 12"),
        (["kontsevich", "--floor", "3"], "floor must be >= 5, got 3"),
    ):
        with pytest.raises(SystemExit) as err:
            main(["verify", *argv, "--primes", "7..13"])
        assert err.value.code == f"error: {message}"


def test_cli_merge_files(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["verify", "kontsevich", "--primes", "7..31", "--out", str(a)])
    main(["verify", "kontsevich", "--primes", "37..61", "--out", str(b)])
    capsys.readouterr()
    code = main(["merge", str(a), str(b)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["config"]["ranges"] == [[7, 31], [37, 61]]
    primes = [o["p"] for o in payload["identities"][0]["primes"]]
    assert primes == [7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]


def test_cli_merge_conflict(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["verify", "kontsevich", "--primes", "7..13", "--out", str(a)])
    payload = json.loads(a.read_text())
    payload["identities"][0]["primes"][0]["pass"] = False
    b.write_text(json.dumps(payload))
    with pytest.raises(SystemExit):
        main(["merge", str(a), str(b)])


_ENTRY = {"id": "kontsevich", "params": {}, "floor": 5, "primes": [], "exceptional": []}


def _one_outcome(outcome: dict, **entry) -> dict:
    return {"config": {"ranges": [[7, 7]]}, "identities": [{**_ENTRY, "primes": [outcome], **entry}]}


@pytest.mark.parametrize(
    "payload",
    [
        {"identities": []},
        [1, 2],
        _one_outcome({"p": 7}),
        _one_outcome({"p": 7, "pass": "false"}),
        _one_outcome({"p": 7, "pass": True}, floor="5"),
        _one_outcome({"p": 7, "pass": False, "residual": 5}),
        _one_outcome({"p": 7, "pass": None, "note": ["requires p > n"]}),
        _one_outcome({"p": True, "pass": True}),
        _one_outcome({"p": 7, "pass": True}, floor=True),
        {"config": {"ranges": [[7]]}, "identities": []},
        {"config": {"ranges": ["ab"]}, "identities": []},
        {"config": {"ranges": [[9, 7]]}, "identities": []},
        {"config": {"ranges": [[7, True]]}, "identities": []},
        _one_outcome({"p": 7, "pass": True}, id=5),
        _one_outcome({"p": 7, "pass": True}, params={"n": True}),
        _one_outcome({"p": 7, "pass": True}, params={"n": 0}),
        _one_outcome({"p": 7, "pass": True}, params={"n": "2"}),
        _one_outcome({"p": 7, "pass": True}, params={"n": 2.0}),
        _one_outcome({"p": 7, "pass": True}, params=[["n", 2]]),
        {**_one_outcome({"p": 8, "pass": True}), "config": {"ranges": [[-3, 9]]}},
        {**_one_outcome({"p": -3, "pass": False}), "config": {"ranges": [[-3, 9]]}},
        _one_outcome({"p": 11, "pass": True}),
        {**_one_outcome({"p": 7, "pass": True}), "timing": {"seconds": "0.5"}},
        {**_one_outcome({"p": 7, "pass": True}), "timing": {"seconds": True}},
        {**_one_outcome({"p": 7, "pass": True}), "timing": {"seconds": float("nan")}},
        {**_one_outcome({"p": 7, "pass": True}), "timing": [["seconds", 0.5]]},
        # Finite in each report, but twice 1e308 overflows, and JSON has no inf.
        {**_one_outcome({"p": 7, "pass": True}), "timing": {"seconds": 1e308}},
    ],
)
def test_cli_merge_malformed_report(tmp_path, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as err:
        main(["merge", str(bad), str(bad)])
    assert str(err.value.code).startswith("error: not a sweep report: ")


def test_cli_merge_missing_report(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["merge", str(tmp_path / "absent.json")])
    assert str(err.value.code).startswith("error: ")
    assert "absent.json" in str(err.value.code)


def test_cli_out_in_missing_directory(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "no-such-dir" / "rep.json")
    good = tmp_path / "good.json"
    main(["verify", "kontsevich", "--primes", "7..13", "--out", str(good)])
    capsys.readouterr()
    missing = f"error: [Errno 2] No such file or directory: {out!r}"
    with pytest.raises(SystemExit) as err:
        main(["merge", str(good), "--out", out])
    assert err.value.code == missing

    # --out fails before the sweep, and a sweep that fails keeps the old file.
    monkeypatch.setattr(cli, "run_sweep", _no_sweep)
    with pytest.raises(SystemExit) as err:
        main(["verify", "kontsevich", "--primes", "7..13", "--out", out])
    assert err.value.code == missing
    before = good.read_text()
    with pytest.raises(AssertionError):
        main(["verify", "kontsevich", "--primes", "7..13", "--out", str(good)])
    assert good.read_text() == before


# --- scripts --------------------------------------------------------------------------


def test_depth5_symmetry_scan(capsys):
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "depth5_symmetry_scan.py"
    spec = importlib.util.spec_from_file_location("depth5_symmetry_scan", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--primes", "7..41"]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "window-2 slice equals -2*B_{p-5} at every prime: True",
        "primes where the closed form matches the difference: [37]",
    ]
    assert script.main(["--primes", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[0] == "7" and lines[-1].endswith(": []")
    # No prime from 7 up in the range: the empty table.
    for empty in ("5..5", "5..6"):
        assert script.main(["--primes", empty]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4 and lines[-1].endswith(": []")
