"""Sweep driver, report plumbing, and the command-line interface."""

import json
import os

import pytest

from fmplib import cli
from fmplib.cli import main, parse_index, parse_n_values, parse_prime_range
from fmplib.fmp import Index
from fmplib.sweep import (
    ConflictError,
    IdentityEntry,
    PrimeOutcome,
    RunConfig,
    SweepReport,
    default_floor,
    merge_reports,
    run_sweep,
)


def _stripped(report: SweepReport) -> str:
    d = report.to_dict()
    d.pop("timing")
    return json.dumps(d, sort_keys=True)


# --- config -------------------------------------------------------------------


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(lo=31, hi=7, identities=("kontsevich",))
    with pytest.raises(ValueError):
        RunConfig(lo=5, hi=7, identities=("unknown-identity",))
    with pytest.raises(ValueError):
        RunConfig(lo=5, hi=7, identities=("kontsevich",), floors={"kontsevich": 3})
    with pytest.raises(ValueError):
        RunConfig(lo=5, hi=7, identities=("kontsevich",), workers=0)


def test_default_floors():
    assert default_floor("kontsevich", {}) == 5
    assert default_floor("main-theorem", {"n": 5}) == 7
    assert default_floor("main-theorem", {"n": 2}) == 5
    assert default_floor("obstruction-n5", {}) == 7


# --- sweeps ---------------------------------------------------------------------


def test_sweep_kontsevich_clean():
    report = run_sweep(RunConfig(lo=5, hi=31, identities=("kontsevich",)))
    assert report.ok
    entry = report.entries[0]
    assert [o.p for o in entry.outcomes] == [5, 7, 11, 13, 17, 19, 23, 29, 31]
    assert all(o.passed for o in entry.outcomes)
    assert entry.exceptional == []


def test_sweep_gate_notes():
    report = run_sweep(
        RunConfig(lo=5, hi=13, identities=("shuffle-lemma",)),
        jobs=[("shuffle-lemma", {"n": 5})],
    )
    entry = report.entries[0]
    skipped = [o for o in entry.outcomes if o.passed is None]
    assert [o.p for o in skipped] == [5]
    assert "requires p > n" in skipped[0].note
    assert entry.ok  # floor is 6, the skipped prime lies below it


def test_sweep_obstruction_reports_exceptional():
    report = run_sweep(RunConfig(lo=7, hi=31, identities=("obstruction-n5",)))
    entry = report.entries[0]
    assert not report.ok
    assert entry.exceptional == [7, 11, 13, 17, 19, 23, 29, 31]
    failing = entry.outcomes[0]
    assert failing.residual is not None and failing.residual.startswith("[7;")


def test_sweep_deterministic_across_workers():
    base = dict(lo=7, hi=31, identities=("kontsevich", "main-theorem"))
    r1 = run_sweep(RunConfig(workers=1, **base))
    r2 = run_sweep(RunConfig(workers=3, **base))
    assert _stripped(r1) == _stripped(r2)
    assert r1.timing["workers"] == 1 and r2.timing["workers"] == 3


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
    with pytest.raises(ConflictError):
        merge_reports([a, b])


def test_merge_floor_mismatch():
    a = run_sweep(RunConfig(lo=7, hi=13, identities=("kontsevich",)))
    b = run_sweep(
        RunConfig(lo=17, hi=19, identities=("kontsevich",), floors={"kontsevich": 11})
    )
    with pytest.raises(ConflictError):
        merge_reports([a, b])


def test_merge_budget_mismatch():
    a = run_sweep(RunConfig(lo=7, hi=13, identities=("kontsevich",)))
    b = run_sweep(RunConfig(lo=17, hi=19, identities=("kontsevich",), budget=99))
    with pytest.raises(ConflictError):
        merge_reports([a, b])


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
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_index("1,x")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_index("0,1")


def test_parse_ranges():
    assert parse_prime_range("7..199") == (7, 199)
    assert parse_prime_range("13") == (13, 13)
    assert parse_n_values("3") == (3,)
    assert parse_n_values("1..5") == (1, 2, 3, 4, 5)


def test_cli_compute_oy(capsys):
    assert main(["compute", "oy", "--index", "1", "--prime", "5"]) == 0
    assert capsys.readouterr().out.strip() == "t + 3t^2 + 2t^3 + 4t^4 (mod 5)"


def test_cli_compute_zeta_matches_bernoulli(capsys):
    main(["compute", "zeta", "--index", "1,1,1,2", "--window", "1", "--prime", "13"])
    zeta_out = capsys.readouterr().out.strip()
    main(["compute", "bernoulli", "--m", "8", "--prime", "13"])
    bern_out = capsys.readouterr().out.strip()
    assert zeta_out == bern_out == "3 (mod 13)"


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
    assert "below the identity floor" in str(err.value.code)


def test_cli_verify_budget_error_exits_cleanly():
    with pytest.raises(SystemExit) as err:
        main(["verify", "oracle-crosscheck", "--primes", "5..13", "--budget", "10"])
    assert err.value.code == "error: p^depth = 5^2 exceeds budget 10"


def test_cli_verify_workers_bounded_by_cpus(monkeypatch, capsys):
    # Never run with a large --workers: the pool would start them all.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    seen = []

    def fake_run_sweep(config, jobs):
        seen.append(config.workers)
        return SweepReport([(config.lo, config.hi)], config.budget, [])

    monkeypatch.setattr(cli, "run_sweep", fake_run_sweep)
    with pytest.raises(SystemExit) as err:
        main(["verify", "kontsevich", "--primes", "7..13", "--workers", "3"])
    assert "--workers 3 exceeds the 2 available CPUs" in str(err.value.code)
    assert seen == []
    assert main(["verify", "kontsevich", "--primes", "7..13", "--workers", "2"]) == 0
    assert seen == [2]


def test_cli_verify_rejects_n_for_unparameterized():
    with pytest.raises(SystemExit):
        main(["verify", "kontsevich", "--n", "3", "--primes", "7..13"])


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
