"""fmplib benchmark: identity sweeps, each in a fresh process with cold caches.

    python3 perfbench/run.py --workload sweep-1k --seed 3 --seconds 40 --trace 0

Run from the root of a source checkout.  Every sweep starts a new
interpreter (perfbench/child.py) that imports fmplib from ./src and calls
run_sweep once per identity, the way scripts/full_verification.py does, so
each sweep pays import and cold lru_cache costs as a user's invocation does.

Each workload sweeps a fixed set of primes; the seed fixes the order of the
identities.  Sweeps repeat until the next one would end after --seconds (at
least one sweep, or one untraced and one traced with --trace 1).  Every
(job, prime) outcome is checked against an expectation computed here without
fmplib; see `expected_pass`.

The benchmark and its sweeps run pinned to one CPU.  The speed of that CPU
drifts by up to 40% over minutes on a shared host, so sweep times are given
in units of a reference loop (`reference_loop`) timed on the same CPU right
before and after each sweep.

The last line of standard output is one JSON object: with --trace 0 it holds
the end-to-end metrics (medians over the run's sweeps), with --trace 1 the
per-layer metrics of the traced sweeps.  The line before it records the
interpreter, CPU count, CPU model and the medians in wall-clock seconds.  A summary
goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"

IDENTITIES = (
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
CHAIN = ("shuffle-lemma", "recurrence", "main-theorem", "prop42")
# Depth values swept for the identities that take a depth n.
JOBS = {
    "shuffle-lemma": (1, 2, 3, 4, 5),
    "recurrence": (2, 3, 4),
    "main-theorem": (1, 2, 3, 4, 5),
    "functional-eq": (1, 2, 3, 4),
}
# These two compare against a closed form in B_{p-5}, which is off by a
# factor: they fail exactly where B_{p-5} is nonzero mod p.
BERNOULLI_DEPENDENT = ("obstruction-n5", "zeta-vanishing")

# A sweep process still running this long after the start is killed, so the
# run ends within 180 s.
HARD_LIMIT_S = 165.0
SETUP_PROBES = 5


@dataclass(frozen=True)
class Workload:
    band: tuple[int, int]  # every prime in it is swept
    identities: tuple[str, ...]


WORKLOADS = {
    # The only workload where the nested-loop oracles run (p <= 13): many
    # cheap tasks, so per-task overhead and report assembly count.
    "sweep-small": Workload((5, 199), IDENTITIES),
    # t -> 1-t composition and B_{p-5} dominate at p ~ 1000.
    "sweep-1k": Workload((1051, 1051), IDENTITIES),
    # No composition or Bernoulli numbers: chain DP, dense multiply, ss_star
    # and cache growth at large p (4079, 4091, 4093, 4099).
    "chain-4k": Workload((4079, 4099), CHAIN),
}
# Small bands of the same shape, for the self-test.
MINI_BANDS = {
    "sweep-small": (5, 31),
    "sweep-1k": (101, 101),
    "chain-4k": (200, 230),
}

# The reference loop: a Taylor shift mod p in plain Python, the same kind of
# interpreter work as the sweeps' hot loops; about 0.75 s on a 2.1 GHz Xeon.
REF_P = 1051
REF_LEN = 700
REF_SHIFTS = 30


def primes_between(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 5), hi + 1) if all(n % d for d in range(2, int(n**0.5) + 1))]


def choose_inputs(wl: Workload, seed: int) -> tuple[list[int], list[str]]:
    order = list(wl.identities)
    random.Random(seed).shuffle(order)
    return primes_between(*wl.band), order


def reference_loop() -> float:
    """Wall time of a fixed amount of plain-Python work: REF_SHIFTS Taylor
    shifts f(t) -> f(t+1) of a polynomial with REF_LEN coefficients mod REF_P."""
    p, n = REF_P, REF_LEN
    c = [(i * 7919 + 13) % p for i in range(n)]
    start = time.perf_counter()
    for _ in range(REF_SHIFTS):
        for i in range(n):
            for j in range(n - 2, i - 1, -1):
                c[j] = (c[j] + c[j + 1]) % p
    return time.perf_counter() - start


def bernoulli_mod_p(m: int, p: int) -> int:
    """B_m mod p from sum_{a<p} a^m = p*B_m (mod p^2), valid for even
    2 <= m <= p-3; independent of fmplib's Akiyama-Tanigawa route."""
    q = p * p
    return sum(pow(a, m, q) for a in range(1, p)) % q // p


def job_floor(ident: str, n: int | None) -> int:
    """First prime at which a failure counts (the library's documented floors)."""
    if ident in ("shuffle-lemma", "recurrence"):
        return max(5, n + 1)
    if ident in ("main-theorem", "functional-eq"):
        return max(5, n + 2)
    if ident in ("obstruction-n5", "closed-forms", "corollary-d3", "corollary-d4"):
        return 7
    return 5


def expected_pass(ident: str, p: int) -> bool:
    return not (ident in BERNOULLI_DEPENDENT and p >= 7 and bernoulli_mod_p(p - 5, p) != 0)


def check_identity(ident: str, primes: list[int], result: dict | None, expect: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over the identity's (job, prime) cells.

    Below its floor a cell may come out any way.  At or above it the outcome
    must be the expected pass or fail; a pass may instead be null with a note.
    A sweep that raised fails all its cells.
    """
    depths = JOBS.get(ident, (None,))
    attempted = len(depths) * len(primes)
    if result is None or "error" in result:
        why = "no result" if result is None else result["error"]
        return attempted, attempted, [f"{ident}: {why}"]
    entries = {e["params"].get("n"): e for e in result["entries"]}
    failed, msgs = 0, []
    for n in depths:
        entry = entries.get(n)
        outcomes = {} if entry is None else {o[0]: o for o in entry["outcomes"]}
        for p in primes:
            o = outcomes.get(p)
            if o is None:
                ok = False
            elif p < job_floor(ident, n):
                ok = True
            elif expect[(ident, p)]:
                ok = o[1] is True or (o[1] is None and bool(o[2]))
            else:
                ok = o[1] is False
            if not ok:
                failed += 1
                msgs.append(f"{ident} n={n} p={p}: got {o}, expected pass={expect[(ident, p)]}")
    return attempted, failed, msgs


@dataclass
class Sweep:
    setup_s: float
    sweep_s: float
    rss_mb: float
    attempted: int
    failed: int
    trace: dict | None
    ref_s: float = float("nan")  # mean reference-loop time before and after


def run_child(spec: dict, timeout: float) -> tuple[float, dict | None, str]:
    """Start one sweep process; returns (spawn time, parsed result or None, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(spec)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
        start_new_session=True,  # so a timeout stops everything it started
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return t_spawn, None, f"timed out after {timeout:.0f}s\n{err}"
    if proc.returncode != 0 or not out.strip():
        return t_spawn, None, f"exit {proc.returncode}\n{err}"
    return t_spawn, json.loads(out.strip().splitlines()[-1]), err


def sweep_once(base: dict, primes: list[int], expect: dict, trace: bool, timeout: float, log) -> Sweep:
    t_spawn, res, err = run_child(dict(base, trace=trace), timeout)
    results = {} if res is None else res["identities"]
    attempted = failed = 0
    for ident in base["identities"]:
        a, f, msgs = check_identity(ident, primes, results.get(ident), expect)
        attempted += a
        failed += f
        for m in msgs[:3]:
            log(f"FAILED CHECK {m}")
    if res is None:
        log(f"sweep process failed: {err.strip()[-2000:]}")
        return Sweep(float("nan"), float("nan"), float("nan"), attempted, failed, None)
    return Sweep(
        res["t_ready"] - t_spawn,
        res["sweep_s"],
        res["rss_kb"] / 1024,
        attempted,
        failed,
        res.get("trace"),
    )


def layer_metrics(sw: Sweep) -> dict[str, tuple[float, str]]:
    t = sw.trace
    spans = t["spans"]

    def span(name):
        return spans.get(name, [0, 0.0, 0.0])

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    mul = span("polyfp.mul")
    m["polyfp.mul.calls"] = (mul[0], "count")
    m["polyfp.mul.s"] = (mul[1], "s")
    m["polyfp.mul.sparse_share"] = (ratio(t["sparse"], mul[0]), "share")
    for name in (
        "polyfp.compose_one_minus_t",
        "modular.bernoulli_mod",
        "fmp.chain_distribution",
        "fmp.oy_fmp_general",
        "ss.ss_star",
    ):
        m[f"{name}.calls"] = (span(name)[0], "count")
        m[f"{name}.s"] = (span(name)[1], "s")
    # Share of all traced self time.
    busy = sum(stats[2] for stats in spans.values())
    m["polyfp.compose_one_minus_t.self_share"] = (
        ratio(span("polyfp.compose_one_minus_t")[2], busy),
        "share",
    )
    for name in ("fmp.naive_reference", "ss.ss_star_reference", "ss.enumerate_phi"):
        m[f"{name}.s"] = (span(name)[1], "s")
    for name, (hits, misses, entries) in t["memos"].items():
        m[f"{name}.hit_ratio"] = (ratio(hits, hits + misses), "share")
        if name == "identities.memo":
            m[f"{name}.entries"] = (entries, "count")
    for ident in IDENTITIES:
        m[f"sweep.{ident}.s"] = (span(f"sweep.{ident}")[1], "s")
    return m


def environment() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": model}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mini", action="store_true", help="small band of the same shape (self-test)")
    args = ap.parse_args(argv)

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    if not (SRC / "fmplib" / "__init__.py").is_file():
        log(f"no fmplib sources under {SRC}; run from a source checkout")
        return 2

    t0 = time.monotonic()
    # One CPU for the benchmark and every sweep process it starts, so the
    # reference loop times the CPU the sweeps ran on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    wl = WORKLOADS[args.workload]
    if args.mini:
        wl = replace(wl, band=MINI_BANDS[args.workload])
    primes, order = choose_inputs(wl, args.seed)
    expect = {(ident, p): expected_pass(ident, p) for ident in order for p in primes}
    base = {"src": str(SRC), "range": [primes[0], primes[-1]], "identities": order}
    log(f"{args.workload}: primes {primes[0]}..{primes[-1]} ({len(primes)}), identities {order}")

    def remaining():
        return HARD_LIMIT_S - (time.monotonic() - t0)

    # Writes the bytecode caches, so every timed start-up finds them.
    run_child(dict(base, probe=True), remaining())
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            t_spawn, res, err = run_child(dict(base, probe=True), remaining())
            if res is None:
                log(f"set-up probe failed: {err.strip()[-2000:]}")
                return 1
            setups.append(res["t_ready"] - t_spawn)

    # With tracing, alternate untraced and traced sweeps of the same inputs.
    # Without, time the reference loop between sweeps.
    kinds = [False, True] if args.trace else [False]
    sweeps: dict[bool, list[Sweep]] = {k: [] for k in kinds}
    ref_before = None if args.trace else reference_loop()
    rounds = []
    broken = False
    while not broken:
        t_round = time.monotonic()
        for kind in kinds:
            sw = sweep_once(base, primes, expect, kind, remaining(), log)
            sweeps[kind].append(sw)
            if ref_before is not None:
                ref_after = reference_loop()
                sw.ref_s = (ref_before + ref_after) / 2
                ref_before = ref_after
            ref = "" if ref_before is None else f" (reference loop {sw.ref_s:.3f} s)"
            log(
                f"sweep {len(sweeps[kind])}{' traced' if kind else ''}: {sw.sweep_s:.3f} s{ref},"
                f" set-up {sw.setup_s:.3f} s, {sw.rss_mb:.1f} MB, {sw.failed}/{sw.attempted} failed"
            )
            broken = broken or sw.sweep_s != sw.sweep_s
        rounds.append(time.monotonic() - t_round)
        if broken or time.monotonic() - t0 + statistics.median(rounds) > args.seconds:
            break

    every = [s for k in kinds for s in sweeps[k]]
    attempted = sum(s.attempted for s in every)
    failed = sum(s.failed for s in every)
    correct = failed == 0 and not broken
    plain = sweeps[False]
    metrics: dict[str, dict] = {}
    wall: dict[str, float] = {}
    if broken:
        log("a sweep process failed; no metrics")
    elif args.trace:
        traced = sweeps[True]
        per = [layer_metrics(s) for s in traced]
        for name, (_, unit) in per[0].items():
            metrics[name] = {"value": statistics.median(p[name][0] for p in per), "unit": unit}
        overhead = statistics.median(s.sweep_s for s in traced) - statistics.median(s.sweep_s for s in plain)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        setups += [s.setup_s for s in plain]
        in_refs = [s.sweep_s / s.ref_s for s in plain]
        metrics = {
            "checks_per_ref": {
                "value": statistics.median(s.attempted / r for s, r in zip(plain, in_refs)),
                "unit": "1/ref",
            },
            "sweep_ref": {"value": statistics.median(in_refs), "unit": "ref"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "max_rss_mb": {"value": statistics.median(s.rss_mb for s in plain), "unit": "MB"},
        }
        wall = {
            "sweep_s": statistics.median(s.sweep_s for s in plain),
            "checks_per_s": statistics.median(s.attempted / s.sweep_s for s in plain),
            "reference_loop_s": statistics.median(s.ref_s for s in plain),
        }

    log(f"sweeps: {len(plain)} untraced" + (f", {len(sweeps[True])} traced" if args.trace else ""))
    log(f"failed_checks: {failed}/{attempted} = {failed / max(attempted, 1):.4f} (share)")
    for name, v in metrics.items():
        log(f"{name}: {v['value']:.6g} {v['unit']}")
    for name, v in wall.items():
        log(f"wall clock, median: {name} {v:.6g}")
    if args.trace and metrics:
        share = metrics["polyfp.compose_one_minus_t.self_share"]["value"]
        calls = metrics["polyfp.compose_one_minus_t.calls"]["value"]
        log(f"attribution: compose_one_minus_t has {share:.3f} of traced self time, {calls:.0f} calls")
    info = {"env": environment(), "workload": args.workload, "seed": args.seed, "primes": primes, "wall": wall}
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
