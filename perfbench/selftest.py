"""Self-test of the benchmark.  Run from the root of a source checkout:

    python3 perfbench/selftest.py

1. A miniature of every workload in BENCHMARK.json, untraced and traced,
   prints exactly the metric names and units BENCHMARK.json declares, with
   every outcome check passing.
2. The benchmark's own B_{p-5} route (power sums mod p^2) agrees with
   fmplib's bernoulli_mod at every prime in 7..199, and vanishes only at 37.
3. In a directory holding only BENCHMARK.json and the benchmark, run.py
   exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import ROOT, SRC, bernoulli_mod_p, primes_between

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = [sys.executable, "perfbench/run.py"]
CACHE = ROOT / ".perfbench_cache"


def check_names() -> list[str]:
    problems = []
    declared = {
        0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    for wl in BENCHMARK["workloads"]:
        for trace in (0, 1):
            args = ["--workload", wl["name"], "--seed", "1", "--seconds", "1", "--trace", str(trace), "--mini"]
            out = subprocess.run(RUN + args, cwd=ROOT, capture_output=True, text=True, timeout=170)
            label = f"{wl['name']} trace={trace}"
            if out.returncode != 0:
                problems.append(f"{label}: exit {out.returncode}: {out.stderr[-500:]}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != declared[trace]:
                missing = set(declared[trace]) - set(printed)
                extra = set(printed) - set(declared[trace])
                problems.append(f"{label}: missing {sorted(missing)}, undeclared {sorted(extra)}, or units differ")
            print(f"{label}: {len(printed)} metrics, {result['attempted']} checks", flush=True)
    return problems


def check_bernoulli() -> list[str]:
    sys.path.insert(0, str(SRC))
    from fmplib.modular import bernoulli_mod

    problems, vanishing = [], []
    for p in primes_between(7, 199):
        ours = bernoulli_mod_p(p - 5, p)
        theirs = bernoulli_mod(p - 5, p).value
        if ours != theirs:
            problems.append(f"B_{p - 5} mod {p}: power sums give {ours}, bernoulli_mod {theirs}")
        if ours == 0:
            vanishing.append(p)
    if vanishing != [37]:
        problems.append(f"B_(p-5) vanishes at {vanishing}, expected [37]")
    print(f"B_(p-5) mod p: power sums agree with bernoulli_mod at 7..199, zero at {vanishing}")
    return problems


def check_bare_directory() -> list[str]:
    bare = CACHE / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        args = ["--workload", BENCHMARK["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"]
        out = subprocess.run(RUN + args, cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"without sources: exit {out.returncode}, {len(out.stdout)} bytes on stdout")
    if out.returncode == 0 or out.stdout.strip():
        return [f"run.py without sources: exit {out.returncode}, stdout {out.stdout[-200:]!r}"]
    return []


def main() -> int:
    problems = check_names() + check_bernoulli() + check_bare_directory()
    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
