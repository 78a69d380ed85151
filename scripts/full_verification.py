#!/usr/bin/env python3
"""Run every identity sweep over one prime range and write all reports.

Produces one JSON report per identity plus a merged report, and prints a
summary table.  Exit status 0 only if every identity passes above its floor.

    python scripts/full_verification.py --primes 7..199 --workers 4 --out-dir reports
"""

import argparse
import pathlib
import sys
import time

from fmplib.sweep import IDENTITY_IDS, RunConfig, merge_reports, require_workers, run_sweep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--primes", default="7..199", help="range LO..HI")
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out-dir", default="reports")
    args = ap.parse_args()
    try:
        require_workers(args.workers)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    lo, hi = (int(x) for x in args.primes.split(".."))
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    reports = []
    t0 = time.perf_counter()
    for ident in IDENTITY_IDS:
        config = RunConfig(lo=lo, hi=hi, identities=(ident,), workers=args.workers)
        report = run_sweep(config)
        path = out_dir / f"{ident}.json"
        path.write_text(report.to_json(), encoding="utf-8")
        reports.append(report)
        for entry in report.entries:
            params = " ".join(f"{k}={v}" for k, v in sorted(entry.params.items()))
            label = f"{ident} {params}".strip()
            status = "ok" if entry.ok else "FAIL"
            exc = entry.exceptional
            shown = f"{exc[:6]}{'...' if len(exc) > 6 else ''}" if exc else "none"
            print(f"{label:32s} {status:4s}  floor={entry.floor:<3d} exceptional={shown}")

    merged = merge_reports(reports)
    merged_path = out_dir / "merged.json"
    merged_path.write_text(merged.to_json(), encoding="utf-8")
    elapsed = time.perf_counter() - t0
    print(f"\nwrote {len(reports)} reports and {merged_path} in {elapsed:.1f}s")
    print("overall:", "ok" if merged.ok else "FAIL")
    return 0 if merged.ok else 1


if __name__ == "__main__":
    sys.exit(main())
