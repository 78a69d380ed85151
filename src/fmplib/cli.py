"""Command-line front end.

    fmp compute oy --index 1,1 --prime 7
    fmp compute zeta --index 1,1,1,2 --window 1 --prime 13
    fmp verify main-theorem --n 1..5 --primes 7..199 --workers 2
    fmp verify all --primes 7..199 --format text
    fmp merge a.json b.json --out merged.json

Index syntax is comma-separated positive integers with a repetition
shorthand: "1^4" means 1,1,1,1 and "1^3,2" means 1,1,1,2.
"""

from __future__ import annotations

import argparse
import sys

from .fmp import Index, oy_fmp, zeta_variant
from .modular import bernoulli_mod, is_prime
from .ss import ss_star
from .sweep import (
    IDENTITY_IDS,
    RunConfig,
    SweepReport,
    checks_anything,
    merge_reports,
    require_workers,
    run_sweep,
    skip_reason,
)


def parse_index(text: str) -> Index:
    parts: list[int] = []
    try:
        for atom in text.split(","):
            if "^" in atom:
                base, _, count = atom.partition("^")
                parts.extend([int(base)] * int(count))
            else:
                parts.append(int(atom))
        return Index(tuple(parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad index {text!r}: {exc}") from None


def _split_range(text: str) -> tuple[int, int]:
    """LO..HI, or a single value N read as N..N; ValueError otherwise."""
    lo, dots, hi = text.partition("..")
    return int(lo), int(hi if dots else lo)


def parse_prime_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = _split_range(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad prime range {text!r}; expected LO..HI")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty prime range {text!r}")
    return lo, hi


def parse_n_values(text: str) -> tuple[int, ...]:
    try:
        lo, hi = _split_range(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad n specification {text!r}")
    values = tuple(range(lo, hi + 1))
    if not values or any(n < 1 for n in values):
        raise argparse.ArgumentTypeError(f"n must be positive: {text!r}")
    return values


def _check_supported_prime(p: int):
    if not is_prime(p) or p < 5:
        raise SystemExit(f"error: p={p} out of supported range (primes >= 5)")


def _cmd_compute(args) -> int:
    _check_supported_prime(args.prime)
    p = args.prime
    if args.kind in ("oy", "ss", "zeta") and args.index is None:
        raise SystemExit(f"error: compute {args.kind} requires --index")
    if args.kind == "oy":
        value = str(oy_fmp(args.index, p))
    elif args.kind == "ss":
        if args.slot is None:
            raise SystemExit("error: compute ss requires --slot")
        value = str(ss_star(args.index, args.slot, p))
    elif args.kind == "zeta":
        value = str(zeta_variant(args.index, args.window, p))
    else:  # bernoulli
        if args.m is None:
            raise SystemExit("error: compute bernoulli requires --m")
        value = str(bernoulli_mod(args.m, p))
    print(value)
    return 0


def _emit(make_report, args) -> int:
    """Write the report that make_report() returns to --out (printing the
    text summary) or to stdout; exit status 0 iff the report is clean.

    --out is opened before the report is made, so a bad path fails before a
    sweep.  It is opened for appending and emptied only once the report is
    ready, so a sweep that fails leaves an existing file as it was.
    """
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            report = make_report()
            fh.truncate(0)
            fh.write(report.render(args.format))
        print(report.to_text(), end="")
    else:
        report = make_report()
        print(report.render(args.format), end="")
    return 0 if report.ok else 1


def _cmd_verify(args) -> int:
    lo, hi = args.primes
    config = RunConfig(
        lo=lo,
        hi=hi,
        identities=IDENTITY_IDS if args.identity == "all" else (args.identity,),
        depths=args.n or (),
        floors={} if args.floor is None else {args.identity: args.floor},
        workers=args.workers,
    )
    require_workers(config.workers)
    if not checks_anything(config):
        raise ValueError(
            f"no prime in {lo}..{hi} was checked {skip_reason(config)}; nothing to verify"
        )
    return _emit(lambda: run_sweep(config), args)


def _cmd_merge(args) -> int:
    reports = []
    for path in args.reports:
        with open(path, encoding="utf-8") as fh:
            reports.append(SweepReport.from_json(fh.read()))
    return _emit(lambda: merge_reports(reports), args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmp",
        description="Exact finite-polylog computation and prime-by-prime identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="compute one value at one prime")
    comp.add_argument("kind", choices=("oy", "ss", "zeta", "bernoulli"))
    comp.add_argument("--index", type=parse_index, help="index, e.g. 1,2 or 1^4")
    comp.add_argument("--prime", type=int, required=True)
    comp.add_argument("--slot", type=int, help="indeterminate slot (ss only)")
    comp.add_argument("--window", type=int, default=1, help="window i (zeta only)")
    comp.add_argument("--m", type=int, help="Bernoulli index (bernoulli only)")
    comp.set_defaults(fn=_cmd_compute)

    ver = sub.add_parser("verify", help="sweep an identity over a prime range")
    ver.add_argument("identity", choices=(*IDENTITY_IDS, "all"))
    ver.add_argument("--primes", type=parse_prime_range, required=True, metavar="LO..HI")
    ver.add_argument("--n", type=parse_n_values, help="depth parameter, e.g. 3 or 1..5")
    ver.add_argument("--floor", type=int, help="override the identity's prime floor")
    ver.add_argument("--workers", type=int, default=1)
    ver.add_argument("--format", choices=("json", "csv", "text"), default="json")
    ver.add_argument("--out", help="write the report to this file")
    ver.set_defaults(fn=_cmd_verify)

    mer = sub.add_parser("merge", help="merge sweep reports over prime ranges")
    mer.add_argument("reports", nargs="+", help="JSON report files")
    mer.add_argument("--format", choices=("json", "csv", "text"), default="json")
    mer.add_argument("--out", help="write the merged report to this file")
    mer.set_defaults(fn=_cmd_merge)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
