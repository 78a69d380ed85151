"""One benchmark sweep in a fresh interpreter, started by run.py.

    python3 perfbench/child.py '<json spec>'

The spec names the source tree to import, the prime range, the identities in
sweep order, and whether to trace.  With "probe": true the process stops once
it is ready to evaluate, so run.py can time set-up alone.
The last line of standard output is one JSON object with the monotonic time
at which the process was ready, the sweep's wall time, its peak RSS, and
every (job, prime) outcome; run.py checks the outcomes.

Tracing wraps public fmplib functions from outside the library and records
calls, total and self time per span.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

SPANS = (
    ("fmplib.polyfp", "compose_one_minus_t", "polyfp.compose_one_minus_t"),
    ("fmplib.modular", "bernoulli_mod", "modular.bernoulli_mod"),
    ("fmplib.fmp", "chain_distribution", "fmp.chain_distribution"),
    ("fmplib.fmp", "oy_fmp_general", "fmp.oy_fmp_general"),
    ("fmplib.fmp", "naive_reference", "fmp.naive_reference"),
    ("fmplib.ss", "ss_star", "ss.ss_star"),
    ("fmplib.ss", "ss_star_reference", "ss.ss_star_reference"),
    ("fmplib.ss", "enumerate_phi", "ss.enumerate_phi"),
)
MEMOS = {
    "fmp.chain_memo": (("fmplib.fmp", "_chain_values"),),
    "identities.memo": (
        ("fmplib.identities", "ones_fmp"),
        ("fmplib.identities", "f_poly"),
        ("fmplib.identities", "g_poly"),
        ("fmplib.identities", "_depth1_power"),
    ),
}
# An operand with at most this many nonzero coefficients makes a product
# "sparse": the shape a shift-and-add multiply would serve.
SPARSE_NNZ = 6


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Span counters for this process: name -> [calls, total_s, self_s]."""

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.stack: list[float] = []  # time covered by children of each open span
        self.sparse = [0]
        self.memo_base: dict[str, list[int]] = {}

    def wrap(self, name: str, fn):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = time.perf_counter() - start
                inner = stack.pop()
                stats[0] += 1
                stats[1] += d
                stats[2] += d - inner
                if stack:
                    stack[-1] += d

        return traced

    def install(self):
        """Wrap every span in every fmplib namespace that bound the original,
        and PolyFp x PolyFp products on the class."""
        from fmplib.polyfp import PolyFp

        loaded = [m for n, m in sys.modules.items() if n == "fmplib" or n.startswith("fmplib.")]
        for module, attr, name in SPANS:
            original = getattr(sys.modules[module], attr)
            traced = self.wrap(name, original)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

        mul = PolyFp.__mul__
        timed_mul = self.wrap("polyfp.mul", mul)
        sparse = self.sparse

        def traced_mul(a, b):
            if not isinstance(b, PolyFp):
                return mul(a, b)
            ca, cb = a.coeffs, b.coeffs
            if min(len(ca) - ca.count(0), len(cb) - cb.count(0)) <= SPARSE_NNZ:
                sparse[0] += 1
            return timed_mul(a, b)

        PolyFp.__mul__ = traced_mul
        self.memo_base = self._memo_now()

    def _memo_now(self) -> dict[str, list[int]]:
        out = {}
        for name, funcs in MEMOS.items():
            total = [0, 0, 0]
            for module, attr in funcs:
                info = getattr(sys.modules[module], attr).cache_info()
                total[0] += info.hits
                total[1] += info.misses
                total[2] += info.currsize
            out[name] = total
        return out

    def snapshot(self) -> dict:
        now = self._memo_now()
        memos = {k: [a - b for a, b in zip(now[k], self.memo_base[k])] for k in now}
        return {"spans": self.spans, "sparse": self.sparse[0], "memos": memos}


def main() -> int:
    spec = json.loads(sys.argv[1])
    import fmplib
    from fmplib.sweep import RunConfig, run_sweep

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(fmplib.__file__).startswith(src + os.sep):
        print(f"fmplib imported from {fmplib.__file__}, not from {src}", file=sys.stderr)
        return 3
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        tracer.install()
    lo, hi = spec["range"]
    configs = [(ident, RunConfig(lo=lo, hi=hi, identities=(ident,))) for ident in spec["identities"]]
    t_ready = _now()
    if spec.get("probe"):
        print(json.dumps({"t_ready": t_ready}))
        return 0

    results = {}
    for ident, config in configs:
        try:
            if tracer is None:
                results[ident] = run_sweep(config)
            else:
                results[ident] = tracer.wrap(f"sweep.{ident}", run_sweep)(config)
        except Exception as exc:  # one identity's crash must not stop the sweep
            results[ident] = repr(exc)
    sweep_s = _now() - t_ready

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for ident, report in results.items():
        if isinstance(report, str):
            results[ident] = {"error": report}
        else:
            results[ident] = {
                "entries": [
                    {"params": e.params, "outcomes": [[o.p, o.passed, o.note] for o in e.outcomes]}
                    for e in report.entries
                ]
            }
    out = {"t_ready": t_ready, "sweep_s": sweep_s, "rss_kb": rss_kb, "identities": results}
    if tracer is not None:
        out["trace"] = tracer.snapshot()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
