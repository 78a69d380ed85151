"""Prime-range verification sweeps and machine-readable reports.

Every identity is checked prime by prime over an explicit range.  Failures
are never silently dropped: a failing prime is listed as exceptional, and the
sweep only counts as passing when no prime at or above the identity's floor
fails.  The floors are configuration, not mathematical truth; the library's
statements hold up to finitely many exceptional primes, and the reports make
that finite set visible.
"""

from __future__ import annotations

import itertools
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

from .fmp import (
    BlockTriple,
    DEFAULT_ORACLE_BUDGET,
    Index,
    all_indices,
    naive_reference,
    naive_reference_general,
    oy_fmp,
    oy_fmp_general,
    zeta_variant,
)
from .identities import (
    closed_form_residuals,
    functional_eq_residual,
    main_theorem_residual,
    obstruction_n5_residual,
    ones_fmp,
    recurrence_residual,
    shuffle_lemma_residual,
)
from .modular import bernoulli_mod, primes_in
from .polyfp import PolyFp, compose_one_minus_t
from .ss import (
    corollary_depth3_residual,
    corollary_depth4_residual,
    oy_from_ss,
    ss_star,
    ss_star_reference,
)

__all__ = [
    "ConflictError",
    "IDENTITY_IDS",
    "IdentityEntry",
    "PrimeOutcome",
    "RunConfig",
    "SweepReport",
    "default_floor",
    "default_jobs",
    "merge_reports",
    "run_sweep",
]


class ConflictError(ValueError):
    """Reports to merge disagree about the same prime."""


# ---------------------------------------------------------------------------
# per-prime evaluators: a residual polynomial (zero means pass), or a
# (residual, note) pair when the note names the failing part


def _kontsevich(p):
    f = ones_fmp(1, p)
    return f - compose_one_minus_t(f)


def _recurrence(n, p):
    total = PolyFp.zero(p)
    for k in range(n - 1):
        r = recurrence_residual(n, k, p)
        total = total + r
        if not r.is_zero:
            return r, f"step k={k}"
    telescope = total - shuffle_lemma_residual(n, p)
    if not telescope.is_zero:
        return telescope, "telescoping mismatch against shuffle lemma"
    return PolyFp.zero(p), None


def _closed_forms(p):
    for note, residual in closed_form_residuals(p):
        if not residual.is_zero:
            return residual, note
    return PolyFp.zero(p), None


_REPEAT_PAIRS = tuple(
    (k, r) for k in range(1, 7) for r in range(1, 7) if k * r <= 6
)


def _zeta_vanishing(p):
    # Repeated indices {k}^r with k*r <= 6 vanish; applicability floor k*r+2.
    for k, r in _REPEAT_PAIRS:
        if p >= k * r + 2:
            v = zeta_variant(Index((k,) * r), 1, p)
            if v.value:
                return PolyFp.of(p, [v.value]), f"zeta of {(k,) * r} nonzero"
    if p >= 11:
        for idx in all_indices(4, 4):
            if idx.weight == 4:
                v = zeta_variant(idx, 1, p)
                if v.value:
                    return PolyFp.of(p, [v.value]), f"weight-4 zeta of {idx} nonzero"
    if p >= 7:
        v = zeta_variant(Index.of(1, 1, 1, 2), 1, p)
        b = bernoulli_mod(p - 5, p)
        if v != b:
            return PolyFp.of(p, [(v.value - b.value) % p]), "zeta(1,1,1,2) != B_{p-5}"
        v2 = zeta_variant(Index.of(1, 1, 1, 2), 2, p)
        if v2.value:
            return PolyFp.of(p, [v2.value]), "window-2 zeta(1,1,1,2) nonzero"
    return PolyFp.zero(p), None


def _prop42(p):
    for idx in all_indices(4, 3):
        diff = oy_from_ss(idx, p) - oy_fmp(idx, p)
        if not diff.is_zero:
            return diff, f"conversion mismatch at {idx}"
    return PolyFp.zero(p), None


def _block_triples(max_total_depth: int) -> list[BlockTriple]:
    blocks: list[tuple[int, ...]] = [()]
    for d in range(1, max_total_depth + 1):
        blocks.extend(itertools.product((1, 2), repeat=d))
    out = []
    for a in blocks:
        for b in blocks:
            for c in blocks:
                if 1 <= len(a) + len(b) + len(c) <= max_total_depth:
                    out.append(BlockTriple.of(a, b, c))
    return out


def _oracle_crosscheck(p, budget):
    ran = False
    if p <= 13:
        ran = True
        for idx in all_indices(5, 4):
            diff = oy_fmp(idx, p) - naive_reference(idx, p, budget)
            if not diff.is_zero:
                return diff, f"window DP vs loops at {idx}"
        for idx in all_indices(4, 3):
            for slot in range(1, idx.depth + 1):
                diff = ss_star(idx, slot, p) - ss_star_reference(idx, slot, p, budget)
                if not diff.is_zero:
                    return diff, f"strict-chain DP vs loops at {idx} slot {slot}"
    if p <= 7:
        ran = True
        for blocks in _block_triples(4):
            diff = oy_fmp_general(blocks, p) - naive_reference_general(blocks, p, budget)
            if not diff.is_zero:
                return diff, f"three-block DP vs loops at {blocks}"
    return PolyFp.zero(p), None if ran else "oracle caps below this prime; nothing checked"


# ---------------------------------------------------------------------------
# the identity table


@dataclass(frozen=True)
class _Identity:
    """What the sweep knows about one identity.

    evaluate is called as evaluate(n, p) when depths is nonempty, else as
    evaluate(p), with the oracle tuple budget appended when takes_budget.
    floor(n) is the default prime from which a failure fails the sweep (n is
    0 for identities without depths).  Primes below min_prime, or p <= n,
    cannot be evaluated and get pass null with a note.
    """

    evaluate: Callable
    depths: tuple[int, ...] = ()
    floor: Callable[[int], int] = lambda n: 5
    min_prime: int = 5
    takes_budget: bool = False


# Floors: n+2 where the identity divides by n!, n+1 where it needs p > n,
# 7 where B_{p-5} enters or p = 5 is a known exception (corollary-d4).
_IDENTITIES = {
    "kontsevich": _Identity(_kontsevich),
    "shuffle-lemma": _Identity(
        shuffle_lemma_residual, (1, 2, 3, 4, 5), lambda n: max(5, n + 1)
    ),
    "recurrence": _Identity(_recurrence, (2, 3, 4), lambda n: max(5, n + 1)),
    "main-theorem": _Identity(
        main_theorem_residual, (1, 2, 3, 4, 5), lambda n: max(5, n + 2)
    ),
    "functional-eq": _Identity(
        functional_eq_residual, (1, 2, 3, 4), lambda n: max(5, n + 2)
    ),
    "obstruction-n5": _Identity(obstruction_n5_residual, floor=lambda n: 7, min_prime=7),
    "closed-forms": _Identity(_closed_forms, floor=lambda n: 7, min_prime=7),
    "zeta-vanishing": _Identity(_zeta_vanishing),
    "prop42": _Identity(_prop42),
    "corollary-d3": _Identity(corollary_depth3_residual, floor=lambda n: 7),
    "corollary-d4": _Identity(corollary_depth4_residual, floor=lambda n: 7),
    "oracle-crosscheck": _Identity(_oracle_crosscheck, takes_budget=True),
}

IDENTITY_IDS = tuple(_IDENTITIES)


def default_floor(identity: str, params: dict) -> int:
    """Default minimal prime above which a failure fails the sweep."""
    return _IDENTITIES[identity].floor(params.get("n", 0))


def default_jobs(identity: str) -> list[tuple[str, dict]]:
    depths = _IDENTITIES[identity].depths
    if depths:
        return [(identity, {"n": n}) for n in depths]
    return [(identity, {})]


def _run_task(task: tuple) -> tuple:
    identity, params_items, p, budget = task
    row = _IDENTITIES[identity]
    params = dict(params_items)
    if row.depths and p <= params["n"]:
        return identity, params_items, p, None, None, f"requires p > n = {params['n']}"
    if p < row.min_prime:
        return identity, params_items, p, None, None, f"requires p >= {row.min_prime}"
    args = (params["n"], p) if row.depths else (p,)
    result = row.evaluate(*args, budget) if row.takes_budget else row.evaluate(*args)
    residual, note = (result, None) if isinstance(result, PolyFp) else result
    if residual.is_zero:
        return identity, params_items, p, True, None, note
    return identity, params_items, p, False, residual.compact(), note


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class PrimeOutcome:
    """One prime of one identity.  passed is None when the prime cannot be
    evaluated at all (hard precondition, e.g. p <= n); the note says why."""

    p: int
    passed: bool | None
    residual: str | None = None  # compact polynomial, kept only on failure
    note: str | None = None

    def to_dict(self) -> dict:
        d: dict = {"p": self.p, "pass": self.passed}
        if self.residual is not None:
            d["residual"] = self.residual
        if self.note is not None:
            d["note"] = self.note
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PrimeOutcome":
        return cls(d["p"], d["pass"], d.get("residual"), d.get("note"))


@dataclass
class IdentityEntry:
    identity: str
    params: dict
    floor: int
    outcomes: list[PrimeOutcome]

    @property
    def exceptional(self) -> list[int]:
        return [o.p for o in self.outcomes if o.passed is False]

    @property
    def ok(self) -> bool:
        return all(o.passed is True for o in self.outcomes if o.p >= self.floor)

    def to_dict(self) -> dict:
        return {
            "id": self.identity,
            "params": self.params,
            "floor": self.floor,
            "primes": [o.to_dict() for o in self.outcomes],
            "exceptional": self.exceptional,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "IdentityEntry":
        return cls(
            d["id"],
            dict(d["params"]),
            d["floor"],
            [PrimeOutcome.from_dict(o) for o in d["primes"]],
        )


@dataclass
class SweepReport:
    ranges: list[tuple[int, int]]
    budget: int
    entries: list[IdentityEntry]
    timing: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)

    def to_dict(self) -> dict:
        return {
            "config": {
                "ranges": [list(r) for r in self.ranges],
                "budget": self.budget,
            },
            "identities": [e.to_dict() for e in self.entries],
            "timing": self.timing,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SweepReport":
        return cls(
            [tuple(r) for r in d["config"]["ranges"]],
            d["config"]["budget"],
            [IdentityEntry.from_dict(e) for e in d["identities"]],
            dict(d.get("timing", {})),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SweepReport":
        return cls.from_dict(json.loads(text))

    def to_csv(self) -> str:
        lines = ["identity,params,prime,pass,residual_degree"]
        for e in self.entries:
            params = ";".join(f"{k}={v}" for k, v in sorted(e.params.items())) or "-"
            for o in e.outcomes:
                if o.residual is None:
                    deg = ""
                else:
                    poly = PolyFp.from_compact(o.residual)
                    deg = str(poly.degree)
                passed = {True: "true", False: "false", None: "skip"}[o.passed]
                lines.append(f"{e.identity},{params},{o.p},{passed},{deg}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = []
        for e in self.entries:
            params = " ".join(f"{k}={v}" for k, v in sorted(e.params.items()))
            label = f"{e.identity} {params}".strip()
            checked = [o for o in e.outcomes if o.passed is not None]
            status = "ok" if e.ok else "FAIL"
            lines.append(
                f"{label}: {status} ({len(checked)} primes checked, floor {e.floor},"
                f" exceptional: {e.exceptional or 'none'})"
            )
        lines.append("overall: " + ("ok" if self.ok else "FAIL"))
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "text":
            return self.to_text()
        raise ValueError(f"unknown format {fmt!r}")


@dataclass(frozen=True)
class RunConfig:
    """A sweep request: prime range, identity selection, floors, budget,
    worker count."""

    lo: int
    hi: int
    identities: tuple[str, ...]
    floors: dict = field(default_factory=dict)
    budget: int = DEFAULT_ORACLE_BUDGET
    workers: int = 1

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty prime range {self.lo}..{self.hi}")
        for ident in self.identities:
            if ident not in _IDENTITIES:
                raise ValueError(f"unknown identity {ident!r}")
        for ident, floor in self.floors.items():
            if floor < 5:
                raise ValueError(f"floor for {ident} must be >= 5, got {floor}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


def run_sweep(config: RunConfig, jobs: list[tuple[str, dict]] | None = None) -> SweepReport:
    """Evaluate every selected identity at every prime of the range.

    Per-prime tasks are independent; with workers > 1 they fan out to a
    process pool.  Results are keyed and reassembled in ascending prime
    order, so the report is identical whatever the worker count.
    """
    if jobs is None:
        jobs = [job for ident in config.identities for job in default_jobs(ident)]
    primes = primes_in(config.lo, config.hi)
    tasks = [
        (ident, tuple(sorted(params.items())), p, config.budget)
        for ident, params in jobs
        for p in primes
    ]
    start = time.perf_counter()
    if config.workers <= 1 or len(tasks) <= 1:
        raw = [_run_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            raw = list(pool.map(_run_task, tasks, chunksize=4))
    elapsed = time.perf_counter() - start

    by_job: dict[tuple, dict[int, PrimeOutcome]] = {}
    for identity, params_items, p, passed, residual, note in raw:
        by_job.setdefault((identity, params_items), {})[p] = PrimeOutcome(
            p, passed, residual, note
        )
    entries = []
    for ident, params in jobs:
        key = (ident, tuple(sorted(params.items())))
        outcomes = [by_job[key][p] for p in primes]
        floor = config.floors.get(ident, default_floor(ident, params))
        entries.append(IdentityEntry(ident, dict(params), floor, outcomes))
    return SweepReport(
        ranges=[(config.lo, config.hi)],
        budget=config.budget,
        entries=entries,
        timing={"workers": config.workers, "seconds": round(elapsed, 3)},
    )


def merge_reports(reports: list[SweepReport]) -> SweepReport:
    """Union of sweeps over different prime ranges.

    Duplicate primes must agree exactly (ConflictError otherwise); entries are
    matched by identity and parameters, primes come out ascending.
    """
    if not reports:
        raise ValueError("nothing to merge")
    budget = reports[0].budget
    for rep in reports[1:]:
        if rep.budget != budget:
            raise ConflictError(f"budget mismatch: {rep.budget} vs {budget}")
    merged: dict[tuple, IdentityEntry] = {}
    order: list[tuple] = []
    for rep in reports:
        for entry in rep.entries:
            key = (entry.identity, tuple(sorted(entry.params.items())))
            if key not in merged:
                merged[key] = IdentityEntry(entry.identity, dict(entry.params), entry.floor, [])
                order.append(key)
            target = merged[key]
            if target.floor != entry.floor:
                raise ConflictError(
                    f"floor mismatch for {entry.identity}: {target.floor} vs {entry.floor}"
                )
            target.outcomes.extend(entry.outcomes)
    entries = []
    for key in order:
        entry = merged[key]
        seen: dict[int, PrimeOutcome] = {}
        for o in entry.outcomes:
            if o.p in seen and seen[o.p] != o:
                raise ConflictError(
                    f"{entry.identity} disagrees at p={o.p}: {seen[o.p]} vs {o}"
                )
            seen[o.p] = o
        entries.append(
            IdentityEntry(
                entry.identity,
                entry.params,
                entry.floor,
                [seen[p] for p in sorted(seen)],
            )
        )
    ranges = sorted({tuple(r) for rep in reports for r in rep.ranges})
    seconds = round(sum(rep.timing.get("seconds", 0.0) for rep in reports), 3)
    return SweepReport(
        ranges=list(ranges),
        budget=budget,
        entries=entries,
        timing={"merged_from": len(reports), "seconds": seconds},
    )
