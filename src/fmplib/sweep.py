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
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable

from .fmp import (
    BlockTriple,
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
    kontsevich_residual,
    main_theorem_residual,
    obstruction_n5_residual,
    recurrence_residual,
    shuffle_lemma_residual,
)
from .modular import _iter_primes, bernoulli_mod, is_prime, primes_in
from .polyfp import _WORD_LIMIT, PolyFp
from .ss import (
    conversion_residual,
    corollary_depth3_residual,
    corollary_depth4_residual,
    ss_star,
    ss_star_reference,
)

__all__ = [
    "IDENTITY_IDS",
    "IdentityEntry",
    "PrimeOutcome",
    "RunConfig",
    "SweepReport",
    "merge_reports",
    "run_sweep",
    "skip_reason",
]


# ---------------------------------------------------------------------------
# per-prime evaluators: a residual polynomial, or an iterable of (note,
# residual) checks; zero residuals mean pass, and the first nonzero check
# fails the prime with its note


def _recurrence(n, p):
    for k in range(n - 1):
        yield f"step k={k}", recurrence_residual(n, k, p)


_REPEAT_PAIRS = tuple(
    (k, r) for k in range(1, 7) for r in range(1, 7) if k * r <= 6
)


def _zeta_vanishing(p):
    # Repeated indices {k}^r with k*r <= 6 vanish; applicability floor k*r+2.
    for k, r in _REPEAT_PAIRS:
        if p >= k * r + 2:
            v = zeta_variant(Index((k,) * r), 1, p)
            yield f"zeta of {(k,) * r} nonzero", PolyFp.of(p, [v.value])
    if p >= 11:
        for idx in all_indices(4, 4):
            # (4), (2,2) and (1,1,1,1) are repeated indices, checked above.
            if idx.weight == 4 and len(set(idx.parts)) > 1:
                v = zeta_variant(idx, 1, p)
                yield f"weight-4 zeta of {idx} nonzero", PolyFp.of(p, [v.value])
    if p >= 7:
        v = zeta_variant(Index.of(1, 1, 1, 2), 1, p)
        b = bernoulli_mod(p - 5, p)
        yield "zeta(1,1,1,2) != B_{p-5}", PolyFp.of(p, [v.value - b.value])
        v2 = zeta_variant(Index.of(1, 1, 1, 2), 2, p)
        yield "window-2 zeta(1,1,1,2) nonzero", PolyFp.of(p, [v2.value])


def _prop42(p):
    for idx in all_indices(4, 3):
        yield f"conversion mismatch at {idx}", conversion_residual(idx, p)


def _block_triples(max_total_depth: int) -> list[BlockTriple]:
    """Every tuple of 1s and 2s of depth 1..max, cut in three at each i <= j."""
    return [
        BlockTriple(parts[:i], parts[i:j], parts[j:])
        for d in range(1, max_total_depth + 1)
        for parts in itertools.product((1, 2), repeat=d)
        for i in range(d + 1)
        for j in range(i, d + 1)
    ]


def _oracle_crosscheck(p):
    chains = all_indices(5, 4)
    for idx in chains:
        yield f"window DP vs loops at {idx}", oy_fmp(idx, p) - naive_reference(idx, p)
    for idx in all_indices(4, 3):
        for slot in range(1, idx.depth + 1):
            diff = ss_star(idx, slot, p) - ss_star_reference(idx, slot, p)
            yield f"strict-chain DP vs loops at {idx} slot {slot}", diff
    if p <= 7:
        for blocks in _block_triples(4):
            if not (blocks.first and blocks.second):
                # One chain: compared above, or here as ((), (), chain).
                if blocks.first or blocks.second or Index(blocks.third) in chains:
                    continue
            diff = oy_fmp_general(blocks, p) - naive_reference_general(blocks, p)
            yield f"three-block DP vs loops at {blocks}", diff


# ---------------------------------------------------------------------------
# the identity table


@dataclass(frozen=True)
class _Identity:
    """What the sweep knows about one identity.

    evaluate is called as evaluate(*params.values(), p), so with n first
    when depths is nonempty.
    floor(n) is the default prime from which a failure fails the sweep (n is
    0 for identities without depths).  Depths below min_n, primes p <= n,
    below min_prime or above max_prime are not evaluated and get pass null
    with a note.
    """

    evaluate: Callable
    depths: tuple[int, ...] = ()
    floor: Callable[[int], int] = lambda n: 5
    min_n: int = 0
    min_prime: int = 5
    max_prime: float = float("inf")


# Floors: n+2 where the identity divides by n!, n+1 where it needs p > n,
# 7 where B_{p-5} enters or p = 5 is a known exception: corollary-d4 is the
# depth-4 all-ones polylog's t <-> 1-t symmetry, which fails at n = p - 1.
# The main theorem's residual at n = 1 is zero by definition (M_1 = 0), the
# shuffle lemma's by construction (its bridge is the depth-1 polylog and
# f_1 = g_1 = 0), and the recurrence at n = 1 has no step.
_IDENTITIES = {
    "kontsevich": _Identity(kontsevich_residual),
    "shuffle-lemma": _Identity(
        shuffle_lemma_residual, (1, 2, 3, 4, 5), lambda n: max(5, n + 1), min_n=2
    ),
    "recurrence": _Identity(_recurrence, (2, 3, 4), lambda n: max(5, n + 1), min_n=2),
    "main-theorem": _Identity(
        main_theorem_residual, (1, 2, 3, 4, 5), lambda n: max(5, n + 2), min_n=2
    ),
    "functional-eq": _Identity(
        functional_eq_residual, (1, 2, 3, 4), lambda n: max(5, n + 2)
    ),
    "obstruction-n5": _Identity(obstruction_n5_residual, floor=lambda n: 7, min_prime=7),
    "closed-forms": _Identity(closed_form_residuals, floor=lambda n: 7, min_prime=7),
    "zeta-vanishing": _Identity(_zeta_vanishing),
    "prop42": _Identity(_prop42),
    "corollary-d3": _Identity(corollary_depth3_residual, floor=lambda n: 7),
    "corollary-d4": _Identity(corollary_depth4_residual, floor=lambda n: 7),
    # The loop oracles enumerate p^4 tuples; above 13 they would dominate a sweep.
    "oracle-crosscheck": _Identity(_oracle_crosscheck, max_prime=13),
}

IDENTITY_IDS = tuple(_IDENTITIES)


def _null_note(identity: str, params: dict, p: int) -> str | None:
    """Why nothing is checked for this job at p, or None when it is evaluated.
    It changes with p only at skip_reason's thresholds."""
    row = _IDENTITIES[identity]
    n = params.get("n", 0)
    if n < row.min_n:
        return f"requires n >= {row.min_n}"
    if p <= n:
        return f"requires p > n = {n}"
    if p < row.min_prime:
        return f"requires p >= {row.min_prime}"
    if p > row.max_prime:
        return "oracle caps below this prime; nothing checked"
    return None


def _run_job(identity: str, params: dict, p: int) -> PrimeOutcome:
    note = _null_note(identity, params, p)
    if note is not None:
        return PrimeOutcome(p, None, note=note)
    try:
        result = _IDENTITIES[identity].evaluate(*params.values(), p)
        checks = [(None, result)] if isinstance(result, PolyFp) else result
        for note, residual in checks:
            if not residual.is_zero:
                return PrimeOutcome(p, False, residual.compact(), note)
    except (ArithmeticError, ValueError) as exc:  # a faulty prime fails alone
        return PrimeOutcome(p, False, note=f"error: {exc}")
    return PrimeOutcome(p, True)


def _run_prime(jobs: list[tuple[str, dict, int]], p: int) -> list[PrimeOutcome]:
    """One task of a sweep: every job at one prime, on one process's memos."""
    return [_run_job(ident, params, p) for ident, params, _ in jobs]


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class PrimeOutcome:
    """One prime of one identity.  passed is None when nothing was checked at
    the prime (a hard precondition such as p <= n, or an oracle capped below
    it); the note says why."""

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
        fields = (d["pass"], bool), (d.get("residual"), str), (d.get("note"), str)
        if (
            type(d["p"]) is not int
            or not is_prime(d["p"])
            or any(v is not None and not isinstance(v, t) for v, t in fields)
        ):
            raise TypeError(f"bad outcome {d!r}")
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
        """No failure at or above the floor; a prime with nothing checked
        neither passes nor fails."""
        return not any(o.passed is False for o in self.outcomes if o.p >= self.floor)

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
        """Raises TypeError unless the id is a string, the params map string
        keys to ints >= 1 and the floor is an int."""
        params = d["params"]
        if not isinstance(d["id"], str) or not isinstance(params, dict):
            raise TypeError(f"bad entry {d['id']!r} {params!r}")
        if any(not isinstance(k, str) or type(v) is not int or v < 1 for k, v in params.items()):
            raise TypeError(f"bad params {params!r}")
        if type(d["floor"]) is not int:
            raise TypeError(f"bad floor {d['floor']!r}")
        return cls(
            d["id"],
            dict(params),
            d["floor"],
            [PrimeOutcome.from_dict(o) for o in d["primes"]],
        )


@dataclass
class SweepReport:
    ranges: list[tuple[int, int]]
    entries: list[IdentityEntry]
    timing: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)

    def to_dict(self) -> dict:
        return {
            "config": {"ranges": [list(r) for r in self.ranges]},
            "identities": [e.to_dict() for e in self.entries],
            "timing": self.timing,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SweepReport":
        """Raises ValueError on a missing key, a value of the wrong type, a
        range that is not LO <= HI, an outcome prime that is not prime or
        lies in no range, or a timing that is not an object whose seconds,
        if given, are a finite number.  Older reports also carry
        config.budget, which is ignored."""
        try:
            ranges = [tuple(r) for r in d["config"]["ranges"]]
            for r in ranges:
                if len(r) != 2 or any(type(x) is not int for x in r) or r[0] > r[1]:
                    raise ValueError(f"bad range {list(r)!r}")
            entries = [IdentityEntry.from_dict(e) for e in d["identities"]]
            for e in entries:
                for o in e.outcomes:
                    if not any(lo <= o.p <= hi for lo, hi in ranges):
                        raise ValueError(f"{e.identity} prime {o.p} lies in no range")
            timing = d.get("timing", {})
            seconds = timing.get("seconds", 0) if isinstance(timing, dict) else None
            # A NaN fails both comparisons; a bool's type is not int.
            if type(seconds) not in (int, float) or not -math.inf < seconds < math.inf:
                raise ValueError(f"bad timing {timing!r}")
            return cls(ranges, entries, dict(timing))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"not a sweep report: {type(exc).__name__} {exc}") from None

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
                # A kept residual is nonzero, so its degree is its comma count.
                deg = "" if o.residual is None else str(o.residual.count(","))
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
    """A whole sweep request: prime range, identities, depths (replacing
    their default depths), a floor (replacing the default floors of the one
    identity selected), worker count.  A request that cannot run as asked
    (no identity, an identity or depth twice, hi from 2^32) is refused here."""

    lo: int
    hi: int
    identities: tuple[str, ...]
    depths: tuple[int, ...] = ()
    floor: int | None = None
    workers: int = 1

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty prime range {self.lo}..{self.hi}")
        if self.hi >= _WORD_LIMIT:
            raise ValueError(f"hi = {self.hi} is not below 2^32, the coefficient word size")
        if not self.identities:
            raise ValueError("no identity selected")
        for name, values in (("identity", self.identities), ("depth", self.depths)):
            if len(set(values)) < len(values):
                raise ValueError(f"{name} repeated in {values}")
        for ident in self.identities:
            if ident not in _IDENTITIES:
                raise ValueError(f"unknown identity {ident!r}")
            if self.depths and not _IDENTITIES[ident].depths:
                raise ValueError(f"identity {ident} takes no depth n")
        if any(n < 1 for n in self.depths):
            raise ValueError(f"depths must be >= 1, got {self.depths}")
        if self.floor is not None:
            if len(self.identities) != 1:
                raise ValueError(f"a floor applies to one identity, not {len(self.identities)}")
            if self.floor < 5:
                raise ValueError(f"floor must be >= 5, got {self.floor}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        # A process pool forks every worker at its first task, however few
        # the tasks, so a count above the CPUs is refused before any pool.
        cpus = os.cpu_count() or 1
        if self.workers > cpus:
            raise ValueError(f"--workers {self.workers} exceeds the {cpus} available CPUs")


def _jobs(config: RunConfig) -> list[tuple[str, dict, int]]:
    """Every selected identity at each requested depth, or at each of its
    default depths, with its floor: the request's one floor, or the default
    floor at that depth (n = 0 stands for an identity without depths)."""
    return [
        (ident, {"n": n} if n else {}, config.floor or _IDENTITIES[ident].floor(n))
        for ident in config.identities
        for n in config.depths or _IDENTITIES[ident].depths or (0,)
    ]


def skip_reason(config: RunConfig) -> str | None:
    """None when a sweep would evaluate some job at some prime at or above its
    floor; otherwise why nothing is checked: the skip gate's notes at or
    above the floors, or the floors when no prime of the range reaches them.
    Decided from the skip gate alone, before anything is evaluated.  A job's
    note changes with p only at its thresholds n + 1, min_prime and
    max_prime + 1, so it is read at the first prime at or above the floor
    and at or above each threshold, ascending, and no further than the
    first evaluated (job, prime) pair."""
    notes: dict[str, None] = {}
    for ident, params, floor in _jobs(config):
        row, start = _IDENTITIES[ident], max(config.lo, floor)
        cuts = (params.get("n", 0) + 1, row.min_prime, row.max_prime + 1)
        for cut in sorted({start, *(c for c in cuts if start < c <= config.hi)}):
            p = next(_iter_primes(cut, config.hi), None)
            if p is None:
                break
            note = _null_note(ident, params, p)
            if note is None:
                return None
            notes[note] = None
    return f"({'; '.join(notes)})" if notes else "at or above the identity floor"


def run_sweep(config: RunConfig) -> SweepReport:
    """Evaluate every job of the request at every prime of the range.

    The task is the prime: it evaluates every job at that prime, so the jobs
    share one process's memos.  With workers > 1 and more than one prime the
    tasks fan out to a process pool; outcomes come back in prime order, so
    the report is identical whatever the worker count.
    """
    jobs = _jobs(config)
    primes = primes_in(config.lo, config.hi)
    start = time.perf_counter()
    if config.workers <= 1 or len(primes) <= 1:
        rows = [_run_prime(jobs, p) for p in primes]
    else:
        # Imported here: multiprocessing is loaded only by a sweep that forks.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            rows = list(pool.map(_run_prime, itertools.repeat(jobs), primes))
    elapsed = time.perf_counter() - start
    entries = [
        IdentityEntry(ident, dict(params), floor, [r[i] for r in rows])
        for i, (ident, params, floor) in enumerate(jobs)
    ]
    return SweepReport(
        ranges=[(config.lo, config.hi)],
        entries=entries,
        timing={"workers": config.workers, "seconds": round(elapsed, 3)},
    )


def merge_reports(reports: list[SweepReport]) -> SweepReport:
    """Union of sweeps over different prime ranges.

    Duplicate primes must agree exactly (ValueError otherwise), and so must
    the timing seconds sum to a finite number; entries are matched by
    identity and parameters, primes come out ascending.
    """
    if not reports:
        raise ValueError("nothing to merge")
    merged: dict[tuple, IdentityEntry] = {}
    for rep in reports:
        for entry in rep.entries:
            key = (entry.identity, tuple(sorted(entry.params.items())))
            target = merged.setdefault(
                key, IdentityEntry(entry.identity, dict(entry.params), entry.floor, [])
            )
            if target.floor != entry.floor:
                raise ValueError(
                    f"floor mismatch for {entry.identity}: {target.floor} vs {entry.floor}"
                )
            target.outcomes.extend(entry.outcomes)
    for entry in merged.values():
        seen: dict[int, PrimeOutcome] = {}
        for o in entry.outcomes:
            if o.p in seen and seen[o.p] != o:
                raise ValueError(f"{entry.identity} disagrees at p={o.p}: {seen[o.p]} vs {o}")
            seen[o.p] = o
        entry.outcomes = [seen[p] for p in sorted(seen)]
    ranges = sorted({tuple(r) for rep in reports for r in rep.ranges})
    seconds = round(sum(rep.timing.get("seconds", 0.0) for rep in reports), 3)
    # Finite seconds can still sum past the largest float; JSON has no inf.
    if not math.isfinite(seconds):
        raise ValueError(f"not a sweep report: timing seconds sum to {seconds}")
    return SweepReport(
        ranges=list(ranges),
        entries=list(merged.values()),
        timing={"merged_from": len(reports), "seconds": seconds},
    )
