"""The names and jobs the benchmark pins must match the library.

perfbench/child.py traces the functions listed in SPANS and reads the
lru_cache statistics of those in MEMOS.  perfbench/run.py pins the identities,
their depths and their floors.  Renaming or deleting one of them, dropping a
default depth or moving a floor breaks the benchmark, which otherwise only a
benchmark run with failed cells would show.  The files are read, never
imported as modules, so nothing is written next to them.
"""

import importlib
import pathlib
import runpy

from fmplib import sweep

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
CHILD = runpy.run_path(str(PERFBENCH / "child.py"), run_name="perfbench_child")
RUN = runpy.run_path(str(PERFBENCH / "run.py"), run_name="perfbench_run")


def _resolve(module: str, attr: str):
    return getattr(importlib.import_module(module), attr, None)


def test_spans_exist():
    missing = [(m, a) for m, a, _ in CHILD["SPANS"] if not callable(_resolve(m, a))]
    assert not missing, missing


def test_memos_have_cache_info():
    bad = [
        (m, a)
        for funcs in CHILD["MEMOS"].values()
        for m, a in funcs
        if not hasattr(_resolve(m, a), "cache_info")
    ]
    assert not bad, bad


def test_pinned_identities_are_the_sweeps():
    assert set(RUN["IDENTITIES"]) == set(sweep.IDENTITY_IDS)


def test_pinned_depths_are_default_depths():
    bad = [
        (ident, n)
        for ident, depths in RUN["JOBS"].items()
        for n in depths
        if n not in sweep._IDENTITIES[ident].depths
    ]
    assert not bad, bad


def test_pinned_floors_are_default_floors():
    bad = [
        (ident, n)
        for ident in RUN["IDENTITIES"]
        for n in RUN["JOBS"].get(ident, (None,))
        if RUN["job_floor"](ident, n) != sweep._IDENTITIES[ident].floor(n or 0)
    ]
    assert not bad, bad
