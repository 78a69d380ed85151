"""The names the benchmark wraps must exist in the library.

perfbench/child.py traces the functions listed in SPANS and reads the
lru_cache statistics of those in MEMOS.  Renaming or deleting one of them
breaks the benchmark, which otherwise only its slow self-test would show.
The file is read, never imported as a module, so nothing is written next
to it.
"""

import importlib
import pathlib
import runpy

CHILD = runpy.run_path(
    str(pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "child.py"),
    run_name="perfbench_child",
)


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
