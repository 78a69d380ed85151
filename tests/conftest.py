import sys

import pytest
from hypothesis import settings

settings.register_profile("fmplib", deadline=None, max_examples=25)
settings.load_profile("fmplib")


@pytest.fixture
def fresh_memos():
    """Clear every fmplib lru_cache before and after the test.

    A test that patches a memoized function, or one that a memo calls, would
    otherwise leave its results in the memos for later tests.  The memos are
    collected before the test patches anything, so the originals are the
    ones cleared afterwards.
    """
    memos = [
        value
        for name, module in list(sys.modules.items())
        if name.startswith("fmplib.")
        for value in vars(module).values()
        if hasattr(value, "cache_clear")
    ]
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()
