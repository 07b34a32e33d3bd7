"""Fixtures shared by the test modules."""

import pytest

from kleinfib import cli


@pytest.fixture
def fresh_check_memo():
    """An empty memo of reproduction checks, emptied again afterwards: a
    test that patches pipeline code or counts cache misses must neither
    reuse the checks of earlier tests nor leave its own behind."""
    cli._check_memo.cache_clear()
    yield cli._check_memo
    cli._check_memo.cache_clear()
