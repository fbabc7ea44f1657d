import os
from pathlib import Path

import pytest

import genuskit
from genuskit import orders


@pytest.fixture
def subprocess_env():
    """Environment for a child interpreter that must import the genuskit
    under test: pytest's own ``pythonpath`` setting reaches only this
    process, so the package's parent directory leads PYTHONPATH."""
    src = str(Path(genuskit.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, rest] if rest else [src]))


@pytest.fixture(autouse=True)
def cold_genus_memo():
    """Empty the genus_relative memo before each test, so that a test's
    spies and monkeypatched routes see the full computation rather than an
    answer an earlier test left behind."""
    orders.genus_relative.cache_clear()
