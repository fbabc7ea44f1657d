import os
from pathlib import Path

import pytest

import genuskit


@pytest.fixture
def subprocess_env():
    """Environment for a child interpreter that must import the genuskit
    under test: pytest's own ``pythonpath`` setting reaches only this
    process, so the package's parent directory leads PYTHONPATH."""
    src = str(Path(genuskit.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, rest] if rest else [src]))
