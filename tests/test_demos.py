"""Every demo script runs to completion against the current API."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo):
    res = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr
