"""Smoke test: every demo script runs to completion from a checkout.

Each demo runs in its own interpreter with ``src`` on ``PYTHONPATH``, as
from a checkout without installing, and must exit 0 after printing
something; every warning is an error. Temporary files the demos write go
to a temporary directory of their own, and a demo must leave that
directory empty. Each demo is started once; the tests below share its run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
_RUNS = {}


def _run(demo, tmp_path_factory):
    """Start ``demo`` on its first call; return its result and its TMPDIR."""
    if demo not in _RUNS:
        tmp = tmp_path_factory.mktemp(demo.stem)
        paths = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(paths),
            PYTHONWARNINGS="error",
            TMPDIR=str(tmp),
        )
        result = subprocess.run(
            [sys.executable, str(demo)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        _RUNS[demo] = (result, tmp)
    return _RUNS[demo]


def test_every_demo_is_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo, tmp_path_factory):
    result, tmp = _run(demo, tmp_path_factory)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip(), f"{demo.name} printed nothing"
    assert list(tmp.iterdir()) == [], f"{demo.name} left temporary files"


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_names_criteria_as_the_table_does(demo, tmp_path_factory):
    """Demos print criteria under their ``CRITERIA`` names (``single0`` to
    ``double12``), as ``evaluate``, ``search`` and the README do."""
    result, _ = _run(demo, tmp_path_factory)
    assert "single j=" not in result.stdout and "double (" not in result.stdout
