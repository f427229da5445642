"""Smoke test: every demo script runs to completion from a checkout.

Each demo runs in its own interpreter with ``src`` on ``PYTHONPATH``, as
from a checkout without installing, and must exit 0 after printing
something; every warning is an error. Temporary files the demos write go
to pytest's temporary directory, and a demo must leave that directory
empty.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    paths = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(paths),
        PYTHONWARNINGS="error",
        TMPDIR=str(tmp_path),
    )
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip(), f"{demo.name} printed nothing"
    assert list(tmp_path.iterdir()) == [], f"{demo.name} left temporary files"


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_names_criteria_as_the_table_does(demo, tmp_path):
    """Demos print criteria under their ``CRITERIA`` names (``single0`` to
    ``double12``), as ``evaluate``, ``search`` and the README do."""
    paths = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), TMPDIR=str(tmp_path))
    out = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    ).stdout
    assert "single j=" not in out and "double (" not in out
