"""Every script in ``demos/`` runs to completion without writing to stderr."""
import sys
from pathlib import Path

import pytest

from test_cli import run_cli

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(tmp_path, script):
    r = run_cli([], tmp_path, cmd=[sys.executable, str(script)])
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""
