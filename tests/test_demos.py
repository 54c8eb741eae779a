"""Every demo script runs to completion, and every demo config loads.

Each script is copied into a temporary directory and run there, so the
fields a demo writes next to itself land in the copy.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
CONFIGS = sorted((ROOT / "demos" / "configs").glob("*.cfg"))
# The exit code of ``sbpbox feasibility`` on each demo config.
FEASIBILITY = {"excited.cfg": 0, "ground.cfg": 0, "infeasible.cfg": 2}


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(tmp_path, script):
    copy = tmp_path / script.name
    shutil.copy(script, copy)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(copy)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.name)
def test_demo_config_feasibility(capsys, config):
    """Each config parses, builds its problem and passes the compatibility
    test, except the one that demonstrates the refusal."""
    from sbpbox import cli

    assert set(FEASIBILITY) == {p.name for p in CONFIGS}
    assert cli.main(["feasibility", "--config", str(config)]) == FEASIBILITY[config.name]
    out, err = capsys.readouterr()
    assert err == ""
    assert out.count("\n") == 1
