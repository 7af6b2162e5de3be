"""The demos that use the router API still run end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("name", ["turn_laws.py", "face_cross_check.py", "trace_gallery.py"])
def test_demo_runs(name, tmp_path):
    proc = run_demo(name, tmp_path)
    assert proc.returncode == 0, proc.stderr
    if name == "face_cross_check.py":
        assert "face walk agreed with graph search on 60/60" in proc.stdout.splitlines()
