"""The demos run end to end and print the tables they always printed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# One line of each demo's stdout: a table row, or the verdict line.
TABLE_LINES = {
    "turn_laws.py": "  up_e      down    up_e    up_e    up_e",
    "face_cross_check.py": "face walk agreed with graph search on 60/60",
    "trace_gallery.py": "gric_plus_ushape.svg: success after 417 hops",
    "open_field_comparison.py": "    3.5     0.67     0.98     0.97     0.98     0.86     1.00",
    "wall_crossing.py": "   gric+     0.98           35      0      2",
}


def run_demo(name, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("name", list(TABLE_LINES))
def test_demo_runs(name, tmp_path):
    proc = run_demo(name, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert TABLE_LINES[name] in proc.stdout.splitlines()
