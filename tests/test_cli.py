"""Command line contract: flags, config files, formats, exit codes."""

import hashlib
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import gricsim
from conftest import make_world, record_pools
from gricsim import cli, worldgen
from gricsim.cli import CSV_HEADER, SEED_ENV_VAR, main, parse_densities
from gricsim.harness import build_trial_world
from gricsim.outcomes import TrialOutcome, TrialStatus
from gricsim.worldgen import Region, parse_world_text, world_to_text

FLOAT_4DP = r"-?\d+\.\d{4}"
ROW_RE = re.compile(
    rf"^[a-z+-]+,[a-z0-9]+,{FLOAT_4DP},\d+,{FLOAT_4DP},"
    rf"({FLOAT_4DP}|nan),({FLOAT_4DP}|nan),\d+,\d+,\d+$"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseDensities:
    def test_single_value(self):
        assert parse_densities("4") == (4.0,)

    def test_comma_list(self):
        assert parse_densities("2,3.5,5") == (2.0, 3.5, 5.0)

    def test_range_inclusive(self):
        assert parse_densities("1:2:0.5") == (1.0, 1.5, 2.0)

    def test_range_point_count(self):
        got = parse_densities("1:10:0.5")
        assert len(got) == 19
        assert got[0] == 1.0 and got[-1] == pytest.approx(10.0)

    @pytest.mark.parametrize(
        "text",
        ["", "1:2", "1:2:0", "5:1:0.5", "1:2:-0.5", "a,b", "1;2",
         "nan", "inf", "1e400", "2,nan", "1:inf:1", "nan:2:1", "1:2:nan"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_densities(text)


class TestSweep:
    def test_header_and_rows(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--algo", "greedy", "--densities", "2,2.5",
            "--trials", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        for row in lines[1:]:
            assert ROW_RE.match(row), row

    def test_all_runs_every_router_in_order(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--algo", "all", "--densities", "2",
            "--trials", "2",
        )
        assert code == 0
        names = [ln.split(",")[0] for ln in out.strip().splitlines()[1:]]
        assert names == ["greedy", "inertia", "gric-", "gric+", "ltp", "face"]

    def test_one_world_starts_no_pool(self, capsys, monkeypatch):
        # A pool that fails when built, so the check starts no process.
        def no_pool(processes):
            raise AssertionError(f"a pool of {processes} was started for one world")

        monkeypatch.setattr(gricsim.harness.multiprocessing, "Pool", no_pool)
        argv = ("sweep", "--algo", "all", "--densities", "5", "--trials", "1")
        code, out, _ = run(capsys, *argv, "--workers", "5000")
        assert code == 0
        assert out == run(capsys, *argv)[1]

    def test_many_workers_are_capped_at_the_cpus(self, capsys, monkeypatch):
        # The stand-in pool starts no process whatever workers asks for.
        sizes = record_pools(monkeypatch)
        monkeypatch.setattr(gricsim.harness, "_cpus", lambda: 2)
        argv = ("sweep", "--algo", "gric+", "--densities", "2", "--trials", "8")
        code, out, _ = run(capsys, *argv, "--workers", "5000")
        assert code == 0 and sizes == [2]
        assert out == run(capsys, *argv)[1]

    def test_deterministic_output(self, capsys):
        argv = (
            "sweep", "--algo", "gric+", "--densities", "2", "--trials", "4",
            "--seed", "5",
        )
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_seed_changes_results(self, capsys):
        base = ("sweep", "--algo", "ltp", "--densities", "2", "--trials", "5")
        _, a, _ = run(capsys, *base, "--seed", "0")
        _, b, _ = run(capsys, *base, "--seed", "1")
        assert a != b

    def test_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, _, _ = run(
            capsys, "sweep", "--algo", "greedy", "--densities", "2",
            "--trials", "2", "--out", str(out_path),
        )
        assert code == 0
        text = out_path.read_text()
        assert text.startswith(CSV_HEADER + "\n")

    def test_workers_flag_matches_serial(self, capsys):
        base = (
            "sweep", "--algo", "inertia", "--densities", "2,2.5",
            "--trials", "4",
        )
        _, serial, _ = run(capsys, *base, "--workers", "1")
        _, parallel, _ = run(capsys, *base, "--workers", "2")
        assert serial == parallel

    def test_missing_algo_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sweep", "--densities", "2")
        assert code == 2
        assert "algo" in err

    def test_unknown_algo_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--algo", "dijkstra"])
        assert exc.value.code == 2

    def test_malformed_densities_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--algo", "greedy", "--densities", "5:1:0.5"])
        assert exc.value.code == 2

    def test_unwritable_out_is_runtime_error(self, capsys):
        code, _, _ = run(
            capsys, "sweep", "--algo", "greedy", "--densities", "2",
            "--trials", "1", "--out", "/no/such/dir/rows.csv",
        )
        assert code == 1


class TestTrace:
    def test_svg_structure(self, capsys):
        code, out, err = run(
            capsys, "trace", "--algo", "gric-", "--density", "5",
            "--seed", "1",
        )
        assert code == 0
        root = ET.fromstring(out)
        assert root.tag.endswith("svg")
        paths = [e for e in root.iter() if e.tag.endswith("path")]
        assert len(paths) == 1
        circles = [e for e in root.iter() if e.tag.endswith("circle")]
        assert len(circles) > 100
        assert "gric-" in err

    def test_svg_walls_drawn(self, capsys):
        _, out, _ = run(
            capsys, "trace", "--algo", "gric+", "--obstacle", "ushape",
            "--density", "5", "--seed", "1",
        )
        root = ET.fromstring(out)
        lines = [e for e in root.iter() if e.tag.endswith("line")]
        assert len(lines) == 3

    def test_svg_draws_the_world_region(self):
        # A 4 x 4 region at 20 px per unit and a 10 px margin: a 100 px
        # frame, with the node at the region's top-left corner at (10, 10).
        world = make_world([(-1.0, 3.0), (2.0, 0.0)], [(0, 1)],
                           region=Region(-1.0, 3.0, -1.0, 3.0))
        outcome = TrialOutcome(TrialStatus.FAIL_STUCK, 0, 0.0, [world.pos(0)])
        root = ET.fromstring(cli.render_trace_svg(world, outcome, "small"))
        assert (root.get("width"), root.get("height")) == ("100", "100")
        frame = [e for e in root.iter() if e.tag.endswith("rect")][1]
        assert [frame.get(k) for k in ("x", "y", "width", "height")] == [
            "10", "10", "80", "80"
        ]
        node = [e for e in root.iter() if e.tag.endswith("circle")][0]
        assert (node.get("cx"), node.get("cy")) == ("10.0", "10.0")
        (path,) = [e for e in root.iter() if e.tag.endswith("path")]
        assert path.get("d") == "M 10.0 10.0"

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--algo", "greedy", "--density", "5",
            "--format", "csv", "--seed", "1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "step,x,y"
        for ln in lines[1:]:
            step, x, y = ln.split(",")
            int(step)
            float(x)
            float(y)

    def test_deterministic(self, capsys):
        argv = ("trace", "--algo", "gric+", "--density", "4", "--seed", "3")
        _, a, _ = run(capsys, *argv)
        _, b, _ = run(capsys, *argv)
        assert a == b

    def test_unknown_obstacle_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--algo", "greedy", "--obstacle", "maze"])
        assert exc.value.code == 2

    def test_unwritable_out_fails_before_any_world(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_trial_world", lambda *a: built.append(a))
        code, out, err = run(
            capsys, "trace", "--algo", "greedy", "--out", "/no/such/dir/x.svg"
        )
        assert (code, out, built) == (1, "", [])
        assert err.startswith("error: ") and err.count("\n") == 1


class TestGraphcheck:
    def test_report_fields(self, capsys):
        code, out, _ = run(capsys, "graphcheck", "--density", "3",
                           "--seed", "2")
        assert code == 0
        assert re.search(r"^nodes: \d+$", out, re.M)
        assert re.search(r"^links: \d+$", out, re.M)
        assert re.search(r"^mean degree: \d+\.\d{4}$", out, re.M)
        assert re.search(
            r"^interior mean degree: \d+\.\d{4} \(pi\*density = \d+\.\d{4}\)$",
            out, re.M,
        )
        assert re.search(r"^gabriel edges: \d+$", out, re.M)
        assert re.search(r"^planarity: PASS$", out, re.M)
        assert re.search(r"^connectivity: (CONNECTED|DISCONNECTED)$", out, re.M)

    def test_interior_degree_near_pi_density(self, capsys):
        _, out, _ = run(capsys, "graphcheck", "--density", "4.5",
                        "--seed", "0")
        m = re.search(r"interior mean degree: (\d+\.\d{4})", out)
        got = float(m.group(1))
        assert abs(got - math.pi * 4.5) / (math.pi * 4.5) < 0.05

    def test_dump_round_trips(self, capsys, tmp_path):
        dump = tmp_path / "w.txt"
        code, out, _ = run(
            capsys, "graphcheck", "--density", "2", "--seed", "1",
            "--dump", str(dump),
        )
        assert code == 0
        assert f"world dumped to {dump}" in out
        positions, edges = parse_world_text(dump.read_text())
        m = re.search(r"^nodes: (\d+)$", out, re.M)
        assert len(positions) == int(m.group(1))
        m = re.search(r"^links: (\d+)$", out, re.M)
        assert len(edges) == int(m.group(1))

    def test_dump_to_stdout_sends_the_report_to_stderr(self, capsys, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        args = ("graphcheck", "--density", "2", "--seed", "3")
        _, report, _ = run(capsys, *args)
        code, out, err = run(capsys, *args, "--dump", "-")
        assert code == 0
        world = build_trial_world(3, 2.0, 0, "none")
        assert out == world_to_text(world)
        positions, edges = parse_world_text(out)
        assert positions.tobytes() == world.positions.tobytes()
        assert edges.tolist() == world.edges.tolist()
        assert err == report + "world dumped to -\n"

    def test_unwritable_dump_fails_before_the_report(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_trial_world", lambda *a: built.append(a))
        code, out, err = run(
            capsys, "graphcheck", "--density", "2", "--dump", "/no/such/dir/w.txt"
        )
        assert (code, out, built) == (1, "", [])
        assert err.startswith("error: ") and err.count("\n") == 1


class TestPinnedWriterBytes:
    """The world and trace writers' bytes on one stripe world, as sha256
    digests: a dump on stdout, and gric+'s trace as SVG and as CSV."""

    ARGS = ("--seed", "3", "--density", "4", "--obstacle", "stripe")
    DIGESTS = {
        ("graphcheck", "--dump", "-"):
            "b1f7f81251e74d69c2e63d4dd7a0b22de949848586c8f14c0f964587c62d6709",
        ("trace", "--algo", "gric+"):
            "c19bd955d91d8cb2570ba3aa665bcb827a1827d9927b599313da0e3e442808b9",
        ("trace", "--algo", "gric+", "--format", "csv"):
            "37e53283c54e80586d8772c7b601cc51f15047f3d10253751fb9c1a8e4a30280",
    }

    @pytest.mark.parametrize("argv", list(DIGESTS), ids=" ".join)
    def test_stdout_digest(self, capsys, monkeypatch, argv):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        code, out, _ = run(capsys, *argv, *self.ARGS)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[argv]


class TestNonFiniteDensities:
    """A density that is not a finite number is a usage error, never a
    traceback, wherever it comes from."""

    @staticmethod
    def exit_code(capsys, *argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        assert "Traceback" not in capsys.readouterr().err
        return code

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400", "2,nan", "1:inf:1"])
    def test_sweep(self, capsys, tmp_path, text):
        argv = ("sweep", "--algo", "greedy", "--trials", "1")
        assert self.exit_code(capsys, *argv, "--densities", text) == 2
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"densities = {text}\n")
        assert self.exit_code(capsys, *argv, "--config", str(cfg)) == 2

    @pytest.mark.parametrize("command", ["graphcheck", "trace"])
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
    def test_single_density(self, capsys, command, text):
        assert self.exit_code(capsys, command, "--density", text) == 2


class TestLongRanges:
    """A densities range of more than MAX_DENSITIES points is a usage
    error, found from its length before a point is made."""

    def test_the_cap_counts_points(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_DENSITIES", 10)
        assert len(parse_densities("1:10:1")) == 10
        for text in ("1:11:1", "1:10:0.5"):
            with pytest.raises(ValueError, match="at most 10 points"):
                parse_densities(text)

    # Without the check the first two die in math.floor with an
    # OverflowError, and the last builds a million points.
    @pytest.mark.parametrize("text", ["0:1e308:1e-308", "-1e308:1e308:1", "0:1e6:1"])
    def test_huge_ranges(self, capsys, tmp_path, text):
        with pytest.raises(ValueError, match="at most 10000 points"):
            parse_densities(text)
        argv = ("sweep", "--algo", "greedy", "--trials", "1")
        assert TestNonFiniteDensities.exit_code(capsys, *argv, "--densities", text) == 2
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"densities = {text}\n")
        code, _, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 2 and "at most 10000 points" in err


class TestTooManyNodes:
    """A density that would drop more than MAX_NODES nodes is a usage
    error, found before a position is drawn. The cap is lowered here, so a
    missing check would allocate little."""

    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(worldgen, "MAX_NODES", 1000)

    def test_sweep(self, capsys, tmp_path):
        # 1.2 on the 30 x 30 standard region is 1080 nodes.
        argv = ("sweep", "--algo", "greedy", "--trials", "1")
        code, _, err = run(capsys, *argv, "--densities", "1,1.2")
        assert code == 2 and "at most 1000" in err
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("densities = 1.2\n")
        assert run(capsys, *argv, "--config", str(cfg))[0] == 2
        assert run(capsys, *argv, "--densities", "1.1")[0] == 0

    @pytest.mark.parametrize("command", ["graphcheck", "trace"])
    def test_single_density(self, capsys, command):
        code, _, err = run(capsys, command, "--density", "1.2")
        assert code == 2 and "at most 1000" in err and "Traceback" not in err
        assert run(capsys, command, "--density", "1.1")[0] == 0


# Runs the command line with any scipy import made to fail, and prints
# its exit code and every scipy module loaded.
SCIPY_PROBE = """
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")
        return None


sys.meta_path.insert(0, NoScipy())
from gricsim.cli import main
code = main(sys.argv[1:])
print(code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def run_without_scipy(*argv):
    """Exit code and scipy modules loaded, as printed by SCIPY_PROBE."""
    env = dict(os.environ, PYTHONPATH=str(Path(gricsim.__file__).parents[1]))
    env.pop(SEED_ENV_VAR, None)
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize(
    "argv",
    [
        ("--algo", "all", "--obstacle", "stripe", "--densities", "4,8", "--workers", "2"),
        ("--algo", "all", "--obstacle", "stripe", "--densities", "4,8", "--workers", "1"),
        ("--algo", "gric+", "--obstacle", "concave2", "--densities", "8,10", "--workers", "1"),
    ],
)
def test_sweeps_never_import_scipy(argv):
    # The package needs only numpy; no sweep even tries to load scipy.
    assert run_without_scipy("sweep", *argv, "--trials", "2", "--out", os.devnull) == "0 []"


@pytest.mark.parametrize(
    "argv, written",
    [
        (("graphcheck", "--obstacle", "stripe", "--density", "8"), None),
        (("graphcheck", "--obstacle", "concave2", "--density", "4", "--dump"), "w.txt"),
        (("trace", "--algo", "face", "--obstacle", "ushape", "--density", "8",
          "--format", "svg", "--out"), "t.svg"),
        (("trace", "--algo", "gric+", "--obstacle", "concave2", "--density", "6",
          "--format", "csv", "--out"), "t.csv"),
    ],
)
def test_graphcheck_and_trace_run_without_scipy(argv, written, tmp_path):
    # graphcheck builds every whole-graph view, the Gabriel subgraph
    # included, and face traces read Gabriel links: none needs scipy.
    out = tmp_path / (written or "unused")
    assert run_without_scipy(*argv, *([str(out)] if written else [])) == "0 []"
    assert written is None or out.stat().st_size > 0


# Runs the command line through its entry module, then prints the exit
# code, OPENBLAS_NUM_THREADS as the process sees it, the thread count of
# the process with numpy loaded ("-" off Linux), and whether the entry's
# main is the CLI's.
THREAD_PROBE = """
import os
import sys

from gricsim.__main__ import main
from gricsim import cli

code = main(sys.argv[1:])
import numpy

threads = "-"
if sys.platform == "linux":
    with open("/proc/self/status") as status:
        threads = next(ln.split()[1] for ln in status if ln.startswith("Threads:"))
print(code, os.environ.get("OPENBLAS_NUM_THREADS"), threads, main is cli.main)
"""


def run_probe(probe, openblas_threads, *argv):
    """The last line a probe prints, run with PYTHONPATH at this gricsim
    and OPENBLAS_NUM_THREADS set to openblas_threads, or unset for None."""
    env = dict(os.environ, PYTHONPATH=str(Path(gricsim.__file__).parents[1]))
    env.pop(SEED_ENV_VAR, None)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1].split()


class TestBlasThreadCap:
    """The CLI entry caps OpenBLAS at one thread before numpy loads; the
    library leaves the environment alone."""

    GRAPHCHECK = ("graphcheck", "--density", "1", "--seed", "0")

    def test_the_entry_runs_numpy_on_one_thread(self):
        code, value, threads, same = run_probe(THREAD_PROBE, None, *self.GRAPHCHECK)
        assert (code, value, same) == ("0", "1", "True")
        if sys.platform != "linux":
            pytest.skip("thread count read from /proc/self/status")
        assert threads == "1"

    def test_a_value_set_first_is_kept(self):
        code, value, _, _ = run_probe(THREAD_PROBE, "2", *self.GRAPHCHECK)
        assert (code, value) == ("0", "2")

    def test_the_library_leaves_the_environment_alone(self):
        probe = (
            "import os, gricsim, gricsim.cli, gricsim.harness\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        )
        assert run_probe(probe, None) == ["None"]

    def test_the_script_runs_the_capped_entry(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(gricsim.__file__).parents[2] / "pyproject.toml"
        if not pyproject.is_file():
            pytest.skip("not run from a source checkout")
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"gricsim": "gricsim.__main__:main"}

    def test_the_cli_module_is_no_second_entry(self):
        # Run as a script, gricsim.cli only defines the command line;
        # the capped entry is the one way to run it.
        probe = (
            "import runpy\n"
            "runpy.run_module('gricsim.cli', run_name='__main__', alter_sys=True)\n"
            "print('defined only')"
        )
        assert run_probe(probe, None, *self.GRAPHCHECK) == ["defined", "only"]


class TestFrozenImportHeap:
    """The CLI entry imports with the collector off and freezes the heap
    its import made; the library and an in-process cli.main leave the
    collector alone."""

    GRAPHCHECK = TestBlasThreadCap.GRAPHCHECK

    def test_the_entry_freezes_after_the_import(self):
        probe = (
            "import gc, runpy\n"
            "assert gc.get_freeze_count() == 0\n"
            "try:\n"
            "    runpy.run_module('gricsim', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "print(code, gc.get_freeze_count() > 0, gc.isenabled())"
        )
        assert run_probe(probe, None, *self.GRAPHCHECK) == ["0", "True", "True"]

    def test_the_entry_imports_with_the_collector_off(self):
        probe = (
            "import gc\n"
            "starts = []\n"
            "gc.callbacks.append(lambda phase, info: phase == 'start' and starts.append(info))\n"
            "import gricsim.__main__\n"
            "gc.callbacks.clear()\n"
            "print(len(starts), gc.isenabled())"
        )
        assert run_probe(probe, None) == ["0", "True"]

    def test_the_library_leaves_the_collector_alone(self):
        probe = (
            "import gc, gricsim, gricsim.cli, gricsim.harness\n"
            "print(gc.get_freeze_count())"
        )
        assert run_probe(probe, None) == ["0"]

    def test_cli_main_in_process_leaves_the_collector_alone(self):
        probe = (
            "import gc, sys\n"
            "from gricsim import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(code, gc.get_freeze_count())"
        )
        assert run_probe(probe, None, *self.GRAPHCHECK) == ["0", "0"]


class TestConfigAndEnvironment:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# experiment setup\nalgo = greedy\ndensities = 2\ntrials = 2\n"
        )
        code, out, _ = run(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        assert out.startswith(CSV_HEADER)
        assert len(out.strip().splitlines()) == 2

    def test_flags_beat_config(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("algo = greedy\ndensities = 2\ntrials = 2\nseed = 5\n")
        _, with_flag, _ = run(
            capsys, "sweep", "--config", str(cfg), "--seed", "9"
        )
        _, pure_flag, _ = run(
            capsys, "sweep", "--algo", "greedy", "--densities", "2",
            "--trials", "2", "--seed", "9",
        )
        assert with_flag == pure_flag

    def test_environment_beats_flag(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv(SEED_ENV_VAR, "11")
        _, via_env, _ = run(
            capsys, "sweep", "--algo", "greedy", "--densities", "2",
            "--trials", "2", "--seed", "3",
        )
        monkeypatch.delenv(SEED_ENV_VAR)
        _, direct, _ = run(
            capsys, "sweep", "--algo", "greedy", "--densities", "2",
            "--trials", "2", "--seed", "11",
        )
        assert via_env == direct

    def test_bad_environment_seed(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-seed")
        code, _, err = run(
            capsys, "sweep", "--algo", "greedy", "--densities", "2",
            "--trials", "1",
        )
        assert code == 2
        assert SEED_ENV_VAR in err

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("algo = greedy\nteleport = yes\n")
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert "teleport" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "sweep", "--config", str(tmp_path / "nope.cfg")
        )
        assert code == 2

    def test_garbage_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("algo greedy\n")
        code, _, _ = run(capsys, "sweep", "--config", str(cfg))
        assert code == 2

    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_flags_beat_config_values_they_follow(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("obstacle = stripe\nformat = svg\nseed = 4\n")
        argv = ("trace", "--density", "3")
        flags = ("--obstacle", "ushape", "--format", "csv", "--seed", "1")
        via_both = run(capsys, *argv, "--config", str(cfg), *flags)
        assert via_both == run(capsys, *argv, *flags)
        assert via_both != run(capsys, *argv, "--config", str(cfg))

    def test_keys_of_other_subcommands_are_ignored(self, capsys, tmp_path):
        # Their values are not even checked: graphcheck takes no algo.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("algo = dijkstra\nformat = png\ndensities = x\ndensity = 2\n")
        argv = ("graphcheck", "--seed", "1")
        assert run(capsys, *argv, "--config", str(cfg)) == run(capsys, *argv, "--density", "2")

    def test_config_is_no_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"config = {cfg}\n")
        code, _, err = run(capsys, "graphcheck", "--config", str(cfg))
        assert code == 2 and "unknown config keys: config" in err

    def test_byte_order_mark_is_dropped(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("\ufeffalgo = greedy\ndensities = 2\ntrials = 2\n", encoding="utf-8")
        via_config = run(capsys, "sweep", "--config", str(cfg))
        assert via_config == run(
            capsys, "sweep", "--algo", "greedy", "--densities", "2", "--trials", "2"
        )
        assert via_config[0] == 0

    def test_undecodable_config_is_an_unreadable_file(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(b"algo = greedy\n\xff\n")
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read config file {cfg}: ")
        assert err.count("\n") == 1


# Each subcommand's small run, as flags; the option under test is left out
# of it and given either as a flag or in a config file.
BASE_FLAGS = {
    "sweep": {"algo": "greedy", "densities": "2", "trials": "2"},
    "trace": {"density": "3"},
    "graphcheck": {"density": "2"},
}

# Every option of every subcommand but --config: a valid value that is
# not the default, and a value argparse rejects, or None for a path.
# "{tmp}" stands for the test's own directory.
OPTIONS = {
    ("sweep", "algo"): ("gric+", "dijkstra"),
    ("sweep", "obstacle"): ("stripe", "maze"),
    ("sweep", "densities"): ("2,2.5", "5:1:0.5"),
    ("sweep", "trials"): ("3", "three"),
    ("sweep", "seed"): ("5", "x"),
    ("sweep", "out"): ("{tmp}/rows.csv", None),
    ("sweep", "workers"): ("2", "two"),
    ("trace", "algo"): ("face", "all"),
    ("trace", "obstacle"): ("ushape", "maze"),
    ("trace", "density"): ("4", "dense"),
    ("trace", "seed"): ("2", "1.5"),
    ("trace", "format"): ("csv", "png"),
    ("trace", "out"): ("{tmp}/t.svg", None),
    ("graphcheck", "density"): ("3", "nan!"),
    ("graphcheck", "obstacle"): ("concave2", "maze"),
    ("graphcheck", "seed"): ("4", "-"),
    ("graphcheck", "dump"): ("{tmp}/w.txt", None),
}


class TestEveryOption:
    """Each option is declared once: a config file sets exactly the
    subcommands' flags, and its values are converted and checked as the
    flags' are."""

    @staticmethod
    def argv(command, key):
        base = BASE_FLAGS[command]
        return [command, *(f"--{k}={v}" for k, v in base.items() if k != key)]

    @staticmethod
    def config(tmp_path, key, value):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"# one option\n{key} = {value}\n")
        return str(cfg)

    @pytest.mark.parametrize("command", sorted(BASE_FLAGS))
    def test_the_table_holds_every_flag(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        flags = set(re.findall(r"--([a-z][a-z-]*)", capsys.readouterr().out))
        assert flags - {"help", "config"} == {k for c, k in OPTIONS if c == command}

    @pytest.mark.parametrize("command, key", sorted(OPTIONS))
    def test_a_config_value_acts_as_the_flag(self, capsys, monkeypatch, tmp_path, command, key):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        value = OPTIONS[command, key][0].format(tmp=tmp_path)
        written = Path(value) if "{tmp}" in OPTIONS[command, key][0] else None

        def outputs(*argv):
            code, out, _ = run(capsys, *self.argv(command, key), *argv)
            assert code == 0
            return out, written.read_bytes() if written else None

        via_flag = outputs(f"--{key}", value)
        assert via_flag == outputs("--config", self.config(tmp_path, key, value))
        assert written is None or via_flag[1]

    @pytest.mark.parametrize(
        "command, key", sorted(k for k, (_, bad) in OPTIONS.items() if bad is not None)
    )
    def test_a_bad_value_fails_alike_as_flag_and_config(self, capsys, tmp_path, command, key):
        bad = OPTIONS[command, key][1]
        with pytest.raises(SystemExit) as exc:
            main([*self.argv(command, key), f"--{key}={bad}"])
        assert exc.value.code == 2
        message = capsys.readouterr().err.strip().splitlines()[-1].partition("error: ")[2]
        assert message.startswith(f"argument --{key}: ")

        cfg = self.config(tmp_path, key, bad)
        code, out, err = run(capsys, *self.argv(command, key), "--config", cfg)
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: ") and line.endswith(message)
        assert cfg in line and f"{key}={bad!r}" in line
