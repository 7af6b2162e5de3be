"""gricsim benchmark: one workload, timed or traced, with its output checks.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --write-reference

--trace 0 times rounds of the workload for S seconds with tracing off
and reports the end-to-end metrics. --trace 1 runs the workload's fixed
trace rounds once untraced and once traced, in this process, and
reports the per-layer metrics and the tracing overhead. Both check the
sweep rows and run the brute-force oracle outside the timed region. The
last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import oracle
from workloads import WORKLOADS, check_rows, csv_digest, round_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference_digests.json"
SETUP_REPEATS = 5
ROUND_TIMEOUT_S = 170


def program_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("GEOROUTE_SEED", None)  # it would override the CLI's --seed
    return env


def run_process(args: list[str]) -> tuple[int, str, str]:
    """Run one program process; on timeout kill it and its pool workers."""
    with subprocess.Popen(
        args,
        env=program_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
    return proc.returncode, out, err


def children_rusage() -> tuple[float, int]:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss


def cli_rounds(wl, seed: int, seconds: float) -> list[dict]:
    """Rounds as users run them: one `gricsim sweep` process each."""
    rounds = []
    start = time.perf_counter()
    while True:
        r = len(rounds)
        cpu0, _ = children_rusage()
        t0 = time.perf_counter()
        code, out, err = run_process(
            [sys.executable, "-m", "gricsim", *wl.cli_args(round_seed(seed, r))]
        )
        wall = time.perf_counter() - t0
        cpu1, _ = children_rusage()
        rec = {"round": r, "trials": wl.trials_per_round, "wall_s": wall, "cpu_s": cpu1 - cpu0}
        lines = out.splitlines()
        if code != 0 or not lines:
            rec["error"] = f"exit {code}: {err.strip()[-500:]}"
            lines = [""]
        rec["header"], rec["lines"] = lines[0], lines[1:]
        rounds.append(rec)
        if time.perf_counter() - start >= seconds:
            return rounds


def child_rounds(wl, seed: int, seconds: float) -> list[dict]:
    """Rounds of a one-process workload, in one fresh interpreter."""
    code, out, err = run_process(
        [sys.executable, str(HERE / "sweep_child.py"), str(ROOT), wl.name, str(seed), str(seconds)]
    )
    rounds = [json.loads(line) for line in out.splitlines()]
    if code != 0:
        rounds.append(
            {
                "round": len(rounds),
                "trials": wl.trials_per_round,
                "wall_s": 0.0,
                "cpu_s": 0.0,
                "lines": [],
                "error": f"exit {code}: {err.strip()[-500:]}",
            }
        )
    return rounds


def run_rounds(wl, seed: int, seconds: float) -> list[dict]:
    return (cli_rounds if wl.workers > 1 else child_rounds)(wl, seed, seconds)


def import_seconds(env) -> float:
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import gricsim.cli"], env=env, check=True, timeout=60
    )
    return time.perf_counter() - t0


def check_rounds(wl, rounds, header) -> tuple[int, list[str], list[str]]:
    """Failed trials, broken checks, and rounds that raised.

    A round that raised counts all its trials as failed but breaks no
    check: correctness speaks of the outputs that were produced.
    """
    failed, problems, raised = 0, [], []
    for rec in rounds:
        if "error" in rec:
            failed += rec["trials"]
            raised.append(f"round {rec['round']} raised: {rec['error']}")
            continue
        if rec.get("header", header) != header:
            problems.append(f"round {rec['round']}: CSV header {rec['header']!r}")
        for trials, problem in check_rows(wl, rec["lines"]):
            failed += trials
            problems.append(f"round {rec['round']}: {problem}")
    return failed, problems, raised


def own_row(algo: str, obstacle: str, density: float, outcomes) -> str:
    """A sweep row aggregated here from run_trial outcomes, in CSV form."""
    succ = [o for o in outcomes if o.status.value == "success"]

    def med(xs):
        return statistics.median(xs) if xs else float("nan")

    counts = Counter(o.status.value for o in outcomes)
    return ",".join(
        [
            algo,
            obstacle,
            f"{density:.4f}",
            str(len(outcomes)),
            f"{len(succ) / len(outcomes):.4f}",
            f"{med([o.hops for o in succ]):.4f}",
            f"{med([o.distance for o in succ]):.4f}",
            str(counts["fail_ttl"]),
            str(counts["fail_oob"]),
            str(counts["fail_stuck"]),
        ]
    )


def oracle_checks(wl, seed: int, round0_lines: list[str]) -> tuple[int, list[str]]:
    """Brute-force checks on round 0's trial-0 worlds and replayed trials.

    For a pooled workload, also aggregates round 0's rows at the first
    density from run_trial here and compares them with the pool's rows.
    """
    from gricsim.harness import DEST_POINT, build_trial_world, run_trial

    seed0 = round_seed(seed, 0)

    def config(algo):
        return wl.config(algo, seed0, record_path=True)

    failed, problems = 0, []
    for density in wl.densities:
        where = f"{wl.obstacle} d={density:g} seed={seed0} trial 0"
        world = build_trial_world(seed0, density, 0, wl.obstacle)
        links = oracle.brute_links(world.positions, world.obstacle.walls)
        if links != oracle.edge_set(world.edges):
            failed += len(wl.algorithms)
            problems.append(f"{where}: link set differs from brute force")
        needs_gabriel = "face" in wl.algorithms or density in wl.gabriel_oracle
        gabriel = oracle.edge_set(world.gabriel_edges()) if needs_gabriel else set()
        if density in wl.gabriel_oracle and oracle.brute_gabriel(world.positions, links) != gabriel:
            failed += 1 if "face" in wl.algorithms else 0
            problems.append(f"{where}: Gabriel edges differ from brute force")
        for algo in wl.algorithms:
            out = run_trial(config(algo), density, 0)
            face = algo == "face"
            cap = min(world.n, 3 * max(1, len(gabriel))) if face else world.n
            bad = oracle.check_path(world, algo, out, DEST_POINT, gabriel if face else links, cap)
            if bad:
                failed += 1
                problems += [f"{where}: {p}" for p in bad]
    if wl.workers > 1:
        density = wl.densities[0]
        pooled = [line for line in round0_lines if line.split(",")[2] == f"{density:.4f}"]
        for algo, line in zip(wl.algorithms, pooled):
            outcomes = [run_trial(config(algo), density, t) for t in range(wl.trials)]
            mine = own_row(algo, wl.obstacle, density, outcomes)
            if mine != line:
                failed += wl.trials
                problems.append(f"--workers {wl.workers} row {line!r} != run_trial row {mine!r}")
    return failed, problems


def digest_line(wl, seed: int, lines: list[str]) -> tuple[str, str]:
    from gricsim.cli import CSV_HEADER

    digest = csv_digest(CSV_HEADER, lines)
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref = refs.get(wl.name, {}).get(str(seed))
    verdict = "no reference" if ref is None else ("match" if ref == digest else f"MISMATCH (reference {ref})")
    return digest, f"round-0 rows sha256 {digest}: {verdict}"


def timed_run(wl, seed: int, seconds: float):
    env = program_env()
    import_seconds(env)  # writes bytecode caches before anything is timed
    rounds = run_rounds(wl, seed, seconds)
    _, maxrss_kb = children_rusage()
    setup = statistics.median(import_seconds(env) for _ in range(SETUP_REPEATS))

    sys.path.insert(0, str(ROOT / "src"))
    from gricsim.cli import CSV_HEADER

    failed, problems, raised = check_rounds(wl, rounds, CSV_HEADER)
    if "error" not in rounds[0]:
        f, p = oracle_checks(wl, seed, rounds[0]["lines"])
        failed, problems = failed + f, problems + p
    attempted = sum(rec["trials"] for rec in rounds)
    wall = sum(rec["wall_s"] for rec in rounds)
    cpu = sum(rec["cpu_s"] for rec in rounds)
    metrics = {
        "trials_per_s": (attempted / wall if wall else 0.0, "trials/s"),
        "cpu_ms_per_trial": (1e3 * cpu / attempted, "ms"),
        "peak_rss_mb": (maxrss_kb / 1024, "MB"),
        "setup_s": (setup, "s"),
    }
    notes = [f"{len(rounds)} rounds of {wl.trials_per_round} trials in {wall:.2f} s", *raised]
    return attempted, failed, problems, metrics, rounds[0]["lines"], notes


def traced_run(wl, seed: int):
    sys.path.insert(0, str(ROOT / "src"))
    from gricsim import harness
    from gricsim.cli import CSV_HEADER, csv_line

    from tracing import Tracer

    def config(algo, r):
        return wl.config(algo, round_seed(seed, r))

    def sweep_round(r):
        t0 = time.perf_counter()
        reports = [harness.run_sweep(config(algo, r)) for algo in wl.algorithms]
        wall = time.perf_counter() - t0
        return wall, [csv_line(row) for rep in reports for row in rep.rows]

    # One trial per router first, so neither side pays first-call costs;
    # then each round runs untraced and traced, in alternating order, so
    # that neither side always runs on freshly allocated memory.
    for algo in wl.algorithms:
        harness.run_trial(config(algo, 0), wl.densities[0], 0)
    tracer = Tracer()
    plain_wall = traced_wall = 0.0
    plain, traced = {}, {}
    for r in range(wl.trace_rounds):
        for traced_pass in ((False, True) if r % 2 == 0 else (True, False)):
            if traced_pass:
                with tracer.installed():
                    wall, traced[r] = sweep_round(r)
                traced_wall += wall
            else:
                wall, plain[r] = sweep_round(r)
                plain_wall += wall
    rounds = [
        {"round": r, "trials": wl.trials_per_round, "lines": traced[r]}
        for r in range(wl.trace_rounds)
    ]
    failed, problems, _ = check_rounds(wl, rounds, CSV_HEADER)
    if traced != plain:
        problems.append("tracing changed the sweep rows")
    f, p = oracle_checks(wl, seed, traced[0])
    failed, problems = failed + f, problems + p

    metrics = tracer.layer_metrics()
    starts, pool_wall = pool_probe(wl, seed) if wl.workers > 1 else (0, 0.0)
    metrics["harness.pool_starts"] = (starts, "count")
    metrics["harness.pool_efficiency"] = (
        plain_wall / (wl.workers * pool_wall) if pool_wall else 0.0,
        "ratio",
    )
    metrics["tracing.overhead"] = (traced_wall / plain_wall - 1.0, "ratio")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans_{wl.name}_seed{seed}.jsonl.gz"
    tracer.write(spans_path)
    notes = [
        f"untraced {plain_wall:.2f} s, traced {traced_wall:.2f} s over "
        f"{wl.trace_rounds} round(s) of {wl.trials_per_round} trials",
        f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}",
    ]
    attempted = wl.trace_rounds * wl.trials_per_round
    return attempted, failed, problems, metrics, traced[0], notes


def pool_probe(wl, seed: int) -> tuple[int, float]:
    """Process pools started per `gricsim sweep`, and its in-process wall time."""
    import multiprocessing

    from gricsim import cli

    pool = multiprocessing.Pool
    starts = 0

    def counting_pool(*args, **kwargs):
        nonlocal starts
        starts += 1
        return pool(*args, **kwargs)

    multiprocessing.Pool = counting_pool
    try:
        t0 = time.perf_counter()
        for r in range(wl.trace_rounds):
            code = cli.main(wl.cli_args(round_seed(seed, r)) + ["--out", os.devnull])
            if code != 0:
                raise RuntimeError(f"gricsim sweep exited {code}")
        wall = time.perf_counter() - t0
    finally:
        multiprocessing.Pool = pool
    return starts // wl.trace_rounds, wall


def write_reference(wl, seed: int) -> None:
    rec = run_rounds(wl, seed, 0.0)[0]
    if "error" in rec:
        sys.exit(f"round 0 raised: {rec['error']}")
    sys.path.insert(0, str(ROOT / "src"))
    from gricsim.cli import CSV_HEADER

    digest = csv_digest(CSV_HEADER, rec["lines"])
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    refs.setdefault(wl.name, {})[str(seed)] = digest
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"{wl.name} seed {seed}: {digest}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (ROOT / "src" / "gricsim" / "__init__.py").is_file():
        print(f"error: no gricsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.write_reference:
        write_reference(wl, args.seed)
        return 0

    if args.trace:
        attempted, failed, problems, metrics, round0_lines, notes = traced_run(wl, args.seed)
    else:
        attempted, failed, problems, metrics, round0_lines, notes = timed_run(
            wl, args.seed, args.seconds
        )
    digest, digest_note = digest_line(wl, args.seed, round0_lines)
    print(f"# {wl.name} seed {args.seed} trace {args.trace}")
    for note in notes + [digest_note]:
        print(f"#   {note}")
    for name, (value, unit) in metrics.items():
        print(f"#   {name} = {value:.6g} {unit}")
    for problem in problems:
        print(f"#   CHECK FAILED: {problem}")
    print(f"#   {failed} of {attempted} trials failed; {len(problems)} check(s) broken")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result_{wl.name}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(dict(result, digest=digest), indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
