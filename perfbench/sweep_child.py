"""Timed rounds of a one-process workload, run in a fresh interpreter.

Usage: python3 sweep_child.py ROOT WORKLOAD SEED SECONDS

Runs rounds 0, 1, ... of WORKLOAD through `harness.run_sweep` until
SECONDS have passed, and prints one JSON line per round with its wall
time, its CPU time, its trial count and its CSV rows. Running in its own
process keeps the benchmark's own memory and imports out of the figures.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, round_seed


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(root: str, name: str, seed: int, seconds: float) -> None:
    sys.path.insert(0, str(Path(root) / "src"))
    from gricsim.cli import csv_line
    from gricsim.harness import run_sweep

    wl = WORKLOADS[name]
    start = time.perf_counter()
    r = 0
    while True:
        record = {"round": r, "trials": wl.trials_per_round}
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            reports = [
                run_sweep(wl.config(algo, round_seed(seed, r))) for algo in wl.algorithms
            ]
        except Exception as exc:  # a raising trial fails its round, not the run
            record["error"] = f"{type(exc).__name__}: {exc}"
            reports = []
        record["wall_s"] = time.perf_counter() - t0
        record["cpu_s"] = cpu_seconds() - c0
        record["lines"] = [csv_line(row) for rep in reports for row in rep.rows]
        print(json.dumps(record), flush=True)
        r += 1
        if time.perf_counter() - start >= seconds:
            break


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4]))
