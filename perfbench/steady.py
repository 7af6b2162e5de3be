"""Steadiness check: run workloads on several seeds and report the spread.

Usage:
    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 0]

Runs `run.py --trace 0` once per seed for each workload, with the run
length from BENCHMARK.json, and prints for every end-to-end metric the
median, the quartiles (statistics.quantiles, n=4), the spread
(Q3 - Q1) / median and that spread as a share of the metric's bound. The
bounds in BENCHMARK.json are set from what this reports: each spread
should stay under a third of its bound. Per-run results go to
perfbench/out/steady_<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    args = ap.parse_args()
    (HERE / "out").mkdir(exist_ok=True)
    for name in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0",
                ],
                cwd=ROOT,
                capture_output=True,
                text=True,
                check=True,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            results.append(dict(result, seed=seed))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
            ), flush=True)
        (HERE / "out" / f"steady_{name}.json").write_text(json.dumps(results, indent=1) + "\n")
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{name}: {len(results)} runs, failed share {sorted(shares)}, "
              f"all correct: {all(r['correct'] for r in results)}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            print(
                f"  {metric['name']:<18} median {med:.5g} {metric['unit']}  "
                f"Q1 {q1:.5g}  Q3 {q3:.5g}  spread {spread:.3f}  "
                f"bound {metric['bound']}  spread/bound {spread / metric['bound']:.2f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
