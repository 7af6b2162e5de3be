"""Workload definitions and the sweep-row checks shared by the benchmark.

A run of a workload is a sequence of rounds. Round r of seed s is one
sweep over every (algorithm, density) pair of the workload with
`trials` trials each, under master seed 1000 * s + r, so every round
routes fresh worlds and the same seed always gives the same rounds.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

ALL_ALGORITHMS = ("greedy", "inertia", "gric-", "gric+", "ltp", "face")

# Rows may not report a shorter delivered path than this: the endpoints
# are 20 apart, less the unit delivery radius and the source snap.
MIN_MEDIAN_DISTANCE = 18.0


@dataclass(frozen=True)
class Workload:
    name: str
    obstacle: str
    densities: tuple[float, ...]
    algorithms: tuple[str, ...]
    trials: int              # trials per (algorithm, density) in one round
    workers: int             # > 1: each round is one `gricsim sweep` process
    trace_rounds: int        # rounds covered by the traced run
    gabriel_oracle: tuple[float, ...]  # densities whose Gabriel set is rebuilt

    @property
    def trials_per_round(self) -> int:
        return self.trials * len(self.densities) * len(self.algorithms)

    def config(self, algorithm: str, master_seed: int, record_path: bool = False):
        """The harness configuration of one router's sweep in one round."""
        from gricsim.harness import Algorithm, ExperimentConfig

        return ExperimentConfig(
            algorithm=Algorithm(algorithm),
            obstacle=self.obstacle,
            densities=self.densities,
            trials_per_point=self.trials,
            master_seed=master_seed,
            record_path=record_path,
        )

    def cli_args(self, master_seed: int) -> list[str]:
        """`gricsim sweep --algo all` arguments of one round."""
        return [
            "sweep",
            "--algo", "all",
            "--obstacle", self.obstacle,
            "--densities", ",".join(f"{d:g}" for d in self.densities),
            "--workers", str(self.workers),
            "--trials", str(self.trials),
            "--seed", str(master_seed),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="all_routers_stripe",
            obstacle="stripe",
            densities=(4.0, 8.0),
            algorithms=ALL_ALGORITHMS,
            trials=4,
            workers=2,
            trace_rounds=2,
            gabriel_oracle=(4.0,),
        ),
        Workload(
            name="concave2_dense",
            obstacle="concave2",
            densities=(8.0, 10.0),
            algorithms=("gric-", "gric+"),
            trials=2,
            workers=1,
            trace_rounds=3,
            gabriel_oracle=(),
        ),
        Workload(
            name="open_sparse",
            obstacle="none",
            densities=(2.0, 2.5, 3.0),
            algorithms=("gric-", "gric+", "inertia"),
            trials=5,
            workers=1,
            trace_rounds=10,
            gabriel_oracle=(2.0,),
        ),
    )
}


def round_seed(seed: int, r: int) -> int:
    return 1000 * seed + r


def csv_digest(header: str, lines: list[str]) -> str:
    """sha256 of the CSV text `gricsim sweep` prints for these rows."""
    text = "\n".join([header, *lines]) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def check_rows(wl: Workload, lines: list[str]) -> list[tuple[int, str]]:
    """Property checks on one round's CSV rows.

    Returns (trials affected, problem) pairs; empty when all rows hold.
    """
    expected = [(a, d) for a in wl.algorithms for d in wl.densities]
    if len(lines) != len(expected):
        return [(wl.trials_per_round, f"{len(lines)} rows, expected {len(expected)}")]
    problems = []
    for line, (algo, dens) in zip(lines, expected):
        f = line.split(",")
        where = f"row {line!r}"
        if len(f) != 10 or f[0] != algo or f[1] != wl.obstacle or float(f[2]) != dens:
            problems.append((wl.trials, f"{where}: expected {algo} {wl.obstacle} {dens}"))
            continue
        trials, rate = int(f[3]), float(f[4])
        hops, dist = float(f[5]), float(f[6])
        ttl, oob, stuck = int(f[7]), int(f[8]), int(f[9])
        succ = round(rate * trials)
        bad = []
        if trials != wl.trials:
            bad.append(f"{trials} trials, expected {wl.trials}")
        if abs(succ / trials - rate) > 5e-5:
            bad.append("success rate is not a whole count")
        if succ + ttl + oob + stuck != trials:
            bad.append("status counts do not add up to the trial count")
        if succ == 0:
            if not (math.isnan(hops) and math.isnan(dist)):
                bad.append("medians reported without a success")
        else:
            if not hops >= dist:
                bad.append("median_hops < median_distance")
            if not dist >= MIN_MEDIAN_DISTANCE:
                bad.append(f"median_distance < {MIN_MEDIAN_DISTANCE}")
        if bad:
            problems.append((trials, f"{where}: {'; '.join(bad)}"))
    return problems
