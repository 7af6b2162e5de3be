"""Race all six routers on open ground at a few node densities.

With nothing in the way, everything except plain greedy forwarding is
nearly perfect once the network is dense enough to be connected; greedy
stops at local minima, nodes with no neighbor strictly closer to the
destination. Uses 100 trials per point, so expect success rates a
couple of points off the long-run values.
"""

from gricsim.harness import Algorithm, ExperimentConfig, run_sweeps

DENSITIES = (2.5, 3.5, 5.0)
TRIALS = 100


def main() -> None:
    print(f"{TRIALS} trials per point, open field, shared worlds\n")
    header = "density " + "".join(f"{a.value:>9s}" for a in Algorithm)
    print(header)
    configs = [
        ExperimentConfig(
            algorithm=algorithm,
            densities=DENSITIES,
            trials_per_point=TRIALS,
            master_seed=0,
        )
        for algorithm in Algorithm
    ]
    reports = run_sweeps(configs)
    for i, density in enumerate(DENSITIES):
        cells = "".join(f"{r.rows[i].success_rate:>9.2f}" for r in reports)
        print(f"{density:>7.1f}{cells}")
    print("\nEvery router sees the same random worlds, so the columns are")
    print("paired samples: a gap between them is a property of the rule,")
    print("not of the draw.")


if __name__ == "__main__":
    main()
