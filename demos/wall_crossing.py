"""What a single wall does to each forwarding rule.

A vertical wall sits halfway between the endpoints, long enough that no
straight-ish path fits past it. Greedy forwarding dies in the shadow of
the wall: every neighbor that exists is farther from the destination
than the local minimum it reaches. The flag router notices it has been
turned around and switches to contour mode, which walks the wall until
the far corner lets it resume course.
"""

from gricsim.harness import Algorithm, ExperimentConfig, run_sweeps

TRIALS = 100


def main() -> None:
    print(f"stripe wall, density 5, {TRIALS} trials\n")
    print(f"{'router':>8s} {'success':>8s} {'median hops':>12s} "
          f"{'stuck':>6s} {'lost':>6s}")
    configs = [
        ExperimentConfig(
            algorithm=algorithm,
            obstacle="stripe",
            densities=(5.0,),
            trials_per_point=TRIALS,
            master_seed=0,
        )
        for algorithm in Algorithm
    ]
    for report in run_sweeps(configs):
        row = report.rows[0]
        hops = "-" if row.success_rate == 0 else f"{row.median_hops:.0f}"
        print(
            f"{row.algorithm:>8s} {row.success_rate:>8.2f} {hops:>12s} "
            f"{row.fail_stuck:>6d} {row.fail_oob + row.fail_ttl:>6d}"
        )
    print("\nThe interesting column is 'stuck': greedy's failures are all")
    print("local minima at the wall, while the inertia family either")
    print("slides around the wall or wanders out of bounds trying.")


if __name__ == "__main__":
    main()
