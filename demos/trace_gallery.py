"""Render SVG traces of one message rounding the open-box obstacle.

Writes gric_plus_ushape.svg and greedy_ushape.svg into the working
directory: the first shows the contour walk around the box, the second
shows greedy forwarding piling into the inside back wall. Open them in
any browser.
"""

from gricsim.cli import render_trace_svg
from gricsim.harness import (
    Algorithm,
    ExperimentConfig,
    build_trial_world,
    run_trial,
)

DENSITY = 8.0
SEED = 1
TRIAL = 0


def render(algorithm: Algorithm, filename: str) -> None:
    cfg = ExperimentConfig(
        algorithm=algorithm,
        obstacle="ushape",
        densities=(DENSITY,),
        trials_per_point=1,
        master_seed=SEED,
        record_path=True,
    )
    world = build_trial_world(SEED, DENSITY, TRIAL, "ushape")
    outcome = run_trial(cfg, DENSITY, TRIAL, world=world)
    label = (
        f"{algorithm.value} on ushape, density {DENSITY:g}: "
        f"{outcome.status.value}, {outcome.hops} hops"
    )
    with open(filename, "w") as fh:
        fh.write(render_trace_svg(world, outcome, label))
    print(f"{filename}: {outcome.status.value} after {outcome.hops} hops")


def main() -> None:
    render(Algorithm.GRIC_PLUS, "gric_plus_ushape.svg")
    render(Algorithm.GREEDY, "greedy_ushape.svg")
    print("\nThe flag router's trace enters the box, realizes the exit is")
    print("behind it, raises a flag, and walks the box boundary; greedy's")
    print("trace is a short stub ending at the inner wall.")


if __name__ == "__main__":
    main()
