"""Command-line front end.

Three subcommands cover the whole laboratory: ``sweep`` runs Monte Carlo
experiments and writes CSV, ``trace`` draws one message's journey as an
SVG (or dumps the waypoints as CSV), and ``graphcheck`` prints structural
statistics of a generated world. Options may also come from a flat
key=value config file; explicit flags win over the file, and the
GEOROUTE_SEED environment variable wins over both for the seed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .harness import (
    DEST_POINT,
    SOURCE_POINT,
    STANDARD_REGION,
    Algorithm,
    ExperimentConfig,
    build_trial_world,
    run_sweeps,
    run_trial,
    source_node,
)
from .worldgen import (
    OBSTACLE_NAMES,
    World,
    find_planarity_violation,
    interior_mean_degree,
    is_connected,
    make_obstacle,
    node_count,
    world_to_text,
)

CSV_HEADER = (
    "algorithm,obstacle,density,trials,success_rate,"
    "median_hops,median_distance,fail_ttl,fail_oob,fail_stuck"
)

# Pixels per world unit in SVG output, plus a quiet margin around the
# region so border strokes are not clipped.
SVG_SCALE = 20.0
SVG_MARGIN = 10.0

ALGO_CHOICES = tuple(a.value for a in Algorithm)

SEED_ENV_VAR = "GEOROUTE_SEED"

# Most points a densities range may hold; more is a typo in the step.
MAX_DENSITIES = 10_000

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Bad flag/config/environment values; maps to exit code 2."""


def parse_densities(text: str) -> tuple[float, ...]:
    """Parse a density list: 'a:b:step' range, comma list, or one value.

    Range endpoints are inclusive within 1e-9 so '1:10:0.5' yields 19
    points with no floating-point fencepost surprises.
    """
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad densities {text!r}: ranges look like start:stop:step")
        start, stop, step = _finite_floats(text, parts)
        if step <= 0:
            raise ValueError(f"bad densities {text!r}: range step must be positive")
        if stop < start:
            raise ValueError(f"bad densities {text!r}: range stop must not precede start")
        # The range has floor(steps) + 1 points; an infinite steps fails too.
        steps = (stop - start) / step + 1e-9
        if not steps < MAX_DENSITIES:
            raise ValueError(
                f"bad densities {text!r}: a range may hold at most {MAX_DENSITIES} points"
            )
        return tuple(start + i * step for i in range(int(math.floor(steps)) + 1))
    if "," in text:
        return _finite_floats(text, [p for p in text.split(",") if p.strip()])
    return _finite_floats(text, [text])


def _finite_floats(text: str, parts: list[str]) -> tuple[float, ...]:
    """The parts of the densities text as floats; nan and inf are errors."""
    values = tuple(float(p) for p in parts)
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"bad densities {text!r}: values must be finite")
    return values


def load_config(path: str) -> dict[str, str]:
    """Read a flat key=value config file.

    Blank lines and '#' comments are skipped. Values stay strings here;
    they go through the same converters as the corresponding flags.
    """
    options: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                options[key.strip()] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    return options


# Every option a config file may set, across all subcommands. Keys not in
# this set are typos and rejected; keys that do not apply to the active
# subcommand are ignored so one file can serve several commands.
_CONFIG_KEYS = {
    "algo",
    "obstacle",
    "densities",
    "density",
    "trials",
    "seed",
    "out",
    "workers",
    "format",
    "dump",
}


def _resolve(ns: argparse.Namespace, key: str, convert, default):
    """Flag if given, else config-file value, else the default."""
    flag_value = getattr(ns, key, None)
    if flag_value is not None:
        return flag_value
    config = getattr(ns, "_config_options", {})
    if key in config:
        try:
            return convert(config[key])
        except ValueError as exc:
            raise UsageError(f"bad config value {key}={config[key]!r}: {exc}") from None
    return default


def _resolve_seed(ns: argparse.Namespace) -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    else:
        seed = _resolve(ns, "seed", int, 0)
    if seed < 0:
        raise UsageError("seed must be nonnegative")
    return seed


def _parse_algo(name: str) -> Algorithm:
    try:
        return Algorithm(name)
    except ValueError:
        raise UsageError(
            f"unknown algorithm {name!r}; expected one of {', '.join(ALGO_CHOICES)}"
        ) from None


def _check_obstacle(name: str) -> str:
    if name not in OBSTACLE_NAMES:
        raise UsageError(
            f"unknown obstacle {name!r}; expected one of {', '.join(OBSTACLE_NAMES)}"
        )
    return name


def _open_out(path: str):
    """Output stream for '-' or a file path, with a flag for closing."""
    if path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def _fmt(value: float) -> str:
    return f"{value:.4f}"


def csv_line(row) -> str:
    return ",".join(
        (
            row.algorithm,
            row.obstacle,
            _fmt(row.density),
            str(row.trials),
            _fmt(row.success_rate),
            _fmt(row.median_hops),
            _fmt(row.median_distance),
            str(row.fail_ttl),
            str(row.fail_oob),
            str(row.fail_stuck),
        )
    )


def cmd_sweep(ns: argparse.Namespace) -> int:
    algo_name = _resolve(ns, "algo", str, None)
    if algo_name is None:
        raise UsageError("sweep needs --algo (or algo= in the config file)")
    obstacle = _check_obstacle(_resolve(ns, "obstacle", str, "none"))
    densities = _resolve(ns, "densities", parse_densities, (5.0,))
    trials = _resolve(ns, "trials", int, 200)
    seed = _resolve_seed(ns)
    out_path = _resolve(ns, "out", str, "-")
    workers = _resolve(ns, "workers", int, 1)
    if workers < 1:
        raise UsageError("workers must be at least 1")

    if algo_name == "all":
        algorithms = list(Algorithm)
    else:
        algorithms = [_parse_algo(algo_name)]

    try:
        configs = [
            ExperimentConfig(
                algorithm=algo,
                obstacle=obstacle,
                densities=densities,
                trials_per_point=trials,
                master_seed=seed,
            )
            for algo in algorithms
        ]
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    stream, owned = _open_out(out_path)
    try:
        print(CSV_HEADER, file=stream)
        for report in run_sweeps(configs, workers=workers):
            for row in report.rows:
                print(csv_line(row), file=stream)
    finally:
        if owned:
            stream.close()
    return EXIT_OK


def _svg_x(x: float) -> float:
    return SVG_MARGIN + (x - STANDARD_REGION.x_min) * SVG_SCALE


def _svg_y(y: float) -> float:
    # Flip so larger world y is higher on the page.
    return SVG_MARGIN + (STANDARD_REGION.y_max - y) * SVG_SCALE


def render_trace_svg(world: World, outcome, label: str) -> str:
    """Draw the world and one message path as a standalone SVG document.

    The message path is the only <path> element; everything else uses
    rect/line/circle so the path count stays a reliable signature.
    """
    width = STANDARD_REGION.width * SVG_SCALE + 2 * SVG_MARGIN
    height = STANDARD_REGION.height * SVG_SCALE + 2 * SVG_MARGIN
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
        f'height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="#ffffff"/>',
        f'<rect x="{_svg_x(STANDARD_REGION.x_min):g}" y="{_svg_y(STANDARD_REGION.y_max):g}" '
        f'width="{STANDARD_REGION.width * SVG_SCALE:g}" '
        f'height="{STANDARD_REGION.height * SVG_SCALE:g}" '
        'fill="none" stroke="#444444" stroke-width="2"/>',
    ]
    for i in range(world.n):
        x, y = world.positions[i]
        parts.append(
            f'<circle cx="{_svg_x(float(x)):.1f}" cy="{_svg_y(float(y)):.1f}" '
            'r="1.6" fill="#b8c4cc"/>'
        )
    for wall in world.obstacle.walls:
        parts.append(
            f'<line x1="{_svg_x(wall.a.x):.1f}" y1="{_svg_y(wall.a.y):.1f}" '
            f'x2="{_svg_x(wall.b.x):.1f}" y2="{_svg_y(wall.b.y):.1f}" '
            'stroke="#c03030" stroke-width="4"/>'
        )
    if outcome.path:
        steps = " ".join(
            f"{'M' if i == 0 else 'L'} {_svg_x(p.x):.1f} {_svg_y(p.y):.1f}"
            for i, p in enumerate(outcome.path)
        )
        parts.append(
            f'<path d="{steps}" fill="none" stroke="#2050c8" stroke-width="1.8"/>'
        )
    parts.append(
        f'<circle cx="{_svg_x(SOURCE_POINT.x):g}" cy="{_svg_y(SOURCE_POINT.y):g}" '
        'r="6" fill="none" stroke="#108030" stroke-width="3"/>'
    )
    parts.append(
        f'<circle cx="{_svg_x(DEST_POINT.x):g}" cy="{_svg_y(DEST_POINT.y):g}" '
        'r="6" fill="none" stroke="#d05010" stroke-width="3"/>'
    )
    parts.append(
        f'<text x="{SVG_MARGIN:g}" y="{height - 4:g}" '
        f'font-family="sans-serif" font-size="12" fill="#333333">{label}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_trace(ns: argparse.Namespace) -> int:
    algo = _parse_algo(_resolve(ns, "algo", str, "gric-"))
    obstacle = _check_obstacle(_resolve(ns, "obstacle", str, "none"))
    density = _resolve(ns, "density", float, 6.0)
    seed = _resolve_seed(ns)
    out_path = _resolve(ns, "out", str, "-")
    out_format = _resolve(ns, "format", str, "svg")
    if out_format not in ("svg", "csv"):
        raise UsageError(f"unknown trace format {out_format!r}; expected svg or csv")

    try:
        config = ExperimentConfig(
            algorithm=algo,
            obstacle=obstacle,
            densities=(density,),
            trials_per_point=1,
            master_seed=seed,
            record_path=True,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    world = build_trial_world(seed, density, 0, obstacle)
    outcome = run_trial(config, density, 0, world=world)
    label = (
        f"{algo.value} on {obstacle}, density {density:g}, seed {seed}: "
        f"{outcome.status.value}, {outcome.hops} hops, "
        f"distance {outcome.distance:.1f}"
    )
    stream, owned = _open_out(out_path)
    try:
        if out_format == "csv":
            print("step,x,y", file=stream)
            for i, p in enumerate(outcome.path or []):
                print(f"{i},{p.x:.4f},{p.y:.4f}", file=stream)
        else:
            stream.write(render_trace_svg(world, outcome, label))
    finally:
        if owned:
            stream.close()
    print(label, file=sys.stderr)
    return EXIT_OK


def cmd_graphcheck(ns: argparse.Namespace) -> int:
    density = _resolve(ns, "density", float, 5.0)
    obstacle = _check_obstacle(_resolve(ns, "obstacle", str, "none"))
    seed = _resolve_seed(ns)
    dump_path = _resolve(ns, "dump", str, None)
    try:
        node_count(density, STANDARD_REGION)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    world = build_trial_world(seed, density, 0, obstacle)
    degrees_sum = 2 * len(world.edges)
    mean_degree = degrees_sum / world.n if world.n else float("nan")
    interior = interior_mean_degree(world)
    gabriel = world.gabriel_edges()
    violation = find_planarity_violation(world.positions, gabriel)
    connected = is_connected(world)

    print(f"nodes: {world.n}")
    print(f"links: {len(world.edges)}")
    print(f"mean degree: {mean_degree:.4f}")
    print(f"interior mean degree: {interior:.4f} (pi*density = {math.pi * density:.4f})")
    print(f"gabriel edges: {len(gabriel)}")
    print(f"planarity: {'PASS' if violation is None else f'FAIL {violation}'}")
    print(f"connectivity: {'CONNECTED' if connected else 'DISCONNECTED'}")

    if dump_path is not None:
        with open(dump_path, "w", encoding="utf-8") as fh:
            fh.write(world_to_text(world))
        print(f"world dumped to {dump_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gricsim",
        description="Geographic routing laboratory: sweeps, traces, world checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a Monte Carlo sweep, emit CSV")
    sweep.add_argument("--algo", choices=ALGO_CHOICES + ("all",))
    sweep.add_argument("--obstacle", choices=OBSTACLE_NAMES)
    sweep.add_argument("--densities", type=parse_densities)
    sweep.add_argument("--trials", type=int)
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--out")
    sweep.add_argument("--workers", type=int)
    sweep.add_argument("--config")
    sweep.set_defaults(func=cmd_sweep)

    trace = sub.add_parser("trace", help="trace one message, emit SVG or CSV")
    trace.add_argument("--algo", choices=ALGO_CHOICES)
    trace.add_argument("--obstacle", choices=OBSTACLE_NAMES)
    trace.add_argument("--density", type=float)
    trace.add_argument("--seed", type=int)
    trace.add_argument("--format", choices=("svg", "csv"))
    trace.add_argument("--out")
    trace.add_argument("--config")
    trace.set_defaults(func=cmd_trace)

    check = sub.add_parser("graphcheck", help="print world statistics")
    check.add_argument("--density", type=float)
    check.add_argument("--obstacle", choices=OBSTACLE_NAMES)
    check.add_argument("--seed", type=int)
    check.add_argument("--dump", help="also write the world in worldv1 format")
    check.add_argument("--config")
    check.set_defaults(func=cmd_graphcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        config_path = getattr(ns, "config", None)
        if config_path is not None:
            options = load_config(config_path)
            unknown = set(options) - _CONFIG_KEYS
            if unknown:
                raise UsageError(
                    f"unknown config keys: {', '.join(sorted(unknown))}"
                )
            ns._config_options = options
        return ns.func(ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
