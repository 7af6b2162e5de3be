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
import contextlib
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
    node_count,
    world_to_text,
)

# The sweep CSV's columns, in order: each SweepRow field and the format
# spec its values are written with.
CSV_COLUMNS = (
    ("algorithm", ""),
    ("obstacle", ""),
    ("density", ".4f"),
    ("trials", ""),
    ("success_rate", ".4f"),
    ("median_hops", ".4f"),
    ("median_distance", ".4f"),
    ("fail_ttl", ""),
    ("fail_oob", ""),
    ("fail_stuck", ""),
)

CSV_HEADER = ",".join(name for name, _ in CSV_COLUMNS)

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

    Blank lines and '#' comments are skipped, and a leading byte-order
    mark is dropped. Values stay strings here; main hands them to the
    parser as flags.
    """
    options: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                options[key.strip()] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    return options


def _densities_arg(text: str) -> tuple[float, ...]:
    """parse_densities as an argparse type, so its message reaches the user."""
    try:
        return parse_densities(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _resolve_seed(ns: argparse.Namespace) -> int:
    """GEOROUTE_SEED if set, else the parsed seed; either must be nonnegative."""
    env = os.environ.get(SEED_ENV_VAR)
    seed = ns.seed
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    if seed < 0:
        raise UsageError("seed must be nonnegative")
    return seed


def _output(path: str | None):
    """A context manager for an output option, opened now, so a bad path
    fails before any work: stdout for '-', None for an absent option,
    else the file, closed on exit."""
    if path is None:
        return contextlib.nullcontext()
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def csv_line(row) -> str:
    return ",".join(format(getattr(row, name), spec) for name, spec in CSV_COLUMNS)


def cmd_sweep(ns: argparse.Namespace) -> int:
    if ns.algo is None:
        raise UsageError("sweep needs --algo (or algo= in the config file)")
    seed = _resolve_seed(ns)
    if ns.workers < 1:
        raise UsageError("workers must be at least 1")
    algorithms = list(Algorithm) if ns.algo == "all" else [Algorithm(ns.algo)]

    try:
        configs = [
            ExperimentConfig(
                algorithm=algo,
                obstacle=ns.obstacle,
                densities=ns.densities,
                trials_per_point=ns.trials,
                master_seed=seed,
            )
            for algo in algorithms
        ]
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    with _output(ns.out) as stream:
        print(CSV_HEADER, file=stream)
        for report in run_sweeps(configs, workers=ns.workers):
            for row in report.rows:
                print(csv_line(row), file=stream)
    return EXIT_OK


def render_trace_svg(world: World, outcome, label: str) -> str:
    """Draw the world's region, its nodes and walls, one message path and
    the standard frame's source and destination as a standalone SVG
    document.

    The message path is the only <path> element; everything else uses
    rect/line/circle so the path count stays a reliable signature.
    """
    region = world.region

    def svg_x(x: float) -> float:
        return SVG_MARGIN + (x - region.x_min) * SVG_SCALE

    def svg_y(y: float) -> float:
        # Flip so larger world y is higher on the page.
        return SVG_MARGIN + (region.y_max - y) * SVG_SCALE

    width = region.width * SVG_SCALE + 2 * SVG_MARGIN
    height = region.height * SVG_SCALE + 2 * SVG_MARGIN
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
        f'height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="#ffffff"/>',
        f'<rect x="{svg_x(region.x_min):g}" y="{svg_y(region.y_max):g}" '
        f'width="{region.width * SVG_SCALE:g}" '
        f'height="{region.height * SVG_SCALE:g}" '
        'fill="none" stroke="#444444" stroke-width="2"/>',
    ]
    for x, y in zip(world.xs, world.ys):
        parts.append(
            f'<circle cx="{svg_x(x):.1f}" cy="{svg_y(y):.1f}" r="1.6" fill="#b8c4cc"/>'
        )
    for wall in world.obstacle.walls:
        parts.append(
            f'<line x1="{svg_x(wall.a.x):.1f}" y1="{svg_y(wall.a.y):.1f}" '
            f'x2="{svg_x(wall.b.x):.1f}" y2="{svg_y(wall.b.y):.1f}" '
            'stroke="#c03030" stroke-width="4"/>'
        )
    if outcome.path:
        steps = " ".join(
            f"{'M' if i == 0 else 'L'} {svg_x(p.x):.1f} {svg_y(p.y):.1f}"
            for i, p in enumerate(outcome.path)
        )
        parts.append(
            f'<path d="{steps}" fill="none" stroke="#2050c8" stroke-width="1.8"/>'
        )
    parts.append(
        f'<circle cx="{svg_x(SOURCE_POINT.x):g}" cy="{svg_y(SOURCE_POINT.y):g}" '
        'r="6" fill="none" stroke="#108030" stroke-width="3"/>'
    )
    parts.append(
        f'<circle cx="{svg_x(DEST_POINT.x):g}" cy="{svg_y(DEST_POINT.y):g}" '
        'r="6" fill="none" stroke="#d05010" stroke-width="3"/>'
    )
    parts.append(
        f'<text x="{SVG_MARGIN:g}" y="{height - 4:g}" '
        f'font-family="sans-serif" font-size="12" fill="#333333">{label}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_trace(ns: argparse.Namespace) -> int:
    seed = _resolve_seed(ns)
    try:
        config = ExperimentConfig(
            algorithm=Algorithm(ns.algo),
            obstacle=ns.obstacle,
            densities=(ns.density,),
            trials_per_point=1,
            master_seed=seed,
            record_path=True,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    with _output(ns.out) as stream:
        world = build_trial_world(seed, ns.density, 0, ns.obstacle)
        outcome = run_trial(config, ns.density, 0, world=world)
        label = (
            f"{ns.algo} on {ns.obstacle}, density {ns.density:g}, seed {seed}: "
            f"{outcome.status.value}, {outcome.hops} hops, "
            f"distance {outcome.distance:.1f}"
        )
        if ns.format == "csv":
            print("step,x,y", file=stream)
            for i, p in enumerate(outcome.path or []):
                print(f"{i},{p.x:.4f},{p.y:.4f}", file=stream)
        else:
            stream.write(render_trace_svg(world, outcome, label))
    print(label, file=sys.stderr)
    return EXIT_OK


def cmd_graphcheck(ns: argparse.Namespace) -> int:
    seed = _resolve_seed(ns)
    try:
        node_count(ns.density, STANDARD_REGION)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    with _output(ns.dump) as dump:
        world = build_trial_world(seed, ns.density, 0, ns.obstacle)
        degrees_sum = 2 * len(world.edges)
        mean_degree = degrees_sum / world.n if world.n else float("nan")
        interior = interior_mean_degree(world)
        gabriel = world.gabriel_edges()
        violation = find_planarity_violation(world.positions, gabriel)
        connected = is_connected(world)

        # A dump on stdout keeps the stream readable by parse_world_text.
        report = sys.stderr if dump is sys.stdout else sys.stdout
        print(f"nodes: {world.n}", file=report)
        print(f"links: {len(world.edges)}", file=report)
        print(f"mean degree: {mean_degree:.4f}", file=report)
        print(
            f"interior mean degree: {interior:.4f} (pi*density = {math.pi * ns.density:.4f})",
            file=report,
        )
        print(f"gabriel edges: {len(gabriel)}", file=report)
        print(f"planarity: {'PASS' if violation is None else f'FAIL {violation}'}", file=report)
        print(f"connectivity: {'CONNECTED' if connected else 'DISCONNECTED'}", file=report)
        if dump is not None:
            dump.write(world_to_text(world))
    if dump is not None:
        print(f"world dumped to {ns.dump}", file=report)
    return EXIT_OK


def build_parser(exit_on_error: bool = True) -> argparse.ArgumentParser:
    """The command line: each option's name, type, choices and default.

    A config file sets the same options, keyed by flag name without the
    dashes; main parses its lines as flags. With exit_on_error False a bad
    value raises argparse.ArgumentError instead of exiting.
    """
    parser = argparse.ArgumentParser(
        prog="gricsim",
        description="Geographic routing laboratory: sweeps, traces, world checks.",
        exit_on_error=exit_on_error,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser(
        "sweep", help="run a Monte Carlo sweep, emit CSV", exit_on_error=exit_on_error
    )
    sweep.add_argument("--algo", choices=ALGO_CHOICES + ("all",))
    sweep.add_argument("--obstacle", choices=OBSTACLE_NAMES, default="none")
    sweep.add_argument("--densities", type=_densities_arg, default=(5.0,))
    sweep.add_argument("--trials", type=int, default=200)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--out", default="-")
    sweep.add_argument("--workers", type=int, default=1)
    sweep.add_argument("--config")
    sweep.set_defaults(func=cmd_sweep)

    trace = sub.add_parser(
        "trace", help="trace one message, emit SVG or CSV", exit_on_error=exit_on_error
    )
    trace.add_argument("--algo", choices=ALGO_CHOICES, default="gric-")
    trace.add_argument("--obstacle", choices=OBSTACLE_NAMES, default="none")
    trace.add_argument("--density", type=float, default=6.0)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--format", choices=("svg", "csv"), default="svg")
    trace.add_argument("--out", default="-")
    trace.add_argument("--config")
    trace.set_defaults(func=cmd_trace)

    check = sub.add_parser(
        "graphcheck", help="print world statistics", exit_on_error=exit_on_error
    )
    check.add_argument("--density", type=float, default=5.0)
    check.add_argument("--obstacle", choices=OBSTACLE_NAMES, default="none")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--dump", help="also write the world in worldv1 format")
    check.add_argument("--config")
    check.set_defaults(func=cmd_graphcheck)

    return parser


def _config_keys(parser: argparse.ArgumentParser) -> dict[str, set[str]]:
    """Per subcommand, the keys a config file may set: its flags without
    the dashes, --config and --help aside."""
    (commands,) = (a.choices for a in parser._actions if a.dest == "command")
    return {
        name: {
            flag[2:] for action in p._actions for flag in action.option_strings
            if flag.startswith("--")
        } - {"config", "help"}
        for name, p in commands.items()
    }


def _parse_with_config(command: str, path: str, argv: list[str]) -> argparse.Namespace:
    """Parse argv again with the config file's lines placed right after the
    subcommand as --key=value flags, so argparse converts and checks them
    as it checks flags, and the user's own flags, coming later, win."""
    options = load_config(path)
    parser = build_parser(exit_on_error=False)
    keys = _config_keys(parser)
    unknown = set(options).difference(*keys.values())
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    flags = [f"--{key}={value}" for key, value in options.items() if key in keys[command]]
    at = argv.index(command) + 1
    try:
        return parser.parse_args(argv[:at] + flags + argv[at:])
    except argparse.ArgumentError as exc:
        key = exc.argument_name.removeprefix("--")
        raise UsageError(f"{path}: bad config value {key}={options[key]!r}: {exc}") from None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = build_parser().parse_args(argv)
    try:
        if ns.config is not None:
            ns = _parse_with_config(ns.command, ns.config, argv)
        return ns.func(ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
