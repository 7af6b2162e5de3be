"""Acceptance gate: the nine headline behaviors, 200 trials per point.

Each criterion is one test that prints a single PASS/FAIL line with the
measured numbers and then asserts. Sweep results are cached module-wide
so criteria sharing a configuration pay for it once, and routers asked
for together at one point share one build of each world. The collected
lines are also written to acceptance_report.txt in the pytest session's
temporary directory, whose path is printed at the end of the run, so
running a single criterion leaves the source tree untouched.

Criteria that sample a density response do so on a fixed grid; the grid
points are part of the expectations below.
"""

import math

import numpy as np
import pytest

import oracles
from gricsim.baselines import face_route
from gricsim.cli import csv_line
from gricsim.geometry import Vec2
from gricsim.harness import (
    DEST_POINT,
    STANDARD_REGION,
    Algorithm,
    ExperimentConfig,
    build_trial_world,
    run_sweep,
    run_sweeps,
    run_trial,
)
from gricsim.outcomes import TrialStatus
from gricsim.routing import (
    Flag,
    RoutingParams,
    clamp_turn,
    contour_turn,
)
from gricsim.worldgen import (
    COMM_RADIUS,
    Region,
    deploy,
    interior_mean_degree,
    make_obstacle,
)
from vec2_geometry import (
    Angle,
    CompassValue,
    Mode,
    compass_of,
    distance,
    mode_selector,
    rotate,
    update_flag,
)

ACCEPTANCE_SEED = 3
TRIALS = 200
N_PROPERTY = 100_000

_cache: dict = {}
_report: list[str] = []


def sweep_rows(algorithms, obstacle, density, **kw):
    """Rows of several routers at one point, keyed by router.

    Routers not yet cached run together in one run_sweeps call, so each
    of the point's worlds is built once for all of them.
    """
    def key(algorithm):
        return (algorithm, obstacle, float(density), tuple(sorted(kw.items())))

    missing = [a for a in algorithms if key(a) not in _cache]
    configs = [
        ExperimentConfig(
            algorithm=algorithm,
            obstacle=obstacle,
            densities=(float(density),),
            trials_per_point=TRIALS,
            master_seed=ACCEPTANCE_SEED,
            **kw,
        )
        for algorithm in missing
    ]
    for algorithm, report in zip(missing, run_sweeps(configs)):
        _cache[key(algorithm)] = report.rows[0]
    return {a: _cache[key(a)] for a in algorithms}


def sweep_row(algorithm, obstacle, density, **kw):
    return sweep_rows((algorithm,), obstacle, density, **kw)[algorithm]


def delivered(row):
    """The row's delivered trials, counted. Margins between two rates are
    compared in trials: a difference of two k/200 floats can miss its
    threshold by a rounding error, as 0.74 - 0.79 and 0.90 - 0.07 do."""
    return row.trials - row.fail_ttl - row.fail_oob - row.fail_stuck - row.fail_no_nodes


def verdict(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    _report.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="session", autouse=True)
def write_report(tmp_path_factory, pytestconfig):
    yield
    if _report:
        path = tmp_path_factory.getbasetemp() / "acceptance_report.txt"
        path.write_text("\n".join(_report) + "\n")
        # Output of a session teardown is captured and shown only for a
        # failure; print past the capture so a passing run shows it too.
        capman = pytestconfig.pluginmanager.getplugin("capturemanager")
        with capman.global_and_fixture_disabled():
            print(f"\nacceptance report written to {path}")


def greedy_losses_off_local_minima(density):
    """Replay every open-field greedy trial at density and return
    (losses, offenders): how many it lost, and a description of each
    loss that is not fail_stuck at a local minimum.

    The oracle rebuilds the trial's world and scans all node positions
    by brute force, without the world's link lists or grid: the node
    greedy stopped on is a local minimum when no node within COMM_RADIUS
    of it is strictly closer to DEST_POINT.
    """
    cfg = ExperimentConfig(
        algorithm=Algorithm.GREEDY,
        densities=(density,),
        trials_per_point=TRIALS,
        master_seed=ACCEPTANCE_SEED,
        record_path=True,
    )
    dest = np.array([DEST_POINT.x, DEST_POINT.y])
    losses = 0
    offenders = []
    for trial in range(TRIALS):
        out = run_trial(cfg, density, trial)
        if out.succeeded:
            continue
        losses += 1
        if out.status is not TrialStatus.FAIL_STUCK:
            offenders.append(f"trial {trial} {out.status.value}")
            continue
        positions = build_trial_world(
            ACCEPTANCE_SEED, density, trial, "none"
        ).positions
        end = np.array([out.path[-1].x, out.path[-1].y])
        in_range = np.hypot(*(positions - end).T) <= COMM_RADIUS
        closer = np.hypot(*(positions - dest).T) < np.hypot(*(end - dest))
        if (in_range & closer).any():
            offenders.append(f"trial {trial} stuck off a local minimum")
    return losses, offenders


def test_criterion_01_open_field_baselines():
    """No obstacle, density 5: every non-greedy router near-certain,
    greedy alone held back. Greedy forwards only to a strictly closer
    neighbor and stops at a local minimum, so it never walks into the
    border; it must stay below the 0.95 line the others clear, and every
    message it loses must be stuck at a brute-force-verified local
    minimum.

    The "< 0.95" clause has little margin across seeds. At density 5,
    200 trials, greedy scores 0.905 on seed 3 (the seed used here), 0.945
    on seed 1 and 0.965 on seed 0, so on seed 0 the clause would fail.
    The seed and the threshold stay as they are."""
    rows = sweep_rows(
        (
            Algorithm.GREEDY,
            Algorithm.INERTIA,
            Algorithm.GRIC_MINUS,
            Algorithm.GRIC_PLUS,
            Algorithm.LTP,
        ),
        "none",
        5.0,
    )
    rates = {a.value: r.success_rate for a, r in rows.items()}
    ok_high = all(
        rates[name] >= 0.95 for name in ("inertia", "gric-", "gric+", "ltp")
    )
    ok_greedy = rates["greedy"] < 0.95
    losses, offenders = greedy_losses_off_local_minima(5.0)
    detail = ", ".join(f"{k}={v:.3f}" for k, v in rates.items())
    if offenders:
        detail += f"; greedy lost {losses}, not at a local minimum: "
        detail += ", ".join(offenders)
    else:
        detail += f"; greedy lost {losses}, all stuck at local minima"
    verdict(1, ok_high and ok_greedy and not offenders, detail)


def test_criterion_02_degradation_order():
    """Open field, falling density: LTP degrades first (below 4), the
    inertia rules hold to about 2.5, and the full router tracks face
    routing within five points for density >= 2.

    Grid: {2, 2.5, 3, 3.5, 5}. Clause A pins the LTP-first order at 3.5,
    clause B the inertia knee between 3 and 2, clause C the face gap.

    Each endpoint sits 4 units from the border fail line, so a router
    that overshoots the destination can lose the message to border
    contact. The verdict lists every density whose gap exceeds 0.05 with
    the fail_oob and fail_ttl counts of gric+ and face there. Gaps are
    counted in trials: 0.05 of 200 trials is 10."""
    grid = (2.0, 2.5, 3.0, 3.5, 5.0)
    routers = (
        Algorithm.LTP,
        Algorithm.INERTIA,
        Algorithm.GRIC_MINUS,
        Algorithm.GRIC_PLUS,
        Algorithm.FACE,
    )
    by_density = {d: sweep_rows(routers, "none", d) for d in grid}
    rows = {a: {d: by_density[d][a] for d in grid} for a in routers}
    s = {
        a: {d: r.success_rate for d, r in by_d.items()}
        for a, by_d in rows.items()
    }
    ltp = s[Algorithm.LTP]
    ine = s[Algorithm.INERTIA]
    grm = s[Algorithm.GRIC_MINUS]
    clause_a = (
        ltp[5.0] >= 0.95
        and ltp[3.5] < 0.90
        and ine[3.5] >= 0.95
        and grm[3.5] >= 0.95
    )
    clause_b = (
        ine[3.0] >= 0.90
        and grm[3.0] >= 0.90
        and ine[2.0] < 0.60
        and grm[2.0] < 0.60
    )
    max_gap = round(0.05 * TRIALS)
    gaps = {
        d: abs(delivered(rows[Algorithm.GRIC_PLUS][d]) - delivered(rows[Algorithm.FACE][d]))
        for d in grid
    }
    worst = max(gaps, key=gaps.get)
    clause_c = gaps[worst] <= max_gap
    detail = (
        f"ltp@3.5={ltp[3.5]:.3f} ltp@5={ltp[5.0]:.3f}"
        f" inertia@3={ine[3.0]:.3f} inertia@2={ine[2.0]:.3f}"
        f" gric-@3={grm[3.0]:.3f} gric-@2={grm[2.0]:.3f}"
        f" max|gric+-face|={gaps[worst] / TRIALS:.3f}@d={worst}"
    )
    for d in grid:
        if gaps[d] > max_gap:
            plus, face = rows[Algorithm.GRIC_PLUS][d], rows[Algorithm.FACE][d]
            detail += (
                f"; gap {gaps[d] / TRIALS:.3f}@d={d}:"
                f" gric+={plus.success_rate:.3f}"
                f" (fail_oob={plus.fail_oob} fail_ttl={plus.fail_ttl})"
                f" face={face.success_rate:.3f}"
                f" (fail_oob={face.fail_oob} fail_ttl={face.fail_ttl})"
            )
    verdict(2, clause_a and clause_b and clause_c, detail)


def test_criterion_03_stripe_wall():
    """Single wall between the endpoints: the flag router crosses almost
    always, plain inertia usually, the memoryless routers almost never.

    GRIC+ thresholds carry a 0.07 absolute tolerance, compared in trials:
    166 and 180 of 200. Greedy and LTP are sampled at {3, 4, 5, 6, 8}."""
    extra = {
        3.0: (Algorithm.GRIC_PLUS,),
        4.0: (Algorithm.GRIC_PLUS, Algorithm.INERTIA),
        5.0: (),
        6.0: (Algorithm.INERTIA,),
        8.0: (Algorithm.INERTIA,),
    }
    rows = {
        d: sweep_rows((Algorithm.GREEDY, Algorithm.LTP, *more), "stripe", d)
        for d, more in extra.items()
    }
    gp3 = delivered(rows[3.0][Algorithm.GRIC_PLUS])
    gp4 = delivered(rows[4.0][Algorithm.GRIC_PLUS])
    ok_gric = gp3 >= round((0.90 - 0.07) * TRIALS) and gp4 >= round((0.97 - 0.07) * TRIALS)
    inertia = {
        d: rows[d][Algorithm.INERTIA].success_rate for d in (4.0, 6.0, 8.0)
    }
    ok_inertia = all(v >= 0.85 for v in inertia.values())
    low = {}
    for a in (Algorithm.GREEDY, Algorithm.LTP):
        for d in (3.0, 4.0, 5.0, 6.0, 8.0):
            low[(a.value, d)] = rows[d][a].success_rate
    ok_low = all(v <= 0.2 for v in low.values())
    worst_low = max(low.values())
    detail = (
        f"gric+@3={gp3 / TRIALS:.3f} gric+@4={gp4 / TRIALS:.3f}"
        f" inertia@4..8={min(inertia.values()):.3f}min"
        f" greedy/ltp max={worst_low:.3f}"
    )
    verdict(3, ok_gric and ok_inertia and ok_low, detail)


def test_criterion_04_boxes_with_open_mouths():
    """ushape and concave1: the full router rounds the box nearly always
    at density >= 6 and pays at most twice the hop count of its
    deterministic variant. Densities {6, 8}."""
    ok = True
    parts = []
    for obstacle in ("ushape", "concave1"):
        for d in (6.0, 8.0):
            point = sweep_rows(
                (Algorithm.GRIC_PLUS, Algorithm.GRIC_MINUS), obstacle, d
            )
            plus = point[Algorithm.GRIC_PLUS]
            minus = point[Algorithm.GRIC_MINUS]
            ok = ok and plus.success_rate >= 0.90
            if not math.isnan(minus.median_hops):
                ratio = plus.median_hops / minus.median_hops
                ok = ok and ratio <= 2.0
                parts.append(
                    f"{obstacle}@{d:g}={plus.success_rate:.3f},r={ratio:.2f}"
                )
            else:
                parts.append(f"{obstacle}@{d:g}={plus.success_rate:.3f},r=na")
    verdict(4, ok, " ".join(parts))


def test_criterion_05_narrow_throat():
    """concave2: the long angled lips starve the router below density 6
    and only a dense deployment threads the throat, at a heavy hop cost.

    Grid: {3, 4} for the starved side, {8, 10} for the dense side; hop
    cost compared against the stripe case at density 8."""
    s3 = sweep_row(Algorithm.GRIC_PLUS, "concave2", 3.0).success_rate
    s4 = sweep_row(Algorithm.GRIC_PLUS, "concave2", 4.0).success_rate
    r8 = sweep_row(Algorithm.GRIC_PLUS, "concave2", 8.0)
    r10 = sweep_row(Algorithm.GRIC_PLUS, "concave2", 10.0)
    stripe8 = sweep_row(Algorithm.GRIC_PLUS, "stripe", 8.0)
    ok_low = s3 <= 0.5 and s4 <= 0.5
    ok_rise = r8.success_rate > 0.8 and r10.success_rate > 0.8
    hop_ratio = r8.median_hops / stripe8.median_hops
    ok_hops = hop_ratio >= 1.5
    detail = (
        f"gric+@3={s3:.3f} @4={s4:.3f} @8={r8.success_rate:.3f}"
        f" @10={r10.success_rate:.3f} hops@8 x{hop_ratio:.1f} vs stripe"
    )
    verdict(5, ok_low and ok_rise and ok_hops, detail)


def test_criterion_06_face_routing_is_exact():
    """Face routing delivers exactly when the source's Gabriel component
    reaches the destination: 200 instances, n <= 300, border rule off."""
    region = Region(0.0, 10.0, 0.0, 10.0)
    dest = Vec2(9.5, 5.0)
    densities = (1.0, 1.5, 2.0, 2.5, 3.0)
    checked = mismatches = delivered = 0
    for k in range(200):
        density = densities[k % len(densities)]
        world = deploy(density, region, make_obstacle("none"), 20_000 + k)
        if world.n == 0:
            continue
        dists = np.hypot(
            world.positions[:, 0] - 0.5, world.positions[:, 1] - 5.0
        )
        source = int(np.argmin(dists))
        out = face_route(
            world, source, dest, enforce_oob=False
        )
        reachable = any(
            distance(world.pos(i), dest) < COMM_RADIUS
            for i in oracles.gabriel_hops(world, source)
        )
        checked += 1
        delivered += int(reachable)
        mismatches += int(out.succeeded != reachable)
    ok = mismatches == 0 and checked == 200 and 0 < delivered < checked
    verdict(
        6,
        ok,
        f"{checked} instances, {delivered} reachable, "
        f"{mismatches} disagreements with the connectivity oracle",
    )


def test_criterion_07_interior_degree():
    """Interior mean degree tracks pi * density within 5% at densities
    {3, 4.5, 6}, 20 deployments each."""
    worst = 0.0
    ok = True
    for density in (3.0, 4.5, 6.0):
        want = math.pi * density
        for seed in range(20):
            world = deploy(
                density, STANDARD_REGION, make_obstacle("none"),
                40_000 + seed,
            )
            got = interior_mean_degree(world)
            rel = abs(got - want) / want
            worst = max(worst, rel)
            ok = ok and rel < 0.05
    verdict(7, ok, f"max relative error {worst:.4f} over 60 deployments")


def test_criterion_08_bulk_properties():
    """Randomized re-checks at the 1e5 scale plus the determinism gates:
    compass partition, rotation isometry, turn bounds, the complete flag
    table, the beta=1 collapse, the epsilon=0 collapse, and worker-count
    independence of sweep output."""
    rng = np.random.default_rng(808)
    problems = []

    alphas = rng.uniform(-math.pi, math.pi, N_PROPERTY)
    half = math.pi / 2
    quadrant = np.digitize(alphas, [-half, 0.0, half])
    names = np.array(["SW", "NW", "NE", "SE"])
    if any(
        compass_of(Angle(float(a))).value != names[q]
        for a, q in zip(alphas[::11], quadrant[::11])
    ):
        problems.append("compass partition")

    vecs = rng.uniform(-10, 10, (N_PROPERTY, 2))
    gammas = rng.uniform(-7, 7, N_PROPERTY)
    c, s = np.cos(gammas), np.sin(gammas)
    rx = c * vecs[:, 0] - s * vecs[:, 1]
    ry = s * vecs[:, 0] + c * vecs[:, 1]
    if not np.allclose(np.hypot(rx, ry), np.hypot(vecs[:, 0], vecs[:, 1])):
        problems.append("rotation isometry")
    for k in range(0, N_PROPERTY, 997):
        got = rotate(
            Vec2(float(vecs[k, 0]), float(vecs[k, 1])), float(gammas[k])
        )
        if not (
            math.isclose(got.x, rx[k], abs_tol=1e-9)
            and math.isclose(got.y, ry[k], abs_tol=1e-9)
        ):
            problems.append("rotate scalar vs matrix")
            break

    betas = rng.uniform(0.0, 1.0, N_PROPERTY)
    for a, b in zip(alphas[::7], betas[::7]):
        g = clamp_turn(float(a), float(b))
        if abs(g) > b * math.pi + 1e-12:
            problems.append("clamp bound")
            break
    for a, b in zip(alphas[::7], betas[::7]):
        g = contour_turn(float(a), float(b))
        if abs(g) > 2 * math.pi * b + 1e-12 or g * a > 0.0:
            problems.append("contour bound or sign")
            break

    flag_table = {
        (Flag.DOWN, CompassValue.NE): Flag.DOWN,
        (Flag.DOWN, CompassValue.NW): Flag.DOWN,
        (Flag.DOWN, CompassValue.SE): Flag.UP_E,
        (Flag.DOWN, CompassValue.SW): Flag.UP_W,
        (Flag.UP_E, CompassValue.NE): Flag.DOWN,
        (Flag.UP_E, CompassValue.NW): Flag.UP_E,
        (Flag.UP_E, CompassValue.SE): Flag.UP_E,
        (Flag.UP_E, CompassValue.SW): Flag.UP_E,
        (Flag.UP_W, CompassValue.NE): Flag.UP_W,
        (Flag.UP_W, CompassValue.NW): Flag.DOWN,
        (Flag.UP_W, CompassValue.SE): Flag.UP_W,
        (Flag.UP_W, CompassValue.SW): Flag.UP_W,
    }
    for (f, c), want in flag_table.items():
        if update_flag(f, c) is not want:
            problems.append("flag table")
            break
    contour_pairs = {
        (Flag.UP_E, CompassValue.NW),
        (Flag.UP_E, CompassValue.SW),
        (Flag.UP_W, CompassValue.NE),
        (Flag.UP_W, CompassValue.SE),
    }
    for f in Flag:
        for c in CompassValue:
            want = Mode.CONTOUR if (f, c) in contour_pairs else Mode.INERTIA
            if mode_selector(f, c) is not want:
                problems.append("mode table")

    # beta = 1: both turn laws aim straight at the destination bearing.
    g_inertia = np.clip(alphas, -math.pi, math.pi)
    g_contour = -np.sign(alphas) * (2 * math.pi - np.abs(alphas))
    if not (
        np.allclose(np.sin(g_contour), np.sin(alphas), atol=1e-9)
        and np.allclose(np.cos(g_contour), np.cos(alphas), atol=1e-9)
        and np.array_equal(g_inertia, alphas)
    ):
        problems.append("beta=1 collapse")

    params = RoutingParams(epsilon=0.0)
    for trial in range(10):
        a = run_trial(
            ExperimentConfig(
                algorithm=Algorithm.GRIC_MINUS, densities=(3.0,),
                trials_per_point=TRIALS, master_seed=ACCEPTANCE_SEED,
                params=params, record_path=True,
            ),
            3.0, trial,
        )
        b = run_trial(
            ExperimentConfig(
                algorithm=Algorithm.GRIC_PLUS, densities=(3.0,),
                trials_per_point=TRIALS, master_seed=ACCEPTANCE_SEED,
                params=params, record_path=True,
            ),
            3.0, trial,
        )
        if a.status is not b.status or a.hops != b.hops:
            problems.append("epsilon=0 collapse")
            break

    cfg = ExperimentConfig(
        algorithm=Algorithm.GRIC_PLUS, densities=(2.0, 2.5),
        trials_per_point=40, master_seed=ACCEPTANCE_SEED,
    )
    rows1 = run_sweep(cfg, workers=1).rows
    rows2 = run_sweep(cfg, workers=2).rows
    if [csv_line(r) for r in rows1] != [csv_line(r) for r in rows2]:
        problems.append("worker determinism")

    verdict(
        8,
        not problems,
        "all property suites at 1e5 scale"
        if not problems
        else "failed: " + ", ".join(problems),
    )


def test_criterion_09_route_stretch_open_field():
    """Deterministic flag router, no obstacle, density 6: the median
    delivered distance stays within 15% of the straight-line 20."""
    row = sweep_row(Algorithm.GRIC_MINUS, "none", 6.0)
    md = row.median_distance
    ok = abs(md - 20.0) / 20.0 <= 0.15
    verdict(
        9,
        ok,
        f"median distance {md:.2f} (success rate {row.success_rate:.3f})",
    )
