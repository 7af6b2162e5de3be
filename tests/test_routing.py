"""Router state machine and forwarding rule.

The flag and mode tables are checked pair by pair against hand-written
expectations, the turn laws against worked oracles and bulk random
draws, and the forwarding rule against small hand-built worlds.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import vec2_routers
from conftest import make_world
from gricsim import harness, routing
from gricsim.geometry import Vec2
from gricsim.harness import (
    DEST_POINT,
    STANDARD_REGION,
    Algorithm,
    ExperimentConfig,
    build_trial_world,
    run_trial,
    source_node,
)
from gricsim.outcomes import Stuck, TrialStatus, walk
from gricsim.routing import (
    Flag,
    MessageState,
    RoutingParams,
    Uniforms,
    clamp_turn,
    contour_turn,
    gric_step,
    next_hop,
    travel_turn,
)
from vec2_geometry import (
    Angle,
    CompassValue,
    Mode,
    compass_of,
    cross,
    heading,
    is_zero,
    mode_selector,
    norm,
    sub,
    update_flag,
)
from vec2_routers import VecState, inertia_ideal

N_RANDOM = 100_000

NE, NW, SE, SW = (
    CompassValue.NE,
    CompassValue.NW,
    CompassValue.SE,
    CompassValue.SW,
)

# Every (flag, compass) pair and the flag that must come out.
FLAG_TABLE = [
    (Flag.DOWN, NE, Flag.DOWN),
    (Flag.DOWN, NW, Flag.DOWN),
    (Flag.DOWN, SE, Flag.UP_E),
    (Flag.DOWN, SW, Flag.UP_W),
    (Flag.UP_E, NE, Flag.DOWN),
    (Flag.UP_E, NW, Flag.UP_E),
    (Flag.UP_E, SE, Flag.UP_E),
    (Flag.UP_E, SW, Flag.UP_E),
    (Flag.UP_W, NE, Flag.UP_W),
    (Flag.UP_W, NW, Flag.DOWN),
    (Flag.UP_W, SE, Flag.UP_W),
    (Flag.UP_W, SW, Flag.UP_W),
]

# Every (flag, compass) pair and the mode that must come out.
MODE_TABLE = [
    (Flag.DOWN, NE, Mode.INERTIA),
    (Flag.DOWN, NW, Mode.INERTIA),
    (Flag.DOWN, SE, Mode.INERTIA),
    (Flag.DOWN, SW, Mode.INERTIA),
    (Flag.UP_E, NE, Mode.INERTIA),
    (Flag.UP_E, NW, Mode.CONTOUR),
    (Flag.UP_E, SE, Mode.INERTIA),
    (Flag.UP_E, SW, Mode.CONTOUR),
    (Flag.UP_W, NE, Mode.CONTOUR),
    (Flag.UP_W, NW, Mode.INERTIA),
    (Flag.UP_W, SE, Mode.CONTOUR),
    (Flag.UP_W, SW, Mode.INERTIA),
]


class TestParams:
    def test_defaults(self):
        p = RoutingParams()
        assert p.beta == pytest.approx(1.0 / 6.0)
        assert p.epsilon == pytest.approx(0.05)

    @pytest.mark.parametrize("beta", [-0.1, 1.1])
    def test_beta_bounds(self, beta):
        with pytest.raises(ValueError):
            RoutingParams(beta=beta)

    @pytest.mark.parametrize("epsilon", [-0.1, 1.0])
    def test_epsilon_bounds(self, epsilon):
        with pytest.raises(ValueError):
            RoutingParams(epsilon=epsilon)

    def test_closed_ends_allowed(self):
        RoutingParams(beta=0.0)
        RoutingParams(beta=1.0)
        RoutingParams(epsilon=0.0)


class TestFlagMachine:
    @pytest.mark.parametrize("flag,c,want", FLAG_TABLE)
    def test_update_flag_table(self, flag, c, want):
        assert update_flag(flag, c) is want

    @pytest.mark.parametrize("flag,c,want", MODE_TABLE)
    def test_mode_table(self, flag, c, want):
        assert mode_selector(flag, c) is want

    def test_contour_needs_a_raised_flag(self):
        # A raised flag is lowered and re-raised within one table, so the
        # contour mode can only ever trigger with the flag up.
        for flag, c, want in MODE_TABLE:
            if want is Mode.CONTOUR:
                assert flag is not Flag.DOWN


class TestClampTurn:
    def test_passthrough_inside_cone(self):
        beta = 1.0 / 6.0
        assert clamp_turn(0.3, beta) == pytest.approx(0.3)
        assert clamp_turn(-0.5, beta) == pytest.approx(-0.5)

    def test_saturates_at_beta_pi(self):
        beta = 1.0 / 6.0
        assert clamp_turn(2.0, beta) == pytest.approx(math.pi / 6)
        assert clamp_turn(-2.5, beta) == pytest.approx(-math.pi / 6)

    def test_bounded_bulk(self):
        rng = np.random.default_rng(21)
        alphas = rng.uniform(-math.pi, math.pi, N_RANDOM)
        betas = rng.uniform(0.0, 1.0, N_RANDOM)
        for a, b in zip(alphas, betas):
            g = clamp_turn(float(a), float(b))
            assert abs(g) <= b * math.pi + 1e-12
            if abs(a) <= b * math.pi:
                assert g == a


class TestContourTurn:
    def test_oracle_southwest(self):
        # alpha = -3pi/4, beta = 1/6: turn the long way round, scaled.
        got = contour_turn(-3 * math.pi / 4, 1.0 / 6.0)
        assert got == pytest.approx(0.6544984694978736)

    def test_oracle_southeast(self):
        got = contour_turn(math.pi / 2, 1.0 / 6.0)
        assert got == pytest.approx(-math.pi / 4)

    def test_opposite_sign_and_bound_bulk(self):
        rng = np.random.default_rng(22)
        alphas = rng.uniform(-math.pi, math.pi, N_RANDOM)
        betas = rng.uniform(0.0, 1.0, N_RANDOM)
        for a, b in zip(alphas, betas):
            g = contour_turn(float(a), float(b))
            assert abs(g) <= 2 * math.pi * b + 1e-12
            assert g == pytest.approx(
                -math.copysign(1.0, a) * b * (2 * math.pi - abs(a))
                if a != 0.0
                else -b * 2 * math.pi
            )
            if a > 0:
                assert g <= 0
            elif a < 0:
                assert g >= 0

    def test_full_turn_mod_two_pi_at_beta_one(self):
        # At beta = 1 the contour turn equals alpha modulo a full circle,
        # so both modes aim straight at the destination.
        rng = np.random.default_rng(23)
        for a in rng.uniform(-math.pi, math.pi, 5000):
            g = contour_turn(float(a), 1.0)
            assert math.isclose(math.sin(g), math.sin(a), abs_tol=1e-9)
            assert math.isclose(math.cos(g), math.cos(a), abs_tol=1e-9)


class TestIdealDirections:
    def test_norm_preserved(self):
        v = Vec2(0.6, -0.8)
        d = Vec2(-3.0, 1.0)
        assert norm(inertia_ideal(v, d, 1.0 / 6.0)) == pytest.approx(1.0)

    def test_beta_one_aligns_with_destination(self):
        rng = np.random.default_rng(24)
        for _ in range(5000):
            v = Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2))
            d = Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if is_zero(v) or is_zero(d):
                continue
            ideal = inertia_ideal(v, d, 1.0)
            assert cross(ideal, d) == pytest.approx(0.0, abs=1e-8)
            assert ideal.x * d.x + ideal.y * d.y > 0.0


class TestEffectivePrevDirection:
    """travel_turn's travel direction and turn."""

    def test_source_points_at_destination(self):
        s = MessageState(dest_pos=Vec2(10, 10))
        assert travel_turn(s, 2.0, 2.0) == (8.0, 8.0, 0.0)

    def test_in_flight_uses_last_hop(self):
        s = MessageState(dest_pos=Vec2(10, 10), prev_pos=(1.0, 0.0))
        vx, vy, alpha = travel_turn(s, 2.0, 0.0)
        assert (vx, vy) == (1.0, 0.0)
        assert alpha == Angle(math.atan2(10.0, 8.0)).radians

    def test_degenerate_raises(self):
        s = MessageState(dest_pos=Vec2(5, 5))
        with pytest.raises(Stuck):
            travel_turn(s, 5.0, 5.0)
        # A hop between coincident nodes leaves no travel direction.
        with pytest.raises(Stuck):
            travel_turn(replace(s, prev_pos=(1.0, 1.0)), 1.0, 1.0)


class TestNextHop:
    def test_picks_largest_projection(self):
        w = make_world(
            [(0, 0), (1, 0), (0, 1), (-1, 0)], [(0, 1), (0, 2), (0, 3)]
        )
        got = next_hop(w, 0, 0.9, 0.1, RoutingParams())
        assert got == 1

    def test_tie_breaks_to_smallest_id(self):
        # Both neighbors project to zero on the ideal direction.
        w = make_world([(0, 0), (1, 0), (-1, 0)], [(0, 1), (0, 2)])
        got = next_hop(w, 0, 0, 1, RoutingParams())
        assert got == 1

    def test_accepts_backward_progress(self):
        # The best neighbor may still point away from the ideal direction.
        w = make_world([(0, 0), (-1, 0.2), (-1, -0.2)], [(0, 1), (0, 2)])
        got = next_hop(w, 0, 1, 0.01, RoutingParams())
        assert got in (1, 2)

    def test_isolated_node_is_stuck(self):
        w = make_world([(0, 0), (5, 5)], np.empty((0, 2), dtype=np.int64))
        with pytest.raises(Stuck):
            next_hop(w, 0, 1, 0, RoutingParams())

    def test_thinning_falls_back_to_full_set(self):
        # With epsilon near one the thinning usually empties the set; the
        # rule must still return a real neighbor every time.
        w = make_world([(0, 0), (1, 0), (0, 1)], [(0, 1), (0, 2)])
        params = RoutingParams(epsilon=0.999999)
        draws = Uniforms(np.random.default_rng(25))
        for _ in range(1000):
            assert next_hop(w, 0, 1, 0, params, draws) in (1, 2)

    def test_thinning_can_divert(self):
        # With a fair epsilon the second-best neighbor gets picked
        # whenever the best one is dropped.
        w = make_world([(0, 0), (1, 0), (0.9, 0.3)], [(0, 1), (0, 2)])
        params = RoutingParams(epsilon=0.4)
        draws = Uniforms(np.random.default_rng(26))
        picks = {next_hop(w, 0, 1, 0, params, draws) for _ in range(500)}
        assert picks == {1, 2}
        # Without draws (gric-) nothing is thinned, whatever epsilon says.
        assert {next_hop(w, 0, 1, 0, params) for _ in range(50)} == {1}

    def test_epsilon_zero_is_deterministic(self):
        w = make_world([(0, 0), (1, 0), (0.9, 0.3)], [(0, 1), (0, 2)])
        params = RoutingParams(epsilon=0.0)
        draws = Uniforms(np.random.default_rng(27))
        base = next_hop(w, 0, 1, 0, RoutingParams())
        for _ in range(100):
            assert next_hop(w, 0, 1, 0, params, draws) == base

    def test_thinned_best_falls_to_the_first_kept_maximum(self):
        # Neighbours 2 and 3 tie behind 1; a draw equal to epsilon keeps
        # its neighbour.
        w = make_world([(0, 0), (1, 0), (0.5, 0.5), (0.5, -0.5)], [(0, 1), (0, 2), (0, 3)])
        params = RoutingParams(epsilon=0.5)
        for draws, want in [
            ([0.1, 0.9, 0.9], 2),
            ([0.1, 0.1, 0.9], 3),
            ([0.5, 0.1, 0.1], 1),
            ([0.1, 0.5, 0.5], 2),
            ([0.1, 0.1, 0.1], 1),
        ]:
            assert next_hop(w, 0, 1, 0, params, Scripted(draws)) == want, draws


class TestUniforms:
    B = Uniforms.BLOCK

    @pytest.mark.parametrize(
        "chunks",
        [
            [0, 1, 0, 1],
            [1] * 10,
            [B],
            [B, B, 0, B],
            [B - 1, 2, 0, 1],  # the second chunk crosses the buffer's end
            [7, B - 10, 5, B + 2, 3],
            [2 * B + 3, 1],  # a chunk longer than a whole block
        ],
    )
    def test_chunks_equal_one_draw(self, chunks):
        draws = Uniforms(np.random.default_rng(5))
        got = []
        for k in chunks:
            chunk = draws.take(k)
            assert len(chunk) == k
            got += chunk
        assert got == np.random.default_rng(5).random(sum(chunks)).tolist()

    def test_philox_trial_stream(self):
        # The generator the harness hands gric+, drawn hop by hop as the
        # vec2 oracle draws it.
        def rng():
            return np.random.Generator(np.random.Philox(np.random.SeedSequence(9)))

        draws, ref = Uniforms(rng()), rng()
        for k in [3, 0, 12, 1000, 40, 7, 5000, 2]:
            assert draws.take(k) == ref.random(k).tolist()


class TestGricStep:
    def test_counters_and_prev_advance(self):
        # Hops and distance are the trial loop's to count; the step only
        # advances prev_pos.
        w = make_world([(0, 0), (1, 0), (2, 0)], [(0, 1), (1, 2)])
        state = MessageState(dest_pos=Vec2(2, 0))
        nxt = gric_step(w, 0, state, RoutingParams())
        assert nxt == 1
        # The step advances the state it is given.
        assert state.prev_pos == (0.0, 0.0)

    def test_straight_corridor_walks_to_destination(self):
        pts = [(float(i), 0.0) for i in range(6)]
        w = make_world(pts, [(i, i + 1) for i in range(5)])
        state = MessageState(dest_pos=Vec2(5, 0))
        node = 0
        for want in (1, 2, 3, 4, 5):
            node = gric_step(w, node, state, RoutingParams())
            assert node == want
        assert state.prev_pos == (4.0, 0.0)

    def test_at_destination_raises(self):
        w = make_world([(0, 0), (1, 0)], [(0, 1)])
        state = MessageState(dest_pos=Vec2(0, 0), prev_pos=(-1.0, 0.0))
        with pytest.raises(Stuck):
            gric_step(w, 0, state, RoutingParams())

    def test_flag_rises_behind_left(self):
        # Travelling east with the destination behind and to the left:
        # alpha sits in [pi/2, pi), which reads SE and hoists the east flag.
        w = make_world([(0, 0), (1, 0), (1, -1)], [(0, 1), (0, 2), (1, 2)])
        state = MessageState(dest_pos=Vec2(-3.0, 0.5), prev_pos=(-1.0, 0.0))
        gric_step(w, 0, state, RoutingParams())
        assert state.flag is Flag.UP_E

    def test_flag_rises_behind_right(self):
        # Destination behind and to the right reads SW: west flag.
        w = make_world([(0, 0), (1, 0), (1, -1)], [(0, 1), (0, 2), (1, 2)])
        state = MessageState(dest_pos=Vec2(-3.0, -0.5), prev_pos=(-1.0, 0.0))
        gric_step(w, 0, state, RoutingParams())
        assert state.flag is Flag.UP_W

    def test_beta_one_matches_projection_on_destination(self):
        # With the full turn allowed both modes aim at the destination,
        # so the hop equals a plain projection argmax, ids breaking ties.
        rng = np.random.default_rng(28)
        params = RoutingParams(beta=1.0)
        for _ in range(300):
            pts = rng.uniform(0.0, 4.0, (8, 2))
            edges = [(0, j) for j in range(1, 8)]
            w = make_world([tuple(p) for p in pts], edges)
            dest = Vec2(float(rng.uniform(4, 8)), float(rng.uniform(0, 4)))
            prev = Vec2(float(rng.uniform(-4, 0)), float(rng.uniform(0, 4)))
            if is_zero(sub(w.pos(0), prev)) or is_zero(sub(dest, w.pos(0))):
                continue
            state = MessageState(dest_pos=dest, prev_pos=(prev.x, prev.y))
            for flag in (Flag.DOWN, Flag.UP_E, Flag.UP_W):
                got = gric_step(w, 0, replace(state, flag=flag), params)
                v = sub(dest, w.pos(0))
                offs = [sub(w.pos(j), w.pos(0)) for j in range(1, 8)]
                proj = [o.x * v.x + o.y * v.y for o in offs]
                want = 1 + int(np.argmax(proj))
                assert got == want

    def test_bulk_turn_bound(self):
        # Whatever the state machine decides, the applied turn never
        # exceeds the contour ceiling of 2*pi*beta.
        rng = np.random.default_rng(29)
        params = RoutingParams()
        w = make_world(
            [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)],
            [(0, 1), (0, 2), (0, 3), (0, 4)],
        )
        for _ in range(2000):
            prev = Vec2(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
            dest = Vec2(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
            if is_zero(prev) or is_zero(dest):
                continue
            flag = rng.choice(list(Flag))
            state = MessageState(dest_pos=dest, prev_pos=(prev.x, prev.y), flag=flag)
            gric_step(w, 0, state, params)
            assert state.flag is update_flag(
                flag, compass_of(Angle(heading(sub(dest, w.pos(0)))
                                       - heading(sub(w.pos(0), prev))))
            )

    def test_ideal_direction_never_rotates_past_bound(self):
        # Reconstruct the rotation the step applied and bound it.
        rng = np.random.default_rng(30)
        beta = 1.0 / 6.0
        for _ in range(N_RANDOM // 10):
            alpha = float(rng.uniform(-math.pi, math.pi))
            flag = rng.choice(list(Flag))
            c = compass_of(Angle(alpha))
            new_flag = update_flag(flag, c)
            mode = mode_selector(new_flag, c)
            if mode is Mode.INERTIA:
                g = clamp_turn(alpha, beta)
                assert abs(g) <= beta * math.pi + 1e-12
            else:
                g = contour_turn(alpha, beta)
                assert abs(g) <= 2 * math.pi * beta + 1e-12
                assert g * alpha <= 0.0


class Scripted:
    """Uniform draws read from a script: take(k) for the float routers,
    random(k) for the vec2 oracle."""

    def __init__(self, values):
        self.values = list(values)

    def take(self, k):
        out, self.values = self.values[:k], self.values[k:]
        assert len(out) == k, "script ran out"
        return out

    def random(self, k):
        return np.array(self.take(k))


# Node 0 with twelve neighbours 0.9 away around it,
# every 30 degrees from due east: each bent direction picks a different
# one.
STAR = (
    [(10.0, 10.0)]
    + [(10.0 + 0.9 * math.cos(k * math.pi / 6), 10.0 + 0.9 * math.sin(k * math.pi / 6))
       for k in range(12)],
    [(0, k) for k in range(1, 13)],
)


class KeepAll:
    """Uniform draws that keep every neighbour: gric+ then picks what
    gric- picks, through the memo."""

    def take(self, k):
        return [1.0] * k


class TestDecisionMemo:
    """gric_step decides each (current, prev_pos, flag) state of gric-
    and gric+ once; the memo against the vec2 routers and against fresh
    states."""

    def test_gric_minus_fills_the_memo(self, monkeypatch):
        # gric- keys its states into the memo as gric+ does. The trial
        # loop fast-forwards a gric- walk from its first repeated state,
        # so the memo holds the states up to the end of the first cycle.
        states = []
        monkeypatch.setattr(
            harness, "MessageState", lambda **kw: states.append(MessageState(**kw)) or states[-1]
        )
        world = build_trial_world(13, 8.0, 1, "concave2")
        cfg = ExperimentConfig(
            algorithm=Algorithm.GRIC_MINUS, obstacle="concave2", densities=(8.0,),
            master_seed=13, record_path=True,
        )
        got = run_trial(cfg, 8.0, 1, world=world)
        assert got.hops > 0 and len(states) == 1
        assert len(states[0].decisions) == got.cycle_start + got.cycle_len < got.hops
        want = vec2_routers.trial(cfg, 8.0, 1, world)
        assert got == want and got.distance.hex() == want.distance.hex()

    def test_long_walks_match_the_vec2_routers(self, monkeypatch):
        # gric+ ends fail_ttl on this concave2 world after 7,201 hops
        # circling in the cup. gric- is walked with no cycle
        # fast-forward, so its states repeat from its first cycle on.
        world = build_trial_world(13, 8.0, 1, "concave2")
        ranked = []
        rank = routing.rank
        monkeypatch.setattr(routing, "rank", lambda *a: ranked.append(1) or rank(*a))
        cfg = ExperimentConfig(
            algorithm=Algorithm.GRIC_PLUS, obstacle="concave2", densities=(8.0,),
            master_seed=13, record_path=True,
        )
        plus = run_trial(cfg, 8.0, 1, world=world)
        assert (plus.status, plus.hops) == (TrialStatus.FAIL_TTL, world.n + 1)
        assert len(ranked) < plus.hops / 4, "most states repeat"
        source, params = source_node(world), RoutingParams()
        step, _ = harness._STEPS[Algorithm.GRIC_MINUS](world, source, params, None)
        ranked.clear()
        minus = walk(world, source, DEST_POINT, step, world.n, record_path=True)
        assert (minus.status, minus.hops) == (TrialStatus.FAIL_TTL, world.n + 1)
        assert len(ranked) < minus.hops / 4, "most states repeat"
        want = vec2_routers.trial(cfg, 8.0, 1, world)
        assert plus == want and plus.distance.hex() == want.distance.hex()
        vstep, _ = vec2_routers._gric(world, params, None)
        want = vec2_routers.walk(world, source, DEST_POINT, vstep, world.n, record_path=True)
        assert minus == want and minus.distance.hex() == want.distance.hex()

    def test_thinned_hops_match_the_vec2_routers(self):
        # One state met again and again, each time with other draws:
        # every neighbour kept, the best dropped, every neighbour dropped,
        # the best kept and every other dropped, and the best and both
        # runners-up dropped.
        world = make_world(*STAR, region=STANDARD_REGION)
        params = RoutingParams(epsilon=0.5)
        start = ((9.5, 10.0), Flag.DOWN)
        nbrs = world.neighbors(0)
        best = gric_step(world, 0, MessageState(Vec2(20.0, 12.0), *start), params)
        near = {best, nbrs[nbrs.index(best) - 1], nbrs[(nbrs.index(best) + 1) % len(nbrs)]}
        scripts = {
            "all kept": [0.9 for v in nbrs],
            "best dropped": [0.1 if v == best else 0.9 for v in nbrs],
            "all dropped": [0.1 for v in nbrs],
            "only the best kept": [0.9 if v == best else 0.1 for v in nbrs],
            "three best dropped": [0.1 if v in near else 0.9 for v in nbrs],
        }
        state = MessageState(Vec2(20.0, 12.0))
        picks = {}
        for name, script in scripts.items():
            state.prev_pos, state.flag = start
            got = gric_step(world, 0, state, params, Scripted(script))
            fresh = MessageState(Vec2(20.0, 12.0), *start)
            assert gric_step(world, 0, fresh, params, Scripted(script)) == got, name
            assert (state.prev_pos, state.flag) == (fresh.prev_pos, fresh.flag)
            old = VecState(Vec2(20.0, 12.0), Vec2(*start[0]), start[1])
            want, _ = vec2_routers.gric_step(world, 0, old, params, Scripted(script))
            assert got == want, name
            picks[name] = got
        assert len(state.decisions) == 1, "one state, decided once"
        assert picks["all kept"] == picks["all dropped"] == best
        assert picks["only the best kept"] == best
        assert picks["best dropped"] in near - {best}
        assert picks["three best dropped"] not in near

    def test_another_flag_or_prev_pos_is_decided_anew(self):
        # One gric+ state visits node 0 under every (prev_pos, flag) pair,
        # twice, so its memo fills as it goes; each decision must equal a
        # fresh state's. Some pairs differ only in the flag, and some only
        # in prev_pos, and decide differently: a key without either would
        # hand back a stale decision.
        world = make_world(*STAR, region=STANDARD_REGION)
        params = RoutingParams()
        prevs = [(11.0, 10.0), (10.0, 11.0), (9.0, 10.0), (10.5, 9.0)]
        shared = MessageState(dest_pos=Vec2(20.0, 10.0))
        got = {}
        for _ in range(2):
            for prev in prevs:
                for flag in Flag:
                    shared.prev_pos, shared.flag = prev, flag
                    nxt = gric_step(world, 0, shared, params, KeepAll())
                    fresh = MessageState(shared.dest_pos, prev, flag)
                    assert gric_step(world, 0, fresh, params) == nxt, (prev, flag)
                    assert len(fresh.decisions) == 1
                    assert (shared.prev_pos, shared.flag) == (fresh.prev_pos, fresh.flag)
                    got[prev, flag] = (nxt, shared.flag)
        assert len(shared.decisions) == len(prevs) * len(Flag)
        assert max(len({got[prev, f] for f in Flag}) for prev in prevs) > 1
        assert min(len({got[prev, f] for prev in prevs}) for f in Flag) > 1

    def test_states_do_not_share_a_memo(self):
        state = MessageState(dest_pos=Vec2(20.0, 10.0))
        assert replace(state, flag=Flag.UP_E).decisions is not state.decisions
        assert MessageState(state.dest_pos).decisions is not state.decisions
