"""Property tests of physics invariants the design relies on, and of the
batched integrator's independence from the batch size."""
import dataclasses

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from reference import linear_momentum  # noqa: E402
from slmp import physics as ph  # noqa: E402

SPEC = ph.default_character()
CFG = ph.default_config(SPEC)
NJ = SPEC.n_joints


def vec(*shape, bound):
    return arrays(np.float64, shape, elements=st.floats(-bound, bound))


def state_vector(s: ph.SimState) -> np.ndarray:
    return np.concatenate([s.root_pos, [s.root_angle], s.joint_angles, s.root_vel,
                           [s.root_ang_vel], s.joint_vels, s.anchor_x])


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(root_vel=vec(2, bound=3.0), joint_vels=vec(NJ, bound=2.0), torques=vec(12, NJ, bound=20.0))
def test_flight_conserves_horizontal_momentum(root_vel, joint_vels, torques):
    s = ph.nominal_stance(SPEC, CFG)
    s.root_pos = np.array([0.0, 8.0])
    s.anchor_x = s.anchor_on = None
    s.root_vel, s.joint_vels = root_vel, joint_vels
    p0 = linear_momentum(s, SPEC)
    w = ph.World.of([s], SPEC)
    for k, tau in enumerate(torques, start=1):  # up to 0.2 s of arbitrary internal torques
        w, rep = ph.step_batch(w, SPEC, CFG.dt, CFG, torques=tau[None])
        assert not rep.ground_contact[0]
        if not w.valid[0]:
            break  # sustained torque can spin the light limbs up until the integrator gives up
        p1 = linear_momentum(w.state(0), SPEC)
        assert abs(p1[0] - p0[0]) <= 1e-9 * max(1.0, abs(p0[0]))
        assert p1[1] - p0[1] == pytest.approx(-SPEC.total_mass * CFG.gravity * k * CFG.dt, rel=1e-9)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(
    gap=st.floats(0.3, 1.2),
    joints=vec(2, NJ, bound=0.6),
    joint_vels=vec(2, NJ, bound=4.0),
    root_vel=vec(2, 2, bound=1.0),
    targets=vec(2, NJ, bound=1.5),
)
def test_two_character_world_is_mirror_symmetric(gap, joints, joint_vels, root_vel, targets):
    """step_world([mirror(a), mirror(b)], -targets) == mirror(step_world([a, b], targets)).

    Combat's slot-1 frame depends on it.  The bound is 1e-10 of each
    state's largest entry: mirrored link angles round differently in the
    last bit, and stiff contact amplifies that.  Over 300 random contact
    states the error is 1e-15 of the scale in the median and reaches
    2e-11 in the worst one.
    """
    a = ph.nominal_stance(SPEC, CFG)
    b = ph.mirror_state(ph.nominal_stance(SPEC, CFG))
    for s, dx, i in ((a, -gap / 2, 0), (b, gap / 2, 1)):
        s.root_pos[0] += dx
        s.anchor_x += dx
        s.joint_angles = s.joint_angles + joints[i]
        s.joint_vels, s.root_vel = joint_vels[i], root_vel[i]
    states, reports = ph.step_world([a, b], [SPEC, SPEC], None, CFG.dt, CFG,
                                    pd_targets=list(targets))
    mirrored, m_reports = ph.step_world(
        [ph.mirror_state(a), ph.mirror_state(b)], [SPEC, SPEC], None, CFG.dt, CFG,
        pd_targets=list(-targets),
    )
    for s, m, r, mr in zip(states, mirrored, reports, m_reports):
        assert s.valid and m.valid
        want = state_vector(ph.mirror_state(s))
        scale = max(1.0, float(np.abs(want).max()))
        np.testing.assert_allclose(state_vector(m), want, rtol=0.0, atol=1e-10 * scale)
        assert np.array_equal(s.anchor_on, m.anchor_on)
        np.testing.assert_allclose(r.site_force, mr.site_force, rtol=1e-9, atol=1e-9)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(
    gap=st.floats(0.3, 0.45),
    approach=st.floats(0.5, 1.0),
    joint_vels=vec(2, NJ, bound=2.0),
    torques=vec(24, 2, NJ, bound=2.0),
)
def test_fighters_in_flight_conserve_pair_momentum(gap, approach, joint_vels, torques):
    """Newton's third law between fighters: two fighters closing in on
    each other in flight, with no ground in reach, touch, and the pair's
    summed momentum changes by gravity only.  The bound is 1e-9 of k times
    the largest per-step momentum change of either fighter after k
    control steps.

    The flight lasts 24 control steps (0.4 s), in which even the slowest
    pair closes 0.4 m, so the widest pair's roots come within about
    0.05 m of each other: the fighters touch whichever way their limbs
    swing.  12 steps are too few: at 0.4375 m, 0.5 m/s and limbs swinging
    apart the fighters do not touch in them."""
    a = ph.nominal_stance(SPEC, CFG)
    b = ph.mirror_state(ph.nominal_stance(SPEC, CFG))
    for s, side, i in ((a, -1.0, 0), (b, 1.0, 1)):
        s.root_pos = np.array([side * gap / 2, 8.0])
        s.anchor_x = s.anchor_on = None
        s.root_vel = np.array([-side * approach, 0.0])
        s.joint_vels = joint_vels[i]
    w = ph.World.of([a, b], SPEC)
    momenta = [[linear_momentum(w.state(i), SPEC) for i in range(2)]]
    gravity = np.array([0.0, -2.0 * SPEC.total_mass * CFG.gravity * CFG.dt])
    scale, touched = 0.0, False
    for k, tau in enumerate(torques, start=1):
        w, rep = ph.step_batch(w, SPEC, CFG.dt, CFG, torques=tau, coupled=True)
        if not w.valid.all() or np.abs(w.qd).max() > 1e3:
            # a hard collision can spin a light limb up until the integrator
            # gives up; past 1e3 rad/s the rounding of the internal velocities,
            # not the contact impulses, sets the momentum error
            break
        assert not rep.ground_contact.any()
        touched |= bool((rep.site_opponent > 0).any())
        momenta.append([linear_momentum(w.state(i), SPEC) for i in range(2)])
        scale = max(scale, *(np.abs(momenta[-1][i] - momenta[-2][i]).max() for i in range(2)))
        drift = sum(momenta[-1]) - sum(momenta[0]) - k * gravity
        assert np.abs(drift).max() <= 1e-9 * k * scale, (k, drift, scale)
    assert touched



@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(
    n_pairs=st.integers(2, 4),
    gaps=arrays(np.float64, 4, elements=st.floats(0.1, 0.25)),
    joints=vec(8, NJ, bound=1.0),
    joint_vels=vec(8, NJ, bound=4.0),
    targets=vec(3, 8, NJ, bound=1.5),
)
def test_stacked_pairs_obey_third_law_and_step_alone(n_pairs, gaps, joints, joint_vels, targets):
    """Close-range fighter pairs stacked in one coupled World, all at the
    same place: within every pair the net contact forces on rows 2i and
    2i + 1 are exact negations (Newton's third law), and each pair's
    control steps have the bits of that pair stepped alone, contact
    reports included, so pairs never touch each other."""
    states = []
    for i in range(n_pairs):
        a = ph.nominal_stance(SPEC, CFG)
        b = ph.mirror_state(ph.nominal_stance(SPEC, CFG))
        for s, side, row in ((a, -1.0, 2 * i), (b, 1.0, 2 * i + 1)):
            s.root_pos[0] += side * gaps[i] / 2
            s.anchor_x += side * gaps[i] / 2
            s.joint_angles = s.joint_angles + joints[row]
            s.joint_vels = joint_vels[row]
            states.append(s)
    n = 2 * n_pairs
    world = ph.World.of(states, SPEC)
    alone = [ph.World.of(states[2 * i : 2 * i + 2], SPEC) for i in range(n_pairs)]
    fields = [f.name for f in dataclasses.fields(ph.World)]
    touched = False
    for tg in targets:
        f_com = ph._coupling(ph.Kinematics.of(world, SPEC), SPEC, CFG)[0]
        assert np.array_equal(f_com[1::2], -f_com[0::2])
        touched |= bool(f_com.any())
        world, rep = ph.step_batch(world, SPEC, CFG.dt, CFG, pd_targets=tg[:n], coupled=True)
        for i in range(n_pairs):
            rows = slice(2 * i, 2 * i + 2)
            alone[i], rep_i = ph.step_batch(alone[i], SPEC, CFG.dt, CFG, pd_targets=tg[rows],
                                            coupled=True)
            for f in fields:
                assert np.array_equal(getattr(world, f)[rows], getattr(alone[i], f)), (i, f)
            for f in ("site_force", "site_ground", "site_opponent", "ground_contact"):
                assert np.array_equal(getattr(rep, f)[rows], getattr(rep_i, f)), (i, f)
    assert touched


def _batch_states(n: int) -> list[ph.SimState]:
    rng = np.random.default_rng(21)
    states = []
    for _ in range(n):
        s = ph.nominal_stance(SPEC, CFG)
        s.root_pos = s.root_pos + np.array([rng.uniform(-1.0, 1.0), rng.uniform(0.0, 0.3)])
        s.joint_angles = s.joint_angles + rng.uniform(-0.3, 0.3, NJ)
        s.joint_vels = rng.uniform(-2.0, 2.0, NJ)
        states.append(s)
    states[7].joint_vels[:] = 1e9  # the simulator flags it invalid at once
    return states


def test_batched_world_bit_identical_for_any_split():
    """60 control steps of 32 characters give the same bits per character
    whether they run as one world, 32 of one, 8 of four, 16+16 or 1+31."""
    states = _batch_states(32)
    rng = np.random.default_rng(22)
    base = ph.World.of(states, SPEC).q[:, 1:]
    targets = [base + 0.4 * rng.standard_normal(base.shape) for _ in range(60)]
    fields = [f.name for f in dataclasses.fields(ph.World)]

    def run(splits):
        worlds, forces, lo = [], [], 0
        for n in splits:
            w = ph.World.of(states[lo : lo + n], SPEC)
            for tg in targets:
                w, rep = ph.step_batch(w, SPEC, CFG.dt, CFG, pd_targets=tg[lo : lo + n])
            worlds.append(w)
            forces.append(rep.site_force)
            lo += n
        out = {f: np.concatenate([getattr(w, f) for w in worlds]) for f in fields}
        out["site_force"] = np.concatenate(forces)
        return out

    ref = run([32])
    assert not ref["valid"][7] and ref["valid"].sum() > 16
    for splits in ([1] * 32, [4] * 8, [16, 16], [1, 31]):
        got = run(splits)
        for k, v in ref.items():
            assert np.array_equal(v, got[k]), (splits[:2], k)
