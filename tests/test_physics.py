import dataclasses
import json
import math

import numpy as np
import pytest

import reference
from reference import kinetic_energy, link_endpoints, linear_momentum, rot, step
from slmp import physics as ph

SPEC = ph.default_character()
CFG = ph.default_config(SPEC)


def single_link_spec():
    return ph.CharacterSpec(
        links=(ph.Link("rod", 1.0, 2.0, -1, rest_rel=0.0),),
        sites=(ph.Site("pelvis", 0, 0.0), ph.Site("head_top", 0, 1.0)),
        kp=(),
        kd=(),
    )


def floating(state, y=8.0):
    s = state.copy()
    s.root_pos = np.array([0.0, y])
    s.anchor_x = None
    s.anchor_on = None
    return s


class TestPdTorque:
    def test_zero_at_setpoint(self):
        st = ph.nominal_stance(SPEC, CFG)
        tau = ph.pd_rows(st.joint_angles, st.joint_vels, st.joint_angles, SPEC)
        assert np.allclose(tau, 0.0)

    def test_direct_substitution(self):
        spec = ph.CharacterSpec(
            links=(
                ph.Link("trunk", 1.0, 2.0, -1, rest_rel=math.pi / 2),
                ph.Link("arm", 0.5, 0.5, 0, rest_rel=math.pi, attach_end="distal"),
            ),
            sites=(ph.Site("pelvis", 0, 0.0), ph.Site("head_top", 0, 1.0)),
            kp=(10.0,),
            kd=(0.0,),
        )
        st = ph.SimState(np.zeros(2), 0.0, np.zeros(1), np.zeros(2), 0.0, np.zeros(1))
        tau = ph.pd_rows(st.joint_angles, st.joint_vels, np.array([0.5]), spec)
        assert tau[0] == pytest.approx(5.0)

    def test_clamped_at_tau_max(self):
        st = ph.nominal_stance(SPEC, CFG)
        targets = st.joint_angles + 3.0
        tau = ph.pd_rows(st.joint_angles, st.joint_vels, targets, SPEC)
        assert np.abs(tau).max() <= SPEC.tau_max + 1e-12
        assert np.abs(tau).max() == pytest.approx(SPEC.tau_max)


class TestStep:
    def test_equilibrium_without_forces(self):
        cfg = ph.PhysicsConfig(gravity=0.0)
        st = floating(ph.nominal_stance(SPEC, CFG))
        out, _ = step(st, SPEC, cfg, torques=np.zeros(8))
        assert np.allclose(out.root_pos, st.root_pos)
        assert np.allclose(out.joint_angles, st.joint_angles)
        assert np.allclose(out.root_vel, 0.0)

    def test_single_link_gravity_one_step(self):
        spec = single_link_spec()
        st = ph.SimState(np.array([0.0, 5.0]), 0.3, np.zeros(0), np.zeros(2), 0.0, np.zeros(0))
        out, _ = step(st, spec, CFG, torques=np.zeros(0))
        assert out.root_vel[1] == pytest.approx(-9.81 / 60, abs=1e-12)

    def test_flight_momentum_conservation(self):
        st = floating(ph.nominal_stance(SPEC, CFG))
        st.root_vel = np.array([0.3, 0.5])
        st.root_ang_vel = 0.4
        st.joint_vels = np.linspace(-1, 1, 8)
        rng = np.random.default_rng(0)
        p0 = linear_momentum(st, SPEC)
        for _ in range(12):  # 0.2 s of arbitrary internal torques
            st, _ = step(st, SPEC, CFG, torques=rng.uniform(-20, 20, 8))
        assert st.valid
        p1 = linear_momentum(st, SPEC)
        assert abs(p1[0] - p0[0]) / abs(p0[0]) < 1e-6
        assert p1[1] - p0[1] == pytest.approx(-SPEC.total_mass * 9.81 * 0.2, rel=1e-9)

    def test_bit_deterministic(self):
        st = ph.nominal_stance(SPEC, CFG)
        targets = st.joint_angles + 0.1
        a, ra = step(st.copy(), SPEC, CFG, targets=targets)
        b, rb = step(st.copy(), SPEC, CFG, targets=targets)
        assert np.array_equal(a.root_pos, b.root_pos)
        assert np.array_equal(a.joint_angles, b.joint_angles)
        assert np.array_equal(a.joint_vels, b.joint_vels)
        assert np.array_equal(ra.site_ground, rb.site_ground)

    def test_energy_drift_free_float(self):
        cfg = ph.PhysicsConfig(gravity=0.0)
        st = floating(ph.nominal_stance(SPEC, CFG))
        st.joint_vels = np.full(8, 1.0)
        st.root_ang_vel = 0.5
        e0 = kinetic_energy(st, SPEC)
        for _ in range(60):  # 1 s at 60 Hz
            st, _ = step(st, SPEC, cfg, torques=np.zeros(8))
        e1 = kinetic_energy(st, SPEC)
        assert abs(e1 - e0) / e0 < 0.02

    def test_contact_forces_nonnegative_and_vanish_off_ground(self):
        st = floating(ph.nominal_stance(SPEC, CFG))
        _, rep = step(st, SPEC, CFG, torques=np.zeros(8))
        assert not rep.ground_contact
        assert np.all(rep.site_force == 0.0)
        st2 = ph.nominal_stance(SPEC, CFG)
        _, rep2 = step(st2, SPEC, CFG, targets=st2.joint_angles)
        assert np.all(rep2.site_force >= 0.0)
        assert rep2.ground_contact

    def test_divergence_flags_invalid(self):
        st = floating(ph.nominal_stance(SPEC, CFG))
        st.joint_vels = np.full(8, 1e7)
        for _ in range(200):
            st, _ = step(st, SPEC, CFG, torques=np.full(8, SPEC.tau_max))
            if not st.valid:
                break
        assert not st.valid
        # invalid is sticky and the state stays finite
        st2, _ = step(st, SPEC, CFG, torques=np.zeros(8))
        assert not st2.valid
        assert np.isfinite(st2.joint_angles).all()


class TestKinematics:
    def test_rest_pose_cumulative_lengths(self):
        spec = SPEC
        st = ph.SimState(np.zeros(2), 0.0, np.zeros(8), np.zeros(2), 0.0, np.zeros(8))
        ends = link_endpoints(st, spec)
        # trunk points up from the root at zero angles
        assert np.allclose(ends[0, 0], [0.0, 0.0])
        assert np.allclose(ends[0, 1], [0.0, spec.links[0].length])
        # legs hang straight down from the pelvis
        assert np.allclose(ends[5, 1], [0.0, -0.4])
        assert np.allclose(ends[6, 1], [0.0, -0.8])
        # arms hang from the neck attachment point
        assert np.allclose(ends[1, 0], [0.0, 0.5])
        assert np.allclose(ends[2, 1], [0.0, 0.5 - 0.28 - 0.26])

    def test_rigid_rotation_about_root(self):
        st = ph.nominal_stance(SPEC, CFG)
        base = link_endpoints(st, SPEC)
        turned = st.copy()
        turned.root_angle += math.pi / 2
        got = link_endpoints(turned, SPEC)
        want = (base - st.root_pos) @ rot(math.pi / 2).T + st.root_pos
        assert np.allclose(got, want, atol=1e-12)

    def test_fk_matches_independent_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            st = ph.SimState(
                rng.uniform(-1, 1, 2), rng.uniform(-3, 3),
                rng.uniform(-2, 2, 8), np.zeros(2), 0.0, np.zeros(8),
            )
            got = link_endpoints(st, SPEC)
            want = _fk_oracle(st, SPEC)
            assert np.allclose(got, want, atol=1e-10)

    def test_localize_cases(self):
        v = np.array([[0.3, -0.7]])
        assert np.allclose(ph.to_local(np.zeros(1), v), v)
        rotated = ph.to_local(np.array([math.pi / 2]), np.array([[1.0, 0.0]]))
        assert np.allclose(rotated, [[0.0, -1.0]], atol=1e-15)

    def test_localize_roundtrip(self):
        rng = np.random.default_rng(12)
        angle = rng.uniform(-4, 4, 50)
        v = rng.uniform(-3, 3, (50, 2))
        assert np.allclose(ph.to_local(-angle, ph.to_local(angle, v)), v, atol=1e-12)


def _fk_oracle(state, spec):
    """Independent transform-chain forward kinematics."""
    n = spec.n_links
    angles = [0.0] * n
    prox = [None] * n
    angles[0] = state.root_angle + spec.links[0].rest_rel
    prox[0] = np.array(state.root_pos, dtype=float)
    for i in range(1, n):
        link = spec.links[i]
        p = link.parent
        base = 0.0 if link.attach_end == "proximal" else spec.links[p].length
        d = base + link.attach_offset
        angles[i] = angles[p] + link.rest_rel + state.joint_angles[i - 1]
        prox[i] = prox[p] + d * np.array([math.cos(angles[p]), math.sin(angles[p])])
    out = np.zeros((n, 2, 2))
    for i in range(n):
        u = np.array([math.cos(angles[i]), math.sin(angles[i])])
        out[i, 0] = prox[i]
        out[i, 1] = prox[i] + spec.links[i].length * u
    return out


class TestFall:
    def test_standing_not_fallen(self):
        assert not ph.detect_fall(ph.nominal_stance(SPEC, CFG), SPEC, CFG)

    def test_translated_below_threshold(self):
        st = ph.nominal_stance(SPEC, CFG)
        torso = ph.KinFrame(st, SPEC).point_on_link(0, SPEC.torso_center_dist)
        drop = torso[1] - CFG.fall_height + 0.01
        st.root_pos = st.root_pos - np.array([0.0, drop])
        assert ph.detect_fall(st, SPEC, CFG)

    def test_invalid_state_counts_as_fall(self):
        st = ph.nominal_stance(SPEC, CFG)
        st.valid = False
        assert ph.detect_fall(st, SPEC, CFG)


class TestStance:
    def test_holds_under_reference_pd(self):
        st = ph.nominal_stance(SPEC, CFG)
        targets = st.joint_angles.copy()
        for _ in range(600):
            st, _ = step(st, SPEC, CFG, targets=targets)
        assert st.valid and not ph.detect_fall(st, SPEC, CFG)

    def test_anchors_and_fall_height_match_kinframe(self):
        """The stance's foot anchors and the derived fall threshold equal
        the per-state KinFrame formulas bit for bit."""
        cfg = ph.PhysicsConfig()
        st = ph.nominal_stance(SPEC, cfg)
        frame = ph.KinFrame(st, SPEC)
        tilt = st.joint_angles[SPEC.joint("upper_leg_l")]
        shear = SPEC.total_mass * cfg.gravity / 2.0 * math.tan(tilt) / cfg.contact_kt
        for name, sign in (("foot_l", -1.0), ("foot_r", 1.0)):
            s = SPEC.site_index[name]
            assert st.anchor_x[s] == frame.site_pos[s, 0] + sign * shear
        torso = frame.point_on_link(0, SPEC.torso_center_dist)
        assert ph.default_config(SPEC).fall_height == cfg.fall_frac * float(torso[1])

    def test_mirror_state_roundtrip(self):
        st = ph.nominal_stance(SPEC, CFG)
        st.root_vel = np.array([0.4, -0.2])
        st.joint_vels = np.linspace(-1, 1, 8)
        back = ph.mirror_state(ph.mirror_state(st, 0.3), 0.3)
        assert np.allclose(back.root_pos, st.root_pos)
        assert np.allclose(back.joint_angles, st.joint_angles)
        assert np.allclose(back.root_vel, st.root_vel)


class TestTwoCharacterContact:
    def test_punch_transfers_momentum_and_reports(self):
        a = ph.nominal_stance(SPEC, CFG)
        b = ph.mirror_state(ph.nominal_stance(SPEC, CFG), 0.0)
        b.root_pos[0] += 0.52
        if b.anchor_x is not None:
            b.anchor_x += 0.52
        # drive a's lead hand into b's trunk
        a.joint_vels = np.zeros(8)
        a.joint_angles[SPEC.joint("upper_arm_l")] = 1.5
        a.joint_angles[SPEC.joint("lower_arm_l")] = 0.1
        a.joint_vels[SPEC.joint("upper_arm_l")] = 8.0
        hit = False
        for _ in range(30):
            states, reports = ph.step_world(
                [a, b], [SPEC, SPEC], [np.zeros(8), np.zeros(8)], CFG.dt, CFG
            )
            a, b = states
            s = SPEC.site_index["hand_l"]
            if reports[0].site_opponent[s] > 0:
                hit = True
                break
        assert hit

    def test_symmetric_world_total_momentum(self):
        a = ph.nominal_stance(SPEC, CFG)
        b = ph.mirror_state(a, 0.0)
        a.root_pos[0] -= 0.3
        b.root_pos[0] += 0.3
        for s, dx in ((a, -0.3), (b, 0.3)):
            if s.anchor_x is not None:
                s.anchor_x += dx
        a.root_vel = np.array([1.0, 0.0])
        b.root_vel = np.array([-1.0, 0.0])
        a.root_pos[1] += 3.0
        b.root_pos[1] += 3.0
        a.anchor_x = None; a.anchor_on = None
        b.anchor_x = None; b.anchor_on = None
        cfg = ph.PhysicsConfig(gravity=0.0)
        px0 = linear_momentum(a, SPEC)[0] + linear_momentum(b, SPEC)[0]
        for _ in range(40):
            (a, b), _ = ph.step_world([a, b], [SPEC, SPEC], [np.zeros(8)] * 2, cfg.dt, cfg)
        px1 = linear_momentum(a, SPEC)[0] + linear_momentum(b, SPEC)[0]
        assert px1 == pytest.approx(px0, abs=1e-9)

    def test_flat_coupling_matches_the_per_pair_loop(self):
        """The one flat pass over every contact gives the per-pair loop's
        contact set in all four outputs, and its values up to the order of
        summation, on close-range stacks of 1-8 pairs."""
        rng = np.random.default_rng(5)
        contacts = 0
        for _ in range(60):
            states = []
            for _ in range(rng.integers(1, 9)):
                gap = rng.uniform(0.05, 0.35)
                pair = (ph.nominal_stance(SPEC, CFG), ph.mirror_state(ph.nominal_stance(SPEC, CFG)))
                for s, side in zip(pair, (-1.0, 1.0)):
                    s.root_pos[0] += side * gap / 2
                    s.joint_angles = s.joint_angles + rng.uniform(-1.0, 1.0, 8)
                    s.joint_vels = rng.uniform(-4.0, 4.0, 8)
                    states.append(s)
            k = ph.Kinematics.of(ph.World.of(states, SPEC), SPEC)
            contacts += int(ph._capsule_distances(k, SPEC)[0].sum())
            for flat, loop in zip(ph._coupling(k, SPEC, CFG), reference.coupling(k, SPEC, CFG)):
                assert np.array_equal(flat != 0.0, loop != 0.0)
                assert np.abs(flat - loop).max() <= 1e-12 * np.abs(loop).max()
        assert contacts > 1000


KIN_FIELDS = ("root_pos", "root_vel", "cos", "sin", "phidot", "site_x", "site_y", "site_vx", "site_vy")


def assert_kin_of_world(kin, world):
    """``kin`` has the bits of the Kinematics built afresh from ``world``."""
    fresh = ph.Kinematics.of(world, SPEC)
    for f in KIN_FIELDS:
        assert np.array_equal(getattr(kin, f), getattr(fresh, f)), f


class TestKinematicsHandOff:
    def test_uncoupled_with_a_row_invalidated_mid_step(self):
        """Rows that diverge keep their last state, and the handed-on
        kinematics keep theirs: row 7 goes invalid in the first substep."""
        rng = np.random.default_rng(21)
        states = []
        for _ in range(12):
            s = ph.nominal_stance(SPEC, CFG)
            s.root_pos = s.root_pos + np.array([rng.uniform(-1.0, 1.0), rng.uniform(0.0, 0.3)])
            s.joint_angles = s.joint_angles + rng.uniform(-0.3, 0.3, 8)
            s.joint_vels = rng.uniform(-2.0, 2.0, 8)
            states.append(s)
        states[7].joint_vels[:] = 1e9
        world = ph.World.of(states, SPEC)
        for k in range(20):
            tg = world.q[:, 1:] + 0.4 * rng.standard_normal((12, 8))
            world, rep = ph.step_batch(world, SPEC, CFG.dt, CFG, pd_targets=tg)
            assert_kin_of_world(rep.kin, world)
            assert not world.valid[7] and world.valid.sum() == 11, k

    def test_coupled_pair_in_contact(self):
        """a's lead hand swings into b's trunk, so the pair touches."""
        a = ph.nominal_stance(SPEC, CFG)
        b = ph.mirror_state(ph.nominal_stance(SPEC, CFG), 0.0)
        b.root_pos[0] += 0.52
        b.anchor_x += 0.52
        a.joint_angles[SPEC.joint("upper_arm_l")] = 1.5
        a.joint_angles[SPEC.joint("lower_arm_l")] = 0.1
        a.joint_vels[SPEC.joint("upper_arm_l")] = 8.0
        world = ph.World.of([a, b], SPEC)
        touched = 0
        for _ in range(30):
            world, rep = ph.step_batch(world, SPEC, CFG.dt, CFG, torques=np.zeros((2, 8)),
                                       coupled=True)
            assert_kin_of_world(rep.kin, world)
            touched += bool(rep.site_opponent.any())
        assert touched

    def test_report_holds_first_substep_torques(self):
        """PD mode: the PD torques of the input world, bit for bit; torque
        mode: the given torques."""
        rng = np.random.default_rng(4)
        states = []
        for _ in range(6):
            s = ph.nominal_stance(SPEC, CFG)
            s.joint_angles = s.joint_angles + rng.uniform(-0.5, 0.5, 8)
            s.joint_vels = rng.uniform(-3.0, 3.0, 8)
            states.append(s)
        world = ph.World.of(states, SPEC)
        targets = world.q[:, 1:] + rng.uniform(-2.0, 2.0, (6, 8))
        _, rep = ph.step_batch(world, SPEC, CFG.dt, CFG, pd_targets=targets)
        want = ph.pd_rows(world.q[:, 1:], world.qd[:, 1:], targets, SPEC)
        assert rep.torques.tobytes() == want.tobytes()
        assert np.abs(want).max() == SPEC.tau_max  # the clamp is exercised
        torques = rng.uniform(-20.0, 20.0, (6, 8))
        _, rep = ph.step_batch(world, SPEC, CFG.dt, CFG, torques=torques)
        assert np.array_equal(rep.torques, torques)

    def test_one_kinematics_pass_per_substep(self, monkeypatch):
        """A default uncoupled control step builds one Kinematics from
        angles, for its input, with 2 row products, and makes 4 per
        substep: the site-force and bias map, the joint-to-link torques,
        the link angles and the site and COM offsets, which the next
        substep's kinematics reuse."""
        world = ph.World.of([ph.nominal_stance(SPEC, CFG)] * 32, SPEC)
        counts = {"built": 0, "products": 0}
        init, product = ph.Kinematics.__init__, ph.row_product

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ph.Kinematics, "__init__", counted("built", init))
        monkeypatch.setattr(ph, "row_product", counted("products", product))
        ph.step_batch(world, SPEC, CFG.dt, CFG, pd_targets=world.q[:, 1:])
        assert counts["built"] == 1
        assert counts["products"] == 2 + 4 * CFG.substeps


class TestLinkSpaceSolve:
    @pytest.mark.parametrize("coupled", [False, True], ids=["uncoupled", "coupled"])
    def test_accelerations_match_the_joint_space_solve(self, coupled, monkeypatch):
        """The angular accelerations of every substep of ``step_batch``
        agree with the joint-space solve, to 1e-12 of each row's largest,
        on random states with raw torques: the link-space solve keeps the
        integrator's meaning."""
        calls = []
        accel = ph._angular_accel

        def recording(k, spec, fx, fy, tau, pair=None):
            got = accel(k, spec, fx, fy, tau, pair)
            calls.append((got, reference.joint_space_accel(k, spec, fx, fy, tau, pair), pair))
            return got

        monkeypatch.setattr(ph, "_angular_accel", recording)
        rng = np.random.default_rng(31)
        states = []
        for i in range(12):
            s = ph.nominal_stance(SPEC, CFG)
            if coupled and i % 2:
                s = ph.mirror_state(s)
            s.root_pos[0] += (0.15 if i % 2 else -0.15) if coupled else rng.uniform(-1.0, 1.0)
            s.root_angle += rng.uniform(-0.3, 0.3)
            s.joint_angles = s.joint_angles + rng.uniform(-0.8, 0.8, 8)
            s.joint_vels = rng.uniform(-4.0, 4.0, 8)
            s.anchor_x = None
            s.anchor_on = None
            states.append(s)
        world = ph.World.of(states, SPEC)
        for _ in range(3):
            world, _ = ph.step_batch(world, SPEC, CFG.dt, CFG, torques=rng.uniform(-30.0, 30.0, (12, 8)),
                                     coupled=coupled)
        assert len(calls) == 3 * CFG.substeps
        if coupled:
            assert any(np.abs(pair[0]).max() > 0.0 for _, _, pair in calls)
        for got, want, _ in calls:
            assert np.all(np.isfinite(want))
            scale = np.abs(want).max(axis=1, keepdims=True)
            assert np.all(np.abs(got - want) <= 1e-12 * scale)


class TestCharacterIO:
    def test_json_roundtrip(self, tmp_path):
        ph.character_to_json(SPEC, tmp_path / "char.json")
        spec2 = ph.character_from_json(tmp_path / "char.json")
        assert spec2.n_links == SPEC.n_links
        assert spec2.kp == SPEC.kp
        st1 = ph.nominal_stance(SPEC, CFG)
        st2 = ph.nominal_stance(spec2, CFG)
        assert np.allclose(st1.joint_angles, st2.joint_angles)

    def test_json_without_optional_keys_takes_spec_defaults(self, tmp_path):
        optional = ("contact_radius", "tau_max", "torso_center_dist", "head_center_dist")
        ph.character_to_json(SPEC, tmp_path / "char.json")
        doc = json.loads((tmp_path / "char.json").read_text())
        for key in optional:
            del doc[key]
        (tmp_path / "char.json").write_text(json.dumps(doc))
        spec2 = ph.character_from_json(tmp_path / "char.json")
        defaults = {f.name: f.default for f in dataclasses.fields(ph.CharacterSpec)}
        assert {k: getattr(spec2, k) for k in optional} == {k: defaults[k] for k in optional}
        assert spec2 == SPEC

    def test_tree_validation(self):
        with pytest.raises(ValueError):
            ph.CharacterSpec(
                links=(
                    ph.Link("trunk", 1.0, 1.0, -1),
                    ph.Link("a", 1.0, 1.0, 5),
                ),
                sites=(ph.Site("pelvis", 0, 0.0), ph.Site("head_top", 0, 1.0)),
                kp=(1.0,),
                kd=(1.0,),
            )

    @pytest.mark.parametrize("name", ["tau_max", "contact_radius"])
    def test_non_positive_limit_refused(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be positive, got 0.0$"):
            dataclasses.replace(SPEC, **{name: 0.0})


@pytest.mark.parametrize("name, value, error", [
    ("hz", -60.0, "must be positive"),
    ("hz", math.inf, "must be positive"),
    ("substeps", 0, "must be positive"),
    ("contact_kn", 0.0, "must be positive"),
    ("contact_kt", 0.0, "must be positive"),
    ("gravity", -1.0, "must be non-negative"),
    ("gravity", math.inf, "must be non-negative"),
    ("contact_dn", -1.0, "must be non-negative"),
    ("friction_mu", -1.0, "must be non-negative"),
    ("fall_frac", 1.0, r"must be in \(0, 1\)"),
])
def test_physics_config_refuses_a_bad_value(name, value, error):
    """A value that would divide by zero or run unphysical dynamics is
    refused where the config is built, for library callers as for files."""
    with pytest.raises(ValueError, match=f"^{name} {error}, got {value}$"):
        ph.PhysicsConfig(**{name: value})


def test_wrap_angle():
    got = ph.wrap_angle(np.array([math.pi, -math.pi, 3 * math.pi / 2]))
    assert np.allclose(got, [math.pi, math.pi, -math.pi / 2])
    arr = ph.wrap_angle(np.array([0.0, 2 * math.pi, -2 * math.pi]))
    assert np.allclose(arr, 0.0)


def test_wrap_angle_bits_equal_the_mod_form():
    """``fmod`` plus the fix-up gives the bits of ``np.mod`` plus the same
    fix-up: at multiples of pi, one ulp either side of them, signed zeros,
    tiny and huge magnitudes, nan, and when written into ``out``."""
    rng = np.random.default_rng(21)
    k = np.arange(-400, 401)
    x = np.concatenate([
        rng.uniform(-50.0, 50.0, 20000), k * math.pi, (2 * k + 1) * math.pi, k * 2 * math.pi,
        [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e16, -1e16, 1e300, -1e300, np.nan],
    ])
    x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])
    want = reference.wrap_angle(x).tobytes()
    assert ph.wrap_angle(x).tobytes() == want
    out = np.zeros((x.size, 3))
    assert ph.wrap_angle(x, out=out[:, 1]) is not None and out[:, 1].tobytes() == want
