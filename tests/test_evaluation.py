import numpy as np
import pytest

from slmp import evaluate as ev
from slmp import motion as mo
from slmp import nets
from slmp import physics as ph
from slmp import tracking as tr

SPEC = ph.default_character()
CFG = ph.default_config(SPEC)


class TestSurvivalCurve:
    def test_monotonicity_enforced(self):
        ev.SurvivalCurve((5.0, 10.0), (0.9, 0.5), 10)
        with pytest.raises(ValueError):
            ev.SurvivalCurve((5.0, 10.0), (0.5, 0.9), 10)
        with pytest.raises(ValueError):
            ev.SurvivalCurve((5.0, 10.0), (0.9, 0.5), 0)

    def test_stable_fixture_survives_all_horizons(self):
        stance = ph.nominal_stance(SPEC, CFG)
        targets = stance.joint_angles.copy()
        curve = ev.survival_eval(
            None, None, n_trials=3, horizons=(2.0, 4.0), seed=0,
            spec=SPEC, phys=CFG, action_fn=lambda state, rng: targets,
        )
        assert curve.fractions == (1.0, 1.0)

    def test_adversarial_fixture_dies_fast(self):
        extreme = np.full(SPEC.n_joints, 2.5)

        def wild(state, rng):
            return extreme * rng.choice([-1.0, 1.0], size=SPEC.n_joints)

        curve = ev.survival_eval(
            None, None, n_trials=4, horizons=(2.0, 5.0), seed=1,
            spec=SPEC, phys=CFG, action_fn=wild,
        )
        assert curve.fractions[1] == 0.0

    def test_curve_shape_and_determinism(self):
        stance = ph.nominal_stance(SPEC, CFG)
        targets = stance.joint_angles.copy()

        def act(state, rng):
            return targets + 0.3 * rng.standard_normal(SPEC.n_joints)

        a = ev.survival_eval(None, None, 5, (1.0, 2.0, 3.0), 7, spec=SPEC, phys=CFG, action_fn=act)
        b = ev.survival_eval(None, None, 5, (1.0, 2.0, 3.0), 7, spec=SPEC, phys=CFG, action_fn=act)
        assert a.fractions == b.fractions
        assert len(a.fractions) == 3

    def test_save_roundtrip(self, tmp_path):
        curve = ev.SurvivalCurve((5.0, 10.0, 20.0, 30.0), (1.0, 0.75, 0.5, 0.5), 4)
        ev.save_survival(curve, tmp_path / "s.csv")
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[0] == "horizon_s,survival_fraction,n_trials"
        assert len(lines) == 5


class TestTrackClip:
    def test_kinematic_replay_error_zero(self):
        clip = mo.generate_clip("footwork", 1, 4.0, spec=SPEC, cfg=CFG)
        states = []
        for k in range(0, clip.n_frames, 2):
            s = clip.frame_state(k)
            states.append(s)
        assert ev.tracking_error_kinematic(clip, states, SPEC) == pytest.approx(0.0, abs=1e-12)

    def test_kinematic_error_matches_per_state_sites(self):
        clip = mo.generate_clip("jab", 3, 4.0, spec=SPEC, cfg=CFG)
        rng = np.random.default_rng(4)
        states = []
        for k in range(0, clip.n_frames - 1, 3):
            s = clip.frame_state(k)
            s.time = (k + rng.uniform()) / clip.frame_rate
            s.root_pos = s.root_pos + rng.normal(0.0, 0.05, 2)
            s.root_angle += rng.normal(0.0, 0.1)
            s.joint_angles = s.joint_angles + rng.normal(0.0, 0.2, SPEC.n_joints)
            states.append(s)
        errs = []
        for s in states:
            rp, ra, jq, rv, rw, jv = clip.sample(s.time)
            ref = ph.SimState(rp, ra, jq, rv, rw, jv)
            d = ph.KinFrame(s, SPEC).site_pos - ph.KinFrame(ref, SPEC).site_pos
            errs.append(np.sqrt((d**2).sum(axis=1)).mean())
        want = float(np.mean(errs))
        assert want > 0.02
        got = ev.tracking_error_kinematic(clip, states, SPEC)
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_fall_counts_as_failure_with_prefall_error(self):
        clip = mo.generate_clip("idle", 0, 6.0, spec=SPEC, cfg=CFG)

        def failing_controller(state, t, c):
            # track for 1 s, then command a violent fold
            if t < 1.0:
                return c.joints[c.goal_frame_index(t)]
            return np.full(SPEC.n_joints, 2.8)

        ok, err = ev.track_clip(failing_controller, clip, SPEC, CFG)
        assert not ok
        assert err < 0.5  # averaged only over pre-failure frames

    def test_reference_controller_succeeds_on_idle(self):
        clip = mo.generate_clip("idle", 2, 4.0, spec=SPEC, cfg=CFG)
        ok, err = ev.track_clip(lambda s, t, c: c.joints[c.goal_frame_index(t)], clip, SPEC, CFG)
        assert ok
        assert err < 0.05


class TestKmeans:
    def test_two_far_pairs(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
        labels = ev.kmeans(pts, 2, seed=0)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_k_equals_n(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((6, 3))
        labels = ev.kmeans(pts, 6, seed=1)
        assert sorted(labels) == list(range(6))
        assert ev.kmeans_inertia(pts, labels) == pytest.approx(0.0)

    def test_inertia_never_increases(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((60, 4))
        prev = None
        for it in range(1, 8):
            labels = ev.kmeans(pts, 4, seed=3, max_iter=it)
            inertia = ev.kmeans_inertia(pts, labels)
            if prev is not None:
                assert inertia <= prev + 1e-9
            prev = inertia

    def test_errors(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError):
            ev.kmeans(pts, 4, seed=0)
        with pytest.raises(ValueError):
            ev.kmeans(pts, 2, seed=0)  # fewer than k distinct points

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((40, 3))
        assert np.array_equal(ev.kmeans(pts, 3, seed=9), ev.kmeans(pts, 3, seed=9))


def three_mode_decode(z):
    """Synthetic piecewise prior: three well-separated action modes chosen
    by the latent's leading coordinates."""
    if z[0] > 0.3:
        base = np.array([3.0, 0.0, 0.0])
    elif z[1] > 0.0:
        base = np.array([0.0, 3.0, 0.0])
    else:
        base = np.array([0.0, 0.0, 3.0])
    return base + 0.01 * z[:3]


class TestSphereClusters:
    def test_three_mode_prior_recovered(self):
        cloud = ev.sphere_clusters(three_mode_decode, latent_dim=4, n_samples=400, k=3, seed=0)
        assert len(np.unique(cloud.cluster_id)) == 3
        true = np.array([
            0 if z[0] > 0.3 else (1 if z[1] > 0.0 else 2) for z in cloud.z
        ])
        assert ev.label_agreement(cloud.cluster_id, true, 3) >= 0.95

    def test_constant_prior_single_cluster(self):
        cloud = ev.sphere_clusters(lambda z: np.array([1.0, 2.0]), 4, 50, k=3, seed=1)
        assert len(np.unique(cloud.cluster_id)) == 1

    def test_point_count_and_norms(self):
        cloud = ev.sphere_clusters(three_mode_decode, 5, 128, 3, seed=2)
        assert cloud.z.shape == (128, 5)
        assert np.allclose(np.linalg.norm(cloud.z, axis=1), 1.0, atol=1e-9)

    def test_k_exceeds_samples(self):
        with pytest.raises(ValueError):
            ev.sphere_clusters(three_mode_decode, 4, 2, 3, seed=0)

    def test_cloud_roundtrip(self, tmp_path):
        cloud = ev.sphere_clusters(three_mode_decode, 4, 64, 3, seed=3)
        ev.save_cloud(cloud, tmp_path / "c.txt")
        back = ev.load_cloud(tmp_path / "c.txt")
        assert np.array_equal(back.z, cloud.z)
        assert np.array_equal(back.cluster_id, cloud.cluster_id)
        assert np.array_equal(back.actions, cloud.actions)

    @pytest.mark.parametrize("text", ["", "\n", "SLMP-CLIP/1 d=4\n"])
    def test_load_cloud_rejects_empty_or_foreign_file(self, tmp_path, text):
        (tmp_path / "c.txt").write_text(text)
        with pytest.raises(ValueError, match="not a sphere cloud file"):
            ev.load_cloud(tmp_path / "c.txt")


class TestFixtures:
    def test_fixture_states_exist(self):
        for name in ("guard", "airborne"):
            st = ev.fixture_state(name, SPEC, CFG)
            assert np.isfinite(st.joint_angles).all()
        with pytest.raises(ValueError):
            ev.fixture_state("flying", SPEC, CFG)
