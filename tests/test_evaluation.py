import math
import re

import numpy as np
import pytest

from reference import (kmeans_inertia, label_agreement, one_clip, proprio, step, table_token,
                       tracking_error_kinematic)
from slmp import distill as di
from slmp import evaluate as ev
from slmp import motion as mo
from slmp import nets
from slmp import physics as ph
from slmp import tracking as tr
from slmp.seeding import seed_for

SPEC = ph.default_character()
CFG = ph.default_config(SPEC)
PROPRIO = tr.PROPRIO.of(SPEC.n_joints)


def cloud_row(*values):
    """One cloud table line of ``values``."""
    return " ".join(map(table_token, values)) + "\n"


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
            spec=SPEC, phys=CFG, action_fn=lambda world, rngs: np.tile(targets, (len(rngs), 1)),
        )
        assert curve.fractions == (1.0, 1.0)

    def test_adversarial_fixture_dies_fast(self):
        extreme = np.full(SPEC.n_joints, 2.5)

        def wild(world, rngs):
            return np.stack([extreme * rng.choice([-1.0, 1.0], size=SPEC.n_joints) for rng in rngs])

        curve = ev.survival_eval(
            None, None, n_trials=4, horizons=(2.0, 5.0), seed=1,
            spec=SPEC, phys=CFG, action_fn=wild,
        )
        assert curve.fractions[1] == 0.0

    def test_curve_shape_and_determinism(self):
        stance = ph.nominal_stance(SPEC, CFG)
        targets = stance.joint_angles.copy()

        def act(world, rngs):
            return np.stack([targets + 0.3 * rng.standard_normal(SPEC.n_joints) for rng in rngs])

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

    def test_saved_columns_are_numbers(self, tmp_path):
        """survival_eval's fractions are numpy floats; the CSV must still
        hold plain numbers in every column."""
        stance = ph.nominal_stance(SPEC, CFG)
        targets = stance.joint_angles.copy()
        curve = ev.survival_eval(
            None, None, n_trials=2, horizons=(0.5, 1.0), seed=0,
            spec=SPEC, phys=CFG, action_fn=lambda world, rngs: np.tile(targets, (len(rngs), 1)),
        )
        ev.save_survival(curve, tmp_path / "s.csv")
        rows = [line.split(",") for line in (tmp_path / "s.csv").read_text().splitlines()[1:]]
        assert [[float(v) for v in row] for row in rows] == [[0.5, 1.0, 2.0], [1.0, 1.0, 2.0]]


def survival_reference(phi_spec, phi_params, n_trials, seed, steps, resample_steps, action_fn=None):
    """The per-trial loop ``survival_eval`` replaced: each trial's fall
    time (inf if it stands), one ``step_world`` call and one
    ``detect_fall`` per control step, with ``action_fn(state, rng)``.
    Also returns each trial's lowest torso-center height over its steps,
    the height that ``physics.fallen`` compares with ``fall_height``."""
    latent_dim = None if action_fn else di.latent_width(phi_spec, SPEC)
    fall_times, lowest = [], []
    for trial in range(n_trials):
        rng = np.random.default_rng(seed_for(seed, f"survival-{trial}"))
        state = ph.nominal_stance(SPEC, CFG)
        z = di.sample_sphere(latent_dim, rng, 1)[0] if latent_dim else None
        fall_time, low = math.inf, math.inf
        for k in range(steps):
            if latent_dim and k > 0 and k % resample_steps == 0:
                z = di.sample_sphere(latent_dim, rng, 1)[0]
            if action_fn is not None:
                targets = action_fn(state, rng)
            else:
                targets = di.prior_action(nets.RowNet(phi_spec, phi_params), proprio(state)[None], z[None])[0]
            state, _ = step(state, SPEC, CFG, targets=targets)
            low = min(low, state.root_pos[1] + SPEC.torso_center_dist * ph.KinFrame(state, SPEC).u[0, 1])
            if not state.valid or ph.detect_fall(state, SPEC, CFG):
                fall_time = (k + 1) * CFG.dt
                break
        fall_times.append(fall_time)
        lowest.append(low)
    return np.array(fall_times), np.array(lowest)


class TestSurvivalRows:
    """``survival_eval`` against the per-trial loop.  Its horizons sit
    between consecutive control steps, so the curve fixes every fall time."""

    STEPS = 72
    HORIZONS = tuple((k + 0.5) * CFG.dt for k in range(STEPS))

    def _check(self, curve, want):
        alive = np.array([(want > h).sum() for h in self.HORIZONS])
        assert curve.fractions == tuple(alive / len(want))
        # trials fall at several different times, and one stands to the end
        assert len(set(want[np.isfinite(want)])) >= 5 and np.isinf(want).any()

    def test_prior_matches_per_trial_loop(self):
        """Two of the 8 trials stand to the end with their torso center
        never below 0.5 m above ``fall_height`` (it starts ~0.65 m above),
        so the curve's last point does not hang on a near fall."""
        phi_spec = nets.MlpSpec(PROPRIO.width + 4, (16,), SPEC.n_joints)
        phi_params = 0.3 * nets.init_params(phi_spec, np.random.default_rng(7))
        want, lowest = survival_reference(phi_spec, phi_params, 8, 11, self.STEPS, 15)
        curve = ev.survival_eval(phi_spec, phi_params, 8, self.HORIZONS, 11,
                                 resample_period=15 * CFG.dt, spec=SPEC, phys=CFG)
        self._check(curve, want)
        assert np.isinf(want).sum() >= 2
        assert (lowest[np.isinf(want)] > CFG.fall_height + 0.5).all()

    def test_action_fn_matches_per_trial_loop(self):
        stance = ph.nominal_stance(SPEC, CFG).joint_angles

        def act(state, rng):
            return stance + 1.2 * rng.standard_normal(SPEC.n_joints)

        want, _ = survival_reference(None, None, 8, 12, self.STEPS, 15, action_fn=act)
        curve = ev.survival_eval(None, None, 8, self.HORIZONS, 12, spec=SPEC, phys=CFG,
                                 action_fn=lambda world, rngs: np.stack([act(None, r) for r in rngs]))
        self._check(curve, want)


@pytest.mark.parametrize("latent", [0, 1, -2])
def test_survival_refuses_a_prior_of_fewer_than_2_latent_columns(latent):
    """A prior whose input leaves fewer than 2 latent columns past the
    proprio block (``sample_sphere``'s bound) is refused by header key."""
    phi_spec = nets.MlpSpec(PROPRIO.width + latent, (4,), SPEC.n_joints)
    with pytest.raises(ValueError, match=f"header line input={PROPRIO.width + latent}: "):
        ev.survival_eval(phi_spec, np.zeros(phi_spec.param_count()), 2, (0.5,), 0,
                         spec=SPEC, phys=CFG)


@pytest.mark.parametrize("key, phi_in, phi_out", [("input", PROPRIO.width - 2, SPEC.n_joints),
                                                  ("output", PROPRIO.width + 4, 4)])
def test_latent_tracking_refuses_a_prior_of_other_widths(tmp_path, key, phi_in, phi_out):
    """``latent_tracking_eval`` refuses a prior narrower than the proprio
    block, or of another action width, by file and header key."""
    rng = np.random.default_rng(0)
    for name, net in (("encoder", nets.MlpSpec(mo.GOAL.width(SPEC), (4,), 4)),
                      ("pi_phi", nets.MlpSpec(phi_in, (4,), phi_out))):
        nets.save_checkpoint(tmp_path / f"{name}.ckpt", name, net, nets.init_params(net, rng))
    value = {"input": phi_in, "output": phi_out}[key]
    refused = re.escape(f"{tmp_path / 'pi_phi.ckpt'}: header line {key}={value}: ")
    clips = [one_clip("idle", 0, 2.0, spec=SPEC, cfg=CFG)]
    with pytest.raises(ValueError, match=refused):
        ev.latent_tracking_eval(clips, tmp_path, spec=SPEC, phys=CFG)


@pytest.mark.parametrize("key, enc_in, enc_out", [("input", mo.GOAL.width(SPEC) + 3, 4),
                                                  ("output", mo.GOAL.width(SPEC), 6)])
def test_latent_tracking_refuses_an_encoder_of_other_widths(tmp_path, key, enc_in, enc_out):
    """``latent_tracking_eval`` refuses an encoder that does not map goal
    rows onto the prior's 4 latent columns, by file and header key."""
    rng = np.random.default_rng(0)
    for name, net in (("encoder", nets.MlpSpec(enc_in, (4,), enc_out)),
                      ("pi_phi", nets.MlpSpec(PROPRIO.width + 4, (4,), SPEC.n_joints))):
        nets.save_checkpoint(tmp_path / f"{name}.ckpt", name, net, nets.init_params(net, rng))
    value = {"input": enc_in, "output": enc_out}[key]
    refused = re.escape(f"{tmp_path / 'encoder.ckpt'}: header line {key}={value}: ")
    clips = [one_clip("idle", 0, 2.0, spec=SPEC, cfg=CFG)]
    with pytest.raises(ValueError, match=refused):
        ev.latent_tracking_eval(clips, tmp_path, spec=SPEC, phys=CFG)


@pytest.mark.parametrize("key, exp_in, exp_out", [("input", tr.TRACK_OBS.width(SPEC) + 3, SPEC.n_joints),
                                                  ("output", tr.TRACK_OBS.width(SPEC), SPEC.n_joints - 2)])
def test_latent_tracking_refuses_an_expert_of_other_widths(tmp_path, key, exp_in, exp_out):
    """``eval-track --expert`` refuses an expert that does not map tracking
    rows onto one action per joint, by file and header key.  The prior is
    one that tracks (no zero encoding), so only the expert can fail."""
    rng = np.random.default_rng(0)
    for name, net in (("encoder", nets.MlpSpec(mo.GOAL.width(SPEC), (4,), 4)),
                      ("pi_phi", nets.MlpSpec(PROPRIO.width + 4, (4,), SPEC.n_joints))):
        nets.save_checkpoint(tmp_path / f"{name}.ckpt", name, net, rng.normal(size=net.param_count()))
    expert = tr.GaussianPolicy(nets.MlpSpec(exp_in, (4,), exp_out))
    tr.save_policy(tmp_path / "pi_track.ckpt", "policy", expert, expert.init(rng, 0.1))
    value = {"input": exp_in, "output": exp_out}[key]
    refused = re.escape(f"{tmp_path / 'pi_track.ckpt'}: header line {key}={value}: ")
    clips = [one_clip("idle", 0, 2.0, spec=SPEC, cfg=CFG)]
    with pytest.raises(ValueError, match=refused):
        ev.latent_tracking_eval(clips, tmp_path, tmp_path / "pi_track.ckpt", spec=SPEC, phys=CFG)


class TestTrackClip:
    def test_kinematic_replay_error_zero(self):
        clip = one_clip("footwork", 1, 4.0, spec=SPEC, cfg=CFG)
        states = []
        for k in range(0, clip.n_frames, 2):
            s = clip.frame_state(k)
            states.append(s)
        assert tracking_error_kinematic(clip, states, SPEC) == pytest.approx(0.0, abs=1e-12)

    def test_kinematic_error_matches_per_state_sites(self):
        clip = one_clip("jab", 3, 4.0, spec=SPEC, cfg=CFG)
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
        got = tracking_error_kinematic(clip, states, SPEC)
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_fall_counts_as_failure_with_prefall_error(self):
        clip = one_clip("idle", 0, 6.0, spec=SPEC, cfg=CFG)

        def failing_controller(batch, obs):
            # track for 1 s, then command a violent fold
            return np.where((batch.t < 1.0)[:, None], batch.ref_base(), 2.8)

        (ok,), (err,) = tr.track_clips(failing_controller, [clip], SPEC, CFG)
        assert not ok
        assert err < 0.5  # averaged only over pre-failure frames

    def test_reference_controller_succeeds_on_idle(self):
        clip = one_clip("idle", 2, 4.0, spec=SPEC, cfg=CFG)
        (ok,), (err,) = tr.track_clips(lambda batch, obs: batch.ref_base(), [clip], SPEC, CFG)
        assert ok
        assert err < 0.05


def track_clip_reference(controller, clip, e_div=0.5):
    """The per-clip loop ``track_clips`` replaced: one ``SimState`` at a
    time, with ``controller(state, t, clip)`` giving the PD targets."""
    state, t, errs = clip.frame_state(0), 0.0, []
    steps = int((clip.duration - 1.0 / clip.frame_rate) * CFG.hz) - 1
    for _ in range(steps):
        state, _ = step(state, SPEC, CFG, targets=controller(state, t, clip))
        t += CFG.dt
        rp, ra, jq, rv, rw, jv = clip.sample(t)
        e = tr.imitation_reward(state, ph.SimState(rp, ra, jq, rv, rw, jv), SPEC)[1]
        errs.append(e)
        if ph.detect_fall(state, SPEC, CFG) or e > e_div:
            return False, float(np.mean(errs))
    return True, float(np.mean(errs))


class TestTrackClips:
    """``track_clips`` against the per-clip loop, clip lengths differing."""

    FAMILIES = ("idle", "footwork", "jab", "hook", "kick", "combo", "kick", "hook")
    CLIPS = [one_clip(f, 10 + i, 2.0 + 0.1 * i, spec=SPEC, cfg=CFG)
             for i, f in enumerate(FAMILIES)]

    @staticmethod
    def _controllers():
        """(per-state, row) forms of the reference-pose controller and of
        an untrained expert."""
        pcfg = tr.PpoConfig(pi_hidden=(16,), critic_hidden=(4,))
        ts = tr.build_networks(tr.TRACK_OBS.width(SPEC), SPEC.n_joints, pcfg, seed=0)
        policy, params = ts.policy, ts.policy_params

        def expert(state, t, clip):
            obs = tr.track_obs(state, SPEC, clip, t)
            base = mo.split_frames(clip.frames)[1][clip.goal_frame_index(t), 1:]
            return tr.action_to_targets(policy.row_net(params)(obs[None])[0], base)

        return {
            "reference": (lambda state, t, clip:
                          mo.split_frames(clip.frames)[1][clip.goal_frame_index(t), 1:],
                          lambda batch, obs: batch.ref_base()),
            "expert": (expert, tr.expert_controller(policy.row_net(params))),
        }

    @pytest.mark.parametrize("name", ["reference", "expert"])
    def test_bit_equal_to_per_clip_loop(self, name):
        per_state, rows = self._controllers()[name]
        want = [track_clip_reference(per_state, clip) for clip in self.CLIPS]
        ok, err = tr.track_clips(rows, self.CLIPS, SPEC, CFG)
        assert ok.tolist() == [w[0] for w in want]
        assert err.tolist() == [w[1] for w in want]
        if name == "reference":
            assert 0 < ok.sum() < len(self.CLIPS)  # successes and failures
        # one batch equals a 1 + (N - 1) split
        head = tr.track_clips(rows, self.CLIPS[:1], SPEC, CFG)
        tail = tr.track_clips(rows, self.CLIPS[1:], SPEC, CFG)
        assert np.array_equal(ok, np.concatenate([head[0], tail[0]]))
        assert np.array_equal(err, np.concatenate([head[1], tail[1]]))


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
        assert kmeans_inertia(pts, labels) == pytest.approx(0.0)

    def test_inertia_never_increases(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((60, 4))
        prev = None
        for it in range(1, 8):
            labels = ev.kmeans(pts, 4, seed=3, max_iter=it)
            inertia = kmeans_inertia(pts, labels)
            if prev is not None:
                assert inertia <= prev + 1e-9
            prev = inertia

    def test_errors(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError):
            ev.kmeans(pts, 4, seed=0)
        with pytest.raises(ValueError):
            ev.kmeans(pts, 2, seed=0)  # fewer than k distinct points

    @pytest.mark.parametrize("k", [0, -2])
    def test_non_positive_k_refused(self, k):
        pts = np.random.default_rng(6).standard_normal((20, 3))
        with pytest.raises(ValueError, match=f"k={k}"):
            ev.kmeans(pts, k, seed=0)
        with pytest.raises(ValueError, match=f"k={k}"):
            ev.sphere_clusters(three_mode_decode, 4, 20, k, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((40, 3))
        assert np.array_equal(ev.kmeans(pts, 3, seed=9), ev.kmeans(pts, 3, seed=9))


def three_mode_decode(z):
    """Synthetic piecewise prior on latent rows: three well-separated action
    modes chosen by each latent's leading coordinates."""
    base = np.where(z[:, :1] > 0.3, [3.0, 0.0, 0.0],
                    np.where(z[:, 1:2] > 0.0, [0.0, 3.0, 0.0], [0.0, 0.0, 3.0]))
    return base + 0.01 * z[:, :3]


class TestSphereClusters:
    def test_three_mode_prior_recovered(self):
        cloud = ev.sphere_clusters(three_mode_decode, latent_dim=4, n_samples=400, k=3, seed=0)
        assert len(np.unique(cloud.cluster_id)) == 3
        true = np.array([
            0 if z[0] > 0.3 else (1 if z[1] > 0.0 else 2) for z in cloud.z
        ])
        assert label_agreement(cloud.cluster_id, true, 3) >= 0.95

    def test_constant_prior_single_cluster(self):
        cloud = ev.sphere_clusters(lambda z: np.tile([1.0, 2.0], (len(z), 1)), 4, 50, k=3, seed=1)
        assert len(np.unique(cloud.cluster_id)) == 1

    def test_point_count_and_norms(self):
        cloud = ev.sphere_clusters(three_mode_decode, 5, 128, 3, seed=2)
        assert cloud.z.shape == (128, 5)
        assert np.allclose(np.linalg.norm(cloud.z, axis=1), 1.0, atol=1e-9)

    def test_k_exceeds_samples(self):
        with pytest.raises(ValueError):
            ev.sphere_clusters(three_mode_decode, 4, 2, 3, seed=0)

    def test_cloud_roundtrip(self, tmp_path):
        phi_spec = nets.MlpSpec(PROPRIO.width + 4, (16,), SPEC.n_joints)
        phi_params = nets.init_params(phi_spec, np.random.default_rng(8))
        state = ev.fixture_state("airborne", SPEC, CFG)
        decode = ev.prior_decoder(phi_spec, phi_params, state, SPEC)
        cloud = ev.sphere_clusters(decode, 4, 64, 3, seed=3)
        # the row-net decode gives every latent the bits of a one-row call
        phi = nets.RowNet(phi_spec, phi_params)
        for z, a in zip(cloud.z, cloud.actions):
            x = np.concatenate([proprio(state), z])[None]
            assert np.array_equal(a, phi(x)[0])
        ev.save_cloud(cloud, tmp_path / "c.txt")
        back = ev.load_cloud(tmp_path / "c.txt")
        assert np.array_equal(back.z, cloud.z)
        assert np.array_equal(back.cluster_id, cloud.cluster_id)
        assert np.array_equal(back.actions, cloud.actions)

    @pytest.mark.parametrize("text", ["", "\n", "SLMP-CLIP/1 d=4\n",
                                      "SLMP-CLOUD/1 latent=2 action=1 points=1\n0.6 0.8 0 0.5\n"])
    def test_load_cloud_rejects_empty_or_foreign_file(self, tmp_path, text):
        (tmp_path / "c.txt").write_text(text)
        with pytest.raises(ValueError, match="c.txt: line 1: expected SLMP-CLOUD/2"):
            ev.load_cloud(tmp_path / "c.txt")

    @pytest.mark.parametrize("text, where", [
        ("latent=2\naction=1\n", "header has no 'points' line"),
        ("latent=2\naction=x\npoints=1\n", "header line action='x'"),
        ("latent=2\naction=1\npoints=3\n" + cloud_row(0.6, 0.8, 0, 0.5),
         "line 6: expected 4 values, got 0"),
        ("latent=2\naction=1\npoints=1\n" + cloud_row(0.6, 0.8, 0), "line 5: expected 4 values, got 3"),
        ("latent=2\naction=1\npoints=1\n" + cloud_row(0.6, 0.8, 0).replace("\n", " zero\n"),
         "line 5: not a table value: 'zero'"),
        ("latent=2\naction=1\npoints=1\n" + cloud_row(0.6, 0.8, 0, 0.5) + "\n" + cloud_row(0.8, 0.6, 1, 0.5),
         "line 7: data after the last of 1 rows"),
        ("latent=2\naction=1\npoints=2\n" + cloud_row(0.6, 0.8, 0, 0.5) + cloud_row(0.8, 0.6, 1.5, 0.5),
         "line 6: cluster id 1.5 is not an integer >= 0"),
        ("latent=2\naction=1\npoints=1\n" + cloud_row(0.6, 0.8, -1, 0.5),
         "line 5: cluster id -1.0 is not an integer >= 0"),
        ("latent=2\naction=1\npoints=1\n" + cloud_row(0.6, 0.8, -0.0, 0.5),
         "line 5: cluster id -0.0 is not an integer >= 0"),
    ], ids=["no-points-line", "bad-action", "short-file", "short-row", "bad-token", "extra-row",
            "fractional-id", "negative-id", "negative-zero-id"])
    def test_load_cloud_names_the_line_of_a_bad_file(self, tmp_path, text, where):
        """A truncated file, a bad header, a row past ``points`` or a
        cluster id that is not an integer >= 0 is refused by file and line
        or key."""
        (tmp_path / "c.txt").write_text("SLMP-CLOUD/2\n" + text)
        with pytest.raises(ValueError, match=f"c.txt: {where}"):
            ev.load_cloud(tmp_path / "c.txt")


class TestFixtures:
    def test_fixture_states_exist(self):
        for name in ("guard", "airborne"):
            st = ev.fixture_state(name, SPEC, CFG)
            assert np.isfinite(st.joint_angles).all()
        with pytest.raises(ValueError):
            ev.fixture_state("flying", SPEC, CFG)
