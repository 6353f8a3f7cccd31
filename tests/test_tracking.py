import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

import reference
from reference import one_clip, watch_kinematics
from slmp import motion as mo
from slmp import nets
from slmp import physics as ph
from slmp import tracking as tr
from slmp.seeding import seed_for

SPEC = ph.default_character()
CFG = ph.default_config(SPEC)
OBS = tr.TRACK_OBS.of(SPEC.n_joints)


def relerr(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-4)


class TestImitationReward:
    def test_exact_at_zero_error(self):
        st = ph.nominal_stance(SPEC, CFG)
        r, e = tr.imitation_reward(st, st.copy(), SPEC)
        assert r == pytest.approx(1.0, abs=1e-12)
        assert e == 0.0

    def test_position_only_error_formula(self):
        """0.01 m uniform site offset -> 0.5*e^-1 + 0.5."""
        st = ph.nominal_stance(SPEC, CFG)
        shifted = st.copy()
        shifted.root_pos = st.root_pos + np.array([0.01, 0.0])
        r, e = tr.imitation_reward(shifted, st, SPEC)
        assert e == pytest.approx(0.01, abs=1e-12)
        # translation leaves rotations and velocities untouched
        assert r == pytest.approx(0.5 * math.exp(-1.0) + 0.5, abs=1e-12)

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(0)
        clip = one_clip("combo", 1, 4.0, spec=SPEC, cfg=CFG)
        for _ in range(10):
            st = clip.frame_state(int(rng.integers(clip.n_frames)))
            ref = clip.frame_state(int(rng.integers(clip.n_frames)))
            st.root_vel = rng.uniform(-1, 1, 2)
            st.joint_vels = rng.uniform(-2, 2, 8)
            got, _ = tr.imitation_reward(st, ref, SPEC)
            fs, fr = ph.KinFrame(st, SPEC), ph.KinFrame(ref, SPEC)
            ps, vs, pr, vr = fs.site_pos, fs.site_vel, fr.site_pos, fr.site_vel
            ep = np.linalg.norm(ps - pr, axis=1).mean()
            er = np.abs(
                ph.wrap_angle(
                    np.concatenate([[st.root_angle], st.joint_angles])
                    - np.concatenate([[ref.root_angle], ref.joint_angles])
                )
            ).mean()
            ev = np.linalg.norm(vs - vr, axis=1).mean()
            ew = np.abs(
                np.concatenate([[st.root_ang_vel], st.joint_vels])
                - np.concatenate([[ref.root_ang_vel], ref.joint_vels])
            ).mean()
            want = (
                0.5 * math.exp(-100 * ep)
                + 0.3 * math.exp(-10 * er)
                + 0.1 * math.exp(-0.1 * ev)
                + 0.1 * math.exp(-0.1 * ew)
            )
            assert got == pytest.approx(want, abs=1e-12)

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(1)
        clip = one_clip("kick", 2, 4.0, spec=SPEC, cfg=CFG)
        for _ in range(30):
            st = clip.frame_state(int(rng.integers(clip.n_frames)))
            st.root_pos = st.root_pos + rng.uniform(-1, 1, 2)
            st.joint_vels = rng.uniform(-20, 20, 8)
            r, _ = tr.imitation_reward(st, clip.frame_state(0), SPEC)
            assert 0.0 < r <= 1.0


class TestEnergyPenalty:
    def test_zero_torques(self):
        assert np.array_equal(tr.energy_penalty(np.zeros((2, 8)), np.ones((2, 8))), [0.0, 0.0])

    def test_direct_substitution(self):
        got = tr.energy_penalty(np.array([[2.0], [1.0]]), np.array([[3.0], [-4.0]]))
        assert got == pytest.approx([-0.0005 * 36.0, -0.0005 * 16.0], abs=1e-15)

    def test_never_positive(self):
        rng = np.random.default_rng(2)
        tau = rng.uniform(-200, 200, (100, 8))
        om = rng.uniform(-50, 50, (100, 8))
        got = tr.energy_penalty(tau, om)
        assert got.shape == (100,) and np.all(got <= 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tr.energy_penalty(np.zeros((1, 3)), np.zeros((1, 4)))


class TestGae:
    @staticmethod
    def col(*values):
        """A (T, 1) array: one env's trajectory."""
        return np.array(values, dtype=np.float64)[:, None]

    def test_single_terminal_step(self):
        adv, ret = tr.gae(self.col(1.0), self.col(0.0), self.col(1.0), 0.99, 0.95, np.zeros(1))
        assert adv[0, 0] == pytest.approx(1.0)
        assert ret[0, 0] == pytest.approx(1.0)

    def test_two_step_recursion(self):
        adv, _ = tr.gae(
            self.col(1.0, 1.0), self.col(0.0, 0.0), self.col(0.0, 1.0), 0.99, 0.95, np.zeros(1)
        )
        assert adv[0, 0] == pytest.approx(1.0 + 0.99 * 0.95 * 1.0)

    def test_zero_rewards_zero_values(self):
        adv, ret = tr.gae(np.zeros((5, 3)), np.zeros((5, 3)), np.zeros((5, 3)), 0.99, 0.95,
                          np.zeros(3))
        assert adv.shape == ret.shape == (5, 3)
        assert np.allclose(adv, 0.0)
        assert np.allclose(ret, 0.0)

    def test_lambda_zero_is_one_step_td(self):
        rng = np.random.default_rng(3)
        r = rng.uniform(-1, 1, (20, 4))
        v = rng.uniform(-1, 1, (20, 4))
        d = (rng.uniform(size=(20, 4)) < 0.2).astype(float)
        boot = np.array([0.37, -0.2, 0.0, 1.5])
        adv, _ = tr.gae(r, v, d, 0.9, 0.0, boot)
        v_next = np.concatenate([v[1:], boot[None]])
        td = r + 0.9 * v_next * (1 - d) - v
        assert np.allclose(adv, td, atol=1e-12)

    def test_bootstrap_used_for_truncation(self):
        adv, _ = tr.gae(self.col(0.0), self.col(0.0), self.col(0.0), 0.5, 1.0, np.array([2.0]))
        assert adv[0, 0] == pytest.approx(1.0)


def _tiny_setup(obs_dim=6, act_dim=2, n=3, seed=0):
    rng = np.random.default_rng(seed)
    policy = tr.GaussianPolicy(nets.MlpSpec(obs_dim, (8,), act_dim, activation="silu"))
    params = policy.init(rng, 0.3)
    vspec = nets.MlpSpec(obs_dim, (8,), 1, activation="silu")
    vparams = nets.init_params(vspec, rng)
    obs = rng.standard_normal((n, obs_dim))
    actions = rng.standard_normal((n, act_dim)) * 0.3
    mlp, log_std = policy.split(params)
    mu = nets.forward_batch(policy.spec, mlp, obs)
    logp = policy.log_prob_batch(mu, log_std, actions)
    batch = tr.PpoBatch(
        obs, actions, logp + rng.uniform(-0.05, 0.05, n),
        rng.standard_normal(n), rng.standard_normal(n),
    )
    return policy, params, vspec, vparams, batch


class TestPpo:
    def test_ratio_one_gives_vanilla_pg_objective(self):
        policy, params, vspec, vparams, batch = _tiny_setup()
        mlp, log_std = policy.split(params)
        mu = nets.forward_batch(policy.spec, mlp, batch.obs)
        batch = tr.PpoBatch(
            batch.obs, batch.actions,
            policy.log_prob_batch(mu, log_std, batch.actions),
            batch.advantages, batch.returns,
        )
        cfg = tr.PpoConfig(clip_eps=0.2)
        m, _, _ = tr.ppo_loss_and_grads(policy, params, vspec, vparams, batch, cfg)
        assert m["clip_fraction"] == 0.0
        assert m["policy_loss"] == pytest.approx(-batch.advantages.mean(), abs=1e-12)

    def test_clip_value_applied(self):
        """Positive advantage with ratio 1.5 contributes 1.2 * adv."""
        policy, params, vspec, vparams, batch = _tiny_setup(n=1)
        mlp, log_std = policy.split(params)
        mu = nets.forward_batch(policy.spec, mlp, batch.obs)
        logp = policy.log_prob_batch(mu, log_std, batch.actions)
        batch = tr.PpoBatch(
            batch.obs, batch.actions, logp - math.log(1.5), np.array([2.0]), batch.returns
        )
        cfg = tr.PpoConfig(clip_eps=0.2)
        m, _, _ = tr.ppo_loss_and_grads(policy, params, vspec, vparams, batch, cfg)
        assert m["policy_loss"] == pytest.approx(-1.2 * 2.0, rel=1e-9)

    def test_gradients_match_finite_differences(self):
        policy, params, vspec, vparams, batch = _tiny_setup(n=3, seed=4)
        cfg = tr.PpoConfig(clip_eps=0.2, entropy_coef=0.01, value_coef=0.7)

        def total_loss(pp, vp):
            m, _, _ = tr.ppo_loss_and_grads(policy, pp, vspec, vp, batch, cfg)
            return m["policy_loss"] + cfg.value_coef * m["value_loss"] - cfg.entropy_coef * m["entropy"]

        _, g_p, g_v = tr.ppo_loss_and_grads(policy, params, vspec, vparams, batch, cfg)
        rng = np.random.default_rng(5)
        step = 1e-5
        for idx in rng.choice(params.size, 40, replace=False):
            p = params.copy()
            p[idx] += step
            hi = total_loss(p, vparams)
            p[idx] -= 2 * step
            lo = total_loss(p, vparams)
            assert relerr(g_p[idx], (hi - lo) / (2 * step)) < 1e-4
        for idx in rng.choice(vparams.size, 30, replace=False):
            v = vparams.copy()
            v[idx] += step
            hi = total_loss(params, v)
            v[idx] -= 2 * step
            lo = total_loss(params, v)
            assert relerr(g_v[idx], (hi - lo) / (2 * step)) < 1e-4

    def test_loss_and_grads_makes_one_forward_per_network(self, monkeypatch):
        """The policy and value backwards read their forwards' tapes."""
        policy, params, vspec, vparams, batch = _tiny_setup(n=9)
        real, real_backward = nets.forward_batch, nets.backward_batch
        calls, sources = [], []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        def backward(*args, **kwargs):
            sources.append(type(args[2]))
            return real_backward(*args, **kwargs)

        monkeypatch.setattr(nets, "forward_batch", counting)
        monkeypatch.setattr(nets, "backward_batch", backward)
        tr.ppo_loss_and_grads(policy, params, vspec, vparams, batch, tr.PpoConfig())
        assert calls == [policy.spec, vspec]
        assert sources and set(sources) == {nets.Tape}

    def test_update_allocates_tape_buffers_once(self, monkeypatch):
        """All minibatches of a multi-epoch ppo_update run the policy and
        then the wider value network in one tape: after the first
        minibatch no buffer is replaced, the short last minibatch of each
        epoch included."""
        policy, params, _, _, batch = _tiny_setup(n=50)
        vspec = nets.MlpSpec(6, (12, 10), 1, activation="silu")
        vparams = nets.init_params(vspec, np.random.default_rng(1))
        real = tr.ppo_loss_and_grads
        seen = []

        def loss_and_grads(*args):
            out = real(*args)
            tape = args[6]
            seen.append((tape, [*tape.outs, *tape.dbufs, *tape.scratch]))
            return out

        monkeypatch.setattr(tr, "ppo_loss_and_grads", loss_and_grads)
        cfg = tr.PpoConfig(epochs_per_update=3, batch_size=16)
        *_, m = tr.ppo_update(
            policy, params, nets.adam_init(params.size, 1e-4),
            vspec, vparams, nets.adam_init(vparams.size, 1e-4), batch, cfg,
            np.random.default_rng(0),
        )
        assert m["skipped"] == 0.0
        assert len(seen) == 3 * 4  # 16 + 16 + 16 + 2 rows per epoch
        tape, first = seen[0]
        # three layer outputs, two hidden derivatives (a linear output has none), two scratch
        assert len(first) == 3 + 2 + 2 and all(b is not None for b in first)
        for t, bufs in seen[1:]:
            assert t is tape
            assert len(bufs) == len(first)
            assert all(a is b for a, b in zip(bufs, first))

    def test_non_finite_loss_skipped(self):
        policy, params, vspec, vparams, batch = _tiny_setup()
        batch = tr.PpoBatch(
            batch.obs, batch.actions, batch.log_probs,
            np.array([np.inf, 0.0, 0.0]), batch.returns,
        )
        cfg = tr.PpoConfig(epochs_per_update=1)
        rng = np.random.default_rng(0)
        p2, _, v2, _, m = tr.ppo_update(
            policy, params, nets.adam_init(params.size, 1e-4),
            vspec, vparams, nets.adam_init(vparams.size, 1e-4), batch, cfg, rng,
        )
        assert m["skipped"] >= 1.0
        assert np.array_equal(p2, params)
        assert np.array_equal(v2, vparams)

    def test_overflowed_ratio_on_clipped_row_updates(self):
        """A row whose ratio overflows to inf with a positive advantage is
        clipped: its gradient is 0, not 0 * inf = nan, so the finite-loss
        minibatch updates instead of raising in adam_step."""
        policy, params, vspec, vparams, batch = _tiny_setup(n=16, seed=3)
        log_probs = batch.log_probs.copy()
        log_probs[5] = -1000.0
        adv = np.zeros(16)
        adv[5] = 5.0
        batch = tr.PpoBatch(batch.obs, batch.actions, log_probs, adv, batch.returns)
        cfg = tr.PpoConfig(epochs_per_update=1)
        p2, _, v2, _, m = tr.ppo_update(
            policy, params, nets.adam_init(params.size, 1e-4),
            vspec, vparams, nets.adam_init(vparams.size, 1e-4), batch, cfg,
            np.random.default_rng(0),
        )
        assert m["skipped"] == 0.0 and math.isfinite(m["loss"])
        assert np.isfinite(p2).all() and np.isfinite(v2).all()
        assert not np.array_equal(p2, params)


    @pytest.mark.parametrize("net", ["policy", "value"])
    def test_non_finite_gradient_under_finite_loss_skipped(self, monkeypatch, net):
        """A NaN gradient under a finite loss skips and counts the minibatch
        instead of raising FloatingPointError in adam_step."""
        policy, params, vspec, vparams, batch = _tiny_setup()
        real = tr.ppo_loss_and_grads

        def loss_and_grads(*args):
            m, g_p, g_v = real(*args)
            (g_p if net == "policy" else g_v)[0] = np.nan
            return m, g_p, g_v

        monkeypatch.setattr(tr, "ppo_loss_and_grads", loss_and_grads)
        p2, _, v2, _, m = tr.ppo_update(
            policy, params, nets.adam_init(params.size, 1e-4),
            vspec, vparams, nets.adam_init(vparams.size, 1e-4), batch,
            tr.PpoConfig(epochs_per_update=1), np.random.default_rng(0),
        )
        assert m["skipped"] == 1.0
        assert np.array_equal(p2, params)
        assert np.array_equal(v2, vparams)


def _small_clips():
    return [
        one_clip("idle", 0, 4.0, spec=SPEC, cfg=CFG),
        one_clip("jab", 20, 4.0, spec=SPEC, cfg=CFG),
    ]


def _small_env(seed=0):
    return tr.TrackingEnv(_small_clips(), SPEC, CFG, rng=np.random.default_rng(seed))


def _batch(clips, seeds, **kwargs):
    return tr.EnvBatch(clips, SPEC, CFG, [np.random.default_rng(s) for s in seeds], **kwargs)


# the hard-coded column offsets of each block: the layout tests' oracle
NJ = SPEC.n_joints
PROPRIO_COLS = {"height": slice(0, 1), "facing": slice(1, 3), "joints": slice(3, 3 + NJ),
                "root_vel": slice(3 + NJ, 5 + NJ), "rates": slice(5 + NJ, 6 + 2 * NJ)}
TRACK_COLS = {"proprio": slice(0, 6 + 2 * NJ), "goal": slice(6 + 2 * NJ, 15 + 5 * NJ)}


class TestObservationLayout:
    """Each builder, writing into a NaN-filled buffer, fills every column of
    its layout, and each block holds the columns it held before."""

    @staticmethod
    def _rows():
        batch = _batch(_small_clips(), range(6))
        rng = np.random.default_rng(5)
        w = batch.world
        w.q += rng.uniform(-4.0, 4.0, w.q.shape)
        w.root_vel += rng.uniform(-1.0, 1.0, w.root_vel.shape)
        w.qd += rng.uniform(-3.0, 3.0, w.qd.shape)
        return batch

    @staticmethod
    def _check(layout, cols, got, want):
        assert layout.width == got.shape[1] and not np.isnan(got).any()
        assert list(vars(layout)) == [*cols, "width"]
        for name, parent in cols.items():
            assert getattr(layout, name) == parent, name
            assert got[:, parent].tobytes() == want[:, parent].tobytes(), name

    def test_proprio(self):
        batch = self._rows()
        p = tr.PROPRIO.of(NJ)
        got = tr.proprio_rows(*batch.world.coords, out=np.full((6, p.width), np.nan))
        want = reference.observation(mo.goal_frames(batch.library, batch.clip_index, batch.t),
                                     *batch.world.coords)[:, TRACK_COLS["proprio"]]
        self._check(p, PROPRIO_COLS, got, want)

    def test_tracking_observation(self, monkeypatch):
        batch = self._rows()
        reference.nan_empty(monkeypatch)
        got = batch.observe()
        monkeypatch.undo()
        self._check(OBS, TRACK_COLS, got, reference.observation(batch.goal, *batch.world.coords))


class TestEnv:
    def test_batch_refuses_a_clip_of_one_frame(self):
        """A clip needs a start frame and the frame after it; a 1-frame clip
        is refused by its id instead of failing in the start draw."""
        clips = _small_clips()
        one = mo.MotionClip(30.0, "idle", "idle-one", clips[0].frames[:1])
        with pytest.raises(ValueError, match="2 frames or more; clip 'idle-one' has 1"):
            _batch([*clips, one], range(2))

    def test_training_refuses_clips_of_another_joint_count(self, tmp_path):
        """A clip made for a character of 6 joints is refused by its id and
        both joint counts, before the first rollout."""
        q, qd = np.split(one_clip("idle", 0, 2.0, spec=SPEC, cfg=CFG).frames, [5 + SPEC.n_joints], axis=1)
        six = mo.MotionClip(30.0, "idle", "idle-six", np.hstack([q[:, :-2], qd[:, :-2]]))
        cfg = tr.PpoConfig(envs=2, horizon=4, updates=1, epochs_per_update=1)
        with pytest.raises(ValueError, match="clip 'idle-six' has 6 joints, the character has 8"):
            tr.train_tracking([six], cfg, tmp_path, seed=5, spec=SPEC, phys=CFG, log=False)

    def test_rollout_determinism(self):
        clips = [one_clip("idle", 0, 4.0, spec=SPEC, cfg=CFG)]
        outs = []
        for _ in range(2):
            env = tr.TrackingEnv(clips, SPEC, CFG, rng=np.random.default_rng(9))
            policy = tr.GaussianPolicy(
                nets.MlpSpec(OBS.width, (16,), 8, activation="silu")
            )
            params = policy.init(np.random.default_rng(1), 0.3)
            rng = np.random.default_rng(42)
            rows = []
            for _ in range(20):
                a, _ = policy.sample(params, env.observe()[0], rng)
                obs, r, d, info = env.step(tr.action_to_targets(a, env.ref_base()[0]))
                rows.append(r)
            outs.append(rows)
        assert outs[0] == outs[1]

    def test_reference_pd_feasibility_on_idle(self):
        """Reference targets alone track an idle clip above 0.8 reward."""
        clip = one_clip("idle", 0, 4.0, spec=SPEC, cfg=CFG)
        batch = _batch([clip], [0], starts=[(0, 0)])
        rewards = []
        for _ in range(120):  # 2 s
            _, r, done, info = batch.step(batch.ref_base())
            rewards.append(info["imitation"][0])
            if done[0]:
                break
        assert np.mean(rewards) > 0.8

    def test_forced_fall_terminates(self):
        env = _small_env()
        env.world.root_pos[0] = [0.0, 0.1]
        env.world.root_vel[0] = [0.0, -3.0]
        done = False
        for _ in range(3):
            _, _, done, info = env.step(env.ref_base()[0])
            if done:
                break
        assert done

    def test_divergence_resets(self):
        env = _small_env()
        env.world.root_pos[0] += [5.0, 0.0]
        _, _, done, info = env.step(env.ref_base()[0])
        assert done and info["diverged"]

    def test_envs_start_at_their_drawn_frames(self):
        """Env i starts at the (clip, frame) its generator draws, two
        ``integers`` calls in env order, written as ``World.of`` of the
        frame's ``frame_state`` writes it; explicit starts go in as given."""
        clips = _small_clips()
        batch = _batch(clips, range(3))
        starts = []
        for seed in range(3):
            draw = np.random.default_rng(seed)
            ci = int(draw.integers(len(clips)))
            starts.append((ci, int(draw.integers(clips[ci].n_frames - 1))))
        for got in (batch, _batch(clips, [7, 8, 9], starts=starts)):
            want = ph.World.of([clips[ci].frame_state(f) for ci, f in starts], SPEC)
            for f in fields(ph.World):
                assert getattr(got.world, f.name).tobytes() == getattr(want, f.name).tobytes(), f.name
            assert got.t.tobytes() == want.time.tobytes()
            assert got.clip_index.tolist() == [ci for ci, _ in starts]

    def test_rows_and_join_round_trip(self):
        """Row slices joined back in order give the batch's state and
        generators; envs of different bounds do not join."""
        batch = _batch(_small_clips(), range(5))
        for _ in range(3):
            batch.step(batch.ref_base())
        parts = [batch.rows(np.arange(0, 2)), batch.rows(np.arange(2, 5))]
        joined = tr.EnvBatch.join(parts)
        assert reference.env_state(joined) == reference.env_state(batch)
        assert all(a is b for a, b in zip(joined.rngs, batch.rngs))
        parts[0].world.q[:] = 0.0  # the parts and the join hold copies of the rows
        assert reference.env_state(joined) == reference.env_state(batch)
        with pytest.raises(ValueError, match="share clips"):
            tr.EnvBatch.join([batch, _batch(_small_clips(), [9], e_div=0.3)])


class TestTraining:
    def test_smoke_and_checkpoint_roundtrip(self, tmp_path):
        clips = [one_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG)]
        cfg = tr.PpoConfig(envs=2, horizon=16, updates=2, epochs_per_update=2)
        ts = tr.train_tracking(clips, cfg, tmp_path, seed=3, spec=SPEC, phys=CFG, log=False)
        policy, params = tr.load_policy(tmp_path / "pi_track.ckpt", tr.TRACK_OBS.width(SPEC), SPEC.n_joints)
        assert np.array_equal(params, ts.policy_params)
        assert (tmp_path / "metrics.csv").read_text().count("\n") == 3

    def test_console_prints_the_first_every_25th_and_last_update(self, tmp_path, capsys):
        clips = [one_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG)]
        cfg = tr.PpoConfig(envs=1, horizon=4, updates=27, epochs_per_update=1,
                           pi_hidden=(8,), critic_hidden=(8,))
        tr.train_tracking(clips, cfg, tmp_path, seed=5, spec=SPEC, phys=CFG, log=True)
        header, *rows = (tmp_path / "metrics.csv").read_text().splitlines()
        assert header == ("update,reward,imitation,imitation_idle_footwork,energy,episode_steps,"
                          "policy_loss,value_loss,entropy,clip_fraction,skipped")
        assert len(rows) == 27
        want = []
        for u in (0, 25, 26):
            r = dict(zip(header.split(","), map(float, rows[u].split(","))))
            want.append(f"[track] update {u} reward {r['reward']:.3f} imitation {r['imitation']:.3f} "
                        f"idle+fw {r['imitation_idle_footwork']:.3f} ep_steps {r['episode_steps']:.1f}")
        assert capsys.readouterr().out.splitlines() == want

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        clips = [one_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG),
                 one_clip("footwork", 10, 3.0, spec=SPEC, cfg=CFG)]
        cfg2 = tr.PpoConfig(envs=2, horizon=8, updates=2, epochs_per_update=2)
        ts_full = tr.train_tracking(
            clips, cfg2, tmp_path / "full", seed=5, spec=SPEC, phys=CFG, log=False
        )
        cfg1 = tr.PpoConfig(envs=2, horizon=8, updates=1, epochs_per_update=2)
        tr.train_tracking(clips, cfg1, tmp_path / "half", seed=5, spec=SPEC, phys=CFG, log=False)
        ts_res = tr.train_tracking(
            clips, cfg2, tmp_path / "half", seed=5, spec=SPEC, phys=CFG, resume=True, log=False
        )
        assert np.array_equal(ts_full.policy_params, ts_res.policy_params)
        assert np.array_equal(ts_full.value_params, ts_res.value_params)
        full, half = tmp_path / "full", tmp_path / "half"
        for name in ("metrics.csv", "envs.txt"):
            assert (full / name).read_bytes() == (half / name).read_bytes()

    def test_resume_drops_metrics_rows_after_the_snapshot(self, tmp_path, monkeypatch):
        """A run that crashed after writing rows past its snapshot resumes
        to the uninterrupted run's ``metrics.csv``, not to repeated rows."""
        clips = [one_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG)]
        cfg = tr.PpoConfig(envs=2, horizon=4, updates=3, epochs_per_update=1,
                           pi_hidden=(8,), critic_hidden=(8,))
        run = dict(seed=5, spec=SPEC, phys=CFG, log=False)
        tr.train_tracking(clips, cfg, tmp_path / "full", **run)
        tr.train_tracking(clips, replace(cfg, updates=1), tmp_path / "crash", **run)

        def crash(*args):
            raise RuntimeError("crash before the snapshot")

        with monkeypatch.context() as m:
            m.setattr(tr, "save_train_state", crash)
            with pytest.raises(RuntimeError, match="crash"):
                tr.train_tracking(clips, cfg, tmp_path / "crash", resume=True, **run)
        assert (tmp_path / "crash" / "metrics.csv").read_text().count("\n") == 4
        tr.train_tracking(clips, cfg, tmp_path / "crash", resume=True, **run)
        full, crash = tmp_path / "full", tmp_path / "crash"
        for name in ("metrics.csv", "envs.txt", "pi_track.ckpt", "critic.ckpt"):
            assert (full / name).read_bytes() == (crash / name).read_bytes()

    def test_resume_without_snapshot_starts_a_fresh_metrics_file(self, tmp_path):
        clips = [one_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG)]
        cfg = tr.PpoConfig(envs=1, horizon=4, updates=2, epochs_per_update=1,
                           pi_hidden=(8,), critic_hidden=(8,))
        run = dict(seed=5, spec=SPEC, phys=CFG, log=False)
        tr.train_tracking(clips, cfg, tmp_path / "fresh", **run)
        (tmp_path / "stale").mkdir()
        (tmp_path / "stale" / "metrics.csv").write_text("foreign,header\n7.0,1.0\n")
        tr.train_tracking(clips, cfg, tmp_path / "stale", resume=True, **run)
        want = (tmp_path / "fresh" / "metrics.csv").read_bytes()
        assert (tmp_path / "stale" / "metrics.csv").read_bytes() == want

    def test_resume_refuses_rows_under_another_header(self, tmp_path):
        """A ``metrics.csv`` that another stage wrote into the run directory
        is refused by name instead of continued under the tracking header."""
        clips = [one_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG)]
        cfg = tr.PpoConfig(envs=1, horizon=4, updates=1, epochs_per_update=1,
                           pi_hidden=(8,), critic_hidden=(8,))
        tr.train_tracking(clips, cfg, tmp_path, seed=5, spec=SPEC, phys=CFG, log=False)
        path = tmp_path / "metrics.csv"
        path.write_text("update,l_distill,l_dlsc,l_disc,l_slmp,w_d,w_c,use_wc,mse_fresh\n"
                        "0.0,1.0,1.0,0.0,2.0,1.0,1.0,0.0,1.0\n")
        before = path.read_bytes()
        with pytest.raises(ValueError, match=r"metrics.csv: the header 'update,l_distill,.*' is not "
                                             r"'update,reward,"):
            tr.train_tracking(clips, replace(cfg, updates=2), tmp_path, seed=5, spec=SPEC, phys=CFG,
                              resume=True, log=False)
        assert path.read_bytes() == before

    def test_resume_refuses_a_damaged_metrics_row(self, tmp_path):
        """A kept ``metrics.csv`` row whose update is not a number is refused
        by file and line, and the file is left as it was."""
        clips = [one_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG)]
        cfg = tr.PpoConfig(envs=1, horizon=4, updates=1, epochs_per_update=1,
                           pi_hidden=(8,), critic_hidden=(8,))
        tr.train_tracking(clips, cfg, tmp_path, seed=5, spec=SPEC, phys=CFG, log=False)
        path = tmp_path / "metrics.csv"
        head, row = path.read_text().splitlines(True)
        path.write_text(head + "x" + row)
        before = path.read_bytes()
        with pytest.raises(ValueError, match=r"metrics.csv: line 2: could not convert string to float: 'x0.0'"):
            tr.train_tracking(clips, replace(cfg, updates=2), tmp_path, seed=5, spec=SPEC, phys=CFG,
                              resume=True, log=False)
        assert path.read_bytes() == before

    def test_resume_refuses_a_snapshot_of_another_seed(self, tmp_path):
        """A snapshot written under one seed does not continue under another:
        ``envs.txt`` names the seed, and no file of the run is rewritten."""
        clips = [one_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG)]
        cfg = tr.PpoConfig(envs=1, horizon=4, updates=1, epochs_per_update=1,
                           pi_hidden=(8,), critic_hidden=(8,))
        tr.train_tracking(clips, cfg, tmp_path, seed=5, spec=SPEC, phys=CFG, log=False)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ValueError, match="envs.txt: snapshot was written under seed 5, the run has seed 6"):
            tr.train_tracking(clips, replace(cfg, updates=2), tmp_path, seed=6, spec=SPEC, phys=CFG,
                              resume=True, log=False)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("order, where", [
        ([0], "under clips 2, the run has clips 1"),
        ([1, 0], "under library [0-9a-f]{16}, the run has library [0-9a-f]{16}"),
    ])
    def test_resume_refuses_another_clip_library(self, tmp_path, order, where):
        """A snapshot over two clips does not continue over the first clip
        alone or the two in reverse order: ``envs.txt`` names the clip count
        and a digest of the library, and no file of the run is rewritten."""
        clips = [one_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG),
                 one_clip("footwork", 10, 3.0, spec=SPEC, cfg=CFG)]
        cfg = tr.PpoConfig(envs=4, horizon=4, updates=1, epochs_per_update=1,
                           pi_hidden=(8,), critic_hidden=(8,))
        run = dict(seed=0, spec=SPEC, phys=CFG, log=False)
        tr.train_tracking(clips, cfg, tmp_path, **run)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ValueError, match=f"envs.txt: snapshot was written {where}"):
            tr.train_tracking([clips[i] for i in order], replace(cfg, updates=2), tmp_path, resume=True,
                              **run)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_envs_txt_reads_back_into_the_batch(self, tmp_path):
        """``resume_train_state`` puts the ``envs.txt`` rows back into a
        batch, which writes the same bytes, and continues as the batch
        that wrote them: valid, with the World time at ``t``."""
        clips = _small_clips()
        cfg = tr.PpoConfig(envs=3, pi_hidden=(8,), critic_hidden=(8,))
        ts = tr.build_networks(OBS.width, SPEC.n_joints, cfg, seed=0)
        batch = _batch(clips, range(3))
        for _ in range(30):
            batch.step(batch.ref_base())
        tr.save_train_state(tmp_path / "a", ts, batch, 0)
        back = _batch(clips, range(10, 13))
        tr.resume_train_state(tmp_path / "a", back, 0)
        tr.save_train_state(tmp_path / "b", ts, back, 0)
        a, b = (tmp_path / d / "envs.txt" for d in "ab")
        assert a.read_bytes() == b.read_bytes()
        assert reference.env_state(back) == reference.env_state(batch)

    def test_world_time_is_the_clip_time(self):
        """The World time of every env equals its clip time ``t`` after each
        step, resets included, instead of drifting in the low bits from
        the per-substep advance."""
        batch = _batch(_small_clips(), range(4))
        for _ in range(50):
            batch.step(batch.ref_base())
            assert np.array_equal(batch.world.time, batch.t)

    def test_resume_refuses_a_changed_env_count(self, tmp_path):
        clips = [one_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG)]
        cfg = tr.PpoConfig(envs=2, horizon=8, updates=1, epochs_per_update=1)
        tr.train_tracking(clips, cfg, tmp_path, seed=5, spec=SPEC, phys=CFG, log=False)
        more = tr.PpoConfig(envs=3, horizon=8, updates=2, epochs_per_update=1)
        with pytest.raises(ValueError, match="2 envs, the config builds 3"):
            tr.train_tracking(clips, more, tmp_path, seed=5, spec=SPEC, phys=CFG, resume=True,
                              log=False)

    @pytest.mark.parametrize("net", ["pi_hidden", "critic_hidden"])
    def test_resume_refuses_a_changed_network(self, tmp_path, net):
        clips = [one_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG)]
        cfg = tr.PpoConfig(envs=2, horizon=8, updates=1, epochs_per_update=1,
                           pi_hidden=(8,), critic_hidden=(8,))
        tr.train_tracking(clips, cfg, tmp_path, seed=5, spec=SPEC, phys=CFG, log=False)
        wider = replace(cfg, updates=2, **{net: (16, 16)})
        with pytest.raises(ValueError, match=r"saved \(policy, critic\) nets are .*hidden=\(8,\).*"
                                             r"the config builds .*hidden=\(16, 16\)"):
            tr.train_tracking(clips, wider, tmp_path, seed=5, spec=SPEC, phys=CFG, resume=True,
                              log=False)

    def test_resume_refuses_a_changed_learning_rate(self, tmp_path):
        clips = [one_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG)]
        cfg = tr.PpoConfig(envs=2, horizon=4, updates=1, epochs_per_update=1,
                           pi_hidden=(8,), critic_hidden=(8,))
        tr.train_tracking(clips, cfg, tmp_path, seed=5, spec=SPEC, phys=CFG, log=False)
        faster = replace(cfg, updates=2, lr=1e-3)
        with pytest.raises(ValueError, match=r"learning rates are \(0.0003, 0.0003\), the config sets 0.001"):
            tr.train_tracking(clips, faster, tmp_path, seed=5, spec=SPEC, phys=CFG, resume=True,
                              log=False)

    @pytest.mark.parametrize("name", ["adam_policy.txt", "adam_value.txt"])
    def test_resume_refuses_an_adam_state_of_another_size(self, tmp_path, name):
        """An Adam state whose ``count`` is not its network's parameter
        count is refused by file and header key before the first update."""
        clips = [one_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG)]
        cfg = tr.PpoConfig(envs=2, horizon=4, updates=1, epochs_per_update=1,
                           pi_hidden=(8,), critic_hidden=(8,))
        tr.train_tracking(clips, cfg, tmp_path, seed=5, spec=SPEC, phys=CFG, log=False)
        state = nets.adam_state_load(tmp_path / name)
        nets.adam_state_save(tmp_path / name, replace(state, m=state.m[:5], v=state.v[:5]))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / name}: header line count=5: ")):
            tr.train_tracking(clips, replace(cfg, updates=2), tmp_path, seed=5, spec=SPEC, phys=CFG,
                              resume=True, log=False)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_resume_refuses_fewer_updates_than_the_snapshot(self, tmp_path):
        """A snapshot at update 3 does not resume to 1 update: the run is
        refused by name and no file of it is rewritten.  Resuming to 3 is a
        no-op that writes the same bytes."""
        clips = [one_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG)]
        cfg = tr.PpoConfig(envs=1, horizon=4, updates=3, epochs_per_update=1,
                           pi_hidden=(8,), critic_hidden=(8,))
        run = dict(seed=5, spec=SPEC, phys=CFG, log=False)
        tr.train_tracking(clips, cfg, tmp_path, **run)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ValueError, match="the snapshot is at update 3, the run asks for 1"):
            tr.train_tracking(clips, replace(cfg, updates=1), tmp_path, resume=True, **run)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert tr.train_tracking(clips, cfg, tmp_path, resume=True, **run).update == 3
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("cut", ["rows", "values", "empty", "headerless", "extra", "update"])
    def test_resume_refuses_a_truncated_snapshot(self, tmp_path, cut):
        """A snapshot that lost env rows, values of a row or its header, or
        that holds a row too many or a bad header value, is refused by name
        instead of broadcast into every env."""
        clips = [one_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG)]
        cfg = tr.PpoConfig(envs=3, horizon=8, updates=1, epochs_per_update=1)
        tr.train_tracking(clips, cfg, tmp_path, seed=5, spec=SPEC, phys=CFG, log=False)
        path = tmp_path / "envs.txt"
        lines = path.read_text().splitlines()
        if cut == "rows":
            lines = lines[:6]  # the header and row 0
            match = r"line 7: expected \d+ values, got 0"
        elif cut == "values":
            lines[6] = " ".join(lines[6].split()[:-1])
            match = "line 7: expected"
        elif cut == "extra":
            lines.append(lines[5])
            match = "line 9: data after the last of 3 rows"
        elif cut == "update":
            lines[0] = "update=one"
            match = "header line update='one'"
        else:
            lines = [] if cut == "empty" else lines[5:]
            match = "header has no 'update' line"
        path.write_text("\n".join(lines) + "\n")
        more = replace(cfg, updates=2)
        with pytest.raises(ValueError, match=f"envs.txt: {match}"):
            tr.train_tracking(clips, more, tmp_path, seed=5, spec=SPEC, phys=CFG, resume=True,
                              log=False)

    def test_first_epoch_clip_fraction_zero(self, tmp_path):
        clips = [one_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG)]
        cfg = tr.PpoConfig(envs=2, horizon=8, updates=1, epochs_per_update=1)
        env_list = [
            tr.TrackingEnv(clips, SPEC, CFG, rng=np.random.default_rng(i)) for i in range(2)
        ]
        ts = tr.build_networks(OBS.width, 8, cfg, seed=0)
        buf = tr.collect_rollouts(
            env_list, ts.policy, ts.policy_params, ts.value_spec, ts.value_params,
            cfg.horizon, [np.random.default_rng(7), np.random.default_rng(8)],
        )
        buf.advantages, buf.returns = tr.gae(
            buf.rewards, buf.values, buf.dones, cfg.gamma, cfg.gae_lambda, buf.bootstrap
        )
        *_, m = tr.ppo_update(
            ts.policy, ts.policy_params, ts.policy_adam,
            ts.value_spec, ts.value_params, ts.value_adam,
            buf.flat(), cfg, np.random.default_rng(0),
        )
        assert m["first_clip_fraction"] == 0.0

    def test_on_policy_first_minibatch_is_unclipped(self):
        """On a fresh on-policy batch the float32 learner's first
        minibatch has PPO ratios of 1 up to rounding: nothing is clipped
        and the policy loss is minus the mean normalised advantage."""
        cfg = tr.PpoConfig(envs=4, horizon=16, updates=1, epochs_per_update=1, batch_size=16)
        ts = tr.build_networks(OBS.width, 8, cfg, seed=3)
        batch = _batch(_small_clips(), range(4))
        buf = tr.collect_rollouts(
            batch, ts.policy, ts.policy_params, ts.value_spec, ts.value_params,
            cfg.horizon, [np.random.default_rng(10 + i) for i in range(4)],
        )
        buf.advantages, buf.returns = tr.gae(
            buf.rewards, buf.values, buf.dones, cfg.gamma, cfg.gae_lambda, buf.bootstrap
        )
        flat = buf.flat()
        *_, m = tr.ppo_update(
            ts.policy, ts.policy_params, ts.policy_adam,
            ts.value_spec, ts.value_params, ts.value_adam,
            flat, cfg, np.random.default_rng(0),
        )
        adv = (flat.advantages - flat.advantages.mean()) / (flat.advantages.std() + 1e-8)
        first = np.random.default_rng(0).permutation(len(adv))[: cfg.batch_size]
        assert m["first_clip_fraction"] == 0.0
        assert abs(adv[first].mean()) > 1e-3  # the check below is not vacuous
        assert m["first_policy_loss"] == pytest.approx(-adv[first].mean(), abs=1e-5)

    def test_collecting_a_list_keeps_the_listed_envs(self):
        """A list of envs is joined into a new batch: its buffer is the
        batch's, and the listed envs keep their rows."""
        clips = _small_clips()
        cfg = tr.PpoConfig(envs=3, horizon=8, pi_hidden=(8,), critic_hidden=(8,))
        ts = tr.build_networks(OBS.width, 8, cfg, seed=0)
        nets_args = (ts.policy, ts.policy_params, ts.value_spec, ts.value_params, cfg.horizon)
        envs = [tr.TrackingEnv(clips, SPEC, CFG, rng=np.random.default_rng(s)) for s in range(3)]
        before = [reference.env_state(env) for env in envs]
        got = tr.collect_rollouts(envs, *nets_args, [env.rng for env in envs])
        batch = _batch(clips, range(3))
        want = tr.collect_rollouts(batch, *nets_args, batch.rngs)
        for f in ("obs", "rewards", "dones"):
            assert getattr(got, f).tobytes() == getattr(want, f).tobytes(), f
        assert [reference.env_state(env) for env in envs] == before
        assert reference.env_state(batch) != reference.env_state(tr.EnvBatch.join(envs))

    def test_more_than_one_worker_is_refused_before_any_file(self, tmp_path):
        """Rollouts run in one process: ``workers=2`` is refused and the
        run directory is never made."""
        cfg = tr.PpoConfig(envs=2, horizon=4, updates=1, pi_hidden=(8,), critic_hidden=(8,))
        with pytest.raises(ValueError, match="workers=2"):
            tr.train_tracking(_small_clips(), cfg, tmp_path / "out", seed=7, spec=SPEC, phys=CFG,
                              workers=2, log=False)
        assert not (tmp_path / "out").exists()

    def test_chunk_split_bit_identical(self):
        """4 envs give the same buffer and end state in one batch and split 1+3."""
        clips = [one_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG),
                 one_clip("jab", 20, 3.0, spec=SPEC, cfg=CFG)]
        cfg = tr.PpoConfig(envs=4, horizon=8)
        ts = tr.build_networks(OBS.width, 8, cfg, seed=0)
        whole, split = _batch(clips, range(100, 104)), _batch(clips, range(100, 104))
        rngs = [np.random.default_rng(200 + i % 4) for i in range(8)]
        nets_args = (ts.policy, ts.policy_params, ts.value_spec, ts.value_params, cfg.horizon)
        full = tr.collect_rollouts(whole, *nets_args, rngs[:4])
        parts = [split.rows(np.arange(1)), split.rows(np.arange(1, 4))]
        bufs = [tr.collect_rollouts(parts[0], *nets_args, rngs[4:5]),
                tr.collect_rollouts(parts[1], *nets_args, rngs[5:])]
        for f in ("obs", "actions", "rewards", "values", "log_probs", "dones", "bootstrap"):
            axis = 0 if f == "bootstrap" else 1
            assert np.array_equal(getattr(full, f),
                                  np.concatenate([getattr(p, f) for p in bufs], axis=axis)), f
        assert reference.env_state(whole) == reference.env_state(tr.EnvBatch.join(parts))

    def test_batch_size_invariance_with_resets_and_divergence(self):
        """Every env's rollout is bit-identical whether the 32 envs run as
        one batch, 32 batches of one, 8 of four, 16+16 or 1+31."""
        clips = [one_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG),
                 one_clip("jab", 20, 3.0, spec=SPEC, cfg=CFG)]
        cfg = tr.PpoConfig(envs=32, horizon=60, pi_hidden=(32,), critic_hidden=(32,))
        ts = tr.build_networks(OBS.width, 8, cfg, seed=0)
        fields = ("obs", "actions", "rewards", "values", "log_probs", "dones")

        def run(splits):
            batch = _batch(clips, range(300, 332))
            batch.world.qd[5, 1:] = 1e9  # the simulator flags it invalid at once
            parts, bufs, lo = [], [], 0
            for n in splits:
                parts.append(batch.rows(np.arange(lo, lo + n)))
                bufs.append(tr.collect_rollouts(
                    parts[-1], ts.policy, ts.policy_params, ts.value_spec,
                    ts.value_params, cfg.horizon, parts[-1].rngs,
                ))
                lo += n
            out = {f: np.concatenate([getattr(b, f) for b in bufs], axis=1) for f in fields}
            out["imitation"] = np.concatenate([b.info["imitation"] for b in bufs], axis=1)
            out["bootstrap"] = np.concatenate([b.bootstrap for b in bufs])
            out["envs"] = reference.env_state(tr.EnvBatch.join(parts))
            return out

        ref = run([32])
        assert ref["dones"][0, 5] == 1.0  # the invalid env ended its episode
        assert ref["dones"].sum() > 32  # and every env reset at least once on average
        for splits in ([1] * 32, [4] * 8, [16, 16], [1, 31]):
            got = run(splits)
            for k, v in ref.items():
                assert np.array_equal(v, got[k]), (splits[:2], k)

    def test_invalid_state_counts_as_divergence(self):
        env = _small_env()
        env.world.qd[0, 1:] = 1e9
        _, _, done, info = env.step(env.ref_base()[0])
        assert done and info["diverged"] and info["fell"]
        assert info["site_error"] < env.e_div  # frozen at its last finite state

    def test_step_builds_no_kinematics_of_the_stepped_world(self, monkeypatch):
        """The rewards and fall tests read the kinematics ``step_batch``
        hands on; the one build left is of the reference frames."""
        batch = _batch(_small_clips(), range(4))
        rebuilt = watch_kinematics(monkeypatch)
        for _ in range(5):
            batch.step(batch.ref_base())
        assert rebuilt() == []

    def test_step_evaluates_pd_once_per_substep(self, monkeypatch):
        """The energy penalty reads the first substep's torques from the
        report instead of evaluating PD on the pre-step world again."""
        batch = _batch(_small_clips(), range(4))
        calls = []
        pd_rows = ph.pd_rows

        def counted(*args):
            calls.append(1)
            return pd_rows(*args)

        monkeypatch.setattr(ph, "pd_rows", counted)
        batch.step(batch.ref_base())
        assert len(calls) == CFG.substeps

    def test_step_reads_no_motion_clip(self, monkeypatch):
        """Reference frames, goals, clip ends and resets are library
        gathers: a step, one with a reset included, reads no attribute of
        any MotionClip."""
        batch = _batch(_small_clips(), range(4))
        batch.world.root_pos[2, 0] += 5.0  # diverges, so the first step resets env 2
        reads = []
        get = mo.MotionClip.__getattribute__

        def reading(clip, name):
            reads.append(name)
            return get(clip, name)

        monkeypatch.setattr(mo.MotionClip, "__getattribute__", reading)
        for k in range(3):
            _, _, done, _ = batch.step(batch.ref_base())
            if k == 0:
                assert done[2]
        assert reads == []

    def test_reset_writes_the_drawn_frame(self):
        """A reset env's World row is ``World.put`` of the drawn frame's
        ``frame_state``, and its time and clip index follow the draw."""
        clips = _small_clips()
        env = tr.TrackingEnv(clips, SPEC, CFG, rng=np.random.default_rng(4))
        draw = np.random.default_rng(4)
        draw.bit_generator.state = env.rng.bit_generator.state
        env.world.root_pos[0] += [5.0, 0.0]
        _, _, done, _ = env.step(env.ref_base()[0])
        assert done
        ci = int(draw.integers(len(clips)))
        frame = int(draw.integers(clips[ci].n_frames - 1))
        want = ph.World.of([clips[ci].frame_state(frame)], SPEC)
        for f in fields(ph.World):
            assert getattr(env.world, f.name).tobytes() == getattr(want, f.name).tobytes(), f.name
        assert env.t[0] == frame / clips[ci].frame_rate and env.clip_index[0] == ci

    def test_observe_equals_the_concatenated_pieces(self):
        batch = _batch(_small_clips(), range(6))
        rng = np.random.default_rng(5)
        w = batch.world
        w.q += rng.uniform(-4.0, 4.0, w.q.shape)  # angles past pi on both sides
        w.root_vel += rng.uniform(-1.0, 1.0, w.root_vel.shape)
        w.qd += rng.uniform(-3.0, 3.0, w.qd.shape)
        obs = batch.observe()
        want = reference.observation(batch.goal, *w.coords)
        assert obs.shape == (6, OBS.width) and obs.tobytes() == want.tobytes()

    def test_sample_rows_draws_each_generators_stream(self):
        policy = tr.GaussianPolicy(nets.MlpSpec(OBS.width, (8,), 8))
        params = policy.init(np.random.default_rng(1), 0.3)
        obs = np.random.default_rng(2).standard_normal((5, OBS.width))
        net = policy.row_net(params)
        act, _ = policy.sample_rows(net, obs, [np.random.default_rng(s) for s in range(5)])
        noise = np.stack([np.random.default_rng(s).standard_normal(8) for s in range(5)])
        want = net(obs) + np.exp(policy.split(params)[1]) * noise
        assert act.tobytes() == want.tobytes()

    def test_caller_config_not_mutated(self, tmp_path):
        clips = [one_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG)]
        cfg = tr.PpoConfig(envs=1, horizon=4, updates=1, epochs_per_update=1)
        tr.train_tracking(clips, cfg, tmp_path, seed=0, spec=SPEC, phys=CFG, log=False)
        assert cfg.learn_std is False
        assert cfg == tr.PpoConfig(envs=1, horizon=4, updates=1, epochs_per_update=1)

    def test_learn_std_leaves_the_log_std_to_the_optimiser(self, tmp_path):
        """With ``learn_std`` the run's log-std tail is what one
        ``ppo_round`` makes of it, not the scheduled ``log(sigma_at(0))``."""
        clips = [one_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG)]
        cfg = tr.PpoConfig(envs=2, horizon=8, updates=1, epochs_per_update=1, learn_std=True,
                           pi_hidden=(8,), critic_hidden=(8,))
        ts = tr.train_tracking(clips, cfg, tmp_path, seed=5, spec=SPEC, phys=CFG, log=False)
        tail = ts.policy_params[-SPEC.n_joints:]
        assert not np.any(tail == math.log(cfg.sigma_at(0)))
        want = tr.build_networks(OBS.width, SPEC.n_joints, cfg, seed=5)
        rngs = [np.random.default_rng(seed_for(5, f"update-0-env-{i}")) for i in range(2)]
        init = [np.random.default_rng(seed_for(5, f"env-init-{i}")) for i in range(2)]
        envs = tr.EnvBatch(clips, SPEC, CFG, init, cfg.e_div, cfg.energy_floor)
        buf = tr.collect_rollouts(envs, want.policy, want.policy_params, want.value_spec,
                                  want.value_params, cfg.horizon, rngs)
        tr.ppo_round(want, buf, cfg, np.random.default_rng(seed_for(5, "update-0-shuffle")))
        assert tail.tobytes() == want.policy_params[-SPEC.n_joints:].tobytes()
