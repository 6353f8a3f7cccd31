import math

import numpy as np
import pytest

import reference
from reference import watch_kinematics
from slmp import motion as mo
from slmp import nets
from slmp import physics as ph
from slmp import tracking as tr

SPEC = ph.default_character()
CFG = ph.default_config(SPEC)


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
        clip = mo.generate_clip("combo", 1, 4.0, spec=SPEC, cfg=CFG)
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
        clip = mo.generate_clip("kick", 2, 4.0, spec=SPEC, cfg=CFG)
        for _ in range(30):
            st = clip.frame_state(int(rng.integers(clip.n_frames)))
            st.root_pos = st.root_pos + rng.uniform(-1, 1, 2)
            st.joint_vels = rng.uniform(-20, 20, 8)
            r, _ = tr.imitation_reward(st, clip.frame_state(0), SPEC)
            assert 0.0 < r <= 1.0


class TestEnergyPenalty:
    def test_zero_torques(self):
        assert tr.energy_penalty(np.zeros(8), np.ones(8)) == 0.0

    def test_direct_substitution(self):
        assert tr.energy_penalty(np.array([2.0]), np.array([3.0])) == pytest.approx(
            -0.0005 * 36.0, abs=1e-15
        )

    def test_never_positive(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            tau = rng.uniform(-200, 200, 8)
            om = rng.uniform(-50, 50, 8)
            assert tr.energy_penalty(tau, om) <= 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tr.energy_penalty(np.zeros(3), np.zeros(4))


class TestGae:
    def test_single_terminal_step(self):
        adv, ret = tr.gae(np.array([1.0]), np.array([0.0]), np.array([1.0]), 0.99, 0.95)
        assert adv[0] == pytest.approx(1.0)
        assert ret[0] == pytest.approx(1.0)

    def test_two_step_recursion(self):
        adv, _ = tr.gae(
            np.array([1.0, 1.0]), np.array([0.0, 0.0]), np.array([0.0, 1.0]), 0.99, 0.95
        )
        assert adv[0] == pytest.approx(1.0 + 0.99 * 0.95 * 1.0)

    def test_zero_rewards_zero_values(self):
        adv, ret = tr.gae(np.zeros(5), np.zeros(5), np.zeros(5), 0.99, 0.95, 0.0)
        assert np.allclose(adv, 0.0)
        assert np.allclose(ret, 0.0)

    def test_lambda_zero_is_one_step_td(self):
        rng = np.random.default_rng(3)
        r = rng.uniform(-1, 1, 20)
        v = rng.uniform(-1, 1, 20)
        d = (rng.uniform(size=20) < 0.2).astype(float)
        boot = 0.37
        adv, _ = tr.gae(r, v, d, 0.9, 0.0, boot)
        v_next = np.concatenate([v[1:], [boot]])
        td = r + 0.9 * v_next * (1 - d) - v
        assert np.allclose(adv, td, atol=1e-12)

    def test_bootstrap_used_for_truncation(self):
        adv, _ = tr.gae(np.array([0.0]), np.array([0.0]), np.array([0.0]), 0.5, 1.0, 2.0)
        assert adv[0] == pytest.approx(1.0)


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


def _small_env(seed=0):
    clips = [
        mo.generate_clip("idle", 0, 4.0, spec=SPEC, cfg=CFG),
        mo.generate_clip("jab", 20, 4.0, spec=SPEC, cfg=CFG),
    ]
    return tr.TrackingEnv(clips, SPEC, CFG, rng=np.random.default_rng(seed))


class TestEnv:
    def test_rollout_determinism(self):
        clips = [mo.generate_clip("idle", 0, 4.0, spec=SPEC, cfg=CFG)]
        outs = []
        for _ in range(2):
            env = tr.TrackingEnv(clips, SPEC, CFG, rng=np.random.default_rng(9))
            policy = tr.GaussianPolicy(
                nets.MlpSpec(tr.track_obs_dim(SPEC), (16,), 8, activation="silu")
            )
            params = policy.init(np.random.default_rng(1), 0.3)
            rng = np.random.default_rng(42)
            rows = []
            for _ in range(20):
                a, _ = policy.sample(params, tr.track_obs(env.state, SPEC, env.clip, env.t), rng)
                obs, r, d, info = env.step(tr.action_to_targets(a, env.ref_base()))
                rows.append(r)
            outs.append(rows)
        assert outs[0] == outs[1]

    def test_reference_pd_feasibility_on_idle(self):
        """Reference targets alone track an idle clip above 0.8 reward."""
        clip = mo.generate_clip("idle", 0, 4.0, spec=SPEC, cfg=CFG)
        env = tr.TrackingEnv([clip], SPEC, CFG, rng=np.random.default_rng(0))
        env.clip_index = 0
        env.state = clip.frame_state(0)
        env.t = 0.0
        rewards = []
        for _ in range(120):  # 2 s
            _, r, done, info = env.step(env.ref_base())
            rewards.append(info["imitation"])
            if done:
                break
        assert np.mean(rewards) > 0.8

    def test_forced_fall_terminates(self):
        env = _small_env()
        env.state.root_pos = np.array([0.0, 0.1])
        env.state.root_vel = np.array([0.0, -3.0])
        done = False
        for _ in range(3):
            _, _, done, info = env.step(env.ref_base())
            if done:
                break
        assert done

    def test_divergence_resets(self):
        env = _small_env()
        env.state.root_pos = env.state.root_pos + np.array([5.0, 0.0])
        _, _, done, info = env.step(env.ref_base())
        assert done and info["diverged"]


class TestTraining:
    def test_smoke_and_checkpoint_roundtrip(self, tmp_path):
        clips = [mo.generate_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG)]
        cfg = tr.PpoConfig(envs=2, horizon=16, updates=2, epochs_per_update=2)
        ts = tr.train_tracking(clips, cfg, tmp_path, seed=3, spec=SPEC, phys=CFG, log=False)
        policy, params = tr.load_policy(tmp_path / "pi_track.ckpt")
        assert np.array_equal(params, ts.policy_params)
        assert (tmp_path / "metrics.csv").read_text().count("\n") == 3

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        clips = [mo.generate_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG),
                 mo.generate_clip("footwork", 10, 3.0, spec=SPEC, cfg=CFG)]
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
        full_rows = (tmp_path / "full" / "metrics.csv").read_text().splitlines()
        half_rows = (tmp_path / "half" / "metrics.csv").read_text().splitlines()
        assert full_rows[2] == half_rows[2]

    def test_resume_refuses_a_changed_env_count(self, tmp_path):
        clips = [mo.generate_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG)]
        cfg = tr.PpoConfig(envs=2, horizon=8, updates=1, epochs_per_update=1)
        tr.train_tracking(clips, cfg, tmp_path, seed=5, spec=SPEC, phys=CFG, log=False)
        more = tr.PpoConfig(envs=3, horizon=8, updates=2, epochs_per_update=1)
        with pytest.raises(ValueError, match="2 envs, the config builds 3"):
            tr.train_tracking(clips, more, tmp_path, seed=5, spec=SPEC, phys=CFG, resume=True,
                              log=False)

    def test_first_epoch_clip_fraction_zero(self, tmp_path):
        clips = [mo.generate_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG)]
        cfg = tr.PpoConfig(envs=2, horizon=8, updates=1, epochs_per_update=1)
        env_list = [
            tr.TrackingEnv(clips, SPEC, CFG, rng=np.random.default_rng(i)) for i in range(2)
        ]
        ts = tr.build_networks(tr.track_obs_dim(SPEC), 8, cfg, seed=0)
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

    def test_worker_split_bit_identical(self):
        clips = [mo.generate_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG),
                 mo.generate_clip("jab", 20, 3.0, spec=SPEC, cfg=CFG)]
        cfg = tr.PpoConfig(envs=4, horizon=8)
        ts = tr.build_networks(tr.track_obs_dim(SPEC), 8, cfg, seed=0)

        def collect(workers):
            envs = [
                tr.TrackingEnv(clips, SPEC, CFG, rng=np.random.default_rng(100 + i))
                for i in range(4)
            ]
            rngs = [np.random.default_rng(200 + i) for i in range(4)]
            return tr.collect_rollouts(
                envs, ts.policy, ts.policy_params, ts.value_spec, ts.value_params,
                cfg.horizon, rngs, workers=workers,
            )

        a = collect(1)
        b = collect(2)
        assert np.array_equal(a.obs, b.obs)
        assert np.array_equal(a.rewards, b.rewards)
        assert np.array_equal(a.log_probs, b.log_probs)

    def test_chunk_split_bit_identical(self):
        """4 envs give the same buffer in one chunk and split 1+3."""
        clips = [mo.generate_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG),
                 mo.generate_clip("jab", 20, 3.0, spec=SPEC, cfg=CFG)]
        cfg = tr.PpoConfig(envs=4, horizon=8)
        ts = tr.build_networks(tr.track_obs_dim(SPEC), 8, cfg, seed=0)
        envs = [tr.TrackingEnv(clips, SPEC, CFG, rng=np.random.default_rng(100 + i % 4))
                for i in range(8)]
        rngs = [np.random.default_rng(200 + i % 4) for i in range(8)]
        nets_args = (ts.policy, ts.policy_params, ts.value_spec, ts.value_params, cfg.horizon)
        whole = tr.collect_rollouts(envs[:4], *nets_args, rngs[:4], workers=1)
        parts = [tr.collect_rollouts(envs[4:5], *nets_args, rngs[4:5]),
                 tr.collect_rollouts(envs[5:], *nets_args, rngs[5:])]
        for f in ("obs", "actions", "rewards", "values", "log_probs", "dones", "bootstrap"):
            axis = 0 if f == "bootstrap" else 1
            assert np.array_equal(getattr(whole, f),
                                  np.concatenate([getattr(p, f) for p in parts], axis=axis)), f
        for a, b in zip(envs[:4], envs[4:]):
            assert np.array_equal(a.snapshot()["values"], b.snapshot()["values"])

    def test_batch_size_invariance_with_resets_and_divergence(self):
        """Every env's rollout is bit-identical whether the 32 envs run as
        one batch, 32 batches of one, 8 of four, 16+16 or 1+31."""
        clips = [mo.generate_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG),
                 mo.generate_clip("jab", 20, 3.0, spec=SPEC, cfg=CFG)]
        cfg = tr.PpoConfig(envs=32, horizon=60, pi_hidden=(32,), critic_hidden=(32,))
        ts = tr.build_networks(tr.track_obs_dim(SPEC), 8, cfg, seed=0)
        fields = ("obs", "actions", "rewards", "values", "log_probs", "dones", "imitation")

        def run(splits):
            envs = [tr.TrackingEnv(clips, SPEC, CFG, rng=np.random.default_rng(300 + i))
                    for i in range(32)]
            envs[5].state.joint_vels[:] = 1e9  # the simulator flags it invalid at once
            bufs, lo = [], 0
            for n in splits:
                bufs.append(tr._collect_chunk(
                    envs[lo : lo + n], ts.policy, ts.policy_params, ts.value_spec,
                    ts.value_params, cfg.horizon, [env.rng for env in envs[lo : lo + n]],
                ))
                lo += n
            out = {f: np.concatenate([getattr(b, f) for b in bufs], axis=1) for f in fields}
            out["bootstrap"] = np.concatenate([b.bootstrap for b in bufs])
            out["envs"] = np.stack([env.snapshot()["values"] for env in envs])
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
        env.state.joint_vels[:] = 1e9
        batch = tr.EnvBatch([env])
        _, _, done, info = batch.step(batch.ref_base())
        assert done[0] and info["diverged"][0] and info["fell"][0]
        assert info["site_error"][0] < env.e_div  # frozen at its last finite state

    def test_step_builds_no_kinematics_of_the_stepped_world(self, monkeypatch):
        """The rewards and fall tests read the kinematics ``step_batch``
        hands on; the one build left is of the reference frames."""
        clips = _small_env().clips
        batch = tr.EnvBatch([tr.TrackingEnv(clips, SPEC, CFG, rng=np.random.default_rng(seed))
                             for seed in range(4)])
        rebuilt = watch_kinematics(monkeypatch)
        for _ in range(5):
            batch.step(batch.ref_base())
        assert rebuilt() == []

    def test_step_evaluates_pd_once_per_substep(self, monkeypatch):
        """The energy penalty reads the first substep's torques from the
        report instead of evaluating PD on the pre-step world again."""
        clips = _small_env().clips
        batch = tr.EnvBatch([tr.TrackingEnv(clips, SPEC, CFG, rng=np.random.default_rng(seed))
                             for seed in range(4)])
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
        clips = _small_env().clips
        batch = tr.EnvBatch([tr.TrackingEnv(clips, SPEC, CFG, rng=np.random.default_rng(seed))
                             for seed in range(4)])
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
        env = _small_env(seed=4)
        draw = np.random.default_rng(4)
        draw.bit_generator.state = env.rng.bit_generator.state
        env.state.root_pos = env.state.root_pos + np.array([5.0, 0.0])
        batch = tr.EnvBatch([env])
        _, _, done, _ = batch.step(batch.ref_base())
        assert done[0]
        ci = int(draw.integers(len(env.clips)))
        frame = int(draw.integers(env.clips[ci].n_frames - 1))
        want = ph.World.of([env.clips[ci].frame_state(frame)], SPEC)
        for f in ("root_pos", "q", "root_vel", "qd", "time", "valid", "anchor_x", "anchor_on"):
            assert getattr(batch.world, f).tobytes() == getattr(want, f).tobytes(), f
        assert batch.t[0] == frame / env.clips[ci].frame_rate and batch.clip_index[0] == ci

    def test_observe_equals_the_concatenated_pieces(self):
        clips = _small_env().clips
        batch = tr.EnvBatch([tr.TrackingEnv(clips, SPEC, CFG, rng=np.random.default_rng(seed))
                             for seed in range(6)])
        rng = np.random.default_rng(5)
        w = batch.world
        w.q += rng.uniform(-4.0, 4.0, w.q.shape)  # angles past pi on both sides
        w.root_vel += rng.uniform(-1.0, 1.0, w.root_vel.shape)
        w.qd += rng.uniform(-3.0, 3.0, w.qd.shape)
        obs = batch.observe()
        want = reference.observation(batch.goal, *w.coords)
        assert obs.shape == (6, tr.track_obs_dim(SPEC)) and obs.tobytes() == want.tobytes()

    def test_sample_rows_draws_each_generators_stream(self):
        policy = tr.GaussianPolicy(nets.MlpSpec(tr.track_obs_dim(SPEC), (8,), 8))
        params = policy.init(np.random.default_rng(1), 0.3)
        obs = np.random.default_rng(2).standard_normal((5, tr.track_obs_dim(SPEC)))
        act, _ = policy.sample_rows(params, obs, [np.random.default_rng(s) for s in range(5)])
        noise = np.stack([np.random.default_rng(s).standard_normal(8) for s in range(5)])
        want = policy.mean_rows(params, obs) + np.exp(policy.split(params)[1]) * noise
        assert act.tobytes() == want.tobytes()

    def test_caller_config_not_mutated(self, tmp_path):
        clips = [mo.generate_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG)]
        cfg = tr.PpoConfig(envs=1, horizon=4, updates=1, epochs_per_update=1)
        tr.train_tracking(clips, cfg, tmp_path, seed=0, spec=SPEC, phys=CFG, log=False)
        assert cfg.learn_std is True
        assert cfg == tr.PpoConfig(envs=1, horizon=4, updates=1, epochs_per_update=1)
