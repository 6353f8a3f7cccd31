import math
import re

import numpy as np
import pytest

from reference import env_state, one_clip, proprio
from slmp import distill as di
from slmp import motion as mo
from slmp import nets
from slmp import physics as ph
from slmp import tracking as tr

SPEC = ph.default_character()
CFG = ph.default_config(SPEC)


def relerr(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-4)


def tiny_nets(seed=0, latent=4, pdim=5, gdim=6, act=3):
    cfg = di.SlmpConfig(latent_dim=latent, encoder_hidden=(8,), pi_phi_hidden=(10,),
                        disc_hidden=(8,), window=4)
    return di.build_distill_nets(gdim, pdim, act, cfg, seed), cfg


class TestEncode:
    def test_unit_norm(self):
        n, cfg = tiny_nets()
        rng = np.random.default_rng(0)
        z = di.encode_goal(nets.RowNet(n.enc_spec, n.enc_params), rng.standard_normal((20, 6)))
        assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-6)

    def test_projection_values(self):
        assert np.allclose(
            di.normalize_rows(np.array([[3.0, 4.0, 0.0]]))[0], [[0.6, 0.8, 0.0]]
        )

    def test_deterministic(self):
        n, _ = tiny_nets()
        g = np.arange(6.0)[None]
        enc = nets.RowNet(n.enc_spec, n.enc_params)
        a = di.encode_goal(enc, g)
        b = di.encode_goal(enc, g)
        assert np.array_equal(a, b)

    def test_degenerate_rejected(self):
        with pytest.raises(di.DegenerateEncodingError):
            di.normalize_rows(np.zeros((1, 4)))


class TestSampleSphere:
    def test_unit_norm(self):
        z = di.sample_sphere(8, np.random.default_rng(0), 500)
        assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-9)

    def test_example_values(self):
        assert np.allclose(di.normalize_rows(np.array([[3.0, 4.0]]))[0], [[0.6, 0.8]])

    def test_isotropy(self):
        d = 8
        z = di.sample_sphere(d, np.random.default_rng(1), 100_000)
        assert np.linalg.norm(z.mean(axis=0)) < 0.02
        var = z.var(axis=0)
        assert np.all(np.abs(var - 1.0 / d) < 0.1 / d)

    def test_min_dim(self):
        with pytest.raises(ValueError):
            di.sample_sphere(1, np.random.default_rng(0), 1)

    @staticmethod
    def _row_loop(d, rng, n):
        """One draw per row, redrawn while degenerate."""
        out = np.empty((n, d))
        for i in range(n):
            while True:
                eps = rng.standard_normal(d)
                norm = np.linalg.norm(eps)
                if norm >= 1e-9:
                    out[i] = eps / norm
                    break
        return out

    @pytest.mark.parametrize("n", [1, 7, 1024])
    def test_block_draw_matches_row_loop(self, n):
        """Output bits and the generator's end state equal the row loop's."""
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        for d in (3, 8):
            assert np.array_equal(di.sample_sphere(d, rng, n), self._row_loop(d, ref, n))
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_degenerate_row_redrawn_like_row_loop(self):
        """A zero draw in row 2 is skipped: the rows after it shift by one
        draw, exactly as in the row loop."""

        class Replay:
            """Generator stand-in replaying fixed normal draws; ``state``
            is the read position."""

            def __init__(self, values):
                self.values, self.state = values, 0

            def standard_normal(self, size):
                k = int(np.prod(size))
                self.state += k
                return self.values[self.state - k : self.state].reshape(size).copy()

        values = np.random.default_rng(5).standard_normal(64)
        values[16:24] = 0.0
        rng, ref = Replay(values), Replay(values)
        got = di.sample_sphere(8, rng, 6)
        assert np.array_equal(got, self._row_loop(8, ref, 6))
        assert rng.state == ref.state == 56
        assert np.array_equal(ph.row_norms(values.reshape(8, 8)),
                              [np.linalg.norm(r) for r in values.reshape(8, 8)])


class TestLosses:
    def test_distill_zero_when_equal(self):
        a = np.random.default_rng(0).standard_normal((4, 3))
        assert di.distill_loss(a, a) == 0.0

    def test_distill_unit_offset(self):
        a_star = np.zeros((1, 4))
        a1 = np.array([[1.0, 0.0, 0.0, 0.0]])
        assert di.distill_loss(a1, a_star) == pytest.approx(1.0)

    def test_distill_gradient_matches_fd(self):
        rng = np.random.default_rng(2)
        a1 = rng.standard_normal((3, 4))
        a_star = rng.standard_normal((3, 4))
        g = 2.0 * (a1 - a_star) / 3.0
        step = 1e-6
        for i in range(3):
            for j in range(4):
                p = a1.copy()
                p[i, j] += step
                hi = di.distill_loss(p, a_star)
                p[i, j] -= 2 * step
                lo = di.distill_loss(p, a_star)
                assert relerr(g[i, j], (hi - lo) / (2 * step)) < 1e-4

    def test_disc_sigmoid_semantics(self):
        assert 1.0 / (1.0 + math.exp(0.0)) == 0.5
        assert di._sigmoid(np.array([-2.0]))[0] == pytest.approx(0.11920292, abs=1e-8)

    def test_disc_loss_zero_scores(self):
        z = np.zeros(5)
        assert di.disc_loss(z, z) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_disc_loss_confident(self):
        assert di.disc_loss(np.full(3, 10.0), np.full(3, -10.0)) == pytest.approx(
            9.08e-5, rel=1e-2
        )

    def test_disc_loss_order_invariant(self):
        rng = np.random.default_rng(3)
        pos = rng.standard_normal(6)
        neg = rng.standard_normal(6)
        perm = rng.permutation(6)
        assert di.disc_loss(pos, neg) == pytest.approx(di.disc_loss(pos[perm], neg[perm]))

    def test_disc_forward_gradcheck(self):
        n, _ = tiny_nets()
        rng = np.random.default_rng(4)
        x = rng.standard_normal(n.disc_spec.input_dim)
        assert nets.grad_check(n.disc_spec, n.disc_params, x) < 1e-4


class TestDlsc:
    def test_wd_identical_latents(self):
        z = di.sample_sphere(6, np.random.default_rng(0), 3)
        w_d, w_c = di.dlsc_weights(z, z, np.zeros(3), beta=0.1)
        assert np.allclose(w_d, 1.0)
        assert np.allclose(w_c, 1.0)

    def test_wd_antipodal(self):
        z = di.sample_sphere(6, np.random.default_rng(1), 1)
        w_d, _ = di.dlsc_weights(z, -z, np.zeros(1), beta=0.1)
        assert w_d[0] == pytest.approx(math.exp(-0.2), abs=1e-12)

    def test_wc_substitution(self):
        z = np.ones((2, 2)) / math.sqrt(2)
        _, w_c = di.dlsc_weights(z, z, np.array([0.5, -2.0]), 0.1)
        assert w_c.tolist() == [1.0, 3.0]

    def test_wc_at_least_one_and_wd_range(self):
        rng = np.random.default_rng(5)
        z1 = di.sample_sphere(8, rng, 200)
        z2 = di.sample_sphere(8, rng, 200)
        scores = rng.standard_normal(200) * 3
        w_d, w_c = di.dlsc_weights(z1, z2, scores, beta=0.1)
        assert np.all(w_c >= 1.0)
        assert np.all(w_d >= math.exp(-0.2) - 1e-12)
        assert np.all(w_d <= 1.0 + 1e-12)

    def test_dlsc_loss_values(self):
        a_star = np.zeros((1, 2))
        a2 = np.array([[1.0, 1.0]])
        assert di.dlsc_loss(np.array([1.0]), np.array([1.0]), a2, a_star) == pytest.approx(2.0)
        assert di.dlsc_loss(np.array([1.0]), np.array([1.0]), a_star, a_star) == 0.0

    def test_dlsc_grad_only_through_a2(self):
        rng = np.random.default_rng(6)
        w_d = rng.uniform(0.8, 1.0, 3)
        w_c = rng.uniform(1.0, 2.0, 3)
        a2 = rng.standard_normal((3, 4))
        a_star = rng.standard_normal((3, 4))
        g = 2.0 * (w_d * w_c)[:, None] * (a2 - a_star) / 3.0
        step = 1e-6
        for i in range(3):
            for j in range(4):
                p = a2.copy()
                p[i, j] += step
                hi = di.dlsc_loss(w_d, w_c, p, a_star)
                p[i, j] -= 2 * step
                lo = di.dlsc_loss(w_d, w_c, p, a_star)
                assert relerr(g[i, j], (hi - lo) / (2 * step)) < 1e-4


class TestSlmpUpdate:
    def _batch(self, n, cfg, count=6, seed=7):
        rng = np.random.default_rng(seed)
        return di.DistillBatch(
            rng.standard_normal((count, n.phi_spec.input_dim - cfg.latent_dim)),
            rng.standard_normal((count, n.enc_spec.input_dim)),
            rng.standard_normal((count, n.phi_spec.output_dim)) * 0.3,
            di.sample_sphere(cfg.latent_dim, rng, count),
        )

    def test_distill_mode_leaves_discriminator(self):
        n, cfg = tiny_nets()
        cfg.mode = "distill"
        before = n.disc_params.copy()
        batch = self._batch(n, cfg)
        phase = di.Phase(window=cfg.window)
        for _ in range(5):
            m = di.slmp_update(batch, n, cfg, phase)
        assert np.array_equal(n.disc_params, before)
        assert m["l_dlsc"] == 0.0

    @pytest.mark.parametrize("net", ["enc_spec", "phi_spec", "disc_spec"])
    def test_non_finite_gradient_under_finite_loss_skipped(self, monkeypatch, net):
        """A NaN gradient of any of the three networks under a finite loss
        skips the whole update instead of raising in adam_step."""
        n, cfg = tiny_nets()
        batch = self._batch(n, cfg)
        phase = di.Phase(window=cfg.window, use_wc=True)  # the discriminator trains too
        real = nets.backward_batch

        def backward(spec, params, x, g, **kwargs):
            g_params, g_x = real(spec, params, x, g, **kwargs)
            return (np.full_like(g_params, np.nan) if spec is getattr(n, net) else g_params), g_x

        monkeypatch.setattr(nets, "backward_batch", backward)
        before = [n.enc_params.copy(), n.phi_params.copy(), n.disc_params.copy()]
        m = di.slmp_update(batch, n, cfg, phase)
        assert math.isfinite(m["l_slmp"]) and m["skipped"] == 1.0
        for a, b in zip(before, [n.enc_params, n.phi_params, n.disc_params]):
            assert np.array_equal(a, b)

    def test_non_finite_loss_skipped(self):
        """An update whose loss is not finite changes no parameter and no
        Adam state, and reports itself skipped."""
        n, cfg = tiny_nets()
        batch = self._batch(n, cfg)
        batch.a_star[2, 1] = np.inf
        phase = di.Phase(window=cfg.window, use_wc=True)
        before = [n.enc_params.copy(), n.phi_params.copy(), n.disc_params.copy()]
        adam_t = [n.enc_adam.t, n.phi_adam.t, n.disc_adam.t]
        m = di.slmp_update(batch, n, cfg, phase)
        assert m["skipped"] == 1.0 and not math.isfinite(m["l_slmp"])
        for a, b in zip(before, [n.enc_params, n.phi_params, n.disc_params]):
            assert np.array_equal(a, b)
        assert [n.enc_adam.t, n.phi_adam.t, n.disc_adam.t] == adam_t

    def test_slmp_pre_switch_equals_nsc(self):
        batch_seed = 11
        results = {}
        for mode in ("slmp", "nsc"):
            n, cfg = tiny_nets(seed=3)
            cfg.mode = mode
            batch = self._batch(n, cfg, seed=batch_seed)
            phase = di.Phase(window=cfg.window)  # use_wc False
            di.slmp_update(batch, n, cfg, phase)
            results[mode] = (n.phi_params.copy(), n.enc_params.copy())
        assert np.array_equal(results["slmp"][0], results["nsc"][0])
        assert np.array_equal(results["slmp"][1], results["nsc"][1])

    def test_descent_on_fixed_batch(self):
        n, cfg = tiny_nets(seed=5)
        cfg.mode = "slmp"
        phase = di.Phase(window=cfg.window)
        batch = self._batch(n, cfg, count=8, seed=13)
        first = di.slmp_update(batch, n, cfg, phase)["l_slmp"]
        for _ in range(30):
            last = di.slmp_update(batch, n, cfg, phase)["l_slmp"]
        assert last < first

    def test_gan_mode_trains_discriminator(self):
        n, cfg = tiny_nets(seed=6)
        cfg.mode = "gan"
        before = n.disc_params.copy()
        phase = di.Phase(window=cfg.window)
        di.slmp_update(self._batch(n, cfg), n, cfg, phase)
        assert not np.array_equal(n.disc_params, before)

    def test_post_switch_trains_discriminator_and_wc_active(self):
        n, cfg = tiny_nets(seed=8)
        cfg.mode = "slmp"
        phase = di.Phase(use_wc=True, window=cfg.window)
        before = n.disc_params.copy()
        m = di.slmp_update(self._batch(n, cfg), n, cfg, phase)
        assert not np.array_equal(n.disc_params, before)
        assert m["l_disc"] > 0.0

    @pytest.mark.parametrize("mode,use_wc,forwards", [
        ("slmp", False, 3), ("slmp", True, 5), ("nsc", False, 3), ("gan", False, 5), ("distill", False, 2),
    ])
    def test_one_forward_per_network_input(self, monkeypatch, mode, use_wc, forwards):
        """Each backward reads its forward's tape, and the discriminator's
        own update reuses the score of (proprio, a2): encoder and prior x2
        run once each, and the discriminator scores (proprio, a2) and the
        expert actions when it trains.  The distill mode reads no a2, so it
        runs neither the second prior nor the discriminator."""
        n, cfg = tiny_nets(seed=4)
        cfg.mode = mode
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
        m = di.slmp_update(self._batch(n, cfg), n, cfg, di.Phase(window=cfg.window, use_wc=use_wc))
        assert m["skipped"] == 0.0
        assert len(calls) == forwards
        assert sources and set(sources) == {nets.Tape}

    @pytest.mark.parametrize("mode,use_wc,scores", [
        ("distill", False, 0), ("nsc", False, 0), ("nsc", True, 0), ("slmp", False, 0),
        ("slmp", True, 2), ("gan", False, 2), ("gan", True, 2),
    ])
    def test_discriminator_runs_only_when_it_trains(self, monkeypatch, mode, use_wc, scores):
        """Before the semantic-weight latch, and in the nsc mode, the
        semantic weight is 1 whatever the score, so the discriminator is
        not run; when it trains, it scores (proprio, a2) and the expert
        actions once each."""
        n, cfg = tiny_nets(seed=4)
        cfg.mode = mode
        real, calls = di.disc_forward, []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(di, "disc_forward", counting)
        m = di.slmp_update(self._batch(n, cfg), n, cfg, di.Phase(window=cfg.window, use_wc=use_wc))
        assert m["skipped"] == 0.0
        assert len(calls) == scores
        if mode in ("nsc", "slmp") and not use_wc:
            assert m["w_c"] == 1.0

    def test_full_gradient_matches_fd(self):
        """Analytic gradients of L_SLMP w.r.t. prior and encoder params."""
        n, cfg = tiny_nets(seed=9)
        cfg.mode = "slmp"
        phase = di.Phase(use_wc=True, window=cfg.window)
        batch = self._batch(n, cfg, count=3, seed=17)

        def loss(phi_params, enc_params):
            y = nets.forward_batch(n.enc_spec, enc_params, batch.goals)
            z1 = y / np.linalg.norm(y, axis=1, keepdims=True)
            a1 = nets.forward_batch(
                n.phi_spec, phi_params, np.concatenate([batch.proprio, z1], axis=1)
            )
            a2 = nets.forward_batch(
                n.phi_spec, phi_params, np.concatenate([batch.proprio, batch.z2], axis=1)
            )
            score2 = disc_scores(a2)
            w_d, w_c = di.dlsc_weights(z1_const, batch.z2, score2, cfg.beta)
            return cfg.lambda_distill * di.distill_loss(a1, batch.a_star) + cfg.lambda_dlsc * di.dlsc_loss(
                w_d, w_c, a2, batch.a_star
            )

        def disc_scores(a2):
            return di.disc_forward(n.disc_spec, n.disc_params, batch.proprio, a2)

        # weights are detached constants: freeze them at the base point
        y0 = nets.forward_batch(n.enc_spec, n.enc_params, batch.goals)
        z1_const = y0 / np.linalg.norm(y0, axis=1, keepdims=True)
        a2_0 = nets.forward_batch(
            n.phi_spec, n.phi_params, np.concatenate([batch.proprio, batch.z2], axis=1)
        )
        s2_0 = disc_scores(a2_0)
        wd0, wc0 = di.dlsc_weights(z1_const, batch.z2, s2_0, cfg.beta)

        def loss_detached(phi_params, enc_params):
            y = nets.forward_batch(n.enc_spec, enc_params, batch.goals)
            z1 = y / np.linalg.norm(y, axis=1, keepdims=True)
            a1 = nets.forward_batch(
                n.phi_spec, phi_params, np.concatenate([batch.proprio, z1], axis=1)
            )
            a2 = nets.forward_batch(
                n.phi_spec, phi_params, np.concatenate([batch.proprio, batch.z2], axis=1)
            )
            return cfg.lambda_distill * di.distill_loss(a1, batch.a_star) + cfg.lambda_dlsc * di.dlsc_loss(
                wd0, wc0, a2, batch.a_star
            )

        phi0 = n.phi_params.copy()
        enc0 = n.enc_params.copy()
        disc0 = n.disc_params.copy()
        adam_phi = n.phi_adam
        # capture analytic grads by calling slmp_update with lr so small the
        # params stay put, reading the Adam first-moment estimate
        cfg_probe = di.SlmpConfig(**{**cfg.__dict__})
        n.phi_adam = nets.adam_init(phi0.size, 1e-12)
        n.enc_adam = nets.adam_init(enc0.size, 1e-12)
        n.disc_adam = nets.adam_init(disc0.size, 1e-12)
        di.slmp_update(batch, n, cfg_probe, phase)
        g_phi = n.phi_adam.m / 0.1  # first moment after one step = 0.1 * grad
        g_enc = n.enc_adam.m / 0.1
        n.phi_params = phi0.copy()
        n.enc_params = enc0.copy()
        n.disc_params = disc0.copy()

        rng = np.random.default_rng(19)
        step = 1e-5
        for idx in rng.choice(phi0.size, 40, replace=False):
            p = phi0.copy()
            p[idx] += step
            hi = loss_detached(p, enc0)
            p[idx] -= 2 * step
            lo = loss_detached(p, enc0)
            assert relerr(g_phi[idx], (hi - lo) / (2 * step)) < 1e-4
        for idx in rng.choice(enc0.size, 40, replace=False):
            e = enc0.copy()
            e[idx] += step
            hi = loss_detached(phi0, e)
            e[idx] -= 2 * step
            lo = loss_detached(phi0, e)
            assert relerr(g_enc[idx], (hi - lo) / (2 * step)) < 1e-4

    def test_prior_action_shape_and_determinism(self):
        n, cfg = tiny_nets()
        rng = np.random.default_rng(20)
        s = rng.standard_normal((1, n.phi_spec.input_dim - cfg.latent_dim))
        z = di.sample_sphere(cfg.latent_dim, rng, 1)
        phi = nets.RowNet(n.phi_spec, n.phi_params)
        a = di.prior_action(phi, s, z)
        b = di.prior_action(phi, s, z)
        assert a.shape == (1, n.phi_spec.output_dim)
        assert np.array_equal(a, b)

    def test_prior_action_rows_match_single_calls(self):
        n, cfg = tiny_nets()
        rng = np.random.default_rng(21)
        s = rng.standard_normal((5, n.phi_spec.input_dim - cfg.latent_dim))
        z = np.concatenate([di.sample_sphere(cfg.latent_dim, rng, 1) for _ in range(5)])
        phi = nets.RowNet(n.phi_spec, n.phi_params)
        rows = di.prior_action(phi, s, z)
        for i in range(5):
            one = phi(np.concatenate([s[i], z[i]])[None])
            assert np.array_equal(rows[i], one[0])


class TestPhase:
    def test_constant_history_switches_once(self):
        phase = di.Phase(window=5)
        for i in range(10):
            phase = di.phase_scheduler(phase, 1.0)
        assert phase.use_wc

    def test_halving_never_switches(self):
        phase = di.Phase(window=5)
        loss = 1024.0
        for i in range(40):
            phase = di.phase_scheduler(phase, loss)
            loss *= 0.5 ** (1 / 5)  # halves every window
        assert not phase.use_wc

    def test_latch_is_permanent(self):
        phase = di.Phase(window=3)
        for _ in range(6):
            phase = di.phase_scheduler(phase, 2.0)
        assert phase.use_wc
        for _ in range(20):
            phase = di.phase_scheduler(phase, 1000.0)
        assert phase.use_wc

    def test_switch_exactly_at_plateau_window(self):
        phase = di.Phase(window=4)
        # improving prefix, then a plateau: the switch fires exactly when
        # both halves of the 2W window are flat
        values = [8.0, 4.0, 2.0, 1.0] + [1.0] * 8
        for i, v in enumerate(values, start=1):
            phase = di.phase_scheduler(phase, v)
            # the sliding 2W window is all-plateau for the first time at 11
            assert phase.use_wc == (i >= 11), f"update {i}"


class TestCollectFresh:
    """``collect_fresh`` against the per-env loop it replaced."""

    CLIPS = [one_clip("idle", 0, 2.0, spec=SPEC, cfg=CFG),
             one_clip("jab", 20, 2.0, spec=SPEC, cfg=CFG)]

    @staticmethod
    def _nets():
        pcfg = tr.PpoConfig(pi_hidden=(16,), critic_hidden=(4,))
        expert = tr.build_networks(tr.TRACK_OBS.width(SPEC), SPEC.n_joints, pcfg, seed=0)
        cfg = di.SlmpConfig(encoder_hidden=(16,), pi_phi_hidden=(16,), disc_hidden=(4,))
        n = di.build_distill_nets(mo.GOAL.width(SPEC), tr.PROPRIO.width(SPEC), SPEC.n_joints, cfg,
                                  seed=1)
        return expert.policy, expert.policy_params, n

    @pytest.fixture(autouse=True)
    def _tight_bound(self, monkeypatch):
        # a tight divergence bound makes the untrained prior reset envs often:
        # about one sample in three ends an episode
        monkeypatch.setattr(tr, "E_DIV", 0.2)

    def _rngs(self, lo=0, hi=16):
        return [np.random.default_rng(40 + i) for i in range(lo, hi)]

    def _batch(self, lo=0, hi=16):
        return tr.EnvBatch(self.CLIPS, SPEC, CFG, self._rngs(lo, hi))

    def _envs(self):
        return [tr.TrackingEnv(self.CLIPS, SPEC, CFG, tr.E_DIV, rng) for rng in self._rngs()]

    def _per_env(self, envs, steps, expert, expert_params, n):
        """Reference: one ``TrackingEnv.step`` and single-row forwards per sample."""
        rows, mse, resets = [], 0.0, 0
        for _ in range(steps):
            for env in envs:
                state, clip, t = env.world.state(0), self.CLIPS[env.clip_index[0]], float(env.t[0])
                p = proprio(state)
                g = mo.goal_state(clip, t, state)
                obs = tr.track_obs(state, SPEC, clip, t)
                mu = expert.row_net(expert_params)(obs[None])[0]
                a_star = tr.action_to_targets(mu, env.ref_base()[0])
                z1 = di.encode_goal(nets.RowNet(n.enc_spec, n.enc_params), g[None])
                a = di.prior_action(nets.RowNet(n.phi_spec, n.phi_params), p[None], z1)[0]
                mse += float(((a - a_star) ** 2).sum())
                resets += env.step(a)[2]
                rows.append((p, g, a_star))
        p, g, a_star = (np.stack(col) for col in zip(*rows))
        return (p, g, a_star, mse / len(rows)), resets

    def test_bit_equal_to_per_env_steps_with_resets(self):
        expert, params, n = self._nets()
        ref_envs, batch = self._envs(), self._batch()
        resets = 0
        for _ in range(3):
            want, r = self._per_env(ref_envs, 5, expert, params, n)
            resets += r
            got = di.collect_fresh(batch, 5, expert, params, n)
            for w, g in zip(want[:3], got[:3]):
                assert np.array_equal(w, g)
            assert want[3] == got[3]
        assert resets >= 16
        assert env_state(tr.EnvBatch.join(ref_envs)) == env_state(batch)

    def test_one_batch_equals_eight_plus_eight(self):
        expert, params, n = self._nets()
        whole = self._batch()
        halves = [self._batch(0, 8), self._batch(8, 16)]
        steps = 4
        for _ in range(3):
            got = di.collect_fresh(whole, steps, expert, params, n)
            parts = [di.collect_fresh(h, steps, expert, params, n) for h in halves]
            for k in range(3):
                # rows run step-major: put each step's two halves side by side
                want = np.concatenate([p[k].reshape(steps, 8, -1) for p in parts], axis=1)
                assert np.array_equal(got[k], want.reshape(steps * 16, -1))
            assert got[3] == pytest.approx((parts[0][3] + parts[1][3]) / 2.0, rel=1e-12)
        assert env_state(whole) == env_state(tr.EnvBatch.join(halves))


def _ring_row_by_row(capacity, pushes):
    """The replay ring pushed one row at a time: (buffers, write, size)."""
    bufs = [np.zeros((capacity, rows.shape[1])) for rows in pushes[0]]
    write = size = 0
    for rows in pushes:
        for i in range(rows[0].shape[0]):
            for buf, col in zip(bufs, rows):
                buf[write] = col[i]
            write = (write + 1) % capacity
            size = min(size + 1, capacity)
    return bufs, write, size


class TestRing:
    @pytest.mark.parametrize("sizes", [
        [4, 4, 4],  # the third push wraps
        [3, 25],  # more than the capacity, from write != 0
        [10, 10, 7, 13, 0, 1, 9],
    ])
    def test_push_matches_row_by_row(self, sizes):
        rng = np.random.default_rng(0)
        pushes = [(rng.standard_normal((n, 2)), rng.standard_normal((n, 1))) for n in sizes]
        ring = di._Ring(10, (2, 1))
        for k, rows in enumerate(pushes, 1):
            ring.push(*rows)
            bufs, write, size = _ring_row_by_row(10, pushes[:k])
            assert (ring.write, ring.size) == (write, size)
            for got, want in zip(ring.buffers, bufs):
                assert np.array_equal(got, want)


class TestTrainSlmp:
    def _expert(self, tmp_path, clips):
        cfg = tr.PpoConfig(envs=2, horizon=8, updates=1, epochs_per_update=1)
        ts = tr.train_tracking(clips, cfg, tmp_path / "track", seed=1, spec=SPEC, phys=CFG, log=False)
        return tmp_path / "track" / "pi_track.ckpt"

    def test_smoke_writes_checkpoints(self, tmp_path):
        clips = [one_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG)]
        expert = self._expert(tmp_path, clips)
        cfg = di.SlmpConfig(updates=5, batch=32, fresh_per_update=8, envs=2, window=2)
        di.train_slmp(clips, expert, cfg, tmp_path / "slmp", seed=2, spec=SPEC, phys=CFG,
                      log=False, skip_expert_check=True)
        for name in ("encoder.ckpt", "pi_phi.ckpt", "disc.ckpt"):
            assert (tmp_path / "slmp" / name).exists()
        phi_spec, _, latent = di.load_prior(tmp_path / "slmp", SPEC)
        assert phi_spec.input_dim == tr.PROPRIO.width(SPEC) + latent
        assert latent == cfg.latent_dim
        assert di.load_encoder(tmp_path / "slmp", SPEC, latent)[0].output_dim == latent

    def test_console_prints_the_first_every_200th_and_last_update(self, tmp_path, capsys):
        clips = [one_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG)]
        expert = self._expert(tmp_path, clips)
        cfg = di.SlmpConfig(updates=202, batch=8, fresh_per_update=2, envs=2, capacity=64,
                            latent_dim=4, encoder_hidden=(8,), pi_phi_hidden=(8,), disc_hidden=(8,))
        capsys.readouterr()
        di.train_slmp(clips, expert, cfg, tmp_path / "slmp", seed=2, spec=SPEC, phys=CFG,
                      log=True, skip_expert_check=True)
        header, *rows = (tmp_path / "slmp" / "metrics.csv").read_text().splitlines()
        assert header == "update,l_distill,l_dlsc,l_disc,l_slmp,w_d,w_c,use_wc,mse_fresh"
        assert len(rows) == 202
        want = []
        for u in (0, 200, 201):
            r = dict(zip(header.split(","), map(float, rows[u].split(","))))
            # the plateau window of 200 updates cannot latch within 202
            assert r["use_wc"] == 0.0
            want.append(f"[distill:slmp] update {u} l_distill {r['l_distill']:.4f} "
                        f"l_dlsc {r['l_dlsc']:.4f} mse_fresh {r['mse_fresh']:.4f} use_wc False")
        assert capsys.readouterr().out.splitlines() == want

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_skipped_update_leaves_the_phase(self, tmp_path, monkeypatch, bad):
        """A skipped update's non-finite loss neither latches the semantic
        weight nor holds it back: the run latches at the update where the
        run without the skipped update does, one update later."""
        clips = [one_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG)]
        expert = self._expert(tmp_path, clips)
        plateau = [10.0, 9.0, 8.0, 7.0, 6.0] + [6.0] * 7

        def run(losses, name):
            it = iter(losses)

            def update(batch, n, cfg, phase):
                loss = next(it)
                return {"l_distill": loss, "l_dlsc": 0.0, "l_disc": 0.0, "l_slmp": loss, "w_d": 1.0,
                        "w_c": 1.0, "use_wc": float(phase.use_wc),
                        "skipped": float(not math.isfinite(loss))}

            monkeypatch.setattr(di, "slmp_update", update)
            cfg = di.SlmpConfig(updates=len(losses), batch=8, fresh_per_update=2, envs=2, window=3,
                                latent_dim=4, encoder_hidden=(8,), pi_phi_hidden=(8,),
                                disc_hidden=(8,))
            di.train_slmp(clips, expert, cfg, tmp_path / name, seed=2, spec=SPEC, phys=CFG,
                          log=False, skip_expert_check=True)
            rows = (tmp_path / name / "metrics.csv").read_text().splitlines()[1:]
            return [row.split(",")[7] for row in rows]

        clean = run(plateau, "clean")
        assert clean == ["0.0"] * 10 + ["1.0"] * 2
        skipped = run(plateau[:5] + [bad] + plateau[5:], "skipped")
        assert skipped[:5] + skipped[6:] == clean

    def test_unfit_expert_aborts_with_diagnostic(self, tmp_path):
        clips = [one_clip("kick", 30, 3.0, spec=SPEC, cfg=CFG)]
        expert = self._expert(tmp_path, clips)  # barely trained: will fail
        cfg = di.SlmpConfig(updates=1, batch=8, fresh_per_update=4, envs=1)
        with pytest.raises(RuntimeError, match="failure rate"):
            di.train_slmp(clips, expert, cfg, tmp_path / "slmp", seed=3, spec=SPEC, phys=CFG,
                          log=False)

    @pytest.mark.parametrize("skip", [True, False], ids=["skip-check", "check"])
    @pytest.mark.parametrize("key, wider", [("input", 3), ("output", 1)])
    def test_expert_of_other_widths_is_refused_by_file_and_key(self, tmp_path, key, wider, skip):
        """An expert whose input is not the tracking layout's width, or
        whose output is not one per joint, is refused by file and header
        key before the first rollout, with or without the expert check."""
        clips = [one_clip("idle", 0, 3.0, spec=SPEC, cfg=CFG)]
        widths = {"input": tr.TRACK_OBS.width(SPEC), "output": SPEC.n_joints}
        widths[key] += wider
        policy = tr.GaussianPolicy(nets.MlpSpec(widths["input"], (8,), widths["output"]))
        path = tmp_path / "pi_track.ckpt"
        tr.save_policy(path, "pi_track", policy, policy.init(np.random.default_rng(0), 0.3))
        cfg = di.SlmpConfig(updates=1, batch=8, fresh_per_update=4, envs=1)
        with pytest.raises(ValueError, match=re.escape(f"{path}: header line {key}={widths[key]}: ")):
            di.train_slmp(clips, path, cfg, tmp_path / "slmp", seed=3, spec=SPEC, phys=CFG,
                          log=False, skip_expert_check=skip)
        assert not (tmp_path / "slmp" / "metrics.csv").exists()
