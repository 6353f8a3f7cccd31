import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

import reference
from reference import CombatEvent, combat_reward, proprio, rot, spawn_pair, watch_kinematics
from reference import hit_events as hit_event_lists
from reference import wrap_angle
from slmp import combat as cb
from slmp import distill as di
from slmp import nets
from slmp import physics as ph
from slmp import tracking as tr

SPEC = ph.default_character()
CFG = ph.default_config(SPEC)
CC = cb.CombatConfig()
OBS = cb.COMBAT_OBS.of(SPEC.n_joints)
PROPRIO = tr.PROPRIO.of(SPEC.n_joints)


def obs_sign_mask():
    """Which observation components negate under a world mirror."""
    neg = []
    neg += [+1, -1, +1]  # root height, sin, cos
    neg += [-1] * 8  # joint angles
    neg += [-1, +1]  # local root velocity
    neg += [-1]  # root angular velocity
    neg += [-1] * 8  # joint velocities
    neg += [-1, +1]  # opponent relative position
    neg += [-1, +1]  # sin/cos of relative angle
    neg += [-1, +1]  # opponent relative velocity
    neg += [-1]  # opponent relative angular velocity
    neg += [-1, +1] * 8  # limb-to-region vectors
    neg += [+1] * 6  # contact force magnitudes
    return np.array(neg, dtype=float)


def obs_rows(states):
    """Observation rows of a 2-row world, with no contact forces."""
    w = ph.World.of(states, SPEC)
    no_force = np.zeros((2, len(SPEC.sites)))
    return cb.combat_observation(w, ph.Kinematics.of(w, SPEC), no_force, SPEC)


def dist_rows(states):
    return cb.limb_region_dist(ph.Kinematics.of(ph.World.of(states, SPEC), SPEC), SPEC)


class TestObservation:
    def _pair(self):
        rng = np.random.default_rng(0)
        a = ph.nominal_stance(SPEC, CFG)
        a.root_pos = a.root_pos + np.array([-0.4, 0.02])
        a.root_angle = 0.13
        a.joint_angles = a.joint_angles + rng.uniform(-0.2, 0.2, 8)
        a.root_vel = np.array([0.3, -0.1])
        a.root_ang_vel = 0.5
        a.joint_vels = rng.uniform(-1, 1, 8)
        b = ph.mirror_state(a, 0.0)
        return a, b

    def test_mirror_symmetry(self):
        a, b = self._pair()
        obs_a = obs_rows([a, b])[0]
        obs_b = obs_rows([b, a])[0]
        assert obs_a.shape == (OBS.width,)
        assert np.allclose(obs_b, obs_sign_mask() * obs_a, atol=1e-10)

    def test_fills_the_combat_layout(self, monkeypatch):
        """``combat_observation``, writing into a NaN-filled buffer, fills
        every column of ``COMBAT_OBS``, and each block holds the columns it
        held before the layout was declared, against the per-state
        reference."""
        p = 6 + 2 * SPEC.n_joints
        parent = {"proprio": slice(0, p), "offset": slice(p, p + 2), "facing": slice(p + 2, p + 4),
                  "velocity": slice(p + 4, p + 6), "rate": slice(p + 6, p + 7),
                  "limbs": slice(p + 7, p + 23), "forces": slice(p + 23, p + 29)}
        a, b = self._pair()
        b.root_pos = b.root_pos + np.array([0.9, 0.1])
        w = ph.World.of([a, b], SPEC)
        k = ph.Kinematics.of(w, SPEC)
        force = np.random.default_rng(4).uniform(0.0, 50.0, (2, len(SPEC.sites)))
        reference.nan_empty(monkeypatch)
        got = cb.combat_observation(w, k, force, SPEC)
        monkeypatch.undo()
        views = [(a, b), (ph.mirror_state(b, 0.0), ph.mirror_state(a, 0.0))]
        want = np.stack([_observation_ref(me, opp, f) for (me, opp), f in zip(views, force)])
        assert OBS.width == got.shape[1] and not np.isnan(got).any()
        assert list(vars(OBS)) == [*parent, "width"]
        for name, cols in parent.items():
            assert getattr(OBS, name) == cols, name
            err = np.abs(got[:, cols] - want[:, cols])
            assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(want[:, cols]))), name

    def test_opponent_directly_ahead(self):
        a = ph.nominal_stance(SPEC, CFG)
        b = ph.nominal_stance(SPEC, CFG)
        b.root_pos = b.root_pos + np.array([1.0, 0.0])
        obs = obs_rows([a, b])[0]
        rel = obs[22:24]
        assert rel[0] == pytest.approx(1.0, abs=1e-9)
        assert rel[1] == pytest.approx(0.0, abs=1e-9)

    def test_zero_contact_features(self):
        a, b = self._pair()
        obs = obs_rows([a, b])[0]
        assert np.all(obs[-6:] == 0.0)


class TestHitEvents:
    def _states_with_hand_near(self, dist_to_head):
        a = ph.nominal_stance(SPEC, CFG)
        b = ph.mirror_state(ph.nominal_stance(SPEC, CFG), 0.0)
        head = ph.KinFrame(b, SPEC).point_on_link(0, SPEC.head_center_dist)
        hand = ph.KinFrame(a, SPEC).site_pos[SPEC.site_index["hand_l"]]
        # translate the attacker so its lead hand sits at the gated distance
        shift = head - hand - np.array([dist_to_head, 0.0])
        a.root_pos = a.root_pos + shift
        return [a, b]

    def _site_opponent(self, force):
        site_opponent = np.zeros((2, len(SPEC.sites)))
        site_opponent[0, SPEC.site_index["hand_l"]] = force
        return site_opponent

    def test_hit_and_gothit_emitted(self):
        dist = dist_rows(self._states_with_hand_near(0.1))
        hit, force = cb.hit_events(dist, self._site_opponent(60.0), SPEC, CC)
        assert hit.tolist() == [[True, False, False, False], [False] * 4]
        assert force[0, 0] == 60.0
        assert cb.REGIONS[dist[0, 0].argmin()] == "head"
        # the striker gains the hit, the struck row loses it
        rewards = cb.combat_rewards(hit, force, np.zeros(2, dtype=bool), CC)
        assert rewards.tolist() == [CC.k_hit * 60.0, -CC.k_hit * 60.0]

    def test_distance_gate(self):
        states = self._states_with_hand_near(0.5)
        hit, _ = cb.hit_events(dist_rows(states), self._site_opponent(60.0), SPEC, CC)
        assert not hit.any()

    def test_force_gate(self):
        states = self._states_with_hand_near(0.1)
        hit, _ = cb.hit_events(dist_rows(states), self._site_opponent(20.0), SPEC, CC)
        assert not hit.any()


def _regions(state):
    frame = ph.KinFrame(state, SPEC)
    return {r: frame.point_on_link(0, getattr(SPEC, f"{r}_center_dist")) for r in cb.REGIONS}


def _observation_ref(me, opp, site_force):
    """Per-state observation of ``me`` against ``opp``, both already in
    me's canonical frame."""
    to_me = rot(-me.root_angle)
    parts = [proprio(me), to_me @ (opp.root_pos - me.root_pos)]
    d_angle = wrap_angle(opp.root_angle - me.root_angle)
    parts.append(np.array([math.sin(d_angle), math.cos(d_angle)]))
    parts.append(to_me @ (opp.root_vel - me.root_vel))
    parts.append(np.array([opp.root_ang_vel - me.root_ang_vel]))
    limbs = ph.KinFrame(me, SPEC).site_pos
    regions = _regions(opp)
    for name in cb.LIMB_SITES:
        for r in cb.REGIONS:
            parts.append(to_me @ (regions[r] - limbs[SPEC.site_index[name]]))
    parts.append(site_force[[SPEC.site_index[n] for n in cb.FORCE_SITES]])
    return np.concatenate(parts)


def _hits_and_min_dist_ref(states, site_opponent):
    """Per-state hit events and smallest limb-to-region distance."""
    events, best = ([], []), math.inf
    for a in range(2):
        limbs = ph.KinFrame(states[a], SPEC).site_pos
        regions = _regions(states[1 - a])
        for name in cb.LIMB_SITES:
            s = SPEC.site_index[name]
            dists = {r: float(np.linalg.norm(limbs[s] - p)) for r, p in regions.items()}
            best = min(best, *dists.values())
            force = float(site_opponent[a, s])
            region = min(dists, key=dists.get)
            if force > CC.f_hit and dists[region] < CC.hit_dist:
                events[a].append(CombatEvent("Hit", force, s, region))
                events[1 - a].append(CombatEvent("GotHit", force, s, region))
    return events, best


def test_row_functions_match_per_state_reference():
    """Observations, hits, rewards, fall flags and the farming distance of
    the 2-row world against per-state code, slot 1 through mirror_state,
    over random close-range pairs after one coupled step with random
    targets."""
    rng = np.random.default_rng(17)
    limbs = [SPEC.site_index[n] for n in cb.LIMB_SITES]
    hits = falls = touching = 0
    for trial in range(240):
        a = ph.nominal_stance(SPEC, CFG)
        b = ph.mirror_state(ph.nominal_stance(SPEC, CFG), 0.0)
        gap = rng.uniform(0.2, 0.9)
        for s, dx in ((a, -gap / 2), (b, gap / 2)):
            drop = rng.uniform(0.3, 0.8) if rng.uniform() < 0.25 else rng.uniform(-0.1, 0.2)
            s.root_pos = s.root_pos + np.array([dx, -drop])
            s.anchor_x = s.anchor_x + dx
            s.root_angle = rng.uniform(-1.2, 1.2)
            s.joint_angles = s.joint_angles + rng.uniform(-1.5, 1.5, 8)
            s.root_vel = rng.uniform(-1.0, 1.0, 2)
            s.root_ang_vel = rng.uniform(-2.0, 2.0)
            s.joint_vels = rng.uniform(-6.0, 6.0, 8)
        w, rep = ph.step_batch(ph.World.of([a, b], SPEC), SPEC, CFG.dt, CFG,
                               pd_targets=rng.uniform(-2.0, 2.0, (2, 8)), coupled=True)
        # large random forces so the force gate passes often
        site_opponent = np.where(rep.site_opponent > 0, rep.site_opponent,
                                 rng.choice([0.0, 100.0], rep.site_opponent.shape))
        touching += bool((rep.site_opponent > 0).any())
        k = ph.Kinematics.of(w, SPEC)
        states = [w.state(0), w.state(1)]

        obs = cb.combat_observation(w, k, rep.site_force, SPEC)
        views = [states, [ph.mirror_state(s, 0.0) for s in states[::-1]]]
        for slot, (me, opp) in enumerate(views):
            want = _observation_ref(me, opp, rep.site_force[slot])
            assert np.all(np.abs(obs[slot] - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

        dist = cb.limb_region_dist(k, SPEC)
        hit, force = cb.hit_events(dist, site_opponent, SPEC, CC)
        ev_ref, best = _hits_and_min_dist_ref(states, site_opponent)
        assert hit_event_lists(dist, site_opponent, SPEC, CC) == ev_ref, trial
        for a in range(2):
            landed = [(e.limb, e.force) for e in ev_ref[a] if e.kind == "Hit"]
            assert [(limbs[l], float(force[a, l])) for l in np.flatnonzero(hit[a])] == landed
        assert abs(float(dist.min()) - best) <= 1e-12
        hits += len(ev_ref[0]) + len(ev_ref[1])

        fell = ph.fallen(w.valid, k, SPEC, CFG)
        assert list(fell) == [ph.detect_fall(s, SPEC, CFG) for s in states]
        falls += int(fell.sum())
        assert cb.combat_rewards(hit, force, fell, CC).tolist() == [
            combat_reward(ev_ref[a], fell[a], fell[1 - a], CC) for a in range(2)]
    assert touching >= 20 and hits >= 20 and falls >= 20, (touching, hits, falls)


def rewards_of(force0, force1, fell=(False, False)):
    """``combat_rewards`` of one pair whose rows land hits with the given
    limb forces (0 for no hit)."""
    force = np.array([force0, force1], dtype=float)
    return cb.combat_rewards(force > 0, force, np.array(fell), CC)


class TestCombatReward:
    def test_single_hit(self):
        assert rewards_of([60.0, 0, 0, 0], [0] * 4) == pytest.approx([0.6, -0.6])

    def test_force_capped(self):
        r = rewards_of([500.0, 0, 0, 0], [0] * 4)
        assert r == pytest.approx([CC.k_hit * CC.f_cap, -CC.k_hit * CC.f_cap])

    def test_knockdown_bonus(self):
        assert rewards_of([0] * 4, [0] * 4, (False, True)) == pytest.approx([50.0, -50.0])

    def test_hit_plus_own_fall(self):
        r = rewards_of([0, 60.0, 0, 0], [0] * 4, (True, False))
        assert r == pytest.approx([0.6 - 50.0, -0.6 + 50.0])

    def test_zero_sum_hit_accounting(self):
        """Both rows add the same terms in the same order with opposite
        signs, so their rewards negate exactly."""
        rng = np.random.default_rng(1)
        for _ in range(50):
            force = rng.uniform(31, 400, (2, 4)) * (rng.uniform(size=(2, 4)) < 0.5)
            r = rewards_of(*force)
            assert r[1] == -r[0]


def test_rewards_equal_the_event_form_bit_for_bit():
    """``combat_rewards`` of the ``hit_events`` rows of 5 pairs equals, bit
    for bit, the event-by-event sum of the reference event lists, over
    forces that cancel, clamp, sit on the gates and go NaN."""
    rng = np.random.default_rng(23)
    values = np.array([0.0, 20.0, CC.f_hit, 31.0, 60.0, 0.1 + 0.2, CC.f_cap, 250.0, np.nan])
    limbs = [SPEC.site_index[n] for n in cb.LIMB_SITES]
    scored = 0
    for trial in range(400):
        dist = rng.choice([0.1, CC.hit_dist, 0.5, np.nan], (10, 4, 2), p=[0.6, 0.1, 0.2, 0.1])
        site_opponent = np.zeros((10, len(SPEC.sites)))
        site_opponent[:, limbs] = rng.choice(values, (10, 4))
        fell = rng.uniform(size=10) < 0.2
        rows = cb.combat_rewards(*cb.hit_events(dist, site_opponent, SPEC, CC), fell, CC)
        events = hit_event_lists(dist, site_opponent, SPEC, CC)
        want = np.array([combat_reward(events[a], fell[a], fell[a ^ 1], CC) for a in range(10)])
        assert rows.tobytes() == want.tobytes(), trial
        scored += sum(len(e) for e in events)
    assert scored > 1000


def no_timers():
    """The timers of one env that has held no condition yet."""
    return cb.TerminationTimers(np.zeros(1), np.zeros(1))


def check_one(root_dist, limb_dist, knockdown, t, timers, dt, epoch, cfg):
    """``check_termination`` for a single env: (reason, timers)."""
    reasons, timers = cb.check_termination(
        np.array([root_dist]), np.array([limb_dist]), np.array([knockdown]), np.array([t]),
        timers, dt, epoch, cfg,
    )
    return reasons[0], timers


class TestTermination:
    def test_sustained_clinch(self):
        timers = no_timers()
        reason = None
        dt = 1 / 60
        for k in range(int(1.2 * 60)):
            reason, timers = check_one(0.25, 1.0, False, k * dt, timers, dt, 1000, CC)
            if reason:
                break
        assert reason == "clinch"

    def test_timer_resets_when_condition_breaks(self):
        timers = no_timers()
        dt = 1 / 60
        for k in range(30):  # 0.5 s close...
            reason, timers = check_one(0.25, 1.0, False, k * dt, timers, dt, 1000, CC)
            assert reason is None
        reason, timers = check_one(0.4, 1.0, False, 0.51, timers, dt, 1000, CC)
        assert reason is None
        assert timers.close.tolist() == [0.0]

    def test_early_separation_rule(self):
        timers = no_timers()
        reason, _ = check_one(1.5, 1.0, False, 0.1, timers, 1 / 60, 10, CC)
        assert reason == "separated"
        reason, _ = check_one(1.5, 1.0, False, 0.1, timers, 1 / 60, CC.early_epochs, CC)
        assert reason is None

    def test_knockdown_terminates(self):
        reason, _ = check_one(1.0, 1.0, True, 0.1, no_timers(), 1 / 60, 0, CC)
        assert reason == "knockdown"

    def test_farming_timer(self):
        timers = no_timers()
        dt = 1 / 60
        reason = None
        for k in range(int(1.2 * 60)):
            reason, timers = check_one(0.8, 0.2, False, k * dt, timers, dt, 1000, CC)
            if reason:
                break
        assert reason == "farming"

    def test_timeout(self):
        reason, _ = check_one(
            0.8, 1.0, False, CC.episode_s, no_timers(), 1 / 60, 1000, CC
        )
        assert reason == "timeout"


class TestHighLevel:
    def _policy(self):
        policy = tr.GaussianPolicy(nets.MlpSpec(10, (8,), 4, activation="silu"))
        params = policy.init(np.random.default_rng(0), 0.3)
        return policy, params

    def test_unit_norm_latents(self):
        policy, params = self._policy()
        rng = np.random.default_rng(1)
        for _ in range(20):
            z, raw, logp = cb.high_level_step(policy, policy.row_net(params), rng.standard_normal((1, 10)), [rng])
            assert np.linalg.norm(z[0]) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_sample_is_redrawn(self):
        """A latent sample of norm ~0 is drawn again from the same
        generator, and the redraw's log-prob is reported."""

        class ZerosThenOnes:
            def __init__(self):
                self.fills = [0.0, 1.0]

            def standard_normal(self, out):
                out[:] = self.fills.pop(0)
                return out

        policy, params = self._policy()
        params[: policy.spec.param_count()] = 0.0  # a zero mean latent
        log_std = policy.split(params)[1]
        rngs = [ZerosThenOnes(), ZerosThenOnes()]
        z, raw, logp = cb.high_level_step(policy, policy.row_net(params), np.ones((2, 10)), rngs)
        assert all(r.fills == [] for r in rngs)
        assert np.array_equal(raw, np.exp(np.tile(log_std, (2, 1))))
        assert np.array_equal(logp, policy.log_prob_batch(np.zeros((2, 4)), log_std, raw))
        assert z == pytest.approx(np.full((2, 4), 0.5))

    def test_deterministic_mode_reproducible(self):
        policy, params = self._policy()
        obs = np.random.default_rng(2).standard_normal((1, 10))
        z1, _, _ = cb.high_level_step(policy, policy.row_net(params), obs)
        z2, _, _ = cb.high_level_step(policy, policy.row_net(params), obs)
        assert np.array_equal(z1, z2)


class TestSelfPlaySchedule:
    def test_swap_at_period_boundaries(self):
        assert cb.learner_index(0, 250) == 0
        assert cb.learner_index(249, 250) == 0
        assert cb.learner_index(250, 250) == 1
        assert cb.learner_index(499, 250) == 1
        assert cb.learner_index(500, 250) == 0

    def test_exactly_one_trainable_alternating(self):
        history = [cb.learner_index(e, 250) for e in range(1000)]
        assert set(history) == {0, 1}
        # alternates with period 250
        for e in range(1000):
            assert history[e] == (e // 250) % 2


@pytest.fixture(scope="module")
def tiny_prior(tmp_path_factory):
    """Weak but loadable latent prior for environment-level tests."""
    out = tmp_path_factory.mktemp("prior")
    phi_spec = nets.MlpSpec(PROPRIO.width + 4, (16,), SPEC.n_joints, activation="silu")
    rng = np.random.default_rng(0)
    phi_params = nets.init_params(phi_spec, rng) * 0.01
    enc_spec = nets.MlpSpec(10, (8,), 4, activation="relu")
    nets.save_checkpoint(out / "pi_phi.ckpt", "pi_phi", phi_spec, phi_params)
    nets.save_checkpoint(out / "encoder.ckpt", "encoder", enc_spec, nets.init_params(enc_spec, rng))
    nets.save_checkpoint(out / "disc.ckpt", "disc", enc_spec, nets.init_params(enc_spec, rng))
    return out, phi_spec, phi_params


class TestCombatEnv:
    def test_deterministic_given_seeds(self, tiny_prior):
        _, phi_spec, phi_params = tiny_prior
        runs = []
        for _ in range(2):
            env = cb.CombatEnv(phi_spec, phi_params, SPEC, CFG, CC, [np.random.default_rng(5)])
            rng = np.random.default_rng(9)
            rows = []
            for _ in range(10):
                _, rewards, done, _ = env.decision_step(di.sample_sphere(4, rng, 2))
                (r0, r1), done = rewards[0], done[0]
                rows.append((r0, r1, done, env.world.root_pos[0, 0], env.world.root_pos[1, 0]))
            runs.append(rows)
        assert runs[0] == runs[1]

    def test_zero_sum_hits_in_env(self, tiny_prior):
        """Hit/GotHit reward components cancel across agents every step."""
        _, phi_spec, phi_params = tiny_prior
        cfg = cb.CombatConfig(spawn_gap=0.45, spawn_noise=0.0)
        env = cb.CombatEnv(phi_spec, phi_params, SPEC, CFG, cfg, [np.random.default_rng(5)])
        rng = np.random.default_rng(3)
        for _ in range(40):
            # bypass knockdown bonuses by checking only no-fall steps
            _, rewards, done, info = env.decision_step(di.sample_sphere(4, rng, 2))
            (r0, r1), done = rewards[0], done[0]
            fell = any(
                ph.detect_fall(s, SPEC, CFG) or not s.valid
                for s in (env.world.state(0), env.world.state(1))
            )
            if not done and not fell:
                assert r0 + r1 == pytest.approx(0.0, abs=1e-9)

    def test_self_play_smoke(self, tiny_prior, tmp_path):
        out_dir, _, _ = tiny_prior
        cfg = cb.CombatConfig(envs=2, horizon=6, epochs=2, swap_period=1)
        cb.self_play_train(out_dir, cfg, tmp_path / "combat", seed=0, spec=SPEC, phys=CFG, log=False)
        assert (tmp_path / "combat" / "pi_h_1.ckpt").exists()
        assert (tmp_path / "combat" / "pi_h_2.ckpt").exists()
        rows = (tmp_path / "combat" / "metrics.csv").read_text().splitlines()
        assert len(rows) == 3
        # learner column alternates with the swap period
        assert rows[1].split(",")[1] == "0.0"
        assert rows[2].split(",")[1] == "1.0"

    def test_console_prints_the_first_every_25th_and_last_epoch(self, tiny_prior, tmp_path, capsys):
        out_dir, _, _ = tiny_prior
        cfg = cb.CombatConfig(envs=1, horizon=2, epochs=27, swap_period=1, epochs_per_update=1,
                              pi_h_hidden=(8,), critic_hidden=(8,))
        cb.self_play_train(out_dir, cfg, tmp_path / "combat", seed=0, spec=SPEC, phys=CFG, log=True)
        header, *rows = (tmp_path / "combat" / "metrics.csv").read_text().splitlines()
        assert header == ("epoch,learner,reward,hits_per_episode,knockdowns_per_episode,"
                          "episode_steps,policy_loss,value_loss,clip_fraction")
        assert len(rows) == 27
        want = []
        for e in (0, 25, 26):
            r = dict(zip(header.split(","), map(float, rows[e].split(","))))
            want.append(f"[combat] epoch {e} learner {e % 2} reward {r['reward']:.3f} "
                        f"hits/ep {r['hits_per_episode']:.2f}")
        assert capsys.readouterr().out.splitlines() == want

    def test_frozen_opponent_unchanged_during_phase(self, tiny_prior, tmp_path):
        out_dir, _, _ = tiny_prior
        cfg = cb.CombatConfig(envs=1, horizon=4, epochs=3, swap_period=100)
        params, values = cb.self_play_train(
            out_dir, cfg, tmp_path / "c2", seed=1, spec=SPEC, phys=CFG, log=False
        )
        # instance 1 never trained within the first 3 epochs: identical to init
        policy = tr.GaussianPolicy(
            nets.MlpSpec(OBS.width, tuple(cfg.pi_h_hidden), 4, activation="silu")
        )
        from slmp.seeding import seed_for

        base = policy.init(np.random.default_rng(seed_for(1, "pi-h-init")), cfg.std_init)
        assert np.array_equal(params[1], base)
        assert not np.array_equal(params[0], base)

    def test_instances_stay_separate_across_a_swap(self, tiny_prior, tmp_path):
        """With a swap after every epoch, epoch 1 trains instance 2 and
        leaves instance 1 as epoch 0 left it."""
        out_dir, _, _ = tiny_prior
        cfg = cb.CombatConfig(envs=1, horizon=4, epochs=2, swap_period=1)
        run = dict(seed=1, spec=SPEC, phys=CFG, log=False)
        params, values = cb.self_play_train(out_dir, cfg, tmp_path / "two", **run)
        one_params, one_values = cb.self_play_train(
            out_dir, replace(cfg, epochs=1), tmp_path / "one", **run)
        assert params[0].tobytes() == one_params[0].tobytes()
        assert values[0].tobytes() == one_values[0].tobytes()
        base = tr.build_networks(OBS.width, 4, cfg.ppo(), 1, ("pi-h-init", "vh-init"))
        assert one_params[1].tobytes() == base.policy_params.tobytes()
        assert not np.array_equal(params[1], base.policy_params)
        assert not np.array_equal(values[1], base.value_params)

    def test_self_play_collects_as_the_step_loop(self, tiny_prior, tmp_path):
        """Three epochs through ``tracking.collect`` write the metrics and
        reach the parameters of the reference's own step loop, byte for
        byte, over swaps, hits and knockdowns."""
        _, phi_spec, phi_params = tiny_prior
        # strong enough to land hits and knock fighters down
        nets.save_checkpoint(tmp_path / "pi_phi.ckpt", "pi_phi", phi_spec, 30.0 * phi_params)
        cfg = cb.CombatConfig(envs=2, horizon=8, epochs=3, swap_period=1, spawn_gap=0.45, f_hit=5.0,
                              pi_h_hidden=(8,), critic_hidden=(8,))
        params, values = cb.self_play_train(tmp_path, cfg, tmp_path / "run", seed=0, spec=SPEC,
                                            phys=CFG, log=False)
        want = reference.self_play_train(tmp_path, cfg, tmp_path / "oracle", 0, SPEC, CFG)
        got = (tmp_path / "run" / "metrics.csv").read_bytes()
        assert got == (tmp_path / "oracle" / "metrics.csv").read_bytes()
        for a, b in zip([*params, *values], [*want[0], *want[1]]):
            assert a.tobytes() == b.tobytes()
        header, *rows = got.decode().splitlines()
        cols = dict(zip(header.split(","), zip(*(map(float, r.split(",")) for r in rows))))
        assert cols["learner"] == (0.0, 1.0, 0.0)
        assert sum(cols["hits_per_episode"]) > 0 and sum(cols["knockdowns_per_episode"]) > 0
        base = tr.build_networks(OBS.width, 4, cfg.ppo(), 0, ("pi-h-init", "vh-init"))
        assert not any(np.array_equal(p, base.policy_params) for p in params)


def _no_termination(root_dist, limb_dist, knockdown, t, timers, dt, epoch, cfg):
    return np.full(len(t), None, dtype=object), timers


def test_decision_step_builds_no_kinematics_of_the_stepped_world(tiny_prior, monkeypatch):
    """Fall and hit tests read the kinematics ``step_batch`` hands on; with
    no env ending, and so no respawn, nothing rebuilds them."""
    _, phi_spec, phi_params = tiny_prior
    monkeypatch.setattr(cb, "check_termination", _no_termination)
    env = cb.CombatEnv(phi_spec, phi_params, SPEC, CFG, CC,
                       [np.random.default_rng(s) for s in (1, 2)])
    rebuilt = watch_kinematics(monkeypatch)
    rng = np.random.default_rng(4)
    for _ in range(3):
        _, _, done, _ = env.decision_step(di.sample_sphere(4, rng, 4))
        assert not done.any()
    assert rebuilt() == []


def test_rollout_runs_every_whole_decision(tiny_prior, tmp_path, monkeypatch):
    """4.1 s at 30 decisions per second is 123 decisions, although
    4.1 / (1/30) evaluates to 122.99999999999999."""
    out, phi_spec, phi_params = tiny_prior
    ckpt = tmp_path / "combat"
    ckpt.mkdir()
    (ckpt / "pi_phi.ckpt").write_bytes((out / "pi_phi.ckpt").read_bytes())
    policy = tr.GaussianPolicy(nets.MlpSpec(OBS.width, (8,), 4))
    rng = np.random.default_rng(0)
    for i in (1, 2):
        tr.save_policy(ckpt / f"pi_h_{i}.ckpt", f"pi_h_{i}", policy, policy.init(rng, 0.3))
    monkeypatch.setattr(cb, "check_termination", _no_termination)
    assert CFG.dt * CC.k_hl == 1 / 30
    assert [len(w) for w in cb.rollout_combat(ckpt, 4.1, 0, CC, SPEC, CFG)] == [123, 123]


@pytest.mark.parametrize("key, phi_in, phi_out", [
    ("input", PROPRIO.width, SPEC.n_joints), ("input", PROPRIO.width + 1, SPEC.n_joints),
    ("input", PROPRIO.width - 3, SPEC.n_joints), ("output", PROPRIO.width + 4, SPEC.n_joints - 1),
])
def test_prior_of_other_widths_is_refused_by_file_and_key(tmp_path, key, phi_in, phi_out):
    """Self-play and the combat rollout refuse a prior that leaves fewer
    than 2 latent columns past the proprio block, or that is not one
    output per joint, by file and header key before the first decision."""
    rng = np.random.default_rng(0)
    phi_spec = nets.MlpSpec(phi_in, (8,), phi_out)
    prior = tmp_path / "pi_phi.ckpt"
    nets.save_checkpoint(prior, "pi_phi", phi_spec, nets.init_params(phi_spec, rng))
    policy = tr.GaussianPolicy(nets.MlpSpec(OBS.width, (8,), 4))
    for i in (1, 2):
        tr.save_policy(tmp_path / f"pi_h_{i}.ckpt", f"pi_h_{i}", policy, policy.init(rng, 0.3))
    value = {"input": phi_in, "output": phi_out}[key]
    refused = re.escape(f"{prior}: header line {key}={value}: ")
    cfg = replace(CC, epochs=1, envs=1, horizon=2)
    with pytest.raises(ValueError, match=refused):
        cb.self_play_train(tmp_path, cfg, tmp_path / "out", 0, SPEC, CFG, log=False)
    assert not (tmp_path / "out" / "metrics.csv").exists()
    with pytest.raises(ValueError, match=refused):
        cb.rollout_combat(tmp_path, 1.0, 0, CC, SPEC, CFG)


@pytest.mark.parametrize("fighter, key, pi_in, pi_out", [
    (1, "input", OBS.width + 3, 4), (2, "input", OBS.width - 1, 4), (1, "output", OBS.width, 3),
])
def test_rollout_refuses_fighters_of_other_widths(tiny_prior, tmp_path, fighter, key, pi_in, pi_out):
    """The combat rollout refuses a fighter that does not read
    ``COMBAT_OBS`` rows or does not give the prior's latent width, by file
    and header key before the first decision."""
    out, _, _ = tiny_prior
    (tmp_path / "pi_phi.ckpt").write_bytes((out / "pi_phi.ckpt").read_bytes())
    rng = np.random.default_rng(0)
    for i in (1, 2):
        spec = nets.MlpSpec(pi_in, (8,), pi_out) if i == fighter else nets.MlpSpec(OBS.width, (8,), 4)
        policy = tr.GaussianPolicy(spec)
        tr.save_policy(tmp_path / f"pi_h_{i}.ckpt", f"pi_h_{i}", policy, policy.init(rng, 0.3))
    value = {"input": pi_in, "output": pi_out}[key]
    refused = re.escape(f"{tmp_path / f'pi_h_{fighter}.ckpt'}: header line {key}={value}: ")
    with pytest.raises(ValueError, match=refused):
        cb.rollout_combat(tmp_path, 1.0, 0, CC, SPEC, CFG)


def _drive_envs(phi_spec, phi_params, cfg, seeds, decisions):
    """Drive one CombatEnv holding one env per seed with per-env random
    latents; per decision, the observation rows, world rows, rewards,
    done flags, termination reasons, Hit counts and episode times."""
    env = cb.CombatEnv(phi_spec, phi_params, SPEC, CFG, cfg,
                       [np.random.default_rng(s) for s in seeds])
    z_rngs = [np.random.default_rng(1000 + s) for s in seeds]
    record = []
    for _ in range(decisions):
        z = np.concatenate([di.sample_sphere(4, r, 2) for r in z_rngs])
        obs, rewards, done, info = env.decision_step(z)
        step = {"obs": obs, "site_force": env.site_force, "rewards": rewards, "done": done,
                "reason": np.array(info["reason"], dtype=object), "hits": info["hits"],
                "t": info["t"]}
        for f in fields(ph.World):
            step[f.name] = getattr(env.world, f.name)
        record.append(step)
    return record


def test_stacked_envs_match_separate_envs(tiny_prior):
    """Three envs stacked in one World give, decision by decision, the
    bits of three separate single-env worlds and of a 1 + 2 split: states,
    observations, rewards, Hit counts, done flags and termination
    reasons, over 120 decisions with resets."""
    _, phi_spec, phi_params = tiny_prior
    phi_params = 30.0 * phi_params  # strong enough to knock fighters down
    cfg = cb.CombatConfig(spawn_gap=0.6, f_hit=5.0)
    seeds = [3, 4, 5]
    stacked = _drive_envs(phi_spec, phi_params, cfg, seeds, 120)
    for split in ([[3], [4], [5]], [[3], [4, 5]]):
        parts = [_drive_envs(phi_spec, phi_params, cfg, s, 120) for s in split]
        for k, step in enumerate(stacked):
            for name, value in step.items():
                joined = np.concatenate([p[k][name] for p in parts])
                assert np.array_equal(value, joined), (split, k, name)
    reasons = [r for step in stacked for r in step["reason"] if r is not None]
    assert sum(step["done"].sum() for step in stacked) == len(reasons) >= 9
    assert {"knockdown", "separated"} <= set(reasons), set(reasons)
    assert sum(step["hits"].sum() for step in stacked) > 0


@pytest.mark.parametrize("cfg", [CC, cb.CombatConfig(spawn_gap=0.7, spawn_noise=0.0),
                                 cb.CombatConfig(spawn_gap=1.3, spawn_noise=0.05)])
def test_spawn_rows_equal_spawned_states(tiny_prior, cfg):
    """Spawned rows carry the bits of the per-state spawn: the stance, its
    mirror, the gap, and each env's noise draws in order, from fresh
    generators and again from the generators the first spawn advanced."""
    _, phi_spec, phi_params = tiny_prior
    seeds = [3, 4, 5]
    env_rngs = [np.random.default_rng(s) for s in seeds]
    rngs = [np.random.default_rng(s) for s in seeds]
    stance = ph.nominal_stance(SPEC, CFG)
    for _ in range(2):
        env = cb.CombatEnv(phi_spec, phi_params, SPEC, CFG, cfg, env_rngs)
        want = ph.World.of([s for rng in rngs for s in spawn_pair(stance, cfg, rng)], SPEC)
        for f in fields(want):
            assert getattr(env.world, f.name).tobytes() == getattr(want, f.name).tobytes(), f.name
