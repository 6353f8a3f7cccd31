import math

import numpy as np
import pytest

from reference import proprio, rot
from slmp import combat as cb
from slmp import distill as di
from slmp import nets
from slmp import physics as ph
from slmp import tracking as tr

SPEC = ph.default_character()
CFG = ph.default_config(SPEC)
CC = cb.CombatConfig()


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
        assert obs_a.shape == (cb.combat_obs_dim(SPEC),)
        assert np.allclose(obs_b, obs_sign_mask() * obs_a, atol=1e-10)

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
        states = self._states_with_hand_near(0.1)
        ev0, ev1 = cb.hit_events(dist_rows(states), self._site_opponent(60.0), SPEC, CC)
        assert [e.kind for e in ev0] == ["Hit"]
        assert [e.kind for e in ev1] == ["GotHit"]
        assert ev0[0].force == 60.0
        assert ev0[0].region == "head"

    def test_distance_gate(self):
        states = self._states_with_hand_near(0.5)
        ev0, ev1 = cb.hit_events(dist_rows(states), self._site_opponent(60.0), SPEC, CC)
        assert ev0 == [] and ev1 == []

    def test_force_gate(self):
        states = self._states_with_hand_near(0.1)
        ev0, ev1 = cb.hit_events(dist_rows(states), self._site_opponent(20.0), SPEC, CC)
        assert ev0 == [] and ev1 == []


def _regions(state):
    frame = ph.KinFrame(state, SPEC)
    return {r: frame.point_on_link(0, getattr(SPEC, f"{r}_center_dist")) for r in cb.REGIONS}


def _observation_ref(me, opp, site_force):
    """Per-state observation of ``me`` against ``opp``, both already in
    me's canonical frame."""
    to_me = rot(-me.root_angle)
    parts = [proprio(me), to_me @ (opp.root_pos - me.root_pos)]
    d_angle = ph.wrap_angle(opp.root_angle - me.root_angle)
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
                events[a].append(cb.CombatEvent("Hit", force, s, region))
                events[1 - a].append(cb.CombatEvent("GotHit", force, s, region))
    return events, best


def test_row_functions_match_per_state_reference():
    """Observations, hit events, fall flags and the farming distance of the
    2-row world against per-state code, slot 1 through mirror_state, over
    random close-range pairs after one coupled step with random targets."""
    rng = np.random.default_rng(17)
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
        ev_rows = cb.hit_events(dist, site_opponent, SPEC, CC)
        ev_ref, best = _hits_and_min_dist_ref(states, site_opponent)
        assert ev_rows == ev_ref, trial
        assert abs(float(dist.min()) - best) <= 1e-12
        hits += len(ev_ref[0]) + len(ev_ref[1])

        fell = ph.fallen(w.valid, k, SPEC, CFG)
        assert list(fell) == [ph.detect_fall(s, SPEC, CFG) for s in states]
        falls += int(fell.sum())
    assert touching >= 20 and hits >= 20 and falls >= 20, (touching, hits, falls)


class TestCombatReward:
    def test_single_hit(self):
        r = cb.combat_reward([cb.CombatEvent("Hit", 60.0, 0, "head")], False, False, CC)
        assert r == pytest.approx(0.6)

    def test_force_capped(self):
        r = cb.combat_reward([cb.CombatEvent("Hit", 500.0, 0, "head")], False, False, CC)
        assert r == pytest.approx(CC.k_hit * CC.f_cap)

    def test_knockdown_bonus(self):
        assert cb.combat_reward([], False, True, CC) == pytest.approx(50.0)

    def test_hit_plus_own_fall(self):
        r = cb.combat_reward([cb.CombatEvent("Hit", 60.0, 0, "torso")], True, False, CC)
        assert r == pytest.approx(0.6 - 50.0)

    def test_zero_sum_hit_accounting(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            force = float(rng.uniform(31, 400))
            region = "head" if rng.uniform() < 0.5 else "torso"
            ev_a = [cb.CombatEvent("Hit", force, 3, region)]
            ev_b = [cb.CombatEvent("GotHit", force, 3, region)]
            total = cb.combat_reward(ev_a, False, False, CC) + cb.combat_reward(
                ev_b, False, False, CC
            )
            assert total == pytest.approx(0.0, abs=1e-12)


def check_one(root_dist, limb_dist, knockdown, t, timers, dt, epoch, cfg):
    """``check_termination`` for a single env: (reason, timers)."""
    reasons, timers = cb.check_termination(
        np.array([root_dist]), np.array([limb_dist]), np.array([knockdown]), np.array([t]),
        timers, dt, epoch, cfg,
    )
    return reasons[0], timers


class TestTermination:
    def test_sustained_clinch(self):
        timers = cb.TerminationTimers()
        reason = None
        dt = 1 / 60
        for k in range(int(1.2 * 60)):
            reason, timers = check_one(0.25, 1.0, False, k * dt, timers, dt, 1000, CC)
            if reason:
                break
        assert reason == "clinch"

    def test_timer_resets_when_condition_breaks(self):
        timers = cb.TerminationTimers()
        dt = 1 / 60
        for k in range(30):  # 0.5 s close...
            reason, timers = check_one(0.25, 1.0, False, k * dt, timers, dt, 1000, CC)
            assert reason is None
        reason, timers = check_one(0.4, 1.0, False, 0.51, timers, dt, 1000, CC)
        assert reason is None
        assert timers.close == 0.0

    def test_early_separation_rule(self):
        timers = cb.TerminationTimers()
        reason, _ = check_one(1.5, 1.0, False, 0.1, timers, 1 / 60, 10, CC)
        assert reason == "separated"
        reason, _ = check_one(1.5, 1.0, False, 0.1, timers, 1 / 60, CC.early_epochs, CC)
        assert reason is None

    def test_knockdown_terminates(self):
        reason, _ = check_one(1.0, 1.0, True, 0.1, cb.TerminationTimers(), 1 / 60, 0, CC)
        assert reason == "knockdown"

    def test_farming_timer(self):
        timers = cb.TerminationTimers()
        dt = 1 / 60
        reason = None
        for k in range(int(1.2 * 60)):
            reason, timers = check_one(0.8, 0.2, False, k * dt, timers, dt, 1000, CC)
            if reason:
                break
        assert reason == "farming"

    def test_timeout(self):
        reason, _ = check_one(
            0.8, 1.0, False, CC.episode_s, cb.TerminationTimers(), 1 / 60, 1000, CC
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
            z, raw, logp = cb.high_level_step(policy, params, rng.standard_normal((1, 10)), [rng])
            assert np.linalg.norm(z[0]) == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_mode_reproducible(self):
        policy, params = self._policy()
        obs = np.random.default_rng(2).standard_normal((1, 10))
        z1, _, _ = cb.high_level_step(policy, params, obs)
        z2, _, _ = cb.high_level_step(policy, params, obs)
        assert np.array_equal(z1, z2)


class TestSelfPlaySchedule:
    def test_swap_at_period_boundaries(self):
        sp = cb.SelfPlayState(swap_period=250)
        assert sp.learner_index(0) == 0
        assert sp.learner_index(249) == 0
        assert sp.learner_index(250) == 1
        assert sp.learner_index(499) == 1
        assert sp.learner_index(500) == 0

    def test_exactly_one_trainable_alternating(self):
        sp = cb.SelfPlayState(swap_period=250)
        history = [sp.learner_index(e) for e in range(1000)]
        assert set(history) == {0, 1}
        # alternates with period 250
        for e in range(1000):
            assert history[e] == (e // 250) % 2


@pytest.fixture(scope="module")
def tiny_prior(tmp_path_factory):
    """Weak but loadable latent prior for environment-level tests."""
    out = tmp_path_factory.mktemp("prior")
    phi_spec = nets.MlpSpec(tr.proprio_dim(SPEC) + 4, (16,), SPEC.n_joints, activation="silu")
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
                z0 = di.sample_sphere(4, rng)
                z1 = di.sample_sphere(4, rng)
                _, rewards, done, _ = env.decision_step(np.stack([z0, z1]))
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
            z0 = di.sample_sphere(4, rng)
            z1 = di.sample_sphere(4, rng)
            # bypass knockdown bonuses by checking only no-fall steps
            _, rewards, done, info = env.decision_step(np.stack([z0, z1]))
            (r0, r1), done = rewards[0], done[0]
            fell = any(
                ph.detect_fall(s, SPEC, CFG) or not s.valid for s in env.states
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

    def test_frozen_opponent_unchanged_during_phase(self, tiny_prior, tmp_path):
        out_dir, _, _ = tiny_prior
        cfg = cb.CombatConfig(envs=1, horizon=4, epochs=3, swap_period=100)
        params, values = cb.self_play_train(
            out_dir, cfg, tmp_path / "c2", seed=1, spec=SPEC, phys=CFG, log=False
        )
        # instance 1 never trained within the first 3 epochs: identical to init
        policy = tr.GaussianPolicy(
            nets.MlpSpec(cb.combat_obs_dim(SPEC), tuple(cfg.pi_h_hidden), 4, activation="silu")
        )
        from slmp.seeding import seed_for

        base = policy.init(np.random.default_rng(seed_for(1, "pi-h-init")), cfg.std_init)
        assert np.array_equal(params[1], base)
        assert not np.array_equal(params[0], base)


def _drive_envs(phi_spec, phi_params, cfg, seeds, decisions):
    """Drive one CombatEnv holding one env per seed with per-env random
    latents; per decision, the observation rows, world rows, rewards,
    done flags, termination reasons, Hit counts and episode times."""
    env = cb.CombatEnv(phi_spec, phi_params, SPEC, CFG, cfg,
                       [np.random.default_rng(s) for s in seeds])
    z_rngs = [np.random.default_rng(1000 + s) for s in seeds]
    record = []
    for _ in range(decisions):
        z = np.concatenate([[di.sample_sphere(4, r), di.sample_sphere(4, r)] for r in z_rngs])
        obs, rewards, done, info = env.decision_step(z)
        step = {"obs": obs, "site_force": env.site_force, "rewards": rewards, "done": done,
                "reason": np.array(info["reason"], dtype=object), "hits": info["hits"],
                "t": info["t"]}
        for name in ("root_pos", "q", "root_vel", "qd", "time", "valid", "anchor_x", "anchor_on"):
            step[name] = getattr(env.world, name)
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
