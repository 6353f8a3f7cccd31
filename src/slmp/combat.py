"""Two-agent planar combat driven through the frozen latent prior.

High-level policies emit unit-sphere latents at a reduced decision rate;
the prior maps (state, latent) to PD targets every control step.  Rewards
are sparse rule-based hit/knockdown events, and episodes terminate on
knockdowns, sustained clinching or reward-farming proximity, early-phase
disengagement, or the episode cap.  Training alternates between two
independently evolving policy instances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import distill as di
from . import nets
from . import physics as ph
from . import tracking as tr
from .seeding import seed_for


@dataclass
class CombatConfig:
    k_hit: float = 0.01  # reward per clamped newton of hit force
    f_cap: float = 200.0
    f_hit: float = 30.0  # minimum contact force for a scoring hit
    hit_dist: float = 0.3  # limb-to-region distance gate
    knockdown_bonus: float = 50.0
    swap_period: int = 250  # epochs between role swaps
    early_epochs: int = 500  # separation rule active while epoch < this
    episode_s: float = 15.0
    close_dist: float = 0.3  # root-to-root clinch distance
    close_s: float = 1.0
    farm_s: float = 1.0  # limb parked on a scoring region
    far_dist: float = 1.2
    k_hl: int = 2  # low-level steps per high-level decision
    spawn_gap: float = 1.0
    spawn_noise: float = 0.02
    epochs: int = 500
    envs: int = 8
    horizon: int = 64  # decisions per env per epoch
    lr: float = 5e-5
    gamma: float = 0.99
    clip_eps: float = 0.2
    gae_lambda: float = 0.95
    batch_size: int = 1024
    epochs_per_update: int = 4
    entropy_coef: float = 0.005
    value_coef: float = 1.0
    std_init: float = 0.3
    pi_h_hidden: tuple[int, ...] = (128, 128, 64)
    critic_hidden: tuple[int, ...] = (128, 128)

    def ppo(self) -> tr.PpoConfig:
        return tr.PpoConfig(
            lr=self.lr, gamma=self.gamma, clip_eps=self.clip_eps,
            gae_lambda=self.gae_lambda, envs=self.envs, horizon=self.horizon,
            batch_size=self.batch_size, epochs_per_update=self.epochs_per_update,
            entropy_coef=self.entropy_coef, value_coef=self.value_coef,
            std_init=self.std_init, pi_hidden=tuple(self.pi_h_hidden),
            critic_hidden=tuple(self.critic_hidden),
        )


@dataclass
class CombatEvent:
    kind: str  # Hit | GotHit | Knockdown | GotKnockedDown
    force: float = 0.0
    limb: int = -1  # site index of the striking limb
    region: str = ""  # head | torso

    def __post_init__(self):
        if self.kind in ("Hit", "GotHit") and self.force <= 0.0:
            raise ValueError("hit events must carry a positive force")


LIMB_SITES = ("hand_l", "hand_r", "foot_l", "foot_r")
FORCE_SITES = ("hand_l", "hand_r", "foot_l", "foot_r", "head_top", "pelvis")
REGIONS = ("head", "torso")  # scoring regions, in the order of the distance arrays

# Row layout: a combat world holds the two fighters as rows 0 and 1 of one
# ph.World.  Slot 1 sees the world reflected about x = 0, so in its own
# frame x, every angle and every angular rate negate (the bits of
# ph.mirror_state(s, 0.0)); FLIP_Q is that per-row sign for angular
# coordinates and FLIP_XY for planar vectors.
FLIP_Q = np.array([[1.0], [-1.0]])
FLIP_XY = np.array([[1.0, 1.0], [-1.0, 1.0]])
OPP = [1, 0]  # the opponent's row of each row


def slot_frames(world: ph.World):
    """(root_pos, q, root_vel, qd) of both fighters, each in its own
    canonical frame: slot 0 as is, slot 1 mirrored."""
    return (world.root_pos * FLIP_XY, world.q * FLIP_Q,
            world.root_vel * FLIP_XY, world.qd * FLIP_Q)


def limb_region_vectors(k: ph.Kinematics, spec: ph.CharacterSpec) -> np.ndarray:
    """(2, 4, 2, 2) world-axis vectors from each fighter's striking limbs
    (LIMB_SITES) to the opponent's scoring regions (REGIONS)."""
    along = np.array([spec.head_center_dist, spec.torso_center_dist])
    region_x = k.root_pos[:, :1] + along * k.cos[:, :1]  # (2, regions)
    region_y = k.root_pos[:, 1:] + along * k.sin[:, :1]
    limbs = [spec.site_index[n] for n in LIMB_SITES]
    vx = region_x[OPP][:, None, :] - k.site_x[:, limbs][:, :, None]
    vy = region_y[OPP][:, None, :] - k.site_y[:, limbs][:, :, None]
    return np.stack([vx, vy], axis=-1)


def limb_region_dist(k: ph.Kinematics, spec: ph.CharacterSpec) -> np.ndarray:
    """(2, 4, 2) lengths of ``limb_region_vectors``."""
    return np.linalg.norm(limb_region_vectors(k, spec), axis=-1)


def combat_observation(
    world: ph.World,
    k: ph.Kinematics,
    site_force: np.ndarray,
    spec: ph.CharacterSpec,
) -> np.ndarray:
    """Egocentric observation rows of both slots, (2, obs_dim): own
    proprioception, opponent root state relative to self,
    striking-limb-to-scoring-region vectors, and contact force magnitudes
    on key endpoints.  ``k`` is the Kinematics of ``world`` and
    ``site_force`` the (2, n_sites) forces of the last step.  Vectors are
    in each slot's root frame, taken in its canonical (slot-1 mirrored)
    frame."""
    own = slot_frames(world)
    facing = own[1][:, :1]  # each slot's root angle in its own frame
    # opponent-minus-self vectors in world axes: root offset, root
    # velocity, then the limb-to-region vectors, (2, 10, 2)
    vecs = np.concatenate([
        (world.root_pos[OPP] - world.root_pos)[:, None],
        (world.root_vel[OPP] - world.root_vel)[:, None],
        limb_region_vectors(k, spec).reshape(2, 2 * len(LIMB_SITES), 2),
    ], axis=1)
    vecs = ph.to_local(facing, vecs * FLIP_XY[:, None])
    d_angle = ph.wrap_angle((world.q[OPP, :1] - world.q[:, :1]) * FLIP_Q)
    return np.concatenate([
        tr.proprio_rows(*own),
        vecs[:, 0],
        np.sin(d_angle), np.cos(d_angle),
        vecs[:, 1],
        (world.qd[OPP, :1] - world.qd[:, :1]) * FLIP_Q,
        vecs[:, 2:].reshape(2, -1),
        site_force[:, [spec.site_index[n] for n in FORCE_SITES]],
    ], axis=1)


def combat_obs_dim(spec: ph.CharacterSpec) -> int:
    return tr.proprio_dim(spec) + 7 + 4 * len(LIMB_SITES) + len(FORCE_SITES)


def hit_events(
    dist: np.ndarray,
    site_opponent: np.ndarray,
    spec: ph.CharacterSpec,
    cfg: CombatConfig,
) -> tuple[list[CombatEvent], list[CombatEvent]]:
    """Scoring hits: a hand/foot within hit_dist of an opponent scoring
    region whose opponent-contact force exceeds f_hit.  ``dist`` is the
    (2, 4, 2) array of ``limb_region_dist`` and ``site_opponent`` the
    (2, n_sites) opponent-contact forces.  Every Hit emits a symmetric
    GotHit for the receiving agent."""
    events: tuple[list[CombatEvent], list[CombatEvent]] = ([], [])
    for a in range(2):
        for l, name in enumerate(LIMB_SITES):
            s = spec.site_index[name]
            force = float(site_opponent[a, s])
            if force <= cfg.f_hit:
                continue
            r = int(np.argmin(dist[a, l]))
            if dist[a, l, r] < cfg.hit_dist:
                events[a].append(CombatEvent("Hit", force, s, REGIONS[r]))
                events[1 - a].append(CombatEvent("GotHit", force, s, REGIONS[r]))
    return events


def combat_reward(
    events: list[CombatEvent], fell_self: bool, fell_opp: bool, cfg: CombatConfig
) -> float:
    """Sparse rule-based reward for one agent and one control step."""
    r = 0.0
    for e in events:
        if e.kind == "Hit":
            r += cfg.k_hit * min(e.force, cfg.f_cap)
        elif e.kind == "GotHit":
            r -= cfg.k_hit * min(e.force, cfg.f_cap)
    if fell_opp:
        r += cfg.knockdown_bonus
    if fell_self:
        r -= cfg.knockdown_bonus
    return r


@dataclass
class TerminationTimers:
    close: float = 0.0
    farm: float = 0.0


def check_termination(
    root_dist: float,
    limb_region_dist: float,
    knockdown: bool,
    t: float,
    timers: TerminationTimers,
    dt: float,
    epoch: int,
    cfg: CombatConfig,
) -> tuple[str | None, TerminationTimers]:
    """Sustained-condition episode termination.

    Timers accumulate while their condition holds and reset otherwise;
    the separation rule applies only during early training epochs.
    """
    timers = replace(timers)
    if knockdown:
        return "knockdown", timers
    timers.close = timers.close + dt if root_dist < cfg.close_dist else 0.0
    timers.farm = timers.farm + dt if limb_region_dist < cfg.hit_dist else 0.0
    if timers.close > cfg.close_s:
        return "clinch", timers
    if timers.farm > cfg.farm_s:
        return "farming", timers
    if epoch < cfg.early_epochs and root_dist > cfg.far_dist:
        return "separated", timers
    if t >= cfg.episode_s:
        return "timeout", timers
    return None, timers


def high_level_step(
    policy: tr.GaussianPolicy,
    params: np.ndarray,
    obs: np.ndarray,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Sample (or take the mean of) the latent head and project onto the
    sphere.  Returns (unit latent, raw gaussian sample, log-prob)."""
    if rng is None:
        raw = policy.mean(params, obs)
        logp = 0.0
    else:
        while True:
            raw, logp = policy.sample(params, obs, rng)
            if np.linalg.norm(raw) >= 1e-9:
                break
    norm = np.linalg.norm(raw)
    if norm < 1e-9:  # deterministic mean could still be degenerate
        raw = raw.copy()
        raw[0] = 1.0
        norm = 1.0
    return raw / norm, raw, logp


class CombatEnv:
    """Two characters in one world, both driven through the frozen prior.

    The fighters are rows 0 and 1 of one ``ph.World``, stepped as one
    coupled pair.  Slot 0 faces +x; slot 1 is mirrored and faces -x.
    Observations and prior inputs for slot 1 are computed in its mirrored
    canonical frame (``slot_frames``) so one policy sees the same
    egocentric picture in either slot.
    """

    def __init__(
        self,
        phi_spec: nets.MlpSpec,
        phi_params: np.ndarray,
        spec: ph.CharacterSpec,
        phys: ph.PhysicsConfig,
        cfg: CombatConfig,
        rng: np.random.Generator,
    ):
        self.phi_spec = phi_spec
        self.phi_params = phi_params
        self.spec = spec
        self.phys = phys
        self.cfg = cfg
        self.rng = rng
        self.epoch = 0
        self.reset()

    @property
    def states(self) -> list[ph.SimState]:
        """Copies of both fighters' states."""
        return [self.world.state(i) for i in range(2)]

    def _spawn(self, facing: int, x: float) -> ph.SimState:
        s = ph.nominal_stance(self.spec, self.phys)
        if facing < 0:
            s = ph.mirror_state(s, 0.0)
        s.root_pos[0] += x
        if s.anchor_x is not None:
            s.anchor_x += x
        noise = self.cfg.spawn_noise
        if noise > 0.0:
            s.joint_angles[:4] += self.rng.uniform(-noise, noise, 4)  # arms only
            s.root_pos[0] += self.rng.uniform(-noise, noise)
            if s.anchor_x is not None:
                s.anchor_x += s.root_pos[0] - x
        return s

    def reset(self) -> np.ndarray:
        g = self.cfg.spawn_gap / 2.0
        self.world = ph.World.of([self._spawn(+1, -g), self._spawn(-1, +g)], self.spec)
        self.site_force = np.zeros((2, len(self.spec.sites)))  # of the last step
        self.timers = TerminationTimers()
        self.t = 0.0
        return self.observe()

    def observe(self) -> np.ndarray:
        """(2, obs_dim) observation rows of both slots."""
        k = ph.Kinematics.of(self.world, self.spec)
        return combat_observation(self.world, k, self.site_force, self.spec)

    def decision_step(self, z0: np.ndarray, z1: np.ndarray):
        """Hold both latents for k_hl control steps.

        Returns (obs_rows, reward_pair, done, info).
        """
        cfg, spec, phys = self.cfg, self.spec, self.phys
        z = np.stack([z0, z1])
        rewards = [0.0, 0.0]
        done = False
        reason = None
        hits = [0, 0]
        for _ in range(cfg.k_hl):
            proprio = tr.proprio_rows(*slot_frames(self.world))
            targets = di.prior_action(self.phi_spec, self.phi_params, proprio, z) * FLIP_Q
            self.world, report = ph.step_batch(
                self.world, spec, phys.dt, phys, pd_targets=targets, coupled=True,
            )
            self.site_force = report.site_force
            self.t += phys.dt
            k = ph.Kinematics.of(self.world, spec)
            fell = [bool(f) for f in ph.fallen(self.world.valid, k, spec, phys)]
            dist = limb_region_dist(k, spec)
            events = hit_events(dist, report.site_opponent, spec, cfg)
            for i in range(2):
                if fell[1 - i]:
                    events[i].append(CombatEvent("Knockdown"))
                if fell[i]:
                    events[i].append(CombatEvent("GotKnockedDown"))
                rewards[i] += combat_reward(events[i], fell[i], fell[1 - i], cfg)
                hits[i] += sum(1 for e in events[i] if e.kind == "Hit")

            root_dist = float(np.linalg.norm(self.world.root_pos[0] - self.world.root_pos[1]))
            reason, self.timers = check_termination(
                root_dist, float(dist.min()), any(fell), self.t, self.timers,
                phys.dt, self.epoch, cfg,
            )
            if reason is not None:
                done = True
                break
        info = {"reason": reason, "hits": hits, "t": self.t}
        obs = self.reset() if done else combat_observation(self.world, k, self.site_force, spec)
        return obs, (rewards[0], rewards[1]), done, info


@dataclass
class SelfPlayState:
    """Two policy instances; exactly one is trainable at a time."""

    swap_period: int
    epoch: int = 0

    def learner_index(self, epoch: int | None = None) -> int:
        e = self.epoch if epoch is None else epoch
        return (e // self.swap_period) % 2


COMBAT_METRICS = (
    "epoch", "learner", "reward", "hits_per_episode", "knockdowns_per_episode",
    "episode_steps", "policy_loss", "value_loss", "clip_fraction",
)


def self_play_train(
    slmp_dir: str | Path,
    cfg: CombatConfig,
    out_dir: str | Path,
    seed: int,
    spec: ph.CharacterSpec | None = None,
    phys: ph.PhysicsConfig | None = None,
    log: bool = True,
):
    """Stage 3: alternating self-play over the frozen latent prior.

    Both high-level policies are initialized identically and evolve
    independently; roles swap every cfg.swap_period epochs.
    """
    spec = spec or ph.default_character()
    phys = phys or ph.default_config(spec)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _enc_spec, _enc, phi_spec, phi_params = di.load_prior(slmp_dir)
    latent_dim = phi_spec.input_dim - tr.proprio_dim(spec)

    pcfg = cfg.ppo()
    obs_dim = combat_obs_dim(spec)
    policy = tr.GaussianPolicy(nets.MlpSpec(obs_dim, tuple(cfg.pi_h_hidden), latent_dim, activation="silu"))
    value_spec = nets.MlpSpec(obs_dim, tuple(cfg.critic_hidden), 1, activation="silu")
    init_rng = np.random.default_rng(seed_for(seed, "pi-h-init"))
    base_params = policy.init(init_rng, cfg.std_init)
    base_value = nets.init_params(value_spec, np.random.default_rng(seed_for(seed, "vh-init")))
    params = [base_params.copy(), base_params.copy()]
    values = [base_value.copy(), base_value.copy()]
    adam_p = [nets.adam_init(base_params.size, cfg.lr) for _ in range(2)]
    adam_v = [nets.adam_init(base_value.size, cfg.lr) for _ in range(2)]

    envs = [
        CombatEnv(phi_spec, phi_params, spec, phys, cfg,
                  np.random.default_rng(seed_for(seed, f"cenv-{i}")))
        for i in range(cfg.envs)
    ]
    # each env's current (2, obs_dim) observation rows, carried across
    # decisions and epochs
    obs_pairs = [env.observe() for env in envs]
    sp = SelfPlayState(swap_period=cfg.swap_period)
    metrics_path = out / "metrics.csv"
    metrics_path.write_text(",".join(COMBAT_METRICS) + "\n")

    for epoch in range(cfg.epochs):
        sp.epoch = epoch
        learner = sp.learner_index()
        for i, env in enumerate(envs):
            env.epoch = epoch
            env.rng = np.random.default_rng(seed_for(seed, f"epoch-{epoch}-env-{i}"))
        rngs = [np.random.default_rng(seed_for(seed, f"epoch-{epoch}-act-{i}")) for i in range(cfg.envs)]

        t_len = cfg.horizon
        n_env = cfg.envs
        obs_buf = np.zeros((t_len, n_env, obs_dim))
        act_buf = np.zeros((t_len, n_env, latent_dim))
        logp_buf = np.zeros((t_len, n_env))
        rew_buf = np.zeros((t_len, n_env))
        done_buf = np.zeros((t_len, n_env))
        hits = 0
        downs = 0
        episodes = 0
        for t in range(t_len):
            for e, env in enumerate(envs):
                obs_pair = obs_pairs[e]
                zs = [None, None]
                for agent in range(2):
                    if agent == learner:
                        z, raw, lp = high_level_step(policy, params[agent], obs_pair[agent], rngs[e])
                        act_buf[t, e] = raw
                        logp_buf[t, e] = lp
                    else:
                        z, _, _ = high_level_step(policy, params[agent], obs_pair[agent])
                    zs[agent] = z
                obs_buf[t, e] = obs_pair[learner]
                obs_pairs[e], (r0, r1), done, info = env.decision_step(zs[0], zs[1])
                rew_buf[t, e] = r0 if learner == 0 else r1
                done_buf[t, e] = float(done)
                if done:
                    episodes += 1
                    if info["reason"] == "knockdown":
                        downs += 1
                hits += info["hits"][learner]
        values_t = np.zeros((t_len, n_env))
        boot = np.zeros(n_env)
        for e in range(n_env):
            values_t[:, e] = nets.forward_batch(value_spec, values[learner], obs_buf[:, e])[:, 0]
            boot[e] = nets.forward_batch(
                value_spec, values[learner], obs_pairs[e][learner][None, :]
            )[0, 0]
        adv, ret = tr.gae(rew_buf, values_t, done_buf, cfg.gamma, cfg.gae_lambda, boot)
        batch = tr.PpoBatch(
            obs_buf.reshape(-1, obs_dim), act_buf.reshape(-1, latent_dim),
            logp_buf.reshape(-1), adv.reshape(-1), ret.reshape(-1),
        )
        upd_rng = np.random.default_rng(seed_for(seed, f"epoch-{epoch}-shuffle"))
        params[learner], adam_p[learner], values[learner], adam_v[learner], m = tr.ppo_update(
            policy, params[learner], adam_p[learner],
            value_spec, values[learner], adam_v[learner], batch, pcfg, upd_rng,
        )
        episodes = max(episodes, 1)
        row = {
            "epoch": epoch, "learner": learner, "reward": rew_buf.mean(),
            "hits_per_episode": hits / episodes, "knockdowns_per_episode": downs / episodes,
            "episode_steps": rew_buf.size / max(done_buf.sum(), 1.0),
            "policy_loss": m.get("policy_loss", math.nan),
            "value_loss": m.get("value_loss", math.nan),
            "clip_fraction": m.get("clip_fraction", math.nan),
        }
        with metrics_path.open("a") as f:
            f.write(",".join(repr(float(row[k])) for k in COMBAT_METRICS) + "\n")
        if log and (epoch % 25 == 0 or epoch == cfg.epochs - 1):
            print(
                f"[combat] epoch {epoch} learner {learner} reward {row['reward']:.3f} "
                f"hits/ep {row['hits_per_episode']:.2f}",
                flush=True,
            )

    for i in range(2):
        nets.save_checkpoint(
            out / f"pi_h_{i + 1}.ckpt", f"pi_h_{i + 1}", policy.spec, params[i],
            extra=policy.spec.output_dim,
        )
        nets.save_checkpoint(out / f"critic_h_{i + 1}.ckpt", f"critic_h_{i + 1}", value_spec, values[i])
    # embed the prior so rollouts load from one directory
    nets.save_checkpoint(out / "pi_phi.ckpt", "pi_phi", phi_spec, phi_params)
    return params, values


def rollout_combat(
    ckpt_dir: str | Path,
    seconds: float,
    seed: int,
    cfg: CombatConfig | None = None,
    spec: ph.CharacterSpec | None = None,
    phys: ph.PhysicsConfig | None = None,
) -> list[list[ph.SimState]]:
    """Deterministic-mode combat rollout; returns per-step state pairs."""
    spec = spec or ph.default_character()
    phys = phys or ph.default_config(spec)
    cfg = cfg or CombatConfig()
    ckpt = Path(ckpt_dir)
    _, phi_spec, phi_params, _ = nets.load_checkpoint(ckpt / "pi_phi.ckpt")
    pols = []
    for i in (1, 2):
        policy, p = tr.load_policy(ckpt / f"pi_h_{i}.ckpt")
        pols.append((policy, p))
    env = CombatEnv(phi_spec, phi_params, spec, phys, cfg, np.random.default_rng(seed))
    env.epoch = cfg.early_epochs  # disable the early separation rule
    frames = []
    steps = int(seconds / (phys.dt * cfg.k_hl))
    for _ in range(steps):
        obs = env.observe()
        zs = [high_level_step(policy, p, obs[agent])[0] for agent, (policy, p) in enumerate(pols)]
        frames.append(env.states)
        _, _, done, _ = env.decision_step(zs[0], zs[1])
        if done:
            break
    return frames
