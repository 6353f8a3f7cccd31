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
import shutil
from dataclasses import dataclass
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

# Row layout: a combat world holds E envs' fighter pairs as 2E rows of one
# ph.World, env i's two slots in rows 2i and 2i + 1, stepped with
# ph.step_batch(..., coupled=True); a row's opponent is its pair partner,
# row i ^ 1.  Slot 1 sees the world reflected about x = 0, so in its own
# frame x, every angle and every angular rate negate (the bits of
# ph.mirror_state(s, 0.0)); FLIP_Q is that sign for the angular
# coordinates of one pair's rows and FLIP_XY for planar vectors, and
# ``_flips`` tiles them over all rows.
FLIP_Q = np.array([[1.0], [-1.0]])
FLIP_XY = np.array([[1.0, 1.0], [-1.0, 1.0]])


def _flips(n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(FLIP_Q, FLIP_XY) for ``n_rows`` rows of pairs."""
    return np.tile(FLIP_Q, (n_rows // 2, 1)), np.tile(FLIP_XY, (n_rows // 2, 1))


def _opponents(n_rows: int) -> np.ndarray:
    """The opponent's row of every row."""
    return np.arange(n_rows) ^ 1


def slot_frames(world: ph.World):
    """(root_pos, q, root_vel, qd) of every fighter, each in its own
    canonical frame: slot 0 as is, slot 1 mirrored."""
    flip_q, flip_xy = _flips(len(world))
    return (world.root_pos * flip_xy, world.q * flip_q,
            world.root_vel * flip_xy, world.qd * flip_q)


def limb_region_vectors(k: ph.Kinematics, spec: ph.CharacterSpec) -> np.ndarray:
    """(2E, 4, 2, 2) world-axis vectors from each fighter's striking limbs
    (LIMB_SITES) to its opponent's scoring regions (REGIONS)."""
    opp = _opponents(len(k.root_pos))
    along = np.array([spec.head_center_dist, spec.torso_center_dist])
    region_x = k.root_pos[:, :1] + along * k.cos[:, :1]  # (2E, regions)
    region_y = k.root_pos[:, 1:] + along * k.sin[:, :1]
    limbs = [spec.site_index[n] for n in LIMB_SITES]
    vx = region_x[opp][:, None, :] - k.site_x[:, limbs][:, :, None]
    vy = region_y[opp][:, None, :] - k.site_y[:, limbs][:, :, None]
    return np.stack([vx, vy], axis=-1)


def limb_region_dist(k: ph.Kinematics, spec: ph.CharacterSpec) -> np.ndarray:
    """(2E, 4, 2) lengths of ``limb_region_vectors``."""
    return np.linalg.norm(limb_region_vectors(k, spec), axis=-1)


def combat_observation(
    world: ph.World,
    k: ph.Kinematics,
    site_force: np.ndarray,
    spec: ph.CharacterSpec,
) -> np.ndarray:
    """Egocentric observation rows of every slot, (2E, obs_dim): own
    proprioception, opponent root state relative to self,
    striking-limb-to-scoring-region vectors, and contact force magnitudes
    on key endpoints.  ``k`` is the Kinematics of ``world`` and
    ``site_force`` the (2E, n_sites) forces of the last step.  Vectors are
    in each slot's root frame, taken in its canonical (slot-1 mirrored)
    frame."""
    n = len(world)
    opp = _opponents(n)
    flip_q, flip_xy = _flips(n)
    own = slot_frames(world)
    facing = own[1][:, :1]  # each slot's root angle in its own frame
    # opponent-minus-self vectors in world axes: root offset, root
    # velocity, then the limb-to-region vectors, (2E, 10, 2)
    vecs = np.concatenate([
        (world.root_pos[opp] - world.root_pos)[:, None],
        (world.root_vel[opp] - world.root_vel)[:, None],
        limb_region_vectors(k, spec).reshape(n, 2 * len(LIMB_SITES), 2),
    ], axis=1)
    vecs = ph.to_local(facing, vecs * flip_xy[:, None])
    d_angle = ph.wrap_angle((world.q[opp, :1] - world.q[:, :1]) * flip_q)
    return np.concatenate([
        tr.proprio_rows(*own),
        vecs[:, 0],
        np.sin(d_angle), np.cos(d_angle),
        vecs[:, 1],
        (world.qd[opp, :1] - world.qd[:, :1]) * flip_q,
        vecs[:, 2:].reshape(n, -1),
        site_force[:, [spec.site_index[n] for n in FORCE_SITES]],
    ], axis=1)


def combat_obs_dim(spec: ph.CharacterSpec) -> int:
    return tr.proprio_dim(spec) + 7 + 4 * len(LIMB_SITES) + len(FORCE_SITES)


def hit_events(
    dist: np.ndarray,
    site_opponent: np.ndarray,
    spec: ph.CharacterSpec,
    cfg: CombatConfig,
) -> tuple[list[CombatEvent], ...]:
    """Scoring hits: a hand/foot within hit_dist of an opponent scoring
    region whose opponent-contact force exceeds f_hit.  ``dist`` is the
    (2E, 4, 2) array of ``limb_region_dist`` and ``site_opponent`` the
    (2E, n_sites) opponent-contact forces.  Returns one event list per
    row.  Every Hit emits a symmetric GotHit for the receiving agent."""
    events: tuple[list[CombatEvent], ...] = tuple([] for _ in range(len(dist)))
    limbs = [spec.site_index[n] for n in LIMB_SITES]
    force = site_opponent[:, limbs]
    region = np.argmin(dist, axis=2)
    nearest = np.take_along_axis(dist, region[..., None], axis=2)[..., 0]
    # not (force <= f_hit): a NaN force of a diverging step passes the gate
    for a, l in zip(*np.nonzero(~(force <= cfg.f_hit) & (nearest < cfg.hit_dist))):
        f, s, r = float(force[a, l]), limbs[l], REGIONS[region[a, l]]
        events[a].append(CombatEvent("Hit", f, s, r))
        events[a ^ 1].append(CombatEvent("GotHit", f, s, r))
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
    """Per-env seconds that each sustained condition has held."""

    close: np.ndarray | float = 0.0
    farm: np.ndarray | float = 0.0


def check_termination(
    root_dist: np.ndarray,
    limb_region_dist: np.ndarray,
    knockdown: np.ndarray,
    t: np.ndarray,
    timers: TerminationTimers,
    dt: float,
    epoch: int,
    cfg: CombatConfig,
) -> tuple[list[str | None], TerminationTimers]:
    """Sustained-condition episode termination of E envs from (E,) arrays.

    Returns one reason (or None) per env and the new timers.  Timers
    accumulate while their condition holds and reset otherwise; a
    knocked-down env keeps its timers.  The separation rule applies only
    during early training epochs.
    """
    close = np.where(root_dist < cfg.close_dist, timers.close + dt, 0.0)
    farm = np.where(limb_region_dist < cfg.hit_dist, timers.farm + dt, 0.0)
    rules = (
        ("knockdown", knockdown),
        ("clinch", close > cfg.close_s),
        ("farming", farm > cfg.farm_s),
        ("separated", (epoch < cfg.early_epochs) & (root_dist > cfg.far_dist)),
        ("timeout", t >= cfg.episode_s),
    )
    reasons = [next((name for name, hit in rules if hit[e]), None) for e in range(len(t))]
    timers = TerminationTimers(np.where(knockdown, timers.close, close),
                               np.where(knockdown, timers.farm, farm))
    return reasons, timers


def high_level_step(
    policy: tr.GaussianPolicy,
    params: np.ndarray,
    obs: np.ndarray,
    rngs: list[np.random.Generator] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Latents for the rows of ``obs`` (E, obs_dim): row e samples the
    latent head with ``rngs[e]``, or takes its mean without ``rngs``, and
    is projected onto the sphere.  Returns (unit latents, raw gaussian
    samples, log-probs) of shapes (E, d), (E, d) and (E,).  The stacked
    forward gives every row the bits of a 1-row call."""
    if rngs is None:
        raw = policy.mean_rows(params, obs)
        logp = np.zeros(len(obs))
    else:
        raw, logp = policy.sample_rows(params, obs, rngs)
    norm = ph.row_norms(raw)
    for e, rng in enumerate(rngs or ()):
        while norm[e] < 1e-9:  # redraw a degenerate sample
            raw[e], logp[e] = policy.sample(params, obs[e], rng)
            norm[e] = np.linalg.norm(raw[e])
    degenerate = norm < 1e-9  # a deterministic mean can still be
    raw[degenerate, 0] = 1.0
    norm[degenerate] = 1.0
    return raw / norm[:, None], raw, logp


class CombatEnv:
    """E two-character envs in one world, all driven through the frozen prior.

    Env i's fighters are rows 2i and 2i + 1 of one ``ph.World``, stepped
    as coupled pairs (see the row layout above).  Slot 0 faces +x; slot 1
    is mirrored and faces -x.  Observations and prior inputs for slot 1
    are computed in its mirrored canonical frame (``slot_frames``) so one
    policy sees the same egocentric picture in either slot.  ``rngs``
    holds one generator per env, which draws that env's spawn noise.
    """

    def __init__(
        self,
        phi_spec: nets.MlpSpec,
        phi_params: np.ndarray,
        spec: ph.CharacterSpec,
        phys: ph.PhysicsConfig,
        cfg: CombatConfig,
        rngs: list[np.random.Generator],
    ):
        self.phi_spec = phi_spec
        self.phi_params = phi_params
        self.spec = spec
        self.phys = phys
        self.cfg = cfg
        self.rngs = rngs
        self.epoch = 0
        self.stance = ph.nominal_stance(spec, phys)  # every spawn starts from a copy
        self.reset()

    @property
    def states(self) -> list[ph.SimState]:
        """Copies of every fighter's state, in row order."""
        return [self.world.state(i) for i in range(len(self.world))]

    def _spawn(self, facing: int, x: float, rng: np.random.Generator) -> ph.SimState:
        s = self.stance.copy()
        if facing < 0:
            s = ph.mirror_state(s, 0.0)
        s.root_pos[0] += x
        if s.anchor_x is not None:
            s.anchor_x += x
        noise = self.cfg.spawn_noise
        if noise > 0.0:
            s.joint_angles[:4] += rng.uniform(-noise, noise, 4)  # arms only
            s.root_pos[0] += rng.uniform(-noise, noise)
            if s.anchor_x is not None:
                s.anchor_x += s.root_pos[0] - x
        return s

    def _spawn_pair(self, env: int) -> list[ph.SimState]:
        g = self.cfg.spawn_gap / 2.0
        rng = self.rngs[env]
        return [self._spawn(+1, -g, rng), self._spawn(-1, +g, rng)]

    def reset(self) -> None:
        """Respawn every env."""
        n = len(self.rngs)
        self.world = ph.World.of([s for e in range(n) for s in self._spawn_pair(e)], self.spec)
        self.site_force = np.zeros((2 * n, len(self.spec.sites)))  # of the last step
        self.timers = TerminationTimers(np.zeros(n), np.zeros(n))
        self.t = np.zeros(n)

    def _reset_env(self, env: int) -> None:
        for slot, s in enumerate(self._spawn_pair(env)):
            self.world.put(2 * env + slot, s)
        self.site_force[2 * env : 2 * env + 2] = 0.0
        self.timers.close[env] = self.timers.farm[env] = 0.0
        self.t[env] = 0.0

    def observe(self) -> np.ndarray:
        """(2E, obs_dim) observation rows of every slot."""
        k = ph.Kinematics.of(self.world, self.spec)
        return combat_observation(self.world, k, self.site_force, self.spec)

    def decision_step(self, z: np.ndarray):
        """Hold every row's latent, ``z`` (2E, latent_dim), for k_hl
        control steps.

        Returns (obs_rows, rewards, done, info): the (2E, obs_dim)
        observation rows, the (E, 2) rewards of both slots, the (E,) done
        flags, and per env the termination reason (or None) under
        "reason", the (E, 2) Hit counts under "hits" and the episode time
        under "t".  An env whose episode ends takes no rewards, events or
        timer updates for the rest of the decision and is respawned at its
        end.
        """
        cfg, spec, phys = self.cfg, self.spec, self.phys
        n = len(self.rngs)
        flip_q, _ = _flips(2 * n)
        rewards = np.zeros((n, 2))
        hits = np.zeros((n, 2), dtype=int)
        done = np.zeros(n, dtype=bool)
        reasons: list[str | None] = [None] * n
        for _ in range(cfg.k_hl):
            proprio = tr.proprio_rows(*slot_frames(self.world))
            targets = di.prior_action(self.phi_spec, self.phi_params, proprio, z) * flip_q
            self.world, report = ph.step_batch(
                self.world, spec, phys.dt, phys, pd_targets=targets, coupled=True,
            )
            self.site_force = report.site_force
            live = ~done
            self.t = np.where(live, self.t + phys.dt, self.t)
            k = report.kin
            fell = ph.fallen(self.world.valid, k, spec, phys)
            dist = limb_region_dist(k, spec)
            events = hit_events(dist, report.site_opponent, spec, cfg)
            pos = self.world.root_pos
            root_dist = ph.row_norms(pos[0::2] - pos[1::2])
            ended, timers = check_termination(
                root_dist, dist.reshape(n, -1).min(axis=1), fell.reshape(n, 2).any(axis=1),
                self.t, self.timers, phys.dt, self.epoch, cfg,
            )
            self.timers = TerminationTimers(np.where(live, timers.close, self.timers.close),
                                            np.where(live, timers.farm, self.timers.farm))
            for e in np.flatnonzero(live):
                for slot in range(2):
                    me, opp = 2 * e + slot, 2 * e + 1 - slot
                    if fell[opp]:
                        events[me].append(CombatEvent("Knockdown"))
                    if fell[me]:
                        events[me].append(CombatEvent("GotKnockedDown"))
                    rewards[e, slot] += combat_reward(events[me], bool(fell[me]), bool(fell[opp]), cfg)
                    hits[e, slot] += sum(1 for ev in events[me] if ev.kind == "Hit")
                reasons[e] = ended[e]
                done[e] = ended[e] is not None
            if done.all():
                break
        info = {"reason": reasons, "hits": hits, "t": self.t.copy()}
        for e in np.flatnonzero(done):
            self._reset_env(e)
        if done.any():  # World.put left k stale for the respawned rows
            k = ph.Kinematics.of(self.world, spec)
        return combat_observation(self.world, k, self.site_force, spec), rewards, done, info


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
    _, phi_spec, phi_params, _ = nets.load_checkpoint(Path(slmp_dir) / "pi_phi.ckpt")
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

    n_env = cfg.envs
    env = CombatEnv(phi_spec, phi_params, spec, phys, cfg,
                    [np.random.default_rng(seed_for(seed, f"cenv-{i}")) for i in range(n_env)])
    # the current (2E, obs_dim) observation rows, carried across decisions
    # and epochs
    obs = env.observe()
    sp = SelfPlayState(swap_period=cfg.swap_period)
    metrics_path = out / "metrics.csv"
    metrics_path.write_text(",".join(COMBAT_METRICS) + "\n")

    for epoch in range(cfg.epochs):
        sp.epoch = epoch
        learner = sp.learner_index()
        env.epoch = epoch
        env.rngs = [np.random.default_rng(seed_for(seed, f"epoch-{epoch}-env-{i}")) for i in range(n_env)]
        rngs = [np.random.default_rng(seed_for(seed, f"epoch-{epoch}-act-{i}")) for i in range(n_env)]

        t_len = cfg.horizon
        obs_buf = np.zeros((t_len, n_env, obs_dim))
        act_buf = np.zeros((t_len, n_env, latent_dim))
        logp_buf = np.zeros((t_len, n_env))
        rew_buf = np.zeros((t_len, n_env))
        done_buf = np.zeros((t_len, n_env))
        hits = 0
        downs = 0
        episodes = 0
        for t in range(t_len):
            # the learner samples, the frozen instance takes its mean
            z = np.empty((2 * n_env, latent_dim))
            z[learner::2], act_buf[t], logp_buf[t] = high_level_step(
                policy, params[learner], obs[learner::2], rngs)
            z[1 - learner::2] = high_level_step(policy, params[1 - learner], obs[1 - learner::2])[0]
            obs_buf[t] = obs[learner::2]
            obs, rewards, done, info = env.decision_step(z)
            rew_buf[t] = rewards[:, learner]
            done_buf[t] = done
            episodes += int(done.sum())
            downs += info["reason"].count("knockdown")
            hits += int(info["hits"][:, learner].sum())
        # one stacked forward over the per-env (T, obs_dim) slices, so each
        # env's rows keep the bits of a forward over that env alone
        values_t = nets.forward_batch(value_spec, values[learner], obs_buf.transpose(1, 0, 2))[..., 0].T
        boot = nets.forward_batch(value_spec, values[learner], obs[learner::2][:, None, :])[:, 0, 0]
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
    prior = Path(slmp_dir) / "pi_phi.ckpt"
    if prior.resolve() != (out / "pi_phi.ckpt").resolve():
        shutil.copyfile(prior, out / "pi_phi.ckpt")
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
    env = CombatEnv(phi_spec, phi_params, spec, phys, cfg, [np.random.default_rng(seed)])
    env.epoch = cfg.early_epochs  # disable the early separation rule
    frames = []
    steps = math.floor(seconds / (phys.dt * cfg.k_hl) + 1e-9)
    for _ in range(steps):
        obs = env.observe()
        z = np.concatenate([high_level_step(policy, p, obs[agent : agent + 1])[0]
                            for agent, (policy, p) in enumerate(pols)])
        frames.append(env.states)
        _, _, done, _ = env.decision_step(z)
        if done[0]:
            break
    return frames
