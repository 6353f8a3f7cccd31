"""Two-agent planar combat driven through the frozen latent prior.

High-level policies emit unit-sphere latents at a reduced decision rate;
the prior maps (state, latent) to PD targets every control step.  Rewards
are sparse rule-based hit/knockdown terms, and episodes terminate on
knockdowns, sustained clinching or reward-farming proximity, early-phase
disengagement, or the episode cap.  Training alternates between two
independently evolving policy instances.

Hits, rewards, termination, spawns and rollout frames are row arrays
(see the row layout below).  A row's step reward adds its terms one at a
time: its pair's limb hits, the lower row's limbs first, each
``+k_hit * min(f, f_cap)`` when the row struck and minus that when it was
struck; then ``+knockdown_bonus`` if the opponent fell and minus it if
the row fell.  A term that did not happen adds as a signed zero.  That
is exact: ``x + 0.0`` is ``x`` for every ``x`` but ``-0.0``, and the sum,
which starts at ``+0.0`` and rounds a cancellation to ``+0.0``, is never
``-0.0``.
"""
from __future__ import annotations

import math
import shutil
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import distill as di
from . import nets
from . import physics as ph
from . import seeding
from . import tracking as tr


@dataclass
class CombatConfig:
    k_hit: float = ph.NON_NEGATIVE(0.01)  # reward per clamped newton of hit force
    f_cap: float = ph.NON_NEGATIVE(200.0)
    f_hit: float = ph.NON_NEGATIVE(30.0)  # minimum contact force for a scoring hit
    hit_dist: float = ph.NON_NEGATIVE(0.3)  # limb-to-region distance gate
    knockdown_bonus: float = ph.NON_NEGATIVE(50.0)
    swap_period: int = ph.POSITIVE_COUNT(250)  # epochs between role swaps
    early_epochs: int = ph.COUNT(500)  # separation rule active while epoch < this
    episode_s: float = ph.NON_NEGATIVE(15.0)
    close_dist: float = ph.NON_NEGATIVE(0.3)  # root-to-root clinch distance
    close_s: float = ph.NON_NEGATIVE(1.0)
    farm_s: float = ph.NON_NEGATIVE(1.0)  # limb parked on a scoring region
    far_dist: float = ph.NON_NEGATIVE(1.2)
    k_hl: int = ph.POSITIVE_COUNT(2)  # low-level steps per high-level decision
    spawn_gap: float = ph.NON_NEGATIVE(1.0)
    spawn_noise: float = ph.NON_NEGATIVE(0.02)
    epochs: int = ph.POSITIVE_COUNT(500)
    envs: int = ph.shared(tr.PpoConfig, "envs", 8)
    horizon: int = ph.shared(tr.PpoConfig, "horizon", 64)  # decisions per env per epoch
    lr: float = ph.shared(tr.PpoConfig, "lr", 5e-5)
    gamma: float = ph.shared(tr.PpoConfig, "gamma")
    clip_eps: float = ph.shared(tr.PpoConfig, "clip_eps")
    gae_lambda: float = ph.shared(tr.PpoConfig, "gae_lambda")
    batch_size: int = ph.shared(tr.PpoConfig, "batch_size", 1024)
    epochs_per_update: int = ph.shared(tr.PpoConfig, "epochs_per_update")
    entropy_coef: float = ph.shared(tr.PpoConfig, "entropy_coef", 0.005)
    value_coef: float = ph.shared(tr.PpoConfig, "value_coef")
    std_init: float = ph.shared(tr.PpoConfig, "std_init")
    pi_h_hidden: tuple[int, ...] = ph.WIDTHS((128, 128, 64))
    critic_hidden: tuple[int, ...] = ph.shared(tr.PpoConfig, "critic_hidden")

    def __post_init__(self):
        ph.check_rules(self)

    def ppo(self) -> tr.PpoConfig:
        shared = {f.name: getattr(self, f.name) for f in fields(tr.PpoConfig) if hasattr(self, f.name)}
        return tr.PpoConfig(**shared, learn_std=True, pi_hidden=tuple(self.pi_h_hidden))


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
# ``_flips`` tiles them over all rows.  Per-limb arrays such as the hit
# mask are (2E, 4) in LIMB_SITES order; a pair's reward terms are its
# (2, 4) block in row-major order.
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


# own proprioception, the opponent's root state relative to it (facing is the
# sin, cos of the relative angle), limb-to-region vectors and contact forces
COMBAT_OBS = ph.Layout(proprio=tr.PROPRIO, offset=2, facing=2, velocity=2, rate=1,
                       limbs=2 * len(LIMB_SITES) * len(REGIONS), forces=len(FORCE_SITES))
combat_obs_dim = COMBAT_OBS.width  # perfbench reads this alias until ROADMAP item 2


def combat_observation(
    world: ph.World,
    k: ph.Kinematics,
    site_force: np.ndarray,
    spec: ph.CharacterSpec,
) -> np.ndarray:
    """``COMBAT_OBS`` rows of every slot, from the Kinematics ``k`` of
    ``world`` and the (2E, n_sites) forces of the last step.  Vectors are
    in each slot's root frame, taken in its canonical (slot-1 mirrored) frame."""
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
    o = COMBAT_OBS.of(spec.n_joints)
    out = np.empty((n, o.width))
    tr.proprio_rows(*own, out=out[:, o.proprio])
    out[:, o.offset] = vecs[:, 0]
    rel = out[:, o.facing]
    rel[:, :1], rel[:, 1:] = np.sin(d_angle), np.cos(d_angle)
    out[:, o.velocity] = vecs[:, 1]
    out[:, o.rate] = (world.qd[opp, :1] - world.qd[:, :1]) * flip_q
    out[:, o.limbs] = vecs[:, 2:].reshape(n, -1)
    out[:, o.forces] = site_force[:, [spec.site_index[n] for n in FORCE_SITES]]
    return out


def hit_events(
    dist: np.ndarray,
    site_opponent: np.ndarray,
    spec: ph.CharacterSpec,
    cfg: CombatConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Scoring hits: a hand/foot within hit_dist of an opponent scoring
    region whose opponent-contact force exceeds f_hit.  ``dist`` is the
    (2E, 4, 2) array of ``limb_region_dist`` and ``site_opponent`` the
    (2E, n_sites) opponent-contact forces.  Returns the (2E, 4) mask of
    scoring hits, row a's limb l striking row a ^ 1, and the (2E, 4)
    opponent-contact forces of the striking limbs."""
    force = site_opponent[:, [spec.site_index[n] for n in LIMB_SITES]]
    # not (force <= f_hit): a NaN force of a diverging step passes the gate
    return ~(force <= cfg.f_hit) & (dist.min(axis=2) < cfg.hit_dist), force


# the sign of a pair's 8 limb terms for its lower and its upper row
_HIT_SIGN = np.repeat([[1.0, -1.0], [-1.0, 1.0]], len(LIMB_SITES), axis=1)


def combat_rewards(
    hit: np.ndarray, force: np.ndarray, fell: np.ndarray, cfg: CombatConfig
) -> np.ndarray:
    """Rule-based rewards of one control step, (2E,), from the hits of
    ``hit_events`` and the (2E,) fall flags, summed in the order of the
    module notes."""
    n = len(hit)
    gain = np.where(hit, cfg.k_hit * np.minimum(force, cfg.f_cap), 0.0)
    terms = (gain.reshape(n // 2, 1, -1) * _HIT_SIGN).reshape(n, -1)
    r = np.zeros(n)
    for term in terms.T:
        r += term
    r += np.where(fell[_opponents(n)], cfg.knockdown_bonus, 0.0)
    r -= np.where(fell, cfg.knockdown_bonus, 0.0)
    return r


# the termination rules of ``check_termination``, first match wins
END_REASONS = np.array(["knockdown", "clinch", "farming", "separated", "timeout"], dtype=object)


@dataclass
class TerminationTimers:
    """Per-env seconds that each sustained condition has held, (E,) each."""

    close: np.ndarray
    farm: np.ndarray


def check_termination(
    root_dist: np.ndarray,
    limb_region_dist: np.ndarray,
    knockdown: np.ndarray,
    t: np.ndarray,
    timers: TerminationTimers,
    dt: float,
    epoch: int,
    cfg: CombatConfig,
) -> tuple[np.ndarray, TerminationTimers]:
    """Sustained-condition episode termination of E envs from (E,) arrays.

    Returns the (E,) object array of reasons (a str, or None) and the new
    timers.  Timers accumulate while their condition holds and reset
    otherwise; a knocked-down env keeps its timers.  The separation rule
    applies only during early training epochs.
    """
    close = np.where(root_dist < cfg.close_dist, timers.close + dt, 0.0)
    farm = np.where(limb_region_dist < cfg.hit_dist, timers.farm + dt, 0.0)
    rules = np.stack([
        knockdown,
        close > cfg.close_s,
        farm > cfg.farm_s,
        (epoch < cfg.early_epochs) & (root_dist > cfg.far_dist),
        t >= cfg.episode_s,
    ])
    reasons = np.where(rules.any(axis=0), END_REASONS[rules.argmax(axis=0)], None)
    timers = TerminationTimers(np.where(knockdown, timers.close, close),
                               np.where(knockdown, timers.farm, farm))
    return reasons, timers


def high_level_step(
    policy: tr.GaussianPolicy,
    net: nets.RowNet,
    obs: np.ndarray,
    rngs: list[np.random.Generator] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Latents for the ``COMBAT_OBS`` rows ``obs`` under the instance's
    ``policy.row_net`` ``net``: row e samples the latent head with
    ``rngs[e]``, or takes its mean without ``rngs``, and is projected onto
    the sphere.  Returns (unit latents, raw gaussian samples, log-probs)
    of shapes (E, d), (E, d) and (E,)."""
    if rngs is None:
        raw = net(obs)
        logp = np.zeros(len(obs))
    else:
        raw, logp = policy.sample_rows(net, obs, rngs)
    norm = ph.row_norms(raw)
    for e, rng in enumerate(rngs or ()):
        while norm[e] < 1e-9:  # redraw a degenerate sample
            (raw[e],), (logp[e],) = policy.sample_rows(net, obs[e : e + 1], [rng])
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
    holds one generator per env, which draws that env's spawn noise.  The
    frozen prior is held as its row net, ``prior``.
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
        self.prior = nets.RowNet(phi_spec, phi_params)
        self.spec = spec
        self.phys = phys
        self.cfg = cfg
        self.rngs = rngs
        self.epoch = 0
        stance = ph.nominal_stance(spec, phys)
        self.arms = [spec.link_index[n] for n in ph.GUARD_ARMS]  # the q columns of the arm links
        # a pair's rows at spawn, before its offsets and noise
        self.stance = ph.World.of([stance, ph.mirror_state(stance, 0.0)], spec)
        n = len(rngs)
        self.world = ph.World.zeros(2 * n, spec)
        self.site_force = np.zeros((2 * n, len(spec.sites)))  # of the last step
        self.timers = TerminationTimers(np.zeros(n), np.zeros(n))
        self.t = np.zeros(n)
        self._spawn(np.arange(n))

    def _spawn(self, envs: np.ndarray) -> None:
        """Put the fighter pairs of ``envs`` at their spawn: the stance rows
        shifted apart by spawn_gap, then each env's spawn noise on the arm
        angles and the root x of slot 0, then slot 1, drawn from its
        generator in env order (the anchors move with the root)."""
        w, cfg = self.world, self.cfg
        rows = 2 * envs[:, None] + np.arange(2)  # (len(envs), 2)
        for f in fields(w):
            getattr(w, f.name)[rows] = getattr(self.stance, f.name)
        x = np.array([-0.5, 0.5]) * cfg.spawn_gap
        w.root_pos[rows, 0] += x
        w.anchor_x[rows] += x[:, None]
        noise = cfg.spawn_noise
        if noise > 0.0:
            u = np.array([self.rngs[e].uniform(-noise, noise, 10) for e in envs]).reshape(-1, 2, 5)
            w.q[rows[..., None], self.arms] += u[..., :4]
            w.root_pos[rows, 0] += u[..., 4]
            w.anchor_x[rows] += (w.root_pos[rows, 0] - x)[..., None]
        self.site_force[rows] = 0.0
        self.timers.close[envs] = self.timers.farm[envs] = 0.0
        self.t[envs] = 0.0

    def observe(self) -> np.ndarray:
        """``COMBAT_OBS`` rows of every slot."""
        k = ph.Kinematics.of(self.world, self.spec)
        return combat_observation(self.world, k, self.site_force, self.spec)

    def decision_step(self, z: np.ndarray):
        """Hold every row's latent, ``z`` (2E, latent width), for k_hl
        control steps.

        Returns (obs_rows, rewards, done, info): the (2E, ``COMBAT_OBS``)
        observation rows, the (E, 2) rewards of both slots, the (E,) done
        flags, and per env the termination reason (or None) under
        "reason", the (E, 2) Hit counts under "hits" and the episode time
        under "t".  An env whose episode ends takes no rewards, hits or
        timer updates for the rest of the decision and is respawned at its
        end.
        """
        cfg, spec, phys = self.cfg, self.spec, self.phys
        n = len(self.rngs)
        flip_q, _ = _flips(2 * n)
        rewards = np.zeros((n, 2))
        hits = np.zeros((n, 2), dtype=int)
        reasons = np.full(n, None, dtype=object)
        done = np.zeros(n, dtype=bool)
        for _ in range(cfg.k_hl):
            proprio = tr.proprio_rows(*slot_frames(self.world))
            targets = di.prior_action(self.prior, proprio, z) * flip_q
            self.world, report = ph.step_batch(
                self.world, spec, phys.dt, phys, pd_targets=targets, coupled=True,
            )
            self.site_force = report.site_force
            live = ~done
            self.t = np.where(live, self.t + phys.dt, self.t)
            k = report.kin
            fell = ph.fallen(self.world.valid, k, spec, phys)
            dist = limb_region_dist(k, spec)
            hit, force = hit_events(dist, report.site_opponent, spec, cfg)
            pos = self.world.root_pos
            root_dist = ph.row_norms(pos[0::2] - pos[1::2])
            ended, timers = check_termination(
                root_dist, dist.reshape(n, -1).min(axis=1), fell.reshape(n, 2).any(axis=1),
                self.t, self.timers, phys.dt, self.epoch, cfg,
            )
            self.timers = TerminationTimers(np.where(live, timers.close, self.timers.close),
                                            np.where(live, timers.farm, self.timers.farm))
            rewards[live] += combat_rewards(hit, force, fell, cfg).reshape(n, 2)[live]
            hits[live] += hit.sum(axis=1).reshape(n, 2)[live]
            reasons[live] = ended[live]
            done = reasons != None  # elementwise over the object array
            if done.all():
                break
        info = {"reason": reasons.tolist(), "hits": hits, "t": self.t.copy()}
        if done.any():
            self._spawn(np.flatnonzero(done))
            k = ph.Kinematics.of(self.world, spec)  # _spawn left k stale for those rows
        return combat_observation(self.world, k, self.site_force, spec), rewards, done, info


def learner_index(epoch: int, swap_period: int) -> int:
    """Which of the two policy instances trains in ``epoch``: the first for
    ``swap_period`` epochs, then the second, and so on."""
    return (epoch // swap_period) % 2


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
    independently; roles swap every cfg.swap_period epochs
    (``learner_index``).  ``tracking.run_stage`` runs the epochs and writes
    their ``COMBAT_METRICS`` rows, then both instances are saved.
    """
    spec = spec or ph.default_character()
    phys = phys or ph.default_config(spec)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_env = cfg.envs
    phi_spec, phi_params, latent_dim = di.load_prior(slmp_dir, spec)
    env = CombatEnv(phi_spec, phi_params, spec, phys, cfg, seeding.rngs(seed, "cenv", n_env))
    del phi_params  # the env keeps the prior as its row net only

    pcfg = cfg.ppo()
    # the two instances, identical at the start
    agents = [tr.build_networks(COMBAT_OBS.width(spec), latent_dim, pcfg, seed,
                                ("pi-h-init", "vh-init")) for _ in range(2)]

    # the current ``COMBAT_OBS`` rows, carried across decisions and epochs
    obs = env.observe()

    def update(epoch: int) -> dict:
        learner = learner_index(epoch, cfg.swap_period)
        ts, frozen = agents[learner], agents[1 - learner]
        env.epoch = epoch
        env.rngs = seeding.rngs(seed, f"epoch-{epoch}-env", n_env)
        learner_net, frozen_net = (a.policy.row_net(a.policy_params) for a in (ts, frozen))

        def step(z_learner):  # one decision, seen from the learner's rows
            nonlocal obs
            z = np.empty((2 * n_env, latent_dim))
            z[learner::2] = z_learner
            z[1 - learner::2] = high_level_step(frozen.policy, frozen_net, obs[1 - learner::2])[0]
            obs, rewards, done, info = env.decision_step(z)
            knockdown = np.array([reason == "knockdown" for reason in info["reason"]])
            return (obs[learner::2], rewards[:, learner], done,
                    {"hits": info["hits"][:, learner], "knockdown": knockdown})

        # the learner samples first, then the frozen instance takes its mean
        buf = tr.collect(step, obs[learner::2], partial(high_level_step, ts.policy, learner_net),
                         ts.value_spec, ts.value_params, cfg.horizon, ("hits", "knockdown"),
                         seeding.rngs(seed, f"epoch-{epoch}-act", n_env))
        shuffle = np.random.default_rng(seeding.seed_for(seed, f"epoch-{epoch}-shuffle"))
        m = tr.ppo_round(ts, buf, pcfg, shuffle)
        episodes = max(buf.dones.sum(), 1.0)
        return m | {
            "learner": learner, "reward": buf.rewards.mean(),
            "hits_per_episode": buf.info["hits"].sum() / episodes,
            "knockdowns_per_episode": buf.info["knockdown"].sum() / episodes,
            "episode_steps": buf.rewards.size / episodes,
        }

    tr.run_stage(out, COMBAT_METRICS, 25, "[combat] epoch {epoch} learner {learner} "
                 "reward {reward:.3f} hits/ep {hits_per_episode:.2f}", log, cfg.epochs, update)
    for i, ts in enumerate(agents, 1):
        tr.save_policy(out / f"pi_h_{i}.ckpt", f"pi_h_{i}", ts.policy, ts.policy_params)
        nets.save_checkpoint(out / f"critic_h_{i}.ckpt", f"critic_h_{i}", ts.value_spec, ts.value_params)
    # embed the prior so rollouts load from one directory
    prior = Path(slmp_dir) / "pi_phi.ckpt"
    if prior.resolve() != (out / "pi_phi.ckpt").resolve():
        shutil.copyfile(prior, out / "pi_phi.ckpt")
    return [ts.policy_params for ts in agents], [ts.value_params for ts in agents]


def rollout_combat(
    ckpt_dir: str | Path,
    seconds: float,
    seed: int,
    cfg: CombatConfig | None = None,
    spec: ph.CharacterSpec | None = None,
    phys: ph.PhysicsConfig | None = None,
) -> list[np.ndarray]:
    """Deterministic-mode combat rollout: each fighter's (decisions, 6 + 2J)
    frame rows (``motion.split_frames``), its row before every decision, up
    to the first episode end."""
    spec = spec or ph.default_character()
    phys = phys or ph.default_config(spec)
    cfg = cfg or CombatConfig()
    phi_spec, phi_params, latent_dim = di.load_prior(ckpt_dir, spec)
    env = CombatEnv(phi_spec, phi_params, spec, phys, cfg, [np.random.default_rng(seed)])
    fighters = (tr.load_policy(Path(ckpt_dir) / f"pi_h_{i}.ckpt", COMBAT_OBS.width(spec), latent_dim)
                for i in (1, 2))
    pols = [(policy, policy.row_net(params)) for policy, params in fighters]
    env.epoch = cfg.early_epochs  # disable the early separation rule
    steps = math.floor(seconds / (phys.dt * cfg.k_hl) + 1e-9)
    frames = np.empty((2, steps, 4 + 2 * spec.ndof))  # fighter, decision, frame row
    obs = env.observe()
    for d in range(steps):
        z = np.concatenate([high_level_step(policy, net, obs[agent : agent + 1])[0]
                            for agent, (policy, net) in enumerate(pols)])
        frames[:, d] = np.concatenate(env.world.coords, axis=1)
        obs, _, done, _ = env.decision_step(z)
        if done[0]:
            steps = d + 1
            break
    return list(frames[:, :steps])
