"""Goal-conditioned motion-tracking expert trained with PPO.

The policy observes localized proprioception plus next-frame reference
discrepancies and outputs residual PD-target offsets around the reference
pose (tanh-squashed to +-pi/2).  Reward is exponential pose/velocity
matching plus an energy penalty.  Episodes use reference-state
initialization and reset on falls, clip ends, or tracking divergence.

``EnvBatch`` is the one owner of rollout state in every stage: the World
rows, clip times, clip indices into the shared ``motion.ClipLibrary``
and one reset generator per env.  A run builds one batch and steps it to
the end; a step gathers what it needs from library rows, so it reads no
``MotionClip``.  ``TrackingEnv`` is a one-env batch.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import motion as mo
from . import nets
from . import physics as ph
from . import seeding
from .seeding import seed_for

ACTION_SCALE = math.pi / 2.0

IMITATION_WEIGHTS = (0.5, 0.3, 0.1, 0.1)  # position, rotation, lin vel, ang vel
IMITATION_COEFFS = (100.0, 10.0, 0.1, 0.1)
ENERGY_COEFF = 5e-4
E_DIV = 0.5  # mean site error (m) that counts as divergence
# the light limbs make exploration-noise torques explode the energy term to
# 1e5-scale, drowning the <=1 imitation signal; the env clamps the penalty's
# reward contribution to this floor (the formula itself is untouched)
ENERGY_FLOOR = -0.05


@dataclass
class PpoConfig:
    # lr 5e-5 suits 32k-sample batches; at this batch scale it cannot
    # traverse parameter space within a 2000-update budget
    lr: float = 3e-4
    gamma: float = 0.99
    clip_eps: float = 0.2
    gae_lambda: float = 0.95
    envs: int = 32
    horizon: int = 64
    batch_size: int = 4096
    epochs_per_update: int = 4
    entropy_coef: float = 0.0005
    value_coef: float = 1.0
    std_init: float = 0.3
    # exploration noise: without learn_std the action std anneals from std_init
    # to std_final over std_anneal_updates (sigma_at); with it the optimiser owns
    # the log-std, which fails to anneal at desk scale (see the training notes)
    std_final: float = 0.05
    std_anneal_updates: int = 600
    learn_std: bool = False
    updates: int = 2000
    pi_hidden: tuple[int, ...] = (256, 256, 128)
    critic_hidden: tuple[int, ...] = (128, 128)
    # perfbench reads these two constants here until ROADMAP item 2; class
    # attributes, not fields, so they are not config keys
    e_div = E_DIV
    energy_floor = ENERGY_FLOOR

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError(f"gae_lambda must be in [0, 1], got {self.gae_lambda}")
        ph.require_positive(self, ("lr", "clip_eps", "std_init", "std_final", "envs", "horizon",
                                   "batch_size", "epochs_per_update"))
        ph.require_non_negative(self, ("entropy_coef", "value_coef"))

    def sigma_at(self, update: int) -> float:
        frac = min(1.0, update / max(1, self.std_anneal_updates))
        return self.std_init + frac * (self.std_final - self.std_init)


# localized proprioception: facing is (sin, cos), root_vel in the root frame
PROPRIO = ph.Layout(height=1, facing=2, joints=lambda n: n, root_vel=2, rates=lambda n: n + 1)
TRACK_OBS = ph.Layout(proprio=PROPRIO, goal=mo.GOAL)
# perfbench reads these two aliases until ROADMAP item 2
proprio_dim, track_obs_dim = PROPRIO.width, TRACK_OBS.width


def proprio_rows(root_pos, q, root_vel, qd, *, cs=None, out=None) -> np.ndarray:
    """``PROPRIO`` rows of every env.

    ``cs``, the cos and sin of the root angles ``q[:, 0]``, and ``out``, an
    (E, ``PROPRIO`` width) array to write into, let a caller share the
    trig and the buffer with the rest of an observation.
    """
    p = PROPRIO.of(q.shape[1] - 1)
    c, s = (np.cos(q[:, 0]), np.sin(q[:, 0])) if cs is None else cs
    out = np.empty((len(q), p.width)) if out is None else out
    out[:, p.height] = root_pos[:, 1:]
    facing = out[:, p.facing]
    facing[:, 0], facing[:, 1] = s, c
    ph.wrap_angle(q[:, 1:], out=out[:, p.joints])
    ph.rotate_into(out[:, p.root_vel], c, s, root_vel)
    out[:, p.rates] = qd
    return out


def _coords(state: ph.SimState):
    return state.root_pos[None], state.theta()[None], state.root_vel[None], state.theta_dot()[None]


def track_obs(state: ph.SimState, spec: ph.CharacterSpec, clip: mo.MotionClip, t: float) -> np.ndarray:
    return np.concatenate([proprio_rows(*_coords(state))[0], mo.goal_state(clip, t, state)])


def site_error_rows(sim: ph.Kinematics, ref: ph.Kinematics) -> np.ndarray:
    """Mean site position error of every env against its reference, (E,)."""
    return np.sqrt((sim.site_x - ref.site_x) ** 2 + (sim.site_y - ref.site_y) ** 2).mean(axis=1)


def imitation_rows(
    spec: ph.CharacterSpec,
    sim: ph.Kinematics,
    sim_coords,
    ref: ph.Kinematics,
    ref_coords,
) -> tuple[np.ndarray, np.ndarray]:
    """``imitation_reward`` of every env: (reward, site error), each (E,).

    ``*_coords`` are the (root_pos, q, root_vel, qd) rows the kinematics
    were built from.
    """
    _, q_s, _, qd_s = sim_coords
    _, q_r, _, qd_r = ref_coords
    e_p = site_error_rows(sim, ref)
    e_r = np.abs(ph.wrap_angle(q_s - q_r)).mean(axis=1)
    e_v = np.sqrt((sim.site_vx - ref.site_vx) ** 2 + (sim.site_vy - ref.site_vy) ** 2).mean(axis=1)
    e_w = np.abs(qd_s - qd_r).mean(axis=1)
    w = IMITATION_WEIGHTS
    c = IMITATION_COEFFS
    r = (
        w[0] * np.exp(-c[0] * e_p)
        + w[1] * np.exp(-c[1] * e_r)
        + w[2] * np.exp(-c[2] * e_v)
        + w[3] * np.exp(-c[3] * e_w)
    )
    return r, e_p


def imitation_reward(
    state: ph.SimState, ref: ph.SimState, spec: ph.CharacterSpec
) -> tuple[float, float]:
    """Exponential matching of site positions, rotations, and velocities.

    Returns (reward, mean site position error); the error doubles as the
    divergence signal for episode resets.
    """
    sim, ref = _coords(state), _coords(ref)
    r, e_p = imitation_rows(spec, ph.Kinematics(spec, *sim), sim, ph.Kinematics(spec, *ref), ref)
    return float(r[0]), float(e_p[0])


def energy_penalty(torques: np.ndarray, joint_vels: np.ndarray) -> np.ndarray:
    """-5e-4 * sum_j (tau_j * omega_j)^2 of every row of the (E, n_joints)
    arrays, (E,)."""
    if torques.shape != joint_vels.shape:
        raise ValueError("torques and joint_vels must have equal shapes")
    return -ENERGY_COEFF * np.sum((torques * joint_vels) ** 2, axis=1)


# --- gaussian policy ----------------------------------------------------

LOG_2PI = math.log(2.0 * math.pi)


def gaussian_log_prob(mu: np.ndarray, log_std: np.ndarray, act: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log-density of each row of ``act`` under N(mu, exp(log_std)^2), its
    standardized residual z = (act - mu) / exp(log_std))."""
    z = (act - mu) / np.exp(log_std)
    return -0.5 * (z * z).sum(axis=1) - log_std.sum() - 0.5 * mu.shape[1] * LOG_2PI, z


@dataclass(frozen=True)
class GaussianPolicy:
    """Diagonal-Gaussian policy: MLP mean plus a learned state-independent
    log-std stored as the trailing block of the parameter vector."""

    spec: nets.MlpSpec

    def init(self, rng: np.random.Generator, std_init: float) -> np.ndarray:
        return np.concatenate(
            [nets.init_params(self.spec, rng), np.full(self.spec.output_dim, math.log(std_init))]
        )

    def split(self, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = self.spec.param_count()
        return params[:n], params[n:]

    def row_net(self, params: np.ndarray) -> nets.RowNet:
        """The rollout forward of ``params``: the mean's row net, with the
        log-std as its ``extra``."""
        return nets.RowNet(self.spec, params, self.spec.output_dim)

    def sample(
        self, params: np.ndarray, obs: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, float]:
        obs = np.asarray(obs, dtype=np.float64)
        if obs.shape != (self.spec.input_dim,):
            raise ValueError(f"expected input shape ({self.spec.input_dim},), got {obs.shape}")
        act, logp = self.sample_rows(self.row_net(params), obs[None], [rng])
        return act[0], float(logp[0])

    def sample_rows(
        self, net: nets.RowNet, obs: np.ndarray, rngs: list[np.random.Generator]
    ) -> tuple[np.ndarray, np.ndarray]:
        """One action per observation row of ``obs`` under the policy's
        ``row_net``; row e draws its noise from ``rngs[e]``."""
        mu = net(obs)
        noise = np.empty(mu.shape)
        for row, rng in zip(noise, rngs):
            rng.standard_normal(out=row)
        act = mu + np.exp(net.extra) * noise
        return act, self.log_prob_batch(mu, net.extra, act)

    @staticmethod
    def log_prob_batch(mu: np.ndarray, log_std: np.ndarray, act: np.ndarray) -> np.ndarray:
        return gaussian_log_prob(mu, log_std, act)[0]

    @staticmethod
    def entropy(log_std: np.ndarray) -> float:
        return float(np.sum(log_std) + 0.5 * log_std.size * (1.0 + LOG_2PI))


def action_to_targets(action: np.ndarray, base_pose: np.ndarray) -> np.ndarray:
    """Residual PD targets: reference pose plus a tanh-squashed offset."""
    return base_pose + ACTION_SCALE * np.tanh(action)


# --- GAE and PPO --------------------------------------------------------


def gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    gamma: float,
    lam: float,
    bootstrap: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimation over (T, E) float arrays:
    (advantages, returns), each (T, E).

    ``bootstrap`` is the (E,) value estimate of the state after the last
    step (used when the trajectory is truncated rather than terminal).
    """
    t_len, n_env = rewards.shape
    adv = np.zeros_like(rewards)
    next_adv = np.zeros(n_env)
    next_val = bootstrap
    for t in range(t_len - 1, -1, -1):
        not_done = 1.0 - dones[t]
        delta = rewards[t] + gamma * next_val * not_done - values[t]
        next_adv = delta + gamma * lam * not_done * next_adv
        adv[t] = next_adv
        next_val = values[t]
    return adv, adv + values


@dataclass
class PpoBatch:
    obs: np.ndarray  # (N, observation width)
    actions: np.ndarray  # (N, act_dim)
    log_probs: np.ndarray  # (N,)
    advantages: np.ndarray  # (N,) normalized by ppo_update
    returns: np.ndarray  # (N,)


def ppo_loss_and_grads(
    policy: GaussianPolicy,
    policy_params: np.ndarray,
    value_spec: nets.MlpSpec,
    value_params: np.ndarray,
    batch: PpoBatch,
    cfg: PpoConfig,
    tape: nets.Tape | None = None,
):
    """Clipped-surrogate PPO loss with analytic gradients.

    The policy and then the value network run forward and backward in
    ``tape``, a fresh float64 one when None; ``ppo_update`` passes one
    float32 tape for all of its minibatches.  Returns (metrics,
    grad_policy, grad_value).
    """
    n = batch.obs.shape[0]
    mlp, log_std = policy.split(policy_params)
    tape = nets.Tape() if tape is None else tape
    mu = nets.forward_batch(policy.spec, mlp, batch.obs, tape)
    logp, z = gaussian_log_prob(mu, log_std, batch.actions)
    ratio = np.exp(logp - batch.log_probs)
    adv = batch.advantages
    s1 = ratio * adv
    s2 = np.clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps) * adv
    obj = np.minimum(s1, s2)
    policy_loss = -float(obj.mean())
    entropy = policy.entropy(log_std)
    clip_frac = float((np.abs(ratio - 1.0) > cfg.clip_eps).mean())

    # gradient flows only through the unclipped branch where it is active
    active = s1 <= s2
    inside = np.abs(ratio - 1.0) <= cfg.clip_eps
    # a clipped row's gradient is 0 even when its ratio overflowed to inf
    # (a 0/1 gate times ratio * adv would give 0 * inf = nan there)
    dobj_dlogp = np.where(active | inside, ratio * adv, 0.0)
    dpl_dlogp = -dobj_dlogp / n  # d(policy_loss)/d(logp_i)

    dlogp_dmu = z / np.exp(log_std)  # (N, d)
    g_mu = dpl_dlogp[:, None] * dlogp_dmu
    g_mlp, _ = nets.backward_batch(policy.spec, mlp, tape, g_mu, input_grad=False)
    dlogp_dls = z * z - 1.0  # (N, d)
    g_log_std = (dpl_dlogp[:, None] * dlogp_dls).sum(axis=0)
    if cfg.learn_std:
        g_log_std -= cfg.entropy_coef  # entropy bonus: dH/dlog_std = 1
    else:
        g_log_std[:] = 0.0
    grad_policy = np.concatenate([g_mlp, g_log_std])

    v = nets.forward_batch(value_spec, value_params, batch.obs, tape)[:, 0]
    verr = v - batch.returns
    value_loss = float((verr**2).mean())
    g_v = (2.0 * cfg.value_coef / n) * verr[:, None]
    grad_value, _ = nets.backward_batch(value_spec, value_params, tape, g_v, input_grad=False)

    total_loss = policy_loss + cfg.value_coef * value_loss - cfg.entropy_coef * entropy
    metrics = {
        "loss": total_loss,
        "policy_loss": policy_loss,
        "value_loss": value_loss,
        "entropy": entropy,
        "clip_fraction": clip_frac,
    }
    return metrics, grad_policy, grad_value


def ppo_update(
    policy: GaussianPolicy,
    policy_params: np.ndarray,
    policy_adam: nets.AdamState,
    value_spec: nets.MlpSpec,
    value_params: np.ndarray,
    value_adam: nets.AdamState,
    batch: PpoBatch,
    cfg: PpoConfig,
    rng: np.random.Generator,
):
    """Multi-epoch minibatched PPO step; advantages are normalized here.

    Returns (policy_params, policy_adam, value_params, value_adam, metrics).
    A minibatch with a non-finite loss or gradient is skipped and counted
    in ``metrics["skipped"]``.  All minibatches of all epochs share one
    ``nets.Tape`` of ``nets.LEARN_DTYPE``, so the learner computes in
    float32 over the float64 parameters and its working set is allocated
    once per update; it is released when the update returns.
    """
    n = batch.obs.shape[0]
    adv = batch.advantages
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    batch = PpoBatch(batch.obs, batch.actions, batch.log_probs, adv, batch.returns)
    metrics: dict[str, float] = {"skipped": 0.0}
    mb = min(cfg.batch_size, n)
    first = True
    tape = nets.Tape(nets.LEARN_DTYPE)
    for _epoch in range(cfg.epochs_per_update):
        order = rng.permutation(n) if mb < n else np.arange(n)
        for lo in range(0, n, mb):
            idx = order[lo : lo + mb]
            sub = PpoBatch(
                batch.obs[idx], batch.actions[idx], batch.log_probs[idx],
                batch.advantages[idx], batch.returns[idx],
            )
            m, g_p, g_v = ppo_loss_and_grads(
                policy, policy_params, value_spec, value_params, sub, cfg, tape
            )
            # a finite loss can still carry a non-finite gradient
            if not (math.isfinite(m["loss"]) and np.isfinite(g_p).all() and np.isfinite(g_v).all()):
                metrics["skipped"] += 1.0
                continue
            policy_params, policy_adam = nets.adam_step(policy_params, g_p, policy_adam)
            value_params, value_adam = nets.adam_step(value_params, g_v, value_adam)
            if first:
                metrics.update({f"first_{k}": v for k, v in m.items()})
                first = False
            metrics.update(m)
    return policy_params, policy_adam, value_params, value_adam, metrics


# --- environment --------------------------------------------------------


@dataclass
class RolloutBuffer:
    """Per-step arrays shaped (T, E, ...); advantages filled by gae().
    ``info`` holds the (T, E) step-info columns that ``collect`` kept."""

    obs: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    values: np.ndarray
    log_probs: np.ndarray
    dones: np.ndarray
    bootstrap: np.ndarray  # (E,)
    advantages: np.ndarray | None = None
    returns: np.ndarray | None = None
    info: dict[str, np.ndarray] = field(default_factory=dict)

    def flat(self) -> PpoBatch:
        if self.advantages is None:
            raise ValueError("run gae() before flattening the buffer")
        t, e = self.rewards.shape
        return PpoBatch(
            self.obs.reshape(t * e, -1),
            self.actions.reshape(t * e, -1),
            self.log_probs.reshape(t * e),
            self.advantages.reshape(t * e),
            self.returns.reshape(t * e),
        )


def _draw_start(library: mo.ClipLibrary, rng: np.random.Generator) -> tuple[int, int]:
    """Reference-state initialization at a random clip frame: (clip index,
    frame), drawn from ``rng``."""
    clip_index = int(rng.integers(len(library)))
    return clip_index, int(rng.integers(library.n_frames[clip_index] - 1))


class EnvBatch:
    """Tracking envs stepped in lock-step as rows of one ``physics.World``.

    The batch is the one owner of their rollout state: the World rows,
    the clip time ``t``, the int ``clip_index`` into the shared
    ``motion.ClipLibrary`` of ``clips``, and ``rngs``, one generator per
    env for its reset draws.  A run builds one batch and steps it to the
    end; the tracking checkpoint saves its rows.  Env i starts at frame
    ``starts[i] = (clip index, frame)``, or at a start it draws from
    ``rngs[i]``, in env order.  Every env ends an episode at a mean site
    error above ``E_DIV`` and floors its energy penalty at ``ENERGY_FLOOR``.

    Reference frames, goals, clip ends and resets are gathers of library
    rows by ``clip_index``, so a step reads no ``MotionClip``.  Each row's
    arithmetic is independent of E (see the physics module notes), and
    the per-env random draws keep their order: step t's action draw comes
    before step t's reset draws, which come before step t+1's action
    draw.  That makes rollouts independent of the batching as long as no
    two envs share a generator.
    """

    def __init__(
        self,
        clips: list[mo.MotionClip],
        spec: ph.CharacterSpec,
        phys: ph.PhysicsConfig,
        rngs: list[np.random.Generator],
        starts: list[tuple[int, int]] | None = None,
    ):
        if short := [f"{c.clip_id!r} has {c.n_frames}" for c in clips if c.n_frames < 2]:
            raise ValueError(f"a rollout needs clips of 2 frames or more; clip {', '.join(short)}")
        if other := [c for c in clips if c.n_joints != spec.n_joints]:
            raise ValueError(f"clip {other[0].clip_id!r} has {other[0].n_joints} joints, "
                             f"the character has {spec.n_joints}")
        self.library = mo.ClipLibrary.of(clips)
        self.spec, self.phys = spec, phys
        self.rngs = list(rngs)
        self.goal: np.ndarray | None = None  # next reference frames at self.t
        n = len(self.rngs)
        self.world = ph.World.zeros(n, spec)
        self.t = np.zeros(n)
        self.clip_index = np.zeros(n, dtype=np.int64)
        if starts is None:
            starts = [_draw_start(self.library, rng) for rng in self.rngs]
        self._start(np.arange(n), *np.array(starts, dtype=np.int64).reshape(n, 2).T)

    def __len__(self) -> int:
        return len(self.t)

    def rows(self, keep: np.ndarray) -> "EnvBatch":
        """The envs at indices ``keep`` as a batch of their own: copies of
        their rows, with the same generators."""
        return self._holding(
            self.world.rows(keep), self.t[keep], self.clip_index[keep], [self.rngs[i] for i in keep]
        )

    @staticmethod
    def join(batches: list["EnvBatch"]) -> "EnvBatch":
        """The rows of ``batches`` as one new batch, in list order."""
        first = batches[0]
        for b in batches[1:]:
            if b.library is not first.library or b.spec != first.spec or b.phys != first.phys:
                raise ValueError("joined envs must share clips, character and physics")
        return first._holding(
            ph.World.join([b.world for b in batches]),
            np.concatenate([b.t for b in batches]),
            np.concatenate([b.clip_index for b in batches]),
            [rng for b in batches for rng in b.rngs],
        )

    def _holding(self, world, t, clip_index, rngs) -> "EnvBatch":
        """An ``EnvBatch`` with this batch's clips, character and physics
        that holds the given rows."""
        out = object.__new__(EnvBatch)
        vars(out).update(vars(self), world=world, t=t, clip_index=clip_index, rngs=rngs, goal=None)
        return out

    def observe(self) -> np.ndarray:
        """``TRACK_OBS`` rows of every env, written into one array."""
        self.goal = mo.goal_frames(self.library, self.clip_index, self.t)
        root_pos, q, root_vel, qd = self.world.coords
        cs = np.cos(q[:, 0]), np.sin(q[:, 0])
        o = TRACK_OBS.of(self.spec.n_joints)
        obs = np.empty((len(q), o.width))
        proprio_rows(root_pos, q, root_vel, qd, cs=cs, out=obs[:, o.proprio])
        mo.goal_rows(self.goal, root_pos, q, root_vel, qd, cs=cs, out=obs[:, o.goal])
        return obs

    def ref_base(self) -> np.ndarray:
        """Next-frame reference joint pose of every env: the residual
        action base."""
        if self.goal is None:
            self.goal = mo.goal_frames(self.library, self.clip_index, self.t)
        return self.goal[:, 3 : 3 + self.spec.n_joints]

    def step(self, targets: np.ndarray):
        """Advance every env one control step with (E, n_joints) PD targets.

        Returns (obs, reward, done, info) with one row per env; finished
        envs are reset and ``obs`` is their first observation.  The info
        rows describe the stepped states, before any reset; ``idle_fw``
        marks envs on an idle or footwork clip.
        """
        spec, phys, w, lib, ci = self.spec, self.phys, self.world, self.library, self.clip_index
        if targets.shape != (len(w), spec.n_joints):
            raise ValueError(f"expected ({len(w)}, {spec.n_joints}) targets, got {targets.shape}")
        self.world, report = ph.step_batch(w, spec, phys.dt, phys, pd_targets=targets)
        # the first substep's PD torques against the pre-step joint rates
        energy = np.maximum(energy_penalty(report.torques, w.qd[:, 1:]), ENERGY_FLOOR)
        self.t = self.t + phys.dt
        # the World advances its time per substep, which drifts from t
        self.world.time[:] = self.t

        ref = mo.split_frames(mo.sample_frames(lib, ci, self.t))
        sim = report.kin
        imit, e_p = imitation_rows(spec, sim, self.world.coords, ph.Kinematics(spec, *ref), ref)
        fell = ph.fallen(self.world.valid, sim, spec, phys)
        diverged = ~self.world.valid | (e_p > E_DIV)
        clip_end = self.t + phys.dt > lib.duration[ci] - 1.0 / lib.frame_rate[ci]
        done = fell | diverged | clip_end
        info = {
            "imitation": imit,
            "energy": energy,
            "site_error": e_p,
            "idle_fw": lib.idle_fw[ci],
            "fell": fell,
            "diverged": diverged,
            "clip_end": clip_end,
        }
        rows = np.flatnonzero(done)
        if len(rows):
            self._start(rows, *np.array([_draw_start(lib, self.rngs[i]) for i in rows]).T)
        return self.observe(), imit + energy, done, info

    def _start(self, rows: np.ndarray, clip_index: np.ndarray, frame: np.ndarray) -> None:
        """Put ``rows`` at frame ``frame`` of clip ``clip_index``: the frames
        go straight into the World rows, valid and without friction
        anchors, as ``World.put`` of ``MotionClip.frame_state`` writes them."""
        lib, w = self.library, self.world
        t = frame / lib.frame_rate[clip_index]
        w.root_pos[rows], w.q[rows], w.root_vel[rows], w.qd[rows] = mo.split_frames(
            lib.frames[lib.offset[clip_index] + frame]
        )
        w.time[rows] = t
        w.valid[rows] = True
        w.anchor_x[rows] = 0.0
        w.anchor_on[rows] = False
        self.t[rows] = t
        self.clip_index[rows] = clip_index


class TrackingEnv(EnvBatch):
    """A one-env ``EnvBatch`` at a start drawn from ``rng``, for callers
    that build envs one at a time.  Its ``step`` returns row 0 as scalars,
    and ``collect_rollouts`` joins a list of them into one batch."""

    def __init__(
        self,
        clips: list[mo.MotionClip],
        spec: ph.CharacterSpec,
        phys: ph.PhysicsConfig,
        e_div: float = E_DIV,
        rng: np.random.Generator | None = None,
        energy_floor: float = ENERGY_FLOOR,
    ):
        # perfbench passes both constants until ROADMAP item 2; any other value is refused
        if (e_div, energy_floor) != (E_DIV, ENERGY_FLOOR):
            raise ValueError(f"e_div={e_div}, energy_floor={energy_floor}: tracking uses "
                             f"E_DIV={E_DIV} and ENERGY_FLOOR={ENERGY_FLOOR}")
        super().__init__(clips, spec, phys, [rng or np.random.default_rng(0)])

    @property
    def rng(self) -> np.random.Generator:
        return self.rngs[0]

    def step(self, targets: np.ndarray):
        """Advance one control step with absolute (n_joints,) PD targets.

        Returns (obs, reward, done, info).
        """
        obs, reward, done, info = super().step(np.asarray(targets, dtype=np.float64)[None])
        return obs[0], float(reward[0]), bool(done[0]), {k: v[0].item() for k, v in info.items()}


def _track_act(policy: GaussianPolicy, net: nets.RowNet, batch: EnvBatch, obs: np.ndarray,
               rngs: list[np.random.Generator]):
    """``collect``'s actor for tracking: the policy's sampled actions and
    their log-probs, with the PD targets they give around the reference."""
    a, lp = policy.sample_rows(net, obs, rngs)
    return action_to_targets(a, batch.ref_base()), a, lp


TRACK_INFO = ("imitation", "idle_fw")  # the step-info columns a tracking rollout keeps


def collect(step: Callable, obs: np.ndarray, act: Callable, value_spec: nets.MlpSpec,
            value_params: np.ndarray, horizon: int, keys: tuple[str, ...],
            rngs: list[np.random.Generator]) -> RolloutBuffer:
    """The PPO rollout loop of every stage: ``horizon`` steps from the
    observation rows ``obs``.  ``act(obs, rngs)`` gives the rows'
    (controls, actions, log-probs), row e drawing from ``rngs[e]``, and
    ``step(controls)`` the next (obs, reward, done, info) rows; the buffer's
    ``info`` keeps the info columns named in ``keys``, each (T, E).  The
    critic values the observations and the last ``obs``, the bootstrap, in
    two calls of one row net, so no value depends on E or the batch split."""
    cols: list[np.ndarray] = []
    for t in range(horizon):
        controls, actions, log_probs = act(obs, rngs)
        nxt, reward, done, info = step(controls)
        row = (obs, actions, reward, log_probs, done, *(info[k] for k in keys))
        # every (T, ...) column is allocated at the first step, in its row's dtype
        cols = cols or [np.empty((horizon, *np.shape(x)), np.asarray(x).dtype) for x in row]
        for col, x in zip(cols, row):
            col[t] = x
        obs = nxt
    seen, actions, rewards, log_probs, dones, *cols = cols
    net = nets.RowNet(value_spec, value_params)
    values = net(seen.reshape(-1, seen.shape[2]))[:, 0].reshape(seen.shape[:2])
    return RolloutBuffer(seen, actions, rewards, values, log_probs, dones.astype(np.float64),
                         net(obs)[:, 0], info=dict(zip(keys, cols)))


def collect_rollouts(
    envs: EnvBatch | list[TrackingEnv],
    policy: GaussianPolicy,
    policy_params: np.ndarray,
    value_spec: nets.MlpSpec,
    value_params: np.ndarray,
    horizon: int,
    rngs: list[np.random.Generator],
) -> RolloutBuffer:
    """Collect fixed-horizon rollouts from every env; env i draws its
    action noise from ``rngs[i]``.

    An ``EnvBatch`` owns the rollout state and advances in place.  A list
    of ``TrackingEnv`` is joined into a new batch, so the listed envs keep
    their rows; only their generators draw the resets.  Each row's bits do
    not depend on the batch split (``nets``), so the buffer of a batch is
    its parts' buffers side by side.
    """
    batch = EnvBatch.join(envs) if isinstance(envs, list) else envs
    net = policy.row_net(policy_params)
    return collect(batch.step, batch.observe(), partial(_track_act, policy, net, batch),
                   value_spec, value_params, horizon, TRACK_INFO, rngs)


# --- training loop ------------------------------------------------------


@dataclass
class TrainState:
    policy: GaussianPolicy
    policy_params: np.ndarray
    policy_adam: nets.AdamState
    value_spec: nets.MlpSpec
    value_params: np.ndarray
    value_adam: nets.AdamState
    update: int = 0


def build_networks(
    obs_dim: int, act_dim: int, cfg: PpoConfig, seed: int,
    labels: tuple[str, str] = ("policy-init", "value-init"),
) -> TrainState:
    policy = GaussianPolicy(
        nets.MlpSpec(obs_dim, tuple(cfg.pi_hidden), act_dim, activation="silu")
    )
    value_spec = nets.MlpSpec(obs_dim, tuple(cfg.critic_hidden), 1, activation="silu")
    policy_params = policy.init(np.random.default_rng(seed_for(seed, labels[0])), cfg.std_init)
    value_params = nets.init_params(value_spec, np.random.default_rng(seed_for(seed, labels[1])))
    return TrainState(
        policy=policy,
        policy_params=policy_params,
        policy_adam=nets.adam_init(policy_params.size, cfg.lr),
        value_spec=value_spec,
        value_params=value_params,
        value_adam=nets.adam_init(value_params.size, cfg.lr),
    )


def ppo_round(ts: TrainState, buf: RolloutBuffer, cfg: PpoConfig, rng: np.random.Generator) -> dict[str, float]:
    """One PPO update of ``ts`` in place: GAE over the rollout ``buf``, then
    ``ppo_update`` on the flattened buffer, shuffled by ``rng``.  Returns its
    metrics, with NaN losses when ``ppo_update`` skipped every minibatch."""
    buf.advantages, buf.returns = gae(
        buf.rewards, buf.values, buf.dones, cfg.gamma, cfg.gae_lambda, buf.bootstrap)
    ts.policy_params, ts.policy_adam, ts.value_params, ts.value_adam, m = ppo_update(
        ts.policy, ts.policy_params, ts.policy_adam, ts.value_spec, ts.value_params, ts.value_adam,
        buf.flat(), cfg, rng)
    ts.update += 1
    return dict.fromkeys(("policy_loss", "value_loss", "entropy", "clip_fraction"), math.nan) | m


def run_stage(out: Path, fields: tuple[str, ...], every: int, line: str, log: bool,
              updates: int, update: Callable[[int], dict], start: int | None = None) -> None:
    """The update loop of one training stage and its ``metrics.csv``.

    Writes the header of ``fields``, then calls ``update(u)`` for u in
    ``[start or 0, updates)`` and appends the ``repr(float(row[k]))`` of
    each of ``fields`` of the row it returns, with ``u`` under
    ``fields[0]``.  The file is closed after each row, so a crash keeps
    the rows written before it.  A run resumed from a snapshot of update
    ``start`` keeps the rows below it, under a byte-equal header only; a
    row whose update is not a number is refused by file and line.  With
    ``log``, update u prints ``line.format(**row)`` when ``u % every == 0``
    and after the last update.
    """
    path = out / "metrics.csv"
    header = ",".join(fields) + "\n"
    kept = []
    if start is not None and path.exists():
        head, *rows = path.read_text().splitlines(True) or [""]
        if head != header:
            raise ValueError(f"{path}: the header {head.rstrip()!r} is not {header.rstrip()!r}")
        for ln, row in enumerate(rows, start=2):
            try:
                if row.endswith("\n") and float(row.split(",")[0]) < start:
                    kept.append(row)
            except ValueError as e:
                raise ValueError(f"{path}: line {ln}: {e}") from None
    path.write_text(header + "".join(kept))
    for u in range(start or 0, updates):
        row = update(u) | {fields[0]: u}
        with path.open("a") as f:
            f.write(",".join(repr(float(row[k])) for k in fields) + "\n")
        if log and (u % every == 0 or u == updates - 1):
            print(line.format(**row), flush=True)


ENVS = (None, {"update": int, "envs": int, "seed": nets.signed, "clips": int, "library": str})


def _snapshot_run(envs: EnvBatch, seed: int) -> dict:
    """What a resume must match: the env count, the seed, the clip count and
    16 hex digits of a SHA-256 over the library's frames, counts and rates."""
    lib, h = envs.library, hashlib.sha256()
    for a in (lib.frames, lib.n_frames.astype("<i8"), lib.frame_rate):
        h.update(np.ascontiguousarray(a))
    return {"envs": len(envs), "seed": seed, "clips": len(lib), "library": h.hexdigest()[:16]}


def save_train_state(out: Path, ts: TrainState, envs: EnvBatch, seed: int) -> None:
    """Write the networks, their Adam states and ``envs.txt``: the ``ENVS``
    header and one row per env of the batch, ``[root_pos, q, root_vel, qd,
    t, clip_index, anchor_x, anchor_on]``."""
    out.mkdir(parents=True, exist_ok=True)
    save_policy(out / "pi_track.ckpt", "pi_track", ts.policy, ts.policy_params)
    nets.save_checkpoint(out / "critic.ckpt", "critic", ts.value_spec, ts.value_params)
    nets.adam_state_save(out / "adam_policy.txt", ts.policy_adam)
    nets.adam_state_save(out / "adam_value.txt", ts.value_adam)
    w = envs.world
    rows = np.column_stack(
        [w.root_pos, w.q, w.root_vel, w.qd, envs.t, envs.clip_index, w.anchor_x, w.anchor_on]
    )
    nets.write_table(out / "envs.txt", ENVS, {"update": ts.update, **_snapshot_run(envs, seed)}, rows)


def save_policy(path: str | Path, name: str, policy: GaussianPolicy, params: np.ndarray) -> None:
    """A policy checkpoint: the MLP and, as its extra values, the log-std
    tail that ``load_policy`` checks for."""
    nets.save_checkpoint(path, name, policy.spec, params, extra=policy.spec.output_dim)


def load_policy(path: str | Path, inputs: int, outputs: int) -> tuple[GaussianPolicy, np.ndarray]:
    """The policy that ``save_policy`` wrote to ``path``.  One that does not
    map ``inputs`` columns to ``outputs`` actions, or has no log-std tail
    of ``outputs`` values, is refused by file and header key."""
    _, spec, values, extra = nets.load_checkpoint(path)
    nets.check_width(path, "input", spec.input_dim, inputs)
    nets.check_width(path, "output", spec.output_dim, outputs)
    nets.check_width(path, "extra", extra, outputs)
    return GaussianPolicy(spec), values


def resume_train_state(out: Path, envs: EnvBatch, seed: int) -> TrainState:
    """Read what ``save_train_state`` wrote under ``seed``; the ``envs.txt``
    rows go back into the batch, valid and with the World time at ``t``.
    A snapshot of another env count, seed or clip library, or with an Adam
    state of another size than its net, is refused."""
    spec = envs.spec
    policy, policy_params = load_policy(out / "pi_track.ckpt", TRACK_OBS.width(spec), spec.n_joints)
    _, value_spec, value_params, _ = nets.load_checkpoint(out / "critic.ckpt")
    w, nq, ns = envs.world, spec.ndof, len(spec.sites)

    def shape(h):
        if h["envs"] != len(envs):
            raise ValueError(f"snapshot holds {h['envs']} envs, the config builds {len(envs)}")
        for key, run in _snapshot_run(envs, seed).items():
            if h[key] != run:
                raise ValueError(f"snapshot was written under {key} {h[key]}, the run has {key} {run}")
        return len(envs), 2 * (3 + nq + ns)

    head, rows = nets.read_table(out / "envs.txt", ENVS, shape)
    cols = np.split(rows, np.cumsum([2, nq, 2, nq, 1, 1, ns]), axis=1)
    w.root_pos[:], w.q[:], w.root_vel[:], w.qd[:], t, clip_index, w.anchor_x[:], anchor_on = cols
    envs.t[:] = w.time[:] = t[:, 0]
    envs.clip_index[:] = clip_index[:, 0]
    w.anchor_on[:] = anchor_on != 0.0
    w.valid[:] = True

    def adam(name, params):
        state = nets.adam_state_load(out / name)
        nets.check_width(out / name, "count", state.m.size, params.size)
        return state

    return TrainState(
        policy=policy,
        policy_params=policy_params,
        policy_adam=adam("adam_policy.txt", policy_params),
        value_spec=value_spec,
        value_params=value_params,
        value_adam=adam("adam_value.txt", value_params),
        update=head["update"],
    )


METRIC_FIELDS = (
    "update", "reward", "imitation", "imitation_idle_footwork", "energy",
    "episode_steps", "policy_loss", "value_loss", "entropy", "clip_fraction", "skipped",
)


def train_tracking(
    clips: list[mo.MotionClip],
    cfg: PpoConfig,
    out_dir: str | Path,
    seed: int,
    spec: ph.CharacterSpec | None = None,
    phys: ph.PhysicsConfig | None = None,
    resume: bool = False,
    workers: int = 1,  # perfbench passes workers=1 until ROADMAP item 2; any other count is refused
    log: bool = True,
) -> TrainState:
    """Stage 1: PPO training of the tracking expert on the clip library.

    ``run_stage`` runs the updates and writes their ``METRIC_FIELDS`` rows,
    then ``save_train_state`` the snapshot that ``resume`` continues.
    """
    if workers != 1:
        raise ValueError(f"workers={workers}: rollouts run in one process")
    spec = spec or ph.default_character()
    phys = phys or ph.default_config(spec)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    envs = EnvBatch(clips, spec, phys, seeding.rngs(seed, "env-init", cfg.envs))
    ts = build_networks(TRACK_OBS.width(spec), spec.n_joints, cfg, seed)
    resumed = resume and (out / "envs.txt").exists()
    if resumed:
        saved = resume_train_state(out, envs, seed)
        got, want = (saved.policy.spec, saved.value_spec), (ts.policy.spec, ts.value_spec)
        if got != want:
            raise ValueError(f"{out}: the saved (policy, critic) nets are {got}, the config builds {want}")
        rates = (saved.policy_adam.lr, saved.value_adam.lr)
        if rates != (cfg.lr, cfg.lr):
            raise ValueError(
                f"{out}: the saved (policy, critic) learning rates are {rates}, the config sets {cfg.lr}")
        if saved.update > cfg.updates:
            raise ValueError(
                f"{out}: the snapshot is at update {saved.update}, the run asks for {cfg.updates}")
        ts = saved

    def update(u: int) -> dict:
        if not cfg.learn_std:
            ts.policy_params[-spec.n_joints:] = math.log(cfg.sigma_at(u))
        envs.rngs = seeding.rngs(seed, f"update-{u}-env", cfg.envs)
        buf = collect_rollouts(envs, ts.policy, ts.policy_params, ts.value_spec, ts.value_params,
                               cfg.horizon, envs.rngs)
        m = ppo_round(ts, buf, cfg, np.random.default_rng(seed_for(seed, f"update-{u}-shuffle")))
        imitation, ifw = (buf.info[k] for k in TRACK_INFO)
        return m | {
            "reward": buf.rewards.mean(), "imitation": imitation.mean(),
            "imitation_idle_footwork": imitation[ifw].mean() if ifw.any() else 0.0,
            "energy": (buf.rewards - imitation).mean(),
            "episode_steps": buf.rewards.size / max(buf.dones.sum(), 1.0),
        }

    run_stage(out, METRIC_FIELDS, 25,
              "[track] update {update} reward {reward:.3f} imitation {imitation:.3f} "
              "idle+fw {imitation_idle_footwork:.3f} ep_steps {episode_steps:.1f}",
              log, cfg.updates, update, ts.update if resumed else None)
    save_train_state(out, ts, envs, seed)
    return ts


# --- clip tracking ------------------------------------------------------


def expert_controller(net: nets.RowNet) -> Callable[[EnvBatch, np.ndarray], np.ndarray]:
    """Row controller of the deterministic expert whose policy ``row_net``
    is ``net``: its mean action on every row of ``obs`` as absolute PD
    targets around the batch's reference pose."""

    def controller(batch: EnvBatch, obs: np.ndarray) -> np.ndarray:
        return action_to_targets(net(obs), batch.ref_base())

    return controller


def track_clips(
    controller: Callable[[EnvBatch, np.ndarray], np.ndarray],
    clips: list[mo.MotionClip],
    spec: ph.CharacterSpec,
    phys: ph.PhysicsConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Roll every clip from its first frame under a row controller.

    Env k of one ``EnvBatch`` follows clip k, and all clips step in
    lock-step; ``controller(batch, obs)`` gives the (E, n_joints) PD
    targets.  A clip succeeds if it neither falls nor diverges (mean site
    error above ``E_DIV``) within its ``int((duration - 1/rate) * hz) - 1``
    steps; its error averages the steps up to and including the first
    failure.  Returns (ok, err), both (N,).
    """
    # a reset row has stopped counting, so its generator only keeps the batch going
    batch = EnvBatch(
        clips, spec, phys, [np.random.default_rng(k) for k in range(len(clips))],
        starts=[(k, 0) for k in range(len(clips))],
    )
    steps = np.array([int((c.duration - 1.0 / c.frame_rate) * phys.hz) - 1 for c in clips])
    errs = np.zeros((len(clips), max(0, steps.max())))
    taken = np.zeros(len(clips), dtype=int)
    ok = np.ones(len(clips), dtype=bool)
    obs = batch.observe()
    for s in range(errs.shape[1]):
        live = ok & (s < steps)
        if not live.any():
            break
        # the info rows describe the stepped states, before any reset
        obs, _, _, info = batch.step(np.asarray(controller(batch, obs), dtype=np.float64))
        errs[:, s] = info["site_error"]
        taken += live
        ok &= ~(live & (info["fell"] | info["diverged"]))
    return ok, np.array([errs[k, : taken[k]].mean() for k in range(len(clips))])
