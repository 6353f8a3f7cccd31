"""Distillation of the tracking expert into a unit-sphere latent prior.

Three networks train together: a goal encoder that maps goals onto the
sphere, a latent-conditioned prior policy that outputs absolute PD
targets, and a discriminator that scores state-action pairs.  The prior
and encoder minimize imitation distillation plus a weighted consistency
term that pulls random-latent actions toward the expert action; the
discriminator trains separately on prior-vs-random action pairs.  A
two-phase switch enables the discriminator-based weight only after the
distance-weighted phase plateaus.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import motion as mo
from . import nets
from . import physics as ph
from . import seeding
from . import tracking as tr
from .seeding import seed_for

ABLATION_MODES = ("distill", "gan", "nsc", "slmp")


class DegenerateEncodingError(ValueError):
    pass


@dataclass
class SlmpConfig:
    lambda_distill: float = 1.0
    lambda_dlsc: float = 1.0
    lambda_disc: float = 1e-4
    beta: float = 0.1
    lr: float = 5e-5
    disc_lr: float = 5e-5
    latent_dim: int = 8
    window: int = 200  # plateau window (updates) for the w_c switch
    plateau_tol: float = 0.01
    updates: int = 6000
    batch: int = 1024
    fresh_per_update: int = 256
    capacity: int = 16384
    envs: int = 16
    e_div: float = tr.E_DIV
    mode: str = "slmp"
    encoder_hidden: tuple[int, ...] = (128, 64)
    pi_phi_hidden: tuple[int, ...] = (256, 256, 128)
    disc_hidden: tuple[int, ...] = (256, 128)

    def __post_init__(self):
        if min(self.lambda_distill, self.lambda_dlsc, self.lambda_disc) < 0.0:
            raise ValueError("loss weights must be non-negative")
        if self.mode not in ABLATION_MODES:
            raise ValueError(f"mode must be one of {ABLATION_MODES}")
        if self.latent_dim < 2:  # sample_sphere's bound
            raise ValueError(f"latent_dim must be at least 2, got {self.latent_dim}")
        ph.require_positive(self, ("beta", "lr", "disc_lr", "envs", "batch", "fresh_per_update",
                                   "capacity", "window"))
        if self.fresh_per_update % self.envs:
            raise ValueError(
                f"fresh_per_update {self.fresh_per_update} is not a multiple of envs {self.envs}"
            )


def normalize_rows(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(y / norms, norms) for the last axis of ``y``; norms keep that axis."""
    norms = np.linalg.norm(y, axis=-1, keepdims=True)
    if (norms < 1e-9).any():
        raise DegenerateEncodingError("encoder output norm below 1e-9")
    return y / norms, norms


def encode_goal(net: nets.RowNet, goal: np.ndarray) -> np.ndarray:
    """z1 = E(g) of every goal row under the encoder's row net ``net``,
    projected onto the unit sphere."""
    return normalize_rows(net(goal))[0]


def sample_sphere(d: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniform samples on S^{d-1} via normalized Gaussian noise, (n, d).

    Row i is the i-th d-vector of the stream whose norm is not degenerate:
    one (k, d) block is the same stream as k row draws, so each pass keeps
    its block's good rows and draws only the rows still missing.
    """
    if d < 2:
        raise ValueError("latent dimension must be at least 2")
    out = np.empty((0, d))
    while len(out) < n:
        eps = rng.standard_normal((n - len(out), d))
        norm = ph.row_norms(eps)
        ok = norm >= 1e-9
        out = np.concatenate([out, eps[ok] / norm[ok, None]])
    return out


def prior_action(net: nets.RowNet, proprio: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Deterministic PD-target action of the prior, whose row net is
    ``net``, for every (state, latent) row of ``proprio`` (n,
    ``tracking.PROPRIO`` width) and ``z`` (n, d)."""
    return net(np.concatenate([proprio, z], axis=1))


def latent_width(phi_spec: nets.MlpSpec, spec: ph.CharacterSpec, path: str | Path) -> int:
    """The latent width of the prior ``phi_spec`` for ``spec``: its input
    columns past ``tracking.PROPRIO``.  Fewer than 2 (``sample_sphere``'s
    bound), or not one output per joint, is refused by ``path`` and key."""
    proprio = tr.PROPRIO.width(spec)
    nets.check_width(path, "input", phi_spec.input_dim, proprio + 2, at_least=True)
    nets.check_width(path, "output", phi_spec.output_dim, spec.n_joints)
    return phi_spec.input_dim - proprio


def distill_loss(a1: np.ndarray, a_star: np.ndarray) -> float:
    """Mean squared action error of the encoded-latent branch, over
    (N, act_dim) rows."""
    return float(((a1 - a_star) ** 2).sum(axis=1).mean())


def disc_forward(
    spec: nets.MlpSpec,
    params: np.ndarray,
    proprio: np.ndarray,
    action: np.ndarray,
    tape: nets.Tape | None = None,
) -> np.ndarray:
    """Raw (unbounded) float64 discriminator score of every (proprio,
    action) row, (N,); P(expert) = sigmoid(score)."""
    x = np.concatenate([proprio, action], axis=1)
    return np.asarray(nets.forward_batch(spec, params, x, tape)[:, 0], dtype=np.float64)


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def disc_loss(score_pos: np.ndarray, score_neg: np.ndarray) -> float:
    """Binary cross-entropy through the sigmoid of raw scores."""
    return float((_softplus(-score_pos) + _softplus(score_neg)).mean())


def dlsc_weights(
    z1: np.ndarray, z2: np.ndarray, score2: np.ndarray, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Neighborhood weight w_d = exp(-beta*||z2-z1||) and semantic weight
    w_c = 1 + |min(0, score)| of every row of the (N, d) latents and the
    (N,) scores, each (N,); both are treated as constants downstream."""
    w_d = np.exp(-beta * np.linalg.norm(z2 - z1, axis=1))
    w_c = 1.0 + np.abs(np.minimum(0.0, score2))
    return w_d, w_c


def dlsc_loss(
    w_d: np.ndarray, w_c: np.ndarray, a2: np.ndarray, a_star: np.ndarray
) -> float:
    """Weighted consistency of random-latent actions with the expert, over
    (N, act_dim) rows and (N,) weights."""
    err = ((a2 - a_star) ** 2).sum(axis=1)
    return float((w_d * w_c * err).mean())


@dataclass
class Phase:
    """Latched two-phase switch for the semantic weight."""

    use_wc: bool = False
    window: int = 200
    plateau_tol: float = 0.01
    history: deque = field(default_factory=deque)


def phase_scheduler(phase: Phase, new_loss: float) -> Phase:
    """Latch use_wc once the loss improves < plateau_tol per window.

    Compares the mean of the last W losses against the mean of the W
    before them; the switch happens at most once and never reverts.
    """
    if phase.use_wc:
        return phase
    phase.history.append(float(new_loss))
    w = phase.window
    if len(phase.history) > 2 * w:
        phase.history.popleft()
    if len(phase.history) >= 2 * w:
        hist = list(phase.history)
        prev = sum(hist[:w]) / w
        cur = sum(hist[w:]) / w
        if prev <= 0.0 or (prev - cur) < phase.plateau_tol * abs(prev):
            phase.use_wc = True
    return phase


@dataclass
class DistillNets:
    enc_spec: nets.MlpSpec
    enc_params: np.ndarray
    enc_adam: nets.AdamState
    phi_spec: nets.MlpSpec
    phi_params: np.ndarray
    phi_adam: nets.AdamState
    disc_spec: nets.MlpSpec
    disc_params: np.ndarray
    disc_adam: nets.AdamState


def build_distill_nets(
    goal_dim: int, proprio_dim: int, act_dim: int, cfg: SlmpConfig, seed: int
) -> DistillNets:
    enc_spec = nets.MlpSpec(goal_dim, tuple(cfg.encoder_hidden), cfg.latent_dim, activation="relu")
    phi_spec = nets.MlpSpec(
        proprio_dim + cfg.latent_dim, tuple(cfg.pi_phi_hidden), act_dim, activation="silu"
    )
    disc_spec = nets.MlpSpec(proprio_dim + act_dim, tuple(cfg.disc_hidden), 1, activation="relu")
    enc_params = nets.init_params(enc_spec, np.random.default_rng(seed_for(seed, "enc-init")))
    phi_params = nets.init_params(phi_spec, np.random.default_rng(seed_for(seed, "phi-init")))
    disc_params = nets.init_params(disc_spec, np.random.default_rng(seed_for(seed, "disc-init")))
    return DistillNets(
        enc_spec, enc_params, nets.adam_init(enc_params.size, cfg.lr),
        phi_spec, phi_params, nets.adam_init(phi_params.size, cfg.lr),
        disc_spec, disc_params, nets.adam_init(disc_params.size, cfg.disc_lr),
    )


@dataclass
class DistillBatch:
    """Samples for one update: states, goals, frozen-expert actions, and a
    random sphere latent paired with each encoded one."""

    proprio: np.ndarray  # (n, proprio_dim)
    goals: np.ndarray  # (n, goal_dim)
    a_star: np.ndarray  # (n, act_dim)
    z2: np.ndarray  # (n, latent_dim)


def slmp_update(
    batch: DistillBatch, n: DistillNets, cfg: SlmpConfig, phase: Phase
) -> dict[str, float]:
    """One optimization step of (prior, encoder) and, when gated, the
    discriminator.  Mutates the parameter arrays inside ``n``.  The
    networks run forward and backward on ``nets.LEARN_DTYPE`` tapes; the
    parameters, losses and gradients are float64.

    Ablation gating: 'distill' uses only the imitation term; 'gan'
    replaces the consistency term with a generator log-score term and
    trains the discriminator every update; 'nsc' drops the semantic
    weight and the discriminator entirely; 'slmp' is the full objective
    with the two-phase semantic-weight switch.
    """
    count = batch.proprio.shape[0]
    # a forward is taped only when a backward reads it
    train_disc = cfg.mode == "gan" or (cfg.mode == "slmp" and phase.use_wc)
    enc_tape, tape1, tape2 = nets.Tape(nets.LEARN_DTYPE), nets.Tape(nets.LEARN_DTYPE), None
    y = nets.forward_batch(n.enc_spec, n.enc_params, batch.goals, enc_tape)
    z1, norms = normalize_rows(y.astype(np.float64))
    x1 = np.concatenate([batch.proprio, z1], axis=1)
    a1 = nets.forward_batch(n.phi_spec, n.phi_params, x1, tape1)
    if cfg.mode != "distill":  # no term of the distill mode reads a2
        tape2 = nets.Tape(nets.LEARN_DTYPE)
        x2 = np.concatenate([batch.proprio, batch.z2], axis=1)
        a2 = nets.forward_batch(n.phi_spec, n.phi_params, x2, tape2)

    l_distill = distill_loss(a1, batch.a_star)
    metrics = {
        "l_distill": l_distill,
        "l_dlsc": 0.0,
        "l_disc": 0.0,
        "w_d": 0.0,
        "w_c": 1.0,
        "use_wc": float(phase.use_wc),
    }

    g_a1 = (2.0 * cfg.lambda_distill / count) * (a1 - batch.a_star)
    g_a2 = None  # gradient reaching the prior through a2

    if train_disc:
        # score2 and its tape also serve the discriminator's own update
        disc_tape = nets.Tape(nets.LEARN_DTYPE)
        score2 = disc_forward(n.disc_spec, n.disc_params, batch.proprio, a2, disc_tape)
    if cfg.mode in ("nsc", "slmp"):
        # without the discriminator, a zero score gives the unit semantic weight
        w_d, w_c = dlsc_weights(z1, batch.z2, score2 if train_disc else np.zeros(count), cfg.beta)
        l_dlsc = dlsc_loss(w_d, w_c, a2, batch.a_star)
        metrics["l_dlsc"] = l_dlsc
        metrics["w_d"] = float(w_d.mean())
        metrics["w_c"] = float(w_c.mean())
        # weights are detached: gradient reaches a2 only
        g_a2 = (2.0 * cfg.lambda_dlsc / count) * (w_d * w_c)[:, None] * (a2 - batch.a_star)
    elif cfg.mode == "gan":
        l_gen = float(_softplus(-score2).mean())
        metrics["l_dlsc"] = l_gen  # occupies the consistency slot
        d_dscore = (cfg.lambda_dlsc / count) * (_sigmoid(score2) - 1.0)
        _, gx = nets.backward_batch(n.disc_spec, n.disc_params, disc_tape, d_dscore[:, None])
        g_a2 = gx[:, batch.proprio.shape[1]:]

    loss = cfg.lambda_distill * l_distill + cfg.lambda_dlsc * metrics["l_dlsc"]
    metrics["l_slmp"] = (
        cfg.lambda_distill * l_distill
        + (cfg.lambda_dlsc * metrics["l_dlsc"] if cfg.mode in ("nsc", "slmp") else 0.0)
    )
    if not math.isfinite(loss):
        metrics["skipped"] = 1.0
        return metrics

    g_phi1, gx1 = nets.backward_batch(n.phi_spec, n.phi_params, tape1, g_a1)
    del tape1
    g_phi = g_phi1
    if g_a2 is not None and g_a2.any():
        g_phi2, _ = nets.backward_batch(n.phi_spec, n.phi_params, tape2, g_a2, input_grad=False)
        g_phi = g_phi + g_phi2
    del tape2
    # encoder gradient: through z1 and the unit-sphere projection
    g_z1 = gx1[:, batch.proprio.shape[1]:]
    g_y = (g_z1 - (g_z1 * z1).sum(axis=1, keepdims=True) * z1) / norms
    g_enc, _ = nets.backward_batch(n.enc_spec, n.enc_params, enc_tape, g_y, input_grad=False)
    del enc_tape

    g_disc = np.zeros(0)
    if train_disc:
        # the discriminator is unchanged since score2, which scores the negatives
        pos_tape = nets.Tape(nets.LEARN_DTYPE)
        s_pos = disc_forward(n.disc_spec, n.disc_params, batch.proprio, a1, pos_tape)
        l_disc = disc_loss(s_pos, score2)
        metrics["l_disc"] = l_disc
        scale = cfg.lambda_disc / count
        g_pos = scale * (_sigmoid(s_pos) - 1.0)
        g_neg = scale * _sigmoid(score2)
        g_d1, _ = nets.backward_batch(
            n.disc_spec, n.disc_params, pos_tape, g_pos[:, None], input_grad=False
        )
        del pos_tape
        g_d2, _ = nets.backward_batch(
            n.disc_spec, n.disc_params, disc_tape, g_neg[:, None], input_grad=False
        )
        del disc_tape
        g_disc = g_d1 + g_d2

    # a non-finite gradient under a finite loss skips the update as well
    metrics["skipped"] = float(not all(np.isfinite(g).all() for g in (g_phi, g_enc, g_disc)))
    if metrics["skipped"]:
        return metrics
    n.phi_params, n.phi_adam = nets.adam_step(n.phi_params, g_phi, n.phi_adam)
    n.enc_params, n.enc_adam = nets.adam_step(n.enc_params, g_enc, n.enc_adam)
    if train_disc:
        n.disc_params, n.disc_adam = nets.adam_step(n.disc_params, g_disc, n.disc_adam)
    return metrics


# --- DAgger-style training loop ------------------------------------------


class _Ring:
    """Fixed-capacity sample store: the i-th row pushed lands at i % capacity."""

    def __init__(self, capacity: int, dims: tuple[int, ...]):
        self.capacity = capacity
        self.buffers = [np.zeros((capacity, d)) for d in dims]
        self.write = 0
        self.size = 0

    def push(self, *rows: np.ndarray) -> None:
        n = rows[0].shape[0]
        keep = min(n, self.capacity)
        idx = (self.write + np.arange(n - keep, n)) % self.capacity
        for buf, row in zip(self.buffers, rows):
            buf[idx] = row[n - keep:]
        self.write = (self.write + n) % self.capacity
        self.size = min(self.size + n, self.capacity)

    def sample(self, n: int, rng: np.random.Generator) -> list[np.ndarray]:
        idx = rng.integers(self.size, size=n)
        return [buf[idx] for buf in self.buffers]


DISTILL_METRICS = (
    "update", "l_distill", "l_dlsc", "l_disc", "l_slmp", "w_d", "w_c", "use_wc", "mse_fresh",
)


def expert_success_rate(
    policy: tr.GaussianPolicy,
    policy_params: np.ndarray,
    clips: list[mo.MotionClip],
    spec: ph.CharacterSpec,
    phys: ph.PhysicsConfig,
    e_div: float,
) -> float:
    """Fraction of clips the frozen expert tracks end-to-end."""
    controller = tr.expert_controller(policy.row_net(policy_params))
    ok, _ = tr.track_clips(controller, clips, spec, phys, e_div)
    return float(ok.mean())


def latent_controller(
    enc_spec: nets.MlpSpec,
    enc_params: np.ndarray,
    phi_spec: nets.MlpSpec,
    phi_params: np.ndarray,
    spec: ph.CharacterSpec,
) -> Callable[[tr.EnvBatch, np.ndarray], np.ndarray]:
    """Row controller that drives the prior with each row's encoded goal."""
    o = tr.TRACK_OBS.of(spec.n_joints)
    enc, phi = nets.RowNet(enc_spec, enc_params), nets.RowNet(phi_spec, phi_params)

    def controller(batch: tr.EnvBatch, obs: np.ndarray) -> np.ndarray:
        return prior_action(phi, obs[:, o.proprio], encode_goal(enc, obs[:, o.goal]))

    return controller


def collect_fresh(
    envs: tr.EnvBatch,
    steps: int,
    expert: tr.GaussianPolicy,
    expert_params: np.ndarray,
    n: DistillNets,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Roll the prior, driven by its encoded goals, ``steps`` control steps
    in every env while the frozen expert labels each visited state.

    Returns (proprio, goals, a_star, mse_fresh).  Rows run step-major and
    env-minor, and mse_fresh, the mean squared prior-vs-expert action
    error, adds them up in that order.  Row nets keep every row's bits
    independent of the number of envs.
    """
    o = tr.TRACK_OBS.of(envs.spec.n_joints)
    label = tr.expert_controller(expert.row_net(expert_params))
    act = latent_controller(n.enc_spec, n.enc_params, n.phi_spec, n.phi_params, envs.spec)
    obs = envs.observe()
    rows = []
    mse = 0.0
    for _ in range(steps):
        a_star = label(envs, obs)
        a = act(envs, obs)
        for err in ((a - a_star) ** 2).sum(axis=1):
            mse += float(err)
        rows.append((obs[:, o.proprio], obs[:, o.goal], a_star))
        obs = envs.step(a)[0]
    proprio, goals, a_star = (np.concatenate(col) for col in zip(*rows))
    return proprio, goals, a_star, mse / proprio.shape[0]


def train_slmp(
    clips: list[mo.MotionClip],
    expert_ckpt: str | Path,
    cfg: SlmpConfig,
    out_dir: str | Path,
    seed: int,
    spec: ph.CharacterSpec | None = None,
    phys: ph.PhysicsConfig | None = None,
    log: bool = True,
    skip_expert_check: bool = False,
) -> DistillNets:
    """Stage 2: distill the frozen expert into the latent prior.

    Rollouts are driven by the encoded goal latent along reference clips;
    the expert labels every visited state with its PD-target action.
    Fresh on-policy samples feed a replay ring from which update batches
    are drawn (DAgger-style aggregation).  ``tracking.run_stage`` runs the
    updates and writes their ``DISTILL_METRICS`` rows.
    """
    spec = spec or ph.default_character()
    phys = phys or ph.default_config(spec)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    nj = spec.n_joints
    expert, expert_params = tr.load_policy(expert_ckpt, tr.TRACK_OBS.width(spec), nj)

    if not skip_expert_check:
        rate = expert_success_rate(expert, expert_params, clips, spec, phys, cfg.e_div)
        if rate < 0.9:
            raise RuntimeError(
                f"expert failure rate {1.0 - rate:.2f} exceeds 10% on the clip library; "
                "train the tracking stage further before distilling"
            )

    widths = (tr.PROPRIO.width(spec), mo.GOAL.width(spec), nj)  # proprio, goal, action
    n = build_distill_nets(widths[1], widths[0], nj, cfg, seed)
    phase = Phase(window=cfg.window, plateau_tol=cfg.plateau_tol)
    ring = _Ring(cfg.capacity, widths)
    envs = tr.EnvBatch(clips, spec, phys, seeding.rngs(seed, "denv", cfg.envs), cfg.e_div)
    steps_per_env = cfg.fresh_per_update // cfg.envs

    def update(u: int) -> dict:
        nonlocal phase
        rng_u = np.random.default_rng(seed_for(seed, f"distill-update-{u}"))
        *fresh, mse_fresh = collect_fresh(envs, steps_per_env, expert, expert_params, n)
        ring.push(*fresh)

        take = min(cfg.batch, ring.size)
        # the ring's draw comes before the latents' draw from rng_u
        batch = DistillBatch(*ring.sample(take, rng_u), sample_sphere(cfg.latent_dim, rng_u, take))
        m = slmp_update(batch, n, cfg, phase)
        # a skipped update's loss, often not finite, says nothing of a plateau
        if cfg.mode == "slmp" and not m["skipped"]:
            phase = phase_scheduler(phase, m["l_slmp"])
        # the row's use_wc is the phase the update ran in; the console shows the phase after it
        return m | {"mse_fresh": mse_fresh, "latched": phase.use_wc}

    tr.run_stage(out, DISTILL_METRICS, 200,
                 f"[distill:{cfg.mode}] " "update {update} l_distill {l_distill:.4f} "
                 "l_dlsc {l_dlsc:.4f} mse_fresh {mse_fresh:.4f} use_wc {latched}",
                 log, cfg.updates, update)
    nets.save_checkpoint(out / "encoder.ckpt", "encoder", n.enc_spec, n.enc_params)
    nets.save_checkpoint(out / "pi_phi.ckpt", "pi_phi", n.phi_spec, n.phi_params)
    nets.save_checkpoint(out / "disc.ckpt", "disc", n.disc_spec, n.disc_params)
    return n


def load_prior(run_dir: str | Path, spec: ph.CharacterSpec) -> tuple[nets.MlpSpec, np.ndarray, int]:
    """The prior ``pi_phi.ckpt`` of a distill or combat run dir: its spec,
    parameters and latent width, refused by file and key unless it fits
    ``spec`` (``latent_width``)."""
    path = Path(run_dir) / "pi_phi.ckpt"
    _, phi_spec, phi_params, _ = nets.load_checkpoint(path)
    return phi_spec, phi_params, latent_width(phi_spec, spec, path)


def load_encoder(run_dir: str | Path, spec: ph.CharacterSpec, latent: int) -> tuple[nets.MlpSpec, np.ndarray]:
    """The encoder ``encoder.ckpt`` of a distill run dir: its spec and
    parameters, refused by file and key unless it maps ``motion.GOAL`` rows
    to ``latent`` columns, the prior's latent width."""
    path = Path(run_dir) / "encoder.ckpt"
    _, enc_spec, enc_params, _ = nets.load_checkpoint(path)
    nets.check_width(path, "input", enc_spec.input_dim, mo.GOAL.width(spec))
    nets.check_width(path, "output", enc_spec.output_dim, latent)
    return enc_spec, enc_params
