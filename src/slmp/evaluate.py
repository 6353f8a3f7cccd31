"""Evaluation protocols: latent tracking fidelity, random-rollout
survival curves, and state-conditioned sphere clustering exports.

Both rollout protocols step rows of a ``physics.World``.  Tracking
fidelity rolls every clip at once through ``tracking.track_clips`` (env
k of one ``EnvBatch`` follows clip k) under a row controller: the
expert's ``tracking.expert_controller`` or the prior's
``distill.latent_controller``.  Survival steps the trials still standing
as one World, with one prior row-net call and one fall check per
control step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import distill as di
from . import motion as mo
from . import nets
from . import physics as ph
from . import seeding
from . import tracking as tr

# survival_eval draws a new latent every RESAMPLE_PERIOD seconds unless FIXED_Z
RESAMPLE_PERIOD = 1.0
FIXED_Z = False

CLOUD = ("SLMP-CLOUD/2", {"latent": int, "action": int, "points": int})


@dataclass
class SurvivalCurve:
    horizons: tuple[float, ...] = ph.INCREASING()
    fractions: tuple[float, ...]
    n_trials: int = ph.POSITIVE_COUNT()

    def __post_init__(self):
        ph.check_rules(self)
        fr = self.fractions
        if any(fr[i] < fr[i + 1] - 1e-12 for i in range(len(fr) - 1)):
            raise ValueError("survival fractions must be non-increasing")


@dataclass
class SpherePointCloud:
    z: np.ndarray  # (n, d) unit latents
    cluster_id: np.ndarray  # (n,)
    actions: np.ndarray  # (n, act_dim)


def latent_tracking_eval(
    clips: list[mo.MotionClip],
    slmp_dir: str | Path,
    expert_ckpt: str | Path | None = None,
    spec: ph.CharacterSpec | None = None,
    phys: ph.PhysicsConfig | None = None,
) -> dict[str, dict[str, float]]:
    """Success rate and mean site error when tracking through the latent
    space, optionally with the expert as the upper-bound comparison."""
    spec = spec or ph.default_character()
    phys = phys or ph.default_config(spec)
    phi_spec, phi_params, latent = di.load_prior(slmp_dir, spec)
    enc = di.load_encoder(slmp_dir, spec, latent)
    methods = {"latent": di.latent_controller(*enc, phi_spec, phi_params, spec)}
    if expert_ckpt is not None:
        policy, params = tr.load_policy(expert_ckpt, tr.TRACK_OBS.width(spec), spec.n_joints)
        methods["expert"] = tr.expert_controller(policy.row_net(params))
    out: dict[str, dict[str, float]] = {}
    for name, controller in methods.items():
        ok, err = tr.track_clips(controller, clips, spec, phys)
        out[name] = {"success": float(ok.mean()), "mean_joint_error": float(err.mean())}
    return out


def survival_eval(
    phi_spec: nets.MlpSpec,
    phi_params: np.ndarray,
    latent_dim: int,
    n_trials: int,
    horizons: tuple[float, ...],
    seed: int,
    resample_period: float = RESAMPLE_PERIOD,
    fixed_z: bool = FIXED_Z,
    spec: ph.CharacterSpec | None = None,
    phys: ph.PhysicsConfig | None = None,
) -> SurvivalCurve:
    """Random-latent rollout survival from the neutral stance.

    Each trial samples a uniform sphere latent of the prior's
    ``latent_dim`` (``distill.load_prior``; resampled every
    resample_period seconds unless fixed_z), rolls the prior out, and
    records the first fall; fractions count trials alive per horizon.
    The trials still standing step as the rows of one ``World``, and each
    draws from its own generator in its own order.
    """
    spec = spec or ph.default_character()
    phys = phys or ph.default_config(spec)
    prior = nets.RowNet(phi_spec, phi_params)
    steps = int(round(max(horizons) * phys.hz))
    resample_steps = max(1, int(round(resample_period * phys.hz)))
    rngs = seeding.rngs(seed, "survival", n_trials)
    world = ph.World.of([ph.nominal_stance(spec, phys)] * n_trials, spec)
    z = np.concatenate([di.sample_sphere(latent_dim, rng, 1) for rng in rngs])
    fall_time = np.full(n_trials, math.inf)
    standing = np.arange(n_trials)  # the trial of each world row
    for k in range(steps):
        if not len(standing):
            break
        if not fixed_z and k > 0 and k % resample_steps == 0:
            z = np.concatenate([di.sample_sphere(latent_dim, rngs[i], 1) for i in standing])
        targets = di.prior_action(prior, tr.proprio_rows(*world.coords), z)
        world, report = ph.step_batch(world, spec, phys.dt, phys, pd_targets=targets)
        fell = ph.fallen(world.valid, report.kin, spec, phys)
        fall_time[standing[fell]] = (k + 1) * phys.dt
        standing, world, z = standing[~fell], world.rows(~fell), z[~fell]
    alive = np.array([(fall_time > h).sum() for h in horizons])
    return SurvivalCurve(tuple(horizons), tuple(alive / n_trials), n_trials)


def save_survival(curve: SurvivalCurve, path: str | Path) -> None:
    lines = ["horizon_s,survival_fraction,n_trials"]
    for h, f in zip(curve.horizons, curve.fractions):
        lines.append(f"{float(h)!r},{float(f)!r},{curve.n_trials}")
    Path(path).write_text("\n".join(lines) + "\n")


# --- sphere clustering ---------------------------------------------------


def kmeans(points: np.ndarray, k: int, seed: int, max_iter: int = 100) -> np.ndarray:
    """Lloyd's algorithm from k seeded distinct initial points.

    The first center is drawn by the seed; the rest spread greedily to the
    farthest remaining distinct point, which keeps well-separated modes
    from collapsing into one center.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k < 1:
        raise ValueError(f"k must be at least 1, got k={k}")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of points {n}")
    uniq = np.unique(points, axis=0)
    if uniq.shape[0] < k:
        raise ValueError(f"only {uniq.shape[0]} distinct points for k={k}")
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(uniq.shape[0]))]
    while len(chosen) < k:
        d2 = ((uniq[:, None, :] - uniq[chosen][None, :, :]) ** 2).sum(axis=2).min(axis=1)
        chosen.append(int(d2.argmax()))
    centers = uniq[chosen].copy()
    labels = np.zeros(n, dtype=int)
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        if (new_labels == labels).all() and _ > 0:
            break
        labels = new_labels
        for c in range(k):
            mask = labels == c
            if mask.any():
                centers[c] = points[mask].mean(axis=0)
    return labels


def sphere_clusters(
    decode: Callable[[np.ndarray], np.ndarray],
    latent_dim: int,
    n_samples: int,
    k: int,
    seed: int,
) -> SpherePointCloud:
    """Uniformly sample sphere latents, decode actions, cluster in action
    space.  ``decode`` maps (n, latent_dim) latents to (n, act_dim)
    actions.  If fewer distinct actions than k exist (a degenerate prior),
    k is reduced to the distinct-action count."""
    if k > n_samples:
        raise ValueError("k must not exceed n_samples")
    rng = np.random.default_rng(seed)
    z = di.sample_sphere(latent_dim, rng, n_samples)
    actions = decode(z)
    k_eff = min(k, np.unique(actions, axis=0).shape[0])
    labels = kmeans(actions, k_eff, seed=seeding.seed_for(seed, "kmeans"))
    return SpherePointCloud(z, labels, actions)


def prior_decoder(
    phi_spec: nets.MlpSpec,
    phi_params: np.ndarray,
    state: ph.SimState,
    spec: ph.CharacterSpec,
) -> Callable[[np.ndarray], np.ndarray]:
    """Row decoder of the prior at ``state``: (n, d) latents to (n,
    n_joints) PD targets."""
    world = ph.World.of([state], spec)
    proprio = tr.proprio_rows(*world.coords)
    prior = nets.RowNet(phi_spec, phi_params)

    def decode(z: np.ndarray) -> np.ndarray:
        return di.prior_action(prior, np.repeat(proprio, len(z), axis=0), z)

    return decode


def fixture_state(name: str, spec: ph.CharacterSpec, phys: ph.PhysicsConfig) -> ph.SimState:
    """Named reference states for state-conditioned sphere plots."""
    if name == "guard":
        state = ph.nominal_stance(spec, phys)
        for link, v in ph.GUARD_ARMS.items():
            state.joint_angles[spec.joint(link)] = v
        return state
    if name == "airborne":
        state = ph.nominal_stance(spec, phys)
        state.anchor_x = state.anchor_on = None
        state.root_pos = state.root_pos + np.array([0.0, 0.35])
        state.root_vel = np.array([0.6, 1.2])
        state.root_ang_vel = -0.8
        angles = {"upper_leg_l": 1.1, "lower_leg_l": -1.3, "upper_leg_r": 0.4, "lower_leg_r": -0.9}
        rates = {"upper_arm_l": 1.0, "lower_arm_l": -1.0, "upper_arm_r": 0.5, "lower_arm_r": -0.5,
                 "upper_leg_l": 3.0, "lower_leg_l": -2.0, "upper_leg_r": 1.0, "lower_leg_r": -1.0}
        for values, by_link in ((state.joint_angles, angles), (state.joint_vels, rates)):
            for link, v in by_link.items():
                values[spec.joint(link)] = v
        return state
    raise ValueError(f"unknown fixture state {name!r}")


def save_cloud(cloud: SpherePointCloud, path: str | Path) -> None:
    """Plot-ready text: a ``CLOUD`` table with one row per point, its
    latent components, cluster id and action components."""
    head = {"latent": cloud.z.shape[1], "action": cloud.actions.shape[1], "points": len(cloud.z)}
    nets.write_table(path, CLOUD, head, np.column_stack([cloud.z, cloud.cluster_id, cloud.actions]))


def load_cloud(path: str | Path) -> SpherePointCloud:
    """Read what ``save_cloud`` wrote.  A cluster id reads back only as an
    integer >= 0; any other value is refused by file and line."""
    head, rows = nets.read_table(path, CLOUD, lambda h: (h["points"], h["latent"] + 1 + h["action"]))
    d = head["latent"]
    z, ids, actions = np.split(rows.reshape(-1, d + 1 + head["action"]), [d, d + 1], axis=1)
    labels = np.clip(ids[:, 0], 0, 2**62).astype(np.int64)
    if (bad := np.signbit(ids[:, 0]) | (labels != ids[:, 0])).any():
        i = int(np.argmax(bad))
        raise ValueError(f"{path}: line {2 + len(CLOUD[1]) + i}: cluster id {float(ids[i, 0])!r} "
                         "is not an integer >= 0")
    return SpherePointCloud(z, labels, actions)
