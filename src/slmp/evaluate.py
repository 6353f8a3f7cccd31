"""Evaluation protocols: latent tracking fidelity, random-rollout
survival curves, and state-conditioned sphere clustering exports.

Both rollout protocols step rows of a ``physics.World``.  Tracking
fidelity rolls every clip at once through ``tracking.track_clips`` (env
k of one ``EnvBatch`` follows clip k) under a row controller: the
expert's ``tracking.expert_controller`` or the prior's
``distill.latent_controller``.  Survival steps the trials still standing
as one World, with one stacked prior forward and one fall check per
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
from . import tracking as tr
from .seeding import seed_for


@dataclass
class SurvivalCurve:
    horizons: tuple[float, ...]
    fractions: tuple[float, ...]
    n_trials: int

    def __post_init__(self):
        if self.n_trials <= 0:
            raise ValueError("n_trials must be positive")
        hs = self.horizons
        if any(hs[i] >= hs[i + 1] for i in range(len(hs) - 1)):
            raise ValueError("horizons must be strictly increasing")
        fr = self.fractions
        if any(fr[i] < fr[i + 1] - 1e-12 for i in range(len(fr) - 1)):
            raise ValueError("survival fractions must be non-increasing")


@dataclass
class SpherePointCloud:
    z: np.ndarray  # (n, d) unit latents
    cluster_id: np.ndarray  # (n,)
    actions: np.ndarray  # (n, act_dim)


def tracking_error_kinematic(clip: mo.MotionClip, states: list[ph.SimState], spec: ph.CharacterSpec) -> float:
    """Mean site error of a given state sequence against the clip; the
    oracle path for the metric (feeding reference states yields zero)."""
    world = ph.World.of(states, spec)
    rows = mo.sample_frames(mo.ClipLibrary([clip]), np.zeros(len(states), dtype=np.int64), world.time)
    ref = ph.Kinematics(spec, *mo.split_frames(rows))
    return float(tr.site_error_rows(ph.Kinematics.of(world, spec), ref).mean())


def latent_tracking_eval(
    clips: list[mo.MotionClip],
    slmp_dir: str | Path,
    expert_ckpt: str | Path | None = None,
    spec: ph.CharacterSpec | None = None,
    phys: ph.PhysicsConfig | None = None,
    e_div: float = 0.5,
) -> dict[str, dict[str, float]]:
    """Success rate and mean site error when tracking through the latent
    space, optionally with the expert as the upper-bound comparison."""
    spec = spec or ph.default_character()
    phys = phys or ph.default_config(spec)
    methods = {"latent": di.latent_controller(*di.load_prior(slmp_dir), spec)}
    if expert_ckpt is not None:
        methods["expert"] = tr.expert_controller(*tr.load_policy(expert_ckpt))
    out: dict[str, dict[str, float]] = {}
    for name, controller in methods.items():
        ok, err = tr.track_clips(controller, clips, spec, phys, e_div)
        out[name] = {"success": float(ok.mean()), "mean_joint_error": float(err.mean())}
    return out


def survival_eval(
    phi_spec: nets.MlpSpec,
    phi_params: np.ndarray,
    n_trials: int,
    horizons: tuple[float, ...],
    seed: int,
    resample_period: float = 1.0,
    fixed_z: bool = False,
    spec: ph.CharacterSpec | None = None,
    phys: ph.PhysicsConfig | None = None,
    action_fn: Callable[[ph.World, list[np.random.Generator]], np.ndarray] | None = None,
) -> SurvivalCurve:
    """Random-latent rollout survival from the neutral stance.

    Each trial samples a uniform sphere latent (resampled every
    resample_period seconds unless fixed_z), rolls the prior out, and
    records the first fall; fractions count trials alive per horizon.
    The trials still standing step as the rows of one ``World``, and each
    draws from its own generator in its own order.  ``action_fn(world,
    rngs)`` overrides the prior for fixture policies in tests: it gets
    the standing trials' rows and generators and returns their
    (E, n_joints) PD targets.
    """
    spec = spec or ph.default_character()
    phys = phys or ph.default_config(spec)
    latent_dim = None
    if action_fn is None:
        latent_dim = phi_spec.input_dim - tr.proprio_dim(spec)
    steps = int(round(max(horizons) * phys.hz))
    resample_steps = max(1, int(round(resample_period * phys.hz)))
    rngs = [np.random.default_rng(seed_for(seed, f"survival-{trial}")) for trial in range(n_trials)]
    world = ph.World.of([ph.nominal_stance(spec, phys)] * n_trials, spec)
    z = np.stack([di.sample_sphere(latent_dim, rng) for rng in rngs]) if latent_dim else None
    fall_time = np.full(n_trials, math.inf)
    standing = np.arange(n_trials)  # the trial of each world row
    for k in range(steps):
        if not len(standing):
            break
        if not fixed_z and latent_dim and k > 0 and k % resample_steps == 0:
            z = np.stack([di.sample_sphere(latent_dim, rngs[i]) for i in standing])
        if action_fn is not None:
            targets = action_fn(world, [rngs[i] for i in standing])
        else:
            targets = di.prior_action(phi_spec, phi_params, tr.proprio_rows(*world.coords), z)
        world, report = ph.step_batch(world, spec, phys.dt, phys, pd_targets=targets)
        fell = ph.fallen(world.valid, report.kin, spec, phys)
        fall_time[standing[fell]] = (k + 1) * phys.dt
        standing, world = standing[~fell], world.rows(~fell)
        if z is not None:
            z = z[~fell]
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


def kmeans_inertia(points: np.ndarray, labels: np.ndarray) -> float:
    total = 0.0
    for c in np.unique(labels):
        p = points[labels == c]
        total += float(((p - p.mean(axis=0)) ** 2).sum())
    return total


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
    labels = kmeans(actions, k_eff, seed=seed_for(seed, "kmeans"))
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

    def decode(z: np.ndarray) -> np.ndarray:
        return di.prior_action(phi_spec, phi_params, np.repeat(proprio, len(z), axis=0), z)

    return decode


def fixture_state(name: str, spec: ph.CharacterSpec, phys: ph.PhysicsConfig) -> ph.SimState:
    """Named reference states for state-conditioned sphere plots."""
    if name == "guard":
        state = ph.nominal_stance(spec, phys)
        jidx = {n: i for i, n in enumerate(ph.JOINT_NAMES)}
        for jn, v in ph.GUARD_ARMS.items():
            state.joint_angles[jidx[jn]] = v
        return state
    if name == "airborne":
        state = ph.nominal_stance(spec, phys)
        state.anchor_x = None
        state.anchor_on = None
        state.root_pos = state.root_pos + np.array([0.0, 0.35])
        state.root_vel = np.array([0.6, 1.2])
        state.root_ang_vel = -0.8
        jidx = {n: i for i, n in enumerate(ph.JOINT_NAMES)}
        state.joint_angles[jidx["hip_l"]] = 1.1
        state.joint_angles[jidx["knee_l"]] = -1.3
        state.joint_angles[jidx["hip_r"]] = 0.4
        state.joint_angles[jidx["knee_r"]] = -0.9
        state.joint_vels = np.array([1.0, -1.0, 0.5, -0.5, 3.0, -2.0, 1.0, -1.0])
        return state
    raise ValueError(f"unknown fixture state {name!r}")


def save_cloud(cloud: SpherePointCloud, path: str | Path) -> None:
    """Plot-ready text: latent components, cluster id, action components."""
    d = cloud.z.shape[1]
    a = cloud.actions.shape[1]
    lines = [f"SLMP-CLOUD/1 latent={d} action={a} points={cloud.z.shape[0]}"]
    for i in range(cloud.z.shape[0]):
        vals = [repr(float(v)) for v in cloud.z[i]]
        vals.append(str(int(cloud.cluster_id[i])))
        vals += [repr(float(v)) for v in cloud.actions[i]]
        lines.append(" ".join(vals))
    Path(path).write_text("\n".join(lines) + "\n")


def load_cloud(path: str | Path) -> SpherePointCloud:
    lines = Path(path).read_text().splitlines()
    head = lines[0].split() if lines else []
    if not head or head[0] != "SLMP-CLOUD/1":
        raise ValueError(f"{path}: not a sphere cloud file")
    d = int(head[1].split("=")[1])
    a = int(head[2].split("=")[1])
    n = int(head[3].split("=")[1])
    z = np.zeros((n, d))
    labels = np.zeros(n, dtype=int)
    actions = np.zeros((n, a))
    for i in range(n):
        parts = lines[1 + i].split()
        z[i] = [float(p) for p in parts[:d]]
        labels[i] = int(parts[d])
        actions[i] = [float(p) for p in parts[d + 1 :]]
    return SpherePointCloud(z, labels, actions)


def label_agreement(pred: np.ndarray, true: np.ndarray, k: int) -> float:
    """Best label-permutation agreement between two clusterings."""
    from itertools import permutations

    best = 0.0
    for perm in permutations(range(k)):
        mapped = np.array([perm[p] for p in pred])
        best = max(best, float((mapped == true).mean()))
    return best
