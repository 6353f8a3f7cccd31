"""Procedural reference motion clips and goal-state construction.

Clips mimic a small combat-motion taxonomy (idle stance, footwork, jab,
hook, kick, combinations).  Each family is a set of smooth seeded curves
for the root and arms; leg angles come from two-link IK against planted
or swinging foot targets, so the kinematic poses never dig into the
ground.  Frame velocities are forward differences of the stored poses,
which makes pose/velocity consistency exact by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import physics as ph

FAMILIES = ("idle", "footwork", "jab", "hook", "kick", "combo")

CLIP_MAGIC = "SLMP-CLIP/1"


class ClipFormatError(ValueError):
    pass


@dataclass
class MotionClip:
    """Time-indexed reference trajectory at a fixed frame rate.

    The per-quantity arrays are views into ``frames``, one (F, 6 + 2J)
    array of rows [root_pos, root_angle, joints, root_vel, root_ang_vel,
    joint_vels] in the ``physics.World`` coordinate layout, from which
    batched rollouts gather whole reference frames.
    """

    frame_rate: float
    family: str
    clip_id: str
    root_pos: np.ndarray  # (F,2)
    root_angle: np.ndarray  # (F,)
    joints: np.ndarray  # (F,J)
    root_vel: np.ndarray  # (F,2)
    root_ang_vel: np.ndarray  # (F,)
    joint_vels: np.ndarray  # (F,J)

    def __post_init__(self):
        self.frames = np.concatenate(
            [self.root_pos, self.root_angle[:, None], self.joints,
             self.root_vel, self.root_ang_vel[:, None], self.joint_vels],
            axis=1,
        )
        self.root_pos, q, self.root_vel, qd = split_frames(self.frames)
        self.root_angle, self.joints = q[:, 0], q[:, 1:]
        self.root_ang_vel, self.joint_vels = qd[:, 0], qd[:, 1:]

    @property
    def n_frames(self) -> int:
        return self.root_angle.shape[0]

    @property
    def n_joints(self) -> int:
        return self.joints.shape[1]

    @property
    def duration(self) -> float:
        return self.n_frames / self.frame_rate

    def frame_state(self, i: int) -> ph.SimState:
        return ph.SimState(
            root_pos=self.root_pos[i].copy(),
            root_angle=float(self.root_angle[i]),
            joint_angles=self.joints[i].copy(),
            root_vel=self.root_vel[i].copy(),
            root_ang_vel=float(self.root_ang_vel[i]),
            joint_vels=self.joint_vels[i].copy(),
            time=i / self.frame_rate,
        )

    def goal_frame_index(self, t: float) -> int:
        """Index of the next reference frame after time t, clamped."""
        return int(_goal_index([self], np.array([t]))[0])

    def sample(self, t: float):
        """Linear pose interpolation (shortest arc for angles) at time t.

        Returns (root_pos, root_angle, joints, root_vel, root_ang_vel,
        joint_vels); velocities are interpolated linearly as well.
        """
        rp, q, rv, qd = split_frames(sample_frames([self], np.array([t])))
        return rp[0], float(q[0, 0]), q[0, 1:], rv[0], float(qd[0, 0]), qd[0, 1:]


def split_frames(rows: np.ndarray):
    """(root_pos, q, root_vel, qd) views of (E, 6 + 2J) frame rows."""
    n = (rows.shape[1] - 4) // 2
    return rows[:, :2], rows[:, 2 : 2 + n], rows[:, 2 + n : 4 + n], rows[:, 4 + n :]


def _goal_index(clips: list[MotionClip], t: np.ndarray) -> np.ndarray:
    """Per env, the index of the next reference frame after t, clamped."""
    rate = np.array([c.frame_rate for c in clips])
    n = np.array([c.n_frames for c in clips])
    duration = n / rate
    bad = (t < -1e-9) | (t > duration + 1e-9)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"t={t[i]} outside clip duration {duration[i]}")
    return np.minimum(np.floor(t * rate + 1.0 + 1e-9).astype(int), n - 1)


def goal_frames(clips: list[MotionClip], t: np.ndarray) -> np.ndarray:
    """Next reference frame of every env: env e follows clips[e] at t[e]."""
    return np.stack([c.frames[i] for c, i in zip(clips, _goal_index(clips, t))])


def sample_frames(clips: list[MotionClip], t: np.ndarray) -> np.ndarray:
    """``MotionClip.sample`` of every env as frame rows."""
    rate = np.array([c.frame_rate for c in clips])
    n = np.array([c.n_frames for c in clips])
    f = np.minimum(np.maximum(t, 0.0), n / rate) * rate
    i0 = np.minimum(f.astype(int), n - 1)
    i1 = np.minimum(i0 + 1, n - 1)
    a = (f - i0)[:, None]
    p0 = np.stack([c.frames[i] for c, i in zip(clips, i0)])
    p1 = np.stack([c.frames[i] for c, i in zip(clips, i1)])
    out = (1 - a) * p0 + a * p1
    ang = slice(2, 3 + clips[0].n_joints)
    out[:, ang] = p0[:, ang] + a * ph.wrap_angle(p1[:, ang] - p0[:, ang])
    return out


@dataclass
class Goal:
    """Next-frame reference discrepancies, localized to the root frame."""

    d_rot: np.ndarray  # (1+J,) wrapped rotation differences, root first
    d_pos: np.ndarray  # (2,) root position difference, root frame
    d_vel: np.ndarray  # (2,) root linear velocity difference, root frame
    d_ang_vel: np.ndarray  # (1+J,)
    ref_rot: np.ndarray  # (1+J,) next reference pose: relative root angle, absolute joints
    ref_pos: np.ndarray  # (2,) next reference root position in the root frame

    def flat(self) -> np.ndarray:
        return np.concatenate(
            [self.d_rot, self.d_pos, self.d_vel, self.d_ang_vel, self.ref_rot, self.ref_pos]
        )

    @staticmethod
    def dim(n_joints: int) -> int:
        return 3 * (1 + n_joints) + 6


def goal_rows(ref: np.ndarray, root_pos, q, root_vel, qd) -> np.ndarray:
    """``Goal.flat()`` of every env: ``ref`` holds each env's next reference
    frame (``goal_frames``), the rest are the env coordinates.

    In the planar setting the localized absolute root position and the
    localized root position difference coincide; both fields are kept so
    the observation layout stays explicit.
    """
    ref_pos, ref_q, ref_vel, ref_qd = split_frames(ref)
    d_root = ph.wrap_angle(ref_q[:, :1] - q[:, :1])
    d_pos = ph.to_local(q[:, 0], ref_pos - root_pos)
    return np.concatenate(
        [
            d_root, ph.wrap_angle(ref_q[:, 1:] - q[:, 1:]),
            d_pos,
            ph.to_local(q[:, 0], ref_vel - root_vel),
            ref_qd - qd,
            d_root, ph.wrap_angle(ref_q[:, 1:]),
            d_pos,
        ],
        axis=1,
    )


def goal_state(clip: MotionClip, t: float, state: ph.SimState) -> Goal:
    """Goal seen by the tracking policy: wrapped next-frame differences."""
    i = clip.goal_frame_index(t)
    row = goal_rows(
        clip.frames[i : i + 1], state.root_pos[None], state.theta()[None],
        state.root_vel[None], state.theta_dot()[None],
    )[0]
    n = 1 + clip.n_joints
    return Goal(row[:n], row[n : n + 2], row[n + 2 : n + 4], row[n + 4 : 2 * n + 4],
                row[2 * n + 4 : 3 * n + 4], row[3 * n + 4 :])


# --- generation ---------------------------------------------------------


def _bump(t: float, t0: float, dur: float) -> float:
    """Raised-cosine bump: 0 outside [t0, t0+dur], 1 at the midpoint."""
    if dur <= 0 or t < t0 or t > t0 + dur:
        return 0.0
    u = (t - t0) / dur
    return 0.5 * (1.0 - math.cos(2.0 * math.pi * u))


def _ramp(t: float, t0: float, dur: float) -> float:
    """Smooth 0 -> 1 transition over [t0, t0+dur]."""
    if t <= t0:
        return 0.0
    if t >= t0 + dur:
        return 1.0
    u = (t - t0) / dur
    return 0.5 * (1.0 - math.cos(math.pi * u))


class _PoseBuilder:
    """Shared scaffolding: stance base, guard blending, leg IK."""

    def __init__(self, spec: ph.CharacterSpec, cfg: ph.PhysicsConfig):
        self.spec = spec
        self.stance = ph.nominal_stance(spec, cfg)
        self.jidx = {n: i for i, n in enumerate(ph.JOINT_NAMES)}
        k = ph.Kinematics.of(ph.World.of([self.stance], spec), spec)
        self.foot0 = {
            side: np.array([k.site_x[0, s], k.site_y[0, s]])
            for side, s in (("l", spec.site_index["foot_l"]), ("r", spec.site_index["foot_r"]))
        }
        self.root0 = self.stance.root_pos.copy()
        self.l1 = spec.links[5].length
        self.l2 = spec.links[6].length

    def arms(self, joints: np.ndarray, guard: float, offsets: dict[str, float]):
        """Blend arm joints from rest toward guard, then add offsets."""
        for name, g in ph.GUARD_ARMS.items():
            j = self.jidx[name]
            rest = self.stance.joint_angles[j]
            joints[j] = rest + guard * (g - rest) + offsets.get(name, 0.0)

    def legs(self, joints: np.ndarray, root_pos: np.ndarray, root_angle: float,
             foot_l: np.ndarray, foot_r: np.ndarray):
        for side, foot in (("l", foot_l), ("r", foot_r)):
            qh, qk = ph.leg_ik(root_pos, foot, self.l1, self.l2, root_angle)
            joints[self.jidx[f"hip_{side}"]] = qh
            joints[self.jidx[f"knee_{side}"]] = qk


def _pose_fn(family: str, rng: np.random.Generator, builder: _PoseBuilder):
    """Returns pose(t) -> (root_pos, root_angle, joints) for one seeded clip."""
    b = builder
    root0 = b.root0
    jab_period = rng.uniform(1.2, 2.0)
    hook_period = rng.uniform(1.6, 2.4)
    kick_period = rng.uniform(2.2, 3.0)
    sway_f = rng.uniform(0.35, 0.65)
    sway_phase = rng.uniform(0.0, 2.0 * math.pi)
    sway_amp = rng.uniform(0.03, 0.06)
    shift_f = rng.uniform(0.25, 0.45)
    shift_amp = rng.uniform(0.10, 0.16)
    lift_h = rng.uniform(0.02, 0.04)
    jab_side = "l"
    kick_side = "l" if rng.uniform() < 0.5 else "r"
    lunge = rng.uniform(0.03, 0.06)
    hook_root = rng.uniform(0.06, 0.10)

    def strike_arm(offsets: dict[str, float], side: str, phase: float, kind: str):
        sh, el = f"shoulder_{side}", f"elbow_{side}"
        if kind == "jab":
            ext = _ramp(phase, 0.0, 0.13) - _ramp(phase, 0.17, 0.18)
            offsets[sh] = offsets.get(sh, 0.0) + ext * (1.45 - ph.GUARD_ARMS[sh])
            offsets[el] = offsets.get(el, 0.0) + ext * (0.15 - ph.GUARD_ARMS[el])
        else:  # hook
            ext = _ramp(phase, 0.0, 0.16) - _ramp(phase, 0.22, 0.22)
            offsets[sh] = offsets.get(sh, 0.0) + ext * (1.55 - ph.GUARD_ARMS[sh])
            offsets[el] = offsets.get(el, 0.0) + ext * (1.25 - ph.GUARD_ARMS[el])

    def pose(t: float):
        joints = b.stance.joint_angles.copy()
        root_pos = root0.copy()
        root_angle = 0.0
        foot_l = b.foot0["l"].copy()
        foot_r = b.foot0["r"].copy()
        offsets: dict[str, float] = {}
        guard = 0.0

        if family == "idle":
            for name, amp in (("shoulder_l", sway_amp), ("shoulder_r", -sway_amp),
                              ("elbow_l", 0.7 * sway_amp), ("elbow_r", -0.7 * sway_amp)):
                offsets[name] = amp * math.sin(2.0 * math.pi * sway_f * t + sway_phase)
        elif family == "footwork":
            guard = _ramp(t, 0.0, 0.4)
            s = math.sin(2.0 * math.pi * shift_f * t)
            root_pos[0] += shift_amp * s
            # crouch enough to keep both feet reachable, then lift the
            # unweighted foot near each extreme of the shift
            c = math.cos(2.0 * math.pi * shift_f * t)
            if s > 0.55 and abs(c) < 0.6:
                foot_r[1] += lift_h * _bump(s, 0.55, 0.45 * 2)
            if s < -0.55 and abs(c) < 0.6:
                foot_l[1] += lift_h * _bump(-s, 0.55, 0.45 * 2)
        elif family == "jab":
            guard = _ramp(t, 0.0, 0.4)
            phase = (t - 0.6) % jab_period if t > 0.6 else -1.0
            if phase >= 0.0:
                strike_arm(offsets, jab_side, phase, "jab")
                root_pos[0] += lunge * _bump(phase, 0.0, 0.4)
        elif family == "hook":
            guard = _ramp(t, 0.0, 0.4)
            phase = (t - 0.8) % hook_period if t > 0.8 else -1.0
            if phase >= 0.0:
                strike_arm(offsets, "r", phase, "hook")
                root_angle -= hook_root * _bump(phase, 0.0, 0.44)
        elif family == "kick":
            guard = _ramp(t, 0.0, 0.4)
            phase = (t - 1.0) % kick_period if t > 1.0 else -1.0
            if phase >= 0.0:
                k = _bump(phase, 0.0, 0.8)
                kick_foot = foot_l if kick_side == "l" else foot_r
                stance_x = b.foot0["r" if kick_side == "l" else "l"][0]
                kick_foot[0] = b.foot0[kick_side][0] + 0.45 * k
                kick_foot[1] += 0.40 * k
                root_pos[0] += (stance_x - root0[0] + 0.03) * _bump(phase, 0.0, 0.8)
                root_pos[1] -= 0.02 * k
        elif family == "combo":
            guard = _ramp(t, 0.0, 0.4)
            s = math.sin(2.0 * math.pi * 0.3 * t)
            root_pos[0] += 0.06 * s
            phase_j = (t - 0.6) % jab_period if t > 0.6 else -1.0
            if phase_j >= 0.0:
                strike_arm(offsets, "l", phase_j, "jab")
            phase_h = (t - 0.6 - 0.5 * jab_period) % jab_period if t > 0.6 + 0.5 * jab_period else -1.0
            if phase_h >= 0.0:
                strike_arm(offsets, "r", phase_h, "hook")
                root_angle -= 0.06 * _bump(phase_h, 0.0, 0.44)
        else:
            raise ValueError(f"unknown clip family {family!r}")

        b.arms(joints, guard, offsets)
        b.legs(joints, root_pos, root_angle, foot_l, foot_r)
        return root_pos, root_angle, joints

    return pose


def generate_clip(
    family: str,
    seed: int,
    duration: float = 10.0,
    frame_rate: float = 30.0,
    spec: ph.CharacterSpec | None = None,
    cfg: ph.PhysicsConfig | None = None,
) -> MotionClip:
    """Build one seeded clip; identical inputs give identical clips."""
    if family not in FAMILIES:
        raise ValueError(f"unknown clip family {family!r}")
    if not 2.0 <= duration <= 20.0:
        raise ValueError("duration must be in [2 s, 20 s]")
    spec = spec or ph.default_character()
    cfg = cfg or ph.default_config(spec)
    rng = np.random.default_rng(seed)
    builder = _PoseBuilder(spec, cfg)
    pose = _pose_fn(family, rng, builder)

    n = int(round(duration * frame_rate))
    nj = spec.n_joints
    root_pos = np.zeros((n, 2))
    root_angle = np.zeros(n)
    joints = np.zeros((n, nj))
    for k in range(n):
        rp, ra, jq = pose(k / frame_rate)
        root_pos[k] = rp
        root_angle[k] = ra
        joints[k] = jq
    return _clip_from_poses(frame_rate, family, f"{family}-{seed:03d}", root_pos, root_angle, joints)


def _clip_from_poses(
    frame_rate: float, family: str, clip_id: str,
    root_pos: np.ndarray, root_angle: np.ndarray, joints: np.ndarray,
) -> MotionClip:
    """A clip whose velocities are forward differences of its poses (the
    angles' wrapped); the last frame repeats the one before it."""
    root_vel = np.zeros_like(root_pos)
    root_ang_vel = np.zeros_like(root_angle)
    joint_vels = np.zeros_like(joints)
    root_vel[:-1] = (root_pos[1:] - root_pos[:-1]) * frame_rate
    root_ang_vel[:-1] = ph.wrap_angle(root_angle[1:] - root_angle[:-1]) * frame_rate
    joint_vels[:-1] = ph.wrap_angle(joints[1:] - joints[:-1]) * frame_rate
    if len(root_angle) > 1:
        root_vel[-1] = root_vel[-2]
        root_ang_vel[-1] = root_ang_vel[-2]
        joint_vels[-1] = joint_vels[-2]
    return MotionClip(
        frame_rate=frame_rate, family=family, clip_id=clip_id,
        root_pos=root_pos, root_angle=root_angle, joints=joints,
        root_vel=root_vel, root_ang_vel=root_ang_vel, joint_vels=joint_vels,
    )


DEFAULT_COUNTS = {"idle": 10, "footwork": 10, "jab": 5, "hook": 5, "kick": 5, "combo": 5}


def generate_library(
    counts: dict[str, int] | None = None,
    duration: float = 10.0,
    frame_rate: float = 30.0,
    spec: ph.CharacterSpec | None = None,
    cfg: ph.PhysicsConfig | None = None,
    seed: int = 0,
) -> list[MotionClip]:
    """Clip library in ``FAMILIES`` order; clip k gets seed ``seed + k``
    (0..39 at the defaults)."""
    counts = counts or DEFAULT_COUNTS
    families = [f for f in FAMILIES for _ in range(counts.get(f, 0))]
    return [
        generate_clip(family, seed + k, duration, frame_rate, spec, cfg)
        for k, family in enumerate(families)
    ]


# --- serialization ------------------------------------------------------


def save_clip(clip: MotionClip, path: str | Path) -> None:
    lines = [
        CLIP_MAGIC,
        f"hz={clip.frame_rate!r}",
        f"frames={clip.n_frames}",
        f"family={clip.family}",
        f"joints={clip.n_joints}",
        f"id={clip.clip_id}",
    ]
    for row in clip.frames:
        lines.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_clip(path: str | Path) -> MotionClip:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CLIP_MAGIC:
        raise ClipFormatError(f"{path}: line 1: expected {CLIP_MAGIC}")
    head = {}
    for ln, line in enumerate(lines[1:6], start=2):
        key, sep, val = line.partition("=")
        if not sep:
            raise ClipFormatError(f"{path}: line {ln}: expected key=value, got {line!r}")
        head[key] = val
    try:
        hz = float(head["hz"])
        frames = int(head["frames"])
        family = head["family"]
        joints = int(head["joints"])
        clip_id = head["id"]
    except (KeyError, ValueError) as e:
        raise ClipFormatError(f"{path}: malformed header: {e}") from e
    width = 2 * (3 + joints)
    data = np.zeros((frames, width))
    for k in range(frames):
        ln = 7 + k
        if 6 + k >= len(lines):
            raise ClipFormatError(f"{path}: line {ln}: missing frame {k} of {frames}")
        parts = lines[6 + k].split()
        if len(parts) != width:
            raise ClipFormatError(
                f"{path}: line {ln}: expected {width} values, got {len(parts)}"
            )
        try:
            data[k] = [float(p) for p in parts]
        except ValueError as e:
            raise ClipFormatError(f"{path}: line {ln}: {e}") from e
    j = joints
    return MotionClip(
        frame_rate=hz,
        family=family,
        clip_id=clip_id,
        root_pos=data[:, 0:2].copy(),
        root_angle=data[:, 2].copy(),
        joints=data[:, 3 : 3 + j].copy(),
        root_vel=data[:, 3 + j : 5 + j].copy(),
        root_ang_vel=data[:, 5 + j].copy(),
        joint_vels=data[:, 6 + j : 6 + 2 * j].copy(),
    )


def resample(clip: MotionClip, target_hz: float) -> MotionClip:
    """Linear pose resampling; velocities rebuilt by finite differences."""
    if target_hz <= 0:
        raise ValueError("target_hz must be positive")
    n_src = clip.n_frames
    n_dst = int(math.floor((n_src - 1) * target_hz / clip.frame_rate + 1e-9)) + 1
    root_pos = np.zeros((n_dst, 2))
    root_angle = np.zeros(n_dst)
    joints = np.zeros((n_dst, clip.n_joints))
    for k in range(n_dst):
        f = min(k * clip.frame_rate / target_hz, n_src - 1)
        i0 = min(int(f), n_src - 1)
        i1 = min(i0 + 1, n_src - 1)
        a = f - i0
        root_pos[k] = (1 - a) * clip.root_pos[i0] + a * clip.root_pos[i1]
        root_angle[k] = clip.root_angle[i0] + a * ph.wrap_angle(
            clip.root_angle[i1] - clip.root_angle[i0]
        )
        joints[k] = clip.joints[i0] + a * ph.wrap_angle(clip.joints[i1] - clip.joints[i0])
    return _clip_from_poses(target_hz, clip.family, clip.clip_id, root_pos, root_angle, joints)
