"""Procedural reference motion clips and goal-state construction.

Clips mimic a small combat-motion taxonomy (idle stance, footwork, jab,
hook, kick, combinations).  Each family is a set of smooth seeded curves
for the root and arms; leg angles come from two-link IK against planted
or swinging foot targets, so the kinematic poses never dig into the
ground.  Frame velocities are forward differences of the stored poses,
which makes pose/velocity consistency exact by construction.

A clip is generated in two passes.  The per-frame scalar logic (phases,
ramps, bumps) poses every frame: root, guard blend, arm offsets and foot
targets.  Then the arm joints of all frames are blended in one array
expression, and each leg is solved for all frames in one
``physics.leg_ik_rows`` call.  The arithmetic is elementwise, so every
frame gets the bits of the one-frame computation.  The transcendentals
(``atan2``, ``acos``, ``cos``, ``sin``) stay libm ``math`` calls, one per
row: numpy's SIMD versions may round differently, and differently on
each machine, which would change the clip bytes.

A ``MotionClip`` is the file format and the generator's output: a frame
rate, a family, an id and one (F, 6 + 2J) array of frame rows in the
``physics.World`` coordinate layout (``split_frames``).  Batched
rollouts read clips through a ``ClipLibrary``: all frames of a clip list
in one array, with per-clip offsets, frame counts, rates and an
idle/footwork flag.  The rule for reference frames is one gather, then
arithmetic: ``sample_frames`` and ``goal_frames`` index the library rows
of each env's (clip index, time) in one fancy index and interpolate or
return them, so every row gets the bits of the one-clip computation.
``MotionClip.sample`` and ``goal_frame_index`` are that computation on a
one-clip library.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nets
from . import physics as ph

FAMILIES = ("idle", "footwork", "jab", "hook", "kick", "combo")
CLIP_SECONDS = 10.0  # default clip length
CLIP_SECONDS_RANGE = (2.0, 20.0)  # the clip lengths generate_clip makes
CLIP_HZ = 30.0  # default clip frame rate

CLIP_MAGIC = "SLMP-CLIP/2"


class ClipFormatError(ValueError):
    pass


def _frame_rate(hz) -> float:
    """``hz`` as a clip frame rate, refused unless finite and positive."""
    hz = float(hz)
    if not (math.isfinite(hz) and hz > 0):
        raise ValueError(f"frame rate {hz!r} is not finite and positive")
    return hz


@dataclass
class MotionClip:
    """Time-indexed reference trajectory at a fixed frame rate.

    ``frames`` holds the whole motion: a float64 copy of the (F, 6 + 2J)
    rows it is given, each [root_pos, root_angle, joints, root_vel,
    root_ang_vel, joint_vels] in the ``physics.World`` coordinate layout
    (``split_frames``).  A ``ClipLibrary`` of several clips rebinds
    ``frames`` to a view of its own array; ``library`` is the one
    ``ClipLibrary.of`` last bound the clip into.
    """

    frame_rate: float
    family: str
    clip_id: str
    frames: np.ndarray  # (F, 6 + 2J)

    def __post_init__(self):
        self.frame_rate = _frame_rate(self.frame_rate)  # a float, so its repr reads back
        self.frames = np.array(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[1] < 6 or self.frames.shape[1] % 2:
            raise ValueError(f"frames must be (F, 6 + 2J) rows, got shape {self.frames.shape}")
        self.library: ClipLibrary | None = None  # set by ClipLibrary.of

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_joints(self) -> int:
        return (self.frames.shape[1] - 6) // 2

    @property
    def duration(self) -> float:
        return self.n_frames / self.frame_rate

    def frame_state(self, i: int) -> ph.SimState:
        rp, q, rv, qd = split_frames(self.frames[[i]])  # a copy
        return ph.SimState(rp[0], float(q[0, 0]), q[0, 1:], rv[0], float(qd[0, 0]), qd[0, 1:],
                           time=i / self.frame_rate)

    def goal_frame_index(self, t: float) -> int:
        """Index of the next reference frame after time t, clamped."""
        return int(_goal_index(ClipLibrary([self]), _FIRST, np.array([t]))[0])

    def sample(self, t: float):
        """Linear pose interpolation (shortest arc for angles) at time t.

        Returns (root_pos, root_angle, joints, root_vel, root_ang_vel,
        joint_vels); velocities are interpolated linearly as well.
        """
        rp, q, rv, qd = split_frames(sample_frames(ClipLibrary([self]), _FIRST, np.array([t])))
        return rp[0], float(q[0, 0]), q[0, 1:], rv[0], float(qd[0, 0]), qd[0, 1:]


def split_frames(rows: np.ndarray):
    """(root_pos, q, root_vel, qd) views of (E, 6 + 2J) frame rows."""
    n = (rows.shape[1] - 4) // 2
    return rows[:, :2], rows[:, 2 : 2 + n], rows[:, 2 + n : 4 + n], rows[:, 4 + n :]


IDLE_FOOTWORK = ("idle", "footwork")
_FIRST = np.zeros(1, dtype=np.int64)  # clip index of a one-clip library's one row


class ClipLibrary:
    """The frames of a clip list as one (total_frames, 6 + 2J) array.

    Clip k owns rows ``offset[k] : offset[k] + n_frames[k]``; ``n_frames``,
    ``frame_rate``, ``duration`` and ``idle_fw`` (an idle or footwork
    clip) hold one entry per clip.  Batched rollouts keep one clip index
    per env and gather frame rows with it (``sample_frames``,
    ``goal_frames``), so stepping touches no ``MotionClip``.  Building a
    library of several clips copies their frames once and rebinds every
    clip's ``frames`` to a view of the copy; a one-clip library uses the
    clip's own frames.  ``of`` gives every user of one clip list one library.
    """

    def __init__(self, clips: list[MotionClip]):
        if not clips or any(c.n_joints != clips[0].n_joints for c in clips):
            raise ValueError("a clip library needs clips of one character")
        self.clip_ids = tuple(map(id, clips))
        self.n_joints = clips[0].n_joints
        self.n_frames = np.array([c.n_frames for c in clips])
        self.frame_rate = np.array([c.frame_rate for c in clips], dtype=np.float64)
        self.duration = self.n_frames / self.frame_rate
        self.offset = np.cumsum(self.n_frames) - self.n_frames
        self.idle_fw = np.array([c.family in IDLE_FOOTWORK for c in clips])
        if len(clips) == 1:
            self.frames = clips[0].frames
        else:
            self.frames = np.concatenate([c.frames for c in clips])
            for c, lo, n in zip(clips, self.offset, self.n_frames):
                c.frames = self.frames[lo : lo + n]

    def __len__(self) -> int:
        return len(self.clip_ids)

    @classmethod
    def of(cls, clips: list[MotionClip]) -> "ClipLibrary":
        """The library of ``clips``: the one they belong to when it was
        built from exactly these clips in this order, else a new one that
        they then belong to.  Each clip keeps its library alive and the
        library holds no clip, so a clip list is copied once however many
        envs and batches use it, and freed with its clips."""
        lib = clips[0].library if clips else None
        # a clip that belongs to ``lib`` is alive, so its id names it
        if (lib is None or lib.clip_ids != tuple(map(id, clips))
                or any(c.library is not lib for c in clips)):
            lib = cls(clips)
            for c in clips:
                c.library = lib
        return lib


def _goal_index(library: ClipLibrary, clip_index: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per env, the index of the next reference frame after t, clamped."""
    rate = library.frame_rate[clip_index]
    n = library.n_frames[clip_index]
    duration = library.duration[clip_index]
    bad = (t < -1e-9) | (t > duration + 1e-9)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"t={t[i]} outside clip duration {duration[i]}")
    return np.minimum(np.floor(t * rate + 1.0 + 1e-9).astype(int), n - 1)


def goal_frames(library: ClipLibrary, clip_index: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Next reference frame of every env: env e follows clip
    ``clip_index[e]`` of ``library`` at time ``t[e]``."""
    return library.frames[library.offset[clip_index] + _goal_index(library, clip_index, t)]


def sample_frames(library: ClipLibrary, clip_index: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``MotionClip.sample`` of every env as frame rows: one gather of the
    two bracketing frames, then the interpolation."""
    rate = library.frame_rate[clip_index]
    n = library.n_frames[clip_index]
    f = np.minimum(np.maximum(t, 0.0), library.duration[clip_index]) * rate
    i0 = np.minimum(f.astype(int), n - 1)
    i1 = np.minimum(i0 + 1, n - 1)
    a = (f - i0)[:, None]
    base = library.offset[clip_index]
    p0, p1 = library.frames[np.stack([base + i0, base + i1])]
    out = (1 - a) * p0 + a * p1
    ang = slice(2, 3 + library.n_joints)
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


def goal_rows(ref: np.ndarray, root_pos, q, root_vel, qd, *, cs=None, out=None) -> np.ndarray:
    """``Goal.flat()`` of every env: ``ref`` holds each env's next reference
    frame (``goal_frames``), the rest are the env coordinates.

    ``cs``, the cos and sin of the root angles ``q[:, 0]``, and ``out``, an
    (E, ``Goal.dim``) array to write into, let a caller share the trig
    and the buffer with the rest of an observation.  In the planar setting
    the localized absolute root position and the localized root position
    difference coincide; both fields are kept so the observation layout
    stays explicit.
    """
    n = q.shape[1]
    c, s = (np.cos(q[:, 0]), np.sin(q[:, 0])) if cs is None else cs
    out = np.empty((len(q), 3 * n + 6)) if out is None else out
    ref_pos, ref_q, ref_vel, ref_qd = split_frames(ref)
    ph.wrap_angle(ref_q - q, out=out[:, :n])
    ph.rotate_into(out[:, n : n + 2], c, s, ref_pos - root_pos)
    ph.rotate_into(out[:, n + 2 : n + 4], c, s, ref_vel - root_vel)
    np.subtract(ref_qd, qd, out=out[:, n + 4 : 2 * n + 4])
    out[:, 2 * n + 4] = out[:, 0]
    ph.wrap_angle(ref_q[:, 1:], out=out[:, 2 * n + 5 : 3 * n + 4])
    out[:, 3 * n + 4 :] = out[:, n : n + 2]
    return out


def goal_state(clip: MotionClip, t: float, state: ph.SimState) -> Goal:
    """Goal seen by the tracking policy: wrapped next-frame differences."""
    row = goal_rows(
        goal_frames(ClipLibrary([clip]), _FIRST, np.array([t])),
        state.root_pos[None], state.theta()[None],
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
    """Shared scaffolding: stance base, guard blending, leg IK, each over
    the rows of a whole clip."""

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
        self.arm_idx = [self.jidx[name] for name in ph.GUARD_ARMS]

    def arms(self, joints: np.ndarray, guard: np.ndarray, offsets: np.ndarray):
        """Blend every frame's arm joints from rest toward guard, then add
        offsets: ``guard`` (n,), ``offsets`` (n, 4) in ``GUARD_ARMS`` order."""
        rest = self.stance.joint_angles[self.arm_idx]
        g = np.array(list(ph.GUARD_ARMS.values()))
        joints[:, self.arm_idx] = rest + guard[:, None] * (g - rest) + offsets

    def legs(self, joints: np.ndarray, root_pos: np.ndarray, root_angle: np.ndarray,
             foot_l: np.ndarray, foot_r: np.ndarray):
        """Solve both legs of every frame, hips at the root, for the (n, 2)
        foot targets."""
        for side, foot in (("l", foot_l), ("r", foot_r)):
            qh, qk = ph.leg_ik_rows(root_pos, foot, self.l1, self.l2, root_angle)
            joints[:, self.jidx[f"hip_{side}"]] = qh
            joints[:, self.jidx[f"knee_{side}"]] = qk


def _pose_fn(family: str, rng: np.random.Generator, builder: _PoseBuilder):
    """Returns pose(t) -> (root_pos, root_angle, guard, arm_offsets, foot_l,
    foot_r) for one seeded clip: the frame's root, its guard blend, its
    offsets of the ``GUARD_ARMS`` joints in that order, and its two foot
    targets, all as Python floats (the IEEE arithmetic of numpy scalars
    without their per-frame arrays).  ``_PoseBuilder`` turns a clip's
    frames into joint angles."""
    b = builder
    root_x, root_y = (float(v) for v in b.root0)
    foot0 = {side: tuple(float(v) for v in b.foot0[side]) for side in ("l", "r")}
    arm = {name: i for i, name in enumerate(ph.GUARD_ARMS)}
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

    def strike_arm(offsets: list[float], side: str, phase: float, kind: str):
        sh, el = f"shoulder_{side}", f"elbow_{side}"
        if kind == "jab":
            ext = _ramp(phase, 0.0, 0.13) - _ramp(phase, 0.17, 0.18)
            offsets[arm[sh]] += ext * (1.45 - ph.GUARD_ARMS[sh])
            offsets[arm[el]] += ext * (0.15 - ph.GUARD_ARMS[el])
        else:  # hook
            ext = _ramp(phase, 0.0, 0.16) - _ramp(phase, 0.22, 0.22)
            offsets[arm[sh]] += ext * (1.55 - ph.GUARD_ARMS[sh])
            offsets[arm[el]] += ext * (1.25 - ph.GUARD_ARMS[el])

    def pose(t: float):
        rx, ry = root_x, root_y
        root_angle = 0.0
        (flx, fly), (frx, fry) = foot0["l"], foot0["r"]
        offsets = [0.0] * len(arm)
        guard = 0.0

        if family == "idle":
            for name, amp in (("shoulder_l", sway_amp), ("shoulder_r", -sway_amp),
                              ("elbow_l", 0.7 * sway_amp), ("elbow_r", -0.7 * sway_amp)):
                offsets[arm[name]] = amp * math.sin(2.0 * math.pi * sway_f * t + sway_phase)
        elif family == "footwork":
            guard = _ramp(t, 0.0, 0.4)
            s = math.sin(2.0 * math.pi * shift_f * t)
            rx += shift_amp * s
            # crouch enough to keep both feet reachable, then lift the
            # unweighted foot near each extreme of the shift
            c = math.cos(2.0 * math.pi * shift_f * t)
            if s > 0.55 and abs(c) < 0.6:
                fry += lift_h * _bump(s, 0.55, 0.45 * 2)
            if s < -0.55 and abs(c) < 0.6:
                fly += lift_h * _bump(-s, 0.55, 0.45 * 2)
        elif family == "jab":
            guard = _ramp(t, 0.0, 0.4)
            phase = (t - 0.6) % jab_period if t > 0.6 else -1.0
            if phase >= 0.0:
                strike_arm(offsets, jab_side, phase, "jab")
                rx += lunge * _bump(phase, 0.0, 0.4)
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
                stance_x = foot0["r" if kick_side == "l" else "l"][0]
                kick_x = foot0[kick_side][0] + 0.45 * k
                if kick_side == "l":
                    flx, fly = kick_x, fly + 0.40 * k
                else:
                    frx, fry = kick_x, fry + 0.40 * k
                rx += (stance_x - root_x + 0.03) * _bump(phase, 0.0, 0.8)
                ry -= 0.02 * k
        elif family == "combo":
            guard = _ramp(t, 0.0, 0.4)
            s = math.sin(2.0 * math.pi * 0.3 * t)
            rx += 0.06 * s
            phase_j = (t - 0.6) % jab_period if t > 0.6 else -1.0
            if phase_j >= 0.0:
                strike_arm(offsets, "l", phase_j, "jab")
            phase_h = (t - 0.6 - 0.5 * jab_period) % jab_period if t > 0.6 + 0.5 * jab_period else -1.0
            if phase_h >= 0.0:
                strike_arm(offsets, "r", phase_h, "hook")
                root_angle -= 0.06 * _bump(phase_h, 0.0, 0.44)
        else:
            raise ValueError(f"unknown clip family {family!r}")

        return (rx, ry), root_angle, guard, offsets, (flx, fly), (frx, fry)

    return pose


def clip_frames(duration: float, frame_rate: float) -> int:
    """Frame count of a generated clip ``duration`` seconds long at
    ``frame_rate``, refused outside ``CLIP_SECONDS_RANGE`` or below two
    frames."""
    lo, hi = CLIP_SECONDS_RANGE
    if not lo <= duration <= hi:
        raise ValueError(f"duration must be in [{lo:g} s, {hi:g} s]")
    n = int(round(duration * frame_rate)) if math.isfinite(frame_rate) else 0
    # draw_start and the forward-difference velocities need two frames
    if n < 2:
        raise ValueError(
            f"frame rate {frame_rate} Hz over {duration} s: need a finite positive "
            "rate that gives at least 2 frames"
        )
    return n


def generate_clip(
    family: str,
    seed: int,
    duration: float = CLIP_SECONDS,
    frame_rate: float = CLIP_HZ,
    spec: ph.CharacterSpec | None = None,
    cfg: ph.PhysicsConfig | None = None,
) -> MotionClip:
    """Build one seeded clip; identical inputs give identical clips."""
    if family not in FAMILIES:
        raise ValueError(f"unknown clip family {family!r}")
    n = clip_frames(duration, frame_rate)
    spec = spec or ph.default_character()
    cfg = cfg or ph.default_config(spec)
    rng = np.random.default_rng(seed)
    builder = _PoseBuilder(spec, cfg)
    pose = _pose_fn(family, rng, builder)

    root_pos, root_angle, guard, offsets, foot_l, foot_r = (
        np.array(col, dtype=np.float64) for col in zip(*(pose(k / frame_rate) for k in range(n)))
    )
    joints = np.tile(builder.stance.joint_angles, (n, 1))
    builder.arms(joints, guard, offsets)
    builder.legs(joints, root_pos, root_angle, foot_l, foot_r)
    return _clip_from_poses(frame_rate, family, f"{family}-{seed:03d}", root_pos, root_angle, joints)


def _clip_from_poses(
    frame_rate: float, family: str, clip_id: str,
    root_pos: np.ndarray, root_angle: np.ndarray, joints: np.ndarray,
) -> MotionClip:
    """A clip whose velocities are forward differences of its poses (the
    angles' wrapped); the last frame repeats the one before it."""
    poses = np.concatenate([root_pos, root_angle[:, None], joints], axis=1)
    vels = np.diff(poses, axis=0)
    ph.wrap_angle(vels[:, 2:], out=vels[:, 2:])
    vels = np.vstack([vels, vels[-1:]]) * frame_rate
    return MotionClip(frame_rate, family, clip_id, np.hstack([poses, vels]))


# the default library: clips per family, each CLIP_SECONDS long at CLIP_HZ
DEFAULT_COUNTS = {"idle": 10, "footwork": 10, "jab": 5, "hook": 5, "kick": 5, "combo": 5}


def generate_library(
    counts: dict[str, int] | None = None,
    duration: float = CLIP_SECONDS,
    frame_rate: float = CLIP_HZ,
    spec: ph.CharacterSpec | None = None,
    cfg: ph.PhysicsConfig | None = None,
    seed: int = 0,
) -> list[MotionClip]:
    """Clip library in ``FAMILIES`` order; clip k gets seed ``seed + k``
    (0..39 at the defaults).  The clips come bound into their
    ``ClipLibrary``."""
    counts = counts or DEFAULT_COUNTS
    spec = spec or ph.default_character()
    cfg = cfg or ph.default_config(spec)
    families = [f for f in FAMILIES for _ in range(counts.get(f, 0))]
    clips = [
        generate_clip(family, seed + k, duration, frame_rate, spec, cfg)
        for k, family in enumerate(families)
    ]
    if clips:
        ClipLibrary.of(clips)
    return clips


# --- serialization ------------------------------------------------------


def save_clip(clip: MotionClip, path: str | Path) -> None:
    head = [CLIP_MAGIC, f"hz={clip.frame_rate!r}", f"frames={clip.n_frames}",
            f"family={clip.family}", f"joints={clip.n_joints}", f"id={clip.clip_id}"]
    nets.write_table(path, head, clip.frames)


def load_clip(path: str | Path) -> MotionClip:
    got = {}

    def shape(head):
        got.update(hz=nets.head_value(head, "hz", _frame_rate), family=head["family"], id=head["id"])
        return nets.head_value(head, "frames"), 2 * (3 + nets.head_value(head, "joints"))

    try:
        frames = nets.read_table(path, CLIP_MAGIC, ("hz", "frames", "family", "joints", "id"), shape)
    except ValueError as e:
        raise ClipFormatError(str(e)) from e
    return MotionClip(got["hz"], got["family"], got["id"], frames)
