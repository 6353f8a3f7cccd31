"""Procedural reference motion clips and goal-state construction.

Clips mimic a small combat-motion taxonomy (idle stance, footwork, jab,
hook, kick, combinations).  Each family is a set of smooth seeded curves
for the root and arms; leg angles come from two-link IK against planted
or swinging foot targets, so the kinematic poses never dig into the
ground.  Frame velocities are forward differences of the stored poses,
which makes pose/velocity consistency exact by construction.

A clip library is generated in two passes, on frame arrays.  First each
clip is posed by array expressions over its frame times (phases, ramps,
bumps): root, guard blend, arm offsets and foot targets, drawing its
parameters from its own seeded generator.  Then the arm joints of all
frames of all clips are blended in one array expression, each leg is
solved for all of those frames in one ``physics.leg_ik_rows`` call, and
the rows are cut into clips.  Each step is the IEEE operations of the
one-frame computation, in its order and elementwise (numpy's ``+ - * /``
and ``%`` round as Python floats do), so every frame gets the bits of
posing it alone, and a clip the same bits in any library.  The transcendentals (``atan2``, ``acos``,
``cos``, ``sin``) stay libm ``math`` calls, one per element, mapped over
an array by ``physics.libm_map``: numpy's SIMD versions may round
differently, and differently on each machine, which would change the
clip bytes.

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
CLIP_SECONDS_RANGE = (2.0, 20.0)  # the clip lengths generate_library makes
CLIP_HZ = 30.0  # default clip frame rate

CLIP_MAGIC = "SLMP-CLIP/2"


def _frame_rate(hz) -> float:
    """``hz`` as a clip frame rate, refused unless finite and positive."""
    hz = float(hz)
    if not (math.isfinite(hz) and hz > 0):
        raise ValueError(f"frame rate {hz!r} is not finite and positive")
    return hz


CLIP = (CLIP_MAGIC, {"hz": _frame_rate, "frames": int, "family": str, "joints": int, "id": str})


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
        self.frame_rate = _frame_rate(self.frame_rate)
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
        if not clips:
            raise ValueError("a clip library needs at least one clip, got no clips")
        if any(c.n_joints != clips[0].n_joints for c in clips):
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


# next-frame reference differences in the root frame, root first, then the
# next pose (relative root angle, absolute joints) and root position, which
# in the plane equals d_pos; both blocks are kept so the layout stays explicit
GOAL = ph.Layout(d_rot=lambda n: n + 1, d_pos=2, d_vel=2, d_ang_vel=lambda n: n + 1,
                 ref_rot=lambda n: n + 1, ref_pos=2)


class Goal:  # perfbench reads this alias of the GOAL width until ROADMAP item 2
    dim = staticmethod(lambda n_joints: GOAL.of(n_joints).width)


def goal_rows(ref: np.ndarray, root_pos, q, root_vel, qd, *, cs=None, out=None) -> np.ndarray:
    """``GOAL`` rows of every env: ``ref`` holds each env's next reference
    frame (``goal_frames``), the rest are the env coordinates.

    ``cs``, the cos and sin of the root angles ``q[:, 0]``, and ``out``, an
    (E, ``GOAL`` width) array to write into, let a caller share the trig
    and the buffer with the rest of an observation.
    """
    g = GOAL.of(q.shape[1] - 1)
    c, s = (np.cos(q[:, 0]), np.sin(q[:, 0])) if cs is None else cs
    out = np.empty((len(q), g.width)) if out is None else out
    ref_pos, ref_q, ref_vel, ref_qd = split_frames(ref)
    d_rot, ref_rot = out[:, g.d_rot], out[:, g.ref_rot]
    ph.wrap_angle(ref_q - q, out=d_rot)
    ph.rotate_into(out[:, g.d_pos], c, s, ref_pos - root_pos)
    ph.rotate_into(out[:, g.d_vel], c, s, ref_vel - root_vel)
    np.subtract(ref_qd, qd, out=out[:, g.d_ang_vel])
    ref_rot[:, 0] = d_rot[:, 0]
    ph.wrap_angle(ref_q[:, 1:], out=ref_rot[:, 1:])
    out[:, g.ref_pos] = out[:, g.d_pos]
    return out


def goal_state(clip: MotionClip, t: float, state: ph.SimState) -> np.ndarray:
    """``GOAL`` row seen by the tracking policy: wrapped next-frame differences."""
    return goal_rows(
        goal_frames(ClipLibrary([clip]), _FIRST, np.array([t])),
        state.root_pos[None], state.theta()[None],
        state.root_vel[None], state.theta_dot()[None],
    )[0]


# --- generation ---------------------------------------------------------


def _bump(t: np.ndarray, t0: float, dur: float) -> np.ndarray:
    """Raised-cosine bump of every element of ``t``: 0 outside [t0, t0+dur],
    1 at the midpoint."""
    out = np.zeros(len(t))
    on = ~((t < t0) | (t > t0 + dur))
    out[on] = 0.5 * (1.0 - ph.libm_map(math.cos, 2.0 * math.pi * ((t[on] - t0) / dur)))
    return out


def _ramp(t: np.ndarray, t0: float, dur: float) -> np.ndarray:
    """Smooth 0 -> 1 transition over [t0, t0+dur] of every element of ``t``."""
    before, after = t <= t0, t >= t0 + dur
    out = (after & ~before).astype(np.float64)
    mid = ~(before | after)
    out[mid] = 0.5 * (1.0 - ph.libm_map(math.cos, math.pi * ((t[mid] - t0) / dur)))
    return out


class _PoseBuilder:
    """Shared scaffolding: stance base, guard blending, leg IK, each over
    the rows of a whole clip library."""

    def __init__(self, spec: ph.CharacterSpec, cfg: ph.PhysicsConfig):
        self.spec = spec
        self.stance = ph.nominal_stance(spec, cfg)
        k = ph.Kinematics.of(ph.World.of([self.stance], spec), spec)
        self.foot0 = {
            side: np.array([k.site_x[0, s], k.site_y[0, s]])
            for side, s in (("l", spec.site_index["foot_l"]), ("r", spec.site_index["foot_r"]))
        }
        self.root0 = self.stance.root_pos.copy()
        # each side's (hip, knee) joints and (thigh, shin) lengths
        self.leg = {side: [(spec.joint(n), spec.links[spec.link_index[n]].length)
                           for n in (f"upper_leg_{side}", f"lower_leg_{side}")] for side in "lr"}
        self.arm_idx = [spec.joint(name) for name in ph.GUARD_ARMS]

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
            (hip, l1), (knee, l2) = self.leg[side]
            joints[:, hip], joints[:, knee] = ph.leg_ik_rows(root_pos, foot, l1, l2, root_angle)

    def poses(self, clips: list[tuple[str, int]], t: np.ndarray):
        """(root_pos, root_angle, joints) of every frame of the (family,
        seed) ``clips`` at frame times ``t``, stacked: one ``_pose_rows``
        pass per clip, each drawing from its own seeded generator, then
        one arm blend and one ``leg_ik_rows`` call per leg over all rows."""
        root_pos, root_angle, guard, offsets, foot_l, foot_r = map(np.concatenate, zip(*(
            _pose_rows(family, np.random.default_rng(seed), self, t) for family, seed in clips
        )))
        joints = np.tile(self.stance.joint_angles, (len(root_angle), 1))
        self.arms(joints, guard, offsets)
        self.legs(joints, root_pos, root_angle, foot_l, foot_r)
        return root_pos, root_angle, joints


_ARM = {name: i for i, name in enumerate(ph.GUARD_ARMS)}


def _strike_arm(offsets: np.ndarray, on: np.ndarray, side: str, phase: np.ndarray, kind: str):
    """Add a jab or hook of the ``side`` arm to the frames ``on``, at their
    strike ``phase``."""
    sh, el = f"upper_arm_{side}", f"lower_arm_{side}"
    if kind == "jab":
        ext = _ramp(phase, 0.0, 0.13) - _ramp(phase, 0.17, 0.18)
        offsets[on, _ARM[sh]] += ext * (1.45 - ph.GUARD_ARMS[sh])
        offsets[on, _ARM[el]] += ext * (0.15 - ph.GUARD_ARMS[el])
    else:  # hook
        ext = _ramp(phase, 0.0, 0.16) - _ramp(phase, 0.22, 0.22)
        offsets[on, _ARM[sh]] += ext * (1.55 - ph.GUARD_ARMS[sh])
        offsets[on, _ARM[el]] += ext * (1.25 - ph.GUARD_ARMS[el])


def _pose_rows(family: str, rng: np.random.Generator, b: _PoseBuilder, t: np.ndarray):
    """(root_pos, root_angle, guard, arm_offsets, foot_l, foot_r) of one
    seeded clip at its frame times ``t`` (n,): each frame's root, its guard
    blend, its offsets of the ``GUARD_ARMS`` joints in that order (n, 4)
    and its two foot targets.  ``_PoseBuilder`` turns them into joint
    angles.

    Every frame gets the IEEE operations of the one-frame computation, in
    its order: a phase is a remainder of frame times past a start, and a
    strike or lift applies to the frames ``on`` its condition.  A
    remainder by a positive period is never negative, so every frame past
    a start is in its strike.
    """
    n = len(t)
    root = np.tile(b.root0, (n, 1))
    root_angle = np.zeros(n)
    foot = {side: np.tile(b.foot0[side], (n, 1)) for side in ("l", "r")}
    offsets = np.zeros((n, len(_ARM)))
    jab_period = rng.uniform(1.2, 2.0)
    hook_period = rng.uniform(1.6, 2.4)
    kick_period = rng.uniform(2.2, 3.0)
    sway_f = rng.uniform(0.35, 0.65)
    sway_phase = rng.uniform(0.0, 2.0 * math.pi)
    sway_amp = rng.uniform(0.03, 0.06)
    shift_f = rng.uniform(0.25, 0.45)
    shift_amp = rng.uniform(0.10, 0.16)
    lift_h = rng.uniform(0.02, 0.04)
    kick_side = "l" if rng.uniform() < 0.5 else "r"
    lunge = rng.uniform(0.03, 0.06)
    hook_root = rng.uniform(0.06, 0.10)

    guard = np.zeros(n) if family == "idle" else _ramp(t, 0.0, 0.4)
    if family == "idle":
        sway = ph.libm_map(math.sin, 2.0 * math.pi * sway_f * t + sway_phase)
        for name, amp in (("upper_arm_l", sway_amp), ("upper_arm_r", -sway_amp),
                          ("lower_arm_l", 0.7 * sway_amp), ("lower_arm_r", -0.7 * sway_amp)):
            offsets[:, _ARM[name]] = amp * sway
    elif family == "footwork":
        w = 2.0 * math.pi * shift_f * t
        s, c = ph.libm_map(math.sin, w), ph.libm_map(math.cos, w)
        root[:, 0] += shift_amp * s
        # crouch enough to keep both feet reachable, then lift the
        # unweighted foot near each extreme of the shift
        for side, lift in (("r", s), ("l", -s)):
            on = (lift > 0.55) & (np.abs(c) < 0.6)
            foot[side][on, 1] += lift_h * _bump(lift[on], 0.55, 0.45 * 2)
    elif family == "jab":
        on = t > 0.6
        phase = (t[on] - 0.6) % jab_period
        _strike_arm(offsets, on, "l", phase, "jab")
        root[on, 0] += lunge * _bump(phase, 0.0, 0.4)
    elif family == "hook":
        on = t > 0.8
        phase = (t[on] - 0.8) % hook_period
        _strike_arm(offsets, on, "r", phase, "hook")
        root_angle[on] -= hook_root * _bump(phase, 0.0, 0.44)
    elif family == "kick":
        on = t > 1.0
        k = _bump((t[on] - 1.0) % kick_period, 0.0, 0.8)
        stance_x = float(b.foot0["r" if kick_side == "l" else "l"][0])
        kick = foot[kick_side]
        kick[on, 0] = float(b.foot0[kick_side][0]) + 0.45 * k
        kick[on, 1] += 0.40 * k
        root[on, 0] += (stance_x - float(b.root0[0]) + 0.03) * k
        root[on, 1] -= 0.02 * k
    elif family == "combo":
        root[:, 0] += 0.06 * ph.libm_map(math.sin, 2.0 * math.pi * 0.3 * t)
        on = t > 0.6
        _strike_arm(offsets, on, "l", (t[on] - 0.6) % jab_period, "jab")
        on = t > 0.6 + 0.5 * jab_period
        phase = (t[on] - 0.6 - 0.5 * jab_period) % jab_period
        _strike_arm(offsets, on, "r", phase, "hook")
        root_angle[on] -= 0.06 * _bump(phase, 0.0, 0.44)
    else:
        raise ValueError(f"unknown clip family {family!r}")
    return root, root_angle, guard, offsets, foot["l"], foot["r"]


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


def _library_frames(
    clips: list[tuple[str, int]],
    n: int,
    frame_rate: float,
    spec: ph.CharacterSpec,
    cfg: ph.PhysicsConfig | None,
) -> np.ndarray:
    """Frame rows of the (family, seed) ``clips``, ``n`` per clip, stacked:
    their poses (``_PoseBuilder.poses``), then velocities.  A clip's
    velocities are forward differences of its poses (the angles'
    wrapped); its last frame repeats the one before it.  Only the rows
    are returned, so the pose arrays are freed before the clips copy
    their rows, and generation peaks no higher than the library's own
    copy."""
    builder = _PoseBuilder(spec, cfg or ph.default_config(spec))
    root_pos, root_angle, joints = builder.poses(clips, np.arange(n) / frame_rate)
    m = 3 + joints.shape[1]
    frames = np.empty((len(joints), 2 * m))
    poses, vels = frames[:, :m], frames[:, m:]
    poses[:, :2], poses[:, 2], poses[:, 3:] = root_pos, root_angle, joints
    np.subtract(poses[1:], poses[:-1], out=vels[:-1])
    vels[n - 1 :: n] = vels[n - 2 :: n]
    ph.wrap_angle(vels[:, 2:], out=vels[:, 2:])
    vels *= frame_rate
    return frames


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
    """Clip library in ``FAMILIES`` order, ``counts[family]`` clips of each
    (``DEFAULT_COUNTS`` when ``counts`` is None); clip k gets seed
    ``seed + k`` (0..39 at the defaults).  The clips come bound into their
    ``ClipLibrary``.

    The library is posed clip by clip on arrays of frame times, and its
    legs are solved in one ``physics.leg_ik_rows`` call per leg over the
    rows of all clips.  Every operation is elementwise, so each clip has
    the bits of a library of that clip alone.  The transcendentals
    stay one libm ``math`` call per element (``physics.libm_map``):
    numpy's SIMD versions may round differently, and differently on each
    machine, which would change the clip bytes.
    """
    counts = DEFAULT_COUNTS if counts is None else counts
    for family, count in counts.items():
        if family not in FAMILIES:
            raise ValueError(f"counts name an unknown clip family {family!r}")
        if count < 0:
            raise ValueError(f"the {family!r} clip count must be non-negative, got {count}")
    families = [f for f in FAMILIES for _ in range(counts.get(f, 0))]
    n = clip_frames(duration, frame_rate)
    if not families:
        return []
    frames = _library_frames([(f, seed + k) for k, f in enumerate(families)], n, frame_rate,
                             spec or ph.default_character(), cfg)
    clips = [
        MotionClip(frame_rate, f, f"{f}-{seed + k:03d}", frames[k * n : (k + 1) * n])
        for k, f in enumerate(families)
    ]
    ClipLibrary.of(clips)
    return clips


# --- serialization ------------------------------------------------------


def save_clip(clip: MotionClip, path: str | Path) -> None:
    head = {"hz": clip.frame_rate, "frames": clip.n_frames, "family": clip.family,
            "joints": clip.n_joints, "id": clip.clip_id}
    nets.write_table(path, CLIP, head, clip.frames)


def load_clip(path: str | Path) -> MotionClip:
    head, frames = nets.read_table(path, CLIP, lambda h: (h["frames"], 2 * (3 + h["joints"])))
    return MotionClip(head["hz"], head["family"], head["id"], frames)
