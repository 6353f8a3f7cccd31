"""Per-state helpers for the tests.

The package steps and observes rows of a ``physics.World`` only.  The
tests still phrase many checks on one ``SimState`` at a time; these
helpers give them that form.  The kinematic quantities come from
``physics.KinFrame``, whose matmul formulas are independent of the row
kinematics under test.  ``watch_kinematics`` lets a test see which
worlds a caller of ``step_batch`` builds Kinematics of.

The clip generator and clip writer work on rows too.  ``leg_ik``,
``generate_clip`` and ``clip_text`` are their one-frame-at-a-time and
one-value-at-a-time forms, which the row versions must equal byte for
byte.

Batched rollouts gather reference frames from one ``motion.ClipLibrary``
array and write observations into one buffer.  ``sample_frames`` and
``goal_frames`` are the gathers over a Python list of clips, one clip per
env, and ``observation`` concatenates the observation from its pieces,
with ``wrap_angle`` and ``to_local`` in their ``np.mod`` and ``np.stack``
forms; the package must equal them bit for bit.
"""
import math

import numpy as np

from slmp import motion as mo
from slmp import physics as ph
from slmp import tracking as tr


def step(state, spec, cfg, torques=None, targets=None):
    """One control step of one character through ``step_world``, with
    either raw ``torques`` or PD ``targets``: (state, report)."""
    states, reports = ph.step_world(
        [state], [spec], None if torques is None else [torques], cfg.dt, cfg,
        pd_targets=None if targets is None else [targets],
    )
    return states[0], reports[0]


def rot(theta):
    """2x2 rotation matrix by ``theta``."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def kinetic_energy(state, spec):
    """Translational plus rotational kinetic energy of every link."""
    frame = ph.KinFrame(state, spec)
    com_vels = state.root_vel[None, :] + np.einsum("ixa,a->ix", frame.jac_com, frame.theta_dot)
    trans = 0.5 * spec.masses @ (com_vels**2).sum(axis=1)
    rotk = 0.5 * spec.inertias @ frame.phidot**2
    return float(trans + rotk)


def link_endpoints(state, spec):
    """World (proximal, distal) endpoint pair per link, (n_links, 2, 2)."""
    frame = ph.KinFrame(state, spec)
    return np.stack([frame.prox, frame.dist], axis=1)


def proprio(state):
    """Proprioception of one character: the 1-row case of ``proprio_rows``."""
    return tr.proprio_rows(
        state.root_pos[None], state.theta()[None], state.root_vel[None], state.theta_dot()[None]
    )[0]


def watch_kinematics(monkeypatch):
    """Record every world ``step_batch`` returns and, outside it, every
    Kinematics built from coordinates.  Returns a function that lists the
    outside builds of a world ``step_batch`` returned, matched by the
    identity of its ``q`` (``World.put`` writes rows in place)."""
    stepped, built, inside = [], [], [False]
    step_batch, init = ph.step_batch, ph.Kinematics.__init__

    def stepping(*args, **kwargs):
        inside[0] = True
        try:
            world, report = step_batch(*args, **kwargs)
        finally:
            inside[0] = False
        stepped.append(world.q)
        return world, report

    def building(self, spec, root_pos, q, root_vel, qd):
        if not inside[0]:
            built.append(q)
        init(self, spec, root_pos, q, root_vel, qd)

    monkeypatch.setattr(ph, "step_batch", stepping)
    monkeypatch.setattr(ph.Kinematics, "__init__", building)
    return lambda: [q for q in built if any(q is s for s in stepped)]


def leg_ik(hip, foot, l1, l2, root_angle):
    """Two-link leg inverse kinematics of one leg, knee-forward branch:
    the one-row form of ``physics.leg_ik_rows``, (hip, knee) floats."""
    v = np.asarray(foot, dtype=np.float64) - np.asarray(hip, dtype=np.float64)
    d = float(np.linalg.norm(v))
    d = min(max(d, 1e-6), l1 + l2 - 1e-9)
    chi = math.atan2(v[1], v[0])
    cos_a1 = (l1 * l1 + d * d - l2 * l2) / (2.0 * l1 * d)
    a1 = math.acos(min(1.0, max(-1.0, cos_a1)))
    phi_u = chi + a1
    knee = np.asarray(hip, dtype=np.float64) + l1 * np.array([math.cos(phi_u), math.sin(phi_u)])
    tgt = np.asarray(foot, dtype=np.float64)
    scale = d / max(np.linalg.norm(tgt - np.asarray(hip)), 1e-9)
    tgt = np.asarray(hip) + (tgt - np.asarray(hip)) * scale
    phi_l = math.atan2(tgt[1] - knee[1], tgt[0] - knee[0])
    q_hip = ph.wrap_angle(phi_u - root_angle + math.pi / 2.0)
    q_knee = ph.wrap_angle(phi_l - phi_u)
    return float(q_hip), float(q_knee)


def generate_clip(family, seed, duration, frame_rate, spec, cfg):
    """``motion.generate_clip`` one frame at a time: ``pose(t)``, then that
    frame's arm blend, joint by joint, and ``leg_ik`` of each leg."""
    builder = mo._PoseBuilder(spec, cfg)
    pose = mo._pose_fn(family, np.random.default_rng(seed), builder)
    stance, jidx = builder.stance.joint_angles, builder.jidx
    n = int(round(duration * frame_rate))
    root_pos, root_angle, joints = np.zeros((n, 2)), np.zeros(n), np.zeros((n, spec.n_joints))
    for k in range(n):
        rp, ra, guard, offsets, foot_l, foot_r = pose(k / frame_rate)
        jq = stance.copy()
        for (name, g), offset in zip(ph.GUARD_ARMS.items(), offsets):
            rest = stance[jidx[name]]
            jq[jidx[name]] = rest + guard * (g - rest) + offset
        for side, foot in (("l", foot_l), ("r", foot_r)):
            jq[jidx[f"hip_{side}"]], jq[jidx[f"knee_{side}"]] = leg_ik(
                rp, foot, builder.l1, builder.l2, ra
            )
        root_pos[k], root_angle[k], joints[k] = rp, ra, jq
    return mo._clip_from_poses(frame_rate, family, f"{family}-{seed:03d}",
                               root_pos, root_angle, joints)


def clip_text(clip):
    """The text of ``motion.save_clip``, each value formatted on its own."""
    lines = [
        mo.CLIP_MAGIC,
        f"hz={clip.frame_rate!r}",
        f"frames={clip.n_frames}",
        f"family={clip.family}",
        f"joints={clip.n_joints}",
        f"id={clip.clip_id}",
    ]
    for row in clip.frames:
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def wrap_angle(a):
    """Wrap angle(s) to (-pi, pi] through ``np.mod`` and ``np.where``."""
    w = np.mod(np.asarray(a, dtype=np.float64) + math.pi, 2.0 * math.pi)
    w = np.where(w <= 0.0, w + 2.0 * math.pi, w) - math.pi
    return float(w) if np.ndim(a) == 0 else w


def to_local(angle, v):
    """Vectors ``v`` (..., 2) rotated by ``-angle``, stacked from their parts."""
    c, s = np.cos(angle), np.sin(angle)
    return np.stack([c * v[..., 0] + s * v[..., 1], c * v[..., 1] - s * v[..., 0]], axis=-1)


def goal_index(clips, t):
    """Per env, the index of the next reference frame of ``clips[e]`` after
    ``t[e]``, clamped; raises ValueError for a time outside the clip."""
    rate = np.array([c.frame_rate for c in clips])
    n = np.array([c.n_frames for c in clips])
    duration = n / rate
    bad = (t < -1e-9) | (t > duration + 1e-9)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"t={t[i]} outside clip duration {duration[i]}")
    return np.minimum(np.floor(t * rate + 1.0 + 1e-9).astype(int), n - 1)


def goal_frames(clips, t):
    """Next reference frame of every env: env e follows clips[e] at t[e]."""
    return np.stack([c.frames[i] for c, i in zip(clips, goal_index(clips, t))])


def sample_frames(clips, t):
    """Interpolated reference frame of every env: env e follows clips[e]
    at t[e], clamped to the clip."""
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
    out[:, ang] = p0[:, ang] + a * wrap_angle(p1[:, ang] - p0[:, ang])
    return out


def observation(goal, root_pos, q, root_vel, qd):
    """Tracking observation of every env: proprioception, then the goal
    against the next reference frames ``goal``, each concatenated from its
    parts."""
    ref_pos, ref_q, ref_vel, ref_qd = mo.split_frames(goal)
    a = q[:, :1]
    proprio = [root_pos[:, 1:], np.sin(a), np.cos(a), wrap_angle(q[:, 1:]),
               to_local(q[:, 0], root_vel), qd]
    d_root = wrap_angle(ref_q[:, :1] - q[:, :1])
    d_pos = to_local(q[:, 0], ref_pos - root_pos)
    goal_part = [d_root, wrap_angle(ref_q[:, 1:] - q[:, 1:]), d_pos,
                 to_local(q[:, 0], ref_vel - root_vel), ref_qd - qd,
                 d_root, wrap_angle(ref_q[:, 1:]), d_pos]
    return np.concatenate(proprio + goal_part, axis=1)
