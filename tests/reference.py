"""Per-state helpers for the tests.

The package steps and observes rows of a ``physics.World`` only.  The
tests still phrase many checks on one ``SimState`` at a time; these
helpers give them that form.  The kinematic quantities come from
``physics.KinFrame``, whose matmul formulas are independent of the row
kinematics under test.  ``watch_kinematics`` lets a test see which
worlds a caller of ``step_batch`` builds Kinematics of.

``joint_space_accel`` is the joint-space angular solve that the
physics' link-space solve replaced, the oracle of what the integrator's
angular accelerations mean.

The tests' own measures live here too: ``linear_momentum`` for the
momentum tests, ``tracking_error_kinematic`` as the oracle path of the
tracking-error metric, and ``kmeans_inertia`` and ``label_agreement`` to
judge a clustering.

The clip generator and clip writer work on rows too.  ``leg_ik``,
``generate_clip`` and ``clip_text`` are their one-frame-at-a-time and
one-value-at-a-time forms, which the row versions must equal byte for
byte; ``pose_fn``, with its curves ``ramp`` and ``bump``, poses one
frame at a time in Python floats.  The package generates whole
libraries only; ``one_clip`` is a library of one clip, the clip of
that family and seed.  ``table_token`` spells one table
value from its ``struct`` bits, the oracle of the array encoder behind
``nets.write_table``.

Batched rollouts gather reference frames from one ``motion.ClipLibrary``
array and write observations into one buffer.  ``sample_frames`` and
``goal_frames`` are the gathers over a Python list of clips, one clip per
env, and ``observation`` concatenates the observation from its pieces,
with ``wrap_angle`` and ``to_local`` in their ``np.mod`` and ``np.stack``
forms; the package must equal them bit for bit.  ``nan_empty`` makes
the buffers that the row builders write into start as NaN.

Combat scores and spawns its fighters on rows too.  ``CombatEvent``,
``hit_events`` and ``combat_reward`` are the event form of a control
step's scoring: one list of Hit/GotHit events per row, summed event by
event into a scalar reward; ``combat_rewards`` must equal it bit for
bit.  ``spawn_pair`` is one env's spawn as two ``SimState`` copies of the
stance, which ``CombatEnv``'s spawned rows must equal.

``self_play_train`` is combat's self-play with its own epoch loop, one
decision at a time into preallocated buffers and with its own hit and
knockdown counts: the oracle of self-play through ``tracking.collect``.
"""
import math
import struct
from dataclasses import dataclass, fields
from itertools import permutations
from pathlib import Path

import numpy as np

from slmp import combat as cb
from slmp import distill as di
from slmp import motion as mo
from slmp import nets
from slmp import physics as ph
from slmp import seeding
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


def linear_momentum(state, spec):
    """Linear momentum of one character, the measure of the momentum tests."""
    return spec.total_mass * ph.KinFrame(state, spec).com_vel


def joint_space_accel(k, spec, fx, fy, tau, pair=None):
    """``physics._angular_accel`` by the joint-space solve it replaced:
    solve(P^T (G * C) P + inertia_path, q_ang - bias), in plain matmuls.

    P is ``path``, C = cos(phi_n - phi_k), inertia_path = sum_i I_i
    P_i^T P_i, q_ang = P^T (cos * fy_link - sin * fx_link) plus the joint
    torques, and bias = -P^T (cos * G (sin * phidot^2) - sin * G (cos *
    phidot^2)), the velocity-product term about the body COM."""
    p, g = spec.path, spec.com_gram
    inertia_path = np.einsum("i,ia,ib->ab", spec.inertias, p, p)
    c, s = k.cos, k.sin
    lever = spec.site_coeff - spec.com_bar
    fx_link, fy_link = fx @ lever, fy @ lever
    if pair is not None:
        fx_link, fy_link = fx_link + pair[0], fy_link + pair[1]
    q_ang = (c * fy_link - s * fx_link) @ p
    q_ang[:, 1:] += tau
    cos_nk = c[:, :, None] * c[:, None, :] + s[:, :, None] * s[:, None, :]
    m_ang = p.T @ (g * cos_nk) @ p + inertia_path
    w2 = k.phidot**2
    bias = -(c * ((s * w2) @ g) - s * ((c * w2) @ g)) @ p
    return np.linalg.solve(m_ang, (q_ang - bias)[..., None])[..., 0]


def tracking_error_kinematic(clip, states, spec):
    """Mean site error of a given state sequence against the clip; the
    oracle path for the metric (feeding reference states yields zero)."""
    world = ph.World.of(states, spec)
    rows = mo.sample_frames(mo.ClipLibrary([clip]), np.zeros(len(states), dtype=np.int64), world.time)
    ref = ph.Kinematics(spec, *mo.split_frames(rows))
    return float(tr.site_error_rows(ph.Kinematics.of(world, spec), ref).mean())


def kmeans_inertia(points, labels):
    """Summed squared distance of each point to its cluster's mean."""
    total = 0.0
    for c in np.unique(labels):
        p = points[labels == c]
        total += float(((p - p.mean(axis=0)) ** 2).sum())
    return total


def label_agreement(pred, true, k):
    """Best label-permutation agreement between two clusterings."""
    best = 0.0
    for perm in permutations(range(k)):
        mapped = np.array([perm[p] for p in pred])
        best = max(best, float((mapped == true).mean()))
    return best


def proprio(state):
    """Proprioception of one character: the 1-row case of ``proprio_rows``."""
    return tr.proprio_rows(
        state.root_pos[None], state.theta()[None], state.root_vel[None], state.theta_dot()[None]
    )[0]


def nan_empty(monkeypatch):
    """Let ``np.empty`` hand out float arrays filled with NaN, so that a
    column that a row builder leaves unwritten shows."""
    empty = np.empty

    def filled(shape, dtype=float, **kwargs):
        out = empty(shape, dtype, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", filled)


def env_state(batch):
    """The rollout state an ``EnvBatch`` owns, as bytes: its World arrays,
    ``t`` and ``clip_index`` (``rngs`` aside)."""
    w = batch.world
    return [getattr(w, f.name).tobytes() for f in fields(w)] + [
        batch.t.tobytes(), batch.clip_index.tobytes()
    ]


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
    q_hip = wrap_angle(phi_u - root_angle + math.pi / 2.0)
    q_knee = wrap_angle(phi_l - phi_u)
    return float(q_hip), float(q_knee)


def bump(t, t0, dur):
    """Raised-cosine bump: 0 outside [t0, t0+dur], 1 at the midpoint."""
    if dur <= 0 or t < t0 or t > t0 + dur:
        return 0.0
    u = (t - t0) / dur
    return 0.5 * (1.0 - math.cos(2.0 * math.pi * u))


def ramp(t, t0, dur):
    """Smooth 0 -> 1 transition over [t0, t0+dur]."""
    if t <= t0:
        return 0.0
    if t >= t0 + dur:
        return 1.0
    u = (t - t0) / dur
    return 0.5 * (1.0 - math.cos(math.pi * u))


def pose_fn(family, rng, builder):
    """Returns pose(t) -> (root_pos, root_angle, guard, arm_offsets, foot_l,
    foot_r) for one seeded clip, all as Python floats: the one-frame form
    of ``motion._pose_rows``, with ``ramp`` and ``bump`` as its scalar
    curves."""
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

    def strike_arm(offsets, side, phase, kind):
        sh, el = f"upper_arm_{side}", f"lower_arm_{side}"
        if kind == "jab":
            ext = ramp(phase, 0.0, 0.13) - ramp(phase, 0.17, 0.18)
            offsets[arm[sh]] += ext * (1.45 - ph.GUARD_ARMS[sh])
            offsets[arm[el]] += ext * (0.15 - ph.GUARD_ARMS[el])
        else:  # hook
            ext = ramp(phase, 0.0, 0.16) - ramp(phase, 0.22, 0.22)
            offsets[arm[sh]] += ext * (1.55 - ph.GUARD_ARMS[sh])
            offsets[arm[el]] += ext * (1.25 - ph.GUARD_ARMS[el])

    def pose(t):
        rx, ry = root_x, root_y
        root_angle = 0.0
        (flx, fly), (frx, fry) = foot0["l"], foot0["r"]
        offsets = [0.0] * len(arm)
        guard = 0.0

        if family == "idle":
            for name, amp in (("upper_arm_l", sway_amp), ("upper_arm_r", -sway_amp),
                              ("lower_arm_l", 0.7 * sway_amp), ("lower_arm_r", -0.7 * sway_amp)):
                offsets[arm[name]] = amp * math.sin(2.0 * math.pi * sway_f * t + sway_phase)
        elif family == "footwork":
            guard = ramp(t, 0.0, 0.4)
            s = math.sin(2.0 * math.pi * shift_f * t)
            rx += shift_amp * s
            # crouch enough to keep both feet reachable, then lift the
            # unweighted foot near each extreme of the shift
            c = math.cos(2.0 * math.pi * shift_f * t)
            if s > 0.55 and abs(c) < 0.6:
                fry += lift_h * bump(s, 0.55, 0.45 * 2)
            if s < -0.55 and abs(c) < 0.6:
                fly += lift_h * bump(-s, 0.55, 0.45 * 2)
        elif family == "jab":
            guard = ramp(t, 0.0, 0.4)
            phase = (t - 0.6) % jab_period if t > 0.6 else -1.0
            if phase >= 0.0:
                strike_arm(offsets, jab_side, phase, "jab")
                rx += lunge * bump(phase, 0.0, 0.4)
        elif family == "hook":
            guard = ramp(t, 0.0, 0.4)
            phase = (t - 0.8) % hook_period if t > 0.8 else -1.0
            if phase >= 0.0:
                strike_arm(offsets, "r", phase, "hook")
                root_angle -= hook_root * bump(phase, 0.0, 0.44)
        elif family == "kick":
            guard = ramp(t, 0.0, 0.4)
            phase = (t - 1.0) % kick_period if t > 1.0 else -1.0
            if phase >= 0.0:
                k = bump(phase, 0.0, 0.8)
                stance_x = foot0["r" if kick_side == "l" else "l"][0]
                kick_x = foot0[kick_side][0] + 0.45 * k
                if kick_side == "l":
                    flx, fly = kick_x, fly + 0.40 * k
                else:
                    frx, fry = kick_x, fry + 0.40 * k
                rx += (stance_x - root_x + 0.03) * bump(phase, 0.0, 0.8)
                ry -= 0.02 * k
        elif family == "combo":
            guard = ramp(t, 0.0, 0.4)
            s = math.sin(2.0 * math.pi * 0.3 * t)
            rx += 0.06 * s
            phase_j = (t - 0.6) % jab_period if t > 0.6 else -1.0
            if phase_j >= 0.0:
                strike_arm(offsets, "l", phase_j, "jab")
            phase_h = (t - 0.6 - 0.5 * jab_period) % jab_period if t > 0.6 + 0.5 * jab_period else -1.0
            if phase_h >= 0.0:
                strike_arm(offsets, "r", phase_h, "hook")
                root_angle -= 0.06 * bump(phase_h, 0.0, 0.44)
        else:
            raise ValueError(f"unknown clip family {family!r}")

        return (rx, ry), root_angle, guard, offsets, (flx, fly), (frx, fry)

    return pose


def one_clip(family, seed, duration=mo.CLIP_SECONDS, frame_rate=mo.CLIP_HZ, spec=None, cfg=None):
    """The clip of ``family`` and ``seed``: ``motion.generate_library``
    with one clip."""
    return mo.generate_library({family: 1}, duration, frame_rate, spec, cfg, seed=seed)[0]


def generate_clip(family, seed, duration, frame_rate, spec, cfg):
    """``one_clip`` one frame at a time: ``pose(t)``, then that
    frame's arm blend, joint by joint, and ``leg_ik`` of each leg; then the
    clip's velocities by ``np.diff``."""
    builder = mo._PoseBuilder(spec, cfg)
    pose = pose_fn(family, np.random.default_rng(seed), builder)
    stance = builder.stance.joint_angles
    n = int(round(duration * frame_rate))
    root_pos, root_angle, joints = np.zeros((n, 2)), np.zeros(n), np.zeros((n, spec.n_joints))
    for k in range(n):
        rp, ra, guard, offsets, foot_l, foot_r = pose(k / frame_rate)
        jq = stance.copy()
        for (name, g), offset in zip(ph.GUARD_ARMS.items(), offsets):
            rest = stance[spec.joint(name)]
            jq[spec.joint(name)] = rest + guard * (g - rest) + offset
        for side, foot in (("l", foot_l), ("r", foot_r)):
            upper, lower = f"upper_leg_{side}", f"lower_leg_{side}"
            l1, l2 = (spec.links[spec.link_index[n]].length for n in (upper, lower))
            jq[spec.joint(upper)], jq[spec.joint(lower)] = leg_ik(rp, foot, l1, l2, ra)
        root_pos[k], root_angle[k], joints[k] = rp, ra, jq
    # velocities: forward differences, the last frame repeating the one before
    poses = np.concatenate([root_pos, root_angle[:, None], joints], axis=1)
    vels = np.diff(poses, axis=0)
    ph.wrap_angle(vels[:, 2:], out=vels[:, 2:])
    vels = np.vstack([vels, vels[-1:]]) * frame_rate
    return mo.MotionClip(frame_rate, family, f"{family}-{seed:03d}", np.hstack([poses, vels]))


def table_token(v):
    """The 24-character table token of the float ``v``: sign, ``0x``, the
    lead digit, 13 lower-case hex digits of the significand, ``p`` and a
    signed 4-digit exponent; zero and subnormals as ``0x0.<...>p-1022``."""
    bits = struct.unpack(">Q", struct.pack(">d", v))[0]
    biased, fraction = bits >> 52 & 0x7FF, bits & (1 << 52) - 1
    if biased == 0x7FF:
        raise ValueError(f"{v} has no table token")
    lead, exponent = (0, -1022) if biased == 0 else (1, biased - 1023)
    return f"{'-' if bits >> 63 else '+'}0x{lead}.{fraction:013x}p{exponent:+05d}"


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
        lines.append(" ".join(table_token(float(v)) for v in row))
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


@dataclass
class CombatEvent:
    kind: str  # Hit | GotHit
    force: float = 0.0
    limb: int = -1  # site index of the striking limb
    region: str = ""  # head | torso


def hit_events(dist, site_opponent, spec, cfg):
    """One event list per row from the (2E, 4, 2) limb-to-region distances
    and the (2E, n_sites) opponent-contact forces: every scoring hit of row
    a's limb appends a Hit to row a and a GotHit to row a ^ 1, rows in
    order and limbs in LIMB_SITES order within a row."""
    events = tuple([] for _ in range(len(dist)))
    limbs = [spec.site_index[n] for n in cb.LIMB_SITES]
    force = site_opponent[:, limbs]
    region = np.argmin(dist, axis=2)
    nearest = np.take_along_axis(dist, region[..., None], axis=2)[..., 0]
    for a, l in zip(*np.nonzero(~(force <= cfg.f_hit) & (nearest < cfg.hit_dist))):
        f, s, r = float(force[a, l]), limbs[l], cb.REGIONS[region[a, l]]
        events[a].append(CombatEvent("Hit", f, s, r))
        events[a ^ 1].append(CombatEvent("GotHit", f, s, r))
    return events


def combat_reward(events, fell_self, fell_opp, cfg):
    """Reward of one row and one control step, summed event by event."""
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


def spawn_pair(stance, cfg, rng):
    """One combat env's spawn as (slot 0, slot 1) states: copies of
    ``stance``, slot 1 mirrored about x = 0, spawn_gap apart, then each
    slot's spawn noise on its arm angles and root x drawn from ``rng``."""
    pair = []
    for facing, x in ((+1, -cfg.spawn_gap / 2.0), (-1, cfg.spawn_gap / 2.0)):
        s = stance.copy() if facing > 0 else ph.mirror_state(stance, 0.0)
        s.root_pos[0] += x
        s.anchor_x += x
        noise = cfg.spawn_noise
        if noise > 0.0:
            s.joint_angles[:4] += rng.uniform(-noise, noise, 4)
            s.root_pos[0] += rng.uniform(-noise, noise)
            s.anchor_x += s.root_pos[0] - x
        pair.append(s)
    return pair


def self_play_train(slmp_dir, cfg, out_dir, seed, spec, phys):
    """``combat.self_play_train`` with the epoch loop written out: it
    writes the same ``metrics.csv`` under ``out_dir`` and returns the
    (policy, critic) parameters of both instances, without checkpoints."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_env = cfg.envs
    phi_spec, phi_params, latent_dim = di.load_prior(slmp_dir, spec)
    env = cb.CombatEnv(phi_spec, phi_params, spec, phys, cfg, seeding.rngs(seed, "cenv", n_env))
    pcfg = cfg.ppo()
    obs_dim = cb.COMBAT_OBS.width(spec)
    agents = [tr.build_networks(obs_dim, latent_dim, pcfg, seed, ("pi-h-init", "vh-init"))
              for _ in range(2)]
    obs = env.observe()
    metrics = out / "metrics.csv"
    metrics.write_text(",".join(cb.COMBAT_METRICS) + "\n")
    for epoch in range(cfg.epochs):
        learner = cb.learner_index(epoch, cfg.swap_period)
        ts, frozen = agents[learner], agents[1 - learner]
        env.epoch = epoch
        env.rngs = seeding.rngs(seed, f"epoch-{epoch}-env", n_env)
        rngs = seeding.rngs(seed, f"epoch-{epoch}-act", n_env)
        t_len = cfg.horizon
        obs_buf = np.zeros((t_len, n_env, obs_dim))
        act_buf = np.zeros((t_len, n_env, latent_dim))
        logp_buf = np.zeros((t_len, n_env))
        rew_buf = np.zeros((t_len, n_env))
        done_buf = np.zeros((t_len, n_env))
        hits = downs = 0
        learner_net, frozen_net = (a.policy.row_net(a.policy_params) for a in (ts, frozen))
        for t in range(t_len):
            # the learner samples, the frozen instance takes its mean
            z = np.empty((2 * n_env, latent_dim))
            z[learner::2], act_buf[t], logp_buf[t] = cb.high_level_step(
                ts.policy, learner_net, obs[learner::2], rngs)
            z[1 - learner::2] = cb.high_level_step(frozen.policy, frozen_net, obs[1 - learner::2])[0]
            obs_buf[t] = obs[learner::2]
            obs, rewards, done, info = env.decision_step(z)
            rew_buf[t] = rewards[:, learner]
            done_buf[t] = done
            downs += info["reason"].count("knockdown")
            hits += int(info["hits"][:, learner].sum())
        critic = nets.RowNet(ts.value_spec, ts.value_params)
        values = critic(obs_buf.reshape(-1, obs_dim))[:, 0].reshape(t_len, n_env)
        buf = tr.RolloutBuffer(obs_buf, act_buf, rew_buf, values, logp_buf, done_buf,
                               critic(obs[learner::2])[:, 0])
        shuffle = np.random.default_rng(seeding.seed_for(seed, f"epoch-{epoch}-shuffle"))
        m = tr.ppo_round(ts, buf, pcfg, shuffle)
        episodes = max(done_buf.sum(), 1.0)
        row = {
            **m, "epoch": epoch, "learner": learner, "reward": rew_buf.mean(),
            "hits_per_episode": hits / episodes, "knockdowns_per_episode": downs / episodes,
            "episode_steps": rew_buf.size / episodes,
        }
        with metrics.open("a") as f:
            f.write(",".join(repr(float(row[k])) for k in cb.COMBAT_METRICS) + "\n")
    return [ts.policy_params for ts in agents], [ts.value_params for ts in agents]


def _pair_contacts(k, spec, cfg, a, near):
    """Contacts of every site of row a against every link capsule of its
    partner, row b = a ^ 1.

    ``near`` is the result of ``physics._capsule_distances``.  Returns
    None without contact, else (site_a, link_b, along_b, coeff_b, force_a)
    with one entry per contact: the struck point lies ``along_b`` from the
    proximal end of ``link_b``, ``coeff_b`` places it on b (point - root =
    coeff @ unit(phi)), and b receives the opposite of ``force_a``.
    """
    touching, t, ex, ey, dist = (v[a] for v in near)
    s, j = np.nonzero(touching)
    if not s.size:
        return None
    r2 = 2.0 * spec.contact_radius
    b = a ^ 1
    cos_b, sin_b = k.cos[b], k.sin[b]
    dj = dist[s, j]
    far = dj > 1e-9
    n = np.where(far[:, None], np.stack([ex[s, j], ey[s, j]], axis=1)
                 / np.where(far, dj, 1.0)[:, None], [0.0, 1.0])
    along = t[s, j] * spec.lengths[j]
    coeff = spec.prox_coeff[j]
    coeff[np.arange(j.size), j] += along
    w_b = k.phidot[b] * np.stack([-sin_b, cos_b])  # (2, L): u_perp * phidot
    v_rel = np.stack([k.site_vx[a][s], k.site_vy[a][s]], axis=1) - (k.root_vel[b] + coeff @ w_b.T)
    vn = (v_rel * n).sum(axis=1)
    normal = np.maximum(cfg.contact_kn * (r2 - dj) - cfg.contact_dn * vn, 0.0)
    vt = v_rel - vn[:, None] * n
    speed = np.linalg.norm(vt, axis=1)
    slip = speed > 1e-9
    fric = np.where(slip, np.minimum(cfg.contact_dn * speed, cfg.friction_mu * normal), 0.0)
    force = normal[:, None] * n - fric[:, None] * (vt / np.where(slip, speed, 1.0)[:, None])
    return s, j, along, coeff, force


def coupling(k, spec, cfg):
    """``physics._coupling`` as a loop over the touching pairs, each pair
    summed per direction with ``f.sum`` and BLAS ``lever.T @ f``."""
    n_rows, n_sites, n_links = len(k.root_pos), len(spec.sites), spec.n_links
    f_com = np.zeros((n_rows, 2))
    fx_link = np.zeros((n_rows, n_links))
    fy_link = np.zeros((n_rows, n_links))
    site_opponent = np.zeros((n_rows, n_sites))
    near = ph._capsule_distances(k, spec)
    for pair in np.flatnonzero(near[0].reshape(n_rows // 2, -1).any(axis=1)):
        lo = 2 * pair
        rows = (lo, lo + 1)
        # per-site force magnitude by opponent link
        mags = np.zeros((2, n_sites, n_links))
        for a in range(2):
            b = 1 - a
            contacts = _pair_contacts(k, spec, cfg, rows[a], near)
            if contacts is None:
                continue
            s, j, along, coeff_b, force = contacts
            for row, coeff, f in ((rows[a], spec.site_coeff[s], force), (rows[b], coeff_b, -force)):
                f_com[row] += f.sum(axis=0)
                lever = coeff - spec.com_bar
                fx_link[row] += lever.T @ f[:, 0]
                fy_link[row] += lever.T @ f[:, 1]
            mag = np.linalg.norm(force, axis=1)
            mags[a, s, j] += mag
            # mirror the reaction onto the nearest site of the struck link,
            # attributed to the striking site's link
            gap = np.where(spec.site_on_link[j], np.abs(spec.site_dist - along[:, None]), np.inf)
            has = spec.site_on_link[j].any(axis=1)
            np.add.at(mags[b], (np.argmin(gap, axis=1)[has], spec.site_link[s][has]), mag[has])
        site_opponent[lo : lo + 2] = mags.sum(axis=2)
    return f_com, fx_link, fy_link, site_opponent
