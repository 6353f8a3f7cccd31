"""Deterministic planar rigid-body simulation of articulated characters.

A character is a tree of rigid links: a free-floating trunk (x, y, angle)
plus actuated revolute joints, integrated in reduced coordinates with
semi-implicit Euler at a fixed rate.  Translational dynamics are
integrated at the whole-body center of mass, so in flight the horizontal
momentum is conserved to machine precision regardless of internal
torques.  Ground and inter-character contact use a spring-damper normal
penalty with Coulomb-capped tangential friction.

There is one integrator, ``step_batch``, which advances a ``World``: E
characters sharing one ``CharacterSpec`` held as (E, ...) arrays --
``root_pos``/``root_vel`` (E, 2), ``q``/``qd`` (E, ndof) with the root
angle first, ``time``/``valid`` (E,) and the ground friction anchors
``anchor_x``/``anchor_on`` (E, n_sites).  With ``coupled`` the rows
pair up as (2i, 2i + 1): the two characters of each pair touch each
other, and their contact forces enter as extra generalised forces.
``combat.CombatEnv`` keeps the fighters of all its envs that way, env i
in rows 2i and 2i + 1.  ``step_world`` packs one ``SimState`` or one
pair into a World and unpacks the result.  Nothing inside the package
calls it: every rollout, evaluation included, steps Worlds directly.  The
tests and the benchmark's gate and tracer step through it.

E-invariance rule: an env's result must not depend on E or on which
other envs share its World, so that rollouts are identical for any
batching or worker split.  Hence no 2-D matmul over the env axis
(``x @ m.T`` is a BLAS gemm whose blocking, and with it the rounding,
changes with E); contractions are row-wise ``einsum``s (``_rows``,
``_dot``), stacked matmuls over (E, n, n) slices, or a batched
``np.linalg.solve``, and reductions run along an axis of fixed length.
Since a row's bits do not depend on the other rows, several operands
that meet the same matrix share one call with their rows stacked (q
and qd through ``path``, the four site quantities through
``site_coeff``): each gets the bits of its own call.  The matrix must
keep its memory layout, though: ``einsum`` picks its summation kernel
by stride, so a transposed view and its contiguous copy round
differently.

Kinematics hand-off: one control step of ``step_batch`` builds the
``Kinematics`` of its input world once.  Each ``_substep`` takes the
kinematics of its world and returns those of the next, built from the
link angles and rates it already computes to rebuild the root, and the
last ones reach the caller as ``ContactReport.kin``.  They equal
``Kinematics.of`` the returned world bit for bit, and share its arrays:
a ``World.put`` (a reset) leaves them stale for the rows it writes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(a, out=None):
    """Wrap angle(s) to (-pi, pi]: a float for a scalar, else an array,
    written into ``out`` when given.

    ``fmod`` and one fix-up of the results <= 0 give the bits of
    ``np.mod`` (the Python remainder) followed by that fix-up: both add
    2 pi to a negative remainder and map a zero one to 2 pi.  Adding
    ``(w <= 0) * 2 pi`` adds an exact 0.0 to the other, positive, rows.
    """
    scalar = np.ndim(a) == 0
    if scalar:
        out = np.empty(())
    w = np.add(a, math.pi, out=out, dtype=np.float64)
    np.fmod(w, TWO_PI, out=w)
    w += (w <= 0.0) * TWO_PI
    w -= math.pi
    return float(w) if scalar else w


def unit(phi):
    return np.stack([np.cos(phi), np.sin(phi)], axis=-1)


@dataclass(frozen=True)
class Link:
    """One rigid segment of the character tree.

    ``attach_offset`` is measured from the chosen end of the parent along
    the parent axis, which lets limbs attach at interior points (the arms
    hang from the neck, an interior point of the trunk).  ``rest_rel`` is
    the link direction relative to its parent with the joint at zero.
    """

    name: str
    length: float
    mass: float
    parent: int  # -1 for the root link
    attach_end: str = "distal"  # "proximal" | "distal"
    attach_offset: float = 0.0
    rest_rel: float = 0.0
    com_frac: float = 0.5
    inertia: float | None = None  # defaults to a uniform rod, m*L^2/12

    def moment(self) -> float:
        return self.inertia if self.inertia is not None else self.mass * self.length**2 / 12.0


@dataclass(frozen=True)
class Site:
    """Named point on a link used for contact and error metrics."""

    name: str
    link: int
    dist: float  # distance from the link's proximal end


@dataclass(frozen=True)
class CharacterSpec:
    links: tuple[Link, ...]
    sites: tuple[Site, ...]
    kp: tuple[float, ...]
    kd: tuple[float, ...]
    contact_radius: float = 0.05
    tau_max: float = 200.0
    # interior points on the trunk used for scoring regions and fall checks
    torso_center_dist: float = 0.25
    head_center_dist: float = 0.61

    def __post_init__(self):
        if self.links[0].parent != -1:
            raise ValueError("links[0] must be the root")
        for i, l in enumerate(self.links[1:], start=1):
            if not 0 <= l.parent < i:
                raise ValueError(f"link {l.name}: parent must precede it (tree, no loops)")
            if l.length <= 0 or l.mass <= 0:
                raise ValueError(f"link {l.name}: length and mass must be positive")
        if len(self.kp) != self.n_joints or len(self.kd) != self.n_joints:
            raise ValueError("pd gain vectors must match the joint count")

    @property
    def n_links(self) -> int:
        return len(self.links)

    @property
    def n_joints(self) -> int:
        return len(self.links) - 1

    @property
    def ndof(self) -> int:
        """Angular dofs: root angle plus one per joint."""
        return self.n_links

    @cached_property
    def masses(self) -> np.ndarray:
        return np.array([l.mass for l in self.links])

    @cached_property
    def inertias(self) -> np.ndarray:
        return np.array([l.moment() for l in self.links])

    @cached_property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    @cached_property
    def lengths(self) -> np.ndarray:
        return np.array([l.length for l in self.links])

    @cached_property
    def path(self) -> np.ndarray:
        """(n_links, ndof) 0/1 matrix: world link angle = rest_abs + path @ theta."""
        a = np.zeros((self.n_links, self.ndof))
        a[0, 0] = 1.0
        for i in range(1, self.n_links):
            a[i] = a[self.links[i].parent]
            a[i, i] = 1.0  # joint i-1 owns dof column i
        return a

    @cached_property
    def rest_abs(self) -> np.ndarray:
        r = np.zeros(self.n_links)
        r[0] = self.links[0].rest_rel
        for i in range(1, self.n_links):
            r[i] = r[self.links[i].parent] + self.links[i].rest_rel
        return r

    @cached_property
    def attach_dist(self) -> np.ndarray:
        """Attachment point distance from the parent's proximal end."""
        d = np.zeros(self.n_links)
        for i in range(1, self.n_links):
            l = self.links[i]
            base = 0.0 if l.attach_end == "proximal" else self.links[l.parent].length
            d[i] = base + l.attach_offset
        return d

    @cached_property
    def prox_coeff(self) -> np.ndarray:
        """(n_links, n_links) C with prox_i - root_pos = C[i] @ unit(phi)."""
        c = np.zeros((self.n_links, self.n_links))
        for i in range(1, self.n_links):
            p = self.links[i].parent
            c[i] = c[p]
            c[i, p] += self.attach_dist[i]
        return c

    @cached_property
    def com_coeff(self) -> np.ndarray:
        c = self.prox_coeff.copy()
        for i, l in enumerate(self.links):
            c[i, i] += l.com_frac * l.length
        return c

    @cached_property
    def site_coeff(self) -> np.ndarray:
        c = np.zeros((len(self.sites), self.n_links))
        for s, site in enumerate(self.sites):
            c[s] = self.prox_coeff[site.link]
            c[s, site.link] += site.dist
        return c

    @cached_property
    def site_index(self) -> dict[str, int]:
        return {s.name: i for i, s in enumerate(self.sites)}

    @cached_property
    def inertia_path(self) -> np.ndarray:
        """Constant Sum_i I_i path_i^T path_i part of the mass matrix."""
        return np.einsum("i,ia,ib->ab", self.inertias, self.path, self.path)

    @cached_property
    def site_link(self) -> np.ndarray:
        return np.array([s.link for s in self.sites], dtype=int)

    @cached_property
    def site_dist(self) -> np.ndarray:
        return np.array([s.dist for s in self.sites])

    @cached_property
    def site_on_link(self) -> np.ndarray:
        """(n_links, n_sites) bool: site s lies on link l."""
        return self.site_link[None, :] == np.arange(self.n_links)[:, None]

    @cached_property
    def kp_array(self) -> np.ndarray:
        return np.array(self.kp, dtype=np.float64)

    @cached_property
    def kd_array(self) -> np.ndarray:
        return np.array(self.kd, dtype=np.float64)

    @cached_property
    def com_bar(self) -> np.ndarray:
        """Body COM coefficients: com - root_pos = com_bar @ unit(phi)."""
        return self.masses @ self.com_coeff / self.total_mass

    @cached_property
    def com_gram(self) -> np.ndarray:
        """G with the angular mass matrix about the body COM equal to
        path^T (G * cos(phi_n - phi_k)) path + inertia_path."""
        c = self.com_coeff - self.com_bar
        return np.einsum("i,in,ik->nk", self.masses, c, c)


@dataclass
class SimState:
    """Generalized coordinates and velocities of one character.

    ``anchor_x``/``anchor_on`` carry the tangential friction anchors of the
    ground contacts: viscous-only friction lets planted feet creep under
    static shear, so sticking contacts pull toward the anchor point until
    the Coulomb cap slides it.
    """

    root_pos: np.ndarray  # (2,)
    root_angle: float
    joint_angles: np.ndarray  # (n_joints,)
    root_vel: np.ndarray  # (2,)
    root_ang_vel: float
    joint_vels: np.ndarray  # (n_joints,)
    time: float = 0.0
    valid: bool = True
    anchor_x: np.ndarray | None = None  # (n_sites,)
    anchor_on: np.ndarray | None = None  # (n_sites,) bool

    def theta(self) -> np.ndarray:
        return np.concatenate([[self.root_angle], self.joint_angles])

    def theta_dot(self) -> np.ndarray:
        return np.concatenate([[self.root_ang_vel], self.joint_vels])

    def copy(self) -> "SimState":
        return SimState(
            self.root_pos.copy(),
            self.root_angle,
            self.joint_angles.copy(),
            self.root_vel.copy(),
            self.root_ang_vel,
            self.joint_vels.copy(),
            self.time,
            self.valid,
            None if self.anchor_x is None else self.anchor_x.copy(),
            None if self.anchor_on is None else self.anchor_on.copy(),
        )


@dataclass(frozen=True)
class PhysicsConfig:
    gravity: float = 9.81
    hz: float = 60.0
    # penalty contact is stiff relative to the light limbs, so each control
    # step is integrated in `substeps` sub-intervals with torques held
    substeps: int = 4
    contact_kn: float = 1e4
    contact_dn: float = 100.0
    contact_kt: float = 2e3  # tangential anchor stiffness (ground stiction)
    friction_mu: float = 0.8
    fall_height: float = 0.41
    fall_frac: float = 0.4

    @property
    def dt(self) -> float:
        return 1.0 / self.hz


class KinFrame:
    """Per-state kinematic cache: link angles, site positions, Jacobians.

    No stage uses it; ``Kinematics`` serves every row.  It stays as the
    independent per-state oracle the tests compare the row kinematics
    against (matmul formulas, not the row code at E = 1), and the
    benchmark's tracer counts its constructions.
    """

    def __init__(self, state: SimState, spec: CharacterSpec):
        self.state = state
        self.spec = spec
        theta = state.theta()
        self.theta_dot = state.theta_dot()
        self.phi = spec.rest_abs + spec.path @ theta
        self.u = unit(self.phi)  # (N,2)
        self.uperp = np.stack([-self.u[:, 1], self.u[:, 0]], axis=1)
        self.phidot = spec.path @ self.theta_dot
        # rel points are root-relative; jac columns are angular dofs
        self.com_rel = spec.com_coeff @ self.u
        self.jac_com = np.einsum("in,nx,na->ixa", spec.com_coeff, self.uperp, spec.path)
        m = spec.masses
        self.r = m @ self.com_rel / spec.total_mass  # body COM relative to root
        self.jac_r = np.einsum("i,ixa->xa", m, self.jac_com) / spec.total_mass
        self.site_rel = spec.site_coeff @ self.u

    @property
    def com_vel(self) -> np.ndarray:
        return self.state.root_vel + self.jac_r @ self.theta_dot

    @property
    def site_pos(self) -> np.ndarray:
        return self.state.root_pos + self.site_rel

    @cached_property
    def site_vel(self) -> np.ndarray:
        # J @ theta_dot collapses to sum_n coeff * u_perp * phidot
        return self.state.root_vel + (
            self.spec.site_coeff * self.phidot[None, :]
        ) @ self.uperp

    @property
    def prox(self) -> np.ndarray:
        return self.state.root_pos + self.spec.prox_coeff @ self.u

    @property
    def dist(self) -> np.ndarray:
        return self.prox + self.spec.lengths[:, None] * self.u

    def point_on_link(self, link: int, dist: float) -> np.ndarray:
        return self.prox[link] + dist * self.u[link]


@dataclass
class ContactReport:
    """Per-site contact summary after a step.

    ``step_world`` reports one character per instance; ``step_batch``
    returns a single instance whose arrays carry a leading env axis (see
    ``row``), whose ``kin`` is the Kinematics of the world it returns, and
    whose ``torques`` are the joint torques of its first substep: the PD
    torques of the input world, or the given torques.
    """

    site_force: np.ndarray  # total force magnitude per site
    site_ground: np.ndarray  # ground contribution per site
    site_opponent: np.ndarray  # opponent contribution per site
    ground_contact: bool | np.ndarray
    kin: "Kinematics | None" = None
    torques: np.ndarray | None = None

    def row(self, i: int) -> "ContactReport":
        """Report of env ``i`` of a batched report."""
        return ContactReport(
            self.site_force[i].copy(), self.site_ground[i].copy(),
            self.site_opponent[i].copy(), bool(self.ground_contact[i]),
        )


def pd_rows(q: np.ndarray, qd: np.ndarray, targets: np.ndarray, spec: CharacterSpec) -> np.ndarray:
    """PD torques for joint angles/velocities ``q``/``qd`` of shape (..., n_joints)."""
    err = wrap_angle(targets - q)
    tau = spec.kp_array * err - spec.kd_array * qd
    return np.minimum(np.maximum(tau, -spec.tau_max), spec.tau_max)


@dataclass
class World:
    """E characters sharing one ``CharacterSpec``, as (E, ...) arrays.

    ``q``/``qd`` hold the angular coordinates and rates, root angle first
    (the ``SimState.theta()`` layout).  A state without friction anchors
    packs as anchors at zero and off, which is what the integrator
    assumes for it.
    """

    root_pos: np.ndarray  # (E, 2)
    q: np.ndarray  # (E, ndof)
    root_vel: np.ndarray  # (E, 2)
    qd: np.ndarray  # (E, ndof)
    time: np.ndarray  # (E,)
    valid: np.ndarray  # (E,) bool
    anchor_x: np.ndarray  # (E, n_sites)
    anchor_on: np.ndarray  # (E, n_sites) bool

    @classmethod
    def of(cls, states: list[SimState], spec: CharacterSpec) -> "World":
        n, ns = len(states), len(spec.sites)
        w = cls(
            np.zeros((n, 2)), np.zeros((n, spec.ndof)), np.zeros((n, 2)),
            np.zeros((n, spec.ndof)), np.zeros(n), np.ones(n, dtype=bool),
            np.zeros((n, ns)), np.zeros((n, ns), dtype=bool),
        )
        for i, s in enumerate(states):
            w.put(i, s)
        return w

    def __len__(self) -> int:
        return self.q.shape[0]

    @property
    def coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(root_pos, q, root_vel, qd), the argument order of ``Kinematics``."""
        return self.root_pos, self.q, self.root_vel, self.qd

    def put(self, i: int, s: SimState) -> None:
        """Overwrite env ``i`` with a copy of ``s``."""
        self.root_pos[i] = s.root_pos
        self.q[i, 0] = s.root_angle
        self.q[i, 1:] = s.joint_angles
        self.root_vel[i] = s.root_vel
        self.qd[i, 0] = s.root_ang_vel
        self.qd[i, 1:] = s.joint_vels
        self.time[i] = s.time
        self.valid[i] = s.valid
        self.anchor_x[i] = 0.0 if s.anchor_x is None else s.anchor_x
        self.anchor_on[i] = False if s.anchor_on is None else s.anchor_on

    def rows(self, keep: np.ndarray) -> "World":
        """The envs that ``keep`` (a mask or an index array) selects."""
        return World(*(getattr(self, f.name)[keep] for f in fields(self)))

    def state(self, i: int) -> SimState:
        return SimState(
            root_pos=self.root_pos[i].copy(),
            root_angle=float(self.q[i, 0]),
            joint_angles=self.q[i, 1:].copy(),
            root_vel=self.root_vel[i].copy(),
            root_ang_vel=float(self.qd[i, 0]),
            joint_vels=self.qd[i, 1:].copy(),
            time=float(self.time[i]),
            valid=bool(self.valid[i]),
            anchor_x=self.anchor_x[i].copy(),
            anchor_on=self.anchor_on[i].copy(),
        )


def _rows(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise ``m @ x[e]`` for x of shape (E, n).

    A 2-D ``x @ m.T`` is one BLAS gemm over the env axis, whose rounding
    can change with E; this contraction gives every row the same bits
    for any E.
    """
    return np.einsum("ij,ej->ei", m, x)


def _dot(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise ``v . x[e]``, with the same E-invariance as ``_rows``."""
    return np.einsum("n,en->e", v, x)


def _link_rows(cos: np.ndarray, sin: np.ndarray, phidot: np.ndarray) -> np.ndarray:
    """The (4E, L) row stack [cos; sin; sin * phidot; cos * phidot] of link
    directions and rates, which the site and COM contractions read."""
    return np.concatenate([cos, sin, sin * phidot, cos * phidot])


class Kinematics:
    """Link directions and site positions/velocities of every env row.

    Site quantities are split into x and y components of shape (E, S).
    ``links`` is the ``_link_rows`` stack of the link directions and
    rates, and ``cos`` and ``sin`` are views of it.  The constructor
    starts from the coordinates; ``of_links`` starts from a stack a
    caller has already computed, which ``_substep`` does to hand the next
    state's kinematics on.
    """

    def __init__(self, spec: CharacterSpec, root_pos, q, root_vel, qd):
        n = len(q)
        angles = _rows(spec.path, np.concatenate([q, qd]))
        phi, phidot = spec.rest_abs + angles[:n], angles[n:]
        self._place(spec, root_pos, root_vel, _link_rows(np.cos(phi), np.sin(phi), phidot), phidot)

    @classmethod
    def of(cls, world: World, spec: CharacterSpec) -> "Kinematics":
        return cls(spec, *world.coords)

    @classmethod
    def of_links(cls, spec: CharacterSpec, root_pos, root_vel, links, phidot) -> "Kinematics":
        k = cls.__new__(cls)
        k._place(spec, root_pos, root_vel, links, phidot)
        return k

    def _place(self, spec, root_pos, root_vel, links, phidot) -> None:
        n = len(phidot)
        self.root_pos, self.root_vel, self.links, self.phidot = root_pos, root_vel, links, phidot
        self.cos, self.sin = links[:n], links[n : 2 * n]
        # site velocity: sum_n coeff * u_perp(phi_n) * phidot_n
        site = _rows(spec.site_coeff, links)
        self.site_x = root_pos[:, :1] + site[:n]
        self.site_y = root_pos[:, 1:] + site[n : 2 * n]
        self.site_vx = root_vel[:, :1] - site[2 * n : 3 * n]
        self.site_vy = root_vel[:, 1:] + site[3 * n :]


def _ground_contacts(k: Kinematics, spec: CharacterSpec, cfg: PhysicsConfig,
                     anchor_x: np.ndarray, anchor_on: np.ndarray):
    """Per-site ground forces with sticking friction anchors.

    Returns (fx, fy, anchor_x, anchor_on), all (E, S): new contacts latch
    an anchor, the Coulomb cap slides it, sites off the ground release it.
    """
    pen = spec.contact_radius - k.site_y
    touching = pen > 0.0
    anchor_x = np.where(touching & ~anchor_on, k.site_x, anchor_x)
    normal = np.maximum(cfg.contact_kn * pen - cfg.contact_dn * k.site_vy, 0.0)
    cap = cfg.friction_mu * normal
    spring = -cfg.contact_kt * (k.site_x - anchor_x)
    # the anchor may store at most cap-level elastic force; beyond that
    # it slides (Coulomb slip)
    over = np.abs(spring) > cap
    spring = np.where(over, np.sign(spring) * cap, spring)
    anchor_x = np.where(touching & over, k.site_x + spring / cfg.contact_kt, anchor_x)
    tang = np.minimum(np.maximum(spring - cfg.contact_dn * k.site_vx, -cap), cap)
    fx = np.where(touching, tang, 0.0)
    fy = np.where(touching, normal, 0.0)
    return fx, fy, anchor_x, touching


def _capsule_distances(k: Kinematics, spec: CharacterSpec) -> tuple[np.ndarray, ...]:
    """Distance test of every row's sites against the link capsules of its
    pair partner, row ``i ^ 1``.

    Returns (touching, t, ex, ey, dist), each (2E, S, L): the point of the
    partner's link l closest to site s lies at fraction t along the link,
    (ex, ey) runs from that point to the site, and ``touching`` marks
    dist < 2 * contact_radius.
    """
    partner = np.arange(len(k.root_pos)) ^ 1
    cos_b, sin_b = k.cos[partner], k.sin[partner]
    seg_x, seg_y = spec.lengths * cos_b, spec.lengths * sin_b
    seg_len2 = np.maximum(seg_x**2 + seg_y**2, 1e-12)[:, None]
    # (2E, S, L) offsets of each row's sites from the proximal ends of its
    # partner's links; the stacked matmul is one gemv per row
    prox_x = k.root_pos[partner, :1] + (spec.prox_coeff @ cos_b[..., None])[..., 0]
    prox_y = k.root_pos[partner, 1:] + (spec.prox_coeff @ sin_b[..., None])[..., 0]
    dx = k.site_x[:, :, None] - prox_x[:, None, :]
    dy = k.site_y[:, :, None] - prox_y[:, None, :]
    seg_x, seg_y = seg_x[:, None], seg_y[:, None]
    t = np.clip((dx * seg_x + dy * seg_y) / seg_len2, 0.0, 1.0)
    ex, ey = dx - t * seg_x, dy - t * seg_y
    dist = np.sqrt(ex * ex + ey * ey)
    return dist < 2.0 * spec.contact_radius, t, ex, ey, dist


def _pair_contacts(k: Kinematics, spec: CharacterSpec, cfg: PhysicsConfig, a: int,
                   near: tuple[np.ndarray, ...]):
    """Contacts of every site of row a against every link capsule of its
    partner, row b = a ^ 1.

    ``near`` is the result of ``_capsule_distances``.  Returns None
    without contact, else (site_a, link_b, along_b, coeff_b, force_a) with
    one entry per contact: the struck point lies ``along_b`` from the
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


def _coupling(k: Kinematics, spec: CharacterSpec, cfg: PhysicsConfig):
    """Contact within every pair of rows (2i, 2i + 1) as per-link force
    sums and per-site reports.

    Returns (f_com, fx_link, fy_link, site_opponent): the (2E, 2) net
    contact force on each character, the (2E, N) link-level sums over
    contacts of (coeff - com_bar) * force, ready for the generalised-force
    map of ``_substep``, and the (2E, S) contact force magnitude per site.
    Only pairs that touch build contact lists, and each pair's sums are
    reduced within the pair, so no pair's bits depend on the others.
    """
    n_rows, n_sites, n_links = len(k.root_pos), len(spec.sites), spec.n_links
    f_com = np.zeros((n_rows, 2))
    fx_link = np.zeros((n_rows, n_links))
    fy_link = np.zeros((n_rows, n_links))
    site_opponent = np.zeros((n_rows, n_sites))
    near = _capsule_distances(k, spec)
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


def _com_dots(cbar: np.ndarray, links: np.ndarray):
    """(com_bar . cos, com_bar . sin, com_bar . sin * phidot,
    com_bar . cos * phidot) of every row of a ``_link_rows`` stack: the
    body COM offset from the root and its rate, in one contraction."""
    return _dot(cbar, links).reshape(4, -1)


def _substep(w: World, k: Kinematics, spec: CharacterSpec, tau: np.ndarray, dt: float,
             cfg: PhysicsConfig, coupled: bool):
    """One semi-implicit Euler sub-interval of every env, given ``k``, the
    Kinematics of ``w``.

    Returns (world, kinematics, site_ground, site_opponent), the
    kinematics being those of the returned world; ``site_opponent`` is
    None unless ``coupled``.
    """
    n = len(w)
    fx, fy, anchor_x, anchor_on = _ground_contacts(k, spec, cfg, w.anchor_x, w.anchor_on)
    site_ground = np.sqrt(fx * fx + fy * fy)
    mass = spec.total_mass
    cbar = spec.com_bar
    # generalised forces of the site forces: each force f at a point with
    # coefficients c adds f to the COM and path^T ((c - com_bar) * (u_perp . f))
    # to the angular dofs
    link = _rows((spec.site_coeff - cbar).T, np.concatenate([fx, fy]))
    fx_link, fy_link = link[:n], link[n:]
    q_tx, q_ty = fx.sum(axis=1), fy.sum(axis=1) - mass * cfg.gravity
    if coupled:
        f_com, px, py, site_opponent = _coupling(k, spec, cfg)
        q_tx, q_ty = q_tx + f_com[:, 0], q_ty + f_com[:, 1]
        fx_link, fy_link = fx_link + px, fy_link + py
    else:
        site_opponent = None
    q_ang = _rows(spec.path.T, k.cos * fy_link - k.sin * fx_link)
    q_ang[:, 1:] += tau

    # angular mass matrix path^T (G * cos(phi_n - phi_k)) path and the
    # velocity-product bias, both about the body COM
    c, s, g = k.cos, k.sin, spec.com_gram
    cos_nk = c[:, :, None] * c[:, None, :] + s[:, :, None] * s[:, None, :]
    m_ang = spec.path.T @ (g * cos_nk) @ spec.path + spec.inertia_path
    w2 = k.phidot**2
    gram = _rows(g, np.concatenate([s * w2, c * w2]))
    bias = -_rows(spec.path.T, c * gram[:n] - s * gram[n:])
    qdd = np.linalg.solve(m_ang, (q_ang - bias)[..., None])[..., 0]

    com_x, com_y, dvx, dvy = _com_dots(cbar, k.links)
    com_x, com_y = w.root_pos[:, 0] + com_x, w.root_pos[:, 1] + com_y
    vx = w.root_vel[:, 0] - dvx + dt * q_tx / mass
    vy = w.root_vel[:, 1] + dvy + dt * q_ty / mass
    qd = w.qd + dt * qdd
    q = w.q + dt * qd
    # reconstruct the root from the integrated COM
    angles = _rows(spec.path, np.concatenate([q, qd]))
    phi, phidot = spec.rest_abs + angles[:n], angles[n:]
    c, s = np.cos(phi), np.sin(phi)
    links = _link_rows(c, s, phidot)
    cx, cy, dvx, dvy = _com_dots(cbar, links)
    root_pos, root_vel = np.empty((n, 2)), np.empty((n, 2))
    root_pos[:, 0] = com_x + dt * vx - cx
    root_pos[:, 1] = com_y + dt * vy - cy
    np.add(vx, dvx, out=root_vel[:, 0])
    np.subtract(vy, dvy, out=root_vel[:, 1])

    new_coords = np.concatenate([root_pos, root_vel, q, qd], axis=1)
    finite = np.isfinite(new_coords).all(axis=1) & (np.abs(qd).max(axis=1) < 1e8)
    # divergence is sticky until the owner resets the state: invalid envs
    # keep their last finite state
    ok = w.valid & finite
    if ok.all():
        new = World(root_pos, q, root_vel, qd, w.time + dt, ok, anchor_x, anchor_on)
    else:
        keep = ~ok[:, None]
        new = World(
            np.where(keep, w.root_pos, root_pos),
            np.where(keep, w.q, q),
            np.where(keep, w.root_vel, root_vel),
            np.where(keep, w.qd, qd),
            np.where(w.valid & ~finite, w.time, w.time + dt),
            ok,
            np.where(keep, w.anchor_x, anchor_x),
            np.where(keep, w.anchor_on, anchor_on),
        )
        phidot = np.where(keep, k.phidot, phidot)
        links = _link_rows(np.where(keep, k.cos, c), np.where(keep, k.sin, s), phidot)
    k = Kinematics.of_links(spec, new.root_pos, new.root_vel, links, phidot)
    return new, k, site_ground, site_opponent


def step_batch(
    world: World,
    spec: CharacterSpec,
    dt: float,
    cfg: PhysicsConfig,
    pd_targets: np.ndarray | None = None,
    torques: np.ndarray | None = None,
    coupled: bool = False,
) -> tuple[World, ContactReport]:
    """Advance every env of ``world`` by one control step.

    ``pd_targets`` or ``torques`` is an (E, n_joints) array, with the
    semantics of ``step_world``.  With ``coupled`` the rows pair up as
    (2i, 2i + 1): the two characters of a pair touch each other and no
    other row, so a coupled world holds an even number of rows.  Returns
    the new world and one batched ContactReport, whose ``kin`` holds the
    Kinematics of the new world and whose ``torques`` are the joint
    torques of the first substep.
    """
    if (torques is None) == (pd_targets is None):
        raise ValueError("pass exactly one of torques or pd_targets")
    if coupled and len(world) % 2:
        raise ValueError("a coupled world holds pairs of characters")
    sub_dt = dt / cfg.substeps
    k = Kinematics.of(world, spec)
    for i in range(cfg.substeps):
        tau = torques if pd_targets is None else pd_rows(
            world.q[:, 1:], world.qd[:, 1:], pd_targets, spec
        )
        world, k, ground, opp = _substep(world, k, spec, tau, sub_dt, cfg, coupled)
        if i == 0:
            tau0, site_ground, site_opponent = tau, ground, opp
        else:
            np.maximum(site_ground, ground, out=site_ground)
            if coupled:
                np.maximum(site_opponent, opp, out=site_opponent)
    if not coupled:
        site_opponent = np.zeros_like(site_ground)
    report = ContactReport(
        site_ground + site_opponent, site_ground, site_opponent,
        (site_ground > 0.0).any(axis=1), k, tau0,
    )
    return world, report


def step_world(
    states: list[SimState],
    specs: list[CharacterSpec],
    torques: list[np.ndarray] | None,
    dt: float,
    cfg: PhysicsConfig,
    pd_targets: list[np.ndarray] | None = None,
) -> tuple[list[SimState], list[ContactReport]]:
    """Advance one or two coupled characters by one control step.

    The step is split into cfg.substeps semi-implicit Euler sub-intervals.
    Raw ``torques`` are held constant over the step; with ``pd_targets``
    the PD actuation law is instead re-evaluated at every sub-interval
    (PD runs at the simulation rate), which keeps stiff contact stable.
    Reported contact forces are per-site maxima over the sub-intervals,
    since peak forces are what the hit rules care about.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = len(states)
    if n > 2:
        raise ValueError("at most two characters per world")
    if (torques is None) == (pd_targets is None):
        raise ValueError("pass exactly one of torques or pd_targets")
    spec = specs[0]
    if any(s != spec for s in specs[1:n]):
        raise ValueError("characters in one world must share a CharacterSpec")
    given = torques if pd_targets is None else pd_targets
    rows = np.zeros((n, spec.n_joints))
    for i in range(n):
        row = np.asarray(given[i], dtype=np.float64)
        if row.shape != (spec.n_joints,):
            kind = "torques" if pd_targets is None else "targets"
            raise ValueError(f"expected {spec.n_joints} {kind}, got {row.shape}")
        rows[i] = row
    world, report = step_batch(
        World.of(states, spec), spec, dt, cfg,
        pd_targets=None if pd_targets is None else rows,
        torques=rows if pd_targets is None else None,
        coupled=n == 2,
    )
    return [world.state(i) for i in range(n)], [report.row(i) for i in range(n)]


def linear_momentum(state: SimState, spec: CharacterSpec) -> np.ndarray:
    """Linear momentum of one character, the measure of the momentum tests."""
    frame = KinFrame(state, spec)
    return spec.total_mass * frame.com_vel


def to_local(angle: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectors ``v`` (..., 2) rotated by ``-angle`` into each root frame;
    ``angle`` broadcasts against ``v[..., 0]``."""
    c, s = np.cos(angle), np.sin(angle)
    return rotate_into(np.empty(np.broadcast(c, v[..., 0]).shape + (2,)), c, s, v)


def rotate_into(out: np.ndarray, c: np.ndarray, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``to_local`` written into ``out``, given the cos ``c`` and sin ``s``
    of the angles, for callers that rotate several vectors by one angle."""
    x, y = out[..., 0], out[..., 1]
    np.multiply(c, v[..., 0], out=x)
    x += s * v[..., 1]
    np.multiply(c, v[..., 1], out=y)
    y -= s * v[..., 0]
    return out


def fallen(valid: np.ndarray, k: Kinematics, spec: CharacterSpec, cfg: PhysicsConfig) -> np.ndarray:
    """Per-env fall test: invalid, torso center below the threshold, or a
    trunk endpoint (pelvis or head top) in ground contact."""
    torso_y = k.root_pos[:, 1] + spec.torso_center_dist * k.sin[:, 0]
    r = spec.contact_radius
    return (
        ~valid
        | (torso_y < cfg.fall_height)
        | (k.site_y[:, spec.site_index["pelvis"]] < r)
        | (k.site_y[:, spec.site_index["head_top"]] < r)
    )


def detect_fall(state: SimState, spec: CharacterSpec, cfg: PhysicsConfig) -> bool:
    """``fallen`` for one character."""
    w = World.of([state], spec)
    return bool(fallen(w.valid, Kinematics.of(w, spec), spec, cfg)[0])


# --- default character -------------------------------------------------

JOINT_NAMES = (
    "shoulder_l", "elbow_l", "shoulder_r", "elbow_r",
    "hip_l", "knee_l", "hip_r", "knee_r",
)


def default_character() -> CharacterSpec:
    """Nine-link planar fighter: trunk (torso+head composite), two
    two-segment arms hanging from the neck, two two-segment legs."""
    # trunk = torso rod (0.50 m, 4 kg) + head rod (0.22 m, 1 kg) welded;
    # composite COM sits 0.322 m above the pelvis, inertia 0.19105 kg m^2
    trunk = Link("trunk", 0.72, 5.0, -1, rest_rel=math.pi / 2,
                 com_frac=0.322 / 0.72, inertia=0.191046)
    arm_u = dict(length=0.28, mass=0.5, rest_rel=math.pi,
                 attach_end="proximal", attach_offset=0.50)
    arm_l = dict(length=0.26, mass=0.4, rest_rel=0.0, attach_end="distal")
    leg_u = dict(length=0.40, mass=1.0, rest_rel=math.pi, attach_end="proximal")
    leg_l = dict(length=0.40, mass=0.8, rest_rel=0.0, attach_end="distal")
    links = (
        trunk,
        Link("upper_arm_l", parent=0, **arm_u),
        Link("lower_arm_l", parent=1, **arm_l),
        Link("upper_arm_r", parent=0, **arm_u),
        Link("lower_arm_r", parent=3, **arm_l),
        Link("upper_leg_l", parent=0, **leg_u),
        Link("lower_leg_l", parent=5, **leg_l),
        Link("upper_leg_r", parent=0, **leg_u),
        Link("lower_leg_r", parent=7, **leg_l),
    )
    sites = (
        Site("pelvis", 0, 0.0),
        Site("head_top", 0, 0.72),
        Site("elbow_l", 1, 0.28),
        Site("hand_l", 2, 0.26),
        Site("elbow_r", 3, 0.28),
        Site("hand_r", 4, 0.26),
        Site("knee_l", 5, 0.40),
        Site("foot_l", 6, 0.40),
        Site("knee_r", 7, 0.40),
        Site("foot_r", 8, 0.40),
    )
    # gains assume PD re-evaluated at every substep of ``step_batch``; the
    # damping ratios land around 0.35-0.65 for the light limbs
    kp = (150.0, 40.0, 150.0, 40.0, 300.0, 150.0, 300.0, 150.0)
    kd = (1.5, 0.5, 1.5, 0.5, 4.0, 2.0, 4.0, 2.0)
    return CharacterSpec(links=links, sites=sites, kp=kp, kd=kd)


def character_to_json(spec: CharacterSpec, path: str | Path) -> None:
    import json

    doc = {
        "links": [
            {
                "name": l.name, "length": l.length, "mass": l.mass, "parent": l.parent,
                "attach_end": l.attach_end, "attach_offset": l.attach_offset,
                "rest_rel": l.rest_rel, "com_frac": l.com_frac, "inertia": l.inertia,
            }
            for l in spec.links
        ],
        "sites": [{"name": s.name, "link": s.link, "dist": s.dist} for s in spec.sites],
        "kp": list(spec.kp),
        "kd": list(spec.kd),
        "contact_radius": spec.contact_radius,
        "tau_max": spec.tau_max,
        "torso_center_dist": spec.torso_center_dist,
        "head_center_dist": spec.head_center_dist,
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def character_from_json(path: str | Path) -> CharacterSpec:
    import json

    doc = json.loads(Path(path).read_text())
    links = tuple(Link(**l) for l in doc["links"])
    sites = tuple(Site(**s) for s in doc["sites"])
    optional = ("contact_radius", "tau_max", "torso_center_dist", "head_center_dist")
    return CharacterSpec(
        links=links,
        sites=sites,
        kp=tuple(doc["kp"]),
        kd=tuple(doc["kd"]),
        # a missing key takes CharacterSpec's own default
        **{k: doc[k] for k in optional if k in doc},
    )


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of ``x`` (n, d), each with the bits of
    a 1-D ``np.linalg.norm`` of that row (one dot per row; a 2-D
    ``norm(axis=1)`` rounds differently)."""
    x = np.ascontiguousarray(x)
    return np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0, 0]


def leg_ik_rows(
    hip: np.ndarray, foot: np.ndarray, l1: float, l2: float, root_angle: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Two-link leg inverse kinematics of every row, knee-forward branch.

    ``hip`` and ``foot`` are (n, 2) positions and ``root_angle`` is (n,).
    Returns the (n,) hip and knee joint angles for the rest convention
    where zero joint angles point the leg straight down at zero root
    angle.  A target out of reach is moved along the hip-to-foot line to
    the reachable distance.  The transcendentals are libm ``math`` calls,
    one per row, because numpy's SIMD versions may round differently, and
    differently per machine.
    """
    v = foot - hip
    dist = row_norms(v)
    d = np.minimum(np.maximum(dist, 1e-6), l1 + l2 - 1e-9)
    cos_a1 = np.minimum(np.maximum((l1 * l1 + d * d - l2 * l2) / (2.0 * l1 * d), -1.0), 1.0)
    phi_u = (np.array([math.atan2(y, x) for x, y in v.tolist()])
             + np.array([math.acos(c) for c in cos_a1.tolist()]))
    knee_x = hip[:, 0] + l1 * np.array([math.cos(a) for a in phi_u.tolist()])
    knee_y = hip[:, 1] + l1 * np.array([math.sin(a) for a in phi_u.tolist()])
    tgt = hip + v * (d / np.maximum(dist, 1e-9))[:, None]
    phi_l = np.array([
        math.atan2(y, x) for x, y in zip((tgt[:, 0] - knee_x).tolist(), (tgt[:, 1] - knee_y).tolist())
    ])
    return wrap_angle(phi_u - root_angle + math.pi / 2.0), wrap_angle(phi_l - phi_u)


GUARD_ARMS = {"shoulder_l": 1.00, "elbow_l": 1.70, "shoulder_r": 0.80, "elbow_r": 2.00}
STANCE_HALF_SPAN = 0.15  # foot spread around the root; left leads


def nominal_stance(
    spec: CharacterSpec, cfg: PhysicsConfig | None = None
) -> SimState:
    """Neutral standing pose built as a symmetric truss: straight splayed
    legs carry the load axially, trunk vertical, arms hanging straight.

    Gravity torques on the actuated joints are near zero, so commanding
    this pose as the PD target holds it with millimetre-level droop.  The
    feet are preloaded into the ground and the friction anchors are
    pre-tensioned with the inward shear the leg splay needs.
    """
    cfg = cfg or PhysicsConfig()
    preload = spec.total_mass * cfg.gravity / (2.0 * cfg.contact_kn)
    foot_y = spec.contact_radius - preload
    leg = spec.links[5].length + spec.links[6].length
    rise = math.sqrt(leg**2 - STANCE_HALF_SPAN**2)
    joints = np.zeros(spec.n_joints)
    jidx = {n: i for i, n in enumerate(JOINT_NAMES)}
    tilt = math.atan2(STANCE_HALF_SPAN, rise)
    joints[jidx["hip_l"]] = tilt
    joints[jidx["hip_r"]] = -tilt
    state = SimState(
        root_pos=np.array([0.0, foot_y + rise]),
        root_angle=0.0,
        joint_angles=joints,
        root_vel=np.zeros(2),
        root_ang_vel=0.0,
        joint_vels=np.zeros(spec.n_joints),
    )
    site_x = Kinematics.of(World.of([state], spec), spec).site_x[0]
    state.anchor_x = site_x.copy()
    state.anchor_on = np.zeros(len(spec.sites), dtype=bool)
    half_weight = spec.total_mass * cfg.gravity / 2.0
    for name, sign in (("foot_l", -1.0), ("foot_r", 1.0)):
        s = spec.site_index[name]
        state.anchor_on[s] = True
        state.anchor_x[s] = site_x[s] + sign * half_weight * math.tan(tilt) / cfg.contact_kt
    return state


def default_config(spec: CharacterSpec | None = None, **overrides) -> PhysicsConfig:
    """Physics config with the fall threshold derived from the stance."""
    spec = spec or default_character()
    cfg = PhysicsConfig(**overrides)
    k = Kinematics.of(World.of([nominal_stance(spec, cfg)], spec), spec)
    h = k.root_pos[0, 1] + spec.torso_center_dist * k.sin[0, 0]
    return replace(cfg, fall_height=cfg.fall_frac * float(h))


def mirror_state(state: SimState, about_x: float = 0.0) -> SimState:
    """Reflect a state across the vertical line x = about_x."""
    return SimState(
        root_pos=np.array([2.0 * about_x - state.root_pos[0], state.root_pos[1]]),
        root_angle=-state.root_angle,
        joint_angles=-state.joint_angles.copy(),
        root_vel=np.array([-state.root_vel[0], state.root_vel[1]]),
        root_ang_vel=-state.root_ang_vel,
        joint_vels=-state.joint_vels.copy(),
        time=state.time,
        valid=state.valid,
        anchor_x=None if state.anchor_x is None else 2.0 * about_x - state.anchor_x,
        anchor_on=None if state.anchor_on is None else state.anchor_on.copy(),
    )
