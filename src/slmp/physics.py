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
batch split.  This is the one row rule of ``nets``, which
``RowNet`` relies on too: every contraction over a row is a
``nets.row_product`` with a padded (in, out) matrix that
``CharacterSpec`` builds once (its ``*_padded`` properties).  Beyond
those there are elementwise products, stacked products of one small
matrix per row, one batched ``np.linalg.solve``, and reductions along
an axis of fixed length.  Since a row's bits do not depend on the other
rows, several operands that meet the same matrix share one product with
their rows stacked (q and qd through ``path_padded``, the four
link-direction rows through ``site_com_padded``), and a row product may
be taken before a row selection: each row gets the bits of its own
call.  Scatters over rows are ``np.add.at`` calls, which add in the
order of their entries: a row's contacts are summed in the fixed (row,
site, link) order of one ``np.nonzero``, and a pair's net force is
summed once and then negated for the upper row, so the pair obeys
Newton's third law bit for bit.

Link-space angular solve: ``path`` (P, link angles = rest + P theta) is
square and unit lower-triangular, since each parent precedes its
child.  The angular mass matrix about the body COM is P^T A P with
A = G * cos(phi_n - phi_k) + diag(I) over link pairs (``com_gram``,
``link_mass``), and the generalised forces are P^T of the link torques
f_link + b_link (site forces and the velocity-product bias) plus the
joint torques [0; tau].  So ``_angular_accel`` solves
A phi_dd = f_link + b_link + P^-T [0; tau] for the link accelerations,
without forming P^T A P, and takes theta_dd = P^-1 phi_dd, where P^-1
has +1 on the diagonal and -1 at (i, parent(i)): one exact difference
per joint.

Body parts by name: the ``CharacterSpec`` is the one description of the
body.  The pipeline finds the links and sites of ``BODY_PARTS`` by name
(``link_index``, ``site_index``), never by list position; a missing name
is a ``ValueError`` that names it.  A joint is named by the link it
moves: joint j moves link j + 1, column j + 1 of q.

Kinematics hand-off: one control step of ``step_batch`` builds the
``Kinematics`` of its input world once.  Each ``_substep`` takes the
kinematics of its world and returns those of the next, built from the
link angles and rates it already computes to rebuild the root, and the
last ones reach the caller as ``ContactReport.kin``.  They equal
``Kinematics.of`` the returned world bit for bit, and share its arrays:
a ``World.put`` (a reset) leaves them stale for the rows it writes.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from functools import cache, cached_property
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .nets import pad_columns, row_product

TWO_PI = 2.0 * math.pi


def wrap_angle(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Wrap an array of angles to (-pi, pi], written into ``out`` when
    given.

    ``fmod`` and one fix-up of the results <= 0 give the bits of
    ``np.mod`` (the Python remainder) followed by that fix-up: both add
    2 pi to a negative remainder and map a zero one to 2 pi.  Adding
    ``(w <= 0) * 2 pi`` adds an exact 0.0 to the other, positive, rows.
    """
    w = np.add(a, math.pi, out=out, dtype=np.float64)
    np.fmod(w, TWO_PI, out=w)
    w += (w <= 0.0) * TWO_PI
    w -= math.pi
    return w


def unit(phi):
    return np.stack([np.cos(phi), np.sin(phi)], axis=-1)


def require_positive(cfg, names: tuple[str, ...]) -> None:
    """Refuse a config whose fields ``names`` are not finite and positive."""
    for name in names:
        v = getattr(cfg, name)
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be positive, got {v}")


def require_non_negative(cfg, names: tuple[str, ...]) -> None:
    """Refuse a config whose fields ``names`` are not finite and non-negative."""
    for name in names:
        v = getattr(cfg, name)
        if not (math.isfinite(v) and v >= 0):
            raise ValueError(f"{name} must be non-negative, got {v}")


class Layout:
    """An observation row declared once: named blocks in row order (a
    flattened Gymnasium ``spaces.Dict``), each as wide as an int, a
    function of the joint count or a nested ``Layout``."""

    def __init__(self, **blocks):
        self.blocks = blocks

    @cache
    def of(self, n_joints: int) -> SimpleNamespace:
        """Each block's slice, by name, and the row ``width`` at ``n_joints``."""
        cols, at = {}, 0
        for name, w in self.blocks.items():
            w = w.of(n_joints).width if isinstance(w, Layout) else w(n_joints) if callable(w) else w
            cols[name], at = slice(at, at + w), at + w
        return SimpleNamespace(**cols, width=at)

    def width(self, spec: CharacterSpec) -> int:
        """The row width for the character ``spec``."""
        return self.of(spec.n_joints).width


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


class NameIndex(dict):
    """Name -> position among a character's links or sites; a missing name
    is refused with a ``ValueError`` that names it."""

    def __init__(self, kind: str, parts):
        super().__init__((p.name, i) for i, p in enumerate(parts))
        self.kind = kind

    def __missing__(self, name: str):
        raise ValueError(f"the character has no {self.kind} named {name!r}")


# the (kind, name) of every part the pipeline looks up by name: the legs (stance,
# clip IK), arms (guard, strikes, spawn noise), feet, hands, pelvis and head top
BODY_PARTS = (*(("link", f"{limb}_{side}") for limb in ("upper_leg", "lower_leg", "upper_arm", "lower_arm")
                for side in "lr"),
              *(("site", name) for name in ("foot_l", "foot_r", "hand_l", "hand_r", "pelvis", "head_top")))


@dataclass(frozen=True)
class CharacterSpec:
    """A character: links in tree order, the root first, named sites on
    them, and one PD gain pair per joint; joint j moves link j + 1.  The
    pipeline looks up the links and sites of ``BODY_PARTS`` by name."""

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
        if len(self.link_index) < self.n_links or len(self.site_index) < len(self.sites):
            raise ValueError("link names and site names must each be unique")
        if len(self.kp) != self.n_joints or len(self.kd) != self.n_joints:
            raise ValueError("pd gain vectors must match the joint count")
        require_positive(self, ("tau_max", "contact_radius"))

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
    def link_index(self) -> NameIndex:
        return NameIndex("link", self.links)

    @cached_property
    def site_index(self) -> NameIndex:
        return NameIndex("site", self.sites)

    def joint(self, link: str) -> int:
        """The joint that moves ``link``: joint j moves link j + 1."""
        if (i := self.link_index[link]) == 0:
            raise ValueError(f"link {link!r} is the root, which no joint moves")
        return i - 1

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
        path^T A path, A = G * cos(phi_n - phi_k) + diag(inertias), the
        link-space matrix that ``_angular_accel`` solves with; G also
        weighs the velocity-product bias."""
        c = self.com_coeff - self.com_bar
        return (self.masses[:, None] * c).T @ c

    @cached_property
    def link_mass(self) -> np.ndarray:
        """G + diag(inertias): A = link_mass * cos(phi_n - phi_k), since
        the cosine is 1 on the diagonal."""
        return self.com_gram + np.diag(self.inertias)

    @cached_property
    def parent_index(self) -> np.ndarray:
        """Parents of links 1.. in order: theta_dd = phi_dd minus the
        parent's phi_dd (``path`` inverted)."""
        return np.array([l.parent for l in self.links[1:]], dtype=int)

    # The padded (in, out) matrices of the row products (module docstring).

    @cached_property
    def path_padded(self) -> np.ndarray:
        """Rows of angular coordinates or rates to link angles or rates."""
        return pad_columns(self.path.T)

    @cached_property
    def site_com_padded(self) -> np.ndarray:
        """Rows of ``_link_rows`` to site offsets from the root (the first
        n_sites columns) and the body COM offset (the next column)."""
        return pad_columns(np.column_stack([self.site_coeff.T, self.com_bar]))

    @cached_property
    def force_padded(self) -> np.ndarray:
        """Rows [f | u * phidot^2] of per-site force components f and link
        directions u to the link sums of (site_coeff - com_bar) * f plus
        G u phidot^2 (``_angular_accel``)."""
        return pad_columns(np.vstack([self.site_coeff - self.com_bar, self.com_gram]))

    @cached_property
    def torque_padded(self) -> np.ndarray:
        """Rows of joint torques to link torques, P^-T [0; tau]."""
        m = np.eye(self.n_links)[1:]
        m[np.arange(self.n_joints), self.parent_index] = -1.0
        return pad_columns(m)

    @cached_property
    def prox_padded(self) -> np.ndarray:
        """Rows of link direction components to the proximal-end offsets
        from the root."""
        return pad_columns(self.prox_coeff.T)


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

    def __post_init__(self):
        require_positive(self, ("hz", "substeps", "contact_kn", "contact_kt"))
        require_non_negative(self, ("gravity", "contact_dn", "friction_mu"))
        if not 0.0 < self.fall_frac < 1.0:
            raise ValueError(f"fall_frac must be in (0, 1), got {self.fall_frac}")

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
    def zeros(cls, n: int, spec: CharacterSpec) -> "World":
        """``n`` valid characters with every coordinate and rate at zero."""
        ns = len(spec.sites)
        return cls(
            np.zeros((n, 2)), np.zeros((n, spec.ndof)), np.zeros((n, 2)),
            np.zeros((n, spec.ndof)), np.zeros(n), np.ones(n, dtype=bool),
            np.zeros((n, ns)), np.zeros((n, ns), dtype=bool),
        )

    @classmethod
    def of(cls, states: list[SimState], spec: CharacterSpec) -> "World":
        w = cls.zeros(len(states), spec)
        for i, s in enumerate(states):
            w.put(i, s)
        return w

    @classmethod
    def join(cls, worlds: list["World"]) -> "World":
        """The rows of ``worlds`` as one World, in list order."""
        return cls(*(np.concatenate([getattr(w, f.name) for w in worlds]) for f in fields(cls)))

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


def _link_rows(cos: np.ndarray, sin: np.ndarray, phidot: np.ndarray) -> np.ndarray:
    """The (4E, L) row stack [cos; sin; sin * phidot; cos * phidot] of link
    directions and rates, which the site and COM products read."""
    return np.concatenate([cos, sin, sin * phidot, cos * phidot])


def _link_state(spec: CharacterSpec, q: np.ndarray, qd: np.ndarray):
    """(links, phidot) of the coordinates and rates ``q``, ``qd`` (E, ndof):
    their ``_link_rows`` stack and the (E, L) link rates."""
    n = len(q)
    angles = row_product(np.concatenate([q, qd]), spec.path_padded)[:, : spec.n_links]
    phi, phidot = spec.rest_abs + angles[:n], angles[n:]
    return _link_rows(np.cos(phi), np.sin(phi), phidot), phidot


class Kinematics:
    """Link directions and site positions/velocities of every env row.

    Site quantities are split into x and y components of shape (E, S).
    ``links`` is the ``_link_rows`` stack of the link directions and
    rates, and ``cos`` and ``sin`` are views of it.  ``com`` holds the
    (4, E) rows (com_bar . cos, com_bar . sin, com_bar . sin * phidot,
    com_bar . cos * phidot): the body COM offset from the root and its
    rate, the last column of the site product ``rel``.  The constructor
    starts from the coordinates; ``of_links`` starts from a stack, and
    optionally its ``rel``, that a caller has already computed, which
    ``_substep`` does to hand the next state's kinematics on.
    """

    def __init__(self, spec: CharacterSpec, root_pos, q, root_vel, qd):
        self._place(spec, root_pos, root_vel, *_link_state(spec, q, qd))

    @classmethod
    def of(cls, world: World, spec: CharacterSpec) -> "Kinematics":
        return cls(spec, *world.coords)

    @classmethod
    def of_links(cls, spec: CharacterSpec, root_pos, root_vel, links, phidot,
                 rel=None) -> "Kinematics":
        k = cls.__new__(cls)
        k._place(spec, root_pos, root_vel, links, phidot, rel)
        return k

    def _place(self, spec, root_pos, root_vel, links, phidot, rel=None) -> None:
        n, ns = len(phidot), len(spec.sites)
        if rel is None:
            rel = row_product(links, spec.site_com_padded)
        self.root_pos, self.root_vel, self.links, self.phidot = root_pos, root_vel, links, phidot
        self.cos, self.sin = links[:n], links[n : 2 * n]
        # site velocity: sum_n coeff * u_perp(phi_n) * phidot_n
        self.site_x = root_pos[:, :1] + rel[:n, :ns]
        self.site_y = root_pos[:, 1:] + rel[n : 2 * n, :ns]
        self.site_vx = root_vel[:, :1] - rel[2 * n : 3 * n, :ns]
        self.site_vy = root_vel[:, 1:] + rel[3 * n :, :ns]
        self.com = rel[:, ns].reshape(4, n)


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
    n, nl = len(k.root_pos), spec.n_links
    partner = np.arange(n) ^ 1
    cos_b, sin_b = k.cos[partner], k.sin[partner]
    seg_x, seg_y = spec.lengths * cos_b, spec.lengths * sin_b
    seg_len2 = np.maximum(seg_x**2 + seg_y**2, 1e-12)[:, None]
    # (2E, S, L) offsets of each row's sites from the proximal ends of its
    # partner's links: every row's own ends from one row product, then
    # gathered by partner
    prox = row_product(k.links[: 2 * n], spec.prox_padded)
    prox_x = k.root_pos[partner, :1] + prox[:n][partner, :nl]
    prox_y = k.root_pos[partner, 1:] + prox[n:][partner, :nl]
    dx = k.site_x[:, :, None] - prox_x[:, None, :]
    dy = k.site_y[:, :, None] - prox_y[:, None, :]
    seg_x, seg_y = seg_x[:, None], seg_y[:, None]
    t = np.minimum(np.maximum((dx * seg_x + dy * seg_y) / seg_len2, 0.0), 1.0)
    ex, ey = dx - t * seg_x, dy - t * seg_y
    dist = np.sqrt(ex * ex + ey * ey)
    return dist < 2.0 * spec.contact_radius, t, ex, ey, dist


def _coupling(k: Kinematics, spec: CharacterSpec, cfg: PhysicsConfig):
    """Contact within every pair of rows (2i, 2i + 1) as per-link force
    sums and per-site reports.

    Returns (f_com, fx_link, fy_link, site_opponent): the (2E, 2) net
    contact force on each character, the (2E, N) link-level sums over
    contacts of (coeff - com_bar) * force, ready for the generalised-force
    map of ``_substep``, and the (2E, S) contact force magnitude per site.
    Every contact of every pair is one entry of flat arrays: site s of
    row r strikes link j of its partner b = r ^ 1, which receives the
    opposite force at the struck point.  The sums are fixed-order
    scatters (module docstring): each pair's net force is summed once,
    lower row's contacts first, and the upper row gets its negation.
    """
    n_rows, n_sites, n_links = len(k.root_pos), len(spec.sites), spec.n_links
    touching, t, ex, ey, dist = _capsule_distances(k, spec)
    r, s, j = np.nonzero(touching)
    f_com = np.zeros((n_rows, 2))
    link = np.zeros((n_rows, 2, n_links))  # fx_link, fy_link
    site_opponent = np.zeros((n_rows, n_sites))
    if not r.size:  # most combat substeps: skip the empty-array passes
        return f_com, link[:, 0], link[:, 1], site_opponent
    b = r ^ 1
    d = dist[r, s, j]
    far = d > 1e-9
    n = np.where(far[:, None], np.stack([ex[r, s, j], ey[r, s, j]], axis=1)
                 / np.where(far, d, 1.0)[:, None], [0.0, 1.0])
    # the struck point lies `along` from the proximal end of b's link j,
    # at point - root = coeff_b @ unit(phi); its velocity sums
    # coeff_b * u_perp * phidot over b's links
    along = t[r, s, j] * spec.lengths[j]
    coeff_b = spec.prox_coeff[j]
    coeff_b[np.arange(j.size), j] += along
    sin_w, cos_w = k.links.reshape(4, n_rows, n_links)[2:, b]
    v_rel = np.stack([k.site_vx[r, s] - (k.root_vel[b, 0] - (coeff_b * sin_w).sum(axis=1)),
                      k.site_vy[r, s] - (k.root_vel[b, 1] + (coeff_b * cos_w).sum(axis=1))], axis=1)
    vn = (v_rel * n).sum(axis=1)
    normal = np.maximum(cfg.contact_kn * (2.0 * spec.contact_radius - d) - cfg.contact_dn * vn, 0.0)
    vt = v_rel - vn[:, None] * n
    speed = np.linalg.norm(vt, axis=1)
    slip = speed > 1e-9
    fric = np.where(slip, np.minimum(cfg.contact_dn * speed, cfg.friction_mu * normal), 0.0)
    force = normal[:, None] * n - fric[:, None] * (vt / np.where(slip, speed, 1.0)[:, None])

    net = np.zeros((n_rows // 2, 2))
    np.add.at(net, r // 2, force * (1.0 - 2.0 * (r & 1))[:, None])
    f_com[0::2] = net
    np.subtract(0.0, net, out=f_com[1::2])
    # striking rows take the force at their sites, struck rows its
    # opposite at the struck points
    lever = np.concatenate([spec.site_coeff[s], coeff_b]) - spec.com_bar
    f = np.concatenate([force, -force])
    np.add.at(link, np.concatenate([r, b]), f[:, :, None] * lever[:, None, :])
    # the magnitude goes to the striking site and to the nearest site on
    # the struck link
    mag = np.linalg.norm(force, axis=1)
    on = spec.site_on_link[j]
    gap = np.where(on, np.abs(spec.site_dist - along[:, None]), np.inf)
    has = on.any(axis=1)
    np.add.at(site_opponent, (np.concatenate([r, b[has]]),
                              np.concatenate([s, np.argmin(gap, axis=1)[has]])),
              np.concatenate([mag, mag[has]]))
    return f_com, link[:, 0], link[:, 1], site_opponent


def _angular_accel(k: Kinematics, spec: CharacterSpec, fx: np.ndarray, fy: np.ndarray,
                   tau: np.ndarray, pair=None) -> np.ndarray:
    """The (E, ndof) angular accelerations theta_dd of every row, by the
    link-space solve (module docstring).

    ``fx``/``fy`` are the (E, S) site forces and ``tau`` the (E, n_joints)
    joint torques; ``pair`` is None or the (fx_link, fy_link) link sums
    of ``_coupling``.  A force f at a point with coefficients c adds
    (c - com_bar) * (u_perp . f) to the link torques, and the velocity
    product adds u_perp . (G u phidot^2): one row product gives both link
    sums per force direction.
    """
    n, ns, nl = len(fx), len(spec.sites), spec.n_links
    c, s = k.cos, k.sin
    w2 = k.phidot**2
    rows = np.empty((2 * n, ns + nl))
    rows[:n, :ns], rows[n:, :ns] = fx, fy
    np.multiply(c, w2, out=rows[:n, ns:])
    np.multiply(s, w2, out=rows[n:, ns:])
    link = row_product(rows, spec.force_padded)
    fx_link, fy_link = link[:n, :nl], link[n:, :nl]
    if pair is not None:
        fx_link, fy_link = fx_link + pair[0], fy_link + pair[1]
    rhs = c * fy_link
    rhs -= s * fx_link
    rhs += row_product(tau, spec.torque_padded)[:, :nl]
    # cos(phi_n - phi_k) as one stacked (L, 2) @ (2, L) product per row
    u = k.links[: 2 * n].reshape(2, n, nl)
    a = u.transpose(1, 2, 0) @ u.transpose(1, 0, 2)
    a *= spec.link_mass
    phidd = np.linalg.solve(a, rhs[..., None])[..., 0]
    qdd = phidd.copy()
    qdd[:, 1:] -= phidd[:, spec.parent_index]
    return qdd


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
    # each site force adds itself to the COM and its torque about the COM
    # to the links (``_angular_accel``)
    q_tx, q_ty = fx.sum(axis=1), fy.sum(axis=1) - mass * cfg.gravity
    if coupled:
        f_com, px, py, site_opponent = _coupling(k, spec, cfg)
        q_tx, q_ty = q_tx + f_com[:, 0], q_ty + f_com[:, 1]
        pair = px, py
    else:
        site_opponent = pair = None
    qdd = _angular_accel(k, spec, fx, fy, tau, pair)

    com_x, com_y, dvx, dvy = k.com
    com_x, com_y = w.root_pos[:, 0] + com_x, w.root_pos[:, 1] + com_y
    vx = w.root_vel[:, 0] - dvx + dt * q_tx / mass
    vy = w.root_vel[:, 1] + dvy + dt * q_ty / mass
    qd = w.qd + dt * qdd
    q = w.q + dt * qd
    # reconstruct the root from the integrated COM
    links, phidot = _link_state(spec, q, qd)
    rel = row_product(links, spec.site_com_padded)
    cx, cy, dvx, dvy = rel[:, len(spec.sites)].reshape(4, n)
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
        links = _link_rows(np.where(keep, k.cos, links[:n]),
                           np.where(keep, k.sin, links[n : 2 * n]), phidot)
        rel = None
    k = Kinematics.of_links(spec, new.root_pos, new.root_vel, links, phidot, rel)
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
    Path(path).write_text(json.dumps(asdict(spec), indent=1) + "\n")


def character_from_json(path: str | Path) -> CharacterSpec:
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


def libm_map(fn, *args: np.ndarray) -> np.ndarray:
    """``fn`` of every element of the 1-D float64 arrays ``args``, one
    libm ``math`` call per element, as an array.  numpy's SIMD
    transcendentals may round differently, and differently on each
    machine; a libm call gives every element the bits of the one-value
    computation.  A memoryview hands ``fn`` one Python float at a time,
    with no list of them all."""
    return np.fromiter(map(fn, *map(memoryview, args)), np.float64, len(args[0]))


def leg_ik_rows(
    hip: np.ndarray, foot: np.ndarray, l1: float, l2: float, root_angle: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Two-link leg inverse kinematics of every row, knee-forward branch.

    ``hip`` and ``foot`` are (n, 2) positions and ``root_angle`` is (n,).
    Returns the (n,) hip and knee joint angles for the rest convention
    where zero joint angles point the leg straight down at zero root
    angle.  A target out of reach is moved along the hip-to-foot line to
    the reachable distance.  The transcendentals are libm ``math`` calls,
    one per row, each function mapped over all rows by ``libm_map``,
    because numpy's SIMD versions may round differently, and differently
    per machine.  ``motion.generate_library`` solves each leg of every
    frame of a clip library in one call, so every row gets the bits of
    the one-row computation.
    """
    v = foot - hip
    dist = row_norms(v)
    d = np.minimum(np.maximum(dist, 1e-6), l1 + l2 - 1e-9)
    cos_a1 = np.minimum(np.maximum((l1 * l1 + d * d - l2 * l2) / (2.0 * l1 * d), -1.0), 1.0)
    phi_u = libm_map(math.atan2, v[:, 1], v[:, 0]) + libm_map(math.acos, cos_a1)
    knee_x = hip[:, 0] + l1 * libm_map(math.cos, phi_u)
    knee_y = hip[:, 1] + l1 * libm_map(math.sin, phi_u)
    tgt = hip + v * (d / np.maximum(dist, 1e-9))[:, None]
    phi_l = libm_map(math.atan2, tgt[:, 1] - knee_y, tgt[:, 0] - knee_x)
    return wrap_angle(phi_u - root_angle + math.pi / 2.0), wrap_angle(phi_l - phi_u)


GUARD_ARMS = {"upper_arm_l": 1.00, "lower_arm_l": 1.70, "upper_arm_r": 0.80, "lower_arm_r": 2.00}
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
    leg = sum(spec.links[spec.link_index[n]].length for n in ("upper_leg_l", "lower_leg_l"))
    rise = math.sqrt(leg**2 - STANCE_HALF_SPAN**2)
    joints = np.zeros(spec.n_joints)
    tilt = math.atan2(STANCE_HALF_SPAN, rise)
    joints[spec.joint("upper_leg_l")] = tilt
    joints[spec.joint("upper_leg_r")] = -tilt
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
