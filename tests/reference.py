"""Per-state helpers for the tests.

The package steps and observes rows of a ``physics.World`` only.  The
tests still phrase many checks on one ``SimState`` at a time; these
helpers give them that form.  The kinematic quantities come from
``physics.KinFrame``, whose matmul formulas are independent of the row
kinematics under test.
"""
import math

import numpy as np

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
