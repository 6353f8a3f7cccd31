"""Reference check of the simulator and the MLP kernels on fixed inputs.

``compute()`` steps one character and a pair of characters in contact
for a few control steps and runs ``forward_batch``/``backward_batch`` on
seeded networks.  ``check()`` compares the results with
``reference.json``, which was recorded from the unmodified code with

    python3 perfbench/gate.py record

Values must agree within ``RTOL`` relative and ``ATOL`` absolute.  The
tolerance admits last-digit differences between BLAS builds and nothing
an actual change of the arithmetic would produce.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from checkout import use_checkout_source

use_checkout_source()

from slmp import nets  # noqa: E402
from slmp import physics as ph  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference.json"
RTOL = 1e-7
ATOL = 1e-9
CONTROL_STEPS = 8


def _state_vector(state: ph.SimState) -> list[float]:
    return [float(v) for v in np.concatenate([
        state.root_pos, [state.root_angle], state.joint_angles,
        state.root_vel, [state.root_ang_vel], state.joint_vels,
    ])]


def _one_character() -> dict:
    spec = ph.default_character()
    phys = ph.default_config(spec)
    state = ph.nominal_stance(spec, phys)
    out = []
    for k in range(CONTROL_STEPS):
        targets = state.joint_angles + 0.2 * np.sin(np.arange(spec.n_joints) + k)
        states, reports = ph.step_world([state], [spec], None, phys.dt, phys, pd_targets=[targets])
        state = states[0]
        out.append(_state_vector(state) + [float(f) for f in reports[0].site_force])
    return {"steps": out, "valid": bool(state.valid)}


def _two_characters() -> dict:
    """Fighters one metre apart raising their arms into each other."""
    spec = ph.default_character()
    phys = ph.default_config(spec)
    states = [ph.nominal_stance(spec, phys), ph.mirror_state(ph.nominal_stance(spec, phys))]
    for s, x in zip(states, (-0.5, 0.5)):
        s.root_pos[0] += x
        s.anchor_x += x
    targets = states[0].joint_angles.copy()
    targets[[0, 2]] = 1.0  # both shoulders
    out = []
    for _ in range(CONTROL_STEPS):
        states, reports = ph.step_world(
            states, [spec, spec], None, phys.dt, phys, pd_targets=[targets, -targets]
        )
        row = []
        for s, r in zip(states, reports):
            row += _state_vector(s) + [float(f) for f in r.site_opponent]
        out.append(row)
    return {
        "steps": out,
        "valid": all(s.valid for s in states),
        "contact": bool(max(max(r[-len(spec.sites):]) for r in out) > 0.0),
    }


def _mlp(activation: str, output_activation: str, seed: int) -> dict:
    spec = nets.MlpSpec(6, (16, 8), 3, activation, output_activation)
    rng = np.random.default_rng(seed)
    params = nets.init_params(spec, rng)
    params += 0.1 * rng.standard_normal(params.size)  # non-zero biases
    out = {}
    for rows in (1, 7):
        x = rng.standard_normal((rows, spec.input_dim))
        g = rng.standard_normal((rows, spec.output_dim))
        y = nets.forward_batch(spec, params, x)
        gp, gx = nets.backward_batch(spec, params, x, g)
        out[f"rows{rows}"] = {
            "forward": y.ravel().tolist(),
            "grad_params": gp.tolist(),
            "grad_x": gx.ravel().tolist(),
        }
    return out


def compute() -> dict:
    return {
        "step_world_1char": _one_character(),
        "step_world_2char": _two_characters(),
        "mlp_silu": _mlp("silu", "none", 11),
        "mlp_relu_tanh": _mlp("relu", "tanh", 12),
    }


def _compare(path: str, got, want, problems: list[str]) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            problems.append(f"{path}: keys differ")
            return
        for k in want:
            _compare(f"{path}.{k}", got[k], want[k], problems)
    elif isinstance(want, list):
        g = np.asarray(got, dtype=np.float64)
        w = np.asarray(want, dtype=np.float64)
        if g.shape != w.shape:
            problems.append(f"{path}: shape {g.shape} != {w.shape}")
        elif not np.all(np.isfinite(g)):
            problems.append(f"{path}: non-finite values")
        elif not np.allclose(g, w, rtol=RTOL, atol=ATOL):
            worst = float(np.max(np.abs(g - w)))
            problems.append(f"{path}: max abs difference {worst:.3e}")
    elif got != want:
        problems.append(f"{path}: {got!r} != {want!r}")


def check() -> list[str]:
    """Problems found against the recorded reference; empty when it passes."""
    want = json.loads(REFERENCE.read_text())
    problems: list[str] = []
    _compare("reference", compute(), want, problems)
    return problems


def main(argv: list[str]) -> int:
    if argv == ["record"]:
        REFERENCE.write_text(json.dumps(compute()) + "\n")
        print(f"wrote {REFERENCE}")
        return 0
    if argv:
        print("usage: gate.py [record]", file=sys.stderr)
        return 2
    problems = check()
    for p in problems:
        print(p)
    print("reference check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
