"""Small dense-network toolkit on flat float64 parameter vectors.

Everything is deliberately explicit: forward and backward passes are
hand-written, parameters live in one 1-D array with a fixed layer-major
layout (per layer: weight matrix row-major, then biases), and
``grad_check`` verifies the analytic gradients against central finite
differences.  All math is in 64-bit floats so determinism and gradient
tests stay sharp.

There is one forward (``forward_batch``) and one backward
(``backward_batch``).  A learner passes a ``Tape`` to the forward it
takes the loss from; the tape keeps, per layer, the layer input and the
activation derivative, and the backward reads it instead of running the
network again.  A tape owns the buffers its forwards and backwards work
in and reuses them, so a learner that keeps one tape across minibatches
allocates its working set once.  Without a tape (rollout inference) the
forward computes no derivative and keeps nothing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

ACTIVATIONS = ("silu", "relu")
OUTPUT_ACTIVATIONS = ("none", "tanh")

CKPT_MAGIC = "SLMP-CKPT/1"
_WRITE_CHUNK = 8192  # values formatted per write in the text checkpoint files


@dataclass(frozen=True)
class MlpSpec:
    """Topology of a fully connected network.

    The parameter count is derivable from the spec alone:
    sum of (fan_in + 1) * fan_out over layers.
    """

    input_dim: int
    hidden: tuple[int, ...]
    output_dim: int
    activation: str = "silu"
    output_activation: str = "none"

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        widths = (self.input_dim, *self.hidden, self.output_dim)
        if any(w < 1 for w in widths):
            raise ValueError(f"all widths must be >= 1, got {widths}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"unknown output activation {self.output_activation!r}")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per layer, input to output."""
        widths = (self.input_dim, *self.hidden, self.output_dim)
        return [(widths[i], widths[i + 1]) for i in range(len(widths) - 1)]

    def param_count(self) -> int:
        return sum((fi + 1) * fo for fi, fo in self.layer_dims)


def _activate(
    name: str, z: np.ndarray, d: np.ndarray | None = None, s: np.ndarray | None = None
) -> None:
    """Apply an activation to the pre-activation array ``z`` in place.

    The derivative is written into ``d`` when one is given (a bool mask
    for ReLU; a linear output has none), and the SiLU gate goes into the
    scratch ``s`` when one is given, else into a fresh array.  Each
    in-place step rounds as the plain expressions do: SiLU ``z * s`` with
    ``s = 0.5 * (1 + tanh(0.5 * z))`` and derivative
    ``s * (1 + z * (1 - s))``, tanh derivative ``1 - y * y``.
    """
    if name == "silu":
        s = np.multiply(z, 0.5, out=s)
        np.tanh(s, out=s)
        s += 1.0
        s *= 0.5
        if d is not None:
            np.subtract(1.0, s, out=d)
            d *= z
            d += 1.0
            d *= s
        z *= s
    elif name == "relu":
        if d is not None:
            np.greater(z, 0.0, out=d)
        np.maximum(z, 0.0, out=z)
    elif name == "tanh":
        np.tanh(z, out=z)
        if d is not None:
            np.multiply(z, z, out=d)
            np.subtract(1.0, d, out=d)


def layer_views(spec: MlpSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views (W, b) per layer into the flat parameter vector."""
    if params.shape != (spec.param_count(),):
        raise ValueError(
            f"parameter vector has length {params.shape}, spec needs {spec.param_count()}"
        )
    out = []
    off = 0
    for fi, fo in spec.layer_dims:
        w = params[off : off + fi * fo].reshape(fo, fi)
        off += fi * fo
        b = params[off : off + fo]
        off += fo
        out.append((w, b))
    return out


def init_params(spec: MlpSpec, rng: np.random.Generator) -> np.ndarray:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    params = np.zeros(spec.param_count(), dtype=np.float64)
    for w, _b in layer_views(spec, params):
        fo, fi = w.shape
        bound = math.sqrt(6.0 / (fi + fo))
        w[:] = rng.uniform(-bound, bound, size=(fo, fi))
    return params


def _layer_activation(spec: MlpSpec, layer: int) -> str:
    last = len(spec.layer_dims) - 1
    return spec.output_activation if layer == last else spec.activation


def _grown(bufs: list, i: int, shape: tuple[int, int], dtype=np.float64) -> np.ndarray:
    """A C-contiguous ``shape`` view of buffer ``i``, which is replaced by
    a larger one only when it is too small or of another dtype."""
    n = shape[0] * shape[1]
    while len(bufs) <= i:
        bufs.append(None)
    buf = bufs[i]
    if buf is None or buf.size < n or buf.dtype != dtype:
        buf = bufs[i] = np.empty(n, dtype)
    return buf[:n].reshape(shape)


class Tape:
    """What ``backward_batch`` needs from one 2-D ``forward_batch``, and
    the buffers both work in.

    After a forward, ``inputs`` holds per layer the layer input and
    ``derivs`` the activation derivative at that layer's pre-activation
    (None for a linear output).  The first input is the caller's array
    itself, not a copy; the rest, the derivatives and the forward's
    output are views into buffers the tape owns: one output and one
    derivative buffer per layer, plus two scratch buffers for the SiLU
    gate and the backward's temporaries.  Each buffer grows when rows or
    widths grow and is viewed when they shrink, so one tape serves any
    sequence of networks and batch sizes and reallocates only to grow.

    A taped forward's output is valid until that tape's next forward.
    A tape can serve any number of backwards with different ``grad_out``
    and belongs to the parameters it was recorded with.  Drop it after
    its last backward to release the buffers.
    """

    __slots__ = ("spec", "inputs", "derivs", "outs", "dbufs", "scratch")

    def __init__(self):
        self.spec: MlpSpec | None = None
        self.inputs: list[np.ndarray] = []
        self.derivs: list[np.ndarray | None] = []
        self.outs: list[np.ndarray | None] = []
        self.dbufs: list[np.ndarray | None] = []
        self.scratch: list[np.ndarray | None] = []


def forward_batch(
    spec: MlpSpec, params: np.ndarray, x: np.ndarray, tape: Tape | None = None
) -> np.ndarray:
    """Evaluate the network on a (batch, input_dim) array, or on a stack of
    them shaped (..., batch, input_dim).

    Every 2-D slice of a stack is its own matmul, so each slice gets the
    same bits as a call on that slice alone; in particular a stack of
    1-row slices, ``x[:, None, :]``, reproduces ``mlp_forward`` per row for
    any number of rows.  A 2-D batch does not have that property.

    With a ``tape`` (2-D input only) the forward runs in the tape's
    buffers and records, per layer, the layer input and the activation
    derivative, replacing whatever the tape held; ``backward_batch`` then
    reads it.  The output is then a view into the tape, valid until its
    next forward.  Without a tape the forward computes no derivative,
    keeps nothing and returns a fresh array.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != spec.input_dim:
        raise ValueError(f"expected input shape (*, {spec.input_dim}), got {x.shape}")
    if tape is None:
        h = x
        for l, (w, b) in enumerate(layer_views(spec, params)):
            h = h @ w.T
            h += b
            _activate(_layer_activation(spec, l), h)
        return h
    if x.ndim != 2:
        raise ValueError(f"a taped forward needs a 2-D input, got {x.shape}")
    rows = x.shape[0]
    tape.spec, tape.inputs, tape.derivs = spec, [], []
    h = x
    for l, (w, b) in enumerate(layer_views(spec, params)):
        act = _layer_activation(spec, l)
        shape = (rows, w.shape[0])
        z = np.matmul(h, w.T, out=_grown(tape.outs, l, shape))
        z += b
        tape.inputs.append(h)
        d = None
        if act != "none":
            d = _grown(tape.dbufs, l, shape, bool if act == "relu" else np.float64)
        s = _grown(tape.scratch, 0, shape) if act == "silu" else None
        _activate(act, z, d, s)
        tape.derivs.append(d)
        h = z
    return h


def mlp_forward(spec: MlpSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Single-vector forward pass; pure function of (params, x)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (spec.input_dim,):
        raise ValueError(f"expected input shape ({spec.input_dim},), got {x.shape}")
    return forward_batch(spec, params, x[None, :])[0]


def backward_batch(
    spec: MlpSpec,
    params: np.ndarray,
    x: Tape | np.ndarray,
    grad_out: np.ndarray,
    input_grad: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Gradients of sum(grad_out * f(x)) over a batch.

    ``x`` is either the ``Tape`` of a forward taken with ``params``, or a
    (batch, input_dim) input, for which the taped forward runs here.
    Returns (grad_params, grad_x) with grad_params summed over the batch
    and grad_x per sample, or None for grad_x when not ``input_grad``.
    Both are fresh arrays; the temporaries live in the tape's scratch,
    so the recorded forward stays intact for further backwards.
    """
    if isinstance(x, Tape):
        tape = x
    else:
        tape = Tape()
        forward_batch(spec, params, x, tape)
    if tape.spec != spec:
        raise ValueError("tape was not recorded with this network")
    views = layer_views(spec, params)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    rows = tape.inputs[0].shape[0]
    if grad_out.shape != (rows, spec.output_dim):
        raise ValueError(
            f"expected grad_out shape ({rows}, {spec.output_dim}), got {grad_out.shape}"
        )

    grad_params = np.zeros_like(params)
    gviews = layer_views(spec, grad_params)
    g = grad_out
    # gz lives in scratch[k]; the other scratch takes the weight-gradient
    # product and then the next layer's g, which that layer multiplies in place
    k = 0
    for l in range(len(views) - 1, -1, -1):
        w = views[l][0]
        d = tape.derivs[l]
        if d is None:
            gz = g
        elif g is grad_out:
            gz = np.multiply(g, d, out=_grown(tape.scratch, k, g.shape))
        else:
            gz = np.multiply(g, d, out=g)
        gw, gb = gviews[l]
        free = _grown(tape.scratch, 1 - k, w.shape)
        gw += np.matmul(gz.T, tape.inputs[l], out=free)
        gb += gz.sum(axis=0)
        if l > 0:
            k = 1 - k
            g = np.matmul(gz, w, out=_grown(tape.scratch, k, (rows, w.shape[1])))
        elif input_grad:
            return grad_params, gz @ w
    return grad_params, None


def mlp_backward(
    spec: MlpSpec, params: np.ndarray, x: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Single-vector analytic gradients of grad_out . f(x)."""
    x = np.asarray(x, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    gp, gx = backward_batch(spec, params, x[None, :], grad_out[None, :])
    return gp, gx[0]


def grad_check(
    spec: MlpSpec,
    params: np.ndarray,
    x: np.ndarray,
    step: float = 1e-5,
    probe: np.ndarray | None = None,
    max_components: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative discrepancy between analytic and central-difference grads.

    The scalar under test is probe . f(x) (probe defaults to all ones).
    For large networks a seeded subset of parameter components can be
    checked via ``max_components``; input gradients are always checked in
    full.
    """
    x = np.asarray(x, dtype=np.float64)
    if probe is None:
        probe = np.ones(spec.output_dim)
    gp, gx = mlp_backward(spec, params, x, probe)

    def scalar_p(p):
        return float(probe @ mlp_forward(spec, p, x))

    def scalar_x(xv):
        return float(probe @ mlp_forward(spec, params, xv))

    idx = np.arange(params.size)
    if max_components is not None and max_components < params.size:
        r = rng if rng is not None else np.random.default_rng(0)
        idx = r.choice(params.size, size=max_components, replace=False)

    worst = 0.0
    for i in idx:
        p = params.copy()
        p[i] += step
        hi = scalar_p(p)
        p[i] -= 2.0 * step
        lo = scalar_p(p)
        fd = (hi - lo) / (2.0 * step)
        worst = max(worst, _rel_err(gp[i], fd))
    for i in range(x.size):
        xv = x.copy()
        xv[i] += step
        hi = scalar_x(xv)
        xv[i] -= 2.0 * step
        lo = scalar_x(xv)
        fd = (hi - lo) / (2.0 * step)
        worst = max(worst, _rel_err(gx[i], fd))
    return worst


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-4)


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_init(n: int, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    return AdamState(np.zeros(n), np.zeros(n), 0, lr, beta1, beta2, eps)


def adam_step(
    params: np.ndarray, grads: np.ndarray, state: AdamState
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns fresh arrays."""
    if not params.shape == grads.shape == state.m.shape == state.v.shape:
        raise ValueError("params, grads and Adam state must have equal lengths")
    if not np.all(np.isfinite(grads)):
        raise FloatingPointError("non-finite gradient component, update aborted")
    t = state.t + 1
    # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g;
    # new = params - lr * mhat / (sqrt(vhat) + eps), each product and sum
    # rounded in that order, in place in the returned arrays and one temporary
    tmp = np.multiply(grads, 1.0 - state.beta1)
    m = np.multiply(state.m, state.beta1)
    m += tmp
    np.multiply(grads, 1.0 - state.beta2, out=tmp)
    tmp *= grads
    v = np.multiply(state.v, state.beta2)
    v += tmp
    new = np.divide(m, 1.0 - state.beta1**t)
    new *= state.lr
    np.divide(v, 1.0 - state.beta2**t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += state.eps
    new /= tmp
    np.subtract(params, new, out=new)
    return new, replace(state, m=m, v=v, t=t)


def _write_lines(path: str | Path, head: list[str], *arrays: np.ndarray) -> None:
    """Write the ``head`` lines, then every value of ``arrays`` as its
    exact ``repr``, one per line.  Values are formatted a chunk at a time,
    so no list of strings for a whole array is ever held."""
    with open(path, "w") as f:
        f.write("\n".join(head) + "\n")
        for a in arrays:
            a = np.asarray(a, dtype=np.float64)
            for lo in range(0, a.size, _WRITE_CHUNK):
                f.write("\n".join(map(repr, a[lo : lo + _WRITE_CHUNK].tolist())) + "\n")


def adam_state_save(path: str | Path, state: AdamState) -> None:
    head = [
        "SLMP-ADAM/1",
        f"t={state.t}",
        f"lr={state.lr!r}",
        f"beta1={state.beta1!r}",
        f"beta2={state.beta2!r}",
        f"eps={state.eps!r}",
        f"count={state.m.size}",
    ]
    _write_lines(path, head, state.m, state.v)


def adam_state_load(path: str | Path) -> AdamState:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "SLMP-ADAM/1":
        raise ValueError(f"{path}: not an optimizer state file")
    head = dict(l.split("=", 1) for l in lines[1:7])
    n = int(head["count"])
    vals = np.array([float(v) for v in lines[7 : 7 + 2 * n]])
    if vals.size != 2 * n:
        raise ValueError(f"{path}: expected {2 * n} moment values, got {vals.size}")
    return AdamState(
        m=vals[:n],
        v=vals[n:],
        t=int(head["t"]),
        lr=float(head["lr"]),
        beta1=float(head["beta1"]),
        beta2=float(head["beta2"]),
        eps=float(head["eps"]),
    )


def save_checkpoint(
    path: str | Path, name: str, spec: MlpSpec, values: np.ndarray, extra: int = 0
) -> None:
    """Write a network checkpoint as plain text.

    ``values`` holds the MLP parameters in layout order, optionally
    followed by ``extra`` trailing learnable scalars (e.g. a policy's
    log-std vector).
    """
    expected = spec.param_count() + extra
    if values.shape != (expected,):
        raise ValueError(f"checkpoint for {name}: got {values.shape}, expected ({expected},)")
    head = [
        CKPT_MAGIC,
        f"name={name}",
        f"input={spec.input_dim}",
        "hidden=" + ",".join(str(h) for h in spec.hidden),
        f"output={spec.output_dim}",
        f"act={spec.activation}",
        f"out_act={spec.output_activation}",
        f"extra={extra}",
        f"count={values.size}",
    ]
    _write_lines(path, head, values)


def load_checkpoint(path: str | Path) -> tuple[str, MlpSpec, np.ndarray, int]:
    """Read a checkpoint; returns (name, spec, values, extra)."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CKPT_MAGIC:
        raise ValueError(f"{path}: missing {CKPT_MAGIC} magic")
    head = {}
    for l in lines[1:9]:
        k, _, v = l.partition("=")
        head[k] = v
    hidden = tuple(int(h) for h in head["hidden"].split(",") if h)
    spec = MlpSpec(
        input_dim=int(head["input"]),
        hidden=hidden,
        output_dim=int(head["output"]),
        activation=head["act"],
        output_activation=head["out_act"],
    )
    extra = int(head["extra"])
    count = int(head["count"])
    vals = np.array([float(v) for v in lines[9 : 9 + count]], dtype=np.float64)
    if vals.size != count or count != spec.param_count() + extra:
        raise ValueError(f"{path}: parameter count mismatch")
    return head["name"], spec, vals, extra
