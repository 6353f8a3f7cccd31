"""Small dense-network toolkit on flat float64 parameter vectors.

Everything is deliberately explicit: forward and backward passes are
hand-written, parameters live in one 1-D array with a fixed layer-major
layout (per layer: weight matrix row-major, then biases), and
``grad_check`` verifies the analytic gradients against central finite
differences.  Parameters, optimiser states and checkpoints are float64.
Learners compute in float32 (``LEARN_DTYPE``) over those float64 master
weights: their tapes cast the weights and inputs, and add the gradients
back into float64.  Rollouts (``RowNet``), ``grad_check`` and every
untaped call compute in float64, so rollout bits and the gradient tests
stay sharp.

Learners use one forward (``forward_batch``) and one backward
(``backward_batch``), both on rows: a (batch, input_dim) array.  A
learner passes a ``Tape`` to the forward it takes the loss from; the tape
keeps, per layer, the layer input and the activation derivative, and the
backward reads it instead of running the network again.  A tape owns the
buffers its forwards and backwards work in and reuses them, so a learner
that keeps one tape across minibatches allocates its working set once.

The row rule: ``row_product(x, w)`` with ``w`` an (in, out) matrix
stored C-contiguous and zero-padded to a multiple of ``ROW_TILE`` output
columns (``pad_columns``) is one 2-D ``x @ w``, with a 1-row ``x``
multiplied as 2 rows.  It gives every row the same bits for any number
of rows, any row order and any batch split.  This is a property of the
BLAS kernels (one micro-kernel path per row when no output width leaves
a remainder tile; a 1-row product goes to gemv instead), not a numpy
guarantee; ``tests/test_nets.py`` guards it for every repo network and
every padded matrix of the physics.  Rollouts use a ``RowNet``, built
once per parameter version: the same network with every layer's weight
padded that way, so each layer is one row product, and ``physics`` runs
its per-row contractions on it too.

Checkpoints, Adam states, clips, ``envs.txt`` and sphere clouds are text
tables (``write_table``/``read_table``): a header, then one line per row
of space-separated values.  Each file kind declares its header once, as
a schema: a magic line (or None) and an ordered ``key -> kind`` map
(``CHECKPOINT``, ``ADAM``, ``motion.CLIP``, ``tracking.ENVS``,
``evaluate.CLOUD``).  The header rule: a line is ``key=value``, the value
spelt as ``repr`` of what its kind converts it to, comma-joined for a
tuple, a string as is and printable ASCII; an ``int`` is a count, not
negative (a ``signed`` may be).  Only a value that reads back equal is
written, and only that spelling is read.  Each row value is one
fixed-width, 24-character C99 ``%a`` token, ``[+-]0x[01].<13 lower-case
hex digits>p[+-]<4 decimal digits>``: the sign, lead bit, 52 stored
significand bits and unbiased exponent (lead 0 and -1022 for zero and
the subnormals).  So a token holds a double's bits, one spelling per
double, which ``float.fromhex`` and C ``strtod`` read; none spells inf
or NaN.  The fixed width lets whole chunks of rows be encoded and
decoded with uint8 array arithmetic, with no Python call per value, by
one check (``_decode``) that is the table's only grammar.
"""
from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

ACTIVATIONS = ("silu", "relu")
OUTPUT_ACTIVATIONS = ("none", "tanh")

CKPT_MAGIC = "SLMP-CKPT/2"
ADAM_MAGIC = "SLMP-ADAM/2"
ROW_TILE = 8  # pad_columns pads every output width to a multiple of this
LEARN_DTYPE = np.float32  # compute dtype of every learner's tapes
_GRAD_FLOOR = 2.0**-40  # scaled grad_out entries below this are zeroed on a float32 tape
_WRITE_CHUNK = 8192  # values encoded per write in the text table files
# values decoded per read: 1/_READ_SHARE of the table, so that a reader's
# working set stays a fraction of the array it fills, within these bounds
_READ_MIN, _READ_CHUNK, _READ_SHARE = 256, 4096, 16
# tables are read as ASCII text in which each other byte stands for itself
# as a lone surrogate: no byte fails to decode, and none reads as a digit or space
_TEXT = {"encoding": "ascii", "errors": "surrogateescape"}
_SPACE = " \t\n\r\x0b\x0c"  # the layout's whitespace; Python's adds 0x1c-0x1f


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
    the buffers both work in, in the tape's compute ``dtype``.

    After a forward, ``weights`` holds per layer the (W, b) it computed
    with, ``inputs`` the layer input and ``derivs`` the activation
    derivative at that layer's pre-activation (None for a linear output).
    On a float64 tape the weights are views of the parameters and the
    first input is the caller's array itself, not a copy; on another
    dtype both are cast once per forward.  The rest of the inputs, the
    derivatives and the forward's output are views into buffers the tape
    owns: one output and one derivative buffer per layer, plus two
    scratch buffers for the SiLU gate and the backward's temporaries.
    Each buffer grows when rows or widths grow and is viewed when they
    shrink, so one tape serves any sequence of networks and batch sizes
    and reallocates only to grow.

    A float32 tape (``LEARN_DTYPE``) scales each backward's ``grad_out``
    by a power of two, 2**k with its largest magnitude in [0.5, 1), and
    zeroes the entries that then lie below 2**-40, before it is cast;
    the float64 gradients are scaled back by 2**-k, which is exact.  So
    small gradients do not underflow float32 into subnormals or zero.  A
    non-finite ``grad_out`` is cast unscaled, and the non-finite values
    reach the gradients.

    A taped forward's output, in the tape's dtype, is valid until that
    tape's next forward.  A tape can serve any number of backwards with
    different ``grad_out`` and belongs to the parameters it was recorded
    with.  Drop it after its last backward to release the buffers.
    """

    __slots__ = ("dtype", "spec", "weights", "inputs", "derivs", "outs", "dbufs", "scratch")

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self.spec: MlpSpec | None = None
        self.weights: list[tuple[np.ndarray, np.ndarray]] = []
        self.inputs: list[np.ndarray] = []
        self.derivs: list[np.ndarray | None] = []
        self.outs: list[np.ndarray | None] = []
        self.dbufs: list[np.ndarray | None] = []
        self.scratch: list[np.ndarray | None] = []


def forward_batch(
    spec: MlpSpec, params: np.ndarray, x: np.ndarray, tape: Tape | None = None
) -> np.ndarray:
    """Evaluate the network on a (batch, input_dim) array.

    A row's bits may depend on the batch size; rollouts, which need them
    not to, use a ``RowNet``.  With a ``tape`` the forward runs in the
    tape's dtype and buffers and records, per layer, the weights, the
    layer input and the activation derivative, replacing whatever the
    tape held; ``backward_batch`` then reads it.  The output is then a
    view into the tape, valid until its next forward.  Without a tape the
    forward runs on a fresh float64 tape, which is dropped, so the output
    is an array no one else holds.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ValueError(f"expected input shape (rows, {spec.input_dim}), got {x.shape}")
    tape = Tape() if tape is None else tape
    rows, dtype = x.shape[0], tape.dtype
    tape.spec, tape.inputs, tape.derivs = spec, [], []
    tape.weights = layer_views(spec, params.astype(dtype, copy=False))
    h = x.astype(dtype, copy=False)
    for l, (w, b) in enumerate(tape.weights):
        act = _layer_activation(spec, l)
        shape = (rows, w.shape[0])
        z = np.matmul(h, w.T, out=_grown(tape.outs, l, shape, dtype))
        z += b
        tape.inputs.append(h)
        d = None
        if act != "none":
            d = _grown(tape.dbufs, l, shape, bool if act == "relu" else dtype)
        s = _grown(tape.scratch, 0, shape, dtype) if act == "silu" else None
        _activate(act, z, d, s)
        tape.derivs.append(d)
        h = z
    return h


def pad_columns(m: np.ndarray, rows: int | None = None) -> np.ndarray:
    """A C-contiguous copy of the (in, out) matrix ``m`` with zero columns
    appended up to a multiple of ``ROW_TILE``, and zero rows up to
    ``rows`` when given: a matrix for ``row_product``."""
    fi, fo = m.shape
    p = np.zeros((fi if rows is None else rows, -(-fo // ROW_TILE) * ROW_TILE))
    p[:fi, :fo] = m
    return p


def row_product(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for the (rows, in) array ``x`` and a ``pad_columns``
    matrix ``w``, under the row rule (module docstring): a 1-row ``x`` is
    multiplied as 2 rows, and the result has all of ``w``'s columns."""
    if len(x) == 1:
        return (np.concatenate([x, x]) @ w)[:1]
    return x @ w


class RowNet:
    """The rollout forward of one parameter version of a network.

    Each layer's weight is a ``pad_columns`` matrix, C-contiguous (in,
    out) with its output width zero-padded to a multiple of ``ROW_TILE``
    (zero weight columns and biases; the next layer's matching input rows
    are zero too), and each layer is one ``row_product``.  A
    padded unit stays exactly 0 under SiLU, ReLU and tanh, so the padding
    changes no real output.  ``net(x)`` on a (rows, input_dim) array
    returns the fresh (rows, output_dim) output, and a row's bits do not
    depend on the other rows or their number (see the module docstring).

    ``params`` is the flat parameter vector, followed by ``extra``
    trailing values that the forward does not use (a policy's log-std, as
    in a checkpoint); ``extra`` holds a copy of them.
    """

    __slots__ = ("spec", "layers", "extra")

    def __init__(self, spec: MlpSpec, params: np.ndarray, extra: int = 0):
        n = spec.param_count()
        if params.shape != (n + extra,):
            raise ValueError(f"parameter vector has length {params.shape}, spec needs {n} + {extra}")
        self.spec = spec
        self.extra = params[n:].copy()
        self.layers = []
        width = spec.input_dim
        for l, (w, b) in enumerate(layer_views(spec, params[:n])):
            wp = pad_columns(w.T, width)
            width = wp.shape[1]
            bp = np.zeros(width)
            bp[: len(b)] = b
            self.layers.append((wp, bp, _layer_activation(spec, l)))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.spec.input_dim:
            raise ValueError(f"expected input shape (rows, {self.spec.input_dim}), got {x.shape}")
        h = x
        for w, b, act in self.layers:
            h = row_product(h, w)
            h += b
            _activate(act, h)
        return np.ascontiguousarray(h[:, : self.spec.output_dim])


def backward_batch(
    spec: MlpSpec,
    params: np.ndarray,
    x: Tape | np.ndarray,
    grad_out: np.ndarray,
    input_grad: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Gradients of sum(grad_out * f(x)) over a batch.

    ``x`` is either the ``Tape`` of a forward taken with ``params``, or a
    (batch, input_dim) input, for which a float64 taped forward runs
    here.  Returns (grad_params, grad_x) with grad_params summed over the
    batch and grad_x per sample, or None for grad_x when not
    ``input_grad``.  Both are fresh float64 arrays.  The backward
    computes in the tape's dtype, with the gradient scaling described
    under ``Tape`` on a float32 one; its temporaries live in the tape's
    scratch, so the recorded forward stays intact for further backwards.
    """
    if isinstance(x, Tape):
        tape = x
    else:
        tape = Tape()
        forward_batch(spec, params, x, tape)
    if tape.spec != spec:
        raise ValueError("tape was not recorded with this network")
    grad_out = np.asarray(grad_out, dtype=np.float64)
    rows = tape.inputs[0].shape[0]
    if grad_out.shape != (rows, spec.output_dim):
        raise ValueError(
            f"expected grad_out shape ({rows}, {spec.output_dim}), got {grad_out.shape}"
        )
    dtype, k = tape.dtype, 0
    if dtype != np.float64:
        peak = float(np.abs(grad_out).max(initial=0.0))
        if math.isfinite(peak):
            k = -math.frexp(peak)[1]
            grad_out = np.ldexp(grad_out, k)
            grad_out[np.abs(grad_out) < _GRAD_FLOOR] = 0.0
        grad_out = grad_out.astype(dtype)

    grad_params = np.zeros_like(params)
    gviews = layer_views(spec, grad_params)
    g = grad_out
    gx = None
    # gz lives in scratch[i]; the other scratch takes the weight-gradient
    # product and then the next layer's g, which that layer multiplies in place
    i = 0
    for l in range(len(tape.weights) - 1, -1, -1):
        w = tape.weights[l][0]
        d = tape.derivs[l]
        if d is None:
            gz = g
        elif g is grad_out:
            gz = np.multiply(g, d, out=_grown(tape.scratch, i, g.shape, dtype))
        else:
            gz = np.multiply(g, d, out=g)
        gw, gb = gviews[l]
        free = _grown(tape.scratch, 1 - i, w.shape, dtype)
        gw += np.matmul(gz.T, tape.inputs[l], out=free)
        gb += gz.sum(axis=0)
        if l > 0:
            i = 1 - i
            g = np.matmul(gz, w, out=_grown(tape.scratch, i, (rows, w.shape[1]), dtype))
        elif input_grad:
            gx = np.asarray(gz @ w, dtype=np.float64)
    if k:
        np.ldexp(grad_params, -k, out=grad_params)
        if gx is not None:
            np.ldexp(gx, -k, out=gx)
    return grad_params, gx


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

    The scalar under test is probe . f(x) for one input vector ``x``, run
    as a 1-row batch (probe defaults to all ones).
    For large networks a seeded subset of parameter components can be
    checked via ``max_components``; input gradients are always checked in
    full.
    """
    x = np.asarray(x, dtype=np.float64)
    probe = np.ones(spec.output_dim) if probe is None else probe
    gp, gx = backward_batch(spec, params, x[None], probe[None])
    idx = np.arange(params.size)
    if max_components is not None and max_components < params.size:
        r = rng if rng is not None else np.random.default_rng(0)
        idx = r.choice(params.size, size=max_components, replace=False)

    def scalar(p: np.ndarray, xv: np.ndarray) -> float:
        return float(probe @ forward_batch(spec, p, xv[None])[0])

    def central(f: Callable[[np.ndarray], float], v: np.ndarray, i: int) -> float:
        v = v.copy()
        v[i] += step
        hi = f(v)
        v[i] -= 2.0 * step
        return (hi - f(v)) / (2.0 * step)

    errs = [_rel_err(gp[i], central(lambda p: scalar(p, x), params, i)) for i in idx]
    errs += [_rel_err(gx[0, i], central(lambda xv: scalar(params, xv), x, i)) for i in range(x.size)]
    return max([0.0, *errs])


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


def _exponent_rows() -> np.ndarray:
    """(2048, 25) uint8: per biased exponent, the token of the positive
    value with that exponent and a zero significand, then a space.  Row 0
    spells zero and the subnormals; row 2047 (inf, NaN) is never written."""
    rows = [f"+0x{min(b, 1)}.{'0' * 13}p{max(b, 1) - 1023:+05d} " for b in range(2047)]
    return np.frombuffer("".join(rows + ["?" * 25]).encode(), np.uint8).reshape(2048, 25)


_EXPONENT_ROWS = _exponent_rows()
# Per token byte (sign, "0", "x", lead, ".", 13 hex digits, "p", sign, 4
# decimal digits, separator): the bits that must equal those of _WANT.
# Under 0xF9 a sign ("+" or "-") reads as ")"; so do ")" and "/", which
# the sign test refuses.  Under 0xF0 a digit reads as "0".
_MASK = np.array([0xF9, 0xFF, 0xFF, 0xFE, 0xFF, *[0] * 13, 0xFF, 0xF9, *[0xF0] * 4, 0xFF], np.uint8)
_WANT = np.frombuffer(b")0x0." + bytes(13) + b"p)0000 ", np.uint8)
_PLACES = np.array([1000, 100, 10, 1], np.int16)


def _encode(values: np.ndarray) -> np.ndarray | None:
    """The (rows, W, 25) uint8 text of the (rows, W) float64 ``values``:
    per value its token and a space, a newline after each row's last.
    None when a value is not finite."""
    b = values.astype(">f8").view(np.uint8).reshape(*values.shape, 8)
    biased = (b[..., 0] & 0x7F).astype(np.uint16) << 4
    biased |= b[..., 1] >> 4
    if (biased == 2047).any():
        return None
    out = np.take(_EXPONENT_ROWS, biased, axis=0, mode="clip")
    out[..., 0] += (b[..., 0] >> 7) << 1  # "+" -> "-"
    out[..., -1, 24] = 10
    nib = out[..., 5:18]
    nib[..., 0] = b[..., 1] & 0x0F
    np.right_shift(b[..., 2:], 4, out=nib[..., 1::2])
    np.bitwise_and(b[..., 2:], 0x0F, out=nib[..., 2::2])
    nib += 48 + 39 * (nib > 9).view(np.uint8)
    return out


def _decode(raw: bytes, out: np.ndarray, want: np.ndarray) -> bool:
    """Decode the ``len(out)`` lines of tokens in ``raw`` into the (rows, W)
    ``out``.  False, with ``out`` partly written, unless every byte is as
    ``_encode`` spells it; ``want`` is ``_WANT`` per column of a row."""
    rows, width = out.shape
    if len(raw) != rows * width * 25:
        return False
    t = np.frombuffer(raw, np.uint8).reshape(rows, width, 25)
    check = t & _MASK
    check ^= want
    if check.any():
        return False
    del check
    signs = t[..., [0, 19]]
    digits = t[..., 20:24] & 0x0F
    if not ((signs == 43) | (signs == 45)).all() or (digits > 9).any():
        return False
    nib = t[..., 5:18] - 48  # "0"-"9" -> 0-9, "a"-"f" -> 49-54
    letter = nib > 9
    nib -= 39 * letter.view(np.uint8)
    letter &= nib < 10
    if letter.any() or nib.max() > 15:
        return False
    magnitude = digits @ _PLACES
    negative = signs[..., 1] == 45  # "+" is 43, "-" is 45
    biased = np.where(negative, 1023 - magnitude, 1023 + magnitude)
    lead = t[..., 3] == 49
    # lead 1 takes the exponents -1022..1023, lead 0 only -1022; 0 is "+0000"
    bad_exponent = np.where(lead, (biased < 1) | (biased > 2046), biased != 1)
    if (bad_exponent | negative & (magnitude == 0)).any():
        return False
    biased *= lead
    b = np.empty((rows, width, 8), np.uint8)
    b[..., 0] = (signs[..., 0] - 43) << 6 | biased >> 4
    b[..., 1] = (biased & 0x0F) << 4 | nib[..., 0]
    b[..., 2:] = nib[..., 1::2] << 4 | nib[..., 2::2]
    out[:] = b.view(">f8")[..., 0]
    return True


def _parse_chunk(f, raw: bytes, chunk: np.ndarray, ln: int, want: np.ndarray) -> None:
    """Decode the rows of a chunk that ``_decode`` refused into ``chunk``
    once more, with the rest of a cut last line read from ``f`` and a
    missing final newline added; if that fails too, the first bad line,
    numbered from ``ln`` + 1, raises ``line k: ...``.  The lines above the
    first one of a bad layout decode in one ``_decode``, bisected only when
    that fails, so a refusal costs a few decodes."""
    text = raw.decode(**_TEXT)
    if not text.endswith("\n"):
        text = (text + f.readline()).rstrip("\n") + "\n"
        if _decode(text.encode(**_TEXT), chunk, want):
            return
    lines, width = (text.split("\n") + [""] * len(chunk))[: len(chunk)], chunk.shape[1]

    def layout(line: str) -> str | None:
        parts = line.split()
        if len(parts) != width:
            return f"expected {width} values, got {len(parts)}"
        return None if " ".join(parts) == line else "values must be separated by single spaces"

    def decodes(lo: int, hi: int) -> bool:
        return _decode("".join(f"{s}\n" for s in lines[lo:hi]).encode(**_TEXT), chunk[lo:hi], want)

    k, why = next(((j, w) for j, w in enumerate(map(layout, lines)) if w), (len(chunk), None))
    if k and not decodes(0, k):
        lo, hi = 0, k  # the lines above lo decode, and lo:hi holds a bad one
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if decodes(lo, mid) else (lo, mid)
        bad = next(p for p in lines[lo].split()
                   if not _decode(f"{p}\n".encode(**_TEXT), np.empty((1, 1)), want[-1:]))
        k, why = lo, f"not a table value: {bad!r}"
    if why:
        raise ValueError(f"line {ln + k + 1}: {why}")


def _ints(text: str) -> tuple[int, ...]:
    """Header kind of comma-separated widths (``hidden=``)."""
    return tuple(int(h) for h in text.split(",") if h)


def signed(text: str) -> int:
    """Header kind of an int that may be negative; an ``int`` is a count."""
    return int(text)


def _spelling(value) -> str:
    if isinstance(value, str):
        return value
    return ",".join(map(repr, value)) if isinstance(value, tuple) else repr(value)


def _head_value(key: str, text: str | None, kind: Callable):
    """Header value ``text`` of ``key`` converted by ``kind``, refused by
    key if missing (None) or not in the header rule (module docstring)."""
    if text is None:
        raise ValueError(f"header has no {key!r} line")
    try:
        value = kind(text)
        if kind is str and not (text.isascii() and text.isprintable()):
            raise ValueError("not printable ASCII")
        if _spelling(value) != text:
            raise ValueError(f"expected the written spelling {_spelling(value)!r}")
        if kind is int and value < 0:
            raise ValueError("negative")
    except ValueError as e:
        raise ValueError(f"header line {key}={text!r}: {e}") from None
    return value


CHECKPOINT = (CKPT_MAGIC, {"name": str, "input": int, "hidden": _ints, "output": int,
                           "act": str, "out_act": str, "extra": int, "count": int})
ADAM = (ADAM_MAGIC, {"t": int, "lr": float, "beta1": float, "beta2": float, "eps": float,
                     "count": int})


def write_table(path: str | Path, schema: tuple, head: dict, rows: np.ndarray) -> None:
    """Write the ``schema`` header of the values ``head``, then one line
    per row of the (N,) or (N, W) array ``rows``: each value's token,
    space-separated.  A header value that would not read back equal is
    refused by file and key (a number is written as its kind's value:
    ``lr=1.0`` for an ``lr`` of 1), a non-finite row value by file and
    line.  Rows are encoded ``_WRITE_CHUNK`` values at a time into a
    sibling ``.tmp`` file, which then replaces ``path``: a failed write
    leaves the previous file as it was and no temporary file.
    """
    magic, kinds = schema
    lines = [] if magic is None else [magic]
    for key, kind in kinds.items():
        value = head[key]
        try:
            text = _spelling(value if isinstance(value, (str, tuple)) else kind(value))
            if _head_value(key, text, kind) != value:
                raise ValueError(f"header line {key}={text!r}: does not read back as {value!r}")
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
        lines.append(f"{key}={text}")
    rows = np.asarray(rows, dtype=np.float64)
    table = rows[:, None] if rows.ndim == 1 else rows
    step = max(_WRITE_CHUNK // max(table.shape[1], 1), 1)
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(("\n".join(lines) + "\n").encode())
            for lo in range(0, len(table), step):
                text = _encode(table[lo : lo + step])
                if text is None:
                    bad = lo + int(np.argmin(np.isfinite(table[lo : lo + step]).all(axis=1)))
                    raise ValueError(f"{path}: line {len(lines) + bad + 1}: a non-finite value "
                                     "cannot be written")
                f.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_table(path: str | Path, schema: tuple,
               shape: Callable[[dict], tuple[int, int]]) -> tuple[dict, np.ndarray]:
    """Read a text table, the one layout of every file the pipeline reads
    back: the ``schema`` header, ``n`` rows of ``width`` values joined by
    single spaces, then nothing but whitespace (``_SPACE``).
    Keys parse in schema order, the first missing or bad one refused; then
    ``shape(head)`` checks the values and returns ``(n, width)``.  Returns
    the header and the (n,) values at width 1, else an (n, width) array.

    The file is read as ASCII text (``_TEXT``), so CRLF line ends read
    the same and a byte outside ASCII is refused like any other bad byte.
    The rows stream in chunks into the one result array, so no list of
    the file's lines is ever held.  ``_decode``, the one check that
    accepts a token, checks and decodes whole chunks; a refused one goes
    to ``_parse_chunk`` to name its first bad line.  Every refusal is a
    ``ValueError`` that names the file and the line or key.
    """
    magic, kinds = schema
    with open(path, **_TEXT) as f:
        if magic is not None and f.readline().rstrip("\n") != magic:
            raise ValueError(f"{path}: line 1: expected {magic}")
        text = dict(line.rstrip("\n").partition("=")[::2] for line in itertools.islice(f, len(kinds)))
        ln = (magic is not None) + len(kinds)
        try:
            head = {k: _head_value(k, text.get(k), kind) for k, kind in kinds.items()}
            n, width = shape(head)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from e
        rows = np.empty((n, width))
        want = np.tile(_WANT, (width, 1))
        want[-1, 24] = 10
        step = max(min(max(rows.size // _READ_SHARE, _READ_MIN), _READ_CHUNK) // width, 1)
        for lo in range(0, n, step):
            chunk = rows[lo : lo + step]
            raw = f.read(chunk.size * 25).encode(**_TEXT)
            if not _decode(raw, chunk, want):
                try:
                    _parse_chunk(f, raw, chunk, ln + lo, want)
                except ValueError as e:
                    where = f"expected {n} values on lines {ln + 1}-{ln + n}: {e}" if width == 1 else e
                    raise ValueError(f"{path}: {where}") from None
        for ln, line in enumerate(f, start=ln + n + 1):
            if line.strip(_SPACE):
                raise ValueError(f"{path}: line {ln}: data after the last of {n} rows")
    return head, rows.reshape(n) if width == 1 else rows


def adam_state_save(path: str | Path, state: AdamState) -> None:
    head = {"t": state.t, "lr": state.lr, "beta1": state.beta1, "beta2": state.beta2,
            "eps": state.eps, "count": state.m.size}
    write_table(path, ADAM, head, np.concatenate([state.m, state.v]))


def adam_state_load(path: str | Path) -> AdamState:
    head, values = read_table(path, ADAM, lambda h: (2 * h["count"], 1))  # m, then v
    n = head.pop("count")
    return AdamState(m=values[:n], v=values[n:], **head)


def check_width(path: str | Path, key: str, value: int, want: int, at_least: bool = False) -> None:
    """Refuse a checkpoint whose ``key`` is not ``want`` (or below it), by file and key."""
    if value < want or (value != want and not at_least):
        raise ValueError(f"{path}: header line {key}={value}: the run's layout needs "
                         f"{key}{'>=' if at_least else '='}{want}")


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
    head = {"name": name, "input": spec.input_dim, "hidden": spec.hidden, "output": spec.output_dim,
            "act": spec.activation, "out_act": spec.output_activation, "extra": extra,
            "count": values.size}
    write_table(path, CHECKPOINT, head, values)


def _checkpoint_spec(head: dict) -> MlpSpec:
    return MlpSpec(head["input"], head["hidden"], head["output"], head["act"], head["out_act"])


def load_checkpoint(path: str | Path) -> tuple[str, MlpSpec, np.ndarray, int]:
    """Read a checkpoint; returns (name, spec, values, extra)."""

    def shape(head):
        want = _checkpoint_spec(head).param_count() + head["extra"]
        if (count := head["count"]) != want:
            raise ValueError(f"parameter count mismatch: count={count}, spec and extra give {want}")
        return count, 1

    head, values = read_table(path, CHECKPOINT, shape)
    return head["name"], _checkpoint_spec(head), values, head["extra"]
