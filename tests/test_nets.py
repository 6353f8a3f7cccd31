import json
import re

import numpy as np
import pytest

import reference
from reference import one_clip
from slmp import combat as cb
from slmp import distill as di
from slmp import evaluate as ev
from slmp import motion as mo
from slmp import nets
from slmp import physics as ph
from slmp import tracking as tr


def relerr(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-4)


def test_identity_network():
    spec = nets.MlpSpec(2, (), 2, activation="relu", output_activation="none")
    params = np.zeros(spec.param_count())
    w, b = nets.layer_views(spec, params)[0]
    w[:] = np.eye(2)
    out = nets.forward_batch(spec, params, np.array([[1.0, 2.0]]))
    assert np.array_equal(out, np.array([[1.0, 2.0]]))


def test_silu_zero_at_zero():
    spec = nets.MlpSpec(1, (1,), 1, activation="silu")
    params = np.zeros(spec.param_count())
    (w0, b0), (w1, b1) = nets.layer_views(spec, params)
    w0[:] = 1.0
    w1[:] = 1.0
    assert nets.forward_batch(spec, params, np.array([[0.0]]))[0, 0] == 0.0


def _straight_line_forward(spec, params, x):
    """Independent re-implementation: plain loops, no shared helpers."""
    views = nets.layer_views(spec, params)
    h = list(x)
    for l, (w, b) in enumerate(views):
        z = [sum(w[i][j] * h[j] for j in range(len(h))) + b[i] for i in range(w.shape[0])]
        last = l == len(views) - 1
        act = spec.output_activation if last else spec.activation
        if act == "silu":
            h = [v / (1.0 + np.exp(-v)) for v in z]
        elif act == "relu":
            h = [max(v, 0.0) for v in z]
        elif act == "tanh":
            h = [np.tanh(v) for v in z]
        else:
            h = z
    return np.array(h)


def test_forward_matches_independent_reimplementation():
    rng = np.random.default_rng(3)
    spec = nets.MlpSpec(4, (7, 5), 3, activation="silu", output_activation="tanh")
    params = nets.init_params(spec, rng)
    x = rng.standard_normal(4)
    got = nets.forward_batch(spec, params, x[None])[0]
    want = _straight_line_forward(spec, params, x)
    assert np.allclose(got, want, atol=1e-12)


def test_forward_deterministic():
    rng = np.random.default_rng(0)
    spec = nets.MlpSpec(6, (16, 8), 4)
    params = nets.init_params(spec, rng)
    x = rng.standard_normal(6)
    a = nets.forward_batch(spec, params, x[None])
    b = nets.forward_batch(spec, params, x[None])
    assert np.array_equal(a, b)


def test_backward_linear_case():
    spec = nets.MlpSpec(1, (), 1)
    params = np.array([3.0, 1.0])  # w=3, b=1
    gp, gx = nets.backward_batch(spec, params, np.array([[2.0]]), np.array([[1.0]]))
    assert gp[0] == pytest.approx(2.0)  # dw
    assert gp[1] == pytest.approx(1.0)  # db
    assert gx[0, 0] == pytest.approx(3.0)


def test_backward_zero_grad_out():
    rng = np.random.default_rng(1)
    spec = nets.MlpSpec(3, (5,), 2)
    params = nets.init_params(spec, rng)
    gp, gx = nets.backward_batch(spec, params, rng.standard_normal((1, 3)), np.zeros((1, 2)))
    assert not gp.any()
    assert not gx.any()


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(2)
    spec = nets.MlpSpec(5, (12, 9), 3, activation="silu", output_activation="tanh")
    params = nets.init_params(spec, rng)
    x = rng.standard_normal(5)
    assert nets.grad_check(spec, params, x) < 1e-4


def test_grad_check_linear_net_exact():
    spec = nets.MlpSpec(3, (), 2)
    rng = np.random.default_rng(4)
    params = nets.init_params(spec, rng)
    assert nets.grad_check(spec, params, rng.standard_normal(3)) < 1e-8


def test_grad_check_random_silu_net():
    rng = np.random.default_rng(5)
    spec = nets.MlpSpec(4, (10,), 4, activation="silu")
    params = nets.init_params(spec, rng)
    assert nets.grad_check(spec, params, rng.standard_normal(4)) < 1e-4


def test_grad_check_detects_corrupted_backward(monkeypatch):
    rng = np.random.default_rng(6)
    spec = nets.MlpSpec(4, (8,), 2, activation="silu")
    params = nets.init_params(spec, rng)
    x = rng.standard_normal(4)

    true_backward = nets.backward_batch

    def corrupted(spec_, params_, x_, g_):
        gp, gx = true_backward(spec_, params_, x_, g_)
        return gp * 1.05, gx  # 5% systematic error
    monkeypatch.setattr(nets, "backward_batch", corrupted)
    assert nets.grad_check(spec, params, x) > 1e-2


def _repo_specs():
    """Every network topology the pipeline builds under default configs."""
    spec = ph.default_character()
    track = tr.build_networks(tr.TRACK_OBS.width(spec), spec.n_joints, tr.PpoConfig(), 0)
    scfg = di.SlmpConfig()
    distill = di.build_distill_nets(mo.GOAL.width(spec), tr.PROPRIO.width(spec), spec.n_joints, scfg, 0)
    combat = tr.build_networks(cb.COMBAT_OBS.width(spec), scfg.latent_dim, cb.CombatConfig().ppo(), 0)
    return [
        track.policy.spec, track.value_spec,
        distill.enc_spec, distill.phi_spec, distill.disc_spec,
        combat.policy.spec, combat.value_spec,
    ]


def test_grad_check_all_repo_specs():
    """Every network topology used by the pipeline passes the
    finite-difference check on 100 random (params, x) pairs."""
    rng = np.random.default_rng(7)
    for spec in _repo_specs():
        worst = 0.0
        for _ in range(100):
            params = nets.init_params(spec, rng)
            x = rng.standard_normal(spec.input_dim)
            worst = max(
                worst,
                nets.grad_check(spec, params, x, max_components=12, rng=rng),
            )
        assert worst < 1e-4, f"{spec} worst rel err {worst}"


ODD_SPECS = [
    nets.MlpSpec(13, (10, 5), 3, activation="relu", output_activation="tanh"),
    nets.MlpSpec(7, (12,), 1),
]
GUARD_ROWS = (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129,
              255, 257, 511, 1000, 1023, 2049, 4095, 4096)


@pytest.mark.parametrize("spec", _repo_specs() + ODD_SPECS, ids=str)
def test_row_net_rows_keep_their_bits_for_any_row_count(spec):
    """The invariance rule rollouts rely on: a row of a ``RowNet`` call has
    the bits of the same row in a 4096-row call, for any row count and any
    selection and order of rows.  It is a property of this host's BLAS
    kernels; a BLAS or CPU change that breaks it fails here first."""
    rng = np.random.default_rng(11)
    net = nets.RowNet(spec, nets.init_params(spec, rng))
    x = rng.standard_normal((4096, spec.input_dim))
    full = net(x)
    for rows in GUARD_ROWS:
        for _ in range(2):
            pick = rng.choice(4096, size=rows, replace=False)
            got = net(x[pick])
            bad = np.flatnonzero((got != full[pick]).any(axis=1))
            assert not len(bad), f"{spec}: {len(bad)} of {rows} rows differ from the 4096-row call"


PADDED = sorted(name for name in vars(ph.CharacterSpec) if name.endswith("_padded"))


def _character(name, tmp_path):
    """The default character, or ``seven_links``: the default without its
    right leg, read back through ``character_from_json``."""
    spec = ph.default_character()
    if name == "default":
        return spec
    path = tmp_path / "seven_links.json"
    ph.character_to_json(spec, path)
    doc = json.loads(path.read_text())
    doc["links"] = doc["links"][:7]
    doc["sites"] = [s for s in doc["sites"] if s["link"] < 7]
    doc["kp"], doc["kd"] = doc["kp"][:6], doc["kd"][:6]
    path.write_text(json.dumps(doc))
    return ph.character_from_json(path)


@pytest.mark.parametrize("character", ["default", "seven_links"])
def test_padded_spec_matrices_keep_row_bits_for_any_row_count(character, tmp_path):
    """The same rule for the physics: a row of ``row_product`` with every
    padded ``CharacterSpec`` matrix has the bits of that row in a
    4096-row call."""
    spec = _character(character, tmp_path)
    assert spec.n_links == (9 if character == "default" else 7)
    assert len(PADDED) == 5
    rng = np.random.default_rng(13)
    for name in PADDED:
        w = getattr(spec, name)
        assert w.flags.c_contiguous and w.shape[1] % nets.ROW_TILE == 0, name
        x = rng.standard_normal((4096, w.shape[0]))
        full = nets.row_product(x, w)
        for rows in GUARD_ROWS:
            for _ in range(2):
                pick = rng.choice(4096, size=rows, replace=False)
                got = nets.row_product(x[pick], w)
                bad = np.flatnonzero((got != full[pick]).any(axis=1))
                assert not len(bad), f"{name}: {len(bad)} of {rows} rows differ from the 4096-row call"


@pytest.mark.parametrize("spec", [nets.MlpSpec(4, (7, 5), 3, output_activation="tanh"), *ODD_SPECS],
                         ids=str)
def test_row_net_matches_forward_batch(spec):
    rng = np.random.default_rng(12)
    params = nets.init_params(spec, rng)
    net = nets.RowNet(spec, np.concatenate([params, [0.5, -1.0]]), extra=2)
    x = rng.standard_normal((6, spec.input_dim))
    assert np.allclose(net(x), nets.forward_batch(spec, params, x), rtol=1e-12, atol=1e-14)
    assert net(x).shape == (6, spec.output_dim) and net(x).flags.c_contiguous
    assert np.array_equal(net.extra, [0.5, -1.0])
    with pytest.raises(ValueError):  # rows only
        net(x[:, None, :])
    with pytest.raises(ValueError):
        nets.RowNet(spec, params, extra=2)


def _recompute_backward(spec, params, x, grad_out):
    """The backward that reruns the forward and re-takes every activation
    derivative from the pre-activation; the bit oracle for the taped one."""
    views = nets.layer_views(spec, params)
    hs, zs = [x], []
    h = x
    for l, (w, b) in enumerate(views):
        z = h @ w.T + b
        zs.append(z)
        act = spec.output_activation if l == len(views) - 1 else spec.activation
        if act == "silu":
            h = z * (0.5 * (1.0 + np.tanh(0.5 * z)))
        elif act == "relu":
            h = np.maximum(z, 0.0)
        elif act == "tanh":
            h = np.tanh(z)
        else:
            h = z
        hs.append(h)
    grad_params = np.zeros_like(params)
    gviews = nets.layer_views(spec, grad_params)
    g = grad_out
    for l in range(len(views) - 1, -1, -1):
        z = zs[l]
        act = spec.output_activation if l == len(views) - 1 else spec.activation
        if act == "silu":
            s = 0.5 * (1.0 + np.tanh(0.5 * z))
            d = s * (1.0 + z * (1.0 - s))
        elif act == "relu":
            d = (z > 0.0).astype(np.float64)
        elif act == "tanh":
            y = np.tanh(z)
            d = 1.0 - y * y
        else:
            d = np.ones_like(z)
        gz = g * d
        gw, gb = gviews[l]
        gw += gz.T @ hs[l]
        gb += gz.sum(axis=0)
        g = gz @ views[l][0]
    return grad_params, g


ACT_PAIRS = [("silu", "none"), ("relu", "none"), ("relu", "tanh"), ("silu", "tanh")]


@pytest.mark.parametrize("rows", [1, 7, 512])
@pytest.mark.parametrize("act,out_act", ACT_PAIRS)
def test_taped_backward_bit_equals_recompute(act, out_act, rows):
    rng = np.random.default_rng(rows)
    spec = nets.MlpSpec(9, (32, 16), 4, activation=act, output_activation=out_act)
    params = nets.init_params(spec, rng)
    params += 0.1 * rng.standard_normal(params.size)  # non-zero biases
    x = rng.standard_normal((rows, spec.input_dim))
    g = rng.standard_normal((rows, spec.output_dim))
    want_p, want_x = _recompute_backward(spec, params, x, g)

    tape = nets.Tape()
    y = nets.forward_batch(spec, params, x, tape)
    assert np.array_equal(y, nets.forward_batch(spec, params, x))
    for source in (tape, x):  # a tape, or an input the backward tapes itself
        got_p, got_x = nets.backward_batch(spec, params, source, g)
        assert np.array_equal(got_p, want_p)
        assert np.array_equal(got_x, want_x)


@pytest.mark.parametrize("act,out_act", ACT_PAIRS)
def test_one_tape_serves_two_backwards(act, out_act):
    rng = np.random.default_rng(8)
    spec = nets.MlpSpec(5, (12, 6), 2, activation=act, output_activation=out_act)
    params = nets.init_params(spec, rng)
    x = rng.standard_normal((33, spec.input_dim))
    g1, g2 = rng.standard_normal((2, 33, spec.output_dim))
    shared = nets.Tape()
    nets.forward_batch(spec, params, x, shared)
    for g in (g1, g2):
        fresh = nets.Tape()
        nets.forward_batch(spec, params, x, fresh)
        got = nets.backward_batch(spec, params, shared, g)
        want = nets.backward_batch(spec, params, fresh, g)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_reused_tape_matches_fresh_tapes():
    """One tape that serves two networks of different widths in turn, as
    the policy and value passes of a PPO update do, over row counts that
    grow and shrink, gives the outputs and gradients of a fresh tape."""
    rng = np.random.default_rng(12)
    specs = [
        nets.MlpSpec(9, (32, 16), 4),
        nets.MlpSpec(9, (48, 8, 24), 1, activation="relu", output_activation="tanh"),
    ]
    params = [nets.init_params(s, rng) + 0.1 * rng.standard_normal(s.param_count()) for s in specs]
    shared = nets.Tape()
    for rows in (7, 512, 64):
        for spec, p in zip(specs, params):
            x = rng.standard_normal((rows, spec.input_dim))
            g = rng.standard_normal((rows, spec.output_dim))
            fresh = nets.Tape()
            want_y = nets.forward_batch(spec, p, x, fresh)
            got_y = nets.forward_batch(spec, p, x, shared)
            assert np.array_equal(got_y, want_y)
            assert np.array_equal(got_y, nets.forward_batch(spec, p, x))
            got = nets.backward_batch(spec, p, shared, g)
            want = nets.backward_batch(spec, p, fresh, g)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_input_gradient_survives_later_backward():
    """The returned input gradient is the caller's own array: a later
    backward, or a later forward, on the same tape leaves it intact."""
    rng = np.random.default_rng(13)
    spec = nets.MlpSpec(5, (12, 6), 3)
    params = nets.init_params(spec, rng)
    x = rng.standard_normal((20, spec.input_dim))
    g1, g2 = rng.standard_normal((2, 20, spec.output_dim))
    tape = nets.Tape()
    nets.forward_batch(spec, params, x, tape)
    gp1, gx1 = nets.backward_batch(spec, params, tape, g1)
    kept = gx1.copy()
    _, gx2 = nets.backward_batch(spec, params, tape, g2)
    nets.forward_batch(spec, params, rng.standard_normal((40, spec.input_dim)), tape)
    assert np.array_equal(gx1, kept)
    assert not np.array_equal(gx2, kept)


def test_backward_without_input_gradient():
    rng = np.random.default_rng(14)
    spec = nets.MlpSpec(5, (12, 6), 3)
    params = nets.init_params(spec, rng)
    x = rng.standard_normal((9, spec.input_dim))
    g = rng.standard_normal((9, spec.output_dim))
    want_p, _ = nets.backward_batch(spec, params, x, g)
    got_p, got_x = nets.backward_batch(spec, params, x, g, input_grad=False)
    assert got_x is None
    assert np.array_equal(got_p, want_p)


def test_tape_shape_checks():
    spec = nets.MlpSpec(3, (4,), 2)
    params = np.zeros(spec.param_count())
    with pytest.raises(ValueError):  # a stack has no single backward
        nets.forward_batch(spec, params, np.zeros((2, 1, 3)), nets.Tape())
    with pytest.raises(ValueError):  # nothing recorded
        nets.backward_batch(spec, params, nets.Tape(), np.zeros((1, 2)))
    tape = nets.Tape()
    nets.forward_batch(spec, params, np.zeros((5, 3)), tape)
    with pytest.raises(ValueError):
        nets.backward_batch(spec, params, tape, np.zeros((4, 2)))
    other = nets.MlpSpec(3, (4, 4), 2)
    with pytest.raises(ValueError):
        nets.backward_batch(other, np.zeros(other.param_count()), tape, np.zeros((5, 2)))


def test_float32_tape_scales_small_gradients_exactly():
    """A float32 tape scales ``grad_out`` by a power of two before the
    cast, so gradients of a grad_out far below float32's smallest normal
    are nonzero and exactly that power of two times those of grad_out."""
    rng = np.random.default_rng(15)
    spec = nets.MlpSpec(9, (32, 16), 4)
    params = nets.init_params(spec, rng) + 0.1 * rng.standard_normal(spec.param_count())
    x = rng.standard_normal((64, spec.input_dim))
    g = rng.standard_normal((64, spec.output_dim))
    tape = nets.Tape(nets.LEARN_DTYPE)
    nets.forward_batch(spec, params, x, tape)
    want_p, want_x = nets.backward_batch(spec, params, tape, g)
    got_p, got_x = nets.backward_batch(spec, params, tape, g * 2.0**-140)
    assert got_p.dtype == got_x.dtype == np.float64
    assert np.count_nonzero(got_p) == np.count_nonzero(want_p) > 0
    assert np.array_equal(got_p, want_p * 2.0**-140)
    assert np.array_equal(got_x, want_x * 2.0**-140)


def test_float32_tape_drops_negligible_and_keeps_non_finite_grad_out():
    """Scaled grad_out entries below 2**-40 are zeroed, so their rows get
    an input gradient of exactly 0; a non-finite grad_out reaches the
    gradients, where the learners' skip rule sees it."""
    rng = np.random.default_rng(18)
    spec = nets.MlpSpec(9, (32, 16), 4)
    params = nets.init_params(spec, rng)
    x = rng.standard_normal((3, spec.input_dim))
    g = rng.standard_normal((3, spec.output_dim))
    g[1] *= 2.0**-60
    tape = nets.Tape(nets.LEARN_DTYPE)
    nets.forward_batch(spec, params, x, tape)
    _, gx = nets.backward_batch(spec, params, tape, g)
    assert not gx[1].any() and gx[0].all() and gx[2].all()
    g[2, 0] = np.nan
    gp, gx = nets.backward_batch(spec, params, tape, g)
    assert not np.isfinite(gp).all() and not np.isfinite(gx[2]).any()


@pytest.mark.parametrize("spec", _repo_specs(), ids=str)
def test_float32_tape_gradients_match_float64(spec):
    """Every learner network's float32-tape output and gradients agree
    with a float64 tape's to rtol 1e-4 at 512 rows."""
    rng = np.random.default_rng(16)
    params = nets.init_params(spec, rng) + 0.01 * rng.standard_normal(spec.param_count())
    x = rng.standard_normal((512, spec.input_dim))
    g = rng.standard_normal((512, spec.output_dim))
    want, got = nets.Tape(), nets.Tape(nets.LEARN_DTYPE)
    pairs = [(nets.forward_batch(spec, params, x, got), nets.forward_batch(spec, params, x, want))]
    assert pairs[0][0].dtype == np.float32
    pairs += zip(nets.backward_batch(spec, params, got, g), nets.backward_batch(spec, params, want, g))
    for a, b in pairs:
        np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-4 * np.abs(b).max())


def test_untaped_calls_are_float64_tape_calls():
    """An untaped forward and a backward on an array compute in float64:
    the bits of an explicit float64 tape, as a ``Tape()`` is by default."""
    rng = np.random.default_rng(17)
    spec = nets.MlpSpec(9, (32, 16), 4, activation="relu", output_activation="tanh")
    params = nets.init_params(spec, rng)
    x = rng.standard_normal((40, spec.input_dim))
    g = rng.standard_normal((40, spec.output_dim))
    assert nets.Tape().dtype == np.float64
    tape = nets.Tape(np.float64)
    want_y = nets.forward_batch(spec, params, x, tape)
    want = nets.backward_batch(spec, params, tape, g)
    got_y = nets.forward_batch(spec, params, x)
    got = nets.backward_batch(spec, params, x, g)
    for a, b in ((got_y, want_y), *zip(got, want)):
        assert a.dtype == np.float64 and np.array_equal(a, b)


def test_param_count_formula():
    spec = nets.MlpSpec(10, (20, 30), 5)
    assert spec.param_count() == (10 + 1) * 20 + (20 + 1) * 30 + (30 + 1) * 5


def test_invalid_widths_rejected():
    with pytest.raises(ValueError):
        nets.MlpSpec(0, (4,), 2)
    with pytest.raises(ValueError):
        nets.MlpSpec(2, (0,), 2)


def test_input_shape_mismatch():
    spec = nets.MlpSpec(3, (), 2)
    params = np.zeros(spec.param_count())
    with pytest.raises(ValueError):
        nets.forward_batch(spec, params, np.zeros((1, 4)))
    with pytest.raises(ValueError):  # inputs are rows
        nets.forward_batch(spec, params, np.zeros(3))
    with pytest.raises(ValueError):  # and only rows: a stack is refused
        nets.forward_batch(spec, params, np.zeros((2, 1, 3)))
    with pytest.raises(ValueError):
        nets.backward_batch(spec, params, np.zeros((1, 3)), np.zeros((1, 3)))


class TestAdam:
    def test_zero_grads_leave_params(self):
        params = np.array([1.0, -2.0])
        state = nets.adam_init(2, lr=1e-3)
        new, state2 = nets.adam_step(params, np.zeros(2), state)
        assert np.allclose(new, params)
        assert state2.t == 1

    def test_first_step_moves_by_lr(self):
        params = np.array([0.0])
        state = nets.adam_init(1, lr=0.01)
        new, _ = nets.adam_step(params, np.array([1.0]), state)
        # bias-corrected mhat=1, vhat=1 -> step = -lr/(1+eps)
        assert new[0] == pytest.approx(-0.01, rel=1e-6)

    def test_independent_coordinates(self):
        params = np.array([1.0, 1.0])
        state = nets.adam_init(2, lr=0.1)
        new, _ = nets.adam_step(params, np.array([1.0, 0.0]), state)
        assert new[1] == 1.0
        assert new[0] != 1.0

    def test_non_finite_grad_aborts(self):
        state = nets.adam_init(2, lr=0.1)
        with pytest.raises(FloatingPointError):
            nets.adam_step(np.zeros(2), np.array([np.nan, 0.0]), state)

    def test_state_roundtrip(self, tmp_path):
        state = nets.adam_init(3, lr=0.05)
        _, state = nets.adam_step(np.zeros(3), np.array([1.0, -2.0, 0.5]), state)
        nets.adam_state_save(tmp_path / "a.txt", state)
        loaded = nets.adam_state_load(tmp_path / "a.txt")
        assert loaded.t == state.t
        assert np.array_equal(loaded.m, state.m)
        assert np.array_equal(loaded.v, state.v)

    def test_truncated_state_rejected(self, tmp_path):
        state = nets.adam_init(5, lr=0.05)
        _, state = nets.adam_step(np.zeros(5), np.arange(1.0, 6.0), state)
        nets.adam_state_save(tmp_path / "a.txt", state)
        text = (tmp_path / "a.txt").read_text().splitlines()
        (tmp_path / "a.txt").write_text("\n".join(text[:-3]) + "\n")
        with pytest.raises(ValueError):
            nets.adam_state_load(tmp_path / "a.txt")

    def test_step_bits_equal_plain_expressions(self):
        """The in-place update rounds as the plain expressions do, over
        several steps from t = 0, signed zero and tiny gradients included."""
        rng = np.random.default_rng(10)
        n = 301
        params = rng.standard_normal(n)
        state = nets.adam_init(n, lr=3e-4)
        b1, b2, eps, lr = state.beta1, state.beta2, state.eps, state.lr
        want_p, m, v = params.copy(), np.zeros(n), np.zeros(n)
        for t in range(1, 7):
            g = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 4, n)
            g[::17] = 0.0
            g[::23] = -0.0
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            mhat = m / (1.0 - b1**t)
            vhat = v / (1.0 - b2**t)
            want_p = want_p - lr * mhat / (np.sqrt(vhat) + eps)
            params, state = nets.adam_step(params, g, state)
            assert state.t == t
            for got, want in ((params, want_p), (state.m, m), (state.v, v)):
                assert got.tobytes() == want.tobytes()

    def test_step_checks_second_moment_length(self):
        state = nets.adam_init(5, lr=0.05)
        state = nets.AdamState(state.m, state.v[:2], state.t, state.lr)
        with pytest.raises(ValueError, match="equal lengths"):
            nets.adam_step(np.zeros(5), np.ones(5), state)


# What a one-byte edit of a text table puts in: every byte a table holds,
# the neighbours of each byte range the token check accepts (sign, lead
# bit, hex and decimal digits), and the ASCII whitespace and controls
# that split lines or values.
EDIT_BYTES = b"\x00\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f !)+-./0123456789:?@AFG_`afgnpxz=\x7f\x80\xff"
COUNTED = (None, {"n": int})  # the header of a bare table: its row count


class TestCheckpoint:
    def test_roundtrip_and_byte_identity(self, tmp_path):
        rng = np.random.default_rng(9)
        spec = nets.MlpSpec(5, (7,), 3, activation="relu", output_activation="tanh")
        params = nets.init_params(spec, rng)
        p1 = tmp_path / "net.ckpt"
        p2 = tmp_path / "net2.ckpt"
        nets.save_checkpoint(p1, "net", spec, params)
        name, spec2, loaded, extra = nets.load_checkpoint(p1)
        assert name == "net" and spec2 == spec and extra == 0
        assert np.array_equal(loaded, params)
        nets.save_checkpoint(p2, "net", spec2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_text_bytes_equal_one_token_per_value(self, tmp_path):
        """The checkpoint and Adam writers stream their values over several
        chunks with the bytes of one ``reference.table_token`` per line:
        signed zeros, subnormals and large and small magnitudes round-trip
        exactly."""
        rng = np.random.default_rng(15)
        spec = nets.MlpSpec(100, (200,), 2)
        values = rng.standard_normal(spec.param_count() + 2)
        special = [0.0, -0.0, 5e-324, -2.5e-310, 1e16, -1e16, 1e-5, 0.1, 1.0, -3.0]
        values[: len(special)] = special
        values[-len(special):] = special
        head = ["SLMP-CKPT/2", "name=pi", "input=100", "hidden=200", "output=2", "act=silu",
                "out_act=none", "extra=2", f"count={values.size}"]
        nets.save_checkpoint(tmp_path / "pi.ckpt", "pi", spec, values, extra=2)
        want = "\n".join(head + [reference.table_token(float(v)) for v in values]) + "\n"
        assert (tmp_path / "pi.ckpt").read_bytes() == want.encode()
        assert nets.load_checkpoint(tmp_path / "pi.ckpt")[2].tobytes() == values.tobytes()

        state = nets.AdamState(values, values[::-1].copy(), 7, 3e-4)
        nets.adam_state_save(tmp_path / "adam.txt", state)
        head = ["SLMP-ADAM/2", "t=7", "lr=0.0003", "beta1=0.9", "beta2=0.999", "eps=1e-08",
                f"count={values.size}"]
        want = "\n".join(head + [reference.table_token(float(v)) for v in (*state.m, *state.v)]) + "\n"
        assert (tmp_path / "adam.txt").read_bytes() == want.encode()
        loaded = nets.adam_state_load(tmp_path / "adam.txt")
        assert loaded.m.tobytes() == state.m.tobytes() and loaded.v.tobytes() == state.v.tobytes()

    def test_readers_stream_the_values(self, tmp_path):
        """Loading a 100k-value checkpoint or Adam state, a 10 s clip or the
        ``envs.txt`` of 128 envs holds no list of the file's lines: the
        traced peak stays under a small multiple of the bytes of the arrays
        loaded (the clip's twice: its rows and the clip's own frames)."""
        import tracemalloc

        def peak_of(load, *args):
            tracemalloc.start()
            try:
                load(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        spec = nets.MlpSpec(98, (1000,), 1)
        values = np.random.default_rng(3).standard_normal(spec.param_count())
        nets.save_checkpoint(tmp_path / "big.ckpt", "big", spec, values)
        nets.adam_state_save(tmp_path / "big.txt", nets.AdamState(values, -values, 3, 1e-3))
        for load, path in ((nets.load_checkpoint, "big.ckpt"), (nets.adam_state_load, "big.txt")):
            peak = peak_of(load, tmp_path / path)
            assert values.size >= 100_000 and peak < 2 * values.nbytes * (1 + path.endswith(".txt"))

        ch = ph.default_character()
        phys = ph.default_config(ch)
        clip = one_clip("kick", 3, 10.0, spec=ch, cfg=phys)
        mo.save_clip(clip, tmp_path / "k.clip")
        assert peak_of(mo.load_clip, tmp_path / "k.clip") < 3 * clip.frames.nbytes

        cfg = tr.PpoConfig(envs=128, pi_hidden=(8,), critic_hidden=(8,))
        ts = tr.build_networks(tr.TRACK_OBS.width(ch), ch.n_joints, cfg, seed=0)
        batch = tr.EnvBatch([clip], ch, phys, [np.random.default_rng(i) for i in range(cfg.envs)])
        tr.save_train_state(tmp_path, ts, batch, 0)
        rows = cfg.envs * 2 * (3 + ch.ndof + len(ch.sites)) * 8
        assert peak_of(tr.resume_train_state, tmp_path, batch, 0) < 3 * rows

    def test_streamed_readers_round_trip_exactly(self, tmp_path):
        spec = nets.MlpSpec(3, (2,), 2)
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e16, -1e16,
                   1e-5, -1e-5, 0.1, 1 / 3, 1e308, -2.5e-310, 7.0]
        values = np.array(special[: spec.param_count()])
        assert values.size == spec.param_count()
        nets.save_checkpoint(tmp_path / "x.ckpt", "x", spec, values)
        assert nets.load_checkpoint(tmp_path / "x.ckpt")[2].tobytes() == values.tobytes()
        state = nets.AdamState(values, values[::-1].copy(), 2, 0.01)
        nets.adam_state_save(tmp_path / "a.txt", state)
        loaded = nets.adam_state_load(tmp_path / "a.txt")
        assert loaded.m.tobytes() == state.m.tobytes() and loaded.v.tobytes() == state.v.tobytes()
        # Windows line ends and trailing blank lines read the same
        for name in ("x.ckpt", "a.txt"):
            p = tmp_path / name
            p.write_bytes(p.read_bytes().replace(b"\n", b"\r\n") + b"\r\n  \t\r\n")
        assert nets.load_checkpoint(tmp_path / "x.ckpt")[2].tobytes() == values.tobytes()
        assert nets.adam_state_load(tmp_path / "a.txt").v.tobytes() == state.v.tobytes()

    def test_truncated_values_name_the_file(self, tmp_path):
        spec = nets.MlpSpec(2, (), 1)
        nets.save_checkpoint(tmp_path / "x.ckpt", "x", spec, np.ones(spec.param_count()))
        nets.adam_state_save(tmp_path / "a.txt", nets.adam_init(3, lr=0.05))
        for name, load, count in (("x.ckpt", nets.load_checkpoint, spec.param_count()),
                                  ("a.txt", nets.adam_state_load, 6)):
            path = tmp_path / name
            path.write_text("\n".join(path.read_text().splitlines()[:-2]) + "\n")
            with pytest.raises(ValueError, match=f"{name}: expected {count} values"):
                load(path)

    @pytest.mark.parametrize("name, edit, where", [
        ("x.ckpt", lambda lines: lines + ["0.5"], "line 13: data after the last of 3 rows"),
        ("a.txt", lambda lines: lines + ["0.5", ""], "line 14: data after the last of 6 rows"),
        # a no-break space is Unicode whitespace, but its UTF-8 bytes are not ASCII
        ("a.txt", lambda lines: lines + ["", "\xa0"], "line 15: data after the last of 6 rows"),
        ("a.txt", lambda lines: [*lines[:6], "count=3\xa0", *lines[7:]], "header line count='3"),
        ("x.ckpt", lambda lines: [*lines[:2], "input=two", *lines[3:]], "header line input='two'"),
        ("a.txt", lambda lines: [lines[0], "t=zero", *lines[2:]], "header line t='zero'"),
        ("x.ckpt", lambda lines: [*lines[:8], "count=-3", *lines[9:]], "header line count='-3'"),
        ("a.txt", lambda lines: [*lines[:6], "count=-1", *lines[7:]], "header line count='-1'"),
        ("a.txt", lambda lines: [*lines[:2], "lr=fast", *lines[3:]], "header line lr='fast'"),
        ("x.ckpt", lambda lines: [*lines[:3], "hidden=4,x", *lines[4:]], "header line hidden='4,x'"),
        ("x.ckpt", lambda lines: [*lines[:9], "0.5 0.5", *lines[10:]], "expected 3 values on lines 10-12"),
        ("x.ckpt", lambda lines: [*lines[:10], "+0x1.999999999999Ap-0004", *lines[11:]],
         "expected 3 values on lines 10-12: line 11: not a table value"),
        ("a.txt", lambda lines: [*lines[:8], "+0x0.8000000000000p-1021", *lines[9:]],
         "expected 6 values on lines 8-13: line 9: not a table value"),
        ("x.ckpt", lambda lines: [*lines[:11], lines[11][:-1], *lines[12:]],
         "expected 3 values on lines 10-12: line 12: not a table value"),
        ("a.txt", lambda lines: [*lines[:12], "0.5", *lines[13:]],
         "expected 6 values on lines 8-13: line 13: not a table value"),
        ("x.ckpt", lambda lines: ["SLMP-CKPT/1", *lines[1:]], "line 1: expected SLMP-CKPT/2"),
        ("a.txt", lambda lines: ["SLMP-ADAM/1", *lines[1:]], "line 1: expected SLMP-ADAM/2"),
    ])
    def test_bad_file_is_refused_by_line_or_key(self, tmp_path, name, edit, where):
        spec = nets.MlpSpec(2, (), 1)
        nets.save_checkpoint(tmp_path / "x.ckpt", "x", spec, np.ones(spec.param_count()))
        nets.adam_state_save(tmp_path / "a.txt", nets.adam_init(3, lr=0.05))
        path = tmp_path / name
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        load = nets.load_checkpoint if name == "x.ckpt" else nets.adam_state_load
        with pytest.raises(ValueError, match=f"{name}: {where}"):
            load(path)

    @pytest.mark.parametrize("name, line", [
        ("a.txt", "t=0_0"), ("a.txt", "t=00"), ("a.txt", "t=+0"), ("a.txt", "t= 0"),
        ("a.txt", "lr= 0.05"), ("a.txt", "lr=0.050"), ("a.txt", "lr=5e-2"), ("a.txt", "lr=0_0.05"),
        ("a.txt", "count=0_3"), ("a.txt", "count=3 "), ("x.ckpt", "input=+2"),
        ("x.ckpt", "hidden=,"), ("x.ckpt", "extra=-0"),
    ])
    def test_header_values_read_only_as_written(self, tmp_path, name, line):
        """A header value that converts to the written one, but in another
        spelling, is refused by its key."""
        spec = nets.MlpSpec(2, (), 1)
        nets.save_checkpoint(tmp_path / "x.ckpt", "x", spec, np.ones(spec.param_count()))
        nets.adam_state_save(tmp_path / "a.txt", nets.adam_init(3, lr=0.05))
        path = tmp_path / name
        key, _, value = line.partition("=")
        lines = [line if ln.startswith(f"{key}=") else ln for ln in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        load = nets.load_checkpoint if name == "x.ckpt" else nets.adam_state_load
        with pytest.raises(ValueError, match=re.escape(f"{name}: header line {key}={value!r}: ")):
            load(path)

    @pytest.mark.parametrize("byte", [b"\x1c", b"\x1d", b"\x1e", b"\x1f"])
    def test_lines_after_the_rows_hold_only_layout_whitespace(self, tmp_path, byte):
        """Python's ``str.strip`` counts 0x1c-0x1f as whitespace; the layout
        does not, so a line holding one after the rows is refused by line,
        while space, tab, VT, FF and CR LF lines read."""
        path = tmp_path / "a.txt"
        state = nets.adam_init(3, lr=0.05)
        nets.adam_state_save(path, state)
        table = path.read_bytes()
        path.write_bytes(table + b" \t\x0b\x0c\r\n")
        assert nets.adam_state_load(path).v.tobytes() == state.v.tobytes()
        path.write_bytes(table + byte + b"\n")
        with pytest.raises(ValueError, match="a.txt: line 14: data after the last of 6 rows"):
            nets.adam_state_load(path)

    @pytest.mark.parametrize("row, token", [
        (0, "+0x1.000000000000gp+0000"), (2730, "+0x1.000000000000gp+0000"), (4095, "nan"),
        (4095, "+0x1.0000000000000p+0000 +0x1.0000000000000p+0000"), (1000, "+1.0"),
    ])
    def test_refused_chunk_takes_few_decodes(self, tmp_path, monkeypatch, row, token):
        """A refused 4096-row chunk names its bad line in at most 2 log2(4096)
        + 4 ``_decode`` calls."""
        monkeypatch.setattr(nets, "_READ_MIN", 4096)
        path = tmp_path / "t.txt"
        nets.write_table(path, COUNTED, {"n": 4096}, np.ones(4096))
        lines = path.read_text().splitlines()
        lines[row + 1] = token
        path.write_text("\n".join(lines) + "\n")
        calls = []
        real = nets._decode
        monkeypatch.setattr(nets, "_decode", lambda *a: calls.append(1) or real(*a))
        why = ("expected 1 values, got 2" if " " in token else f"not a table value: {token!r}")
        with pytest.raises(ValueError) as e:
            nets.read_table(path, COUNTED, lambda h: (h["n"], 1))
        assert str(e.value) == f"{path}: expected 4096 values on lines 2-4097: line {row + 2}: {why}"
        assert len(calls) <= 2 * 12 + 4, len(calls)

    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        """A table write that fails after its first chunk, of three, leaves
        the file it was replacing as it was, and no temporary file."""
        class FailingFile:
            """Passes the head's and the first chunk's writes on, then fails."""

            def __init__(self, f):
                self.f, self.writes = f, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 3:
                    raise OSError("disk full")
                return self.f.write(data)

        path = tmp_path / "t.txt"
        nets.write_table(path, COUNTED, {"n": 1}, np.zeros(1))
        before = path.read_bytes()
        monkeypatch.setattr(nets, "open", lambda *a, **k: FailingFile(open(*a, **k)), raising=False)
        with pytest.raises(OSError, match="disk full"):
            nets.write_table(path, COUNTED, {"n": 3}, np.arange(3 * nets._WRITE_CHUNK, dtype=np.float64))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.txt"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_refused_by_file(self, tmp_path, bad):
        """No table token spells inf or NaN: the write is refused by file
        and line, and leaves no file behind."""
        spec = nets.MlpSpec(2, (), 1)
        values = np.zeros(spec.param_count())
        values[1] = bad
        with pytest.raises(ValueError, match="x.ckpt: line 11: a non-finite value cannot be written"):
            nets.save_checkpoint(tmp_path / "x.ckpt", "x", spec, values)
        assert list(tmp_path.iterdir()) == []

    def test_extra_tail(self, tmp_path):
        spec = nets.MlpSpec(2, (), 2)
        values = np.arange(spec.param_count() + 2, dtype=np.float64)
        nets.save_checkpoint(tmp_path / "p.ckpt", "p", spec, values, extra=2)
        _, _, loaded, extra = nets.load_checkpoint(tmp_path / "p.ckpt")
        assert extra == 2
        assert np.array_equal(loaded, values)

    def test_bad_magic(self, tmp_path):
        f = tmp_path / "bad.ckpt"
        f.write_text("not a checkpoint\n")
        with pytest.raises(ValueError):
            nets.load_checkpoint(f)

    def test_non_ascii_magic_names_file_and_line(self, tmp_path):
        """A byte outside ASCII is refused by line, not as a decode error."""
        spec = nets.MlpSpec(2, (), 1)
        path = tmp_path / "x.ckpt"
        nets.save_checkpoint(path, "x", spec, np.zeros(spec.param_count()))
        path.write_bytes(b"\xff" + path.read_bytes()[1:])
        with pytest.raises(ValueError, match=f"x.ckpt: line 1: expected {nets.CKPT_MAGIC}"):
            nets.load_checkpoint(path)

    def test_truncated_header_names_file_and_key(self, tmp_path):
        spec = nets.MlpSpec(2, (), 1)
        nets.save_checkpoint(tmp_path / "x.ckpt", "x", spec, np.zeros(spec.param_count()))
        nets.adam_state_save(tmp_path / "a.txt", nets.adam_init(3, lr=0.05))
        for name, load, key in (("x.ckpt", nets.load_checkpoint, "output"),
                                ("a.txt", nets.adam_state_load, "beta2")):
            path = tmp_path / name
            path.write_text("\n".join(path.read_text().splitlines()[:4]) + "\n")
            with pytest.raises(ValueError, match=f"{name}: header has no '{key}' line"):
                load(path)

    def test_count_mismatch(self, tmp_path):
        spec = nets.MlpSpec(2, (), 1)
        values = np.zeros(spec.param_count())
        nets.save_checkpoint(tmp_path / "x.ckpt", "x", spec, values)
        text = (tmp_path / "x.ckpt").read_text().splitlines()
        (tmp_path / "x.ckpt").write_text("\n".join(text[:-1]) + "\n")
        with pytest.raises(ValueError):
            nets.load_checkpoint(tmp_path / "x.ckpt")

    def test_one_byte_edits_read_back_only_as_written(self, tmp_path, monkeypatch):
        """Every one-byte deletion of a small width-1 and width-3 table, and
        every replacement of one byte by a byte of ``EDIT_BYTES``, either
        reads values whose table, given a final newline (and CR line ends
        read as LF), is the edited file byte for byte, or is refused by a
        ``ValueError`` that names the file and a line or header key.  The
        width-1 table reads in chunks of two rows and one, so that edits
        also cut a chunk's last line."""
        monkeypatch.setattr(nets, "_READ_MIN", 2)
        path, again = tmp_path / "t.txt", tmp_path / "again.txt"
        where = re.compile(rf"{re.escape(str(path))}: .*(line \d+: |header line n=|header has no 'n' line)")
        for rows in (np.array([1.0, -2.0**-1022, 0.1]), np.array([[0.0, 5e-324, -2.0**1023]])):
            nets.write_table(path, COUNTED, {"n": len(rows)}, rows)
            table = path.read_bytes()

            def shape(h):
                return h["n"], rows[:1].size

            with open(path, "r+b") as f:  # one handle rewrites the file for every edit
                for i in range(len(table)):
                    for byte in (*EDIT_BYTES, None):
                        edited = table[:i] + (b"" if byte is None else bytes([byte])) + table[i + 1 :]
                        if edited == table:
                            continue
                        f.seek(0)
                        f.write(edited)
                        f.truncate()
                        f.flush()
                        try:
                            head, got = nets.read_table(path, COUNTED, shape)
                        except ValueError as e:
                            assert where.match(str(e)), (i, byte, str(e))
                            continue
                        nets.write_table(again, COUNTED, head, got)
                        lf = edited.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
                        assert lf + b"\n" * (not lf.endswith(b"\n")) == again.read_bytes(), (i, byte)


class TestHeaderRule:
    @pytest.mark.parametrize("schema, head, rows", [
        (nets.CHECKPOINT, {"name": "pi", "input": 2, "hidden": (), "output": 1, "act": "silu",
                           "out_act": "tanh", "extra": 2, "count": 5}, 5),
        (nets.ADAM, {"t": 0, "lr": 0.05, "beta1": 0.9, "beta2": 0.999, "eps": 1e-08, "count": 2}, 4),
        (mo.CLIP, {"hz": 30.0, "frames": 2, "family": "jab", "joints": 8, "id": "jab = 1 =x "}, (2, 22)),
        (tr.ENVS, {"update": 3, "envs": 2, "seed": -7, "clips": 2, "library": "0123456789abcdef"},
         (2, 36)),
        (ev.CLOUD, {"latent": 2, "action": 3, "points": 2}, (2, 6)),
    ], ids=["checkpoint", "adam", "clip", "envs", "cloud"])
    def test_header_round_trips_per_file_kind(self, tmp_path, schema, head, rows):
        """Each file kind's header reads back equal and rewrites to the same
        bytes: a checkpoint with no hidden layer and an extra tail, an Adam
        state at t=0, a clip id holding ``=`` and spaces, a negative seed."""
        rows = np.random.default_rng(6).standard_normal(rows)
        nets.write_table(tmp_path / "a", schema, head, rows)
        back, values = nets.read_table(tmp_path / "a", schema, lambda h: (len(rows), rows[:1].size))
        assert back == head and list(back) == list(schema[1])
        assert values.shape == rows.shape and values.tobytes() == rows.tobytes()
        nets.write_table(tmp_path / "b", schema, back, values)
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    @pytest.mark.parametrize("lr, line", [(1, "lr=1.0"), (np.float64(0.001), "lr=0.001")])
    def test_a_number_is_written_as_its_kind(self, tmp_path, lr, line):
        """An Adam state whose learning rate is an int or a numpy float is
        written in the spelling that reads back: ``repr`` of the float."""
        nets.adam_state_save(tmp_path / "a.txt", nets.adam_init(3, lr))
        assert line in (tmp_path / "a.txt").read_text().splitlines()
        assert nets.adam_state_load(tmp_path / "a.txt").lr == lr

    @pytest.mark.parametrize("name, key, bad, raw", [
        ("j.clip", "id", "jab-ü", b"jab-\xc3\xbc"),
        ("x.ckpt", "name", "pi\nx", b"pi\tx"),
    ])
    def test_a_string_that_would_not_read_back_is_refused_by_key(self, tmp_path, name, key, bad, raw):
        """A header string that is not printable ASCII is refused at write
        by file and key, leaving no file, and on read by key."""
        spec = nets.MlpSpec(2, (), 1)

        def save(path, text):
            if name.endswith(".clip"):
                mo.save_clip(mo.MotionClip(30.0, "jab", text, np.zeros((2, 22))), path)
            else:
                nets.save_checkpoint(path, text, spec, np.zeros(spec.param_count()))

        path = tmp_path / name
        refused = f"{name}: header line {key}={{!r}}: not printable ASCII"
        with pytest.raises(ValueError, match=re.escape(refused.format(bad))):
            save(path, bad)
        assert list(tmp_path.iterdir()) == []
        save(path, "ok")
        line = f"\n{key}=".encode()
        path.write_bytes(path.read_bytes().replace(line + b"ok\n", line + raw + b"\n"))
        load = mo.load_clip if name.endswith(".clip") else nets.load_checkpoint
        with pytest.raises(ValueError, match=re.escape(refused.format(raw.decode(**nets._TEXT)))):
            load(path)
