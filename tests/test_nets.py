import numpy as np
import pytest

from slmp import combat as cb
from slmp import distill as di
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
    out = nets.mlp_forward(spec, params, np.array([1.0, 2.0]))
    assert np.array_equal(out, np.array([1.0, 2.0]))


def test_silu_zero_at_zero():
    spec = nets.MlpSpec(1, (1,), 1, activation="silu")
    params = np.zeros(spec.param_count())
    (w0, b0), (w1, b1) = nets.layer_views(spec, params)
    w0[:] = 1.0
    w1[:] = 1.0
    assert nets.mlp_forward(spec, params, np.array([0.0]))[0] == 0.0


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
    got = nets.mlp_forward(spec, params, x)
    want = _straight_line_forward(spec, params, x)
    assert np.allclose(got, want, atol=1e-12)


def test_forward_deterministic():
    rng = np.random.default_rng(0)
    spec = nets.MlpSpec(6, (16, 8), 4)
    params = nets.init_params(spec, rng)
    x = rng.standard_normal(6)
    a = nets.mlp_forward(spec, params, x)
    b = nets.mlp_forward(spec, params, x)
    assert np.array_equal(a, b)


def test_backward_linear_case():
    spec = nets.MlpSpec(1, (), 1)
    params = np.array([3.0, 1.0])  # w=3, b=1
    gp, gx = nets.mlp_backward(spec, params, np.array([2.0]), np.array([1.0]))
    assert gp[0] == pytest.approx(2.0)  # dw
    assert gp[1] == pytest.approx(1.0)  # db
    assert gx[0] == pytest.approx(3.0)


def test_backward_zero_grad_out():
    rng = np.random.default_rng(1)
    spec = nets.MlpSpec(3, (5,), 2)
    params = nets.init_params(spec, rng)
    gp, gx = nets.mlp_backward(spec, params, rng.standard_normal(3), np.zeros(2))
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
    track = tr.build_networks(tr.track_obs_dim(spec), spec.n_joints, tr.PpoConfig(), 0)
    scfg = di.SlmpConfig()
    distill = di.build_distill_nets(
        mo.Goal.dim(spec.n_joints), tr.proprio_dim(spec), spec.n_joints, scfg, 0
    )
    combat = tr.build_networks(cb.combat_obs_dim(spec), scfg.latent_dim, cb.CombatConfig().ppo(), 0)
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
        nets.mlp_forward(spec, params, np.zeros(4))
    with pytest.raises(ValueError):
        nets.mlp_backward(spec, params, np.zeros(3), np.zeros(3))


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

    def test_step_checks_second_moment_length(self):
        state = nets.adam_init(5, lr=0.05)
        state = nets.AdamState(state.m, state.v[:2], state.t, state.lr)
        with pytest.raises(ValueError, match="equal lengths"):
            nets.adam_step(np.zeros(5), np.ones(5), state)


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

    def test_count_mismatch(self, tmp_path):
        spec = nets.MlpSpec(2, (), 1)
        values = np.zeros(spec.param_count())
        nets.save_checkpoint(tmp_path / "x.ckpt", "x", spec, values)
        text = (tmp_path / "x.ckpt").read_text().splitlines()
        (tmp_path / "x.ckpt").write_text("\n".join(text[:-1]) + "\n")
        with pytest.raises(ValueError):
            nets.load_checkpoint(tmp_path / "x.ckpt")
