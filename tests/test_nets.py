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

    def test_text_bytes_equal_one_repr_per_value(self, tmp_path):
        """The checkpoint and Adam writers stream their values over several
        chunks with the bytes of one repr(float) per line: signed zeros,
        subnormals and large and small magnitudes round-trip exactly."""
        rng = np.random.default_rng(15)
        spec = nets.MlpSpec(100, (200,), 2)
        values = rng.standard_normal(spec.param_count() + 2)
        special = [0.0, -0.0, 5e-324, -2.5e-310, 1e16, -1e16, 1e-5, 0.1, 1.0, -3.0]
        values[: len(special)] = special
        values[-len(special):] = special
        head = ["SLMP-CKPT/1", "name=pi", "input=100", "hidden=200", "output=2", "act=silu",
                "out_act=none", "extra=2", f"count={values.size}"]
        nets.save_checkpoint(tmp_path / "pi.ckpt", "pi", spec, values, extra=2)
        want = "\n".join(head + [repr(float(v)) for v in values]) + "\n"
        assert (tmp_path / "pi.ckpt").read_bytes() == want.encode()
        assert nets.load_checkpoint(tmp_path / "pi.ckpt")[2].tobytes() == values.tobytes()

        state = nets.AdamState(values, values[::-1].copy(), 7, 3e-4)
        nets.adam_state_save(tmp_path / "adam.txt", state)
        head = ["SLMP-ADAM/1", "t=7", "lr=0.0003", "beta1=0.9", "beta2=0.999", "eps=1e-08",
                f"count={values.size}"]
        want = "\n".join(head + [repr(float(v)) for v in (*state.m, *state.v)]) + "\n"
        assert (tmp_path / "adam.txt").read_bytes() == want.encode()
        loaded = nets.adam_state_load(tmp_path / "adam.txt")
        assert loaded.m.tobytes() == state.m.tobytes() and loaded.v.tobytes() == state.v.tobytes()

    def test_readers_stream_the_values(self, tmp_path):
        """Loading a 100k-value checkpoint or Adam state holds no list of
        the file's lines: the traced peak stays under twice the bytes of
        the arrays loaded."""
        import tracemalloc

        spec = nets.MlpSpec(98, (1000,), 1)
        values = np.random.default_rng(3).standard_normal(spec.param_count())
        nets.save_checkpoint(tmp_path / "big.ckpt", "big", spec, values)
        nets.adam_state_save(tmp_path / "big.txt", nets.AdamState(values, -values, 3, 1e-3))
        for load, path in ((nets.load_checkpoint, "big.ckpt"), (nets.adam_state_load, "big.txt")):
            tracemalloc.start()
            try:
                load(tmp_path / path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert values.size >= 100_000 and peak < 2 * values.nbytes * (1 + path.endswith(".txt"))

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
        # Windows line ends read the same
        for name in ("x.ckpt", "a.txt"):
            p = tmp_path / name
            p.write_bytes(p.read_bytes().replace(b"\n", b"\r\n"))
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

    def test_truncated_header_names_file_and_key(self, tmp_path):
        spec = nets.MlpSpec(2, (), 1)
        nets.save_checkpoint(tmp_path / "x.ckpt", "x", spec, np.zeros(spec.param_count()))
        nets.adam_state_save(tmp_path / "a.txt", nets.adam_init(3, lr=0.05))
        for name, load, key in (("x.ckpt", nets.load_checkpoint, "output"),
                                ("a.txt", nets.adam_state_load, "count")):
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
