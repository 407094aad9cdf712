"""Oracle tests for the convolution/dense layers, MAE loss, and Adam."""

import re
import time

import numpy as np
import pytest

from rotortrack import neuralcore as nn


def naive_conv1d(x, w, b, stride):
    """Direct triple-loop 1-D convolution; the reference the fast path must match."""
    batch, n_in, c_in = x.shape
    k, _, c_out = w.shape
    left = (k - 1) // 2
    xp = np.zeros((batch, n_in + k - 1, c_in), dtype=x.dtype)
    xp[:, left:left + n_in, :] = x
    n_out = -(-n_in // stride)
    y = np.zeros((batch, n_out, c_out), dtype=x.dtype)
    for t in range(n_out):
        for j in range(k):
            for co in range(c_out):
                y[:, t, co] += xp[:, t * stride + j, :] @ w[j, :, co]
    return y + b


def naive_conv_transpose1d(x, w, b, stride):
    """Scatter-based transposed convolution oracle."""
    batch, n_in, c_in = x.shape
    k, _, c_out = w.shape
    n_out = n_in * stride
    pad_left = (k - 1) // 2
    y = np.zeros((batch, n_out, c_out), dtype=x.dtype)
    for t in range(n_in):
        for j in range(k):
            u = t * stride + j - pad_left
            if 0 <= u < n_out:
                for co in range(c_out):
                    y[:, u, co] += x[:, t, :] @ w[j, :, co]
    return y + b


def random_cases(n):
    rng = np.random.default_rng(20240191)
    for _ in range(n):
        k = int(rng.integers(1, 8))
        stride = int(rng.integers(1, 4))
        c_in = int(rng.integers(1, 5))
        c_out = int(rng.integers(1, 5))
        n_in = int(rng.integers(max(k, 4), 40))
        batch = int(rng.integers(1, 4))
        yield k, stride, c_in, c_out, n_in, batch, rng


# (kernel, stride, c_in, c_out, n_in, batch) at the edges of the geometry
EDGE_CASES = [
    (1, 3, 2, 3, 10, 2),     # stride greater than kernel
    (2, 3, 3, 2, 11, 2),
    (7, 2, 6, 16, 25, 2),    # the shipped kernels and lengths
    (7, 2, 16, 6, 50, 2),
    (5, 2, 32, 16, 25, 2),
    (5, 2, 16, 32, 50, 2),
]


def geometry_cases():
    """The 20 random cases, then the explicit edge cases."""
    yield from random_cases(20)
    rng = np.random.default_rng(20240192)
    for case in EDGE_CASES:
        yield (*case, rng)


@pytest.mark.parametrize("build", [
    lambda: nn.Conv1DLayer(3, 2, 1, 1),
    lambda: nn.ConvTranspose1DLayer(3, 2, 1, 1),
    lambda: nn.DenseLayer(3, 2),
    lambda: nn.AdamState(),
], ids=["conv", "conv_transpose", "dense", "adam"])
def test_layers_and_adam_state_are_built_whole_or_not_at_all(build):
    # weights, biases and Adam's moments have no default: init and adam_init build them
    with pytest.raises(TypeError):
        build()


def backward_alone(layer, x, grad_out):
    """A layer's backward pass on a fresh workspace of its own."""
    return layer.backward(x, grad_out, nn.Workspace([layer]))


@pytest.mark.parametrize("call, error, message", [
    (lambda: nn.Conv1DLayer.init(np.random.default_rng(0), 3, 2, 2, 2).forward(np.zeros((10, 2))),
     nn.ShapeMismatch, "expected (batch, length, channels)"),
    (lambda: nn.Conv1DLayer(0, 1, 1, 1, np.zeros((0, 1, 1)), np.zeros(1)),
     ValueError, "kernel_size and stride must be >= 1"),
    (lambda: nn.ConvTranspose1DLayer(3, 1, 0, 1, np.zeros((3, 0, 1)), np.zeros(1)),
     ValueError, "channel counts must be >= 1"),
    (lambda: nn.Conv1DLayer(3, 1, 2, 2, np.zeros((3, 2, 3)), np.zeros(2)),
     nn.ShapeMismatch, "weight shape (3, 2, 3) does not match"),
    (lambda: nn.ConvTranspose1DLayer(3, 1, 2, 2, np.zeros((3, 2, 2)), np.zeros(3)),
     nn.ShapeMismatch, "bias shape (3,) does not match"),
    (lambda: backward_alone(nn.Conv1DLayer.init(np.random.default_rng(0), 3, 2, 2, 2),
                            np.zeros((1, 10, 2)), np.zeros((1, 4, 2))),
     nn.ShapeMismatch, "grad_out shape (1, 4, 2) does not match"),
    (lambda: nn.DenseLayer(0, 1, np.zeros((0, 1)), np.zeros(1)),
     ValueError, "dense dimensions must be >= 1"),
    (lambda: nn.DenseLayer(2, 3, np.zeros((3, 2)), np.zeros(3)),
     nn.ShapeMismatch, "weight shape (3, 2) does not match"),
    (lambda: nn.DenseLayer(2, 3, np.zeros((2, 3)), np.zeros(2)),
     nn.ShapeMismatch, "bias shape (2,) does not match"),
    (lambda: nn.DenseLayer.init(np.random.default_rng(0), 2, 3).forward(np.zeros((1, 3))),
     nn.ShapeMismatch, "DenseLayer.forward: expected (batch, 2)"),
    (lambda: backward_alone(nn.DenseLayer.init(np.random.default_rng(0), 2, 3),
                            np.zeros((1, 2)), np.zeros((1, 2))),
     nn.ShapeMismatch, "grad_out shape (1, 2) does not match"),
    (lambda: nn.mae_grad(np.zeros((2, 3)), np.zeros((3, 2))),
     nn.ShapeMismatch, "mae_grad: shapes (2, 3) and (3, 2) differ"),
], ids=["conv_input_not_3d", "conv_kernel_below_1", "conv_channels_below_1", "conv_weight_shape",
        "conv_bias_shape", "conv_grad_out_shape", "dense_size_below_1", "dense_weight_shape",
        "dense_bias_shape", "dense_input_shape", "dense_grad_out_shape", "mae_grad_shapes"])
def test_every_layer_and_loss_check_raises_its_named_error(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


class TestConv1DForward:
    def test_matches_naive_loop_on_20_random_cases(self):
        for k, stride, c_in, c_out, n_in, batch, rng in geometry_cases():
            layer = nn.Conv1DLayer.init(rng, k, stride, c_in, c_out)
            x = rng.normal(size=(batch, n_in, c_in))
            got = layer.forward(x)
            want = naive_conv1d(x, layer.w, layer.b, stride)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-12

    def test_identity_kernel_passes_input_through(self):
        rng = np.random.default_rng(3)
        layer = nn.Conv1DLayer.init(rng, kernel_size=1, stride=1, c_in=3, c_out=3)
        layer.w[0] = np.eye(3)
        layer.b[:] = 0.0
        x = rng.normal(size=(2, 9, 3))
        assert np.array_equal(layer.forward(x), x)

    def test_same_padding_output_length_is_ceil(self):
        rng = np.random.default_rng(4)
        layer = nn.Conv1DLayer.init(rng, 5, 2, 2, 3)
        assert layer.forward(np.zeros((1, 25, 2))).shape == (1, 13, 3)

    def test_wrong_channel_count_raises(self):
        rng = np.random.default_rng(5)
        layer = nn.Conv1DLayer.init(rng, 3, 1, 2, 2)
        with pytest.raises(nn.ShapeMismatch):
            layer.forward(np.zeros((1, 10, 3)))


class TestUnfold:
    def test_rows_are_the_strided_windows(self):
        xp = np.arange(2 * 10 * 3, dtype=float).reshape(2, 10, 3)
        rows = nn._unfold(xp, 3, 2, 4)
        assert rows.shape == (2, 4, 9)
        for t in range(4):
            assert np.array_equal(rows[:, t], xp[:, 2 * t:2 * t + 3].reshape(2, 9))

    def test_overrunning_window_count_raises(self):
        # 5 windows of 3 at stride 2 need 11 positions; only 10 exist
        with pytest.raises(nn.ShapeMismatch):
            nn._unfold(np.zeros((1, 10, 2)), 3, 2, 5)


class TestConvTranspose1DForward:
    def test_matches_naive_scatter_on_20_random_cases(self):
        for k, stride, c_in, c_out, n_in, batch, rng in geometry_cases():
            layer = nn.ConvTranspose1DLayer.init(rng, k, stride, c_in, c_out)
            x = rng.normal(size=(batch, n_in, c_in))
            got = layer.forward(x)
            want = naive_conv_transpose1d(x, layer.w, layer.b, stride)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-12


    def test_bias_add_matches_a_broadcast_add_bit_for_bit(self):
        """With or without a workspace, both conv layers' outputs are the bytes of their
        product plus a broadcast bias."""
        for k, stride, c_in, c_out, n_in, batch, rng in geometry_cases():
            for cls in (nn.Conv1DLayer, nn.ConvTranspose1DLayer):
                layer = cls.init(rng, k, stride, c_in, c_out)
                layer.b[:] = rng.normal(size=c_out)
                x = rng.normal(size=(batch, n_in, c_in))
                n = layer.out_length(n_in)
                if cls is nn.Conv1DLayer:
                    cols = layer._rows(x, n, None).reshape(batch, n, -1)
                    want = cols @ layer.w.reshape(-1, c_out) + layer.b
                else:
                    want = layer._spread(x, layer.w, n, None) + layer.b
                ws = nn.Workspace([layer])
                for space in (None, ws, ws):
                    assert layer.forward(x, space).tobytes() == want.tobytes()

    def test_same_padding_doubles_length_at_stride_2(self):
        rng = np.random.default_rng(6)
        layer = nn.ConvTranspose1DLayer.init(rng, 5, 2, 4, 2)
        assert layer.forward(np.zeros((1, 25, 4))).shape == (1, 50, 2)


class TestAdjointIdentity:
    def test_conv_and_transpose_are_adjoint(self):
        # <conv(x), y> == <x, convT(y)> when convT uses the transposed weights
        for k, stride, c_in, c_out, n_in, batch, rng in geometry_cases():
            conv = nn.Conv1DLayer.init(rng, k, stride, c_in, c_out)
            conv.b[:] = 0.0
            x = rng.normal(size=(batch, n_in, c_in))
            y = conv.forward(x)
            cot = rng.normal(size=y.shape)
            tr = nn.ConvTranspose1DLayer.init(rng, k, stride, c_out, c_in)
            tr.w = np.ascontiguousarray(np.swapaxes(conv.w, 1, 2))
            tr.b = np.zeros(c_in, dtype=conv.w.dtype)
            back = tr.forward(cot)
            n = min(back.shape[1], n_in)   # positions past n belong to padding
            lhs = float(np.sum(y * cot))
            rhs = float(np.sum(x[:, :n, :] * back[:, :n, :]))
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_input_gradient_is_skipped_on_request():
    rng = np.random.default_rng(5)
    conv = nn.Conv1DLayer.init(rng, 7, 2, 6, 16)
    x = rng.normal(size=(4, 100, 6))
    grad_out = rng.normal(size=(4, 50, 16))
    skipped, full = nn.Workspace([conv]), nn.Workspace([conv])
    assert conv.backward(x, grad_out, skipped, input_grad=False) is None
    assert conv.backward(x, grad_out, full).shape == x.shape
    assert skipped.grad.tobytes() == full.grad.tobytes()


# (layer class, geometry, input length) of the shipped model's six layers
SHIPPED_LAYERS = [
    (nn.Conv1DLayer, (7, 2, 6, 16), 100),
    (nn.Conv1DLayer, (5, 2, 16, 32), 50),
    (nn.DenseLayer, (800, 16), None),
    (nn.DenseLayer, (16, 800), None),
    (nn.ConvTranspose1DLayer, (5, 2, 32, 16), 25),
    (nn.ConvTranspose1DLayer, (7, 2, 16, 6), 50),
]


@pytest.mark.parametrize("batch", [1, 32])
@pytest.mark.parametrize("cls, geometry, length", SHIPPED_LAYERS,
                         ids=["conv_k7", "conv_k5", "dense_800to16", "dense_16to800",
                              "convT_k5", "convT_k7"])
def test_every_pass_gives_the_same_bytes_on_a_fresh_and_a_stale_workspace(cls, geometry, length,
                                                                           batch):
    """Inference builds its own arrays and training reuses a workspace's; both hand
    every product the same operands, so a forward pass agrees to the bit with and
    without one.  Forward and backward give the same bytes on a fresh workspace as on
    one whose arrays a larger batch left NaN-filled."""
    rng = np.random.default_rng(sum(geometry) + batch)
    layer = cls.init(rng, *geometry)
    layer.b[...] = rng.normal(size=layer.b.shape)

    def inputs(rows):
        x = rng.normal(size=(rows, geometry[0]) if length is None else (rows, length, geometry[2]))
        return x, rng.normal(size=layer.forward(x).shape)

    def passes(ws):
        return [a.copy() for a in (layer.forward(x, ws), layer.backward(x, grad_out, ws),
                                   *ws.grads[id(layer)])]
    x, grad_out = inputs(batch)
    fresh = passes(nn.Workspace([layer]))
    assert layer.forward(x).tobytes() == fresh[0].tobytes()
    ws = nn.Workspace([layer])
    larger, larger_grad = inputs(batch + 3)
    layer.backward(larger, larger_grad, ws)
    layer.forward(larger, ws)
    for a in (*ws.arrays.values(), ws.grad):
        a.fill(np.nan)
    for _ in range(2):   # the second pass reuses the arrays the first one left
        assert [a.tobytes() for a in passes(ws)] == [a.tobytes() for a in fresh]


def test_every_pass_writes_its_layers_dtype_whatever_the_input_dtype():
    """float64 inputs into float32 layers: all six passes compute into float32, each
    forward with a workspace (whose arrays stay float32) or without one."""
    rng = np.random.default_rng(11)
    conv = nn.Conv1DLayer.init(rng, 7, 2, 6, 16, dtype="float32")
    trans = nn.ConvTranspose1DLayer.init(rng, 5, 2, 16, 6, dtype="float32")
    dense = nn.DenseLayer.init(rng, 800, 16, dtype="float32")
    x, long = rng.normal(size=(2, 4, 100, 6))
    short, flat = rng.normal(size=(4, 50, 16)), rng.normal(size=(4, 800))
    ws = nn.Workspace([conv, trans, dense])
    for forward_ws in (None, ws):
        arrays = [conv.forward(x, forward_ws), trans.forward(short, forward_ws),
                  dense.forward(flat, forward_ws)]
        assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
    arrays = [conv.backward(x, short, ws), trans.backward(short, long, ws),
              dense.backward(flat, short[:, 0], ws), *ws.grads[id(conv)],
              *ws.grads[id(trans)], *ws.grads[id(dense)]]
    assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
    assert {a.dtype for a in ws.arrays.values()} == {np.dtype(np.float32)}


def finite_diff(f, arrays, h=1e-5):
    """Central differences of scalar f with respect to each array, in place."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = f()
            flat[i] = keep - h
            dn = f()
            flat[i] = keep
            gflat[i] = (up - dn) / (2.0 * h)
        grads.append(g)
    return grads


def rel_err(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1.0)
    return np.max(np.abs(a - b)) / denom


class TestGradients:
    def test_layer_gradients_match_finite_differences(self):
        start = time.monotonic()
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            conv = nn.Conv1DLayer.init(rng, 3, 2, 2, 3)
            trans = nn.ConvTranspose1DLayer.init(rng, 3, 2, 3, 2)
            dense_in = 2 * trans.out_length(conv.out_length(8))
            dense = nn.DenseLayer.init(rng, dense_in, 3)
            x = rng.normal(size=(2, 8, 2))
            target = rng.normal(size=(2, 3))

            def loss():
                h1 = conv.forward(x)
                h2 = trans.forward(h1)
                flat = h2.reshape(h2.shape[0], -1)
                out = dense.forward(flat)
                return 0.5 * float(np.sum((out - target) ** 2))

            h1 = conv.forward(x)
            h2 = trans.forward(h1)
            flat = h2.reshape(h2.shape[0], -1)
            out = dense.forward(flat)
            g_out = out - target
            ws = nn.Workspace([conv, trans, dense])
            g_flat = dense.backward(flat, g_out, ws)
            g_h1 = trans.backward(h1, g_flat.reshape(h2.shape), ws)
            g_x = conv.backward(x, g_h1, ws)

            analytic = [g_x, *ws.grads[id(conv)], *ws.grads[id(trans)], *ws.grads[id(dense)]]
            numeric = finite_diff(loss, [x, conv.w, conv.b, trans.w, trans.b,
                                         dense.w, dense.b])
            for a, n in zip(analytic, numeric):
                assert rel_err(a, n) < 1e-6
        assert time.monotonic() - start < 10.0

    def test_relu_subgradient_zero_at_zero(self):
        x = np.array([-1.0, 0.0, 2.0])
        y = nn.relu_forward(x)
        assert np.array_equal(y, [0.0, 0.0, 2.0])
        g = nn.relu_backward(x, np.ones_like(x))
        assert np.array_equal(g, [0.0, 0.0, 1.0])


class TestMae:
    def test_matches_elementwise_loop(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 5, 2))
        y = rng.normal(size=(3, 5, 2))
        total = 0.0
        for idx in np.ndindex(x.shape):
            total += abs(x[idx] - y[idx])
        assert nn.mae(x, y) == total / x.size

    def test_identical_inputs_give_zero(self):
        x = np.random.default_rng(12).normal(size=(4, 7))
        assert nn.mae(x, x) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(nn.ShapeMismatch):
            nn.mae(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_gradient_is_sign_over_size(self):
        x = np.array([[1.0, -2.0]])
        y = np.array([[0.5, -1.0]])
        g = nn.mae_grad(y, x)             # d mae / d reconstruction
        assert np.array_equal(g, np.array([[1.0, -1.0]]) / 2.0)


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        p = np.array([1.0, -1.0, 0.5])
        g = np.array([0.3, -0.2, 0.9])
        st = nn.adam_init(p)
        nn.adam_step(p, g, st)
        # with bias correction the first update is lr * g/|g| up to eps
        lr = nn.ADAM_LR
        assert np.allclose(p, [1.0 - lr, -1.0 + lr, 0.5 - lr], atol=1e-9)

    def test_zero_gradient_keeps_parameters(self):
        p = np.array([2.0, 3.0])
        st = nn.adam_init(p)
        nn.adam_step(p, np.zeros(2), st)
        assert np.array_equal(p, [2.0, 3.0])
        assert st.step == 1

    def test_two_steps_match_hand_computation(self):
        lr, b1, b2, eps = nn.ADAM_LR, 0.9, 0.999, 1e-8
        p = np.array([1.0])
        st = nn.adam_init(p)
        m = v = 0.0
        x = 1.0
        for t, grad in enumerate([0.5, -0.25], start=1):
            nn.adam_step(p, np.array([grad]), st)
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad * grad
            mh = m / (1 - b1 ** t)
            vh = v / (1 - b2 ** t)
            x -= lr * mh / (np.sqrt(vh) + eps)
        assert np.allclose(p, [x], atol=1e-14)

    def test_mismatched_gradient_shape_rejected(self):
        p = np.zeros(3)
        st = nn.adam_init(p)
        with pytest.raises(nn.ShapeMismatch):
            nn.adam_step(p, np.zeros(2), st)
