"""Small deterministic neural-network numerics on plain numpy arrays.

Tensors are ndarrays of shape (batch, length, channels).  Every layer
carries its own weights and exposes an analytic backward pass; the test
suite checks each one against central finite differences and a naive
convolution oracle.

Both convolution layers describe one "same"-padded geometry and run on
one im2col kernel.  ``_unfold`` lays the windows of a padded input side by
side as the rows of a matrix, so each of the four convolution passes is one
unfold and one matrix product.  A convolution's forward and a transposed
convolution's backward unfold the long side in kernel windows at the
stride; the other two passes unfold the short side at stride 1, and their
product's rows are already consecutive long positions, so nothing is
scatter-added.

Every pass takes an optional ``Workspace``: the arrays a pass writes
(padding, im2col rows, GEMM output, layer outputs and gradients)
then come from the workspace and are reused from one training step to the
next.  A convolution's backward reads the im2col rows its forward kept
there, and skips its input gradient on request (a first layer's input
needs none).  Without one (inference, as in every batch-1 ``reconstruct``)
a pass builds only the arrays its products read: a zero-filled padding,
one copy of the im2col rows, and no bias block.  Both ways hand each
``np.matmul`` the same operands, so they give the same bits.

Layers are built in the dtype given to their ``init`` (float64 by
default), and every array a pass writes takes that dtype: an input of
another dtype is computed into the layer's, never upcast.  No global state
is held, so threads may share layers, each with its own arrays and
workspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class ShapeMismatch(ValueError):
    """Raised when an input shape does not fit a layer or a pairing."""


def _check_tensor3(x: np.ndarray, c_in: int, what: str) -> None:
    if x.ndim != 3:
        raise ShapeMismatch(f"{what}: expected (batch, length, channels), got shape {x.shape}")
    if x.shape[2] != c_in:
        raise ShapeMismatch(f"{what}: expected {c_in} channels, got {x.shape[2]}")


def _uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int,
                  dtype) -> np.ndarray:
    limit = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Workspace:
    """Work arrays reused by every pass of one training run, all in its layers' one dtype.

    ``take(key, shape)`` hands out the first prod(shape) elements of the
    key's flat array, reshaped, and grows that array only when it is too
    small, so arrays sized by the largest batch serve every shorter one.  A
    key is a role (one array shared by every layer, for a temporary that no
    longer matters once the pass returns: a padded input "pad", its im2col
    rows "cols", a product "gemm" and a conv's bias block "bias") or a
    (layer id, role) pair (a layer's output, which backward still reads, its
    input gradient, which the backward pass below it reads, or a
    convolution's im2col rows, which its backward reuses while ``unfolded``
    names the input they came from).

    ``grad`` is one flat gradient vector laid out like ``flatten``'s
    parameter vector for the same layers; each layer's backward writes its
    weight and bias gradients into its views of it.
    """

    def __init__(self, layers: list):
        self.grad = np.zeros(sum(layer.w.size + layer.b.size for layer in layers),
                             dtype=layers[0].w.dtype)
        self.grads = {id(layer): views for layer, views in zip(layers, _split(self.grad, layers))}
        self.arrays: dict = {}
        self.unfolded: dict = {}   # id of a conv layer -> (its last input, that input's rows)

    def take(self, key, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        buf = self.arrays.get(key)
        if buf is None or buf.size < size:
            buf = self.arrays[key] = np.empty(size, self.grad.dtype)
        return buf[:size].reshape(shape)


def _buffer(ws: "Workspace | None", key, shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised work array: the workspace's under key, or a fresh one of dtype."""
    return np.empty(shape, dtype) if ws is None else ws.take(key, shape)


def _layer_array(layer, ws: "Workspace | None", role: str, shape: tuple[int, ...]) -> np.ndarray:
    """Where a layer writes its output ("out") or input gradient ("grad"); each is the
    layer's own, as the next backward pass reads it."""
    return _buffer(ws, (id(layer), role), shape, layer.w.dtype)


def _split(flat: np.ndarray, layers: list) -> list[tuple[np.ndarray, np.ndarray]]:
    """(w, b) views of flat per layer, packed in layer order, each w before its b."""
    views, pos = [], 0
    for layer in layers:
        w = flat[pos:pos + layer.w.size].reshape(layer.w.shape)
        pos += layer.w.size
        views.append((w, flat[pos:pos + layer.b.size]))
        pos += layer.b.size
    return views


def flatten(layers: list) -> np.ndarray:
    """Copy every layer's w and b into one new flat vector and rebind them to views of it.

    An optimizer step over the vector then updates every layer at once.
    """
    flat = np.concatenate([p.ravel() for layer in layers for p in (layer.w, layer.b)])
    for layer, (w, b) in zip(layers, _split(flat, layers)):
        layer.w, layer.b = w, b
    return flat


def _unfold(xp: np.ndarray, k: int, s: int, n: int) -> np.ndarray:
    """(batch, n, k*c) im2col rows of xp, a C-contiguous array: row t is
    xp[:, t*s:t*s + k, :] flattened.

    The rows are a read-only strided view of xp; the window count is checked
    first, and numpy checks again that the view stays inside the buffer.
    """
    batch, length, c = xp.shape
    if (n - 1) * s + k > length:
        raise ShapeMismatch(f"{n} windows of {k} at stride {s} overrun length {length}")
    sb, sl, sc = xp.strides
    rows = np.ndarray((batch, n, k * c), xp.dtype, xp, 0, (sb, s * sl, sc))
    rows.setflags(write=False)
    return rows


@dataclass
class _ConvLayer:
    """One "same"-padded geometry, shared by the two convolution layers.

    It links a long side of length L to a short side of ceil(L/stride)
    steps.  The long side is padded with kernel_size - 1 zeros, the extra
    one on the right, and step t covers padded positions t*stride ..
    t*stride + kernel_size - 1.  The two directions are the two kernels:

    - long to short (``_rows``): pad, then im2col; the pass multiplies the
      rows by its weights.  ``Conv1DLayer.forward`` and
      ``ConvTranspose1DLayer.backward`` go this way.
    - short to long (``_spread``): pad the short side, im2col it at stride
      1 and multiply by a matrix of the taps grouped by stride phase, then
      crop.  ``ConvTranspose1DLayer.forward`` passes its weights and
      ``Conv1DLayer.backward`` (for the input gradient) its weights with
      the channel axes swapped.
    """

    kernel_size: int
    stride: int
    c_in: int
    c_out: int
    w: np.ndarray = field(repr=False)  # (kernel_size, c_in, c_out)
    b: np.ndarray = field(repr=False)  # (c_out,)

    def __post_init__(self):
        if self.kernel_size < 1 or self.stride < 1:
            raise ValueError("kernel_size and stride must be >= 1")
        if self.c_in < 1 or self.c_out < 1:
            raise ValueError("channel counts must be >= 1")
        if self.w.shape != (self.kernel_size, self.c_in, self.c_out):
            raise ShapeMismatch(f"weight shape {self.w.shape} does not match layer geometry")
        if self.b.shape != (self.c_out,):
            raise ShapeMismatch(f"bias shape {self.b.shape} does not match c_out")

    @classmethod
    def init(cls, rng: np.random.Generator, kernel_size: int, stride: int,
             c_in: int, c_out: int, dtype="float64"):
        w = _uniform_init(rng, (kernel_size, c_in, c_out), kernel_size * c_in, dtype)
        return cls(kernel_size, stride, c_in, c_out, w, np.zeros(c_out, dtype=dtype))

    def _check_grad_out(self, x: np.ndarray, grad_out: np.ndarray) -> None:
        if grad_out.shape != (x.shape[0], self.out_length(x.shape[1]), self.c_out):
            raise ShapeMismatch(f"grad_out shape {grad_out.shape} does not match output")

    def _im2col(self, x: np.ndarray, lead: int, steps: int, k: int, s: int, n: int,
                ws: "Workspace | None", key="cols") -> np.ndarray:
        """The C-contiguous (batch * n, k * channels) rows of _unfold(xp, k, s, n), xp
        being x zero-padded to steps steps, lead of them before x.  With a workspace
        both go to its arrays ("pad" and key), whose margins alone are zeroed;
        without one they are new arrays."""
        batch, length, c = x.shape
        if ws is None:
            xp = np.zeros((batch, steps, c), self.w.dtype)
        else:
            xp = ws.take("pad", (batch, steps, c))
            xp[:, :lead] = 0
            xp[:, lead + length:] = 0
        xp[:, lead:lead + length] = x
        rows = _unfold(xp, k, s, n)
        if ws is None:   # a copy, unless the windows tile xp: overlapping rows are no BLAS operand
            return np.ascontiguousarray(rows).reshape(batch * n, -1)
        cols = ws.take(key, (batch * n, rows.shape[2]))
        cols.reshape(rows.shape)[...] = rows
        return cols

    def _rows(self, long: np.ndarray, n: int, ws: "Workspace | None", key="cols") -> np.ndarray:
        """Long to short: the (batch * n, kernel_size * channels) im2col rows of the
        padded long side, written to the workspace's array under key."""
        k = self.kernel_size
        return self._im2col(long, (k - 1) // 2, long.shape[1] + k - 1, k, self.stride, n, ws, key)

    def _add_bias(self, y: np.ndarray, out: np.ndarray, ws: "Workspace | None") -> np.ndarray:
        """y plus the bias, written to out.  With a workspace the bias is laid out as a
        (length, c_out) block, so that the add runs over contiguous rows of
        length * c_out values, not c_out at a time; without one it is broadcast, as
        building the block costs a batch-1 add more than it saves."""
        if ws is None:
            return np.add(y, self.b, out=out)
        bias = ws.take("bias", y.shape[1:])
        bias[...] = self.b
        return np.add(y, bias, out=out)

    def _spread(self, short: np.ndarray, taps: np.ndarray, length: int,
                ws: "Workspace | None") -> np.ndarray:
        """Short to long: step t's product with tap j summed onto padded long
        position t*stride + j, cropped to length; taps is (kernel_size, a, b).

        Padded long position q*s + r receives tap r + g*s of step q - g, for
        g < G = ceil(k/s).  So the stride-1 im2col rows of the short side,
        G steps each, times one (G*a, s*b) matrix give the s long positions
        q*s .. q*s + s-1 as row q, and nothing is scatter-added.  The matrix
        has zero rows where r + g*s >= k.
        """
        k, s, left = self.kernel_size, self.stride, (self.kernel_size - 1) // 2
        batch, a = short.shape[0], short.shape[2]
        groups, first = -(-k // s), left // s   # first: the first row q the crop keeps
        nq = -(-(left + length) // s) - first
        # long row q reads steps q - groups + 1 .. q, so the first row kept
        # starts groups - 1 - first steps before step 0
        cols = self._im2col(short, groups - 1 - first, nq + groups - 1, groups, 1, nq, ws)
        phases = np.zeros((groups * s,) + taps.shape[1:], self.w.dtype)
        phases[:k] = taps
        # window slot i holds step q - (groups - 1 - i): row block i is group groups - 1 - i
        blocks = phases.reshape(groups, s, a, -1)[::-1].transpose(0, 2, 1, 3)
        matrix = blocks.reshape(groups * a, -1)
        out = _buffer(ws, "gemm", (batch, nq * s, taps.shape[2]), self.w.dtype)
        np.matmul(cols, matrix, out=out.reshape(cols.shape[0], -1))
        crop = left - first * s
        return out[:, crop:crop + length]


def _param_grads(layer, ws: "Workspace | None") -> tuple[np.ndarray, np.ndarray]:
    """Where a layer's backward writes its weight and bias gradients."""
    if ws is None:
        return np.empty(layer.w.shape, layer.w.dtype), np.empty(layer.b.shape, layer.w.dtype)
    return ws.grads[id(layer)]


class Conv1DLayer(_ConvLayer):
    """Strided 1-D convolution over (batch, length, channels) tensors: long to short,
    giving ceil(length/stride) outputs."""

    def out_length(self, length: int) -> int:
        return -(-length // self.stride)

    def forward(self, x: np.ndarray, ws: "Workspace | None" = None) -> np.ndarray:
        _check_tensor3(x, self.c_in, "Conv1DLayer.forward")
        n = self.out_length(x.shape[1])
        cols = self._rows(x, n, ws, (id(self), "cols"))
        if ws is not None:
            ws.unfolded[id(self)] = (x, cols)
        out = _layer_array(self, ws, "out", (x.shape[0], n, self.c_out))
        np.matmul(cols.reshape(x.shape[0], n, -1), self.w.reshape(-1, self.c_out), out=out)
        return self._add_bias(out, out, ws)

    def backward(self, x: np.ndarray, grad_out: np.ndarray, ws: "Workspace | None" = None,
                 input_grad: bool = True):
        """Gradients for inputs (None unless input_grad), weights, and bias given upstream grad_out."""
        _check_tensor3(x, self.c_in, "Conv1DLayer.backward")
        self._check_grad_out(x, grad_out)
        source, cols = (None, None) if ws is None else ws.unfolded.get(id(self), (None, None))
        if source is not x:
            cols = self._rows(x, grad_out.shape[1], ws)
        g = grad_out.reshape(-1, self.c_out)
        grad_w, grad_b = _param_grads(self, ws)
        np.matmul(cols.T, g, out=grad_w.reshape(cols.shape[1], -1))
        np.einsum("ij->j", g, out=grad_b, casting="same_kind")
        if not input_grad:
            return None, grad_w, grad_b
        grad_x = _layer_array(self, ws, "grad", x.shape)   # after grad_w: this reuses "cols"
        grad_x[...] = self._spread(grad_out, self.w.transpose(0, 2, 1), x.shape[1], ws)
        return grad_x, grad_w, grad_b


class ConvTranspose1DLayer(_ConvLayer):
    """Strided transposed 1-D convolution (the adjoint of Conv1DLayer): short to long,
    giving length * stride outputs.

    Sharing weights with a Conv1DLayer (axes swapped) makes forward() the
    exact adjoint of that convolution, which the tests assert via the
    inner-product identity.
    """

    def out_length(self, length: int) -> int:
        return length * self.stride

    def forward(self, x: np.ndarray, ws: "Workspace | None" = None) -> np.ndarray:
        _check_tensor3(x, self.c_in, "ConvTranspose1DLayer.forward")
        full = self._spread(x, self.w, self.out_length(x.shape[1]), ws)
        return self._add_bias(full, _layer_array(self, ws, "out", full.shape), ws)

    def backward(self, x: np.ndarray, grad_out: np.ndarray, ws: "Workspace | None" = None):
        _check_tensor3(x, self.c_in, "ConvTranspose1DLayer.backward")
        self._check_grad_out(x, grad_out)
        cols = self._rows(grad_out, x.shape[1], ws)
        taps = self.w.transpose(1, 0, 2).reshape(self.c_in, -1)   # column block j: tap j
        grad_x = _layer_array(self, ws, "grad", x.shape)
        np.matmul(cols, taps.T, out=grad_x.reshape(cols.shape[0], -1))
        grad_w, grad_b = _param_grads(self, ws)
        grad_taps = _buffer(ws, "gemm", (cols.shape[1], self.c_in), self.w.dtype)
        np.matmul(cols.T, x.reshape(-1, self.c_in), out=grad_taps)
        grad_w[...] = grad_taps.reshape(self.kernel_size, self.c_out, self.c_in).transpose(0, 2, 1)
        np.einsum("ij->j", grad_out.reshape(-1, self.c_out), out=grad_b, casting="same_kind")
        return grad_x, grad_w, grad_b


@dataclass
class DenseLayer:
    """Fully connected layer on (batch, features) arrays: y = x @ w + b."""

    d_in: int
    d_out: int
    w: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.d_in < 1 or self.d_out < 1:
            raise ValueError("dense dimensions must be >= 1")
        if self.w.shape != (self.d_in, self.d_out):
            raise ShapeMismatch(f"weight shape {self.w.shape} does not match ({self.d_in}, {self.d_out})")
        if self.b.shape != (self.d_out,):
            raise ShapeMismatch(f"bias shape {self.b.shape} does not match d_out")

    @classmethod
    def init(cls, rng: np.random.Generator, d_in: int, d_out: int,
             dtype="float64") -> "DenseLayer":
        w = _uniform_init(rng, (d_in, d_out), d_in, dtype)
        return cls(d_in, d_out, w, np.zeros(d_out, dtype=dtype))

    def forward(self, x: np.ndarray, ws: "Workspace | None" = None) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.d_in:
            raise ShapeMismatch(f"DenseLayer.forward: expected (batch, {self.d_in}), got {x.shape}")
        out = _layer_array(self, ws, "out", (x.shape[0], self.d_out))
        np.matmul(x, self.w, out=out)
        out += self.b
        return out

    def backward(self, x: np.ndarray, grad_out: np.ndarray, ws: "Workspace | None" = None):
        if grad_out.shape != (x.shape[0], self.d_out):
            raise ShapeMismatch(f"grad_out shape {grad_out.shape} does not match output")
        grad_x = _layer_array(self, ws, "grad", x.shape)
        np.matmul(grad_out, self.w.T, out=grad_x)
        grad_w, grad_b = _param_grads(self, ws)
        np.matmul(x.T, grad_out, out=grad_w)
        np.sum(grad_out, axis=0, out=grad_b)
        return grad_x, grad_w, grad_b


def relu_forward(x: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
    return np.maximum(x, 0, out=out)


def relu_backward(h: np.ndarray, grad_out: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
    """grad_out masked where h, the ReLU's input or its output, is > 0; subgradient 0 at exactly 0."""
    return np.multiply(grad_out, h > 0, out=out)


def mae(x: np.ndarray, x_prime: np.ndarray) -> float:
    """Mean absolute error between two equally shaped arrays: np.mean's sum and division,
    without its per-call bookkeeping."""
    x, x_prime = np.asarray(x), np.asarray(x_prime)
    if x.shape != x_prime.shape:
        raise ShapeMismatch(f"mae: shapes {x.shape} and {x_prime.shape} differ")
    d = np.abs(x - x_prime)
    return float(np.add.reduce(d, axis=None) / d.size)


def mae_grad(x: np.ndarray, x_prime: np.ndarray) -> np.ndarray:
    """d mae / d x_prime, using sign(0) = 0 at kinks."""
    if x.shape != x_prime.shape:
        raise ShapeMismatch(f"mae_grad: shapes {x.shape} and {x_prime.shape} differ")
    return np.sign(x_prime - x) / x.size


# Adam's step size, moment decay rates and the term that keeps its denominator above zero
ADAM_LR = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First and second moment vectors plus the step count."""

    m: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    step: int = 0


def adam_init(params: np.ndarray) -> AdamState:
    """Adam state for one parameter vector, such as flatten's."""
    return AdamState(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState,
              ws: "Workspace | None" = None) -> None:
    """One bias-corrected Adam update, applied to the parameter vector in place.

        m <- b1*m + (1-b1)*g        v <- b2*v + (1-b2)*g^2
        p <- p - ADAM_LR * m_hat / (sqrt(v_hat) + eps)

    Its two temporaries come from a workspace's step-local arrays when one
    is given, as no pass is running between a step's backward and this.
    """
    if grads.shape != params.shape or state.m.shape != params.shape:
        raise ShapeMismatch(f"gradient {grads.shape} and state {state.m.shape} do not match "
                            f"parameters {params.shape}")
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    m, v = state.m, state.v
    step = _buffer(ws, "cols", params.shape, params.dtype)
    denom = _buffer(ws, "gemm", params.shape, params.dtype)
    np.multiply(grads, 1.0 - ADAM_BETA1, out=step)
    m *= ADAM_BETA1
    m += step
    np.square(grads, out=step)
    step *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += step
    np.divide(m, c1, out=step)
    step *= ADAM_LR
    np.divide(v, c2, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    params -= step
