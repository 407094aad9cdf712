"""Small deterministic neural-network numerics on plain numpy arrays.

Tensors are ndarrays of shape (batch, length, channels).  Every layer
carries its own weights and exposes an analytic backward pass; the test
suite checks each one against central finite differences and a naive
convolution oracle.

Both convolution layers run on one im2col kernel pair.  ``_unfold`` lays
the kernel windows of a padded input side by side as the rows of a matrix,
so each pass is a single matrix product with the weights, and ``_fold`` is
its adjoint, summing such rows back onto the length axis.  A convolution
unfolds its input and a transposed convolution folds its output.

Layers are built in the dtype given to their ``init`` (float64 by
default).  Nothing here holds global state, so layers can be used from
several threads as long as each thread works on its own arrays.
"""

from __future__ import annotations

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


def _zero_pad(a: np.ndarray, left: int, length: int) -> np.ndarray:
    """a placed at offset left along the length axis of a zero (batch, length, channels) array."""
    out = np.zeros((a.shape[0], length, a.shape[2]), dtype=a.dtype)
    out[:, left:left + a.shape[1]] = a
    return out


def _unfold(xp: np.ndarray, k: int, s: int, n: int) -> np.ndarray:
    """(batch, n, k*c) im2col rows of xp: row t is xp[:, t*s:t*s + k, :] flattened.

    The rows are a read-only strided view of xp; the window count is checked
    first so the view can never reach past the end of the buffer.
    """
    batch, length, c = xp.shape
    if (n - 1) * s + k > length:
        raise ShapeMismatch(f"{n} windows of {k} at stride {s} overrun length {length}")
    sb, sl, sc = xp.strides
    rows = np.lib.stride_tricks.as_strided(xp, (batch, n, k, c), (sb, s * sl, sl, sc),
                                           writeable=False)
    return rows.reshape(batch, n, k * c)


def _fold(cols: np.ndarray, k: int, s: int, length: int) -> np.ndarray:
    """Adjoint of _unfold: scatter-add (batch, n, k*c) rows onto a zero length axis."""
    batch, n, kc = cols.shape
    taps = cols.reshape(batch, n, k, kc // k)
    out = np.zeros((batch, length, kc // k), dtype=cols.dtype)
    for j in range(k):
        out[:, j:j + (n - 1) * s + 1:s] += taps[:, :, j]
    return out


@dataclass
class _ConvLayer:
    """Fields, validation and init shared by the two convolution layers."""

    kernel_size: int
    stride: int
    c_in: int
    c_out: int
    padding: str = "same"
    w: np.ndarray = field(default=None, repr=False)  # (kernel_size, c_in, c_out)
    b: np.ndarray = field(default=None, repr=False)  # (c_out,)

    def __post_init__(self):
        if self.kernel_size < 1 or self.stride < 1:
            raise ValueError("kernel_size and stride must be >= 1")
        if self.c_in < 1 or self.c_out < 1:
            raise ValueError("channel counts must be >= 1")
        if self.padding not in ("same", "valid"):
            raise ValueError(f"unknown padding {self.padding!r}")
        if self.w is None:
            self.w = np.zeros((self.kernel_size, self.c_in, self.c_out))
        if self.b is None:
            self.b = np.zeros(self.c_out, dtype=self.w.dtype)
        if self.w.shape != (self.kernel_size, self.c_in, self.c_out):
            raise ShapeMismatch(f"weight shape {self.w.shape} does not match layer geometry")
        if self.b.shape != (self.c_out,):
            raise ShapeMismatch(f"bias shape {self.b.shape} does not match c_out")

    @classmethod
    def init(cls, rng: np.random.Generator, kernel_size: int, stride: int,
             c_in: int, c_out: int, padding: str = "same", dtype="float64"):
        w = _uniform_init(rng, (kernel_size, c_in, c_out), kernel_size * c_in, dtype)
        return cls(kernel_size, stride, c_in, c_out, padding, w, np.zeros(c_out, dtype=dtype))

    @property
    def _pad_left(self) -> int:
        # "same" pads kernel_size - 1 zeros in all, the extra one on the right.
        return (self.kernel_size - 1) // 2 if self.padding == "same" else 0

    def _check_grad_out(self, x: np.ndarray, grad_out: np.ndarray) -> None:
        if grad_out.shape != (x.shape[0], self.out_length(x.shape[1]), self.c_out):
            raise ShapeMismatch(f"grad_out shape {grad_out.shape} does not match output")


class Conv1DLayer(_ConvLayer):
    """Strided 1-D convolution over (batch, length, channels) tensors.

    "same" padding pads the length axis with kernel_size - 1 zeros split
    symmetrically (extra zero on the right) and yields ceil(length/stride)
    outputs; "valid" slides the kernel only over fully covered positions.
    """

    def out_length(self, length: int) -> int:
        if self.padding == "same":
            return -(-length // self.stride)
        if length < self.kernel_size:
            raise ShapeMismatch(f"length {length} shorter than kernel {self.kernel_size} (valid padding)")
        return (length - self.kernel_size) // self.stride + 1

    def _padded(self, x: np.ndarray) -> np.ndarray:
        if self.padding == "valid":
            return x
        return _zero_pad(x, self._pad_left, x.shape[1] + self.kernel_size - 1)

    def forward(self, x: np.ndarray) -> np.ndarray:
        _check_tensor3(x, self.c_in, "Conv1DLayer.forward")
        cols = _unfold(self._padded(x), self.kernel_size, self.stride, self.out_length(x.shape[1]))
        return cols @ self.w.reshape(-1, self.c_out) + self.b

    def backward(self, x: np.ndarray, grad_out: np.ndarray):
        """Gradients for inputs, weights, and bias given upstream grad_out."""
        _check_tensor3(x, self.c_in, "Conv1DLayer.backward")
        self._check_grad_out(x, grad_out)
        k, s = self.kernel_size, self.stride
        xp = self._padded(x)
        cols = _unfold(xp, k, s, grad_out.shape[1]).reshape(-1, k * self.c_in)
        g = grad_out.reshape(-1, self.c_out)
        grad_w = (cols.T @ g).reshape(self.w.shape)
        grad_cols = (g @ self.w.reshape(-1, self.c_out).T).reshape(x.shape[0], -1, k * self.c_in)
        left = self._pad_left
        grad_x = _fold(grad_cols, k, s, xp.shape[1])[:, left:left + x.shape[1]]
        return grad_x, grad_w, grad_out.sum(axis=(0, 1))


class ConvTranspose1DLayer(_ConvLayer):
    """Strided transposed 1-D convolution (the adjoint of Conv1DLayer).

    With "same" padding the output length is input length * stride; with
    "valid" it is (length - 1) * stride + kernel_size.  Sharing weights with
    a Conv1DLayer (axes swapped) makes forward() the exact adjoint of that
    convolution, which the tests assert via the inner-product identity.
    """

    def out_length(self, length: int) -> int:
        if self.padding == "same":
            return length * self.stride
        return (length - 1) * self.stride + self.kernel_size

    def _full_length(self, n_in: int) -> int:
        # Length covered by every tap of every input step, before the crop to
        # out_length; with stride > kernel_size the "same" crop reaches further.
        return max((n_in - 1) * self.stride + self.kernel_size,
                   self._pad_left + self.out_length(n_in))

    def _taps(self) -> np.ndarray:
        # w as one (c_in, kernel_size * c_out) matrix, column block j holding tap j.
        return self.w.transpose(1, 0, 2).reshape(self.c_in, -1)

    def forward(self, x: np.ndarray) -> np.ndarray:
        _check_tensor3(x, self.c_in, "ConvTranspose1DLayer.forward")
        n_in = x.shape[1]
        left = self._pad_left
        full = _fold(x @ self._taps(), self.kernel_size, self.stride, self._full_length(n_in))
        return full[:, left:left + self.out_length(n_in)] + self.b

    def backward(self, x: np.ndarray, grad_out: np.ndarray):
        _check_tensor3(x, self.c_in, "ConvTranspose1DLayer.backward")
        self._check_grad_out(x, grad_out)
        k, n_in = self.kernel_size, x.shape[1]
        gp = _zero_pad(grad_out, self._pad_left, self._full_length(n_in))
        cols = _unfold(gp, k, self.stride, n_in).reshape(-1, k * self.c_out)
        grad_x = (cols @ self._taps().T).reshape(x.shape)
        grad_w = (cols.T @ x.reshape(-1, self.c_in)).reshape(k, self.c_out, self.c_in)
        return grad_x, grad_w.transpose(0, 2, 1), grad_out.sum(axis=(0, 1))


@dataclass
class DenseLayer:
    """Fully connected layer on (batch, features) arrays: y = x @ w + b."""

    d_in: int
    d_out: int
    w: np.ndarray = field(default=None, repr=False)
    b: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.d_in < 1 or self.d_out < 1:
            raise ValueError("dense dimensions must be >= 1")
        if self.w is None:
            self.w = np.zeros((self.d_in, self.d_out))
        if self.b is None:
            self.b = np.zeros(self.d_out, dtype=self.w.dtype)
        if self.w.shape != (self.d_in, self.d_out):
            raise ShapeMismatch(f"weight shape {self.w.shape} does not match ({self.d_in}, {self.d_out})")
        if self.b.shape != (self.d_out,):
            raise ShapeMismatch(f"bias shape {self.b.shape} does not match d_out")

    @classmethod
    def init(cls, rng: np.random.Generator, d_in: int, d_out: int,
             dtype="float64") -> "DenseLayer":
        w = _uniform_init(rng, (d_in, d_out), d_in, dtype)
        return cls(d_in, d_out, w, np.zeros(d_out, dtype=dtype))

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.d_in:
            raise ShapeMismatch(f"DenseLayer.forward: expected (batch, {self.d_in}), got {x.shape}")
        return x @ self.w + self.b

    def backward(self, x: np.ndarray, grad_out: np.ndarray):
        if grad_out.shape != (x.shape[0], self.d_out):
            raise ShapeMismatch(f"grad_out shape {grad_out.shape} does not match output")
        return grad_out @ self.w.T, x.T @ grad_out, grad_out.sum(axis=0)


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    # Subgradient 0 at exactly 0.
    return grad_out * (x > 0)


def mae(x: np.ndarray, x_prime: np.ndarray) -> float:
    """Mean absolute error between two equally shaped arrays."""
    x = np.asarray(x)
    x_prime = np.asarray(x_prime)
    if x.shape != x_prime.shape:
        raise ShapeMismatch(f"mae: shapes {x.shape} and {x_prime.shape} differ")
    return float(np.mean(np.abs(x - x_prime)))


def mae_grad(x: np.ndarray, x_prime: np.ndarray) -> np.ndarray:
    """d mae / d x_prime, using sign(0) = 0 at kinks."""
    if x.shape != x_prime.shape:
        raise ShapeMismatch(f"mae_grad: shapes {x.shape} and {x_prime.shape} differ")
    return np.sign(x_prime - x) / x.size


@dataclass
class AdamState:
    """Per-parameter first/second moment buffers plus the shared step count."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list = field(default_factory=list, repr=False)
    v: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be positive")


def adam_init(params: list, lr: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    state = AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    state.m = [np.zeros_like(p) for p in params]
    state.v = [np.zeros_like(p) for p in params]
    return state


def adam_step(params: list, grads: list, state: AdamState) -> None:
    """One bias-corrected Adam update, applied to params in place.

        m <- b1*m + (1-b1)*g        v <- b2*v + (1-b2)*g^2
        p <- p - lr * m_hat / (sqrt(v_hat) + eps)
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeMismatch("params, grads, and state must have matching lengths")
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ShapeMismatch(f"gradient shape {g.shape} does not match parameter {p.shape}")
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * np.square(g)
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
