"""1-D convolutional autoencoder over arrival feature windows.

The encoder is a stack of strided convolutions feeding a dense bottleneck;
the decoder mirrors it with transposed convolutions and a linear final
layer, restoring exactly (window, feature) shaped output.  Training is
plain Adam on mean absolute reconstruction error with a validation split
and early stopping, fully deterministic for a fixed seed.

Models are stored in a single binary file: magic ``RTAE``, a format
version, a JSON header describing the architecture, the weight arrays as
length-prefixed little-endian blocks, and a trailing SHA-256 checksum.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import neuralcore as nn
from .trackdata import (
    CLASS_HELICOPTER,
    FEATURE_COUNT,
    WINDOW_LEN,
    FeatureWindow,
    NormStats,
)

MAGIC = b"RTAE"
FORMAT_VERSION = 1
DTYPES = ("float32", "float64")


class AutoencoderError(Exception):
    """Base error for model assembly and training."""


class SpecError(AutoencoderError):
    """Architecture spec cannot produce a valid model."""


class TrainingDiverged(AutoencoderError):
    """Loss became non-finite during training."""


class ModelFormatError(AutoencoderError):
    """Model file is not readable as the expected format."""


class ChecksumError(ModelFormatError):
    """Model file bytes do not match the stored checksum."""


class VersionError(ModelFormatError):
    """Model file was written with an unsupported format version."""


@dataclass(frozen=True)
class AutoencoderSpec:
    """Architecture description; the decoder is always the encoder's mirror.

    encoder_convs lists (kernel_size, stride, channels) per stage.  Each
    stride must divide the incoming length so the mirrored transposed
    convolutions restore exactly input_len; build() rejects specs that
    cannot.  dtype is the arithmetic width of every layer.
    """

    input_len: int = WINDOW_LEN
    n_features: int = FEATURE_COUNT
    encoder_convs: tuple[tuple[int, int, int], ...] = ((7, 2, 16), (5, 2, 32))
    latent_dim: int = 16
    activation: str = "relu"
    seed: int = 1107
    dtype: str = "float64"

    def __post_init__(self):
        if self.input_len < 1 or self.n_features < 1:
            raise SpecError("input_len and n_features must be >= 1")
        if self.latent_dim < 1:
            raise SpecError("latent_dim must be >= 1")
        if not self.encoder_convs:
            raise SpecError("need at least one encoder conv stage")
        for stage in self.encoder_convs:
            if len(stage) != 3 or any(int(v) != v or v < 1 for v in stage):
                raise SpecError(f"bad conv stage {stage!r}; want (kernel, stride, channels)")
        if self.activation != "relu":
            raise SpecError(f"unsupported activation {self.activation!r}")
        if self.dtype not in DTYPES:
            raise SpecError(f"unsupported dtype {self.dtype!r}; expected one of {DTYPES}")

    def encoded_shape(self) -> tuple[int, int]:
        """(length, channels) at the top of the encoder."""
        length = self.input_len
        channels = self.n_features
        for k, s, c in self.encoder_convs:
            out = -(-length // s)
            if out * s != length:
                raise SpecError(
                    f"stride {s} does not divide length {length}; decoder cannot restore "
                    f"({self.input_len}, {self.n_features})")
            length, channels = out, c
        return length, channels

    def to_dict(self) -> dict:
        return {
            "input_len": self.input_len,
            "n_features": self.n_features,
            "encoder_convs": [list(stage) for stage in self.encoder_convs],
            "latent_dim": self.latent_dim,
            "activation": self.activation,
            "seed": self.seed,
            "dtype": self.dtype,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AutoencoderSpec":
        return cls(
            input_len=int(d["input_len"]),
            n_features=int(d["n_features"]),
            encoder_convs=tuple(tuple(int(v) for v in stage) for stage in d["encoder_convs"]),
            latent_dim=int(d["latent_dim"]),
            activation=str(d["activation"]),
            seed=int(d["seed"]),
            dtype=str(d["dtype"]),
        )


@dataclass
class ModelParams:
    """A built autoencoder: layers, spec, and the NormStats used at training.

    NormStats are embedded after training so inference needs only this
    object (plus a raw window).
    """

    spec: AutoencoderSpec
    encoder_convs: list = field(repr=False, default_factory=list)
    enc_dense: nn.DenseLayer = field(repr=False, default=None)
    dec_dense: nn.DenseLayer = field(repr=False, default=None)
    decoder_convs: list = field(repr=False, default_factory=list)
    norm_stats: Optional[NormStats] = field(repr=False, default=None)

    def parameters(self) -> list[np.ndarray]:
        params = []
        for layer in self.encoder_convs:
            params += [layer.w, layer.b]
        params += [self.enc_dense.w, self.enc_dense.b, self.dec_dense.w, self.dec_dense.b]
        for layer in self.decoder_convs:
            params += [layer.w, layer.b]
        return params


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    validation_fraction: float = 0.2
    patience: int = 20
    seed: int = 7

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.patience < 1:
            raise ValueError("epochs, batch_size, and patience must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie in (0, 1)")


MIN_TRAIN_WINDOWS = 32


def build(spec: AutoencoderSpec) -> ModelParams:
    """Assemble and initialize a model; weights are uniform, fan-in scaled."""
    top_len, top_ch = spec.encoded_shape()
    rng = np.random.default_rng(spec.seed)
    model = ModelParams(spec=spec)

    c_in = spec.n_features
    for k, s, c_out in spec.encoder_convs:
        model.encoder_convs.append(nn.Conv1DLayer.init(rng, k, s, c_in, c_out, dtype=spec.dtype))
        c_in = c_out
    flat = top_len * top_ch
    model.enc_dense = nn.DenseLayer.init(rng, flat, spec.latent_dim, spec.dtype)
    model.dec_dense = nn.DenseLayer.init(rng, spec.latent_dim, flat, spec.dtype)

    # Mirror of the encoder: channel plan walks back to n_features.
    stages = list(spec.encoder_convs)
    for i in range(len(stages) - 1, -1, -1):
        k, s, _ = stages[i]
        c_out = stages[i - 1][2] if i > 0 else spec.n_features
        model.decoder_convs.append(nn.ConvTranspose1DLayer.init(rng, k, s, c_in, c_out, dtype=spec.dtype))
        c_in = c_out

    probe = np.zeros((2, spec.input_len, spec.n_features), dtype=spec.dtype)
    out = _forward(model, probe)
    if out.shape != probe.shape:
        raise SpecError(f"decoder restores {out.shape[1:]}, expected "
                        f"({spec.input_len}, {spec.n_features})")
    return model


def _forward(model: ModelParams, x: np.ndarray, cache: Optional[dict] = None) -> np.ndarray:
    h = x
    if cache is not None:
        cache["enc_in"], cache["enc_pre"] = [], []
    for layer in model.encoder_convs:
        if cache is not None:
            cache["enc_in"].append(h)
        z = layer.forward(h)
        if cache is not None:
            cache["enc_pre"].append(z)
        h = nn.relu_forward(z)
    b, top_len, top_ch = h.shape
    flat = h.reshape(b, top_len * top_ch)
    latent = model.enc_dense.forward(flat)
    dec_pre = model.dec_dense.forward(latent)
    dh = nn.relu_forward(dec_pre).reshape(b, top_len, top_ch)
    if cache is not None:
        cache.update(flat=flat, latent=latent, dec_pre=dec_pre,
                     top_shape=(top_len, top_ch), dec_in=[], dec_pre_acts=[])
    last = len(model.decoder_convs) - 1
    for i, layer in enumerate(model.decoder_convs):
        if cache is not None:
            cache["dec_in"].append(dh)
        z = layer.forward(dh)
        if i == last:
            dh = z   # linear output layer
        else:
            if cache is not None:
                cache["dec_pre_acts"].append(z)
            dh = nn.relu_forward(z)
    return dh


def _backward(model: ModelParams, cache: dict, grad_out: np.ndarray) -> list[np.ndarray]:
    """Gradients aligned with ModelParams.parameters() order."""
    dec_grads = []
    g = grad_out
    last = len(model.decoder_convs) - 1
    for i in range(last, -1, -1):
        if i != last:
            g = nn.relu_backward(cache["dec_pre_acts"][i], g)
        gx, gw, gb = model.decoder_convs[i].backward(cache["dec_in"][i], g)
        dec_grads.append((gw, gb))
        g = gx
    b = g.shape[0]
    g = g.reshape(b, -1)
    g = nn.relu_backward(cache["dec_pre"], g)
    g, gw_dd, gb_dd = model.dec_dense.backward(cache["latent"], g)
    g, gw_ed, gb_ed = model.enc_dense.backward(cache["flat"], g)
    top_len, top_ch = cache["top_shape"]
    g = g.reshape(b, top_len, top_ch)
    enc_grads = []
    for i in range(len(model.encoder_convs) - 1, -1, -1):
        g = nn.relu_backward(cache["enc_pre"][i], g)
        gx, gw, gb = model.encoder_convs[i].backward(cache["enc_in"][i], g)
        enc_grads.append((gw, gb))
        g = gx

    grads: list[np.ndarray] = []
    for gw, gb in reversed(enc_grads):
        grads += [gw, gb]
    grads += [gw_ed, gb_ed, gw_dd, gb_dd]
    for gw, gb in reversed(dec_grads):
        grads += [gw, gb]
    return grads


def _as_batch(window_values: np.ndarray, model: ModelParams) -> np.ndarray:
    v = np.asarray(window_values, dtype=model.enc_dense.w.dtype)
    if v.ndim == 2:
        v = v[np.newaxis]
    if v.ndim != 3 or v.shape[1:] != (model.spec.input_len, model.spec.n_features):
        raise AutoencoderError(
            f"expected windows shaped ({model.spec.input_len}, {model.spec.n_features}), got {v.shape}")
    return v


def encode(model: ModelParams, window_values: np.ndarray) -> np.ndarray:
    """Latent vector for one normalized window (or a batch of them)."""
    x = _as_batch(window_values, model)
    h = x
    for layer in model.encoder_convs:
        h = nn.relu_forward(layer.forward(h))
    latent = model.enc_dense.forward(h.reshape(h.shape[0], -1))
    return latent[0] if np.asarray(window_values).ndim == 2 else latent


def reconstruct(model: ModelParams, window_values: np.ndarray) -> np.ndarray:
    """Autoencoder reconstruction of one normalized window (or a batch)."""
    x = _as_batch(window_values, model)
    out = _forward(model, x)
    return out[0] if np.asarray(window_values).ndim == 2 else out


def reconstruction_error(model: ModelParams, window_values: np.ndarray) -> float:
    """MAE between a normalized window and its reconstruction."""
    x = np.asarray(window_values)
    if x.ndim != 2:
        raise AutoencoderError("reconstruction_error takes a single window")
    return nn.mae(x, reconstruct(model, x))


@dataclass(slots=True)
class EpochStats:
    epoch: int        # 1-based
    train_mae: float  # mean of batch losses across the epoch
    val_mae: float    # full pass over the validation split


def train(model: ModelParams, windows: Sequence[FeatureWindow],
          config: TrainConfig = TrainConfig()) -> list[EpochStats]:
    """Fit the model in place on helicopter windows; returns the loss history.

    Only windows tagged as helicopters are accepted, so mislabeled data
    fails fast rather than polluting the model.  A deterministic shuffle
    splits off the validation fraction; early stopping restores the
    weights of the best validation epoch.
    """
    if len(windows) < MIN_TRAIN_WINDOWS:
        raise AutoencoderError(f"need at least {MIN_TRAIN_WINDOWS} training windows, got {len(windows)}")
    for w in windows:
        if w.label != CLASS_HELICOPTER:
            raise AutoencoderError(
                f"window from track {w.source_track_id} is tagged {w.label!r}, not "
                f"{CLASS_HELICOPTER!r}; refusing to train on it")

    dtype = model.enc_dense.w.dtype
    data = np.stack([w.values for w in windows]).astype(dtype)
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(data))
    n_val = max(1, round(config.validation_fraction * len(data)))
    if n_val >= len(data):
        raise AutoencoderError("validation split leaves no training windows")
    val = data[order[:n_val]]
    tr = data[order[n_val:]]

    params = model.parameters()
    state = nn.adam_init(params, lr=config.learning_rate, beta1=config.beta1,
                         beta2=config.beta2, eps=config.eps)

    history: list[EpochStats] = []
    best_val = np.inf
    best_epoch = 0
    best_params: list[np.ndarray] = [p.copy() for p in params]

    for epoch in range(1, config.epochs + 1):
        idx = rng.permutation(len(tr))
        batch_losses = []
        for start in range(0, len(tr), config.batch_size):
            batch = tr[idx[start:start + config.batch_size]]
            cache: dict = {}
            rec = _forward(model, batch, cache)
            loss = nn.mae(batch, rec)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}")
            batch_losses.append(loss)
            grads = _backward(model, cache, nn.mae_grad(batch, rec))
            nn.adam_step(params, grads, state)
        val_mae = nn.mae(val, _forward(model, val))
        if not np.isfinite(val_mae):
            raise TrainingDiverged(f"non-finite validation loss at epoch {epoch}")
        history.append(EpochStats(epoch, float(np.mean(batch_losses)), val_mae))
        if val_mae < best_val:
            best_val = val_mae
            best_epoch = epoch
            best_params = [p.copy() for p in params]
        elif epoch - best_epoch >= config.patience:
            break

    for p, bp in zip(params, best_params):
        p[...] = bp
    return history


# --------------------------------------------------------------------------
# binary model container

def _pack_array(name: str, arr: np.ndarray) -> bytes:
    payload = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes()
    name_b = name.encode("utf-8")
    dtype_b = arr.dtype.name.encode("utf-8")   # e.g. float64
    head = struct.pack("<I", len(name_b)) + name_b
    head += struct.pack("<I", len(dtype_b)) + dtype_b
    head += struct.pack("<I", arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
    head += struct.pack("<Q", len(payload))
    return head + payload


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise ModelFormatError("model file ends unexpectedly")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def _named_arrays(model: ModelParams) -> list[tuple[str, np.ndarray]]:
    named = []
    for i, layer in enumerate(model.encoder_convs):
        named += [(f"enc{i}.w", layer.w), (f"enc{i}.b", layer.b)]
    named += [("enc_dense.w", model.enc_dense.w), ("enc_dense.b", model.enc_dense.b),
              ("dec_dense.w", model.dec_dense.w), ("dec_dense.b", model.dec_dense.b)]
    for i, layer in enumerate(model.decoder_convs):
        named += [(f"dec{i}.w", layer.w), (f"dec{i}.b", layer.b)]
    if model.norm_stats is not None:
        named += [("norm.mean", model.norm_stats.mean), ("norm.std", model.norm_stats.std)]
    return named


def save(model: ModelParams, path) -> None:
    """Write the model container; always safe to re-load bit-exactly."""
    dtype_name = str(model.enc_dense.w.dtype)
    header = json.dumps({
        "spec": model.spec.to_dict(),
        "dtype": dtype_name,
        "has_norm_stats": model.norm_stats is not None,
    }, separators=(",", ":")).encode("utf-8")
    arrays = _named_arrays(model)
    body = MAGIC
    body += struct.pack("<I", FORMAT_VERSION)
    body += struct.pack("<I", len(header)) + header
    body += struct.pack("<I", len(arrays))
    for name, arr in arrays:
        body += _pack_array(name, arr)
    digest = hashlib.sha256(body).digest()
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(digest)


def load(path) -> ModelParams:
    """Read a model container, verifying magic, version, and checksum."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(MAGIC) + 4 + 32:
        raise ChecksumError("model file too short to contain a checksum")
    body, digest = raw[:-32], raw[-32:]
    if body[:len(MAGIC)] != MAGIC:
        raise ModelFormatError(f"bad magic {body[:len(MAGIC)]!r}; not a model file")
    version = struct.unpack("<I", body[len(MAGIC):len(MAGIC) + 4])[0]
    if version != FORMAT_VERSION:
        raise VersionError(f"unsupported model format version {version}")
    if hashlib.sha256(body).digest() != digest:
        raise ChecksumError("model file checksum mismatch (corrupted or truncated)")

    r = _Reader(body)
    r.take(len(MAGIC) + 4)
    # Past the checksum the bytes are intact but can still be malformed:
    # every decoding defect becomes a ModelFormatError.
    try:
        header = json.loads(r.take(r.u32()).decode("utf-8"))
        spec = AutoencoderSpec.from_dict({**header["spec"], "dtype": header["dtype"]})
        has_norm_stats = header["has_norm_stats"]
        arrays: dict[str, np.ndarray] = {}
        for _ in range(r.u32()):
            name = r.take(r.u32()).decode("utf-8")
            dtype = np.dtype(r.take(r.u32()).decode("utf-8"))
            shape = tuple(r.u32() for _ in range(r.u32()))
            payload = r.take(r.u64())
            arrays[name] = np.frombuffer(payload, dtype=dtype.newbyteorder("<")).astype(dtype).reshape(shape)
        model = build(spec)
    except (KeyError, TypeError, ValueError, OverflowError, SpecError) as e:
        raise ModelFormatError(f"malformed model file: {type(e).__name__}: {e}") from None

    def fetch(name: str, like: np.ndarray) -> np.ndarray:
        if name not in arrays:
            raise ModelFormatError(f"model file missing array {name!r}")
        arr = arrays[name]
        if arr.shape != like.shape or arr.dtype != like.dtype:
            raise ModelFormatError(f"array {name!r} is {arr.dtype}{arr.shape}, "
                                   f"expected {like.dtype}{like.shape}")
        return arr

    for i, layer in enumerate(model.encoder_convs):
        layer.w = fetch(f"enc{i}.w", layer.w)
        layer.b = fetch(f"enc{i}.b", layer.b)
    model.enc_dense.w = fetch("enc_dense.w", model.enc_dense.w)
    model.enc_dense.b = fetch("enc_dense.b", model.enc_dense.b)
    model.dec_dense.w = fetch("dec_dense.w", model.dec_dense.w)
    model.dec_dense.b = fetch("dec_dense.b", model.dec_dense.b)
    for i, layer in enumerate(model.decoder_convs):
        layer.w = fetch(f"dec{i}.w", layer.w)
        layer.b = fetch(f"dec{i}.b", layer.b)
    if has_norm_stats:
        shape = (spec.input_len, spec.n_features)
        like = np.empty(shape)
        model.norm_stats = NormStats(mean=fetch("norm.mean", like), std=fetch("norm.std", like))
    return model
