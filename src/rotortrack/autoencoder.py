"""1-D convolutional autoencoder over arrival feature windows.

The encoder is a stack of strided convolutions feeding a dense bottleneck;
the decoder mirrors it with transposed convolutions and a linear final
layer, restoring exactly (window, feature) shaped output.  Training is
plain Adam on mean absolute reconstruction error with a validation split
and early stopping, fully deterministic for a fixed seed.  A training run
keeps every parameter in one flat vector, updated by one Adam step per
batch, and writes every pass's arrays into one reused nn.Workspace.
Inference scores one window per call, never a merged batch.

The architecture is one layer plan worked out from the spec by arithmetic
alone: the stages ``enc0..``, ``enc_dense``, ``dec_dense``, ``dec0..`` in
data-flow order, each a layer plus whether a ReLU follows it.  Building,
both passes, the parameter list and the model file walk that one list, and
the plan's stage names label the arrays in load's errors.

Models are stored in a single binary file: magic ``RTAE``, a format
version, a JSON header holding the spec, the raw little-endian bytes of
each stage's w and b in plan order, then the NormStats, and a trailing
SHA-256 checksum.  The spec fixes every array's shape and dtype, so loading
allocates no size claimed by a header and refuses a file whose array bytes
are not exactly the plan's.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass, field
from typing import ClassVar, NamedTuple, Optional, Sequence

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
FORMAT_VERSION = 2
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
    convolutions restore exactly input_len; a spec that cannot is refused
    at construction.  dtype is the arithmetic width of every layer.
    """

    input_len: int = WINDOW_LEN
    n_features: int = FEATURE_COUNT
    encoder_convs: tuple[tuple[int, int, int], ...] = ((7, 2, 16), (5, 2, 32))
    latent_dim: int = 16
    seed: int = 1107
    dtype: str = "float64"

    def __post_init__(self):
        # a bool or a whole float would save back as an int: only an int is a size
        sizes = (self.input_len, self.n_features, self.latent_dim, self.seed)
        if any(type(v) is not int for v in sizes):
            raise SpecError(f"input_len, n_features, latent_dim and seed must be ints, got {sizes}")
        if self.input_len < 1 or self.n_features < 1:
            raise SpecError("input_len and n_features must be >= 1")
        if self.latent_dim < 1:
            raise SpecError("latent_dim must be >= 1")
        if self.seed < 0:
            raise SpecError("seed must be >= 0")
        if not self.encoder_convs:
            raise SpecError("need at least one encoder conv stage")
        for stage in self.encoder_convs:
            if len(stage) != 3 or any(type(v) is not int or v < 1 for v in stage):
                raise SpecError(f"bad conv stage {stage!r}; want (kernel, stride, channels)")
        if self.dtype not in DTYPES:
            raise SpecError(f"unsupported dtype {self.dtype!r}; expected one of {DTYPES}")
        self.encoded_shape()

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


class Stage(NamedTuple):
    """One step of the layer plan: its layer and whether a ReLU follows."""

    layer: object  # nn.Conv1DLayer, nn.DenseLayer or nn.ConvTranspose1DLayer
    relu: bool    # whether a ReLU follows the layer


def _plan(spec: AutoencoderSpec) -> list[tuple[str, type, tuple[int, ...], bool]]:
    """(name, layer class, geometry, relu) per stage in data-flow order.

    Arithmetic only, so huge sizes claimed by a file header cost nothing
    here.  The decoder walks the encoder backwards; its last layer is linear.
    """
    top_len, top_ch = spec.encoded_shape()
    convs = spec.encoder_convs
    chans = [spec.n_features] + [c for _, _, c in convs]
    plan = [(f"enc{i}", nn.Conv1DLayer, (k, s, chans[i], c), True)
            for i, (k, s, c) in enumerate(convs)]
    plan += [("enc_dense", nn.DenseLayer, (top_len * top_ch, spec.latent_dim), False),
             ("dec_dense", nn.DenseLayer, (spec.latent_dim, top_len * top_ch), True)]
    plan += [(f"dec{len(convs) - 1 - i}", nn.ConvTranspose1DLayer,
              (k, s, chans[i + 1], chans[i]), i > 0)
             for i, (k, s, _) in reversed(list(enumerate(convs)))]
    return plan


@dataclass
class ModelParams:
    """A built autoencoder: spec, layer plan stages, and the training NormStats.

    The NormStats are embedded so inference needs only this object (plus a raw window).
    """

    spec: AutoencoderSpec
    stages: list[Stage] = field(repr=False)
    norm_stats: Optional[NormStats] = field(repr=False, default=None)

    def parameters(self) -> list[np.ndarray]:
        return [p for stage in self.stages for p in (stage.layer.w, stage.layer.b)]


@dataclass(frozen=True)
class TrainConfig:
    """The config's training section; nn.ADAM_LR and the ClassVars fix the other values."""

    validation_fraction: ClassVar[float] = 0.2
    batch_size: ClassVar[int] = 32
    patience: ClassVar[int] = 20

    epochs: int = 200
    seed: int = 7

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


MIN_TRAIN_WINDOWS = 32


def build(spec: AutoencoderSpec) -> ModelParams:
    """Assemble and initialize a model; weights are uniform, fan-in scaled."""
    rng = np.random.default_rng(spec.seed)
    return ModelParams(spec, [Stage(cls.init(rng, *geometry, dtype=spec.dtype), relu)
                              for _, cls, geometry, relu in _plan(spec)])


def _fit(layer, h: np.ndarray) -> np.ndarray:
    """h as (batch, features) for a dense layer, (batch, length, channels) for a conv."""
    if isinstance(layer, nn.DenseLayer):
        return h.reshape(len(h), layer.d_in)
    return h if h.ndim == 3 else h.reshape(len(h), h.shape[1] // layer.c_in, layer.c_in)


def _forward(model: ModelParams, x: np.ndarray, trail: Optional[list] = None,
             ws: Optional[nn.Workspace] = None) -> np.ndarray:
    """Run the stages in order, each ReLU in place on its layer's output.

    A trail list receives each stage's (stage, input, output) for _backward;
    the output after its ReLU also gives the ReLU's mask.  A workspace
    supplies every array the layers write.
    """
    h = x
    for stage in model.stages:
        h_in = _fit(stage.layer, h)
        h = stage.layer.forward(h_in, ws)
        if stage.relu:
            nn.relu_forward(h, out=h)
        if trail is not None:
            trail.append((stage, h_in, h))
    return h


def _backward(trail: list, grad_out: np.ndarray, ws: nn.Workspace) -> None:
    """Write every parameter's gradient into ws.grad, laid out like nn.flatten's vector.

    It pops _forward's trail list empty, freeing each stage's activations as it goes.
    """
    g = grad_out
    while trail:
        stage, h, out = trail.pop()
        g = g.reshape(out.shape)
        if stage.relu:
            # g came from the stage above: the plan's last stage has no ReLU
            nn.relu_backward(out, g, out=g)
        if trail:
            g = stage.layer.backward(h, g, ws)
        else:   # the first stage, a conv: nothing reads the input windows' gradient
            stage.layer.backward(h, g, ws, input_grad=False)


def reconstruct(model: ModelParams, window_values: np.ndarray) -> np.ndarray:
    """Reconstruction of exactly one normalized window; a merged stack changes the last bits."""
    v = np.asarray(window_values, dtype=model.spec.dtype)
    shape = (model.spec.input_len, model.spec.n_features)
    if v.shape != shape:
        raise AutoencoderError(f"expected one window shaped {shape}, got {v.shape}")
    return _forward(model, v[np.newaxis])[0]


def reconstruction_error(model: ModelParams, window_values: np.ndarray) -> float:
    """MAE between a normalized window and its reconstruction."""
    return nn.mae(window_values, reconstruct(model, window_values))


@dataclass(slots=True)
class EpochStats:
    epoch: int        # 1-based
    train_mae: float  # mean of batch losses across the epoch
    val_mae: float    # full pass over the validation split


def train(model: ModelParams, windows: Sequence[FeatureWindow],
          config: TrainConfig) -> list[EpochStats]:
    """Fit the model in place on helicopter windows; returns the loss history.

    Only windows tagged as helicopters are accepted, so mislabeled data
    fails fast rather than polluting the model.  A deterministic shuffle
    splits off the validation fraction; early stopping restores the
    weights of the best validation epoch.  Each layer's w and b become
    views of one flat vector (nn.flatten), so arrays taken from the model
    before training are not the trained ones.
    """
    if len(windows) < MIN_TRAIN_WINDOWS:
        raise AutoencoderError(f"need at least {MIN_TRAIN_WINDOWS} training windows, got {len(windows)}")
    for w in windows:
        if w.label != CLASS_HELICOPTER:
            raise AutoencoderError(
                f"window from track {w.source_track_id} is tagged {w.label!r}, not "
                f"{CLASS_HELICOPTER!r}; refusing to train on it")

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(windows))
    data = np.stack([windows[i].values for i in order], dtype=model.spec.dtype)
    # MIN_TRAIN_WINDOWS and the fixed fraction leave training windows after the split
    n_val = max(1, round(config.validation_fraction * len(data)))
    val, tr = data[:n_val], data[n_val:]

    # One flat vector holds every parameter, so one Adam update covers the
    # model; the workspace keeps every pass's arrays from step to step.
    layers = [stage.layer for stage in model.stages]
    flat = nn.flatten(layers)
    ws = nn.Workspace(layers)
    state = nn.adam_init(flat)
    val_rec = np.empty_like(val)   # the split's reconstruction, filled a batch at a time

    history: list[EpochStats] = []
    best_val = np.inf
    best_epoch = 0
    best_flat = flat.copy()

    for epoch in range(1, config.epochs + 1):
        idx = rng.permutation(len(tr))
        batch_losses = []
        for start in range(0, len(tr), config.batch_size):
            batch = tr[idx[start:start + config.batch_size]]
            trail: list = []
            rec = _forward(model, batch, trail, ws)
            loss = nn.mae(batch, rec)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}")
            batch_losses.append(loss)
            _backward(trail, nn.mae_grad(batch, rec), ws)
            nn.adam_step(flat, ws.grad, state)
        for start in range(0, len(val), config.batch_size):
            stop = start + config.batch_size
            val_rec[start:stop] = _forward(model, val[start:stop], ws=ws)
        val_mae = nn.mae(val, val_rec)
        if not np.isfinite(val_mae):
            raise TrainingDiverged(f"non-finite validation loss at epoch {epoch}")
        history.append(EpochStats(epoch, float(np.mean(batch_losses)), val_mae))
        if val_mae < best_val:
            best_val = val_mae
            best_epoch = epoch
            best_flat[...] = flat
        elif epoch - best_epoch >= config.patience:
            break

    flat[...] = best_flat
    return history


# --------------------------------------------------------------------------
# binary model container

def _layout(spec: AutoencoderSpec) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, dtype) per array in file order: each stage's w and b, then the NormStats."""
    layout = []
    for name, cls, geometry, _ in _plan(spec):
        w_shape = geometry if cls is nn.DenseLayer else (geometry[0], *geometry[2:])
        layout += [(f"{name}.w", w_shape, spec.dtype), (f"{name}.b", geometry[-1:], spec.dtype)]
    shape = (spec.input_len, spec.n_features)
    return layout + [("norm.mean", shape, "float64"), ("norm.std", shape, "float64")]


def _header(spec: AutoencoderSpec) -> bytes:
    """The JSON header save writes for spec, the one form load accepts; every file has stats."""
    return json.dumps({"spec": asdict(spec), "has_norm_stats": True},
                      separators=(",", ":")).encode("utf-8")


def save(model: ModelParams, path) -> None:
    """Write the model container; always safe to re-load bit-exactly."""
    if model.norm_stats is None:   # it could not score a raw window: refused before any write
        raise AutoencoderError("model has no normalization stats; set norm_stats before saving")
    header = _header(model.spec)
    arrays = model.parameters() + [model.norm_stats.mean, model.norm_stats.std]
    body = MAGIC + struct.pack("<II", FORMAT_VERSION, len(header)) + header
    body += b"".join(np.ascontiguousarray(arr, dtype=np.dtype(dtype).newbyteorder("<")).tobytes()
                     for arr, (_, _, dtype) in zip(arrays, _layout(model.spec)))
    with open(path, "wb") as fh:
        fh.write(body + hashlib.sha256(body).digest())


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

    # Past the checksum the bytes are intact but can still be malformed, or too
    # short to hold a header length: every defect becomes a ModelFormatError.
    pos = len(MAGIC) + 8
    header_len = int.from_bytes(body[pos - 4:pos], "little")
    try:
        header = json.loads(body[pos:pos + header_len].decode("utf-8"))
        d = header["spec"]   # values as they are, so a loaded spec saves back to this header
        spec = AutoencoderSpec(**{**d, "encoder_convs": tuple(map(tuple, d["encoder_convs"]))})
        layout = _layout(spec)
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError, SpecError) as e:
        raise ModelFormatError(f"malformed model file: {type(e).__name__}: {e}") from None

    # The spec fixes every array's size, so the file must hold exactly those bytes.
    pos += header_len
    arrays = []
    for name, shape, dtype in layout:
        count = math.prod(shape)
        end = pos + count * np.dtype(dtype).itemsize
        if end > len(body):
            raise ModelFormatError(f"model file ends inside array {name!r} {dtype}{shape}")
        arrays.append(np.frombuffer(body, np.dtype(dtype).newbyteorder("<"), count, pos)
                      .astype(dtype).reshape(shape))
        pos = end
    if pos != len(body):
        raise ModelFormatError(f"model file has {len(body) - pos} bytes after its last array")

    # One model, one file: a header that save would write otherwise (other separators,
    # key order or keys, or a stats flag other than true) would not round-trip.
    if body[len(MAGIC) + 8:len(MAGIC) + 8 + header_len] != _header(spec):
        raise ModelFormatError("malformed model file: its header is not the one save writes "
                               "for its model")
    it = iter(arrays)
    return ModelParams(spec, [Stage(cls(*geometry, w=next(it), b=next(it)), relu)
                              for _, cls, geometry, relu in _plan(spec)],
                       NormStats(mean=next(it), std=next(it)))
