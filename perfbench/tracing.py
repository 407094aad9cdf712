"""In-memory span tracing around the program's public functions.

A span is [name, start, end, parent index]; the first part of the name is
the layer (the program module, or ``bench`` for the benchmark's own stage
spans).  Wrappers are installed on every module attribute that holds the
original function, so a name imported with ``from ... import`` is traced as
well as one looked up through its module.  Spans stay in memory and are
written out when the traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time

# Public functions traced per layer.  The per-point geometry helpers
# (en_offset_km, threshold_distance_nm, course_diff_deg) are left out on
# purpose: they run once per track point, so wrapping them would swamp the
# measurement; their cost shows as self time of the function that calls them.
TRACED = {
    "neuralcore": ("Conv1DLayer.forward", "Conv1DLayer.backward",
                   "ConvTranspose1DLayer.forward", "ConvTranspose1DLayer.backward",
                   "DenseLayer.forward", "DenseLayer.backward",
                   "relu_forward", "relu_backward", "mae", "mae_grad",
                   "adam_init", "adam_step"),
    "autoencoder": ("build", "train", "save", "load", "reconstruct", "reconstruction_error"),
    "trackdata": ("load_tracks", "load_runways", "load_registration", "closest_approach_index",
                  "window_arrival", "featurize", "fit_norm_stats", "normalize"),
    "runwayscore": ("score_inputs_for_track", "runway_score", "component_scores"),
    "identify": ("classify", "window_mae", "calibrate", "decide", "histogram_report"),
    "validate": ("load_heli_types", "join_registration", "confusion_metrics",
                 "rule_based_baseline", "venn_compare", "resolve_pseudo_types"),
}
LAYERS = tuple(TRACED) + ("bench",)

_DIRECTION = {"forward": "fwd", "backward": "bwd"}


def geometry(layer) -> str:
    """Shape key of a neuralcore layer, e.g. conv_k7s2_6to16 or dense_800to16."""
    kind = type(layer).__name__
    if kind == "DenseLayer":
        return f"dense_{layer.d_in}to{layer.d_out}"
    prefix = "convT" if kind == "ConvTranspose1DLayer" else "conv"
    return f"{prefix}_k{layer.kernel_size}s{layer.stride}_{layer.c_in}to{layer.c_out}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.shapes: dict[str, list] = {}   # neuralcore span name -> input shape, itemsize
        self._open = [-1]
        self._patched: list[tuple] = []

    def _wrap(self, fn, name_of):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([name_of(args), 0.0, 0.0, stack[-1]])
            stack.append(i)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[i][1] = start
                spans[i][2] = end
        return traced

    def run(self, name: str, fn, *args):
        """Call fn inside a span of the benchmark's own (a stage)."""
        return self._wrap(fn, lambda _: f"bench.{name}")(*args)

    def _layer_name(self, direction: str):
        shapes = self.shapes

        def name_of(args):
            layer, x = args[0], args[1]
            name = f"neuralcore.{geometry(layer)}.{direction}.b{x.shape[0]}"
            if name not in shapes:
                shapes[name] = [list(x.shape), x.dtype.itemsize]
            return name
        return name_of

    def install(self) -> None:
        """Wrap every traced function wherever the program's modules hold it."""
        for layer, names in TRACED.items():
            module = importlib.import_module(f"rotortrack.{layer}")
            for qualname in names:
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = getattr(owner, attr)
                    self._patch(owner, attr, original,
                                self._wrap(original, self._layer_name(_DIRECTION[attr])))
                    continue
                original = getattr(module, attr)
                name = f"{layer}.{attr}"
                wrapped = self._wrap(original, lambda _, name=name: name)
                holders = [m for key, m in list(sys.modules.items())
                           if key.startswith("rotortrack") or key in ("__main__", "pipeline")]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# --------------------------------------------------------------------------
# analysis of recorded spans (pure Python, runs in the orchestrating process)

def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part its child spans cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def computed_cost(name: str, shape: list, itemsize: int) -> tuple[float, float]:
    """(FLOPs, bytes moved) of one neuralcore call, computed from its shapes.

    Every kernel tap is counted, including taps over padding; bytes are one
    read of each input and weight array and one write of each output.
    """
    _, geom, direction, _ = name.split(".")
    if geom.startswith("dense"):
        d_in, d_out = (int(v) for v in geom[len("dense_"):].split("to"))
        b = shape[0]
        macs, bias = b * d_in * d_out, b * d_out
        ins, weights, outs = b * d_in, d_in * d_out + d_out, b * d_out
    else:
        kind, rest = geom.split("_", 1)
        ks, chans = rest.split("_")
        k, s = (int(v) for v in ks[1:].split("s"))
        c_in, c_out = (int(v) for v in chans.split("to"))
        b, length = shape[0], shape[1]
        out_len = math.ceil(length / s) if kind == "conv" else length * s
        taps_len = out_len if kind == "conv" else length
        macs, bias = b * taps_len * k * c_in * c_out, b * out_len * c_out
        ins, weights, outs = b * length * c_in, k * c_in * c_out + c_out, b * out_len * c_out
    if direction == "fwd":
        return 2.0 * macs + bias, float(itemsize * (ins + weights + outs))
    # input gradient and weight gradient, plus the bias gradient
    return 4.0 * macs + bias, float(itemsize * (2 * ins + 2 * weights + outs))
