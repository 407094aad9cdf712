"""Threshold calibration and the helicopter identification decision.

A track is called a helicopter only when BOTH gates pass: its window
reconstruction error stays below the calibrated MAE threshold, and its
runway-alignment score stays below the score gate.  Both inequalities are
strict, and both measured values are always reported so a reviewer can see
how close a track came to either gate.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autoencoder as ae
from . import runwayscore as rs
from . import trackdata as td

REASON_MAE = "mae_at_or_above_threshold"
REASON_SCORE = "runway_score_at_or_above"

MIN_CALIBRATION_VALUES = 10

DEFAULT_PERCENTILE = 80.0
DEFAULT_SCORE_THRESHOLD = 0.5


class IdentifyError(Exception):
    pass


class Unclassifiable(IdentifyError):
    """Track cannot be scored at all (windowing rejected it)."""

    def __init__(self, track_id: str, reason: str):
        super().__init__(f"track {track_id}: {reason}")
        self.track_id = track_id
        self.reason = reason


@dataclass(frozen=True)
class Thresholds:
    mae_threshold: float
    percentile: float = DEFAULT_PERCENTILE            # how mae_threshold was derived
    runway_score_threshold: float = DEFAULT_SCORE_THRESHOLD

    def __post_init__(self):
        if not 0 < self.mae_threshold <= sys.float_info.max:
            raise ValueError(f"mae_threshold must be finite and > 0, got {self.mae_threshold}")
        if not 0.0 < self.percentile <= 100.0:
            raise ValueError(f"percentile must lie in (0, 100], got {self.percentile}")
        if not (0.0 < self.runway_score_threshold <= 1.0):
            raise ValueError(
                f"runway_score_threshold must lie in (0, 1], got {self.runway_score_threshold}")


@dataclass(frozen=True)
class ClassificationResult:
    track_id: str
    mae: float
    runway_score: float
    pred_is_helicopter: bool
    reasons: tuple[str, ...]   # empty when predicted helicopter


def calibrate(training_maes: Sequence[float], percentile: float = DEFAULT_PERCENTILE) -> float:
    """MAE threshold at the given percentile of the training error histogram.

    Linear interpolation between order statistics; percentile 100 is the
    maximum.  Requires at least MIN_CALIBRATION_VALUES finite, non-negative
    values.
    """
    values = np.asarray(list(training_maes), dtype=float)
    if values.size < MIN_CALIBRATION_VALUES:
        raise IdentifyError(
            f"need at least {MIN_CALIBRATION_VALUES} training MAEs to calibrate, got {values.size}")
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise IdentifyError("training MAEs must be finite and non-negative")
    if not 0.0 < percentile <= 100.0:
        raise IdentifyError(f"percentile must lie in (0, 100], got {percentile}")
    return float(np.percentile(values, percentile, method="linear"))


def decide(track_id: str, mae_value: float, score: float, thresholds: Thresholds) -> ClassificationResult:
    """Apply the two-condition rule; ties fail their gate."""
    reasons = []
    if not mae_value < thresholds.mae_threshold:
        reasons.append(REASON_MAE)
    if not score < thresholds.runway_score_threshold:
        reasons.append(REASON_SCORE)
    return ClassificationResult(track_id, float(mae_value), float(score),
                                not reasons, tuple(reasons))


def _window_mae(model: ae.ModelParams, track: td.Track, runway: td.Runway) -> float:
    """Window, normalize and reconstruct one track; a WindowingError passes through, and a
    finite window whose error overflows is an IdentifyError naming the track."""
    if model.norm_stats is None:
        raise IdentifyError("model has no embedded normalization stats; train before using it")
    window = td.normalize(td.arrival_features(track, runway), model.norm_stats, track.track_id)
    with np.errstate(over="ignore", invalid="ignore"):   # thread-local: no global state is set
        error = ae.reconstruction_error(model, window.values)
    if not math.isfinite(error):
        raise IdentifyError(f"track {track.track_id}: reconstruction error is not finite")
    return error


def classify(model: ae.ModelParams, thresholds: Thresholds, track: td.Track,
             runway: td.Runway,
             score_params: rs.ScoreParams = rs.DEFAULT_SCORE_PARAMS) -> ClassificationResult:
    """Window, normalize, reconstruct, score, and gate one track."""
    try:
        mae_value = _window_mae(model, track, runway)   # window_mae counts calibration calls only
    except td.WindowingError as e:
        raise Unclassifiable(track.track_id, e.reason) from e
    score = rs.runway_score(rs.score_inputs_for_track(track, runway), score_params)
    return decide(track.track_id, mae_value, score, thresholds)


def classify_tracks(model: ae.ModelParams, thresholds: Thresholds, tracks: Sequence[td.Track],
                    runways: dict[str, td.Runway]) -> list[ClassificationResult | Unclassifiable]:
    """classify() each track on its td.pick_runway, in track order.

    A track that cannot be scored keeps its place as an Unclassifiable.
    """
    outcomes: list[ClassificationResult | Unclassifiable] = []
    for track in tracks:
        try:
            outcomes.append(classify(model, thresholds, track, td.pick_runway(track, runways)))
        except (Unclassifiable, td.WindowingError) as e:   # the latter pick_runway's, on no points
            outcomes.append(Unclassifiable(track.track_id, e.reason))   # without the traceback
    return outcomes


def window_mae(model: ae.ModelParams, track: td.Track, runway: td.Runway) -> float:
    """Reconstruction MAE only, for calibration runs over the training set."""
    return _window_mae(model, track, runway)


@dataclass(frozen=True)
class HistogramBin:
    lo: float
    hi: float
    count: int


def histogram_report(maes: Sequence[float], bins: int = 30) -> list[HistogramBin]:
    """Equal-width histogram of MAE values spanning [min, max]."""
    values = np.asarray(list(maes), dtype=float)
    if values.size == 0:
        raise IdentifyError("cannot build a histogram of zero MAE values")
    if not np.all(np.isfinite(values)):
        raise IdentifyError("MAE values must be finite")
    if bins < 1:
        raise IdentifyError(f"bins must be >= 1, got {bins}")
    counts, edges = np.histogram(values, bins=bins)
    return [HistogramBin(float(edges[i]), float(edges[i + 1]), int(counts[i]))
            for i in range(bins)]
