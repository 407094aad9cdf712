"""Runway-alignment confidence score.

Five bounded component scores measure how much a track behaves like a
runway arrival at its point of closest approach: proximity to the
threshold, course agreement with the centerline, lateral deviation from
the extended centerline, runway length, and whether a runway was posted in
the controller scratchpad.  Their weighted mean lies in [0, 1]; fixed-wing
arrivals score high, so helicopter candidates must stay *below* the gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .trackdata import (
    FT_PER_KM,
    Runway,
    Track,
    closest_approach_index,
    course_diff_deg,
    en_offset_km,
)


@dataclass(frozen=True)
class ScoreParams:
    """Component scales and weights; defaults match the shipped configuration.

    distance decays as exp(-d / distance_scale_nm); course and lateral
    components fall linearly to zero at their full-scale values; length
    saturates at length_full_scale_ft.  Weights must sum to 1.
    """

    distance_scale_nm: float = 1.0
    course_full_scale_deg: float = 30.0
    lateral_full_scale_ft: float = 500.0
    length_full_scale_ft: float = 3000.0
    weights: tuple[float, float, float, float, float] = (0.3, 0.25, 0.25, 0.1, 0.1)

    def __post_init__(self):
        if min(self.distance_scale_nm, self.course_full_scale_deg,
               self.lateral_full_scale_ft, self.length_full_scale_ft) <= 0:
            raise ValueError("score scales must be positive")
        if len(self.weights) != 5 or any(w < 0 for w in self.weights):
            raise ValueError("need 5 non-negative weights")
        if not math.isclose(sum(self.weights), 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"weights must sum to 1, got {sum(self.weights)}")


DEFAULT_SCORE_PARAMS = ScoreParams()


@dataclass(frozen=True)
class RunwayScoreInputs:
    distance_nm: float               # closest approach to threshold, >= 0
    runway_length_ft: float          # > 0
    course_diff_deg: float           # folded into [0, 180]
    lateral_deviation_ft: float      # distance from extended centerline, >= 0
    scratchpad_runway_reported: bool

    def __post_init__(self):
        if self.distance_nm < 0 or not math.isfinite(self.distance_nm):
            raise ValueError(f"distance_nm must be finite and >= 0, got {self.distance_nm}")
        if self.runway_length_ft <= 0 or not math.isfinite(self.runway_length_ft):
            raise ValueError(f"runway_length_ft must be finite and > 0, got {self.runway_length_ft}")
        if not 0 <= self.course_diff_deg <= 180:
            raise ValueError(f"course_diff_deg must lie in [0, 180], got {self.course_diff_deg}")
        if self.lateral_deviation_ft < 0 or not math.isfinite(self.lateral_deviation_ft):
            raise ValueError(f"lateral_deviation_ft must be >= 0, got {self.lateral_deviation_ft}")


def component_scores(inputs: RunwayScoreInputs,
                     params: ScoreParams = DEFAULT_SCORE_PARAMS) -> tuple[float, float, float, float, float]:
    """(distance, course, lateral, length, scratchpad) factors, each in [0, 1]."""
    f_dist = math.exp(-inputs.distance_nm / params.distance_scale_nm)
    f_course = max(0.0, 1.0 - inputs.course_diff_deg / params.course_full_scale_deg)
    f_lat = max(0.0, 1.0 - inputs.lateral_deviation_ft / params.lateral_full_scale_ft)
    f_len = min(1.0, inputs.runway_length_ft / params.length_full_scale_ft)
    f_scratch = 1.0 if inputs.scratchpad_runway_reported else 0.0
    return f_dist, f_course, f_lat, f_len, f_scratch


def runway_score(inputs: RunwayScoreInputs,
                 params: ScoreParams = DEFAULT_SCORE_PARAMS) -> float:
    """Weighted mean of the five component scores, in [0, 1]."""
    factors = component_scores(inputs, params)
    return float(sum(w * f for w, f in zip(params.weights, factors)))


def score_inputs_for_track(track: Track, runway: Runway) -> RunwayScoreInputs:
    """Measure the score inputs at the track's point of closest approach."""
    idx, dist_nm = closest_approach_index(track, runway)
    _, lat, lon, _, course, _ = track.points[idx].item()
    east, north = en_offset_km(lat, lon, runway.threshold_lat, runway.threshold_lon)
    theta = math.radians(runway.centerline_course)
    # cross-track distance from the line through the threshold along the centerline
    cross_km = east * math.cos(theta) - north * math.sin(theta)
    return RunwayScoreInputs(
        distance_nm=dist_nm,
        runway_length_ft=runway.length,
        course_diff_deg=course_diff_deg(course, runway.centerline_course),
        lateral_deviation_ft=abs(cross_km) * FT_PER_KM,
        scratchpad_runway_reported=bool(track.scratchpad_runway),
    )
