"""Surveillance-track domain types, file IO, and feature extraction.

Tracks arrive as JSON Lines, one track per line; runways and aircraft
registration rows arrive as CSV.  Arrival windows are the last 100 track
points at or before the point of closest approach to the runway threshold.
All functions here are pure and safe to call concurrently on shared,
already-loaded data.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

EARTH_RADIUS_KM = 6371.0088
KM_PER_NM = 1.852
FT_PER_KM = 3280.839895013123

WINDOW_LEN = 100          # arrival window length in track points
FEATURE_COUNT = 6         # features per point, see featurize()
MAX_APPROACH_NM = 10.0    # beyond this the track never approached the runway

CLASS_HELICOPTER = "helicopter"
CLASS_GA = "ga"
CLASS_COMMERCIAL = "commercial"
TRACK_CLASSES = (CLASS_HELICOPTER, CLASS_GA, CLASS_COMMERCIAL)


class TrackDataError(Exception):
    """Base error for this module."""


class MalformedRecord(TrackDataError):
    """A line or row that cannot be used, with its 1-based position."""

    def __init__(self, position: int, message: str):
        super().__init__(f"line {position}: {message}")
        self.position = position
        self.reason = message


class WindowingError(TrackDataError):
    """Base for arrival-window rejections."""


class FewerThan100Points(WindowingError):
    """Track has fewer than 100 points at or before closest approach."""


class NoApproach(WindowingError):
    """Track never comes within MAX_APPROACH_NM of the runway threshold."""


class ZeroVarianceFeature(TrackDataError):
    """A feature had (near-)zero variance when fitting normalization stats."""


class AircraftClass(Enum):
    ROTORCRAFT = "ROTORCRAFT"
    FIXED_WING = "FIXED_WING"
    OTHER = "OTHER"


@dataclass(slots=True)
class TrackPoint:
    t: float        # seconds since epoch
    lat: float      # degrees, [-90, 90]
    lon: float      # degrees, [-180, 180]
    alt: float      # feet MSL
    course: float   # degrees, [0, 360)
    gs: float       # groundspeed, knots, >= 0


@dataclass(slots=True)
class Track:
    track_id: str
    points: list[TrackPoint]
    callsign: Optional[str] = None
    mode_s: Optional[str] = None
    tail_number: Optional[str] = None
    declared_type: Optional[str] = None   # "aircraft_type" on the wire
    arrival_airport: Optional[str] = None
    runway_id: Optional[str] = None
    scratchpad_runway: Optional[bool] = None


@dataclass(slots=True, frozen=True)
class Runway:
    """Fixed runway geometry; immutable and hashable, so it can be a field default."""

    runway_id: str
    threshold_lat: float
    threshold_lon: float
    threshold_elev: float      # feet MSL
    centerline_course: float   # degrees, direction of landing traffic
    length: float              # feet


@dataclass(slots=True)
class RegistrationRecord:
    n_number: str
    mode_s_code: Optional[str]
    model: Optional[str]
    manufacturer: Optional[str]
    aircraft_class: AircraftClass
    type_designator: Optional[str]


@dataclass(slots=True)
class FeatureWindow:
    """A fixed-length (WINDOW_LEN, FEATURE_COUNT) feature matrix for one track."""

    values: np.ndarray
    source_track_id: str
    label: Optional[str] = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (WINDOW_LEN, FEATURE_COUNT):
            raise TrackDataError(
                f"feature window must be ({WINDOW_LEN}, {FEATURE_COUNT}), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise TrackDataError("feature window contains non-finite values")
        self.values = v


@dataclass(slots=True)
class NormStats:
    """Z-score statistics per input cell (window row x feature), training split only."""

    mean: np.ndarray   # (WINDOW_LEN, FEATURE_COUNT)
    std: np.ndarray    # (WINDOW_LEN, FEATURE_COUNT), all > 0


# --------------------------------------------------------------------------
# geometry helpers

def en_offset_km(lat: float, lon: float, ref_lat: float, ref_lon: float) -> tuple[float, float]:
    """(east, north) km offset of a point from a reference, local tangent plane."""
    north = math.radians(lat - ref_lat) * EARTH_RADIUS_KM
    east = math.radians(lon - ref_lon) * EARTH_RADIUS_KM * math.cos(math.radians(ref_lat))
    return east, north


def threshold_distance_nm(point: TrackPoint, runway: Runway) -> float:
    east, north = en_offset_km(point.lat, point.lon, runway.threshold_lat, runway.threshold_lon)
    return math.hypot(east, north) / KM_PER_NM


def closest_approach_index(track: Track, runway: Runway) -> tuple[int, float]:
    """Index of the point nearest the runway threshold (first index on ties)."""
    if not track.points:
        raise FewerThan100Points(f"track {track.track_id} has no points")
    best_i = 0
    best_d = math.inf
    for i, p in enumerate(track.points):
        d = threshold_distance_nm(p, runway)
        if d < best_d:
            best_i, best_d = i, d
    return best_i, best_d


def course_diff_deg(a: float, b: float) -> float:
    """Absolute angular difference of two courses, folded into [0, 180]."""
    return abs((a - b + 180.0) % 360.0 - 180.0)


# --------------------------------------------------------------------------
# track file IO

_POINT_KEYS = ("t", "lat", "lon", "alt", "course", "gs")


def _point_error(d: dict) -> Optional[str]:
    for k in _POINT_KEYS:
        if k not in d:
            return f"point missing field {k!r}"
        if not isinstance(d[k], (int, float)) or isinstance(d[k], bool):
            return f"point field {k!r} is not a number"
        if not math.isfinite(d[k]):
            return f"point field {k!r} is not finite"
    if not -90.0 <= d["lat"] <= 90.0:
        return f"lat {d['lat']} out of [-90, 90]"
    if not -180.0 <= d["lon"] <= 180.0:
        return f"lon {d['lon']} out of [-180, 180]"
    if not 0.0 <= d["course"] < 360.0:
        return f"course {d['course']} out of [0, 360)"
    if d["gs"] < 0.0:
        return f"gs {d['gs']} is negative"
    return None


def _parse_track(obj: dict) -> tuple[Optional[Track], Optional[str]]:
    if not isinstance(obj, dict):
        return None, "record is not a JSON object"
    track_id = obj.get("track_id")
    if not isinstance(track_id, str) or not track_id:
        return None, "missing or empty track_id"
    raw_points = obj.get("points")
    if not isinstance(raw_points, list) or not raw_points:
        return None, "missing or empty points array"
    points = []
    prev_t = None
    for i, rp in enumerate(raw_points):
        if not isinstance(rp, dict):
            return None, f"point {i} is not an object"
        err = _point_error(rp)
        if err is not None:
            return None, f"point {i}: {err}"
        if prev_t is not None and rp["t"] <= prev_t:
            return None, f"point {i}: time not strictly increasing"
        prev_t = rp["t"]
        points.append(TrackPoint(float(rp["t"]), float(rp["lat"]), float(rp["lon"]),
                                 float(rp["alt"]), float(rp["course"]), float(rp["gs"])))
    scratch = obj.get("scratchpad_runway")
    if scratch is not None and not isinstance(scratch, bool):
        return None, "scratchpad_runway must be a boolean when present"
    for key in ("callsign", "mode_s", "tail_number", "aircraft_type", "arrival_airport", "runway_id"):
        val = obj.get(key)
        if val is not None and not isinstance(val, str):
            return None, f"{key} must be a string when present"
    return Track(
        track_id=track_id,
        points=points,
        callsign=obj.get("callsign"),
        mode_s=obj.get("mode_s"),
        tail_number=obj.get("tail_number"),
        declared_type=obj.get("aircraft_type"),
        arrival_airport=obj.get("arrival_airport"),
        runway_id=obj.get("runway_id"),
        scratchpad_runway=scratch,
    ), None


@dataclass(slots=True)
class LoadResult:
    tracks: list[Track]
    rejects: list[tuple[int, str]]   # (1-based line number, reason)


def load_tracks(path, strict: bool = False) -> LoadResult:
    """Read a JSON Lines track file.

    Bad lines are reported in LoadResult.rejects; with strict=True the first
    bad line aborts the load with MalformedRecord instead.
    """
    tracks: list[Track] = []
    rejects: list[tuple[int, str]] = []
    seen_ids: set[str] = set()

    def reject(line_no: int, reason: str):
        if strict:
            raise MalformedRecord(line_no, reason)
        rejects.append((line_no, reason))

    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                reject(line_no, f"invalid JSON: {e.msg}")
                continue
            track, err = _parse_track(obj)
            if err is not None:
                reject(line_no, err)
                continue
            if track.track_id in seen_ids:
                reject(line_no, f"duplicate track_id {track.track_id!r}")
                continue
            seen_ids.add(track.track_id)
            tracks.append(track)
    return LoadResult(tracks, rejects)


def track_to_json(track: Track) -> str:
    """One JSONL line for a track; None-valued optionals are omitted."""
    obj: dict = {"track_id": track.track_id}
    for key, val in (("callsign", track.callsign), ("mode_s", track.mode_s),
                     ("tail_number", track.tail_number), ("aircraft_type", track.declared_type),
                     ("arrival_airport", track.arrival_airport), ("runway_id", track.runway_id),
                     ("scratchpad_runway", track.scratchpad_runway)):
        if val is not None:
            obj[key] = val
    obj["points"] = [{"t": p.t, "lat": p.lat, "lon": p.lon, "alt": p.alt,
                      "course": p.course, "gs": p.gs} for p in track.points]
    return json.dumps(obj, separators=(",", ":"))


def save_tracks(tracks: Sequence[Track], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for track in tracks:
            fh.write(track_to_json(track))
            fh.write("\n")


# --------------------------------------------------------------------------
# arrival windowing and features

def window_arrival(track: Track, runway: Runway) -> list[TrackPoint]:
    """The last WINDOW_LEN points at or before closest approach, oldest first.

    Raises NoApproach if the track never comes within MAX_APPROACH_NM of the
    threshold, FewerThan100Points if the approach history is too short.
    Points are never padded or resampled.
    """
    idx, dist = closest_approach_index(track, runway)
    if dist > MAX_APPROACH_NM:
        raise NoApproach(
            f"track {track.track_id}: closest approach {dist:.2f} NM exceeds {MAX_APPROACH_NM} NM")
    if idx + 1 < WINDOW_LEN:
        raise FewerThan100Points(
            f"track {track.track_id}: only {idx + 1} points at or before closest approach")
    return track.points[idx + 1 - WINDOW_LEN:idx + 1]


def pick_runway(track: Track, runways: dict[str, Runway]) -> Runway:
    """The track's runway_id when the table holds it, else the nearest threshold."""
    if track.runway_id in runways:
        return runways[track.runway_id]
    return min(runways.values(), key=lambda rw: closest_approach_index(track, rw)[1])


def per_helicopter(tracks: Sequence[Track], labels: dict[str, str], runways: dict[str, Runway],
                   fn: Callable[[Track, Runway], object]) -> tuple[dict[str, object], list]:
    """({track id: fn(track, its pick_runway)}, skipped) over the helicopter-labelled tracks.

    skipped holds (track id, WindowingError) per track fn cannot window; both keep track order.
    """
    out, skipped = {}, []
    for track in tracks:
        if labels.get(track.track_id) == CLASS_HELICOPTER:
            try:
                out[track.track_id] = fn(track, pick_runway(track, runways))
            except WindowingError as e:
                skipped.append((track.track_id, e))
    return out, skipped


def arrival_features(track: Track, runway: Runway) -> np.ndarray:
    """featurize() of the track's arrival window."""
    return featurize(window_arrival(track, runway), runway)


def featurize(points: Sequence[TrackPoint], runway: Runway) -> np.ndarray:
    """Per-point feature vectors relative to the runway, shape (len(points), 6).

    Columns: east offset (km), north offset (km), height above threshold
    (kilofeet), groundspeed (kt/100), sin and cos of course minus centerline.
    """
    out = np.empty((len(points), FEATURE_COUNT), dtype=float)
    for i, p in enumerate(points):
        east, north = en_offset_km(p.lat, p.lon, runway.threshold_lat, runway.threshold_lon)
        dc = math.radians(p.course - runway.centerline_course)
        out[i] = (east, north, (p.alt - runway.threshold_elev) / 1000.0,
                  p.gs / 100.0, math.sin(dc), math.cos(dc))
    return out


_MIN_STD = 1e-12


def fit_norm_stats(raw_windows: Sequence[np.ndarray]) -> NormStats:
    """Fit per-cell mean/std over raw training windows (population std).

    Raises ZeroVarianceFeature when any feature has a cell whose std is
    (numerically) zero, e.g. a constant feature column or a single window.
    """
    if not raw_windows:
        raise ZeroVarianceFeature("cannot fit normalization stats on zero windows")
    stack = np.stack([np.asarray(w, dtype=float) for w in raw_windows])
    if stack.shape[1:] != (WINDOW_LEN, FEATURE_COUNT):
        raise TrackDataError(f"windows must be ({WINDOW_LEN}, {FEATURE_COUNT}), got {stack.shape[1:]}")
    mean = stack.mean(axis=0)
    std = stack.std(axis=0)
    dead = np.flatnonzero((std <= _MIN_STD).any(axis=0))
    if dead.size:
        raise ZeroVarianceFeature(f"features with zero variance: {dead.tolist()}")
    return NormStats(mean=mean, std=std)


def normalize(raw_window: np.ndarray, stats: NormStats, source_track_id: str,
              label: Optional[str] = None) -> FeatureWindow:
    """Z-score a raw window with training-split stats."""
    v = np.asarray(raw_window, dtype=float)
    if v.shape != (WINDOW_LEN, FEATURE_COUNT):
        raise TrackDataError(f"window must be ({WINDOW_LEN}, {FEATURE_COUNT}), got {v.shape}")
    return FeatureWindow((v - stats.mean) / stats.std, source_track_id, label)


# --------------------------------------------------------------------------
# label, runway and registration tables

def _csv_rows(fh, fields: tuple[str, ...], what: str) -> csv.DictReader:
    """A DictReader over fh whose header must be fields."""
    reader = csv.DictReader(fh)
    if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != list(fields):
        raise MalformedRecord(1, f"{what} header must be {','.join(fields)}")
    return reader


def load_labels(path) -> dict[str, str]:
    """{track_id: class} from a track_id,class CSV."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return {r["track_id"]: r["class"] for r in _csv_rows(fh, ("track_id", "class"), "labels")}


_RUNWAY_FIELDS = ("runway_id", "threshold_lat", "threshold_lon",
                  "threshold_elev", "centerline_course", "length")


def load_runways(path) -> dict[str, Runway]:
    runways: dict[str, Runway] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row_no, row in enumerate(_csv_rows(fh, _RUNWAY_FIELDS, "runway"), start=2):
            rid = (row.get("runway_id") or "").strip()
            if not rid:
                raise MalformedRecord(row_no, "empty runway_id")
            try:
                rw = Runway(rid, float(row["threshold_lat"]), float(row["threshold_lon"]),
                            float(row["threshold_elev"]), float(row["centerline_course"]),
                            float(row["length"]))
            except (TypeError, ValueError):
                raise MalformedRecord(row_no, "non-numeric runway geometry") from None
            if rid in runways:
                raise MalformedRecord(row_no, f"duplicate runway_id {rid!r}")
            runways[rid] = rw
    if not runways:
        raise TrackDataError(f"no runways in {path}")
    return runways


_REGISTRATION_FIELDS = ("n_number", "mode_s_code", "model", "manufacturer",
                        "aircraft_class", "type_designator")


@dataclass(slots=True)
class RegistrationTable:
    records: list[RegistrationRecord]
    by_tail: dict[str, RegistrationRecord] = field(default_factory=dict)
    by_mode_s: dict[str, RegistrationRecord] = field(default_factory=dict)
    duplicates: list[str] = field(default_factory=list)

    def lookup_tail(self, n_number: Optional[str]) -> Optional[RegistrationRecord]:
        if not n_number:
            return None
        return self.by_tail.get(n_number.strip().upper())

    def lookup_mode_s(self, code: Optional[str]) -> Optional[RegistrationRecord]:
        if not code:
            return None
        return self.by_mode_s.get(code.strip().upper())


def load_registration(path) -> RegistrationTable:
    """Read the registration CSV; duplicate keys keep the first row and are reported."""
    table = RegistrationTable(records=[])
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row_no, row in enumerate(_csv_rows(fh, _REGISTRATION_FIELDS, "registration"), start=2):
            n_number = (row.get("n_number") or "").strip().upper()
            if not n_number:
                raise MalformedRecord(row_no, "empty n_number")
            raw_class = (row.get("aircraft_class") or "").strip()
            try:
                ac_class = AircraftClass(raw_class)
            except ValueError:
                raise MalformedRecord(row_no, f"unknown aircraft_class {raw_class!r}") from None
            rec = RegistrationRecord(
                n_number=n_number,
                mode_s_code=(row.get("mode_s_code") or "").strip().upper() or None,
                model=(row.get("model") or "").strip() or None,
                manufacturer=(row.get("manufacturer") or "").strip() or None,
                aircraft_class=ac_class,
                type_designator=(row.get("type_designator") or "").strip().upper() or None,
            )
            table.records.append(rec)
            for index, key, name in ((table.by_tail, n_number, "n_number"),
                                     (table.by_mode_s, rec.mode_s_code, "mode_s_code")):
                if key in index:
                    table.duplicates.append(f"row {row_no}: duplicate {name} {key}")
                elif key:
                    index[key] = rec
    return table
