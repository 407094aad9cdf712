"""Surveillance-track domain types, file IO, and feature extraction.

Tracks arrive as JSON Lines, one track per line; runways and aircraft
registration rows arrive as CSV.  Each track's points are checked and stored
once, as one float64 array of POINT_DTYPE (t, lat, lon, alt, course, gs), and
the geometry below works on its columns.  Arrival windows are the last 100
track points at or before the point of closest approach to the runway threshold.
All functions here are pure and safe to call concurrently on shared,
already-loaded data.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import chain
from typing import Callable, Iterator, Optional, Sequence

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
    """A line or row of a file that cannot be used, with its 1-based position."""

    def __init__(self, path, position: int, message: str):
        super().__init__(f"{path} line {position}: {message}")
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


_POINT_KEYS = ("t", "lat", "lon", "alt", "course", "gs")
# One float64 field per point key: t in seconds since epoch, lat, lon and course in degrees,
# alt in feet MSL, gs in knots.  Its elements are numpy records, so p.t reads a point's time.
POINT_DTYPE = np.dtype((np.record, [(k, np.float64) for k in _POINT_KEYS]))


@dataclass(slots=True, eq=False)
class Track:
    """One surveillance track.  points is an array of POINT_DTYPE, oldest first:
    points["lat"] is a column and points[i].lat a value.  (t, lat, lon, alt, course, gs)
    tuples are converted on construction; an array of POINT_DTYPE is kept as it is."""

    track_id: str
    points: np.ndarray
    callsign: Optional[str] = None
    mode_s: Optional[str] = None
    tail_number: Optional[str] = None
    declared_type: Optional[str] = None   # "aircraft_type" on the wire
    arrival_airport: Optional[str] = None
    runway_id: Optional[str] = None
    scratchpad_runway: Optional[bool] = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=POINT_DTYPE)
        if self.points.ndim != 1:   # numpy spreads each value of a list row over all six fields
            raise TrackDataError("points must be point tuples or a 1-D POINT_DTYPE array")

    def __eq__(self, other):
        if not isinstance(other, Track):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   if f.name == "points" else getattr(self, f.name) == getattr(other, f.name)
                   for f in fields(self))


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

_RAD_PER_DEG = math.pi / 180.0   # the factor math.radians and np.radians multiply by


def en_offset_km(lat, lon, ref_lat: float, ref_lon: float):
    """(east, north) km offset of a point from a reference, local tangent plane.

    lat and lon may be floats or arrays; both give the same bits per point.
    """
    north = (lat - ref_lat) * _RAD_PER_DEG * EARTH_RADIUS_KM
    east = (lon - ref_lon) * _RAD_PER_DEG * EARTH_RADIUS_KM * math.cos(math.radians(ref_lat))
    return east, north


def threshold_distance_nm(point: np.record, runway: Runway) -> float:
    east, north = en_offset_km(point.lat, point.lon, runway.threshold_lat, runway.threshold_lon)
    return math.hypot(east, north) / KM_PER_NM


# np.hypot and math.hypot are each within an ulp of the exact value, so the
# scalar minimum lies within this factor of the vectorized one.
_NEAR_TIE = 1.0 + 16 * np.finfo(float).eps


def closest_approach_index(track: Track, runway: Runway) -> tuple[int, float]:
    """Index of the point nearest the runway threshold (first index on ties), and its NM.

    The minimum is found with np.hypot; every point within _NEAR_TIE of it is
    measured again with math.hypot, as threshold_distance_nm does, so index
    and distance are those of a scalar loop over the points.
    """
    pts = track.points
    if not len(pts):
        raise FewerThan100Points(f"track {track.track_id} has no points")
    east, north = en_offset_km(pts["lat"], pts["lon"], runway.threshold_lat, runway.threshold_lon)
    dist = np.hypot(east, north)
    near = np.flatnonzero(dist <= dist.min() * _NEAR_TIE)
    best_i, best_d = 0, math.inf
    for i, e, n in zip(near.tolist(), east[near].tolist(), north[near].tolist()):
        d = math.hypot(e, n) / KM_PER_NM
        if d < best_d:
            best_i, best_d = i, d
    return best_i, best_d


def course_diff_deg(a: float, b: float) -> float:
    """Absolute angular difference of two courses, folded into [0, 180]."""
    return abs((a - b + 180.0) % 360.0 - 180.0)


# --------------------------------------------------------------------------
# track file IO

def _point_error(d: dict) -> Optional[str]:
    for k in _POINT_KEYS:
        if k not in d:
            return f"point missing field {k!r}"
        if not isinstance(d[k], (int, float)) or isinstance(d[k], bool):
            return f"point field {k!r} is not a number"
        try:
            finite = math.isfinite(d[k])
        except OverflowError:   # an integer beyond the float range
            return f"point field {k!r} is out of float range"
        if not finite:
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


def _first_point_error(raw_points: list) -> Optional[str]:
    """The reject reason of the first bad point, checked one point at a time."""
    prev_t = None
    for i, rp in enumerate(raw_points):
        if not isinstance(rp, dict):
            return f"point {i} is not an object"
        err = _point_error(rp)
        if err is not None:
            return f"point {i}: {err}"
        if prev_t is not None and float(rp["t"]) <= prev_t:
            return f"point {i}: time not strictly increasing"
        prev_t = float(rp["t"])
    return None


_point_values = operator.itemgetter(*_POINT_KEYS)
_NUMBER_TYPES = frozenset((int, float))
# Per-column bounds; the largest finite float bounds a column without a range,
# so one comparison also refuses NaN and infinities.  Course must be < 360.
_BIG = np.finfo(np.float64).max
_LOW = np.array([-_BIG, -90.0, -180.0, -_BIG, 0.0, 0.0])
_HIGH = np.array([_BIG, 90.0, 180.0, _BIG, np.nextafter(360.0, 0.0), _BIG])


def _point_array(raw_points: list) -> Optional[np.ndarray]:
    """The (n, 6) float64 array of the raw points when every point passes _point_error
    and time strictly increases, else None."""
    try:
        rows = list(map(_point_values, raw_points))
    except (KeyError, TypeError):      # a point that is not an object, or lacks a key
        return None
    if not set(map(type, chain.from_iterable(rows))) <= _NUMBER_TYPES:
        return None                    # a bool, string, null, list or object value
    try:
        values = np.fromiter(chain.from_iterable(rows), np.float64, 6 * len(rows)).reshape(-1, 6)
    except OverflowError:
        return None
    t = values[:, 0]
    if ((values >= _LOW) & (values <= _HIGH)).all() and (t[1:] > t[:-1]).all():
        return values
    return None


# The Track field of each optional string key on the wire, in wire order
_STRING_KEYS = {"callsign": "callsign", "mode_s": "mode_s", "tail_number": "tail_number",
                "aircraft_type": "declared_type", "arrival_airport": "arrival_airport",
                "runway_id": "runway_id"}


def _parse_track(obj: dict) -> tuple[Optional[Track], Optional[str]]:
    if not isinstance(obj, dict):
        return None, "record is not a JSON object"
    track_id = obj.get("track_id")
    if not isinstance(track_id, str) or not track_id:
        return None, "missing or empty track_id"
    raw_points = obj.get("points")
    if not isinstance(raw_points, list) or not raw_points:
        return None, "missing or empty points array"
    values = _point_array(raw_points)
    if values is None:
        return None, _first_point_error(raw_points)
    points = values.view(POINT_DTYPE)[:, 0]
    scratch = obj.get("scratchpad_runway")
    if scratch is not None and not isinstance(scratch, bool):
        return None, "scratchpad_runway must be a boolean when present"
    for key in _STRING_KEYS:
        val = obj.get(key)
        if val is not None and not isinstance(val, str):
            return None, f"{key} must be a string when present"
    return Track(track_id, points, scratchpad_runway=scratch,
                 **{name: obj.get(key) for key, name in _STRING_KEYS.items()}), None


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
            raise MalformedRecord(path, line_no, reason)
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
            except ValueError:      # an integer of more digits than int() converts
                reject(line_no, "invalid JSON: integer with too many digits")
                continue
            except RecursionError:
                reject(line_no, "invalid JSON: nested too deeply")
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
    for key, name in (*_STRING_KEYS.items(), ("scratchpad_runway", "scratchpad_runway")):
        if (val := getattr(track, name)) is not None:
            obj[key] = val
    obj["points"] = [dict(zip(_POINT_KEYS, p)) for p in track.points.tolist()]
    return json.dumps(obj, separators=(",", ":"))


def save_tracks(tracks: Sequence[Track], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for track in tracks:
            fh.write(track_to_json(track))
            fh.write("\n")


# --------------------------------------------------------------------------
# arrival windowing and features

def window_arrival(track: Track, runway: Runway) -> np.ndarray:
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


def featurize(points: np.ndarray, runway: Runway) -> np.ndarray:
    """Per-point feature vectors relative to the runway, shape (len(points), 6).

    points is an array of POINT_DTYPE.  Columns: east offset (km), north
    offset (km), height above threshold (kilofeet), groundspeed (kt/100), sin
    and cos of course minus centerline.
    """
    east, north = en_offset_km(points["lat"], points["lon"], runway.threshold_lat, runway.threshold_lon)
    dc = (points["course"] - runway.centerline_course) * _RAD_PER_DEG
    return np.column_stack((east, north, (points["alt"] - runway.threshold_elev) / 1000.0,
                            points["gs"] / 100.0, np.sin(dc), np.cos(dc)))


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

def _csv_rows(fh, fields: tuple[str, ...], what: str) -> Iterator[tuple[int, dict]]:
    """(line number where it ends, row keyed by fields) per record of a CSV whose header
    must be fields; a row of another length or a csv.Error is a MalformedRecord."""
    reader = csv.reader(fh)
    try:
        header = next(reader, None)
        if header is None or [f.strip() for f in header] != list(fields):
            raise MalformedRecord(fh.name, 1, f"{what} header must be {','.join(fields)}")
        for row in filter(None, reader):   # skips blank lines
            if len(row) != len(fields):
                raise MalformedRecord(fh.name, reader.line_num,
                                      f"expected {len(fields)} fields, got {len(row)}")
            yield reader.line_num, dict(zip(fields, row))
    except csv.Error as e:
        raise MalformedRecord(fh.name, reader.line_num, str(e)) from None


# The header of each input table: the labels' columns, and the fields of Runway and RegistrationRecord
LABEL_FIELDS = ("track_id", "class")
RUNWAY_FIELDS = tuple(f.name for f in fields(Runway))
REGISTRATION_FIELDS = tuple(f.name for f in fields(RegistrationRecord))


def load_labels(path) -> dict[str, str]:
    """{track_id: class} from a track_id,class CSV; a repeated track_id or a class
    outside TRACK_CLASSES is a MalformedRecord."""
    labels: dict[str, str] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row_no, row in _csv_rows(fh, LABEL_FIELDS, "labels"):
            if row["class"] not in TRACK_CLASSES:
                raise MalformedRecord(path, row_no, f"unknown class {row['class']!r}")
            if row["track_id"] in labels:
                raise MalformedRecord(path, row_no, f"duplicate track_id {row['track_id']!r}")
            labels[row["track_id"]] = row["class"]
    return labels


# (low, high, the rule in words) of each runway geometry field; NaN fails every comparison
_RUNWAY_RULES = {
    "threshold_lat": (-90.0, 90.0, "in [-90, 90]"),
    "threshold_lon": (-180.0, 180.0, "in [-180, 180]"),
    "threshold_elev": (-_BIG, _BIG, "finite"),
    "centerline_course": (0.0, math.nextafter(360.0, 0.0), "in [0, 360)"),
    "length": (math.ulp(0.0), _BIG, "finite and > 0"),
}


def load_runways(path) -> dict[str, Runway]:
    """{runway_id: Runway}; a row with a repeated id or unusable geometry is a MalformedRecord."""
    runways: dict[str, Runway] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row_no, row in _csv_rows(fh, RUNWAY_FIELDS, "runway"):
            rid = row["runway_id"].strip()
            if not rid:
                raise MalformedRecord(path, row_no, "empty runway_id")
            try:
                rw = Runway(rid, *(float(row[f]) for f in RUNWAY_FIELDS[1:]))
            except ValueError:
                raise MalformedRecord(path, row_no, "non-numeric runway geometry") from None
            for name, (low, high, rule) in _RUNWAY_RULES.items():
                if not low <= (value := getattr(rw, name)) <= high:
                    raise MalformedRecord(path, row_no, f"{name} must be {rule}, got {value}")
            if rid in runways:
                raise MalformedRecord(path, row_no, f"duplicate runway_id {rid!r}")
            runways[rid] = rw
    if not runways:
        raise TrackDataError(f"no runways in {path}")
    return runways


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
        for row_no, row in _csv_rows(fh, REGISTRATION_FIELDS, "registration"):
            n_number = row["n_number"].strip().upper()
            if not n_number:
                raise MalformedRecord(path, row_no, "empty n_number")
            raw_class = row["aircraft_class"].strip()
            try:
                ac_class = AircraftClass(raw_class)
            except ValueError:
                raise MalformedRecord(path, row_no, f"unknown aircraft_class {raw_class!r}") from None
            rec = RegistrationRecord(
                n_number=n_number,
                mode_s_code=row["mode_s_code"].strip().upper() or None,
                model=row["model"].strip() or None,
                manufacturer=row["manufacturer"].strip() or None,
                aircraft_class=ac_class,
                type_designator=row["type_designator"].strip().upper() or None,
            )
            table.records.append(rec)
            for index, key, name in ((table.by_tail, n_number, "n_number"),
                                     (table.by_mode_s, rec.mode_s_code, "mode_s_code")):
                if key in index:
                    table.duplicates.append(f"line {row_no}: duplicate {name} {key}")
                elif key:
                    index[key] = rec
    return table
