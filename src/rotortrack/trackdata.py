"""Surveillance-track domain types, file IO, and feature extraction.

Tracks arrive as JSON Lines, one track per line; runways and aircraft
registration rows arrive as CSV.  Each track's points are checked and stored
once, as one read-only float64 array of POINT_DTYPE (t, lat, lon, alt, course,
gs), and the geometry below works on its columns.  Arrival windows are the last
100 track points at or before the point of closest approach to the runway
threshold.  No function here changes its inputs, but closest_approach_index
memoises its results on the track, so the runway pick, the windowing and the
runway score compute each (track, threshold) pair once between them.  Threads
may share loaded data: two that race on one pair both compute the same values.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import re
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
    """Base for arrival-window rejections; reason names the rejection in results.csv."""

    reason: str


class FewerThan100Points(WindowingError):
    """Track has fewer than 100 points at or before closest approach."""
    reason = "fewer_than_100_points"


class NoApproach(WindowingError):
    """Track never comes within MAX_APPROACH_NM of the runway threshold."""
    reason = "no_approach"


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


@dataclass(slots=True, eq=False, frozen=True)
class Track:
    """One surveillance track.  points is a read-only array of POINT_DTYPE, oldest first:
    points["lat"] is a column and points[i].lat a value.  (t, lat, lon, alt, course, gs)
    tuples are converted on construction; an array of POINT_DTYPE is kept without a copy,
    through a read-only view.  A Track is immutable: to change its points, build a new one."""

    track_id: str
    points: np.ndarray
    callsign: Optional[str] = None
    mode_s: Optional[str] = None
    tail_number: Optional[str] = None
    declared_type: Optional[str] = None   # "aircraft_type" on the wire
    arrival_airport: Optional[str] = None
    runway_id: Optional[str] = None
    scratchpad_runway: Optional[bool] = None
    # {(threshold lat, lon): (index, NM)}, filled by closest_approach_index
    _approach: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        points = np.asarray(self.points, dtype=POINT_DTYPE)
        if points.ndim != 1:   # numpy spreads each value of a list row over all six fields
            raise TrackDataError("points must be point tuples or a 1-D POINT_DTYPE array")
        points = points.view()
        points.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "_approach", {})

    def __eq__(self, other):
        if not isinstance(other, Track):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   if f.name == "points" else getattr(self, f.name) == getattr(other, f.name)
                   for f in fields(self) if f.compare)


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
            raise TrackDataError(f"track {self.source_track_id}: feature window contains non-finite values")
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

    The result depends on the threshold's lat and lon alone, and the track
    keeps it under them: a second call for the same pair, with this runway or
    an equal one, returns the kept tuple.
    """
    key = (runway.threshold_lat, runway.threshold_lon)
    found = track._approach.get(key)
    if found is None:
        found = track._approach[key] = _closest_approach(track, *key)
    return found


def _closest_approach(track: Track, ref_lat: float, ref_lon: float) -> tuple[int, float]:
    """closest_approach_index, computed.  The minimum is found with np.hypot; every
    point within _NEAR_TIE of it is measured again with math.hypot, as
    threshold_distance_nm does, so index and distance are those of a scalar loop over
    the points."""
    pts = track.points
    if not len(pts):
        raise FewerThan100Points(f"track {track.track_id} has no points")
    east, north = en_offset_km(pts["lat"], pts["lon"], ref_lat, ref_lon)
    dist = np.hypot(east, north)
    near = np.flatnonzero(dist <= dist.min() * _NEAR_TIE)
    if len(near) == 1:   # no near tie to break
        i = int(near[0])
        return i, math.hypot(east[i], north[i]) / KM_PER_NM
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

_SURROGATE = re.compile("[\ud800-\udfff]")


def _encodable(text: str) -> bool:
    """Whether text holds no lone surrogate, as a JSON "\\ud800" gives, or a byte that is not
    UTF-8 in a file read with errors="surrogateescape" (which keeps such a byte to its line)."""
    return text.isascii() or _SURROGATE.search(text) is None


# (low, high, the rule in words) of each bounded point field.  t and alt need only be finite:
# the largest finite float bounds them, so one comparison per bound also refuses NaN and inf.
_BIG = np.finfo(np.float64).max
_POINT_RULES = {
    "lat": (-90.0, 90.0, "out of [-90, 90]"),
    "lon": (-180.0, 180.0, "out of [-180, 180]"),
    "course": (0.0, math.nextafter(360.0, 0.0), "out of [0, 360)"),
    "gs": (0.0, _BIG, "is negative"),
}
_LOW = np.array([_POINT_RULES.get(k, (-_BIG, _BIG))[0] for k in _POINT_KEYS])
_HIGH = np.array([_POINT_RULES.get(k, (-_BIG, _BIG))[1] for k in _POINT_KEYS])
_point_values = operator.itemgetter(*_POINT_KEYS)
_NUMBER_TYPES = frozenset((int, float))


def _first_point_error(raw_points: list) -> Optional[str]:
    """The reject reason of the first bad point, checked one point at a time."""
    prev_t = None
    for i, rp in enumerate(raw_points):
        if not isinstance(rp, dict):
            return f"point {i} is not an object"
        for k in _POINT_KEYS:
            if k not in rp:
                return f"point {i}: point missing field {k!r}"
            if not isinstance(rp[k], (int, float)) or isinstance(rp[k], bool):
                return f"point {i}: point field {k!r} is not a number"
            try:
                finite = math.isfinite(rp[k])
            except OverflowError:   # an integer beyond the float range
                return f"point {i}: point field {k!r} is out of float range"
            if not finite:
                return f"point {i}: point field {k!r} is not finite"
        for k, (low, high, rule) in _POINT_RULES.items():
            if not low <= rp[k] <= high:
                return f"point {i}: {k} {rp[k]} {rule}"
        if prev_t is not None and float(rp["t"]) <= prev_t:
            return f"point {i}: time not strictly increasing"
        prev_t = float(rp["t"])
    return None


def _point_array(raw_points: list) -> Optional[np.ndarray]:
    """The (n, 6) float64 array of the raw points when _first_point_error finds no bad
    point, else None."""
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
    return _checked(values)


def _checked(values: np.ndarray) -> Optional[np.ndarray]:
    """values when every column is within its bounds and time strictly increases, else None."""
    t = values[:, 0]
    if ((values >= _LOW) & (values <= _HIGH)).all() and (t[1:] > t[:-1]).all():
        return values
    return None


# The writers' form of a line: compact separators, point keys in _POINT_KEYS order
# and "points" last, as track_to_json writes it.  The text route works on its UTF-8 bytes.
_POINTS_KEY = b',"points":['
_POINT_FORM = ("{" + ",".join(f'"{k}":' for k in _POINT_KEYS) + "}").encode()
_NUMBER_CHARS = b"0123456789.-+"
# Keys, quotes and "{" go; ":" becomes a space before each value and "}" a tab after each
# point.  A number outside a value slot (inside a key, say) then sits beside a slot's number
# with only whitespace between, which numpy's reader refuses, or fills an empty slot, whose
# space no number follows, which _json_numbers refuses.
_TO_NUMBERS = bytes.maketrans(b":}", b" \t")
_DROPPED = bytes(set(_POINT_FORM) - set(b",:}"))
_SPACE, _MINUS, _DOT, _ZERO = b" -.0"


def _in_point_form(data: bytes, split: int, end: int) -> bool:
    """Whether the points array of a line that ends "]}" at end, its key at split, is
    n >= 1 copies of _POINT_FORM joined by commas once its number characters are deleted."""
    skeleton = data.translate(None, _NUMBER_CHARS)
    first = len(data[:split].translate(None, _NUMBER_CHARS)) + len(_POINTS_KEY)
    n, rest = divmod(len(skeleton) - (len(data) - end) - 1 - first, len(_POINT_FORM) + 1)
    return (not rest and skeleton.count(_POINT_FORM + b",", first) == n - 1
            and skeleton.endswith(_POINT_FORM + b"]}" + data[end:]))


def _json_numbers(text: bytes, lo: int, hi: int) -> bool:
    """Whether JSON reads every number of text[lo:hi], the translated points array, as
    numpy's reader does, or the reader refuses it.  The reader also takes an empty value
    slot beside a number outside it, a "+", a "." without a digit on both sides and a
    leading zero, which JSON refuses, and makes -0.0 of "-0", which JSON reads as the int
    0.  text[hi:hi + 2] must be "]" and a tab, so that every character has two after it.
    The masks are built in place, as each is as long as the array."""
    c = np.frombuffer(text, np.uint8, hi - lo + 3, lo - 1)   # from "[" to the tab
    digit = c - ord("0") < 10     # uint8 wraps below "0"
    char, nxt, after = c[:-2], c[1:-1], c[2:]
    # A space must be followed by a digit or "-" (so no slot is empty or starts with "+"
    # or "."), and a "-" or "." by a digit.
    bad = char == _SPACE
    bad &= nxt != _MINUS
    bad |= char == _MINUS
    bad |= char == _DOT
    bad &= ~digit[1:-1]
    if bad.any():
        return False
    # A "0" after a space must not be followed by a digit (a leading zero), and one
    # after "-" must be followed by "." (a leading zero, or "-0").
    bad = char == _MINUS
    bad &= after != _DOT
    bad |= (char == _SPACE) & digit[2:]
    bad &= nxt == _ZERO
    return not bad.any()


def _number_row(line: str) -> Optional[tuple[str, str]]:
    """The text before the points key of a line in the writers' form, and its points
    array's 6n numbers as one row for numpy's reader, or None when the line is in another
    form or holds a number that JSON reads otherwise.  line must hold no lone surrogate.
    Its bytes and their translation are freed on return, before the reader's buffers
    (four bytes a character) are made."""
    data = line.encode()
    split = data.find(_POINTS_KEY)
    end = len(data) - data.endswith(b"\n")
    if split < 0 or not data.startswith(b"]}", end - 2) or not _in_point_form(data, split, end):
        return None
    text = data.translate(_TO_NUMBERS, _DROPPED)
    lo = len(data[:split + len(_POINTS_KEY)].translate(_TO_NUMBERS, _DROPPED))
    hi = len(text) - (len(data) - end) - 2            # the closing "]"
    if not _json_numbers(text, lo, hi):
        return None
    return data[:split].decode(), text[lo:hi].decode()


def _writer_form(line: str) -> Optional[tuple[dict, np.ndarray]]:
    """The other fields and the checked (n, 6) point values of a line in the writers'
    form, or None when the line is in another form or fails any check.

    numpy's text reader reads the 6n numbers as one row, after _json_numbers has sent
    every number that JSON reads otherwise, or refuses, to the general route.  Both
    convert a decimal to the nearest float, so the values are the general route's, and
    no Python object is made per number."""
    found = _number_row(line)
    if found is None:
        return None
    head, row = found
    try:
        values = np.loadtxt([row], np.float64, delimiter=",", comments=None)
        head = json.loads(head + "}")
    except (ValueError, RecursionError):
        return None
    if not head:
        return None      # "{" alone before the points is not JSON
    values = _checked(values.reshape(-1, 6))
    return None if values is None else (head, values)


# The Track field of each optional string key on the wire, in wire order
_STRING_KEYS = {"callsign": "callsign", "mode_s": "mode_s", "tail_number": "tail_number",
                "aircraft_type": "declared_type", "arrival_airport": "arrival_airport",
                "runway_id": "runway_id"}


def _parse_track(line: str) -> tuple[Optional[Track], Optional[str]]:
    """The track of one JSON Lines line, or the reason it is rejected.  A line in the
    writers' form takes the text route; any other line, and any line that fails a
    check there, is decoded whole by json.loads, which names the reason."""
    if not _encodable(line):
        return None, "invalid UTF-8"
    found = _writer_form(line)
    if found is not None:
        obj, values = found
    else:
        values = None
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            return None, f"invalid JSON: {e.msg}"
        except ValueError:      # an integer of more digits than int() converts
            return None, "invalid JSON: integer with too many digits"
        except RecursionError:
            return None, "invalid JSON: nested too deeply"
        if not isinstance(obj, dict):
            return None, "record is not a JSON object"
    track_id = obj.get("track_id")
    if not isinstance(track_id, str) or not track_id:
        return None, "missing or empty track_id"
    if values is None:
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
    for key in ("track_id", *_STRING_KEYS):   # Python 3.10's csv module refuses NUL
        val = obj.get(key)
        if val is not None and not (isinstance(val, str) and _encodable(val) and "\0" not in val):
            return None, f"{key} must be a string without lone surrogates or NUL when present"
    return Track(track_id, points, scratchpad_runway=scratch,
                 **{name: obj.get(key) for key, name in _STRING_KEYS.items()}), None


@dataclass(slots=True)
class LoadResult:
    tracks: list[Track]
    rejects: list[tuple[int, str]]   # (1-based line number, reason)


def load_tracks(path) -> LoadResult:
    """Read a JSON Lines track file; bad lines are reported in LoadResult.rejects.

    A line takes one of two routes.  One in the writers' form (track_to_json's:
    compact separators, point keys in order, "points" last, numbers without an
    exponent) takes the text route: once its points array has passed the form
    and JSON number checks, numpy's text reader reads all its numbers as one
    row, with no Python object per number.  Every other line, and any line
    that fails a check on the text route, is decoded whole by json.loads and
    checked point by point.  The text route is only faster: it accepts the
    same lines, with the same values, and every reject reason comes from the
    general route."""
    by_id: dict[str, Track] = {}
    rejects: list[tuple[int, str]] = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            track, err = _parse_track(line)
            if err is None and track.track_id in by_id:
                err = f"duplicate track_id {track.track_id!r}"
            if err is not None:
                rejects.append((line_no, err))
            else:
                by_id[track.track_id] = track
    return LoadResult(list(by_id.values()), rejects)


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
    features = np.empty((len(points), FEATURE_COUNT))
    features[:, 0], features[:, 1] = en_offset_km(points["lat"], points["lon"],
                                                  runway.threshold_lat, runway.threshold_lon)
    dc = (points["course"] - runway.centerline_course) * _RAD_PER_DEG
    with np.errstate(over="ignore"):   # an overflowing height is inf, which FeatureWindow names
        features[:, 2] = (points["alt"] - runway.threshold_elev) / 1000.0
    features[:, 3] = points["gs"] / 100.0
    features[:, 4], features[:, 5] = np.sin(dc), np.cos(dc)
    return features


_MIN_STD = 1e-12


def fit_norm_stats(raw_windows: Sequence[np.ndarray]) -> NormStats:
    """Fit per-cell mean/std over raw training windows (population std).

    Raises ZeroVarianceFeature when any feature has a cell whose std is
    (numerically) zero, e.g. a constant feature column or a single window;
    TrackDataError when a mean or std is not finite (say, overflows).
    """
    if not raw_windows:
        raise ZeroVarianceFeature("cannot fit normalization stats on zero windows")
    stack = np.stack([np.asarray(w, dtype=float) for w in raw_windows])
    if stack.shape[1:] != (WINDOW_LEN, FEATURE_COUNT):
        raise TrackDataError(f"windows must be ({WINDOW_LEN}, {FEATURE_COUNT}), got {stack.shape[1:]}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = stack.mean(axis=0), stack.std(axis=0)
    bad = np.flatnonzero(~np.isfinite(std).all(axis=0))   # a non-finite mean makes std so
    if bad.size:
        raise TrackDataError(f"features whose mean or std is not finite: {bad.tolist()}")
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

def utf8_lines(path, newline: Optional[str] = None) -> list[str]:
    """The lines of the text file at path; a line that is not UTF-8, or holds NUL (which
    Python 3.10's csv reader refuses), is a MalformedRecord."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline=newline) as fh:
        lines = fh.readlines()
    for line_no, line in enumerate(lines, start=1):
        if not _encodable(line):
            raise MalformedRecord(path, line_no, "invalid UTF-8")
        if "\0" in line:
            raise MalformedRecord(path, line_no, "line contains NUL")
    return lines


def csv_rows(path, fields: tuple[str, ...], what: str) -> Iterator[tuple[int, dict]]:
    """(line number where it ends, row keyed by fields) per record of the CSV at path, whose
    header must be fields; a row of another length or a csv.Error is a MalformedRecord."""
    reader = csv.reader(utf8_lines(path, newline=""))
    try:
        header = next(reader, None)
        if header is None or [f.strip() for f in header] != list(fields):
            raise MalformedRecord(path, 1, f"{what} header must be {','.join(fields)}")
        for row in filter(None, reader):   # skips blank lines
            if len(row) != len(fields):
                raise MalformedRecord(path, reader.line_num,
                                      f"expected {len(fields)} fields, got {len(row)}")
            yield reader.line_num, dict(zip(fields, row))
    except csv.Error as e:
        raise MalformedRecord(path, reader.line_num, str(e)) from None


# The header of each input table: the labels' columns, and the fields of Runway and RegistrationRecord
LABEL_FIELDS = ("track_id", "class")
RUNWAY_FIELDS = tuple(f.name for f in fields(Runway))
REGISTRATION_FIELDS = tuple(f.name for f in fields(RegistrationRecord))


def load_labels(path) -> dict[str, str]:
    """{track_id: class} from a track_id,class CSV; a repeated track_id or a class
    outside TRACK_CLASSES is a MalformedRecord."""
    labels: dict[str, str] = {}
    for row_no, row in csv_rows(path, LABEL_FIELDS, "labels"):
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
    for row_no, row in csv_rows(path, RUNWAY_FIELDS, "runway"):
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
    table = RegistrationTable()
    for row_no, row in csv_rows(path, REGISTRATION_FIELDS, "registration"):
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
        for index, key, name in ((table.by_tail, n_number, "n_number"),
                                 (table.by_mode_s, rec.mode_s_code, "mode_s_code")):
            if key in index:
                table.duplicates.append(f"line {row_no}: duplicate {name} {key}")
            elif key:
                index[key] = rec
    return table
