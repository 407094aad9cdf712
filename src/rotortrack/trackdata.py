"""Surveillance-track domain types, file IO, and feature extraction.

Tracks arrive as JSON Lines, one track per line; runways and aircraft
registration rows arrive as CSV.  A track's points are a read-only float64
array of POINT_DTYPE (t, lat, lon, alt, course, gs), and the geometry below
works on its columns.  What a parse of a track file found is kept in a checked
binary sidecar next to it, so that later loads of the same bytes skip the
parse.  A parse writes each line's record and point rows to the sidecar as the
line is parsed, building no track, then the header, and returns what the
sidecar holds: the sidecar reader builds every track a load returns.  Every
load reads its tracks' points from the sidecar a block at a time, on demand: a
block is a run of whole tracks of at most _CHECK_ROWS rows, or one longer
track, with its own digest.  The first points read of a track reads, hashes and
checks its block and drops the block read before, so reading identity fields
alone reads no point, and a pass in track order reads each row once and holds
one block.  Arrival windows are the last 100 track points at or before the
point of closest approach to the runway threshold.  No function here changes
its inputs, but closest_approach_index memoises its results on the track, so
the runway pick, the windowing and the runway score compute each (track,
threshold) pair once between them.  Threads may share loaded data: two that
race on one pair both compute the same values, and a load reads its blocks
under a lock of that load.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import logging
import math
import operator
import os
import re
import struct
import tempfile
import threading
import weakref
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import accumulate, chain, pairwise
from typing import Callable, Iterable, Iterator, Optional, Sequence

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
    """A line or row of a file that cannot be used: "<path> line <n>: <reason>", n 1-based."""

    def __init__(self, path, position: int, message: str):
        super().__init__(f"{path} line {position}: {message}")


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


@dataclass(slots=True, eq=False, frozen=True, weakref_slot=True)
class Track:
    """One surveillance track.  points is a read-only array of POINT_DTYPE, oldest first:
    points["lat"] is a column and points[i].lat a value.  (t, lat, lon, alt, course, gs)
    tuples are converted on construction; an array of POINT_DTYPE is kept without a copy,
    through a read-only view.  A Track is immutable: to change its points, build a new one.
    A loaded track's points are set while its block of the load is read in: reading them
    reads the block again once another block of the load has been read since."""

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
    _approach: dict = field(init=False, repr=False)
    # the block of a sidecar load whose rows set points, for a track built from one
    _block: Optional[_Block] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_approach", {})
        if isinstance(self.points, _Block):   # points stays unset until its block is read
            object.__setattr__(self, "_block", self.points)
            object.__delattr__(self, "points")
            return
        points = np.asarray(self.points, dtype=POINT_DTYPE)
        if points.ndim != 1:   # numpy spreads each value of a list row over all six fields
            raise TrackDataError("points must be point tuples or a 1-D POINT_DTYPE array")
        points = points.view()
        points.setflags(write=False)
        object.__setattr__(self, "points", points)

    def __getattr__(self, name):
        # reached only when a slot is unset, as points is while its block is not read in
        if name == "points" and self._block is not None:
            return self._block.rows.points(self)
        return object.__getattribute__(self, name)


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
    point within _NEAR_TIE of it is measured again with math.hypot, so index and
    distance are those of a scalar math.hypot loop over the points: (0, inf) if all NaN."""
    pts = track.points
    if not len(pts):
        raise FewerThan100Points(f"track {track.track_id} has no points")
    east, north = en_offset_km(pts["lat"], pts["lon"], ref_lat, ref_lon)
    dist = np.hypot(east, north)
    near = np.flatnonzero(dist <= dist[dist.argmin()] * _NEAR_TIE).tolist()
    d, i = min(((math.hypot(east[i], north[i]) / KM_PER_NM, i) for i in near),
               default=(math.inf, 0))
    return i, d


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
_CHECK_ROWS = 1 << 14   # the rows _checked compares at a time, and a load's block holds


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
    return _checked(values, (len(values),))


def _checked(values: np.ndarray, ends) -> Optional[np.ndarray]:
    """values when every column is within its bounds and time strictly increases along each
    run of rows, else None.  The runs end at the ascending row indices ends, the last at
    len(values).  Rows are checked a block at a time, so no temporary grows with them."""
    starts = np.asarray(ends, dtype=np.int64)[:-1]   # the first row of each later run
    for s in range(0, len(values), _CHECK_ROWS):
        block = values[s:s + _CHECK_ROWS + 1]   # and the next block's first row
        later = block[1:, 0] > block[:-1, 0]   # the time steps into rows s + 1 on
        later[starts[(starts > s) & (starts <= s + _CHECK_ROWS)] - s - 1] = True
        if not (later.all() and ((block >= _LOW) & (block <= _HIGH)).all()):
            return None
    return values


# The Track field of each optional string key on the wire, in wire order
_STRING_KEYS = {"callsign": "callsign", "mode_s": "mode_s", "tail_number": "tail_number",
                "aircraft_type": "declared_type", "arrival_airport": "arrival_airport",
                "runway_id": "runway_id"}
# The wire keys of a track's sidecar record, whose last value is the track's point count
_RECORD_KEYS = ("track_id", *_STRING_KEYS, "scratchpad_runway")


def _plain_text(val) -> bool:
    """Whether val is a string without lone surrogates: the rule for every string a loaded
    track or reject carries."""
    return isinstance(val, str) and _encodable(val)


def _record_error(record: list) -> Optional[str]:
    """The reason a track's sidecar record (its _RECORD_KEYS values, then its point count)
    is refused, or None: the one field rule of the parse and of the sidecar reader."""
    *texts, scratch, _ = record
    if scratch is not None and not isinstance(scratch, bool):
        return "scratchpad_runway must be a boolean when present"
    for key, val in zip(_RECORD_KEYS, texts):
        if val is not None and not _plain_text(val):
            return f"{key} must be a string without lone surrogates when present"
    return None


def _parse_track(line: str) -> tuple[Optional[list], Optional[np.ndarray], Optional[str]]:
    """(record, rows, None) for one JSON Lines line, as its track's sidecar holds them: its
    record, and its checked point rows as little-endian float64; or (None, None, the reason
    it is rejected).  No Track is built.  The line is decoded whole by json.loads; its
    points are checked as one array, and a line they fail is checked point by point for the
    reason.  Its fields are checked last, by _record_error."""
    if not _encodable(line):
        return None, None, "invalid UTF-8"
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        return None, None, f"invalid JSON: {e.msg}"
    except ValueError:      # an integer of more digits than int() converts
        return None, None, "invalid JSON: integer with too many digits"
    except RecursionError:
        return None, None, "invalid JSON: nested too deeply"
    if not isinstance(obj, dict):
        return None, None, "record is not a JSON object"
    track_id = obj.get("track_id")
    if not isinstance(track_id, str) or not track_id:
        return None, None, "missing or empty track_id"
    raw_points = obj.get("points")
    if not isinstance(raw_points, list) or not raw_points:
        return None, None, "missing or empty points array"
    values = _point_array(raw_points)
    if values is None:
        return None, None, _first_point_error(raw_points)
    record = [*map(obj.get, _RECORD_KEYS), len(values)]
    if err := _record_error(record):
        return None, None, err
    return record, values.astype(_ROW_DTYPE, copy=False), None


@dataclass(slots=True, eq=False, frozen=True)
class LoadResult:
    tracks: list[Track]
    rejects: list[tuple[int, str]]   # (1-based line number, reason)
    parsed: bool   # False when read from the sidecar


def load_tracks(path) -> LoadResult:
    """Read a JSON Lines track file; bad lines are reported in LoadResult.rejects.

    The file's bytes are parsed once.  The first load streams what it finds to a sidecar,
    <path>.rtcache, next to the file, writing each byte once: each line's record and point
    rows as the line is parsed, building no track, then the header.  It returns what the
    sidecar holds, whose reader builds each track a load returns once, as a later load whose
    SHA-256 of the file's bytes matches the sidecar's does without parsing: the same
    LoadResult, bit for bit, whose tracks' points are read-only row runs that cannot be made
    writable.  Every load reads the points from its sidecar a block of tracks at a time, at
    the first points read of a track of the block, and drops the block read before: a pass
    in track order reads, hashes and checks each row once and holds one block, and a track
    of a block dropped since reads its block again.  No reference cycle holds a load, so a
    dropped one frees its rows at once.  A sidecar that is missing, stale or fails any check
    (for a block's rows, at its read, with a logged warning) is ignored, and the file is
    parsed and the sidecar rewritten; where none can be written, the parse streams to memory
    and its blocks are read from there.  So a sidecar never changes what a load returns, or
    makes one fail; but a block read raises TrackDataError when the file's bytes have
    changed since the load, even to the same tracks and rejects.  LoadResult.parsed says
    whether this load parsed.

    A line ends at "\\n", as JSON Lines define: a "\\r\\n" ending loads as "\\n" does, a
    lone "\\r" is JSON whitespace, and reject line numbers count "\\n".  A parse decodes
    each line with json.loads and checks its points: a line that fails a check is a
    reject, with the reason of the first check it fails."""
    result = _read_sidecar(path)
    if result is None:
        result = _parse_file(path)
    return result


# The sidecar of a parsed track file, whose bytes depend only on the parsed bytes, holds each
# part once, in the order a parse finds it: each track's points as little-endian float64
# rows, in track order; the header, compact JSON of {"tracks": [[the _RECORD_KEYS values,
# point count], ...], "rejects": [[line, reason], ...]}; the SHA-256 of each block's rows
# (see _block_starts); the end record of magic, format version, the parsed bytes' SHA-256,
# the block count and the header's length; and the SHA-256 of the header, block digests and
# end record.  _SIDECAR_VERSION changes with the layout or with what a parse returns (2: a
# lone "\r" ends no line; 3: the header moved behind the rows, so a parse writes it last;
# 4: the rows' own digest, so a load can read them at its first points read; 5: a digest
# per block, so a load can read them a block at a time; 6: NUL is text).
_SIDECAR_SUFFIX = ".rtcache"
_SIDECAR_MAGIC = b"RTTC"
_SIDECAR_VERSION = 6
_SIDECAR_END = struct.Struct("<4sI32sII")
_DIGEST_LEN = 32
_SIDECAR_TAIL = _SIDECAR_END.size + _DIGEST_LEN   # the end record and the checksum
_ROW_DTYPE = np.dtype("<f8")
_ROW_BYTES = len(_POINT_KEYS) * _ROW_DTYPE.itemsize
_log = logging.getLogger(__name__)


def _sidecar_path(path) -> str:
    return os.fsdecode(path) + _SIDECAR_SUFFIX


def _sidecar_header(records: list, rejects: list) -> bytes:
    """The header of these track records and rejects, the one form _sidecar_result accepts."""
    return json.dumps({"tracks": records, "rejects": rejects}, separators=(",", ":")).encode()


def _block_starts(counts: list) -> list:
    """The index of each block's first track, then len(counts), for tracks of these point
    counts.  A block is a run of whole tracks of at most _CHECK_ROWS rows, or one track of
    more; a track starts a new block when it would take its block past that."""
    starts, rows = [], 0
    for i, n in enumerate(counts):
        if not starts or rows + n > _CHECK_ROWS:
            starts.append(i)
            rows = 0
        rows += n
    return [*starts, len(counts)]


def _parse_file(path) -> LoadResult:
    """What _parse_into returns for the file at path, with the sidecar written to a
    temporary file beside it that is renamed into place, with the read and write bits of
    the file at path, and read from there.  Where that file cannot be made, written or
    renamed, the parse is made into memory instead, from the start, and read from there;
    an interrupted parse re-raises.  None of these leaves a temporary file."""
    sidecar = _sidecar_path(path)
    result = None
    with contextlib.suppress(OSError):
        fd, tmp = tempfile.mkstemp(prefix=os.path.basename(sidecar) + ".",
                                   dir=os.path.dirname(sidecar) or ".")
        try:
            with open(fd, "w+b") as sink:
                os.chmod(tmp, os.stat(path).st_mode & 0o666)   # mkstemp makes it 0o600
                result = _parse_into(path, sink, sidecar)
            os.replace(tmp, sidecar)
        except BaseException:
            result = None   # its blocks would be read from a sidecar that is not there
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    return _parse_into(path, io.BytesIO()) if result is None else result


def _parse_into(path, sink, pages=None) -> LoadResult:
    """The LoadResult, with parsed True, of the sidecar of the file at path, which this writes
    to sink, whose blocks are read from pages: a sidecar's path, or by default sink itself.
    One binary pass over the file's lines, each ended by "\\n" (see load_tracks), hashes them
    and writes each accepted line's rows to sink as soon as it is parsed, hashing each
    block's rows as it goes and keeping only the line's header record; it builds no Track.
    No line's bytes outlive its decode, and no parsed point array outlives its line.  The header, block
    digests, end record and checksum follow; of what sink holds, only they are read back."""
    records, ids, rejects, digests = [], set(), [], []
    source, block = hashlib.sha256(), hashlib.sha256()
    line_no = block_rows = 0
    with open(path, "rb") as fh:
        for raw in fh:   # counted here, as enumerate's reused tuple would keep the last line
            line_no += 1
            source.update(raw)
            line = raw.decode("utf-8", "surrogateescape")
            del raw
            if line.isspace():
                continue
            record, rows, err = _parse_track(line)
            del line
            if err is None and record[0] in ids:
                err = f"duplicate track_id {record[0]!r}"
            if err is not None:
                rejects.append((line_no, err))
            else:
                ids.add(record[0])
                records.append(record)
                if block_rows and block_rows + len(rows) > _CHECK_ROWS:   # as _block_starts
                    digests.append(block.digest())
                    block, block_rows = hashlib.sha256(), 0
                block_rows += len(rows)
                block.update(rows)
                sink.write(rows)
            del rows
    if block_rows:
        digests.append(block.digest())
    digest = source.digest()
    header = _sidecar_header(records, rejects)
    trailer = header + b"".join(digests) + _SIDECAR_END.pack(
        _SIDECAR_MAGIC, _SIDECAR_VERSION, digest, len(digests), len(header))
    sink.write(trailer + hashlib.sha256(trailer).digest())
    return _sidecar_result(sink, digest, path, sink if pages is None else pages, parsed=True)


def _read_exactly(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ValueError("sidecar ends early")
    return data


def _read_sidecar(path) -> Optional[LoadResult]:
    """The LoadResult the sidecar of path holds for the file's bytes as they are now, or
    None when there is no sidecar, it is for other bytes, or it fails any check."""
    sidecar = _sidecar_path(path)
    try:
        with open(sidecar, "rb") as fh, open(path, "rb") as src:
            digest = hashlib.file_digest(src, "sha256").digest()
            return _sidecar_result(fh, digest, path, sidecar, parsed=False)
    except (OSError, ValueError, TypeError, LookupError, RecursionError):
        return None


def _sidecar_result(fh, digest: bytes, path, pages, parsed: bool) -> LoadResult:
    """The sidecar of path in the seekable binary stream fh, checked as a model file is, all
    but its point rows: magic and version, the parsed bytes' digest (which must be digest),
    exact lengths, the checksum of header, block digests and end record, one header form, a
    digest per block, and every track and reject as a parse would give it; its tracks'
    points are read from pages (a sidecar's path, or a stream that holds it) a block at a
    time, each _Block built with weak references to its own tracks.  This is the one place a
    loaded Track is built, once per track, its record passed by _record_error as a parse
    passes it.  parsed is the caller's: True from a parse.  Any defect raises ValueError (or
    TypeError or LookupError from a header of the wrong shape).  The end record is read,
    then the header and block digests, and no row.  No size is allocated before the stream's
    length bounds it."""
    size = fh.seek(0, os.SEEK_END)
    if size < _SIDECAR_TAIL:
        raise ValueError("sidecar ends early")
    fh.seek(size - _SIDECAR_TAIL)
    end, checksum = _read_exactly(fh, _SIDECAR_END.size), _read_exactly(fh, _DIGEST_LEN)
    magic, version, source, blocks, header_len = _SIDECAR_END.unpack(end)
    if magic != _SIDECAR_MAGIC or version != _SIDECAR_VERSION:
        raise ValueError("not a sidecar of this version")
    rows_len = size - _SIDECAR_TAIL - header_len - _DIGEST_LEN * blocks
    if rows_len < 0:
        raise ValueError("sidecar header runs past its start")
    if source != digest:
        raise ValueError("sidecar of other bytes")
    fh.seek(rows_len)
    tail = _read_exactly(fh, header_len + _DIGEST_LEN * blocks)
    if hashlib.sha256(tail + end).digest() != checksum:
        raise ValueError("sidecar checksum mismatch")
    header = tail[:header_len]
    doc = json.loads(header.decode())
    records = doc["tracks"]
    counts = [row[-1] for row in records]
    if not all(type(n) is int and n > 0 and len(row) == len(_RECORD_KEYS) + 1
               for n, row in zip(counts, records)):
        raise ValueError("sidecar track row of another form")
    if _ROW_BYTES * sum(counts) != rows_len:
        raise ValueError("sidecar length is not its header's")
    digests = [tail[at:at + _DIGEST_LEN] for at in range(header_len, len(tail), _DIGEST_LEN)]
    rows = _SidecarRows(path, source, pages, counts, digests)
    if len(rows.starts) - 1 != blocks:
        raise ValueError("sidecar block count is not its header's")
    tracks = []
    for index, (first, stop) in enumerate(pairwise(rows.starts)):
        block = _Block(rows, index, [])
        for record in records[first:stop]:
            if _record_error(record) or not record[0]:   # the rule leaves None or a string
                raise ValueError("sidecar track a parse would refuse")
            track_id, *texts, scratch, _ = record
            tracks.append(Track(track_id, block, scratchpad_runway=scratch,
                                **dict(zip(_STRING_KEYS.values(), texts))))
            block.tracks.append(weakref.ref(tracks[-1]))
    rejects = [tuple(r) for r in doc["rejects"]]
    lines = [line for line, _ in rejects]
    if not (all(type(line) is int and line > 0 and _plain_text(why) for line, why in rejects)
            and lines == sorted(set(lines))
            and len({t.track_id for t in tracks}) == len(tracks)):
        raise ValueError("sidecar result a parse would not give")
    # a parse writes the header of the records it accepts, so they must re-encode to it
    if _sidecar_header(records, rejects) != header:
        raise ValueError("sidecar header is not the one its result writes")
    return LoadResult(tracks, rejects, parsed)


@dataclass(slots=True, frozen=True, eq=False)
class _Block:
    """One block of a sidecar load's point rows and weak references to the load's tracks in
    it, which hold it: reading the block sets the points of those still alive.  Nothing a
    track reaches refers back to it strongly, so a dropped load is freed at once."""

    rows: _SidecarRows
    index: int
    tracks: list   # a weakref.ref of each track, in load order, appended as it is built


class _SidecarRows:
    """The point rows of one sidecar load, read from pages (a sidecar's path, or a stream
    that holds it) a block at a time.  The first points read of a track whose block is not
    read in reads, hashes and checks that block under a lock of the load, sets the points of
    the live tracks its _Block lists, unsets those of the list it held before, and holds
    that list (of weak references, so the rows it set are freed with the tracks).
    Where a block fails a check, the file is parsed again; if the parse is of the bytes the
    load read (their SHA-256 is the load's), the load reads its blocks from the parse's sidecar
    from then on, and else the read raises TrackDataError."""

    def __init__(self, path, source: bytes, pages, counts: list, digests: list):
        self._lock = threading.Lock()
        self._path, self._source = path, source   # the SHA-256 of the bytes the load read
        self._pages, self._digests = pages, digests   # and each block's SHA-256
        self._bounds = [0, *accumulate(counts)]   # 0, then the row each track's points end before
        self.starts = _block_starts(counts)
        self._held: list = []   # the _Block.tracks whose live tracks' points are set

    def points(self, track: Track) -> np.ndarray:
        """The points of track, with its block read in."""
        block = track._block
        with self._lock:
            if self._held is not block.tracks:
                for held in filter(None, (ref() for ref in self._held)):
                    object.__delattr__(held, "points")
                self._held = []
                for ref, points in zip(block.tracks, self._runs(block.index)):
                    if (each := ref()) is not None:
                        object.__setattr__(each, "points", points)
                self._held = block.tracks
            return object.__getattribute__(track, "points")

    def _runs(self, index: int) -> list:
        """The points of block index's tracks, from pages or else from a parse."""
        try:
            return self.read(index)
        except (OSError, ValueError) as e:   # a sidecar missing, replaced or damaged
            _log.warning("%s: its sidecar's point rows failed a check (%s); parsing it again",
                         self._path, e)
        parse = _parse_file(self._path)
        again = parse.tracks[0]._block.rows if parse.tracks else None
        if again is None or again._source != self._source:
            raise TrackDataError(f"{self._path} changed after it was loaded")
        self._pages, self._digests = again._pages, again._digests
        try:
            return self.read(index)
        except (OSError, ValueError):   # the parse's sidecar changed since it was written
            raise TrackDataError(f"{self._path} changed after it was loaded") from None

    def read(self, index: int) -> list:
        """The points of block index's tracks: its rows read from pages into one array,
        hashed and checked once and made read-only, and cut into the tracks' row runs."""
        bounds = self._bounds[self.starts[index]:self.starts[index + 1] + 1]
        first = bounds[0]
        values = np.empty((bounds[-1] - first, len(_POINT_KEYS)), _ROW_DTYPE)
        with (open(self._pages, "rb") if isinstance(self._pages, str)
              else contextlib.nullcontext(self._pages)) as fh:
            fh.seek(first * _ROW_BYTES)
            if fh.readinto(values) != values.nbytes:
                raise ValueError("sidecar ends early")
        if hashlib.sha256(values).digest() != self._digests[index]:
            raise ValueError("sidecar rows checksum mismatch")
        values = _checked(values.astype(np.float64, copy=False), [b - first for b in bounds[1:]])
        if values is None:
            raise ValueError("sidecar points a parse would refuse")
        values.setflags(write=False)
        return [values[a - first:b - first].view(POINT_DTYPE)[:, 0]
                for a, b in pairwise(bounds)]


def track_to_json(track: Track) -> str:
    """One JSONL line for a track; None-valued optionals are omitted."""
    obj: dict = {"track_id": track.track_id}
    for key, name in (*_STRING_KEYS.items(), ("scratchpad_runway", "scratchpad_runway")):
        if (val := getattr(track, name)) is not None:
            obj[key] = val
    obj["points"] = [dict(zip(_POINT_KEYS, p)) for p in track.points.tolist()]
    return json.dumps(obj, separators=(",", ":"))


def save_tracks(tracks: Iterable[Track], path) -> None:
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
    """The lines of the text file at path; a line that is not UTF-8 is a MalformedRecord."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline=newline) as fh:
        lines = fh.readlines()
    for line_no, line in enumerate(lines, start=1):
        if not _encodable(line):
            raise MalformedRecord(path, line_no, "invalid UTF-8")
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
