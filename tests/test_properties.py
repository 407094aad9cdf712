"""Property tests of the file formats, the config, the point parser, the row check,
closest approach and the convolution pair against their oracles: round trips, the
per-point rule, a per-row loop, a scalar loop, the adjoint identity, each direction
through the other layer and a tap-by-tap scatter."""

import csv
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import struct
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rotortrack import autoencoder as ae  # noqa: E402
from rotortrack import cli  # noqa: E402
from rotortrack import identify as idf  # noqa: E402
from rotortrack import neuralcore as nn  # noqa: E402
from rotortrack import trackdata as td  # noqa: E402
from rotortrack import validate as vl  # noqa: E402

# Every key a config file may set, by section.
SETTABLE = {
    "paths": ("tracks", "labels", "runways", "registration", "heli_types"),
    "synth": ("seed", "helicopters", "ga", "commercial"),
    "autoencoder": ("seed",),
    "training": ("epochs", "seed"),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


def finite(lo=None, hi=None, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


optional_text = st.none() | st.text()
point = st.tuples(finite(), finite(-90.0, 90.0), finite(-180.0, 180.0), finite(),
                  finite(0.0, 360.0, exclude_max=True), finite(0.0))
points = st.lists(point, min_size=1, max_size=6, unique_by=lambda p: p[0]).map(sorted)
tracks = st.builds(
    td.Track, track_id=st.text(min_size=1), points=points, callsign=optional_text,
    mode_s=optional_text, tail_number=optional_text, declared_type=optional_text,
    arrival_airport=optional_text, runway_id=optional_text,
    scratchpad_runway=st.none() | st.booleans())


def track_values(track):
    """A track's field values, its points as bytes, so -0.0 and 0.0 differ and a field
    added to Track is compared too.  The closest-approach memo is not a field it is built from."""
    return tuple(track.points.tobytes() if f.name == "points" else getattr(track, f.name)
                 for f in dataclasses.fields(track) if f.init)


@settings(max_examples=60, deadline=None)
@given(st.lists(tracks, min_size=1, max_size=3, unique_by=lambda t: t.track_id))
def test_tracks_round_trip_through_jsonl(workdir, given_tracks):
    path = workdir / "tracks.jsonl"
    td.save_tracks(given_tracks, path)
    result = td.load_tracks(path)
    assert result.rejects == []
    assert [track_values(t) for t in result.tracks] == [track_values(t) for t in given_tracks]


@settings(max_examples=100, deadline=None)
@given(st.text(st.characters(blacklist_categories=()), min_size=1))   # surrogates included
@example("\ud800C0007")
@example("a\x00b")
def test_any_json_string_track_id_round_trips_as_utf8_or_is_a_named_reject(workdir, track_id):
    path = workdir / "tracks.jsonl"
    td.save_tracks([td.Track(track_id, [(0.0, 40.0, -86.0, 1000.0, 0.0, 50.0)])], path)
    result = td.load_tracks(path)
    try:
        track_id.encode("utf-8")   # every artifact that names the track can hold it
    except UnicodeEncodeError:   # a lone surrogate
        assert result.rejects == [(1, "track_id must be a string without lone surrogates "
                                      "when present")]
    else:
        assert result.rejects == [] and [t.track_id for t in result.tracks] == [track_id]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.text(), finite(0.0), finite(0.0, 1.0)), max_size=4,
                unique_by=lambda row: row[0]))   # classify writes one row per track
@example([("a\x00b", 0.5, 0.5)])
def test_results_csv_round_trips_for_any_track_id(workdir, rows):
    results = [idf.decide(tid, mae, score, idf.Thresholds(0.01)) for tid, mae, score in rows]
    path = workdir / "results.csv"
    cli._write_csv(path, [cli.RESULTS_HEADER] + [cli._result_row(r) for r in results])
    assert cli.read_results(path) == (results, {})


validation_records = st.builds(
    vl.ValidationRecord, track_id=st.text(), mae=finite(), runway_score=finite(),
    pred_is_helicopter=st.booleans(), matched=st.sampled_from(vl.MatchKind),
    is_helicopter_ac_reg=st.none() | st.booleans(), aircraft_class=optional_text,
    model=optional_text, manufacturer=optional_text, type_designator=optional_text,
    declared_type=optional_text, class_conflict=st.booleans())


@settings(max_examples=100, deadline=None)
@given(st.lists(validation_records, max_size=4))
@pytest.mark.parametrize("fields", [cli.VALIDATION_FIELDS, cli.PSEUDO_TYPE_FIELDS],
                         ids=["validation", "pseudo_types"])
def test_record_rows_read_back_as_their_cells(workdir, fields, records):
    path = workdir / "records.csv"
    cells = [[cli._cell(getattr(r, f)) for f in fields] for r in records]
    cli._write_records(path, fields, records)
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [list(fields)] + cells


runways = st.builds(
    td.Runway, runway_id=st.text(min_size=1).filter(lambda s: s == s.strip()),
    threshold_lat=finite(-90.0, 90.0), threshold_lon=finite(-180.0, 180.0),
    threshold_elev=finite(), centerline_course=finite(0.0, 360.0, exclude_max=True),
    length=finite(0.0, exclude_min=True))


@settings(max_examples=100, deadline=None)
@given(st.lists(runways, min_size=1, max_size=3, unique_by=lambda rw: rw.runway_id))
@example([td.Runway("a\x00b", 40.0, -86.0, 600.0, 270.0, 8000.0)])
def test_runways_round_trip_through_csv(workdir, given_runways):
    path = workdir / "runways.csv"
    cli._write_records(path, td.RUNWAY_FIELDS, given_runways)
    assert td.load_runways(path) == {rw.runway_id: rw for rw in given_runways}


def test_every_settable_key_can_be_set(workdir):
    defaults = cli.load_config(None)
    path = workdir / "one_key.json"
    for section, keys in SETTABLE.items():
        for key in keys:
            built = defaults[section]
            value = built[key] if isinstance(built, dict) else getattr(built, key)
            path.write_text(json.dumps({section: {key: value}}))
            assert cli.load_config(str(path)) == defaults, f"{section}.{key}"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((None,) + tuple(SETTABLE)), st.text())
def test_any_key_outside_the_settable_set_exits_1(workdir, section, key):
    allowed = tuple(SETTABLE) if section is None else SETTABLE[section]
    hypothesis.assume(key not in allowed)
    doc = {key: 1} if section is None else {section: {key: 1}}
    name = key if section is None else f"{section}.{key}"
    path = workdir / "unknown_key.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(cli.CliError) as exc:
        cli.load_config(str(path))
    assert name in str(exc.value)
    assert cli.main(["--out-dir", str(workdir / "out"), "--config", str(path), "synth"]) == 1


# --------------------------------------------------------------------------
# the point parser against the per-point rule

KEYS = ("t", "lat", "lon", "alt", "course", "gs")


def per_point_rule(raw_points):
    """Reject reason of the first bad point, or None: one point at a time, as the parser
    checked points before it built arrays.  An integer beyond the float range is named,
    and times compare as the floats that are stored."""
    prev_t = None
    for i, rp in enumerate(raw_points):
        if not isinstance(rp, dict):
            return f"point {i} is not an object"
        for k in KEYS:
            if k not in rp:
                return f"point {i}: point missing field {k!r}"
            v = rp[k]
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                return f"point {i}: point field {k!r} is not a number"
            try:
                if not math.isfinite(v):
                    return f"point {i}: point field {k!r} is not finite"
            except OverflowError:
                return f"point {i}: point field {k!r} is out of float range"
        if not -90.0 <= rp["lat"] <= 90.0:
            return f"point {i}: lat {rp['lat']} out of [-90, 90]"
        if not -180.0 <= rp["lon"] <= 180.0:
            return f"point {i}: lon {rp['lon']} out of [-180, 180]"
        if not 0.0 <= rp["course"] < 360.0:
            return f"point {i}: course {rp['course']} out of [0, 360)"
        if rp["gs"] < 0.0:
            return f"point {i}: gs {rp['gs']} is negative"
        if prev_t is not None and float(rp["t"]) <= prev_t:
            return f"point {i}: time not strictly increasing"
        prev_t = float(rp["t"])
    return None


def number(lo, hi, exclude_max=False):
    top = math.ceil(hi) - 1 if exclude_max else math.floor(hi)
    return finite(lo, hi, exclude_max=exclude_max) | st.integers(math.ceil(lo), top)


BIG = 10**400
DEFECTS = {
    "t": st.sampled_from([True, "1.0", None, math.nan, math.inf, -math.inf, BIG, [1]]),
    "lat": st.sampled_from([False, math.nan, BIG, -BIG, 90.5, -91, math.nextafter(90.0, 91.0)]),
    "lon": st.sampled_from([math.inf, "x", 180.000001, -181, {}]),
    "alt": st.sampled_from([None, -math.inf, -BIG, True]),
    "course": st.sampled_from([360.0, 360, -0.5, -1, 1e300, math.nan]),
    "gs": st.sampled_from([-1e-300, -1, -BIG, math.nan, "0"]),
}


@st.composite
def point_lists(draw):
    """Valid points, then at most one planted defect."""
    times = draw(st.lists(finite() | st.integers(-2**60, 2**60), min_size=1, max_size=6,
                          unique_by=float))
    points = [{"t": t, "lat": draw(number(-90.0, 90.0)), "lon": draw(number(-180.0, 180.0)),
               "alt": draw(finite() | st.integers(-10**6, 10**6)),
               "course": draw(number(0.0, 360.0, exclude_max=True)),
               "gs": draw(finite(0.0) | st.integers(0, 10**6))}
              for t in sorted(times, key=float)]
    i = draw(st.integers(0, len(points) - 1))
    defect = draw(st.sampled_from(["none", "value", "missing", "not_object", "repeat_t",
                                   "decrease_t"]))
    if defect == "value":
        key = draw(st.sampled_from(KEYS))
        points[i][key] = draw(DEFECTS[key])
    elif defect == "missing":
        del points[i][draw(st.sampled_from(KEYS))]
    elif defect == "not_object":
        points[i] = draw(st.sampled_from([[1.0], "point", 3, None, True]))
    elif defect in ("repeat_t", "decrease_t") and i > 0:
        prev = points[i - 1]["t"]
        points[i]["t"] = prev if defect == "repeat_t" else float(prev) - draw(finite(0.0, 1e6))
    return points


@settings(max_examples=300, deadline=None)
@given(point_lists())
@pytest.mark.parametrize("separators", [None, (",", ":")], ids=["spaced", "compact"])
def test_parser_accepts_exactly_what_the_per_point_rule_accepts(workdir, separators, raw_points):
    """With JSON's default separators and with track_to_json's compact ones."""
    path = workdir / "points.jsonl"
    line = json.dumps({"track_id": "P", "points": raw_points}, separators=separators)
    path.write_text(line + "\n", encoding="utf-8")
    wire_points = json.loads(line)["points"]
    result = td.load_tracks(path)
    reason = per_point_rule(wire_points)
    if reason is not None:
        assert result.rejects == [(1, reason)] and result.tracks == []
        return
    assert result.rejects == []
    (track,) = result.tracks
    assert track.points.tolist() == [tuple(float(p[k]) for k in KEYS) for p in wire_points]


# --------------------------------------------------------------------------
# the one-pass row check against a per-row loop

# Values at and past each field's bounds, among them ones a row may hold
EDGES = {
    "t": [math.nan, math.inf, -math.inf, 0.0],
    "lat": [90.0, -90.0, math.nextafter(90.0, math.inf), math.nextafter(-90.0, -math.inf),
            math.nan],
    "lon": [180.0, -180.0, math.nextafter(180.0, math.inf), -math.inf],
    "alt": [math.inf, -math.inf, math.nan, -1e308],
    "course": [0.0, -0.0, math.nextafter(360.0, 0.0), 360.0, math.nextafter(0.0, -1.0)],
    "gs": [-0.0, 0.0, -5e-324, -1.0, math.inf],
}


@st.composite
def row_runs(draw):
    """Point rows cut into runs, with the runs' ends: each run's rows in bounds and its times
    rising, and any step between runs; then a few edge values and equal or falling times,
    at a run's start or inside it."""
    runs = draw(st.lists(st.lists(finite(-1e9, 1e9), min_size=1, max_size=5, unique=True)
                         .map(sorted), max_size=5))
    rows = [[t, draw(finite(-90.0, 90.0)), draw(finite(-180.0, 180.0)), draw(finite()),
             draw(finite(0.0, 360.0, exclude_max=True)), draw(finite(0.0))]
            for times in runs for t in times]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        change = draw(st.sampled_from(["edge", "equal_t", "falling_t"]))
        if change == "edge":
            key = draw(st.sampled_from(KEYS))
            rows[i][KEYS.index(key)] = draw(st.sampled_from(EDGES[key]))
        elif i > 0:
            rows[i][0] = rows[i - 1][0] - (0.0 if change == "equal_t" else draw(finite(0.0, 1e6)))
    ends = list(itertools.accumulate(map(len, runs)))
    return rows, ends


def rows_pass_one_by_one(rows, ends) -> bool:
    """Whether every row is finite and within _POINT_RULES, and each time after the first
    of its run is later than the one before: one row at a time."""
    starts = {0, *ends}
    for i, row in enumerate(rows):
        point = dict(zip(KEYS, row))
        if not all(math.isfinite(v) for v in row):
            return False
        for key, (low, high, _) in td._POINT_RULES.items():
            if not low <= point[key] <= high:
                return False
        if i not in starts and not row[0] > rows[i - 1][0]:
            return False
    return True


@settings(max_examples=400, deadline=None)
@given(row_runs(), st.sampled_from([1, 2, 3, 5, td._CHECK_ROWS]))
def test_the_row_check_accepts_exactly_what_a_per_row_loop_accepts(runs, block_rows):
    """With blocks as small as one row, so that block edges meet run edges too."""
    rows, ends = runs
    values = np.array(rows, dtype=np.float64).reshape(-1, 6)
    with mock.patch.object(td, "_CHECK_ROWS", block_rows):
        checked = td._checked(values, ends)
    assert checked is (values if rows_pass_one_by_one(rows, ends) else None)


# --------------------------------------------------------------------------
# the sidecar against the parse

def comparable(result):
    """A LoadResult with every track's points as bytes, so -0.0 and 0.0 differ."""
    return [track_values(t) for t in result.tracks], result.rejects


JUNK_LINES = [b"not json {", b"[]", b"{}", b"   ", b'{"track_id":""}',
              b'{"track_id":"A","points":[]}', b'{"track_id":"\xff"}', b'{"track_id":"\\ud800"}']


def track_lines(track):
    """A track's line as track_to_json writes it, and with JSON's default separators."""
    line = td.track_to_json(track)
    return st.sampled_from([line, json.dumps(json.loads(line))]).map(str.encode)


@st.composite
def track_files(draw):
    """The bytes of a track file: compact and spaced lines, repeated ids, lines that
    are rejected, one line ending throughout and a last one or not."""
    repeatable = st.builds(td.Track, track_id=st.sampled_from("AB") | st.text(min_size=1),
                           points=points, callsign=optional_text, runway_id=optional_text,
                           scratchpad_runway=st.none() | st.booleans())
    lines = draw(st.lists(repeatable.flatmap(track_lines) | st.sampled_from(JUNK_LINES),
                          max_size=5))
    ending = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    return ending.join(lines) + draw(st.sampled_from([ending, b""]))


def sidecar_of(path):
    return path.with_name(path.name + ".rtcache")


@settings(max_examples=200, deadline=None)
@given(track_files())
def test_a_second_load_of_the_same_bytes_reads_what_the_first_parsed(workdir, data):
    path = workdir / "sidecar.jsonl"
    path.write_bytes(data)
    sidecar_of(path).unlink(missing_ok=True)
    first = td.load_tracks(path)
    sidecar = sidecar_of(path).read_bytes()
    end = td._SIDECAR_END.unpack_from(sidecar, len(sidecar) - td._SIDECAR_TAIL)
    assert end[2] == hashlib.sha256(data).digest()
    with mock.patch.object(td, "_parse_track", side_effect=AssertionError("parsed")):
        assert comparable(td.load_tracks(path)) == comparable(first)


FLIPPED_FILE = b"".join(td.track_to_json(td.Track(tid, [(1.0, 40.0, -86.0, 900.0, 90.0, 60.0),
                                                        (2.0, 40.0, -86.1, 800.0, 90.0, 60.0)],
                                                  callsign="C" + tid)).encode() + b"\n"
                        for tid in ("A", "B")) + b"not json\n"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_sidecar_with_any_byte_changed_never_fails_a_load(workdir, data):
    """Unsigned, the change is refused and the file parsed, at the load or at its first
    points read; with the block digest (for a change in the rows) and the checksum
    recomputed, the load may read changed values a parse could give, but never raises."""
    path = workdir / "flipped.jsonl"
    path.write_bytes(FLIPPED_FILE)
    sidecar_of(path).unlink(missing_ok=True)
    expected = comparable(td.load_tracks(path))
    good = sidecar_of(path).read_bytes()
    end_at = len(good) - td._SIDECAR_TAIL
    *_, blocks, header_len = td._SIDECAR_END.unpack_from(good, end_at)
    assert blocks == 1   # the file's two tracks, whose digest follows the header
    digest_at = end_at - td._DIGEST_LEN
    rows_len = digest_at - header_len
    resign = data.draw(st.booleans())
    at = data.draw(st.integers(0, len(good) - (33 if resign else 1)))
    changed = good[:at] + bytes([good[at] ^ data.draw(st.integers(1, 255))]) + good[at + 1:]
    if resign:
        if at < rows_len:
            changed = (changed[:digest_at] + hashlib.sha256(changed[:rows_len]).digest()
                       + changed[end_at:])
        tail = changed[rows_len:-td._DIGEST_LEN]
        changed = changed[:rows_len] + tail + hashlib.sha256(tail).digest()
    sidecar_of(path).write_bytes(changed)
    loaded = comparable(td.load_tracks(path))
    if not resign:
        assert loaded == expected
        assert sidecar_of(path).read_bytes() == good


BLOCK_ROWS = 8


@st.composite
def paged_tracks(draw):
    """Tracks of up to a block's rows each, one of them longer than a block, in file order."""
    counts = draw(st.lists(st.integers(1, BLOCK_ROWS), min_size=1, max_size=8))
    counts.insert(draw(st.integers(0, len(counts))),
                  draw(st.integers(BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3)))
    return [td.Track(f"T{i}", draw(st.lists(point, min_size=n, max_size=n,
                                            unique_by=lambda p: p[0]).map(sorted)))
            for i, n in enumerate(counts)]


@settings(max_examples=60, deadline=None)
@given(paged_tracks(), st.data())
def test_blocks_read_in_any_order_give_a_parses_points(workdir, given_tracks, data):
    """Cold in two directories, then warm, each track's points are read in a random order,
    repeats included; two cold loads of the same bytes write the same sidecar."""
    paths = [workdir / name / "paged.jsonl" for name in ("a", "b")]
    for path in paths:
        path.parent.mkdir(exist_ok=True)
        td.save_tracks(given_tracks, path)
        sidecar_of(path).unlink(missing_ok=True)
    parse = [td._parse_track(td.track_to_json(t))[1].tobytes() for t in given_tracks]
    n = len(given_tracks)
    with mock.patch.object(td, "_CHECK_ROWS", BLOCK_ROWS):
        loads = [td.load_tracks(paths[0]), td.load_tracks(paths[1]), td.load_tracks(paths[0])]
        assert [load.parsed for load in loads] == [True, True, False]
        assert sidecar_of(paths[0]).read_bytes() == sidecar_of(paths[1]).read_bytes()
        for load in loads:
            order = data.draw(st.permutations(range(n)))
            order += data.draw(st.lists(st.integers(0, n - 1), max_size=n))
            for i in order:
                assert load.tracks[i].points.tobytes() == parse[i]


# --------------------------------------------------------------------------
# closest approach against a scalar loop

RUNWAY = td.Runway("KXYZ-27", 40.0, -86.0, 600.0, 270.0, 8000.0)


def scalar_closest(points, runway):
    """(first index of the smallest distance, that distance), one point at a time."""
    cos_ref = math.cos(math.radians(runway.threshold_lat))
    best_i, best_d = 0, math.inf
    for i, (_, lat, lon, _, _, _) in enumerate(points):
        east = math.radians(lon - runway.threshold_lon) * td.EARTH_RADIUS_KM * cos_ref
        north = math.radians(lat - runway.threshold_lat) * td.EARTH_RADIUS_KM
        d = math.hypot(east, north) / td.KM_PER_NM
        if d < best_d:
            best_i, best_d = i, d
    return best_i, best_d


@functools.cache
def vector_ties() -> list:
    """Pairs of spots (a, b) that np.hypot puts no nearer the threshold than each other
    in that order while math.hypot puts b nearer, found on 1-ulp grids around seeded
    spots (none if the two functions agree on this platform)."""
    rng = np.random.default_rng(0)
    steps = np.arange(-30, 31)
    pairs = []
    for _ in range(40):
        lat0 = RUNWAY.threshold_lat + rng.uniform(-0.1, 0.1)
        lon0 = RUNWAY.threshold_lon + rng.uniform(-0.1, 0.1)
        lat = np.repeat(lat0 + steps * math.ulp(lat0), steps.size)
        lon = np.tile(lon0 + steps * math.ulp(lon0), steps.size)
        east, north = td.en_offset_km(lat, lon, RUNWAY.threshold_lat, RUNWAY.threshold_lon)
        vec = np.hypot(east, north)
        exact = np.array(list(map(math.hypot, east.tolist(), north.tolist())))
        for a in np.flatnonzero(vec != exact).tolist():
            b = np.flatnonzero((vec >= vec[a]) & (exact < exact[a]))
            if b.size:
                pairs.append(((lat[a], lon[a]), (lat[b[0]], lon[b[0]])))
                break
    return pairs


@st.composite
def positions(draw):
    """(lat, lon) near the runway, with planted exact ties, 1-ulp neighbours and
    pairs that np.hypot and math.hypot order differently."""
    offsets = draw(st.lists(st.tuples(finite(-0.3, 0.3), finite(-0.3, 0.3)), min_size=1,
                            max_size=12))
    spots = [(RUNWAY.threshold_lat + a, RUNWAY.threshold_lon + b) for a, b in offsets]
    if vector_ties() and draw(st.booleans()):
        pair = draw(st.sampled_from(vector_ties()))
        for spot in (pair if draw(st.booleans()) else pair[::-1]):
            spots.insert(draw(st.integers(0, len(spots))), tuple(map(float, spot)))
    for _ in range(draw(st.integers(0, 6))):
        lat, lon = spots[draw(st.integers(0, len(spots) - 1))]
        d_lat, d_lon = draw(st.sampled_from([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1)]))
        tie = (lat + d_lat * math.ulp(lat), lon + d_lon * math.ulp(lon))
        spots.insert(draw(st.integers(0, len(spots))), tie)
    return spots


@settings(max_examples=300, deadline=None)
@given(positions())
def test_closest_approach_matches_a_scalar_loop(spots):
    track = td.Track("C", [(float(i), lat, lon, 1000.0, 270.0, 90.0)
                           for i, (lat, lon) in enumerate(spots)])
    want_i, want_d = scalar_closest(track.points.tolist(), RUNWAY)
    got_i, got_d = td.closest_approach_index(track, RUNWAY)
    assert got_i == want_i
    assert got_d == want_d


@settings(max_examples=300, deadline=None)
@given(positions(), st.integers(0, 2))
def test_a_kept_closest_approach_is_a_fresh_tracks(spots, others):
    """Near ties included, the memo returns what a fresh Track computes, whatever other
    thresholds it holds, and for an equal but distinct runway."""
    points = [(float(i), lat, lon, 1000.0, 270.0, 90.0) for i, (lat, lon) in enumerate(spots)]
    track = td.Track("C", points)
    first = td.closest_approach_index(track, RUNWAY)
    for k in range(others):
        moved = td.Runway("M", RUNWAY.threshold_lat + 0.01 * (k + 1), RUNWAY.threshold_lon,
                          RUNWAY.threshold_elev, RUNWAY.centerline_course, RUNWAY.length)
        td.closest_approach_index(track, moved)
    assert td.closest_approach_index(track, td.Runway(*dataclasses.astuple(RUNWAY))) == first
    assert first == td.closest_approach_index(td.Track("C", points), RUNWAY)


# --------------------------------------------------------------------------
# the model file: any checksum-valid body loads and saves back to itself, or is a
# ModelFormatError


@functools.cache
def small_model() -> ae.ModelParams:
    spec = ae.AutoencoderSpec(input_len=4, n_features=2, encoder_convs=((3, 2, 2),),
                              latent_dim=2, seed=5)
    model = ae.build(spec)
    model.norm_stats = td.NormStats(mean=np.full((4, 2), 0.5), std=np.full((4, 2), 2.0))
    return model


# Any byte, or one that now and then leaves a JSON header parseable but changed.
EDIT_BYTES = st.integers(0, 255) | st.sampled_from(b'0123456789-.eE,:[]{}" tfn')


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_any_resigned_model_body_loads_or_is_a_format_error(workdir, data):
    path = workdir / "model.rtae"
    ae.save(small_model(), path)
    body = bytearray(path.read_bytes()[:-32])
    if data.draw(st.booleans(), label="replace"):
        for _ in range(data.draw(st.integers(1, 4), label="replacements")):
            body[data.draw(st.integers(0, len(body) - 1), label="offset")] = data.draw(EDIT_BYTES)
    else:
        del body[data.draw(st.integers(0, len(body)), label="cut"):]
        body += data.draw(st.binary(max_size=64), label="appended")
    path.write_bytes(bytes(body) + hashlib.sha256(body).digest())
    try:
        model = ae.load(path)
    except ae.ModelFormatError:
        return
    # a body that loads is one save writes: saving it back gives the same bytes
    ae.save(model, workdir / "saved_back.rtae")
    assert (workdir / "saved_back.rtae").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("written, edited", [
    (b'"latent_dim":2,', b'"latent_dim":2.0,'),
    (b'"seed":5,', b'"seed":true,'),
    (b'[[3,2,2]]', b'[[3.0,2,2]]'),
], ids=["float_latent_dim", "bool_seed", "float_kernel"])
def test_a_resigned_header_that_would_save_back_changed_is_a_format_error(workdir, written,
                                                                            edited):
    path = workdir / "model.rtae"
    ae.save(small_model(), path)
    body = path.read_bytes()[:-32]
    start = len(ae.MAGIC) + 4
    (n,) = struct.unpack_from("<I", body, start)
    header = body[start + 4:start + 4 + n]
    assert written in header
    header = header.replace(written, edited)
    body = body[:start] + struct.pack("<I", len(header)) + header + body[start + 4 + n:]
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(ae.ModelFormatError):
        ae.load(path)


# --------------------------------------------------------------------------
# the convolution pair: the transposed conv is the conv's adjoint


@st.composite
def conv_geometries(draw):
    """(kernel, stride, c_in, c_out, n_in, batch)."""
    return (draw(st.integers(1, 8)), draw(st.integers(1, 5)), draw(st.integers(1, 6)),
            draw(st.integers(1, 6)), draw(st.integers(1, 40)), draw(st.integers(1, 3)))


@settings(max_examples=200, deadline=None)
@given(conv_geometries(), st.integers(0, 2**32 - 1))
def test_conv_and_transpose_are_adjoint_for_any_geometry(geometry, seed):
    k, stride, c_in, c_out, n_in, batch = geometry
    rng = np.random.default_rng(seed)
    conv = nn.Conv1DLayer.init(rng, k, stride, c_in, c_out)
    conv.b[:] = 0.0
    tr = nn.ConvTranspose1DLayer(k, stride, c_out, c_in,
                                 w=np.ascontiguousarray(np.swapaxes(conv.w, 1, 2)),
                                 b=np.zeros(c_in))
    x = rng.normal(size=(batch, n_in, c_in))
    y = conv.forward(x)
    cot = rng.normal(size=y.shape)
    back = tr.forward(cot)
    n = min(back.shape[1], n_in)   # positions past n belong to padding
    lhs = float(np.sum(y * cot))
    rhs = float(np.sum(x[:, :n, :] * back[:, :n, :]))
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


@settings(max_examples=200, deadline=None)
@given(conv_geometries(), st.integers(0, 2**32 - 1))
@example((2, 5, 3, 2, 19, 2), 0)   # s > k: the padded long side reaches past the last tap
@example((1, 2, 2, 3, 9, 1), 1)    # k = 1
def test_each_layers_backward_is_the_other_layers_forward(geometry, seed):
    """The two directions are one geometry: with the weights shared, a layer's input
    gradient is the other layer's forward of its grad_out."""
    k, stride, c_in, c_out, n_in, batch = geometry
    rng = np.random.default_rng(seed)
    conv = nn.Conv1DLayer.init(rng, k, stride, c_in, c_out)
    conv.b[:] = 0.0
    tr = nn.ConvTranspose1DLayer(k, stride, c_out, c_in,
                                 w=np.ascontiguousarray(np.swapaxes(conv.w, 1, 2)),
                                 b=np.zeros(c_in))
    x = rng.normal(size=(batch, n_in, c_in))
    ws = nn.Workspace([conv, tr])
    grad_short = rng.normal(size=(batch, conv.out_length(n_in), c_out))
    grad_x = conv.backward(x, grad_short, ws)
    assert np.max(np.abs(grad_x - tr.forward(grad_short)[:, :n_in])) < 1e-12
    grad_long = rng.normal(size=(batch, tr.out_length(grad_short.shape[1]), c_in))
    grad_h = tr.backward(grad_short, grad_long, ws)
    assert np.max(np.abs(grad_h - conv.forward(grad_long))) < 1e-12


def per_tap_fold(cols, k, s, length):
    """The short-to-long oracle: each tap's rows added onto the long side at stride s,
    one strided add per tap, in tap order."""
    batch, n, kc = cols.shape
    taps = cols.reshape(batch, n, k, kc // k)
    out = np.zeros((batch, length, kc // k))
    for j in range(k):
        out[:, j:j + (n - 1) * s + 1:s] += taps[:, :, j]
    return out


def per_tap_spread(short, taps, s, length):
    """Short to long by the per-tap scatter of per-tap products, in float64, cropped to
    length, with the same scatter of |short| @ |taps| that bounds its rounding error."""
    k, left = len(taps), (len(taps) - 1) // 2

    def scatter(x, w):
        cols = np.concatenate([x @ w[j] for j in range(k)], axis=2)
        return per_tap_fold(cols, k, s, length + k - 1)[:, left:left + length]
    short, taps = short.astype(np.float64), taps.astype(np.float64)
    return scatter(short, taps), scatter(np.abs(short), np.abs(taps))


@settings(max_examples=300, deadline=None)
@given(conv_geometries(), st.sampled_from(("float32", "float64")), st.integers(0, 2**32 - 1))
@example((2, 5, 3, 2, 19, 2), "float64", 0)   # k < s: every window lands apart
@example((3, 3, 2, 4, 10, 1), "float32", 1)   # k = s, batch 1
@example((7, 2, 6, 16, 50, 3), "float64", 2)  # s does not divide k: zero taps
@example((1, 2, 2, 3, 9, 1), "float32", 3)    # k = 1
def test_both_short_to_long_passes_match_a_per_tap_scatter(geometry, dtype, seed):
    """The transposed conv's forward and the conv's input gradient, each one polyphase
    GEMM, against the per-tap scatter of per-tap products.  Both sum the same terms in
    other orders, so each position may differ by the rounding of a sum of at most
    (k + 1)(a + 1) terms (a the short side's channels): that many units of the dtype's
    eps times the sum of the terms' magnitudes.  With a workspace whose arrays hold
    stale values, each pass gives the same bits as the forward without one and the
    backward on a fresh one."""
    k, stride, c_long, c_short, n_short, batch = geometry
    rng = np.random.default_rng(seed)
    eps = np.finfo(dtype).eps
    tr = nn.ConvTranspose1DLayer.init(rng, k, stride, c_short, c_long, dtype=dtype)
    conv = nn.Conv1DLayer.init(rng, k, stride, c_long, c_short, dtype=dtype)
    ws = nn.Workspace([tr, conv])

    def within_bound(run, first_ws, short, taps, length):
        got = run(first_ws)
        want, scale = per_tap_spread(short, taps, stride, length)
        assert got.dtype == dtype and got.shape == want.shape
        assert np.all(np.abs(got - want) <= (k + 1) * (c_short + 1) * eps * scale)
        run(ws)
        for a in ws.arrays.values():
            a.fill(np.nan)
        assert run(ws).tobytes() == got.tobytes()

    short = rng.normal(size=(batch, n_short, c_short)).astype(dtype)
    within_bound(lambda w: tr.forward(short, w), None, short, tr.w, n_short * stride)
    length = (n_short - 1) * stride + int(rng.integers(1, stride + 1))
    x = rng.normal(size=(batch, length, c_long)).astype(dtype)
    grad_out = rng.normal(size=(batch, conv.out_length(length), c_short)).astype(dtype)
    within_bound(lambda w: conv.backward(x, grad_out, w), nn.Workspace([tr, conv]), grad_out,
                 conv.w.transpose(0, 2, 1), length)


def row_by_row_sum(rows):
    """The bias-gradient oracle: one row added at a time, from +0.0, in the rows' dtype."""
    acc = np.zeros(rows.shape[1], rows.dtype)
    for row in rows:
        acc += row
    return acc


@settings(max_examples=300, deadline=None)
@given(conv_geometries().filter(lambda g: g[3] >= 2), st.sampled_from(("float32", "float64")),
       st.integers(0, 2**32 - 1))
@example((7, 2, 6, 16, 100, 32), "float64", 0)   # the shipped first stage at batch 32
@example((5, 2, 32, 16, 25, 32), "float32", 1)   # the shipped inner transposed conv
def test_conv_bias_gradients_equal_a_row_by_row_sum_bit_for_bit(geometry, dtype, seed):
    k, stride, c_in, c_out, n_in, batch = geometry
    rng = np.random.default_rng(seed)
    conv = nn.Conv1DLayer.init(rng, k, stride, c_in, c_out, dtype=dtype)
    tr = nn.ConvTranspose1DLayer.init(rng, k, stride, c_in, c_out, dtype=dtype)
    x = rng.normal(size=(batch, n_in, c_in)).astype(dtype)
    for layer in (conv, tr):
        grad_out = rng.normal(size=(batch, layer.out_length(n_in), c_out)).astype(dtype)
        ws = nn.Workspace([layer])
        layer.backward(x, grad_out, ws)
        _, grad_b = ws.grads[id(layer)]
        assert grad_b.tobytes() == row_by_row_sum(grad_out.reshape(-1, c_out)).tobytes()


@settings(max_examples=200, deadline=None)
@given(conv_geometries(), st.integers(1, 64), st.integers(1, 64), st.integers(1, 4),
       st.sampled_from(("float32", "float64")), st.integers(0, 2**32 - 1))
@example((7, 2, 6, 16, 100, 1), 800, 16, 31, "float64", 0)   # shipped sizes, batch 1 after 32
@example((1, 2, 2, 3, 9, 1), 1, 1, 1, "float32", 1)            # k = 1, one-unit dense
def test_every_pass_on_a_stale_workspace_gives_a_fresh_ones_bytes(geometry, d_in, d_out, extra,
                                                                   dtype, seed):
    """The three layer types' forward and backward passes, run on a workspace whose
    arrays a larger batch left NaN-filled, give every output and gradient to the bit as
    on a fresh workspace."""
    k, stride, c_in, c_out, n_in, batch = geometry
    rng = np.random.default_rng(seed)
    conv = nn.Conv1DLayer.init(rng, k, stride, c_in, c_out, dtype=dtype)
    tr = nn.ConvTranspose1DLayer.init(rng, k, stride, c_in, c_out, dtype=dtype)
    dense = nn.DenseLayer.init(rng, d_in, d_out, dtype=dtype)
    layers = [conv, tr, dense]
    for layer in layers:
        layer.b[...] = rng.normal(size=layer.b.shape)

    def cases(rows):
        """(layer, input, grad_out) of each layer at rows rows."""
        out = []
        for layer in layers:
            if layer is dense:
                x_shape, g_shape = (rows, d_in), (rows, d_out)
            else:
                x_shape, g_shape = (rows, n_in, c_in), (rows, layer.out_length(n_in), c_out)
            out.append((layer, rng.normal(size=x_shape).astype(dtype),
                        rng.normal(size=g_shape).astype(dtype)))
        return out

    def passes(runs, ws):
        return [a.tobytes() for layer, x, grad_out in runs
                for a in (layer.forward(x, ws), layer.backward(x, grad_out, ws),
                          *ws.grads[id(layer)])]

    runs = cases(batch)
    fresh = passes(runs, nn.Workspace(layers))
    ws = nn.Workspace(layers)
    passes(cases(batch + extra), ws)
    for a in (*ws.arrays.values(), ws.grad):
        a.fill(np.nan)
    assert passes(runs, ws) == fresh
