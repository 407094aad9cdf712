"""Property tests of the file formats, the config, the point parser, closest approach
and the convolution pair against their oracles: round trips, the per-point rule, a
scalar loop, the adjoint identity, each direction through the other layer and a
tap-by-tap scatter."""

import csv
import dataclasses
import functools
import hashlib
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
points = st.lists(
    st.tuples(finite(), finite(-90.0, 90.0), finite(-180.0, 180.0), finite(),
              finite(0.0, 360.0, exclude_max=True), finite(0.0)),
    min_size=1, max_size=6, unique_by=lambda p: p[0],
).map(sorted)
tracks = st.builds(
    td.Track, track_id=st.text(min_size=1), points=points, callsign=optional_text,
    mode_s=optional_text, tail_number=optional_text, declared_type=optional_text,
    arrival_airport=optional_text, runway_id=optional_text,
    scratchpad_runway=st.none() | st.booleans())
STRING_FIELDS = ("track_id", "callsign", "mode_s", "tail_number", "declared_type",
                 "arrival_airport", "runway_id")


def holds_nul(*texts) -> bool:
    """Whether a text holds NUL, which Python 3.10's csv module can neither write nor read,
    so that no track and no CSV cell may hold it."""
    return any(isinstance(text, str) and "\0" in text for text in texts)


def loadable(given_tracks):
    """The tracks load_tracks keeps of those given: each whose strings hold no NUL."""
    return [t for t in given_tracks if not holds_nul(*(getattr(t, f) for f in STRING_FIELDS))]


@settings(max_examples=60, deadline=None)
@given(st.lists(tracks, min_size=1, max_size=3, unique_by=lambda t: t.track_id))
def test_tracks_round_trip_through_jsonl(workdir, given_tracks):
    path = workdir / "tracks.jsonl"
    td.save_tracks(given_tracks, path)
    result = td.load_tracks(path)
    kept = loadable(given_tracks)
    assert [line_no for line_no, _ in result.rejects] == [
        i for i, t in enumerate(given_tracks, start=1) if t not in kept]
    assert all(reason.endswith("must be a string without lone surrogates or NUL when present")
               for _, reason in result.rejects)
    assert result.tracks == kept


@settings(max_examples=100, deadline=None)
@given(st.text(st.characters(blacklist_categories=()), min_size=1))   # surrogates included
@example("\ud800C0007")
@example("a\x00b")
def test_any_json_string_track_id_round_trips_as_utf8_or_is_a_named_reject(workdir, track_id):
    path = workdir / "tracks.jsonl"
    td.save_tracks([td.Track(track_id, [(0.0, 40.0, -86.0, 1000.0, 0.0, 50.0)])], path)
    result = td.load_tracks(path)
    if result.tracks:
        assert result.rejects == [] and result.tracks[0].track_id == track_id
        track_id.encode("utf-8")   # every artifact that names the track can hold it
    else:
        assert result.rejects == [(1, "track_id must be a string without lone surrogates "
                                      "or NUL when present")]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.text(), finite(0.0), finite(0.0, 1.0)), max_size=4,
                unique_by=lambda row: row[0]))   # classify writes one row per track
@example([("a\x00b", 0.5, 0.5)])
def test_results_csv_round_trips_for_any_track_id(workdir, rows):
    results = [idf.decide(tid, mae, score, idf.Thresholds()) for tid, mae, score in rows]
    path = workdir / "results.csv"
    table = [cli.RESULTS_HEADER] + [cli._result_row(r) for r in results]
    if holds_nul(*(tid for tid, _, _ in rows)):
        with pytest.raises(cli.CliError, match="a cell holds NUL"):
            cli._write_csv(path, table)
        return
    cli._write_csv(path, table)
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
    if holds_nul(*(cell for row in cells for cell in row)):
        with pytest.raises(cli.CliError, match="a cell holds NUL"):
            cli._write_records(path, fields, records)
        return
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
    if holds_nul(*(rw.runway_id for rw in given_runways)):
        with pytest.raises(cli.CliError, match="a cell holds NUL"):
            cli._write_records(path, td.RUNWAY_FIELDS, given_runways)
        return
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
    """Spaced lines take the general route; compact ones the text route where it applies."""
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
# the text route against the general route

def plain(lo, hi):
    """Floats in [lo, hi] that repr without an exponent, as the text route reads them."""
    return st.integers(math.ceil(lo * 64), math.floor(hi * 64)).map(lambda i: i / 64)


plain_points = st.lists(
    st.tuples(plain(-1e9, 1e9), plain(-90.0, 90.0), plain(-180.0, 180.0), plain(-1e5, 1e5),
              plain(0.0, 359.99), plain(0.0, 1e3)),
    min_size=1, max_size=4, unique_by=lambda p: p[0],
).map(sorted)
LITERALS = ["0", "-0", "-0.0", "1e5", "1E5", "1.", "01", "+1", ".5", "1-2", "--1", "", "NaN",
            "Infinity", "-Infinity", "true", "null", '"1"', "1" * 400, "1" * 5000,
            "-01", "-.5", "00", "0.", "-0.", "-00.5", "1.2.3", "-", "0.-5", "1.5-"]


def loaded(path):
    """A LoadResult with every track's points as bytes, so -0.0 and 0.0 differ."""
    result = td.load_tracks(path)
    return ([(t.track_id, t.points.tobytes(), t.callsign, t.mode_s, t.tail_number,
              t.declared_type, t.arrival_airport, t.runway_id, t.scratchpad_runway)
             for t in result.tracks], result.rejects)


@st.composite
def mutated_lines(draw):
    """A line track_to_json writes, with one textual change (or an emptied value and a
    number character put elsewhere), and a line ending."""
    track = draw(st.builds(td.Track, track_id=st.text(min_size=1), points=plain_points,
                           callsign=optional_text, runway_id=optional_text,
                           scratchpad_runway=st.none() | st.booleans()))
    line = td.track_to_json(track)
    split = line.index(',"points":[')
    head = line[:split]
    points = [[[k, json.dumps(v)] for k, v in zip(KEYS, p)] for p in track.points.tolist()]
    i, j, j2 = (draw(st.integers(0, len(points) - 1)), draw(st.integers(0, 5)),
                draw(st.integers(0, 5)))
    kind = draw(st.sampled_from(["none", "literal", "int", "swap_keys", "repeat_key",
                                 "digit_in_key", "number_char", "space_after_comma",
                                 "points_in_head", "points_text_in_head", "empty_head",
                                 "empty_points", "empty_value_and_number_char"]))
    if kind == "literal":
        points[i][j][1] = draw(st.sampled_from(LITERALS))
    elif kind == "int":
        points[i][j][1] = str(draw(st.integers(-10**20, 10**20)))
    elif kind == "swap_keys":
        points[i][j][0], points[i][j2][0] = points[i][j2][0], points[i][j][0]
    elif kind == "repeat_key":
        points[i][j2][0] = points[i][j][0]
    elif kind == "digit_in_key":
        key = points[i][j][0]
        at = draw(st.integers(0, len(key)))
        points[i][j][0] = key[:at] + draw(st.sampled_from("09.-+")) + key[at:]
    elif kind == "points_in_head":
        head += ',"points":' + draw(st.sampled_from(["[]", "5", '[{"t":1}]']))
    elif kind == "points_text_in_head":
        head += ',"callsign":' + json.dumps(',"points":[')
    elif kind == "empty_head":
        head = "{"
    elif kind == "empty_value_and_number_char":   # a number char may fill the emptied slot
        points[i][j][1] = ""
    body = ",".join("{" + ",".join(f'"{k}":{v}' for k, v in p) + "}" for p in points)
    if kind == "empty_points":
        body = ""
    line = f'{head},"points":[{body}]}}'
    if kind == "space_after_comma":
        at = line.find(",", draw(st.integers(0, len(line) - 1))) + 1 or len(line) - 1
        line = line[:at] + " " + line[at:]
    elif kind in ("number_char", "empty_value_and_number_char"):
        # anywhere in the points array: a value, a key, between objects
        at = draw(st.integers(split + len(',"points":['), len(line) - 1))
        line = line[:at] + draw(st.sampled_from("0123456789.-+")) + line[at:]
    return line + draw(st.sampled_from(["\n", "\r\n", ""]))


@settings(max_examples=500, deadline=None)
@given(mutated_lines())
@example('{"track_id":"X","points":[{"t":1,"lat":2,"lon":3,"alt":4,"course":5,"gs":6}]}\n')
@example('{"track_id":"X","points":[{"t":1,"la9t":2,"lon":3,"alt":4,"course":5,"gs":6}]}\n')
@example('{"track_id":"X","points":[{"t":1,"lat":2,"lon":3,"alt":4,"course":5,"gs":6}9]}\n')
@example('{,"points":[{"t":1,"lat":2,"lon":3,"alt":4,"course":5,"gs":6}]}\n')
@example('{"track_id":"X","points":[{"t":1,"lon":3,"lat":2,"alt":4,"course":5,"gs":6},'
         '{"t":2,"lat":2,"lon":3,"alt":4,"course":5,"gs":6}]}\n')
@example('{"track_id":"X","points":[{"t":1,"lat":2,"lon":3,"alt":4,"course":5,"gs":6},'
         '{"t":2,"lon":3,"lat":2,"alt":4,"course":5,"gs":6}]}\n')
# an emptied value slot beside a number character in its key or after its point's "}"
@example('{"track_id":"X","points":[{"9t":,"lat":2,"lon":3,"alt":4,"course":5,"gs":6}]}\n')
@example('{"track_id":"X","points":[{"t":1,"lat":2,"lon":3,"alt":4,"course":5,"gs":}6]}\n')
# numbers numpy's text reader takes but JSON refuses, and "-0", which JSON reads as 0.0
@example('{"track_id":"X","points":[{"t":1,"lat":+1,"lon":3,"alt":4,"course":5,"gs":6}]}\n')
@example('{"track_id":"X","points":[{"t":1,"lat":01,"lon":3,"alt":4,"course":5,"gs":6}]}\n')
@example('{"track_id":"X","points":[{"t":1,"lat":-01,"lon":3,"alt":4,"course":5,"gs":6}]}\n')
@example('{"track_id":"X","points":[{"t":1,"lat":1.,"lon":3,"alt":4,"course":5,"gs":6}]}\n')
@example('{"track_id":"X","points":[{"t":1,"lat":.5,"lon":3,"alt":4,"course":5,"gs":6}]}\n')
@example('{"track_id":"X","points":[{"t":1,"lat":-.5,"lon":3,"alt":4,"course":5,"gs":6}]}\n')
@example('{"track_id":"X","points":[{"t":1,"lat":-0,"lon":3,"alt":4,"course":5,"gs":6}]}\n')
# the form check's edges: no points, no final newline, number characters in the head, and
# a second points key after the array
@example('{"track_id":"X","points":[]}\n')
@example('{"track_id":"X","points":[{"t":1,"lat":2,"lon":3,"alt":4,"course":5,"gs":6}]}')
@example('{"track_id":"-0.5","points":[{"t":1,"lat":2,"lon":3,"alt":4,"course":5,"gs":6}]}\n')
@example('{"track_id":"X","points":[{"t":1,"lat":2,"lon":3,"alt":4,"course":5,"gs":6}],'
         '"points":[{"t":2,"lat":2,"lon":3,"alt":4,"course":5,"gs":6}]}\n')
def test_the_text_route_loads_what_the_general_route_loads(workdir, line):
    """A writer's line with any one change (or an emptied value and a stray number
    character) loads as the general route alone loads it: the same tracks, bit for bit,
    and the same rejects."""
    path = workdir / "mutated.jsonl"
    path.write_bytes(line.encode())   # bytes, so that "\r\n" reaches the reader
    both = loaded(path)
    with mock.patch.object(td, "_writer_form", lambda line: None):
        assert loaded(path) == both


def plain_json(line: str) -> bool:
    """Whether every number of a line's points array is written without an exponent."""
    return "e" not in line[line.index(',"points":['):].replace('"course":', "")


@settings(max_examples=60, deadline=None)
@given(st.lists(tracks, min_size=1, max_size=3, unique_by=lambda t: t.track_id))
@example([td.Track("X", [(1.0, 2.0, 3.0, 4.0, 5.0, 6.0), (2.0, 2.0, 3.0, 4.0, 5.0, 6.0)])])
def test_the_writers_lines_take_the_text_route(workdir, given_tracks):
    """Every line save_tracks writes takes the text route unless a number has an exponent."""
    path = workdir / "tracks.jsonl"
    td.save_tracks(given_tracks, path)
    with open(path, encoding="utf-8") as fh:
        for line in fh:   # with its newline, and as a last line without one
            for text in (line, line[:-1]):
                assert (td._writer_form(text) is not None) == plain_json(text)
    plain_tracks = [t for t in given_tracks if plain_json(td.track_to_json(t))]
    td.save_tracks(plain_tracks, path)
    with mock.patch.object(td, "_point_array", side_effect=AssertionError("general route")):
        assert td.load_tracks(path).tracks == loadable(plain_tracks)


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
    grad_short = rng.normal(size=(batch, conv.out_length(n_in), c_out))
    grad_x = conv.backward(x, grad_short)[0]
    assert np.max(np.abs(grad_x - tr.forward(grad_short)[:, :n_in])) < 1e-12
    grad_long = rng.normal(size=(batch, tr.out_length(grad_short.shape[1]), c_in))
    grad_h = tr.backward(grad_short, grad_long)[0]
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
    stale values, each pass gives the same bits as without one."""
    k, stride, c_long, c_short, n_short, batch = geometry
    rng = np.random.default_rng(seed)
    eps = np.finfo(dtype).eps
    tr = nn.ConvTranspose1DLayer.init(rng, k, stride, c_short, c_long, dtype=dtype)
    conv = nn.Conv1DLayer.init(rng, k, stride, c_long, c_short, dtype=dtype)
    ws = nn.Workspace([tr, conv])

    def within_bound(run, short, taps, length):
        got = run(None)
        want, scale = per_tap_spread(short, taps, stride, length)
        assert got.dtype == dtype and got.shape == want.shape
        assert np.all(np.abs(got - want) <= (k + 1) * (c_short + 1) * eps * scale)
        run(ws)
        for a in ws.arrays.values():
            a.fill(np.nan)
        assert run(ws).tobytes() == got.tobytes()

    short = rng.normal(size=(batch, n_short, c_short)).astype(dtype)
    within_bound(lambda w: tr.forward(short, w), short, tr.w, n_short * stride)
    length = (n_short - 1) * stride + int(rng.integers(1, stride + 1))
    x = rng.normal(size=(batch, length, c_long)).astype(dtype)
    grad_out = rng.normal(size=(batch, conv.out_length(length), c_short)).astype(dtype)
    within_bound(lambda w: conv.backward(x, grad_out, w)[0], grad_out, conv.w.transpose(0, 2, 1),
                 length)


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
        grad_b = layer.backward(x, grad_out)[2]
        assert grad_b.tobytes() == row_by_row_sum(grad_out.reshape(-1, c_out)).tobytes()
