"""Property tests of the file formats, the config, the point parser and closest approach
against their oracles: round trips, the per-point rule and a scalar loop."""

import functools
import json
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rotortrack import cli  # noqa: E402
from rotortrack import identify as idf  # noqa: E402
from rotortrack import trackdata as td  # noqa: E402

# Every key a config file may set, by section; histogram_bins is a top-level key.
SETTABLE = {
    "paths": ("out_dir", "tracks", "labels", "runways", "registration", "heli_types", "model",
              "loss_history", "thresholds", "histogram", "results", "validation", "venn_csv",
              "venn_txt", "pseudo_types", "metrics", "report"),
    "synth": ("seed", "helicopters", "ga", "commercial"),
    "autoencoder": ("encoder_convs", "latent_dim", "activation", "seed", "dtype"),
    "training": ("epochs", "batch_size", "learning_rate", "beta1", "beta2", "eps",
                 "validation_fraction", "patience", "seed"),
    "thresholds": ("percentile", "runway_score_threshold"),
    "runway_score": ("distance_scale_nm", "course_full_scale_deg", "lateral_full_scale_ft",
                     "length_full_scale_ft", "weights"),
}
TOP_LEVEL = tuple(SETTABLE) + ("histogram_bins",)


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
).map(lambda ps: [td.TrackPoint(*p) for p in sorted(ps)])
tracks = st.builds(
    td.Track, track_id=st.text(min_size=1), points=points, callsign=optional_text,
    mode_s=optional_text, tail_number=optional_text, declared_type=optional_text,
    arrival_airport=optional_text, runway_id=optional_text,
    scratchpad_runway=st.none() | st.booleans())


@settings(max_examples=60, deadline=None)
@given(st.lists(tracks, min_size=1, max_size=3, unique_by=lambda t: t.track_id))
def test_tracks_round_trip_through_jsonl(workdir, given_tracks):
    path = workdir / "tracks.jsonl"
    td.save_tracks(given_tracks, path)
    result = td.load_tracks(path)
    assert result.rejects == []
    assert result.tracks == given_tracks


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.text(), finite(0.0), finite(0.0, 1.0)), max_size=4))
def test_results_csv_round_trips_for_any_track_id(workdir, rows):
    results = [idf.decide(tid, mae, score, idf.Thresholds()) for tid, mae, score in rows]
    path = workdir / "results.csv"
    cli._write_csv(path, [cli.RESULTS_HEADER] + [cli._result_row(r) for r in results])
    assert cli.read_results(path) == (results, {})


def test_every_settable_key_can_be_set(workdir):
    defaults = cli.load_config(None)
    path = workdir / "one_key.json"
    for section, keys in SETTABLE.items():
        for key in keys:
            built = defaults[section]
            value = built[key] if isinstance(built, dict) else getattr(built, key)
            path.write_text(json.dumps({section: {key: value}}))
            assert cli.load_config(str(path)) == defaults, f"{section}.{key}"
    path.write_text(json.dumps({"histogram_bins": 12}))
    assert cli.load_config(str(path))["histogram_bins"] == 12


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((None,) + tuple(SETTABLE)), st.text())
def test_any_key_outside_the_settable_set_exits_1(workdir, section, key):
    allowed = TOP_LEVEL if section is None else SETTABLE[section]
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
def test_parser_accepts_exactly_what_the_per_point_rule_accepts(workdir, raw_points):
    path = workdir / "points.jsonl"
    line = json.dumps({"track_id": "P", "points": raw_points})
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
    track = td.Track("C", [td.TrackPoint(float(i), lat, lon, 1000.0, 270.0, 90.0)
                           for i, (lat, lon) in enumerate(spots)])
    want_i, want_d = scalar_closest(track.points.tolist(), RUNWAY)
    got_i, got_d = td.closest_approach_index(track, RUNWAY)
    assert got_i == want_i
    assert got_d == want_d
