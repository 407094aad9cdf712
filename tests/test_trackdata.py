"""Track file parsing, geometry, windowing, features, and table loaders."""

import csv
import dataclasses
import json
import math
import re
import sys
import threading

import numpy as np
import pytest

from rotortrack import runwayscore as rs
from rotortrack import trackdata as td

RUNWAY = td.Runway("KXYZ-27", 40.0, -86.0, 600.0, 270.0, 8000.0)


def make_point(i, lon, lat=40.0, alt=1600.0, course=270.0, gs=110.0):
    return (float(i), lat, lon, alt, course, gs)


def approach_track(n=250, closest=180, track_id="T1", **extra):
    """Straight east-west track whose minimum threshold distance sits at `closest`."""
    pts = [make_point(i, -86.0 + (abs(closest - i)) * 1e-3) for i in range(n)]
    return td.Track(track_id=track_id, points=pts, **extra)


class TestGeometry:
    def test_east_offset_matches_haversine_within_half_percent(self):
        lat, lon = 40.0, -86.0
        east, north = td.en_offset_km(lat, lon + 0.01, lat, lon)
        # haversine reference for a pure-east displacement
        d = 2 * td.EARTH_RADIUS_KM * math.asin(
            math.cos(math.radians(lat)) * math.sin(math.radians(0.005)))
        assert abs(north) < 1e-9
        assert abs(east - d) / d < 0.005

    def test_north_offset_matches_arc_length(self):
        east, north = td.en_offset_km(40.01, -86.0, 40.0, -86.0)
        assert east == 0.0
        assert abs(north - math.radians(0.01) * td.EARTH_RADIUS_KM) < 1e-12

    def test_course_diff_folds_through_north(self):
        assert td.course_diff_deg(350.0, 10.0) == pytest.approx(20.0)
        assert td.course_diff_deg(10.0, 350.0) == pytest.approx(20.0)
        assert td.course_diff_deg(0.0, 180.0) == pytest.approx(180.0)
        assert td.course_diff_deg(90.0, 90.0) == 0.0

    def test_closest_approach_prefers_first_on_ties(self):
        track = td.Track("tie", [make_point(0, -86.001), make_point(1, -85.999),
                                 make_point(2, -86.002)])
        idx, dist = td.closest_approach_index(track, RUNWAY)
        assert idx == 0
        assert dist == pytest.approx(td.threshold_distance_nm(track.points[1], RUNWAY))

    def test_closest_approach_breaks_a_vectorized_tie_as_the_scalar_distance_does(self):
        # np.hypot gives both points the same distance; math.hypot puts the second nearer
        track = td.Track("near", [make_point(0, -85.98356999999996, lat=40.060249999999876),
                                  make_point(1, -85.9835699999996, lat=40.06024999999982)])
        want = [td.threshold_distance_nm(p, RUNWAY) for p in track.points]
        assert want[1] < want[0]
        assert td.closest_approach_index(track, RUNWAY) == (1, want[1])


class TestClosestApproachMemo:
    """A track keeps each threshold's closest approach, so each pair is computed once."""

    FAR = td.Runway("KXYZ-09", 40.0, -85.0, 600.0, 90.0, 8000.0)

    def test_a_repeat_call_and_an_equal_runway_return_the_kept_tuple(self):
        track = approach_track()
        first = td.closest_approach_index(track, RUNWAY)
        assert td.closest_approach_index(track, RUNWAY) is first
        twin = dataclasses.replace(RUNWAY)
        assert twin == RUNWAY and twin is not RUNWAY
        assert td.closest_approach_index(track, twin) is first
        # the key is the threshold's position: another id at the same threshold shares it
        renamed = dataclasses.replace(RUNWAY, runway_id="KXYZ-27R", length=1.0)
        assert td.closest_approach_index(track, renamed) is first
        assert td.closest_approach_index(track, self.FAR) != first

    def test_the_pick_the_window_and_the_score_compute_each_pair_once(self, monkeypatch):
        computed = []
        compute = td._closest_approach

        def spy(track, lat, lon):
            computed.append((track.track_id, lat, lon))
            return compute(track, lat, lon)
        monkeypatch.setattr(td, "_closest_approach", spy)
        track = approach_track()
        runway = td.pick_runway(track, {"KXYZ-09": self.FAR, "KXYZ-27": RUNWAY})
        td.window_arrival(track, runway)
        rs.score_inputs_for_track(track, runway)
        assert computed == [("T1", 40.0, -85.0), ("T1", 40.0, -86.0)]

    def test_equality_and_repr_ignore_the_memo(self):
        track, fresh = approach_track(), approach_track()
        td.closest_approach_index(track, RUNWAY)
        assert track == fresh
        assert repr(track) == repr(fresh)

    def test_the_points_are_read_only(self):
        track = approach_track()
        with pytest.raises(ValueError, match="read-only"):
            track.points["alt"][3] = 1.7e308
        with pytest.raises(ValueError, match="read-only"):
            track.points[3] = make_point(3, -86.0)

    def test_threads_sharing_tracks_get_the_fresh_values(self):
        """Threads that race on one track's memo may compute a pair twice, but every
        call returns what a fresh track computes."""
        runways = [dataclasses.replace(RUNWAY, threshold_lon=-86.0 + 0.01 * j) for j in range(4)]
        tracks = [approach_track(closest=120 + k, track_id=f"T{k}") for k in range(8)]
        want = {(k, j): td.closest_approach_index(approach_track(closest=120 + k), rw)
                for k in range(8) for j, rw in enumerate(runways)}
        got, errors = [], []

        def work(step):
            try:   # each thread walks the runways in its own order
                got.append({(k, j): td.closest_approach_index(tracks[k], runways[j])
                            for k in range(8) for j in list(range(4))[::step]})
            except Exception as e:   # reported by the assertion below
                errors.append(e)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(1 - 2 * (i % 2),)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads) and not errors
        assert got == [want] * 6

    def test_a_track_is_immutable_and_a_replaced_one_starts_a_new_memo(self):
        track = approach_track(closest=180)
        assert td.closest_approach_index(track, RUNWAY)[0] == 180
        with pytest.raises(dataclasses.FrozenInstanceError):
            track.points = approach_track(closest=120).points
        moved = dataclasses.replace(track, points=approach_track(closest=120).points)
        assert td.closest_approach_index(moved, RUNWAY)[0] == 120
        assert td.closest_approach_index(track, RUNWAY)[0] == 180


GOOD_LINE = {
    "track_id": "T100",
    "callsign": "LIFE1",
    "mode_s": "A1B153",
    "tail_number": "N208SH",
    "aircraft_type": "EC30",
    "arrival_airport": "KXYZ",
    "runway_id": "KXYZ-27",
    "scratchpad_runway": False,
    "points": [{"t": float(i), "lat": 40.0, "lon": -86.0 + i * 1e-3,
                "alt": 1600.0, "course": 270.0, "gs": 110.0} for i in range(3)],
}


def write_jsonl(path, objs):
    with open(path, "w", encoding="utf-8") as fh:
        for o in objs:
            fh.write(o if isinstance(o, str) else json.dumps(o))
            fh.write("\n")


class TestLoadTracks:
    def test_good_record_fields_survive(self, tmp_path):
        p = tmp_path / "tracks.jsonl"
        write_jsonl(p, [GOOD_LINE])
        res = td.load_tracks(p)
        assert res.rejects == []
        (t,) = res.tracks
        assert t.track_id == "T100"
        assert t.declared_type == "EC30"
        assert t.scratchpad_runway is False
        assert len(t.points) == 3 and t.points[2].lon == -86.0 + 2e-3

    def test_bad_lines_are_reported_not_fatal(self, tmp_path):
        bad_course = dict(GOOD_LINE, track_id="T101")
        bad_course["points"] = [dict(GOOD_LINE["points"][0], course=360.0)]
        missing_gs = dict(GOOD_LINE, track_id="T102")
        missing_gs["points"] = [{k: v for k, v in GOOD_LINE["points"][0].items() if k != "gs"}]
        stale_clock = dict(GOOD_LINE, track_id="T103")
        stale_clock["points"] = [GOOD_LINE["points"][0], GOOD_LINE["points"][0]]
        p = tmp_path / "tracks.jsonl"
        write_jsonl(p, [GOOD_LINE, "not json {", bad_course, "",
                        missing_gs, dict(GOOD_LINE), stale_clock])
        res = td.load_tracks(p)
        assert [t.track_id for t in res.tracks] == ["T100"]
        reasons = dict(res.rejects)
        assert set(reasons) == {2, 3, 5, 6, 7}      # empty line 4 is skipped silently
        assert "invalid JSON" in reasons[2]
        assert "course" in reasons[3]
        assert "gs" in reasons[5]
        assert "duplicate track_id" in reasons[6]
        assert "time not strictly increasing" in reasons[7]

    @pytest.mark.parametrize("key, value", [("lat", 10**400), ("gs", -10**400)])
    def test_integer_beyond_the_float_range_is_named(self, tmp_path, key, value):
        line = dict(GOOD_LINE, points=[dict(p) for p in GOOD_LINE["points"]])
        line["points"][1][key] = value
        p = tmp_path / "tracks.jsonl"
        write_jsonl(p, [line])
        reason = f"point 1: point field {key!r} is out of float range"
        assert td.load_tracks(p).rejects == [(1, reason)]

    @pytest.mark.parametrize("line, reason", [
        ('{"track_id":"X","points":[{"t":0,"lat":' + "1" * 5000 + "}]}",
         "invalid JSON: integer with too many digits"),
        ('{"track_id":"X","points":' + "[" * 100_000 + "]" * 100_000 + "}",
         "invalid JSON: nested too deeply"),
    ], ids=["5000_digit_integer", "deep_nesting"])
    def test_json_the_decoder_refuses_is_a_named_reject(self, tmp_path, line, reason):
        p = tmp_path / "tracks.jsonl"
        write_jsonl(p, [line, GOOD_LINE])
        res = td.load_tracks(p)
        assert res.rejects == [(1, reason)] and [t.track_id for t in res.tracks] == ["T100"]

    @staticmethod
    def writers_line(alt: str) -> str:
        return '{"track_id":"X","points":[{"t":1,"lat":2,"lon":3,"alt":%s,"course":5,"gs":6}]}' % alt

    @pytest.mark.parametrize("number", ["0", "-0.0", "0.5", "-0.5", "10", "-10.25", "0.000001",
                                        "12345678901234567890", "1.00000000000000011102"])
    def test_a_json_number_takes_the_text_route_with_its_json_value(self, number):
        head, values = td._writer_form(self.writers_line(number))
        assert head == {"track_id": "X"}
        assert values[0, 3].tobytes() == np.float64(json.loads(number)).tobytes()

    @pytest.mark.parametrize("number", ["+1", "01", "-01", "00", "1.", ".5", "-.5", "-00.5", "-0"])
    def test_a_number_json_reads_otherwise_takes_the_general_route(self, tmp_path, number):
        """numpy's text reader takes each of these; JSON refuses all but "-0", the int 0."""
        line = self.writers_line(number)
        assert td._writer_form(line) is None
        p = tmp_path / "tracks.jsonl"
        p.write_text(line + "\n", encoding="utf-8")
        res = td.load_tracks(p)
        if number == "-0":
            assert res.tracks[0].points["alt"].tobytes() == np.zeros(1).tobytes()   # not -0.0
        else:
            [(_, reason)] = res.rejects
            assert reason.startswith("invalid JSON: Expecting")

    def test_undecodable_bytes_reject_only_their_line(self, tmp_path):
        p = tmp_path / "tracks.jsonl"
        good = json.dumps(GOOD_LINE).encode()
        spoiled = json.dumps(dict(GOOD_LINE, track_id="T2", callsign="AB")).encode()
        p.write_bytes(spoiled.replace(b"AB", b"A\xff") + b"\n" + good + b"\n"
                      + spoiled.replace(b"AB", b"\xed\xa0\x80") + b"\n")   # an encoded surrogate
        res = td.load_tracks(p)
        assert res.rejects == [(1, "invalid UTF-8"), (3, "invalid UTF-8")]
        assert [t.track_id for t in res.tracks] == ["T100"]

    def test_non_ascii_utf8_loads(self, tmp_path):
        p = tmp_path / "tracks.jsonl"
        p.write_text(json.dumps(dict(GOOD_LINE, track_id="Zürich-🚁"), ensure_ascii=False) + "\n",
                     encoding="utf-8")
        res = td.load_tracks(p)
        assert res.rejects == [] and res.tracks[0].track_id == "Zürich-🚁"

    @pytest.mark.parametrize("key", ["track_id", "callsign", "aircraft_type", "runway_id"])
    @pytest.mark.parametrize("text", ["\ud800C0007", "a\x00b"], ids=["lone_surrogate", "nul"])
    def test_lone_surrogate_or_nul_in_a_string_field_is_a_named_reject(self, tmp_path, key,
                                                                       text):
        """No UTF-8 output can hold a lone surrogate, and Python 3.10's csv module can
        neither write nor read NUL, so no track may hold either."""
        p = tmp_path / "tracks.jsonl"
        obj = dict(GOOD_LINE, track_id="T2")
        obj[key] = text
        write_jsonl(p, [json.dumps(obj), GOOD_LINE])   # json.dumps writes "\ud800" or "\u0000"
        res = td.load_tracks(p)
        assert res.rejects == [(1, f"{key} must be a string without lone surrogates or NUL "
                                   "when present")]
        assert [t.track_id for t in res.tracks] == ["T100"]

    def test_escaped_surrogate_pair_is_one_character_and_loads(self, tmp_path):
        p = tmp_path / "tracks.jsonl"
        write_jsonl(p, [json.dumps(dict(GOOD_LINE, callsign="\U0001f681"))])
        assert '"\\ud83d\\ude81"' in p.read_text()
        assert td.load_tracks(p).tracks[0].callsign == "\U0001f681"

    def test_times_must_increase_as_the_stored_floats(self, tmp_path):
        lines = []
        for track_id, last_t in (("distinct", 2**53 + 2), ("rounds_to_equal", 2**53 + 1)):
            line = dict(GOOD_LINE, track_id=track_id, points=[dict(p) for p in GOOD_LINE["points"]])
            line["points"][1]["t"] = 2**53
            line["points"][2]["t"] = last_t
            lines.append(line)
        p = tmp_path / "tracks.jsonl"
        write_jsonl(p, lines)
        res = td.load_tracks(p)
        assert [t.track_id for t in res.tracks] == ["distinct"]
        assert res.tracks[0].points["t"].tolist() == [0.0, 2.0**53, 2.0**53 + 2]
        assert res.rejects == [(2, "point 2: time not strictly increasing")]

    def test_round_trip_is_lossless(self, tmp_path):
        src = tmp_path / "in.jsonl"
        dst = tmp_path / "out.jsonl"
        write_jsonl(src, [GOOD_LINE])
        tracks = td.load_tracks(src).tracks
        td.save_tracks(tracks, dst)
        again = td.load_tracks(dst).tracks
        assert [td.track_to_json(t) for t in again] == [td.track_to_json(t) for t in tracks]


    def test_track_keeps_a_point_array_and_converts_point_tuples(self):
        rows = [make_point(0, -86.0), make_point(1, -85.99)]
        pts = np.array(rows, dtype=td.POINT_DTYPE)
        kept = td.Track("arr", pts).points
        assert kept.base is pts and not kept.flags.writeable   # a read-only view, not a copy
        assert td.Track("rows", rows) == td.Track("rows", pts)

    @pytest.mark.parametrize("points", [[list(make_point(0, -86.0))], np.zeros((2, 6))],
                             ids=["list_rows", "float_matrix"])
    def test_points_that_numpy_would_spread_over_the_fields_are_refused(self, points):
        with pytest.raises(td.TrackDataError, match="point tuples or a 1-D POINT_DTYPE array"):
            td.Track("bad", points)


class TestWindowing:
    def test_window_is_last_100_points_ending_at_closest_approach(self):
        track = approach_track(n=250, closest=180)
        win = td.window_arrival(track, RUNWAY)
        assert len(win) == td.WINDOW_LEN
        assert win[0].t == 81.0 and win[-1].t == 180.0

    def test_track_that_never_approaches_raises(self):
        pts = [make_point(i, -86.5 + i * 1e-5) for i in range(150)]
        with pytest.raises(td.NoApproach):
            td.window_arrival(td.Track("far", pts), RUNWAY)

    def test_short_approach_history_raises(self):
        track = approach_track(n=120, closest=50)
        with pytest.raises(td.FewerThan100Points):
            td.window_arrival(track, RUNWAY)

    def test_exactly_100_points_before_closest_is_enough(self):
        track = approach_track(n=100, closest=99)
        win = td.window_arrival(track, RUNWAY)
        assert win[0].t == 0.0 and win[-1].t == 99.0


class TestStageSelection:
    FAR = td.Runway("KXYZ-09", 40.0, -85.0, 600.0, 90.0, 8000.0)
    RUNWAYS = {"KXYZ-09": FAR, "KXYZ-27": RUNWAY}

    def test_pick_runway_trusts_a_known_runway_id(self):
        assert td.pick_runway(approach_track(runway_id="KXYZ-09"), self.RUNWAYS) is self.FAR

    @pytest.mark.parametrize("runway_id", [None, "KNOPE"])
    def test_pick_runway_otherwise_takes_the_nearest_threshold(self, runway_id):
        assert td.pick_runway(approach_track(runway_id=runway_id), self.RUNWAYS) is RUNWAY

    def test_per_helicopter_keeps_track_order_and_returns_the_skipped(self):
        tracks = [approach_track(track_id="H1"), approach_track(n=120, closest=50, track_id="H2"),
                  approach_track(track_id="G1"), approach_track(track_id="X1"),
                  approach_track(closest=200, track_id="H3")]
        labels = {"H1": td.CLASS_HELICOPTER, "H2": td.CLASS_HELICOPTER, "G1": td.CLASS_GA,
                  "H3": td.CLASS_HELICOPTER}
        out, skipped = td.per_helicopter(tracks, labels, self.RUNWAYS, td.arrival_features)
        assert list(out) == ["H1", "H3"]
        want = td.featurize(td.window_arrival(tracks[4], RUNWAY), RUNWAY)
        np.testing.assert_array_equal(out["H3"], want)
        assert [(tid, type(e)) for tid, e in skipped] == [("H2", td.FewerThan100Points)]


class TestLabels:
    def test_loads_classes_by_track_id(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("track_id,class\nH1,helicopter\nG1,ga\n")
        assert td.load_labels(p) == {"H1": "helicopter", "G1": "ga"}

    def test_wrong_header_rejected(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("id,label\nH1,helicopter\n")
        with pytest.raises(td.MalformedRecord, match="labels header"):
            td.load_labels(p)

    def test_space_padded_header_loads_like_a_plain_one(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text(" track_id , class\nH1,helicopter\nG1,ga\n")
        assert td.load_labels(p) == {"H1": "helicopter", "G1": "ga"}

    # A record is numbered by the file line it ends on, counting blank lines and the
    # newlines inside quoted fields.
    @pytest.mark.parametrize("rows, line, reason", [
        ("H1,helicopter\nH1,ga\n", 3, "duplicate track_id 'H1'"),
        ("H1,helicopter\nH2,helicoptr\n", 3, "unknown class 'helicoptr'"),
        ("H1,helicopter\nH2\n", 3, "expected 2 fields, got 1"),
        ("H1,helicopter\n\nG1,ga\nH1,ga\n", 5, "duplicate track_id 'H1'"),
        ('"H\n1",helicopter\nG1,ga\n"H\n1",ga\n', 6, "duplicate track_id 'H\\n1'"),
    ], ids=["repeated_track_id", "misspelt_class", "missing_class", "repeated_after_blank_line",
            "repeated_with_quoted_newline"])
    def test_repeated_id_or_unknown_class_rejected_naming_the_row(self, tmp_path, rows, line,
                                                                  reason):
        p = tmp_path / "labels.csv"
        p.write_text("track_id,class\n" + rows)
        with pytest.raises(td.MalformedRecord, match=re.escape(reason)) as exc:
            td.load_labels(p)
        assert exc.value.position == line
        assert f"labels.csv line {line}:" in str(exc.value)


class TestFeaturize:
    def test_hand_built_point_maps_to_expected_columns(self):
        pt = (0.0, RUNWAY.threshold_lat, RUNWAY.threshold_lon, RUNWAY.threshold_elev + 1000.0,
              0.0, 150.0)
        row = td.featurize(np.array([pt], dtype=td.POINT_DTYPE), RUNWAY)[0]
        # at the threshold, 1000 ft up, 150 kt, course 90 deg off centerline
        assert row[0] == 0.0 and row[1] == 0.0
        assert row[2] == pytest.approx(1.0)
        assert row[3] == pytest.approx(1.5)
        assert row[4] == pytest.approx(math.sin(math.radians(-270.0)), abs=1e-12)
        assert row[5] == pytest.approx(math.cos(math.radians(-270.0)), abs=1e-12)

    def test_matches_a_per_point_loop(self):
        rng = np.random.default_rng(7)
        pts = np.array([(float(i), 40.0 + rng.uniform(-0.2, 0.2), -86.0 + rng.uniform(-0.2, 0.2),
                         rng.uniform(0.0, 9000.0), rng.uniform(0.0, 360.0), rng.uniform(0.0, 400.0))
                        for i in range(300)], dtype=td.POINT_DTYPE)
        want = np.empty((len(pts), td.FEATURE_COUNT))
        cos_ref = math.cos(math.radians(RUNWAY.threshold_lat))
        for i, p in enumerate(pts):
            dc = math.radians(p.course - RUNWAY.centerline_course)
            want[i] = (math.radians(p.lon - RUNWAY.threshold_lon) * td.EARTH_RADIUS_KM * cos_ref,
                       math.radians(p.lat - RUNWAY.threshold_lat) * td.EARTH_RADIUS_KM,
                       (p.alt - RUNWAY.threshold_elev) / 1000.0, p.gs / 100.0,
                       math.sin(dc), math.cos(dc))
        got = td.featurize(pts, RUNWAY)
        np.testing.assert_array_equal(got[:, :4], want[:, :4])
        # numpy's sin and cos may differ from the C library's in the last bits
        np.testing.assert_allclose(got[:, 4:], want[:, 4:], rtol=0, atol=4 * np.finfo(float).eps)

    def test_window_featurizes_to_100_by_6(self):
        track = approach_track()
        win = td.window_arrival(track, RUNWAY)
        feats = td.featurize(win, RUNWAY)
        assert feats.shape == (td.WINDOW_LEN, td.FEATURE_COUNT)
        assert np.all(np.isfinite(feats))


def random_windows(n, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(td.WINDOW_LEN, td.FEATURE_COUNT)) for _ in range(n)]


class TestNormStats:
    def test_per_cell_population_moments(self):
        wins = random_windows(5)
        stats = td.fit_norm_stats(wins)
        stack = np.stack(wins)
        assert np.array_equal(stats.mean, stack.mean(axis=0))
        assert np.array_equal(stats.std, stack.std(axis=0))
        assert stats.mean.shape == (td.WINDOW_LEN, td.FEATURE_COUNT)

    def test_single_window_has_no_variance(self):
        with pytest.raises(td.ZeroVarianceFeature):
            td.fit_norm_stats(random_windows(1))

    def test_constant_feature_column_is_named(self):
        wins = random_windows(4, seed=1)
        for w in wins:
            w[:, 3] = 7.5
        with pytest.raises(td.ZeroVarianceFeature) as exc:
            td.fit_norm_stats(wins)
        assert "3" in str(exc.value)

    def test_overflowing_std_is_named(self):
        wins = random_windows(4, seed=4)
        wins[0][5, 2] = 1.7e305   # finite, but its square overflows
        with pytest.raises(td.TrackDataError, match=r"mean or std is not finite: \[2\]") as exc:
            td.fit_norm_stats(wins)
        assert not isinstance(exc.value, td.ZeroVarianceFeature)

    def test_normalized_fit_inputs_have_zero_mean_unit_std(self):
        wins = random_windows(6, seed=2)
        stats = td.fit_norm_stats(wins)
        zs = np.stack([td.normalize(w, stats, f"w{i}").values
                       for i, w in enumerate(wins)])
        assert np.max(np.abs(zs.mean(axis=0))) < 1e-12
        assert np.max(np.abs(zs.std(axis=0) - 1.0)) < 1e-12

    def test_wrong_window_shape_rejected(self):
        stats = td.fit_norm_stats(random_windows(3, seed=3))
        with pytest.raises(td.TrackDataError):
            td.normalize(np.zeros((td.WINDOW_LEN, td.FEATURE_COUNT + 1)), stats, "bad")

    def test_feature_window_validates_shape_and_finiteness(self):
        with pytest.raises(td.TrackDataError):
            td.FeatureWindow(np.zeros((10, td.FEATURE_COUNT)), "short")
        bad = np.zeros((td.WINDOW_LEN, td.FEATURE_COUNT))
        bad[0, 0] = np.nan
        with pytest.raises(td.TrackDataError, match="track nan: "):
            td.FeatureWindow(bad, "nan")


RUNWAY_CSV = """runway_id,threshold_lat,threshold_lon,threshold_elev,centerline_course,length
KXYZ-27,40.0,-86.0,600.0,270.0,8000.0
KXYZ-09,40.0,-86.03,600.0,90.0,8000.0
"""


class TestRunwayTable:
    def test_runway_is_hashable_and_immutable(self):
        # Python >= 3.11 rejects an unhashable dataclass field default, and
        # synthgen uses a Runway as one.
        twin = td.Runway("KXYZ-27", 40.0, -86.0, 600.0, 270.0, 8000.0)
        assert twin == RUNWAY
        assert hash(twin) == hash(RUNWAY)
        with pytest.raises(dataclasses.FrozenInstanceError):
            RUNWAY.centerline_course = 90.0
        assert RUNWAY.centerline_course == 270.0

    def test_loads_rows_by_id(self, tmp_path):
        p = tmp_path / "runways.csv"
        p.write_text(RUNWAY_CSV)
        runways = td.load_runways(p)
        assert set(runways) == {"KXYZ-27", "KXYZ-09"}
        assert runways["KXYZ-27"].centerline_course == 270.0

    def test_space_padded_header_loads_like_a_plain_one(self, tmp_path):
        plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
        plain.write_text(RUNWAY_CSV)
        header, rest = RUNWAY_CSV.split("\n", 1)
        padded.write_text(header.replace(",", ", ") + "\n" + rest)
        assert td.load_runways(padded) == td.load_runways(plain)

    def test_wrong_header_rejected(self, tmp_path):
        p = tmp_path / "runways.csv"
        p.write_text("id,lat,lon\nKXYZ-27,40,-86\n")
        with pytest.raises(td.MalformedRecord):
            td.load_runways(p)

    def test_duplicate_runway_rejected(self, tmp_path):
        p = tmp_path / "runways.csv"
        p.write_text(RUNWAY_CSV + "KXYZ-27,40.0,-86.0,600.0,270.0,8000.0\n")
        with pytest.raises(td.MalformedRecord):
            td.load_runways(p)

    @pytest.mark.parametrize("field, value, rule", [
        ("threshold_lat", "nan", "in [-90, 90]"),
        ("threshold_lat", "90.5", "in [-90, 90]"),
        ("threshold_lon", "-180.01", "in [-180, 180]"),
        ("threshold_lon", "inf", "in [-180, 180]"),
        ("threshold_elev", "-inf", "finite"),
        ("threshold_elev", "1e400", "finite"),
        ("centerline_course", "nan", "in [0, 360)"),
        ("centerline_course", "360", "in [0, 360)"),
        ("centerline_course", "-0.5", "in [0, 360)"),
        ("length", "-5", "finite and > 0"),
        ("length", "0", "finite and > 0"),
        ("length", "inf", "finite and > 0"),
    ])
    def test_unusable_geometry_rejected_naming_the_row(self, tmp_path, field, value, rule):
        row = dict(zip(td.RUNWAY_FIELDS, RUNWAY_CSV.splitlines()[2].split(",")), **{field: value})
        p = tmp_path / "runways.csv"
        p.write_text(RUNWAY_CSV + "KXYZ-36," + ",".join(list(row.values())[1:]) + "\n")
        with pytest.raises(td.MalformedRecord, match=re.escape(f"{field} must be {rule}")) as exc:
            td.load_runways(p)
        assert exc.value.position == 4
        assert "runways.csv line 4" in str(exc.value)

    @pytest.mark.parametrize("before, runway_id, line", [
        ("\n", "KXYZ-36", 5),
        ('"KXYZ\n18",40.0,-86.0,600.0,180.0,8000.0\n', '"KXYZ\n36"', 7),
    ], ids=["after_blank_line", "quoted_newlines"])
    def test_unusable_geometry_names_the_line_it_ends_on(self, tmp_path, before, runway_id, line):
        p = tmp_path / "runways.csv"
        p.write_text(RUNWAY_CSV + before + runway_id + ",40.0,-86.0,600.0,360,8000.0\n")
        with pytest.raises(td.MalformedRecord, match=re.escape("centerline_course must be")) as exc:
            td.load_runways(p)
        assert exc.value.position == line
        assert f"runways.csv line {line}:" in str(exc.value)

    def test_geometry_at_the_edges_of_its_ranges_loads(self, tmp_path):
        p = tmp_path / "runways.csv"
        p.write_text(RUNWAY_CSV + "EDGE,-90,180,-1e300,0,5e-324\nEDGE2,90,-180,1e300,359.999,1e300\n")
        assert td.load_runways(p)["EDGE"].length == 5e-324

    def test_empty_table_rejected(self, tmp_path):
        p = tmp_path / "runways.csv"
        p.write_text(RUNWAY_CSV.splitlines()[0] + "\n")
        with pytest.raises(td.TrackDataError):
            td.load_runways(p)


REGISTRATION_CSV = """n_number,mode_s_code,model,manufacturer,aircraft_class,type_designator
N208SH,A1B153,EC130 T2,EUROCOPTER,ROTORCRAFT,EC30
N100GA,A00001,SR22,CIRRUS,FIXED_WING,SR22
N55XX,,GLIDER X,SCHLEICHER,OTHER,
"""


class TestRegistrationTable:
    def test_lookup_by_tail_and_mode_s(self, tmp_path):
        p = tmp_path / "reg.csv"
        p.write_text(REGISTRATION_CSV)
        table = td.load_registration(p)
        rec = table.lookup_tail("N208SH")
        assert rec is not None
        assert rec.aircraft_class is td.AircraftClass.ROTORCRAFT
        assert rec.type_designator == "EC30"
        assert rec.manufacturer == "EUROCOPTER"
        assert table.lookup_mode_s("A1B153") is rec

    def test_space_padded_header_loads_like_a_plain_one(self, tmp_path):
        plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
        plain.write_text(REGISTRATION_CSV)
        header, rest = REGISTRATION_CSV.split("\n", 1)
        padded.write_text(" " + header.replace(",", " ,") + " \n" + rest)
        assert td.load_registration(padded) == td.load_registration(plain)

    def test_lookup_normalizes_case_and_whitespace(self, tmp_path):
        p = tmp_path / "reg.csv"
        p.write_text(REGISTRATION_CSV)
        table = td.load_registration(p)
        assert table.lookup_tail(" n208sh ") is table.lookup_tail("N208SH")
        assert table.lookup_mode_s("a1b153") is not None
        assert table.lookup_tail(None) is None
        assert table.lookup_mode_s("") is None

    def test_blank_optional_fields_become_none(self, tmp_path):
        p = tmp_path / "reg.csv"
        p.write_text(REGISTRATION_CSV)
        rec = td.load_registration(p).lookup_tail("N55XX")
        assert rec.mode_s_code is None and rec.type_designator is None

    def test_duplicate_keys_keep_first_row(self, tmp_path):
        p = tmp_path / "reg.csv"
        p.write_text(REGISTRATION_CSV + "N208SH,A1B153,R44 II,ROBINSON,ROTORCRAFT,R44\n")
        table = td.load_registration(p)
        assert table.lookup_tail("N208SH").model == "EC130 T2"
        assert len(table.duplicates) == 2      # tail and mode_s both collide

    def test_rows_are_numbered_by_file_line(self, tmp_path):
        p = tmp_path / "reg.csv"
        p.write_text(REGISTRATION_CSV + '\nN7,B00007,"R44\nII",ROBINSON,ROTORCRAFT,R44\n'
                     "N208SH,,X,Y,ROTORCRAFT,\nN9,B00009,X,Y,BALLOON,\n")
        with pytest.raises(td.MalformedRecord) as exc:
            td.load_registration(p)
        assert exc.value.position == 9
        p.write_text(REGISTRATION_CSV + '\nN7,B00007,"R44\nII",ROBINSON,ROTORCRAFT,R44\n'
                     "N208SH,,X,Y,ROTORCRAFT,\n")
        assert td.load_registration(p).duplicates == ["line 8: duplicate n_number N208SH"]

    def test_unknown_aircraft_class_rejected(self, tmp_path):
        p = tmp_path / "reg.csv"
        p.write_text(REGISTRATION_CSV + "N9,B00002,X,Y,BALLOON,\n")
        with pytest.raises(td.MalformedRecord):
            td.load_registration(p)


# Each input table: its loader, a valid file, and a valid row to append to it
TABLES = {
    "labels": (td.load_labels, "track_id,class\nH1,helicopter\n", "X1,ga"),
    "runways": (td.load_runways, RUNWAY_CSV, "KXYZ-36,40.0,-86.0,600.0,180.0,8000.0"),
    "registration": (td.load_registration, REGISTRATION_CSV, "N9,B00009,X,Y,ROTORCRAFT,R44"),
}


class TestTableRows:
    """What every table loader refuses, as a MalformedRecord naming the file and the line."""

    @pytest.mark.parametrize("table", TABLES)
    def test_field_past_the_csv_limit_is_named(self, tmp_path, table):
        load, text, row = TABLES[table]
        p = tmp_path / f"{table}.csv"
        p.write_text(text + "x" * (csv.field_size_limit() + 1) + row[row.index(","):] + "\n")
        line = text.count("\n") + 1
        with pytest.raises(td.MalformedRecord, match=re.escape(
                f"{table}.csv line {line}: field larger than field limit")):
            load(p)

    @pytest.mark.parametrize("table", TABLES)
    def test_undecodable_bytes_are_named_by_file_and_line(self, tmp_path, table):
        load, text, row = TABLES[table]
        p = tmp_path / f"{table}.csv"
        p.write_bytes(text.encode() + b"\n" + row.encode().replace(b",", b"\xff,", 1) + b"\n")
        line = text.count("\n") + 2   # a blank line comes first
        with pytest.raises(td.MalformedRecord, match=re.escape(
                f"{table}.csv line {line}: invalid UTF-8")):
            load(p)

    @pytest.mark.parametrize("table", TABLES)
    def test_nul_is_named_by_file_and_line(self, tmp_path, table):
        """As Python 3.10's csv reader names it, on every Python."""
        load, text, row = TABLES[table]
        p = tmp_path / f"{table}.csv"
        p.write_text(text + row.replace(",", "\x00,", 1) + "\n")
        line = text.count("\n") + 1
        with pytest.raises(td.MalformedRecord, match=re.escape(
                f"{table}.csv line {line}: line contains NUL")):
            load(p)

    @pytest.mark.parametrize("table", TABLES)
    def test_non_ascii_utf8_fields_load(self, tmp_path, table):
        load, text, row = TABLES[table]
        p = tmp_path / f"{table}.csv"
        first, rest = row.split(",", 1)
        p.write_text(f"{text}{first}é,{rest}\n", encoding="utf-8")
        assert load(p)

    @pytest.mark.parametrize("table, edit, got", [
        ("labels", lambda row: row + ",extra", 3),
        ("runways", lambda row: row + ",9", 7),
        ("registration", lambda row: row.rsplit(",", 1)[0], 5),
    ], ids=["labels_extra_field", "runways_extra_field", "registration_missing_field"])
    def test_row_of_another_length_is_refused(self, tmp_path, table, edit, got):
        load, text, row = TABLES[table]
        p = tmp_path / f"{table}.csv"
        p.write_text(text + row + "\n")
        load(p)
        p.write_text(text + edit(row) + "\n")
        line = text.count("\n") + 1
        with pytest.raises(td.MalformedRecord, match=re.escape(
                f"{table}.csv line {line}: expected {row.count(',') + 1} fields, got {got}")):
            load(p)
