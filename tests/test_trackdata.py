"""Track file parsing, geometry, windowing, features, and table loaders."""

import contextlib
import csv
import dataclasses
import functools
import gc
import hashlib
import io
import json
import logging
import math
import os
import re
import shutil
import stat
import struct
import sys
import threading
import time
import weakref
from unittest import mock

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


def values(track):
    """A track's field values, its points as bytes, so a field added to Track is compared too.
    The closest-approach memo is not a field a Track is built from."""
    return tuple(track.points.tobytes() if f.name == "points" else getattr(track, f.name)
                 for f in dataclasses.fields(track) if f.init)


def parsed_values(line):
    """values() of the track a load builds of one line, from the record and rows its parse
    returns; a record's values after track_id are those of the Track fields after points."""
    record, rows, _ = td._parse_track(line)
    return (record[0], rows.tobytes(), *record[1:-1])


def scalar_nm(point, runway):
    """A point's distance to the runway threshold, in NM, one point at a time."""
    return math.hypot(*td.en_offset_km(point.lat, point.lon, runway.threshold_lat,
                                       runway.threshold_lon)) / td.KM_PER_NM


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
        assert dist == pytest.approx(scalar_nm(track.points[1], RUNWAY))

    def test_closest_approach_breaks_a_vectorized_tie_as_the_scalar_distance_does(self):
        # np.hypot gives both points the same distance; math.hypot puts the second nearer
        track = td.Track("near", [make_point(0, -85.98356999999996, lat=40.060249999999876),
                                  make_point(1, -85.9835699999996, lat=40.06024999999982)])
        want = [scalar_nm(p, RUNWAY) for p in track.points]
        assert want[1] < want[0]
        assert td.closest_approach_index(track, RUNWAY) == (1, want[1])

    def test_a_track_whose_distances_are_all_nan_has_no_approach(self):
        track = td.Track("nan", [make_point(i, math.nan) for i in range(3)])
        assert td.closest_approach_index(track, RUNWAY) == (0, math.inf)
        with pytest.raises(td.NoApproach):
            td.window_arrival(track, RUNWAY)


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

    def test_repr_ignores_the_memo(self):
        track, fresh = approach_track(), approach_track()
        td.closest_approach_index(track, RUNWAY)
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

    def test_an_unknown_attribute_of_a_track_is_an_attribute_error(self, tmp_path):
        p = tracks_file(tmp_path)
        td.load_tracks(p)
        for track in (approach_track(), td.load_tracks(p).tracks[0]):   # built, then paged
            with pytest.raises(AttributeError, match="no_such_field"):
                track.no_such_field
            assert getattr(track, "no_such_field", None) is None


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
    def test_a_json_number_loads_with_its_json_value(self, tmp_path, number):
        p = tmp_path / "tracks.jsonl"
        p.write_text(self.writers_line(number) + "\n", encoding="utf-8")
        (track,) = td.load_tracks(p).tracks
        assert track.track_id == "X"
        assert track.points["alt"].tobytes() == np.float64(json.loads(number)).tobytes()

    @pytest.mark.parametrize("number", ["+1", "01", "-01", "00", "1.", ".5", "-.5", "-00.5", "-0"])
    def test_a_number_json_refuses_is_a_reject_and_minus_zero_loads_as_zero(self, tmp_path, number):
        """A looser number reader takes each of these; JSON refuses all but "-0", the int 0."""
        p = tmp_path / "tracks.jsonl"
        p.write_text(self.writers_line(number) + "\n", encoding="utf-8")
        res = td.load_tracks(p)
        if number == "-0":
            assert res.tracks[0].points["alt"].tobytes() == np.zeros(1).tobytes()   # not -0.0
        else:
            [(_, reason)] = res.rejects
            assert reason.startswith("invalid JSON: Expecting")

    @pytest.mark.parametrize("cr_inside, ending, loaded, rejects", [
        (False, "\n", True, [(3, "invalid JSON: Expecting value")]),
        (False, "\r\n", True, [(3, "invalid JSON: Expecting value")]),
        (False, "\r", False, [(1, "invalid JSON: Extra data")]),
        (True, "\n", True, []),
    ], ids=["lf", "crlf", "lone_cr", "cr_as_whitespace"])
    def test_a_line_ends_at_a_line_feed(self, tmp_path, cr_inside, ending, loaded, rejects):
        """As JSON Lines define: a "\\r" before "\\n" or anywhere else in a line is JSON
        whitespace, so a file joined by lone "\\r" is one line, and line numbers count "\\n"."""
        a, b = json.dumps(GOOD_LINE), json.dumps(dict(GOOD_LINE, track_id="T101"))
        lines = [a.replace('"points"', '\r"points"'), b] if cr_inside else [a, b, "not json"]
        p = tmp_path / "tracks.jsonl"
        p.write_bytes((ending.join(lines) + ending).encode())
        res = td.load_tracks(p)
        assert res.rejects == rejects
        assert [values(t) for t in res.tracks] == (
            [parsed_values(a), parsed_values(b)] if loaded else [])

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
        """No UTF-8 output can hold a lone surrogate, so no track may hold one; NUL is text,
        which every CSV artifact writes and reads, so a track holding it loads."""
        p = tmp_path / "tracks.jsonl"
        obj = dict(GOOD_LINE, track_id="T2")
        obj[key] = text
        write_jsonl(p, [json.dumps(obj), GOOD_LINE])   # json.dumps writes "\ud800" or "\u0000"
        res = td.load_tracks(p)
        if "\0" in text:
            assert res.rejects == [] and [t.track_id for t in res.tracks] == [obj["track_id"],
                                                                               "T100"]
            assert getattr(res.tracks[0], td._STRING_KEYS.get(key, key)) == text
        else:
            assert res.rejects == [(1, f"{key} must be a string without lone surrogates "
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
        assert values(td.Track("rows", rows)) == values(td.Track("rows", pts))

    @pytest.mark.parametrize("points", [[list(make_point(0, -86.0))], np.zeros((2, 6))],
                             ids=["list_rows", "float_matrix"])
    def test_points_that_numpy_would_spread_over_the_fields_are_refused(self, points):
        with pytest.raises(td.TrackDataError, match="point tuples or a 1-D POINT_DTYPE array"):
            td.Track("bad", points)


def sidecar_of(path):
    return path.with_name(path.name + ".rtcache")


def tracks_file(directory):
    """Two tracks of three points and a rejected line between them."""
    p = directory / "tracks.jsonl"
    write_jsonl(p, [GOOD_LINE, "not json {", dict(GOOD_LINE, track_id="T101", callsign=None)])
    return p


def parsed(path):
    """What a parse of the file at path returns, read back from a sidecar made in memory,
    so that no file is written."""
    return td._parse_into(path, io.BytesIO())


def snapshot(result):
    """A LoadResult as comparable values: each track's values() and the rejects."""
    return [values(t) for t in result.tracks], result.rejects


def end_record(data):
    """The (magic, version, source digest, block count, header length) of a sidecar's end
    record."""
    return td._SIDECAR_END.unpack_from(data, len(data) - td._SIDECAR_TAIL)


def rows_length(data):
    """The length of a sidecar's point rows, which come first."""
    _, _, _, blocks, header_len = end_record(data)
    return len(data) - td._SIDECAR_TAIL - header_len - td._DIGEST_LEN * blocks


def header_of(data):
    """A sidecar's header, which follows its point rows."""
    start = rows_length(data)
    return data[start:start + end_record(data)[4]]


def block_digests(doc, rows):
    """The SHA-256 of each block of these rows, cut by the header's point counts; the last
    block runs to the end of the rows."""
    counts = [row[-1] for row in doc["tracks"]]
    starts = td._block_starts(counts)
    cuts = [6 * int(sum(counts[:s])) for s in starts[:-1]] + [len(rows)]
    return [hashlib.sha256(rows[a:b]).digest() for a, b in zip(cuts, cuts[1:])]


def resigned(data, edit=None, separators=(",", ":"), **end):
    """The sidecar data with its header or point rows edited, or an end record field
    replaced, and the block digests and the checksum recomputed, so that only the check
    under test can refuse it."""
    fields = dict(zip(("magic", "version", "source", "blocks", "header_len"), end_record(data)))
    start = rows_length(data)
    rows = np.frombuffer(data[:start], "<f8").copy()
    doc = json.loads(data[start:start + fields["header_len"]])
    if edit is not None:
        edit(doc, rows)
    header = json.dumps(doc, separators=separators).encode()
    digests = block_digests(doc, rows)
    fields = {**fields, "blocks": len(digests), "header_len": len(header), **end}
    tail = header + b"".join(digests) + td._SIDECAR_END.pack(*fields.values())
    return rows.tobytes() + tail + hashlib.sha256(tail).digest()


def flipped(find):
    """The sidecar data with one bit changed in the byte at find(data)."""
    def flip(data):
        at = find(data) % len(data)
        return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]
    return flip


def edited(edit):
    return lambda data: resigned(data, edit)


def set_row(i, key, value):
    """An edit that sets one field of track i's header row."""
    def edit(doc, rows):
        doc["tracks"][i][(*td._RECORD_KEYS, "count").index(key)] = value
    return edit


DAMAGE = {
    "empty": lambda data: b"",
    "truncated": lambda data: data[:-1],
    "cut_in_header": lambda data: data[:-td._SIDECAR_TAIL - 5],
    # its last bytes, from inside the end record: fewer than the end record and checksum
    "cut_in_end_record": lambda data: data[1 - td._SIDECAR_TAIL:],
    "trailing_byte": lambda data: data + b"\0",
    "flipped_header_byte": flipped(lambda data: data.index(b"T100")),   # to "U100"
    "flipped_point_byte": flipped(lambda data: 8),   # in the first point's lat
    "flipped_checksum_byte": flipped(lambda data: -1),
    "flipped_block_digest_byte": flipped(lambda data: -td._SIDECAR_TAIL - 1),
    # the rest carry a recomputed checksum
    "other_magic": lambda data: resigned(data, magic=b"RTAE"),
    "other_version": lambda data: resigned(data, version=td._SIDECAR_VERSION + 1),
    "other_source": lambda data: resigned(data, source=bytes(32)),
    "other_block_count": lambda data: resigned(bytes(td._DIGEST_LEN) + data,
                                               blocks=end_record(data)[3] + 1),
    "huge_header_length": lambda data: resigned(data, header_len=2**32 - 1),
    "spaced_header": lambda data: resigned(data, separators=(", ", ": ")),
    "extra_header_key": edited(lambda doc, rows: doc.update(x=1)),
    "extra_point_row": lambda data: resigned(bytes(48) + data),
    "lat_out_of_bounds": edited(lambda doc, rows: rows.__setitem__(1, 91.0)),
    "nan_time": edited(lambda doc, rows: rows.__setitem__(0, math.nan)),
    "time_not_increasing": edited(lambda doc, rows: rows.__setitem__(6, rows[0])),
    # rows 1 -> 2, the last step of the first track, and 3 -> 4, the first of the second
    "time_equal_at_first_tracks_end": edited(lambda doc, rows: rows.__setitem__(12, rows[6])),
    "time_equal_at_second_tracks_start": edited(lambda doc, rows: rows.__setitem__(24, rows[18])),
    "lone_surrogate_in_callsign": edited(set_row(0, "callsign", "a\ud800b")),
    "lone_surrogate_in_track_id": edited(set_row(0, "track_id", "\ud800")),
    "empty_track_id": edited(set_row(0, "track_id", "")),
    "null_track_id": edited(set_row(0, "track_id", None)),
    "number_track_id": edited(set_row(0, "track_id", 5)),
    "duplicate_track_id": edited(set_row(1, "track_id", "T100")),
    "non_bool_scratchpad": edited(set_row(0, "scratchpad_runway", 0)),
    "float_point_count": edited(set_row(0, "count", 3.0)),
    "zero_point_count": edited(lambda doc, rows: [doc["tracks"][0].__setitem__(-1, 0),
                                                  doc["tracks"][1].__setitem__(-1, 6)]),
    "short_track_row": edited(lambda doc, rows: doc["tracks"][0].pop(1)),
    "reject_at_line_zero": edited(lambda doc, rows: doc["rejects"][0].__setitem__(0, 0)),
    "reject_line_as_float": edited(lambda doc, rows: doc["rejects"][0].__setitem__(0, 2.0)),
    "lone_surrogate_in_reject_reason": edited(
        lambda doc, rows: doc["rejects"][0].__setitem__(1, "a\ud800")),
    "rejects_out_of_order": edited(lambda doc, rows: doc["rejects"].append([1, "x"])),
    "reject_of_three_fields": edited(lambda doc, rows: doc["rejects"][0].append(1)),
}
# the damage a load finds only when it reads the point rows, at its first points read
ROW_DAMAGE = ("flipped_point_byte", "lat_out_of_bounds", "nan_time", "time_not_increasing",
              "time_equal_at_first_tracks_end", "time_equal_at_second_tracks_start")


class TestSidecar:
    def test_a_second_load_reads_the_sidecar_and_parses_nothing(self, tmp_path):
        p = tracks_file(tmp_path)
        first = td.load_tracks(p)
        assert first.parsed
        data = sidecar_of(p).read_bytes()
        assert end_record(data)[2] == hashlib.sha256(p.read_bytes()).digest()
        with mock.patch.object(td, "_parse_track", side_effect=AssertionError("parsed")):
            again = td.load_tracks(p)
            assert snapshot(again) == snapshot(first) and not again.parsed
            # the test helper rebuilds a good sidecar byte for byte, so each damage below
            # is refused for what it changes
            assert resigned(data) == data

    @pytest.mark.parametrize("damage", [name for name in DAMAGE if name not in ROW_DAMAGE])
    def test_a_sidecar_damaged_outside_its_rows_is_ignored_and_rewritten_at_load(self, tmp_path,
                                                                               damage):
        p = tracks_file(tmp_path)
        expected = snapshot(parsed(p))
        td.load_tracks(p)
        good = sidecar_of(p).read_bytes()
        sidecar_of(p).write_bytes(DAMAGE[damage](good))
        with mock.patch.object(td, "_parse_track", wraps=td._parse_track) as parse:
            again = td.load_tracks(p)
            assert parse.call_count == 3 and again.parsed
            assert snapshot(again) == expected
        assert sidecar_of(p).read_bytes() == good

    @pytest.mark.parametrize("damage", ROW_DAMAGE)
    def test_a_sidecar_with_damaged_rows_is_ignored_and_rewritten_at_the_first_points_read(
            self, tmp_path, damage):
        p = tracks_file(tmp_path)
        expected = snapshot(parsed(p))
        td.load_tracks(p)
        good = sidecar_of(p).read_bytes()
        sidecar_of(p).write_bytes(DAMAGE[damage](good))
        with mock.patch.object(td, "_parse_track", wraps=td._parse_track) as parse:
            again = td.load_tracks(p)
            assert parse.call_count == 0 and not again.parsed
            assert len(again.tracks[-1].points) == 3
            assert parse.call_count == 3
            assert snapshot(again) == expected
            assert parse.call_count == 3
        assert sidecar_of(p).read_bytes() == good

    def test_a_warm_load_whose_points_are_never_read_reads_no_row_byte(self, tmp_path):
        p = tracks_file(tmp_path)
        expected = snapshot(parsed(p))
        td.load_tracks(p)
        good = sidecar_of(p).read_bytes()
        # rows that fail their digest, which any read of them would find
        sidecar_of(p).write_bytes(bytes(rows_length(good)) + good[rows_length(good):])
        with mock.patch.object(td, "_parse_track", side_effect=AssertionError("parsed")):
            loaded = td.load_tracks(p)
            identities = [tuple(getattr(t, f.name) for f in dataclasses.fields(t)
                                if f.init and f.name != "points") for t in loaded.tracks]
        assert identities == [v[:1] + v[2:] for v in expected[0]]
        assert loaded.rejects == expected[1] and not loaded.parsed
        with mock.patch.object(td, "_parse_track", wraps=td._parse_track) as parse:
            assert snapshot(loaded) == expected
        assert parse.call_count == 3
        assert sidecar_of(p).read_bytes() == good

    def test_a_file_changed_between_the_load_and_the_first_points_read_is_named(self, tmp_path):
        p = tracks_file(tmp_path)
        td.load_tracks(p)
        loaded = td.load_tracks(p)
        assert not loaded.parsed
        p.write_bytes(p.read_bytes().replace(b"T101", b"T909"))   # the same rows
        sidecar_of(p).unlink()
        with pytest.raises(td.TrackDataError, match=re.escape(f"{p} changed after it was loaded")):
            loaded.tracks[0].points
        assert [t.track_id for t in td.load_tracks(p).tracks] == ["T100", "T909"]

    def test_a_rows_read_that_fails_logs_one_warning_naming_the_file_and_the_check(
            self, tmp_path, caplog):
        p = tracks_file(tmp_path)
        td.load_tracks(p)
        sidecar_of(p).write_bytes(DAMAGE["flipped_point_byte"](sidecar_of(p).read_bytes()))
        loaded = td.load_tracks(p)
        with caplog.at_level(logging.INFO, logger="rotortrack"):
            for track in loaded.tracks:
                track.points
        assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
            ("rotortrack.trackdata", "WARNING", f"{p}: its sidecar's point rows failed a check "
             "(sidecar rows checksum mismatch); parsing it again")]

    def test_a_sidecar_cut_short_after_a_warm_load_is_parsed_again_at_the_first_points_read(
            self, tmp_path, caplog):
        p = tracks_file(tmp_path)
        expected = snapshot(parsed(p))
        td.load_tracks(p)
        good = sidecar_of(p).read_bytes()
        loaded = td.load_tracks(p)
        assert not loaded.parsed
        sidecar_of(p).write_bytes(good[:rows_length(good) // 2])
        with caplog.at_level(logging.INFO, logger="rotortrack"):
            assert snapshot(loaded) == expected
        assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
            ("rotortrack.trackdata", "WARNING", f"{p}: its sidecar's point rows failed a check "
             "(sidecar ends early); parsing it again")]
        assert sidecar_of(p).read_bytes() == good

    def test_threads_that_race_on_the_first_points_read_read_the_rows_once(self, tmp_path):
        p = tmp_path / "tracks.jsonl"
        write_jsonl(p, [dict(GOOD_LINE, track_id=f"T{i}") for i in range(40)])
        expected = snapshot(parsed(p))
        td.load_tracks(p)
        loaded = td.load_tracks(p)
        read, reads, got, errors = td._SidecarRows.read, [], [], []

        def slow_read(rows, fh):   # widens the window in which a second read could start
            reads.append(rows)
            time.sleep(0.01)
            return read(rows, fh)

        start = threading.Barrier(8, timeout=60)

        def work(step):
            try:   # each thread reads the tracks in its own order
                start.wait()
                got.append([t.points.tobytes() for t in loaded.tracks[::step]][::step])
            except Exception as e:   # reported by the assertion below
                errors.append(e)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(td._SidecarRows, "read", slow_read):
                threads = [threading.Thread(target=work, args=(1 - 2 * (i % 2),))
                           for i in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads) and not errors
        assert len(reads) == 1
        assert got == [[v[1] for v in expected[0]]] * 8
        assert snapshot(loaded) == expected

    def test_loaded_points_cannot_be_made_writable(self, tmp_path):
        p = tracks_file(tmp_path)
        cold, warm = td.load_tracks(p), td.load_tracks(p)
        assert cold.parsed and not warm.parsed
        for track in cold.tracks + warm.tracks:
            with pytest.raises(ValueError):
                track.points.setflags(write=True)

    def test_a_changed_file_is_parsed_again(self, tmp_path):
        p = tracks_file(tmp_path)
        td.load_tracks(p)
        p.write_bytes(p.read_bytes().replace(b"T101", b"T909"))   # the same size
        with mock.patch.object(td, "_parse_track", wraps=td._parse_track) as parse:
            changed = td.load_tracks(p)
        assert parse.call_count == 3
        assert [t.track_id for t in changed.tracks] == ["T100", "T909"]
        with mock.patch.object(td, "_parse_track", side_effect=AssertionError("parsed")):
            assert snapshot(td.load_tracks(p)) == snapshot(changed)

    def test_a_load_builds_each_track_it_returns_once(self, tmp_path):
        """A parse builds no track: only the sidecar reader does, cold or warm."""
        p = tracks_file(tmp_path)
        post_init, built = td.Track.__post_init__, []

        def counted(track):
            built.append(track.track_id)
            post_init(track)

        with mock.patch.object(td.Track, "__post_init__", counted):
            for cold in (True, False):
                built.clear()
                loaded = td.load_tracks(p)
                assert loaded.parsed is cold
                assert built == [t.track_id for t in loaded.tracks] == ["T100", "T101"]

    def test_a_sidecar_read_short_is_ignored_and_rewritten_with_no_warning(self, tmp_path,
                                                                           caplog):
        p = tracks_file(tmp_path)
        first = td.load_tracks(p)
        good, before = sidecar_of(p).read_bytes(), sidecar_of(p).stat()

        class OneByteShort(io.FileIO):
            def read(self, size=-1):
                return super().read(size)[:-1]

        def open_one_byte_short(file, *args, **kwargs):
            # the sidecar's reader; the tracks file and mkstemp's descriptor open as they are
            if file == os.fsdecode(sidecar_of(p)):
                return OneByteShort(file, "rb")
            return open(file, *args, **kwargs)

        with caplog.at_level(logging.INFO, logger="rotortrack"), \
                mock.patch.object(td, "open", open_one_byte_short, create=True), \
                mock.patch.object(td, "_parse_track", wraps=td._parse_track) as parse:
            again = td.load_tracks(p)
            assert parse.call_count == 3 and again.parsed
            assert snapshot(again) == snapshot(first)
        assert caplog.records == []
        assert sidecar_of(p).read_bytes() == good
        assert sidecar_of(p).stat().st_ino != before.st_ino   # renamed into place anew

    @pytest.mark.parametrize("failure", ["read_only_directory", "no_temporary_file",
                                         "failed_rename", "write_fails_mid_parse"])
    def test_a_sidecar_that_cannot_be_written_is_skipped(self, tmp_path, failure, caplog):
        p = tracks_file(tmp_path)
        expected = snapshot(parsed(p))
        caplog.set_level(logging.INFO, logger="rotortrack")

        class FullOnTheSecondWrite(io.FileIO):
            writes = 0

            def write(self, data):
                self.writes += 1
                if self.writes == 2:
                    raise OSError(28, "No space left on device")
                return super().write(data)

        def open_with_a_full_sink(file, *args, **kwargs):
            # the sidecar's sink is the one file opened on a descriptor, mkstemp's
            if isinstance(file, int):
                return FullOnTheSecondWrite(file, "w+b")
            return open(file, *args, **kwargs)

        fails = {"no_temporary_file": mock.patch.object(
                     td.tempfile, "mkstemp", side_effect=PermissionError(13, "Permission denied")),
                 "failed_rename": mock.patch.object(
                     td.os, "replace", side_effect=OSError(28, "No space left on device")),
                 "write_fails_mid_parse": mock.patch.object(
                     td, "open", open_with_a_full_sink, create=True)}
        tmp_path.chmod(0o555)
        try:
            if failure == "read_only_directory" and os.access(tmp_path, os.W_OK):
                pytest.skip("this user writes to read-only directories")
            # a block a track, so that each track's points are read on their own
            with fails.get(failure, contextlib.nullcontext()), \
                    mock.patch.object(td, "_CHECK_ROWS", 3):
                assert snapshot(td.load_tracks(p)) == expected
                assert snapshot(td.load_tracks(p)) == expected
        finally:
            tmp_path.chmod(0o755)
        assert os.listdir(tmp_path) == ["tracks.jsonl"]
        assert caplog.records == []   # no block was read from a sidecar that is not there

    @pytest.mark.parametrize("mode", [0o644, 0o640], ids=["0o644", "0o640"])
    def test_the_sidecar_takes_the_tracks_files_read_and_write_bits(self, tmp_path, mode):
        p = tracks_file(tmp_path)
        p.chmod(mode)
        td.load_tracks(p)
        assert stat.S_IMODE(sidecar_of(p).stat().st_mode) == mode

    def test_an_owner_only_version_1_sidecar_is_rewritten_with_the_files_bits(self, tmp_path):
        p = tracks_file(tmp_path)
        p.chmod(0o644)
        first = td.load_tracks(p)
        sidecar_of(p).write_bytes(resigned(sidecar_of(p).read_bytes(), version=1))
        sidecar_of(p).chmod(0o600)
        with mock.patch.object(td, "_parse_track", wraps=td._parse_track) as parse:
            assert snapshot(td.load_tracks(p)) == snapshot(first)
        assert parse.call_count == 3
        assert end_record(sidecar_of(p).read_bytes())[1] == td._SIDECAR_VERSION
        assert stat.S_IMODE(sidecar_of(p).stat().st_mode) == 0o644
        with mock.patch.object(td, "_parse_track", side_effect=AssertionError("parsed")):
            assert snapshot(td.load_tracks(p)) == snapshot(first)

    def test_a_header_first_version_2_sidecar_is_parsed_and_rewritten(self, tmp_path):
        p = tracks_file(tmp_path)
        first = td.load_tracks(p)
        good = sidecar_of(p).read_bytes()
        magic, _, source, _, header_len = end_record(good)
        start = rows_length(good)
        # version 2's layout: magic, version, source digest and header length, the header,
        # the point rows and the checksum of all that
        body = (struct.pack("<4sI32sI", magic, 2, source, header_len)
                + good[start:-td._SIDECAR_TAIL] + good[:start])
        sidecar_of(p).write_bytes(body + hashlib.sha256(body).digest())
        with mock.patch.object(td, "_parse_track", wraps=td._parse_track) as parse:
            again = td.load_tracks(p)
        assert parse.call_count == 3 and again.parsed
        assert snapshot(again) == snapshot(first)
        assert sidecar_of(p).read_bytes() == good

    @pytest.mark.parametrize("version", [3, 4])
    def test_a_sidecar_of_one_rows_digest_or_none_is_parsed_and_rewritten(self, tmp_path,
                                                                          version):
        p = tracks_file(tmp_path)
        first = td.load_tracks(p)
        good = sidecar_of(p).read_bytes()
        magic, _, source, _, header_len = end_record(good)
        rows_end = rows_length(good)
        # version 3's layout: the point rows, the header, an end record of magic, version,
        # source digest and header length, and the checksum of the header and end record;
        # version 4 adds the rows' digest to the end record
        rows_digest = [hashlib.sha256(good[:rows_end]).digest()] if version == 4 else []
        end = struct.pack(f"<4sI32s{'32s' * len(rows_digest)}I", magic, version, source,
                          *rows_digest, header_len)
        tail = good[rows_end:rows_end + header_len] + end
        sidecar_of(p).write_bytes(good[:rows_end] + tail + hashlib.sha256(tail).digest())
        with mock.patch.object(td, "_parse_track", wraps=td._parse_track) as parse:
            again = td.load_tracks(p)
        assert parse.call_count == 3 and again.parsed
        assert snapshot(again) == snapshot(first)
        assert sidecar_of(p).read_bytes() == good

    def test_a_cold_load_writes_its_sidecar_with_no_other_temporary_file(self, tmp_path):
        p = tracks_file(tmp_path)
        with mock.patch.object(td.tempfile, "TemporaryFile",
                               side_effect=OSError(24, "Too many open files")):
            first = td.load_tracks(p)
        assert first.parsed
        assert end_record(sidecar_of(p).read_bytes())[1] == td._SIDECAR_VERSION
        with mock.patch.object(td, "_parse_track", side_effect=AssertionError("parsed")):
            assert snapshot(td.load_tracks(p)) == snapshot(first)

    def test_an_interrupted_sidecar_write_raises_and_leaves_no_temporary_file(self, tmp_path):
        p = tracks_file(tmp_path)
        parse, records = td._parse_track, []

        def interrupted_on_the_second_track(line):
            record, rows, err = parse(line)
            if record is not None:
                records.append(record)
            if len(records) == 2:
                raise KeyboardInterrupt
            return record, rows, err

        with mock.patch.object(td, "_parse_track", side_effect=interrupted_on_the_second_track):
            with pytest.raises(KeyboardInterrupt):
                td.load_tracks(p)
        assert os.listdir(tmp_path) == ["tracks.jsonl"]

    def test_a_sidecar_path_that_is_a_directory_neither_fails_the_load_nor_is_replaced(
            self, tmp_path):
        p = tracks_file(tmp_path)
        expected = snapshot(parsed(p))
        sidecar_of(p).mkdir()
        assert snapshot(td.load_tracks(p)) == expected
        assert sorted(os.listdir(tmp_path)) == ["tracks.jsonl", "tracks.jsonl.rtcache"]
        assert os.listdir(sidecar_of(p)) == []

    def test_a_cold_load_keeps_no_parsed_points_past_their_line(self, tmp_path):
        p = tmp_path / "tracks.jsonl"
        # the third line repeats the first one's id, so its track is parsed and refused
        write_jsonl(p, [dict(GOOD_LINE, track_id=f"T{i}") for i in (0, 1, 0, 2, 3)])
        parse, last_points = td._parse_track, []

        def parse_with_the_last_points_dead(line):
            gc.collect()   # so that only a live reference can keep them
            assert all(points() is None for points in last_points), "points outlived their line"
            record, rows, err = parse(line)
            # the array that owns the rows' memory, which every view of them keeps
            last_points[:] = [weakref.ref(rows.base)]
            return record, rows, err

        with mock.patch.object(td, "_parse_track", side_effect=parse_with_the_last_points_dead):
            loaded = td.load_tracks(p)
        assert len(loaded.tracks) == 4 and loaded.parsed
        assert loaded.rejects == [(3, "duplicate track_id 'T0'")]
        assert snapshot(loaded) == snapshot(parsed(p))

    def test_cold_loads_of_the_same_bytes_write_the_same_sidecar(self, tmp_path):
        p = tracks_file(tmp_path)
        td.load_tracks(p)
        first = sidecar_of(p).read_bytes()
        sidecar_of(p).unlink()
        td.load_tracks(p)
        assert sidecar_of(p).read_bytes() == first
        other = tmp_path / "elsewhere" / "other.jsonl"
        other.parent.mkdir()
        shutil.copyfile(p, other)
        td.load_tracks(other)
        assert sidecar_of(other).read_bytes() == first


def blocks_file(directory, n=7):
    """n tracks of three points each, none of whose points are another's."""
    p = directory / "tracks.jsonl"
    write_jsonl(p, [dict(GOOD_LINE, track_id=f"T{i}", points=[
        dict(q, t=q["t"] + 10 * i, lat=40.0 + i) for q in GOOD_LINE["points"]]) for i in range(n)])
    return p


# two tracks of three points a block, so that blocks_file's seven tracks make four blocks,
# the last of them T6 alone
two_tracks_a_block = functools.partial(mock.patch.object, td, "_CHECK_ROWS", 6)


class TestBlocks:
    def test_a_block_is_a_run_of_whole_tracks_and_a_longer_track_is_one_alone(self):
        with mock.patch.object(td, "_CHECK_ROWS", 6):
            assert td._block_starts([3, 3, 10, 2, 2, 2, 1]) == [0, 2, 3, 6, 7]
            assert td._block_starts([6, 7, 1]) == [0, 1, 2, 3]
            assert td._block_starts([]) == [0]

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_a_pass_in_track_order_reads_each_block_once_and_holds_one(self, tmp_path, warm):
        p = blocks_file(tmp_path)
        with two_tracks_a_block():
            expected = snapshot(parsed(p))
            if warm:
                td.load_tracks(p)
            loaded = td.load_tracks(p)
            assert loaded.parsed is not warm
            read, reads, bases = td._SidecarRows.read, [], []

            def counted(rows, index):
                reads.append(index)
                return read(rows, index)

            with mock.patch.object(td._SidecarRows, "read", counted):
                for track in loaded.tracks:
                    # the array that owns the points' memory, which every view of them keeps
                    bases.append(weakref.ref(track.points.base))
                    gc.collect()   # so that only a live reference can keep a block
                    assert len({id(base()) for base in bases if base() is not None}) == 1
                assert reads == [0, 1, 2, 3]
                blocks = [base() for base in bases]
                assert blocks[:-1] == [None] * 6 and blocks[-1] is not None
                # a track of a block dropped since reads its block again
                assert loaded.tracks[2].points.tobytes() == expected[0][2][1]
                assert reads == [0, 1, 2, 3, 1]
        assert snapshot(loaded) == expected

    def test_each_block_of_a_sidecar_has_its_own_digest(self, tmp_path):
        p = blocks_file(tmp_path)
        with two_tracks_a_block():
            td.load_tracks(p)
        data = sidecar_of(p).read_bytes()
        assert end_record(data)[3] == 4
        rows = np.frombuffer(data[:rows_length(data)], "<f8")
        digests = data[-td._SIDECAR_TAIL - 4 * td._DIGEST_LEN:-td._SIDECAR_TAIL]
        # six values a row: rows 0-5, 6-11 and 12-17 in pairs of tracks, and T6's 18-20
        assert [hashlib.sha256(rows[a:b]).digest() for a, b in ((0, 36), (36, 72), (72, 108),
                                                                 (108, 126))] == \
            [digests[i:i + td._DIGEST_LEN] for i in range(0, len(digests), td._DIGEST_LEN)]

    def test_damage_in_the_last_block_is_found_at_its_first_read(self, tmp_path, caplog):
        p = blocks_file(tmp_path)
        with two_tracks_a_block():
            expected = snapshot(parsed(p))
            td.load_tracks(p)
            good = sidecar_of(p).read_bytes()
            # the sign and exponent byte of the last point's gs, in T6's block
            sidecar_of(p).write_bytes(flipped(lambda data: rows_length(data) - 1)(good))
            loaded = td.load_tracks(p)
            with caplog.at_level(logging.INFO, logger="rotortrack"):
                for track in loaded.tracks[:-1]:
                    track.points
                assert caplog.records == []
                with mock.patch.object(td, "_parse_track", wraps=td._parse_track) as parse:
                    loaded.tracks[-1].points
                assert parse.call_count == 7
                assert snapshot(loaded) == expected
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("WARNING", f"{p}: its sidecar's point rows failed a check "
             "(sidecar rows checksum mismatch); parsing it again")]
        assert sidecar_of(p).read_bytes() == good

    def test_a_file_changed_between_a_first_and_a_last_block_read_is_named(self, tmp_path):
        p = blocks_file(tmp_path)
        with two_tracks_a_block():
            td.load_tracks(p)
            loaded = td.load_tracks(p)
            first = loaded.tracks[0].points
            lines = p.read_bytes().splitlines(keepends=True)
            p.write_bytes(b"".join(lines[:1] + lines[2:]))   # T1 goes, so T6's rows move
            td.load_tracks(p)   # and another load of the file rewrites the sidecar
            with pytest.raises(td.TrackDataError,
                               match=re.escape(f"{p} changed after it was loaded")):
                loaded.tracks[-1].points
        assert first.tobytes() == values(td.load_tracks(p).tracks[0])[1]

    def test_a_file_rewritten_with_other_values_under_the_same_tracks_is_named(self, tmp_path):
        # the same tracks, point counts and rejects, so a parse of either version writes the
        # same sidecar header; only the SHA-256 of the bytes tells their points apart
        p = blocks_file(tmp_path)
        with two_tracks_a_block():
            td.load_tracks(p)
            header = header_of(sidecar_of(p).read_bytes())
            loaded = td.load_tracks(p)
            assert set(loaded.tracks[0].points["alt"].tolist()) == {1600.0}
            p.write_bytes(p.read_bytes().replace(b'"alt": 1600.0', b'"alt": 2000.0'))
            rewritten = td.load_tracks(p)   # and this load rewrites the sidecar
            assert rewritten.parsed and header_of(sidecar_of(p).read_bytes()) == header
            with pytest.raises(td.TrackDataError,
                               match=re.escape(f"{p} changed after it was loaded")):
                loaded.tracks[-1].points
            assert set(rewritten.tracks[-1].points["alt"].tolist()) == {2000.0}

    def test_a_replaced_track_keeps_its_points_and_a_load_is_not_reassigned(self, tmp_path):
        p = blocks_file(tmp_path)
        with two_tracks_a_block():
            expected = snapshot(parsed(p))
            td.load_tracks(p)
            loaded = td.load_tracks(p)
            copy = dataclasses.replace(loaded.tracks[2])   # T2, of block 1 with T3
            assert type(copy) is td.Track and copy._block is None
            assert values(copy) == expected[0][2]
            read, reads = td._SidecarRows.read, []

            def counted(rows, index):
                reads.append(index)
                return read(rows, index)

            with mock.patch.object(td._SidecarRows, "read", counted):
                for track in loaded.tracks[:2] + loaded.tracks[4:]:
                    track.points
            assert reads == [0, 2, 3]
            with pytest.raises(AttributeError):   # the slot, not __getattr__: T2's block is out
                td.Track.points.__get__(loaded.tracks[2], td.Track)
            assert td.Track.points.__get__(copy, td.Track).tobytes() == expected[0][2][1]
        for f in dataclasses.fields(loaded):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(loaded, f.name, getattr(loaded, f.name))

    @pytest.mark.parametrize("route", ["sidecar", "in_memory"])
    def test_a_dropped_load_is_freed_without_the_cyclic_gc(self, tmp_path, route):
        """No reference cycle holds a load: its rows, and a parse's in-memory sidecar, go
        with its last reference, with the cyclic GC off."""
        p = tracks_file(tmp_path)

        def no_temporary_file(*args, **kwargs):
            # a new error each time: one raised again would keep, through its traceback,
            # the frame of _parse_file that returned the load
            raise PermissionError(13, "Permission denied")

        no_sidecar = mock.patch.object(td.tempfile, "mkstemp", no_temporary_file)
        with no_sidecar if route == "in_memory" else contextlib.nullcontext():
            td.load_tracks(p)
            gc.disable()
            try:
                loaded = td.load_tracks(p)
                assert loaded.parsed is (route == "in_memory")
                # the array that owns the points' memory, which every view of them keeps
                held = [weakref.ref(loaded.tracks[0].points.base),
                        weakref.ref(loaded.tracks[0]._block.rows._pages)
                        if route == "in_memory" else lambda: None]
                del loaded
                assert [ref() is None for ref in held] == [True, True]
            finally:
                gc.enable()

    def test_a_track_kept_from_a_dropped_load_frees_the_rest_and_reads_its_points(
            self, tmp_path):
        p = blocks_file(tmp_path)
        with two_tracks_a_block():
            expected = snapshot(parsed(p))
            td.load_tracks(p)
            gc.disable()
            try:
                loaded = td.load_tracks(p)
                first = weakref.ref(loaded.tracks[0].points.base)   # block 0's, held
                kept = loaded.tracks[2]
                del loaded
                assert first() is None
                # evicts block 0 past its dead tracks, and sets T2's points but not T3's
                assert kept.points.tobytes() == expected[0][2][1]
            finally:
                gc.enable()

    def test_a_sidecar_replaced_again_after_the_reparse_is_named(self, tmp_path):
        p = blocks_file(tmp_path)
        parse_file = td._parse_file

        def parse_then_another_load_rewrites(path):
            # the re-parse writes its sidecar, and another load, of changed bytes, replaces it
            result = parse_file(path)
            other = tmp_path / "other.jsonl"
            write_jsonl(other, [GOOD_LINE])
            td.load_tracks(other)
            shutil.copyfile(sidecar_of(other), sidecar_of(p))
            return result

        with two_tracks_a_block():
            td.load_tracks(p)
            sidecar_of(p).write_bytes(DAMAGE["flipped_point_byte"](sidecar_of(p).read_bytes()))
            loaded = td.load_tracks(p)
            with mock.patch.object(td, "_parse_file", side_effect=parse_then_another_load_rewrites):
                with pytest.raises(td.TrackDataError,
                                   match=re.escape(f"{p} changed after it was loaded")):
                    loaded.tracks[0].points

    def test_threads_that_read_the_blocks_in_opposite_orders_get_the_parses_points(
            self, tmp_path):
        p = blocks_file(tmp_path, n=40)
        with two_tracks_a_block():
            expected = snapshot(parsed(p))
            td.load_tracks(p)
            loaded = td.load_tracks(p)
            got, errors = [], []
            start = threading.Barrier(8, timeout=60)

            def work(step):
                try:   # each thread reads the tracks in its own order, over all 20 blocks
                    start.wait()
                    got.append([t.points.tobytes() for t in loaded.tracks[::step]][::step])
                except Exception as e:   # reported by the assertion below
                    errors.append(e)
            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=work, args=(1 - 2 * (i % 2),))
                           for i in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(switch)
            assert not any(t.is_alive() for t in threads) and not errors
            assert got == [[v[1] for v in expected[0]]] * 8
            assert snapshot(loaded) == expected


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
        assert str(exc.value).startswith(f"{p} line {line}: ")
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

    def test_windows_of_another_shape_are_refused(self):
        short = [w[:td.WINDOW_LEN // 2] for w in random_windows(3, seed=3)]
        shapes = r"windows must be \(100, 6\), got \(50, 6\)"
        with pytest.raises(td.TrackDataError, match=shapes) as exc:
            td.fit_norm_stats(short)
        assert not isinstance(exc.value, td.ZeroVarianceFeature)

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
        assert str(exc.value).startswith(f"{p} line 4: ")
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
        assert str(exc.value).startswith(f"{p} line {line}: ")
        assert f"runways.csv line {line}:" in str(exc.value)

    @pytest.mark.parametrize("row, reason", [
        (" ,40.0,-86.0,600.0,180.0,8000.0", "empty runway_id"),
        ("KXYZ-36,north,-86.0,600.0,180.0,8000.0", "non-numeric runway geometry"),
    ], ids=["empty_id", "non_numeric"])
    def test_an_unreadable_row_is_rejected_naming_the_line(self, tmp_path, row, reason):
        p = tmp_path / "runways.csv"
        p.write_text(RUNWAY_CSV + row + "\n")
        with pytest.raises(td.MalformedRecord, match=re.escape(reason)) as exc:
            td.load_runways(p)
        assert str(exc.value).startswith(f"{p} line 4: ")

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
        assert str(exc.value).startswith(f"{p} line 9: ")
        p.write_text(REGISTRATION_CSV + '\nN7,B00007,"R44\nII",ROBINSON,ROTORCRAFT,R44\n'
                     "N208SH,,X,Y,ROTORCRAFT,\n")
        assert td.load_registration(p).duplicates == ["line 8: duplicate n_number N208SH"]

    def test_empty_n_number_rejected_naming_the_line(self, tmp_path):
        p = tmp_path / "reg.csv"
        p.write_text(REGISTRATION_CSV + " ,B00009,X,Y,ROTORCRAFT,R44\n")
        with pytest.raises(td.MalformedRecord, match="empty n_number") as exc:
            td.load_registration(p)
        assert str(exc.value).startswith(f"{p} line 5: ")

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
        """NUL is text: a cell holding it, the row's key here, loads as that text."""
        load, text, row = TABLES[table]
        p = tmp_path / f"{table}.csv"
        p.write_text(text + row.replace(",", "\x00,", 1) + "\n")
        loaded = load(p)
        keys = loaded.by_tail if table == "registration" else loaded
        assert row.split(",", 1)[0] + "\x00" in keys

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
