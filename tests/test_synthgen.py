"""Synthetic arrival scenarios: determinism, track geometry, the files synth writes."""

import dataclasses
import hashlib
import json
import math
import weakref

import numpy as np
import pytest

from rotortrack import cli
from rotortrack import runwayscore as rs
from rotortrack import synthgen as sg
from rotortrack import trackdata as td
from rotortrack import validate as va

SPEC = sg.ScenarioSpec(seed=11, helicopters=24, ga=16, commercial=16)

# Helicopters never enter this box around the final approach course, and
# never come closer to the threshold than the ring below.  Together these
# keep every helicopter's runway score under the default gate.
_CORRIDOR_HALF_WIDTH_FT = 900.0
_CORRIDOR_ALONG_NM = (-5.5, 3.5)
_HELI_MIN_THRESHOLD_NM = 0.85

# Every track has at least MIN_POINTS points, and its closest approach to the
# threshold is at index MIN_CLOSEST or later, within its last TAIL_WINDOW points.
MIN_POINTS = 130
MIN_CLOSEST = 110
TAIL_WINDOW = 20

# Pads and a runway unlike DEFAULT_AIRPORT's: a flier that still flew to the
# default pad or runway would fail TestMovedAirport's checks.
MOVED_PADS = ((-62.0, 1.35), (120.0, 1.35), (20.0, 1.0))
MOVED_RUNWAY = td.Runway("25R", 36.0, -115.0, 1000.0, 250.0, 8000.0)


# synth's five files for the default scenario, by their SHA-256
DEFAULT_DIGESTS = {
    "tracks.jsonl": "62ea57f6807fffd3c0809ff492c38c9adae9a3cfe076d92b14fd3cea97073ff8",
    "labels.csv": "af4a3ace04f62b068fc536f89d08ab5f1026a390351166ff271c3326e94becb0",
    "runways.csv": "41df2a522fbdf77b5d44da959be25afa9848e29e70935d3319945d93a5de1303",
    "registration.csv": "2035635bcfa73f92b186b48e27b689468c5c88f164584248f529b078f64cf935",
    "heli_types.txt": "6dc86cbef5166fb736d5439703d59a3339a58796cee180b61c3ba68c91d489a5",
}


@pytest.fixture(scope="module")
def drawn():
    """SPEC's (track, class, registration record or None) triples, gathered from the stream."""
    return list(sg.generate(SPEC))


def tracks(drawn):
    return [t for t, _, _ in drawn]


def labels(drawn):
    return [(t.track_id, cls) for t, cls, _ in drawn]


def registration(drawn):
    return [reg for _, _, reg in drawn if reg is not None]


def tracks_of(drawn, cls):
    return [t for t, c, _ in drawn if c == cls]


def along_cross_m(east_m, north_m, runway):
    """A point's offset along and across the runway's centerline, in meters."""
    course = math.radians(runway.centerline_course)
    de, dn = math.sin(course), math.cos(course)   # the unit vector along the centerline
    return east_m * de + north_m * dn, east_m * dn - north_m * de


def in_corridor(east_m, north_m, runway):
    lo, hi = _CORRIDOR_ALONG_NM
    along, cross = along_cross_m(east_m, north_m, runway)
    return abs(cross) / sg.FT_TO_M < _CORRIDOR_HALF_WIDTH_FT and lo < along / sg.NM_TO_M < hi


def streams(cls):
    """The RNG streams generate would give a class for seeds 1-3 and every 50th index."""
    code = sg._CLASSES[cls][0]
    return (np.random.default_rng([seed, sg._STREAM_DOMAIN, code, i])
            for seed in (1, 2, 3) for i in range(0, 1000, 50))


def assert_shape(n_points, closest):
    assert n_points >= MIN_POINTS
    assert closest >= MIN_CLOSEST
    assert closest >= n_points - TAIL_WINDOW


class TestDeterminism:
    def test_same_spec_reproduces_every_byte(self, drawn):
        again = list(sg.generate(SPEC))
        assert [td.track_to_json(t) for t in tracks(again)] == \
               [td.track_to_json(t) for t in tracks(drawn)]
        assert labels(again) == labels(drawn)
        assert registration(again) == registration(drawn)

    def test_different_seed_changes_tracks(self, drawn):
        other, _, _ = next(sg.generate(sg.ScenarioSpec(seed=12, helicopters=2, ga=0,
                                                        commercial=0)))
        assert td.track_to_json(other) != td.track_to_json(tracks(drawn)[0])

    def test_default_scenario_matches_the_recorded_digest(self, tmp_path):
        # the default tracks.jsonl (BENCH_35.json, cli.default), which every default run
        # reads, and the four files synth writes beside it, so a stream that reordered
        # the labels or the registration rows would fail too
        assert cli.main(["--out-dir", str(tmp_path), "synth"]) == 0
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in DEFAULT_DIGESTS} == DEFAULT_DIGESTS

    def test_helicopter_streams_are_stable_under_counts(self, drawn):
        # fewer helicopters must not change the ones that remain; later
        # classes shift identity assignment, so only the first class is stable
        small = sg.generate(sg.ScenarioSpec(seed=11, helicopters=3, ga=2, commercial=1))
        want = {t.track_id: td.track_to_json(t) for t in tracks(drawn)}
        for t, _, _ in small:
            if t.track_id.startswith("H"):
                assert td.track_to_json(t) == want[t.track_id]


class TestShape:
    def test_counts_labels_and_ids_line_up(self, drawn):
        assert len(tracks(drawn)) == 56
        assert [t.track_id for t in tracks(drawn)] == [tid for tid, _ in labels(drawn)]
        by_id = dict(labels(drawn))
        assert sum(c == td.CLASS_HELICOPTER for c in by_id.values()) == 24
        assert sum(c == td.CLASS_GA for c in by_id.values()) == 16
        assert sum(c == td.CLASS_COMMERCIAL for c in by_id.values()) == 16
        assert tracks(drawn)[0].track_id == "H0000"

    def test_every_track_survives_a_strict_reload(self, drawn, tmp_path):
        p = tmp_path / "tracks.jsonl"
        td.save_tracks(tracks(drawn), p)
        res = td.load_tracks(p)
        assert res.rejects == []
        assert len(res.tracks) == len(tracks(drawn))

    def test_every_track_is_long_and_ends_at_its_closest_approach(self, drawn):
        for t in tracks(drawn):
            assert_shape(len(t.points),
                         td.closest_approach_index(t, sg.DEFAULT_AIRPORT.runway)[0])

    @pytest.mark.parametrize("cls", td.TRACK_CLASSES)
    def test_every_flier_keeps_its_shape_over_many_streams(self, cls):
        # each class's flier alone, on many of its streams; helicopters also
        # keep their clearances
        fly = sg._CLASSES[cls][1]
        for rng in streams(cls):
            samples = fly(rng, sg.DEFAULT_AIRPORT)
            dists = [math.hypot(s.east, s.north) / sg.NM_TO_M for s in samples]
            assert_shape(len(samples), dists.index(min(dists)))
            if cls == td.CLASS_HELICOPTER:
                assert min(dists) >= _HELI_MIN_THRESHOLD_NM
                assert not any(in_corridor(s.east, s.north, sg.DEFAULT_AIRPORT.runway)
                               for s in samples)

    def test_every_track_yields_an_arrival_window(self, drawn):
        for t in tracks(drawn):
            win = td.window_arrival(t, sg.DEFAULT_AIRPORT.runway)
            assert len(win) == td.WINDOW_LEN

    def test_negative_counts_rejected(self):
        with pytest.raises(sg.ScenarioError):
            sg.ScenarioSpec(seed=1, helicopters=-1, ga=0, commercial=0)


class TestMovedAirport:
    """Each flier lands at the airport it is given, not at DEFAULT_AIRPORT."""

    @pytest.mark.parametrize("pad", MOVED_PADS)
    def test_helicopters_set_down_on_the_pad_they_are_given(self, pad):
        airport = dataclasses.replace(sg.DEFAULT_AIRPORT, pad=pad)
        offset, range_nm = pad
        bearing = math.radians(airport.runway.centerline_course + offset)
        pad_en = (range_nm * sg.NM_TO_M * math.sin(bearing),
                  range_nm * sg.NM_TO_M * math.cos(bearing))
        fly = sg._CLASSES[td.CLASS_HELICOPTER][1]
        for rng in streams(td.CLASS_HELICOPTER):
            end = fly(rng, airport)[-1]
            assert math.hypot(end.east - pad_en[0], end.north - pad_en[1]) < 70.0

    @pytest.mark.parametrize("cls", [td.CLASS_GA, td.CLASS_COMMERCIAL])
    def test_fixed_wing_rolls_out_on_the_runway_it_is_given(self, cls):
        airport = dataclasses.replace(sg.DEFAULT_AIRPORT, runway=MOVED_RUNWAY)
        fly = sg._CLASSES[cls][1]
        for rng in streams(cls):
            end = fly(rng, airport)[-1]
            along, cross = along_cross_m(end.east, end.north, MOVED_RUNWAY)
            assert abs(cross) < 10.0
            assert along > 0.0
            assert end.alt == MOVED_RUNWAY.threshold_elev


class TestHelicopterGeometry:
    def test_keeps_clear_of_the_threshold_ring(self, drawn):
        rw = sg.DEFAULT_AIRPORT.runway
        for t in tracks_of(drawn, td.CLASS_HELICOPTER):
            closest = min(math.hypot(*td.en_offset_km(p.lat, p.lon, rw.threshold_lat,
                                                      rw.threshold_lon)) / td.KM_PER_NM
                          for p in t.points)
            assert closest >= _HELI_MIN_THRESHOLD_NM

    def test_stays_out_of_the_approach_corridor(self, drawn):
        rw = sg.DEFAULT_AIRPORT.runway
        for t in tracks_of(drawn, td.CLASS_HELICOPTER):
            for p in t.points:
                east, north = td.en_offset_km(p.lat, p.lon, rw.threshold_lat, rw.threshold_lon)
                assert not in_corridor(east * 1000.0, north * 1000.0, rw), \
                    f"{t.track_id} entered the corridor"

    def test_helicopter_scores_stay_under_the_gate(self, drawn):
        for t in tracks_of(drawn, td.CLASS_HELICOPTER):
            score = rs.runway_score(rs.score_inputs_for_track(t, sg.DEFAULT_AIRPORT.runway))
            assert score < 0.4

    def test_fixed_wing_scores_clear_the_gate(self, drawn):
        for cls in (td.CLASS_GA, td.CLASS_COMMERCIAL):
            for t in tracks_of(drawn, cls):
                score = rs.runway_score(rs.score_inputs_for_track(t, sg.DEFAULT_AIRPORT.runway))
                assert score > 0.6

    def test_fixed_wing_lands_on_centerline_helicopters_do_not(self, drawn):
        rw = sg.DEFAULT_AIRPORT.runway
        lat_of = {cls: [rs.score_inputs_for_track(t, rw).lateral_deviation_ft
                        for t in tracks_of(drawn, cls)]
                  for cls in td.TRACK_CLASSES}
        assert min(lat_of[td.CLASS_HELICOPTER]) > 2000.0
        assert max(lat_of[td.CLASS_GA]) < 500.0
        assert max(lat_of[td.CLASS_COMMERCIAL]) < 500.0

    def test_groundspeed_ordering_across_classes(self, drawn):
        mean_gs = {cls: np.mean([p.gs for t in tracks_of(drawn, cls)
                                 for p in t.points])
                   for cls in td.TRACK_CLASSES}
        assert (mean_gs[td.CLASS_HELICOPTER] < mean_gs[td.CLASS_GA]
                < mean_gs[td.CLASS_COMMERCIAL])

    def test_helicopters_never_claim_a_scratchpad_runway(self, drawn):
        for t in tracks_of(drawn, td.CLASS_HELICOPTER):
            assert not t.scratchpad_runway


class TestIdentities:
    def test_every_track_names_the_default_airport_and_its_runway(self, drawn):
        assert {t.arrival_airport for t in tracks(drawn)} == {sg.DEFAULT_AIRPORT.code}
        assert {t.runway_id for t in tracks(drawn)} == {None, sg.DEFAULT_AIRPORT.runway.runway_id}

    def test_tails_are_unique(self, drawn):
        tails = [t.tail_number for t in tracks(drawn) if t.tail_number]
        assert len(tails) == len(set(tails))

    def test_registration_class_matches_track_label(self, drawn):
        # a track may hide its tail number yet still be registered; such
        # rows are reachable through the mode-S code instead
        by_tail = {t.tail_number: cls for t, cls, _ in drawn if t.tail_number}
        by_mode_s = {t.mode_s: cls for t, cls, _ in drawn if t.mode_s}
        for rec in registration(drawn):
            cls = by_tail.get(rec.n_number) or by_mode_s.get(rec.mode_s_code)
            assert cls is not None, f"registration row {rec.n_number} has no track"
            want_rotor = cls == td.CLASS_HELICOPTER
            assert (rec.aircraft_class is td.AircraftClass.ROTORCRAFT) is want_rotor

    def test_helicopter_designators_come_from_the_catalog(self, drawn):
        assert sg.HELI_TYPES == frozenset(d for _, _, d in sg.HELI_CATALOG)
        for rec in registration(drawn):
            if rec.aircraft_class is td.AircraftClass.ROTORCRAFT:
                assert rec.type_designator in sg.HELI_TYPES

    def test_some_tracks_carry_only_vague_declared_types(self, drawn):
        declared = [t.declared_type for t in tracks_of(drawn, td.CLASS_HELICOPTER)]
        assert any(d in va.PSEUDO_TYPES for d in declared if d)
        assert any(d is None for d in declared)


class TestSynthFiles:
    """The files `rotortrack synth` writes load back as the scenario they came from."""

    @pytest.fixture(scope="class")
    def out(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("synth")
        cfg = d / "cfg.json"
        cfg.write_text(json.dumps({"synth": dataclasses.asdict(SPEC)}))
        assert cli.main(["--out-dir", str(d), "--config", str(cfg), "synth"]) == 0
        return d

    def test_labels_round_trip(self, drawn, out):
        assert td.load_labels(out / "labels.csv") == dict(labels(drawn))

    def test_registration_round_trip(self, drawn, out):
        table = td.load_registration(out / "registration.csv")
        # every synthetic row has its own tail, so the tail index holds every row in order
        assert list(table.by_tail.values()) == registration(drawn)
        assert table.duplicates == []
        for rec in registration(drawn):
            assert table.lookup_tail(rec.n_number).type_designator == rec.type_designator

    def test_runway_round_trip(self, out):
        rw = sg.DEFAULT_AIRPORT.runway
        assert td.load_runways(out / "runways.csv") == {rw.runway_id: rw}

    def test_heli_types_round_trip(self, out):
        assert va.load_heli_types(out / "heli_types.txt") == sg.HELI_TYPES

    def test_synth_holds_no_track_past_its_line(self, tmp_path, monkeypatch):
        # A track is dropped once its line is written: while track i is
        # written, track i - 1 may still be bound to a loop variable, but no
        # earlier track may be alive.  A scenario held whole would keep them all.
        written = []
        held = {}   # index of a track written -> earlier tracks still alive then
        to_json = td.track_to_json

        def track_to_json(track):
            if alive := [i for i, ref in enumerate(written[:-1]) if ref() is not None]:
                held[len(written)] = alive
            written.append(weakref.ref(track))
            return to_json(track)

        monkeypatch.setattr(td, "track_to_json", track_to_json)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": dataclasses.asdict(SPEC)}))
        assert cli.main(["--out-dir", str(tmp_path), "--config", str(cfg), "synth"]) == 0
        assert len(written) == 56
        assert held == {}
