"""Synthetic arrival scenarios: determinism, geometry guarantees, the files synth writes."""

import numpy as np
import pytest

from rotortrack import cli
from rotortrack import runwayscore as rs
from rotortrack import synthgen as sg
from rotortrack import trackdata as td
from rotortrack import validate as va

SPEC = sg.ScenarioSpec(seed=11, n_helicopter=24, n_ga=16, n_commercial=16)


@pytest.fixture(scope="module")
def scenario():
    return sg.generate(SPEC)


def tracks_of(scenario, cls):
    labels = dict(scenario.labels)
    return [t for t in scenario.tracks if labels[t.track_id] == cls]


class TestDeterminism:
    def test_same_spec_reproduces_every_byte(self, scenario):
        again = sg.generate(SPEC)
        assert [td.track_to_json(t) for t in again.tracks] == \
               [td.track_to_json(t) for t in scenario.tracks]
        assert again.labels == scenario.labels
        assert again.registration == scenario.registration

    def test_different_seed_changes_tracks(self, scenario):
        other = sg.generate(sg.ScenarioSpec(seed=12, n_helicopter=2, n_ga=0,
                                            n_commercial=0))
        assert td.track_to_json(other.tracks[0]) != td.track_to_json(scenario.tracks[0])

    def test_helicopter_streams_are_stable_under_counts(self, scenario):
        # fewer helicopters must not change the ones that remain; later
        # classes shift identity assignment, so only the first class is stable
        small = sg.generate(sg.ScenarioSpec(seed=11, n_helicopter=3, n_ga=2,
                                            n_commercial=1))
        want = {t.track_id: td.track_to_json(t) for t in scenario.tracks}
        for t in small.tracks:
            if t.track_id.startswith("H"):
                assert td.track_to_json(t) == want[t.track_id]


class TestShape:
    def test_counts_labels_and_ids_line_up(self, scenario):
        assert len(scenario.tracks) == 56
        assert [t.track_id for t in scenario.tracks] == [tid for tid, _ in scenario.labels]
        labels = dict(scenario.labels)
        assert sum(c == td.CLASS_HELICOPTER for c in labels.values()) == 24
        assert sum(c == td.CLASS_GA for c in labels.values()) == 16
        assert sum(c == td.CLASS_COMMERCIAL for c in labels.values()) == 16
        assert scenario.tracks[0].track_id == "H0000"

    def test_every_track_survives_a_strict_reload(self, scenario, tmp_path):
        p = tmp_path / "tracks.jsonl"
        td.save_tracks(scenario.tracks, p)
        res = td.load_tracks(p, strict=True)
        assert len(res.tracks) == len(scenario.tracks)

    def test_every_track_yields_an_arrival_window(self, scenario):
        for t in scenario.tracks:
            win = td.window_arrival(t, scenario.runway)
            assert len(win) == td.WINDOW_LEN

    def test_negative_counts_rejected(self):
        with pytest.raises(sg.ScenarioError):
            sg.ScenarioSpec(seed=1, n_helicopter=-1, n_ga=0, n_commercial=0)


class TestHelicopterGeometry:
    def test_keeps_clear_of_the_threshold_ring(self, scenario):
        for t in tracks_of(scenario, td.CLASS_HELICOPTER):
            closest = min(td.threshold_distance_nm(p, scenario.runway)
                          for p in t.points)
            assert closest >= sg._HELI_MIN_THRESHOLD_NM

    def test_stays_out_of_the_approach_corridor(self, scenario):
        lo, hi = sg._CORRIDOR_ALONG_NM
        for t in tracks_of(scenario, td.CLASS_HELICOPTER):
            for p in t.points:
                east, north = td.en_offset_km(p.lat, p.lon,
                                              scenario.runway.threshold_lat,
                                              scenario.runway.threshold_lon)
                along, cross = sg._along_cross_nm(east * 1000.0, north * 1000.0,
                                                  scenario.runway)
                inside = (abs(cross) * sg.NM_TO_M / sg.FT_TO_M < sg._CORRIDOR_HALF_WIDTH_FT
                          and lo < along < hi)
                assert not inside, f"{t.track_id} entered the corridor"

    def test_helicopter_scores_stay_under_the_gate(self, scenario):
        for t in tracks_of(scenario, td.CLASS_HELICOPTER):
            score = rs.runway_score(rs.score_inputs_for_track(t, scenario.runway))
            assert score < 0.4

    def test_fixed_wing_scores_clear_the_gate(self, scenario):
        for cls in (td.CLASS_GA, td.CLASS_COMMERCIAL):
            for t in tracks_of(scenario, cls):
                score = rs.runway_score(rs.score_inputs_for_track(t, scenario.runway))
                assert score > 0.6

    def test_fixed_wing_lands_on_centerline_helicopters_do_not(self, scenario):
        lat_of = {cls: [rs.score_inputs_for_track(t, scenario.runway).lateral_deviation_ft
                        for t in tracks_of(scenario, cls)]
                  for cls in td.TRACK_CLASSES}
        assert min(lat_of[td.CLASS_HELICOPTER]) > 2000.0
        assert max(lat_of[td.CLASS_GA]) < 500.0
        assert max(lat_of[td.CLASS_COMMERCIAL]) < 500.0

    def test_groundspeed_ordering_across_classes(self, scenario):
        mean_gs = {cls: np.mean([p.gs for t in tracks_of(scenario, cls)
                                 for p in t.points])
                   for cls in td.TRACK_CLASSES}
        assert (mean_gs[td.CLASS_HELICOPTER] < mean_gs[td.CLASS_GA]
                < mean_gs[td.CLASS_COMMERCIAL])

    def test_helicopters_never_claim_a_scratchpad_runway(self, scenario):
        for t in tracks_of(scenario, td.CLASS_HELICOPTER):
            assert not t.scratchpad_runway


class TestIdentities:
    def test_tails_are_unique(self, scenario):
        tails = [t.tail_number for t in scenario.tracks if t.tail_number]
        assert len(tails) == len(set(tails))

    def test_registration_class_matches_track_label(self, scenario):
        # a track may hide its tail number yet still be registered; such
        # rows are reachable through the mode-S code instead
        labels = dict(scenario.labels)
        by_tail = {t.tail_number: labels[t.track_id]
                   for t in scenario.tracks if t.tail_number}
        by_mode_s = {t.mode_s: labels[t.track_id]
                     for t in scenario.tracks if t.mode_s}
        for rec in scenario.registration:
            cls = by_tail.get(rec.n_number) or by_mode_s.get(rec.mode_s_code)
            assert cls is not None, f"registration row {rec.n_number} has no track"
            want_rotor = cls == td.CLASS_HELICOPTER
            assert (rec.aircraft_class is td.AircraftClass.ROTORCRAFT) is want_rotor

    def test_helicopter_designators_come_from_the_catalog(self, scenario):
        assert scenario.heli_types == frozenset(d for _, _, d in sg.HELI_CATALOG)
        for rec in scenario.registration:
            if rec.aircraft_class is td.AircraftClass.ROTORCRAFT:
                assert rec.type_designator in scenario.heli_types

    def test_some_tracks_carry_only_vague_declared_types(self, scenario):
        declared = [t.declared_type for t in scenario.tracks
                    if dict(scenario.labels)[t.track_id] == td.CLASS_HELICOPTER]
        assert any(d in va.PSEUDO_TYPES for d in declared if d)
        assert any(d is None for d in declared)


class TestSynthFiles:
    """The files `rotortrack synth` writes load back as the scenario they came from."""

    @pytest.fixture(scope="class")
    def out(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("synth")
        assert cli.main(["--out-dir", str(d), "--seed", str(SPEC.seed), "synth",
                         "--helicopters", str(SPEC.n_helicopter), "--ga", str(SPEC.n_ga),
                         "--commercial", str(SPEC.n_commercial)]) == 0
        return d

    def test_labels_round_trip(self, scenario, out):
        assert td.load_labels(out / "labels.csv") == dict(scenario.labels)

    def test_registration_round_trip(self, scenario, out):
        table = td.load_registration(out / "registration.csv")
        assert table.records == scenario.registration
        assert table.duplicates == []
        for rec in scenario.registration:
            assert table.lookup_tail(rec.n_number).type_designator == rec.type_designator

    def test_runway_round_trip(self, scenario, out):
        assert td.load_runways(out / "runways.csv") == {scenario.runway.runway_id: scenario.runway}

    def test_heli_types_round_trip(self, scenario, out):
        assert va.load_heli_types(out / "heli_types.txt") == scenario.heli_types
