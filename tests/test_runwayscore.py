"""Runway-alignment score: frozen values, bounds, monotonicity, track measurement."""

import math

import pytest

from rotortrack import runwayscore as rs
from rotortrack import trackdata as td

RUNWAY = td.Runway("KXYZ-27", 40.0, -86.0, 600.0, 270.0, 8000.0)


def inputs(d=0.5, length=10000.0, dc=45.0, lat=1200.0, scratch=False):
    return rs.RunwayScoreInputs(d, length, dc, lat, scratch)


class TestRunwayScoreValue:
    def test_frozen_hand_computed_value(self):
        # 0.3*exp(-0.5) + 0.25*0 + 0.25*0 + 0.1*1 + 0.1*0
        got = rs.runway_score(inputs())
        assert got == pytest.approx(0.28195919791379003, abs=1e-12)

    def test_perfect_arrival_scores_exactly_one(self):
        perfect = inputs(d=0.0, dc=0.0, lat=0.0, length=3000.0, scratch=True)
        assert rs.runway_score(perfect) == 1.0

    def test_component_factors_match_formulas(self):
        f = rs.component_scores(inputs(d=2.0, dc=15.0, lat=250.0, length=1500.0,
                                       scratch=True))
        assert f[0] == pytest.approx(math.exp(-2.0))
        assert f[1] == pytest.approx(0.5)
        assert f[2] == pytest.approx(0.5)
        assert f[3] == pytest.approx(0.5)
        assert f[4] == 1.0

    def test_score_stays_in_unit_interval(self):
        worst = inputs(d=50.0, dc=180.0, lat=1e6, length=100.0)
        best = inputs(d=0.0, dc=0.0, lat=0.0, length=1e6, scratch=True)
        assert 0.0 <= rs.runway_score(worst) < 0.01
        assert rs.runway_score(best) == 1.0

    def test_closer_and_more_aligned_scores_higher(self):
        base = rs.runway_score(inputs())
        assert rs.runway_score(inputs(d=0.1)) > base
        assert rs.runway_score(inputs(dc=5.0)) > base
        assert rs.runway_score(inputs(lat=50.0)) > base
        assert rs.runway_score(inputs(scratch=True)) > base


class TestParamValidation:
    def test_input_ranges_validated(self):
        with pytest.raises(ValueError):
            inputs(d=-1.0)
        with pytest.raises(ValueError):
            inputs(dc=190.0)
        with pytest.raises(ValueError):
            inputs(lat=-5.0)
        with pytest.raises(ValueError):
            inputs(length=0.0)


class TestTrackMeasurement:
    def test_on_centerline_point_has_no_lateral_deviation(self):
        # directly east of a runway 27 threshold means on the extended centerline
        track = td.Track("cl", [(0.0, 40.0, -85.95, 2000.0, 270.0, 120.0)])
        si = rs.score_inputs_for_track(track, RUNWAY)
        assert si.lateral_deviation_ft < 1.0
        assert si.course_diff_deg == 0.0
        assert si.distance_nm == pytest.approx(
            td.threshold_distance_nm(track.points[0], RUNWAY))

    def test_northward_offset_becomes_lateral_feet(self):
        east, _ = td.en_offset_km(40.0, -85.95, 40.0, -86.0)
        pts = [(0.0, 40.0009, -85.95, 2000.0, 270.0, 120.0)]
        si = rs.score_inputs_for_track(td.Track("off", pts), RUNWAY)
        north = math.radians(0.0009) * td.EARTH_RADIUS_KM
        assert si.lateral_deviation_ft == pytest.approx(north * td.FT_PER_KM, rel=1e-6)

    def test_scratchpad_flag_carries_through(self):
        pts = [(0.0, 40.0, -85.95, 2000.0, 270.0, 120.0)]
        si = rs.score_inputs_for_track(td.Track("s", pts, scratchpad_runway=True), RUNWAY)
        assert si.scratchpad_runway_reported is True
        si = rs.score_inputs_for_track(td.Track("n", pts), RUNWAY)
        assert si.scratchpad_runway_reported is False
