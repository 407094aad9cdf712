"""Threshold calibration and the two-gate helicopter decision rule."""

import numpy as np
import pytest

from rotortrack import autoencoder as ae
from rotortrack import identify as idf
from rotortrack import runwayscore as rs
from rotortrack import trackdata as td


def sorted_interp_percentile(values, q):
    """Independent percentile oracle: sort, then linear interpolation."""
    v = sorted(values)
    if q >= 100.0:
        return v[-1]
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    frac = pos - lo
    return v[lo] + frac * (v[lo + 1] - v[lo])


class TestCalibrate:
    def test_80th_percentile_of_1_to_100_is_80_2(self):
        assert idf.calibrate(range(1, 101), 80.0) == pytest.approx(80.2, abs=1e-12)

    def test_matches_sort_and_interpolate_oracle(self):
        rng = np.random.default_rng(77)
        values = rng.gamma(2.0, 0.05, size=100).tolist()
        for q in (1.0, 50.0, 80.0, 99.0, 100.0):
            want = sorted_interp_percentile(values, q)
            assert idf.calibrate(values, q) == pytest.approx(want, abs=1e-12)

    def test_percentile_100_is_the_maximum(self):
        values = np.random.default_rng(5).uniform(0.0, 1.0, size=50)
        assert idf.calibrate(values, 100.0) == values.max()

    def test_needs_enough_values(self):
        with pytest.raises(idf.IdentifyError):
            idf.calibrate([0.1] * (idf.MIN_CALIBRATION_VALUES - 1))

    def test_rejects_bad_values_and_percentiles(self):
        good = [0.1] * 20
        with pytest.raises(idf.IdentifyError):
            idf.calibrate(good + [float("nan")])
        with pytest.raises(idf.IdentifyError):
            idf.calibrate(good + [-0.1])
        with pytest.raises(idf.IdentifyError):
            idf.calibrate(good, 0.0)
        with pytest.raises(idf.IdentifyError):
            idf.calibrate(good, 100.5)


class TestDecide:
    DELTA = 0.3    # mae gate
    GATE = 0.5     # score gate

    def decide(self, mae_value, score):
        th = idf.Thresholds(mae_threshold=self.DELTA, runway_score_threshold=self.GATE)
        return idf.decide("t", mae_value, score, th)

    def test_full_truth_table_both_gates_strict(self):
        eps = 1e-9
        for mae_value, mae_ok in ((self.DELTA - eps, True), (self.DELTA, False),
                                  (self.DELTA + eps, False)):
            for score, score_ok in ((self.GATE - eps, True), (self.GATE, False),
                                    (self.GATE + eps, False)):
                res = self.decide(mae_value, score)
                assert res.pred_is_helicopter is (mae_ok and score_ok)
                assert (idf.REASON_MAE in res.reasons) is (not mae_ok)
                assert (idf.REASON_SCORE in res.reasons) is (not score_ok)

    def test_helicopter_has_no_reasons(self):
        res = self.decide(0.1, 0.2)
        assert res.pred_is_helicopter is True
        assert res.reasons == ()

    def test_double_failure_lists_both_reasons_in_order(self):
        res = self.decide(0.9, 0.9)
        assert res.reasons == (idf.REASON_MAE, idf.REASON_SCORE)

    def test_measured_values_are_always_reported(self):
        res = self.decide(0.9, 0.2)
        assert res.mae == 0.9 and res.runway_score == 0.2

    def test_low_error_low_score_track_is_a_helicopter(self):
        # a track far below both default gates
        res = idf.decide("air-ambulance", 0.00017365, 0.21, idf.Thresholds())
        assert res.pred_is_helicopter is True
        assert res.reasons == ()


class TestThresholds:
    def test_defaults_are_valid(self):
        th = idf.Thresholds()
        assert th.mae_threshold == 0.01
        assert th.percentile == 80.0
        assert th.runway_score_threshold == 0.5

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            idf.Thresholds(mae_threshold=0.0)
        with pytest.raises(ValueError):
            idf.Thresholds(mae_threshold=10 ** 400)
        with pytest.raises(ValueError):
            idf.Thresholds(percentile=0.0)
        with pytest.raises(ValueError):
            idf.Thresholds(percentile=101.0)
        with pytest.raises(ValueError):
            idf.Thresholds(runway_score_threshold=1.5)


RUNWAY = td.Runway("KXYZ-27", 40.0, -86.0, 600.0, 270.0, 8000.0)


def training_windows_and_model():
    """A tiny trained model with stats, plus its training windows."""
    rng = np.random.default_rng(21)
    t = np.linspace(0.0, 1.0, td.WINDOW_LEN)[:, None]
    raw = [np.sin(2.0 * np.pi * t + rng.uniform(0, 6.3, (1, td.FEATURE_COUNT)))
           + rng.normal(0, 0.05, (td.WINDOW_LEN, td.FEATURE_COUNT))
           for _ in range(36)]
    stats = td.fit_norm_stats(raw)
    wins = [td.normalize(w, stats, f"w{i}", label=td.CLASS_HELICOPTER)
            for i, w in enumerate(raw)]
    model = ae.build(ae.AutoencoderSpec(encoder_convs=((5, 2, 8),), latent_dim=8, seed=6))
    ae.train(model, wins, ae.TrainConfig(epochs=10, seed=3))
    model.norm_stats = stats
    return model


class TestClassifyTrack:
    def approach(self, n=150, closest=120, **extra):
        pts = [(float(i), 40.0, -86.0 + abs(closest - i) * 1e-3, 1600.0, 270.0, 60.0)
               for i in range(n)]
        return td.Track("T1", pts, **extra)

    def test_track_without_approach_is_unclassifiable(self):
        model = training_windows_and_model()
        pts = [(float(i), 42.0, -86.0, 1600.0, 270.0, 60.0) for i in range(120)]
        with pytest.raises(idf.Unclassifiable) as exc:
            idf.classify(model, idf.Thresholds(), td.Track("far", pts), RUNWAY)
        assert exc.value.reason == "no_approach"

    def test_short_track_is_unclassifiable(self):
        model = training_windows_and_model()
        with pytest.raises(idf.Unclassifiable) as exc:
            idf.classify(model, idf.Thresholds(), self.approach(n=80, closest=40), RUNWAY)
        assert exc.value.reason == "fewer_than_100_points"

    def test_any_windowing_error_is_unclassifiable_with_its_own_reason(self, monkeypatch):
        class Sideways(td.WindowingError):
            reason = "sideways"

        def refuse(track, runway):
            raise Sideways(f"track {track.track_id} flew sideways")

        monkeypatch.setattr(td, "arrival_features", refuse)
        with pytest.raises(idf.Unclassifiable) as exc:
            idf.classify(training_windows_and_model(), idf.Thresholds(), self.approach(), RUNWAY)
        assert (exc.value.track_id, exc.value.reason) == ("T1", "sideways")

    def test_classify_agrees_with_window_mae_and_score(self):
        model = training_windows_and_model()
        track = self.approach()
        th = idf.Thresholds(mae_threshold=0.5)
        res = idf.classify(model, th, track, RUNWAY)
        assert res.mae == idf.window_mae(model, track, RUNWAY)
        want_score = rs.runway_score(rs.score_inputs_for_track(track, RUNWAY))
        assert res.runway_score == want_score
        assert res.pred_is_helicopter is (res.mae < 0.5 and want_score < 0.5)

    def test_classify_tracks_keeps_each_outcome_in_track_order(self):
        model = training_windows_and_model()
        th = idf.Thresholds(mae_threshold=0.5)
        runways = {"FAR": td.Runway("FAR", 45.0, -80.0, 0.0, 90.0, 5000.0), "KXYZ-27": RUNWAY}
        first, last = self.approach(), td.Track("T3", self.approach(closest=130).points)
        short = td.Track("T2", self.approach(n=80, closest=40).points)
        outcomes = idf.classify_tracks(model, th, [first, short, last], runways)
        assert [o.track_id for o in outcomes] == ["T1", "T2", "T3"]
        assert outcomes[0] == idf.classify(model, th, first, RUNWAY)
        assert isinstance(outcomes[1], idf.Unclassifiable)
        assert outcomes[1].reason == "fewer_than_100_points"
        assert outcomes[2] == idf.classify(model, th, last, RUNWAY)

    def test_model_without_stats_is_refused(self):
        model = training_windows_and_model()
        model.norm_stats = None
        with pytest.raises(idf.IdentifyError):
            idf.classify(model, idf.Thresholds(), self.approach(), RUNWAY)
        with pytest.raises(idf.IdentifyError):
            idf.window_mae(model, self.approach(), RUNWAY)


class TestHistogramReport:
    def test_counts_cover_every_value(self):
        values = np.random.default_rng(1).uniform(0.0, 1.0, size=200)
        bins = idf.histogram_report(values, bins=30)
        assert len(bins) == 30
        assert sum(b.count for b in bins) == 200
        assert bins[0].lo == values.min() and bins[-1].hi == values.max()

    def test_edges_are_contiguous(self):
        bins = idf.histogram_report([0.1, 0.2, 0.9], bins=4)
        for a, b in zip(bins, bins[1:]):
            assert a.hi == b.lo

    def test_empty_and_bad_inputs_rejected(self):
        with pytest.raises(idf.IdentifyError):
            idf.histogram_report([])
        with pytest.raises(idf.IdentifyError):
            idf.histogram_report([0.1, float("inf")])
        with pytest.raises(idf.IdentifyError):
            idf.histogram_report([0.1], bins=0)
