"""Registration join, confusion metrics, baseline rule, and overlap counts."""

import pytest

from rotortrack import trackdata as td
from rotortrack import validate as va
from rotortrack.identify import ClassificationResult


def make_result(track_id, pred, mae=0.01, score=0.2):
    reasons = () if pred else ("mae_at_or_above_threshold",)
    return ClassificationResult(track_id, mae, score, pred, reasons)


def make_track(track_id, tail=None, mode_s=None, declared=None):
    pts = [td.TrackPoint(0.0, 40.0, -86.0, 1000.0, 0.0, 50.0)]
    return td.Track(track_id, pts, tail_number=tail, mode_s=mode_s,
                    declared_type=declared)


def reg_table(rows):
    table = td.RegistrationTable(records=[])
    for n_number, mode_s, ac_class, model, designator in rows:
        rec = td.RegistrationRecord(n_number, mode_s, model, "MFR",
                                    td.AircraftClass(ac_class), designator)
        table.records.append(rec)
        table.by_tail[n_number] = rec
        if mode_s:
            table.by_mode_s[mode_s] = rec
    return table


TABLE = reg_table([
    ("N1HELO", "AAA001", "ROTORCRAFT", "EC130 T2", "EC30"),
    ("N2WING", "AAA002", "FIXED_WING", "SR22", "SR22"),
    ("N3HELO", "AAA003", "ROTORCRAFT", "R44 II", "R44"),
])


class TestHeliTypesFile:
    def test_comments_and_case_are_normalized(self, tmp_path):
        p = tmp_path / "heli_types.txt"
        p.write_text("# rotorcraft designators\n ec30 \nR44  # robinson\n\nB06\n")
        assert va.load_heli_types(p) == frozenset({"EC30", "R44", "B06"})

    def test_empty_file_gives_empty_set(self, tmp_path):
        p = tmp_path / "heli_types.txt"
        p.write_text("# nothing but comments\n")
        assert va.load_heli_types(p) == frozenset()


class TestBaselineRule:
    TYPES = frozenset({"EC30", "R44"})

    def test_designator_match(self):
        assert va.rule_based_baseline(make_track("t", declared="EC30"), self.TYPES)
        assert va.rule_based_baseline(make_track("t", declared=" r44 "), self.TYPES)

    def test_pseudo_type_counts_as_helicopter(self):
        assert va.rule_based_baseline(make_track("t", declared="HELO"), self.TYPES)
        assert va.rule_based_baseline(make_track("t", declared="HELI"), self.TYPES)

    def test_missing_or_unknown_type_is_not_helicopter(self):
        assert not va.rule_based_baseline(make_track("t"), self.TYPES)
        assert not va.rule_based_baseline(make_track("t", declared="SR22"), self.TYPES)


class TestJoinRegistration:
    def test_tail_match_takes_priority(self):
        tracks = {"a": make_track("a", tail="N1HELO", mode_s="AAA002")}
        (rec,) = va.join_registration([make_result("a", True)], tracks, TABLE)
        assert rec.matched is va.MatchKind.BY_TAIL
        assert rec.is_helicopter_ac_reg is True
        assert rec.model == "EC130 T2"
        # tail row is rotorcraft but the mode-S row is fixed wing
        assert rec.class_conflict is True

    def test_mode_s_fallback(self):
        tracks = {"b": make_track("b", mode_s="AAA002")}
        (rec,) = va.join_registration([make_result("b", False)], tracks, TABLE)
        assert rec.matched is va.MatchKind.BY_MODE_S
        assert rec.is_helicopter_ac_reg is False
        assert rec.class_conflict is False

    def test_unmatched_track_has_no_registration_fields(self):
        tracks = {"c": make_track("c", tail="N9NONE")}
        (rec,) = va.join_registration([make_result("c", True)], tracks, TABLE)
        assert rec.matched is va.MatchKind.UNMATCHED
        assert rec.is_helicopter_ac_reg is None
        assert rec.aircraft_class is None and rec.model is None

    def test_agreeing_rows_do_not_conflict(self):
        tracks = {"d": make_track("d", tail="N1HELO", mode_s="AAA003")}
        (rec,) = va.join_registration([make_result("d", True)], tracks, TABLE)
        assert rec.class_conflict is False      # both rotorcraft

    def test_result_without_track_is_an_error(self):
        with pytest.raises(va.ValidationError, match="ghost"):
            va.join_registration([make_result("ghost", True)], {}, TABLE)


class TestValidatePredictions:
    def test_parts_agree_and_the_baseline_sees_unclassifiable_tracks(self):
        tracks = {"a": make_track("a", tail="N1HELO", declared="HELO"),
                  "b": make_track("b", tail="N2WING", declared="SR22"),
                  "c": make_track("c", mode_s="AAA003", declared="R44"),
                  "u": make_track("u", declared="EC30")}
        results = [make_result("a", True), make_result("b", False), make_result("c", False)]
        records, metrics, venn, pseudo = va.validate_predictions(
            results, {"u": "no_approach"}, tracks, TABLE, frozenset({"R44", "EC30"}))
        assert records == va.join_registration(results, tracks, TABLE)
        assert metrics == va.ConfusionMetrics(1, 0, 1, 1, 0, 1.0, 0.5)
        assert venn == va.VennCounts(both=1, autoencoder_only=0, baseline_only=2)
        assert [r.track_id for r in pseudo] == ["a"]

    @pytest.mark.parametrize("unclassifiable, results, named", [
        ({"gone": "no_approach"}, [], "no track for unclassifiable result 'gone'"),
        ({}, [make_result("gone", True)], "no track for result 'gone'"),
    ], ids=["unclassifiable", "classified"])
    def test_an_id_without_a_track_is_an_error(self, unclassifiable, results, named):
        tracks = {"a": make_track("a")}
        with pytest.raises(va.ValidationError, match=named):
            va.validate_predictions(results, unclassifiable, tracks, TABLE, frozenset())


def record(pred, actual, track_id="t"):
    """Minimal ValidationRecord for metric tests; actual=None means unmatched."""
    return va.ValidationRecord(
        track_id=track_id, mae=0.01, runway_score=0.2, pred_is_helicopter=pred,
        matched=va.MatchKind.UNMATCHED if actual is None else va.MatchKind.BY_TAIL,
        is_helicopter_ac_reg=actual,
        aircraft_class=None if actual is None else "ROTORCRAFT",
        model=None if actual is None else "M", manufacturer=None,
        type_designator=None, declared_type=None, class_conflict=False)


class TestConfusionMetrics:
    def test_counts_and_rates(self):
        records = ([record(True, True)] * 6 + [record(True, False)] * 2 +
                   [record(False, True)] * 3 + [record(False, False)] * 8 +
                   [record(True, None)] * 4)
        m = va.confusion_metrics(records)
        assert (m.tp, m.fp, m.fn, m.tn, m.unmatched) == (6, 2, 3, 8, 4)
        assert m.precision == pytest.approx(6 / 8)
        assert m.recall == pytest.approx(6 / 9)

    def test_no_predicted_positives_has_undefined_precision(self):
        m = va.confusion_metrics([record(False, True), record(False, False)])
        assert m.precision is None
        assert m.recall == 0.0

    def test_no_actual_positives_has_undefined_recall(self):
        m = va.confusion_metrics([record(True, False), record(False, False)])
        assert m.recall is None
        assert m.precision == 0.0


class TestVennCompare:
    def test_overlap_counts(self):
        auto = {f"a{i}" for i in range(67)} | {f"x{i}" for i in range(892)}
        base = {f"a{i}" for i in range(67)} | {f"b{i}" for i in range(3)}
        v = va.venn_compare(auto, base)
        assert (v.both, v.autoencoder_only, v.baseline_only) == (67, 892, 3)

    def test_empty_baseline_side(self):
        auto = {f"a{i}" for i in range(17)} | {f"x{i}" for i in range(375)}
        base = {f"a{i}" for i in range(17)}
        v = va.venn_compare(auto, base)
        assert (v.both, v.autoencoder_only, v.baseline_only) == (17 + 375 - 375, 375, 0)
        assert v.both == 17

    def test_duplicates_collapse(self):
        v = va.venn_compare(["a", "a", "b"], ["b", "b", "c"])
        assert (v.both, v.autoencoder_only, v.baseline_only) == (1, 1, 1)


class TestResolvePseudoTypes:
    def test_keeps_matched_records_with_vague_declared_type(self):
        vague = record(True, True, "vague")
        vague = va.ValidationRecord(**{**vague.__dict__, "declared_type": "HELO"})
        missing = record(True, True, "missing")
        concrete = va.ValidationRecord(**{**record(True, True, "concrete").__dict__,
                                          "declared_type": "EC30"})
        unmatched = record(True, None, "unmatched")
        out = va.resolve_pseudo_types([vague, missing, concrete, unmatched])
        assert [r.track_id for r in out] == ["vague", "missing"]
