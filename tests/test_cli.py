"""End-to-end checks of the command line pipeline on a small scenario."""

import csv
import dataclasses
import hashlib
import importlib.util
import json
import logging
import os
import re
import struct
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from rotortrack import autoencoder as ae
from rotortrack import cli
from rotortrack import identify as idf
from rotortrack import synthgen as sg
from rotortrack import trackdata as td

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SMALL_CFG = {
    "synth": {"seed": 11, "helicopters": 40, "ga": 8, "commercial": 8},
    "training": {"epochs": 30},
}


def run(*argv):
    return cli.main(list(argv))


def copy_inputs(src, work, names):
    """A fresh directory work holding copies of the named files of src."""
    work.mkdir()
    for name in names:
        (work / name).write_bytes((src / name).read_bytes())
    return work


def write_resigned_model(src, dst, header_edit):
    """Copy a model file with its JSON header edited in place, under a valid checksum."""
    body = src.read_bytes()[:-32]
    start = len(ae.MAGIC) + 4
    (n,) = struct.unpack_from("<I", body, start)
    header = json.loads(body[start + 4:start + 4 + n])
    header_edit(header)
    new = json.dumps(header).encode("utf-8")
    body = body[:start] + struct.pack("<I", len(new)) + new + body[start + 4 + n:]
    dst.write_bytes(body + hashlib.sha256(body).digest())


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full synth/train/calibrate/classify/validate/report run."""
    d = tmp_path_factory.mktemp("pipeline")
    cfg = d / "cfg.json"
    cfg.write_text(json.dumps(SMALL_CFG))
    base = ("--out-dir", str(d), "--config", str(cfg))
    for command in ("synth", "train", "calibrate", "classify", "validate", "report"):
        assert run(*base, command) == 0, f"{command} failed"
    return d


class TestPipelineArtifacts:
    def test_synth_writes_scenario_files(self, pipeline):
        for name in ("tracks.jsonl", "labels.csv", "runways.csv",
                     "registration.csv", "heli_types.txt"):
            assert (pipeline / name).is_file(), name
        assert len(td.load_tracks(pipeline / "tracks.jsonl").tracks) == 56

    def test_train_writes_model_and_history(self, pipeline):
        model = ae.load(pipeline / "model.rtae")
        assert model.norm_stats is not None
        with open(pipeline / "loss_history.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and set(rows[0]) == {"epoch", "train_mae", "val_mae"}
        assert int(rows[0]["epoch"]) == 1

    def test_calibrate_writes_thresholds_and_histogram(self, pipeline):
        th = json.loads((pipeline / "thresholds.json").read_text())
        assert set(th) == {"mae_threshold", "percentile", "runway_score_threshold"}
        assert th["mae_threshold"] > 0
        assert th["percentile"] == 80.0
        with open(pipeline / "mae_histogram.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"bin_lo", "bin_hi", "count"}
        assert sum(int(r["count"]) for r in rows) == 40

    def test_classify_writes_a_row_per_track(self, pipeline):
        results, unclassifiable = cli.read_results(pipeline / "results.csv")
        assert len(results) + len(unclassifiable) == 56
        assert unclassifiable == {}
        for res in results:
            assert res.pred_is_helicopter is (res.reasons == ())

    def test_classification_matches_library_decision(self, pipeline):
        model = ae.load(pipeline / "model.rtae")
        th = json.loads((pipeline / "thresholds.json").read_text())
        thresholds = idf.Thresholds(**th)
        runway = next(iter(td.load_runways(pipeline / "runways.csv").values()))
        tracks = {t.track_id: t for t in td.load_tracks(pipeline / "tracks.jsonl").tracks}
        results, _ = cli.read_results(pipeline / "results.csv")
        for res in results[:10]:
            want = idf.classify(model, thresholds, tracks[res.track_id], runway)
            assert res.pred_is_helicopter == want.pred_is_helicopter
            assert res.mae == pytest.approx(want.mae, rel=1e-15)

    def test_validate_writes_metrics_and_venn(self, pipeline):
        metrics = json.loads((pipeline / "metrics.json").read_text())
        for key in ("tp", "fp", "fn", "tn", "unmatched", "unclassifiable",
                    "precision", "recall", "venn"):
            assert key in metrics, key
        assert set(metrics["venn"]) == {"both", "autoencoder_only", "baseline_only"}
        with open(pipeline / "venn_summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert set(rows[0]) == {"both", "autoencoder_only", "baseline_only"}
        with open(pipeline / "validation.csv") as fh:
            header = next(csv.reader(fh))
        assert header[:4] == ["track_id", "mae", "runway_score", "pred_is_helicopter"]

    def test_report_summarizes_thresholds_and_metrics(self, pipeline):
        text = (pipeline / "report.txt").read_text()
        th = json.loads((pipeline / "thresholds.json").read_text())
        assert repr(th["mae_threshold"]) in text
        assert "precision" in text and "recall" in text
        assert "both methods" in text and "autoencoder only" in text

    @pytest.mark.parametrize("epochs, val_maes, logged", [
        (4, [0.5, 0.3, 0.4, 0.3],
         "trained 4 epochs, early stop not fired; kept epoch 2, val MAE 0.3"),
        (200, [0.5, 0.3] + [0.4] * 20,
         "trained 22 epochs, early stop fired; kept epoch 2, val MAE 0.3"),
    ])
    def test_train_logs_the_epoch_whose_weights_it_keeps(self, pipeline, tmp_path, epochs,
                                                         val_maes, logged):
        # train keeps the first best validation epoch; early stopping fired when it
        # ran fewer than the configured epochs
        work = copy_inputs(pipeline, tmp_path / "work", ("tracks.jsonl", "labels.csv",
                                                         "runways.csv"))
        (work / "cfg.json").write_text(json.dumps({"training": {"epochs": epochs}}))
        history = [ae.EpochStats(i + 1, 1.0, v) for i, v in enumerate(val_maes)]
        with mock.patch.object(cli.ae, "train", return_value=history):
            assert run("--out-dir", str(work), "--config", str(work / "cfg.json"),
                       "--log-file", str(tmp_path / "log.txt"), "train") == 0
        assert logged in (tmp_path / "log.txt").read_text(encoding="utf-8")


class TestCliBehavior:
    def test_missing_input_fails_with_nonzero_exit(self, tmp_path):
        assert run("--out-dir", str(tmp_path), "train") == 1

    def test_unreadable_config_fails(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        assert run("--out-dir", str(tmp_path), "--config", str(bad), "synth") == 1

    def test_config_seed_changes_the_scenario(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        small = tmp_path / "cfg.json"
        small.write_text(json.dumps({"synth": {"helicopters": 2, "ga": 0, "commercial": 0}}))
        seeded = tmp_path / "seeded.json"
        seeded.write_text(json.dumps({"synth": {"seed": 8, "helicopters": 2, "ga": 0,
                                                "commercial": 0}}))
        assert run("--out-dir", str(a), "--config", str(small), "synth") == 0
        assert run("--out-dir", str(b), "--config", str(seeded), "synth") == 0
        assert (a / "tracks.jsonl").read_bytes() != (b / "tracks.jsonl").read_bytes()

    def test_config_scenario_matches_the_recorded_digest(self, tmp_path):
        # the digest of the tracks that `--seed 8 synth --helicopters 40 --ga 8
        # --commercial 8` wrote while those flags existed
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"seed": 8, "helicopters": 40, "ga": 8,
                                             "commercial": 8}}))
        assert run("--out-dir", str(tmp_path), "--config", str(cfg), "synth") == 0
        assert hashlib.sha256((tmp_path / "tracks.jsonl").read_bytes()).hexdigest() == (
            "5d08e217d5544129a6bc421282764d6337a10e3264be5b23a26725ce8a43fbe6")

    @pytest.mark.parametrize("argv", [["--seed", "8", "synth"], ["synth", "--helicopters", "5"],
                                      ["calibrate", "--percentile", "90"]],
                             ids=["seed", "helicopters", "percentile"])
    def test_run_values_are_not_flags(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run("--out-dir", str(tmp_path), *argv)
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_help_lists_the_six_stages_and_three_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--help")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "{synth,train,calibrate,classify,validate,report}" in out
        for stage in cli._COMMANDS.values():
            assert stage.__doc__ in out
        options = {word for word in out.split() if word.startswith("--")}
        assert options == {"--help", "--config", "--out-dir", "--log-file"}

    def test_an_allocation_that_fails_exits_1(self, pipeline, tmp_path, capsys, monkeypatch):
        def exhausted(spec):
            raise MemoryError("Unable to allocate 56.8 PiB")

        monkeypatch.setattr(ae, "build", exhausted)
        work = copy_inputs(pipeline, tmp_path / "huge", ("tracks.jsonl", "labels.csv",
                                                         "runways.csv"))
        assert run("--out-dir", str(work), "train") == 1
        assert "ERROR out of memory: " in capsys.readouterr().err
        assert not (work / "model.rtae").exists()

    def test_a_failed_write_leaves_no_temporary_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.mkdir()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"helicopters": 1, "ga": 1, "commercial": 1},
                                   "paths": {"tracks": str(taken)}}))
        assert run("--out-dir", str(tmp_path), "--config", str(cfg), "synth") == 1
        assert str(taken) in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "taken"]

    def test_log_file_captures_progress(self, tmp_path):
        small = tmp_path / "cfg.json"
        small.write_text(json.dumps({"synth": {"helicopters": 1, "ga": 1, "commercial": 1}}))
        log_path = tmp_path / "run.log"
        assert run("--out-dir", str(tmp_path), "--config", str(small),
                   "--log-file", str(log_path), "synth") == 0
        assert "tracks" in log_path.read_text()

    def test_each_run_closes_and_detaches_its_log_handlers(self, tmp_path, monkeypatch):
        small = tmp_path / "cfg.json"
        small.write_text(json.dumps({"synth": {"helicopters": 1, "ga": 0, "commercial": 0}}))
        opened = []
        file_handler = logging.FileHandler
        monkeypatch.setattr(logging, "FileHandler",
                            lambda path: opened.append(file_handler(path)) or opened[-1])
        for name in ("first.log", "second.log"):
            assert run("--out-dir", str(tmp_path), "--config", str(small),
                       "--log-file", str(tmp_path / name), "synth") == 0
        assert [Path(h.baseFilename).name for h in opened] == ["first.log", "second.log"]
        assert all(h.stream is None for h in opened)   # FileHandler.close drops its stream
        assert not logging.getLogger("rotortrack").handlers

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unopenable_log_file_exits_1_naming_it(self, tmp_path, capsys, where):
        log_path = tmp_path / "missing" / "x.log" if where == "missing_dir" else tmp_path
        assert run("--out-dir", str(tmp_path / "out"), "--log-file", str(log_path), "synth") == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR ") and str(log_path) in err
        assert not logging.getLogger("rotortrack").handlers
        assert not (tmp_path / "out").exists()

    def test_unwindowable_track_gets_an_unclassifiable_row(self, pipeline, tmp_path):
        work = tmp_path / "short"
        work.mkdir()
        for name in ("model.rtae", "thresholds.json", "runways.csv"):
            (work / name).write_bytes((pipeline / name).read_bytes())
        runway = next(iter(td.load_runways(work / "runways.csv").values()))
        pts = [(float(i), runway.threshold_lat + 0.02, runway.threshold_lon,
                runway.threshold_elev + 900.0, 0.0, 60.0) for i in range(40)]
        td.save_tracks([td.Track("SHORT1", pts)], work / "tracks.jsonl")
        assert run("--out-dir", str(work), "classify") == 0
        results, unclassifiable = cli.read_results(work / "results.csv")
        assert results == []
        assert unclassifiable == {"SHORT1": "fewer_than_100_points"}

    @pytest.mark.parametrize("odd", ['N1,"X', "H\rX"], ids=["comma_and_quote", "carriage_return"])
    def test_track_id_with_csv_specials_survives_classify_and_validate(self, pipeline,
                                                                        tmp_path, odd):
        work = tmp_path / "quoted"
        work.mkdir()
        for name in ("model.rtae", "thresholds.json", "runways.csv", "registration.csv",
                     "heli_types.txt"):
            (work / name).write_bytes((pipeline / name).read_bytes())
        tracks = td.load_tracks(pipeline / "tracks.jsonl").tracks[:3]
        tracks[0] = dataclasses.replace(tracks[0], track_id=odd)
        td.save_tracks(tracks, work / "tracks.jsonl")
        assert run("--out-dir", str(work), "classify") == 0
        results, _ = cli.read_results(work / "results.csv")
        assert [r.track_id for r in results] == [t.track_id for t in tracks]
        assert run("--out-dir", str(work), "validate") == 0
        with open(work / "validation.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [row[0] for row in rows[1:]] == [t.track_id for t in tracks]
        assert {len(row) for row in rows} == {len(rows[0])}

    def test_track_id_past_the_csv_field_limit_exits_1_in_validate(self, pipeline, tmp_path):
        work = copy_inputs(pipeline, tmp_path / "long", ("model.rtae", "thresholds.json",
                                                         "runways.csv", "registration.csv",
                                                         "heli_types.txt"))
        tracks = td.load_tracks(pipeline / "tracks.jsonl").tracks[:2]
        tracks[0] = dataclasses.replace(tracks[0], track_id="L" * (csv.field_size_limit() + 1))
        td.save_tracks(tracks, work / "tracks.jsonl")
        assert run("--out-dir", str(work), "classify") == 0
        assert run("--out-dir", str(work), "validate") == 1

    def test_lone_surrogate_track_id_is_rejected_and_classify_exits_0(self, pipeline, tmp_path,
                                                                       capsys):
        work = copy_inputs(pipeline, tmp_path / "surrogate", ("model.rtae", "thresholds.json",
                                                              "runways.csv"))
        first, *rest = (pipeline / "tracks.jsonl").read_text().splitlines(keepends=True)
        bad = json.loads(first)
        bad["track_id"] = "\ud800C0007"
        (work / "tracks.jsonl").write_text(json.dumps(bad) + "\n" + "".join(rest))
        assert run("--out-dir", str(work), "classify") == 0
        assert "tracks line 1 rejected: track_id must be a string without lone surrogates" in capsys.readouterr().err
        results, unclassifiable = cli.read_results(work / "results.csv")
        assert len(results) + len(unclassifiable) == len(rest)

    @pytest.mark.parametrize("name, command", [("labels.csv", "train"),
                                               ("runways.csv", "classify"),
                                               ("registration.csv", "validate"),
                                               ("heli_types.txt", "validate"),
                                               ("venn_summary.txt", "report")])
    def test_undecodable_byte_in_a_table_exits_1_naming_file_and_line(self, pipeline, tmp_path,
                                                                      capsys, name, command):
        work = copy_inputs(pipeline, tmp_path / "bytes", (
            "tracks.jsonl", "labels.csv", "runways.csv", "registration.csv", "heli_types.txt",
            "model.rtae", "thresholds.json", "results.csv", "metrics.json", "venn_summary.txt"))
        lines = (work / name).read_bytes().splitlines(keepends=True)
        lines[1] = b"\xff" + lines[1]
        (work / name).write_bytes(b"".join(lines))
        assert run("--out-dir", str(work), command) == 1
        assert f"{name} line 2: invalid UTF-8" in capsys.readouterr().err

    def test_a_csv_cell_holding_nul_is_refused_naming_the_file(self, tmp_path):
        path = tmp_path / "results.csv"
        with pytest.raises(cli.CliError, match=f"{path}: a cell holds NUL"):
            cli._write_csv(path, [cli.RESULTS_HEADER, ["a\x00b", None, None, False, ""]])
        assert not path.exists()

    def test_undecodable_byte_in_a_track_line_rejects_only_that_line(self, pipeline, tmp_path,
                                                                     capsys):
        work = copy_inputs(pipeline, tmp_path / "callsign", ("model.rtae", "thresholds.json",
                                                             "runways.csv"))
        lines = (pipeline / "tracks.jsonl").read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"callsign":"', b'"callsign":"\xff', 1)
        (work / "tracks.jsonl").write_bytes(b"".join(lines))
        assert run("--out-dir", str(work), "classify") == 0
        assert "tracks line 2 rejected: invalid UTF-8" in capsys.readouterr().err
        results, unclassifiable = cli.read_results(work / "results.csv")
        assert len(results) + len(unclassifiable) == len(lines) - 1

    def test_result_whose_track_line_went_bad_exits_1_naming_it(self, pipeline, tmp_path,
                                                               capsys):
        work = copy_inputs(pipeline, tmp_path / "gone", ("results.csv", "tracks.jsonl",
                                                         "registration.csv", "heli_types.txt"))
        first, *rest = (work / "tracks.jsonl").read_text().splitlines(keepends=True)
        (work / "tracks.jsonl").write_text("{not json\n" + "".join(rest))
        assert run("--out-dir", str(work), "validate") == 1
        assert f"no track for result {json.loads(first)['track_id']!r}" in capsys.readouterr().err

    def test_checksum_valid_model_without_norm_flag_exits_1(self, pipeline, tmp_path):
        work = copy_inputs(pipeline, tmp_path / "badheader",
                           ("tracks.jsonl", "labels.csv", "runways.csv"))
        write_resigned_model(pipeline / "model.rtae", work / "model.rtae",
                             lambda header: header.pop("has_norm_stats"))
        assert run("--out-dir", str(work), "calibrate") == 1

    def test_checksum_valid_model_claiming_a_huge_latent_dim_exits_1(self, pipeline, tmp_path,
                                                                      capsys):
        work = copy_inputs(pipeline, tmp_path / "huge",
                           ("tracks.jsonl", "labels.csv", "runways.csv"))
        write_resigned_model(pipeline / "model.rtae", work / "model.rtae",
                             lambda header: header["spec"].update(latent_dim=10**12))
        assert run("--out-dir", str(work), "calibrate") == 1
        assert "enc_dense" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "calibrate", "classify"])
    def test_runway_with_negative_length_exits_1_naming_the_file_and_row(self, pipeline,
                                                                         tmp_path, capsys,
                                                                         command):
        work = copy_inputs(pipeline, tmp_path / "rw", ("model.rtae", "thresholds.json",
                                                       "tracks.jsonl", "labels.csv"))
        header, row = (pipeline / "runways.csv").read_text().splitlines()
        (work / "runways.csv").write_text(f"{header}\n{row.rsplit(',', 1)[0]},-5.0\n")
        assert run("--out-dir", str(work), command) == 1
        assert "runways.csv line 2: length must be finite and > 0" in capsys.readouterr().err

    def test_space_padded_csv_headers_train_the_same_model(self, pipeline, tmp_path):
        work = copy_inputs(pipeline, tmp_path / "padded", ("tracks.jsonl",))
        for name in ("labels.csv", "runways.csv"):
            header, rest = (pipeline / name).read_text().split("\n", 1)
            (work / name).write_text(header.replace(",", ", ") + "\n" + rest)
        assert run("--out-dir", str(work), "--config", str(pipeline / "cfg.json"), "train") == 0
        assert (work / "model.rtae").read_bytes() == (pipeline / "model.rtae").read_bytes()


class TestMalformedJsonInputs:
    INPUTS = ("model.rtae", "tracks.jsonl", "runways.csv", "thresholds.json", "metrics.json",
              "venn_summary.txt")

    @pytest.mark.parametrize("command", ["classify", "report"])
    @pytest.mark.parametrize("text", [
        '{"percentile": 80}',
        "[1, 2]",
        '{"mae_threshold": "0.3", "percentile": 80, "runway_score_threshold": 0.5}',
        '{"mae_threshold": -1.0, "percentile": 80, "runway_score_threshold": 0.5}',
        "{not json",
        '{"mae_threshold": 1' + "0" * 400 + ', "percentile": 80, "runway_score_threshold": 0.5}',
        '{"mae_threshold": 0.3, "percentile": 80, "runway_score_threshold": 0.5, '
        '"runway_score_gate": 0.9}',
    ], ids=["missing_key", "not_an_object", "non_numeric", "out_of_range", "bad_json",
            "huge_integer", "unknown_key"])
    def test_malformed_thresholds_exit_1_naming_the_file(self, pipeline, tmp_path, capsys,
                                                         command, text):
        work = copy_inputs(pipeline, tmp_path / "th", self.INPUTS)
        (work / "thresholds.json").write_text(text)
        assert run("--out-dir", str(work), command) == 1
        err = capsys.readouterr().err
        assert "thresholds.json" in err
        # the file is the only place the score gate is set: an unknown key is named
        assert "'runway_score_gate'" in err or "runway_score_gate" not in text

    @pytest.mark.parametrize("edit", [
        lambda m: m.pop("recall"),
        lambda m: m.update(tp="3"),
        lambda m: m.update(precision=[1.0]),
        lambda m: m.update(tn=None),
        lambda m: m.update(precision=10 ** 400),
    ], ids=["missing_key", "string_count", "list_ratio", "null_count", "huge_integer"])
    def test_malformed_metrics_exit_1_naming_the_file(self, pipeline, tmp_path, capsys, edit):
        work = copy_inputs(pipeline, tmp_path / "m", self.INPUTS)
        metrics = json.loads((work / "metrics.json").read_text())
        edit(metrics)
        (work / "metrics.json").write_text(json.dumps(metrics))
        assert run("--out-dir", str(work), "report") == 1
        assert "metrics.json" in capsys.readouterr().err

    def test_metrics_with_undefined_ratios_still_report(self, pipeline, tmp_path):
        work = copy_inputs(pipeline, tmp_path / "none", self.INPUTS)
        metrics = json.loads((work / "metrics.json").read_text())
        metrics.update(precision=None, recall=None)
        (work / "metrics.json").write_text(json.dumps(metrics))
        assert run("--out-dir", str(work), "report") == 0
        assert "precision: n/a" in (work / "report.txt").read_text()


class TestMalformedResults:
    @pytest.mark.parametrize("row, named", [
        ("H0000", "expected 5 fields, got 1"),
        ("H0000,abc,0.2,true,", "could not convert string to float: 'abc'"),
        ("H0000,0.1,0.2,yes,", "pred_is_helicopter must be true or false, got 'yes'"),
        ('"' + "x" * (csv.field_size_limit() + 1) + '",0.1,0.2,true,', "field larger"),
        ("H0000,nan,0.2,true,", "mae must be finite, got 'nan'"),
        ("H0000,0.1,-inf,false,runway_score", "runway_score must be finite, got '-inf'"),
        ("H0001,0.3,0.4,true,", "duplicate track_id 'H0001'"),
    ], ids=["short_row", "non_numeric_mae", "non_boolean_prediction", "csv_error", "nan_mae",
            "infinite_score", "repeated_track_id"])
    def test_bad_row_is_a_cli_error_naming_file_and_line(self, tmp_path, row, named):
        path = tmp_path / "results.csv"
        path.write_text(",".join(cli.RESULTS_HEADER) + "\nH0001,0.1,0.2,false,x\n" + row + "\n")
        with pytest.raises(td.MalformedRecord) as exc:
            cli.read_results(path)
        assert f"results.csv line 3: {named}" in str(exc.value)


class TestOverflowingFeatures:
    """Finite inputs whose features overflow exit 1 with a named error and no warning."""

    @staticmethod
    def with_huge_altitude(pipeline, work, names):
        """Copies of names, and tracks.jsonl with H0000's closest approach at altitude 1.7e308."""
        copy_inputs(pipeline, work, names)
        runway = next(iter(td.load_runways(pipeline / "runways.csv").values()))
        tracks = td.load_tracks(pipeline / "tracks.jsonl").tracks
        assert tracks[0].track_id == "H0000"
        idx, _ = td.closest_approach_index(tracks[0], runway)
        points = tracks[0].points.copy()   # a track's points are read-only
        points["alt"][idx] = 1.7e308
        tracks[0] = dataclasses.replace(tracks[0], points=points)
        td.save_tracks(tracks, work / "tracks.jsonl")

    def test_train_refuses_an_infinite_std(self, pipeline, tmp_path, capsys):
        work = tmp_path / "train"
        self.with_huge_altitude(pipeline, work, ("labels.csv", "runways.csv"))
        assert run("--out-dir", str(work), "train") == 1
        assert "features whose mean or std is not finite: [2]" in capsys.readouterr().err
        assert not (work / "model.rtae").exists()

    def test_classify_names_the_track(self, pipeline, tmp_path, capsys):
        work = tmp_path / "classify"
        self.with_huge_altitude(pipeline, work, ("model.rtae", "thresholds.json"))
        text = (pipeline / "runways.csv").read_text()
        (work / "runways.csv").write_text(text.replace(",2145.0,", ",-1e308,"))
        assert run("--out-dir", str(work), "classify") == 1
        assert "track H0000: feature window contains non-finite values" in capsys.readouterr().err


class TestCalibrateGate:
    def test_the_gate_is_the_80th_percentile_of_the_training_errors(self, pipeline, tmp_path):
        work = copy_inputs(pipeline, tmp_path / "gate", ("model.rtae", "tracks.jsonl",
                                                         "labels.csv", "runways.csv"))
        assert run("--out-dir", str(work), "calibrate") == 0
        th = json.loads((work / "thresholds.json").read_text())
        assert th["percentile"] == 80.0

        model = ae.load(work / "model.rtae")
        runway = next(iter(td.load_runways(work / "runways.csv").values()))
        labels = td.load_labels(work / "labels.csv")
        maes = [idf.window_mae(model, t, runway)
                for t in td.load_tracks(work / "tracks.jsonl").tracks
                if labels[t.track_id] == td.CLASS_HELICOPTER]
        assert th["mae_threshold"] == idf.calibrate(maes, 80.0)


class TestConfigMerge:
    def test_nested_overrides_keep_sibling_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"training": {"epochs": 5}, "synth": {"ga": 3}}))
        cfg = cli.load_config(str(path))
        assert cfg["training"].epochs == 5
        assert cfg["training"].batch_size == 32
        assert cfg["synth"] == sg.ScenarioSpec(seed=7, helicopters=100, ga=3, commercial=100)

    def test_empty_config_builds_the_library_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        for cfg in (cli.load_config(str(path)), cli.load_config(None)):
            assert cfg["synth"] == sg.ScenarioSpec()
            assert cfg["autoencoder"] == ae.AutoencoderSpec()
            assert cfg["training"] == ae.TrainConfig()
            assert set(cfg) == {"paths", "synth", "autoencoder", "training"}

    @pytest.mark.parametrize("section", ["synth", "training"])
    def test_a_built_section_has_exactly_the_settable_fields(self, section):
        # every field of these objects is a config key; AutoencoderSpec's architecture
        # fields are the model header's, so only its seed is settable
        cls, settable = cli._BUILT[section]
        assert {f.name for f in dataclasses.fields(cls)} == set(settable)

    def test_paths_resolve_against_out_dir(self, tmp_path):
        paths = cli.Paths(cli.DEFAULT_CONFIG, str(tmp_path))
        assert paths.tracks == tmp_path / "tracks.jsonl"
        assert paths.model == tmp_path / "model.rtae"
        assert paths.out_dir == tmp_path
        # an absolute input path moves that input alone; the outputs stay under out_dir
        elsewhere = tmp_path / "study" / "tracks.jsonl"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"paths": {"tracks": str(elsewhere)}}))
        moved = cli.Paths(cli.load_config(str(path)), str(tmp_path / "out"))
        assert moved.tracks == elsewhere
        assert moved.labels == tmp_path / "out" / "labels.csv"
        assert moved.model == tmp_path / "out" / "model.rtae"

    def test_missing_input_has_a_named_error(self, tmp_path):
        paths = cli.Paths(cli.DEFAULT_CONFIG, str(tmp_path))
        with pytest.raises(cli.CliError, match="tracks.jsonl"):
            paths.input("tracks")


class TestMalformedConfig:
    @pytest.mark.parametrize("command", ["synth", "train", "calibrate", "classify", "validate",
                                         "report"])
    @pytest.mark.parametrize("doc, named", [
        ({"training": {"epoch": 5}}, "training.epoch"),
        ({"training": {"epochs": "5"}}, "training.epochs"),
        ({"histogram_bins": 30}, "histogram_bins is not a settable key"),
        ({"paths": {"tracks": 5}}, "paths.tracks"),
        ({"paths": {"out_dir": "x"}}, "config.paths.out_dir is not a settable key"),
        ({"training": []}, "training"),
        ({"training": {"epochs": 5.5}}, "training.epochs"),
        ({"training": {"epochs": True}}, "training.epochs"),
        ({"synth": {"seed": None}}, "synth.seed"),
        ({"synth": {"helicopters": -1}}, "config.synth: seed and class counts must be >= 0"),
        ({"synth": {"seed": -1}}, "config.synth: seed and class counts must be >= 0"),
        ({"autoencoder": {"input_len": 50}}, "config.autoencoder.input_len is not a settable key"),
        ({"training": {"beta1": 0.9}}, "training.beta1 is not a settable key"),
        ({"autoencoder": {"seed": -1}}, "config.autoencoder: seed must be >= 0"),
        ({"training": {"seed": -1}}, "config.training: seed must be >= 0"),
        ({"training": {"epochs": 0}}, "config.training: epochs must be >= 1"),
        # the model, training, score and gate values that only the library sets,
        # refused even at their defaults
        ({"autoencoder": {"encoder_convs": [[7, 2, 16], [5, 2, 32]]}},
         "config.autoencoder.encoder_convs is not a settable key"),
        ({"autoencoder": {"latent_dim": 16}}, "config.autoencoder.latent_dim is not a settable key"),
        ({"autoencoder": {"dtype": "float64"}}, "config.autoencoder.dtype is not a settable key"),
        ({"training": {"batch_size": 32}}, "config.training.batch_size is not a settable key"),
        ({"training": {"learning_rate": 0.001}},
         "config.training.learning_rate is not a settable key"),
        ({"training": {"validation_fraction": 0.2}},
         "config.training.validation_fraction is not a settable key"),
        ({"training": {"patience": 20}}, "config.training.patience is not a settable key"),
        ({"runway_score": {"distance_scale_nm": 1.0}}, "config.runway_score is not a settable key"),
        ({"runway_score": {"course_full_scale_deg": 30.0}},
         "config.runway_score is not a settable key"),
        ({"runway_score": {"lateral_full_scale_ft": 500.0}},
         "config.runway_score is not a settable key"),
        ({"runway_score": {"length_full_scale_ft": 3000.0}},
         "config.runway_score is not a settable key"),
        ({"runway_score": {"weights": [0.3, 0.25, 0.25, 0.1, 0.1]}},
         "config.runway_score is not a settable key"),
        ({"runway_score": {}}, "config.runway_score is not a settable key"),
        ({"thresholds": {"percentile": 80}}, "config.thresholds is not a settable key"),
        ({"thresholds": {"runway_score_threshold": 0.5}},
         "config.thresholds is not a settable key"),
        ({"thresholds": {"mae_threshold": 0.2}}, "config.thresholds is not a settable key"),
        ({"thresholds": {}}, "config.thresholds is not a settable key"),
        # the pipeline's outputs, at fixed names under --out-dir, refused even at their defaults
        *[({"paths": {name: file}}, f"config.paths.{name} is not a settable key")
          for name, file in cli.OUTPUTS.items()],
    ])
    def test_exits_1_naming_the_key(self, tmp_path, capsys, command, doc, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run("--out-dir", str(tmp_path), "--config", str(cfg), command) == 1
        assert named in capsys.readouterr().err


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCallerConfigs:
    def test_every_config_a_caller_writes_loads(self, tmp_path):
        # the recorders' scenarios, and the JSON objects the CI workflow and the
        # README echo into config files
        bench = load_script("bench_record")
        quality = load_script("quality_record")
        configs = [(f"bench_record {name}", config)
                   for scenarios in (bench.SCENARIOS, bench.QUICK_SCENARIOS)
                   for name, (config, _) in scenarios.items()]
        configs += [(f"quality_record {seeded.__name__} {name} {seed}", seeded(config, seed))
                    for name, config in quality.PROFILES.items() for seed in quality.SEEDS
                    for seeded in (quality.scenario_seeded, quality.init_seeded)]
        for doc, count in ((".github/workflows/tier1.yml", 2), ("README.md", 2)):
            echoed = re.findall(r"echo '(\{.*?\})' >", (ROOT / doc).read_text(encoding="utf-8"),
                                re.DOTALL)
            assert len(echoed) == count, doc
            configs += [(doc, json.loads(text)) for text in echoed]
        path = tmp_path / "cfg.json"
        for where, config in configs:
            path.write_text(json.dumps(config))
            try:
                cli.load_config(str(path))
            except cli.CliError as e:
                pytest.fail(f"{where}: {e}")

    def test_ci_byte_compares_what_the_recorder_digests(self):
        # an artifact added to the recorder's set must not go uncompared in CI
        workflow = (ROOT / ".github/workflows/tier1.yml").read_text(encoding="utf-8")
        loops = re.findall(r"for f in ([^;\n]*); do\s+cmp ", workflow)
        assert len(loops) == 2
        compared = load_script("bench_record").BYTE_COMPARED
        for names in loops:
            assert tuple(names.split()) == compared
        # and a renamed artifact must not drop out of the comparison unnoticed
        files = {*cli.DEFAULT_CONFIG["paths"].values(), *cli.OUTPUTS.values()}
        assert set(compared) <= files, set(compared) - files


class TestOtherJsonForms:
    def test_tracks_in_other_json_forms_give_the_same_results(self, pipeline, tmp_path):
        # json.dumps' default separators put every line on the general route, which must
        # classify and validate exactly as the text route did.  Numbers of 6 decimals,
        # as perfbench's generator writes lat and lon, have numpy's text reader on the
        # text route read more than 17-digit floats: the writers' compact form and
        # default separators must then give the same results.
        original = (pipeline / "tracks.jsonl").read_text(encoding="utf-8")
        tracks = [json.loads(line) for line in original.splitlines()]
        rounded = [{**t, "points": [{k: round(v, 6) for k, v in p.items()} for p in t["points"]]}
                   for t in tracks]
        forms = {"spaced": (tracks, None), "rounded_compact": (rounded, (",", ":")),
                 "rounded_spaced": (rounded, None)}
        for form, (doc, separators) in forms.items():
            work = copy_inputs(pipeline, tmp_path / form, ("model.rtae", "thresholds.json",
                                                           "runways.csv", "registration.csv",
                                                           "heli_types.txt"))
            text = "".join(json.dumps(t, separators=separators) + "\n" for t in doc)
            assert text != original, f"the {form} rewrite left tracks.jsonl as it was"
            (work / "tracks.jsonl").write_text(text, encoding="utf-8")
            for stage in ("classify", "validate"):
                assert run("--out-dir", str(work), "--config", str(pipeline / "cfg.json"),
                           stage) == 0, f"{stage} failed on the {form} form"
        for name in ("results.csv", "validation.csv"):
            assert (tmp_path / "spaced" / name).read_bytes() == (pipeline / name).read_bytes()
            assert ((tmp_path / "rounded_compact" / name).read_bytes()
                    == (tmp_path / "rounded_spaced" / name).read_bytes())


def without_thread_counts(**extra):
    """This process's environment with no BLAS thread count set, src/ importable, plus extra."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**env, **extra}


class TestEntryModule:
    def test_unset_thread_count_trains_the_model_one_thread_does(self, tmp_path):
        # The default scenario's last training batch of each epoch holds 16 windows,
        # whose weight-gradient GEMM sums in another order on more than one BLAS thread.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"training": {"epochs": 2}}))
        models = []
        for name, env in (("unset", without_thread_counts()),
                          ("one", without_thread_counts(OPENBLAS_NUM_THREADS="1"))):
            for stage in ("synth", "train"):
                subprocess.run([sys.executable, "-m", "rotortrack", "--config", str(cfg),
                                "--out-dir", str(tmp_path / name), stage],
                               env=env, check=True, capture_output=True)
            models.append((tmp_path / name / "model.rtae").read_bytes())
        assert models[0] == models[1]

    @pytest.mark.parametrize("env, want", [
        ({}, "1"),
        ({"OPENBLAS_NUM_THREADS": "3"}, "3"),
        ({"OMP_NUM_THREADS": "2"}, None),
    ])
    def test_the_command_sets_one_thread_unless_a_count_is_set(self, monkeypatch, env, want):
        from rotortrack import __main__ as entry
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        seen = []
        monkeypatch.setattr(cli, "main",
                            lambda: seen.append(os.environ.get("OPENBLAS_NUM_THREADS")))
        entry.main()
        assert seen == [want]

    def test_importing_the_library_sets_no_thread_count(self):
        code = "import os, rotortrack.cli; print('OPENBLAS_NUM_THREADS' in os.environ)"
        proc = subprocess.run([sys.executable, "-c", code], env=without_thread_counts(),
                              check=True, capture_output=True, text=True)
        assert proc.stdout == "False\n"

    def test_running_the_cli_module_exits_nonzero_and_runs_no_stage(self, tmp_path):
        """Run that way, the stage would start after numpy loaded, with no one-thread default."""
        proc = subprocess.run([sys.executable, "-m", "rotortrack.cli",
                               "--out-dir", str(tmp_path / "x"), "synth"],
                              env=without_thread_counts(), capture_output=True, text=True)
        assert proc.returncode == 1
        assert "python -m rotortrack` or `rotortrack`" in proc.stderr
        assert not (tmp_path / "x").exists()
