"""End-to-end checks of the command line pipeline on a small scenario."""

import csv
import dataclasses
import hashlib
import json
import logging
import struct
from pathlib import Path

import pytest

from rotortrack import autoencoder as ae
from rotortrack import cli
from rotortrack import identify as idf
from rotortrack import runwayscore as rs
from rotortrack import trackdata as td

SMALL_CFG = {
    "synth": {"seed": 11, "helicopters": 40, "ga": 8, "commercial": 8},
    "training": {"epochs": 30, "batch_size": 16},
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


class TestCliBehavior:
    def test_missing_input_fails_with_nonzero_exit(self, tmp_path):
        assert run("--out-dir", str(tmp_path), "train") == 1

    def test_unreadable_config_fails(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        assert run("--out-dir", str(tmp_path), "--config", str(bad), "synth") == 1

    def test_seed_flag_changes_the_scenario(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        small = tmp_path / "cfg.json"
        small.write_text(json.dumps({"synth": {"helicopters": 2, "ga": 0, "commercial": 0}}))
        assert run("--out-dir", str(a), "--config", str(small), "synth") == 0
        assert run("--out-dir", str(b), "--config", str(small), "--seed", "8", "synth") == 0
        assert (a / "tracks.jsonl").read_bytes() != (b / "tracks.jsonl").read_bytes()

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

    def test_unknown_dtype_in_config_exits_1(self, pipeline, tmp_path):
        work = tmp_path / "f16"
        work.mkdir()
        for name in ("tracks.jsonl", "labels.csv", "runways.csv"):
            (work / name).write_bytes((pipeline / name).read_bytes())
        cfg = work / "cfg.json"
        cfg.write_text(json.dumps({"autoencoder": {"dtype": "float16"}}))
        assert run("--out-dir", str(work), "--config", str(cfg), "train") == 1


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
    ], ids=["missing_key", "not_an_object", "non_numeric", "out_of_range", "bad_json",
            "huge_integer"])
    def test_malformed_thresholds_exit_1_naming_the_file(self, pipeline, tmp_path, capsys,
                                                         command, text):
        work = copy_inputs(pipeline, tmp_path / "th", self.INPUTS)
        (work / "thresholds.json").write_text(text)
        assert run("--out-dir", str(work), command) == 1
        assert "thresholds.json" in capsys.readouterr().err

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
        with pytest.raises(cli.CliError) as exc:
            cli.read_results(path)
        assert f"results.csv line 3: {named}" in str(exc.value)


class TestCalibratePercentileFlag:
    def test_percentile_100_equals_the_maximum_training_error(self, pipeline, tmp_path):
        work = tmp_path / "p100"
        work.mkdir()
        for name in ("model.rtae", "tracks.jsonl", "labels.csv", "runways.csv"):
            (work / name).write_bytes((pipeline / name).read_bytes())
        assert run("--out-dir", str(work), "calibrate", "--percentile", "100") == 0
        th = json.loads((work / "thresholds.json").read_text())
        assert th["percentile"] == 100.0

        model = ae.load(work / "model.rtae")
        runway = next(iter(td.load_runways(work / "runways.csv").values()))
        labels = td.load_labels(work / "labels.csv")
        maes = [idf.window_mae(model, t, runway)
                for t in td.load_tracks(work / "tracks.jsonl").tracks
                if labels[t.track_id] == td.CLASS_HELICOPTER]
        assert th["mae_threshold"] == max(maes)


class TestConfigMerge:
    def test_nested_overrides_keep_sibling_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"training": {"epochs": 5}, "synth": {"ga": 3}}))
        cfg = cli.load_config(str(path))
        assert cfg["training"].epochs == 5
        assert cfg["training"].batch_size == 32
        assert cfg["synth"] == {"seed": 7, "helicopters": 100, "ga": 3, "commercial": 100}

    def test_empty_config_builds_the_library_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        for cfg in (cli.load_config(str(path)), cli.load_config(None)):
            assert cfg["autoencoder"] == ae.AutoencoderSpec()
            assert cfg["training"] == ae.TrainConfig()
            assert cfg["runway_score"] == rs.ScoreParams()
            assert cfg["thresholds"].percentile == idf.DEFAULT_PERCENTILE
            assert cfg["thresholds"].runway_score_threshold == idf.DEFAULT_SCORE_THRESHOLD

    def test_paths_resolve_against_out_dir(self, tmp_path):
        paths = cli.Paths(cli.DEFAULT_CONFIG, str(tmp_path))
        assert paths.tracks == tmp_path / "tracks.jsonl"
        assert paths.out_dir == tmp_path

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
        ({"thresholds": {"percentile": "80"}}, "thresholds.percentile"),
        ({"runway_score": {"weights": 3}}, "runway_score.weights"),
        ({"histogram_bins": "x"}, "histogram_bins"),
        ({"paths": {"tracks": 5}}, "paths.tracks"),
        ({"training": []}, "training"),
        ({"training": {"epochs": 5.5}}, "training.epochs"),
        ({"training": {"patience": True}}, "training.patience"),
        ({"synth": {"seed": None}}, "synth.seed"),
        ({"runway_score": {"distance_scale_nm": float("nan")}}, "runway_score.distance_scale_nm"),
        ({"training": {"learning_rate": float("inf")}}, "training.learning_rate"),
        ({"training": {"eps": 10**400}}, "training.eps"),
        ({"autoencoder": {"input_len": 50}}, "autoencoder.input_len"),
        ({"thresholds": {"mae_threshold": 0.2}}, "thresholds.mae_threshold"),
        ({"autoencoder": {"encoder_convs": [7, 2, 16]}}, "autoencoder.encoder_convs"),
        ({"autoencoder": {"encoder_convs": [[7, 2, 16.5]]}}, "autoencoder.encoder_convs"),
        ({"thresholds": {"runway_score_threshold": 5}}, "runway_score_threshold must lie"),
        ({"runway_score": {"weights": [1, 0, 0, 0]}}, "runway_score: need 5"),
        ({"autoencoder": {"dtype": "float16"}}, "autoencoder: unsupported dtype"),
        ({"autoencoder": {"encoder_convs": [[7, 3, 16]]}}, "config.autoencoder: stride 3"),
    ])
    def test_exits_1_naming_the_key(self, tmp_path, capsys, command, doc, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run("--out-dir", str(tmp_path), "--config", str(cfg), command) == 1
        assert named in capsys.readouterr().err
