"""End-to-end checks of the command line pipeline on a small scenario."""

import csv
import dataclasses
import gc
import hashlib
import json
import logging
import os
import platform
import re
import struct
import subprocess
import sys
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import bench_record as bench
import quality_record as quality

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
    # synth's own scenario gives no stage cause to warn: no rejected line, no skipped
    # track and no label naming a track that is not there
    warned = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = warned.append
    cli.log.addHandler(handler)
    try:
        for command in ("synth", "train", "calibrate", "classify", "validate", "report"):
            assert run(*base, command) == 0, f"{command} failed"
    finally:
        cli.log.removeHandler(handler)
    assert [record.getMessage() for record in warned] == []
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

    def test_stages_that_read_the_sidecar_write_what_a_parse_gives(self, pipeline, tmp_path):
        # train parsed tracks.jsonl and wrote its sidecar, which the later stages read
        assert (pipeline / "tracks.jsonl.rtcache").is_file()
        work = copy_inputs(pipeline, tmp_path / "parsed", (
            "tracks.jsonl", "model.rtae", "labels.csv", "runways.csv", "registration.csv",
            "heli_types.txt"))
        for stage in ("calibrate", "classify", "validate"):
            (work / "tracks.jsonl.rtcache").unlink(missing_ok=True)
            assert run("--out-dir", str(work), "--config", str(pipeline / "cfg.json"), stage) == 0
        for name in ("thresholds.json", "results.csv", "validation.csv", "metrics.json"):
            assert (work / name).read_bytes() == (pipeline / name).read_bytes(), name

    def test_each_tracks_load_logs_its_counts_and_whether_it_parsed(self, pipeline, tmp_path,
                                                                    capsys):
        work = copy_inputs(pipeline, tmp_path / "logged", (
            "tracks.jsonl", "model.rtae", "thresholds.json", "runways.csv"))
        with open(work / "tracks.jsonl", "a", encoding="utf-8") as fh:
            fh.write("not json\n")
        capsys.readouterr()
        for _ in range(2):
            assert run("--out-dir", str(work), "classify") == 0
        loads = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("INFO loaded ")]
        name = work / "tracks.jsonl"
        assert loads == [f"INFO loaded {name}: 56 tracks, 1 rejected lines, parsed",
                         f"INFO loaded {name}: 56 tracks, 1 rejected lines, read from its sidecar"]

    def test_validate_reads_no_point_of_a_warm_load(self, pipeline, tmp_path, capsys):
        work = copy_inputs(pipeline, tmp_path / "warm", (
            "tracks.jsonl", "tracks.jsonl.rtcache", "model.rtae", "thresholds.json",
            "runways.csv", "results.csv", "registration.csv", "heli_types.txt"))
        sidecar = work / "tracks.jsonl.rtcache"
        good = sidecar.read_bytes()
        *_, blocks, header_len = td._SIDECAR_END.unpack_from(good, len(good) - td._SIDECAR_TAIL)
        rows_len = len(good) - td._SIDECAR_TAIL - header_len - td._DIGEST_LEN * blocks
        # rows that fail their digest, under the header, end record and checksum they had
        sidecar.write_bytes(bytes(rows_len) + good[rows_len:])
        with mock.patch.object(td, "_parse_track", side_effect=AssertionError("parsed")):
            assert run("--out-dir", str(work), "validate") == 0
        for name in ("validation.csv", "metrics.json"):
            assert (work / name).read_bytes() == (pipeline / name).read_bytes(), name
        capsys.readouterr()
        with mock.patch.object(td, "_parse_file", wraps=td._parse_file) as parse:
            assert run("--out-dir", str(work), "classify") == 0
        assert parse.call_count == 1
        assert (work / "results.csv").read_bytes() == (pipeline / "results.csv").read_bytes()
        assert sidecar.read_bytes() == good
        # the load is logged before its first points read finds the rows bad and parses
        name = work / "tracks.jsonl"
        assert [line for line in capsys.readouterr().err.splitlines()
                if line.startswith(("INFO loaded ", "WARNING "))] == [
            f"INFO loaded {name}: 56 tracks, 0 rejected lines, read from its sidecar",
            f"WARNING {name}: its sidecar's point rows failed a check "
            "(sidecar rows checksum mismatch); parsing it again"]

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

    def test_train_drops_each_raw_window_before_training(self, pipeline, tmp_path):
        # training holds the normalized windows alone: no raw window outlives its normalize
        work = copy_inputs(pipeline, tmp_path / "work", ("tracks.jsonl", "labels.csv",
                                                         "runways.csv"))
        (work / "cfg.json").write_text(json.dumps({"training": {"epochs": 1}}))
        features, train, raws, alive = td.arrival_features, ae.train, [], []

        def watched_features(track, runway):
            raw = features(track, runway)
            raws.append(weakref.ref(raw))
            return raw

        def watched_train(model, windows, config):
            gc.collect()
            alive.append(sum(ref() is not None for ref in raws))
            assert len(windows) == len(raws)
            return train(model, windows, config)

        with mock.patch.object(cli.td, "arrival_features", watched_features), \
                mock.patch.object(cli.ae, "train", watched_train):
            assert run("--out-dir", str(work), "--config", str(work / "cfg.json"), "train") == 0
        assert len(raws) == 40 and alive == [0]

    def test_readme_library_example_runs_on_a_run_directory(self, pipeline, capsys):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S).group(1)
        assert '"run/' in block
        exec(block.replace('"run/', f'"{pipeline.as_posix()}/'), {})
        # one line for the first track, then one per track in order
        lines = capsys.readouterr().out.splitlines()
        tracks = td.load_tracks(pipeline / "tracks.jsonl").tracks
        assert [line.split()[0] for line in lines[1:]] == [t.track_id for t in tracks]


class TestCliBehavior:
    def test_missing_input_fails_with_nonzero_exit(self, tmp_path):
        assert run("--out-dir", str(tmp_path), "train") == 1

    def test_unreadable_config_fails(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        assert run("--out-dir", str(tmp_path), "--config", str(bad), "synth") == 1

    def test_nested_config_fails_naming_the_file(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000 + "]" * 200000)
        assert run("--out-dir", str(tmp_path), "--config", str(deep), "synth") == 1
        assert "deep.json is not valid JSON: nested too deeply" in capsys.readouterr().err
        assert not (tmp_path / "tracks.jsonl").exists()

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
        """NUL is text: the cell is written, and read back as it was."""
        path = tmp_path / "results.csv"
        result = idf.decide("a\x00b", 0.5, 0.5, idf.Thresholds(0.01))
        cli._write_csv(path, [cli.RESULTS_HEADER, cli._result_row(result)])
        assert cli.read_results(path) == ([result], {})

    def test_a_helicopter_whose_id_and_callsign_hold_nul_runs_through_every_stage(self,
                                                                                 tmp_path):
        cfg = tmp_path / "smoke.json"   # the CI smoke run's config
        cfg.write_text(json.dumps({"synth": {"helicopters": 40, "ga": 8, "commercial": 8},
                                   "training": {"epochs": 2}}))
        base = ("--out-dir", str(tmp_path), "--config", str(cfg))
        assert run(*base, "synth") == 0
        with open(tmp_path / "labels.csv", newline="") as fh:
            labels = list(csv.reader(fh))
        row = next(row for row in labels if row[1] == "helicopter")
        old, row[0] = row[0], row[0] + "\0x"
        with open(tmp_path / "labels.csv", "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(labels)
        tracks = [dataclasses.replace(t, track_id=row[0], callsign="LIFE\x001")
                  if t.track_id == old else t
                  for t in td.load_tracks(tmp_path / "tracks.jsonl").tracks]
        td.save_tracks(tracks, tmp_path / "tracks.jsonl")
        for command in ("train", "calibrate", "classify", "validate", "report"):
            assert run(*base, command) == 0, f"{command} failed"
        results, unclassifiable = cli.read_results(tmp_path / "results.csv")
        assert row[0] in [r.track_id for r in results] + list(unclassifiable)
        with open(tmp_path / "validation.csv", newline="") as fh:
            assert row[0] in [cells[0] for cells in csv.reader(fh)]

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
        "[" * 200000 + "]" * 200000,
    ], ids=["missing_key", "not_an_object", "non_numeric", "out_of_range", "bad_json",
            "huge_integer", "unknown_key", "nested_too_deeply"])
    def test_malformed_thresholds_exit_1_naming_the_file(self, pipeline, tmp_path, capsys,
                                                         command, text):
        work = copy_inputs(pipeline, tmp_path / "th", self.INPUTS)
        (work / "thresholds.json").write_text(text)
        assert run("--out-dir", str(work), command) == 1
        err = capsys.readouterr().err
        assert "thresholds.json" in err
        # the file is the only place the score gate is set: an unknown key is named
        assert "'runway_score_gate'" in err or "runway_score_gate" not in text

    @pytest.mark.parametrize("edit, key", [
        (lambda m: m.pop("recall"), "recall"),
        (lambda m: m.update(tp="3"), "tp"),
        (lambda m: m.update(precision=[1.0]), "precision"),
        (lambda m: m.update(tn=None), "tn"),
        (lambda m: m.update(precision=10 ** 400), "precision"),
        (lambda m: m.update(recal=0.1), "recal"),
        (lambda m: m.update(tp=-3.5), "tp"),
        (lambda m: m.update(precision=7.0), "precision"),
        (lambda m: m.update(unclassifiable=2.25), "unclassifiable"),
    ], ids=["missing_key", "string_count", "list_ratio", "null_count", "huge_integer",
            "unknown_key", "negative_count", "ratio_above_one", "fractional_count"])
    def test_malformed_metrics_exit_1_naming_the_file(self, pipeline, tmp_path, capsys, edit,
                                                      key):
        work = copy_inputs(pipeline, tmp_path / "m", self.INPUTS)
        metrics = json.loads((work / "metrics.json").read_text())
        edit(metrics)
        (work / "metrics.json").write_text(json.dumps(metrics))
        assert run("--out-dir", str(work), "report") == 1
        err = capsys.readouterr().err
        assert "metrics.json" in err and repr(key) in err
        assert not (work / "report.txt").exists()

    def test_nested_metrics_exit_1_naming_the_file(self, pipeline, tmp_path, capsys):
        # json.dumps cannot write a document this deep, so the text is written as it is
        work = copy_inputs(pipeline, tmp_path / "deep", self.INPUTS)
        (work / "metrics.json").write_text("[" * 200000 + "]" * 200000)
        assert run("--out-dir", str(work), "report") == 1
        assert "metrics.json is not valid JSON: nested too deeply" in capsys.readouterr().err

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
        ("H0000,-1.5,0.2,true,", "mae must be >= 0, got '-1.5'"),
        ("H0000,0.1,7.25,false,runway_score", "runway_score must be in [0, 1], got '7.25'"),
        ("H0001,0.3,0.4,true,", "duplicate track_id 'H0001'"),
        ("H0000,0.3,0.4,true,mae_at_or_above_threshold",
         "pred_is_helicopter is true exactly when reasons are empty, got true with reasons "
         "'mae_at_or_above_threshold'"),
        ("H0000,0.3,0.4,false,unclassifiable:no_approach",
         "an unclassifiable row has an empty mae and runway_score and false, "
         "got '0.3', '0.4' and 'false'"),
        *[(f"H0000,0.3,0.4,false,{reasons}",
           "reasons must be empty, mae_at_or_above_threshold, runway_score_at_or_above or "
           f"both joined by ';' in that order, got {reasons!r}")
          for reasons in ("bogus", "mae_at_or_above_threshold;",
                          "mae_at_or_above_threshold;mae_at_or_above_threshold",
                          "runway_score_at_or_above;mae_at_or_above_threshold")],
        *[(f"H0000,,,false,unclassifiable:{reason}",
           "an unclassifiable row's reason must be one of ['fewer_than_100_points', "
           f"'no_approach'], got {reason!r}") for reason in ("bogus", "")],
    ], ids=["short_row", "non_numeric_mae", "non_boolean_prediction", "csv_error", "nan_mae",
            "infinite_score", "negative_mae", "score_above_one", "repeated_track_id", "helicopter_with_reasons",
            "unclassifiable_with_scores", "unknown_reason", "trailing_separator", "repeated_reason",
            "reasons_out_of_order", "unknown_unclassifiable_reason", "empty_unclassifiable_reason"])
    def test_bad_row_is_a_cli_error_naming_file_and_line(self, tmp_path, row, named):
        path = tmp_path / "results.csv"
        path.write_text(",".join(cli.RESULTS_HEADER)
                        + "\nH0001,0.1,0.2,false,runway_score_at_or_above\n" + row + "\n")
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

    @staticmethod
    def with_huge_track(pipeline, work, names, track_id):
        """Copies of names, and tracks.jsonl with every altitude of track_id at 1.7e308: its
        window stays finite, and its reconstruction error overflows."""
        copy_inputs(pipeline, work, names)
        tracks = td.load_tracks(pipeline / "tracks.jsonl").tracks
        i = next(i for i, t in enumerate(tracks) if t.track_id == track_id)
        points = tracks[i].points.copy()   # a track's points are read-only
        points["alt"] = 1.7e308
        tracks[i] = dataclasses.replace(tracks[i], points=points)
        td.save_tracks(tracks, work / "tracks.jsonl")

    def test_classify_names_a_track_whose_error_overflows(self, pipeline, tmp_path, capsys):
        work = tmp_path / "classify"
        self.with_huge_track(pipeline, work, ("model.rtae", "thresholds.json", "runways.csv"),
                             "G0005")
        assert run("--out-dir", str(work), "classify") == 1
        assert "track G0005: reconstruction error is not finite" in capsys.readouterr().err
        assert not (work / "results.csv").exists()

    def test_calibrate_names_a_helicopter_whose_error_overflows(self, pipeline, tmp_path, capsys):
        work = tmp_path / "calibrate"
        self.with_huge_track(pipeline, work, ("model.rtae", "labels.csv", "runways.csv"), "H0003")
        assert run("--out-dir", str(work), "calibrate") == 1
        assert "track H0003: reconstruction error is not finite" in capsys.readouterr().err
        assert not (work / "thresholds.json").exists()


class TestStageInputsThatStopOrWarn:
    """Inputs a stage refuses with exit 1 and a named error, or logs a warning for and goes on."""

    def test_a_missing_config_file_is_named(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert run("--out-dir", str(tmp_path), "--config", str(missing), "synth") == 1
        assert f"config file not found: {missing}" in capsys.readouterr().err
        assert not (tmp_path / "tracks.jsonl").exists()

    def test_a_tracks_file_of_rejected_lines_has_no_usable_tracks(self, pipeline, tmp_path,
                                                                    capsys):
        work = copy_inputs(pipeline, tmp_path / "train", ("labels.csv", "runways.csv"))
        (work / "tracks.jsonl").write_text("{not json\n[]\n")
        assert run("--out-dir", str(work), "train") == 1
        err = capsys.readouterr().err
        assert "tracks line 2 rejected" in err
        assert f"no usable tracks in {work / 'tracks.jsonl'}" in err

    def test_labels_without_a_helicopter_leave_no_window_to_fit_stats_on(self, pipeline,
                                                                         tmp_path, capsys):
        work = copy_inputs(pipeline, tmp_path / "train", ("tracks.jsonl", "runways.csv"))
        text = (pipeline / "labels.csv").read_text()
        (work / "labels.csv").write_text(text.replace(",helicopter", ",ga"))
        assert run("--out-dir", str(work), "train") == 1
        assert "cannot fit normalization stats on zero windows" in capsys.readouterr().err
        assert not (work / "model.rtae").exists()

    def test_a_helicopter_too_short_to_window_is_skipped_with_a_warning(self, pipeline,
                                                                        tmp_path, capsys):
        work = copy_inputs(pipeline, tmp_path / "calibrate",
                           ("model.rtae", "labels.csv", "runways.csv"))
        tracks = td.load_tracks(pipeline / "tracks.jsonl").tracks
        assert tracks[0].track_id == "H0000"
        tracks[0] = dataclasses.replace(tracks[0], points=tracks[0].points[-50:])
        td.save_tracks(tracks, work / "tracks.jsonl")
        assert run("--out-dir", str(work), "calibrate") == 0
        assert ("WARNING calibration track H0000 skipped: track H0000: only"
                in capsys.readouterr().err)

    def test_a_helicopter_label_naming_no_track_is_a_warning(self, pipeline, tmp_path, capsys):
        work = copy_inputs(pipeline, tmp_path / "train",
                           ("cfg.json", "tracks.jsonl", "labels.csv", "runways.csv"))
        with open(work / "labels.csv", "a") as fh:
            fh.write("NOPE,helicopter\n")
        for command, stage, name in (("train", "training", "model.rtae"),
                                     ("calibrate", "calibration", "thresholds.json")):
            assert run("--out-dir", str(work), "--config", str(work / "cfg.json"), command) == 0
            assert (f"WARNING {stage}: 1 helicopter labels name no loaded track, the first "
                    "'NOPE'" in capsys.readouterr().err)
            assert (work / name).read_bytes() == (pipeline / name).read_bytes()

    def test_a_duplicate_registration_row_is_a_warning(self, pipeline, tmp_path, capsys):
        names = ("tracks.jsonl", "results.csv", "registration.csv", "heli_types.txt")
        work = copy_inputs(pipeline, tmp_path / "validate", names)
        rows = (pipeline / "registration.csv").read_text().splitlines(keepends=True)
        (work / "registration.csv").write_text("".join(rows + rows[1:2]))
        assert run("--out-dir", str(work), "validate") == 0
        n_number = rows[1].split(",")[0]
        assert (f"WARNING registration: line {len(rows) + 1}: duplicate n_number {n_number}"
                in capsys.readouterr().err)


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
        paths = cli._paths(cli.DEFAULT_CONFIG, str(tmp_path))
        assert paths.tracks == tmp_path / "tracks.jsonl"
        assert paths.model == tmp_path / "model.rtae"
        assert paths.out_dir == tmp_path
        # an absolute input path moves that input alone; the outputs stay under out_dir
        elsewhere = tmp_path / "study" / "tracks.jsonl"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"paths": {"tracks": str(elsewhere)}}))
        moved = cli._paths(cli.load_config(str(path)), str(tmp_path / "out"))
        assert moved.tracks == elsewhere
        assert moved.labels == tmp_path / "out" / "labels.csv"
        assert moved.model == tmp_path / "out" / "model.rtae"

    def test_an_unknown_path_name_is_an_attribute_error(self, tmp_path):
        paths = cli._paths(cli.DEFAULT_CONFIG, str(tmp_path))
        with pytest.raises(AttributeError, match="no_such_file"):
            paths.no_such_file
        assert getattr(paths, "no_such_file", None) is None

    def test_missing_input_has_a_named_error(self, tmp_path):
        paths = cli._paths(cli.DEFAULT_CONFIG, str(tmp_path))
        with pytest.raises(cli.CliError, match="tracks.jsonl"):
            cli._input(paths.tracks)


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


class TestCallerConfigs:
    def test_every_config_a_caller_writes_loads(self, tmp_path):
        # the recorders' scenarios, and the JSON objects the CI workflow and the
        # README echo into config files
        configs = [(f"bench_record {name}", config)
                   for scenarios in (bench.SCENARIOS, bench.QUICK_SCENARIOS)
                   for name, (config, _) in scenarios.items()]
        configs += [(f"quality_record {name} {seed}", quality.seeded(config, seed_keys, seed))
                    for name, (config, seed_keys) in quality.GRID.items()
                    for seed in quality.SEEDS]
        for doc, count in ((".github/workflows/tier1.yml", 1), ("README.md", 2)):
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

    def test_the_recorder_digests_only_files_the_pipeline_writes(self):
        # a renamed artifact must not drop out of the byte comparisons unnoticed
        files = {*cli.DEFAULT_CONFIG["paths"].values(), *cli.OUTPUTS.values()}
        assert set(bench.BYTE_COMPARED) <= files, set(bench.BYTE_COMPARED) - files


class TestOtherJsonForms:
    def test_tracks_in_other_json_forms_give_the_same_results(self, pipeline, tmp_path):
        # A track file with json.dumps' default separators must classify and validate
        # exactly as the compact one track_to_json writes.  So must numbers of 6
        # decimals, as perfbench's generator writes lat and lon, in either form.
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


# What the default six stages write under OPENBLAS_CORETYPE=Haswell, one of
# OpenBLAS's two AVX2 kernels, on one thread.  OpenBLAS picks its GEMM kernel
# by CPU, and the AVX-512 kernels write other model bytes (BENCH_49.json,
# cli.default), as do older kernels; each kernel repeats its own.
HASWELL_DIGESTS = {
    "tracks.jsonl": "62ea57f6807fffd3c0809ff492c38c9adae9a3cfe076d92b14fd3cea97073ff8",
    "model.rtae": "34ca12449c0f88dc1764780bd982d23e2e5bce07f9be5ab4b5f81a2350820fdf",
    "thresholds.json": "30847e88c55c9fd25fab397c4710d8e8cd90cb823b3ad81e9da4bb0177d629d8",
    "results.csv": "7ed23c6ad15bf6ed4a66593d4e5729106de456b486db40b3f020e8d733ea5649",
    "validation.csv": "e8eebd416a5182939fcd6ffe1d00282b0507d0863b009e72bff6b6e37c5d42e3",
    "metrics.json": "2a5557e9b9a362ed62b4aed93b22c60abc092ce67928379af85d10e9e4acb6c4",
    "report.txt": "59d9c761a163f7b3d4672d2e792fa330e4a569d12647e3bf07d11c0a1958b10b",
}


def no_haswell_kernel():
    """Why this host cannot run OpenBLAS's Haswell kernel, or None if it can."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"OpenBLAS's Haswell kernel is x86-64 code; this host is {platform.machine()}"
    core = getattr(np, "_core", None) or np.core   # np.core before numpy 2
    if not core._multiarray_umath.__cpu_features__.get("AVX2"):
        return "numpy reports no AVX2, which OpenBLAS's Haswell kernel needs"
    return None


class TestEntryModule:
    def test_the_haswell_kernel_writes_its_recorded_bytes(self, tmp_path):
        if reason := no_haswell_kernel():
            pytest.skip(reason)
        env = without_thread_counts(OPENBLAS_NUM_THREADS="1", OPENBLAS_CORETYPE="Haswell")
        for stage in bench.STAGES:
            subprocess.run([sys.executable, "-m", "rotortrack", "--out-dir", str(tmp_path), stage],
                           env=env, check=True, capture_output=True)
        assert set(HASWELL_DIGESTS) == set(bench.BYTE_COMPARED)
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in HASWELL_DIGESTS} == HASWELL_DIGESTS

    def test_unset_thread_count_writes_the_bytes_one_thread_does(self, tmp_path):
        # The default scenario's last training batch of each epoch holds 16 windows,
        # whose weight-gradient GEMM sums in another order on more than one BLAS thread;
        # a batched inference would do the same in the later stages.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"training": {"epochs": 2}}))
        for name, env in (("unset", without_thread_counts()),
                          ("one", without_thread_counts(OPENBLAS_NUM_THREADS="1"))):
            for stage in ("synth", "train", "calibrate", "classify", "validate", "report"):
                subprocess.run([sys.executable, "-m", "rotortrack", "--config", str(cfg),
                                "--out-dir", str(tmp_path / name), stage],
                               env=env, check=True, capture_output=True)
        for name in bench.BYTE_COMPARED:
            assert (tmp_path / "unset" / name).read_bytes() == (
                tmp_path / "one" / name).read_bytes(), name

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
