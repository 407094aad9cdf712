"""Command-line pipeline: synth, train, calibrate, classify, validate, report.

Each stage reads files, calls the library's stage functions and writes files,
so any stage can be rerun in isolation.  Every artifact is written to a
temporary name and renamed into place once complete, and all outputs are
byte-for-byte deterministic for a fixed config, seed and BLAS thread count;
wall-clock timestamps appear only in the optional log file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import logging
import math
import sys
from enum import Enum
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

from . import autoencoder as ae
from . import identify as idf
from . import runwayscore as rs
from . import synthgen as sg
from . import trackdata as td
from . import validate as vl

log = logging.getLogger("rotortrack")

# Defaults of the config keys the library does not own.
DEFAULT_CONFIG: dict = {
    "paths": {
        "out_dir": ".",
        "tracks": "tracks.jsonl",
        "labels": "labels.csv",
        "runways": "runways.csv",
        "registration": "registration.csv",
        "heli_types": "heli_types.txt",
        "model": "model.rtae",
        "loss_history": "loss_history.csv",
        "thresholds": "thresholds.json",
        "histogram": "mae_histogram.csv",
        "results": "results.csv",
        "validation": "validation.csv",
        "venn_csv": "venn_summary.csv",
        "venn_txt": "venn_summary.txt",
        "pseudo_types": "pseudo_types.csv",
        "metrics": "metrics.json",
        "report": "report.txt",
    },
    "synth": {"seed": 7, "helicopters": 100, "ga": 100, "commercial": 100},
    "histogram_bins": 30,
}

# Config sections that build a library object, whose field defaults are the
# section's defaults, and the fields a config may not set: trackdata fixes the
# window shape, and calibrate derives the MAE gate.
_BUILT = {
    "autoencoder": (ae.AutoencoderSpec, ("input_len", "n_features")),
    "training": (ae.TrainConfig, ()),
    "runway_score": (rs.ScoreParams, ()),
    "thresholds": (idf.Thresholds, ("mae_threshold",)),
}

_KINDS = {int: "an integer", float: "a finite number", str: "a string", tuple: "a list",
          dict: "an object"}


class CliError(Exception):
    """A user-facing pipeline failure; the message names the offending file or config key."""


def _checked(value, default, name: str):
    """A JSON value as the kind of default, or a CliError naming it.

    An object may set any subset of its default's keys, and no other.  A float
    default takes any finite number, integers included, and a tuple default
    takes a list whose items each have the kind of the default's first item.
    """
    if isinstance(default, dict) and isinstance(value, dict):
        unknown = sorted(value.keys() - default.keys())
        if unknown:
            raise CliError(f"{name}.{unknown[0]} is not a settable key")
        return {key: _checked(value[key], d, f"{name}.{key}") if key in value else d
                for key, d in default.items()}
    if isinstance(default, tuple) and isinstance(value, list):
        return tuple(_checked(v, default[0], f"{name}[{i}]") for i, v in enumerate(value))
    if type(default) is float and type(value) in (int, float):
        if abs(value) <= sys.float_info.max:
            return float(value)
    elif type(value) is type(default):
        return value
    raise CliError(f"{name} must be {_KINDS[type(default)]}, got {json.dumps(value)}")


def load_config(path: Optional[str]) -> dict:
    """The checked config: paths, synth and histogram_bins as plain values, the rest built.

    A config file sets any subset of the keys.  An unknown key, a value of the
    wrong JSON kind or one the library rejects is a CliError naming the key.
    """
    doc: dict = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise CliError(f"config file not found: {p}")
        doc = _read_json_object(p)
    defaults = dict(DEFAULT_CONFIG)
    for section, (cls, fixed) in _BUILT.items():
        defaults[section] = {f.name: f.default for f in dataclasses.fields(cls)
                             if f.name not in fixed}
    cfg = _checked(doc, defaults, "config")
    for section, (cls, _) in _BUILT.items():
        try:
            cfg[section] = cls(**cfg[section])
        except (ValueError, ae.SpecError) as e:
            raise CliError(f"config.{section}: {e}") from None
    return cfg


class Paths:
    """Config paths resolved against the output directory."""

    def __init__(self, cfg: dict, out_dir_flag: Optional[str]):
        self.out_dir = Path(out_dir_flag or cfg["paths"]["out_dir"])
        self._cfg = cfg["paths"]

    def __getattr__(self, name: str) -> Path:
        try:
            return self.out_dir / self._cfg[name]   # an absolute path replaces out_dir
        except KeyError:
            raise AttributeError(name) from None

    def input(self, name: str) -> Path:
        p = getattr(self, name)
        if not p.is_file():
            raise CliError(f"required input file not found: {p}")
        return p


def _atomic_write(path: Path, write_fn: Callable[[Path], None]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    write_fn(tmp)
    tmp.replace(path)
    log.info("wrote %s", path)


def _write_text(path: Path, text: str) -> None:
    _atomic_write(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))


def _cell(value):
    """A value as every CSV artifact spells it: None empty, booleans lower case, floats by repr."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(float(value))
    return value.value if isinstance(value, Enum) else value


def _write_csv(path: Path, rows: list[list]) -> None:
    # csv.writer quotes a field holding a character of its lineterminator and
    # makes one write per row, so rows written with "\r\n" quote a lone \r
    # as well, and can then end in "\n" alone.
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append),
               lineterminator="\r\n").writerows([_cell(v) for v in row] for row in rows)
    text = "".join(line[:-2] + "\n" for line in lines)
    _atomic_write(path, lambda tmp: tmp.write_text(text, encoding="utf-8", newline=""))


def _write_records(path: Path, fields: Sequence[str], records) -> None:
    """A CSV of a header of field names and one row of those attributes per record."""
    _write_csv(path, [list(fields)] + [[getattr(r, f) for f in fields] for r in records])


# --------------------------------------------------------------------------
# shared stage helpers

def _load_tracks(paths: Paths, strict: bool) -> list[td.Track]:
    result = td.load_tracks(paths.input("tracks"), strict=strict)
    for line_no, reason in result.rejects:
        log.warning("tracks line %d rejected: %s", line_no, reason)
    if not result.tracks:
        raise CliError(f"no usable tracks in {paths.tracks}")
    return result.tracks


def _per_helicopter(paths: Paths, strict: bool, stage: str,
                    fn: Callable[[td.Track, td.Runway], object]) -> dict[str, object]:
    """td.per_helicopter over the input files, each skipped track logged naming the stage."""
    out, skipped = td.per_helicopter(_load_tracks(paths, strict),
                                     td.load_labels(paths.input("labels")),
                                     td.load_runways(paths.input("runways")), fn)
    for track_id, e in skipped:
        log.warning("%s track %s skipped: %s", stage, track_id, e)
    return out


def _read_json_object(path: Path, numbers: tuple[str, ...] = (),
                      nullable: tuple[str, ...] = ()) -> dict:
    """The JSON object in path; each key in numbers must hold a number (or null if nullable).

    Any defect, from bad JSON to a missing, non-numeric or out-of-range key,
    is a CliError naming the file.
    """
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as e:
        raise CliError(f"{path} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise CliError(f"{path} must hold a JSON object, not {type(doc).__name__}")
    for key in numbers:
        if key not in doc:
            raise CliError(f"{path} lacks the key {key!r}")
        value = doc[key]
        is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (is_number or value is None and key in nullable):
            raise CliError(f"{path}: {key!r} must be a number, got {value!r}")
        if is_number and not abs(value) <= sys.float_info.max:
            raise CliError(f"{path}: {key!r} must be a finite number a float can hold")
    return doc


def _read_thresholds(paths: Paths) -> idf.Thresholds:
    path = paths.input("thresholds")
    keys = ("mae_threshold", "percentile", "runway_score_threshold")
    doc = _read_json_object(path, keys)
    try:
        return idf.Thresholds(**{key: doc[key] for key in keys})
    except ValueError as e:
        raise CliError(f"{path}: {e}") from None


# --------------------------------------------------------------------------
# subcommands

def cmd_synth(args, cfg: dict, paths: Paths) -> None:
    synth = {key: value if getattr(args, key) is None else getattr(args, key)
             for key, value in cfg["synth"].items()}
    scenario = sg.generate(sg.ScenarioSpec(synth["seed"], synth["helicopters"], synth["ga"],
                                           synth["commercial"]))
    log.info("generated %d tracks (seed %d)", len(scenario.tracks), synth["seed"])
    _atomic_write(paths.tracks, lambda tmp: td.save_tracks(scenario.tracks, tmp))
    _write_csv(paths.labels, [td.LABEL_FIELDS, *scenario.labels])
    _write_records(paths.runways, td.RUNWAY_FIELDS, [scenario.runway])
    _write_records(paths.registration, td.REGISTRATION_FIELDS, scenario.registration)
    _write_text(paths.heli_types, "# helicopter type designators\n"
                + "".join(d + "\n" for d in sorted(scenario.heli_types)))


def cmd_train(args, cfg: dict, paths: Paths) -> None:
    raw = _per_helicopter(paths, args.strict, "training", td.arrival_features)
    log.info("training on %d helicopter windows", len(raw))
    stats = td.fit_norm_stats(list(raw.values()))
    windows = [td.normalize(r, stats, i, td.CLASS_HELICOPTER) for i, r in raw.items()]

    model = ae.build(cfg["autoencoder"])
    history = ae.train(model, windows, cfg["training"])
    model.norm_stats = stats
    log.info("trained %d epochs, final val MAE %.6f", len(history), history[-1].val_mae)

    _atomic_write(paths.model, lambda tmp: ae.save(model, tmp))
    _write_csv(paths.loss_history,
               [["epoch", "train_mae", "val_mae"]] + [dataclasses.astuple(h) for h in history])


def cmd_calibrate(args, cfg: dict, paths: Paths) -> None:
    model = ae.load(paths.input("model"))
    maes = list(_per_helicopter(paths, args.strict, "calibration", lambda track, runway:
                                idf.window_mae(model, track, runway)).values())
    percentile = args.percentile if args.percentile is not None else cfg["thresholds"].percentile
    delta = idf.calibrate(maes, percentile)
    log.info("calibrated MAE threshold %.6g at percentile %s over %d windows",
             delta, percentile, len(maes))
    thresholds = dataclasses.replace(cfg["thresholds"], mae_threshold=delta, percentile=percentile)
    _write_text(paths.thresholds, json.dumps(dataclasses.asdict(thresholds), indent=2) + "\n")
    bins = idf.histogram_report(maes, cfg["histogram_bins"])
    _write_csv(paths.histogram,
               [["bin_lo", "bin_hi", "count"]] + [dataclasses.astuple(b) for b in bins])


RESULTS_HEADER = ["track_id", "mae", "runway_score", "pred_is_helicopter", "reasons"]
VALIDATION_FIELDS = tuple(f.name for f in dataclasses.fields(vl.ValidationRecord))
PSEUDO_TYPE_FIELDS = ("track_id", "declared_type", "model", "manufacturer", "type_designator")


def _result_row(outcome) -> list:
    """The results.csv row of one classify_tracks outcome."""
    if not isinstance(outcome, idf.ClassificationResult):
        return [outcome.track_id, None, None, False, f"unclassifiable:{outcome.reason}"]
    return [outcome.track_id, outcome.mae, outcome.runway_score, outcome.pred_is_helicopter,
            ";".join(outcome.reasons)]


def cmd_classify(args, cfg: dict, paths: Paths) -> None:
    model = ae.load(paths.input("model"))
    thresholds = _read_thresholds(paths)
    tracks = _load_tracks(paths, args.strict)
    runways = td.load_runways(paths.input("runways"))
    outcomes = idf.classify_tracks(model, thresholds, tracks, runways, cfg["runway_score"])
    results = [o for o in outcomes if isinstance(o, idf.ClassificationResult)]
    log.info("classified %d tracks: %d helicopters, %d unclassifiable",
             len(tracks), sum(r.pred_is_helicopter for r in results), len(tracks) - len(results))
    _write_csv(paths.results, [RESULTS_HEADER] + [_result_row(o) for o in outcomes])


def _finite(name: str, text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {text!r}")
    return value


def read_results(path) -> tuple[list[idf.ClassificationResult], dict[str, str]]:
    """Parse results.csv back into results plus {track_id: reason} of the unclassifiable rows.

    A row of the wrong length, with a value of the wrong kind, a non-finite
    number or a repeated track_id is a CliError naming the file and the line.
    """
    results: list[idf.ClassificationResult] = []
    unclassifiable: dict[str, str] = {}
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != RESULTS_HEADER:
                raise CliError(f"results file {path} must have header {','.join(RESULTS_HEADER)}")
            for row in filter(None, reader):   # skips blank lines
                if len(row) != len(RESULTS_HEADER):
                    raise ValueError(f"expected {len(RESULTS_HEADER)} fields, got {len(row)}")
                track_id, mae, score, pred, reasons = row
                if track_id in seen:
                    raise ValueError(f"duplicate track_id {track_id!r}")
                seen.add(track_id)
                if reasons.startswith("unclassifiable:"):
                    unclassifiable[track_id] = reasons.split(":", 1)[1]
                elif pred not in ("true", "false"):
                    raise ValueError(f"pred_is_helicopter must be true or false, got {pred!r}")
                else:
                    results.append(idf.ClassificationResult(
                        track_id, _finite("mae", mae), _finite("runway_score", score),
                        pred == "true", tuple(r for r in reasons.split(";") if r)))
        except (csv.Error, ValueError) as e:
            raise CliError(f"{path} line {reader.line_num}: {e}") from None
    return results, unclassifiable


def cmd_validate(args, cfg: dict, paths: Paths) -> None:
    results, unclassifiable = read_results(paths.input("results"))
    tracks = _load_tracks(paths, args.strict)
    table = td.load_registration(paths.input("registration"))
    for msg in table.duplicates:
        log.warning("registration: %s", msg)
    heli_types = vl.load_heli_types(paths.input("heli_types"))
    records, metrics, venn, pseudo_types = vl.validate_predictions(
        results, unclassifiable, {t.track_id: t for t in tracks}, table, heli_types)

    # validation.csv: a column per ValidationRecord field; venn_summary.csv: per VennCounts field
    _write_records(paths.validation, VALIDATION_FIELDS, records)
    _write_csv(paths.venn_csv, [list(dataclasses.asdict(venn)), dataclasses.astuple(venn)])
    venn_txt = (
        "predicted-helicopter set overlap\n"
        f"  autoencoder only : {venn.autoencoder_only}\n"
        f"  both methods     : {venn.both}\n"
        f"  baseline only    : {venn.baseline_only}\n"
        f"  autoencoder total: {venn.autoencoder_only + venn.both}\n"
        f"  baseline total   : {venn.baseline_only + venn.both}\n"
    )
    _write_text(paths.venn_txt, venn_txt)

    _write_records(paths.pseudo_types, PSEUDO_TYPE_FIELDS, pseudo_types)

    payload = {
        "tp": metrics.tp, "fp": metrics.fp, "fn": metrics.fn, "tn": metrics.tn,
        "unmatched": metrics.unmatched,
        "unclassifiable": len(unclassifiable),
        "precision": metrics.precision,
        "recall": metrics.recall,
        "venn": dataclasses.asdict(venn),
    }
    _write_text(paths.metrics, json.dumps(payload, indent=2) + "\n")
    log.info("validation: tp=%d fp=%d fn=%d tn=%d unmatched=%d",
             metrics.tp, metrics.fp, metrics.fn, metrics.tn, metrics.unmatched)


def cmd_report(args, cfg: dict, paths: Paths) -> None:
    thresholds = _read_thresholds(paths)
    counts = ("tp", "fp", "fn", "tn", "unmatched", "unclassifiable")
    metrics = _read_json_object(paths.input("metrics"), counts + ("precision", "recall"),
                                nullable=("precision", "recall"))
    venn_txt = paths.input("venn_txt").read_text(encoding="utf-8")

    def ratio(value) -> str:
        return "n/a" if value is None else f"{value:.4f}"

    text = (
        "helicopter identification report\n"
        "================================\n\n"
        "thresholds\n"
        f"  reconstruction MAE gate : {thresholds.mae_threshold!r}"
        f" (percentile {thresholds.percentile:g})\n"
        f"  runway score gate       : {thresholds.runway_score_threshold!r}\n\n"
        "registration check (matched tracks)\n"
        f"  tp={metrics['tp']} fp={metrics['fp']} fn={metrics['fn']} tn={metrics['tn']}"
        f" unmatched={metrics['unmatched']} unclassifiable={metrics['unclassifiable']}\n"
        f"  precision: {ratio(metrics['precision'])}\n"
        f"  recall   : {ratio(metrics['recall'])}\n\n"
        + venn_txt
    )
    _write_text(paths.report, text)


# --------------------------------------------------------------------------
# argument parsing and entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotortrack",
        description="Identify helicopter arrival tracks with a convolutional autoencoder.")
    parser.add_argument("--config", help="JSON config file; defaults are used when omitted")
    parser.add_argument("--seed", type=int, help="override the scenario seed (synth)")
    parser.add_argument("--strict", action="store_true",
                        help="abort on the first malformed track line instead of skipping")
    parser.add_argument("--out-dir", help="directory for artifacts (default from config)")
    parser.add_argument("--log-file", help="append timestamped logs to this file")

    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("synth", help="generate a synthetic labeled scenario")
    p.add_argument("--helicopters", type=int)
    p.add_argument("--ga", type=int)
    p.add_argument("--commercial", type=int)
    sub.add_parser("train", help="train the autoencoder on labeled helicopter windows")
    p = sub.add_parser("calibrate", help="set the MAE threshold from training errors")
    p.add_argument("--percentile", type=float)
    sub.add_parser("classify", help="classify every track in the tracks file")
    sub.add_parser("validate", help="check predictions against the registration table")
    sub.add_parser("report", help="write a consolidated text report")
    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "calibrate": cmd_calibrate,
    "classify": cmd_classify,
    "validate": cmd_validate,
    "report": cmd_report,
}


@contextlib.contextmanager
def _logging_to(log_file: Optional[str]):
    """Log to stderr, and to log_file when given, until the block ends; then detach and close."""
    handlers = [logging.StreamHandler(sys.stderr)]
    handlers[0].setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    if log_file:
        handlers.append(logging.FileHandler(log_file))
        handlers[1].setFormatter(logging.Formatter("%(asctime)s %(levelname)s %(message)s"))
    log.setLevel(logging.INFO)
    for handler in handlers:
        log.addHandler(handler)
    try:
        yield
    finally:
        for handler in handlers:
            log.removeHandler(handler)
            handler.close()


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    with _logging_to(args.log_file):
        try:
            cfg = load_config(args.config)
            paths = Paths(cfg, args.out_dir)
            paths.out_dir.mkdir(parents=True, exist_ok=True)
            _COMMANDS[args.command](args, cfg, paths)
        except (CliError, td.TrackDataError, ae.AutoencoderError, idf.IdentifyError,
                sg.ScenarioError, vl.ValidationError, OSError, ValueError, csv.Error) as e:
            log.error("%s", e)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
