"""Command-line pipeline: synth, train, calibrate, classify, validate, report.

Each stage reads files, calls the library's stage functions and writes files,
so any stage can be rerun in isolation.  Every artifact is written to a
temporary name and renamed into place once complete, and all outputs are
byte-for-byte deterministic for a fixed config and BLAS thread count;
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
from . import synthgen as sg
from . import trackdata as td
from . import validate as vl

log = logging.getLogger("rotortrack")

# The files a study brings, the one config section the library does not own.
DEFAULT_CONFIG: dict = {"paths": {
    "tracks": "tracks.jsonl", "labels": "labels.csv", "runways": "runways.csv",
    "registration": "registration.csv", "heli_types": "heli_types.txt",
}}

# The pipeline's own artifacts, at fixed names under --out-dir.
OUTPUTS = {
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
}

# Config sections that build a library object, and the fields a config may set;
# every other field keeps its library default.
_BUILT = {
    "synth": (sg.ScenarioSpec, ("seed", "helicopters", "ga", "commercial")),
    "autoencoder": (ae.AutoencoderSpec, ("seed",)),
    "training": (ae.TrainConfig, ("epochs", "seed")),
}

_KINDS = {int: "an integer", str: "a string", dict: "an object"}


class CliError(Exception):
    """A user-facing pipeline failure; the message names the offending file or config key."""


def _checked(value, default, name: str):
    """A JSON value as the kind of default, or a CliError naming it.

    An object may set any subset of its default's keys, and no other.
    """
    if isinstance(default, dict) and isinstance(value, dict):
        unknown = sorted(value.keys() - default.keys())
        if unknown:
            raise CliError(f"{name}.{unknown[0]} is not a settable key")
        return {key: _checked(value[key], d, f"{name}.{key}") if key in value else d
                for key, d in default.items()}
    if type(value) is type(default):
        return value
    raise CliError(f"{name} must be {_KINDS[type(default)]}, got {json.dumps(value)}")


def load_config(path: Optional[str]) -> dict:
    """The checked config: paths as plain values, every other section built.

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
    for section, (cls, settable) in _BUILT.items():
        defaults[section] = {f.name: f.default for f in dataclasses.fields(cls)
                             if f.name in settable}
    cfg = _checked(doc, defaults, "config")
    for section, (cls, _) in _BUILT.items():
        try:
            cfg[section] = cls(**cfg[section])
        except (ValueError, ae.SpecError) as e:
            raise CliError(f"config.{section}: {e}") from None
    return cfg


class Paths:
    """The config's input paths and the fixed output names, resolved against the output directory."""

    def __init__(self, cfg: dict, out_dir: str):
        self.out_dir = Path(out_dir)
        self._files = {**cfg["paths"], **OUTPUTS}

    def __getattr__(self, name: str) -> Path:
        try:
            return self.out_dir / self._files[name]   # an absolute input path replaces out_dir
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
    try:
        write_fn(tmp)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
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
    # Python 3.10's csv.writer cannot write NUL, so no Python may.  csv.writer
    # quotes a field holding a character of its lineterminator and makes one
    # write per row, so rows written with "\r\n" quote a lone \r as well, and
    # can then end in "\n" alone.
    cells = [[_cell(v) for v in row] for row in rows]
    if any(isinstance(c, str) and "\0" in c for row in cells for c in row):
        raise CliError(f"{path}: a cell holds NUL, which Python 3.10's csv module cannot write")
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n").writerows(cells)
    text = "".join(line[:-2] + "\n" for line in lines)
    _atomic_write(path, lambda tmp: tmp.write_text(text, encoding="utf-8", newline=""))


def _write_records(path: Path, fields: Sequence[str], records) -> None:
    """A CSV of a header of field names and one row of those attributes per record."""
    _write_csv(path, [list(fields)] + [[getattr(r, f) for f in fields] for r in records])


# --------------------------------------------------------------------------
# shared stage helpers

def _load_tracks(paths: Paths) -> list[td.Track]:
    result = td.load_tracks(paths.input("tracks"))
    for line_no, reason in result.rejects:
        log.warning("tracks line %d rejected: %s", line_no, reason)
    if not result.tracks:
        raise CliError(f"no usable tracks in {paths.tracks}")
    return result.tracks


def _per_helicopter(paths: Paths, stage: str,
                    fn: Callable[[td.Track, td.Runway], object]) -> dict[str, object]:
    """td.per_helicopter over the input files, each skipped track logged naming the stage."""
    out, skipped = td.per_helicopter(_load_tracks(paths),
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
    unknown = [key for key in doc if key not in keys]
    if unknown:   # a misspelt or retired gate would otherwise be silently ignored
        raise CliError(f"{path} holds unknown keys {unknown}; it names exactly {list(keys)}")
    try:
        return idf.Thresholds(**{key: doc[key] for key in keys})
    except ValueError as e:
        raise CliError(f"{path}: {e}") from None


# --------------------------------------------------------------------------
# subcommands

def cmd_synth(cfg: dict, paths: Paths) -> None:
    """generate a synthetic labeled scenario"""
    scenario = sg.generate(cfg["synth"])
    log.info("generated %d tracks (seed %d)", len(scenario.tracks), cfg["synth"].seed)
    _atomic_write(paths.tracks, lambda tmp: td.save_tracks(scenario.tracks, tmp))
    _write_csv(paths.labels, [td.LABEL_FIELDS, *scenario.labels])
    _write_records(paths.runways, td.RUNWAY_FIELDS, [scenario.runway])
    _write_records(paths.registration, td.REGISTRATION_FIELDS, scenario.registration)
    _write_text(paths.heli_types, "# helicopter type designators\n"
                + "".join(d + "\n" for d in sorted(scenario.heli_types)))


def cmd_train(cfg: dict, paths: Paths) -> None:
    """train the autoencoder on labeled helicopter windows"""
    raw = _per_helicopter(paths, "training", td.arrival_features)
    log.info("training on %d helicopter windows", len(raw))
    stats = td.fit_norm_stats(list(raw.values()))
    windows = [td.normalize(r, stats, i, td.CLASS_HELICOPTER) for i, r in raw.items()]

    model = ae.build(cfg["autoencoder"])
    history = ae.train(model, windows, cfg["training"])
    model.norm_stats = stats
    best = min(history, key=lambda h: h.val_mae)   # the first best epoch: the weights kept
    log.info("trained %d epochs, early stop %s; kept epoch %d, val MAE %.6f", len(history),
             "fired" if len(history) < cfg["training"].epochs else "not fired",
             best.epoch, best.val_mae)

    _atomic_write(paths.model, lambda tmp: ae.save(model, tmp))
    _write_csv(paths.loss_history,
               [["epoch", "train_mae", "val_mae"]] + [dataclasses.astuple(h) for h in history])


def cmd_calibrate(cfg: dict, paths: Paths) -> None:
    """set the MAE threshold from training errors"""
    model = ae.load(paths.input("model"))
    maes = list(_per_helicopter(paths, "calibration", lambda track, runway:
                                idf.window_mae(model, track, runway)).values())
    thresholds = idf.Thresholds(idf.calibrate(maes))
    log.info("calibrated MAE threshold %.6g at percentile %s over %d windows",
             thresholds.mae_threshold, thresholds.percentile, len(maes))
    _write_text(paths.thresholds, json.dumps(dataclasses.asdict(thresholds), indent=2) + "\n")
    bins = idf.histogram_report(maes)
    _write_csv(paths.histogram,
               [["bin_lo", "bin_hi", "count"]] + [dataclasses.astuple(b) for b in bins])


RESULTS_HEADER = ("track_id", "mae", "runway_score", "pred_is_helicopter", "reasons")
VALIDATION_FIELDS = tuple(f.name for f in dataclasses.fields(vl.ValidationRecord))
PSEUDO_TYPE_FIELDS = ("track_id", "declared_type", "model", "manufacturer", "type_designator")


def _result_row(outcome) -> list:
    """The results.csv row of one classify_tracks outcome."""
    if not isinstance(outcome, idf.ClassificationResult):
        return [outcome.track_id, None, None, False, f"unclassifiable:{outcome.reason}"]
    return [outcome.track_id, outcome.mae, outcome.runway_score, outcome.pred_is_helicopter,
            ";".join(outcome.reasons)]


def cmd_classify(cfg: dict, paths: Paths) -> None:
    """classify every track in the tracks file"""
    model = ae.load(paths.input("model"))
    thresholds = _read_thresholds(paths)
    tracks = _load_tracks(paths)
    runways = td.load_runways(paths.input("runways"))
    outcomes = idf.classify_tracks(model, thresholds, tracks, runways)
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
    number or a repeated track_id is a td.MalformedRecord naming the file and the line.
    """
    results: list[idf.ClassificationResult] = []
    unclassifiable: dict[str, str] = {}
    seen: set[str] = set()
    for line_no, row in td.csv_rows(path, RESULTS_HEADER, "results"):
        track_id, mae, score, pred, reasons = row.values()
        try:
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
        except ValueError as e:
            raise td.MalformedRecord(path, line_no, str(e)) from None
    return results, unclassifiable


def cmd_validate(cfg: dict, paths: Paths) -> None:
    """check predictions against the registration table"""
    results, unclassifiable = read_results(paths.input("results"))
    tracks = _load_tracks(paths)
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


def cmd_report(cfg: dict, paths: Paths) -> None:
    """write a consolidated text report"""
    thresholds = _read_thresholds(paths)
    counts = ("tp", "fp", "fn", "tn", "unmatched", "unclassifiable")
    metrics = _read_json_object(paths.input("metrics"), counts + ("precision", "recall"),
                                nullable=("precision", "recall"))
    venn_txt = "".join(td.utf8_lines(paths.input("venn_txt")))

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

# A stage's name is its function's without "cmd_", and its help text is its docstring.
_COMMANDS = {stage.__name__[4:]: stage for stage in (cmd_synth, cmd_train, cmd_calibrate,
                                                     cmd_classify, cmd_validate, cmd_report)}


def _build_parser() -> argparse.ArgumentParser:
    """Options that say where to read and write; every run value comes from the config."""
    parser = argparse.ArgumentParser(
        prog="rotortrack",
        description="Identify helicopter arrival tracks with a convolutional autoencoder.")
    parser.add_argument("--config", help="JSON config file; defaults are used when omitted")
    parser.add_argument("--out-dir", default=".", help="directory for artifacts (default: .)")
    parser.add_argument("--log-file", help="append timestamped logs to this file")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, stage in _COMMANDS.items():
        sub.add_parser(name, help=stage.__doc__)
    return parser


@contextlib.contextmanager
def _attached(handler: logging.Handler, fmt: str):
    """Attach handler to the rotortrack logger until the block ends; then detach and close it."""
    handler.setFormatter(logging.Formatter(fmt))
    log.addHandler(handler)
    try:
        yield
    finally:
        log.removeHandler(handler)
        handler.close()


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    log.setLevel(logging.INFO)
    with contextlib.ExitStack() as handlers:
        handlers.enter_context(_attached(logging.StreamHandler(sys.stderr),
                                         "%(levelname)s %(message)s"))
        try:
            if args.log_file:   # a path that cannot be opened is an OSError like any other
                handlers.enter_context(_attached(logging.FileHandler(args.log_file),
                                                 "%(asctime)s %(levelname)s %(message)s"))
            cfg = load_config(args.config)
            paths = Paths(cfg, args.out_dir)
            paths.out_dir.mkdir(parents=True, exist_ok=True)
            _COMMANDS[args.command](cfg, paths)
        except (CliError, td.TrackDataError, ae.AutoencoderError, idf.IdentifyError,
                vl.ValidationError, OSError, ValueError, csv.Error) as e:
            log.error("%s", e)
            return 1
        except MemoryError as e:   # an input too large for the memory at hand
            log.error("out of memory: %s", e)
            return 1
    return 0


if __name__ == "__main__":   # numpy is loaded by now, too late for __main__'s one-thread default
    sys.exit("rotortrack: run the stages with `python -m rotortrack` or `rotortrack`, "
             "not `python -m rotortrack.cli`")
