"""The pipeline's stages, driven from outside the program, and the child
processes of the benchmark that run them.

Each stage reads its inputs the way the matching command-line stage does:
tracks through ``trackdata.load_tracks``, runways and registration through
their loaders, and the model through ``autoencoder.load`` after
``autoencoder.save``.  Thresholds pass through ``thresholds.json``; results
pass to validation in memory.  Nothing here imports the program's ``cli`` or
``synthgen`` modules.

    python3 perfbench/pipeline.py setup <job.json>   # generate inputs (and train)
    python3 perfbench/pipeline.py timed <job.json>   # repeat the timed stages

Each child writes its report to the path named in the job file.
"""

from __future__ import annotations

import csv
import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

from rotortrack import autoencoder as ae
from rotortrack import identify as idf
from rotortrack import runwayscore as rs
from rotortrack import trackdata as td
from rotortrack import validate as vl

import gen
import tracing

TRAIN_HELICOPTERS = 80           # the acceptance test's training split
PERCENTILE = idf.DEFAULT_PERCENTILE
HISTOGRAM_BINS = 30
EXPECTED_REASON = {"short_ids": "fewer_than_100_points", "far_ids": "no_approach"}


def load_labels(path) -> dict[str, str]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return {row["track_id"]: row["class"] for row in csv.DictReader(fh)}


def pick_runway(track: td.Track, runways: dict[str, td.Runway]) -> td.Runway:
    """The command line's choice: trust runway_id, else the nearest threshold."""
    if track.runway_id and track.runway_id in runways:
        return runways[track.runway_id]
    best, best_d = None, math.inf
    for rw in runways.values():
        _, d = td.closest_approach_index(track, rw)
        if d < best_d:
            best, best_d = rw, d
    return best


# --------------------------------------------------------------------------
# stages; `d` holds tracks.jsonl, runways.csv, ... as the command line writes them

def stage_train(d: Path, labels_path: Path, model_path: Path,
                config: ae.TrainConfig = ae.TrainConfig()) -> dict:
    tracks = td.load_tracks(d / "tracks.jsonl").tracks
    labels = load_labels(labels_path)
    runways = td.load_runways(d / "runways.csv")
    ids, raw, skipped = [], [], 0
    for track in tracks:
        if labels.get(track.track_id) != td.CLASS_HELICOPTER:
            continue
        runway = pick_runway(track, runways)
        try:
            points = td.window_arrival(track, runway)
        except td.WindowingError:
            skipped += 1
            continue
        ids.append(track.track_id)
        raw.append(td.featurize(points, runway))
    stats = td.fit_norm_stats(raw)
    windows = [td.normalize(r, stats, i, td.CLASS_HELICOPTER) for i, r in zip(ids, raw)]
    model = ae.build(ae.AutoencoderSpec())
    start = time.process_time()
    history = ae.train(model, windows, config)
    train_call_s = time.process_time() - start
    model.norm_stats = stats
    ae.save(model, model_path)
    n_val = max(1, round(config.validation_fraction * len(windows)))
    batches = math.ceil((len(windows) - n_val) / config.batch_size)
    best = min(history, key=lambda h: h.val_mae)
    return {"windows": len(windows), "skipped": skipped, "n_train": len(windows) - n_val,
            "batch_size": config.batch_size, "epochs": len(history),
            "steps": len(history) * batches, "best_epoch": best.epoch,
            "early_stopped": len(history) < config.epochs, "train_call_s": train_call_s}


def stage_calibrate(d: Path, labels_path: Path, model_path: Path, out: Path) -> dict:
    model = ae.load(model_path)
    tracks = td.load_tracks(d / "tracks.jsonl").tracks
    labels = load_labels(labels_path)
    runways = td.load_runways(d / "runways.csv")
    maes, skipped = [], 0
    for track in tracks:
        if labels.get(track.track_id) != td.CLASS_HELICOPTER:
            continue
        try:
            maes.append(idf.window_mae(model, track, pick_runway(track, runways)))
        except td.WindowingError:
            skipped += 1
    delta = idf.calibrate(maes, PERCENTILE)
    idf.histogram_report(maes, HISTOGRAM_BINS)
    thresholds = {"mae_threshold": delta, "percentile": PERCENTILE,
                  "runway_score_threshold": idf.DEFAULT_SCORE_THRESHOLD}
    out.write_text(json.dumps(thresholds, indent=2) + "\n", encoding="utf-8")
    return {"windows": len(maes), "skipped": skipped, "mae_threshold": delta}


def stage_classify(d: Path) -> dict:
    model = ae.load(d / "model.rtae")
    raw = json.loads((d / "thresholds.json").read_text(encoding="utf-8"))
    thresholds = idf.Thresholds(**raw)
    loaded = td.load_tracks(d / "tracks.jsonl")
    runways = td.load_runways(d / "runways.csv")
    params = rs.ScoreParams()
    results, unclassifiable, errors = [], {}, {}
    for track in loaded.tracks:
        try:
            results.append(idf.classify(model, thresholds, track, pick_runway(track, runways), params))
        except idf.Unclassifiable as e:
            unclassifiable[track.track_id] = e.reason
        except Exception as e:  # one failed operation: count it and go on
            errors[track.track_id] = repr(e)
    return {"results": results, "unclassifiable": unclassifiable, "errors": errors,
            "attempted": len(loaded.tracks), "rejects": len(loaded.rejects)}


def stage_validate(d: Path, results: list, unclassifiable: dict) -> dict:
    tracks = td.load_tracks(d / "tracks.jsonl").tracks
    by_id = {t.track_id: t for t in tracks}
    table = td.load_registration(d / "registration.csv")
    heli_types = vl.load_heli_types(d / "heli_types.txt")
    records = vl.join_registration(results, by_id, table)
    m = vl.confusion_metrics(records)
    ae_ids = {r.track_id for r in results if r.pred_is_helicopter}
    candidates = set(by_id) & ({r.track_id for r in results} | set(unclassifiable))
    baseline = {tid for tid in candidates if vl.rule_based_baseline(by_id[tid], heli_types)}
    venn = vl.venn_compare(ae_ids, baseline)
    pseudo = vl.resolve_pseudo_types(records)
    return {"records": len(records), "matched": len(records) - m.unmatched,
            "candidates": len(candidates),
            "summary": [m.tp, m.fp, m.fn, m.tn, m.unmatched, venn.both,
                        venn.autoencoder_only, venn.baseline_only, len(pseudo)]}


# --------------------------------------------------------------------------
# helpers shared by the children

def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def results_digest(classified: dict, validated: dict) -> str:
    h = hashlib.sha256()
    for r in classified["results"]:
        h.update(f"{r.track_id},{r.mae!r},{r.runway_score!r},{r.pred_is_helicopter},"
                 f"{';'.join(r.reasons)}\n".encode())
    for tid, reason in sorted(classified["unclassifiable"].items()):
        h.update(f"{tid},unclassifiable:{reason}\n".encode())
    h.update(repr(validated["summary"]).encode())
    return h.hexdigest()


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "nproc": len(os.sched_getaffinity(0))}


def _check_classified(classified: dict, manifest: dict) -> tuple[int, list[str]]:
    """Failed operations and correctness problems of one classify stage."""
    expected = {tid: EXPECTED_REASON[key] for key in EXPECTED_REASON for tid in manifest[key]}
    failed = len(classified["errors"])
    failed += sum(1 for tid, reason in classified["unclassifiable"].items()
                  if expected.get(tid) != reason)
    failed += sum(1 for r in classified["results"] if r.track_id in expected)
    problems = [f"classify raised for {tid}: {err}" for tid, err in classified["errors"].items()]
    if classified["unclassifiable"] != expected:
        problems.append(f"unclassifiable {sorted(classified['unclassifiable'].items())} "
                        f"!= planted {sorted(expected.items())}")
    if classified["rejects"] != manifest["malformed_lines"]:
        problems.append(f"{classified['rejects']} rejected lines, planted "
                        f"{manifest['malformed_lines']}")
    return failed, problems


def quality(results: list, labels: dict, train_ids: set) -> tuple[float, float]:
    """Helicopter recall and precision over held-out labelled tracks."""
    held = [r for r in results if r.track_id not in train_ids]
    heli = [labels[r.track_id] == td.CLASS_HELICOPTER for r in held]
    tp = sum(1 for r, h in zip(held, heli) if r.pred_is_helicopter and h)
    fp = sum(1 for r, h in zip(held, heli) if r.pred_is_helicopter and not h)
    fn = sum(1 for r, h in zip(held, heli) if not r.pred_is_helicopter and h)
    return tp / max(1, tp + fn), tp / max(1, tp + fp)


# --------------------------------------------------------------------------
# child processes

class Clock:
    """Times stages in CPU seconds scaled to the speed of a fixed reference task.

    The timed process has one thread and never waits, so CPU time is its wall
    time less what the host takes from the virtual CPU.  Even so, the host of
    a shared virtual machine runs the same code at speeds up to 1.8x apart, in
    spells of seconds to minutes, which makes raw times of one run say more
    about the neighbours than about the program.  A reference task that uses
    no program code (JSON parsing, a Python loop over floats, small matrix
    products and the einsum of a convolution's weight gradient, as the
    pipeline does) is timed after every stage, and the stage's
    CPU time is scaled by REFERENCE_S over the mean reference time just before
    and after it.  Raw CPU seconds are kept in `raw`.  Each stage starts from a
    collected heap, as it would in its own command-line process.
    """

    # CPU seconds of one reference task in the faster of the two speed states
    # seen on the 2-vCPU x86-64 virtual machine this benchmark was tuned on, so
    # scaled times read as seconds on that machine.
    REFERENCE_S = 0.025

    def __init__(self):
        self.tracer = None
        self.last_factor = 1.0
        self.raw: dict[str, list[float]] = {}
        self.reference_total_s = 0.0
        rng = np.random.default_rng(0)
        keys = ("t", "lat", "lon", "alt", "course", "gs")
        points = [dict(zip(keys, p)) for p in rng.random((250, 6)).round(6).tolist()]
        self._line = json.dumps({"track_id": "R", "points": points})
        self._x, self._w = rng.random((32, 50, 16)), rng.random((16, 32))
        self._y = rng.random((32, 50, 32))
        self.last = self.reference()

    def reference(self) -> float:
        start = time.process_time()
        acc = 0.0
        for _ in range(20):
            for p in json.loads(self._line)["points"]:
                acc += math.hypot(p["lat"], p["lon"]) * math.cos(math.radians(p["course"]))
        for _ in range(100):
            acc += float((self._x @ self._w).sum())
        for _ in range(30):
            acc += float(np.einsum("bli,blo->io", self._x, self._y).sum())
        spent = time.process_time() - start
        self.reference_total_s += spent
        return spent

    def scale(self, cpu_s: float, before: float, after: float) -> float:
        return cpu_s * self.REFERENCE_S * 2.0 / (before + after)

    def stage(self, name: str, fn, *args):
        """Run one stage, in a bench span when tracing; returns (output, scaled seconds)."""
        gc.collect()
        start = time.process_time()
        out = fn(*args) if self.tracer is None else self.tracer.run(name, fn, *args)
        cpu = time.process_time() - start
        before, self.last = self.last, self.reference()
        self.raw.setdefault(name, []).append(cpu)
        self.last_factor = self.scale(1.0, before, self.last)
        return out, cpu * self.last_factor


def _train_and_calibrate(clock: Clock, d: Path, labels_path: Path, out_dir: Path,
                         config: ae.TrainConfig) -> dict:
    trained, train_s = clock.stage("train", stage_train, d, labels_path,
                                   out_dir / "model.rtae", config)
    trained["train_call_s"] *= clock.last_factor
    calibrated, calibrate_s = clock.stage("calibrate", stage_calibrate, d, labels_path,
                                          out_dir / "model.rtae", out_dir / "thresholds.json")
    return {"train": trained, "calibrate": calibrated,
            "stage_s": {"train": [train_s], "calibrate": [calibrate_s]}}


def run_setup(job: dict) -> dict:
    """Generate the inputs; classify workloads also train and calibrate here."""
    d = Path(job["dir"])
    clock = Clock()
    tracer = tracing.Tracer() if job["trace"] else None
    before, reference_at_start = clock.last, clock.reference_total_s
    start = time.process_time()
    manifest = gen.generate(d, job["seed"], **job["gen"])
    if job["train_in_setup"]:
        train_dir = d / "train"
        gen.generate(train_dir, job["seed"], {"helicopter": TRAIN_HELICOPTERS},
                     plant=False, id_prefix="T")
        if tracer is not None:
            tracer.install()
            clock.tracer = tracer
        config = ae.TrainConfig(epochs=job["setup_train_epochs"])
        report = _train_and_calibrate(clock, train_dir, train_dir / "labels.csv", d, config)
        setup_cpu = time.process_time() - start - (clock.reference_total_s - reference_at_start)
        report["setup_s"] = clock.scale(setup_cpu, before, clock.last)
        if tracer is None:
            # two more samples of the short calibrate stage, outside setup_s
            report["stage_s"]["calibrate"] += [
                clock.stage("calibrate", stage_calibrate, train_dir, train_dir / "labels.csv",
                            d / "model.rtae", d / "thresholds.json")[1] for _ in range(2)]
        report["train_ids"] = sorted(load_labels(train_dir / "labels.csv"))
        report["train_manifest"] = json.loads((train_dir / "manifest.json").read_text())
    else:
        # the acceptance test's split: the first 80 helicopters in file order
        heli = [tid for tid, cls in manifest["labels"].items() if cls == td.CLASS_HELICOPTER]
        with open(d / "train_labels.csv", "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["track_id", "class"])
            w.writerows((tid, td.CLASS_HELICOPTER) for tid in heli[:TRAIN_HELICOPTERS])
        setup_cpu = time.process_time() - start
        report = {"train_ids": heli[:TRAIN_HELICOPTERS],
                  "setup_s": clock.scale(setup_cpu, before, clock.reference())}
    report["setup_cpu_s"] = setup_cpu
    report["raw"] = clock.raw
    if tracer is not None:
        tracer.uninstall()
        report["spans"], report["shapes"] = tracer.spans, tracer.shapes
    report["digests"] = {p.name: sha256(p) for p in sorted(d.iterdir()) if p.is_file()
                         and p.name != "manifest.json"}
    return report


def _round(job: dict, clock: Clock, stage_s: dict) -> dict:
    """Calibrate (when the timed stages train), classify and validate once."""
    d = Path(job["dir"])

    def timed(name, fn, *args):
        out, seconds = clock.stage(name, fn, *args)
        stage_s.setdefault(name, []).append(seconds)
        return out

    skipped = 0
    if not job["train_in_setup"]:
        skipped = timed("calibrate", stage_calibrate, d, d / "train_labels.csv",
                        d / "model.rtae", d / "thresholds.json")["skipped"]
    classified = timed("classify", stage_classify, d)
    validated = timed("validate", stage_validate, d, classified["results"],
                      classified["unclassifiable"])
    manifest = json.loads((d / "manifest.json").read_text())
    failed, problems = _check_classified(classified, manifest)
    if skipped:
        problems.append("a training helicopter could not be windowed")
    recall, precision = quality(classified["results"], load_labels(d / "labels.csv"),
                                set(job["train_ids"]))
    return {"attempted": classified["attempted"], "failed": failed, "problems": problems,
            "rejects": classified["rejects"], "recall": recall, "precision": precision,
            "matched": validated["matched"], "records": validated["records"],
            "results_sha256": results_digest(classified, validated)}


def _timed_rep(job: dict, clock: Clock, rounds: int) -> dict:
    """Train (when the timed stages train), then `rounds` rounds of the rest.

    Training dominates train-default, so its shorter stages repeat within a
    repetition to gather as many samples as the classify workloads do.
    """
    d = Path(job["dir"])
    rep: dict = {"stage_s": {}}
    if not job["train_in_setup"]:
        rep["train"], seconds = clock.stage("train", stage_train, d, d / "train_labels.csv",
                                            d / "model.rtae")
        rep["train"]["train_call_s"] *= clock.last_factor
        rep["stage_s"]["train"] = [seconds]
        rep["model_sha256"] = sha256(d / "model.rtae")
    rep["rounds"] = [_round(job, clock, rep["stage_s"]) for _ in range(rounds)]
    return rep


def run_timed(job: dict) -> dict:
    """Repeat the timed stages for job['seconds'], at least twice.

    With tracing, exactly two single-round repetitions run: one plain, then
    one traced.
    """
    reps = []
    clock = Clock()
    tracer = None
    start = time.perf_counter()
    if job["trace"]:
        reps.append(_timed_rep(job, clock, 1))
        tracer = clock.tracer = tracing.Tracer()
        tracer.install()
        reps.append(_timed_rep(job, clock, 1))
        tracer.uninstall()
    else:
        while len(reps) < 2 or time.perf_counter() - start < job["seconds"]:
            reps.append(_timed_rep(job, clock, job["rounds"]))
    report = {"reps": reps, "raw": clock.raw, "env": environment(),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        report["spans"], report["shapes"] = tracer.spans, tracer.shapes
    return report


if __name__ == "__main__":
    mode, job_path = sys.argv[1], Path(sys.argv[2])
    job = json.loads(job_path.read_text(encoding="utf-8"))
    out = run_setup(job) if mode == "setup" else run_timed(job)
    Path(job["report"]).write_text(json.dumps(out), encoding="utf-8")
