"""Pipeline benchmark for rotortrack.

    python3 perfbench/run.py --workload train-default --seed 1 --seconds 8 --trace 0

Run from the root of a source checkout; the program is imported from src/.
Set-up (input generation, and for the classify workloads training and
calibration) runs several times, each in its own process.  The timed stages
then repeat in one further process for --seconds (at least twice), so that
peak RSS covers the timed stages only.  With --trace 1 the set-up runs once,
the timed stages run once plain and once traced, and the per-layer metrics
are printed instead of the end-to-end ones; the spans are written to
perfbench/_out/.

Stage times are CPU seconds scaled to a reference speed (pipeline.Clock);
the medians of the raw CPU seconds are printed on the `raw` line.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  Any error exits non-zero without printing it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from collections import defaultdict
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
RUN_LIMIT_S = 175.0
# The gate is calibrated at the 80th percentile of training errors, and one
# helicopter in five flies in gusty air, so held-out recall is at most about
# 0.8 by design; train-default holds out only 20 helicopters, where three
# more misses (0.65) were seen in ten seeds.
RECALL_FLOOR = 0.6
PRECISION_FLOOR = 0.85
GEOMETRIES = ("conv_k7s2_6to16", "conv_k5s2_16to32", "dense_800to16", "dense_16to800",
              "convT_k5s2_32to16", "convT_k7s2_16to6")

# Why each workload exists is recorded in BENCHMARK.json.  SETUPS set-up
# processes give the setup_s median; the timed process runs repetitions of
# `rounds` rounds each (see pipeline.run_timed).
# The classify workloads train in set-up for 100 epochs instead of 200, which
# leaves their recall unchanged and halves the set-up cost of a run;
# train_steps_per_s stays comparable across the two.
WORKLOADS = {
    "train-default": {
        "gen": {"counts": {"helicopter": 100, "ga": 100, "commercial": 100}},
        "train_in_setup": False, "rounds": 2,
    },
    "classify-busy": {
        "gen": {"counts": {"helicopter": 100, "ga": 450, "commercial": 450},
                "n_runways": 4, "no_runway_id_share": 0.45},
        "train_in_setup": True, "setup_train_epochs": 100, "rounds": 1,
    },
    "long-history": {
        "gen": {"counts": {"helicopter": 34, "ga": 33, "commercial": 33},
                "history_points": 2500},
        "train_in_setup": True, "setup_train_epochs": 100, "rounds": 1,
    },
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child(mode: str, job: dict, work: Path, tag: str, deadline: float) -> dict:
    job_path = work / f"job-{tag}.json"
    report_path = work / f"report-{tag}.json"
    job_path.write_text(json.dumps({**job, "report": str(report_path)}), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
               PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "pipeline.py"), mode, str(job_path)],
                              env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process ran past the {RUN_LIMIT_S:.0f} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(report_path.read_text(encoding="utf-8"))


def _median(values) -> float:
    return statistics.median(list(values))


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def _stage_samples(workload: dict, setups: list[dict], reps: list[dict]) -> dict:
    """Seconds per stage, every sample of the run."""
    stage = defaultdict(list)
    for part in (setups if workload["train_in_setup"] else []) + reps:
        for name, seconds in part["stage_s"].items():
            stage[name] += seconds
    return stage


def _total(rep: dict) -> float:
    return sum(sum(seconds) for seconds in rep["stage_s"].values())


def _rounds(timed: dict) -> list[dict]:
    return [r for rep in timed["reps"] for r in rep["rounds"]]


def check_outputs(setups: list[dict], timed: dict) -> list[str]:
    """Every way the outputs of this run can be wrong, as messages."""
    problems = []
    if any(s["digests"] != setups[0]["digests"] for s in setups):
        problems.append("set-ups from one seed wrote different files or models")
    if len({rep.get("model_sha256") for rep in timed["reps"]}) != 1:
        problems.append("model_sha256 differs between repetitions")
    if len({r["results_sha256"] for r in _rounds(timed)}) != 1:
        problems.append("results_sha256 differs between repetitions")
    for part in setups + timed["reps"]:
        if any(part.get(stage, {}).get("skipped") for stage in ("train", "calibrate")):
            problems.append("a training helicopter could not be windowed")
    for r in _rounds(timed):
        problems += r["problems"]
        if r["recall"] < RECALL_FLOOR or r["precision"] < PRECISION_FLOOR:
            problems.append(f"recall {r['recall']:.4f} / precision {r['precision']:.4f} "
                            f"below the {RECALL_FLOOR} / {PRECISION_FLOOR} floor")
    return sorted(set(problems))


def end_to_end(workload: dict, setups: list[dict], timed: dict) -> dict:
    """End-to-end metrics: medians of the run's samples, in scaled seconds.

    See pipeline.Clock for the scaling; the medians of the raw CPU seconds
    are printed on the `raw` line.
    """
    stage = _stage_samples(workload, setups, timed["reps"])
    trained = setups if workload["train_in_setup"] else timed["reps"]
    rounds = _rounds(timed)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    raw = defaultdict(list, setup=[s["setup_cpu_s"] for s in setups])
    for part in setups + [timed]:
        for name, seconds in part["raw"].items():
            raw[name] += seconds
    print("raw " + json.dumps({f"{name}_cpu_s": _median(v) for name, v in raw.items()}))
    values = {
        "setup_s": (_median(s["setup_s"] for s in setups), "s"),
        "train_s": (_median(stage["train"]), "s"),
        "train_steps_per_s": (_median(t["train"]["steps"] / t["train"]["train_call_s"]
                                      for t in trained), "1/s"),
        "calibrate_s": (_median(stage["calibrate"]), "s"),
        "classify_tracks_per_s": (_median(rounds[0]["attempted"] / t
                                          for t in stage["classify"]), "1/s"),
        "validate_s": (_median(stage["validate"]), "s"),
        "pipeline_s": (sum(_median(stage[name]) for name in timed["reps"][0]["stage_s"]), "s"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
        "ops_ok_share": ((attempted - failed) / attempted, "ratio"),
        "heli_recall": (rounds[0]["recall"], "ratio"),
        "heli_precision": (rounds[0]["precision"], "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


# --------------------------------------------------------------------------
# traced run

def expected_counts(workload: dict, setup: dict, rep: dict, manifest: dict) -> dict:
    """Calls each traced function must see in one set-up plus one timed repetition."""
    train_manifest = setup.get("train_manifest", manifest)
    trained = setup["train"] if workload["train_in_setup"] else rep["train"]
    n_heli = len(setup["train_ids"])
    pick_train = len(train_manifest["runways"])       # helicopters carry no runway_id
    loaded = len(manifest["labels"])
    unscorable = set(manifest["short_ids"]) | set(manifest["far_ids"])
    classifiable = loaded - len(unscorable)
    with_id = set(manifest["with_runway_id"])
    picks = sum(0 if tid in with_id else len(manifest["runways"]) for tid in manifest["labels"])
    full_batches = trained["epochs"] * (trained["n_train"] // trained["batch_size"])
    counts = {
        "trackdata.load_tracks": 4,
        "trackdata.closest_approach_index": 2 * n_heli * (pick_train + 1) + picks + loaded
        + classifiable,
        "trackdata.window_arrival": 2 * n_heli + loaded,
        "trackdata.fit_norm_stats": 1,
        "autoencoder.train": 1,
        "autoencoder.save": 1,
        "autoencoder.load": 2,
        "autoencoder.reconstruction_error": n_heli + classifiable,
        "neuralcore.adam_step": trained["steps"],
        "identify.classify": loaded,
        "identify.window_mae": n_heli,
        "runwayscore.score_inputs_for_track": classifiable,
        "validate.join_registration": 1,
        "validate.rule_based_baseline": loaded,
    }
    for geom in GEOMETRIES:
        counts[f"neuralcore.{geom}.fwd.b1"] = n_heli + classifiable
        counts[f"neuralcore.{geom}.fwd.b32"] = full_batches
        counts[f"neuralcore.{geom}.bwd.b32"] = full_batches
    return counts


def per_layer(workload: dict, setup: dict, timed: dict, manifest: dict, spans: list,
              shapes: dict) -> tuple[dict, dict]:
    own = tracing.self_times(spans)
    durations = defaultdict(list)
    self_by_name = defaultdict(float)
    self_by_layer = dict.fromkeys(tracing.LAYERS, 0.0)
    for span, own_s in zip(spans, own):
        durations[span[0]].append(span[2] - span[1])
        self_by_name[span[0]] += own_s
        self_by_layer[span[0].split(".", 1)[0]] += own_s

    plain, traced = timed["reps"]
    want = expected_counts(workload, setup, traced, manifest)
    wrong = {k: (len(durations[k]), v) for k, v in want.items() if len(durations[k]) != v}
    if wrong:
        raise BenchError(f"traced call counts (seen, expected) differ: {wrong}")

    stages = [(s, o) for s, o in zip(spans, own) if s[3] < 0]
    attributed = min(1.0 - o / (s[2] - s[1]) for s, o in stages)
    total = sum(s[2] - s[1] for s, _ in stages)
    if abs(sum(own) - total) > 1e-6 * max(1.0, total):
        raise BenchError("self times do not add up to the traced stages")

    def total_s(name):
        return sum(durations[name])

    def us(name, q=0.5):
        return _quantile(durations[name], q) * 1e6

    cost = {}
    for name, (shape, itemsize) in shapes.items():
        flops, moved = tracing.computed_cost(name, shape, itemsize)
        cost[name] = {"calls": len(durations[name]), "flop_computed": flops,
                      "bytes_computed": moved, "median_us": us(name)}

    def gflops(batch):
        names = [n for n in cost if n.endswith(f".b{batch}")]
        return (sum(cost[n]["flop_computed"] * cost[n]["calls"] for n in names)
                / sum(total_s(n) for n in names) / 1e9)

    trained = setup["train"] if workload["train_in_setup"] else traced["train"]
    train_manifest = setup.get("train_manifest", manifest)
    loads_points = 2 * train_manifest["points"] + 2 * manifest["points"]
    m = {}
    for geom in GEOMETRIES:
        m[f"nn.{geom}.fwd_b32_us"] = (us(f"neuralcore.{geom}.fwd.b32"), "us", "lower")
        m[f"nn.{geom}.bwd_b32_us"] = (us(f"neuralcore.{geom}.bwd.b32"), "us", "lower")
        m[f"nn.{geom}.fwd_b1_us"] = (us(f"neuralcore.{geom}.fwd.b1"), "us", "lower")
    m.update({
        "nn.adam_step_us": (us("neuralcore.adam_step"), "us", "lower"),
        "nn.b32_gflop_per_s": (gflops(32), "GFLOP/s", "higher"),
        "nn.b1_gflop_per_s": (gflops(1), "GFLOP/s", "higher"),
        "ae.train.s": (total_s("autoencoder.train"), "s", "lower"),
        "ae.train.steps": (trained["steps"], "count", "lower"),
        "ae.train.epochs": (trained["epochs"], "count", "lower"),
        "ae.train.early_stopped": (int(trained["early_stopped"]), "count", "lower"),
        "ae.reconstruction_error.calls": (len(durations["autoencoder.reconstruction_error"]),
                                          "count", "lower"),
        "ae.reconstruction_error.p50_us": (us("autoencoder.reconstruction_error"), "us", "lower"),
        "ae.reconstruction_error.p99_us": (us("autoencoder.reconstruction_error", 0.99), "us",
                                           "lower"),
        "ae.save.s": (total_s("autoencoder.save"), "s", "lower"),
        "ae.load.s": (total_s("autoencoder.load"), "s", "lower"),
        "td.load_tracks.s": (total_s("trackdata.load_tracks"), "s", "lower"),
        "td.load_tracks.calls": (len(durations["trackdata.load_tracks"]), "count", "lower"),
        "td.load_tracks.points_per_s": (loads_points / total_s("trackdata.load_tracks"), "1/s",
                                        "higher"),
        "td.load_tracks.rejected_lines": (traced["rounds"][0]["rejects"], "count", "lower"),
        "td.closest_approach_index.calls_per_track": (
            len(durations["trackdata.closest_approach_index"]) / len(manifest["labels"]),
            "count", "lower"),
        "td.closest_approach_index.s": (total_s("trackdata.closest_approach_index"), "s", "lower"),
        "td.window_arrival.s": (total_s("trackdata.window_arrival"), "s", "lower"),
        "td.featurize.s": (total_s("trackdata.featurize"), "s", "lower"),
        "td.normalize.s": (total_s("trackdata.normalize"), "s", "lower"),
        "td.fit_norm_stats.s": (total_s("trackdata.fit_norm_stats"), "s", "lower"),
        "rs.score_inputs_for_track.s": (total_s("runwayscore.score_inputs_for_track"), "s",
                                        "lower"),
        "rs.score_inputs_for_track.calls": (len(durations["runwayscore.score_inputs_for_track"]),
                                            "count", "lower"),
        "idf.classify.calls": (len(durations["identify.classify"]), "count", "lower"),
        "idf.classify.self_s": (self_by_name["identify.classify"], "s", "lower"),
        "idf.classify.p50_us": (us("identify.classify"), "us", "lower"),
        "idf.classify.p99_us": (us("identify.classify", 0.99), "us", "lower"),
        "idf.window_mae.calls": (len(durations["identify.window_mae"]), "count", "lower"),
        "idf.window_mae.s": (total_s("identify.window_mae"), "s", "lower"),
        "idf.calibrate.s": (total_s("identify.calibrate"), "s", "lower"),
        "vl.join_registration.s": (total_s("validate.join_registration"), "s", "lower"),
        "vl.match_rate": (traced["rounds"][0]["matched"] / traced["rounds"][0]["records"],
                          "ratio", "higher"),
        "vl.rule_based_baseline.s": (total_s("validate.rule_based_baseline"), "s", "lower"),
        "trace.overhead_ratio": (_total(traced) / _total(plain), "ratio", "lower"),
        "trace.attributed_share": (attributed, "ratio", "higher"),
        "trace.spans": (len(spans), "count", "lower"),
    })
    for layer, seconds in self_by_layer.items():
        m[f"self_s.{layer}"] = (seconds, "s", "lower")
    return m, cost


def traced_run(workload: dict, setup: dict, timed: dict, manifest: dict, run_id: str,
               out_path: Path) -> dict:
    setup_spans = setup.get("spans", [])
    offset = len(setup_spans)
    spans = setup_spans + [[n, a, b, p + offset if p >= 0 else p]
                           for n, a, b, p in timed["spans"]]
    shapes = {**setup.get("shapes", {}), **timed["shapes"]}
    metrics, cost = per_layer(workload, setup, timed, manifest, spans, shapes)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"run_id": run_id, "env": timed["env"], "computed_neuralcore_cost": cost,
                   "metrics": {k: {"value": v, "unit": u, "better": better}
                               for k, (v, u, better) in metrics.items()},
                   "spans": [{"run": run_id, "name": n, "start": a, "end": b, "parent": p}
                             for n, a, b, p in spans]}, fh)
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}


# --------------------------------------------------------------------------

def run(args, work: Path) -> dict:
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    run_id = f"{args.workload}-s{args.seed}-{uuid.uuid4().hex[:12]}"
    job = {**workload, "dir": str(work / "data"), "seed": args.seed, "seconds": args.seconds,
           "trace": False}
    setups = []
    for i in range(1 if args.trace else SETUPS):
        traced_setup = bool(args.trace and workload["train_in_setup"])
        setups.append(_child("setup", {**job, "trace": traced_setup}, work, f"setup{i}", deadline))
    job["train_ids"] = setups[0]["train_ids"]
    timed = _child("timed", {**job, "trace": bool(args.trace)}, work, "timed", deadline)
    manifest = json.loads((work / "data" / "manifest.json").read_text(encoding="utf-8"))

    problems = check_outputs(setups, timed)
    rounds = _rounds(timed)
    digests = {"inputs": setups[0]["digests"],
               "model_sha256": timed["reps"][0].get("model_sha256")
               or setups[0]["digests"]["model.rtae"],
               "results_sha256": rounds[0]["results_sha256"],
               "setups": len(setups), "repetitions": len(timed["reps"]), "rounds": len(rounds)}
    print("env " + json.dumps({**timed["env"], "seed": args.seed, "run_id": run_id}))
    print("digests " + json.dumps(digests))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if args.trace:
        out = HERE / "_out" / f"trace-{args.workload}-s{args.seed}.json"
        metrics = traced_run(workload, setups[0], timed, manifest, run_id, out)
        print(f"trace written to {out.relative_to(ROOT)}", file=sys.stderr)
    else:
        metrics = end_to_end(workload, setups, timed)
    return {"correct": not problems, "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds), "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "rotortrack" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = HERE / "_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, work)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
