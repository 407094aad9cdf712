"""Record the default pipeline's quality over a grid of seeded runs, in a
QUALITY_<n>.json file.

    python3 scripts/quality_record.py QUALITY_36.json

GRID names each cell: a config overlay, and the config keys that a run's seed
sets on top of it.  The "scenario" cell sets synth.seed, so its runs spread
by scenario; the "initialisation" cell holds the scenario at synth.seed 4 and
sets autoencoder.seed and training.seed, so its runs spread by model
initialisation alone.  For each cell and each of SEEDS it runs the six CLI
stages through scripts/bench_record.py's cli_pass, each stage its own process
with OPENBLAS_NUM_THREADS=1, and reads back from each run:

- the digests of the seven byte-compared artifacts;
- mae_threshold, precision, recall and the unclassifiable count;
- the pass rates, as passed of tracks, of three groups of the tracks matched
  to the registration table, whose aircraft class is the ground truth
  (validation.csv's is_helicopter_ac_reg): rotorcraft whose declared type the
  rule-based baseline accepts, rotorcraft whose declared type it does not
  accept (the hidden-type set), and fixed-wing tracks.  A track passes when
  it is called a helicopter;
- the unmatched count;
- the gate margin: the 5th percentile of fixed-wing MAE over mae_threshold;
- from loss_history.csv, the epochs trained (its row count) and the epoch
  whose weights training kept (the first with the lowest val_mae), so a
  record shows whether early stopping fired.

Each cell then gives the median and range of each number over its seeds.
The script exits 1 when any stage of any run fails; the JSON is written
either way.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import bench_record as bench

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 4, 5)
# Cell name -> (config overlay, the dotted config keys that each run's seed sets).
GRID = {
    "scenario": ({}, ("synth.seed",)),
    # synth.seed 4 has the largest mae_threshold in QUALITY_22.json
    "initialisation": ({"synth": {"seed": 4}}, ("autoencoder.seed", "training.seed")),
}


sys.path.insert(0, str(ROOT / "src"))
from rotortrack import validate as vl  # noqa: E402


def _pass_rate(rows: list[dict]) -> dict:
    return {"passed": sum(r["pred_is_helicopter"] == "true" for r in rows), "of": len(rows)}


def quality(out_dir: Path) -> dict:
    """The quality numbers of one complete six-stage run in out_dir."""
    metrics = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
    thresholds = json.loads((out_dir / "thresholds.json").read_text(encoding="utf-8"))
    heli_types = vl.load_heli_types(out_dir / "heli_types.txt")
    with open(out_dir / "validation.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    typed, hidden, fixed_wing = [], [], []
    for r in rows:
        if r["is_helicopter_ac_reg"] == "true":
            accepted = vl.rule_based_baseline(SimpleNamespace(**r), heli_types)
            (typed if accepted else hidden).append(r)
        elif r["is_helicopter_ac_reg"] == "false":
            fixed_wing.append(r)
    fixed_wing_mae = [float(r["mae"]) for r in fixed_wing]
    gate = thresholds["mae_threshold"]
    with open(out_dir / "loss_history.csv", encoding="utf-8", newline="") as fh:
        epochs = list(csv.DictReader(fh))
    return {
        "mae_threshold": gate,
        "precision": metrics["precision"],
        "recall": metrics["recall"],
        "unclassifiable": metrics["unclassifiable"],
        "pass": {"typed_helicopters": _pass_rate(typed),
                 "hidden_type_helicopters": _pass_rate(hidden),
                 "fixed_wing": _pass_rate(fixed_wing)},
        "unmatched": metrics["unmatched"],
        "gate_margin": float(np.percentile(fixed_wing_mae, 5)) / gate if fixed_wing_mae else None,
        "epochs_trained": len(epochs),
        "kept_epoch": int(min(epochs, key=lambda e: float(e["val_mae"]))["epoch"]),
    }


def _flat(run: dict) -> dict:
    """A seed's numbers by name, each pass rate as a share."""
    out = {k: run[k] for k in ("mae_threshold", "precision", "recall", "unclassifiable",
                               "unmatched", "gate_margin", "epochs_trained", "kept_epoch")}
    for group, p in run["pass"].items():
        out[f"{group}_pass_rate"] = p["passed"] / p["of"] if p["of"] else None
    return out


def spread(values: list) -> dict | None:
    """Median, minimum and maximum of the values that are not None."""
    values = [v for v in values if v is not None]
    if not values:
        return None
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def overlaid(config: dict, overlay: dict) -> dict:
    """config with each section of overlay merged over its own."""
    return {**config, **{name: {**config.get(name, {}), **section}
                         for name, section in overlay.items()}}


def seeded(config: dict, seed_keys: tuple[str, ...], seed: int) -> dict:
    """config with each of seed_keys, a dotted "section.key", set to seed."""
    for key in seed_keys:
        section, name = key.split(".")
        config = overlaid(config, {section: {name: seed}})
    return config


def record(ref, config: dict, seed_keys: tuple[str, ...], seeds=SEEDS) -> dict:
    """One cell's runs, one per seed, and the spread of each number over them; ref is
    the bench_record.Reference that cli_pass times the stages against."""
    runs = []
    with tempfile.TemporaryDirectory(prefix="quality_record-") as tmp:
        for seed in seeds:
            out_dir = Path(tmp) / str(seed)
            cli = bench.cli_pass(ref, seeded(config, seed_keys, seed), out_dir)
            complete = [s["exit"] for s in cli["stages"].values()] == [0] * len(bench.STAGES)
            runs.append({"seed": seed, "correct": complete, "digests": cli["digests"],
                         **(quality(out_dir) if complete else {})})
    done = [_flat(r) for r in runs if r["correct"]]
    return {
        "config": config,
        "seed_keys": list(seed_keys),
        "correct": all(r["correct"] for r in runs),
        "seeds": runs,
        "summary": {name: spread([d[name] for d in done]) for name in done[0]} if done else {},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="the JSON file to write")
    args = parser.parse_args(argv)
    with bench.Reference() as ref:
        out = {**bench.provenance(), "env": ref.info["env"],
               "cells": {name: record(ref, config, seed_keys)
                         for name, (config, seed_keys) in GRID.items()}}
    out["correct"] = all(cell["correct"] for cell in out["cells"].values())
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}: correct {str(out['correct']).lower()}")
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
