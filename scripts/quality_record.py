"""Record the default pipeline's quality over five scenario seeds, and over five
initialisation seeds of one scenario, in a QUALITY_<n>.json file.

    python3 scripts/quality_record.py QUALITY_23.json

For synth.seed 1-5 on the default profile ("profiles"), and for autoencoder.seed
and training.seed both set to 1-5 at synth.seed INIT_SCENARIO_SEED
("initialisation"), it runs the six CLI stages through scripts/bench_record.py's
cli_pass, each stage its own process with OPENBLAS_NUM_THREADS=1, and reads back
from each run:

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
- held_out: null, as the default run gives no track a held-out role.

Each run names the seed its sweep varies.  The script then gives the median
and range of each number over the seeds, so the first sweep spreads by scenario
and the second by model initialisation alone.  It exits 1 when any stage of any
run fails; the JSON is written either way.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import statistics
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 4, 5)
# The scenario of the initialisation sweep: seed 4 has the largest mae_threshold in QUALITY_22.json.
INIT_SCENARIO_SEED = 4
# Profile name -> config file contents; each run sets its sweep's seeds on top.
PROFILES = {"default": {}}


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load("bench_record", ROOT / "scripts" / "bench_record.py")
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
        "held_out": None,
    }


def _flat(run: dict) -> dict:
    """A seed's numbers by name, each pass rate as a share."""
    out = {k: run[k] for k in ("mae_threshold", "precision", "recall", "unclassifiable",
                               "unmatched", "gate_margin")}
    for group, p in run["pass"].items():
        out[f"{group}_pass_rate"] = p["passed"] / p["of"] if p["of"] else None
    return out


def spread(values: list) -> dict | None:
    """Median, minimum and maximum of the values that are not None."""
    values = [v for v in values if v is not None]
    if not values:
        return None
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def scenario_seeded(config: dict, seed: int) -> dict:
    """config with synth.seed set to seed."""
    return {**config, "synth": {**config.get("synth", {}), "seed": seed}}


def init_seeded(config: dict, seed: int) -> dict:
    """config at synth.seed INIT_SCENARIO_SEED, with autoencoder.seed and training.seed seed."""
    return {**scenario_seeded(config, INIT_SCENARIO_SEED),
            **{section: {**config.get(section, {}), "seed": seed}
               for section in ("autoencoder", "training")}}


def record(ref, config: dict, seeds=SEEDS, seeded=scenario_seeded) -> dict:
    """One profile's runs, one per seed, and the spread of each number over them; ref is
    the bench_record.Reference that cli_pass times the stages against, and seeded(config,
    seed) gives each run's config."""
    runs = []
    with tempfile.TemporaryDirectory(prefix="quality_record-") as tmp:
        for seed in seeds:
            out_dir = Path(tmp) / str(seed)
            cli = bench.cli_pass(ref, seeded(config, seed), out_dir)
            complete = [s["exit"] for s in cli["stages"].values()] == [0] * len(bench.STAGES)
            runs.append({"seed": seed, "correct": complete, "digests": cli["digests"],
                         **(quality(out_dir) if complete else {})})
    done = [_flat(r) for r in runs if r["correct"]]
    return {
        "config": config,
        "correct": all(r["correct"] for r in runs),
        "seeds": runs,
        "summary": {name: spread([d[name] for d in done]) for name in done[0]} if done else {},
    }


def initialisation(ref, seeds=SEEDS) -> dict:
    """Each profile's runs at synth.seed INIT_SCENARIO_SEED, one per initialisation seed."""
    return {"synth_seed": INIT_SCENARIO_SEED,
            "profiles": {name: record(ref, config, seeds, init_seeded)
                         for name, config in PROFILES.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="the JSON file to write")
    args = parser.parse_args(argv)
    with bench.Reference() as ref:
        out = {
            "git_head": bench._git("rev-parse", "HEAD"),
            "git_dirty": bool(bench._git("status", "--porcelain", "--untracked-files=no", "--",
                                         "src")),
            "src_sha256": bench._src_sha256(),
            "env": ref.info["env"],
            "profiles": {name: record(ref, config) for name, config in PROFILES.items()},
            "initialisation": initialisation(ref),
        }
    out["correct"] = all(p["correct"] for sweep in (out, out["initialisation"])
                         for p in sweep["profiles"].values())
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}: correct {str(out['correct']).lower()}")
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
