"""Record one checkout's performance, end to end, in a BENCH_<n>.json file.

    python3 scripts/bench_record.py BENCH_17.json
    python3 scripts/bench_record.py --quick bench.json   # schema smoke run, seconds

Run it on an otherwise idle machine; nothing is installed, and nothing under
perfbench/ is edited (perfbench is only run, and its Clock imported).  The
full record:

- runs perfbench/run.py for every workload of BENCHMARK.json over seeds 1-3,
  for the end-to-end metrics, and again with --trace 1 at each seed, for the
  per-layer metrics;
- times the six CLI stages, each as its own process, with wall time and peak
  RSS from os.wait4 and OPENBLAS_NUM_THREADS=1: three passes over the
  default 300-track scenario and one over a 10x scenario (3,000 tracks).
  Each pass's train parses the tracks file, and after report train is timed
  again as warm_train, reading the sidecar the first one wrote, so that a
  cold load's peak RSS compares with a warm one's;
- times perfbench.pipeline.Clock's reference task, which uses no program
  code, before and after every perfbench run and every CLI stage, so a
  reader can tell the host's fast phase (about Clock.REFERENCE_S) from its
  slow one.  Each CLI stage's wall time is also recorded scaled as Clock
  scales CPU time: times REFERENCE_S over the mean of the reference times
  just before and after the stage, so that records made in different phases
  compare.

The record's cli.rss_scaling holds, for each stage, the 10x scenario's median
peak RSS over the default scenario's, so that how a stage's memory grows with
the tracks file reads off one number.  A timing, and each metric with its unit,
is recorded as its median, interquartile range and sample count.
--quick makes one CLI pass, warm_train included, over 40/8/8 tracks at 2
epochs and runs no perfbench.  The script exits 1 when any perfbench run
fails or reports "correct": false, when a CLI stage exits non-zero, or when
two passes over one scenario write different bytes; the JSON is written
either way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
STAGES = ("synth", "train", "calibrate", "classify", "validate", "report")
# What record_cli times in each pass: the six stages, then train again with the sidecar in place.
TIMED = (*STAGES, "warm_train")
# The artifacts a fixed seed must reproduce byte for byte.
BYTE_COMPARED = ("tracks.jsonl", "model.rtae", "thresholds.json", "results.csv",
                 "validation.csv", "metrics.json", "report.txt")
# Scenario name -> (config file contents, passes).
SCENARIOS = {
    "default": ({}, 3),
    "10x": ({"synth": {"helicopters": 1000, "ga": 1000, "commercial": 1000}}, 1),
}
QUICK_SCENARIOS = {
    "quick": ({"synth": {"helicopters": 40, "ga": 8, "commercial": 8},
               "training": {"epochs": 2}}, 1),
}


def summary(values: list[float]) -> dict:
    """Median, interquartile range and sample count."""
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "iqr": q3 - q1, "n": len(values)}


def summarised(runs: list[dict], names) -> dict:
    """Each named metric that some run reports, as the summary() of its values plus its unit."""
    out = {}
    for name in names:
        reported = [r["metrics"][name] for r in runs if name in r.get("metrics", {})]
        if reported:
            out[name] = {**summary([m["value"] for m in reported]), "unit": reported[0]["unit"]}
    return out


def _git(*args: str) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


# What a record's numbers come from: the program, the recording scripts and
# perfbench, and the benchmark's declaration.
CODE_DIRS = ("src", "scripts", "perfbench")
DECLARATION = "BENCHMARK.json"


def _sha256(paths) -> str:
    """One digest of the files' paths and bytes, as they are on disk."""
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance() -> dict:
    """The commit a record was written from, whether a file that its numbers come
    from differs from that commit or is untracked, and two digests: src_sha256 of
    the program's sources, as older records have it, and code_sha256 of every
    Python file under CODE_DIRS plus the declaration, naming all the code run."""
    code = [path for name in CODE_DIRS for path in (ROOT / name).rglob("*.py")]
    return {
        "git_head": _git("rev-parse", "HEAD"),
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=all", "--",
                               *CODE_DIRS, DECLARATION)),
        "src_sha256": _sha256((ROOT / "src").rglob("*.py")),
        "code_sha256": _sha256([*code, ROOT / DECLARATION]),
    }


# Run in its own process, so this one never loads numpy: a child process starts
# with its parent's peak RSS as the floor of its own (Linux carries it across
# exec), and this process's ~10 MB stays below any stage's.
REFERENCE_TASK = """
import json, sys
import pipeline
clock = pipeline.Clock()
print(json.dumps({"env": pipeline.environment(), "fast_phase_s": clock.REFERENCE_S}), flush=True)
for _ in sys.stdin:
    print(clock.reference(), flush=True)
"""


class Reference:
    """perfbench's Clock reference task, timed in CPU seconds next to each run."""

    def __enter__(self):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
        self.proc = subprocess.Popen([sys.executable, "-c", REFERENCE_TASK], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.info = json.loads(self.proc.stdout.readline())
        self.times: list[float] = []
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def time(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        self.times.append(float(self.proc.stdout.readline()))
        return self.times[-1]

    def scaled(self, seconds: float, before: float, after: float) -> float:
        """seconds at the fast phase's speed, given the reference times around them."""
        return seconds * self.info["fast_phase_s"] * 2.0 / (before + after)

    def around(self, fn, *args):
        """fn(*args) with its result's "reference_s" set to the times before and after."""
        before = self.time()
        out = fn(*args)
        out["reference_s"] = [before, self.time()]
        return out


def perfbench_run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    run = {"seed": seed, "trace": trace, "exit": proc.returncode, "correct": False}
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        tag, _, rest = line.partition(" ")
        if tag in ("env", "digests"):
            run[tag] = json.loads(rest)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"perfbench {workload} seed {seed} gave no result:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return run
    run.update(result, correct=proc.returncode == 0 and result["correct"] is True)
    return run


def record_perfbench(ref: Reference) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    out = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [ref.around(perfbench_run, workload, seed, seconds, False) for seed in SEEDS]
        traced = [ref.around(perfbench_run, workload, seed, seconds, True) for seed in SEEDS]
        out[workload] = {
            "correct": all(r["correct"] for r in runs + traced),
            "end_to_end": summarised(runs, (m["name"] for m in bench["end_to_end"])),
            "per_layer": summarised(traced, (m["name"] for m in bench["per_layer"])),
            "runs": [{k: v for k, v in r.items() if k != "metrics"} for r in runs + traced],
        }
    return out


def timed_process(cmd: list[str], env: dict, log) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak RSS in MB of one child process."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=log)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)   # reaped here, not by Popen
    return proc.returncode, wall, usage.ru_maxrss / 1024.0   # Linux reports KB


def cli_pass(ref: Reference, config: dict, out_dir: Path, warm_train: bool = False) -> dict:
    """The six stages, each its own process, writing into a new out_dir, with the
    reference task timed before the first stage and after each; with warm_train, train
    is then timed again under that name, its tracks load reading the sidecar."""
    out_dir.mkdir(parents=True)
    cfg = out_dir / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    stages = {}
    reference = [ref.time()]
    with open(out_dir / "stderr.log", "wb") as log:
        for name in TIMED if warm_train else STAGES:
            code, wall, rss = timed_process(
                [sys.executable, "-m", "rotortrack", "--config", str(cfg),
                 "--out-dir", str(out_dir), "train" if name == "warm_train" else name], env, log)
            reference.append(ref.time())
            stages[name] = {"exit": code, "wall_s": wall,
                            "scaled_wall_s": ref.scaled(wall, *reference[-2:]),
                            "peak_rss_mb": rss}
            if code != 0:
                print(f"{name} exited {code}:\n{(out_dir / 'stderr.log').read_text()[-2000:]}",
                      file=sys.stderr)
                break
    digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
               for name in BYTE_COMPARED if (out_dir / name).is_file()}
    return {"stages": stages, "digests": digests, "reference_s": reference}


def record_cli(ref: Reference, scenarios: dict) -> dict:
    out = {}
    with tempfile.TemporaryDirectory(prefix="bench_record-") as tmp:
        for name, (config, passes) in scenarios.items():
            runs = [cli_pass(ref, config, Path(tmp) / name / str(i), warm_train=True)
                    for i in range(passes)]
            complete = all(len(r["stages"]) == len(TIMED)
                           and all(s["exit"] == 0 for s in r["stages"].values()) for r in runs)
            same_bytes = all(r["digests"] == runs[0]["digests"] for r in runs)
            if not same_bytes:
                print(f"{name}: passes wrote different bytes", file=sys.stderr)
            out[name] = {
                "config": config,
                "correct": complete and same_bytes,
                "digests": runs[0]["digests"],
                "stages": {stage: {key: summary([r["stages"][stage][key] for r in runs])
                                   for key in ("wall_s", "scaled_wall_s", "peak_rss_mb")}
                           for stage in TIMED if complete},
                # of the six stages, as in records made before warm_train
                "total_wall_s": summary([sum(s["wall_s"] for stage, s in r["stages"].items()
                                             if stage in STAGES) for r in runs]),
                "peak_rss_mb": summary([max(s["peak_rss_mb"] for stage, s in r["stages"].items()
                                            if stage in STAGES) for r in runs]),
                "runs": [{"stages": r["stages"], "reference_s": r["reference_s"]} for r in runs],
            }
    return out


def rss_scaling(cli: dict) -> dict:
    """{stage: the 10x scenario's median peak RSS over the default scenario's}."""
    default, scaled = cli["default"]["stages"], cli["10x"]["stages"]
    return {stage: scaled[stage]["peak_rss_mb"]["median"] / default[stage]["peak_rss_mb"]["median"]
            for stage in default if stage in scaled}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="the JSON file to write")
    parser.add_argument("--quick", action="store_true",
                        help="one CLI pass over 40/8/8 tracks at 2 epochs, no perfbench")
    args = parser.parse_args(argv)
    with Reference() as ref:
        perfbench = {} if args.quick else record_perfbench(ref)
        cli = record_cli(ref, QUICK_SCENARIOS if args.quick else SCENARIOS)
        record = {
            **provenance(),
            "quick": args.quick,
            "env": ref.info["env"],
            "perfbench": perfbench,
            "cli": {**cli, "rss_scaling": rss_scaling(cli)} if "10x" in cli else cli,
            "reference_s": {**summary(ref.times), "fast_phase": ref.info["fast_phase_s"]},
        }
    record["correct"] = all(part["correct"] for part in (*perfbench.values(), *cli.values()))
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}: correct {str(record['correct']).lower()}")
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
