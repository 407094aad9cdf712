"""Smoke test of scripts/bench_record.py in quick mode: one CLI pass over a 40/8/8
scenario at 2 epochs, no perfbench.  It checks the record's shape, never its timings."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
SUMMARY = {"median", "iqr", "n"}


@pytest.fixture(scope="module")
def recorder():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def is_summary(d, n):
    return (set(d) == SUMMARY and d["n"] == n
            and all(isinstance(d[k], float) for k in ("median", "iqr")))


def test_summary_is_median_and_inclusive_quartile_range(recorder):
    assert recorder.summary([4.0, 1.0, 3.0, 2.0]) == {"median": 2.5, "iqr": 1.5, "n": 4}
    assert recorder.summary([2.0]) == {"median": 2.0, "iqr": 0.0, "n": 1}


def test_metrics_are_summarised_over_the_runs_with_their_units(recorder):
    # fake traced runs, as perfbench_run returns them: one lacks a metric, one failed outright
    runs = [{"metrics": {"a_us": {"value": v, "unit": "us"}, "calls": {"value": 4, "unit": "count"}}}
            for v in (3.0, 1.0, 2.0)]
    runs[2]["metrics"].pop("calls")
    runs.append({"seed": 4, "correct": False})
    assert recorder.summarised(runs, ("a_us", "calls", "absent")) == {
        "a_us": {"median": 2.0, "iqr": 1.0, "n": 3, "unit": "us"},
        "calls": {"median": 4.0, "iqr": 0.0, "n": 2, "unit": "count"},
    }


def test_quick_record_has_the_schema(recorder, tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, str(SCRIPT), "--quick", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text(encoding="utf-8"))

    assert set(record) == {"git_head", "git_dirty", "src_sha256", "quick", "env", "perfbench",
                           "cli", "reference_s", "correct"}
    assert record["quick"] is True and record["correct"] is True
    assert record["perfbench"] == {}
    assert len(record["src_sha256"]) == 64
    assert set(record["env"]) == {"python", "numpy", "blas", "blas_threads", "nproc"}
    assert is_summary({k: v for k, v in record["reference_s"].items() if k != "fast_phase"},
                      len(recorder.STAGES) + 1)   # one time before the first stage, one after each

    assert set(record["cli"]) == {"quick"}
    quick = record["cli"]["quick"]
    assert set(quick) == {"config", "correct", "digests", "stages", "total_wall_s",
                          "peak_rss_mb", "runs"}
    assert quick["correct"] is True
    assert quick["config"] == {"synth": {"helicopters": 40, "ga": 8, "commercial": 8},
                               "training": {"epochs": 2}}
    assert set(quick["digests"]) == set(recorder.BYTE_COMPARED)
    assert all(len(d) == 64 for d in quick["digests"].values())
    assert list(quick["stages"]) == list(recorder.STAGES)
    for stage in quick["stages"].values():
        assert set(stage) == {"wall_s", "scaled_wall_s", "peak_rss_mb"}
        assert all(is_summary(s, 1) for s in stage.values())
    assert is_summary(quick["total_wall_s"], 1) and is_summary(quick["peak_rss_mb"], 1)
    [run] = quick["runs"]
    assert [(name, s["exit"]) for name, s in run["stages"].items()] == \
        [(name, 0) for name in recorder.STAGES]
    # each stage is scaled by the reference times just before and after it
    reference, fast = run["reference_s"], record["reference_s"]["fast_phase"]
    assert len(reference) == len(recorder.STAGES) + 1
    for i, stage in enumerate(run["stages"].values()):
        want = stage["wall_s"] * fast * 2.0 / (reference[i] + reference[i + 1])
        assert stage["scaled_wall_s"] == pytest.approx(want, rel=1e-12)
