"""Smoke test of scripts/bench_record.py in quick mode: one CLI pass over a 40/8/8
scenario at 2 epochs, no perfbench.  It checks the record's shape, never its timings."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_record as recorder

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
SUMMARY = {"median", "iqr", "n"}


def is_summary(d, n):
    return (set(d) == SUMMARY and d["n"] == n
            and all(isinstance(d[k], float) for k in ("median", "iqr")))


def test_summary_is_median_and_inclusive_quartile_range():
    assert recorder.summary([4.0, 1.0, 3.0, 2.0]) == {"median": 2.5, "iqr": 1.5, "n": 4}
    assert recorder.summary([2.0]) == {"median": 2.0, "iqr": 0.0, "n": 1}


def test_metrics_are_summarised_over_the_runs_with_their_units():
    # fake traced runs, as perfbench_run returns them: one lacks a metric, one failed outright
    runs = [{"metrics": {"a_us": {"value": v, "unit": "us"}, "calls": {"value": 4, "unit": "count"}}}
            for v in (3.0, 1.0, 2.0)]
    runs[2]["metrics"].pop("calls")
    runs.append({"seed": 4, "correct": False})
    assert recorder.summarised(runs, ("a_us", "calls", "absent")) == {
        "a_us": {"median": 2.0, "iqr": 1.0, "n": 3, "unit": "us"},
        "calls": {"median": 4.0, "iqr": 0.0, "n": 2, "unit": "count"},
    }


def test_rss_scaling_is_each_stages_10x_median_peak_over_its_default_one():
    def peaks(**medians):
        return {"stages": {stage: {"peak_rss_mb": {"median": mb, "iqr": 0.0, "n": 1}}
                           for stage, mb in medians.items()}}
    # a 10x pass that stopped early times fewer stages
    cli = {"default": peaks(train=40.0, classify=32.0), "10x": peaks(train=80.0)}
    assert recorder.rss_scaling(cli) == {"train": 2.0}
    cli["10x"] = peaks(train=80.0, classify=40.0)
    assert recorder.rss_scaling(cli) == {"train": 2.0, "classify": 1.25}


READ = ("src/a.py", "scripts/b.py", "perfbench/c.py", "BENCHMARK.json")


@pytest.fixture
def scratch(tmp_path, monkeypatch):
    """A committed repository of the files a record reads and a README, as the recorder's
    ROOT; returns the git command line that works in it."""
    if shutil.which("git") is None:
        pytest.skip("needs git")
    for name in (*READ, "README.md"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text("0\n", encoding="utf-8")
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
           "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "."], ["commit", "-qm", "records read these"]):
        subprocess.run([*git, *args], check=True, capture_output=True)
    monkeypatch.setattr(recorder, "ROOT", tmp_path)
    return git


def test_git_dirty_covers_every_tracked_file_a_record_reads(scratch, tmp_path):
    assert recorder.provenance()["git_dirty"] is False
    for name in (*READ, "README.md"):
        (tmp_path / name).write_text("1\n", encoding="utf-8")
        assert recorder.provenance()["git_dirty"] is (name in READ), name
        subprocess.run([*scratch, "checkout", "-q", "--", name], check=True)
    # an untracked script is code a record may have run, so it counts too
    clean = recorder.provenance()
    (tmp_path / "scripts" / "x.py").write_text("0\n", encoding="utf-8")
    untracked = recorder.provenance()
    assert untracked["git_dirty"] is True
    assert untracked["code_sha256"] != clean["code_sha256"]
    assert untracked["src_sha256"] == clean["src_sha256"]


def test_code_digest_covers_every_file_a_record_reads(scratch, tmp_path):
    """code_sha256 changes with any file a record reads; src_sha256 with the sources only."""
    clean = recorder.provenance()
    for name in (*READ, "README.md"):
        (tmp_path / name).write_text("1\n", encoding="utf-8")
        edited = recorder.provenance()
        assert (edited["code_sha256"] != clean["code_sha256"]) is (name in READ), name
        assert (edited["src_sha256"] != clean["src_sha256"]) is name.startswith("src/"), name
        subprocess.run([*scratch, "checkout", "-q", "--", name], check=True)


def test_quick_record_has_the_schema(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, str(SCRIPT), "--quick", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text(encoding="utf-8"))

    assert set(record) == {"git_head", "git_dirty", "src_sha256", "code_sha256", "quick", "env",
                           "perfbench", "cli", "reference_s", "correct"}
    assert record["quick"] is True and record["correct"] is True
    assert record["perfbench"] == {}
    assert len(record["src_sha256"]) == len(record["code_sha256"]) == 64
    assert set(record["env"]) == {"python", "numpy", "blas", "blas_threads", "nproc"}
    assert is_summary({k: v for k, v in record["reference_s"].items() if k != "fast_phase"},
                      len(recorder.TIMED) + 1)   # one time before the first stage, one after each

    assert set(record["cli"]) == {"quick"}
    quick = record["cli"]["quick"]
    assert set(quick) == {"config", "correct", "digests", "stages", "total_wall_s",
                          "peak_rss_mb", "runs"}
    assert quick["correct"] is True
    assert quick["config"] == {"synth": {"helicopters": 40, "ga": 8, "commercial": 8},
                               "training": {"epochs": 2}}
    assert set(quick["digests"]) == set(recorder.BYTE_COMPARED)
    assert all(len(d) == 64 for d in quick["digests"].values())
    # the six stages, then train again with the sidecar the first one wrote
    assert list(quick["stages"]) == [*recorder.STAGES, "warm_train"] == list(recorder.TIMED)
    for stage in quick["stages"].values():
        assert set(stage) == {"wall_s", "scaled_wall_s", "peak_rss_mb"}
        assert all(is_summary(s, 1) for s in stage.values())
    assert is_summary(quick["total_wall_s"], 1) and is_summary(quick["peak_rss_mb"], 1)
    [run] = quick["runs"]
    assert [(name, s["exit"]) for name, s in run["stages"].items()] == \
        [(name, 0) for name in recorder.TIMED]
    # the totals are the six stages', as in records made before warm_train
    assert quick["total_wall_s"]["median"] == sum(run["stages"][s]["wall_s"]
                                                  for s in recorder.STAGES)
    assert quick["peak_rss_mb"]["median"] == max(run["stages"][s]["peak_rss_mb"]
                                                 for s in recorder.STAGES)
    # each stage is scaled by the reference times just before and after it
    reference, fast = run["reference_s"], record["reference_s"]["fast_phase"]
    assert len(reference) == len(recorder.TIMED) + 1
    for i, stage in enumerate(run["stages"].values()):
        want = stage["wall_s"] * fast * 2.0 / (reference[i] + reference[i + 1])
        assert stage["scaled_wall_s"] == pytest.approx(want, rel=1e-12)
