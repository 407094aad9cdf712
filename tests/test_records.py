"""The BENCH_*.json and QUALITY_*.json records at the repository root are evidence of runs
that passed: each parses as JSON, reports "correct": true and names the commit and code it
was written from, and a BENCH record is a full one, not a --quick smoke run."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json")) + sorted(ROOT.glob("QUALITY_*.json"))


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_a_committed_record_is_of_a_run_that_passed(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["correct"] is True
    assert all(record.get(key) is not None for key in ("git_head", "git_dirty", "src_sha256"))
    if path.name.startswith("BENCH_"):
        assert record["quick"] is False
