"""Smoke test of scripts/quality_record.py: one seed of a 40/8/8 scenario at 2 epochs, in
each of its two sweeps.  It checks the record's shape, never its quality values."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "quality_record.py"
SPREAD = {"median", "min", "max"}
SMALL = {"synth": {"helicopters": 40, "ga": 8, "commercial": 8}, "training": {"epochs": 2}}


@pytest.fixture(scope="module")
def recorder():
    spec = importlib.util.spec_from_file_location("quality_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spread_is_median_and_range_of_the_known_values(recorder):
    assert recorder.spread([3.0, None, 1.0, 2.0]) == {"median": 2.0, "min": 1.0, "max": 3.0}
    assert recorder.spread([None]) is None


def assert_record_schema(recorder, record, config):
    """A one-seed record of config, with seed 1, in the schema of every sweep."""
    assert set(record) == {"config", "correct", "seeds", "summary"}
    assert record["config"] == config and record["correct"] is True
    [run] = record["seeds"]
    assert set(run) == {"seed", "correct", "digests", "mae_threshold", "precision", "recall",
                        "unclassifiable", "pass", "unmatched", "gate_margin", "held_out"}
    assert run["seed"] == 1 and run["correct"] is True and run["held_out"] is None
    assert set(run["digests"]) == set(recorder.bench.BYTE_COMPARED)
    assert set(run["pass"]) == {"typed_helicopters", "hidden_type_helicopters", "fixed_wing"}
    for rate in run["pass"].values():
        assert set(rate) == {"passed", "of"} and 0 <= rate["passed"] <= rate["of"]
    for key in ("unclassifiable", "unmatched"):
        assert isinstance(run[key], int)
    for key in ("mae_threshold", "gate_margin"):
        assert isinstance(run[key], float)

    assert set(record["summary"]) == {
        "mae_threshold", "precision", "recall", "unclassifiable", "unmatched", "gate_margin",
        "typed_helicopters_pass_rate", "hidden_type_helicopters_pass_rate", "fixed_wing_pass_rate"}
    for name, spread in record["summary"].items():
        assert spread is None or set(spread) == SPREAD, name


def test_one_seed_record_has_the_schema(recorder):
    with recorder.bench.Reference() as ref:
        record = recorder.record(ref, SMALL, seeds=(1,))
    assert_record_schema(recorder, record, SMALL)


def test_the_initialisation_sweep_sets_only_the_model_seeds_on_its_scenario(recorder):
    assert recorder.init_seeded(SMALL, 3) == {
        "synth": {**SMALL["synth"], "seed": recorder.INIT_SCENARIO_SEED},
        "autoencoder": {"seed": 3}, "training": {**SMALL["training"], "seed": 3}}


def test_the_initialisation_block_has_the_schema(recorder, monkeypatch):
    monkeypatch.setattr(recorder, "PROFILES", {"small": SMALL})
    with recorder.bench.Reference() as ref:
        block = recorder.initialisation(ref, seeds=(1,))
    assert set(block) == {"synth_seed", "profiles"} and block["synth_seed"] == 4
    assert set(block["profiles"]) == {"small"}
    assert_record_schema(recorder, block["profiles"]["small"], SMALL)
