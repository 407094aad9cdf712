"""Smoke test of scripts/quality_record.py: one seed of a 40/8/8 scenario at 2 epochs, in
each cell of its grid.  It checks the record's shape, never its quality values."""

import pytest

import quality_record as recorder

SPREAD = {"median", "min", "max"}
SMALL = {"synth": {"helicopters": 40, "ga": 8, "commercial": 8}, "training": {"epochs": 2}}


def test_spread_is_median_and_range_of_the_known_values():
    assert recorder.spread([3.0, None, 1.0, 2.0]) == {"median": 2.0, "min": 1.0, "max": 3.0}
    assert recorder.spread([None]) is None


def _dotted(config: dict) -> dict:
    return {f"{section}.{key}": value
            for section, values in config.items() for key, value in values.items()}


@pytest.mark.parametrize("cell", recorder.GRID)
def test_a_run_config_differs_from_its_cell_config_only_in_the_seed_keys(cell):
    overlay, seed_keys = recorder.GRID[cell]
    for base in ({}, SMALL):
        config = recorder.overlaid(base, overlay)
        assert _dotted(config) == {**_dotted(base), **_dotted(overlay)}
        before = _dotted(config)
        run = recorder.seeded(config, seed_keys, 3)
        assert _dotted(config) == before   # the cell's config is left as it was
        assert _dotted(run) == {**before, **{key: 3 for key in seed_keys}}


def assert_record_schema(record, config, seed_keys):
    """A one-seed record of config, with seed 1, in the schema of every cell."""
    assert set(record) == {"config", "seed_keys", "correct", "seeds", "summary"}
    assert record["config"] == config and record["correct"] is True
    assert record["seed_keys"] == list(seed_keys)
    [run] = record["seeds"]
    assert set(run) == {"seed", "correct", "digests", "mae_threshold", "precision", "recall",
                        "unclassifiable", "pass", "unmatched", "gate_margin", "epochs_trained",
                        "kept_epoch"}
    assert run["seed"] == 1 and run["correct"] is True
    assert set(run["digests"]) == set(recorder.bench.BYTE_COMPARED)
    assert set(run["pass"]) == {"typed_helicopters", "hidden_type_helicopters", "fixed_wing"}
    for rate in run["pass"].values():
        assert set(rate) == {"passed", "of"} and 0 <= rate["passed"] <= rate["of"]
    for key in ("unclassifiable", "unmatched", "epochs_trained", "kept_epoch"):
        assert isinstance(run[key], int)
    assert run["epochs_trained"] == 2 and run["kept_epoch"] in (1, 2)   # SMALL's 2 epochs
    for key in ("mae_threshold", "gate_margin"):
        assert isinstance(run[key], float)

    assert set(record["summary"]) == {
        "mae_threshold", "precision", "recall", "unclassifiable", "unmatched", "gate_margin",
        "epochs_trained", "kept_epoch", "typed_helicopters_pass_rate", "hidden_type_helicopters_pass_rate", "fixed_wing_pass_rate"}
    for name, spread in record["summary"].items():
        assert spread is None or set(spread) == SPREAD, name


@pytest.mark.parametrize("cell", recorder.GRID)
def test_one_seed_of_a_cell_has_the_schema(cell):
    overlay, seed_keys = recorder.GRID[cell]
    config = recorder.overlaid(SMALL, overlay)
    with recorder.bench.Reference() as ref:
        record = recorder.record(ref, config, seed_keys, seeds=(1,))
    assert_record_schema(record, config, seed_keys)
