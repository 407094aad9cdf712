"""The benchmark in perfbench/ imports the library and traces its functions by
name, so a library change that renames or drops one of them breaks it; these
checks fail first."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench/ on the import path, and its modules imported afresh and dropped after."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("pipeline", "gen", "tracing"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("pipeline"), importlib.import_module("tracing")
    for name in ("pipeline", "gen", "tracing"):
        sys.modules.pop(name, None)


def test_tracer_installs_on_every_traced_name_and_uninstalls(perfbench):
    _, tracing = perfbench
    originals = {layer: {name: getattr(importlib.import_module(f"rotortrack.{layer}"), name)
                         for name in names if "." not in name}
                 for layer, names in tracing.TRACED.items()}
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    for layer, functions in originals.items():
        module = importlib.import_module(f"rotortrack.{layer}")
        for name, fn in functions.items():
            assert getattr(module, name) is fn, f"{layer}.{name} still wrapped"


def test_every_library_name_the_pipeline_uses_exists(perfbench):
    pipeline, _ = perfbench
    aliases = {"ae": "autoencoder", "idf": "identify", "rs": "runwayscore", "td": "trackdata",
               "vl": "validate"}
    tree = ast.parse((PERFBENCH / "pipeline.py").read_text(encoding="utf-8"))
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases}
    assert used
    missing = [f"{alias}.{attr}" for alias, attr in sorted(used)
               if not hasattr(getattr(pipeline, alias), attr)]
    assert not missing, f"perfbench/pipeline.py uses names the library lacks: {missing}"


def test_the_pipeline_stages_run_on_a_tiny_scenario(perfbench, tmp_path):
    """The benchmark's own calls, run end to end: a changed signature fails here, not
    only when the benchmark runs."""
    pipeline, _ = perfbench
    pipeline.gen.generate(tmp_path, 1, {"helicopter": 40, "ga": 4, "commercial": 4})
    labels, model = tmp_path / "labels.csv", tmp_path / "model.rtae"
    trained = pipeline.stage_train(tmp_path, labels, model, pipeline.ae.TrainConfig(epochs=2))
    assert trained["epochs"] == 2
    pipeline.stage_calibrate(tmp_path, labels, model, tmp_path / "thresholds.json")
    classified = pipeline.stage_classify(tmp_path)
    assert classified["errors"] == {}
    assert classified["results"]
    validated = pipeline.stage_validate(tmp_path, classified["results"],
                                        classified["unclassifiable"])
    assert validated["records"] == len(classified["results"])
