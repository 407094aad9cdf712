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
