"""The benchmark's tracer (bench/spans.py) against the names it wraps.

A traced benchmark run wraps every public function of the modules in
``spans.LAYERS`` and the methods in ``spans.METHODS``. A rename or removal
in regforge that breaks that list fails here, not only in a traced run.
"""

import importlib
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bindings(namespaces) -> dict:
    return {(id(ns), attr): obj for ns in namespaces for attr, obj in vars(ns).items()}


def test_tracer_installs_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    modules = {layer: importlib.import_module(f"regforge.{layer}") for layer in spans.LAYERS}
    classes = [getattr(modules[layer], name) for layer, name in spans.METHODS]
    namespaces = [importlib.import_module("regforge"), *modules.values(), *classes]
    before = _bindings(namespaces)

    tracer = spans.Tracer()
    tracer.install()
    try:
        for (layer, name), methods in spans.METHODS.items():
            cls = getattr(modules[layer], name)
            for method in methods:
                assert vars(cls)[method] is not before[(id(cls), method)], f"{layer}.{name}.{method}"
        modules["lti"].char_poly(np.eye(2))
        assert [span[0] for span in tracer.spans] == ["lti.char_poly"]
    finally:
        tracer.uninstall()

    after = _bindings(namespaces)
    assert after.keys() == before.keys()
    assert [key for key, obj in before.items() if after[key] is not obj] == []


def test_tracer_sees_calls_through_on_use_imports(monkeypatch, capsys, tmp_path):
    # The CLI imports most modules inside its commands; those imports read the
    # module's binding, which the tracer has wrapped, so the calls are traced.
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    from regforge import cli

    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "open-loop.cfg"
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path)]) == 0
        simulate_names = {span[0] for span in tracer.spans}
        tracer.spans.clear()
        assert cli.main(["metrics", str(tmp_path / "open-loop.csv")]) == 0
        metrics_names = {span[0] for span in tracer.spans}
    finally:
        tracer.uninstall()
    capsys.readouterr()

    assert {"scenario.load_scenario", "scenario.run_scenario", "sim.simulate",
            "output.write_timeseries_csv"} <= simulate_names
    assert {"output.read_csv_columns", "output.column_step_metrics", "cli.cmd_metrics"} <= metrics_names
