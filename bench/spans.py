"""Spans around calls into regforge's modules, recorded from outside them.

A traced run installs a timing wrapper on every public function of the nine
regforge modules, in every namespace that binds it (``from .lti import
is_hurwitz`` in ``riccati`` is a separate binding, so it is wrapped there
too), plus a few methods that carry real work. Each call appends one span
``[name, start, end, parent, op, info]`` to an in-memory list; ``parent`` is
the index of the enclosing span (or -1) and ``op`` the benchmark's op id.
Nothing is written until the run ends.

The wrappers are installed only around traced ops, so untraced ops run the
program unmodified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

LAYERS = ("lti", "plant", "riccati", "observer", "sim", "scenario", "output", "report", "cli")

# Methods that do a layer's work but are not module-level functions.
METHODS = {
    ("lti", "Polynomial"): ("roots",),
    ("plant", "TurbineParams"): ("__post_init__",),
    ("plant", "GeneratorParams"): ("__post_init__",),
    ("riccati", "CostWeights"): ("__init__",),
    ("report", "RunReport"): (
        "add_line", "add_tf", "add_ss", "add_gain", "add_stability",
        "add_metrics", "add_electrical", "warn", "to_text",
    ),
}

# format_value runs once per CSV cell; a span per cell would cost more than
# the write it measures, so its time stays inside write_timeseries_csv.
UNTRACED = {"output.format_value"}


def _simulate_info(args, kwargs, result):
    return {"steps": result.n_samples - 1, "n": int(args[0].n_states), "diverged": bool(result.diverged)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


INFO = {
    "riccati.solve_care": lambda args, kwargs, result: {"iterations": int(result.iterations)},
    "sim.simulate": _simulate_info,
    "output.write_timeseries_csv": _file_bytes,
    "output.read_timeseries_csv": _file_bytes,
    "output.line_chart_svg": lambda args, kwargs, result: {"bytes": len(result.encode("utf-8"))},
}


class Tracer:
    """Collects spans; install() wraps regforge, uninstall() restores it."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: dict[object, object] = {}

    def _wrap(self, name: str, fn):
        spans, stack, info = self.spans, self._stack, INFO.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[2] = clock()
                stack.pop()
                rec[5] = {"error": True}
                raise
            rec[2] = clock()
            stack.pop()
            if info is not None:
                rec[5] = info(args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        package = importlib.import_module("regforge")
        modules = {layer: importlib.import_module(f"regforge.{layer}") for layer in LAYERS}
        for namespace in (package, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                name = f"{layer}.{obj.__name__}"
                if obj.__module__ != f"regforge.{layer}" or layer not in modules or name in UNTRACED:
                    continue
                if obj not in self._wrappers:
                    self._wrappers[obj] = self._wrap(name, obj)
                self._set(namespace, attr, self._wrappers[obj])
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for method in methods:
                original = cls.__dict__[method]
                if original not in self._wrappers:
                    self._wrappers[original] = self._wrap(f"{layer}.{cls_name}.{method}", original)
                self._set(cls, method, self._wrappers[original])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def absorb(self, child_spans: list[list], op: int) -> None:
        """Append spans recorded in a child process under op id ``op``."""
        base = len(self.spans)
        for name, start, end, parent, _, info in child_spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op, info])


def _outermost_ms(spans, by_name, name: str) -> float:
    """Summed duration in ms of ``name`` spans not nested in another ``name`` span."""
    total = 0.0
    for idx in by_name.get(name, ()):
        rec = spans[idx]
        parent = rec[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total += rec[2] - rec[1]
    return 1e3 * total


def layer_metrics(spans: list[list], n_ops: int, extra: dict[str, float]) -> dict[str, float]:
    """Per-layer figures per traced op, from spans and run-level extras.

    Times are milliseconds per op. ``<layer>.self_ms`` is the layer's span
    time minus the part its child spans cover. ``extra`` carries the values
    only the harness knows (overhead, child start-up).
    """
    n_ops = max(n_ops, 1)
    by_name: dict[str, list[int]] = {}
    child_time = [0.0] * len(spans)
    for idx, rec in enumerate(spans):
        by_name.setdefault(rec[0], []).append(idx)
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
    self_ms = dict.fromkeys(LAYERS, 0.0)
    for rec, covered in zip(spans, child_time):
        self_ms[rec[0].partition(".")[0]] += 1e3 * (rec[2] - rec[1] - covered) / n_ops

    def named(name):
        return [spans[idx] for idx in by_name.get(name, ())]

    def per_op_ms(name):
        return _outermost_ms(spans, by_name, name) / n_ops

    def per_op_calls(name):
        return len(by_name.get(name, ())) / n_ops

    def info_per_op(name, key):
        return sum(rec[5][key] for rec in named(name) if rec[5] and key in rec[5]) / n_ops

    care = named("riccati.solve_care")
    iterations = [rec[5]["iterations"] for rec in care if rec[5] and "iterations" in rec[5]]
    sims = [rec for rec in named("sim.simulate") if rec[5] and "steps" in rec[5]]
    steps = sum(rec[5]["steps"] for rec in sims)
    sim_s = sum(rec[2] - rec[1] for rec in sims)
    # One RK4 step is x <- Mx + g, y = c.x + d: 2n^2 + 2n flops. Computed
    # from n and the step count, not counted by hardware.
    flops = sum(rec[5]["steps"] * (2 * rec[5]["n"] ** 2 + 2 * rec[5]["n"]) for rec in sims)
    # Returned arrays: times, inputs and outputs (one float each per sample)
    # plus n states per sample. Computed, not measured.
    bytes_out = sum(8 * (rec[5]["steps"] + 1) * (rec[5]["n"] + 3) for rec in sims)

    out = {
        "lti.self_ms": self_ms["lti"],
        "lti.roots_ms": per_op_ms("lti.Polynomial.roots"),
        "lti.roots_calls": per_op_calls("lti.Polynomial.roots"),
        "lti.hurwitz_calls": per_op_calls("lti.is_hurwitz"),
        "plant.self_ms": self_ms["plant"],
        "riccati.self_ms": self_ms["riccati"],
        "riccati.weights_ms": per_op_ms("riccati.CostWeights.__init__"),
        "riccati.solve_care_ms": per_op_ms("riccati.solve_care"),
        "riccati.solve_care_calls": per_op_calls("riccati.solve_care"),
        "riccati.nk_iterations_mean": sum(iterations) / len(iterations) if iterations else 0.0,
        "riccati.failed": sum(1 for rec in care if rec[5] and rec[5].get("error")) / n_ops,
        "observer.self_ms": self_ms["observer"],
        "observer.place_poles_calls": per_op_calls("observer.place_poles"),
        "sim.self_ms": self_ms["sim"],
        "sim.simulate_ms": 1e3 * sim_s / n_ops,
        "sim.steps": steps / n_ops,
        "sim.us_per_step": 1e6 * sim_s / steps if steps else 0.0,
        "sim.diverged_runs": sum(1 for rec in sims if rec[5]["diverged"]) / n_ops,
        "sim.step_metrics_ms": per_op_ms("sim.step_metrics"),
        "sim.electrical_ms": per_op_ms("sim.electrical_trace"),
        "sim.flops": flops / n_ops,
        "sim.bytes_out": bytes_out / n_ops,
        "scenario.self_ms": self_ms["scenario"],
        "scenario.load_ms": per_op_ms("scenario.load_scenario") + per_op_ms("scenario.load_plant_params"),
        "output.self_ms": self_ms["output"],
        "output.csv_write_ms": per_op_ms("output.write_timeseries_csv"),
        "output.csv_write_bytes": info_per_op("output.write_timeseries_csv", "bytes"),
        "output.csv_read_ms": per_op_ms("output.read_timeseries_csv"),
        "output.csv_read_bytes": info_per_op("output.read_timeseries_csv", "bytes"),
        "output.svg_ms": per_op_ms("output.line_chart_svg"),
        "output.svg_bytes": info_per_op("output.line_chart_svg", "bytes"),
        "report.render_ms": self_ms["report"],
        "cli.self_ms": self_ms["cli"],
    }
    out.update(extra)
    return out
