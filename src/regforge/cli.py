"""Command line surface.

Subcommands:

* ``plant``       derive the turbine-generator models from a parameter file
* ``synthesize``  compute LQR / observer-based controller gains for a scenario
* ``simulate``    run a scenario and emit CSV/SVG artifacts plus a report
* ``metrics``     step-response figures for a previously written trajectory CSV
* ``reproduce``   rebuild the published figures 4-8 from scratch

Exit codes: 0 success, 1 validation error, 2 numerical failure (including
a diverged simulation), 3 I/O error. The default output directory comes
from ``--out``, then the ``REGFORGE_OUT`` environment variable, then the
working directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import NumericalError, ValidationError
from .report import RunReport, fmt, fmt_vector
from .sim import SimConfig, step_metrics

# Each command imports the other modules it runs when it runs: a `metrics`
# process loads no model, synthesis or scenario code, and `plant` no
# `output`. tests/test_cli.py (TestImportOnUse) pins both module sets.

REPRODUCE_INFLOW = 5.0
REPRODUCE_REFERENCE = 220.0
STABLE_OBSERVER_POLES = (-5.0, -6.0)
FORMAT_KINDS = {"csv": ("csv",), "svg": ("svg",), "both": ("csv", "svg")}


class _Parser(argparse.ArgumentParser):
    # Argparse normally exits(2) on usage errors; route them through the
    # validation exit code instead.
    def error(self, message):
        raise ValidationError(message)


def _preset_name(name: str) -> str:
    # A type, not choices=PRESETS: choices would import `plant` (and `lti`)
    # to build the parser of every command.
    from .plant import PRESETS

    if name not in PRESETS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from {', '.join(map(repr, PRESETS))})")
    return name


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="regforge", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", help="output directory (default: $REGFORGE_OUT or .)")
        p.add_argument("--format", choices=tuple(FORMAT_KINDS),
                       help="artifact format for trajectory outputs (default: the "
                            "scenario's outputs; csv for reproduce)")

    p_plant = sub.add_parser("plant", help="derive plant models from physical parameters")
    p_plant.add_argument("--params", help="parameter file (defaults to the reference set)")
    p_plant.add_argument("--inflow", type=float, default=REPRODUCE_INFLOW,
                         help="steam inflow [g/s] for the steady-state report")
    p_plant.set_defaults(func=cmd_plant)

    p_syn = sub.add_parser("synthesize", help="compute controller gains for a scenario")
    p_syn.add_argument("--scenario", required=True, help="scenario file")
    p_syn.set_defaults(func=cmd_synthesize)

    p_sim = sub.add_parser("simulate", help="run a scenario and write trajectory artifacts")
    p_sim.add_argument("--scenario", required=True, help="scenario file")
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_met = sub.add_parser("metrics", help="step metrics for a written trajectory CSV")
    p_met.add_argument("csv", help="trajectory CSV produced by simulate/reproduce")
    p_met.set_defaults(func=cmd_metrics)

    p_rep = sub.add_parser("reproduce", help="rebuild a published figure from scratch")
    p_rep.add_argument("--figure", type=int, required=True, choices=(4, 5, 6, 7, 8))
    p_rep.add_argument("--preset", type=_preset_name,
                       help="plant model preset, as plant.preset in a scenario "
                            "(default: run both and report both)")
    p_rep.add_argument("--controller", choices=("lqr", "observer", "both"),
                       help="closed-loop design(s) for figure 8 only (default: both)")
    add_common(p_rep)
    p_rep.set_defaults(func=cmd_reproduce)

    return parser


def _out_dir(args) -> Path:
    out = getattr(args, "out", None) or os.environ.get("REGFORGE_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_artifacts(args, run, ylabel: str, svg_series=None, svg_title="") -> list:
    from .output import line_chart_svg, open_artifact, write_timeseries_csv

    name = run.scenario.name
    # --format, when given, decides; otherwise the scenario's outputs do.
    kinds = run.scenario.outputs if args.format is None else FORMAT_KINDS[args.format]
    out = _out_dir(args)
    written = []
    if "csv" in kinds:
        csv_path = out / f"{name}.csv"
        write_timeseries_csv(csv_path, run.series, run.electrical)
        written.append(csv_path)
    if "svg" in kinds:
        svg_path = out / f"{name}.svg"
        data = svg_series or [("y", run.series.times, run.series.outputs)]
        svg = line_chart_svg(data, title=svg_title or name, xlabel="time [s]", ylabel=ylabel)
        with open_artifact(svg_path) as fh:
            fh.write(svg)
        written.append(svg_path)
    return written


def _efficiency_warnings(report: RunReport, params) -> None:
    from .plant import PUBLISHED_OPEN_LOOP, steady_state_report

    rep = steady_state_report(params, REPRODUCE_INFLOW)
    pub = PUBLISHED_OPEN_LOOP
    if abs(rep.efficiency - pub["efficiency"]) > 0.01:
        report.warn(
            f"computed efficiency {fmt(rep.efficiency)} % (output {fmt(rep.p_out)} W / "
            f"input {fmt(rep.p_in)} W at {REPRODUCE_INFLOW:g} g/s) does not match the "
            f"published {fmt(pub['efficiency'])} % ({fmt(pub['p_out'])} W / "
            f"{fmt(pub['p_in'])} W); the published input power and efficiency are not "
            f"reproducible from the circuit equations"
        )


# --------------------------------------------------------------------------
# plant


def cmd_plant(args) -> int:
    from .lti import dc_gain, is_hurwitz, tf_to_ss
    from .plant import (
        REFERENCE_PARAMS,
        generator_tf,
        plant_tf,
        rounded_plant_tf,
        steady_state_report,
        turbine_tf,
    )

    if args.params:
        from .scenario import load_plant_params

        params = load_plant_params(args.params)
    else:
        params = REFERENCE_PARAMS
    report = RunReport(scenario="plant derivation")

    exact = plant_tf(params)
    report.add_tf("turbine", turbine_tf(params.turbine))
    report.add_tf("generator", generator_tf(params.generator))
    report.add_tf("plant (exact)", exact)
    report.add_tf("plant (exact, monic)", exact.normalized())
    report.add_tf("plant (paper-rounded reference)", rounded_plant_tf())
    report.add_ss("state space (exact, controllable canonical)", tf_to_ss(exact))
    report.add_line(f"dc gain (exact)        = {fmt(dc_gain(exact))}")
    report.add_line(f"dc gain (paper-rounded) = {fmt(dc_gain(rounded_plant_tf()))}")
    report.add_stability("plant", is_hurwitz(exact.den))

    report.add_line()
    report.add_line(f"steady state at {args.inflow:g} g/s:")
    report.add_electrical(steady_state_report(params, args.inflow))
    _efficiency_warnings(report, params)
    print(report.to_text(), end="")
    return 0


# --------------------------------------------------------------------------
# synthesize


def _add_plant(report: RunReport, scn) -> None:
    """The plant's transfer function and stability lines; a zero-state plant is stable."""
    from .lti import char_poly, is_hurwitz

    report.add_tf("plant", scn.plant_tf)
    report.add_stability("plant", is_hurwitz(char_poly(scn.plant_model.a))
                         if scn.plant_model.n_states else True)


def cmd_synthesize(args) -> int:
    from .lti import eigenvalues
    from .scenario import closed_loop, load_scenario

    scn = load_scenario(args.scenario)
    spec = scn.controller
    if spec.kind not in ("lqr", "observer"):
        raise ValidationError("synthesize needs a scenario with an lqr or observer controller")
    report = RunReport(scenario=scn.name)
    _add_plant(report, scn)

    loop = closed_loop(scn)
    care, observer = loop.care, loop.observer
    report.add_gain("K", care.k)
    report.add_line(f"CARE residual      : {care.residual_norm:.3e} "
                    f"({care.iterations} iterations)")
    # Without an observer the loop matrix is A - BK itself.
    report.add_stability("A-BK", observer.audit.state_feedback_hurwitz if observer else loop.hurwitz)

    if observer is not None:
        report.add_line(f"convention         : {observer.convention}")
        report.add_ss("compensator", observer.model)
        report.add_line(f"A-HC char poly     : {observer.audit.error_poly}")
        report.add_stability("A-HC", observer.audit.error_hurwitz)
        eig = np.sort_complex(eigenvalues(loop.model.a))
        eig = np.where(np.abs(eig.imag) < 1e-9, eig.real + 0.0j, eig)
        labels = [f"{z.real:.4g}" if z.imag == 0 else f"{z.real:.4g}{z.imag:+.4g}j" for z in eig]
        report.add_line("closed-loop eigenvalues (reported not asserted): "
                        + "[" + ", ".join(labels) + "]")
        report.add_stability("closed loop", loop.hurwitz)
        if not observer.audit.error_hurwitz:
            report.warn(
                "observer error dynamics A-HC are not Hurwitz with the supplied H; the "
                "standard observer architecture cannot settle and the published response "
                "is not reproducible with this gain"
            )
    print(report.to_text(), end="")
    return 0


# --------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    from .plant import steady_state_report
    from .scenario import load_scenario, run_scenario

    scn = load_scenario(args.scenario)
    spec = scn.controller
    report = RunReport(scenario=scn.name)
    _add_plant(report, scn)
    run = run_scenario(scn)

    loop = run.loop
    if spec.kind == "lqr":
        report.add_gain("K", loop.care.k)
        report.add_line(f"CARE residual      : {loop.care.residual_norm:.3e}")
    elif spec.kind == "observer":
        report.add_gain("K", loop.care.k)
        report.add_gain("H", spec.h)
        report.add_line(f"convention         : {loop.observer.convention}")
        report.add_stability("A-HC", loop.observer.audit.error_hurwitz)
    if loop is not None:
        if loop.prescaler is not None:
            report.add_line(f"reference prescaler N = {fmt(loop.prescaler)}")
        report.add_stability("closed loop", loop.hurwitz)
    if run.series.diverged:
        report.warn(f"simulation diverged at t = {run.series.times[-1]:.3f} s; series truncated")
    else:
        report.add_metrics(run.metrics)
    if spec.kind == "none" and scn.plant_params is not None:
        report.add_line()
        report.add_line(f"steady-state circuit report at {scn.sim.input_amplitude:g} g/s:")
        report.add_electrical(steady_state_report(scn.plant_params, scn.sim.input_amplitude))
        _efficiency_warnings(report, scn.plant_params)

    ylabel = "terminal voltage [V]" if spec.kind == "none" else "output voltage [V]"
    for f in _write_artifacts(args, run, ylabel):
        report.add_line(f"wrote {f}")
    print(report.to_text(), end="")
    return 2 if run.series.diverged else 0


# --------------------------------------------------------------------------
# metrics


def cmd_metrics(args) -> int:
    from .output import read_timeseries_csv

    series, _ = read_timeseries_csv(args.csv)
    report = RunReport(scenario=f"metrics {args.csv}")
    report.add_metrics(step_metrics(series))
    print(report.to_text(), end="")
    return 0


# --------------------------------------------------------------------------
# reproduce


def _open_loop_figure(args, figure: int, preset: str, report: RunReport) -> list:
    from .lti import dc_gain
    from .plant import PUBLISHED_OPEN_LOOP, REFERENCE_PARAMS, steady_state_report
    from .scenario import ControllerSpec, preset_scenario, run_scenario

    cfg = SimConfig(dt=1e-3, duration=20.0, input_amplitude=REPRODUCE_INFLOW)
    run = run_scenario(preset_scenario(f"figure{figure}-{preset}", preset, ControllerSpec(), cfg))
    tf = run.scenario.plant_tf
    elec = run.electrical
    circuit = steady_state_report(REFERENCE_PARAMS, REPRODUCE_INFLOW)

    report.add_line()
    report.add_line(f"[{preset}] plant: {tf}")
    report.add_line(f"[{preset}] simulated steady state: {fmt(run.metrics.steady_state)} V "
                    f"(dc chain: {fmt(dc_gain(tf) * REPRODUCE_INFLOW)} V)")
    if figure == 5:
        report.add_line(f"[{preset}] output power at steady state: {fmt(elec.p_out[-1])} W "
                        f"(published reading {fmt(PUBLISHED_OPEN_LOOP['p_out'])} W)")
    if figure == 6:
        report.add_line(f"[{preset}] induced EMF at steady state: {fmt(elec.e_g[-1])} V "
                        f"(derived value; the published trace has no readable axis)")
    if figure == 7:
        report.add_line(f"[{preset}] input power at steady state: {fmt(elec.p_in[-1])} W "
                        f"(published reading {fmt(PUBLISHED_OPEN_LOOP['p_in'])} W)")
    report.add_line(f"[{preset}] circuit efficiency: {fmt(circuit.efficiency)} %")

    ylabel, svg_series = {
        4: ("terminal voltage [V]", [("v_out", elec.times, run.series.outputs)]),
        5: ("output power [W]", [("p_out", elec.times, elec.p_out)]),
        6: ("induced EMF [V]", [("e_g", elec.times, elec.e_g)]),
        7: ("input power [W]", [("p_in", elec.times, elec.p_in)]),
    }[figure]
    return _write_artifacts(args, run, ylabel, svg_series, svg_title=f"figure {figure} ({preset})")


def _figure8_legs(args, preset: str, report: RunReport) -> list:
    from .observer import design_observer_gain
    from .scenario import ControllerSpec, preset_scenario, run_scenario

    cfg = SimConfig(dt=1e-3, duration=15.0)
    ylabel = "output voltage [V]"
    legs = args.controller or "both"
    files = []

    def leg(name: str, spec):
        return run_scenario(preset_scenario(f"figure8-{name}-{preset}", preset, spec, cfg,
                                            REPRODUCE_REFERENCE))

    if legs in ("lqr", "both"):
        # The paper's figure-8 LQR weights.
        run = leg("lqr", ControllerSpec(kind="lqr", q_diag=np.array([3.0, 3.0]), r=5.0))
        report.add_line()
        report.add_line(f"[{preset}] lqr leg: K = {fmt_vector(run.loop.care.k)}, "
                        f"N = {fmt(run.loop.prescaler)}")
        report.add_metrics(run.metrics)
        files += _write_artifacts(args, run, ylabel, svg_title=f"figure 8 lqr ({preset})")

    if legs in ("observer", "both"):
        # The paper's observer weights with its published observer gain H.
        spec = ControllerSpec(kind="observer", q_diag=np.array([8.0, 8.0]), r=1.0,
                              h=np.array([2.0, -0.5]))
        run = leg("observer-published", spec)
        report.add_line()
        audit = run.loop.observer.audit
        report.add_line(f"[{preset}] observer leg: K = {fmt_vector(run.loop.care.k)}, published H = "
                        f"{fmt_vector(spec.h)}")
        report.add_line(f"[{preset}] A-HC char poly: {audit.error_poly}")
        report.add_stability("A-HC (published H)", audit.error_hurwitz)
        if run.series.diverged:
            report.warn(
                f"[{preset}] published-H observer loop diverged at "
                f"t = {run.series.times[-1]:.3f} s; the published 7 s settling time is "
                f"not reproducible under the standard observer architecture"
            )
        else:
            report.add_metrics(run.metrics)
        files += _write_artifacts(args, run, ylabel,
                                  svg_title=f"figure 8 observer, published H ({preset})")

        plant = run.scenario.plant_model
        h_stable = design_observer_gain(plant.a, plant.c, STABLE_OBSERVER_POLES)
        run = leg("observer-stable", replace(spec, h=h_stable))
        report.add_line(f"[{preset}] stable replacement H = {fmt_vector(h_stable)} "
                        f"(error poles {STABLE_OBSERVER_POLES})")
        report.add_metrics(run.metrics)
        files += _write_artifacts(args, run, ylabel,
                                  svg_title=f"figure 8 observer, stable H ({preset})")
    return files


def cmd_reproduce(args) -> int:
    from .plant import PRESETS, REFERENCE_PARAMS

    if args.controller is not None and args.figure != 8:
        raise ValidationError(f"--controller selects the legs of figure 8; figure {args.figure} has none")
    presets = [args.preset] if args.preset else list(PRESETS)
    report = RunReport(scenario=f"reproduce figure {args.figure}")
    files = []
    if args.figure in (4, 5, 6, 7):
        for preset in presets:
            files += _open_loop_figure(args, args.figure, preset, report)
        _efficiency_warnings(report, REFERENCE_PARAMS)
        if args.figure == 4:
            report.add_line()
            report.add_line(
                "note: the published trace reads 90 V, matching the paper-rounded gain; "
                "the exact gain 256/14 gives 91.43 V"
            )
    else:
        for preset in presets:
            files += _figure8_legs(args, preset, report)
    for f in files:
        report.add_line(f"wrote {f}")
    print(report.to_text(), end="")
    return 0


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return int(args.func(args) or 0)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
