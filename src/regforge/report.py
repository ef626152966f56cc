"""Structured run reports rendered as deterministic plain text.

Every number in a report is recomputed from library calls at run time;
published readings appear only inside discrepancy warnings, clearly
labeled as published values next to the recomputed ones.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .steps import SETTLING_BAND

if TYPE_CHECKING:  # annotations only: a `metrics` report loads no numpy and no model code
    from .lti import StateSpaceModel, TransferFunction
    from .plant import ElectricalReport
    from .steps import StepMetrics

__all__ = ["RunReport", "fmt", "fmt_matrix", "fmt_vector"]


def fmt(x: float) -> str:
    return f"{float(x):.6g}"


def fmt_vector(v) -> str:
    import numpy as np

    return "[" + ", ".join(fmt(x) for x in np.asarray(v).ravel()) + "]"


def fmt_matrix(m) -> str:
    import numpy as np

    m = np.atleast_2d(np.asarray(m))
    return "[" + "; ".join(", ".join(fmt(x) for x in row) for row in m) + "]"


def _fmt_ss(ss: StateSpaceModel) -> list[str]:
    return [
        f"  A = {fmt_matrix(ss.a)}",
        f"  B = {fmt_matrix(ss.b)}",
        f"  C = {fmt_matrix(ss.c)}",
        f"  D = {fmt_matrix(ss.d)}",
    ]


class RunReport:
    """Accumulates the facts of one command invocation.

    A plain class, not a dataclass: `dataclasses` imports `inspect`, about
    7 ms of a `metrics` process.
    """

    def __init__(self, scenario: str):
        self.scenario = scenario
        self.sections: list[str] = []
        self.warnings: list[str] = []

    def add_line(self, text: str = "") -> None:
        self.sections.append(text)

    def add_tf(self, label: str, tf: TransferFunction) -> None:
        self.add_line(f"{label}: {tf}")

    def add_ss(self, label: str, ss: StateSpaceModel) -> None:
        self.add_line(f"{label}:")
        self.sections.extend(_fmt_ss(ss))

    def add_gain(self, label: str, gain) -> None:
        self.add_line(f"{label} = {fmt_vector(gain)}")

    def add_stability(self, label: str, hurwitz: bool) -> None:
        verdict = "stable (Hurwitz)" if hurwitz else "NOT Hurwitz"
        self.add_line(f"stability[{label}]: {verdict}")

    def add_metrics(self, metrics: StepMetrics) -> None:
        self.add_line(f"steady state       : {fmt(metrics.steady_state)}")
        self.add_line(f"overshoot          : {fmt(metrics.overshoot_pct)} %")
        band_pct = 100 * SETTLING_BAND
        if metrics.settling_time is None:
            self.add_line(f"settling time      : unsettled (+/-{band_pct:g} % band)")
        else:
            self.add_line(
                f"settling time      : {fmt(metrics.settling_time)} s (+/-{band_pct:g} % band)"
            )
        if metrics.rise_time is None:
            self.add_line("rise time          : not reached (10-90 %)")
        else:
            self.add_line(f"rise time          : {fmt(metrics.rise_time)} s (10-90 %)")

    def add_electrical(self, rep: ElectricalReport) -> None:
        self.add_line(f"terminal voltage   : {fmt(rep.v_out)} V")
        self.add_line(f"armature current   : {fmt(rep.i_a)} A")
        self.add_line(f"induced EMF        : {fmt(rep.e_g)} V")
        self.add_line(f"output power       : {fmt(rep.p_out)} W")
        self.add_line(f"input power        : {fmt(rep.p_in)} W")
        self.add_line(f"efficiency         : {fmt(rep.efficiency)} %")

    def warn(self, text: str) -> None:
        self.warnings.append(text)

    def to_text(self) -> str:
        lines = [f"=== {self.scenario} ==="]
        lines.extend(self.sections)
        for w in self.warnings:
            lines.append(f"WARNING: {w}")
        return "\n".join(lines) + "\n"
