"""cli-figures: one op is one ``python -m regforge ...`` command in a fresh process.

The schedule is a fixed cycle of 32 commands: ``reproduce --figure 4..8
--format both``, ``simulate`` on the three bundled scenarios and on two
seeded scenario files with inline ``plant.turbine.*``/``plant.generator.*``
keys, ``plant``, ``synthesize`` on the two paper scenarios, and ``metrics``
on every CSV written, each right after the command that wrote it. Every
command writes into one output directory, so a repeated command overwrites
its own artifacts, which must come out byte-identical.

A traced op runs the same command through ``launch.py``, which installs the
span wrappers in the child and writes its spans to a file.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
from workloads import PAPER_WEIGHTS, REFERENCE, Workload, draw_params

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 120
DT = 1e-3
INFLOW = 5.0
REFERENCE_V = 220.0
PARAM_KEYS = ("turbine.tau_t", "generator.k1", "generator.n", "generator.l_f",
              "generator.r_f", "generator.l_a", "generator.r_a", "generator.r_l")
# Paper-rounded plant 18/(s^2 + 2.5 s + 1) in controllable canonical form.
ROUNDED_A = np.array([[-2.5, -1.0], [1.0, 0.0]])
ROUNDED_B = np.array([[1.0], [0.0]])
ROUNDED_C = np.array([[0.0, 18.0]])
PUBLISHED_H = np.array([[2.0], [-0.5]])

_NUM = r"[-+0-9.eE]+|inf|nan"


def plant_dc(values) -> float:
    """dc gain of the turbine-generator cascade: tau_t * n R_L k1 / R_total."""
    tau_t, k1, n, _, r_f, _, r_a, r_l = values
    return tau_t * n * r_l * k1 / (r_f + r_a + r_l)


def vector_after(text: str, label: str) -> np.ndarray:
    match = re.search(re.escape(label) + r"\s*=\s*\[([^\]]*)\]", text)
    if not match:
        raise ValueError(f"no '{label} = [...]' in report")
    return np.array([float(v) for v in match.group(1).split(",")])


def metrics_block(lines: list[str], start: int = 0) -> dict | None:
    """The first step-metrics block at or after ``lines[start]``."""
    for i in range(start, len(lines)):
        if lines[i].startswith("steady state       :"):
            block = lines[i:i + 4]
            settling = re.match(r"settling time\s*:\s*(" + _NUM + r") s", block[2])
            rise = re.match(r"rise time\s*:\s*(" + _NUM + r") s", block[3])
            return {
                "steady_state": float(block[0].split(":")[1]),
                "overshoot": float(block[1].split(":")[1].split("%")[0]),
                "settling": float(settling.group(1)) if settling else None,
                "rise": float(rise.group(1)) if rise else None,
            }
    return None


def line_index(lines: list[str], prefix: str) -> int:
    for i, line in enumerate(lines):
        if line.startswith(prefix):
            return i
    raise ValueError(f"no line starting {prefix!r} in report")


def close(a: float | None, b: float | None, rtol: float, atol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= atol + rtol * abs(b)


def reap(proc: subprocess.Popen, timeout: int) -> tuple[int, int]:
    """Wait for proc with os.wait4; return its exit code and peak RSS in KiB.

    wait4 gives this child's own rusage, apart from every other child of the
    benchmark (the set-up probes). SIGALRM bounds the wait.
    """
    def expire(signum, frame):
        raise subprocess.TimeoutExpired(proc.args, timeout)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(timeout)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


@dataclass(frozen=True)
class Command:
    label: str
    args: tuple
    exit_code: int = 0
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    spans_path: Path | None


class CliFigures(Workload):
    name = "cli-figures"

    def __init__(self, seed: int, workdir, root: Path):
        super().__init__()
        rng = np.random.default_rng([seed, 3])
        self.workdir = Path(workdir)
        self.out = self.workdir / "out"
        inputs = self.workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.out.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env.pop("REGFORGE_OUT", None)
        self.hashes: dict[str, str] = {}
        self.expected: dict[str, dict] = {}
        self.startup_s = 0.0
        self.import_s = 0.0
        self.peak_rss_kib = 0

        ol_params = [float(v) for v in draw_params(rng)]
        ol_amp = float(10.0 ** rng.uniform(np.log10(2.5), 1.0))
        lqr_params = [float(v) for v in draw_params(rng)]
        lqr_q = [float(v) for v in 10.0 ** rng.uniform(0.0, 1.0, size=2)]
        lqr_r = float(10.0 ** rng.uniform(-0.3, 1.0))
        lqr_ref = float(10.0 ** rng.uniform(np.log10(110.0), np.log10(440.0)))
        # 30 s covers 5 time constants of the slowest seeded plant (tau_t <= 4 s).
        seeded_ol = self._scenario(inputs, "seeded-open-loop", ol_params, [
            "controller.type = none", f"sim.amplitude = {ol_amp!r}", "sim.duration = 30"])
        seeded_lqr = self._scenario(inputs, "seeded-lqr", lqr_params, [
            "controller.type = lqr", f"controller.q_diag = {lqr_q[0]!r} {lqr_q[1]!r}",
            f"controller.r = {lqr_r!r}", f"reference = {lqr_ref!r}", "sim.duration = 30"])
        bundled = root / "scenarios"

        def reproduce(fig, csvs):
            return [Command(f"reproduce-{fig}", ("reproduce", "--figure", str(fig), "--format", "both",
                                                 "--out", str(self.out)), expect={"figure": fig})] + [
                Command("metrics", ("metrics", str(self.out / f"{name}.csv"))) for name in csvs]

        def simulate(label, path, exit_code=0, **expect):
            return [Command(f"simulate-{label}", ("simulate", "--scenario", str(path), "--out", str(self.out)),
                            exit_code, expect={"csv": label, **expect}),
                    Command("metrics", ("metrics", str(self.out / f"{label}.csv")))]

        presets = ("exact", "paper-rounded")
        self.cycle = (
            [Command("plant", ("plant",))]
            + reproduce(4, [f"figure4-{p}" for p in presets])
            + [Command("synthesize-paper-lqr", ("synthesize", "--scenario", str(bundled / "paper-lqr.cfg")),
                       expect={"weights": 0})]
            + reproduce(5, [f"figure5-{p}" for p in presets])
            + simulate("open-loop", bundled / "open-loop.cfg", dc=plant_dc(REFERENCE) * INFLOW)
            + reproduce(6, [f"figure6-{p}" for p in presets])
            + simulate("seeded-open-loop", seeded_ol, dc=plant_dc(ol_params) * ol_amp)
            + reproduce(7, [f"figure7-{p}" for p in presets])
            + [Command("synthesize-paper-observer",
                       ("synthesize", "--scenario", str(bundled / "paper-observer.cfg")), expect={"weights": 1})]
            + simulate("paper-lqr", bundled / "paper-lqr.cfg", dc=REFERENCE_V)
            + reproduce(8, [f"figure8-{leg}-{p}" for p in presets
                            for leg in ("lqr", "observer-published", "observer-stable")])
            # The published observer gain diverges by design; exit 2 is the expected outcome.
            + simulate("paper-observer", bundled / "paper-observer.cfg", exit_code=2, diverged=True)
            + simulate("seeded-lqr", seeded_lqr, dc=lqr_ref)
        )

    @staticmethod
    def _scenario(directory: Path, name: str, params, lines: list[str]) -> Path:
        body = [f"name = {name}"] + [f"plant.{key} = {value!r}" for key, value in zip(PARAM_KEYS, params)]
        path = directory / f"{name}.cfg"
        path.write_text("\n".join(body + lines + ["outputs = csv report"]) + "\n", encoding="utf-8")
        return path

    def op(self, i: int) -> Command:
        return self.cycle[i % len(self.cycle)]

    def run(self, cmd: Command, tracer=None) -> Outcome:
        spans_path = None
        if tracer is None:
            argv = [sys.executable, "-m", "regforge", *cmd.args]
        else:
            spans_path = self.workdir / "child-spans.json"
            argv = [sys.executable, str(HERE / "launch.py"), str(spans_path), *cmd.args]
        with open(self.workdir / "child.stdout", "w+b") as out, open(self.workdir / "child.stderr", "w+b") as err:
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env, stdout=out, stderr=err)
            code, rss_kib = reap(proc, CHILD_TIMEOUT_S)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read().decode(), err.read().decode()
        self.peak_rss_kib = max(self.peak_rss_kib, rss_kib)
        return Outcome(code, stdout, stderr, spans_path)

    def peak_rss_mb(self) -> float:
        """The largest command's own peak RSS, from its rusage at reaping."""
        return self.peak_rss_kib / 1024.0

    def finish_traced(self, result: Outcome, tracer, op: int, wall_s: float) -> None:
        record = json.loads(result.spans_path.read_text(encoding="utf-8"))
        result.spans_path.unlink()
        main = [s for s in record["spans"] if s[0] == "cli.main"]
        self.startup_s += wall_s - sum(s[2] - s[1] for s in main)
        self.import_s += record["import_s"]
        tracer.absorb(record["spans"], op)

    def trace_extra(self, n_ops: int) -> dict[str, float]:
        n_ops = max(n_ops, 1)
        return {"cli.startup_ms": 1e3 * self.startup_s / n_ops, "cli.import_ms": 1e3 * self.import_s / n_ops}

    # ---------------------------------------------------------------- checks

    def check(self, cmd: Command, res: Outcome) -> list[str]:
        self.op_counts[cmd.label] += 1
        if res.code != cmd.exit_code:
            return [f"exit {res.code}, expected {cmd.exit_code}: {res.stderr.strip()[-300:]}"]
        lines = res.stdout.splitlines()
        written = [Path(line[len("wrote "):]) for line in lines if line.startswith("wrote ")]
        errors = self._check_artifacts(written)
        try:
            kind = cmd.args[0]
            if kind == "plant":
                errors += self._check_plant(res.stdout)
            elif kind == "synthesize":
                errors += self._check_synthesize(cmd, res.stdout)
            elif kind == "simulate":
                errors += self._check_simulate(cmd, lines, written)
            elif kind == "reproduce":
                errors += self._check_reproduce(cmd, lines, written)
            else:
                errors += self._check_metrics(Path(cmd.args[1]), lines)
        except (ValueError, IndexError, AttributeError) as exc:
            errors.append(f"unreadable report: {exc!r}")
        return errors

    def _check_artifacts(self, written: list[Path]) -> list[str]:
        errors = []
        for path in written:
            data = (self.workdir / path).read_bytes()
            self.bytes_written += len(data)
            if path.suffix == ".csv":
                lines = data.count(b"\n")
                self.n_steps_total += lines - 2
                header = data.split(b"\n", 1)[0].split(b",")
                self.n_states[sum(1 for h in header if re.fullmatch(rb"x\d+", h))] += 1
            digest = hashlib.sha256(data).hexdigest()
            first = self.hashes.setdefault(str(path), digest)
            if first != digest:
                errors.append(f"{path} changed between passes")
        return errors

    def _check_plant(self, text: str) -> list[str]:
        dc = float(re.search(r"dc gain \(exact\)\s*=\s*(" + _NUM + ")", text).group(1))
        v_out = float(re.search(r"terminal voltage\s*:\s*(" + _NUM + ")", text).group(1))
        errors = []
        if not close(dc, plant_dc(REFERENCE), 1e-5, 0.0):
            errors.append(f"plant dc gain {dc} != {plant_dc(REFERENCE)}")
        if not close(v_out, plant_dc(REFERENCE) * INFLOW, 1e-5, 0.0):
            errors.append(f"terminal voltage {v_out} != {plant_dc(REFERENCE) * INFLOW}")
        return errors

    def _check_synthesize(self, cmd: Command, text: str) -> list[str]:
        q_diag, r = PAPER_WEIGHTS[cmd.expect["weights"]]
        k = vector_after(text, "K").reshape(1, 2)
        errors = [oracles.paper_gain(q_diag, r, k)]
        a_bk_stable = "stability[A-BK]: stable (Hurwitz)" in text
        errors.append(oracles.hurwitz_agrees("A-BK", ROUNDED_A - ROUNDED_B @ k, a_bk_stable))
        if cmd.expect["weights"] == 1:
            a_hc_stable = "stability[A-HC]: stable (Hurwitz)" in text
            errors.append(oracles.hurwitz_agrees("A-HC", ROUNDED_A - PUBLISHED_H @ ROUNDED_C, a_hc_stable))
        return [e for e in errors if e]

    def _check_simulate(self, cmd: Command, lines: list[str], written: list[Path]) -> list[str]:
        csv = str(self.out / f"{cmd.expect['csv']}.csv")
        if [str(self.workdir / p) for p in written] != [csv]:
            return [f"wrote {written}, expected only {csv}"]
        if cmd.expect.get("diverged"):
            if not any(line.startswith("WARNING: simulation diverged") for line in lines):
                return ["diverged run without its warning"]
            self.expected[csv] = {"diverged": True}
            return []
        block = metrics_block(lines)
        if block is None:
            return ["no step metrics in report"]
        self.expected[csv] = block
        return [e for e in [oracles.within_band("steady state", block["steady_state"], cmd.expect["dc"])] if e]

    def _check_reproduce(self, cmd: Command, lines: list[str], written: list[Path]) -> list[str]:
        fig = cmd.expect["figure"]
        presets = ("exact", "paper-rounded")
        stems = ([f"figure{fig}-{p}" for p in presets] if fig != 8 else
                 [f"figure8-{leg}-{p}" for p in presets for leg in ("lqr", "observer-published", "observer-stable")])
        want = sorted(str(self.out / f"{s}.{ext}") for s in stems for ext in ("csv", "svg"))
        got = sorted(str(self.workdir / p) for p in written)
        if got != want:
            return [f"wrote {got}, expected {want}"]
        errors = []
        for preset in presets:
            if fig != 8:
                line = lines[line_index(lines, f"[{preset}] simulated steady state:")]
                value = float(line.split(":")[1].split()[0])
                dc = plant_dc(REFERENCE) * INFLOW if preset == "exact" else 18.0 * INFLOW
                errors.append(oracles.within_band(f"{preset} steady state", value, dc))
                self.expected[str(self.out / f"figure{fig}-{preset}.csv")] = {"steady_state": value}
                continue
            i = line_index(lines, f"[{preset}] lqr leg:")
            errors.append(oracles.paper_gain(*PAPER_WEIGHTS[0], vector_after(lines[i], "K")))
            self._leg(errors, f"figure8-lqr-{preset}", metrics_block(lines, i))
            i = line_index(lines, f"[{preset}] observer leg:")
            errors.append(oracles.paper_gain(*PAPER_WEIGHTS[1], vector_after(lines[i], "K")))
            if not any(line.startswith(f"WARNING: [{preset}] published-H observer loop diverged") for line in lines):
                errors.append(f"{preset}: published-H loop did not report divergence")
            self.expected[str(self.out / f"figure8-observer-published-{preset}.csv")] = {"diverged": True}
            i = line_index(lines, f"[{preset}] stable replacement H")
            self._leg(errors, f"figure8-observer-stable-{preset}", metrics_block(lines, i))
        return [e for e in errors if e]

    def _leg(self, errors: list, stem: str, block: dict | None) -> None:
        if block is None:
            errors.append(f"{stem}: no step metrics in report")
            return
        self.expected[str(self.out / f"{stem}.csv")] = block
        errors.append(oracles.within_band(f"{stem} steady state", block["steady_state"], REFERENCE_V))

    def _check_metrics(self, csv: Path, lines: list[str]) -> list[str]:
        self.bytes_read += csv.stat().st_size
        block = metrics_block(lines)
        want = self.expected.get(str(csv))
        if block is None or want is None:
            return [f"no metrics to compare for {csv.name}"]
        if want.get("diverged"):
            return [] if block["settling"] is None else [f"{csv.name}: diverged run reads back as settled"]
        # The CSV keeps 9 significant digits, so the readback may differ from
        # the in-memory figures in the last printed digit or by one sample.
        tolerances = {"steady_state": (1e-5, 0.0), "overshoot": (1e-3, 1e-4),
                      "settling": (0.0, 2 * DT), "rise": (0.0, 2 * DT)}
        return [f"{csv.name}: metrics {key} reads back {block[key]} but report said {want[key]}"
                for key, (rtol, atol) in tolerances.items()
                if key in want and not close(block[key], want[key], rtol, atol)]
