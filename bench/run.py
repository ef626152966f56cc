"""regforge benchmark: one workload, one seed, one closed-loop run.

Usage:
    python3 bench/run.py --workload {design-sweep,sim-horizons,cli-figures}
                         --seed N --seconds S --trace {0,1}

One client issues ops back to back: the next op starts when the previous
one ends. Every op's result is checked against numpy oracles. The script
prints a JSON record of the machine and the inputs, then, as its last line,
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` they
are the per-layer ones, from a run that pairs every op with a traced copy
of itself. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
WORKLOADS = ("design-sweep", "sim-horizons", "cli-figures")
# Set-up probes run in two batches, before and after the timed phase: the
# host's speed drifts over tens of seconds, and one batch would sample one state.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
WARMUP_OPS = {"design-sweep": 8, "sim-horizons": 4, "cli-figures": 0}
# An in-process workload moves round the usable CPUs, a whole number of
# schedule cycles (about half a second or more) per turn, so every run times
# each CPU on the same mix of ops: on a shared host the
# CPUs' speeds differ by tens of percent, and the scheduler's placement of a
# single-threaded run would otherwise decide its numbers. cli-figures starts
# a fresh child per op, which the scheduler places anew each time.
CPUS = sorted(os.sched_getaffinity(0))
CPU_TURN_OPS = {"design-sweep": 128, "sim-horizons": 20, "cli-figures": None}


def pin(turn: int) -> int:
    cpu = CPUS[turn % len(CPUS)]
    os.sched_setaffinity(0, {cpu})
    return cpu


def load_program():
    """Import regforge from this checkout's src/, or exit non-zero."""
    if not (SRC / "regforge" / "__init__.py").is_file():
        sys.exit(f"error: regforge sources not found at {SRC / 'regforge'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    os.environ["PYTHONPATH"] = str(SRC)
    import regforge

    if Path(regforge.__file__).resolve().parent != (SRC / "regforge").resolve():
        sys.exit(f"error: imported regforge from {regforge.__file__}, not from {SRC}")


def build_workload(name: str, seed: int, workdir: Path):
    if name == "cli-figures":
        from cli_figures import CliFigures

        return CliFigures(seed, workdir, ROOT)
    from workloads import DesignSweep, SimHorizons

    return {"design-sweep": DesignSweep, "sim-horizons": SimHorizons}[name](seed, workdir)


def measure_setup(name: str, seed: int, workdir: Path, batch: int) -> list[float]:
    """Fresh interpreter to first op, timed in SETUP_PROBES child processes.

    Each child imports regforge, builds the workload's inputs and prints
    time.monotonic() (CLOCK_MONOTONIC, shared by all processes) when ready.
    """
    times = []
    for k in range(SETUP_PROBES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                "--setup-probe", str(workdir / f"probe{batch}-{k}")]
        start = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def run_op(workload, i: int, tracer, failures: list) -> float:
    """Run and check op i; return its wall time. Checks are not timed."""
    spec = workload.op(i)
    if tracer is not None:
        tracer.op = i
        tracer.install()
    start = time.perf_counter()
    try:
        result = workload.run(spec, tracer)
        error = None
    except Exception as exc:  # a failed op is counted and reported, and the run goes on
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    errors = [error] if error else workload.check(spec, result)
    if not error and tracer is not None:
        workload.finish_traced(result, tracer, i, wall)
    if errors:
        failures.append({"op": i, "name": spec.label, "traced": tracer is not None, "errors": errors})
    return wall


def timed_phase(workload, seconds: float, tracer=None):
    """Closed loop until the deadline. Returns (untraced, traced, failures).

    Untraced: one (cpu, seconds) sample per op. Traced: every op also runs
    traced, right before or after its untraced run (alternating), for the
    overhead figure.
    """
    for i in range(WARMUP_OPS[workload.name]):
        workload.run(workload.op(i), None)
    failures: list[dict] = []
    plain, traced = [], []
    turn = CPU_TURN_OPS[workload.name]
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        cpu = pin(i // turn) if turn else -1
        order = (None, tracer) if i % 2 == 0 else (tracer, None)
        for t in order if tracer is not None else (None,):
            wall = run_op(workload, i, t, failures)
            if t is None:
                plain.append((cpu, wall))
            else:
                traced.append(wall)
        i += 1
    os.sched_setaffinity(0, CPUS)
    return plain, traced, failures


def machine_info() -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared_units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in load_spec()[kind]}


def per_cpu_ms(samples: list[tuple[int, float]]) -> dict[int, list[float]]:
    by_cpu: dict[int, list[float]] = {}
    for cpu, seconds in samples:
        by_cpu.setdefault(cpu, []).append(1e3 * seconds)
    return by_cpu


def cpu_name(cpu: int) -> str:
    return "any" if cpu < 0 else str(cpu)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def above_p90(values: list[float]) -> int:
    limit = p90(values)
    return sum(1 for t in values if t > limit)


def ops_per_s(samples: list[tuple[int, float]], turn: int | None) -> float:
    """Median throughput of a CPU's complete turns, averaged over the CPUs.

    A turn is a whole number of schedule cycles, so every turn runs the same
    mix of ops. The median keeps a stretch of host stalls, whose heavy tails
    weigh on a whole-run mean, from setting the figure. Without turns (or
    before the first complete one) it is the whole run's ops / time.
    """
    rates: dict[int, list[float]] = {}
    for k in range(len(samples) // turn if turn else 0):
        chunk = samples[k * turn:(k + 1) * turn]
        rates.setdefault(chunk[0][0], []).append(turn / sum(t for _, t in chunk))
    if not rates:
        return len(samples) / sum(t for _, t in samples)
    return statistics.fmean(statistics.median(v) for v in rates.values())


def end_to_end(workload, samples: list[tuple[int, float]], setup: list[float]) -> dict[str, float]:
    """Timings are taken per CPU and averaged over the CPUs.

    A shared host's CPUs run at different speeds, so pooled samples form one
    group per CPU, and a pooled quantile can fall in the gap between groups,
    where it jumps with the CPUs' relative speed.
    """
    by_cpu = per_cpu_ms(samples).values()
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": ops_per_s(samples, CPU_TURN_OPS[workload.name]),
        "op_p50_ms": statistics.fmean(statistics.median(v) for v in by_cpu),
        "op_p90_ms": statistics.fmean(p90(v) for v in by_cpu),
        "peak_rss_mb": workload.peak_rss_mb(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # Single client, single thread: pin BLAS before numpy loads, here and in children.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    load_program()

    if args.setup_probe:
        probe_dir = Path(args.setup_probe)
        probe_dir.mkdir(parents=True, exist_ok=True)
        build_workload(args.workload, args.seed, probe_dir)
        print(time.monotonic(), flush=True)
        return 0

    units = declared_units("per_layer" if args.trace else "end_to_end")
    workdir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        workdir.mkdir(parents=True)
        setup = [] if args.trace else measure_setup(args.workload, args.seed, workdir, 0)
        workload = build_workload(args.workload, args.seed, workdir)
        from spans import Tracer, layer_metrics

        tracer = Tracer() if args.trace else None
        plain, traced, failures = timed_phase(workload, args.seconds, tracer)
        if args.trace:
            extra = workload.trace_extra(len(traced))
            extra["trace.overhead_pct"] = 100.0 * (sum(traced) / sum(t for _, t in plain) - 1.0)
            values = layer_metrics(tracer.spans, len(traced), extra)
            with open(results / f"spans-{tag}.json", "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
        else:
            setup += measure_setup(args.workload, args.seed, workdir, 1)
            values = end_to_end(workload, plain, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    attempted = len(plain) + len(traced)
    by_cpu = per_cpu_ms(plain)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "inputs": workload.describe(),
        "op_samples": len(plain),
        "op_samples_per_cpu": {cpu_name(cpu): len(v) for cpu, v in sorted(by_cpu.items())},
        "samples_above_p90_per_cpu": {cpu_name(cpu): above_p90(v) for cpu, v in sorted(by_cpu.items())},
        "error_rate": len(failures) / attempted,
        "setup_probes_s": setup,
        "failures": failures[:50],
    }
    for f in failures[:50]:
        print(f"FAILED op {f['op']} ({f['name']}, traced={f['traced']}): {'; '.join(f['errors'])}",
              file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (results / f"{tag}.json").write_text(json.dumps({"record": record, "result": result}, indent=1) + "\n",
                                         encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
