"""Golden manifest: exit code, stdout and artifact bytes of CLI commands,
and the bits of every synthesis result.

Each command runs in-process through ``regforge.cli.main`` with its own
output directory. The manifest records the exit code, the sha256 of stdout
and of stderr (with the output directory replaced by ``<out>``), and the
sha256 of every file the command wrote. Any byte change to these outputs
fails here. A rerun into the same directory must give the same bytes in new
files.

The synthesis pin (``golden/synthesis.json``) records, per design, the
sha256 of every value the LQR-plus-observer design path computes: the
realization, P, K, the CARE residual and iteration count, H, the loop, the
characteristic polynomials, the loop spectrum and the Hurwitz verdicts. The
CLI rounds what it prints, so only this pin sees a last-bit change in the
kernels.

After an intended change, rewrite both files with

    PYTHONPATH=src python tests/test_golden.py

and log the change in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from regforge import lti, observer, plant, riccati, sim
from regforge.cli import main

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().parent / "golden" / "manifest.json"
SYNTHESIS = Path(__file__).resolve().parent / "golden" / "synthesis.json"
OUT_PLACEHOLDER = "<out>"

# An explicit state-space compensator on the paper-rounded plant.
SS_SCENARIO = """\
name = ss-controller
plant.preset = paper-rounded
controller.type = ss
controller.a = -1
controller.b = 1
controller.c = 0.05
controller.d = 0.01
reference = 220
"""

BUNDLED = ("open-loop", "paper-lqr", "paper-observer")
# The bundled observer scenario is copied with each of these wirings.
OTHER_CONVENTIONS = ("paper-numeric", "eq17-literal")

COMMANDS = {
    **{
        f"reproduce-{fig}-both": ["reproduce", "--figure", str(fig), "--format", "both", "--out", "{out}"]
        for fig in (4, 5, 6, 7, 8)
    },
    "reproduce-8-lqr-exact": ["reproduce", "--figure", "8", "--controller", "lqr",
                              "--preset", "exact", "--out", "{out}"],
    "reproduce-8-observer-paper-rounded": ["reproduce", "--figure", "8", "--controller", "observer",
                                           "--preset", "paper-rounded", "--out", "{out}"],
    **{
        f"simulate-{name}": ["simulate", "--scenario", f"{{scenarios}}/{name}.cfg", "--out", "{out}"]
        for name in BUNDLED
    },
    **{
        f"synthesize-{name}": ["synthesize", "--scenario", f"{{scenarios}}/{name}.cfg"]
        for name in BUNDLED
    },
    **{
        f"{cmd}-paper-observer-{convention}": [
            cmd, "--scenario", f"{{work}}/paper-observer-{convention}.cfg",
            *(["--out", "{out}"] if cmd == "simulate" else []),
        ]
        for cmd in ("simulate", "synthesize")
        for convention in OTHER_CONVENTIONS
    },
    "simulate-ss-controller": ["simulate", "--scenario", "{ss}", "--out", "{out}"],
    "simulate-open-loop-both": ["simulate", "--scenario", "{scenarios}/open-loop.cfg",
                                "--format", "both", "--out", "{out}"],
    "simulate-paper-lqr-both": ["simulate", "--scenario", "{scenarios}/paper-lqr.cfg",
                                "--format", "both", "--out", "{out}"],
    "plant": ["plant"],
    "plant-params-inflow-3": ["plant", "--params", "{scenarios}/reference-params.cfg", "--inflow", "3"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(key: str, workdir: Path) -> dict:
    """Run one manifest command and return its manifest entry."""
    out = workdir / key
    out.mkdir(parents=True, exist_ok=True)
    ss = workdir / "ss-controller.cfg"
    ss.write_text(SS_SCENARIO, encoding="utf-8")
    observer_cfg = (ROOT / "scenarios" / "paper-observer.cfg").read_text(encoding="utf-8")
    for convention in OTHER_CONVENTIONS:
        (workdir / f"paper-observer-{convention}.cfg").write_text(observer_cfg.replace(
            "controller.convention = standard-luenberger", f"controller.convention = {convention}"
        ), encoding="utf-8")
    argv = [a.format(out=out, scenarios=ROOT / "scenarios", ss=ss, work=workdir) for a in COMMANDS[key]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {
        "exit": code,
        "stdout_sha256": _sha256(stdout.getvalue().replace(str(out), OUT_PLACEHOLDER).encode()),
        "stderr_sha256": _sha256(stderr.getvalue().replace(str(out), OUT_PLACEHOLDER).encode()),
        "artifacts": {p.name: _sha256(p.read_bytes()) for p in sorted(out.iterdir())},
    }


def _manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_manifest_lists_every_command():
    assert sorted(_manifest()) == sorted(COMMANDS)


@pytest.mark.parametrize("key", sorted(COMMANDS))
def test_command_matches_manifest(key, tmp_path):
    assert run_command(key, tmp_path) == _manifest()[key]


REWRITE_KEY = "reproduce-4-both"


def test_rerun_writes_manifest_bytes_to_new_files(tmp_path):
    run_command(REWRITE_KEY, tmp_path)
    out = tmp_path / REWRITE_KEY
    with contextlib.ExitStack() as stack:
        # Held open, the first pass's files keep their inode numbers in use,
        # so a rewrite in place shows as an unchanged st_ino.
        old = {p.name: stack.enter_context(open(p, "rb")) for p in out.iterdir()}
        assert run_command(REWRITE_KEY, tmp_path) == _manifest()[REWRITE_KEY]
        assert sorted(old) == sorted(_manifest()[REWRITE_KEY]["artifacts"])
        for name, fh in old.items():
            assert os.fstat(fh.fileno()).st_ino != os.stat(out / name).st_ino, name


def test_hard_link_to_old_artifact_keeps_old_bytes(tmp_path):
    out = tmp_path / REWRITE_KEY
    out.mkdir()
    (out / "figure4-exact.csv").write_text("old\n")
    link = tmp_path / "link.csv"
    os.link(out / "figure4-exact.csv", link)
    assert run_command(REWRITE_KEY, tmp_path) == _manifest()[REWRITE_KEY]
    assert link.read_text() == "old\n"


def test_symlinked_artifact_written_through(tmp_path):
    out = tmp_path / REWRITE_KEY
    out.mkdir()
    target = tmp_path / "target.svg"
    target.write_text("old\n")
    (out / "figure4-exact.svg").symlink_to(target)
    assert run_command(REWRITE_KEY, tmp_path) == _manifest()[REWRITE_KEY]
    assert (out / "figure4-exact.svg").is_symlink()
    assert _sha256(target.read_bytes()) == _manifest()[REWRITE_KEY]["artifacts"]["figure4-exact.svg"]


PAPER_WEIGHTS = {"paper0": ((3.0, 3.0), 5.0), "paper1": ((8.0, 8.0), 1.0)}
STABLE_OBSERVER_POLES = (-5.0, -6.0)
SEEDED_PLANTS = 16


def _design_cases() -> dict:
    """Both presets with both paper weights, and seeded plants within x0.5..x2 of the reference.

    Half of the seeded designs weight both states alike, as the paper does;
    the other half weight them differently.
    """
    cases = {
        f"{preset}-{label}": (plant.preset_tf(preset), q_diag, r, STABLE_OBSERVER_POLES)
        for preset in plant.PRESETS
        for label, (q_diag, r) in PAPER_WEIGHTS.items()
    }
    rng = np.random.default_rng(20201)
    ref = plant.REFERENCE_PARAMS
    g = ref.generator
    reference = (ref.turbine.tau_t, g.k1, g.n, g.l_f, g.r_f, g.l_a, g.r_a, g.r_l)
    for i in range(SEEDED_PLANTS):
        # One scalar C-library pow per entry: numpy's array power rounds by
        # the SIMD loop it dispatches to, so its last bits depend on the CPU.
        exponents = rng.uniform(-1.0, 1.0, size=len(reference)).tolist()
        tau_t, k1, n, l_f, r_f, l_a, r_a, r_l = (x * 2.0 ** u for x, u in zip(reference, exponents))
        params = plant.PlantParams(
            turbine=plant.TurbineParams(tau_t=tau_t),
            generator=plant.GeneratorParams(k1=k1, n=n, l_f=l_f, r_f=r_f, l_a=l_a, r_a=r_a, r_l=r_l),
        )
        q = 10.0 ** rng.uniform(0.0, 1.0)
        q_diag = (q, q) if i % 2 == 0 else (q, q * 10.0 ** rng.uniform(0.2, 0.8))
        r = 10.0 ** rng.uniform(-0.3, 1.0)
        fast = -rng.uniform(2.0, 8.0)
        poles = (fast, fast - rng.uniform(1.0, 3.0))
        cases[f"seeded-{i:02d}"] = (plant.plant_tf(params), q_diag, r, poles)
    return cases


def _digest(value) -> str:
    if isinstance(value, np.ndarray):
        data = f"{value.dtype.str}{value.shape}".encode() + np.ascontiguousarray(value).tobytes()
    elif isinstance(value, float):
        data = value.hex().encode()
    else:
        data = repr(value).encode()
    return _sha256(data)


def synthesis_entry(tf, q_diag, r, poles) -> dict:
    """sha256 of every value the observer-based design path computes for one plant."""
    model = lti.tf_to_ss(tf)
    weights = riccati.CostWeights.diagonal(q_diag, r)
    solution = riccati.solve_care(model.a, model.b, weights)
    h = observer.design_observer_gain(model.a, model.c, poles)
    n_gain = sim.reference_prescaler(model, solution.k)
    loop = observer.luenberger_loop(model, solution.k, h, n_gain)
    feedback_poly = lti.char_poly(model.a - model.b @ solution.k)
    error_poly = lti.char_poly(model.a - h @ model.c)
    loop_poly = lti.char_poly(loop.a)
    values = {
        "model.a": model.a, "model.b": model.b, "model.c": model.c, "model.d": model.d,
        "q": weights.q, "r": weights.r,
        "p": solution.p, "k": solution.k,
        "residual_norm": solution.residual_norm, "iterations": solution.iterations,
        "h": h, "prescaler": n_gain,
        "loop.a": loop.a, "loop.b": loop.b, "loop.c": loop.c,
        "feedback_poly": np.array(feedback_poly.coeffs), "error_poly": np.array(error_poly.coeffs),
        "loop_poly": np.array(loop_poly.coeffs),
        "loop_eigenvalues": lti.eigenvalues(loop.a),
        "feedback_hurwitz": lti.is_hurwitz(feedback_poly),
        "error_hurwitz": lti.is_hurwitz(error_poly),
        "loop_hurwitz": lti.is_hurwitz(loop_poly),
    }
    return {name: _digest(value) for name, value in values.items()}


def _synthesis() -> dict:
    return json.loads(SYNTHESIS.read_text(encoding="utf-8"))


def test_synthesis_pin_lists_every_design():
    assert sorted(_synthesis()) == sorted(_design_cases())


@pytest.mark.parametrize("key", sorted(_design_cases()))
def test_synthesis_matches_pin(key):
    assert synthesis_entry(*_design_cases()[key]) == _synthesis()[key]


def _write(path: Path, entries: dict) -> None:
    path.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {path}", file=sys.stderr)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _write(MANIFEST, {key: run_command(key, Path(tmp)) for key in sorted(COMMANDS)})
    _write(SYNTHESIS, {key: synthesis_entry(*case) for key, case in sorted(_design_cases().items())})
