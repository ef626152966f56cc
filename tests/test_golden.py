"""Golden manifest: exit code, stdout and artifact bytes of CLI commands.

Each command runs in-process through ``regforge.cli.main`` with its own
output directory. The manifest records the exit code, the sha256 of stdout
and of stderr (with the output directory replaced by ``<out>``), and the
sha256 of every file the command wrote. Any byte change to these outputs
fails here; after an intended change, rewrite the manifest with

    PYTHONPATH=src python tests/test_golden.py

and log the change in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from regforge.cli import main

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().parent / "golden" / "manifest.json"
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
            cmd, "--scenario", "{scenarios}/paper-observer.cfg", "--convention", convention,
            *(["--out", "{out}"] if cmd == "simulate" else []),
        ]
        for cmd in ("simulate", "synthesize")
        for convention in ("paper-numeric", "eq17-literal")
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
    out.mkdir(parents=True)
    ss = workdir / "ss-controller.cfg"
    ss.write_text(SS_SCENARIO, encoding="utf-8")
    argv = [a.format(out=out, scenarios=ROOT / "scenarios", ss=ss) for a in COMMANDS[key]]
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        entries = {key: run_command(key, Path(tmp)) for key in sorted(COMMANDS)}
    MANIFEST.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {MANIFEST}", file=sys.stderr)
