"""Golden manifest: exit code, stdout and artifact bytes of CLI commands.

Each command runs in-process through ``regforge.cli.main`` with its own
output directory. The manifest records the exit code, the sha256 of stdout
and of stderr (with the output directory replaced by ``<out>``), and the
sha256 of every file the command wrote. Any byte change to these outputs
fails here. A rerun into the same directory must give the same bytes in new
files. After an intended change, rewrite the manifest with

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
    out.mkdir(parents=True, exist_ok=True)
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        entries = {key: run_command(key, Path(tmp)) for key in sorted(COMMANDS)}
    MANIFEST.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {MANIFEST}", file=sys.stderr)
