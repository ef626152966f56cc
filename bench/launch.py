"""Run one regforge CLI command with span wrappers installed.

Usage: python3 bench/launch.py SPANS_JSON <regforge arguments...>

Behaves like ``python -m regforge <arguments>`` (same output, same exit
code) and, on exit, writes ``{"import_s": ..., "spans": [...]}`` to
SPANS_JSON. The benchmark uses it for the traced ops of cli-figures.
"""

import json
import sys
import time

t0 = time.perf_counter()
import regforge.cli  # noqa: E402  (import time is the measurement)

import_s = time.perf_counter() - t0

from spans import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        return regforge.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
