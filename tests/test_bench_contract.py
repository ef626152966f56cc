"""The benchmark's in-process workloads (bench/) against the regforge they drive.

The workloads read regforge names and write scenario files that only a
benchmark run would otherwise exercise: sim-horizons checks each run
against ``cfg.divergence_limit``, and cli-figures hands seeded scenarios
(``outputs = csv report``) to the CLI. Here one schedule of each runs in
this process, and no child process is started.
"""

import importlib
import sys
from pathlib import Path

from regforge.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
BENCH_MODULES = ("oracles", "workloads", "cli_figures")


def test_workloads_run_and_check_in_process(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    # bench/oracles.py shares its module name with tests/oracles.py.
    for name in BENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        workloads = importlib.import_module("workloads")
        cli_figures = importlib.import_module("cli_figures")

        # One full schedule of each: sim-horizons holds the truncated published-H long op.
        for workload, n_ops in ((workloads.SimHorizons(1, tmp_path), 20), (workloads.DesignSweep(1, tmp_path), 8)):
            for i in range(n_ops):
                op = workload.op(i)
                assert workload.check(op, workload.run(op)) == [], (workload.name, i)

        cycle = cli_figures.CliFigures(1, tmp_path / "cli", ROOT).cycle
        scenarios = [cmd.args[cmd.args.index("--scenario") + 1] for cmd in cycle if "--scenario" in cmd.args]
        assert len(scenarios) == 7
        for path in scenarios:
            load_scenario(path)
    finally:
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)
