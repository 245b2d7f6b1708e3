"""Writes the golden records of the benchmark's `cli` workload, one JSON line per command line.

Each record holds the seed, the argv after the program name, the exit code
and the stdout of one line of the `cli` workload of `perfbench/workloads.py`,
for seeds 1 to 4: 40 lines a seed, a tenth of them malformed, so 160 records
in all. The workload file is read as it stands and nothing under
`perfbench/` is changed or imported as a package. Run it from the
repository root with the command that starts the CLI, to rewrite the
records or to check an installed console script:

    PYTHONPATH=src python tests/cli_workload_golden.py python -m multisums > tests/data/cli_workload_golden.jsonl
    python tests/cli_workload_golden.py multisums | cmp - tests/data/cli_workload_golden.jsonl

`tests/test_cli_workload_golden.py` replays the same records in process.
"""

from __future__ import annotations

import json
import runpy
import subprocess
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
SEEDS = (1, 2, 3, 4)


def main(command: list[str]) -> None:
    make_ops = runpy.run_path(str(WORKLOADS))["make_ops"]
    for seed in SEEDS:
        for op in make_ops("cli", seed):
            argv = op["argv"]
            done = subprocess.run(command + argv, capture_output=True, text=True, check=False)
            print(json.dumps({"seed": seed, "argv": argv, "exit": done.returncode, "stdout": done.stdout}))


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: cli_workload_golden.py COMMAND...")
    main(sys.argv[1:])
