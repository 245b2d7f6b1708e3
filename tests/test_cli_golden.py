"""Stdout and exit code of CLI command lines against the golden records of both record sets.

`cli_golden.jsonl` holds the computing subcommands and `verify --json`,
and `cli_workload_golden.jsonl` every line of the benchmark's `cli`
workload for seeds 1 to 4. Both come from `tests/cli_golden.py`; see its
docstring to regenerate them or to replay them through an installed
console script. The test reads only the data files.
"""

import json
from pathlib import Path

import pytest

from multisums.cli import main

DATA = Path(__file__).parent / "data"
RECORDS = {
    name: [json.loads(line) for line in (DATA / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()]
    for name in ("cli_golden", "cli_workload_golden")
}


def _label(arg: str) -> str:
    if not arg.startswith("{"):
        return arg
    spec = json.loads(arg)
    if "exponent" in spec:
        return f"N^{spec['exponent']}"
    return f"explicit{spec['values'][:3]}" if "values" in spec else spec.get("kind", "spec")


def _record_id(record: dict) -> str:
    words = " ".join(_label(a) for a in record["argv"] if not a.startswith("--"))
    return f"seed{record['seed']} {words}" if "seed" in record else words


def test_workload_records_cover_four_seeds_of_forty_lines():
    assert [r["seed"] for r in RECORDS["cli_workload_golden"]] == [seed for seed in (1, 2, 3, 4) for _ in range(40)]


@pytest.mark.parametrize("record", [*RECORDS["cli_golden"], *RECORDS["cli_workload_golden"]], ids=_record_id)
def test_cli_output_matches_golden(capsys, record):
    code = main(record["argv"])
    out = capsys.readouterr().out
    assert code == record["exit"]
    assert out == record["stdout"]
