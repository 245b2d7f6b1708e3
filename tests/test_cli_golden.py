"""Stdout and exit code of the computing subcommands and `verify --json`, against the golden records.

The records come from `tests/cli_golden.py`; see its docstring to
regenerate them or to replay them through an installed console script.
"""

import json
from pathlib import Path

import pytest

from multisums.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.jsonl"
RECORDS = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]


def _label(arg: str) -> str:
    if not arg.startswith("{"):
        return arg
    spec = json.loads(arg)
    return f"N^{spec['exponent']}" if spec["kind"] == "index_power" else f"explicit{spec['values'][:3]}"


def _record_id(record: dict) -> str:
    return " ".join(_label(a) for a in record["argv"] if not a.startswith("--"))


@pytest.mark.parametrize("record", RECORDS, ids=_record_id)
def test_cli_output_matches_golden(capsys, record):
    code = main(record["argv"])
    out = capsys.readouterr().out
    assert code == record["exit"]
    assert out == record["stdout"]
