"""Stdout and exit code of every line of the benchmark's `cli` workload, seeds 1 to 4, against the golden records.

The records come from `tests/cli_workload_golden.py`; see its docstring to
regenerate them or to replay them through an installed console script. The
test reads only the data file.
"""

import json
from pathlib import Path

import pytest

from multisums.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_workload_golden.jsonl"
RECORDS = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]


def _record_id(record: dict) -> str:
    words = [a if not a.startswith("{") else json.loads(a).get("kind", "spec") for a in record["argv"]]
    return f"seed{record['seed']} " + " ".join(w for w in words if not w.startswith("--"))


def test_records_cover_four_seeds_of_forty_lines():
    assert [r["seed"] for r in RECORDS] == [seed for seed in (1, 2, 3, 4) for _ in range(40)]


@pytest.mark.parametrize("record", RECORDS, ids=_record_id)
def test_cli_workload_line_matches_golden(capsys, record):
    code = main(record["argv"])
    out = capsys.readouterr().out
    assert code == record["exit"]
    assert out == record["stdout"]
