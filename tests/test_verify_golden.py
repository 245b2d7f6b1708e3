"""`verify --json` stdout and exit code for all nine identities, against the golden records.

The records come from `tests/verify_golden.py`; see its docstring to
regenerate them or to replay them through an installed console script.
"""

import json
from pathlib import Path

import pytest

from multisums.cli import main

GOLDEN = Path(__file__).parent / "data" / "verify_golden.jsonl"
RECORDS = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: " ".join(a for a in r["argv"][1:] if not a.startswith("{")))
def test_verify_output_matches_golden(capsys, record):
    code = main(record["argv"])
    out = capsys.readouterr().out
    assert code == record["exit"]
    assert out == record["stdout"]
