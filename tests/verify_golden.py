"""Writes the golden `verify --json` records, one JSON line per command line.

Each record holds the argv after the program name, the exit code and the
stdout of one `verify` call. The lines cover all nine identities at the
acceptance suite's sweep ranges (criterion 10), with fixed explicit specs
for the sequence-bearing identities, plus one explicit phi per phi-taking
identity. Run it from the repository root with the command that starts the
CLI, to rewrite the records or to check an installed console script:

    PYTHONPATH=src python tests/verify_golden.py python -m multisums > tests/data/verify_golden.jsonl
    python tests/verify_golden.py multisums | cmp - tests/data/verify_golden.jsonl

`tests/test_verify_golden.py` replays the same records in process.
"""

from __future__ import annotations

import json
import subprocess
import sys

BRIDGE_SPEC = json.dumps({"kind": "explicit", "values": [1, "-1/2", 3, "2/5", -2, "7/3", "1/4"]})
PRODUCT_SPEC = json.dumps({"kind": "explicit", "base": 0, "values": [2, "-1/3", 3, "5/7", -2, "1/2", 4, "-3/5", 5]})

LINES = [
    ["verify", "LEMMA_3_1", "--sweep", "m=0..12", "--json"],
    ["verify", "STIRLING_ALTERNATING", "--sweep", "m=0..12", "--json"],
    ["verify", "LEMMA_3_2", "--sweep", "m=0..6", "--json"],
    ["verify", "LEMMA_3_2", "--m", "7", "--phi", "1,0,2", "--r", "7", "--json"],
    ["verify", "EVEN_ODD_BINOM", "--sweep", "m=0..6", "--json"],
    ["verify", "EVEN_ODD_BINOM", "--m", "9", "--phi", "0,1,1", "--r", "5", "--json"],
    ["verify", "EVEN_ODD_WEIGHTS", "--sweep", "m=0..12", "--json"],
    ["verify", "RECURRENT_BRIDGE", "--spec", BRIDGE_SPEC, "--q", "1", "--sweep", "m=0..4,n=1..7", "--json"],
    ["verify", "BINOMIAL_PARTITION", "--sweep", "n=0..12,m=0..12", "--json"],
    ["verify", "PRODUCT_IDENTITY", "--spec", PRODUCT_SPEC, "--sweep", "q=0..2,n=2..8", "--json"],
    ["verify", "EVEN_ODD_N", "--sweep", "n=0..10,m=0..10", "--json"],
]


def main(command: list[str]) -> None:
    for argv in LINES:
        done = subprocess.run(command + argv, capture_output=True, text=True, check=False)
        print(json.dumps({"argv": argv, "exit": done.returncode, "stdout": done.stdout}))


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: verify_golden.py COMMAND...")
    main(sys.argv[1:])
