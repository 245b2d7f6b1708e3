"""Writes the golden records of the computing subcommands, one JSON line per command line.

Each record holds the argv after the program name, the exit code and the
stdout of one call of `multisum eval`, `special faulhaber`, `special mzv`,
`special zeta-table`, `poly vieta`, `poly check-derivative-mean` or
`verify --json`. The lines cover the reduction on index-power and explicit
specs (mixed denominators, zeros, negatives, a window of several hundred
distinct denominators, empty windows), Faulhaber sums up to p = 40, the
repeated even zeta values for p = 1..4 with and without `--numeric` (up to
depth 128 and the Bernoulli index cap at (128, 2)), the
shipped zeta table, the root identities (also on the 400 roots i/(i+1),
expanded and differentiated 200 times), and all nine identities at the
acceptance suite's sweep ranges (criterion 10), with fixed explicit specs
for the sequence-bearing identities and one explicit phi per phi-taking
identity, and three sweeps whose last point breaks a cap (the binomial
bound, the product window, the bridge's tuple count), each refused with
exit 2. Run it from the repository root with the command that starts
the CLI, to rewrite the records or to check an installed console script:

    PYTHONPATH=src python tests/cli_golden.py python -m multisums > tests/data/cli_golden.jsonl
    python tests/cli_golden.py multisums | cmp - tests/data/cli_golden.jsonl

`tests/test_cli_golden.py` replays the same records in process.

A line added to LINES has its record written by the code as it stands
before the change that the line pins, so the record is the old behaviour
the change must keep, not the output of the change itself.
"""

from __future__ import annotations

import json
import subprocess
import sys


def _spec(data: dict) -> str:
    return json.dumps(data, separators=(",", ":"))


def _power(exponent: int) -> str:
    return _spec({"kind": "index_power", "exponent": exponent})


MIXED = _spec({"kind": "explicit", "values": [1, "-1/2", 0, "2/5", -2, "7/3", "1/4", "-5/6", 3, "11/12"]})
BASED = _spec({"kind": "explicit", "base": 0, "values": [2, "-1/3", 3, "5/7", -2, "1/2", 4, "-3/5", 5]})
ZEROS = _spec({"kind": "explicit", "values": [0, 0, "1/3", 0, "-2/9", 0]})
BRIDGE_SPEC = json.dumps({"kind": "explicit", "values": [1, "-1/2", 3, "2/5", -2, "7/3", "1/4"]})
PRODUCT_SPEC = json.dumps({"kind": "explicit", "base": 0, "values": [2, "-1/3", 3, "5/7", -2, "1/2", 4, "-3/5", 5]})
WIDE_ROOTS = ",".join(f"{i}/{i + 1}" for i in range(1, 401))  # 400 distinct denominators


def _eval(spec: str, m: int, q: int, n: int, method: str) -> list[str]:
    return ["multisum", "eval", "--spec", spec, "--m", str(m), "--q", str(q), "--n", str(n), "--method", method]


LINES = [
    _eval(_power(1), 3, 1, 10, "reduce"),
    _eval(_power(1), 4, 1, 8, "both"),
    _eval(_power(2), 6, 0, 30, "reduce"),
    _eval(_power(0), 5, 3, 17, "reduce"),
    _eval(_power(-1), 1, 1, 1, "reduce"),
    _eval(_power(-1), 3, 1, 40, "both"),
    _eval(_power(-1), 4, 1, 600, "reduce"),
    _eval(_power(-1), 12, 2, 90, "reduce"),
    _eval(_power(-2), 5, 1, 120, "reduce"),
    _eval(_power(-3), 2, 1, 12, "both"),
    _eval(_power(1), 0, 1, 10, "reduce"),
    _eval(_power(1), 3, 5, 4, "reduce"),
    _eval(_power(1), 5, 1, 3, "both"),
    _eval(_power(-1), 2, 0, 5, "reduce"),
    _eval(MIXED, 4, 1, 10, "both"),
    _eval(MIXED, 7, 1, 10, "reduce"),
    _eval(MIXED, 10, 1, 10, "reduce"),
    _eval(BASED, 5, 0, 8, "both"),
    _eval(BASED, 3, 2, 7, "reduce"),
    _eval(ZEROS, 2, 1, 6, "both"),
    _eval(ZEROS, 4, 1, 6, "reduce"),
    *(["special", "faulhaber", "--n", str(n), "--p", str(p)] for n, p in [
        (0, 0), (1, 0), (10, 0), (10, 1), (100, 2), (7, 3), (12, 5), (25, 10), (0, 13),
        (50, 17), (9, 20), (1000, 25), (33, 31), (2, 38), (40, 39), (17, 40),
    ]),
    ["special", "faulhaber", "--n", "-1", "--p", "3"],
    ["special", "faulhaber", "--n", "5", "--p", "-1"],
    *(["special", "mzv", "--m", str(m), "--p", str(p)] for m, p in [
        (0, 1), (1, 1), (5, 1), (12, 1), (1, 2), (4, 2), (9, 2), (1, 3), (3, 3), (8, 3), (1, 4), (3, 4), (6, 4),
        (64, 1), (128, 2), (30, 3), (32, 4),
    ]),
    *(["special", "mzv", "--m", str(m), "--p", str(p), "--numeric", str(digits)] for m, p, digits in [
        (1, 1, 12), (3, 1, 40), (2, 2, 25), (5, 2, 60), (2, 3, 30), (4, 3, 8), (1, 4, 50), (4, 4, 20),
    ]),
    ["special", "mzv", "--m", "3", "--p", "0"],
    ["special", "zeta-table"],
    *(["poly", "vieta", "--roots", roots, "--m", str(m)] for roots, m in [
        ("1,2,3", 0), ("1,2,3", 2), ("1,2,3", 3), ("1/2,-3,0,5/7,2", 3), ("1/2,-3,0,5/7,2", 5),
        ("5,-1/3,-1/3,4/9,7,-2/11", 4), ("3", 1), ("1,2", 3),
    ]),
    *(["poly", "check-derivative-mean", "--roots", roots, "--k", str(k)] for roots, k in [
        ("1,2,3", 1), ("1,2,3", 2), ("1/2,-3,0,5/7,2", 3), ("5,-1/3,-1/3,4/9,7,-2/11", 4), ("2,5", 1),
    ]),
    ["poly", "vieta", f"--roots={WIDE_ROOTS}", "--m", "2"],
    ["poly", "check-derivative-mean", f"--roots={WIDE_ROOTS}", "--k", "200"],
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
    ["verify", "EVEN_ODD_BINOM", "--sweep", "m=9", "--json"],
    ["verify", "LEMMA_3_2", "--sweep", "m=9", "--json"],
    ["verify", "EVEN_ODD_N", "--sweep", "n=12,m=0..20", "--json"],
    # sweeps whose last point breaks a cap: the refusal and its exit 2
    ["verify", "BINOMIAL_PARTITION", "--sweep", "n=1999..2001,m=2000", "--json"],
    ["verify", "PRODUCT_IDENTITY", "--spec", _power(-1), "--q", "1", "--sweep", "n=98..101", "--json"],
    ["verify", "RECURRENT_BRIDGE", "--spec", _power(1), "--m", "6", "--q", "1", "--sweep", "n=26..28", "--json"],
]


def main(command: list[str]) -> None:
    for argv in LINES:
        done = subprocess.run(command + argv, capture_output=True, text=True, check=False)
        print(json.dumps({"argv": argv, "exit": done.returncode, "stdout": done.stdout}))


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: cli_golden.py COMMAND...")
    main(sys.argv[1:])
