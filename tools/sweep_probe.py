"""Time identity sweeps by the shared route and by a route of one report at a time.

Each row is one sweep, timed in process through the public entry points,
best of ``--repeat`` runs:

- "shared s" is ``verify_sweep`` itself. A sweep that expands phi walks each
  order once for every phi, a ``BINOMIAL_PARTITION`` sweep runs Newton
  once per n, and a ``STIRLING_ALTERNATING`` sweep builds its rows in one
  ascending pass, whatever the order of its m.
- "per-report s" makes the same reports one ``verify`` call each: a given
  phi walks the partitions z of m - r, and a point of
  ``BINOMIAL_PARTITION`` runs Newton up to its own m. The rows at a given
  phi (m = 49) take that same route in both columns.

The ``PRODUCT_IDENTITY`` and ``RECURRENT_BRIDGE`` rows pass an explicit
sequence as JSON, as the command line does: the sweep reads it once for all
its reports, and the per-report column passes the same JSON to each
``verify``, which reads it for its one report.

The "same" column says whether both routes gave equal reports, compared by
``to_json_dict``, and "all equal" whether every report's sides agree. The
script exits 1 when either reads False on any row, so it can run as a
check. Only public names are used, so the same script runs on an older
checkout, where both columns take the per-report route. The descending
``STIRLING_ALTERNATING`` row runs by the shared route only. The 10 000-report
``BINOMIAL_PARTITION`` row runs only with ``--large``, and by the shared
route only: it takes about 2.5 s where a Newton run per report would take
about 22 minutes, as it does on a checkout without the shared rows.
Standard library only; not run by the tests.

Run from the repository root:

    python tools/sweep_probe.py                  # src/ of this checkout
    python tools/sweep_probe.py --src OTHER/src  # another checkout
    python tools/sweep_probe.py --repeat 5       # best of five runs per cell
    python tools/sweep_probe.py --large          # add the 10 000-report row
"""

from __future__ import annotations

import argparse
import platform
import sys
import time
from pathlib import Path

# an explicit sequence as JSON, the form the command line passes: 60 values (-1)^k k / (k + 2)
_EXPLICIT = {"kind": "explicit", "base": 1, "values": [f"{(-1) ** k * k}/{k + 2}" for k in range(1, 61)]}
# (identity, ranges, base, time the per-report route too); the last row is the --large one
SWEEPS = (
    ("EVEN_ODD_BINOM", {"m": range(7, 10)}, {}, True),
    ("LEMMA_3_2", {"m": range(7, 10)}, {}, True),
    ("EVEN_ODD_BINOM", {"m": range(19)}, {}, True),
    ("LEMMA_3_2", {"m": range(19)}, {}, True),
    ("EVEN_ODD_BINOM", {"m": [25]}, {}, True),
    ("LEMMA_3_2", {"m": [25]}, {}, True),
    ("BINOMIAL_PARTITION", {"n": range(31), "m": range(31)}, {}, True),
    ("BINOMIAL_PARTITION", {"m": range(1995, 2001)}, {"n": 2000}, True),
    ("LEMMA_3_2", {"m": [49]}, {"phi": (1,)}, True),
    ("EVEN_ODD_BINOM", {"m": [49]}, {"phi": (1,)}, True),
    ("LEMMA_3_2", {"m": [49]}, {"phi": (0, 0, 1)}, True),
    ("EVEN_ODD_BINOM", {"m": [49]}, {"phi": (0, 0, 1)}, True),
    ("PRODUCT_IDENTITY", {"n": range(40, 61)}, {"spec": _EXPLICIT, "q": 1}, True),
    ("RECURRENT_BRIDGE", {"n": range(4, 13)}, {"spec": _EXPLICIT, "m": 4, "q": 1}, True),
    ("STIRLING_ALTERNATING", {"m": range(600, -1, -1)}, {}, False),
    ("BINOMIAL_PARTITION", {"m": range(2000), "n": range(1996, 2001)}, {}, False),
)


def _label(identity: str, ranges: dict, base: dict) -> str:
    def text(values) -> str:
        if isinstance(values, range) and len(values) > 1:
            return f"{values.start}..{values[-1]}"
        return ",".join(map(str, values))

    parts = [f"{name} = {text(values)}" for name, values in ranges.items()]
    parts += [f"{name} = {value['kind']} JSON" if isinstance(value, dict) else f"{name} = {value}"
              for name, value in base.items()]
    return f"{identity}, {', '.join(parts)}"


def _best(call, repeat: int):
    best, result = float("inf"), None
    for _ in range(repeat):
        started = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - started)
    return best, result


def _one_at_a_time(ms, identity: str, ranges: dict, base: dict, reports) -> list:
    """The reports of a sweep, remade by one verify call each on the base and each report's swept values and phi."""
    return [ms.verify(identity, {**base, **{k: v for k, v in r.params.items() if k in ranges or k == "phi"}})
            for r in reports]


def _rows(ms, repeat: int, large: bool):
    for identity, ranges, base, per_report in SWEEPS if large else SWEEPS[:-1]:
        row = {"case": _label(identity, ranges, base)}
        row["shared s"], reports = _best(lambda: ms.verify_sweep(identity, ranges, base), repeat)
        row["reports"] = len(reports)
        row["all equal"] = all(r.equal for r in reports)
        if per_report:
            row["per-report s"], alone = _best(lambda: _one_at_a_time(ms, identity, ranges, base, reports), repeat)
            row["same"] = [r.to_json_dict() for r in reports] == [r.to_json_dict() for r in alone]
        yield row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the directory holding the multisums package (default: this checkout's src)")
    parser.add_argument("--repeat", type=int, default=3, help="best of this many runs per cell (default 3)")
    parser.add_argument("--large", action="store_true", help="add the 10 000-report BINOMIAL_PARTITION row")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src))
    import multisums

    columns = ["case", "reports", "all equal", "shared s", "per-report s", "same"]
    print(f"# {args.src} on Python {platform.python_version()}, {platform.machine()}, {platform.processor() or '?'}")
    print("| " + " | ".join(columns) + " |")
    print("|" + "---|" * len(columns))
    failed = False
    for row in _rows(multisums, args.repeat, args.large):
        cells = [f"{v:.4f}" if isinstance(v, float) else str(v) for v in (row.get(c, "-") for c in columns)]
        print("| " + " | ".join(cells) + " |", flush=True)
        failed |= row["all equal"] is False or row.get("same") is False
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
