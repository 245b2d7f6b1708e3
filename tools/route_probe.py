"""Time the window reductions, brute force and the variation expansions on wide probe rows.

Each row is timed in process, once (or best of ``--repeat``), through the
public entry point: ``reduce_multiple_sum``, ``brute_multiple_sum``,
``variation_expand``, ``variation_recursive``, ``verify(PRODUCT_IDENTITY)``
or ``coeff_ratio_from_roots``. The brute rows lie on both sides of the tuple
kernel's regime: a short window at m = 5, as the acceptance suite sums, and
windows near the tuple cap at m = 1, 2 and 3. For the reduction rows the table also gives the
two inputs of the route rule, bits(prod den) and m bits(L), and the route
the rule picks; ``--routes`` times the Newton route and Viete's product on
their own as well. A tree that lacks a private name prints ``-`` in its
column, and one whose window reductions read a window positionally rather
than as weighted terms (``core._terms``) is read that way, so the same
script runs on an older checkout. Standard library only; not run by
the tests. The wide rows reach orders near the window width, which no
benchmark workload does; the two explicit rows repeat values, as data
windows over a small alphabet do.

Run from the repository root:

    python tools/route_probe.py                  # src/ of this checkout
    python tools/route_probe.py --src OTHER/src  # another checkout
    python tools/route_probe.py --routes         # both routes on every reduction row (several minutes)
"""

from __future__ import annotations

import argparse
import math
import platform
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

_POOL = random.Random(31)
# 2000 values drawn from the 110 one-digit fractions +-a/b, a, b in 1..9, and 10^4 drawn from the
# 19 integers -9..9
ONE_DIGIT = tuple(Fraction(_POOL.choice([1, -1]) * _POOL.randint(1, 9), _POOL.randint(1, 9)) for _ in range(2000))
SMALL_INTEGERS = tuple(Fraction(_POOL.randint(-9, 9)) for _ in range(10**4))

# (label, exponent or explicit values, q, n, m): reduce_multiple_sum of N ** exponent, or of the
# values from index 1, on [q, n] at order m
REDUCTIONS = (
    ("N^-1 on [1, 200], m = 200", -1, 1, 200, 200),
    ("N^-6 on [1, 100], m = 100", -6, 1, 100, 100),
    ("N^-6 on [1, 150], m = 150", -6, 1, 150, 150),
    ("N^-1 on [1, 200], m = 100", -1, 1, 200, 100),
    ("N^1 on [1, 1000], m = 500", 1, 1, 1000, 500),
    ("N^1 on [1, 1000], m = 1000", 1, 1, 1000, 1000),
    ("N^-1 on [1, 5000], m = 20", -1, 1, 5000, 20),
    ("N^-2 on [1, 2000], m = 10", -2, 1, 2000, 10),
    ("N^-1 on [1, 100000], m = 2", -1, 1, 100000, 2),
    ("2000 one-digit fractions, m = 10", ONE_DIGIT, 1, 2000, 10),
    ("10^4 of 19 small integers, m = 5", SMALL_INTEGERS, 1, 10**4, 5),
)
# (label, exponent or explicit values, q, n, m): brute_multiple_sum of one spec at every position
BRUTE = (
    ("9 one-digit fractions, m = 5", ONE_DIGIT[:9], 1, 9, 5),
    ("N^-1 on [1, 100000], m = 1", -1, 1, 100000, 1),
    ("N^-1 on [1, 1414], m = 2", -1, 1, 1414, 2),
    ("N^1 on [1, 182], m = 3", 1, 1, 182, 3),
)
ROOTS = 400  # coeff_ratio_from_roots on the roots i / (i + 1), i = 1..ROOTS, at m = ROOTS / 2


def _best(call, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - started)
    return best


def _product_bits(tree) -> int:
    """bits(prod den) over a _scale_tree of (num, den, count) terms or of (num, den) pairs."""
    return sum((term[1] - 1).bit_length() * math.prod(term[2:]) for block, _ in tree[0] for term in block)


def _rows(ms, routes: bool, repeat: int):
    core, arith = ms.core, ms.exact_arith
    viete, tree_of = getattr(arith, "_viete", None), getattr(arith, "_scale_tree", None)
    read = getattr(core, "_terms", core._read)  # what the window reductions of this tree read
    for label, source, q, n, m in REDUCTIONS:
        spec = ms.IndexPower(source) if isinstance(source, int) else ms.ExplicitSequence(source)
        row = {"case": f"reduce {label}"}
        if tree_of is not None:
            tree = tree_of(list(read(spec, q, n)))
            row["bits(prod den)"] = _product_bits(tree)
            row["m bits(L)"] = m * tree[2].bit_length()
            row["rule"] = "product" if core._takes_product(tree, m) else "Newton"
        row["entry s"] = _best(lambda: ms.reduce_multiple_sum(spec, m, q, n), repeat)
        if routes:
            def newton():
                elementary, scale = core._scaled_elementary(read(spec, q, n), m)
                return Fraction(elementary[m], scale**m)

            row["Newton s"] = _best(newton, repeat)
            if viete is not None:
                def product():
                    coeffs = viete(read(spec, q, n), m)
                    return Fraction(coeffs[m], coeffs[0])

                row["product s"] = _best(product, repeat)
        yield row
    for label, source, q, n, m in BRUTE:
        spec = ms.IndexPower(source) if isinstance(source, int) else ms.ExplicitSequence(source)
        problem = ms.SumProblem((spec,) * m, q, n)
        yield {"case": f"brute {label}", "entry s": _best(lambda: ms.brute_multiple_sum(problem), repeat)}
    rng = random.Random(6)
    specs = tuple(ms.ExplicitSequence([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(20)])
                  for _ in range(6))
    problem = ms.SumProblem(specs, 1, 19)  # P_{6,1,20}: every spec explicit on [1, 20]
    for name in ("variation_expand", "variation_recursive"):
        call = getattr(ms, name)
        yield {"case": f"{name}, 6 specs on [1, 20], cutoff 0", "entry s": _best(lambda: call(problem, 0), repeat)}
    params = {"spec": ms.IndexPower(-6), "q": 1, "n": 100}
    yield {"case": "verify PRODUCT_IDENTITY, N^-6 on [1, 100]",
           "entry s": _best(lambda: ms.verify("PRODUCT_IDENTITY", params), repeat), "rule": "Newton"}
    roots = [Fraction(i, i + 1) for i in range(1, ROOTS + 1)]
    yield {"case": f"coeff_ratio_from_roots, {ROOTS} roots i/(i+1), m = {ROOTS // 2}",
           "entry s": _best(lambda: ms.coeff_ratio_from_roots(roots, ROOTS // 2), repeat), "rule": "Newton"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the directory holding the multisums package (default: this checkout's src)")
    parser.add_argument("--routes", action="store_true", help="also time each route of every reduction row")
    parser.add_argument("--repeat", type=int, default=1, help="best of this many runs per cell (default 1)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src))
    import multisums

    columns = ["case", "bits(prod den)", "m bits(L)", "rule", "entry s", "Newton s", "product s"]
    print(f"# {args.src} on Python {platform.python_version()}, {platform.machine()}, {platform.processor() or '?'}")
    print("| " + " | ".join(columns) + " |")
    print("|" + "---|" * len(columns))
    for row in _rows(multisums, args.routes, args.repeat):
        cells = [f"{v:.4g}" if isinstance(v, float) else str(v) for v in (row.get(c, "-") for c in columns)]
        print("| " + " | ".join(cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
