"""Operation lists of the three workloads, generated from the seed.

An operation is plain JSON data, so the parent process, the worker process
and the oracle all read the same list without importing ``multisums``.
Sizes are fixed per slot and only values and parameters come from the seed,
so every seed costs about the same and pass times stay comparable.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("selftest", "deep_reduce", "cli")

# The acceptance contract numbers its criteria 1..10. Three fast ones run as
# one-off CLI calls; a fixed set keeps cli passes equally costly across seeds.
CRITERIA = tuple(range(1, 11))
CLI_CRITERIA = (3, 7, 8)

# deep_reduce slots: (m, n) of single-sequence reductions on explicit values.
# 21 ops in all: with an odd count the median and p90 fall inside one op's
# latencies instead of between two ops of different cost, which is steadier.
HIGH_ORDER = ((14, 60), (17, 60), (20, 60), (24, 60), (28, 60))   # p(m) dominates
LOW_ORDER = ((6, 1000), (8, 1500), (10, 2000))           # power sums dominate
MZV = ((20, 1), (16, 2), (14, 3))                        # (m, p), PiPolynomial ring
BERNOULLI = ((20, 1), (18, 2), (16, 3))                  # (m, p)
ROOT_COUNTS = (16, 20, 24)


def _fraction_text(rng: random.Random) -> str:
    num = rng.choice([v for v in range(-9, 10) if v])
    return f"{num}/{rng.randint(1, 9)}"


def _values(rng: random.Random, count: int) -> list[str]:
    return [_fraction_text(rng) for _ in range(count)]


def selftest_ops(rng: random.Random) -> list[dict]:
    # Fixed by the acceptance contract; the seed changes nothing here.
    return [{"kind": "criterion", "k": k} for k in CRITERIA]


def deep_reduce_ops(rng: random.Random) -> list[dict]:
    ops: list[dict] = []
    for m, n in HIGH_ORDER + LOW_ORDER:
        ops.append({"kind": "reduce", "values": _values(rng, n), "m": m, "q": 1, "n": n})
    ops += [{"kind": "mzv", "m": m, "p": p} for m, p in MZV]
    ops += [{"kind": "bernoulli", "m": m, "p": p} for m, p in BERNOULLI]
    ops += [{"kind": "coeff", "roots": _values(rng, count), "m": count - 4} for count in ROOT_COUNTS]
    n0 = rng.randint(11, 20)
    ops += [
        {"kind": "sweep", "identity": "LEMMA_3_1", "ranges": {"m": [13, 20]}},
        {"kind": "sweep", "identity": "EVEN_ODD_WEIGHTS", "ranges": {"m": [13, 20]}},
        {"kind": "sweep", "identity": "EVEN_ODD_N", "ranges": {"n": [n0, n0 + 1], "m": [0, 20]}},
        {"kind": "sweep", "identity": "EVEN_ODD_BINOM", "ranges": {"m": [7, 9]}},
    ]
    return ops


def _cli(argv: list, malformed: bool = False, defect: bool = False) -> dict:
    """A command line; a malformed one must end in exit 2 with a JSON error.
    ``defect`` marks the malformed lines the program is known to mishandle."""
    return {"kind": "cli", "argv": [str(a) for a in argv], "malformed": malformed or defect, "defect": defect}


def _spec_json(spec: dict) -> str:
    return json.dumps(spec, separators=(",", ":"))


def _multisum_line(rng: random.Random) -> dict:
    m = rng.randint(1, 6)
    if rng.random() < 0.5:
        n = rng.randint(m, 10)
        spec = {"kind": "explicit", "base": 1, "values": _values(rng, n)}
        q = 1
    else:
        spec = {"kind": "index_power", "exponent": rng.choice([-2, -1, 1, 2, 3])}
        q = rng.randint(1, 2)
        n = q + rng.randint(m - 1, 8)
    return _cli(["multisum", "eval", "--spec", _spec_json(spec), "--m", m, "--q", q, "--n", n, "--method", "both"])


def _roots(rng: random.Random) -> str:
    # Passed as --roots=TEXT: a leading minus sign would otherwise read as an option.
    return ",".join(_values(rng, rng.randint(3, 8)))


def _verify_line(rng: random.Random, as_json: bool) -> dict:
    identity = rng.choice(["LEMMA_3_1", "EVEN_ODD_WEIGHTS", "EVEN_ODD_N", "BINOMIAL_PARTITION", "STIRLING_ALTERNATING"])
    if identity in ("EVEN_ODD_N", "BINOMIAL_PARTITION"):
        sweep = f"n={rng.randint(0, 4)}..{rng.randint(5, 9)},m=0..{rng.randint(3, 8)}"
    else:
        sweep = f"m=0..{rng.randint(6, 14)}"
    return _cli(["verify", identity, "--sweep", sweep] + (["--json"] if as_json else []))


def _malformed_lines(rng: random.Random) -> list[dict]:
    """About a tenth of each cli pass. The first four reproduce the known
    input-boundary defects: the correct outcome is exit 2 with a JSON error,
    which the program at the time of writing does not give."""
    m = rng.randint(2, 4)
    window = ["--m", m, "--q", 1, "--n", m + rng.randint(0, 3)]
    bad_float = rng.choice(["0.1", "0.25", "1.5", "-0.3"])
    bad_exponent = rng.choice(["1.7", "2.5", "-1.2"])
    return [
        _cli(["multisum", "eval", "--spec", f"[{rng.randint(1, 9)}]"] + window, defect=True),
        _cli(["multisum", "eval", "--spec", '{"kind":"index_power"}'] + window, defect=True),
        _cli(["multisum", "eval", "--spec", '{"kind":"explicit","base":1,"values":[' + bad_float + "]}",
              "--m", 1, "--q", 1, "--n", 1], defect=True),
        _cli(["multisum", "eval", "--spec", '{"kind":"index_power","exponent":' + bad_exponent + "}"] + window,
             defect=True),
        _cli(["partitions", "count", -rng.randint(1, 9)], malformed=True),
    ]


def cli_ops(rng: random.Random) -> list[dict]:
    lines: list[dict] = []
    lines += [_cli(["partitions", "count", rng.randint(5, 60)]) for _ in range(4)]
    lines += [_cli(["partitions", "list", rng.randint(6, 14)]) for _ in range(3)]
    lines += [_multisum_line(rng) for _ in range(5)]
    for _ in range(4):
        roots = _roots(rng)
        lines.append(_cli(["poly", "vieta", f"--roots={roots}", "--m", rng.randint(0, roots.count(",") + 1)]))
    for _ in range(3):
        roots = _roots(rng)
        lines.append(_cli(["poly", "check-derivative-mean", f"--roots={roots}", "--k", rng.randint(0, roots.count(","))]))
    lines += [_cli(["special", "faulhaber", "--n", rng.randint(0, 200), "--p", rng.randint(0, 12)]) for _ in range(4)]
    for i in range(4):
        argv = ["special", "mzv", "--m", rng.randint(0, 8), "--p", rng.randint(1, 3)]
        lines.append(_cli(argv + (["--numeric", rng.randint(5, 30)] if i % 2 else [])))
    lines.append(_cli(["special", "zeta-table"]))
    lines += [_verify_line(rng, as_json=i % 2 == 1) for i in range(4)]
    lines += [_cli(["selftest", "--criterion", k]) for k in CLI_CRITERIA]
    lines += _malformed_lines(rng)
    rng.shuffle(lines)
    return lines


def make_ops(workload: str, seed: int) -> list[dict]:
    """The operation list of one pass; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    return {"selftest": selftest_ops, "deep_reduce": deep_reduce_ops, "cli": cli_ops}[workload](rng)


def input_size(workload: str, ops: list[dict]) -> dict:
    """The stated input size of a pass: largest order, longest window, op count."""
    if workload == "selftest":  # fixed by the acceptance contract
        return {"max_m": 12, "max_window": 12, "ops_per_pass": len(ops)}
    orders, windows = [0], [0]
    for op in ops:
        if op["kind"] == "cli":
            argv = op["argv"]
            flags = dict(zip(argv, argv[1:]))
            if argv[0] == "partitions" and argv[2].lstrip("-").isdigit():
                orders.append(int(argv[2]))
            if flags.get("--m", "x").isdigit():
                orders.append(int(flags["--m"]))
            if flags.get("--n", "x").isdigit():
                windows.append(int(flags["--n"]) - int(flags.get("--q", 1)) + 1)
        elif op["kind"] == "sweep":
            orders.append(op["ranges"]["m"][1])
        else:
            orders.append(op.get("m", 0))
            windows.append(len(op.get("values", op.get("roots", ()))))
    return {"max_m": max(orders), "max_window": max(windows), "ops_per_pass": len(ops)}
