"""Command-line entry point: exact multiple sums and the paper's partition identities, as JSON.

One JSON document per invocation on stdout (`partitions list` emits JSON
lines, one object per partition); human diagnostics go to stderr only, so
identical argv produces byte-identical stdout. Exit codes: 0 pass, 1 an
identity check failed, 2 usage or domain error.

Each input rule is checked once, by the library unless the command line
builds the input itself; a refused input is exit 2 with the one-key JSON
object {"error": message}. Every rule on an identity's parameters, caps
included, is checked by the registry of multisums.identities; this module
adds none of its own. No environment variable is read. Brute force
reachable from the command line (`multisum eval --method brute|both` and
`verify RECURRENT_BRIDGE`, swept orders included) runs at orders up to
core.BRUTE_MAX_M = 6 and at most core.BRUTE_MAX_TUPLES tuples per call.
Partition enumeration (`partitions list` and the partition sums of
`verify`) stops at m = PARTITION_LIST_MAX_M, `partitions count` at
m = partitions.PARTITION_COUNT_MAX_M, `--numeric` at
NUMERIC_MAX_DIGITS digits and `--sweep` at SWEEP_MAX_POINTS grid points,
as many reports after phi expansion and SWEEP_MAX_PARTITIONS partitions
summed over. `special faulhaber` and `special mzv` need Bernoulli numbers
up to special_sums.BERNOULLI_MAX_INDEX; `verify BINOMIAL_PARTITION` takes
n and m up to identities.BINOMIAL_MAX, `verify PRODUCT_IDENTITY`
windows of up to identities.PRODUCT_MAX_WINDOW terms and `verify
STIRLING_ALTERNATING` m up to identities.STIRLING_MAX_M. Those input caps
bound the output too: exact results print in full, however many digits
they have.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Sequence

from .core import (
    SumProblem,
    _check_brute_order,
    brute_multiple_sum,
    reduce_multiple_sum,
    sequence_spec_from_json,
)
from .exact_arith import PiPolynomial, _Record, _set, pi_poly_numeric, rational_from_str, rational_to_str
from .identities import IdentityId, verify, verify_sweep
from .partitions import enumerate_partitions, partition_count
from .polynomials import coeff_ratio_from_roots, mean_root_ratio, poly_derivative, poly_from_roots
from .special_sums import faulhaber, load_zeta_golden_table, mzv_closed_form, mzv_even_reduced, zeta_even

__all__ = ["CommandOutcome", "run", "main"]

class CommandOutcome(_Record):
    """What one command line gives: its exit code and the payload to print.

    exit_code is 0 on a pass, 1 when an identity check failed and 2 on a
    usage or domain error; with jsonl the payload is a list to emit as one
    JSON document per line.
    """

    __slots__ = ("exit_code", "payload", "jsonl")

    def __init__(self, exit_code: int, payload: object, jsonl: bool = False) -> None:
        _set(self, "exit_code", exit_code)
        _set(self, "payload", payload)
        _set(self, "jsonl", jsonl)


def _ok(payload, jsonl: bool = False) -> CommandOutcome:
    return CommandOutcome(0, payload, jsonl)


def _fail(payload) -> CommandOutcome:
    return CommandOutcome(1, payload)


def _error(message: str) -> CommandOutcome:
    return CommandOutcome(2, {"error": message})


def _parse_spec(text: str) -> object:
    """The JSON of a --spec option; nesting too deep to parse is refused like any malformed spec."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("--spec JSON is nested too deeply to parse") from None


def _parse_roots(text: str) -> list[Fraction]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("need at least one root")
    return [rational_from_str(p) for p in parts]


def _parse_phi(text: str) -> tuple[int, ...]:
    return tuple(int(p.strip()) for p in text.split(",") if p.strip())


def _parse_sweep(text: str) -> dict[str, range]:
    """Parse "m=0..12,n=3" into {"m": range(0, 13), "n": range(3, 4)}."""
    ranges: dict[str, range] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, spec = chunk.partition("=")
        name = name.strip()
        if not name or not spec:
            raise ValueError(f"bad sweep chunk {chunk!r}, expected name=a..b")
        if name in ranges:
            raise ValueError(f"sweep names {name!r} twice")
        if ".." in spec:
            lo_text, _, hi_text = spec.partition("..")
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(spec)
        if hi < lo:
            raise ValueError(f"empty sweep range {chunk!r}")
        ranges[name] = range(lo, hi + 1)
    if not ranges:
        raise ValueError("sweep string is empty")
    return ranges


def _build_parser() -> argparse.ArgumentParser:
    # the first paragraph only: the rest, on the caps, is for readers of this module and the README
    parser = argparse.ArgumentParser(prog="multisums", description=(__doc__ or "").partition("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_part = sub.add_parser("partitions", help="integer partition enumeration")
    part_sub = p_part.add_subparsers(dest="action", required=True)
    p_list = part_sub.add_parser("list", help="emit one JSON object per partition")
    p_list.add_argument("m", type=int)
    p_count = part_sub.add_parser("count", help="number of partitions")
    p_count.add_argument("m", type=int)

    p_multi = sub.add_parser("multisum", help="ordered multiple sums")
    multi_sub = p_multi.add_subparsers(dest="action", required=True)
    p_eval = multi_sub.add_parser("eval", help="evaluate one sum by brute force and/or reduction")
    p_eval.add_argument("--spec", required=True, help='sequence JSON, e.g. {"kind":"index_power","exponent":1}')
    p_eval.add_argument("--m", type=int, required=True)
    p_eval.add_argument("--q", type=int, required=True)
    p_eval.add_argument("--n", type=int, required=True)
    p_eval.add_argument("--method", choices=["brute", "reduce", "both"], default="both")

    p_poly = sub.add_parser("poly", help="polynomial coefficient identities")
    poly_sub = p_poly.add_subparsers(dest="action", required=True)
    p_vieta = poly_sub.add_parser("vieta", help="coefficient ratio from roots, two routes")
    p_vieta.add_argument("--roots", required=True, help='comma-separated rationals, e.g. "1,2,3"')
    p_vieta.add_argument("--m", type=int, required=True)
    p_mean = poly_sub.add_parser("check-derivative-mean", help="mean-root ratio invariance under derivatives")
    p_mean.add_argument("--roots", required=True)
    p_mean.add_argument("--k", type=int, required=True)

    p_special = sub.add_parser("special", help="power sums and even zeta values")
    special_sub = p_special.add_subparsers(dest="action", required=True)
    p_faul = special_sub.add_parser("faulhaber", help="sum of p-th powers of 1..n")
    p_faul.add_argument("--n", type=int, required=True)
    p_faul.add_argument("--p", type=int, required=True)
    p_mzv = special_sub.add_parser("mzv", help="depth-m repeated even zeta value, exact")
    p_mzv.add_argument("--m", type=int, required=True)
    p_mzv.add_argument("--p", type=int, required=True)
    p_mzv.add_argument("--numeric", type=int, metavar="DIGITS", help="append a decimal rendering")
    special_sub.add_parser("zeta-table", help="compare computed zeta values against the shipped table")

    p_verify = sub.add_parser("verify", help="check a registered identity")
    p_verify.add_argument("identity", choices=[i.value for i in IdentityId])
    p_verify.add_argument("--m", type=int)
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--q", type=int)
    p_verify.add_argument("--r", type=int, help="cross-check: phi must be a partition of r")
    p_verify.add_argument("--phi", help='multiplicity encoding, e.g. "0,1,0"')
    p_verify.add_argument("--spec", help="sequence JSON for the sequence-bearing identities")
    p_verify.add_argument("--sweep", help='ranges like "m=0..12" (comma-separated)')
    p_verify.add_argument("--json", action="store_true", help="emit the full report array")

    p_self = sub.add_parser("selftest", help="run the acceptance criteria")
    p_self.add_argument("--criterion", type=int, help="run a single criterion")
    p_self.add_argument("--jobs", type=int, help="run criteria concurrently (output order unchanged)")

    return parser


def _cmd_partitions(args) -> CommandOutcome:
    if args.action == "count":
        return _ok({"m": args.m, "count": partition_count(args.m)})
    rows = [
        {"m": args.m, "y": list(y), "length": sum(y), "parity": "odd" if sum(y) % 2 else "even"}
        for y in enumerate_partitions(args.m)
    ]
    return _ok(rows, jsonl=True)


def _cmd_multisum(args) -> CommandOutcome:
    if args.m < 0:
        raise ValueError("m must be >= 0")
    spec = sequence_spec_from_json(_parse_spec(args.spec))
    payload: dict[str, object] = {}
    if args.method in ("brute", "both"):
        _check_brute_order(args.m)
        brute = brute_multiple_sum(SumProblem((spec,) * args.m, args.q, args.n))
        payload["brute"] = rational_to_str(brute)
    if args.method in ("reduce", "both"):
        reduced = reduce_multiple_sum(spec, args.m, args.q, args.n)
        payload["reduced"] = rational_to_str(reduced)
    if args.method == "both":
        equal = payload["brute"] == payload["reduced"]
        payload["equal"] = equal
        if not equal:
            return _fail(payload)
    return _ok(payload)


def _cmd_poly(args) -> CommandOutcome:
    roots = _parse_roots(args.roots)
    poly = poly_from_roots(roots)
    if args.action == "vieta":
        lhs = coeff_ratio_from_roots(roots, args.m)
        rhs = poly.coeffs[len(roots) - args.m] / poly.coeffs[len(roots)]
    else:
        lhs = mean_root_ratio(poly)
        rhs = mean_root_ratio(poly_derivative(poly, args.k))
    payload = {"lhs": rational_to_str(lhs), "rhs": rational_to_str(rhs), "equal": lhs == rhs}
    return _ok(payload) if lhs == rhs else _fail(payload)


def _cmd_special(args) -> CommandOutcome:
    if args.action == "faulhaber":
        return _ok({"n": args.n, "p": args.p, "value": rational_to_str(faulhaber(args.n, args.p))})
    if args.action == "mzv":
        value = mzv_even_reduced(args.m, args.p)
        payload: dict[str, object] = {"m": args.m, "p": args.p, "value": value.to_json_dict()}
        if args.p in (1, 2, 3):
            closed = mzv_closed_form(args.m, args.p)
            payload["closed_form"] = closed.to_json_dict()
            payload["equal"] = value == closed
            if not payload["equal"]:
                return _fail(payload)
        if args.numeric is not None:
            payload["numeric"] = pi_poly_numeric(value, args.numeric)
        return _ok(payload)
    golden = load_zeta_golden_table()
    entries = []
    all_match = True
    for argument in sorted(golden):
        computed = zeta_even(argument // 2)
        expected = golden[argument]
        match = computed == PiPolynomial(argument, expected)
        all_match &= match
        entries.append(
            {
                "argument": argument,
                "computed": computed.to_json_dict(),
                "golden": rational_to_str(expected),
                "match": match,
            }
        )
    payload = {"entries": entries, "all_match": all_match}
    return _ok(payload) if all_match else _fail(payload)


def _cmd_verify(args) -> CommandOutcome:
    identity = IdentityId(args.identity)
    params: dict[str, object] = {}
    for name in ("m", "n", "q"):
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    if args.phi is not None:
        phi = _parse_phi(args.phi)
        if args.r is not None and sum(i * v for i, v in enumerate(phi, start=1)) != args.r:
            raise ValueError(f"phi {list(phi)} is not a partition of r={args.r}")
        params["phi"] = phi
    elif args.r is not None:
        raise ValueError("--r without --phi has nothing to check")
    if args.spec is not None:
        params["spec"] = _parse_spec(args.spec)
    if args.sweep:
        reports = verify_sweep(identity, _parse_sweep(args.sweep), base=params)
    else:
        reports = [verify(identity, params)]
    passed = sum(1 for r in reports if r.equal)
    if args.json:
        payload: object = [r.to_json_dict() for r in reports]
    else:
        payload = {
            "identity": identity.value,
            "reports": len(reports),
            "passed": passed,
            "all_equal": passed == len(reports),
        }
    return _ok(payload) if passed == len(reports) else _fail(payload)


def _cmd_selftest(args) -> CommandOutcome:
    from .acceptance import run_all  # only selftest loads the acceptance suite

    if args.jobs is not None and args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    numbers = None if args.criterion is None else [args.criterion]
    results = run_all(numbers, jobs=args.jobs)
    print(f"{'#':>2} {'criterion':<44} {'result':<6} {'time':>8}", file=sys.stderr)
    for r in results:
        verdict = "PASS" if r.passed else "FAIL"
        print(f"{r.number:>2} {r.title:<44} {verdict:<6} {r.seconds:7.2f}s", file=sys.stderr)
        if not r.passed:
            print(f"   {r.detail}", file=sys.stderr)
    total = sum(r.seconds for r in results)
    print(f"   total {total:.2f}s", file=sys.stderr)
    payload = {
        "criteria": [r.to_json_dict() for r in results],
        "passed": sum(1 for r in results if r.passed),
        "total": len(results),
        "all_passed": all(r.passed for r in results),
    }
    return _ok(payload) if payload["all_passed"] else _fail(payload)


def run(argv: Sequence[str]) -> CommandOutcome:
    """Dispatch one command line; never raises for user-facing problems."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        if exc.code == 0:  # --help
            return _ok({"help": True})
        return _error("bad usage (see stderr)")
    try:
        if args.command == "partitions":
            return _cmd_partitions(args)
        if args.command == "multisum":
            return _cmd_multisum(args)
        if args.command == "poly":
            return _cmd_poly(args)
        if args.command == "special":
            return _cmd_special(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_selftest(args)
    except (ValueError, ZeroDivisionError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return _error(str(exc))


def _emit(outcome: CommandOutcome) -> None:
    if outcome.exit_code == 0 and isinstance(outcome.payload, dict) and outcome.payload.get("help"):
        return  # argparse already printed the help text
    if outcome.jsonl:
        for row in outcome.payload:  # type: ignore[union-attr]
            print(json.dumps(row, separators=(",", ":")))
    else:
        print(json.dumps(outcome.payload, separators=(",", ":")))


def main(argv: Sequence[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # absent before 3.10.7
        sys.set_int_max_str_digits(0)  # no digit limit on printing exact results
    outcome = run(sys.argv[1:] if argv is None else argv)
    _emit(outcome)
    return outcome.exit_code
