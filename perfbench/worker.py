"""One pass of an in-process workload, run in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE SPANS_PATH

Imports what the workload's first call needs, notes the moment it can be
issued, then makes every call of the pass and times each one, and times the
speed loop of ``speed.py`` before and after the pass. SEED ``probe`` stops
after the imports, to sample set-up time alone. With TRACE 1 every public
``multisums`` function records spans, which go to SPANS_PATH. Prints one
JSON object.
"""

import time

STARTED = time.monotonic()

import importlib  # noqa: E402
import sys  # noqa: E402

# What each workload's first call needs; set-up time covers these imports.
FIRST_CALL_MODULES = {
    "selftest": ("multisums", "multisums.acceptance"),
    "deep_reduce": ("multisums",),
    "cli": ("multisums", "multisums.cli"),
}


def _text(value) -> str:
    return f"{value.numerator}/{value.denominator}"


def _prepare(op: dict):
    """(function, arguments, result converter) of one op; inputs built here, untimed."""
    import multisums
    from fractions import Fraction

    kind = op["kind"]
    if kind == "criterion":
        acceptance = sys.modules["multisums.acceptance"]
        return acceptance.run_criterion, (op["k"],), lambda r: {"passed": r.passed, "title": r.title,
                                                                 "detail": r.detail}
    if kind == "reduce":
        spec = multisums.ExplicitSequence(tuple(Fraction(v) for v in op["values"]), base=1)
        return multisums.reduce_multiple_sum, (spec, op["m"], op["q"], op["n"]), _text
    if kind == "coeff":
        return multisums.coeff_ratio_from_roots, ([Fraction(v) for v in op["roots"]], op["m"]), _text
    if kind == "mzv":
        return multisums.mzv_even_reduced, (op["m"], op["p"]), lambda r: r.to_json_dict()
    if kind == "bernoulli":
        return multisums.bernoulli_partition_sum, (op["m"], op["p"]), _text
    if kind == "sweep":
        ranges = {name: range(lo, hi + 1) for name, (lo, hi) in op["ranges"].items()}
        return multisums.verify_sweep, (multisums.IdentityId(op["identity"]), ranges), \
            lambda reports: [r.to_json_dict() for r in reports]
    raise ValueError(f"op kind {kind!r} does not run in process")


def main() -> int:
    workload, seed, trace, spans_path = sys.argv[1], sys.argv[2], sys.argv[3] == "1", sys.argv[4]
    for name in FIRST_CALL_MODULES[workload]:
        importlib.import_module(name)
    ready = time.monotonic()

    import json

    from memory import peak_rss_kb

    out = {"ready": ready, "import_s": ready - STARTED}
    if seed != "probe":
        import speed
        import workloads

        loop_before = speed.loop_seconds()  # before any wrapper slows Fraction down
        tracer = None
        if trace:
            from tracing import Tracer

            tracer = Tracer().install()
        calls = [_prepare(op) for op in workloads.make_ops(workload, int(seed))]
        latencies, values = [], []
        clock = time.perf_counter
        for index, (function, args, _convert) in enumerate(calls):
            if tracer is not None:
                tracer.op = index
            started = clock()
            try:
                value = function(*args)
            except Exception as exc:  # a raising op is a failed op, not a crashed pass
                value = exc
            latencies.append(clock() - started)
            values.append(value)
        if tracer is not None:
            tracer.stop()
            out["trace"] = tracer.summary()
            tracer.dump(spans_path)
        out["latencies"] = latencies
        out["results"] = [{"raised": f"{type(v).__name__}: {v}"} if isinstance(v, Exception) else convert(v)
                          for v, (_f, _a, convert) in zip(values, calls)]
        del values
        out["loop_s"] = (loop_before + speed.loop_seconds()) / 2
    out["peak_rss_kb"] = peak_rss_kb()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
