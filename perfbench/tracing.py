"""Spans and work counts around the public functions of ``multisums``.

Installed from outside the package: every function named in a module's
``__all__`` is replaced, in every ``multisums.*`` namespace that binds it, by
a wrapper that records a span (name, start, end, parent, op id) in memory.
Fraction operators and ``PiPolynomial`` products are counted too. A layer is
the module that defines a function; its self time is the time its spans
cover minus the time covered by their child spans.

Work counts come from call arguments and return values only, so they repeat
exactly from run to run, and the benchmark checks that they do.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
import types
from collections import Counter
from fractions import Fraction

LAYERS = ("core", "partitions", "exact_arith", "polynomials", "special_sums", "identities", "acceptance", "cli")
FRACTION_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                      "__truediv__", "__rtruediv__", "__pow__", "__rpow__")


def bit_length(value, depth: int = 0) -> int:
    """Largest numerator or denominator bit length in a returned value."""
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if depth > 2:
        return 0
    if isinstance(value, (list, tuple)):
        return max((bit_length(v, depth + 1) for v in value), default=0)
    if hasattr(value, "coefficient") and hasattr(value, "terms"):  # PiPolynomial
        return bit_length(tuple(value.terms.values()), depth + 1)
    if hasattr(value, "lhs") and hasattr(value, "rhs"):  # VerificationReport
        return max(bit_length(value.lhs, depth + 1), bit_length(value.rhs, depth + 1))
    return 0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.spans: list[list] = []  # [name id, parent span, op id, start, end, raised]
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.enumerated: Counter = Counter()  # order m -> enumerate_partitions calls
        self.criteria: dict[int, float] = {}
        self.max_bits = 0

    # -- installation -------------------------------------------------------

    def install(self, extras: tuple = ()) -> "Tracer":
        """Wrap every public function of every loaded multisums module.

        ``extras`` names further (module, attribute) pairs to wrap as spans.
        """
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "multisums" or name.startswith("multisums.")]
        wrapped: dict[int, object] = {}
        for mod in modules:
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                is_function = isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")
                if is_function and id(obj) not in wrapped:
                    wrapped[id(obj)] = self._wrap(obj, f"{obj.__module__.rpartition('.')[2]}.{obj.__name__}")
        for mod, attr in extras:
            obj = getattr(mod, attr)
            wrapped[id(obj)] = self._wrap(obj, f"{mod.__name__.rpartition('.')[2]}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
        pi_poly = getattr(sys.modules.get("multisums.exact_arith"), "PiPolynomial", None)
        if pi_poly is not None:
            for attr in ("__mul__", "__rmul__"):
                setattr(pi_poly, attr, self._wrap(getattr(pi_poly, attr), "exact_arith.PiPolynomial.__mul__"))
        self._count_fraction_operators()
        return self

    def _count_fraction_operators(self) -> None:
        counts = self.counts
        self._fraction_operators = {attr: getattr(Fraction, attr) for attr in FRACTION_OPERATORS}
        for attr, operator in self._fraction_operators.items():
            def counted(a, b, _operator=operator):
                counts["fraction_ops"] += 1
                return _operator(a, b)
            setattr(Fraction, attr, counted)

    def stop(self) -> None:
        """Stop counting Fraction operators; spans and counts so far are kept."""
        for attr, operator in self._fraction_operators.items():
            setattr(Fraction, attr, operator)

    def _wrap(self, func, name: str):
        name_id = len(self.names)
        self.names.append(name)
        self.layer_of.append(name.partition(".")[0])
        counter = self._counter(name, func)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            record = [name_id, stack[-1] if stack else -1, self.op, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(record)
            record[3] = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                record[5] = 1
                raise
            finally:
                record[4] = clock()
                stack.pop()
            bits = bit_length(result)
            if bits > self.max_bits:
                self.max_bits = bits
            if counter is not None:
                counter(args, kwargs, result, record)
            return result

        return traced

    def _counter(self, name: str, func):
        """The work count a function's arguments and result add to, if any."""
        signature = inspect.signature(func) if name in _WORK_COUNTS else None

        def arguments(args, kwargs) -> dict:
            return signature.bind(*args, **kwargs).arguments

        counts = self.counts
        if name == "core.brute_multiple_sum":
            def count(args, kwargs, result, record):
                problem = arguments(args, kwargs)["problem"]
                counts["tuples_enumerated"] += math.comb(max(problem.n - problem.q + 1, 0), problem.m)
        elif name == "core.brute_recurrent_sum":
            def count(args, kwargs, result, record):
                a = arguments(args, kwargs)
                width = max(a["n"] - a["q"] + 1, 0)
                counts["tuples_enumerated"] += math.comb(width + a["m"] - 1, a["m"]) if width else int(a["m"] == 0)
        elif name == "core.power_sums":
            def count(args, kwargs, result, record):
                a = arguments(args, kwargs)
                counts["window_terms"] += max(a["n"] - a["q"] + 1, 0) * a["m"]
        elif name == "partitions.enumerate_partitions":
            def count(args, kwargs, result, record):
                counts["partitions_visited"] += len(result)
                self.enumerated[arguments(args, kwargs)["m"]] += 1
        elif name == "partitions.enumerate_set_partitions":
            def count(args, kwargs, result, record):
                counts["set_partitions_visited"] += len(result)
        elif name == "identities.verify":
            def count(args, kwargs, result, record):
                counts["reports"] += 1
        elif name == "exact_arith.PiPolynomial.__mul__":
            def count(args, kwargs, result, record):
                counts["pi_poly_muls"] += 1
        elif name == "acceptance.run_criterion":
            def count(args, kwargs, result, record):
                self.criteria[arguments(args, kwargs)["number"]] = record[4] - record[3]
        else:
            count = None
        return count

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer calls, self time and errors, the work counts, span totals."""
        covered = [0.0] * len(self.spans)
        for name_id, parent, _op, start, end, _raised in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        layers = {layer: {"calls": 0, "self_s": 0.0, "errors": 0} for layer in LAYERS}
        by_name: Counter = Counter()
        for index, (name_id, _parent, _op, start, end, raised) in enumerate(self.spans):
            layer = layers[self.layer_of[name_id]]
            layer["calls"] += 1
            layer["self_s"] += end - start - covered[index]
            layer["errors"] += raised
            by_name[self.names[name_id]] += end - start
        return {
            "layers": layers,
            "counts": dict(self.counts),
            "enumerated": {str(m): c for m, c in sorted(self.enumerated.items())},
            "criteria": {str(k): s for k, s in self.criteria.items()},
            "max_bits": self.max_bits,
            "spans": len(self.spans),
            "run_s": by_name["cli.run"],
            "emit_s": by_name["cli._emit"],
        }

    def dump(self, path: str, mode: str = "w") -> None:
        """Write the spans as tab-separated lines under a JSON name table."""
        with open(path, mode, encoding="utf-8") as out:
            out.write("#names " + json.dumps(self.names) + "\n")
            for index, (name_id, parent, op, start, end, raised) in enumerate(self.spans):
                out.write(f"{index}\t{parent}\t{op}\t{name_id}\t{start:.9f}\t{end:.9f}\t{raised}\n")


# Functions whose arguments feed a work count; the rest are only timed.
_WORK_COUNTS = {
    "core.brute_multiple_sum", "core.brute_recurrent_sum", "core.power_sums",
    "partitions.enumerate_partitions", "acceptance.run_criterion",
}
