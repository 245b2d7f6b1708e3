"""The multisums benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload selftest|deep_reduce|cli --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root; the program is imported from ``src``. The load
is a closed loop with one client: each pass over the workload's operation
list runs in a fresh interpreter, one at a time, so every pass is cold, as a
``multisums`` user's run is. For ``cli`` every operation is its own
process, which runs the package's ``__main__`` as ``python -m multisums``
does. Expected results come from ``oracle.py``, computed once per run,
outside every timed call. Timings are scaled to a reference machine speed
(see ``speed.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``. The
line before it is the provenance block. ``--workload all`` prints a table of
the end-to-end metrics of every workload instead. Exits 2 without a result
when the program's source is missing or the benchmark finds a defect in
itself.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import oracle
import speed
import workloads
from memory import MARKER
from tracing import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5        # extra cold starts per run, so setup_s is a median
CHILD_TIMEOUT_S = 150   # a child still running after this is killed and its ops fail
# Percentiles the tail is read at: the highest one with ten samples beyond it.
# The grid is coarse so that a run a few passes longer or shorter reads the
# same percentile; every workload stays below 1000 samples, so p90 is used.
TAIL_GRID = (90, 99, 99.9)

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "pass_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s", f"{layer}.errors": "count"})
    units.update({
        "core.tuples_enumerated": "count",
        "core.window_terms": "count",
        "partitions.partitions_visited": "count",
        "partitions.set_partitions_visited": "count",
        "partitions.repeat_ratio": "ratio",
        "exact_arith.fraction_ops": "count",
        "exact_arith.pi_poly_muls": "count",
        "exact_arith.max_bits": "bits",
        "identities.reports": "count",
    })
    units.update({f"acceptance.criterion_{k}_s": "s" for k in workloads.CRITERIA})
    units.update({
        "cli.interpreter_s": "s",
        "cli.import_s": "s",
        "cli.run_s": "s",
        "cli.emit_s": "s",
        "cli.emit_bytes": "bytes",
        "trace.overhead_ratio": "ratio",
        "trace.spans": "count",
    })
    return units


class BenchmarkDefect(Exception):
    """The benchmark disagrees with itself; its numbers must not be used."""


class Runner:
    """Spawns the program's processes from the repository root, one at a time."""

    def __init__(self, root: str, workload: str, seed: int) -> None:
        self.root, self.workload, self.seed = root, workload, seed
        self.out_dir = os.path.join(HERE, "out")
        os.makedirs(self.out_dir, exist_ok=True)
        # Children cache bytecode, as an installed package does, whatever the caller's setting.
        dropped = ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "MULTISUM_MAX_M")
        self.env = {k: v for k, v in os.environ.items() if k not in dropped}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.spans_path = os.path.join(self.out_dir, f"spans-{workload}-seed{seed}.tsv")

    def spawn(self, argv: list[str]) -> dict:
        """Run one child to completion: exit code, output and wall time."""
        started = time.monotonic()
        try:
            child = subprocess.run(argv, capture_output=True, env=self.env, cwd=self.root, timeout=CHILD_TIMEOUT_S)
            code, stdout, stderr = child.returncode, child.stdout, child.stderr
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            code, stdout, stderr = None, exc.stdout or b"", (exc.stderr or b"") + b"\ntimed out"
        wall = time.monotonic() - started
        return {"code": code, "stdout": stdout.decode("utf-8", "replace"),
                "stderr": stderr.decode("utf-8", "replace"), "started": started, "wall_s": wall}

    def worker(self, mode: str, traced: bool = False) -> tuple[dict, dict]:
        child = self.spawn([sys.executable, os.path.join(HERE, "worker.py"), self.workload, mode,
                            str(int(traced)), self.spans_path])
        if child["code"] != 0:
            return child, {}
        return child, json.loads(child["stdout"].splitlines()[-1])

    def setup_sample(self) -> float:
        child, data = self.worker("probe")
        if not data:
            raise BenchmarkDefect(f"set-up probe failed:\n{child['stderr']}")
        return data["ready"] - child["started"]

    def interpreter_sample(self) -> float:
        return self.spawn([sys.executable, "-c", "pass"])["wall_s"]

    def run_pass(self, ops: list[dict], traced: bool) -> dict:
        if self.workload == "cli":
            return self._cli_pass(ops, traced)
        child, data = self.worker(str(self.seed), traced)
        if not data:  # the whole pass crashed: every op failed
            sys.stderr.write(f"worker failed with exit {child['code']}:\n{child['stderr'][-2000:]}\n")
            return {"latencies": [], "results": [{"crashed": True}] * len(ops), "rss_kb": 0}
        return {"latencies": data["latencies"], "results": data["results"], "rss_kb": data["peak_rss_kb"],
                "setup_s": data["ready"] - child["started"], "import_s": data["import_s"],
                "loop_s": data["loop_s"], "trace": data.get("trace")}

    def _cli_pass(self, ops: list[dict], traced: bool) -> dict:
        starts = [self.interpreter_sample() for _ in range(3)]  # the speed reference of a cli pass
        latencies, results, rss, traces = [], [], [], []
        summary_path = os.path.join(self.out_dir, f"launch-summary-{self.workload}-seed{self.seed}.json")
        if traced:
            open(self.spans_path, "w").close()
        for index, op in enumerate(ops):
            options = [summary_path, self.spans_path, str(index)] if traced else []
            if os.path.exists(summary_path):
                os.remove(summary_path)
            child = self.spawn([sys.executable, os.path.join(HERE, "launch.py")] + options + ["--"] + op["argv"])
            latencies.append(child["wall_s"])
            stderr, _, peak = child["stderr"].rstrip("\n").rpartition(f"\n{MARKER} ")
            rss.append(int(peak) if peak.isdigit() else 0)
            results.append({"code": child["code"], "stdout": child["stdout"], "traceback": "Traceback" in stderr})
            if traced:
                if not os.path.exists(summary_path):
                    raise BenchmarkDefect(f"traced launcher wrote no summary:\n{stderr[-2000:]}")
                with open(summary_path, encoding="utf-8") as f:
                    trace = json.load(f)
                trace["emit_bytes"] = len(child["stdout"].encode("utf-8"))
                traces.append(trace)
        # One set-up probe per pass spreads the samples over the run, as worker starts do.
        starts += [self.interpreter_sample() for _ in range(3)]
        out = {"latencies": latencies, "results": results, "rss_kb": max(rss), "setup_s": self.setup_sample(),
               "interpreter_s": statistics.median(starts)}
        if traced:
            out["trace"] = merge_traces(traces)
            out["import_s"] = statistics.median(t["import_s"] for t in traces)
        return out


def merge_traces(traces: list[dict]) -> dict:
    """Sum the per-command trace summaries of one cli pass."""
    merged = {"layers": {layer: {"calls": 0, "self_s": 0.0, "errors": 0} for layer in LAYERS},
              "counts": {}, "enumerated": {}, "criteria": {}, "max_bits": 0, "spans": 0,
              "run_s": 0.0, "emit_s": 0.0, "emit_bytes": 0}
    for trace in traces:
        for layer, agg in trace["layers"].items():
            for key, value in agg.items():
                merged["layers"][layer][key] += value
        for field in ("counts", "enumerated", "criteria"):
            for key, value in trace[field].items():
                merged[field][key] = merged[field].get(key, 0) + value
        merged["max_bits"] = max(merged["max_bits"], trace["max_bits"])
        for key in ("spans", "run_s", "emit_s", "emit_bytes"):
            merged[key] += trace[key]
    return merged


def work_counts(trace: dict) -> dict:
    """Everything in a trace summary that must repeat exactly for one seed."""
    return {
        "calls": {layer: agg["calls"] for layer, agg in trace["layers"].items()},
        "errors": {layer: agg["errors"] for layer, agg in trace["layers"].items()},
        "counts": trace["counts"], "enumerated": trace["enumerated"], "max_bits": trace["max_bits"],
        "spans": trace["spans"], "emit_bytes": trace.get("emit_bytes", 0),
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest grid percentile with ten samples beyond it."""
    percentile = max([p for p in TAIL_GRID if len(samples) * (100 - p) / 100 >= 10], default=TAIL_GRID[0])
    cuts = statistics.quantiles(samples, n=1000, method="inclusive")
    return percentile, cuts[round(percentile * 10) - 1]


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def benchmark_names(root: str, key: str) -> list[str]:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        return [metric["name"] for metric in json.load(f)[key]]


def self_check(ops: list[dict], expected: list, results: list) -> None:
    """A correct result changed by 1 must fail its check."""
    for op, want, got in zip(ops, expected, results):
        if not op.get("malformed") and oracle.check(op, want, got):
            if oracle.check(op, want, oracle.perturb(got)):
                raise BenchmarkDefect(f"a perturbed result of {op['kind']} still passes its check")
            return
    raise BenchmarkDefect("no correct result to perturb")


def scale(record: dict) -> float:
    """Factor taking a pass's timings to the reference speed (see speed.py)."""
    if "loop_s" in record:
        return speed.REFERENCE_S / record["loop_s"]
    return speed.INTERPRETER_REFERENCE_S / record["interpreter_s"]


def run_workload(root: str, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    runner = Runner(root, workload, seed)
    ops = workloads.make_ops(workload, seed)
    expected = [oracle.expect(op) for op in ops]

    runner.setup_sample()  # warm-up: compiles bytecode once, as an installed package has it
    setup = [runner.setup_sample() for _ in range(SETUP_PROBES)]
    interpreter = [runner.interpreter_sample() for _ in range(SETUP_PROBES)] if traced else []

    passes: list[dict] = []
    started = time.monotonic()
    while True:
        # A traced run alternates plain and traced passes, at least two traced.
        want_trace = traced and len(passes) % 2 == 1
        record = runner.run_pass(ops, want_trace)
        record["traced"] = want_trace
        passes.append(record)
        elapsed = time.monotonic() - started
        if elapsed >= seconds and (not traced or sum(p["traced"] for p in passes) >= 2):
            break

    attempted = failed = 0
    unexpected: list[str] = []
    for number, record in enumerate(passes):
        for index, (op, want, got) in enumerate(zip(ops, expected, record["results"])):
            repeat = passes[0]["results"][index]
            ok = oracle.check(op, want, got) and got == repeat
            attempted += 1
            if not ok:
                failed += 1
                if not op.get("defect"):
                    unexpected.append(f"pass {number} op {index} {op['kind']} {op.get('argv', '')}")
    self_check(ops, expected, passes[0]["results"])

    plain = [p for p in passes if not p["traced"] and p["latencies"]]  # a crashed pass has no timings
    latencies = [s * scale(p) for p in plain for s in p["latencies"]]
    setup += [p["setup_s"] for p in plain]
    percentile, tail_value = tail(latencies)
    pass_s = statistics.median(sum(p["latencies"]) * scale(p) for p in plain)
    provenance = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "python": platform.python_version(), "mpmath": _version("mpmath"), "nproc": os.cpu_count(),
        "commit": git_commit(root),
        "input": workloads.input_size(workload, ops),
        "passes": len(plain), "traced_passes": len(passes) - len(plain),
        "latency_tail": {"percentile": percentile, "samples": len(latencies)},
        "fail_ratio": failed / attempted,
        "known_defect_ops_per_pass": sum(1 for op in ops if op.get("defect")),
        "unexpected_failures": unexpected[:20],
        "speed": {  # timings before scaling to the reference speed
            "reference": speed.REFERENCE_S if workload != "cli" else speed.INTERPRETER_REFERENCE_S,
            "measured": statistics.median(p.get("loop_s", p.get("interpreter_s")) for p in plain),
            "raw_pass_s": statistics.median(sum(p["latencies"]) for p in plain),
            "raw_latency_p50_ms": 1000 * statistics.median(s for p in plain for s in p["latencies"]),
        },
    }
    if traced:
        metrics = layer_metrics(passes, pass_s, interpreter)
        provenance["input"]["exact_arith.max_bits"] = metrics["exact_arith.max_bits"]
        units = per_layer_units()
        names = benchmark_names(root, "per_layer")
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s": pass_s,
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_tail_ms": 1000 * tail_value,
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": statistics.median(p["rss_kb"] for p in plain) / 1024,
        }
        units = END_TO_END
        names = benchmark_names(root, "end_to_end")
    if sorted(metrics) != sorted(names) or sorted(units) != sorted(names):
        raise BenchmarkDefect(f"printed metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ set(names))}")
    return {
        "provenance": provenance,
        "result": {
            "correct": not unexpected,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
        },
    }


def layer_metrics(passes: list[dict], plain_pass_s: float, interpreter: list[float]) -> dict:
    """Per-layer metrics; times are medians over traced passes, at the reference speed."""
    traced = [p for p in passes if p["traced"]]
    traces = [p["trace"] for p in traced]
    first = work_counts(traces[0])
    for other in traces[1:]:
        if work_counts(other) != first:
            diff = [key for key in first if work_counts(other)[key] != first[key]]
            raise BenchmarkDefect(f"work counts differ between two traced passes of one seed: {diff}")

    def median(values) -> float:
        return statistics.median(list(values))

    def scaled(seconds_of) -> float:
        return median(seconds_of(p) * scale(p) for p in traced)

    base = traces[0]
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = base["layers"][layer]["calls"]
        metrics[f"{layer}.self_s"] = scaled(lambda p: p["trace"]["layers"][layer]["self_s"])
        metrics[f"{layer}.errors"] = base["layers"][layer]["errors"]
    counts = base["counts"]
    enumerations = sum(base["enumerated"].values())
    metrics.update({
        "core.tuples_enumerated": counts.get("tuples_enumerated", 0),
        "core.window_terms": counts.get("window_terms", 0),
        "partitions.partitions_visited": counts.get("partitions_visited", 0),
        "partitions.set_partitions_visited": counts.get("set_partitions_visited", 0),
        "partitions.repeat_ratio": (enumerations - len(base["enumerated"])) / enumerations if enumerations else 0.0,
        "exact_arith.fraction_ops": counts.get("fraction_ops", 0),
        "exact_arith.pi_poly_muls": counts.get("pi_poly_muls", 0),
        "exact_arith.max_bits": base["max_bits"],
        "identities.reports": counts.get("reports", 0),
    })
    for k in workloads.CRITERIA:
        metrics[f"acceptance.criterion_{k}_s"] = scaled(lambda p: p["trace"]["criteria"].get(str(k), 0.0))
    metrics.update({
        "cli.interpreter_s": median(interpreter),
        "cli.import_s": median(p["import_s"] for p in traced),
        "cli.run_s": scaled(lambda p: p["trace"]["run_s"]),
        "cli.emit_s": scaled(lambda p: p["trace"]["emit_s"]),
        "cli.emit_bytes": base.get("emit_bytes", 0),
        "trace.overhead_ratio": scaled(lambda p: sum(p["latencies"])) / plain_pass_s,
        "trace.spans": base["spans"],
    })
    return metrics


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def print_table(root: str, seed: int, seconds: float) -> bool:
    """Every end-to-end metric of every workload, plus fail_ratio, by name and unit."""
    print(f"{'workload':<12} {'metric':<16} {'value':>12} unit")
    all_correct = True
    for workload in workloads.WORKLOADS:
        run = run_workload(root, workload, seed, seconds, traced=False)
        result, prov = run["result"], run["provenance"]
        rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
        rows.append(("fail_ratio", prov["fail_ratio"], "ratio"))
        for name, value, unit in rows:
            print(f"{workload:<12} {name:<16} {value:>12.6g} {unit}")
        lt = prov["latency_tail"]
        print(f"{workload:<12} (tail at p{lt['percentile']} of {lt['samples']} samples; "
              f"{result['failed']} of {result['attempted']} ops failed; correct={result['correct']})")
        all_correct &= result["correct"]
    return all_correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run then kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "multisums", "__init__.py")):
        sys.stderr.write("perfbench: src/multisums not found; run from the repository root\n")
        return 2
    try:
        if args.workload == "all":
            return 0 if print_table(root, args.seed, args.seconds) else 1
        run = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkDefect as exc:
        sys.stderr.write(f"perfbench: benchmark defect: {exc}\n")
        return 2
    record = os.path.join(HERE, "out", f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as f:
        json.dump(run, f, indent=1)
    print(json.dumps({"provenance": run["provenance"]}))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
