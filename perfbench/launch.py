"""Run one ``multisums`` command line as ``python -m multisums`` does.

    python3 perfbench/launch.py -- ARGV...
    python3 perfbench/launch.py SUMMARY_PATH SPANS_PATH OP_ID -- ARGV...

Without options the package's own ``__main__`` runs, through ``runpy`` as
``-m`` would. With them the benchmark's span wrappers are installed first and
``multisums.cli.main`` is called; the trace summary goes to SUMMARY_PATH and
the spans are appended to SPANS_PATH. Standard output and the exit code are
the command's own. At exit the process's peak RSS is written to stderr, as
the last line.
"""

import time

STARTED = time.monotonic()

import atexit  # noqa: E402
import sys  # noqa: E402

from memory import MARKER, peak_rss_kb  # noqa: E402


def _report_peak() -> None:
    sys.stderr.write(f"\n{MARKER} {peak_rss_kb()}\n")


def main() -> int:
    split = sys.argv.index("--")
    options, argv = sys.argv[1:split], sys.argv[split + 1:]
    atexit.register(_report_peak)
    if not options:
        import runpy

        sys.argv = ["multisums"] + argv
        runpy.run_module("multisums", run_name="__main__", alter_sys=True)
        return 0

    import json

    import multisums.cli

    ready = time.monotonic()
    from tracing import Tracer

    summary_path, spans_path, op_id = options[0], options[1], int(options[2])
    tracer = Tracer().install(extras=((multisums.cli, "_emit"),))
    tracer.op = op_id
    try:
        return multisums.cli.main(argv)
    finally:
        summary = tracer.summary()
        summary["import_s"] = ready - STARTED
        with open(summary_path, "w", encoding="utf-8") as out:
            json.dump(summary, out)
        tracer.dump(spans_path, mode="a")


if __name__ == "__main__":
    sys.exit(main())
