"""Traced stand-in for `python -m qtopo.cli`, used by the cli workload's traced run.

    PYTHONPATH=src PERFBENCH_SPAWN_T=<parent perf_counter> \
        python bench/cli_launcher.py <trace.json> <qtopo arguments...>

Times interpreter start-up (from the parent's spawn time, on the shared
monotonic clock), the fresh `import qtopo.cli` and the call into
`qtopo.cli.main`, with the benchmark's wrappers installed in between, and
writes those figures and the spans to <trace.json>. Exit code, output and
any traceback are those of the CLI itself.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    out_path, argv = sys.argv[1], sys.argv[2:]
    interpreter_s = T0 - float(os.environ["PERFBENCH_SPAWN_T"])
    t = time.perf_counter()
    import qtopo.cli

    startup_s = time.perf_counter() - t
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    t = time.perf_counter()
    try:
        qtopo.cli.main(argv, prog_name="qtopo")
    finally:
        inprocess_s = time.perf_counter() - t
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump({"spans": tracer.spans, "interpreter_s": interpreter_s, "startup_s": startup_s,
                       "inprocess_s": inprocess_s}, fh)


if __name__ == "__main__":
    main()
