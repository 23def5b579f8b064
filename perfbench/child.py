"""Entry point for the interpreters the benchmark starts.

    python3 perfbench/child.py setup <suite|scale|cli>
        import what the workload's first operation needs, print
        "ready" and exit (``setup_s`` times this from spawn).
    python3 perfbench/child.py scale-job '<json job>'
        run one ``scale`` job and print its measurements as JSON.
    python3 perfbench/child.py run <repro arguments...>
        ``python -m repro`` that writes its own high-water RSS
        (``VmHWM``, in KiB) to ``$PERFBENCH_RSS`` at exit.
    python3 perfbench/child.py cli <repro arguments...>
        traced ``python -m repro``: time the import, install the
        layer wrappers, run the CLI, and write the spans to
        ``$PERFBENCH_SPANS`` at exit.
    python3 perfbench/child.py serve <serve arguments...>
        traced ``python -m repro serve``: every root span finished in
        the daemon or a forked worker is appended to
        ``$PERFBENCH_SPANS_DIR/<pid>.jsonl``.

``$PERFBENCH_TRACE=1`` turns tracing on for ``scale-job``. Only the
traced modes import the tracer, so ``run`` adds nothing but the exit
hook to the command it times.
"""

from __future__ import annotations

import json
import os
import sys


def _install() -> None:
    """Install the wrappers; the time it takes is the tracer's own."""
    import tracing

    span = tracing.TRACER.open("trace")
    try:
        tracing.install()
    finally:
        tracing.TRACER.close(span)


def _timed_import(module: str) -> None:
    import importlib

    import tracing

    span = tracing.TRACER.open("startup.import")
    try:
        importlib.import_module(module)
    finally:
        tracing.TRACER.close(span)


def setup(workload: str) -> int:
    if workload == "cli":
        import repro.cli  # noqa: F401
    elif workload == "suite":
        from repro.arch.machine import MultiSIMD
        from repro.benchmarks import BENCHMARKS  # noqa: F401
        from repro.engine.executor import execute_result  # noqa: F401
        from repro.sched.replay import replay_schedule  # noqa: F401
        from repro.toolflow import compile_and_schedule  # noqa: F401

        MultiSIMD(k=4, d=4, local_memory=4.0)
    elif workload == "scale":
        import scale  # noqa: F401
        from repro.service.stream_io import execute_schedule_stream  # noqa
        from repro.sim.specs import bind_spec  # noqa: F401
        from repro.toolflow import compile_and_schedule_streamed  # noqa
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    print("ready", flush=True)
    return 0


def scale_job(spec: str) -> int:
    job = json.loads(spec)
    traced = os.environ.get("PERFBENCH_TRACE") == "1"
    if traced:
        _timed_import("repro")
        _install()
    import scale
    import tracing

    out = scale.run_job(job["kind"], job["gates"], job["seed"])
    if traced:
        out["spans"] = tracing.TRACER.export()
    print(json.dumps(out))
    return 0


def run(argv) -> int:
    import atexit
    import runpy

    def dump() -> None:
        with open("/proc/self/status") as fh:
            hwm = next(x for x in fh if x.startswith("VmHWM:")).split()[1]
        with open(os.environ["PERFBENCH_RSS"], "w") as fh:
            fh.write(hwm)

    atexit.register(dump)
    sys.path[0] = os.getcwd()  # as ``python -m`` sets it
    sys.argv = ["repro", *argv]
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
    return 0


def cli(argv) -> int:
    import tracing

    _timed_import("repro.cli")
    _install()
    tracing.dump_on_exit(os.environ["PERFBENCH_SPANS"])
    from repro.cli import main

    return main(list(argv))


def serve(argv) -> int:
    import tracing

    _timed_import("repro.cli")
    tracing.install()
    tracing.TRACER.spans = []  # the import span belongs to no request
    tracing.flush_roots_to(os.environ["PERFBENCH_SPANS_DIR"])
    from repro.cli import main

    return main(["serve", *argv])


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "run":
        return run(rest)
    if mode == "setup":
        return setup(rest[0])
    if mode == "scale-job":
        return scale_job(rest[0])
    if mode == "cli":
        return cli(rest)
    if mode == "serve":
        return serve(rest)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
