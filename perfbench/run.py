"""The repository benchmark.

    python3 perfbench/run.py --workload {suite,scale,cli,daemon}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout. ``--trace 0`` measures the workload
for about ``--seconds`` and reports the end-to-end metrics; ``--trace
1`` runs one pass untraced, then the same pass with timing wrappers on
every layer entry point, and reports per-layer self times and counters
plus the tracing overhead. Every operation's output is checked; the
run prints each metric by name with its unit, one row per metric, and
as its last line a JSON object ``{"correct", "attempted", "failed",
"metrics"}``. It exits 1 when any check failed and 2 when the package
source is missing. See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import re
import sys
import tempfile
import traceback
from pathlib import Path

# Bytecode goes to the benchmark's cache, never next to the sources.
sys.pycache_prefix = str(
    Path(__file__).resolve().parent.parent / ".perfbench-pycache"
)

import common  # noqa: E402

WORKLOADS = ("suite", "scale", "cli", "daemon")

#: End-to-end metrics every untraced run reports.
END_TO_END = (
    "setup_s",
    "pass_s",
    "p50_ms",
    "tail_ms",
    "ops_per_s",
    "peak_rss_mib",
    "runtime_cycles",
    "compile_gates_per_s",
    "execute_gates_per_s",
    "verify_s",
)

#: Per-layer metrics every traced run reports: (name, unit).
PER_LAYER = (
    ("startup.import_s", "s"),
    ("core.parse_s", "s"),
    ("core.build_s", "s"),
    ("analysis.lint_s", "s"),
    ("passes.decompose_s", "s"),
    ("passes.flatten_s", "s"),
    ("passes.ops_after_decompose", "count"),
    ("passes.ops_after_flatten", "count"),
    ("dag.build_s", "s"),
    ("dag.nodes", "count"),
    ("dag.edges", "count"),
    ("sched.rcp_s", "s"),
    ("sched.lpfs_s", "s"),
    ("sched.timesteps", "count"),
    ("comm.derive_movement_s", "s"),
    ("comm.teleports", "count"),
    ("comm.local_moves", "count"),
    ("comm.epochs", "count"),
    ("coarse.profile_s", "s"),
    ("toolflow.estimate_s", "s"),
    ("toolflow.self_s", "s"),
    ("stream.build_columns_s", "s"),
    ("stream.schedule_s", "s"),
    ("stream.movement_s", "s"),
    ("stream.bytes_per_gate", "B"),
    ("stream_io.write_s", "s"),
    ("stream_io.read_s", "s"),
    ("stream_io.bytes", "B"),
    ("engine.run_s", "s"),
    ("engine.stream_run_s", "s"),
    ("engine.events", "count"),
    ("sim.spec_check_s", "s"),
    ("sim.replay_s", "s"),
    ("sim.inputs_checked", "count"),
    ("service.hit_ratio", "ratio"),
    ("server.coalesced", "count"),
    ("server.rejected", "count"),
    ("server.hit_p50_ms", "ms"),
    ("server.miss_p50_ms", "ms"),
    ("server.generator_lag_ms", "ms"),
    ("trace.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)


#: Per-layer metrics of the ``daemon`` workload that spans cannot give.
SERVER_LAYERS = tuple(
    name for name, _ in PER_LAYER if name.startswith(("service.", "server."))
)


def _pipeline_version() -> str:
    """Read from the source, so the benchmark process itself need not
    import the package (its RSS would fold into its children's)."""
    text = (common.SRC / "repro" / "core" / "canonical.py").read_text()
    match = re.search(r'^PIPELINE_VERSION = "([^"]+)"', text, re.M)
    return match.group(1) if match else "unknown"


def _rescale(res: common.Result) -> None:
    """Report the marked timings at the calibration kernel's reference
    speed (the raw value goes in the note). The kernel times' trimmed
    mean, not their median, sets the speed: operations live through the
    host's slow stretches as well as its fast ones."""
    if not res.rescaled:
        return
    speed = common.CALIBRATE_REF_S / common.trimmed_mean(res.calibration)
    for name in sorted(res.rescaled):
        res.rescale(name, speed)


def _layers(res: common.Result) -> None:
    """Turn a traced run's spans into the per-layer metrics."""
    import tracing

    selfs, counters, wall, worst = res.spans.aggregate()
    for layer in tracing.LAYERS:
        if layer in ("toolflow", "trace"):
            continue
        res.put(f"{layer}_s", selfs[layer], "s")
    res.put("toolflow.self_s", selfs["toolflow"], "s")
    res.put("trace.self_s", selfs["trace"], "s")
    units = dict(PER_LAYER)
    for name in tracing.COUNTERS:
        if name in units:
            res.put(name, counters[name], units[name])
    ops = counters["stream.ops"]
    res.put(
        "stream.bytes_per_gate",
        counters["stream.column_bytes"] / ops if ops else 0.0,
        "B",
    )
    # The daemon's figures come from its ``/v1/stats`` and the load
    # generator, not from spans; other workloads leave them at 0.
    for name in SERVER_LAYERS:
        value, unit = res.layer_extra.get(name, (0.0, units[name]))
        res.put(name, value, unit)
    res.put("trace.wall_s", wall, "s")
    res.put("trace.untraced_wall_s", res.untraced_wall, "s")
    res.put("trace.overhead_s", wall - res.untraced_wall, "s")
    # Summed over every span, self times telescope to the root spans'
    # wall, so this fails only on a span whose parent is missing; a
    # span whose children outlast it (mis-nested or overlapping spans)
    # shows as a negative self time.
    claimed = sum(selfs.values())
    if abs(claimed - wall) > 1e-6 * max(wall, 1.0):
        res.failures.append(
            f"trace: layer self times sum to {claimed}, wall {wall}"
        )
    if worst[0] < -1e-6:
        res.failures.append(
            f"trace: a {worst[1]} span's children outlast it by "
            f"{-worst[0]:.6g} s"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: package source {common.SRC / 'repro'} not found; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    # The default code path only: ``suite`` imports the package into
    # this process, which reads the switch at import time.
    os.environ.pop("REPRO_FASTPATH", None)
    sys.path.insert(0, str(common.SRC))
    sys.dont_write_bytecode = False
    common.warm_bytecode()

    # Only the chosen workload's module: ``suite`` measures this
    # process's own peak RSS.
    module = importlib.import_module(
        {"cli": "climix"}.get(opts.workload, opts.workload)
    )
    run = common.RunDir()
    try:
        os.environ["TMPDIR"] = str(run.tmp)
        tempfile.tempdir = None
        res = module.run(opts, run)
        if opts.trace:
            _layers(res)
        else:
            _rescale(res)
    except Exception:  # noqa: BLE001 - reported, and the run fails
        traceback.print_exc()
        print(f"error: {opts.workload} run crashed", file=sys.stderr)
        return 1
    finally:
        run.close()

    wanted = (
        [name for name, _ in PER_LAYER] if opts.trace else list(END_TO_END)
    )
    missing = [name for name in wanted if name not in res.metrics]
    for name in missing:
        res.failures.append(f"metric {name} not measured")
    correct = not res.failures and res.attempted > 0

    print(
        f"perfbench workload={opts.workload} seed={opts.seed} "
        f"seconds={opts.seconds:g} trace={opts.trace} "
        f"nproc={common.nproc()} python={platform.python_version()} "
        f"pipeline={_pipeline_version()}"
        + (
            f" calibration={common.trimmed_mean(res.calibration) * 1e3:.3f}ms"
            f" x{len(res.calibration)}"
            if res.calibration
            else ""
        )
    )
    for name in wanted:
        if name in res.metrics:
            value, unit = res.metrics[name]
            note = res.notes.get(name, "")
            print(f"  {opts.workload:7} {name:28} {value:>16.6g} {unit:8} "
                  f"{note}".rstrip())
    for name, note in res.notes.items():
        if name not in res.metrics:
            print(f"  {opts.workload:7} {name:28} {note}")
    error_rate = len(res.failures) / max(res.attempted, 1)
    print(f"  {opts.workload:7} {'error_rate':28} {error_rate:>16.6g} "
          f"ratio    {len(res.failures)} of {res.attempted}")
    for failure in res.failures:
        print(f"  FAILED {failure}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": res.attempted,
                "failed": len(res.failures),
                "metrics": {
                    name: {"value": res.metrics[name][0],
                           "unit": res.metrics[name][1]}
                    for name in wanted
                    if name in res.metrics
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
