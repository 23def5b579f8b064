"""``suite`` workload: the paper's evaluation traffic.

Every registry benchmark x {rcp, lpfs} at Multi-SIMD(4,4) with local
memory 4 (the ``perf`` grid), in one warm process with no artifact
cache. A job is ``compile_and_schedule`` followed by engine execution
of the result, in registry order: the grid is the paper's, so the seed
changes nothing here (a seeded job order moved pass time and peak RSS
by up to a third, through the heap state each job inherits). After each job
(outside its timing) every retained full-width schedule is replayed
against the Multi-SIMD(k,d) rules and the engine's realized runtime
must equal the analytic one.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Dict, List, Tuple

import common
import tracing

ALGORITHMS = ("rcp", "lpfs")
#: Nominal wall time of one pass, which sizes the passes per run.
PASS_S = 10.0


def _grid() -> List[Tuple[str, str]]:
    from repro.benchmarks import benchmark_names

    return [(b, a) for b in benchmark_names() for a in ALGORITHMS]


def _job(name: str, algorithm: str, machine):
    from repro.benchmarks import BENCHMARKS
    from repro.engine.executor import execute_result
    from repro.toolflow import SchedulerConfig, compile_and_schedule

    clock = time.perf_counter
    spec = BENCHMARKS[name]
    t0 = clock()
    result = compile_and_schedule(
        spec.build(), machine, SchedulerConfig(algorithm), fth=spec.fth
    )
    t1 = clock()
    execution = execute_result(result)
    t2 = clock()
    return t1 - t0, t2 - t1, result, execution


def _check(result, execution, machine) -> List[str]:
    from repro.sched.replay import ReplayError, replay_schedule

    problems = []
    for name, sched in result.schedules.items():
        try:
            replay_schedule(sched, machine)
        except ReplayError as exc:
            problems.append(f"{name}: {exc}")
    if execution.realized_runtime != execution.analytic_runtime:
        problems.append(
            f"realized {execution.realized_runtime} != analytic "
            f"{execution.analytic_runtime}"
        )
    if execution.analytic_runtime != result.runtime:
        problems.append(
            f"engine analytic {execution.analytic_runtime} != compiled "
            f"{result.runtime}"
        )
    return problems


def _pass(machine, res, runtimes: Dict, traced=False):
    clock = time.perf_counter
    rows = []
    for name, algorithm in _grid():
        # Each job starts from a collected heap, so the garbage one job
        # leaves does not bill the next.
        gc.collect()
        root = tracing.TRACER.open("toolflow") if traced else None
        try:
            compile_s, execute_s, result, execution = _job(
                name, algorithm, machine
            )
        finally:
            if root is not None:
                tracing.TRACER.close(root)
        res.calibrate_for(compile_s + execute_s)
        t0 = clock()
        problems = _check(result, execution, machine)
        verify_s = clock() - t0
        first = runtimes.setdefault((name, algorithm), result.runtime)
        if first != result.runtime:
            problems.append(f"runtime {result.runtime} != first {first}")
        res.check(f"suite:{name}/{algorithm}", problems)
        rows.append(
            (compile_s, execute_s, verify_s, result.total_gates, result.runtime)
        )
    return rows


def run(opts, run: common.RunDir) -> common.Result:
    from repro.arch.machine import MultiSIMD

    res = common.Result("suite")
    machine = MultiSIMD(k=4, d=4, local_memory=4.0)
    runtimes: Dict = {}
    _job("BF", "rcp", machine)  # warm-up: lazy imports, first-call set-up
    if opts.trace:
        untraced = _pass(machine, res, runtimes)
        tracing.install()
        _pass(machine, res, runtimes, traced=True)
        res.spans = tracing.SpanSet()
        res.spans.add_local(tracing.TRACER)
        res.untraced_wall = sum(r[0] + r[1] for r in untraced)
        return res

    common.put_child_setup(res, "suite", run)
    passes = [
        _pass(machine, res, runtimes)
        for _ in range(max(1, round(opts.seconds / PASS_S)))
    ]
    rows = [row for rows in passes for row in rows]
    walls = [(c + e) * 1e3 for c, e, _, _, _ in rows]
    pass_walls = [sum(r[0] + r[1] for r in rows) for rows in passes]
    res.put("pass_s", statistics.median(pass_walls), "s")
    res.put("p50_ms", statistics.median(walls), "ms")
    t = common.tail(walls)
    res.put("tail_ms", t.value, "ms", t.note)
    res.put("ops_per_s", len(rows) / sum(pass_walls), "1/s")
    res.put("peak_rss_mib", common.peak_rss_kib() / 1024, "MiB")
    res.put("runtime_cycles", common.geomean(list(runtimes.values())), "cycles")
    gates = sum(r[3] for r in rows)
    res.put(
        "compile_gates_per_s", gates / sum(r[0] for r in rows), "gates/s"
    )
    res.put(
        "execute_gates_per_s", gates / sum(r[1] for r in rows), "gates/s"
    )
    res.put("verify_s", statistics.median(r[2] for r in rows), "s")
    res.rescale_timings()
    return res
