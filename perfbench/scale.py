"""``scale`` workload: one huge leaf per job through the streamed path.

Two jobs per pass, each in a fresh interpreter so its peak RSS is its
own: ``scale:adder`` (Toffoli-heavy Cuccaro adder) and
``scale:rotations`` (serial T-strings). Each job compiles its leaf with
``compile_and_schedule_streamed`` (entry width only, default window),
exports the schedule stream, re-reads it and executes it on the engine.
The adder kernel is then proven against its spec with the reversible
simulator: the spec sweep, then a windowed schedule of the iterated
kernel exported, re-read and replayed against program order. A copy of
that export with one CNOT's operands swapped (position drawn from the
seed) must be reported as a mismatch.
"""

from __future__ import annotations

import gc
import json
import os
import random
import statistics
import subprocess
import time
from typing import Any, Dict, List

import common
import tracing

KINDS = ("adder", "rotations")
#: Post-decompose gates per job: paper-scale leaves shrunk so that one
#: pass over both jobs takes about half a minute on two cores.
GATES = 150_000
#: Nominal wall time of one pass, which sizes the passes per run.
PASS_S = 40.0


# -- inside the job's own interpreter ----------------------------------


def _corrupt(src: str, dst: str, seed: int) -> None:
    """Copy a stream export, swapping the operands of one CNOT."""
    with open(src) as fh:
        lines = fh.read().splitlines()
    cnot = json.loads(lines[0])["gates"].index("CNOT")
    spots = []
    for i, line in enumerate(lines[1:], start=1):
        data = json.loads(line)
        for r, (_region, ops) in enumerate(data.get("regions", ())):
            for e, entry in enumerate(ops):
                if entry[1] == cnot and entry[2][0] != entry[2][1]:
                    spots.append((i, r, e))
    i, r, e = random.Random(seed).choice(spots)
    data = json.loads(lines[i])
    data["regions"][r][1][e][2].reverse()
    lines[i] = json.dumps(data, separators=(",", ":"))
    with open(dst, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run_job(kind: str, gates: int, seed: int) -> Dict[str, Any]:
    clock = time.perf_counter
    from repro.arch.machine import MultiSIMD
    from repro.benchmarks.scale import build_scale
    from repro.service.stream_io import (
        execute_schedule_stream,
        write_schedule_stream,
    )
    from repro.toolflow import compile_and_schedule_streamed

    machine = MultiSIMD(k=4, d=4)
    out: Dict[str, Any] = {"kind": kind, "problems": []}
    problems: List[str] = out["problems"]
    tmp = os.environ.get("TMPDIR", ".")

    t0 = clock()
    program, total = build_scale(kind, gates)
    result = compile_and_schedule_streamed(program, machine, widths="entry")
    t1 = clock()
    entry = result.program.entry
    name = entry if entry in result.stream_schedules else min(
        result.stream_schedules
    )
    cols = result.columns[name]
    path = os.path.join(tmp, f"{kind}-{os.getpid()}.jsonl")
    write_schedule_stream(
        path, cols, result.stream_schedules[name], machine, module=name
    )
    t2 = clock()
    header, engine, footer = execute_schedule_stream(path, machine)
    t3 = clock()
    os.remove(path)
    out.update(
        gates=total,
        runtime=result.runtime,
        compile_s=t1 - t0,
        export_s=t2 - t1,
        execute_s=t3 - t2,
    )
    if header["op_count"] != len(cols) or engine.ops_executed != len(cols):
        problems.append(
            f"ops: {len(cols)} scheduled, header {header['op_count']}, "
            f"executed {engine.ops_executed}"
        )
    runtimes = {
        "compiled": result.runtime,
        "footer": footer.runtime,
        "analytic": engine.analytic_runtime,
        "realized": engine.realized_runtime,
    }
    if len(set(runtimes.values())) != 1:
        problems.append(f"runtimes disagree: {runtimes}")
    # The verifier starts from a collected heap, not one still holding
    # the compile's columns, whose GC traversals would time it.
    del result, cols, engine
    gc.collect()
    if kind == "adder":
        _verify_adder(program, machine, seed, tmp, out)
    out["peak_rss_kib"] = common.peak_rss_kib()
    return out


def _verify_adder(program, machine, seed: int, tmp: str, out: Dict) -> None:
    clock = time.perf_counter
    from repro.core.opstream import GeneratorStream
    from repro.passes.stream import leaf_stream
    from repro.sched.stream import build_columns, schedule_columns
    from repro.service.stream_io import stream_ops, write_schedule_stream
    from repro.sim.reversible import (
        compile_ops,
        verify_equivalent,
        verify_reference,
    )
    from repro.sim.specs import bind_spec
    from repro.toolflow import DEFAULT_WINDOW, SchedulerConfig

    problems = out["problems"]
    t0 = clock()
    binding = bind_spec("adder", program)
    index = {q: i for i, q in enumerate(binding.qubits)}
    kernel = list(leaf_stream(program, binding.module, decompose=False))
    instrs = compile_ops(iter(kernel), index)

    def run_kernel(state) -> int:
        for _ in range(binding.iterations):
            state.apply_compiled(instrs)
        return len(instrs) * binding.iterations

    spec = verify_reference(
        run_kernel,
        binding.qubits,
        binding.inputs,
        binding.outputs,
        binding.reference,
        clean=binding.clean,
    )
    iterations = binding.iterations
    stream = GeneratorStream(
        lambda: (op for _ in range(iterations) for op in kernel),
        length_hint=len(kernel) * iterations,
    )
    cols = build_columns(stream, window=DEFAULT_WINDOW)
    sched = SchedulerConfig()
    ssched = schedule_columns(
        cols,
        sched.algorithm,
        machine.k,
        machine.d,
        lpfs_l=sched.lpfs_l,
        lpfs_simd=sched.lpfs_simd,
        lpfs_refill=sched.lpfs_refill,
    )
    good = os.path.join(tmp, f"kernel-{os.getpid()}.jsonl")
    write_schedule_stream(good, cols, ssched, machine, module=binding.module)
    _header, replay = stream_ops(good)
    report = verify_equivalent(iter(stream), replay, cols.qubits)
    out["verify_s"] = clock() - t0
    if not spec.ok:
        problems.append(f"spec: {spec.summary()}")
    if not report.ok:
        problems.append(f"replay: {report.summary()}")

    bad = os.path.join(tmp, f"kernel-bad-{os.getpid()}.jsonl")
    _corrupt(good, bad, seed)
    _header, replay = stream_ops(bad)
    refused = verify_equivalent(iter(stream), replay, cols.qubits)
    out["corrupt_refused"] = not refused.ok
    os.remove(good)
    os.remove(bad)


# -- in the benchmark process ------------------------------------------


def _spawn_job(kind: str, seed: int, run: common.RunDir, traced: bool):
    """Run one job in a fresh interpreter; returns (wall s, its
    measurements)."""
    env = common.child_env(run)
    if traced:
        env["PERFBENCH_TRACE"] = "1"
    spec = json.dumps({"kind": kind, "gates": GATES, "seed": seed})
    t0 = time.perf_counter()
    proc = subprocess.run(
        [common.python(), common.CHILD, "scale-job", spec],
        capture_output=True,
        text=True,
        env=env,
        cwd=run.tmp,
        timeout=170,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        tail = proc.stderr.strip()[-300:]
        return wall, {"problems": [f"exit {proc.returncode}: {tail}"]}
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def _pass(seed: int, p: int, run, res, spans=None) -> Dict:
    """Both jobs in an order drawn from the seed; traced when ``spans``
    is given, which collects the jobs' spans."""
    rng = random.Random(f"{seed}:{p}")
    kinds = list(KINDS)
    rng.shuffle(kinds)
    jobs = []
    for kind in kinds:
        job_seed = rng.randrange(1 << 30)
        wall, out = _spawn_job(kind, job_seed, run, spans is not None)
        res.calibrate_for(wall)
        problems = list(out.get("problems", ()))
        res.check(f"scale:{kind}", problems)
        if kind == "adder" and "corrupt_refused" in out:
            res.check(
                "scale:adder corrupted stream",
                [] if out["corrupt_refused"] else ["corrupted stream verified"],
            )
        if spans is not None:
            root = spans.root(wall)
            spans.adopt(out.get("spans", []), root)
        jobs.append((kind, wall, out))
    return {"jobs": jobs, "wall": sum(w for _, w, _ in jobs)}


def run(opts, run: common.RunDir) -> common.Result:
    res = common.Result("scale")
    if opts.trace:
        untraced = _pass(opts.seed, 0, run, res)
        spans = tracing.SpanSet()
        _pass(opts.seed, 1, run, res, spans)
        res.spans, res.untraced_wall = spans, untraced["wall"]
        return res
    common.put_child_setup(res, "scale", run)
    passes = [
        _pass(opts.seed, p, run, res)
        for p in range(max(1, round(opts.seconds / PASS_S)))
    ]
    jobs = [job for p in passes for job in p["jobs"]]
    ok = [(k, w, o) for k, w, o in jobs if not o.get("problems")]
    res.put("pass_s", statistics.median(p["wall"] for p in passes), "s")
    walls = [w * 1e3 for _, w, _ in jobs]
    res.put("p50_ms", statistics.median(walls), "ms")
    t = common.tail(walls)
    res.put("tail_ms", t.value, "ms", t.note)
    res.put("ops_per_s", len(jobs) / sum(p["wall"] for p in passes), "1/s")
    if ok:
        res.put(
            "peak_rss_mib",
            max(o["peak_rss_kib"] for _, _, o in ok) / 1024,
            "MiB",
        )
        first = {k: o for k, _, o in reversed(ok)}
        res.put(
            "runtime_cycles",
            common.geomean([o["runtime"] for o in first.values()]),
            "cycles",
        )
        gates = sum(o["gates"] for _, _, o in ok)
        res.put(
            "compile_gates_per_s",
            gates / sum(o["compile_s"] for _, _, o in ok),
            "gates/s",
        )
        res.put(
            "execute_gates_per_s",
            gates / sum(o["execute_s"] for _, _, o in ok),
            "gates/s",
        )
        verify = [o["verify_s"] for _, _, o in ok if "verify_s" in o]
        if verify:
            res.put("verify_s", statistics.median(verify), "s")
    res.rescale_timings()
    return res
