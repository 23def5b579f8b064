"""``cli`` workload: fresh ``python -m repro`` processes, one at a time.

A pass is a fixed mix of twenty commands in an order drawn from the
seed: ``list``; ``compile``/``execute`` on small registry keys and
``examples/period_finding.scd``; ``lint`` on that example; a reversible
``verify``; and ``lint``/``compile`` on files of ``tests/corpus/``
drawn from the seed. Every exit code must match the documented
contract for its input (0 ok, 1 lint findings, 3 parse/validation
error) and every ``--json`` output must parse. Interpreter start-up,
import, argparse, the front end and analysis dominate.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import time
from typing import Dict, List, Optional, Tuple

import common
import tracing

#: Nominal wall time of one pass, which sizes the passes per run.
PASS_S = 5.0
EXAMPLE = "examples/period_finding.scd"
CORPUS = "tests/corpus"

#: Exit codes the documented contract gives each corpus file:
#: (lint, compile). Two files are valid programs; every other one
#: holds a parse or validation error, which lint reports as an error
#: finding (1) and compile refuses (3).
VALID_CORPUS = ("no_entry.qasm", "zero_qubit_register.scd")
CORPUS_LINTS = 6
CORPUS_COMPILES = 5

#: (argv after ``python -m repro``, expected exit code, kind).
Command = Tuple[List[str], int, str]


def _fixed() -> List[Command]:
    example = str(common.ROOT / EXAMPLE)
    return [
        (["list"], 0, "list"),
        (["compile", "BF", "--json"], 0, "compile"),
        (["compile", "Grovers", "-k", "2", "--json"], 0, "compile"),
        (["compile", example, "--json"], 0, "compile"),
        (["execute", "BF", "--json"], 0, "execute"),
        (["execute", "Grovers", "-k", "2", "--json"], 0, "execute"),
        (["execute", example, "--json"], 0, "execute"),
        (["lint", example], 0, "lint"),
        (["verify", "scale:adder:1e4", "--spec", "adder"], 0, "verify"),
    ]


def _mix(rng: random.Random) -> List[Command]:
    files = sorted(
        f for f in os.listdir(common.ROOT / CORPUS)
        if f.endswith((".scd", ".qasm"))
    )
    commands = _fixed()
    for verb, count, bad_rc in (
        ("lint", CORPUS_LINTS, 1),
        ("compile", CORPUS_COMPILES, 3),
    ):
        for name in rng.choices(files, k=count):
            rc = 0 if name in VALID_CORPUS else bad_rc
            path = str(common.ROOT / CORPUS / name)
            commands.append(([verb, path], rc, f"corpus-{verb}"))
    rng.shuffle(commands)
    return commands


def _run(argv: List[str], run: common.RunDir, spans_file: Optional[str]):
    """Run one command; returns (wall s, exit code, stdout, stderr,
    peak RSS KiB or None when traced)."""
    env = common.child_env(run)
    rss_path = run.tmp / "cli.rss"
    if spans_file is None:
        # ``child.py run`` is ``python -m repro`` plus an exit hook that
        # records the process's own VmHWM (``ru_maxrss`` would fold in
        # the benchmark's own high-water mark across the exec).
        env["PERFBENCH_RSS"] = str(rss_path)
        cmd = [common.python(), common.CHILD, "run", *argv]
    else:
        env["PERFBENCH_SPANS"] = spans_file
        cmd = [common.python(), common.CHILD, "cli", *argv]
    out_path = run.tmp / "cli.out"
    err_path = run.tmp / "cli.err"
    rss_path.unlink(missing_ok=True)
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        rc = subprocess.call(
            cmd, stdout=out, stderr=err, env=env, cwd=run.tmp
        )
        wall = time.perf_counter() - t0
    rss = int(rss_path.read_text()) if rss_path.exists() else None
    return wall, rc, out_path.read_text(), err_path.read_text(), rss


def _check(kind: str, rc: int, want: int, stdout: str) -> Tuple[List[str], Dict]:
    problems = []
    facts: Dict = {}
    if rc != want:
        problems.append(f"exit {rc}, expected {want}")
        return problems, facts
    if kind == "compile":
        doc = json.loads(stdout)
        facts = {"runtime": doc["runtime"], "gates": doc["total_gates"]}
    elif kind == "execute":
        doc = json.loads(stdout)
        if doc["realized_runtime"] != doc["analytic_runtime"]:
            problems.append("realized != analytic runtime")
        facts = {"runtime": doc["analytic_runtime"]}
    elif kind == "verify" and not stdout.rstrip().endswith("OK"):
        problems.append("verify did not report OK")
    elif kind == "list" and len(stdout.splitlines()) < 10:
        problems.append("list printed too few rows")
    return problems, facts


def _pass(seed: int, p: int, run, res, spans=None) -> List[Dict]:
    rng = random.Random(f"{seed}:{p}")
    rows = []
    for argv, want, kind in _mix(rng):
        spans_file = None
        if spans is not None:
            spans_file = str(run.tmp / "spans.json")
        res.calibrate()
        wall, rc, stdout, stderr, rss = _run(argv, run, spans_file)
        try:
            problems, facts = _check(kind, rc, want, stdout)
        except (ValueError, KeyError) as exc:
            problems, facts = [f"bad output: {exc!r}"], {}
        if rc not in (0, 1, 3) and not problems:
            problems.append(f"exit {rc} outside the 0/1/3 contract")
        if spans is None and rss is None:
            problems.append("no VmHWM recorded at exit")
        if problems and stderr.strip():
            problems.append(stderr.strip().splitlines()[-1][:200])
        res.check("cli:" + " ".join(argv[:2]), problems)
        if spans is not None:
            root = spans.root(wall)
            with open(spans_file) as fh:
                spans.adopt(json.load(fh), root)
        rows.append(
            {
                "argv": argv,
                "kind": kind,
                "wall": wall,
                "ok": not problems,
                "rss": rss,
                **facts,
            }
        )
    return rows


def run(opts, run: common.RunDir) -> common.Result:
    res = common.Result("cli")
    if opts.trace:
        untraced = _pass(opts.seed, 0, run, res)
        spans = tracing.SpanSet()
        _pass(opts.seed, 1, run, res, spans)
        res.spans = spans
        res.untraced_wall = sum(r["wall"] for r in untraced)
        return res

    common.put_child_setup(res, "cli", run)
    passes = [
        _pass(opts.seed, p, run, res)
        for p in range(max(1, round(opts.seconds / PASS_S)))
    ]
    rows = [r for rows in passes for r in rows]
    walls = [r["wall"] * 1e3 for r in rows]
    pass_walls = [sum(r["wall"] for r in rows) for rows in passes]
    res.put("pass_s", statistics.median(pass_walls), "s")
    res.put("p50_ms", statistics.median(walls), "ms")
    t = common.tail(walls)
    res.put("tail_ms", t.value, "ms", t.note)
    res.put("ops_per_s", len(rows) / sum(pass_walls), "1/s")
    res.put(
        "peak_rss_mib",
        max(r["rss"] for r in rows if r["rss"] is not None) / 1024,
        "MiB",
    )

    ok = [r for r in rows if r["ok"]]
    compiles = [r for r in ok if r["kind"] == "compile"]
    executes = [r for r in ok if r["kind"] == "execute"]
    verifies = [r for r in ok if r["kind"] == "verify"]
    gates = {r["argv"][1]: r["gates"] for r in compiles}
    if compiles:
        runtimes = {tuple(r["argv"]): r["runtime"] for r in compiles}
        res.put(
            "runtime_cycles",
            common.geomean(list(runtimes.values())),
            "cycles",
        )
        res.put(
            "compile_gates_per_s",
            sum(r["gates"] for r in compiles)
            / sum(r["wall"] for r in compiles),
            "gates/s",
        )
    timed = [r for r in executes if r["argv"][1] in gates]
    if timed:
        res.put(
            "execute_gates_per_s",
            sum(gates[r["argv"][1]] for r in timed)
            / sum(r["wall"] for r in timed),
            "gates/s",
        )
    if verifies:
        res.put("verify_s", statistics.median(r["wall"] for r in verifies), "s")
    res.rescale_timings()
    return res
