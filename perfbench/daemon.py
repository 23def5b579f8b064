"""``daemon`` workload: HTTP load on ``repro serve``.

The daemon runs on an ephemeral port with one pool worker, a fresh
cache directory and a per-tenant rate limit above every tested rate.
Load comes from one process with at most ``nproc`` keep-alive
connections, one thread each. A run has two phases.

Open-loop phase: requests are sent at their due times, or as soon as a
connection frees up, and timed from the due time, so a stall also
delays the requests queued behind it. At each of a few fixed rates in
turn, a segment repeats: half a second of evenly spaced compiles of a
few hot points compiled before timing starts (hits, served from the
store), then a compile of a new machine point of a small program (a
miss, compiled in the pool; the points come in a fixed order, so every
run compiles the same ones) with a repeat of it right behind (coalesced
while the miss is in flight), then a short quiet window. Hits are nine
in ten requests, as in a warm cache, so ``p50_ms`` is the hit path and
``tail_ms`` the misses and whatever waits behind them.

Closed-loop phase: executes and lints of a larger program, one at a
time over one connection, which time the pool's service without
queueing.

The seed picks the order in which the hot points are hit and the
executed points are run; every run hits and executes each equally
often. Non-2xx replies, refusals and failed jobs fail.

The host's speed drifts between and within runs. Open-loop load cannot
pause for the calibration kernel between operations, so the load
generator times it in the quiet windows, when nothing is in flight,
and the closed-loop phase times it before each request; the figures
that compute sets are rescaled by the speed of their own phase.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import statistics
import subprocess
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

import common
import tracing

#: Offered hit rates (requests/s) of the open-loop phase, each held for
#: an equal share of it.
RATES = (16, 32, 64)
#: Share of ``--seconds`` given to the open-loop phase; the closed-loop
#: phase makes ``CLOSED_ROUNDS_PER_S * --seconds`` rounds of one
#: execute and one lint.
OPEN_SHARE = 0.8
CLOSED_ROUNDS_PER_S = 1.0
#: Per-tenant admission limit given to the daemon (above every rate).
RATE_LIMIT = 200
#: A rate is sustained when its tail latency stays under this and the
#: last request of the step completes within this of its due time.
TAIL_LIMIT_MS = 500.0
#: The open-loop phase repeats a segment: hits of the hot points at the
#: step's rate for ``SEGMENT_S``, then a compile of a new point (a miss)
#: and a repeat of it ``COALESCE_AFTER_S`` later (coalesced, as the
#: miss is still in flight), which open a quiet window of ``QUIET_S``.
#: The pair blocks both connections until the miss is compiled, so it
#: goes where it delays no hit. The kernel is timed ``QUIET_SAMPLES``
#: times ``QUIET_SETTLE_S`` into the window if nothing is in flight.
SEGMENT_S = 0.5
QUIET_S = 0.3
COALESCE_AFTER_S = 0.005
QUIET_SETTLE_S = 0.2
QUIET_SAMPLES = 4
SOURCES = ("BF", "Grovers")
SCHEDULERS = ("lpfs", "rcp")
#: Hot points: compiled and hit once during warm-up, so the timed hits
#: come from the daemon's memory store. Not among the misses.
HOT = tuple(
    {"source": s, "k": k, "d": 2, "local_memory": 2}
    for s in SOURCES
    for k in (2, 3, 4)
)
#: Executes and lints go to a larger program, so that its work, not
#: the round trip, sets their latency. Its points are compiled and
#: executed during warm-up, so the worker holds their schedules.
WORK_SOURCE = "CN"
WORK = tuple(
    {"source": WORK_SOURCE, "k": k, "d": 2, "local_memory": 2}
    for k in (2, 3, 4)
)
#: Pool workers: one, so the daemon, its worker and the load generator
#: fit two cores without queueing for a CPU (two workers doubled the
#: run-to-run spread of every latency).
WORKERS = 1


def _points() -> List[Dict[str, Any]]:
    """Distinct compile requests, in a fixed order independent of the
    seed so each run compiles the same set."""
    points = [
        {"source": s, "k": k, "d": d, "scheduler": a}
        for s in SOURCES
        for k in range(1, 9)
        for d in (1, 2, 4, 8)
        for a in SCHEDULERS
    ]
    random.Random(0).shuffle(points)
    return points


def _seeded_order(
    rng: random.Random, points: Tuple[Dict[str, Any], ...]
) -> Iterator[Dict[str, Any]]:
    """``points`` without end, each once per block, in a seeded order."""
    while True:
        block = list(points)
        rng.shuffle(block)
        yield from block


class Server:
    """One ``repro serve`` process (traced through ``child.py``)."""

    def __init__(self, run: common.RunDir, spans_dir: Optional[str] = None):
        env = common.child_env(run)
        cache = env["REPRO_CACHE_DIR"]
        args = [
            "--port", "0",
            "--workers", str(WORKERS),
            "--cache-dir", cache,
            "--rate", str(RATE_LIMIT),
        ]
        if spans_dir is None:
            cmd = [common.python(), "-m", "repro", "serve", *args]
        else:
            env["PERFBENCH_SPANS_DIR"] = spans_dir
            cmd = [common.python(), common.CHILD, "serve", *args]
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, env=env, cwd=run.tmp, text=True
        )
        line = self.proc.stdout.readline()
        match = re.search(r":(\d+)\s*$", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.port = int(match.group(1))
        self._drain = threading.Thread(target=self.proc.stdout.read)
        self._drain.start()
        self.ready_s = self._wait_ready()

    def _wait_ready(self) -> float:
        deadline = time.perf_counter() + 60
        while time.perf_counter() < deadline:
            try:
                status, _, _ = self.get("/v1/healthz")
                if status == 200:
                    return time.perf_counter() - self.t0
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("daemon never became ready")

    def get(self, path: str):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, dict(resp.getheaders()), resp.read()
        finally:
            conn.close()

    def peak_rss_kib(self) -> int:
        """High-water RSS of the daemon plus its workers."""
        total = common.peak_rss_kib(self.proc.pid)
        children = f"/proc/{self.proc.pid}/task/{self.proc.pid}/children"
        with open(children) as fh:
            for pid in fh.read().split():
                total += common.peak_rss_kib(int(pid))
        return total

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            rc = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            rc = self.proc.wait()
        if getattr(self, "_drain", None) is not None:
            self._drain.join()
        self.proc.stdout.close()
        return rc


def _schedule(
    seed: int, p: int, seconds: float
) -> Tuple[List[Dict[str, Any]], List[float], List[Dict[str, Any]]]:
    """One pass: the open-loop requests (due offset, rate step, kind,
    body), the start times of the quiet windows, and the closed-loop
    requests."""
    rng = random.Random(f"{seed}:{p}")
    hot = _seeded_order(rng, HOT)
    work = _seeded_order(rng, WORK)
    points = iter(_points())
    period = SEGMENT_S + QUIET_S
    segments = max(1, round(seconds * OPEN_SHARE / len(RATES) / period))
    requests = []
    quiet = []
    for step, rate in enumerate(RATES):
        for segment in range(segments):
            t0 = (step * segments + segment) * period
            for i in range(round(rate * SEGMENT_S)):
                requests.append(
                    {"due": t0 + i / rate, "step": step, "kind": "hit",
                     "path": "compile", "body": next(hot)}
                )
            # The miss, and a repeat right behind it that finds it in
            # flight, open the quiet window.
            point = next(points)
            for kind, after in (("miss", 0.0), ("coalesce", COALESCE_AFTER_S)):
                requests.append(
                    {"due": t0 + SEGMENT_S + after, "step": step,
                     "kind": kind, "path": "compile", "body": point}
                )
            quiet.append(t0 + SEGMENT_S)
    closed = []
    for _ in range(max(1, round(seconds * CLOSED_ROUNDS_PER_S))):
        closed.append(
            {"kind": "execute", "path": "execute", "body": next(work)}
        )
        closed.append(
            {"kind": "lint", "path": "lint", "body": {"source": WORK_SOURCE}}
        )
    return requests, quiet, closed


def _connect(server: Server) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)


def _send(server, conn, req: Dict[str, Any], start: float):
    """Send one request on ``conn`` and fill in its sent/done times
    (from ``start``), status, headers and reply; returns the connection
    to use next (a new one after an error)."""
    req["sent"] = time.perf_counter() - start
    try:
        conn.request(
            "POST",
            f"/v1/{req['path']}",
            json.dumps(req["body"]),
            {"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        raw = resp.read()
        req["status"] = resp.status
        req["headers"] = dict(resp.getheaders())
        req["reply"] = json.loads(raw)
    except (OSError, http.client.HTTPException, ValueError) as exc:
        req["status"] = 0
        req["error"] = repr(exc)
        conn.close()
        conn = _connect(server)
    req["done"] = time.perf_counter() - start
    return conn


def _drive(
    server: Server,
    requests: List[Dict[str, Any]],
    quiet: Optional[List[float]] = None,
) -> List[float]:
    """Send ``requests`` open-loop over ``nproc`` connections. Returns
    the calibration kernel times taken in the ``quiet`` windows while
    no request was in flight."""
    lock = threading.Lock()
    cursor = iter(requests)
    start = time.perf_counter() + 0.05
    in_flight = [0]

    def client() -> None:
        conn = _connect(server)
        try:
            while True:
                with lock:
                    req = next(cursor, None)
                if req is None:
                    return
                delay = start + req["due"] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                with lock:
                    in_flight[0] += 1
                conn = _send(server, conn, req, start)
                with lock:
                    in_flight[0] -= 1
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client) for _ in range(common.nproc())
    ]
    for t in threads:
        t.start()
    samples = []
    for window in quiet or ():
        delay = start + window + QUIET_SETTLE_S - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        if not in_flight[0]:
            samples += [
                common.calibration_kernel() for _ in range(QUIET_SAMPLES)
            ]
    for t in threads:
        t.join()
    return samples


def _sequential(
    server: Server, requests: List[Dict[str, Any]], samples: List[float]
) -> float:
    """Send ``requests`` one at a time over one connection, timing the
    calibration kernel into ``samples`` before each; their ``due`` is
    their send time. Returns the phase's wall time less the
    calibration."""
    conn = _connect(server)
    start = time.perf_counter()
    try:
        for req in requests:
            samples.append(common.calibration_kernel())
            conn = _send(server, conn, req, start)
            req["due"] = req["sent"]
    finally:
        conn.close()
    return sum(r["done"] - r["sent"] for r in requests)


def _check(req: Dict[str, Any], runtimes: Dict) -> List[str]:
    if req.get("status") != 200:
        return [f"HTTP {req.get('status')} {req.get('error', '')}".strip()]
    reply = req["reply"]
    if reply.get("status") != "ok":
        return [f"job status {reply.get('status')}"]
    if req["path"] == "compile":
        key = json.dumps(req["body"], sort_keys=True)
        runtime = reply["metrics"]["runtime"]
        if runtimes.setdefault(key, runtime) != runtime:
            return [f"runtime {runtime} != first {runtimes[key]}"]
    if req["path"] == "execute":
        m = reply["metrics"]
        if m["engine_runtime"] != m["engine_analytic_runtime"]:
            return ["realized != analytic runtime"]
    return []


def _warm(server: Server) -> None:
    """Lazy imports and first-call set-up in the daemon and its worker,
    and the hot points: compiled in the worker (which keeps their
    schedules for executes), then hit once so the daemon's memory store
    holds them."""
    for path, points in (
        ("compile", HOT + WORK),
        ("compile", HOT),
        ("execute", WORK),
        ("lint", ({"source": WORK_SOURCE},)),
    ):
        _drive(
            server,
            [{"due": 0.0, "path": path, "body": body} for body in points],
        )


def _load(seed, p, seconds, run, res, spans_dir=None):
    """One pass: both phases on a fresh daemon. Returns the open-loop
    and closed-loop requests, the wall time of the two phases, the
    daemon's ``/v1/stats``, its peak RSS and the runtimes seen. The
    kernel times of each phase go to ``res.phase_samples``."""
    server = Server(run, spans_dir)
    try:
        _warm(server)
        requests, quiet, closed = _schedule(seed, p, seconds)
        open_samples = _drive(server, requests, quiet)
        closed_samples: List[float] = []
        closed_wall = _sequential(server, closed, closed_samples)
        res.phase_samples = {"open": open_samples, "closed": closed_samples}
        res.calibration += open_samples + closed_samples
        status, _, raw = server.get("/v1/stats")
        stats = json.loads(raw) if status == 200 else {}
        rss = server.peak_rss_kib()
    finally:
        rc = server.stop()
    runtimes: Dict = {}
    for req in requests + closed:
        res.check(f"daemon:{req['path']}", _check(req, runtimes))
    if rc != 0:
        res.check("daemon:drain", [f"serve exited {rc}"])
    wall = max(r["done"] for r in requests) + closed_wall
    return requests, closed, wall, stats, rss, runtimes


def _latency_ms(req) -> float:
    return (req["done"] - req["due"]) * 1e3


def _sustained(requests, step_s: float) -> Tuple[float, float]:
    """(achieved rate, offered rate) of the highest step that met the
    tail limit without a growing backlog; the lowest step otherwise.
    Achieved is completions per second from the first due time to the
    last completion; each step lasts ``step_s``, quiet windows
    included."""
    best = None
    for step in range(len(RATES)):
        rows = [r for r in requests if r["step"] == step]
        lat = [_latency_ms(r) for r in rows]
        span = max(r["done"] for r in rows) - min(r["due"] for r in rows)
        last = max(rows, key=lambda r: r["due"])
        met = (
            all(r.get("status") == 200 for r in rows)
            and common.tail(lat).value <= TAIL_LIMIT_MS
            and _latency_ms(last) <= TAIL_LIMIT_MS
        )
        if met or best is None:
            best = (len(rows) / span, len(rows) / step_s)
    return best


def _time_setup(run: common.RunDir) -> float:
    """Seconds from spawning the daemon until it answers ``healthz``."""
    server = Server(run)
    server.stop()
    return server.ready_s


def run(opts, run: common.RunDir) -> common.Result:
    res = common.Result("daemon")
    if opts.trace:
        untraced_wall = _load(opts.seed, 0, opts.seconds, run, res)[2]
        spans_dir = run.fresh("spans")
        traced, _, wall, stats, _, _ = _load(
            opts.seed, 1, opts.seconds, run, res, str(spans_dir)
        )
        spans = tracing.SpanSet()
        root = spans.root(wall)
        for name in sorted(os.listdir(spans_dir)):
            with open(spans_dir / name) as fh:
                for line in fh:
                    spans.adopt(json.loads(line), root)
        res.spans = spans
        res.untraced_wall = untraced_wall
        res.layer_extra = _server_layers(traced, stats)
        return res

    common.put_setup(res, lambda: _time_setup(run))
    requests, closed, _, stats, rss, runtimes = _load(
        opts.seed, 0, opts.seconds, run, res
    )
    lat = [_latency_ms(r) for r in requests]
    res.put(
        "pass_s",
        max(r["done"] for r in requests) - min(r["due"] for r in requests),
        "s",
    )
    res.put("p50_ms", statistics.median(lat), "ms")
    t = common.tail(lat)
    res.put("tail_ms", t.value, "ms", t.note)
    misses = sum(r["kind"] == "miss" for r in requests)  # one per segment
    step_s = misses / len(RATES) * (SEGMENT_S + QUIET_S)
    achieved, offered = _sustained(requests, step_s)
    res.put("ops_per_s", achieved, "1/s", f"offered {offered:.4g}/s")
    res.put("peak_rss_mib", rss / 1024, "MiB")
    if runtimes:
        res.put("runtime_cycles", common.geomean(list(runtimes.values())),
                "cycles")
    # Compile throughput counts the misses, the requests that compile,
    # and execute throughput the closed-loop executes: total gates over
    # total latency. Neither waits behind another request in the pool.
    for name, rows in (
        ("compile", [r for r in requests if r["kind"] == "miss"]),
        ("execute", [r for r in closed if r["kind"] == "execute"]),
    ):
        rows = [r for r in rows if r.get("status") == 200]
        if rows:
            gates = sum(r["reply"]["metrics"]["total_gates"] for r in rows)
            seconds = sum(_latency_ms(r) for r in rows) / 1e3
            res.put(f"{name}_gates_per_s", gates / seconds, "gates/s")
    lints = [
        _latency_ms(r) / 1e3
        for r in closed
        if r["kind"] == "lint" and r.get("status") == 200
    ]
    if lints:
        res.put("verify_s", statistics.median(lints), "s")
    # These follow the host's speed, so they are rescaled by the kernel
    # times of their own phase: a median latency by their median, a
    # total or a tail by their mean less the extremes, as those take in
    # the host's slow stretches, which a median leaves out. pass_s and
    # ops_per_s, which the schedule sets, stay raw.
    for name, phase, stat in (
        ("p50_ms", "open", statistics.median),
        ("tail_ms", "open", common.trimmed_mean),
        ("compile_gates_per_s", "open", common.trimmed_mean),
        ("execute_gates_per_s", "closed", common.trimmed_mean),
        ("verify_s", "closed", statistics.median),
    ):
        samples = res.phase_samples[phase]
        if name in res.metrics and samples:
            res.rescale(name, common.CALIBRATE_REF_S / stat(samples))
    for step, rate in enumerate(RATES):
        step_lat = [_latency_ms(r) for r in requests if r["step"] == step]
        t = common.tail(step_lat)
        res.notes[f"hits at {rate}/s"] = (
            f"p50 {statistics.median(step_lat):.1f} ms, "
            f"{t.note} {t.value:.1f} ms"
        )
    return res


def _server_layers(requests, stats) -> Dict[str, float]:
    def p50(rows) -> float:
        lat = [_latency_ms(r) for r in rows]
        return statistics.median(lat) if lat else 0.0

    compiles = [
        r for r in requests
        if r["path"] == "compile" and r.get("status") == 200
    ]
    served = [
        r for r in compiles
        if r["headers"].get("X-Repro-Cache") in ("memory", "disk")
        or r["headers"].get("X-Repro-Coalesced") == "1"
    ]
    missed = [r for r in compiles if r not in served]
    lag = sorted((r["sent"] - r["due"]) * 1e3 for r in requests)
    reqs = stats.get("requests", {})
    rejected = sum(
        reqs.get(k, 0)
        for k in ("rejected_queue", "rejected_ratelimit", "rejected_draining")
    )
    return {
        "service.hit_ratio": (
            stats.get("cache", {}).get("hit_rate", 0.0), "ratio"
        ),
        "server.coalesced": (
            stats.get("jobs", {}).get("coalesced", 0), "count"
        ),
        "server.rejected": (rejected, "count"),
        "server.hit_p50_ms": (p50(served), "ms"),
        "server.miss_p50_ms": (p50(missed), "ms"),
        "server.generator_lag_ms": (common.nearest_rank(lag, 99), "ms"),
    }
