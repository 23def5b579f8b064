"""Load-test harness for the compile daemon.

Drives N concurrent clients over a **request mix** — a *storm* of
identical compiles (the coalescing/caching showcase) plus a set of
*distinct* compiles (real work fanning out across the warm pool) —
and reduces per-request latencies into a schema-versioned
``BENCH_service.json`` (``repro.bench-service/1``) that sits next to
``BENCH_perf.json`` and ``BENCH_sweep.json``:

* latency percentiles (p50/p95/p99), mean, max, and throughput;
* the **coalesce rate**: the fraction of storm requests that did
  *not* pay for a fresh compute — they attached to an in-flight twin
  or were served off the content-addressed store. A storm of R
  identical requests needs exactly one compute, so a healthy daemon
  scores ``(R-1)/R`` or better;
* cache hit rate over the whole mix, and the server's own
  ``/v1/stats`` snapshot.

The harness can also **spawn** the daemon itself (ephemeral port) and
optionally deliver ``SIGTERM`` while requests are in flight,
recording whether the drain finished every accepted request and the
process exited 0 — the graceful-shutdown acceptance check.
"""

from __future__ import annotations

import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

import asyncio

from ..schema import NUM, Opt, check, nullable, one_of
from ..service.fingerprint import PIPELINE_VERSION
from .client import http_request

__all__ = [
    "SERVICE_SCHEMA",
    "LoadTestConfig",
    "run_loadtest",
    "run_loadtest_async",
    "build_service_payload",
    "validate_service_payload",
    "render_service_report",
    "spawn_server",
    "loadtest_with_spawn",
    "percentile",
]

#: Version tag of the ``BENCH_service.json`` document layout.
SERVICE_SCHEMA = "repro.bench-service/1"

#: Benchmarks cheap enough to compile in tens of milliseconds — the
#: distinct-request generator cycles (benchmark, k) pairs over these.
_FAST_BENCHMARKS = ("BF", "Grovers")

_LISTEN_RE = re.compile(
    r"listening on http://(?P<host>[^:]+):(?P<port>\d+)"
)


@dataclass(frozen=True)
class LoadTestConfig:
    """One load-test run specification."""

    host: str = "127.0.0.1"
    port: int = 8787
    clients: int = 8
    storm: int = 32
    distinct: int = 8
    rounds: int = 1
    endpoint: str = "compile"
    storm_request: Dict[str, Any] = field(
        default_factory=lambda: {
            "source": "BF",
            "k": 4,
            "scheduler": "lpfs",
        }
    )
    tenant: Optional[str] = None
    timeout: float = 120.0

    def distinct_requests(self) -> List[Dict[str, Any]]:
        """``distinct`` unique fast compile requests (never colliding
        with the storm request)."""
        out: List[Dict[str, Any]] = []
        k = 2
        while len(out) < self.distinct:
            for bench in _FAST_BENCHMARKS:
                candidate = {
                    "source": bench,
                    "k": k,
                    "scheduler": "lpfs",
                }
                if candidate != self.storm_request:
                    out.append(candidate)
                if len(out) >= self.distinct:
                    break
            k += 1
        return out


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (nearest-rank) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


async def _drive(
    config: LoadTestConfig,
    work: "deque[Tuple[str, Dict[str, Any]]]",
    results: List[Dict[str, Any]],
) -> None:
    headers = (
        {"X-Tenant": config.tenant} if config.tenant else None
    )
    while True:
        try:
            group, request = work.popleft()
        except IndexError:
            return
        started = time.perf_counter()
        record: Dict[str, Any] = {
            "group": group,
            "status": None,
            "latency_s": None,
            "cached": None,
            "coalesced": False,
            "error": None,
        }
        try:
            response = await http_request(
                config.host,
                config.port,
                "POST",
                f"/v1/{config.endpoint}",
                body=request,
                headers=headers,
                timeout=config.timeout,
            )
            record["latency_s"] = time.perf_counter() - started
            record["status"] = response.status
            cache = response.headers.get("x-repro-cache")
            record["cached"] = None if cache in (None, "miss") else cache
            record["coalesced"] = (
                response.headers.get("x-repro-coalesced") == "1"
            )
            if response.status != 200:
                record["error"] = (
                    f"HTTP {response.status}: "
                    f"{response.body[:200].decode('utf-8', 'replace')}"
                )
        except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
            record["latency_s"] = time.perf_counter() - started
            record["error"] = f"{type(exc).__name__}: {exc}"
        results.append(record)


async def run_loadtest_async(
    config: LoadTestConfig,
) -> Dict[str, Any]:
    """Run the mix and build the ``BENCH_service.json`` payload."""
    work: "deque[Tuple[str, Dict[str, Any]]]" = deque()
    for _ in range(config.rounds):
        for _ in range(config.storm):
            work.append(("storm", dict(config.storm_request)))
        for request in config.distinct_requests():
            work.append(("distinct", request))
    results: List[Dict[str, Any]] = []
    started = time.perf_counter()
    await asyncio.gather(
        *(
            _drive(config, work, results)
            for _ in range(max(1, config.clients))
        )
    )
    wall_s = time.perf_counter() - started
    try:
        stats_response = await http_request(
            config.host, config.port, "GET", "/v1/stats", timeout=10.0
        )
        server_stats = stats_response.json()
    except (ConnectionError, OSError, asyncio.TimeoutError, ValueError):
        server_stats = None
    return build_service_payload(
        config, results, wall_s, server_stats
    )


def run_loadtest(config: LoadTestConfig) -> Dict[str, Any]:
    """Synchronous wrapper around :func:`run_loadtest_async`."""
    return asyncio.run(run_loadtest_async(config))


def build_service_payload(
    config: LoadTestConfig,
    results: List[Dict[str, Any]],
    wall_s: float,
    server_stats: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Reduce raw per-request records into the versioned document."""
    ok = [r for r in results if r["status"] == 200]
    errors = [r for r in results if r["status"] != 200]
    latencies_ms = [
        1000.0 * r["latency_s"] for r in ok if r["latency_s"] is not None
    ]
    storm = [r for r in results if r["group"] == "storm"]
    storm_ok = [r for r in storm if r["status"] == 200]
    storm_computes = sum(
        1
        for r in storm_ok
        if not r["coalesced"] and r["cached"] is None
    )
    storm_coalesced = sum(1 for r in storm_ok if r["coalesced"])
    storm_cached = sum(
        1 for r in storm_ok if r["cached"] is not None
    )
    coalesce_rate = (
        (len(storm_ok) - storm_computes) / len(storm_ok)
        if storm_ok
        else 0.0
    )
    cached_total = sum(1 for r in ok if r["cached"] is not None)
    return {
        "schema": SERVICE_SCHEMA,
        "pipeline_version": PIPELINE_VERSION,
        "created_unix": time.time(),
        "config": {
            "endpoint": config.endpoint,
            "clients": config.clients,
            "storm": config.storm,
            "distinct": config.distinct,
            "rounds": config.rounds,
            "storm_request": dict(config.storm_request),
        },
        "wall_s": wall_s,
        "throughput_rps": len(ok) / wall_s if wall_s > 0 else 0.0,
        "requests": {
            "total": len(results),
            "ok": len(ok),
            "errors": len(errors),
            "storm": len(storm),
            "distinct": len(results) - len(storm),
        },
        "latency_ms": {
            "p50": percentile(latencies_ms, 50),
            "p95": percentile(latencies_ms, 95),
            "p99": percentile(latencies_ms, 99),
            "mean": (
                sum(latencies_ms) / len(latencies_ms)
                if latencies_ms
                else 0.0
            ),
            "max": max(latencies_ms) if latencies_ms else 0.0,
        },
        "coalesce": {
            "storm_total": len(storm_ok),
            "storm_computes": storm_computes,
            "storm_coalesced": storm_coalesced,
            "storm_cached": storm_cached,
            "coalesce_rate": coalesce_rate,
        },
        "cache": {
            "hits": cached_total,
            "hit_rate": cached_total / len(ok) if ok else 0.0,
        },
        "server_stats": server_stats,
        "error_samples": [r["error"] for r in errors[:5]],
    }


_SERVICE_SPEC = {
    "schema": one_of(SERVICE_SCHEMA),
    "pipeline_version": str,
    **dict.fromkeys(("created_unix", "wall_s", "throughput_rps"), NUM),
    "config": dict.fromkeys(("clients", "storm", "distinct", "rounds"), int),
    "requests": dict.fromkeys(
        ("total", "ok", "errors", "storm", "distinct"), int
    ),
    "latency_ms": dict.fromkeys(("p50", "p95", "p99", "mean", "max"), NUM),
    "coalesce": {
        **dict.fromkeys(("storm_total", "storm_computes",
                         "storm_coalesced", "storm_cached"), int),
        "coalesce_rate": NUM,
    },
    "cache": {"hits": int, "hit_rate": NUM},
    "drain": Opt(nullable({"exit_code": int, "dropped": int})),
}


def validate_service_payload(payload: Dict[str, Any]) -> List[str]:
    """Problems with a ``BENCH_service.json`` document (empty: valid)."""
    return check(payload, _SERVICE_SPEC)


def render_service_report(payload: Dict[str, Any]) -> str:
    """Human-readable summary of a service benchmark document."""
    latency = payload["latency_ms"]
    requests = payload["requests"]
    coalesce = payload["coalesce"]
    lines = [
        (
            f"{requests['ok']}/{requests['total']} requests ok in "
            f"{payload['wall_s']:.2f}s "
            f"({payload['throughput_rps']:.1f} req/s)"
        ),
        (
            f"latency p50 {latency['p50']:.1f}ms  "
            f"p95 {latency['p95']:.1f}ms  "
            f"p99 {latency['p99']:.1f}ms  "
            f"max {latency['max']:.1f}ms"
        ),
        (
            f"storm: {coalesce['storm_total']} requests -> "
            f"{coalesce['storm_computes']} compute(s), "
            f"{coalesce['storm_coalesced']} coalesced, "
            f"{coalesce['storm_cached']} cache-served "
            f"(coalesce rate {coalesce['coalesce_rate']:.1%})"
        ),
        (
            f"cache: {payload['cache']['hits']} hit(s) "
            f"({payload['cache']['hit_rate']:.1%} of ok requests)"
        ),
    ]
    drain = payload.get("drain")
    if drain is not None:
        lines.append(
            f"drain: exit {drain['exit_code']}, "
            f"{drain['completed']} completed, "
            f"{drain['dropped']} dropped, "
            f"{drain['rejected']} rejected while draining"
        )
    if payload.get("error_samples"):
        lines.append(f"errors: {payload['error_samples']}")
    return "\n".join(lines)


# -- spawn mode ---------------------------------------------------------


def spawn_server(
    extra_argv: Optional[List[str]] = None,
    timeout: float = 30.0,
) -> Tuple["subprocess.Popen", str, int]:
    """Start ``python -m repro serve`` on an ephemeral port.

    Returns ``(process, host, port)`` once the daemon prints its
    listening line. The caller owns the process (terminate it!).
    """
    argv = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--port",
        "0",
    ] + list(extra_argv or [])
    env = dict(os.environ)
    env.setdefault("PYTHONUNBUFFERED", "1")
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + timeout
    assert proc.stdout is not None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            if proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {proc.returncode} before "
                    "listening"
                )
            time.sleep(0.05)
            continue
        match = _LISTEN_RE.search(line)
        if match:
            return proc, match.group("host"), int(match.group("port"))
    proc.terminate()
    raise RuntimeError("server did not report a listening address")


async def _term_during_load(
    config: LoadTestConfig, proc: "subprocess.Popen"
) -> Dict[str, Any]:
    """Fire a wave of slow requests, SIGTERM the daemon mid-flight,
    and account for every response."""
    request = dict(config.storm_request)
    request["delay_s"] = 0.5
    wave = max(4, config.clients)

    async def one(index: int) -> Dict[str, Any]:
        # Half the wave is identical (coalesces onto one in-flight
        # job), half is distinct work (occupies workers) — both kinds
        # must survive the drain.
        body = dict(request)
        if index % 2:
            body["k"] = 2 + (index % 3)
        try:
            response = await http_request(
                config.host,
                config.port,
                "POST",
                f"/v1/{config.endpoint}",
                body=body,
                timeout=config.timeout,
            )
            return {"status": response.status}
        except ConnectionRefusedError as exc:
            return {"status": None, "refused": True, "error": str(exc)}
        except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
            return {
                "status": None,
                "refused": False,
                "error": f"{type(exc).__name__}: {exc}",
            }

    tasks = [asyncio.ensure_future(one(i)) for i in range(wave)]
    # Let the wave reach the server before the TERM lands.
    await asyncio.sleep(0.6)
    proc.send_signal(signal.SIGTERM)
    results = await asyncio.gather(*tasks)
    exit_code = await asyncio.get_event_loop().run_in_executor(
        None, lambda: proc.wait(timeout=60)
    )
    completed = sum(1 for r in results if r["status"] == 200)
    rejected = sum(1 for r in results if r["status"] == 503)
    refused = sum(1 for r in results if r.get("refused"))
    dropped = (
        len(results) - completed - rejected - refused
        - sum(
            1
            for r in results
            if r["status"] not in (None, 200, 503)
        )
    )
    return {
        "exit_code": exit_code,
        "sent": len(results),
        "completed": completed,
        "rejected": rejected,
        "refused": refused,
        "dropped": dropped,
    }


def loadtest_with_spawn(
    config: LoadTestConfig,
    serve_argv: Optional[List[str]] = None,
    term_during_load: bool = False,
) -> Dict[str, Any]:
    """Spawn a daemon, run the mix against it, optionally TERM it
    mid-load, and fold the drain outcome into the payload."""
    serve_argv = list(serve_argv or [])
    if term_during_load and "--allow-delay" not in serve_argv:
        serve_argv.append("--allow-delay")
    proc, host, port = spawn_server(serve_argv)
    config = replace(config, host=host, port=port)
    try:
        payload = run_loadtest(config)
        if term_during_load:
            payload["drain"] = asyncio.run(
                _term_during_load(config, proc)
            )
        else:
            proc.send_signal(signal.SIGTERM)
            payload["drain"] = {
                "exit_code": proc.wait(timeout=60),
                "sent": 0,
                "completed": 0,
                "rejected": 0,
                "refused": 0,
                "dropped": 0,
            }
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
    return payload
