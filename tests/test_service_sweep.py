"""Tests for the parallel batch sweep runner.

The fault-injection workers below must be module-level (picklable) to
cross the process-pool boundary. ``_MAIN_PID`` is captured at import so
a worker can tell whether it is running in a pool child (crash) or
in-process after serial degradation (succeed).
"""

import os
import time

import pytest

from repro.service import (
    JobSpec,
    SweepGrid,
    build_sweep_payload,
    execute_job,
    run_sweep,
    validate_sweep_payload,
)

_MAIN_PID = os.getpid()


def _ok_worker(job, cache_dir, use_cache):
    return {
        "job": job.to_dict(),
        "label": job.label,
        "status": "ok",
        "cached": None,
        "fingerprint": "f" * 64,
        "elapsed_s": 0.0,
        "compute_s": 0.0,
        "spans": {},
        "metrics": None,
        "error": None,
        "attempts": 1,
    }


def _always_crashing_worker(job, cache_dir, use_cache):
    if os.getpid() != _MAIN_PID:  # pool child: die without cleanup
        os._exit(1)
    out = _ok_worker(job, cache_dir, use_cache)
    out["ran_in_main"] = True
    return out


def _crash_once_worker(job, cache_dir, use_cache):
    """Dies in the first pool; succeeds once a sentinel exists."""
    sentinel = os.path.join(cache_dir, "crashed-once")
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("x")
        os._exit(1)
    return _ok_worker(job, cache_dir, use_cache)


def _slow_worker(job, cache_dir, use_cache):
    time.sleep(3)
    return _ok_worker(job, cache_dir, use_cache)


class TestSweepGrid:
    def test_parse_and_expand_order(self):
        grid = SweepGrid.parse(
            benchmarks="BF,Grovers", schedulers="rcp,lpfs", ks="2,4"
        )
        jobs = grid.expand()
        assert [
            (j.benchmark, j.algorithm, j.k) for j in jobs
        ] == [
            ("BF", "rcp", 2), ("BF", "rcp", 4),
            ("BF", "lpfs", 2), ("BF", "lpfs", 4),
            ("Grovers", "rcp", 2), ("Grovers", "rcp", 4),
            ("Grovers", "lpfs", 2), ("Grovers", "lpfs", 4),
        ]
        # Expansion is deterministic.
        assert grid.expand() == jobs

    def test_parse_all(self):
        from repro.benchmarks import benchmark_names

        grid = SweepGrid.parse()
        assert grid.benchmarks == tuple(benchmark_names())

    def test_parse_d_and_local_memory(self):
        import math

        grid = SweepGrid.parse(
            benchmarks="BF", ds="inf,64", local_memories="none,inf,0.5"
        )
        assert grid.ds == (None, 64)
        assert grid.local_memories == (None, math.inf, 0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"benchmarks": "NOPE"},
            {"benchmarks": "BF", "schedulers": "fifo"},
            {"benchmarks": "BF", "ks": "two"},
            {"benchmarks": "BF", "ks": "0"},
            {"benchmarks": "BF", "ds": "x"},
            {"benchmarks": "BF", "local_memories": "lots"},
            {"benchmarks": ""},
        ],
    )
    def test_parse_rejects_bad_specs(self, kwargs):
        with pytest.raises(ValueError):
            SweepGrid.parse(**kwargs)

    def test_job_spec_roundtrip(self):
        import math

        job = JobSpec("BF", "rcp", k=2, d=64,
                      local_memory=math.inf, fth=128)
        assert JobSpec.from_dict(job.to_dict()) == job

    def test_job_label(self):
        job = JobSpec("BF", "rcp", k=2)
        assert job.label == "BF rcp k=2 d=inf local=none"


class TestExecuteJob:
    def test_ok_outcome(self, tmp_path):
        outcome = execute_job(JobSpec("BF", k=2), str(tmp_path))
        assert outcome["status"] == "ok"
        assert outcome["cached"] is None
        assert outcome["metrics"]["total_gates"] > 0
        assert outcome["spans"]  # stage spans recorded
        warm = execute_job(JobSpec("BF", k=2), str(tmp_path))
        assert warm["status"] == "ok"
        assert warm["cached"] == "memory"
        assert warm["metrics"] == outcome["metrics"]
        assert warm["spans"] == outcome["spans"]

    def test_error_outcome_never_raises(self):
        bad = JobSpec("BF", k=0)  # MultiSIMD rejects k<1
        outcome = execute_job(bad)
        assert outcome["status"] == "error"
        assert outcome["error"]["kind"] == "error"
        assert outcome["metrics"] is None


class TestRunSweep:
    def test_serial_run(self, tmp_path):
        jobs = [JobSpec("BF", a, k=2) for a in ("rcp", "lpfs")]
        run = run_sweep(jobs, cache_dir=tmp_path, parallel=False)
        assert not run.parallel
        assert len(run.ok) == 2
        assert [o["job"]["algorithm"] for o in run.outcomes] == [
            "rcp", "lpfs",
        ]

    def test_parallel_matches_serial(self, tmp_path):
        jobs = SweepGrid.parse(
            benchmarks="BF,Grovers", schedulers="rcp,lpfs", ks="2"
        ).expand()
        serial = run_sweep(
            jobs, cache_dir=tmp_path / "s", parallel=False
        )
        par = run_sweep(
            jobs, cache_dir=tmp_path / "p", parallel=True,
            max_workers=2,
        )
        assert len(par.ok) == len(serial.ok) == len(jobs)
        for a, b in zip(serial.outcomes, par.outcomes):
            assert a["job"] == b["job"]  # deterministic order
            assert a["metrics"] == b["metrics"]
            assert a["fingerprint"] == b["fingerprint"]

    def test_worker_crash_degrades_to_serial(self, tmp_path):
        jobs = [JobSpec("BF", k=2)]
        run = run_sweep(
            jobs,
            cache_dir=tmp_path,
            max_workers=1,
            worker=_always_crashing_worker,
        )
        assert run.degraded_to_serial
        assert run.pool_restarts >= 1
        assert run.outcomes[0]["status"] == "ok"
        assert run.outcomes[0]["ran_in_main"]
        assert run.outcomes[0]["attempts"] == 3

    def test_worker_crash_retry_succeeds_in_fresh_pool(self, tmp_path):
        jobs = [JobSpec("BF", k=2)]
        run = run_sweep(
            jobs,
            cache_dir=tmp_path,
            max_workers=1,
            worker=_crash_once_worker,
        )
        assert run.outcomes[0]["status"] == "ok"
        assert run.pool_restarts == 1
        assert not run.degraded_to_serial
        assert run.outcomes[0]["attempts"] == 2

    def test_timeout_outcome(self, tmp_path):
        jobs = [JobSpec("BF", k=2)]
        run = run_sweep(
            jobs,
            cache_dir=tmp_path,
            max_workers=1,
            timeout=0.5,
            worker=_slow_worker,
        )
        assert run.outcomes[0]["status"] == "timeout"
        assert run.outcomes[0]["error"]["kind"] == "timeout"
        assert len(run.failed) == 1

    def test_cache_hits_counted(self, tmp_path):
        jobs = [JobSpec("BF", k=2), JobSpec("BF", k=2)]
        run = run_sweep(jobs, cache_dir=tmp_path, parallel=False)
        assert run.cache_hits >= 1
        assert 0.0 < run.hit_rate <= 1.0


class TestSweepPayload:
    def test_payload_is_schema_valid(self, tmp_path):
        import json

        grid = SweepGrid.parse(benchmarks="BF", ks="2")
        run = run_sweep(
            grid.expand(), cache_dir=tmp_path, parallel=False
        )
        payload = build_sweep_payload(run, grid)
        assert validate_sweep_payload(payload) == []
        json.dumps(payload)  # JSON-safe throughout

    def test_validator_flags_problems(self):
        assert validate_sweep_payload([]) == ["payload is not an object"]
        problems = validate_sweep_payload({"schema": "wrong"})
        assert any("schema" in p for p in problems)
        assert any("jobs" in p for p in problems)

    def test_validator_flags_bad_job(self, tmp_path):
        grid = SweepGrid.parse(benchmarks="BF", ks="2")
        run = run_sweep(
            grid.expand(), cache_dir=tmp_path, parallel=False
        )
        payload = build_sweep_payload(run, grid)
        payload["jobs"][0]["status"] = "exploded"
        assert any(
            "status" in p for p in validate_sweep_payload(payload)
        )


class TestEngineSweep:
    """The opt-in engine columns and the /2 payload schema."""

    def test_grid_parse_engine_and_rate(self):
        grid = SweepGrid.parse(
            benchmarks="BF", ks="2", engine=True, epr_rate="0.5"
        )
        assert grid.engine
        assert grid.epr_rate == 0.5
        job = grid.expand()[0]
        assert job.engine
        assert job.epr_rate == 0.5
        assert "engine(rate=0.5)" in job.label

    def test_grid_parse_inf_rate(self):
        grid = SweepGrid.parse(
            benchmarks="BF", ks="2", engine=True, epr_rate="inf"
        )
        assert grid.epr_rate is None
        assert "engine(rate=inf)" in grid.expand()[0].label

    @pytest.mark.parametrize("rate", ["fast", "0", "-1"])
    def test_grid_rejects_bad_rate(self, rate):
        with pytest.raises(ValueError):
            SweepGrid.parse(
                benchmarks="BF", ks="2", engine=True, epr_rate=rate
            )

    def test_engine_job_roundtrip(self):
        job = JobSpec("BF", k=2, engine=True, epr_rate=0.5)
        assert JobSpec.from_dict(job.to_dict()) == job
        # Non-engine jobs keep the legacy dict shape.
        assert "engine" not in JobSpec("BF", k=2).to_dict()

    def test_engine_metrics_ideal(self, tmp_path):
        outcome = execute_job(
            JobSpec("BF", k=2, engine=True), str(tmp_path)
        )
        assert outcome["status"] == "ok"
        metrics = outcome["metrics"]
        assert (
            metrics["engine_runtime"]
            == metrics["engine_analytic_runtime"]
        )
        assert metrics["engine_stall_cycles"] == 0

    def test_engine_metrics_finite_rate(self, tmp_path):
        outcome = execute_job(
            JobSpec("Grovers", k=2, engine=True, epr_rate=0.05),
            str(tmp_path),
        )
        assert outcome["status"] == "ok"
        metrics = outcome["metrics"]
        assert metrics["engine_stall_epr"] > 0
        assert (
            metrics["engine_runtime"]
            > metrics["engine_analytic_runtime"]
        )

    def test_disk_cache_hit_feeds_engine_without_recompile(
        self, tmp_path
    ):
        """A disk hit rehydrates schedules from the gzip sidecar, so
        the engine runs directly on the cached result — no recompile."""
        from repro.service import sweep as sweep_mod

        job = JobSpec("BF", k=2, engine=True)
        cold = execute_job(job, str(tmp_path))
        # Drop the process-global service so the memory cache is
        # empty and the second run hits the disk cache.
        sweep_mod._SERVICES.pop(str(tmp_path), None)
        warm = execute_job(job, str(tmp_path))
        assert warm["cached"] == "disk"
        assert warm["metrics"] == cold["metrics"]
        # A recompile would run a fresh compute and re-store the
        # artifact; the warm service must have served purely from disk.
        service = sweep_mod._SERVICES[str(tmp_path)]
        assert service.stats.disk_hits == 1
        assert service.stats.stores == 0

    def test_pre_sidecar_artifact_recompiles_for_engine(self, tmp_path):
        """Results loaded from a store without the schedule sidecar
        (or with it deleted) still produce engine metrics via the
        recompile fallback."""
        from repro.service import sweep as sweep_mod

        job = JobSpec("BF", k=2, engine=True)
        cold = execute_job(job, str(tmp_path))
        service = sweep_mod._SERVICES.pop(str(tmp_path))
        fp = cold["fingerprint"]
        service.store._sched_path(fp).unlink()
        warm = execute_job(job, str(tmp_path))
        assert warm["cached"] == "disk"
        assert warm["metrics"] == cold["metrics"]

    def test_payload_schema_v3(self, tmp_path):
        grid = SweepGrid.parse(benchmarks="BF", ks="2", engine=True)
        run = run_sweep(
            grid.expand(), cache_dir=tmp_path, parallel=False
        )
        payload = build_sweep_payload(run, grid)
        assert payload["schema"] == "repro.bench-sweep/3"
        assert validate_sweep_payload(payload) == []
        assert payload["grid"]["engine"] is True

    def test_validator_rejects_legacy_schemas(self, tmp_path):
        grid = SweepGrid.parse(benchmarks="BF", ks="2")
        run = run_sweep(
            grid.expand(), cache_dir=tmp_path, parallel=False
        )
        payload = build_sweep_payload(run, grid)
        for legacy in ("repro.bench-sweep/1", "repro.bench-sweep/2"):
            payload["schema"] = legacy
            problems = validate_sweep_payload(payload)
            assert len(problems) == 1, problems
            assert problems[0].startswith("$.schema:"), problems

    def test_validator_requires_engine_metrics(self, tmp_path):
        grid = SweepGrid.parse(benchmarks="BF", ks="2", engine=True)
        run = run_sweep(
            grid.expand(), cache_dir=tmp_path, parallel=False
        )
        payload = build_sweep_payload(run, grid)
        del payload["jobs"][0]["metrics"]["engine_runtime"]
        assert any(
            "engine_runtime" in p
            for p in validate_sweep_payload(payload)
        )
