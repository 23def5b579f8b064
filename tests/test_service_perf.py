"""Unit tests for the ``perf`` harness (:mod:`repro.service.perf`)."""

from __future__ import annotations

import copy
import json

import pytest

from repro.cli import main
from repro.service import (
    PERF_SCHEMA,
    JobSpec,
    SweepRun,
    build_perf_payload,
    compare_perf_payloads,
    perf_grid,
    run_perf,
    validate_perf_payload,
)
from repro.service.perf import STAGE_FLOOR_S, _aggregate


def _outcome(label="BF|rcp", status="ok", compute_s=1.0, spans=None,
             rss=2048, calibration_s=0.01):
    return {
        "label": label,
        "status": status,
        "calibration_s": calibration_s,
        "compute_s": compute_s,
        "spans": spans
        if spans is not None
        else {"schedule:rcp": {"calls": 2, "seconds": compute_s}},
        "peak_rss_kb": rss,
    }


def _run(outcomes, wall=1.0):
    return SweepRun(
        jobs=[], outcomes=outcomes, parallel=False, workers=1,
        wall_s=wall,
    )


class TestPerfGrid:
    def test_grid_is_pinned(self):
        jobs = perf_grid().expand()
        assert len(jobs) == 16  # 8 benchmarks x {rcp, lpfs}
        assert {j.algorithm for j in jobs} == {"rcp", "lpfs"}
        assert {(j.k, j.d, j.local_memory) for j in jobs} == {(4, 4, 4.0)}


class TestAggregate:
    def test_min_seconds_max_rss_across_repeats(self):
        runs = [
            _run([_outcome(compute_s=2.0, rss=1000)], wall=3.0),
            _run([_outcome(compute_s=1.5, rss=4000)], wall=2.5),
        ]
        agg = _aggregate(runs)
        assert agg["repeats"] == 2
        assert agg["total_compute_s"] == 1.5
        assert agg["wall_s"] == 2.5
        assert agg["peak_rss_kb"] == 4000
        assert agg["stages"]["schedule:rcp"]["seconds"] == 1.5
        assert agg["stages"]["schedule:rcp"]["calls"] == 2
        assert agg["failed_jobs"] == []
        assert agg["per_job"][0]["compute_s"] == 1.5

    def test_repeats_rescaled_to_fastest_calibration(self):
        # The second repeat ran on a machine twice as slow (kernel 2x):
        # its 3.0 s count as 1.5 s at the first repeat's speed.
        runs = [
            _run([_outcome(compute_s=2.0, calibration_s=0.01)], wall=2.5),
            _run([_outcome(compute_s=3.0, calibration_s=0.02)], wall=3.5),
        ]
        agg = _aggregate(runs)
        assert agg["calibration_s"] == 0.01
        assert agg["total_compute_s"] == 1.5
        assert agg["stages"]["schedule:rcp"]["seconds"] == 1.5
        assert agg["per_job"][0]["compute_s"] == 1.5

    def test_failed_jobs_recorded_and_excluded(self):
        runs = [
            _run(
                [
                    _outcome(label="good", compute_s=1.0),
                    _outcome(label="bad", status="error", compute_s=9.0),
                ]
            )
        ]
        agg = _aggregate(runs)
        assert agg["failed_jobs"] == ["bad"]
        assert agg["total_compute_s"] == 1.0


class TestPayload:
    def _fast(self):
        return _aggregate([_run([_outcome(compute_s=1.0)])])

    def test_build_and_validate_round_trip(self):
        payload = build_perf_payload(perf_grid(), 1, self._fast())
        assert payload["schema"] == PERF_SCHEMA
        assert payload["fast"]["calibration_s"] == 0.01
        assert validate_perf_payload(payload) == []
        # JSON round-trip stays valid (what CI reads back from disk).
        assert validate_perf_payload(json.loads(json.dumps(payload))) == []

    def test_validator_flags_corruption(self):
        payload = build_perf_payload(None, 1, self._fast())
        for mutate, fragment in [
            (lambda d: d.update(schema="bogus/9"), "schema"),
            (lambda d: d.update(schema="repro.bench-perf/2"), "schema"),
            (lambda d: d["fast"].pop("calibration_s"), "calibration_s"),
            (
                lambda d: d["fast"].update(calibration_s=0.0),
                "calibration_s",
            ),
            (lambda d: d["fast"].pop("stages"), "stages"),
            (
                lambda d: d["fast"]["stages"].update(x={"calls": "one"}),
                "calls",
            ),
            (lambda d: d.update(repeats="two"), "repeats"),
            (
                lambda d: d.update(
                    scale=_scale_section([_scale_row(5, "streamed")])
                ),
                "jobs[0].label",
            ),
        ]:
            doc = copy.deepcopy(payload)
            mutate(doc)
            problems = validate_perf_payload(doc)
            assert problems, fragment
            assert any(fragment in p for p in problems), (fragment,
                                                          problems)

    def test_validator_rejects_non_object(self):
        assert validate_perf_payload(["not", "a", "dict"])


class TestCompare:
    def _doc(self, stage_s, total_s, calibration_s=None):
        return {
            "fast": {
                "calibration_s": calibration_s,
                "stages": {"schedule:rcp": {"calls": 1,
                                            "seconds": stage_s}},
                "total_compute_s": total_s,
            },
        }

    def test_identical_documents_pass(self):
        doc = self._doc(1.0, 1.0, calibration_s=0.01)
        assert compare_perf_payloads(doc, doc) == []

    def test_stage_regression_flagged(self):
        base = self._doc(1.0, 1.0)
        cur = self._doc(2.0, 1.0)
        problems = compare_perf_payloads(cur, base)
        assert len(problems) == 1
        assert "schedule:rcp" in problems[0]

    def test_total_regression_flagged(self):
        base = self._doc(1.0, 1.0)
        cur = self._doc(1.0, 2.0)
        problems = compare_perf_payloads(cur, base)
        assert len(problems) == 1
        assert "total compute" in problems[0]

    def test_tolerance_is_respected(self):
        base = self._doc(1.0, 1.0)
        cur = self._doc(1.2, 1.2)
        assert compare_perf_payloads(cur, base, tolerance=0.25) == []
        assert compare_perf_payloads(cur, base, tolerance=0.1)

    def test_tiny_stages_skipped_as_noise(self):
        base = self._doc(STAGE_FLOOR_S / 2, STAGE_FLOOR_S / 2)
        cur = self._doc(STAGE_FLOOR_S * 10, STAGE_FLOOR_S / 2)
        assert compare_perf_payloads(cur, base) == []

    def test_machine_scale_from_calibration(self):
        # Current machine is 2x slower (calibration kernel time doubled):
        # a 1.9x stage slowdown is within the rescaled budget, a 3x is
        # not.
        base = self._doc(1.0, 1.0, calibration_s=0.010)
        ok = self._doc(1.9, 1.9, calibration_s=0.020)
        bad = self._doc(3.0, 3.0, calibration_s=0.020)
        assert compare_perf_payloads(ok, base) == []
        assert len(compare_perf_payloads(bad, base)) == 2

    def test_missing_calibration_means_no_rescale(self):
        # Without a calibration time on both sides the budgets stay the
        # same-machine ones: the 1.9x slowdown the rescale above allows
        # is flagged here.
        base = self._doc(1.0, 1.0, calibration_s=0.010)
        cur = self._doc(1.9, 1.9)
        assert len(compare_perf_payloads(cur, base)) == 2
        assert len(compare_perf_payloads(base, cur)) == 0

    def test_stage_missing_from_current_is_not_a_regression(self):
        base = self._doc(1.0, 1.0)
        cur = self._doc(1.0, 1.0)
        cur["fast"]["stages"] = {}
        assert compare_perf_payloads(cur, base) == []


class TestRunPerf:
    def test_rejects_bad_repeats(self):
        with pytest.raises(ValueError):
            run_perf(repeats=0)

    def test_tiny_real_run(self):
        # One real (small) job through the measurement loop plus a tiny
        # in-process scale section, to cover the wiring end to end.
        from repro.service import scale_perf_jobs

        jobs = [JobSpec("BF", "rcp", k=2)]
        payload = run_perf(
            repeats=1,
            jobs=jobs,
            scale_jobs=scale_perf_jobs(
                target_gates=1_500, kinds=("adder",)
            ),
            scale_fresh_process=False,
        )
        assert validate_perf_payload(payload) == []
        assert payload["grid"] is None
        assert payload["fast"]["failed_jobs"] == []
        assert payload["fast"]["calibration_s"] > 0
        assert payload["fast"]["stages"], "no spans recorded"
        assert payload["fast"]["per_job"][0]["label"].startswith("BF")
        rows = payload["scale"]["jobs"]
        assert [r["status"] for r in rows] == ["ok", "ok"]
        assert payload["streamed_overhead"] is not None

    def test_no_scale_section(self):
        jobs = [JobSpec("BF", "rcp", k=2)]
        payload = run_perf(repeats=1, jobs=jobs, include_scale=False)
        assert payload["scale"] is None
        assert payload["streamed_overhead"] is None
        assert validate_perf_payload(payload) == []


class TestPerfCLI:
    def test_bad_repeats_is_usage_error(self, capsys):
        assert main(["perf", "--repeats", "0"]) == 2
        assert "--repeats" in capsys.readouterr().err

    def test_missing_baseline_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["perf", "--baseline", str(missing)]) == 2
        assert "not readable" in capsys.readouterr().err

    def test_invalid_baseline_json_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["perf", "--baseline", str(bad)]) == 2
        assert "not JSON" in capsys.readouterr().err

    def test_invalid_baseline_document_is_usage_error(self, tmp_path,
                                                      capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "wrong/0"}))
        assert main(["perf", "--baseline", str(bad)]) == 2
        assert "not a valid perf document" in capsys.readouterr().err

    def test_non_string_scale_label_is_usage_error(self, tmp_path,
                                                   monkeypatch, capsys):
        fast = _aggregate([_run([_outcome(compute_s=1.0)])])
        doc = build_perf_payload(
            None, 1, fast, scale=_scale_section([_scale_row(5, "streamed")])
        )
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))

        def no_run(**kwargs):
            raise AssertionError("perf ran jobs despite a bad baseline")

        monkeypatch.setattr("repro.service.run_perf", no_run)
        assert main(["perf", "--baseline", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: baseline {str(bad)!r} is not a valid perf document"
        )
        assert "Traceback" not in err

    def test_failed_jobs_exit_1(self, monkeypatch, capsys):
        fast = _aggregate(
            [_run([_outcome(label="BF|rcp", status="error")])]
        )
        payload = build_perf_payload(None, 1, fast)
        monkeypatch.setattr(
            "repro.service.run_perf", lambda **kwargs: payload
        )
        assert main(["perf", "-o", ""]) == 1
        out, err = capsys.readouterr()
        assert "calibration kernel: 10.00 ms" in out
        assert "1 job(s) failed: BF|rcp" in err

def _scale_row(label, pipeline, mem=1000.0, interp=20000, status="ok"):
    return {
        "label": label,
        "status": status,
        "pipeline": pipeline,
        "kind": "adder",
        "algorithm": "lpfs",
        "target_gates": 1000,
        "total_gates": 1021,
        "elapsed_s": 0.5,
        "schedule_length": 700,
        "interp_rss_kb": interp,
        "peak_rss_kb": 30000,
        "peak_rss_kb_per_mgate": mem,
    }


def _scale_section(rows):
    return {"process_isolated": True, "jobs": rows}


class TestScaleValidator:
    def _payload(self, rows):
        fast = _aggregate([_run([_outcome(compute_s=1.0)])])
        return build_perf_payload(
            None, 1, fast, scale=_scale_section(rows)
        )

    def test_valid_scale_section(self):
        rows = [
            _scale_row("scale:adder@1000/streamed[w=8]", "streamed"),
            _scale_row("scale:adder@1000/materialized", "materialized"),
        ]
        payload = self._payload(rows)
        assert payload["schema"] == PERF_SCHEMA
        assert validate_perf_payload(payload) == []

    def test_v2_requires_scale_key(self):
        fast = _aggregate([_run([_outcome(compute_s=1.0)])])
        payload = build_perf_payload(None, 1, fast)
        del payload["scale"]
        problems = validate_perf_payload(payload)
        assert any("'scale'" in p for p in problems)

    def test_label_must_embed_pipeline(self):
        rows = [_scale_row("scale:adder@1000/oops", "streamed")]
        problems = validate_perf_payload(self._payload(rows))
        assert any("label must embed" in p for p in problems)

    def test_bad_pipeline_value(self):
        rows = [_scale_row("scale:adder@1000/windowed", "windowed")]
        problems = validate_perf_payload(self._payload(rows))
        assert any("pipeline" in p for p in problems)

    def test_error_rows_need_no_metrics(self):
        rows = [
            {
                "label": "scale:adder@1000/streamed[w=8]",
                "pipeline": "streamed",
                "status": "timeout",
                "error": "exceeded 600s",
            }
        ]
        assert validate_perf_payload(self._payload(rows)) == []


class TestMemoryGate:
    def _doc(self, rows):
        return {
            "fast": {"stages": {}, "total_compute_s": 0.0},
            "scale": _scale_section(rows),
        }

    def test_identical_passes(self):
        doc = self._doc(
            [_scale_row("scale:adder@1000/streamed[w=8]", "streamed")]
        )
        assert compare_perf_payloads(doc, doc) == []

    def test_memory_regression_flagged(self):
        label = "scale:adder@1000/streamed[w=8]"
        base = self._doc([_scale_row(label, "streamed", mem=1000.0)])
        cur = self._doc([_scale_row(label, "streamed", mem=2000.0)])
        problems = compare_perf_payloads(cur, base)
        assert len(problems) == 1
        assert "KiB/Mgate" in problems[0]
        # Within tolerance passes.
        ok = self._doc([_scale_row(label, "streamed", mem=1300.0)])
        assert compare_perf_payloads(ok, base,
                                     memory_tolerance=0.35) == []

    def test_interp_rss_rescales_budget(self):
        # Current machine's fresh interpreter is 2x bigger (e.g. a
        # different allocator): a 1.9x peak growth stays within the
        # rescaled budget, 3x does not.
        label = "scale:adder@1000/streamed[w=8]"
        base = self._doc(
            [_scale_row(label, "streamed", mem=1000.0, interp=20000)]
        )
        ok = self._doc(
            [_scale_row(label, "streamed", mem=1900.0, interp=40000)]
        )
        bad = self._doc(
            [_scale_row(label, "streamed", mem=3000.0, interp=40000)]
        )
        assert compare_perf_payloads(ok, base) == []
        assert len(compare_perf_payloads(bad, base)) == 1

    def test_pipeline_mismatch_refuses_comparison(self):
        label = "scale:adder@1000/streamed[w=8]"
        base_row = _scale_row(label, "streamed")
        cur_row = _scale_row(label, "materialized")
        problems = compare_perf_payloads(
            self._doc([cur_row]), self._doc([base_row])
        )
        assert len(problems) == 1
        assert "refusing to compare" in problems[0]

    def test_streamed_never_gates_against_materialized(self):
        # Different labels (the modes embed in them) simply don't pair:
        # a huge materialized number cannot trip the streamed gate.
        base = self._doc(
            [_scale_row("scale:adder@1000/materialized",
                        "materialized", mem=100.0)]
        )
        cur = self._doc(
            [_scale_row("scale:adder@1000/streamed[w=8]",
                        "streamed", mem=5000.0)]
        )
        assert compare_perf_payloads(cur, base) == []

    def test_v1_baseline_skips_memory_gate(self):
        cur = self._doc(
            [_scale_row("scale:adder@1000/streamed[w=8]", "streamed",
                        mem=9999.0)]
        )
        v1_base = {"fast": {"stages": {}, "total_compute_s": 0.0}}
        assert compare_perf_payloads(cur, v1_base) == []

    def test_error_rows_skipped(self):
        label = "scale:adder@1000/streamed[w=8]"
        base = self._doc([_scale_row(label, "streamed")])
        cur = self._doc(
            [_scale_row(label, "streamed", mem=9999.0,
                        status="error")]
        )
        assert compare_perf_payloads(cur, base) == []
