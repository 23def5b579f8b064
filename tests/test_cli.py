"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestList:
    def test_lists_all_benchmarks(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in ("BF", "BWT", "CN", "Grovers", "GSE", "SHA-1",
                    "Shors", "TFP"):
            assert key in out


class TestEstimate:
    def test_benchmark_estimate(self, capsys):
        assert main(["estimate", "GSE"]) == 0
        out = capsys.readouterr().out
        assert "total gates" in out
        assert "minimum qubits: 13" in out

    def test_unknown_source(self, capsys):
        assert main(["estimate", "NOPE"]) == 2
        assert "neither a benchmark" in capsys.readouterr().err


class TestCompile:
    def test_benchmark_compile(self, capsys):
        assert main(["compile", "GSE", "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "comm-aware speedup" in out
        assert "Multi-SIMD(2,inf)" in out

    def test_json_output(self, capsys):
        assert main(["compile", "GSE", "-k", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["machine"]["k"] == 2
        assert data["scheduler"] == "lpfs"
        assert data["total_gates"] > 0

    def test_rcp_selection(self, capsys):
        assert main(
            ["compile", "GSE", "-k", "2", "--scheduler", "rcp",
             "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scheduler"] == "rcp"

    def test_local_memory_flag(self, capsys):
        assert main(
            ["compile", "GSE", "-k", "2", "--local-mem", "inf"]
        ) == 0
        assert "local=inf" in capsys.readouterr().out

    def test_bad_local_memory(self, capsys):
        assert main(["compile", "GSE", "--local-mem", "lots"]) == 2
        assert "bad local-memory" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["compile", "BF", "-k", "0"],
            ["compile", "BF", "-d", "0"],
            ["compile", "BF", "-k", "70000"],
            ["compile", "BF", "-k", "70000", "--stream"],
            ["execute", "BF", "-k", "0"],
        ],
    )
    def test_bad_machine_size_is_usage_error(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_timeline_and_profile(self, capsys):
        assert main(
            ["compile", "GSE", "-k", "2", "--timeline", "4",
             "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "blackbox dimensions" in out
        assert "cycle" in out

    def test_qasm_file_roundtrip(self, tmp_path, capsys):
        # emit a benchmark, then compile the emitted file.
        target = tmp_path / "prog.qasm"
        assert main(["emit", "GSE", "-o", str(target)]) == 0
        capsys.readouterr()
        assert main(["compile", str(target), "-k", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["entry"] == "main"


class TestEmit:
    def test_emit_to_stdout(self, capsys):
        assert main(["emit", "GSE"]) == 0
        out = capsys.readouterr().out
        assert ".module main .entry" in out

    def test_emit_to_file(self, tmp_path, capsys):
        target = tmp_path / "out.qasm"
        assert main(["emit", "Grovers", "-o", str(target)]) == 0
        assert target.exists()
        assert ".module main .entry" in target.read_text()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fth_override(self, capsys):
        assert main(
            ["compile", "GSE", "-k", "2", "--fth", "100"]
        ) == 0
        assert "FTh=100" in capsys.readouterr().out


class TestScaffoldInput:
    def test_compile_scaffold_file(self, tmp_path, capsys):
        source = tmp_path / "prog.scaffold"
        source.write_text(
            """
            module box ( qbit a, qbit b, qbit c ) { Toffoli(a, b, c); }
            module main ( ) {
                qreg r[5];
                box(r[0], r[1], r[2]);
                box(r[0], r[3], r[4]);
            }
            """
        )
        assert main(
            ["compile", str(source), "-k", "2", "--fth", "0", "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["total_gates"] == 30

    def test_emit_scaffold_as_qasm(self, tmp_path, capsys):
        source = tmp_path / "prog.scd"
        source.write_text(
            "module main ( ) { qbit a; repeat 9 { H(a); } }"
        )
        assert main(["emit", str(source)]) == 0
        out = capsys.readouterr().out
        assert ".module main .entry" in out


CLEAN_SCAFFOLD = """
module main ( ) {
    qreg q[2];
    PrepZ(q[0]);
    PrepZ(q[1]);
    H(q[0]);
    CNOT(q[0], q[1]);
    MeasZ(q[0]);
    MeasZ(q[1]);
}
"""

# Unknown gate: front-end call-resolution error (QL103).
BROKEN_SCAFFOLD = """
module main ( ) {
    qreg q[2];
    H(q[0]);
    BLORP(q[1]);
}
"""

# Operates on a measured qubit: dataflow error (QL006).
USE_AFTER_MEASURE = """
module main ( ) {
    qbit a;
    PrepZ(a);
    MeasZ(a);
    H(a);
}
"""


class TestLint:
    def test_clean_benchmark_exits_zero(self, capsys):
        assert main(["lint", "Grovers"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_clean_file(self, tmp_path, capsys):
        source = tmp_path / "clean.scd"
        source.write_text(CLEAN_SCAFFOLD)
        assert main(["lint", str(source)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_dirty_file_exits_one(self, tmp_path, capsys):
        source = tmp_path / "dirty.scd"
        source.write_text(BROKEN_SCAFFOLD)
        assert main(["lint", str(source)]) == 1
        out = capsys.readouterr().out
        assert "QL103" in out
        assert "BLORP" in out
        assert "dirty.scd:5" in out

    def test_dataflow_error_exits_one(self, tmp_path, capsys):
        source = tmp_path / "uam.scd"
        source.write_text(USE_AFTER_MEASURE)
        assert main(["lint", str(source)]) == 1
        assert "QL006" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        source = tmp_path / "dirty.scd"
        source.write_text(BROKEN_SCAFFOLD)
        assert main(["lint", str(source), "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["counts"]["error"] >= 1
        codes = {d["code"] for d in data["diagnostics"]}
        assert "QL103" in codes
        entry = next(
            d for d in data["diagnostics"] if d["code"] == "QL103"
        )
        assert entry["severity"] == "error"
        assert entry["location"]["line"] == 5

    def test_fail_on_never(self, tmp_path):
        source = tmp_path / "dirty.scd"
        source.write_text(BROKEN_SCAFFOLD)
        assert main(
            ["lint", str(source), "--fail-on", "never"]
        ) == 0

    def test_fail_on_warning(self, tmp_path):
        # A degenerate loop is a warning-level finding (QL102).
        source = tmp_path / "warn.scd"
        source.write_text(
            """
            module main ( ) {
                qbit a;
                PrepZ(a);
                for i in 0 .. 0 { H(a); }
                MeasZ(a);
            }
            """
        )
        assert main(["lint", str(source)]) == 0
        assert main(
            ["lint", str(source), "--fail-on", "warning"]
        ) == 1

    def test_lint_all_registry(self, capsys):
        assert main(["lint", "all"]) == 0
        out = capsys.readouterr().out
        assert "0 errors" in out or "warning" in out

    def test_unknown_source(self, capsys):
        assert main(["lint", "NOPE"]) == 2
        assert "neither a benchmark" in capsys.readouterr().err


class TestExitCodes:
    def test_parse_error_is_three(self, tmp_path, capsys):
        source = tmp_path / "bad.scd"
        source.write_text(BROKEN_SCAFFOLD)
        assert main(["compile", str(source), "-k", "2"]) == 3
        err = capsys.readouterr().err
        assert "BLORP" in err
        assert "line 5" in err

    def test_qasm_parse_error_is_three(self, tmp_path, capsys):
        source = tmp_path / "bad.qasm"
        source.write_text("this is not qasm at all\n")
        assert main(["estimate", str(source)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_strict_analysis_failure_is_one(self, tmp_path, capsys):
        source = tmp_path / "uam.scd"
        source.write_text(USE_AFTER_MEASURE)
        assert main(
            ["compile", str(source), "-k", "2", "--strict"]
        ) == 1
        assert "QL006" in capsys.readouterr().err

    def test_strict_clean_compile_passes(self, capsys):
        assert main(["compile", "GSE", "-k", "2", "--strict"]) == 0
        assert "comm-aware speedup" in capsys.readouterr().out

    def test_schedule_error_is_four(self, monkeypatch, capsys):
        from repro import cli
        from repro.sched.types import ScheduleError

        def boom(*_args, **_kwargs):
            raise ScheduleError("synthetic invariant violation")

        monkeypatch.setattr(cli, "compile_and_schedule", boom)
        assert main(["compile", "GSE", "-k", "2"]) == 4
        assert "synthetic" in capsys.readouterr().err

    def test_replay_error_is_four(self, monkeypatch, capsys):
        from repro import cli
        from repro.sched.replay import ReplayError

        def boom(*_args, **_kwargs):
            raise ReplayError("unrealisable plan")

        monkeypatch.setattr(cli, "compile_and_schedule", boom)
        assert main(["compile", "GSE", "-k", "2"]) == 4
        assert "unrealisable" in capsys.readouterr().err
