import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import fibocube
from fibocube.cli import EXIT_BAD, EXIT_OK, EXIT_USAGE, main


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestClassify:
    def test_bad_pattern_101(self):
        code, out, _ = run_cli("classify", "101")
        assert code == EXIT_BAD
        lines = out.splitlines()
        assert lines[0] == "bad B=4"
        witness = json.loads(lines[1])
        assert witness["alpha"] == "1111"
        assert witness["beta"] == "1001"
        assert witness["offsets"] == {"2": 1, "3": 2}

    def test_good_pattern_11(self):
        code, out, _ = run_cli("classify", "11")
        assert code == EXIT_OK
        assert out == "good\n"

    def test_parse_error(self):
        code, out, err = run_cli("classify", "1x1")
        assert code == EXIT_USAGE
        assert out == ""
        assert "error" in err

    def test_json_format(self):
        code, out, _ = run_cli("classify", "101", "--format", "json")
        assert code == EXIT_BAD
        data = json.loads(out)
        assert data["verdict"] == "bad"
        assert data["index"] == 4
        assert len(data["witnesses"]) == 1

    def test_csv_format(self):
        code, out, _ = run_cli("classify", "11", "--format", "csv")
        assert code == EXIT_OK
        assert out == "pattern,verdict,index\n11,good,\n"


class TestIndexAndWitness:
    def test_index_bad(self):
        code, out, _ = run_cli("index", "0011")
        assert code == EXIT_BAD
        assert out == "7\n"

    def test_index_good(self):
        code, out, _ = run_cli("index", "111")
        assert code == EXIT_OK
        assert out == "good\n"

    def test_witness_json(self):
        code, out, _ = run_cli("witness", "101")
        assert code == EXIT_BAD
        data = json.loads(out)
        assert [w["alpha"] for w in data] == ["1111"]

    def test_witness_good_empty(self):
        code, out, _ = run_cli("witness", "11")
        assert code == EXIT_OK
        assert json.loads(out) == []


class TestCensus:
    def test_csv_row(self):
        code, out, _ = run_cli("census", "3", "--format", "csv", "--workers", "1")
        assert code == EXIT_OK
        assert out == (
            "length,total,good,bad,good_fraction,index_histogram,p_histogram,oracle_confirmed\n"
            '3,8,6,2,0.75,"{""4"": 2}","{""2"": 2}",False\n'
        )

    def test_json_row(self):
        code, out, _ = run_cli("census", "4", "--format", "json", "--workers", "1")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["good_count"] == 8
        assert data["index_histogram"] == {"5": 6, "7": 2}

    def test_worker_invariance(self):
        _, out1, _ = run_cli("census", "5", "--format", "json", "--workers", "1")
        _, out2, _ = run_cli("census", "5", "--format", "json", "--workers", "2")
        assert out1 == out2

    def test_text_format(self):
        code, out, _ = run_cli("census", "3", "--workers", "1")
        assert code == EXIT_OK
        assert out.startswith("length=3 total=8 good=6 bad=2")


class TestVerify:
    def test_all_suites_max_len_2(self):
        code, out, _ = run_cli("verify", "--max-len", "2", "--suite", "all", "--workers", "1")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 7
        assert all(line.startswith("PASS") for line in lines)

    def test_single_suite_json(self):
        code, out, _ = run_cli(
            "verify", "--max-len", "3", "--suite", "cross", "--format", "json", "--workers", "1"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["passed"] is True
        assert data["checked"] == 14


class TestGraphExport:
    def test_dot_q2_11(self):
        code, out, _ = run_cli("graph", "11", "--dim", "2")
        assert code == EXIT_OK
        assert out == (
            'graph "Q_2(11)" {\n'
            '  "00";\n'
            '  "01";\n'
            '  "10";\n'
            '  "00" -- "01";\n'
            '  "00" -- "10";\n'
            "}\n"
        )

    def test_dot_q4_11_has_8_nodes(self):
        code, out, _ = run_cli("graph", "11", "--dim", "4", "--format", "dot")
        assert code == EXIT_OK
        nodes = [l for l in out.splitlines() if l.startswith("  ") and "--" not in l]
        assert len(nodes) == 8

    def test_json_graph(self):
        code, out, _ = run_cli("graph", "11", "--dim", "4", "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["vertex_count"] == 8
        assert data["dimension"] == 4

    def test_cap_violation(self):
        code, out, err = run_cli("graph", "11", "--dim", "26")
        assert code == EXIT_USAGE
        assert "cap" in err

    def test_cap_flag(self):
        code, _, err = run_cli("graph", "11", "--dim", "6", "--cap", "5")
        assert code == EXIT_USAGE
        assert "cap" in err and "5" in err

    def test_cap_env_var(self, monkeypatch):
        monkeypatch.setenv("FIBOCUBE_CAP", "5")
        code, _, err = run_cli("graph", "11", "--dim", "6")
        assert code == EXIT_USAGE
        assert "5" in err
        code, out, _ = run_cli("graph", "11", "--dim", "5")
        assert code == EXIT_OK


class TestOverlapGraphExport:
    def test_dot_1_1(self):
        code, out, _ = run_cli("overlap-graph", "1", "1")
        assert code == EXIT_OK
        assert out == (
            'graph "overlap_1_1" {\n'
            '  "v1_1";\n'
            '  "v3_1";\n'
            '  "v2_1";\n'
            '  "v2_2";\n'
            '  "v1_1" -- "v2_1";\n'
            '  "v1_1" -- "v2_2";\n'
            '  "v3_1" -- "v2_1";\n'
            '  "v3_1" -- "v2_2";\n'
            "}\n"
        )

    def test_rejects_bad_parameters(self):
        code, _, err = run_cli("overlap-graph", "0", "3")
        assert code == EXIT_USAGE
        assert "positive" in err


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self):
        runs = [run_cli("classify", "0011", "--format", "json") for _ in range(2)]
        assert runs[0] == runs[1]


class TestDependencies:
    def test_cli_import_does_not_load_scipy(self):
        src = str(Path(fibocube.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import fibocube.cli; "
            "print('scipy' in sys.modules)"
        )
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "False"


class TestVerifyFailure:
    def test_failed_suite_exits_1_with_counterexample(self, monkeypatch):
        from fibocube import oracle

        monkeypatch.setattr(oracle, "index_bruteforce", lambda f, cap=None: None)
        code, out, _ = run_cli("verify", "--max-len", "3", "--suite", "cross", "--workers", "1")
        assert code == 1
        (line,) = out.splitlines()
        assert line.startswith(
            "FAIL oracle-structural-cross-validation checked=14 [all patterns of length 1..3]"
            " counterexample="
        )
        record = json.loads(line.split(" counterexample=", 1)[1])
        assert record["failure"] == "index-mismatch"
