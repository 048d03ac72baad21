import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fibocube
from fibocube import cli, harness
from fibocube.cli import EXIT_BAD, EXIT_OK, EXIT_USAGE, main
from fibocube.oracle import build_graph
from fibocube.words import Word
from test_oracle import reference_graph_to_dot, reference_graph_to_json_dict


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

    def test_ignores_dimension_cap(self, monkeypatch):
        # classify builds no graph, so the oracle's cap does not apply
        monkeypatch.setenv("FIBOCUBE_CAP", "1")
        code, out, _ = run_cli("classify", "101")
        assert code == EXIT_BAD
        assert out.splitlines()[0] == "bad B=4"


    def test_witnesses_longer_than_the_parser_limit(self):
        code, out, err = run_cli("classify", "10100010110111111101011101010100000")
        assert code == EXIT_BAD
        assert out.splitlines()[0] == "bad B=65"
        assert err == ""


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

    def test_oracle_confirm_past_the_cap(self):
        # Length 9 scans to dimension 2*9-1 = 17; the first pattern is refused.
        code, out, err = run_cli(
            "census", "9", "--oracle-confirm", "--cap", "16", "--workers", "1"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: scan to dimension 17 exceeds dimension cap 16\n"

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

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_all_prints_single_suites_then_overlap(self, workers):
        argv = ("verify", "--max-len", "4", "--format", "json", "--workers", workers)
        code, out, _ = run_cli(*argv, "--suite", "all")
        assert code == EXIT_OK
        expected = []
        for suite in harness.SUITES:
            single_code, single_out, _ = run_cli(*argv, "--suite", suite)
            assert single_code == EXIT_OK
            expected += single_out.splitlines()
        overlap = harness.check_overlap_machinery().to_json_dict()
        expected.append(json.dumps(overlap, sort_keys=True))
        assert out.splitlines() == expected

    @pytest.mark.parametrize("max_len", ["0", "-2"])
    def test_rejects_empty_sweep(self, max_len):
        code, out, err = run_cli("verify", "--max-len", max_len, "--workers", "1")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: sweep length must be at least 1, got {max_len}\n"


class TestGraphExport:
    def test_matches_reference_export(self):
        g = build_graph(Word.parse("0011"), 7)
        code, out, _ = run_cli("graph", "0011", "--dim", "7", "--format", "dot")
        assert code == EXIT_OK
        assert out == reference_graph_to_dot(g)
        code, out, _ = run_cli("graph", "0011", "--dim", "7", "--format", "json")
        assert code == EXIT_OK
        assert out == json.dumps(reference_graph_to_json_dict(g), sort_keys=True) + "\n"

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

    def test_dimension_past_int64_refused_whatever_the_cap(self):
        code, out, err = run_cli("graph", "0", "--dim", "64", "--cap", "70")
        assert code == EXIT_USAGE
        assert out == ""
        assert "dimension 64 outside 1..63 (vertices are packed in int64)" in err

    def test_cap_env_var(self, monkeypatch):
        monkeypatch.setenv("FIBOCUBE_CAP", "5")
        code, _, err = run_cli("graph", "11", "--dim", "6")
        assert code == EXIT_USAGE
        assert "5" in err
        code, out, _ = run_cli("graph", "11", "--dim", "5")
        assert code == EXIT_OK

    def test_cap_env_var_not_an_integer(self, monkeypatch):
        monkeypatch.setenv("FIBOCUBE_CAP", "abc")
        code, out, err = run_cli("graph", "11", "--dim", "3")
        assert code == EXIT_USAGE
        assert out == ""
        assert "FIBOCUBE_CAP" in err


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

    def test_cli_import_loads_no_numpy(self):
        src = str(Path(fibocube.__file__).resolve().parents[1])
        heavy = ("numpy", "fibocube.oracle", "fibocube.harness", "concurrent.futures.process")
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import fibocube.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules])"
        )
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv", [
        ("classify", "0011", "--format", "json"),
        ("index", "00011"),
        ("witness", "101"),
        ("overlap-graph", "10", "3"),
    ], ids=lambda argv: argv[0])
    def test_string_commands_run_without_numpy(self, argv):
        src = str(Path(fibocube.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); sys.modules['numpy'] = None; "
            f"from fibocube.cli import main; sys.exit(main({list(argv)!r}))"
        )
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        exit_code, out, _ = run_cli(*argv)
        assert (run.returncode, run.stdout, run.stderr) == (exit_code, out, "")


class TestEnvironmentReads:
    def test_only_the_cli_reads_the_environment(self):
        readers = []
        for path in sorted(Path(fibocube.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    names = [node.attr] if node.value.id == "os" else []
                elif isinstance(node, ast.ImportFrom) and node.module == "os":
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if {"environ", "getenv"} & set(names):
                    readers.append(path.name)
        assert readers and set(readers) == {"cli.py"}


class TestProcessPools:
    def test_only_pmap_starts_a_process_pool(self):
        # _pmap sizes its pool by the CPU count, so no other code may start one.
        makers = []
        for path in sorted(Path(fibocube.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            parent = {c: node for node in ast.walk(tree) for c in ast.iter_child_nodes(node)}
            for node in ast.walk(tree):
                func = getattr(node, "func", None)
                if getattr(func, "id", getattr(func, "attr", None)) != "ProcessPoolExecutor":
                    continue
                while node in parent and not isinstance(node, ast.FunctionDef):
                    node = parent[node]
                makers.append((path.name, getattr(node, "name", None)))
        assert makers == [("harness.py", "_pmap")]


class TestModuleLevelImports:
    def test_cli_imports_no_numpy_layer_at_module_level(self):
        # Only the commands that build graphs or run sweeps may load numpy.
        heavy = {"numpy", "oracle", "harness", "periodicity"}
        path = Path(cli.__file__)
        imported = []
        nodes = list(ast.parse(path.read_text(), str(path)).body)
        while nodes:
            node = nodes.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported += [f"{node.module or ''}.{alias.name}" for alias in node.names]
            nodes.extend(ast.iter_child_nodes(node))
        assert "structural" in " ".join(imported)
        assert [m for m in imported if heavy & set(m.split("."))] == []

    def test_suite_choices_are_the_harness_suites(self):
        assert cli.SUITE_CHOICES == ("all",) + harness.SUITES


class TestModuleEntryPoint:
    def test_python_m_fibocube(self):
        src = str(Path(fibocube.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-m", "fibocube", "classify", "101"],
            capture_output=True, text=True, env=env,
        )
        assert run.returncode == EXIT_BAD, run.stderr
        assert run.stdout.splitlines()[0] == "bad B=4"


class TestVerifyFailure:
    def test_failed_suite_exits_1_with_counterexample(self, monkeypatch):
        from fibocube import oracle

        # Every graph reads as having no critical pair, so every index is "good".
        monkeypatch.setattr(oracle, "critical_p_values", lambda g: g.vertices[:0])
        code, out, _ = run_cli("verify", "--max-len", "3", "--suite", "cross", "--workers", "1")
        assert code == 1
        (line,) = out.splitlines()
        assert line.startswith(
            "FAIL oracle-structural-cross-validation checked=14 [all patterns of length 1..3]"
            " counterexample="
        )
        record = json.loads(line.split(" counterexample=", 1)[1])
        assert record["failure"] == "index-mismatch"


class TestInternalError:
    def test_empty_message_names_the_exception_type(self, monkeypatch):
        from fibocube import oracle

        def out_of_memory(f, d, cap=None):
            raise MemoryError()

        monkeypatch.setattr(oracle, "build_graph", out_of_memory)
        code, out, err = run_cli("graph", "11", "--dim", "4")
        assert code == 1
        assert out == ""
        assert err == "internal error: MemoryError\n"
