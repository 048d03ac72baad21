import ast
import copy
import importlib
import inspect
import json
import operator
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import fibocube
from fibocube import structural
from fibocube.words import Word

SRC = str(Path(fibocube.__file__).resolve().parents[1])
REPO = Path(SRC).parent


def home_module(name):
    return importlib.import_module(f"fibocube.{fibocube._HOME[name]}")


class TestExports:
    def test_every_name_is_its_home_module_object(self):
        for name in fibocube.__all__:
            value = getattr(fibocube, name)
            assert value is getattr(home_module(name), name), name
            # classes and functions live where they are defined; words.Pattern is Word
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == home_module(name).__name__, name

    def test_star_import_and_dir(self):
        namespace = {}
        exec("from fibocube import *", namespace)
        assert set(fibocube.__all__) <= set(namespace)
        assert set(fibocube.__all__) <= set(dir(fibocube))
        assert fibocube.__all__ == sorted(set(fibocube.__all__))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            fibocube.no_such_name  # noqa: B018
        # a public name of a home module that the package does not export
        assert not hasattr(fibocube, "two_flip_candidates")

    def test_replaced_name_reads_through_and_is_restored(self, monkeypatch):
        original = structural.classify
        sentinel = object()
        with monkeypatch.context() as patch:
            patch.setattr(structural, "classify", sentinel)
            assert fibocube.classify is sentinel
        assert fibocube.classify is original
        assert "classify" not in vars(fibocube)


class TestLazyNumpy:
    def test_only_oracle_names_load_numpy(self):
        code = (
            f"import json, sys; sys.path.insert(0, {SRC!r}); import fibocube; "
            "names = ('Word', 'MAX_LENGTH', 'classify', 'build_overlap_graph'); "
            "[getattr(fibocube, n) for n in names]; before = 'numpy' in sys.modules; "
            "fibocube.build_graph; print(json.dumps([before, 'numpy' in sys.modules]))"
        )
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout) == [False, True]


class TestColdStart:
    def test_string_commands_load_no_dataclasses_inspect_or_numpy(self):
        # -S: only what the package loads, not what an install's site hooks add
        code = (
            f"import json, sys; sys.path.insert(0, {SRC!r}); from fibocube import cli; "
            "codes = [cli.main([c, p]) for c in ('classify', 'index', 'witness') "
            "for p in ('11', '0011')]; "
            "print(json.dumps([codes, [m for m in ('dataclasses', 'inspect', 'numpy') "
            "if m in sys.modules]]))"
        )
        run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                             text=True)
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout.splitlines()[-1]) == [[0, 10, 0, 10, 0, 10], []]


def records():
    """(record, an equal record built apart, its fields, its repr) for a
    Word, a CriticalWitness and the Classifications of a bad and a good f."""
    bad, good = (structural.classify(Word.parse(t)) for t in ("0011", "11"))
    (w,) = bad.witnesses
    word = "Word(length=4, bits=3)"
    witness = (f"CriticalWitness(pattern={word}, dimension=7, offsets=((3, 3), (4, 1), "
               "(5, 4)), alpha=Word(length=7, bits=23), beta=Word(length=7, bits=11))")
    return [
        (Word(4, 3), Word.parse("0011"), {"length": 4, "bits": 3}, word),
        (w, structural.classify(Word.parse("0011")).witnesses[0],
         {"pattern": w.pattern, "dimension": 7, "offsets": ((3, 3), (4, 1), (5, 4)),
          "alpha": w.alpha, "beta": w.beta}, witness),
        (bad, structural.classify(Word.parse("0011")), {"pattern": bad.pattern,
                                                        "witnesses": (w,)},
         f"Classification(pattern={word}, witnesses=({witness},))"),
        (good, structural.classify(Word.parse("11")), {"pattern": good.pattern,
                                                       "witnesses": ()},
         "Classification(pattern=Word(length=2, bits=3), witnesses=())"),
    ]


class TestRecords:
    """Word, CriticalWitness and Classification behave as frozen records."""

    @pytest.mark.parametrize("k", range(4))
    def test_equality_hash_and_repr(self, k):
        record, twin, fields, text = records()[k]
        values = tuple(fields.values())
        assert record is not twin
        assert record == twin and not record != twin
        assert hash(record) == hash(twin) == hash(values)
        assert record != values and values != record
        assert [getattr(record, name) for name in fields] == list(values)
        assert repr(record) == text

    @pytest.mark.parametrize("k", range(4))
    def test_fields_cannot_be_assigned_or_deleted(self, k):
        record, _, fields, text = records()[k]
        for name in list(fields) + ["extra"]:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert repr(record) == text

    @pytest.mark.parametrize("k", range(4))
    def test_pickle_and_copy_round_trips(self, k):
        record = records()[k][0]
        copies = [pickle.loads(pickle.dumps(record, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies + [copy.copy(record), copy.deepcopy(record)]:
            assert type(other) is type(record)
            assert other == record and hash(other) == hash(record)
            assert repr(other) == repr(record)

    def test_words_order_by_length_then_bits(self):
        words = [Word(2, 3), Word(1, 1), Word(2, 0), Word(1, 0)]
        assert sorted(words) == [Word(1, 0), Word(1, 1), Word(2, 0), Word(2, 3)]
        assert Word(1, 1) < Word(2, 0) <= Word(2, 0) < Word(2, 3)
        assert Word(2, 3) > Word(2, 0) >= Word(2, 0) > Word(1, 1)

    @pytest.mark.parametrize("other", [(1, 0), 1, "0"])
    def test_words_order_only_among_words(self, other):
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(Word(1, 0), other)
            with pytest.raises(TypeError):
                compare(other, Word(1, 0))


# (function, parameter) pairs whose default no caller overrides, with the reason.
UNSET_DEFAULTS_ALLOWED = {
    # bench/expected/oracle.json stores minimal_critical_p: null from is_isometric(g)
    ("oracle.is_isometric", "with_min_p"),
}


def defaulted_parameters(tree, module):
    """(qualified name, called name, parameter, positional index or None)
    for every parameter with a default; the index leaves out a method's self.
    A class's __init__ is called by the class's name, so its parameters are
    recorded under that name."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls)
                continue
            a = child.args
            positional = a.posonlyargs + a.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in child.decorator_list)
            skip = 1 if cls and not static else 0
            name = cls if cls and child.name == "__init__" else child.name
            first = len(positional) - len(a.defaults)
            for k, arg in enumerate(positional[first:], first):
                found.append((f"{module}.{name}", name, arg.arg, k - skip))
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    found.append((f"{module}.{name}", name, arg.arg, None))
            visit(child, None)

    visit(tree, None)
    return found


def defaulted_fields(tree, module):
    """(module.Class, Class, field, positional index) for every dataclass
    field with a default, field(default=...) and field(default_factory=...)
    included."""
    def name(node):
        return getattr(node.func if isinstance(node, ast.Call) else node, "id", None)

    def has_default(value):
        if isinstance(value, ast.Call) and name(value) == "field":
            return any(kw.arg in ("default", "default_factory") for kw in value.keywords)
        return value is not None

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and "dataclass" in map(name, node.decorator_list):
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
            for k, f in enumerate(fields):
                if has_default(f.value):
                    found.append((f"{module}.{node.name}", node.name, f.target.id, k))
    return found


def passes(call, param, index):
    if any(kw.arg in (None, param) for kw in call.keywords):  # None is **kwargs
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return index is not None and len(call.args) > index


def program_files():
    """The package's modules, and the package's modules plus bench/'s non-test
    scripts: the code that commands and the benchmark run."""
    sources = sorted((REPO / "src" / "fibocube").glob("*.py"))
    return sources, sources + [p for p in sorted((REPO / "bench").glob("*.py"))
                               if not p.name.startswith("test_")]


def unset_defaults(sources, callers):
    """(qualified name, parameter) of every defaulted parameter or dataclass
    field in the source trees that no call in the caller trees sets, apart
    from UNSET_DEFAULTS_ALLOWED; each tree comes with its module name."""
    defaults = []
    for module, tree in sources:
        defaults += defaulted_parameters(tree, module) + defaulted_fields(tree, module)
    calls = []
    for _, tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.append((name, node))
    assert defaults  # the scan sees the sources
    return [
        (qualified, param)
        for qualified, name, param, index in defaults
        if (qualified, param) not in UNSET_DEFAULTS_ALLOWED
        and not any(n == name and passes(c, param, index) for n, c in calls)
    ]


def test_every_default_parameter_is_set_by_some_caller():
    """An option that only tests set is a second code path nothing uses."""
    sources, callers = program_files()
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in callers}
    assert unset_defaults([(p.stem, trees[p]) for p in sources],
                          [(p.stem, trees[p]) for p in callers]) == []


def test_constructor_defaults_are_matched_by_class_calls():
    """A defaulted __init__ parameter is set by a call of its class: a
    constructor whose default some call passes is not reported, one whose
    default no call passes is."""
    source = ast.parse(textwrap.dedent("""
        class Passed:
            def __init__(self, text, rep=None):
                self.text, self.rep = text, rep

        class Unset:
            def __init__(self, text, rep=None):
                self.text, self.rep = text, rep

        def main():
            return Passed("a", Passed("b")), Unset("c"), Passed("d", rep=None)
    """))
    assert unset_defaults([("sample", source)], [("sample", source)]) == [
        ("sample.Unset", "rep")
    ]


# Functions and methods that no program file names yet, with the reason.
UNCALLED_ALLOWED = {
    "structural.witness_from_json_dict": "read back by a planned witness check command",
}


def test_every_function_is_named_by_program_code():
    """A function that only tests call is code that no command or benchmark runs."""
    sources, callers = program_files()
    defined = []
    named = set()
    for path in callers:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif path in sources and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append(f"{path.stem}.{node.name}")
    assert defined  # the scan sees the package
    unnamed = sorted(q for q in defined
                     if q.split(".")[1] not in named and q not in UNCALLED_ALLOWED)
    assert unnamed == []
    assert sorted(set(UNCALLED_ALLOWED) - set(defined)) == []  # no stale entries


def named_strings(test_file):
    """Every string constant in one of the test files."""
    tree = ast.parse((REPO / "tests" / test_file).read_text(encoding="utf-8"))
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def failure_kinds(tree):
    """The strings a module stores as a failure kind: under a ["failure"]
    subscript, in a variable named failure, or under a "failure" dict key.
    A stored value that is neither a string nor the variable failure is
    returned as None, since its kinds cannot be read."""
    kinds = set()

    def stored(value):
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            kinds.add(value.value)
        elif not (isinstance(value, ast.Name) and value.id == "failure"):
            kinds.add(None)

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Name) and target.id == "failure") or (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and target.slice.value == "failure"
                ):
                    stored(node.value)
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and key.value == "failure":
                    stored(value)
    return kinds


def test_every_harness_failure_kind_is_named_in_its_tests():
    """A failure kind no test names is a check no test shows can fail.  The
    sweeps' records take their kinds from the harness and from the oracle's
    lemma21 check."""
    kinds = set()
    for module in ("harness.py", "oracle.py"):
        found = failure_kinds(ast.parse((REPO / "src" / "fibocube" / module)
                                        .read_text(encoding="utf-8")))
        assert found and None not in found, module
        kinds |= found
    assert sorted(kinds - named_strings("test_harness.py")) == []


def private_oracle_names():
    """Every private name oracle.py defines: its functions, classes and
    methods (a graph's cached scan among them), and the names and
    attributes it assigns."""
    tree = ast.parse((REPO / "src" / "fibocube" / "oracle.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def private_oracle_reads(source, private):
    """Each read in source of a private oracle name: oracle._x, a private
    name imported from the oracle, or an attribute ._x named in private."""
    reads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and (
            node.attr in private
            or isinstance(node.value, ast.Name) and node.value.id == "oracle"
        ):
            reads.append(ast.unparse(node))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("oracle"):
            reads += [a.name for a in node.names if a.name.startswith("_")]
    return reads


def test_harness_reads_no_private_oracle_name():
    """The sweeps ask the oracle through its public functions only, so the
    oracle's caches and routes can change without the harness."""
    private = private_oracle_names()
    assert {"_critical_pairs", "_bfs_source", "_bfs_violation", "_lookup"} <= private
    source = (REPO / "src" / "fibocube" / "harness.py").read_text(encoding="utf-8")
    assert private_oracle_reads(source, private) == []
    planted = textwrap.dedent("""
        from .oracle import _first_violation
        i, j = g._critical_pairs
        source = oracle._bfs_violation(g)
        name = oracle.UNREACHABLE, periodicity._overlap_failure
    """)
    assert private_oracle_reads(planted, private) == [
        "_first_violation", "g._critical_pairs", "oracle._bfs_violation"
    ]


def test_every_witness_reason_code_is_named_in_its_tests():
    """verify_witness returns None or a reason-code string; a code no test
    names is a rejection no test shows can happen."""
    tree = ast.parse((REPO / "src" / "fibocube" / "structural.py").read_text(encoding="utf-8"))
    (fn,) = [node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == "verify_witness"]
    returned = [node.value for node in ast.walk(fn) if isinstance(node, ast.Return)]
    # None when the witness verifies; anything else must be a readable string
    assert all(v is None or isinstance(v, ast.Constant) for v in returned)
    codes = {v.value for v in returned if v is not None and v.value is not None}
    assert codes and all(isinstance(code, str) for code in codes)
    assert sorted(codes - named_strings("test_structural.py")) == []


# Each field a record used to store beside the fields that determine it: its
# class, keyword arguments that the record took before and that agree with
# each other, the tested field first.  The harness's records are plain dicts,
# so for them the class is the function that builds the dict.
DERIVED_FIELDS = {
    "Classification.index": ("structural.Classification",
                             {"index": None, "pattern": Word.parse("11"), "witnesses": ()}),
    "Verdict.isometric": ("oracle.Verdict", {"isometric": True}),
    "CriticalPair.p": ("oracle.CriticalPair", {"p": 2, "alpha": Word.parse("010"),
                                               "beta": Word.parse("111"),
                                               "blocked_side": "both"}),
    **{f"TheoremReport.{name}": ("harness._report",
                                 {name: value, "passed": True, "notes": "", "name": "n",
                                  "swept": "s", "checked": 1, "counterexample": None})
       for name, value in (("passed", True), ("notes", ""))},
    **{f"CensusRow.{name}": ("harness.census",
                             {name: value, "n": 3, "total": 8, "good_count": 6,
                              "bad_count": 2})
       for name, value in (("total", 8), ("good_count", 6), ("bad_count", 2))},
    **{f"OverlapGraph.{name}": ("periodicity.OverlapGraph",
                                {name: value, "r": 4, "s": 6, "k1": 2, "k2": 3,
                                 "x_vertices": (), "y_vertices": (), "edges": ()})
       for name, value in (("k1", 2), ("k2", 3))},
}


@pytest.mark.parametrize("case", DERIVED_FIELDS)
def test_derived_fields_cannot_be_set(case):
    """A derived field is read from the others, so no record can contradict
    itself; it still reads under its old name (a key of a dict record)."""
    path, kwargs = DERIVED_FIELDS[case]
    module, name = path.split(".")
    cls = getattr(importlib.import_module(f"fibocube.{module}"), name)
    field = case.split(".")[1]
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'"):
        cls(**kwargs)
    kept = set(inspect.signature(cls).parameters)
    record = cls(**{k: v for k, v in kwargs.items() if k in kept})
    value = record[field] if isinstance(record, dict) else getattr(record, field)
    assert value == kwargs[field]


def test_harness_records_agree_with_themselves():
    """The census row and suite reports are plain JSON records, so their
    derived keys are checked here: no record contradicts itself."""
    from fibocube.harness import census, run_suites

    for n in range(1, 11):
        row = census(n)
        assert row["good_count"] + row["bad_count"] == row["total"] == 2**n
        assert row["good_fraction"] == row["good_count"] / row["total"]
        for histogram in (row["index_histogram"], row["p_histogram"]):
            assert sum(histogram.values()) == row["bad_count"]
    reports = run_suites("all", 4)
    assert len(reports) == 7
    for r in reports:
        assert r["passed"] == (r["counterexample"] is None)
        assert r["notes"] == ""
