import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import fibocube
from fibocube import oracle, structural, words

SRC = str(Path(fibocube.__file__).resolve().parents[1])


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

    def test_dimension_cap_is_one_object(self):
        assert fibocube.DEFAULT_DIMENSION_CAP is oracle.DEFAULT_DIMENSION_CAP
        assert oracle.DEFAULT_DIMENSION_CAP is words.DEFAULT_DIMENSION_CAP == 25

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
            "names = ('Word', 'DEFAULT_DIMENSION_CAP', 'classify', 'build_overlap_graph'); "
            "[getattr(fibocube, n) for n in names]; before = 'numpy' in sys.modules; "
            "fibocube.build_graph; print(json.dumps([before, 'numpy' in sys.modules]))"
        )
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout) == [False, True]
