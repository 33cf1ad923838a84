"""The package namespace: error types at import, every other name on first use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skewring


def test_lazy_names_are_their_submodules_objects():
    for name, module in skewring._MODULE_OF.items():
        assert getattr(skewring, name) is getattr(
            importlib.import_module(f"skewring.{module}"), name
        )


def test_star_import_binds_all():
    namespace = {}
    exec("from skewring import *", namespace)
    assert set(skewring.__all__) <= set(namespace)
    assert namespace["gaussian"] is importlib.import_module("skewring.rings").gaussian


def test_dir_lists_all():
    assert set(skewring.__all__) <= set(dir(skewring))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        skewring.no_such_name  # noqa: B018


def test_import_loads_only_errors():
    code = ("import json, sys, skewring; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('skewring'))))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out) == ["skewring", "skewring.errors"]


def test_readme_library_tour_runs():
    """The README's python block runs, and its canonical-text comments are what the lines give."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    checked = set()
    for line in block.splitlines():
        code, _, comment = (part.strip() for part in line.partition("#"))
        if code in ("(e[1] + e[2]).inverse()", "series.series_invert(s)"):
            assert repr(eval(code, namespace)) == comment.removeprefix("exact: ")
            checked.add(code)
    assert len(checked) == 2
