"""The package namespace: each public name is imported from its module on
first use (PEP 562), so ``import topicflow`` alone loads no stage."""
from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import topicflow

SRC = str(Path(topicflow.__file__).resolve().parents[1])


@pytest.mark.parametrize("name", topicflow.__all__)
def test_exported_name_is_the_defining_modules_object(name):
    value = getattr(topicflow, name)
    assert getattr(importlib.import_module(value.__module__), name) is value


def test_star_import_binds_exactly_all():
    namespace: dict[str, object] = {}
    exec("from topicflow import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(topicflow.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'route_cross_edge'"):
        topicflow.route_cross_edge  # noqa: B018 - moved into the tests
    assert not hasattr(topicflow, "no_such_name")


def test_dir_lists_every_name_before_any_is_loaded():
    code = (
        "import sys, topicflow; "
        "print(set(topicflow.__all__) <= set(dir(topicflow)), "
        "sorted(m for m in sys.modules if m.startswith('topicflow.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert result.stdout.strip() == "True []"


_DYNAMIC = ("exec", "eval", "compile")


def _dynamic_code_calls(tree):
    """Lines that call the builtin ``exec``, ``eval`` or ``compile``, by name
    or as an attribute of ``builtins`` (``re.compile`` is not one of them)."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in _DYNAMIC or (
            isinstance(func, ast.Attribute) and func.attr in _DYNAMIC
            and isinstance(func.value, ast.Name) and func.value.id == "builtins"
        ):
            found.append(node.lineno)
    return found


def test_no_module_generates_code_at_run_time():
    # Every line that runs is source a reader can review, such as the spline kernel.
    package = Path(topicflow.__file__).parent
    offenders = {}
    for module in sorted(package.glob("*.py")):
        lines = _dynamic_code_calls(ast.parse(module.read_text(encoding="utf-8")))
        if lines:
            offenders[module.name] = lines
    assert offenders == {}
    assert _dynamic_code_calls(ast.parse("exec(t)\nre.compile(p)\nbuiltins.eval(t)")) == [1, 3]
