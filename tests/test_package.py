"""The package namespace: each public name is imported from its module on
first use (PEP 562), so ``import topicflow`` alone loads no stage."""
from __future__ import annotations

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
