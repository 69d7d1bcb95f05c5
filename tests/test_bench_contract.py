"""What the benchmark harness in ``perfbench/`` needs from the package.

The tracer wraps functions it looks up by module and name, the start-up
probe imports ``load_classification`` from ``topicflow.cli``, and the
runner passes ``--threads`` to every subcommand. These tests only read
``perfbench/``; a rename or deletion that would break a benchmark run
fails here first.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from topicflow.cli import _build_parser

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines the tables; install() is not called
    return tracer


def _traced_names():
    tracer = _load_tracer()
    names = [(module, name) for module, names in tracer.SPANNED.items() for name in names]
    names += list(tracer.AGGREGATED)
    names += list(tracer.GENERATORS)
    return names


@pytest.mark.parametrize("module,name", _traced_names())
def test_every_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))


def test_setup_probe_import():
    from topicflow.cli import load_classification

    assert callable(load_classification)


def _subcommands():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    return sorted(sub.choices)


@pytest.mark.parametrize("command", _subcommands())
def test_every_subcommand_accepts_threads(command):
    extra = ["--pair", "1910", "1915"] if command == "viz" else []
    args = _build_parser().parse_args([command, "--threads", "2", *extra])
    assert args.threads == 2
