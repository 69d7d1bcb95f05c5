"""What the benchmark harness in ``perfbench/`` needs from the package.

The tracer wraps functions it looks up by module and name, right after
``import topicflow.cli`` (so ``cli`` must import every traced module);
the start-up probe imports ``load_classification`` from
``topicflow.cli``, and the runner passes ``--threads`` to every
subcommand. These tests only read and run ``perfbench/``; a rename,
deletion or lazy import that would break a benchmark run fails here first.
"""
from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from topicflow.cli import _build_parser, main

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


def test_tracer_runs_ingest_flows_and_viz(tmp_path):
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    assert main([
        "synth", "--out", str(corpus), "--authors", "30", "--topics", "8", "--areas", "3",
        "--snapshots", "3", "--seed", "5",
    ]) == 0
    common = [
        "--journal-topics", str(corpus / "journal_topics.tsv"),
        "--topic-areas", str(corpus / "topic_areas.tsv"),
        "--out", str(out), "--end-year", "1924",
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    spans = {}
    for stage, extra in [
        ("ingest", ["--records", str(corpus / "records.tsv")]),
        ("flows", []),
        ("viz", ["--pair", "1910", "1915"]),
    ]:
        spans_path = tmp_path / f"{stage}.json"
        result = subprocess.run(
            [sys.executable, str(TRACER_PATH), str(spans_path), stage, *common, *extra],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, result.stderr
        spans[stage] = {span["name"] for span in json.loads(spans_path.read_text())["spans"]}
    assert "cli.cmd_ingest" in spans["ingest"]
    # Transition counting runs inside build_flow_networks, so its span is timed.
    assert {"cli.cmd_flows", "flows.build_flow_networks"} <= spans["flows"]
    assert {"cli.cmd_viz", "bundleviz.render_svg"} <= spans["viz"]
