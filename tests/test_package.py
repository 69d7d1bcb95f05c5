"""The package holds no names: each public name is imported from the module
that defines it, so ``import topicflow`` alone loads no stage."""
from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import topicflow
from topicflow.cli import main

SRC = str(Path(topicflow.__file__).resolve().parents[1])

# The library's public names, by the module that defines them.
_PUBLIC = {
    "bundleviz": ("VizConfig", "layout", "render_svg"),
    "classification": (
        "ActivityProfile", "ClassificationTable", "SnapshotGrid", "ZeroBaselinePolicy",
        "load_classification",
    ),
    "flows": (
        "FlowNetwork", "build_flow_networks", "count_transitions", "dominant_topics",
        "flow_networks_from_profiles", "load_flow_network", "write_flow_network",
    ),
    "ingest": ("IngestStats", "compute_yearly_paper_quantile", "ingest_records"),
    "metrics": (
        "MigrationIndices", "attractiveness_table",
        "median_sink_source", "migration_index_series", "migration_indices",
        "most_attractive_topics", "multidisciplinarity",
    ),
    "synth": ("SyntheticSpec", "generate_corpus"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}


@pytest.mark.parametrize("name", sorted(_MODULE_OF))
def test_exported_name_is_the_defining_modules_object(name):
    module = f"topicflow.{_MODULE_OF[name]}"
    assert getattr(importlib.import_module(module), name).__module__ == module
    assert not hasattr(topicflow, name)  # the package re-exports nothing


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    for node in ast.walk(ast.parse(block)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):  # each name from its own module
            assert isinstance(node, ast.ImportFrom) and node.module.startswith("topicflow.")
            module = importlib.import_module(node.module)
            assert all(getattr(module, a.name).__module__ == node.module for a in node.names)
    assert main(["synth", "--authors", "40", "--out", str(tmp_path)]) == 0
    corpus = [f"--{name}={tmp_path / name.replace('-', '_')}.tsv"
              for name in ("records", "journal-topics", "topic-areas")]
    assert main(["report", *corpus, "--out", str(tmp_path / "out")]) == 0
    monkeypatch.chdir(tmp_path)  # the example's paths are relative
    namespace: dict[str, object] = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert len(namespace["nets"]) == 20 and len(namespace["both"]) == 40
    stats = namespace["stats"]  # complete: every record read is counted once
    assert stats.records_kept > 0 and stats.records_read == sum(
        getattr(stats, name) for name in (
            "records_kept", "dropped_year", "dropped_unclassified", "excluded_by_cut",
            "duplicates_collapsed",
        )
    )
    assert "<svg" in namespace["svg"]


def test_unknown_attribute_raises_attribute_error():
    for moved in ("route_cross_edge", "route_intra_edge"):  # both now live in the tests
        with pytest.raises(AttributeError, match=f"has no attribute '{moved}'"):
            getattr(topicflow, moved)
    assert not hasattr(topicflow, "no_such_name")


def test_import_topicflow_loads_no_stage_module():
    code = (
        "import sys, topicflow; "
        "print([n for n in dir(topicflow) if not n.startswith('_')], "
        "sorted(m for m in sys.modules if m.startswith('topicflow.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert result.stdout.strip() == "[] []"


# Run as ``python -m topicflow.cli``, then print the stage modules that were executed:
# one registered lazily and never used is still a ``LazyLoader`` module, not a ModuleType.
_RUN_CLI = """
import runpy, sys, types
try:
    runpy.run_module("topicflow.cli", run_name="__main__", alter_sys=True)
except SystemExit as done:
    assert done.code == 0, done.code
"""
_EXECUTED = """
print(sorted(name for name in ("bundleviz", "flows", "ingest", "metrics")
             if type(sys.modules.get("topicflow." + name)) is types.ModuleType))
"""


def _fresh(code, *argv):
    result = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--out", str(corpus), "--authors", "30", "--topics", "8",
                 "--areas", "3", "--snapshots", "3", "--seed", "5"]) == 0
    return [f"--{name}={corpus / name.replace('-', '_')}.tsv"
            for name in ("records", "journal-topics", "topic-areas")] + ["--end-year=1924"]


def test_each_subcommand_executes_only_the_stages_it_runs(corpus, tmp_path):
    probe = "import sys, types\nfrom topicflow.cli import load_classification\n"
    assert _fresh(probe + _EXECUTED) == "[]"  # the benchmark's set-up probe
    args = [*corpus, f"--out={tmp_path}"]
    for argv, executed in [
        (["ingest"], ["ingest"]),
        (["flows"], ["flows"]),
        (["metrics"], ["flows", "metrics"]),
        (["viz", "--pair", "1910", "1915"], ["bundleviz", "flows"]),
        (["report"], ["bundleviz", "flows", "ingest", "metrics"]),
    ]:
        assert _fresh(_RUN_CLI + _EXECUTED, *argv, *args) == repr(executed), argv


def test_a_stage_imported_before_cli_is_the_one_cli_uses(corpus, tmp_path):
    code = (
        "import sys, topicflow.ingest as a, topicflow.cli as cli\n"
        "assert sys.modules['topicflow.ingest'] is a and cli.ingest is a\n"
        "cfg = cli._resolve_config(cli._build_parser().parse_args(['ingest', *sys.argv[1:]]))\n"
        "print(type(cli._start_ingest(cfg)[3]) is a.IngestStats)"
    )
    assert _fresh(code, *corpus, f"--out={tmp_path}") == "True"


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


def test_no_source_line_is_over_100_characters():
    # A line budget is met by removing code, never by joining lines.
    package = Path(topicflow.__file__).parent
    long_lines = [
        f"{module.name}:{lineno}"
        for module in sorted(package.glob("*.py"))
        for lineno, line in enumerate(module.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert long_lines == []


# Raised at one site, a problem uses one of these itself (see the errors module).
_ERROR_BASES = {"PipelineError", "UsageError", "InvariantViolation"}


def test_every_other_error_class_is_raised_at_two_or_more_sites():
    package = Path(topicflow.__file__).parent
    errors = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    sites = dict.fromkeys(classes - _ERROR_BASES, 0)
    for module in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                if isinstance(func, ast.Name) and func.id in sites:
                    sites[func.id] += 1
    assert sites and {name: n for name, n in sites.items() if n < 2} == {}
