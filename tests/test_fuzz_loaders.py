"""Every loader, fed one mutated line, ends in a clean exit.

A small synthetic corpus and the ``report`` tree built from it are the base
inputs. Each example changes one line of one input (a run of it replaced,
a token inserted, the line cut short, or the line written twice) and runs
the command that reads that input through ``cli.main``, in process. Whatever
the line holds, the run exits 0, 1 or 2, never 3; a failing run prints one
``topicflow: error:`` line; and a run that succeeds writes no ``inf`` or
``nan`` where its outputs hold numbers. A mutated records TSV or NDJSON
file is also read a few bytes at a time, which must give the same exit,
error line and output tree as the default block size. A line longer than
``util.LINE_BYTES`` in any input exits 2 and names its line.
"""
from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from topicflow import util
from topicflow.cli import main

from conftest import write_lines

END_YEAR = "1924"

# Separators, comment and JSON openers, a JSON lone-surrogate escape,
# whitespace that str.split() splits on besides tab and newline, and numbers
# at or past the edges of what int and float read.
TOKENS = (
    "\t", "\n", "=", ",", ":", "#", "{", "\\ud800", "\x0b", "\xa0", "\x85", " ",
    "1e400", "1e308", "5e-324", "-1", "1_0", " 1910", "1" * 30,
)
# A run of the line that a substitution replaces: text between separators.
_RUN = re.compile(r'[^\t=,:{}" ]+')

CONFIG_LINES = [
    "start_year=1910", f"end_year={END_YEAR}", "width=5", "max_papers_per_year=17",
    "cut_scope=classified", "level=both", "baseline_policy=smooth:0.5",
    "appearing_weight=unit", "area_mode=mapped", "min_weight=0", "threads=1",
]
VIZ_CONFIG_LINES = [
    "canvas_size=400", "radius_frac=0.36", "sector_order=strength", "min_weight=1",
    "node_radius_max=9", "font_size=9", "show_labels=true", "a00=#112233",
]

# Every output column that holds a number, by its header name.
NUMERIC = {
    "from_snapshot", "to_snapshot", "weight", "snapshot", "count", "delta", "pairs_used",
    "iota", "epsilon", "rho", "sigma", "median_rho", "median_sigma", "n_areas",
    "author_count", "author_volume", "q99_cutoff",
}
# Each input: its file, whether it lives in the corpus or in the report tree,
# and the command that reads it ("viz LEVEL FROM TO" for a diagram).
TARGETS = {
    "records_tsv": ("records.tsv", "corpus", "report"),
    "records_ndjson": ("records.ndjson", "corpus", "report"),
    "journal_topics": ("journal_topics.tsv", "corpus", "report"),
    "topic_areas": ("topic_areas.tsv", "corpus", "report"),
    "config": ("run.cfg", "corpus", "report"),
    "profiles": ("profiles.tsv", "tree", "flows"),
    "topic_flows_metrics": ("flows_topic_1910_1915.tsv", "tree", "metrics"),
    "topic_flows_viz": ("flows_topic_1910_1915.tsv", "tree", "viz topic 1910 1915"),
    "area_flows_viz": ("flows_area_1915_1920.tsv", "tree", "viz area 1915 1920"),
    "viz_config": ("viz.cfg", "corpus", "viz topic 1915 1920"),
}


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    corpus = root / "corpus"
    assert _run([
        "synth", "--out", str(corpus), "--seed", "4", "--authors", "25", "--topics", "6",
        "--areas", "3", "--snapshots", "3", "--end-year", END_YEAR,
    ])[0] == 0
    records = []
    for line in (corpus / "records.tsv").read_text(encoding="utf-8").splitlines()[1:]:
        author, paper, journal, year = line.split("\t")
        records.append(json.dumps(
            {"author_id": author, "paper_id": paper, "journal_id": journal, "year": int(year)}
        ))
    write_lines(corpus / "records.ndjson", records)
    write_lines(corpus / "run.cfg", CONFIG_LINES)
    write_lines(corpus / "viz.cfg", VIZ_CONFIG_LINES)
    assert _run(["report", *_inputs(corpus, "records.tsv"), "--out", str(root / "tree"),
                 "--config", str(corpus / "run.cfg")])[0] == 0
    return root


def _inputs(corpus: Path, records: str) -> list[str]:
    return [
        "--records", str(corpus / records),
        "--journal-topics", str(corpus / "journal_topics.tsv"),
        "--topic-areas", str(corpus / "topic_areas.tsv"),
    ]


def _mutate(line: str, data) -> list[str]:
    """The lines that replace ``line``: one, or two when it is duplicated or split."""
    op = data.draw(st.sampled_from(["substitute", "insert", "truncate", "duplicate"]))
    if op == "duplicate":
        return [line, line]
    if op == "truncate":
        return [line[: data.draw(st.integers(0, max(0, len(line) - 1)))]]
    token = data.draw(st.sampled_from(TOKENS))
    runs = [m.span() for m in _RUN.finditer(line)]
    if op == "substitute" and runs:
        start, end = data.draw(st.sampled_from(runs))
    else:
        start = end = data.draw(st.integers(0, len(line)))
    return (line[:start] + token + line[end:]).split("\n")


def _check_outputs(out: Path, mutated: str) -> None:
    """Every output in ``out`` but the mutated input holds finite numbers."""
    for path in out.glob("*.tsv"):
        if path.name == mutated:
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        columns = [i for i, name in enumerate(lines[0].lstrip("#").split("\t")) if name in NUMERIC]
        for line in lines[1:]:
            fields = line.split("\t")
            for i in columns:
                Fraction(fields[i])  # refuses inf and nan
    for path in out.glob("*.json"):
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse)
    for path in out.glob("*.svg"):
        attributes = re.findall(r'="([^"]*)"', path.read_text(encoding="utf-8"))
        assert not [a for a in attributes if re.search("inf|nan", a, re.IGNORECASE)], path


def _refuse(constant: str):
    raise AssertionError(f"non-finite JSON number {constant}")


@pytest.mark.parametrize("target", sorted(TARGETS))
@settings(
    max_examples=60, derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_one_mutated_line_never_exits_three(base, target, data):
    name, home, command = TARGETS[target]
    lines = (base / home / name).read_text(encoding="utf-8").split("\n")[:-1]
    at = data.draw(st.integers(0, len(lines) - 1))
    lines[at : at + 1] = _mutate(lines[at], data)
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        corpus, out = scratch / "corpus", scratch / "out"
        kind, *level_pair = command.split()
        shutil.copytree(base / "corpus", corpus)
        if kind != "report":
            shutil.copytree(base / "tree", out)
        write_lines((corpus if home == "corpus" else out) / name, lines)
        argv = [kind, *_inputs(corpus, name if name.startswith("records") else "records.tsv"),
                "--out", str(out), "--config", str(corpus / "run.cfg")]
        if kind == "viz":
            argv += ["--level", level_pair[0], "--pair", *level_pair[1:],
                     "--viz-config", str(corpus / "viz.cfg")]
        code, err = _run(argv)
        assert code in (0, 1, 2), err
        if code:
            assert err.startswith("topicflow: error: ") and err.count("\n") == 1, err
        else:
            _check_outputs(out, name)


@settings(
    max_examples=60, derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_mutated_records_read_the_same_a_few_bytes_at_a_time(base, data):
    lines = (base / "corpus" / "records.tsv").read_text(encoding="utf-8").split("\n")[:-1]
    at = data.draw(st.integers(0, len(lines) - 1))
    lines[at : at + 1] = _mutate(lines[at], data)
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        corpus = scratch / "corpus"
        shutil.copytree(base / "corpus", corpus)
        write_lines(corpus / "records.tsv", lines)
        runs = []
        for size in (util.BLOCK_BYTES, 7):
            out = scratch / f"out{size}"
            with mock.patch.object(util, "BLOCK_BYTES", size):
                code, err = _run(["report", *_inputs(corpus, "records.tsv"), "--out", str(out),
                                  "--config", str(corpus / "run.cfg")])
            tree = {p.name: p.read_bytes() for p in sorted(out.glob("*"))} if code == 0 else {}
            runs.append((code, err, tree))
        assert runs[0] == runs[1]


@settings(
    max_examples=60, derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_mutated_ndjson_records_read_the_same_a_few_bytes_at_a_time(base, data):
    lines = (base / "corpus" / "records.ndjson").read_text(encoding="utf-8").split("\n")[:-1]
    at = data.draw(st.integers(0, len(lines) - 1))
    lines[at : at + 1] = _mutate(lines[at], data)
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        corpus = scratch / "corpus"
        shutil.copytree(base / "corpus", corpus)
        write_lines(corpus / "records.ndjson", lines)
        runs = []
        for size in (util.BLOCK_BYTES, 7):
            out = scratch / f"out{size}"
            with mock.patch.object(util, "BLOCK_BYTES", size):
                code, err = _run(["report", *_inputs(corpus, "records.ndjson"), "--out", str(out),
                                  "--config", str(corpus / "run.cfg")])
            tree = {p.name: p.read_bytes() for p in sorted(out.glob("*"))} if code == 0 else {}
            runs.append((code, err, tree))
        assert runs[0] == runs[1]


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_a_line_over_the_bound_exits_two_naming_it(base, tmp_path, target):
    name, home, command = TARGETS[target]
    lines = (base / home / name).read_text(encoding="utf-8").split("\n")[:-1]
    lines.insert(2, "x" * (util.LINE_BYTES + 1))
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    kind, *level_pair = command.split()
    shutil.copytree(base / "corpus", corpus)
    if kind != "report":
        shutil.copytree(base / "tree", out)
    path = write_lines((corpus if home == "corpus" else out) / name, lines)
    argv = [kind, *_inputs(corpus, name if name.startswith("records") else "records.tsv"),
            "--out", str(out), "--config", str(corpus / "run.cfg")]
    if kind == "viz":
        argv += ["--level", level_pair[0], "--pair", *level_pair[1:],
                 "--viz-config", str(corpus / "viz.cfg")]
    assert _run(argv) == (
        2, f"topicflow: error: {path}:3: line longer than {util.LINE_BYTES} bytes\n"
    )
