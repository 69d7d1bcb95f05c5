"""Every artifact is replaced in one step, through ``util.write_text_atomic``,
also when its text comes as a stream of chunks."""
from __future__ import annotations

import ast
import os
from pathlib import Path

import pytest

import topicflow
import topicflow.util as util_module
from topicflow.cli import PROFILE_HEADER, write_profiles
from topicflow.flows import FLOW_HEADER, FlowNetwork, write_flow_network
from topicflow.ingest import ActivityProfile
from topicflow.util import write_text_atomic, write_tsv


def _net(weights):
    return FlowNetwork(level="topic", from_snapshot=1910, to_snapshot=1915, weights=weights)


@pytest.fixture
def previous(tmp_path):
    path = tmp_path / "flows_topic_1910_1915.tsv"
    write_flow_network(_net({("A", "B"): 2, ("B", "B"): 1}), path)
    return path, path.read_bytes()


def _siblings(path):
    return sorted(p.name for p in path.parent.iterdir() if p != path)


def test_failed_write_keeps_previous_file(previous):
    path, before = previous
    # a lone surrogate cannot be encoded as UTF-8, so the write itself fails
    with pytest.raises(UnicodeEncodeError):
        write_flow_network(_net({("\ud800", "B"): 1}), path)
    assert path.read_bytes() == before
    assert _siblings(path) == []


def test_failed_replace_keeps_previous_file(previous, monkeypatch):
    path, before = previous

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        write_flow_network(_net({("C", "D"): 5}), path)
    assert path.read_bytes() == before
    assert _siblings(path) == []


def _write_mode_opens(tree):
    """Calls that open a file for writing: ``open`` or ``.open`` with a
    w/a/x/+ mode, and ``.write_text`` / ``.write_bytes``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes"):
            found.append(node.lineno)
        if name != "open":
            continue
        modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
        position = 1 if isinstance(func, ast.Name) else 0
        if len(node.args) > position:
            modes.append(node.args[position])
        for mode in modes:
            if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
                found.append(node.lineno)
    return found


def test_only_util_opens_files_for_writing():
    package = Path(topicflow.__file__).parent
    offenders = {}
    for module in sorted(package.glob("*.py")):
        lines = _write_mode_opens(ast.parse(module.read_text(encoding="utf-8")))
        if lines and module.name != "util.py":
            offenders[module.name] = lines
    assert offenders == {}
    assert _write_mode_opens(ast.parse((package / "util.py").read_text(encoding="utf-8")))


def _opens(tree):
    """Lines of every call to ``open`` or to an ``.open`` method, in any mode."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "open" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_only_util_opens_files():
    package = Path(topicflow.__file__).parent
    offenders = {}
    for module in sorted(package.glob("*.py")):
        lines = _opens(ast.parse(module.read_text(encoding="utf-8")))
        if lines and module.name != "util.py":
            offenders[module.name] = lines
    assert offenders == {}
    assert _opens(ast.parse((package / "util.py").read_text(encoding="utf-8")))


def test_failed_chunk_source_keeps_previous_file(previous):
    path, before = previous

    def chunks():
        yield "#from_snapshot\tto_snapshot\tsource\ttarget\tweight\n"
        yield "1910\t1915\tA\tB\t9\n"
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        write_text_atomic(path, chunks())
    assert path.read_bytes() == before
    assert _siblings(path) == []


def test_chunks_are_written_in_order(tmp_path):
    path = tmp_path / "out.tsv"
    write_text_atomic(path, iter(["a\t1\n", "", "b\t2\nc\t3\n"]))
    assert path.read_bytes() == b"a\t1\nb\t2\nc\t3\n"
    assert _siblings(path) == []


class _Unsplittable(str):
    def __iter__(self):
        raise AssertionError("a text was split into characters")


def test_a_text_is_written_as_one_chunk(tmp_path):
    path = tmp_path / "out.json"
    write_text_atomic(path, _Unsplittable('{"a": 1}\n'))
    assert path.read_bytes() == b'{"a": 1}\n'


@pytest.mark.parametrize("block_rows", [1, 2, 3, 4096])
def test_writers_are_byte_stable_across_block_boundaries(tmp_path, monkeypatch, block_rows):
    weights = {(f"T{i}", f"T{(i * 7) % 5}"): i + 1 for i in range(5)}
    profiles = [
        ActivityProfile("a", 1910, {"T2": 1, "T1": 3}),
        ActivityProfile("a", 1915, {"T1": 1}),
        ActivityProfile("b", 1910, {"T3": 2, "T1": 1, "T2": 4}),
    ]
    monkeypatch.setattr(util_module, "BLOCK_ROWS", block_rows)
    write_flow_network(_net(weights), tmp_path / "flows.tsv")
    assert write_profiles(iter(profiles), tmp_path / "profiles.tsv") == 3
    assert (tmp_path / "flows.tsv").read_text() == "".join(
        [f"{FLOW_HEADER}\n"]
        + [f"1910\t1915\t{s}\t{t}\t{w}\n" for (s, t), w in sorted(weights.items())]
    )
    assert (tmp_path / "profiles.tsv").read_text() == (
        f"{PROFILE_HEADER}\na\t1910\tT1\t3\na\t1910\tT2\t1\na\t1915\tT1\t1\n"
        "b\t1910\tT1\t1\nb\t1910\tT2\t4\nb\t1910\tT3\t2\n"
    )


@pytest.mark.parametrize("rows, block_rows", [(0, 3), (2, 3), (3, 3), (7, 3), (5, 1)])
def test_write_tsv_hands_over_block_rows_rows_per_chunk(
    tmp_path, monkeypatch, rows, block_rows
):
    chunks = []

    def record(path, blocks):
        chunks.extend(blocks)
        write_text_atomic(path, chunks)

    monkeypatch.setattr(util_module, "BLOCK_ROWS", block_rows)
    monkeypatch.setattr(util_module, "write_text_atomic", record)
    path = tmp_path / "out.tsv"
    write_tsv(path, ["#a", "#b"], (f"r{i}" for i in range(rows)))
    lines = ["#a", "#b", *(f"r{i}" for i in range(rows))]
    assert path.read_text() == "".join(f"{line}\n" for line in lines)
    # Rows per block: BLOCK_ROWS, the last one at most that; the first block also holds the head.
    rows_per_block = [chunk.count("\n") for chunk in chunks]
    rows_per_block[0] -= 2
    assert rows_per_block[:-1] == [block_rows] * (len(chunks) - 1)
    assert rows_per_block[-1] <= block_rows
