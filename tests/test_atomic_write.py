"""Every artifact is replaced in one step, through ``util.write_text_atomic``."""
from __future__ import annotations

import ast
import os
from pathlib import Path

import pytest

import topicflow
from topicflow import FlowNetwork, write_flow_network


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
