from __future__ import annotations

import importlib.util
import inspect
import json
import os
import random
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import topicflow
import topicflow.cli as cli_module
from topicflow.cli import _SETTINGS, PipelineConfig, _build_parser, _resolve_config, main
from topicflow.errors import MalformedLine
from topicflow.util import iter_lines
from conftest import write_lines


CLASSIFICATION = {
    "journal_topics.tsv": ["J1\tT1", "J1\tT2", "J2\tT2", "J3\tT3"],
    "topic_areas.tsv": ["T1\tA1", "T2\tA2", "T3\tA1"],
}


def setup_inputs(tmp_path, records):
    paths = {}
    for name, lines in CLASSIFICATION.items():
        paths[name] = write_lines(tmp_path / name, lines)
    paths["records.tsv"] = write_lines(
        tmp_path / "records.tsv", [f"{a}\t{p}\t{j}\t{y}" for a, p, j, y in records]
    )
    return paths


def base_args(tmp_path, out):
    return [
        "--records", str(tmp_path / "records.tsv"),
        "--journal-topics", str(tmp_path / "journal_topics.tsv"),
        "--topic-areas", str(tmp_path / "topic_areas.tsv"),
        "--out", str(out),
    ]


def data_lines(path):
    return [
        line
        for line in path.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]


def test_ingest_minimal_fixture_three_profile_lines(tmp_path):
    setup_inputs(
        tmp_path,
        [("x", "p1", "J2", 1911), ("y", "p2", "J2", 1912), ("z", "p3", "J3", 1916)],
    )
    out = tmp_path / "out"
    assert main(["ingest", *base_args(tmp_path, out)]) == 0
    assert len(data_lines(out / "profiles.tsv")) == 3
    stats = json.loads((out / "ingest_stats.json").read_text())
    assert stats["records_read"] == 3
    assert stats["records_kept"] == 3


def test_ingest_empty_records(tmp_path):
    setup_inputs(tmp_path, [])
    write_lines(tmp_path / "records.tsv", ["# nothing here"])
    out = tmp_path / "out"
    assert main(["ingest", *base_args(tmp_path, out)]) == 0
    assert data_lines(out / "profiles.tsv") == []
    stats = json.loads((out / "ingest_stats.json").read_text())
    assert stats == {
        "records_read": 0,
        "records_kept": 0,
        "dropped_unclassified": 0,
        "dropped_year": 0,
        "authors_excluded": 0,
        "excluded_by_cut": 0,
        "duplicates_collapsed": 0,
    }


def test_ingest_exclusion_reported(tmp_path):
    rows = [("x", f"p{i}", "J2", 1911) for i in range(18)]
    rows.append(("y", "q", "J2", 1911))
    setup_inputs(tmp_path, rows)
    out = tmp_path / "out"
    assert main(["ingest", *base_args(tmp_path, out)]) == 0
    stats = json.loads((out / "ingest_stats.json").read_text())
    assert stats["authors_excluded"] == 1
    authors = {line.split("\t")[0] for line in data_lines(out / "profiles.tsv")}
    assert authors == {"y"}


def test_ingest_threshold_zero_retains(tmp_path):
    rows = [("x", f"p{i}", "J2", 1911) for i in range(18)]
    setup_inputs(tmp_path, rows)
    out = tmp_path / "out"
    assert main(["ingest", *base_args(tmp_path, out), "--max-papers-per-year", "0"]) == 0
    authors = {line.split("\t")[0] for line in data_lines(out / "profiles.tsv")}
    assert authors == {"x"}


def test_flows_two_snapshot_grid_single_file(tmp_path):
    setup_inputs(tmp_path, [("x", "p1", "J2", 1911), ("x", "p2", "J2", 1916)])
    out = tmp_path / "out"
    args = base_args(tmp_path, out) + ["--start-year", "1910", "--end-year", "1919", "--level", "topic"]
    assert main(["ingest", *args]) == 0
    assert main(["flows", *args]) == 0
    files = sorted(p.name for p in out.glob("flows_*.tsv"))
    assert files == ["flows_topic_1910_1915.tsv"]
    assert data_lines(out / "flows_topic_1910_1915.tsv") == ["1910\t1915\tT2\tT2\t1"]


def test_flows_disjoint_authors_header_only(tmp_path):
    setup_inputs(tmp_path, [("x", "p1", "J2", 1911), ("y", "p2", "J2", 1916)])
    out = tmp_path / "out"
    args = base_args(tmp_path, out) + ["--start-year", "1910", "--end-year", "1919", "--level", "topic"]
    assert main(["ingest", *args]) == 0
    assert main(["flows", *args]) == 0
    assert data_lines(out / "flows_topic_1910_1915.tsv") == []


def test_default_grid_yields_twenty_network_files(tmp_path):
    setup_inputs(tmp_path, [("x", "p1", "J2", 1911), ("x", "p2", "J2", 2013)])
    out = tmp_path / "out"
    args = base_args(tmp_path, out) + ["--level", "topic"]
    assert main(["ingest", *args]) == 0
    assert main(["flows", *args]) == 0
    assert len(list(out.glob("flows_topic_*.tsv"))) == 20


def test_metrics_empty_flows_give_empty_files(tmp_path):
    setup_inputs(tmp_path, [("x", "p1", "J2", 1911)])
    out = tmp_path / "out"
    args = base_args(tmp_path, out) + ["--start-year", "1910", "--end-year", "1919"]
    assert main(["ingest", *args]) == 0
    assert main(["flows", *args]) == 0
    assert main(["metrics", *args]) == 0
    assert data_lines(out / "delta_topic.tsv") == []
    assert data_lines(out / "indices_area.tsv") == []
    assert data_lines(out / "medians_area.tsv") == []
    assert len(data_lines(out / "multidisciplinarity.tsv")) == 1


def test_metrics_delta_reports_pairs_used(tmp_path):
    # x: T2 steady; zero-baseline pair appears for T3 in the second transition
    rows = [
        ("x", "p1", "J2", 1911), ("x", "p2", "J2", 1916), ("x", "p3", "J2", 1921),
        ("y", "p4", "J2", 1916), ("y", "p5", "J3", 1921),
    ]
    setup_inputs(tmp_path, rows)
    out = tmp_path / "out"
    args = base_args(tmp_path, out) + ["--start-year", "1910", "--end-year", "1924"]
    for command in ("ingest", "flows", "metrics"):
        assert main([command, *args]) == 0
    rows = {
        tuple(line.split("\t"))[:2]: line.split("\t")[2:]
        for line in data_lines(out / "delta_topic.tsv")
    }
    # T3 gains flow from a zero baseline: delta 0 under strict, pairs_used 0
    assert rows[("1920", "T3")] == ["0", "0"]


def test_viz_deterministic_and_checks_input(tmp_path, capsys):
    setup_inputs(
        tmp_path,
        [
            ("x", "p1", "J1", 1911), ("x", "p2", "J3", 1916),
            ("y", "p3", "J2", 1911), ("y", "p4", "J2", 1916),
        ],
    )
    out = tmp_path / "out"
    args = base_args(tmp_path, out) + [
        "--start-year", "1910", "--end-year", "1919", "--level", "topic",
    ]
    assert main(["ingest", *args]) == 0
    assert main(["flows", *args]) == 0
    assert main(["viz", *args, "--pair", "1910", "1915"]) == 0
    first = (out / "viz_topic_1910_1915.svg").read_bytes()
    assert main(["viz", *args, "--pair", "1910", "1915"]) == 0
    assert (out / "viz_topic_1910_1915.svg").read_bytes() == first
    # a pair off the grid is a usage error, named as such
    assert main(["viz", *args, "--pair", "1915", "1920"]) == 1
    assert "--pair 1915 1920 is not a consecutive pair" in capsys.readouterr().err
    # an on-grid pair whose network file is missing
    (out / "flows_topic_1910_1915.tsv").unlink()
    assert main(["viz", *args, "--pair", "1910", "1915"]) == 2
    assert "network file not found" in capsys.readouterr().err


def test_exit_codes(tmp_path):
    out = tmp_path / "out"
    # usage: unknown flag
    assert main(["flows", "--bogus"]) == 1
    # usage: missing required inputs
    assert main(["ingest", "--out", str(out)]) == 1
    # input format: malformed record
    setup_inputs(tmp_path, [])
    write_lines(tmp_path / "records.tsv", ["only\ttwo"])
    assert main(["ingest", *base_args(tmp_path, out)]) == 2
    # missing input file
    args = base_args(tmp_path, out)
    args[1] = str(tmp_path / "absent.tsv")
    assert main(["ingest", *args]) == 2


def test_config_file_defaults_and_flag_override(tmp_path):
    setup_inputs(tmp_path, [("x", "p1", "J2", 1911), ("x", "p2", "J2", 1916)])
    out = tmp_path / "out"
    config = write_lines(
        tmp_path / "pipeline.cfg",
        [
            f"records={tmp_path / 'records.tsv'}",
            f"journal-topics={tmp_path / 'journal_topics.tsv'}",
            f"topic_areas={tmp_path / 'topic_areas.tsv'}",
            f"out_dir={out}",
            "start_year=1910",
            "end_year=1919",
            "level=topic",
        ],
    )
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["flows", "--config", str(config)]) == 0
    assert (out / "flows_topic_1910_1915.tsv").is_file()
    # flag wins over the config file
    out2 = tmp_path / "out2"
    assert main(["ingest", "--config", str(config), "--out", str(out2)]) == 0
    assert (out2 / "profiles.tsv").is_file()


def test_config_file_unknown_key(tmp_path):
    config = write_lines(tmp_path / "bad.cfg", ["mystery=1"])
    assert main(["ingest", "--config", str(config)]) == 2


def test_config_file_sets_every_field_with_its_annotated_type(tmp_path):
    values = {
        "records": "r.tsv", "journal_topics": "jt.tsv", "topic_areas": "ta.tsv",
        "out_dir": "o", "start_year": "1900", "end_year": "1949", "width": "10",
        "max_papers_per_year": "3", "quantile": "0.5", "cut_scope": "all",
        "level": "topic", "baseline_policy": "smooth:0.5", "appearing_weight": "uniform",
        "area_mode": "argmax", "viz_config": "v.cfg", "min_weight": "2",
        "sector_order": "strength", "canvas_size": "400", "seed": "7", "threads": "2",
    }
    assert set(values) == set(PipelineConfig._fields)
    config = write_lines(tmp_path / "all.cfg", [f"{k}={v}" for k, v in values.items()])
    args = _build_parser().parse_args(["ingest", "--config", str(config)])
    cfg = _resolve_config(args)
    expected_types = {
        "start_year": int, "end_year": int, "width": int, "max_papers_per_year": int,
        "quantile": float, "min_weight": float, "canvas_size": int, "seed": int,
        "threads": int,
    }
    for name, text in values.items():
        kind = expected_types.get(name, str)
        got = getattr(cfg, name)
        assert type(got) is kind, name
        assert got == kind(text)


def _setting_value(name, kind, default, choices):
    """A text the setting takes that differs from its default."""
    if choices:
        return next(choice for choice in choices if choice != default)
    return {"end_year": "1990", "baseline_policy": "smooth:2"}.get(
        name, {int: "12", float: "0.5", str: "given"}[kind]
    )


@pytest.mark.parametrize("name,flag,kind,default,choices", [row[:5] for row in _SETTINGS])
def test_flag_and_config_file_give_the_same_setting(tmp_path, name, flag, kind, default, choices):
    text = _setting_value(name, kind, default, choices)
    config = write_lines(tmp_path / "one.cfg", [f"{name}={text}"])
    from_flag = _resolve_config(_build_parser().parse_args(["ingest", flag, text]))
    from_file = _resolve_config(_build_parser().parse_args(["ingest", "--config", str(config)]))
    assert from_flag == from_file == PipelineConfig(**{name: kind(text)})
    assert getattr(from_file, name) != default


_STAGES = {
    "ingest": [], "flows": [], "metrics": [], "report": [], "synth": [],
    "viz": ["--pair", "1910", "1915"],
}
_BAD_SETTINGS = {
    "zero-width": ["--width", "0"],
    "inverted-grid": ["--start-year", "1990", "--end-year", "1924"],
    "bogus-policy": ["--baseline-policy", "bogus"],
}


@pytest.mark.parametrize("bad", _BAD_SETTINGS)
@pytest.mark.parametrize("command", _STAGES)
def test_bad_grid_or_policy_exits_one_before_out_is_created(tmp_path, command, bad):
    setup_inputs(tmp_path, [("x", "p1", "J2", 1911)])  # every input a stage reads first
    out = tmp_path / "out"
    argv = [command, *base_args(tmp_path, out), *_STAGES[command], *_BAD_SETTINGS[bad]]
    assert main(argv) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", _STAGES)
def test_grid_beyond_the_year_codes_exits_one_before_out_is_created(tmp_path, capsys, command):
    # Years 0-1112062 are one more than ingest has year codes for: no stage takes the grid.
    setup_inputs(tmp_path, [("x", "p1", "J2", 1911)])
    out = tmp_path / "out"
    capsys.readouterr()
    grid = ["--start-year", "0", "--end-year", "1112062"]
    assert main([command, *base_args(tmp_path, out), *_STAGES[command], *grid]) == 1
    message = "topicflow: error: grids span at most 1112062 years, got 1112063"
    assert message in capsys.readouterr().err
    assert not out.exists()


_BAD_CUTS = {
    "quantile-above-one": (["--quantile", "1.5"], "quantile must be in (0, 1), got 1.5"),
    "quantile-nan": (["--quantile", "nan"], "quantile must be in (0, 1), got nan"),
    "negative-cut": (["--max-papers-per-year", "-1"], "max_papers_per_year must be >= 0, got -1"),
}


@pytest.mark.parametrize("bad", _BAD_CUTS)
@pytest.mark.parametrize("command", _STAGES)
def test_bad_cut_exits_one_before_out_is_created(tmp_path, capsys, command, bad):
    setup_inputs(tmp_path, [("x", "p1", "J2", 1911)])
    out = tmp_path / "out"
    flags, message = _BAD_CUTS[bad]
    assert main([command, *base_args(tmp_path, out), *_STAGES[command], *flags]) == 1
    assert f"topicflow: error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_bad_canvas_size_exits_one_before_viz_creates_out(tmp_path, capsys):
    setup_inputs(tmp_path, [("x", "p1", "J2", 1911)])  # and no flow file to draw
    out = tmp_path / "out"
    argv = ["viz", *base_args(tmp_path, out), "--canvas-size", "0", "--pair", "1910", "1915"]
    assert main(argv) == 1
    assert "canvas size must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_off_grid_viz_pair_exits_one_before_out_is_created(tmp_path, capsys):
    setup_inputs(tmp_path, [("x", "p1", "J2", 1911)])
    out = tmp_path / "out"
    assert main(["viz", *base_args(tmp_path, out), "--pair", "1910", "1920"]) == 1
    assert "--pair 1910 1920 is not a consecutive pair of the grid" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_line_without_equals_names_the_line(tmp_path, capsys):
    config = write_lines(tmp_path / "bad.cfg", ["width 5"])
    assert main(["ingest", "--config", str(config)]) == 2
    assert f"{config}:1: expected key=value, got 'width 5'" in capsys.readouterr().err


def test_config_file_bad_value_exits_two(tmp_path, capsys):
    config = write_lines(tmp_path / "bad.cfg", ["width=five"])
    assert main(["ingest", "--config", str(config)]) == 2
    assert f"{config}:1: bad value 'five' for width" in capsys.readouterr().err


def test_quantile_on_empty_records_exits_two(tmp_path, capsys):
    setup_inputs(tmp_path, [])
    records = write_lines(tmp_path / "records.tsv", ["# only a comment"])
    args = base_args(tmp_path, tmp_path / "out")
    assert main(["ingest", *args, "--quantile", "0.5"]) == 2
    assert capsys.readouterr().err == f"topicflow: error: {records}: no records\n"


def test_internal_error_exits_three(tmp_path, monkeypatch):
    setup_inputs(tmp_path, [("x", "p1", "J2", 1911)])
    monkeypatch.setattr(
        "topicflow.ingest.ingest_records",
        lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
    )
    assert main(["ingest", *base_args(tmp_path, tmp_path / "out")]) == 3


def test_quantile_flag_derives_threshold(tmp_path):
    rows = [(f"a{i}", "p", "J2", 1911) for i in range(9)]
    rows += [("big", f"p{i}", "J2", 1911) for i in range(100)]
    setup_inputs(tmp_path, rows)
    out = tmp_path / "out"
    assert main(["ingest", *base_args(tmp_path, out), "--quantile", "0.9"]) == 0
    stats = json.loads((out / "ingest_stats.json").read_text())
    # threshold becomes 1, so 'big' is excluded
    assert stats["authors_excluded"] == 1


def test_report_end_to_end_and_rerun_identical(tmp_path):
    rows = [
        ("x", "p1", "J1", 1911), ("x", "p2", "J3", 1916), ("x", "p3", "J3", 1921),
        ("y", "p4", "J2", 1911), ("y", "p5", "J2", 1916), ("y", "p6", "J1", 1921),
        ("z", "p7", "J3", 1916), ("z", "p8", "J2", 1921),
    ]
    setup_inputs(tmp_path, rows)

    def run(out):
        args = base_args(tmp_path, out) + ["--start-year", "1910", "--end-year", "1924"]
        assert main(["report", *args]) == 0
        return {
            p.name: p.read_bytes()
            for p in sorted(out.iterdir())
            if p.is_file()
        }

    tree_a = run(tmp_path / "out_a")
    tree_b = run(tmp_path / "out_b")
    assert tree_a == tree_b
    report = json.loads(tree_a["report.json"])
    assert report["snapshot_labels"] == [1910, 1915, 1920]
    assert len(report["flow_files"]) == 4  # 2 pairs x 2 levels
    assert "viz_files" in report and len(report["viz_files"]) == 2


def test_report_loads_the_table_and_viz_config_once(tmp_path, monkeypatch):
    setup_inputs(tmp_path, [("x", "p1", "J1", 1911), ("x", "p2", "J3", 1916),
                            ("y", "p3", "J2", 1921)])
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    for module, name in ((cli_module, "load_classification"),
                         (cli_module.bundleviz, "load_viz_config")):
        monkeypatch.setattr(module, name, counted(module, name))
    viz_cfg = write_lines(tmp_path / "viz.cfg", ["canvas_size=400"])
    args = base_args(tmp_path, tmp_path / "out") + ["--end-year", "1924"]
    assert main(["report", *args, "--viz-config", str(viz_cfg)]) == 0
    assert len(list((tmp_path / "out").glob("viz_topic_*.svg"))) == 2
    assert sorted(calls) == ["load_classification", "load_viz_config"]


def test_report_reads_each_flow_file_once(tmp_path, monkeypatch):
    setup_inputs(tmp_path, [("x", "p1", "J1", 1911), ("x", "p2", "J3", 1916),
                            ("y", "p3", "J2", 1921)])
    loaded = []
    original = cli_module.flows.load_flow_network

    def counted(path, **kwargs):
        loaded.append(Path(path).name)
        return original(path, **kwargs)

    monkeypatch.setattr(cli_module.flows, "load_flow_network", counted)
    args = base_args(tmp_path, tmp_path / "out") + ["--end-year", "1924"]
    assert main(["report", *args]) == 0  # three snapshots, --level both
    assert sorted(loaded) == [
        f"flows_{level}_{a}_{b}.tsv"
        for level in ("area", "topic") for a, b in ((1910, 1915), (1915, 1920))
    ]


def test_report_reads_no_profile_list_or_file(tmp_path, monkeypatch):
    setup_inputs(tmp_path, [("x", "p1", "J1", 1911), ("x", "p2", "J3", 1916)])

    walks = []
    original = cli_module.ingest.ingest_records

    def recorded(*args, **kwargs):
        walk, stats = original(*args, **kwargs)
        walks.append(walk)
        return walk, stats

    def refuse(*args, **kwargs):
        raise AssertionError("report must stream the dedupe walk")

    monkeypatch.setattr(cli_module.ingest, "ingest_records", recorded)
    monkeypatch.setattr(cli_module, "load_profiles", refuse)
    args = base_args(tmp_path, tmp_path / "out") + ["--end-year", "1919"]
    assert main(["report", *args]) == 0
    assert (tmp_path / "out" / "report.json").is_file()
    (walk,) = walks  # one generator, read to its end, never a list
    assert inspect.isgenerator(walk) and next(walk, None) is None


def test_viz_config_file_and_min_weight_flag(tmp_path):
    setup_inputs(
        tmp_path,
        [
            ("x", "p1", "J1", 1911), ("x", "p2", "J3", 1916),
            ("y", "p3", "J2", 1911), ("y", "p4", "J2", 1916),
        ],
    )
    out = tmp_path / "out"
    args = base_args(tmp_path, out) + [
        "--start-year", "1910", "--end-year", "1919", "--level", "topic",
    ]
    assert main(["ingest", *args]) == 0
    assert main(["flows", *args]) == 0
    viz_cfg = write_lines(
        tmp_path / "viz.cfg", ["canvas_size=400", "show_labels=false", "A1=#0a0b0c"]
    )
    assert main([
        "viz", *args, "--pair", "1910", "1915", "--viz-config", str(viz_cfg),
        "--min-weight", "99",
    ]) == 0
    svg = (out / "viz_topic_1910_1915.svg").read_text()
    assert 'width="400"' in svg
    assert "#0a0b0c" in svg
    assert "edge-" not in svg  # min-weight flag filtered everything
    assert "<text" not in svg


def test_report_area_level_renders_area_diagrams(tmp_path):
    setup_inputs(
        tmp_path,
        [
            ("x", "p1", "J1", 1911), ("x", "p2", "J3", 1916),
            ("y", "p3", "J2", 1911), ("y", "p4", "J1", 1916),
        ],
    )
    out = tmp_path / "out"
    args = base_args(tmp_path, out) + [
        "--start-year", "1910", "--end-year", "1919", "--level", "area",
    ]
    assert main(["report", *args]) == 0
    assert (out / "viz_area_1910_1915.svg").is_file()
    assert not list(out.glob("flows_topic_*.tsv"))


def test_synth_cli_roundtrip_matches_answers(tmp_path):
    out = tmp_path / "corpus"
    assert main([
        "synth", "--out", str(out), "--authors", "40", "--topics", "8", "--areas", "3",
        "--snapshots", "4", "--mobility", "0.5", "--seed", "11",
    ]) == 0
    manifest = json.loads((out / "synth_manifest.json").read_text())
    grid = manifest["grid"]
    args = [
        "--records", str(out / "records.tsv"),
        "--journal-topics", str(out / "journal_topics.tsv"),
        "--topic-areas", str(out / "topic_areas.tsv"),
        "--out", str(out / "run"),
        "--start-year", str(grid["start_year"]),
        "--end-year", str(grid["end_year"]),
        "--width", str(grid["width_years"]),
    ]
    assert main(["ingest", *args]) == 0
    assert main(["flows", *args]) == 0
    for name in manifest["answer_files"]:
        produced = (out / "run" / name.replace("answers_", "")).read_bytes()
        expected = (out / name).read_bytes()
        assert produced == expected, name


def _ingest_and_flows(tmp_path):
    setup_inputs(tmp_path, [("x", "p1", "J1", 1911), ("x", "p2", "J3", 1916)])
    out = tmp_path / "out"
    args = base_args(tmp_path, out) + ["--start-year", "1910", "--end-year", "1919"]
    assert main(["ingest", *args]) == 0
    assert main(["flows", *args]) == 0
    return out, args


def test_profiles_unknown_topic_exits_two(tmp_path, capsys):
    out, args = _ingest_and_flows(tmp_path)
    profiles = out / "profiles.tsv"
    lines = profiles.read_text().splitlines()
    lines[1] = "x\t1910\tT9\t1"
    write_lines(profiles, lines)
    capsys.readouterr()
    assert main(["flows", *args]) == 2
    assert f"{profiles}:2: unknown topic 'T9'" in capsys.readouterr().err


def test_profiles_duplicate_topic_away_from_its_group_exits_two(tmp_path, capsys):
    out, args = _ingest_and_flows(tmp_path)
    profiles = out / "profiles.tsv"
    lines = profiles.read_text().splitlines()
    assert lines[1:] == ["x\t1910\tT1\t1", "x\t1910\tT2\t1", "x\t1915\tT3\t1"]
    # Its group ended at line 3, so the row is out of order, duplicate or not.
    write_lines(profiles, [*lines, "x\t1910\tT2\t5"])
    capsys.readouterr()
    assert main(["flows", *args]) == 2
    assert f"{profiles}:5: profile 'x'@1910 does not follow 'x'@1915" in capsys.readouterr().err


@pytest.mark.parametrize("weight,command", [
    ("inf", "viz"), ("nan", "metrics"),  # and an integer beyond float range:
    pytest.param("9" * 401, "viz", id="401-digits-viz"),
    pytest.param("9" * 401, "metrics", id="401-digits-metrics"),
])
def test_flow_weight_not_finite_exits_two(tmp_path, capsys, weight, command):
    out, args = _ingest_and_flows(tmp_path)
    network = out / "flows_topic_1910_1915.tsv"
    lines = network.read_text().splitlines()
    lines[1] = "\t".join(lines[1].split("\t")[:4] + [weight])
    write_lines(network, lines)
    if command == "viz":
        args = [*args, "--pair", "1910", "1915"]
    capsys.readouterr()
    assert main([command, *args]) == 2
    assert f"{network}:2: weights must be finite" in capsys.readouterr().err


BEYOND_SVG = "canvas size and radii put the drawing beyond SVG's number range"


@pytest.mark.parametrize(
    "flags,config,message",
    [
        (["--canvas-size", "0"], None, "canvas size must be >= 1, got 0"),
        (["--canvas-size", "-10"], None, "canvas size must be >= 1, got -10"),
        (["--min-weight", "nan"], None, "rendering settings must be finite numbers"),
        ([], "canvas_size=0", "canvas size must be >= 1, got 0"),
        ([], "radius_frac=0", "radius fraction must be positive"),
        ([], "label_radius=nan", "rendering settings must be finite numbers"),
        ([], "font_size=inf", "rendering settings must be finite numbers"),
        # geometry beyond SVG's number range; 401 digits are beyond float range too
        pytest.param(["--canvas-size", "9" * 401], None, BEYOND_SVG, id="canvas-flag-401-digits"),
        pytest.param([], "canvas_size=" + "9" * 401, BEYOND_SVG, id="canvas-config-401-digits"),
        pytest.param([], "radius_frac=1e300", BEYOND_SVG, id="radius-frac-1e300"),
        # SVG forbids a negative circle radius or font size
        *[([], f"{key}=-1", "node radii and font size must be >= 0")
          for key in ("node_radius_min", "node_radius_max", "font_size")],
    ],
)
def test_viz_rejects_bad_sizes_and_non_finite_settings(tmp_path, capsys, flags, config, message):
    out, args = _ingest_and_flows(tmp_path)
    if config is not None:
        flags = [*flags, "--viz-config", str(write_lines(tmp_path / "viz.cfg", [config]))]
    capsys.readouterr()
    assert main(["viz", *args, "--pair", "1910", "1915", *flags]) == 1
    assert f"topicflow: error: {message}" in capsys.readouterr().err
    assert not (out / "viz_topic_1910_1915.svg").exists()


def test_flows_rejects_profiles_off_the_grid(tmp_path, capsys):
    out, args = _ingest_and_flows(tmp_path)  # width 5: profiles at 1910 and 1915
    capsys.readouterr()
    assert main(["flows", *args, "--width", "10"]) == 2
    assert f"{out / 'profiles.tsv'}:4: snapshot 1915 is not on the grid" in (
        capsys.readouterr().err
    )
    assert not (out / "flows_topic_1910_1920.tsv").exists()


def test_metrics_rejects_profiles_off_the_grid(tmp_path, capsys):
    setup_inputs(tmp_path, [("x", "p1", "J1", 1911), ("x", "p2", "J3", 1916)])
    out = tmp_path / "out"
    args = base_args(tmp_path, out) + ["--start-year", "1910", "--end-year", "1929"]
    assert main(["ingest", *args, "--width", "10"]) == 0
    assert main(["flows", *args, "--width", "10"]) == 0
    assert main(["ingest", *args]) == 0  # profiles.tsv now on the 5-year grid
    capsys.readouterr()
    assert main(["metrics", *args, "--width", "10"]) == 2
    assert f"{out / 'profiles.tsv'}:4: snapshot 1915 is not on the grid" in (
        capsys.readouterr().err
    )


METRIC_FILES = (
    "delta_topic.tsv", "most_attractive_topic.tsv", "indices_area.tsv", "medians_area.tsv",
    "multidisciplinarity.tsv", "multidisciplinarity_summary.tsv",
)


def test_metrics_failure_leaves_metric_files_untouched(tmp_path, capsys):
    # The flows changed since the last metrics run, but profiles.tsv is now
    # off the grid: metrics must fail before it writes anything.
    out = tmp_path / "out"
    args = base_args(tmp_path, out) + ["--start-year", "1910", "--end-year", "1939"]
    setup_inputs(tmp_path, [
        ("x", "p1", "J1", 1911), ("x", "p2", "J3", 1921), ("x", "p3", "J2", 1931),
    ])
    for command in ("ingest", "flows", "metrics"):
        assert main([command, *args, "--width", "10"]) == 0
    before = {name: (out / name).read_bytes() for name in METRIC_FILES}
    setup_inputs(tmp_path, [
        ("x", "p1", "J3", 1911), ("x", "p2", "J2", 1926), ("x", "p3", "J3", 1931),
    ])
    for command in ("ingest", "flows"):
        assert main([command, *args, "--width", "10"]) == 0
    assert main(["ingest", *args]) == 0  # profiles.tsv now on the 5-year grid
    capsys.readouterr()
    assert main(["metrics", *args, "--width", "10"]) == 2
    assert f"{out / 'profiles.tsv'}:3: snapshot 1925 is not on the grid" in (
        capsys.readouterr().err
    )
    assert {name: (out / name).read_bytes() for name in METRIC_FILES} == before


@pytest.mark.parametrize("k", ["nan", "inf"])
def test_non_finite_smoothing_constant_exits_one_and_writes_nothing(tmp_path, capsys, k):
    setup_inputs(tmp_path, [
        ("x", "p1", "J1", 1911), ("x", "p2", "J3", 1916), ("y", "p3", "J2", 1912),
        ("y", "p4", "J1", 1917),
    ])
    out = tmp_path / "out"
    args = base_args(tmp_path, out) + ["--start-year", "1910", "--end-year", "1919"]
    for command in ("ingest", "flows", "metrics"):
        assert main([command, *args]) == 0
    before = {name: (out / name).read_bytes() for name in METRIC_FILES}
    capsys.readouterr()
    assert main(["metrics", *args, "--baseline-policy", f"smooth:{k}"]) == 1
    assert f"smooth policy needs a finite k > 0, got {k}" in capsys.readouterr().err
    assert {name: (out / name).read_bytes() for name in METRIC_FILES} == before


@pytest.mark.parametrize("policy,message", [
    ("bogus", "unknown baseline policy 'bogus'"),
    ("smooth:nan", "smooth policy needs a finite k > 0, got nan"),
])
def test_report_rejects_bad_baseline_policy_before_any_write(tmp_path, capsys, policy, message):
    setup_inputs(tmp_path, [("x", "p1", "J1", 1911), ("x", "p2", "J3", 1916)])
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["metrics", *base_args(tmp_path, tmp_path / "m"), "--baseline-policy", policy]) == 1
    expected = capsys.readouterr().err
    assert main(["report", *base_args(tmp_path, out), "--baseline-policy", policy]) == 1
    assert capsys.readouterr().err == expected == f"topicflow: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("setting", ["level", "appearing_weight", "area_mode", "sector_order"])
def test_report_rejects_bad_config_choice_before_any_write(tmp_path, capsys, setting):
    setup_inputs(tmp_path, [("x", "p1", "J1", 1911), ("x", "p2", "J3", 1916)])
    out = tmp_path / "out"
    config = write_lines(tmp_path / "run.cfg", [f"{setting}=bogus"])
    capsys.readouterr()
    assert main(["report", *base_args(tmp_path, out), "--config", str(config)]) == 1
    assert f"topicflow: error: {setting} must be one of " in capsys.readouterr().err
    assert not out.exists()


def test_report_rejects_bad_rendering_setting_before_any_write(tmp_path, capsys):
    setup_inputs(tmp_path, [("x", "p1", "J1", 1911), ("x", "p2", "J3", 1916)])
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["report", *base_args(tmp_path, out), "--canvas-size", "9" * 401]) == 1
    assert f"topicflow: error: {BEYOND_SVG}" in capsys.readouterr().err
    assert not out.exists()


def test_viz_draws_node_strengths_beyond_float_range(tmp_path):
    # Each weight is within float range; a node's exact strength is not.
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), "--authors", "50", "--seed", "3"]) == 0
    args = [
        "--records", str(corpus / "records.tsv"),
        "--journal-topics", str(corpus / "journal_topics.tsv"),
        "--topic-areas", str(corpus / "topic_areas.tsv"),
        "--out", str(corpus / "out"),
    ]
    assert main(["ingest", *args]) == 0
    assert main(["flows", *args]) == 0
    topic_area = dict(
        line.split("\t") for line in data_lines(corpus / "topic_areas.tsv")
    )
    network = corpus / "out" / "flows_topic_1910_1915.tsv"
    header, *rows = network.read_text().splitlines()
    sources = []
    for n, row in enumerate(rows):
        fields = row.split("\t")
        if topic_area[fields[2]] != topic_area[fields[3]]:
            rows[n] = "\t".join([*fields[:4], str(10**308)])
            sources.append(fields[2])
    assert len(sources) > len(set(sources))  # some node's strength exceeds float range
    write_lines(network, [header, *rows])
    assert main(["viz", *args, "--level", "topic", "--pair", "1910", "1915"]) == 0
    svg = (corpus / "out" / "viz_topic_1910_1915.svg").read_text(encoding="utf-8")
    root = ET.fromstring(svg)
    radii = [float(el.get("r")) for el in root.iter("{http://www.w3.org/2000/svg}circle")]
    assert max(radii) == 9.0  # clamped to node_radius_max


def test_viz_draws_edge_width_beyond_float_range_finite(tmp_path):
    # width_min + width_scale * 1e308 overflows to inf unless clamped.
    corpus = tmp_path / "corpus"
    assert main([
        "synth", "--out", str(corpus), "--authors", "300", "--snapshots", "4", "--seed", "3",
    ]) == 0
    args = [
        "--records", str(corpus / "records.tsv"),
        "--journal-topics", str(corpus / "journal_topics.tsv"),
        "--topic-areas", str(corpus / "topic_areas.tsv"),
        "--out", str(corpus / "out"),
    ]
    assert main(["report", *args, "--end-year", "1929"]) == 0
    network = corpus / "out" / "flows_topic_1910_1915.tsv"
    header, *rows = network.read_text().splitlines()
    n = next(n for n, row in enumerate(rows) if row.split("\t")[2] != row.split("\t")[3])
    rows[n] = "\t".join([*rows[n].split("\t")[:4], str(10**308)])
    write_lines(network, [header, *rows])
    viz_cfg = write_lines(tmp_path / "viz.cfg", ["width_scale=2"])
    assert main([
        "viz", *args, "--level", "topic", "--pair", "1910", "1915", "--viz-config", str(viz_cfg),
    ]) == 0
    svg = (corpus / "out" / "viz_topic_1910_1915.svg").read_text(encoding="utf-8")
    root = ET.fromstring(svg)
    widths = [float(el.get("stroke-width")) for el in root.iter("{http://www.w3.org/2000/svg}path")
              if el.get("stroke-width") is not None]
    assert max(widths) == 3.40282e38  # clamped to the largest single-precision float
    assert re.search(r"\b(?:inf|nan)\b", svg, re.IGNORECASE) is None


@pytest.mark.parametrize("route", ["smooth-constant", "tiny-weight"])
def test_metrics_delta_beyond_float_range_exits_two_before_any_write(tmp_path, capsys, route):
    # 1/1e-320 overflows, so the relative change of that baseline would read inf.
    corpus = tmp_path / "corpus"
    assert main([
        "synth", "--out", str(corpus), "--authors", "300", "--snapshots", "4", "--seed", "3",
    ]) == 0
    out = corpus / "out"
    args = [
        "--records", str(corpus / "records.tsv"),
        "--journal-topics", str(corpus / "journal_topics.tsv"),
        "--topic-areas", str(corpus / "topic_areas.tsv"),
        "--out", str(out), "--end-year", "1929",
    ]
    assert main(["report", *args]) == 0
    if route == "smooth-constant":
        args += ["--baseline-policy", "smooth:1e-320"]
    else:
        network = out / "flows_topic_1910_1915.tsv"
        header, *rows = network.read_text().splitlines()
        n = next(n for n, row in enumerate(rows) if row.split("\t")[2] != row.split("\t")[3])
        rows[n] = "\t".join([*rows[n].split("\t")[:4], "1e-320"])
        write_lines(network, [header, *rows])
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(["metrics", *args]) == 2
    assert re.search(
        r"attractiveness of topic 't\d+' at snapshot 1920 is not finite", capsys.readouterr().err
    )
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


_GOOD_RECORD = {"author_id": "x", "paper_id": "p1", "journal_id": "J1", "year": 1912}


@pytest.mark.parametrize("field,value", [
    *[(field, value) for field in ("author_id", "paper_id", "journal_id")
      for value in (5, None, ["a"], {}, True)],
    *[("year", value) for value in (True, [1912], 1912.5, "MMXX")],
])
def test_ndjson_bad_field_exits_two_naming_the_line(tmp_path, capsys, field, value):
    # The bad value follows a valid record, whose texts the memos then hold.
    message = (
        f"year must be an integer, got {value!r}" if field == "year"
        else "author/paper/journal ids must be non-empty tokens without whitespace"
    )
    setup_inputs(tmp_path, [])
    records = write_lines(tmp_path / "records.ndjson", [
        json.dumps(_GOOD_RECORD), json.dumps({**_GOOD_RECORD, "paper_id": "p2", field: value}),
    ])
    args = base_args(tmp_path, tmp_path / "out") + ["--records", str(records)]
    capsys.readouterr()
    assert main(["ingest", *args]) == 2
    assert f"topicflow: error: {records}:2: {message}\n" == capsys.readouterr().err


def test_ndjson_integer_too_long_to_convert_exits_two(tmp_path, capsys):
    setup_inputs(tmp_path, [])
    too_long = json.dumps(_GOOD_RECORD).replace("1912", "1" * 5000)
    records = write_lines(tmp_path / "records.ndjson", [json.dumps(_GOOD_RECORD), too_long])
    args = base_args(tmp_path, tmp_path / "out") + ["--records", str(records)]
    capsys.readouterr()
    assert main(["ingest", *args]) == 2
    assert f"topicflow: error: {records}:2: invalid JSON record: " in capsys.readouterr().err


@pytest.mark.parametrize("field", ["author_id", "paper_id", "journal_id"])
def test_ndjson_lone_surrogate_id_exits_two_naming_the_line(tmp_path, capsys, field):
    # json.dumps escapes the surrogate, as "\ud800": valid JSON whose text no output can encode.
    setup_inputs(tmp_path, [])
    records = write_lines(tmp_path / "records.ndjson", [
        json.dumps(_GOOD_RECORD), json.dumps({**_GOOD_RECORD, field: "p\ud800"}),
    ])
    args = base_args(tmp_path, tmp_path / "out") + ["--records", str(records)]
    capsys.readouterr()
    assert main(["ingest", *args]) == 2
    assert capsys.readouterr().err == (
        f"topicflow: error: {records}:2: author/paper/journal ids must not hold lone surrogates\n"
    )


def test_records_not_utf8_exits_two_naming_the_line(tmp_path, capsys):
    # The text layer ends a line at "\r\n" or a lone "\r" too, and so does the line count.
    setup_inputs(tmp_path, [])
    records = tmp_path / "records.tsv"
    records.write_bytes(b"x\tp0\tJ1\t1912\r\n# note\ra\xff\tp1\tJ1\t1912\nx\tp2\tJ1\t1912\n")
    capsys.readouterr()
    assert main(["ingest", *base_args(tmp_path, tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"topicflow: error: {records}:3: not UTF-8 text: invalid start byte\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["ingest", "report"])
@pytest.mark.parametrize("case", ["missing", "three-field line"])
def test_unreadable_records_exit_two_and_create_no_out(tmp_path, capsys, command, case):
    # ingest and report create --out only once the records have been read.
    setup_inputs(tmp_path, [])
    records = tmp_path / "records.tsv"
    if case == "missing":
        records.unlink()
        message = f"--records not found: {records}"
    else:
        write_lines(records, ["x\tp0\tJ1\t1912", "x\tp1\tJ1"])
        message = f"{records}:2: expected 4 tab-separated fields, got 3"
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, *base_args(tmp_path, out)]) == 2
    assert capsys.readouterr().err == f"topicflow: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command,missing", [
    ("flows", "profiles not found"), ("metrics", "profiles not found"),
    ("viz", "network file not found"),
])
def test_stage_on_an_absent_out_exits_two_and_creates_nothing(tmp_path, capsys, command, missing):
    # These stages read their inputs from --out, so they never create it.
    setup_inputs(tmp_path, [("x", "p1", "J2", 1911)])
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, *base_args(tmp_path, out), *_STAGES[command]]) == 2
    assert f"topicflow: error: {missing}: {out}" in capsys.readouterr().err
    assert not out.exists()


def test_tsv_input_not_utf8_exits_two_naming_the_line(tmp_path, capsys):
    paths = setup_inputs(tmp_path, [("x", "p1", "J1", 1912)])
    table = paths["journal_topics.tsv"]
    table.write_bytes(table.read_bytes() + b"J4\tT\xff4\n")
    capsys.readouterr()
    assert main(["ingest", *base_args(tmp_path, tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"topicflow: error: {table}:5: not UTF-8 text: invalid start byte\n"
    )


# (command, file, its good first line, its malformed second line, the message naming line 2)
_EARLIER_BAD_LINE = [
    ("ingest", "records.tsv", "x\tp0\tJ1\t1912", "x\tp1\tJ1",
     "expected 4 tab-separated fields, got 3"),
    ("ingest", "records.ndjson", json.dumps(_GOOD_RECORD), '{"author_id": "x"}',
     "record object must have exactly the fields author_id, paper_id, journal_id, year"),
    ("ingest", "journal_topics.tsv", "J1\tT1", "J2", "expected 2 columns, got 1"),
    ("ingest", "topic_areas.tsv", "T1\tA1", "T2", "expected 2 columns, got 1"),
    ("flows", "out/profiles.tsv", "x\t1910\tT1\t1", "x\t1910", "expected 4 columns, got 2"),
    ("metrics", "out/flows_topic_1910_1915.tsv", "1910\t1915\tT1\tT1\t1", "1910\t1915\tT1",
     "expected 5 columns, got 3"),
    ("ingest", "run.cfg", "seed=1", "seed", "expected key=value, got 'seed'"),
]


@pytest.mark.parametrize(
    "command, name, good, bad, message", _EARLIER_BAD_LINE, ids=[c[1] for c in _EARLIER_BAD_LINE]
)
def test_malformed_line_before_a_non_utf8_line_is_the_one_named(
    tmp_path, capsys, command, name, good, bad, message
):
    # The text layer decodes line 3's bad byte before it hands out line 2.
    setup_inputs(tmp_path, [("x", "p1", "J1", 1912)])
    args = base_args(tmp_path, tmp_path / "out") + ["--end-year", "1919", "--level", "topic"]
    assert main(["report", *args]) == 0
    path = tmp_path / name
    path.write_bytes(f"{good}\n{bad}\n".encode() + b"a\xff\tb\n")
    if name == "records.ndjson":
        args += ["--records", str(path)]
    if name == "run.cfg":
        args += ["--config", str(path)]
    capsys.readouterr()
    assert main([command, *args]) == 2
    assert capsys.readouterr().err == f"topicflow: error: {path}:2: {message}\n"


def test_lines_past_the_decoded_ones_are_yielded_up_to_the_bad_byte(tmp_path):
    # Many blocks of the text layer's read-ahead, mixed line ends, comments and blank lines;
    # a lone "\r" is never followed by a blank line, which would make it "\r\n".
    lines = [b"# c" if i % 7 == 0 else b"" if i % 11 == 0 else b"l%d" % i for i in range(1, 3001)]
    ends = [b"\r" if i % 3 == 2 and lines[(i + 1) % 3000] else b"\r\n" if i % 3 else b"\n"
            for i in range(3000)]
    data = b"".join(line + end for line, end in zip(lines, ends))
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_bytes(data)
    bad.write_bytes(data.replace(b"l2500", b"l25\xe900"))
    seen = []
    with pytest.raises(MalformedLine) as raised:
        seen.extend(iter_lines(bad))
    assert str(raised.value) == f"{bad}:2500: not UTF-8 text: invalid continuation byte"
    assert seen == [(i, f"l{i}") for i in range(1, 2500) if i % 7 and i % 11]
    assert seen == list(iter_lines(good))[:len(seen)]


@pytest.mark.parametrize("skew", ["nan", "600"])
def test_synth_rejects_unusable_skew(tmp_path, capsys, skew):
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), "--skew", skew]) == 1
    assert "skew must be in [0, 8]" in capsys.readouterr().err
    assert not corpus.exists()


def test_standalone_metrics_matches_report_multidisciplinarity(tmp_path):
    # Journals span areas and share topics; standalone metrics reloads
    # profiles.tsv and derives each author's areas from the table again.
    paths = {
        "journal_topics.tsv": ["J1\tT1", "J1\tT2", "J2\tT2", "J2\tT3", "J3\tT4"],
        "topic_areas.tsv": ["T1\tA1", "T2\tA2", "T3\tA3", "T4\tA1"],
        "records.tsv": [
            f"{a}\t{p}\t{j}\t{y}" for a, p, j, y in (
                ("x", "p1", "J1", 1911), ("x", "p2", "J2", 1912), ("x", "p3", "J3", 1917),
                ("y", "p4", "J3", 1911), ("y", "p5", "J1", 1916), ("z", "p6", "J2", 1913),
                ("z", "p7", "J2", 1918), ("z", "p8", "J3", 1918),
            )
        ],
    }
    for name, lines in paths.items():
        write_lines(tmp_path / name, lines)
    args = base_args(tmp_path, tmp_path / "stages")
    args += ["--start-year", "1910", "--end-year", "1919"]
    for command in ("ingest", "flows", "metrics"):
        assert main([command, *args]) == 0
    report = tmp_path / "report"
    assert main(["report", *args, "--out", str(report)]) == 0
    for name in ("multidisciplinarity.tsv", "multidisciplinarity_summary.tsv"):
        assert (tmp_path / "stages" / name).read_bytes() == (report / name).read_bytes()
    # x touches A1-A3 in 1910 through T2 in both J1 and J2, z in 1915
    assert data_lines(report / "multidisciplinarity.tsv") == [
        f"{snapshot}\t{n}\t1" for snapshot in (1910, 1915) for n in (1, 2, 3)
    ]


@pytest.mark.parametrize("flags", [
    [],
    ["--appearing-weight", "uniform"],
    ["--area-mode", "argmax"],
    ["--level", "topic"],
    ["--level", "area"],
    ["--quantile", "0.9", "--cut-scope", "all"],
    ["--width", "10"],
])
def test_report_tree_equals_separate_stages(tmp_path, flags):
    corpus = tmp_path / "corpus"
    assert main([
        "synth", "--out", str(corpus), "--authors", "60", "--topics", "8", "--areas", "3",
        "--snapshots", "4", "--mobility", "0.5", "--seed", "5",
    ]) == 0
    args = [
        "--records", str(corpus / "records.tsv"),
        "--journal-topics", str(corpus / "journal_topics.tsv"),
        "--topic-areas", str(corpus / "topic_areas.tsv"),
        "--start-year", "1910", "--end-year", "1929", *flags,
    ]
    together, separate = tmp_path / "report", tmp_path / "stages"
    assert main(["report", *args, "--out", str(together)]) == 0
    for command in ("ingest", "flows", "metrics"):
        assert main([command, *args, "--out", str(separate)]) == 0
    viz_level = "area" if "area" in flags else "topic"
    for flow_file in sorted(separate.glob(f"flows_{viz_level}_*.tsv")):
        pair = flow_file.stem.split("_")[2:]
        assert main(["viz", *args, "--out", str(separate), "--level", viz_level,
                     "--pair", *pair]) == 0

    def tree(directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    report_tree = tree(together)
    del report_tree["report.json"]
    assert report_tree == tree(separate)
    assert any(name.startswith("viz_") for name in report_tree)


@pytest.mark.parametrize("flags", [[], ["--appearing-weight", "uniform", "--area-mode", "argmax"]])
def test_shuffled_profiles_exit_two_and_leave_outputs_untouched(tmp_path, capsys, flags):
    corpus = tmp_path / "corpus"
    assert main([
        "synth", "--out", str(corpus), "--authors", "60", "--topics", "8", "--areas", "3",
        "--snapshots", "4", "--mobility", "0.5", "--seed", "5",
    ]) == 0
    args = [
        "--records", str(corpus / "records.tsv"),
        "--journal-topics", str(corpus / "journal_topics.tsv"),
        "--topic-areas", str(corpus / "topic_areas.tsv"),
        "--start-year", "1910", "--end-year", "1929", *flags,
    ]
    in_order, shuffled, report = tmp_path / "sorted", tmp_path / "shuffled", tmp_path / "report"
    for command in ("ingest", "flows", "metrics"):
        assert main([command, *args, "--out", str(in_order)]) == 0
    assert main(["report", *args, "--out", str(report)]) == 0

    def tree(directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())
                if p.name != "profiles.tsv"}

    # The sorted file streams to the same tree as report's in-memory handoff.
    written = tree(in_order)
    assert written == {name: data for name, data in tree(report).items() if name in written}
    assert "multidisciplinarity.tsv" in written

    header, *rows = (in_order / "profiles.tsv").read_text().splitlines()
    random.Random(11).shuffle(rows)
    keys = [(a, int(s)) for a, s, *_ in (row.split("\t") for row in rows)]
    # Line 1 is the header: the first row starting a group below the previous one.
    line = next(i + 2 for i in range(1, len(keys)) if keys[i] < keys[i - 1])
    shutil.copytree(in_order, shuffled)
    write_lines(shuffled / "profiles.tsv", [header, *rows])
    for command in ("flows", "metrics"):
        capsys.readouterr()
        assert main([command, *args, "--out", str(shuffled)]) == 2
        assert f"{shuffled / 'profiles.tsv'}:{line}: profile " in capsys.readouterr().err
    assert tree(shuffled) == written


def test_cli_import_loads_no_pool_or_network_modules():
    unwanted = [
        "concurrent.futures", "multiprocessing", "urllib.request", "http.client",
        "email", "ssl", "xml.sax", "dataclasses", "inspect", "topicflow.synth",
        "json", "fractions", "statistics",
    ]
    code = (
        "import sys, topicflow.cli; "
        f"print([m for m in {unwanted!r} if m in sys.modules])"
    )
    src = str(Path(topicflow.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "[]"


def test_run_demo_script_reports_the_diagrams_it_draws(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts src first on the path
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_demo.py"
    spec = importlib.util.spec_from_file_location("run_demo", script)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    assert demo.run(["--out", str(tmp_path), "--authors", "40", "--snapshots", "3"]) == 0
    pipeline = tmp_path / "pipeline"
    report = json.loads((pipeline / "report.json").read_text(encoding="utf-8"))
    svgs = sorted(p.name for p in pipeline.glob("*.svg"))
    assert len(svgs) == 2 and report["viz_files"] == svgs  # one per pair of 3 snapshots
