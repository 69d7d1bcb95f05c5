"""Self-tests of the benchmark on tiny corpora.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import importlib.util
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench_run = sys.modules["perfbench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)

TINY = {"report_ref": 300, "rerun_wide": 60, "ingest_json_cut": 300}
COUNT_UNITS = ("count", "bytes", "ratio")


def tiny(name: str):
    workload = bench_run.WORKLOADS[name]
    return dataclasses.replace(workload, spec={**workload.spec, "authors": TINY[name]})


def declared() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_declaration_matches_the_emitted_metrics():
    spec = declared()
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in bench_run.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_run.LAYER_UNITS


def test_clock_scales_each_process_by_the_calibrations_around_it(tmp_path, monkeypatch):
    readings = iter([0.1, 0.3, 0.2])
    monkeypatch.setattr(bench_run, "calibrate", lambda: next(readings))
    clock = bench_run.Clock()
    first = clock.run("noop", [sys.executable, "-c", "pass"], tmp_path)
    second = clock.run("noop", [sys.executable, "-c", "pass"], tmp_path)
    assert first.scale == pytest.approx(2 * bench_run.CAL_REF_S / (0.1 + 0.3))
    assert second.scale == pytest.approx(2 * bench_run.CAL_REF_S / (0.3 + 0.2))
    assert first.ref_wall_s == pytest.approx(first.wall_s * first.scale)
    assert clock.speed() == pytest.approx(bench_run.CAL_REF_S / 0.2)


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_emits_every_metric_with_its_unit(name, tmp_path):
    plain = bench_run.bench(tiny(name), 1, 0, False, work=tmp_path)
    assert plain["failed"] == 0, plain["iterations"]
    assert {k: u for k, (_, u) in plain["metrics"].items()} == bench_run.END_TO_END_UNITS
    assert all(v > 0 for v, _ in plain["metrics"].values())
    assert plain["extra"]["failed_frac"] == (0.0, "ratio")
    assert {k for k in plain["extra"] if k.startswith("cmd_wall_s.")}

    traced = bench_run.bench(tiny(name), 1, 0, True, work=tmp_path)
    assert traced["failed"] == 0, traced["iterations"]
    assert {k: u for k, (_, u) in traced["metrics"].items()} == bench_run.LAYER_UNITS


def _flip_flow_row(out: Path):
    path = sorted(out.glob("flows_topic_*.tsv"))[0]
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1].rsplit("\t", 1)[0] + "\t999"
    path.write_text("\n".join(lines) + "\n")


def _truncate_svg(out: Path):
    path = sorted(out.glob("*.svg"))[0]
    path.write_text(path.read_text()[:-20])


def _drop_profile_row(out: Path):
    path = out / "profiles.tsv"
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")


@pytest.mark.parametrize("name, tamper", [
    ("report_ref", _flip_flow_row),
    ("rerun_wide", _truncate_svg),
    ("ingest_json_cut", _drop_profile_row),
])
def test_corrupted_artifact_counts_as_failed(name, tamper, tmp_path):
    result = bench_run.bench(tiny(name), 2, 0, False, work=tmp_path, tamper=tamper)
    assert result["failed"] == result["attempted"] == 1
    assert result["extra"]["failed_frac"] == (1.0, "ratio")
    assert result["iterations"][0]["problems"]


def test_artifact_tree_change_between_runs_counts_as_failed(tmp_path):
    def add_comment(out: Path):
        path = sorted(out.glob("flows_area_*.tsv"))[0]
        path.write_text(path.read_text() + "# a comment the row checks ignore\n")

    first = bench_run.bench(tiny("report_ref"), 3, 0, False, work=tmp_path)
    assert first["failed"] == 0
    second = bench_run.bench(tiny("report_ref"), 3, 0, False, work=tmp_path, tamper=add_comment)
    assert second["failed"] == 1
    assert "digest" in second["iterations"][0]["problems"][0]


@pytest.mark.parametrize("name", ["rerun_wide", "ingest_json_cut"])
def test_a_source_change_rebuilds_the_cached_program_outputs(name, tmp_path, monkeypatch):
    """Base profiles, reference profiles and the digest record come from the
    sources under test, never from an earlier version of them."""
    src = tmp_path / "src"
    shutil.copytree(bench_run.SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(bench_run, "SRC", src)
    work = tmp_path / "work"
    before = bench_run.bench(tiny(name), 5, 0, False, work=work)
    assert before["failed"] == 0, before["iterations"]

    # A provenance comment at the top of the profile and flow files, as a
    # later change to the writers may add: every artifact's bytes change.
    for module, header in (("cli.py", "PROFILE_HEADER"), ("flows.py", "FLOW_HEADER")):
        path = src / "topicflow" / module
        text = path.read_text()
        assert f"lines = [{header}]" in text
        path.write_text(text.replace(f"lines = [{header}]", f'lines = ["# provenance", {header}]'))
    after = bench_run.bench(tiny(name), 5, 0, False, work=work)
    assert after["failed"] == 0, after["iterations"]
    assert after["iterations"][0]["digest"] != before["iterations"][0]["digest"]
    assert after["stamp"]["source_digest"] != before["stamp"]["source_digest"]
    entries = sorted((work / "cache").glob(f"{name}-seed5-*"))
    assert len(entries) == 2
    for entry in entries:
        assert (entry / "artifact_digest").is_file()


@pytest.mark.parametrize("name", ["report_ref", "ingest_json_cut"])
def test_trace_counts_repeat_exactly(name, tmp_path):
    runs = [bench_run.bench(tiny(name), 4, 0, True, work=tmp_path) for _ in range(2)]
    counts = [
        {k: v for k, (v, unit) in run["metrics"].items() if unit in COUNT_UNITS} for run in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["ingest.iter_records.calls"] == (2 if name == "report_ref" else 3)


def test_exits_nonzero_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report_ref", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
