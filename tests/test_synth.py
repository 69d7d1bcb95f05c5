from __future__ import annotations

import json
import math

import pytest

from topicflow.classification import load_classification
from topicflow.errors import InvalidSpec
from topicflow.flows import load_flow_network
from topicflow.ingest import SnapshotGrid
from topicflow.synth import SyntheticSpec, generate_corpus

GRID = SnapshotGrid(1910, 2014, 5)


def spec(**kwargs):
    defaults = dict(n_authors=25, n_topics=8, n_areas=3, n_snapshots=4, mobility=0.4, seed=7)
    defaults.update(kwargs)
    return SyntheticSpec(**defaults)


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def test_same_seed_reproduces_identical_bytes(tmp_path):
    a = generate_corpus(spec(), GRID, tmp_path / "a")
    b = generate_corpus(spec(), GRID, tmp_path / "b")
    assert tree_bytes(a.records_path.parent) == tree_bytes(b.records_path.parent)


def test_different_seed_differs(tmp_path):
    a = generate_corpus(spec(seed=1), GRID, tmp_path / "a")
    b = generate_corpus(spec(seed=2), GRID, tmp_path / "b")
    assert a.records_path.read_bytes() != b.records_path.read_bytes()


def test_zero_mobility_only_self_transitions(tmp_path):
    result = generate_corpus(spec(mobility=0.0), GRID, tmp_path)
    table = load_classification(result.journal_topics_path, result.topic_areas_path)
    for (level, earlier, later), path in result.answer_paths.items():
        net = load_flow_network(path, table=table, level=level, from_snapshot=earlier,
                                to_snapshot=later)
        assert all(source == target for source, target in net.weights)


def test_restricted_grid_recorded_in_manifest(tmp_path):
    result = generate_corpus(spec(n_snapshots=3), GRID, tmp_path)
    manifest = json.loads(result.manifest_path.read_text())
    assert manifest["snapshot_labels"] == [1910, 1915, 1920]
    assert manifest["grid"] == {"start_year": 1910, "end_year": 1924, "width_years": 5}
    assert result.grid.labels() == [1910, 1915, 1920]
    # answers cover every consecutive pair at both levels
    assert len(result.answer_paths) == 2 * 2


def test_case_exercising_dominant_pairs_present(tmp_path):
    result = generate_corpus(spec(), GRID, tmp_path)
    authors = {
        line.split("\t")[0]
        for line in result.records_path.read_text().splitlines()
        if line and not line.startswith("#")
    }
    assert {"case_move", "case_vanish", "case_persist", "case_appear", "case_cross"} <= authors


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpec):
        spec(n_topics=2, n_areas=3)
    with pytest.raises(InvalidSpec):
        spec(mobility=1.5)
    with pytest.raises(InvalidSpec):
        spec(n_authors=0)
    with pytest.raises(InvalidSpec):
        spec(seed=-1)


@pytest.mark.parametrize("skew", [-1.0, math.nan, math.inf, 8.5, 600.0])
def test_skew_outside_finite_range_rejected(skew):
    # Checked by the spec, before any sampling: with skew inf every weight
    # but the first is 0 and the topic draw never ends; nan and 600 fail
    # inside random.choices and the power.
    with pytest.raises(InvalidSpec, match=r"skew must be in \[0, 8\]"):
        spec(skew=skew)


def test_too_many_snapshots_for_grid(tmp_path):
    with pytest.raises(InvalidSpec):
        generate_corpus(spec(n_snapshots=22), GRID, tmp_path)
