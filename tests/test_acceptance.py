"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The performance
criterion generates a million-record corpus and is the slow one.
"""
from __future__ import annotations

import hashlib
import random
import resource
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager

import pytest

from topicflow.bundleviz import VizConfig, layout, render_svg
from topicflow.classification import load_classification
from topicflow.cli import main
from topicflow.flows import (
    FlowNetwork,
    count_transitions,
    flow_networks_from_profiles,
    load_flow_network,
)
from topicflow.ingest import SnapshotGrid
from topicflow.metrics import (
    ZeroBaselinePolicy,
    attractiveness_table,
    migration_indices,
    multidisciplinarity,
)
from topicflow.synth import SyntheticSpec, generate_corpus
from conftest import ingested, write_lines
from test_metrics import delta_literal, indices_literal


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"\n{label}: FAIL")
        raise
    print(f"\n{label}: PASS")


# 1 ----------------------------------------------------------------------

def test_criterion_1_transition_rule_conformance():
    with criterion("criterion 1 (transition-rule worked cases + closed form)"):
        start = time.perf_counter()
        assert count_transitions({"A"}, {"B"}) == {("A", "B"): 1}
        assert count_transitions({"A", "B"}, {"A"}) == {("A", "A"): 1}
        assert count_transitions({"A", "B"}, {"A", "B"}) == {("A", "A"): 1, ("B", "B"): 1}
        assert count_transitions({"A", "B", "C"}, {"A", "B", "D"}) == {
            ("A", "A"): 1, ("B", "B"): 1, ("A", "D"): 1, ("B", "D"): 1, ("C", "D"): 1,
        }
        assert count_transitions({"A", "B"}, {"C", "D"}) == {
            (s, t): 1 for s in "AB" for t in "CD"
        }
        rng = random.Random(2024)
        alphabet = [f"n{i}" for i in range(12)]
        for _ in range(10_000):
            source = frozenset(rng.sample(alphabet, rng.randint(1, 8)))
            target = frozenset(rng.sample(alphabet, rng.randint(1, 8)))
            got = count_transitions(source, target)
            assert sum(got.values()) == len(source & target) + len(source) * len(
                target - source
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


# 2 ----------------------------------------------------------------------

def _corpus_spec(seed):
    rng = random.Random(seed)
    n_areas = rng.randint(1, 4)
    return SyntheticSpec(
        n_authors=rng.randint(5, 50),
        n_topics=rng.randint(max(4, n_areas), 10),
        n_areas=n_areas,
        n_snapshots=rng.randint(2, 6),
        mobility=rng.choice([0.0, 0.2, 0.5, 0.9]),
        skew=rng.choice([0.0, 1.0, 2.0]),
        seed=seed,
    )


def test_criterion_2_oracle_equivalence(tmp_path):
    with criterion("criterion 2 (flows == generator answers; metrics == literal formulas)"):
        base_grid = SnapshotGrid(1910, 2014, 5)
        policy = ZeroBaselinePolicy("strict")
        for seed in range(100):
            spec = _corpus_spec(seed)
            corpus = generate_corpus(spec, base_grid, tmp_path / f"c{seed}")
            table = load_classification(
                corpus.journal_topics_path, corpus.topic_areas_path
            )
            profiles, _ = ingested(
                corpus.records_path, table, corpus.grid, max_papers_per_year=17
            )
            nets = {
                level: flow_networks_from_profiles(
                    profiles, corpus.grid, level=level, table=table
                )
                for level in ("topic", "area")
            }
            for level, built in nets.items():
                for net in built:
                    answer = load_flow_network(
                        corpus.answer_paths[(level, net.from_snapshot, net.to_snapshot)],
                        table=table,
                        level=level,
                        from_snapshot=net.from_snapshot,
                        to_snapshot=net.to_snapshot,
                    )
                    assert net.weights == answer.weights, (seed, level, net.from_snapshot)

            table_deltas = attractiveness_table(
                nets["topic"], policy, n_topics=table.topic_count
            )
            ordered = sorted(nets["topic"], key=lambda n: n.to_snapshot)
            for prev, cur in zip(ordered, ordered[1:]):
                for topic in sorted(prev.nodes() | cur.nodes()):
                    want = delta_literal(prev, cur, topic, table.topic_count, policy)
                    got = table_deltas[(cur.to_snapshot, topic)][0]
                    assert got == pytest.approx(want, abs=1e-12)
            for net in nets["area"]:
                got = migration_indices(net, table.areas())
                for area in sorted(net.nodes()):
                    iota, epsilon, rho, sigma = indices_literal(net, area)
                    assert got[area].iota == pytest.approx(iota, abs=1e-12)
                    assert got[area].epsilon == pytest.approx(epsilon, abs=1e-12)
                    assert got[area].rho == pytest.approx(rho, abs=1e-12)
                    assert got[area].sigma == pytest.approx(sigma, abs=1e-12)


# 3 ----------------------------------------------------------------------

def test_criterion_3_normalization_invariants():
    with criterion("criterion 3 (index normalization, bounds, exact scale invariance)"):
        rng = random.Random(99)
        for i in range(1000):
            areas = [f"a{j}" for j in range(rng.randint(1, 8))]
            weights = {}
            for s in areas:
                for t in areas:
                    if rng.random() < 0.4:
                        weights[(s, t)] = rng.randint(1, 100)
            net = FlowNetwork("area", 1910, 1915, weights)
            indices = migration_indices(net, ())
            cross = sum(w for (s, t), w in weights.items() if s != t)
            if cross > 0:
                assert abs(sum(v.rho for v in indices.values()) - 1.0) <= 1e-9
                assert abs(sum(v.sigma for v in indices.values()) - 1.0) <= 1e-9
            for v in indices.values():
                assert 0.0 <= v.iota <= 1.0
                assert 0.0 <= v.epsilon <= 1.0
                assert 0.0 <= v.rho <= 1.0
                assert 0.0 <= v.sigma <= 1.0
            scale = rng.randint(2, 1000)
            scaled = FlowNetwork(
                "area", 1910, 1915, {k: w * scale for k, w in weights.items()}
            )
            assert migration_indices(scaled, ()) == indices  # exact


# 4 ----------------------------------------------------------------------

def test_criterion_4_disambiguation_filter(tmp_path):
    with criterion("criterion 4 (18-papers author excluded at 17, kept when disabled)"):
        write_lines(tmp_path / "jt.tsv", ["J\tT"])
        write_lines(tmp_path / "ta.tsv", ["T\tA"])
        rows = [f"busy\tp{i}\tJ\t1951" for i in range(18)]
        rows += ["busy\tother\tJ\t1971", "calm\tq\tJ\t1951"]
        write_lines(tmp_path / "records.tsv", rows)
        args = [
            "--records", str(tmp_path / "records.tsv"),
            "--journal-topics", str(tmp_path / "jt.tsv"),
            "--topic-areas", str(tmp_path / "ta.tsv"),
        ]
        out1 = tmp_path / "strict"
        assert main(["ingest", *args, "--out", str(out1)]) == 0
        authors = {
            line.split("\t")[0]
            for line in (out1 / "profiles.tsv").read_text().splitlines()
            if not line.startswith("#")
        }
        assert authors == {"calm"}
        out2 = tmp_path / "open"
        assert main(["ingest", *args, "--out", str(out2), "--max-papers-per-year", "0"]) == 0
        authors = {
            line.split("\t")[0]
            for line in (out2 / "profiles.tsv").read_text().splitlines()
            if not line.startswith("#")
        }
        assert authors == {"busy", "calm"}


# 5 ----------------------------------------------------------------------

def test_criterion_5_snapshot_grid(tmp_path):
    with criterion("criterion 5 (21 labels, 20 network files, 2003 -> 2000)"):
        grid = SnapshotGrid(1910, 2014, 5)
        assert len(grid.labels()) == 21
        assert grid.snapshot_of(2003) == 2000
        write_lines(tmp_path / "jt.tsv", ["J\tT"])
        write_lines(tmp_path / "ta.tsv", ["T\tA"])
        write_lines(tmp_path / "records.tsv", ["x\tp1\tJ\t1911", "x\tp2\tJ\t2003"])
        out = tmp_path / "out"
        args = [
            "--records", str(tmp_path / "records.tsv"),
            "--journal-topics", str(tmp_path / "jt.tsv"),
            "--topic-areas", str(tmp_path / "ta.tsv"),
            "--out", str(out), "--level", "topic",
        ]
        assert main(["ingest", *args]) == 0
        assert main(["flows", *args]) == 0
        files = sorted(out.glob("flows_topic_*.tsv"))
        assert len(files) == 20
        profile_snapshots = {
            int(line.split("\t")[1])
            for line in (out / "profiles.tsv").read_text().splitlines()
            if not line.startswith("#")
        }
        assert profile_snapshots == {1910, 2000}


# 6 ----------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 5])
def test_criterion_6_multidisciplinarity_point_mass(tmp_path, make_table, k):
    with criterion(f"criterion 6 (point-mass multidisciplinarity, k={k})"):
        topics = {f"T{i}": f"A{i}" for i in range(k)}
        table = make_table(
            {f"J{i}": [f"T{i}"] for i in range(k)}, topics, prefix=f"k{k}_"
        )
        rows = [
            (f"auth{a}", f"p{a}_{i}", f"J{i}", 1911) for a in range(9) for i in range(k)
        ]
        records = write_lines(
            tmp_path / f"records_{k}.tsv", [f"{a}\t{p}\t{j}\t{y}" for a, p, j, y in rows]
        )
        profiles, _ = ingested(records, table, SnapshotGrid(1910, 2014, 5))
        dist = multidisciplinarity(profiles, table, q=0.99)[0]
        assert dist.histogram == {k: 9}
        assert dist.q_cutoff == k
        assert dist.author_volume == 9


# 7 ----------------------------------------------------------------------

GOLDEN_SHA256 = "3a06f062c28a65adc4f957e5c94d94bee74aa7a5321616836a99e24b367a1cec"


def _golden_fixture():
    table_journals = {f"j{i}": [f"t{i}"] for i in range(6)}
    topic_area = {
        "t0": "a0", "t1": "a0", "t2": "a1", "t3": "a1", "t4": "a2", "t5": "a2",
    }
    net = FlowNetwork(
        "topic",
        1910,
        1915,
        {
            ("t0", "t0"): 4,
            ("t0", "t1"): 3,
            ("t1", "t2"): 2,
            ("t2", "t4"): 1,
            ("t4", "t0"): 2,
            ("t3", "t5"): 5,
            ("t5", "t3"): 1,
        },
    )
    return table_journals, topic_area, net


def test_criterion_7_visualization_golden(make_table):
    with criterion("criterion 7 (golden SVG: well-formed, stable, consistent geometry)"):
        journals, topic_area, net = _golden_fixture()
        table = make_table(journals, topic_area)
        cfg = VizConfig(min_weight=2.0)
        svg = render_svg(net, table, cfg)
        assert render_svg(net, table, cfg) == svg  # byte-identical re-render

        root = ET.fromstring(svg)  # well-formed XML
        paths = [el for el in root.iter() if el.tag.endswith("path")]
        edges = [el for el in paths if el.get("class", "").startswith("edge")]
        expected_edges = [
            (pair, w)
            for pair, w in net.weights.items()
            if pair[0] != pair[1] and w >= cfg.min_weight
        ]
        assert len(edges) == len(expected_edges) == 4

        got_widths = sorted({float(el.get("stroke-width")) for el in edges})
        expected_widths = sorted(
            {cfg.width_min + cfg.width_scale * w for _, w in expected_edges}
        )
        assert got_widths == pytest.approx(expected_widths)
        assert all(a < b for a, b in zip(got_widths, got_widths[1:]))

        lay = layout(net, table, cfg)
        for node, angle in lay.node_angle.items():
            a0, a1 = lay.sector_arc[lay.node_area[node]]
            assert a0 < angle < a1

        digest = hashlib.sha256(svg.encode("utf-8")).hexdigest()
        assert digest == GOLDEN_SHA256, f"golden drifted: {digest}"


# 8 ----------------------------------------------------------------------

def _peak_rss_bytes():
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) * 1024


@pytest.mark.slow
def test_criterion_8_desk_scale_performance(tmp_path):
    with criterion("criterion 8 (1M records through flows: <60s, <2GB, thread-stable)"):
        spec = SyntheticSpec(
            n_authors=100_000,
            n_topics=40,
            n_areas=8,
            n_snapshots=4,
            mobility=0.3,
            skew=1.0,
            seed=8,
        )
        corpus = generate_corpus(spec, SnapshotGrid(1910, 2014, 5), tmp_path / "corpus")
        assert corpus.n_records >= 1_000_000, corpus.n_records

        grid = corpus.grid
        args = [
            "--records", str(corpus.records_path),
            "--journal-topics", str(corpus.journal_topics_path),
            "--topic-areas", str(corpus.topic_areas_path),
            "--start-year", str(grid.start_year),
            "--end-year", str(grid.end_year),
            "--width", str(grid.width_years),
        ]
        out = tmp_path / "run"
        start = time.perf_counter()
        assert main(["ingest", *args, "--out", str(out)]) == 0
        assert main(["flows", *args, "--out", str(out)]) == 0
        elapsed = time.perf_counter() - start
        peak = _peak_rss_bytes()
        print(f"\n  ingest+flows on {corpus.n_records} records: "
              f"{elapsed:.1f}s, peak rss {peak / 1e9:.2f} GB")
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        assert peak < 2e9, f"peak rss {peak / 1e9:.2f} GB"

        def flow_bytes(directory):
            return {
                p.name: p.read_bytes() for p in sorted(directory.glob("flows_*.tsv"))
            }

        reference = flow_bytes(out)
        assert reference  # sanity
        for threads in (1, 4):
            rerun = tmp_path / f"run_t{threads}"
            assert main([
                "ingest", *args, "--out", str(rerun), "--threads", str(threads),
            ]) == 0
            assert main([
                "flows", *args, "--out", str(rerun), "--threads", str(threads),
            ]) == 0
            assert flow_bytes(rerun) == reference, f"threads={threads} diverged"
