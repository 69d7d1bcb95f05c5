from __future__ import annotations

import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from topicflow.classification import ClassificationTable
from topicflow.flows import (
    FlowNetwork,
    build_flow_networks,
    count_transitions,
    dominant_topics,
    flow_networks_from_profiles,
    load_flow_network,
    write_flow_network,
)
import topicflow.cli as cli_module
from topicflow.cli import main
from topicflow.errors import (
    EmptySet, InvariantViolation, MalformedLine, UnknownTopic, UsageError,
)
from topicflow.ingest import ActivityProfile, SnapshotGrid


def profile(author, snapshot, counts):
    return ActivityProfile(author, snapshot, counts)


def ds(author, snapshot, topics):
    return author, snapshot, frozenset(topics)


# -- dominant sets --

def test_dominant_topics_tie_retained():
    got = dominant_topics(profile("x", 1910, {"A": 2, "B": 2, "C": 1}))
    assert got == frozenset({"A", "B"})


def test_dominant_topics_single():
    assert dominant_topics(profile("x", 1910, {"A": 5})) == frozenset({"A"})


def test_dominant_topics_full_tie():
    got = dominant_topics(profile("x", 1910, {"A": 1, "B": 1, "C": 1}))
    assert got == frozenset({"A", "B", "C"})


# -- transition counting: the worked cases --

def test_pure_move_counts_all_combinations():
    assert count_transitions({"A"}, {"B"}) == {("A", "B"): 1}


def test_vanishing_topic_one_self_transition():
    assert count_transitions({"A", "B"}, {"A"}) == {("A", "A"): 1}


def test_full_persistence_two_self_transitions():
    assert count_transitions({"A", "B"}, {"A", "B"}) == {("A", "A"): 1, ("B", "B"): 1}


def test_appearing_topic_fed_from_every_source():
    got = count_transitions({"A", "B", "C"}, {"A", "B", "D"})
    assert got == {
        ("A", "A"): 1,
        ("B", "B"): 1,
        ("A", "D"): 1,
        ("B", "D"): 1,
        ("C", "D"): 1,
    }


def test_two_to_two_cross_all_pairs():
    got = count_transitions({"A", "B"}, {"C", "D"})
    assert got == {(s, t): 1 for s in "AB" for t in "CD"}


def test_empty_sets_rejected():
    with pytest.raises(EmptySet):
        count_transitions(set(), {"A"})
    with pytest.raises(EmptySet):
        count_transitions({"A"}, set())


def test_uniform_mode_splits_appearing_weight():
    got = count_transitions({"A", "B"}, {"A", "C"}, appearing_weight="uniform")
    assert got[("A", "A")] == 1
    assert got[("A", "C")] == Fraction(1, 2)
    assert got[("B", "C")] == Fraction(1, 2)
    assert sum(got.values()) == 2  # one persisting + one appearing


_topic_sets = st.sets(
    st.sampled_from("ABCDEFGH"), min_size=1, max_size=8
)


@given(_topic_sets, _topic_sets)
def test_total_weight_closed_form(source, target):
    got = count_transitions(source, target)
    assert sum(got.values()) == len(source & target) + len(source) * len(target - source)
    assert all(w > 0 for w in got.values())


@given(_topic_sets, _topic_sets)
def test_uniform_total_weight_closed_form(source, target):
    # each appearing topic receives exactly one unit split across sources
    got = count_transitions(source, target, appearing_weight="uniform")
    assert sum(got.values()) == len(source & target) + len(target - source)


@given(_topic_sets, _topic_sets, st.permutations(list("ABCDEFGH")))
def test_relabeling_equivariance(source, target, perm):
    mapping = dict(zip("ABCDEFGH", perm))
    base = count_transitions(source, target)
    relabeled = count_transitions(
        {mapping[s] for s in source}, {mapping[t] for t in target}
    )
    assert relabeled == {
        (mapping[s], mapping[t]): w for (s, t), w in base.items()
    }


# -- network building --

GRID2 = SnapshotGrid(1910, 1919, 5)  # labels 1910, 1915
PAIR_1910 = {"from_snapshot": 1910, "to_snapshot": 1915}  # GRID2's one pair, as loaded
_LETTERS = ClassificationTable({"J": tuple("ABCDE")}, dict.fromkeys("ABCDE", "X"))  # flow nodes


def test_self_persistence_single_author():
    nets = build_flow_networks([ds("x", 1910, "A"), ds("x", 1915, "A")], GRID2)
    assert len(nets) == 1
    assert nets[0].weights == {("A", "A"): 1}
    assert (nets[0].from_snapshot, nets[0].to_snapshot) == (1910, 1915)


def test_single_snapshot_author_contributes_nothing():
    nets = build_flow_networks([ds("x", 1910, "A")], GRID2)
    assert nets[0].weights == {}


def test_two_authors_add_up():
    sets = [ds("x", 1910, "A"), ds("x", 1915, "B"), ds("y", 1910, "A"), ds("y", 1915, "B")]
    nets = build_flow_networks(sets, GRID2)
    assert nets[0].weights == {("A", "B"): 2}


def test_gap_snapshots_do_not_bridge():
    grid = SnapshotGrid(1910, 1924, 5)  # labels 1910, 1915, 1920
    sets = [ds("x", 1910, "A"), ds("x", 1920, "B")]
    nets = build_flow_networks(sets, grid)
    assert all(net.weights == {} for net in nets)


def _oracle_dominant(counts, level_map=None):
    """The argmax set of ``counts``, summed per ``level_map[key]`` first if given."""
    if level_map:
        summed = {}
        for key, count in counts.items():
            summed[level_map[key]] = summed.get(level_map[key], 0) + count
        counts = summed
    top = max(counts.values())
    return frozenset(key for key, count in counts.items() if count == top)


def _oracle_build(author_sets, grid, level_map=None, uniform=False):
    """Per-author recount with independently written counting; ``uniform``
    splits each appearing node's unit over the earlier set."""
    totals = {pair: {} for pair in grid.label_pairs()}
    for sets in author_sets.values():
        mapped = {
            snap: frozenset(level_map[t] for t in topics) if level_map else topics
            for snap, topics in sets.items()
        }
        for earlier, later in grid.label_pairs():
            if earlier not in mapped or later not in mapped:
                continue
            src, dst = mapped[earlier], mapped[later]
            bucket = totals[(earlier, later)]
            for t in dst & src:
                bucket[(t, t)] = bucket.get((t, t), 0) + 1
            for t in dst - src:
                for s in src:
                    bucket[(s, t)] = bucket.get((s, t), 0) + (
                        Fraction(1, len(src)) if uniform else 1
                    )
    return totals


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_build_matches_per_author_oracle(seed):
    rng = random.Random(seed)
    grid = SnapshotGrid(1900, 1929, 5)
    topics = list("ABCDEF")
    author_sets = {}
    for i in range(40):
        sets = {}
        for label in grid.labels():
            if rng.random() < 0.6:
                sets[label] = frozenset(rng.sample(topics, rng.randint(1, 3)))
        if sets:
            author_sets[f"a{i}"] = sets
    dominant = [
        ds(a, snap, topics) for a, sets in author_sets.items() for snap, topics in sets.items()
    ]
    nets = build_flow_networks(sorted(dominant), grid)
    expected = _oracle_build(author_sets, grid)
    for net in nets:
        assert net.weights == expected[(net.from_snapshot, net.to_snapshot)]
        assert all(isinstance(w, int) and w > 0 for w in net.weights.values())


def _profiles_with_sets(sets):
    """Profiles whose dominant topic sets are the given ``(author, snapshot, nodes)``."""
    return [profile(a, snapshot, dict.fromkeys(nodes, 1)) for a, snapshot, nodes in sets]


def test_area_level_maps_then_dedups(make_table):
    table = make_table({"J": ["T1", "T2", "T3"]}, {"T1": "A1", "T2": "A1", "T3": "A2"})
    sets = [ds("x", 1910, {"T1", "T2"}), ds("x", 1915, {"T3"})]
    nets = flow_networks_from_profiles(_profiles_with_sets(sets), GRID2, level="area", table=table)
    # {T1,T2} -> {A1}; one appearing area from one source area
    assert nets[0].weights == {("A1", "A2"): 1}


@pytest.mark.parametrize("seed", [5, 6])
def test_area_level_equals_scratch_area_oracle(seed, make_table):
    rng = random.Random(seed)
    topics = [f"T{i}" for i in range(6)]
    table = make_table(
        {"J": topics}, {t: f"A{i % 3}" for i, t in enumerate(topics)}, prefix=f"x{seed}"
    )
    grid = SnapshotGrid(1900, 1919, 5)
    author_sets = {}
    for i in range(30):
        sets = {}
        for label in grid.labels():
            if rng.random() < 0.7:
                sets[label] = frozenset(rng.sample(topics, rng.randint(1, 3)))
        if sets:
            author_sets[f"a{i}"] = sets
    dominant = [
        ds(a, snap, tset) for a, sets in author_sets.items() for snap, tset in sets.items()
    ]
    nets = flow_networks_from_profiles(
        _profiles_with_sets(sorted(dominant)), grid, level="area", table=table
    )
    expected = _oracle_build(author_sets, grid, level_map=table.topic_area)
    for net in nets:
        assert net.weights == expected[(net.from_snapshot, net.to_snapshot)]


def test_argmax_area_mode_differs_from_mapped(make_table):
    table = make_table(
        {"J1": ["T1"], "J2": ["T2"], "J3": ["T3"]},
        {"T1": "A1", "T2": "A2", "T3": "A2"},
    )
    profiles = [
        profile("x", 1910, {"T1": 3, "T2": 2, "T3": 2}),
        profile("x", 1915, {"T1": 1}),
    ]
    mapped = flow_networks_from_profiles(
        profiles, GRID2, level="area", table=table, area_mode="mapped"
    )
    argmax = flow_networks_from_profiles(
        profiles, GRID2, level="area", table=table, area_mode="argmax"
    )
    # dominant topic {T1} maps to {A1}; area totals are A1=3 < A2=4
    assert mapped[0].weights == {("A1", "A1"): 1}
    assert argmax[0].weights == {("A2", "A1"): 1}


def test_both_levels_share_one_dominant_set_per_profile(make_table, monkeypatch):
    import topicflow.flows as flows_module

    table = make_table(
        {"J": ["T1", "T2", "T3"]}, {"T1": "A1", "T2": "A2", "T3": "A2"}
    )
    rng = random.Random(3)
    profiles = sorted(
        profile(f"a{i}", label, {t: rng.randint(1, 3) for t in rng.sample(["T1", "T2", "T3"], 2)})
        for i in range(20)
        for label in (1910, 1915)
    )
    calls = []
    original = flows_module.dominant_topics
    monkeypatch.setattr(
        flows_module, "dominant_topics", lambda p: calls.append(p) or original(p)
    )
    for area_mode in ("mapped", "argmax"):
        calls.clear()
        kwargs = dict(table=table, area_mode=area_mode)
        both = flow_networks_from_profiles(profiles, GRID2, level="both", **kwargs)
        assert len(calls) == len(profiles)
        separate = [
            net
            for level in ("topic", "area")
            for net in flow_networks_from_profiles(profiles, GRID2, level=level, **kwargs)
        ]
        assert [(n.level, n.from_snapshot, n.weights) for n in both] == [
            (n.level, n.from_snapshot, n.weights) for n in separate
        ]


def test_flow_fold_keeps_nothing_per_profile(make_table):
    # 50,000 profiles of 12,500 authors, whose dominant sets recur. A fold
    # holding one pointer per profile, as a list of each profile's set per
    # level does, needs 8 bytes per profile (400 kB) for it alone.
    table = make_table({"J": ["T1", "T2", "T3", "T4"]},
                       {"T1": "A1", "T2": "A1", "T3": "A2", "T4": "A3"})
    patterns = [{"T1": 2, "T2": 1}, {"T2": 3}, {"T1": 1, "T3": 1}, {"T3": 2, "T4": 2}]
    grid = SnapshotGrid(1910, 1929, 5)
    n_authors = 12_500
    n_profiles = n_authors * len(grid.labels())

    def profiles():
        for i in range(n_authors):
            author = f"a{i:05d}"
            for k, label in enumerate(grid.labels()):
                yield profile(author, label, dict(patterns[(i + k * (i % 3)) % 4]))

    tracemalloc.start()
    try:
        nets = flow_networks_from_profiles(profiles(), grid, level="both", table=table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(n.level, n.from_snapshot) for n in nets] == [
        (level, a) for level in ("topic", "area") for a, _ in grid.label_pairs()
    ]
    # Each author adds at least one unit of area flow per pair: the fold saw every profile.
    assert sum(sum(n.weights.values()) for n in nets if n.level == "area") > 3 * n_authors
    assert peak < 8 * n_profiles


@pytest.mark.parametrize("sets", [
    [ds("x", 1910, "A"), ds("x", 1910, "B")],  # a repeated (author, snapshot)
    [ds("x", 1915, "A"), ds("x", 1910, "B")],  # a snapshot going backwards
    [ds("x", 1910, "A"), ds("y", 1910, "A"), ds("x", 1915, "B")],  # x returns after y
], ids=["repeat", "backwards", "author-returns"])
def test_sets_out_of_author_snapshot_order_are_an_invariant_violation(sets, make_table):
    table = make_table({"J": ["A", "B"]}, {"A": "X", "B": "Y"})
    with pytest.raises(InvariantViolation, match=r"does not follow .* \(author, snapshot\) order"):
        build_flow_networks(sets, GRID2)
    for level in ("topic", "area", "both"):
        with pytest.raises(InvariantViolation):
            flow_networks_from_profiles(_profiles_with_sets(sets), GRID2, level=level, table=table)


def test_unknown_appearing_weight_is_rejected_even_without_transitions():
    # A lone set has no transition to count, so the check cannot wait for one.
    with pytest.raises(UsageError, match="appearing_weight must be 'unit' or 'uniform'"):
        build_flow_networks([("x", 1910, frozenset("A"))], SnapshotGrid(1910, 1919, 5),
                            appearing_weight="bogus")
    with pytest.raises(UsageError, match="appearing_weight must be 'unit' or 'uniform'"):
        flow_networks_from_profiles([profile("x", 1910, {"A": 1})], SnapshotGrid(1910, 1919, 5),
                                    table=_TABLE, appearing_weight="bogus")


_TOPICS = [f"T{i}" for i in range(6)]
_TABLE = ClassificationTable({"J": tuple(_TOPICS)}, {t: f"A{i % 3}" for i, t in enumerate(_TOPICS)})
_GRID4 = SnapshotGrid(1900, 1919, 5)  # labels 1900, 1905, 1910, 1915
# Authors whose lexicographic order differs from their numeric one; each has
# one to four snapshots, so gaps and single-snapshot authors occur.
_corpora = st.dictionaries(
    st.sampled_from(["a", "a1", "a10", "a2", "a9", "b"]),
    st.dictionaries(
        st.sampled_from(_GRID4.labels()),
        st.dictionaries(st.sampled_from(_TOPICS), st.integers(1, 3), min_size=1),
        min_size=1,
    ),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(_corpora, st.sampled_from(["mapped", "argmax"]), st.sampled_from(["unit", "uniform"]))
def test_profiles_match_per_author_oracle(corpus, area_mode, appearing_weight):
    profiles = sorted(
        profile(a, snapshot, counts)
        for a, snaps in corpus.items()
        for snapshot, counts in snaps.items()
    )
    nets = flow_networks_from_profiles(
        profiles, _GRID4, level="both", table=_TABLE, area_mode=area_mode,
        appearing_weight=appearing_weight,
    )
    uniform = appearing_weight == "uniform"
    topic_sets = {
        a: {snapshot: _oracle_dominant(counts) for snapshot, counts in snaps.items()}
        for a, snaps in corpus.items()
    }
    if area_mode == "mapped":
        area = _oracle_build(topic_sets, _GRID4, level_map=_TABLE.topic_area, uniform=uniform)
    else:
        area_sets = {
            a: {s: _oracle_dominant(counts, _TABLE.topic_area) for s, counts in snaps.items()}
            for a, snaps in corpus.items()
        }
        area = _oracle_build(area_sets, _GRID4, uniform=uniform)
    expected = {"topic": _oracle_build(topic_sets, _GRID4, uniform=uniform), "area": area}
    pairs = _GRID4.label_pairs()
    assert [(n.level, (n.from_snapshot, n.to_snapshot)) for n in nets] == [
        (level, pair) for level in ("topic", "area") for pair in pairs
    ]
    for net in nets:
        assert net.weights == expected[net.level][(net.from_snapshot, net.to_snapshot)]


def _flow_files_at_threads(tmp_path, make_classification, make_records, sets, grid,
                           threads, *flags):
    """CLI ingest + flows over records whose dominant sets are ``sets``
    (one paper per topic); return each ``--threads`` run's flow files."""
    topics = sorted({t for _, _, nodes in sets for t in nodes})
    jt, ta = make_classification({f"J{t}": [t] for t in topics}, {t: "X" for t in topics})
    records = make_records(
        [(author, f"{author}-{snapshot}-{t}", f"J{t}", snapshot)
         for author, snapshot, nodes in sets for t in sorted(nodes)]
    )
    args = [
        "--records", str(records), "--journal-topics", str(jt), "--topic-areas", str(ta),
        "--start-year", str(grid.start_year), "--end-year", str(grid.end_year),
        "--level", "topic", *flags,
    ]
    trees = {}
    for n in threads:
        out = tmp_path / f"run_t{n}"
        assert main(["ingest", *args, "--out", str(out)]) == 0
        assert main(["flows", *args, "--out", str(out), "--threads", str(n)]) == 0
        trees[n] = {p.name: p.read_bytes() for p in sorted(out.glob("flows_*.tsv"))}
    return trees


def test_threads_setting_does_not_change_result(tmp_path, make_classification, make_records):
    rng = random.Random(9)
    grid = SnapshotGrid(1900, 1929, 5)
    sets = []
    for i in range(60):
        for label in grid.labels():
            if rng.random() < 0.5:
                sets.append(ds(f"a{i}", label, frozenset(rng.sample("ABCDE", rng.randint(1, 2)))))
    trees = _flow_files_at_threads(
        tmp_path, make_classification, make_records, sets, grid, (1, 3)
    )
    assert trees[1] == trees[3]
    for net in build_flow_networks(sorted(sets), grid):
        path = tmp_path / "run_t3" / f"flows_topic_{net.from_snapshot}_{net.to_snapshot}.tsv"
        loaded = load_flow_network(path, table=_LETTERS, level="topic",
                                   from_snapshot=net.from_snapshot, to_snapshot=net.to_snapshot)
        assert loaded.weights == net.weights


def test_uniform_weights_are_exact_across_threads(tmp_path, make_classification, make_records):
    sets = [
        ds("x", 1910, {"A", "B", "C"}),
        ds("x", 1915, {"D"}),
        ds("y", 1910, {"A", "B", "C"}),
        ds("y", 1915, {"D"}),
    ]
    profiles = _profiles_with_sets(sets)
    # Topic-level flows map no topic to its area, so any table serves.
    exact = flow_networks_from_profiles(profiles, GRID2, table=_TABLE, appearing_weight="uniform")
    built = build_flow_networks(sets, GRID2, appearing_weight="uniform")
    assert exact[0].weights == built[0].weights
    assert exact[0].weights[("A", "D")] == Fraction(2, 3)
    assert isinstance(exact[0].weights[("A", "D")], Fraction)
    trees = _flow_files_at_threads(
        tmp_path, make_classification, make_records, sets, GRID2, (1, 2),
        "--appearing-weight", "uniform",
    )
    assert trees[1] == trees[2]
    loaded = load_flow_network(
        tmp_path / "run_t2" / "flows_topic_1910_1915.tsv", table=_LETTERS, level="topic",
        **PAIR_1910,
    )
    assert loaded.weights == {edge: float(w) for edge, w in exact[0].weights.items()}


# -- serialization --

def test_flow_roundtrip_and_sorted_rows(tmp_path):
    net = FlowNetwork(
        level="topic",
        from_snapshot=1910,
        to_snapshot=1915,
        weights={("B", "A"): 2, ("A", "B"): 1, ("A", "A"): 3},
    )
    path = tmp_path / "net.tsv"
    write_flow_network(net, path)
    body = path.read_text().splitlines()
    assert body[0].startswith("#")
    assert body[1:] == [
        "1910\t1915\tA\tA\t3",
        "1910\t1915\tA\tB\t1",
        "1910\t1915\tB\tA\t2",
    ]
    again = load_flow_network(path, table=_LETTERS, level="topic", **PAIR_1910)
    assert again.weights == net.weights
    assert (again.from_snapshot, again.to_snapshot) == (1910, 1915)


def test_empty_network_header_only(tmp_path):
    net = FlowNetwork(level="topic", from_snapshot=1910, to_snapshot=1915, weights={})
    path = tmp_path / "net.tsv"
    write_flow_network(net, path)
    assert path.read_text().splitlines() == ["#from_snapshot\tto_snapshot\tsource\ttarget\tweight"]
    again = load_flow_network(path, table=_LETTERS, level="topic", **PAIR_1910)
    assert again.weights == {}


def test_load_rejects_inconsistent_labels(tmp_path):
    path = tmp_path / "net.tsv"
    path.write_text("1910\t1915\tA\tB\t1\n1915\t1920\tB\tC\t1\n")
    with pytest.raises(MalformedLine, match=re.escape(f"{path}:2: inconsistent snapshot labels")):
        load_flow_network(path, table=_LETTERS, level="topic", **PAIR_1910)


def test_load_label_spellings_give_the_same_network(tmp_path):
    rows = [("A", "A", 3), ("A", "B", 1), ("B", "A", 2), ("B", "C", 2)]
    plain, mixed = tmp_path / "plain.tsv", tmp_path / "mixed.tsv"
    plain.write_text("".join(f"1910\t1915\t{s}\t{t}\t{w}\n" for s, t, w in rows))
    mixed.write_text("".join(
        f"{'01910' if i % 2 else '1910'}\t{'1915' if i % 3 else '01915'}\t{s}\t{t}\t{w}\n"
        for i, (s, t, w) in enumerate(rows)
    ))
    expected = load_flow_network(plain, table=_LETTERS, level="topic", **PAIR_1910)
    assert len(expected.weights) == 4
    assert load_flow_network(mixed, table=_LETTERS, level="topic", **PAIR_1910) == expected


@pytest.mark.parametrize("level,row,message", [
    ("topic", "1910\t1915\tA\tZ\t1", "unknown topic 'Z'"),
    ("topic", "1910\t1915\tX\tA\t1", "unknown topic 'X'"),  # an area is no topic
    ("area", "1910\t1915\tX\tA\t1", "unknown area 'A'"),
    ("topic", "1910\t1915\tA\tZ\u00a0\t1", "target must be a non-empty token"),
])
def test_load_refuses_nodes_not_in_the_table(tmp_path, level, row, message):
    path = tmp_path / "net.tsv"
    first = "X" if level == "area" else "A"
    path.write_text(f"1910\t1915\t{first}\t{first}\t2\n{row}\n")
    with pytest.raises((UnknownTopic, MalformedLine), match=re.escape(f"{path}:2: {message}")):
        load_flow_network(path, table=_LETTERS, level=level, **PAIR_1910)


@pytest.mark.parametrize("command", ["metrics", "viz", "report"])
def test_flow_file_nodes_outside_the_table_exit_two(tmp_path, capsys, monkeypatch, command):
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    assert main(["synth", "--out", str(corpus), "--authors", "25", "--topics", "6",
                 "--areas", "3", "--snapshots", "3", "--end-year", "1924"]) == 0
    args = ["--records", str(corpus / "records.tsv"), "--end-year", "1924", "--out", str(out),
            "--journal-topics", str(corpus / "journal_topics.tsv"),
            "--topic-areas", str(corpus / "topic_areas.tsv")]
    path = out / "flows_topic_1910_1915.tsv"

    def stranger():  # t000 becomes t999 on the file's first row, its line 2
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("\tt000\t", "\tt999\t", 1), encoding="utf-8")

    if command == "report":  # report reads back the flow files it writes
        write = cli_module.flows.write_flow_network
        monkeypatch.setattr(cli_module.flows, "write_flow_network", lambda net, p: (
            write(net, p), p == path and stranger()))
    else:
        assert main(["report", *args]) == 0
        stranger()
    capsys.readouterr()
    pair = ["--pair", "1910", "1915"] if command == "viz" else []
    assert main([command, *args, *pair]) == 2
    err = capsys.readouterr().err.splitlines()[-1]  # report also prints its ingest stats
    assert err == f"topicflow: error: {path}:2: unknown topic 't999'"


@pytest.mark.parametrize("last,message", [
    ("1910\t1915\tB\tC\t0", "weights must be finite and strictly positive"),
    ("1910\t1915\tB\tC\t2.0x", "bad weight '2.0x'"),
    ("1910\t1915\tB\tA\u00a0\t2", "target must be a non-empty token"),
    ("1910\t1915.0\tB\tC\t2", "snapshot labels must be integers"),
])
def test_load_checks_a_new_text_after_remembered_ones(tmp_path, last, message):
    path = tmp_path / "net.tsv"
    path.write_text(f"1910\t1915\tA\tA\t2\n1910\t1915\tA\tB\t2\n{last}\n")
    with pytest.raises(MalformedLine, match=re.escape(f"{path}:3: {message}")):
        load_flow_network(path, table=_LETTERS, level="topic", **PAIR_1910)
