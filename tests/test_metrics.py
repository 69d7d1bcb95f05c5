from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from topicflow.classification import ClassificationTable
from topicflow.flows import FlowNetwork
from topicflow.ingest import ActivityProfile, SnapshotGrid
from topicflow.metrics import (
    MigrationIndices,
    ZeroBaselinePolicy,
    attractiveness_table,
    median_sink_source,
    migration_index_series,
    migration_indices,
    most_attractive_topics,
    multidisciplinarity,
)
from topicflow.errors import UsageError
from conftest import ingested


def topic_net(to_snapshot, weights, width=5):
    return FlowNetwork("topic", to_snapshot - width, to_snapshot, dict(weights))


def area_net(to_snapshot, weights, width=5):
    return FlowNetwork("area", to_snapshot - width, to_snapshot, dict(weights))


# -- literal transcriptions used as oracles --

def incoming_of(net, topic):
    return {s: w for (s, t), w in net.weights.items() if t == topic and s != topic}


def delta_literal(prev, cur, topic, n_topics, policy):
    base = incoming_of(prev, topic)
    now = incoming_of(cur, topic)
    if policy.kind == "smooth":
        terms = [
            (now.get(s, 0) - base.get(s, 0)) / (base.get(s, 0) + policy.k)
            for s in sorted(set(base) | set(now))
        ]
        return sum(terms) / (n_topics - 1)
    terms = [(now.get(s, 0) - w) / w for s, w in sorted(base.items()) if w > 0]
    if policy.kind == "strict":
        return sum(terms) / (n_topics - 1)
    return sum(terms) / len(terms) if terms else 0.0


def indices_literal(net, area):
    intra = net.weights.get((area, area), 0)
    v_to = sum(w for (s, t), w in net.weights.items() if t == area and s != t)
    v_from = sum(w for (s, t), w in net.weights.items() if s == area and s != t)
    total = sum(w for (s, t), w in net.weights.items() if s != t)
    div = lambda a, b: a / b if b else 0.0
    return (
        div(v_to, intra + v_to),
        div(v_from, intra + v_from),
        div(v_to, total),
        div(v_from, total),
    )


# -- attractiveness --

def test_policy_parse():
    assert ZeroBaselinePolicy.parse("strict").kind == "strict"
    assert ZeroBaselinePolicy.parse("smooth:0.5") == ZeroBaselinePolicy("smooth", 0.5)
    with pytest.raises(UsageError):
        ZeroBaselinePolicy.parse("median")
    with pytest.raises(UsageError):
        ZeroBaselinePolicy.parse("smooth:zero")


@pytest.mark.parametrize("k", ["0", "-1", "nan", "inf", "-inf"])
def test_smoothing_constant_must_be_finite_and_positive(k):
    with pytest.raises(UsageError, match="finite k > 0"):
        ZeroBaselinePolicy.parse(f"smooth:{k}")


def test_delta_hand_example_active_policy():
    prev = topic_net(1915, {("X", "T"): 2, ("Y", "T"): 4})
    cur = topic_net(1920, {("X", "T"): 3, ("Y", "T"): 2})
    table = attractiveness_table([prev, cur], ZeroBaselinePolicy("active"), n_topics=3)
    # (0.5 + (-0.5)) / 2 = 0
    assert table[(1920, "T")] == (0.0, 2)


def test_delta_strict_uses_full_denominator():
    prev = topic_net(1915, {("X", "T"): 2})
    cur = topic_net(1920, {("X", "T"): 3})
    strict = attractiveness_table([prev, cur], ZeroBaselinePolicy("strict"), n_topics=306)
    assert strict[(1920, "T")][0] == pytest.approx(0.5 / 305, abs=1e-15)
    active = attractiveness_table([prev, cur], ZeroBaselinePolicy("active"), n_topics=2)
    assert active[(1920, "T")][0] == 0.5


def test_delta_zero_when_flows_unchanged():
    weights = {("X", "T"): 2, ("Y", "T"): 7, ("T", "X"): 1}
    prev = topic_net(1915, weights)
    cur = topic_net(1920, weights)
    for policy in (
        ZeroBaselinePolicy("strict"),
        ZeroBaselinePolicy("active"),
        ZeroBaselinePolicy("smooth", 1.0),
    ):
        assert attractiveness_table([prev, cur], policy, n_topics=3)[(1920, "T")][0] == 0.0


def test_delta_excludes_self_flow():
    prev = topic_net(1915, {("T", "T"): 5, ("X", "T"): 1})
    cur = topic_net(1920, {("T", "T"): 50, ("X", "T"): 1})
    table = attractiveness_table([prev, cur], ZeroBaselinePolicy("active"), n_topics=2)
    assert table[(1920, "T")][0] == 0.0


def test_delta_smooth_covers_zero_baselines():
    prev = topic_net(1915, {("Y", "X"): 1})
    cur = topic_net(1920, {("Z", "T"): 3})
    table = attractiveness_table([prev, cur], ZeroBaselinePolicy("smooth", 1.0), n_topics=4)
    # only Z->T changed: (3-0)/(0+1) / (4-1)
    delta, pairs_used = table[(1920, "T")]
    assert delta == pytest.approx(1.0, abs=1e-15)
    assert pairs_used == 0


def test_no_baseline_error():
    # without two consecutive networks there is no baseline, so no row
    assert attractiveness_table([topic_net(1915, {("X", "T"): 1})], n_topics=2) == {}
    gap = [topic_net(1915, {("X", "T"): 1}), topic_net(1930, {("X", "T"): 1})]
    assert attractiveness_table(gap, n_topics=2) == {}


def test_unknown_topic_error():
    # a topic absent from every network gets no row
    nets = [topic_net(1915, {("X", "T"): 1}), topic_net(1920, {("X", "T"): 1})]
    assert set(attractiveness_table(nets, n_topics=2)) == {(1920, "T"), (1920, "X")}


def test_delta_active_invariant_under_uniform_scaling():
    prev = topic_net(1915, {("X", "T"): 2, ("Y", "T"): 5, ("Z", "T"): 1})
    cur = topic_net(1920, {("X", "T"): 3, ("Y", "T"): 2, ("Z", "T"): 9})
    active = ZeroBaselinePolicy("active")
    base = attractiveness_table([prev, cur], active, n_topics=4)[(1920, "T")][0]
    for c in (2, 7, 1000):
        scaled = [
            topic_net(1915, {k: w * c for k, w in prev.weights.items()}),
            topic_net(1920, {k: w * c for k, w in cur.weights.items()}),
        ]
        got = attractiveness_table(scaled, active, n_topics=4)[(1920, "T")][0]
        assert got == base


def test_most_attractive_engineered_winner():
    prev = topic_net(1915, {("X", "T"): 1, ("X", "U"): 4, ("Y", "U"): 4})
    cur = topic_net(1920, {("X", "T"): 5, ("X", "U"): 4, ("Y", "U"): 4})
    table = attractiveness_table([prev, cur], ZeroBaselinePolicy("active"), n_topics=4)
    winners = most_attractive_topics(table)
    assert winners[1920].topic == "T"
    assert winners[1920].delta == 4.0
    assert winners[1920].ties == ("T",)


def test_most_attractive_tie_reported_lexicographic():
    prev = topic_net(1915, {("X", "T"): 1, ("X", "S"): 1})
    cur = topic_net(1920, {("X", "T"): 2, ("X", "S"): 2})
    table = attractiveness_table([prev, cur], ZeroBaselinePolicy("active"), n_topics=3)
    winners = most_attractive_topics(table)
    assert winners[1920].ties == ("S", "T")
    assert winners[1920].topic == "S"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_most_attractive_matches_exhaustive_oracle(seed):
    rng = random.Random(seed)
    topics = list("PQRST")
    def rand_net(to_snapshot):
        weights = {}
        for s in topics:
            for t in topics:
                if rng.random() < 0.4:
                    weights[(s, t)] = rng.randint(1, 9)
        weights[("P", "Q")] = weights.get(("P", "Q"), 1)  # keep it non-empty
        return topic_net(to_snapshot, weights)

    prev, cur = rand_net(1915), rand_net(1920)
    policy = ZeroBaselinePolicy("active")
    winners = most_attractive_topics(
        attractiveness_table([prev, cur], policy, n_topics=len(topics))
    )
    candidates = sorted(prev.nodes() | cur.nodes())
    scored = {
        t: delta_literal(prev, cur, t, len(topics), policy) for t in candidates
    }
    best = max(scored.values())
    expected = sorted(t for t, d in scored.items() if d == best)[0]
    assert winners[1920].topic == expected
    assert winners[1920].delta == pytest.approx(best, abs=1e-12)


def test_winner_invariant_under_relabeling_of_losers():
    prev = topic_net(1915, {("X", "T"): 1, ("X", "U"): 4, ("U", "X"): 2})
    cur = topic_net(1920, {("X", "T"): 5, ("X", "U"): 4, ("U", "X"): 2})
    policy = ZeroBaselinePolicy("active")
    base = most_attractive_topics(attractiveness_table([prev, cur], policy, n_topics=3))[1920]
    relabel = {"X": "ZZ", "U": "QQ", "T": "T"}
    nets = [
        topic_net(1915, {(relabel[s], relabel[t]): w for (s, t), w in prev.weights.items()}),
        topic_net(1920, {(relabel[s], relabel[t]): w for (s, t), w in cur.weights.items()}),
    ]
    again = most_attractive_topics(attractiveness_table(nets, policy, n_topics=3))[1920]
    assert again.topic == base.topic == "T"
    assert again.delta == base.delta


@pytest.mark.parametrize("policy", ["strict", "active", "smooth:0.7"])
@pytest.mark.parametrize("seed", [3, 4])
def test_attractiveness_table_matches_literal_oracle(policy, seed):
    rng = random.Random(seed)
    topics = [f"t{i}" for i in range(6)]
    def rand_net(to_snapshot):
        weights = {}
        for s in topics:
            for t in topics:
                if rng.random() < 0.35:
                    weights[(s, t)] = rng.randint(1, 20)
        weights[(topics[0], topics[1])] = 1
        return topic_net(to_snapshot, weights)

    nets = [rand_net(1915), rand_net(1920), rand_net(1925)]
    pol = ZeroBaselinePolicy.parse(policy)
    table = attractiveness_table(nets, pol, n_topics=len(topics))
    for (snapshot, topic), (delta, _) in table.items():
        prev = nets[0] if snapshot == 1920 else nets[1]
        cur = nets[1] if snapshot == 1920 else nets[2]
        assert delta == pytest.approx(
            delta_literal(prev, cur, topic, len(topics), pol), abs=1e-12
        )


# -- migration indices --

def test_immigration_by_hand():
    net = area_net(1915, {("a", "a"): 8, ("b", "a"): 2})
    got = migration_indices(net, ())["a"]
    assert got.iota == pytest.approx(0.2, abs=1e-15)


def test_no_emigration_means_zero_epsilon_sigma():
    net = area_net(1915, {("a", "a"): 8, ("b", "a"): 2})
    got = migration_indices(net, ())["a"]
    assert got.epsilon == 0.0 and got.sigma == 0.0


def test_sink_shares_sum_to_one():
    net = area_net(1915, {("x", "a"): 3, ("x", "b"): 1, ("a", "a"): 9})
    got = migration_indices(net, ())
    assert got["a"].rho == 0.75
    assert got["b"].rho == 0.25
    assert sum(v.rho for v in got.values()) == pytest.approx(1.0, abs=1e-9)
    assert sum(v.sigma for v in got.values()) == pytest.approx(1.0, abs=1e-9)


def test_indices_bounded_and_zero_convention():
    net = area_net(1915, {})
    assert migration_indices(net, areas=["a"]) == {
        "a": migration_indices(net, areas=["a"])["a"]
    }
    got = migration_indices(net, areas=["a"])["a"]
    assert (got.iota, got.epsilon, got.rho, got.sigma) == (0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_indices_match_literal_oracle_and_scale_exactly(seed):
    rng = random.Random(seed)
    areas = [f"a{i}" for i in range(5)]
    weights = {}
    for s in areas:
        for t in areas:
            if rng.random() < 0.5:
                weights[(s, t)] = rng.randint(1, 50)
    net = area_net(1915, weights)
    got = migration_indices(net, ())
    for area in net.nodes():
        iota, epsilon, rho, sigma = indices_literal(net, area)
        assert got[area].iota == pytest.approx(iota, abs=1e-12)
        assert got[area].epsilon == pytest.approx(epsilon, abs=1e-12)
        assert got[area].rho == pytest.approx(rho, abs=1e-12)
        assert got[area].sigma == pytest.approx(sigma, abs=1e-12)
        for value in (got[area].iota, got[area].epsilon, got[area].rho, got[area].sigma):
            assert 0.0 <= value <= 1.0
    scale = rng.randint(2, 97)
    scaled = area_net(1915, {k: w * scale for k, w in weights.items()})
    assert migration_indices(scaled, ()) == got  # exact, not approximate


def test_migration_indices_need_area_level():
    with pytest.raises(UsageError):
        migration_indices(topic_net(1915, {("a", "b"): 1}), ())


def test_migration_indices_by_hand():
    # a keeps 8, takes 2 from b and sends 1 to c: 3 cross in all.
    got = migration_indices(area_net(1915, {("a", "a"): 8, ("b", "a"): 2, ("a", "c"): 1}), ())
    assert got == {
        "a": (0.2, 1 / 9, 2 / 3, 1 / 3),
        "b": (0.0, 1.0, 0.0, 2 / 3),
        "c": (1.0, 0.0, 1 / 3, 0.0),
    }


def decompose_reference(net, area):
    """(intra, incoming-cross, outgoing-cross) volume of one area, from its
    own walk over every edge."""
    intra = net.weights.get((area, area), 0)
    incoming = 0
    outgoing = 0
    for (source, target), weight in net.weights.items():
        if source == target:
            continue
        if target == area:
            incoming += weight
        if source == area:
            outgoing += weight
    return intra, incoming, outgoing


def migration_indices_reference(net, areas):
    decomposed = {a: decompose_reference(net, a) for a in sorted(net.nodes() | set(areas))}
    total_cross = sum(incoming for _, incoming, _ in decomposed.values())
    ratio = lambda a, b: float(Fraction(a) / Fraction(b)) if b else 0.0
    return {
        area: MigrationIndices(
            ratio(incoming, intra + incoming), ratio(outgoing, intra + outgoing),
            ratio(incoming, total_cross), ratio(outgoing, total_cross),
        )
        for area, (intra, incoming, outgoing) in decomposed.items()
    }


_AREA = st.sampled_from("abcde")
_WEIGHT = st.one_of(
    st.integers(1, 10**6),
    st.floats(1e-3, 1e6),
    st.fractions(Fraction(1, 97), 10**6, max_denominator=97),
)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.tuples(_AREA, _AREA), _WEIGHT, max_size=25),
    st.lists(st.sampled_from("abcdef"), max_size=3),
)
def test_migration_indices_equal_the_per_area_reference(weights, areas):
    # Exact equality: each sum runs in the same order as the reference's.
    net = area_net(1915, weights)
    assert migration_indices(net, areas) == migration_indices_reference(net, areas)


# -- medians --

def test_median_sink_source_by_hand():
    nets = [
        area_net(1915, {("b", "a"): 1, ("a", "b"): 9}),
        area_net(1920, {("b", "a"): 3, ("a", "b"): 7}),
        area_net(1925, {("b", "a"): 2, ("a", "b"): 8}),
    ]
    series = migration_index_series(nets, ())
    medians = median_sink_source(series)
    # rho_a over time: 0.1, 0.3, 0.2 -> median 0.2
    assert medians["a"][0] == pytest.approx(0.2, abs=1e-12)


def test_median_even_count_uses_midpoint():
    nets = [
        area_net(1915, {("b", "a"): 1, ("a", "b"): 9}),
        area_net(1920, {("b", "a"): 3, ("a", "b"): 7}),
    ]
    medians = median_sink_source(migration_index_series(nets, ()))
    assert medians["a"][0] == pytest.approx(0.2, abs=1e-12)


def test_median_constant_series():
    nets = [area_net(y, {("b", "a"): 2, ("a", "b"): 3}) for y in (1915, 1920, 1925)]
    medians = median_sink_source(migration_index_series(nets, ()))
    assert medians["a"][0] == pytest.approx(0.4, abs=1e-12)


def test_median_skips_undefined_snapshots():
    nets = [
        area_net(1915, {("a", "a"): 5}),  # no cross flow: undefined
        area_net(1920, {("b", "a"): 1, ("a", "b"): 1}),
    ]
    medians = median_sink_source(migration_index_series(nets, ()))
    assert medians["a"] == (0.5, 0.5)


def test_median_without_cross_flow_is_empty():
    assert median_sink_source([]) == {}
    only_intra = migration_index_series([area_net(1915, {("a", "a"): 2})], ())
    assert median_sink_source(only_intra) == {}


# -- multidisciplinarity --

# Every area a0-a4 holds two topics, "<area>x" and "<area>y".
AREA_TABLE = ClassificationTable(
    {"J": tuple(f"a{i}{s}" for i in range(5) for s in "xy")},
    {f"a{i}{s}": f"a{i}" for i in range(5) for s in "xy"},
)


def _profile(author, snapshot, areas):
    """A profile with both topics of every area in ``areas``."""
    return ActivityProfile(author, snapshot, {f"{a}{s}": 1 for a in areas for s in "xy"})


@pytest.mark.parametrize("k", [1, 2, 5])
def test_point_mass_distribution(k):
    areas = [f"a{i}" for i in range(k)]
    profiles = [_profile(f"auth{i}", 1910, areas) for i in range(7)]
    dist = multidisciplinarity(profiles, AREA_TABLE)[0]
    assert dist.histogram == {k: 7}
    assert dist.author_volume == 7
    assert dist.q_cutoff == k


def test_union_of_journal_areas_counts_once():
    # journals with topics in areas {a1,a2} and {a2,a3} -> author in bin 3
    profiles = [ActivityProfile("x", 1910, {"a1x": 2, "a2x": 1, "a2y": 3, "a3y": 1})]
    assert multidisciplinarity(profiles, AREA_TABLE)[0].histogram == {3: 1}


def test_topic_in_two_journals_counts_its_area_once(make_table, make_records):
    # J1 and J2 share topic t2: the author touches areas {a1,a2} and {a2,a3}
    table = make_table(
        {"J1": ["t1", "t2"], "J2": ["t2", "t3"]}, {"t1": "a1", "t2": "a2", "t3": "a3"}
    )
    records = make_records([("x", "p1", "J1", 1911), ("x", "p2", "J2", 1912)])
    profiles, _ = ingested(records, table, SnapshotGrid(1910, 2014, 5))
    assert [p.topic_counts for p in profiles] == [{"t1": 1, "t2": 2, "t3": 1}]
    assert multidisciplinarity(profiles, table)[0].histogram == {3: 1}


def test_cutoff_is_smallest_covering_count():
    profiles = [_profile(f"u{i}", 1910, ["a0"]) for i in range(99)]
    profiles.append(_profile("wide", 1910, [f"a{i}" for i in range(4)]))
    dist = multidisciplinarity(profiles, AREA_TABLE, q=0.99)[0]
    assert dist.q_cutoff == 1
    dist_higher = multidisciplinarity(profiles, AREA_TABLE, q=0.995)[0]
    assert dist_higher.q_cutoff == 4


def test_snapshots_kept_separate():
    profiles = [_profile("x", 1910, ["a0"]), _profile("x", 1915, ["a0", "a1"])]
    dists = multidisciplinarity(profiles, AREA_TABLE)
    assert [d.snapshot for d in dists] == [1910, 1915]
    assert dists[0].histogram == {1: 1}
    assert dists[1].histogram == {2: 1}
