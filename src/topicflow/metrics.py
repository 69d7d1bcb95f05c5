"""Scalar indices and distributions over flow networks.

Attractiveness of a topic is the mean relative change of its incoming
flows from all other topics between consecutive transition networks.
At area level, immigration/emigration indices compare cross flows with
the area's own persisting population, while sink/source indices measure
an area's share of the global cross flow. All ratios follow the 0/0 -> 0
convention: an area with no population and no flow is a non-participant.
"""
from __future__ import annotations

import math
from collections import Counter
from typing import TYPE_CHECKING, Collection, Iterable, NamedTuple

from .classification import (ActivityProfile, AreaId, ClassificationTable, TopicId,
                             ZeroBaselinePolicy)
from .errors import PipelineError, UsageError
from .util import quantile_cutoff

if TYPE_CHECKING:
    from fractions import Fraction

    from .flows import FlowNetwork


class MigrationIndices(NamedTuple):
    iota: float
    epsilon: float
    rho: float
    sigma: float


class SnapshotIndices(NamedTuple):
    """Per-area indices for the transition arriving at ``snapshot``."""

    snapshot: int
    indices: dict[AreaId, MigrationIndices]


class MostAttractive(NamedTuple):
    topic: TopicId
    delta: float
    ties: tuple[TopicId, ...]


class MultidisciplinarityDistribution(NamedTuple):
    snapshot: int
    histogram: dict[int, int]
    author_volume: int
    q_cutoff: int


def _ratio(numerator, denominator) -> float:
    """Exact quotient rounded once to float; 0/0 -> 0."""
    if not denominator:
        return 0.0
    from fractions import Fraction
    return float(Fraction(numerator) / Fraction(denominator))


def _incoming_index(net: FlowNetwork) -> dict[str, dict[str, int | float | Fraction]]:
    index: dict[str, dict[str, int | float | Fraction]] = {}
    for (source, target), weight in net.weights.items():
        index.setdefault(target, {})[source] = weight
    return index


def _delta_for_topic(
    topic: str,
    prev_in: dict[str, int | float | Fraction],
    cur_in: dict[str, int | float | Fraction],
    policy: ZeroBaselinePolicy,
    n_topics: int,
) -> tuple[float, int]:
    baseline = {s: w for s, w in prev_in.items() if s != topic}
    current = {s: w for s, w in cur_in.items() if s != topic}
    pairs_used = sum(1 for w in baseline.values() if w > 0)
    # Summation order is pinned so results stay bit-identical across runs.
    if policy.kind == "smooth":
        total = sum(
            (float(current.get(s, 0)) - float(baseline.get(s, 0)))
            / (float(baseline.get(s, 0)) + policy.k)
            for s in sorted(set(baseline) | set(current))
        )
        divisor = n_topics - 1
    else:
        total = sum(
            (float(current.get(s, 0)) - float(baseline[s])) / float(baseline[s])
            for s in sorted(baseline)
            if baseline[s] > 0
        )
        divisor = (n_topics - 1) if policy.kind == "strict" else pairs_used
    delta = total / divisor if divisor > 0 else 0.0
    return delta, pairs_used


def attractiveness_table(
    nets: Iterable[FlowNetwork],
    policy: ZeroBaselinePolicy = ZeroBaselinePolicy(),
    *,
    n_topics: int,
) -> dict[tuple[int, TopicId], tuple[float, int]]:
    """(snapshot, topic) -> (delta, pairs_used) for every observed topic.

    Each network is indexed by incoming flow once, so sweeping all topics
    stays linear in the number of edges. A pair whose labels are not
    consecutive gives no row; a delta beyond float range raises
    ``PipelineError`` naming the snapshot and the topic.
    """
    table: dict[tuple[int, str], tuple[float, int]] = {}
    prev = None
    for cur in sorted(nets, key=lambda n: n.to_snapshot):
        cur_idx, cur_nodes = _incoming_index(cur), cur.nodes()
        if prev is not None and cur.from_snapshot == prev.to_snapshot:
            for topic in sorted(prev_nodes | cur_nodes):
                entry = table[(cur.to_snapshot, topic)] = _delta_for_topic(
                    topic, prev_idx.get(topic, {}), cur_idx.get(topic, {}), policy, n_topics)
                if not math.isfinite(entry[0]):
                    raise PipelineError(
                        f"attractiveness of topic {topic!r} at snapshot {cur.to_snapshot} is"
                        " not finite: a baseline flow or the smoothing constant is too small")
        prev, prev_idx, prev_nodes = cur, cur_idx, cur_nodes
    return table


def most_attractive_topics(
    table: dict[tuple[int, TopicId], tuple[float, int]],
) -> dict[int, MostAttractive]:
    """Topic with the largest attractiveness per snapshot, from an
    ``attractiveness_table`` result.

    Candidates are the topics observed in either network of the pair.
    Exact ties are all reported, with the lexicographically first marked
    as the winner.
    """
    by_snapshot: dict[int, list[tuple[float, str]]] = {}
    for (snapshot, topic), (delta, _) in table.items():
        by_snapshot.setdefault(snapshot, []).append((delta, topic))
    winners: dict[int, MostAttractive] = {}
    for snapshot, scored in by_snapshot.items():
        best = max(delta for delta, _ in scored)
        ties = tuple(sorted(t for delta, t in scored if delta == best))
        winners[snapshot] = MostAttractive(topic=ties[0], delta=best, ties=ties)
    return winners


def migration_indices(
    net: FlowNetwork,
    areas: Iterable[AreaId],
) -> dict[AreaId, MigrationIndices]:
    """Immigration, emigration, sink and source indices for every area of
    the network and of ``areas``, the table's (explicit zeros when silent).
    """
    if net.level != "area":
        raise UsageError(f"migration indices need an area-level network, got {net.level!r}")
    universe = net.nodes() | set(areas)
    # [intra, incoming-cross, outgoing-cross] volume per area, in one pass over the edges.
    flows = {area: [0, 0, 0] for area in sorted(universe)}
    for (source, target), weight in net.weights.items():
        if source == target:
            flows[source][0] = weight
        else:
            flows[target][1] += weight
            flows[source][2] += weight
    total_cross = sum(incoming for _, incoming, _ in flows.values())
    out: dict[AreaId, MigrationIndices] = {}
    for area, (intra, incoming, outgoing) in flows.items():
        out[area] = MigrationIndices(
            iota=_ratio(incoming, intra + incoming),
            epsilon=_ratio(outgoing, intra + outgoing),
            rho=_ratio(incoming, total_cross),
            sigma=_ratio(outgoing, total_cross),
        )
    return out


def migration_index_series(
    nets: Iterable[FlowNetwork],
    areas: Collection[AreaId],
) -> list[SnapshotIndices]:
    """Indices per arrival snapshot, ordered by snapshot."""
    ordered = sorted(nets, key=lambda n: n.to_snapshot)
    return [SnapshotIndices(net.to_snapshot, migration_indices(net, areas)) for net in ordered]


def median_sink_source(
    series: Iterable[SnapshotIndices],
) -> dict[AreaId, tuple[float, float]]:
    """Median sink and source index per area over the defined snapshots.

    A snapshot defines the indices only when it has positive cross flow,
    so with no such snapshot the result is empty; the median of an even
    count is the mean of the middle two.
    """
    import statistics
    # Each rho is incoming / total cross flow, exact, rounded once: 0 with no cross flow. With
    # some, the exact rhos sum to 1, so the largest, >= 1/areas, cannot round to 0.0.
    defined = [e for e in series if any(i.rho for i in e.indices.values())]
    areas: set[str] = set()
    for entry in defined:
        areas |= set(entry.indices)
    zero = MigrationIndices(0.0, 0.0, 0.0, 0.0)
    return {
        area: (
            statistics.median(e.indices.get(area, zero).rho for e in defined),
            statistics.median(e.indices.get(area, zero).sigma for e in defined),
        )
        for area in sorted(areas)
    }


class AreaTally:
    """How many distinct areas each profile touches, tallied per snapshot one
    profile at a time. A profile's areas are the table's areas of every topic
    in it (every area of every journal published in), not its dominant set."""

    __slots__ = ("topic_area", "counts")

    def __init__(self, table: ClassificationTable):
        self.topic_area = table.topic_area
        self.counts: Counter[tuple[int, int]] = Counter()  # (snapshot, areas) -> profiles

    def add(self, profile: ActivityProfile) -> None:
        self.counts[profile.snapshot, len({self.topic_area[t] for t in profile.topic_counts})] += 1

    def distributions(self, q: float = 0.99) -> list[MultidisciplinarityDistribution]:
        """One distribution per snapshot, by snapshot; the cutoff is the
        smallest count covering at least a fraction q of the authors."""
        by_snapshot: dict[int, dict[int, int]] = {}
        for (snapshot, n_areas), count in sorted(self.counts.items()):
            by_snapshot.setdefault(snapshot, {})[n_areas] = count
        return [
            MultidisciplinarityDistribution(s, hist, sum(hist.values()), quantile_cutoff(hist, q))
            for s, hist in by_snapshot.items()
        ]


def multidisciplinarity(
    profiles: Iterable[ActivityProfile],
    table: ClassificationTable,
    q: float = 0.99,
) -> list[MultidisciplinarityDistribution]:
    """Distribution of the number of distinct areas touched per author, per
    snapshot, as ``AreaTally`` counts it."""
    tally = AreaTally(table)
    for profile in profiles:
        tally.add(profile)
    return tally.distributions(q)
