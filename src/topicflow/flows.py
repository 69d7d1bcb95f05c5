"""Dominant activity sets and inter-snapshot author flow networks.

For each author and snapshot we keep the set of topics where the author
was maximally active (ties retained in full). Transitions between the
dominant sets of consecutive snapshots are counted with one unified
rule: a topic present on both sides contributes exactly one
self-transition; a topic appearing on the later side receives one
transition from every topic of the earlier side. Summing over authors
yields a weighted directed network per consecutive snapshot pair, at
topic or area granularity.

Everything runs in the calling process, in one pass over the profiles
in (author, snapshot) order, the order ingest yields and ``profiles.tsv``
must hold: ``FlowFold`` takes one profile's dominant sets at a time and
keeps only the previous ones and the network weights, nothing per profile.
"""
from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Iterable

from .classification import ClassificationTable
from .errors import EmptySet, InvariantViolation, MalformedLine, UnknownTopic, UsageError
from .ingest import ActivityProfile, SnapshotGrid
from .util import Record, check_token, fmt_weight, iter_tsv, parse_weight, write_tsv

if TYPE_CHECKING:
    from fractions import Fraction

FLOW_HEADER = "#from_snapshot\tto_snapshot\tsource\ttarget\tweight"


class FlowNetwork(Record):
    """Author volume moving between nodes across one consecutive snapshot pair."""

    __slots__ = ("level", "from_snapshot", "to_snapshot", "weights")

    def __init__(self, level: str, from_snapshot: int, to_snapshot: int,
                 weights: dict[tuple[str, str], int | float | Fraction]):
        self.level = level
        self.from_snapshot = from_snapshot
        self.to_snapshot = to_snapshot
        self.weights = weights

    def nodes(self) -> set[str]:
        found: set[str] = set()
        for source, target in self.weights:
            found.add(source)
            found.add(target)
        return found

    def sorted_items(self) -> list[tuple[tuple[str, str], int | float | Fraction]]:
        return sorted(self.weights.items())


def _argmax(profile: ActivityProfile, counts: dict[str, int]) -> frozenset[str]:
    """The keys of ``profile``'s ``counts`` that hold their largest value, ties kept."""
    if not counts:
        raise EmptySet(f"profile {profile.author_id}@{profile.snapshot} has no topic counts")
    best = max(counts.values())
    return frozenset(key for key, count in counts.items() if count == best)


def dominant_topics(profile: ActivityProfile) -> frozenset[str]:
    """All topics achieving the maximum activity count within the snapshot."""
    return _argmax(profile, profile.topic_counts)


def dominant_area_set(profile: ActivityProfile, table: ClassificationTable) -> frozenset[str]:
    """Areas of maximal aggregated activity (the argmax-at-area-level variant)."""
    area_counts: dict[str, int] = {}
    for topic, count in profile.topic_counts.items():
        area = _area_of(topic, table)
        area_counts[area] = area_counts.get(area, 0) + count
    return _argmax(profile, area_counts)


def _area_of(topic: str, table: ClassificationTable) -> str:
    try:
        return table.topic_area[topic]
    except KeyError:
        raise UnknownTopic(f"topic {topic!r} not in the topic->area table") from None


def _check_appearing_weight(appearing_weight: str) -> None:
    if appearing_weight not in ("unit", "uniform"):
        raise UsageError(f"appearing_weight must be 'unit' or 'uniform', got {appearing_weight!r}")


def count_transitions(
    source_set: frozenset[str] | set[str],
    target_set: frozenset[str] | set[str],
    appearing_weight: str = "unit",
) -> dict[tuple[str, str], int | Fraction]:
    """Transitions of one author between consecutive dominant sets.

    For each node in the later set: if it persists from the earlier set
    it emits exactly one self-transition; if it is new it receives one
    transition from every node of the earlier set (or a 1/|S| share from
    each under ``appearing_weight='uniform'``). Disappearing nodes emit
    nothing except as sources for appearing ones.
    """
    if not source_set or not target_set:
        raise EmptySet("transition counting needs non-empty sets on both sides")
    _check_appearing_weight(appearing_weight)
    share: int | Fraction = 1
    if appearing_weight == "uniform":
        from fractions import Fraction
        share = Fraction(1, len(source_set))
    out: dict[tuple[str, str], int | Fraction] = {}
    for target in target_set:
        if target in source_set:
            out[(target, target)] = 1
        else:
            for source in source_set:
                out[(source, target)] = share
    return out


# The levels each ``--level`` value counts, topic level first.
LEVELS = {"topic": ("topic",), "area": ("area",), "both": ("topic", "area")}


class FlowFold:
    """``build_flow_networks`` one profile at a time: ``add`` takes what one
    item of its ``dominant_sets`` holds. Only the previous author, snapshot
    and sets and one weight map per level and grid pair are kept."""

    __slots__ = ("levels", "weighting", "pairs", "following", "acc", "last")

    def __init__(self, grid: SnapshotGrid, level: str = "topic", appearing_weight: str = "unit"):
        self.levels = LEVELS.get(level)
        if self.levels is None:
            raise UsageError(f"level must be 'topic', 'area' or 'both', got {level!r}")
        _check_appearing_weight(appearing_weight)
        self.weighting = appearing_weight
        self.pairs = grid.label_pairs()
        self.following = dict(self.pairs)
        self.acc = [{pair: {} for pair in self.pairs} for _ in self.levels]
        self.last = (None, None, None)  # the previous author, snapshot and sets

    def add(self, author: str, snapshot: int, nodes) -> None:
        sets = (nodes,) if len(self.levels) == 1 else nodes
        last_author, last_snapshot, last_sets = self.last
        if last_author is not None and (author, snapshot) <= (last_author, last_snapshot):
            raise InvariantViolation(f"dominant set {author!r}@{snapshot} does not follow "
                                     f"{last_author!r}@{last_snapshot} in (author, snapshot) order")
        if author == last_author and self.following.get(last_snapshot) == snapshot:
            for acc, earlier, later in zip(self.acc, last_sets, sets):
                bucket = acc[last_snapshot, snapshot]
                for edge, weight in count_transitions(earlier, later, self.weighting).items():
                    bucket[edge] = bucket.get(edge, 0) + weight
        self.last = author, snapshot, sets

    def networks(self) -> list[FlowNetwork]:
        return [FlowNetwork(level, a, b, acc[a, b])
                for level, acc in zip(self.levels, self.acc) for a, b in self.pairs]


def build_flow_networks(
    dominant_sets: Iterable[tuple[str, int, frozenset[str]]],
    grid: SnapshotGrid,
    *,
    level: str = "topic",
    appearing_weight: str = "unit",
) -> list[FlowNetwork]:
    """Sum per-author transitions into one network per consecutive grid pair.

    ``dominant_sets`` holds one ``(author, snapshot, nodes)`` tuple per
    profile, ``nodes`` being its dominant topics or areas, or under
    ``level='both'`` its (topic set, area set) pair, whose networks come
    topic level first. The tuples come in strictly ascending (author,
    snapshot) order, the order ``ingest_records``' walk yields and
    ``load_profiles`` checks; a set out of that order raises
    ``InvariantViolation``. One fold counts each set against the previous
    one when both are the same author's and the snapshot is the grid label
    after the previous one: skipped snapshots never bridge (1910->1920
    without 1915 yields nothing). Weights are exact: integers, or
    ``Fraction``s under ``appearing_weight='uniform'``.
    """
    fold = FlowFold(grid, level, appearing_weight)
    for author, snapshot, nodes in dominant_sets:
        fold.add(author, snapshot, nodes)
    return fold.networks()


def dominant_sets_of(level: str, table: ClassificationTable, area_mode: str):
    """The function giving a profile's ``nodes`` at ``level`` for ``FlowFold.add``.
    Its dominant topic set is computed once for both levels; ``area_mode='mapped'``
    maps it through the topic->area table, once per distinct set, and
    ``'argmax'`` re-runs the argmax on per-area aggregated counts instead."""
    if level not in LEVELS:
        raise UsageError(f"level must be 'topic', 'area' or 'both', got {level!r}")
    if area_mode not in ("mapped", "argmax"):
        raise UsageError(f"area_mode must be 'mapped' or 'argmax', got {area_mode!r}")
    if level == "topic":
        return dominant_topics
    if area_mode == "argmax":
        if level == "area":
            return lambda profile: dominant_area_set(profile, table)
        return lambda profile: (dominant_topics(profile), dominant_area_set(profile, table))
    mapped: dict[frozenset[str], frozenset[str]] = {}  # most dominant topic sets recur

    def nodes(profile: ActivityProfile):
        topics = dominant_topics(profile)
        areas = mapped.get(topics)
        if areas is None:
            areas = mapped[topics] = frozenset(_area_of(t, table) for t in topics)
        return areas if level == "area" else (topics, areas)

    return nodes


def flow_networks_from_profiles(
    profiles: Iterable[ActivityProfile],
    grid: SnapshotGrid,
    *,
    table: ClassificationTable,
    level: str = "topic",
    area_mode: str = "mapped",
    appearing_weight: str = "unit",
) -> list[FlowNetwork]:
    """Profiles -> dominant sets -> flow networks, in one pass that keeps no profile.

    ``profiles`` come in (author, snapshot) order, as for
    ``build_flow_networks``, which counts each requested level. ``level``
    is ``'topic'``, ``'area'`` or ``'both'``; with ``'both'`` the topic
    networks come first, then the area networks. ``area_mode`` is as for
    ``dominant_sets_of``.
    """
    nodes = dominant_sets_of(level, table, area_mode)
    return build_flow_networks(
        ((p.author_id, p.snapshot, nodes(p)) for p in profiles),
        grid, level=level, appearing_weight=appearing_weight,
    )


# -- serialization --


def flow_file_name(level: str, from_snapshot: int, to_snapshot: int) -> str:
    return f"flows_{level}_{from_snapshot}_{to_snapshot}.tsv"


def write_flow_network(net: FlowNetwork, path) -> None:
    """Sorted TSV rows; byte-stable for identical networks."""
    prefix = f"{net.from_snapshot}\t{net.to_snapshot}\t"
    lines = [FLOW_HEADER]  # perfbench/test_perfbench.py edits this line
    write_tsv(path, lines, (
        f"{prefix}{source}\t{target}\t{fmt_weight(weight)}"
        for (source, target), weight in net.sorted_items()
    ))


def load_flow_network(
    path,
    *,
    table: ClassificationTable,
    level: str,
    from_snapshot: int,
    to_snapshot: int,
) -> FlowNetwork:
    """Read a serialized network of the pair ``from_snapshot``, ``to_snapshot``,
    which every row must carry. Label texts are checked when they change
    from row to row, and each distinct weight text, or node of ``table``, once."""
    known = table.topic_area if level == "topic" else set(table.areas())
    weights: dict[tuple[str, str], int | float] = {}
    from_text = to_text = None
    nodes: dict[str, str] = {}  # checked text -> the one copy every edge holds
    values: dict[str, int | float] = {}  # checked text -> weight
    for lineno, fields in iter_tsv(path, 5):
        if fields[0] != from_text or fields[1] != to_text:
            from_text, to_text = fields[0], fields[1]
            try:
                row_from, row_to = int(from_text), int(to_text)
            except ValueError:
                raise MalformedLine(f"{path}:{lineno}: snapshot labels must be integers") from None
            if (row_from, row_to) != (from_snapshot, to_snapshot):
                raise MalformedLine(f"{path}:{lineno}: inconsistent snapshot labels")
        source, target, text = fields[2], fields[3], fields[4]
        if source not in nodes or target not in nodes:
            for node, what in ((source, "source"), (target, "target")):
                if check_token(node, path, lineno, what) not in known:
                    raise UnknownTopic(f"{path}:{lineno}: unknown {level} {node!r}")
                nodes.setdefault(node, node)
        weight = values.get(text)
        if weight is None:
            try:
                weight = parse_weight(text)
            except ValueError:
                raise MalformedLine(f"{path}:{lineno}: bad weight {text!r}") from None
            if not 0 < weight <= sys.float_info.max:  # exact, so a huge int fails too
                raise MalformedLine(
                    f"{path}:{lineno}: weights must be finite and strictly positive"
                )
            values[text] = weight
        edge = nodes[source], nodes[target]
        if edge in weights:
            raise MalformedLine(f"{path}:{lineno}: duplicate edge {source}->{target}")
        weights[edge] = weight
    return FlowNetwork(
        level=level, from_snapshot=from_snapshot, to_snapshot=to_snapshot, weights=weights
    )
