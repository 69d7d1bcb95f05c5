"""Journal->topic and topic->area classification tables, and the types every
subcommand's settings check and profile reader build: the snapshot grid, the
cut check, the zero-baseline policy and the activity profile.

A journal is classified into one or more fine-grained topics; every
topic belongs to exactly one coarse-grained area. The reference
SCImago-style table has 306 topics grouped into 27 areas, but any
consistent pair of TSV files works.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import EmptyTable, InvalidSpec, MalformedLine, UnknownTopic, UsageError
from .util import Checked, check_token, iter_tsv

TopicId = str
AreaId = str
JournalId = str


class ClassificationTable(NamedTuple):
    """Immutable after load; safe for concurrent readers."""

    journal_topics: dict[JournalId, tuple[TopicId, ...]]
    topic_area: dict[TopicId, AreaId]

    @property
    def topic_count(self) -> int:
        return len(self.topic_area)

    def areas(self) -> tuple[AreaId, ...]:
        return tuple(sorted(set(self.topic_area.values())))


def load_classification(journal_topic_file, topic_area_file) -> ClassificationTable:
    """Load and validate the two classification TSVs.

    journal_topic_file: ``journal_id<TAB>topic_id`` per line.
    topic_area_file:    ``topic_id<TAB>area_id`` per line.
    Duplicate (journal, topic) lines deduplicate, preserving the order in
    which topics first appear for each journal. A journal referencing a
    topic absent from the topic->area file is an error, as is a topic
    assigned to two different areas.
    """
    topic_area: dict[TopicId, AreaId] = {}
    for lineno, fields in iter_tsv(topic_area_file, 2):
        topic = check_token(fields[0], topic_area_file, lineno, "topic id")
        area = check_token(fields[1], topic_area_file, lineno, "area id")
        previous = topic_area.get(topic)
        if previous is not None and previous != area:
            raise MalformedLine(
                f"{topic_area_file}:{lineno}: topic {topic!r} assigned to both "
                f"{previous!r} and {area!r}; each topic belongs to exactly one area"
            )
        topic_area[topic] = area
    if not topic_area:
        raise EmptyTable(f"{topic_area_file}: no topic->area entries")

    journal_topics: dict[JournalId, dict[TopicId, None]] = {}
    for lineno, fields in iter_tsv(journal_topic_file, 2):
        journal = check_token(fields[0], journal_topic_file, lineno, "journal id")
        topic = check_token(fields[1], journal_topic_file, lineno, "topic id")
        if topic not in topic_area:
            raise UnknownTopic(
                f"{journal_topic_file}:{lineno}: topic {topic!r} not present in "
                f"{topic_area_file}"
            )
        journal_topics.setdefault(journal, {}).setdefault(topic, None)
    if not journal_topics:
        raise EmptyTable(f"{journal_topic_file}: no journal->topic entries")

    return ClassificationTable(
        journal_topics={j: tuple(ts) for j, ts in journal_topics.items()},
        topic_area=topic_area,
    )


# How many one-character codes ``ingest._code`` has: the most years, or journals, coded.
_CODES = 0x110000 - 2 - 0x800


class _GridFields(NamedTuple):
    start_year: int
    end_year: int
    width_years: int = 5


class SnapshotGrid(Checked, _GridFields):
    """Non-overlapping windows of ``width_years``, labeled by start year.

    Label 2000 with width 5 covers 2000-2004; the grid 1910-2014 has 21
    labels 1910, 1915, ..., 2010.
    """

    __slots__ = ()

    def _check(self):
        if self.width_years < 1:
            raise InvalidSpec(f"snapshot width must be >= 1, got {self.width_years}")
        if self.start_year >= self.end_year:
            raise InvalidSpec(
                f"start year {self.start_year} must precede end year {self.end_year}"
            )
        span = self.end_year - self.start_year + 1  # each year takes one of ingest's codes
        if span > _CODES:
            raise InvalidSpec(f"grids span at most {_CODES} years, got {span}")

    def snapshot_of(self, year: int) -> int:
        return self.start_year + self.width_years * (
            (year - self.start_year) // self.width_years
        )

    def labels(self) -> list[int]:
        return list(range(self.start_year, self.end_year + 1, self.width_years))

    def label_pairs(self) -> list[tuple[int, int]]:
        labels = self.labels()
        return list(zip(labels, labels[1:]))


def check_cut(max_papers_per_year: int, cut_scope: str, quantile: float | None) -> None:
    """Raise ``InvalidSpec`` on a bad cut, scope or quantile (NaN included)."""
    if quantile is not None and not 0 < quantile < 1:
        raise InvalidSpec(f"quantile must be in (0, 1), got {quantile}")
    if quantile is None and max_papers_per_year < 0:
        raise InvalidSpec(f"max_papers_per_year must be >= 0, got {max_papers_per_year}")
    if cut_scope not in ("classified", "all"):
        raise InvalidSpec(f"cut_scope must be 'classified' or 'all', got {cut_scope!r}")


class _PolicyFields(NamedTuple):
    kind: str = "strict"
    k: float = 0.0


class ZeroBaselinePolicy(Checked, _PolicyFields):
    """How to handle vanishing baseline flows in the relative-change sum.

    ``strict``    sums only pairs with a nonzero baseline and divides by
                  the full N-1 (the literal formula denominator);
    ``active``    divides by the number of nonzero-baseline pairs instead;
    ``smooth``    adds ``k`` to every baseline before dividing.
    """

    __slots__ = ()

    def _check(self):
        if self.kind not in ("strict", "active", "smooth"):
            raise UsageError(f"unknown baseline policy {self.kind!r}")
        if self.kind == "smooth" and not 0 < self.k < math.inf:  # nan fails too
            raise UsageError(f"smooth policy needs a finite k > 0, got {self.k}")

    @classmethod
    def parse(cls, text: str) -> "ZeroBaselinePolicy":
        if text.startswith("smooth:"):
            try:
                return cls("smooth", float(text.split(":", 1)[1]))
            except ValueError:
                raise UsageError(f"bad smoothing constant in {text!r}") from None
        return cls(text)


class ActivityProfile(NamedTuple):
    """One author's activity within one snapshot.

    ``topic_counts`` counts paper classifications (a paper in a journal
    with three topics counts once per topic). The areas an author touched
    are not stored: they are the table's areas of these topics.
    """

    author_id: str
    snapshot: int
    topic_counts: dict[TopicId, int]
