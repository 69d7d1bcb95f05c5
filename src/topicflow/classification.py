"""Journal->topic and topic->area classification tables.

A journal is classified into one or more fine-grained topics; every
topic belongs to exactly one coarse-grained area. The reference
SCImago-style table has 306 topics grouped into 27 areas, but any
consistent pair of TSV files works.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import EmptyTable, MalformedLine, UnknownTopic
from .util import check_token, iter_tsv

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
