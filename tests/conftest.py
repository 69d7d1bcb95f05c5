from __future__ import annotations

import pytest

from topicflow.classification import load_classification
from topicflow.ingest import SnapshotGrid, ingest_records


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def ingested(*args, **kwargs):
    """``ingest_records`` with its walk read to the end: the profile list
    and the stats, which are complete only then."""
    walk, stats = ingest_records(*args, **kwargs)
    return list(walk), stats


@pytest.fixture
def make_classification(tmp_path):
    """Write journal->topic and topic->area TSVs, return their paths."""

    def _make(journal_topics: dict[str, list[str]], topic_area: dict[str, str], prefix=""):
        jt = tmp_path / f"{prefix}journal_topics.tsv"
        ta = tmp_path / f"{prefix}topic_areas.tsv"
        write_lines(
            jt, [f"{j}\t{t}" for j, topics in journal_topics.items() for t in topics]
        )
        write_lines(ta, [f"{t}\t{a}" for t, a in topic_area.items()])
        return jt, ta

    return _make


@pytest.fixture
def make_table(make_classification):
    def _make(journal_topics, topic_area, prefix=""):
        jt, ta = make_classification(journal_topics, topic_area, prefix)
        return load_classification(jt, ta)

    return _make


@pytest.fixture
def make_records(tmp_path):
    """Write a records TSV from (author, paper, journal, year) tuples."""

    def _make(rows, name="records.tsv"):
        path = tmp_path / name
        write_lines(path, [f"{a}\t{p}\t{j}\t{y}" for a, p, j, y in rows])
        return path

    return _make


@pytest.fixture
def grid_1910_2014():
    return SnapshotGrid(1910, 2014, 5)
