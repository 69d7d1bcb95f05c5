from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from topicflow import load_classification
from topicflow.errors import (
    EmptyTable,
    MalformedLine,
    PipelineError,
    UnknownTopic,
    UsageError,
)
from topicflow.util import check_token
from conftest import write_lines


def test_minimal_consistent_table(make_table):
    table = make_table({"J1": ["T1", "T2"]}, {"T1": "A1", "T2": "A2"})
    assert table.topic_count == 2
    assert table.areas() == ("A1", "A2")
    assert table.topics_of_journal("J1") == ("T1", "T2")


def test_journal_referencing_unknown_topic(make_classification):
    jt, ta = make_classification({"J1": ["T9"]}, {"T1": "A1"})
    with pytest.raises(UnknownTopic):
        load_classification(jt, ta)


def test_duplicate_pairs_dedup_preserving_order(tmp_path):
    jt = write_lines(tmp_path / "jt.tsv", ["J1\tT2", "J1\tT1", "J1\tT2"])
    ta = write_lines(tmp_path / "ta.tsv", ["T1\tA1", "T2\tA1"])
    table = load_classification(jt, ta)
    assert table.topics_of_journal("J1") == ("T2", "T1")


def test_idempotent_load(make_classification):
    jt, ta = make_classification({"J1": ["T1"], "J2": ["T1", "T2"]}, {"T1": "A1", "T2": "A2"})
    assert load_classification(jt, ta) == load_classification(jt, ta)


def test_comments_and_blank_lines_ignored(tmp_path):
    jt = write_lines(tmp_path / "jt.tsv", ["# comment", "", "J1\tT1"])
    ta = write_lines(tmp_path / "ta.tsv", ["T1\tA1", "# tail"])
    assert load_classification(jt, ta).topic_count == 1


def test_conflicting_area_assignment_rejected(tmp_path):
    jt = write_lines(tmp_path / "jt.tsv", ["J1\tT1"])
    ta = write_lines(tmp_path / "ta.tsv", ["T1\tA1", "T1\tA2"])
    with pytest.raises(MalformedLine):
        load_classification(jt, ta)


def test_wrong_column_count(tmp_path):
    jt = write_lines(tmp_path / "jt.tsv", ["J1\tT1\textra"])
    ta = write_lines(tmp_path / "ta.tsv", ["T1\tA1"])
    with pytest.raises(MalformedLine, match="jt.tsv:1"):
        load_classification(jt, ta)


def test_empty_tables_rejected(tmp_path):
    empty = write_lines(tmp_path / "empty.tsv", ["# nothing"])
    ta = write_lines(tmp_path / "ta.tsv", ["T1\tA1"])
    with pytest.raises(EmptyTable):
        load_classification(empty, ta)
    with pytest.raises(EmptyTable):
        load_classification(ta, empty)


def test_whitespace_in_token_rejected(tmp_path):
    jt = write_lines(tmp_path / "jt.tsv", ["J 1\tT1"])
    ta = write_lines(tmp_path / "ta.tsv", ["T1\tA1"])
    with pytest.raises(MalformedLine):
        load_classification(jt, ta)


@pytest.mark.parametrize("token", ["", "\x1c", "\x85", "\xa0", "a ", "\u3000b", "a\u2028b"])
def test_check_token_rejects_empty_and_unicode_whitespace(token):
    with pytest.raises(MalformedLine, match="ids.tsv:7: topic id must be a non-empty token"):
        check_token(token, "ids.tsv", 7, "topic id")


@pytest.mark.parametrize("token", ["T1", "j-0042", "area_09", "Ökonomie", "a/b:c"])
def test_check_token_accepts_ordinary_ids(token):
    assert check_token(token, "ids.tsv", 7, "topic id") == token


def test_multiplexity_histogram_by_hand(make_table):
    # one journal with 1 topic, one with 3: {1: 0.5, 3: 0.5}
    table = make_table(
        {"J1": ["T1"], "J2": ["T1", "T2", "T3"]},
        {"T1": "A1", "T2": "A1", "T3": "A2"},
    )
    assert table.multiplexity_histogram("topic") == {1: 0.5, 3: 0.5}
    # J2 touches areas {A1, A2}, J1 only {A1}
    assert table.multiplexity_histogram("area") == {1: 0.5, 2: 0.5}


def test_multiplexity_all_single_topic(make_table):
    table = make_table({"J1": ["T1"], "J2": ["T2"]}, {"T1": "A1", "T2": "A1"})
    assert table.multiplexity_histogram("topic") == {1: 1.0}


def test_multiplexity_bad_level(make_table):
    table = make_table({"J1": ["T1"]}, {"T1": "A1"})
    with pytest.raises(UsageError):
        table.multiplexity_histogram("journal")


def test_areas_of_journal(make_table):
    collapsed = make_table({"J1": ["T1", "T2"]}, {"T1": "A1", "T2": "A1"})
    assert collapsed.areas_of_journal("J1") == ("A1",)
    split = make_table({"J1": ["T1", "T2"]}, {"T1": "A1", "T2": "A2"}, prefix="s_")
    assert split.areas_of_journal("J1") == ("A1", "A2")
    with pytest.raises(PipelineError, match="journal 'nope' not in classification table"):
        split.areas_of_journal("nope")


_ids = st.integers(min_value=0, max_value=30)


@st.composite
def random_tables(draw):
    topic_area = draw(
        st.dictionaries(
            _ids.map("t{}".format), _ids.map("a{}".format), min_size=1, max_size=12
        )
    )
    topics = sorted(topic_area)
    journal_topics = draw(
        st.dictionaries(
            _ids.map("j{}".format),
            st.lists(st.sampled_from(topics), min_size=1, max_size=5, unique=True),
            min_size=1,
            max_size=10,
        )
    )
    return journal_topics, topic_area


@given(random_tables())
def test_histogram_fractions_sum_to_one(tmp_path_factory, data):
    journal_topics, topic_area = data
    tmp = tmp_path_factory.mktemp("tables")
    jt = write_lines(
        tmp / "jt.tsv", [f"{j}\t{t}" for j, ts in journal_topics.items() for t in ts]
    )
    ta = write_lines(tmp / "ta.tsv", [f"{t}\t{a}" for t, a in topic_area.items()])
    table = load_classification(jt, ta)
    for level in ("topic", "area"):
        hist = table.multiplexity_histogram(level)
        assert abs(sum(hist.values()) - 1.0) <= 1e-12
        assert all(k >= 1 for k in hist)
    for journal in journal_topics:
        assert len(table.areas_of_journal(journal)) <= len(table.topics_of_journal(journal))
