from __future__ import annotations

import pytest

from topicflow.classification import load_classification
from topicflow.errors import EmptyTable, MalformedLine, UnknownTopic
from topicflow.util import check_token
from conftest import write_lines


def test_minimal_consistent_table(make_table):
    table = make_table({"J1": ["T1", "T2"]}, {"T1": "A1", "T2": "A2"})
    assert table.topic_count == 2
    assert table.areas() == ("A1", "A2")
    assert table.journal_topics == {"J1": ("T1", "T2")}


def test_journal_referencing_unknown_topic(make_classification):
    jt, ta = make_classification({"J1": ["T9"]}, {"T1": "A1"})
    with pytest.raises(UnknownTopic):
        load_classification(jt, ta)


def test_duplicate_pairs_dedup_preserving_order(tmp_path):
    jt = write_lines(tmp_path / "jt.tsv", ["J1\tT2", "J1\tT1", "J1\tT2"])
    ta = write_lines(tmp_path / "ta.tsv", ["T1\tA1", "T2\tA1"])
    table = load_classification(jt, ta)
    assert table.journal_topics["J1"] == ("T2", "T1")


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
