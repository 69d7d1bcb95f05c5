from __future__ import annotations

import gc
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from topicflow.classification import ClassificationTable, load_classification
import topicflow.cli as cli_module
from topicflow.cli import PipelineConfig, _load_networks, load_profiles, main, write_profiles
from topicflow.errors import EmptySet, InvalidSpec, MalformedLine, MalformedRecord, PipelineError
from topicflow.flows import FLOW_HEADER, flow_file_name, flow_networks_from_profiles
import topicflow.ingest as ingest_module
from topicflow.ingest import (
    ActivityProfile,
    IngestStats,
    SnapshotGrid,
    compute_yearly_paper_quantile,
    ingest_records,
    iter_records,
)
from topicflow.metrics import multidisciplinarity
from topicflow.synth import SyntheticSpec, generate_corpus
import topicflow.util as util_module
from topicflow.util import BLOCK_ROWS
from conftest import ingested, write_lines


TABLE = {"J1": ["T1", "T2"], "J2": ["T2"], "J3": ["T3"], "J10": ["T1"]}
AREAS = {"T1": "A1", "T2": "A2", "T3": "A1"}


@pytest.fixture
def table(make_table):
    return make_table(TABLE, AREAS)


# -- snapshot grid --

def test_grid_1910_2014_has_21_labels(grid_1910_2014):
    labels = grid_1910_2014.labels()
    assert len(labels) == 21
    assert labels[0] == 1910 and labels[-1] == 2010
    assert len(grid_1910_2014.label_pairs()) == 20


def test_year_2003_maps_to_label_2000(grid_1910_2014):
    assert grid_1910_2014.snapshot_of(2003) == 2000


@given(st.integers(min_value=1910, max_value=2014))
def test_snapshot_mapping_idempotent_on_labels(year):
    grid = SnapshotGrid(1910, 2014, 5)
    label = grid.snapshot_of(year)
    assert grid.snapshot_of(label) == label
    assert label <= year < label + grid.width_years


def test_grid_validation():
    with pytest.raises(InvalidSpec):
        SnapshotGrid(2000, 1990, 5)
    with pytest.raises(InvalidSpec):
        SnapshotGrid(1910, 2014, 0)


# -- ingestion --

def test_multiplex_replication(table, make_records, grid_1910_2014):
    records = make_records([("X", "p1", "J1", 2003)])
    profiles, stats = ingested(records, table, grid_1910_2014)
    assert len(profiles) == 1
    profile = profiles[0]
    assert profile.snapshot == 2000
    assert profile.topic_counts == {"T1": 1, "T2": 1}
    assert multidisciplinarity(profiles, table)[0].histogram == {2: 1}  # A1 and A2
    assert stats.records_kept == 1


def test_author_over_threshold_excluded_everywhere(table, make_records, grid_1910_2014):
    rows = [("X", f"p{i}", "J2", 2001) for i in range(18)]
    rows.append(("X", "q1", "J2", 1950))  # different snapshot, still excluded
    rows.append(("Y", "r1", "J2", 2001))
    profiles, stats = ingested(records_file=make_records(rows), table=table,
                               grid=grid_1910_2014, max_papers_per_year=17)
    assert {p.author_id for p in profiles} == {"Y"}
    assert stats.authors_excluded == 1


def test_threshold_17_exactly_is_kept(table, make_records, grid_1910_2014):
    rows = [("X", f"p{i}", "J2", 2001) for i in range(17)]
    profiles, stats = ingested(make_records(rows), table, grid_1910_2014, 17)
    assert {p.author_id for p in profiles} == {"X"}
    assert stats.authors_excluded == 0


def test_threshold_zero_disables_cut(table, make_records, grid_1910_2014):
    rows = [("X", f"p{i}", "J2", 2001) for i in range(30)]
    profiles, stats = ingested(make_records(rows), table, grid_1910_2014, 0)
    assert {p.author_id for p in profiles} == {"X"}
    assert stats.authors_excluded == 0


def test_duplicate_author_paper_counts_once(table, make_records, grid_1910_2014):
    records = make_records([("X", "p1", "J2", 2001), ("X", "p1", "J2", 2001)])
    profiles, stats = ingested(records, table, grid_1910_2014)
    assert profiles[0].topic_counts == {"T2": 1}
    assert stats.records_kept == 1
    assert stats.records_read == 2


def test_unclassified_and_out_of_range_drops_counted(table, make_records, grid_1910_2014):
    records = make_records(
        [
            ("X", "p1", "J2", 2001),
            ("X", "p2", "mystery", 2001),
            ("X", "p3", "J2", 1890),
        ]
    )
    profiles, stats = ingested(records, table, grid_1910_2014)
    assert stats.records_read == 3
    assert stats.dropped_unclassified == 1
    assert stats.dropped_year == 1
    assert stats.records_kept == 1


def test_malformed_record_names_file_and_line(table, tmp_path, grid_1910_2014):
    records = write_lines(tmp_path / "bad.tsv", ["X\tp1\tJ2\t2001", "X\tp2\tJ2"])
    with pytest.raises(MalformedRecord, match="bad.tsv:2"):
        ingest_records(records, table, grid_1910_2014)


def test_non_integer_year_rejected(table, tmp_path, grid_1910_2014):
    records = write_lines(tmp_path / "bad.tsv", ["X\tp1\tJ2\tMMXX"])
    with pytest.raises(MalformedRecord):
        ingest_records(records, table, grid_1910_2014)


def test_ndjson_records_equivalent(table, tmp_path, make_records, grid_1910_2014):
    rows = [("X", "p1", "J1", 2003), ("Y", "p2", "J2", 1950)]
    tsv = make_records(rows)
    ndjson = write_lines(
        tmp_path / "records.ndjson",
        ["# json records"]
        + [
            json.dumps(
                {"author_id": a, "paper_id": p, "journal_id": j, "year": y}
            )
            for a, p, j, y in rows
        ],
    )
    assert list(iter_records(ndjson)) != []
    got_tsv, _ = ingested(tsv, table, grid_1910_2014)
    got_json, _ = ingested(ndjson, table, grid_1910_2014)
    assert got_tsv == got_json


def test_ndjson_rejects_missing_field(tmp_path, table, grid_1910_2014):
    path = write_lines(tmp_path / "r.ndjson", [json.dumps({"author_id": "X"})])
    with pytest.raises(MalformedRecord):
        ingest_records(path, table, grid_1910_2014)


_FIELDS_MESSAGE = "record object must have exactly the fields author_id, paper_id, journal_id, year"
_GOOD_RECORD = {"author_id": "X", "paper_id": "p1", "journal_id": "J1", "year": 1912}


@pytest.mark.parametrize(
    "second",
    [
        json.dumps({**_GOOD_RECORD, "extra": 1}),
        json.dumps(list(_GOOD_RECORD.values())),
        json.dumps("X p1 J1 1912"),
    ],
    ids=["extra-field", "array", "string"],
)
def test_ndjson_rejects_records_without_exactly_the_fields(tmp_path, second):
    path = write_lines(tmp_path / "r.ndjson", [json.dumps(_GOOD_RECORD), second])
    with pytest.raises(MalformedRecord, match=re.escape(f"{path}:2: {_FIELDS_MESSAGE}")):
        list(iter_records(path))


class _RejectEveryLine(json.JSONDecoder):
    """A decoder that takes no line, so ``iter_records`` hands every one to
    ``json.loads``: the reference reader, one ``json.loads`` call per line."""

    def raw_decode(self, s, idx=0):
        raise json.JSONDecodeError("rejected", s, idx)


def _read(path):
    try:
        return list(iter_records(path))
    except MalformedRecord as exc:
        return str(exc)


_GOOD = json.dumps(_GOOD_RECORD)
_OTHER = json.dumps({**_GOOD_RECORD, "paper_id": "p2"})


@pytest.mark.parametrize("second,accepted", [
    (f"  {_GOOD}", True), (f"\t{_GOOD}", True), (f"{_GOOD}  ", True), (f"{_GOOD}\t", True),
    (f" \t{_GOOD}\t ", True), (f"{_GOOD}\r", True),
    (f"{_GOOD} {_OTHER}", False), (f"{_GOOD}x", False), (_GOOD[:-9], False),
    (_GOOD.replace("1912", "1" * 5000), False), (json.dumps(list(_GOOD_RECORD.values())), False),
    (json.dumps("X p1 J1 1912"), False), (_GOOD.replace("1912", "NaN"), False), (" \t ", False),
], ids=["lead-spaces", "lead-tab", "trail-spaces", "trail-tab", "both", "crlf", "two-objects",
        "trailing-x", "truncated", "5000-digits", "array", "string", "nan-year", "blank-ish"])
def test_ndjson_decoder_matches_json_loads_per_line(tmp_path, monkeypatch, second, accepted):
    path = tmp_path / "r.ndjson"
    path.write_bytes(f"{_GOOD}\r\n{second}\n{_OTHER}\r\n".encode())
    got = _read(path)
    if accepted:
        assert [r[0] for r in got] == [1, 2, 3]
    else:
        assert got.startswith(f"{path}:2: ")
    monkeypatch.setattr(json, "JSONDecoder", _RejectEveryLine)
    assert _read(path) == got


def test_canonical_ndjson_lines_never_reach_json_loads(tmp_path, monkeypatch):
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda s, **kw: calls.append(s) or loads(s, **kw))
    lines = [json.dumps({**_GOOD_RECORD, "paper_id": f"p{i}"}) for i in range(50)]
    path = write_lines(tmp_path / "r.ndjson", ["# header", *lines])
    assert len(list(iter_records(path))) == 50
    assert calls == []
    write_lines(path, [*lines, f" {lines[0]}"])
    assert len(list(iter_records(path))) == 51
    assert calls == [f" {lines[0]}"]


# -- per-file memo of checked ids and years --

@pytest.mark.parametrize(
    "bad", ["X\u00a0\tp4\tJ1\t1912", "X\tp4\tJ1\u00a0\t1912", "X\tp\u00a04\tJ1\t1912"],
    ids=["author", "journal", "paper"],
)
def test_new_variant_of_a_checked_id_is_checked(table, tmp_path, grid_1910_2014, bad):
    records = write_lines(tmp_path / "r.tsv", [f"X\tp{i}\tJ1\t1912" for i in (1, 2, 3)] + [bad])
    message = f"{records}:4: author/paper/journal ids must be non-empty tokens without whitespace"
    with pytest.raises(MalformedRecord, match=re.escape(message)):
        ingest_records(records, table, grid_1910_2014)


def test_year_spellings_give_the_same_profiles(table, make_records, grid_1910_2014):
    rows = [("X", "p1", "J1", 1912), ("X", "p2", "J2", 1912), ("Y", "p3", "J3", 1912),
            ("Y", "p4", "J1", 1912)]
    plain = make_records(rows, name="plain.tsv")
    mixed = make_records(
        [(a, p, j, "01912" if i % 2 else y) for i, (a, p, j, y) in enumerate(rows)],
        name="mixed.tsv",
    )
    expected = ingested(plain, table, grid_1910_2014)
    assert len(expected[0]) == 2
    assert ingested(mixed, table, grid_1910_2014) == expected


def test_ids_checked_once_per_distinct_text(table, make_records, grid_1910_2014, monkeypatch):
    rows = _random_rows(random.Random(7), 300)
    records = make_records(rows)
    checked = []
    real = ingest_module.is_token

    def counting(text):
        checked.append(text)
        return real(text)

    monkeypatch.setattr(ingest_module, "is_token", counting)
    assert len(list(iter_records(records))) == len(rows)
    distinct = {a for a, _, _, _ in rows} | {j for _, _, j, _ in rows}
    # Each distinct author or journal id once; paper ids are checked inline, per record.
    assert sorted(checked) == sorted(distinct)
    # Past the first block, which names the format, a block that passes the
    # whole-block check skips the line path: only the first block's ids reach is_token.
    checked.clear()
    monkeypatch.setattr(util_module, "BLOCK_BYTES", 64)
    first = next(util_module.iter_blocks(records))[1].decode().splitlines()
    _, stats = ingested(records, table, grid_1910_2014)
    assert stats.records_read == len(rows)
    assert sorted(checked) == sorted({f for line in first for f in line.split("\t")[::2]})


# -- the block read of TSV records --

_LINE_PATH = re.compile("(?!)")  # a check no block passes: every block takes the line path
# Every character str.split() splits on besides the tab and the newline.
_WHITESPACE = [c for c in map(chr, range(0x3001)) if c.isspace() and c not in "\t\n"]


def _read_both_ways(monkeypatch, path, table, grid, sizes=(3, 7, 40), **kwargs):
    """Ingest ``path`` with the default block size, with each of ``sizes``,
    and on the line path alone (neither the TSV nor the NDJSON block check
    takes a block); assert that all give the same groups, stats and
    profiles, or the same error, and return that."""
    group_papers = ingest_module._group_papers
    outcomes = []
    for size, line_path in [(util_module.BLOCK_BYTES, False), *((n, False) for n in sizes),
                            (util_module.BLOCK_BYTES, True)]:
        groups = []

        def grouped(*args):  # a copy of the groups, which the walk empties
            result = group_papers(*args)
            groups.append({author: bytes(entries) for author, entries in result.items()})
            return result

        monkeypatch.setattr(util_module, "BLOCK_BYTES", size)
        if line_path:
            monkeypatch.setattr(ingest_module, "TOKEN_ROWS", _LINE_PATH)
            monkeypatch.setattr(ingest_module, "JSON_ROW", _LINE_PATH)
        monkeypatch.setattr(ingest_module, "_group_papers", grouped)
        try:
            profiles, stats = ingested(path, table, grid, **kwargs)
            outcomes.append((groups, profiles, stats))
        except PipelineError as exc:
            outcomes.append((type(exc), str(exc)))
        monkeypatch.undo()
    assert all(outcome == outcomes[0] for outcome in outcomes), path
    return outcomes[0]


def _write_bytes(tmp_path, lines, end=b"\n", name="records.tsv"):
    path = tmp_path / name
    path.write_bytes(end.join(line.encode() if isinstance(line, str) else line
                              for line in lines) + end)
    return path


_ROWS = [f"a{i % 5}\tp{i}\tJ{1 + i % 3}\t{1910 + i * 7 % 110}" for i in range(40)]


@pytest.mark.parametrize("end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_line_ends_read_the_same_at_every_block_size(table, tmp_path, monkeypatch,
                                                       grid_1910_2014, end):
    expected = _read_both_ways(monkeypatch, _write_bytes(tmp_path, _ROWS, name="lf.tsv"),
                               table, grid_1910_2014)
    assert expected[2].records_read == 40
    # Sizes 1 to 9 cut the file between a b"\r" and its b"\n" many times over.
    got = _read_both_ways(monkeypatch, _write_bytes(tmp_path, _ROWS, end), table,
                          grid_1910_2014, sizes=range(1, 10))
    assert got[1:] == expected[1:]
    path = _write_bytes(tmp_path, [*_ROWS, "", "a\tq\tJ1"], end, name="bad.tsv")
    error = _read_both_ways(monkeypatch, path, table, grid_1910_2014, sizes=range(1, 10))
    assert error[1] == f"{path}:42: expected 4 tab-separated fields, got 3"


def test_comment_and_blank_lines_at_block_edges(table, tmp_path, monkeypatch, grid_1910_2014):
    lines = ["# head", ""]
    for i, row in enumerate(_ROWS):
        # The second comment has four fields, a valid year among them.
        lines += [row, *(["", "#a\tq\tJ1\t1912", "#"] if i % 3 else [])]
    got = _read_both_ways(monkeypatch, _write_bytes(tmp_path, lines), table, grid_1910_2014,
                          sizes=range(1, 30, 4))
    assert got[2].records_read == 40


def test_token_rows_keeps_to_is_token():
    """The whole-block check takes an id with any character ``is_token`` takes,
    and no other: the block path and the line path accept the same ids."""
    chars = map(chr, range(0x110000))
    good = [c for c in chars if util_module.is_token(c)]
    assert len(good) == 0x110000 - 29  # _WHITESPACE, the tab and the newline
    rows = "".join(f"a{c}\tp{c}\tj{c}\t1912\n" for c in good)
    assert util_module.TOKEN_ROWS.fullmatch(rows)
    for c in {*_WHITESPACE, "\t", "\n"}:
        assert not util_module.TOKEN_ROWS.fullmatch(f"a{c}b\tp\tj\t1912\n"), hex(ord(c))


@pytest.mark.parametrize("size", [7, util_module.BLOCK_BYTES])
@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("before", [0, 3, 5000])
def test_a_line_over_line_bytes_raises_naming_it(tmp_path, monkeypatch, size, end, before):
    """A line of ``LINE_BYTES`` bytes is read; one of a byte more, ended or
    not, raises after every earlier line."""
    n = util_module.LINE_BYTES
    monkeypatch.setattr(util_module, "BLOCK_BYTES", size)
    path, head = tmp_path / "long.txt", b"ab" + end
    for last in (end, b""):
        path.write_bytes(head * before + b"x" * n + end + b"y" * (n + 1) + last)
        blocks = []
        with pytest.raises(MalformedLine) as exc:
            blocks.extend(block for _, block in util_module.iter_blocks(path))
        assert str(exc.value) == f"{path}:{before + 2}: line longer than {n} bytes"
        assert b"".join(blocks) == b"ab\n" * before + b"x" * n + b"\n"
        path.write_bytes(head * before + b"x" * n + last)
        assert b"".join(block for _, block in util_module.iter_blocks(path)) == (
            b"ab\n" * before + b"x" * n + b"\n"
        )


def test_ndjson_reads_the_same_at_every_block_size(table, tmp_path, monkeypatch,
                                                    grid_1910_2014):
    lines = [json.dumps({**_GOOD_RECORD, "paper_id": f"p{i}"}) for i in range(20)]
    lines[7] = f" {lines[7]}"  # json.loads judges this line, past the first block
    path = write_lines(tmp_path / "r.ndjson", lines)
    assert _read_both_ways(monkeypatch, path, table, grid_1910_2014)[2].records_read == 20
    # The format is the file's: valid TSV lines past the first block are bad JSON.
    path = write_lines(tmp_path / "mixed.ndjson", [*lines, *_ROWS])
    kind, message = _read_both_ways(monkeypatch, path, table, grid_1910_2014)
    assert message.startswith(f"{path}:21: invalid JSON record: ")


@pytest.mark.parametrize("char", _WHITESPACE, ids=lambda c: f"U+{ord(c):04X}")
def test_whitespace_in_an_id_exits_two_naming_its_line(tmp_path, monkeypatch, grid_1910_2014,
                                                       table, capsys, char):
    assert len(_WHITESPACE) == 27
    lines = [*_ROWS[:30], f"a{char}b\tq\tJ1\t1912", *_ROWS[30:]]
    path = _write_bytes(tmp_path, lines)
    kind, message = _read_both_ways(monkeypatch, path, table, grid_1910_2014)
    if char != "\r":  # a line end: that line has one field, the next three
        assert message == f"{path}:31: {ingest_module._BAD_IDS}"
    monkeypatch.setattr(util_module, "BLOCK_BYTES", 5)
    args = ["--records", str(path), "--out", str(tmp_path / "out"),  # the table's files
            "--journal-topics", str(tmp_path / "journal_topics.tsv"),
            "--topic-areas", str(tmp_path / "topic_areas.tsv")]
    capsys.readouterr()
    assert main(["ingest", *args]) == 2
    assert capsys.readouterr().err == f"topicflow: error: {message}\n"


@pytest.mark.parametrize("year", [" 1915", "+1915", "1_915", "01915", "\uff11\uff19\uff11\uff15",
                                  "1915\u00a0"])
def test_year_spellings_match_the_plain_year_at_every_block_size(
    table, tmp_path, monkeypatch, grid_1910_2014, year
):
    plain = _write_bytes(tmp_path, [*_ROWS, "a1\tq\tJ1\t1915"], name="plain.tsv")
    spelled = _write_bytes(tmp_path, [*_ROWS, f"a1\tq\tJ1\t{year}"])
    expected = _read_both_ways(monkeypatch, plain, table, grid_1910_2014)
    assert _read_both_ways(monkeypatch, spelled, table, grid_1910_2014)[1:] == expected[1:]


@pytest.mark.parametrize("bad,message", [
    (b"a\tq\xff\tJ1\t1915", "not UTF-8 text: invalid start byte"),
    (b"a\tq\tJ1\xe2\x80", "not UTF-8 text: unexpected end of data"),
    (b"a\tq\tJ1", "expected 4 tab-separated fields, got 3"),
    (b"a\tq\tJ1\t1915\tx", "expected 4 tab-separated fields, got 5"),
    (b"a\tq\tJ1\t19x5", "year must be an integer, got '19x5'"),
], ids=["utf8", "utf8-end", "3-fields", "5-fields", "year"])
def test_a_bad_line_in_a_later_block_is_named(table, tmp_path, monkeypatch, grid_1910_2014,
                                              bad, message):
    lines = ["# records", *_ROWS[:35], bad, *_ROWS[35:], b"a\tq\tJ1"]
    path = _write_bytes(tmp_path, lines)
    kind, got = _read_both_ways(monkeypatch, path, table, grid_1910_2014, sizes=(5, 64, 700))
    assert issubclass(kind, PipelineError) and got == f"{path}:37: {message}"


@pytest.mark.parametrize("cut_scope,quantile", [("all", None), ("classified", 0.5), ("all", 0.8)])
def test_quantile_and_cut_scope_all_at_every_block_size(
    table, tmp_path, monkeypatch, grid_1910_2014, cut_scope, quantile
):
    rows = [f"{a}\t{p}\t{j}\t{y}" for a, p, j, y in _rows_with_repeats(random.Random(3), 200)]
    _, profiles, stats = _read_both_ways(monkeypatch, _write_bytes(tmp_path, rows), table,
                                         grid_1910_2014, max_papers_per_year=2,
                                         cut_scope=cut_scope, quantile=quantile)
    assert stats.dropped_year and stats.dropped_unclassified and stats.authors_excluded
    assert profiles


# -- the block read of NDJSON records --

def _json_line(author="a1", paper="q", journal="J1", year=1915, **dumps):
    return json.dumps({"author_id": author, "paper_id": paper, "journal_id": journal,
                       "year": year}, **dumps)


# About 22 KB: past the first 16 KiB block, the default block size takes the block path too.
_JSON_LINES = [_json_line(f"a{i % 5}", f"p{i}", f"J{1 + i % 3}", 1910 + i * 7 % 110)
               for i in range(300)]
_JSON_SIZES = (3, 7, 40, 200, 700)


def test_canonical_ndjson_blocks_skip_the_line_path(table, tmp_path, monkeypatch,
                                                     grid_1910_2014):
    path = write_lines(tmp_path / "r.ndjson", _JSON_LINES)
    checked = []
    real = ingest_module.is_token
    monkeypatch.setattr(ingest_module, "is_token", lambda text: checked.append(text) or real(text))
    monkeypatch.setattr(util_module, "BLOCK_BYTES", 256)
    first = next(util_module.iter_blocks(path))[1].decode().splitlines()
    assert 1 < len(first) < 10
    _, stats = ingested(path, table, grid_1910_2014)
    assert stats.records_read == 300
    # Only the first block, which names the format, reaches the id checks.
    assert sorted(checked) == sorted({v for line in first for k, v in json.loads(line).items()
                                      if k in ("author_id", "journal_id")})


def _escape_every_tenth(obj):  # p1, p11, p21, ...: one line in each 1,024-byte block or more
    return json.dumps(dict(obj, author_id=obj["author_id"] + "é"[:obj["paper_id"][-1] == "1"]))


@pytest.mark.parametrize("dump", [
    lambda obj: json.dumps(obj, separators=(",", ":")),
    lambda obj: json.dumps(obj, sort_keys=True),
    _escape_every_tenth,
], ids=["compact", "sorted-keys", "escaped"])
def test_other_ndjson_forms_are_not_scanned_whole(table, tmp_path, monkeypatch, grid_1910_2014,
                                                 dump):
    """A block whose first line is not in ``json.dumps``' default form, or that
    holds a backslash, goes to the line path without a ``findall`` over it."""
    path = write_lines(tmp_path / "r.ndjson", [dump(json.loads(line)) for line in _JSON_LINES])
    scanned = []

    class Row:  # JSON_ROW, counting the whole-block scans
        match = util_module.JSON_ROW.match

        def findall(self, text):
            scanned.append(text)
            return util_module.JSON_ROW.findall(text)

    monkeypatch.setattr(ingest_module, "JSON_ROW", Row())
    monkeypatch.setattr(util_module, "BLOCK_BYTES", 1024)
    _, stats = ingested(path, table, grid_1910_2014)
    assert stats.records_read == 300
    assert scanned == []


@pytest.mark.parametrize("end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_ndjson_line_ends_read_the_same_at_every_block_size(table, tmp_path, monkeypatch,
                                                             grid_1910_2014, end):
    expected = _read_both_ways(monkeypatch, _write_bytes(tmp_path, _JSON_LINES, name="lf.ndjson"),
                               table, grid_1910_2014, sizes=_JSON_SIZES)
    assert expected[2].records_read == 300
    got = _read_both_ways(monkeypatch, _write_bytes(tmp_path, _JSON_LINES, end, name="r.ndjson"),
                          table, grid_1910_2014, sizes=(*range(1, 10), 200, 700))
    assert got[1:] == expected[1:]
    path = _write_bytes(tmp_path, [*_JSON_LINES, "", '{"author_id": "a"}'], end, name="bad.ndjson")
    error = _read_both_ways(monkeypatch, path, table, grid_1910_2014, sizes=_JSON_SIZES)
    assert error[1] == f"{path}:302: {_FIELDS_MESSAGE}"


def test_ndjson_comment_and_blank_lines_at_block_edges(table, tmp_path, monkeypatch,
                                                       grid_1910_2014):
    lines = ["# head", ""]
    for i, line in enumerate(_JSON_LINES):
        lines += [line, *(["", f"#{line}", "#"] if i % 3 else [])]
    got = _read_both_ways(monkeypatch, _write_bytes(tmp_path, lines, name="r.ndjson"), table,
                          grid_1910_2014, sizes=(*range(1, 30, 4), 200, 700))
    assert got[2].records_read == 300


_BASE = _json_line()
_BAD_IDS, _SURROGATE_IDS = ingest_module._BAD_IDS, ingest_module._SURROGATE_IDS
_NDJSON_CASES = {  # a line past the first block: None when it is a record, else its error
    "escape-e-acute": (_BASE.replace('"a1"', '"a\\u00e9"'), None),
    "escape-quote": (_BASE.replace('"a1"', '"a\\""'), None),
    "escape-backslash": (_BASE.replace('"q"', '"q\\\\"'), None),
    "escape-slash": (_BASE.replace('"J1"', '"J\\/1"'), None),
    "raw-non-ascii": (_json_line("a\u00e9", "q\u4e00", ensure_ascii=False), None),
    "raw-u0085": (_json_line("a\x85b", ensure_ascii=False), _BAD_IDS),
    "raw-u00a0": (_json_line(paper="q\xa0", ensure_ascii=False), _BAD_IDS),
    "raw-u2028": (_json_line(journal="J\u20281", ensure_ascii=False), _BAD_IDS),
    "raw-x01": (_BASE.replace('"q"', '"q\x01"'), "invalid JSON record: Invalid control character"),
    "swapped-keys": (json.dumps({"paper_id": "q", "author_id": "a1", "journal_id": "J1",
                                 "year": 1915}), None),
    "compact": (_json_line(separators=(",", ":")), None),
    "year-string": (_json_line(year="1912"), None),
    "year-leading-zero": (_BASE.replace("1915", "01915"), "invalid JSON record: "),
    "year-float": (_json_line(year=1912.0), "year must be an integer, got 1912.0"),
    "year-negative": (_json_line(year=-5), None),
    "year-true": (_json_line(year=True), "year must be an integer, got True"),
    "year-4300-digits": (_json_line(year=int("1" * 4300)), None),
    "year-5000-digits": (_BASE.replace("1915", "1" * 5000), "invalid JSON record: "),
    "extra-key": (_BASE.replace("}", ', "x": 1}'), _FIELDS_MESSAGE),
    "missing-key": (_BASE.replace(', "year": 1915', ""), _FIELDS_MESSAGE),
    # Accepted on every path, the last value winning: the FOUND on duplicated keys in
    # CHANGES.md. A mend that refuses the line gives this case its error in place of None.
    "duplicated-key": (_BASE.replace('"a1", ', '"a2", "author_id": "a1", '), None),
    "two-objects": (f"{_BASE} {_BASE}", "invalid JSON record: Extra data"),
    "lone-surrogate": (_BASE.replace('"a1"', '"a\\ud800"'), _SURROGATE_IDS),
    "spaces-around": (f"  {_BASE}\t ", None),
}


@pytest.mark.parametrize("case", sorted(_NDJSON_CASES))
def test_ndjson_lines_read_the_same_at_every_block_size(table, tmp_path, monkeypatch,
                                                        grid_1910_2014, case):
    line, error = _NDJSON_CASES[case]
    lines = [*_JSON_LINES[:260], line, *_JSON_LINES[260:]]
    path = _write_bytes(tmp_path, lines, name="r.ndjson")
    got = _read_both_ways(monkeypatch, path, table, grid_1910_2014, sizes=_JSON_SIZES)
    if error is None:
        assert got[2].records_read == 301
    else:
        assert got[0] is MalformedRecord and got[1].startswith(f"{path}:261: {error}")


def test_json_row_keeps_to_the_line_path():
    """The NDJSON block check takes a code point in an id exactly when the
    line path takes that line: its bytes are UTF-8, a strict JSON decode
    takes it and ``is_token`` passes each id."""
    decode = json.JSONDecoder().decode  # strict: a raw control character ends no string

    def line(c):
        return f'{{"author_id": "a{c}", "paper_id": "p{c}", "journal_id": "j{c}", "year": 1912}}\n'

    def line_path_takes(c):
        if "\ud800" <= c <= "\udfff":  # a lone surrogate, which no UTF-8 text holds
            return False
        try:
            obj = decode(line(c))
        except ValueError:
            return False
        return all(map(util_module.is_token, list(obj.values())[:3]))

    def block_takes(text):
        try:
            text = text.encode("utf-8", "surrogatepass").decode()  # as a file's bytes read
        except UnicodeDecodeError:
            return False
        return len(util_module.JSON_ROW.findall(text)) == text.count("\n")

    chars = [chr(i) for i in range(0x110000)]
    taken = [c for c in chars if line_path_takes(c)]
    # Not taken: 29 whitespace characters, 23 other controls below U+0020, the quote,
    # the backslash and the 2,048 surrogates.
    assert len(taken) == len(chars) - 29 - 23 - 2 - 0x800
    for start in range(0, len(taken), 4096):
        assert block_takes("".join(map(line, taken[start:start + 4096])))
    for c in set(chars).difference(taken):
        assert not block_takes(line(c)), hex(ord(c))


def _random_rows(rng, n):
    rows = []
    for i in range(n):
        rows.append(
            (
                f"a{rng.randrange(6)}",
                f"p{rng.randrange(n)}",
                rng.choice(["J1", "J2", "J3", "unknown"]),
                rng.choice([1890, 1912, 1950, 1951, 2001, 2003, 2014]),
            )
        )
    return rows


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_order_independence(table, make_records, grid_1910_2014, seed):
    rng = random.Random(seed)
    rows = _random_rows(rng, 60)
    shuffled = rows[:]
    rng.shuffle(shuffled)
    a, _ = ingested(make_records(rows, "a.tsv"), table, grid_1910_2014)
    b, _ = ingested(make_records(shuffled, "b.tsv"), table, grid_1910_2014)
    assert a == b


@pytest.mark.parametrize("seed", [3, 4])
def test_topic_count_conservation_against_recount(table, make_records, grid_1910_2014, seed):
    # Independent streaming recount: filter, dedup to the minimal
    # (year, journal) per (author, paper), then sum journal topic counts.
    rng = random.Random(seed)
    rows = _random_rows(rng, 80)
    records = make_records(rows)
    profiles, stats = ingested(records, table, grid_1910_2014)

    best: dict[tuple[str, str], tuple[int, str]] = {}
    for author, paper, journal, year in rows:
        if journal not in TABLE or not (1910 <= year <= 2014):
            continue
        key = (author, paper)
        if key not in best or (year, journal) < best[key]:
            best[key] = (year, journal)
    expected_total = sum(len(TABLE[journal]) for (_, journal) in best.values())
    got_total = sum(sum(p.topic_counts.values()) for p in profiles)
    assert got_total == expected_total
    assert stats.records_kept == len(best)


# -- quantile --

def test_quantile_by_hand(tmp_path):
    rows = [(f"a{i}", "p0", "J", 2000) for i in range(9)]
    rows.append(("big", "p0", "J", 2000))
    for i in range(1, 100):
        rows.append(("big", f"p{i}", "J", 2000))
    path = write_lines(tmp_path / "r.tsv", [f"{a}\t{p}\t{j}\t{y}" for a, p, j, y in rows])
    assert compute_yearly_paper_quantile(path, 0.9) == 1
    assert compute_yearly_paper_quantile(path, 0.95) == 100


def test_quantile_identical_counts(tmp_path):
    rows = [(f"a{i}", f"p{i}{k}", "J", 2000) for i in range(5) for k in range(3)]
    path = write_lines(tmp_path / "r.tsv", [f"{a}\t{p}\t{j}\t{y}" for a, p, j, y in rows])
    for q in (0.001, 0.5, 0.999):
        assert compute_yearly_paper_quantile(path, q) == 3


def test_quantile_validation(tmp_path):
    path = write_lines(tmp_path / "r.tsv", ["# empty"])
    with pytest.raises(PipelineError, match=re.escape(f"{path}: no records")):
        compute_yearly_paper_quantile(path, 0.5)
    path2 = write_lines(tmp_path / "r2.tsv", ["a\tp\tJ\t2000"])
    with pytest.raises(InvalidSpec):
        compute_yearly_paper_quantile(path2, 1.5)


def test_cut_scope_all_counts_unclassified(table, make_records, grid_1910_2014):
    # 18 unclassified papers push the author over the cut only in 'all' scope
    rows = [("X", f"p{i}", "mystery", 2001) for i in range(18)]
    rows.append(("X", "q0", "J2", 2001))
    records = make_records(rows)
    kept, _ = ingested(records, table, grid_1910_2014, 17, cut_scope="classified")
    assert {p.author_id for p in kept} == {"X"}
    excluded, stats = ingested(records, table, grid_1910_2014, 17, cut_scope="all")
    assert excluded == []
    assert stats.authors_excluded == 1


def test_quantile_over_all_records_tallies_each_author_once(
    table, make_records, grid_1910_2014, monkeypatch
):
    # The quantile and the 'all'-scope cut count the same entries, so the cut
    # reads the quantile's per-author maxima instead of tallying again.
    rows = [(f"a{i}", f"p{i}", "J1", 2001) for i in range(8)]
    rows += [("busy", f"b{i}", "J2", 2001) for i in range(5)]
    rows += [("late", f"l{i}", "mystery", 1950) for i in range(3)] + [("late", "l9", "J3", 1951)]
    tallied = []
    original = ingest_module._year_counts
    monkeypatch.setattr(
        ingest_module, "_year_counts", lambda lines, kept: tallied.append(sorted(lines))
        or original(lines, kept)
    )
    profiles, stats = ingested(
        make_records(rows), table, grid_1910_2014, cut_scope="all", quantile=0.5
    )
    assert stats.max_papers_per_year == 1
    assert (stats.authors_excluded, stats.excluded_by_cut) == (2, 6)
    assert {p.author_id for p in profiles} == {f"a{i}" for i in range(8)}
    # one tally per author: no two authors share a paper, so each holds other lines
    assert len(tallied) == 10 and len({tuple(lines) for lines in tallied}) == 10


# -- single pass against a naive two-pass reference --

def _rows_with_repeats(rng, n):
    """Random rows plus repeats of their papers: in another calendar year,
    in an unclassified journal, outside the grid, or verbatim."""
    years = [1912, 1913, 1950, 1951, 1987, 2001, 2002, 2014]
    rows = [
        (f"a{rng.randrange(n // 4)}", f"p{rng.randrange(n // 2)}",
         rng.choice(["J1", "J2", "J3"]), rng.choice(years))
        for _ in range(n)
    ]
    for author, paper, journal, year in rng.sample(rows, n // 2):
        rows.append(rng.choice([
            (author, paper, rng.choice(["J1", "J2", "J3"]), rng.choice(years)),
            (author, paper, "unknown", year),
            (author, paper, journal, rng.choice([1890, 2020])),
            (author, paper, journal, year),
        ]))
    # one busy author-year near the default cut of 17, in either scope
    rows += [("busy", f"b{i}", "J1", 2001) for i in range(rng.randrange(12, 19))]
    rows += [("busy", f"u{i}", "unknown", 2001) for i in range(rng.randrange(3, 9))]
    rng.shuffle(rows)
    return rows


def _reference_ingest(rows, grid, threshold, cut_scope, quantile):
    """Two passes, the naive way: per-(author, calendar year) paper sets
    give the cut (and the quantile, over every row); then the kept rows
    are deduplicated to the minimal (year, journal) per (author, paper)."""
    def classified(journal, year):
        return journal in TABLE and grid.start_year <= year <= grid.end_year

    if quantile is not None:
        every: dict[tuple[str, int], set[str]] = {}
        for author, paper, _, year in rows:
            every.setdefault((author, year), set()).add(paper)
        sizes = sorted(len(papers) for papers in every.values())
        threshold = sizes[max(0, math.ceil(Fraction(str(quantile)) * len(sizes)) - 1)]
    per_year: dict[tuple[str, int], set[str]] = {}
    for author, paper, journal, year in rows:
        if cut_scope == "all" or classified(journal, year):
            per_year.setdefault((author, year), set()).add(paper)
    excluded = {a for (a, _), papers in per_year.items() if threshold and len(papers) > threshold}

    stats = IngestStats()
    stats.records_read = len(rows)
    stats.authors_excluded = len(excluded)
    stats.max_papers_per_year = threshold
    best: dict[tuple[str, str], tuple[int, str]] = {}
    for author, paper, journal, year in rows:
        if not grid.start_year <= year <= grid.end_year:
            stats.dropped_year += 1
        elif journal not in TABLE:
            stats.dropped_unclassified += 1
        elif author in excluded:
            stats.excluded_by_cut += 1
        elif (author, paper) in best:
            stats.duplicates_collapsed += 1
            best[(author, paper)] = min(best[(author, paper)], (year, journal))
        else:
            best[(author, paper)] = (year, journal)
    stats.records_kept = len(best)

    counts: dict[tuple[str, int], dict[str, int]] = {}
    for (author, _), (year, journal) in best.items():
        bucket = counts.setdefault((author, grid.snapshot_of(year)), {})
        for topic in TABLE[journal]:
            bucket[topic] = bucket.get(topic, 0) + 1
    profiles = [
        ActivityProfile(author, snapshot, topics)
        for (author, snapshot), topics in sorted(counts.items())
    ]
    return profiles, stats


@pytest.mark.parametrize("quantile", [None, 0.5, 0.9])
@pytest.mark.parametrize("threshold", [0, 1, 2, 17])
@pytest.mark.parametrize("cut_scope", ["classified", "all"])
@pytest.mark.parametrize("seed", [0, 1])
def test_single_pass_matches_two_pass_reference(
    table, make_records, grid_1910_2014, seed, cut_scope, threshold, quantile
):
    rows = _rows_with_repeats(random.Random(seed), 80)
    got = ingested(
        make_records(rows), table, grid_1910_2014, threshold,
        cut_scope=cut_scope, quantile=quantile,
    )
    assert got == _reference_ingest(rows, grid_1910_2014, threshold, cut_scope, quantile)
    if quantile is not None:
        assert got[1].max_papers_per_year == compute_yearly_paper_quantile(
            make_records(rows), quantile
        )


@st.composite
def _grid_and_rows(draw):
    """A grid (at times wider than the 128 ASCII year codes) and rows over
    few authors and papers, in years on it and off it on both sides, so
    that papers recur in other years and (year, paper)s in other journals."""
    start = draw(st.integers(1800, 1950))
    end = start + draw(st.sampled_from([9, 104, 127, 128, 300])) - 1
    grid = SnapshotGrid(start, end, draw(st.integers(1, 9)))
    years = st.sampled_from([start - 40, start - 1, start, start + 1, (start + end) // 2,
                             end - 1, end, end + 1, end + 300])
    rows = draw(st.lists(st.tuples(
        st.sampled_from(["a0", "a1", "a2"]), st.sampled_from(["p0", "p1", "p2", "p3"]),
        st.sampled_from(["J1", "J2", "J3", "unknown"]), years,
    ), min_size=1, max_size=40))
    return grid, rows


@settings(max_examples=60, deadline=None)
@given(
    _grid_and_rows(),
    st.sampled_from(["classified", "all"]),
    st.sampled_from([0, 1, 17]),
    st.sampled_from([None, 0.6]),
)
def test_ingest_matches_reference_on_any_grid(tmp_path_factory, grid_rows, cut_scope,
                                              threshold, quantile):
    grid, rows = grid_rows
    table = ClassificationTable(
        journal_topics={j: tuple(ts) for j, ts in TABLE.items()}, topic_area=AREAS
    )
    folder = tmp_path_factory.mktemp("rows")
    tsv = write_lines(folder / "r.tsv", [f"{a}\t{p}\t{j}\t{y}" for a, p, j, y in rows])
    ndjson = write_lines(folder / "r.ndjson", [
        json.dumps(dict(zip(ingest_module.RECORD_FIELDS, row))) for row in rows
    ])
    want = _reference_ingest(rows, grid, threshold, cut_scope, quantile)
    for records in (tsv, ndjson):
        got = ingested(
            records, table, grid, threshold, cut_scope=cut_scope, quantile=quantile
        )
        assert got == want
    if quantile is not None:
        assert compute_yearly_paper_quantile(tsv, quantile) == want[1].max_papers_per_year


# Rows whose entry lines sort next to each other in an author's buffer, each set named for
# the ordering question it asks of the sort.
_LINE_CASES = {
    "control-char-below-tab": [("a", "p", "J2", 2001), ("a", "p\x01", "J1", 2001),
                               ("a", "p", "J1", 2001), ("a", "p\x01", "J3", 2001),
                               ("a", "p\x01", "J2", 2002), ("a", "p", "J3", 2002)],
    "prefix-paper-same-year": [("a", "p1", "J3", 2001), ("a", "p10", "J1", 2001),
                               ("a", "p1", "J2", 2001), ("a", "p10", "J2", 2001),
                               ("a", "p1", "J1", 2002), ("a", "p", "J2", 2001)],
    "journal-J1-before-J10": [("a", "p1", "J10", 2001), ("a", "p1", "J1", 2001),
                              ("a", "p2", "J1", 2001), ("a", "p2", "J10", 2001),
                              ("a", "p3", "J10", 2001), ("a", "p3", "J2", 2002),
                              ("a", "p4", "J2", 2001), ("a", "p4", "J10", 2001)],
    "kept-and-dropped-one-year-paper": [("a", "p1", "unknown", 2001), ("a", "p1", "J2", 2001),
                                        ("a", "p2", "J2", 2001), ("a", "p2", "unknown", 2001),
                                        ("a", "p3", "unknown", 2001), ("b", "p1", "J1", 2001)],
    # 1919 and 1920 would take the codes "\t" and "\n" on the 1910 grid, were they not skipped
    "years-next-to-the-separator-codes": [("a", "p1", "J1", 1918), ("a", "p1", "J2", 1919),
                                          ("a", "p2", "J2", 1920), ("a", "p2", "J1", 1921),
                                          ("a", "p3", "J3", 1919), ("a", "p3", "J1", 1920)],
}


@pytest.mark.parametrize("quantile", [None, 0.5])
@pytest.mark.parametrize("threshold", [0, 1, 2])
@pytest.mark.parametrize("cut_scope", ["classified", "all"])
@pytest.mark.parametrize("case", sorted(_LINE_CASES))
def test_entry_lines_match_reference(table, make_records, grid_1910_2014, case, cut_scope,
                                     threshold, quantile):
    rows = _LINE_CASES[case]
    for order in (rows, rows[::-1]):
        got = ingested(make_records(order), table, grid_1910_2014, threshold,
                       cut_scope=cut_scope, quantile=quantile)
        assert got == _reference_ingest(order, grid_1910_2014, threshold, cut_scope, quantile)


@pytest.mark.parametrize("quantile", [None, 0.5])
@pytest.mark.parametrize("threshold", [0, 1, 2])
def test_wide_grid_and_off_grid_years_match_reference(table, make_records, threshold, quantile):
    # 315 years: codes leave ASCII from the grid's 127th year (1826) on; the years
    # off the grid, counted under --cut-scope all, take codes past the grid's.
    grid = SnapshotGrid(1700, 2014, 5)
    years = [1700, 1825, 1826, 1827, 1950, 2014, 1699, 2015, 3000, 1000]
    rng = random.Random(5)
    rows = [(f"a{rng.randrange(3)}", f"p{rng.randrange(12)}", rng.choice(["J1", "J2", "J10",
             "unknown"]), rng.choice(years)) for _ in range(120)]
    got = ingested(make_records(rows), table, grid, threshold, cut_scope="all",
                   quantile=quantile)
    assert got == _reference_ingest(rows, grid, threshold, "all", quantile)
    assert quantile or threshold or {1825, 1950} <= {p.snapshot for p in got[0]}


def test_grid_wider_than_the_year_codes_exits_one_before_reading(tmp_path, capsys):
    # The grid is refused before the records are read: their line would exit 2.
    write_lines(tmp_path / "journal_topics.tsv", ["J1\tT1"])
    write_lines(tmp_path / "topic_areas.tsv", ["T1\tA1"])
    write_lines(tmp_path / "records.tsv", ["only\ttwo"])
    capsys.readouterr()
    assert main([
        "ingest", "--records", str(tmp_path / "records.tsv"),
        "--journal-topics", str(tmp_path / "journal_topics.tsv"),
        "--topic-areas", str(tmp_path / "topic_areas.tsv"), "--out", str(tmp_path / "out"),
        "--start-year", "0", "--end-year", "1112062",
    ]) == 1
    assert "grids span at most 1112062 years, got 1112063" in capsys.readouterr().err


def test_codes_are_every_code_point_but_the_separators_and_surrogates():
    codes = "".join(map(ingest_module._code, range(ingest_module._CODES)))
    assert len(codes) == ingest_module._CODES == 1_112_062
    assert list(codes) == sorted(set(codes)) and codes[-1] == chr(0x10FFFF)
    assert "\t" not in codes and "\n" not in codes and codes[:126].isascii()
    assert codes.encode().decode() == codes  # no surrogate


def test_more_distinct_years_than_codes_exit_two_naming_the_line(
    table, make_records, monkeypatch
):
    # 10 on-grid years leave 2 codes for years off the grid; a third is refused.
    monkeypatch.setattr(ingest_module, "_CODES", 12)
    rows = [("a", "p", "J1", year) for year in (1912, 1800, 1801, 1800, 1911, 3000)]
    records = make_records(rows)
    grid = SnapshotGrid(1910, 1919, 5)
    profiles, _ = ingested(records, table, grid, cut_scope="all", max_papers_per_year=0)
    assert len(profiles) == 1  # off-grid years take no code unless counted
    with pytest.raises(PipelineError, match=re.escape(f"{records}:6: more than 12 distinct years")):
        ingest_records(records, table, grid, cut_scope="all")
    monkeypatch.setattr(ingest_module, "_CODES", 10)
    with pytest.raises(InvalidSpec, match="at most 10 years, got 11"):
        ingest_records(records, table, SnapshotGrid(1910, 1920, 5))
    monkeypatch.setattr(ingest_module, "_CODES", 2)  # journals take codes too
    with pytest.raises(PipelineError, match="at most 2 journals, got 4"):
        ingest_records(records, table, SnapshotGrid(1910, 1911, 5))


@pytest.mark.parametrize(
    "cut_scope,quantile", [("classified", None), ("all", None), ("classified", 0.5), ("all", 0.9)]
)
def test_stats_reconcile(table, make_records, grid_1910_2014, cut_scope, quantile):
    rows = _rows_with_repeats(random.Random(7), 120)
    _, stats = ingested(
        make_records(rows), table, grid_1910_2014, 2, cut_scope=cut_scope, quantile=quantile
    )
    assert stats.excluded_by_cut > 0 and stats.duplicates_collapsed > 0
    assert stats.dropped_year > 0 and stats.dropped_unclassified > 0
    assert stats.records_read == len(rows) == (
        stats.records_kept + stats.dropped_year + stats.dropped_unclassified
        + stats.excluded_by_cut + stats.duplicates_collapsed
    )


def test_cut_counts_paper_in_each_year_profile_once(table, make_records, grid_1910_2014):
    # p1 appears in 2001 and 2002; 2002 also holds q1, so 2002 has two papers.
    rows = [("X", "p1", "J2", 2001), ("X", "p1", "J1", 2002), ("X", "q1", "J2", 2002)]
    profiles, stats = ingested(make_records(rows), table, grid_1910_2014, 1)
    assert profiles == [] and stats.authors_excluded == 1 and stats.excluded_by_cut == 3
    profiles, stats = ingested(make_records(rows), table, grid_1910_2014, 2)
    assert [p.topic_counts for p in profiles] == [{"T2": 2}]
    assert stats.records_kept == 2 and stats.duplicates_collapsed == 1


# -- memory and garbage collection --

def test_ingest_peak_traced_bytes_per_record(tmp_path):
    # Seed 8 at 2,000 authors: 22,749 records. Peak traced bytes per
    # record read, measured under pytest: 283 with a dict per (author,
    # year), a __dict__ and an own area set per profile; 112 with one
    # dict per author keyed by "year<TAB>paper", slotted profiles and
    # shared area sets (194 with (year, paper) tuple keys instead); 110
    # with keys of a one-character year code plus the paper, against 114
    # for "year<TAB>paper" keys re-measured alongside; 60 with one byte
    # buffer of entry lines per author.
    spec = SyntheticSpec(n_authors=2000, n_topics=40, n_areas=8, n_snapshots=4, seed=8)
    corpus = generate_corpus(spec, SnapshotGrid(1910, 2014, 5), tmp_path)
    table = load_classification(corpus.journal_topics_path, corpus.topic_areas_path)
    tracemalloc.start()
    try:
        _, stats = ingested(corpus.records_path, table, corpus.grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.records_read == corpus.n_records
    assert peak / stats.records_read < 80


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ingest_streams_profiles_to_disk(tmp_path):
    # Seed 8 at 2,000 authors: 22,749 records, 4,457 profiles in 13,311
    # rows. Peak traced bytes per record read, measured under pytest: 131
    # for `main(["ingest", ...])` when it wrote the whole profile list
    # as one joined text, 113 with the walk streamed to disk in blocks. That
    # peak is the read's grouping, which a listed walk shares (110, see
    # above; 60 for both with a byte buffer per author), so the two paths
    # differ past the read: there, keeping the list takes 45 per record and
    # the streamed write 23, about one block.
    spec = SyntheticSpec(n_authors=2000, n_topics=40, n_areas=8, n_snapshots=4, seed=8)
    corpus = generate_corpus(spec, SnapshotGrid(1910, 2014, 5), tmp_path / "corpus")
    table = load_classification(corpus.journal_topics_path, corpus.topic_areas_path)
    out = tmp_path / "out"
    args = [
        "--records", str(corpus.records_path),
        "--journal-topics", str(corpus.journal_topics_path),
        "--topic-areas", str(corpus.topic_areas_path),
        "--end-year", str(corpus.grid.labels()[-1] + 4), "--out", str(out),
    ]
    peak_main = _traced_peak(lambda: main(["ingest", *args]))
    records = json.loads((out / "ingest_stats.json").read_text())["records_read"]
    assert records == corpus.n_records

    def walk():  # read and cut untraced: only what the walk adds is traced
        profiles, _ = ingest_records(corpus.records_path, table, corpus.grid)
        return profiles

    kept, streamed = walk(), walk()
    peak_list = _traced_peak(lambda: list(kept))
    peak_stream = _traced_peak(lambda: write_profiles(streamed, tmp_path / "p.tsv"))
    assert (tmp_path / "p.tsv").read_bytes() == (out / "profiles.tsv").read_bytes()
    assert peak_main / records < 75
    assert peak_stream < peak_list
    assert peak_stream / records < 30


def test_writing_profiles_holds_one_block(tmp_path):
    # Seed 8 at 2,000 authors, 13,311 rows. Peak traced bytes of
    # write_profiles, measured under pytest: 1.63 MB for the list written as
    # one joined text, 6.5 MB for the list four times over; 507 kB for
    # either in blocks of BLOCK_ROWS = 4,096 rows, about 124 bytes per row
    # of one block.
    spec = SyntheticSpec(n_authors=2000, n_topics=40, n_areas=8, n_snapshots=4, seed=8)
    corpus = generate_corpus(spec, SnapshotGrid(1910, 2014, 5), tmp_path / "corpus")
    table = load_classification(corpus.journal_topics_path, corpus.topic_areas_path)
    profiles, _ = ingested(corpus.records_path, table, corpus.grid)
    many = profiles * 4
    once = _traced_peak(lambda: write_profiles(profiles, tmp_path / "once.tsv"))
    four_times = _traced_peak(lambda: write_profiles(many, tmp_path / "four.tsv"))
    assert sum(len(p.topic_counts) for p in profiles) > 3 * BLOCK_ROWS
    assert once / BLOCK_ROWS < 160
    assert four_times < 1.05 * once


def test_written_profiles_load_back_equal(table, make_records, grid_1910_2014, tmp_path):
    rows = [("X", "p1", "J1", 2003), ("Y", "p2", "J1", 1950), ("Z", "p3", "J2", 1950),
            ("Z", "p4", "J3", 1950), ("W", "p5", "J2", 1950)]
    profiles, _ = ingested(make_records(rows), table, grid_1910_2014)
    path = tmp_path / "profiles.tsv"
    write_profiles(profiles, path)
    loaded = list(load_profiles(path, table, grid_1910_2014))
    assert loaded == profiles
    assert [tuple(p) for p in loaded] == [
        ("W", 1950, {"T2": 1}), ("X", 2000, {"T1": 1, "T2": 1}),
        ("Y", 1950, {"T1": 1, "T2": 1}), ("Z", 1950, {"T2": 1, "T3": 1}),
    ]
    assert not hasattr(profiles[0], "__dict__")


@pytest.mark.parametrize("enabled", [True, False])
def test_ingest_restores_gc_state(table, make_records, grid_1910_2014, tmp_path, enabled):
    good = make_records([("X", "p1", "J1", 2003)])
    bad = write_lines(tmp_path / "bad.tsv", ["X\tp1\tJ2\t2001", "X\tp2\tJ2"])
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        ingest_records(good, table, grid_1910_2014, quantile=0.5)
        assert gc.isenabled() is enabled
        with pytest.raises(MalformedRecord):
            ingest_records(bad, table, grid_1910_2014)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_load_profiles_restores_gc_state(table, grid_1910_2014, tmp_path, enabled):
    good = write_lines(tmp_path / "good.tsv", ["X\t1910\tT1\t1"])
    bad = write_lines(tmp_path / "bad.tsv", ["X\t1910\tT1\t1", "X\t1910\tT1"])
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        list(load_profiles(good, table, grid_1910_2014))
        assert gc.isenabled() is enabled
        with pytest.raises(MalformedLine):
            list(load_profiles(bad, table, grid_1910_2014))
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_flow_networks_from_profiles_restores_gc_state(table, grid_1910_2014, enabled):
    good = [ActivityProfile("X", 1910, {"T1": 1})]
    bad = [*good, ActivityProfile("X", 1915, {})]
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        flow_networks_from_profiles(good, grid_1910_2014, level="both", table=table)
        assert gc.isenabled() is enabled
        with pytest.raises(EmptySet):
            flow_networks_from_profiles(bad, grid_1910_2014, level="both", table=table)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_load_networks_restores_gc_state(table, tmp_path, enabled):
    cfg = PipelineConfig(start_year=1910, end_year=1919, width=5, level="topic")
    good, bad = tmp_path / "good", tmp_path / "bad"
    for out, row in ((good, "1910\t1915\tT1\tT2\t1"), (bad, "1910\t1915\tT1\tT2")):
        out.mkdir()
        write_lines(out / flow_file_name("topic", 1910, 1915), [FLOW_HEADER, row])
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert _load_networks(cfg, good, table)["topic"][0].weights == {("T1", "T2"): 1}
        assert gc.isenabled() is enabled
        with pytest.raises(MalformedLine):
            _load_networks(cfg, bad, table)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_pauses_gc_for_the_command_and_restores_it(tmp_path, monkeypatch, enabled):
    during = []
    synth = cli_module.cmd_synth
    monkeypatch.setattr(
        cli_module, "cmd_synth", lambda *args: during.append(gc.isenabled()) or synth(*args)
    )
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert main(["synth", "--authors", "5", "--out", str(tmp_path / "corpus")]) == 0
        assert during == [False]
        assert gc.isenabled() is enabled
        assert main(["flows", "--out", str(tmp_path / "out")]) == 1  # no tables given
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


def test_load_profiles_retained_traced_bytes_per_row(tmp_path):
    # Seed 8 at 2,000 authors: 13,311 profile rows. Bytes still traced
    # per row once the profiles are loaded: 180 with a topic string, an
    # author string and a snapshot int per row; 99 with the table's own
    # topic strings, one author string per run of rows and one int per
    # snapshot label.
    spec = SyntheticSpec(n_authors=2000, n_topics=40, n_areas=8, n_snapshots=4, seed=8)
    corpus = generate_corpus(spec, SnapshotGrid(1910, 2014, 5), tmp_path)
    table = load_classification(corpus.journal_topics_path, corpus.topic_areas_path)
    profiles, _ = ingested(corpus.records_path, table, corpus.grid)
    path = tmp_path / "profiles.tsv"
    write_profiles(profiles, path)
    rows = sum(len(p.topic_counts) for p in profiles)
    del profiles
    tracemalloc.start()
    try:
        loaded = list(load_profiles(path, table, corpus.grid))
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(p.topic_counts) for p in loaded) == rows
    assert retained / rows < 140


def test_flows_and_metrics_peak_traced_bytes_per_profile(tmp_path):
    # Seed 8 at 2,000 authors: 4,457 profiles. Peak traced bytes per
    # profile: 452 for in-process `flows` and 361 for `metrics`' profile
    # read with the whole profile list loaded; 189 and 6 with profiles.tsv
    # streamed one (author, snapshot) group at a time.
    spec = SyntheticSpec(n_authors=2000, n_topics=40, n_areas=8, n_snapshots=4, seed=8)
    corpus = generate_corpus(spec, SnapshotGrid(1910, 2014, 5), tmp_path / "corpus")
    table = load_classification(corpus.journal_topics_path, corpus.topic_areas_path)
    out = tmp_path / "out"
    args = [
        "--records", str(corpus.records_path),
        "--journal-topics", str(corpus.journal_topics_path),
        "--topic-areas", str(corpus.topic_areas_path),
        "--end-year", str(corpus.grid.labels()[-1] + 4), "--out", str(out),
    ]
    assert main(["ingest", *args]) == 0
    n_profiles = sum(1 for _ in load_profiles(out / "profiles.tsv", table, corpus.grid))
    peaks = {}
    for stage in ("flows", "metrics"):
        tracemalloc.start()
        try:
            if stage == "flows":
                assert main(["flows", *args]) == 0
            else:
                multidisciplinarity(load_profiles(out / "profiles.tsv", table, corpus.grid), table)
            _, peaks[stage] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert n_profiles == 4457
    assert peaks["flows"] / n_profiles < 250
    assert peaks["metrics"] / n_profiles < 50


def _profile_rows(profiles):
    return [
        f"{p.author_id}\t{p.snapshot}\t{t}\t{n}"
        for p in profiles
        for t, n in sorted(p.topic_counts.items())
    ]


def test_loaded_profiles_share_table_topics_authors_and_labels(table, grid_1910_2014, tmp_path):
    rows = ["X\t1910\tT1\t2", "X\t1910\tT3\t1", "X\t1915\tT1\t1", "X\t1915\tT2\t4",
            "Y\t1915\tT1\t1", "Y\t2010\tT3\t1"]
    path = write_lines(tmp_path / "profiles.tsv", ["#author\tsnapshot\ttopic\tcount", *rows])
    loaded = list(load_profiles(path, table, grid_1910_2014))
    assert _profile_rows(loaded) == rows
    own = {t: t for t in table.topic_area}
    for p in loaded:
        assert all(t is own[t] for t in p.topic_counts)
    labels = {}
    authors = {}
    for p in loaded:
        assert labels.setdefault(p.snapshot, p.snapshot) is p.snapshot
        assert authors.setdefault(p.author_id, p.author_id) is p.author_id
    assert len(labels) == 3 and len(authors) == 2


_ORDERED_ROWS = [f"{a}\t{s}\t{t}\t{n}" for a, s, t, n in (
    ("X", 1910, "T1", 2), ("X", 1910, "T3", 1), ("X", 1915, "T1", 1), ("X", 1915, "T2", 4),
    ("Y", 1915, "T1", 1), ("Y", 2010, "T2", 3), ("Y", 2010, "T3", 1), ("Z", 1950, "T2", 1),
)]
_SHUFFLED_ROWS = _ORDERED_ROWS[:]
random.Random(3).shuffle(_SHUFFLED_ROWS)


@pytest.mark.parametrize("lines,expected", [
    # X@1910, Y@2010, Z@1950, then X@1915 at line 4.
    (_SHUFFLED_ROWS, "4: profile 'X'@1915 does not follow 'Z'@1950"),
    (_ORDERED_ROWS[::-1], "2: profile 'Y'@2010 does not follow 'Z'@1950"),
    # A group that appears again later: of another author, then of the same one.
    ([*_ORDERED_ROWS, "X\t1910\tT2\t1"], "9: profile 'X'@1910 does not follow 'Z'@1950"),
    ([*_ORDERED_ROWS[:4], "X\t1910\tT2\t1"], "5: profile 'X'@1910 does not follow 'X'@1915"),
], ids=["shuffled", "reversed", "group-returns-after-another-author", "group-returns"])
def test_load_profiles_rejects_groups_out_of_order(table, grid_1910_2014, tmp_path,
                                                   lines, expected):
    path = write_lines(tmp_path / "profiles.tsv", lines)
    with pytest.raises(MalformedLine) as err:
        list(load_profiles(path, table, grid_1910_2014))
    assert str(err.value) == f"{path}:{expected} in (author, snapshot) order"
    ordered = write_lines(tmp_path / "ordered.tsv", _ORDERED_ROWS)
    assert _profile_rows(load_profiles(ordered, table, grid_1910_2014)) == _ORDERED_ROWS


@pytest.mark.parametrize("lines,expected", [
    # Other spellings of an on-grid integer load like the label's own text.
    (["W\t01915\tT1\t1", "X\t+1915\tT2\t2", "Y\t 1915 \tT3\t1", "Z\t1_915\tT1\t1"], None),
    (["X\t1915.0\tT1\t1"], "1: snapshot and count must be integers"),
    (["X\t01916\tT1\t1"], "1: snapshot 1916 is not on the grid"),
    (["X\t01916\tT1\t0"], "1: snapshot 1916 is not on the grid"),
    (["X\t+1915\tT1\tone"], "1: snapshot and count must be integers"),
    (["X\t01915\tT1\t0"], "1: counts must be >= 1"),
    (["X\t1915\tT9\tone"], "1: unknown topic 'T9'"),
    (["X\t1915\tT1\t1", "X\t01915\tT1\t1"], "2: duplicate topic row 'T1'"),
    # A text that passed once is remembered; a new text is still checked.
    (["X\t1915\tT1\t2", "Y\t1915\tT2\t0"], "2: counts must be >= 1"),
    (["W\t01915\tT1\t1", "X\t01915\tT2\tx"], "2: snapshot and count must be integers"),
    (["W\t01915\tT1\t1", "X\t01916\tT2\t1"], "2: snapshot 1916 is not on the grid"),
])
def test_load_profiles_snapshot_spellings(table, grid_1910_2014, tmp_path, lines, expected):
    path = write_lines(tmp_path / "profiles.tsv", lines)
    if expected is None:
        loaded = list(load_profiles(path, table, grid_1910_2014))
        assert _profile_rows(loaded) == [
            "W\t1915\tT1\t1", "X\t1915\tT2\t2", "Y\t1915\tT3\t1", "Z\t1915\tT1\t1",
        ]
        assert all(p.snapshot is loaded[0].snapshot for p in loaded)
        return
    with pytest.raises(MalformedLine) as err:
        list(load_profiles(path, table, grid_1910_2014))
    assert str(err.value) == f"{path}:{expected}"
