"""Streaming ingestion of publication records into per-snapshot activity profiles.

Records are ``author<TAB>paper<TAB>journal<TAB>year`` lines (or
newline-delimited JSON objects with the same four fields, auto-detected).
Ingestion reads the file once, in blocks of lines. A TSV block that C code
finds valid is split once into columns, and so is an NDJSON block whose every
line is a record as ``json.dumps`` writes it; any other is checked line by line.
Each record is appended to its author's byte buffer as one line: a
one-character calendar year code, the paper, a tab and a one-character
journal code. The disambiguation cut and the ``--quantile`` threshold are
counted from those lines; the authors under the cut are then deduplicated to
one (year, journal) per paper, in their sorted lines' order, and their topic
activity accumulated per (author, snapshot). That dedupe walk is a
generator: it yields each author's profiles and drops the author's buffer,
so a caller that takes the profiles as they come, as ``ingest`` and
``report`` do, never holds the profile list.
"""
from __future__ import annotations

from itertools import chain, count
from typing import Iterable, Iterator, NamedTuple

from .classification import ClassificationTable, TopicId
from .errors import InvalidSpec, MalformedRecord, PipelineError
from .util import (JSON_ROW, TOKEN_ROWS, Checked, Record, is_token, iter_blocks, iter_lines,
                   quantile_cutoff)

RECORD_FIELDS = ("author_id", "paper_id", "journal_id", "year")
_RECORD_KEYS = frozenset(RECORD_FIELDS)
_BAD_IDS = "author/paper/journal ids must be non-empty tokens without whitespace"
_SURROGATE_IDS = "author/paper/journal ids must not hold lone surrogates"


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


class ActivityProfile(NamedTuple):
    """One author's activity within one snapshot.

    ``topic_counts`` counts paper classifications (a paper in a journal
    with three topics counts once per topic). The areas an author touched
    are not stored: they are the table's areas of these topics.
    """

    author_id: str
    snapshot: int
    topic_counts: dict[TopicId, int]


class IngestStats(Record):
    # excluded_by_cut: records passing both filters, of excluded authors;
    # duplicates_collapsed: records repeating a kept (author, paper); last, the
    # cut applied (the argument, or the one --quantile derived), not a counter.
    __slots__ = (
        "records_read", "records_kept", "dropped_unclassified", "dropped_year",
        "authors_excluded", "excluded_by_cut", "duplicates_collapsed", "max_papers_per_year",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__[:-1]}


def _parse_year(value, path, lineno) -> int:
    if type(value) is int:  # not a bool, whose text does not parse either
        return value
    try:
        return int(str(value))
    except ValueError:
        raise MalformedRecord(f"{path}:{lineno}: year must be an integer, got {value!r}") from None


def iter_records(path) -> Iterator[tuple[int, str, str, str, int]]:
    """Yield (lineno, author, paper, journal, year) from a records file.

    Blocks come from ``util.iter_blocks``. The format is sniffed from the first
    line that is neither blank nor a ``#`` comment: ``{`` means
    newline-delimited JSON, anything else is four-column TSV. A later TSV block
    that is UTF-8, matches ``util.TOKEN_ROWS`` and has year texts ``int`` takes
    is split once into columns. So is a later JSON block whose every line
    ``util.JSON_ROW`` matches, as ``json.dumps`` writes a record with ids
    holding no escape, and whose year texts ``int`` takes: one ``findall``
    cuts it. ``checked`` reads any other block line by line, raising at its
    first bad line. One reused ``JSONDecoder`` reads JSON lines;
    ``json.loads`` judges any it does not take whole, such as one with spaces
    around the object. Each distinct year text is parsed once per read, into
    ``years``; on the line path, each distinct author or journal id is checked
    once, and ``ids`` maps an id that passed to the copy every later record
    shares. Paper ids are checked on every record. A JSON escape can spell a
    lone surrogate, which no UTF-8 file holds and no output can encode, so a
    JSON id holding one is refused.
    """
    json_mode = decode = loads = None
    ids: dict[str, str] = {}
    years: dict[str, int] = {}

    def checked(done: int, block: bytes) -> Iterator[tuple[int, str, str, str, int]]:
        nonlocal json_mode, decode, loads
        for lineno, line in iter_lines(path, [(done, block)]):
            if json_mode is None:
                json_mode = line.lstrip()[:1] == "{"
                if json_mode:
                    import json
                    decode, loads = json.JSONDecoder().raw_decode, json.loads
            if json_mode:
                try:
                    obj, end = decode(line)
                except ValueError:
                    end = None
                try:
                    if end != len(line):
                        obj = loads(line)
                except ValueError as exc:  # also an integer too long to convert
                    raise MalformedRecord(
                        f"{path}:{lineno}: invalid JSON record: {exc}"
                    ) from None
                if not isinstance(obj, dict) or obj.keys() != _RECORD_KEYS:
                    raise MalformedRecord(
                        f"{path}:{lineno}: record object must have exactly the fields "
                        f"{', '.join(RECORD_FIELDS)}"
                    )
                author, paper, journal = obj["author_id"], obj["paper_id"], obj["journal_id"]
                year = _parse_year(obj["year"], path, lineno)
                # Only text enters the memo: a JSON list is unhashable.
                if not type(author) is type(paper) is type(journal) is str:
                    raise MalformedRecord(f"{path}:{lineno}: {_BAD_IDS}")
                if not paper.isascii() and _has_surrogate(paper):
                    raise MalformedRecord(f"{path}:{lineno}: {_SURROGATE_IDS}")
            else:
                fields = line.split("\t")
                if len(fields) != 4:
                    raise MalformedRecord(
                        f"{path}:{lineno}: expected 4 tab-separated fields, got {len(fields)}"
                    )
                author, paper, journal, text = fields
                year = years.get(text)
                if year is None:
                    year = years[text] = _parse_year(text, path, lineno)
            # A memo hit is the id's text, which is never empty, so never false.
            author = ids.get(author) or _new_id(ids, author, path, lineno)
            journal = ids.get(journal) or _new_id(ids, journal, path, lineno)
            if paper.split() != [paper]:  # is_token, inline: this runs once per record
                raise MalformedRecord(f"{path}:{lineno}: {_BAD_IDS}")
            yield lineno, author, paper, journal, year

    def runs() -> Iterator[Iterable[tuple[int, str, str, str, int]]]:  # one for each block
        for done, block in iter_blocks(path):
            try:
                text = block.decode() if json_mode is False else ""
                # JSON_ROW holds no backslash. A JSON block with one, or whose first line fails,
                # keeps text "" and goes to checked undecoded; any other gets one match per line.
                if json_mode and b"\\" not in block and JSON_ROW.match(
                        block[:block.find(b"\n") + 1].decode()):
                    rows = JSON_ROW.findall(text := block.decode())
                    columns = [*zip(*rows)] if len(rows) == text.count("\n") else ()
                else:
                    fields = text.split() if TOKEN_ROWS.fullmatch(text) else ()  # only \t, \n split
                    columns = [fields[i::4] for i in range(4)] if fields else ()
                if columns:
                    years.update((y, int(y)) for y in set(columns[3]).difference(years))
            except ValueError:  # not UTF-8, or a year text int() refuses
                columns = ()
            yield (zip(count(done + 1), *columns[:3], map(years.__getitem__, columns[3]))
                   if columns else checked(done, block))

    return chain.from_iterable(runs())


def _new_id(ids: dict[str, str], text: str, path, lineno: int) -> str:
    """Check an author or journal id not in ``ids`` yet, then enter it there."""
    if not is_token(text):
        raise MalformedRecord(f"{path}:{lineno}: {_BAD_IDS}")
    if _has_surrogate(text):
        raise MalformedRecord(f"{path}:{lineno}: {_SURROGATE_IDS}")
    ids[text] = text
    return text


def _has_surrogate(text: str) -> bool:
    """True when ``text`` holds a lone surrogate, which UTF-8 cannot encode."""
    try:
        text.encode()
    except UnicodeEncodeError:
        return True
    return False


def _code(i: int) -> str:
    """The ``i``-th one-character year or journal code: the code points in
    order, skipping the entry separators ``\\t`` and ``\\n`` and the
    surrogates, which UTF-8 cannot encode. Codes rise with ``i``; the first
    126 are ASCII."""
    if i >= 9:
        i += 2
        if i >= 0xD800:
            i += 0x800
    return chr(i)


_CODES = 0x110000 - 2 - 0x800  # how many codes there are: the most years, or journals, coded


def _group_papers(
    records_file, journals: dict[str, str], codes: dict[int, str], track_dropped: bool,
    stats: IngestStats,
) -> dict[str, bytearray]:
    """Read the records file once, grouping papers by author and calendar year.

    Each author holds one ``bytearray``: its entries back to back, each
    the UTF-8 bytes of year code + paper id + ``\\t`` + journal code +
    ``\\n``. Per record, the grouping keeps only the entry's bytes, with no
    dict entry, key string or other object, and nothing the cyclic garbage
    collector tracks. The grid's year ``start_year + i`` has the code
    ``_code(i)`` (``codes`` maps year to code), so sorted entries run in
    year order; off-grid years take the next free codes, in the order
    first seen. ``journals`` maps each journal id of the table to its code,
    and codes rise with the journal id.

    A record whose year is in ``codes`` and whose journal is in ``journals`` is
    kept and enters with its journal code. Other records are counted as dropped
    in ``stats`` and, when ``track_dropped``, still enter, with no journal code,
    so that the groups also hold the papers of the dropped records. Repeats are
    not collapsed here: every record that enters is one entry. Records come from
    ``iter_records``, which reads a valid TSV block whole, by zipping its columns.
    """
    groups: dict[str, bytearray] = {}
    off_grid: dict[int, str] = {}
    read = dropped_year = dropped_unclassified = 0
    for lineno, author, paper, journal, year in iter_records(records_file):
        read += 1
        code = codes.get(year)
        if code is None:
            dropped_year += 1
            if not track_dropped:
                continue
            code = off_grid.get(year)
            if code is None:
                if len(codes) + len(off_grid) == _CODES:
                    raise PipelineError(
                        f"{records_file}:{lineno}: more than {_CODES} distinct years"
                    )
                code = off_grid[year] = _code(len(codes) + len(off_grid))
            journal = ""
        else:
            journal = journals.get(journal)
            if journal is None:
                dropped_unclassified += 1
                if not track_dropped:
                    continue
                journal = ""
        entry = f"{code}{paper}\t{journal}\n".encode()
        entries = groups.get(author)
        if entries is None:
            groups[author] = bytearray(entry)
        else:
            entries += entry
    stats.records_read = read
    stats.dropped_year = dropped_year
    stats.dropped_unclassified = dropped_unclassified
    return groups


def _lines(entries: bytearray) -> list[str]:
    """One author's entries as text lines, in the order they entered."""
    lines = entries.decode().split("\n")
    lines.pop()  # the empty text after the last entry's newline
    return lines


def _year_counts(lines: list[str], kept_only: bool) -> Iterable[int]:
    """Distinct papers per calendar year among one author's entry lines:
    every line, or only the kept ones (those with a journal code)."""
    seen: set[str] = set()
    counts: dict[str, int] = {}
    for line in lines:
        if line[-1] != "\t":
            key = line[:-2]  # year code + paper
        elif kept_only:
            continue
        else:
            key = line[:-1]
        if key not in seen:
            seen.add(key)
            code = line[0]
            counts[code] = counts.get(code, 0) + 1
    return counts.values()


def _yearly_quantile(
    groups: dict[str, bytearray], q: float, records_file
) -> tuple[int, list[int]]:
    """The cut ``q`` derives from per-(author, year) counts of every entry,
    and each author's largest such count, in the order of ``groups``."""
    histogram: dict[int, int] = {}
    maxima: list[int] = []
    for entries in groups.values():
        years = _year_counts(_lines(entries), False)
        for n in years:
            histogram[n] = histogram.get(n, 0) + 1
        maxima.append(max(years))
    if not histogram:
        raise PipelineError(f"{records_file}: no records")
    return quantile_cutoff(histogram, q), maxima


def check_cut(max_papers_per_year: int, cut_scope: str, quantile: float | None) -> None:
    """Raise ``InvalidSpec`` on a bad cut, scope or quantile (NaN included)."""
    if quantile is not None and not 0 < quantile < 1:
        raise InvalidSpec(f"quantile must be in (0, 1), got {quantile}")
    if quantile is None and max_papers_per_year < 0:
        raise InvalidSpec(f"max_papers_per_year must be >= 0, got {max_papers_per_year}")
    if cut_scope not in ("classified", "all"):
        raise InvalidSpec(f"cut_scope must be 'classified' or 'all', got {cut_scope!r}")


def ingest_records(
    records_file,
    table: ClassificationTable,
    grid: SnapshotGrid,
    max_papers_per_year: int = 17,
    *,
    cut_scope: str = "classified",
    quantile: float | None = None,
) -> tuple[Iterator[ActivityProfile], IngestStats]:
    """Stream records into activity profiles, applying the corpus filters.

    Filters, in order: records outside the grid's year range are dropped
    (counted in dropped_year); records in journals absent from the table
    are dropped (dropped_unclassified); authors exceeding
    ``max_papers_per_year`` distinct papers in any single calendar year
    are excluded entirely, every record in every year (0 disables the
    cut). Duplicate (author, paper) pairs count once, canonicalized to
    the smallest (year, journal) so the result does not depend on record
    order. ``cut_scope`` controls whether the per-year paper counts that
    feed the cut see only classified in-range records (``classified``,
    the default) or every well-formed record (``all``). ``quantile``
    replaces ``max_papers_per_year`` with the smallest k such that that
    fraction of (author, year) distinct-paper counts, over every
    well-formed record, are <= k.

    The file is read once, into one byte buffer per author of its entries,
    a line per record of its calendar year's code, the paper and the
    journal's code (see ``_group_papers``); dropped records enter too when
    the cut or the quantile counts them. The cut and the quantile are
    per-year tallies of the distinct (year, paper)s among these lines (one
    tally when both count every line). The dedupe walk sorts each kept
    author's lines, so by ascending year, and within one (year, paper) by
    journal, and takes each paper from its first kept line. So the cut
    counts a paper once in every year it appears, and the profile counts
    it once.

    Checks, the read and the cut run before this returns, so bad input
    raises before the caller opens any output. Returns the dedupe walk as
    a generator, not started, and the ingest statistics, whose
    ``max_papers_per_year`` is the cut applied. The walk yields profiles
    in (author, snapshot) order, each kept author's as it drops the
    author's entries; its counters enter the stats when it is exhausted.
    """
    check_cut(max_papers_per_year, cut_scope, quantile)
    journal_topics = table.journal_topics
    if len(journal_topics) > _CODES:
        raise PipelineError(f"ingest takes at most {_CODES} journals, got {len(journal_topics)}")
    codes = {year: _code(i) for i, year in enumerate(range(grid.start_year, grid.end_year + 1))}
    labels = {code: grid.snapshot_of(year) for year, code in codes.items()}
    journals = {journal: _code(i) for i, journal in enumerate(sorted(journal_topics))}
    topics = {code: journal_topics[journal] for journal, code in journals.items()}
    count_dropped = cut_scope == "all"
    stats = IngestStats()
    track_dropped = quantile is not None or (count_dropped and max_papers_per_year > 0)
    groups = _group_papers(records_file, journals, codes, track_dropped, stats)
    over = None  # the authors over the cut, when the quantile's tally already found them
    if quantile is None:
        threshold = max_papers_per_year
    else:
        threshold, maxima = _yearly_quantile(groups, quantile, records_file)
        if count_dropped:  # the cut counts the entries the quantile just counted
            over = {author for author, top in zip(groups, maxima) if top > threshold}
        del maxima
    stats.max_papers_per_year = threshold

    def walk() -> Iterator[ActivityProfile]:
        kept = collapsed = excluded = excluded_records = 0
        for author in sorted(groups):
            entries = groups.pop(author)
            lines = _lines(entries)
            if (author in over) if over is not None else (
                threshold
                and len(lines) > threshold  # else no year can exceed it
                and any(n > threshold for n in _year_counts(lines, not count_dropped))
            ):
                excluded += 1
                excluded_records += len(lines) - entries.count(b"\t\n")  # lines with a journal
                continue
            # Sorted lines run by year code, so by year. The lines of one (year, paper)
            # are adjacent, as no paper id holds a tab, and run by journal code. So a
            # paper's first kept line is its smallest (year, journal), and each later
            # kept line of it is a duplicate collapsed.
            lines.sort()
            seen: set[str] = set()
            by_snapshot: dict[int, dict[TopicId, int]] = {}
            for line in lines:
                journal = line[-1]
                if journal == "\t":  # a dropped record's line
                    continue
                paper = line[1:-2]
                if paper in seen:
                    collapsed += 1
                    continue
                seen.add(paper)
                label = labels[line[0]]
                counts = by_snapshot.get(label)
                if counts is None:
                    counts = by_snapshot[label] = {}
                for topic in topics[journal]:
                    counts[topic] = counts.get(topic, 0) + 1
            kept += len(seen)
            for snapshot, counts in by_snapshot.items():
                yield ActivityProfile(author, snapshot, counts)
        stats.records_kept = kept
        stats.duplicates_collapsed = collapsed
        stats.authors_excluded = excluded
        stats.excluded_by_cut = excluded_records

    return walk(), stats


def compute_yearly_paper_quantile(records_file, q: float) -> int:
    """Threshold k such that a fraction q of (author, year) paper counts are <= k.

    Counts distinct papers per author per calendar year over every
    well-formed record, with no classification or year filtering, so the
    cut can be re-derived on a raw corpus. ``ingest_records(quantile=q)``
    derives the same k in its own read of the records.
    """
    check_cut(0, "all", q)
    # With no years to keep, every record enters its paper as dropped.
    groups = _group_papers(records_file, {}, {}, True, IngestStats())
    return _yearly_quantile(groups, q, records_file)[0]
