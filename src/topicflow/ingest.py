"""Streaming ingestion of publication records into per-snapshot activity profiles.

Records are ``author<TAB>paper<TAB>journal<TAB>year`` lines (or
newline-delimited JSON objects with the same four fields, auto-detected
and read by one reused decoder). Ingestion reads the file once, checking
each distinct author id, journal id and year text only where it first
appears (a repeat is one lookup in a per-read memo), and groups distinct
papers by author, keyed by a one-character calendar year code plus the
paper. The disambiguation cut and the ``--quantile`` threshold are counted
from those groups; the authors under the cut are then deduplicated to one
(year, journal) per paper, in their sorted keys' order, and their topic
activity accumulated per (author, snapshot). That dedupe walk is a
generator: it yields each author's profiles and drops the author's
entries, so a caller that takes the profiles as they come, as ``ingest``
and ``report`` do, never holds the profile list.
"""
from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, NamedTuple

from .classification import ClassificationTable, TopicId
from .errors import InvalidSpec, MalformedRecord, PipelineError
from .util import Checked, Record, is_token, quantile_cutoff

RECORD_FIELDS = ("author_id", "paper_id", "journal_id", "year")
_RECORD_KEYS = frozenset(RECORD_FIELDS)
_BAD_IDS = "author/paper/journal ids must be non-empty tokens without whitespace"


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

    def __init__(
        self, records_read: int = 0, records_kept: int = 0, dropped_unclassified: int = 0,
        dropped_year: int = 0, authors_excluded: int = 0, excluded_by_cut: int = 0,
        duplicates_collapsed: int = 0, max_papers_per_year: int = 0,
    ):
        self.records_read = records_read
        self.records_kept = records_kept
        self.dropped_unclassified = dropped_unclassified
        self.dropped_year = dropped_year
        self.authors_excluded = authors_excluded
        self.excluded_by_cut = excluded_by_cut
        self.duplicates_collapsed = duplicates_collapsed
        self.max_papers_per_year = max_papers_per_year

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

    The format is sniffed from the first non-comment line: ``{`` means
    newline-delimited JSON, anything else is four-column TSV. Comment
    lines (``#``) and blank lines are skipped in both modes. One reused
    ``JSONDecoder`` reads JSON lines; ``json.loads`` judges any it does not
    take whole, such as one with spaces around the object. Each distinct
    author or journal id and TSV year text is checked once per read: ``ids``
    maps an id that passed to the copy every later record shares, and
    ``years`` a year text to its int. Paper ids are checked on every record.
    """
    json_mode = None
    ids: dict[str, str] = {}
    years: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if not line or line.startswith("#"):
                continue
            if json_mode is None:
                json_mode = line.lstrip()[:1] == "{"
                if json_mode:
                    import json
                    decode = json.JSONDecoder().raw_decode
            if json_mode:
                try:
                    obj, end = decode(line)
                except ValueError:
                    end = None
                try:
                    if end != len(line):
                        obj = json.loads(line)
                except ValueError as exc:  # also an integer too long to convert
                    raise MalformedRecord(f"{path}:{lineno}: invalid JSON record: {exc}") from None
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
            if not (  # an id enters ``ids`` (as itself, a truthy text) once it passes
                (author in ids or is_token(author) and ids.setdefault(author, author))
                and is_token(paper)
                and (journal in ids or is_token(journal) and ids.setdefault(journal, journal))
            ):
                raise MalformedRecord(f"{path}:{lineno}: {_BAD_IDS}")
            yield lineno, ids[author], paper, ids[journal], year


# Journal entered for a paper seen only in records the filters drop.
# Journal ids are non-empty tokens, so the empty string cannot collide.
_NOT_KEPT = ""

# author -> year code + paper -> smallest kept journal, or _NOT_KEPT. The grid's year
# start_year + i has the one-character code chr(i) (ASCII up to 128 years), so sorted keys run
# in year order; off-grid years take the next free code points, in the order first seen.
PaperGroups = dict[str, dict[str, str]]
_CODE_POINTS = 0x110000  # the code points a str holds: the most years one read can code


def _group_papers(
    records_file, journals, codes: dict[int, str], track_dropped: bool, stats: IngestStats
) -> tuple[PaperGroups, dict[str, int]]:
    """Read the records file once, grouping papers by author and calendar year.

    Each author holds one dict keyed by year code plus paper id, ``key[0]``
    and ``key[1:]``: most author-years hold a single paper, so a dict per
    author-year would mostly be a dict per record. A string key also keeps
    no separate paper string alive, and, unlike a (year, paper) tuple, is
    not tracked by the cyclic garbage collector, so the grouping holds no
    tracked object per record.

    A record whose year is in ``codes`` and whose journal is in
    ``journals`` is kept: its key maps to the smallest journal any kept
    record gives it. Other records are counted as dropped in ``stats``
    and, when ``track_dropped``, still enter their key as ``_NOT_KEPT``,
    so that the groups also hold the distinct papers of the dropped
    records. Also returns, per author, the number of kept records that
    repeat a (year, paper) already kept.
    """
    groups: PaperGroups = {}
    repeats: dict[str, int] = {}
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
                if len(codes) + len(off_grid) == _CODE_POINTS:
                    raise PipelineError(
                        f"{records_file}:{lineno}: more than {_CODE_POINTS} distinct years"
                    )
                code = off_grid[year] = chr(len(codes) + len(off_grid))
            journal = _NOT_KEPT
        elif journal not in journals:
            dropped_unclassified += 1
            if not track_dropped:
                continue
            journal = _NOT_KEPT
        key = code + paper
        entries = groups.get(author)
        if entries is None:
            groups[author] = {key: journal}
            continue
        previous = entries.get(key)
        if previous is None:
            entries[key] = journal
        elif journal:
            if previous:
                repeats[author] = repeats.get(author, 0) + 1
            if not previous or journal < previous:
                entries[key] = journal
    stats.records_read = read
    stats.dropped_year = dropped_year
    stats.dropped_unclassified = dropped_unclassified
    return groups, repeats


def _year_counts(entries: dict[str, str], kept_only: bool) -> Iterable[int]:
    """Distinct papers per calendar year among one author's entries:
    every entry, or only the kept ones (every entry but _NOT_KEPT)."""
    counts: dict[str, int] = {}
    for key, journal in entries.items():
        if journal or not kept_only:
            code = key[0]
            counts[code] = counts.get(code, 0) + 1
    return counts.values()


def _check_quantile(q: float) -> None:
    if not 0 < q < 1:
        raise InvalidSpec(f"quantile must be in (0, 1), got {q}")


def _yearly_quantile(groups: PaperGroups, q: float, records_file) -> tuple[int, list[int]]:
    """The cut ``q`` derives from per-(author, year) counts of every entry,
    and each author's largest such count, in the order of ``groups``."""
    counts: Counter[int] = Counter()
    maxima: list[int] = []
    for entries in groups.values():
        years = _year_counts(entries, False)
        counts.update(years)
        maxima.append(max(years))
    if not counts:
        raise PipelineError(f"{records_file}: no records")
    return quantile_cutoff(counts, q), maxima


def ingest_records(
    records_file,
    table: ClassificationTable,
    grid: SnapshotGrid,
    max_papers_per_year: int = 17,
    *,
    cut_scope: str = "classified",
    quantile: float | None = None,
) -> tuple[list[ActivityProfile], IngestStats]:
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

    The file is read once, into one dict per author of its distinct
    (calendar year, paper) entries, keyed by year code plus paper (see
    ``PaperGroups``); dropped records enter too when the cut or the
    quantile counts them. The cut and the quantile are per-year tallies
    of these entries (one tally when both count every entry), and the
    dedupe walk takes each kept author's sorted keys, so by ascending
    year, taking a paper from the first year that keeps it. So the cut
    counts a paper once in every year it appears, and the profile counts
    it once.

    Returns profiles sorted by (author, snapshot) plus ingest statistics,
    whose ``max_papers_per_year`` is the cut applied: the list of
    ``_ingest_stream``'s walk, which the CLI streams instead.
    """
    profiles, stats = _ingest_stream(
        records_file, table, grid, max_papers_per_year, cut_scope, quantile
    )
    return list(profiles), stats


def _ingest_stream(
    records_file, table, grid, max_papers_per_year, cut_scope, quantile
) -> tuple[Iterator[ActivityProfile], IngestStats]:
    """``ingest_records`` with the dedupe walk returned as a generator, not started.

    Checks, the read and the cut run before this returns, so bad input
    raises before the caller opens any output. The walk yields each kept
    author's profiles and drops the author's entries; its counters enter
    the returned stats when it is exhausted.
    """
    if quantile is not None:
        _check_quantile(quantile)
    elif max_papers_per_year < 0:
        raise InvalidSpec(f"max_papers_per_year must be >= 0, got {max_papers_per_year}")
    if cut_scope not in ("classified", "all"):
        raise InvalidSpec(f"cut_scope must be 'classified' or 'all', got {cut_scope!r}")

    journals = table.journal_topics
    span = grid.end_year - grid.start_year + 1
    if span > _CODE_POINTS:
        raise InvalidSpec(f"ingest takes grids of at most {_CODE_POINTS} years, got {span}")
    codes = {grid.start_year + i: chr(i) for i in range(span)}
    labels = {code: grid.snapshot_of(year) for year, code in codes.items()}
    count_dropped = cut_scope == "all"
    stats = IngestStats()
    track_dropped = quantile is not None or (count_dropped and max_papers_per_year > 0)
    groups, repeats = _group_papers(records_file, journals, codes, track_dropped, stats)
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
            if (author in over) if over is not None else (
                threshold
                and len(entries) > threshold  # else no year can exceed it
                and any(n > threshold for n in _year_counts(entries, not count_dropped))
            ):
                excluded += 1
                excluded_records += repeats.get(author, 0) + sum(map(bool, entries.values()))
                continue
            collapsed += repeats.get(author, 0)
            seen: set[str] = set()
            by_snapshot: dict[int, dict[TopicId, int]] = {}
            for key in sorted(entries):  # by year code, so by year
                journal = entries[key]
                if not journal:  # a dropped record's entry
                    continue
                paper = key[1:]
                if paper in seen:
                    collapsed += 1
                    continue
                seen.add(paper)
                label = labels[key[0]]
                counts = by_snapshot.get(label)
                if counts is None:
                    counts = by_snapshot[label] = {}
                for topic in journals[journal]:
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
    _check_quantile(q)
    # With no years to keep, every record enters its paper as dropped.
    groups, _ = _group_papers(records_file, {}, {}, True, IngestStats())
    return _yearly_quantile(groups, q, records_file)[0]
