"""Small shared helpers: the one reader and writer of text files (the only
code that opens a file, and holds the rules for line ends, comments, UTF-8,
columns, row blocks and JSON layout), token checks, numeric formatting,
quantile cutoffs, pausing the garbage collector, record bases."""
from __future__ import annotations

import gc
import math
import os
import re
from contextlib import contextmanager, suppress
from itertools import islice
from typing import Iterable, Iterator

from .errors import MalformedLine

BLOCK_BYTES = 1 << 14  # read at a time by ``iter_blocks``
LINE_BYTES = 1 << 20  # the longest line ``iter_blocks`` reads
# Lines of four tab-separated tokens, none opening with "#": \S must keep to is_token's rule.
TOKEN_ROWS = re.compile(r"(?:[^\s#]\S*\t\S+\t\S+\t\S+\n)*")
# One record line as json.dumps writes it: ids with no escape, quote, whitespace by
# is_token's rule or JSON control character, and a year of plain digits.
JSON_ROW = re.compile(r'^\{"author_id": "(%s)", "paper_id": "(%s)", "journal_id": "(%s)", '
                      r'"year": ([1-9][0-9]*)\}\n' % ((r'[^"\\\s\x00-\x1f]+',) * 3), re.M)


def is_token(text: str) -> bool:
    """True when ``text`` is non-empty and holds no whitespace."""
    return text.split() == [text]


def iter_blocks(path) -> Iterator[tuple[int, bytes]]:
    """Yield (done, block): ``path`` read ``BLOCK_BYTES`` at a time (more for a
    longer line), cut after the last line end, with ``\\r\\n`` and ``\\r`` made
    ``\\n`` and the last line ended; ``done`` counts the lines before it. A line
    of more than ``LINE_BYTES`` bytes raises ``MalformedLine`` after every
    earlier block."""
    done, rest = 0, b""
    with open(path, "rb") as fh:
        while True:
            data = fh.read(max(BLOCK_BYTES, len(rest)))
            buf = rest + data
            # Reads are shorter than the bound: only the line begun in ``rest`` can pass it.
            if len(buf) > LINE_BYTES and buf.find(b"\n", 0, LINE_BYTES + 1) == -1 == buf.find(
                    b"\r", 0, LINE_BYTES + 1):
                raise MalformedLine(f"{path}:{done + 1}: line longer than {LINE_BYTES} bytes")
            # Cut after the last line end; a last b"\r" may open a b"\r\n".
            cut = max(buf.rfind(b"\n"), buf.rfind(b"\r", 0, -1)) + 1 if data else len(buf)
            block, rest = buf[:cut], buf[cut:]
            if b"\r" in block:  # a test first: replace() scans slowly for b"\r\n"
                block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            if block:
                yield done, block if block[-1] == 10 else block + b"\n"  # the last line, unended
                done += block.count(b"\n")
            if not data:
                return


def iter_lines(path, blocks=None) -> Iterator[tuple[int, str]]:
    """Yield (lineno, line) for each line of ``iter_blocks(path)``, or of ``blocks``
    of it, that is neither blank nor a ``#`` comment. Text that is not UTF-8
    raises ``MalformedLine`` at its first bad line, after every earlier line."""
    for done, block in iter_blocks(path) if blocks is None else blocks:
        try:
            lines = block.decode().split("\n")
        except UnicodeDecodeError:  # decoded line by line, to name the first bad one
            lines = _decoded(path, block.split(b"\n"), done)
        for lineno, line in enumerate(lines, start=done + 1):
            if line and line[0] != "#":
                yield lineno, line


def _decoded(path, raws: list[bytes], done: int) -> Iterator[str]:
    for lineno, raw in enumerate(raws, start=done + 1):
        try:
            yield raw.decode()
        except UnicodeDecodeError as exc:
            raise MalformedLine(f"{path}:{lineno}: not UTF-8 text: {exc.reason}") from None


def iter_tsv(path, columns: int) -> Iterator[tuple[int, list[str]]]:
    """Yield (lineno, fields) for each line of ``iter_lines``, split on single
    tabs; a line without exactly ``columns`` fields raises ``MalformedLine``."""
    for lineno, line in iter_lines(path):
        fields = line.split("\t")
        if len(fields) != columns:
            raise MalformedLine(f"{path}:{lineno}: expected {columns} columns, got {len(fields)}")
        yield lineno, fields


def iter_key_values(path) -> Iterator[tuple[int, str, str]]:
    """Yield (lineno, key, value), both stripped, for every line of a flat
    ``key=value`` file, read by ``iter_lines``."""
    for lineno, line in iter_lines(path):
        if "=" not in line:
            raise MalformedLine(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        yield lineno, key.strip(), value.strip()


def check_token(token: str, path, lineno: int, what: str) -> str:
    if not is_token(token):
        raise MalformedLine(
            f"{path}:{lineno}: {what} must be a non-empty token without "
            f"whitespace, got {token!r}"
        )
    return token


def fmt_float(x) -> str:
    """Render a float with 12 significant digits."""
    return format(float(x), ".12g")


def fmt_weight(w) -> str:
    """Render a flow weight: integers stay integers, fractions round-trip."""
    if isinstance(w, int):
        return str(w)
    f = float(w)
    if f.is_integer():
        return str(int(f))
    return repr(f)


def parse_weight(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def quantile_cutoff(histogram: dict[int, int], q: float) -> int:
    """Smallest k such that at least a fraction q of the counted values are <= k.

    ``histogram`` maps each value to how many times it occurs. Exact
    rational arithmetic on the decimal rendering of q, so boundary cases
    like q=0.9 over ten values do not drift on float rounding.
    """
    from fractions import Fraction
    total = sum(histogram.values())
    if not total:
        raise ValueError("quantile of an empty collection")
    frac = Fraction(str(q))
    if not 0 < frac < 1:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    idx = max(0, math.ceil(frac * total) - 1)  # the cutoff's place among the sorted values
    for value in sorted(histogram):
        idx -= histogram[value]
        if idx < 0:  # idx < total, so some value ends the loop
            break
    return value


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause cyclic garbage collection for the block.

    The previous state is restored on exit, also when the block raises,
    so a caller that had collection off finds it still off.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# Rows ``write_tsv`` joins into one chunk for ``write_text_atomic``: each
# chunk is a bounded block of text, never the whole file.
BLOCK_ROWS = 4096


def write_text_atomic(path, chunks: str | Iterable[str]) -> None:
    """Write text chunks to ``path`` as UTF-8 with LF line ends, in one step.

    ``chunks`` is one ``str``, written whole, or an iterable of them,
    written in order as it yields them, so a writer that yields blocks of
    rows never holds the whole file. The text goes to a sibling named
    with the process id, which then replaces ``path``. An interrupted
    write, also one whose chunk source raises, leaves the previous file,
    or none, never a truncated one; the sibling is removed on any exception.
    """
    if isinstance(chunks, str):
        chunks = (chunks,)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def write_tsv(path, head: list[str], rows: Iterable[str]) -> None:
    """Write the ``head`` lines, then ``rows``, each a line without its end,
    in one step, joined ``BLOCK_ROWS`` rows at a time: a stream of rows is
    written without being held."""
    rows = iter(rows)

    def blocks() -> Iterator[str]:
        block = [*head, *islice(rows, BLOCK_ROWS)]
        while block:
            yield "\n".join(block) + "\n"
            block = list(islice(rows, BLOCK_ROWS))

    write_text_atomic(path, blocks())


def write_json(path, obj) -> None:
    """Write ``obj`` as JSON, keys sorted and indented by two spaces, in one step."""
    import json  # only the stages that end in a JSON file load it
    write_text_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


class Checked:
    """Mixin for a ``NamedTuple`` subclass: its ``_check`` runs on
    construction and on every ``_replace`` copy (built by ``_make``)."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        self._check()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Record:
    """Base of the mutable slotted classes: a dataclass's ``__eq__`` (same
    class, equal fields) and ``__repr__``, over ``__slots__`` in order."""

    __slots__ = ()
    __hash__ = None  # mutable, so unhashable

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self.__slots__
        return [getattr(self, n) for n in names] == [getattr(other, n) for n in names]

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
