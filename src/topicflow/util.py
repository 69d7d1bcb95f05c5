"""Small shared helpers: the one reader and writer of text files (the only
code that opens a file, and holds the rules for line ends, comments, UTF-8,
columns, row blocks and JSON layout), token checks, numeric formatting,
quantile cutoffs, pausing the garbage collector, record bases."""
from __future__ import annotations

import gc
import math
import os
from contextlib import contextmanager, suppress
from itertools import islice
from typing import Iterable, Iterator

from .errors import MalformedLine


def iter_lines(path) -> Iterator[tuple[int, str]]:
    """Yield (lineno, line) for every line that is neither blank nor a ``#``
    comment, without its line end: ``\\n``, ``\\r\\n`` or ``\\r``.

    Text that is not UTF-8 raises ``MalformedLine`` at the line of its first
    bad byte, once every earlier line has been yielded: the text layer
    decodes ahead, so on that error the lines past the last one it yielded
    are read again as bytes, split as it splits them, and decoded one by one.
    """
    lineno = 0
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.rstrip("\r\n")
                if line and line[0] != "#":
                    yield lineno, line
        return
    except UnicodeDecodeError:
        done = lineno
    with open(path, "rb") as fh:
        # A chunk ends at b"\n", and may hold lines ended by a lone b"\r".
        raws = (raw for chunk in fh for raw in chunk.splitlines())
        for lineno, raw in enumerate(islice(raws, done, None), start=done + 1):
            try:
                line = raw.decode()
            except UnicodeDecodeError as exc:
                raise MalformedLine(f"{path}:{lineno}: not UTF-8 text: {exc.reason}") from None
            if line and line[0] != "#":
                yield lineno, line
    raise MalformedLine(f"{path}: not UTF-8 text")


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


def is_token(text: str) -> bool:
    """True when ``text`` is non-empty and holds no whitespace."""
    return text.split() == [text]


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
