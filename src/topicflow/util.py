"""Small shared helpers: TSV and key=value iteration, the line of a UTF-8
error, token checks, numeric formatting, quantile cutoffs, pausing the
garbage collector, atomic writes of text chunks, record bases."""
from __future__ import annotations

import gc
import math
import os
from contextlib import contextmanager, suppress
from typing import Iterable, Iterator

from .errors import MalformedLine


def iter_tsv(path) -> Iterator[tuple[int, list[str]]]:
    """Yield (lineno, fields) for every non-blank, non-comment line.

    Lines starting with ``#`` are comments. Fields are split on single
    tabs and taken verbatim otherwise. Text that is not UTF-8 raises
    ``MalformedLine`` naming the line of its first bad byte.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.rstrip("\r\n")
                if not line or line.startswith("#"):
                    continue
                yield lineno, line.split("\t")
    except UnicodeDecodeError:
        raise MalformedLine(undecodable(path)) from None


def undecodable(path) -> str:
    """The ``path:line`` message for a text file whose UTF-8 decoding failed.

    The text layer decodes ahead of the lines it hands out, so the line of
    the first bad byte is found here, by reading the file's bytes again,
    and split into lines as the text layer does: at ``\\n``, ``\\r\\n`` or ``\\r``.
    """
    lineno = 0
    with open(path, "rb") as fh:
        for chunk in fh:  # ends at b"\n", and may hold lines ended by a lone b"\r"
            for line in chunk.splitlines():
                lineno += 1
                try:
                    line.decode()
                except UnicodeDecodeError as exc:
                    return f"{path}:{lineno}: not UTF-8 text: {exc.reason}"
    return f"{path}: not UTF-8 text"


def iter_key_values(path) -> Iterator[tuple[int, str, str]]:
    """Yield (lineno, key, value), both stripped, for every line of a flat
    ``key=value`` file; comments and blank lines are skipped as by ``iter_tsv``."""
    for lineno, parts in iter_tsv(path):
        line = "\t".join(parts)
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


# Rows a TSV writer joins into one chunk for ``write_text_atomic``: each
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
