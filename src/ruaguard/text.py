"""The recognizer's text normalisation, the one way every input file is
opened and read as UTF-8, and the line-based formats: key=value settings,
headered TSV, plain lists."""

from __future__ import annotations

import re
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import DatasetFormatError, FormatError, InvalidInputError

T = TypeVar("T")

_WS_RE = re.compile(r"\s+")
_LINE_END_RE = re.compile(r"\r\n?|\n")


def normalize(text: str) -> str:
    """Lowercase, collapse whitespace runs to single spaces, and trim; a blank
    text gives ""."""
    return _WS_RE.sub(" ", text).strip().lower()


def split_lines(text: str) -> list[str]:
    """The lines of ``text``, ended at "\\n", "\\r\\n" or "\\r" only: a line keeps
    "\\v", "\\x85", U+2028 and the like. A final line end starts no line."""
    lines = _LINE_END_RE.split(text)
    return lines[:-1] if lines[-1] == "" else lines


_LINE_END_BYTES_RE = re.compile(_LINE_END_RE.pattern.encode())


def stream_lines(chunks: Iterable[bytes], source: str) -> Iterator[str]:
    """The lines of the bytes ``chunks`` hold, as ``split_lines`` splits their
    text, each yielded once its line end arrives: a "\\r" that ends a chunk
    ends its line at once, and a "\\n" that starts the next chunk is then
    dropped. ``decode_utf8`` refuses a line, naming ``source``."""
    lineno = 0
    held = b""  # the start of a line whose end has not arrived
    after_cr = False
    for chunk in chunks:
        if after_cr and chunk.startswith(b"\n"):
            chunk = chunk[1:]
        after_cr = chunk.endswith(b"\r")
        *lines, tail = _LINE_END_BYTES_RE.split(chunk)
        for line in lines:
            lineno += 1
            yield decode_utf8(held + line, source, lineno)
            held = b""
        held += tail
    if held:
        yield decode_utf8(held, source, lineno + 1)


def decode_utf8(data: bytes, source: str, first_line: int = 1) -> str:
    """``data`` as strict UTF-8. A byte that is not UTF-8 raises
    InvalidInputError naming ``source`` and the line that holds it, counted
    by the ``split_lines`` rule from ``first_line``."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = first_line + len(_LINE_END_RE.findall(data[: exc.start].decode("utf-8")))
        bad = f"byte 0x{data[exc.start]:02x}, {exc.reason}"
        raise InvalidInputError(f"{source} line {line} is not UTF-8: {bad}") from None


def open_input(path):
    """``open(path, "rb")``; a file that cannot be opened raises
    InvalidInputError naming ``path`` and the reason."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc.strerror}") from None


def read_text(path) -> str:
    """The file at ``path`` as ``open(path, encoding="utf-8").read()`` reads
    it, "\\r\\n" and "\\r" read as "\\n", but refused by ``decode_utf8``."""
    with open_input(path) as fh:
        text = decode_utf8(fh.read(), str(path))
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse_file(path, parse: Callable[[str], T]) -> T:
    """``parse(read_text(path))``; a FormatError that ``parse`` raises names ``path``."""
    text = read_text(path)
    try:
        return parse(text)
    except FormatError as exc:
        exc.source = str(path)
        raise


def tsv_rows(text: str, header: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line number, fields)`` per non-blank row after the ``header``
    line; DatasetFormatError names the line that lacks it or a field."""
    lines = split_lines(text)
    head = "\t".join(header)
    if not lines or lines[0] != head:
        raise DatasetFormatError(f"missing header row {head!r}", line=1)
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != len(header):
            raise DatasetFormatError(
                f"expected {len(header)} tab-separated fields, got {len(fields)}", lineno
            )
        yield lineno, fields


def format_tsv(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """The header and each row, fields joined by tabs, each line ended by "\\n"."""
    return "".join("\t".join(fields) + "\n" for fields in (header, *rows))


def parse_key_values(text: str, keys: tuple[str, ...], what: str) -> dict[str, str]:
    """Read ``key = value`` lines into a dict, the last line for a key winning.

    Blank lines and lines whose first non-blank character is # are skipped;
    anywhere else # is part of the value, so a value may hold a URL fragment.
    A line without = or with a key not in ``keys`` raises InvalidInputError,
    naming the file as ``what``.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise InvalidInputError(f"expected key=value on line {lineno}")
        key = key.strip()
        if key not in keys:
            raise InvalidInputError(f"unknown {what} key {key!r} on line {lineno}")
        values[key] = value.strip()
    return values
