"""The CSV table format of every artifact flarevt writes or reads.

A table is a header line, then one line per row with comma-separated
fields.  A float field is the shortest round-trip ``repr`` of its value,
or empty for NaN; an integer field is its decimal text; a stamp is
``YYYY-MM-DDTHH:MM:SSZ`` on the minute grid.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import EmptyInputError, ParseError

# the time-of-day part of a stamp, by minute of the day
_CLOCK_TEXT = np.array([f"T{h:02d}:{m:02d}:00Z" for h in range(24) for m in range(60)],
                       dtype=object)


def _cells(column: np.ndarray, end: str) -> Iterable[str]:
    """Each field of ``column`` (stamps in datetime64[m]) as text, followed by ``end``."""
    column = np.asarray(column)
    if column.dtype.kind == "M":
        # one string per distinct day; a minute's clock text carries the separator
        days = column.astype("datetime64[D]")
        day_list, day_of_row = np.unique(days, return_inverse=True)
        dates = np.datetime_as_string(day_list).astype(object)[day_of_row]
        clocks = (_CLOCK_TEXT + end)[(column - days).astype(np.int64)]
        return map(operator.add, dates.tolist(), clocks.tolist())
    cells = list(map(repr if column.dtype.kind == "f" else str, column.tolist()))
    for i in np.flatnonzero(np.isnan(column)).tolist():
        cells[i] = ""
    return [cell + end for cell in cells] if end else cells


def table_rows(*columns: np.ndarray) -> Iterable[str]:
    """The rows of a table with these columns, each as one line without its newline."""
    *heads, last = columns
    rows = _cells(last, "")
    for column in reversed(heads):
        rows = map(operator.add, _cells(column, ","), rows)
    return rows


def table_text(header: str, *columns: np.ndarray) -> str:
    """A whole table: its header line and a line for each row."""
    return "\n".join([header, *table_rows(*columns)]) + "\n"


def table_points(names: tuple[str, ...], *columns: np.ndarray) -> list[dict]:
    """The rows of a table as JSON objects keyed by ``names``."""
    return [dict(zip(names, row))
            for row in zip(*(np.asarray(column).tolist() for column in columns))]


class Table(NamedTuple):
    """A table's columns as read, before the checks its reader makes.

    One array per column in header order: datetime64[m], int64, or float64
    with NaN where ``empty`` marks an empty field.  ``row_text(i)`` gives
    row ``i``'s 1-based line number and field texts for error messages.
    """

    columns: tuple
    empty: np.ndarray
    row_text: Callable[[int], tuple[int, tuple[str, ...]]]


def to_minutes(stamps: np.ndarray, row_text, column: int) -> np.ndarray:
    """datetime64[s] stamps as datetime64[m]; an off-grid stamp names its line."""
    minutes = stamps.astype("datetime64[m]")
    off_grid = minutes.astype("datetime64[s]") != stamps
    if np.any(off_grid):
        line_no, texts = row_text(int(np.argmax(off_grid)))
        raise ParseError(f"timestamp '{texts[column]}' not on the minute grid", line_no)
    return minutes


def _decode(data: str | bytes) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # number lines as str.splitlines does in read_table
        line_no = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"invalid UTF-8 byte 0x{data[exc.start]:02x}", line_no) from None


def read_table(data: str | bytes, header: str, kinds: dict) -> Table:
    """Read a table line by line, accepting any layout the format allows.

    ``kinds`` maps each column's name, for error messages, to its dtype:
    ``"datetime64[m]"``, ``np.int64`` or ``np.float64``.  Accepts a BOM,
    CRLF, blank lines, padded fields and a ``Z`` after a stamp.  Raises
    EmptyInputError for input without a line, and ParseError naming the
    line of a wrong header or field count, a bad value or an off-grid stamp.
    """
    lines = _decode(data).splitlines()
    if not lines:
        raise EmptyInputError("input is empty")
    got = lines[0].lstrip("\ufeff").strip()
    if got != header:
        raise ParseError(f"expected header '{header}', got '{got}'", 1)
    rows = [(n, [part.strip() for part in line.split(",")])
            for n, line in enumerate(lines[1:], 2) if line.strip()]
    for line_no, parts in rows:
        if len(parts) != len(kinds):
            raise ParseError(f"expected {len(kinds)} fields, got {len(parts)}", line_no)
    line_nos = [line_no for line_no, _ in rows]
    texts = [list(column) for column in zip(*(parts for _, parts in rows))] or [[] for _ in kinds]

    def row_text(i: int) -> tuple[int, tuple[str, ...]]:
        return line_nos[i], tuple(column[i] for column in texts)

    columns, empty = [], np.zeros(len(line_nos), dtype=bool)
    for j, ((name, kind), column) in enumerate(zip(kinds.items(), texts)):
        kind = np.dtype(kind)
        if kind.kind == "M":  # parsed to the second, so that to_minutes sees off-grid stamps
            column[:] = [text.removesuffix("Z") for text in column]
            kind = np.dtype("datetime64[s]")
        elif kind.kind == "f":
            empty |= np.array([not text for text in column], dtype=bool)
            column = [text or "nan" for text in column]
        try:
            values = np.array(column, dtype=kind)
        except ValueError:
            for line_no, text in zip(line_nos, column):
                try:
                    np.array(text, dtype=kind)
                except ValueError:
                    raise ParseError(f"bad {name} value '{text}'", line_no) from None
            raise  # pragma: no cover - unreachable
        columns.append(to_minutes(values, row_text, j) if kind.kind == "M" else values)
    return Table(tuple(columns), empty, row_text)
