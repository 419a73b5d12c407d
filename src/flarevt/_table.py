"""The CSV table format of every artifact flarevt writes or reads.

A table is a header line, then one line per row with comma-separated
fields.  A float field is the shortest round-trip ``repr`` of its value,
or empty for NaN; an integer field is its decimal text; a stamp is
``YYYY-MM-DDTHH:MM:SSZ`` on the minute grid.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .errors import EmptyInputError, ParseError

# the time-of-day part of a stamp, by minute of the day
_CLOCK_TEXT = np.array([f"T{h:02d}:{m:02d}:00Z" for h in range(24) for m in range(60)],
                       dtype="S10").view(np.uint8).reshape(1440, 10)

# Shortest round-trip float text for a whole array at once.  A float x in
# [1e-290, 1e290) with decimal exponent e (10**e <= x < 10**(e+1)) is scaled
# to y = x * 10**(16 - e) in [1e16, 1e17), held as an exact integer part and
# a fraction: a Dekker two-product against 10**(16 - e) as the double-double
# hi + lo.  Rounding y to 15, 16 or 17 significant digits is then integer
# work, and the shortest rounding within half an ulp of x is the one repr
# prints.  A value within _MARGIN of a tie or of the half-ulp bound, and
# every value the scaling cannot take (zero, subnormals, huge values, a
# mantissa that is a power of two, whose rounding interval is lopsided),
# is left to repr.
_P10_MIN, _P10_MAX = -291, 308
_SPLIT = 2.0 ** 27 + 1.0  # Dekker's splitter: a double into two 26-bit halves
_MARGIN = 2.0 ** -30  # far above the ~1e-14 error in y, far below any decision's spread
_MANTISSA_BITS = np.uint64((1 << 52) - 1)
_EXPONENT_BITS = np.uint64(0x7FF << 52)
_E16 = 10 ** 16


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = x * _SPLIT
    high = c - (c - x)
    return high, x - high


def _pow10_table() -> tuple[np.ndarray, ...]:
    """10**s for s in [_P10_MIN, _P10_MAX] as hi + lo, and hi split in halves."""
    exact = [Fraction(10) ** s for s in range(_P10_MIN, _P10_MAX + 1)]
    hi = np.array([float(v) for v in exact])
    lo = np.array([float(v - Fraction(float(v))) for v in exact])
    mantissa, exponent = np.frexp(hi)  # split in [0.5, 1), where the splitter cannot overflow
    return (hi, lo, *(np.ldexp(half, exponent) for half in _split(mantissa)))


_P10_HI, _P10_LO, _P10_HH, _P10_HL = _pow10_table()

# A float's text is gathered from a source row of these bytes: NUL (dropped
# when a row is packed), the sign or NUL, "0", ".", then the exponent ("e",
# its sign, its hundreds digit or NUL, its last two digits), then "0" and
# the 17 significant digits.
_NUL, _SIGN, _ZERO, _POINT = 0, 1, 2, 3
_EXP = [4, 5, 6, 7, 8]
_DIGIT0 = 10
_SOURCE_HEAD = np.frombuffer(b"\0\0" b"0.e", dtype=np.uint8)  # NUL, sign, "0", ".", "e"
_DIGIT_PAIRS = np.array([f"{i:02d}" for i in range(100)], dtype="S2").view(np.uint16)
_FIELD_WIDTH = 24  # the longest repr: "-2.2250738585072014e-308"


def _layouts() -> np.ndarray:
    """Source positions of each layout's bytes, NUL-padded to _FIELD_WIDTH.

    Layout n - 1 is scientific notation with n significant digits; layout
    17 * (e + 5) + n - 1 is positional notation with exponent e in [-4, 15],
    the range in which repr writes no exponent.
    """
    def digits(lo, hi):
        return list(range(_DIGIT0 + lo, _DIGIT0 + hi))

    layouts = [digits(0, 1) + ([_POINT] + digits(1, n) if n > 1 else []) + _EXP
               for n in range(1, 18)]
    for e in range(-4, 16):
        for n in range(1, 18):
            if e < 0:
                layouts.append([_ZERO, _POINT] + [_ZERO] * (-e - 1) + digits(0, n))
            elif e < n - 1:
                layouts.append(digits(0, e + 1) + [_POINT] + digits(e + 1, n))
            else:
                layouts.append(digits(0, n) + [_ZERO] * (e - n + 1) + [_POINT, _ZERO])
    return np.array([[_SIGN] + body + [_NUL] * (_FIELD_WIDTH - 1 - len(body))
                     for body in layouts], dtype=np.uint8)


_LAYOUTS = _layouts()


def _below_pow10(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Whether a < 10**k exactly."""
    hi, lo = _P10_HI.take(k - _P10_MIN), _P10_LO.take(k - _P10_MIN)
    return (a < hi) | ((a == hi) & (lo > 0.0))


def _shortest_digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shortest round-trip digits of each a in [1e-290, 1e290).

    Returns (digits, e, decided): the digits as a 17-digit integer padded
    with trailing zeros, the decimal exponent of the first digit, and
    whether the value was decided with margin (repr formats the others).
    """
    e = np.floor(np.log10(a)).astype(np.intp)
    e -= _below_pow10(a, e)
    e += ~_below_pow10(a, e + 1)
    i = 16 - e - _P10_MIN
    hi = _P10_HI.take(i)
    p = a * hi
    (ah, al), hh, hl = _split(a), _P10_HH.take(i), _P10_HL.take(i)
    err = al * hl - (((p - ah * hh) - al * hh) - ah * hl)  # a * hi == p + err exactly
    whole = np.floor(p)
    frac = (p - whole) + (err + a * _P10_LO.take(i))
    carry = np.floor(frac)
    frac -= carry
    whole = whole.astype(np.int64) + carry.astype(np.int64)
    # half the gap from a to the next double, in units of y's last digit
    half_ulp = (a.view(np.uint64) & _EXPONENT_BITS).view(np.float64) * (hi * 2.0 ** -53)
    digits = whole
    pending = np.ones(a.shape, dtype=bool)  # no shorter rounding is within half an ulp
    decided = np.ones(a.shape, dtype=bool)
    for scale in (100, 10, 1):  # 15, 16, then 17 significant digits
        kept = whole // scale
        rest = ((whole - kept * scale) + frac) / scale
        dist = 0.5 - np.abs(rest - 0.5)
        bound = half_ulp / scale
        take = pending & (dist < bound)
        decided &= ~pending | ((dist <= 0.5 - _MARGIN) & (np.abs(dist - bound) >= _MARGIN))
        digits = np.where(take, (kept + (rest > 0.5)) * scale, digits)
        pending &= ~take
    carried = digits == 10 * _E16  # rounded up to the next power of ten
    return np.where(carried, _E16, digits), e + carried, decided


def _float_field(column: np.ndarray) -> np.ndarray:
    """Each float's repr as ASCII, one NUL-padded row per value; NaN is empty."""
    x = np.asarray(column, dtype=np.float64)
    a = np.abs(x)
    fast = (a >= 1e-290) & (a < 1e290) & (a.view(np.uint64) & _MANTISSA_BITS != 0)
    # 1.5 stands in for the values repr formats, so that the kernel sees no zero or inf
    digits, e, decided = _shortest_digits(np.where(fast, a, 1.5))
    pairs = np.empty((x.size, 9), dtype=np.intp)
    for j in range(8, -1, -1):
        q = digits // 100
        pairs[:, j] = digits - q * 100
        digits = q
    abs_e = np.abs(e)
    src = np.empty((x.size, _DIGIT0 + 17), dtype=np.uint8)
    src[:, :_EXP[1]] = _SOURCE_HEAD
    src[:, _SIGN] = np.signbit(x) * ord("-")
    src[:, _EXP[1]] = np.where(e < 0, ord("-"), ord("+"))
    src[:, _EXP[2]] = (abs_e >= 100) * (ord("0") + abs_e // 100)
    src[:, _EXP[3]:] = _DIGIT_PAIRS.take(np.column_stack([abs_e % 100, pairs])).view(np.uint8)
    n = 17 - np.argmax(src[:, :_DIGIT0 - 1:-1] != ord("0"), axis=1)  # without trailing zeros
    layout = ((e >= -4) & (e <= 15)) * (17 * (e + 5)) + n - 1
    rows = np.arange(0, src.size, src.shape[1])[:, None]
    field = src.reshape(-1).take(_LAYOUTS.take(layout, axis=0) + rows)
    nan = np.isnan(x)
    slow = np.flatnonzero(~(fast & decided) & ~nan)
    field[slow] = _ascii_rows([repr(v) for v in x[slow].tolist()], _FIELD_WIDTH)
    field[nan] = 0
    return field


def _ascii_rows(text, width: int | None = None) -> np.ndarray:
    """Strings as ASCII bytes, one NUL-padded row each (``width`` wide if given)."""
    text = np.asarray(text, dtype=np.bytes_ if width is None else f"S{width}")
    return text.view(np.uint8).reshape(text.size, text.itemsize)


def _field(column: np.ndarray) -> np.ndarray:
    """Each value of a column (stamps in datetime64[m]) as ASCII, one NUL-padded row each."""
    column = np.asarray(column)
    if column.dtype.kind == "f":
        return _float_field(column)
    if column.dtype.kind == "M":
        # one string per distinct day, then the minute's clock text
        days = column.astype("datetime64[D]")
        day_list, day_of_row = np.unique(days, return_inverse=True)
        day_text = _ascii_rows(np.datetime_as_string(day_list).tolist())
        return np.hstack([day_text.take(day_of_row, axis=0),
                          _CLOCK_TEXT.take((column - days).astype(np.intp), axis=0)])
    return _ascii_rows(column.tolist())


def table_bytes(*columns: np.ndarray) -> bytes:
    """The rows of a table with these columns, each ended by a newline, as ASCII."""
    fields = [_field(column) for column in columns]
    rows = np.empty((len(fields[0]), sum(f.shape[1] + 1 for f in fields)), dtype=np.uint8)
    pos = 0
    for field in fields:
        rows[:, pos:pos + field.shape[1]] = field
        pos += field.shape[1] + 1
        rows[:, pos - 1] = ord(",")
    rows[:, -1] = ord("\n")
    return rows[rows != 0].tobytes()


def table_text(header: str, *columns: np.ndarray) -> str:
    """A whole table: its header line and a line for each row."""
    return header + "\n" + table_bytes(*columns).decode("ascii")


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
