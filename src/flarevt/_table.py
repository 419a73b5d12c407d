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


_FIELD_WIDTH = 24  # the longest repr: "-2.2250738585072014e-308"
_WORD_OFFSETS = np.arange(0, _FIELD_WIDTH, 8)[:, None]  # each word's first byte
_U = np.uint64


def _le_words(texts, k: int) -> np.ndarray:
    """Byte strings as k little-endian uint64 words each, NUL-padded: (k, len(texts))."""
    return np.array(texts, dtype=f"S{8 * k}").view(_U).reshape(-1, k).T.copy()


def _shift_words(x: np.ndarray, bits) -> np.ndarray:
    """The bytes of x (k, rows), its words in order, moved ``bits`` / 8 bytes on."""
    moved = x << bits
    moved[1:] |= x[:-1] >> (_U(64) - bits)  # a shift by 64 or more gives 0 in numpy
    return moved


# A float's text is built in words along the rows, from its 17 digits s in
# bytes 0-16 of three words ("0" + the digit where kept, NUL past the last
# kept): the first q digits, the point, the other digits, then the exponent
# and the end byte.  q is 1 in scientific notation (no point if one digit
# is all), e + 1 in positional notation with e >= 0 (which keeps a digit
# past the point), and 0 for e in [-4, -1], whose point is "0.000" cut to
# 1 - e bytes.  All but the digit count come from tables by e and by
# whether one digit is all.
def _layout_tables() -> tuple[np.ndarray, ...]:
    head, point, tail, min_digits = [], [], [], []
    for e in range(_P10_MIN, _P10_MAX + 1):
        positional = -4 <= e <= 15
        q = 0 if positional and e < 0 else e + 1 if positional else 1
        text = b"0." + b"0" * (-e - 1) if q == 0 else b"\0" * q + b"."
        head += [b"\xff" * q] * 2
        point += [text, text if positional else b"\0"]  # then with one digit
        tail += [b"" if positional else f"e{e:+03d}".encode()] * 2
        min_digits.append(min(q + 1, 17) if positional and q else 0)
    return (_le_words(head, 3), _le_words(point, 3),
            np.array([8 * (len(p) - len(h)) for h, p in zip(head, point)], dtype=_U),
            _le_words(tail, 1)[0], np.array([8 * len(t) for t in tail], dtype=_U),
            np.array(min_digits))


_HEAD, _POINT, _POINT_BITS, _EXP_TEXT, _EXP_BITS, _MIN_DIGITS = _layout_tables()
_KEPT_ZEROS = _le_words([b"0" * n for n in range(18)], 3)  # "0" in the first n bytes
_MINUS = np.array([[ord("-")], [0], [0], [0]], dtype=_U)


def _float_words(column: np.ndarray, end: int) -> np.ndarray:
    """Each float's repr, then ``end``, as (4, rows) NUL-padded words; NaN is empty."""
    x = np.asarray(column, dtype=np.float64)
    a = np.abs(x)
    fast = (a >= 1e-290) & (a < 1e290) & (a.view(_U) & _MANTISSA_BITS != 0)
    # 1.5 stands in for the values repr formats, so that the kernel sees no zero or inf
    digits, e, decided = _shortest_digits(np.where(fast, a, 1.5))
    s = np.empty((3, x.size), dtype=_U)
    np.floor_divide(digits.view(_U), _U(10 ** 9), out=s[0])
    s[2] = digits.view(_U) - s[0] * _U(10 ** 9)
    np.floor_divide(s[2], _U(10), out=s[1])
    s[2] -= s[1] * _U(10)
    # SWAR: each 8-digit lane halved by multiply and shift, to a digit a byte
    high = (s[:2] * _U(109_951_163)) >> _U(40)  # // 10**4, exact below 4.9e8
    s[:2] = high | (s[:2] - high * _U(10_000)) << _U(32)
    high = ((s[:2] * _U(10_486)) >> _U(20)) & _U(0x7F_0000_007F)  # each half // 100
    s[:2] = high | (s[:2] - high * _U(100)) << _U(16)
    high = ((s[:2] * _U(103)) >> _U(10)) & _U(0x000F_000F_000F_000F)  # each quarter // 10
    s[:2] = high | (s[:2] - high * _U(10)) << _U(8)
    # a word's last nonzero digit: its top set bit over 8, a float32's exponent
    # (exact: bytes of at most 9 hold no run of set bits that rounds up)
    last = ((s.astype(np.float32).view(np.int32) >> 23) - 127) >> 3
    e -= _P10_MIN
    n = np.maximum((last + _WORD_OFFSETS + 1).max(axis=0), _MIN_DIGITS.take(e))
    s |= _KEPT_ZEROS.take(n, axis=1)
    layout = 2 * e + (n == 1)
    head = s & _HEAD.take(layout, axis=1)
    point_bits = _POINT_BITS.take(layout)
    text = np.zeros((4, x.size), dtype=_U)
    text[:3] = _shift_words(s ^ head, point_bits) | head | _POINT.take(layout, axis=1)
    # ``at``, the tail's bit less each word's first: a word takes tail << at, or
    # tail >> -at where at < 0, as a shift by 64 or more (or under 0) gives 0
    tail = (_EXP_TEXT | _U(end) << _EXP_BITS).take(layout)
    at = (point_bits + n.astype(_U) * _U(8)).view(np.int64) - 8 * _WORD_OFFSETS
    text[:3] |= tail << at.view(_U)
    text[:3] |= tail >> np.negative(at, out=at).view(_U)
    negative = np.flatnonzero(np.signbit(x))
    text[:, negative] = _shift_words(text[:, negative], _U(8)) | _MINUS
    slow = np.flatnonzero(~(fast & decided))
    text[:, slow] = _le_words([("" if v != v else repr(v)).encode() + bytes([end])
                               for v in x[slow].tolist()], 4)
    return text


# Reading is the writer's inverse, and it too takes a whole column at once.
# The input is seen as overlapping little-endian uint64 words, word k being
# its bytes k to k + 7, so that gathering a field's bytes is a 1-d fancy
# index per word, and a test or a sum over them is a few word operations
# (SWAR) rather than one per byte.  A field's words are held word-major,
# (words, rows), so that every operation runs along the rows.
_ONES = 0x0101_0101_0101_0101
_BYTE = [np.uint64(8 * j) for j in range(8)]  # the shift to a word's byte j
_ONE, _LOW_BYTE, _ALL = np.uint64(1), np.uint64(0xFF), np.uint64(2 ** 64 - 1)


def _every_byte(b: int) -> np.uint64:
    return np.uint64(b * _ONES)


_DIGIT_ZERO, _HIGH_BITS, _LOW_BITS = _every_byte(ord("0")), _every_byte(0x80), _every_byte(0x7F)


def _words(data: bytes) -> np.ndarray:
    """Word k of data: its bytes k to k + 7 as a little-endian uint64."""
    return np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))


def _non_digits(x: np.ndarray) -> np.ndarray:
    """0x80 in each byte of x (text XOR "0"s) that was not a digit, 0 elsewhere."""
    return (((x & _LOW_BITS) + _every_byte(0x76)) | x) & _HIGH_BITS


def _zero_bytes(x: np.ndarray) -> np.ndarray:
    """0x80 in each zero byte of x, 0 elsewhere."""
    return ~(((x & _LOW_BITS) + _LOW_BITS) | x) & _HIGH_BITS


def _byte_count(flags: np.ndarray) -> np.ndarray:
    """The number of bytes with their low bit set, over each column's words."""
    ones = flags & _every_byte(1)
    return ((sum(ones[1:], ones[0]) * np.uint64(_ONES)) >> _BYTE[7]).view(np.int64)


# Decimal text to the nearest double.  A field "[-]digits[.digits][e±dd[d]]"
# is read as M * 10**q: the exponent from its last 8 bytes, and the digits
# of its mantissa, gathered right-aligned in _FIELD_WIDTH bytes, with the
# point's gap closed (the digits before it move one byte right) and summed
# eight digits to a word.  M * 10**q is then the double-double p + tail (M
# below 10**19 as a double and its integer remainder, 10**q from the table
# above), and p + tail rounds to the nearest double unless the exact value
# lies within _MARGIN of a half-ulp tie.  Such values, powers of two (whose
# ulps below and above differ, so that the tie below is not checked), |q|
# over _Q_LIMIT (which keeps every term of the product normal, so that it is
# exact) and every field of another layout (an "E", a leading "+", over 19
# digits, a mantissa over _FIELD_WIDTH bytes) are read by float().
_EXP_WIDTH = 5  # the longest exponent read, "e-100"
_Q_LIMIT = 280
_FLOAT_BYTES = b"0123456789.eE+-"
_E_SIGNS = [np.uint64(ord("e") | ord(sign) << 8) for sign in "+-"]
_POINTS = _every_byte(ord(".") ^ ord("0"))
_SWAR_STEPS = [(np.uint64(m), np.uint64(s), np.uint64(k)) for m, s, k in (
    (10 << 8 | 1, 8, 0x00FF_00FF_00FF_00FF),  # digit pairs
    (100 << 16 | 1, 16, 0x0000_FFFF_0000_FFFF),  # four digits
    (10_000 << 32 | 1, 32, 0xFFFF_FFFF))]  # a word's eight digits


def _exponent_head(word: np.ndarray) -> np.ndarray:
    """Whether the word's low two bytes are "e+" or "e-"."""
    head = word & np.uint64(0xFFFF)
    return (head == _E_SIGNS[0]) | (head == _E_SIGNS[1])


def _float_text(field: bytes) -> float:
    if field.translate(None, _FLOAT_BYTES):
        raise ValueError(f"not a decimal: {field!r}")
    return float(field)


def _decimal_values(data: bytes, ends: np.ndarray, widths: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Each field ``data[ends - widths:ends]`` as the nearest double, and
    whether the kernel decided it (float() reads the others)."""
    words = _words(data)
    end = np.maximum(ends, _FIELD_WIDTH + _EXP_WIDTH)  # shorter reaches are float()'s
    last = words[end - 8]
    x = last ^ _DIGIT_ZERO
    not_digit = _non_digits(x)
    exp5 = (widths >= 5) & _exponent_head(last >> _BYTE[3]) & (not_digit >> _BYTE[5] == 0)
    exp4 = (widths >= 4) & _exponent_head(last >> _BYTE[4]) & (not_digit >> _BYTE[6] == 0)
    exponent = ((x >> _BYTE[7]) + (x >> _BYTE[6] & _LOW_BYTE) * np.uint64(10)
                + (x >> _BYTE[5] & _LOW_BYTE) * np.uint64(100) * exp5) * (exp5 | exp4)
    minus = (np.where(exp5, last >> _BYTE[4], last >> _BYTE[5]) & _LOW_BYTE) == ord("-")
    exponent = np.where(minus, -exponent.view(np.int64), exponent.view(np.int64))
    width = widths - 5 * exp5 - 4 * exp4
    negative = np.frombuffer(data, np.uint8)[ends - np.maximum(widths, 1)] == ord("-")
    # the mantissa's digit values, right-aligned in _FIELD_WIDTH bytes
    digits = words[end - (widths - width) - _FIELD_WIDTH + _WORD_OFFSETS] ^ _DIGIT_ZERO
    first = _FIELD_WIDTH - width + negative
    digits &= _ALL << (np.clip(first - _WORD_OFFSETS, 0, 8) * 8).astype(np.uint64)
    points = _zero_bytes(digits ^ _POINTS)
    strays = _non_digits(digits) ^ points
    # close the point's gap: the bytes up to its column take the byte to
    # their left.  A flag f (0x01 in the point's byte) gives f << 8 minus 1,
    # 0xFF in the bytes up to it; a word before the point's is all 0xFF.
    flags = points >> np.uint64(7)
    n_points = _byte_count(flags)
    upto = (flags << _BYTE[1]) - _ONE
    point_here = (flags * np.uint64(_ONES)) >> _BYTE[7]  # 1 where the word has the point
    point_here[:-1] |= point_here[1:]  # ... or a later word has it
    point_here[:-2] |= point_here[2:]
    upto &= -point_here
    digits ^= (digits ^ _shift_words(digits, _BYTE[1])) & upto
    for mul, down, mask in _SWAR_STEPS:
        digits = ((digits * mul) >> down) & mask
    q = exponent - np.where(n_points > 0, _FIELD_WIDTH - _byte_count(upto), 0)
    ok = ((ends >= _FIELD_WIDTH + _EXP_WIDTH) & (width <= _FIELD_WIDTH) & (n_points <= 1)
          & (width - negative - n_points > 0) & (digits[0] < 1000)  # M < 10**19
          & ~np.any(strays, axis=0) & (np.abs(q) <= _Q_LIMIT))
    whole = np.where(ok, digits[0] * np.uint64(10 ** 16) + digits[1] * np.uint64(10 ** 8)
                     + digits[2], np.uint64(0))
    # whole * 10**q as the double-double p + tail
    i = np.clip(q, -_Q_LIMIT, _Q_LIMIT) - _P10_MIN
    hi = _P10_HI.take(i)
    m_hi = whole.astype(np.float64)
    m_lo = (whole - m_hi.astype(np.uint64)).view(np.int64).astype(np.float64)
    p = m_hi * hi
    (ah, al), hh, hl = _split(m_hi), _P10_HH.take(i), _P10_HL.take(i)
    err = al * hl - (((p - ah * hh) - al * hh) - ah * hl)  # m_hi * hi == p + err exactly
    tail = err + (m_hi * _P10_LO.take(i) + m_lo * hi)
    value = p + tail
    rest = tail - (value - p)  # the exact value less its rounding
    bits = value.view(np.uint64)
    half_ulp = (bits & _EXPONENT_BITS).view(np.float64) * 2.0 ** -53
    decided = ok & ((whole == 0) | ((np.abs(np.abs(rest) - half_ulp) > half_ulp * _MARGIN)
                                    & (bits & _MANTISSA_BITS != 0)))
    return np.where(negative, -value, value), decided


def read_floats(data: bytes, ends: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The value of each decimal field ``data[ends - widths:ends]``; NaN where empty.

    Gives what float() gives, bit for bit, and raises ValueError for a
    field float() rejects or that has a byte other than ``0-9 . e E + -``.
    ``data`` has at least _FIELD_WIDTH + _EXP_WIDTH bytes.
    """
    value, decided = _decimal_values(data, ends, widths)
    value[widths == 0] = np.nan
    slow = np.flatnonzero(~decided & (widths > 0))
    value[slow] = [_float_text(data[a:b])
                   for a, b in zip((ends - widths)[slow].tolist(), ends[slow].tolist())]
    return value


# A stamp field as read: "YYYY-MM-DDTHH:MM:00Z,", in the three words that end
# with it.  XOR the template, a stamp has a digit's value where the template
# has "D", and 0 in every other byte but the leading ones, which are not its.
_STAMP_TEXT = b"DDDD-DD-DDTDD:DD:00Z,"
STAMP_WIDTH = len(_STAMP_TEXT)  # with its separator
_STAMP_TEMPLATE = b"." * (_FIELD_WIDTH - STAMP_WIDTH) + _STAMP_TEXT
_STAMP_XOR, _STAMP_FIXED_BYTES, _STAMP_DIGIT_BYTES = _le_words([
    _STAMP_TEMPLATE.replace(b"D", b"0").replace(b".", b"\0"),
    bytes(0 if c in b"D." else 0xFF for c in _STAMP_TEMPLATE),
    bytes(0xFF if c == ord("D") else 0 for c in _STAMP_TEMPLATE)], 3).T[:, :, None]
_STAMP_DIGIT_FLAGS = _STAMP_DIGIT_BYTES & _HIGH_BITS
# Days from 1970-01-01 to the first of each year 0-9999 (numpy's calendar),
# and each month's first day in its year and its length: month m of a
# common year is entry m, of a leap year entry 100 + m; other entries have
# length 0, so that no day of them is valid.
_YEAR_DAY = ((np.arange(10_001) - 1970).astype("datetime64[Y]")
             .astype("datetime64[D]").astype(np.int64))
_LEAP_YEAR = np.diff(_YEAR_DAY) == 366
_LEAP_MONTHS = _LEAP_YEAR * 100
_MONTH_LENGTH = np.zeros((2, 100), dtype=np.int64)
_MONTH_LENGTH[:, 1:13] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
_MONTH_LENGTH[1, 2] = 29
_MONTH_DAY = (np.cumsum(_MONTH_LENGTH, axis=1) - _MONTH_LENGTH).ravel()
_MONTH_LENGTH = _MONTH_LENGTH.ravel()


def read_stamps(data: bytes, starts: np.ndarray) -> np.ndarray | None:
    """Minutes since 1970 of each stamp field ``data[starts:starts + STAMP_WIDTH]``.

    None unless every one is ``YYYY-MM-DDTHH:MM:00Z,`` with a valid date
    and time; ``data`` has 3 bytes before each start.
    """
    x = _words(data)[starts - (_FIELD_WIDTH - STAMP_WIDTH) + _WORD_OFFSETS] ^ _STAMP_XOR
    if np.any((x & _STAMP_FIXED_BYTES) | (_non_digits(x) & _STAMP_DIGIT_FLAGS)):
        return None
    # 10 * digit j + digit j + 1 in byte j, for each digit pair
    pairs = ((x & _STAMP_DIGIT_BYTES) * np.uint64(10 << 8 | 1)) >> _BYTE[1]

    def pair(j: int) -> np.ndarray:
        return ((pairs[j // 8] >> _BYTE[j % 8]) & _LOW_BYTE).view(np.int64)

    year = pair(3) * 100 + pair(5)
    month = pair(8) + _LEAP_MONTHS.take(year)
    day, hour, minute = pair(11) - 1, pair(14), pair(17)
    if not np.all((day >= 0) & (day < _MONTH_LENGTH.take(month)) & (hour < 24) & (minute < 60)):
        return None
    return (_YEAR_DAY.take(year) + _MONTH_DAY.take(month) + day) * 1440 + hour * 60 + minute


# A stamp's text ends its three words, so that the next field runs on from
# it and a row is one run of text (the NUL pack copies run by run):
# "\0\0\0YYYY-", "MM-DDTHH", ":MM:00Z" and the end byte, from tables by
# minute of the day, by day of a leap and then a common year, and by year.
_YEAR_TEXT = _le_words([f"\0\0\0{y:04d}-".encode() for y in range(10_000)], 1)[0]
_DAY_TEXT = _le_words([day[5:].encode() for day in np.datetime_as_string(
    np.arange("2000", "2002", dtype="datetime64[D]")).tolist()], 1)[0]
_CLOCK_TEXT = _le_words([b"\0" * 13 + f"T{h:02d}:{m:02d}:00Z".encode()
                         for h in range(24) for m in range(60)], 3)


def _stamp_words(column: np.ndarray, end: int) -> np.ndarray:
    """Each stamp's text, then ``end``, as (3, rows) words; years 0000-9999 only."""
    minutes = column.astype("datetime64[m]", copy=False).view(np.int64)
    days = minutes // 1440
    if days.size and not (_YEAR_DAY[0] <= days.min() and days.max() < _YEAR_DAY[-1]):
        raise ValueError("a stamp outside the years 0000-9999")
    year = (days + 719_530) * 400 // 146_097  # the year, or the one after it
    year -= _YEAR_DAY.take(year) > days
    words = _CLOCK_TEXT.take(minutes - days * 1440, axis=1)
    words[0] = _YEAR_TEXT.take(year)
    words[1] |= _DAY_TEXT.take(days - _YEAR_DAY.take(year) + 366 * ~_LEAP_YEAR.take(year))
    words[2] |= _U(end) << _U(56)
    return words


def _field_words(column: np.ndarray, end: int) -> np.ndarray:
    """Each value's text, then ``end``, as NUL-padded words: (words, rows)."""
    if column.dtype.kind in "fM":
        return (_float_words if column.dtype.kind == "f" else _stamp_words)(column, end)
    texts = [f"{v}".encode() + bytes([end]) for v in column.tolist()]
    return _le_words(texts, max(map(len, texts), default=1) // 8 + 1)


def table_bytes(*columns: np.ndarray) -> bytes:
    """The rows of a table with these columns, each ended by a newline, as ASCII."""
    fields = [_field_words(np.asarray(column), end)
              for column, end in zip(columns, b"," * (len(columns) - 1) + b"\n")]
    rows = np.empty((fields[0].shape[1], sum(map(len, fields))), dtype=_U)
    text = np.concatenate([words.T for words in fields], axis=1, out=rows).view(np.uint8)
    return text[text != 0].tobytes()


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


def check_nonnegative(values: np.ndarray, row_text, column: int, name: str,
                      skip=False) -> None:
    """ParseError naming the line of the first value, outside ``skip``, that
    is not finite and >= 0."""
    ok = skip | ((values >= 0.0) & (values < np.inf))
    if not np.all(ok):
        line_no, texts = row_text(int(np.argmin(ok)))
        raise ParseError(f"{name} value '{texts[column]}' is not a finite value >= 0", line_no)


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
