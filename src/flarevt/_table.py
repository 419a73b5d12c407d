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
# to y = x * 10**(16 - e) in [1e16, 1e17).  Its binary exponent leaves two
# candidates for e, told apart by one compare; a Dekker two-product against
# 10**(14 - e) as the double-double hi + lo then gives y / 100 as an exact
# integer part and a fraction, and y's last two digits r to ~1e-14.  Rounding
# y to 15, 16 or 17 significant digits takes the nearest multiple of 100, 10
# or 1 to r, and the shortest rounding within half an ulp of x is the one repr
# prints.  A value within _MARGIN of a tie or of the half-ulp bound, and every
# value the scaling cannot take (zero, subnormals, huge values, a mantissa
# that is a power of two, whose rounding interval is lopsided), is left to
# repr.
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
_E_MIN, _E_MAX = -290, 289  # the decimal exponents of [1e-290, 1e290)
# the least and greatest |x| the kernel takes, as bits; it clamps the others into them
_A_BITS = np.array([1e-290, np.nextafter(1e290, 0.0)]).view(np.uint64)
_U = np.uint64


def _binade_tables() -> tuple[np.ndarray, ...]:
    """By biased exponent b, the least double >= the first power of ten above
    2**(b - 1023); and by j = 2b + whether a double is at least that: its decimal
    exponent e, then 10**(14 - e) as _pow10_table gives it, and half an ulp times
    10**(16 - e).  Binades past the kernel's range repeat its ends."""
    b = np.arange(2048).clip(*(_A_BITS >> _U(52)).astype(int))
    tens = np.where(_P10_LO > 0.0, np.nextafter(_P10_HI, np.inf), _P10_HI)  # least double >= 10**s
    up = np.searchsorted(tens, np.ldexp(1.0, b - 1023), side="right")  # its index
    e = np.stack([up - 1, up], axis=1).ravel().clip(_E_MIN - _P10_MIN, _E_MAX - _P10_MIN) + _P10_MIN
    scale = 14 - e - _P10_MIN
    half_ulp = np.ldexp(_P10_HI.take(scale + 2), np.repeat(b, 2) - 1076)
    return (tens.take(up), e, *(t.take(scale) for t in (_P10_HI, _P10_LO, _P10_HH, _P10_HL)),
            half_ulp)


_TENS, _E, _HI, _LO, _HH, _HL, _HALF_ULP = _binade_tables()


def _nearest(r: np.ndarray, step: float, out: np.ndarray, dist: np.ndarray) -> None:
    """The nearest multiple of ``step`` to each r into ``out``, its distance into ``dist``."""
    np.rint(np.multiply(r, 1.0 / step, out=out), out=out)
    out *= step
    np.abs(np.subtract(r, out, out=dist), out=dist)


def _shortest_digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shortest round-trip digits of each a in [1e-290, 1e290).

    Returns (digits, e, decided): the digits as a 17-digit integer padded
    with trailing zeros, the decimal exponent of the first digit, and
    whether the value was decided with margin (repr formats the others).
    """
    bits = a.view(_U)
    b = (bits >> _U(52)).view(np.intp)
    j = b + b
    j += a >= _TENS.take(b)
    hi, lo, hh, hl, h = (table.take(j) for table in (_HI, _LO, _HH, _HL, _HALF_ULP))
    p = a * hi  # y / 100 rounded, for y = a * 10**(16 - e) in [1e16, 1e17)
    # Dekker: a's halves are it rounded to 26 bits and the rest, and with hi's
    # halves each product is exact, so that t is a * hi - p, then plus a * lo
    ah = bits + _U(1 << 26)
    ah = (ah & _U(-1 << 27 & 0xFFFF_FFFF_FFFF_FFFF)).view(np.float64)
    al = a - ah
    t = np.subtract(p, ah * hh)
    t -= np.multiply(hh, al, out=hh)
    t -= np.multiply(ah, hl, out=ah)
    np.subtract(np.multiply(hl, al, out=hl), t, out=t)
    t += np.multiply(lo, a, out=lo)
    # y = 100 * whole + r, r in (-18, 118): the 15-, 16- and 17-digit roundings
    # are the nearest multiples of 100, 10 and 1 to r, and the shortest within
    # half an ulp (h) is taken
    whole = np.floor(p)
    r = np.multiply(np.add(np.subtract(p, whole, out=p), t, out=p), 100.0, out=p)
    near, near10, near100, dist, dist10, dist100 = np.empty_like(r), hi, hh, t, lo, al
    for step, out, d in ((1, near, dist), (10, near10, dist10), (100, near100, dist100)):
        _nearest(r, step, out, d)
    take10, take100 = dist10 < h, dist100 < h
    near += np.multiply(np.subtract(near10, near, out=r), take10, out=r)
    near += np.multiply(np.subtract(near100, near10, out=r), take100, out=r)
    # decided: r is over _MARGIN from each bound a rounding turns on: the bound
    # h of the 15- and 16-digit roundings, and a tie between two roundings of
    # 16 digits (5 off) or, where they are taken, of 17 (0.5 off)
    slack = np.abs(np.subtract(dist100, h, out=dist100), out=dist100)
    np.minimum(slack, np.abs(np.subtract(dist10, h, out=h), out=h), out=slack)
    np.minimum(slack, np.subtract(5.0, dist10, out=dist10), out=slack)
    np.minimum(slack, np.add(np.subtract(0.5, dist, out=dist), take10, out=dist), out=slack)
    digits = whole.astype(np.int64)
    digits *= 100
    digits += near.astype(np.int64)
    carried = digits == 10 * _E16  # rounded up to the next power of ten
    digits -= carried * (9 * _E16)
    e = _E.take(j)
    e += carried
    return digits, e, slack >= _MARGIN


_FIELD_WIDTH = 24  # the longest repr: "-2.2250738585072014e-308"
_WORD_BITS = np.arange(0, 8 * _FIELD_WIDTH, 64, dtype=_U)[:, None]  # each word's first bit


def _le_words(texts, k: int) -> np.ndarray:
    """Byte strings as k little-endian uint64 words each, NUL-padded: (k, len(texts))."""
    return np.array(texts, dtype=f"S{8 * k}").view(_U).reshape(-1, k).T.copy()


def _shift_words(x: np.ndarray, bits) -> np.ndarray:
    """The bytes of x (k, rows), its words in order, moved ``bits`` / 8 bytes on."""
    moved = x << bits
    moved[1:] |= x[:-1] >> (_U(64) - bits)  # a shift by 64 or more gives 0 in numpy
    return moved


# A float's text is built in words along the rows from its 17 digits, a
# digit a byte (0-9) in bytes 0-16 of three words.  Its point goes after the
# first q digits, as k bytes: "." in scientific notation (q = 1) and in
# positional notation with e >= 0 (q = e + 1), and "0.000" cut to 1 - e bytes
# for e in [-4, -1] (q = 0).  The digits are moved on by k bytes past the first
# q, by tables by e; then one table by e and the digit count n ORs in "0" over
# each kept digit (at least one past the point in positional notation), the
# point text (none in scientific notation with one digit), the exponent and
# a newline, and gives the newline's bit, where another end byte is swapped in.
def _layout_tables() -> tuple[np.ndarray, ...]:
    head, shift, text, newline_bit = [], [], [], []
    for e in range(_E_MIN, _E_MAX + 1):
        positional = -4 <= e <= 15
        q = 0 if positional and e < 0 else e + 1 if positional else 1
        point = b"0." + b"0" * (-e - 1) if q == 0 else b"."
        head.append(b"\xff" * q)
        shift.append(8 * len(point))
        tail = b"" if positional else f"e{e:+03d}".encode()
        for n in range(1, 18):
            kept = min(max(n, e + 2), 17) if positional and q else n
            body = b"0" * q + point + b"0" * (kept - q) if n > 1 or positional else b"0"
            text.append(body + tail + b"\n")
            newline_bit.append(8 * len(body + tail))
    return (_le_words(head, 2), np.array(shift, dtype=_U), _le_words(text, 3),
            np.array(newline_bit, dtype=np.uint8))


_HEAD, _SHIFT, _LAYOUT_TEXT, _NEWLINE_BIT = _layout_tables()
# A word's last nonzero digit is its top set bit over 8, a float32's exponent
# (exact: bytes of at most 9 hold no run of set bits that rounds up); this is
# the exponent's bias less the word's first digit, in the exponent's bits, so
# that the digit count is (float32 bits - bias) >> 26 at most over the words
_COUNT_BIAS = np.array([[119 << 23], [55 << 23], [-9 << 23]], dtype=np.int32)
_MINUS = np.array([[ord("-")], [0], [0], [0]], dtype=_U)


def _repr_text(value: float) -> bytes:
    return b"" if value != value else repr(value).encode()


def _float_words(column: np.ndarray, end: int) -> np.ndarray:
    """Each float's repr, then ``end``, as NUL-padded words; NaN is empty.

    Gives (3, rows) words, or (4, rows) where a text takes 25 bytes (a
    negative value of 17 digits with a 3-digit exponent, or repr's longest).
    """
    x = np.asarray(column, dtype=np.float64)
    bits = x.view(_U) & _U(0x7FFF_FFFF_FFFF_FFFF)
    a = np.maximum(bits, _A_BITS[0])  # zero, subnormal, huge and non-finite values run
    np.minimum(a, _A_BITS[1], out=a)  # clamped, for repr
    fast = a == bits
    fast &= (bits & _MANTISSA_BITS) != 0  # a power of two's rounding interval is lopsided
    digits, e, decided = _shortest_digits(a.view(np.float64))
    decided &= fast
    # the digits, a byte each, eight to a word
    s = np.empty((3, x.size), dtype=_U)
    np.floor_divide(digits.view(_U), _U(10 ** 9), out=s[0])
    np.subtract(digits.view(_U), np.multiply(s[0], _U(10 ** 9), out=s[2]), out=s[2])
    np.floor_divide(s[2], _U(10), out=s[1])
    s[2] -= s[1] * _U(10)
    # SWAR: each lane's quotient q by 10**k (k = 4, 2, 1) by multiply and
    # shift, then (lane << width) + q * (1 - 10**k << width), which is q below
    # and the remainder above, modulo 2**64
    lanes, high = s[:2], np.empty((2, x.size), dtype=_U)
    for divide, down, keep, width in ((109_951_163, 40, 0, 32), (10_486, 20, 0x7F_0000_007F, 16),
                                      (103, 10, 0x000F_000F_000F_000F, 8)):
        np.multiply(lanes, _U(divide), out=high)
        high >>= _U(down)
        if keep:  # each half's, then each quarter's
            high &= _U(keep)
        high *= _U((1 - (10 ** (width // 8) << width)) % 2 ** 64)
        lanes <<= _U(width)
        lanes += high
    count = s.view(np.int64).astype(np.float32).view(np.int32)
    count = np.right_shift(np.subtract(count, _COUNT_BIAS, out=count), 26, out=count).max(axis=0)
    e -= _E_MIN  # the tables' index
    head = lanes & _HEAD.take(e, axis=1)
    lanes ^= head
    shift = _SHIFT.take(e)
    text = np.empty((4, x.size), dtype=_U)
    text[3] = 0
    np.left_shift(s, shift, out=text[:3])
    lanes >>= _U(64) - shift
    text[1:3] |= lanes
    text[:2] |= head
    e *= 17  # the (e, n) table's
    e += count
    e -= 1
    layout = _LAYOUT_TEXT
    if end != ord("\n"):
        layout = layout ^ _U(end ^ ord("\n")) << (_NEWLINE_BIT - _WORD_BITS)
    text[:3] |= layout.take(e, axis=1)
    negative = np.flatnonzero(np.signbit(x))
    text[:, negative] = _shift_words(text[:, negative], _U(8)) | _MINUS
    slow = np.flatnonzero(~decided)
    text[:, slow] = _le_words([_repr_text(v) + bytes([end]) for v in x[slow].tolist()], 4)
    return text if text[3].any() else text[:3]


# Reading is the writer's inverse, and it too takes a whole column at once.
# A field is read from the _FIELD_WIDTH bytes that end with it: each row's
# bytes are gathered by one fancy index into an unaligned strided view of the
# input (_windows, no copy of it), then turned word-major, three little-endian
# uint64 words a row as (3, rows), so that every operation runs along the rows
# and a test or a sum over a field's bytes is a few word operations (SWAR)
# rather than one per byte.
_ZEROS = np.uint64(ord("0") * 0x0101_0101_0101_0101)  # "0" in every byte


def _words(data: bytes) -> np.ndarray:
    """Word k of data: its bytes k to k + 7 as a little-endian uint64."""
    return np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))


def _windows(data: bytes, at: np.ndarray) -> np.ndarray:
    """Bytes ``at`` to ``at + _FIELD_WIDTH`` of data for each ``at``, as (3, rows) words."""
    rows = np.ndarray((len(data) - _FIELD_WIDTH + 1,), dtype=f"V{_FIELD_WIDTH}", buffer=data,
                      strides=(1,))
    return rows[at].view("<u8").reshape(-1, _FIELD_WIDTH // 8).T.copy()


def _pair_table(values: dict, default: int = 0, dtype=np.int8) -> np.ndarray:
    """A table by a byte pair read as a little-endian uint16."""
    table = np.full(1 << 16, default, dtype=dtype)
    for pair, value in values.items():
        table[int.from_bytes(pair, "little")] = value
    return table


# Decimal text to the nearest double.  A field "[-]digits[.digits][e±dd[d]]"
# is read as M * 10**q.  Its last 8 bytes give the exponent: tables by byte
# pair find "e+" or "e-" 4 or 5 bytes from the end, as the exponent's length
# with its sign, and give the value of its digits.  The mantissa's bytes are
# gathered right-aligned in _FIELD_WIDTH bytes, with those before its first
# digit cleared.  One flag word marks the bytes that are not digits, bit
# 8 * byte + word for a byte of each word; when one bit is set, its float
# exponent names that byte, which must be the point, and tables by it give
# the point's gap (the bytes up to its column take the byte to their left)
# and the digits after it.  The digits are then summed eight to a word.
# M * 10**q is the double-double p + tail (M below 10**19 as a double and its
# integer remainder, 10**q from the table above), and p + tail rounds to the
# nearest double unless the exact value lies within _MARGIN of a half-ulp
# tie.  Such values, powers of two (whose ulps below and above differ, so
# that the tie below is not checked), |q| over _Q_LIMIT (which keeps every
# term of the product normal, so that it is exact) and every field of
# another layout (an "E", a leading "+", over 19 digits, a mantissa over
# _FIELD_WIDTH bytes) are read by float().
_EXP_WIDTH = 5  # the longest exponent read, "e-100"
_Q_LIMIT = 280
_BAD_EXPONENT = 1 << 20  # an exponent digit that is not one: |q| is then over _Q_LIMIT
_FLOAT_BYTES = b"0123456789.eE+-"
# By byte pair of the field's last 8 bytes: bytes 4-5 for "e±dd" and 3-4 for
# "e±ddd", as the exponent's length with its sign; bytes 6-7 for its last two
# digits; and bytes 4-5 of "e±ddd" for 100 times its first digit, with
# _BAD_EXPONENT for a sign and no digit, and 0 for "e±" and any other pair.
_EXP_FOUR = _pair_table({b"e+": 4, b"e-": -4})
_EXP_FIVE = _pair_table({b"e+": 5, b"e-": -5})
_EXP_TENS = _pair_table({b"%02d" % v: v for v in range(100)}, _BAD_EXPONENT, np.int32)
_EXP_HUNDREDS = _pair_table({sign + bytes([c]): 100 * (c - ord("0")) if chr(c) in "0123456789"
                             else _BAD_EXPONENT for sign in (b"+", b"-") for c in range(256)},
                            dtype=np.int32)
_SWAR_STEPS = [(np.uint64(m), np.uint64(s), np.uint64(k)) for m, s, k in (
    (10 << 8 | 1, 8, 0x00FF_00FF_00FF_00FF),  # digit pairs
    (100 << 16 | 1, 16, 0x0000_FFFF_0000_FFFF))]  # four digits


def _column_masks(columns) -> np.ndarray:
    """0xFF in the bytes of each set of columns, as (3, sets) words."""
    return np.array([[sum(0xFF << 8 * (c - 8 * w) for c in cols if 8 * w <= c < 8 * w + 8)
                      for cols in columns] for w in range(_FIELD_WIDTH // 8)], dtype=np.uint64)


_FROM_COLUMN = _column_masks([range(f, _FIELD_WIDTH) for f in range(_FIELD_WIDTH + 1)])
# Tables by the flag word's float32 exponent: 127 plus the flagged bit, or 0
# for no flag.  A bit that flags no byte, or no flag, has no point column.
_FLAG_BIT = np.arange(127 + 64) - 127
_COLUMN = np.where(_FLAG_BIT >= 0, 8 * (_FLAG_BIT % 8) + _FLAG_BIT // 8, _FIELD_WIDTH)
_HAS_POINT = _COLUMN < _FIELD_WIDTH
_FLAG_COLUMN = np.where(_HAS_POINT, _COLUMN, 0)  # without a point, a column no test reads
_POINT_GAP = _column_masks([range(c + 1) if c < _FIELD_WIDTH else () for c in _COLUMN])
_AFTER_POINT = np.where(_HAS_POINT, _FIELD_WIDTH - 1 - _COLUMN, 0).astype(np.int32)
# first digit columns that leave a digit: below _FIELD_WIDTH, less one for a point
_FIRST_LIMIT = (_FIELD_WIDTH - _HAS_POINT).astype(np.uint64)


def _float_text(field: bytes) -> float:
    if field.translate(None, _FLOAT_BYTES):
        raise ValueError(f"not a decimal: {field!r}")
    return float(field)


def _decimal_values(data: bytes, ends: np.ndarray, widths: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Each field ``data[ends - widths:ends]`` as the nearest double, and
    whether the kernel decided it (float() reads the others)."""
    text = np.frombuffer(data, np.uint8)
    end = np.maximum(ends, _FIELD_WIDTH + _EXP_WIDTH)  # shorter reaches are float()'s
    last = _words(data)[end - 8]
    pair = (last >> np.uint64(32)) & np.uint64(0xFFFF)
    signed_length = _EXP_FOUR.take(pair)
    signed_length += _EXP_FIVE.take((last >> np.uint64(24)) & np.uint64(0xFFFF))
    signed_length *= np.abs(signed_length) <= widths  # not the field's when longer than it
    exp_length = np.abs(signed_length)
    exponent = _EXP_TENS.take(last >> np.uint64(48))
    exponent += _EXP_HUNDREDS.take(pair)
    exponent *= np.sign(signed_length)
    negative = text[ends - np.maximum(widths, 1)] == ord("-")
    first = exp_length - widths
    first += negative
    first += _FIELD_WIDTH  # the column of the mantissa's first digit
    at = end - exp_length
    at -= _FIELD_WIDTH
    digits = _windows(data, at)
    digits ^= _ZEROS
    digits &= _FROM_COLUMN.take(first, axis=1, mode="clip")
    flags = (digits.view(np.uint8) > 9).view(np.uint64)
    flag = flags[1] << np.uint64(1)
    flag |= flags[0]
    flag |= flags[2] << np.uint64(2)
    e = flag.astype(np.float32).view(np.int32) >> 23
    at += _FLAG_COLUMN.take(e)
    ok = (text[at] == ord(".")) | (flag == 0)
    ok &= (flag & (flag - np.uint64(1))) == 0  # one flag at most
    ok &= first.view(np.uint64) < _FIRST_LIMIT.take(e)
    ok &= ends >= _FIELD_WIDTH + _EXP_WIDTH
    moved = digits << np.uint64(8)
    moved[1:] |= digits[:-1] >> np.uint64(56)
    moved ^= digits
    moved &= _POINT_GAP.take(e, axis=1)
    digits ^= moved
    for mul, down, mask in _SWAR_STEPS:
        digits *= mul
        digits >>= down
        digits &= mask
    digits *= np.uint64(10_000 << 32 | 1)  # a word's eight digits, high half over the top
    digits >>= np.uint64(32)
    q = exponent
    q -= _AFTER_POINT.take(e)
    ok &= digits[0] < 1000  # M < 10**19
    ok &= np.abs(q) <= _Q_LIMIT
    whole = digits[0]
    whole *= np.uint64(10 ** 8)
    whole += digits[1]
    whole *= np.uint64(10 ** 8)
    whole += digits[2]
    whole *= ok
    # whole * 10**q as the double-double p + tail, each array reused once done with
    i = q - _P10_MIN
    hi = _P10_HI.take(i, mode="clip")
    m_hi = whole.astype(np.float64)
    m_lo = (whole - m_hi.astype(np.uint64)).view(np.int64).astype(np.float64)
    m_lo *= hi
    p = m_hi * hi
    (ah, al), hh, hl = _split(m_hi), _P10_HH.take(i, mode="clip"), _P10_HL.take(i, mode="clip")
    err = p - ah * hh
    err -= al * hh
    err -= ah * hl
    np.subtract(np.multiply(al, hl, out=al), err, out=err)  # m_hi * hi == p + err exactly
    m_hi *= _P10_LO.take(i, mode="clip")
    tail = err
    tail += m_hi + m_lo
    value = p + tail
    rest = tail
    rest += np.subtract(p, value, out=p)  # the exact value less its rounding
    bits = value.view(np.uint64)
    half_ulp = (bits & _EXPONENT_BITS).view(np.float64)
    half_ulp *= 2.0 ** -53
    far = np.abs(np.subtract(np.abs(rest, out=rest), half_ulp, out=rest), out=rest)
    decided = far > np.multiply(half_ulp, _MARGIN, out=half_ulp)
    decided &= bits & _MANTISSA_BITS != 0
    decided |= whole == 0
    decided &= ok
    np.negative(value, out=value, where=negative)
    return value, decided


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
# with it.  XOR the template, and with the leading bytes, which are not its,
# cleared, a stamp has a digit's value where the template has "D" and 0 in
# every other byte.
_STAMP_TEXT = b"DDDD-DD-DDTDD:DD:00Z,"
STAMP_WIDTH = len(_STAMP_TEXT)  # with its separator
_STAMP_TEMPLATE = b"." * (_FIELD_WIDTH - STAMP_WIDTH) + _STAMP_TEXT
_STAMP_XOR, _STAMP_FIXED_BYTES, _STAMP_BYTES = _le_words([
    _STAMP_TEMPLATE.replace(b"D", b"0").replace(b".", b"\0"),
    bytes(0 if c in b"D." else 0xFF for c in _STAMP_TEMPLATE),
    bytes(0 if c == ord(".") else 0xFF for c in _STAMP_TEMPLATE)], 3).T[:, :, None]
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
# The days or minutes of a field by its two digits, and _BAD_STAMP where they
# are out of range: the day of the year by a month's entry times 100 plus
# the day of the month, and the minutes of the day by the hour and by the
# minute.
_BAD_STAMP = 1 << 50
_DATE_DAY = np.where((np.arange(100) >= 1) & (np.arange(100) <= _MONTH_LENGTH[:, None]),
                     _MONTH_DAY[:, None] + np.arange(100) - 1, _BAD_STAMP).ravel()
_HOUR_MINUTES = np.where(np.arange(100) < 24, np.arange(100) * 60, _BAD_STAMP)
_MINUTES = np.where(np.arange(100) < 60, np.arange(100), _BAD_STAMP)


def read_stamps(data: bytes, starts: np.ndarray) -> np.ndarray | None:
    """Minutes since 1970 of each stamp field ``data[starts:starts + STAMP_WIDTH]``.

    None unless every one is ``YYYY-MM-DDTHH:MM:00Z,`` with a valid date
    and time; ``data`` has 3 bytes before each start.
    """
    x = _windows(data, starts - (_FIELD_WIDTH - STAMP_WIDTH))
    x ^= _STAMP_XOR
    x &= _STAMP_BYTES
    fixed, digits = (x & _STAMP_FIXED_BYTES).view(np.uint8), x.view(np.uint8)
    if fixed.max(initial=0) or digits.max(initial=0) > 9:
        return None
    x *= np.uint64(10 << 8 | 1)  # 10 times digit j plus digit j + 1, in byte j + 1
    pairs = x.view(np.uint8)
    year = pairs[0, 4::8].astype(np.intp)
    year *= 100
    year += pairs[0, 6::8]
    date = _LEAP_MONTHS.take(year)
    date += pairs[1, 1::8]
    date *= 100
    date += pairs[1, 4::8]
    minutes = _YEAR_DAY.take(year)
    minutes += _DATE_DAY.take(date)
    minutes *= 1440
    minutes += _HOUR_MINUTES.take(pairs[1, 7::8])
    minutes += _MINUTES.take(pairs[2, 2::8])
    return None if minutes.max(initial=0) >= _BAD_STAMP // 2 else minutes


# A stamp's text ends its three words, so that the next field runs on from
# it and a row is one run of text (the NUL pack copies run by run):
# "\0\0\0YYYY-", "MM-DDTHH" and ":MM:00Z" with the end byte, from tables by
# year, by day of a leap and then a common year, by hour and by minute.
_YEAR_TEXT = _le_words([f"\0\0\0{y:04d}-".encode() for y in range(10_000)], 1)[0]
_DAY_TEXT = _le_words([day[5:].encode() for day in np.datetime_as_string(
    np.arange("2000", "2002", dtype="datetime64[D]")).tolist()], 1)[0]
_HOUR_TEXT = _le_words([f"\0\0\0\0\0T{h:02d}".encode() for h in range(24)], 1)[0]
_MINUTE_TEXT = _le_words([f":{m:02d}:00Z".encode() for m in range(60)], 1)[0]
LAST_STAMP = np.datetime64("9999-12-31T23:59", "m")  # the last stamp the tables write


def _hour_words(hours: np.ndarray) -> np.ndarray:
    """The first two words of each stamp, by hours since 1970: (2, rows)."""
    days = hours // 24
    year = (days + 719_530) * 400 // 146_097  # the year, or the one after it
    year -= _YEAR_DAY.take(year) > days
    words = np.empty((2, hours.size), dtype=_U)
    words[0] = _YEAR_TEXT.take(year)
    words[1] = _DAY_TEXT.take(days - _YEAR_DAY.take(year) + 366 * ~_LEAP_YEAR.take(year))
    words[1] |= _HOUR_TEXT.take(hours - days * 24)
    return words


def _stamp_words(column: np.ndarray, end: int) -> np.ndarray:
    """Each stamp's text, then ``end``, as (3, rows) words; years 0000-9999 only."""
    minutes = column.astype("datetime64[m]", copy=False).view(np.int64)
    hours = minutes // 60
    first, last = (hours.min(), hours.max()) if hours.size else (0, -1)
    if not (_YEAR_DAY[0] * 24 <= first and last < _YEAR_DAY[-1] * 24):
        raise ValueError("a stamp outside the years 0000-9999")
    words = np.empty((3, hours.size), dtype=_U)
    if last - first < hours.size:  # a series in time order: the words of each hour it spans
        words[:2] = _hour_words(np.arange(first, last + 1)).take(hours - first, axis=1)
    else:
        words[:2] = _hour_words(hours)
    words[2] = (_MINUTE_TEXT | _U(end) << _U(56)).take(minutes - hours * 60)
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
    words = np.concatenate(fields)
    rows = np.empty(words.shape[::-1], dtype=_U)
    np.copyto(rows, words.T)
    text = rows.view(np.uint8)
    return text[text != 0].tobytes()


def table_text(header: str, *columns: np.ndarray) -> str:
    """A whole table: its header line and a line for each row."""
    return header + "\n" + table_bytes(*columns).decode("ascii")


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
