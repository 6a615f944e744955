"""Python's ``repr`` and ``float()`` of many float64 values at once.

:func:`join_rows` gives ``[sep.join(map(repr, row)) for row in M]`` for a
2-D float64 array, with numpy passes over the whole array in place of one
``float.__repr__`` call per value.  Each value's digits are the shortest
decimal that rounds back to it, the nearest such one where several do, as
``repr`` prints them.  They are found with Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020; the algorithm behind
``Double.toString`` in JDK 19): a 128-bit power of ten, rounded up, times
the value's scaled significand, rounded to odd, gives the value and the
ends of its rounding interval in units of a power of ten, and one candidate
a digit shorter and two at full length are tested against them.  The text
is then laid out as ``repr`` lays it out, by one gather through a table of
byte templates, one per sign, digit count and decimal point position.

Only zeros and normal numbers are formatted: the digit search assumes the
hidden bit of a normal significand, and JSON spells NaN and the infinities
otherwise, so a block holding a NaN, an infinity or a subnormal number
gives ``None``.

:func:`parse_fields` goes the other way: ``[float(f) for f in fields]`` for
ASCII fields of the form ``[+-]digits[.digits][(e|E)[+-]d{1,3}]`` in a byte
buffer, with the same bits.  The digits are read eight at a time from
unaligned 64-bit loads (SWAR), the decimal point located and squeezed out
in the same words.  The value comes from Eisel-Lemire (D. Lemire, "Number
parsing at a gigabyte per second", Software: Practice and Experience 51(8),
2021): the significand, shifted to 64 bits, times a 128-bit power of five,
truncated to 128 bits, gives the rounded result unless the bits below it
are all ones.  A field it cannot decide (a product that close to a rounding
boundary, a significand of more than 24 bytes or past 2^64, a subnormal
or overflowing result, an exponent outside the table, or a field not of
that form) goes to ``float()``.

Products of 64-bit integers are formed from 32-bit halves in ``uint64``
arrays, where numpy wraps silently, and every operand is a ``uint64`` array
or scalar, so numpy 1.x never promotes a mix of ``uint64`` and Python
integers to float64.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

_U64 = np.uint64
_LO32 = _U64(0xFFFFFFFF)

# Exponents of ten in the table: floor(log10(2^q)) spans -324..292 over the
# binary exponents q of normal doubles, and the table holds 10^-k.
_POW10_MIN, _POW10_MAX = -292, 324

# Byte layout of one value's source row, as eight native uint32 words:
# word 0 "000d" (the leading digit at byte 3), words 1-4 the next sixteen
# digits, word 5 the exponent's magnitude as four digits, and words 6-7 the
# literal characters, the last of them the end mark: "," after a value, ";"
# after a row.  A template lists the bytes of one layout's text, then the
# end mark, then NUL bytes, which are dropped.
_DIGIT0 = 3
_EXPONENT = 20
_LITERALS = b"-.0e+\0\0,"
_MINUS, _DOT, _ZERO, _E, _PLUS, _PAD, _END = (24 + _LITERALS.index(c) for c in b"-.0e+\0,")
_ROW = 32
# The longest repr of a float64, as in "-1.2345678901234567e-308", and its mark.
_WIDTH = 25
# Layouts: sign x digit count (1-17) x form.  Forms 0-19 are positional
# with the decimal point after digit decpt = -3..16; 20-23 are scientific,
# indexed by exponent sign and by width (two or three digits).  repr uses
# scientific notation where decpt <= -4 or decpt > 16.
_FORMS = 24
# Decimal point positions of normal doubles, 2.2250738585072014e-308 to
# 1.7976931348623157e+308.
_DECPT_MIN, _DECPT_MAX = -307, 309
# Values assembled per gather: its byte index array stays near 200 kB.
_ASSEMBLE = 1024


class _Tables(NamedTuple):
    # _pow10_128(j) + 1 for j = _POW10_MIN.._POW10_MAX, as high and low words.
    g_hi: np.ndarray
    g_lo: np.ndarray
    # "0000".."9999" as native uint32 words.
    groups: np.ndarray
    # By value: the place (1-4) of the last nonzero digit of a group, or -16
    # for "0000".
    kept: np.ndarray
    # By decpt - _DECPT_MIN: the exponent's magnitude as a group, and the form.
    exponents: np.ndarray
    forms: np.ndarray
    # By layout: the source bytes of the text, the end mark and NUL padding.
    templates: np.ndarray
    # Source words 6-7.
    literals: np.uint64


def _pow10_128(k: int) -> int:
    """``floor(10^k / 2^e)`` in ``[2^127, 2^128)``, exactly, with Python integers."""
    if k >= 0:
        p = 10**k
        e = p.bit_length() - 128
        return p >> e if e >= 0 else p << -e
    p = 10**-k
    return (1 << (p.bit_length() + 127)) // p


@functools.cache
def _tables() -> _Tables:
    """Build the constant tables, the powers of ten exactly with Python integers."""
    hi, lo = [], []
    for k in range(_POW10_MIN, _POW10_MAX + 1):
        g = _pow10_128(k) + 1
        hi.append(g >> 64)
        lo.append(g & (2**64 - 1))

    place = np.array([1000, 100, 10, 1], dtype=np.int16)
    digits = (np.arange(10000, dtype=np.int16)[:, None] // place % 10).astype(np.uint8)
    groups = (digits + np.uint8(ord("0"))).view(np.uint32).ravel()
    nonzero = digits > 0
    kept = np.where(nonzero.any(axis=1), 4 - np.argmax(nonzero[:, ::-1], axis=1), -16)
    kept = kept.astype(np.int8)

    decpts = np.arange(_DECPT_MIN, _DECPT_MAX + 1)
    exponent = decpts - 1
    forms = np.where((decpts > -4) & (decpts <= 16), decpts + 3,
                     20 + 2 * (exponent < 0) + (np.abs(exponent) >= 100)).astype(np.int8)

    templates = np.array([
        (t := _template(neg, nd, form) + [_END]) + [_PAD] * (_WIDTH - len(t))
        for neg in range(2) for nd in range(1, 18) for form in range(_FORMS)
    ], dtype=np.uint8)
    return _Tables(np.array(hi, dtype=_U64), np.array(lo, dtype=_U64), groups, kept,
                   groups[np.abs(exponent)], forms, templates,
                   np.frombuffer(_LITERALS, dtype=_U64)[0])


def _template(neg, nd, form):
    """Source bytes of the text of one layout."""
    digits = [_DIGIT0 + j for j in range(nd)]
    t = [_MINUS] if neg else []
    if form < 20:
        decpt = form - 3
        if decpt <= 0:
            t += [_ZERO, _DOT] + [_ZERO] * -decpt + digits
        elif decpt < nd:
            t += digits[:decpt] + [_DOT] + digits[decpt:]
        else:
            t += digits + [_ZERO] * (decpt - nd) + [_DOT, _ZERO]
    else:
        exp_neg, wide = divmod(form - 20, 2)
        t += digits[:1] + ([_DOT] + digits[1:] if nd > 1 else [])
        t += [_E, _MINUS if exp_neg else _PLUS]
        t += range(_EXPONENT + 2 - wide, _EXPONENT + 4)
    return t


def _mul_hi(a_lo, a_hi, b):
    """High 64 bits of ``a * b`` for ``a = a_hi 2^32 + a_lo`` (32-bit halves)
    and a 64-bit ``b``; every partial product and sum fits in 64 bits."""
    b_lo, b_hi = b & _LO32, b >> _U64(32)
    cross = a_lo * b_lo
    cross >>= _U64(32)
    b_lo *= a_hi
    high = b_lo >> _U64(32)
    b_lo &= _LO32
    cross += b_lo
    np.multiply(a_lo, b_hi, out=b_lo)
    cross += b_lo
    cross >>= _U64(32)
    high += cross
    b_hi *= a_hi
    high += b_hi
    return high


def _round_to_odd(g, g_hi, cp):
    """``floor(g cp / 2^128)`` with its lowest bit set when more than one
    unit of ``2^-64`` is cut off, for the 128-bit ``g`` (as 32-bit quarters
    ``g[0]``-``g[3]``, least significant first, and the high word ``g_hi``)."""
    x1 = _mul_hi(g[0], g[1], cp)
    y0 = g_hi * cp
    y1 = _mul_hi(g[2], g[3], cp)
    y0 += x1
    y1 += y0 < x1
    y1 |= y0 > _U64(1)
    return y1


def _shortest(bits):
    """Shortest round-trip decimal ``s 10^k`` of each normal double ``bits``:
    Schubfach with the boundaries of the rounding interval in units of
    ``10^k / 4``."""
    tables = _tables()
    biased = (bits >> _U64(52)) & _U64(0x7FF)
    c = bits & _U64(2**52 - 1)
    # At a power of two above the least normal, the lower neighbour is closer.
    closer = (c == _U64(0)) & (biased > _U64(1))
    c |= _U64(2**52)
    odd = (c & _U64(1)).astype(bool)
    q = biased.astype(np.int64) - 1075
    del biased

    # k = floor(log10(2^q)), or floor(log10(3/4 2^q)) where the lower
    # neighbour is closer, and h = q + floor(log2(10^-k)) + 1 in 1..4.
    k = (q * 1262611 - closer * 524031) >> 22
    h = (q + ((-k * 1741647) >> 19) + 1).astype(_U64)
    del q
    index = -k - _POW10_MIN
    g_hi, g_lo = tables.g_hi.take(index), tables.g_lo.take(index)
    g = (g_lo & _LO32, g_lo >> _U64(32), g_hi & _LO32, g_hi >> _U64(32))
    del index, g_lo

    c <<= _U64(2)
    vb = _round_to_odd(g, g_hi, c << h)
    # An odd significand's interval excludes its endpoints.
    lower = _round_to_odd(g, g_hi, (c - _U64(2) + closer) << h)
    lower += odd
    c += _U64(2)
    upper = _round_to_odd(g, g_hi, c << h)
    upper -= odd
    del c, g, g_hi, h, odd, closer

    # One digit shorter: of the multiples of 40 around vb, at most one lies
    # in [lower, upper] (s > 10^15 for a normal double, so sp > 0).
    s = vb >> _U64(2)
    sp = s // _U64(10)
    t = sp * _U64(40)
    short = lower <= t
    t += _U64(40)
    wp_in = t <= upper
    short ^= wp_in
    sp += wp_in
    # Full length: s or s + 1, whichever lies inside, else the nearer.
    np.left_shift(s, _U64(2), out=t)
    u_in = lower <= t
    t += _U64(4)
    w_in = t <= upper
    t -= _U64(2)
    up = np.where(u_in != w_in, w_in, (vb > t) | ((vb == t) & (s & _U64(1)).astype(bool)))
    s += up
    np.copyto(s, sp, where=short)
    return s, k + short


def join_rows(M, sep: str) -> list[str] | None:
    """``[sep.join(map(repr, row)) for row in M]`` for a nonempty 2-D float64
    ``M``, or ``None`` if ``M`` holds a NaN, an infinity or a subnormal number."""
    rows, cols = M.shape
    bits = np.ascontiguousarray(M, dtype=np.float64).view(_U64).reshape(-1)
    biased = (bits >> _U64(52)) & _U64(0x7FF)
    zero = (bits << _U64(1)) == _U64(0)
    if (biased == _U64(0x7FF)).any() or ((biased == _U64(0)) != zero).any():
        return None
    del biased
    tables = _tables()

    # Zeros go through as 1.0, whose decimal point also follows one digit,
    # and come out as the digit 0.
    s, k = _shortest(np.where(zero, _U64(0x3FF0000000000000), bits))
    # s has 15 to 17 digits (s >= 4 10^14 for a normal double); scale it to 17.
    missing = (s < _U64(10**16)).astype(np.intp)
    missing += s < _U64(10**15)
    decpt = k + 17 - missing
    s *= _U64(10) ** missing.astype(_U64)
    s[zero] = 0
    del missing, k, zero

    # Seventeen digits: the leading one, then four groups of four.
    lead = s // _U64(10**16)
    s -= lead * _U64(10**16)
    high = s // _U64(10**8)
    s -= high * _U64(10**8)
    quads = [high // _U64(10**4), None, s // _U64(10**4), None]
    quads[1] = high - quads[0] * _U64(10**4)
    quads[3] = s - quads[2] * _U64(10**4)
    del high, s
    quads = [q.astype(np.intp) for q in quads]
    # The index of the last nonzero digit among the seventeen; groups 1-4
    # hold digits 1-4, 5-8, 9-12 and 13-16.
    last = np.maximum(tables.kept.take(quads[0]), tables.kept.take(quads[1]) + 4)
    np.maximum(last, tables.kept.take(quads[2]) + 8, out=last)
    np.maximum(last, tables.kept.take(quads[3]) + 12, out=last)
    np.maximum(last, 0, out=last)

    src = np.empty((rows * cols, _ROW // 4), dtype=np.uint32)
    src[:, 0] = tables.groups.take(lead.astype(np.intp))
    for j, quad in enumerate(quads):
        src[:, 1 + j] = tables.groups.take(quad)
    del quads, lead
    decpt -= _DECPT_MIN
    src[:, 5] = tables.exponents.take(decpt)
    src.view(_U64)[:, 3] = tables.literals
    src = src.view(np.uint8)
    src[cols - 1 :: cols, _END] = ord(";")
    src = src.reshape(-1)

    layout = (bits >> _U64(63)).astype(np.intp)
    layout *= 17
    layout += last
    layout *= _FORMS
    layout += tables.forms.take(decpt)
    del last, decpt

    pieces = []
    for a in range(0, rows * cols, _ASSEMBLE):
        index = tables.templates.take(layout[a : a + _ASSEMBLE], axis=0)
        index = np.arange(a * _ROW, (a + len(index)) * _ROW, _ROW)[:, None] + index
        pieces.append(src.take(index).tobytes())
    text = b"".join(pieces).translate(None, b"\0").decode()
    return [row.replace(",", sep) for row in text.split(";")[:-1]]


# Decimal exponents of Eisel-Lemire's powers: below 10^-342 a 19-digit
# significand rounds to zero, above 10^308 any significand overflows.
_Q_MIN, _Q_MAX = -342, 308
# Bytes of a field's significand read as digits: three 64-bit words.
_WIDTH_IN = 24
# Bytes that parse_fields may read before the first field.
PARSE_PAD = _WIDTH_IN
# Byte constants of the SWAR tests.
_ONES = _U64(0x0101010101010101)
_HIGHS = _U64(0x8080808080808080)
_DOTS = _U64(0x2E2E2E2E2E2E2E2E)
_NIBBLES = _U64(0x0F0F0F0F0F0F0F0F)
# Bit 4 of every byte: set in the digits "0"-"9", clear in "+-.eE,\n".
_BIT4 = _U64(0x1010101010101010)


class _ReadTables(NamedTuple):
    # Eisel-Lemire's 128-bit powers for q = _Q_MIN.._Q_MAX, _pow10_128(q)
    # plus 1 for -27 <= q < 0, as high and low words.
    t_hi: np.ndarray
    t_lo: np.ndarray
    # By k = 0..2 _WIDTH_IN: the low clip(k - _WIDTH_IN, 0, 8) bytes set.
    low: np.ndarray


@functools.cache
def _read_tables() -> _ReadTables:
    t = [_pow10_128(q) + (-27 <= q < 0) for q in range(_Q_MIN, _Q_MAX + 1)]
    nbytes = np.clip(np.arange(2 * _WIDTH_IN + 1) - _WIDTH_IN, 0, 8)
    low = np.array([(1 << (8 * int(j))) - 1 for j in nbytes], dtype=_U64)
    return _ReadTables(np.array([g >> 64 for g in t], dtype=_U64),
                       np.array([g & (2**64 - 1) for g in t], dtype=_U64), low)


def _loads(buf, size):
    """Every ``size`` bytes of ``buf`` from each offset, as one void item."""
    return np.ndarray((len(buf) - size + 1,), dtype=np.dtype((np.void, size)),
                      buffer=buf, strides=(1,))


def _eight_digits(x):
    """The value of the eight digits of each word ``x``, first digit in the
    low byte, given as bytes 0-9; ``x`` is overwritten."""
    x *= _U64(10 * 256 + 1)
    x >>= _U64(8)
    x &= _U64(0x00FF00FF00FF00FF)
    x *= _U64(100 * 2**16 + 1)
    x >>= _U64(16)
    x &= _U64(0x0000FFFF0000FFFF)
    x *= _U64(10000 * 2**32 + 1)
    x >>= _U64(32)
    return x


def _exponents(buf, ends, e_at, ok):
    """The end of each field's significand and each field's exponent, for
    the positions ``e_at`` of the bytes "e" and "E"; clears ``ok`` where a
    field holds two of them or its exponent is not ``[+-]d{1,3}``."""
    field = np.searchsorted(ends, e_at)
    ok[field[1:][field[1:] == field[:-1]]] = False
    sig_end = ends.copy()
    sig_end[field] = e_at
    end = ends.take(field)
    sign = buf.take(e_at + 1)
    negative = sign == ord("-")
    digits = end - e_at - 1 - (negative | (sign == ord("+")))
    # The field's last eight bytes, with those before the exponent's digits
    # set to "0".
    x = _loads(buf, 8)[end - 8].view(_U64)
    before = _read_tables().low.take(_WIDTH_IN + 8 - np.minimum(digits, 8))
    x &= ~before
    x |= before & _U64(0x3030303030303030)
    good = (x & _BIT4) == _BIT4
    good &= (digits >= 1) & (digits <= 3)
    ok[field[~good]] = False
    x &= _NIBBLES
    value = _eight_digits(x).astype(np.int64)
    np.negative(value, out=value, where=negative)
    exponent = np.zeros(len(ends), dtype=np.int64)
    exponent[field] = value
    return sig_end, exponent


def _significands(buf, sig_end, length, ok):
    """Each field's significand ``w`` as an integer and its number of digits
    after the decimal point; clears ``ok`` where the ``length`` bytes before
    ``sig_end`` are not ``digits[.digits]`` or ``.digits``, or more than
    ``_WIDTH_IN``, or ``w`` does not fit in 64 bits.  ``length`` is
    overwritten."""
    tables = _read_tables()
    np.minimum(length, _WIDTH_IN + 1, out=length)
    ok &= length <= _WIDTH_IN
    words = max(1, min(3, (int(length.max()) + 7) // 8))
    size = 8 * words
    # The last ``size`` bytes before each end: row r holds bytes 8 r .. 8 r + 7,
    # the first of them in the low byte.
    W = _loads(buf, size)[sig_end - size].view(_U64).reshape(-1, words).T.copy()
    # _WIDTH_IN plus the number of bytes from each row's first to the end.
    to_end = np.arange(size, 0, -8)[:, None] + _WIDTH_IN

    # The decimal point.  The zero bytes of W ^ "........" are flagged
    # exactly for these bytes; the highest flag is the field's own point if
    # it has one.  A flag at bit 8 b + 7 of row r, scaled by 2^(64 r), is a
    # float64 power of two with exponent 64 r + 8 b + 7, and a sum of such
    # powers has the exponent of the largest.
    F = W ^ _DOTS
    Z = F - _ONES
    np.invert(F, out=F)
    F &= Z
    del Z
    F &= _HIGHS
    highest = F[0].astype(np.float64)
    for r in range(1, words):
        highest += F[r].astype(np.float64) * 2.0 ** (64 * r)
    del F
    # Bytes from the point to the end (1 for a final point), or more than
    # ``length`` where the field has none.
    point = 8 * size + 1030 - (highest.view(np.int64) >> 52)
    point >>= 3
    del highest
    has_point = point <= length
    np.copyto(point, _WIDTH_IN + 1, where=~has_point)

    # Squeeze the point out: bytes up to it come from one byte lower.
    S = W << _U64(8)
    if words > 1:
        S[1:] |= W[:-1] >> _U64(56)
    S ^= W
    index = to_end - point
    index += 1
    S &= tables.low.take(index)
    W ^= S
    del S
    # The digits now fill the last ``digits`` bytes; the bytes before them
    # pass the digit test and are cleared.
    digits = length
    digits -= has_point
    ok &= digits >= 1
    np.subtract(to_end, digits, out=index)
    before = tables.low.take(index)
    del index
    W |= before
    test = W[0] & _BIT4
    for r in range(1, words):
        test &= W[r]
    ok &= test == _BIT4
    np.invert(before, out=before)
    before &= _NIBBLES
    W &= before
    del before
    parts = _eight_digits(W)
    w = parts[-1]
    if words > 1:
        parts[-2] *= _U64(10**8)
        w += parts[-2]
    if words > 2:
        ok &= parts[0] < _U64(1844)  # w < 1844 * 10^16 < 2^64
        parts[0] *= _U64(10**16)
        w += parts[0]
    point -= 1
    point *= has_point
    return w, point


def _eisel_lemire(w, q, ok):
    """float64 bits of ``w 10^q`` for ``w >= 1``; clears ``ok`` where the
    product cannot decide the rounding, the result is subnormal or overflows,
    or ``q`` is outside the table."""
    index = (q - _Q_MIN).view(_U64)
    ok &= index <= _U64(_Q_MAX - _Q_MIN)
    np.minimum(index, _U64(_Q_MAX - _Q_MIN), out=index)
    # Shift w to 64 significant bits: the float64 exponent of w gives its
    # bit length, or one more where the conversion rounded up.
    shift = w.astype(np.float64).view(_U64) >> _U64(52)
    np.minimum(shift, _U64(1023 + 63), out=shift)
    np.subtract(_U64(1023 + 63), shift, out=shift)
    w = w << shift
    short = (w >> _U64(63)) ^ _U64(1)
    w <<= short
    shift += short
    tables = _read_tables()
    t_hi = tables.t_hi.take(index.view(np.int64))
    w_lo, w_hi = w & _LO32, w >> _U64(32)
    hi = _mul_hi(w_lo, w_hi, t_hi)
    lo = w * t_hi
    del w, t_hi
    # Below the 55 bits kept, all ones: a carry from w times the power's low
    # word could reach them, so add its high word.  Where the sum's low word
    # is still all ones, the bits of 5^q past the table could carry too,
    # unless the table holds 5^q exactly (-27 <= q <= 55).
    near = np.flatnonzero((hi & _U64(0x1FF)) == _U64(0x1FF))
    if len(near):
        second = _mul_hi(w_lo[near], w_hi[near], tables.t_lo.take(index[near].view(np.int64)))
        low = lo[near] + second
        hi[near] += low < second
        lo[near] = low
        ambiguous = (low == _U64(2**64 - 1)) & ((index[near] - _U64(-27 - _Q_MIN)) > _U64(82))
        ok[near[ambiguous]] = False
    del w_lo, w_hi
    upper = hi >> _U64(63)
    mant = hi >> (upper + _U64(9))
    # The biased binary exponent is floor(q log2(10)) + 63 + 1023 + upper -
    # shift.  Over the table floor(q log2(10)) = (217706 q) >> 16, which is
    # ((217706 index + 58980) >> 16) - 1137 for index = q + 342, so p below
    # is that exponent plus 115.
    p = index * _U64(217706)
    p += _U64(58980)
    p >>= _U64(16)
    p += upper
    p += _U64(64)
    p -= shift
    # A product exact to the last kept bit, halfway between two doubles, is
    # rounded to even; only 5^q with -4 <= q <= 23 make such products.
    tie = np.flatnonzero(lo <= _U64(1))
    if len(tie):
        halfway = (index[tie] - _U64(-4 - _Q_MIN)) < _U64(28)
        halfway &= (mant[tie] & _U64(3)) == _U64(1)
        halfway &= (mant[tie] << (upper[tie] + _U64(9))) == hi[tie]
        mant[tie[halfway]] ^= _U64(1)
    mant += mant & _U64(1)
    mant >>= _U64(1)
    carry = mant >> _U64(53)
    mant >>= carry
    p += carry
    # Normal results only: biased exponents 1..2046.
    p -= _U64(116)
    ok &= p < _U64(2046)
    p += _U64(1)
    p <<= _U64(52)
    mant &= _U64(2**52 - 1)
    mant |= p
    return mant


def parse_fields(buf, starts, ends) -> np.ndarray:
    """``[float(buf[a:b].tobytes()) for a, b in zip(starts, ends)]`` as a
    float64 array, bit for bit, for one or more fields of ASCII bytes in the
    uint8 array ``buf``.

    Every byte of the fields must be a digit or one of ``+-.eE``, and the
    fields must be separated by single bytes of another kind, one also
    following the last; ``buf`` must hold ``PARSE_PAD`` bytes before the
    first field.  A field that is not a ``float()`` literal raises
    ``ValueError`` as ``float()`` does.
    """
    ok = np.ones(len(starts), dtype=bool)
    first = buf.take(starts)
    negative = first == ord("-")
    sig_start = starts + (negative | (first == ord("+")))
    del first
    e_at = np.flatnonzero((buf[starts[0]:ends[-1]] | np.uint8(0x20)) == np.uint8(ord("e")))
    if len(e_at):
        sig_end, exponent = _exponents(buf, ends, e_at + starts[0], ok)
    else:
        sig_end, exponent = ends, 0
    length = np.subtract(sig_end, sig_start, out=sig_start)
    del sig_start
    w, q = _significands(buf, sig_end, length, ok)
    np.subtract(exponent, q, out=q)
    del length, sig_end, exponent

    zero = w == _U64(0)
    w[zero] = 1
    bits = _eisel_lemire(w, q, ok)
    bits[zero] = 0
    bits |= negative.astype(_U64) << _U64(63)
    values = bits.view(np.float64)
    for k in np.flatnonzero(~ok):
        values[k] = float(buf[starts[k]:ends[k]].tobytes())
    return values
