"""Python's ``repr`` of many float64 values at once.

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
    # floor(10^j / 2^e) + 1, in [2^127, 2^128), for j = _POW10_MIN.._POW10_MAX,
    # as high and low words.
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


@functools.cache
def _tables() -> _Tables:
    """Build the constant tables, the powers of ten exactly with Python integers."""
    hi, lo = [], []
    for k in range(_POW10_MIN, _POW10_MAX + 1):
        if k >= 0:
            p = 10**k
            e = p.bit_length() - 128
            g = (p >> e if e >= 0 else p << -e) + 1
        else:
            p = 10**-k
            g = (1 << (p.bit_length() + 127)) // p + 1
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
    and ``b < 2^63``; every partial product and sum fits in 64 bits."""
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
