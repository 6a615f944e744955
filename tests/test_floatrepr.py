"""The vectorized shortest-repr kernel against ``repr`` and ``json.dumps``,
and the vectorized parser against ``float()``."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gaussgreen import floatrepr, textio

SMALLEST_NORMAL = 2.2250738585072014e-308
LARGEST = 1.7976931348623157e308


def assert_matches_repr(values):
    values = np.asarray(values, dtype=np.float64)
    text, = floatrepr.join_rows(values.reshape(1, -1), " ")
    want = " ".join(map(repr, values.tolist()))
    if text != want:
        mismatches = [(w, g) for w, g in zip(want.split(), text.split()) if w != g]
        assert text == want, mismatches[:5]


def test_random_normal_bit_patterns_match_repr():
    rng = np.random.default_rng(20200101)
    checked = 0
    while checked < 1_000_000:
        bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values) & (np.abs(values) >= SMALLEST_NORMAL)]
        assert_matches_repr(values)
        checked += values.size


def test_fixed_classes_match_repr():
    classes = [2.0**k for k in range(-1022, 1024)]
    classes += [float(f"1e{k}") for k in range(-307, 309)]
    classes += [10.0**k for k in range(-307, 309)]
    classes += [float(i) for i in range(2**53 - 1000, 2**53 + 1000)]
    classes += [float(i) for i in range(-1000, 1001)]
    classes += [9999999999999998.0, 1e16, 1e-4, 1e-5, 0.0, -0.0, LARGEST, SMALLEST_NORMAL]
    values = np.array(classes)
    with np.errstate(over="ignore"):
        neighbours = [np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)]
    values = np.concatenate(neighbours)
    values = values[np.isfinite(values) & ((np.abs(values) >= SMALLEST_NORMAL) | (values == 0))]
    assert_matches_repr(np.concatenate([values, -values]))


def test_signed_zeros_keep_their_sign():
    assert floatrepr.join_rows(np.array([[0.0, -0.0, -1.5, 0.0]]), " ") == ["0.0 -0.0 -1.5 0.0"]


def test_nan_infinity_and_subnormals_are_left_to_the_caller():
    for odd in (np.nan, np.inf, -np.inf, 5e-324, -SMALLEST_NORMAL / 2):
        assert floatrepr.join_rows(np.array([[1.0, 2.0], [odd, 3.0]]), ", ") is None


def test_rows_are_joined_with_the_separator():
    M = np.array([[0.1, -2.5e-7, 1e22], [123456.789, 0.0, -1e16]])
    assert floatrepr.join_rows(M, ",\n    ") == [",\n    ".join(map(repr, row))
                                              for row in M.tolist()]


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                  elements=st.floats(allow_subnormal=False, allow_nan=False,
                                     allow_infinity=False)))
def test_kernel_matches_repr_on_normal_arrays(M):
    assert floatrepr.join_rows(M, ", ") == [", ".join(map(repr, row)) for row in M.tolist()]


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.one_of(st.integers(1, 1200), st.tuples(st.integers(1, 4),
                                                                         st.integers(1, 400))),
                  elements=st.floats()))
def test_writer_matches_json_dumps_on_any_floats(M):
    # Large enough arrays take the kernel, except where a block holds a NaN,
    # an infinity or a subnormal number.
    assert "".join(textio._chunks(M)) == json.dumps(M.tolist(), indent=2)


def parse(texts):
    """parse_fields on ``texts`` as lines of a buffer with the padding it needs."""
    pad = floatrepr.PARSE_PAD
    data = bytes(pad) + "".join(t + "\n" for t in texts).encode()
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate([[pad], ends[:-1] + 1])
    return floatrepr.parse_fields(buf, starts, ends)


def assert_matches_float(texts):
    got = parse(texts)
    want = np.array([float(t) for t in texts])
    bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert not len(bad), [(texts[k], got[k], want[k]) for k in bad[:5]]


finite = st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))).filter(
    np.isfinite)


@st.composite
def float_literals(draw):
    """A float64 in one of the forms numbers are written in, then respelled:
    a "+" sign, "E", exponents of 1-3 digits with or without "+", leading
    zeros; or an integer of up to 30 digits."""
    if draw(st.integers(0, 5)) == 0:
        text = str(draw(st.integers(-10**30, 10**30)))
    else:
        value = draw(finite)
        form = draw(st.sampled_from(["repr", "%.17g", "%.16e", "%.15g", "%.3g"]))
        text = repr(value) if form == "repr" else form % value
    sign = "-" if text.startswith("-") else draw(st.sampled_from(["", "+"]))
    text = text.lstrip("-")
    mantissa, _, exponent = text.partition("e")
    mantissa = "0" * draw(st.integers(0, 3)) + mantissa
    if exponent:
        e = int(exponent)
        width = max(len(str(abs(e))), draw(st.integers(1, 3)))
        esign = "-" if e < 0 else draw(st.sampled_from(["", "+"]))
        mantissa += draw(st.sampled_from("eE")) + esign + str(abs(e)).zfill(width)
    return sign + mantissa


@settings(max_examples=300, deadline=None)
@given(st.lists(float_literals(), min_size=1, max_size=40))
def test_parse_fields_matches_float(texts):
    assert_matches_float(texts)


def test_parse_fields_on_hard_cases():
    hard = [
        "9007199254740993",  # 2^53 + 1, halfway: rounds to even
        "1e23", "7.2057594037927933e16",
        "2.2250738585072011e-308", "2.2250738585072014e-308",  # below and at the least normal
        "4.9406564584124654e-324", "2.4703282292062327e-324",  # subnormal, half the least one
        "1.7976931348623158e308",  # the maximum
        "1.7976931348623159e308",  # inf
        "1234567890123456789", "-9999999999999999999",  # 19 digits
        "12345678901234567890", "18446744073709551615", "18446744073709551616",  # 20
        "1234567890123456789012345", "0.1234567890123456789012345",  # 25
        "0", "-0", "+0.0", "-0e999", "0e-999", "1e-400", "1e400", "-1e308", "1e-342", "1e-343",
        ".5", "5.", "-.5e-3", "+1E+5", "00001.5000", "1e0", "9.999999999999999e22",
        "123456789012345678901234", "0.000000000000000000001234",
        # The product with the power's high word alone rounds these wrongly.
        "4.7080441180810911e114", "7.49143084701934448e-227", "8891650861972715.5",
        # Significands above 2^53: converting them to float64 first rounds twice.
        "1444926.1995938017", "2.3202386709846417e24", "1804580891381573.8",
    ]
    assert_matches_float(hard)
    for text in hard:  # alone, each field sets the block's significand width
        assert_matches_float([text])
    # Fields float() rejects raise its ValueError.
    for bad in ["", "-", "+", ".", "e5", "1e", "1e+", "1.2.3", "1e5.3", "+-1", "1-", "1e5e3"]:
        with pytest.raises(ValueError):
            parse(["1.5", bad, "2"])


def test_common_forms_need_no_float(monkeypatch):
    # Fields as matrices are written are decided without float().
    calls = []

    def counting_float(text):
        calls.append(text)
        return float(text)

    monkeypatch.setattr(floatrepr, "float", counting_float, raising=False)
    rng = np.random.default_rng(24)
    values = (rng.standard_normal(3000) * 10.0 ** rng.integers(-30, 30, 3000)).tolist()
    short = ["%.2f" % v for v in rng.uniform(-2000, 2000, 1000)] + ["3", "-0", ".5", "-.25", "5."]
    assert_matches_float(short)  # every field short: one-word significands
    assert calls == []
    texts = ["%.17g" % v for v in values] + ["%.16e" % v for v in values] + list(map(repr, values))
    texts += short + ["+1E+5", "007", "1e-5", "-2.5e3"]
    assert_matches_float(texts)
    assert calls == []


def published_power(q):
    """Eisel-Lemire's 128-bit power for 10^q, as published with fast_float:
    5^q truncated to 128 bits for q >= 0, a rounded-up reciprocal of 5^-q
    for -27 <= q < 0, and the same truncated from more bits below."""
    p = 5 ** abs(q)
    if q >= 0:
        while p < 1 << 127:
            p *= 2
        while p >= 1 << 128:
            p //= 2
        return p
    z = 0
    while (1 << z) < p:
        z += 1
    if q >= -27:
        return 2 ** (z + 127) // p + 1
    c = 2 ** (2 * z + 128) // p + 1
    while c >= 1 << 128:
        c //= 2
    return c


def test_power_table_is_the_published_one():
    tables = floatrepr._read_tables()
    want = [published_power(q) for q in range(floatrepr._Q_MIN, floatrepr._Q_MAX + 1)]
    assert tables.t_hi.tolist() == [t >> 64 for t in want]
    assert tables.t_lo.tolist() == [t & (2**64 - 1) for t in want]
