"""The vectorized shortest-repr kernel against ``repr`` and ``json.dumps``."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gaussgreen import cli, floatrepr

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
    assert "".join(cli._chunks(M)) == json.dumps(M.tolist(), indent=2)
