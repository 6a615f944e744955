"""Matrix file parsing: the CSV block reader against the reference parser,
and no tracebacks from the CLI on malformed CSV or JSON input."""

import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gaussgreen.kernels import fbm_cov

import gaussgreen
from gaussgreen import textio
from gaussgreen.cli import ParseError, load_matrix

SRC = str(Path(gaussgreen.__file__).resolve().parent.parent)


def reference_matrix_from_csv(text: str, path: str) -> np.ndarray:
    """The CSV parser before any fast reader, kept verbatim as the oracle."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError as err:
            raise ParseError(f"{path}:{lineno}: {err}") from err
    if not rows:
        raise ParseError(f"{path}: no numeric rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError(f"{path}: ragged rows")
    if len(rows) != width:
        raise ParseError(f"{path}: matrix is {len(rows)}x{width}, not square")
    return np.asarray(rows, dtype=float)


# Line breaks of str.splitlines; the block reader knows only \n.
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
          "\u2028", "\u2029"]
# Whitespace that float() strips, ASCII and Unicode.
PADS = ["", "", "", " ", "\t", "  ", "\xa0", "\u2000", "\u3000"]
# U+001F, which float() keeps (numpy's reader stripped it), a zero-width
# space that neither strips, and NUL.
ODD_PADS = ["\x1f", "\x1f", "\u200b", "\x00"]
# Fields float() accepts with bytes the block reader leaves to the
# reference (underscores, Arabic-Indic digits), special values, and fields
# float() rejects.
ODD_FIELDS = ["1_0", "1__0", "_1", "\u0661", "nan", "-nan", "NaN", "inf", "-inf",
              "+Infinity", "1e400", "-1e-400", "-0", "+.5", "5.", "", " ", "0x10",
              "1 2", "1e", ".", "-", "abc", "'1'", '"1"', "1;2"]
EXTRA_LINES = ["", " ", "\t \t", "\xa0", "\x1f", "# comment", "  # indented", "#"]

floats = st.floats(allow_nan=False, width=64)
numbers = st.one_of(
    floats.map(repr),
    floats.map(lambda v: "%.17g" % v),
    floats.map(lambda v: "%.3e" % v),
    st.integers(-10**20, 10**20).map(str),
)


@st.composite
def csv_texts(draw, pads=PADS, breaks=BREAKS):
    """A well-formed square, then up to three edits that bring in oddities."""
    k = draw(st.integers(0, 4))
    rows = [[draw(st.sampled_from(pads)) + draw(numbers) + draw(st.sampled_from(pads))
             for _ in range(k)] for _ in range(k)]
    extra = {}  # row index -> line inserted before it
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["field", "field", "pad", "pad", "drop", "add_row",
                                     "del_row", "trailing", "comment", "line"]))
        r = draw(st.integers(0, max(len(rows) - 1, 0)))
        if edit == "add_row" or not rows:
            rows.append([draw(numbers) for _ in range(draw(st.integers(0, 5)))])
        elif edit == "del_row":
            del rows[r]
        elif edit == "line":
            extra[r] = draw(st.sampled_from(EXTRA_LINES))
        elif edit == "trailing":
            rows[r].append(draw(st.sampled_from(["", " "])))
        elif edit == "comment":
            rows[r].append(draw(st.sampled_from(["#", " # c", "#1,2"])))
        elif not rows[r]:
            continue
        elif edit == "drop":
            rows[r].pop()
        else:
            c = draw(st.integers(0, len(rows[r]) - 1))
            if edit == "field":
                rows[r][c] = draw(st.sampled_from(ODD_FIELDS))
            else:
                pad = draw(st.sampled_from(ODD_PADS))
                rows[r][c] = draw(st.sampled_from([pad + rows[r][c], rows[r][c] + pad]))
    lines = []
    for r, row in enumerate(rows):
        if r in extra:
            lines.append(extra[r])
        lines.append(",".join(row))
    ends = st.sampled_from(breaks) if draw(st.booleans()) else st.just("\n")
    text = "".join(line + draw(ends) for line in lines)
    if draw(st.booleans()):
        text = text[:-1]  # no break after the last line
    return text


def parse_or_error(parser, text):
    try:
        return parser(text, "m.csv")
    except ParseError as err:
        return str(err)


@pytest.fixture(scope="module")
def csv_dir():
    with tempfile.TemporaryDirectory() as name:
        yield Path(name)


def load_text(directory, text, block=None):
    """``load_matrix`` on ``text`` written as UTF-8, with every file size
    taking the block reader and, if given, blocks of ``block`` bytes; the
    error text names the file m.csv."""
    path = directory / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(textio, "_CSV_MIN", 0), \
            mock.patch.object(textio, "_CSV_BLOCK", block or textio._CSV_BLOCK):
        try:
            return load_matrix(str(path))
        except ParseError as err:
            return str(err).replace(str(path), "m.csv")


def assert_same_result(got, expected):
    if isinstance(expected, str):
        assert got == expected
    else:
        assert isinstance(got, np.ndarray), got
        assert got.shape == expected.shape
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(block=None, text="1\x1f,2\n3,4")  # U+001F: float() keeps it, the block reader declines it
@example(block=None, text="1,2\n \n3,4\n")  # whitespace-only line: the reference skips it
@example(block=None, text="1_0\n")  # underscores: float() accepts them
@example(block=None, text="\u0661\n")  # Arabic-Indic digit: float() accepts it
@example(block=None, text="1,0\x0b0,1")  # a break that the block reader does not know
@example(block=None, text="")
@given(text=st.one_of(
    csv_texts(),
    csv_texts(pads=[""], breaks=["\n"]),  # mostly bytes the block reader takes
    st.text(alphabet=st.sampled_from("0123456789.,e-+_# \t\n\r\x0b\x1c\x85\x1fnaif"),
            max_size=40),
), block=st.sampled_from([None, 1, 3, 8]))
def test_csv_reader_matches_reference_parser(csv_dir, text, block):
    expected = parse_or_error(reference_matrix_from_csv, text)
    assert_same_result(load_text(csv_dir, text, block), expected)


def test_csv_reader_matches_reference_on_benchmark_format(tmp_path):
    # Inputs written as the benchmark writes them: %.17g rows, no comments.
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 60, 121):
        G = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-300, 300, (n, n))
        text = "\n".join(",".join("%.17g" % v for v in row) for row in G) + "\n"
        got = load_text(tmp_path, text)
        assert got.tobytes() == G.tobytes()
        assert got.tobytes() == reference_matrix_from_csv(text, "m.csv").tobytes()


@pytest.mark.parametrize("final_break", ["\n", ""])
def test_fields_and_lines_across_block_edges(tmp_path, monkeypatch, final_break):
    # Block sizes that cut the file inside a field, right before and after a
    # comma, on a line break, and inside a line longer than a block; the
    # block reader alone reads the file.
    rng = np.random.default_rng(3)
    G = rng.standard_normal((9, 9)) * 10.0 ** rng.integers(-30, 30, (9, 9))
    G[0, :3] = [1.0, -2.5, 3e-5]
    rows = [",".join(("%.17g", "%.3e", "%r", "%.0f")[(i + j) % 4] % v
                     for j, v in enumerate(row)) for i, row in enumerate(G.tolist())]
    text = "\n".join(rows) + final_break
    expected = reference_matrix_from_csv(text, "m.csv")
    first = len(rows[0])
    with monkeypatch.context() as patch:
        patch.setattr(textio, "_matrix_from_csv_lines", None)
        for block in sorted({1, 2, 5, 8, 24, 25, first - 1, first, first + 1, first + 2,
                             len(text) - 1, len(text), len(text) + 1, 1 << 18}):
            got = load_text(tmp_path, text, block)
            assert got.tobytes() == expected.tobytes(), block
    # A ragged last line, an extra line or an extra row is found in any block.
    for bad in (text.rstrip("\n") + ",1\n", text.rstrip("\n") + "\n1\n",
                text.rstrip("\n") + "\n" + rows[0] + "\n"):
        expected = parse_or_error(reference_matrix_from_csv, bad)
        for block in (7, first, 1 << 18):
            assert load_text(tmp_path, bad, block) == expected


def test_one_long_line_allocates_no_square(tmp_path):
    # n comes from the first line; a file too short for n rows of n fields
    # goes to the reference parser before an n x n matrix is allocated.
    path = tmp_path / "row.csv"
    path.write_text(",".join(["0"] * 300_000) + "\n")
    with pytest.raises(ParseError, match="matrix is 1x300000, not square"):
        load_matrix(str(path))


def test_benchmark_csv_needs_neither_loadtxt_nor_the_reference(tmp_path, monkeypatch):
    G = fbm_cov(np.arange(1.0, 201.0), 0.5)
    path = tmp_path / "fbm.csv"
    np.savetxt(path, G, fmt="%.17g", delimiter=",")

    def refuse(*args, **kwargs):
        raise AssertionError("not the block reader")

    monkeypatch.setattr(np, "loadtxt", refuse)
    monkeypatch.setattr(textio, "_matrix_from_csv_lines", refuse)
    assert load_matrix(str(path)).tobytes() == G.tobytes()


def test_csv_read_peaks_below_two_matrices(tmp_path):
    # The block reader holds the matrix and one block's temporaries, 1.39
    # matrices at n = 600; the list of lines it replaced put the peak at 3.6.
    n = 600
    path = tmp_path / "fbm.csv"
    np.savetxt(path, fbm_cov(np.arange(1.0, n + 1), 0.5), fmt="%.17g", delimiter=",")
    load_matrix(str(path))  # tables and caches are not counted
    tracemalloc.start()
    try:
        M = load_matrix(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.shape == (n, n)
    assert peak <= 2.0 * M.nbytes, peak / M.nbytes


def run_cli(*argv, timeout=120):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-W", "default", "-m", "gaussgreen.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


@pytest.mark.parametrize("pad", [8185, 8188, 8189, 8190, 8191, 8192])
@pytest.mark.parametrize("last", ["", "2,x\n"])
def test_file_is_split_as_its_whole_text(tmp_path, pad, last):
    # The reference parser reads a line at a time; breaks of every kind
    # around the text reader's 8192-byte blocks must split as
    # str.splitlines on the text.  The block reader declines these files.
    text = "#" * pad + "\r\n1,0\r0,1\x0b\u2028#\u00e9\x85\r\n\x1c \n" + last
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = parse_or_error(reference_matrix_from_csv, path.read_text(encoding="utf-8"))
    try:
        with mock.patch.object(textio, "_CSV_MIN", 0):
            got = load_matrix(str(path))
    except ParseError as err:
        got = str(err).replace(str(path), "m.csv")
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got.tobytes() == expected.tobytes()


def test_undecodable_file_error_names_the_offset_in_the_file(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"1,0\n0,1\n" + b"#" * 20000 + b"\xff\n")
    with pytest.raises(UnicodeDecodeError) as whole:
        with open(path) as fh:
            fh.read()
    with pytest.raises(UnicodeDecodeError) as err:
        load_matrix(str(path))
    assert str(err.value) == str(whole.value)
    assert "position 20008" in str(err.value)


@pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
def test_empty_csv_prints_error_line_only(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    proc = run_cli("check", "--input", str(path))
    assert proc.returncode == 1
    assert proc.stderr == f"error: {path}: no numeric rows\n"


class TestJsonDeclaredN:
    def write(self, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        return str(path)

    @pytest.mark.parametrize("n", ["null", "[2]", "{}", "2.5", "NaN", "Infinity",
                                   '"two"', "true", "false"])
    def test_malformed_n_is_parse_error(self, tmp_path, n):
        path = self.write(tmp_path, '{"entries": [[1.0, 0.0], [0.0, 1.0]], "n": %s}' % n)
        with pytest.raises(ParseError, match="n must be an integer"):
            load_matrix(path)

    @pytest.mark.parametrize("n", ["2", "2.0", '"2"'])
    def test_integral_n_is_accepted(self, tmp_path, n):
        path = self.write(tmp_path, '{"entries": [[1.0, 0.0], [0.0, 1.0]], "n": %s}' % n)
        np.testing.assert_array_equal(load_matrix(path), np.eye(2))

    def test_mismatched_n_is_parse_error(self, tmp_path):
        path = self.write(tmp_path, '{"entries": [[1.0]], "n": 3}')
        with pytest.raises(ParseError, match=r"declared n=3 but entries are \(1, 1\)"):
            load_matrix(path)


MALFORMED_JSON = {
    "n_null": '{"entries": [[1.0]], "n": null}',
    "n_list": '{"entries": [[1.0]], "n": [1]}',
    "n_object": '{"entries": [[1.0]], "n": {"k": 1}}',
    "n_fraction": '{"entries": [[1.0, 0.0], [0.0, 1.0]], "n": 2.5}',
    "n_infinite": '{"entries": [[1.0]], "n": Infinity}',
    "n_true": '{"entries": [[2.0]], "n": true}',
    "n_false": '{"entries": [[2.0]], "n": false}',
    "huge_integer_entry": '{"entries": [[1%s]]}' % ("0" * 400),
    "deep_nesting": "[" * 100_000 + "]" * 100_000,
}


@pytest.mark.parametrize("name", sorted(MALFORMED_JSON))
def test_malformed_json_exits_one_without_traceback(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(MALFORMED_JSON[name])
    for command in ("check", "decompose"):
        proc = run_cli(command, "--input", str(path))
        assert proc.returncode == 1, (command, proc.stderr)
        assert proc.stderr.startswith("error: "), proc.stderr
        assert "Traceback" not in proc.stderr


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10**30, 10**30), st.floats(), st.text(max_size=3),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=12,
)
square_entries = st.integers(1, 3).flatmap(
    lambda k: st.lists(st.lists(st.one_of(st.floats(), st.integers(-5, 5)),
                                min_size=k, max_size=k), min_size=k, max_size=k))


@st.composite
def json_texts(draw):
    doc = draw(st.one_of(
        st.fixed_dictionaries({"entries": square_entries},
                              optional={"n": json_values}),
        st.fixed_dictionaries({"entries": json_values}, optional={"n": json_values}),
        json_values,
    ))
    text = json.dumps(doc)
    if draw(st.integers(0, 5)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


DRIVER = """
import sys
from gaussgreen.cli import main
for path in sys.argv[1:]:
    for command in ("check", "decompose"):
        main([command, "--input", path, "--out", path + ".out"])
print("done")
"""


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                                 HealthCheck.function_scoped_fixture])
@given(csv=st.lists(csv_texts(), min_size=25, max_size=25),
       docs=st.lists(json_texts(), min_size=25, max_size=25))
def test_cli_prints_no_traceback_on_fuzzed_input(tmp_path, csv, docs):
    paths = []
    for k, text in enumerate(csv):
        path = tmp_path / f"in{k}.csv"
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        paths.append(str(path))
    for k, text in enumerate(docs):
        path = tmp_path / f"in{k}.json"
        path.write_text(text)
        paths.append(str(path))
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", DRIVER, *paths], capture_output=True,
                          text=True, env=env, timeout=300)
    assert "Traceback" not in proc.stderr, proc.stderr[-3000:]
    assert proc.returncode == 0 and proc.stdout.strip() == "done"
