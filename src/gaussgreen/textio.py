"""Text formats of the ``gaussgreen`` command: matrix and chain files in,
JSON reports out.

Matrix files are CSV (:func:`read_csv`) or a JSON object with ``entries``
and an optional ``n`` (:func:`read_json_matrix`); chain files are a JSON
object with ``T``, ``kappa`` and an optional ``c`` (:func:`read_chain`).
Both JSON kinds are decoded by one path.  Input that is not in its format
raises :class:`ParseError` naming the file; an ``OSError`` from opening or
reading it is left to the caller.  :func:`encode_report` gives the bytes of
``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline, in pieces.

Numbers cross the text boundary through :mod:`floatrepr`, whose kernels
these readers and the writer call on whole blocks of fields or values.
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

from . import floatrepr
from .simulate import ChainSpec


class ParseError(Exception):
    """Bad input or arguments, or an unwritable report: exit 1, one ``error:`` line."""


def _read_lines(fh) -> list[str]:
    """``fh.read().splitlines()``, read a line at a time so that the file's
    bytes and whole text are never held next to the lines.  A line that
    iteration yields ends in ``\n``, which always ends a line of the text,
    so splitting each one splits the text."""
    try:
        return [line for raw in fh for line in raw.splitlines()]
    except UnicodeDecodeError:
        # Iteration decodes in blocks and counts the bad byte's position
        # from the block; decoded whole, the error gives it in the file.
        fh.seek(0)
        fh.read()
        raise


# CSV files of at least _CSV_MIN bytes take the block reader.  Its fixed
# cost, about 0.2 ms, equals the reference parser's 0.35-0.4 us a field at
# about 11.6 kB (625 fields written with %.17g).  It reads _CSV_BLOCK bytes
# at a time: smaller blocks pay that fixed cost more often, larger ones hold
# more temporaries (about 10 bytes for each byte of the block).
_CSV_MIN = 12 << 10
_CSV_BLOCK = 1 << 17
# Bytes kept before each block: parse_fields reads back that far from a field.
_CSV_PAD = floatrepr.PARSE_PAD


def read_csv(path: str) -> np.ndarray:
    """Rows of comma-separated ``float()`` literals; ``#`` comments, blank lines.

    A file of at least ``_CSV_MIN`` bytes is read by :func:`_csv_blocks`,
    which converts each field with :func:`floatrepr.parse_fields` to
    ``float()``'s bits.  Everything else, and every file it declines (a
    byte other than digits, ``+-.eE``, ``,`` and ``\n``, a field that is not a
    ``float()`` literal, ragged or non-square rows), goes to the reference
    parser, which gives the result or the ``ParseError``.
    """
    if os.stat(path).st_size >= _CSV_MIN:
        with open(path, "rb") as fh:
            M = _csv_blocks(fh)
        if M is not None:
            return M
    with open(path) as fh:
        lines = _read_lines(fh)
    return _matrix_from_csv_lines(lines, path)


def _csv_blocks(fh) -> np.ndarray | None:
    """The square matrix in the binary file ``fh``, each line ``n`` fields
    separated by ``,`` and ended by ``\n`` (the last one may lack it), or
    ``None``.  ``n`` comes from the first line; the file is read in blocks
    that end at a line break, straight into the matrix."""
    size = os.fstat(fh.fileno()).st_size
    buf = np.zeros(_CSV_PAD + min(_CSV_BLOCK, size + 1), dtype=np.uint8)
    M = None
    done = 0  # values read
    carry = 0  # bytes of an unfinished line at buf[_CSV_PAD:]
    while True:
        if _CSV_PAD + carry == len(buf):  # a line longer than the buffer
            buf = np.concatenate([buf, np.zeros(len(buf), dtype=np.uint8)])
        got = fh.readinto(memoryview(buf)[_CSV_PAD + carry:])
        end = _CSV_PAD + carry + got
        if not got:
            if not carry:
                break
            buf[end] = ord("\n")
            end += 1
        block = buf[_CSV_PAD:end]
        other = block - np.uint8(ord("+"))
        other = other > np.uint8(ord("9") - ord("+"))  # not in "+,-./0-9"
        newline = block == np.uint8(ord("\n"))
        other &= ~newline
        other &= (block | np.uint8(0x20)) != np.uint8(ord("e"))
        if other.any():
            return None
        newline |= block == np.uint8(ord(","))
        seps = np.flatnonzero(newline)
        del other, newline
        breaks = np.flatnonzero(block.take(seps) == np.uint8(ord("\n")))
        if not len(breaks):
            carry = end - _CSV_PAD
            continue
        seps = seps[:breaks[-1] + 1]
        if M is None:
            n = int(breaks[0]) + 1
            if 2 * n * n - 1 > size:  # too few bytes for n rows of n fields
                return None
            M = np.empty((n, n))
            values = M.reshape(-1)
        rows = len(breaks)
        if len(seps) != rows * n or done + len(seps) > n * n or \
                not (breaks == np.arange(n - 1, len(seps), n)).all():
            return None
        seps += _CSV_PAD
        starts = np.empty_like(seps)
        starts[0] = _CSV_PAD
        starts[1:] = seps[:-1] + 1
        try:
            parsed = floatrepr.parse_fields(buf, starts, seps)
        except ValueError:
            return None
        values[done:done + len(seps)] = parsed
        done += len(seps)
        carry = end - 1 - seps[-1]
        buf[_CSV_PAD:_CSV_PAD + carry] = buf[seps[-1] + 1:end]
        if not got:
            break
    return M if done and done == M.size else None


def _matrix_from_csv_lines(lines: list[str], path: str) -> np.ndarray:
    """Reference parser: one ``float()`` call per field."""
    rows = []
    for lineno, raw in enumerate(lines, start=1):
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


def _json_doc(path: str, what: str):
    """The JSON document in the file ``path``; ``what`` leads the message of
    one that does not decode."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, RecursionError) as err:
            raise ParseError(f"{what}: {err}") from err


def _floats(value, what: str) -> np.ndarray:
    """``value`` as a float array; ``what`` leads the message of one that is not."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as err:
        raise ParseError(f"{what}: {err}") from err


def read_json_matrix(path: str) -> np.ndarray:
    """The square ``entries`` of the JSON object in ``path``, checked against
    its optional integer ``n``."""
    doc = _json_doc(path, path)
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ParseError(f"{path}: expected an object with an 'entries' field")
    M = _floats(doc["entries"], f"{path}: bad entries")
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ParseError(f"{path}: entries are {M.shape}, not square")
    if "n" in doc:
        declared = doc["n"]
        if isinstance(declared, bool):
            raise ParseError(f"{path}: n must be an integer, got {declared!r}")
        try:
            n = int(declared)
        except (TypeError, ValueError, OverflowError) as err:
            raise ParseError(f"{path}: n must be an integer: {err}") from err
        if isinstance(declared, float) and n != declared:
            raise ParseError(f"{path}: n must be an integer, got {declared!r}")
        if n != M.shape[0]:
            raise ParseError(f"{path}: declared n={declared} but entries are {M.shape}")
    return M


def read_chain(path: str) -> ChainSpec:
    """The chain ``T``, ``kappa`` and rate ``c`` (a JSON number, 1 when left
    out) of the JSON object in ``path``, such as a decomposition report."""
    doc = _json_doc(path, f"cannot read chain from {path}")
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected an object with 'T' and 'kappa' fields")
    what = f"{path}: missing or malformed chain fields"
    try:
        T = _floats(doc["T"], what)
        kappa = _floats(doc["kappa"], what)
        c = doc.get("c", 1.0)
        if isinstance(c, bool) or not isinstance(c, (int, float)):
            raise ParseError(f"{path}: c must be a number, got {c!r}")
        return ChainSpec(T=T, kappa=kappa, c=float(c))
    except (KeyError, OverflowError) as err:
        raise ParseError(f"{what}: {err}") from err


_ENCODE = json.JSONEncoder(sort_keys=True).encode
_SCALAR_TYPES = {float, int, bool, type(None)}
_LEAF_TYPES = _SCALAR_TYPES | {str}
# float64 values formatted per kernel call; its temporaries take about 170
# bytes a value.  Below _KERNEL_MIN values its fixed cost, about 0.15 ms,
# outweighs its saving over the C encoder, 0.3-0.5 us a value.
_BLOCK = 8192
_KERNEL_MIN = 512


def encode_report(doc: dict):
    """``json.dumps(doc, indent=2, sort_keys=True) + "\n"`` in pieces, with
    each ndarray encoded as its ``tolist()`` would be."""
    return itertools.chain(_chunks(doc), ["\n"])


def _chunks(value, pad: str = ""):
    """``json.dumps(value, indent=2, sort_keys=True)``, nested ``pad`` deep,
    in pieces; an ndarray is encoded as its ``tolist()`` would be.

    ``json.dumps`` with an indent runs the pure-Python encoder; here each
    list of scalars (a matrix row, a vector) is written in one piece, which
    is where reports spend their bytes.  A float64 array goes through
    :func:`floatrepr.join_rows` a block of rows at a time, other lists
    through the C encoder, re-indented, so no list or text of a whole
    matrix is held.  Keys must be strings, as they are in every report.
    """
    if isinstance(value, np.ndarray) and value.ndim < 2:
        if value.ndim == 1 and value.size and value.dtype == np.float64:
            yield from _float_lists(value[None], pad)
            return
        if value.ndim == 1 and value.size and value.dtype.kind in "biuf":
            yield _scalar_list(value.tolist(), pad)
            return
        value = value.tolist()
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        inner, head = pad + "  ", "{\n"
        for key in sorted(value):
            item = value[key]
            if type(item) in _LEAF_TYPES:
                yield f"{head}{inner}{_ENCODE(key)}: {_ENCODE(item)}"
            else:
                yield f"{head}{inner}{_ENCODE(key)}: "
                yield from _chunks(item, inner)
            head = ",\n"
        yield "\n" + pad + "}"
    elif isinstance(value, (list, tuple, np.ndarray)):
        if not len(value):
            yield "[]"
        elif not isinstance(value, np.ndarray) and set(map(type, value)) <= _SCALAR_TYPES:
            yield _scalar_list(value, pad)
        else:
            inner, head = pad + "  ", "[\n"
            if (isinstance(value, np.ndarray) and value.ndim == 2 and value.size
                    and value.dtype == np.float64):
                items = ([row] for row in _float_lists(value, inner))
            else:
                items = (_chunks(item, inner) for item in value)
            for item in items:
                yield head + inner
                yield from item
                head = ",\n"
            yield "\n" + pad + "]"
    else:
        yield _ENCODE(value)


def _float_lists(M: np.ndarray, pad: str):
    """``_scalar_list(row.tolist(), pad)`` for each row of the nonempty
    float64 matrix ``M``, formatted ``_BLOCK`` values at a time.  A small
    block, or one holding a NaN, an infinity or a subnormal number, takes
    the C encoder."""
    inner = pad + "  "
    sep = ",\n" + inner
    step = max(1, _BLOCK // M.shape[1])
    for start in range(0, len(M), step):
        block = M[start:start + step]
        texts = floatrepr.join_rows(block, sep) if block.size >= _KERNEL_MIN else None
        if texts is None:
            yield from (_scalar_list(row, pad) for row in block.tolist())
        else:
            yield from ("[\n" + inner + text + "\n" + pad + "]" for text in texts)


def _scalar_list(items, pad: str) -> str:
    """A nonempty list of scalars, one C-encoder call re-indented."""
    inner = pad + "  "
    # Scalar encodings contain no ", ", so this splits only items.
    body = _ENCODE(items)[1:-1].replace(", ", ",\n" + inner)
    return "[\n" + inner + body + "\n" + pad + "]"
