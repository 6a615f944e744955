"""Command-line front end.

Subcommands: ``check`` (classify a covariance), ``decompose`` (emit the
killed-chain construction), ``simulate`` (Monte-Carlo visit counts for a
decomposition file), ``laplace`` (determinant formula vs Monte-Carlo),
``zoo`` (generate covariance families), ``sweep`` (verdict table over a
family parameter grid).

Exit codes: 0 definite verdict / success, 1 input error (usage error, parse
failure, matrix not positive definite, invalid chain file, report file that
cannot be written, sizes that need more memory than can be allocated),
2 indeterminate at the working tolerance, 3 decomposition requested for a
non-ID covariance, 4 internal numerical failure (a constructed
decomposition violated one of its own identities).

All reports are JSON with sorted keys; identical configuration produces
byte-identical output (timings never enter reports).  Indices in reports
are 0-based.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__, floatrepr
from .criteria import NoSignature, classify_green, is_id_square, relaxed_kind
from .decomposition import (
    NotInfinitelyDivisibleError,
    NumericalFailureError,
    SymmetryViolationError,
    decompose,
)
from .kernels import (
    brownian_cov,
    fbm_cov,
    random_green,
    scale_conjugate,
    sheet_cov,
    sheet_counterexample,
)
from .linalg import (
    DEFAULT_TOL,
    EPS_PSD,
    SYM_TOL,
    NotPositiveDefiniteError,
    Tolerances,
    covariance,
)
from .simulate import (
    ChainSpec,
    InvalidChainError,
    laplace,
    simulate_ct_green,
    simulate_green,
)

SCHEMA_PREFIX = "gaussgreen"
# check's relaxed zero band: this many times --eps, at most 0.5, and never
# narrower than --eps itself.
INDETERMINATE_FACTOR = 10.0


class ParseError(Exception):
    """Bad input or arguments, or an unwritable report: exit 1, one ``error:`` line."""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1 like every other input error."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def load_matrix(path: str, fmt: str | None = None) -> np.ndarray:
    if fmt is None:
        fmt = "json" if path.endswith(".json") else "csv"
    try:
        if fmt == "csv":
            return _matrix_from_csv(path)
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from err
    return _matrix_from_json(text, path)


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


def _matrix_from_csv(path: str) -> np.ndarray:
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


def _matrix_from_json(text: str, path: str) -> np.ndarray:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:
        raise ParseError(f"{path}: {err}") from err
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ParseError(f"{path}: expected an object with an 'entries' field")
    try:
        M = np.asarray(doc["entries"], dtype=float)
    except (TypeError, ValueError, OverflowError) as err:
        raise ParseError(f"{path}: bad entries: {err}") from err
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


_ENCODE = json.JSONEncoder(sort_keys=True).encode
_SCALAR_TYPES = {float, int, bool, type(None)}
_LEAF_TYPES = _SCALAR_TYPES | {str}
# float64 values formatted per kernel call; its temporaries take about 170
# bytes a value.  Below _KERNEL_MIN values its fixed cost, about 0.15 ms,
# outweighs its saving over the C encoder, 0.3-0.5 us a value.
_BLOCK = 8192
_KERNEL_MIN = 512


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


def write_report(doc: dict, out: str | None) -> None:
    """Write ``doc`` as it is encoded: to stdout, or through a temp file
    that replaces ``out`` only once the whole report is written."""
    chunks = itertools.chain(_chunks(doc), ["\n"])
    if out is None:
        for chunk in chunks:
            sys.stdout.write(chunk)
        return
    directory = os.path.dirname(os.path.abspath(out))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, out)
    except OSError as err:
        raise ParseError(f"cannot write {out}: {err.strerror or err}") from err
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _meta(schema: str, tol: Tolerances = DEFAULT_TOL) -> dict:
    """Report header; ``schema`` is ``kind/version``, versioned per kind."""
    return {
        "schema": f"{SCHEMA_PREFIX}.{schema}",
        "version": __version__,
        "tolerances": {
            "eps_zero": tol.eps_zero,
            "eps_psd": EPS_PSD,
            "sym_tol": SYM_TOL,
        },
    }


def _witness_dict(w) -> dict | None:
    """Report form of a verdict's witness: a NoSignature or an MMatrixFailure."""
    if w is None:
        return None
    if isinstance(w, NoSignature):
        return {
            "kind": "no_signature",
            "reason": w.reason,
            "entry": list(w.index),
            "value": w.value,
            "cycle": list(w.cycle) if w.cycle is not None else None,
        }
    return {
        "kind": "m_matrix_failure",
        "reason": w.reason,
        "entry": list(w.index) if w.index is not None else None,
        "value": w.value,
    }


def cmd_check(args) -> int:
    tol = Tolerances(eps_zero=args.eps)
    cov = covariance(load_matrix(args.input, args.format))
    cls = classify_green(cov, tol)
    margins = cls.verdict.margins
    signature = cls.verdict.signature
    witness = _witness_dict(cls.verdict.witness)
    # The relaxed verdict is read off the working classification where it
    # can be; otherwise the covariance is classified again, after the
    # working certificate (an n x n matrix) is released.  A band capped at
    # or below --eps is --eps.
    relaxed_eps = min(INDETERMINATE_FACTOR * args.eps, 0.5)
    kind = relaxed = cls.kind
    if relaxed_eps > args.eps:
        wider = Tolerances(eps_zero=relaxed_eps)
        relaxed = relaxed_kind(cov, cls, wider)
        if relaxed is None:
            del cls
            relaxed = classify_green(cov, wider).kind
    verdict = kind if kind == relaxed else "indeterminate"

    doc = _meta("check/2", tol)
    doc.update(
        {
            "command": "check",
            "input": os.path.basename(args.input),
            "n": cov.G.shape[0],
            "verdict": verdict,
            "verdict_at_relaxed_tolerance": relaxed,
            "signature": signature.signs if signature is not None else None,
            "witness": witness,
            "margins": margins,
        }
    )
    write_report(doc, args.out)
    print(f"check: verdict={verdict} (n={cov.G.shape[0]})", file=sys.stderr)
    return 0 if verdict != "indeterminate" else 2


def cmd_decompose(args) -> int:
    tol = Tolerances(eps_zero=args.eps)
    doc = _meta("decomposition/3", tol)
    doc["command"] = "decompose"
    try:
        dec = decompose(load_matrix(args.input, args.format), tol)
    except NotInfinitelyDivisibleError as err:
        witness = _witness_dict(err.witness)
        doc.update({"verdict": "not_id", "witness": witness})
        write_report(doc, args.out)
        print(f"decompose: not infinitely divisible: {witness}", file=sys.stderr)
        return 3
    doc.update(
        {
            "verdict": "id",
            "signature": dec.signature.signs,
            "u": dec.u,
            "c": dec.c,
            "T": dec.T,
            "kappa": dec.kappa,
            "reconstruction_error": dec.reconstruction_error,
        }
    )
    write_report(doc, args.out)
    print(f"decompose: c={dec.c:.6g}, max row sum="
          f"{float(dec.T.sum(axis=1).max()):.6g}", file=sys.stderr)
    return 0


def _chain_from_doc(path: str) -> ChainSpec:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as err:
        raise ParseError(f"cannot read chain from {path}: {err}") from err
    try:
        T = np.asarray(doc["T"], dtype=float)
        kappa = np.asarray(doc["kappa"], dtype=float)
        c = float(doc.get("c", 1.0))
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ParseError(f"{path}: missing or malformed chain fields: {err}") from err
    return ChainSpec(T=T, kappa=kappa, c=c)


def cmd_simulate(args) -> int:
    chain = _chain_from_doc(args.input)
    runner = simulate_ct_green if args.ct else simulate_green
    report = runner(chain, n_paths=args.paths, seed=args.seed)
    doc = _meta("simreport/1")
    doc.update(
        {
            "command": "simulate",
            "kind": "occupation" if args.ct else "visits",
            "c": chain.c,
        }
    )
    doc.update(report.to_dict())
    write_report(doc, args.out)
    print(f"simulate: {args.paths} paths/state, overflow={report.overflow}",
          file=sys.stderr)
    return 0


def cmd_laplace(args) -> int:
    G = load_matrix(args.input, args.format)
    try:
        t = np.asarray([float(v) for v in args.t.split(",")], dtype=float)
    except ValueError as err:
        raise ParseError(f"bad --t: {err}") from err
    exact, mc = laplace(G, t, n_samples=args.samples, seed=args.seed)
    doc = _meta("laplace/1")
    doc.update({"command": "laplace", "t": t, "exact": exact})
    if mc is not None:
        gap = abs(mc.estimate - exact)
        # stderr 0 (one sample, or all values equal) gives no count for a gap.
        sigma = gap / mc.stderr if mc.stderr > 0 else (None if gap else 0.0)
        doc["mc"] = mc.to_dict()
        doc["sigmas_from_exact"] = sigma
    write_report(doc, args.out)
    print(f"laplace: exact={exact:.6g}", file=sys.stderr)
    return 0


def _parse_grid(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def cmd_zoo(args) -> int:
    params: dict = {}
    if args.family == "fbm":
        if args.grid is None or args.beta is None:
            raise ParseError("family fbm needs --grid and --beta")
        grid = _parse_grid(args.grid)
        G = fbm_cov(grid, args.beta)
        params = {"grid": grid, "beta": args.beta}
    elif args.family == "brownian":
        if args.grid is None:
            raise ParseError("family brownian needs --grid")
        grid = _parse_grid(args.grid)
        G = brownian_cov(grid)
        params = {"grid": grid}
    elif args.family == "sheet":
        if args.points is None:
            raise ParseError("family sheet needs --points 'x1,s1;x2,s2;...'")
        pts = [tuple(float(v) for v in p.split(",")) for p in args.points.split(";") if p.strip()]
        G = sheet_cov(pts)
        params = {"points": [list(p) for p in pts]}
    elif args.family == "counterexample":
        pts, G = sheet_counterexample()
        params = {"points": pts.tolist()}
    elif args.family == "random-green":
        chain, G = random_green(args.n, args.seed, symmetric=True)
        params = {"n": args.n, "seed": args.seed, "c": chain.c}
    else:
        raise ParseError(f"unknown family {args.family!r}")
    if args.scale is not None:
        d = _parse_grid(args.scale)
        G = scale_conjugate(G, d)
        params["scale"] = d
    doc = _meta("matrix/1")
    doc.update(
        {
            "command": "zoo",
            "family": args.family,
            "params": params,
            "n": G.shape[0],
            "entries": G,
        }
    )
    write_report(doc, args.out)
    print(f"zoo: {args.family} n={G.shape[0]}", file=sys.stderr)
    return 0


def default_sweep_grids() -> list[list[float]]:
    """Deterministic grid family used when --grids is not given."""
    grids = [[float(v) for v in range(1, k + 1)] for k in range(2, 7)]
    grids += [
        [1.0, 2.0, 4.0, 8.0],
        [0.5, 1.0, 2.0, 4.0, 8.0],
        [1.0, 1.5, 2.0, 2.5, 3.0, 3.5],
        [0.25, 0.75, 2.0, 5.0, 9.5],
    ]
    return grids


def cmd_sweep(args) -> int:
    if args.family != "fbm":
        raise ParseError("sweep supports --family fbm only")
    tol = Tolerances(eps_zero=args.eps)
    betas = [float(v) for v in args.betas.split(",")]
    if args.grids is not None:
        grids = [_parse_grid(g) for g in args.grids.split(";") if g.strip()]
    else:
        grids = default_sweep_grids()

    rows = []
    summary: dict[str, dict] = {}
    for beta in betas:
        counts = {"id": 0, "not_id": 0}
        first_witness = None
        for grid in grids:
            verdict = is_id_square(fbm_cov(grid, beta), tol)
            key = "id" if verdict.is_id else "not_id"
            counts[key] += 1
            rows.append({"beta": beta, "grid": grid, "verdict": key})
            if key == "not_id" and first_witness is None:
                first_witness = {
                    "grid": grid,
                    "witness": _witness_dict(verdict.witness),
                }
        summary[str(beta)] = {
            "id": counts["id"],
            "not_id": counts["not_id"],
            "first_not_id": first_witness,
        }
    doc = _meta("sweep/1", tol)
    doc.update(
        {"command": "sweep", "family": "fbm", "rows": rows, "summary": summary}
    )
    write_report(doc, args.out)
    for beta in betas:
        s = summary[str(beta)]
        print(f"sweep: beta={beta}: id={s['id']} not_id={s['not_id']}",
              file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gaussgreen",
        description=(
            "Decide infinite divisibility of squared Gaussian vectors, "
            "construct the underlying killed Markov chain, and verify by "
            "simulation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True, eps=True):
        if needs_input:
            p.add_argument("--input", required=True, help="matrix file (csv or json)")
            p.add_argument("--format", choices=["csv", "json"], default=None)
        if eps:
            p.add_argument("--eps", type=float, default=DEFAULT_TOL.eps_zero,
                           help="relative zero band for sign decisions")
        p.add_argument("--out", default=None, help="write the JSON report here")

    p = sub.add_parser("check", help="classify a covariance")
    common(p)

    p = sub.add_parser("decompose", help="build the killed-chain decomposition")
    common(p)

    p = sub.add_parser("simulate", help="Monte-Carlo visit counts for a chain file")
    p.add_argument("--input", required=True, help="decomposition/chain JSON")
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ct", action="store_true",
                   help="continuous-time occupation instead of visit counts")
    common(p, needs_input=False, eps=False)

    p = sub.add_parser("laplace", help="determinant formula and Monte-Carlo check")
    common(p, eps=False)
    p.add_argument("--t", required=True, help="comma-separated nonnegative rates")
    p.add_argument("--samples", type=int, default=0,
                   help="Monte-Carlo sample count (0 = exact only)")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("zoo", help="generate a covariance family instance")
    p.add_argument("--family", required=True,
                   choices=["fbm", "brownian", "sheet", "counterexample",
                            "random-green"])
    p.add_argument("--grid", default=None, help="comma-separated 1-d grid")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--points", default=None, help="sheet points 'x,s;x,s;...'")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", default=None,
                   help="comma-separated positive diagonal to conjugate by")
    common(p, needs_input=False, eps=False)

    p = sub.add_parser("sweep", help="verdict table over a parameter sweep")
    p.add_argument("--family", default="fbm")
    p.add_argument("--betas", required=True, help="comma-separated indices")
    p.add_argument("--grids", default=None,
                   help="semicolon-separated comma grids (default: built-in)")
    common(p, needs_input=False)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs more than a small ``check``."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # Looked up per call, so a rebound ``cmd_*`` name is the one that runs.
        return globals()[f"cmd_{args.command}"](args)
    except NotPositiveDefiniteError as err:
        print(f"error: input matrix is not positive definite ({err})",
              file=sys.stderr)
        return 1
    except (ParseError, InvalidChainError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return 1
    except (NumericalFailureError, SymmetryViolationError) as err:
        print(f"error: internal numerical failure ({err})", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
