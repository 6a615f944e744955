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
chain failed its checks or its link to the visit counts).

All reports are JSON with sorted keys; identical configuration produces
byte-identical output (timings never enter reports).  Indices in reports
are 0-based.  The file formats are :mod:`textio`'s, called through the
module; this module picks the format, names a file it cannot read or
write, and writes reports atomically.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile

import numpy as np

from . import __version__, textio
from .criteria import NoSignature, classify_green, is_id_square, relaxed_kind
from .decomposition import NotInfinitelyDivisibleError, NumericalFailureError, decompose
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
from .simulate import InvalidChainError, laplace, simulate_ct_green, simulate_green
from .textio import ParseError

SCHEMA_PREFIX = "gaussgreen"
# check's relaxed zero band: this many times --eps, at most 0.5, and never
# narrower than --eps itself.
INDETERMINATE_FACTOR = 10.0


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1 like every other input error."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def load_matrix(path: str, fmt: str | None = None) -> np.ndarray:
    """The matrix in the file ``path``, read as ``fmt`` (``"csv"`` or
    ``"json"``), by default as JSON for a ``.json`` name and CSV otherwise."""
    if fmt is None:
        fmt = "json" if path.endswith(".json") else "csv"
    try:
        if fmt == "csv":
            return textio.read_csv(path)
        return textio.read_json_matrix(path)
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from err


def write_report(doc: dict, out: str | None) -> None:
    """Write ``doc`` as it is encoded: to stdout, or through a temp file
    that replaces ``out`` only once the whole report is written."""
    chunks = textio.encode_report(doc)
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
    doc = _meta("decomposition/4", tol)
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
        }
    )
    write_report(doc, args.out)
    print(f"decompose: c={dec.c:.6g}, max row sum="
          f"{float(dec.T.sum(axis=1).max()):.6g}", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    try:
        chain = textio.read_chain(args.input)
    except OSError as err:
        raise ParseError(f"cannot read chain from {args.input}: {err}") from err
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
    except NumericalFailureError as err:
        print(f"error: internal numerical failure ({err})", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
