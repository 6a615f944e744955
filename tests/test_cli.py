import dataclasses
import json
import math
import os
import resource
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gaussgreen
from gaussgreen import __version__, cli, criteria, decomposition, linalg, textio
from gaussgreen.cli import default_sweep_grids, load_matrix, main
from gaussgreen.decomposition import NumericalFailureError
from gaussgreen.kernels import brownian_cov, fbm_cov, random_green, sheet_counterexample
from gaussgreen.simulate import ChainSpec, validate_chain
from helpers import MIN_KERNEL, green_from_chain, random_spd, visit_matrix


def write_csv(path, M, header=None):
    lines = [] if header is None else [header]
    lines += [",".join(repr(float(v)) for v in row) for row in np.asarray(M)]
    path.write_text("\n".join(lines) + "\n")


def write_json_matrix(path, M):
    M = np.asarray(M)
    path.write_text(json.dumps({"n": M.shape[0], "entries": M.tolist()}))


def assert_chain_gives(doc, G):
    """``S D_u (I - T)⁻¹ D_u⁻¹ S / c``, rebuilt from a decompose report's
    own fields, is ``G`` within 1e-9 relative."""
    rebuilt = green_from_chain(doc["signature"], doc["u"], doc["c"], doc["T"])
    assert np.abs(rebuilt - G).max() <= 1e-9 * np.abs(G).max()


@pytest.fixture
def min_kernel_csv(tmp_path):
    path = tmp_path / "min_kernel.csv"
    write_csv(path, MIN_KERNEL, header="# running-minimum covariance on 1..3")
    return path


class TestLoadMatrix:
    def test_csv_with_comments_and_blanks(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# header\n\n1.0, 2e-1\n0.2, 1.0  # trailing\n")
        np.testing.assert_allclose(
            load_matrix(str(path)), [[1.0, 0.2], [0.2, 1.0]]
        )

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "m.json"
        write_json_matrix(path, MIN_KERNEL)
        np.testing.assert_array_equal(load_matrix(str(path)), MIN_KERNEL)

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n4,5,6\n")
        from gaussgreen.cli import ParseError

        with pytest.raises(ParseError, match="not square"):
            load_matrix(str(path))


class TestCmdCheck:
    def test_min_kernel_is_green(self, min_kernel_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["check", "--input", str(min_kernel_csv), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "green"
        assert doc["signature"] == [1, 1, 1]
        assert doc["version"] == __version__
        assert doc["tolerances"]["eps_zero"] == 1e-10
        assert doc["margins"]["min_row_sum"] == pytest.approx(0.0, abs=1e-10)

    def test_counterexample_not_id_with_witness(self, tmp_path):
        _, G = sheet_counterexample()
        path = tmp_path / "ce.json"
        write_json_matrix(path, G)
        out = tmp_path / "report.json"
        code = main(["check", "--input", str(path), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "gaussgreen.check/2"
        assert doc["verdict"] == "not_id"
        assert doc["witness"]["kind"] == "no_signature"
        assert doc["witness"]["entry"] == [0, 1]
        # (G⁻¹)_01 = 1/74 on the correlation scale, times sqrt(G_00 G_11)
        assert doc["witness"]["value"] == pytest.approx(np.sqrt(24.0) / 74.0)

    @pytest.mark.parametrize("scale", ["1e5", "131072", "1099511627776"])
    @pytest.mark.parametrize("family", [["--family", "counterexample"],
                                        ["--family", "fbm", "--grid", "1,2,3,4,5,6",
                                         "--beta", "1.5"]], ids=["counterexample", "fbm_1.5"])
    def test_scaled_not_id_keeps_the_unscaled_witness(self, tmp_path, family, scale):
        path, out = tmp_path / "g.json", tmp_path / "report.json"
        n = 4 if family[1] == "counterexample" else 6
        assert main(["zoo", *family, "--scale", ",".join([scale] * n),
                     "--out", str(path)]) == 0
        assert main(["check", "--input", str(path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "not_id"
        assert doc["witness"]["cycle"] == [1, 0, 2]
        assert main(["decompose", "--input", str(path), "--out", str(out)]) == 3

    @pytest.mark.parametrize("beta", [None, "0.5"])
    def test_tiny_scale_id_is_green(self, tmp_path, beta):
        family = ["--family", "brownian"] if beta is None else ["--family", "fbm", "--beta", beta]
        path, out = tmp_path / "g.json", tmp_path / "report.json"
        assert main(["zoo", *family, "--grid", "1,2,3,4,5,6",
                     "--scale", ",".join([repr(2.0**-20)] * 6), "--out", str(path)]) == 0
        assert main(["check", "--input", str(path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["verdict"] == "green"
        assert main(["decompose", "--input", str(path), "--out", str(out)]) == 0
        assert main(["laplace", "--input", str(path), "--t", "1,1,1,1,1,1",
                     "--out", str(out)]) == 0

    def test_non_square_csv_is_input_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n4,5,6\n")
        assert main(["check", "--input", str(path)]) == 1

    def test_garbage_is_input_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("hello,world\n")
        assert main(["check", "--input", str(path)]) == 1

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["check", "--input", str(tmp_path / "nope.csv")]) == 1

    def test_not_pd_is_input_error(self, tmp_path):
        path = tmp_path / "indef.csv"
        write_csv(path, [[1.0, 2.0], [2.0, 1.0]])
        assert main(["check", "--input", str(path)]) == 1

    @pytest.mark.parametrize("command", ["check", "decompose", "laplace"])
    def test_tiny_asymmetric_input_is_not_symmetric(self, tmp_path, capsys, command):
        path = tmp_path / "tiny.csv"
        write_csv(path, 2.0**-40 * np.array([[1.0, 0.5], [0.4, 1.0]]))
        extra = ["--t", "1,1"] if command == "laplace" else []
        assert main([command, "--input", str(path), *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: covariance is not symmetric: ") and err.count("\n") == 1

    def test_borderline_instance_is_indeterminate(self, tmp_path):
        delta = 3e-10  # above eps_zero, below 10 * eps_zero
        A = np.array([[2.0, -1.0, delta], [-1.0, 2.0, -1.0], [delta, -1.0, 1.0]])
        G = np.linalg.inv(A)
        path = tmp_path / "borderline.json"
        write_json_matrix(path, G)
        out = tmp_path / "report.json"
        code = main(["check", "--input", str(path), "--out", str(out)])
        assert code == 2
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "indeterminate"
        assert doc["verdict_at_relaxed_tolerance"] != "not_id"

    def test_bracket_failure_is_a_spectral_gap_witness(self, tmp_path):
        # At this band the signature's S C S has a row sum u_i <= 0, so the
        # certificate's bracket fails before any ratio is formed.
        C = [[1, -0.307, 0.241, -0.114, 0.555],
             [-0.307, 1, -0.428, -0.2, -0.112],
             [0.241, -0.428, 1, 0.56, 0.199],
             [-0.114, -0.2, 0.56, 1, 0.036],
             [0.555, -0.112, 0.199, 0.036, 1]]
        path, out = tmp_path / "c.csv", tmp_path / "report.json"
        write_csv(path, C)
        witness = {"kind": "m_matrix_failure", "reason": "spectral_gap",
                   "entry": None, "value": None}
        assert main(["check", "--input", str(path), "--eps", "0.45", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert (doc["verdict"], doc["witness"]) == ("not_id", witness)
        assert main(["decompose", "--input", str(path), "--eps", "0.45", "--out", str(out)]) == 3
        assert json.loads(out.read_text())["witness"] == witness

    def test_negative_conjugated_covariance_is_an_entry_witness(self, tmp_path):
        # Brownian on (1, 1 + 1e-9, 2), third sign flipped: at eps 1e-6 the
        # coupling of the last two points hides below the band of C⁻¹, so
        # the signature leaves S C S a -sqrt(1/2) entry there.
        path, out = tmp_path / "close.csv", tmp_path / "report.json"
        path.write_text("1.0,1.0,-1.0\n1.0,1.000000001,-1.000000001\n"
                        "-1.0,-1.000000001,2.0\n")
        witness = {"kind": "no_signature", "reason": "entry", "entry": [1, 2],
                   "value": pytest.approx(-0.7071067815401009, rel=1e-12),
                   "cycle": None}
        argv = ["--input", str(path), "--eps", "1e-6", "--out", str(out)]
        assert main(["check", *argv]) == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == doc["verdict_at_relaxed_tolerance"] == "not_id"
        assert doc["witness"] == witness
        assert set(doc["margins"]) == {"witness_value", "zero_threshold"}
        assert main(["decompose", *argv]) == 3
        assert json.loads(out.read_text())["witness"] == witness

    def test_format_reads_json_under_any_name(self, tmp_path):
        src, txt = tmp_path / "m.json", tmp_path / "m.txt"
        assert main(["zoo", "--family", "fbm", "--grid", "1,2,3", "--beta", "0.5",
                     "--out", str(src)]) == 0
        txt.write_bytes(src.read_bytes())
        assert main(["check", "--input", str(txt)]) == 1
        reports = []
        for path, extra in ((src, []), (txt, ["--format", "json"])):
            out = tmp_path / f"{path.stem}_{path.suffix[1:]}_check.json"
            assert main(["check", "--input", str(path), *extra, "--out", str(out)]) == 0
            doc = json.loads(out.read_text())
            assert doc.pop("input") == path.name
            reports.append(doc)
        assert reports[0] == reports[1]

    def test_byte_identical_reports(self, min_kernel_csv, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["check", "--input", str(min_kernel_csv), "--out", str(out1)])
        main(["check", "--input", str(min_kernel_csv), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestCmdDecompose:
    def test_min_kernel_fields(self, min_kernel_csv, tmp_path):
        out = tmp_path / "dec.json"
        code = main(["decompose", "--input", str(min_kernel_csv), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["c"] == pytest.approx(2.0)
        np.testing.assert_allclose(
            np.sum(doc["T"], axis=1), [5.0 / 6.0, 9.0 / 10.0, 11.0 / 12.0]
        )
        assert_chain_gives(doc, MIN_KERNEL)
        assert doc["signature"] == [1, 1, 1]

    @pytest.mark.parametrize(
        "G", [MIN_KERNEL, fbm_cov(np.arange(1.0, 51.0), 0.5)], ids=["min_kernel", "fbm_half_n50"]
    )
    def test_report_holds_the_chain_not_g(self, G, tmp_path):
        # g is derivable, so the report leaves it out; both documented
        # rebuilds must give the library's g.
        path, out = tmp_path / "g.json", tmp_path / "dec.json"
        write_json_matrix(path, G)
        assert main(["decompose", "--input", str(path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert sorted(doc) == ["T", "c", "command", "kappa", "schema", "signature",
                               "tolerances", "u", "verdict", "version"]
        assert doc["schema"] == "gaussgreen.decomposition/4"
        g = visit_matrix(G, decomposition.decompose(G))
        T, u, c = np.asarray(doc["T"]), np.asarray(doc["u"]), doc["c"]
        s = np.asarray(doc["signature"], dtype=float)
        from_chain = np.linalg.inv(np.eye(len(T)) - T)
        from_input = c * (s[:, None] * G * s) * u / u[:, None]
        for rebuilt in (from_chain, from_input):
            assert np.abs(rebuilt - g).max() <= 1e-10 * np.abs(g).max()

    def test_identity_gives_zero_transitions(self, tmp_path):
        path = tmp_path / "eye.csv"
        write_csv(path, np.eye(3))
        out = tmp_path / "dec.json"
        assert main(["decompose", "--input", str(path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert np.abs(np.asarray(doc["T"])).max() == 0.0

    @pytest.mark.parametrize(
        "G, code",
        [(brownian_cov(np.arange(1.0, 13.0)), 0), (fbm_cov([1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 0)]
        + [(fbm_cov(np.arange(1.0, n + 1), 1.5), 4) for n in (4, 7, 15)]
        + [(sheet_counterexample()[1], 4)],
        ids=["brownian12", "fbm_half", "fbm_1.5_n4", "fbm_1.5_n7", "fbm_1.5_n15", "counterexample"],
    )
    def test_wide_band_writes_only_valid_chains(self, G, code, tmp_path):
        # Killing probabilities below the band are valid, not a failure.  But
        # the band also reads positive off-diagonals of the inverse as zeros,
        # whose chain would hold negative T: decompose must not write it.
        path, out = tmp_path / "g.json", tmp_path / "dec.json"
        write_json_matrix(path, G)
        assert main(["decompose", "--input", str(path), "--eps", "0.3", "--out", str(out)]) == code
        if code:
            assert not out.exists()
            return
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "id"
        validate_chain(ChainSpec(np.asarray(doc["T"]), np.asarray(doc["kappa"]), doc["c"]))
        assert min(doc["kappa"]) > 0.0
        assert_chain_gives(doc, G)

    def test_counterexample_exits_three(self, tmp_path):
        _, G = sheet_counterexample()
        path = tmp_path / "ce.json"
        write_json_matrix(path, G)
        out = tmp_path / "dec.json"
        code = main(["decompose", "--input", str(path), "--out", str(out)])
        assert code == 3
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "not_id"
        assert doc["schema"] == "gaussgreen.decomposition/4"
        assert doc["witness"]["entry"] == [0, 1]


class TestCmdSimulate:
    def test_round_trip_against_decomposition(self, min_kernel_csv, tmp_path):
        dec_path = tmp_path / "dec.json"
        main(["decompose", "--input", str(min_kernel_csv), "--out", str(dec_path)])
        rep_path = tmp_path / "rep.json"
        code = main([
            "simulate", "--input", str(dec_path), "--paths", "20000",
            "--seed", "5", "--out", str(rep_path),
        ])
        assert code == 0
        rep = json.loads(rep_path.read_text())
        dec = json.loads(dec_path.read_text())
        estimate = np.asarray(rep["estimate"])
        stderr = np.asarray(rep["stderr"])
        T = np.asarray(dec["T"])
        g = np.linalg.inv(np.eye(T.shape[0]) - T)
        assert float((np.abs(estimate - g) / stderr).max()) < 3.0
        assert rep["kind"] == "visits"
        assert "elapsed" not in rep

    def test_continuous_time_kind(self, min_kernel_csv, tmp_path):
        dec_path = tmp_path / "dec.json"
        main(["decompose", "--input", str(min_kernel_csv), "--out", str(dec_path)])
        rep_path = tmp_path / "rep.json"
        code = main([
            "simulate", "--input", str(dec_path), "--paths", "20000",
            "--seed", "5", "--ct", "--out", str(rep_path),
        ])
        assert code == 0
        rep = json.loads(rep_path.read_text())
        dec = json.loads(dec_path.read_text())
        estimate = np.asarray(rep["estimate"])
        stderr = np.asarray(rep["stderr"])
        T = np.asarray(dec["T"])
        target = np.linalg.inv(np.eye(T.shape[0]) - T) / dec["c"]
        assert float((np.abs(estimate - target) / stderr).max()) < 3.5
        assert rep["kind"] == "occupation"

    def test_malformed_chain_is_input_error(self, tmp_path, capsys):
        # Each file is refused before a path is drawn: exit 1, one error
        # line naming the file, and no report.
        path, out = tmp_path / "chain.json", tmp_path / "rep.json"
        chain = '{"T": [[0.5]], "kappa": [0.5], "c": %s}'
        cases = [
            (None, f"cannot read chain from {path}: [Errno 2] No such file or directory"),
            ("not json", f"cannot read chain from {path}: Expecting value: line 1 column 1"),
            ("[1]", f"{path}: expected an object with 'T' and 'kappa' fields\n"),
            ("1", f"{path}: expected an object with 'T' and 'kappa' fields\n"),
            (json.dumps({"T": [[0.5]]}), f"{path}: missing or malformed chain fields: 'kappa'"),
            (chain % "true", f"{path}: c must be a number, got True\n"),
            (chain % '"2"', f"{path}: c must be a number, got '2'\n"),
            (chain % "null", f"{path}: c must be a number, got None\n"),
            (chain % "[2]", f"{path}: c must be a number, got [2]\n"),
            (chain % '{"c": 2}', f"{path}: c must be a number, got {{'c': 2}}\n"),
        ]
        for text, message in cases:
            if text is not None:
                path.write_text(text)
            assert main(["simulate", "--input", str(path), "--out", str(out)]) == 1, text
            err = capsys.readouterr().err
            assert err.startswith("error: " + message), err
            assert err.count("\n") == 1 and err.count("error:") == 1, err
            assert not out.exists()
        path.write_text(chain % "2")
        assert main(["simulate", "--input", str(path), "--paths", "10", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["c"] == 2.0

    def test_byte_identical_reports(self, min_kernel_csv, tmp_path):
        dec_path = tmp_path / "dec.json"
        main(["decompose", "--input", str(min_kernel_csv), "--out", str(dec_path)])
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            main(["simulate", "--input", str(dec_path), "--paths", "5000",
                  "--seed", "11", "--out", str(out)])
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("ct", [False, True], ids=["visits", "occupation"])
    def test_decomposition_2_file_gives_the_same_report(self, min_kernel_csv, tmp_path, ct):
        # A decomposition/3 file is the /4 document plus reconstruction_error,
        # and a /2 file is that plus g; simulate reads neither field nor the
        # schema.
        new = tmp_path / "dec4.json"
        main(["decompose", "--input", str(min_kernel_csv), "--out", str(new)])
        doc = json.loads(new.read_text())
        olds = []
        for version, fields in ((3, {"reconstruction_error": 1.1102230246251565e-16}),
                                (2, {"g": visit_matrix(MIN_KERNEL, decomposition.decompose(MIN_KERNEL)).tolist()})):
            doc.update(schema=f"gaussgreen.decomposition/{version}", **fields)
            olds.append(tmp_path / f"dec{version}.json")
            olds[-1].write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        reports = []
        for dec_path in (new, *olds):
            out = tmp_path / f"sim_{dec_path.stem}.json"
            argv = ["simulate", "--input", str(dec_path), "--paths", "5000", "--seed", "11",
                    "--out", str(out)]
            assert main(argv + ["--ct"] * ct) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1] == reports[2]


class TestCmdLaplace:
    def test_exact_identity_case(self, tmp_path):
        path = tmp_path / "eye.csv"
        write_csv(path, np.eye(2))
        out = tmp_path / "lap.json"
        code = main(["laplace", "--input", str(path), "--t", "1,1",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["exact"] == pytest.approx(0.5)
        assert "mc" not in doc

    def test_monte_carlo_agrees(self, min_kernel_csv, tmp_path):
        out = tmp_path / "lap.json"
        code = main(["laplace", "--input", str(min_kernel_csv),
                     "--t", "1,0.5,0.25", "--samples", "50000",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["sigmas_from_exact"] < 3.0

    def test_one_sample_off_exact_has_no_sigma_count(self, tmp_path):
        path = tmp_path / "eye.csv"
        write_csv(path, np.eye(2))
        out = tmp_path / "lap.json"
        argv = ["laplace", "--input", str(path), "--out", str(out)]
        assert main(argv + ["--t", "1,1", "--samples", "1"]) == 0
        doc = json.loads(out.read_text())
        assert doc["mc"]["stderr"] == 0.0 and doc["mc"]["estimate"] != doc["exact"]
        assert doc["sigmas_from_exact"] is None
        # Zero rates make every value 1, equal to exact: 0 sigmas.
        assert main(argv + ["--t", "0,0", "--samples", "1"]) == 0
        doc = json.loads(out.read_text())
        assert doc["mc"]["estimate"] == doc["exact"] == 1.0
        assert doc["sigmas_from_exact"] == 0.0

    def test_overflowing_rates_print_no_warning(self, tmp_path):
        path = tmp_path / "big.csv"
        write_csv(path, [[1e10, 1e9], [1e9, 1e10]])
        src = str(Path(gaussgreen.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "gaussgreen.cli", "laplace",
             "--input", str(path), "--t", "1e300,1e300", "--samples", "100",
             "--out", str(tmp_path / "lap.json")],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr
        assert proc.stderr.startswith("laplace: exact=")

    def test_tiny_scale_covariance_accepted(self, tmp_path):
        path, out = tmp_path / "tiny.csv", tmp_path / "lap.json"
        write_csv(path, 1e-13 * np.eye(2))
        assert main(["laplace", "--input", str(path), "--t", "1,1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["exact"] == pytest.approx(1.0, rel=1e-12)

    def test_overflowing_rates_write_valid_json(self, tmp_path):
        path = tmp_path / "big.csv"
        write_csv(path, [[1e10, 1e9], [1e9, 1e10]])
        out = tmp_path / "lap.json"
        for samples in ("0", "100"):
            assert main(["laplace", "--input", str(path), "--t", "1e300,1e300",
                         "--samples", samples, "--out", str(out)]) == 0
            # NaN or Infinity in the report is not JSON: fail on either.
            doc = json.loads(out.read_text(), parse_constant=pytest.fail)
            assert math.isfinite(doc["exact"]) and 0.0 <= doc["exact"] <= 1.0

    def test_bad_rates_is_input_error(self, min_kernel_csv):
        assert main(["laplace", "--input", str(min_kernel_csv), "--t", "1,x"]) == 1
        assert main(["laplace", "--input", str(min_kernel_csv), "--t=-1,0,0"]) == 1

    def test_nan_rates_are_input_error(self, tmp_path):
        path = tmp_path / "eye.csv"
        write_csv(path, np.eye(2))
        out = tmp_path / "lap.json"
        src = str(Path(gaussgreen.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "gaussgreen.cli", "laplace", "--input", str(path),
             "--t", "nan,1", "--samples", "50", "--out", str(out)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: t contains NaN or Inf entries\n"
        assert not out.exists()


class TestExitCodes:
    def test_invalid_chain_is_input_error_without_traceback(self, tmp_path):
        path = tmp_path / "chain.json"
        src = str(Path(gaussgreen.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        # The second chain is a valid substochastic chain whose state 0
        # never dies: I - T is singular, so no bound on rho(T) < 1 exists,
        # and state 0 is named as a closed class.
        for chain, message in [
            ({"T": [[0.6, 0.6], [0.1, 0.1]], "kappa": [-0.2, 0.8], "c": 1.0},
             "negative killing probability"),
            ({"T": [[1, 0], [0, 0.5]], "kappa": [0, 0.5], "c": 1},
             "states (0) form a closed class: rho(T) = 1"),
        ]:
            path.write_text(json.dumps(chain))
            proc = subprocess.run(
                [sys.executable, "-m", "gaussgreen.cli", "simulate", "--input", str(path)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 1
            assert "Traceback" not in proc.stderr
            assert message in proc.stderr
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_numerical_failure_exits_four(self, min_kernel_csv, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise NumericalFailureError("forced")

        monkeypatch.setattr(cli, "decompose", fail)
        assert main(["decompose", "--input", str(min_kernel_csv)]) == 4
        assert "internal numerical failure (forced)" in capsys.readouterr().err

    def test_uncertified_transience_exits_four(self, tmp_path, capsys):
        # Brownian on 1..4 scaled by 2^(-2, -28, -12, -8): the chain's T has
        # rho = 1 - 1.1e-16, too close to 1 for double precision to certify.
        mat = tmp_path / "bm.json"
        assert main(["zoo", "--family", "brownian", "--grid", "1,2,3,4", "--scale",
                     "0.25,3.725290298461914e-09,0.000244140625,0.00390625",
                     "--out", str(mat)]) == 0
        capsys.readouterr()
        out = tmp_path / "dec.json"
        assert main(["decompose", "--input", str(mat), "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            "error: internal numerical failure "
            "(cannot certify spectral radius of T below 1)\n")
        assert not out.exists()

    def test_impossible_allocation_is_input_error(self, min_kernel_csv, tmp_path):
        # Each size asks numpy for petabytes in one array; the address-space
        # limit makes that fail at once on any host, before anything is used.
        chain = tmp_path / "dec.json"
        assert main(["decompose", "--input", str(min_kernel_csv), "--out", str(chain)]) == 0
        src = str(Path(gaussgreen.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        limit = 4 << 30

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        out = tmp_path / "rep.json"
        for argv in (["zoo", "--family", "random-green", "--n", "100000000"],
                     ["laplace", "--input", str(min_kernel_csv), "--t", "1,1,1",
                      "--samples", "100000000000000"],
                     ["simulate", "--input", str(chain), "--paths", "100000000000000"]):
            proc = subprocess.run(
                [sys.executable, "-m", "gaussgreen.cli", *argv, "--out", str(out)],
                capture_output=True, text=True, env=env, timeout=120,
                preexec_fn=limit_address_space,
            )
            assert proc.returncode == 1, proc.stderr
            assert proc.stderr.startswith("error: Unable to allocate "), proc.stderr
            assert proc.stderr.count("\n") == 1, proc.stderr
            assert not out.exists()

    @pytest.mark.parametrize("rate", ["NaN", "Infinity"])
    def test_non_finite_chain_rate_is_input_error(self, tmp_path, capsys, rate):
        path = tmp_path / "chain.json"
        path.write_text('{"T": [[0.5]], "kappa": [0.5], "c": %s}' % rate)
        out = tmp_path / "rep.json"
        for extra in ([], ["--ct"]):
            argv = ["simulate", "--input", str(path), "--paths", "10", "--out", str(out)]
            assert main(argv + extra) == 1
            assert "rate c must be finite and positive" in capsys.readouterr().err
            assert not out.exists()

    def test_negative_samples_is_input_error(self, min_kernel_csv, tmp_path, capsys):
        out = tmp_path / "lap.json"
        argv = ["laplace", "--input", str(min_kernel_csv), "--t", "1,1,1", "--out", str(out)]
        assert main(argv + ["--samples", "-5"]) == 1
        assert capsys.readouterr().err == "error: n_samples must be nonnegative, got -5\n"
        assert not out.exists()
        assert main(argv + ["--samples", "0"]) == 0
        assert "mc" not in json.loads(out.read_text())

    def test_nonpositive_laplace_determinant_is_input_error(self, tmp_path, capsys):
        # det(I + G diag(t)) is -5 for the first G and 1.17 for the second:
        # neither G is a covariance, with or without samples.
        path = tmp_path / "indef.csv"
        out = tmp_path / "lap.json"
        for G, t, pivot in [([[1.0, 3.0], [3.0, 1.0]], "1,1", "-8.000e+00"),
                            ([[1.0, 2.0], [2.0, 1.0]], "0.1,0.1", "-3.000e+00")]:
            write_csv(path, G)
            for samples in ("0", "10"):
                assert main(["laplace", "--input", str(path), "--t", t,
                             "--samples", samples, "--out", str(out)]) == 1
                assert capsys.readouterr().err == (
                    "error: input matrix is not positive definite "
                    f"(matrix is not positive definite: pivot 1 is {pivot})\n")
                assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--input", "c.json", "--eps", "0.3"],
         "gaussgreen: unrecognized arguments: --eps 0.3"),
        (["check"], "gaussgreen check: the following arguments are required: --input"),
        (["laplace", "--input", "g.csv", "--t", "1", "--samples", "x"],
         "gaussgreen laplace: argument --samples: invalid int value: 'x'"),
        ([], "gaussgreen: the following arguments are required: command"),
    ])
    def test_usage_error_is_input_error(self, argv, message, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["check", "--help"])
        assert exit_.value.code == 0
        assert "--input" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["check", "decompose"])
    def test_unwritable_out_is_input_error_without_traceback(self, command, tmp_path,
                                                              min_kernel_csv):
        src = str(Path(gaussgreen.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        (tmp_path / "taken").mkdir()
        for out, reason in ((tmp_path / "missing" / "r.json", "No such file or directory"),
                            (tmp_path / "taken", "Is a directory")):
            proc = subprocess.run(
                [sys.executable, "-m", "gaussgreen.cli", command, "--input",
                 str(min_kernel_csv), "--out", str(out)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 1
            assert proc.stderr == f"error: cannot write {out}: {reason}\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["min_kernel.csv", "taken"]


def test_check_and_decompose_factor_once(tmp_path, monkeypatch):
    # One Cholesky factor serves every test, and no LU solve runs: the
    # verdict's certificate reads u = S C S 𝟙 and the chain's reads g 𝟙.
    calls = {}
    for name in ("cholesky", "solve"):
        def counted(*args, _name=name, _orig=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    inputs = {"id": fbm_cov([1.0, 2.0, 3.0, 4.0, 5.0], 0.5),
              "not_id": sheet_counterexample()[1]}
    for label, G in inputs.items():
        path = tmp_path / f"{label}.json"
        write_json_matrix(path, G)
        for command in ("check", "decompose"):
            calls.update(cholesky=0, solve=0)
            main([command, "--input", str(path), "--out", str(tmp_path / "out.json")])
            assert calls == {"cholesky": 1, "solve": 0}, (label, command)


def _same(a, b):
    """Field-by-field equality of results, arrays compared entrywise."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def test_library_calls_on_one_covariance_factor_once(monkeypatch):
    calls = []
    cholesky = np.linalg.cholesky

    def counted_cholesky(*args, **kwargs):
        calls.append(1)
        return cholesky(*args, **kwargs)

    functions = (criteria.find_signature, criteria.is_id_square, criteria.classify_green,
                 decomposition.decompose)
    G = fbm_cov([1.0, 2.0, 3.0, 4.0, 5.0], 0.5)
    from_array = [f(G) for f in functions]
    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    cov = linalg.covariance(G)
    assert linalg.covariance(cov) is cov
    from_cov = [f(cov) for f in functions]
    assert len(calls) == 1
    for ours, ref in zip(from_cov, from_array):
        assert _same(ours, ref), type(ref).__name__


def test_check_and_decompose_validate_the_input_once(tmp_path, monkeypatch):
    calls = []
    for owner in (linalg, cli, criteria, decomposition):
        for attr in ("as_covariance", "as_square_matrix"):
            if hasattr(owner, attr):
                def counted(M, *args, _orig=getattr(owner, attr), _attr=attr, **kwargs):
                    calls.append((_attr, id(M)))
                    return _orig(M, *args, **kwargs)

                monkeypatch.setattr(owner, attr, counted)
    path = tmp_path / "g.json"
    write_json_matrix(path, fbm_cov([1.0, 2.0, 3.0, 4.0, 5.0], 0.5))
    for command in ("check", "decompose"):
        calls.clear()
        assert main([command, "--input", str(path), "--out", str(tmp_path / "out.json")]) == 0
        # One symmetry scan of the loaded covariance, with the finiteness
        # scan inside it; invert then checks the Cholesky factor.
        loaded = calls[0][1]
        assert calls[0][0] == "as_covariance"
        assert [c for c in calls if c[0] == "as_covariance"] == [calls[0]], command
        assert calls.count(("as_square_matrix", loaded)) == 1, command
    # check re-scans neither the inverse nor any other matrix derived from G.
    calls.clear()
    assert main(["check", "--input", str(path), "--out", str(tmp_path / "out.json")]) == 0
    scanned = [m for attr, m in calls if attr == "as_square_matrix"]
    assert len(scanned) == 2 and scanned[0] == calls[0][1] != scanned[1]


def test_no_subcommand_imports_scipy(tmp_path):
    script = f"""
import sys
from gaussgreen.cli import main
d = {str(tmp_path)!r}
codes = [
    main(["zoo", "--family", "brownian", "--grid", "1,2,3", "--out", d + "/g.json"]),
    main(["check", "--input", d + "/g.json", "--out", d + "/check.json"]),
    main(["decompose", "--input", d + "/g.json", "--out", d + "/dec.json"]),
    main(["simulate", "--input", d + "/dec.json", "--paths", "100",
          "--out", d + "/sim.json"]),
    main(["simulate", "--input", d + "/dec.json", "--paths", "100", "--ct",
          "--out", d + "/simct.json"]),
    main(["laplace", "--input", d + "/g.json", "--t", "1,1,1", "--samples", "100",
          "--out", d + "/lap.json"]),
    main(["sweep", "--betas", "0.5", "--grids", "1,2,3", "--out", d + "/sweep.json"]),
]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = str(Path(gaussgreen.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0, 0, 0, 0] []"


def test_cached_parser_leaks_no_flags(tmp_path, min_kernel_csv, monkeypatch):
    builds = []

    def counted():
        builds.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    dec = tmp_path / "dec.json"
    main(["decompose", "--input", str(min_kernel_csv), "--out", str(dec)])
    runs = [
        ["check", "--input", str(min_kernel_csv)],
        ["simulate", "--input", str(dec), "--paths", "300", "--ct"],
        ["simulate", "--input", str(dec), "--paths", "300"],
        ["laplace", "--input", str(min_kernel_csv), "--t", "1,0.5,0.25",
         "--samples", "100"],
        ["laplace", "--input", str(min_kernel_csv), "--t", "1,0.5,0.25"],
    ]
    src = str(Path(gaussgreen.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    for k, argv in enumerate(runs):
        fresh = tmp_path / f"fresh{k}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "gaussgreen.cli", *argv, "--out", str(fresh)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
    for k, argv in enumerate(runs):
        shared = tmp_path / f"shared{k}.json"
        assert main(argv + ["--out", str(shared)]) == 0
        assert shared.read_bytes() == (tmp_path / f"fresh{k}.json").read_bytes(), argv
    assert len(builds) == 1


@pytest.mark.parametrize("argv", [
    ["simulate", "--input", "unread.json"],
    ["laplace", "--input", "unread.csv", "--t", "1"],
    ["zoo", "--family", "counterexample"],
])
def test_eps_only_where_a_tolerance_is_read(argv):
    _, unknown = cli.build_parser().parse_known_args(argv + ["--eps", "0.3"])
    assert unknown == ["--eps", "0.3"]


def test_eps_sets_the_reported_tolerance(min_kernel_csv, tmp_path):
    for command in ("check", "decompose"):
        out = tmp_path / f"{command}.json"
        main([command, "--input", str(min_kernel_csv), "--eps", "1e-9", "--out", str(out)])
        assert json.loads(out.read_text())["tolerances"]["eps_zero"] == 1e-9
    out = tmp_path / "sweep.json"
    main(["sweep", "--betas", "0.5", "--grids", "1,2", "--eps", "1e-9", "--out", str(out)])
    assert json.loads(out.read_text())["tolerances"]["eps_zero"] == 1e-9


@pytest.mark.parametrize("eps", ["1e-10", "0.01"])
def test_check_report_tolerances_are_the_band_and_two_constants(min_kernel_csv, tmp_path,
                                                                 eps):
    out = tmp_path / "check.json"
    assert main(["check", "--input", str(min_kernel_csv), "--eps", eps, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["tolerances"] == {
        "eps_psd": 1e-12, "eps_zero": float(eps), "sym_tol": 1e-08}


def record_classify_bands(monkeypatch):
    """The zero bands ``check`` classifies at, in call order."""
    seen = []

    def recording(G, tol):
        seen.append(tol.eps_zero)
        return criteria.classify_green(G, tol)

    monkeypatch.setattr(cli, "classify_green", recording)
    return seen


@pytest.mark.parametrize("eps, bands", [(None, [1e-10]), ("0.3", [0.3]), ("0.9", [0.9])])
def test_check_relaxed_band_is_ten_times_wider_capped_never_narrower(
        min_kernel_csv, tmp_path, monkeypatch, eps, bands):
    seen = record_classify_bands(monkeypatch)
    out = tmp_path / "check.json"
    argv = ["check", "--input", str(min_kernel_csv), "--out", str(out)]
    assert main(argv + (["--eps", eps] if eps else [])) == 0
    # No value the classifier compares lies between the two bands, so the
    # relaxed verdict is read off the one classification at --eps.
    assert seen == bands
    doc = json.loads(out.read_text())
    assert doc["verdict_at_relaxed_tolerance"] == doc["verdict"] == "green"


@pytest.mark.parametrize("eps, bands", [(None, [1e-10, 1e-10, 1e-9]), ("0.3", [0.3, 0.3, 0.5])])
def test_check_takes_three_zero_bands(min_kernel_csv, tmp_path, monkeypatch, eps, bands):
    # The bands of C⁻¹ and of C at --eps, then the relaxed band of C⁻¹, which
    # also serves the sign search at 0.3, where |C⁻¹_01| = √2 lies between
    # the bands.
    seen = []
    zero_threshold = linalg.Tolerances.zero_threshold

    def recorded(self, M):
        seen.append(self.eps_zero)
        return zero_threshold(self, M)

    monkeypatch.setattr(linalg.Tolerances, "zero_threshold", recorded)
    argv = ["check", "--input", str(min_kernel_csv), "--out", str(tmp_path / "check.json")]
    assert main(argv + (["--eps", eps] if eps else [])) == 0
    assert seen == pytest.approx(bands, rel=1e-15)


def _borderline_graph():
    # (C⁻¹)_02 lies between the bands: a contradiction cycle at 1e-10, green at 1e-9.
    delta = 3e-10
    return np.linalg.inv([[2.0, -1.0, delta], [-1.0, 2.0, -1.0], [delta, -1.0, 1.0]])


def _borderline_row_sum():
    # The last row sum of G⁻¹ lies between the bands: id_not_green at 1e-10,
    # green at 1e-9.
    M = np.linalg.inv([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0 - 3e-10]])
    return 0.5 * (M + M.T)


# At 0.03 the signature leaves S C S a -0.15 entry, which the band of 0.3 absorbs.
_BORDERLINE_ENTRY = [[1.0, -0.89, -0.15], [-0.89, 1.0, 0.15], [-0.15, 0.15, 1.0]]
# id_not_green at 0.1 with the signature (1, -1, -1); at 0.5 every edge of
# the sign graph drops out, the signature is trivial and the verdict green.
_BORDERLINE_SIGNATURE = [[1.0, -0.5, -0.4], [-0.5, 1.0, 0.6], [-0.4, 0.6, 1.0]]


@pytest.mark.parametrize("G, eps, relaxed", [
    (_borderline_graph(), 1e-10, "green"),
    (_borderline_row_sum(), 1e-10, "green"),
    (_BORDERLINE_ENTRY, 0.03, "id_not_green"),
    (_BORDERLINE_SIGNATURE, 0.1, "green"),
], ids=["sign_graph", "row_sum", "entry", "signature"])
def test_check_classifies_again_when_a_value_lies_between_the_bands(
        tmp_path, monkeypatch, G, eps, relaxed):
    seen = record_classify_bands(monkeypatch)
    path, out = tmp_path / "g.json", tmp_path / "check.json"
    write_json_matrix(path, G)
    assert main(["check", "--input", str(path), "--eps", str(eps), "--out", str(out)]) == 2
    assert seen == pytest.approx([eps, min(10 * eps, 0.5)], rel=1e-15)
    doc = json.loads(out.read_text())
    assert (doc["verdict"], doc["verdict_at_relaxed_tolerance"]) == ("indeterminate", relaxed)


@pytest.mark.parametrize("G, eps, runs", [
    (sheet_counterexample()[1], 1e-10, 1),
    # The cycle BFS meets first holds the edge (0, 1), which drops out of
    # the relaxed sign graph; the triangle 0-2-3 still contradicts there.
    (np.linalg.inv([[3.0, 0.1, -1.0, 0.5], [0.1, 3.0, -1.0, 0.0],
                    [-1.0, -1.0, 3.0, -1.0], [0.5, 0.0, -1.0, 3.0]]), 0.01, 2),
], ids=["strong_cycle", "cycle_edge_in_band"])
def test_check_keeps_a_cycle_only_when_its_edges_clear_the_relaxed_band(
        tmp_path, monkeypatch, G, eps, runs):
    seen = record_classify_bands(monkeypatch)
    path, out = tmp_path / "g.json", tmp_path / "check.json"
    write_json_matrix(path, G)
    assert main(["check", "--input", str(path), "--eps", str(eps), "--out", str(out)]) == 0
    assert seen == pytest.approx([eps, 10 * eps][:runs], rel=1e-15)
    doc = json.loads(out.read_text())
    assert doc["witness"]["reason"] == "cycle"
    assert doc["verdict"] == doc["verdict_at_relaxed_tolerance"] == "not_id"


@st.composite
def check_inputs(draw):
    """Random SPD, sign-flipped ``random_green`` or fBm covariances, n = 2-8."""
    n = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    family = draw(st.sampled_from(["spd", "green", "fbm"]))
    if family == "spd":
        G = random_spd(n, rng, shift=draw(st.sampled_from([0.05, 0.5])))
    elif family == "green":
        G = random_green(n, seed)[1]
        s = rng.choice([-1.0, 1.0], size=n)
        G = s[:, None] * G * s
    else:
        beta = draw(st.floats(0.01, 1.99))
        G = fbm_cov(np.cumsum(rng.uniform(0.5, 1.5, size=n)), beta)
    return G, draw(st.sampled_from([1e-10, 1e-6, 0.01, 0.3, 0.45]))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=check_inputs())
def test_relaxed_verdict_is_that_of_a_full_run_at_the_relaxed_band(tmp_path, case):
    G, eps = case
    path, out = tmp_path / "g.json", tmp_path / "check.json"
    write_json_matrix(path, G)
    assert main(["check", "--input", str(path), "--eps", str(eps), "--out", str(out)]) in (0, 2)
    cov, wider = linalg.covariance(G), linalg.Tolerances(min(10 * eps, 0.5))
    relaxed = criteria.classify_green(cov, wider).kind
    assert json.loads(out.read_text())["verdict_at_relaxed_tolerance"] == relaxed
    cls = criteria.classify_green(cov, linalg.Tolerances(eps))
    assert criteria.relaxed_kind(cov, cls, wider) in (None, relaxed)


def test_main_dispatches_through_rebound_commands(monkeypatch):
    monkeypatch.setattr(cli, "cmd_check", lambda args: 7)
    assert main(["check", "--input", "unread.csv"]) == 7


def test_report_writer_matches_json_dumps(tmp_path, min_kernel_csv):
    def out(name):
        return str(tmp_path / f"{name}.json")

    runs = {
        "zoo": ["zoo", "--family", "fbm", "--grid", "1,2,3.5", "--beta", "1.5"],
        "zoo_ce": ["zoo", "--family", "counterexample"],
        "check": ["check", "--input", out("zoo")],
        "check_ce": ["check", "--input", out("zoo_ce")],
        "decompose": ["decompose", "--input", str(min_kernel_csv)],
        "decompose_ce": ["decompose", "--input", out("zoo_ce")],
        "simulate": ["simulate", "--input", out("decompose"), "--paths", "200"],
        "laplace": ["laplace", "--input", str(min_kernel_csv), "--t", "1,0.5,0",
                    "--samples", "200"],
        "sweep": ["sweep", "--betas", "0.5,1.5"],
    }
    docs = []
    for name, argv in runs.items():
        main(argv + ["--out", out(name)])
        text = Path(out(name)).read_text()
        docs.append(json.loads(text))
        assert text == json.dumps(docs[-1], indent=2, sort_keys=True) + "\n", name
    docs.append({"b": [], "a": {}, "nested": {"z": [{}, [], [[]]], "y": {"x": None}},
                 "text": ["a, b", "\u00e9\n"], "mixed": [1, 2.5, True, None, (3, 4)],
                 "odd": [float("nan"), float("inf"), -0.0, 1e-300]})
    for doc in docs:
        assert "".join(textio._chunks(doc)) == json.dumps(doc, indent=2, sort_keys=True)
    # ndarrays are written as their lists would be, next to lists.
    arrays = {
        "vector": np.array([0.1, -0.0, 1e300, np.nan]),
        "matrix": np.array([[1.0, 2.5, -3.0], [np.inf, 1e-300, 0.1]]),
        "one": np.array([[7.25]]),
        "ints": np.array([[1, -1], [0, 2]]),
        "signs": np.array([1, -1, 1]),
        "flags": np.array([True, False]),
        "text": np.array(["a, b", "c"]),
        "scalar": np.array(2.5),
        "empty": np.zeros((0, 3)),
        "no_rows": np.zeros(0),
        "rows": [np.array([1.0, 2.0]), np.array([3.0]), [4.0]],
        "nested": {"list": [[1.0, 2.0], [3.0, 4.0]], "array": np.eye(2)},
    }
    # Rows past a block boundary of the float writer, and blocks holding a
    # signed zero (written by the kernel) or a subnormal, NaN and infinity
    # (written by the C encoder).
    rng = np.random.default_rng(7)
    big = rng.standard_normal((100, 100)) * 10.0 ** rng.integers(-20, 20, (100, 100))
    assert big.size > textio._BLOCK
    big[3, 5], big[4, :3] = -0.0, 0.0
    big[90, 1], big[95, 2], big[99, 3], big[99, 4] = 5e-324, np.nan, np.inf, -np.inf
    arrays["big"] = big
    as_lists = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in arrays.items()}
    as_lists["rows"] = [[1.0, 2.0], [3.0], [4.0]]
    as_lists["nested"] = {"list": [[1.0, 2.0], [3.0, 4.0]], "array": np.eye(2).tolist()}
    for key in arrays:
        assert "".join(textio._chunks(arrays[key])) == json.dumps(
            as_lists[key], indent=2, sort_keys=True), key
    assert "".join(textio._chunks(arrays)) == json.dumps(as_lists, indent=2, sort_keys=True)


@pytest.mark.parametrize("command, arrays", [("check", 7), ("decompose", 7), ("simulate", 13)])
def test_peak_memory_is_a_few_matrices(tmp_path, command, arrays):
    # The check and decompose reports hold no n x n list or text; the
    # computation keeps the returned arrays and a few temporaries (peaks of 8
    # and 24 before; 5.0 and 5.2 now, so one bound of 7 also catches a
    # transience certificate that keeps an extra n x n buffer alive).
    # simulate decodes its chain file whole: 12.2 arrays, and 15.2 while
    # decompose reports carried g.
    n = 250
    path = tmp_path / "fbm.csv"
    np.savetxt(path, fbm_cov(np.arange(1.0, n + 1), 0.5), fmt="%.17g", delimiter=",")
    argv = [command, "--out", str(tmp_path / "report.json")]
    if command == "simulate":
        dec_path = tmp_path / "dec.json"
        assert main(["decompose", "--input", str(path), "--out", str(dec_path)]) == 0
        path = dec_path
        argv += ["--paths", "1"]
    argv += ["--input", str(path)]
    assert main(argv) == 0  # imports, caches and the parser are not counted
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arrays * 8 * n * n, peak / (8 * n * n)


@pytest.mark.parametrize("out_exists", [False, True])
def test_failed_write_mid_report_keeps_the_old_report(tmp_path, min_kernel_csv, monkeypatch,
                                                        capsys, out_exists):
    out = tmp_path / "dec.json"
    if out_exists:
        out.write_text("old report\n")
    fdopen = os.fdopen
    chunks = []

    class FailingFile:
        """The report file, whose write fails after the first chunk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            if chunks:
                raise OSError(28, "No space left on device")
            chunks.append(text)
            return self.fh.write(text)

    monkeypatch.setattr(os, "fdopen", lambda *args, **kwargs: FailingFile(fdopen(*args, **kwargs)))
    assert main(["decompose", "--input", str(min_kernel_csv), "--out", str(out)]) == 1
    assert chunks
    assert capsys.readouterr().err == f"error: cannot write {out}: No space left on device\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["dec.json", "min_kernel.csv"] if out_exists else ["min_kernel.csv"])
    if out_exists:
        assert out.read_text() == "old report\n"


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077], ids=oct)
def test_out_report_gets_the_mode_open_gives(tmp_path, min_kernel_csv, umask):
    # The temp file is made 0600; a new report gets 0666 less the umask, as
    # `check > report.json` would give it, and a replaced one keeps its mode.
    new, kept, opened = tmp_path / "new.json", tmp_path / "kept.json", tmp_path / "opened.json"
    kept.write_text("old report\n")
    kept.chmod(0o604)
    old = os.umask(umask)
    try:
        opened.open("w").close()
        for out in (new, kept):
            assert main(["check", "--input", str(min_kernel_csv), "--out", str(out)]) == 0
    finally:
        os.umask(old)
    mode = {p.name: stat.S_IMODE(p.stat().st_mode) for p in (new, kept, opened)}
    assert mode == {"new.json": 0o666 & ~umask, "kept.json": 0o604,
                    "opened.json": 0o666 & ~umask}
    assert kept.read_text() == new.read_text()


class TestCmdZoo:
    def test_fbm(self, tmp_path):
        out = tmp_path / "fbm.json"
        code = main(["zoo", "--family", "fbm", "--grid", "1,2,3",
                     "--beta", "0.5", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        np.testing.assert_allclose(doc["entries"], fbm_cov([1, 2, 3], 0.5))

    def test_brownian_feeds_check(self, tmp_path):
        mat = tmp_path / "bm.json"
        assert main(["zoo", "--family", "brownian", "--grid", "1,2,3,4",
                     "--out", str(mat)]) == 0
        rep = tmp_path / "rep.json"
        assert main(["check", "--input", str(mat), "--out", str(rep)]) == 0
        assert json.loads(rep.read_text())["verdict"] == "green"

    def test_counterexample(self, tmp_path):
        out = tmp_path / "ce.json"
        assert main(["zoo", "--family", "counterexample", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        np.testing.assert_array_equal(doc["entries"], sheet_counterexample()[1])

    def test_sheet_points(self, tmp_path):
        out = tmp_path / "sheet.json"
        code = main(["zoo", "--family", "sheet",
                     "--points", "1,1;2,2;3,3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["entries"][1][1] == 4.0

    def test_random_green_with_scaling(self, tmp_path):
        out = tmp_path / "g.json"
        code = main(["zoo", "--family", "random-green", "--n", "4",
                     "--seed", "3", "--scale", "1,2,1,0.5", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert np.asarray(doc["entries"]).shape == (4, 4)

    def test_missing_params_is_input_error(self):
        assert main(["zoo", "--family", "fbm"]) == 1
        assert main(["zoo", "--family", "sheet"]) == 1

    @pytest.mark.parametrize("argv, message", [
        (["--family", "brownian", "--grid", "1,inf"], "grid points must be finite, got inf"),
        (["--family", "fbm", "--grid", "nan", "--beta", "0.5"],
         "grid points must be finite, got nan"),
        (["--family", "brownian", "--grid", "1,2", "--scale", "1,inf"],
         "scaling entries must be finite, got inf"),
        (["--family", "sheet", "--points", "1,2;3,1e400"],
         "sheet coordinates must be finite, got inf"),
        (["--family", "fbm", "--grid", "0,1,2", "--beta", "0.5"],
         "grid points must be strictly positive"),
    ])
    def test_non_finite_input_is_input_error(self, tmp_path, capsys, argv, message):
        # NaN or Inf would otherwise reach the report as non-JSON tokens; the
        # point 0 would give fBm a zero row.
        out = tmp_path / "m.json"
        assert main(["zoo", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()


class TestCmdSweep:
    def test_dichotomy_summary(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(["sweep", "--family", "fbm", "--betas", "0.5,1.5",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["0.5"]["not_id"] == 0
        assert doc["summary"]["1.5"]["not_id"] >= 1
        assert doc["summary"]["1.5"]["first_not_id"]["grid"] is not None
        n_rows = len(doc["rows"])
        assert n_rows == 2 * len(default_sweep_grids())

    def test_explicit_grids(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(["sweep", "--family", "fbm", "--betas", "0.3",
                     "--grids", "1,2;1,2,3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert {tuple(r["grid"]) for r in doc["rows"]} == {(1.0, 2.0), (1.0, 2.0, 3.0)}

    def test_unknown_family_is_input_error(self):
        assert main(["sweep", "--family", "sheet", "--betas", "0.5"]) == 1


def test_stdout_report_when_no_out(min_kernel_csv, capsys):
    code = main(["check", "--input", str(min_kernel_csv)])
    assert code == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["verdict"] == "green"
    assert "verdict=green" in captured.err
