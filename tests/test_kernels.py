import json
import re
from pathlib import Path

import numpy as np
import pytest

from gaussgreen.criteria import classify_green, is_id_square, triple_sufficient
from gaussgreen.kernels import (
    BetaOutOfRangeError,
    NonPositivePointError,
    NonPositiveScaleError,
    QuadratureFailureError,
    adaptive_simpson,
    brownian_cov,
    chi_deltas,
    dyadic_discretize,
    fbm_cov,
    measure_density,
    random_green,
    scale_conjugate,
    sheet_counterexample,
    sheet_cov,
)
from gaussgreen.linalg import cholesky
from gaussgreen.simulate import validate_chain
from helpers import MIN_KERNEL

GOLDEN = Path(__file__).parent / "golden" / "sheet_counterexample.json"


class TestFbmCov:
    def test_critical_index_doubles_min_kernel(self):
        points = [1.0, 2.0, 3.0]
        np.testing.assert_array_equal(fbm_cov(points, 1.0), 2.0 * brownian_cov(points))

    def test_rough_entry_value(self):
        G = fbm_cov([1.0, 2.0], 0.5)
        assert G[0, 1] == pytest.approx(np.sqrt(2.0))  # 1 + sqrt(2) - 1

    def test_positive_definite_on_distinct_points(self):
        for beta in (0.2, 0.8, 1.3, 1.9):
            cholesky(fbm_cov([0.5, 1.0, 2.5, 4.0], beta))

    @pytest.mark.parametrize("beta", [0.0, 2.0, -0.5, 2.5])
    def test_beta_out_of_range(self, beta):
        with pytest.raises(BetaOutOfRangeError):
            fbm_cov([1.0, 2.0], beta)

    def test_zero_point_needs_flag(self):
        with pytest.raises(NonPositivePointError):
            fbm_cov([0.0, 1.0], 0.5)

    @pytest.mark.parametrize("points", [[0.0, 1.0, 2.0], [-1.0, 1.0], [1.0, 1.0],
                                        [2.0, 1.0], [1.0, np.inf], [], [[1.0]]])
    def test_grid_checks_match_brownian(self, points):
        with pytest.raises(ValueError) as brownian:
            brownian_cov(points)
        message = re.escape(str(brownian.value))
        with pytest.raises(type(brownian.value), match=f"^{message}$"):
            fbm_cov(points, 0.5)

    def test_negative_point_rejected(self):
        with pytest.raises(NonPositivePointError):
            fbm_cov([-1.0, 1.0], 0.5)

    def test_duplicates_and_disorder_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            fbm_cov([1.0, 1.0, 2.0], 0.5)
        with pytest.raises(ValueError, match="increasing"):
            fbm_cov([2.0, 1.0], 0.5)
        with pytest.raises(ValueError, match="increasing"):
            brownian_cov([3.0, 1.0, 2.0])

    def test_rough_grids_are_id(self):
        for beta in (0.25, 0.5, 0.75, 1.0):
            assert is_id_square(fbm_cov([1.0, 2.0, 3.0, 4.0], beta)).is_id

    def test_smooth_grid_is_not_id(self):
        assert not is_id_square(fbm_cov([1.0, 2.0, 3.0, 4.0], 1.5)).is_id


class TestBrownianCov:
    def test_integer_grid(self):
        np.testing.assert_array_equal(brownian_cov([1.0, 2.0, 3.0]), MIN_KERNEL)

    def test_single_point(self):
        np.testing.assert_array_equal(brownian_cov([3.0]), [[3.0]])

    def test_near_duplicate_still_definite(self):
        cholesky(brownian_cov([1.0, 1.001]))  # 2x2 determinant is 1e-3

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositivePointError):
            brownian_cov([0.0, 1.0])


class TestSheetCov:
    def test_diagonal_points(self):
        G = sheet_cov([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
        np.testing.assert_array_equal(
            G, [[1.0, 1.0, 1.0], [1.0, 4.0, 4.0], [1.0, 4.0, 9.0]]
        )

    def test_single_point(self):
        np.testing.assert_array_equal(sheet_cov([(2.0, 3.0)]), [[6.0]])

    def test_constant_second_coordinate_scales_min_kernel(self):
        x = np.array([1.0, 2.5, 4.0])
        G = sheet_cov([(v, 7.0) for v in x])
        np.testing.assert_allclose(G, 7.0 * np.minimum(x[:, None], x[None, :]))

    def test_positivity_and_duplicates(self):
        with pytest.raises(NonPositivePointError):
            sheet_cov([(0.0, 1.0)])
        with pytest.raises(ValueError, match="distinct"):
            sheet_cov([(1.0, 2.0), (1.0, 2.0)])

    def test_three_point_restrictions_satisfy_sufficiency(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            pts = rng.uniform(0.1, 10.0, size=(3, 2))
            G = sheet_cov(pts)
            assert triple_sufficient(G)
            assert is_id_square(G).is_id


class TestSheetCounterexample:
    def test_ordering_constraints(self):
        pts, _ = sheet_counterexample()
        x, s = pts[:, 0], pts[:, 1]
        assert 0 < x[0] < x[2] < x[1] < x[3]
        assert 0 < s[3] < s[0] < s[2] < s[1]

    def test_entries(self):
        _, G = sheet_counterexample()
        golden = json.loads(GOLDEN.read_text())
        np.testing.assert_array_equal(G, golden["entries"])

    def test_inverse_entry_positive_and_matches_golden(self):
        _, G = sheet_counterexample()
        golden = json.loads(GOLDEN.read_text())
        A = np.linalg.inv(G)
        assert A[0, 1] > 0
        assert A[0, 1] == pytest.approx(golden["inverse_entry_01"], rel=1e-12)
        np.testing.assert_allclose(A, golden["inverse"], atol=1e-12)
        assert np.linalg.det(G) == pytest.approx(golden["det"])

    def test_not_id(self):
        _, G = sheet_counterexample()
        assert not is_id_square(G).is_id


class TestRandomGreen:
    def test_scalar_case(self):
        chain, g = random_green(1, seed=0)
        assert g[0, 0] == pytest.approx(1.0 / (1.0 - chain.T[0, 0]))
        assert g[0, 0] >= 1.0

    def test_chain_is_valid(self):
        chain, _ = random_green(5, seed=3)
        validate_chain(chain)

    def test_symmetric_instances_classify_green(self):
        for seed in (1, 7, 42):
            _, g = random_green(4, seed=seed, symmetric=True)
            np.testing.assert_allclose(g, g.T, atol=1e-12)
            assert classify_green(g).kind == "green"

    def test_asymmetric_flag(self):
        _, g = random_green(4, seed=5, symmetric=False)
        assert not np.allclose(g, g.T)

    def test_green_identity(self):
        chain, g = random_green(6, seed=9)
        np.testing.assert_allclose(
            (np.eye(6) - chain.T) @ g, np.eye(6), atol=1e-12
        )


class TestScaleConjugate:
    def test_unit_scaling_is_identity(self):
        np.testing.assert_array_equal(
            scale_conjugate(MIN_KERNEL, np.ones(3)), MIN_KERNEL
        )

    def test_breaks_green_keeps_id(self):
        G = scale_conjugate(MIN_KERNEL, [1.0, 10.0, 1.0])
        cls = classify_green(G)
        assert cls.kind == "id_not_green"

    def test_scalar(self):
        np.testing.assert_array_equal(
            scale_conjugate(np.array([[3.0]]), [2.0]), [[12.0]]
        )

    def test_positive_required(self):
        with pytest.raises(NonPositiveScaleError):
            scale_conjugate(MIN_KERNEL, [1.0, 0.0, 1.0])

    def test_scaled_instances_stay_id(self):
        rng = np.random.default_rng(17)
        for seed in (2, 3):
            _, g = random_green(4, seed=seed, symmetric=True)
            d = rng.uniform(0.3, 3.0, size=4)
            assert is_id_square(scale_conjugate(g, d)).is_id


class TestAdaptiveSimpson:
    def test_exponential_integral(self):
        value = adaptive_simpson(np.exp, 0.0, 1.0)
        assert value == pytest.approx(np.e - 1.0, rel=1e-10)

    def test_against_closed_form_decay(self):
        value = adaptive_simpson(lambda y: np.exp(-y), 0.0, 0.5)
        assert value == pytest.approx(1.0 - np.exp(-0.5), rel=1e-10)

    def test_depth_budget_enforced(self):
        with pytest.raises(QuadratureFailureError):
            adaptive_simpson(lambda y: np.sin(50.0 * y) ** 2, 0.0, 10.0,
                             rel_tol=1e-12, max_depth=0)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            adaptive_simpson(np.exp, 1.0, 1.0)


class TestMeasureDensity:
    def test_caps_at_one(self):
        dens = measure_density(np.minimum)
        # cov(y, y) = y < 1 on (0, 1): the cap keeps the density at e^{-y}
        assert dens(0.5) == pytest.approx(np.exp(-0.5))
        # cov(y, y) = y > 1: density is e^{-y} / sqrt(y)
        assert dens(4.0) == pytest.approx(np.exp(-4.0) / 2.0)

    def test_zero_variance_safe(self):
        dens = measure_density(np.minimum)
        assert dens(0.0) == pytest.approx(1.0)


def constant_cov(x, y):
    return np.ones(np.broadcast(np.asarray(x), np.asarray(y)).shape)


class TestDyadicDiscretize:
    def test_constant_kernel_level_one(self):
        grid, G_n, chi = dyadic_discretize(constant_cov, 0.0, 1.0, 1)
        np.testing.assert_allclose(grid.nodes, [0.0, 0.5, 1.0])
        expected_w = [
            1.0 - np.exp(-0.5),
            np.exp(-0.5) - np.exp(-1.0),
            np.exp(-1.0) - np.exp(-1.5),
        ]
        np.testing.assert_allclose(grid.weights, expected_w, rtol=1e-8)
        assert grid.weights[0] == pytest.approx(0.39347, abs=1e-5)
        # constant kernel: every row of G_n equals the weights
        np.testing.assert_allclose(G_n, np.tile(grid.weights, (3, 1)), rtol=1e-8)
        np.testing.assert_allclose(chi, chi[0], rtol=1e-12)

    def test_weights_positive_and_bounded_by_total_mass(self):
        grid, _, _ = dyadic_discretize(np.minimum, 1.0, 2.0, 4)
        assert (grid.weights > 0).all()
        density = measure_density(np.minimum)
        total = adaptive_simpson(density, 1.0, 2.0 + 2.0**-4)
        assert grid.weights.sum() <= total + 1e-10
        assert grid.weights.sum() == pytest.approx(total, rel=1e-6)

    def test_column_weighting_is_not_symmetric(self):
        _, G_n, _ = dyadic_discretize(np.minimum, 1.0, 2.0, 3)
        assert not np.allclose(G_n, G_n.T)

    def test_unweighted_kernel_symmetric(self):
        grid, G_n, _ = dyadic_discretize(np.minimum, 1.0, 2.0, 3)
        plain = G_n / grid.weights[None, :]
        np.testing.assert_allclose(plain, plain.T, atol=1e-12)

    def test_memory_guard(self):
        # Level 10 on [0, 10] has 10,241 nodes, an 839 MB G_n.  The guard
        # raises before the kernel is evaluated once.
        def kernel(x, y):
            raise AssertionError("kernel evaluated")

        for level in (20, 10):
            with pytest.raises(ValueError, match="memory guard"):
                dyadic_discretize(kernel, 0.0, 10.0, level)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            dyadic_discretize(np.minimum, 2.0, 1.0, 3)


class TestChiConvergence:
    def test_deltas_shrink(self):
        deltas = chi_deltas(np.minimum, 1.0, 2.0, levels=range(4, 7))
        assert deltas[4] > deltas[5] > deltas[6]

    def test_offset_alignment_on_non_dyadic_interval(self):
        # a = 0.3: the first level-n node is not the first level-(n+1) node
        deltas = chi_deltas(np.minimum, 0.3, 1.0, levels=[4, 5])
        assert deltas[4] > deltas[5] > 0.0
