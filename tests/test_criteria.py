import itertools
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaussgreen.criteria import (
    MMatrixCert,
    MMatrixFailure,
    NoSignature,
    Signature,
    _contradiction_cycle,
    _find_signature,
    _worst_positive_edge,
    classify_green,
    find_signature,
    is_id_square,
    is_m_matrix,
    relaxed_kind,
    triple_necessary,
    triple_sufficient,
)
from gaussgreen.kernels import (
    brownian_cov,
    fbm_cov,
    random_green,
    scale_conjugate,
    sheet_counterexample,
    sheet_cov,
)
from gaussgreen.linalg import (
    NotPositiveDefiniteError,
    Tolerances,
    cholesky,
    covariance,
)
from exact import band_dependent, exact_inverse, exact_verdict
from helpers import MIN_KERNEL, MIN_KERNEL_INV, random_spd, signature_product_around

TRIPLE_NOT_ID = np.array([[1.0, 0.4, -0.4], [0.4, 1.0, 0.4], [-0.4, 0.4, 1.0]])


class TestIsMMatrix:
    def test_min_kernel_inverse(self):
        cert = is_m_matrix(MIN_KERNEL_INV)
        assert isinstance(cert, MMatrixCert)
        assert cert.c == pytest.approx(2.0)
        np.testing.assert_allclose(
            cert.B, np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        )
        assert cert.rho_upper < 2.0
        # B has char poly x^3 - x^2 - 2x + 1; the bracket encloses its root,
        # which a dense eigensolver computes as the oracle
        rho = float(np.abs(np.linalg.eigvals(cert.B)).max())
        assert rho == pytest.approx(1.8019, abs=1e-4)
        assert cert.rho_lower - 1e-12 <= rho <= cert.rho_upper + 1e-12
        assert np.linalg.inv(MIN_KERNEL_INV).min() >= -1e-12  # the min kernel

    def test_identity(self):
        cert = is_m_matrix(np.eye(3))
        assert isinstance(cert, MMatrixCert)
        assert cert.c == pytest.approx(1.0)
        np.testing.assert_allclose(cert.B, 0.0)
        rho = float(np.abs(np.linalg.eigvals(cert.B)).max())
        assert cert.rho_lower == cert.rho_upper == rho == 0.0

    def test_positive_offdiagonal_fails(self):
        failure = is_m_matrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert isinstance(failure, MMatrixFailure)
        assert failure.reason == "offdiag_positive"
        assert failure.index == (0, 1)

    def test_singular_fails(self):
        failure = is_m_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert isinstance(failure, MMatrixFailure)
        assert failure.reason == "singular"

    def test_negative_inverse_fails(self):
        # inverse is all negative: [[-1/3, -2/3], [-2/3, -1/3]]
        failure = is_m_matrix(np.array([[1.0, -2.0], [-2.0, 1.0]]))
        assert isinstance(failure, MMatrixFailure)
        assert failure.reason == "inverse_negative"

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 7), seed=st.integers(0, 2**32 - 1))
    def test_inverse_negative_witness(self, n, seed):
        # A nonsingular Z-matrix that is not an M-matrix has no positive
        # u = A⁻¹ diag(A); the witness is the first u_i <= 0, whose row of
        # A⁻¹, weighted by the positive diag(A), then sums to at most 0 and
        # so has a negative entry.
        rng = np.random.default_rng(seed)
        B = rng.uniform(0.0, 1.0, size=(n, n))
        B[rng.uniform(size=(n, n)) < 0.4] = 0.0
        np.fill_diagonal(B, 0.0)
        A = np.diag(rng.uniform(0.1, 2.0, size=n)) - B
        assume(np.linalg.eigvals(A).real.min() < 0.0 and np.linalg.cond(A) < 1e8)
        failure = is_m_matrix(A)
        assert isinstance(failure, MMatrixFailure)
        assert failure.reason == "inverse_negative"
        u = np.linalg.solve(A, A.diagonal())
        i = int(np.flatnonzero(u <= 0.0)[0])
        assert failure.index == (i,)
        assert failure.value == u[i] <= 0.0
        assert np.linalg.inv(A)[i].min() < 0.0

    def test_certificates_hold_in_exact_arithmetic(self):
        # A = I - B / (rho(B) (1 + delta)) with B >= 0 irreducible is an
        # M-matrix exactly when delta > 0 (up to the rounding of A itself),
        # and nearly singular for small |delta|.  Exact rational arithmetic
        # on the float entries decides what A is and whether A u > 0 holds.
        def exact_m_matrix(A):
            # A Z-matrix is a nonsingular M-matrix iff its leading principal
            # minors are positive, i.e. elimination without pivoting meets
            # only positive pivots.
            M = [[Fraction(x) for x in row] for row in A.tolist()]
            for k in range(len(M)):
                if M[k][k] <= 0:
                    return False
                for i in range(k + 1, len(M)):
                    f = M[i][k] / M[k][k]
                    M[i] = [a - f * b for a, b in zip(M[i], M[k])]
            return True

        rng = np.random.default_rng(20240611)
        certified = 0
        for _ in range(60):
            n = int(rng.integers(2, 7))
            B = rng.uniform(0.0, 1.0, size=(n, n))
            B[rng.uniform(size=(n, n)) < 0.3] = 0.0
            cycle = rng.permutation(n)
            B[cycle, np.roll(cycle, -1)] = rng.uniform(0.5, 1.0, size=n)
            np.fill_diagonal(B, 0.0)
            rho = float(np.abs(np.linalg.eigvals(B)).max())
            for e in range(9, 17):
                for delta in (10.0**-e, -(10.0**-e)):
                    A = np.eye(n) - B / (rho * (1.0 + delta))
                    result = is_m_matrix(A)
                    exact = exact_m_matrix(A)
                    if isinstance(result, MMatrixCert):
                        certified += 1
                        assert exact, (n, delta)
                        Af = [[Fraction(x) for x in row] for row in A.tolist()]
                        uf = [Fraction(x) for x in result.u.tolist()]
                        assert all(a <= 0 for i, row in enumerate(Af)
                                   for j, a in enumerate(row) if i != j)
                        assert all(sum(a * b for a, b in zip(row, uf)) > 0
                                   for row in Af), (n, delta)
                    elif exact and abs(delta) >= 1e-13:
                        pytest.fail(f"M-matrix not certified: n={n}, delta={delta}, "
                                    f"{result.reason}")
        assert certified > 0

    def test_reconstruction_identity(self):
        cert = is_m_matrix(MIN_KERNEL_INV)
        np.testing.assert_allclose(
            cert.c * np.eye(3) - cert.B, MIN_KERNEL_INV, atol=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 10_000))
    def test_bracket_encloses_spectral_radius(self, n, seed):
        _, g = random_green(n, seed, symmetric=True)
        cert = is_m_matrix(np.linalg.inv(g))
        assert isinstance(cert, MMatrixCert)
        oracle = float(np.abs(np.linalg.eigvals(cert.B)).max())
        assert cert.rho_lower - 1e-9 <= oracle <= cert.rho_upper + 1e-9
        assert cert.rho_upper < cert.c

    def test_bracket_from_inverse_row_sums(self):
        cert = is_m_matrix(MIN_KERNEL_INV)
        assert isinstance(cert, MMatrixCert)
        # u = MIN_KERNEL diag(A) = MIN_KERNEL (2, 2, 1) = (5, 8, 9), the
        # inverse's row sums weighted by diag(A), and A u = diag(A), so the
        # ratios (B u)_i / u_i = c - A_ii/u_i are 2 - 2/5, 2 - 2/8, 2 - 1/9
        np.testing.assert_allclose(cert.u, [5.0, 8.0, 9.0], rtol=1e-14)
        assert cert.rho_lower == pytest.approx(2.0 - 2.0 / 5.0)
        assert cert.rho_upper == pytest.approx(2.0 - 1.0 / 9.0)

    def test_row_scaling_invariance(self):
        # A = D A0 with A0 = I - B / (1.1 rho(B)) an M-matrix and
        # D = diag(2^k), k in [-30, 30]: u = A⁻¹ diag(A) = A0⁻¹ diag(A0)
        # whatever D is, so every draw is certified with the unscaled u.
        rng = np.random.default_rng(20261018)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            B = rng.uniform(0.0, 1.0, size=(n, n))
            B[rng.uniform(size=(n, n)) < 0.3] = 0.0
            cycle = rng.permutation(n)
            B[cycle, np.roll(cycle, -1)] = rng.uniform(0.5, 1.0, size=n)
            np.fill_diagonal(B, 0.0)
            A0 = np.eye(n) - B / (1.1 * float(np.abs(np.linalg.eigvals(B)).max()))
            D = np.exp2(rng.integers(-30, 31, size=n).astype(float))
            cert = is_m_matrix(D[:, None] * A0)
            assert isinstance(cert, MMatrixCert), (n, D, cert)
            np.testing.assert_allclose(cert.u, np.linalg.solve(A0, A0.diagonal()),
                                       rtol=1e-9)

    def test_success_implies_nonneg_inverse(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            _, g = random_green(4, rng.integers(1 << 31), symmetric=True)
            A = np.linalg.inv(g)
            cert = is_m_matrix(A)
            assert isinstance(cert, MMatrixCert)
            assert np.linalg.inv(A).min() >= -1e-10


class TestFindSignature:
    def test_identity_all_free(self):
        sig = find_signature(np.eye(3))
        assert isinstance(sig, Signature)
        np.testing.assert_array_equal(sig.signs, [1, 1, 1])
        assert len(sig.components) == 3

    def test_recovers_conjugation_up_to_global_flip(self):
        S0 = np.diag([1.0, -1.0, 1.0])
        G = S0 @ MIN_KERNEL @ S0
        sig = find_signature(G)
        assert isinstance(sig, Signature)
        assert len(sig.components) == 1
        np.testing.assert_array_equal(sig.signs, [1, -1, 1])
        conj = sig.conjugate(G)
        assert conj.min() >= -1e-12
        np.testing.assert_allclose(conj, MIN_KERNEL, atol=1e-10)

    def test_counterexample_yields_contradiction_cycle(self):
        _, G = sheet_counterexample()
        wit = find_signature(G)
        assert isinstance(wit, NoSignature)
        assert wit.reason == "cycle"
        # the unremovable positive entry (G⁻¹)_01 = 1/74, on the correlation
        # scale: times sqrt(G_00 G_11) = sqrt(2 * 12)
        assert wit.index == (0, 1)
        assert wit.value == pytest.approx(np.sqrt(24.0) / 74.0, rel=1e-10)
        A = np.linalg.inv(G)
        assert signature_product_around(A, wit.cycle) == -1

    def test_frustrated_triangle(self):
        A = np.array([[2.0, 0.5, 0.5], [0.5, 2.0, 0.5], [0.5, 0.5, 2.0]])
        G = np.linalg.inv(A)
        wit = find_signature(G)
        assert isinstance(wit, NoSignature)
        assert wit.reason == "cycle"
        assert signature_product_around(A, wit.cycle) == -1

    def test_entry_witness_on_subthreshold_coupling(self):
        # A coupling that is small only on the scale of G is an edge: the
        # inverse of this G has 9e-8 off the diagonal of C⁻¹, far above the
        # band, and the square is exactly ID with a sign flip.
        A = np.array([[1e-3, 0.9e-10], [0.9e-10, 1e-3]])
        sig = find_signature(np.linalg.inv(A))
        assert isinstance(sig, Signature)
        np.testing.assert_array_equal(sig.signs, [1, -1])
        assert exact_verdict(np.linalg.inv(A)).signs == (1, -1)
        # Close points make C⁻¹ ~ 1e9, so at eps 1e-6 the -1.4 coupling
        # between the second and third points hides below the band while
        # the covariance coupling (-0.71 after the flip) does not.
        s = np.array([1.0, 1.0, -1.0])
        G = s[:, None] * brownian_cov([1.0, 1.000000001, 2.0]) * s[None, :]
        # The sign search there leaves the third point a component of its
        # own, and the certificate finds the negative entry of S C S.
        tol = Tolerances(eps_zero=1e-6)
        sig = find_signature(G, tol)
        assert isinstance(sig, Signature)
        assert tuple(sig.signs) == (1, 1, 1)
        wit = is_id_square(G, tol).witness
        assert isinstance(wit, NoSignature)
        assert wit.reason == "entry"
        assert wit.index == (1, 2)
        assert wit.value == pytest.approx(-np.sqrt(0.5), rel=1e-8)
        assert isinstance(find_signature(G), Signature)

    def test_requires_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            find_signature(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_component_flip_equivalence(self):
        # block-diagonal: each block is one component with a free flip
        G = np.zeros((4, 4))
        G[:3, :3] = MIN_KERNEL
        G[3, 3] = 2.0
        sig = find_signature(G)
        assert isinstance(sig, Signature)
        assert len(sig.components) == 2
        A = np.linalg.inv(G)
        base = is_m_matrix(sig.conjugate(A))
        for comp in sig.components:
            flipped = sig.signs.copy()
            flipped[list(comp)] *= -1
            alt = Signature(signs=flipped, components=sig.components)
            assert isinstance(is_m_matrix(alt.conjugate(A)), type(base))


class TestIsIdSquare:
    def test_min_kernel_id(self):
        verdict = is_id_square(MIN_KERNEL)
        assert verdict.is_id
        # c = max diag C⁻¹ = max_i (G⁻¹)_ii G_ii = max(2, 4, 3)
        assert verdict.cert.c == pytest.approx(4.0)
        assert verdict.signature.is_trivial

    def test_fbm_half_grid_id(self):
        verdict = is_id_square(fbm_cov([1.0, 2.0, 3.0, 4.0], 0.5))
        assert verdict.is_id

    def test_mixed_sign_triple_not_id(self):
        # positive definite: det = 0.392
        assert np.linalg.det(TRIPLE_NOT_ID) == pytest.approx(0.392)
        verdict = is_id_square(TRIPLE_NOT_ID)
        assert not verdict.is_id
        assert isinstance(verdict.witness, NoSignature)
        assert not triple_necessary(TRIPLE_NOT_ID)

    def test_rescaled_brownian_300_is_id(self):
        # rescaled Brownian inputs of this size once came back not_id: the
        # spectral bracket fell back to a Gershgorin bound above c
        rng = np.random.default_rng(1)
        G = scale_conjugate(
            brownian_cov(np.cumsum(rng.uniform(0.9, 1.1, 300))),
            rng.uniform(0.5, 2.0, 300),
        )
        verdict = is_id_square(G)
        assert verdict.is_id
        assert verdict.margins["spectral_gap"] > 0

    def test_brownian_1000_has_positive_gap(self):
        verdict = is_id_square(brownian_cov(np.arange(1.0, 1001.0)))
        assert verdict.is_id
        # the Collatz-Wielandt gap is min_i 1/u_i = 1/max(G 1) ~ 2.0e-6
        assert verdict.margins["spectral_gap"] > 0

    def test_margins_populated(self):
        verdict = is_id_square(MIN_KERNEL)
        assert verdict.margins["spectral_gap"] > 0
        assert verdict.margins["max_offdiagonal"] <= 0   # -1 entries
        assert verdict.margins["min_conjugated_covariance"] >= 0

    def test_exactly_one_branch(self):
        good = is_id_square(MIN_KERNEL)
        assert good.signature is not None and good.cert is not None
        assert good.witness is None
        _, G = sheet_counterexample()
        bad = is_id_square(G)
        assert bad.signature is None and bad.cert is None
        assert bad.witness is not None


class TestTripleConditions:
    def test_necessary_examples(self):
        assert not triple_necessary(TRIPLE_NOT_ID)
        assert triple_necessary(np.eye(3))
        assert triple_necessary(MIN_KERNEL)  # product of off-diagonals is 2
        # a product of -1.25e-25 is negative at any scale of G
        tiny = 1e-8 * np.array([[2.0, -0.5, 0.5], [-0.5, 2.0, 0.5], [0.5, 0.5, 2.0]])
        assert not triple_necessary(tiny)
        assert not is_id_square(tiny).is_id

    def test_sufficient_sheet_diagonal_points(self):
        G = np.array([[1.0, 1.0, 1.0], [1.0, 4.0, 4.0], [1.0, 4.0, 9.0]])
        assert triple_sufficient(G)

    def test_sufficient_identity(self):
        assert triple_sufficient(np.eye(3))

    def test_sufficient_fails_on_chain_coupling(self):
        # G13 * G22 = 0.1 < G12 * G23 = 0.81
        G = np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.9], [0.1, 0.9, 1.0]])
        assert not triple_sufficient(G)

    def test_sufficient_requires_nonnegative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            triple_sufficient(TRIPLE_NOT_ID)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            triple_necessary(np.eye(4))
        with pytest.raises(ValueError):
            triple_sufficient(np.eye(2))

    def test_sufficient_implies_id(self):
        rng = np.random.default_rng(5)
        hits = 0
        for _ in range(200):
            x = rng.uniform(0.1, 10.0, size=3)
            s = rng.uniform(0.1, 10.0, size=3)
            G = np.minimum(x[:, None], x[None, :]) * np.minimum(s[:, None], s[None, :])
            if triple_sufficient(G):
                hits += 1
                assert is_id_square(G).is_id
        assert hits == 200  # products of min kernels always satisfy it

    def test_id_implies_necessary(self):
        rng = np.random.default_rng(6)
        seen_id = 0
        for _ in range(100):
            G = random_spd(3, rng, shift=0.4)
            try:
                verdict = is_id_square(G)
            except NotPositiveDefiniteError:
                continue
            if verdict.is_id:
                seen_id += 1
                assert triple_necessary(G)
        assert seen_id > 0


class TestDiagDominant:
    """Row sums of the inverse, the extra condition ``green`` asks for."""

    def test_min_kernel_inverse(self):
        cls = classify_green(MIN_KERNEL)
        assert cls.kind == "green"
        np.testing.assert_allclose(cls.row_sums, [1.0, 0.0, 0.0], atol=1e-12)

    def test_identity(self):
        assert classify_green(np.eye(4)).kind == "green"

    def test_conjugated_inverse_loses_dominance(self):
        # The inverse is diag(1, 10, 1) MIN_KERNEL_INV diag(1, 10, 1), whose
        # first row sums to -8; row_sums scales it by sqrt(G_00 min G) with
        # diag G = (1, 0.02, 3).
        cls = classify_green(scale_conjugate(MIN_KERNEL, [1.0, 0.1, 1.0]))
        assert cls.kind == "id_not_green"
        assert cls.row_sums[0] == pytest.approx(-8.0 * np.sqrt(0.02))


class TestClassifyGreen:
    def test_min_kernel_is_green(self):
        cls = classify_green(MIN_KERNEL)
        assert cls.kind == "green"
        assert cls.verdict.cert is not None
        np.testing.assert_allclose(cls.row_sums, [1.0, 0.0, 0.0], atol=1e-10)

    def test_scaling_breaks_green_but_not_id(self):
        G = scale_conjugate(MIN_KERNEL, [1.0, 10.0, 1.0])
        cls = classify_green(G)
        assert cls.kind == "id_not_green"
        assert cls.verdict.is_id

    def test_nontrivial_signature_is_not_green(self):
        S0 = np.diag([1.0, -1.0, 1.0])
        cls = classify_green(S0 @ MIN_KERNEL @ S0)
        assert cls.kind == "id_not_green"

    def test_counterexample_not_id(self):
        _, G = sheet_counterexample()
        assert classify_green(G).kind == "not_id"

    def test_brownian_2000_has_positive_gap(self):
        cls = classify_green(brownian_cov(np.arange(1.0, 2001.0)))
        assert cls.kind == "green"
        # the Collatz-Wielandt gap is 1/max(G 1) ~ 5.0e-7
        assert cls.verdict.margins["spectral_gap"] > 0


class TestInvariances:
    def test_signature_conjugation_stability(self):
        rng = np.random.default_rng(7)
        bases = [MIN_KERNEL, sheet_counterexample()[1], TRIPLE_NOT_ID]
        for G in bases:
            expected = is_id_square(G).is_id
            for _ in range(10):
                s = rng.choice([-1.0, 1.0], size=G.shape[0])
                assert is_id_square(s[:, None] * G * s[None, :]).is_id == expected

    def test_diagonal_scaling_stability(self):
        rng = np.random.default_rng(8)
        bases = [MIN_KERNEL, sheet_counterexample()[1], TRIPLE_NOT_ID]
        for G in bases:
            expected = is_id_square(G).is_id
            for _ in range(10):
                d = rng.uniform(0.2, 5.0, size=G.shape[0])
                assert is_id_square(d[:, None] * G * d[None, :]).is_id == expected


def brute_force_signature(G, A, tol=Tolerances()):
    """Exhaustive search over all sign vectors; the independent oracle."""
    n = G.shape[0]
    thr_a = tol.zero_threshold(A)
    thr_g = tol.zero_threshold(G)
    for bits in itertools.product([1.0, -1.0], repeat=n):
        s = np.asarray(bits)
        conj_a = s[:, None] * A * s[None, :]
        off = conj_a - np.diag(np.diag(conj_a))
        if off.max() > thr_a:
            continue
        if (s[:, None] * G * s[None, :]).min() < -thr_g:
            continue
        return s
    return None


class TestBruteForceAgreement:
    def test_small_oracle_agreement(self):
        rng = np.random.default_rng(9)
        for k in range(20):
            n = int(rng.integers(2, 6))
            if k % 2 == 0:
                _, g = random_green(n, int(rng.integers(1 << 31)), symmetric=True)
                s0 = rng.choice([-1.0, 1.0], size=n)
                G = s0[:, None] * g * s0[None, :]
            else:
                G = random_spd(n, rng)
            A = np.linalg.inv(G)
            expected = brute_force_signature(G, A)
            found = find_signature(G)
            exact_a = exact_inverse(G)
            if not band_dependent(G, exact_a, 1e-10):
                assert classify_green(G).kind == exact_verdict(G, exact_a).kind
            if expected is None:
                assert isinstance(found, NoSignature)
            else:
                assert isinstance(found, Signature)
                ours = is_m_matrix(found.conjugate(A))
                theirs = is_m_matrix(
                    expected[:, None] * A * expected[None, :]
                )
                assert isinstance(ours, MMatrixCert) == isinstance(
                    theirs, MMatrixCert
                )


def reference_search(A, thr):
    """Edge-at-a-time breadth-first sign propagation over the off-diagonal
    entries of ``A`` outside the band ``thr``, the reference for the row
    bitset search of :func:`find_signature`: every neighbour of a node, in
    index order, is signed or checked one at a time."""
    n = A.shape[0]
    adjacency = np.abs(A) > thr
    np.fill_diagonal(adjacency, False)
    signs = np.zeros(n, dtype=int)
    parents = np.full(n, -1)
    components = []
    for root in range(n):
        if signs[root] != 0:
            continue
        signs[root] = 1
        comp = [root]
        queue = deque([root])
        while queue:
            i = queue.popleft()
            for j in np.flatnonzero(adjacency[i]):
                forced = -int(np.sign(A[i, j])) * signs[i]
                if signs[j] == 0:
                    signs[j] = forced
                    parents[j] = i
                    comp.append(int(j))
                    queue.append(int(j))
                elif signs[j] != forced:
                    cycle = _contradiction_cycle(parents, i, int(j))
                    culprit = _worst_positive_edge(A, cycle)
                    return NoSignature("cycle", culprit, float(A[culprit]), cycle)
        components.append(tuple(comp))
    return Signature(signs=signs, components=tuple(components))


def assert_same_search(ours, ref):
    """The same signs (int64) and components in discovery order, or the
    same contradiction: reason, culprit entry, its value and the cycle."""
    assert type(ours) is type(ref)
    if isinstance(ref, Signature):
        assert ours.signs.dtype == ref.signs.dtype
        np.testing.assert_array_equal(ours.signs, ref.signs)
        assert ours.components == ref.components
    else:
        assert (ours.reason, ours.index, ours.value, ours.cycle) == (
            ref.reason, ref.index, ref.value, ref.cycle)


def late_sheet_counterexample(n):
    """Sheet grid of ``n`` points: a monotone chain of ``n - 4`` points, then
    the 4-point counterexample, shifted above the chain, in the last four
    places, so the search meets the contradiction after the whole chain."""
    chain = np.repeat(np.arange(1.0, n - 3.0)[:, None], 2, axis=1)
    return sheet_cov(np.vstack([chain, sheet_counterexample()[0] + n]))


def band_split(n):
    """Inverse of a tridiagonal matrix whose couplings, of both signs, span
    1e-12..0.5 past index 64, so wider bands cut the path into more
    components."""
    A = 3.0 * np.eye(n)
    weights = np.array([0.5, -0.5, -1e-3, 0.05, -1e-8, -0.5, 1e-12, -0.2])
    for k in range(n - 1):
        A[k, k + 1] = A[k + 1, k] = weights[k % 8] if k >= 64 else -0.5
    return np.linalg.inv(A)


def word_boundary_corpus(n):
    """Inputs whose sign graphs cross the 64-bit words of a packed row."""
    grid = np.arange(1.0, n + 1.0)
    start = min(64, n - 3)  # the last three places when n <= 66
    flips = np.where(np.arange(n) >= start, -1.0, 1.0)
    flips[start + 1::3] = 1.0
    fbm = fbm_cov(grid, 0.5)
    k = n // 2
    block = np.zeros((n, n))
    block[:k, :k] = brownian_cov(grid[:k])
    block[k:, k:] = flips[k:, None] * fbm_cov(grid[k:], 0.5) * flips[None, k:]
    return {
        "brownian": brownian_cov(grid),
        "fbm_0.5": fbm,
        "flipped_fbm_0.5": flips[:, None] * fbm * flips[None, :],
        "fbm_1.5": fbm_cov(grid, 1.5),
        "late_counterexample": late_sheet_counterexample(n),
        "block": block,
        "band_split": band_split(n),
    }


def test_vectorized_bfs_matches_reference():
    """The row bitset search in :func:`find_signature` against the
    edge-at-a-time reference, on the same inverse correlation matrix: small
    inputs at the default band, then inputs whose rows span one to five
    64-bit words, with signs flipped and cycles met past index 64, at four
    bands that split their graphs differently."""
    rng = np.random.default_rng(31)
    corpus = [MIN_KERNEL, TRIPLE_NOT_ID, sheet_counterexample()[1], np.eye(4)]
    block = np.zeros((5, 5))
    block[:3, :3] = MIN_KERNEL
    block[3:, 3:] = [[2.0, 0.5], [0.5, 1.0]]
    corpus.append(block)
    for n in (7, 10):
        # frustrated ring: one positive edge among negative ones
        ring = 3.0 * np.eye(n)
        for k in range(n):
            ring[k, (k + 1) % n] = ring[(k + 1) % n, k] = 1.0 if k == 2 else -1.0
        corpus.append(np.linalg.inv(ring))
    corpus.append(np.linalg.inv(np.array([[1e-3, 0.9e-10], [0.9e-10, 1e-3]])))
    for n in (6, 15, 40):
        corpus.append(random_spd(n, rng))
        _, g = random_green(n, int(rng.integers(1 << 31)), symmetric=True)
        s0 = rng.choice([-1.0, 1.0], size=n)
        corpus.append(s0[:, None] * g * s0[None, :])
        corpus.append(sheet_cov(rng.uniform(0.1, 10.0, size=(n, 2))))
    for G in corpus:
        A = covariance(G).inverse
        assert_same_search(find_signature(G), reference_search(A, Tolerances().zero_threshold(A)))

    for n in (63, 64, 65, 128, 129, 300):
        for name, G in word_boundary_corpus(n).items():
            A = covariance(G).inverse
            for eps in (1e-10, 1e-6, 0.01, 0.3):
                tol = Tolerances(eps)
                ours = find_signature(G, tol)
                assert_same_search(ours, reference_search(A, tol.zero_threshold(A)))
                if name == "late_counterexample" and eps == 1e-10:
                    assert isinstance(ours, NoSignature)
                    assert min(ours.cycle) >= n - 5
                if name == "flipped_fbm_0.5" and eps == 1e-10:
                    assert (ours.signs[min(64, n - 3):] == -1).any()
                if name == "band_split" and n > 66:
                    assert len(ours.components) > (1 if eps < 1e-8 else 2)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 140), density=st.sampled_from([0.02, 0.1, 0.5]),
       contradict=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_bitset_search_on_planted_signatures(n, density, contradict, seed):
    """Random symmetric sign patterns that a planted signature ``s`` makes
    nonpositive, with some entries inside the band; on some draws one edge
    is flipped, which forces a contradiction when the edge is on a cycle."""
    rng = np.random.default_rng(seed)
    s = rng.choice([-1.0, 1.0], size=n)
    magnitude = rng.choice([0.25, 1.0, 2.0], size=(n, n))  # 0.25 is in the band
    magnitude *= rng.random((n, n)) < density
    A = -np.triu(magnitude, 1)
    A += A.T
    A *= s[:, None] * s[None, :]
    np.fill_diagonal(A, 4.0)
    if contradict:
        i, j = np.nonzero(np.triu(np.abs(A) > 0.5, 1))
        if i.size:
            k = int(rng.integers(i.size))
            A[i[k], j[k]] = A[j[k], i[k]] = -A[i[k], j[k]]
    ours, ref = _find_signature(A, 0.5), reference_search(A, 0.5)
    assert_same_search(ours, ref)
    if not contradict:
        assert isinstance(ours, Signature)
        for comp in ours.components:
            flips = ours.signs[list(comp)] * s[list(comp)]
            assert abs(int(flips.sum())) == len(comp)


def dyadic_green(n, seed):
    """``random_green``'s covariance, symmetrized and rounded to 2^-30."""
    _, g = random_green(n, seed, symmetric=True)
    return np.round((g + g.T) * 2.0**29) / 2.0**30


FAMILIES = ("brownian", "fbm_0.5", "fbm_1.5", "random_green", "counterexample",
            "block")


def transformed(family, n, seed, perm, signs, exps):
    """``F P G Pᵀ F`` for a family instance ``G``, a permutation ``P`` and
    ``F = S D``, ``D = diag(2^exps)``: the scaling keeps every entry exact."""
    grid = np.arange(1.0, n + 1.0)
    if family == "brownian":
        G = brownian_cov(grid)
    elif family.startswith("fbm"):
        G = fbm_cov(grid, float(family[4:]))
    elif family == "random_green":
        G = dyadic_green(n, seed)
    elif family == "counterexample":
        G = sheet_counterexample()[1]
    else:
        k = (n + 1) // 2
        G = np.zeros((n, n))
        G[:k, :k] = brownian_cov(grid[:k])
        G[k:, k:] = dyadic_green(n - k, seed)
    f = np.asarray(signs, dtype=float) * np.exp2(np.asarray(exps, dtype=float))
    return f[:, None] * G[np.ix_(perm, perm)] * f[None, :]


def agrees_with_exact(G):
    """Check ``classify_green`` against the exact verdict on the stored ``G``:
    the kind, the signature up to one flip per component, and the
    contradiction cycle.  Returns False, having compared nothing, when the
    instance is band-dependent."""
    A = exact_inverse(G)
    if band_dependent(G, A, Tolerances().eps_zero):
        return False
    exact, cls = exact_verdict(G, A), classify_green(G)
    assert cls.kind == exact.kind
    if exact.kind == "not_id":
        assert cls.verdict.witness.reason == "cycle"
        assert cls.verdict.witness.cycle == exact.cycle
    else:
        signs = cls.verdict.signature.signs
        for comp in exact.components:
            flips = signs[list(comp)] * np.array([exact.signs[i] for i in comp])
            assert abs(int(flips.sum())) == len(comp)
    return True


class TestExactOracle:
    """Scale-invariant verdicts: ``P S D`` transforms of the families, with
    ``D = diag(2^k)``, ``k`` in [-40, 40], against exact-rational ones."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), family=st.sampled_from(FAMILIES),
           n=st.integers(2, 8), seed=st.integers(0, 2**16))
    def test_scaled_permuted_verdict_is_exact(self, data, family, n, seed):
        if family == "counterexample":
            n = 4
        perm = data.draw(st.permutations(range(n)))
        signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
        exps = data.draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n))
        agrees_with_exact(transformed(family, n, seed, perm, signs, exps))

    def test_most_scaled_draws_are_decided(self):
        rng = np.random.default_rng(16)
        decided = 0
        for _ in range(150):
            family = FAMILIES[int(rng.integers(len(FAMILIES)))]
            n = 4 if family == "counterexample" else int(rng.integers(2, 9))
            decided += agrees_with_exact(transformed(
                family, n, int(rng.integers(2**16)), rng.permutation(n),
                rng.choice([-1, 1], size=n), rng.integers(-40, 41, size=n)))
        assert decided >= 135

    @pytest.mark.parametrize("scale", [1e5, 2.0**17, 2.0**40])
    @pytest.mark.parametrize("family", ["counterexample", "fbm_1.5"])
    def test_scaled_not_id_keeps_its_witness(self, family, scale):
        G = sheet_counterexample()[1] if family == "counterexample" else \
            fbm_cov(np.arange(1.0, 7.0), 1.5)
        verdict = is_id_square(scale * scale * G)
        assert not verdict.is_id
        assert verdict.witness.cycle == is_id_square(G).witness.cycle == (1, 0, 2)

    @pytest.mark.parametrize("beta", [None, 0.5])
    def test_tiny_scale_id_is_green(self, beta):
        grid = np.arange(1.0, 7.0)
        G = brownian_cov(grid) if beta is None else fbm_cov(grid, beta)
        for d in (2.0**-20, 2.0**-40):
            assert classify_green(d * d * G).kind == "green"


@pytest.mark.parametrize(
    "entries, message",
    [([[1.0, 0.5], [0.2, 1.0]], "not symmetric"),
     ([[1.0, np.nan], [np.nan, 1.0]], "NaN or Inf"),
     ([[1.0, 0.0, 0.0]], "must be square")],
)
def test_public_entry_points_validate_their_input(entries, message):
    from gaussgreen.decomposition import decompose

    for fn in (cholesky, find_signature, is_id_square, classify_green, decompose):
        with pytest.raises(ValueError, match=message):
            fn(np.array(entries))


def test_classify_green_takes_each_zero_band_once(monkeypatch):
    # One band of C⁻¹ serves the sign search, the margins and the row-sum
    # test, and one band of C the entry test.
    seen = []
    zero_threshold = Tolerances.zero_threshold

    def recorded(self, M):
        seen.append(id(M))
        return zero_threshold(self, M)

    cov = covariance(fbm_cov([1.0, 2.0, 3.0, 4.0, 5.0], 0.5))
    expected = classify_green(cov)
    monkeypatch.setattr(Tolerances, "zero_threshold", recorded)
    cls = classify_green(cov)
    assert sorted(seen) == sorted([id(cov.inverse), id(cov.C)])
    assert cls.kind == expected.kind == "green"
    assert cls.verdict.margins == expected.verdict.margins
    assert cls.verdict.margins["min_row_sum"] == float(cls.row_sums.min())
    # The relaxed verdict adds the wider band of C⁻¹ alone.
    del seen[:]
    assert relaxed_kind(cov, cls, Tolerances(1e-9)) == "green"
    assert seen == [id(cov.inverse)]


@pytest.mark.parametrize("eps", [1e-10, 1e-11])
def test_relaxed_kind_needs_a_wider_band(eps):
    cov = covariance(MIN_KERNEL)
    with pytest.raises(ValueError, match="not wider"):
        relaxed_kind(cov, classify_green(cov), Tolerances(eps))
