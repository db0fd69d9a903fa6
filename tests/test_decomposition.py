from dataclasses import replace

import numpy as np
import pytest

from guas_cert import (
    AnalyzerOptions,
    MatrixPair,
    NormalizedPair,
    analyze,
    block_form,
    common_kernel,
    normalize,
)
from guas_cert.decomposition import numerical_rank
from guas_cert.errors import StructureViolation
from guas_cert.gallery import assemble, kdeux, mason

from conftest import block_pair


class TestNullspace:
    """The null-space basis and complement that numerical_rank returns."""

    def test_rank_deficient(self):
        M = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        rank = numerical_rank(M)
        assert rank.basis.shape == (3, 1)
        np.testing.assert_allclose(np.abs(rank.basis[:, 0]), [0.0, 0.0, 1.0], atol=1e-14)
        assert rank.complement.shape == (3, 2)
        assert rank.margin > 1e6

    def test_full_rank(self):
        rank = numerical_rank(np.eye(4))
        assert rank.basis.shape == (4, 0)
        assert rank.complement.shape == (4, 4)
        assert np.isinf(rank.margin)

    def test_zero_matrix(self):
        rank = numerical_rank(np.zeros((3, 3)))
        assert rank.basis.shape == (3, 3)
        assert rank.complement.shape == (3, 0)
        np.testing.assert_array_equal(rank.singular_values, np.zeros(3))
        assert rank.threshold == 0.0
        assert np.isinf(rank.margin)

    def test_orthonormal_and_complementary(self):
        rng = np.random.default_rng(5)
        U = rng.standard_normal((5, 2))
        M = U @ U.T  # rank 2 symmetric PSD
        rank = numerical_rank(M)
        Q = np.hstack([rank.basis, rank.complement])
        np.testing.assert_allclose(Q.T @ Q, np.eye(5), atol=1e-12)
        np.testing.assert_allclose(M @ rank.basis, 0.0, atol=1e-10)


class TestNumericalRank:
    def test_threshold_rule(self):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((2, 5))  # wide: values padded with zeros to 5
        tol = 1e-7
        rank = numerical_rank(M, tol)
        s = np.linalg.svd(M, compute_uv=False)
        np.testing.assert_allclose(rank.singular_values, np.r_[s, 0.0, 0.0, 0.0])
        assert rank.threshold == pytest.approx(tol * s[0] * np.sqrt(5), rel=1e-12)
        assert rank.basis.shape == (5, 3)
        assert np.isinf(rank.margin)  # the discarded values are exactly 0

    def test_margin_is_smallest_kept_over_largest_discarded(self):
        rank = numerical_rank(np.diag([2.0, 1.0, 1e-12]))
        assert rank.basis.shape == (3, 1)
        assert rank.margin == pytest.approx(1e12)

    def test_common_kernel_threshold_is_the_rank_threshold(self, normalized_corpus):
        for name, npair in normalized_corpus.items():
            stacked = np.vstack([npair.S0, npair.S1])
            rank = numerical_rank(stacked, 1e-9)
            assert common_kernel(npair, 1e-9).threshold == rank.threshold, name


class TestCommonKernel:
    def test_mason_kernel_trivial(self):
        decomp = common_kernel(normalize(mason()))
        assert decomp.k == 0
        assert decomp.frame[:, decomp.k:].shape[1] == 2
        assert decomp.certifiable_rank

    def test_one_svd_per_call(self, monkeypatch):
        npair = normalize(mason())
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        common_kernel(npair)
        assert len(calls) == 1

    def test_kdeux_kernel_dimension(self):
        decomp = common_kernel(normalize(kdeux(1.0, 1.0)))
        assert decomp.k == 2
        assert decomp.frame[:, decomp.k:].shape[1] == 1

    def test_kernel_contained_in_both_endpoint_kernels(self, normalized_corpus):
        for name, npair in normalized_corpus.items():
            decomp = common_kernel(npair)
            for S in (npair.S0, npair.S1):
                resid = np.linalg.norm(S @ decomp.K_basis)
                assert resid < 1e-8, name

    def test_frame_is_orthogonal(self, normalized_corpus):
        for name, npair in normalized_corpus.items():
            decomp = common_kernel(npair)
            F = decomp.frame
            np.testing.assert_allclose(
                F.T @ F, np.eye(F.shape[0]), atol=1e-12, err_msg=name
            )

    def test_dimensions_add_up(self, normalized_corpus):
        for npair in normalized_corpus.values():
            decomp = common_kernel(npair)
            d = npair.B0n.shape[0]
            assert decomp.frame.shape == (d, d)
            np.testing.assert_array_equal(decomp.K_basis, decomp.frame[:, :decomp.k])

    def test_block_constructed_pair_recovers_k(self):
        rng = np.random.default_rng(9)
        for k, kp in [(1, 1), (2, 2), (3, 1), (2, 3)]:
            pair = block_pair(rng, k, kp)
            npair = normalize(replace(pair, P=np.eye(k + kp)))
            decomp = common_kernel(npair)
            assert decomp.k == k and block_form(npair, decomp).k_prime == kp


class TestBlockForm:
    def test_kdeux_structure(self):
        npair = normalize(kdeux(2.0, 3.0))
        decomp = common_kernel(npair)
        blocks = block_form(npair, decomp)
        # A blocks are skew 2x2 rotations at angular rates +/- the inputs
        np.testing.assert_allclose(blocks.A0 + blocks.A0.T, 0.0, atol=1e-10)
        np.testing.assert_allclose(blocks.A1 + blocks.A1.T, 0.0, atol=1e-10)
        assert abs(blocks.A0[0, 1]) == pytest.approx(2.0, abs=1e-10)
        assert abs(blocks.A1[0, 1]) == pytest.approx(3.0, abs=1e-10)
        # each C_i annihilates a one-dimensional line, distinct between the two
        assert np.linalg.matrix_rank(np.vstack([blocks.C0, blocks.C1])) == 2

    def test_framed_reconstruction(self, normalized_corpus):
        """The A, -C^T and C blocks of F^T B(lam) F are the block family's."""
        for name, npair in normalized_corpus.items():
            decomp = common_kernel(npair)
            if decomp.k == 0:
                continue
            k = decomp.k
            blocks = block_form(npair, decomp)
            for lam in (0.0, 0.3, 1.0):
                B = (1.0 - lam) * npair.B0n + lam * npair.B1n
                direct = decomp.frame.T @ B @ decomp.frame
                A, C = blocks.A(lam), blocks.C(lam)
                for block, expected in ((direct[:k, :k], A), (direct[:k, k:], -C.T),
                                        (direct[k:, :k], C)):
                    np.testing.assert_allclose(block, expected, atol=1e-10, err_msg=name)

    def test_affine_in_lambda(self, normalized_corpus):
        for npair in normalized_corpus.values():
            decomp = common_kernel(npair)
            if decomp.k == 0:
                continue
            blocks = block_form(npair, decomp)
            lam = 0.37
            np.testing.assert_allclose(
                blocks.A(lam), (1 - lam) * blocks.A0 + lam * blocks.A1, atol=1e-12
            )
            np.testing.assert_allclose(
                blocks.C(lam), (1 - lam) * blocks.C0 + lam * blocks.C1, atol=1e-12
            )

    def test_D_strictly_dissipative_in_interior(self, normalized_corpus):
        for name, npair in normalized_corpus.items():
            decomp = common_kernel(npair)
            k = decomp.k
            if k == npair.d:
                continue
            for lam in (0.25, 0.5, 0.75):
                B = (1.0 - lam) * npair.B0n + lam * npair.B1n
                D = (decomp.frame.T @ B @ decomp.frame)[k:, k:]
                assert np.linalg.eigvalsh(D + D.T)[-1] < 0, name

    def test_structure_violation_detected(self):
        # a pair with no common weak Lyapunov structure in these coordinates:
        # doctor a NormalizedPair by hand so the A block is not skew
        npair = normalize(kdeux(1.0, 1.0))
        decomp = common_kernel(npair)
        bad = type(npair)(
            B0n=npair.B0n + 1e-3 * np.outer(decomp.K_basis[:, 0], decomp.K_basis[:, 1]),
            B1n=npair.B1n,
            provenance=npair.provenance,
        )
        with pytest.raises(StructureViolation):
            block_form(bad, decomp)


def _doctored(edits0, edits1):
    """kdeux(1, 1) normalized, with entries of frame^T B_i frame changed: each
    edit is ((row, col), value) in the frame, where k = 2 and k' = 1."""
    npair = normalize(kdeux(1.0, 1.0))
    decomp = common_kernel(npair)
    F = decomp.frame
    Bs = []
    for B, edits in ((npair.B0n, edits0), (npair.B1n, edits1)):
        M = F.T @ B @ F
        for (i, j), value in edits:
            M[i, j] = value
        Bs.append(F @ M @ F.T)
    return NormalizedPair(B0n=Bs[0], B1n=Bs[1]), decomp


def _endpoint_D_max(decomp, B):
    """The largest eigenvalue of D^T + D at one endpoint, one matrix alone."""
    D = (decomp.frame.T @ B @ decomp.frame)[2:, 2:]
    return np.linalg.eigvalsh(D + D.T)[-1]


class TestBlockFormCheckOrder:
    """One eigvalsh covers all three D samples, yet with two violations the
    first one in the order A, top-right, D at B0, then at B1, then inside
    (0, 1), is the one raised."""

    def test_endpoint_D_of_B0_before_A_of_B1(self):
        npair, decomp = _doctored([((2, 2), 0.5)], [((0, 0), 1e-3)])
        w = _endpoint_D_max(decomp, npair.B0n)
        with pytest.raises(StructureViolation) as err:
            block_form(npair, decomp)
        assert str(err.value) == f"D^T + D has positive eigenvalue {w:.3e} at an endpoint"

    def test_A_of_B0_before_its_own_D(self):
        npair, decomp = _doctored([((0, 0), 1e-3), ((2, 2), 0.5)], [])
        with pytest.raises(StructureViolation) as err:
            block_form(npair, decomp)
        assert str(err.value) == "top-left block is not skew-symmetric; pair not normalized?"

    def test_top_right_of_B1_before_the_interior(self):
        # D0 = D1 = 0 passes at both endpoints and fails at every interior lambda
        npair, decomp = _doctored([((2, 2), 0.0)], [((2, 2), 0.0), ((0, 2), 0.7)])
        with pytest.raises(StructureViolation) as err:
            block_form(npair, decomp)
        assert str(err.value) == "top-right block does not equal -C^T"

    def test_interior_reports_the_first_lambda(self):
        npair, decomp = _doctored([((2, 2), 0.0)], [((2, 2), 0.0)])
        with pytest.raises(StructureViolation) as err:
            block_form(npair, decomp)
        assert str(err.value).startswith("D_lam^T + D_lam not negative definite at lam = 0.5 ")

    @pytest.mark.parametrize("eps", [1.5e-8, 2.5e-8, 3e-8, 3.9e-8])
    def test_quarter_sample_decides_a_convex_pair(self, eps):
        """B1 = B0 - diag(0, eps/2, 0): K = span(e1) and the largest eigenvalue
        of D_lam^T + D_lam is -lam eps, convex in lam.  For eps > 2e-8 it
        clears -10 tol at lam = 1/2, so the pair ends GUAS_C_injective; a
        sample at lam = 1/4, which it does not clear below eps = 4e-8, used to
        refuse it (exit 5).  At eps = 1.5e-8 it fails the absolute -10 tol
        bound at lam = 1/2 too."""
        B0 = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, -0.5]])
        pair = MatrixPair(B0, B0 - np.diag([0.0, eps / 2, 0.0]))
        npair = normalize(pair)
        decomp = common_kernel(npair)
        assert decomp.k == 1 and np.isinf(decomp.rank_margin)
        np.testing.assert_array_equal(np.abs(decomp.K_basis[:, 0]), [1.0, 0.0, 0.0])
        options = AnalyzerOptions(with_evidence=False)
        if eps > 2e-8:
            assert analyze(pair, options=options).conclusion == "GUAS_C_injective"
            return
        with pytest.raises(StructureViolation) as err:
            block_form(npair, decomp)
        assert str(err.value) == (
            f"D_lam^T + D_lam not negative definite at lam = 0.5 "
            f"(max eigenvalue {-0.5 * eps:.3e}); kernel rank may be ambiguous"
        )
        with pytest.raises(StructureViolation):
            analyze(pair, options=options)


class TestSpectralNorms:
    def test_match_norm_2(self, normalized_corpus):
        for name, npair in normalized_corpus.items():
            decomp = common_kernel(npair)
            if decomp.k == 0:
                continue
            blocks = block_form(npair, decomp)
            expected = [
                np.linalg.norm(M, 2)
                for M in (blocks.A0, blocks.A1, blocks.A1 - blocks.A0,
                          blocks.C0, blocks.C1, blocks.C1 - blocks.C0)
            ]
            assert list(blocks.norms) == expected, name

    def test_computed_once_and_empty_C(self, monkeypatch):
        """k' = 0: C is 0 x k and its norms are 0; one SVD for the A stack,
        none on a second read."""
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        npair = NormalizedPair(B0n=A, B1n=2.0 * A)
        blocks = block_form(npair, common_kernel(npair))
        assert blocks.k_prime == 0
        calls = []
        original = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        norms = blocks.norms
        assert blocks.norms is norms
        assert len(calls) == 1
        assert norms.C0 == norms.C1 == norms.dC == 0.0
        assert norms.A0 == pytest.approx(1.0) and norms.dA == pytest.approx(1.0)


class TestKernelLemma:
    def test_endpoint_kernels_can_be_larger(self):
        # B0 fully skew: its symmetric part vanishes, so its kernel is the
        # whole space even though the common kernel stays 2-dimensional
        B0 = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        B1 = assemble(
            np.array([[0.0, -1.0], [1.0, 0.0]]),
            np.array([[0.0, 1.0]]),
            np.array([[-1.0]]),
        )
        npair = normalize(MatrixPair(B0, B1, np.eye(3)))
        assert numerical_rank(npair.S0).basis.shape[1] == 3
        assert numerical_rank(npair.S1).basis.shape[1] == 2
        assert common_kernel(npair).k == 2
