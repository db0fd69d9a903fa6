from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from guas_cert import (
    MatrixPair,
    analyze,
    check_weak_lyapunov,
    is_hurwitz,
    normalize,
    strict_lyapunov_2x2,
    symmetric_part,
)
from guas_cert.errors import (
    DimensionMismatch,
    NoCommonWeakLyapunov,
    NonFiniteInput,
    NotHurwitz,
    NotPositiveDefinite,
)
from guas_cert.gallery import mason

S2 = np.sqrt(2.0)


class TestSymmetricPart:
    def test_rotation_damped(self):
        B = np.array([[-1.0, -1.0], [1.0, -1.0]])
        np.testing.assert_allclose(symmetric_part(B), -2.0 * np.eye(2))

    def test_zero(self):
        np.testing.assert_array_equal(symmetric_part(np.zeros((3, 3))), 0.0)

    def test_skew_gives_zero(self):
        B = np.array([[0.0, 2.0, -1.0], [-2.0, 0.0, 3.0], [1.0, -3.0, 0.0]])
        np.testing.assert_allclose(symmetric_part(B), 0.0, atol=1e-15)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(0)
        S = symmetric_part(rng.standard_normal((5, 5)))
        np.testing.assert_array_equal(S, S.T)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            symmetric_part(np.ones((2, 3)))


class TestCheckWeakLyapunov:
    def test_mason_pair_holds_with_zero_determinant(self):
        pair = mason()
        v0, v1 = check_weak_lyapunov(pair)
        assert v0.holds and v1.holds
        for B in (pair.B0, pair.B1):
            M = B.T @ pair.P + pair.P @ B
            assert abs(np.linalg.det(M)) < 1e-9
        M0 = pair.B0.T @ pair.P + pair.P @ pair.B0
        np.testing.assert_allclose(
            M0,
            [[-2.0, 2.0 + 2.0 * S2], [2.0 + 2.0 * S2, -2.0 * (3.0 + 2.0 * S2)]],
            atol=1e-12,
        )

    def test_strict_negative_case(self):
        pair = MatrixPair(-np.eye(2), -np.eye(2), np.eye(2))
        v0, v1 = check_weak_lyapunov(pair)
        assert v0.holds and v1.holds
        assert v0.max_eigenvalue == pytest.approx(-2.0)

    def test_positive_scalar_fails_with_witness(self):
        pair = MatrixPair([[1.0]], [[-1.0]], [[1.0]])
        v0, _ = check_weak_lyapunov(pair)
        assert not v0.holds
        X = v0.witness
        S = 2.0 * np.array([[1.0]])
        assert X @ S @ X > 0

    def test_rejects_indefinite_P(self):
        """A P given to analyze is validated before any form is checked."""
        pair = MatrixPair(-np.eye(2), -np.eye(2))
        with pytest.raises(NotPositiveDefinite):
            analyze(pair, np.diag([1.0, -1.0]))

    def test_rejects_P_of_wrong_size(self):
        pair = MatrixPair(-np.eye(2), -np.eye(2))
        with pytest.raises(DimensionMismatch):
            analyze(pair, np.eye(3))

    def test_failure_only_at_B1_gets_its_own_witness(self):
        """Both forms share one eigvalsh; the witness comes from B1's form."""
        B1 = np.array([[-1.0, 0.0, 0.0], [3.0, -1.0, 0.0], [0.0, 1.0, -2.0]])
        P = np.diag([1.0, 2.0, 3.0])
        v0, v1 = check_weak_lyapunov(MatrixPair(-np.eye(3), B1, P))
        assert v0.holds and v0.witness is None
        assert not v1.holds
        M1 = B1.T @ P + P @ B1
        x = v1.witness
        assert np.linalg.norm(x) == pytest.approx(1.0, rel=1e-12)
        assert x @ M1 @ x == pytest.approx(v1.max_eigenvalue, rel=1e-12)
        assert v1.max_eigenvalue == pytest.approx(np.linalg.eigvalsh(M1)[-1], rel=1e-12)


class TestNormalize:
    def test_identity_P_is_noop(self):
        pair = MatrixPair(-np.eye(2), [[-1.0, -1.0], [1.0, -1.0]], np.eye(2))
        npair = normalize(pair)
        np.testing.assert_allclose(npair.B0n, pair.B0)
        np.testing.assert_allclose(npair.B1n, pair.B1)

    def test_identity_is_copied_without_a_decomposition(self, monkeypatch):
        """With no P anywhere the pair is checked and copied bit for bit (a
        product with P^(1/2) = I would turn -0.0 into 0.0)."""
        pair = MatrixPair([[-1.0, -0.0], [0.0, -1.0]], [[-1.0, -1.0], [1.0, -1.0]])

        def forbidden(*args, **kwargs):
            raise AssertionError("P = I needs no eigendecomposition")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        npair = normalize(pair)
        for Bn, B in ((npair.B0n, pair.B0), (npair.B1n, pair.B1)):
            assert Bn.tobytes() == B.tobytes()
            assert not np.shares_memory(Bn, B)
        for key in ("P", "sqrt_P", "inv_sqrt_P"):
            np.testing.assert_array_equal(npair.provenance[key], np.eye(2))

    @pytest.mark.parametrize("given_P", [False, True])
    def test_P_validated_once(self, monkeypatch, given_P):
        """P is validated once whether the pair carries it or analyze gets
        it: normalize reuses the decomposition the pair kept."""
        import guas_cert.matrix_core as matrix_core

        m = mason()
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        original = matrix_core._check_spd
        monkeypatch.setattr(matrix_core, "_check_spd", counted)
        if given_P:
            analyze(MatrixPair(m.B0, m.B1), m.P)
        else:
            normalize(MatrixPair(m.B0, m.B1, m.P))
        assert len(calls) == 1

    def test_mason_kernels_become_transverse(self):
        npair = normalize(mason())
        stacked = np.vstack([npair.S0, npair.S1])
        s = np.linalg.svd(stacked, compute_uv=False)
        assert s[-1] > 1e-6  # trivial intersection

    def test_spectrum_preserved(self):
        pair = mason()
        npair = normalize(pair)
        eig = np.sort_complex(np.linalg.eigvals(npair.B0n))
        np.testing.assert_allclose(eig, [-1.0 - 1.0j, -1.0 + 1.0j], atol=1e-12)

    def test_spectrum_preserved_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            M = rng.standard_normal((4, 4))
            B = M - (np.linalg.eigvalsh(M + M.T)[-1] / 2 + 0.3) * np.eye(4)
            Q = rng.standard_normal((4, 4))
            P = Q @ Q.T + 0.5 * np.eye(4)
            # make (B, P) weak-Lyapunov compatible by working backwards
            Pl = np.linalg.cholesky(P)
            Bp = np.linalg.inv(Pl.T) @ B @ Pl.T
            pair = MatrixPair(Bp, Bp, P)
            npair = normalize(pair)
            np.testing.assert_allclose(
                np.sort_complex(np.linalg.eigvals(npair.B0n)),
                np.sort_complex(np.linalg.eigvals(Bp)),
                atol=1e-8,
            )

    def test_normalized_forms_nonpositive_on_random_directions(self):
        npair = normalize(mason())
        rng = np.random.default_rng(11)
        X = rng.standard_normal((1000, 2))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        for S in (npair.S0, npair.S1):
            tol = 1e-9 * (1.0 + np.linalg.norm(S, "fro"))
            assert np.max(np.einsum("ij,jk,ik->i", X, S, X)) <= tol

    def test_rejects_incompatible_P(self):
        pair = MatrixPair([[1.0]], [[-1.0]], [[1.0]])
        with pytest.raises(NoCommonWeakLyapunov):
            normalize(pair)


    def test_pair_rejects_P_of_wrong_size(self):
        with pytest.raises(DimensionMismatch):
            MatrixPair(-np.eye(2), -np.eye(2), np.eye(3))

    def test_pair_rejects_asymmetric_P(self):
        with pytest.raises(NotPositiveDefinite, match="not symmetric"):
            MatrixPair(-np.eye(2), -np.eye(2), [[1.0, 0.5], [0.0, 1.0]])

    def test_pair_rejects_B0_and_B1_of_different_shapes(self):
        with pytest.raises(DimensionMismatch, match="identical shapes"):
            MatrixPair(-np.eye(2), -np.eye(3))

    def test_rejects_non_finite_entries(self):
        B0 = -np.eye(2)
        B0[0, 1] = np.nan
        pair = MatrixPair(B0, -np.eye(2))  # built, refused on use
        with pytest.raises(NonFiniteInput):
            normalize(pair)
        with pytest.raises(NonFiniteInput):
            analyze(MatrixPair(-np.eye(2), -np.eye(2)), np.diag([1.0, np.inf]))
        with pytest.raises(NonFiniteInput):
            MatrixPair(-np.eye(2), -np.eye(2), [[np.nan, 0.0], [0.0, 1.0]])


class TestIsHurwitz:
    def test_minus_identity(self):
        res = is_hurwitz(-np.eye(3))
        assert res.hurwitz and res.abscissa == pytest.approx(-1.0)
        assert not res.marginal

    def test_rotation_is_marginal(self):
        res = is_hurwitz([[0.0, 1.0], [-1.0, 0.0]])
        assert not res.hurwitz
        assert res.abscissa == pytest.approx(0.0, abs=1e-12)
        assert res.marginal

    def test_damped_rotation(self):
        res = is_hurwitz([[-1.0, -1.0], [1.0, -1.0]])
        assert res.hurwitz and res.abscissa == pytest.approx(-1.0)

    def test_stack_matches_single_calls(self):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((3, 4, 4)) - 1.5 * np.eye(4)
        B[1] = [[0.0, 1.0, 0, 0], [-1.0, 0.0, 0, 0], [0, 0, -1.0, 0], [0, 0, 0, -1.0]]
        stacked = is_hurwitz(B)
        for i in range(3):
            single = is_hurwitz(B[i])
            assert isinstance(single.hurwitz, bool)
            assert stacked.abscissa[i] == single.abscissa
            assert stacked.hurwitz[i] == single.hurwitz
            assert stacked.marginal[i] == single.marginal
        assert stacked.marginal[1] and not stacked.hurwitz[1]

    def test_analyze_names_the_endpoint_that_fails(self):
        """One eigvals covers both endpoints; the refusal still names B1 and
        gives the abscissa a call on B1 alone gives."""
        B1 = np.array([[0.1, 2.0, 0.0], [-2.0, 0.1, 0.0], [0.0, 0.0, -1.0]])
        with pytest.raises(NotHurwitz) as err:
            analyze(MatrixPair(-np.eye(3), B1))
        abscissa = is_hurwitz(B1).abscissa
        assert abscissa > 0.0
        assert str(err.value) == f"B1 is not Hurwitz (unstable, abscissa {abscissa:.3e})"


class TestStrictLyapunov2x2:
    def test_mason_has_none_with_tangent_ellipses(self):
        res = strict_lyapunov_2x2(mason())
        assert not res.found
        v0 = sorted(res.vertex_ordinates[0])
        v1 = sorted(res.vertex_ordinates[1])
        np.testing.assert_allclose(v0, [3.0 - 2.0 * S2, 3.0 + 2.0 * S2], rtol=1e-8)
        np.testing.assert_allclose(v1, [3.0 + 2.0 * S2, 99.0 + 70.0 * S2], rtol=1e-8)

    def test_identical_contractions(self):
        res = strict_lyapunov_2x2(MatrixPair(-np.eye(2), -np.eye(2)))
        assert res.found
        _assert_strict(res, MatrixPair(-np.eye(2), -np.eye(2)))

    def test_mixed_pair_found(self):
        pair = MatrixPair(-np.eye(2), [[-1.0, -1.0], [1.0, -1.0]])
        res = strict_lyapunov_2x2(pair)
        assert res.found
        _assert_strict(res, pair)

    def test_recovers_known_strict_P(self):
        # build a pair that is strict exactly at P = [[1, q], [q, r]]
        q, r = 0.3, 1.7
        P = np.array([[1.0, q], [q, r]])
        L = np.linalg.cholesky(P)
        B = np.array([[-1.0, 2.0], [-2.0, -1.0]])
        Bp = np.linalg.inv(L.T) @ B @ L.T
        pair = MatrixPair(Bp, 2.0 * Bp)
        res = strict_lyapunov_2x2(pair)
        assert res.found
        _assert_strict(res, pair)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            strict_lyapunov_2x2(MatrixPair(-np.eye(3), -np.eye(3)))


def _random_hurwitz_pairs(n):
    """Seeded standard-normal Hurwitz pairs; B0[1, 0] = 0 in every fifth."""
    rng = np.random.default_rng(11)
    pairs = []
    while len(pairs) < n:
        B = rng.standard_normal((2, 2, 2))
        if len(pairs) % 5 == 0:
            B[0, 1, 0] = 0.0
        if is_hurwitz(B).hurwitz.all():
            pairs.append(MatrixPair(*B))
    return pairs


def _has_negative_real_eigenvalue(M):
    w = np.linalg.eigvals(M)
    return bool(np.any((w.imag == 0.0) & (w.real < 0.0)))


def test_found_exactly_when_shorten_narendra_holds():
    """Two Hurwitz 2x2 matrices have a strict common P exactly when neither
    B0 B1 nor B0 B1^{-1} has a negative real eigenvalue (Shorten and
    Narendra 2002); every P found passes the eigvalsh check."""
    found = 0
    for pair in _random_hurwitz_pairs(1000):
        res = strict_lyapunov_2x2(pair)
        exists = not any(_has_negative_real_eigenvalue(pair.B0 @ M)
                         for M in (pair.B1, np.linalg.inv(pair.B1)))
        assert res.found == exists
        if res.found:
            _assert_strict(res, pair)
            found += 1
    assert found == 833


@pytest.mark.parametrize("scale, found", [
    (1.0 - 1e-6, True), (1.0 - 1e-8, True), (1.0 + 1e-4, False),
])
def test_mason_perturbations(scale, found):
    """Shrinking B1[0, 1] opens a thin strict set that the search finds."""
    B1 = mason().B1.copy()
    B1[0, 1] *= scale
    pair = MatrixPair(mason().B0, B1)
    res = strict_lyapunov_2x2(pair)
    assert res.found == found
    if found:
        _assert_strict(res, pair)


def test_upper_triangular_pair_found_at_q_zero():
    """B0[1, 0] = B1[1, 0] = 0: every q has a strict interval unbounded above."""
    pair = MatrixPair([[-1.0, 5.0], [0.0, -2.0]], [[-3.0, -4.0], [0.0, -1.0]])
    res = strict_lyapunov_2x2(pair)
    assert res.found and res.P[0, 1] == 0.0
    _assert_strict(res, pair)


@pytest.mark.parametrize("B0, B1", [
    ([[1.0, 0.0], [1.0, -2.0]], -np.eye(2)),
    ([[0.0, 1.0], [-1.0, 0.0]], -np.eye(2)),
    # saddles: only an indefinite P = [[1, q], [q, r]] makes both M_i < 0
    ([[-1.0, 0.0], [0.0, 1.0]], [[-1.0, 0.0], [0.0, 1.0]]),
    ([[-1.0, 2.0], [1.0, -1.0]], [[-1.0, 2.0], [1.0, -1.0]]),
], ids=["unstable", "rotation", "diagonal-saddle", "saddle"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_hurwitz_pair_not_found(B0, B1):
    res = strict_lyapunov_2x2(MatrixPair(B0, B1))
    assert not res.found
    assert "no strict common quadratic Lyapunov" in res.message


def _exact_roots(B):
    """Real roots in r of det(B^T P + P B) at P = [[1, 0], [0, r]]: the
    quadratic is fitted through r = 0, 1, 2 in exact rational arithmetic on
    the float entries, then solved with a 50-digit square root."""
    B = [[Fraction(float(x)) for x in row] for row in B]

    def det_M(r):
        PB = [B[0], [r * x for x in B[1]]]
        M = [[PB[i][j] + PB[j][i] for j in range(2)] for i in range(2)]
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]

    f0, f1, f2 = det_M(0), det_M(1), det_M(2)
    alpha, beta, gamma = (f0 - 2 * f1 + f2) / 2, (-3 * f0 + 4 * f1 - f2) / 2, f0
    if alpha == 0:
        return [float(-gamma / beta)] if beta else []
    disc = beta * beta - 4 * alpha * gamma
    if disc < 0:
        return []
    with localcontext() as ctx:
        ctx.prec = 50
        root = (Decimal(disc.numerator) / Decimal(disc.denominator)).sqrt()
        beta, alpha = (Decimal(x.numerator) / Decimal(x.denominator) for x in (beta, alpha))
        return sorted(float((-beta + sign * root) / (2 * alpha)) for sign in (-1, 1))


def test_vertex_ordinates_match_exact_arithmetic():
    for pair in _random_hurwitz_pairs(200):
        res = strict_lyapunov_2x2(pair)
        for B, got in zip((pair.B0, pair.B1), res.vertex_ordinates):
            want = _exact_roots(B)
            assert len(got) == len(want)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def _assert_strict(res, pair):
    for B in (pair.B0, pair.B1):
        M = B.T @ res.P + res.P @ B
        assert np.linalg.eigvalsh(M)[-1] < -1e-9
