"""Property suites for the certified lambda sweep and the G decision.

Every observable_for_all_lambda report must hold between its evaluation
points, and every fails_at witness must be (numerically) unobservable.
The families include C1 = -c C0, whose output vanishes at lam* = 1/(1 + c),
and families built to be unobservable at a random lam* off the grid.  On
random k = 3, k' = 2 families, the points of G that scan_G reports must
pass in_G, and in_G along the curve F ∩ S must find no other point of G.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from guas_cert import (  # noqa: E402
    in_G,
    kalman_matrix,
    locus_geometry,
    scan_G,
    sweep_lambda,
)
from guas_cert.decomposition import BlockFamily  # noqa: E402

from conftest import skew  # noqa: E402

KINDS = ("random", "opposed", "off_grid")


def family(kind, k, k_prime, seed, lam_star):
    rng = np.random.default_rng(seed)
    A0, A1 = skew(rng, k), skew(rng, k)
    C0 = rng.standard_normal((k_prime, k))
    C1 = rng.standard_normal((k_prime, k))
    if kind == "opposed":  # C_lam = (1 - lam (1 + c)) C0
        C1 = -(1.0 / lam_star - 1.0) * C0
    elif kind == "off_grid":  # A_lam* = 0 and C_lam* v = 0
        v = rng.standard_normal(k)
        v /= np.linalg.norm(v)
        A1 = (1.0 - 1.0 / lam_star) * A0
        C1 = C0 - np.outer(C0 @ v, v) / lam_star
    return BlockFamily(A0=A0, A1=A1, C0=C0, C1=C1,
                       D0=-np.eye(k_prime), D1=-np.eye(k_prime),
                       k=k, k_prime=k_prime, frame=np.eye(k + k_prime))


def sigma_k(blocks, lams):
    lam = lams[:, None, None]
    O = kalman_matrix(blocks.C(lam), blocks.A(lam))
    return np.linalg.svd(O, compute_uv=False)[:, blocks.k - 1]


@given(
    kind=st.sampled_from(KINDS),
    k=st.integers(1, 3),
    k_prime=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    lam_star=st.floats(0.05, 0.95),
)
def test_sweep_verdicts_hold(kind, k, k_prime, seed, lam_star):
    blocks = family(kind, k, k_prime, seed, lam_star)
    report = sweep_lambda(blocks)
    if kind != "random":
        assert report.verdict != "observable_for_all_lambda"
    if report.verdict == "observable_for_all_lambda":
        lams = np.random.default_rng(seed).uniform(0.0, 1.0, 2000)
        sigma = sigma_k(blocks, lams)
        assert sigma.min() > report.cert_threshold
        assert sigma.min() >= report.margin - 1e-12
    elif report.verdict == "fails_at":
        x = report.witness[:, 0]
        O = kalman_matrix(blocks.C(report.lambda_star), blocks.A(report.lambda_star))
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(O @ x) <= report.tol


#: in_G tolerance of the curve oracle.  A wider band also admits near
#: misses (a complex root pair close to the real axis, a root just outside
#: [0, 1]) far from every point of G.
ORACLE_TOL = 1e-4


@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1))
def test_scan_finds_every_tangency_point(seed):
    blocks = family("random", 3, 2, seed, 0.5)
    report = scan_G(locus_geometry(blocks), sweep_lambda(blocks))
    if report.verdict != "discrete":
        return
    assert len(report.roots) <= report.degree
    assert np.all(in_G(blocks, report.points, 1e-6)[0])
    lams = np.linspace(0.0, 1.0, 10_001)
    C = blocks.C(lams[:, None, None])
    n = np.cross(C[:, 0], C[:, 1])  # spans ker C_lam
    member = in_G(blocks, n / np.linalg.norm(n, axis=1, keepdims=True), ORACLE_TOL)[0]
    gap = np.abs(lams[member, None] - report.roots)
    assert np.all(np.min(gap, axis=1, initial=np.inf) <= 1e-2)
