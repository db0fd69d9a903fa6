"""Property suites for the certified lambda sweep and the G decision.

Every observable_for_all_lambda report must hold between its evaluation
points, and every fails_at witness must be (numerically) unobservable.
The families include C1 = -c C0, whose output vanishes at lam* = 1/(1 + c),
and families built to be unobservable at a random lam* off the grid.  On
random k = 3, k' = 2 families, the points of G that scan_G reports must
pass in_G, and in_G along the curve F ∩ S must find no other point of G;
its verdict and margin must be those of a reference curve rule by
numpy.polynomial, and its roots within 1e-9 of the reference's.
On every family, the bisection from its first pass must reach the
verdicts of the one from every grid point, and refute only where the value
is below the floor.  With k' >= k, analyze decides C-injectivity before the
Kalman sweep; it must reach the conclusions of the sweep-first order, or
prove GUAS_C_injective where that order was inconclusive.  On families
with one drift, a Hautus bound that certifies must lie below
sigma_min([A_lam - i w I; C_lam]) on a dense (lam, w) grid, and the
Kalman sweep must not refute; an output that misses an invariant plane or
line at an off-grid lam* is never certified, and the sweep refutes it.
"""

from unittest import mock

import numpy as np
import pytest
from numpy.polynomial import Polynomial

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from guas_cert import (  # noqa: E402
    AnalyzerOptions,
    MatrixPair,
    analyze,
    block_form,
    common_kernel,
    in_G,
    kalman_matrix,
    normalize,
    observability,
    scan_G,
    sweep_lambda,
)
from guas_cert.bad_locus import NODES  # noqa: E402
from guas_cert.decomposition import BlockFamily  # noqa: E402
from guas_cert.errors import NotHurwitz  # noqa: E402
from guas_cert.gallery import assemble  # noqa: E402
from guas_cert.observability import (  # noqa: E402
    CERT_FACTOR,
    _hautus_bound,
    sigma_C_bisection,
    sweep_scale,
)

from conftest import block_pair, full_grid_bisection, skew, stable_block  # noqa: E402

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
    return BlockFamily(A0=A0, A1=A1, C0=C0, C1=C1)


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
    report = sweep_lambda(blocks, sweep_scale(blocks))
    if kind != "random":
        assert report.verdict != "observable_for_all_lambda"
    if report.verdict == "observable_for_all_lambda":
        lams = np.random.default_rng(seed).uniform(0.0, 1.0, 2000)
        sigma = sigma_k(blocks, lams)
        assert sigma.min() > report.scale.cert_threshold
        assert sigma.min() >= report.margin - 1e-12
    elif report.verdict == "fails_at":
        x = report.witness[:, 0]
        O = kalman_matrix(blocks.C(report.lambda_star), blocks.A(report.lambda_star))
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(O @ x) <= report.scale.floor


@given(
    kind=st.sampled_from(KINDS),
    k=st.integers(1, 3),
    k_prime=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    lam_star=st.floats(0.05, 0.95),
)
# sigma_k with zeros near 0.1557 and 0.9443: the runs refute at different ones
@example(kind="random", k=3, k_prime=1, seed=0, lam_star=0.5)
# every interval splits down to the grid: the refutation takes 4 probes more
@example(kind="off_grid", k=3, k_prime=1, seed=0, lam_star=0.05078125)
# sigma_3(C_lam) with zeros near 0.1360 and 0.5679: the same for injectivity
@example(kind="random", k=3, k_prime=3, seed=121247471, lam_star=0.3831241710208854)
@example(kind="random", k=2, k_prime=2, seed=726683410, lam_star=0.5)
@example(kind="off_grid", k=2, k_prime=2, seed=2270459934, lam_star=0.06428332554486002)
def test_lazy_cover_matches_full_grid(kind, k, k_prime, seed, lam_star):
    """The sweep and the sigma_j(C_lam) bisection reach the verdict of the
    run from every grid point.  The two runs hand the secant probe
    different neighbours, so two refutations may stop at different zeros,
    or at different lambdas near one zero; each must be a lambda where the
    recomputed value is below its floor.  Unless the sweep refutes, it
    evaluates no more lambdas than the reference; a refutation can take
    another path and count either way."""
    blocks = family(kind, k, k_prime, seed, lam_star)
    j = min(k, k_prime)
    scale = sweep_scale(blocks)
    lazy = sweep_lambda(blocks, scale)
    with mock.patch.object(observability, "weyl_bisection", full_grid_bisection):
        full = sweep_lambda(blocks, scale)
        full_C = sigma_C_bisection(blocks, j, scale)
    assert lazy.verdict == full.verdict
    if full.verdict == "fails_at":
        for report in (lazy, full):
            assert sigma_k(blocks, np.array([report.lambda_star]))[0] < scale.floor
    else:
        assert lazy.n_evals <= full.n_evals
    lazy_C = sigma_C_bisection(blocks, j, scale)
    assert lazy_C.verdict == full_C.verdict
    if full_C.verdict == "refuted":
        # its floor is cert_threshold = CERT_FACTOR tol_eff
        for run in (lazy_C, full_C):
            C = blocks.C(run.lambda_star)
            assert np.linalg.svd(C, compute_uv=False)[j - 1] < scale.cert_threshold
    assert lazy_C.n_evals <= full_C.n_evals


@given(
    k=st.integers(1, 3),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    lam_star=st.floats(0.05, 0.95),
)
def test_opposed_refutes_in_few_calls(k, data, seed, lam_star):
    """C_lam = (1 - lam / lam*) C0 with k' >= k, so (C0, A_lam) is observable
    and lam* is the one zero of sigma_k: the secant probes refute within 8
    batched sigma calls, within 1e-8 of lam* unless the floor admits more."""
    k_prime = data.draw(st.integers(k, 3))
    blocks = family("opposed", k, k_prime, seed, lam_star)
    calls = []
    bisection = observability.weyl_bisection

    def counting(sigma, *args):
        def counted(lams):
            calls.append(len(lams))
            return sigma(lams)
        return bisection(counted, *args)

    scale = sweep_scale(blocks)
    with mock.patch.object(observability, "weyl_bisection", counting):
        report = sweep_lambda(blocks, scale)
    assert report.verdict == "fails_at"
    assert len(calls) <= 8
    # sigma_k(O(lam)) = |1 - lam / lam*| sigma_k(O_0(lam)), O_0 the Kalman
    # matrix of (C0, A_lam): a value below tol lies within about
    # lam* tol / sigma_k(O_0(lam*)) of lam*
    O_0 = kalman_matrix(blocks.C0, blocks.A(lam_star))
    reach = lam_star * scale.floor / np.linalg.svd(O_0, compute_uv=False)[k - 1]
    assert abs(report.lambda_star - lam_star) <= max(1e-8, 1.01 * reach)


#: in_G tolerance of the curve oracle.  A wider band also admits near
#: misses (a complex root pair close to the real axis, a root just outside
#: [0, 1]) far from every point of G.
ORACLE_TOL = 1e-4


@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1))
def test_scan_finds_every_tangency_point(seed):
    blocks = family("random", 3, 2, seed, 0.5)
    report = scan_G(blocks, sweep_scale(blocks))
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


def reference_curve_rule(blocks, tol=1e-9):
    """The curve rule at k = 3, k' = 2 by per-column minors, np.linalg.norm
    and Polynomial.fit: its verdict, the margin of the tangency residual g
    along F ∩ S at NODES, and the real roots in [0, 1] of the first
    component of n_sq g, with the same top trim."""
    C = blocks.C(NODES[:, None, None])
    n = np.stack([(-1.0) ** i * np.linalg.det(np.delete(C, i, axis=-1))
                  for i in range(3)], axis=-1)
    n_sq = np.sum(n * n, axis=-1)
    x, lam = n / np.sqrt(n_sq)[:, None], NODES[:, None]
    Ax = (1.0 - lam) * (x @ blocks.A0.T) + lam * (x @ blocks.A1.T)
    c0, c1 = x @ blocks.C0.T, x @ blocks.C1.T
    a0, a1 = Ax @ blocks.C0.T, Ax @ blocks.C1.T
    norm = np.linalg.norm
    scale = 1.0 + norm(a0, axis=-1) * norm(c1, axis=-1) + norm(c0, axis=-1) * norm(a1, axis=-1)
    g = (a0[:, :1] * c1[:, 1:] - a0[:, 1:] * c1[:, :1]
         + (c0[:, :1] * a1[:, 1:] - c0[:, 1:] * a1[:, :1]))  # the 2-vector wedges
    margin = float(np.max(norm(g, axis=-1) / scale, initial=0.0))
    if margin <= CERT_FACTOR * tol:
        return "not_discrete", margin, np.empty(0)
    fit = Polynomial.fit(NODES, n_sq * g[:, 0], 5)
    r = fit.trim(1e-12 * np.abs(fit.coef).max()).roots()
    r = r.real[(np.abs(r.imag) <= 1e-6) & (np.abs(r.real - 0.5) <= 0.5 + 1e-9)]
    return "discrete", margin, np.clip(np.sort(r), 0.0, 1.0)


@given(seed=st.integers(0, 2**32 - 1))
def test_curve_rule_matches_polynomial_reference(seed):
    blocks = family("random", 3, 2, seed, 0.5)
    report = scan_G(blocks, sweep_scale(blocks))
    if report.rule != "curve":  # a gate or the sigma_C bisection stopped it
        return
    verdict, margin, roots = reference_curve_rule(blocks)
    assert (report.verdict, report.margin) == (verdict, margin)
    assert report.roots.shape == roots.shape
    np.testing.assert_allclose(report.roots, roots, rtol=0, atol=1e-9)


def sweep_first(pair, tol=1e-9):
    """The analyzer's branch order with the Kalman sweep first and the
    sigma_k(C_lam) bisection after it: the conclusion, the blocks and the
    sweep's report, for a pair with a nontrivial kernel."""
    npair = normalize(pair)
    blocks = block_form(npair, common_kernel(npair, tol), tol)
    scale = sweep_scale(blocks, 257, tol)
    sweep = sweep_lambda(blocks, scale)
    if sweep.verdict == "fails_at":
        return "NOT_GUAS_constant_input", blocks, sweep
    if sweep.verdict == "observable_for_all_lambda":
        if (blocks.k_prime >= blocks.k
                and sigma_C_bisection(blocks, blocks.k, scale).verdict == "certified"):
            return "GUAS_C_injective", blocks, sweep
        if blocks.k <= 2:
            return "GUAS_dimK_le2", blocks, sweep
        if scan_G(blocks, scale).verdict == "discrete":
            return "GUAS_G_discrete", blocks, sweep
    return "INCONCLUSIVE", blocks, sweep


@given(
    source=st.sampled_from(KINDS + ("shared_C",)),
    k=st.integers(1, 4),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    lam_star=st.floats(0.05, 0.95),
)
def test_injectivity_first_keeps_the_sweep_first_conclusions(source, k, data, seed, lam_star):
    """With k' >= k, analyze ends GUAS_C_injective without the Kalman sweep
    where sigma_k(C_lam) is proved above the threshold, and otherwise hands
    the sweep that bisection's lam* first.  The conclusion is the
    sweep-first one, or GUAS_C_injective where that was INCONCLUSIVE; a
    certified family is never refuted by the sweep, and its bound holds for
    sigma_k of C_lam and of O(lam) between the evaluated points; every
    refutation's lam* has its recomputed sigma_k(O(lam*)) below tol_eff."""
    k_prime = data.draw(st.integers(k, 4))
    rng = np.random.default_rng(seed)
    if source == "shared_C":
        pair = block_pair(rng, k, k_prime, shared_C=True)
    else:
        b = family(source, k, k_prime, seed, lam_star)
        pair = MatrixPair(assemble(b.A0, b.C0, stable_block(rng, k_prime)),
                          assemble(b.A1, b.C1, stable_block(rng, k_prime)))
    try:
        v = analyze(pair, options=AnalyzerOptions(with_evidence=False))
    except NotHurwitz:  # an endpoint pair (C_i, A_i) happens to be unobservable
        assume(False)
    conclusion, blocks, sweep = sweep_first(pair)
    assert blocks.k == k
    if v.conclusion != conclusion:
        assert (conclusion, v.conclusion) == ("INCONCLUSIVE", "GUAS_C_injective")
    if v.conclusion == "GUAS_C_injective":
        bound = v.certificate["min_sigma_C_lower_bound"]
        assert bound > sweep_scale(blocks).cert_threshold
        assert v.margins["observability_margin"] == bound
        assert sweep.verdict != "fails_at"
        lams = np.random.default_rng(seed).uniform(0.0, 1.0, 500)
        C = blocks.C(lams[:, None, None])
        assert np.linalg.svd(C, compute_uv=False)[:, k - 1].min() >= bound - 1e-12
        assert sigma_k(blocks, lams).min() >= bound - 1e-12
    elif v.conclusion == "NOT_GUAS_constant_input":
        lam = v.certificate["lambda_star"]
        assert sigma_k(blocks, np.array([lam]))[0] < sweep_scale(blocks).floor


@pytest.mark.parametrize("c", [0.7391, 2.0, 3.7])
def test_vanishing_output_refutes_at_the_injectivity_lambda(c):
    """k = k' = 2 with C1 = -c C0, so C_lam = (1 - lam (1 + c)) C0 vanishes
    at lam* = 1/(1 + c).  The sigma_2(C_lam) bisection does not certify,
    and sigma_2(O) at its lam* is already below tol_eff: the sweep refutes
    there with one Kalman evaluation after the scale's three, and lam* is
    within 1e-9 of 1/(1 + c)."""
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    C0 = np.array([[1.0, 0.3], [0.2, 1.0]])
    pair = MatrixPair(assemble(J, C0, -np.eye(2)), assemble(2.0 * J, -c * C0, -2.0 * np.eye(2)))
    v = analyze(pair, options=AnalyzerOptions(with_evidence=False))
    assert v.conclusion == "NOT_GUAS_constant_input"
    assert abs(v.certificate["lambda_star"] - 1.0 / (1.0 + c)) <= 1e-9
    npair = normalize(pair)
    blocks = block_form(npair, common_kernel(npair))
    scale = sweep_scale(blocks)
    run = sigma_C_bisection(blocks, 2, scale)
    assert run.verdict != "certified"
    assert v.certificate["lambda_star"] == run.lambda_star
    assert v.grid["lambda_evals"] == run.n_evals + scale.n_evals + 1


def one_drift(k, k_prime, seed, nudge):
    """A family whose drift moves by ``nudge`` in the spectral norm (0: one
    drift exactly), with random outputs."""
    rng = np.random.default_rng(seed)
    A0, dA = skew(rng, k), skew(rng, k)
    if k > 1:
        dA *= nudge / np.linalg.norm(dA, 2)
    C0 = rng.standard_normal((k_prime, k))
    C1 = rng.standard_normal((k_prime, k))
    return BlockFamily(A0=A0, A1=A0 + dA, C0=C0, C1=C1)


def vanishing_subspace(k, k_prime, seed, lam_star, line):
    """One drift A = Q R Q^T, R rotation blocks at distinct random rates
    (and a zero for odd k), whose output misses one invariant subspace U
    at lam*: C1 = C0 - C0 U U^T / lam*, so C_lam* U = 0.  U is the first
    rotation plane, or with ``line`` (or k = 1) the kernel line of A."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((k, k)))[0]
    R = np.zeros((k, k))
    for j, rate in enumerate(np.sort(rng.uniform(0.5, 3.0, k // 2)) + np.arange(k // 2)):
        R[2 * j, 2 * j + 1], R[2 * j + 1, 2 * j] = -rate, rate
    U = Q[:, -1:] if (line and k % 2) or k == 1 else Q[:, :2]
    A = Q @ R @ Q.T
    A = 0.5 * (A - A.T)
    C0 = rng.standard_normal((k_prime, k))
    return BlockFamily(A0=A, A1=A, C0=C0, C1=C0 - (C0 @ U) @ U.T / lam_star)


@given(
    k=st.integers(1, 6),
    k_prime=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    nudge=st.sampled_from([0.0, 1e-15, 1e-10]),
)
def test_hautus_bound_holds_between_its_candidates(k, k_prime, seed, nudge):
    """A one-drift family (k' < k and k' >= k) that the Hautus bound
    certifies has its bound at most sigma_min([A_lam - i w I; C_lam]) on a
    dense (lam, w) grid that holds every theta_j of i A_(1/2), and the
    Kalman sweep at unit scale does not refute it."""
    blocks = one_drift(k, k_prime, seed, nudge)
    scale = sweep_scale(blocks)
    report = sweep_lambda(blocks, scale)
    if report.test != "hautus":
        return
    assert report.verdict == "observable_for_all_lambda"
    assert report.margin > scale.cert_threshold
    theta = np.linalg.eigvalsh(0.5j * (blocks.A0 + blocks.A1))
    top = np.abs(theta).max() + 1.0
    omega = np.concatenate([np.linspace(-top, top, 65), theta, -theta])
    lam = np.linspace(0.0, 1.0, 25)[:, None, None, None]
    shifted = blocks.A(lam) - 1j * omega[:, None, None] * np.eye(k)
    C = np.broadcast_to(blocks.C(lam), (25, len(omega), k_prime, k))
    pbh = np.linalg.svd(np.concatenate([shifted, C], axis=-2), compute_uv=False)
    assert report.margin <= pbh[..., -1].min() + 1e-12  # rounding of the SVD
    with mock.patch.object(observability, "_hautus_bound", lambda b, t: (0.0, 0)):
        kalman = sweep_lambda(blocks, scale)
    assert kalman.test == "kalman" and kalman.verdict != "fails_at"


@given(
    k=st.integers(1, 6),
    k_prime=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    lam_star=st.floats(0.05, 0.95),
    line=st.booleans(),
)
def test_vanishing_subspace_is_never_certified(k, k_prime, seed, lam_star, line):
    """One drift whose output misses an invariant plane or line at an
    off-grid lam*: the Hautus bound stays at or below the threshold, and
    the Kalman sweep refutes with a witness below the floor."""
    blocks = vanishing_subspace(k, k_prime, seed, lam_star, line)
    scale = sweep_scale(blocks)
    assert _hautus_bound(blocks, scale.cert_threshold)[0] <= scale.cert_threshold
    report = sweep_lambda(blocks, scale)
    assert (report.verdict, report.test) == ("fails_at", "kalman")
    O = kalman_matrix(blocks.C(report.lambda_star), blocks.A(report.lambda_star))
    assert np.linalg.norm(O @ report.witness[:, 0]) <= scale.floor
