import json
from collections import Counter

import numpy as np
import pytest

from guas_cert import (
    AnalyzerOptions,
    MatrixPair,
    SwitchingSignal,
    analyze,
    block_form,
    common_kernel,
    integrate,
    kalman_matrix,
    normalize,
    output_measure,
    sweep_lambda,
)
from guas_cert.errors import NoCommonWeakLyapunov, NonFiniteInput, NotHurwitz
from guas_cert.observability import sigma_C_bisection
from guas_cert.gallery import kdeux, mason, shared_output, torus

FAST = AnalyzerOptions(evidence_runs=4, evidence_T=20.0, evidence_dt=1e-2)


class TestBranches:
    def test_mason_trivial_kernel(self):
        v = analyze(mason(), mason().P, options=FAST)
        assert v.conclusion == "GUAS_trivial_kernel"
        assert v.guas
        assert v.margins["rank_margin"] > 1e3

    def test_ambiguous_kernel_rank_is_inconclusive(self):
        """S0 = S1 = diag(-2, -2e-8, -2e-9): the smallest kept and the largest
        discarded singular value of [S0; S1] are only a factor 10 apart."""
        B = np.array([[-1.0, 1.0, 0.0], [-1.0, -1e-8, 1.0], [0.0, -1.0, -1e-9]])
        v = analyze(MatrixPair(B, B), options=FAST)
        assert v.conclusion == "INCONCLUSIVE"
        assert v.branch == "kernel rank ambiguous"
        assert v.margins["rank_margin"] == pytest.approx(10.0)

    def test_kdeux_same_sign_dim2(self):
        v = analyze(kdeux(1.0, 1.0), np.eye(3), options=FAST)
        assert v.conclusion == "GUAS_dimK_le2"
        assert v.guas

    def test_kdeux_opposite_sign_refuted(self):
        v = analyze(kdeux(1.0, -1.0), np.eye(3), options=FAST)
        assert v.conclusion == "NOT_GUAS_constant_input"
        assert not v.guas
        lam = v.certificate["lambda_star"]
        assert lam == pytest.approx(0.5, abs=1e-6)
        w = np.asarray(v.certificate["witness"], float)
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("b", [-1.7391, -3.7, -5.1])
    def test_kdeux_off_grid_refuted(self, b):
        """lam* = 1/(1 - b) lies between grid points; the sweep still finds it."""
        v = analyze(kdeux(1.0, b), np.eye(3), options=FAST)
        assert v.conclusion == "NOT_GUAS_constant_input"
        lam = v.certificate["lambda_star"]
        assert lam == pytest.approx(1.0 / (1.0 - b), abs=1e-8)
        npair = normalize(kdeux(1.0, b), np.eye(3))
        blocks = block_form(npair, common_kernel(npair))
        O = kalman_matrix(blocks.C(lam), blocks.A(lam))
        x = np.asarray(v.certificate["witness"], float)
        assert np.linalg.norm(O @ x) <= sweep_lambda(blocks).tol

    def test_shared_output_injective(self):
        v = analyze(shared_output(), np.eye(4), options=FAST)
        assert v.conclusion == "GUAS_C_injective"
        assert v.guas

    def test_grid_counts_lambda_evals(self):
        """The sweep's and the injectivity bisection's lambdas, fewer than
        the grid has; none for a trivial kernel."""
        npair = normalize(shared_output(), np.eye(4))
        blocks = block_form(npair, common_kernel(npair))
        sweep = sweep_lambda(blocks)
        run = sigma_C_bisection(blocks, blocks.k, sweep)
        v = analyze(shared_output(), np.eye(4), options=FAST)
        assert v.grid == {"n_grid": 257, "lambda_evals": sweep.n_evals + run.n_evals}
        assert v.grid["lambda_evals"] < 257
        assert analyze(mason(), mason().P, options=FAST).grid["lambda_evals"] == 0

    def test_torus_inconclusive_with_decaying_evidence(self):
        v = analyze(torus(), options=FAST)
        assert v.conclusion == "INCONCLUSIVE"
        assert not v.guas
        assert v.evidence is not None
        assert v.evidence.non_decaying_runs == 0

    def test_frozen_k3_discrete_instance(self):
        from guas_cert.gallery import assemble

        w = np.array([0.6953031944582878, -1.344214547285082,
                      -0.45761576104021817])
        A = np.array([[0.0, -w[2], w[1]],
                      [w[2], 0.0, -w[0]],
                      [-w[1], w[0], 0.0]])
        C0 = np.array([
            [-1.901222739800844, -1.289537739784976, -1.8417350377917323],
            [-0.23509113107468127, -1.2674464814437032, 0.2712643588217015],
        ])
        C1 = np.array([
            [0.15675108662422516, -0.18693094462995438, -2.516759710820513],
            [-0.5386928958466366, -0.04850094540107198, 0.11330898600330756],
        ])
        pair = MatrixPair(assemble(A, C0, -np.eye(2)),
                          assemble(A, C1, -2.0 * np.eye(2)))
        v = analyze(pair, options=FAST)
        assert v.conclusion == "GUAS_G_discrete"

    def test_off_grid_singular_C_is_not_C_injective(self):
        """C_lam is singular at lam* = 1/1.7391, between the sweep grid points:
        the C-injectivity bound must cover the gaps and decline."""
        from guas_cert.gallery import assemble

        w = (0.3, -1.1, 0.8)
        A = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
        pair = MatrixPair(assemble(A, np.eye(3), -np.eye(3)),
                          assemble(A, np.diag([-0.7391, 1.0, 1.0]), -np.eye(3)))
        v = analyze(pair, options=AnalyzerOptions(with_evidence=False))
        assert v.conclusion == "GUAS_G_discrete"
        assert v.margins["C_injectivity_margin"] < v.margins["observability_margin"]
        assert v.margins["C_injectivity_margin"] < 1e-9

    def test_uncertified_C_injectivity_margin_is_the_smallest_value(self):
        """A sigma_C bisection that does not certify reports its smallest
        computed sigma_min(C_lam), as the sweep does, not an interval bound."""
        from guas_cert.gallery import assemble

        w = (0.3, -1.1, 0.8)
        A = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
        pair = MatrixPair(assemble(A, np.eye(3), -np.eye(3)),
                          assemble(A, np.diag([-0.7391, 1.0, 1.0]), -np.eye(3)))
        v = analyze(pair, options=AnalyzerOptions(with_evidence=False))
        npair = normalize(pair)
        blocks = block_form(npair, common_kernel(npair))
        run = sigma_C_bisection(blocks, blocks.k, sweep_lambda(blocks))
        assert run.verdict == "refuted"
        assert v.margins["C_injectivity_margin"] == run.value >= 0.0

    def test_refuses_non_finite_entry(self):
        B0 = -np.eye(3)
        B0[1, 2] = np.nan
        with pytest.raises(NonFiniteInput):
            analyze(MatrixPair(B0, -np.eye(3)), options=FAST)
        with pytest.raises(NonFiniteInput):
            analyze(MatrixPair(-np.eye(2), -np.eye(2)), np.diag([1.0, np.inf]))

    def test_weak_lyapunov_checked_once(self, monkeypatch):
        import guas_cert.analyzer as analyzer_mod
        import guas_cert.matrix_core as matrix_core

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        original = matrix_core.check_weak_lyapunov
        monkeypatch.setattr(matrix_core, "check_weak_lyapunov", counted)
        monkeypatch.setattr(analyzer_mod, "check_weak_lyapunov", counted)
        analyze(mason(), mason().P, options=FAST)
        assert len(calls) == 1

    def test_refuses_non_hurwitz_endpoint(self):
        skew3 = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(NotHurwitz):
            analyze(MatrixPair(skew3, -np.eye(3)), options=FAST)

    def test_refuses_pair_without_common_weak_lyapunov(self):
        B0 = np.array([[-1.0, 0.0], [10.0, -1.0]])
        with pytest.raises(NoCommonWeakLyapunov):
            analyze(MatrixPair(B0, -np.eye(2)), np.eye(2), options=FAST)


LINALG = ("svd", "eig", "eigvals", "eigh", "eigvalsh")


def linalg_calls(monkeypatch, call):
    """call()'s result, and a Counter of the numpy.linalg decompositions it
    made and of its norm calls by ord ("norm(2)", "norm(fro)", ...)."""
    counts = Counter()
    for name in LINALG + ("norm",):
        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            if _name == "norm":
                ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
                counts[f"norm({ord_})"] += 1
            else:
                counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return call(), counts


class TestDispatchCounts:
    """Each precondition and block check is one batched LAPACK call, and the
    spectral norms are one batched SVD: a split batch fails these counts."""

    def test_shared_output_without_P(self, monkeypatch):
        # k = k' = 2: common_kernel, the norms, the sweep's tol_eff and first
        # pass, and the injectivity bisection make one SVD each
        pair = shared_output()
        v, counts = linalg_calls(monkeypatch, lambda: analyze(pair, options=FAST))
        assert v.conclusion == "GUAS_C_injective"
        assert {name: counts[name] for name in LINALG} == {
            "svd": 5, "eig": 0, "eigvals": 1, "eigh": 0, "eigvalsh": 2,
        }
        assert counts["norm(2)"] == 0

    def test_mason_with_P(self, monkeypatch):
        # eigh: P, once, when analyze rebuilds the pair with it
        pair = mason()
        v, counts = linalg_calls(monkeypatch, lambda: analyze(pair, pair.P, options=FAST))
        assert v.conclusion == "GUAS_trivial_kernel"
        assert {name: counts[name] for name in LINALG} == {
            "svd": 1, "eig": 0, "eigvals": 1, "eigh": 1, "eigvalsh": 1,
        }
        assert counts["norm(2)"] == 0


    def test_mason_carrying_its_P(self, monkeypatch):
        # the pair decomposed P when it was built, outside the count
        pair = mason()
        v, counts = linalg_calls(monkeypatch, lambda: analyze(pair, options=FAST))
        assert v.conclusion == "GUAS_trivial_kernel"
        assert {name: counts[name] for name in LINALG} == {
            "svd": 1, "eig": 0, "eigvals": 1, "eigh": 0, "eigvalsh": 1,
        }
        assert counts["norm(2)"] == 0


class TestDeterminism:
    def test_same_input_same_verdict(self):
        v1 = analyze(torus(), options=FAST)
        v2 = analyze(torus(), options=FAST)
        assert v1.to_json() == v2.to_json()


class TestRefutationIsConsistent:
    def test_refuted_lambda_gives_silent_conserved_run(self):
        """Run the reduced system at the refuting lambda from the refuting
        state: the output must stay silent and the norm constant."""
        v = analyze(kdeux(1.0, -1.0), np.eye(3), options=FAST)
        npair = normalize(kdeux(1.0, -1.0), np.eye(3))
        decomp = common_kernel(npair)
        blocks = block_form(npair, decomp)
        lam = v.certificate["lambda_star"]
        x0 = np.asarray(v.certificate["witness"], float)
        traj = integrate(blocks, SwitchingSignal.relaxed([(50.0, lam)]), x0,
                         T=50.0, dt=1e-3)
        assert output_measure(traj, tol=1e-7) == 0.0
        assert np.max(np.abs(traj.norms - 1.0)) < 1e-8

    def test_refuting_full_state_does_not_decay(self):
        """Lift the witness to the full space and drive the original switched
        pair at the constant relaxed input: the norm must stay constant."""
        v = analyze(kdeux(1.0, -1.0), np.eye(3), options=FAST)
        npair = normalize(kdeux(1.0, -1.0), np.eye(3))
        decomp = common_kernel(npair)
        x0_full = decomp.K_basis @ np.asarray(v.certificate["witness"], float)
        lam = v.certificate["lambda_star"]
        traj = integrate(npair, SwitchingSignal.relaxed([(50.0, lam)]), x0_full,
                         T=50.0, dt=1e-3)
        assert traj.final_ratio() > 1.0 - 1e-6

    @pytest.mark.xfail(strict=True, reason=(
        "the refutation floor tol (1 + max ||O||) does not scale with "
        "O(lam) = [C; CA; ...], whose rows carry different powers of the scale"))
    def test_time_rescaling_refutes_no_guas_pair(self):
        """B -> 2^j B only rescales time, so torus() and kdeux(1, 2), both
        GUAS, must not be refuted at any scale."""
        for pair, j in ((torus(), 9), (torus(), -8), (kdeux(1.0, 2.0), -15)):
            scaled = MatrixPair(2.0**j * pair.B0, 2.0**j * pair.B1)
            v = analyze(scaled, options=AnalyzerOptions(with_evidence=False))
            assert not v.conclusion.startswith("NOT_GUAS"), (j, v.conclusion)


class TestVerdictSerialization:
    def test_to_dict_is_json_safe(self):
        v = analyze(kdeux(1.0, -1.0), np.eye(3), options=FAST)
        d = json.loads(v.to_json())
        assert d["conclusion"] == "NOT_GUAS_constant_input"
        assert isinstance(d["margins"], dict)
        assert isinstance(d["certificate"]["witness"], list)

    def test_schema_validation(self):
        jsonschema = pytest.importorskip("jsonschema")
        import importlib.resources as res

        schema = json.loads(
            res.files("guas_cert").joinpath("report_schema.json").read_text()
        )
        for pair, P in [(mason(), mason().P), (kdeux(1.0, -1.0), np.eye(3)),
                        (torus(), None)]:
            v = analyze(pair, P, options=FAST)
            jsonschema.validate(json.loads(v.to_json()), schema)

