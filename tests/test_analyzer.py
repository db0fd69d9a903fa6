import json
from collections import Counter
from dataclasses import replace

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
    scan_G,
    sweep_lambda,
    sweep_scale,
)
from guas_cert import analyzer
from guas_cert.errors import NoCommonWeakLyapunov, NonFiniteInput, NotHurwitz
from guas_cert.observability import sigma_C_bisection
from guas_cert.gallery import kdeux, mason, shared_output, torus

FAST = AnalyzerOptions(evidence_T=20.0, evidence_dt=1e-2)


def frozen_k3():
    """A k = 3, k' = 2 pair with one drift whose G is two points."""
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
    return MatrixPair(assemble(A, C0, -np.eye(2)), assemble(A, C1, -2.0 * np.eye(2)))


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
        npair = normalize(replace(kdeux(1.0, b), P=np.eye(3)))
        blocks = block_form(npair, common_kernel(npair))
        O = kalman_matrix(blocks.C(lam), blocks.A(lam))
        x = np.asarray(v.certificate["witness"], float)
        assert np.linalg.norm(O @ x) <= sweep_scale(blocks).floor

    def test_shared_output_injective(self):
        v = analyze(shared_output(), np.eye(4), options=FAST)
        assert v.conclusion == "GUAS_C_injective"
        assert v.guas

    @pytest.mark.parametrize("make, P, conclusion, total", [
        (shared_output, np.eye(4), "GUAS_C_injective", 20),
        (lambda: kdeux(1.0, 2.0), None, "GUAS_dimK_le2", 20),
        (lambda: kdeux(1.0, -1.0), None, "NOT_GUAS_constant_input", 20),
        (frozen_k3, None, "GUAS_G_discrete", 36),
    ], ids=["C_injective", "dimK_le2", "constant_input", "G_discrete"])
    def test_grid_counts_lambda_evals(self, make, P, conclusion, total):
        """lambda_evals counts the three lambdas of the family's scale once,
        on every branch, plus what each stage that ran evaluated: the
        injectivity bisection where k' >= k (a C-injective pair runs no
        Kalman sweep), the sweep, and the scan; none for a trivial kernel."""
        pair = make() if P is None else replace(make(), P=P)
        npair = normalize(pair)
        blocks = block_form(npair, common_kernel(npair))
        scale = sweep_scale(blocks)
        expected, run = scale.n_evals, None
        if blocks.k_prime >= blocks.k:
            run = sigma_C_bisection(blocks, blocks.k, scale)
            expected += run.n_evals
        if conclusion != "GUAS_C_injective":
            lam_hat = None if run is None else run.lambda_star
            expected += sweep_lambda(blocks, scale, lam_hat).n_evals
        if conclusion == "GUAS_G_discrete":
            expected += scan_G(blocks, scale).n_samples
        v = analyze(make(), P, options=FAST)
        assert v.conclusion == conclusion
        assert v.grid == {"n_grid": 257, "lambda_evals": expected}
        assert expected == total
        assert analyze(mason(), mason().P, options=FAST).grid["lambda_evals"] == 0

    def test_torus_inconclusive_with_decaying_evidence(self):
        v = analyze(torus(), options=FAST)
        assert v.conclusion == "INCONCLUSIVE"
        assert not v.guas
        assert v.evidence is not None
        assert v.evidence.non_decaying_runs == 0

    def test_frozen_k3_discrete_instance(self):
        v = analyze(frozen_k3(), options=FAST)
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
        run = sigma_C_bisection(blocks, blocks.k, sweep_scale(blocks))
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
SOLVES = ("det", "lstsq")  # counted too, but not part of the LINALG dicts


def linalg_calls(monkeypatch, call):
    """call()'s result, and a Counter of the numpy.linalg decompositions and
    solves it made and of its norm calls by ord ("norm(2)", "norm(fro)", ...)."""
    counts = Counter()
    for name in LINALG + SOLVES + ("norm",):
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
        # k = k' = 2: common_kernel, the norms, the sweep's threshold
        # lambdas and the injectivity bisection's first pass make one SVD
        # each; the bisection certifies, so no Kalman sweep runs
        pair = shared_output()
        v, counts = linalg_calls(monkeypatch, lambda: analyze(pair, options=FAST))
        assert v.conclusion == "GUAS_C_injective"
        assert {name: counts[name] for name in LINALG} == {
            "svd": 4, "eig": 0, "eigvals": 1, "eigh": 0, "eigvalsh": 2,
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

    def test_torus_without_evidence(self, monkeypatch):
        # k = 4 > 3: scan_G refuses before it computes N = ker C0 ∩ ker C1,
        # so no SVD of [C0; C1] is made.  One drift: the Hautus bound's one
        # eigh certifies observability, and no Kalman SVD follows the scale's
        opts = AnalyzerOptions(with_evidence=False)
        v, counts = linalg_calls(monkeypatch, lambda: analyze(torus(), options=opts))
        assert v.conclusion == "INCONCLUSIVE"
        assert v.notes.endswith("k = 4 > 3: discreteness of G undecided")
        assert v.margins["observability_test"] == "hautus"
        assert {name: counts[name] for name in LINALG} == {
            "svd": 4, "eig": 0, "eigvals": 1, "eigh": 1, "eigvalsh": 2,
        }

    def test_kdeux_k2_labels_the_case(self, monkeypatch):
        # k = 2: kpetit_classify's two rank decisions on C0 and C1 are SVDs
        opts = AnalyzerOptions(with_evidence=False)
        v, counts = linalg_calls(monkeypatch, lambda: analyze(kdeux(1.0, 2.0), options=opts))
        assert v.conclusion == "GUAS_dimK_le2"
        assert v.certificate["case"] == "distinct_kernels_common_rotation_direction"
        assert counts["svd"] == 7

    def test_mason_carrying_its_P(self, monkeypatch):
        # the pair decomposed P when it was built, outside the count
        pair = mason()
        v, counts = linalg_calls(monkeypatch, lambda: analyze(pair, options=FAST))
        assert v.conclusion == "GUAS_trivial_kernel"
        assert {name: counts[name] for name in LINALG} == {
            "svd": 1, "eig": 0, "eigvals": 1, "eigh": 0, "eigvalsh": 1,
        }
        assert counts["norm(2)"] == 0

    def test_symmetric_parts_built_once(self, monkeypatch):
        # the torus call reads S0 and S1 in common_kernel and in the evidence
        # runs' tables and stretches; NormalizedPair builds each once
        from guas_cert import matrix_core

        calls = []
        original = matrix_core.symmetric_part

        def counted(B):
            calls.append(B)
            return original(B)

        monkeypatch.setattr(matrix_core, "symmetric_part", counted)
        v = analyze(torus(), options=FAST)
        assert v.evidence is not None
        assert len(calls) == 2

    def test_frozen_k3_curve_rule(self, monkeypatch):
        # the curve rule fits with its cached operator (built by the first
        # call, outside the count), not lstsq; one det per kernel-vector
        # batch (at the nodes, at the root); eigvals for the Hurwitz check
        # and for the companion matrix of the fit
        pair, opts = frozen_k3(), AnalyzerOptions(with_evidence=False)
        analyze(pair, options=opts)
        v, counts = linalg_calls(monkeypatch, lambda: analyze(pair, options=opts))
        assert v.conclusion == "GUAS_G_discrete"
        assert len(v.certificate["roots"]) == 1
        assert {name: counts[name] for name in SOLVES} == {"det": 2, "lstsq": 0}
        assert counts["eigvals"] == 2


class TestOptionChecks:
    @pytest.mark.parametrize("option, message", [
        ({"seed": -1}, "seed must be an integer in [0, inf], got -1"),
        ({"seed": 1.5}, "seed must be an integer in [0, inf], got 1.5"),
        ({"n_grid": 257.0}, "n_grid must be an integer in [2, 65537], got 257.0"),
        ({"n_grid": 1}, "n_grid must be an integer in [2, 65537], got 1"),
    ], ids=["negative-seed", "float-seed", "float-grid", "grid-1"])
    def test_refused_before_any_stage(self, option, message, monkeypatch):
        def no_stage(*args, **kwargs):
            raise AssertionError("a stage ran before the options were checked")

        monkeypatch.setattr(analyzer, "is_hurwitz", no_stage)
        pair = MatrixPair(-np.eye(2), -2.0 * np.eye(2))
        with pytest.raises(ValueError) as info:
            analyze(pair, options=AnalyzerOptions(**option))
        assert str(info.value) == message

    def test_integer_numpy_options_accepted(self):
        opts = AnalyzerOptions(n_grid=np.int64(65), seed=np.uint8(3), evidence_T=1.0,
                               evidence_dt=0.1, with_evidence=True)
        v = analyze(MatrixPair(-np.eye(2), -2.0 * np.eye(2)), options=opts)
        assert v.conclusion == "GUAS_trivial_kernel"
        assert v.grid["n_grid"] == 65
        assert v.evidence.n_runs == 32  # K = {0} adds no basis starts


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
        npair = normalize(replace(kdeux(1.0, -1.0), P=np.eye(3)))
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
        npair = normalize(replace(kdeux(1.0, -1.0), P=np.eye(3)))
        decomp = common_kernel(npair)
        x0_full = decomp.K_basis @ np.asarray(v.certificate["witness"], float)
        lam = v.certificate["lambda_star"]
        traj = integrate(npair, SwitchingSignal.relaxed([(50.0, lam)]), x0_full,
                         T=50.0, dt=1e-3)
        assert traj.final_ratio() > 1.0 - 1e-6

    def test_slowed_torus_is_certified_before_the_kalman_floor(self):
        """torus() * 2^-8 only rescales time, so it stays GUAS.  Its one
        drift lets the Hautus bound prove observability for every lambda
        (about 4e-4 against a threshold near 1e-7) before the Kalman sweep,
        whose floor tol (1 + max ||O||) would refute it."""
        pair = torus()
        scaled = MatrixPair(2.0**-8 * pair.B0, 2.0**-8 * pair.B1)
        v = analyze(scaled, options=AnalyzerOptions(with_evidence=False))
        assert v.conclusion == "INCONCLUSIVE"
        assert v.certificate["sweep_verdict"] == "observable_for_all_lambda"
        assert v.margins["observability_test"] == "hautus"
        assert v.margins["observability_margin"] == pytest.approx(4.0e-4, rel=0.05)

    @pytest.mark.xfail(strict=True, reason=(
        "the refutation floor tol (1 + max ||O||) does not scale with "
        "O(lam) = [C; CA; ...], whose rows carry different powers of the scale; "
        "the Hautus bound does not apply: at 2^9 the threshold from ||O|| is "
        "above it, and kdeux(1, 2) has no common drift"))
    @pytest.mark.parametrize("make, j", [(torus, 9), (lambda: kdeux(1.0, 2.0), -15)],
                             ids=["torus-2^9", "kdeux-2^-15"])
    def test_time_rescaling_refutes_no_guas_pair(self, make, j):
        """B -> 2^j B only rescales time, so torus() and kdeux(1, 2), both
        GUAS, must not be refuted at any scale."""
        pair = make()
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

    def test_non_finite_numbers_are_strings(self):
        """A non-finite float becomes its repr, numpy's (alone or in an
        array) as Python's: JSON has no Infinity or NaN, so a strict parser
        must read every report."""
        def no_constant(name):
            raise ValueError(f"{name} in a report")

        v = analyzer.Verdict("INCONCLUSIVE", "x", margins={
            "numpy_inf": np.float64(np.inf), "numpy_nan": np.float32(np.nan),
            "inf": -np.inf, "count": np.int64(3), "finite": np.float64(0.25),
        }, certificate={"roots": np.array([np.inf, 0.5])})
        d = json.loads(v.to_json(), parse_constant=no_constant)
        assert d["margins"] == {"numpy_inf": "inf", "numpy_nan": "nan", "inf": "-inf",
                                "count": 3, "finite": 0.25}
        assert d["certificate"] == {"roots": ["inf", 0.5]}

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

