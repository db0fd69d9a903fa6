"""Unit tests of the benchmark's own logic.

Run from the repository root:  PYTHONPATH=src python -m pytest -q perfbench
"""

import numpy as np
import pytest

import check
import spans
import workloads
from guas_cert import AnalyzerOptions, MatrixPair, analyze
from guas_cert.gallery import kdeux


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestClosedFormRule:
    def test_kdeux_same_sign_is_guas(self):
        # gallery.kdeux(a, b): A0 = a J, A1 = b J, C0 = e1^T, C1 = e2^T
        assert not check.not_guas_closed_form(1.0, 1.0, [[1.0, 0.0]], [[0.0, 1.0]])

    def test_kdeux_opposite_sign_is_not_guas(self):
        assert check.not_guas_closed_form(1.0, -1.0, [[1.0, 0.0]], [[0.0, 1.0]])

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, -1.0), (-1.0, -2.0), (2.0, -0.5)])
    def test_agrees_with_analyzer_on_gallery_kdeux(self, a, b):
        verdict = analyze(kdeux(a, b), np.eye(3), AnalyzerOptions(with_evidence=False))
        rule = check.not_guas_closed_form(a, b, [[1.0, 0.0]], [[0.0, 1.0]])
        assert verdict.guas is (not rule)

    def test_vanishing_output_map(self):
        C0 = np.array([[1.0, 2.0], [0.5, -1.0]])
        assert check.not_guas_closed_form(1.0, 1.0, C0, -2.0 * C0)

    def test_zero_drift_needs_rank_drop(self):
        # shared_output: A = 0, C0 = I, C1 a rotation; C_lam singular iff theta = pi
        assert not check.not_guas_closed_form(0.0, 0.0, np.eye(2), rotation(np.pi / 2))
        assert check.not_guas_closed_form(0.0, 0.0, np.eye(2), rotation(np.pi))
        assert check.not_guas_closed_form(0.0, 0.0, [[1.0, 0.0]], [[0.0, 1.0]])

    def test_k1_output_must_not_vanish(self):
        assert not check.not_guas_closed_form(0.0, 0.0, [[1.0], [2.0]], [[0.5], [0.1]])
        assert check.not_guas_closed_form(0.0, 0.0, [[1.0], [2.0]], [[-0.5], [-1.0]])


class TestOutcomeCheck:
    def test_refutation_witness_passes(self):
        pair = kdeux(1.0, -1.0)
        verdict = analyze(pair, None, AnalyzerOptions(with_evidence=False))
        expect = check.Expect(frozenset({"NOT_GUAS_constant_input"}), guas=False)
        assert check.outcome_failure(pair, expect, verdict) == ""

    def test_witness_slightly_off_the_null_space_fails(self):
        pair = kdeux(1.0, -1.0)
        verdict = analyze(pair, None, AnalyzerOptions(with_evidence=False))
        x = verdict.certificate["witness"]  # k = 2: one null direction
        x = x + 1e-6 * np.array([-x[1], x[0]])
        verdict.certificate["witness"] = x / np.linalg.norm(x)
        expect = check.Expect(frozenset({"NOT_GUAS_constant_input"}), guas=False)
        assert "observable" in check.outcome_failure(pair, expect, verdict)

    def test_wrong_conclusion_fails(self):
        pair = kdeux(1.0, 1.0)
        verdict = analyze(pair, None, AnalyzerOptions(with_evidence=False))
        expect = check.Expect(frozenset({"NOT_GUAS_constant_input"}), guas=False)
        assert "GUAS_dimK_le2" in check.outcome_failure(pair, expect, verdict)

    def test_refused_input_needs_package_error(self):
        expect = check.Expect(refused=True)
        pair = MatrixPair(-np.eye(2), -np.eye(2))
        assert check.outcome_failure(pair, expect, np.linalg.LinAlgError("nan"))
        from guas_cert.errors import NotHurwitz
        assert check.outcome_failure(pair, expect, NotHurwitz("marginal")) == ""


def span(name, start, end, parent=None):
    return spans.Span(name, name, start, end, parent, 1)


class TestSelfTime:
    def test_union_length_merges_and_clips(self):
        assert spans.union_length([(1, 4), (3, 6), (9, 12)], 0, 10) == 6
        assert spans.union_length([], 0, 10) == 0
        assert spans.union_length([(11, 12)], 0, 10) == 0

    def test_nested_spans(self):
        tree = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 4.0, parent=0),
            span("grandchild", 2.0, 3.0, parent=1),
            span("b", 3.0, 6.0, parent=0),   # overlaps a: counted once in root
            span("c", 9.0, 12.0, parent=0),  # ends after root: clipped
        ]
        assert spans.self_times(tree) == [4.0, 2.0, 1.0, 3.0, 3.0]

    def test_self_times_sum_to_root_for_disjoint_children(self):
        tree = [span("root", 0.0, 5.0), span("a", 0.5, 1.5, 0), span("b", 2.0, 4.0, 0)]
        assert sum(spans.self_times(tree)) == pytest.approx(5.0)


class TestTracer:
    def test_traced_call_covers_analyze_and_restores_names(self):
        import guas_cert.analyzer as analyzer

        original = analyzer.sweep_lambda
        tracer = spans.Tracer()
        with tracer.installed():
            tracer.call(analyze, kdeux(1.0, 1.0), None, AnalyzerOptions())
        assert analyzer.sweep_lambda is original
        assert tracer.absent == []
        assert {s.name for s in tracer.spans} >= {"analyze", "sweep_lambda", "block_form"}
        assert all(s.call_id == 1 for s in tracer.spans)
        wall = tracer.spans[0].end - tracer.spans[0].start
        metrics = tracer.layer_metrics(wall)
        assert metrics["trace.coverage_pct"][0] == pytest.approx(100.0)
        assert metrics["linalg.svd_calls"][0] > 257
        assert metrics["bad_locus.scan_G.calls"][0] == 0

    def test_missing_stage_name_is_reported_absent(self, monkeypatch):
        import guas_cert.analyzer as analyzer

        monkeypatch.delattr(analyzer, "kpetit_classify")
        tracer = spans.Tracer()
        with tracer.installed():
            pass
        assert tracer.absent == ["kpetit_classify"]


class TestCallTimes:
    def test_each_call_counts_at_its_instance_statistic(self):
        import run

        tally = run.Tally()
        tally.labels = ["a", "b", "a", "a", "b"]
        tally.times = [3.0, 5.0, 2.0, 4.0, 6.0]
        assert tally.counted_at(min) == [2.0, 5.0, 2.0, 2.0, 5.0]
        assert tally.counted_at(run.p90) == pytest.approx([3.8, 5.9, 3.8, 3.8, 5.9])
        metrics = run.end_to_end_metrics(tally, {"total_s": 1.0})
        assert metrics["analyze_ms_p50"][0] == 2000.0
        assert metrics["analyze_ms_p90"][0] == 2000.0  # too few calls for a p90

    def test_failures_count_once_per_instance(self):
        import run

        plain, traced = run.Tally(), run.Tally()
        plain.labels, traced.labels = ["a", "b", "c", "a"], ["a", "b"]
        plain.failures.update({("a", "wrong", ""): 2, ("b", "wrong", "known"): 1})
        traced.failures.update({("a", "wrong", ""): 1})
        assert run.instance_counts(plain, traced) == (3, 2, 1)


class TestWorkloads:
    @pytest.mark.parametrize("name", workloads.WORKLOADS)
    def test_same_seed_same_inputs(self, name):
        a, b = workloads.build(name, 7), workloads.build(name, 7)
        assert [i.label for i in a] == [i.label for i in b]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.pair.B0, y.pair.B0)
            np.testing.assert_array_equal(x.pair.B1, y.pair.B1)

    def test_corpus_median_call_is_a_sweep_call(self):
        corpus = workloads.build("corpus", 3)
        fast = [i for i in corpus if i.expect.refused
                or i.expect.conclusions == {"GUAS_trivial_kernel"}]
        assert len(fast) < 0.4 * len(corpus)
