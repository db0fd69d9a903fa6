"""The verdict pipeline: certificate, counterexample, or inconclusive.

The pipeline certifies GUAS only through proved implications, cheapest
proof first.  The branch order lives in one table, ``THEOREMS``, whose rows
``analyze`` tries in turn until one applies:

* kernel rank ambiguous: inconclusive, no rank decision is certified;
* trivial common kernel K = {0};
* C_lam injective for every lambda (tried only when k' >= k; no Kalman
  sweep runs when it holds, since O(lambda) holds C_lam as its top rows);
* a constant input lambda* at which (C_lam, A_lam) is unobservable;
* dim K <= 2 with (C_lam, A_lam) observable for all lambda;
* G discrete with (C_lam, A_lam) observable for all lambda;
* otherwise inconclusive.

Each row reads the stages it needs from one per-call record, which runs
each stage at most once, on first read.  All lambda stages (the
injectivity bisection, the Kalman sweep and the G-scan) run on one
SweepScale, built once per family right after the block form.  A
constant-input observability failure at some lambda* refutes GUAS of the
convexified system, which is equivalent to the binary one.  With k' >= k
such a lambda* is a zero of sigma_k(C_lam), so the sweep first evaluates
the lambda where the injectivity bisection found its smallest value.
Inconclusive verdicts get adversarial simulation evidence attached; in
particular the open conjecture (observability for every constant input
would suffice) is never used as a decision rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .bad_locus import kpetit_classify, scan_G
from .decomposition import (
    RANK_MARGIN_FLOOR,
    block_form,
    common_kernel,
)
from .errors import InternalInconsistency, NotHurwitz
from .matrix_core import (
    MatrixPair,
    NormalizedPair,
    is_hurwitz,
    normalize,
    require_finite,
)
from .observability import MAX_GRID, sigma_C_bisection, sweep_lambda, sweep_scale
from .simulator import _n_steps, plateau_rule, worst_case_runs

INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class AnalyzerOptions:
    tol: float = 1e-9
    n_grid: int = 257
    scan_resolution: int = 64  # read by nothing; perfbench/workloads.py still sets it
    evidence_T: float = 100.0
    evidence_dt: float = 1e-3
    seed: int = 0
    with_evidence: Optional[bool] = None  # None: only for INCONCLUSIVE


@dataclass
class EvidenceSummary:
    """Adversarial-simulation summary; evidence, never a certificate."""

    n_runs: int
    T: float
    dt: float
    max_final_ratio: float
    non_decaying_runs: int

    def to_dict(self) -> dict:
        return {
            "n_runs": self.n_runs,
            "T": self.T,
            "dt": self.dt,
            "max_final_ratio": self.max_final_ratio,
            "non_decaying_runs": self.non_decaying_runs,
        }


@dataclass
class Verdict:
    """The analyzer's conclusion with its certificate or witness attached."""

    conclusion: str
    branch: str  # statement of the result backing the conclusion
    certificate: dict = field(default_factory=dict)
    margins: dict = field(default_factory=dict)
    evidence: Optional[EvidenceSummary] = None
    tolerances: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    notes: str = ""

    @property
    def guas(self) -> Optional[bool]:
        if self.conclusion.startswith("GUAS"):
            return True
        if self.conclusion.startswith("NOT_GUAS"):
            return False
        return None

    def to_dict(self) -> dict:
        def clean(v):
            if isinstance(v, np.ndarray):
                return clean(v.tolist())
            if isinstance(v, (np.floating, np.integer)):
                v = v.item()
            if isinstance(v, float) and not np.isfinite(v):
                return repr(v)  # JSON has no Infinity or NaN
            if isinstance(v, dict):
                return {k: clean(x) for k, x in v.items()}
            if isinstance(v, (list, tuple)):
                return [clean(x) for x in v]
            return v

        out = {
            "conclusion": self.conclusion,
            "branch": self.branch,
            "certificate": clean(self.certificate),
            "margins": clean(self.margins),
            "tolerances": clean(self.tolerances),
            "grid": clean(self.grid),
        }
        if self.notes:
            out["notes"] = self.notes
        if self.evidence is not None:
            out["evidence"] = self.evidence.to_dict()
        return out

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)


def empirical_evidence(
    npair: NormalizedPair,
    n_random: int = 32,
    T: float = 100.0,
    dt: float = 1e-3,
    seed: int = 0,
    K_basis: Optional[np.ndarray] = None,
) -> EvidenceSummary:
    """Greedy-adversary runs from random unit starts plus the K directions.

    All runs go together as one (n_runs, d) array to ``worst_case_runs``,
    which keeps norms only.  When its certificate that no run ever switches
    holds (see its docstring), the runs skip to T by binary powers of
    E_u = expm(B_u dt).  Otherwise they fall back to the greedy engine of
    ``worst_case_switching``: blocks of L <= 256 steps while no run
    switches, each read from one product with tables of two quadratic forms
    (rule margin and squared norm), O(256 d^2 + n_runs L) numbers.
    A run is non-decaying when its norm plateaus over the last quarter of
    [0, T] above 1e-6 of its start.  Heuristic evidence, never a certificate.
    """
    rng = np.random.default_rng(seed)
    d = npair.d
    starts = rng.standard_normal((n_random, d))
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    if K_basis is not None and K_basis.size:
        starts = np.vstack([starts, K_basis.T])

    initial, window_start, final = worst_case_runs(npair, starts, T, dt)
    plateaued = plateau_rule(initial, window_start, final)
    non_decaying = plateaued & (final > 1e-6 * initial)
    return EvidenceSummary(
        n_runs=len(starts),
        T=T,
        dt=dt,
        max_final_ratio=float((final / initial).max()),
        non_decaying_runs=int(non_decaying.sum()),
    )


class _Stages:
    """What the theorems of ``THEOREMS`` read, for one call.  ``npair``,
    ``decomp`` and ``opt`` are given; ``blocks``, ``scale``, ``injectivity``
    (the sigma_C bisection, None when k' < k), ``sweep`` and ``scan`` run
    their stage (the method of that name with a leading underscore) on first
    read, at most once, and are then plain attributes.  ``lambda_evals``
    counts the lambdas at which those stages evaluated: each report's
    ``n_evals``, and the scan's ``n_samples``."""

    def __init__(self, npair: NormalizedPair, decomp, opt: AnalyzerOptions):
        self.npair, self.decomp, self.opt = npair, decomp, opt
        self.lambda_evals = 0

    def __getattr__(self, name):  # only called for a stage not yet run
        value = vars(self)[name] = getattr(type(self), "_" + name)(self)
        self.lambda_evals += getattr(value, "n_evals", 0)
        return value

    def _blocks(self):
        return block_form(self.npair, self.decomp, self.opt.tol)

    def _scale(self):  # the one grid and thresholds every lambda stage runs on
        return sweep_scale(self.blocks, self.opt.n_grid, self.opt.tol)

    def _injectivity(self):
        if self.blocks.k_prime >= self.blocks.k:
            return sigma_C_bisection(self.blocks, self.blocks.k, self.scale)

    def _sweep(self):
        # when k' >= k every unobservable lam is a zero of sigma_k(C_lam), so
        # the bisection's lam* is the sweep's first lambda
        run = self.injectivity
        return sweep_lambda(self.blocks, self.scale, None if run is None else run.lambda_star)

    def _scan(self):
        scan = scan_G(self.blocks, self.scale)
        self.lambda_evals += scan.n_samples
        return scan


def _sweep_margins(s: _Stages, **extra) -> dict:
    """The sweep's margins; the injectivity margin joins them once the sweep
    proved observability for every lambda."""
    margins = {"observability_margin": s.sweep.margin, "rank_margin": s.decomp.rank_margin}
    if s.sweep.test == "hautus":  # the margin bounds the Hautus test, not sigma_k(O)
        margins["observability_test"] = "hautus"
    if s.sweep.verdict == "observable_for_all_lambda" and s.injectivity is not None:
        margins["C_injectivity_margin"] = s.injectivity.margin
    return {**margins, **extra}


def _rank_ambiguous(s: _Stages):
    if not s.decomp.certifiable_rank:
        return dict(
            margins={"rank_margin": s.decomp.rank_margin},
            notes=(
                f"singular values of [S0; S1] straddle the threshold "
                f"(margin {s.decomp.rank_margin:.2e} < {RANK_MARGIN_FLOOR:.0e}); "
                "no rank decision is certified"
            ),
        )


def _trivial_kernel(s: _Stages):
    if s.decomp.k == 0:
        return dict(certificate={"k": 0, "rank_margin": s.decomp.rank_margin},
                    margins={"rank_margin": s.decomp.rank_margin})


def _C_injective(s: _Stages):
    # O(lam) holds C_lam as its top rows, so sigma_k(O(lam)) >= sigma_k(C_lam)
    # and the proved bound is an observability margin too
    run = s.injectivity
    if run is not None and run.verdict == "certified":
        return dict(
            certificate={"min_sigma_C_lower_bound": run.bound},
            margins={"observability_margin": run.bound, "rank_margin": s.decomp.rank_margin,
                     "C_injectivity_margin": run.margin},
        )


def _constant_input(s: _Stages):
    if s.sweep.verdict == "fails_at":
        x_star = s.sweep.witness[:, 0]
        return dict(
            certificate={"lambda_star": s.sweep.lambda_star,
                         "witness": x_star / np.linalg.norm(x_star), "sigma_min": s.sweep.margin},
            margins=_sweep_margins(s),
        )


def _dimK_le2(s: _Stages):
    if s.sweep.verdict == "observable_for_all_lambda" and s.blocks.k <= 2:
        return dict(certificate={"k": s.blocks.k, "case": kpetit_classify(s.blocks, s.opt.tol)},
                    margins=_sweep_margins(s))


def _G_discrete(s: _Stages):
    if s.sweep.verdict == "observable_for_all_lambda" and s.scan.verdict == "discrete":
        scan = s.scan
        return dict(
            certificate={
                "rule": scan.rule, "degree": scan.degree, "g_margin": scan.margin,
                "roots": scan.roots, "points": scan.points,
                "sigma_C_lower_bound": scan.sigma_C_lower_bound,
                "n_samples": scan.n_samples, "n_hits": scan.n_hits,
            },
            margins=_sweep_margins(s, scan_hits=scan.n_hits),
        )


def _undecided(s: _Stages):
    certificate = {"sweep_verdict": s.sweep.verdict, "scan_verdict": "not_run", "k": s.blocks.k}
    if s.sweep.verdict != "observable_for_all_lambda":
        return dict(certificate=certificate, margins=_sweep_margins(s))
    # k > 2 here, so the scan ran and did not decide
    notes = (
        "observable for every constant input, but no proved sufficient "
        "condition applies; only the open conjecture would upgrade this "
        "to GUAS, and it is never used as a decision rule"
    )
    return dict(
        certificate={**certificate, "scan_verdict": s.scan.verdict},
        margins=_sweep_margins(s, scan_hits=s.scan.n_hits),
        notes=notes + "; " + s.scan.note if s.scan.note else notes,
    )


#: The theorems in the order they are tried, cheapest proof first: rows of
#: (conclusion, branch, test).  ``test(stages)`` returns the verdict's
#: fields (certificate, margins, notes), or None when its theorem does not
#: apply; the last row always applies.
THEOREMS = (
    (INCONCLUSIVE, "kernel rank ambiguous", _rank_ambiguous),
    ("GUAS_trivial_kernel", "common kernel K = {0} forces decay for every switching law",
     _trivial_kernel),
    ("GUAS_C_injective", "ker C_lambda = {0} for all lambda: no output can vanish",
     _C_injective),
    ("NOT_GUAS_constant_input",
     "constant input lambda* makes (C,A) unobservable; the convexified system "
     "(equivalent to the binary one) is not GUAS", _constant_input),
    ("GUAS_dimK_le2", "dim K <= 2 and (C_lambda, A_lambda) observable for every lambda",
     _dimK_le2),
    ("GUAS_G_discrete",
     "tangency set G is discrete and (C_lambda, A_lambda) is observable for every lambda",
     _G_discrete),
    (INCONCLUSIVE, "no theorem branch certifies or refutes GUAS", _undecided),
)
CONCLUSIONS = tuple(dict.fromkeys(conclusion for conclusion, _, _ in THEOREMS))


def analyze(pair: MatrixPair, P=None, options: Optional[AnalyzerOptions] = None) -> Verdict:
    """Run the full decision pipeline on a matrix pair.

    A P given here replaces pair.P, which validates it, after the Hurwitz
    check and before normalization.  Raises NonFiniteInput on a NaN or
    infinite entry, and NotHurwitz / NoCommonWeakLyapunov (from normalize)
    when the standing hypotheses fail, and ValueError, before any stage
    runs, on options out of range: a tol that is not finite and positive;
    an n_grid or seed that is not an integer in [2, MAX_GRID] or >= 0; or
    an evidence_T and evidence_dt that the simulator's horizon rule rejects
    (not finite and positive, a step longer than the horizon, or a step
    count T / dt that overflows).  Otherwise always returns the Verdict of
    the first row of ``THEOREMS`` that applies; the evidence, when attached,
    is ``empirical_evidence``'s default 32 random runs plus the K directions.
    """
    opt = options or AnalyzerOptions()
    tol = opt.tol
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    for name, low, high in (("n_grid", 2, MAX_GRID), ("seed", 0, np.inf)):
        value = getattr(opt, name)
        if not (isinstance(value, (int, np.integer)) and low <= value <= high):
            raise ValueError(f"{name} must be an integer in [{low}, {high}], got {value}")
    _n_steps(opt.evidence_T, opt.evidence_dt)  # the evidence runs' horizon rule
    require_finite(pair)

    hz = is_hurwitz(np.array([pair.B0, pair.B1]), tol)
    for name, hurwitz, marginal, abscissa in zip(
        ("B0", "B1"), hz.hurwitz, hz.marginal, hz.abscissa
    ):
        if not hurwitz:
            kind = "marginal" if marginal else "unstable"
            raise NotHurwitz(
                f"{name} is not Hurwitz ({kind}, abscissa {abscissa:.3e})"
            )

    if P is not None:
        pair = replace(pair, P=P)  # validates P
    npair = normalize(pair)
    decomp = common_kernel(npair, tol)
    stages = _Stages(npair, decomp, opt)
    verdict = next(
        Verdict(conclusion, branch, **fields)
        for conclusion, branch, test in THEOREMS
        if (fields := test(stages)) is not None
    )
    verdict.tolerances = {"tol": tol, "kernel_threshold": decomp.threshold}
    verdict.grid = {"n_grid": opt.n_grid, "lambda_evals": stages.lambda_evals}
    want = opt.with_evidence
    if want is None:
        want = verdict.conclusion == INCONCLUSIVE
    if want:
        verdict.evidence = empirical_evidence(
            npair, T=opt.evidence_T, dt=opt.evidence_dt, seed=opt.seed,
            K_basis=decomp.K_basis,
        )
        if verdict.guas and verdict.evidence.non_decaying_runs:
            raise InternalInconsistency(
                "a theorem-backed GUAS certificate coexists with a "
                "non-decaying adversarial run; tolerance settings are "
                "inconsistent"
            )
    return verdict
