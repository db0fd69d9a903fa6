"""The verdict pipeline: certificate, counterexample, or inconclusive.

The pipeline certifies GUAS only through proved implications, cheapest
proof first:

* trivial common kernel K = {0};
* C_lam injective for every lambda (tried first when k' >= k; no Kalman
  sweep runs when it holds, since O(lambda) holds C_lam as its top rows);
* dim K <= 2 with (C_lam, A_lam) observable for all lambda;
* G discrete with (C_lam, A_lam) observable for all lambda.

All lambda stages (the injectivity bisection, the Kalman sweep and the
G-scan) run on one SweepScale, built once per family right after the block
form.  A constant-input observability failure at some lambda* refutes GUAS
of the convexified system, which is equivalent to the binary one.  With
k' >= k such a lambda* is a zero of sigma_k(C_lam), so the sweep first
evaluates the lambda where the injectivity bisection found its smallest
value.
Everything else is reported inconclusive, with adversarial simulation
evidence attached; in particular the open conjecture (observability for
every constant input would suffice) is never used as a decision rule.
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
    check_weak_lyapunov,  # noqa: F401  (stage name looked up by perfbench/spans.py)
    is_hurwitz,
    normalize,
    require_finite,
)
from .observability import MAX_GRID, sigma_C_bisection, sweep_lambda, sweep_scale
from .simulator import _n_steps, plateau_rule, worst_case_runs

CONCLUSIONS = (
    "GUAS_trivial_kernel",
    "GUAS_dimK_le2",
    "GUAS_G_discrete",
    "GUAS_C_injective",
    "NOT_GUAS_constant_input",
    "INCONCLUSIVE",
)


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
    final_ratios: list
    plateaued: list
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
    ratios = final / initial
    plateaued = plateau_rule(initial, window_start, final)
    non_decaying = plateaued & (final > 1e-6 * initial)
    return EvidenceSummary(
        n_runs=len(starts),
        T=T,
        dt=dt,
        max_final_ratio=float(ratios.max()),
        final_ratios=ratios.tolist(),
        plateaued=plateaued.tolist(),
        non_decaying_runs=int(non_decaying.sum()),
    )


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
    count T / dt that overflows).  Otherwise always returns a Verdict; the
    evidence, when attached, is ``empirical_evidence``'s default 32 random
    runs plus the K directions.
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

    hz = is_hurwitz(np.stack([pair.B0, pair.B1]), tol)
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
    lambda_evals = 0  # lambdas at which the scale, injectivity, sweep and scan evaluated

    def finish(verdict: Verdict) -> Verdict:
        verdict.tolerances = {"tol": tol, "kernel_threshold": decomp.threshold}
        verdict.grid = {"n_grid": opt.n_grid, "lambda_evals": lambda_evals}
        want = opt.with_evidence
        if want is None:
            want = verdict.conclusion == "INCONCLUSIVE"
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

    if not decomp.certifiable_rank:
        return finish(Verdict(
            "INCONCLUSIVE",
            "kernel rank ambiguous",
            margins={"rank_margin": decomp.rank_margin},
            notes=(
                f"singular values of [S0; S1] straddle the threshold "
                f"(margin {decomp.rank_margin:.2e} < {RANK_MARGIN_FLOOR:.0e}); "
                "no rank decision is certified"
            ),
        ))

    if decomp.k == 0:
        return finish(Verdict(
            "GUAS_trivial_kernel",
            "common kernel K = {0} forces decay for every switching law",
            certificate={"k": 0, "rank_margin": decomp.rank_margin},
            margins={"rank_margin": decomp.rank_margin},
        ))

    blocks = block_form(npair, decomp, tol)
    # the one grid and pair of thresholds every lambda stage below runs on
    scale = sweep_scale(blocks, opt.n_grid, tol)
    lambda_evals += scale.n_evals
    # ker C_lam = {0} for every lam proves GUAS without the Kalman sweep.
    # O(lam) holds C_lam as its top rows, so sigma_k(O(lam)) >= sigma_k(C_lam)
    # and the proved bound is an observability margin too.  Otherwise the
    # bisection's lam* is the sweep's first lambda: when k' >= k, every
    # unobservable lam is a zero of sigma_k(C_lam)
    run = None
    if blocks.k_prime >= blocks.k:
        run = sigma_C_bisection(blocks, blocks.k, scale)
        lambda_evals += run.n_evals
        if run.verdict == "certified":
            return finish(Verdict(
                "GUAS_C_injective",
                "ker C_lambda = {0} for all lambda: no output can vanish",
                certificate={"min_sigma_C_lower_bound": run.bound},
                margins={
                    "observability_margin": run.bound,
                    "rank_margin": decomp.rank_margin,
                    "C_injectivity_margin": run.margin,
                },
            ))
    sweep = sweep_lambda(blocks, scale, None if run is None else run.lambda_star)
    lambda_evals += sweep.n_evals
    margins = {
        "observability_margin": sweep.margin,
        "rank_margin": decomp.rank_margin,
    }
    if sweep.test == "hautus":  # the margin bounds the Hautus test, not sigma_k(O)
        margins["observability_test"] = "hautus"

    if sweep.verdict == "fails_at":
        x_star = sweep.witness[:, 0]
        x_star = x_star / np.linalg.norm(x_star)
        return finish(Verdict(
            "NOT_GUAS_constant_input",
            "constant input lambda* makes (C,A) unobservable; the "
            "convexified system (equivalent to the binary one) is not GUAS",
            certificate={
                "lambda_star": sweep.lambda_star,
                "witness": x_star,
                "sigma_min": sweep.margin,
            },
            margins=margins,
        ))

    scan = None
    if sweep.verdict == "observable_for_all_lambda":
        if run is not None:
            margins["C_injectivity_margin"] = run.margin

        if blocks.k <= 2:
            return finish(Verdict(
                "GUAS_dimK_le2",
                "dim K <= 2 and (C_lambda, A_lambda) observable for every lambda",
                certificate={"k": blocks.k, "case": kpetit_classify(blocks, tol)},
                margins=margins,
            ))

        scan = scan_G(blocks, scale)
        lambda_evals += scan.n_samples
        margins["scan_hits"] = scan.n_hits
        if scan.verdict == "discrete":
            return finish(Verdict(
                "GUAS_G_discrete",
                "tangency set G is discrete and (C_lambda, A_lambda) is "
                "observable for every lambda",
                certificate={
                    "rule": scan.rule,
                    "degree": scan.degree,
                    "g_margin": scan.margin,
                    "roots": scan.roots,
                    "points": scan.points,
                    "sigma_C_lower_bound": scan.sigma_C_lower_bound,
                    "n_samples": scan.n_samples,
                    "n_hits": scan.n_hits,
                },
                margins=margins,
            ))

    notes = ""
    if scan is not None:  # the sweep proved observability for every lambda
        notes = (
            "observable for every constant input, but no proved sufficient "
            "condition applies; only the open conjecture would upgrade this "
            "to GUAS, and it is never used as a decision rule"
        )
        if scan.note:
            notes += "; " + scan.note
    return finish(Verdict(
        "INCONCLUSIVE",
        "no theorem branch certifies or refutes GUAS",
        certificate={
            "sweep_verdict": sweep.verdict,
            "scan_verdict": scan.verdict if scan is not None else "not_run",
            "k": blocks.k,
        },
        margins=margins,
        notes=notes,
    ))
