"""The verdict pipeline: certificate, counterexample, or inconclusive.

The pipeline certifies GUAS only through proved implications:

* trivial common kernel K = {0};
* C_lam injective for every lambda;
* dim K <= 2 with (C_lam, A_lam) observable for all lambda;
* G discrete with (C_lam, A_lam) observable for all lambda.

A constant-input observability failure at some lambda* refutes GUAS of the
convexified system, which is equivalent to the binary one.  Everything else
is reported inconclusive, with adversarial simulation evidence attached;
in particular the open conjecture (observability for every constant input
would suffice) is never used as a decision rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bad_locus import kpetit_classify, locus_geometry, scan_G
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
from .observability import sigma_C_bisection, sweep_lambda
from .simulator import plateau_rule, worst_case_runs

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
    evidence_runs: int = 32
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
                return v.tolist()
            if isinstance(v, (np.floating, np.integer)):
                return v.item()
            if isinstance(v, float) and not np.isfinite(v):
                return repr(v)
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

    All runs step together as one (n_runs, d) array in ``worst_case_runs``,
    the greedy engine of ``worst_case_switching`` keeping norms only, in
    blocks of L <= 64 steps while no run switches: O(n_runs L d) numbers.
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

    Raises NonFiniteInput on a NaN or infinite entry, and NotHurwitz /
    NoCommonWeakLyapunov (from normalize) when the standing hypotheses
    fail, and ValueError on options out of range (n_grid < 2, an
    evidence_T or evidence_dt that is not finite and positive, or a step
    longer than the horizon); otherwise always returns a Verdict.
    """
    opt = options or AnalyzerOptions()
    tol = opt.tol
    if opt.n_grid < 2:
        raise ValueError(f"n_grid must be >= 2, got {opt.n_grid}")
    T, dt = opt.evidence_T, opt.evidence_dt
    if not (np.isfinite(T) and np.isfinite(dt) and 0 < dt <= T):
        raise ValueError(
            f"evidence_T and evidence_dt must be finite with 0 < dt <= T, "
            f"got T = {T}, dt = {dt}"
        )
    require_finite(pair)

    for name, B in (("B0", pair.B0), ("B1", pair.B1)):
        hz = is_hurwitz(B, tol)
        if not hz.hurwitz:
            kind = "marginal" if hz.marginal else "unstable"
            raise NotHurwitz(
                f"{name} is not Hurwitz ({kind}, abscissa {hz.abscissa:.3e})"
            )

    npair = normalize(pair, P)
    decomp = common_kernel(npair, tol)
    lambda_evals = 0  # lambdas at which the sweep, injectivity and scan evaluated

    def finish(verdict: Verdict) -> Verdict:
        verdict.tolerances = {"tol": tol, "kernel_threshold": decomp.threshold}
        verdict.grid = {"n_grid": opt.n_grid, "lambda_evals": lambda_evals}
        want = opt.with_evidence
        if want is None:
            want = verdict.conclusion == "INCONCLUSIVE"
        if want:
            verdict.evidence = empirical_evidence(
                npair, opt.evidence_runs, opt.evidence_T, opt.evidence_dt,
                opt.seed, decomp.K_basis,
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
    sweep = sweep_lambda(blocks, opt.n_grid, tol)
    lambda_evals += sweep.n_evals
    margins = {
        "observability_margin": sweep.margin,
        "rank_margin": decomp.rank_margin,
    }

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

    # injectivity of C_lam on all of [0, 1]: sigma_k(C_lam) is Lipschitz with
    # constant ||C1 - C0||_2; a value below the threshold rules it out
    if blocks.k_prime >= blocks.k and sweep.verdict == "observable_for_all_lambda":
        run = sigma_C_bisection(blocks, blocks.k, sweep)
        lambda_evals += run.n_evals
        margins["C_injectivity_margin"] = run.bound
        if run.verdict == "certified":
            return finish(Verdict(
                "GUAS_C_injective",
                "ker C_lambda = {0} for all lambda: no output can vanish",
                certificate={"min_sigma_C_lower_bound": run.bound},
                margins=margins,
            ))

    if blocks.k <= 2 and sweep.verdict == "observable_for_all_lambda":
        kp = kpetit_classify(blocks, sweep, tol)
        return finish(Verdict(
            "GUAS_dimK_le2",
            "dim K <= 2 and (C_lambda, A_lambda) observable for every lambda",
            certificate={"k": blocks.k, "case": kp.case},
            margins=margins,
        ))

    scan = None
    if sweep.verdict == "observable_for_all_lambda":
        geometry = locus_geometry(blocks, tol)
        scan = scan_G(geometry, sweep, tol)
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
    if sweep.verdict == "observable_for_all_lambda":
        notes = (
            "observable for every constant input, but no proved sufficient "
            "condition applies; only the open conjecture would upgrade this "
            "to GUAS, and it is never used as a decision rule"
        )
        if scan is not None and scan.note:
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
