"""Outcome checks for benchmark calls, from how each instance was built.

Nothing here trusts the analyzer's own output: the acceptable outcomes of
an instance are fixed when the instance is generated (see workloads.py),
and a NOT_GUAS witness is re-checked with the public block form and Kalman
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from guas_cert import block_form, common_kernel, kalman_matrix, normalize
from guas_cert.errors import GuasCertError

GUAS_CONCLUSIONS = frozenset({
    "GUAS_trivial_kernel",
    "GUAS_dimK_le2",
    "GUAS_G_discrete",
    "GUAS_C_injective",
})


@dataclass(frozen=True)
class Expect:
    """What a correct analyzer may do on one instance.

    ``conclusions`` lists the acceptable ``Verdict.conclusion`` values;
    ``refused`` means the call must raise a ``GuasCertError`` subclass.
    ``guas`` is the truth when the construction knows it: a GUAS instance
    must not come with a non-decaying adversarial run.
    """

    conclusions: frozenset = frozenset()
    refused: bool = False
    guas: Optional[bool] = None


def not_guas_closed_form(a0: float, a1: float, C0, C1, eps: float = 1e-9) -> bool:
    """Closed-form GUAS rule for kernel dimension k <= 2.

    The drift is A_lam = a_lam J with a_lam = (1 - lam) a0 + lam a1 (for
    k = 1 the drift is 0, so pass a0 = a1 = 0).  The pair is not GUAS iff
    for some lam in [0, 1] either C_lam = 0, or a_lam = 0 and
    rank C_lam < k.
    """
    C0 = np.atleast_2d(np.asarray(C0, float))
    C1 = np.atleast_2d(np.asarray(C1, float))
    k = C0.shape[1]
    if k > 2:
        raise ValueError(f"closed-form rule needs k <= 2, got k = {k}")
    scale = 1.0 + np.linalg.norm(C0) + np.linalg.norm(C1)

    # C_lam = 0: the lam closest to a zero of the affine matrix path
    delta = C1 - C0
    dd = float(np.sum(delta * delta))
    lam = 0.0 if dd == 0.0 else min(max(-float(np.sum(C0 * delta)) / dd, 0.0), 1.0)
    if np.linalg.norm(C0 + lam * delta) <= eps * scale:
        return True

    if k == 1:
        return False  # A_lam = 0 and rank C_lam < 1 means C_lam = 0
    if a0 == 0.0 and a1 == 0.0:
        return _rank_drops_somewhere(C0, C1, eps * scale)
    if a0 * a1 > 0.0:
        return False
    lam_star = a0 / (a0 - a1)
    C = (1.0 - lam_star) * C0 + lam_star * C1
    if C.shape[0] < 2:
        return True
    return bool(np.linalg.svd(C, compute_uv=False)[1] <= eps * scale)


def _rank_drops_somewhere(C0, C1, tol: float) -> bool:
    """Whether rank C_lam < 2 for some lam in [0, 1], for 2-column C.

    rank C_lam < 2 iff every 2x2 minor of C_lam vanishes.  Each minor is a
    quadratic in lam, so the candidates are the roots of one of them.
    """
    if C0.shape[0] < 2:
        return True
    i, j = np.triu_indices(C0.shape[0], 1)

    def minors(lam):
        C = (1.0 - lam) * C0 + lam * C1
        return C[i, 0] * C[j, 1] - C[i, 1] * C[j, 0]

    # a quadratic through three points is exact
    nodes = [0.0, 0.5, 1.0]
    coeffs = np.polyfit(nodes, np.array([minors(l) for l in nodes]), 2)
    nonzero = np.flatnonzero(np.max(np.abs(coeffs), axis=0) > tol)
    if nonzero.size == 0:
        return True  # every minor vanishes identically
    for r in np.roots(coeffs[:, nonzero[0]]):
        if abs(r.imag) <= 1e-9 and -1e-9 <= r.real <= 1.0 + 1e-9:
            if np.max(np.abs(minors(r.real))) <= tol:
                return True
    return False


def outcome_failure(pair, expect: Expect, outcome) -> str:
    """Why one call's outcome is wrong, or "" when it passes.

    ``outcome`` is the returned Verdict or the exception the call raised.
    """
    if isinstance(outcome, BaseException):
        if expect.refused and isinstance(outcome, GuasCertError):
            return ""
        return f"raised {type(outcome).__name__}: {outcome}"
    if expect.refused:
        return f"returned {outcome.conclusion} for an input that must be refused"
    if outcome.conclusion not in expect.conclusions:
        return (
            f"returned {outcome.conclusion}, expected one of "
            f"{sorted(expect.conclusions)}"
        )
    if outcome.conclusion.startswith("NOT_GUAS"):
        return _witness_failure(pair, outcome)
    evidence = outcome.evidence
    if expect.guas and evidence is not None and evidence.non_decaying_runs:
        return f"{evidence.non_decaying_runs} non-decaying adversarial runs on a GUAS pair"
    return ""


def _witness_failure(pair, verdict) -> str:
    """A NOT_GUAS witness must be a unit x* with O(lam*) x* = 0.

    "= 0" is read with the analyzer's own threshold: the sweep refutes only
    when sigma_min < tol (1 + max ||O(lam)||) over lam in {0, 1/2, 1}, and a
    null-space basis vector has ||O x|| <= tol sqrt(k) ||O(lam*)||.  The
    check allows ten times the larger of the two.
    """
    lam = float(verdict.certificate["lambda_star"])
    x = np.asarray(verdict.certificate["witness"], float).ravel()
    npair = normalize(pair)
    tol = verdict.tolerances.get("tol", 1e-9)
    blocks = block_form(npair, common_kernel(npair, tol), tol)

    def O(l):
        return kalman_matrix(blocks.C(l), blocks.A(l))

    if abs(np.linalg.norm(x) - 1.0) > 1e-9:
        return f"witness norm {np.linalg.norm(x):.3e} is not 1"
    scale = 1.0 + max(np.linalg.norm(O(l), 2) for l in (0.0, 0.5, 1.0, lam))
    resid = float(np.linalg.norm(O(lam) @ x))
    if resid > 10.0 * tol * np.sqrt(len(x)) * scale:
        return f"witness is observable: ||O(lambda*) x*|| = {resid:.3e}"
    return ""
