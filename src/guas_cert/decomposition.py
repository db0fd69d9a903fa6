"""Common-kernel computation and the block form of the convexified pair.

For a normalized pair the quadratic decay rates vanish exactly on
K = ker(B0^T + B0) ∩ ker(B1^T + B1).  In an orthonormal frame adapted to
R^d = K ⊕ K⊥ every convex combination B_lam takes the block form

    [ A_lam   -C_lam^T ]
    [ C_lam    D_lam   ]

with A_lam skew-symmetric and D_lam^T + D_lam negative definite for
lam in (0, 1).  The blocks (A, C) define the reduced bilinear system whose
uniform observability is equivalent to GUAS of the switched pair.

Each decision here is one batched LAPACK call: one SVD of [S0; S1] for the
kernel, one ``eigvalsh`` over the five sampled D_lam^T + D_lam for the
block structure, and, on first use, one SVD per block shape for the
spectral norms (``BlockFamily.norms``) that the lambda-sweep's Lipschitz
constants read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import StructureViolation
from .matrix_core import NormalizedPair

#: Ratio (smallest kept singular value) / (largest discarded one) below which
#: the numerical rank decision is considered too ambiguous to certify.
RANK_MARGIN_FLOOR = 1e3


def _fix_column_signs(V: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column positive."""
    if V.size == 0:
        return V
    idx = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[idx, np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    return V * signs


@dataclass(frozen=True)
class NumericalRank:
    """A numerical rank decision on M, with what it rests on."""

    basis: np.ndarray            # n x (n - rank), orthonormal null space
    complement: np.ndarray       # n x rank, orthonormal row space
    singular_values: np.ndarray  # padded with zeros to n
    threshold: float             # singular values <= threshold count as zero
    margin: float                # smallest kept / largest discarded value


def numerical_rank(M: np.ndarray, tol: float = 1e-9) -> NumericalRank:
    """Rank of M by singular value thresholding: the one rank rule.

    Singular values at or below tol * sigma_max * sqrt(n) count as zero.
    The margin is inf when one of the two groups is empty or the largest
    discarded value is exactly 0.  An empty or all-zero M has the identity
    as null-space basis, threshold 0 and margin inf.
    """
    M = np.atleast_2d(np.asarray(M, float))
    n = M.shape[1]
    if M.shape[0] == 0 or not np.any(M):
        return NumericalRank(np.eye(n), np.zeros((n, 0)), np.zeros(n), 0.0, np.inf)
    _, s, Vh = np.linalg.svd(M)
    s = np.concatenate([s, np.zeros(n - len(s))])
    threshold = float(tol * s[0] * np.sqrt(n))
    null = s <= threshold
    kept, discarded = s[~null], s[null]
    if kept.size and discarded.size and discarded.max() > 0:
        margin = float(kept.min() / discarded.max())
    else:
        margin = np.inf
    return NumericalRank(
        _fix_column_signs(Vh[null].T), _fix_column_signs(Vh[~null].T),
        s, threshold, margin,
    )


@dataclass(frozen=True)
class KernelDecomposition:
    """Orthonormal frame R^d = K ⊕ K⊥ adapted to the common kernel."""

    K_basis: np.ndarray       # d x k, orthonormal columns spanning K
    k: int
    k_prime: int
    frame: np.ndarray         # [K_basis | basis of K⊥], orthogonal
    rank_margin: float        # kept/discarded singular value ratio
    threshold: float          # absolute singular value cutoff used

    @property
    def certifiable_rank(self) -> bool:
        return self.rank_margin >= RANK_MARGIN_FLOOR


def common_kernel(pair: NormalizedPair, tol: float = 1e-9) -> KernelDecomposition:
    """Compute K = ker S0 ∩ ker S1 as the null space of the stacked [S0; S1].

    k = 0 and k = d are both valid outcomes.
    """
    rank = numerical_rank(np.vstack([pair.S0, pair.S1]), tol)
    K, Kperp = rank.basis, rank.complement
    return KernelDecomposition(
        K_basis=K,
        k=K.shape[1],
        k_prime=Kperp.shape[1],
        frame=np.hstack([K, Kperp]),
        rank_margin=rank.margin,
        threshold=rank.threshold,
    )


class SpectralNorms(NamedTuple):
    """The spectral norms of a block family's endpoint blocks and their
    differences, which bound how fast its lambda-dependent quantities move."""

    A0: float
    A1: float
    dA: float  # ||A1 - A0||_2
    C0: float
    C1: float
    dC: float  # ||C1 - C0||_2


@dataclass(frozen=True)
class BlockFamily:
    """The lambda-parametrized blocks (A_lam, C_lam, D_lam) in the K-frame.

    A(lam), C(lam), D(lam) are affine in lam; A0 and A1 are skew-symmetric.
    """

    A0: np.ndarray
    A1: np.ndarray
    C0: np.ndarray
    C1: np.ndarray
    D0: np.ndarray
    D1: np.ndarray
    k: int
    k_prime: int
    frame: np.ndarray

    def A(self, lam: float) -> np.ndarray:
        return (1.0 - lam) * self.A0 + lam * self.A1

    def C(self, lam: float) -> np.ndarray:
        return (1.0 - lam) * self.C0 + lam * self.C1

    def D(self, lam: float) -> np.ndarray:
        return (1.0 - lam) * self.D0 + lam * self.D1

    @cached_property
    def norms(self) -> SpectralNorms:
        """||A0||, ||A1||, ||A1 - A0||, ||C0||, ||C1||, ||C1 - C0|| (spectral),
        computed once: one batched SVD per shape, one in all when k' = k.
        An empty block has norm 0."""
        stacks = [np.stack([self.A0, self.A1, self.A1 - self.A0]),
                  np.stack([self.C0, self.C1, self.C1 - self.C0])]
        if stacks[0].shape == stacks[1].shape:
            stacks = [np.concatenate(stacks)]
        norms = [
            np.linalg.svd(S, compute_uv=False)[:, 0] if S.size else np.zeros(len(S))
            for S in stacks
        ]
        return SpectralNorms(*np.concatenate(norms).tolist())

    def framed(self, lam: float) -> np.ndarray:
        """Reassemble the framed B_lam from the blocks."""
        C = self.C(lam)
        top = np.hstack([self.A(lam), -C.T])
        bottom = np.hstack([C, self.D(lam)])
        return np.vstack([top, bottom])


#: Interior lambdas at which D_lam^T + D_lam must be negative definite.
INTERIOR_LAMBDAS = (0.25, 0.5, 0.75)


def block_form(
    pair: NormalizedPair,
    decomp: KernelDecomposition,
    tol: float = 1e-9,
) -> BlockFamily:
    """Read the blocks off frame^T B_i frame and validate their structure.

    Raises StructureViolation when the skew-symmetry of A, the -C^T
    top-right identity, or the negativity of D_lam^T + D_lam fails by more
    than 10x the tolerance scale, which signals a bad normalization or an
    ambiguous kernel rank.  D_lam^T + D_lam must be negative semidefinite up
    to that scale at both endpoints and negative definite at the interior
    lambdas 1/4, 1/2 and 3/4; one batched ``eigvalsh`` covers all five.  The
    checks run in that order, each endpoint's A and C checks before its D
    check, so the first violation is the one raised.
    """
    k = decomp.k
    F = decomp.frame
    framed = [F.T @ B @ F for B in (pair.B0n, pair.B1n)]
    D0, D1 = (M[k:, k:] for M in framed)
    lams = np.array(INTERIOR_LAMBDAS)[:, None, None]
    D = np.concatenate([[D0, D1], (1.0 - lams) * D0 + lams * D1])
    # largest eigenvalue of each D^T + D; -inf when k' = 0 leaves D empty
    w_max = np.max(
        np.linalg.eigvalsh(D + D.swapaxes(-1, -2)), axis=-1, initial=-np.inf
    )
    blocks = []
    for i, (B, M) in enumerate(zip((pair.B0n, pair.B1n), framed)):
        scale = 1.0 + np.linalg.norm(B, "fro")
        limit = 10.0 * tol * scale
        A = M[:k, :k]
        topright = M[:k, k:]
        C = M[k:, :k]
        if np.max(np.abs(A + A.T), initial=0.0) > limit:
            raise StructureViolation(
                "top-left block is not skew-symmetric; pair not normalized?"
            )
        if np.max(np.abs(topright + C.T), initial=0.0) > limit:
            raise StructureViolation("top-right block does not equal -C^T")
        A = 0.5 * (A - A.T)
        A[np.abs(A) < tol * scale] = 0.0
        C = C.copy()
        C[np.abs(C) < tol * scale] = 0.0
        blocks.append((A, C))
        # endpoint: non-strict negativity of D^T + D
        if w_max[i] > limit:
            raise StructureViolation(
                f"D^T + D has positive eigenvalue {w_max[i]:.3e} at an endpoint"
            )
    # strict negativity of D_lam^T + D_lam inside (0, 1)
    for lam, w in zip(INTERIOR_LAMBDAS, w_max[2:]):
        if w >= -10.0 * tol:
            raise StructureViolation(
                f"D_lam^T + D_lam not negative definite at lam = {lam} "
                f"(max eigenvalue {w:.3e}); kernel rank may be ambiguous"
            )
    return BlockFamily(
        A0=blocks[0][0], A1=blocks[1][0],
        C0=blocks[0][1], C1=blocks[1][1],
        D0=D0, D1=D1,
        k=k, k_prime=decomp.k_prime, frame=F,
    )


def subspace_distance(U: np.ndarray, V: np.ndarray) -> float:
    """Spectral-norm distance between the orthogonal projectors on span(U), span(V)."""
    PU = U @ U.T if U.size else np.zeros((U.shape[0], U.shape[0]))
    PV = V @ V.T if V.size else np.zeros((V.shape[0], V.shape[0]))
    diff = PU - PV
    return float(np.linalg.norm(diff, 2)) if diff.size else 0.0


@dataclass(frozen=True)
class KernelLemmaRecord:
    lam: float
    dimension: int
    distance: float
    passed: bool


def verify_kernel_lemma(
    pair: NormalizedPair,
    decomp: KernelDecomposition,
    lam_samples,
    tol: float = 1e-8,
) -> list[KernelLemmaRecord]:
    """Check ker(B_lam^T + B_lam) = K at interior lambda samples.

    Failures are reported, not raised: they indicate numerical rank
    ambiguity rather than programming errors.
    """
    records = []
    for lam in lam_samples:
        if not 0.0 < lam < 1.0:
            raise ValueError(f"lambda sample {lam} not strictly inside (0, 1)")
        S = pair.B(lam)
        S = S.T + S
        N = numerical_rank(S, tol=1e-9).basis
        dist = (
            subspace_distance(N, decomp.K_basis)
            if N.shape[1] == decomp.k
            else np.inf
        )
        records.append(
            KernelLemmaRecord(float(lam), N.shape[1], dist, bool(dist < tol))
        )
    return records
