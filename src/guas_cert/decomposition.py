"""Common-kernel computation and the block form of the convexified pair.

For a normalized pair the quadratic decay rates vanish exactly on
K = ker(B0^T + B0) ∩ ker(B1^T + B1).  In an orthonormal frame adapted to
R^d = K ⊕ K⊥ every convex combination B_lam takes the block form

    [ A_lam   -C_lam^T ]
    [ C_lam    D_lam   ]

with A_lam skew-symmetric and D_lam^T + D_lam negative definite for
lam in (0, 1).  The blocks (A, C) define the reduced bilinear system whose
uniform observability is equivalent to GUAS of the switched pair, and a
``BlockFamily`` holds exactly them; D_lam is checked and then dropped.

Each decision here is one batched LAPACK call: one SVD of [S0; S1] for the
kernel (singular values and V only; its 2d x 2d U is never formed), one
``eigvalsh`` over D_lam^T + D_lam at lam = 0, 1/2, 1 for the block
structure, which ``block_form`` reads off both endpoints at once, and, for
the spectral norms (``BlockFamily.norms``) that the lambda-sweep's
Lipschitz constants read, one SVD per block shape on the first read of a
norm of that shape (one for all six when k' = k).  A block form whose
scale 1 + ||B_i||_F overflows is refused with NonFiniteInput.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import numpy as np

from .errors import NonFiniteInput, StructureViolation
from .matrix_core import NormalizedPair

#: Ratio (smallest kept singular value) / (largest discarded one) below which
#: the numerical rank decision is considered too ambiguous to certify.
RANK_MARGIN_FLOOR = 1e3


def _fix_column_signs(V: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column positive (a zero
    column is left as it is)."""
    top = V[np.abs(V).argmax(axis=0), np.arange(V.shape[1])]
    return V * np.where(top < 0.0, -1.0, 1.0)


@dataclass(frozen=True)
class NumericalRank:
    """A numerical rank decision on M, with what it rests on."""

    basis: np.ndarray            # n x (n - rank), orthonormal null space
    complement: np.ndarray       # n x rank, orthonormal row space
    singular_values: np.ndarray  # padded with zeros to n
    threshold: float             # singular values <= threshold count as zero
    margin: float                # smallest kept / largest discarded value


def rank_threshold(s: np.ndarray, n: int, tol: float):
    """The one rank rule, on the singular values s of an m x n matrix: s
    padded with zeros to n, and the threshold tol * sigma_max * sqrt(n) at
    or below which a value counts as zero (0 when every value is 0)."""
    s = np.concatenate([s, np.zeros(n - len(s))])
    return s, float(tol * s[0] * np.sqrt(n))


def numerical_rank(M: np.ndarray, tol: float = 1e-9) -> NumericalRank:
    """Rank of M by singular value thresholding, by ``rank_threshold``.

    The margin is inf when one of the two groups is empty or the largest
    discarded value is exactly 0.  An empty or all-zero M has the identity
    as null-space basis, threshold 0 and margin inf.
    """
    M = np.atleast_2d(np.asarray(M, float))
    n = M.shape[1]
    if M.shape[0] == 0 or not np.any(M):
        return NumericalRank(np.eye(n), np.zeros((n, 0)), np.zeros(n), 0.0, np.inf)
    # a full V only where M has fewer rows than columns; U is never read
    _, s, Vh = np.linalg.svd(M, full_matrices=M.shape[0] < n)
    s, threshold = rank_threshold(s, n, tol)
    rank = int(np.count_nonzero(s > threshold))
    kept, discarded = s[rank - 1] if rank else 0.0, s[rank] if rank < n else 0.0
    margin = float(kept / discarded) if rank and discarded > 0 else np.inf
    V = _fix_column_signs(Vh.T)
    return NumericalRank(V[:, rank:], V[:, :rank], s, threshold, margin)


@dataclass(frozen=True)
class KernelDecomposition:
    """Orthonormal frame R^d = K ⊕ K⊥ adapted to the common kernel."""

    frame: np.ndarray         # [basis of K | basis of K⊥], orthogonal
    k: int                    # dim K
    rank_margin: float        # kept/discarded singular value ratio
    threshold: float          # absolute singular value cutoff used

    @property
    def K_basis(self) -> np.ndarray:
        """d x k, orthonormal columns spanning K."""
        return self.frame[:, : self.k]

    @property
    def certifiable_rank(self) -> bool:
        return self.rank_margin >= RANK_MARGIN_FLOOR


def common_kernel(pair: NormalizedPair, tol: float = 1e-9) -> KernelDecomposition:
    """Compute K = ker S0 ∩ ker S1 as the null space of the stacked [S0; S1].

    k = 0 and k = d are both valid outcomes.
    """
    rank = numerical_rank(np.vstack([pair.S0, pair.S1]), tol)
    return KernelDecomposition(
        frame=np.hstack([rank.basis, rank.complement]),
        k=rank.basis.shape[1],
        rank_margin=rank.margin,
        threshold=rank.threshold,
    )


#: The names of ``SpectralNorms``, by block shape.
_NORMS = {"A": ("A0", "A1", "dA"), "C": ("C0", "C1", "dC")}


class SpectralNorms:
    """The spectral norms of a block family's endpoint blocks and their
    differences, which bound how fast its lambda-dependent quantities move:
    A0, A1, dA = ||A1 - A0||_2, C0, C1, dC = ||C1 - C0||_2, iterated in that
    order.  The three of a block shape come from one batched SVD, made when
    one of them is first read (one SVD makes all six when k' = k), and are
    kept.  An empty block has norm 0."""

    def __init__(self, blocks: "BlockFamily"):
        self._blocks = blocks

    def __getattr__(self, name):  # only called for a value not yet computed
        if name not in _NORMS["A"] + _NORMS["C"]:
            raise AttributeError(name)
        b = self._blocks
        stacks = {"A": [b.A0, b.A1, b.A1 - b.A0], "C": [b.C0, b.C1, b.C1 - b.C0]}
        if b.A0.shape != b.C0.shape:
            stacks = {shape: stacks[shape] for shape, names in _NORMS.items() if name in names}
        S = np.array(sum(stacks.values(), []))
        top = np.linalg.svd(S, compute_uv=False)[:, 0] if S.size else np.zeros(len(S))
        vars(self).update(zip(sum((_NORMS[shape] for shape in stacks), ()), top.tolist()))
        return vars(self)[name]

    def __iter__(self):
        return (getattr(self, name) for names in _NORMS.values() for name in names)


@dataclass(frozen=True)
class BlockFamily:
    """The reduced bilinear system (A_lam, C_lam) on K, in K's coordinates.

    A(lam) and C(lam) are affine in lam; A0 and A1 are k x k skew-symmetric,
    C0 and C1 are k' x k.  The sizes are read from the blocks.
    """

    A0: np.ndarray
    A1: np.ndarray
    C0: np.ndarray
    C1: np.ndarray

    @property
    def k(self) -> int:
        """dim K."""
        return self.A0.shape[0]

    @property
    def k_prime(self) -> int:
        """dim K⊥, the number of outputs."""
        return self.C0.shape[0]

    def A(self, lam: float) -> np.ndarray:
        return (1.0 - lam) * self.A0 + lam * self.A1

    def C(self, lam: float) -> np.ndarray:
        return (1.0 - lam) * self.C0 + lam * self.C1

    @cached_property
    def norms(self) -> SpectralNorms:
        """||A0||, ||A1||, ||A1 - A0||, ||C0||, ||C1||, ||C1 - C0|| (spectral),
        each shape's computed on its first read (see ``SpectralNorms``)."""
        return SpectralNorms(self)


def block_form(
    pair: NormalizedPair,
    decomp: KernelDecomposition,
    tol: float = 1e-9,
) -> BlockFamily:
    """Read the blocks A_i, C_i off frame^T B_i frame and validate the
    structure of all three blocks.

    Raises StructureViolation when the skew-symmetry of A, the -C^T
    top-right identity, or the negativity of D_lam^T + D_lam fails by more
    than 10x the tolerance scale, which signals a bad normalization or an
    ambiguous kernel rank.  D_lam^T + D_lam must be negative semidefinite up
    to that scale at both endpoints and negative definite at lam = 1/2; one
    batched ``eigvalsh`` covers all three.  Its largest eigenvalue f(lam) is
    convex in lam, so f(0), f(1) <= 0 and f(1/2) < 0 give f < 0 on (0, 1);
    further interior samples would only catch the rounding that the
    endpoint bound allows.  Both endpoints are framed and checked as one
    (2, d, d) stack, and one M + M^T of it holds all three residuals.  The
    checks are then read in that order, each endpoint's A and C checks
    before its D check, so the first violation is the one raised.  The
    tolerance scale is 1 + ||B_i||_F; NonFiniteInput when it overflows.
    """
    k = decomp.k
    F = decomp.frame
    B = np.array([pair.B0n, pair.B1n])
    with np.errstate(over="ignore"):
        scale = 1.0 + np.sqrt((B * B).sum(axis=(1, 2)))
    if not np.isfinite(scale).all():
        raise NonFiniteInput("the norm of a normalized endpoint overflows")
    limit = (10.0 * tol * scale).tolist()
    M = F.T @ B @ F
    # the top rows of M + M^T are [A + A^T, topright + C^T]; its bottom-right
    # block is D^T + D
    H = M + M.swapaxes(-1, -2)
    G = np.abs(H[:, :k])
    skew = G[:, :, :k].max(axis=(1, 2), initial=0.0).tolist()
    coupling = G[:, :, k:].max(axis=(1, 2), initial=0.0).tolist()
    S = H[:, k:, k:]
    # largest eigenvalue of D^T + D at lam = 0, 1, 1/2; -inf when k' = 0 leaves D empty
    w_max = np.linalg.eigvalsh(np.array([S[0], S[1], 0.5 * (S[0] + S[1])]))
    w_max = w_max.max(axis=-1, initial=-np.inf).tolist()
    for i in range(2):
        if skew[i] > limit[i]:
            raise StructureViolation(
                "top-left block is not skew-symmetric; pair not normalized?"
            )
        if coupling[i] > limit[i]:
            raise StructureViolation("top-right block does not equal -C^T")
        # endpoint: non-strict negativity of D^T + D
        if w_max[i] > limit[i]:
            raise StructureViolation(
                f"D^T + D has positive eigenvalue {w_max[i]:.3e} at an endpoint"
            )
    # strict negativity of D_lam^T + D_lam inside (0, 1)
    if w_max[2] >= -10.0 * tol:
        raise StructureViolation(
            f"D_lam^T + D_lam not negative definite at lam = 0.5 "
            f"(max eigenvalue {w_max[2]:.3e}); kernel rank may be ambiguous"
        )
    floor = (tol * scale)[:, None, None]
    A = 0.5 * (M[:, :k, :k] - M[:, :k, :k].swapaxes(-1, -2))
    A[np.abs(A) < floor] = 0.0
    C = M[:, k:, :k].copy()
    C[np.abs(C) < floor] = 0.0
    return BlockFamily(A0=A[0], A1=A[1], C0=C[0], C1=C[1])
