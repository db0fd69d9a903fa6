"""Built-in example systems used by the CLI and the regression suite.

All square-root constants are computed at runtime so the fixtures carry
full float precision.
"""

from __future__ import annotations

import numpy as np

from .errors import UnknownExample
from .matrix_core import MatrixPair

EXAMPLE_NAMES = ("hurwitz", "shared-output", "kdeux", "torus", "mason")


def assemble(A, C, D) -> np.ndarray:
    """Stack blocks into [[A, -C^T], [C, D]]."""
    A = np.atleast_2d(np.asarray(A, float))
    C = np.atleast_2d(np.asarray(C, float))
    D = np.atleast_2d(np.asarray(D, float))
    return np.block([[A, -C.T], [C, D]])


def hurwitz_demo() -> np.ndarray:
    """Single 3x3 matrix with a rotation on its kernel: Hurwitz by observability."""
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    C = np.array([[1.0, 0.0]])
    return assemble(A, C, [[-1.0]])


def shared_output() -> MatrixPair:
    """Zero drift on K with C_lambda injective for every lambda: GUAS."""
    A = np.zeros((2, 2))
    C0 = np.eye(2)
    C1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return MatrixPair(
        assemble(A, C0, -np.eye(2)),
        assemble(A, C1, -2.0 * np.eye(2)),
        label="shared-output",
    )


def kdeux(a: float = 1.0, b: float = 1.0) -> MatrixPair:
    """dim K = 2 family: rotations at rates a, b observed along e1 and e2.

    GUAS iff a*b > 0.
    """
    A0 = np.array([[0.0, a], [-a, 0.0]])
    A1 = np.array([[0.0, b], [-b, 0.0]])
    C0 = np.array([[1.0, 0.0]])
    C1 = np.array([[0.0, 1.0]])
    D = np.array([[-1.0]])
    return MatrixPair(
        assemble(A0, C0, D), assemble(A1, C1, D), label=f"kdeux(a={a}, b={b})"
    )


def torus(q: int = 2, rates=None, d0: float = 1.0, d1: float = 2.0) -> MatrixPair:
    """dim K = 2q family whose drift orbits are dense on a torus.

    Defaults: q = 2 with rationally independent rates (1, sqrt(2)).  GUAS
    (by a density argument), but outside the automated sufficient
    conditions: the analyzer is expected to report INCONCLUSIVE with
    decaying adversarial evidence.
    """
    if rates is None:
        rates = [np.sqrt(j + 1.0) for j in range(q)]  # 1, sqrt2, sqrt3, ...
    rates = [float(r) for r in rates]
    if len(rates) != q:
        raise ValueError(f"need {q} rates, got {len(rates)}")
    A = np.zeros((2 * q, 2 * q))
    for j, a in enumerate(rates):
        A[2 * j, 2 * j + 1] = -a
        A[2 * j + 1, 2 * j] = a
    C0 = np.tile([1.0, 0.0], q)[None, :]
    C1 = np.tile([0.0, 1.0], q)[None, :]
    return MatrixPair(
        assemble(A, C0, [[-d0]]),
        assemble(A, C1, [[-d1]]),
        label=f"torus(q={q})",
    )


def mason() -> MatrixPair:
    """GUAS 2x2 pair with a weak but no strict common quadratic Lyapunov P."""
    s2 = np.sqrt(2.0)
    B0 = np.array([[-1.0, -1.0], [1.0, -1.0]])
    B1 = np.array([[-1.0, -(3.0 + 2.0 * s2)], [3.0 - 2.0 * s2, -1.0]])
    P = np.diag([1.0, 3.0 + 2.0 * s2])
    return MatrixPair(B0, B1, P, label="mason")


def build(name: str, **params):
    """Instantiate a named example; raises UnknownExample otherwise."""
    builders = {
        "hurwitz": hurwitz_demo,
        "shared-output": shared_output,
        "kdeux": kdeux,
        "torus": torus,
        "mason": mason,
    }
    try:
        builder = builders[name]
    except KeyError:
        raise UnknownExample(
            f"unknown example {name!r}; choose from {', '.join(EXAMPLE_NAMES)}"
        ) from None
    return builder(**params)
