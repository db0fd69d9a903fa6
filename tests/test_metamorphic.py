"""Metamorphic relations of ``analyze``: transformations of a pair that
cannot change whether it is GUAS must not change the conclusion.

* Swapping the two matrices relabels the input: B_lam becomes B_(1 - lam),
  so a refuting lambda* moves to 1 - lambda*.
* An orthogonal change of coordinates x -> Q x maps (B0, B1, P) to
  (Q B0 Q^T, Q B1 Q^T, Q P Q^T).

Time rescaling B -> c B is the third relation; the sweep's refutation floor
breaks it, which the strict xfail in ``tests/test_analyzer.py`` pins.
"""

import numpy as np
import pytest

from guas_cert import AnalyzerOptions, MatrixPair, analyze

from conftest import block_pair, corpus_pairs

OPTIONS = AnalyzerOptions(with_evidence=False)
SHAPES = [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3)]


def _cases():
    cases = [pytest.param(pair, id=name) for name, pair in corpus_pairs().items()]
    for k, kp in SHAPES:
        for s in range(20):
            pair = block_pair(np.random.default_rng([s, k, kp]), k, kp)
            cases.append(pytest.param(pair, id=f"blocks-{k}-{kp}-{s}"))
    return cases


@pytest.mark.parametrize("pair", _cases())
def test_conclusion_survives_swap_and_rotation(pair):
    d = pair.d
    Q, _ = np.linalg.qr(np.random.default_rng(d).standard_normal((d, d)))
    P = np.eye(d) if pair.P is None else pair.P
    swapped = MatrixPair(pair.B1, pair.B0, pair.P)
    rotated = MatrixPair(Q @ pair.B0 @ Q.T, Q @ pair.B1 @ Q.T, Q @ P @ Q.T)

    base, swap, rot = (analyze(p, options=OPTIONS) for p in (pair, swapped, rotated))
    assert swap.conclusion == base.conclusion
    assert rot.conclusion == base.conclusion
    if base.conclusion == "NOT_GUAS_constant_input":
        lam = base.certificate["lambda_star"]
        assert swap.certificate["lambda_star"] == pytest.approx(1.0 - lam, abs=1e-12)
