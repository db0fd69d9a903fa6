import numpy as np
import pytest

from guas_cert import MatrixPair, normalize
from guas_cert.gallery import assemble, kdeux, mason, shared_output, torus

try:
    from hypothesis import settings
except ImportError:  # the property suite skips itself
    pass
else:
    # reproducible examples, and a bounded count that keeps the suite short
    settings.register_profile(
        "guas-cert", derandomize=True, deadline=None, max_examples=150
    )
    settings.load_profile("guas-cert")


def skew(rng, n):
    M = rng.standard_normal((n, n))
    return M - M.T


def stable_block(rng, n, margin=0.5):
    """Random D with D^T + D negative definite by construction."""
    R = rng.standard_normal((n, n))
    shift = np.linalg.eigvalsh(R + R.T)[-1] / 2.0 + margin
    return R - shift * np.eye(n)


def block_pair(rng, k, k_prime, shared_C=False):
    """Random pair already in the canonical block layout."""
    A0, A1 = skew(rng, k), skew(rng, k)
    C0 = rng.standard_normal((k_prime, k))
    C1 = C0 if shared_C else rng.standard_normal((k_prime, k))
    D0, D1 = stable_block(rng, k_prime), stable_block(rng, k_prime)
    return MatrixPair(assemble(A0, C0, D0), assemble(A1, C1, D1))


def corpus_pairs():
    """Named regression pairs reused across property suites."""
    rng = np.random.default_rng(42)
    return {
        "minus_identity": MatrixPair(-np.eye(3), -2.0 * np.eye(3)),
        "mason": mason(),
        "kdeux_pp": kdeux(1.0, 1.0),
        "kdeux_pm": kdeux(1.0, -1.0),
        "kdeux_mm": kdeux(-1.0, -2.0),
        "shared_output": shared_output(),
        "torus": torus(),
        "shared_C": block_pair(rng, 3, 2, shared_C=True),
        "random_blocks": block_pair(rng, 2, 2),
    }


@pytest.fixture(scope="session")
def corpus():
    return corpus_pairs()


@pytest.fixture(scope="session")
def normalized_corpus(corpus):
    return {name: normalize(pair) for name, pair in corpus.items()}
