import importlib

import pytest

import guas_cert

# names taken out of the library, each with the module that held it
REMOVED = [
    ("decomposition", "verify_kernel_lemma"),
    ("decomposition", "KernelLemmaRecord"),
    ("decomposition", "subspace_distance"),
    ("decomposition", "INTERIOR_LAMBDAS"),
    ("matrix_core", "convex_combination"),
    ("errors", "LambdaOutOfRange"),
    ("simulator", "estimate_omega_limit"),
]


@pytest.mark.parametrize("name", guas_cert.__all__)
def test_exported_name_resolves(name):
    assert getattr(guas_cert, name) is not None


@pytest.mark.parametrize("module, name", REMOVED, ids=[name for _, name in REMOVED])
def test_removed_name_is_gone(module, name):
    assert not hasattr(guas_cert, name)
    assert not hasattr(importlib.import_module(f"guas_cert.{module}"), name)


def test_normalized_pair_has_no_convex_combination():
    assert not hasattr(guas_cert.NormalizedPair, "B")
