import dataclasses
import importlib
import inspect

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


def test_block_family_is_the_reduced_system():
    """A family holds the four blocks of (A_lam, C_lam) and nothing else;
    k and k' are read from their shapes."""
    fields = [f.name for f in dataclasses.fields(guas_cert.BlockFamily)]
    assert fields == ["A0", "A1", "C0", "C1"]
    for name in ("D", "framed"):
        assert not hasattr(guas_cert.BlockFamily, name), name


def test_kernel_decomposition_stores_the_frame_once():
    fields = [f.name for f in dataclasses.fields(guas_cert.KernelDecomposition)]
    assert fields == ["frame", "k", "rank_margin", "threshold"]


@pytest.mark.parametrize("function", [guas_cert.normalize, guas_cert.check_weak_lyapunov])
def test_lyapunov_matrix_enters_only_on_the_pair(function):
    assert list(inspect.signature(function).parameters) == ["pair"]


def test_sweep_stages_take_the_family_scale():
    """A family's grid and thresholds live on its SweepScale alone: the
    sweep report holds the scale, not copies of its fields, and the sweep
    and the scan take it in place of a grid size and a tolerance."""
    fields = [f.name for f in dataclasses.fields(guas_cert.ObservabilityReport)]
    assert fields == ["scale", "n_evals", "verdict", "margin", "lambda_star", "witness",
                      "test"]
    parameters = {
        function.__name__: list(inspect.signature(function).parameters)
        for function in (guas_cert.sweep_lambda, guas_cert.scan_G)
    }
    assert parameters == {"sweep_lambda": ["blocks", "scale", "lam_hat"],
                          "scan_G": ["blocks", "scale"]}
