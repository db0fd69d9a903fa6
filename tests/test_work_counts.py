"""Work counts of the benchmark workloads, held to a committed baseline.

For each workload of ``perfbench/workloads.py`` the test sums, over the
instances of seeds 1-3, the lambdas each ``analyze`` call evaluated
(``grid.lambda_evals``), its ``numpy.linalg.svd`` and ``numpy.linalg.eigh``
calls and its ``simulator.expm`` calls.  The counts are deterministic per seed, unlike
wall times, so a change that makes a call do more work fails here even
when the host is too noisy to time it.  The instances are built before the
counters go in, so only the analyzer's own work is counted.

Each sum must lie within TOLERANCE of ``work_counts.json``; the margin
leaves room for bisection paths that depend on the BLAS build.  A change
that moves a count beyond it updates the baseline (regenerate it with
``PYTHONPATH=src python tests/test_work_counts.py``) and says why.
"""

import json
import sys
from pathlib import Path

import numpy as np

from guas_cert import analyze, simulator
from guas_cert.errors import GuasCertError

ROOT = Path(__file__).resolve().parents[1]
BASELINE = Path(__file__).with_name("work_counts.json")
#: Largest relative difference of a sum from its baseline.
TOLERANCE = 0.02
SEEDS = (1, 2, 3)

sys.path.insert(0, str(ROOT / "perfbench"))
try:
    import workloads  # read-only: the benchmark's instance lists
finally:
    sys.path.remove(str(ROOT / "perfbench"))


def work_counts() -> dict:
    """{workload: {"lambda_evals": ..., "svd": ..., "eigh": ..., "expm": ...}},
    each summed over the instances of SEEDS."""
    svd, eigh, expm = np.linalg.svd, np.linalg.eigh, simulator.expm
    out = {}
    for name in workloads.WORKLOADS:
        instances = [i for seed in SEEDS for i in workloads.build(name, seed)]
        calls = out[name] = {"lambda_evals": 0, "svd": 0, "eigh": 0, "expm": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        np.linalg.svd, np.linalg.eigh = counted("svd", svd), counted("eigh", eigh)
        simulator.expm = counted("expm", expm)
        try:
            for inst in instances:
                try:
                    verdict = analyze(inst.pair, None, inst.options)
                except GuasCertError:
                    continue  # refused; its work up to the refusal counts
                calls["lambda_evals"] += verdict.grid["lambda_evals"]
        finally:
            np.linalg.svd, np.linalg.eigh, simulator.expm = svd, eigh, expm
    return out


def test_work_counts_match_the_baseline():
    counts = work_counts()
    baseline = json.loads(BASELINE.read_text())
    assert counts.keys() == baseline.keys()
    off = [
        f"{name}.{key}: {baseline[name][key]} -> {value} "
        f"({value - baseline[name][key]:+d})"
        for name, row in counts.items() for key, value in row.items()
        if abs(value - baseline[name][key]) > TOLERANCE * baseline[name][key]
    ]
    assert not off, "work counts moved beyond the baseline:\n" + "\n".join(off)


if __name__ == "__main__":
    BASELINE.write_text(json.dumps(work_counts(), indent=2) + "\n")
