"""Benchmark of ``guas_cert.analyze`` on one seeded workload.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

The benchmark builds the workload's instances from the seed, then calls
``analyze`` in a closed loop (one call at a time, in this one process) for
``--seconds`` and checks every outcome against what the instance's
construction allows.  Between calls it times set-up in fresh interpreters.  With
``--trace 1`` the loop alternates an untraced and a traced call of each
instance and reports per-layer metrics instead.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics;
attempted and failed count distinct instances, not calls.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
WORKLOADS = ("corpus", "scan_k3", "evidence")  # workloads.WORKLOADS, known before import
#: fresh interpreters per run, spread over the timed loop; set-up is their fastest
PROBES = 20
#: the 90th percentile needs ten calls beyond it
P90_MIN_CALLS = 100


class Tally:
    """Wall times and check results of one kind of call (plain or traced)."""

    def __init__(self):
        self.labels: list[str] = []
        self.times: list[float] = []
        self.passed = 0
        self.failures: Counter = Counter()  # (label, reason, known reason) -> calls

    def record(self, inst, outcome, seconds: float, outcome_failure) -> None:
        self.labels.append(inst.label)
        self.times.append(seconds)
        reason = outcome_failure(inst.pair, inst.expect, outcome)
        if not reason:
            self.passed += 1
            return
        name = (type(outcome).__name__ if isinstance(outcome, BaseException)
                else outcome.conclusion)
        known = inst.known_reason if name == inst.known_outcome else ""
        self.failures[(inst.label, reason, known)] += 1

    def per_instance(self, stat) -> dict[str, float]:
        """``stat`` of each instance's call times in this run."""
        by_label: dict[str, list[float]] = {}
        for label, t in zip(self.labels, self.times):
            by_label.setdefault(label, []).append(t)
        return {label: stat(ts) for label, ts in by_label.items()}

    def counted_at(self, stat) -> list[float]:
        """Each call's time replaced by ``stat`` of its instance's call times.

        On a shared host other processes only ever add time to a call, and
        here they add up to 2x from one call to the next.  Statistics of an
        instance's own repeated calls (its fastest, as timeit takes, or its
        90th percentile) repeat from run to run far better than single calls.
        """
        per = self.per_instance(stat)
        return [per[label] for label in self.labels]


def p90(times: list[float]) -> float:
    """The 90th percentile, interpolated between the calls' times."""
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[8]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bench_env() -> dict:
    """This process's environment with one BLAS/OpenMP thread and src first."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def machine_info() -> str:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return (
        f"nproc={os.cpu_count()} usable_cpus={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"scipy={scipy.__version__} blas={blas.get('name')} {blas.get('version')}"
    )


class SetupProbes:
    """Import, input build and warm-up, timed in fresh interpreters.

    The probes run one at a time between timed calls, at even steps of the
    loop's time, so they sample the whole run and not one moment of it.
    The fastest probe is the set-up time: import alone swings by half from
    one fresh interpreter to the next, and other processes only add time.
    """

    def __init__(self, workload: str, seed: int, env: dict):
        self.cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
        self.env = env
        self.samples: list[dict] = []

    def run_due(self, done: float) -> None:
        """Run the probes due once a fraction ``done`` of the loop has passed."""
        while len(self.samples) < min(PROBES, 1 + int(done * PROBES)):
            proc = subprocess.run(self.cmd, env=self.env, capture_output=True,
                                  text=True, timeout=150, check=True)
            self.samples.append(json.loads(proc.stdout.splitlines()[-1]))

    def fastest(self) -> dict:
        self.run_due(1.0)
        return min(self.samples, key=lambda sample: sample["total_s"])


def timed_call(analyze, inst, tracer=None):
    """One analyze call: (wall seconds, Verdict or the exception raised).

    Each call gets its own copy of the instance's arrays, made before the
    clock starts, so a cache keyed on array identity never carries over
    from an earlier call.
    """
    pair = replace(inst.pair, B0=inst.pair.B0.copy(), B1=inst.pair.B1.copy(),
                   P=None if inst.pair.P is None else inst.pair.P.copy())
    t0 = time.perf_counter()
    try:
        if tracer is None:
            outcome = analyze(pair, None, inst.options)
        else:
            outcome = tracer.call(analyze, pair, None, inst.options)
    except Exception as exc:  # a raising call is a result to check, not a crash
        outcome = exc
    return time.perf_counter() - t0, outcome


def run_loop(instances, seconds: float, analyze, outcome_failure, tracer=None,
             between=None):
    """Cycle through the instances until ``seconds`` of loop time are up,
    and at least once through all of them.

    Checks run between calls, outside the timed sections.  With a tracer,
    each instance gets an untraced call and then a traced one.  Between
    calls, ``between(fraction of the loop done)`` may run other work (the
    set-up probes); its time does not count as loop time.
    """
    plain, traced = Tally(), Tally()
    start, paused = time.perf_counter(), 0.0
    i = 0
    while True:
        done = (time.perf_counter() - start - paused) / seconds
        if i >= len(instances) and done >= 1.0:
            break
        if between is not None:
            t0 = time.perf_counter()
            between(done)
            paused += time.perf_counter() - t0
        inst = instances[i % len(instances)]
        i += 1
        dt, outcome = timed_call(analyze, inst)
        plain.record(inst, outcome, dt, outcome_failure)
        if tracer is not None:
            with tracer.installed():
                dt, outcome = timed_call(analyze, inst, tracer)
            traced.record(inst, outcome, dt, outcome_failure)
    return plain, traced


def instance_counts(*tallies: Tally) -> tuple[int, int, int]:
    """(instances attempted, failed, failed in a way not known at the seed).

    An operation is the verdict on one distinct instance.  Its repeated
    calls only time it; it fails if any of them fails.  The counts thus
    depend on the seed alone, not on how many calls fit in the run.
    """
    attempted = {label for tally in tallies for label in tally.labels}
    failures = sum((tally.failures for tally in tallies), Counter())
    failed = {label for label, _, _ in failures}
    unexpected = {label for label, _, known in failures if not known}
    return len(attempted), len(failed), len(unexpected)


def end_to_end_metrics(tally: Tally, setup: dict) -> dict:
    """The median and the throughput count each call at its instance's
    fastest time.  The 90th percentile counts each call at its instance's
    own 90th percentile, so a cost that hits one call in ten or more shows
    in it.  A run on ``scan_k3`` or ``evidence`` makes too few calls for a
    p90 with ten calls beyond it; there the p90 slot repeats the median."""
    times = tally.counted_at(min)
    p50 = statistics.median(times)
    if len(times) >= P90_MIN_CALLS:
        tail = p90(tally.counted_at(p90))
    else:
        tail = p50
    attempted, failed, _ = instance_counts(tally)
    return {
        "correct_per_s": (tally.passed / sum(times), "1/s"),
        "analyze_ms_p50": (1e3 * p50, "ms"),
        "analyze_ms_p90": (1e3 * tail, "ms"),
        "correct_frac": (1.0 - failed / attempted, "ratio"),
        "setup_s": (setup["total_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    env = bench_env()
    os.environ.update({var: env[var] for var in THREAD_VARS})  # before numpy loads
    sys.path.insert(0, str(SRC))
    try:
        import guas_cert
    except ImportError as exc:
        print(f"perfbench: cannot import guas_cert from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(guas_cert.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: guas_cert was imported from {guas_cert.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    import check
    import spans
    import workloads

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine {machine_info()}")
    instances = workloads.build(args.workload, args.seed)
    workloads.warm_up(instances)
    tracer = spans.Tracer() if args.trace else None
    probes = None if args.trace else SetupProbes(args.workload, args.seed, env)
    plain, traced = run_loop(instances, args.seconds, guas_cert.analyze,
                             check.outcome_failure, tracer,
                             probes.run_due if probes else None)
    setup = probes.fastest() if probes else None
    if setup:
        totals = [sample["total_s"] for sample in probes.samples]
        print(f"setup, fastest of {len(totals)} fresh interpreters: "
              + " ".join(f"{k}={v:.4f}" for k, v in setup.items())
              + f" (median total_s={statistics.median(totals):.4f})")

    calls = len(plain.times) + len(traced.times)
    passed = plain.passed + traced.passed
    failures = plain.failures + traced.failures
    attempted, failed, unexpected = instance_counts(plain, traced)
    print(f"calls made={calls} passed={passed} failed={calls - passed}")
    print(f"instances attempted={attempted} failed={failed} "
          f"(known seed failures {failed - unexpected}, unexpected {unexpected}) "
          f"failed_frac={failed / attempted:.6f}")
    for (label, reason, known), n in sorted(failures.items()):
        tag = f"known seed failure: {known}" if known else "UNEXPECTED"
        print(f"  failed x{n} [{tag}] {label}: {reason}")

    if tracer is None:
        metrics = end_to_end_metrics(plain, setup)
    else:
        if tracer.absent:
            print("absent spans (name not found, reported as 0): " + ", ".join(tracer.absent))
        metrics = tracer.layer_metrics(sum(traced.times))
        plain_best, traced_best = plain.per_instance(min), traced.per_instance(min)
        ratios = [traced_best[k] / plain_best[k] - 1.0 for k in plain_best]
        metrics["trace.overhead_pct"] = (100.0 * statistics.median(ratios), "%")
    print(f"samples: {len(plain.times)} untraced calls of "
          f"{len(plain.per_instance(len))} instances"
          + (f", {len(traced.times)} traced calls taking {1e3 * sum(traced.times):.6g} ms"
             if tracer else ""))
    print(f"  raw call times: p50 {1e3 * statistics.median(plain.times):.4g} ms, "
          f"p90 {1e3 * p90(plain.times):.4g} ms, "
          f"correct/s {plain.passed / sum(plain.times):.4g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
