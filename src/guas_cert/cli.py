"""Command-line front end: `guas-cert analyze | simulate | example`.

Exit codes: 0 GUAS certified, 1 not GUAS, 2 inconclusive, 3 precondition
failure (not Hurwitz / no common weak Lyapunov), 4 I/O or parse error,
non-finite input, or a bad simulation setup, 5 internal error.  Codes 0-2
come only from a verdict; `main` maps every exception to 3, 4 or 5.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

import numpy as np

from . import gallery
from .analyzer import AnalyzerOptions, Verdict, analyze
from .decomposition import block_form, common_kernel
from .errors import (
    BadSignalSpec,
    DimensionMismatch,
    LambdaOutOfRange,
    NoCommonWeakLyapunov,
    NonFiniteInput,
    NotHurwitz,
    NotInF,
    NotPositiveDefinite,
    StepTooLarge,
    UnknownExample,
)
from .matrix_core import MatrixPair, normalize, strict_lyapunov_2x2
from .observability import hurwitz_observability_crosscheck
from .simulator import (
    SwitchingSignal,
    bad_feedback_trajectory,
    estimate_omega_limit,
    integrate,
    worst_case_switching,
)

EXIT_GUAS = 0
EXIT_NOT_GUAS = 1
EXIT_INCONCLUSIVE = 2
EXIT_PRECONDITION = 3
EXIT_IO = 4
EXIT_INTERNAL = 5

#: (exception classes, exit code, message prefix); the first match wins, so
#: a LinAlgError, though a ValueError, is an internal error.
_EXIT_CODES = (
    ((NotHurwitz, NoCommonWeakLyapunov, NotPositiveDefinite),
     EXIT_PRECONDITION, "precondition failed"),
    ((np.linalg.LinAlgError,), EXIT_INTERNAL, "internal error"),
    ((OSError, ValueError, DimensionMismatch, NonFiniteInput, BadSignalSpec,
      UnknownExample, LambdaOutOfRange, NotInF, StepTooLarge),
     EXIT_IO, "error"),
    ((Exception,), EXIT_INTERNAL, "internal error"),
)


def load_problem(path: str) -> MatrixPair:
    """Parse a problem file: JSON with row-major B0, B1 and optional P."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("problem file must hold a JSON object")
    if "B0" not in data or "B1" not in data:
        raise ValueError("problem file must define B0 and B1")
    return MatrixPair(
        np.array(data["B0"], dtype=float),
        np.array(data["B1"], dtype=float),
        np.array(data["P"], dtype=float) if data.get("P") is not None else None,
        label=str(data.get("label", "")),
    )


def save_problem(pair: MatrixPair, path: str) -> None:
    data = {"B0": pair.B0.tolist(), "B1": pair.B1.tolist()}
    if pair.P is not None:
        data["P"] = pair.P.tolist()
    if pair.label:
        data["label"] = pair.label
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)


def parse_signal(spec: str) -> SwitchingSignal:
    """Parse `binary:1=0,2=1` or `relaxed:1=0.3,...`."""
    try:
        kind, _, body = spec.partition(":")
        segments = []
        for part in body.split(","):
            dur, _, val = part.partition("=")
            segments.append((float(dur), float(val)))
        if kind == "binary":
            return SwitchingSignal.binary(segments)
        if kind == "relaxed":
            return SwitchingSignal.relaxed(segments)
    except (ValueError, BadSignalSpec) as exc:
        raise BadSignalSpec(f"cannot parse signal spec {spec!r}: {exc}") from exc
    raise BadSignalSpec(f"unknown signal kind in {spec!r}")


def _verdict_exit_code(verdict: Verdict) -> int:
    if verdict.guas is True:
        return EXIT_GUAS
    if verdict.guas is False:
        return EXIT_NOT_GUAS
    return EXIT_INCONCLUSIVE


def _print_verdict(verdict: Verdict, as_json: bool) -> None:
    if as_json:
        print(verdict.to_json(indent=1))
        return
    print(f"conclusion : {verdict.conclusion}")
    print(f"branch     : {verdict.branch}")
    for k, v in verdict.margins.items():
        print(f"  {k} = {v}")
    if verdict.certificate:
        print(f"certificate: {verdict.certificate}")
    if verdict.evidence is not None:
        ev = verdict.evidence
        print(
            f"evidence   : {ev.n_runs} adversarial runs, "
            f"max final ratio {ev.max_final_ratio:.3e}, "
            f"{ev.non_decaying_runs} non-decaying"
        )
    if verdict.notes:
        print(f"note       : {verdict.notes}")


def _options_from_args(args) -> AnalyzerOptions:
    opt = AnalyzerOptions()
    if args.tol is not None:
        opt.tol = args.tol
    if args.grid is not None:
        opt.n_grid = args.grid
    if args.T is not None:
        opt.evidence_T = args.T
    if args.dt is not None:
        opt.evidence_dt = args.dt
    if args.seed is not None:
        opt.seed = args.seed
    return opt


def cmd_analyze(args) -> int:
    verdict = analyze(load_problem(args.path), options=_options_from_args(args))
    _print_verdict(verdict, args.json)
    return _verdict_exit_code(verdict)


def cmd_simulate(args) -> int:
    pair = load_problem(args.path)
    x0 = np.array([float(v) for v in args.x0.split(",")])
    if not np.all(np.isfinite(x0)):
        raise NonFiniteInput("x0 has a non-finite entry")
    T = args.T if args.T is not None else 10.0
    dt = args.dt if args.dt is not None else 1e-3
    npair = normalize(pair)
    if args.signal == "badlocus":
        blocks = block_form(npair, common_kernel(npair))
        if len(x0) != blocks.k:
            raise DimensionMismatch(
                f"badlocus takes x0 in the coordinates of K: "
                f"length {blocks.k}, got {len(x0)}"
            )
        run = bad_feedback_trajectory(blocks, x0, T, dt)
        traj = run.trajectory
        if run.exit_time is not None:
            print(f"exited F at t = {run.exit_time:.6g}")
        else:
            print(f"status: {run.status}")
    else:
        # the run takes place in the normalized coordinates P^{1/2} x, where
        # its norm is the P-norm; x0 and the states are the problem's own
        if len(x0) != npair.d:
            raise DimensionMismatch(
                f"x0 has length {len(x0)}, system dimension is {npair.d}"
            )
        root, inv_root = npair.provenance["sqrt_P"], npair.provenance["inv_sqrt_P"]
        with np.errstate(over="ignore", invalid="ignore"):  # left to the norm check
            x0 = root @ x0
        if args.signal == "worst":
            traj = worst_case_switching(npair, x0, T, dt)
        else:
            traj = integrate(npair, parse_signal(args.signal), x0, T, dt)
        traj.states = traj.states @ inv_root.T
    traj.to_csv(args.out)
    print(f"final norm ratio: {traj.final_ratio():.6e}")
    if len(traj.times) > 4:
        r, plateaued = estimate_omega_limit(traj, window=traj.T / 4.0)
        print(f"limit radius estimate: {r:.6e} (plateaued: {plateaued})")
    print(f"trajectory written to {args.out}")
    return EXIT_GUAS


# expected outcomes printed next to the computed ones by `example`
_EXPECTED = {
    "shared-output": "GUAS (output map injective for every lambda)",
    "kdeux": "GUAS exactly when a*b > 0",
    "torus": (
        "GUAS (by a density argument outside the automated sufficient "
        "conditions; the analyzer is expected to report INCONCLUSIVE)"
    ),
    "mason": "GUAS with a weak but no strict common quadratic Lyapunov P",
}


def cmd_example(args) -> int:
    params = {}
    if args.name == "kdeux":
        params = {"a": args.a, "b": args.b}
    elif args.name == "torus":
        params = {"q": args.q, "d0": args.d0, "d1": args.d1}
        if args.rates:
            params["rates"] = [float(v) for v in args.rates.split(",")]
    built = gallery.build(args.name, **params)

    if args.name == "hurwitz":
        report = hurwitz_observability_crosscheck(built)
        print(
            f"Hurwitz: {report.hurwitz} (abscissa {report.abscissa:.6g}); "
            f"(C, A) observable: {report.observable}; agree: {report.agree}"
        )
        return EXIT_GUAS if report.agree else EXIT_INCONCLUSIVE

    print(f"expected : {_EXPECTED[args.name]}")
    verdict = analyze(built, options=_options_from_args(args))
    _print_verdict(verdict, args.json)

    if args.name == "mason":
        search = strict_lyapunov_2x2(built)
        print(f"strict 2x2 Lyapunov search: {search.message}")
        for i, verts in enumerate(search.vertex_ordinates):
            pretty = ", ".join(f"(0, {v:.6g})" for v in verts)
            print(f"  det M_{i} = 0 crosses the r-axis at: {pretty}")
    return _verdict_exit_code(verdict)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guas-cert",
        description=(
            "Certify, refute, or report inconclusive the GUAS property of a "
            "switched pair sharing a weak quadratic Lyapunov function."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the analyzer options that `analyze` and `example` share
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None)
    common.add_argument("--grid", type=int, default=None, help="lambda sweep grid size")
    common.add_argument("--T", type=float, default=None, help="evidence horizon")
    common.add_argument("--dt", type=float, default=None, help="evidence time step")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--json", action="store_true", help="emit the JSON report")

    pa = sub.add_parser(
        "analyze", parents=[common], help="run the verdict pipeline on a problem file"
    )
    pa.add_argument("path")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("simulate", help="integrate one trajectory and export CSV")
    ps.add_argument("path")
    ps.add_argument(
        "--signal", required=True,
        help="binary:d=v,... | relaxed:d=v,... | worst | badlocus",
    )
    ps.add_argument(
        "--x0", required=True,
        help="comma-separated initial state in the problem's coordinates "
             "(for badlocus: in the coordinates of K)",
    )
    ps.add_argument("--T", type=float, default=None)
    ps.add_argument("--dt", type=float, default=None)
    ps.add_argument(
        "--out", default="trajectory.csv",
        help="CSV of t, the states, their P-norm, then any outputs and lambda",
    )
    ps.set_defaults(func=cmd_simulate)

    pe = sub.add_parser("example", parents=[common], help="run a built-in example")
    pe.add_argument("name", choices=gallery.EXAMPLE_NAMES)
    pe.add_argument("--a", type=float, default=1.0, help="kdeux rotation rate 0")
    pe.add_argument("--b", type=float, default=1.0, help="kdeux rotation rate 1")
    pe.add_argument("--q", type=int, default=2, help="torus block count")
    pe.add_argument("--rates", default="", help="torus rates, comma-separated")
    pe.add_argument("--d0", type=float, default=1.0)
    pe.add_argument("--d1", type=float, default=2.0)
    pe.set_defaults(func=cmd_example)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except Exception as exc:  # the one place exceptions become exit codes
        code, prefix = next(
            (code, prefix) for classes, code, prefix in _EXIT_CODES
            if isinstance(exc, classes)
        )
        if code == EXIT_INTERNAL:
            traceback.print_exc()
        print(f"{prefix}: {exc}", file=sys.stderr)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
