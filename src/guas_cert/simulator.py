"""Fixed-step trajectory integration for the switched and reduced systems.

Piecewise-constant signals are integrated by matrix-exponential stepping
(exact per segment up to the expm accuracy target); state-feedback signals
use classical RK4 with the feedback evaluated and frozen at each step start.
Every full-system run is checked post hoc against the norm-nonincrease
consequence of the weak Lyapunov bound, every reduced-system run against
norm conservation (the drift is skew-symmetric).

The greedy adversary comes in two forms.  ``worst_case_switching`` steps
one state and keeps every state of the run.  ``worst_case_runs`` steps
many runs as one (m, d) array and keeps only O(m d) numbers: each run's
current state, its initial, window-start and final norms and its largest
one-step norm increase.  Both are heuristic evidence, never a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import expm

from .bad_locus import _killing_lambda, _locus, in_F
from .decomposition import BlockFamily
from .errors import BadSignalSpec, NoOutputs, NotInF, StepTooLarge
from .matrix_core import NormalizedPair


@dataclass(frozen=True)
class SwitchingSignal:
    """A switching law: piecewise-constant segments or a state feedback.

    ``segments`` is a list of (duration, value) pairs; for binary signals
    the values must be 0 or 1, for relaxed signals anywhere in [0, 1].
    Feedback signals carry a callable state -> lambda.
    """

    kind: str  # binary_piecewise | relaxed_piecewise | feedback
    segments: tuple = ()
    rule: Optional[Callable] = None

    def __post_init__(self):
        if self.kind in ("binary_piecewise", "relaxed_piecewise"):
            if not self.segments:
                raise BadSignalSpec("piecewise signal needs at least one segment")
            for dur, val in self.segments:
                if dur <= 0:
                    raise BadSignalSpec(f"non-positive duration {dur}")
                if self.kind == "binary_piecewise" and val not in (0, 1):
                    raise BadSignalSpec(f"binary value {val} not in {{0, 1}}")
                if not 0.0 <= val <= 1.0:
                    raise BadSignalSpec(f"value {val} outside [0, 1]")
        elif self.kind == "feedback":
            if self.rule is None:
                raise BadSignalSpec("feedback signal needs a rule")
        else:
            raise BadSignalSpec(f"unknown signal kind {self.kind!r}")

    @staticmethod
    def binary(segments) -> "SwitchingSignal":
        return SwitchingSignal("binary_piecewise", tuple(segments))

    @staticmethod
    def relaxed(segments) -> "SwitchingSignal":
        return SwitchingSignal("relaxed_piecewise", tuple(segments))

    @staticmethod
    def feedback(rule: Callable) -> "SwitchingSignal":
        return SwitchingSignal("feedback", rule=rule)


@dataclass
class Trajectory:
    """A integrated run: time grid, states, norms, optional outputs."""

    times: np.ndarray
    states: np.ndarray             # (n+1, dim)
    norms: np.ndarray
    outputs: Optional[np.ndarray] = None   # (n+1, k') for reduced runs
    applied_lambda: Optional[np.ndarray] = None  # per-step value used
    meta: dict = field(default_factory=dict)

    @property
    def T(self) -> float:
        return float(self.times[-1])

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0

    def final_ratio(self) -> float:
        return float(self.norms[-1] / self.norms[0]) if self.norms[0] > 0 else 0.0

    def to_csv(self, path) -> None:
        """Write `t,x_1,...,x_n,norm[,y_1,...,y_m,lambda]` at 17 digits."""
        dim = self.states.shape[1]
        cols = [self.times, *self.states.T, self.norms]
        header = ["t"] + [f"x_{i + 1}" for i in range(dim)] + ["norm"]
        if self.outputs is not None:
            m = self.outputs.shape[1]
            cols += list(self.outputs.T)
            header += [f"y_{i + 1}" for i in range(m)]
        if self.applied_lambda is not None:
            lam = np.asarray(self.applied_lambda, float)
            if len(lam) == len(self.times) - 1:
                lam = np.append(lam, lam[-1] if len(lam) else 0.0)
            cols.append(lam)
            header.append("lambda")
        data = np.column_stack(cols)
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in data:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _matrix_at(system, lam: float) -> np.ndarray:
    if isinstance(system, NormalizedPair):
        # direct affine combination; lam may come from a feedback rule and
        # has already been validated
        return (1.0 - lam) * system.B0n + lam * system.B1n
    return system.A(lam)


def _rk4_step(M: np.ndarray, x: np.ndarray, dt: float) -> np.ndarray:
    k1 = M @ x
    k2 = M @ (x + 0.5 * dt * k1)
    k3 = M @ (x + 0.5 * dt * k2)
    k4 = M @ (x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _segment_lambdas(signal: SwitchingSignal, n_steps: int, dt: float) -> np.ndarray:
    """Per-step lambda values with segment boundaries snapped to the grid."""
    lam = np.empty(n_steps)
    pos = 0
    t_acc = 0.0
    for dur, val in signal.segments:
        t_acc += dur
        end = min(n_steps, int(round(t_acc / dt)))
        lam[pos:end] = val
        pos = max(pos, end)
    if pos < n_steps:  # extend the last value to T
        lam[pos:] = signal.segments[-1][1]
    return lam


def _exact_step_bound(initial_norm, n_steps: int):
    """Allowed one-step norm increase of an expm-stepped run (rounding only)."""
    return 1e-12 * (1.0 + initial_norm) * max(1.0, np.sqrt(n_steps))


def _check_full_norms(worst_increase, bound) -> None:
    """Raise StepTooLarge if a run's largest one-step norm increase exceeds
    its bound; both arguments are scalars or per-run arrays."""
    worst_increase, bound = np.broadcast_arrays(worst_increase, bound)
    over = np.flatnonzero(worst_increase > bound)
    if over.size:
        i = over[0]
        run = f" in run {i}" if worst_increase.ndim else ""
        raise StepTooLarge(
            f"norm increased by {worst_increase.flat[i]:.3e}{run} > bound "
            f"{bound.flat[i]:.3e}; shrink dt"
        )


def integrate(
    system,
    signal: SwitchingSignal,
    x0,
    T: float,
    dt: float,
) -> Trajectory:
    """Integrate the full system (NormalizedPair) or the reduced one (BlockFamily).

    Piecewise-constant segments step by cached matrix exponentials; feedback
    runs use RK4 with lambda frozen at step start.  Outputs C_lam x are
    recorded for reduced runs.  Raises StepTooLarge when the post-hoc norm
    check fails.
    """
    if T <= 0 or dt <= 0:
        raise ValueError("T and dt must be positive")
    x0 = np.asarray(x0, float).ravel()
    reduced = isinstance(system, BlockFamily)
    dim = system.k if reduced else system.d
    if len(x0) != dim:
        raise BadSignalSpec(f"x0 has length {len(x0)}, system dimension is {dim}")
    n_steps = max(1, int(round(T / dt)))
    times = np.arange(n_steps + 1) * dt
    states = np.empty((n_steps + 1, dim))
    states[0] = x0
    lam_used = np.empty(n_steps)

    exact_stepping = signal.kind != "feedback"
    if exact_stepping:
        lam_used[:] = _segment_lambdas(signal, n_steps, dt)
        cache: dict[float, np.ndarray] = {}
        x = x0.copy()
        for j in range(n_steps):
            lam = lam_used[j]
            E = cache.get(lam)
            if E is None:
                E = expm(_matrix_at(system, lam) * dt)
                cache[lam] = E
            x = E @ x
            states[j + 1] = x
    else:
        x = x0.copy()
        for j in range(n_steps):
            lam = float(signal.rule(x))
            lam = min(max(lam, 0.0), 1.0)
            lam_used[j] = lam
            x = _rk4_step(_matrix_at(system, lam), x, dt)
            states[j + 1] = x

    norms = np.linalg.norm(states, axis=1)
    outputs = None
    if reduced and system.k_prime:
        lam_full = np.append(lam_used, lam_used[-1])
        lam_col = lam_full[:, None]
        outputs = (1.0 - lam_col) * (states @ system.C0.T) + lam_col * (
            states @ system.C1.T
        )

    Bnorm = max(
        np.linalg.norm(_matrix_at(system, 0.0), 2),
        np.linalg.norm(_matrix_at(system, 1.0), 2),
        1e-30,
    )
    if exact_stepping:
        bound = _exact_step_bound(norms[0], n_steps)
    else:
        # conservative RK4 local-error allowance, surfaced in meta
        bound = 10.0 * dt ** 4 * Bnorm ** 5 * T * max(norms[0], 1.0) + 1e-12
    meta = {"norm_increase_bound": bound, "exact_stepping": exact_stepping}
    if reduced:
        # skew drift: the norm is conserved, a fortiori nonincreasing
        drift = float(np.abs(norms - norms[0]).max())
        meta["norm_drift"] = drift
        if drift > bound + 1e-10 * n_steps * (1.0 + norms[0]):
            raise StepTooLarge(
                f"reduced-system norm drift {drift:.3e} exceeds bound; shrink dt"
            )
    else:
        _check_full_norms(np.diff(norms).max(initial=0.0), bound)
    return Trajectory(times, states, norms, outputs, lam_used, meta)


#: Relative tolerance under which the greedy adversary treats its two
#: quadratic forms as tied, and keeps its previous input.
TIE_TOL = 1e-12


def worst_case_switching(
    pair: NormalizedPair, x0, T: float, dt: float, tie_tol: float = TIE_TOL
) -> Trajectory:
    """Greedy adversarial switching: pick u maximizing the norm derivative.

    At each step the input u in {0, 1} with the least-negative quadratic
    form x^T (B_u^T + B_u) x is applied; ties keep the previous u to avoid
    chattering artifacts.  Heuristic evidence only, never a certificate.
    """
    x0 = np.asarray(x0, float).ravel()
    n_steps = max(1, int(round(T / dt)))
    E = (expm(pair.B0n * dt), expm(pair.B1n * dt))
    S = (pair.S0, pair.S1)
    states = np.empty((n_steps + 1, pair.d))
    states[0] = x0
    u_used = np.empty(n_steps)
    x = x0.copy()
    u = 0
    for j in range(n_steps):
        q0 = float(x @ (S[0] @ x))
        q1 = float(x @ (S[1] @ x))
        if abs(q0 - q1) > tie_tol * (1.0 + abs(q0) + abs(q1)):
            u = 0 if q0 > q1 else 1
        u_used[j] = u
        x = E[u] @ x
        states[j + 1] = x
    norms = np.linalg.norm(states, axis=1)
    times = np.arange(n_steps + 1) * dt
    _check_full_norms(np.diff(norms).max(initial=0.0),
                      _exact_step_bound(norms[0], n_steps))
    return Trajectory(
        times, states, norms, None, u_used, {"adversary": "greedy"}
    )


def worst_case_runs(pair: NormalizedPair, starts, T: float, dt: float):
    """The greedy rule of ``worst_case_switching`` from every row of
    ``starts`` at once, as one (m, d) array of states.

    Each run picks its own u and keeps it on a tie to ``TIE_TOL``.  One
    product x @ [S0 S1 I E0^T E1^T] per step gives both quadratic forms,
    the squared norms and both candidate next states.  No per-step data is
    kept: returns the arrays (initial, window_start, final) of each run's
    norm at t = 0, at the first step of the last quarter of [0, T] (the
    tail ``estimate_omega_limit`` reads with window T / 4) and at T.  Each
    run's largest one-step norm increase is checked against a bound from
    its own initial norm.  Heuristic evidence only, never a certificate.
    """
    x = np.array(starts, float, ndmin=2)
    m, d = x.shape
    if d != pair.d:
        raise BadSignalSpec(f"x0 has length {d}, system dimension is {pair.d}")
    n_steps = max(1, int(round(T / dt)))
    times = np.arange(n_steps + 1) * dt
    window_step = int(np.argmax(times >= times[-1] - T / 4.0))
    E0, E1 = expm(pair.B0n * dt), expm(pair.B1n * dt)
    W = np.hstack([pair.S0.T, pair.S1.T, np.eye(d), E0.T, E1.T])
    Y = np.empty((m, 5 * d))
    forms = Y[:, : 3 * d].reshape(m, 3, d)
    rows = Y.reshape(5 * m, d)
    after_u0 = 5 * np.arange(m) + 3  # row of E_0 x for each run
    u = np.zeros(m, np.intp)
    initial = np.linalg.norm(x, axis=1)
    worst = np.zeros(m)
    window_start = prev = None
    for j in range(n_steps):
        np.matmul(x, W, out=Y)
        q0, q1, sq_norms = np.einsum("ikd,id->ki", forms, x)
        diff = q0 - q1
        strict = np.abs(diff) > TIE_TOL * (1.0 + np.abs(q0) + np.abs(q1))
        np.copyto(u, diff < 0.0, where=strict)
        x = rows.take(after_u0 + u, axis=0)
        norms = np.sqrt(sq_norms)  # before step j
        if j == window_step:
            window_start = norms
        if j:
            np.maximum(worst, norms - prev, out=worst)
        prev = norms
    final = np.linalg.norm(x, axis=1)
    np.maximum(worst, final - prev, out=worst)
    _check_full_norms(worst, _exact_step_bound(initial, n_steps))
    if window_start is None:
        window_start = final
    return initial, window_start, final


@dataclass
class BadFeedbackRun:
    """A run of the vanishing-output feedback, with its exit diagnosis."""

    trajectory: Trajectory
    exit_time: Optional[float]  # first time the state leaves F, None if never
    status: str  # exited_F | reached_N | stayed_in_F


def bad_feedback_trajectory(
    blocks: BlockFamily,
    x0,
    T: float,
    dt: float,
    tol: float = 1e-9,
) -> BadFeedbackRun:
    """Integrate x' = A_{lambda(x)} x while x stays in F.

    The output C_{lambda(x)} x vanishes along the run by construction.  The
    run stops at the first step where membership in F fails (exit_time), or
    when the state reaches N where lambda is ambiguous.
    """
    x0 = np.asarray(x0, float).ravel()
    if not in_F(blocks, x0, tol):
        raise NotInF("bad_feedback_trajectory requires x0 in F")
    n_steps = max(1, int(round(T / dt)))
    states, lam_used, outputs = [x0.copy()], [], []
    x = x0.copy()
    exit_time = None
    status = "stayed_in_F"
    prev_lam = None
    hold_tol = tol * (1.0 + np.linalg.norm(x0))
    for j in range(n_steps):
        loc = _locus(blocks, x, tol)
        if loc.N:
            status = "reached_N"
            break
        if not loc.F:
            exit_time = j * dt
            status = "exited_F"
            break
        if np.linalg.norm(loc.c0 - loc.c1) <= hold_tol and prev_lam is not None:
            lam = prev_lam  # Eq-singular neighborhood: hold the last value
        else:
            lam = _killing_lambda(loc, tol)
        prev_lam = lam
        lam_used.append(lam)
        outputs.append((1.0 - lam) * loc.c0 + lam * loc.c1)
        x = expm(blocks.A(lam) * dt) @ x
        states.append(x.copy())
    states = np.array(states)
    n = len(states) - 1
    times = np.arange(n + 1) * dt
    if outputs:
        outputs.append(outputs[-1])
    traj = Trajectory(
        times,
        states,
        np.linalg.norm(states, axis=1),
        np.array(outputs) if outputs else None,
        np.array(lam_used) if lam_used else None,
        {"status": status},
    )
    return BadFeedbackRun(traj, exit_time, status)


def estimate_omega_limit(
    traj: Trajectory, window: float, tol_plateau: float = 1e-3
) -> tuple[float, bool]:
    """Estimate the limit-sphere radius from the tail of a run.

    Returns (r, plateaued): r is the final norm, plateaued means the norm
    decreased by less than tol_plateau * r over the last window (or already
    collapsed to zero).
    """
    if traj.T < 2.0 * window:
        raise ValueError("trajectory must last at least two windows")
    r = float(traj.norms[-1])
    tail = traj.norms[traj.times >= traj.T - window]
    return r, bool(plateau_rule(traj.norms[0], tail[0], r, tol_plateau))


def plateau_rule(initial, window_start, final, tol_plateau: float = 1e-3):
    """The plateau test, elementwise over runs: the norm fell by at most
    tol_plateau * final over the last window, or collapsed to zero."""
    decrease = window_start - final
    collapsed = final <= 1e-12 * (1.0 + initial)
    return collapsed | (decrease <= tol_plateau * np.maximum(final, 1e-300))


def output_measure(traj: Trajectory, tol: float = 1e-9) -> float:
    """Fraction of time with ||y(t)|| > tol: a step-count surrogate for the
    positive-measure condition on the output."""
    if traj.outputs is None:
        raise NoOutputs("trajectory has no recorded outputs")
    ynorm = np.linalg.norm(traj.outputs[:-1], axis=1)
    if len(ynorm) == 0:
        return 0.0
    return float(np.count_nonzero(ynorm > tol) / len(ynorm))
