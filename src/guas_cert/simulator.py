"""Fixed-step trajectory integration for the switched and reduced systems.

Every signal steps by the matrix exponential of A_lambda dt, with lambda
frozen over the step.  ``integrate`` reads lambda from the segment table
of a piecewise-constant signal.  Every run takes its step count from
``_n_steps`` (T, dt and T / dt finite, 0 < dt <= T, at most ``MAX_STEPS``
steps) and every returned run passes the check of ``_checked_run``: a
full-system run against the norm-nonincrease consequence of the weak
Lyapunov bound, a reduced-system run, the output-silencing feedback too,
against norm conservation (the drift is skew-symmetric).  A norm that
overflows or turns NaN fails the check.

The greedy adversary has one engine, ``_greedy_stretches``.  It steps many
runs as one (m, d) array and hands them out in stretches of constant
input.  While no run switches it steps them in blocks of up to
``BLOCK_CAP`` steps without computing the states inside a block: the rule
margin and the squared norm at E_u^i x are quadratic forms of the block's
start state x, whose packed coefficients ``_form_tables`` builds once per
call from the step powers, two forms of O(BLOCK_CAP d^2) numbers.  One
product of the runs' packed x x^T with those tables gives every margin and
squared norm of a block, and x advances by the power E_u^s.
``worst_case_runs`` keeps only norms: per run its initial, window-start
and final norms and its largest one-step norm increase.  It takes a square
root only at a block's ends and the window start, and every norm of a
block only where its squared norms are not non-increasing.
``worst_case_switching`` keeps every state of one run, built from the
first state of each stretch with the same powers.  Both are heuristic
evidence, never a certificate of GUAS.

``worst_case_runs`` first tries its certificate that no run ever switches
(see its docstring), and takes the runs to T by matrix powers when it
holds; otherwise they fall back to the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import expm

from .bad_locus import _killing_lambda, _locus, in_F
from .decomposition import BlockFamily
from .errors import BadSignalSpec, NoOutputs, NotInF, StepTooLarge
from .matrix_core import NormalizedPair


@dataclass(frozen=True)
class SwitchingSignal:
    """A piecewise-constant switching law.

    ``segments`` is a list of (duration, value) pairs; for binary signals
    the values must be 0 or 1, for relaxed signals anywhere in [0, 1].
    """

    kind: str  # binary_piecewise | relaxed_piecewise
    segments: tuple = ()

    def __post_init__(self):
        if self.kind not in ("binary_piecewise", "relaxed_piecewise"):
            raise BadSignalSpec(f"unknown signal kind {self.kind!r}")
        if not self.segments:
            raise BadSignalSpec("piecewise signal needs at least one segment")
        for dur, val in self.segments:
            if not (math.isfinite(dur) and dur > 0):
                raise BadSignalSpec(f"duration {dur} is not finite and positive")
            if self.kind == "binary_piecewise" and val not in (0, 1):
                raise BadSignalSpec(f"binary value {val} not in {{0, 1}}")
            if not 0.0 <= val <= 1.0:
                raise BadSignalSpec(f"value {val} outside [0, 1]")

    @staticmethod
    def binary(segments) -> "SwitchingSignal":
        return SwitchingSignal("binary_piecewise", tuple(segments))

    @staticmethod
    def relaxed(segments) -> "SwitchingSignal":
        return SwitchingSignal("relaxed_piecewise", tuple(segments))


@dataclass
class Trajectory:
    """An integrated run: time grid, states, norms, optional outputs."""

    times: np.ndarray
    states: np.ndarray             # (n+1, dim)
    norms: np.ndarray
    outputs: Optional[np.ndarray] = None   # (n+1, k') for reduced runs
    applied_lambda: Optional[np.ndarray] = None  # per-step value used

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
        np.savetxt(path, np.column_stack(cols), fmt="%.17g", delimiter=",",
                   header=",".join(header), comments="")


def _segment_lambdas(signal: SwitchingSignal, n_steps: int, dt: float) -> np.ndarray:
    """Per-step lambda values with segment boundaries snapped to the grid."""
    lam = np.empty(n_steps)
    pos = 0
    t_acc = 0.0
    for dur, val in signal.segments:
        t_acc += dur
        end = round(min(n_steps, t_acc / dt))  # t_acc may overflow to inf
        lam[pos:end] = val
        pos = max(pos, end)
    if pos < n_steps:  # extend the last value to T
        lam[pos:] = signal.segments[-1][1]
    return lam


#: Most steps of one run.  A run stores or steps every one of them, so a
#: finite but huge T / dt would exhaust memory or never end.
MAX_STEPS = 10**7


def _n_steps(T: float, dt: float) -> int:
    """The step count round(T / dt) >= 1 of a run; ValueError unless T, dt
    and T / dt are finite with 0 < dt <= T and round(T / dt) <= MAX_STEPS."""
    if not (math.isfinite(T) and math.isfinite(dt) and 0 < dt <= T):
        raise ValueError(
            f"T and dt must be finite with 0 < dt <= T, got T = {T}, dt = {dt}")
    if not math.isfinite(T / dt):
        raise ValueError(f"T / dt must be finite, got T = {T}, dt = {dt}")
    n_steps = int(round(T / dt))
    if n_steps > MAX_STEPS:
        raise ValueError(
            f"T / dt must be at most {MAX_STEPS} steps, got {n_steps} "
            f"(T = {T}, dt = {dt})")
    return n_steps


def _exact_step_bound(initial_norm, n_steps: int):
    """Allowed one-step norm increase of an expm-stepped run (rounding only)."""
    return 1e-12 * (1.0 + initial_norm) * max(1.0, np.sqrt(n_steps))


def _check_full_norms(worst_increase, bound) -> None:
    """Raise StepTooLarge if a run's largest one-step norm increase exceeds
    its bound or is not finite; both arguments are scalars or per-run
    arrays."""
    worst_increase, bound = np.broadcast_arrays(worst_increase, bound)
    over = np.flatnonzero(~(worst_increase <= bound))  # NaN fails too
    if over.size:
        i = over[0]
        run = f" in run {i}" if worst_increase.ndim else ""
        if not np.isfinite(worst_increase.flat[i]):
            raise StepTooLarge(f"norm is not finite{run}")
        raise StepTooLarge(
            f"norm increased by {worst_increase.flat[i]:.3e}{run} > bound "
            f"{bound.flat[i]:.3e}; shrink dt"
        )


def _starts(x0, dim: int) -> np.ndarray:
    """x0 as an (m, dim) float array of m >= 1 starts; BadSignalSpec for
    starts of another length or an empty set."""
    x = np.array(x0, float, ndmin=2)
    if x.shape[1] != dim:
        raise BadSignalSpec(f"x0 has length {x.shape[1]}, system dimension is {dim}")
    if not len(x):
        raise BadSignalSpec("a run needs at least one start")
    return x


def _checked_run(states, dt: float, reduced: bool, outputs=None,
                 applied_lambda=None) -> Trajectory:
    """The Trajectory of the states at steps 0..n of a run, once its norms
    pass the check: a reduced run must conserve its norm (skew drift), a
    full run must not increase it, to rounding bounds.  Raises StepTooLarge;
    a norm that is not finite fails."""
    n_steps = len(states) - 1
    norms = np.linalg.norm(states, axis=1)
    bound = _exact_step_bound(norms[0], n_steps)
    if reduced:
        drift = float(np.abs(norms - norms[0]).max())
        if not drift <= bound + 1e-10 * n_steps * (1.0 + norms[0]):
            why = f"drift {drift:.3e} exceeds bound; shrink dt"
            if not np.isfinite(drift):
                why = "is not finite"
            raise StepTooLarge(f"reduced-system norm {why}")
    else:
        _check_full_norms(np.diff(norms).max(initial=0.0), bound)
    times = np.arange(n_steps + 1) * dt
    return Trajectory(times, states, norms, outputs, applied_lambda)


# overflow and NaN arithmetic in a run is left to the norm check
@np.errstate(over="ignore", invalid="ignore")
def integrate(
    system,
    signal: SwitchingSignal,
    x0,
    T: float,
    dt: float,
) -> Trajectory:
    """Integrate the full system (NormalizedPair) or the reduced one (BlockFamily).

    Every step applies expm(A_lambda dt), lambda the signal's segment value
    at the step start; one exponential is computed per distinct value, so a
    binary run computes at most two.  Outputs C_lam x are recorded for
    reduced runs.  Raises StepTooLarge when the post-hoc norm check fails;
    a non-finite norm fails it.
    """
    n_steps = _n_steps(T, dt)
    reduced = isinstance(system, BlockFamily)
    dim = system.k if reduced else system.d
    x0 = _starts(np.ravel(x0), dim)[0]
    states = np.empty((n_steps + 1, dim))
    states[0] = x0

    A0, A1 = (system.A0, system.A1) if reduced else (system.B0n, system.B1n)
    lam_used = _segment_lambdas(signal, n_steps, dt)
    lams = lam_used.tolist()
    E = {lam: expm(((1.0 - lam) * A0 + lam * A1) * dt) for lam in set(lams)}
    x = x0
    for j, lam in enumerate(lams):
        x = E[lam] @ x
        states[j + 1] = x

    outputs = None
    if reduced and system.k_prime:
        lam = np.append(lam_used, lam_used[-1])[:, None]
        outputs = (1.0 - lam) * (states @ system.C0.T) + lam * (states @ system.C1.T)
    return _checked_run(states, dt, reduced, outputs, lam_used)


#: Relative tolerance under which the greedy adversary treats its two
#: quadratic forms as tied, and keeps its previous input.
TIE_TOL = 1e-12

#: Shortest and longest block of the greedy adversary, in steps; its tables
#: hold O(BLOCK_CAP d^2) numbers.
BLOCK_MIN, BLOCK_CAP = 4, 256

#: A block also ends before a state whose squared norm fell below this share
#: of the block start's: a form read from the start state loses relative
#: accuracy as the state decays.
BLOCK_DECAY = 0.25


def _step_powers(pair: NormalizedPair, dt: float, cap: int) -> np.ndarray:
    """The powers E_u^i of E_u = expm(B_u dt) for u = 0, 1 and i = 0..cap,
    a (2, cap + 1, d, d) array built by doubling."""
    d = pair.d
    P = np.empty((2, cap + 1, d, d))
    P[:, 0] = np.eye(d)
    P[:, 1] = expm(pair.B0n * dt), expm(pair.B1n * dt)
    n = 1
    while n < cap:  # E^(n+i) = E^n E^i
        k = min(n, cap - n)
        np.matmul(P[:, n, None], P[:, 1 : k + 1], out=P[:, n + 1 : n + k + 1])
        n += k
    return P


def _margin_form(pair: NormalizedPair, u: int) -> np.ndarray:
    """The greedy rule's margin form G_u = TIE_TOL (S0 + S1) + (2u - 1)(S0 - S1)
    for the held input u: a run holding u switches at a state y only if
    y^T G_u y > TIE_TOL (``_greedy_stretches``)."""
    return TIE_TOL * (pair.S0 + pair.S1) + (2 * u - 1) * (pair.S0 - pair.S1)


def _form_tables(pair: NormalizedPair, P: np.ndarray) -> np.ndarray:
    """The packed coefficients of two quadratic forms of a block's start
    state x at each power E_u^i of P, i < cap, a (2, cap, 2, p) array indexed
    by (form, i, u, coefficient), p = d (d + 1) / 2.

    With xx the entries x_a x_b, a <= b, of x x^T, xx @ table[0, i, u] is
    the rule margin at E_u^i x, the form E_u^iT G_u E_u^i of
    ``_margin_form``, and xx @ table[1, i, u] the squared norm
    ||E_u^i x||^2, the form E_u^iT E_u^i.  Both are computed straight from
    the powers.
    """
    d = pair.d
    a, b = np.triu_indices(d)
    E = P[:, :-1].swapaxes(0, 1)  # (i, u, d, d)
    G = np.stack([_margin_form(pair, 0), _margin_form(pair, 1)])
    forms = E.swapaxes(-1, -2) @ np.stack([G @ E, E])  # (form, i, u, d, d)
    table = forms.reshape(*forms.shape[:3], d * d).take(a * d + b, axis=-1)
    table *= np.where(a == b, 1.0, 2.0)  # x^T F x = sum over a <= b of w F_ab x_a x_b
    return table


def _window_step(n_steps: int, dt: float, window: float) -> int:
    """The first step j of the grid np.arange(n_steps + 1) * dt with
    j dt >= n_steps dt - window, in the grid's floating-point arithmetic."""
    start = n_steps * dt - window
    j = min(max(math.ceil(start / dt) - 1, 0), n_steps)  # not past the answer
    while j < n_steps and j * dt < start:
        j += 1
    return j


def _greedy_stretches(pair: NormalizedPair, P: np.ndarray, x: np.ndarray,
                      n_steps: int):
    """The greedy adversary from every row of the (m, d) array x, with the
    step powers P of ``_step_powers``, as stretches (j, x, sq_norms, u)
    over which no run switches.

    ``x`` (m, d) holds the states at step j, ``sq_norms`` (s, m) their
    squared norms at steps j .. j+s-1 and ``u`` (m,) each run's input on
    the steps from them, so the state at step j + i is E_u^i x;
    ``sq_norms`` and ``u`` change in place when the next stretch is asked
    for.  The last stretch holds only the state at n_steps.

    Each run picks its own u and keeps it on a tie to ``TIE_TOL``.  A single
    step is one product x @ [S0 S1 I E0^T E1^T], which gives both quadratic
    forms, the squared norms and both candidate next states.  A block of L
    steps reads, from one product of the runs' packed x x^T with their
    input's ``_form_tables`` columns, the two forms at each of its states:
    the rule margin and the squared norm.  Since |q| >= -q, a run that the
    exact rule switches has a margin above ``TIE_TOL``: the block ends at
    the first state where some run's margin is above it, or where some run's
    squared norm fell below ``BLOCK_DECAY`` of its start's, and that state
    takes a single step.  So the switching sequence is the per-step rule's.
    Inputs change only in single steps, so whether every run holds one
    input, whose half of the tables and power alone a block then reads, is
    decided once per run of blocks.  L adapts to how often the runs switch:
    it doubles up to ``BLOCK_CAP`` after a block that no run cut short and
    halves after one that a run did, and after a cut block the number of
    single steps before the next one doubles.  The last block ends at
    n_steps.
    """
    m, d = x.shape
    cap = P.shape[1] - 1
    W = np.hstack([pair.S0.T, pair.S1.T, np.eye(d), P[0, 1].T, P[1, 1].T])
    Y = np.empty((m, 5 * d))
    forms = Y[:, : 3 * d].reshape(m, 3, d)
    rows = Y.reshape(5 * m, d)
    after_u0 = 5 * np.arange(m) + 3  # row of E_0 x for each run
    u = np.zeros(m, np.intp)
    table = _form_tables(pair, P)
    a, b = np.triu_indices(d)
    p = len(a)
    xx = np.empty((2, p, m))  # each run's x x^T in the half of its input
    block = np.empty((2, cap, m))  # margins and squared norms of a block
    L, wait, countdown = BLOCK_MIN, 1, 1  # a single step first
    j = 0
    while j < n_steps:
        for _ in range(min(countdown, n_steps - j)):  # single steps
            np.matmul(x, W, out=Y)
            q0, q1, sq_norms = np.einsum("ikd,id->ki", forms, x)
            diff = q0 - q1
            strict = np.abs(diff) > TIE_TOL * (1.0 + np.abs(q0) + np.abs(q1))
            np.copyto(u, diff < 0.0, where=strict)
            yield j, x, sq_norms[None], u
            x = rows.take(after_u0 + u, axis=0)
            j += 1
        one = u[0] if u.min() == u.max() else None  # the input every run holds
        while j < n_steps:
            # a block: margins and squared norms at E_u^i x, i < L
            L = min(L, n_steps - j)
            xt = x.T
            np.multiply(xt[a], xt[b], out=xx[1])
            if one is not None:
                coefs, packed = table[:, :L, one], xx[1]
            else:
                np.multiply(xx[1], u == 0, out=xx[0])
                xx[1] *= u
                coefs, packed = table[:, :L].reshape(2, L, 2 * p), xx.reshape(2 * p, m)
            margins, sq_norms = np.matmul(coefs, packed, out=block[:, :L])
            # norms do not grow, so a run that decays below BLOCK_DECAY in the
            # block does so by its last state
            floor = BLOCK_DECAY * sq_norms[0]
            s = L
            if np.fmax.reduce(margins, axis=None) > TIE_TOL or (sq_norms[-1] < floor).any():
                cut = (margins > TIE_TOL).any(axis=1) | (sq_norms < floor).any(axis=1)
                s = int(np.argmax(cut)) if cut.any() else L
            if s:  # accept the states j .. j+s-1 and their steps
                yield j, x, sq_norms[:s], u
                if one is None:
                    z = P[:, s] @ xt
                    x = np.where(u[:, None], z[1].T, z[0].T)
                else:
                    x = (P[one, s] @ xt).T
                j += s
            if s < L:  # single steps from the state that cut it
                L, countdown, wait = max(BLOCK_MIN, L // 2), wait, 2 * wait
                break
            L, wait = min(2 * L, cap), 1  # the next block follows at once
    yield n_steps, x, np.einsum("id,id->i", x, x)[None], u


@np.errstate(over="ignore", invalid="ignore")
def worst_case_switching(pair: NormalizedPair, x0, T: float, dt: float) -> Trajectory:
    """Greedy adversarial switching: pick u maximizing the norm derivative.

    At each step the input u in {0, 1} with the least-negative quadratic
    form x^T (B_u^T + B_u) x is applied; ties keep the previous u to avoid
    chattering artifacts.  One run of ``_greedy_stretches``, whose states
    in a stretch are the powers E_u^i applied to its first.  Heuristic
    evidence only, never a certificate.
    """
    n_steps = _n_steps(T, dt)
    x0 = _starts(np.ravel(x0), pair.d)[0]
    P = _step_powers(pair, dt, min(BLOCK_CAP, n_steps))
    states = np.empty((n_steps + 1, pair.d))
    inputs = np.empty(n_steps + 1)
    for j, x, sq_norms, u in _greedy_stretches(pair, P, x0[None], n_steps):
        s = len(sq_norms)
        states[j : j + s] = x[0] if s == 1 else P[u[0], :s] @ x[0]
        inputs[j : j + s] = u[0]
    return _checked_run(states, dt, False, applied_lambda=inputs[:-1])


def _advanced(E: np.ndarray, n: int, x: np.ndarray) -> np.ndarray:
    """The rows of the (m, d) array x advanced n steps by E, E^n x for each,
    by binary powering: O(log n) products."""
    while n:
        if n & 1:
            x = x @ E.T
        n >>= 1
        if n:
            E = E @ E
    return x


def _held_runs(pair: NormalizedPair, x: np.ndarray, initial: np.ndarray,
               n_steps: int, dt: float, window_step: int):
    """The (window_start, final) norms of the greedy runs from the rows of
    x, taken as the linear runs E_u^j x, when the certificate of
    ``worst_case_runs`` shows that no run switches input and that every
    one-step norm increase passes the check; else None: a mixed step-0
    input, a failed bound or a number that is not finite."""
    q0 = np.einsum("id,id->i", x @ pair.S0.T, x)
    q1 = np.einsum("id,id->i", x @ pair.S1.T, x)
    diff = q0 - q1
    switched = (np.abs(diff) > TIE_TOL * (1.0 + np.abs(q0) + np.abs(q1))) & (diff < 0.0)
    if switched.min() != switched.max():
        return None
    u = int(switched[0])
    E = expm((pair.B1n if u else pair.B0n) * dt)
    if not np.isfinite(E).all():
        return None
    sigma = np.linalg.norm(E, 2)
    growth = max(1.0, sigma) ** n_steps
    # The rounding allowance.  With unit roundoff eps / 2, the engine's
    # q_i = y^T S_i y (two length-d dot products) lie within
    # e_i <= d eps ||S_i||_F ||y||^2 of the exact forms, and its tie test
    # and difference round by at most 2 eps relative.  So u switches at y
    # only if y^T G_u y > TIE_TOL (1 - 2 eps) - 2 (e_0 + e_1): the
    # (1 + TIE_TOL) on the e_i and the TIE_TOL eps |q_i| terms are rounded
    # up into the 2.  Forming G_u moves its entries by at most
    # 2 eps (|S_0| + |S_1|), and eigvalsh, backward stable, lambda_max by
    # d eps ||G_u||_2 more.  In all, (lambda_max(G_u) +
    # 4 (d + 1) eps (||S_0||_F + ||S_1||_F)) ||y||^2 < TIE_TOL (1 - 2 eps)
    # rules a switch at y out, as 2 d + d + 2 <= 4 (d + 1).  A computed
    # state is E_u^j x to a relative d^2 eps per step spanned (the
    # product's rounding, |E_u| <= sqrt(d) in norm), hence the factor
    # (1 + n d^2 eps) in R.
    d, eps = pair.d, np.finfo(float).eps
    G = _margin_form(pair, u)
    allowance = 4 * (d + 1) * eps * (np.linalg.norm(pair.S0) + np.linalg.norm(pair.S1))
    R2 = (initial.max() * growth * (1.0 + n_steps * d * d * eps)) ** 2
    if not (np.isfinite(R2)
            and (np.linalg.eigvalsh(G)[-1] + allowance) * R2 < TIE_TOL * (1.0 - 2.0 * eps)
            and (max(sigma - 1.0, 0.0) * growth * initial
                 <= _exact_step_bound(initial, n_steps)).all()):
        return None
    window = _advanced(E, window_step, x)
    final = _advanced(E, n_steps - window_step, window)
    return np.linalg.norm(window, axis=1), np.linalg.norm(final, axis=1)


@np.errstate(over="ignore", invalid="ignore")
def worst_case_runs(pair: NormalizedPair, starts, T: float, dt: float):
    """The greedy adversary from every row of ``starts`` at once, keeping
    only norms: the runs skip to T by matrix powers when a certificate
    shows that none of them switches, and are otherwise
    ``_greedy_stretches`` of one (m, d) array.

    Returns the arrays (initial, window_start, final) of each run's norm at
    t = 0, at the first step of the last quarter of [0, T]
    (``_window_step`` with window T / 4) and at T, the three norms
    ``plateau_rule`` reads; raises BadSignalSpec for an empty start set or
    starts of the wrong length.

    The certificate comes first.  Every run takes its step-0 input u by the
    engine's single-step rule.  When all hold one u, the engine switches a
    run at a state y only if y^T G_u y > TIE_TOL, with the margin form
    G_u = TIE_TOL (S0 + S1) + (2u - 1)(S0 - S1) of ``_margin_form``, the
    one the engine's tables hold.  Norms do not grow, to the factor
    g = max(1, sigma_max(E_u))^n, so if lambda_max(G_u) g^2 max_r ||x_r||^2
    is below TIE_TOL, with a rounding allowance, no state of any run
    reaches the switching margin and the state at step j is E_u^j x.  This
    holds whenever S0 >= S1 (u = 0 throughout), whatever the A_i and C_i:
    every gallery ``torus`` and every pair with S0 = S1.  A pair with
    S1 >= S0 can hold when every start takes u = 1, as the swapped torus's
    starts off K do, but its starts in K tie at step 0 and keep u = 0,
    whose margin form is not negative.  Pairs that switch fail it.  The
    window-start and final norms are then ||E_u^w x|| and
    ||E_u^(n - w) E_u^w x||, w the window step, from O(log n) d x d
    products by binary powering.  Every one-step norm increase of run r is
    at most (sigma_max(E_u) - 1)_+ g ||x_r||; when that is within the
    run's ``_exact_step_bound`` the norm check holds at every step.  A
    mixed or refused input, a bound over its limit or a number that is not
    finite falls back to the block engine, whose norm check raises
    StepTooLarge as before.

    The engine keeps no per-step data beyond the current block, O(m L)
    numbers with L at most ``BLOCK_CAP``.  Each run's largest one-step
    norm increase is checked against a bound from its own initial norm.  A
    norm is taken, by a square root, only at a stretch's first and last
    state and at the window start, unless a block's squared norms are not
    non-increasing (a NaN among them counts): then every norm of that block
    is, and the increases are their differences.  Heuristic evidence only,
    never a certificate of GUAS.
    """
    n_steps = _n_steps(T, dt)
    x = _starts(starts, pair.d)
    window_step = _window_step(n_steps, dt, T / 4.0)
    initial = np.linalg.norm(x, axis=1)
    held = _held_runs(pair, x, initial, n_steps, dt, window_step)
    if held is not None:
        return (initial, *held)
    P = _step_powers(pair, dt, min(BLOCK_CAP, n_steps))
    worst = np.zeros(len(x))
    for j, _, sq_norms, _ in _greedy_stretches(pair, P, x, n_steps):
        s = len(sq_norms)
        first = np.sqrt(sq_norms[0])
        if j:  # the step into state j
            np.maximum(worst, first - last, out=worst)
        last = first
        if s > 1:
            if not (sq_norms[1:] <= sq_norms[:-1]).all():  # a NaN fails too
                norms = np.sqrt(sq_norms)
                np.maximum(worst, np.diff(norms, axis=0).max(axis=0), out=worst)
            last = np.sqrt(sq_norms[-1])
        if j <= window_step < j + s:
            window_start = np.sqrt(sq_norms[window_step - j])
    _check_full_norms(worst, _exact_step_bound(initial, n_steps))
    return initial, window_start, last


@dataclass
class BadFeedbackRun:
    """A run of the vanishing-output feedback, with its exit diagnosis."""

    trajectory: Trajectory
    exit_time: Optional[float]  # first time the state leaves F, None if never
    status: str  # exited_F | reached_N | stayed_in_F


@np.errstate(over="ignore", invalid="ignore")
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
    when the state reaches N where lambda is ambiguous; the norm check
    covers the steps taken.  Raises BadSignalSpec for an x0 of the wrong
    length and NotInF for an x0 outside F.
    """
    n_steps = _n_steps(T, dt)
    x0 = _starts(np.ravel(x0), blocks.k)[0]
    if not in_F(blocks, x0, tol):
        raise NotInF("bad_feedback_trajectory requires x0 in F")
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
    traj = _checked_run(np.array(states), dt, True,
                        np.array(outputs + outputs[-1:]) if outputs else None,
                        np.array(lam_used) if lam_used else None)
    return BadFeedbackRun(traj, exit_time, status)


def plateau_rule(initial, window_start, final):
    """The plateau test, elementwise over runs: the norm fell by at most
    1e-3 * final over the last window, or collapsed to zero."""
    decrease = window_start - final
    collapsed = final <= 1e-12 * (1.0 + initial)
    return collapsed | (decrease <= 1e-3 * np.maximum(final, 1e-300))


def output_measure(traj: Trajectory, tol: float = 1e-9) -> float:
    """Fraction of time with ||y(t)|| > tol: a step-count surrogate for the
    positive-measure condition on the output."""
    if traj.outputs is None:
        raise NoOutputs("trajectory has no recorded outputs")
    ynorm = np.linalg.norm(traj.outputs[:-1], axis=1)
    if len(ynorm) == 0:
        return 0.0
    return float(np.count_nonzero(ynorm > tol) / len(ynorm))
