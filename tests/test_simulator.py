import dataclasses
from unittest import mock

import numpy as np
import pytest
from scipy.linalg import expm

import guas_cert.simulator as simulator
from guas_cert import (
    MatrixPair,
    NormalizedPair,
    SwitchingSignal,
    bad_feedback_trajectory,
    block_form,
    common_kernel,
    empirical_evidence,
    integrate,
    normalize,
    output_measure,
    worst_case_switching,
)
from guas_cert.errors import BadSignalSpec, NoOutputs, StepTooLarge
from guas_cert.gallery import assemble, kdeux, mason, torus
from guas_cert.simulator import _window_step, plateau_rule, worst_case_runs

from conftest import greedy_reference, stable_block


@pytest.fixture(scope="module")
def mason_pair():
    return normalize(mason())


@pytest.fixture(scope="module")
def kdeux_reduced():
    npair = normalize(kdeux(1.0, 1.0))
    return block_form(npair, common_kernel(npair))


class TestSwitchingSignal:
    def test_binary_rejects_fractional_value(self):
        with pytest.raises(BadSignalSpec):
            SwitchingSignal.binary([(1.0, 0.5)])

    def test_relaxed_rejects_out_of_range(self):
        with pytest.raises(BadSignalSpec):
            SwitchingSignal.relaxed([(1.0, 1.2)])

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(BadSignalSpec):
            SwitchingSignal.binary([(0.0, 1)])

    @pytest.mark.parametrize("dur", [np.inf, np.nan])
    def test_rejects_non_finite_duration(self, dur):
        with pytest.raises(BadSignalSpec, match="not finite and positive"):
            SwitchingSignal.relaxed([(1.0, 0.5), (dur, 1.0)])

    def test_durations_whose_sum_overflows(self, mason_pair):
        # the segment end times reach inf: the first value runs to T
        huge = integrate(mason_pair, SwitchingSignal.binary([(1e308, 0), (1e308, 1)]),
                         [1.0, 0.5], T=1.0, dt=1e-2)
        one = integrate(mason_pair, SwitchingSignal.binary([(1.0, 0)]),
                        [1.0, 0.5], T=1.0, dt=1e-2)
        np.testing.assert_array_equal(huge.states, one.states)

    def test_feedback_kind_is_unknown(self):
        with pytest.raises(BadSignalSpec, match="unknown signal kind"):
            SwitchingSignal("feedback")

    def test_valid_signals(self):
        SwitchingSignal.binary([(1.0, 0), (2.0, 1)])
        SwitchingSignal.relaxed([(1.0, 0.3)])


class TestIntegrate:
    def test_constant_segment_matches_expm(self, mason_pair):
        from scipy.linalg import expm

        x0 = np.array([1.0, 0.5])
        traj = integrate(mason_pair, SwitchingSignal.binary([(2.0, 0)]), x0,
                         T=2.0, dt=1e-2)
        np.testing.assert_allclose(
            traj.states[-1], expm(2.0 * mason_pair.B0n) @ x0, atol=1e-12
        )

    def test_norm_nonincreasing(self, mason_pair):
        rng = np.random.default_rng(0)
        sig = SwitchingSignal.binary([(0.3, 1), (0.7, 0), (1.1, 1)])
        for _ in range(5):
            x0 = rng.standard_normal(2)
            traj = integrate(mason_pair, sig, x0, T=2.1, dt=1e-2)
            assert np.all(np.diff(traj.norms) <= 1e-12 * (1 + traj.norms[0]))

    def test_relaxed_and_binary_differ(self, mason_pair):
        x0 = np.array([1.0, 0.0])
        tb = integrate(mason_pair, SwitchingSignal.binary([(1.0, 1)]), x0, 1.0, 1e-2)
        tr = integrate(mason_pair, SwitchingSignal.relaxed([(1.0, 0.5)]), x0, 1.0, 1e-2)
        assert np.linalg.norm(tb.states[-1] - tr.states[-1]) > 1e-3

    def test_reduced_constant_lambda_conserves_norm(self, kdeux_reduced):
        blocks = kdeux_reduced
        x0 = np.array([0.6, -0.8])
        traj = integrate(blocks, SwitchingSignal.relaxed([(100.0, 0.3)]), x0,
                         T=100.0, dt=1e-3)
        assert np.max(np.abs(traj.norms - 1.0)) < 1e-8
        assert traj.outputs is not None and traj.outputs.shape[1] == 1

    def test_reduced_outputs_match_per_step_form(self, kdeux_reduced):
        blocks = kdeux_reduced
        sig = SwitchingSignal.relaxed([(0.4, 0.2), (0.6, 0.9)])
        traj = integrate(blocks, sig, [0.6, -0.8], T=1.0, dt=1e-2)
        lam = np.append(traj.applied_lambda, traj.applied_lambda[-1])
        per_step = np.array([blocks.C(l) @ s for l, s in zip(lam, traj.states)])
        np.testing.assert_allclose(traj.outputs, per_step, rtol=0, atol=1e-14)

    def test_x0_of_wrong_length_raises(self, mason_pair, kdeux_reduced):
        signal = SwitchingSignal.binary([(1.0, 0)])
        for system in (mason_pair, kdeux_reduced):
            with pytest.raises(BadSignalSpec, match="x0 has length 3, system dimension is 2"):
                integrate(system, signal, [1.0, 0.0, 0.0], T=1.0, dt=1e-2)
        # the output-silencing run too, before in_F reads x0
        with pytest.raises(BadSignalSpec, match="x0 has length 3, system dimension is 2"):
            bad_feedback_trajectory(kdeux_reduced, [1.0, 0.0, 0.0], T=1.0, dt=1e-2)

    def test_worst_case_x0_of_wrong_length_raises(self, mason_pair):
        with pytest.raises(BadSignalSpec, match="x0 has length 3, system dimension is 2"):
            worst_case_switching(mason_pair, [1.0, 0.0, 0.0], T=1.0, dt=1e-2)

    def test_worst_case_x0_is_checked_before_the_powers(self, mason_pair, monkeypatch):
        """The length of x0 is checked before the step powers and the state
        array, whose size at MAX_STEPS is hundreds of MB, are built."""
        monkeypatch.setattr(simulator, "_step_powers", mock.Mock(side_effect=AssertionError))
        with pytest.raises(BadSignalSpec, match="x0 has length 3, system dimension is 2"):
            worst_case_switching(mason_pair, [1.0, 0.0, 0.0], T=1.0, dt=1e-2)

    def test_overflowing_x0_raises(self, mason_pair, kdeux_reduced):
        # finite entries whose norm overflows
        signal = SwitchingSignal.relaxed([(1.0, 0.3)])
        for system in (mason_pair, kdeux_reduced):
            with pytest.raises(StepTooLarge, match="not finite"):
                integrate(system, signal, [1e308, 1e308], T=1.0, dt=1e-2)

    def test_signal_shorter_than_horizon_extends_last_value(self, mason_pair):
        x0 = np.array([1.0, 1.0])
        t1 = integrate(mason_pair, SwitchingSignal.binary([(0.5, 1)]), x0, 2.0, 1e-2)
        t2 = integrate(mason_pair, SwitchingSignal.binary([(2.0, 1)]), x0, 2.0, 1e-2)
        np.testing.assert_allclose(t1.states[-1], t2.states[-1], atol=1e-12)

    def test_time_grid(self, mason_pair):
        traj = integrate(mason_pair, SwitchingSignal.binary([(1.0, 0)]),
                         [1.0, 0.0], T=1.0, dt=0.25)
        np.testing.assert_allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert traj.states.shape == (5, 2)


ENTRIES = ["integrate", "worst_case_switching", "worst_case_runs",
           "bad_feedback_trajectory"]


def run_entry(entry, mason_pair, kdeux_reduced, T, dt):
    """Run one of the simulator's entry points over the horizon (T, dt)."""
    runs = {
        "integrate": lambda: integrate(
            mason_pair, SwitchingSignal.binary([(1.0, 0)]), [1.0, 0.0], T, dt),
        "worst_case_switching": lambda: worst_case_switching(
            mason_pair, [1.0, 0.0], T, dt),
        "worst_case_runs": lambda: worst_case_runs(mason_pair, np.eye(2), T, dt),
        "bad_feedback_trajectory": lambda: bad_feedback_trajectory(
            kdeux_reduced, np.array([1.0, -1.0]) / np.sqrt(2.0), T, dt),
    }
    return runs[entry]()


class TestHorizon:
    @pytest.mark.parametrize("T, dt", [(-1.0, 1e-3), (1.0, 0.0), (1.0, -1e-3),
                                       (np.inf, 1e-3), (1.0, 5.0), (1.0, np.nan)])
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_bad_horizon_raises(self, mason_pair, kdeux_reduced, entry, T, dt):
        with pytest.raises(ValueError, match="0 < dt <= T"):
            run_entry(entry, mason_pair, kdeux_reduced, T, dt)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_step_count_overflow_raises(self, mason_pair, kdeux_reduced, entry):
        # 0 < dt <= T holds, but T / dt overflows to inf
        with pytest.raises(ValueError, match="T / dt must be finite"):
            run_entry(entry, mason_pair, kdeux_reduced, 1e300, 1e-300)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_step_count_cap_raises(self, mason_pair, kdeux_reduced, entry):
        # finite T / dt, but 1e15 steps: rejected before any allocation
        with pytest.raises(ValueError, match=f"at most {simulator.MAX_STEPS} steps"):
            run_entry(entry, mason_pair, kdeux_reduced, 1e12, 1e-3)

    def test_step_count_cap_is_inclusive(self):
        assert simulator._n_steps(float(simulator.MAX_STEPS), 1.0) == simulator.MAX_STEPS
        with pytest.raises(ValueError, match="at most"):
            simulator._n_steps(simulator.MAX_STEPS + 1.0, 1.0)

    def test_step_equal_to_horizon_is_one_step(self, mason_pair):
        traj = worst_case_switching(mason_pair, [1.0, 0.0], T=0.5, dt=0.5)
        np.testing.assert_array_equal(traj.times, [0.0, 0.5])


class TestCsv:
    def test_header_and_roundtrip(self, mason_pair, tmp_path):
        traj = integrate(mason_pair, SwitchingSignal.binary([(1.0, 0)]),
                         [1.0, 0.3], T=1.0, dt=0.1)
        path = tmp_path / "run.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x_1,x_2,norm,lambda"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_allclose(data[:, 1:3], traj.states, rtol=1e-15)

    def test_loadtxt_reads_back_every_column_exactly(self, kdeux_reduced, tmp_path):
        signal = SwitchingSignal.relaxed([(0.4, 0.2), (0.6, 0.9)])
        traj = integrate(kdeux_reduced, signal, [0.6, -0.8], T=1.0, dt=1e-2)
        path = tmp_path / "run.csv"
        traj.to_csv(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(data[:, 0], traj.times)
        np.testing.assert_array_equal(data[:, 1:3], traj.states)
        np.testing.assert_array_equal(data[:, 3], traj.norms)
        np.testing.assert_array_equal(data[:, 4:5], traj.outputs)
        np.testing.assert_array_equal(data[:-1, 5], traj.applied_lambda)
        assert data[-1, 5] == traj.applied_lambda[-1]  # the last value repeats

    def test_reduced_header_includes_outputs(self, kdeux_reduced, tmp_path):
        blocks = kdeux_reduced
        traj = integrate(blocks, SwitchingSignal.relaxed([(1.0, 0.5)]),
                         [1.0, 0.0], T=1.0, dt=0.1)
        path = tmp_path / "reduced.csv"
        traj.to_csv(path)
        assert path.read_text().splitlines()[0] == "t,x_1,x_2,norm,y_1,lambda"


class TestWorstCase:
    def test_mason_worst_case_decays(self, mason_pair):
        traj = worst_case_switching(mason_pair, [1.0, 0.0], T=30.0, dt=1e-2)
        assert traj.final_ratio() < 1e-3

    def test_dominates_random_binary_signals(self, mason_pair):
        """The greedy adversary should be at least as slow to decay as random
        switching. Reported as a sanity margin, not a theorem."""
        rng = np.random.default_rng(5)
        x0 = np.array([0.8, 0.6])
        T, dt = 5.0, 1e-2
        worst = worst_case_switching(mason_pair, x0, T=T, dt=dt).final_ratio()
        beaten = 0
        for _ in range(100):
            durs = rng.uniform(0.1, 1.0, size=10)
            durs *= T / durs.sum()
            vals = rng.integers(0, 2, size=10)
            sig = SwitchingSignal.binary(list(zip(durs, vals)))
            r = integrate(mason_pair, sig, x0, T=T, dt=dt).final_ratio()
            if r > worst + 1e-12:
                beaten += 1
        # greedy is a heuristic; it should rarely lose, and never by much
        assert beaten <= 5

    def test_torus_worst_case_still_decays(self):
        npair = normalize(torus())
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal(npair.B0n.shape[0])
        x0 /= np.linalg.norm(x0)
        traj = worst_case_switching(npair, x0, T=100.0, dt=1e-2)
        assert traj.final_ratio() < 1e-1
        assert np.all(np.diff(traj.norms) <= 1e-10)

    def test_overflowing_x0_raises(self, mason_pair):
        with pytest.raises(StepTooLarge, match="not finite"):
            worst_case_switching(mason_pair, [1e308, 1e308], T=1.0, dt=1e-2)


def assert_same_run(traj, ref):
    """Equal inputs, and states within 1e-12 of the reference's norm."""
    np.testing.assert_array_equal(traj.applied_lambda, ref.applied_lambda)
    error = np.linalg.norm(traj.states - ref.states, axis=1)
    assert np.all(error <= 1e-12 * ref.norms)


def switching_pair() -> MatrixPair:
    """k = 2, k' = 3 pair with distinct random dissipative blocks D0, D1, so
    the greedy input changes often, in a random orthonormal frame."""
    rng = np.random.default_rng(2)
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    a0, a1 = rng.uniform(0.5, 2.0, 2) * rng.choice([-1.0, 1.0], 2)
    C0, C1 = rng.standard_normal((2, 3, 2))
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    B0 = assemble(a0 * J, C0, stable_block(rng, 3))
    B1 = assemble(a1 * J, C1, stable_block(rng, 3))
    return MatrixPair(Q.T @ B0 @ Q, Q.T @ B1 @ Q)


def invariant_plane_pair() -> MatrixPair:
    """Both modes rotate a plane that no output sees: every run plateaus."""
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    zero = [[0.0, 0.0]]
    return MatrixPair(assemble(J, zero, [[-1.0]]), assemble(2.0 * J, zero, [[-2.0]]))


def slow_rotation_pair() -> NormalizedPair:
    """A unit-rate rotation that damps x_1 in mode 0 and x_2 in mode 1: the
    greedy input switches where the state crosses a diagonal, a quarter turn
    (about 157 steps of 1e-2) apart."""
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    return NormalizedPair(J - np.diag([0.5, 0.0]), J - np.diag([0.0, 0.5]))


def swapped_torus() -> NormalizedPair:
    """``torus(2)`` with its modes swapped, so S1 >= S0: a start off K
    switches to u = 1 at step 0, and a start in K ties and keeps u = 0."""
    pair = torus(2)
    return normalize(MatrixPair(pair.B1, pair.B0))


class TestGreedyReplay:
    @pytest.mark.parametrize("pair", [mason(), switching_pair()],
                             ids=["mason", "switching"])
    @pytest.mark.parametrize("T, dt", [(5.0, 1e-2), (2.0, 5e-3)])
    def test_replay_as_binary_segments(self, pair, T, dt):
        """The greedy run takes the per-step rule's inputs.  Replayed as
        piecewise segments through integrate they give its states up to the
        rounding of block products, and bitwise the per-step products."""
        npair = normalize(pair)
        x0 = np.random.default_rng(0).standard_normal(npair.d)
        greedy = worst_case_switching(npair, x0, T, dt)
        reference = greedy_reference(npair, x0, T, dt)
        assert_same_run(greedy, reference)
        u = greedy.applied_lambda
        first = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        lengths = np.diff(np.r_[first, len(u)])
        segments = [(n * dt, int(u[i])) for i, n in zip(first, lengths)]
        replay = integrate(npair, SwitchingSignal.binary(segments), x0, T, dt)
        assert_same_run(replay, greedy)
        np.testing.assert_array_equal(replay.states, reference.states)


class TestWorstCaseRuns:
    T, DT, N_RANDOM, SEED = 10.0, 1e-2, 6, 3

    @pytest.mark.parametrize(
        "pair, min_switches, min_non_decaying",
        [(torus(2), 0, 0), (mason(), 0, 0), (switching_pair(), 100, 0),
         (invariant_plane_pair(), 0, 1)],
        ids=["torus", "mason", "switching", "invariant_plane"],
    )
    def test_matches_per_start_runs(self, pair, min_switches, min_non_decaying):
        npair = normalize(pair)
        K_basis = common_kernel(npair).K_basis
        ev = empirical_evidence(npair, self.N_RANDOM, self.T, self.DT,
                                self.SEED, K_basis)

        rng = np.random.default_rng(self.SEED)
        starts = rng.standard_normal((self.N_RANDOM, npair.d))
        starts /= np.linalg.norm(starts, axis=1, keepdims=True)
        if K_basis.size:
            starts = np.vstack([starts, K_basis.T])
        ratios, plateaued, non_decaying, switches = [], [], 0, 0
        for x0 in starts:
            traj = greedy_reference(npair, x0, self.T, self.DT)
            norms = traj.norms
            tail = norms[_window_step(len(norms) - 1, traj.dt, self.T / 4.0)]
            r, p = norms[-1], bool(plateau_rule(norms[0], tail, norms[-1]))
            ratios.append(traj.final_ratio())
            plateaued.append(p)
            non_decaying += p and r > 1e-6 * traj.norms[0]
            switches += np.count_nonzero(np.diff(traj.applied_lambda))

        assert ev.n_runs == len(starts)
        np.testing.assert_allclose(ev.final_ratios, ratios, rtol=0, atol=1e-12)
        assert ev.plateaued == plateaued
        assert ev.non_decaying_runs == non_decaying >= min_non_decaying
        assert switches >= min_switches

    @pytest.mark.parametrize("pair, T, dt, tie_tol, min_loose_changes", [
        # the never-switching pairs run whole blocks; at T = 0.99, dt = 0.03
        # the window starts inside one
        pytest.param(pair, T, dt, tie_tol, changes, id=f"{name}{T}-{dt}-{tie_tol}")
        for name, pair, changes in (("", switching_pair(), 100), ("torus-", torus(2), 0),
                                    ("invariant_plane-", invariant_plane_pair(), 0))
        for T, dt, tie_tol in ((1.0, 0.1, 1e-12), (0.99, 0.03, 1e-12),
                               (2.0, 5e-3, 1e-12), (10.0, 1e-2, 1e-3))
    ])
    def test_norms_match_full_trajectories(self, monkeypatch, pair, T, dt, tie_tol,
                                           min_loose_changes):
        npair = normalize(pair)
        first = np.zeros(npair.d)
        first[:2] = 0.6, -0.8
        starts = np.vstack([first, np.random.default_rng(0).standard_normal((3, npair.d))])
        monkeypatch.setattr(simulator, "TIE_TOL", tie_tol)
        initial, window_start, final = worst_case_runs(npair, starts, T, dt)
        for i, x0 in enumerate(starts):
            traj = greedy_reference(npair, x0, T, dt)
            assert_same_run(worst_case_switching(npair, x0, T, dt), traj)
            tail = traj.norms[traj.times >= traj.T - T / 4.0]
            assert initial[i] == traj.norms[0]
            assert window_start[i] == pytest.approx(tail[0], rel=1e-13)
            assert final[i] == pytest.approx(traj.norms[-1], rel=1e-13)
        if tie_tol > 1e-6:  # the loose tolerance makes ties that keep u
            loose = worst_case_switching(npair, starts[0], T, dt)
            monkeypatch.setattr(simulator, "TIE_TOL", 1e-12)
            strict = worst_case_switching(npair, starts[0], T, dt)
            changed = np.count_nonzero(loose.applied_lambda != strict.applied_lambda)
            assert changed >= min_loose_changes

    def test_switch_inside_a_block(self):
        """Runs that keep u for tens of steps and then switch: a block that a
        switch cuts short is rolled back to it."""
        npair = slow_rotation_pair()
        angles = np.linspace(0.1, 3.0, 6)
        starts = np.column_stack([np.cos(angles), np.sin(angles)])
        T, dt = 10.0, 1e-2
        initial, window_start, final = worst_case_runs(npair, starts, T, dt)
        longest_hold = 0
        for i, x0 in enumerate(starts):
            traj = greedy_reference(npair, x0, T, dt)
            assert_same_run(worst_case_switching(npair, x0, T, dt), traj)
            tail = traj.norms[traj.times >= traj.T - T / 4.0]
            assert initial[i] == traj.norms[0]
            assert window_start[i] == pytest.approx(tail[0], rel=1e-13)
            assert final[i] == pytest.approx(traj.norms[-1], rel=1e-13)
            assert final[i] / initial[i] == pytest.approx(traj.final_ratio(), rel=0,
                                                         abs=1e-12)
            switch_steps = np.flatnonzero(np.diff(traj.applied_lambda)) + 1
            if switch_steps.size:
                longest_hold = max(longest_hold, np.diff(switch_steps, prepend=0).max())
        assert longest_hold >= 8

    def test_mixed_inputs_in_one_block(self):
        """Runs on both sides of the diagonal hold opposite inputs for tens of
        steps inside the same blocks; each takes its own input's forms."""
        npair = slow_rotation_pair()
        angles = np.array([0.3, 0.3 + np.pi / 2.0, 1.0, 1.0 + np.pi / 2.0, 2.0])
        starts = np.column_stack([np.cos(angles), np.sin(angles)])
        T, dt = 10.0, 1e-2
        initial, window_start, final = worst_case_runs(npair, starts, T, dt)
        for i, x0 in enumerate(starts):
            traj = greedy_reference(npair, x0, T, dt)
            assert_same_run(worst_case_switching(npair, x0, T, dt), traj)
            tail = traj.norms[traj.times >= traj.T - T / 4.0]
            assert initial[i] == traj.norms[0]
            assert window_start[i] == pytest.approx(tail[0], rel=1e-13)
            assert final[i] == pytest.approx(traj.norms[-1], rel=1e-13)
        # the steps of blocks, not single steps, in which both inputs are held
        P = simulator._step_powers(npair, dt, simulator.BLOCK_CAP)
        mixed = sum(len(sq_norms) for _, _, sq_norms, u
                    in simulator._greedy_stretches(npair, P, starts, round(T / dt))
                    if len(sq_norms) > 1 and u.min() != u.max())
        assert mixed >= 900

    def test_block_norms_are_those_of_its_states(self):
        """Every squared norm a stretch reports is ||E_u^i x||^2 of its own
        state to rounding, also for a run that a fast mode takes down by
        orders of magnitude inside a block: a block ends where a squared
        norm falls below ``BLOCK_DECAY`` of its start's, before the form
        read from the start state loses its relative accuracy."""
        c, s = np.cos(np.pi / 5.0), np.sin(np.pi / 5.0)
        Q = np.array([[c, -s], [s, c]])
        B = Q @ np.diag([-2.73, -0.01]) @ Q.T
        npair = NormalizedPair(B, B.copy())
        starts = np.array([Q[:, 0] + 1e-6 * Q[:, 1], Q[:, 1]])
        n_steps, dt = 600, 1e-2
        P = simulator._step_powers(npair, dt, simulator.BLOCK_CAP)
        for j, x, sq_norms, u in simulator._greedy_stretches(npair, P, starts, n_steps):
            states = np.einsum("iab,rb->ira", P[u[0], : len(sq_norms)], x)
            np.testing.assert_allclose(sq_norms, (states**2).sum(axis=2), rtol=1e-13)

    def test_norm_check_uses_each_runs_own_bound(self, monkeypatch):
        # a rotation plane, on which the norm is conserved, and a decaying axis
        B = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        npair = NormalizedPair(B, B.copy())
        starts = np.array([[0.0, 0.0, 1e6], [1.0, 0.0, 0.0]])
        T, dt = 0.1, 1e-2
        worst_case_runs(npair, starts, T, dt)

        # inflate every step by 1e-9: only the run on the rotation plane,
        # started at norm 1, grows; a bound pooled from the largest start
        # (1e-12 * 1e6 * sqrt(10) ~ 3e-6) would let it pass
        monkeypatch.setattr(simulator, "expm", lambda M: expm(M) * (1.0 + 1e-9))
        worst_case_runs(npair, starts[:1], T, dt)
        with pytest.raises(StepTooLarge, match="in run 1"):
            worst_case_runs(npair, starts, T, dt)
        with pytest.raises(StepTooLarge, match="in run 1"):  # the last step counts
            worst_case_runs(npair, starts, dt, dt)
        # over 200 steps the runs never switch, so most steps lie inside
        # blocks; the check still sees one step's increase, not a block's
        T = 2.0
        worst_case_runs(npair, starts[:1], T, dt)
        with pytest.raises(StepTooLarge, match=r"increased by 1\.000e-09 in run 1"):
            worst_case_runs(npair, starts, T, dt)

    def test_norm_check_reads_a_rise_inside_a_block(self, monkeypatch):
        """Every step is stretched by (1 + eps) along e1 and shrunk along e2,
        and the drift rotates, so the norm rises in some steps and falls in
        others.  The largest rise, near angle pi, lies inside a block and
        exceeds every rise at a block's ends: the check must read it there."""
        B = np.array([[0.0, -1.0], [1.0, 0.0]])
        npair = NormalizedPair(B, B.copy())
        eps, T, dt = 1e-9, 2.0, 1e-2
        stretch = np.diag([1.0 + eps, 1.0 - eps])
        monkeypatch.setattr(simulator, "expm", lambda M: expm(M) @ stretch)
        x = np.array([np.cos(np.pi - 0.9), np.sin(np.pi - 0.9)])
        states = [x]
        for _ in range(round(T / dt)):
            states.append(expm(B * dt) @ stretch @ states[-1])
        want = np.diff(np.linalg.norm(states, axis=1)).max()
        with pytest.raises(StepTooLarge, match="in run 0") as raised:
            worst_case_runs(npair, x[None], T, dt)
        got = float(str(raised.value).split("increased by ")[1].split()[0])
        assert got == pytest.approx(want, rel=1e-3)
        # 10% above the rise at the block end j = 61, angle pi - 0.29
        assert want > 1.1 * eps * np.cos(0.58)

    def test_overflowing_start_is_not_finite(self):
        """A start whose norm overflows raises "not finite", also for a pair
        that never switches, whose steps lie inside blocks."""
        npair = normalize(torus(2))
        starts = np.vstack([np.full(npair.d, 1e308), np.eye(npair.d)[0]])
        with pytest.raises(StepTooLarge, match="norm is not finite in run 0"):
            worst_case_runs(npair, starts, 20.0, 5e-3)

    def test_nan_rise_inside_a_block_is_not_finite(self, monkeypatch):
        """A squared norm that is NaN inside every block raises "not finite"
        though each block's end norms are finite: the squared norms are
        tested for a non-increase that a NaN fails, so the block's norms are
        taken and their NaN differences read."""
        build = simulator._form_tables

        def nan_inside(pair, P):
            table = build(pair, P)
            table[1, 2] = np.nan  # the squared norm at E_u^2 x
            return table

        monkeypatch.setattr(simulator, "_form_tables", nan_inside)
        npair = swapped_torus()
        # off K the squared norms fall: only the NaN calls for the norms;
        # the start in K, which ties at step 0 and keeps u = 0 while the other
        # switches to 1, keeps the runs on the block engine
        starts = np.vstack([np.ones(npair.d), common_kernel(npair).K_basis[:, 0]])
        with pytest.raises(StepTooLarge, match="norm is not finite in run 0"):
            worst_case_runs(npair, starts, 20.0, 5e-3)

    def test_held_runs_skip_the_block_engine(self, monkeypatch):
        """The torus has S0 >= S1, so the certificate that no run switches
        holds and its evidence builds no tables.  Pairs that switch, and the
        swapped torus (S1 >= S0), whose starts in K tie at step 0 and keep
        u = 0, run the block engine."""
        build = simulator._form_tables
        built = []
        monkeypatch.setattr(simulator, "_form_tables",
                            lambda pair, P: built.append(pair) or build(pair, P))
        npair = normalize(torus(2))
        empirical_evidence(npair, 32, 20.0, 5e-3, 1, common_kernel(npair).K_basis)
        assert built == []

        swapped = swapped_torus()
        angles = np.linspace(0.1, 3.0, 4)
        for pair, starts in (
            (normalize(switching_pair()), np.random.default_rng(0).standard_normal((3, 5))),
            (slow_rotation_pair(), np.column_stack([np.cos(angles), np.sin(angles)])),
            (swapped, common_kernel(swapped).K_basis.T),
            (swapped, np.vstack([np.ones(5), common_kernel(swapped).K_basis[:, 0]])),
        ):
            count = len(built)
            worst_case_runs(pair, starts, 2.0, 1e-2)
            assert built[count:] == [pair]

    def test_held_runs_with_input_one(self, monkeypatch):
        """The swapped torus has S1 >= S0: starts off K switch to u = 1 at
        step 0 and hold it, which the certificate proves with the margin
        form G_1, so no tables are built and the norms are the per-step
        rule's."""
        build = simulator._form_tables
        built = []
        monkeypatch.setattr(simulator, "_form_tables",
                            lambda pair, P: built.append(pair) or build(pair, P))
        npair = swapped_torus()
        starts = np.random.default_rng(5).standard_normal((8, npair.d))
        starts /= np.linalg.norm(starts, axis=1, keepdims=True)
        T, dt = 20.0, 5e-3
        initial, window_start, final = worst_case_runs(npair, starts, T, dt)
        assert built == []
        for i, x0 in enumerate(starts):
            ref = greedy_reference(npair, x0, T, dt)
            assert ref.applied_lambda.all()
            tail = ref.norms[ref.times >= ref.T - T / 4.0]
            assert initial[i] == ref.norms[0]
            assert window_start[i] == pytest.approx(tail[0], rel=1e-13)
            assert final[i] == pytest.approx(ref.norms[-1], rel=1e-13)

    def test_inflated_step_on_the_torus_raises_the_engines_message(self, monkeypatch):
        """A step inflated by 1 + 1e-9 breaks the certificate's rise bound,
        so the torus runs fall back to the engine, whose check reports the
        largest one-step increase of the runs in K."""
        monkeypatch.setattr(simulator, "expm", lambda M: expm(M) * (1.0 + 1e-9))
        npair = normalize(torus(2))
        with pytest.raises(StepTooLarge, match=r"increased by 1\.000e-09 in run 0"):
            worst_case_runs(npair, common_kernel(npair).K_basis.T, 1.0, 1e-3)

    @pytest.mark.parametrize("pair", [torus(2), switching_pair()], ids=["torus", "switching"])
    def test_bad_start_set_raises(self, pair):
        """An empty start set, or starts of the wrong length, raise
        BadSignalSpec before the certificate or the engine runs."""
        npair = normalize(pair)
        with pytest.raises(BadSignalSpec, match="at least one start"):
            worst_case_runs(npair, np.empty((0, npair.d)), 1.0, 1e-2)
        with pytest.raises(BadSignalSpec, match="x0 has length 3, system dimension is 5"):
            worst_case_runs(npair, np.ones((2, 3)), 1.0, 1e-2)

    def test_torus_run_takes_few_stretches(self):
        """The torus never switches: after the first single step its 4,000
        steps go in blocks that double to BLOCK_CAP, and the last block ends
        at the horizon instead of halving down to it."""
        npair = normalize(torus(2))
        K_basis = common_kernel(npair).K_basis
        starts = np.random.default_rng(0).standard_normal((32, npair.d))
        starts = np.vstack([starts, K_basis.T])
        n_steps = 4000
        P = simulator._step_powers(npair, 5e-3, simulator.BLOCK_CAP)
        stretches = [j for j, *_ in simulator._greedy_stretches(npair, P, starts, n_steps)
                     if j < n_steps]
        assert len(stretches) <= 25


class TestFormTables:
    def test_tables_give_forms_at_stepped_states(self, monkeypatch):
        """Row i of the packed tables gives the rule margin and the squared
        norm at E_u^i x, x stepped one at a time, for i < BLOCK_CAP; the
        powers reach E_u^BLOCK_CAP.  A loose TIE_TOL makes its term of the
        margin visible."""
        monkeypatch.setattr(simulator, "TIE_TOL", 1e-3)
        npair = normalize(switching_pair())
        d, dt, cap = npair.d, 1e-2, simulator.BLOCK_CAP
        P = simulator._step_powers(npair, dt, cap)
        table = simulator._form_tables(npair, P)
        a, b = np.triu_indices(d)
        assert table.shape == (2, cap, 2, len(a))
        x = np.random.default_rng(4).standard_normal(d)
        x /= np.linalg.norm(x)
        xx = x[a] * x[b]
        S0, S1 = npair.S0, npair.S1
        for u, B in enumerate((npair.B0n, npair.B1n)):
            E = expm(B * dt)
            y = x
            for i in range(cap):
                q0, q1 = y @ S0 @ y, y @ S1 @ y
                margin = (2 * u - 1) * (q0 - q1) + 1e-3 * (q0 + q1)
                assert abs(xx @ table[0, i, u] - margin) <= 1e-12, (u, i)
                assert abs(xx @ table[1, i, u] - y @ y) <= 1e-12, (u, i)
                y = E @ y
            np.testing.assert_allclose(P[u, cap] @ x, y, rtol=0, atol=1e-12)


class TestBadFeedback:
    def test_kdeux_exits_cone_in_quarter_turn(self, kdeux_reduced):
        blocks = kdeux_reduced
        # start mid-cone: the rigid rotation reaches the boundary after an
        # eighth of a turn
        x0 = np.array([1.0, -1.0]) / np.sqrt(2.0)
        run = bad_feedback_trajectory(blocks, x0, T=10.0, dt=1e-4)
        assert run.status == "exited_F"
        assert run.exit_time == pytest.approx(np.pi / 4.0, abs=1e-3)
        # while inside the cone the chosen lambda silences the output
        assert output_measure(run.trajectory, tol=1e-6) == 0.0

    def test_norm_conserved_until_exit(self, kdeux_reduced):
        blocks = kdeux_reduced
        x0 = np.array([1.0, -1.0]) / np.sqrt(2.0)
        run = bad_feedback_trajectory(blocks, x0, T=10.0, dt=1e-4)
        assert np.max(np.abs(run.trajectory.norms - 1.0)) < 1e-6

    def test_norm_drift_raises(self, kdeux_reduced):
        # a drift that is not skew leaks norm: the conservation check fails
        leak = 1e-3 * np.eye(2)
        leaky = dataclasses.replace(kdeux_reduced, A0=kdeux_reduced.A0 - leak,
                                    A1=kdeux_reduced.A1 - leak)
        with pytest.raises(StepTooLarge, match="drift"):
            bad_feedback_trajectory(leaky, np.array([1.0, -1.0]) / np.sqrt(2.0),
                                    T=0.1, dt=1e-2)


class TestOmegaLimitAndMeasure:
    def test_plateau_detected_on_conserved_run(self, kdeux_reduced):
        blocks = kdeux_reduced
        traj = integrate(blocks, SwitchingSignal.relaxed([(50.0, 0.5)]),
                         [1.0, 0.0], T=50.0, dt=1e-2)
        norms = traj.norms
        tail = norms[_window_step(len(norms) - 1, traj.dt, 10.0)]
        r, plateaued = norms[-1], plateau_rule(norms[0], tail, norms[-1])
        assert plateaued
        assert r == pytest.approx(1.0, abs=1e-6)

    def test_decay_not_a_plateau(self, mason_pair):
        traj = integrate(mason_pair, SwitchingSignal.binary([(20.0, 0)]),
                         [1.0, 0.0], T=20.0, dt=1e-2)
        norms = traj.norms
        tail = norms[_window_step(len(norms) - 1, traj.dt, 5.0)]
        r, plateaued = norms[-1], plateau_rule(norms[0], tail, norms[-1])
        assert not plateaued or r < 1e-6

    def test_output_measure_positive_when_visible(self, kdeux_reduced):
        blocks = kdeux_reduced
        traj = integrate(blocks, SwitchingSignal.relaxed([(10.0, 0.0)]),
                         [1.0, 0.0], T=10.0, dt=1e-2)
        assert output_measure(traj) > 0.9

    @pytest.mark.parametrize("T, dt", [(0.99, 0.03), (1.0, 0.1), (0.01, 0.01),
                                       (100.0, 1e-3)])
    def test_window_step_matches_argmax_rule(self, T, dt):
        n_steps = max(1, round(T / dt))
        times = np.arange(n_steps + 1) * dt
        expected = np.argmax(times >= times[-1] - T / 4.0)
        assert simulator._window_step(n_steps, dt, T / 4.0) == expected

    def test_output_measure_requires_outputs(self, mason_pair):
        traj = integrate(mason_pair, SwitchingSignal.binary([(1.0, 0)]),
                         [1.0, 0.0], T=1.0, dt=1e-2)
        with pytest.raises(NoOutputs):
            output_measure(traj)
