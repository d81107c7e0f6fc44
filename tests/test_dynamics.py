"""Hamiltonian, equations of motion, leapfrog stepping, and gauge moves."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latgauge.dynamics import (
    _BLOCK_SITES,
    _GATHER_MAX_N,
    PhaseSpaceState,
    SourceConfig,
    UnstableStep,
    _check_drift,
    constraint_residual,
    energy,
    eom_rhs,
    gauge_transform,
    step_leapfrog,
    trajectory,
)
from latgauge.gaussian import coulomb_momentum
from latgauge.grid import (
    GridSpec,
    ScalarField,
    VectorField,
    _dbar_values,
    curl_z,
    dbar,
    divergence,
)
from latgauge.spectral import build_kernels, dft_forward, wave_number_table


def random_state(grid, seed=0):
    return PhaseSpaceState.random(grid, np.random.default_rng(seed))


def slice_force(qx, qy, source, a):
    """The oracle of the stepper's stacked force: the force on the
    slice stencils of ``grid._dbar_values``, one component at a time.
    With ``b = dbar_x(qy) - dbar_y(qx)``, ``dp_x = -dbar_y(b) + Jx`` and
    ``dp_y = +dbar_x(b) + Jy``."""
    b = _dbar_values(qy, "x", a) - _dbar_values(qx, "y", a)
    fx = -_dbar_values(b, "y", a) + source.jx.values
    fy = _dbar_values(b, "x", a) + source.jy.values
    return fx, fy


def random_source(grid, rng):
    rho, jx, jy = (ScalarField(grid, rng.standard_normal(grid.shape)) for _ in range(3))
    return SourceConfig(rho, jx, jy)


def pure_gauge_state(grid, seed=0):
    rng = np.random.default_rng(seed)
    eps = ScalarField(grid, rng.standard_normal(grid.shape))
    q = VectorField(-1.0 * dbar(eps, "x"), -1.0 * dbar(eps, "y"))
    return PhaseSpaceState(q, VectorField.zeros(grid))


class TestEnergy:
    def test_zero_state(self):
        grid = GridSpec(5, 1.0)
        assert energy(PhaseSpaceState.zero(grid), SourceConfig.vacuum(grid)) == 0.0

    def test_unit_momentum_sheet(self):
        grid = GridSpec(4, 1.0)
        p = VectorField(ScalarField.constant(grid, 1.0), ScalarField.zeros(grid))
        state = PhaseSpaceState(VectorField.zeros(grid), p)
        assert energy(state, SourceConfig.vacuum(grid)) == pytest.approx(8.0)

    def test_spectral_oracle(self):
        # Parseval moves the quadratic form to mode space
        grid = GridSpec(8, 1.0)
        state = random_state(grid, 1)
        h = energy(state, SourceConfig.vacuum(grid))
        n2 = grid.n**2
        total = 0.0
        for comp in (state.p.x, state.p.y, curl_z(state.q)):
            total += float(np.sum(np.abs(dft_forward(comp).modes) ** 2)) / n2
        assert h == pytest.approx(0.5 * total, rel=1e-9)


class TestEom:
    def test_pure_gauge_is_stationary(self):
        grid = GridSpec(7, 1.0)
        state = pure_gauge_state(grid, 2)
        _dq, dp = eom_rhs(state, SourceConfig.vacuum(grid))
        assert dp.max_abs() < 1e-14

    def test_magnetic_induction_identity(self):
        # b-dot from the q equation equals the curl of p exactly
        grid = GridSpec(8, 1.0)
        state = random_state(grid, 3)
        dq, _dp = eom_rhs(state, SourceConfig.vacuum(grid))
        b_dot = curl_z(dq)
        expected = dbar(state.p.y, "x") - dbar(state.p.x, "y")
        np.testing.assert_array_equal(b_dot.values, expected.values)

    def test_constraint_time_derivative_vanishes(self):
        grid = GridSpec(8, 1.0)
        state = random_state(grid, 4)
        _dq, dp = eom_rhs(state, SourceConfig.vacuum(grid))
        assert divergence(dp).max_abs() < 1e-14

    @given(
        n=st.integers(3, 12),
        a=st.sampled_from([0.3, 0.7, 1.0, 2.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=3, a=0.3, seed=0)
    @example(n=4, a=2.5, seed=1)
    @example(n=_GATHER_MAX_N, a=0.7, seed=2)  # the largest grid with gathers
    @example(n=_GATHER_MAX_N + 1, a=0.7, seed=3)  # the smallest on slices
    @settings(max_examples=40, deadline=None)
    def test_force_equals_slice_oracle_bit_for_bit(self, n, a, seed):
        # random q and nonzero Jx, Jy: the curl, the signed dbar of b and
        # the added J each keep the slice bits, gathered or not
        grid = GridSpec(n, a)
        rng = np.random.default_rng(seed)
        source = random_source(grid, rng)
        state = PhaseSpaceState.random(grid, rng)
        _dq, dp = eom_rhs(state, source)
        fx, fy = slice_force(state.q.x.values, state.q.y.values, source, a)
        for got, want in ((dp.x.values, fx), (dp.y.values, fy)):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_current_drives_momentum(self):
        grid = GridSpec(5, 1.0)
        jx = ScalarField.constant(grid, 0.5)
        source = SourceConfig(ScalarField.zeros(grid), jx, ScalarField.zeros(grid))
        _dq, dp = eom_rhs(PhaseSpaceState.zero(grid), source)
        np.testing.assert_array_equal(dp.x.values, jx.values)


class TestLeapfrog:
    def test_zero_state_stays_zero(self):
        grid = GridSpec(5, 1.0)
        out = step_leapfrog(
            PhaseSpaceState.zero(grid), SourceConfig.vacuum(grid), 0.3, 50
        )
        assert out.q.max_abs() == 0.0 and out.p.max_abs() == 0.0
        assert out.time == pytest.approx(15.0)

    def test_single_mode_period(self):
        # one transverse mode oscillates at frequency |k|
        grid = GridSpec(16, 1.0)
        n = grid.n
        alpha, beta = 2, 3
        kx, ky, kabs = wave_number_table(grid)
        k = kabs[alpha, beta]
        phase = np.exp(
            2j * np.pi * (np.add.outer(np.arange(n) * alpha, np.arange(n) * beta)) / n
        )
        qx = np.real(phase) * (-ky[alpha, beta] / k)
        qy = np.real(phase) * (kx[alpha, beta] / k)
        state = PhaseSpaceState(
            VectorField.from_arrays(grid, qx, qy), VectorField.zeros(grid)
        )
        source = SourceConfig.vacuum(grid)
        dt = 0.01 / k
        reference = qx.copy()
        projections = []
        for _ in range(int(np.ceil(6 * 2 * np.pi / k / dt))):
            state = step_leapfrog(state, source, dt, 1, energy_check=False)
            projections.append(np.sum(state.q.x.values * reference))
        projections = np.array(projections)
        # period from linear interpolation of the upward zero crossings
        sign_flip = (projections[:-1] < 0) & (projections[1:] >= 0)
        idx = np.nonzero(sign_flip)[0]
        crossings = idx + projections[idx] / (projections[idx] - projections[idx + 1])
        periods = np.diff(crossings) * dt
        measured = float(np.mean(periods))
        assert measured == pytest.approx(2 * np.pi / k, rel=1e-3)

    def test_long_run_conserves_constraint(self):
        grid = GridSpec(16, 1.0)
        state = random_state(grid, 5)
        source = SourceConfig.vacuum(grid)
        res0 = constraint_residual(state, source).max_abs()
        out = step_leapfrog(state, source, 0.05, 10_000, energy_check=False)
        res1 = constraint_residual(out, source).max_abs()
        assert abs(res1 - res0) < 1e-9

    def test_running_mean_energy_drift_over_1e5_steps(self):
        # the symplectic signature: energy oscillates at O(dt^2) but its
        # running mean has no secular trend
        grid = GridSpec(16, 1.0)
        state = random_state(grid, 14)
        source = SourceConfig.vacuum(grid)
        h0 = energy(state, source)
        stride, samples = 5, 20_000  # 1e5 steps total
        first = second = 0.0
        for k in range(samples):
            state = step_leapfrog(state, source, 0.05, stride, energy_check=False)
            h = energy(state, source)
            if k < samples // 2:
                first += h
            else:
                second += h
        drift = abs(second - first) / (samples // 2) / abs(h0)
        assert drift < 1e-6

    def test_constraint_constant_with_static_sources(self):
        # static rho, J = 0: the Gauss residual rides along unchanged
        grid = GridSpec(16, 1.0)
        rng = np.random.default_rng(15)
        values = rng.integers(-2, 3, size=grid.shape).astype(float)
        values -= values.mean()
        rho = ScalarField(grid, values)
        source = SourceConfig.static(rho)
        state = random_state(grid, 16)
        before = constraint_residual(state, source)
        out = step_leapfrog(state, source, 0.05, 2_000, energy_check=False)
        after = constraint_residual(out, source)
        assert (after - before).max_abs() < 1e-9

    def test_one_step_is_kick_drift_kick_of_eom_rhs(self):
        # one step is two half-kicks of the slice-stencil force around a
        # drift, bit for bit; eom_rhs's force is that force (see above)
        grid = GridSpec(8, 1.0)
        source = random_source(grid, np.random.default_rng(17))
        state = random_state(grid, 18)
        dt = 0.05
        qx, qy = state.q.x.values, state.q.y.values
        fx, fy = slice_force(qx, qy, source, grid.spacing)
        px, py = state.p.x.values + 0.5 * dt * fx, state.p.y.values + 0.5 * dt * fy
        qx, qy = qx + dt * px, qy + dt * py
        fx, fy = slice_force(qx, qy, source, grid.spacing)
        px, py = px + 0.5 * dt * fx, py + 0.5 * dt * fy
        out = step_leapfrog(state, source, dt, 1)
        for got, want in zip((out.q.x, out.q.y, out.p.x, out.p.y), (qx, qy, px, py)):
            np.testing.assert_array_equal(got.values.view(np.uint64), want.view(np.uint64))

    def test_unstable_step_raises(self):
        grid = GridSpec(16, 1.0)
        state = random_state(grid, 6)
        with pytest.raises(UnstableStep):
            # far beyond the sqrt(2) stability limit
            step_leapfrog(state, SourceConfig.vacuum(grid), 2.0, 200)

    def test_non_finite_energy_counts_as_drift(self):
        # the state overflows to nan, and abs(nan - h0) > tol is False
        grid = GridSpec(4, 1.0)
        state = random_state(grid, 0)
        with np.errstate(all="ignore"), pytest.raises(UnstableStep, match="nan"):
            step_leapfrog(state, SourceConfig.vacuum(grid), 10.0, 400)

    def test_energy_evaluated_only_for_the_check(self, monkeypatch):
        import latgauge.dynamics as dynamics

        calls = []
        monkeypatch.setattr(dynamics, "energy", lambda *a: calls.append(a) or 1.0)
        grid = GridSpec(8, 1.0)
        state, source = random_state(grid), SourceConfig.vacuum(grid)
        step_leapfrog(state, source, 0.05, 3, energy_check=False)
        assert calls == []
        step_leapfrog(state, source, 0.05, 3)
        assert len(calls) == 2

    def test_rejects_bad_dt(self):
        grid = GridSpec(5, 1.0)
        with pytest.raises(ValueError):
            step_leapfrog(PhaseSpaceState.zero(grid), SourceConfig.vacuum(grid), -0.1, 1)

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0])
    def test_rejects_non_finite_or_zero_dt(self, dt):
        grid = GridSpec(5, 1.0)
        with pytest.raises(ValueError, match="dt"):
            step_leapfrog(PhaseSpaceState.zero(grid), SourceConfig.vacuum(grid), dt, 1)

    def test_rejects_negative_step_count(self):
        # range(-3) is empty, but the state's time would run backwards
        grid = GridSpec(5, 1.0)
        with pytest.raises(ValueError, match="n_steps"):
            step_leapfrog(PhaseSpaceState.zero(grid), SourceConfig.vacuum(grid), 0.1, -3)


def stepwise_rows(state, source, dt, n_steps):
    """The oracle of ``trajectory``: one ``step_leapfrog`` step at a time,
    then ``energy`` and the Gauss residual of the new state, yielded as
    each step is taken."""

    def row(state):
        return (
            state.time,
            energy(state, source),
            constraint_residual(state, source).max_abs(),
        )

    yield row(state)
    for _ in range(n_steps):
        state = step_leapfrog(state, source, dt, 1, energy_check=False)
        yield row(state)


def first_drift(state, source, dt, n_steps):
    """``(step, message)`` of the first row of ``stepwise_rows`` whose H
    fails ``_check_drift``, or None; no step past it is taken."""
    rows = stepwise_rows(state, source, dt, n_steps)
    _t, h0, _residual = next(rows)
    for step, (_t, h, _residual) in enumerate(rows, start=1):
        try:
            _check_drift(h0, h, step)
        except UnstableStep as exc:
            return step, str(exc)
    return None


# blocks of trajectory: a ramp of 1, 2, 4, ... steps up to the cap, so at
# N = 16 the step after the ramp's last block is one past a boundary
CAP_16 = _BLOCK_SITES // 16**2
ONE_STEP_BLOCKS_N = math.isqrt(_BLOCK_SITES) + 1


class TestTrajectory:
    @pytest.mark.parametrize(
        "n, a, dt, n_steps",
        [
            (8, 1.0, 0.05, 200),
            (9, 0.7, 0.03, 150),
            (8, 1.0, 0.05, 0),
            (3, 1.0, 0.05, 200),  # every site touches a wrapped edge
            (4, 0.7, 0.03, 150),
            (_GATHER_MAX_N + 1, 1.0, 0.05, 20),  # on slices, not gathers
            (16, 1.0, 0.05, 1000),  # the benchmark's run: many capped blocks
            (16, 0.7, 0.03, 2 * CAP_16),  # one past the ramp's last block
            (ONE_STEP_BLOCKS_N, 1.0, 0.05, 5),  # every block one step
        ],
    )
    def test_rows_equal_stepwise_oracle(self, n, a, dt, n_steps):
        # static rho and J both nonzero, so the coupling and the rho term
        # enter H and the residual; a nonzero start time checks that t
        # accumulates one step at a time
        grid = GridSpec(n, a)
        rng = np.random.default_rng(19)
        rho, jx, jy = (ScalarField(grid, rng.standard_normal(grid.shape)) for _ in range(3))
        source = SourceConfig(rho, jx, jy)
        state = replace(random_state(grid, 20), time=0.3)
        rows = list(trajectory(state, source, dt, n_steps))
        assert len(rows) == n_steps + 1
        assert all(type(x) is float for r in rows for x in r)
        assert rows == list(stepwise_rows(state, source, dt, n_steps))

    def test_one_force_per_step(self, monkeypatch):
        import latgauge.dynamics as dynamics

        calls = []
        force = dynamics._force
        monkeypatch.setattr(dynamics, "_force", lambda *a: calls.append(1) or force(*a))
        grid = GridSpec(8, 1.0)
        rows = trajectory(random_state(grid), SourceConfig.vacuum(grid), 0.05, 7)
        assert len(list(rows)) == 8
        assert len(calls) == 8  # the start force, then one per step

    @pytest.mark.parametrize("n", [4, 16])
    @pytest.mark.parametrize("dt", [0.71, 0.8, 0.86, 0.92, 10.0, 1e4, 1e6])
    def test_drift_raises_from_the_generator(self, n, dt):
        # the run stops at the oracle's first drifting row, with its
        # message, before any float error: from dt = 10 on that is step 1,
        # whose H is five or more orders of magnitude off; at N = 16,
        # dt = 0.86 and 0.92 drift at steps 163 and 11, and 0.71 and 0.8
        # never do
        grid = GridSpec(n, 1.0)
        state, source, n_steps = random_state(grid, 0), SourceConfig.vacuum(grid), 400
        rows = []
        with np.errstate(all="raise"):
            want = first_drift(state, source, dt, n_steps)
            try:
                for row in trajectory(state, source, dt, n_steps):
                    rows.append(row)
            except UnstableStep as exc:
                assert (len(rows), str(exc)) == want
            else:
                assert want is None and len(rows) == n_steps + 1

    @pytest.mark.parametrize("dt, n_steps", [(float("nan"), 1), (0.0, 1), (0.1, -1)])
    def test_rejects_bad_arguments(self, dt, n_steps):
        grid = GridSpec(5, 1.0)
        rows = trajectory(PhaseSpaceState.zero(grid), SourceConfig.vacuum(grid), dt, n_steps)
        with pytest.raises(ValueError):
            next(rows)


class TestSourceOnAnotherGrid:
    ENTRY_POINTS = {
        "energy": energy,
        "eom_rhs": eom_rhs,
        "step_leapfrog": lambda state, source: step_leapfrog(state, source, 0.05, 1),
        "trajectory": lambda state, source: next(trajectory(state, source, 0.05, 1)),
        "constraint_residual": constraint_residual,
    }

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize(
        "other", [GridSpec(8, 0.5), GridSpec(9, 1.0)], ids=["other-spacing", "other-n"]
    )
    def test_rejected(self, name, other):
        # the same N with another spacing would broadcast silently, and
        # another N would fail only inside numpy
        state = random_state(GridSpec(8, 1.0))
        with pytest.raises(ValueError, match="source lives on"):
            self.ENTRY_POINTS[name](state, SourceConfig.vacuum(other))


class TestConstraintResidual:
    def test_vacuum_zero(self):
        grid = GridSpec(6, 1.0)
        res = constraint_residual(PhaseSpaceState.zero(grid), SourceConfig.vacuum(grid))
        assert res.max_abs() == 0.0

    def test_coulomb_background_solves_constraint(self):
        grid = GridSpec(15, 1.0)
        kernels = build_kernels(grid)
        rng = np.random.default_rng(7)
        values = rng.integers(-2, 3, size=grid.shape).astype(float)
        values -= values.mean()  # neutral sector: the solver is exact
        rho = ScalarField(grid, values)
        p = coulomb_momentum(rho, kernels)
        state = PhaseSpaceState(VectorField.zeros(grid), p)
        res = constraint_residual(state, SourceConfig.static(rho))
        assert res.max_abs() < 1e-9

    def test_pure_divergence_without_charge(self):
        grid = GridSpec(7, 1.0)
        state = random_state(grid, 8)
        res = constraint_residual(state, SourceConfig.vacuum(grid))
        np.testing.assert_array_equal(res.values, divergence(state.p).values)


class TestGaugeTransform:
    def test_constant_epsilon_is_identity(self):
        grid = GridSpec(6, 1.0)
        state = random_state(grid, 9)
        out = gauge_transform(state, ScalarField.constant(grid, 4.2))
        np.testing.assert_array_equal(out.q.x.values, state.q.x.values)
        np.testing.assert_array_equal(out.q.y.values, state.q.y.values)

    @given(data=arrays(np.float64, (7, 7), elements=st.floats(-30, 30)))
    @settings(max_examples=30, deadline=None)
    def test_observables_invariant(self, data):
        grid = GridSpec(7, 1.0)
        state = random_state(grid, 10)
        source = SourceConfig.vacuum(grid)
        eps = ScalarField(grid, data)
        out = gauge_transform(state, eps)
        assert (curl_z(out.q) - curl_z(state.q)).max_abs() < 1e-11
        assert abs(energy(out, source) - energy(state, source)) < 1e-11 * max(
            1.0, abs(energy(state, source))
        )
        before = constraint_residual(state, source)
        after = constraint_residual(out, source)
        assert (after - before).max_abs() == 0.0  # p untouched

    def test_composition_adds_parameters(self):
        grid = GridSpec(6, 1.0)
        state = random_state(grid, 11)
        rng = np.random.default_rng(12)
        e1 = ScalarField(grid, rng.standard_normal(grid.shape))
        e2 = ScalarField(grid, rng.standard_normal(grid.shape))
        twice = gauge_transform(gauge_transform(state, e1), e2)
        once = gauge_transform(state, e1 + e2)
        assert (twice.q.x - once.q.x).max_abs() < 1e-15
        assert (twice.q.y - once.q.y).max_abs() < 1e-15

