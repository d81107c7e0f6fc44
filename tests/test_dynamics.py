"""Hamiltonian, equations of motion, leapfrog stepping, and gauge moves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latgauge.dynamics import (
    PhaseSpaceState,
    SourceConfig,
    UnstableStep,
    constraint_residual,
    energy,
    eom_rhs,
    gauge_transform,
    step_leapfrog,
)
from latgauge.gaussian import coulomb_momentum
from latgauge.grid import GridSpec, ScalarField, VectorField, curl_z, dbar, divergence
from latgauge.spectral import build_kernels, dft_forward, wave_number_table


def random_state(grid, seed=0):
    return PhaseSpaceState.random(grid, np.random.default_rng(seed))


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

