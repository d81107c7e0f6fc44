"""Ground-state energies, the Coulomb background, and phase
bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgauge.fme import BRANCHES, ProtocolSpec, run_protocol
from latgauge.gaussian import (
    NonNeutralWarning,
    _excluded_part,
    _unit_proof,
    coulomb_energy_shift,
    coulomb_momentum,
    gauss_bound,
    gauss_residual,
    ground_energy,
    wrap_phase,
)
from latgauge.grid import GridSpec, ScalarField, VectorField, divergence
from latgauge.spectral import _mode_weights, build_kernels, wave_number_table, wave_vector


def neutral_random_charges(grid, seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(-2, 3, size=grid.shape).astype(float)
    values -= values.mean()
    return ScalarField(grid, values)


def two_charges(grid, site_1, site_2):
    values = np.zeros(grid.shape)
    values[site_1] = 1.0
    values[site_2] = 1.0
    return ScalarField(grid, values)


def mode_space_momentum(rho):
    """The background in mode space, ``i k_s rho~ / |k|^2`` with the
    |k| = 0 modes dropped: the oracle of coulomb_momentum."""
    kx, ky, _ = wave_number_table(rho.grid)
    inv_k2, _ = _mode_weights(rho.grid, 2)
    rho_t = np.fft.fft2(rho.values)
    px = np.real(np.fft.ifft2(1j * kx * rho_t * inv_k2))
    py = np.real(np.fft.ifft2(1j * ky * rho_t * inv_k2))
    return VectorField.from_arrays(rho.grid, px, py)


def mode_space_charge_part(rho):
    """rho with its |k| = 0 mode components zeroed by a round trip through
    mode space: the oracle of ``rho - _excluded_part(rho)``, the solvable
    part ``gauss_residual`` holds the background to."""
    _, kept = _mode_weights(rho.grid, 2)
    rho_t = np.fft.fft2(rho.values)
    rho_t[~kept] = 0.0
    return np.real(np.fft.ifft2(rho_t))


class TestGroundEnergy:
    def test_n3_closed_form(self):
        # mode enumeration: four modes at sin(2pi/3), four at sqrt 2 times
        # that, so E0 = sqrt(3) (1 + sqrt(2))
        value = ground_energy(GridSpec(3, 1.0))
        assert value == pytest.approx(np.sqrt(3.0) * (1.0 + np.sqrt(2.0)), abs=1e-12)

    def test_spacing_scaling(self):
        for n in (3, 6, 9):
            e1 = ground_energy(GridSpec(n, 1.0))
            e2 = ground_energy(GridSpec(n, 2.0))
            assert e2 == pytest.approx(e1 / 2.0, rel=1e-14)

    def test_matches_per_mode_oscillator_sum(self):
        grid = GridSpec(16, 1.0)
        oracle = sum(
            0.5 * np.hypot(*wave_vector(grid, alpha, beta))
            for alpha in range(16)
            for beta in range(16)
        )
        assert ground_energy(grid) == pytest.approx(oracle, rel=1e-14)


class TestCoulombEnergyShift:
    def test_zero_charge(self):
        grid = GridSpec(9, 1.0)
        kernels = build_kernels(grid)
        assert coulomb_energy_shift(ScalarField.zeros(grid), kernels) == 0.0

    def test_two_charge_pair_separation_differences(self):
        # self energies D(0) cancel between separations
        grid = GridSpec(101, 1.0)
        kernels = build_kernels(grid)
        e_d = coulomb_energy_shift(two_charges(grid, (50, 40), (50, 60)), kernels)
        e_dp = coulomb_energy_shift(two_charges(grid, (50, 40), (50, 52)), kernels)
        expected = kernels.d(0, 20) - kernels.d(0, 12)
        assert e_d - e_dp == pytest.approx(expected, rel=1e-10)

    def test_real_space_double_sum_oracle(self):
        grid = GridSpec(15, 1.0)
        kernels = build_kernels(grid)
        rng = np.random.default_rng(1)
        rho = ScalarField(grid, rng.integers(-2, 3, size=grid.shape).astype(float))
        fast = coulomb_energy_shift(rho, kernels)
        slow = 0.0
        n = grid.n
        for i in range(n):
            for j in range(n):
                if rho.values[i, j] == 0.0:
                    continue
                for p in range(n):
                    for q in range(n):
                        slow += kernels.d(i - p, j - q) * rho.values[i, j] * rho.values[p, q]
        assert fast == pytest.approx(0.5 * slow, rel=1e-9)

    @pytest.mark.parametrize("n", [15, 16])
    def test_fourier_side_oracle(self, n):
        # on even N the mask also drops the three staggered doubler modes
        grid = GridSpec(n, 1.0)
        kernels = build_kernels(grid)
        rho = neutral_random_charges(grid, 2)
        fast = coulomb_energy_shift(rho, kernels)
        rho_t = np.fft.fft2(rho.values)
        s = np.sin(2 * np.pi * np.arange(n) / n)
        ky, kx = np.meshgrid(s, s, indexing="ij")
        k2 = kx**2 + ky**2
        mask = k2 > 1e-12
        oracle = float(np.sum(np.abs(rho_t[mask]) ** 2 / k2[mask])) / (2 * n**2)
        assert fast == pytest.approx(oracle, rel=1e-9)

    def test_translation_invariance(self):
        grid = GridSpec(21, 1.0)
        kernels = build_kernels(grid)
        rho = neutral_random_charges(grid, 3)
        shifted = ScalarField(grid, np.roll(rho.values, (4, 9), axis=(0, 1)))
        assert coulomb_energy_shift(rho, kernels) == pytest.approx(
            coulomb_energy_shift(shifted, kernels), rel=1e-10
        )

    def test_even_separation_chain_monotone(self):
        # the parity-safe energy ladder: D decreases strictly along even
        # separations (odd ones form their own increasing family)
        grid = GridSpec(51, 1.0)
        kernels = build_kernels(grid)
        even = [kernels.d(0, d) for d in range(2, 14, 2)]
        assert all(b < a for a, b in zip(even, even[1:]))


class TestCoulombMomentum:
    @pytest.mark.filterwarnings("ignore::latgauge.gaussian.NonNeutralWarning")
    @pytest.mark.parametrize("kind", ["neutral", "non-neutral", "two-charge"])
    @pytest.mark.parametrize("n", [15, 16, 30, 101])
    def test_matches_mode_space_oracle(self, n, kind):
        grid = GridSpec(n, 1.0)
        kernels = build_kernels(grid)
        if kind == "neutral":
            rho = neutral_random_charges(grid, n)
        elif kind == "non-neutral":
            rng = np.random.default_rng(n)
            rho = ScalarField(grid, rng.integers(-2, 3, size=grid.shape).astype(float))
        else:
            rho = two_charges(grid, (n // 2, n // 3), (n // 2, 2 * n // 3))
        fast = coulomb_momentum(rho, kernels)
        assert (fast - mode_space_momentum(rho)).max_abs() < 1e-12

    def test_zero_charge(self):
        grid = GridSpec(9, 1.0)
        kernels = build_kernels(grid)
        assert coulomb_momentum(ScalarField.zeros(grid), kernels).max_abs() == 0.0

    def test_solves_constraint_up_to_mean(self):
        grid = GridSpec(15, 1.0)
        kernels = build_kernels(grid)
        rng = np.random.default_rng(4)
        rho = ScalarField(grid, rng.integers(-3, 4, size=grid.shape).astype(float))
        with pytest.warns(NonNeutralWarning):
            p = coulomb_momentum(rho, kernels)
        residual = divergence(p).values + rho.values - rho.values.mean()
        assert np.max(np.abs(residual)) < 1e-9

    def test_single_charge_background_is_odd(self):
        grid = GridSpec(101, 1.0)
        kernels = build_kernels(grid)
        values = np.zeros(grid.shape)
        values[0, 0] = 1.0
        with pytest.warns(NonNeutralWarning):
            p = coulomb_momentum(ScalarField(grid, values), kernels)
        for comp in (p.x.values, p.y.values):
            mirrored = np.roll(comp[::-1, ::-1], (1, 1), axis=(0, 1))
            assert np.max(np.abs(comp + mirrored)) < 1e-10

    def test_neutral_charge_does_not_warn(self):
        grid = GridSpec(9, 1.0)
        kernels = build_kernels(grid)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", NonNeutralWarning)
            coulomb_momentum(neutral_random_charges(grid, 5), kernels)

    @pytest.mark.parametrize("n", [30, 100, 101])
    def test_field_energy_equals_coulomb_shift(self, n):
        # the background and D exclude the same modes, so its field
        # energy is the sector energy; on even N the doubler modes used
        # to leak in with weight ~1e31
        grid = GridSpec(n, 1.0)
        kernels = build_kernels(grid)
        rho = two_charges(grid, (n // 2, n // 3), (n // 2, 2 * n // 3))
        with pytest.warns(NonNeutralWarning):
            p = coulomb_momentum(rho, kernels)
        field_energy = 0.5 * float(np.sum(p.x.values**2 + p.y.values**2))
        assert field_energy == pytest.approx(
            coulomb_energy_shift(rho, kernels), abs=1e-12
        )

    def test_even_lattice_solves_up_to_doubler_modes(self):
        # an even lattice excludes four modes; the background matches rho
        # on everything else
        grid = GridSpec(16, 1.0)
        kernels = build_kernels(grid)
        rng = np.random.default_rng(11)
        rho = ScalarField(grid, rng.integers(-2, 3, size=grid.shape).astype(float))
        with pytest.warns(NonNeutralWarning):
            p = coulomb_momentum(rho, kernels)
        assert gauss_residual(p, rho) < 1e-9
        # mean subtraction alone is not enough here: the staggered
        # doubler components of rho are genuinely unmatchable
        mean_only = divergence(p).values + rho.values - rho.values.mean()
        assert np.max(np.abs(mean_only)) > 1e-3
        solvable = rho.values - _excluded_part(rho.values)
        assert abs(solvable.sum()) < 1e-9


class TestUnitProof:
    """``_unit_proof`` reads the unit background off D as ``dbar D``;
    ``coulomb_momentum`` of a unit charge at the origin is its oracle,
    bit for bit."""

    @pytest.mark.parametrize(
        "n, a", [(3, 1.0), (24, 2.5), (25, 1.0), (28, 0.3), (41, 2.5), (100, 0.3), (101, 1.0)]
    )
    def test_matches_coulomb_momentum_of_a_unit_charge(self, n, a):
        grid = GridSpec(n, a)
        values = np.zeros(grid.shape)
        values[0, 0] = 1.0
        unit = ScalarField(grid, values)
        with pytest.warns(NonNeutralWarning):
            p = coulomb_momentum(unit, build_kernels(grid))
        p_max = max(max(c.values.max(), -c.values.min()) for c in (p.x, p.y))
        expected = (gauss_residual(p, unit), float(p_max))
        assert _unit_proof(build_kernels(grid)) == expected

    def test_gauss_bound_leaves_the_table_as_it_was(self):
        # the proof is recomputed per call, never kept on the frozen table
        kernels = build_kernels(GridSpec(25))
        before = dict(vars(kernels))
        gauss_bound([1.0, 1.0], kernels)
        after = vars(kernels)
        assert after.keys() == before.keys()
        assert all(after[name] is value for name, value in before.items())


class TestSolvableChargePart:
    """``rho - _excluded_part(rho)``: the charge density with its |k| = 0
    mode components dropped, the part the Gauss law can match."""

    @given(n=st.integers(3, 40), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_mode_space_oracle(self, n, seed):
        grid = GridSpec(n, 1.0)
        rng = np.random.default_rng(seed)
        rho = ScalarField(grid, rng.integers(-3, 4, size=grid.shape).astype(float))
        fast = rho.values - _excluded_part(rho.values)
        assert np.max(np.abs(fast - mode_space_charge_part(rho))) < 1e-12

    def test_odd_lattice_subtracts_the_mean(self):
        grid = GridSpec(9, 1.0)
        rho = neutral_random_charges(grid, 6) + ScalarField.constant(grid, 0.3)
        np.testing.assert_array_equal(
            rho.values - _excluded_part(rho.values), rho.values - rho.values.mean()
        )


class TestProtocolPhases:
    """Each branch's phase is its two-charge sector energy
    ``D(0) + D(sep)`` times -tau, read straight off the D table."""

    @pytest.mark.parametrize("n", [25, 100])
    @pytest.mark.parametrize("tau", [0.7, 3.0, 10.0])
    def test_phases_are_table_lookups(self, n, tau):
        grid = GridSpec(n, 1.0)
        kernels = build_kernels(grid)
        row, col_a, d = n // 2, n // 2 - 5, 10
        spec = ProtocolSpec(grid, (row, col_a), (row, col_a + d), size=7, taus=(tau,))
        (trace,) = run_protocol(spec, kernels)
        separation = {"LL": d, "LR": d + 4, "RL": d - 4, "RR": d}
        for name in BRANCHES:
            energy = kernels.d(0, 0) + kernels.d(0, separation[name])
            expected = wrap_phase(-energy * tau)
            assert abs(wrap_phase(trace.phases[name] - expected)) < 1e-12


@st.composite
def near_odd_multiples_of_pi(draw):
    """A float within 3000 ulps of k pi, k odd and |k pi| < 1e6."""
    centre = (2 * draw(st.integers(-159155, 159154)) + 1) * np.pi
    return float(centre + draw(st.integers(-3000, 3000)) * np.spacing(centre))


class TestPhases:
    @pytest.mark.parametrize("phi", [np.inf, -np.inf, np.nan])
    def test_wrap_rejects_non_finite(self, phi):
        with pytest.raises(ValueError, match="not finite"):
            wrap_phase(phi)

    def test_wrap_into_half_open_interval(self):
        assert wrap_phase(np.pi) == pytest.approx(np.pi)
        assert wrap_phase(-np.pi) == pytest.approx(np.pi)
        assert wrap_phase(0.0) == 0.0
        assert wrap_phase(3 * np.pi) == pytest.approx(np.pi)
        # (pi - phi) mod 2 pi rounds up to 2 pi one ulp above pi
        assert wrap_phase(np.nextafter(np.pi, np.inf)) == np.pi

    @settings(max_examples=500, deadline=None)
    @given(phi=st.one_of(st.floats(-1e6, 1e6), near_odd_multiples_of_pi()))
    def test_wrap_is_its_own_fixed_point(self, phi):
        wrapped = wrap_phase(phi)
        assert -np.pi < wrapped <= np.pi
        assert np.float64(wrap_phase(wrapped)).tobytes() == np.float64(wrapped).tobytes()

    # the protocol's eigenstate evolution, phi(s) = -E(s) tau with the
    # branch energy E(s) = D(0) + D(sep(s)), is the package's one
    # phase evolution
    @staticmethod
    def branch_phases(tau):
        grid = GridSpec(25, 1.0)
        kernels = build_kernels(grid)
        spec = ProtocolSpec(grid, (12, 7), (12, 17), size=7, taus=(tau,))
        energy = {s: kernels.d(0, 0) + kernels.d(0, 10 + shift)
                  for s, shift in zip(BRANCHES, (0, 4, -4, 0))}
        (trace,) = run_protocol(spec, kernels)
        return trace, energy

    def test_zero_time_is_identity(self):
        trace, _energy = self.branch_phases(0.0)
        assert all(phi == 0.0 for phi in trace.phases.values())
        assert np.array_equal(trace.final_spin, np.full(4, 0.5 + 0.0j))

    def test_pi_phase(self):
        _trace, energy = self.branch_phases(1.0)
        trace, _energy = self.branch_phases(np.pi / energy["LL"])
        assert abs(trace.phases["LL"]) == pytest.approx(np.pi)

    def test_relative_phase_sign(self):
        # equal-time evolution of two eigenstates: relative phase is
        # -(E1 - E2) tau
        trace, energy = self.branch_phases(0.5)
        assert wrap_phase(trace.phases["LR"] - trace.phases["LL"]) == pytest.approx(
            wrap_phase(-(energy["LR"] - energy["LL"]) * 0.5)
        )
