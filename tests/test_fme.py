"""The entanglement protocol: dressed moves, the five steps, entropy
accounting, and the embezzlement null test."""

import numpy as np
import pytest

from latgauge.algebra import Region
from latgauge.fme import (
    BRANCHES,
    BranchState,
    NotDensityMatrix,
    ProtocolSpec,
    branch_constraint_residual,
    dressed_move,
    embezzlement_null_test,
    entropy_from_phases,
    reduced_spin_a,
    run_protocol,
    vn_entropy,
    _ground_state,
)
from latgauge.gaussian import wrap_phase
from latgauge.grid import GridSpec, divergence
from latgauge.matter import density
from latgauge.spectral import build_kernels


def small_spec(tau=0.0, n=25, distance=10, **kwargs):
    grid = GridSpec(n, 1.0)
    row = n // 2
    col_a = (n - distance) // 2
    col_b = col_a + distance
    return ProtocolSpec(
        grid=grid,
        site_a=(row, col_a),
        site_b=(row, col_b),
        region_a=Region.square((row - 3, col_a - 3), 7),
        region_b=Region.square((row - 3, col_b - 3), 7),
        tau=tau,
        **kwargs,
    )


@pytest.fixture(scope="module")
def small_kernels():
    return build_kernels(GridSpec(25, 1.0))


@pytest.fixture(scope="module")
def big_kernels():
    return build_kernels(GridSpec(101, 1.0))


def big_spec(tau=0.0, **kwargs):
    grid = GridSpec(101, 1.0)
    return ProtocolSpec(
        grid=grid,
        site_a=(50, 40),
        site_b=(50, 60),
        region_a=Region.square((47, 37), 7),
        region_b=Region.square((47, 57), 7),
        tau=tau,
        **kwargs,
    )


def start_branch(spec, kernels):
    s0 = spec.initial_config()
    return BranchState(s0, _ground_state(density(s0), kernels, 0.0), "uu")


class TestSpecValidation:
    def test_shifted_sites_must_be_interior(self):
        grid = GridSpec(25, 1.0)
        with pytest.raises(ValueError):
            ProtocolSpec(
                grid=grid,
                site_a=(12, 7),
                site_b=(12, 17),
                region_a=Region.square((10, 5), 5),  # too tight for a +-2 shift
                region_b=Region.square((9, 14), 7),
            )

    def test_regions_must_be_separated(self):
        grid = GridSpec(25, 1.0)
        with pytest.raises(ValueError):
            ProtocolSpec(
                grid=grid,
                site_a=(12, 8),
                site_b=(12, 15),
                region_a=Region.square((9, 5), 7),
                region_b=Region.square((9, 12), 7),
            )

    def test_rows_must_match(self):
        grid = GridSpec(25, 1.0)
        with pytest.raises(ValueError):
            ProtocolSpec(
                grid=grid,
                site_a=(12, 7),
                site_b=(13, 17),
                region_a=Region.square((9, 4), 7),
                region_b=Region.square((9, 14), 7),
            )


class TestDressedMove:
    def test_move_then_merge_restores_exactly(self, small_kernels):
        spec = small_spec()
        start = start_branch(spec, small_kernels)
        for direction, back in (("left", "right"), ("right", "left")):
            out = dressed_move(spec, start, "A", direction)
            restored = dressed_move(spec, out, "A", back)
            assert restored.matter.occupied == start.matter.occupied
            # adding and removing the 2a displacement can shave the low
            # bits of the background underneath it
            assert (restored.field.shift - start.field.shift).max_abs() < 1e-12

    def test_dressing_repairs_gauss_law(self, small_kernels):
        spec = small_spec()
        start = start_branch(spec, small_kernels)
        assert branch_constraint_residual(start) < 1e-9
        for region in ("A", "B"):
            for direction in ("left", "right"):
                moved = dressed_move(spec, start, region, direction)
                assert branch_constraint_residual(moved) < 1e-9

    def test_undressed_move_breaks_two_crosses(self, small_kernels):
        spec = small_spec()
        start = start_branch(spec, small_kernels)
        bare = dressed_move(spec, start, "A", "left", dressed=False)
        rho = density(bare.matter)
        res = divergence(bare.field.shift).values + rho.values - rho.values.mean()
        row, col = spec.site_a
        assert abs(abs(res[row, col]) - 1.0) < 1e-12
        assert abs(abs(res[row, col - 2]) - 1.0) < 1e-12
        res[row, col] = res[row, col - 2] = 0.0
        assert np.max(np.abs(res)) < 1e-12

    def test_region_moves_commute(self, small_kernels):
        # order of application across regions is irrelevant, exactly
        spec = small_spec()
        start = start_branch(spec, small_kernels)
        ab = dressed_move(spec, dressed_move(spec, start, "A", "left"), "B", "right")
        ba = dressed_move(spec, dressed_move(spec, start, "B", "right"), "A", "left")
        assert ab.matter.occupied == ba.matter.occupied
        assert (ab.field.shift - ba.field.shift).max_abs() == 0.0

    def test_unknown_region_rejected(self, small_kernels):
        spec = small_spec()
        start = start_branch(spec, small_kernels)
        with pytest.raises(ValueError):
            dressed_move(spec, start, "nope", "left")
        with pytest.raises(ValueError):
            dressed_move(spec, start, "A", "up")


class TestRunProtocol:
    def test_trivial_phases_give_zero_entropy(self, small_kernels):
        trace = run_protocol(small_spec(tau=0.0), small_kernels)
        assert trace.h_sigma_a < 1e-12
        amps = trace.final_spin
        assert np.max(np.abs(amps - 0.5)) < 1e-12  # |+>|+> restored

    def test_branch_bookkeeping(self, small_kernels):
        trace = run_protocol(small_spec(tau=1.0), small_kernels)
        for step in range(6):
            entries = trace.states_by_step[step]
            assert len(entries) == 4
            assert abs(sum(abs(a) ** 2 for a, _ in entries) - 1.0) < 1e-12
        # four distinct matter configurations between the moves
        mid_configs = {b.matter.occupied for _a, b in trace.states_by_step[2]}
        assert len(mid_configs) == 4
        end_configs = {b.matter.occupied for _a, b in trace.states_by_step[5]}
        assert len(end_configs) == 1

    def test_pi_imbalance_reaches_maximal_entropy(self, big_kernels):
        kernels = big_kernels
        d = 20
        curvature = 2 * kernels.d(0, d) - kernels.d(0, d + 4) - kernels.d(0, d - 4)
        tau_star = np.pi / abs(curvature)
        trace = run_protocol(big_spec(tau=tau_star), kernels)
        assert trace.h_sigma_a == pytest.approx(np.log(2.0), abs=1e-6)

    def test_entropy_matches_four_phase_model(self, big_kernels):
        trace = run_protocol(big_spec(tau=40.0), big_kernels)
        assert trace.h_sigma_a == pytest.approx(
            entropy_from_phases(trace.phases), abs=1e-9
        )
        assert trace.h_sigma_a > 1e-4  # generic tau entangles

    def test_equal_distance_branches_share_phase(self, big_kernels):
        trace = run_protocol(big_spec(tau=17.0), big_kernels)
        assert trace.phases["LL"] == pytest.approx(trace.phases["RR"], abs=1e-12)

    def test_entropy_periodic_in_tau(self, big_kernels):
        # period 2 pi / |2D(d) - D(d+4) - D(d-4)|, checked to 1%
        kernels = big_kernels
        d = 20
        curvature = 2 * kernels.d(0, d) - kernels.d(0, d + 4) - kernels.d(0, d - 4)
        period = 2 * np.pi / abs(curvature)
        for tau in (0.31 * period, 0.62 * period):
            e1 = run_protocol(big_spec(tau=tau), kernels).h_sigma_a
            e2 = run_protocol(big_spec(tau=tau + period), kernels).h_sigma_a
            assert e2 == pytest.approx(e1, abs=0.01 * np.log(2))

    def test_gamma_phases_shift_the_criterion(self, small_kernels):
        # entropy vanishes iff th_LL + th_RR = th_LR + th_RL (mod 2pi)
        gamma = {"LL": 0.9, "LR": 0.4, "RL": 0.5, "RR": 0.0}
        balanced = run_protocol(small_spec(tau=0.0, gamma=gamma), small_kernels)
        assert balanced.h_sigma_a < 1e-12
        gamma_prime = {"LL": np.pi / 2, "LR": 0.0, "RL": 0.0, "RR": np.pi / 2}
        tilted = run_protocol(
            small_spec(tau=0.0, gamma=gamma, gamma_prime=gamma_prime), small_kernels
        )
        assert tilted.h_sigma_a == pytest.approx(np.log(2.0), abs=1e-9)

    def test_entropy_bounds_over_sweep(self, small_kernels):
        for tau in np.linspace(0.0, 300.0, 7):
            trace = run_protocol(small_spec(tau=float(tau)), small_kernels)
            assert -1e-12 <= trace.h_sigma_a <= np.log(2.0) + 1e-12

    def test_five_backgrounds_per_run(self, small_kernels, monkeypatch):
        # one for the start sector, one per branch at step 2; step 5
        # returns to the start sector's ground state
        import latgauge.gaussian as gaussian

        calls = []
        solve = gaussian.coulomb_momentum
        monkeypatch.setattr(
            gaussian, "coulomb_momentum", lambda *a: calls.append(a) or solve(*a)
        )
        gamma_prime = {"LL": 0.3, "LR": 0.0, "RL": -1.1, "RR": 2.0}
        trace = run_protocol(small_spec(tau=2.0, gamma_prime=gamma_prime), small_kernels)
        assert len(calls) == 5
        (_, start), *_ = trace.states_by_step[0]
        steps = trace.states_by_step
        for name, (_, before), (_, after) in zip(BRANCHES, steps[4], steps[5]):
            assert after.field.shift is start.field.shift
            expected = before.field.phase + gamma_prime[name]
            assert abs(wrap_phase(after.field.phase - expected)) < 1e-12

    def test_entanglement_increase_equals_reduced_entropy(self, small_kernels):
        trace = run_protocol(small_spec(tau=90.0), small_kernels)
        assert trace.h_sigma_a == vn_entropy(reduced_spin_a(trace.final_spin))


class TestVnEntropy:
    def test_pure_projector(self):
        assert vn_entropy(np.array([[1.0, 0.0], [0.0, 0.0]])) == 0.0

    def test_maximally_mixed(self):
        assert vn_entropy(0.5 * np.eye(2)) == pytest.approx(np.log(2.0))

    def test_bell_like_reduction(self):
        for theta in (0.0, 0.3, np.pi / 2, 2.2):
            amps = np.array([1.0, 0.0, 0.0, np.exp(1j * theta)]) / np.sqrt(2.0)
            rho = reduced_spin_a(amps)
            assert vn_entropy(rho) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotDensityMatrix):
            vn_entropy(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(NotDensityMatrix):
            vn_entropy(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotDensityMatrix):
            vn_entropy(np.array([[1.5, 0.0], [0.0, -0.5]]))

    def test_rejects_odd_shapes(self):
        with pytest.raises(NotDensityMatrix):
            vn_entropy(np.eye(3) / 3.0)


class TestEmbezzlement:
    def test_null_test_passes(self, small_kernels):
        assert embezzlement_null_test(small_spec(), small_kernels)

    def test_single_region_factorization(self, small_kernels):
        spec = small_spec()
        assert embezzlement_null_test(spec, small_kernels, regions=("A",))
        assert embezzlement_null_test(spec, small_kernels, regions=("B",))

    def test_gauss_law_checked(self, small_kernels, monkeypatch):
        # an undressed move breaks the Gauss law; the null test says so
        # rather than only comparing end states
        import latgauge.fme as fme

        move = fme.dressed_move
        monkeypatch.setattr(
            fme, "dressed_move", lambda *a: move(*a, dressed=False)
        )
        with pytest.raises(AssertionError, match="Gauss law"):
            embezzlement_null_test(small_spec(), small_kernels)

    def test_full_protocol_differs_for_generic_tau(self, small_kernels):
        trace = run_protocol(small_spec(tau=150.0), small_kernels)
        assert trace.h_sigma_a > 1e-6

    def test_locc_shadow(self, small_kernels):
        # local operations alone (tau = 0, no relaxation phases)
        # generate nothing
        trace = run_protocol(small_spec(tau=0.0), small_kernels)
        assert trace.h_sigma_a < 1e-12
