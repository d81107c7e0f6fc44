"""Charge configurations, their density, and the ladder move."""

import numpy as np
import pytest

from latgauge.grid import GridSpec, divergence
from latgauge.matter import MatterConfig, apply_ladder, density


class TestDensity:
    def test_empty_config(self):
        grid = GridSpec(5, 1.0)
        assert density(MatterConfig(grid, frozenset())).max_abs() == 0.0

    def test_two_charges(self):
        grid = GridSpec(101, 1.0)
        config = MatterConfig.from_sites(grid, [(50, 40), (50, 60)])
        rho = density(config)
        assert rho.values.sum() == 2.0
        assert rho.values[50, 40] == 1.0 and rho.values[50, 60] == 1.0

    def test_eigenvalues_match_bits(self):
        grid = GridSpec(7, 1.0)
        rng = np.random.default_rng(0)
        sites = {(int(i), int(j)) for i, j in rng.integers(0, 7, size=(5, 2))}
        config = MatterConfig.from_sites(grid, sites)
        rho = density(config)
        for i in range(7):
            for j in range(7):
                assert rho.values[i, j] == (1.0 if (i, j) in sites else 0.0)

    def test_density_feeds_constraint_and_energy(self):
        # round-trip through the downstream consumers without copy drift
        from latgauge.gaussian import NonNeutralWarning, coulomb_energy_shift, coulomb_momentum

        grid = GridSpec(15, 1.0)
        from latgauge.spectral import build_kernels

        kernels = build_kernels(grid)
        config = MatterConfig.from_sites(grid, [(7, 5), (7, 9)])
        rho = density(config)
        with pytest.warns(NonNeutralWarning):
            p = coulomb_momentum(rho, kernels)
        residual = divergence(p).values + rho.values - rho.values.mean()
        assert np.max(np.abs(residual)) < 1e-9
        assert coulomb_energy_shift(rho, kernels) == pytest.approx(
            kernels.d(0, 0) + kernels.d(0, 4), rel=1e-10
        )

    def test_out_of_range_site_rejected(self):
        with pytest.raises(ValueError):
            MatterConfig.from_sites(GridSpec(5, 1.0), [(5, 0)])

    def test_duplicate_site_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            MatterConfig.from_sites(GridSpec(5, 1.0), [(1, 1), (1, 1)])


class TestApplyLadder:
    def test_two_site_move(self):
        grid = GridSpec(101, 1.0)
        s0 = MatterConfig.from_sites(grid, [(50, 40), (50, 60)])
        moved = apply_ladder(s0, create_at=(50, 38), annihilate_at=(50, 40))
        assert moved.occupied == frozenset({(50, 38), (50, 60)})
        assert s0.occupied == frozenset({(50, 40), (50, 60)})  # input untouched

    def test_annihilating_empty_site_raises(self):
        grid = GridSpec(5, 1.0)
        config = MatterConfig.from_sites(grid, [(1, 1)])
        with pytest.raises(ValueError, match="no charge"):
            apply_ladder(config, create_at=(2, 2), annihilate_at=(3, 3))

    def test_occupied_target_raises(self):
        grid = GridSpec(5, 1.0)
        config = MatterConfig.from_sites(grid, [(1, 1), (1, 3)])
        with pytest.raises(ValueError, match="occupied"):
            apply_ladder(config, create_at=(1, 3), annihilate_at=(1, 1))

    def test_there_and_back_is_identity(self):
        grid = GridSpec(9, 1.0)
        for config in (
            MatterConfig.from_sites(grid, [(4, 4), (2, 2)]),
            MatterConfig.from_sites(grid, [(4, 4), (2, 4)]),
        ):
            out = apply_ladder(config, create_at=(4, 6), annihilate_at=(4, 4))
            assert apply_ladder(out, create_at=(4, 4), annihilate_at=(4, 6)) == config

    def test_same_site_move_excluded(self):
        grid = GridSpec(5, 1.0)
        config = MatterConfig.from_sites(grid, [(1, 1)])
        with pytest.raises(ValueError, match="same-site"):
            apply_ladder(config, create_at=(1, 1), annihilate_at=(1, 1))

    def test_charge_conserved_branchwise(self):
        grid = GridSpec(9, 1.0)
        config = MatterConfig.from_sites(grid, [(1, 1), (5, 5), (7, 2)])
        out = apply_ladder(config, create_at=(5, 7), annihilate_at=(5, 5))
        assert len(out.occupied) == 3
