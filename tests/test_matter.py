"""Charge configurations, ladder moves, and sector enumeration."""

import numpy as np
import pytest

from latgauge.algebra import Region
from latgauge.grid import GridSpec, divergence
from latgauge.matter import (
    AnnihilatedState,
    MatterConfig,
    MatterSuperposition,
    apply_ladder,
    density,
    enumerate_sector,
)


class TestDensity:
    def test_empty_config(self):
        grid = GridSpec(5, 1.0)
        assert density(MatterConfig.empty(grid)).max_abs() == 0.0

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
        state = MatterSuperposition.pure(s0)
        moved = apply_ladder(state, create_at=(50, 38), annihilate_at=(50, 40))
        (config,) = moved.branches
        assert config.occupied == frozenset({(50, 38), (50, 60)})

    def test_annihilating_empty_site_raises(self):
        grid = GridSpec(5, 1.0)
        state = MatterSuperposition.pure(MatterConfig.from_sites(grid, [(1, 1)]))
        with pytest.raises(AnnihilatedState):
            apply_ladder(state, create_at=(2, 2), annihilate_at=(3, 3))

    def test_there_and_back_is_identity(self):
        grid = GridSpec(9, 1.0)
        a = MatterConfig.from_sites(grid, [(4, 4), (2, 2)])
        b = MatterConfig.from_sites(grid, [(4, 4), (2, 4)])
        state = MatterSuperposition(
            {a: np.sqrt(0.3), b: np.exp(0.7j) * np.sqrt(0.7)}
        )
        out = apply_ladder(state, create_at=(4, 6), annihilate_at=(4, 4))
        back = apply_ladder(out, create_at=(4, 4), annihilate_at=(4, 6))
        assert set(back.branches) == {a, b}
        for config, amp in state.branches.items():
            assert back.branches[config] == pytest.approx(amp)

    def test_same_site_move_excluded(self):
        grid = GridSpec(5, 1.0)
        state = MatterSuperposition.pure(MatterConfig.from_sites(grid, [(1, 1)]))
        with pytest.raises(ValueError):
            apply_ladder(state, create_at=(1, 1), annihilate_at=(1, 1))

    def test_strict_mode_rejects_partial_drop(self):
        grid = GridSpec(5, 1.0)
        a = MatterConfig.from_sites(grid, [(1, 1)])
        b = MatterConfig.from_sites(grid, [(2, 2)])
        state = MatterSuperposition({a: np.sqrt(0.5), b: np.sqrt(0.5)})
        with pytest.raises(ValueError):
            apply_ladder(state, create_at=(1, 3), annihilate_at=(1, 1), strict=True)

    def test_partial_drop_renormalizes(self):
        grid = GridSpec(5, 1.0)
        a = MatterConfig.from_sites(grid, [(1, 1)])
        b = MatterConfig.from_sites(grid, [(2, 2)])
        state = MatterSuperposition({a: np.sqrt(0.5), b: np.sqrt(0.5)})
        out = apply_ladder(state, create_at=(1, 3), annihilate_at=(1, 1))
        assert len(out.branches) == 1
        (amp,) = out.branches.values()
        assert abs(amp) == pytest.approx(1.0)

    def test_charge_conserved_branchwise(self):
        grid = GridSpec(9, 1.0)
        state = MatterSuperposition.pure(
            MatterConfig.from_sites(grid, [(1, 1), (5, 5), (7, 2)])
        )
        out = apply_ladder(state, create_at=(5, 7), annihilate_at=(5, 5))
        assert all(c.total_charge == 3 for c in out.branches)


class TestSuperposition:
    def test_rejects_mixed_charge(self):
        grid = GridSpec(5, 1.0)
        with pytest.raises(ValueError):
            MatterSuperposition(
                {
                    MatterConfig.from_sites(grid, [(1, 1)]): np.sqrt(0.5),
                    MatterConfig.from_sites(grid, [(1, 1), (2, 2)]): np.sqrt(0.5),
                }
            )

    def test_rejects_unnormalized(self):
        grid = GridSpec(5, 1.0)
        with pytest.raises(ValueError):
            MatterSuperposition({MatterConfig.from_sites(grid, [(1, 1)]): 0.5})


class TestEnumerateSector:
    def test_empty_sector(self):
        grid = GridSpec(4, 1.0)
        configs = enumerate_sector(grid, 0)
        assert len(configs) == 1 and configs[0].total_charge == 0

    def test_single_charge_count(self):
        assert len(enumerate_sector(GridSpec(3, 1.0), 1)) == 9

    def test_row_major_order(self):
        configs = enumerate_sector(GridSpec(3, 1.0), 1)
        first_sites = [next(iter(c.occupied)) for c in configs]
        assert first_sites == [(i, j) for i in range(3) for j in range(3)]

    def test_two_region_filter(self):
        grid = GridSpec(11, 1.0)
        region_a = Region.square((1, 1), 3)
        region_b = Region.square((6, 6), 3)
        configs = enumerate_sector(grid, 2, region_filter=(region_a, region_b))
        assert len(configs) == 81
        for config in configs:
            in_a = [s for s in config.occupied if region_a.contains(s)]
            in_b = [s for s in config.occupied if region_b.contains(s)]
            assert len(in_a) == 1 and len(in_b) == 1

    def test_filter_needs_two_charges(self):
        grid = GridSpec(11, 1.0)
        with pytest.raises(ValueError):
            enumerate_sector(
                grid, 1, region_filter=(Region.square((1, 1), 3), Region.square((6, 6), 3))
            )
