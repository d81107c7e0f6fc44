"""Qubit-per-site matter: classical charge configurations, their charge
density, and the ladder move that relocates one charge.

Configurations are occupation bitsets, not state vectors: the
entanglement protocol carries its superposition as its own four
branches, each labeled by one configuration, so a ladder move acts on
one configuration at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, ScalarField

__all__ = [
    "MatterConfig",
    "density",
    "apply_ladder",
]

Site = tuple[int, int]


@dataclass(frozen=True)
class MatterConfig:
    """Immutable arrangement of unit charges on the grid."""

    grid: GridSpec
    occupied: frozenset[Site]

    def __post_init__(self):
        n = self.grid.n
        for (i, j) in self.occupied:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"site {(i, j)} outside the {n}x{n} grid")

    @classmethod
    def from_sites(cls, grid: GridSpec, sites) -> "MatterConfig":
        """Configuration with one charge at each listed site; a site
        listed twice is an error, not a merged charge."""
        sites = [(int(i), int(j)) for i, j in sites]
        occupied = frozenset(sites)
        if len(occupied) != len(sites):
            raise ValueError(f"duplicate charge sites in {sites}")
        return cls(grid, occupied)


def density(config: MatterConfig) -> ScalarField:
    """Charge density eigenvalue field: 1 at occupied sites, 0 elsewhere."""
    values = np.zeros(config.grid.shape)
    for (i, j) in config.occupied:
        values[i, j] = 1.0
    return ScalarField(config.grid, values)


def apply_ladder(
    config: MatterConfig, create_at: Site, annihilate_at: Site
) -> MatterConfig:
    """Apply the charge move ``a^dag(create_at) a(annihilate_at)``: the
    configuration with the charge at ``annihilate_at`` relocated to
    ``create_at``.

    Raises
    ------
    ValueError
        For the same-site move (a projector, not a move), an empty
        ``annihilate_at`` or an occupied ``create_at``. The protocol's
        moves are total on its configurations, so a move outside its
        support is a bug, not physics.
    """
    create_at = tuple(create_at)
    annihilate_at = tuple(annihilate_at)
    if create_at == annihilate_at:
        raise ValueError("same-site ladder move is excluded (occupation projector)")
    if annihilate_at not in config.occupied:
        raise ValueError(f"no charge at {annihilate_at}")
    if create_at in config.occupied:
        raise ValueError(f"target {create_at} already occupied")
    return MatterConfig(config.grid, config.occupied - {annihilate_at} | {create_at})
