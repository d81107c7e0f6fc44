"""Qubit-per-site matter: classical charge configurations, semiclassical
superpositions with a fixed total charge, ladder moves, and sector
enumeration.

Configurations are occupation bitsets, not state vectors: the model
restricts itself to superpositions of a handful of localized charge
arrangements, so branches are labeled by configurations and carry
complex amplitudes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, ScalarField

__all__ = [
    "AnnihilatedState",
    "MatterConfig",
    "MatterSuperposition",
    "density",
    "apply_ladder",
    "enumerate_sector",
]

Site = tuple[int, int]

_NORM_TOL = 1e-12


class AnnihilatedState(Exception):
    """Every branch was dropped by a ladder move; the operator was used
    outside its support."""


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

    @classmethod
    def empty(cls, grid: GridSpec) -> "MatterConfig":
        return cls(grid, frozenset())

    @property
    def total_charge(self) -> int:
        return len(self.occupied)

    def is_occupied(self, site: Site) -> bool:
        return site in self.occupied

    def move(self, source: Site, target: Site) -> "MatterConfig":
        """Configuration with the charge at ``source`` relocated to
        ``target``; requires source occupied and target empty."""
        if source not in self.occupied:
            raise ValueError(f"no charge at {source}")
        if target in self.occupied:
            raise ValueError(f"target {target} already occupied")
        return MatterConfig(self.grid, self.occupied - {source} | {target})


def density(config: MatterConfig) -> ScalarField:
    """Charge density eigenvalue field: 1 at occupied sites, 0 elsewhere."""
    values = np.zeros(config.grid.shape)
    for (i, j) in config.occupied:
        values[i, j] = 1.0
    return ScalarField(config.grid, values)


class MatterSuperposition:
    """Complex amplitudes over configurations sharing one total charge.

    Charge superselection is enforced at construction: operators exposed
    here never mix sectors, and a mixed-charge branch map is rejected.
    """

    __slots__ = ("grid", "branches")

    def __init__(self, branches: dict[MatterConfig, complex]):
        if not branches:
            raise ValueError("superposition needs at least one branch")
        grids = {c.grid for c in branches}
        if len(grids) != 1:
            raise ValueError("branches must share one grid")
        charges = {c.total_charge for c in branches}
        if len(charges) != 1:
            raise ValueError(f"branches mix total charges {sorted(charges)}")
        norm = sum(abs(a) ** 2 for a in branches.values())
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"squared amplitudes sum to {norm!r}, not 1")
        self.grid = next(iter(grids))
        self.branches = dict(branches)

    @classmethod
    def pure(cls, config: MatterConfig) -> "MatterSuperposition":
        return cls({config: 1.0 + 0.0j})

    @property
    def total_charge(self) -> int:
        return next(iter(self.branches)).total_charge


def apply_ladder(
    state: MatterSuperposition,
    create_at: Site,
    annihilate_at: Site,
    strict: bool = False,
) -> MatterSuperposition:
    """Apply the charge move ``a^dag(create_at) a(annihilate_at)``
    branch-wise.

    A branch survives iff ``annihilate_at`` is occupied and ``create_at``
    is empty; surviving amplitudes are carried unchanged and the result
    is renormalized only when branches were dropped. The same-site move
    (a projector, not a move) is excluded.

    Raises
    ------
    AnnihilatedState
        If every branch is dropped.
    ValueError
        In strict mode, if any branch is dropped: the protocol's
        operators are total on its states, so a silent drop there is a
        bug, not physics.
    """
    create_at = tuple(create_at)
    annihilate_at = tuple(annihilate_at)
    if create_at == annihilate_at:
        raise ValueError("same-site ladder move is excluded (occupation projector)")
    surviving: dict[MatterConfig, complex] = {}
    dropped = 0
    for config, amp in state.branches.items():
        if config.is_occupied(annihilate_at) and not config.is_occupied(create_at):
            surviving[config.move(annihilate_at, create_at)] = amp
        else:
            dropped += 1
    if not surviving:
        raise AnnihilatedState(
            f"move {annihilate_at} -> {create_at} annihilated all branches"
        )
    if dropped and strict:
        raise ValueError(f"{dropped} branch(es) dropped by {annihilate_at} -> {create_at}")
    if dropped:
        norm = np.sqrt(sum(abs(a) ** 2 for a in surviving.values()))
        surviving = {c: a / norm for c, a in surviving.items()}
    return MatterSuperposition(surviving)


def enumerate_sector(
    grid: GridSpec,
    n: int,
    region_filter: tuple | None = None,
) -> list[MatterConfig]:
    """Deterministic row-major enumeration of n-charge configurations.

    With ``region_filter = (region_a, region_b)`` only configurations
    with exactly one charge in each region are produced (and n must
    be 2). Regions are any objects exposing ``contains(site)``.
    """
    if not (0 <= n <= grid.n**2):
        raise ValueError(f"charge count {n} outside [0, {grid.n ** 2}]")
    sites = [(i, j) for i in range(grid.n) for j in range(grid.n)]
    if region_filter is None:
        return [
            MatterConfig.from_sites(grid, combo)
            for combo in itertools.combinations(sites, n)
        ]
    region_a, region_b = region_filter
    if n != 2:
        raise ValueError("the two-region filter applies to the n = 2 sector")
    in_a = [s for s in sites if region_a.contains(s)]
    in_b = [s for s in sites if region_b.contains(s)]
    if set(in_a) & set(in_b):
        raise ValueError("regions overlap")
    return [
        MatterConfig.from_sites(grid, (sa, sb))
        for sa in in_a
        for sb in in_b
    ]
