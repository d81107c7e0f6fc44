"""Gaussian ground states of the lattice model: vacuum and static-source
ground energies, the classical Coulomb momentum background, and
eigenstate phase evolution.

The kernel table D is the one representation of the Coulomb problem:
backgrounds and sector energies are read off it at the charged sites,
and their mode-space forms survive only as test oracles.

A state is represented by (kernel table, momentum shift, global phase)
rather than a sampled wave function: every state the entanglement
protocol touches is a phase times a shifted copy of the fixed vacuum
Gaussian, which keeps displacement round-trips exactly checkable.
hbar = 1 throughout.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .grid import GridSpec, ScalarField, VectorField, dbar, divergence
from .spectral import KernelTable, wave_number_table

__all__ = [
    "NonNeutralWarning",
    "GaussianFieldState",
    "ground_energy",
    "coulomb_energy_shift",
    "coulomb_momentum",
    "evolve_phase",
    "displace",
    "wrap_phase",
    "solvable_charge_part",
    "gauss_residual",
]

# the Gauss-law residual bound every background and dressed state meets
CONSTRAINT_TOL = 1e-9


class NonNeutralWarning(UserWarning):
    """The charge density has a nonzero component on an excluded mode
    (the uniform mode; on even lattices also the three staggered
    doubler modes). Those components are dropped with the zero modes, so
    the computed background solves the Gauss law only up to them, which
    is also exactly the part of rho the discrete divergence of any
    momentum field can never match."""


def wrap_phase(phi: float) -> float:
    """Canonical wrap into (-pi, pi]; a non-finite phi, such as an
    overflowed ``energy * tau``, raises ValueError."""
    if not np.isfinite(phi):
        raise ValueError(f"phase {phi} is not finite")
    return float(np.pi - (np.pi - phi) % (2.0 * np.pi))


def _excluded_part(values: np.ndarray):
    """The part of a density on the |k| = 0 modes. For odd N that is the
    uniform mode, so the spatial mean. For even N the four sign patterns
    ``(-1)^(a i + b j)``, a, b in {0, 1}, span exactly the functions that
    are constant on each of the four parity sublattices, so the part is
    the mean over the sublattice of each site."""
    n = values.shape[0]
    if n % 2:
        return values.mean()
    h = n // 2
    return np.tile(values.reshape(h, 2, h, 2).mean(axis=(0, 2)), (h, h))


def solvable_charge_part(rho: ScalarField) -> ScalarField:
    """Project the charge density onto the modes where the Gauss law is
    solvable, dropping its components on the |k| = 0 modes. For odd N
    this subtracts the spatial mean; for even N it also removes the
    three staggered doubler components."""
    return ScalarField(rho.grid, rho.values - _excluded_part(rho.values))


def gauss_residual(p: VectorField, rho: ScalarField) -> float:
    """Infinity norm of div p + rho restricted to the solvable sector,
    the residual every background constructor is held to."""
    res = divergence(p).values + solvable_charge_part(rho).values
    return float(np.max(np.abs(res)))


@dataclass(frozen=True)
class GaussianFieldState:
    """Momentum-space Gaussian ground state, displaced by a classical
    momentum background and carrying a global phase."""

    kernel: KernelTable
    shift: VectorField
    phase: float = 0.0

    def __post_init__(self):
        if self.shift.grid != self.kernel.grid:
            raise ValueError("shift must live on the kernel grid")
        object.__setattr__(self, "phase", wrap_phase(self.phase))

    @property
    def grid(self) -> GridSpec:
        return self.kernel.grid

    @classmethod
    def vacuum(cls, kernels: KernelTable) -> "GaussianFieldState":
        return cls(kernels, VectorField.zeros(kernels.grid))

    @classmethod
    def from_source(cls, rho: ScalarField, kernels: KernelTable) -> "GaussianFieldState":
        """Ground state of the sector with static charge density rho.

        The constructed background must solve the sourced Gauss law (up
        to the excluded-mode components the kernels drop); that is
        asserted here.
        """
        shift = coulomb_momentum(rho, kernels)
        residual = gauss_residual(shift, rho)
        if residual > CONSTRAINT_TOL:
            raise AssertionError(f"background violates the Gauss law by {residual:.2e}")
        return cls(kernels, shift)


def ground_energy(grid: GridSpec) -> float:
    """Vacuum ground-state energy ``1/2 sum |k|`` over all modes (zero
    modes contribute nothing)."""
    _, _, kabs = wave_number_table(grid)
    return 0.5 * float(np.sum(kabs))


def coulomb_energy_shift(rho: ScalarField, kernels: KernelTable) -> float:
    """Ground-energy correction of a static source,
    ``1/2 sum_{s,t} rho_s rho_t D(s - t)`` with the zero-mode-excluded D,
    by table lookup over the k charged sites, O(k^2). The literal double
    sum over all sites and the Fourier-side sum are its test oracles."""
    if rho.grid != kernels.grid:
        raise ValueError("rho must live on the kernel grid")
    n = rho.grid.n
    rows, cols = np.nonzero(rho.values)
    charges = rho.values[rows, cols]
    total = 0.0
    for i, j, q in zip(rows, cols, charges):
        total += q * (charges @ kernels.d_values[(i - rows) % n, (j - cols) % n])
    return 0.5 * float(total)


def coulomb_momentum(rho: ScalarField, kernels: KernelTable) -> VectorField:
    """Classical momentum background solving the sourced Gauss law,
    ``p_s = dbar_s (D * rho)``: copies of the D table rolled to the k
    charged sites, O(k N^2). As ``fft2(D) = 1/|k|^2`` on the kept modes
    and ``dbar_s`` multiplies by ``i k_s``, this is the mode-space
    ``i k_s rho~ / |k|^2``, its test oracle.

    Warns
    -----
    NonNeutralWarning
        When rho has a component on an excluded mode (a net charge, or a
        staggered one on even N); the constraint then holds up to it.
    """
    grid = kernels.grid
    if rho.grid != grid:
        raise ValueError("rho must live on the kernel grid")
    excluded = _excluded_part(rho.values)
    if np.max(np.abs(excluded)) > 1e-12 * max(1.0, np.max(np.abs(rho.values))):
        warnings.warn(
            NonNeutralWarning(
                "charge density has components on the excluded zero modes "
                f"(total charge {rho.values.sum():.3g}); the background solves "
                "the constraint only up to those components"
            ),
            stacklevel=2,
        )
    phi = np.zeros(grid.shape)
    for site in zip(*np.nonzero(rho.values)):
        phi += rho.values[site] * np.roll(kernels.d_values, site, axis=(0, 1))
    phi = ScalarField(grid, phi)
    return VectorField(dbar(phi, "x"), dbar(phi, "y"))


def evolve_phase(
    state: GaussianFieldState, energy: float, tau: float
) -> GaussianFieldState:
    """Eigenstate evolution for time tau: phase picks up -energy * tau
    (hbar = 1); kernel and shift untouched."""
    return replace(state, phase=wrap_phase(state.phase - energy * tau))


def displace(state: GaussianFieldState, delta_p: VectorField) -> GaussianFieldState:
    """Translate the momentum background by delta_p. Models both the
    source translation operator and the single-link dressing used by the
    entanglement protocol."""
    if delta_p.grid != state.grid:
        raise ValueError("displacement must live on the state grid")
    return replace(state, shift=state.shift + delta_p)
