"""Gaussian ground states of the lattice model: vacuum and static-source
ground energies, the classical Coulomb momentum background, and
eigenstate phase evolution.

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

from .grid import GridSpec, ScalarField, VectorField, divergence
from .spectral import KernelTable, _mode_weights, wave_number_table

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

CONSTRAINT_TOL = 1e-8


class NonNeutralWarning(UserWarning):
    """The charge density has a nonzero component on an excluded mode
    (the uniform mode; on even lattices also the three staggered
    doubler modes). Those components are dropped with the zero modes, so
    the computed background solves the Gauss law only up to them, which
    is also exactly the part of rho the discrete divergence of any
    momentum field can never match."""


def wrap_phase(phi: float) -> float:
    """Canonical wrap into (-pi, pi]."""
    return float(np.pi - (np.pi - phi) % (2.0 * np.pi))


def solvable_charge_part(rho: ScalarField) -> ScalarField:
    """Project the charge density onto the modes where the Gauss law is
    solvable, dropping its components on the |k| = 0 modes. For odd N
    this subtracts the spatial mean; for even N it also removes the
    three staggered doubler components."""
    grid = rho.grid
    if grid.n % 2:
        return ScalarField(grid, rho.values - rho.values.mean())
    *_, nonzero = _mode_weights(grid)
    rho_t = np.fft.fft2(rho.values)
    rho_t[~nonzero] = 0.0
    return ScalarField(grid, np.real(np.fft.ifft2(rho_t)))


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
    """Ground-energy correction of a static source:
    ``1/2 sum_ij sum_nm D(i-n, j-m) rho[i,j] rho[n,m]`` with the
    zero-mode-excluded D. Evaluated through the circular convolution
    theorem; the literal double sum is kept as a test oracle."""
    if rho.grid != kernels.grid:
        raise ValueError("rho must live on the kernel grid")
    conv = np.real(np.fft.ifft2(np.fft.fft2(kernels.d_values) * np.fft.fft2(rho.values)))
    return 0.5 * float(np.sum(rho.values * conv))


def coulomb_momentum(rho: ScalarField, kernels: KernelTable) -> VectorField:
    """Classical momentum background solving the sourced Gauss law,
    computed spectrally as the inverse transform of
    ``i k_s rho~ / |k|^2`` with the zero modes dropped.

    Warns
    -----
    NonNeutralWarning
        When the total charge is nonzero, since the dropped uniform mode
        then means the constraint is solved only up to the mean of rho.
    """
    grid = kernels.grid
    if rho.grid != grid:
        raise ValueError("rho must live on the kernel grid")
    kx, ky, _, inv_k2, nonzero = _mode_weights(grid)
    rho_t = np.fft.fft2(rho.values)
    if np.max(np.abs(rho_t[~nonzero])) > 1e-12 * max(1.0, np.max(np.abs(rho_t))):
        warnings.warn(
            NonNeutralWarning(
                "charge density has components on the excluded zero modes "
                f"(total charge {rho_t[0, 0].real:.3g}); the background solves "
                "the constraint only up to those components"
            ),
            stacklevel=2,
        )
    px = np.real(np.fft.ifft2(1j * kx * rho_t * inv_k2))
    py = np.real(np.fft.ifft2(1j * ky * rho_t * inv_k2))
    return VectorField.from_arrays(grid, px, py)


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
