"""Classical Hamiltonian dynamics in the temporal gauge: energy,
equations of motion, the sourced Gauss-law residual, symplectic time
stepping, and state-level gauge transformations.

The temporal gauge is hard-coded: the scalar potential component is
fixed to zero and never represented. Units follow the m = 1, kappa a^2
= 1 convention, so q carries length and p length/time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import GridSpec, ScalarField, VectorField, _dbar_values, curl_z, dbar, divergence

__all__ = [
    "UnstableStep",
    "PhaseSpaceState",
    "SourceConfig",
    "energy",
    "eom_rhs",
    "step_leapfrog",
    "constraint_residual",
    "gauge_transform",
]


class UnstableStep(Exception):
    """Leapfrog energy drifted by more than 1% of the initial energy,
    meaning dt is too large for the lattice's maximum mode frequency."""


@dataclass(frozen=True)
class PhaseSpaceState:
    q: VectorField
    p: VectorField
    time: float = 0.0

    def __post_init__(self):
        if self.q.grid != self.p.grid:
            raise ValueError("q and p must share a grid")

    @property
    def grid(self) -> GridSpec:
        return self.q.grid

    @classmethod
    def zero(cls, grid: GridSpec) -> "PhaseSpaceState":
        return cls(VectorField.zeros(grid), VectorField.zeros(grid))

    @classmethod
    def random(cls, grid: GridSpec, rng: np.random.Generator) -> "PhaseSpaceState":
        shape = grid.shape
        return cls(
            VectorField.from_arrays(
                grid, rng.standard_normal(shape), rng.standard_normal(shape)
            ),
            VectorField.from_arrays(
                grid, rng.standard_normal(shape), rng.standard_normal(shape)
            ),
        )


@dataclass(frozen=True)
class SourceConfig:
    """Static charge density and current components on the grid."""

    rho: ScalarField
    jx: ScalarField
    jy: ScalarField

    def __post_init__(self):
        if not (self.rho.grid == self.jx.grid == self.jy.grid):
            raise ValueError("source fields must share a grid")

    @property
    def grid(self) -> GridSpec:
        return self.rho.grid

    @classmethod
    def vacuum(cls, grid: GridSpec) -> "SourceConfig":
        z = ScalarField.zeros(grid)
        return cls(z, z.copy(), z.copy())

    @classmethod
    def static(cls, rho: ScalarField) -> "SourceConfig":
        z = ScalarField.zeros(rho.grid)
        return cls(rho, z, z.copy())


def energy(state: PhaseSpaceState, source: SourceConfig) -> float:
    """Hamiltonian in the temporal gauge:
    ``H = 1/2 sum (px^2 + py^2 + b^2) - sum (Jx qx + Jy qy)``.

    The current coupling enters with unit coefficient, which is the form
    whose value is conserved along the equations of motion used here; it
    coincides with the quadratic Hamiltonian whenever J = 0.
    """
    b = curl_z(state.q)
    quad = 0.5 * float(
        np.sum(state.p.x.values**2 + state.p.y.values**2 + b.values**2)
    )
    coupling = float(
        np.sum(source.jx.values * state.q.x.values)
        + np.sum(source.jy.values * state.q.y.values)
    )
    return quad - coupling


def _force(qx, qy, source: SourceConfig, a: float):
    """Momentum equations on raw arrays: with ``b = dbar_x(qy) - dbar_y(qx)``,
    ``dp_x = -dbar_y(b) + Jx`` and ``dp_y = +dbar_x(b) + Jy``."""
    b = _dbar_values(qy, "x", a) - _dbar_values(qx, "y", a)
    fx = -_dbar_values(b, "y", a) + source.jx.values
    fy = _dbar_values(b, "x", a) + source.jy.values
    return fx, fy


def eom_rhs(
    state: PhaseSpaceState, source: SourceConfig
) -> tuple[VectorField, VectorField]:
    """Hamilton equations: dq_s = p_s, dp_x = -dbar_y(b) + Jx,
    dp_y = +dbar_x(b) + Jy."""
    fx, fy = _force(state.q.x.values, state.q.y.values, source, state.grid.spacing)
    return state.p.copy(), VectorField.from_arrays(state.grid, fx, fy)


def step_leapfrog(
    state: PhaseSpaceState,
    source: SourceConfig,
    dt: float,
    n_steps: int,
    energy_check: bool = True,
) -> PhaseSpaceState:
    """Advance with kick-drift-kick leapfrog.

    Sources must be static (J may be nonzero but time independent).

    Raises
    ------
    UnstableStep
        If the final energy differs from the initial energy by more than
        1% of |H0|, the signature of dt exceeding the stability limit.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
    qx = state.q.x.values.copy()
    qy = state.q.y.values.copy()
    px = state.p.x.values.copy()
    py = state.p.y.values.copy()
    a = state.grid.spacing
    fx, fy = _force(qx, qy, source, a)
    for _ in range(n_steps):
        px += 0.5 * dt * fx
        py += 0.5 * dt * fy
        qx += dt * px
        qy += dt * py
        fx, fy = _force(qx, qy, source, a)
        px += 0.5 * dt * fx
        py += 0.5 * dt * fy

    grid = state.grid
    out = PhaseSpaceState(
        VectorField.from_arrays(grid, qx, qy),
        VectorField.from_arrays(grid, px, py),
        time=state.time + dt * n_steps,
    )
    if energy_check:
        _check_drift(energy(state, source), energy(out, source), n_steps)
    return out


def _check_drift(h0: float, h1: float, n_steps: int) -> None:
    """Raise UnstableStep unless |h1 - h0| <= 1% of |h0|; a non-finite
    h1 counts as drift."""
    if not abs(h1 - h0) <= 0.01 * max(abs(h0), 1e-30):
        raise UnstableStep(
            f"energy drifted from {h0:.6e} to {h1:.6e} over {n_steps} steps"
        )


def constraint_residual(state: PhaseSpaceState, source: SourceConfig) -> ScalarField:
    """Site-local Gauss-law residual ``divergence(p) + rho``."""
    return divergence(state.p) + source.rho


def gauge_transform(state: PhaseSpaceState, epsilon: ScalarField) -> PhaseSpaceState:
    """Shift the potential by a pure gauge: q_s -> q_s - dbar_s(epsilon);
    p is untouched."""
    if epsilon.grid != state.grid:
        raise ValueError("epsilon lives on a different grid")
    new_q = VectorField(
        state.q.x - dbar(epsilon, "x"),
        state.q.y - dbar(epsilon, "y"),
    )
    return replace(state, q=new_q)
