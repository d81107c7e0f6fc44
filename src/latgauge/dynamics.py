"""Classical Hamiltonian dynamics in the temporal gauge: energy,
equations of motion, the sourced Gauss-law residual, symplectic time
stepping, streamed (t, H, Gauss residual) trajectories, and state-level
gauge transformations.

The temporal gauge is hard-coded: the scalar potential component is
fixed to zero and never represented. Units follow the m = 1, kappa a^2
= 1 convention, so q carries length and p length/time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import (
    GridSpec,
    ScalarField,
    VectorField,
    _curl_values,
    _dbar_values,
    _divergence_values,
    curl_z,
    dbar,
    divergence,
)

__all__ = [
    "UnstableStep",
    "PhaseSpaceState",
    "SourceConfig",
    "energy",
    "eom_rhs",
    "step_leapfrog",
    "trajectory",
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
        return cls(z, z, z)

    @classmethod
    def static(cls, rho: ScalarField) -> "SourceConfig":
        z = ScalarField.zeros(rho.grid)
        return cls(rho, z, z)


def energy(state: PhaseSpaceState, source: SourceConfig) -> float:
    """Hamiltonian in the temporal gauge:
    ``H = 1/2 sum (px^2 + py^2 + b^2) - sum (Jx qx + Jy qy)``.

    The current coupling enters with unit coefficient, which is the form
    whose value is conserved along the equations of motion used here; it
    coincides with the quadratic Hamiltonian whenever J = 0.
    """
    q, p = state.q, state.p
    b = curl_z(q)
    return _energy(q.x.values, q.y.values, p.x.values, p.y.values, b.values, source)


def _energy(qx, qy, px, py, b, source: SourceConfig) -> float:
    """``energy`` on raw arrays, with ``b`` the curl of q."""
    quad = 0.5 * float(np.sum(px**2 + py**2 + b**2))
    coupling = float(np.sum(source.jx.values * qx) + np.sum(source.jy.values * qy))
    return quad - coupling


def _force(qx, qy, source: SourceConfig, a: float):
    """Momentum equations on raw arrays: with ``b = dbar_x(qy) - dbar_y(qx)``,
    ``dp_x = -dbar_y(b) + Jx`` and ``dp_y = +dbar_x(b) + Jy``. Returns
    ``(fx, fy, b)``."""
    b = _curl_values(qx, qy, a)
    fx = -_dbar_values(b, "y", a) + source.jx.values
    fy = _dbar_values(b, "x", a) + source.jy.values
    return fx, fy, b


def eom_rhs(
    state: PhaseSpaceState, source: SourceConfig
) -> tuple[VectorField, VectorField]:
    """Hamilton equations: dq_s = p_s, dp_x = -dbar_y(b) + Jx,
    dp_y = +dbar_x(b) + Jy."""
    fx, fy, _b = _force(state.q.x.values, state.q.y.values, source, state.grid.spacing)
    return state.p, VectorField.from_arrays(state.grid, fx, fy)


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
    _check_step_args(dt, n_steps)
    qx, qy, px, py = _arrays(state)
    for _b in _kick_drift_kick(qx, qy, px, py, source, dt, n_steps, state.grid.spacing):
        pass

    grid = state.grid
    out = PhaseSpaceState(
        VectorField.from_arrays(grid, qx, qy),
        VectorField.from_arrays(grid, px, py),
        time=state.time + dt * n_steps,
    )
    if energy_check:
        _check_drift(energy(state, source), energy(out, source), n_steps)
    return out


def trajectory(state: PhaseSpaceState, source: SourceConfig, dt: float, n_steps: int):
    """Yield ``(t, H, max|div p + rho|)`` for steps 0..n_steps of the
    kick-drift-kick leapfrog that ``step_leapfrog`` runs, row by row.

    Row 0 is the input state; no state or row is kept. Sources must be
    static, as for ``step_leapfrog``.

    Raises
    ------
    ValueError
        On a ``dt`` that is not finite and positive or a negative
        ``n_steps`` (at the first row).
    UnstableStep
        At the first row whose H differs from the initial H by more than
        1% of |H0|.
    """
    _check_step_args(dt, n_steps)
    h0 = energy(state, source)
    t = float(state.time)
    yield t, h0, constraint_residual(state, source).max_abs()
    qx, qy, px, py = _arrays(state)
    a = state.grid.spacing
    rho = source.rho.values
    steps = _kick_drift_kick(qx, qy, px, py, source, dt, n_steps, a)
    for step, b in enumerate(steps, start=1):
        t += dt  # the time step_leapfrog gives, one step at a time
        h = _energy(qx, qy, px, py, b, source)
        _check_drift(h0, h, step)
        yield t, h, float(np.max(np.abs(_divergence_values(px, py, a) + rho)))


def _check_step_args(dt: float, n_steps: int) -> None:
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")


def _arrays(state: PhaseSpaceState):
    """Fresh copies of ``(qx, qy, px, py)`` for the stepper to mutate."""
    q, p = state.q, state.p
    return q.x.values.copy(), q.y.values.copy(), p.x.values.copy(), p.y.values.copy()


def _kick_drift_kick(
    qx, qy, px, py, source: SourceConfig, dt: float, n_steps: int, a: float
):
    """The leapfrog loop: ``n_steps`` kick-drift-kick steps in place on
    the four arrays, one force per step (the end-of-step force is the
    next step's first kick). Yields the curl ``b`` of q after each
    step."""
    fx, fy, _b = _force(qx, qy, source, a)
    for _ in range(n_steps):
        px += 0.5 * dt * fx
        py += 0.5 * dt * fy
        qx += dt * px
        qy += dt * py
        fx, fy, b = _force(qx, qy, source, a)
        px += 0.5 * dt * fx
        py += 0.5 * dt * fy
        yield b


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
