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

from .grid import GridSpec, ScalarField, VectorField, _dbar_values, curl_z, dbar, divergence

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


def _force(q, source: SourceConfig, a: float, stencils):
    """Momentum equations on the stacked ``q = (qx, qy)``: with
    ``b = dbar_x(qy) - dbar_y(qx)``, ``dp_x = -dbar_y(b) + Jx`` and
    ``dp_y = +dbar_x(b) + Jy``. Returns the stacked force and ``b``."""
    curl, force, _div = stencils
    dq = _pair(q, curl, a)  # (dbar_y qx, dbar_x qy)
    b = dq[1] - dq[0]
    del dq  # before the force is made: one stack of temporaries at a time
    f = _pair(b, force, a)
    f[0] *= -1.0  # an exact sign flip, so -dbar_y(b) + Jx keeps its bits
    f[0] += source.jx.values
    f[1] += source.jy.values
    return f, b


def eom_rhs(
    state: PhaseSpaceState, source: SourceConfig
) -> tuple[VectorField, VectorField]:
    """Hamilton equations: dq_s = p_s, dp_x = -dbar_y(b) + Jx,
    dp_y = +dbar_x(b) + Jy."""
    f, _b = _force(_stack(state.q), source, state.grid.spacing, _stencils(state.grid.n))
    f.flags.writeable = False
    return state.p, VectorField.from_arrays(state.grid, *f)


def step_leapfrog(
    state: PhaseSpaceState,
    source: SourceConfig,
    dt: float,
    n_steps: int,
    energy_check: bool = True,
) -> PhaseSpaceState:
    """Advance with kick-drift-kick leapfrog.

    Sources must be static (J may be nonzero but time independent).
    ``trajectory``, the path of ``latgauge dynamics``, runs the same
    loop and force, and yields a row after every step.

    Raises
    ------
    UnstableStep
        If the final energy differs from the initial energy by more than
        1% of |H0|, the signature of dt exceeding the stability limit.
    """
    _check_step_args(dt, n_steps)
    grid = state.grid
    q, p, stencils = _stack(state.q), _stack(state.p), _stencils(grid.n)
    for _b in _kick_drift_kick(q, p, source, dt, n_steps, grid.spacing, stencils):
        pass
    q.flags.writeable = p.flags.writeable = False  # the fields are views
    out = PhaseSpaceState(
        VectorField.from_arrays(grid, *q),
        VectorField.from_arrays(grid, *p),
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
    q, p = _stack(state.q), _stack(state.p)
    a, stencils = state.grid.spacing, _stencils(state.grid.n)
    steps = _kick_drift_kick(q, p, source, dt, n_steps, a, stencils)
    for step, b in enumerate(steps, start=1):
        t += dt  # the time step_leapfrog gives, one step at a time
        h = _energy(*q, *p, b, source)
        _check_drift(h0, h, step)
        yield t, h, _max_gauss_residual(p, source.rho.values, a, stencils[2])


def _max_gauss_residual(p, rho, a: float, stencil) -> float:
    """``max|dbar_x px + dbar_y py + rho|`` of the stacked p, ``stencil``
    the divergence's; no array outlives the call."""
    dp = _pair(p, stencil, a)
    dp[0] += dp[1]
    dp[0] += rho
    return float(np.max(np.abs(dp[0])))


def _check_step_args(dt: float, n_steps: int) -> None:
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")


def _stack(field: VectorField):
    """A fresh (2, N, N) stack of a field's components, for the stepper
    to mutate."""
    return np.array((field.x.values, field.y.values))


# Up to this N a step is dominated by numpy call overhead, which one
# gather per stencil cuts (by about 30% at N = 16). From about N = 48 on
# the arrays set the cost and gathers lose to the slice stencils (1.6x
# the time per step at N = 256).
_GATHER_MAX_N = 32


def _stencils(n: int):
    """``(directions, gather)`` of the three stencils: ``curl`` takes
    ``(dbar_y, dbar_x)`` of a (2, N, N) stack's components, ``force``
    that pair of one N x N array, ``div`` ``(dbar_x, dbar_y)`` of a
    stack's. ``gather`` is a ``(plus, minus)`` pair of flat indices,
    wrapped mod N, or None above ``_GATHER_MAX_N``."""
    if n > _GATHER_MAX_N:
        return ("yx", None), ("yx", None), ("xy", None)
    r = np.arange(n)
    steps = (r + np.array([[1], [-1]])) % n
    pm = np.empty((2, 2, n, n), dtype=np.intp)  # (plus/minus, along y/x, row, column)
    pm[:, 0], pm[:, 1] = steps[:, :, None] * n + r, r[:, None] * n + steps[:, None, :]
    shift = np.array([0, n * n]).reshape(2, 1, 1)  # into a stack's second component
    return ("yx", pm + shift), ("yx", pm), ("xy", pm[:, ::-1] + shift)


def _pair(v, stencil, a: float):
    """The stacked symmetric derivatives of the two components of ``v``
    (of one N x N ``v`` twice) along the stencil's two directions: one
    flat-index gather ``(v[plus] - v[minus]) / (2a)``, or with no gather
    two of ``grid``'s slice stencils. Either way, the slice stencil's bits."""
    directions, gather = stencil
    if gather is None:
        out = np.empty((2, *v.shape[-2:]))
        for k, direction in enumerate(directions):
            _dbar_values(v if v.ndim == 2 else v[k], direction, a, out=out[k])
        return out
    out = v.ravel()[gather[0]] - v.ravel()[gather[1]]
    out /= 2.0 * a
    return out


def _kick_drift_kick(q, p, source, dt: float, n_steps: int, a: float, stencils):
    """The leapfrog loop: ``n_steps`` kick-drift-kick steps in place on
    the stacked (2, N, N) q and p, one force per step (the end-of-step
    force, scaled once to the half-kick ``0.5 * dt * f``, is the next
    step's first kick). Yields the curl ``b`` of q after each step."""
    kick = _force(q, source, a, stencils)[0]
    kick *= 0.5 * dt
    for _ in range(n_steps):
        p += kick
        q += dt * p
        kick, b = _force(q, source, a, stencils)
        kick *= 0.5 * dt
        p += kick
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
