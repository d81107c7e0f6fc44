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
from itertools import islice, repeat, tee

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
    _check_source(state, source)
    q, p = state.q, state.p
    b = curl_z(q).values
    quad = 0.5 * float(np.sum(p.x.values**2 + p.y.values**2 + b**2))
    coupling = float(
        np.sum(source.jx.values * q.x.values) + np.sum(source.jy.values * q.y.values)
    )
    return quad - coupling


def _check_source(state: PhaseSpaceState, source: SourceConfig) -> None:
    if source.grid != state.grid:
        raise ValueError(f"source lives on {source.grid}, the state on {state.grid}")


def _force(q, source: SourceConfig, a: float, stencils, b=None):
    """Momentum equations on the stacked ``q = (qx, qy)``: with
    ``b = dbar_x(qy) - dbar_y(qx)``, ``dp_x = -dbar_y(b) + Jx`` and
    ``dp_y = +dbar_x(b) + Jy``. Returns the stacked force and ``b``,
    written into ``b`` if one is given."""
    curl, force, _div = stencils
    dq = _pair(q, curl, a)  # (dbar_y qx, dbar_x qy)
    b = np.subtract(dq[1], dq[0], out=b)
    del dq  # before the force is made: one stack of temporaries at a time
    f = _pair(b, force, a)
    # Jx - dbar_y(b) has the bits of -dbar_y(b) + Jx: negation is exact
    np.subtract(source.jx.values, f[0], out=f[0])
    f[1] += source.jy.values
    return f, b


def eom_rhs(
    state: PhaseSpaceState, source: SourceConfig
) -> tuple[VectorField, VectorField]:
    """Hamilton equations: dq_s = p_s, dp_x = -dbar_y(b) + Jx,
    dp_y = +dbar_x(b) + Jy."""
    _check_source(state, source)
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
    _check_source(state, source)
    grid = state.grid
    q, p, stencils = _stack(state.q), _stack(state.p), _stencils(grid.n)
    in_place = repeat((q, p, None), n_steps)
    for _ in _kick_drift_kick(q, p, source, dt, grid.spacing, stencils, in_place):
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

    Row 0 is the input state. The steps run in blocks (see
    ``_block_sizes``): each step writes its q, p and curl b into the
    block's slots, then one numpy call per stage prices H and the Gauss
    residual of every step in the block, with the bits of ``energy`` and
    ``constraint_residual``. At most one block is kept. Sources must be
    static, as for ``step_leapfrog``.

    Raises
    ------
    ValueError
        On a ``dt`` that is not finite and positive, a negative
        ``n_steps`` or a source on another grid (at the first row).
    UnstableStep
        At the first row whose H differs from the initial H by more than
        1% of |H0|.
    """
    _check_step_args(dt, n_steps)
    _check_source(state, source)
    h0 = energy(state, source)
    t = float(state.time)
    yield t, h0, constraint_residual(state, source).max_abs()
    grid = state.grid
    n, a, stencils = grid.n, grid.spacing, _stencils(grid.n)
    cap = max(1, _BLOCK_SITES // n**2)
    slots = max(1, min(cap, n_steps))
    q, p, b = np.empty((slots, 2, n, n)), np.empty((slots, 2, n, n)), np.empty((slots, n, n))
    # the start state sits in the last slot: the first step reads it and
    # writes slot 0, in place when that is the only slot
    q[-1, 0], q[-1, 1] = state.q.x.values, state.q.y.values
    p[-1, 0], p[-1, 1] = state.p.x.values, state.p.y.values
    blocks, block_slots = tee(_block_sizes(n_steps, cap))
    into = ((q[j], p[j], b[j]) for k in block_slots for j in range(k))
    steps = _kick_drift_kick(q[-1], p[-1], source, dt, a, stencils, into)
    step = 0
    for k in blocks:
        for _ in islice(steps, k):
            pass
        hs = _block_energies(q[:k], p[:k], b[:k], source)
        residuals = _block_gauss_residuals(p[:k], source.rho.values, a, stencils[2])
        for h, residual in zip(hs.tolist(), residuals.tolist()):
            step += 1
            t += dt  # the time step_leapfrog gives, one step at a time
            _check_drift(h0, h, step)
            yield t, h, residual


# The most sites (steps x N^2) that one block of ``trajectory`` holds.
# A block's H and Gauss residual take a fixed number of numpy calls, so
# the longer the block the less call overhead per step; the cap keeps
# the block's buffers (about 40 bytes a site) small enough that peak
# RSS does not move. CPU time per step with per-row observables -> with
# blocks, medians of 7 alternating runs on 2 shared cores: N = 16 (16
# steps a block) 21.5 -> 12.8 us, N = 48 (one step) 46.2 -> 46.1 us,
# N = 256 506 -> 506 us. Caps of 2^13 and 2^14 gave no faster step at
# N = 16, and 0.4 and 1.3 MiB more peak RSS.
_BLOCK_SITES = 2**12


def _block_sizes(n_steps: int, cap: int):
    """Steps per block: 1, 2, 4, ... up to ``cap``, the last block cut to
    the steps left. A block is at most one step longer than all blocks
    before it, so a run whose drift check fails at step s has taken fewer
    than 2s steps: an unstable ``dt`` stops before anything overflows."""
    k = 1
    while n_steps > 0:
        size = min(k, n_steps)
        yield size
        n_steps -= size
        k = min(2 * k, cap)


def _block_energies(q, p, b, source: SourceConfig):
    """``energy`` of each step of a block, from its stacked (k, 2, N, N)
    q and p and its (k, N, N) curls b, which this spends: each sum runs
    along a contiguous row, the pairwise sum of ``energy``'s flat one."""
    k = len(b)
    sq = np.square(p)
    sq[:, 0] += sq[:, 1]
    sq[:, 0] += np.square(b, out=b)
    quad = np.add.reduce(sq[:, 0].reshape(k, -1), axis=-1)
    np.multiply(q[:, 0], source.jx.values, out=sq[:, 0])
    np.multiply(q[:, 1], source.jy.values, out=sq[:, 1])
    coupling = np.add.reduce(sq.reshape(k, 2, -1), axis=-1)
    return 0.5 * quad - (coupling[:, 0] + coupling[:, 1])


def _block_gauss_residuals(p, rho, a: float, stencil):
    """``max|dbar_x px + dbar_y py + rho|`` of each step of a block, from
    its stacked (k, 2, N, N) p; ``stencil`` is the divergence's."""
    dp = _pair(p, stencil, a)
    div = dp[:, 0]
    div += dp[:, 1]
    div += rho
    np.abs(div, out=div)
    return np.maximum.reduce(div.reshape(len(div), -1), axis=-1)


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
    (of one N x N ``v`` twice) along the stencil's two directions, for a
    (2, N, N) stack or a (k, 2, N, N) block of them: one flat-index take
    ``(v[plus] - v[minus]) / (2a)``, or with no gather two of ``grid``'s
    slice stencils per stack. Either way, the slice stencil's bits."""
    directions, gather = stencil
    if gather is None:
        out = np.empty(v.shape if v.ndim > 2 else (2, *v.shape))
        for stack, out_stack in zip(v, out) if v.ndim == 4 else [(v, out)]:
            for k, direction in enumerate(directions):
                component = stack if stack.ndim == 2 else stack[k]
                _dbar_values(component, direction, a, out=out_stack[k])
        return out
    # (..., plus/minus, component, row, column)
    g = v.reshape(*v.shape[:-3], -1).take(gather, axis=-1)
    out = g[..., 0, :, :, :] - g[..., 1, :, :, :]
    out /= 2.0 * a
    return out


def _kick_drift_kick(q, p, source, dt: float, a: float, stencils, slots):
    """The leapfrog loop: one kick-drift-kick step from the stacked
    (2, N, N) q and p into each ``(q, p, b)`` of ``slots`` (the curl b
    into a new array when b is None), each step starting from the slot
    before it. A slot may be the state it steps from: the step then runs
    in place. One force per step: the end-of-step force, scaled once to
    the half-kick ``0.5 * dt * f``, is the next step's first kick.
    Yields after each step."""
    kick = _force(q, source, a, stencils)[0]
    kick *= 0.5 * dt
    for q_next, p_next, b in slots:
        np.add(p, kick, out=p_next)
        np.add(q, dt * p_next, out=q_next)
        kick = _force(q_next, source, a, stencils, b)[0]
        kick *= 0.5 * dt
        p_next += kick
        q, p = q_next, p_next
        yield


def _check_drift(h0: float, h1: float, n_steps: int) -> None:
    """Raise UnstableStep unless |h1 - h0| <= 1% of |h0|; a non-finite
    h1 counts as drift."""
    if not abs(h1 - h0) <= 0.01 * max(abs(h0), 1e-30):
        raise UnstableStep(
            f"energy drifted from {h0:.6e} to {h1:.6e} over {n_steps} steps"
        )


def constraint_residual(state: PhaseSpaceState, source: SourceConfig) -> ScalarField:
    """Site-local Gauss-law residual ``divergence(p) + rho``."""
    _check_source(state, source)
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
