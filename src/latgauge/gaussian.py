"""Gaussian ground states of the lattice model: vacuum and static-source
ground energies and the classical Coulomb momentum background.

The kernel table D is the one representation of the Coulomb problem:
backgrounds and sector energies are read off it at the charged sites,
and their mode-space forms survive only as test oracles. A sector's
Gauss law needs no field of its own: ``gauss_bound`` proves it from the
one unit-charge background of the table, ``dbar D``. hbar = 1 throughout.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .grid import (
    GridSpec,
    ScalarField,
    VectorField,
    _block_rows,
    _dbar_values,
    _dbar_y_rows,
    dbar,
)
from .spectral import KernelTable, wave_number_table

__all__ = [
    "NonNeutralWarning",
    "ground_energy",
    "coulomb_energy_shift",
    "sector_energy",
    "coulomb_momentum",
    "gauss_bound",
    "wrap_phase",
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
    overflowed ``energy * tau``, raises ValueError.

    Every result y is a fixed point, bit for bit: ``wrap_phase(y) == y``.
    The formula is y = pi - r with r = (pi - phi) mod 2 pi in [0, 2 pi).
    If r >= pi/2, pi - r is exact (Sterbenz), so pi - y = r and the wrap
    of y is y again. If r < pi/2, then y lies in (pi/2, pi], so pi - y
    is exact and pi - (pi - y) = y. The one other case is r rounding up
    to 2 pi, as for a phi one ulp above pi, which gives -pi; it is
    returned as pi.
    """
    if not np.isfinite(phi):
        raise ValueError(f"phase {phi} is not finite")
    y = float(np.pi - (np.pi - phi) % (2.0 * np.pi))
    return np.pi if y == -np.pi else y


def _zero_mode_means(values: np.ndarray) -> np.ndarray:
    """The means of a density that fix its part on the |k| = 0 modes,
    indexed ``[i % k, j % k]``: k = 1 at odd N, where that part is the
    uniform mode, so the spatial mean; k = 2 at even N, where the four
    sign patterns ``(-1)^(a i + b j)``, a, b in {0, 1}, span exactly the
    functions that are constant on each of the four parity sublattices,
    so the part is the mean over the sublattice of each site."""
    n = values.shape[0]
    if n % 2:
        return values.mean().reshape(1, 1)
    return values.reshape(n // 2, 2, n // 2, 2).mean(axis=(0, 2))


def gauss_residual(p: VectorField, rho: ScalarField) -> float:
    """Infinity norm of div p + rho restricted to the solvable sector,
    the residual every background constructor is held to.

    Evaluated over row blocks of about ``_BLOCK_ENTRIES`` entries, so the
    only N^2 arrays are the ones passed in. Each entry is the literal
    ``(rho - excluded) + (dbar_x p_x + dbar_y p_y)``, the y stencil
    reading one wrapped halo row. The excluded part is
    ``_zero_mode_means``: at odd N the mean, subtracted as a scalar, and
    at even N the 2x2 sublattice means repeated along a block's rows. So
    the maximum is the whole-array one, bit for bit; a NaN anywhere gives
    NaN."""
    grid = p.grid
    if rho.grid.n != grid.n:
        raise ValueError("rho and p must live on grids of one size")
    n, a = grid.n, grid.spacing
    rho_v, px, py = rho.values, p.x.values, p.y.values
    even = n % 2 == 0
    # a scalar at odd N; at even N the two distinct rows of the tile
    means = _zero_mode_means(rho_v)
    excluded = np.tile(means, (1, n // 2)) if even else means[0, 0]
    rows = _block_rows(n, even)
    div, res = np.empty((rows, n)), np.empty((rows, n))
    peaks = []
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        d, r = div[: i1 - i0], res[: i1 - i0]
        _dbar_values(px[i0:i1], "x", a, out=d)
        d += _dbar_y_rows(py, i0, i1, a, out=r)
        if even:
            np.subtract(rho_v[i0:i1].reshape(-1, 2, n), excluded, out=r.reshape(-1, 2, n))
        else:
            np.subtract(rho_v[i0:i1], excluded, out=r)
        r += d
        peaks.append(np.max(np.abs(r, out=r)))
    # max() alone would pass over a NaN that is not first
    return math.nan if any(map(math.isnan, peaks)) else float(max(peaks))


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
    rows, cols = np.nonzero(rho.values)
    return sector_energy(rows, cols, rho.values[rows, cols], kernels)


def sector_energy(rows, cols, charges, kernels: KernelTable) -> float:
    """``1/2 sum_{s,t} q_s q_t D(s - t)`` over charges ``q`` at the sites
    ``(rows[s], cols[s])``, in row-major site order: the O(k^2) arithmetic
    of ``coulomb_energy_shift``, shared so a sector read off its occupied
    sites gets the same bits as one read off its dense density."""
    n = kernels.grid.n
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
    sites = np.nonzero(rho.values)
    charges = rho.values[sites]
    excluded = _zero_mode_means(rho.values)
    if np.max(np.abs(excluded)) > 1e-12 * max(1.0, np.max(np.abs(charges), initial=0.0)):
        warnings.warn(
            NonNeutralWarning(
                "charge density has components on the excluded zero modes "
                f"(total charge {rho.values.sum():.3g}); the background solves "
                "the constraint only up to those components"
            ),
            stacklevel=2,
        )
    # one rolled copy per charge, scaled and summed in place
    phi = np.zeros(grid.shape)
    for site, q in zip(zip(*sites), charges):
        term = np.roll(kernels.d_values, site, axis=(0, 1))
        if q != 1.0:
            term *= q
        phi += term
    phi = ScalarField(grid, phi)
    return VectorField(dbar(phi, "x"), dbar(phi, "y"))


def _unit_proof(kernels: KernelTable) -> tuple[float, float]:
    """``(r0, max|P|)`` of the unit-charge background ``P = dbar D``, which
    is ``coulomb_momentum(delta_0)`` read straight off the table, with
    ``r0 = gauss_residual(P, delta_0)``; no delta field is scanned and no
    ``NonNeutralWarning`` raised. P itself is dropped. ``gauss_residual``
    evaluates r0 over row blocks with the literal per-entry arithmetic, so
    it is the whole-array value; a NaN in P makes r0 NaN."""
    grid = kernels.grid
    d = ScalarField(grid, kernels.d_values)  # the read-only table, not a copy
    p = VectorField(dbar(d, "x"), dbar(d, "y"))
    unit = np.zeros(grid.shape)
    unit[0, 0] = 1.0
    p_max = max(max(c.values.max(), -c.values.min()) for c in (p.x, p.y))
    return gauss_residual(p, ScalarField(grid, unit)), float(p_max)


def gauss_bound(charges, kernels: KernelTable) -> float:
    """Proven bound on the Gauss residual of every field state of the
    sector with point charges ``charges``: its background and that
    background displaced by single-link dressings of +-2a.

    ``coulomb_momentum`` and ``gauss_residual`` are linear and commute
    with lattice translations, so with the unit-charge background
    ``P = dbar D`` the background of charges q_s at sites s is
    ``sum_s q_s roll(P, s)`` and its residual field is the same sum of
    rolled unit residual fields: at most ``Q r0`` with
    ``Q = sum_s |q_s|``. A dressing whose commutators with the Gauss
    crosses cancel the charge move (``algebra.check_dressing``) leaves
    that residual unchanged. Floating point adds the rounding allowance

        8 eps Q^2 (D(0)/a^2 + (max|P| + 2a)/a):

    summing the k rolled tables (k <= Q for integer charges), each at
    most D(0) (a kernel with nonnegative mode weights peaks at the
    origin), errs by k eps Q D(0) and the second difference
    ``div dbar`` scales that by 2/a^2; the
    differences of ``dbar``, the dressing's add to a link of size at most
    Q max|P| + 2a and the divergence round each entry they touch by a few
    eps, scaled by the stencil's 2/a; the computed r0 carries the same
    terms for Q = 1.

    Raises
    ------
    AssertionError
        When the bound exceeds ``CONSTRAINT_TOL``, so no state of the
        sector can be trusted to solve the Gauss law.
    """
    r0, p_max = _unit_proof(kernels)
    a = kernels.grid.spacing
    q = float(np.sum(np.abs(charges)))
    # a is never squared, so a tiny spacing cannot underflow a^2 to 0
    allowance = 8.0 * np.finfo(float).eps * q * q * (kernels.d(0, 0) / a + p_max + 2.0 * a) / a
    bound = q * r0 + allowance
    if not bound <= CONSTRAINT_TOL:
        raise AssertionError(f"background violates the Gauss law by up to {bound:.2e}")
    return bound
