"""Periodic N x N grid geometry, field containers, and the symmetric
discrete calculus.

Index convention, used everywhere in this package: the first index ``i``
is the row (y direction), the second index ``j`` is the column
(x direction). Both wrap modulo N.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "ScalarField",
    "VectorField",
    "dbar",
    "curl_z",
    "divergence",
    "sum_by_parts_residual",
]

# entries per row block of the blocked reductions (512 KiB of doubles)
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the periodic square lattice.

    Parameters
    ----------
    n_sites_per_side : int
        Number of sites N per side; N >= 3 so the symmetric derivative
        sees two distinct neighbours.
    spacing : float
        Lattice spacing a (length units).
    """

    n_sites_per_side: int
    spacing: float = 1.0

    def __post_init__(self):
        if self.n_sites_per_side < 3:
            raise ValueError(
                f"need at least 3 sites per side, got {self.n_sites_per_side}"
            )
        if not (np.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError(f"spacing must be finite and positive, got {self.spacing}")

    @property
    def n(self) -> int:
        return self.n_sites_per_side

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_sites_per_side, self.n_sites_per_side)

    def wrap(self, i: int, j: int) -> tuple[int, int]:
        """Reduce a site index modulo N in both directions."""
        n = self.n_sites_per_side
        return (i % n, j % n)


def _owned(values: np.ndarray) -> np.ndarray:
    """``values`` made read-only, copied first if it is a view of memory
    that can still be written, so that no one can change it through
    another array."""
    if values.base is not None and np.asarray(values.base).flags.writeable:
        values = values.copy()
    values.flags.writeable = False
    return values


@contextmanager
def _open_replacing(path, mode: str, **kwargs):
    """``open(path, mode, **kwargs)`` with no partial file at ``path``:
    the bytes go to ``.<name>.<pid>.tmp`` beside it, which replaces
    ``path`` once the block ends and is removed on any exception; an
    OSError about that file names ``path``. The one owner of the
    no-partial-file rule."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        if isinstance(exc, OSError) and exc.filename == tmp:
            exc.filename = path  # report the target, not the file beside it
        with suppress(OSError):
            os.remove(tmp)
        raise


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real-valued function on the grid, stored dense row-major. The
    field takes ownership of ``values`` and makes it read-only; a view of
    a writeable array is copied first."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise ValueError(f"expected shape {self.grid.shape}, got {values.shape}")
        object.__setattr__(self, "values", _owned(values))

    @classmethod
    def zeros(cls, grid: GridSpec) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def constant(cls, grid: GridSpec, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    def __add__(self, other: "ScalarField") -> "ScalarField":
        _check_same_grid(self, other)
        return ScalarField(self.grid, self.values + other.values)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        _check_same_grid(self, other)
        return ScalarField(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "ScalarField":
        return ScalarField(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "ScalarField":
        return ScalarField(self.grid, -self.values)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True, eq=False)
class VectorField:
    """Pair of scalar fields (x and y components) on a shared grid."""

    x: ScalarField
    y: ScalarField

    def __post_init__(self):
        if self.x.grid != self.y.grid:
            raise ValueError("components must share one grid")

    @property
    def grid(self) -> GridSpec:
        return self.x.grid

    @classmethod
    def zeros(cls, grid: GridSpec) -> "VectorField":
        return cls(ScalarField.zeros(grid), ScalarField.zeros(grid))

    @classmethod
    def from_arrays(cls, grid: GridSpec, x, y) -> "VectorField":
        return cls(ScalarField(grid, x), ScalarField(grid, y))

    def component(self, name: str) -> ScalarField:
        if name == "x":
            return self.x
        if name == "y":
            return self.y
        raise ValueError(f"unknown component {name!r}")

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "VectorField":
        return VectorField(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "VectorField":
        return VectorField(-self.x, -self.y)

    def max_abs(self) -> float:
        return max(self.x.max_abs(), self.y.max_abs())


def _check_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


def _dbar_values(
    values: np.ndarray, direction: str, spacing: float, out: np.ndarray | None = None
) -> np.ndarray:
    """``(v[j+1] - v[j-1]) / (2a)`` along one axis, indices wrapped mod N,
    into ``out`` if given: the interior by one slice subtraction, the two
    wrapped edges by one each, then one in-place divide. This is the
    arithmetic of ``(np.roll(v, -1) - np.roll(v, 1)) / (2a)`` without the
    two copies."""
    out = np.empty_like(values) if out is None else out
    # x: neighbours along columns (axis 1); y: along rows (axis 0)
    if direction == "y":
        return _dbar_y_rows(values, 0, values.shape[0], spacing, out)
    if direction != "x":
        raise ValueError(f"direction must be 'x' or 'y', got {direction!r}")
    np.subtract(values[:, 2:], values[:, :-2], out=out[:, 1:-1])
    np.subtract(values[:, 1], values[:, -1], out=out[:, 0])
    np.subtract(values[:, 0], values[:, -2], out=out[:, -1])
    out /= 2.0 * spacing
    return out


def _dbar_y_rows(
    values: np.ndarray, i0: int, i1: int, spacing: float, out: np.ndarray
) -> np.ndarray:
    """Rows ``i0:i1`` of ``_dbar_values(values, "y", spacing)`` into
    ``out``, entry for entry the same arithmetic: the interior rows by one
    slice subtraction reading one halo row on each side, rows 0 and N-1
    from their wrapped neighbours, then one in-place divide."""
    n = values.shape[0]
    lo, hi = max(i0, 1), min(i1, n - 1)
    if lo < hi:
        np.subtract(values[lo + 1 : hi + 1], values[lo - 1 : hi - 1], out=out[lo - i0 : hi - i0])
    if i0 == 0:
        np.subtract(values[1], values[-1], out=out[0])
    if i1 == n:
        np.subtract(values[0], values[-2], out=out[-1])
    out /= 2.0 * spacing
    return out


def _block_rows(n: int, even: bool = False) -> int:
    """Rows per block of an N-row, N-column array in the blocked
    reductions: about ``_BLOCK_ENTRIES`` entries, so each block temporary
    stays in a core's L2 cache, and at most N. With ``even`` (at even N)
    the count is even, so every block starts on an even row."""
    rows = max(1, _BLOCK_ENTRIES // n)
    return min(n, max(2, rows - rows % 2) if even else rows)


def dbar(field: ScalarField, direction: str) -> ScalarField:
    """Symmetric discrete derivative.

    ``dbar(f, "x")[i, j] = (f[i, j+1] - f[i, j-1]) / (2a)`` and likewise
    with rows for the y direction, indices wrapped mod N. The stencil is
    linear, commutes with itself across directions, and satisfies the
    symmetric product rule; those identities are exercised in the tests.
    """
    return ScalarField(
        field.grid, _dbar_values(field.values, direction, field.grid.spacing)
    )


def curl_z(field: VectorField) -> ScalarField:
    """z component of the discrete curl: ``dbar_x(v_y) - dbar_y(v_x)``.

    Applied to the gauge potential this is the magnetic field of the
    model; it vanishes identically on pure-gauge configurations.
    """
    a = field.grid.spacing
    b = _dbar_values(field.y.values, "x", a) - _dbar_values(field.x.values, "y", a)
    return ScalarField(field.grid, b)


def divergence(field: VectorField) -> ScalarField:
    """Discrete divergence ``dbar_x(v_x) + dbar_y(v_y)``."""
    a = field.grid.spacing
    out = _dbar_values(field.x.values, "x", a)
    out += _dbar_values(field.y.values, "y", a)
    return ScalarField(field.grid, out)


def sum_by_parts_residual(f: ScalarField, g: ScalarField, direction: str) -> float:
    """Residual of the periodic summation-by-parts identity.

    Returns ``sum_ij [ g * dbar(f) + f * dbar(g) ]`` which is zero on a
    periodic grid; exposed as a test oracle for the discrete
    delta-derivative identities.
    """
    _check_same_grid(f, g)
    df = _dbar_values(f.values, direction, f.grid.spacing)
    dg = _dbar_values(g.values, direction, g.grid.spacing)
    return float(np.sum(g.values * df + f.values * dg))
