"""Discrete Fourier transform in the lattice convention, discrete wave
vectors, the real-space kernels G and D, and the D table with its cache.

Conventions: forward transform with unit normalization,
``f~[alpha, beta] = sum_ij f[i,j] exp(-i 2pi (i alpha + j beta)/N)``,
inverse with 1/N^2. Mode index alpha pairs with rows (y), beta with
columns (x), so the wave vector components are
``kx = sin(2 pi beta / N)/a`` and ``ky = sin(2 pi alpha / N)/a``.

Every transform and mode sum runs on the numpy FFT; the direct sums
are oracles, in the tests and in the DFT acceptance criterion.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from . import grid as grid_module
from .grid import GridSpec, ScalarField, _block_rows, _owned

__all__ = [
    "NonRealResult",
    "FourierField",
    "KernelTable",
    "dft_forward",
    "dft_inverse",
    "wave_vector",
    "wave_number_table",
    "kernel_values",
    "build_kernels",
    "zero_mode_count",
    "save_kernels",
    "load_kernels",
    "load_or_build_kernels",
]

_CACHE_MAGIC = b"LGK2"
_HEADER = "<4sIdB"
_HEADER_SIZE = struct.calcsize(_HEADER)
_ZERO_TOL = 1e-12
_IMAG_TOL = 1e-10  # largest imaginary residue of an inverse transform, relative


class NonRealResult(Exception):
    """Inverse transform produced a non-negligible imaginary part,
    signalling a conjugate-symmetry violation upstream."""


@dataclass(frozen=True, eq=False)
class FourierField:
    """Complex mode array indexed by (alpha, beta); the field takes
    ownership of ``modes`` and makes it read-only (a view of a writeable
    array is copied first)."""

    grid: GridSpec
    modes: np.ndarray

    def __post_init__(self):
        modes = np.asarray(self.modes, dtype=complex)
        if modes.shape != self.grid.shape:
            raise ValueError(f"expected shape {self.grid.shape}, got {modes.shape}")
        object.__setattr__(self, "modes", _owned(modes))


def dft_forward(field: ScalarField) -> FourierField:
    """Forward transform with unit normalization, by the numpy FFT, which
    implements the identical convention."""
    return FourierField(field.grid, np.fft.fft2(field.values))


def dft_inverse(modes: FourierField) -> ScalarField:
    """Inverse transform with 1/N^2 normalization, by the numpy FFT.

    Raises
    ------
    NonRealResult
        If the imaginary residue exceeds 1e-10 (``_IMAG_TOL``) times the mode
        norm; small residue is discarded.
    """
    values = np.fft.ifft2(modes.modes)
    scale = np.max(np.abs(modes.modes))
    imag = np.max(np.abs(values.imag))
    if scale > 0 and imag > _IMAG_TOL * scale:
        raise NonRealResult(f"imaginary residue {imag:.3e} exceeds {_IMAG_TOL:.1e} * {scale:.3e}")
    return ScalarField(modes.grid, values.real)


def wave_vector(grid: GridSpec, alpha: int, beta: int) -> tuple[float, float]:
    """Discrete lattice wave vector ``(kx, ky)`` of mode (alpha, beta)."""
    n, a = grid.n, grid.spacing
    if not (0 <= alpha < n and 0 <= beta < n):
        raise ValueError(f"mode ({alpha}, {beta}) outside [0, {n})^2")
    return (
        float(np.sin(2.0 * np.pi * beta / n) / a),
        float(np.sin(2.0 * np.pi * alpha / n) / a),
    )


def wave_number_table(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only arrays (kx, ky, |k|) over all modes, indexed
    [alpha, beta]; kx and ky are broadcasts of the 1-D sine table."""
    n, a = grid.n, grid.spacing
    s = np.sin(2.0 * np.pi * np.arange(n) / n) / a
    kx = np.broadcast_to(s, grid.shape)  # from beta
    ky = np.broadcast_to(s[:, np.newaxis], grid.shape)  # from alpha
    kabs = np.hypot(kx, ky)
    kabs.flags.writeable = False
    return kx, ky, kabs


def zero_mode_count(grid: GridSpec) -> int:
    """Number of modes with |k| = 0: one for odd N, four for even N."""
    return 1 if grid.n % 2 else 4


@dataclass(frozen=True, eq=False)
class KernelTable:
    """Real-space Coulomb kernel D (1/|k|^2 weights) with the zero modes
    excluded from its defining sum.

    ``d_values[di, dj]`` is D evaluated at site offset (di, dj); the
    table is real, even under offset negation mod N, and translation
    invariant by construction. The table takes ownership of the array
    and makes it read-only (a view of a writeable array is copied first).
    """

    grid: GridSpec
    d_values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d_values", _owned(self.d_values))

    def d(self, di: int, dj: int) -> float:
        i, j = self.grid.wrap(di, dj)
        return float(self.d_values[i, j])


def _mode_weights(grid: GridSpec, power: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero-mode-excluded weights ``1/|k|^power`` over all modes, and the
    mask ``kept`` of the modes with |k| > 0. The one place that decides
    which modes are excluded."""
    *_, kabs = wave_number_table(grid)
    kept = kabs > _ZERO_TOL / grid.spacing
    safe = np.where(kept, kabs, 1.0)
    return np.where(kept, 1.0 / safe**power, 0.0), kept


def _assert_table(values: np.ndarray) -> None:
    """A kernel table is even under offset negation, and positive at
    offset 0, where it is the sum of the positive weights.

    One pass over row blocks of about ``_BLOCK_ENTRIES`` entries, so no
    N^2 temporary is made. The defect ``|D(-i, -j) - D(i, j)|`` is taken
    with that literal arithmetic on rows 0 to N // 2, which hold one
    offset of every pair ``(i, j), (-i, -j)``; the other offset's defect
    is its exact negation. It is held to 1e-10 of ``max(max D, -min D)``
    over all rows. Both maxima are exact, and a NaN fails the test."""
    n = values.shape[0]
    rows = _block_rows(n)
    half = n // 2 + 1
    defect = np.empty((min(rows, half), n))
    peaks, highs, lows = [], [], []
    # row i mirrors row (N - i) mod N: row 0 itself, rows 1, 2, ... the last rows reversed
    for i0, i1 in [(0, 1)] + [(i, min(i + rows, n)) for i in range(1, n, rows)]:
        here = values[i0:i1]
        highs.append(here.max())
        lows.append(here.min())
        k1 = min(i1, half)
        if i0 < k1:
            there = values[:1] if i0 == 0 else values[n - k1 + 1 : n - i0 + 1][::-1]
            here, out = here[: k1 - i0], defect[: k1 - i0]
            np.subtract(there[:, :1], here[:, :1], out=out[:, :1])
            np.subtract(there[:, :0:-1], here[:, 1:], out=out[:, 1:])
            peaks.append(np.max(np.abs(out, out=out)))
    tol = 1e-10 * max(max(highs), -min(lows))
    if not all(peak <= tol for peak in peaks):
        raise AssertionError("kernel table is not even under offset negation")
    if not values[0, 0] > 0:
        raise AssertionError(f"kernel table is {float(values[0, 0])!r} at offset 0, not positive")


def kernel_values(grid: GridSpec, power: int) -> np.ndarray:
    """Real-space kernel ``sum_{k != 0} e^{ik.x} / |k|^power / N^2`` at
    every site offset, indexed [di, dj]: G for power 1, D for power 2.

    The mode sum is evaluated as one FFT. The excluded-mode count, a
    finite positive weight on every kept mode, a real result, evenness
    under offset negation and a positive value at offset 0 are checked
    on every call, so a spacing so extreme that ``|k|^power`` overflows
    or underflows raises instead of giving a wrong table. Returns a
    read-only array.
    """
    with np.errstate(over="ignore", divide="ignore"):
        weights, kept = _mode_weights(grid, power)
    n = grid.n
    n_kept = int(np.count_nonzero(kept))
    if n * n - n_kept != zero_mode_count(grid):
        raise AssertionError(
            f"expected {zero_mode_count(grid)} zero modes, found {n * n - n_kept}"
        )
    # a kept weight is 0 where |k|^power overflowed and inf where it underflowed
    if np.count_nonzero(weights) != n_kept or not np.all(np.isfinite(weights)):
        raise ValueError(f"mode weights 1/|k|^{power} overflow or underflow at spacing {grid.spacing!r}")
    # (1/N^2) sum_ab M[a,b] e^{-i 2pi (di a + dj b)/N} = fft2(M)[di,dj]/N^2
    values = np.fft.fft2(weights) / n**2
    if np.max(np.abs(values.imag)) > 1e-10 * np.max(np.abs(values)):
        raise AssertionError("kernel sum acquired a non-real part")
    values = np.real(values).copy()
    _assert_table(values)
    values.flags.writeable = False
    return values


def build_kernels(grid: GridSpec) -> KernelTable:
    """The Coulomb kernel table: D by ``kernel_values`` with power 2."""
    return KernelTable(grid, kernel_values(grid, 2))


def _cache_key(grid: GridSpec) -> str:
    return f"kernels_n{grid.n}_a{grid.spacing!r}_exclude.lgk"


def save_kernels(table: KernelTable, path) -> None:
    """Serialize to the binary cache format: magic ``LGK2``, N (u32),
    a (f64), policy (u8), then the N^2 D values as row-major
    little-endian doubles. The bytes go through
    ``grid._open_replacing``, so a failed save leaves an older cache
    file as it was."""
    with grid_module._open_replacing(path, "wb") as fh:
        fh.write(struct.pack(_HEADER, _CACHE_MAGIC, table.grid.n, table.grid.spacing, 0))
        np.ascontiguousarray(table.d_values, dtype="<f8").tofile(fh)


def load_kernels(path) -> KernelTable:
    """Read a table written by ``save_kernels``. A bad magic (including
    an older format), an unknown policy byte, a payload shorter or longer
    than N^2 doubles and a table that is not even or not positive at
    offset 0 all raise."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER_SIZE)
        if len(header) != _HEADER_SIZE:
            raise ValueError("truncated kernel cache header")
        magic, n, a, policy = struct.unpack(_HEADER, header)
        if magic != _CACHE_MAGIC:
            raise ValueError(f"bad kernel cache magic {magic!r}")
        if policy != 0:
            raise ValueError(f"unknown zero-mode policy byte {policy}")
        grid = GridSpec(int(n), float(a))
        # sized from the file before reading, so a corrupt N allocates nothing
        payload = os.fstat(fh.fileno()).st_size - _HEADER_SIZE
        if payload < 8 * n * n:
            raise ValueError("truncated kernel cache payload")
        if payload > 8 * n * n:
            raise ValueError("trailing bytes after the kernel cache payload")
        flat = np.fromfile(fh, dtype="<f8", count=n * n)
        flat.flags.writeable = False  # the base of the table's 2D view
        d = flat.reshape(n, n)
    _assert_table(d)
    return KernelTable(grid, d)


def load_or_build_kernels(grid: GridSpec, cache_dir) -> KernelTable:
    """Fetch the kernel table from the cache directory, rebuilding (and
    rewriting) transparently when the file is missing, corrupted, in an
    older format, or holds a table for another grid. A hit is one read;
    the directory is made only on a rebuild."""
    path = os.path.join(cache_dir, _cache_key(grid))
    try:
        table = load_kernels(path)
        if table.grid == grid:
            return table
    except (FileNotFoundError, ValueError, AssertionError):
        pass  # no file (or no directory yet), or a corrupted one: rebuild
    os.makedirs(cache_dir, exist_ok=True)
    table = build_kernels(grid)
    save_kernels(table, path)
    return table
