"""Discrete Fourier transform in the lattice convention, discrete wave
vectors, and the real-space kernels G and D.

Conventions: forward transform with unit normalization,
``f~[alpha, beta] = sum_ij f[i,j] exp(-i 2pi (i alpha + j beta)/N)``,
inverse with 1/N^2. Mode index alpha pairs with rows (y), beta with
columns (x), so the wave vector components are
``kx = sin(2 pi beta / N)/a`` and ``ky = sin(2 pi alpha / N)/a``.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, ScalarField

__all__ = [
    "NonRealResult",
    "FourierField",
    "KernelTable",
    "dft_forward",
    "dft_inverse",
    "wave_vector",
    "wave_number_table",
    "build_kernels",
    "zero_mode_count",
    "save_kernels",
    "load_kernels",
    "load_or_build_kernels",
]

_CACHE_MAGIC = b"LGK1"
_ZERO_TOL = 1e-12


class NonRealResult(Exception):
    """Inverse transform produced a non-negligible imaginary part,
    signalling a conjugate-symmetry violation upstream."""


class FourierField:
    """Complex mode array indexed by (alpha, beta); the field takes
    ownership of ``modes`` and makes it read-only."""

    __slots__ = ("grid", "modes")

    def __init__(self, grid: GridSpec, modes):
        modes = np.asarray(modes, dtype=complex)
        if modes.shape != grid.shape:
            raise ValueError(f"expected shape {grid.shape}, got {modes.shape}")
        modes.flags.writeable = False
        self.grid = grid
        self.modes = modes


def _dft_matrix(n: int) -> np.ndarray:
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n)


def dft_forward(field: ScalarField, method: str = "fft") -> FourierField:
    """Forward transform with unit normalization.

    ``method="fft"`` uses the numpy FFT, which implements the identical
    convention; ``method="direct"`` evaluates the defining double sum and
    serves as the oracle the fast path is tested against.
    """
    if method == "fft":
        modes = np.fft.fft2(field.values)
    elif method == "direct":
        e = _dft_matrix(field.grid.n)
        # modes[alpha, beta] = sum_ij E[alpha,i] f[i,j] E[beta,j]
        modes = np.einsum("ai,ij,bj->ab", e, field.values.astype(complex), e)
    else:
        raise ValueError(f"unknown method {method!r}")
    return FourierField(field.grid, modes)


def dft_inverse(
    modes: FourierField, method: str = "fft", imag_tol: float = 1e-10
) -> ScalarField:
    """Inverse transform with 1/N^2 normalization.

    Raises
    ------
    NonRealResult
        If the imaginary residue exceeds ``imag_tol`` times the mode
        norm; small residue is discarded.
    """
    if method == "fft":
        values = np.fft.ifft2(modes.modes)
    elif method == "direct":
        e = np.conj(_dft_matrix(modes.grid.n))
        values = np.einsum("ai,ij,bj->ab", e, modes.modes, e) / modes.grid.n**2
    else:
        raise ValueError(f"unknown method {method!r}")
    scale = np.max(np.abs(modes.modes))
    imag = np.max(np.abs(values.imag))
    if scale > 0 and imag > imag_tol * scale:
        raise NonRealResult(
            f"imaginary residue {imag:.3e} exceeds {imag_tol:.1e} * {scale:.3e}"
        )
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
    """Arrays (kx, ky, |k|) over all modes, indexed [alpha, beta]."""
    n, a = grid.n, grid.spacing
    s = np.sin(2.0 * np.pi * np.arange(n) / n) / a
    ky, kx = np.meshgrid(s, s, indexing="ij")  # ky from alpha, kx from beta
    return kx, ky, np.hypot(kx, ky)


def zero_mode_count(grid: GridSpec) -> int:
    """Number of modes with |k| = 0: one for odd N, four for even N."""
    return 1 if grid.n % 2 else 4


@dataclass(frozen=True)
class KernelTable:
    """Real-space kernels G (1/|k| weights) and D (1/|k|^2 weights) with
    the zero modes excluded from the defining sums.

    ``g_values[di, dj]`` is G evaluated at site offset (di, dj); both
    tables are real, even under offset negation mod N, and translation
    invariant by construction. The table takes ownership of both arrays
    and makes them read-only.
    """

    grid: GridSpec
    g_values: np.ndarray
    d_values: np.ndarray

    def __post_init__(self):
        self.g_values.flags.writeable = False
        self.d_values.flags.writeable = False

    def g(self, di: int, dj: int) -> float:
        i, j = self.grid.wrap(di, dj)
        return float(self.g_values[i, j])

    def d(self, di: int, dj: int) -> float:
        i, j = self.grid.wrap(di, dj)
        return float(self.d_values[i, j])


def _mode_weights(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Zero-mode-excluded weights over all modes: ``(1/|k|, 1/|k|^2,
    kept)``, where ``kept`` masks the modes with |k| > 0. The one place
    that decides which modes are excluded."""
    *_, kabs = wave_number_table(grid)
    nonzero = kabs > _ZERO_TOL / grid.spacing
    safe = np.where(nonzero, kabs, 1.0)
    inv_k = np.where(nonzero, 1.0 / safe, 0.0)
    inv_k2 = np.where(nonzero, 1.0 / safe**2, 0.0)
    return inv_k, inv_k2, nonzero


def build_kernels(grid: GridSpec, method: str = "fft") -> KernelTable:
    """Build the kernel tables by summing over all nonzero modes.

    The fast path evaluates the mode sums with an FFT (the kernels are
    plain inverse transforms of the 1/|k| and 1/|k|^2 mode tables); the
    direct path performs the defining summation and is kept as the test
    oracle. Excluded-mode count is asserted on every build.
    """
    inv_k, inv_k2, nonzero = _mode_weights(grid)
    n = grid.n
    excluded = n * n - int(np.count_nonzero(nonzero))
    if excluded != zero_mode_count(grid):
        raise AssertionError(
            f"expected {zero_mode_count(grid)} zero modes, found {excluded}"
        )
    if method == "fft":
        # (1/N^2) sum_ab M[a,b] e^{-i 2pi (di a + dj b)/N} = fft2(M)[di,dj]/N^2
        g = np.fft.fft2(inv_k) / n**2
        d = np.fft.fft2(inv_k2) / n**2
    elif method == "direct":
        e = _dft_matrix(n)
        g = np.einsum("ua,ab,vb->uv", e, inv_k.astype(complex), e) / n**2
        d = np.einsum("ua,ab,vb->uv", e, inv_k2.astype(complex), e) / n**2
    else:
        raise ValueError(f"unknown method {method!r}")
    scale_g = np.max(np.abs(g))
    scale_d = np.max(np.abs(d))
    if np.max(np.abs(np.imag(g))) > 1e-10 * scale_g or np.max(
        np.abs(np.imag(d))
    ) > 1e-10 * scale_d:
        raise AssertionError("kernel sums acquired a non-real part")
    table = KernelTable(grid, np.real(g).copy(), np.real(d).copy())
    _assert_even(table)
    return table


def _assert_even(table: KernelTable) -> None:
    for values in (table.g_values, table.d_values):
        flipped = np.roll(values[::-1, ::-1], (1, 1), axis=(0, 1))
        scale = np.max(np.abs(values))
        if np.max(np.abs(values - flipped)) > 1e-10 * scale:
            raise AssertionError("kernel table is not even under offset negation")


def _cache_key(grid: GridSpec) -> str:
    return f"kernels_n{grid.n}_a{grid.spacing!r}_exclude.lgk"


def save_kernels(table: KernelTable, path) -> None:
    """Serialize to the binary cache format: magic ``LGK1``, N (u32),
    a (f64), policy (u8), then N^2 G and N^2 D row-major little-endian
    doubles."""
    n = table.grid.n
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIdB", _CACHE_MAGIC, n, table.grid.spacing, 0))
        fh.write(table.g_values.astype("<f8").tobytes(order="C"))
        fh.write(table.d_values.astype("<f8").tobytes(order="C"))


def load_kernels(path) -> KernelTable:
    header_size = struct.calcsize("<4sIdB")
    with open(path, "rb") as fh:
        header = fh.read(header_size)
        if len(header) != header_size:
            raise ValueError("truncated kernel cache header")
        magic, n, a, policy = struct.unpack("<4sIdB", header)
        if magic != _CACHE_MAGIC:
            raise ValueError(f"bad kernel cache magic {magic!r}")
        if policy != 0:
            raise ValueError(f"unknown zero-mode policy byte {policy}")
        count = n * n
        payload = fh.read(2 * count * 8)
        if len(payload) != 2 * count * 8:
            raise ValueError("truncated kernel cache payload")
    data = np.frombuffer(payload, dtype="<f8")
    grid = GridSpec(int(n), float(a))
    table = KernelTable(
        grid,
        data[:count].reshape(n, n).copy(),
        data[count:].reshape(n, n).copy(),
    )
    _assert_even(table)
    return table


def load_or_build_kernels(grid: GridSpec, cache_dir) -> KernelTable:
    """Fetch the kernel table from the cache directory, rebuilding (and
    rewriting) transparently when the file is missing, corrupted, or
    holds a table for another grid."""
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, _cache_key(grid))
    if os.path.exists(path):
        try:
            table = load_kernels(path)
            if table.grid == grid:
                return table
        except (ValueError, AssertionError):
            pass  # corrupted cache: fall through and rebuild
    table = build_kernels(grid)
    save_kernels(table, path)
    return table
