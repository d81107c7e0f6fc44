"""Convergence checks tying lattice quantities to their large-lattice
targets, at fixed spacing a = 1 with growing N.

The integral oracles live here too: the N -> infinity limit of a kernel
mode sum is the Brillouin-zone integral with the sine dispersion, and
the naive continuum coefficient of the logarithmic kernel difference is
ln(r2/r1)/(2 pi). The lattice model's symmetric derivative carries
doubler zeros of the dispersion at the three nonzero corners of the
Brillouin zone, so kernel-D differences converge only between
separations of equal parity; the checks report whatever series they are
asked for and the fits quantify the convergence.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .grid import GridSpec
from .spectral import build_kernels, kernel_values

__all__ = [
    "OutOfRange",
    "ConvergenceSeries",
    "g_scaling_check",
    "d_log_check",
    "kvec_convergence",
    "continuum_log_coefficient",
    "bz_d_difference",
]


class OutOfRange(ValueError):
    """A check's separation or mode fraction lies outside the range where
    its series means anything; raised before any table is built."""


@dataclass(frozen=True)
class ConvergenceSeries:
    """Observable values over growing N; ``fit`` is a read-only copy."""

    n_values: tuple
    observable: str
    values: tuple
    fit: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "fit", MappingProxyType(dict(self.fit)))
        if list(self.n_values) != sorted(set(self.n_values)):
            raise ValueError("n_values must be strictly increasing")
        if not all(np.isfinite(v) for v in self.values):
            raise ValueError("series values must be finite")

    def successive_differences(self) -> list[float]:
        return [abs(b - a) for a, b in zip(self.values, self.values[1:])]

    def differences_shrink(self) -> bool:
        diffs = self.successive_differences()
        return all(b < a for a, b in zip(diffs, diffs[1:]))


def _richardson(n_values, values) -> dict:
    """Estimate the limit assuming values ~ limit + C * N^-p, with the
    rate read off the last three points. Falls back to the last value
    when the differences do not contract."""
    if len(values) < 3:
        return {"estimate": float(values[-1]), "rate": float("nan")}
    v1, v2, v3 = values[-3], values[-2], values[-1]
    d1, d2 = v2 - v1, v3 - v2
    if d2 == 0 or d1 == 0 or abs(d2) >= abs(d1):
        return {"estimate": float(v3), "rate": float("nan")}
    ratio = n_values[-1] / n_values[-2]
    rate = float(np.log(abs(d1 / d2)) / np.log(ratio))
    estimate = v3 + d2 / (ratio**rate - 1.0)
    return {"estimate": float(estimate), "rate": rate}


def g_scaling_check(n_list, r_over_a: int) -> ConvergenceSeries:
    """Series of r * G(0, r) at fixed a = 1 for each N; the values
    approach the Brillouin-zone integral of the 1/|k| kernel with
    shrinking successive differences."""
    r = int(r_over_a)
    if r <= 0:
        raise OutOfRange("separation must be a positive site count (r = 0 is singular)")
    if not all(r < n / 2 for n in n_list):
        raise OutOfRange(f"need r = {r} well below N/2 for every N")
    values = []
    for n in sorted(n_list):
        values.append(r * float(kernel_values(GridSpec(int(n), 1.0), 1)[0, r]))
    return ConvergenceSeries(
        tuple(sorted(n_list)), f"r*G(r), r={r}", tuple(values),
        _richardson(sorted(n_list), values),
    )


def d_log_check(n_list, pairs) -> list[ConvergenceSeries]:
    """One series of [D(r1) - D(r2)] / ln(r2/r1) at fixed a = 1 per N for
    each ``(r1, r2)`` in ``pairs``, in the order given; each N's table is
    built once for all pairs.

    Equal-parity pairs converge to a shared positive constant (the
    logarithmic-kernel coefficient, doubled fourfold by the dispersion's
    doubler corners); mixed-parity pairs pick up the uncancelled doubler
    divergence and grow with N.
    """
    pairs = [(int(r1), int(r2)) for r1, r2 in pairs]
    for r1, r2 in pairs:
        if not (1 <= r1 < r2):
            raise OutOfRange("need 1 <= r1 < r2")
        if not all(r2 < n / 2 for n in n_list):
            raise OutOfRange(f"need r2 = {r2} well below N/2 for every N")
    columns = [[] for _ in pairs]
    for n in sorted(n_list):
        table = build_kernels(GridSpec(int(n), 1.0))
        for values, (r1, r2) in zip(columns, pairs):
            values.append((table.d(0, r1) - table.d(0, r2)) / np.log(r2 / r1))
    return [
        ConvergenceSeries(
            tuple(sorted(n_list)), f"[D({r1})-D({r2})]/ln({r2}/{r1})", tuple(values),
            _richardson(sorted(n_list), values),
        )
        for values, (r1, r2) in zip(columns, pairs)
    ]


def kvec_convergence(n_list, mode_fraction: float) -> ConvergenceSeries:
    """Relative error of the discrete wave vector against its continuum
    value at a fixed mode index, chosen nearest mode_fraction * min(N).

    Growing N at fixed index shrinks the dimensionless argument
    2 pi m / N, so the error falls off as 1/N^2 (the cubic remainder of
    the sine); the fraction must stay below 1/4 so the starting argument
    sits clear of the sine turnover.
    """
    if not (0.0 < mode_fraction < 0.25):
        raise OutOfRange("mode_fraction must lie in (0, 1/4)")
    n_sorted = sorted(int(n) for n in n_list)
    mode = max(1, round(mode_fraction * n_sorted[0]))
    values = []
    for n in n_sorted:
        theta = 2.0 * np.pi * mode / n
        kbar = np.sin(theta)
        values.append(abs(kbar - theta) / theta)
    return ConvergenceSeries(
        tuple(n_sorted), f"|kbar-k|/|k|, mode={mode}", tuple(values),
        _richardson(n_sorted, values),
    )


def continuum_log_coefficient() -> float:
    """Naive continuum value of [D(r1) - D(r2)] / ln(r2/r1): the 2D
    integral of [cos(k.r1) - cos(k.r2)] / |k|^2 over all of k-space is
    ln(r2/r1)/(2 pi), so the normalized coefficient is 1/(2 pi) for any pair."""
    return 1.0 / (2.0 * np.pi)


def bz_d_difference(r1: int, r2: int) -> float:
    """Quadrature oracle for the N -> infinity limit of D(0, r1) - D(0, r2)
    with the sine dispersion: the Brillouin-zone integral

    ``int d^2t/(2 pi)^2 [cos(r1 tx) - cos(r2 tx)] / (sin^2 tx + sin^2 ty)``.

    Finite only when r1 and r2 share parity; the doubler corners make
    mixed-parity differences diverge, which is the content of the parity
    restriction on the d_log law.

    The inner integral is elementary, ``int_0^pi dt / (A + sin^2 t) =
    pi / sqrt(A (1 + A))``, which leaves

    ``(1/pi) int_0^pi [cos(r1 t) - cos(r2 t)] / (sin t sqrt(1 + sin^2 t)) dt``.

    Under ``t -> pi - t`` the integrand picks up the sign ``(-1)^r1``: for
    two odd separations it is odd about pi/2 and the integral is exactly
    0, and for two even ones it is twice the integral over [0, pi/2].
    There the numerator's double zero at 0 cancels ``sin t``, the
    integrand is analytic out to ``Im t = asinh 1``, and Gauss-Legendre
    converges geometrically once the nodes resolve ``cos(r t)``
    (L. N. Trefethen, SIAM Rev. 50, 67 (2008)).
    """
    if (r1 - r2) % 2 != 0:
        raise ValueError(
            "mixed-parity separations have no finite large-N limit "
            "(doubler corners of the sine dispersion)"
        )
    if r1 % 2:
        return 0.0
    # cos(r t) makes r/4 turns on [0, pi/2]; 64 fixed nodes err by 0.4 at r = 250
    return _half_zone_integral(r1, r2, 64 + max(abs(r1), abs(r2)) // 2)


def _half_zone_integral(r1: int, r2: int, nodes: int) -> float:
    """``(2/pi) int_0^{pi/2} [cos(r1 t) - cos(r2 t)] / (sin t sqrt(1 +
    sin^2 t)) dt`` on ``nodes`` Gauss-Legendre nodes."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    t = 0.25 * np.pi * (x + 1.0)
    s = np.sin(t)
    f = (np.cos(r1 * t) - np.cos(r2 * t)) / (s * np.sqrt(1.0 + s * s))
    return 0.5 * float(w @ f)
