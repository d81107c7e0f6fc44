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
from scipy import integrate

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
    """
    if (r1 - r2) % 2 != 0:
        raise ValueError(
            "mixed-parity separations have no finite large-N limit "
            "(doubler corners of the sine dispersion)"
        )

    def integrand(ty, tx):
        num = np.cos(r1 * tx) - np.cos(r2 * tx)
        den = np.sin(tx) ** 2 + np.sin(ty) ** 2
        if den < 1e-300:
            return 0.0  # removable: numerator vanishes to matching order
        return num / den

    # cosine symmetry folds the full zone onto [0, pi]^2
    value, _err = integrate.dblquad(
        integrand, 0.0, np.pi, 0.0, np.pi, epsabs=1e-11, epsrel=1e-11
    )
    return 4.0 * value / (2.0 * np.pi) ** 2
