"""Calibration samples: fixed work that never touches latgauge, timed next
to the ops so that ``stats.py`` can take the machine's current speed out
of the reported times.

Different code slows down by different shares when the host is busy, so
each workload is calibrated with work of its own kind. ``mixed`` is
interpreter, small-array numpy and FFT work; the FFT side is set per
workload, so arrays past the per-core caches are calibrated with arrays
that are too. ``fractions`` is exact-rational Gaussian elimination in
pure Python, like the center computation of ``algebra``. Large arrays
are allocated per sample and freed before the next op, so they add
nothing to the RSS the ops reach.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np


class Calibrator:
    def __init__(self, kind: str, fft_n: int = 0):
        if kind not in ("mixed", "fractions"):
            raise ValueError(f"unknown calibration kind {kind!r}")
        self.kind = kind
        self.fft_n = fft_n
        self.small = np.random.default_rng(0).standard_normal((16, 16))
        rng = random.Random(0)
        self.matrix = [[rng.choice((-1, 0, 0, 1)) for _ in range(28)] for _ in range(14)]

    def sample(self) -> float:
        """Seconds one calibration sample takes now."""
        start = time.perf_counter()
        if self.kind == "mixed":
            self._mixed()
        else:
            self._fractions()
        return time.perf_counter() - start

    def _mixed(self) -> None:
        acc = 0
        for i in range(40_000):
            acc += i * i % 7
        a = self.small
        for _ in range(250):
            a = (np.roll(a, 1, 0) - np.roll(a, -1, 1)) * 0.5 + a * 0.1
        np.fft.ifft2(np.fft.fft2(np.full((self.fft_n, self.fft_n), 0.5)))

    def _fractions(self) -> None:
        rows = [[Fraction(x) for x in row] for row in self.matrix]
        pivot = 0
        for col in range(len(rows[0])):
            found = next((i for i in range(pivot, len(rows)) if rows[i][col] != 0), None)
            if found is None:
                continue
            rows[pivot], rows[found] = rows[found], rows[pivot]
            inv = 1 / rows[pivot][col]
            rows[pivot] = [x * inv for x in rows[pivot]]
            for i, row in enumerate(rows):
                if i != pivot and row[col] != 0:
                    f = row[col]
                    rows[i] = [a - f * b for a, b in zip(row, rows[pivot])]
            pivot += 1
            if pivot == len(rows):
                break
