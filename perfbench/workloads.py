"""The four benchmark workloads: how each draws its ops from the seed and
how each op's output is checked.

One op is one in-process ``latgauge.cli.main(argv)`` call. The program
sees only the generated argv; the seed stays with the benchmark. A check
raises ``CheckFailed`` and the op then counts as failed.

Why these four (the layers each exercises are in ``layers.py``):

- ``fme-sweep``: the N=101 arrays fit in the CPU caches, so per-call
  overhead and re-running the whole protocol for each of the 6 tau
  points dominate; closed-form sector energies and an O(1)-per-tau
  sweep show here.
- ``fme-large``: each N=1001 array is 8 MB, past the per-core caches, so
  this measures the bandwidth-bound FFT path, the 16 MB kernel cache
  read and peak RSS. One tau per op, so a per-tau saving should not
  show.
- ``dynamics-trajectory``: per-step leapfrog, energy, Gauss residual and
  CSV lines, with no spectral or gaussian work.
- ``algebra-centers``: pure-Python exact-rational elimination. Regions
  never repeat, so the module-level nullspace cache never hits, as with
  one CLI process per region.

``continuum`` and ``coulomb`` are not workloads of their own. The layers
``coulomb`` uses (kernel load, ``coulomb_energy_shift``,
``ground_energy``) all run inside the ``fme-*`` ops, and a ``continuum``
series for N=51,101,201 takes about 9 ms.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

PHASE_TOL = 1e-9
RESIDUAL_TOL = 1e-9
BRANCH_SHIFT = {"LL": 0, "LR": 4, "RL": -4, "RR": 0}  # change of separation per branch
# (kind, FFT side, reference seconds) of the calibration samples, see
# calibrate.py and stats.py. The references other than the first are
# 0.010 s times the measured ratio of their sample time to the first
# one's, on a 2-core Xeon. Over five seeds on that host, calibrating
# with CALIBRATION instead widened the spread of op_p50_s from 0.03 to
# 0.16 on fme-large and from 0.03 to 0.05 on algebra-centers.
CALIBRATION = ("mixed", 256, 0.010)
CALIBRATION_LARGE = ("mixed", 1024, 0.068)
CALIBRATION_FRACTIONS = ("fractions", 0, 0.014)


class CheckFailed(Exception):
    """An op's output disagrees with the benchmark's expectation."""


def _wrap(phi: float) -> float:
    return math.pi - (math.pi - phi) % (2.0 * math.pi)


def _angle_gap(a: float, b: float) -> float:
    return abs(_wrap(a - b))


def _entropy_from_phases(phi: dict) -> float:
    big = phi["LL"] + phi["RR"] - phi["LR"] - phi["RL"]
    lam = 0.5 * (1.0 + abs(math.cos(0.5 * big)))
    return -sum(v * math.log(v) for v in (lam, 1.0 - lam) if v > 1e-15)


def _read_csv(path: str) -> tuple[list[str], list[list[float]]]:
    with open(path, encoding="ascii", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CheckFailed(f"{os.path.basename(path)} is empty")
    try:
        body = [[float(x) for x in row] for row in rows[1:]]
    except ValueError as exc:
        raise CheckFailed(f"non-numeric CSV field: {exc}") from None
    if any(not math.isfinite(x) for row in body for x in row):
        raise CheckFailed("non-finite CSV field")
    return rows[0], body


class Fme:
    """``fme`` on one seeded site pair; ``taus`` tau points per op (a
    ``--sweep-tau`` when more than one)."""

    def __init__(self, n: int, taus: int, max_sep: int, calibration=CALIBRATION):
        self.n, self.taus, self.max_sep = n, taus, max_sep
        self.setup_grid = n
        self.calibration = calibration
        self._d_row = None

    def prepare(self, latgauge) -> None:
        # reference D values from a direct build, never from the cache under test
        table = latgauge.spectral.build_kernels(latgauge.grid.GridSpec(self.n))
        self._d_row = table.d_values[0].copy()

    def make_op(self, rng: random.Random, out: str, cache_dir: str):
        n = self.n
        sep = rng.randint(8, self.max_sep)
        row = rng.randint(3, n - 4)
        col = rng.randint(3, n - 4 - sep)
        sites = f"{row},{col}:{row},{col + sep}"
        argv = ["--cache-dir", cache_dir, "fme", "--n", str(n), "--sites", sites, "--out", out]
        if self.taus == 1:
            taus = [rng.uniform(0.05, 2.0)]
            argv += ["--tau", repr(taus[0])]
        else:
            start, step = rng.uniform(0.05, 1.0), rng.uniform(0.05, 0.5)
            taus = [start + step * k for k in range(self.taus)]
            stop = start + step * (self.taus - 0.5)
            argv += ["--sweep-tau", f"{start!r}:{stop!r}:{step!r}"]
        return argv, (sep, taus)

    def check(self, out: str, expect) -> None:
        sep, taus = expect
        header, body = _read_csv(out)
        if header != ["tau", "phi_LL", "phi_LR", "phi_RL", "phi_RR", "entropy"]:
            raise CheckFailed(f"unexpected header {header}")
        if len(body) != len(taus):
            raise CheckFailed(f"{len(body)} rows for {len(taus)} tau points")
        d = self._d_row
        for (tau_out, *phis, entropy), tau in zip(body, taus):
            if abs(tau_out - tau) > 1e-12 * max(1.0, tau):
                raise CheckFailed(f"tau {tau_out!r} != {tau!r}")
            expected = {
                b: _wrap(-(d[0] + d[(sep + shift) % self.n]) * tau)
                for b, shift in BRANCH_SHIFT.items()
            }
            for b, phi in zip(("LL", "LR", "RL", "RR"), phis):
                if _angle_gap(phi, expected[b]) > PHASE_TOL:
                    raise CheckFailed(f"phi_{b} {phi!r} != {expected[b]!r} at tau {tau!r}")
            if abs(entropy - _entropy_from_phases(expected)) > PHASE_TOL:
                raise CheckFailed(f"entropy {entropy!r} at tau {tau!r}")


class Dynamics:
    """``dynamics`` on a 16x16 grid for 1000 leapfrog steps from a seeded
    random state."""

    n, dt, steps = 16, 0.05, 1000
    setup_grid = None
    calibration = CALIBRATION

    def prepare(self, latgauge) -> None:
        pass

    def make_op(self, rng: random.Random, out: str, cache_dir: str):
        argv = ["--cache-dir", cache_dir, "--seed", str(rng.randrange(2**31)), "dynamics",
                "--n", str(self.n), "--dt", repr(self.dt), "--steps", str(self.steps),
                "--out", out]
        return argv, None

    def check(self, out: str, _expect) -> None:
        header, body = _read_csv(out)
        if header != ["t", "H", "max_constraint_residual"]:
            raise CheckFailed(f"unexpected header {header}")
        if len(body) != self.steps + 1:
            raise CheckFailed(f"{len(body)} rows for {self.steps} steps")
        r0 = body[0][2]
        for k, (t, _h, res) in enumerate(body):
            if abs(t - k * self.dt) > 1e-9:
                raise CheckFailed(f"row {k}: t = {t!r}")
            if abs(res - r0) > RESIDUAL_TOL:
                raise CheckFailed(f"row {k}: Gauss residual {res!r} drifted from {r0!r}")


class Algebra:
    """``algebra`` on a seeded, never repeated (N, origin) with M = 6."""

    m = 6
    setup_grid = None
    calibration = CALIBRATION_FRACTIONS

    def __init__(self):
        self._seen: set[tuple[int, int, int]] = set()
        self._nullspace_cache = None

    def prepare(self, latgauge) -> None:
        # a rename fails the run rather than letting the cache grow unseen
        self._nullspace_cache = latgauge.algebra._NULLSPACE_CACHE

    def make_op(self, rng: random.Random, out: str, cache_dir: str):
        # Each op starts from the empty cache a fresh `latgauge algebra`
        # process has. Kept across ops, the never-hit entries would pile
        # up, so peak RSS and garbage-collection work would grow with
        # the number of ops a run fits in.
        self._nullspace_cache.clear()
        while True:
            n = rng.randint(10, 40)
            key = (n, rng.randint(0, n - self.m), rng.randint(0, n - self.m))
            if key not in self._seen:
                break
        self._seen.add(key)
        n, i0, j0 = key
        argv = ["--cache-dir", cache_dir, "algebra", "--n", str(n),
                "--region", f"{i0},{j0},{self.m}", "--dump", out]
        return argv, key

    def check(self, out: str, expect) -> None:
        n, i0, j0 = expect
        m = self.m
        try:
            with open(out, encoding="ascii") as fh:
                doc = json.load(fh)
            dim, basis = doc["dimension"], doc["basis"]
            labels = [entry["label"] for entry in basis]
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckFailed(f"malformed dump: {exc!r}") from None
        if doc.get("n") != n or doc.get("region") != [i0, j0, m]:
            raise CheckFailed(f"dump is for n={doc.get('n')} region={doc.get('region')}")
        want = 2 * m * m - (m - 2) ** 2
        if dim != want or len(basis) != want:
            raise CheckFailed(f"center dimension {dim} with {len(basis)} elements, want {want}")
        if len(set(labels)) != len(labels):
            raise CheckFailed("duplicate center labels")
        crosses = {f"CROSS({i},{j})" for i in range(i0 + 1, i0 + m - 1)
                   for j in range(j0 + 1, j0 + m - 1)}
        missing = crosses - set(labels)
        if missing:
            raise CheckFailed(f"missing interior labels {sorted(missing)[:3]}")


_FACTORIES = {
    "fme-sweep": lambda: Fme(n=101, taus=6, max_sep=40),
    "fme-large": lambda: Fme(n=1001, taus=1, max_sep=200, calibration=CALIBRATION_LARGE),
    "dynamics-trajectory": Dynamics,
    "algebra-centers": Algebra,
}
NAMES = tuple(_FACTORIES)


def make(name: str):
    """A fresh workload object (workloads keep per-run state)."""
    return _FACTORIES[name]()
