"""The five-step field-mediated-entanglement protocol: spin-conditioned
dressed charge moves, relaxation to sector ground states, phase
evolution, merging, spin readout with entropy accounting, and the
embezzlement null test.

Branches follow the fixed order LL, LR, RL, RR (first letter: move
direction in region A, second: region B; spin up moves left). Field
states are Gaussian ground states displaced by dressings, so every
intermediate state satisfies its sector's Gauss law up to the uniform
charge mode, and merging immediately after splitting restores the
initial state exactly.

No field is built: the unitaries factor as U_A (x) U_B, so the branches
meet only through their phases, and every phase is a D-table lookup.
The Gauss law of the states passed through is proven instead of
sampled: once per kernel table from the unit-charge background
(``gaussian.gauss_bound``) and exactly, in Fractions, once per move
geometry (``algebra.check_dressing``). ``dressed_move`` is the one
dressed move; the protocol and the null test both take it.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field as dataclass_field
from types import MappingProxyType

import numpy as np

from .gaussian import gauss_bound, sector_energy, wrap_phase
from .grid import GridSpec
from .matter import MatterConfig, apply_ladder
from .algebra import Region, check_dressing, dressing_geometry
from .spectral import KernelTable

__all__ = [
    "NotSeparable",
    "NotDensityMatrix",
    "BRANCHES",
    "ProtocolSpec",
    "ProtocolTrace",
    "dressed_move",
    "run_protocol",
    "vn_entropy",
    "reduced_spin_a",
    "entropy_from_phases",
    "embezzlement_null_test",
]

BRANCHES = ("LL", "LR", "RL", "RR")
# a branch letter's move direction when splitting, and the reverse move
# that merges it back
_SPLIT_DIR = {"L": "left", "R": "right"}
_MERGE_DIR = {"L": "right", "R": "left"}


class NotSeparable(Exception):
    """A branch's matter does not return to the start configuration at
    the final step, the signature of a dressing bug."""


class NotDensityMatrix(Exception):
    """Input failed the Hermitian / unit-trace / positivity checks."""


def _zero_phases():
    return {b: 0.0 for b in BRANCHES}


@dataclass(frozen=True)
class ProtocolSpec:
    """Spatial and timing configuration of one protocol run.

    The two charges start at ``site_a`` and ``site_b``, on any rows.
    Regions A and B are the ``size x size`` squares centred on them
    (origin ``(row - size // 2, col - size // 2)``); each charge,
    together with its displaced positions two columns away, must be
    strictly interior to its region, and the regions must be separated.
    ``gamma`` and ``gamma_prime`` are the configurable relaxation phases
    per branch (default zero). ``taus`` are the evolution times of step
    3, one protocol trace each. The sites and taus are stored as tuples
    and the phases as read-only mappings, so a validated spec cannot
    change.
    """

    grid: GridSpec
    site_a: tuple[int, int]
    site_b: tuple[int, int]
    size: int = 7
    taus: tuple[float, ...] = (0.0,)
    gamma: Mapping[str, float] = dataclass_field(default_factory=_zero_phases)
    gamma_prime: Mapping[str, float] = dataclass_field(default_factory=_zero_phases)

    def __post_init__(self):
        for name in ("site_a", "site_b"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("gamma", "gamma_prime"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        object.__setattr__(self, "taus", tuple(map(float, self.taus)))
        for tau in self.taus:
            if not (np.isfinite(tau) and tau >= 0):
                raise ValueError(f"tau must be finite and nonnegative, got {tau}")
        regions = (_region_of(self, "A"), _region_of(self, "B"))
        for region, site in zip(regions, (self.site_a, self.site_b)):
            region.validate_on(self.grid)
            left, right = (dressing_geometry(self.grid, site, d)[:2] for d in ("left", "right"))
            # the five sites the moves touch, (target, link) of each, in column order
            for touched in (*left, site, *right[::-1]):
                if not region.is_interior(touched):
                    raise ValueError(f"site {touched} must be strictly interior to {region}")
        if not _separated(*regions):
            raise ValueError("regions must be disjoint and separated")
        for phases in (self.gamma, self.gamma_prime):
            if set(phases) != set(BRANCHES):
                raise ValueError(f"phase map must cover branches {BRANCHES}")

    def initial_config(self) -> MatterConfig:
        return MatterConfig.from_sites(self.grid, [self.site_a, self.site_b])


def _region_of(spec: ProtocolSpec, name: str) -> Region:
    """Region ``name`` ('A' or 'B'): the ``spec.size`` square centred on
    that region's starting charge."""
    if name == "A":
        row, col = spec.site_a
    elif name == "B":
        row, col = spec.site_b
    else:
        raise ValueError(f"region must be 'A' or 'B', got {name!r}")
    half = spec.size // 2
    return Region((row - half, col - half), spec.size)


def _separated(a: Region, b: Region) -> bool:
    # disjoint with one site of clearance, so supports including the
    # magnetic stencils and dressing links cannot touch
    (ai, aj), (bi, bj) = a.origin, b.origin
    return (
        ai + a.size + 1 <= bi
        or bi + b.size + 1 <= ai
        or aj + a.size + 1 <= bj
        or bj + b.size + 1 <= aj
    )


def dressed_move(
    spec: ProtocolSpec, matter: MatterConfig, region: str, direction: str
) -> tuple[MatterConfig, tuple[int, int], float]:
    """Move the region's charge two columns left or right with the
    single-link momentum dressing that repairs the Gauss law, and return
    ``(matter, link, displacement)``: the moved matter and the dressing.

    The target, link and displacement come from
    ``algebra.dressing_geometry``: a left move from column c displaces
    p_x at (row, c-1) by -2a, a right move p_x at (row, c+1) by +2a;
    ``algebra.check_dressing`` proves exactly that this is the shift the
    two affected Gauss crosses need. Spin conditioning and building the
    displaced field, if one is wanted, belong to the caller.
    """
    source = _region_charge(spec, matter, region)
    target, link, displacement = dressing_geometry(spec.grid, source, direction)
    check_dressing(spec.grid, source, target, link, displacement)
    return apply_ladder(matter, create_at=target, annihilate_at=source), link, displacement


def _region_charge(spec: ProtocolSpec, matter: MatterConfig, region: str) -> tuple[int, int]:
    """The one occupied site in ``region``."""
    reg = _region_of(spec, region)
    here = sorted(s for s in matter.occupied if reg.contains(s))
    if len(here) != 1:
        raise ValueError(f"region {region} holds {len(here)} charges, not 1")
    return here[0]


@dataclass(frozen=True, eq=False)
class ProtocolTrace:
    """Outcome of a protocol run: ``final_spin`` holds the four branch
    amplitudes in branch order; ``phases`` records the evolution phase
    phi per branch; ``h_sigma_a`` is the entropy of the reduced spin-A
    state of ``final_spin``, which is the entanglement the protocol
    generated because the matter and field factors coincide at the
    endpoints. The amplitudes and phases are read-only."""

    final_spin: np.ndarray
    phases: Mapping[str, float]
    h_sigma_a: float

    def __post_init__(self):
        self.final_spin.flags.writeable = False
        object.__setattr__(self, "phases", MappingProxyType(dict(self.phases)))


def _branch_moves(spec, matter, name, directions):
    """Branch ``name``'s dressed moves (its first letter steers A, its
    second B; ``directions`` maps a letter to a move direction): the
    moved matter and the ``(link, displacement)`` of each dressing."""
    dressings = []
    for region, letter in zip("AB", name):
        matter, link, displacement = dressed_move(spec, matter, region, directions[letter])
        dressings.append((link, displacement))
    return matter, dressings


def _branch_walk(spec: ProtocolSpec, kernels: KernelTable) -> list:
    """Steps 1 and 4, which no tau reaches: per branch, the step-2 matter
    and the dressings of its split and merge moves. Every sector holds
    the start charges relocated, so one ``gauss_bound`` proves the Gauss
    law of all five ground states and, with ``check_dressing`` per move,
    of all eight dressed states. The first branch whose matter does not
    return raises ``NotSeparable``."""
    if kernels.grid != spec.grid:
        raise ValueError("kernel table lives on a different grid")
    s0 = spec.initial_config()
    gauss_bound([1.0] * len(s0.occupied), kernels)
    walk = []
    for name in BRANCHES:
        moved, split = _branch_moves(spec, s0, name, _SPLIT_DIR)
        merged, merge = _branch_moves(spec, moved, name, _MERGE_DIR)
        if merged.occupied != s0.occupied:
            raise NotSeparable(f"branch {name} does not return to the start matter")
        walk.append((moved, split + merge))
    return walk


def _trace(spec: ProtocolSpec, energies: list[float], tau: float) -> ProtocolTrace:
    """One tau's trace: steps 2-5 carry each branch's phase, priced by
    its energy, through one wrap per step that adds to it."""
    phases, final_spin = {}, []
    for name, e_shift in zip(BRANCHES, energies):
        # step 2: relaxation to the branch ground state, phase gamma(s)
        phase = wrap_phase(spec.gamma[name])
        # step 3: eigenstate evolution; the vacuum energy is common to
        # all branches and dropped, leaving phi(s) = -(E_rho(s) - E_0) tau
        phases[name] = wrap_phase(-e_shift * tau)
        phase = wrap_phase(phase - e_shift * tau)
        # step 4, merging, adds no phase; step 5 relaxes to the start
        # sector, phase gamma'(s); only the phase differs across branches
        phase = wrap_phase(phase + spec.gamma_prime[name])
        final_spin.append((0.5 + 0.0j) * np.exp(1j * phase))
    final_spin = np.array(final_spin)
    return ProtocolTrace(final_spin, phases, vn_entropy(reduced_spin_a(final_spin)))


def run_protocol(spec: ProtocolSpec, kernels: KernelTable) -> Iterator[ProtocolTrace]:
    """Execute steps 0-5 and return a lazy iterator of one trace per tau
    in ``spec.taus``.

    Step 0 prepares the product state: both spins in (up+down)/sqrt(2),
    matter in the two-charge start configuration, field in that sector's
    ground state. Step 1 applies the spin-conditioned dressed moves in
    both regions; step 2 relaxes each branch to its sector ground state
    adding gamma(s); step 3 evolves phases by the sector energy shifts
    for time tau; step 4 merges with the opposite dressed moves; step 5
    relaxes back to the start sector adding gamma_prime(s) and factors
    out the spin state.

    The unitaries are U_A (x) U_B conditioned on spin, so the branches
    meet only in the readout, and no field is built. Only the phases
    depend on tau: the moves and their proofs (``_branch_walk``) and the
    four sector energies, D lookups at the occupied sites, are taken
    once, when the function is called, so they raise there; each trace
    is built only when the iterator reaches its tau, so a long sweep
    holds one at a time.
    """
    energies = []
    for moved, _dressings in _branch_walk(spec, kernels):
        rows, cols = np.array(sorted(moved.occupied)).T
        energies.append(sector_energy(rows, cols, np.ones(len(rows)), kernels))
    return (_trace(spec, energies, tau) for tau in spec.taus)


def reduced_spin_a(final_spin: np.ndarray) -> np.ndarray:
    """Partial trace over spin B of the pure 4-amplitude state, branch
    order LL, LR, RL, RR."""
    c = np.asarray(final_spin, dtype=complex)
    if c.shape != (4,):
        raise ValueError("final spin state has four amplitudes")
    return np.array(
        [
            [abs(c[0]) ** 2 + abs(c[1]) ** 2, c[0] * np.conj(c[2]) + c[1] * np.conj(c[3])],
            [np.conj(c[0]) * c[2] + np.conj(c[1]) * c[3], abs(c[2]) ** 2 + abs(c[3]) ** 2],
        ]
    )


def vn_entropy(density_matrix: np.ndarray) -> float:
    """Von Neumann entropy -Tr(rho ln rho) in natural log.

    Raises
    ------
    NotDensityMatrix
        Unless the input is Hermitian with unit trace (1e-10) and
        eigenvalues above -1e-10.
    """
    rho = np.asarray(density_matrix, dtype=complex)
    if rho.shape != (2, 2):
        raise NotDensityMatrix(f"expected a 2x2 matrix, got {rho.shape}")
    # the checks on Python scalars: a few numpy calls on a 2x2 cost more than the eigvalsh
    (a, b), (c, d) = rho.tolist()
    if any(abs(x - y.conjugate()) > 1e-10 for x, y in ((a, a), (b, c), (d, d))):
        raise NotDensityMatrix("matrix is not Hermitian")
    trace = a + d
    if abs(trace.real - 1.0) > 1e-10 or abs(trace.imag) > 1e-10:
        raise NotDensityMatrix(f"trace is {trace}, not 1")
    eigenvalues = np.linalg.eigvalsh(rho).tolist()
    if min(eigenvalues) < -1e-10:
        raise NotDensityMatrix(f"negative eigenvalue {min(eigenvalues)}")
    # 0.0 - sum, not -sum: a pure state's entropy is +0.0, as in entropy_from_phases
    return float(0.0 - sum(lam * np.log(lam) for lam in eigenvalues if lam > 1e-15))


def entropy_from_phases(theta: dict) -> float:
    """Closed-form entropy of the 4-phase spin state: with
    Theta = th_LL + th_RR - th_LR - th_RL the reduced eigenvalues are
    (1 +- |cos(Theta/2)|)/2."""
    big = theta["LL"] + theta["RR"] - theta["LR"] - theta["RL"]
    lam = 0.5 * (1.0 + abs(np.cos(0.5 * big)))
    out = 0.0
    for val in (lam, 1.0 - lam):
        if val > 1e-15:
            out -= val * np.log(val)
    return float(out)


def embezzlement_null_test(spec: ProtocolSpec, kernels: KernelTable) -> bool:
    """Apply the splitting and merging unitaries back to back with no
    relaxation or evolution in between and check the state returns to
    step 0 exactly: per branch, the matter returns bit for bit and the
    dressings' displacements on every link sum to exactly 0.0, so the
    field is the start background again; the phase is never touched.
    It reads the protocol's own walk (``_branch_walk``), so the Gauss law
    of every dressed state is proven as there; no field is built and no
    energy is priced.
    """
    try:
        walk = _branch_walk(spec, kernels)
    except NotSeparable:
        return False
    for _moved, dressings in walk:
        net = {}
        for link, displacement in dressings:
            net[link] = net.get(link, 0.0) + displacement
        if any(total != 0.0 for total in net.values()):
            return False
    return True
