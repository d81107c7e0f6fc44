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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from .gaussian import (
    GaussianFieldState,
    NonNeutralWarning,
    coulomb_energy_shift,
    evolve_phase,
    displace,
    gauss_residual,
    wrap_phase,
)
from .grid import GridSpec, ScalarField, VectorField
from .matter import MatterConfig, apply_ladder, density
from .algebra import Region
from .spectral import KernelTable

__all__ = [
    "NotSeparable",
    "NotDensityMatrix",
    "BRANCHES",
    "SPIN_LABELS",
    "ProtocolSpec",
    "BranchState",
    "ProtocolTrace",
    "dressed_move",
    "run_protocol",
    "vn_entropy",
    "reduced_spin_a",
    "entropy_from_phases",
    "embezzlement_null_test",
]

BRANCHES = ("LL", "LR", "RL", "RR")
SPIN_LABELS = {"LL": "uu", "LR": "ud", "RL": "du", "RR": "dd"}
# a branch letter's move direction when splitting, and the reverse move
# that merges it back
_SPLIT_DIR = {"L": "left", "R": "right"}
_MERGE_DIR = {"L": "right", "R": "left"}

_CONSTRAINT_TOL = 1e-9


class NotSeparable(Exception):
    """Matter or field parts differ across branches at the final step,
    the signature of a dressing bug."""


class NotDensityMatrix(Exception):
    """Input failed the Hermitian / unit-trace / positivity checks."""


def _zero_phases():
    return {b: 0.0 for b in BRANCHES}


@dataclass(frozen=True)
class ProtocolSpec:
    """Spatial and timing configuration of one protocol run.

    The two charges start at ``site_a`` and ``site_b`` on a common row,
    each strictly interior to its region together with its displaced
    positions two columns away. ``gamma`` and ``gamma_prime`` are the
    configurable relaxation phases per branch (default zero).
    """

    grid: GridSpec
    site_a: tuple[int, int]
    site_b: tuple[int, int]
    region_a: Region
    region_b: Region
    tau: float = 0.0
    gamma: dict = dataclass_field(default_factory=_zero_phases)
    gamma_prime: dict = dataclass_field(default_factory=_zero_phases)

    def __post_init__(self):
        if not (np.isfinite(self.tau) and self.tau >= 0):
            raise ValueError(f"tau must be finite and nonnegative, got {self.tau}")
        (la, ca), (lb, cb) = self.site_a, self.site_b
        if la != lb:
            raise ValueError("both charges must sit on one row")
        for region, (row, col) in (
            (self.region_a, self.site_a),
            (self.region_b, self.site_b),
        ):
            region.validate_on(self.grid)
            interior = set(region.stencil_interior_sites())
            for dc in range(-2, 3):
                if (row, col + dc) not in interior:
                    raise ValueError(
                        f"site {(row, col + dc)} must be strictly interior to {region}"
                    )
        if not _separated(self.region_a, self.region_b):
            raise ValueError("regions must be disjoint and separated")
        for phases in (self.gamma, self.gamma_prime):
            if set(phases) != set(BRANCHES):
                raise ValueError(f"phase map must cover branches {BRANCHES}")

    def initial_config(self) -> MatterConfig:
        return MatterConfig.from_sites(self.grid, [self.site_a, self.site_b])


def _separated(a: Region, b: Region) -> bool:
    # disjoint with one site of clearance, so supports including the
    # magnetic stencils and dressing links cannot touch
    (ai, aj), (bi, bj) = a.origin, b.origin
    return (
        ai + a.height + 1 <= bi
        or bi + b.height + 1 <= ai
        or aj + a.width + 1 <= bj
        or bj + b.width + 1 <= aj
    )


@dataclass(frozen=True)
class BranchState:
    matter: MatterConfig
    field: GaussianFieldState
    spin_label: str


def branch_constraint_residual(branch: BranchState) -> float:
    """Sourced Gauss-law residual of the branch, restricted to the
    solvable sector (the excluded-mode components of rho are dropped
    with the zero modes)."""
    return gauss_residual(branch.field.shift, density(branch.matter))


def _region_of(spec: ProtocolSpec, name: str) -> Region:
    if name == "A":
        return spec.region_a
    if name == "B":
        return spec.region_b
    raise ValueError(f"region must be 'A' or 'B', got {name!r}")


def dressed_move(
    spec: ProtocolSpec,
    branch: BranchState,
    region: str,
    direction: str,
    dressed: bool = True,
) -> BranchState:
    """Move the region's charge two columns left or right with the
    single-link momentum dressing that repairs the Gauss law.

    A left move from column c displaces p_x at (row, c-1) by -2a, a
    right move displaces p_x at (row, c+1) by +2a; either choice is
    exactly the shift the two affected Gauss crosses need. ``dressed=False``
    is a test hook that skips the displacement and leaves a unit
    constraint violation on those two crosses. The spin label is
    untouched; spin conditioning belongs to the caller.
    """
    reg = _region_of(spec, region)
    occupied_here = sorted(s for s in branch.matter.occupied if reg.contains(s))
    if len(occupied_here) != 1:
        raise ValueError(f"region {region} holds {len(occupied_here)} charges, not 1")
    row, col = occupied_here[0]
    if direction == "left":
        target, link_col, sign = (row, col - 2), col - 1, -1.0
    elif direction == "right":
        target, link_col, sign = (row, col + 2), col + 1, +1.0
    else:
        raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")

    new_matter = apply_ladder(branch.matter, create_at=target, annihilate_at=(row, col))

    new_field = branch.field
    if dressed:
        a = spec.grid.spacing
        delta = VectorField.zeros(spec.grid)
        delta.x.values[row, link_col] = sign * 2.0 * a
        new_field = displace(branch.field, delta)
    return BranchState(new_matter, new_field, branch.spin_label)


@dataclass
class ProtocolTrace:
    """Branch-resolved record of a protocol run. ``states_by_step`` maps
    each step 0..5 to the four (amplitude, BranchState) pairs in branch
    order; ``phases`` records the evolution phase phi per branch;
    ``h_sigma_a`` is the entropy of the reduced spin-A state of
    ``final_spin``, which is the entanglement the protocol generated
    because the matter and field factors coincide at the endpoints."""

    states_by_step: dict
    final_spin: np.ndarray
    phases: dict
    h_sigma_a: float


def _ground_state(
    rho: ScalarField, kernels: KernelTable, phase: float
) -> GaussianFieldState:
    with warnings.catch_warnings():
        # net charge is fixed across branches; only energy differences
        # within the sector are consumed, so the uniform mode is benign
        warnings.simplefilter("ignore", NonNeutralWarning)
        state = GaussianFieldState.from_source(rho, kernels)
    return GaussianFieldState(state.kernel, state.shift, phase=phase)


def _moves(spec, branch, name, directions, regions=("A", "B")) -> BranchState:
    """Apply branch ``name``'s dressed move in each region (its first
    letter steers A, its second B; ``directions`` maps a letter to a
    move direction), then assert the sourced Gauss law."""
    for region in regions:
        letter = name[0] if region == "A" else name[1]
        branch = dressed_move(spec, branch, region, directions[letter])
    if branch_constraint_residual(branch) > _CONSTRAINT_TOL:
        raise AssertionError(f"dressed state violates the Gauss law in {name}")
    return branch


def _record(trace_states, step, entries):
    trace_states[step] = list(entries)
    norm = sum(abs(amp) ** 2 for amp, _ in entries)
    if abs(norm - 1.0) > 1e-12:
        raise AssertionError(f"step {step} amplitudes sum to {norm}")


def run_protocol(spec: ProtocolSpec, kernels: KernelTable) -> ProtocolTrace:
    """Execute steps 0-5 and return the full trace.

    Step 0 prepares the product state: both spins in (up+down)/sqrt(2),
    matter in the two-charge start configuration, field in that sector's
    ground state. Step 1 applies the spin-conditioned dressed moves in
    both regions; step 2 relaxes each branch to its sector ground state
    adding gamma(s); step 3 evolves phases by the sector energy shifts
    for time tau; step 4 merges with the opposite dressed moves; step 5
    relaxes back to the start sector adding gamma_prime(s) and factors
    out the spin state.
    """
    if kernels.grid != spec.grid:
        raise ValueError("kernel table lives on a different grid")
    amp = 0.5 + 0.0j
    s0 = spec.initial_config()
    field0 = _ground_state(density(s0), kernels, phase=0.0)
    states = {}
    branches = {n: BranchState(s0, field0, SPIN_LABELS[n]) for n in BRANCHES}
    _record(states, 0, [(amp, branches[name]) for name in BRANCHES])

    # step 1: spin-conditioned splitting, U = U_A (x) U_B
    for name in BRANCHES:
        branches[name] = _moves(spec, branches[name], name, _SPLIT_DIR)
    _record(states, 1, [(amp, branches[name]) for name in BRANCHES])

    # step 2: relaxation to the branch ground state, phase gamma(s)
    for name, b in branches.items():
        phase = wrap_phase(b.field.phase + spec.gamma[name])
        branches[name] = replace(b, field=_ground_state(density(b.matter), kernels, phase))
    _record(states, 2, [(amp, branches[name]) for name in BRANCHES])

    # step 3: eigenstate evolution; the vacuum energy is common to all
    # branches and dropped, leaving phi(s) = -(E_rho(s) - E_0) tau
    phases = {}
    for name, b in branches.items():
        e_shift = coulomb_energy_shift(density(b.matter), kernels)
        phases[name] = wrap_phase(-e_shift * spec.tau)
        branches[name] = replace(b, field=evolve_phase(b.field, e_shift, spec.tau))
    _record(states, 3, [(amp, branches[name]) for name in BRANCHES])

    # step 4: spin-conditioned merging, U' = U'_A (x) U'_B
    for name in BRANCHES:
        branches[name] = _moves(spec, branches[name], name, _MERGE_DIR)
    _record(states, 4, [(amp, branches[name]) for name in BRANCHES])

    # step 5: relax to the start sector (ground state field0), phase
    # gamma'(s), then factor
    for name, b in branches.items():
        phase = wrap_phase(b.field.phase + spec.gamma_prime[name])
        branches[name] = replace(b, field=replace(field0, phase=phase))
    _record(states, 5, [(amp, branches[name]) for name in BRANCHES])

    reference = branches[BRANCHES[0]]
    for name in BRANCHES[1:]:
        b = branches[name]
        if b.matter.occupied != reference.matter.occupied:
            raise NotSeparable(f"matter configurations differ in branch {name}")
        if (b.field.shift - reference.field.shift).max_abs() > _CONSTRAINT_TOL:
            raise NotSeparable(f"field shifts differ in branch {name}")

    final_spin = np.array(
        [amp * np.exp(1j * branches[name].field.phase) for name in BRANCHES]
    )
    return ProtocolTrace(
        states_by_step=states,
        final_spin=final_spin,
        phases=phases,
        h_sigma_a=vn_entropy(reduced_spin_a(final_spin)),
    )


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
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] not in (2, 4):
        raise NotDensityMatrix(f"expected a 2x2 or 4x4 matrix, got {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise NotDensityMatrix("matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10 or abs(np.trace(rho).imag) > 1e-10:
        raise NotDensityMatrix(f"trace is {np.trace(rho)}, not 1")
    eigenvalues = np.linalg.eigvalsh(rho)
    if np.min(eigenvalues) < -1e-10:
        raise NotDensityMatrix(f"negative eigenvalue {np.min(eigenvalues)}")
    return float(-sum(lam * np.log(lam) for lam in eigenvalues if lam > 1e-15))


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


def embezzlement_null_test(
    spec: ProtocolSpec,
    kernels: KernelTable,
    regions: tuple = ("A", "B"),
) -> bool:
    """Apply the splitting and merging unitaries back to back with no
    relaxation or evolution in between and check the state returns to
    step 0 exactly: bit-equal matter, field shifts within 1e-12, phases
    unchanged after wrapping, spins restored to the product plus state.
    Both dressed states are held to the Gauss law, as in the protocol.

    ``regions`` restricts the moves to a subset of regions, exercising
    the factorized form of the two unitaries.
    """
    s0 = spec.initial_config()
    field0 = _ground_state(density(s0), kernels, phase=0.0)
    ok = True
    for name in BRANCHES:
        b = BranchState(s0, field0, SPIN_LABELS[name])
        b = _moves(spec, b, name, _SPLIT_DIR, regions)
        b = _moves(spec, b, name, _MERGE_DIR, regions)
        ok = ok and b.matter.occupied == s0.occupied
        ok = ok and (b.field.shift - field0.shift).max_abs() < 1e-12
        ok = ok and abs(wrap_phase(b.field.phase - field0.phase)) < 1e-12
    return ok
