"""Acceptance suite: one callable per criterion, shared by the CLI
``selftest`` subcommand and the pytest acceptance module.

Each criterion returns (passed, detail lines). Expected constants were
computed from the stated independent oracles (closed forms, mode
enumeration, exact rational ranks, quadrature), never transcribed.
"""

from __future__ import annotations

import inspect
import time
import warnings

import numpy as np

from . import algebra, continuum, dynamics, fme, gaussian, matter, spectral
from .grid import GridSpec, ScalarField, VectorField, dbar, divergence, sum_by_parts_residual

__all__ = ["CRITERIA", "run_criterion", "run_all"]


def _rng(seed):
    return np.random.default_rng(seed)


def _random_field(grid, rng):
    return ScalarField(grid, rng.standard_normal(grid.shape))


def criterion_1_discrete_calculus(seed=0):
    """Schwarz commutation, symmetric product rule, and periodic
    summation-by-parts hold below 1e-12 for 100 random fields at
    N in {5, 8, 9}."""
    worst = 0.0
    for n in (5, 8, 9):
        grid = GridSpec(n, 1.0)
        rng = _rng(seed + n)
        for _ in range(100):
            f = _random_field(grid, rng)
            g = _random_field(grid, rng)
            schwarz = (dbar(dbar(f, "x"), "y") - dbar(dbar(f, "y"), "x")).max_abs()
            fg = ScalarField(grid, f.values * g.values)
            for direction, axis in (("x", 1), ("y", 0)):
                mid_g = 0.5 * (np.roll(g.values, -1, axis) + np.roll(g.values, 1, axis))
                mid_f = 0.5 * (np.roll(f.values, -1, axis) + np.roll(f.values, 1, axis))
                product_rule = np.max(
                    np.abs(
                        dbar(fg, direction).values
                        - mid_g * dbar(f, direction).values
                        - mid_f * dbar(g, direction).values
                    )
                )
                parts = abs(sum_by_parts_residual(f, g, direction))
                worst = max(worst, product_rule, parts)
            worst = max(worst, schwarz)
    return worst < 1e-12, [f"worst residual {worst:.3e} (< 1e-12)"]


def _dft_matrix(n):
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n)


def _direct_dft(values):
    """The defining double sum, ``modes[alpha, beta] = sum_ij E[alpha, i]
    f[i, j] E[beta, j]``: criterion 2's oracle of ``dft_forward``."""
    e = _dft_matrix(values.shape[0])
    return np.einsum("ai,ij,bj->ab", e, values.astype(complex), e)


def criterion_2_dft(seed=0):
    """DFT round-trip, Parseval, differentiation rule, and the Kronecker
    identity within 1e-10 relative at N in {4, 5, 16}, direct-sum oracle
    included."""
    worst = 0.0
    for n in (4, 5, 16):
        grid = GridSpec(n, 1.0)
        rng = _rng(seed + n)
        f = _random_field(grid, rng)
        g = _random_field(grid, rng)
        ft = spectral.dft_forward(f)
        scale = np.max(np.abs(ft.modes))
        worst = max(worst, np.max(np.abs(ft.modes - _direct_dft(f.values))) / scale)
        back = spectral.dft_inverse(ft)
        worst = max(worst, np.max(np.abs(back.values - f.values)) / np.max(np.abs(f.values)))
        # Parseval: sum f g = (1/N^2) sum f~ conj(g~)
        gt = spectral.dft_forward(g)
        lhs = np.sum(f.values * g.values)
        rhs = np.sum(ft.modes * np.conj(gt.modes)).real / n**2
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-30))
        # differentiation
        kx, ky, _ = spectral.wave_number_table(grid)
        for direction, karr in (("x", kx), ("y", ky)):
            dft_of_deriv = spectral.dft_forward(dbar(f, direction)).modes
            worst = max(
                worst,
                np.max(np.abs(dft_of_deriv - 1j * karr * ft.modes)) / scale,
            )
        # Kronecker identity at N = 5 for all index pairs
        if n == 5:
            j = np.arange(n)
            for alpha in range(n):
                for gamma_idx in range(n):
                    val = np.sum(np.exp(2j * np.pi * (gamma_idx - alpha) * j / n)) / n
                    expect = 1.0 if alpha == gamma_idx else 0.0
                    worst = max(worst, abs(val - expect))
    return worst < 1e-10, [f"worst relative defect {worst:.3e} (< 1e-10)"]


def criterion_3_ground_energy():
    """Vacuum energy at N = 3, a = 1 equals the mode-enumeration oracle
    (closed form sqrt(3) (1 + sqrt(2))) within 1e-9, and the packaged
    value equals the per-mode half-sum exactly for N up to 64."""
    grid = GridSpec(3, 1.0)
    value = gaussian.ground_energy(grid)
    oracle = 0.0
    for alpha in range(3):
        for beta in range(3):
            oracle += 0.5 * np.hypot(*spectral.wave_vector(grid, alpha, beta))
    closed_form = np.sqrt(3.0) * (1.0 + np.sqrt(2.0))
    ok = abs(value - oracle) < 1e-9 and abs(value - closed_form) < 1e-9
    lines = [f"E0(3,1) = {value:.9f}, oracle {oracle:.9f}, closed form {closed_form:.9f}"]
    for n in range(3, 65):
        g = GridSpec(n, 1.0)
        table = np.hypot(*np.meshgrid(
            np.sin(2 * np.pi * np.arange(n) / n),
            np.sin(2 * np.pi * np.arange(n) / n),
            indexing="ij",
        ))
        per_mode = 0.5 * float(np.sum(table))
        if gaussian.ground_energy(g) != per_mode:
            ok = False
            lines.append(f"N={n}: ground_energy differs from the per-mode sum")
            break
    else:
        lines.append("per-mode half-sum matched exactly for N = 3..64")
    return ok, lines


def criterion_4_gauss_solver(seed=0):
    """divergence(coulomb_momentum(rho)) + (rho - mean rho) below 1e-9
    in infinity norm for 20 random integer charge fields at N = 31."""
    grid = GridSpec(31, 1.0)
    kernels = spectral.build_kernels(grid)
    rng = _rng(seed)
    worst = 0.0
    for _ in range(20):
        rho = ScalarField(grid, rng.integers(-3, 4, size=grid.shape).astype(float))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", gaussian.NonNeutralWarning)
            p = gaussian.coulomb_momentum(rho, kernels)
        res = divergence(p).values + rho.values - rho.values.mean()
        worst = max(worst, float(np.max(np.abs(res))))
    return worst < 1e-9, [f"worst constraint residual {worst:.3e} (< 1e-9)"]


def criterion_5_leapfrog(seed=0):
    """Vacuum leapfrog at N = 16, dt = 0.05 over 1e4 steps of the
    ``dynamics`` trajectory: constraint residual growth (worst step)
    below 1e-9 and running-mean energy drift (second half vs first half)
    below 1e-6 relative."""
    grid = GridSpec(16, 1.0)
    rng = _rng(seed)
    state = dynamics.PhaseSpaceState.random(grid, rng)
    source = dynamics.SourceConfig.vacuum(grid)
    n_steps = 10_000
    rows = dynamics.trajectory(state, source, 0.05, n_steps)
    _t, h0, res0 = next(rows)
    first = second = 0.0
    worst_res = 0.0
    for k, (_t, h, res) in enumerate(rows):
        if k < n_steps // 2:
            first += h
        else:
            second += h
        worst_res = max(worst_res, res)
    drift = abs(second - first) / (n_steps // 2) / abs(h0)
    growth = abs(worst_res - res0)
    ok = growth < 1e-9 and drift < 1e-6
    return ok, [
        f"constraint residual growth {growth:.3e} (< 1e-9)",
        f"running-mean energy drift {drift:.3e} (< 1e-6)",
    ]


def criterion_6_b_minimality():
    """Pure-q gauge-invariant nullspace: exactly one dimension on the
    tight cross support, spanned by the magnetic cross; dimension
    (M-2)^2 = 4 on the M = 4 square."""
    grid = GridSpec(9, 1.0)
    center = (4, 4)
    support = [
        (center[0] + 1, center[1]),
        (center[0] - 1, center[1]),
        (center[0], center[1] + 1),
        (center[0], center[1] - 1),
    ]
    basis = algebra.gauge_invariant_nullspace(support, grid)
    lines = [f"cross-support nullspace dimension {len(basis)}"]
    ok = len(basis) == 1
    if ok:
        b = algebra.b_operator(grid, center)
        op = basis[0]
        keys = set(op.q_coeffs) | set(b.q_coeffs)
        ratios = {op.q_coeffs.get(k, 0) / b.q_coeffs[k] for k in keys}
        ok = len(ratios) == 1 and 0 not in ratios
        lines.append(f"proportional to the magnetic cross: {ok}")
    grid11 = GridSpec(11, 1.0)
    square = algebra.Region((3, 3), 4)
    dim = len(algebra.gauge_invariant_nullspace(square, grid11))
    lines.append(f"M=4 square nullspace dimension {dim} (expect 4)")
    ok = ok and dim == 4
    return ok, lines


def criterion_7_center():
    """M = 5 region on N = 11: every interior Gauss cross lies in the
    exact center span, the center dimension is 2 M^2 - (M-2)^2 = 41, and
    every basis element commutes with every generator exactly."""
    grid = GridSpec(11, 1.0)
    region = algebra.Region((3, 3), 5)
    basis = algebra.center_basis(region, grid)
    gens = algebra.local_generators(region, grid)
    dim_ok = len(basis.generators) == 41
    cross_ok = all(
        algebra.in_center_span(algebra.constraint_operator(grid, site), region, grid)
        for site in region.stencil_interior_sites()
    )
    commute_ok = all(
        algebra.commutator_scalar(z, g) == 0
        for z in basis.generators
        for g in gens.generators
    )
    ok = dim_ok and cross_ok and commute_ok
    return ok, [
        f"center dimension {len(basis.generators)} (expect 41)",
        f"interior crosses in span: {cross_ok}",
        f"all center elements commute with all generators: {commute_ok}",
    ]


def criterion_8_dressing():
    """Every dressed move keeps the sourced constraint residual below
    1e-9; with the dressing left off the residual is exactly one at the
    two affected crosses and zero elsewhere. The fields are built here
    from the start background and the dressing ``fme.dressed_move``
    returns: the numerical check of its exact proof."""
    spec = fme.ProtocolSpec(GridSpec(25, 1.0), (12, 7), (12, 17), size=7)
    kernels = spectral.build_kernels(spec.grid)
    s0 = spec.initial_config()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", gaussian.NonNeutralWarning)
        p0 = gaussian.coulomb_momentum(matter.density(s0), kernels)
    lines = []
    ok = True
    for region, direction in (("A", "left"), ("A", "right"), ("B", "left"), ("B", "right")):
        moved, link, displacement = fme.dressed_move(spec, s0, region, direction)
        rho = matter.density(moved)
        px = p0.x.values.copy()
        px[link] += displacement
        dressed = VectorField.from_arrays(spec.grid, px, p0.y.values)
        res = gaussian.gauss_residual(dressed, rho)
        ok = ok and res < 1e-9
        lines.append(f"{region} {direction}: dressed residual {res:.2e}")
        field_res = divergence(p0).values + rho.values - rho.values.mean()
        site = spec.site_a if region == "A" else spec.site_b
        shift = -2 if direction == "left" else 2
        affected = {site, (site[0], site[1] + shift)}
        for test_site in affected:
            ok = ok and abs(abs(field_res[test_site]) - 1.0) < 1e-12
        others = np.abs(field_res.copy())
        for test_site in affected:
            others[test_site] = 0.0
        ok = ok and float(np.max(others)) < 1e-12
    lines.append("undressed residual is exactly 1 on the two affected crosses")
    return ok, lines


def criterion_9_embezzlement():
    """Splitting immediately followed by merging restores the initial
    state exactly, and the tau = 0 protocol yields entropy below 1e-12."""
    grid = GridSpec(101, 1.0)
    spec = fme.ProtocolSpec(grid, (50, 40), (50, 60), size=7, taus=(0.0,))
    kernels = spectral.build_kernels(grid)
    null_ok = fme.embezzlement_null_test(spec, kernels)
    (trace,) = fme.run_protocol(spec, kernels)
    entropy = trace.h_sigma_a
    ok = null_ok and entropy < 1e-12
    return ok, [
        f"null test restored the initial state: {null_ok}",
        f"tau = 0 protocol entropy {entropy:.3e} (< 1e-12)",
    ]


def criterion_10_fme_entanglement():
    """N = 101, charges 20 apart, displacement 2: swept entropies match
    the closed-form 4-phase model within 1e-9 pointwise, reach ln 2 at
    the pi-imbalance tau within 1e-6, and stay strictly positive at a
    generic tau because 2 D(d) differs from D(d+4) + D(d-4)."""
    grid = GridSpec(101, 1.0)
    kernels = spectral.build_kernels(grid)
    d = 20
    curvature = (
        2.0 * kernels.d(0, d) - kernels.d(0, d + 4) - kernels.d(0, d - 4)
    )
    lines = [f"2D(d) - D(d+4) - D(d-4) = {curvature:.6e} (nonzero)"]
    ok = abs(curvature) > 1e-6

    # one spec: the 21-point sweep, the pi-imbalance tau and a generic tau
    tau_star = np.pi / abs(curvature)
    taus = (*np.linspace(0.0, 2.0 * tau_star, 21), tau_star, 0.37 * tau_star)
    spec = fme.ProtocolSpec(grid, (50, 40), (50, 60), size=7, taus=taus)
    *sweep, peak, generic = fme.run_protocol(spec, kernels)
    worst_mismatch = max(abs(t.h_sigma_a - fme.entropy_from_phases(t.phases)) for t in sweep)
    ok = ok and worst_mismatch < 1e-9
    lines.append(f"worst |entropy - closed form| over sweep {worst_mismatch:.3e} (< 1e-9)")
    ok = ok and abs(peak.h_sigma_a - np.log(2.0)) < 1e-6
    lines.append(f"entropy at pi-imbalance tau {peak.h_sigma_a:.9f} vs ln 2 (within 1e-6)")
    ok = ok and generic.h_sigma_a > 1e-6
    lines.append(f"entropy at generic tau {generic.h_sigma_a:.6f} (> 0)")
    return ok, lines


def criterion_11_continuum_log():
    """[D(1) - D(2)]/ln 2 at N = 201 against the continuum integral
    oracle within 5e-3 and against the (2,4)-pair estimate within 2%;
    r G(r) increments shrink over N in {51, 101, 201}.

    The first two clauses compare separations of opposite parity, which
    the symmetric-derivative dispersion does not allow to converge (its
    doubler corners contribute a log(N)-divergent staggered part), so
    they fail; the diagnostics below document the failure and show the
    parity-safe version of the same law converging.
    """
    n_list = [51, 101, 201]
    pair_12, pair_24, pair_48 = continuum.d_log_check(n_list, [(1, 2), (2, 4), (4, 8)])
    oracle = continuum.continuum_log_coefficient()
    v12 = pair_12.values[-1]
    v24 = pair_24.values[-1]
    clause_a = abs(v12 - oracle) < 5e-3
    clause_b = abs(v12 - v24) < 0.02 * abs(v24)
    g_series = continuum.g_scaling_check(n_list, 5)
    clause_c = g_series.differences_shrink()
    lines = [
        f"[D(1)-D(2)]/ln2 at N=201: {v12:.6f} vs continuum oracle {oracle:.6f} -> {'OK' if clause_a else 'FAIL'}",
        f"(1,2) vs (2,4) estimates: {v12:.6f} vs {v24:.6f} -> {'OK' if clause_b else 'FAIL'}",
        f"r*G(r) increments {['%.3e' % d for d in g_series.successive_differences()]} shrink -> {'OK' if clause_c else 'FAIL'}",
    ]
    if not (clause_a and clause_b):
        bz_24 = continuum.bz_d_difference(2, 4) / np.log(2.0)
        lines += [
            "diagnosis: separations 1 and 2 have opposite parity; the sine",
            "dispersion's doubler corners add a staggered log(N) divergence",
            f"(series {['%.3f' % v for v in pair_12.values]} keeps growing).",
            f"The parity-safe law does hold: (2,4) -> {v24:.6f}, (4,8) -> "
            f"{pair_48.values[-1]:.6f}, quadrature oracle {bz_24:.6f}.",
        ]
    return bool(clause_a and clause_b and clause_c), lines


CRITERIA = [
    ("1", "discrete calculus identities", criterion_1_discrete_calculus),
    ("2", "DFT suite", criterion_2_dft),
    ("3", "vacuum ground energy", criterion_3_ground_energy),
    ("4", "Gauss-law solver", criterion_4_gauss_solver),
    ("5", "constraint conservation", criterion_5_leapfrog),
    ("6", "b-minimality", criterion_6_b_minimality),
    ("7", "center structure", criterion_7_center),
    ("8", "dressing repairs Gauss law", criterion_8_dressing),
    ("9", "embezzlement null test", criterion_9_embezzlement),
    ("10", "FME entanglement", criterion_10_fme_entanglement),
    ("11", "continuum log law", criterion_11_continuum_log),
]


def _call(func, seed):
    # randomized criteria take a seed; the rest are deterministic
    if "seed" in inspect.signature(func).parameters:
        return func(seed=seed)
    return func()


def run_criterion(number: str, seed: int = 0):
    for num, name, func in CRITERIA:
        if num == number:
            passed, lines = _call(func, seed)
            return bool(passed), lines
    raise KeyError(f"no criterion numbered {number}")


def run_all(numbers=None, seed: int = 0):
    """Run the requested criteria (all by default), print one PASS/FAIL
    line each, and return True iff everything passed. The criteria are
    seed-independent truths; the seed only relabels the random draws."""
    all_ok = True
    for num, name, func in CRITERIA:
        if numbers and num not in numbers:
            continue
        start = time.time()
        passed, lines = _call(func, seed)
        passed = bool(passed)
        elapsed = time.time() - start
        status = "PASS" if passed else "FAIL"
        print(f"[{status}] criterion {num}: {name} ({elapsed:.1f}s)")
        for line in lines:
            print(f"       {line}")
        all_ok = all_ok and passed
    return all_ok
