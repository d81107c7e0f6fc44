"""A mutation battery: each test plants one defect with one monkeypatch
and asserts that the named existing check catches it. A mutant that
survives means that check has gone blind.

The test modules are imported as modules, not their classes, so pytest
does not collect their tests a second time here.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

import test_algebra
import test_cli
import test_dynamics
import test_fme
import test_gaussian
import test_grid
import test_spectral
from latgauge import acceptance, algebra, cli, dynamics, fme, gaussian, spectral
from latgauge.algebra import Label, Region
from latgauge.grid import GridSpec, ScalarField
from latgauge.matter import MatterConfig


def test_power_one_d_fails_criterion_10(monkeypatch):
    # G in place of D: the backgrounds no longer solve the Gauss law
    kernel_values = spectral.kernel_values
    monkeypatch.setattr(
        spectral,
        "build_kernels",
        lambda grid: spectral.KernelTable(grid, kernel_values(grid, 1)),
    )
    with pytest.raises(AssertionError, match="violates the Gauss law"):
        acceptance.run_criterion("10")


def _run_small_protocol():
    # a fresh table, so its Gauss proof is taken under the mutant
    spec = test_fme.small_spec(taus=(1.0,))
    fme.run_protocol(spec, spectral.build_kernels(spec.grid))


def _run_small_null_test():
    spec = test_fme.small_spec()
    return fme.embezzlement_null_test(spec, spectral.build_kernels(spec.grid))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda grid, target, link, displacement: (target, grid.wrap(link[0], link[1] + 1), displacement),
        lambda grid, target, link, displacement: (target, link, -displacement),
    ],
    ids=["link-column", "displacement-sign"],
)
def test_wrong_dressing_fails_geometry_check(monkeypatch, mutate):
    geometry = fme.dressing_geometry
    monkeypatch.setattr(
        fme, "dressing_geometry", lambda grid, site, direction: mutate(grid, *geometry(grid, site, direction))
    )
    with pytest.raises(AssertionError, match="does not repair the Gauss law"):
        _run_small_protocol()


@pytest.mark.parametrize(
    "run", [_run_small_protocol, _run_small_null_test], ids=["protocol", "null-test"]
)
def test_undressed_move_fails_dressing_check(monkeypatch, run):
    # the bare charge move: both callers of the one dressed move prove it
    geometry = fme.dressing_geometry
    monkeypatch.setattr(
        fme, "dressing_geometry", lambda grid, site, direction: (*geometry(grid, site, direction)[:2], 0.0)
    )
    with pytest.raises(AssertionError, match="does not repair the Gauss law"):
        run()


def test_merge_in_split_direction_fails_null_test(monkeypatch, tmp_path, capsys):
    # each charge moves on by two more columns instead of back
    monkeypatch.setattr(fme, "_MERGE_DIR", fme._SPLIT_DIR)
    assert _run_small_null_test() is False
    argv = ["--cache-dir", str(tmp_path), "fme", "--n", "25", "--sites", "12,7:12,17", "--null-test"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().out == "embezzlement null test: FAIL\n"


_ZERO_PHASES = {name: 0.0 for name in fme.BRANCHES}
_LOCC_CASE = dict(
    grid=GridSpec(25, 1.0), site_a=(12, 7), site_b=(12, 17), size=7,
    gamma=_ZERO_PHASES, gamma_prime=_ZERO_PHASES,
)


def _assert_locc_property_catches(monkeypatch, name, mutant):
    # the property holds on the fixed case, then fails once fme.<name>
    # is the mutant
    locc = test_fme.TestLocc.test_entropy_from_d_lookups_alone.hypothesis.inner_test
    locc(test_fme.TestLocc(), case=_LOCC_CASE, tau=40.0)
    monkeypatch.setattr(fme, name, mutant)
    with pytest.raises(AssertionError):
        locc(test_fme.TestLocc(), case=_LOCC_CASE, tau=40.0)


def test_energy_handed_to_another_branch_fails_locc_property(monkeypatch):
    # the walk gives branch LR branch LL's step-2 matter, so LR is priced
    # at LL's energy and Theta moves by tau (D(d) - D(d+4))
    walk = fme._branch_walk

    def handed(spec, kernels):
        steps = walk(spec, kernels)
        return [steps[0], steps[0], *steps[2:]]

    _assert_locc_property_catches(monkeypatch, "_branch_walk", handed)


def test_lr_priced_at_d_plus_2_fails_locc_property(monkeypatch):
    # branch LR's step-2 matter has only charge A moved, so LR is priced
    # at separation d+2 instead of d+4
    walk = fme._branch_walk

    def lr_at_d_plus_2(spec, kernels):
        steps = walk(spec, kernels)
        (row, col_a), site_b = spec.site_a, spec.site_b
        moved = MatterConfig.from_sites(spec.grid, [(row, col_a - 2), site_b])
        return [steps[0], (moved, steps[1][1]), *steps[2:]]

    _assert_locc_property_catches(monkeypatch, "_branch_walk", lr_at_d_plus_2)


def test_non_product_relaxation_phase_fails_locc_property(monkeypatch):
    # step 2 adds a phase to branch LL alone, which no gamma_A(s_A) +
    # gamma_B(s_B) can give: a local operation that entangles at tau = 0
    trace = fme._trace

    def non_product(spec, energies, tau):
        gamma = dict(spec.gamma, LL=spec.gamma["LL"] + 1.0)
        return trace(replace(spec, gamma=gamma), energies, tau)

    _assert_locc_property_catches(monkeypatch, "_trace", non_product)


def test_gauss_bound_without_allowance_fails_field_building_oracle(monkeypatch):
    # Q r0 alone: at N = 28, a = 0.3 the oracle's worst residual is about
    # 2.55 r0, above Q r0 = 2 r0, so only the rounding allowance covers it
    grid = GridSpec(28, 0.3)
    spec = fme.ProtocolSpec(grid, (14, 4), (14, 14), taus=(1.0,))
    oracle = test_fme.TestProvenGaussLaw.test_matches_field_building_oracle.hypothesis.inner_test
    oracle(test_fme.TestProvenGaussLaw(), spec=spec)
    monkeypatch.setattr(
        test_fme,
        "gauss_bound",
        lambda charges, kernels: float(np.sum(np.abs(charges))) * gaussian._unit_proof(kernels)[0],
    )
    with pytest.raises(AssertionError):
        oracle(test_fme.TestProvenGaussLaw(), spec=spec)


def test_unguarded_wrap_fails_field_building_oracle(monkeypatch):
    # the wrap formula alone returns -pi for a phase one ulp above pi; the
    # oracle, which wraps each step twice with the guarded wrap, carries pi.
    # A gamma(LL) there makes the mutant carry -pi into step 3
    edge = float(np.nextafter(np.pi, np.inf))
    spec = test_fme.small_spec(taus=(0.7,), gamma={"LL": edge, "LR": 0.0, "RL": 0.0, "RR": 0.0})
    oracle = test_fme.TestProvenGaussLaw.test_matches_field_building_oracle.hypothesis.inner_test
    oracle(test_fme.TestProvenGaussLaw(), spec=spec)
    monkeypatch.setattr(fme, "wrap_phase", lambda phi: float(np.pi - (np.pi - phi) % (2 * np.pi)))
    with pytest.raises(AssertionError):
        oracle(test_fme.TestProvenGaussLaw(), spec=spec)


def test_sector_energy_at_summed_column_fails_double_sum_oracle(monkeypatch):
    # D read at (i - rows, j + cols), which equals the true offset
    # j - cols only where 2 cols = 0 mod N
    def summed_column(rows, cols, charges, kernels):
        n = kernels.grid.n
        total = 0.0
        for i, j, q in zip(rows, cols, charges):
            total += q * (charges @ kernels.d_values[(i - rows) % n, (j + cols) % n])
        return 0.5 * float(total)

    monkeypatch.setattr(gaussian, "sector_energy", summed_column)
    with pytest.raises(AssertionError):
        test_gaussian.TestCoulombEnergyShift().test_real_space_double_sum_oracle()


def test_perturbed_unit_background_fails_gauss_bound(monkeypatch):
    # P_x = dbar_x D off by 1e-8 at one site
    derivative = gaussian.dbar

    def perturbed(field, direction):
        p = derivative(field, direction)
        if direction != "x":
            return p
        px = p.values.copy()
        px[0, 1] += 1e-8
        return ScalarField(p.grid, px)

    monkeypatch.setattr(gaussian, "dbar", perturbed)
    with pytest.raises(AssertionError, match="violates the Gauss law"):
        _run_small_protocol()


def test_swapped_unit_background_fails_gauss_bound(monkeypatch):
    # P = (dbar_y D, dbar_x D): div P is 2 dbar_x dbar_y D, not -delta,
    # so r0 rises from 3.8e-16 to 0.998 at N = 25
    derivative = gaussian.dbar
    swap = {"x": "y", "y": "x"}
    monkeypatch.setattr(gaussian, "dbar", lambda field, direction: derivative(field, swap[direction]))
    with pytest.raises(AssertionError, match="violates the Gauss law"):
        _run_small_protocol()


def test_rolled_d_fails_mode_space_oracle(monkeypatch):
    build = spectral.build_kernels
    monkeypatch.setattr(
        test_gaussian,
        "build_kernels",
        lambda grid: spectral.KernelTable(grid, np.roll(build(grid).d_values, 1, axis=1)),
    )
    with pytest.raises(AssertionError):
        test_gaussian.TestCoulombMomentum().test_matches_mode_space_oracle(15, "neutral")


def test_payload_read_one_double_late_fails_evenness(monkeypatch, tmp_path):
    # each slot takes its successor's double, the first wrapping to the end
    fromfile = np.fromfile
    monkeypatch.setattr(
        np, "fromfile", lambda fh, dtype, count: np.roll(fromfile(fh, dtype=dtype, count=count), -1)
    )
    with pytest.raises(AssertionError, match="not even"):
        test_spectral.TestKernelCache().test_round_trip(tmp_path)


@pytest.mark.parametrize("n", [5, 8])
def test_kept_zero_mode_fails_zero_mode_count(monkeypatch, n):
    mode_weights = spectral._mode_weights

    def leaky(grid, power):
        weights, kept = mode_weights(grid, power)
        kept = kept.copy()
        kept[0, 0] = True
        return weights, kept

    monkeypatch.setattr(spectral, "_mode_weights", leaky)
    with pytest.raises(AssertionError, match="zero modes"):
        spectral.build_kernels(GridSpec(n, 1.0))


@pytest.mark.parametrize(
    "check",
    [
        lambda tmp, cap: test_cli.TestFmeCommand().test_non_ascii_digits_are_usage_error(tmp, cap),
        lambda tmp, cap: test_cli.TestAlgebraCommand().test_malformed_region_is_usage_error(
            tmp, cap, "\u0662,2,3"
        ),
        lambda tmp, cap: test_cli.TestContinuumCommand().test_bad_n_list_is_usage_error(
            tmp, cap, "\u0664\u0660,80"
        ),
    ],
    ids=["sites", "region", "n-list"],
)
def test_unicode_digits_fail_non_ascii_tests(monkeypatch, tmp_path, capsys, check):
    # \d also matches full-width and Arabic-Indic digits, which int() reads
    monkeypatch.setattr(cli, "_INT", re.compile(r"[+-]?\d+"))
    with pytest.raises(AssertionError):
        check(tmp_path, capsys)


@pytest.mark.parametrize(
    "check",
    [
        lambda tmp, cap: test_cli.TestContinuumCommand().test_duplicate_pairs_are_usage_error(tmp, cap),
        lambda tmp, cap: test_cli.TestContinuumCommand().test_bad_n_list_is_usage_error(
            tmp, cap, "40,40"
        ),
    ],
    ids=["pairs", "n-list"],
)
def test_dropped_duplicate_check_fails_duplicate_tests(monkeypatch, tmp_path, capsys, check):
    parse = cli._parse_ints

    def without_duplicate_check(text, sep, *grammar):
        # one chunk alone holds no duplicate to find
        entries = [e for chunk in text.split(sep) if chunk.strip() for e in parse(chunk, sep, *grammar)]
        return entries or parse(text, sep, *grammar)

    monkeypatch.setattr(cli, "_parse_ints", without_duplicate_check)
    with pytest.raises(AssertionError):
        check(tmp_path, capsys)


def test_dropped_criterion_check_fails_unknown_criterion_test(monkeypatch, capsys):
    def without_name_check(cfg):
        numbers = {str(c) for (c,) in cfg.criteria}
        return 0 if acceptance.run_all(numbers, seed=cfg.seed) else 1

    monkeypatch.setitem(cli._COMMANDS, "selftest", without_name_check)
    with pytest.raises(AssertionError):
        test_cli.TestSelftestCommand().test_unknown_criterion_is_usage_error(capsys)


def _other_parity_dropped(region):
    # the four entries the closed form drops for a region of the other parity
    bottom, left = region.origin[0] + region.size - 1, region.origin[1]
    right = left + region.size - 1
    if region.size % 2:
        return {Label("CORNER", site, comp) for site in ((bottom, left), (bottom, right)) for comp in "xy"}
    return {
        Label("EDGE", (bottom, right), "cross"),
        Label("EDGE", (bottom, right - 1), "normal-py"),
        Label("CORNER", (bottom, right), "x"),
        Label("CORNER", (bottom, right), "y"),
    }


def test_other_parity_drop_fails_independence_proof(monkeypatch, tmp_path):
    # odd M: the kept entries include a dependent one
    monkeypatch.setattr(algebra, "_dropped_labels", _other_parity_dropped)
    with pytest.raises(ValueError, match="linearly dependent"):
        algebra.center_basis(Region((2, 2), 5), GridSpec(11, 1.0))
    argv = ["--cache-dir", str(tmp_path), "algebra", "--n", "11", "--region", "2,2,5",
            "--dump", str(tmp_path / "dump.json")]
    assert cli.main(argv) == 1


def test_other_parity_drop_fails_greedy_label_oracle(monkeypatch):
    # even M: the kept entries are another basis of the center, so every
    # proof passes and only the labels differ from the greedy pick's
    monkeypatch.setattr(algebra, "_dropped_labels", _other_parity_dropped)
    with pytest.raises(AssertionError):
        test_algebra.TestCenterLabels().test_catalog_kept_but_four_bottom_corner_entries(8)


def test_center_dimension_off_by_one_fails_size_check(monkeypatch):
    dimension = algebra.center_dimension
    monkeypatch.setattr(algebra, "center_dimension", lambda region, grid: dimension(region, grid) + 1)
    with pytest.raises(AssertionError, match="center dimensions"):
        algebra.center_basis(Region((2, 2), 6), GridSpec(11, 1.0))


def test_skipped_cross_commutators_fail_non_member_test(monkeypatch):
    # support and q checks alone accept any p combination in the region;
    # TestCenterOracle's `mixed` operator has a q part, so it misses this
    def without_commutators(op, region, grid):
        return not op.q_coeffs and all(region.contains(site) for site, _comp in op.p_coeffs)

    monkeypatch.setattr(test_algebra, "in_center_span", without_commutators)
    with pytest.raises(AssertionError):
        test_algebra.TestCenter().test_non_member_rejected()


def test_plain_dict_coefficients_fail_read_only_center_test(monkeypatch):
    # the operator keeps its cleaned coefficients as plain dicts again, so
    # a proven center element can be rewritten in place
    clean = algebra._clean
    monkeypatch.setattr(algebra, "_clean", lambda coeffs: dict(clean(coeffs)))
    with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
        test_grid.TestFrozenValues().test_center_basis_elements_are_read_only()


def _leapfrog_loop(refresh=True, start_scale=1.0):
    """``dynamics._kick_drift_kick`` as written, or with its carried force
    left stale after the first step (``refresh=False``) or its start
    force scaled by ``start_scale``."""

    def loop(qx, qy, px, py, source, dt, n_steps, a):
        fx, fy, _b = dynamics._force(qx, qy, source, a)
        fx, fy = fx * start_scale, fy * start_scale
        for _ in range(n_steps):
            px += 0.5 * dt * fx
            py += 0.5 * dt * fy
            qx += dt * px
            qy += dt * py
            gx, gy, b = dynamics._force(qx, qy, source, a)
            px += 0.5 * dt * gx
            py += 0.5 * dt * gy
            if refresh:
                fx, fy = gx, gy
            yield b

    return loop


def _rows_equal_stepwise_oracle():
    test_dynamics.TestTrajectory().test_rows_equal_stepwise_oracle(8, 1.0, 0.05, 200)


@pytest.mark.parametrize(
    "mutant, caught",
    [({"refresh": False}, dynamics.UnstableStep), ({"start_scale": 1 + 1e-15}, AssertionError)],
    ids=["stale-carried-force", "scaled-start-force"],
)
def test_leapfrog_force_mutant_fails_stepwise_oracle(monkeypatch, mutant, caught):
    # trajectory runs one loop of n steps, the oracle n loops of one
    # step, so a carried or start force that is off shows in the rows.
    # The stale force drifts H by 1% in six steps, so the test stops at
    # trajectory's drift check before its rows reach the comparison
    monkeypatch.setattr(dynamics, "_kick_drift_kick", _leapfrog_loop())
    _rows_equal_stepwise_oracle()
    monkeypatch.setattr(dynamics, "_kick_drift_kick", _leapfrog_loop(**mutant))
    with pytest.raises(caught):
        _rows_equal_stepwise_oracle()


def test_time_from_step_count_fails_stepwise_oracle(monkeypatch):
    # t = time + dt * step rounds differently from adding dt once a step
    trajectory = dynamics.trajectory

    def time_from_step(state, source, dt, n_steps):
        for step, (_t, h, residual) in enumerate(trajectory(state, source, dt, n_steps)):
            yield state.time + dt * step, h, residual

    monkeypatch.setattr(test_dynamics, "trajectory", time_from_step)
    with pytest.raises(AssertionError):
        _rows_equal_stepwise_oracle()


def test_reciprocal_dbar_fails_roll_oracle(monkeypatch):
    # spacing 0.5 divides by 1.0, exactly, leaving the bare differences
    dbar_values = test_grid._dbar_values
    values = np.random.default_rng(3).standard_normal((7, 7))
    check = test_grid.TestDbarStencil.test_matches_roll_oracle.hypothesis.inner_test
    check(test_grid.TestDbarStencil(), values=values, direction="x", spacing=0.7)
    monkeypatch.setattr(
        test_grid,
        "_dbar_values",
        lambda v, direction, spacing: dbar_values(v, direction, 0.5) * (1.0 / (2.0 * spacing)),
    )
    with pytest.raises(AssertionError):
        check(test_grid.TestDbarStencil(), values=values, direction="x", spacing=0.7)
