"""A mutation battery: each test plants one defect with one monkeypatch
and asserts that the named existing check catches it. A mutant that
survives means that check has gone blind.

The test modules are imported as modules, not their classes, so pytest
does not collect their tests a second time here.
"""

import re

import numpy as np
import pytest

import test_algebra
import test_cli
import test_fme
import test_gaussian
import test_spectral
from latgauge import acceptance, algebra, cli, fme, gaussian, spectral
from latgauge.algebra import Label, Region
from latgauge.grid import GridSpec, VectorField


def test_power_one_d_fails_criterion_10(monkeypatch):
    # G in place of D: the backgrounds no longer solve the Gauss law
    kernel_values = spectral.kernel_values
    monkeypatch.setattr(
        spectral,
        "build_kernels",
        lambda grid, method="fft": spectral.KernelTable(grid, kernel_values(grid, 1, method)),
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


def test_energy_handed_to_another_branch_fails_locc_property(monkeypatch):
    # the walk gives branch LR branch LL's step-2 matter, so LR is priced
    # at LL's energy and Theta moves by tau (D(d) - D(d+4))
    walk = fme._branch_walk

    def handed(spec, kernels):
        steps = walk(spec, kernels)
        return [steps[0], steps[0], *steps[2:]]

    zero = {name: 0.0 for name in fme.BRANCHES}
    case = dict(grid=GridSpec(25, 1.0), site_a=(12, 7), site_b=(12, 17), size=7, gamma=zero, gamma_prime=zero)
    locc = test_fme.TestLocc.test_entropy_from_d_lookups_alone.hypothesis.inner_test
    locc(test_fme.TestLocc(), case=case, tau=40.0)
    monkeypatch.setattr(fme, "_branch_walk", handed)
    with pytest.raises(AssertionError):
        locc(test_fme.TestLocc(), case=case, tau=40.0)


def test_single_wrap_state_phase_fails_field_building_oracle(monkeypatch):
    # wrap_phase returns its own outputs unchanged except -pi, which it
    # returns for a phase one ulp above pi; the second wrap maps that to
    # pi. A gamma(LL) there makes the single wrap carry -pi into step 3
    edge = float(np.nextafter(np.pi, np.inf))
    spec = test_fme.small_spec(taus=(0.7,), gamma={"LL": edge, "LR": 0.0, "RL": 0.0, "RR": 0.0})
    oracle = test_fme.TestProvenGaussLaw.test_matches_field_building_oracle.hypothesis.inner_test
    oracle(test_fme.TestProvenGaussLaw(), spec=spec)
    monkeypatch.setattr(fme, "_state_phase", gaussian.wrap_phase)
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
    momentum = gaussian.coulomb_momentum

    def perturbed(rho, kernels):
        p = momentum(rho, kernels)
        px = p.x.values.copy()
        px[0, 1] += 1e-8
        return VectorField.from_arrays(p.grid, px, p.y.values)

    monkeypatch.setattr(gaussian, "coulomb_momentum", perturbed)
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
        numbers = {str(c) for (c,) in cfg.params["criteria"]}
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
        return (
            op.scalar == 0
            and not op.q_coeffs
            and all(region.contains(site) for site, _comp in op.p_coeffs)
        )

    monkeypatch.setattr(test_algebra, "in_center_span", without_commutators)
    with pytest.raises(AssertionError):
        test_algebra.TestCenter().test_non_member_rejected()
