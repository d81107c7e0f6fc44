"""Large-lattice convergence of kernels and wave vectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from latgauge import acceptance, continuum
from latgauge.continuum import (
    ConvergenceSeries,
    _half_zone_integral,
    bz_d_difference,
    continuum_log_coefficient,
    d_log_check,
    g_scaling_check,
    kvec_convergence,
)

N_LIST = [51, 101, 201]


def dblquad_d_difference(r1, r2):
    """The Brillouin-zone integral ``bz_d_difference`` reduces to one
    dimension, done literally: adaptive 2D quadrature of
    ``[cos(r1 tx) - cos(r2 tx)] / (sin^2 tx + sin^2 ty)`` over the zone."""

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


@st.composite
def equal_parity_pairs(draw, top=60):
    r2 = draw(st.integers(2, top))
    r1 = draw(st.integers(1, r2 - 1).filter(lambda r: (r2 - r) % 2 == 0))
    return r1, r2


class TestBrillouinZoneOracle:
    @given(pair=equal_parity_pairs())
    @settings(max_examples=25, deadline=None)
    def test_matches_dblquad(self, pair):
        assert bz_d_difference(*pair) == pytest.approx(dblquad_d_difference(*pair), abs=1e-12)

    @pytest.mark.parametrize("pair", [(2, 4), (4, 8), (20, 24), (20, 16), (40, 44), (2, 60), (58, 60)])
    def test_doubling_the_nodes_moves_nothing(self, pair):
        doubled = _half_zone_integral(*pair, 128)
        assert _half_zone_integral(*pair, 64) == pytest.approx(doubled, abs=1e-13)
        assert bz_d_difference(*pair) == pytest.approx(doubled, abs=1e-13)

    @pytest.mark.parametrize("pair", [(2, 250), (100, 1000), (998, 1000)])
    def test_nodes_grow_with_the_separation(self, pair):
        # 64 nodes no longer resolve cos(r t) here (errors of 0.4 and
        # more); 1e-11 is the rounding of numpy's nodes at a thousand
        assert bz_d_difference(*pair) == pytest.approx(_half_zone_integral(*pair, 1200), abs=1e-11)

    @given(pair=equal_parity_pairs(top=2000).filter(lambda pair: pair[0] % 2))
    def test_odd_pairs_vanish(self, pair):
        """Two odd separations give 0: under ``t -> pi - t`` the integrand
        ``[cos(r1 t) - cos(r2 t)] / (sin t sqrt(1 + sin^2 t))`` changes sign
        with ``(-1)^r1``, so it is odd about pi/2 and the integral over
        [0, pi] is exactly 0."""
        assert abs(bz_d_difference(*pair)) < 1e-14


class TestGScaling:
    def test_differences_shrink(self):
        series = g_scaling_check(N_LIST, 5)
        assert series.differences_shrink()

    def test_even_separation_approaches_quadrupled_coefficient(self):
        # within one parity class the kernel follows the 1/r law with the
        # coefficient multiplied by the four dispersion corners
        series = g_scaling_check(N_LIST, 4)
        assert series.differences_shrink()
        assert series.values[-1] == pytest.approx(4.0 / (2.0 * np.pi), rel=0.05)

    def test_doubling_even_r_changes_little(self):
        # needs r large enough that the 1/r^2 anisotropy correction has
        # decayed and N large enough to be near the asymptote
        eight = g_scaling_check([1601], 8).values[0]
        sixteen = g_scaling_check([1601], 16).values[0]
        assert abs(sixteen - eight) < 0.02 * abs(eight)

    def test_zero_separation_rejected(self):
        with pytest.raises(ValueError):
            g_scaling_check(N_LIST, 0)

    def test_r_must_fit(self):
        with pytest.raises(ValueError):
            g_scaling_check([11, 21], 12)


class TestDLog:
    def test_equal_parity_pairs_share_the_constant(self):
        v24, v48 = (s.values[-1] for s in d_log_check(N_LIST, [(2, 4), (4, 8)]))
        assert abs(v24 - v48) < 0.02 * abs(v24)

    def test_equal_parity_matches_quadrature_oracle(self):
        (series,) = d_log_check([201], [(2, 4)])
        lattice = series.values[0]
        oracle = bz_d_difference(2, 4) / np.log(2.0)
        assert lattice == pytest.approx(oracle, abs=5e-3)

    def test_mixed_parity_series_diverges(self):
        # frozen dense-mode-sum values: the (1,2) pair keeps growing with
        # N because its staggered doubler part never cancels
        (series,) = d_log_check(N_LIST, [(1, 2)])
        assert series.values[0] == pytest.approx(-2.609018, abs=1e-4)
        assert series.values[2] == pytest.approx(-3.868684, abs=1e-4)
        diffs = series.successive_differences()
        assert diffs[1] > 0.9 * diffs[0]  # no contraction in sight

    def test_mixed_parity_oracle_refuses(self):
        with pytest.raises(ValueError):
            bz_d_difference(1, 2)

    def test_continuum_coefficient(self):
        assert continuum_log_coefficient() == pytest.approx(1 / (2 * np.pi))

    def test_degenerate_pair_rejected(self):
        with pytest.raises(ValueError):
            d_log_check(N_LIST, [(2, 4), (2, 2)])

    def test_richardson_fit_reports(self):
        (series,) = d_log_check(N_LIST, [(2, 4)])
        assert np.isfinite(series.fit["estimate"])

    def test_one_table_per_n_for_all_pairs(self, monkeypatch):
        singles = [d_log_check(N_LIST, [pair])[0] for pair in [(4, 8), (1, 2)]]
        built = []
        build = continuum.build_kernels
        monkeypatch.setattr(continuum, "build_kernels", lambda grid: built.append(grid) or build(grid))
        # repr: exact floats, and the nan rate of a non-contracting fit
        assert list(map(repr, d_log_check(N_LIST, [(4, 8), (1, 2)]))) == list(map(repr, singles))
        assert [grid.n for grid in built] == N_LIST

    def test_criterion_11_builds_each_table_once(self, monkeypatch):
        built = []
        build = continuum.build_kernels
        monkeypatch.setattr(continuum, "build_kernels", lambda grid: built.append(grid) or build(grid))
        passed, _lines = acceptance.run_criterion("11")
        assert not passed  # red by construction, see tests/test_acceptance.py
        assert [grid.n for grid in built] == [51, 101, 201]


class TestKvec:
    def test_error_falls_like_inverse_square(self):
        series = kvec_convergence([20, 40, 80], 0.05)
        ratios = [a / b for a, b in zip(series.values, series.values[1:])]
        for ratio in ratios:
            assert ratio == pytest.approx(4.0, rel=0.2)

    def test_small_fraction_limit(self):
        series = kvec_convergence([100, 200, 400], 0.01)
        assert series.values[-1] < 1e-3

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            kvec_convergence([20, 40], 0.25)
        with pytest.raises(ValueError):
            kvec_convergence([20, 40], 0.0)


class TestSeriesContainer:
    def test_requires_increasing_n(self):
        with pytest.raises(ValueError):
            ConvergenceSeries((5, 5), "x", (1.0, 2.0), {})

    def test_requires_finite_values(self):
        with pytest.raises(ValueError):
            ConvergenceSeries((5, 7), "x", (1.0, np.inf), {})
