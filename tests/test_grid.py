"""Discrete calculus identities and field container behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latgauge.grid import (
    GridSpec,
    ScalarField,
    VectorField,
    curl_z,
    dbar,
    divergence,
    _dbar_values,
    sum_by_parts_residual,
)


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return ScalarField(grid, rng.standard_normal(grid.shape))


class TestGridSpec:
    def test_rejects_small_lattice(self):
        with pytest.raises(ValueError):
            GridSpec(2, 1.0)

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            GridSpec(5, 0.0)

    @pytest.mark.parametrize("spacing", [float("inf"), float("nan")])
    def test_rejects_non_finite_spacing(self, spacing):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(5, spacing)

    def test_wrap(self):
        grid = GridSpec(5, 1.0)
        assert grid.wrap(-1, 5) == (4, 0)
        assert grid.wrap(7, -3) == (2, 2)


class TestDbar:
    def test_constant_field_derivative_vanishes(self):
        grid = GridSpec(6, 0.5)
        f = ScalarField.constant(grid, 3.7)
        assert dbar(f, "x").max_abs() == 0.0
        assert dbar(f, "y").max_abs() == 0.0

    def test_column_ramp_stencil_by_hand(self):
        # f[i,j] = j on N=5, a=1: interior slope 1, wrap columns -1.5
        grid = GridSpec(5, 1.0)
        f = ScalarField(grid, np.tile(np.arange(5.0), (5, 1)))
        dx = dbar(f, "x").values
        expected = np.tile([-1.5, 1.0, 1.0, 1.0, -1.5], (5, 1))
        np.testing.assert_array_equal(dx, expected)

    def test_schwarz_commutation_exact(self):
        grid = GridSpec(7, 1.0)
        f = random_field(grid, 1)
        xy = dbar(dbar(f, "y"), "x")
        yx = dbar(dbar(f, "x"), "y")
        assert (xy - yx).max_abs() < 1e-15

    def test_rejects_unknown_direction(self):
        grid = GridSpec(5, 1.0)
        with pytest.raises(ValueError):
            dbar(ScalarField.zeros(grid), "z")

    @given(
        data=arrays(np.float64, (6, 6), elements=st.floats(-10, 10)),
        alpha=st.floats(-5, 5),
        beta=st.floats(-5, 5),
    )
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, data, alpha, beta):
        grid = GridSpec(6, 1.0)
        f = ScalarField(grid, data)
        g = ScalarField(grid, data[::-1].copy())
        combo = dbar(ScalarField(grid, alpha * data + beta * g.values), "x")
        separate = alpha * dbar(f, "x") + beta * dbar(g, "x")
        scale = max(combo.max_abs(), 1.0)
        assert (combo - separate).max_abs() < 1e-13 * scale

    def test_symmetric_product_rule_exact(self):
        grid = GridSpec(8, 1.0)
        f = random_field(grid, 2)
        g = random_field(grid, 3)
        fg = ScalarField(grid, f.values * g.values)
        for direction, axis in (("x", 1), ("y", 0)):
            mid_g = 0.5 * (np.roll(g.values, -1, axis) + np.roll(g.values, 1, axis))
            mid_f = 0.5 * (np.roll(f.values, -1, axis) + np.roll(f.values, 1, axis))
            lhs = dbar(fg, direction).values
            rhs = mid_g * dbar(f, direction).values + mid_f * dbar(g, direction).values
            assert np.max(np.abs(lhs - rhs)) < 1e-14


def roll_dbar(values, direction, spacing):
    """The stencil as two wrapped copies: the oracle of ``_dbar_values``."""
    axis = {"x": 1, "y": 0}[direction]
    return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (
        2.0 * spacing
    )


@st.composite
def square_arrays(draw):
    """An N x N float array, N in 3..40, C-ordered, F-ordered or a
    non-contiguous view into a larger array."""
    n = draw(st.integers(3, 40))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    shape = (2 * n, 2 * n) if layout == "strided" else (n, n)
    values = draw(arrays(np.float64, shape, elements=st.floats(-1e6, 1e6)))
    if layout == "strided":
        return values[1::2, ::2]
    return np.asarray(values, order=layout)


class TestDbarStencil:
    """The slice stencil is the roll formula, bit for bit."""

    @given(
        values=square_arrays(),
        direction=st.sampled_from(["x", "y"]),
        spacing=st.floats(1e-6, 1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_roll_oracle(self, values, direction, spacing):
        before = values.copy()
        got = _dbar_values(values, direction, spacing)
        assert got.shape == values.shape
        assert got.tobytes() == roll_dbar(values, direction, spacing).tobytes()
        assert values.tobytes() == before.tobytes()


class TestCurlDivergence:
    def test_zero_field(self):
        grid = GridSpec(5, 1.0)
        assert curl_z(VectorField.zeros(grid)).max_abs() == 0.0
        assert divergence(VectorField.zeros(grid)).max_abs() == 0.0

    def test_pure_gauge_has_no_curl(self):
        grid = GridSpec(9, 1.0)
        eps = random_field(grid, 4)
        q = VectorField(-1.0 * dbar(eps, "x"), -1.0 * dbar(eps, "y"))
        assert curl_z(q).max_abs() < 1e-15

    def test_column_ramp_curl(self):
        grid = GridSpec(5, 1.0)
        ramp = ScalarField(grid, np.tile(np.arange(5.0), (5, 1)))
        q = VectorField(ScalarField.zeros(grid), ramp)
        np.testing.assert_array_equal(curl_z(q).values, dbar(ramp, "x").values)

    def test_gradient_pair_divergence_is_laplacian(self):
        grid = GridSpec(9, 1.0)
        s = random_field(grid, 5)
        p = VectorField(dbar(s, "x"), dbar(s, "y"))
        laplacian = dbar(dbar(s, "x"), "x") + dbar(dbar(s, "y"), "y")
        assert (divergence(p) - laplacian).max_abs() < 1e-15

    def test_curl_type_field_is_divergence_free(self):
        grid = GridSpec(9, 1.0)
        g = random_field(grid, 6)
        p = VectorField(dbar(g, "y"), -1.0 * dbar(g, "x"))
        assert divergence(p).max_abs() < 1e-15


class TestSumByParts:
    def test_unit_weight_telescopes(self):
        grid = GridSpec(9, 1.0)
        f = random_field(grid, 7)
        g = ScalarField.constant(grid, 1.0)
        # g = 1: the identity reduces to the periodic telescoping sum
        assert abs(sum_by_parts_residual(f, g, "x")) < 1e-13

    def test_random_fields(self):
        grid = GridSpec(9, 1.0)
        f = random_field(grid, 8)
        g = random_field(grid, 9)
        bound = 1e-12 * np.linalg.norm(f.values) * np.linalg.norm(g.values)
        for direction in ("x", "y"):
            assert abs(sum_by_parts_residual(f, g, direction)) < bound

    def test_self_pairing_antisymmetry(self):
        grid = GridSpec(7, 1.0)
        f = random_field(grid, 10)
        assert abs(sum_by_parts_residual(f, f, "y")) < 1e-13


class TestVectorField:
    def test_mismatched_grids_rejected(self):
        with pytest.raises(ValueError):
            VectorField(
                ScalarField.zeros(GridSpec(4, 1.0)),
                ScalarField.zeros(GridSpec(5, 1.0)),
            )

    def test_component_lookup(self):
        grid = GridSpec(4, 1.0)
        v = VectorField.zeros(grid)
        assert v.component("x") is v.x
        assert v.component("y") is v.y
        with pytest.raises(ValueError):
            v.component("z")


class TestFrozenValues:
    """Constructors take ownership of their array and make it read-only,
    so every value the package hands out is immutable."""

    @staticmethod
    def frozen_arrays(tmp_path):
        from latgauge.dynamics import PhaseSpaceState, SourceConfig, eom_rhs, step_leapfrog
        from latgauge.gaussian import coulomb_momentum
        from latgauge.matter import MatterConfig, density
        from latgauge.spectral import (
            build_kernels,
            dft_forward,
            dft_inverse,
            kernel_values,
            load_kernels,
            save_kernels,
            wave_number_table,
        )

        grid = GridSpec(7, 1.0)
        f = random_field(grid, 5)
        v = VectorField.from_arrays(grid, np.ones(grid.shape), np.zeros(grid.shape))
        kernels = build_kernels(grid)
        save_kernels(kernels, tmp_path / "k.lgk")
        loaded = load_kernels(tmp_path / "k.lgk")
        rho = density(MatterConfig.from_sites(grid, [(1, 1)]))
        dipole = np.zeros(grid.shape)
        dipole[1, 1], dipole[4, 4] = 1.0, -1.0
        p = coulomb_momentum(ScalarField(grid, dipole), kernels)
        state = PhaseSpaceState.random(grid, np.random.default_rng(6))
        source = SourceConfig.vacuum(grid)
        return {
            "constructor": f.values,
            "zeros": ScalarField.zeros(grid).values,
            "from_arrays": v.x.values,
            "sum": (f + f).values,
            "scaled": (2.0 * f).values,
            "vector_sum": (v + v).y.values,
            "dbar": dbar(f, "x").values,
            "divergence": divergence(v).values,
            "density": rho.values,
            "coulomb_momentum": p.x.values,
            "modes": dft_forward(f).modes,
            "kernel_g": kernel_values(grid, 1),
            "wave_number": wave_number_table(grid)[2],
            "built_d": kernels.d_values,
            "loaded_d": loaded.d_values,
            "dft_inverse": dft_inverse(dft_forward(f)).values,
            "step_leapfrog": step_leapfrog(state, source, 0.05, 2).q.x.values,
            "eom_rhs": eom_rhs(state, source)[1].y.values,
        }

    def test_in_place_writes_raise(self, tmp_path):
        for name, values in self.frozen_arrays(tmp_path).items():
            with pytest.raises(ValueError, match="read-only"):
                values[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                values += 1.0
            assert not values.flags.writeable, name
            # a view of a writeable array could still be changed through it
            assert values.base is None or not values.base.flags.writeable, name

    @pytest.mark.parametrize("kind", ["scalar", "vector", "fourier", "kernel"])
    def test_views_of_writeable_arrays_are_copied(self, kind):
        from latgauge.spectral import FourierField, KernelTable

        grid = GridSpec(5, 1.0)
        big = np.zeros((2, *grid.shape), dtype=complex if kind == "fourier" else float)
        build = {
            "scalar": lambda: ScalarField(grid, big[0]).values,
            "vector": lambda: VectorField.from_arrays(grid, big[0], big[1]).y.values,
            "fourier": lambda: FourierField(grid, big[0]).modes,
            "kernel": lambda: KernelTable(grid, big[0]).d_values,
        }
        values = build[kind]()
        big[:, 0, 0] = 1.0
        assert values[0, 0] == 0.0
        assert big.flags.writeable  # the caller's array is left as it was

    def test_generator_sets_are_frozen(self):
        from dataclasses import FrozenInstanceError

        from latgauge.algebra import GeneratorSet, Region, center_basis, local_generators, p_op

        grid, region = GridSpec(9, 1.0), Region((1, 1), 5)
        basis = center_basis(region, grid)
        assert len(basis) == 41
        for gens in (basis, local_generators(region, grid)):
            for name in ("generators", "labels"):
                with pytest.raises(AttributeError):
                    getattr(gens, name).append(gens.generators[0])
                with pytest.raises(FrozenInstanceError):
                    setattr(gens, name, ())
        assert len(basis) == 41
        # the lists passed in are copied
        ops = [p_op((1, 1), "x")]
        gens = GeneratorSet(ops)
        ops.append(p_op((2, 2), "y"))
        assert gens.generators == (p_op((1, 1), "x"),)

    def test_center_basis_elements_are_read_only(self):
        from latgauge.algebra import Region, center_basis, in_center_span

        grid, region = GridSpec(9, 1.0), Region((1, 1), 5)
        element = center_basis(region, grid).generators[0]
        with pytest.raises(TypeError):
            element.p_coeffs[((0, 0), "x")] = 1
        with pytest.raises(TypeError):
            element.q_coeffs[((0, 0), "x")] = 1
        assert in_center_span(element, region, grid)

    def test_value_attributes_cannot_be_reassigned(self):
        from dataclasses import FrozenInstanceError

        from latgauge.algebra import p_op
        from latgauge.spectral import dft_forward

        grid = GridSpec(5, 1.0)
        f = random_field(grid)
        values = {
            "q_coeffs": p_op((1, 1), "x"),
            "values": f,
            "x": VectorField(f, f),
            "modes": dft_forward(f),
        }
        for name, value in values.items():
            with pytest.raises(FrozenInstanceError):
                setattr(value, name, getattr(value, name))
        assert VectorField(f, f).grid == grid

    def test_convergence_fit_is_read_only(self):
        from latgauge.continuum import ConvergenceSeries, kvec_convergence

        with pytest.raises(TypeError):
            kvec_convergence([51, 101, 201], 0.1).fit["estimate"] = 0.0
        fit = {"estimate": 1.0, "rate": 2.0}
        series = ConvergenceSeries((5, 7), "x", (1.0, 2.0), fit)
        fit["rate"] = 9.0  # the series holds its own copy
        assert series.fit == {"estimate": 1.0, "rate": 2.0}
        with pytest.raises(TypeError):
            del series.fit["rate"]

    def test_constructor_does_not_copy(self):
        grid = GridSpec(4, 1.0)
        values = np.zeros(grid.shape)
        assert ScalarField(grid, values).values is values
        assert not values.flags.writeable

    @staticmethod
    def protocol_spec(**phases):
        from latgauge.fme import ProtocolSpec

        return ProtocolSpec(GridSpec(25, 1.0), (12, 7), (12, 17), size=7, **phases)

    def test_protocol_spec_is_immutable(self):
        from dataclasses import replace

        from latgauge.fme import ProtocolSpec

        sites = [12, 7], [12, 17]
        spec = ProtocolSpec(GridSpec(25, 1.0), *sites, size=7)
        with pytest.raises(TypeError):
            spec.site_a[1] = 3
        gamma = {"LL": 0.1, "LR": 0.2, "RL": 0.3, "RR": 0.4}
        spec = self.protocol_spec(gamma=gamma)
        gamma["RR"] = 9.0  # the spec holds its own copy
        assert spec.gamma["RR"] == 0.4
        for phases in (spec.gamma, spec.gamma_prime):
            with pytest.raises(TypeError):
                del phases["RR"]
            with pytest.raises(TypeError):
                phases["LL"] = 1.0
        # a new tau keeps the read-only phases
        later = replace(spec, taus=(2.0,))
        assert later.taus == (2.0,) and later.gamma == spec.gamma
        with pytest.raises(TypeError):
            del later.gamma["RR"]

    def test_protocol_spec_copies_its_taus(self):
        # a list passed in is copied into a tuple of floats
        taus = [0.0, 1, np.float64(2.5)]
        spec = self.protocol_spec(taus=taus)
        taus[0] = 9.0
        assert spec.taus == (0.0, 1.0, 2.5)
        assert all(type(tau) is float for tau in spec.taus)
        with pytest.raises(ValueError, match="tau must be finite and nonnegative, got -1.0"):
            self.protocol_spec(taus=[0.0, -1.0])

    def test_protocol_trace_is_frozen(self):
        from dataclasses import FrozenInstanceError

        from latgauge.fme import run_protocol
        from latgauge.spectral import build_kernels

        spec = self.protocol_spec()
        (trace,) = run_protocol(spec, build_kernels(spec.grid))
        with pytest.raises(ValueError, match="read-only"):
            trace.final_spin[0] = 9
        with pytest.raises(TypeError):
            trace.phases["LL"] = 9.0
        with pytest.raises(FrozenInstanceError):
            trace.h_sigma_a = -1
