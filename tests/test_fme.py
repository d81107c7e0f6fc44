"""The entanglement protocol: dressed moves, the five steps, entropy
accounting, and the embezzlement null test."""

import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgauge import cli
from latgauge.fme import (
    BRANCHES,
    NotDensityMatrix,
    NotSeparable,
    ProtocolSpec,
    dressed_move,
    embezzlement_null_test,
    entropy_from_phases,
    reduced_spin_a,
    run_protocol,
    vn_entropy,
    _MERGE_DIR,
    _SPLIT_DIR,
)
from latgauge.gaussian import (
    CONSTRAINT_TOL,
    NonNeutralWarning,
    coulomb_energy_shift,
    coulomb_momentum,
    gauss_bound,
    gauss_residual,
    wrap_phase,
)
from latgauge.grid import GridSpec, VectorField, divergence
from latgauge.matter import density
from latgauge.spectral import build_kernels


def small_spec(taus=(0.0,), n=25, distance=10, **kwargs):
    grid = GridSpec(n, 1.0)
    row = n // 2
    col_a = (n - distance) // 2
    col_b = col_a + distance
    return ProtocolSpec(grid, (row, col_a), (row, col_b), size=7, taus=taus, **kwargs)


@pytest.fixture(scope="module")
def small_kernels():
    return build_kernels(GridSpec(25, 1.0))


@pytest.fixture(scope="module")
def big_kernels():
    return build_kernels(GridSpec(101, 1.0))


def big_spec(taus=(0.0,), **kwargs):
    grid = GridSpec(101, 1.0)
    return ProtocolSpec(grid, (50, 40), (50, 60), size=7, taus=taus, **kwargs)


def background(matter, kernels):
    """The Coulomb momentum background of ``matter``'s sector. Like charges
    are never neutral; only the uniform mode is dropped, which is benign."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonNeutralWarning)
        return coulomb_momentum(density(matter), kernels)


def dress(p, link, displacement):
    """``p`` with ``displacement`` added to p_x on ``link``."""
    px = p.x.values.copy()
    px[link] += displacement
    return VectorField.from_arrays(p.grid, px, p.y.values)


def _oracle_protocol(spec, kernels, tau):
    """The protocol at one ``tau``, run from step 0 with every field
    built: each background by ``coulomb_momentum``, each dressed field
    by adding the dressings ``dressed_move`` returns to the link, and a
    full ``gauss_residual`` for each. The phase is wrapped by each step
    and again by each state it is stored on. Returns the phases, the
    final spins and the 13 residuals computed: 5 backgrounds and 8
    dressed states."""
    residuals = []

    def ground_state(matter):
        p = background(matter, kernels)
        residuals.append(gauss_residual(p, density(matter)))
        return p

    def moves(matter, p, phase, name, directions):
        for region, letter in zip("AB", name):
            matter, link, displacement = dressed_move(spec, matter, region, directions[letter])
            p, phase = dress(p, link, displacement), wrap_phase(phase)
        residuals.append(gauss_residual(p, density(matter)))
        return matter, p, phase

    s0 = spec.initial_config()
    field0 = ground_state(s0)
    phases, final_spin = {}, []
    for name in BRANCHES:
        matter, p, phase = moves(s0, field0, 0.0, name, _SPLIT_DIR)
        p = ground_state(matter)
        phase = wrap_phase(wrap_phase(phase + spec.gamma[name]))
        e_shift = coulomb_energy_shift(density(matter), kernels)
        phases[name] = wrap_phase(-e_shift * tau)
        phase = wrap_phase(wrap_phase(phase - e_shift * tau))
        matter, p, phase = moves(matter, p, phase, name, _MERGE_DIR)
        if matter.occupied != s0.occupied:
            raise NotSeparable(f"branch {name} does not return to the start matter")
        phase = wrap_phase(wrap_phase(phase + spec.gamma_prime[name]))
        final_spin.append((0.5 + 0.0j) * np.exp(1j * phase))
    return phases, np.array(final_spin), residuals


class TestSpecValidation:
    def test_shifted_sites_must_be_interior(self):
        grid = GridSpec(25, 1.0)
        with pytest.raises(ValueError, match="strictly interior"):
            ProtocolSpec(grid, (12, 7), (12, 17), size=5)  # too tight for a +-2 shift

    def test_regions_must_be_separated(self):
        grid = GridSpec(25, 1.0)
        with pytest.raises(ValueError, match="separated"):
            ProtocolSpec(grid, (12, 8), (12, 15), size=7)

    def test_rows_must_match(self):
        grid = GridSpec(25, 1.0)
        with pytest.raises(ValueError, match="one row"):
            ProtocolSpec(grid, (12, 7), (13, 17), size=7)


class TestDressedMove:
    def test_move_then_merge_restores_exactly(self):
        spec = small_spec()
        s0 = spec.initial_config()
        for region in ("A", "B"):
            for direction, back in (("left", "right"), ("right", "left")):
                out, link, there = dressed_move(spec, s0, region, direction)
                restored, back_link, back_again = dressed_move(spec, out, region, back)
                assert restored.occupied == s0.occupied
                assert (back_link, there + back_again) == (link, 0.0)

    def test_dressing_repairs_gauss_law(self, small_kernels):
        spec = small_spec()
        s0 = spec.initial_config()
        p0 = background(s0, small_kernels)
        assert gauss_residual(p0, density(s0)) < 1e-9
        for region in ("A", "B"):
            for direction in ("left", "right"):
                moved, link, displacement = dressed_move(spec, s0, region, direction)
                assert gauss_residual(dress(p0, link, displacement), density(moved)) < 1e-9

    def test_undressed_move_breaks_two_crosses(self, small_kernels):
        spec = small_spec()
        s0 = spec.initial_config()
        p0 = background(s0, small_kernels)
        moved, _link, _displacement = dressed_move(spec, s0, "A", "left")
        rho = density(moved)
        res = divergence(p0).values + rho.values - rho.values.mean()
        row, col = spec.site_a
        assert abs(abs(res[row, col]) - 1.0) < 1e-12
        assert abs(abs(res[row, col - 2]) - 1.0) < 1e-12
        res[row, col] = res[row, col - 2] = 0.0
        assert np.max(np.abs(res)) < 1e-12

    def test_region_moves_commute(self):
        # order of application across regions is irrelevant, exactly
        spec = small_spec()
        s0 = spec.initial_config()
        a, a_link, a_shift = dressed_move(spec, s0, "A", "left")
        ab, b_link, b_shift = dressed_move(spec, a, "B", "right")
        b, *b_dressing = dressed_move(spec, s0, "B", "right")
        ba, *a_dressing = dressed_move(spec, b, "A", "left")
        assert ab.occupied == ba.occupied
        assert b_dressing == [b_link, b_shift] and a_dressing == [a_link, a_shift]

    def test_unknown_region_rejected(self):
        spec = small_spec()
        s0 = spec.initial_config()
        with pytest.raises(ValueError):
            dressed_move(spec, s0, "nope", "left")
        with pytest.raises(ValueError):
            dressed_move(spec, s0, "A", "up")


class TestRunProtocol:
    def test_trivial_phases_give_zero_entropy(self, small_kernels):
        (trace,) = run_protocol(small_spec(), small_kernels)
        assert trace.h_sigma_a < 1e-12
        amps = trace.final_spin
        assert np.max(np.abs(amps - 0.5)) < 1e-12  # |+>|+> restored

    def test_branch_bookkeeping(self, small_kernels, monkeypatch):
        # one energy per branch, each on its own step-2 sector, read off
        # the occupied sites in row-major order by the shared energy core
        import latgauge.fme as fme

        sectors = []
        energy = fme.sector_energy
        monkeypatch.setattr(
            fme,
            "sector_energy",
            lambda rows, cols, q, k: sectors.append((tuple(zip(rows, cols)), tuple(q)))
            or energy(rows, cols, q, k),
        )
        run_protocol(small_spec(taus=(1.0,)), small_kernels)
        assert len(sectors) == 4
        assert all(len(sites) == 2 and q == (1.0, 1.0) for sites, q in sectors)
        assert all(list(sites) == sorted(sites) for sites, _q in sectors)
        # four distinct matter configurations between the moves
        assert len({sites for sites, _q in sectors}) == 4

    def test_unreturned_matter_is_not_separable(self, small_kernels, monkeypatch):
        # merging in the split direction moves each charge two more
        # columns, so no branch returns to the start configuration
        import latgauge.fme as fme

        monkeypatch.setattr(fme, "_MERGE_DIR", fme._SPLIT_DIR)
        with pytest.raises(NotSeparable, match="branch LL"):
            run_protocol(small_spec(taus=(1.0,)), small_kernels)

    def test_pi_imbalance_reaches_maximal_entropy(self, big_kernels):
        kernels = big_kernels
        d = 20
        curvature = 2 * kernels.d(0, d) - kernels.d(0, d + 4) - kernels.d(0, d - 4)
        tau_star = np.pi / abs(curvature)
        (trace,) = run_protocol(big_spec(taus=(tau_star,)), kernels)
        assert trace.h_sigma_a == pytest.approx(np.log(2.0), abs=1e-6)

    def test_entropy_matches_four_phase_model(self, big_kernels):
        (trace,) = run_protocol(big_spec(taus=(40.0,)), big_kernels)
        assert trace.h_sigma_a == pytest.approx(
            entropy_from_phases(trace.phases), abs=1e-9
        )
        assert trace.h_sigma_a > 1e-4  # generic tau entangles

    def test_equal_distance_branches_share_phase(self, big_kernels):
        (trace,) = run_protocol(big_spec(taus=(17.0,)), big_kernels)
        assert trace.phases["LL"] == pytest.approx(trace.phases["RR"], abs=1e-12)

    def test_entropy_periodic_in_tau(self, big_kernels):
        # period 2 pi / |2D(d) - D(d+4) - D(d-4)|, checked to 1%
        kernels = big_kernels
        d = 20
        curvature = 2 * kernels.d(0, d) - kernels.d(0, d + 4) - kernels.d(0, d - 4)
        period = 2 * np.pi / abs(curvature)
        for tau in (0.31 * period, 0.62 * period):
            first, later = run_protocol(big_spec(taus=(tau, tau + period)), kernels)
            assert later.h_sigma_a == pytest.approx(first.h_sigma_a, abs=0.01 * np.log(2))

    def test_gamma_phases_shift_the_criterion(self, small_kernels):
        # entropy vanishes iff th_LL + th_RR = th_LR + th_RL (mod 2pi)
        gamma = {"LL": 0.9, "LR": 0.4, "RL": 0.5, "RR": 0.0}
        (balanced,) = run_protocol(small_spec(gamma=gamma), small_kernels)
        assert balanced.h_sigma_a < 1e-12
        gamma_prime = {"LL": np.pi / 2, "LR": 0.0, "RL": 0.0, "RR": np.pi / 2}
        (tilted,) = run_protocol(small_spec(gamma=gamma, gamma_prime=gamma_prime), small_kernels)
        assert tilted.h_sigma_a == pytest.approx(np.log(2.0), abs=1e-9)

    def test_entropy_bounds_over_sweep(self, small_kernels):
        for trace in run_protocol(small_spec(taus=np.linspace(0.0, 300.0, 7)), small_kernels):
            assert -1e-12 <= trace.h_sigma_a <= np.log(2.0) + 1e-12

    def test_one_proof_per_table(self, monkeypatch, tmp_path):
        # a six-tau sweep solves no background: it reads the unit charge's
        # off the table as dbar D, in two derivatives, and takes one
        # residual of it; a new table proves itself again. One
        # walk serves every tau: one proof, 16 dressed moves and 4 sector
        # energies per spec, from the library and from the CLI alike
        import latgauge.fme as fme
        import latgauge.gaussian as gaussian

        calls = []

        def counted(module, name):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a: calls.append(name) or original(*a))

        for name in ("coulomb_momentum", "dbar", "gauss_residual"):
            counted(gaussian, name)
        for name in ("gauss_bound", "dressed_move", "sector_energy"):
            counted(fme, name)
        one_walk = {"gauss_bound": 1, "dressed_move": 16, "sector_energy": 4}
        one_proof = {"dbar": 2, "gauss_residual": 1}
        gamma = {"LL": -0.7, "LR": 2.5, "RL": 0.1, "RR": 3.0}
        gamma_prime = {"LL": 0.3, "LR": 0.0, "RL": -1.1, "RR": 2.0}
        kernels = build_kernels(GridSpec(25, 1.0))
        spec = small_spec(taus=np.linspace(0.0, 5.0, 6), gamma=gamma, gamma_prime=gamma_prime)
        traces = list(run_protocol(spec, kernels))
        assert len(traces) == 6
        for trace in traces:
            # each branch's amplitude carries gamma(s) + phi(s) + gamma'(s)
            for name, amp in zip(BRANCHES, trace.final_spin):
                theta = wrap_phase(gamma[name] + trace.phases[name] + gamma_prime[name])
                assert abs(amp - 0.5 * np.exp(1j * theta)) < 1e-12
        assert Counter(calls) == Counter(one_walk) + Counter(one_proof)
        calls.clear()
        run_protocol(spec, build_kernels(GridSpec(25, 1.0)))
        assert Counter(calls) == Counter(one_walk) + Counter(one_proof)

        argv = ["--cache-dir", str(tmp_path), "fme", "--n", "25", "--sites", "12,7:12,17"]
        calls.clear()
        assert cli.main(argv + ["--sweep-tau", "0:5:1", "--out", str(tmp_path / "fme.csv")]) == 0
        assert len((tmp_path / "fme.csv").read_text().splitlines()) == 1 + 6
        assert Counter(calls) == Counter(one_walk) + Counter(one_proof)
        calls.clear()
        assert cli.main(argv + ["--null-test"]) == 0
        assert Counter(calls) == Counter({"gauss_bound": 1, "dressed_move": 16}) + Counter(one_proof)

    def test_one_wrap_per_phase_step(self, small_kernels, monkeypatch):
        # per branch and tau: the phases column, then steps 2, 3 and 5
        import latgauge.fme as fme

        calls = []
        wrap = fme.wrap_phase
        monkeypatch.setattr(fme, "wrap_phase", lambda phi: calls.append(phi) or wrap(phi))
        traces = run_protocol(small_spec(taus=np.linspace(0.0, 5.0, 6)), small_kernels)
        # each trace is built when the iterator reaches its tau
        assert calls == []
        next(traces)
        assert len(calls) == 4 * 4
        assert len(list(traces)) == 5
        assert len(calls) == 6 * 4 * 4

    def test_entanglement_increase_equals_reduced_entropy(self, small_kernels):
        (trace,) = run_protocol(small_spec(taus=(90.0,)), small_kernels)
        assert trace.h_sigma_a == vn_entropy(reduced_spin_a(trace.final_spin))


class TestVnEntropy:
    def test_pure_projector(self):
        assert vn_entropy(np.array([[1.0, 0.0], [0.0, 0.0]])) == 0.0

    def test_maximally_mixed(self):
        assert vn_entropy(0.5 * np.eye(2)) == pytest.approx(np.log(2.0))

    def test_bell_like_reduction(self):
        for theta in (0.0, 0.3, np.pi / 2, 2.2):
            amps = np.array([1.0, 0.0, 0.0, np.exp(1j * theta)]) / np.sqrt(2.0)
            rho = reduced_spin_a(amps)
            assert vn_entropy(rho) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotDensityMatrix):
            vn_entropy(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(NotDensityMatrix):
            vn_entropy(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotDensityMatrix):
            vn_entropy(np.array([[1.5, 0.0], [0.0, -0.5]]))

    def test_rejects_odd_shapes(self):
        with pytest.raises(NotDensityMatrix):
            vn_entropy(np.eye(3) / 3.0)


class TestEmbezzlement:
    def test_null_test_passes(self, small_kernels):
        assert embezzlement_null_test(small_spec(), small_kernels)

    def test_single_region_factorization(self):
        # U_A (x) U_B: a move in one region never touches the other
        # region's charge
        spec = small_spec()
        s0 = spec.initial_config()
        for region, other in (("A", spec.site_b), ("B", spec.site_a)):
            for direction in ("left", "right"):
                moved, _link, _displacement = dressed_move(spec, s0, region, direction)
                assert other in moved.occupied

    def test_mismatched_table_rejected(self, big_kernels):
        with pytest.raises(ValueError, match="different grid"):
            embezzlement_null_test(small_spec(), big_kernels)

    def test_full_protocol_differs_for_generic_tau(self, small_kernels):
        (trace,) = run_protocol(small_spec(taus=(150.0,)), small_kernels)
        assert trace.h_sigma_a > 1e-6

    def test_locc_shadow(self, small_kernels):
        # local operations alone (tau = 0, no relaxation phases)
        # generate nothing
        (trace,) = run_protocol(small_spec(), small_kernels)
        assert trace.h_sigma_a < 1e-12


def _draw_geometry(draw, n_step):
    """Grid, charge sites and region size of a protocol with N up to 41,
    every ``n_step``-th N from the smallest that fits."""
    size = draw(st.sampled_from([7, 8, 9]))
    half = size // 2
    # the regions need size + 1 columns of separation and must fit
    n = draw(st.sampled_from(range(2 * size + 1, 42, n_step)))
    sep = draw(st.integers(size + 1, n - size))
    col_a = draw(st.integers(half, n - size - sep + half))
    row = n // 2
    return dict(
        grid=GridSpec(n, draw(st.floats(0.5, 2.0))),
        site_a=(row, col_a),
        site_b=(row, col_a + sep),
        size=size,
    )


@st.composite
def locc_cases(draw):
    """A protocol on an odd grid with relaxation phases of product form
    gamma(s) = gamma_A(s_A) + gamma_B(s_B), and the same for gamma'."""
    geometry = _draw_geometry(draw, 2)
    angles = st.floats(-np.pi, np.pi)

    def product_phases():
        a, b = draw(st.tuples(angles, angles)), draw(st.tuples(angles, angles))
        side = {"L": 0, "R": 1}
        return {s: a[side[s[0]]] + b[side[s[1]]] for s in BRANCHES}

    return dict(geometry, gamma=product_phases(), gamma_prime=product_phases())


@st.composite
def protocol_specs(draw):
    """A protocol on an odd or even grid with any relaxation phases and
    one to five taus."""
    phase_map = st.fixed_dictionaries({s: st.floats(-np.pi, np.pi) for s in BRANCHES})
    return ProtocolSpec(
        **_draw_geometry(draw, 1),
        taus=draw(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=5)),
        gamma=draw(phase_map),
        gamma_prime=draw(phase_map),
    )


class TestLocc:
    """Local operations alone generate no entanglement; the field's
    Coulomb energies, read off D at the branch separations, are the only
    entangling resource."""

    @settings(max_examples=15, deadline=None)
    @given(case=locc_cases(), tau=st.floats(0.0, 50.0))
    def test_entropy_from_d_lookups_alone(self, case, tau):
        kernels = build_kernels(case["grid"])
        untouched, trace = run_protocol(ProtocolSpec(**case, taus=(0.0, tau)), kernels)
        assert untouched.h_sigma_a < 1e-12

        d = case["site_b"][1] - case["site_a"][1]
        separation = {"LL": d, "LR": d + 4, "RL": d - 4, "RR": d}
        theta = {
            s: case["gamma"][s]
            + case["gamma_prime"][s]
            - tau * (kernels.d(0, 0) + kernels.d(0, separation[s]))
            for s in BRANCHES
        }
        assert trace.h_sigma_a == pytest.approx(entropy_from_phases(theta), abs=1e-9)


class TestProvenGaussLaw:
    """``run_protocol`` builds no field and walks the branches once for
    all taus; the oracle runs the whole protocol per tau, builds every
    field and takes its full Gauss residual. Each tau's phases and spins
    must agree with the oracle's and with a spec of that tau alone, bit
    for bit, and the proven bound must cover every residual the oracle
    sees."""

    @settings(max_examples=25, deadline=None)
    @given(spec=protocol_specs())
    def test_matches_field_building_oracle(self, spec):
        kernels = build_kernels(spec.grid)
        traces = list(run_protocol(spec, kernels))
        assert len(traces) == len(spec.taus)
        for tau, trace in zip(spec.taus, traces):
            phases, final_spin, residuals = _oracle_protocol(spec, kernels, tau)
            assert trace.phases == phases
            assert np.array_equal(trace.final_spin, final_spin)
            assert len(residuals) == 13
            assert max(residuals) <= gauss_bound([1.0, 1.0], kernels) <= CONSTRAINT_TOL
            (alone,) = run_protocol(replace(spec, taus=(tau,)), kernels)
            assert alone.phases == trace.phases
            assert np.array_equal(alone.final_spin, trace.final_spin)
            assert alone.h_sigma_a == trace.h_sigma_a
