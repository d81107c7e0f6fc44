"""Exact operator algebra: commutators, gauge invariance, nullspaces,
local generators, centers, and sector labels."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgauge import algebra
from latgauge.algebra import (
    GeneratorSet,
    LinearOperator,
    Region,
    b_operator,
    center_basis,
    center_dimension,
    commutator_scalar,
    constraint_operator,
    check_dressing,
    dressing_exponent,
    dressing_geometry,
    gauge_invariant_nullspace,
    in_center_span,
    is_gauge_invariant,
    local_generators,
    p_op,
    q_op,
    sector_label,
)
from latgauge.algebra import _P, _center_catalog, _independent_mod_p, _nullspace, _row, _SparseRref
from latgauge.gaussian import NonNeutralWarning, coulomb_momentum
from latgauge.grid import GridSpec
from latgauge.matter import MatterConfig, density
from latgauge.spectral import build_kernels


class TestCommutator:
    def test_canonical_pair(self):
        assert commutator_scalar(q_op((0, 0), "x"), p_op((0, 0), "x")) == 1

    def test_component_mismatch(self):
        assert commutator_scalar(q_op((0, 0), "x"), p_op((0, 0), "y")) == 0

    def test_b_commutes_with_every_cross(self):
        grid = GridSpec(7, 1.0)
        b = b_operator(grid, (3, 3))
        for n in range(7):
            for m in range(7):
                assert commutator_scalar(b, constraint_operator(grid, (n, m))) == 0

    def test_antisymmetry(self):
        grid = GridSpec(7, 1.0)
        ops = [
            b_operator(grid, (2, 3)),
            constraint_operator(grid, (3, 3)),
            q_op((2, 2), "y") + 3 * p_op((4, 1), "x"),
        ]
        for lhs in ops:
            for rhs in ops:
                assert commutator_scalar(lhs, rhs) == -commutator_scalar(rhs, lhs)

    def test_bilinearity_exact(self):
        grid = GridSpec(7, 1.0)
        a = q_op((1, 1), "x") + Fraction(2, 3) * q_op((1, 2), "y")
        b = p_op((1, 1), "x") - Fraction(5, 7) * p_op((1, 2), "y")
        c = constraint_operator(grid, (1, 2))
        lam = Fraction(9, 4)
        assert commutator_scalar(a + lam * b, c) == commutator_scalar(
            a, c
        ) + lam * commutator_scalar(b, c)

    def test_rational_spacing_embeds_exactly(self):
        grid = GridSpec(5, 0.5)
        cross = constraint_operator(grid, (2, 2))
        assert cross.p_coeffs[((2, 3), "x")] == Fraction(1, 1)  # 1/(2*0.5)


class TestGaugeInvariance:
    def test_momentum_is_invariant(self):
        assert is_gauge_invariant(p_op((3, 3), "x"), GridSpec(7, 1.0))

    def test_position_is_not(self):
        assert not is_gauge_invariant(q_op((3, 3), "x"), GridSpec(7, 1.0))

    def test_magnetic_cross_is_invariant(self):
        grid = GridSpec(7, 1.0)
        assert is_gauge_invariant(b_operator(grid, (3, 3)), grid)

    def test_all_sites_all_small_lattices(self):
        for n in (5, 7, 9):
            grid = GridSpec(n, 1.0)
            for i in range(n):
                for j in range(n):
                    assert is_gauge_invariant(b_operator(grid, (i, j)), grid)


class TestNullspace:
    def test_cross_support_is_spanned_by_b(self):
        grid = GridSpec(9, 1.0)
        center = (4, 4)
        support = [
            (center[0] + 1, center[1]),
            (center[0] - 1, center[1]),
            (center[0], center[1] + 1),
            (center[0], center[1] - 1),
        ]
        basis = gauge_invariant_nullspace(support, grid)
        assert len(basis) == 1
        b = b_operator(grid, center)
        op = basis[0]
        ratios = {
            op.q_coeffs.get(key, Fraction(0)) / coeff for key, coeff in b.q_coeffs.items()
        }
        assert len(ratios) == 1 and Fraction(0) not in ratios
        assert set(op.q_coeffs) == set(b.q_coeffs)

    def test_single_site_support_is_trivial(self):
        assert gauge_invariant_nullspace([(4, 4)], GridSpec(9, 1.0)) == []

    def test_m4_square_dimension(self):
        grid = GridSpec(11, 1.0)
        basis = gauge_invariant_nullspace(Region((3, 3), 4), grid)
        assert len(basis) == 4

    def test_every_nullspace_element_is_invariant(self):
        grid = GridSpec(11, 1.0)
        for op in gauge_invariant_nullspace(Region((3, 3), 4), grid):
            assert is_gauge_invariant(op, grid)

    def test_four_crosses_through_one_site(self):
        # widen the support around a site until all four magnetic
        # crosses containing it fit; each must appear in the nullspace
        grid = GridSpec(9, 1.0)
        site = (4, 4)
        support = [
            (i, j) for i in range(site[0] - 2, site[0] + 3)
            for j in range(site[1] - 2, site[1] + 3)
        ]
        basis = gauge_invariant_nullspace(support, grid)
        span = GeneratorSet(basis)  # just to assert independence
        assert len(span) == 9  # (5-2)^2 crosses fit the 5x5 block
        centers = [(4, 5), (4, 3), (5, 4), (3, 4)]
        for center in centers:
            b = b_operator(grid, center)
            tracker = _SparseRref()
            for op in basis:
                tracker.insert(_row(op))
            assert tracker.contains(_row(b))

    def test_repeated_support_site_counts_once(self):
        grid = GridSpec(9, 1.0)
        support = [(5, 4), (3, 4), (4, 5), (4, 3)]
        assert gauge_invariant_nullspace(support + [(5, 4)], grid) == (
            gauge_invariant_nullspace(support, grid)
        )


class TestLocalGenerators:
    def test_m3_counts(self):
        grid = GridSpec(9, 1.0)
        gens = local_generators(Region((3, 3), 3), grid)
        kinds = [label.kind for label in gens.labels]
        assert kinds.count("P") == 18 and kinds.count("B") == 1

    def test_m5_counts(self):
        grid = GridSpec(11, 1.0)
        gens = local_generators(Region((3, 3), 5), grid)
        kinds = [label.kind for label in gens.labels]
        assert kinds.count("P") == 50 and kinds.count("B") == 9

    def test_generators_are_gauge_invariant(self):
        grid = GridSpec(11, 1.0)
        gens = local_generators(Region((3, 3), 5), grid)
        assert all(is_gauge_invariant(g, grid) for g in gens.generators)

    def test_disjoint_regions_commute(self):
        grid = GridSpec(11, 1.0)
        gens_a = local_generators(Region((1, 1), 3), grid)
        gens_b = local_generators(Region((6, 6), 3), grid)
        assert all(
            commutator_scalar(ga, gb) == 0
            for ga in gens_a.generators
            for gb in gens_b.generators
        )

    def test_region_validation(self):
        with pytest.raises(ValueError):
            Region((0, 0), 2)
        with pytest.raises(ValueError):
            Region((8, 8), 5).validate_on(GridSpec(11, 1.0))


class TestRegion:
    @pytest.mark.parametrize("m", range(3, 9))
    def test_boundary_and_interior_partition_the_sites(self, m):
        region = Region((2, 1), m)
        boundary, interior = region.boundary_sites(), region.stencil_interior_sites()
        assert interior == [(2 + di, 1 + dj) for di in range(1, m - 1) for dj in range(1, m - 1)]
        assert len(boundary) == 4 * (m - 1)
        assert not set(boundary) & set(interior)
        assert sorted(boundary + interior) == region.sites()
        assert boundary == sorted(boundary)  # in sites() order


class TestCenter:
    def test_m3_dimension_from_exact_nullspace(self):
        # one magnetic cross pairs off exactly one momentum direction
        # (its q-part is a single functional on the p's, not two), so
        # 2 M^2 - (M-2)^2 = 17
        grid = GridSpec(9, 1.0)
        assert center_dimension(Region((3, 3), 3), grid) == 17

    def test_m5_dimension(self):
        grid = GridSpec(11, 1.0)
        region = Region((3, 3), 5)
        assert center_dimension(region, grid) == 50 - 9
        assert len(center_basis(region, grid).generators) == 41

    def test_interior_crosses_lie_in_center(self):
        grid = GridSpec(11, 1.0)
        region = Region((3, 3), 5)
        for site in region.stencil_interior_sites():
            assert in_center_span(constraint_operator(grid, site), region, grid)

    def test_center_elements_commute_with_all_generators(self):
        grid = GridSpec(11, 1.0)
        region = Region((3, 3), 5)
        basis = center_basis(region, grid)
        gens = local_generators(region, grid)
        assert all(
            commutator_scalar(z, g) == 0
            for z in basis.generators
            for g in gens.generators
        )

    def test_labels_cover_the_catalog_kinds(self):
        grid = GridSpec(11, 1.0)
        basis = center_basis(Region((3, 3), 5), grid)
        kinds = {label.kind for label in basis.labels}
        assert kinds == {"CROSS", "EDGE", "CORNER"}
        crosses = [label for label in basis.labels if label.kind == "CROSS"]
        assert len(crosses) == 9

    def test_non_member_rejected(self):
        grid = GridSpec(11, 1.0)
        region = Region((3, 3), 5)
        assert not in_center_span(b_operator(grid, (5, 5)), region, grid)
        assert not in_center_span(p_op((0, 0), "x"), region, grid)  # outside
        # pure p inside the region, paired only by the crosses beside it
        assert not in_center_span(p_op((5, 5), "x"), region, grid)
        assert not in_center_span(p_op((3, 5), "x"), region, grid)  # tangential

    @pytest.mark.parametrize("m,n", [(3, 9), (4, 11), (7, 15)])
    def test_dimension_formula_across_sizes(self, m, n):
        # each magnetic cross pairs off one momentum direction
        grid = GridSpec(n, 1.0)
        region = Region((1, 1), m)
        basis = center_basis(region, grid)
        assert len(basis.generators) == 2 * m * m - (m - 2) ** 2


def literal_center_dimension(region, grid):
    """The count ``center_dimension`` replaces: p generators minus
    magnetic crosses among ``local_generators``, whose construction
    proves all of them independent."""
    kinds = [label.kind for label in local_generators(region, grid).labels]
    return kinds.count("P") - kinds.count("B")


class TestCenterDimension:
    @pytest.mark.parametrize("m", range(3, 9))
    @pytest.mark.parametrize("extra", [1, 2], ids=["n=m+1", "n=m+2"])
    def test_matches_the_literal_count(self, m, extra, monkeypatch):
        # one N of each parity per M
        monkeypatch.setattr(algebra, "_NULLSPACE_CACHE", {})
        grid = GridSpec(m + extra, 1.0)
        region = Region((extra - 1, 0), m)
        assert center_dimension(region, grid) == literal_center_dimension(region, grid)

    def test_region_off_the_grid_rejected(self, monkeypatch):
        monkeypatch.setattr(algebra, "_NULLSPACE_CACHE", {})
        with pytest.raises(ValueError, match="does not fit"):
            center_dimension(Region((8, 8), 5), GridSpec(11, 1.0))


class TestCenterOracle:
    """The literal computation the block argument replaces: the nullspace
    of the whole generator pairing, read back as operators."""

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_full_pairing_nullspace_matches(self, m):
        grid = GridSpec(m + 4, 1.0)
        region = Region((2, 2), m)
        gens = local_generators(region, grid).generators
        pairing = [
            {k: commutator_scalar(gi, gk) for k, gk in enumerate(gens)} for gi in gens
        ]
        null = _nullspace(pairing, range(len(gens)))
        assert len(null) == center_dimension(region, grid) == 2 * m * m - (m - 2) ** 2
        oracle = [
            sum((c * gens[k] for k, c in vec.items()), LinearOperator()) for vec in null
        ]
        assert all(in_center_span(z, region, grid) for z in oracle)

        span = _SparseRref()
        for z in oracle:
            assert span.insert(_row(z))
        basis = center_basis(region, grid).generators
        assert all(span.contains(_row(z)) for z in basis)

        # a central p combination plus a magnetic cross is not central
        mixed = basis[0] + b_operator(grid, region.stencil_interior_sites()[0])
        assert not span.contains(_row(mixed))
        assert not in_center_span(mixed, region, grid)


def _literal_in_center(op, region, grid):
    """The membership test ``in_center_span`` replaces: the commutator
    with every interior magnetic cross of the region."""
    coords = {(site, comp) for site in region.sites() for comp in ("x", "y")}
    return (
        not op.q_coeffs
        and coords.issuperset(op.p_coeffs)
        and all(
            commutator_scalar(op, b_operator(grid, site)) == 0
            for site in region.stencil_interior_sites()
        )
    )


def _greedy_center_basis(region, grid):
    """The label pick ``center_basis`` replaces: catalog entries in
    order, each kept when it grows an exact elimination, until the
    center's dimension is reached."""
    m = region.size
    dim = 2 * m * m - (m - 2) ** 2
    ops, labels = [], []
    span = _SparseRref()
    for op, label in _center_catalog(region, grid):
        if len(ops) == dim:
            break
        if span.insert(_row(op)):
            ops.append(op)
            labels.append(label)
    assert len(ops) == dim
    return ops, labels


# per M: (N, a, origin), with odd and even N, a != 1, regions on the
# grid's first and last rows and columns, and regions one site smaller
# than the grid (N = M + 1), where the truncated crosses meet across the wrap
_LABEL_CASES = {
    3: (5, 0.5, (2, 2)),
    4: (5, 3.0, (1, 1)),
    5: (12, 3.0, (7, 0)),
    6: (8, 0.5, (2, 2)),
    7: (16, 0.5, (0, 9)),
    8: (13, 3.0, (5, 5)),
    9: (10, 1.0, (1, 0)),
    10: (15, 0.5, (2, 2)),
}


class TestCenterLabels:
    @pytest.mark.parametrize("m", sorted(_LABEL_CASES))
    def test_catalog_kept_but_four_bottom_corner_entries(self, m):
        # the closed-form pick against the greedy pick, which fixes what
        # `latgauge algebra --dump` prints
        n, a, origin = _LABEL_CASES[m]
        grid = GridSpec(n, a)
        region = Region(origin, m)
        basis = center_basis(region, grid)
        ops, labels = _greedy_center_basis(region, grid)
        assert basis.labels == tuple(labels)
        assert basis.generators == tuple(ops)
        kept = set(labels)
        dropped = [label for _, label in _center_catalog(region, grid) if label not in kept]
        bottom = origin[0] + m - 1
        assert len(dropped) == 4 and all(label.site[0] >= bottom - 1 for label in dropped)


def _dense_rref(rows):
    """Textbook dense RREF over Fractions: (reduced rows, pivot columns)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    if not rows:
        return rows, []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        piv = next((k for k in range(r, len(rows)) if rows[k][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c] != 0:
                f = rows[k][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _dense_rank(rows):
    return len(_dense_rref(rows)[0])


def _dense_nullspace(rows, ncols):
    reduced, pivots = _dense_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return basis


def _sparse(row):
    return {c: x for c, x in enumerate(row) if x != 0}


def _dense(vec, ncols):
    return [vec.get(c, Fraction(0)) for c in range(ncols)]


_SMALL = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))


@st.composite
def _rational_matrices(draw):
    """Small rational matrices rich in zeros, zero rows, repeated rows and
    rows that combine others, plus one probe row of the same width."""
    ncols = draw(st.integers(1, 6))
    vector = st.lists(_SMALL, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(vector, max_size=5))
    if draw(st.booleans()):
        rows.append([Fraction(0)] * ncols)
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        lam = draw(_SMALL)
        rows.append([lam * x + y for x, y in zip(a, b)])
    rows = draw(st.permutations(rows))
    if rows and draw(st.booleans()):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        probe = [x - 2 * y for x, y in zip(a, b)]
    else:
        probe = draw(vector)
    return ncols, rows, probe


class TestSparseRref:
    """The sparse eliminator against the dense textbook RREF."""

    @settings(max_examples=300, deadline=None)
    @given(_rational_matrices())
    def test_matches_dense_rref(self, case):
        ncols, rows, probe = case
        span = _SparseRref()
        for k, row in enumerate(rows):
            grew = _dense_rank(rows[: k + 1]) > _dense_rank(rows[:k])
            assert span.insert(dict(enumerate(row))) == grew  # zeros included
        reduced, pivots = _dense_rref(rows)
        assert len(span.rows) == len(reduced)
        assert sorted(span.rows) == pivots
        for r, pc in zip(reduced, pivots):
            assert _dense(span.rows[pc], ncols) == r
        assert all(0 not in r.values() for r in span.rows.values())
        in_span = _dense_rank(rows + [probe]) == len(reduced)
        assert span.contains(dict(enumerate(probe))) == in_span

    @settings(max_examples=300, deadline=None)
    @given(_rational_matrices())
    def test_nullspace_matches_dense(self, case):
        ncols, rows, _probe = case
        null = _nullspace([_sparse(r) for r in rows], range(ncols))
        assert [_dense(v, ncols) for v in null] == _dense_nullspace(rows, ncols)


class TestIndependentModP:
    """The rank mod p against exact elimination. True proves independence
    over Q; for entries this small every minor lies far below p, so the
    two answers agree."""

    @settings(max_examples=300, deadline=None)
    @given(_rational_matrices())
    def test_matches_sparse_rref(self, case):
        _ncols, rows, _probe = case
        span = _SparseRref()
        exact = all([span.insert(_sparse(r)) for r in rows])
        assert _independent_mod_p([_sparse(r) for r in rows]) == exact

    def test_multiples_of_p_fall_back_to_exact_elimination(self):
        x, y = p_op((1, 1), "x"), p_op((2, 3), "y")
        independent = [
            [_P * x],  # zero mod p
            [x + y, x + (1 + _P) * y],  # equal mod p
            [Fraction(1, _P) * x, y],  # a denominator divisible by p
        ]
        for gens in independent:
            assert not _independent_mod_p([_row(g) for g in gens])
            assert len(GeneratorSet(gens)) == len(gens)
        with pytest.raises(ValueError, match="linearly dependent"):
            GeneratorSet([x, Fraction(1, _P) * x])

    @pytest.mark.parametrize("spacing", [1.0, 0.7, 1e-3])
    def test_center_basis_at_m6_runs_no_exact_elimination(self, spacing, monkeypatch):
        def insert(span, row):
            raise AssertionError("exact elimination reached")

        monkeypatch.setattr(_SparseRref, "insert", insert)
        monkeypatch.setattr(algebra, "_NULLSPACE_CACHE", {})
        assert len(center_basis(Region((2, 3), 6), GridSpec(13, spacing))) == 6**2 + 4 * 6 - 4


@st.composite
def _center_probes(draw):
    """A region on a small grid, often at its edges, where neighbours
    wrap, and an operator mixing its catalog entries with p terms at any
    site, inside the region or not, and sometimes a q term."""
    n = draw(st.integers(4, 8))
    m = draw(st.integers(3, n - 1))
    corner = st.sampled_from([0, n - m]) | st.integers(0, n - m)
    region = Region((draw(corner), draw(corner)), m)
    grid = GridSpec(n, draw(st.sampled_from([1.0, 0.5, 3.0])))
    catalog = [op for op, _label in _center_catalog(region, grid)]
    anywhere = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    site = st.sampled_from(region.sites()) | anywhere
    op = LinearOperator()
    for k, c in draw(st.lists(st.tuples(st.integers(0, len(catalog) - 1), _SMALL), max_size=3)):
        op = op + c * catalog[k]
    p_terms = st.lists(st.tuples(site, st.sampled_from("xy"), _SMALL), min_size=1, max_size=2)
    for s, comp, c in draw(p_terms):
        op = op + c * p_op(s, comp)
    if draw(st.integers(0, 5)) == 5:
        op = op + q_op(draw(site), draw(st.sampled_from("xy")))
    return op, region, grid


class TestCenterSpan:
    @settings(max_examples=60, deadline=None)
    @given(_center_probes())
    def test_matches_every_interior_cross(self, probe):
        op, region, grid = probe
        assert in_center_span(op, region, grid) == _literal_in_center(op, region, grid)


@st.composite
def _pure_p_probes(draw):
    """A region, often at the grid's edges, and a pure-p operator: a
    rational combination of catalog entries (central), often plus one p
    term in the region (seldom central)."""
    n = draw(st.integers(4, 9))
    m = draw(st.integers(3, n - 1))
    corner = st.sampled_from([0, n - m]) | st.integers(0, n - m)
    region = Region((draw(corner), draw(corner)), m)
    grid = GridSpec(n, draw(st.sampled_from([1.0, 0.7, 1e-3, 2.5])))
    catalog = [op for op, _label in _center_catalog(region, grid)]
    op = LinearOperator()
    for k, c in draw(st.lists(st.tuples(st.integers(0, len(catalog) - 1), _SMALL), max_size=4)):
        op = op + c * catalog[k]
    if draw(st.booleans()):
        op = op + draw(_SMALL) * p_op(draw(st.sampled_from(region.sites())), draw(st.sampled_from("xy")))
    return op, region, grid


class TestCenterStencil:
    """The direct stencil sum against the commutator with each cross."""

    @settings(max_examples=150, deadline=None)
    @given(_pure_p_probes())
    def test_matches_commutator_definition(self, probe):
        op, region, grid = probe
        assert in_center_span(op, region, grid) == _literal_in_center(op, region, grid)


class TestSectorLabel:
    def test_vacuum_labels_vanish(self):
        grid = GridSpec(11, 1.0)
        region = Region((3, 3), 5)
        from latgauge.grid import VectorField

        labels = sector_label(VectorField.zeros(grid), region)
        assert labels == [0.0] * len(labels)

    def test_interior_charge_reads_minus_rho_on_crosses(self):
        grid = GridSpec(21, 1.0)
        kernels = build_kernels(grid)
        region = Region((7, 7), 7)
        config = MatterConfig.from_sites(grid, [(10, 10)])
        rho = density(config)
        with pytest.warns(NonNeutralWarning):
            p = coulomb_momentum(rho, kernels)
        basis = center_basis(region, grid)
        values = sector_label(p, region)
        mean = 1.0 / grid.n**2  # uniform mode dropped with the zero mode
        edge_seen = 0.0
        for label, value in zip(basis.labels, values):
            if label.kind == "CROSS":
                expected = -(rho.values[label.site] - mean)
                assert value == pytest.approx(expected, abs=1e-9)
            elif label.kind == "EDGE":
                edge_seen = max(edge_seen, abs(value))
        assert edge_seen > 1e-6  # the background leaks through the boundary

    def test_outside_support_is_invisible(self):
        grid = GridSpec(13, 1.0)
        region = Region((1, 1), 5)
        rng = np.random.default_rng(0)
        from latgauge.grid import VectorField

        px, py = rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
        base = VectorField.from_arrays(grid, px.copy(), py.copy())
        px[10, 10] += 3.0  # outside the region's closure
        py[9, 11] -= 2.0
        bumped = VectorField.from_arrays(grid, px, py)
        assert sector_label(base, region) == sector_label(bumped, region)


class TestDressingExponent:
    def test_commutator_bookkeeping(self):
        # the exponent of the left-move dressing pairs with exactly the
        # two crosses the move affects, with opposite unit weights
        grid = GridSpec(11, 1.0)
        row, col = 5, 5
        w = dressing_exponent((row, col - 1), -2.0 * grid.spacing)
        for n in range(11):
            for m in range(11):
                c = commutator_scalar(w, constraint_operator(grid, (n, m)))
                if (n, m) == (row, col):
                    assert c == 1
                elif (n, m) == (row, col - 2):
                    assert c == -1
                else:
                    assert c == 0

    @pytest.mark.parametrize("site", [(5, 5), (0, 0), (10, 1)])
    @pytest.mark.parametrize("direction", ["left", "right"])
    def test_geometry_repairs_gauss_law_across_the_wrap(self, site, direction):
        grid = GridSpec(11, 1.5)
        target, link, displacement = dressing_geometry(grid, site, direction)
        assert abs(displacement) == 3.0 and target[0] == link[0] == site[0]
        check_dressing(grid, site, target, link, displacement)
        with pytest.raises(AssertionError, match="does not repair the Gauss law"):
            check_dressing(grid, site, target, link, -displacement)
        with pytest.raises(AssertionError, match="does not repair the Gauss law"):
            check_dressing(grid, site, link, link, displacement)

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            dressing_geometry(GridSpec(11, 1.0), (5, 5), "up")


class TestRendering:
    def test_plain_text_dump(self):
        grid = GridSpec(9, 1.0)
        text = str(b_operator(grid, (4, 4)))
        assert "q_y[4,5]" in text and "(-1/2)" in text and "(1/2)" in text

    def test_zero_operator(self):
        assert str(LinearOperator()) == "(0)"
        assert str(p_op((1, 1), "x") - p_op((1, 1), "x")) == "(0)"


class TestGeneratorSet:
    def test_rejects_dependent_generators(self):
        grid = GridSpec(9, 1.0)
        b = b_operator(grid, (4, 4))
        with pytest.raises(ValueError):
            GeneratorSet([b, 2 * b])

    def test_rejects_duplicate_singletons(self):
        with pytest.raises(ValueError):
            GeneratorSet([p_op((1, 1), "x"), p_op((1, 1), "x")])

    def test_rejects_composite_over_singletons(self):
        a, b = p_op((1, 1), "x"), p_op((2, 3), "y")
        assert len(GeneratorSet([a, a + b])) == 2
        for gens in ([a, b, a + b], [a + b, b, a], [a, b, a - 2 * b]):
            with pytest.raises(ValueError):
                GeneratorSet(gens)

    def test_rejects_zero_and_scalar_generators(self):
        # with no scalar part, an operator without q or p terms is zero
        with pytest.raises(ValueError):
            GeneratorSet([p_op((1, 1), "x"), LinearOperator()])
