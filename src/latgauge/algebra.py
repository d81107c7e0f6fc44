"""Exact symbolic algebra of field-linear operators: scalar commutators,
gauge invariance, local-algebra generators for square regions, centers
with edge terms, and brute-force minimality of the plaquette-cross
magnetic operator.

All coefficients are exact rationals; stencil factors 1/(2a) embed
exactly because binary floats are rationals. Commutators of field-linear
operators are always scalars, so gauge invariance reduces to an exact
nullspace computation. Independence is first proven by a rank mod the
prime ``2^61 - 1``: a full rank there is a full rank over Q. Exact
elimination, one sparse, incremental reduced row echelon form, finds
gauge-invariant nullspaces and decides independence wherever the rank
mod p falls short.

Centers need no elimination. A square region's algebra is generated by
its p components and its interior magnetic crosses b; p-p and b-b
commutators vanish, so the pairing has one nonzero block, ``[p, b]``,
which is the crosses' coefficient matrix. The crosses are exactly
independent, so no b admixture is central, the center is the pure-p
kernel of that block, and its dimension is ``2M^2 - (M-2)^2``. Nor do
the center's labels: the basis is the catalog of crosses and edge terms
minus four entries fixed in closed form.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

from .grid import GridSpec, VectorField

__all__ = [
    "Site",
    "Label",
    "LinearOperator",
    "Region",
    "GeneratorSet",
    "q_op",
    "p_op",
    "b_operator",
    "constraint_operator",
    "dressing_exponent",
    "dressing_geometry",
    "check_dressing",
    "commutator_scalar",
    "is_gauge_invariant",
    "gauge_invariant_nullspace",
    "local_generators",
    "center_basis",
    "sector_label",
]

Site = tuple[int, int]
Coord = tuple[Site, str]  # ((i, j), "x" | "y")

_COMPONENTS = ("x", "y")
_EMPTY: Mapping = MappingProxyType({})


@dataclass(frozen=True)
class Label:
    """Classification tag for a generator or center element."""

    kind: str  # "P", "B", "CROSS", "EDGE", "CORNER"
    site: Site
    detail: str | None = None

    def __str__(self):
        extra = f",{self.detail}" if self.detail else ""
        return f"{self.kind}({self.site[0]},{self.site[1]}{extra})"


@dataclass(frozen=True)
class LinearOperator:
    """Exact linear combination of site-local q/p generators. The
    coefficient maps are read-only, hold Fractions and never hold a zero."""

    q_coeffs: Mapping[Coord, Fraction] = field(default_factory=dict)
    p_coeffs: Mapping[Coord, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "q_coeffs", _clean(self.q_coeffs))
        object.__setattr__(self, "p_coeffs", _clean(self.p_coeffs))

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        return LinearOperator(
            _merge(self.q_coeffs, other.q_coeffs, 1),
            _merge(self.p_coeffs, other.p_coeffs, 1),
        )

    def __sub__(self, other: "LinearOperator") -> "LinearOperator":
        return LinearOperator(
            _merge(self.q_coeffs, other.q_coeffs, -1),
            _merge(self.p_coeffs, other.p_coeffs, -1),
        )

    def __mul__(self, factor) -> "LinearOperator":
        f = Fraction(factor)
        return LinearOperator(
            {k: v * f for k, v in self.q_coeffs.items()},
            {k: v * f for k, v in self.p_coeffs.items()},
        )

    __rmul__ = __mul__

    def __neg__(self) -> "LinearOperator":
        return self * -1

    def evaluate(self, q_field: VectorField | None = None,
                 p_field: VectorField | None = None) -> float:
        """Apply the operator as a linear functional on classical fields."""
        total = 0.0
        for (site, comp), coeff in self.q_coeffs.items():
            if q_field is None:
                raise ValueError("operator has q terms but no q field given")
            total += float(coeff) * float(q_field.component(comp).values[site])
        for (site, comp), coeff in self.p_coeffs.items():
            if p_field is None:
                raise ValueError("operator has p terms but no p field given")
            total += float(coeff) * float(p_field.component(comp).values[site])
        return total

    def __str__(self):
        terms = []
        for kind, coeffs in (("q", self.q_coeffs), ("p", self.p_coeffs)):
            for (site, comp), coeff in sorted(coeffs.items()):
                terms.append(f"({coeff})*{kind}_{comp}[{site[0]},{site[1]}]")
        return " + ".join(terms) or "(0)"

    __repr__ = __str__


def _clean(coeffs) -> Mapping:
    if not coeffs:
        return _EMPTY
    return MappingProxyType({k: f for k, v in coeffs.items() if (f := Fraction(v)) != 0})


def _merge(a: dict, b: dict, sign: int) -> dict:
    out = dict(a)
    for k, v in b.items():
        new = out.get(k, Fraction(0)) + sign * v
        if new == 0:
            out.pop(k, None)
        else:
            out[k] = new
    return out


def q_op(site: Site, comp: str) -> LinearOperator:
    return LinearOperator(q_coeffs={(tuple(site), comp): Fraction(1)})


def p_op(site: Site, comp: str) -> LinearOperator:
    return LinearOperator(p_coeffs={(tuple(site), comp): Fraction(1)})


def _half_inv_a(grid: GridSpec) -> Fraction:
    # exact: every binary float is a rational
    return Fraction(1, 2) / Fraction(grid.spacing)

def b_operator(grid: GridSpec, site: Site) -> LinearOperator:
    """Magnetic plaquette cross at ``site``:
    ``(q_y[i,j+1] - q_y[i,j-1] - q_x[i+1,j] + q_x[i-1,j]) / 2a``."""
    i, j = site
    h = _half_inv_a(grid)
    w = grid.wrap
    return LinearOperator(
        q_coeffs={
            (w(i, j + 1), "y"): h,
            (w(i, j - 1), "y"): -h,
            (w(i + 1, j), "x"): -h,
            (w(i - 1, j), "x"): h,
        }
    )


def constraint_operator(grid: GridSpec, site: Site) -> LinearOperator:
    """Field part of the Gauss cross at ``site``:
    ``(p_x[i,j+1] - p_x[i,j-1] + p_y[i+1,j] - p_y[i-1,j]) / 2a``."""
    i, j = site
    h = _half_inv_a(grid)
    w = grid.wrap
    return LinearOperator(
        p_coeffs={
            (w(i, j + 1), "x"): h,
            (w(i, j - 1), "x"): -h,
            (w(i + 1, j), "y"): h,
            (w(i - 1, j), "y"): -h,
        }
    )


def dressing_exponent(link_site: Site, displacement: float) -> LinearOperator:
    """Exponent of the single-link dressing unitary
    ``exp(i * displacement * q_x[link] )`` written as ``displacement * q_x``;
    a charge move across the link needs ``displacement = -(+) 2a`` for a
    left (right) move so the commutators with the Gauss crosses cancel
    the move's gauge phase."""
    return Fraction(displacement) * q_op(link_site, "x")


def dressing_geometry(grid: GridSpec, site: Site, direction: str) -> tuple[Site, Site, float]:
    """The protocol's charge move from ``site`` two columns ``direction``
    ('left' or 'right') as ``(target, link, displacement)``: its dressing
    displaces p_x on ``link``, the column in between, by -2a (left) or
    +2a (right). The one definition of the dressed move."""
    if direction == "left":
        step = -1
    elif direction == "right":
        step = 1
    else:
        raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")
    row, col = site
    return grid.wrap(row, col + 2 * step), grid.wrap(row, col + step), step * 2.0 * grid.spacing


def check_dressing(
    grid: GridSpec, site: Site, target: Site, link: Site, displacement: float
) -> None:
    """Assert exactly that the dressing ``displacement * q_x[link]``
    repairs the Gauss law of the charge move from ``site`` to ``target``:
    its commutator with the Gauss cross is +1 at ``site`` and -1 at
    ``target`` (minus the change of rho there) and 0 on every other cross
    it touches, so the dressed move leaves ``div p + rho`` unchanged.

    The crosses commute with lattice translations, so the move is checked
    in Fractions at the origin, relative to ``site``, once per grid and
    relative geometry.

    Raises
    ------
    AssertionError
        On the first cross where the commutator differs.
    """
    n = grid.n
    _check_relative_dressing(
        grid,
        ((target[0] - site[0]) % n, (target[1] - site[1]) % n),
        ((link[0] - site[0]) % n, (link[1] - site[1]) % n),
        float(displacement),
    )


@functools.cache
def _check_relative_dressing(grid, target, link, displacement) -> None:
    source = (0, 0)
    dressing = dressing_exponent(link, displacement)
    for cross in sorted(set(_touched_crosses([link], grid)) | {source, target}):
        expected = (cross == source) - (cross == target)
        got = commutator_scalar(dressing, constraint_operator(grid, cross))
        if got != expected:
            raise AssertionError(
                f"dressing {dressing} does not repair the Gauss law of the move "
                f"{source} -> {target}: commutator {got} at cross {cross}, expected {expected}"
            )


def commutator_scalar(lhs: LinearOperator, rhs: LinearOperator) -> Fraction:
    """Scalar c with [lhs, rhs] = i*hbar*c*identity, i.e.
    ``sum (lhs.q * rhs.p - lhs.p * rhs.q)`` over matched site and
    component."""
    total = Fraction(0)
    # iterate over the smaller map for each pairing
    for key, coeff in lhs.q_coeffs.items():
        other = rhs.p_coeffs.get(key)
        if other is not None:
            total += coeff * other
    for key, coeff in lhs.p_coeffs.items():
        other = rhs.q_coeffs.get(key)
        if other is not None:
            total -= coeff * other
    return total


_NEIGHBOURS = ((0, 1), (0, -1), (1, 0), (-1, 0))


def _touched_crosses(sites, grid: GridSpec) -> list[Site]:
    """The sites whose (Gauss or magnetic) cross stencil touches one of
    ``sites``, in sorted order: their wrapped 4-neighbours, the only
    crosses that can have a nonzero commutator with an operator supported
    on ``sites``."""
    return sorted({grid.wrap(i + di, j + dj) for i, j in sites for di, dj in _NEIGHBOURS})


def is_gauge_invariant(op: LinearOperator, grid: GridSpec) -> bool:
    """True iff the operator commutes with the Gauss cross at every
    lattice site; only the crosses it touches are evaluated."""
    support = [site for site, _comp in (*op.q_coeffs, *op.p_coeffs)]
    return all(
        commutator_scalar(op, constraint_operator(grid, site)) == 0
        for site in _touched_crosses(support, grid)
    )


@dataclass(frozen=True)
class Region:
    """Axis-aligned ``size x size`` block of sites whose top-left site is
    ``origin``, on the grid without wrapping and smaller than it, so that
    the region has a boundary."""

    origin: Site
    size: int

    def __post_init__(self):
        if self.size < 3:
            raise ValueError("need M >= 3 for a nonempty interior")

    def validate_on(self, grid: GridSpec) -> None:
        i0, j0 = self.origin
        n = grid.n
        if not (0 <= i0 and 0 <= j0 and i0 + self.size <= n and j0 + self.size <= n):
            raise ValueError(f"region {self} does not fit on the {n}x{n} grid")
        if self.size == n:
            raise ValueError(f"region {self} covers the whole {n}x{n} torus and has no boundary")

    def sites(self) -> list[Site]:
        i0, j0 = self.origin
        return [
            (i0 + di, j0 + dj)
            for di in range(self.size)
            for dj in range(self.size)
        ]

    def contains(self, site: Site) -> bool:
        i, j = site
        i0, j0 = self.origin
        return i0 <= i < i0 + self.size and j0 <= j < j0 + self.size

    def is_interior(self, site: Site) -> bool:
        """Whether the site's full 4-neighbour stencil stays inside the region."""
        i0, j0 = self.origin
        return i0 < site[0] < i0 + self.size - 1 and j0 < site[1] < j0 + self.size - 1

    def stencil_interior_sites(self) -> list[Site]:
        return [s for s in self.sites() if self.is_interior(s)]

    def boundary_sites(self) -> list[Site]:
        return [s for s in self.sites() if not self.is_interior(s)]

    def corner_sites(self) -> list[Site]:
        i0, j0 = self.origin
        m = self.size
        return [
            (i0, j0),
            (i0, j0 + m - 1),
            (i0 + m - 1, j0),
            (i0 + m - 1, j0 + m - 1),
        ]


@dataclass(frozen=True)
class GeneratorSet:
    """Parallel tuples of operators and their labels, copied from the
    sequences given; construction checks exact linear independence."""

    generators: tuple[LinearOperator, ...]
    labels: tuple[Label, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.labels and len(self.labels) != len(self.generators):
            raise ValueError("labels must parallel generators")
        if _first_dependent([_row(g) for g in self.generators]) is not None:
            raise ValueError("generators are linearly dependent")

    def __len__(self):
        return len(self.generators)


# ---------------------------------------------------------------------------
# exact linear algebra over Fractions

_P = 2**61 - 1  # a Mersenne prime


def _independent_mod_p(rows) -> bool:
    """Whether the sparse rows ``{column: Fraction}`` are linearly
    independent mod ``_P``, each entry read as numerator times the
    inverse of its denominator.

    True proves them independent over Q: with every denominator a unit
    mod p, each row is an integer row times a unit, and a maximal minor
    nonzero mod p is a nonzero integer. False proves nothing, and is
    also the answer when a denominator is divisible by p; only exact
    elimination (``_SparseRref``) then decides.
    """
    units: dict[int, int] = {}
    ids: dict = {}
    pivots: dict[int, dict[int, int]] = {}  # pivot column -> row, 1 there
    for row in rows:
        r = {}
        for c, v in row.items():
            d = v.denominator
            unit = units.get(d)
            if unit is None:
                if d % _P == 0:
                    return False
                unit = units[d] = pow(d, -1, _P)
            x = v.numerator * unit % _P
            if x:
                r[ids.setdefault(c, len(ids))] = x
        while r:
            c = min(r)
            pivot = pivots.get(c)
            if pivot is None:
                unit = pow(r[c], -1, _P)
                pivots[c] = {k: x * unit % _P for k, x in r.items()}
                break
            f = r[c]
            for k, x in pivot.items():
                y = (r.get(k, 0) - f * x) % _P
                if y:
                    r[k] = y
                else:
                    del r[k]
        else:
            return False  # the row reduced to zero
    return True


def _first_dependent(rows) -> int | None:
    """Index of the first of the sparse rows ``{column: Fraction}`` that
    lies in the span of the rows before it, or None if they are linearly
    independent over Q: proven by their rank mod ``_P`` when it is full,
    else decided by exact elimination. The one independence proof."""
    if _independent_mod_p(rows):
        return None
    span = _SparseRref()
    return next((index for index, row in enumerate(rows) if not span.insert(row)), None)


def _row(op: LinearOperator) -> dict:
    """Sparse row of an operator's q and p coefficients, keyed
    ``("q", coord)`` and ``("p", coord)``."""
    row = {("q", c): v for c, v in op.q_coeffs.items()}
    row.update({("p", c): v for c, v in op.p_coeffs.items()})
    return row


def _subtract_multiple(row: dict, factor: Fraction, other: dict) -> None:
    """``row -= factor * other`` in place, dropping entries that vanish."""
    for c, v in other.items():
        new = row.get(c, 0) - factor * v
        if new:
            row[c] = new
        else:
            del row[c]


class _SparseRref:
    """Reduced row echelon form grown one sparse row at a time.

    A row is a dict ``{column: Fraction}`` that never holds a zero;
    columns are any mutually ordered keys. ``rows`` maps each pivot
    column to its row, which is 1 there and 0 at every other pivot. Each
    pivot is the smallest column of its row, so after any sequence of
    inserts the rows are the unique RREF of their span.
    """

    def __init__(self):
        self.rows: dict = {}

    def reduce(self, row: dict) -> dict:
        """Residue of ``row`` after elimination against the current rows."""
        out = {c: Fraction(v) for c, v in row.items() if v != 0}
        # pivot rows vanish at each other's pivots, so the factors are
        # the entries the row has on entry
        for pc in [c for c in out if c in self.rows]:
            _subtract_multiple(out, out[pc], self.rows[pc])
        return out

    def insert(self, row: dict) -> bool:
        """Add ``row`` to the span; returns whether the rank grew."""
        residue = self.reduce(row)
        if not residue:
            return False
        pc = min(residue)
        inv = residue[pc]
        residue = {c: v / inv for c, v in residue.items()}
        for other in self.rows.values():
            f = other.get(pc)
            if f is not None:
                _subtract_multiple(other, f, residue)
        self.rows[pc] = residue
        return True

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)


def _nullspace(rows, columns) -> list[dict]:
    """Basis of {x : rows @ x = 0} over ``columns``, read off the RREF:
    one sparse vector per free column, in increasing column order."""
    span = _SparseRref()
    for row in rows:
        span.insert(row)
    basis = []
    for fc in sorted(columns):
        if fc in span.rows:
            continue
        vec = {fc: Fraction(1)}
        for pc, r in span.rows.items():
            if fc in r:
                vec[pc] = -r[fc]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# nullspace of the pure-q gauge-invariance conditions

def _support_sites(support) -> list[Site]:
    if isinstance(support, Region):
        return support.sites()
    return sorted({tuple(s) for s in support})


def gauge_invariant_nullspace(support, grid: GridSpec) -> list[LinearOperator]:
    """All pure-q linear combinations supported on ``support`` that
    commute with every Gauss cross, as an exact rational basis in
    reduced echelon form.

    ``support`` is a Region or any iterable of sites; the brute-force
    construction repeats the minimality argument for the magnetic cross:
    on a tight cross-shaped support the result is one-dimensional and
    proportional to it.
    """
    sites = _support_sites(support)
    if isinstance(support, Region):
        support.validate_on(grid)
    coords = {(s, c) for s in sites for c in _COMPONENTS}
    # conditions: [f(q), cross(n, m)] = 0; only crosses touching the
    # support produce nonzero rows
    rows = [
        {k: v for k, v in constraint_operator(grid, cs).p_coeffs.items() if k in coords}
        for cs in _touched_crosses(sites, grid)
    ]
    return [LinearOperator(q_coeffs=vec) for vec in _nullspace(rows, coords)]


# ---------------------------------------------------------------------------
# local algebras and centers

def local_generators(region: Region, grid: GridSpec) -> GeneratorSet:
    """Generators of the region's gauge-invariant algebra: every p
    component at sites in the region plus every magnetic cross whose
    full 4-site stencil lies inside. Ordering is deterministic: p before
    b, row-major by site, x before y."""
    region.validate_on(grid)
    gens: list[LinearOperator] = []
    labels: list[Label] = []
    for site in region.sites():
        for comp in _COMPONENTS:
            gens.append(p_op(site, comp))
            labels.append(Label("P", site, comp))
    for site in region.stencil_interior_sites():
        gens.append(b_operator(grid, site))
        labels.append(Label("B", site))
    return GeneratorSet(gens, labels)


def _center_catalog(region: Region, grid: GridSpec) -> list[tuple[LinearOperator, Label]]:
    """Candidate center elements in deterministic preference order:
    interior Gauss crosses, boundary-truncated crosses, boundary-normal
    single p components, then corner p pairs (reported per component)."""
    out: list[tuple[LinearOperator, Label]] = []
    for site in region.stencil_interior_sites():
        out.append((constraint_operator(grid, site), Label("CROSS", site)))
    for site in region.boundary_sites():
        cross = constraint_operator(grid, site).p_coeffs
        truncated = {k: v for k, v in cross.items() if region.contains(k[0])}
        out.append((LinearOperator(p_coeffs=truncated), Label("EDGE", site, "cross")))
    corner_set = set(region.corner_sites())
    i0, j0 = region.origin
    m = region.size
    for site in region.boundary_sites():
        if site in corner_set:
            continue
        i, j = site
        if j == j0 or j == j0 + m - 1:  # vertical border: normal is x
            out.append((p_op(site, "x"), Label("EDGE", site, "normal-px")))
        if i == i0 or i == i0 + m - 1:  # horizontal border: normal is y
            out.append((p_op(site, "y"), Label("EDGE", site, "normal-py")))
    for site in region.corner_sites():
        for comp in _COMPONENTS:
            out.append((p_op(site, comp), Label("CORNER", site, comp)))
    return out


def _dropped_labels(region: Region) -> set[Label]:
    """The four catalog entries the center basis leaves out: the last
    entry, in catalog order, of each of the catalog's four relations."""
    bottom, left = region.origin[0] + region.size - 1, region.origin[1]
    right = left + region.size - 1
    if region.size % 2:
        corner = {Label("CORNER", (bottom, right), comp) for comp in _COMPONENTS}
        return corner | {Label("EDGE", (bottom, right), "cross"),
                         Label("EDGE", (bottom, right - 1), "normal-py")}
    return {Label("CORNER", site, comp) for site in ((bottom, left), (bottom, right))
            for comp in _COMPONENTS}


def center_basis(region: Region, grid: GridSpec) -> GeneratorSet:
    """Exact basis of the center of the local algebra, labeled against
    the catalog of interior crosses and edge terms.

    The center is pure p, of dimension ``M^2 + 4M - 4``, and the catalog
    has ``(M-2)^2 + 8M - 4`` entries, so it obeys four linear relations:
    in a region smaller than the grid, the stride-2 cross stencil splits
    the sites into four parity classes, and on each class the crosses
    telescope to border p components that the edge and corner entries
    carry. The basis drops one entry of each relation and proves the
    rest a basis on every call: each entry is central
    (``in_center_span``), ``GeneratorSet`` proves them independent (by
    their rank mod p, with exact elimination only if that falls short),
    and their number is ``center_dimension``.
    """
    dim = center_dimension(region, grid)
    dropped = _dropped_labels(region)
    ops: list[LinearOperator] = []
    labels: list[Label] = []
    for op, label in _center_catalog(region, grid):
        if label in dropped:
            continue
        if not in_center_span(op, region, grid):
            raise AssertionError(f"catalog element {label} is not central")
        ops.append(op)
        labels.append(label)
    basis = GeneratorSet(ops, labels)
    if len(ops) != dim:
        raise AssertionError(f"catalog keeps {len(ops)} entries for {dim} center dimensions")
    return basis


# center dimensions; the benchmark empties it per op, as a new process has it
_NULLSPACE_CACHE: dict = {}


def center_dimension(region: Region, grid: GridSpec) -> int:
    """Dimension of the center, ``2M^2 - (M-2)^2``: region p components
    minus interior crosses. The p generators are unit rows in distinct
    columns, so the count holds once the crosses are proven independent
    (``_first_dependent``).
    Memoized in ``_NULLSPACE_CACHE``.

    Raises
    ------
    AssertionError
        If the interior crosses are linearly dependent.
    """
    key = (region, grid)
    if key not in _NULLSPACE_CACHE:
        region.validate_on(grid)
        sites = region.stencil_interior_sites()
        dependent = _first_dependent([_row(b_operator(grid, site)) for site in sites])
        if dependent is not None:
            raise AssertionError(f"the interior cross at {sites[dependent]} depends on the others")
        m = region.size
        _NULLSPACE_CACHE[key] = 2 * m * m - (m - 2) ** 2
    return _NULLSPACE_CACHE[key]


def in_center_span(op: LinearOperator, region: Region, grid: GridSpec) -> bool:
    """Exact membership test of ``op`` in the center: no q part, p support
    inside the region, and commuting with every interior magnetic cross.
    That commutator is ``-1/(2a)`` times the cross's four-term stencil
    ``p_y[i,j+1] - p_y[i,j-1] - p_x[i+1,j] + p_x[i-1,j]`` of ``op``'s p
    coefficients, so the stencil is summed directly, in Fractions, at the
    interior crosses next to the p support, the only ones that can pair
    with it."""
    region.validate_on(grid)
    p = op.p_coeffs
    if op.q_coeffs or not all(region.contains(site) for site, _comp in p):
        return False
    # the region does not wrap, so an interior cross's stencil needs no wrap
    get = p.get
    for i, j in {(i + di, j + dj) for (i, j), _comp in p for di, dj in _NEIGHBOURS}:
        if region.is_interior((i, j)) and (
            get(((i, j + 1), "y"), 0) - get(((i, j - 1), "y"), 0)
            - get(((i + 1, j), "x"), 0) + get(((i - 1, j), "x"), 0)
        ):
            return False
    return True


def sector_label(p_field: VectorField, region: Region) -> list[float]:
    """Evaluate every center basis element on a classical momentum
    configuration, in center_basis order: the classical shadow of the
    superselection labels. In a sector of charge density rho, the
    interior cross labels read -rho at their centers."""
    basis = center_basis(region, p_field.grid)
    return [op.evaluate(p_field=p_field) for op in basis.generators]
