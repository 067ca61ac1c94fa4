"""Finitely presented modules over R = Q[x_1..x_s]/I and maps between them.

A Presentation is a generator list (labels) together with relation rows;
the module is R^gens / span(rows).  The defining ideal never appears in
the relation list: membership and normal-form questions are delegated to
the engine's ideal-augmented routines, so all arithmetic on coefficients
happens modulo I automatically.

A ModuleMap stores one column per source generator, each column a free
element over the target generators.  Kernels, cokernels, exactness of a
complex, and splitting checks reduce to syzygy and membership computations.

Ranks come from fraction-free elimination: one column-clearing step
(_clear_column) replaces each row by pivot * row - entry * pivot row,
reduced modulo I.  Over a domain this keeps the rank over Frac(R), so the
generic rank of a module is a count of pivots.  The scalar sweep of
resolution.minimal_presentation uses the same step.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .poly import Polynomial, Record
from .parser import (RingParseError, RingSpec, parse_label,
                     parse_presentation_doc, sym_label)
from .groebner import (
    FreeElement,
    SubmoduleBasis,
    nf_poly,
    prune_rows,
    row_lead_key,
    submodule_over_ring,
    syzygies_over_ring,
)


class Presentation(Record):
    ring: RingSpec
    generators: Tuple[str, ...]
    relations: Tuple[FreeElement, ...]
    degrees: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        n = len(self.generators)
        for row in self.relations:
            if len(row) != n:
                raise ValueError("relation row length %d != %d generators"
                                 % (len(row), n))
        if self.degrees is not None and len(self.degrees) != n:
            raise ValueError("degree list does not match generators")

    @property
    def ngens(self) -> int:
        return len(self.generators)

    def zero_row(self) -> FreeElement:
        zero = self.ring.zero()
        return tuple(zero for _ in self.generators)

    def unit_row(self, index: int) -> FreeElement:
        zero = self.ring.zero()
        one = self.ring.one()
        return tuple(one if i == index else zero for i in range(self.ngens))


class ModuleMap(Record):
    source: Presentation
    target: Presentation
    columns: Tuple[FreeElement, ...]

    def __post_init__(self):
        if len(self.columns) != self.source.ngens:
            raise ValueError("need one column per source generator")
        for col in self.columns:
            if len(col) != self.target.ngens:
                raise ValueError("column length does not match target")


def free_presentation(ring: RingSpec, labels: Sequence[str]) -> Presentation:
    """R^n on the labels; each must be label text that `parse_label` reads
    back unchanged, so the presentation's document parses again."""
    for label in labels:
        try:
            canonical = parse_label(label, ring) == label
        except RingParseError:
            canonical = False
        if not canonical:
            raise ValueError("generator label %r is not canonical label text"
                             % (label,))
    return Presentation(ring, tuple(labels), ())


def zero_presentation(ring: RingSpec) -> Presentation:
    return Presentation(ring, (), (), ())


def ring_as_module(ring: RingSpec) -> Presentation:
    """R itself, one generator `e`, no extra relations beyond the ideal."""
    return Presentation(ring, ("e",), (), (0,))


def parse_presentation(text: str) -> Presentation:
    ring, labels, rows = parse_presentation_doc(text)
    return Presentation(ring, labels, tuple(tuple(r) for r in rows))


def relation_basis(m: Presentation) -> SubmoduleBasis:
    """Ideal-augmented basis of the relation submodule, from the span
    memo."""
    return submodule_over_ring(m.relations, m.ngens, m.ring)


def element_is_zero(m: Presentation, element: FreeElement) -> bool:
    return relation_basis(m).contains(element)


def presentation_is_zero(m: Presentation) -> bool:
    return all(element_is_zero(m, m.unit_row(i)) for i in range(m.ngens))


def normalize_element(m: Presentation, element: FreeElement) -> FreeElement:
    """Canonical representative of an element of m: its normal form against
    the relations plus I*P^ngens, so no entry has a term in LT(I)."""
    return relation_basis(m).normal_form(element)


# ---------------------------------------------------------------------------
# maps


def apply_map(f: ModuleMap, element: Sequence[Polynomial]) -> FreeElement:
    element = tuple(element)
    if len(element) != f.source.ngens:
        raise ValueError("element does not live in the source module")
    out = list(f.target.zero_row())
    for coeff, col in zip(element, f.columns):
        if coeff.is_zero():
            continue
        for t, entry in enumerate(col):
            out[t] = out[t] + coeff * entry
    return tuple(nf_poly(p, f.target.ring) for p in out)


def identity_map(m: Presentation) -> ModuleMap:
    return ModuleMap(m, m, tuple(m.unit_row(i) for i in range(m.ngens)))


def zero_map(source: Presentation, target: Presentation) -> ModuleMap:
    return ModuleMap(source, target,
                     tuple(target.zero_row() for _ in range(source.ngens)))


def compose(g: ModuleMap, f: ModuleMap) -> ModuleMap:
    """g after f."""
    if f.target is not g.source and f.target != g.source:
        raise ValueError("maps are not composable")
    cols = tuple(apply_map(g, col) for col in f.columns)
    return ModuleMap(f.source, g.target, cols)


def check_well_defined(f: ModuleMap) -> bool:
    """True when every source relation maps to zero in the target."""
    return all(element_is_zero(f.target, apply_map(f, row))
               for row in f.source.relations)


def is_zero_map(f: ModuleMap) -> bool:
    return all(element_is_zero(f.target, col) for col in f.columns)


# ---------------------------------------------------------------------------
# kernel / cokernel / exactness


def kernel(f: ModuleMap) -> Tuple[Presentation, ModuleMap]:
    """Kernel presentation and its inclusion into the source.

    Kernel generators are the syzygies of the map columns modulo the target
    relations; kernel relations are the syzygies of those generators
    modulo the source relations, pruned in ascending-lead order as in
    resolution._chain.  Into a target with no generators every column is
    all tag, so the generators are the source's unit rows.
    """
    src, tgt, ring = f.source, f.target, f.source.ring
    ncols = src.ngens
    raw = syzygies_over_ring(f.columns, tgt.ngens, ring, tgt.relations)
    gens = prune_rows(raw, ncols, ring, base=src.relations)
    labels = tuple("k%d" % i for i in range(len(gens)))
    if not gens:
        k = zero_presentation(ring)
        return k, zero_map(k, src)
    syz2 = syzygies_over_ring(gens, ncols, ring, src.relations)
    syz2.sort(key=lambda r: row_lead_key(r, ring))
    rels = prune_rows(syz2, len(gens), ring)
    k = Presentation(ring, labels, tuple(rels))
    return k, ModuleMap(k, src, tuple(gens))


def cokernel(f: ModuleMap) -> Presentation:
    tgt = f.target
    rows = list(tgt.relations) + [apply_map(f, f.source.unit_row(i))
                                  for i in range(f.source.ngens)]
    rows = prune_rows(rows, tgt.ngens, tgt.ring)
    return Presentation(tgt.ring, tgt.generators, tuple(rows), tgt.degrees)


def check_exact(maps: Sequence[ModuleMap]) -> List[bool]:
    """One verdict per junction of a complex ... -> A -> B -> C -> ...

    Junction between f: A->B and g: B->C holds when g∘f = 0 and every
    syzygy of g's columns modulo C's relations lies in the span of f's
    columns plus B's relations.  Together with B's relations those
    syzygies span ker g.
    """
    out = []
    for f, g in zip(maps, maps[1:]):
        if f.target != g.source:
            raise ValueError("maps do not form a complex")
        composite_zero = is_zero_map(compose(g, f))
        ring = g.source.ring
        syz = syzygies_over_ring(g.columns, g.target.ngens, ring,
                                 g.target.relations)
        basis = submodule_over_ring((*f.columns, *g.source.relations),
                                    g.source.ngens, ring)
        out.append(composite_zero and all(basis.contains(r) for r in syz))
    return out


def verify_splitting(section: ModuleMap, retraction: ModuleMap,
                     scalar: Fraction = Fraction(1)) -> bool:
    """True when scalar * (retraction ∘ section) is the identity."""
    composite = compose(retraction, section)
    src = section.source
    for i, col in enumerate(composite.columns):
        scaled = tuple(p.scale(scalar) for p in col)
        diff = tuple(a - b for a, b in zip(scaled, src.unit_row(i)))
        if not element_is_zero(src, diff):
            return False
    return True


# ---------------------------------------------------------------------------
# direct sums


def direct_sum(a: Presentation, b: Presentation
               ) -> Tuple[Presentation, ModuleMap, ModuleMap]:
    if a.ring != b.ring:
        raise ValueError("direct sum needs a common ring")
    ring = a.ring
    zero = ring.zero()
    gens = a.generators + b.generators
    if len(set(gens)) != len(gens):
        raise ValueError("generator labels collide in direct sum")
    rows = [tuple(r) + tuple(zero for _ in b.generators) for r in a.relations]
    rows += [tuple(zero for _ in a.generators) + tuple(r) for r in b.relations]
    degrees = None
    if a.degrees is not None and b.degrees is not None:
        degrees = a.degrees + b.degrees
    total = Presentation(ring, gens, tuple(rows), degrees)
    inc_a = ModuleMap(a, total, tuple(total.unit_row(i)
                                      for i in range(a.ngens)))
    inc_b = ModuleMap(b, total, tuple(total.unit_row(a.ngens + i)
                                      for i in range(b.ngens)))
    return total, inc_a, inc_b


# ---------------------------------------------------------------------------
# symmetric square


def _pair_index(n: int) -> Dict[Tuple[int, int], int]:
    """Position of the unordered pair (i, j), i <= j, among the pairs of
    range(n) listed row by row: the generator order of S^2."""
    out = {}
    for i in range(n):
        for j in range(i, n):
            out[(i, j)] = len(out)
    return out


def _add_sym(out: List[Polynomial], pair_index: Dict[Tuple[int, int], int],
             row: Sequence[Polynomial], k: int) -> None:
    """Add sym(row ⊗ e_k), written in the pair coordinates, into out."""
    for i, coeff in enumerate(row):
        if not coeff.is_zero():
            idx = pair_index[(min(i, k), max(i, k))]
            out[idx] = out[idx] + coeff


def symmetric_square(m: Presentation) -> Presentation:
    """S^2(M): generators s(a,b) over unordered pairs of m's generators.

    Relations: for every relation row r of m and every generator g of m,
    the symmetrization of r ⊗ g, written in the pair coordinates.
    """
    gens = m.generators
    n = len(gens)
    pair_index = _pair_index(n)
    labels = [sym_label(gens[i], gens[j]) for (i, j) in pair_index]
    zero = m.ring.zero()
    rows: List[FreeElement] = []
    for row in m.relations:
        for k in range(n):
            out = [zero] * len(labels)
            _add_sym(out, pair_index, row, k)
            rows.append(tuple(out))
    rows = prune_rows(rows, len(labels), m.ring)
    degrees = None
    if m.degrees is not None:
        degrees = tuple(m.degrees[i] + m.degrees[j] for (i, j) in pair_index)
    return Presentation(m.ring, tuple(labels), tuple(rows), degrees)


# ---------------------------------------------------------------------------
# numerical invariants


def rank(m: Presentation) -> int:
    """Generic rank of M over the fraction field of R (domain rings only).

    ngens minus the rank of the relation matrix over Frac(R), found by
    fraction-free elimination with entries reduced modulo I
    (_matrix_rank); graded and ungraded input take the same path.
    """
    if not m.ring.is_domain():
        raise ValueError("rank needs a domain; set assume_domain or drop the ideal")
    return m.ngens - _matrix_rank(m.relations, m.ring)


def _clear_column(rows: Sequence[FreeElement], pivot: FreeElement, b: int,
                  ring: RingSpec) -> List[FreeElement]:
    """One fraction-free elimination step against `pivot`, p = pivot[b].

    Every row with a nonzero entry c in column b becomes p*row - c*pivot,
    reduced modulo I; then column b and the zero rows are dropped.
    """
    p = pivot[b]
    out = []
    for row in rows:
        c = row[b]
        if not c.is_zero():
            row = tuple(nf_poly(p * x - c * y, ring)
                        for x, y in zip(row, pivot))
        row = row[:b] + row[b + 1:]
        if any(not x.is_zero() for x in row):
            out.append(row)
    return out


def _matrix_rank(rows: Sequence[Sequence[Polynomial]], ring: RingSpec) -> int:
    """Rank over the fraction field of the domain R of a matrix given by rows.

    Each step pivots on the sparsest, lowest-degree nonzero entry and
    clears its column.  A pivot is nonzero in R, so every row operation is
    invertible over Frac(R); entries are kept reduced modulo I, so the zero
    test is exact.  The rank is the number of pivots.
    """
    rows = [tuple(nf_poly(x, ring) for x in r) for r in rows]
    rows = [r for r in rows if any(not x.is_zero() for x in r)]
    count = 0
    while rows:
        *_, a, b = min((len(x.terms), x.total_degree(), a, b)
                       for a, r in enumerate(rows)
                       for b, x in enumerate(r) if not x.is_zero())
        pivot = rows.pop(a)
        rows = _clear_column(rows, pivot, b, ring)
        count += 1
    return count


