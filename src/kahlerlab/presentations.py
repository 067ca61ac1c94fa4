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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .poly import Polynomial
from .parser import (Label, PlainLabel, RingSpec, SymLabel,
                     parse_presentation_doc)
from .groebner import (
    FreeElement,
    SubmoduleBasis,
    nf_poly,
    prune_rows,
    submodule_over_ring,
    syzygies_over_ring,
)


@dataclass(frozen=True)
class Presentation:
    ring: RingSpec
    generators: Tuple[Label, ...]
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


@dataclass(frozen=True)
class ModuleMap:
    source: Presentation
    target: Presentation
    columns: Tuple[FreeElement, ...]

    def __post_init__(self):
        if len(self.columns) != self.source.ngens:
            raise ValueError("need one column per source generator")
        for col in self.columns:
            if len(col) != self.target.ngens:
                raise ValueError("column length does not match target")


def free_presentation(ring: RingSpec, labels: Sequence[Label],
                      degrees: Optional[Sequence[int]] = None) -> Presentation:
    return Presentation(ring, tuple(labels), (),
                        None if degrees is None else tuple(degrees))


def zero_presentation(ring: RingSpec) -> Presentation:
    return Presentation(ring, (), (), ())


def ring_as_module(ring: RingSpec) -> Presentation:
    """R itself, one generator `e`, no extra relations beyond the ideal."""
    return Presentation(ring, (PlainLabel("e"),), (), (0,))


def parse_presentation(text: str) -> Presentation:
    ring, labels, rows = parse_presentation_doc(text)
    return Presentation(ring, labels, tuple(tuple(r) for r in rows))


@lru_cache(maxsize=None)
def relation_basis(m: Presentation) -> SubmoduleBasis:
    """Ideal-augmented basis of the relation submodule; cached by value."""
    return submodule_over_ring(m.relations, m.ngens, m.ring)


def element_is_zero(m: Presentation, element: FreeElement) -> bool:
    if m.ngens == 0:
        return True
    return relation_basis(m).contains(tuple(element))


def presentation_is_zero(m: Presentation) -> bool:
    return all(element_is_zero(m, m.unit_row(i)) for i in range(m.ngens))


def normalize_element(m: Presentation, element: FreeElement) -> FreeElement:
    """Canonical representative of an element of m (NF against relations)."""
    if m.ngens == 0:
        return ()
    out = relation_basis(m).normal_form(tuple(element))
    return tuple(nf_poly(p, m.ring) for p in out)


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

    Kernel generators are syzygies of the map columns against the target
    relations, projected onto the column block; kernel relations come from a
    second syzygy run inside the source module.
    """
    src, tgt, ring = f.source, f.target, f.source.ring
    ncols = src.ngens
    if ncols == 0:
        k = zero_presentation(ring)
        return k, zero_map(k, src)
    if tgt.ngens == 0:
        raw = [src.unit_row(i) for i in range(ncols)]
    else:
        items = list(f.columns) + list(tgt.relations)
        syz = syzygies_over_ring(items, tgt.ngens, ring)
        raw = [row[:ncols] for row in syz]
    gens = prune_rows(raw, ncols, ring, base=src.relations)
    labels = tuple(PlainLabel("k%d" % i) for i in range(len(gens)))
    if not gens:
        k = Presentation(ring, (), (), ())
        return k, zero_map(k, src)
    rel_items = list(gens) + list(src.relations)
    syz2 = syzygies_over_ring(rel_items, ncols, ring)
    rels = []
    for row in syz2:
        head = tuple(nf_poly(p, ring) for p in row[:len(gens)])
        if any(not p.is_zero() for p in head):
            rels.append(head)
    rels = prune_rows(rels, len(gens), ring)
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
    kernel generator of g lies in the span of f's columns plus B's
    relations.
    """
    out = []
    for f, g in zip(maps, maps[1:]):
        if f.target != g.source:
            raise ValueError("maps do not form a complex")
        composite_zero = is_zero_map(compose(g, f))
        ker, incl = kernel(g)
        if f.source.ngens == 0:
            covered = ker.ngens == 0
        else:
            items = list(f.columns) + list(g.source.relations)
            basis = submodule_over_ring(items, g.source.ngens, g.source.ring)
            covered = all(basis.contains(col) for col in incl.columns)
        out.append(composite_zero and covered)
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
    inc_a = ModuleMap(a, total, tuple(
        tuple(r) + tuple(zero for _ in b.generators)
        for r in (a.unit_row(i) for i in range(a.ngens))))
    inc_b = ModuleMap(b, total, tuple(
        tuple(zero for _ in a.generators) + tuple(r)
        for r in (b.unit_row(i) for i in range(b.ngens))))
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


def symmetric_square(m: Presentation) -> Presentation:
    """S^2(M): generators s(a,b) over unordered pairs of m's generators.

    Relations: for every relation row r of m and every generator g of m,
    the symmetrization of r ⊗ g, written in the pair coordinates.
    """
    gens = m.generators
    n = len(gens)
    pair_index = _pair_index(n)
    labels = [SymLabel(gens[i], gens[j]) for (i, j) in pair_index]
    zero = m.ring.zero()
    rows: List[FreeElement] = []
    for row in m.relations:
        for k in range(n):
            out = [zero] * len(labels)
            for i, coeff in enumerate(row):
                if coeff.is_zero():
                    continue
                a, b = min(i, k), max(i, k)
                idx = pair_index[(a, b)]
                out[idx] = out[idx] + coeff
            out = [nf_poly(p, m.ring) for p in out]
            if any(not p.is_zero() for p in out):
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


def _clear_column(rows: Sequence[List[Polynomial]],
                  pivot: Sequence[Polynomial], b: int,
                  ring: RingSpec) -> List[List[Polynomial]]:
    """One fraction-free elimination step against `pivot`, p = pivot[b].

    Every row with a nonzero entry c in column b becomes p*row - c*pivot,
    reduced modulo I; then column b and the zero rows are dropped.
    """
    p = pivot[b]
    out = []
    for row in rows:
        c = row[b]
        if not c.is_zero():
            row = [nf_poly(p * x - c * y, ring) for x, y in zip(row, pivot)]
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
    rows = [[nf_poly(x, ring) for x in r] for r in rows]
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


def _row_degree(row: FreeElement, degrees: Tuple[int, ...],
                weights: Tuple[int, ...]) -> Optional[int]:
    """Common degree of a homogeneous relation row, or None if mixed."""
    found = None
    for entry, d in zip(row, degrees):
        if entry.is_zero():
            continue
        h = entry.homogeneous_degree(weights)
        if h is None:
            return None
        total = h + d
        if found is None:
            found = total
        elif found != total:
            return None
    return found
