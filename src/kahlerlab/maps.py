"""Maps between finitely presented modules over R = Q[x_1..x_s]/I.

A ModuleMap stores one column per source generator, each column a free
element over the target generators.  Kernels, cokernels, exactness of a
complex, and splitting checks reduce to syzygy and membership computations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from .poly import Polynomial, Record
from .groebner import (
    FreeElement,
    nf_poly,
    prune_rows,
    row_lead_key,
    submodule_over_ring,
    syzygies_over_ring,
)
from .presentations import Presentation, element_is_zero, zero_presentation



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
