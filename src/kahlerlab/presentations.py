"""Finitely presented modules over R = Q[x_1..x_s]/I.

A Presentation is a generator list (labels) together with relation rows;
the module is R^gens / span(rows).  The defining ideal never appears in
the relation list: membership and normal-form questions are delegated to
the engine's ideal-augmented routines, so all arithmetic on coefficients
happens modulo I automatically.

One routine, _eliminate, does fraction-free elimination: each pivot
clears its column by row := pivot * row - entry * pivot row, reduced
modulo I.  Over a domain this keeps the rank over Frac(R), so `rank`
counts its pivots; the scalar sweep of resolution.minimal_presentation
and of the minimal chain runs it with constant pivots.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .poly import Polynomial, Record
from .parser import (RingParseError, RingSpec, parse_label,
                     parse_presentation_doc, sym_label)
from .groebner import (FreeElement, SubmoduleBasis, nf_poly, prune_rows,
                       submodule_over_ring)


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

    ngens minus the number of pivots _eliminate takes on the relation
    matrix, reduced modulo I, picking the sparsest, lowest-degree entry; a
    pivot is nonzero in R, so each step is invertible over Frac(R).
    """
    if not m.ring.is_domain():
        raise ValueError("rank needs a domain; set assume_domain or drop the ideal")
    rows = [tuple(nf_poly(x, m.ring) for x in r) for r in m.relations]
    return m.ngens - len(_eliminate(rows, _sparsest, m.ring)[1])


def _sparsest(rows: Sequence[FreeElement]) -> Optional[Tuple[int, int]]:
    """(a, b) of the nonzero entry with fewest terms, then lowest degree,
    then first in row-major order; None when every entry is zero."""
    best = min(((len(x.terms), x.total_degree(), a, b)
                for a, r in enumerate(rows)
                for b, x in enumerate(r) if not x.is_zero()), default=None)
    return best and best[2:]


def _eliminate(rows: Sequence[FreeElement],
               pick: Callable[[List[FreeElement]], Optional[Tuple[int, int]]],
               ring: RingSpec) -> Tuple[List[FreeElement], List[int]]:
    """Fraction-free elimination: the rows left and the pivot columns, each
    an index into the columns left before it.

    While pick(rows) names an entry p = rows[a][b], row a leaves as the
    pivot (divided by p first when p is a constant), every other row with
    c = row[b] != 0 becomes p*row - c*pivot, reduced modulo I, and column
    b and the zero rows are dropped.
    """
    rows, pivots = list(rows), []
    while True:
        hit = pick(rows)
        if hit is None:
            return rows, pivots
        a, b = hit
        pivot = rows.pop(a)
        if pivot[b].is_constant():
            scale = Fraction(1) / pivot[b].constant_term()
            pivot = tuple(y.scale(scale) for y in pivot)
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
        rows = out
        pivots.append(b)
