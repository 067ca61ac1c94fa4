"""Groebner bases, normal forms and syzygies for submodules of free modules.

Elements of a free module P^n are sparse dicts mapping (position, exponent
vector) to a coefficient.  The module order is position-over-term: terms at
a lower position index are larger, ties within a position follow the ring's
monomial order.  Buchberger runs with the normal selection strategy
(smallest lcm first) and a first-match reducer, so output is deterministic.

The engine works fraction-free over the integers.  Every working element is
primitive: coprime int coefficients and a positive lead.  `_reduce` clears
the denominators of its input once and then scales the target by
lc/gcd(a, lc) before each subtraction, so it returns m * NF(vec) for a known
positive int m (Cox-Little-O'Shea, ch. 2; the scaling of Bareiss).  Only the
API boundary divides by m, with Fraction when m is not 1: `normal_form`,
`solve_linear` and the monic `_reduced_basis`.  Since m > 0 and
`_make_primitive` normalises scale and sign, every kept row, syzygy and
remainder is the value a rational reduction gives.  Pending terms wait in a
heap keyed by the order's memoised `low_key`.

Syzygies come from tag positions (Cox-Little-O'Shea, *Using Algebraic
Geometry*, ch. 5 sec. 3).  In a tagged run over P^rank, input i carries the
extra unit term e_(rank+i).  Positions >= rank sort below every real
position, so an element's tags never lead while its part below rank is
nonzero, and no working element reduces a tag: each element's tags write
it as a combination of the inputs.  An element whose terms all sit at
positions >= rank is a syzygy of the inputs; it is recorded, shifted down by
rank, and never joins the basis.  The inputs stay in the working basis and
no pair is skipped in a tagged run, which is what Schreyer's argument needs
for the recorded set to generate the full syzygy module (Eisenbud,
*Commutative Algebra*, Thm 15.10).

Submodules over a quotient ring R = P/I are handled by the augmentation
convention: add f*e_k for every ideal generator f and unit vector e_k,
compute over P, and project/reduce afterwards.  `_ring_run` assembles and
completes that augmented run for `syzygies_over_ring`, `prune_rows` and
`solve_linear`; `submodule_over_ring` wraps the same list in a
`SubmoduleBasis`.

Each engine step has one implementation: `_reduce` is the reduction loop
of Buchberger, of normal forms and of `solve_linear`; `_BuchbergerRun` is
the one pair loop, completed in one go by `_buchberger` and resumed row by
row by `prune_rows`; `syzygies_over_ring` is the one syzygy routine, over
a ring with or without an ideal; `prune_rows` is the greedy pruner of
every presentation, kernels included; a `SubmoduleBasis` answers
`normal_form` and `contains` from its completed run.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import gcd, lcm
from operator import add, le, sub
from typing import Dict, List, Optional, Sequence, Tuple

from .poly import Coeff, ExpVec, MonomialOrder, Polynomial, _grown
from .parser import RingSpec

Term = Tuple[int, ExpVec]          # (position, monomial)
Vec = Dict[Term, Coeff]           # sparse free-module element
FreeElement = Tuple[Polynomial, ...]


def _low_term_key(term: Term, order: MonomialOrder):
    # position-over-term, reversed: the largest term has the smallest key
    return (term[0], order.low_key(term[1]))


def _lead(vec: Vec, order: MonomialOrder) -> Term:
    """The leading term: the lowest position, then the largest monomial."""
    return min(vec, key=lambda t: _low_term_key(t, order))


def _divides(a: ExpVec, b: ExpVec) -> bool:
    return all(map(le, a, b))


def _vec_submul(target: Vec, coeff, mono: ExpVec, src: Vec,
                new: Optional[List[Term]] = None) -> None:
    """target -= coeff * x^mono * src, in place; the keys that were not in
    target before are appended to `new` when it is given."""
    for (pos, exps), c in src.items():
        key = (pos, tuple(map(add, mono, exps)))
        acc = target.get(key)
        if acc is None:
            target[key] = -coeff * c
            if new is not None:
                new.append(key)
        else:
            acc -= coeff * c
            if acc:
                target[key] = acc
            else:
                del target[key]


def _vec_divide(vec: Vec, m: int) -> None:
    """vec /= m, in place; int coefficients stay ints when m is 1."""
    if m != 1:
        c = Fraction(1, m)
        for key in vec:
            vec[key] *= c


def _make_primitive(vec: Vec, order: MonomialOrder) -> None:
    """Scale to coprime int coefficients with a positive lead."""
    if not vec:
        return
    den = 1
    for c in vec.values():
        den = lcm(den, c.denominator)
    num = 0
    for c in vec.values():
        num = gcd(num, c.numerator * (den // c.denominator))
    if vec[_lead(vec, order)] < 0:
        num = -num
    for key, c in vec.items():
        vec[key] = c.numerator * (den // c.denominator) // num


class _Elt:
    __slots__ = ("vec", "lead", "lc")

    def __init__(self, vec: Vec, order: MonomialOrder):
        self.vec = vec
        self.lead = _lead(vec, order)
        self.lc = vec[self.lead]


def _reduce(vec: Vec, elements: List[_Elt], by_pos: Dict[int, List[int]],
            order: MonomialOrder) -> Tuple[Vec, int]:
    """Fraction-free full normal form of vec against int elements with
    positive leads.

    Returns (rem, m): m is a positive int and rem = m * NF(vec), with int
    coefficients.  vec is left as it is.  The pending terms sit in a
    min-heap of low keys with lazy deletion: an entry whose term has
    cancelled is skipped.  A term at a position no element leads (a tag)
    goes to the remainder as it is.
    """
    m = 1
    for c in vec.values():
        m = lcm(m, c.denominator)
    target = {t: c.numerator * (m // c.denominator) for t, c in vec.items()}
    low = order.low_key
    heap = [(t[0], low(t[1]), t) for t in target]
    heapq.heapify(heap)
    result: Vec = {}
    while heap:
        term = heapq.heappop(heap)[2]
        a = target.get(term)
        if a is None:
            continue
        pos, exps = term
        reducer = None
        for idx in by_pos.get(pos, ()):
            g = elements[idx]
            if _divides(g.lead[1], exps):
                reducer = g
                break
        if reducer is None:
            result[term] = target.pop(term)
            continue
        lc = reducer.lc
        g = gcd(a, lc)
        if g != lc:
            f = lc // g
            m *= f
            target = {t: c * f for t, c in target.items()}
            result = {t: c * f for t, c in result.items()}
        coeff = a // g
        shift = tuple(map(sub, exps, reducer.lead[1]))
        new: List[Term] = []
        _vec_submul(target, coeff, shift, reducer.vec, new)
        for t in new:
            heapq.heappush(heap, (t[0], low(t[1]), t))
    return result, m


class _BuchbergerRun:
    """A resumable Buchberger run: working elements, their indices by lead
    position, the pair heap and the recorded syzygies.

    A tagged run (inputs carry tag positions, see the module docstring)
    processes every pair, since the product criterion would skip the
    Koszul syzygies it must record.
    """

    def __init__(self, order: MonomialOrder, rank: int, tagged: bool):
        self.order = order
        self.rank = rank
        self.tagged = tagged
        self.elements: List[_Elt] = []
        self.by_pos: Dict[int, List[int]] = {}
        self.pairs: List[Tuple] = []
        self.syzygies: List[Vec] = []

    def add(self, vec: Vec) -> None:
        """Take a nonzero element in: one that leads with a tag is a
        syzygy, shifted down by rank; any other joins the basis and pushes
        its pairs."""
        _make_primitive(vec, self.order)
        elt = _Elt(vec, self.order)
        pos = elt.lead[0]
        if pos >= self.rank:
            self.syzygies.append({(p - self.rank, exps): c
                                  for (p, exps), c in vec.items()})
            return
        idx = len(self.elements)
        for jdx in self.by_pos.get(pos, ()):
            other = self.elements[jdx]
            if (not self.tagged and self.rank == 1
                    and all(a == 0 or b == 0
                            for a, b in zip(other.lead[1], elt.lead[1]))):
                continue  # product criterion: safe only for untagged ideals
            lcm_exps = tuple(max(a, b) for a, b in zip(other.lead[1], elt.lead[1]))
            heapq.heappush(self.pairs, (self.order.key(lcm_exps), pos, jdx, idx))
        self.elements.append(elt)
        self.by_pos.setdefault(pos, []).append(idx)

    def complete(self) -> None:
        """Drain the pair heap; the working elements are then a GB."""
        while self.pairs:
            _, pos, i, j = heapq.heappop(self.pairs)
            gi, gj = self.elements[i], self.elements[j]
            lcm_exps = tuple(max(a, b) for a, b in zip(gi.lead[1], gj.lead[1]))
            shift_i = tuple(a - b for a, b in zip(lcm_exps, gi.lead[1]))
            shift_j = tuple(a - b for a, b in zip(lcm_exps, gj.lead[1]))
            vec: Vec = {}
            _vec_submul(vec, -gj.lc, shift_i, gi.vec)
            _vec_submul(vec, gi.lc, shift_j, gj.vec)
            remainder, _ = _reduce(vec, self.elements, self.by_pos, self.order)
            if remainder:
                self.add(remainder)

    def absorb(self, vec: Vec) -> bool:
        """On a completed untagged run: False if vec lies in the submodule,
        else add its remainder, complete the new pairs, True."""
        remainder, _ = _reduce(vec, self.elements, self.by_pos, self.order)
        if remainder:
            self.add(remainder)
            self.complete()
        return bool(remainder)


def _buchberger(inputs: List[Vec], order: MonomialOrder, rank: int,
                tagged: bool, nvars: int) -> _BuchbergerRun:
    """Fill a run with the inputs over nvars variables, tagged if asked,
    and complete it."""
    run = _BuchbergerRun(order, rank, tagged)
    for i, vec in enumerate(inputs):
        vec = dict(vec)
        if tagged:
            vec[(rank + i, (0,) * nvars)] = 1
        if vec:
            run.add(vec)
    run.complete()
    return run


def _reduced_basis(elements: List[_Elt], order: MonomialOrder) -> List[Vec]:
    """Unique reduced monic GB: minimal leads, tails fully reduced, sorted.

    Each tail is reduced against the whole minimal set: its terms, and all
    terms the reduction brings in, are smaller than the element's own lead,
    so that lead never divides one of them."""
    keep: List[int] = []
    for i, e in enumerate(elements):
        redundant = False
        for j, f in enumerate(elements):
            if i == j or f.lead[0] != e.lead[0]:
                continue
            if _divides(f.lead[1], e.lead[1]) and (
                    f.lead[1] != e.lead[1] or j in keep):
                redundant = True
                break
        if not redundant:
            keep.append(i)
    minimal = [elements[i] for i in keep]
    minimal.sort(key=lambda e: _low_term_key(e.lead, order))
    by_pos: Dict[int, List[int]] = {}
    for j, f in enumerate(minimal):
        by_pos.setdefault(f.lead[0], []).append(j)
    reduced: List[Vec] = []
    for e in minimal:
        tail = dict(e.vec)
        del tail[e.lead]
        tail_rem, m = _reduce(tail, minimal, by_pos, order)
        rem = {e.lead: e.lc * m}
        rem.update(tail_rem)
        _vec_divide(rem, e.lc * m)
        reduced.append(rem)
    return reduced


# ---------------------------------------------------------------------------
# public element conversions


def _as_row(value, rank: Optional[int] = None) -> FreeElement:
    if isinstance(value, Polynomial):
        return (value,)
    row = tuple(value)
    if rank is not None and len(row) != rank:
        raise ValueError("expected a free element of rank %d, got %d"
                         % (rank, len(row)))
    return row


def _row_to_vec(row: FreeElement) -> Vec:
    vec: Vec = {}
    for pos, poly in enumerate(row):
        for exps, coeff in poly.terms.items():
            vec[(pos, exps)] = coeff
    return vec


def _vec_to_row(vec: Vec, rank: int, variables: Tuple[str, ...]) -> FreeElement:
    """The first `rank` slots of vec as a row; later positions (tags, or a
    syzygy's entries on the ideal rows) are dropped."""
    buckets: List[Dict[ExpVec, Coeff]] = [dict() for _ in range(rank)]
    for (pos, exps), coeff in vec.items():
        if pos < rank:
            buckets[pos][exps] = coeff
    return tuple(_grown(variables, b) for b in buckets)


# ---------------------------------------------------------------------------
# public engine surface


class SubmoduleBasis:
    """A generator list plus its completed Buchberger run.

    `normal_form` and `contains` reduce against the run's working elements:
    they are a Groebner basis, and the full remainder modulo any Groebner
    basis is the same.  The reduced monic basis is built only when
    `groebner` or `groebner_rows()` is read."""

    def __init__(self, generators: Sequence, order: MonomialOrder,
                 rank: Optional[int] = None,
                 variables: Optional[Tuple[str, ...]] = None):
        rows = [_as_row(g) for g in generators]
        if rows:
            widths = {len(r) for r in rows}
            if len(widths) != 1:
                raise ValueError("generators of mixed rank")
            inferred = widths.pop()
            if rank is not None and rank != inferred:
                raise ValueError("rank mismatch")
            rank = inferred
            variables = rows[0][0].variables
        if rank is None:
            raise ValueError("empty generator list needs an explicit rank")
        if variables is None:
            raise ValueError("empty generator list needs explicit variables")
        for row in rows:
            if all(p.is_zero() for p in row):
                raise ValueError("zero generator")
            for p in row:
                if p.variables != variables:
                    raise ValueError("variable-list mismatch in generators")
        self.rank = rank
        self.variables = variables
        self.generators: Tuple[FreeElement, ...] = tuple(rows)
        self.order = order
        self._groebner: Optional[List[Vec]] = None

    @cached_property
    def _run(self) -> _BuchbergerRun:
        inputs = [_row_to_vec(r) for r in self.generators]
        return _buchberger(inputs, self.order, self.rank, tagged=False,
                           nvars=len(self.variables))

    @cached_property
    def _leads(self) -> Dict[int, List[ExpVec]]:
        """The minimal lead monomials of the run, by position."""
        leads: Dict[int, List[ExpVec]] = {}
        for pos, exps in sorted({e.lead for e in self._run.elements},
                                key=lambda t: (t[0], sum(t[1]))):
            kept = leads.setdefault(pos, [])
            if not any(_divides(k, exps) for k in kept):
                kept.append(exps)
        return leads

    @property
    def groebner(self) -> List[Vec]:
        if self._groebner is None:
            self._groebner = _reduced_basis(self._run.elements, self.order)
        return self._groebner

    def groebner_rows(self) -> List[FreeElement]:
        return [_vec_to_row(v, self.rank, self.variables) for v in self.groebner]

    def normal_form(self, value):
        """The remainder; a value with no term divisible by a lead of the
        basis is its own remainder and comes back as it is."""
        row = _as_row(value, self.rank)
        vec = _row_to_vec(row)
        leads = self._leads
        if any(_divides(lead, exps)
               for pos, exps in vec for lead in leads.get(pos, ())):
            rem, m = _reduce(vec, self._run.elements, self._run.by_pos,
                             self.order)
            _vec_divide(rem, m)
            row = _vec_to_row(rem, self.rank, self.variables)
        if isinstance(value, Polynomial):
            return row[0]
        return row

    def contains(self, value) -> bool:
        out = self.normal_form(value)
        if isinstance(out, Polynomial):
            return out.is_zero()
        return all(p.is_zero() for p in out)


def groebner_basis(gens: Sequence, order: Optional[MonomialOrder] = None,
                   rank: Optional[int] = None,
                   variables: Optional[Tuple[str, ...]] = None) -> SubmoduleBasis:
    """Reduced deterministic Groebner basis of the generated submodule."""
    if order is None:
        order = MonomialOrder("degrevlex")
    return SubmoduleBasis(gens, order, rank=rank, variables=variables)


# ---------------------------------------------------------------------------
# quotient-ring conveniences


@lru_cache(maxsize=None)
def ring_groebner(ring: RingSpec) -> SubmoduleBasis:
    """Cached reduced GB of the defining ideal (rank-1 submodule)."""
    return SubmoduleBasis(tuple((f,) for f in ring.ideal), ring.order(),
                          rank=1, variables=ring.variables)


def nf_poly(p: Polynomial, ring: RingSpec) -> Polynomial:
    """Normal form of a coefficient modulo the defining ideal."""
    if not ring.ideal:
        return p
    return ring_groebner(ring).normal_form(p)


def _ideal_unit_rows(rank: int, ring: RingSpec) -> List[FreeElement]:
    rows = []
    zero = Polynomial.zero(ring.variables)
    for f in ring.ideal:
        for pos in range(rank):
            rows.append(tuple(f if i == pos else zero for i in range(rank)))
    return rows


def _ring_run(rows: Sequence[FreeElement], rank: int, ring: RingSpec,
              tagged: bool) -> _BuchbergerRun:
    """Completed run over P on rows + I*P^rank, the rows first (so their
    tags are the first ones)."""
    items = [_as_row(r, rank) for r in rows] + _ideal_unit_rows(rank, ring)
    return _buchberger([_row_to_vec(r) for r in items], ring.order(), rank,
                       tagged, nvars=len(ring.variables))


def submodule_over_ring(rows: Sequence[FreeElement], rank: int,
                        ring: RingSpec) -> SubmoduleBasis:
    """Basis of span(rows) + I*P^rank; `contains` decides membership over R.
    Zero rows add nothing to the span and are dropped."""
    items = [row for row in (_as_row(r, rank) for r in rows)
             if not all(p.is_zero() for p in row)]
    return SubmoduleBasis(items + _ideal_unit_rows(rank, ring), ring.order(),
                          rank=rank, variables=ring.variables)


def syzygies_over_ring(rows: Sequence[FreeElement], rank: int,
                       ring: RingSpec) -> List[FreeElement]:
    """Generators of {a in R^t : sum a_i * row_i = 0 in R^rank}.

    Computed over P against the ideal-augmented list, projected onto the
    row block, coefficient-reduced modulo I, zero rows dropped,
    deduplicated and sorted by descending lead.
    """
    if not rows:
        return []
    t = len(rows)
    out: List[FreeElement] = []
    seen = set()
    for vec in _ring_run(rows, rank, ring, tagged=True).syzygies:
        row = tuple(nf_poly(p, ring) for p in _vec_to_row(vec, t, ring.variables))
        key = tuple(tuple(sorted(p.terms.items())) for p in row)
        if key in seen or all(p.is_zero() for p in row):
            continue
        seen.add(key)
        out.append(row)
    order = ring.order()
    out.sort(key=lambda r: _low_term_key(_lead(_row_to_vec(r), order), order))
    return out


def row_lead_key(row: FreeElement, ring: RingSpec):
    """Sort key: the leading module term of the row (zero rows first).

    Greedy pruning is far more effective on rows sorted by ascending
    lead, since rows with small leads generate the shifted multiples
    that follow them.
    """
    vec = _row_to_vec(tuple(row))
    if not vec:
        return (float("-inf"), ())
    order = ring.order()
    pos, exps = _lead(vec, order)
    return (-pos, order.key(exps))


def prune_rows(rows: Sequence[FreeElement], rank: int, ring: RingSpec,
               base: Sequence[FreeElement] = ()) -> List[FreeElement]:
    """Greedy prune: drop rows already in the span over R of `base` and the
    rows kept before them.

    `base` holds rows already known to lie in the module (a presentation's
    relations, say); they are never returned.  One resumable Buchberger run
    over P, seeded with `base` and I*P^rank, serves the whole call: each
    nf_poly'd row is reduced against its working elements, a Groebner basis
    of span(kept + base) + I*P^rank; a zero remainder means membership,
    otherwise the remainder joins the run and the row itself is kept.
    """
    run = _ring_run(base, rank, ring, tagged=False)
    kept: List[FreeElement] = []
    for row in rows:
        row = tuple(nf_poly(p, ring) for p in _as_row(row, rank))
        if run.absorb(_row_to_vec(row)):
            kept.append(row)
    return kept


# ---------------------------------------------------------------------------
# linear solving over R


@dataclass(frozen=True)
class Solution:
    column: FreeElement


@dataclass(frozen=True)
class NoSolution:
    residual: FreeElement


def solve_linear(A: Sequence[Sequence[Polynomial]], b: Sequence[Polynomial],
                 ring: RingSpec):
    """Particular solution of A*x = b over R = P/I, or NoSolution.

    A is given by rows; a solution satisfies A*x - b in I * R^rows.  b is
    reduced against the tagged run on the columns of A and the ideal
    multiples of the unit vectors.  A remainder with terms below position
    nrows is the normal form of b, which NoSolution carries as certificate;
    otherwise the remainder is all tags, and the column tags read -x.
    """
    rows = [list(r) for r in A]
    if not rows:
        raise ValueError("empty system")
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    if len(b) != len(rows):
        raise ValueError("dimension mismatch between A and b")
    nrows = len(rows)
    columns: List[FreeElement] = []
    for j in range(ncols):
        columns.append(tuple(rows[i][j] for i in range(nrows)))
    run = _ring_run(columns, nrows, ring, tagged=True)
    remainder, m = _reduce(_row_to_vec(_as_row(b, nrows)), run.elements,
                           run.by_pos, ring.order())
    _vec_divide(remainder, m)
    residual = _vec_to_row(remainder, nrows, ring.variables)
    if not all(p.is_zero() for p in residual):
        return NoSolution(residual)
    tags = {(pos - nrows, exps): c for (pos, exps), c in remainder.items()}
    return Solution(tuple(nf_poly(-p, ring)
                          for p in _vec_to_row(tags, ncols, ring.variables)))


# ---------------------------------------------------------------------------
# Krull dimension


def krull_dimension(ring: RingSpec) -> int:
    """Krull dimension of R, from the leading-term ideal of a GB of I.

    Standard combinatorial reading: the dimension is the largest size of a
    variable subset S such that no Groebner leading monomial is supported
    inside S.  Returns -1 for the zero ring (1 in the ideal).
    """
    supports = []
    order = ring.order()
    for vec in ring_groebner(ring).groebner:
        (_, exps) = _lead(vec, order)
        supports.append(frozenset(i for i, e in enumerate(exps) if e))
    s = len(ring.variables)
    for size in range(s, -1, -1):
        for subset in combinations(range(s), size):
            chosen = set(subset)
            if not any(sup <= chosen for sup in supports):
                return size
    return -1
