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
Geometry*, ch. 5 sec. 3).  A run over P^rank tags its first t inputs:
input i < t carries the extra unit term e_(rank+i), and the inputs after
them (a `base` and the ideal rows) carry none.  Positions >= rank sort
below every real position, so an element's tags never lead while its part
below rank is nonzero, and no working element reduces a tag: each
element's tags write it, modulo the untagged inputs, as a combination of
the tagged ones.  An element whose terms all sit at positions >= rank is a
syzygy of the tagged inputs modulo the span of the others; it is
recorded, shifted down by rank, and never joins the basis.  The recorded
set generates all such syzygies (Eisenbud, *Commutative Algebra*,
Lemma 15.1 and Thm 15.10): the working elements' parts below rank form a
Groebner basis of the inputs' span, so by Schreyer's theorem a relation
among them is a combination of the S-pair relations of any set of pairs
whose term syzygies generate the syzygies of the leads, and each such
pair's remainder is zero, a new working element or recorded.  The
Gebauer-Moller criteria B, M and F (*J. Symb. Comp.* 6, 1988) drop only
pairs whose term syzygies are combinations of those of other pairs, so
tagged runs use them too.  The product criterion holds for ideals only,
and the coprime pairs it drops carry Koszul relations that nothing else
records, so only untagged rank-1 runs use it.

Submodules over a quotient ring R = P/I are handled by the augmentation
convention (Cox-Little-O'Shea, *Using Algebraic Geometry*, ch. 5 sec. 2):
add f*e_k for every ideal generator f and unit vector e_k, compute over
P, and project/reduce afterwards.  `_ring_run` is the only code that fills
a run: it enters the tagged rows, then a `base` of untagged rows, then
I*P^rank as one sparse vec {(k, e): c} per f*e_k, and `_as_row` checks
every row on the way in, its length and its variable list.
`syzygies_over_ring`, `prune_rows` and `solve_linear` work modulo
span(base) + I*P^rank; a `SubmoduleBasis` is the untagged run with its rows
as `base`, and every basis, the ring's own `ring_groebner` included, is
built over a ring.  `submodule_over_ring` hands out one `SubmoduleBasis`
per equal (rows, rank, ring) from a 16-entry LRU memo: a basis never
changes once its lazy run is built, so equal spans share it.

Graded completion.  When the ring is weighted homogeneous and `_grading`
finds a degree shift per position under which every input row is
homogeneous, a term x^a*e_k has module degree deg(a) + shift_k, and every
working element is homogeneous.  `complete(upto)` pops the pairs in the
same heap order, but a pair whose degree (its lcm's plus its position's
shift) exceeds upto is held in a second heap keyed by that degree, until a
later call asks for it; the B criterion filters the held pairs as well.
A pair of degree d reduces to degree d by elements of degree <= d alone,
so the run builds exactly the elements of degree <= upto that a full
completion builds, in the same relative order.  They form a Groebner
basis up to degree upto, which decides membership in every degree <= upto
(Kreuzer-Robbiano, *Computational Commutative Algebra 2*).  `prune_rows`
completes up to each row's degree and `solve_linear` up to the degree of
b, so both answer exactly as a full completion does; on ungraded input
they complete in full, as `SubmoduleBasis` and `syzygies_over_ring`
always do.

Each engine step has one implementation: `_reduce` is the reduction loop
of Buchberger, of normal forms and of `solve_linear`; `_BuchbergerRun` is
the one pair loop, completed by `_ring_run` and resumed row by row by
`prune_rows`; `_minimal` picks the minimal leads; `syzygies_over_ring` is
the one syzygy routine, over a ring with or without an ideal;
`prune_rows` is the greedy pruner of every presentation, kernels
included; a `SubmoduleBasis` answers `normal_form` and `contains` from its
completed run, built on the first query, through one lead check and
reduction (`_remainder`).  `nf_poly` is its rank-1 case for one polynomial
modulo I: it checks the variable list on every ring, returns a zero or
already reduced polynomial as it is, and otherwise reduces the vec
{(0, e): c} against `ring_groebner(ring)` through the same `_remainder`.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import gcd, lcm
from operator import add, le, sub
from typing import Dict, List, Optional, Sequence, Tuple

from .poly import (Coeff, ExpVec, MonomialOrder, Polynomial, Record,
                   _coefficient, _grown)
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
    """vec /= m, in place; an integral quotient is stored as an int."""
    if m != 1:
        for key, c in vec.items():
            vec[key] = _coefficient(Fraction(c, m))


def _make_primitive(vec: Vec, order: MonomialOrder) -> Term:
    """Scale a nonzero vec to coprime int coefficients with a positive
    lead, in place; returns the lead."""
    lead = _lead(vec, order)
    values = vec.values()
    if any(type(c) is not int for c in values):
        den = lcm(*(c.denominator for c in values))
        for key, c in vec.items():
            vec[key] = c.numerator * (den // c.denominator)
    num = gcd(*values)
    if vec[lead] < 0:
        num = -num
    if num != 1:
        for key, c in vec.items():
            vec[key] = c // num
    return lead


class _Elt:
    __slots__ = ("vec", "lead", "lc")

    def __init__(self, vec: Vec, lead: Term):
        self.vec = vec
        self.lead = lead
        self.lc = vec[lead]


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

    `add` applies the Gebauer-Moller update at the new lead's position
    (*J. Symb. Comp.* 6, 1988).  B drops a pending pair whose lcm the new
    lead divides, unless the new lead's lcm with one of the pair's elements
    is that same lcm; M drops a new pair whose lcm is a proper multiple of
    another new pair's lcm; F keeps one new pair per lcm, the lowest index.
    The product criterion drops a whole lcm class, but only in an untagged
    rank-1 run: a tagged run keeps its coprime pairs, whose Koszul
    syzygies it must record.  The term syzygies of the pairs kept still
    generate the syzygies of the leads, so by Schreyer's theorem the
    recorded syzygies generate them all (see the module docstring).  A run
    graded by per-position `shifts` completes up to a degree when asked;
    the pairs above it wait in `held`.
    """

    def __init__(self, order: MonomialOrder, rank: int, tagged: bool,
                 shifts: Optional[List[int]] = None):
        self.order = order
        self.rank = rank
        self.tagged = tagged
        self.shifts = shifts
        self.elements: List[_Elt] = []
        self.by_pos: Dict[int, List[int]] = {}
        self.pairs: List[Tuple] = []
        self.held: List[Tuple] = []
        self.syzygies: List[Vec] = []

    def degree(self, vec: Vec) -> Optional[int]:
        """The module degree of a nonzero vec on a graded run, else None."""
        if self.shifts is None or not vec:
            return None
        pos, exps = next(iter(vec))
        return self.order.degree(exps) + self.shifts[pos]

    def add(self, vec: Vec) -> None:
        """Take a nonzero element in: one that leads with a tag is a
        syzygy, shifted down by rank; any other joins the basis and updates
        the pairs."""
        elt = _Elt(vec, _make_primitive(vec, self.order))
        pos, lead = elt.lead
        if pos >= self.rank:
            self.syzygies.append({(p - self.rank, exps): c
                                  for (p, exps), c in vec.items()})
            return

        def lcm_with(i: int) -> ExpVec:
            return tuple(map(max, self.elements[i].lead[1], lead))

        # B, on the pending and the held pairs at this position
        for name in ("pairs", "held"):
            old = getattr(self, name)
            kept = [p for p in old if p[-4] != pos or not _divides(lead, p[-1])
                    or lcm_with(p[-3]) == p[-1] or lcm_with(p[-2]) == p[-1]]
            if len(kept) < len(old):
                heapq.heapify(kept)
                setattr(self, name, kept)
        # F, M and the product criterion, on the new pairs
        product = not self.tagged and self.rank == 1
        first: Dict[ExpVec, int] = {}
        coprime = set()
        for jdx in self.by_pos.get(pos, ()):
            lcm_exps = lcm_with(jdx)
            first.setdefault(lcm_exps, jdx)
            if product and not any(map(min, self.elements[jdx].lead[1], lead)):
                coprime.add(lcm_exps)
        idx = len(self.elements)
        for lcm_exps, jdx in first.items():
            if lcm_exps in coprime or any(
                    other != lcm_exps and _divides(other, lcm_exps)
                    for other in first):
                continue
            heapq.heappush(self.pairs, (self.order.key(lcm_exps), pos, jdx,
                                        idx, lcm_exps))
        self.elements.append(elt)
        self.by_pos.setdefault(pos, []).append(idx)

    def complete(self, upto: Optional[int] = None) -> None:
        """Reduce the pairs in heap order, on a graded run only those of
        module degree <= upto (all when upto is None); the working elements
        of degree <= upto are then a GB up to that degree.  A pair above
        upto waits in `held` until a later call asks for its degree."""
        while self.held and (upto is None or self.held[0][0] <= upto):
            heapq.heappush(self.pairs, heapq.heappop(self.held)[1:])
        while self.pairs:
            pair = heapq.heappop(self.pairs)
            _, pos, i, j, lcm_exps = pair
            if upto is not None:
                degree = self.order.degree(lcm_exps) + self.shifts[pos]
                if degree > upto:
                    heapq.heappush(self.held, (degree, *pair))
                    continue
            gi, gj = self.elements[i], self.elements[j]
            shift_i = tuple(map(sub, lcm_exps, gi.lead[1]))
            shift_j = tuple(map(sub, lcm_exps, gj.lead[1]))
            vec: Vec = {}
            _vec_submul(vec, -gj.lc, shift_i, gi.vec)
            _vec_submul(vec, gi.lc, shift_j, gj.vec)
            remainder, _ = _reduce(vec, self.elements, self.by_pos, self.order)
            if remainder:
                self.add(remainder)

    def absorb(self, vec: Vec) -> bool:
        """On an untagged run, completed up to vec's degree first: False if
        vec lies in the submodule (at once when it is zero), else add its
        remainder, complete again, True."""
        if not vec:
            return False
        degree = self.degree(vec)
        self.complete(degree)
        remainder, _ = _reduce(vec, self.elements, self.by_pos, self.order)
        if remainder:
            self.add(remainder)
            self.complete(degree)
        return bool(remainder)


def _minimal(elements: List[_Elt]) -> List[_Elt]:
    """The first element with each minimal lead, in (position, degree)
    order: a lead's proper divisors have lower degree, so they come first."""
    out: List[_Elt] = []
    leads: Dict[int, List[ExpVec]] = {}
    for e in sorted(elements, key=lambda e: (e.lead[0], sum(e.lead[1]))):
        pos, exps = e.lead
        kept = leads.setdefault(pos, [])
        if not any(_divides(k, exps) for k in kept):
            kept.append(exps)
            out.append(e)
    return out


def _reduced_basis(elements: List[_Elt], order: MonomialOrder) -> List[Vec]:
    """Unique reduced monic GB: minimal leads, tails fully reduced, sorted.

    Each tail is reduced against the whole minimal set: its terms, and all
    terms the reduction brings in, are smaller than the element's own lead,
    so that lead never divides one of them."""
    minimal = sorted(_minimal(elements),
                     key=lambda e: _low_term_key(e.lead, order))
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


def _as_row(value: Sequence[Polynomial], rank: int,
            ring: RingSpec) -> FreeElement:
    """value as a row of P^rank; every row entering the engine passes here."""
    row = tuple(value)
    if len(row) != rank:
        raise ValueError("expected a free element of rank %d, got %d"
                         % (rank, len(row)))
    for p in row:
        _check_variables(p, ring)
    return row


def _check_variables(p: Polynomial, ring: RingSpec) -> None:
    if p.variables != ring.variables:
        raise ValueError("polynomial over %s, expected %s"
                         % (p.variables, ring.variables))


def _row_to_vec(row: FreeElement) -> Vec:
    vec: Vec = {}
    for pos, poly in enumerate(row):
        for exps, coeff in poly.terms.items():
            vec[(pos, exps)] = coeff
    return vec


def _vec_to_row(vec: Vec, rank: int, variables: Tuple[str, ...]) -> FreeElement:
    """The first `rank` slots of vec as a row; later positions (the tags
    of a `solve_linear` remainder) are dropped."""
    buckets: List[Dict[ExpVec, Coeff]] = [dict() for _ in range(rank)]
    for (pos, exps), coeff in vec.items():
        if pos < rank:
            buckets[pos][exps] = coeff
    return tuple(_grown(variables, b) for b in buckets)


# ---------------------------------------------------------------------------
# public engine surface


class SubmoduleBasis:
    """span(rows) + I*P^rank over the ring's P, as the completed untagged
    `_ring_run((), rank, ring, base=rows)`, built on the first query.

    `normal_form` and `contains` reduce against the run's working elements:
    they are a Groebner basis, and the full remainder modulo any Groebner
    basis is the same.  The reduced monic basis is built each time
    `groebner` or `groebner_rows()` is read."""

    def __init__(self, rows: Sequence[FreeElement], rank: int,
                 ring: RingSpec):
        self.rows = tuple(rows)
        self.rank = rank
        self.ring = ring

    @cached_property
    def _run(self) -> _BuchbergerRun:
        return _ring_run((), self.rank, self.ring, base=self.rows)

    @cached_property
    def _leads(self) -> Dict[int, List[ExpVec]]:
        """The minimal lead monomials of the run, by position."""
        leads: Dict[int, List[ExpVec]] = {}
        for e in _minimal(self._run.elements):
            leads.setdefault(e.lead[0], []).append(e.lead[1])
        return leads

    @property
    def groebner(self) -> List[Vec]:
        return _reduced_basis(self._run.elements, self._run.order)

    def groebner_rows(self) -> List[FreeElement]:
        return [_vec_to_row(v, self.rank, self.ring.variables)
                for v in self.groebner]

    def _remainder(self, vec: Vec) -> Optional[Vec]:
        """The remainder of vec, or None when no term of vec is divisible
        by a lead of the basis, so that vec is its own remainder."""
        leads = self._leads
        if not any(_divides(lead, exps)
                   for pos, exps in vec for lead in leads.get(pos, ())):
            return None
        run = self._run
        rem, m = _reduce(vec, run.elements, run.by_pos, run.order)
        _vec_divide(rem, m)
        return rem

    def normal_form(self, row: Sequence[Polynomial]) -> FreeElement:
        """The remainder; a row that is its own remainder comes back with
        its entries as they are."""
        row = _as_row(row, self.rank, self.ring)
        rem = self._remainder(_row_to_vec(row))
        if rem is None:
            return row
        return _vec_to_row(rem, self.rank, self.ring.variables)

    def contains(self, row: Sequence[Polynomial]) -> bool:
        return all(p.is_zero() for p in self.normal_form(row))


def submodule_over_ring(rows: Sequence[Sequence[Polynomial]], rank: int,
                        ring: RingSpec) -> SubmoduleBasis:
    """Basis of span(rows) + I*P^rank; `contains` decides membership over R.
    Equal rows (as lists or tuples), rank and ring give the same basis
    while it is among the 16 spans asked for last."""
    return _span_basis(tuple(map(tuple, rows)), rank, ring)


# A basis never changes after its lazy run, so equal spans can share one.
@lru_cache(maxsize=16)
def _span_basis(rows: Tuple[FreeElement, ...], rank: int,
                ring: RingSpec) -> SubmoduleBasis:
    return SubmoduleBasis(rows, rank, ring)


# ---------------------------------------------------------------------------
# quotient-ring conveniences


@lru_cache(maxsize=None)
def ring_groebner(ring: RingSpec) -> SubmoduleBasis:
    """Cached basis of the defining ideal, a rank-1 submodule."""
    return SubmoduleBasis((), 1, ring)


def nf_poly(p: Polynomial, ring: RingSpec) -> Polynomial:
    """Normal form of a coefficient modulo the defining ideal; p itself
    when it is zero, the ring has no ideal or p is already reduced."""
    _check_variables(p, ring)
    if not p.terms or not ring.ideal:
        return p
    rem = ring_groebner(ring)._remainder(
        {(0, e): c for e, c in p.terms.items()})
    return p if rem is None else _vec_to_row(rem, 1, ring.variables)[0]


def _ideal_unit_rows(rank: int, ring: RingSpec) -> List[FreeElement]:
    rows = []
    zero = Polynomial.zero(ring.variables)
    for f in ring.ideal:
        for pos in range(rank):
            rows.append(tuple(f if i == pos else zero for i in range(rank)))
    return rows


def _grading(rows: Sequence[FreeElement], rank: int,
             ring: RingSpec) -> Optional[List[int]]:
    """Per-position degree shifts under which every row is homogeneous:
    a nonzero entry at position k has weighted degree d - shifts[k], d the
    row's degree.  Positions a row links get consistent shifts, each linked
    set starting from 0.  None when the ring or an entry is not homogeneous
    or no shifts fit."""
    if not ring.homogeneous:
        return None
    degrees = [[(k, p.homogeneous_degree(ring.weights))
                for k, p in enumerate(row) if p.terms] for row in rows]
    at: Dict[int, List[int]] = {}
    for i, row in enumerate(degrees):
        for k, h in row:
            if h is None:
                return None
            at.setdefault(k, []).append(i)
    shifts: Dict[int, int] = {}
    seen = set()
    for start in at:
        if start in shifts:
            continue
        shifts[start] = 0
        stack = [start]
        while stack:
            k = stack.pop()
            for i in set(at[k]) - seen:
                seen.add(i)
                d = shifts[k] + dict(degrees[i])[k]
                for pos, h in degrees[i]:
                    if shifts.setdefault(pos, d - h) != d - h:
                        return None
                    stack.append(pos)
    return [shifts.get(k, 0) for k in range(rank)]


def _ring_run(rows: Sequence[FreeElement], rank: int, ring: RingSpec,
              base: Sequence[FreeElement] = (),
              shifts: Optional[List[int]] = None) -> _BuchbergerRun:
    """Run over P on the rows, then `base`, then I*P^rank; the rows alone
    carry tags, so a zero row is all tag and a zero untagged row, adding
    nothing to the span, is skipped.  The run is completed unless `shifts`
    grade it: a graded run completes only as far as its caller asks."""
    run = _BuchbergerRun(ring.order(), rank, bool(rows), shifts)
    one = (0,) * len(ring.variables)
    items = [_as_row(r, rank, ring) for r in (*rows, *base)]
    for i, row in enumerate(items):
        vec = _row_to_vec(row)
        if i < len(rows):
            vec[(rank + i, one)] = 1
        if vec:
            run.add(vec)
    for f in ring.ideal:
        for k in range(rank):
            run.add({(k, e): c for e, c in f.terms.items()})
    if shifts is None:
        run.complete()
    return run


def syzygies_over_ring(rows: Sequence[FreeElement], rank: int,
                       ring: RingSpec,
                       base: Sequence[FreeElement] = ()) -> List[FreeElement]:
    """Generators of {a in R^t : sum a_i * row_i in span(base) in R^rank},
    the syzygies of the rows modulo span(base) + I*P^rank.

    Read off one run over P in which the rows carry tags and `base` and
    the ideal rows do not; coefficient-reduced modulo I, zero rows
    dropped, deduplicated and sorted by descending lead.
    """
    if not rows:
        return []
    t = len(rows)
    out: List[FreeElement] = []
    seen = set()
    for vec in _ring_run(rows, rank, ring, base).syzygies:
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
    vec = _row_to_vec(row)
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
    of span(kept + base) + I*P^rank, up to the row's degree when the rows
    and `base` are graded; a zero remainder means membership, otherwise the
    remainder joins the run and the row itself is kept.
    """
    run = _ring_run((), rank, ring, base,
                    _grading([*rows, *base], rank, ring))
    kept: List[FreeElement] = []
    for row in rows:
        row = tuple(nf_poly(p, ring) for p in _as_row(row, rank, ring))
        if run.absorb(_row_to_vec(row)):
            kept.append(row)
    return kept


# ---------------------------------------------------------------------------
# linear solving over R


class Solution(Record):
    column: FreeElement


class NoSolution(Record):
    residual: FreeElement


def solve_linear(columns: Sequence[FreeElement], b: FreeElement,
                 ring: RingSpec, base: Sequence[FreeElement] = ()):
    """Particular solution x of sum_j x_j * columns[j] = b modulo
    span(base) + I*R^len(b), or NoSolution.

    The columns and `base` are free elements of R^len(b).  b is reduced
    against the run in which the columns carry tags and `base` and the
    ideal rows do not, completed up to the degree of b when the system is
    graded.  A remainder with terms below position len(b) is
    the normal form of b, which NoSolution carries as certificate;
    otherwise the remainder is all tags, and the column tags read -x.
    """
    nrows = len(b)
    run = _ring_run(columns, nrows, ring, base,
                    _grading([*columns, *base, b], nrows, ring))
    vec = _row_to_vec(_as_row(b, nrows, ring))
    run.complete(run.degree(vec))
    remainder, m = _reduce(vec, run.elements, run.by_pos, run.order)
    _vec_divide(remainder, m)
    residual = _vec_to_row(remainder, nrows, ring.variables)
    if not all(p.is_zero() for p in residual):
        return NoSolution(residual)
    tags = {(pos - nrows, exps): c for (pos, exps), c in remainder.items()}
    x = _vec_to_row(tags, len(columns), ring.variables)
    return Solution(tuple(nf_poly(-p, ring) for p in x))


# ---------------------------------------------------------------------------
# Krull dimension


def krull_dimension(ring: RingSpec) -> int:
    """Krull dimension of R, from the leading-term ideal of a GB of I.

    Standard combinatorial reading: the dimension is the largest size of a
    variable subset S such that no Groebner leading monomial is supported
    inside S.  Returns -1 for the zero ring (1 in the ideal).
    """
    supports = [frozenset(i for i, e in enumerate(exps) if e)
                for exps in ring_groebner(ring)._leads.get(0, ())]
    s = len(ring.variables)
    for size in range(s, -1, -1):
        for subset in combinations(range(s), size):
            chosen = set(subset)
            if not any(sup <= chosen for sup in supports):
                return size
    return -1
