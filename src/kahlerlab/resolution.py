"""Free resolutions, Betti numbers, projective dimension, regularity.

free_resolution iterates syzygy computations: step 0 is the (row-pruned)
relation matrix of the presentation on its given generators, step i+1
lists a pruned generating set of the syzygy module of step i, and the
chain stops at the first zero syzygy module or at the cutoff.

minimal_resolution(m, cutoff) is built once per (module, cutoff) and
cached: it starts from minimal_presentation and sweeps scalar pivots at
every level, since a nonzero constant entry in a step matrix certifies
that one generator of the level below is an R-combination of the others,
so the pivot row, its column, and that generator are removed.  It never
builds the raw resolution.  The chain is read at the origin, which must
lie on V(I) (no ideal generator has a nonzero constant term, else the
build raises); when every surviving entry vanishes there, its Betti
numbers are the minimal ones, graded or not.  If a unit that is not an
exact constant survives, the elimination is incomplete and the build
raises instead of guessing.  Callers pass the cutoff positionally, so the
cache holds one entry per (module, cutoff).

projective_dimension reads its verdict off the minimal chain alone:
Finite at the last nonzero step when the chain terminates, AtLeast(cutoff)
when the cutoff cut it short.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .poly import Coeff, Polynomial, partial_derivative
from .parser import RingSpec, make_ringspec
from .groebner import (krull_dimension, nf_poly, prune_rows, row_lead_key,
                       syzygies_over_ring)
from .presentations import Presentation, _clear_column, _row_degree

Matrix = Tuple[Tuple[Polynomial, ...], ...]


@dataclass(frozen=True)
class ResolutionReport:
    module: Presentation
    steps: Tuple[Matrix, ...]
    betti: Tuple[int, ...]
    terminated: bool
    cutoff: int
    graded: bool


@dataclass(frozen=True)
class Finite:
    value: int

    def __str__(self) -> str:
        return "pd = %d" % self.value


@dataclass(frozen=True)
class AtLeast:
    value: int

    def __str__(self) -> str:
        return "pd >= %d" % self.value


def _scalar(p: Polynomial) -> Optional[Coeff]:
    """The value of a nonzero constant polynomial, else None."""
    if len(p.terms) != 1:
        return None
    (exps, coeff), = p.terms.items()
    if any(exps):
        return None
    return coeff


def _sweep_pair(upper: Sequence[Sequence[Polynomial]], lower: Sequence,
                ring: RingSpec) -> Tuple[List[List[Polynomial]], list]:
    """Scalar-pivot elimination between consecutive levels of a chain.

    `lower` is any sequence indexed parallel to `upper`'s columns (step
    matrix rows, or generator indices at the bottom level).  A constant
    entry upper[a][b] says lower[b] is an R-combination of the rest: row a,
    scaled to a unit pivot, clears column b of the other rows
    (presentations._clear_column, which also drops column b and the zero
    rows), then row a and entry b of `lower` are dropped.
    """
    upper = [list(r) for r in upper]
    lower = list(lower)
    while True:
        hit = next(((a, b) for a, row in enumerate(upper)
                    for b, entry in enumerate(row)
                    if _scalar(entry) is not None), None)
        if hit is None:
            return upper, lower
        a, b = hit
        pivot = upper.pop(a)
        pv = _scalar(pivot[b])
        unit = [y.scale(Fraction(1) / pv) for y in pivot]
        upper = _clear_column(upper, unit, b, ring)
        del lower[b]


def _chain(rows: Sequence[Sequence[Polynomial]], ring: RingSpec, cutoff: int,
           sweep: bool) -> Tuple[List[List[List[Polynomial]]], bool]:
    """Iterated syzygies of a relation matrix, at most `cutoff` steps.

    Each syzygy set is pruned to a generating set before the next step;
    a tagged run records one syzygy per pair that reduces to tags alone,
    so without pruning the ranks (and the running time) grow
    multiplicatively.
    """
    steps: List[List[List[Polynomial]]] = []
    current = [list(r) for r in rows]
    while current and len(steps) < cutoff:
        steps.append(current)
        nxt = [list(r) for r in syzygies_over_ring(
            [tuple(r) for r in current], len(current[0]), ring)]
        if sweep and nxt:
            nxt, steps[-1] = _sweep_pair(nxt, steps[-1], ring)
        if nxt:
            nxt.sort(key=lambda r: row_lead_key(tuple(r), ring))
            nxt = [list(r) for r in prune_rows(
                [tuple(r) for r in nxt], len(steps[-1]), ring)]
        current = nxt
    return steps, not current


def _graded_chain(m: Presentation, steps) -> bool:
    """True when generator degrees exist and the ideal generators and every
    step row are homogeneous for the weights (1 per variable by default)."""
    weights = m.ring.weights or tuple(1 for _ in m.ring.variables)
    if m.degrees is None or any(f.homogeneous_degree(weights) is None
                                for f in m.ring.ideal):
        return False
    degrees = m.degrees
    for step in steps:
        found = []
        for row in step:
            d = _row_degree(tuple(row), degrees, weights)
            if d is None:
                return False
            found.append(d)
        degrees = tuple(found)
    return True


def _report(m: Presentation, steps, terminated: bool,
            cutoff: int) -> ResolutionReport:
    betti = (m.ngens,) + tuple(len(s) for s in steps)
    frozen = tuple(tuple(tuple(row) for row in s) for s in steps)
    return ResolutionReport(m, frozen, betti, terminated, cutoff,
                            _graded_chain(m, steps))


def free_resolution(m: Presentation, cutoff: int = 6) -> ResolutionReport:
    """Resolve M on its given generators; Betti numbers are the raw ranks."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    rows = prune_rows(m.relations, m.ngens, m.ring)
    steps, terminated = _chain(rows, m.ring, cutoff, sweep=False)
    return _report(m, steps, terminated, cutoff)


def minimal_presentation(m: Presentation) -> Presentation:
    """Equivalent presentation with scalar relation entries eliminated.

    Every pivot removes one generator and one relation; surviving rows
    are pruned against each other over R.
    """
    if not m.relations:
        return m
    rows, keep = _sweep_pair(m.relations, range(m.ngens), m.ring)
    gens = tuple(m.generators[i] for i in keep)
    degrees = None if m.degrees is None else tuple(m.degrees[i] for i in keep)
    rows = prune_rows([tuple(r) for r in rows], len(gens), m.ring)
    return Presentation(m.ring, gens, tuple(rows), degrees)


@lru_cache(maxsize=None)
def minimal_resolution(m: Presentation, cutoff: int = 6) -> ResolutionReport:
    """The minimal chain of m, at most `cutoff` steps: minimal_presentation(m)
    with scalar pivots swept at every level; its rows are already pruned,
    so they enter _chain as is."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if any(f.constant_term() != 0 for f in m.ring.ideal):
        raise ValueError("the origin is not on V(I); the minimal chain "
                         "is read at the origin")
    mp = minimal_presentation(m)
    steps, terminated = _chain(mp.relations, mp.ring, cutoff, sweep=True)
    for step in steps:
        for row in step:
            for entry in row:
                if entry.constant_term() != 0:
                    raise ValueError(
                        "entry %r is a unit but not a constant; "
                        "minimalization needs graded or origin-local input"
                        % entry)
    return _report(mp, steps, terminated, cutoff)


def projective_dimension(m: Presentation, cutoff: int = 6):
    """Verdict from the minimal chain alone (the raw resolution is never
    built): Finite(last nonzero step) when it terminates within the
    cutoff, else AtLeast(cutoff)."""
    r = minimal_resolution(m, cutoff)
    if not r.terminated:
        return AtLeast(cutoff)
    return Finite(max((i for i, b in enumerate(r.betti) if b), default=0))


def _minor(rows: Sequence[Sequence[Polynomial]], ridx: Tuple[int, ...],
           cidx: Tuple[int, ...], ring: RingSpec,
           cache: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Polynomial]
           ) -> Polynomial:
    """Determinant of the submatrix of `rows` on rows ridx and columns cidx,
    by cofactor expansion along its first row, reduced modulo I at every
    level so the nonzero test is exact; memoized in `cache`."""
    if len(ridx) == 1:
        return nf_poly(rows[ridx[0]][cidx[0]], ring)
    key = (ridx, cidx)
    got = cache.get(key)
    if got is not None:
        return got
    total = ring.zero()
    rest = ridx[1:]
    for pos, c in enumerate(cidx):
        entry = rows[ridx[0]][c]
        if not entry.is_zero():
            sub = _minor(rows, rest, cidx[:pos] + cidx[pos + 1:], ring, cache)
            term = entry * sub
            total = total + (term if pos % 2 == 0 else -term)
    total = nf_poly(total, ring)
    cache[key] = total
    return total


def jacobian_regular(ring: RingSpec) -> bool:
    """Jacobian criterion over Q: R is regular (smooth) exactly when I
    together with the c x c minors of the Jacobian of its generators is
    the unit ideal, where c = s - dim R is the codimension.  The minors are
    reduced modulo I, which leaves I + (minors) unchanged."""
    if not ring.ideal:
        return True
    s = len(ring.variables)
    c = s - krull_dimension(ring)
    if c <= 0:
        return True
    jac = [[partial_derivative(f, j) for j in range(s)] for f in ring.ideal]
    minors = []
    cache = {}
    for rsel in combinations(range(len(ring.ideal)), c):
        for csel in combinations(range(s), c):
            d = _minor(jac, rsel, csel, ring, cache)
            if not d.is_zero():
                minors.append(d)
    extended = make_ringspec(ring.variables, None,
                             tuple(ring.ideal) + tuple(minors))
    return nf_poly(ring.one(), extended).is_zero()
