"""Free resolutions, Betti numbers, projective dimension, regularity.

free_resolution iterates syzygy computations: step 0 is the (row-pruned)
relation matrix of the presentation on its given generators, step i+1
lists a pruned generating set of the syzygy module of step i, and the
chain stops at the first zero syzygy module or at the cutoff.

minimal_resolution(m, cutoff) is built once per (module, cutoff) and
cached: it starts from minimal_presentation and sweeps scalar pivots at
every level with presentations._eliminate, since a nonzero constant entry
in a step matrix certifies that one generator of the level below is an
R-combination of the others, so the pivot row, its column, and that
generator are removed.  It never builds the raw resolution.  The chain is
read at the origin, which must lie on V(I) (no ideal generator has a
nonzero constant term, else the build raises); when every surviving entry
vanishes there, its Betti numbers are the minimal ones, graded or not.
If a unit that is not an exact constant survives, the elimination is
incomplete and the build raises instead of guessing.  Callers pass the
cutoff positionally, so the cache holds one entry per (module, cutoff).

projective_dimension reads its verdict off the minimal chain alone:
Finite at the last nonzero step when the chain terminates, AtLeast(cutoff)
when the cutoff cut it short.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .poly import Polynomial, Record, partial_derivative
from .parser import RingSpec
from .groebner import (FreeElement, _grading, krull_dimension, nf_poly,
                       prune_rows, row_lead_key, submodule_over_ring,
                       syzygies_over_ring)
from .presentations import Presentation, _eliminate

Matrix = Tuple[Tuple[Polynomial, ...], ...]


class ResolutionReport(Record):
    module: Presentation
    steps: Tuple[Matrix, ...]
    betti: Tuple[int, ...]
    terminated: bool
    cutoff: int
    graded: bool


class Finite(Record):
    value: int

    def __str__(self) -> str:
        return "pd = %d" % self.value


class AtLeast(Record):
    value: int

    def __str__(self) -> str:
        return "pd >= %d" % self.value


def _first_constant(rows: Sequence[FreeElement]) -> Optional[Tuple[int, int]]:
    """(a, b) of the first nonzero constant entry in row-major order, else
    None."""
    return next(((a, b) for a, row in enumerate(rows)
                 for b, entry in enumerate(row)
                 if not entry.is_zero() and entry.is_constant()), None)


def _sweep_pair(upper: Sequence[FreeElement], lower: Sequence,
                ring: RingSpec) -> Tuple[List[FreeElement], list]:
    """Scalar-pivot elimination between consecutive levels of a chain.

    `lower` is any sequence indexed parallel to `upper`'s columns (step
    matrix rows, or generator indices at the bottom level).  A constant
    entry upper[a][b] says lower[b] is an R-combination of the rest:
    presentations._eliminate takes row a as a unit pivot and clears
    column b, and entry b of `lower` is dropped with it.
    """
    upper, pivots = _eliminate(upper, _first_constant, ring)
    lower = list(lower)
    for b in pivots:
        del lower[b]
    return upper, lower


def _chain(rows: Sequence[FreeElement], ring: RingSpec, cutoff: int,
           sweep: bool) -> Tuple[List[List[FreeElement]], bool]:
    """Iterated syzygies of a relation matrix, at most `cutoff` steps.

    Each syzygy set is pruned to a generating set before the next step.
    A tagged run records one syzygy for each pair that survives the
    Gebauer-Moller criteria B, M and F and reduces to tags alone; those
    still generate every syzygy (Schreyer's theorem, see `groebner`), but
    far from minimally, so without pruning the ranks (and the running
    time) grow multiplicatively.
    """
    steps: List[List[FreeElement]] = []
    current = list(rows)
    while current and len(steps) < cutoff:
        steps.append(current)
        nxt = syzygies_over_ring(current, len(current[0]), ring)
        if sweep and nxt:
            nxt, steps[-1] = _sweep_pair(nxt, steps[-1], ring)
        if nxt:
            nxt.sort(key=lambda r: row_lead_key(r, ring))
            nxt = prune_rows(nxt, len(steps[-1]), ring)
        current = nxt
    return steps, not current


def _graded_chain(m: Presentation, steps) -> bool:
    """True when the ring is homogeneous, m has generator degrees and,
    step by step, every row has a degree under them (_grading)."""
    degrees = m.degrees if m.ring.homogeneous else None
    for step in steps:
        grading = degrees and _grading(step, len(degrees), m.ring, degrees)
        degrees = grading[1] if grading and None not in grading[1] else None
    return degrees is not None


def _report(m: Presentation, steps, terminated: bool,
            cutoff: int) -> ResolutionReport:
    betti = (m.ngens,) + tuple(len(s) for s in steps)
    frozen = tuple(tuple(s) for s in steps)
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
    rows = prune_rows(rows, len(gens), m.ring)
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
    cache = {}
    minors = [(_minor(jac, rsel, csel, ring, cache),)
              for rsel in combinations(range(len(ring.ideal)), c)
              for csel in combinations(range(s), c)]
    return submodule_over_ring(minors, 1, ring).contains((ring.one(),))
