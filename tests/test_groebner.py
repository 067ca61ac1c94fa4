"""Tests for the Groebner/normal-form/syzygy engine."""

import heapq
import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest

from kahlerlab import groebner
from kahlerlab.diffmod import (_omega_rows, delta_monomials, jq_presentation,
                               omega_presentation, theta_to_first)
from kahlerlab.groebner import (
    NoSolution,
    Solution,
    _BuchbergerRun,
    _grading,
    _ideal_unit_rows,
    _reduced_basis,
    _ring_run,
    _row_to_vec,
    _vec_to_row,
    krull_dimension,
    nf_poly,
    prune_rows,
    solve_linear,
    submodule_over_ring,
    syzygies_over_ring,
)
from kahlerlab.parser import make_ringspec, parse_poly, parse_ringspec
from kahlerlab.poly import Polynomial
from kahlerlab.presentations import relation_basis

CUSP = parse_ringspec(
    "vars = [x, y]; weights = [2, 3]; ideal = [y^2 - x^3]; assume_domain = true;")
EX316 = parse_ringspec(
    "vars = [x, y, z]; weights = [4, 5, 6];"
    " ideal = [y^2 - x*z, z^2 - x^3]; assume_domain = true;")
PLANE = make_ringspec(("x", "y"))


def p(text, ring=PLANE):
    return parse_poly(text, ring)


def test_cusp_ideal_normal_forms():
    basis = submodule_over_ring((), 1, CUSP)
    rows = basis.groebner_rows()
    assert len(rows) == 1
    # monic with lead y^2 under the weighted order
    assert rows[0][0] == p("y^2 - x^3", CUSP)
    assert basis.normal_form((p("x^2*y^2", CUSP),)) == (p("x^5", CUSP),)
    assert basis.normal_form((p("8*x^3 - y^2", CUSP),)) == (p("7*x^3", CUSP),)
    assert basis.contains((p("y^2 - x^3", CUSP),))
    assert not basis.contains((p("y", CUSP),))


def test_normal_form_stores_integral_coefficients_as_ints():
    # the fraction-free remainder carries a multiplier of 2 here
    got = nf_poly(p("1/2*y^2 + 1/2*x^3 + 2*x", CUSP), CUSP)
    assert got == p("x^3 + 2*x", CUSP)
    assert [type(c) for c in got.terms.values()] == [int, int]
    got = nf_poly(p("1/2*y^2 + 1/3*x", CUSP), CUSP)
    assert got.terms == {(3, 0): Fraction(1, 2), (1, 0): Fraction(1, 3)}
    assert [type(c) for c in got.terms.values()] == [Fraction, Fraction]


def test_ex316_ideal_is_self_groebner():
    basis = submodule_over_ring((), 1, EX316)
    rows = basis.groebner_rows()
    assert len(rows) == 2
    texts = {tuple(sorted((k, v) for k, v in q.terms.items())) for (q,) in rows}
    f1, f2 = EX316.ideal
    assert {tuple(sorted(f.terms.items())) for f in (f1, f2)} == texts
    # leading monomials are y^2 and z^2
    leads = set()
    for vec in basis.groebner:
        lead = max(vec, key=lambda t: (-t[0], EX316.order().key(t[1])))
        leads.add(lead[1])
    assert leads == {(0, 2, 0), (0, 0, 2)}


def test_groebner_idempotent_on_reduced_basis():
    basis = submodule_over_ring([(p("x^2 - y"),), (p("x*y - 1"),)], 1, PLANE)
    again = submodule_over_ring(basis.groebner_rows(), 1, PLANE)
    assert basis.groebner_rows() == again.groebner_rows()


def test_syzygies_of_two_variables():
    assert syzygies_over_ring([(p("x"),), (p("y"),)], 1, PLANE) == \
        [(p("y"), p("-x"))]


def test_syzygies_contain_obvious_combination():
    syz = syzygies_over_ring([(p("x"),), (p("y"),), (p("x + y"),)], 1, PLANE)
    want = (p("1"), p("1"), p("-1"))
    assert submodule_over_ring(syz, 3, PLANE).contains(want)
    # every generator really is a syzygy (checked again here, independently)
    for row in syz:
        combo = row[0] * p("x") + row[1] * p("y") + row[2] * p("x + y")
        assert combo.is_zero()


def test_module_normal_form_rank_two():
    e1 = (p("1"), p("0"))
    gens = [(p("x"), p("y")), (p("0"), p("x - y"))]
    basis = submodule_over_ring(gens, 2, PLANE)
    nf = basis.normal_form((p("x"), p("y")))
    assert all(c.is_zero() for c in nf)
    assert not basis.contains(e1)


def test_quotient_membership_and_nf():
    assert nf_poly(p("y^2", CUSP), CUSP) == p("x^3", CUSP)
    basis = submodule_over_ring([(p("x", CUSP),)], 1, CUSP)
    # y^2 * 1 = x^3 in R, and x^3 is in (x)
    assert basis.contains((p("y^2", CUSP),))
    assert not basis.contains((p("y", CUSP),))


def test_syzygies_over_quotient_ring():
    square = parse_ringspec("vars = [x]; ideal = [x^2];")
    rows = syzygies_over_ring([(parse_poly("x", square),)], 1, square)
    assert rows == [(parse_poly("x", square),)]


def test_prune_rows_drops_span_members():
    rows = [
        (p("x"), p("0")),
        (p("2*x"), p("0")),
        (p("0"), p("1")),
        (p("x"), p("y")),
    ]
    kept = prune_rows(rows, 2, PLANE)
    assert kept == [(p("x"), p("0")), (p("0"), p("1"))]


def test_prune_rows_base_spans_but_is_never_returned():
    def c(text):
        return p(text, CUSP)

    base = [(c("x"), c("0"))]
    rows = [
        (c("y^2"), c("0")),     # x^2 * base row, but only over R: y^2 = x^3
        (c("x"), c("y")),
        (c("0"), c("x*y")),     # x * (x, y) - x * base row
        (c("x"), c("0")),       # the base row itself
        (c("0"), c("1")),
    ]
    kept = prune_rows(rows, 2, CUSP, base=base)
    assert kept == [(c("x"), c("y")), (c("0"), c("1"))]
    assert not set(kept) & set(base)
    # without base the first row is new
    assert prune_rows(rows, 2, CUSP)[0] == (c("x^3"), c("0"))


def _rebuild_prune(rows, rank, ring, base=()):
    """Reference pruner: a fresh ideal-augmented basis for every row."""
    kept = []
    for row in rows:
        row = tuple(nf_poly(entry, ring) for entry in row)
        if all(entry.is_zero() for entry in row):
            continue
        if not submodule_over_ring(kept + list(base), rank, ring).contains(row):
            kept.append(row)
    return kept


@pytest.mark.parametrize("ring", [CUSP, EX316], ids=["cusp", "ex316"])
@pytest.mark.parametrize("q", [1, 2])
def test_prune_rows_matches_rebuild_on_omega_rows(ring, q):
    monomials = delta_monomials(ring, q)
    rows = _omega_rows(ring, q, monomials)
    rank = len(monomials)
    assert prune_rows(rows, rank, ring) == _rebuild_prune(rows, rank, ring)


def test_prune_rows_matches_rebuild_on_kernel_rows_with_base():
    theta = theta_to_first(CUSP, 2)
    raw = syzygies_over_ring(theta.columns, theta.target.ngens, CUSP,
                             base=theta.target.relations)
    base = theta.source.relations
    kept = prune_rows(raw, theta.source.ngens, CUSP, base=base)
    assert kept == _rebuild_prune(raw, theta.source.ngens, CUSP, base=base)
    assert 0 < len(kept) < len(raw)


def test_absorb_extends_to_the_reduced_basis_of_all_rows():
    monomials = delta_monomials(EX316, 2)
    rank = len(monomials)
    run = _ring_run((), rank, EX316)
    rows = _omega_rows(EX316, 2, monomials)
    absorbed = [run.absorb(_row_to_vec(r)) for r in rows + rows[:1]]
    assert absorbed[0] and not absorbed[-1]
    assert (_reduced_basis(run.elements, EX316.order())
            == submodule_over_ring(rows, rank, EX316).groebner)


def _homogeneous_entry(rng, ring, degree):
    """0 (about a third of the time, or when nothing has that degree), or
    one or two terms of the given weighted degree with small int
    coefficients."""
    order = ring.order()
    monos = [e for e in product(range(max(degree, -1) + 1),
                                repeat=len(ring.variables))
             if order.degree(e) == degree]
    if not monos or rng.random() < 0.3:
        return ring.zero()
    picked = rng.sample(monos, min(len(monos), rng.randrange(1, 3)))
    return Polynomial(ring.variables,
                      {e: rng.choice((-2, -1, 1, 3)) for e in picked})


def _homogeneous_rows(rng, ring, shifts, degrees):
    """One nonzero row per degree d, its entry at position k of weighted
    degree d - shifts[k]."""
    rows = []
    for d in degrees:
        row = ()
        while not any(row):
            row = tuple(_homogeneous_entry(rng, ring, d - s) for s in shifts)
        rows.append(row)
    return rows


@pytest.mark.parametrize("ring", [CUSP, EX316], ids=["cusp", "ex316"])
def test_graded_runs_equal_full_completion(ring, monkeypatch):
    """On seeded homogeneous systems the graded prune_rows and solve_linear
    give exactly what a full completion gives, Solution columns included,
    and reduce fewer pairs."""
    rng = random.Random(2400 + len(ring.ideal))
    order = ring.order()
    w = max(ring.weights)
    calls = {"graded": 0, "full": 0}
    reduce = groebner._reduce
    grading = groebner._grading
    solved = 0
    for _ in range(8):
        shifts = [0, rng.choice(ring.weights), rng.choice(ring.weights)]
        low = w + max(shifts)
        columns = _homogeneous_rows(rng, ring, shifts, [
            rng.randrange(low, low + 2 * w) for _ in range(3)])
        base = _homogeneous_rows(rng, ring, shifts, [
            rng.randrange(low, low + 2 * w) for _ in range(2)])
        top = low + 2 * w
        b = _homogeneous_rows(rng, ring, shifts, [top])[0]
        if rng.random() < 0.5:
            for row in columns + base:
                degree = next(order.degree(next(iter(e.terms))) + s
                              for e, s in zip(row, shifts) if e)
                c = _homogeneous_entry(rng, ring, top - degree)
                b = tuple(x + c * y for x, y in zip(b, row))
        assert grading(columns + base + [b], 3, ring) is not None
        got = {}
        for mode in ("graded", "full"):
            monkeypatch.setattr(groebner, "_grading", grading if mode == "graded"
                                else lambda *args: None)
            monkeypatch.setattr(groebner, "_reduce", lambda *args, mode=mode: (
                calls.__setitem__(mode, calls[mode] + 1) or reduce(*args)))
            got[mode] = (solve_linear(columns, b, ring, base),
                         prune_rows(columns + base + [b], 3, ring),
                         prune_rows(columns, 3, ring, base=base))
        assert got["graded"] == got["full"]
        solved += isinstance(got["graded"][0], Solution)
    assert 0 < solved < 8
    assert calls["graded"] < calls["full"]


def test_stepped_completion_keeps_the_held_pairs():
    """A graded run completed to D1, then D2, then in full has the reduced
    basis of one full completion: pairs held above D1 and D2, and filtered
    by the B criterion while held, are neither lost nor doubled."""
    monomials = delta_monomials(EX316, 2)
    rank = len(monomials)
    rows = _omega_rows(EX316, 2, monomials)
    run = _ring_run((), rank, EX316, base=rows,
                    shifts=_grading(rows, rank, EX316))
    degrees = sorted({run.degree(_row_to_vec(r)) for r in rows})
    for upto in degrees[0], degrees[-1]:
        run.complete(upto)
        assert run.held and all(d > upto for d, *_ in run.held)
    run.complete()
    assert not run.held and not run.pairs
    assert (_reduced_basis(run.elements, EX316.order())
            == submodule_over_ring(rows, rank, EX316).groebner)


def test_ungraded_input_takes_the_full_completion(monkeypatch):
    """_grading gives None for a non-homogeneous ring, a non-homogeneous
    entry or rows no shifts fit; prune_rows and solve_linear then complete
    in full, with the answers of the rebuild and of the rational
    reference."""
    circle = parse_ringspec(
        "vars = [x, y]; ideal = [x^2 + y^2 - 1]; assume_domain = true;")
    x, y, zero = p("x"), p("y"), p("0")
    assert _grading([(x * x, y), (zero, x)], 3, PLANE) == [0, 1, 0]
    assert _grading([(x, y)], 2, circle) is None
    assert _grading([(x + p("1"), y)], 2, PLANE) is None
    assert _grading([(x, p("1")), (p("1"), x)], 2, PLANE) is None
    uptos = []
    complete = _BuchbergerRun.complete
    monkeypatch.setattr(_BuchbergerRun, "complete", lambda run, upto=None: (
        uptos.append(upto) or complete(run, upto)))
    cases = [
        (PLANE, [(x + p("1"), y), (x * y, y * y), (y, x * x)]),
        (PLANE, [(x, p("1")), (p("1"), x), (x * x, x)]),
        (circle, [(p("x", circle), p("y", circle)),
                  (p("x^2", circle), p("x*y", circle)),
                  (p("1", circle), p("0", circle))]),
    ]
    for ring, rows in cases:
        del uptos[:]
        assert prune_rows(rows, 2, ring) == _rebuild_prune(rows, 2, ring)
        b = tuple(r + s for r, s in zip(rows[0], rows[1]))
        assert solve_linear(rows, b, ring) == _ref_solve(rows, b, ring)
        assert uptos and set(uptos) == {None}
    prune_rows([(x * x, y), (x * y, x)], 2, PLANE)
    assert any(upto is not None for upto in uptos)


@pytest.mark.parametrize("fractions", [False, True], ids=["ints", "mixed"])
def test_make_primitive_returns_the_lead_of_a_primitive_multiple(fractions):
    order = EX316.order()
    rng = random.Random(9100 + fractions)
    lead_signs = set()
    for _ in range(200):
        common = rng.randrange(1, 5)
        vec = {}
        for _ in range(rng.randrange(1, 6)):
            term = (rng.randrange(3), tuple(rng.randrange(4) for _ in range(3)))
            c = common * rng.choice((-1, 1)) * rng.randrange(1, 13)
            if fractions and rng.random() < 0.5:
                c = Fraction(c, rng.randrange(1, 7))
            vec[term] = c
        original = dict(vec)
        lead = groebner._make_primitive(vec, order)
        assert lead == groebner._lead(vec, order)
        lead_signs.add(original[lead] > 0)
        assert all(type(c) is int for c in vec.values())
        assert gcd(*vec.values()) == 1 and vec[lead] > 0
        ratio = Fraction(vec[lead]) / original[lead]
        assert vec == {t: ratio * c for t, c in original.items()}
    assert lead_signs == {False, True}


# ---------------------------------------------------------------------------
# A rational reference engine: Fraction coefficients, each lead found by a
# linear scan under `MonomialOrder.key`, no heap and no low keys.  It is the
# engine's reduction loop and pair loop as they stood before the engine went
# fraction-free over the integers, with the pair criteria written out a
# second time, kept here as an independent model for the fast path to agree
# with.  Without its criteria it reduces every pair, a model of what the
# criteria must keep.


def _ref_key(term, order):
    return (-term[0], order.key(term[1]))


def _ref_lead(vec, order):
    return max(vec, key=lambda t: _ref_key(t, order))


def _ref_submul(target, coeff, mono, src):
    for (pos, exps), c in src.items():
        key = (pos, tuple(a + b for a, b in zip(mono, exps)))
        acc = target.get(key, Fraction(0)) - coeff * c
        if acc:
            target[key] = acc
        else:
            target.pop(key, None)


def _ref_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _ref_reduce(vec, expr, elements, order):
    """Full rational normal form of vec (consumed) against (vec, expr, lead)
    elements, first divisible lead wins; expr is updated in place."""
    result = {}
    while vec:
        term = _ref_lead(vec, order)
        reducer = next((g for g in elements if g[2][0] == term[0]
                        and _ref_divides(g[2][1], term[1])), None)
        if reducer is None:
            result[term] = vec.pop(term)
            continue
        gvec, gexpr, glead = reducer
        coeff = Fraction(vec[term], gvec[glead])
        shift = tuple(a - b for a, b in zip(term[1], glead[1]))
        _ref_submul(vec, coeff, shift, gvec)
        if expr is not None and gexpr is not None:
            _ref_submul(expr, coeff, shift, gexpr)
    return result


def _ref_primitive(vec, expr, order):
    den = lcm(*(c.denominator for c in vec.values()))
    num = gcd(*(c.numerator * (den // c.denominator) for c in vec.values()))
    scale = Fraction(den, num)
    if vec[_ref_lead(vec, order)] < 0:
        scale = -scale
    for part in (vec, expr or {}):
        for key in part:
            part[key] *= scale


def _ref_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


class _RefRun:
    """A completed rational Buchberger run with the engine's pair order;
    the first `ntracked` inputs carry tracked expressions.  With `criteria`
    it applies the engine's pair criteria (Gebauer-Moller B, M and F, and
    the product criterion in untagged rank-1 runs); without, it reduces
    every pair."""

    def __init__(self, inputs, order, rank, ntracked, criteria=True):
        self.order, self.rank = order, rank
        self.track = ntracked > 0
        self.criteria = criteria
        self.elements = []
        self.pairs = []
        self.syzygies = []
        self.reduced = 0
        zero = (0,) * next(len(e) for vec in inputs for (_, e) in vec)
        for i, vec in enumerate(inputs):
            expr = None
            if self.track:
                expr = {(i, zero): Fraction(1)} if i < ntracked else {}
            if not vec:
                if expr:
                    self.syzygies.append(expr)
                continue
            self.add(dict(vec), expr)
        while self.pairs:
            _, _, i, j, top = heapq.heappop(self.pairs)
            self.reduced += 1
            (vi, ei, li), (vj, ej, lj) = self.elements[i], self.elements[j]
            si = tuple(a - b for a, b in zip(top, li[1]))
            sj = tuple(a - b for a, b in zip(top, lj[1]))
            vec, expr = {}, ({} if self.track else None)
            for part, src_i, src_j in ((vec, vi, vj), (expr, ei, ej)):
                if part is not None:
                    _ref_submul(part, -vj[lj], si, src_i)
                    _ref_submul(part, vi[li], sj, src_j)
            remainder = _ref_reduce(vec, expr, self.elements, order)
            if remainder:
                self.add(remainder, expr)
            elif expr:
                _ref_primitive(expr, None, order)
                self.syzygies.append(expr)

    def add(self, vec, expr):
        _ref_primitive(vec, expr, self.order)
        lead = _ref_lead(vec, self.order)
        idx = len(self.elements)
        new = [(_ref_lcm(other[1], lead[1]), jdx)
               for jdx, (_, _, other) in enumerate(self.elements)
               if other[0] == lead[0]]
        if self.criteria:
            def chained(pair):  # B
                _, pos, i, j, top = pair
                return (pos == lead[0] and _ref_divides(lead[1], top)
                        and _ref_lcm(self.elements[i][2][1], lead[1]) != top
                        and _ref_lcm(self.elements[j][2][1], lead[1]) != top)
            self.pairs = [pair for pair in self.pairs if not chained(pair)]
            heapq.heapify(self.pairs)
            coprime = set()
            if not self.track and self.rank == 1:
                coprime = {top for top, jdx in new
                           if top == tuple(a + b for a, b in zip(
                               self.elements[jdx][2][1], lead[1]))}
            new = [(top, jdx) for top, jdx in new
                   if top not in coprime  # product
                   and not any(o != top and _ref_divides(o, top)
                               for o, _ in new)  # M
                   and min(k for o, k in new if o == top) == jdx]  # F
        for top, jdx in new:
            heapq.heappush(self.pairs,
                           (self.order.key(top), lead[0], jdx, idx, top))
        self.elements.append((vec, expr, lead))

    def reduced_basis(self):
        """Minimal leads, tails reduced against the minimal set, monic."""
        minimal = []
        for i, (_, _, lead) in enumerate(self.elements):
            if not any(j != i and other[0] == lead[0]
                       and _ref_divides(other[1], lead[1])
                       and (other[1] != lead[1] or j < i)
                       for j, (_, _, other) in enumerate(self.elements)):
                minimal.append(self.elements[i])
        minimal.sort(key=lambda e: _ref_key(e[2], self.order), reverse=True)
        out = []
        for vec, _, lead in minimal:
            tail = {t: c for t, c in vec.items() if t != lead}
            rem = {lead: vec[lead]}
            rem.update(_ref_reduce(tail, None, minimal, self.order))
            out.append({t: Fraction(c, vec[lead]) for t, c in rem.items()})
        return out


def _ref_ring_nf(poly, ring):
    """Rational normal form of one polynomial modulo the ring's ideal."""
    if not ring.ideal:
        return poly
    run = _RefRun([_row_to_vec((f,)) for f in ring.ideal], ring.order(), 1,
                  ntracked=0)
    rem = _ref_reduce(_row_to_vec((poly,)), None, run.elements, ring.order())
    return _vec_to_row(rem, 1, ring.variables)[0]


def _ref_syzygy_rows(raw, t, ring):
    rows, seen = [], set()
    for vec in raw:
        row = tuple(_ref_ring_nf(e, ring) for e in _vec_to_row(vec, t, ring.variables))
        if all(e.is_zero() for e in row) or row in seen:
            continue
        seen.add(row)
        rows.append(row)
    order = ring.order()
    rows.sort(key=lambda r: _ref_key(_ref_lead(_row_to_vec(r), order), order),
              reverse=True)
    return rows


def _ref_solve(columns, b, ring, criteria=True):
    items = list(columns) + _ideal_unit_rows(len(b), ring)
    run = _RefRun([_row_to_vec(r) for r in items], ring.order(), len(b),
                  ntracked=len(columns), criteria=criteria)
    acc = {}
    rem = _ref_reduce(_row_to_vec(tuple(b)), acc, run.elements, ring.order())
    if rem:
        return NoSolution(_vec_to_row(rem, len(b), ring.variables))
    tracked = _vec_to_row(acc, len(columns), ring.variables)
    return Solution(tuple(_ref_ring_nf(-e, ring) for e in tracked))


def _reduced_basis_normal_form(basis, row):
    """Reference normal form: full rational reduction against the reduced
    monic basis, a second Groebner basis of the same submodule."""
    order = basis.ring.order()
    elements = [(v, None, _ref_lead(v, order)) for v in basis.groebner]
    rem = _ref_reduce(_row_to_vec(row), None, elements, order)
    return _vec_to_row(rem, basis.rank, basis.ring.variables)


def _random_entry(rng, ring):
    terms = {}
    for _ in range(rng.randrange(4)):
        exps = tuple(rng.randrange(4) for _ in ring.variables)
        terms[exps] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    return Polynomial(ring.variables, terms)


_NF_MODULES = {
    "omega2-cusp": lambda: omega_presentation(CUSP, 2),
    "jets-omega1-cusp": lambda: jq_presentation(omega_presentation(CUSP, 1), 1),
    "omega2-ex316": lambda: omega_presentation(EX316, 2),
}


@pytest.mark.parametrize("name", list(_NF_MODULES))
def test_run_normal_form_matches_the_reduced_basis(name):
    m = _NF_MODULES[name]()
    basis = relation_basis(m)
    rng = random.Random(4100 + len(name))
    zero = m.ring.zero()
    members = 0
    for _ in range(30):
        row = tuple(_random_entry(rng, m.ring) for _ in range(m.ngens))
        if rng.random() < 0.5:
            # an R-combination of the relations, plus the noise half the time
            if rng.random() < 0.5:
                row = (zero,) * m.ngens
            for rel in m.relations:
                c = _random_entry(rng, m.ring)
                row = tuple(a + c * b for a, b in zip(row, rel))
        got = basis.normal_form(row)
        assert got == _reduced_basis_normal_form(basis, row)
        members += all(e.is_zero() for e in got)
    assert 0 < members < 30


def _small_entry(rng, ring):
    """At most two terms of degree below 3 in each variable: small enough
    that tracked runs over ex316 stay quick."""
    terms = {}
    for _ in range(rng.randrange(3)):
        exps = tuple(rng.randrange(3) for _ in ring.variables)
        terms[exps] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    return Polynomial(ring.variables, terms)


def _random_rows(rng, ring, count, rank):
    rows = []
    while len(rows) < count:
        row = tuple(_small_entry(rng, ring) for _ in range(rank))
        if not all(e.is_zero() for e in row):
            rows.append(row)
    return rows


def _ref_normal_form(run, row):
    rem = _ref_reduce(_row_to_vec(row), None, run.elements, run.order)
    return _vec_to_row(rem, len(row), row[0].variables)


def _with_tags(vec, expr, rank):
    """The reference's vec with its tracked expression at tag positions."""
    out = dict(vec)
    out.update({(rank + i, exps): c for (i, exps), c in expr.items()})
    return out


def _is_positive_multiple(got, want):
    """got == r * want for one rational r > 0, on the same support."""
    if got.keys() != want.keys():
        return False
    ratios = {Fraction(got[t]) / want[t] for t in want}
    return len(ratios) == 1 and ratios.pop() > 0


@pytest.mark.parametrize("ring", [PLANE, CUSP, EX316],
                         ids=["plane", "cusp", "ex316"])
def test_engine_matches_the_rational_reference(ring):
    """Seeded rows with fractional coefficients and negative leads: the
    fraction-free engine keeps the same working elements (in a tagged run,
    up to a positive scale, since the tags share the primitive scaling),
    syzygies, reduced basis, normal forms and solutions as the rational
    reference engine with expression tracking on the rows alone.  Tagged
    runs stay in int arithmetic throughout."""
    rng = random.Random(8200 + len(ring.ideal))
    order = ring.order()
    solved = 0
    for _ in range(3):
        rows = _random_rows(rng, ring, 3, 2)
        items = [_row_to_vec(r) for r in rows + _ideal_unit_rows(2, ring)]
        tracked = _RefRun(items, order, 2, ntracked=len(rows))
        run = _ring_run(rows, 2, ring)
        assert len(run.elements) == len(tracked.elements)
        for e, (vec, expr, lead) in zip(run.elements, tracked.elements):
            assert _is_positive_multiple(e.vec, _with_tags(vec, expr, 2))
            assert e.lead == lead
        assert all(type(c) is int
                   for part in [e.vec for e in run.elements] + run.syzygies
                   for c in part.values())
        assert run.syzygies == tracked.syzygies
        assert (syzygies_over_ring(rows, 2, ring)
                == _ref_syzygy_rows(tracked.syzygies, len(rows), ring))

        plain = _RefRun(items, order, 2, ntracked=0)
        untagged = _ring_run((), 2, ring, base=rows)
        assert [e.vec for e in untagged.elements] == [e[0] for e in plain.elements]
        basis = submodule_over_ring(rows, 2, ring)
        assert basis.groebner == plain.reduced_basis()
        for _ in range(6):
            row = tuple(_small_entry(rng, ring) for _ in range(2))
            assert basis.normal_form(row) == _ref_normal_form(plain, row)

        for _ in range(3):
            b = tuple(_small_entry(rng, ring) for _ in range(2))
            if rng.random() < 0.5:
                for row in rows:
                    c = _small_entry(rng, ring)
                    b = tuple(x + c * y for x, y in zip(b, row))
            got = solve_linear(rows, b, ring)
            assert got == _ref_solve(rows, b, ring)
            solved += isinstance(got, Solution)
    assert 0 < solved < 9


@pytest.mark.parametrize("ring", [PLANE, CUSP, EX316],
                         ids=["plane", "cusp", "ex316"])
def test_pair_criteria_keep_what_the_engine_promises(ring, monkeypatch):
    """Against the reference that reduces every pair, the engine gives the
    same reduced basis, normal forms, syzygy module (by mutual containment)
    and NoSolution residuals, and each Solution solves the system.  On
    ex316 the engine's tagged runs reduce fewer pairs and record fewer
    syzygies, so criteria turned off show."""
    rng = random.Random(8200 + len(ring.ideal))
    order = ring.order()
    calls = []
    reduce = groebner._reduce
    monkeypatch.setattr(groebner, "_reduce",
                        lambda *args: calls.append(1) or reduce(*args))
    pairs = {"engine": 0, "free": 0}
    syzygies = {"engine": 0, "free": 0}
    for _ in range(3):
        rows = _random_rows(rng, ring, 3, 2)
        t = len(rows)
        items = [_row_to_vec(r) for r in rows + _ideal_unit_rows(2, ring)]
        free = _RefRun(items, order, 2, ntracked=t, criteria=False)
        del calls[:]
        run = _ring_run(rows, 2, ring)
        pairs["engine"] += len(calls)
        pairs["free"] += free.reduced
        syzygies["engine"] += len(run.syzygies)
        syzygies["free"] += len(free.syzygies)
        got = syzygies_over_ring(rows, 2, ring)
        want = _ref_syzygy_rows(free.syzygies, t, ring)
        for gens, others in ((got, want), (want, got)):
            span = submodule_over_ring(gens, t, ring)
            assert all(span.contains(s) for s in others)

        plain = _RefRun(items, order, 2, ntracked=0, criteria=False)
        basis = submodule_over_ring(rows, 2, ring)
        assert basis.groebner == plain.reduced_basis()
        for _ in range(6):
            row = tuple(_small_entry(rng, ring) for _ in range(2))
            assert basis.normal_form(row) == _ref_normal_form(plain, row)

        for _ in range(3):
            b = tuple(_small_entry(rng, ring) for _ in range(2))
            if rng.random() < 0.5:
                for row in rows:
                    c = _small_entry(rng, ring)
                    b = tuple(x + c * y for x, y in zip(b, row))
            got = solve_linear(rows, b, ring)
            want = _ref_solve(rows, b, ring, criteria=False)
            assert type(got) is type(want)
            if isinstance(got, NoSolution):
                assert got == want
                continue
            for k in range(2):
                combo = -b[k]
                for x, row in zip(got.column, rows):
                    combo = combo + x * row[k]
                assert _ref_ring_nf(combo, ring).is_zero()
    if ring is EX316:
        assert pairs["engine"] < pairs["free"]
        assert syzygies["engine"] < syzygies["free"]


def _monomial_rows(rng, ring, count, rank):
    """Nonzero rows whose entries are 0 or +-x^a with exponents below 3."""
    rows = []
    while len(rows) < count:
        row = tuple(Polynomial(ring.variables, {
            tuple(rng.randrange(3) for _ in ring.variables): rng.choice((-1, 1))
            for _ in range(rng.randrange(2))}) for _ in range(rank))
        if not all(e.is_zero() for e in row):
            rows.append(row)
    return rows


@pytest.mark.parametrize("ring, draw", [
    pytest.param(PLANE, _monomial_rows, id="plane"),
    pytest.param(CUSP, _monomial_rows, id="cusp"),
    pytest.param(EX316, _monomial_rows, id="ex316"),
    pytest.param(EX316, _random_rows, id="ex316-two-terms"),
])
def test_base_agrees_with_appended_inputs_cut_off(ring, draw):
    """Working modulo span(base) agrees with appending the base rows as
    tagged inputs and cutting their coefficients off: the syzygies
    generate the same submodule, and the solutions are equal.  The
    two-term rows over ex316 give syzygy modules whose bases are quick
    only with the pair criteria."""
    rng = random.Random(8500 + len(ring.ideal))
    solved = 0
    for _ in range(3):
        rows = draw(rng, ring, 3, 2)
        base = draw(rng, ring, 2, 2)
        t = len(rows)
        got = syzygies_over_ring(rows, 2, ring, base)
        cut = [s[:t] for s in syzygies_over_ring(rows + base, 2, ring)]
        for gens, others in ((got, cut), (cut, got)):
            span = submodule_over_ring(gens, t, ring)
            assert all(span.contains(s) for s in others)
        for _ in range(3):
            b = draw(rng, ring, 1, 2)[0]
            if rng.random() < 0.5:
                for row in rows + base:
                    c = draw(rng, ring, 1, 1)[0][0]
                    b = tuple(x + c * y for x, y in zip(b, row))
            out = solve_linear(rows, b, ring, base)
            old = solve_linear(rows + base, b, ring)
            if isinstance(old, Solution):
                old = Solution(old.column[:t])
            assert out == old
            solved += isinstance(out, Solution)
    assert 0 < solved < 9


@pytest.mark.parametrize("ring", [CUSP, EX316], ids=["cusp", "ex316"])
def test_normal_form_shortcut_matches_the_reference(ring):
    # a value with no term divisible by a lead comes back as it is
    rng = random.Random(8400 + len(ring.variables))
    zero = ring.zero()
    assert nf_poly(zero, ring) is zero
    returned_as_is = 0
    for _ in range(60):
        poly = _random_entry(rng, ring)
        got = nf_poly(poly, ring)
        assert got == _ref_ring_nf(poly, ring)
        returned_as_is += got is poly
    assert 0 < returned_as_is < 60


def test_solve_linear_polynomial_identity():
    sol = solve_linear([(p("x"),), (p("y"),)], [p("x^2 + y^2")], PLANE)
    assert isinstance(sol, Solution)
    a, b = sol.column
    assert (a * p("x") + b * p("y") - p("x^2 + y^2")).is_zero()


def test_solve_linear_uses_the_ideal():
    # x * a = y^2 has the solution a = x^2 because y^2 = x^3 in the cusp ring
    sol = solve_linear([(p("x", CUSP),)], [p("y^2", CUSP)], CUSP)
    assert isinstance(sol, Solution)
    residue = nf_poly(sol.column[0] * p("x", CUSP) - p("y^2", CUSP), CUSP)
    assert residue.is_zero()


def test_solve_linear_reports_no_solution():
    out = solve_linear([(p("x"),)], [p("y")], PLANE)
    assert isinstance(out, NoSolution)
    assert not out.residual[0].is_zero()
    assert out == NoSolution(out.residual) != Solution(out.residual)


def test_solve_linear_multiple_rows():
    columns = [(p("x"), p("0"), p("1")), (p("0"), p("y"), p("1"))]
    b = [p("x^2"), p("y^2"), p("x + y")]
    sol = solve_linear(columns, b, PLANE)
    assert isinstance(sol, Solution)
    for i, rhs in enumerate(b):
        acc = columns[0][i] * sol.column[0] + columns[1][i] * sol.column[1]
        assert (acc - rhs).is_zero()


@pytest.mark.parametrize("ring", [PLANE, CUSP], ids=["plane", "cusp"])
def test_zero_rows_and_columns_are_tag_only_inputs(ring):
    # a zero input is all tag: it is the unit syzygy at its index and never
    # enters the basis, so it meets no other syzygy and no solution
    x, y, zero, one = (p(t, ring) for t in ("x", "y", "0", "1"))
    syz = syzygies_over_ring([(x, zero), (zero, zero), (y, zero)], 2, ring)
    assert [r for r in syz if not r[1].is_zero()] == [(zero, one, zero)]
    assert (y, zero, -x) in syz
    for s in syz:
        assert nf_poly(s[0] * x + s[2] * y, ring).is_zero()

    columns = [(x, zero), (zero, zero), (y, zero)]
    b = [x * x + y * y, zero]
    sol = solve_linear(columns, b, ring)
    assert isinstance(sol, Solution)
    assert sol.column[1].is_zero()
    for i, rhs in enumerate(b):
        combo = sum((col[i] * c for col, c in zip(columns, sol.column)), -rhs)
        assert nf_poly(combo, ring).is_zero()
    out = solve_linear(columns, [x, one], ring)
    assert out == NoSolution((zero, one))


def test_zero_rows_over_a_ring_without_ideal():
    # the tag monomial's length comes from the ring, not from an input term
    zero = Polynomial.zero(PLANE.variables)
    assert syzygies_over_ring([(zero,)], 1, PLANE) == [(p("1"),)]
    assert syzygies_over_ring([(zero, zero), (p("x"), zero)], 2, PLANE) == [
        (p("1"), zero)]


def test_krull_dimension():
    assert krull_dimension(make_ringspec(("x", "y", "z"))) == 3
    assert krull_dimension(CUSP) == 1
    assert krull_dimension(EX316) == 1


def test_zero_rows_add_nothing_to_a_span():
    x, zero = p("x"), p("0")
    assert submodule_over_ring([(zero, zero)], 2, PLANE).groebner_rows() == []
    basis = submodule_over_ring([(zero, zero), (x, zero), (zero, zero)], 2,
                                PLANE)
    assert basis.groebner_rows() == [(x, zero)]
    assert not basis.contains((zero, p("1")))


def test_rows_over_another_variable_list_are_rejected():
    # x*z over Q[x, y, z] is no element of PLANE = Q[x, y]; zipping its
    # exponent vectors with PLANE's gave silently wrong answers
    xz = parse_poly("x*z", make_ringspec(("x", "y", "z")))
    x, y = p("x"), p("y")
    calls = [
        lambda: syzygies_over_ring([(xz,), (y,)], 1, PLANE),
        lambda: submodule_over_ring([(xz,)], 1, PLANE).contains((x,)),
        lambda: submodule_over_ring([(x,)], 1, PLANE).normal_form((xz,)),
        lambda: solve_linear([(xz,)], (x,), PLANE),
        lambda: solve_linear([(x,)], (xz,), PLANE),
        lambda: prune_rows([(xz,)], 1, PLANE),
        lambda: prune_rows([(x,)], 1, PLANE, base=[(xz,)]),
        # and rows of the wrong length
        lambda: submodule_over_ring([(x, y)], 1, PLANE).contains((x,)),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_nf_poly_checks_the_variables_on_every_ring():
    # a polynomial over another variable list is no element of R, whether
    # or not R has an ideal, and even when it is zero
    a = Polynomial.variable(("a", "b"), "a")
    for ring in (PLANE, CUSP):
        for poly in (a, Polynomial.zero(("a", "b"))):
            with pytest.raises(ValueError):
                nf_poly(poly, ring)


def _principal_rings(rng, count):
    rings = []
    while len(rings) < count:
        f = _random_entry(rng, PLANE)
        if not f.is_zero() and not f.is_constant():
            rings.append(make_ringspec(PLANE.variables, ideal=(f,)))
    return rings


def test_nf_poly_matches_the_reduced_basis_of_the_reference():
    """nf_poly against a full rational reduction by the reference engine's
    reduced monic basis of I, zero included."""
    rng = random.Random(8500)
    for ring in [CUSP, EX316] + _principal_rings(rng, 6):
        order = ring.order()
        ref = _RefRun([_row_to_vec((f,)) for f in ring.ideal], order, 1,
                      ntracked=0)
        basis = [(v, None, _ref_lead(v, order)) for v in ref.reduced_basis()]
        polys = [ring.zero()] + [_random_entry(rng, ring) for _ in range(25)]
        reduced = 0
        for poly in polys:
            rem = _ref_reduce(_row_to_vec((poly,)), None, basis, order)
            got = nf_poly(poly, ring)
            assert got == _vec_to_row(rem, 1, ring.variables)[0]
            assert all(type(c) is int or c.denominator > 1
                       for c in got.terms.values())
            reduced += got != poly
        assert 0 < reduced < len(polys)


def test_equal_spans_share_one_basis(monkeypatch):
    x, y, zero = p("x"), p("y"), p("0")
    rows = [(x, y), (y, zero)]
    basis = submodule_over_ring(rows, 2, PLANE)
    assert submodule_over_ring([list(r) for r in rows], 2, PLANE) is basis
    assert submodule_over_ring(tuple(rows), 2, PLANE) is basis
    assert submodule_over_ring(rows, 2, CUSP) is not basis
    assert submodule_over_ring(rows[:1], 2, PLANE) is not basis
    assert submodule_over_ring([(x,), (y,)], 1, PLANE) is not basis
    maxsize = groebner._span_basis.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 16

    # a relation-set case builds its span once: run it once to warm the
    # ring's own basis and the expansion caches, then twice with the memo
    # cleared
    from kahlerlab.properties import run_relation_set_equivalence
    run_relation_set_equivalence(random.Random(3), 1)
    groebner._span_basis.cache_clear()
    runs = []
    real = groebner._ring_run
    monkeypatch.setattr(groebner, "_ring_run",
                        lambda *args, **kw: runs.append(args) or real(*args, **kw))
    for _ in range(2):
        assert run_relation_set_equivalence(random.Random(3), 1) == 1
    assert len(runs) == 1
