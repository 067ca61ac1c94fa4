"""Tests for the Groebner/normal-form/syzygy engine."""

import heapq
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from kahlerlab.diffmod import (DeltaBasis, _omega_rows, jq_presentation,
                               omega_presentation, theta_to_first)
from kahlerlab.groebner import (
    NoSolution,
    Solution,
    SubmoduleBasis,
    _buchberger,
    _ideal_unit_rows,
    _reduced_basis,
    _ring_run,
    _row_to_vec,
    _vec_to_row,
    groebner_basis,
    krull_dimension,
    nf_poly,
    prune_rows,
    solve_linear,
    submodule_over_ring,
    syzygies_over_ring,
)
from kahlerlab.parser import make_ringspec, parse_poly, parse_ringspec
from kahlerlab.poly import MonomialOrder, Polynomial
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
    basis = groebner_basis([CUSP.ideal[0]], CUSP.order())
    rows = basis.groebner_rows()
    assert len(rows) == 1
    # monic with lead y^2 under the weighted order
    assert rows[0][0] == p("y^2 - x^3", CUSP)
    assert basis.normal_form(p("x^2*y^2", CUSP)) == p("x^5", CUSP)
    assert basis.normal_form(p("8*x^3 - y^2", CUSP)) == p("7*x^3", CUSP)
    assert basis.contains(p("y^2 - x^3", CUSP))
    assert not basis.contains(p("y", CUSP))


def test_ex316_ideal_is_self_groebner():
    basis = groebner_basis(list(EX316.ideal), EX316.order())
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
    basis = groebner_basis([p("x^2 - y"), p("x*y - 1")])
    again = groebner_basis([row[0] for row in basis.groebner_rows()])
    assert [r[0] for r in basis.groebner_rows()] == \
        [r[0] for r in again.groebner_rows()]


def test_syzygies_of_two_variables():
    assert syzygies_over_ring([(p("x"),), (p("y"),)], 1, PLANE) == \
        [(p("y"), p("-x"))]


def test_syzygies_contain_obvious_combination():
    syz = syzygies_over_ring([(p("x"),), (p("y"),), (p("x + y"),)], 1, PLANE)
    want = (p("1"), p("1"), p("-1"))
    assert SubmoduleBasis(syz, PLANE.order()).contains(want)
    # every generator really is a syzygy (checked again here, independently)
    for row in syz:
        combo = row[0] * p("x") + row[1] * p("y") + row[2] * p("x + y")
        assert combo.is_zero()


def test_module_normal_form_rank_two():
    e1 = (p("1"), p("0"))
    gens = [(p("x"), p("y")), (p("0"), p("x - y"))]
    basis = SubmoduleBasis(gens, PLANE.order())
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
    db = DeltaBasis(ring, q)
    rows = _omega_rows(ring, q, db)
    rank = len(db.monomials)
    assert prune_rows(rows, rank, ring) == _rebuild_prune(rows, rank, ring)


def test_prune_rows_matches_rebuild_on_kernel_rows_with_base():
    theta = theta_to_first(CUSP, 2)
    items = list(theta.columns) + list(theta.target.relations)
    raw = [row[:theta.source.ngens]
           for row in syzygies_over_ring(items, theta.target.ngens, CUSP)]
    base = theta.source.relations
    kept = prune_rows(raw, theta.source.ngens, CUSP, base=base)
    assert kept == _rebuild_prune(raw, theta.source.ngens, CUSP, base=base)
    assert 0 < len(kept) < len(raw)


def test_absorb_extends_to_the_reduced_basis_of_all_rows():
    db = DeltaBasis(EX316, 2)
    rank = len(db.monomials)
    seeds = _ideal_unit_rows(rank, EX316)
    run = _buchberger([_row_to_vec(r) for r in seeds], EX316.order(), rank,
                      tagged=False, nvars=len(EX316.variables))
    rows = _omega_rows(EX316, 2, db)
    absorbed = [run.absorb(_row_to_vec(r)) for r in rows + rows[:1]]
    assert absorbed[0] and not absorbed[-1]
    assert (_reduced_basis(run.elements, EX316.order())
            == SubmoduleBasis(rows + seeds, EX316.order()).groebner)


# ---------------------------------------------------------------------------
# A rational reference engine: Fraction coefficients, each lead found by a
# linear scan under `MonomialOrder.key`, no heap and no low keys.  It is the
# engine's reduction loop and pair loop as they stood before the engine went
# fraction-free over the integers, kept here as an independent model for the
# fast path to agree with.


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


class _RefRun:
    """A completed rational Buchberger run with the engine's pair order."""

    def __init__(self, inputs, order, rank, track):
        self.order, self.rank, self.track = order, rank, track
        self.elements = []
        self.pairs = []
        self.syzygies = []
        zero = (0,) * next(len(e) for vec in inputs for (_, e) in vec)
        for i, vec in enumerate(inputs):
            expr = {(i, zero): Fraction(1)} if track else None
            if not vec:
                if track:
                    self.syzygies.append(expr)
                continue
            self.add(dict(vec), expr)
        while self.pairs:
            _, _, i, j = heapq.heappop(self.pairs)
            (vi, ei, li), (vj, ej, lj) = self.elements[i], self.elements[j]
            top = tuple(max(a, b) for a, b in zip(li[1], lj[1]))
            si = tuple(a - b for a, b in zip(top, li[1]))
            sj = tuple(a - b for a, b in zip(top, lj[1]))
            vec, expr = {}, ({} if track else None)
            for part, src_i, src_j in ((vec, vi, vj), (expr, ei, ej)):
                if part is not None:
                    _ref_submul(part, -vj[lj], si, src_i)
                    _ref_submul(part, vi[li], sj, src_j)
            remainder = _ref_reduce(vec, expr, self.elements, order)
            if remainder:
                self.add(remainder, expr)
            elif track and expr:
                _ref_primitive(expr, None, order)
                self.syzygies.append(expr)

    def add(self, vec, expr):
        _ref_primitive(vec, expr, self.order)
        lead = _ref_lead(vec, self.order)
        idx = len(self.elements)
        for jdx, (_, _, other) in enumerate(self.elements):
            if other[0] != lead[0]:
                continue
            if (not self.track and self.rank == 1
                    and all(a == 0 or b == 0 for a, b in zip(other[1], lead[1]))):
                continue
            top = tuple(max(a, b) for a, b in zip(other[1], lead[1]))
            heapq.heappush(self.pairs, (self.order.key(top), lead[0], jdx, idx))
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
                  track=False)
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


def _ref_solve(A, b, ring):
    columns = [tuple(row[j] for row in A) for j in range(len(A[0]))]
    items = columns + _ideal_unit_rows(len(A), ring)
    run = _RefRun([_row_to_vec(r) for r in items], ring.order(), len(A),
                  track=True)
    acc = {}
    rem = _ref_reduce(_row_to_vec(tuple(b)), acc, run.elements, ring.order())
    if rem:
        return NoSolution(_vec_to_row(rem, len(A), ring.variables))
    tracked = _vec_to_row(acc, len(columns), ring.variables)
    return Solution(tuple(_ref_ring_nf(-e, ring) for e in tracked))


def _reduced_basis_normal_form(basis, row):
    """Reference normal form: full rational reduction against the reduced
    monic basis, a second Groebner basis of the same submodule."""
    elements = [(v, None, _ref_lead(v, basis.order)) for v in basis.groebner]
    rem = _ref_reduce(_row_to_vec(row), None, elements, basis.order)
    return _vec_to_row(rem, basis.rank, basis.variables)


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
    reference engine with expression tracking.  Tagged runs stay in int
    arithmetic throughout."""
    rng = random.Random(8200 + len(ring.ideal))
    order = ring.order()
    solved = 0
    for _ in range(3):
        rows = _random_rows(rng, ring, 3, 2)
        items = [_row_to_vec(r) for r in rows + _ideal_unit_rows(2, ring)]
        tracked = _RefRun(items, order, 2, track=True)
        run = _ring_run(rows, 2, ring, tagged=True)
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

        plain = _RefRun(items, order, 2, track=False)
        untagged = _ring_run(rows, 2, ring, tagged=False)
        assert [e.vec for e in untagged.elements] == [e[0] for e in plain.elements]
        basis = submodule_over_ring(rows, 2, ring)
        assert basis.groebner == plain.reduced_basis()
        for _ in range(6):
            row = tuple(_small_entry(rng, ring) for _ in range(2))
            assert basis.normal_form(row) == _ref_normal_form(plain, row)

        A = [[row[i] for row in rows] for i in range(2)]
        for _ in range(3):
            b = tuple(_small_entry(rng, ring) for _ in range(2))
            if rng.random() < 0.5:
                for row in rows:
                    c = _small_entry(rng, ring)
                    b = tuple(x + c * y for x, y in zip(b, row))
            got = solve_linear(A, b, ring)
            assert got == _ref_solve(A, b, ring)
            solved += isinstance(got, Solution)
    assert 0 < solved < 9


def test_engine_matches_the_rational_reference_under_lex():
    lex = MonomialOrder("lex")
    rng = random.Random(8300)
    for _ in range(3):
        rows = _random_rows(rng, PLANE, 3, 2)
        basis = SubmoduleBasis(rows, lex)
        ref = _RefRun([_row_to_vec(r) for r in rows], lex, 2, track=False)
        assert basis.groebner == ref.reduced_basis()
        for _ in range(6):
            row = tuple(_small_entry(rng, PLANE) for _ in range(2))
            assert basis.normal_form(row) == _ref_normal_form(ref, row)


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
    sol = solve_linear([[p("x"), p("y")]], [p("x^2 + y^2")], PLANE)
    assert isinstance(sol, Solution)
    a, b = sol.column
    assert (a * p("x") + b * p("y") - p("x^2 + y^2")).is_zero()


def test_solve_linear_uses_the_ideal():
    # x * a = y^2 has the solution a = x^2 because y^2 = x^3 in the cusp ring
    sol = solve_linear([[p("x", CUSP)]], [p("y^2", CUSP)], CUSP)
    assert isinstance(sol, Solution)
    residue = nf_poly(sol.column[0] * p("x", CUSP) - p("y^2", CUSP), CUSP)
    assert residue.is_zero()


def test_solve_linear_reports_no_solution():
    out = solve_linear([[p("x")]], [p("y")], PLANE)
    assert isinstance(out, NoSolution)
    assert not out.residual[0].is_zero()


def test_solve_linear_multiple_rows():
    A = [[p("x"), p("0")], [p("0"), p("y")], [p("1"), p("1")]]
    b = [p("x^2"), p("y^2"), p("x + y")]
    sol = solve_linear(A, b, PLANE)
    assert isinstance(sol, Solution)
    for row, rhs in zip(A, b):
        acc = row[0] * sol.column[0] + row[1] * sol.column[1] - rhs
        assert acc.is_zero()


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

    A = [[x, zero, y], [zero, zero, zero]]
    b = [x * x + y * y, zero]
    sol = solve_linear(A, b, ring)
    assert isinstance(sol, Solution)
    assert sol.column[1].is_zero()
    for row, rhs in zip(A, b):
        combo = sum((a * c for a, c in zip(row, sol.column)), -rhs)
        assert nf_poly(combo, ring).is_zero()
    out = solve_linear(A, [x, one], ring)
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


def test_zero_generators_rejected():
    with pytest.raises(ValueError):
        SubmoduleBasis([(Polynomial.zero(("x", "y")),)], PLANE.order())
