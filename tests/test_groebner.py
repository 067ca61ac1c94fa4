"""Tests for the Groebner/normal-form/syzygy engine."""

import random
from fractions import Fraction

import pytest

from kahlerlab.diffmod import (DeltaBasis, _omega_rows, jq_presentation,
                               omega_presentation, theta_to_first)
from kahlerlab.groebner import (
    NoSolution,
    Solution,
    SubmoduleBasis,
    _buchberger,
    _Elt,
    _ideal_unit_rows,
    _reduce,
    _reduced_basis,
    _row_to_vec,
    _vec_to_row,
    groebner_basis,
    krull_dimension,
    nf_poly,
    normal_form,
    prune_rows,
    solve_linear,
    submodule_over_ring,
    syzygies,
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
    assert normal_form(p("x^2*y^2", CUSP), basis) == p("x^5", CUSP)
    assert normal_form(p("8*x^3 - y^2", CUSP), basis) == p("7*x^3", CUSP)
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
    basis = groebner_basis([p("x"), p("y")])
    syz = syzygies(basis)
    assert syz.rank == 2
    assert len(syz.generators) == 1
    assert syz.generators[0] == (p("y"), p("-x"))


def test_syzygies_contain_obvious_combination():
    basis = groebner_basis([p("x"), p("y"), p("x + y")])
    syz = syzygies(basis)
    want = (p("1"), p("1"), p("-1"))
    assert syz.contains(want)
    # every generator really is a syzygy (checked again here, independently)
    for row in syz.generators:
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
                      track=False)
    rows = _omega_rows(EX316, 2, db)
    absorbed = [run.absorb(_row_to_vec(r)) for r in rows + rows[:1]]
    assert absorbed[0] and not absorbed[-1]
    assert (_reduced_basis(run.elements, EX316.order())
            == SubmoduleBasis(rows + seeds, EX316.order()).groebner)


def _reduced_basis_normal_form(basis, row):
    """Reference normal form: full reduction against the reduced monic
    basis, a second Groebner basis of the same submodule."""
    elements = [_Elt(dict(v), None, basis.order) for v in basis.groebner]
    by_pos = {}
    for i, e in enumerate(elements):
        by_pos.setdefault(e.lead[0], []).append(i)
    rem = _reduce(_row_to_vec(row), None, elements, by_pos, basis.order)
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


def test_krull_dimension():
    assert krull_dimension(make_ringspec(("x", "y", "z"))) == 3
    assert krull_dimension(CUSP) == 1
    assert krull_dimension(EX316) == 1


def test_zero_generators_rejected():
    with pytest.raises(ValueError):
        SubmoduleBasis([(Polynomial.zero(("x", "y")),)], PLANE.order())
