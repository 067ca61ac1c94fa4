"""Tests for finitely presented modules and maps between them."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from kahlerlab.diffmod import jq_presentation, omega_presentation
from kahlerlab.parser import (
    PlainLabel,
    SymLabel,
    make_ringspec,
    parse_poly,
    parse_ringspec,
)
from kahlerlab.presentations import (
    ModuleMap,
    Presentation,
    apply_map,
    check_exact,
    check_well_defined,
    cokernel,
    compose,
    direct_sum,
    element_is_zero,
    free_presentation,
    identity_map,
    kernel,
    parse_presentation,
    presentation_is_zero,
    rank,
    ring_as_module,
    symmetric_square,
    verify_splitting,
    zero_map,
    zero_presentation,
)
from kahlerlab.resolution import _minor, minimal_presentation, minimal_resolution

PLANE = make_ringspec(("x", "y"))
CUSP = parse_ringspec(
    "vars = [x, y]; weights = [2, 3]; ideal = [y^2 - x^3]; assume_domain = true;")
EX316 = parse_ringspec(
    "vars = [x, y, z]; weights = [4, 5, 6]; "
    "ideal = [y^2 - x*z, z^2 - x^3]; assume_domain = true;")


def p(text, ring=PLANE):
    return parse_poly(text, ring)


def gens(*names):
    return tuple(PlainLabel(n) for n in names)


def test_free_module_basics():
    m = free_presentation(PLANE, gens("a", "b"))
    assert m.ngens == 2 and m.relations == ()
    assert rank(m) == 2
    assert minimal_presentation(m).ngens == 2
    assert not presentation_is_zero(m)
    assert presentation_is_zero(zero_presentation(PLANE))


def test_ring_as_module():
    r = ring_as_module(CUSP)
    assert r.ngens == 1
    assert r.generators[0].render() == "e"
    # the ideal acts invisibly: y^2 - x^3 kills the generator
    assert element_is_zero(r, (p("y^2 - x^3", CUSP),))
    assert not element_is_zero(r, (p("y", CUSP),))


def test_kernel_of_multiplication_map():
    # R^2 -> R, (a, b) |-> a*x + b*y; kernel generated by (y, -x), free
    src = free_presentation(PLANE, gens("a", "b"))
    tgt = ring_as_module(PLANE)
    f = ModuleMap(src, tgt, ((p("x"),), (p("y"),)))
    k, incl = kernel(f)
    assert k.ngens == 1
    assert incl.columns[0] == (p("y"), p("-x"))
    assert k.relations == ()
    # kernel elements map to zero
    assert apply_map(f, incl.columns[0])[0].is_zero()


def test_kernel_of_injective_map_is_zero():
    src = free_presentation(PLANE, gens("a",))
    tgt = ring_as_module(PLANE)
    f = ModuleMap(src, tgt, ((p("x"),),))
    k, _ = kernel(f)
    assert k.ngens == 0


def test_cokernel_and_zero_detection():
    src = free_presentation(PLANE, gens("a", "b"))
    tgt = free_presentation(PLANE, gens("u", "v"))
    f = ModuleMap(src, tgt, ((p("1"), p("0")), (p("x"), p("2"))))
    cok = cokernel(f)
    assert presentation_is_zero(cok)
    g = ModuleMap(src, tgt, ((p("x"), p("0")), (p("0"), p("y"))))
    assert not presentation_is_zero(cokernel(g))


def test_well_definedness_detects_bad_map():
    # M = R/(x); sending the generator to 1 in R is not well defined
    m = Presentation(PLANE, gens("g"), ((p("x"),),))
    bad = ModuleMap(m, ring_as_module(PLANE), ((p("1"),),))
    assert not check_well_defined(bad)
    good = ModuleMap(m, Presentation(PLANE, gens("h"), ((p("x"),),)), ((p("1"),),))
    assert check_well_defined(good)


def test_koszul_complex_is_exact():
    # 0 -> R -(y,-x)-> R^2 -(x,y)-> R: exact at R^2 (not at the right end)
    left = free_presentation(PLANE, gens("w",))
    mid = free_presentation(PLANE, gens("a", "b"))
    right = ring_as_module(PLANE)
    f = ModuleMap(left, mid, ((p("y"), p("-x")),))
    g = ModuleMap(mid, right, ((p("x"),), (p("y"),)))
    z = zero_presentation(PLANE)
    verdicts = check_exact([zero_map(z, left), f, g])
    assert verdicts == [True, True]


def test_check_exact_with_a_zero_map():
    # ker(id) = 0 = im(0): the zero column adds nothing to the image
    source = free_presentation(CUSP, gens("w",))
    omega = omega_presentation(CUSP, 1)
    assert check_exact([zero_map(source, omega), identity_map(omega)]) == [True]


def test_check_exact_flags_failure():
    left = free_presentation(PLANE, gens("w",))
    mid = free_presentation(PLANE, gens("a", "b"))
    right = ring_as_module(PLANE)
    f = ModuleMap(left, mid, ((p("y^2"), p("-x*y")),))  # image strictly smaller
    g = ModuleMap(mid, right, ((p("x"),), (p("y"),)))
    assert check_exact([f, g]) == [False]


def test_compose_and_identity():
    m = free_presentation(PLANE, gens("a", "b"))
    f = identity_map(m)
    assert compose(f, f).columns == f.columns
    z = zero_map(m, m)
    assert all(all(c.is_zero() for c in col) for col in compose(f, z).columns)


def test_verify_splitting_identity():
    m = free_presentation(PLANE, gens("a", "b"))
    assert verify_splitting(identity_map(m), identity_map(m))
    doubled = ModuleMap(m, m, tuple(
        tuple(c + c for c in col) for col in identity_map(m).columns))
    assert verify_splitting(identity_map(m), doubled, Fraction(1, 2))
    assert not verify_splitting(identity_map(m), doubled, Fraction(1, 3))


def test_direct_sum_shapes():
    a = Presentation(PLANE, gens("a",), ((p("x"),),))
    b = Presentation(PLANE, gens("b", "c"), ((p("y"), p("0")),))
    total, ia, ib = direct_sum(a, b)
    assert total.ngens == 3
    assert len(total.relations) == 2
    assert total.relations[0] == (p("x"), p("0"), p("0"))
    assert total.relations[1] == (p("0"), p("y"), p("0"))
    assert apply_map(ia, a.unit_row(0)) == (p("1"), p("0"), p("0"))
    assert apply_map(ib, b.unit_row(1)) == (p("0"), p("0"), p("1"))


def test_symmetric_square_of_free_module():
    m = free_presentation(PLANE, gens("a", "b"))
    s = symmetric_square(m)
    assert [g.render() for g in s.generators] == ["s(a,a)", "s(a,b)", "s(b,b)"]
    assert s.relations == ()


def test_symmetric_square_relations():
    m = Presentation(PLANE, gens("a", "b"), ((p("x"), p("y")),))
    s = symmetric_square(m)
    assert s.ngens == 3
    # x*s(a,a) + y*s(a,b) and x*s(a,b) + y*s(b,b)
    assert (p("x"), p("y"), p("0")) in s.relations
    assert (p("0"), p("x"), p("y")) in s.relations
    assert len(s.relations) == 2


def test_rank_with_relations():
    m = Presentation(PLANE, gens("a", "b"), ((p("x"), p("y")),))
    assert rank(m) == 1
    n = Presentation(PLANE, gens("a", "b"),
                     ((p("x"), p("0")), (p("0"), p("y"))))
    assert rank(n) == 0
    torsion = Presentation(CUSP, gens("t",), ((p("x", CUSP),),))
    assert rank(torsion) == 0


def _minor_rank(m):
    """Reference rank: ngens minus the size of the largest minor of the
    relation matrix that is nonzero in R, searched from the largest down."""
    rows, cache = m.relations, {}
    for size in range(min(len(rows), m.ngens), 0, -1):
        for ridx in combinations(range(len(rows)), size):
            for cidx in combinations(range(m.ngens), size):
                if not _minor(rows, ridx, cidx, m.ring, cache).is_zero():
                    return m.ngens - size
    return m.ngens


def _rational_rank(mat):
    """Rank over Q of a matrix of Fractions, by plain Gaussian elimination."""
    mat = [list(r) for r in mat]
    count = 0
    for col in range(len(mat[0]) if mat else 0):
        hit = next((r for r in range(count, len(mat)) if mat[r][col]), None)
        if hit is None:
            continue
        mat[count], mat[hit] = mat[hit], mat[count]
        for r in range(len(mat)):
            if r != count and mat[r][col]:
                f = mat[r][col] / mat[count][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[count])]
        count += 1
    return count


def _evaluate(poly, point):
    total = Fraction(0)
    for exps, coeff in poly.terms.items():
        term = coeff
        for v, e in zip(point, exps):
            term *= Fraction(v) ** e
        total += term
    return total


def _random_presentation(ring, rng):
    """A small random relation matrix; some rows are R-combinations of
    earlier ones, some are multiples of an ideal generator (zero in R)."""
    x = [parse_poly(v, ring) for v in ring.variables]
    monomials = [parse_poly("1", ring)] + x + [a * b for a in x for b in x]

    def entry():
        if rng.random() < 0.4:
            return ring.zero()
        return sum((m.scale(rng.randint(-2, 2))
                    for m in rng.sample(monomials, rng.randint(1, 2))),
                   ring.zero())

    ngens = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.random()
        if rows and kind < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            ca, cb = entry(), entry()
            rows.append(tuple(ca * u + cb * v for u, v in zip(a, b)))
        elif ring.ideal and kind < 0.4:
            f = rng.choice(ring.ideal)
            rows.append(tuple(f * entry() for _ in range(ngens)))
        else:
            rows.append(tuple(entry() for _ in range(ngens)))
    return Presentation(ring, gens(*("g%d" % i for i in range(ngens))),
                        tuple(rows))


@pytest.mark.parametrize("ring,seed", [(PLANE, 11), (CUSP, 12), (EX316, 13)],
                         ids=["plane", "cusp", "ex316"])
def test_rank_matches_minor_search(ring, seed):
    rng = random.Random(seed)
    for _ in range(40):
        m = _random_presentation(ring, rng)
        assert rank(m) == _minor_rank(m), m.relations


@pytest.mark.parametrize("ring,point,seed",
                         [(CUSP, (1, 1), 21), (EX316, (1, 1, 1), 22)],
                         ids=["cusp", "ex316"])
def test_rank_is_bounded_by_a_point_of_the_variety(ring, point, seed):
    # a minor nonzero at p in V(I) is nonzero in R: rank M <= n - rank A(p)
    assert all(_evaluate(f, point) == 0 for f in ring.ideal)
    rng = random.Random(seed)
    for _ in range(40):
        m = _random_presentation(ring, rng)
        at_p = [[_evaluate(e, point) for e in row] for row in m.relations]
        assert rank(m) <= m.ngens - _rational_rank(at_p)


def test_ex316_ranks_beyond_the_minor_search():
    jets = jq_presentation(omega_presentation(EX316, 1), 1)
    sym = symmetric_square(omega_presentation(EX316, 2))
    for m, expected in ((jets, 2), (sym, 3)):
        assert rank(m) == expected
        at_p = [[_evaluate(e, (1, 1, 1)) for e in row] for row in m.relations]
        assert expected <= m.ngens - _rational_rank(at_p)


def test_rank_requires_domain():
    square = parse_ringspec("vars = [x]; ideal = [x^2];")
    m = ring_as_module(square)
    with pytest.raises(ValueError):
        rank(m)


def test_minimal_presentation_drops_a_redundant_generator():
    # one generator is redundant: b = -x*a after the constant pivot
    m = Presentation(PLANE, gens("a", "b"), ((p("x"), p("1")),))
    assert minimal_presentation(m).ngens == 1


def test_minimal_chain_rejects_a_unit_that_is_not_constant():
    # x + 1 is a unit at the origin but not a constant: no count is read off
    m = Presentation(CUSP, gens("a",), ((p("x + 1", CUSP),),), degrees=(2,))
    with pytest.raises(ValueError):
        minimal_resolution(m, 1)
    ok = Presentation(CUSP, gens("a", "b"),
                      ((p("y", CUSP), p("x", CUSP)),), degrees=(2, 3))
    assert minimal_presentation(ok).ngens == 2


def test_parse_presentation_round_trip():
    text = """
vars = [x, y];
ideal = [];
generators = [a, b];
relations = [[x, y]];
"""
    m = parse_presentation(text)
    assert m.ngens == 2
    assert m.relations == ((p("x"), p("y")),)
