"""Canonical maps between the differential modules, and the symmetric
derivations that split them.

The symmetric-derivation solver decides whether the second-order structure
splits: it searches for generator images in S^2(Omega^(q)) compatible with
the Leibniz rule on every relation and returns the SymmetricDerivation it
found or the engine's NoSolution certificate.  A first-order derivation D
gives the retraction t = D∘theta of Omega^(2) onto S^2(Omega^1).  An
independent bounded-degree oracle double-checks the verdict without the
Groebner engine, by the one fraction-free Q-elimination, _rational_rank.

delta_expand_via_products finds diffmod's expansion coordinates by
another route, truncated products and a triangular solve; the derivation
checks and the property suites compare the two.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb, gcd, lcm, prod
from operator import sub
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .poly import ExpVec, Polynomial, Record
from .parser import RingSpec, make_ringspec
from .groebner import FreeElement, NoSolution, _grading, nf_poly, solve_linear
from .presentations import (
    Presentation,
    _add_sym,
    _pair_index,
    element_is_zero,
    normalize_element,
    ring_as_module,
    symmetric_square,
    zero_presentation,
)
from .maps import (
    ModuleMap,
    check_exact,
    check_well_defined,
    direct_sum,
    verify_splitting,
    zero_map,
)
from .diffmod import (
    _exponent_vectors,
    _ideal_rows,
    _ideal_shifts,
    _jet_monomials,
    delta_expand,
    delta_monomials,
    jet_expand,
    jq_presentation,
    omega_presentation,
)


# ---------------------------------------------------------------------------
# canonical maps between the differential modules


def jets_of_ring(ring: RingSpec, n: int) -> ModuleMap:
    """The decomposition map J_n(R) -> Omega^(n)(R) + R sending the n-jet of
    x^beta to (expansion of x^beta, x^beta)."""
    jets = jq_presentation(ring_as_module(ring), n)
    omega = omega_presentation(ring, n)
    total, _, _ = direct_sum(omega, ring_as_module(ring))
    cols = []
    for beta in _jet_monomials(ring, n):
        mono = Polynomial.monomial(ring.variables, beta)
        cols.append(delta_expand(mono, ring, n) + (nf_poly(mono, ring),))
    return ModuleMap(jets, total, tuple(cols))


def theta_to_first(ring: RingSpec, q: int) -> ModuleMap:
    """Projection Omega^(q) -> Omega^(1), d_q(x^alpha) |-> class of x^alpha."""
    source = omega_presentation(ring, q)
    target = omega_presentation(ring, 1)
    cols = tuple(delta_expand(Polynomial.monomial(ring.variables, alpha),
                              ring, 1)
                 for alpha in delta_monomials(ring, q))
    return ModuleMap(source, target, cols)


@lru_cache(maxsize=None)
def iota_sym_to_omega2(ring: RingSpec) -> ModuleMap:
    """Embedding S^2(Omega^1) -> Omega^(2):
    s(d(x_i), d(x_j)) |-> d_2(x_i x_j) - x_i d_2(x_j) - x_j d_2(x_i)."""
    source = symmetric_square(omega_presentation(ring, 1))
    target = omega_presentation(ring, 2)
    xs = [Polynomial.variable(ring.variables, v) for v in ring.variables]
    d2 = [delta_expand(x, ring, 2) for x in xs]
    cols = []
    for i, j in _pair_index(len(xs)):
        d2_ij = delta_expand(xs[i] * xs[j], ring, 2)
        cols.append(tuple(nf_poly(a - xs[i] * b - xs[j] * c, ring)
                          for a, b, c in zip(d2_ij, d2[j], d2[i])))
    return ModuleMap(source, target, tuple(cols))


def theta_to_jets(ring: RingSpec, q: int) -> ModuleMap:
    """Factorization Omega^(2q) -> J_q(Omega^(q)) of the q-jet of the
    q-expansion; column at alpha is the jet of the expansion of x^alpha."""
    source = omega_presentation(ring, 2 * q)
    inner = omega_presentation(ring, q)
    target = jq_presentation(inner, q)
    cols = []
    for alpha in delta_monomials(ring, 2 * q):
        r = delta_expand(Polynomial.monomial(ring.variables, alpha), ring, q)
        cols.append(jet_expand(r, ring, q))
    return ModuleMap(source, target, tuple(cols))


# ---------------------------------------------------------------------------
# symmetric derivations


class SymmetricDerivation(Record):
    """Generator images of a derivation Omega^(q) -> S^2(Omega^(q)) obeying
    D(a w) = a D(w) + sym(expansion of a, w)."""

    ring: RingSpec
    q: int
    omega: Presentation
    sym: Presentation
    images: Tuple[FreeElement, ...]

    def __post_init__(self):
        if len(self.images) != self.omega.ngens:
            raise ValueError("need one image per generator")
        for row in self.images:
            if len(row) != self.sym.ngens:
                raise ValueError("image row length does not match S^2")


def apply_derivation(d: SymmetricDerivation,
                     element: Sequence[Polynomial]) -> FreeElement:
    """D(sum_t a_t e_t) = sum_t [sym(expansion of a_t, e_t) + a_t D(e_t)]."""
    ring = d.ring
    n = d.omega.ngens
    if len(element) != n:
        raise ValueError("element does not live in Omega^(q)")
    pair = _pair_index(n)
    out = [ring.zero()] * d.sym.ngens
    for t, a in enumerate(element):
        if a.is_zero():
            continue
        _add_sym(out, pair, delta_expand(a, ring, d.q), t)
        for s_idx, v in enumerate(d.images[t]):
            if not v.is_zero():
                out[s_idx] = out[s_idx] + a * v
    return tuple(nf_poly(p, ring) for p in out)


@lru_cache(maxsize=None)
def symmetric_derivation_solve(ring: RingSpec, q: int = 1):
    """Decide existence of a symmetric derivation by solving for generator
    images: for every relation row m of Omega^(q) the combination
    sym-part(m) + sum_s m_s D(e_s) must lie in the relation span of S^2.

    The system lives in one copy of R^(S^2 generators) per relation row:
    the unknown D(e_s)_c has the column m_s at slot c of every copy, and
    the base is the relations of S^2 in each copy (block-diagonal).
    Returns the SymmetricDerivation, or the engine's NoSolution whose
    residual certifies that none exists."""
    omega = omega_presentation(ring, q)
    sym = symmetric_square(omega)
    zero_d = SymmetricDerivation(
        ring, q, omega, sym, tuple(sym.zero_row() for _ in range(omega.ngens)))
    if not omega.relations:
        return zero_d
    nsym = sym.ngens
    rels = omega.relations
    zero = ring.zero()
    columns = [tuple(m[sigma] if c2 == c else zero
                     for m in rels for c2 in range(nsym))
               for sigma in range(omega.ngens) for c in range(nsym)]
    base = [tuple(r[c] if rho2 == rho else zero
                  for rho2 in range(len(rels)) for c in range(nsym))
            for rho in range(len(rels)) for r in sym.relations]
    b = tuple(-p for m in rels for p in apply_derivation(zero_d, m))
    out = solve_linear(columns, b, ring, base)
    if isinstance(out, NoSolution):
        return out
    sol = out.column
    images = tuple(tuple(sol[sigma * nsym + c] for c in range(nsym))
                   for sigma in range(omega.ngens))
    return SymmetricDerivation(ring, q, omega, sym, images)


def operator_is_order_at_most(op: Callable[[Polynomial], Sequence[Polynomial]],
                              m: Presentation, q: int,
                              max_degree: int = 3) -> bool:
    """Differential-operator order test for op with values in the module m:
    all (q+1)-fold commutators of op with variable multiplications are
    zero in m on monomials up to max_degree."""
    ring = m.ring
    nvars = len(ring.variables)
    monos = [Polynomial.monomial(ring.variables, e)
             for e in _exponent_vectors(nvars, max_degree, 0)]
    for combo in combinations_with_replacement(range(nvars), q + 1):
        for h in monos:
            total: Optional[List[Polynomial]] = None
            for mask in range(1 << (q + 1)):
                inside = [0] * nvars
                outside = [0] * nvars
                bits = 0
                for pos, var in enumerate(combo):
                    if mask >> pos & 1:
                        inside[var] += 1
                        bits += 1
                    else:
                        outside[var] += 1
                inner = Polynomial.monomial(ring.variables, tuple(inside))
                outer = Polynomial.monomial(ring.variables, tuple(outside))
                sign = 1 if (q + 1 - bits) % 2 == 0 else -1
                val = op(inner * h)
                if total is None:
                    total = [ring.zero()] * len(val)
                for i, c in enumerate(val):
                    total[i] = total[i] + (outer * c).scale(sign)
            if not element_is_zero(m, tuple(total)):
                return False
    return True


def validate_symmetric_derivation(d: SymmetricDerivation) -> List[tuple]:
    """Independent checks on a claimed derivation; empty list means clean.

    Checks: (a) the Leibniz constraint on every relation row of Omega^(q)
    and on x^gamma * f * e_sigma for every generator e_sigma, ideal
    generator f and |gamma| < q; (b) the induced operator
    h |-> D(expansion of h) has differential order <= q+1 into S^2 on
    monomials of degree <= 2; (c) the two expansion routes agree on
    monomials of degree <= 3."""
    ring = d.ring
    problems: List[tuple] = []
    rows = list(d.omega.relations) + _ideal_rows(
        d.omega.ngens, _ideal_shifts(ring, d.q), ring)
    for i, row in enumerate(rows):
        value = apply_derivation(d, row)
        if not element_is_zero(d.sym, value):
            problems.append(
                ("relation", i, normalize_element(d.sym, value)))
    def induced(h):
        return apply_derivation(d, delta_expand(h, ring, d.q))
    if not operator_is_order_at_most(induced, d.sym, d.q + 1, 2):
        problems.append(("order", d.q + 1))
    for exps in _exponent_vectors(len(ring.variables), 3, 1):
        mono = Polynomial.monomial(ring.variables, exps)
        if delta_expand(mono, ring, d.q) != \
                delta_expand_via_products(mono, ring, d.q):
            problems.append(("expansion", exps))
    return problems


def beta_to_sym(d: SymmetricDerivation) -> ModuleMap:
    """The factorization J_q(Omega^(q)) -> S^2(Omega^(q)) of a symmetric
    derivation through the jet module: the jet symbol at (beta, t) is sent
    to D(x^beta e_t)."""
    ring = d.ring
    jets = jq_presentation(d.omega, d.q)
    cols = []
    for beta in _jet_monomials(ring, d.q):
        mono = Polynomial.monomial(ring.variables, beta)
        for t in range(d.omega.ngens):
            elt = list(d.omega.zero_row())
            elt[t] = mono
            cols.append(apply_derivation(d, tuple(elt)))
    return ModuleMap(jets, d.sym, tuple(cols))


def splitting_t(derivation: SymmetricDerivation) -> ModuleMap:
    """Retraction t = D∘theta: Omega^(2) -> S^2(Omega^1), t(iota(s)) = 2 s,
    where theta: Omega^(2) -> Omega^1 is theta_to_first and D the given
    first-order symmetric derivation."""
    if derivation.q != 1:
        raise ValueError("the retraction needs a first-order derivation")
    theta = theta_to_first(derivation.ring, 2)
    return ModuleMap(theta.source, derivation.sym, tuple(
        apply_derivation(derivation, col) for col in theta.columns))


def _split_sequence(ring: RingSpec, derivation) -> Tuple[List[bool], bool]:
    """Exactness verdicts for 0 -> S^2(O^1) -> O^2 -> O^1 -> 0 and whether
    the derivation-built retraction halves back to the identity."""
    iota = iota_sym_to_omega2(ring)
    theta = theta_to_first(ring, 2)
    left = zero_map(zero_presentation(ring), iota.source)
    right = zero_map(theta.target, zero_presentation(ring))
    exact = check_exact([left, iota, theta, right])
    splitting = False
    if derivation is not None:
        t = splitting_t(derivation)
        splitting = check_well_defined(t) and \
            verify_splitting(iota, t, Fraction(1, 2))
    return exact, splitting


# ---------------------------------------------------------------------------
# bounded-degree existence oracle (no Groebner machinery)


def symmetric_derivation_oracle(ring: RingSpec, q: int = 1,
                                degree_bound: int = 6) -> bool:
    """Brute-force existence check by undetermined coefficients.

    Looks for polynomial generator images, relation-span multipliers and
    ideal multipliers making the Leibniz constraint an exact polynomial
    identity; the search is a Q-linear system over a bounded monomial
    ansatz, decided by the fraction-free elimination _rational_rank.  When
    the ring is homogeneous for its grading (x_i has its declared weight,
    or 1) and so are all relation rows, each unknown is sought in its exact
    degree: every known term of the identity is homogeneous, so the
    right-degree part of any solution is a solution.  Otherwise the ansatz
    is all monomials of total degree <= degree_bound."""
    omega = omega_presentation(ring, q)
    if not omega.relations:
        return True
    sym = symmetric_square(omega)
    nsym = sym.ngens
    pair = _pair_index(omega.ngens)

    # raw Leibniz part of each relation row, never reduced modulo I: over
    # the plain polynomial ring nf_poly returns at once
    plain = make_ringspec(ring.variables)
    leib_rows: List[List[Polynomial]] = []
    for m in omega.relations:
        acc = [plain.zero()] * nsym
        for sigma, entry in enumerate(m):
            if not entry.is_zero():
                _add_sym(acc, pair, delta_expand(entry, plain, q), sigma)
        leib_rows.append(acc)

    gradings = [_grading(m.relations, m.ngens, ring, m.degrees)
                for m in (omega, sym)]
    graded = all(g and None not in g[1] for g in gradings)
    row_degrees, sym_degrees = (g and g[1] for g in gradings)
    order = ring.order()
    nvars = len(ring.variables)

    def ansatz(forced_degree: Optional[int]) -> Sequence[ExpVec]:
        if graded:
            return [e for e in product(range(forced_degree + 1), repeat=nvars)
                    if order.degree(e) == forced_degree]
        return _exponent_vectors(nvars, degree_bound, 0)

    # unknown polynomial coefficients, bucketed by which polynomial they
    # belong to; each bucket holds (monomial, column) pairs
    buckets: Dict[tuple, List[Tuple[ExpVec, int]]] = {}
    ncols = 0

    def add_unknown(tag, forced_degree):
        nonlocal ncols
        bucket = buckets.setdefault(tag, [])
        for e in ansatz(forced_degree):
            bucket.append((e, ncols))
            ncols += 1

    for sigma in range(omega.ngens):
        for c in range(nsym):
            forced = omega.degrees[sigma] - sym.degrees[c] if graded else None
            add_unknown(("img", sigma, c), forced)
    for rho in range(len(omega.relations)):
        for k in range(len(sym.relations)):
            forced = row_degrees[rho] - sym_degrees[k] if graded else None
            add_unknown(("span", rho, k), forced)
        for c in range(nsym):
            for j, f in enumerate(ring.ideal):
                forced = None
                if graded:
                    forced = (row_degrees[rho] - sym.degrees[c]
                              - f.homogeneous_degree(ring.weights))
                add_unknown(("ideal", rho, c, j), forced)

    # one equation per monomial coefficient of each (relation, coordinate)
    # identity: Leib + sum img-terms + sum span-terms + sum ideal-terms = 0
    rows: List[Dict[int, Fraction]] = []
    rhs: List[Fraction] = []
    eq_index: Dict[Tuple[int, int, ExpVec], int] = {}

    def eq_row(rho, c, mono) -> Dict[int, Fraction]:
        key = (rho, c, mono)
        if key not in eq_index:
            eq_index[key] = len(rows)
            rows.append({})
            rhs.append(0)
        return rows[eq_index[key]]

    def add_term(rho, c, tag, multiplier: Polynomial):
        for e, col in buckets.get(tag, ()):
            for exps, coeff in multiplier.terms.items():
                prod_e = tuple(a + b for a, b in zip(exps, e))
                row = eq_row(rho, c, prod_e)
                row[col] = row.get(col, 0) + coeff

    for rho, m in enumerate(omega.relations):
        for c in range(nsym):
            for exps, coeff in leib_rows[rho][c].terms.items():
                eq_row(rho, c, exps)
                rhs[eq_index[(rho, c, exps)]] -= coeff
            for sigma, entry in enumerate(m):
                if not entry.is_zero():
                    add_term(rho, c, ("img", sigma, c), entry)
            for k, l in enumerate(sym.relations):
                if not l[c].is_zero():
                    add_term(rho, c, ("span", rho, k), l[c])
            for j, f in enumerate(ring.ideal):
                add_term(rho, c, ("ideal", rho, c, j), f)

    return _rational_rank(rows, rhs) is not None


def _rational_rank(rows: Sequence[Dict[int, Fraction]],
                   rhs: Sequence[Fraction]) -> Optional[int]:
    """Fraction-free sparse elimination over Q: the rank of A when Ax = b
    is solvable, else None.  Each row is cleared of denominators; while a
    pivot leads at its lowest column, with entries p and c there and g =
    gcd(p, c), it becomes (p/g)*row - (c/g)*pivot.  Rows stay coprime ints.
    Ax = b has no solution when a row reduces to its right side alone."""
    pivots: Dict[int, Tuple[Dict[int, int], int]] = {}
    for row, b in zip(rows, rhs):
        den = lcm(b.denominator, *(v.denominator for v in row.values()))
        row = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
        b = b.numerator * (den // b.denominator)
        while True:
            g = gcd(b, *row.values()) or 1
            row, b = {c: v // g for c, v in row.items() if v}, b // g
            col = min(row, default=None)
            if col not in pivots:
                break
            pivot, pb = pivots[col]
            g = gcd(pivot[col], row[col])
            p, f = pivot[col] // g, row[col] // g
            row = {c: p * row.get(c, 0) - f * pivot.get(c, 0)
                   for c in row.keys() | pivot.keys()}
            b = p * b - f * pb
        if row:
            pivots[col] = (row, b)
        elif b:
            return None
    return len(pivots)


# ---------------------------------------------------------------------------
# the expansion coordinates by truncated products (cross-check)


def doubled_variables(variables: Sequence[str]) -> Tuple[str, ...]:
    """Fresh shift-variable names u, v, w, u4, ... avoiding collisions."""
    used = set(variables)
    pool = ["u", "v", "w"] + ["u%d" % i for i in range(4, 4 + 2 * len(variables))]
    fresh: List[str] = []
    for cand in pool:
        if len(fresh) == len(variables):
            break
        name = cand
        while name in used:
            name += "_"
        fresh.append(name)
        used.add(name)
    return tuple(variables) + tuple(fresh)


def _back_substitute(table: Dict[ExpVec, Polynomial], ring: RingSpec,
                     q: int) -> Dict[ExpVec, Polynomial]:
    """Coefficients c_gamma, |gamma| <= q, with sum_gamma c_gamma *
    row(x^gamma) matching the given coefficient table, where row(x^gamma)
    has entry C(gamma,eta) x^(gamma-eta) at slot eta.  Unit diagonal, so
    one sweep by descending |gamma| suffices; every emitted coefficient is
    reduced.  The slot gamma = 0 is solved last and feeds no other, so the
    coefficients at |gamma| >= 1 do not depend on the table's entry there."""
    zero = ring.zero()
    out: Dict[ExpVec, Polynomial] = {}
    gammas = _exponent_vectors(len(ring.variables), q, 0)
    for gamma in reversed(gammas):
        c = nf_poly(table.get(gamma, zero), ring)
        out[gamma] = c
        if c.is_zero():
            continue
        for eta in product(*(range(g + 1) for g in gamma)):
            if eta != gamma:
                mult = prod(comb(g, e) for g, e in zip(gamma, eta))
                mono = Polynomial.monomial(
                    ring.variables, tuple(map(sub, gamma, eta)), mult)
                table[eta] = table.get(eta, zero) - c * mono
    return out


def delta_expand_via_products(h: Polynomial, ring: RingSpec,
                              q: int) -> FreeElement:
    """Same coordinates by an independent route: the coefficient table of
    h(x+u) is built by repeated truncated products (d(ab) = a db + b da +
    da db, capped at u-degree q) and inverted by a triangular solve; used
    as a cross-check."""
    doubled = doubled_variables(h.variables)
    n = len(h.variables)
    zero = Polynomial.zero(doubled)

    def truncate(p: Polynomial) -> Polynomial:
        kept = {e: c for e, c in p.terms.items() if sum(e[n:]) <= q}
        return Polynomial(doubled, kept)

    def shift_of_monomial(exps: ExpVec) -> Polynomial:
        # x^e |-> (x+u)^e by repeated multiplication
        acc = Polynomial.const(doubled, 1)
        for i, e in enumerate(exps):
            xi = Polynomial.monomial(doubled, tuple(
                1 if j == i else 0 for j in range(2 * n)))
            ui = Polynomial.monomial(doubled, tuple(
                1 if j == n + i else 0 for j in range(2 * n)))
            for _ in range(e):
                acc = truncate(acc * (xi + ui))
        return acc

    total = zero
    for exps, coeff in h.terms.items():
        total = total + shift_of_monomial(exps).scale(coeff)
    table: Dict[ExpVec, Dict[ExpVec, Fraction]] = {}
    for exps, coeff in total.terms.items():
        table.setdefault(exps[n:], {})[exps[:n]] = coeff
    polys = {g: Polynomial(h.variables, b) for g, b in table.items()}
    coords = _back_substitute(polys, ring, q)
    return tuple(coords[m] for m in delta_monomials(ring, q))
