"""Higher-order differential modules and jet modules.

Everything is finitely presented over R = Q[x_1..x_s]/I.  The q-th
differential module Omega^(q) is presented on the symbols d_q(x^alpha) for
1 <= |alpha| <= q; the q-jet module J_q(M) of a presented module M on the
symbols D_q[g](x^beta) for |beta| <= q.  The coordinates of a polynomial
against these symbols come from a closed form; relation rows are the
coordinates of shifted ideal generators and relation rows, pruned to a
generating set.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb, prod
from operator import index, sub
from typing import List, Optional, Sequence, Tuple

from .poly import ExpVec, Polynomial, _coefficient, _trusted
from .parser import RingSpec, delta_label, jet_label
from .groebner import FreeElement, nf_poly, prune_rows
from .presentations import Presentation


@lru_cache(maxsize=256)
def _exponent_vectors(nvars: int, q: int, floor: int) -> Tuple[ExpVec, ...]:
    """All exponent vectors with floor <= total degree <= q, ascending."""
    out = [e for e in product(range(q + 1), repeat=nvars)
           if floor <= sum(e) <= q]
    out.sort(key=lambda e: (sum(e), tuple(-c for c in e)))
    return tuple(out)


def delta_monomials(ring: RingSpec, q: int,
                    basis: Optional[Sequence[ExpVec]] = None
                    ) -> Tuple[ExpVec, ...]:
    """The monomials x^alpha, 1 <= |alpha| <= q, of the symbols d_q(x^alpha).

    The default order is by total degree, then by exponent (x before y);
    `basis` overrides it with a permutation of the same monomial set.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    default = _exponent_vectors(len(ring.variables), q, 1)
    if basis is None:
        return default
    basis = tuple(tuple(map(index, m)) for m in basis)
    if sorted(basis) != sorted(default):
        raise ValueError(
            "basis must be a permutation of the %d monomials with "
            "1 <= |alpha| <= %d" % (len(default), q))
    return basis


# ---------------------------------------------------------------------------
# expansion against the symbol bases


@lru_cache(maxsize=None)
def _expansion_coords(h: Polynomial, ring: RingSpec,
                      q: int) -> Tuple[Tuple[ExpVec, Polynomial], ...]:
    """(beta, c_beta) for every |beta| <= q in ascending order, with
    h(x+u) = sum_beta c_beta (x+u)^beta modulo (u)^(q+1) and each c_beta
    reduced modulo I.  The slot beta = 0 serves the jets; the delta symbols
    read |beta| >= 1.

    Closed form: put u^gamma = sum_(beta<=gamma) C(gamma,beta)
    (-x)^(gamma-beta) (x+u)^beta into the Taylor table of a term c x^e.  By
    Vandermonde it adds c C(e,beta) x^(e-beta) s to slot beta, where
    s = sum_(j<=k) (-1)^j C(m,j) for k = q-|beta| and m = |e|-|beta|: s is
    1 when m = 0 and (-1)^k C(m-1,k) otherwise (0 once k >= m)."""
    slots = {beta: {} for beta in _exponent_vectors(len(ring.variables), q, 0)}
    for e, c in h.terms.items():
        for beta in product(*(range(min(a, q) + 1) for a in e)):
            k, m = q - sum(beta), sum(e) - sum(beta)
            if k < 0 or 0 < m <= k:
                continue
            s = (-1) ** k * comb(m - 1, k) if m else 1
            mult = prod(map(comb, e, beta))
            slots[beta][tuple(map(sub, e, beta))] = _coefficient(c * mult * s)
    return tuple((beta, nf_poly(_trusted(ring.variables, terms), ring))
                 for beta, terms in slots.items())


def delta_expand(h: Polynomial, ring: RingSpec, q: int,
                 basis: Optional[Sequence[ExpVec]] = None) -> FreeElement:
    """Coordinates of the class of h in Omega^(q) over the symbols
    d_q(x^alpha), alpha running over `basis` (default delta_monomials)."""
    coords = dict(_expansion_coords(h, ring, q))
    if basis is None:
        basis = delta_monomials(ring, q)
    return tuple(coords[m] for m in basis)


def _jet_monomials(ring: RingSpec, q: int) -> Tuple[ExpVec, ...]:
    return _exponent_vectors(len(ring.variables), q, 0)


def jet_expand(element: FreeElement, ring: RingSpec, q: int) -> FreeElement:
    """Coordinates of the q-jet of an element of R^k over the symbols
    D_q[g_t](x^beta), laid out beta-major: slot position(beta) * k + t
    holds the coordinate at beta of the expansion of entry t."""
    cols = [[c for _, c in _expansion_coords(a, ring, q)] for a in element]
    return tuple(c for slot in zip(*cols) for c in slot)


# ---------------------------------------------------------------------------
# module presentations


def _ideal_shifts(ring: RingSpec, q: int) -> Tuple[ExpVec, ...]:
    """Shifts x^gamma, |gamma| <= q-1, of an ideal generator f that can add
    a relation.  Modulo I and Delta^(q+1), 1(x)x^gamma f is
    sum_eta C(gamma,eta) x^(gamma-eta) delta^eta(1(x)f), and the eta = gamma
    term f*delta^gamma vanishes; so for |gamma| = q the row of x^gamma f is
    an R-combination of the rows of x^zeta f with |zeta| < q."""
    return _exponent_vectors(len(ring.variables), q - 1, 0)


def _shifted(rows: Sequence[FreeElement], gammas: Sequence[ExpVec],
             ring: RingSpec) -> List[FreeElement]:
    """x^gamma * row for each row, then each gamma."""
    monos = [Polynomial.monomial(ring.variables, g) for g in gammas]
    return [tuple(mono * e for e in row) for row in rows for mono in monos]


def _ideal_rows(k: int, gammas: Sequence[ExpVec],
                ring: RingSpec) -> List[FreeElement]:
    """x^gamma * f * e_t in R^k, by ideal generator f, then t, then gamma."""
    zero = ring.zero()
    monos = [Polynomial.monomial(ring.variables, g) for g in gammas]
    return [tuple(mono * f if i == t else zero for i in range(k))
            for f in ring.ideal for t in range(k) for mono in monos]


def _omega_rows(ring: RingSpec, q: int,
                monomials: Sequence[ExpVec]) -> List[FreeElement]:
    """Expansions of x^gamma * f, f an ideal generator, |gamma| < q."""
    return [delta_expand(f, ring, q, monomials)
            for (f,) in _ideal_rows(1, _ideal_shifts(ring, q), ring)]


@lru_cache(maxsize=None)
def omega_presentation(ring: RingSpec, q: int,
                       basis: Optional[Tuple[ExpVec, ...]] = None) -> Presentation:
    """Presentation of Omega^(q)(R): generators d_q(x^alpha), relations the
    expansions of x^beta * f over all ideal generators f and |beta| < q,
    pruned to a generating subset.  `basis`, a tuple because it is part of
    the cache key, reorders the generators."""
    monomials = delta_monomials(ring, q, basis)
    rows = prune_rows(_omega_rows(ring, q, monomials), len(monomials), ring)
    order = ring.order()
    return Presentation(
        ring, tuple(delta_label(q, m, ring.variables) for m in monomials),
        tuple(rows), tuple(order.degree(m) for m in monomials))


@lru_cache(maxsize=None)
def jq_presentation(m: Presentation, q: int) -> Presentation:
    """Presentation of the q-jet module J_q(M).

    Generators D_q[g_t](x^beta) for |beta| <= q, beta-major.  Relations are
    the jet expansions of x^gamma * r for every relation row r of M,
    |gamma| <= q, and of x^gamma * f_j * e_t for every ideal generator,
    |gamma| < q, pruned."""
    ring = m.ring
    if q < 1:
        raise ValueError("q must be >= 1")
    betas = _jet_monomials(ring, q)
    k = m.ngens
    gens = tuple(jet_label(q, m.generators[t], beta, ring.variables)
                 for beta in betas for t in range(k))
    degrees = None
    if m.degrees is not None:
        order = ring.order()
        degrees = tuple(m.degrees[t] + order.degree(beta)
                        for beta in betas for t in range(k))
    raw = (_shifted(m.relations, betas, ring)
           + _ideal_rows(k, _ideal_shifts(ring, q), ring))
    rows = prune_rows([jet_expand(r, ring, q) for r in raw], len(gens), ring)
    return Presentation(ring, gens, tuple(rows), degrees)
