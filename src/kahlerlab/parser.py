"""Parse and render ring files, polynomials, labels and result documents.

One small grammar serves files and CLI arguments alike:

    vars = [x, y];
    weights = [2, 3];            # optional, positive integers
    ideal = [y^2 - x^3];         # optional, defaults to []
    assume_domain = true;        # optional, defaults to false

Input is ASCII.  Polynomial expressions allow +, -, *, ^, parentheses and
rational literals like 3/2 -- nothing else.  Presentation documents add two
keys (`generators`, `relations`).  Ring and presentation texts parse back;
maps and resolutions are written in the same statement syntax.

A generator label is its canonical text, made by the three label builders
and read back by parse_label, in a fixed grammar so bases are typeable:
``d2(x^2)`` (order-2 differential generator), ``D1[d1(x)](y)`` (jet
generator: inner label in brackets, multiplier monomial in parens),
``s(d1(x),d1(y))`` (unordered symmetric pair, factors sorted), and
plain identifiers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add, index
from typing import Dict, List, Optional, Sequence, Tuple

from .poly import (EXPONENT_LIMIT, Coeff, ExpVec, ExponentOverflowError,
                   MonomialOrder, Polynomial, Record, _coefficient, _trusted,
                   format_polynomial, monomial_text)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DELTA_RE = re.compile(r"^d([0-9]+)$")
_JET_RE = re.compile(r"^D([0-9]+)$")


class RingParseError(ValueError):
    """Syntax or validation error, carrying 1-based line/column."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = "%s (line %d, column %d)" % (message, line, col)
        super().__init__(message)


# ---------------------------------------------------------------------------
# ring specification


class RingSpec(Record):
    """An affine algebra R = Q[x_1..x_s]/(f_1..f_m) with optional weights.

    The ring's grading gives x_i its declared weight, or 1 when no weights
    are declared.  `homogeneous` records whether every ideal generator is
    homogeneous for that grading; graded answers need it, others ignore it.
    """

    variables: Tuple[str, ...]
    weights: Optional[Tuple[int, ...]]
    ideal: Tuple[Polynomial, ...]
    assume_domain: bool
    homogeneous: bool

    def order(self) -> MonomialOrder:
        return MonomialOrder(self.weights)

    def is_domain(self) -> bool:
        # A polynomial ring (empty ideal) over Q is always a domain.
        return self.assume_domain or not self.ideal

    def zero(self) -> Polynomial:
        return Polynomial.zero(self.variables)

    def one(self) -> Polynomial:
        return Polynomial.const(self.variables, 1)


def make_ringspec(variables: Sequence[str],
                  weights: Optional[Sequence[int]] = None,
                  ideal: Sequence[Polynomial] = (),
                  assume_domain: bool = False) -> RingSpec:
    variables = tuple(variables)
    if not variables:
        raise RingParseError("at least one variable is required")
    seen = set()
    for name in variables:
        if not _IDENT_RE.fullmatch(name):
            raise RingParseError("invalid variable name %r" % name)
        if name in seen:
            raise RingParseError("duplicate variable %r" % name)
        seen.add(name)
    if weights is not None:
        try:
            weights = tuple(map(index, weights))
        except TypeError:
            raise RingParseError("weights must be integers") from None
        if len(weights) != len(variables):
            raise RingParseError("expected %d weights, got %d"
                                 % (len(variables), len(weights)))
        if any(w < 1 for w in weights):
            raise RingParseError("weights must be positive")
    ideal = tuple(ideal)
    for f in ideal:
        if f.variables != variables:
            raise RingParseError("ideal generator uses a different variable list")
        if f.is_zero():
            raise RingParseError("zero polynomial in ideal list")
    homogeneous = all(f.homogeneous_degree(weights) is not None for f in ideal)
    return RingSpec(variables, weights, ideal, bool(assume_domain), homogeneous)


# ---------------------------------------------------------------------------
# generator labels


def delta_label(q: int, exps: ExpVec, variables: Sequence[str]) -> str:
    """delta^(q)(x^alpha) as d{q}(monomial)."""
    return "d%d(%s)" % (q, monomial_text(exps, variables))


def jet_label(q: int, inner: str, exps: ExpVec,
              variables: Sequence[str]) -> str:
    """Jet generator Delta_q(x^beta * inner) as D{q}[inner](monomial)."""
    return "D%d[%s](%s)" % (q, inner, monomial_text(exps, variables))


def sym_label(a: str, b: str) -> str:
    """Unordered symmetric pair as s(a,b), its factors in sorted order."""
    return "s(%s,%s)" % tuple(sorted((a, b)))


# ---------------------------------------------------------------------------
# tokenizer

# The recursive-descent parser spends about four Python frames per level
# of ( or [, so deeper input would exhaust the interpreter's stack.
NESTING_LIMIT = 100

# Blanks and comments match no named group; `other` is any non-token.
_TOKEN_RE = re.compile(r"[ \t\r]+|#[^\n]*|(?P<newline>\n)|(?P<number>[0-9]+)"
                       r"|(?P<ident>%s)|(?P<symbol>[=;,\[\]()+\-*^/])|(?P<other>.)"
                       % _IDENT_RE.pattern, re.DOTALL)


def _tokenize(text: str) -> List[Tuple[str, str, int, int]]:
    """ASCII text as (kind, text, line, column) tokens closed by an `eof`
    token; any other character is an error.  A `;` outside every bracket
    ends a statement: its kind is `end`."""
    tokens = []
    line, line_start, depth = 1, 0, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        value, col = m.group(), m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind in ("number", "ident"):
            tokens.append((kind, value, line, col))
        elif kind == "symbol":
            if value in "([":
                depth += 1
                if depth > NESTING_LIMIT:
                    raise RingParseError("nesting deeper than %d levels"
                                         % NESTING_LIMIT, line, col)
            elif value in ")]":
                depth -= 1
            end = value == ";" and depth == 0
            tokens.append(("end" if end else value, value, line, col))
        else:
            raise RingParseError("unexpected character %r" % value, line, col)
    tokens.append(("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Stream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.peek()
        if tok[0] != kind:
            self.error("expected %s, found %r" % (what, tok[1] or "end of input"))
        return self.next()

    def at(self, kind: str) -> bool:
        return self.peek()[0] == kind

    def error(self, message: str):
        tok = self.peek()
        raise RingParseError(message, tok[2], tok[3])


def _finish(ts: _Stream, parse):
    """What `parse` reads from the stream, which it must read to the end."""
    value = parse(ts)
    if not ts.at("eof"):
        ts.error("unexpected trailing input %r" % ts.peek()[1])
    return value


def _parse_items(ts: _Stream, item_parser) -> list:
    """One or more items separated by commas."""
    items = [item_parser(ts)]
    while ts.at(","):
        ts.next()
        items.append(item_parser(ts))
    return items


def _parse_list(ts: _Stream, item_parser) -> list:
    ts.expect("[", "'['")
    items = [] if ts.at("]") else _parse_items(ts, item_parser)
    ts.expect("]", "']'")
    return items


# ---------------------------------------------------------------------------
# polynomial expressions


def _parse_number(ts: _Stream) -> Coeff:
    tok = ts.expect("number", "an integer")
    value = int(tok[1])
    if ts.at("/"):
        ts.next()
        den = ts.expect("number", "a denominator")
        if int(den[1]) == 0:
            ts.error("zero denominator")
        value = Fraction(value, int(den[1]))
    return value


def _parse_power(ts: _Stream):
    """The exponent after a `^` and its token; 1 and None without one."""
    if not ts.at("^"):
        return 1, None
    ts.next()
    tok = ts.expect("number", "an integer exponent")
    return int(tok[1]), tok


def _overflow(top: int, tok) -> RingParseError:
    return RingParseError("exponent %d exceeds limit" % top, tok[2], tok[3])


def _parse_term(ts: _Stream, ring: RingSpec, sign: int,
                out: Dict[ExpVec, Coeff]) -> None:
    """Add sign times the next term to `out`.

    The term is read as one coefficient, one exponent vector and the
    product of its parenthesised factors, multiplied in the order they come.
    `high` holds the running product's largest exponent of each variable,
    which only adds up, as leading terms never cancel.  So an exponent past
    EXPONENT_LIMIT is reported where it first arises: a power at its
    exponent, a product at its `*`, and nowhere once the term is zero."""
    while ts.at("-"):
        ts.next()
        sign = -sign
    variables = ring.variables
    coeff, exps, group = sign, [0] * len(variables), None
    high = [0] * len(variables)
    star = None
    while True:
        tok, factor = ts.peek(), None
        if tok[0] == "number":
            coeff *= _parse_number(ts) ** _parse_power(ts)[0]
        elif tok[0] == "ident":
            if tok[1] not in variables:
                ts.error("unknown variable %r" % tok[1])
            ts.next()
            n, at = _parse_power(ts)
            if n > EXPONENT_LIMIT:
                raise _overflow(n, at)
            i = variables.index(tok[1])
            exps[i] += n
            high[i] += n
        elif tok[0] == "(":
            ts.next()
            factor = _trusted(variables, _parse_expr(ts, ring))
            ts.expect(")", "a closing parenthesis")
            n, at = _parse_power(ts)
            if at is not None:
                try:
                    factor = factor ** n
                except ExponentOverflowError as e:
                    raise RingParseError(str(e), at[2], at[3]) from None
            if not factor.terms:
                coeff = 0
            for i, top in enumerate(map(max, zip(*factor.terms))):
                high[i] += top
        else:
            ts.error("expected a term, found %r" % (tok[1] or "end of input"))
        if coeff and star is not None and max(high) > EXPONENT_LIMIT:
            raise _overflow(max(high), star)
        if coeff and factor is not None:
            group = factor if group is None else group * factor
        if not ts.at("*"):
            break
        star = ts.next()
    if not coeff:
        return
    if group is None:
        terms = ((tuple(exps), coeff),)
    else:
        terms = ((tuple(map(add, exps, e)), coeff * c)
                 for e, c in group.terms.items())
    for e, c in terms:
        acc = out.get(e, 0) + c
        if acc:
            out[e] = _coefficient(acc)
        else:
            del out[e]


def _parse_expr(ts: _Stream, ring: RingSpec) -> Dict[ExpVec, Coeff]:
    """Terms joined by + and -, summed into one dict of nonzero terms."""
    out: Dict[ExpVec, Coeff] = {}
    sign = 1
    while True:
        _parse_term(ts, ring, sign, out)
        if not (ts.at("+") or ts.at("-")):
            return out
        sign = 1 if ts.next()[0] == "+" else -1


def _parse_poly(ts: _Stream, ring: RingSpec) -> Polynomial:
    return _trusted(ring.variables, _parse_expr(ts, ring))


def parse_poly(text: str, ring: RingSpec) -> Polynomial:
    """Parse one polynomial expression over the ring's variables."""
    return _finish(_Stream(_tokenize(text)), lambda ts: _parse_poly(ts, ring))


# ---------------------------------------------------------------------------
# monomials and labels


def _parse_monomial(ts: _Stream, ring: RingSpec) -> ExpVec:
    first = ts.peek()
    terms = list(_parse_expr(ts, ring).items())
    if len(terms) != 1 or terms[0][1] != 1:
        raise RingParseError("expected a monomial with coefficient 1",
                             first[2], first[3])
    return terms[0][0]


def parse_monomials(text: str, ring: RingSpec) -> Tuple[ExpVec, ...]:
    """Parse comma-separated monomials with coefficient 1, e.g. "x^2,x*y"."""
    return tuple(_finish(_Stream(_tokenize(text)), lambda ts: _parse_items(
        ts, lambda s: _parse_monomial(s, ring))))


def _parse_label(ts: _Stream, ring: RingSpec) -> str:
    tok = ts.expect("ident", "a generator label")
    name = tok[1]
    if name == "s" and ts.at("("):
        ts.next()
        a = _parse_label(ts, ring)
        ts.expect(",", "a comma")
        b = _parse_label(ts, ring)
        ts.expect(")", "a closing parenthesis")
        return sym_label(a, b)
    m = _DELTA_RE.match(name)
    if m and ts.at("("):
        ts.next()
        exps = _parse_monomial(ts, ring)
        ts.expect(")", "a closing parenthesis")
        return delta_label(int(m.group(1)), exps, ring.variables)
    m = _JET_RE.match(name)
    if m and ts.at("["):
        ts.next()
        inner = _parse_label(ts, ring)
        ts.expect("]", "a closing bracket")
        ts.expect("(", "an opening parenthesis")
        exps = _parse_monomial(ts, ring)
        ts.expect(")", "a closing parenthesis")
        return jet_label(int(m.group(1)), inner, exps, ring.variables)
    return name


def parse_label(text: str, ring: RingSpec) -> str:
    return _finish(_Stream(_tokenize(text)), lambda ts: _parse_label(ts, ring))


# ---------------------------------------------------------------------------
# statement documents (ring files and presentation documents)


def _split_statements(text: str, keys, what: str):
    """One token stream per `name = value;` statement, keyed by name, and
    the end-of-input token; a name outside `keys` is an error.  Each
    stream closes with an `eof` token at its statement's name."""
    ts = _Stream(_tokenize(text))
    chunks: Dict[str, _Stream] = {}
    while not ts.at("eof"):
        key = ts.expect("ident", "a statement name")
        ts.expect("=", "'='")
        body = []
        while not ts.at("end"):
            if ts.at("eof"):
                ts.error("missing ';' after %r statement" % key[1])
            body.append(ts.next())
        ts.next()
        if key[1] in chunks:
            raise RingParseError("duplicate statement %r" % key[1], key[2], key[3])
        chunks[key[1]] = _Stream(body + [("eof", "", key[2], key[3])])
    for name in chunks:
        if name not in keys:
            raise RingParseError("unknown statement %r in %s" % (name, what),
                                 *chunks[name].tokens[-1][2:])
    return chunks, ts.peek()


def _read(chunks: Dict[str, _Stream], key: str, parse, default):
    """Statement `key` read to its end by `parse`, or `default` without one."""
    return _finish(chunks[key], parse) if key in chunks else default


def _validated(chunks: Dict[str, _Stream], key: str, *args) -> RingSpec:
    """make_ringspec(*args), its error raised at statement `key`'s name."""
    try:
        return make_ringspec(*args)
    except RingParseError as e:
        raise RingParseError(str(e), *chunks[key].tokens[-1][2:]) from None


def _parse_bool(ts: _Stream) -> bool:
    tok = ts.expect("ident", "true or false")
    if tok[1] not in ("true", "false"):
        ts.error("expected true or false, found %r" % tok[1])
    return tok[1] == "true"


def _ringspec_from_chunks(chunks: Dict[str, _Stream], end) -> RingSpec:
    if "vars" not in chunks:
        raise RingParseError("missing 'vars' statement", *end[2:])
    names = _read(chunks, "vars", lambda ts: _parse_list(
        ts, lambda s: s.expect("ident", "a variable name")[1]), None)
    weights = _read(chunks, "weights", lambda ts: _parse_list(
        ts, lambda s: int(s.expect("number", "a weight")[1])), None)
    # validate names, then weights, before polynomials are parsed against
    # them, each error at the statement that holds the fault
    _validated(chunks, "vars", names)
    ring0 = _validated(chunks, "weights", names, weights)
    ideal = _read(chunks, "ideal", lambda ts: _parse_list(
        ts, lambda s: _parse_poly(s, ring0)), [])
    assume_domain = _read(chunks, "assume_domain", _parse_bool, False)
    return _validated(chunks, "ideal", names, weights, ideal, assume_domain)


_RING_KEYS = {"vars", "weights", "ideal", "assume_domain"}
_PRESENTATION_KEYS = _RING_KEYS | {"generators", "relations"}


def parse_ringspec(text: str) -> RingSpec:
    """Parse a .ring document into a validated RingSpec."""
    return _ringspec_from_chunks(*_split_statements(text, _RING_KEYS, "ring file"))


def _load_ring(path) -> RingSpec:
    """The ring in a file; a parse or decode error names the file."""
    try:
        with open(path) as fh:
            return parse_ringspec(fh.read())
    except (RingParseError, UnicodeDecodeError) as e:
        raise RingParseError("%s: %s" % (path, e)) from None


def parse_presentation_doc(text: str):
    """Parse a presentation document: (RingSpec, labels, relation rows)."""
    chunks, end = _split_statements(text, _PRESENTATION_KEYS, "presentation")
    ring = _ringspec_from_chunks(chunks, end)
    if "generators" not in chunks:
        raise RingParseError("missing 'generators' statement", *end[2:])
    labels = _read(chunks, "generators", lambda ts: _parse_list(
        ts, lambda s: _parse_label(s, ring)), None)
    rows = _read(chunks, "relations", lambda ts: _parse_list(
        ts, lambda s: _parse_list(s, lambda t: _parse_poly(t, ring))), [])
    for row in rows:
        if len(row) != len(labels):
            raise RingParseError("relation row of length %d, expected %d"
                                 % (len(row), len(labels)))
    return ring, tuple(labels), rows


# ---------------------------------------------------------------------------
# rendering


def _doc(value, order: MonomialOrder):
    """A statement value in structured form: polynomials as text,
    sequences as lists, anything else as it is."""
    if isinstance(value, Polynomial):
        return format_polynomial(value, order)
    if isinstance(value, (list, tuple)):
        return [_doc(v, order) for v in value]
    return value


def _text(doc) -> str:
    """A structured value as statement text: true/false, a bracketed list,
    a matrix with one bracketed row per line, or str()."""
    if isinstance(doc, bool):
        return "true" if doc else "false"
    if isinstance(doc, list):
        if doc and isinstance(doc[0], list):
            return "[\n%s\n]" % ",\n".join("  " + _text(row) for row in doc)
        return "[%s]" % ", ".join(_text(v) for v in doc)
    return str(doc)


def statements_text(pairs, order: MonomialOrder) -> str:
    """One `name = value;` line per (name, value) pair."""
    return "".join("%s = %s;\n" % (name, _text(_doc(value, order)))
                   for name, value in pairs)


def ring_statements(ring: RingSpec) -> List[Tuple[str, object]]:
    """The ring's (name, value) statements, for statements_text."""
    pairs: List[Tuple[str, object]] = [("vars", ring.variables)]
    if ring.weights is not None:
        pairs.append(("weights", ring.weights))
    pairs.append(("ideal", ring.ideal))
    if ring.assume_domain:
        pairs.append(("assume_domain", True))
    return pairs


def ring_document(ring: RingSpec) -> dict:
    order = ring.order()
    return {
        "vars": _doc(ring.variables, order),
        "weights": _doc(ring.weights, order),
        "ideal": _doc(ring.ideal, order),
        "assume_domain": ring.assume_domain,
    }


def presentation_text(p) -> str:
    return statements_text(ring_statements(p.ring) + [
        ("generators", p.generators), ("relations", p.relations)],
        p.ring.order())


def presentation_document(p) -> dict:
    order = p.ring.order()
    return {
        "ring": ring_document(p.ring),
        "generators": _doc(p.generators, order),
        "relations": _doc(p.relations, order),
    }


def map_matrix_rows(m) -> List[List["Polynomial"]]:
    """Matrix in the documented shape: target generators x source generators."""
    return [[col[t] for col in m.columns] for t in range(m.target.ngens)]


def map_text(m) -> str:
    return statements_text(ring_statements(m.source.ring) + [
        ("source_generators", m.source.generators),
        ("target_generators", m.target.generators),
        ("matrix", map_matrix_rows(m))], m.source.ring.order())


def map_document(m) -> dict:
    return {
        "ring": ring_document(m.source.ring),
        "source": presentation_document(m.source),
        "target": presentation_document(m.target),
        "matrix": _doc(map_matrix_rows(m), m.source.ring.order()),
    }


def resolution_text(r) -> str:
    return statements_text(ring_statements(r.module.ring) + [
        ("betti", r.betti), ("terminated", r.terminated),
        ("cutoff", r.cutoff), ("graded", r.graded)] + [
        ("step%d" % i, step) for i, step in enumerate(r.steps)],
        r.module.ring.order())


def resolution_document(r) -> dict:
    return {
        "ring": ring_document(r.module.ring),
        "module": presentation_document(r.module),
        "betti": list(r.betti),
        "terminated": r.terminated,
        "cutoff": r.cutoff,
        "graded": r.graded,
        "steps": _doc(r.steps, r.module.ring.order()),
    }
