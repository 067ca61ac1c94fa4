"""Command-line workbench.

Subcommands build presentations and maps from a ring file, run the
canonical checks, and emit deterministic reports::

    omega | jets | sym2        presentations of the differential modules
    theta | iota | split       canonical maps and the split exact sequence
    symderiv                   derivation solver vs. independent oracle
    resolve | pd | rank        homological invariants of a chosen module
    regular                    Jacobian regularity of the ring itself
    verify-paper               the full verification table over a corpus

The table COMMANDS drives both argv parsing, which reads argv as argparse
did (`--opt V`, `--opt=V`, unique prefixes, `-qN`, `-q=N`; the last repeat
wins), and -h/--help, which prints to stdout and exits 0.

Every command runs poly, parser, groebner and presentations, whose names
are imported here.  diffmod, resolution and verify are called through
their module objects, so a request compiles only those it reaches:
`regular` never compiles diffmod, and only verify-paper compiles verify
and properties.

Exit codes: 0 success, 1 mathematical check failure (verify-paper
mismatch, solver/oracle disagreement), 2 a usage error (usage and error
on stderr) or an input error, such as a ring file or --basis nested more
than parser.NESTING_LIMIT brackets deep.  Timing goes to stderr so stdout
stays byte-identical across repeated runs.
"""

from __future__ import annotations

import re
import sys
import time
from types import SimpleNamespace
from typing import Optional, Sequence, Tuple, Union

from .parser import (
    RingParseError,
    RingSpec,
    _load_ring,
    map_document,
    map_text,
    parse_monomials,
    presentation_document,
    presentation_text,
    resolution_document,
    resolution_text,
    statements_text,
)
from .presentations import Presentation, rank, ring_as_module, symmetric_square
from . import diffmod, resolution, verify


# ---------------------------------------------------------------------------
# the command table: it parses argv and prints -h/--help alike


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError("expected an integer, got %r" % text) from None
    if value < 1:
        raise ValueError("expected a positive integer, got %d" % value)
    return value


# An option is (flag, type or tuple of choices, default, metavar, help); a
# default of ... marks the option required.
_RING = ("--ring", str, ..., "FILE",
         "ring file (vars/weights/ideal statements)")
_Q = ("-q", _positive_int, 1, "Q", "differential order (default 1)")
_FORMAT = ("--format", ("text", "structured"), "text", None,
           "a report, or a JSON envelope echoing the request (default text)")
_CUTOFF = ("--cutoff", _positive_int, 6, "CUTOFF",
           "resolution cutoff (default 6)")
# the selector mini-syntax composes constructions: jets:omega is J_q
# applied to Omega^(q), sym2:omega the symmetric square, jets:ring J_q(R)
_MODULE = ("--module", ("omega", "jets:omega", "sym2:omega", "jets:ring"),
           "omega", "MODULE",
           "omega (default), jets:omega, sym2:omega or jets:ring")

COMMANDS = {
    "omega": ("presentation of Omega^(q)", (_RING, _Q, (
        "--basis", str, None, "MONOMIALS",
        "comma-separated symbol order, e.g. \"x^2,y^2,x*y,x,y\""), _FORMAT)),
    "jets": ("presentation of J_q of the ring or of Omega^(q)", (
        _RING, _Q, ("--module", ("ring", "omega"), "ring", None,
                    "which module to build (default ring)"), _FORMAT)),
    "sym2": ("presentation of S^2(Omega^(q))", (_RING, _Q, _FORMAT)),
    "theta": ("the map Omega^(2q) -> Omega^(q) targets, or into jets", (
        _RING, _Q, ("--target", ("first", "jets"), "first", None,
                    "contract to Omega^1 or embed into jets"), _FORMAT)),
    "iota": ("the inclusion S^2(Omega^1) -> Omega^2", (_RING, _FORMAT)),
    "split": ("exactness and splitting of the symmetric-square sequence",
              (_RING, _FORMAT)),
    "symderiv": ("symmetric-derivation solver cross-checked by an oracle", (
        _RING, _Q, ("--degree-bound", _positive_int, 6, "DEGREE_BOUND",
                    "oracle ansatz degree for rings that are not "
                    "homogeneous"), _FORMAT)),
    "resolve": ("free resolution of a module",
                (_RING, _Q, _MODULE, _CUTOFF, _FORMAT)),
    "pd": ("projective-dimension verdict",
           (_RING, _Q, _MODULE, _CUTOFF, _FORMAT)),
    "rank": ("generic rank of a module (domain rings)",
             (_RING, _Q, _MODULE, _FORMAT)),
    "regular": ("Jacobian regularity of the ring", (_RING, _FORMAT)),
    "verify-paper": ("run the full verification table over a corpus", (
        ("--corpus", str, None, "DIR",
         "directory of .ring files (default: shipped corpus)"),
        ("--cases", _positive_int, 200, "CASES",
         "randomized cases per property suite (default 200)"), _FORMAT)),
}
_HELP = ("-h", "--help")
_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _usage(command: Optional[str], full: bool = False) -> str:
    """The usage line of the program or of one command; with full, the
    whole -h/--help text."""
    options = COMMANDS[command][1] if command else ()
    spelt = ["%s %s" % (o[0], o[3] or "{%s}" % ",".join(o[1]))
             for o in options]
    text = "usage: kahlerlab %s\n" % (" ".join([command, "[-h]"] + [
        s if o[2] is ... else "[%s]" % s for s, o in zip(spelt, options)])
        if command else "[-h] COMMAND ...")
    if not full:
        return text
    if command is None:
        about = ("exact workbench for differential modules over "
                 "Q[x_1..x_s]/I; COMMAND -h lists its options")
        rows = [(name, entry[0]) for name, entry in COMMANDS.items()]
    else:
        about, rows = COMMANDS[command][0], zip(spelt, (o[4] for o in options))
    return "%s\n%s\n\n%s" % (text, about, "".join(
        "  %-29s%s\n" % row for row in rows))


def _classify(tokens: Sequence[str], flags) -> list:
    """How argparse reads each token: None for a positional, else the flag
    it names (None for an unknown option) and the value attached to it."""
    kinds, rest = [], False
    for token in tokens:
        kind = None if rest or token[:1] != "-" or token == "-" \
            else (None, None)
        if kind and token[:2] == "--" and token != "--":  # or a prefix
            name, eq, value = token.partition("=")
            hits = [f for f in flags if f == name] or \
                [f for f in flags if f.startswith(name)]
            if len(hits) > 1:
                raise ValueError("ambiguous option: %s could match %s"
                                 % (token, ", ".join(hits)))
            kind = (hits[0], value if eq else None) if hits else kind
        elif kind and token[:2] in flags:  # -q, -qN and -q=N
            value = token[2:]
            kind = token[:2], value[value[:1] == "=":] if value else None
        if kind == (None, None) and token != "--" and (
                _NUMBER.match(token) or " " in token):
            kind = None
        kinds.append(kind)
        rest = rest or token == "--"  # every later token is positional
    return kinds


def _parse_args(argv: Sequence[str]) -> Union[SimpleNamespace, int]:
    """The request argv names, read with argparse's syntax, or the exit
    code once -h/--help (0) or a usage error (2) has been printed."""
    command, options, values, strays = None, {}, {}, []
    try:
        kinds, i = _classify(argv, _HELP), 0
        while i < len(argv):
            kind, token, i = kinds[i], argv[i], i + 1
            if command is None and (kind is None or token == "--"):
                if token not in COMMANDS:
                    raise ValueError("argument command: invalid choice: %r "
                                     "(choose from %s)"
                                     % (token, ", ".join(COMMANDS)))
                command, options = token, {o[0]: o for o in COMMANDS[token][1]}
                values = {flag: o[2] for flag, o in options.items()}
                kinds[i:] = _classify(argv[i:], _HELP + tuple(options))
            elif kind is None or kind[0] is None:
                strays.append(token)
            elif kind[0] in _HELP:
                # argparse reads the letters after -h as more short flags
                chain = kind[1].lstrip("h") if kind[0] == "-h" and kind[1] \
                    else "?"
                if kind[1] is not None and chain and not (
                        "-" + chain[0] in options and (
                            chain[1:] or i < len(argv) and kinds[i] is None)):
                    raise ValueError("argument -h/--help: ignored explicit "
                                     "argument %r" % kind[1])
                sys.stdout.write(_usage(command, full=True))
                return 0
            else:
                flag, value = kind
                if value is None:
                    if i == len(argv) or kinds[i] is not None:
                        raise ValueError("argument %s: expected one argument"
                                         % flag)
                    value, i = argv[i], i + 1
                convert = options[flag][1]
                try:
                    if isinstance(convert, tuple) and value not in convert:
                        raise ValueError("invalid choice: %r (choose from %s)"
                                         % (value, ", ".join(convert)))
                    values[flag] = value if isinstance(convert, tuple) \
                        else convert(value)
                except ValueError as e:
                    raise ValueError("argument %s: %s" % (flag, e)) from None
        missing = [f for f, v in values.items() if v is ...] if command \
            else ["command"]
        if missing or strays:
            raise ValueError(
                "the following arguments are required: " + ", ".join(missing)
                if missing else "unrecognized arguments: " + " ".join(strays))
    except ValueError as e:
        sys.stderr.write("%skahlerlab%s: error: %s\n" % (
            _usage(command), " " + command if command else "", e))
        return 2
    return SimpleNamespace(command=command, **{
        flag.lstrip("-").replace("-", "_"): v for flag, v in values.items()})


def _select_module(ring: RingSpec, q: int, selector: str) -> Presentation:
    if selector == "omega":
        return diffmod.omega_presentation(ring, q)
    if selector == "jets:omega":
        return diffmod.jq_presentation(diffmod.omega_presentation(ring, q), q)
    if selector == "sym2:omega":
        return symmetric_square(diffmod.omega_presentation(ring, q))
    if selector == "jets:ring":
        return diffmod.jq_presentation(ring_as_module(ring), q)
    raise ValueError("unknown module selector %r" % selector)


# ---------------------------------------------------------------------------
# dispatch


def _dispatch(args) -> Tuple[str, object, int]:
    """The text payload, the structured result and the exit code."""
    command = args.command
    if command == "verify-paper":
        items, counts, warnings = verify._run_verify(args.corpus, args.cases)
        result = {"items": items, "passed": counts["PASS"],
                  "failed": counts["FAIL"], "skipped": counts["SKIP"],
                  "warnings": warnings}
        return (verify._verify_text(items, counts, warnings), result,
                1 if counts["FAIL"] else 0)

    ring = _load_ring(args.ring)

    if command in ("omega", "jets", "sym2"):
        if command == "omega":
            basis = None if args.basis is None \
                else parse_monomials(args.basis, ring)
            m = diffmod.omega_presentation(ring, args.q, basis)
        else:
            selector = "jets:" + args.module if command == "jets" \
                else "sym2:omega"
            m = _select_module(ring, args.q, selector)
        return presentation_text(m), presentation_document(m), 0

    if command in ("theta", "iota"):
        if command == "iota":
            phi = diffmod.iota_sym_to_omega2(ring)
        elif args.target == "first":
            phi = diffmod.theta_to_first(ring, args.q)
        else:
            phi = diffmod.theta_to_jets(ring, args.q)
        return map_text(phi), map_document(phi), 0

    if command == "split":
        out = diffmod.symmetric_derivation_solve(ring, 1)
        derivation = out if isinstance(out, diffmod.SymmetricDerivation) \
            else None
        exact, splitting = diffmod._split_sequence(ring, derivation)
        result = {"derivation_found": derivation is not None,
                  "exact": exact, "splitting": splitting}
        return statements_text(result.items(), ring.order()), result, 0

    if command == "symderiv":
        found = isinstance(diffmod.symmetric_derivation_solve(ring, args.q),
                           diffmod.SymmetricDerivation)
        agrees = found == diffmod.symmetric_derivation_oracle(
            ring, args.q, args.degree_bound)
        result = {"verdict": "found" if found else "not_found",
                  "oracle_agrees": agrees}
        return (statements_text(result.items(), ring.order()), result,
                0 if agrees else 1)

    if command == "regular":
        value = resolution.jacobian_regular(ring)
        return "regular = %s\n" % str(value).lower(), {"regular": value}, 0

    if command in ("resolve", "pd", "rank"):
        m = _select_module(ring, args.q, args.module)
        if command == "resolve":
            r = resolution.free_resolution(m, args.cutoff)
            return resolution_text(r), resolution_document(r), 0
        if command == "pd":
            verdict = resolution.projective_dimension(m, args.cutoff)
            result = {"pd": str(verdict), "value": verdict.value,
                      "finite": isinstance(verdict, resolution.Finite)}
            return str(verdict) + "\n", result, 0
        value = rank(m)
        return "rank = %d\n" % value, {"rank": value}, 0

    raise ValueError("unknown command %r" % command)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if isinstance(args, int):
        return args
    start = time.perf_counter()
    try:
        text, result, code = _dispatch(args)
    except (RingParseError, ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    finally:
        print("elapsed: %.3fs" % (time.perf_counter() - start),
              file=sys.stderr)
    if args.format == "structured":
        # the request echoes every parsed option that has a value
        request = {key: value for key, value in vars(args).items()
                   if key not in ("command", "format") and value is not None}
        if args.command == "verify-paper":
            request["corpus"] = args.corpus or "shipped"
        import json
        text = json.dumps({"command": args.command, "request": request,
                           "result": result, "seed": 0},
                          indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
