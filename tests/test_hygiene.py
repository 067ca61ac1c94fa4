"""Source hygiene: every name a kahlerlab module imports is used in it,
every module-level private function or class is used in the package,
every public one is used in the package or the tests, every true
division is exact, every defaulted parameter is passed somewhere, every
cache is bounded, no layer imports at module level a layer that fewer
commands run, and every source and test file parses as Python 3.10, the
oldest version `pyproject.toml` allows.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "kahlerlab"
TESTS = Path(__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import os\nfrom sys import argv, path\nargv\n") == [
        (1, "os"), (2, "path")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _referenced(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def _unreferenced_defs(sources, public=False, others=()):
    """(module, name) of each module-level `_private` function or class, or
    each public one, that no other top-level statement of the sources or
    of `others` refers to."""
    statements = [(module, node) for module, source in sources.items()
                  for node in ast.parse(source).body]
    readers = [node for _, node in statements] + [
        node for source in others for node in ast.parse(source).body]
    unused = []
    for module, node in statements:
        if not (isinstance(node, DEFS) and not node.name.startswith("__")
                and node.name.startswith("_") != public):
            continue
        if not any(node.name in _referenced(other)
                   for other in readers if other is not node):
            unused.append((module, node.name))
    return unused


def test_the_check_sees_an_unused_private_def():
    sources = {
        "a": "def _used():\n    pass\n\ndef _self(n):\n    return _self(n)\n",
        "b": "from .a import _used\nclass _Left:\n    pass\n",
    }
    assert _unreferenced_defs(sources) == [("a", "_self"), ("b", "_Left")]


def test_no_unused_private_defs():
    sources = {p.name: p.read_text() for p in MODULES}
    assert _unreferenced_defs(sources) == []


def test_the_check_sees_an_unreferenced_public_def():
    sources = {
        "a": "def used():\n    pass\n\ndef alone(n):\n    return alone(n)\n",
        "b": "from .a import used\nclass Tested:\n    pass\n\ndef _hidden():\n"
             "    pass\n",
    }
    tests = ["from pkg.b import Tested\n"]
    assert _unreferenced_defs(sources, public=True, others=tests) == [
        ("a", "alone")]


def test_no_unreferenced_public_defs():
    sources = {p.name: p.read_text() for p in MODULES}
    tests = [p.read_text() for p in sorted(TESTS.glob("*.py"))]
    assert _unreferenced_defs(sources, public=True, others=tests) == []


# Coefficients may be ints, and int / int is a float.  A true division is
# exact when one operand is a Fraction(...) call.


def _is_fraction_call(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Fraction")


def _unchecked_divisions(source):
    """(line, enclosing function) of each `/` or `/=` in source with no
    Fraction(...) operand."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        operands = ()
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            operands = (node.target, node.value)
        if operands and not any(map(_is_fraction_call, operands)):
            found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_the_check_sees_an_unchecked_division():
    source = ("def f(c):\n    return 1 / c\n\n"
              "def g(c, d):\n    d /= 2\n    return Fraction(1) / c + d\n\n"
              "def _rational_system_solvable(a, b):\n    return a / b\n")
    assert _unchecked_divisions(source) == [
        (2, "f"), (5, "g"), (9, "_rational_system_solvable")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_true_divisions_are_exact(path):
    assert _unchecked_divisions(path.read_text()) == []


def _callee(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _defaulted_params(tree):
    """(function name, parameter name, positional index or None) for each
    parameter with a default of each function or method in tree.  A
    method's index skips self or cls; __init__ is called by its class."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = cls if child.name == "__init__" and cls else child.name
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if cls and not static else 0
                first = len(positional) - len(args.defaults)
                for i in range(first, len(positional)):
                    out.append((name, positional[i].arg, i - skip))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out.append((name, arg.arg, None))
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return out


def _never_passed(defining, calling):
    """(function, parameter) of each defaulted parameter of a function in
    the `defining` sources that no call, matched by name, in the `calling`
    sources passes by keyword or by position."""
    calls = {}
    for source in calling:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and _callee(node):
                calls.setdefault(_callee(node), []).append(node)
    unused = []
    for source in defining:
        for func, param, index in _defaulted_params(ast.parse(source)):
            if not any(_passes(call, param, index)
                       for call in calls.get(func, ())):
                unused.append((func, param))
    return unused


def _passes(call, param, index):
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and index < len(call.args)


def test_the_check_sees_a_parameter_never_passed():
    source = ("def f(a, b=1, *, c=2):\n    pass\n\n"
              "class K:\n    def __init__(self, d=3):\n        pass\n"
              "    def m(self, e=4, g=5):\n        pass\n\n"
              "f(0, 2)\nK()\nk.m(g=1)\n")
    assert _never_passed([source], [source]) == [
        ("f", "c"), ("K", "d"), ("m", "e")]


def test_every_defaulted_parameter_is_passed():
    defining = [p.read_text() for p in MODULES]
    calling = defining + [p.read_text() for p in sorted(TESTS.glob("*.py"))]
    assert _never_passed(defining, calling) == []


# Caches stay bounded in a long-lived process.  These six unbounded ones
# predate the rule; ROADMAP item 4 lists them for bounding.
UNBOUNDED_CACHES = {
    ("diffmod.py", "_expansion_coords"),
    ("diffmod.py", "omega_presentation"),
    ("diffmod.py", "jq_presentation"),
    ("derivations.py", "iota_sym_to_omega2"),
    ("derivations.py", "symmetric_derivation_solve"),
    ("resolution.py", "minimal_resolution"),
}


def _unbounded_caches(module, source):
    """(module, function) of each function decorated with `cache` or with
    an `lru_cache` whose maxsize is None; a bare `lru_cache` holds 128."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            if not isinstance(dec, ast.Call):
                dec = ast.Call(func=dec, args=[], keywords=[])
            sizes = dec.args[:1] + [k.value for k in dec.keywords
                                    if k.arg == "maxsize"]
            if _callee(dec) == "cache" or _callee(dec) == "lru_cache" and any(
                    isinstance(s, ast.Constant) and s.value is None
                    for s in sizes):
                found.append((module, node.name))
    return found


def test_the_check_sees_an_unbounded_cache():
    source = ("@lru_cache(maxsize=None)\ndef a():\n    pass\n\n"
              "@functools.lru_cache(None)\ndef b():\n    pass\n\n"
              "@cache\ndef c():\n    pass\n\n"
              "@lru_cache(maxsize=16)\ndef d():\n    pass\n\n"
              "@lru_cache\ndef e():\n    pass\n\n"
              "@lru_cache()\ndef f():\n    pass\n")
    assert _unbounded_caches("m.py", source) == [
        ("m.py", "a"), ("m.py", "b"), ("m.py", "c")]


def test_caches_are_bounded():
    found = {entry for path in MODULES
             for entry in _unbounded_caches(path.name, path.read_text())}
    assert found <= UNBOUNDED_CACHES


# A cold request compiles the layers it imports.  The layers that rank,
# pd and regular run may not import at module level the ones that only
# the map commands or verify-paper run; verify may not import cli, which
# under `-m` runs as __main__ and would be compiled a second time.
_LATE_LAYERS = {"maps", "derivations", "properties", "verify", "cli"}
FORBIDDEN_IMPORTS = {
    **dict.fromkeys(("poly", "parser", "groebner", "presentations",
                     "diffmod", "resolution"), _LATE_LAYERS),
    "verify": {"cli"},
}


def _forbidden_imports(module, source):
    """(line, layer) of each kahlerlab layer that source imports outside a
    function body and that FORBIDDEN_IMPORTS denies to module."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = []
            if isinstance(child, ast.ImportFrom):
                base = "kahlerlab" + ("." + child.module if child.module
                                      else "") if child.level else child.module
                names = [a.name for a in child.names] \
                    if base == "kahlerlab" else [base]
            elif isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            for name in names:
                layer = name.split(".")[1] if name.startswith("kahlerlab.") \
                    else name
                if layer in FORBIDDEN_IMPORTS.get(module, ()):
                    found.append((child.lineno, layer))
            visit(child)

    visit(ast.parse(source))
    return found


def test_the_check_sees_a_layer_imported_too_early():
    source = ("from .presentations import rank\nfrom .maps import kernel\n"
              "from . import diffmod, derivations\nimport kahlerlab.cli\n"
              "try:\n    from kahlerlab import verify\nexcept ImportError:\n"
              "    pass\n\ndef late():\n    from .properties import run\n")
    assert _forbidden_imports("diffmod", source) == [
        (2, "maps"), (3, "derivations"), (4, "cli"), (6, "verify")]
    assert _forbidden_imports("verify", source) == [(4, "cli")]
    assert _forbidden_imports("cli", source) == []


def test_layers_import_no_later_layer():
    assert [(path.name, entry) for path in MODULES
            for entry in _forbidden_imports(path.stem, path.read_text())] == []


def _parses_as_310(source):
    try:
        ast.parse(source, feature_version=(3, 10))
    except SyntaxError:
        return False
    return True


def test_the_check_sees_a_construct_newer_than_310():
    assert not _parses_as_310("try:\n    pass\nexcept* ValueError:\n    pass\n")
    assert _parses_as_310("match x:\n    case 1:\n        pass\n")


def test_sources_parse_as_python_310():
    paths = MODULES + sorted(TESTS.glob("*.py"))
    assert [p.name for p in paths if not _parses_as_310(p.read_text())] == []
