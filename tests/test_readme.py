"""The README's Library example runs and prints what its comments state."""

import ast
import re
from pathlib import Path

import kahlerlab

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _stated_value(lines, lineno: int) -> str:
    """The comment on line `lineno` (1-based), else the comment line right
    after it, up to an optional " -- " remark."""
    comment = lines[lineno - 1].partition("#")[2]
    if not comment and lineno < len(lines) \
            and lines[lineno].lstrip().startswith("#"):
        comment = lines[lineno].lstrip()[1:]
    return comment.split(" -- ")[0].strip()


def test_readme_library_example_states_its_values():
    source = _library_block()
    lines = source.splitlines()
    namespace: dict = {}
    stated = []
    for node in ast.parse(source).body:
        code = compile(ast.Module([node], []), "README.md", "exec")
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        want = _stated_value(lines, node.end_lineno)
        got = eval(compile(ast.Expression(node.value), "README.md", "eval"),
                   namespace)
        assert got == eval(want, vars(kahlerlab)), (ast.unparse(node), want)
        stated.append(want)
    assert stated == ["1", "(2, 1)", "Finite(1)", "(5, 4, 2, 2, 2, 2, 2)"]
