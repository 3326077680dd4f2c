"""Count the lines of the package that hold code.

Run from a checkout, for example

    python tools/code_lines.py            # src/ellipticdt of this checkout
    python tools/code_lines.py ../parent  # src/ellipticdt of another one

It prints one line per module of ``src/ellipticdt`` and a total: the number of
lines that hold at least one token of code.  Blank lines, comment lines and
the lines of docstrings (the first statement of a module, class or function
when it is a string) are left out, so moving a proof from one docstring to
another does not move the count the way it moves ``wc -l``.  A string that
is not a docstring is code, on every line it spans.
"""

from __future__ import annotations

import argparse
import ast
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_starts(tree):
    """The (line, column) where each docstring of the tree starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(path):
    """The number of lines of the file at path that hold a code token."""
    docstrings = docstring_starts(ast.parse(path.read_text(), str(path)))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in NOT_CODE:
                continue
            if tok.type == tokenize.STRING and tok.start in docstrings:
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=str(Path(__file__).resolve().parents[1]))
    ns = parser.parse_args(argv)
    modules = sorted((Path(ns.checkout) / "src" / "ellipticdt").glob("*.py"))
    if not modules:
        raise SystemExit("error: no src/ellipticdt/*.py under %s" % ns.checkout)
    total = 0
    for path in modules:
        n = code_lines(path)
        total += n
        print("%6d %s" % (n, path.name))
    print("%6d total" % total)


if __name__ == "__main__":
    main()
