"""Lines of code of ``src/entqfi``, per module and in total, per checkout.

Usage, from anywhere:

    python3 tools/src_lines.py CHECKOUT [CHECKOUT ...]

A line of code holds a token of Python source other than a comment: blank
lines, comment lines and the lines of docstrings (the string that opens a
module, class or function body) do not count, and every line of any other
string literal does.  The tool prints one row per module and a ``total``
row, with one column per checkout; a module missing from a checkout reads
``-``.  An ``exports`` row follows: the string entries of the ``__all__``
list literals of the checkout's modules, read with ``ast``, so the package
is not imported.  The exit status is 0, or 1 without a checkout.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path("src") / "entqfi"

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The lines of ``source`` that hold code, docstrings excluded."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def package_lines(checkout: Path) -> dict[str, int]:
    """``code_lines`` of each module of the checkout's package, by file name."""
    modules = sorted((checkout / PACKAGE).glob("*.py"))
    return {path.name: code_lines(path.read_text(encoding="utf-8")) for path in modules}


def exports(source: str) -> int:
    """The string entries of the ``__all__ = [...]`` list literals of a module."""
    count = 0
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)):
            continue
        if "__all__" in {target.id for target in node.targets if isinstance(target, ast.Name)}:
            entries = [entry for entry in node.value.elts if isinstance(entry, ast.Constant)]
            count += sum(isinstance(entry.value, str) for entry in entries)
    return count


def package_exports(checkout: Path) -> int:
    """``exports`` summed over the modules of the checkout's package."""
    modules = (checkout / PACKAGE).glob("*.py")
    return sum(exports(path.read_text(encoding="utf-8")) for path in modules)


def main(argv: list[str]) -> int:
    if not argv:
        sys.exit(__doc__)
    counts = [package_lines(Path(checkout)) for checkout in argv]
    names = sorted(set().union(*counts))
    width = max(len(name) for name in [*names, "module"]) + 2
    cols = [max(len(checkout), 6) + 2 for checkout in argv]

    def row(label: str, cells) -> str:
        return label.ljust(width) + "".join(str(c).rjust(w) for c, w in zip(cells, cols))

    print(row("module", argv))
    for name in names:
        print(row(name, [count.get(name, "-") for count in counts]))
    print(row("total", [sum(count.values()) for count in counts]))
    print(row("exports", [package_exports(Path(checkout)) for checkout in argv]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
