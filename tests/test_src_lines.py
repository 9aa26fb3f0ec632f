"""tools/src_lines.py: docstrings, comments and blank lines are not code, and
every line of any other string literal is."""

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("src_lines", _ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

# Eight code lines: the import, the def, the three lines of TEXT, the return,
# the class line and ``sides = 0``; the three docstrings, the comment line and
# the blank lines are not code.
FIXTURE = '''"""A module docstring
over two lines."""

import math  # a trailing comment leaves the line code

# a comment line


def area(r):
    """A function docstring."""
    TEXT = """a plain string literal
    over three lines, all of them code
    """
    return math.pi * r * r


class Shape:
    """A class docstring."""

    sides = 0
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines_only():
    assert src_lines.code_lines(FIXTURE) == 8


def test_package_lines_count_each_module_of_a_checkout(tmp_path, capsys):
    package = tmp_path / src_lines.PACKAGE
    package.mkdir(parents=True)
    (package / "a.py").write_text(FIXTURE, encoding="utf-8")
    (package / "b.py").write_text("x = 1\n\n", encoding="utf-8")
    assert src_lines.package_lines(tmp_path) == {"a.py": 8, "b.py": 1}
    assert src_lines.main([str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[-1] for row in rows[1:]] == ["8", "1", "9", "0"]


# Three exports: the two string entries of the first __all__ list literal and
# the one of the last.  A starred entry, an augmented or computed __all__,
# the list of another name and a function's __all__ are not counted.
EXPORTS_FIXTURE = '''from . import other

__all__ = ["area", "Shape", *other.__all__]
__all__ += ["ignored"]
NAMES = ["not", "exported"]
__all__ = __all__ + ["ignored"]
__all__ = ["last"]


def area():
    __all__ = ["local"]
'''


def test_exports_count_the_string_entries_of_each_all_list_literal(tmp_path, capsys):
    package = tmp_path / src_lines.PACKAGE
    package.mkdir(parents=True)
    (package / "a.py").write_text(EXPORTS_FIXTURE, encoding="utf-8")
    assert src_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["exports", "3"]
