"""tools/code_lines.py: lines that are not blank, comments or docstrings."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment alone
import os  # a comment after code


def f(a,
      b):
    """Function docstring."""

    x = """a string, not
a docstring"""
    return (a +
            b)


class C:
    """Class docstring,

    with a blank line inside."""

    # another comment
    y = 1

    async def g(self):
        """Coroutine docstring."""
'''


def test_fixture_counts_code_lines_only():
    # import, both lines of def f(...), both lines of x, both lines of
    # the return, class C, y = 1 and async def g
    assert code_lines.code_lines(SOURCE) == 10


def test_a_string_after_the_first_statement_is_code():
    assert code_lines.code_lines('x = 1\n"""not a docstring"""\n') == 2
    assert code_lines.code_lines("") == 0


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    one = tmp_path / "one.py"
    one.write_text(SOURCE)
    two = tmp_path / "two.py"
    two.write_text("a = 1\n\nb = 2\n")
    assert code_lines.main([str(one), str(two)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "    10  one.py", "     2  two.py", "    12  total", ""]
