"""``scripts/code_lines.py`` on a small synthetic module: blank lines,
comments and docstrings are left out, every other line counts."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

_MODULE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # code with a trailing comment


class A:
    """Class docstring."""

    x = """not a docstring,
    but a value"""

    def f(self, a,
          b):
        """Function docstring."""
        return (a +
                b)


async def g():
    \'\'\'Async docstring.\'\'\'
    "an expression string after the first statement"
'''


def test_counts_only_code_lines():
    # import, class, the two lines of x, the two lines of def, the two
    # lines of return, async def, the expression string
    assert code_lines.code_lines(_MODULE) == 10


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "one.py").write_text(_MODULE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "two.py").write_text("x = 1\n\n# end\n")
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [
        "    10  one.py", "     1  pkg/two.py", "    11  total"]
