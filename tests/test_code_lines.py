"""tools/code_lines.py: the code-line count that measures the package's size."""

import importlib.util
from pathlib import Path

import pytest

TOOL_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

# the lines that count are marked with "+", one per counted line
SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment                                 +

# a comment line


class A:  #                                                     +
    """Class docstring."""

    def f(self, a,  #                                           +
          b):  #                                                +
        """Function docstring,
        over two lines."""
        x = (a +  #                                             +
             b)  #                                              +
        "a string statement, not first in its body"  #          +
        s = """a string over  #                                 +
two lines"""  #                                                 +
        return x, s  #                                          +


async def g():  #                                               +
    """Async function docstring."""
    return [  #                                                 +
        1,  #                                                   +

        2,  #                                                   +
    ]  #                                                        +
'''


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only(tool, tmp_path):
    # docstrings, comments and blank lines are left out; every line of a
    # multi-line statement counts, and so does a string that is not a docstring
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET)
    marked = sum(line.endswith("+") for line in SNIPPET.splitlines())
    assert marked == 15
    assert tool.code_lines(path) == marked


def test_main_prints_each_module_and_the_total(tool, tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"    15  {tmp_path / 'a.py'}",
        f"     1  {tmp_path / 'b.py'}",
        "    16  total",
    ]
