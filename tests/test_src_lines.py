import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)


def test_module_counts_sum_to_the_totals(capsys):
    src_lines.main()
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"non-blank lines: \d+", lines[0]) and re.fullmatch(r"code lines: \d+", lines[1])
    totals = [int(line.rsplit(" ", 1)[1]) for line in lines[:2]]
    modules = [re.fullmatch(r"(\w+\.py): (\d+) non-blank, (\d+) code", line) for line in lines[2:]]
    assert all(modules), lines[2:]
    assert {m[1] for m in modules} >= {"__init__.py", "tile.py", "keygraph.py"}
    assert [sum(int(m[2]) for m in modules), sum(int(m[3]) for m in modules)] == totals


def test_code_lines_leave_out_docstrings_and_comments():
    source = '''"""Module docstring,
over two lines."""

# a full-line comment
import os  # a trailing comment keeps its line


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        return os.sep
'''
    # 10 non-blank lines: 5 of docstrings, 1 comment and 4 of code
    assert src_lines.counts(source) == (10, 4)
