"""Print the two source line counts of the package: non-blank lines, and
code lines, which leave out docstrings and full-line comments as well.
Then print both counts for each module, which sum to the two totals.

Usage: python tools/src_lines.py
"""

from __future__ import annotations

import ast
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by the module, class and function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(source: str) -> tuple[int, int]:
    """Non-blank lines, and non-blank lines outside docstrings that are not
    full-line comments."""
    docs = docstring_lines(ast.parse(source))
    non_blank = code = 0
    for number, line in enumerate(source.splitlines(), 1):
        text = line.strip()
        if text:
            non_blank += 1
            code += number not in docs and not text.startswith("#")
    return non_blank, code


def main() -> None:
    package = Path(__file__).resolve().parent.parent / "src" / "leapertour"
    modules = {f.name: counts(f.read_text()) for f in sorted(package.glob("*.py"))}
    non_blank, code = map(sum, zip(*modules.values()))
    print(f"non-blank lines: {non_blank}")
    print(f"code lines: {code}")
    for name, (module_non_blank, module_code) in modules.items():
        print(f"{name}: {module_non_blank} non-blank, {module_code} code")


if __name__ == "__main__":
    main()
