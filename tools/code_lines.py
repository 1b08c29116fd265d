"""Print the size of each module of the gesturepipe package, and the total.

Code lines are the lines that hold a token of Python code: blank lines,
comment-only lines and the lines of docstrings (the string that opens a
module, class or function body) do not count. Physical lines count every
line of the file. ROADMAP.md and CHANGES.md quote the code-line figure.

Usage: python3 tools/code_lines.py [package directory]
(default: src/gesturepipe beside this script's parent directory)
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code, docstrings excluded."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    lines = set()
    for token in tokens:
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "gesturepipe"
    total_code = total_physical = 0
    print(f"{'module':<16} {'code':>6} {'physical':>9}")
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        code, physical = code_lines(source), len(source.splitlines())
        total_code, total_physical = total_code + code, total_physical + physical
        print(f"{path.name:<16} {code:>6} {physical:>9}")
    print(f"{'total':<16} {total_code:>6} {total_physical:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
