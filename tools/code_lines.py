"""Print the size of each module of the gesturepipe package, and the total.

Code lines are the lines that hold a token of Python code: blank lines,
comment-only lines and the lines of docstrings (the string that opens a
module, class or function body) do not count. Physical lines count every
line of the file. ROADMAP.md and CHANGES.md quote the code-line figure.

Usage: python3 tools/code_lines.py [package directory] [--against REV]
(default: src/gesturepipe beside this script's parent directory). With
``--against``, each module's counts at git revision REV (read with ``git
show``) are printed beside the working tree's, with the difference.
"""
from __future__ import annotations

import argparse
import ast
import io
import subprocess
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


def counts(source: str) -> tuple[int, int]:
    """(code lines, physical lines) of ``source``."""
    return code_lines(source), len(source.splitlines())


def sources_at(rev: str, root: Path, package: Path) -> dict[str, str]:
    """Module name -> source of each ``*.py`` directly in ``package`` at git revision ``rev``."""
    git = ["git", "-C", str(root)]
    prefix = package.relative_to(root).as_posix()
    names = subprocess.run([*git, "ls-tree", "--name-only", rev, f"{prefix}/"],
                           capture_output=True, text=True, check=True).stdout.split()
    return {Path(n).name: subprocess.run([*git, "show", f"{rev}:{n}"], capture_output=True, text=True,
                                         check=True).stdout
            for n in names if n.endswith(".py")}


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description="Code and physical lines per module of the package.")
    parser.add_argument("package", nargs="?", type=Path, default=root / "src" / "gesturepipe")
    parser.add_argument("--against", metavar="REV", help="also print REV's counts and the difference")
    args = parser.parse_args(argv)
    now = {p.name: counts(p.read_text(encoding="utf-8")) for p in sorted(args.package.glob("*.py"))}
    rows, header = dict(now), ("code", "physical")
    if args.against is not None:
        try:
            sources = sources_at(args.against, root, args.package.resolve())
        except subprocess.CalledProcessError as exc:
            print(exc.stderr.strip(), file=sys.stderr)
            return 2
        before, rows = {name: counts(source) for name, source in sources.items()}, {}
        for name in sorted({*before, *now}):
            b, n = before.get(name, (0, 0)), now.get(name, (0, 0))
            rows[name] = (*b, *n, n[0] - b[0], n[1] - b[1])
        header = (f"code@{args.against}", f"physical@{args.against}", *header, "Δcode", "Δphysical")
    rows["total"] = tuple(map(sum, zip(*rows.values())))
    widths = [max(len(h), 6) for h in header]
    print(f"{'module':<16} " + " ".join(f"{h:>{w}}" for h, w in zip(header, widths)))
    for name, c in rows.items():
        print(f"{name:<16} " + " ".join(f"{v:>{w}}" for v, w in zip(c, widths)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
