"""Every module under src/ and tests/ uses each name it imports."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never read in the module.

    ``from __future__`` imports are directives, not bindings. A dotted
    ``import a.b`` binds ``a``.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    return [f"line {line}: {name}" for line, name in unused]


def test_scan_finds_an_unused_import():
    source = "import os\nimport json as j\nfrom a.b import c, d\nfrom __future__ import annotations\nd(os)\n"
    assert unused_imports(source) == ["line 2: j", "line 3: c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


PACKAGE = sorted((ROOT / "src" / "gesturepipe").glob("*.py"))
USERS = sorted((ROOT / "src").rglob("*.py")) + sorted(
    p for p in (ROOT / "perfbench").rglob("*.py") if not p.name.startswith("test_")
)


def public_names(source: str) -> list[str]:
    """Each public top-level function, class and UPPER_CASE constant of ``source``."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name) and n.id.isupper()]
    return [name for name in names if not name.startswith("_")]


def unreferenced_public_names(modules: dict[str, str], users: list[str]) -> list[str]:
    """``module.name`` for each public name of ``modules`` (module name ->
    source) that no source in ``users`` reads.

    A read is a bare name that is not assigned to, an attribute or a string
    equal to the name: the benchmark's tracer looks functions up by string.
    The ``def`` or ``class`` statement or the assignment itself is not a read.
    """
    read = set()
    for source in users:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return [
        f"{module}.{name}"
        for module, source in modules.items()
        for name in public_names(source)
        if name not in read
    ]


def test_scan_finds_an_unreferenced_public_name():
    module = (
        "def used(): pass\ndef unused(): pass\ndef _private(): pass\nclass Traced: pass\n"
        "USED = 1\nUNREAD, READ = 2, 3\n_PRIVATE = 4\nAlias = int\nLIMIT: int = 5\n"
    )
    users = [module + "used()\nprint(USED)\n", "getattr(m, 'Traced')\nm.READ\n"]
    assert unreferenced_public_names({"m": module}, users) == ["m.unused", "m.UNREAD", "m.LIMIT"]


def test_every_public_name_is_used_outside_tests():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unreferenced_public_names(modules, [p.read_text(encoding="utf-8") for p in USERS]) == []


def unraised_errors(errors_source: str, users: list[str]) -> list[str]:
    """Each ``PipelineError`` subclass in ``errors_source`` that no ``raise``
    in ``users`` names in the exception it raises: ``raise Name``,
    ``raise Name(...)`` or ``raise tag(Name(...), ...)``, not the ``from`` cause."""
    raised = set()
    for source in users:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised.update(name.id for name in ast.walk(node.exc) if isinstance(name, ast.Name))
    return [
        node.name
        for node in ast.parse(errors_source).body
        if isinstance(node, ast.ClassDef)
        and any(isinstance(base, ast.Name) and base.id == "PipelineError" for base in node.bases)
        and node.name not in raised
    ]


def test_scan_finds_an_unraised_error():
    errors = "class PipelineError(Exception): pass\n" + "".join(
        f"class {name}(PipelineError): pass\n" for name in ("Called", "Bare", "Tagged", "Caught", "Cause", "Unused")
    )
    users = [
        "raise Called('x')\n", "raise Bare\n", "raise tag(Tagged('x'), 3)\n",
        "try:\n    pass\nexcept Caught:\n    raise\n", "raise Called('y') from Cause('z')\n",
    ]
    assert unraised_errors(errors, users) == ["Caught", "Cause", "Unused"]


def test_every_error_class_is_raised_in_src():
    errors = (ROOT / "src" / "gesturepipe" / "errors.py").read_text(encoding="utf-8")
    assert unraised_errors(errors, [p.read_text(encoding="utf-8") for p in PACKAGE]) == []
