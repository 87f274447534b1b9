"""Every top-level name of the package has a reader outside the tests.

A name defined at the top level of a module of ``tensormoments`` (other
than ``__init__.py``), exported or not, must be read by another top-level
statement of the package or named by the benchmark in ``perfbench/``.  A
name that only tests call belongs in ``tests/conftest.py`` as a reference,
or goes.
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tensormoments"

# Defined with no reader above, each for a stated reason.
ALLOWED = {
    "weingarten_asymptotic": "leading monomial of a Weingarten value; the planned "
    "leading-order angular route (ROADMAP item 8) is built on it",
    "wishart_moment_leading": "leading coefficient of a Wishart moment; the planned "
    "leading-order angular route (ROADMAP item 8) is built on it",
}


def exported() -> list[str]:
    """The names of the top-level ``from ... import`` statements, and those
    the module ``__getattr__`` serves from ``MONTECARLO_EXPORTS``."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    names = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["MONTECARLO_EXPORTS"]:
            names += ast.literal_eval(node.value)
    return names


def test_lazy_exports_are_listed_and_served():
    import tensormoments

    lazy = list(tensormoments.MONTECARLO_EXPORTS)
    assert lazy == ["Estimate", "SampleSpec", "estimate_expectation"]
    assert set(lazy) <= set(exported())
    for name in lazy:
        assert getattr(tensormoments, name) is getattr(tensormoments.montecarlo, name)
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        tensormoments.missing


def defined(stmt) -> set[str]:
    """The names a top-level statement defines: a function, a class or the
    targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return {stmt.target.id}
    return set()


def test_every_top_level_name_has_a_reader():
    # Every (module, name) defined at the top level, and every one another
    # top-level statement reads: a name read in a module stands for that
    # module's own definition, or for the one it imports from another
    # module of the package, under an alias or not.  perfbench names traced
    # functions in strings, so its files are searched as text.
    names, reads = set(), set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        module = ast.parse(path.read_text())
        where = {
            alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(module)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
        for stmt in module.body:
            where.update((name, (path.stem, name)) for name in defined(stmt))
        for stmt in module.body:
            own = defined(stmt)
            names |= {(path.stem, name) for name in own}
            read = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)} - own
            reads |= {where[name] for name in read if name in where}
    texts = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    unread = [
        f"{module}.{name}"
        for module, name in sorted(names - reads)
        if name not in ALLOWED
        and not any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts)
    ]
    assert unread == []
    assert set(ALLOWED) <= set(exported()) & {name for _, name in names}
