"""Every name the package exports has a reason to be public.

A name that ``tensormoments/__init__.py`` exports must be read by another
module of the package (outside its own definition), by the benchmark in
``perfbench/``, or by the acceptance suite.  A name that only unit tests
call belongs in ``tests/`` as a reference, or goes.
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tensormoments"

# Exported with no reader above, each for a stated reason.
ALLOWED = {
    "weingarten_asymptotic": "leading monomial of a Weingarten value; the planned "
    "leading-order angular route (ROADMAP item 8) is built on it",
    "wishart_moment_leading": "leading coefficient of a Wishart moment; the planned "
    "leading-order angular route (ROADMAP item 8) is built on it",
    "gram_matrix": "the linear system the Weingarten values solve, the reference "
    "the Weingarten tests check the tables against",
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


def package_reads() -> set[str]:
    """Names read in the package's modules, each top-level definition's own
    name not counted inside it."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            own = {stmt.name} if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else set()
            names |= {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)} - own
    return names


def test_every_export_has_a_reader():
    # perfbench names traced functions in strings, so its files are searched
    # as text.
    texts = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    texts.append((ROOT / "tests" / "test_acceptance.py").read_text())
    reads = package_reads()
    names = exported()
    unread = [
        name
        for name in names
        if name not in reads
        and name not in ALLOWED
        and not any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts)
    ]
    assert unread == []
    assert set(ALLOWED) <= set(names)
