"""Every dotted name that the sources' and the tests' docstrings and
comments cite in double backticks under a steinsim submodule
(``mc.sweep``, ``hyptest._statistics``), and that the README cites in
single backticks under ``steinsim`` or a submodule, names an attribute
that exists; no source module imports a name it never uses; and every
name the package defines is read by the package or the benchmark, not
only by the tests."""

import ast
import functools
import importlib
import re
from pathlib import Path

import steinsim

SOURCES = Path(steinsim.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"
PERFBENCH = TESTS.parent / "perfbench"
CITED = re.compile(r"``((?:%s)(?:\.\w+)+)``" % "|".join(steinsim._SUBMODULES))
README_CITED = re.compile(r"(?<!`)`((?:steinsim|%s)(?:\.\w+)+)`(?!`)"
                          % "|".join(steinsim._SUBMODULES))


def _citations(directory: Path) -> set:
    return {(path.name, name) for path in sorted(directory.glob("*.py"))
            for name in CITED.findall(path.read_text())}


def test_cited_submodule_names_resolve():
    sources, tests = _citations(SOURCES), _citations(TESTS)
    assert sources and tests  # the pattern still finds both sets of citations
    stale = []
    for source, name in sorted(sources | tests):
        module, *attrs = name.split(".")
        try:
            functools.reduce(getattr, attrs, importlib.import_module(f"steinsim.{module}"))
        except AttributeError:
            stale.append(f"{source}: ``{name}``")
    assert not stale, stale


def test_the_readme_citations_resolve():
    cited = sorted(set(README_CITED.findall(README.read_text())))
    assert cited  # the pattern still finds the README's citations
    stale = []
    for name in cited:
        first, *attrs = name.split(".")
        module = "steinsim" if first == "steinsim" else f"steinsim.{first}"
        try:
            functools.reduce(getattr, attrs, importlib.import_module(module))
        except AttributeError:
            stale.append(name)
    assert not stale, stale


def _annotation_names(node: ast.AST) -> set:
    """The names an annotation reads, those inside string annotations too."""
    names = set()
    for part in ast.walk(node):
        if isinstance(part, ast.Name):
            names.add(part.id)
        elif isinstance(part, ast.Constant) and isinstance(part.value, str):
            names |= _annotation_names(ast.parse(part.value, mode="eval"))
    return names


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_source_module_imports_a_name_it_never_uses():
    unused = [f"{path.name}:{line}: {name}" for path in sorted(SOURCES.glob("*.py"))
              for line, name in _unused_imports(ast.parse(path.read_text()))]
    assert not unused, unused


def _definitions(tree: ast.Module):
    """(line, name) of each module-level function, class, method and
    constant; a method's name is ``Class.method``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((item.lineno, f"{node.name}.{item.name}") for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((node.lineno, t.id) for t in targets if isinstance(t, ast.Name))


def _reads(tree: ast.Module) -> set:
    """The names a module reads: as a name, an attribute or an import."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.alias):
            reads.add(node.name.split(".")[-1])
    return reads


def test_every_source_definition_is_read_outside_the_tests():
    # library code that only the tests keep alive is dead code; dunders are
    # called by Python itself
    paths = sorted(SOURCES.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    reads = set().union(*(_reads(ast.parse(path.read_text())) for path in paths))
    unread = [f"{path.name}:{line}: {name}" for path in sorted(SOURCES.glob("*.py"))
              for line, name in _definitions(ast.parse(path.read_text()))
              if not name.rpartition(".")[2].startswith("__")
              and name.rpartition(".")[2] not in reads]
    assert not unread, unread
