"""Every dotted name that the sources' and the tests' docstrings and
comments cite in double backticks under a steinsim submodule
(``mc.sweep``, ``hyptest._statistics``), and that the README cites in
single backticks under ``steinsim`` or a submodule, names an attribute
that exists; and no source module imports a name it never uses."""

import ast
import functools
import importlib
import re
from pathlib import Path

import steinsim

SOURCES = Path(steinsim.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"
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
