"""Every dotted name that the sources' and the tests' docstrings and
comments cite in double backticks under a steinsim submodule
(``mc.sweep``, ``hyptest._statistics``) names an attribute that exists."""

import functools
import importlib
import re
from pathlib import Path

import steinsim

SOURCES = Path(steinsim.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
CITED = re.compile(r"``((?:%s)(?:\.\w+)+)``" % "|".join(steinsim._SUBMODULES))


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
