"""Every dotted name that the sources' docstrings and comments cite in
double backticks under a steinsim submodule (``mc.sweep``,
``hyptest._statistics``) names an attribute that exists."""

import functools
import importlib
import re
from pathlib import Path

import steinsim

SOURCES = Path(steinsim.__file__).resolve().parent
CITED = re.compile(r"``((?:%s)(?:\.\w+)+)``" % "|".join(steinsim._SUBMODULES))


def test_cited_submodule_names_resolve():
    cited = {(path.name, name) for path in sorted(SOURCES.glob("*.py"))
             for name in CITED.findall(path.read_text())}
    assert cited  # the pattern still finds the sources' citations
    stale = []
    for source, name in sorted(cited):
        module, *attrs = name.split(".")
        try:
            functools.reduce(getattr, attrs, importlib.import_module(f"steinsim.{module}"))
        except AttributeError:
            stale.append(f"{source}: ``{name}``")
    assert not stale, stale
