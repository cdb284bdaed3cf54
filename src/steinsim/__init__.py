"""Monte Carlo assessment of point estimators on the normal-means model.

The library simulates k independent unit-variance normal observations,
compares the maximum-likelihood and James-Stein estimators by mean squared
error, test power, semi-tail standardization, and information, and backs
a CLI that writes the corresponding batch reports.

The submodules are the API: ``mc`` (draws, moments and sweeps),
``estimators``, ``assess``, ``hyptest`` and ``cli``.  Each is imported on
first access (``steinsim.mc`` or ``import steinsim.mc``), so importing the
package loads no numerical library and the command line can set its BLAS
default before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("assess", "cli", "estimators", "hyptest", "mc")


class NumericalError(ArithmeticError):
    """A number that a run cannot resolve; the command line exits 2 on it."""


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
