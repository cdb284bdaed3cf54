"""Monte Carlo assessment of point estimators on the normal-means model.

The library simulates k independent unit-variance normal observations,
compares the maximum-likelihood and James-Stein estimators by mean squared
error, test power, semi-tail standardization, and information, and backs
a CLI that writes the corresponding batch reports.

The submodules are the API: ``mc`` (draws, moments and sweeps),
``estimators``, ``assess``, ``hyptest`` and ``cli``.
"""

__version__ = "0.1.0"

from . import assess, estimators, hyptest, mc  # noqa: E402
