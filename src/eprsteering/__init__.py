"""Entropic EPR-steering witnesses for windowed position/momentum data.

The package turns discrete coincidence histograms of conjugate continuous
observables into steering statements: conditional-entropy witnesses for a
chosen steering direction, a mutual-information witness that certifies both
directions at once, coarse-graining sweeps over detector resolution, Poisson
bootstrap significance, and an analytic correlated-Gaussian model that serves
as both a synthetic data source and a closed-form oracle.
"""

from importlib import import_module as _import_module

from .errors import *  # noqa: F403
from .grids import *  # noqa: F403
from .entropy import *  # noqa: F403
from .witness import *  # noqa: F403
from .coarse import *  # noqa: F403
from .bootstrap import *  # noqa: F403
from .spdc import *  # noqa: F403
from .io import *  # noqa: F403

__version__ = "0.1.0"

#: Every submodule's ``__all__``, re-exported in import order.
__all__ = ["__version__"] + [
    name
    for module in ("errors", "grids", "entropy", "witness", "coarse", "bootstrap", "spdc", "io")
    for name in _import_module(f".{module}", __name__).__all__
]
