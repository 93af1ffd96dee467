"""Whittle-type spectral index estimation on the sphere.

Spectrum models, chi-square sampling of empirical angular power spectra,
the concentrated Whittle estimator with CLT normalizations, closed-form
asymptotic constants, a seeded Monte Carlo engine, the JSON and CSV forms
of their objects, and a batch CLI.
"""
from . import _files, asymptotics, errors, montecarlo, sampling, spectrum, whittle
from .errors import *  # noqa: F403 -- each module's __all__ is its public API
from .spectrum import *  # noqa: F403
from .sampling import *  # noqa: F403
from .whittle import *  # noqa: F403
from .asymptotics import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from ._files import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *spectrum.__all__,
    *sampling.__all__,
    *whittle.__all__,
    *asymptotics.__all__,
    *montecarlo.__all__,
    *_files.__all__,
    "__version__",
]
