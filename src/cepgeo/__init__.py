"""Information geometry of minimum-phase linear filters.

Submodules are imported lazily so that the CLI can configure thread caps
before the numeric stack loads:

- ``filters``: transfer-function models, validation, cepstrum
- ``closed_form``: potential, metric, connections, curvature in closed form
- ``quadrature``: the independent contour-integration oracle
- ``priors``: Laplace-Beltrami checks for prior candidates
- ``sampling``: seeded root tuples inside the stability polydisk
- ``serialization``: JSON interchange formats
- ``cli``: command-line entry point
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = (
    "filters",
    "closed_form",
    "quadrature",
    "priors",
    "sampling",
    "serialization",
    "cli",
)

__all__ = list(_SUBMODULES)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULES))
