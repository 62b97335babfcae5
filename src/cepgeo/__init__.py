"""Information geometry of minimum-phase linear filters.

Submodules:

- ``filters``: transfer-function models, validation, cepstrum
- ``closed_form``: potential, metric, connections, curvature in closed form
- ``quadrature``: the independent contour-integration oracle
- ``priors``: Laplace-Beltrami checks for prior candidates
- ``sampling``: seeded root tuples inside the stability polydisk
- ``serialization``: JSON interchange formats
- ``cli``: command-line entry point
"""

__version__ = "0.1.0"
