"""Prior candidate functions under the Kahler Laplace-Beltrami operator.

On a Kahler manifold the Laplace-Beltrami operator reduces to

    Delta psi = 2 g^{i jbar} d_i d_jbar psi,

so superharmonicity (Delta psi <= 0) of a candidate prior function is a
contraction of its mixed Wirtinger Hessian with the inverse metric.  The
candidates are polynomials in the factors (1 - xi^a conj(xi^b)), whose
mixed Hessians are available analytically, so every candidate has one exact
path and no finite differences.

Everything runs on root tuples with a leading sample axis, shape (S, n):
the candidate's values and Hessians, the Cauchy inverse metric
(:func:`cepgeo.closed_form.cauchy_inverse`) and their contraction.  The
per-point functions are the S = 1 case of the same kernels, and a tuple gets
the same bits in any batch, so :func:`check_superharmonic` takes the
sampler's rounds as they are drawn and never holds the whole sample.

Superharmonicity reports are sampled evidence over the stability region,
never proofs: the sample count always travels with the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .closed_form import ModelPoint, cauchy_inverse, factor_matrix
from .filters import EPS_STAB_DEFAULT, check_eps_stab
from .sampling import root_tuple_rounds

REJECT_RADIUS_DEFAULT = 1e-4


def _coordinates(m: ModelPoint) -> np.ndarray:
    """The model point as a one-tuple batch, shape (1, n)."""
    return np.asarray(m.params, dtype=complex)[None, :]


@dataclass(frozen=True)
class PriorFunction:
    """A candidate prior: a sum of products of factors (1 - xi^a conj(xi^b)).

    ``terms`` lists each product as its (a, b) index pairs.  ``values`` maps
    root tuples ``xi`` of shape (S, n) to psi, shape (S,), and ``hessians``
    to the analytic d_i d_jbar psi, shape (S, n, n).  A candidate is a
    function of the coordinates alone; the pole/zero signature enters only
    through the metric.  The per-point ``evaluate`` is the S = 1 case.

    Each operand of a complex product is named first: numpy reuses a large
    unnamed right operand in place, which swaps the factors and, with fused
    multiply-adds, the rounding, so a tuple would not get the same bits in
    every batch.
    """

    kind: str
    terms: tuple[tuple[tuple[int, int], ...], ...]

    def values(self, xi: np.ndarray) -> np.ndarray:
        a = factor_matrix(xi)
        total = np.zeros(xi.shape[:-1])
        for factors in self.terms:
            total = total + math.prod(a[..., i, j] for i, j in factors).real
        return total

    def hessians(self, xi: np.ndarray) -> np.ndarray:
        xic = xi.conj()
        a = factor_matrix(xi)
        hess = np.zeros(xi.shape + xi.shape[-1:], dtype=complex)
        for factors in self.terms:
            vals = [a[..., i, j] for i, j in factors]

            def rest(*skip):
                return math.prod(v for t, v in enumerate(vals) if t not in skip)

            for s, (a_s, b_s) in enumerate(factors):
                # d_i d_jbar of the factor itself: -delta_{i,a} delta_{j,b}
                hess[..., a_s, b_s] -= rest(s)
                # first-derivative pairs across distinct factors
                for t, (a_t, b_t) in enumerate(factors):
                    if t != s:
                        # (d_i f_s)(d_jbar f_t) = (-conj(xi^{b_s}))(-xi^{a_t})
                        rest2 = rest(s, t)
                        hess[..., a_s, b_t] += xic[..., b_s] * xi[..., a_t] * rest2
        return hess

    def evaluate(self, m: ModelPoint) -> float:
        return float(self.values(_coordinates(m))[0])


def prior_psi1(n: int = 2) -> PriorFunction:
    """Additive candidate sum_k (1 - |xi^k|^2), defined for any dimension."""
    return PriorFunction("psi1", tuple(((k, k),) for k in range(n)))


def prior_psi2(n: int = 2) -> PriorFunction:
    """Product candidate prod_k (1 - |xi^k|^2)."""
    return PriorFunction("psi2", (tuple((k, k) for k in range(n)),))


def prior_psi3(n: int = 2) -> PriorFunction:
    """Two-dimensional candidate (1-xi^1 conj(xi^2))(1-xi^2 conj(xi^1))(1-|xi^1|^2)(1-|xi^2|^2).

    Any dimension ``n`` other than 2 raises ``ValueError``: the candidate
    reads exactly two coordinates.
    """
    if n != 2:
        raise ValueError(f"psi3 is defined on two coordinates, not {n}")
    return PriorFunction("psi3", (((0, 1), (1, 0), (0, 0), (1, 1)),))


BUILTINS: dict[str, Callable[..., PriorFunction]] = {
    "psi1": prior_psi1,
    "psi2": prior_psi2,
    "psi3": prior_psi3,
}


def _laplace_beltrami(psi: PriorFunction, xi: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Delta psi = 2 Re sum_ij g^{i jbar} d_i d_jbar psi at each tuple of ``xi`` (S, n)."""
    ginv = cauchy_inverse(xi, c)
    hess = psi.hessians(xi)
    return np.sum(ginv * hess, axis=(-2, -1)).real * 2.0


def laplace_beltrami(psi: PriorFunction, m: ModelPoint) -> float:
    """Delta psi = 2 g^{i jbar} d_i d_jbar psi at a model point.

    The one-tuple case of the batched kernel that :func:`check_superharmonic`
    runs, so the two agree bitwise.  Uses the candidate's analytic mixed
    Hessian; coincident coordinates propagate the inverse-metric degeneracy
    handling.
    """
    return float(_laplace_beltrami(psi, _coordinates(m), np.asarray(m.signature, dtype=float))[0])


def _quartiles(values: np.ndarray) -> np.ndarray:
    """min, p25, p50, p75 and max of ``values``, bitwise as ``np.percentile`` gives them.

    numpy's default 'linear' rule on the sorted values: the virtual index
    q (S - 1), its floor (-1, the last value, at the top), and numpy's
    interpolation, which steps back from the upper value when the fraction
    is at least 1/2.  ``np.percentile`` itself partitions through
    ``np.unique``, whose first call imports ``numpy.ma``.
    """
    ordered = np.sort(values)
    virtual = (ordered.size - 1) * np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    below = np.floor(virtual)
    below[virtual >= ordered.size - 1] = -1.0
    above = np.where(below < 0.0, -1.0, below + 1.0)
    t = virtual - below
    a = ordered[below.astype(np.intp)]
    b = ordered[above.astype(np.intp)]
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


@dataclass(frozen=True)
class SuperharmonicReport:
    """Sampled evidence about the sign of Delta psi over the stability region.

    ``violations == 0`` claims superharmonicity only over the sampled
    points, never globally.
    """

    psi: str
    signature: tuple[int, ...]
    samples: int
    seed: int
    violations: int
    worst_value: float
    margin_histogram: dict[str, float]


def check_superharmonic(
    psi: PriorFunction,
    model_shape: tuple[int, int],
    samples: int,
    seed: int,
    eps_stab: float = EPS_STAB_DEFAULT,
) -> SuperharmonicReport:
    """Evaluate Delta psi at seeded random points of an AR(p)/MA(q) polydisk.

    Near-coincident tuples are rejected at ``REJECT_RADIUS_DEFAULT`` because the
    candidate ratios involve |xi^1 - xi^2|^2 cancellations that amplify
    rounding.  Delta psi is evaluated on each round of
    :func:`cepgeo.sampling.root_tuple_rounds` as it is drawn (about 256 KiB
    per (S, n, n) array); each value equals :func:`laplace_beltrami` at its
    tuple, bitwise.  Deterministic for a fixed seed.
    """
    p, q = model_shape
    n = p + q
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if n < 1:
        raise ValueError("model shape must have at least one coordinate")
    check_eps_stab(eps_stab)  # the sampling radius is 1 - eps_stab
    signature = (-1,) * p + (1,) * q
    c = np.asarray(signature, dtype=float)
    values = np.empty(samples)  # before the first draw, so a size too large fails at once
    for start, xi in root_tuple_rounds(seed, samples, n, 1.0 - eps_stab, REJECT_RADIUS_DEFAULT):
        values[start : start + len(xi)] = _laplace_beltrami(psi, xi, c)
    violations = int(np.sum(values > 0.0))
    quartiles = _quartiles(values)
    histogram = {
        "min": float(quartiles[0]),
        "p25": float(quartiles[1]),
        "p50": float(quartiles[2]),
        "p75": float(quartiles[3]),
        "max": float(quartiles[4]),
        "mean": float(values.mean()),
        "std": float(values.std()),
    }
    return SuperharmonicReport(
        psi=psi.kind,
        signature=signature,
        samples=samples,
        seed=seed,
        violations=violations,
        worst_value=float(values.max()),
        margin_histogram=histogram,
    )

