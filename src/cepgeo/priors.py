"""Prior candidate functions under the Kahler Laplace-Beltrami operator.

On a Kahler manifold the Laplace-Beltrami operator reduces to

    Delta psi = 2 g^{i jbar} d_i d_jbar psi,

so superharmonicity (Delta psi <= 0) of a candidate prior function is a
contraction of its mixed Wirtinger Hessian with the inverse metric.  The
candidates are polynomials in the factors (1 - xi^a conj(xi^b)), whose
mixed Hessians are available analytically, so every candidate has one exact
path and no finite differences.

Superharmonicity reports are sampled evidence over the stability region,
never proofs: the sample count always travels with the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .closed_form import ModelPoint, inverse_metric
from .filters import EPS_STAB_DEFAULT, check_eps_stab
from .sampling import sample_root_tuples

REJECT_RADIUS_DEFAULT = 1e-4


@dataclass(frozen=True)
class _FactorPolynomial:
    """Sum of products of factors (1 - xi^a conj(xi^b)), with analytic Hessian."""

    terms: tuple[tuple[tuple[int, int], ...], ...]

    def value(self, m: ModelPoint) -> float:
        xi = m.params
        total = 0.0
        for factors in self.terms:
            prod = 1.0 + 0.0j
            for a, b in factors:
                prod *= 1.0 - xi[a] * xi[b].conjugate()
            total += prod.real
        return total

    def mixed_hessian(self, m: ModelPoint) -> np.ndarray:
        xi = m.params
        n = m.n
        hess = np.zeros((n, n), dtype=complex)
        for factors in self.terms:
            vals = [1.0 - xi[a] * xi[b].conjugate() for a, b in factors]
            k = len(factors)
            for s, (a_s, b_s) in enumerate(factors):
                rest = 1.0 + 0.0j
                for t in range(k):
                    if t != s:
                        rest *= vals[t]
                # d_i d_jbar of the factor itself: -delta_{i,a} delta_{j,b}
                hess[a_s, b_s] -= rest
                # first-derivative pairs across distinct factors
                for t, (a_t, b_t) in enumerate(factors):
                    if t == s:
                        continue
                    rest2 = 1.0 + 0.0j
                    for u in range(k):
                        if u != s and u != t:
                            rest2 *= vals[u]
                    # (d_i f_s)(d_jbar f_t) = (-conj(xi^{b_s}))(-xi^{a_t})
                    hess[a_s, b_t] += xi[b_s].conjugate() * xi[a_t] * rest2
        return hess


@dataclass(frozen=True)
class PriorFunction:
    """A candidate prior: real evaluator plus its analytic mixed Hessian."""

    kind: str
    evaluate: Callable[[ModelPoint], float]
    mixed_hessian: Callable[[ModelPoint], np.ndarray]


def prior_psi1(n: int = 2) -> PriorFunction:
    """Additive candidate sum_k (1 - |xi^k|^2), defined for any dimension."""
    poly = _FactorPolynomial(terms=tuple(((k, k),) for k in range(n)))
    return PriorFunction(kind="psi1", evaluate=poly.value, mixed_hessian=poly.mixed_hessian)


def prior_psi2(n: int = 2) -> PriorFunction:
    """Product candidate prod_k (1 - |xi^k|^2)."""
    poly = _FactorPolynomial(terms=(tuple((k, k) for k in range(n)),))
    return PriorFunction(kind="psi2", evaluate=poly.value, mixed_hessian=poly.mixed_hessian)


def prior_psi3() -> PriorFunction:
    """Two-dimensional candidate (1-xi^1 conj(xi^2))(1-xi^2 conj(xi^1))(1-|xi^1|^2)(1-|xi^2|^2)."""
    poly = _FactorPolynomial(terms=(((0, 1), (1, 0), (0, 0), (1, 1)),))
    return PriorFunction(kind="psi3", evaluate=poly.value, mixed_hessian=poly.mixed_hessian)


BUILTINS: dict[str, Callable[..., PriorFunction]] = {
    "psi1": prior_psi1,
    "psi2": prior_psi2,
    "psi3": lambda n=2: prior_psi3(),
}


def laplace_beltrami(psi: PriorFunction, m: ModelPoint) -> float:
    """Delta psi = 2 g^{i jbar} d_i d_jbar psi at a model point.

    Uses the candidate's analytic mixed Hessian.  Coincident coordinates
    propagate the inverse-metric degeneracy handling.
    """
    return float(np.sum(inverse_metric(m) * psi.mixed_hessian(m)).real * 2.0)


@dataclass(frozen=True)
class SuperharmonicReport:
    """Sampled evidence about the sign of Delta psi over the stability region.

    ``violations == 0`` claims superharmonicity only over the sampled
    points, never globally.
    """

    kind: str
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
    reject_radius: float = REJECT_RADIUS_DEFAULT,
) -> SuperharmonicReport:
    """Evaluate Delta psi at seeded random points of an AR(p)/MA(q) polydisk.

    Near-coincident tuples are rejected at ``reject_radius`` because the
    candidate ratios involve |xi^1 - xi^2|^2 cancellations that amplify
    rounding.  Deterministic for a fixed seed.
    """
    p, q = model_shape
    n = p + q
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if n < 1:
        raise ValueError("model shape must have at least one coordinate")
    check_eps_stab(eps_stab)  # the sampling radius is 1 - eps_stab
    signature = (-1,) * p + (1,) * q
    tuples = sample_root_tuples(seed, samples, n, 1.0 - eps_stab, reject_radius)
    values = np.empty(samples)
    for s in range(samples):
        point = ModelPoint(tuple(tuples[s]), signature)
        values[s] = laplace_beltrami(psi, point)
    violations = int(np.sum(values > 0.0))
    quartiles = np.percentile(values, [0, 25, 50, 75, 100])
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
        kind=psi.kind,
        signature=signature,
        samples=samples,
        seed=seed,
        violations=violations,
        worst_value=float(values.max()),
        margin_histogram=histogram,
    )

