"""Closed-form information geometry of stable ARMA filters.

Coordinates are the poles followed by the zeros, ``xi^1 .. xi^n``, with a
signature ``c_i = -1`` for poles and ``+1`` for zeros, on the constant-gain
submanifold.  The geometry is Kahler: the metric is the mixed Hessian of
the potential

    K = sum_{r>=1} (1/r^2) |sum_i c_i (xi^i)^r|^2
      = sum_{i,j} c_i c_j Li2(xi^i conj(xi^j)),

evaluated exactly through the dilogarithm Li2 (no truncated series), and
every tensor below has a rational closed form in the coordinates:

    g_{i jbar}        = c_i c_j / (1 - xi^i conj(xi^j))
    Gamma^0_{ij,kbar} = c_j c_k delta_ij conj(xi^k) / (1 - xi^j conj(xi^k))^2
    T_{ij,kbar}       = -2 c_i c_j c_k conj(xi^k)
                        / ((1 - xi^i conj(xi^k)) (1 - xi^j conj(xi^k)))
    R^0_{i jbar}      = -1 / (1 - xi^i conj(xi^j))^2
    R^{(alpha)}_{i jbar} = R^0_{i jbar} (1 + (alpha/2) (c_i + c_j))

The sign of T here is the one fixed by its defining circle integral
(1/pi i) oint (d_i log h)(d_j log h)(d_k log h)* dz/z; the quadrature module
computes that integral independently and the two must agree.

Each quantity has one code path.  Only :func:`factor_matrix` forms the
factor 1 - xi^i conj(xi^j) (the metric and Ricci diagonals read its real
part), and only :func:`metric_determinant` forms det g; the Li2 argument in
:func:`kahler_potential` is the product xi^i conj(xi^j) itself.
``connection0``, ``t_tensor`` and ``ricci0`` are the alpha = 0 reads of
``alpha_connection`` and ``alpha_ricci``.

Every entry is computed with one fixed operand order, so a point gets the
same bits from every call, and no function holds an n^3 temporary beyond
the arrays it returns.  The blocks that vanish on the constant-gain
manifold (the pure metric g_{ij}, Gamma_{ij,k} and T_{ijk}) are not
allocated: each is a read-only, zero-strided view of one +0.0, so only the
dense blocks cost memory and fresh pages.

Index conventions: ``mixed`` arrays put the barred index last; the inverse
metric ``B[i][j] = g^{i jbar}`` satisfies ``sum_j B[i][j] g[k][j] = delta_ik``
and contractions are ``sum_{ij} B[i][j] X[i][j]``.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .filters import ValidatedFilter, coordinate_labels

DELTA_COINCIDE = 1e-8
# B_2k / (2k+1)!, k = 1..14, from the even Bernoulli numbers B_2k
_LI2_COEFFS = tuple(
    b / math.factorial(2 * k + 1)
    for k, b in enumerate(
        (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
         43867 / 798, -174611 / 330, 854513 / 138, -236364091 / 2730, 8553103 / 6,
         -23749461029 / 870),
        start=1,
    )
)


# One complex +0.0 under every structurally zero block; bytes are immutable,
# so no view of it can be made writeable.
_ZERO = bytes(16)


class CoincidentRootsError(ValueError):
    """Raised when coincident coordinates make the metric singular."""

    code = "COINCIDENT_ROOTS"


class CoincidentRootsWarning(UserWarning):
    """Nearly coincident coordinates: the metric is nearly singular."""


class DeterminantUnderflowWarning(UserWarning):
    """det g at distinct coordinates is below the smallest normal double."""


@dataclass(frozen=True)
class ModelPoint:
    """Point on the constant-gain manifold: root coordinates plus signature."""

    params: tuple[complex, ...]
    signature: tuple[int, ...]

    def __post_init__(self):
        params = tuple(complex(p) for p in self.params)
        signature = tuple(int(c) for c in self.signature)
        if len(params) != len(signature):
            raise ValueError("params and signature must have equal length")
        if any(c not in (-1, 1) for c in signature):
            raise ValueError("signature entries must be -1 (pole) or +1 (zero)")
        if any(abs(p) >= 1.0 for p in params):
            raise ValueError("all coordinates must lie inside the open unit disk")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "signature", signature)

    @classmethod
    def from_filter(cls, f: ValidatedFilter) -> "ModelPoint":
        return cls(params=f.coordinates, signature=f.signature)

    @property
    def n(self) -> int:
        return len(self.params)

    @property
    def labels(self) -> tuple[str, ...]:
        return coordinate_labels(self.signature)


@dataclass(frozen=True)
class HermitianMetric:
    """Fisher metric blocks in complexified coordinates.

    ``mixed[i][j]`` is g_{i jbar}; ``pure[i][j]`` is g_{ij}, which vanishes
    whenever the zeroth cepstrum coefficient is constant in the parameters
    (always the case on the constant-gain submanifold).  The closed form's
    ``pure`` is a read-only view with zero strides; copy it to write to it.
    """

    mixed: np.ndarray
    pure: np.ndarray
    residual: float = 0.0
    converged: bool = True


@dataclass(frozen=True)
class ConnectionTensors:
    """Connection components and symmetric cubic tensor, barred index last.

    ``gamma_mixed`` holds Gamma^{(alpha)}_{ij,kbar}, ``gamma_pure``
    Gamma^{(alpha)}_{ij,k}, ``gamma_cross`` Gamma^{(alpha)}_{i jbar,k} and
    ``gamma_cross_bar`` Gamma^{(alpha)}_{i jbar,kbar}; ``t_mixed`` and
    ``t_pure`` the corresponding T components.  The closed form's
    ``gamma_pure`` and ``t_pure`` vanish and are read-only views with zero
    strides; copy them to write to them.
    """

    alpha: float
    gamma_mixed: np.ndarray
    gamma_pure: np.ndarray
    gamma_cross: np.ndarray
    gamma_cross_bar: np.ndarray
    t_mixed: np.ndarray
    t_pure: np.ndarray
    residual: float = 0.0
    converged: bool = True


@dataclass(frozen=True)
class CurvatureReport:
    """Ricci block R_{i jbar}, scalar curvature and the inverse metric g^{i jbar}; no det g."""

    alpha: float
    ricci: np.ndarray
    scalar: float
    inverse: np.ndarray


@dataclass(frozen=True)
class KahlerPotential:
    """The Kahler potential K, the squared norm of the complex cepstrum."""

    value: float


def factor_matrix(xi: np.ndarray) -> np.ndarray:
    """a[..., i, j] = 1 - xi^i conj(xi^j) over any leading axes of ``xi`` (..., n)."""
    xic = xi.conj()
    return 1.0 - xi[..., :, None] * xic[..., None, :]


def _zeros(shape: tuple[int, ...]) -> np.ndarray:
    """A structurally zero block: a read-only view of one complex +0.0, no memory per entry."""
    return np.ndarray(shape, dtype=complex, buffer=_ZERO, strides=(0,) * len(shape))


def _arrays(m: ModelPoint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinates xi, signature c and a[i][j] = 1 - xi^i conj(xi^j)."""
    xi = np.asarray(m.params, dtype=complex)
    return xi, np.asarray(m.signature, dtype=float), factor_matrix(xi)


def _hermitize(x: np.ndarray) -> np.ndarray:
    # rebuilt from the upper triangle and the real diagonal, so conjugate-transpose
    # symmetry is exact (fused complex multiplies are not bit-symmetric under conjugation)
    upper = np.triu(x, 1)
    return upper + upper.conj().T + np.diag(x.diagonal().real.astype(complex))


def _li2(w: np.ndarray) -> np.ndarray:
    """Dilogarithm Li2(w) = sum_{r>=1} w^r / r^2, elementwise for |w| < 1.

    Follows 't Hooft & Veltman, Nucl. Phys. B153 (1979): the Bernoulli series
    Li2 = u - u^2/4 + sum_k B_2k u^(2k+1) / (2k+1)! in u = -log(1 - v), with
    v = w for Re w <= 1/2 and v = 1 - w, through the reflection
    Li2(w) = pi^2/6 - log(w) log(1 - w) - Li2(1 - w), otherwise.  Then
    |u| <= pi/3, well inside the series' radius 2 pi.
    """
    reflect = w.real > 0.5
    v = np.where(reflect, 1.0 - w, w)
    x, y = v.real, v.imag
    # log|1 - v| from log1p keeps u accurate relative to v as v -> 0
    u = -0.5 * np.log1p(x * (x - 2.0) + y * y) + 1j * np.arctan2(y, 1.0 - x)
    u2 = u * u
    acc = 0.0
    for b in reversed(_LI2_COEFFS):
        acc = acc * u2 + b
    li2 = u - 0.25 * u2 + u * u2 * acc
    wr = w[reflect]
    li2[reflect] = np.pi**2 / 6 - np.log(wr) * np.log(1.0 - wr) - li2[reflect]
    return li2


def kahler_potential(m: ModelPoint) -> KahlerPotential:
    """Potential K = sum_{i,j} c_i c_j Li2(xi^i conj(xi^j)), exact to rounding.

    Expanding |sum_i c_i (xi^i)^r|^2 = sum_{i,j} c_i c_j (xi^i conj(xi^j))^r
    turns the series sum_r |.|^2 / r^2 into one dilogarithm per pair.
    """
    xi = np.asarray(m.params, dtype=complex)
    c = np.asarray(m.signature, dtype=float)
    return KahlerPotential(float(np.sum(np.outer(c, c) * _li2(np.outer(xi, xi.conj())).real)))


def metric(m: ModelPoint) -> HermitianMetric:
    """Closed-form metric: mixed block c_i c_j / (1 - xi^i conj(xi^j)), pure block 0."""
    _, c, a = _arrays(m)
    mixed = _hermitize(np.outer(c, c) / a)
    return HermitianMetric(mixed=mixed, pure=_zeros(mixed.shape))


def inverse_metric(m: ModelPoint) -> np.ndarray:
    """Inverse metric g^{i jbar} at a model point: :func:`cauchy_inverse` of its coordinates.

    Satisfies ``sum_j B[i][j] mixed[k][j] = delta_ik``.
    """
    return cauchy_inverse(np.asarray(m.params, dtype=complex), np.asarray(m.signature, dtype=float))


def cauchy_inverse(xi: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Inverse metrics g^{i jbar} of coordinate tuples ``xi`` (..., n), signature ``c`` (n,).

    The Cauchy-matrix product formula

        g^{i jbar} = c_i c_j prod_k (1 - xi^i conj(xi^k)) (1 - xi^k conj(xi^j))
                     / ((1 - xi^i conj(xi^j)) p_i conj(p_j)),
        p_i = prod_{k != i} (xi^k - xi^i),

    over any leading axes, each tuple with the bits it has on its own.  Built
    from point differences, so it stays entrywise accurate however close the
    coordinates come.  Below ``DELTA_COINCIDE`` pairwise distance a
    :class:`CoincidentRootsWarning` signals a nearly singular metric; exactly
    coincident coordinates, or any result that is not finite, raise
    :class:`CoincidentRootsError`.
    """
    # Every product below has named operands: numpy reuses a large unnamed
    # right operand in place, which swaps the factors of a complex product
    # and, with fused multiply-adds, its rounding.
    n = xi.shape[-1]
    a = factor_matrix(xi)
    row = a.prod(axis=-1)  # prod_k (1 - xi^i conj(xi^k))
    col = a.prod(axis=-2)  # prod_k (1 - xi^k conj(xi^j))
    diffs = xi[..., None, :] - xi[..., :, None]  # diffs[i][k] = xi^k - xi^i
    diffs[..., range(n), range(n)] = 1.0
    if np.abs(diffs).min(initial=np.inf) < DELTA_COINCIDE:
        warnings.warn(
            "coordinates nearly coincide; the metric is nearly singular",
            CoincidentRootsWarning,
            stacklevel=2,
        )
    p = diffs.prod(axis=-1)  # prod_{k != i} (xi^k - xi^i)
    pc = p.conj()
    num = row[..., :, None] * col[..., None, :]
    den = p[..., :, None] * pc[..., None, :]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ginv = c[:, None] * c * num / (a * den)
    if not np.isfinite(ginv).all():
        raise CoincidentRootsError(
            "metric is singular or overflows at (nearly) coincident coordinates"
        )
    return ginv


def metric_determinant(m: ModelPoint) -> float:
    """det g = prod_{j<k} |xi^k - xi^j|^2 / prod_{j,k} (1 - xi^j conj(xi^k)).

    Real and positive for pairwise-distinct coordinates, exactly zero at
    coincidences; independent of the pole/zero signature.  A value below
    the smallest normal double (``sys.float_info.min``), 0.0 or subnormal,
    at distinct coordinates has underflowed: it is not zero, only too small
    for a double, and a :class:`DeterminantUnderflowWarning` says so.  0.0
    without that warning means two coordinates coincide exactly.
    """
    pairs = list(itertools.combinations(m.params, 2))
    # Python complex abs and a sequential product over the pair differences:
    # numpy's vectorised abs rounds some last bits differently
    num = math.prod([abs(q - p) ** 2 for p, q in pairs])
    det = float(num / complex(np.prod(_arrays(m)[2])).real)
    if det < sys.float_info.min and all(p != q for p, q in pairs):
        warnings.warn(
            f"det g = {det:g} underflowed below the smallest normal double; "
            "the coordinates are distinct and det g is not zero",
            DeterminantUnderflowWarning,
            stacklevel=2,
        )
    return det


def _t(xi: np.ndarray, c: np.ndarray, a: np.ndarray) -> np.ndarray:
    # Complex products need not commute bitwise: each pair i <= j is
    # multiplied once and mirrored, so T is exactly symmetric in i, j.
    n = len(xi)
    u = c[:, None] / a  # u[i][k] = c_i / (1 - xi^i conj(xi^k))
    t = np.empty((n, n, n), dtype=complex)
    for i in range(n):
        np.multiply(u[i], u[i:], out=t[i, i:])
        t[i + 1 :, i] = t[i, i + 1 :]
    np.multiply(-2.0 * c * xi.conj(), t, out=t)
    return t


def connection0(m: ModelPoint) -> ConnectionTensors:
    """Levi-Civita Gamma^0, read at alpha = 0; public only because the benchmark imports it."""
    return alpha_connection(m, 0.0)


def t_tensor(m: ModelPoint) -> ConnectionTensors:
    """Cubic tensor T, read at alpha = 0; public only because the benchmark imports it."""
    return alpha_connection(m, 0.0)


def alpha_connection(m: ModelPoint, alpha: float) -> ConnectionTensors:
    """Affine family Gamma^{(alpha)} = Gamma^0 - (alpha/2) T.

    The purely mixed-pair components carry only the alpha term:
    Gamma^{(alpha)}_{i jbar,k} = -(alpha/2) T_{ik,jbar} and
    Gamma^{(alpha)}_{i jbar,kbar} = -(alpha/2) conj(T_{jk,ibar}).
    T is built once and each family is written from it into its own
    C-ordered array, so the call holds no n^3 array beyond the four dense
    ones it returns; ``gamma_pure`` and ``t_pure`` are zero views.
    """
    xi, c, a = _arrays(m)
    t = _t(xi, c, a)
    # Gamma^0 - (alpha/2) T entrywise, Gamma^0 being zero off i = j
    gamma_mixed = np.multiply(0.5 * alpha, t)
    diag = np.arange(m.n)
    on_diag = np.outer(c, c) * xi.conj() / a**2 - gamma_mixed[diag, diag]
    np.subtract(0.0, gamma_mixed, out=gamma_mixed)
    gamma_mixed[diag, diag] = on_diag
    gamma_cross_bar = np.conjugate(t.transpose(2, 0, 1), order="C")
    np.multiply(-0.5 * alpha, gamma_cross_bar, out=gamma_cross_bar)
    return ConnectionTensors(
        alpha=float(alpha),
        gamma_mixed=gamma_mixed,
        gamma_pure=_zeros(t.shape),
        gamma_cross=np.multiply(-0.5 * alpha, t.transpose(0, 2, 1), order="C"),
        gamma_cross_bar=gamma_cross_bar,
        t_mixed=t,
        t_pure=_zeros(t.shape),
    )


def ricci0(m: ModelPoint) -> CurvatureReport:
    """Ricci R^0 and its scalar, read at alpha = 0; public only because the benchmark imports it."""
    return alpha_ricci(m, 0.0)


def alpha_ricci(m: ModelPoint, alpha: float) -> CurvatureReport:
    """alpha-corrected Ricci: R^{(alpha)}_{i jbar} = R^0_{i jbar} + (alpha/2) d_jbar T^k_{ik}.

    R^0_{i jbar} = -1/(1 - xi^i conj(xi^j))^2.  Because
    T_{ik,lbar} = -2 c_i conj(xi^l) g_{k lbar} / (1 - xi^i conj(xi^l)),
    the contraction T^k_{ik} = -2 c_i sum_l conj(xi^l) / (1 - xi^i conj(xi^l))
    needs no inverse metric, and its raw derivative is
    d_jbar T^k_{ik} = -2 c_i / (1 - xi^i conj(xi^j))^2.  The block keeps the
    Hermitian part of that derivative, (c_i + c_j) R^0_{i jbar}, which
    vanishes on pole-zero pairs.  The correction is independent of alpha, so
    the family is exactly linear in alpha.

    At one signature (every c_i = c: an AR or an MA model) g_{i jbar} =
    1/(1 - xi^i conj(xi^j)) is a Cauchy matrix, R^{(alpha)} = (1 + alpha c) R^0,
    and the scalar has the closed form
    S^{(alpha)} = (1 + alpha c) (n(n-1)/2 - Re sum_{ij} 1/(1 - xi^i conj(xi^j))),
    which needs no inverse and is below -n at alpha = 0.  At a mixed
    signature the scalar is the contraction sum_{ij} g^{i jbar} R_{i jbar}.
    The inverse metric is formed either way, for the report, so exactly
    coincident coordinates raise :class:`CoincidentRootsError` even though
    the Ricci block is regular.
    """
    _, c, a = _arrays(m)
    # rebuilt from its upper triangle, so R^0 and (c_i + c_j) R^0 are exactly Hermitian
    ricci = _hermitize(-1.0 / a**2)
    corr = (c[:, None] + c) * ricci
    ginv = inverse_metric(m)
    if len(set(m.signature)) == 1:
        # + 0.0: a flat model (1 + alpha c = 0) reports 0.0, not -0.0
        scalar = (1.0 + alpha * c[0]) * (m.n * (m.n - 1) / 2 - float(np.sum(1.0 / a).real)) + 0.0
    else:
        scalar = float(np.sum(ginv * ricci).real) + 0.5 * alpha * float(np.sum(ginv * corr).real)
    return CurvatureReport(
        alpha=float(alpha), ricci=ricci + 0.5 * alpha * corr, scalar=float(scalar), inverse=ginv
    )
