"""Independent quadrature oracle for the filter geometry.

Every geometric object has a defining integral over the unit circle,

    (1/2 pi) int_{-pi}^{pi} G(e^{iw}) dw  =  (1/2 pi i) oint G(z) dz/z,

discretised here by the uniform trapezoid rule (spectrally accurate for the
rational integrands at hand).  First and second parameter derivatives of
log h are analytic rational expressions, never differenced; only
derivatives *of tensors* use central Wirtinger differences.  This module
never calls the closed forms in :mod:`cepgeo.closed_form`, so agreement
between the two is a genuine cross-check.

Every tensor is a grid mean of products of d_i log h: the metric is a
second moment, the connections and T are the two third moments
<d_i d_j conj(d_k)> and <d_i d_j d_k>, transposed or conjugated.  Both
are symmetric in i and j, so one kernel forms only the n(n+1)/2 products
d_i d_j with j >= i, against the third factors a caller passes, and
mirrors the rest.  It walks the grid in chunks of nodes, one matrix
product per chunk summed in a fixed order, so its memory does not grow
with the node count.  The Ricci block is a projection of d^2 log h onto
span{d log h}, read off a QR factor.  :func:`oracle_tensors` samples both
derivatives once and reads the metric, Gamma^(0), T and Ricci from them.

The duality check costs little more than one connection: its full-index
(holomorphic and anti-holomorphic) Gamma is assembled from the two n-index
triples, and because log h separates per root, each Wirtinger step of its
left side re-samples one row of d log h and rebuilds only the two metric
rows that row changes.

Integrands are sampled once on 2m nodes.  The even half is bitwise the
m-node grid, and the 2m-node trapezoid rule is the mean of the even-half and
odd-half rules (Trefethen & Weideman, SIAM Review 56(3), 2014), so each
m-node result is checked against that mean at no extra cost.  Disagreement
beyond 1e-9 (``divergence`` takes its own ``tol``) attaches a
:class:`QuadratureUnconvergedWarning` to the run and marks the result, but
does not abort (roots near the circle legitimately converge slowly).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .closed_form import ConnectionTensors, HermitianMetric
from .filters import (
    ValidatedFilter,
    outer_factor,
    reciprocal,
    reflect_zero_out,
    transfer_values,
    validate,
)

NODES_DEFAULT = 4096
DERIV_STEP_DEFAULT = 1e-5
# largest change under grid doubling that the tensor routines accept
_TOL = 1e-9
# the unimodular factors that invariance_suite appends
_Z_POWER_SHIFT = 5
_BLASCHKE_POINT = 0.4 + 0j

# Bytes of d_i d_j products that _triples holds per chunk of nodes.  On a
# 2-core Xeon, 512 KiB was as fast as 1 MiB at n = 8..16 and up to 15%
# faster than 256 KiB; _triples then peaks at 0.6 MiB at n = 16 whatever
# the node count.
_TRIPLE_BLOCK_BYTES = 1 << 19
# Bytes of each QR in _ricci, so LAPACK stays on one thread: at n = 10 one QR
# over 4096 nodes, or blocks of 160 KiB, gave other bits on 2 OpenBLAS threads.
_QR_BLOCK_BYTES = 1 << 17


class QuadratureUnconvergedWarning(UserWarning):
    """Grid doubling changed a quadrature result by more than the tolerance."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Circle-grid size and Wirtinger step for tensor derivatives."""

    nodes: int = NODES_DEFAULT
    deriv_step: float = DERIV_STEP_DEFAULT

    def __post_init__(self):
        nodes = int(self.nodes)
        if nodes < 64 or nodes & (nodes - 1):
            raise ValueError(f"nodes must be a power of two >= 64, got {nodes}")
        step = float(self.deriv_step)
        if not (1e-7 <= step <= 1e-3):
            raise ValueError(f"deriv_step must lie in [1e-7, 1e-3], got {step!r}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "deriv_step", step)


@dataclass(frozen=True)
class DivergenceValue:
    """alpha-divergence between two spectral densities."""

    alpha: float
    value: float
    residual: float = 0.0
    converged: bool = True


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# Grids are computed once per node count and shared, so they are read-only.
@functools.lru_cache(maxsize=16)
def circle_nodes(m: int) -> np.ndarray:
    """m-th roots of unity, the quadrature grid (a shared, read-only array)."""
    return _read_only(np.exp(2j * np.pi * np.arange(m) / m))


def _log_derivs(roots, signs, z: np.ndarray, order: int = 1) -> list[np.ndarray]:
    """d_i^k log h = -c_i/(z - xi_i)^k on a grid for k = 1..order (1 or 2), one row per root.

    c_i is -1 for a pole, +1 for a zero; log h separates per root, so cross terms vanish.
    """
    c = -np.asarray(signs, dtype=float)[:, None]
    w = z - np.asarray(roots, dtype=complex)[:, None]
    # the last result is written into w: a fresh n x nodes array costs page faults
    if order == 1:
        return [np.divide(c, w, out=w)]
    d = c / w
    # dividing by (z - xi)^2, not multiplying d by 1/(z - xi), keeps the duality-check bits
    return [d, np.divide(c, np.square(w, out=w), out=w)]


def _mean2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Grid mean of a_i b_j."""
    return a @ b.T / a.shape[1]


@functools.lru_cache(maxsize=16)
def _doubled_grid(m: int) -> np.ndarray:
    # the 2m-node grid, even nodes first: [:m] is bitwise the m-node grid
    z = circle_nodes(2 * m)
    return _read_only(np.concatenate([z[::2], z[1::2]]))


def _halves(blocks, arrays):
    """``blocks`` on the even and on the odd half of ``_doubled_grid``.

    ``arrays`` are sampled on ``_doubled_grid``; the even half is the m-node
    grid, and the 2m-node trapezoid rule is the mean of the two halves'
    rules, so checking against it costs 2m nodes of work.
    """
    m = arrays[0].shape[-1] // 2
    return blocks(*(a[..., :m] for a in arrays)), blocks(*(a[..., m:] for a in arrays))


def _checked(even, odd, tol: float, what: str):
    """The m-node ``even`` blocks, checked against the 2m-node rule.

    Returns them with the largest change under grid doubling and whether
    that change is within ``tol``.
    """
    residual = max(
        (float(np.max(np.abs(e - (e + o) / 2))) for e, o in zip(even, odd) if np.size(e)),
        default=0.0,
    )
    converged = residual <= tol
    if not converged:
        warnings.warn(
            f"{what}: doubling the grid changed the result by {residual:.3g} (> {tol:.3g})",
            QuadratureUnconvergedWarning,
            stacklevel=3,
        )
    return even, residual, converged


def _hermitian_mean(d: np.ndarray, dc: np.ndarray) -> np.ndarray:
    # the grid mean of d_i conj(d_j), averaged with its conjugate transpose so
    # that it is exactly Hermitian whatever the BLAS order
    mixed = _mean2(d, dc)
    return (mixed + mixed.conj().T) / 2


def metric_numeric(
    f: ValidatedFilter, cfg: QuadratureConfig = QuadratureConfig()
) -> HermitianMetric:
    """Metric by quadrature: mixed_{ij} = mean over nodes of d_i log h conj(d_j log h).

    The pure block uses the same average without conjugation and vanishes on
    the constant-gain submanifold.
    """

    def blocks(d):
        pure = _mean2(d, d)  # made exactly symmetric as the mixed block is made Hermitian
        return _hermitian_mean(d, d.conj()), (pure + pure.T) / 2

    (d2,) = _log_derivs(f.coordinates, f.signature, _doubled_grid(cfg.nodes))
    (mixed, pure), residual, converged = _checked(*_halves(blocks, (d2,)), _TOL, "metric")
    return HermitianMetric(mixed, pure, f.labels, residual, converged)


def _triples(d: np.ndarray, *factors: np.ndarray) -> list[np.ndarray]:
    """The third moments <d_i d_j e_k>, one for each factor e (n rows on d's nodes).

    Each is symmetric in i and j.  Each chunk of nodes is one matrix
    product of the n(n+1)/2 products d_i d_j with j >= i against the
    stacked factors; the chunks are summed in node order and the sum is
    mirrored into i > j, so the result is exactly symmetric.  The chunk is
    the largest power of two whose product block fits
    ``_TRIPLE_BLOCK_BYTES``, so memory stays flat in the node count.
    """
    n, m = d.shape
    rows, cols = np.triu_indices(n)
    fit = min(m, _TRIPLE_BLOCK_BYTES // (d.itemsize * max(rows.size, 1)))
    chunk = 1 << (max(fit, 1).bit_length() - 1)
    acc = np.zeros((rows.size, n * len(factors)), dtype=complex)
    for start in range(0, m, chunk):
        span = slice(start, start + chunk)
        prod = d[rows, span]
        prod *= d[cols, span]
        acc += prod @ np.concatenate([e[:, span] for e in factors]).T
    out = np.empty((n, n, acc.shape[1]), dtype=complex)
    out[rows, cols] = acc
    out[cols, rows] = acc
    out /= m
    return np.split(out, len(factors), axis=2)


def _gamma(triple: np.ndarray, second: np.ndarray, alpha: float) -> np.ndarray:
    # -alpha <d_i d_j e_k> + delta_ij <dd_i e_k>
    gamma = -alpha * triple
    diag = np.arange(len(second))
    gamma[diag, diag] += second
    return gamma


def connection_numeric(
    f: ValidatedFilter, alpha: float, cfg: QuadratureConfig = QuadratureConfig()
) -> ConnectionTensors:
    """All four alpha-connection index families by quadrature (T is :func:`t_tensor_numeric`).

    The second-derivative term contributes only when the first two indices
    are an unbarred pair (or, by conjugation, a barred pair); purely mixed
    pairs carry only the -alpha triple product.
    """

    def blocks(d, dd):
        # gamma_mixed, gamma_pure, gamma_cross, gamma_cross_bar
        dc = d.conj()
        triple, triple_pure = _triples(d, dc, d)
        return (
            _gamma(triple, _mean2(dd, dc), alpha),
            _gamma(triple_pure, _mean2(dd, d), alpha),
            -alpha * triple.transpose(0, 2, 1),
            -alpha * np.conj(triple.transpose(2, 0, 1)),
        )

    sample = _log_derivs(f.coordinates, f.signature, _doubled_grid(cfg.nodes), 2)
    fams, residual, converged = _checked(*_halves(blocks, sample), _TOL, "connection")
    return ConnectionTensors(float(alpha), *fams, residual=residual, converged=converged)


def t_tensor_numeric(
    f: ValidatedFilter, cfg: QuadratureConfig = QuadratureConfig()
) -> ConnectionTensors:
    """Symmetric tensor by quadrature, with the factor-2 normalisation

    T_{ij,kbar} = (1/pi i) oint (d_i log h)(d_j log h)(d_k log h)* dz/z.
    """
    (d2,) = _log_derivs(f.coordinates, f.signature, _doubled_grid(cfg.nodes))
    halves = _halves(lambda d: [2.0 * t for t in _triples(d, d.conj(), d)], (d2,))
    (tm, tp), residual, converged = _checked(*halves, _TOL, "t_tensor")
    return ConnectionTensors(
        alpha=0.0, t_mixed=tm, t_pure=tp, residual=residual, converged=converged
    )


def _ricci(d: np.ndarray, dd: np.ndarray) -> np.ndarray:
    """R_{i jbar} = (R11^-1 R11^-H) o -(R22^H R22)^T from the QR of [d | dd].

    R11^H R11 is g^T and R22^H R22 is <(I-P) dd_j, (I-P) dd_i>, P the grid
    projection onto span{d_l}; the 1/sqrt(m) weight cancels.  Each block of
    nodes is factored alone, then stacked on the R so far (a tall-skinny QR
    with a quarter of the error of stacking raw blocks at n = 16), so each
    LAPACK call takes at most ``_QR_BLOCK_BYTES`` while n <= 32.
    """
    n, m = d.shape
    step = max(_QR_BLOCK_BYTES // (d.itemsize * max(2 * n, 1)), 2 * n)
    r = np.empty((0, 2 * n), dtype=complex)
    for start in range(0, m, step):
        span = slice(start, start + step)
        block = np.linalg.qr(np.hstack([d[:, span].T, dd[:, span].T]), mode="r")
        r = np.linalg.qr(np.vstack([r, block]), mode="r")
    inv11, r22 = np.linalg.inv(r[:n, :n]), r[n:, n:]
    return (inv11 @ inv11.conj().T) * -(r22.conj().T @ r22).T


def ricci_numeric(f: ValidatedFilter, cfg: QuadratureConfig = QuadratureConfig()) -> np.ndarray:
    """Ricci block R_{i jbar} = -d_i d_jbar log det g, from quadrature alone.

    With d log det g = tr(g^-1 dg) it is a projection of d^2 log h onto span{d log h} on
    the m-node grid, read off one QR factor: g is not inverted, nothing is differenced.
    """
    return _ricci(*_log_derivs(f.coordinates, f.signature, circle_nodes(cfg.nodes), 2))


def oracle_tensors(
    f: ValidatedFilter, cfg: QuadratureConfig = QuadratureConfig()
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """g_{i jbar}, Gamma^(0)_{ij,kbar}, T_{ij,kbar} and R_{i jbar} from one sample.

    Only the mixed blocks of :func:`metric_numeric`, :func:`connection_numeric`
    and :func:`t_tensor_numeric`, checked and named as there; Ricci as
    :func:`ricci_numeric`, on the even half of the sample.
    """
    m = cfg.nodes
    d, dd = _log_derivs(f.coordinates, f.signature, _doubled_grid(m), 2)

    def blocks(d, dd):
        dc = d.conj()
        (triple,) = _triples(d, dc)
        return _hermitian_mean(d, dc), _gamma(triple, _mean2(dd, dc), 0.0), 2.0 * triple

    halves = zip(*_halves(blocks, (d, dd)), ("metric", "connection", "t_tensor"))
    legs = [_checked([e], [o], _TOL, what)[0][0] for e, o, what in halves]
    return (*legs, _ricci(d[:, :m], dd[:, :m]))


def _spectral_grid(f, z: np.ndarray) -> np.ndarray:
    # works on ValidatedFilter and FilterSpec alike
    return np.abs(transfer_values(f, z)) ** 2


def divergence(
    f1: ValidatedFilter,
    f2: ValidatedFilter,
    alpha: float,
    cfg: QuadratureConfig = QuadratureConfig(),
    tol: float = 1e-9,
) -> DivergenceValue:
    """alpha-divergence D^(alpha)(S1 || S2) between the two spectral densities.

    For alpha != 0 the integrand ((S2/S1)^alpha - 1 - alpha log(S2/S1))/alpha^2
    is evaluated in the log domain via expm1, which keeps small ratios exact
    and avoids overflow; alpha = 0 is the separate squared-log branch
    (half the squared Hellinger-type integrand).  alpha = -1 recovers the
    Kullback-Leibler (Itakura-Saito) form.
    """

    def blocks(ell):
        if alpha == 0.0:
            return (np.mean(ell * ell) / 2.0,)
        return (np.mean(np.expm1(alpha * ell) - alpha * ell) / (alpha * alpha),)

    z = _doubled_grid(cfg.nodes)
    ell = np.log(_spectral_grid(f2, z)) - np.log(_spectral_grid(f1, z))
    (value,), residual, converged = _checked(*_halves(blocks, (ell,)), tol, "divergence")
    return DivergenceValue(
        alpha=float(alpha), value=float(value), residual=residual, converged=converged
    )


def cepstrum_fft(f: ValidatedFilter, trunc: int) -> np.ndarray:
    """Cepstrum coefficients phi_0..phi_N from an FFT of sampled log h.

    Samples log h as a sum of per-factor principal logarithms (each factor
    1 - root/z stays in the right half-plane, so no unwrapping is needed)
    and reads the z^{-r} coefficients off the inverse FFT.  Independent of
    the closed-form power sums in :func:`cepgeo.filters.cepstrum`.  Requires
    a winding-free log, i.e. no z power and no Blaschke factors.
    """
    if f.z_power or f.blaschke_points:
        raise ValueError("FFT cepstrum requires z_power == 0 and no Blaschke points")
    if trunc >= NODES_DEFAULT // 2:
        raise ValueError("truncation must be below half the node count")
    z = circle_nodes(NODES_DEFAULT)
    logh = np.full(NODES_DEFAULT, math.log(f.gain_term), dtype=complex)
    for zt in f.zeros:
        logh += np.log(1.0 - zt / z)
    for p in f.poles:
        logh -= np.log(1.0 - p / z)
    return np.fft.ifft(logh)[: trunc + 1]


@dataclass(frozen=True)
class TransformResiduals:
    """Residuals for one geometry-preserving transformation."""

    metric_residual: float
    sdf_residual: float


@dataclass(frozen=True)
class InvarianceReport:
    """Metric and spectral-density residuals under unimodular transformations."""

    identity: TransformResiduals
    z_power: TransformResiduals
    blaschke: TransformResiduals
    outer_reflection: TransformResiduals | None

    @property
    def max_metric_residual(self) -> float:
        legs = [self.identity, self.z_power, self.blaschke]
        if self.outer_reflection is not None:
            legs.append(self.outer_reflection)
        return max(leg.metric_residual for leg in legs)


def _sdf_residual(f1, f2) -> float:
    z = circle_nodes(1024)
    s1 = _spectral_grid(f1, z)
    s2 = _spectral_grid(f2, z)
    return float(np.max(np.abs(s1 - s2) / s1))


def invariance_suite(
    f: ValidatedFilter, cfg: QuadratureConfig = QuadratureConfig()
) -> InvarianceReport:
    """Residuals of the metric and spectral density under unimodular factors.

    Checks (i) multiplying by z^5, (ii) appending a Blaschke point at 0.4, and
    (iii) reflecting a zero outside the disk with gain compensation and
    recovering it through :func:`cepgeo.filters.outer_factor`.  For (i) and
    (ii) the spectral density changes only at rounding level while the
    coordinates are untouched; for (iii) both the root list and the gain are
    transformed and recovered.  The outer-reflection leg is None when the
    filter has no nonzero zero to reflect.
    """
    spec = f.to_spec()
    f_z = validate(replace(spec, z_power=spec.z_power + _Z_POWER_SHIFT), f.eps_stab)
    blaschke = spec.blaschke_points + (_BLASCHKE_POINT,)
    f_b = validate(replace(spec, blaschke_points=blaschke), f.eps_stab)
    g = metric_numeric(f, cfg).mixed

    def metric_residual(other: ValidatedFilter) -> float:
        g_other = metric_numeric(other, cfg).mixed
        return float(np.max(np.abs(g - g_other))) if g.size else 0.0

    # the identity leg recomputes the metric, so it reads 0.0 only if the
    # quadrature kernels are deterministic
    identity = TransformResiduals(metric_residual(f), _sdf_residual(f, f))
    leg_z = TransformResiduals(metric_residual(f_z), _sdf_residual(f, f_z))
    leg_b = TransformResiduals(metric_residual(f_b), _sdf_residual(f, f_b))

    reflection = None
    candidates = [j for j, zt in enumerate(f.zeros) if zt != 0.0]
    if candidates:
        j = max(candidates, key=lambda idx: abs(f.zeros[idx]))
        twin = reflect_zero_out(f, j)  # same S, no longer minimum phase
        recovered = outer_factor(twin, f.eps_stab)
        reflection = TransformResiduals(metric_residual(recovered), _sdf_residual(f, twin))
    return InvarianceReport(
        identity=identity, z_power=leg_z, blaschke=leg_b, outer_reflection=reflection
    )


@dataclass(frozen=True)
class DualityReport:
    """Residuals of the alpha-duality identity and the reciprocal-filter swap."""

    alpha: float
    duality_residual: float
    reciprocal_residual: float


def _gamma_parts(d: np.ndarray, dd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Triple and second-derivative parts of Gamma over the full 2n index range.

    The full index runs over D = [d; conj(d)], the holomorphic then the
    anti-holomorphic coordinates.  Each block of <D_a D_b D_c> is a
    transpose or conjugate of one of the two n-index triples, and each block
    of <dd_a D_b> is one of <dd_i d_k>, <dd_i conj(d_k)> or a conjugate.
    """
    dc = d.conj()
    mixed, pure = _triples(d, dc, d)
    jk = mixed.transpose(0, 2, 1)  # <d_i conj(d_j) d_k>
    ij = mixed.transpose(2, 0, 1)  # <conj(d_i) d_j d_k>
    triple = np.block(
        [[[pure, mixed], [jk, ij.conj()]], [[ij, jk.conj()], [mixed.conj(), pure.conj()]]]
    )
    s_pure, s_mixed = _mean2(dd, d), _mean2(dd, dc)
    second = np.block([[s_pure, s_mixed], [s_mixed.conj(), s_pure.conj()]])
    return triple, second


def _metric_derivatives(
    f: ValidatedFilter, i: int, d: np.ndarray, z: np.ndarray, step: float
) -> tuple[np.ndarray, np.ndarray]:
    """Central Wirtinger differences of the full-index metric <D_a D_b> in xi_i and conj(xi_i).

    D = [d; conj(d)], with ``d`` sampled on the grid ``z``.  log h
    separates per root, so moving xi_i changes row i of d alone: only rows
    and columns i and n+i of the metric move, and each of the four steps
    re-samples only row i.  Each stepped filter still goes through
    :func:`cepgeo.filters.validate`.
    """
    n = f.dimension
    xi = f.coordinates[i]
    moved = [_with_coordinate(f, i, xi + s) for s in (step, -step, 1j * step, -1j * step)]
    (rows,) = _log_derivs([g.coordinates[i] for g in moved], [f.signature[i]] * 4, z)
    # metric row i: <r D_b> against the unmoved rows, with <r conj(d_b)> =
    # conj(<conj(r) d_b>), then against r itself at b = i and b = n+i
    u = np.hstack([_mean2(rows, d), _mean2(rows.conj(), d).conj()])
    u[:, i] = np.mean(rows * rows, axis=1)
    u[:, n + i] = np.mean(rows * rows.conj(), axis=1)
    dx = (u[0] - u[1]) / (2.0 * step)
    dy = (u[2] - u[3]) / (2.0 * step)
    d_hol, d_anti = 0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy)
    out = []
    for row, twin in ((d_hol, d_anti), (d_anti, d_hol)):
        # row n+i is <conj(r) D_b> = conj(<r D_(b+n mod 2n)>); the metric is symmetric
        dg = np.zeros((2 * n, 2 * n), dtype=complex)
        dg[i] = dg[:, i] = row
        dg[n + i] = dg[:, n + i] = np.roll(twin.conj(), n)
        out.append(dg)
    return tuple(out)


def _with_coordinate(f: ValidatedFilter, index: int, value: complex) -> ValidatedFilter:
    coords = list(f.coordinates)
    coords[index] = value
    p = len(f.poles)
    spec = replace(f.to_spec(), poles=tuple(coords[:p]), zeros=tuple(coords[p:]))
    return validate(spec, f.eps_stab)


def duality_check(
    f: ValidatedFilter,
    alpha: float,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> DualityReport:
    """Residuals of d_mu g_{nu rho} = Gamma^{(a)}_{mu nu,rho} + Gamma^{(-a)}_{mu rho,nu}.

    Both sides run over all holomorphic and anti-holomorphic index
    combinations; the left side uses central Wirtinger differences of the
    quadrature metric (one re-sampled row per step, see
    :func:`_metric_derivatives`), so the residual is finite-difference
    limited.  A filter with no roots has residuals of 0.  Also
    checks the reciprocal-system swap: the alpha-connection of the inverse
    filter equals the (-alpha)-connection of the original once the swapped
    pole/zero ordering is permuted back.
    """
    n = f.dimension
    z = circle_nodes(cfg.nodes)
    d, dd = _log_derivs(f.coordinates, f.signature, z, 2)
    parts = _gamma_parts(d, dd)
    gamma_a = _gamma(*parts, alpha)
    gamma_ma = _gamma(*parts, -alpha)

    worst = 0.0
    for i in range(n):
        for mu, lhs in zip((i, n + i), _metric_derivatives(f, i, d, z, cfg.deriv_step)):
            rhs = gamma_a[mu] + gamma_ma[mu].T
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))

    rec = reciprocal(f)
    p, q = len(f.poles), len(f.zeros)
    perm = list(range(p, p + q)) + list(range(p))
    perm_full = perm + [n + a for a in perm]
    gamma_rec = _gamma(*_gamma_parts(*_log_derivs(rec.coordinates, rec.signature, z, 2)), alpha)
    expected = gamma_ma[np.ix_(perm_full, perm_full, perm_full)]
    rec_residual = float(np.max(np.abs(gamma_rec - expected), initial=0.0))
    return DualityReport(
        alpha=float(alpha), duality_residual=worst, reciprocal_residual=rec_residual
    )
