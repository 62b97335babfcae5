"""Independent quadrature oracle for the filter geometry.

Every geometric object has a defining integral over the unit circle,

    (1/2 pi) int_{-pi}^{pi} G(e^{iw}) dw  =  (1/2 pi i) oint G(z) dz/z,

discretised here by the uniform trapezoid rule (spectrally accurate for the
rational integrands at hand).  First and second parameter derivatives of
log h are analytic rational expressions, never differenced; only
derivatives *of tensors* use central Wirtinger differences.  This module
never calls the closed forms in :mod:`cepgeo.closed_form`, so agreement
between the two is a genuine cross-check: it takes only the record classes
``HermitianMetric`` and ``ConnectionTensors`` from there, and imports them
where it builds one.

Every tensor is a grid mean of products of d_i log h: the metric is a
second moment, the connections and T are the two third moments
<d_i d_j conj(d_k)> and <d_i d_j d_k>, transposed or conjugated.  One
kernel, :func:`_grid_means`, forms every moment, its factors named rows of
the sample ("dc", "d", "dd").  The third moments are symmetric in i and j,
so it forms only the n(n+1)/2 products d_i d_j with j >= i, against each
factor in a product of its own, and mirrors the rest.  The Ricci block is
a projection of d^2 log h onto span{d log h}, read off a QR factor.
:func:`oracle_tensors` reads the metric, Gamma^(0), T and Ricci from one
sample, with the bits of every other entry point.
:func:`connection_numeric` returns T with the four connection families, as
the closed form does, and :func:`t_tensor_numeric` and
:func:`ricci_numeric` are reads of it and of :func:`oracle_tensors`.

No routine holds a whole sampled grid: one sampler writes d log h, its
conjugate and, where needed, d^2 log h for a fixed sequence of node blocks
into one reused buffer, and every reduction (moments, triple products, the
tall-skinny QR, the divergence integrand) accumulates block by block, so
memory stays flat in the node count.  One rule, :func:`_pow2`, sizes the
sample blocks, the triple chunks and the QR slices as powers of two.  The
QR takes whole slices of 2^k nodes of blocks of 2^j >= 2^k nodes, so R
does not depend on the block size.  The last four grids of up to
``_CACHED_NODES`` nodes are cached, no larger one.  The duality check
samples its 4n Wirtinger-stepped rows (log h separates per root, so a step
moves one row) in the same pass as the filter, and compares the two sides
of the identity once per derivative, in the row of d_i that it moves (row
n+i is its conjugate): no (2n)^3 array is formed.  Its reciprocal leg
compares coordinates, as :func:`invariance_suite` does.

:func:`divergence` and :func:`invariance_suite` read log S from
:func:`_log_sdf`: the log gain term plus one logarithm of |prod (z - xi)|
per group of same-kind roots, each group cut where its product could leave
[2^-1000, 2^1000] on the circle (:func:`_root_groups`).  z^R and the
Blaschke factors have modulus 1 on the circle.

Integrands are sampled once on 2m nodes.  The even nodes are bitwise the
m-node grid, and the 2m-node trapezoid rule is the mean of the even-node and
odd-node rules (Trefethen & Weideman, SIAM Review 56(3), 2014), so each
m-node result is checked against that mean at no extra cost.  Disagreement
beyond 1e-9 (``divergence`` takes its own ``tol``) times max(1, the largest
|entry| of the result) attaches a :class:`QuadratureUnconvergedWarning` to
the run and marks the result, but does not abort (roots near the circle
legitimately converge slowly).
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .filters import (
    FilterError,
    FilterSpec,
    ValidatedFilter,
    ZeroOnCircle,
    outer_factor,
    reciprocal,
    reflect_zero_out,
    validate,
)

if TYPE_CHECKING:  # imported where built, so divergence and duality_check never load closed_form
    from .closed_form import ConnectionTensors, HermitianMetric

NODES_DEFAULT = 4096
# the Wirtinger step of duality_check's central differences
DERIV_STEP = 1e-5
# largest change under grid doubling that the tensor routines accept
_TOL = 1e-9

# Bytes of each sample block, all rows: up to n = 10 a 4096-node grid half is
# one block of conj(d), d and dd, which makes the BLAS calls of a whole-half
# sample.
_BLOCK_BYTES = 1 << 21
# Bytes of d_i d_j products that _grid_means holds per chunk of nodes.  On a
# 2-core Xeon, 512 KiB was as fast as 1 MiB at n = 8..16 and up to 15%
# faster than 256 KiB.
_TRIPLE_BLOCK_BYTES = 1 << 19
# Bytes of each QR of the Ricci leg, so LAPACK stays on one thread: at n = 10 one QR
# over 4096 nodes, or slices of 160 KiB, gave other bits on 2 OpenBLAS threads.
_QR_BLOCK_BYTES = 1 << 17
# Nodes of each block of divergence's 2m-node grid: the whole grid at the
# default node count, so a default run sums each half in one reduction.
_SPECTRAL_BLOCK = 2 * NODES_DEFAULT
# Taylor coefficients 1/(k+2)! of _phi, k = 10 down to 0
_PHI_TAYLOR = [1.0 / math.factorial(k + 2) for k in range(10, -1, -1)]
# On the circle each group product of |z - r| in _log_sdf lies in [1/_GROUP_BOUND, _GROUP_BOUND]
_GROUP_BOUND = 2.0**1000
# The user address space of a 64-bit process
_ADDRESS_BYTES = 1 << 47
# Nodes of the largest cached grid, 256 KiB: the four that the cache holds take
# at most 1 MiB, and default runs use the 1024-, 4096- and 8192-node grids.
_CACHED_NODES = 1 << 14


class QuadratureUnconvergedWarning(UserWarning):
    """Grid doubling changed a quadrature result by more than the tolerance."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Circle-grid size of the quadrature routines."""

    nodes: int = NODES_DEFAULT

    def __post_init__(self):
        nodes = int(self.nodes)
        if nodes < 64 or nodes & (nodes - 1):
            raise ValueError(f"nodes must be a power of two >= 64, got {nodes}")
        if 32 * nodes > _ADDRESS_BYTES:
            # no routine holds the grid, but one that no process could hold would never finish
            raise ValueError(f"nodes = {nodes}: the doubled grid is too large to allocate")
        object.__setattr__(self, "nodes", nodes)


@dataclass(frozen=True)
class DivergenceValue:
    """alpha-divergence between two spectral densities."""

    alpha: float
    value: float
    residual: float = 0.0
    converged: bool = True


def _unit_roots(m: int, start: int, stop: int, step: int = 1) -> np.ndarray:
    # one formula for every node, so a node formed alone has the bits of the cached one
    return np.exp(2j * np.pi * np.arange(start, stop, step) / m)


@functools.lru_cache(maxsize=4)
def _grid(m: int) -> np.ndarray:
    grid = _unit_roots(m, 0, m)
    grid.flags.writeable = False
    return grid


def _nodes(m: int, start: int, stop: int, step: int = 1) -> np.ndarray:
    """Nodes start, start + step, ... below ``stop`` of the m-node grid.

    Sliced from the cached grid up to ``_CACHED_NODES``, else formed from
    their indices, so a routine never holds a large grid whole.
    """
    return _grid(m)[start:stop:step] if m <= _CACHED_NODES else _unit_roots(m, start, stop, step)


def _sample(roots, signs, grids, conj: int = 0, second: int = 0) -> list:
    """Node blocks of d_i log h = -c_i/(z - xi_i), one generator per grid, in node order.

    A grid is (m, offset, stride): the nodes offset, offset + stride, ... of
    the m-node grid.  c_i is -1 for a pole, +1 for a zero.  A block holds
    conj(d_i) of the first ``conj`` roots, d_i of all, then d_i^2 log h =
    -c_i/(z - xi_i)^2 of the first ``second``, in one buffer that every
    block reuses: reduce a block before taking the next.  A block is the
    largest power of two of nodes, at most a grid, whose rows would fit
    ``_BLOCK_BYTES`` if every root carried dd, whatever ``second`` is.
    """
    c = -np.asarray(signs, dtype=float)[:, None]
    xi = np.asarray(roots, dtype=complex)[:, None]
    n = len(c)
    fit = _pow2(_BLOCK_BYTES // (16 * (conj + 2 * n) or 1))
    buf = np.empty((conj + n + second, min(fit, max(m // s for m, _, s in grids))), dtype=complex)

    def blocks(m, offset, stride):
        for start in range(offset, m, stride * buf.shape[1]):
            nodes = _nodes(m, start, min(start + stride * buf.shape[1], m), stride)
            out = buf[:, : nodes.size]
            w, dd = out[conj : conj + n], out[conj + n :]
            np.subtract(nodes, xi, out=w)
            if second:
                np.divide(c[:second], np.square(w[:second], out=dd), out=dd)
            np.conjugate(np.divide(c, w, out=w)[:conj], out=out[:conj])
            yield out

    return [blocks(*grid) for grid in grids]


def _halves(f: ValidatedFilter, m: int, second: int = 0) -> list:
    """[conj(d); d; dd] blocks of the even and of the odd nodes of the 2m-node grid.

    The even nodes are bitwise the m-node grid, and the 2m-node trapezoid
    rule is the mean of the two halves' rules, so checking against it costs
    2m nodes of work.
    """
    grids = ((2 * m, 0, 2), (2 * m, 1, 2))
    return _sample(f.coordinates, f.signature, grids, f.dimension, second)


def _checked(even, odd, tol: float, what: str):
    """The m-node ``even`` blocks, checked against the 2m-node rule.

    Returns them with the largest change under grid doubling and whether
    each block's change is within ``tol * max(1, scale)``, its scale the
    block's largest |entry|: rounding alone moves a large result by more
    than an absolute ``tol``.  A NaN change is never converged.
    """
    changes = [
        (float(np.max(np.abs(e - (e + o) / 2))), float(np.max(np.abs(e))))
        for e, o in zip(even, odd)
        if np.size(e)
    ]
    residual = float(np.max([change for change, _ in changes], initial=0.0))  # keeps a NaN
    converged = all(change <= tol * max(1.0, scale) for change, scale in changes)
    if not converged:
        warnings.warn(
            f"{what}: doubling the grid changed the result by {residual:.3g} (> {tol:.3g})",
            QuadratureUnconvergedWarning,
            stacklevel=3,
        )
    return even, residual, converged


def _pow2(x: int) -> int:
    """The largest power of two <= max(x, 1), the size of every block of nodes."""
    return 1 << (max(x, 1).bit_length() - 1)


def _hermitian(mixed: np.ndarray) -> np.ndarray:
    # averaged with its conjugate transpose, so exactly Hermitian whatever the BLAS order
    return (mixed + mixed.conj().T) / 2


def _grid_means(blocks, n: int, products=(), third=(), ricci: bool = False):
    """Grid means over [conj(d); d; dd] node blocks in one pass, the one place moments form.

    Factors are named rows: "dc", "d" and "dd".  The second moments <a_i b_j>
    for each pair (a, b) in ``products``, one matrix product per block
    summed in node order from 0, so one block gives the bits of one product
    over the grid.  The third moments <d_i d_j e_l> for each name e in
    ``third``: a chunk of nodes, the largest power of two whose n(n+1)/2
    products d_i d_j with j >= i fit ``_TRIPLE_BLOCK_BYTES``, forms them
    once, then one matrix product per factor, so no factor moves another's
    bits; chunks are summed in node order and mirrored into i > j at the
    end, exactly symmetric.  With ``ricci``, the Ricci block of
    :func:`oracle_tensors`.
    """
    rows, cols = np.triu_indices(n)
    chunk = _pow2(_TRIPLE_BLOCK_BYTES // (16 * rows.size or 1))
    # [d | dd] goes to LAPACK in whole slices of a power of two of nodes, each at most
    # _QR_BLOCK_BYTES while n <= 45 and never fewer nodes than the largest power of two <= 2n
    step = _pow2(max(_QR_BLOCK_BYTES // (32 * n or 1), 2 * n))
    sums, nodes = [0] * len(products), 0
    triples = np.zeros((len(third), rows.size, n), dtype=complex)
    r = np.empty((0, 2 * n), dtype=complex)
    for block in blocks:
        named = {"dc": block[:n], "d": block[n : 2 * n], "dd": block[2 * n :]}
        sums = [s + named[a] @ named[b].T for s, (a, b) in zip(sums, products)]
        for start in range(0, block.shape[1], chunk) if third else ():
            span = slice(start, start + chunk)
            prod = named["d"][rows, span]
            prod *= named["d"][cols, span]
            for acc, e in zip(triples, third):
                acc += prod @ named[e][:, span].T
        nodes += block.shape[1]
        for start in range(0, block.shape[1], step) if ricci else ():
            # a QR slice factored alone, then stacked on the R so far
            r_slice = np.linalg.qr(block[n:, start : start + step].T, mode="r")
            r = np.linalg.qr(np.vstack([r, r_slice]), mode="r")
    full = np.empty((len(third), n, n, n), dtype=complex)
    full[:, rows, cols] = full[:, cols, rows] = triples / nodes
    means = [s / nodes for s in sums], list(full)
    if not ricci:
        return means
    inv11, r22 = np.linalg.inv(r[:n, :n]), r[n:, n:]
    return (*means, (inv11 @ inv11.conj().T) * -(r22.conj().T @ r22).T)


def metric_numeric(
    f: ValidatedFilter, cfg: QuadratureConfig = QuadratureConfig()
) -> HermitianMetric:
    """Metric by quadrature: mixed_{ij} = mean over nodes of d_i log h conj(d_j log h).

    The pure block uses the same average without conjugation and vanishes on
    the constant-gain submanifold.  No routine of the package calls it: only
    the benchmark and the tests do.
    """
    from .closed_form import HermitianMetric

    def blocks(half):
        (mixed, pure), _ = _grid_means(half, f.dimension, [("d", "dc"), ("d", "d")])
        return _hermitian(mixed), (pure + pure.T) / 2  # exactly symmetric

    halves = map(blocks, _halves(f, cfg.nodes))
    (mixed, pure), residual, converged = _checked(*halves, _TOL, "metric")
    return HermitianMetric(mixed, pure, residual, converged)


def _gamma(triple: np.ndarray, second: np.ndarray, alpha: float) -> np.ndarray:
    # -alpha <d_a d_b e_c> + delta_ab <dd_a e_c>
    gamma = -alpha * triple
    k = np.arange(len(triple))
    gamma[k, k] += second
    return gamma


def connection_numeric(
    f: ValidatedFilter, alpha: float, cfg: QuadratureConfig = QuadratureConfig()
) -> ConnectionTensors:
    """All four alpha-connection index families and T by quadrature.

    The second-derivative term contributes only when the first two indices
    are an unbarred pair (or, by conjugation, a barred pair); purely mixed
    pairs carry only the -alpha triple product.  T is twice the two triples,

    T_{ij,kbar} = (1/pi i) oint (d_i log h)(d_j log h)(d_k log h)* dz/z,

    and the residual is the largest change under grid doubling of all six.
    """
    from .closed_form import ConnectionTensors

    def blocks(half):
        # gamma_mixed, gamma_pure, gamma_cross, gamma_cross_bar, t_mixed, t_pure
        seconds = [("dd", "dc"), ("dd", "d")]
        (s, s_pure), (triple, pure) = _grid_means(half, f.dimension, seconds, ("dc", "d"))
        return (
            _gamma(triple, s, alpha),
            _gamma(pure, s_pure, alpha),
            -alpha * triple.transpose(0, 2, 1),
            -alpha * np.conj(triple.transpose(2, 0, 1)),
            2.0 * triple,
            2.0 * pure,
        )

    halves = map(blocks, _halves(f, cfg.nodes, f.dimension))
    fams, residual, converged = _checked(*halves, _TOL, "connection")
    return ConnectionTensors(float(alpha), *fams, residual=residual, converged=converged)


def t_tensor_numeric(
    f: ValidatedFilter, cfg: QuadratureConfig = QuadratureConfig()
) -> ConnectionTensors:
    """T, read at alpha = 0; public only because the benchmark imports it."""
    return connection_numeric(f, 0.0, cfg)


def ricci_numeric(f: ValidatedFilter, cfg: QuadratureConfig = QuadratureConfig()) -> np.ndarray:
    """Ricci block R_{i jbar}, read off the oracle; public only because the benchmark imports it."""
    return oracle_tensors(f, cfg)[3]


def oracle_tensors(
    f: ValidatedFilter, cfg: QuadratureConfig = QuadratureConfig()
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """g_{i jbar}, Gamma^(0)_{ij,kbar}, T_{ij,kbar} and R_{i jbar} from one sample.

    The first three are the mixed blocks of :func:`metric_numeric` and
    :func:`connection_numeric`, checked and named as there, with their bits:
    the sample blocks are the same, and each third moment is a matrix product
    of its own, whether one factor is passed or two.  The Ricci block
    R_{i jbar} = -d_i d_jbar log det g comes from quadrature alone, on the
    even half of the sample (bitwise the m-node grid).  With d log det g =
    tr(g^-1 dg) it is a projection of d^2 log h onto span{d log h}, read off
    the R factor of the QR of [d | dd]: R_{i jbar} = (R11^-1 R11^-H) o
    -(R22^H R22)^T, where R11^H R11 is g^T and R22^H R22 is
    <(I-P) dd_j, (I-P) dd_i>, P the grid projection onto span{d_l} (the
    1/sqrt(m) weight cancels).  g is not inverted, nothing is differenced.
    Each QR slice of nodes is factored alone, then stacked on the R so far:
    a tall-skinny QR with a quarter of the error of stacking raw slices at
    n = 16.
    """

    def legs(blocks, ricci):
        means = _grid_means(blocks, f.dimension, [("d", "dc"), ("dd", "dc")], ("dc",), ricci)
        (g, s), (triple,), *r = means
        return _hermitian(g), _gamma(triple, s, 0.0), 2.0 * triple, *r

    even, odd = map(legs, _halves(f, cfg.nodes, f.dimension), (True, False))
    halves = zip(even, odd, ("metric", "connection", "t_tensor"))
    return (*[_checked([e], [o], _TOL, what)[0][0] for e, o, what in halves], even[3])


def _root_groups(roots) -> list:
    """Runs of consecutive roots whose product of |z - r| stays in [2^-1000, 2^1000] on |z| = 1.

    For |z| = 1, |1 - |r|| <= |z - r| <= 1 + |r|, so a run is cut where the
    product of either bound would leave that range.  It lies at least 2^22
    inside the normal floats, room for the ulp by which a float node is off
    the circle unless roots crowd within an ulp of one node.  A root that
    ``validate`` accepts has |r| <= 1 - 2^-53, so every run of them but the
    last holds 18 or more; a reflected zero that alone passes 2^1000, as an
    ``invariance_suite`` twin's of up to 4.5e307 does, is a run of its own.
    """
    if len(roots) == 1:  # nothing to multiply
        return [roots]
    groups, top, bottom = [], math.inf, 0.0
    for r in roots:
        modulus = abs(r)
        up, down = 1.0 + modulus, abs(1.0 - modulus)
        if top * up <= _GROUP_BOUND and bottom * down >= 1.0 / _GROUP_BOUND:
            groups[-1].append(r)
            top, bottom = top * up, bottom * down
        else:
            groups.append([r])
            top, bottom = up, down
    return groups


def _log_sdf(f: FilterSpec, z: np.ndarray) -> np.ndarray:
    """log S = ln|h|^2 at the circle nodes ``z``, one logarithm per group of roots.

    ln|h| takes ``f.log_gain_term`` for the gain term, +ln|prod (z - zeta)|
    per group of zeros and -ln|prod (z - p)| per group of poles, the groups
    those of :func:`_root_groups`: 1 - xi/z is (z - xi)/z, and z^R and every
    Blaschke factor have modulus 1 on the circle, so neither reaches log S.
    A product of k complex factors is off by at most about k sqrt(5) u
    relative (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., Lemma 3.5), which its one logarithm keeps as an absolute error.  No
    group product overflows or underflows and no division is made, so no
    filter that ``validate`` accepts overflows log S.
    """
    log_h = prod = factor = log_mod = None
    for roots, add in ((f.zeros, np.add), (f.poles, np.subtract)):
        for first, *rest in _root_groups(roots):
            prod = np.subtract(z, first, prod)
            for r in rest:
                factor = np.subtract(z, r, factor)
                prod *= factor
            log_mod = np.abs(prod, log_mod)
            np.log(log_mod, log_mod)
            # the first group's sum with the gain term forms log_h
            log_h = add(f.log_gain_term if log_h is None else log_h, log_mod, log_h)
    if log_h is None:  # no roots
        return np.full(z.shape, 2.0 * f.log_gain_term)
    return np.multiply(log_h, 2.0, out=log_h)


def _phi(x: np.ndarray) -> np.ndarray:
    """(e^x - 1 - x)/x^2: Taylor below |x| = 1/8 (eleven terms reach 1e-17), expm1 above."""
    small = np.abs(x) < 0.125
    t, out = x[~small], np.empty_like(x)
    out[~small] = (np.expm1(t) - t) / (t * t)
    t, acc = x[small], np.full(np.count_nonzero(small), _PHI_TAYLOR[0])
    for coeff in _PHI_TAYLOR[1:]:  # Horner, in place
        acc *= t
        acc += coeff
    out[small] = acc
    return out


def divergence(
    f1: ValidatedFilter,
    f2: ValidatedFilter,
    alpha: float,
    cfg: QuadratureConfig = QuadratureConfig(),
    tol: float = 1e-9,
) -> DivergenceValue:
    """alpha-divergence D^(alpha)(S1 || S2) between the two spectral densities.

    D = mean of ((S2/S1)^alpha - 1 - alpha l)/alpha^2 = mean of l^2 phi(alpha l),
    with l = log(S2/S1) and :func:`_phi`, so it has no cancellation as alpha
    goes to 0 and alpha = 0 (half the mean squared log ratio) is the same
    formula.  alpha = -1 recovers the Kullback-Leibler (Itakura-Saito) form.
    The densities are evaluated on blocks of ``_SPECTRAL_BLOCK`` nodes, and
    each half's sum is the correctly rounded sum of its block sums.
    """
    m, sums = cfg.nodes, []
    for start in range(0, 2 * m, _SPECTRAL_BLOCK):
        z = _nodes(2 * m, start, start + _SPECTRAL_BLOCK)
        ell = _log_sdf(f2, z) - _log_sdf(f1, z)
        terms = ell * ell * _phi(alpha * ell)
        sums.append((np.sum(terms[::2]), np.sum(terms[1::2])))
    even, odd = ([math.fsum(half) / m] for half in zip(*sums))
    (value,), residual, converged = _checked(even, odd, tol, "divergence")
    return DivergenceValue(
        alpha=float(alpha), value=float(value), residual=residual, converged=converged
    )


@dataclass(frozen=True)
class TransformResiduals:
    """Residuals of the outer-factor round trip, and the rounding floor of its sdf leg."""

    coordinate_residual: float
    sdf_residual: float
    sdf_floor: float


@dataclass(frozen=True)
class InvarianceReport:
    """The residuals of a zero's reflection out of the disk and back, None without one."""

    outer_reflection: TransformResiduals | None

    @property
    def max_metric_residual(self) -> float:
        """The reflection's coordinate residual (a NaN kept), 0.0 without that leg.

        Public only because the benchmark reads it.
        """
        return self.outer_reflection.coordinate_residual if self.outer_reflection else 0.0


def invariance_suite(
    f: ValidatedFilter, cfg: QuadratureConfig = QuadratureConfig()
) -> InvarianceReport:
    """Residuals of the spectral density and of the coordinates under a zero's reflection.

    No quadrature runs: the geometry is a function of the coordinates alone.
    z^R and the Blaschke factors never reach log S (see :func:`_log_sdf`),
    so the one leg reflects the largest nonzero zero out of the disk with
    gain compensation (its sdf residual) and recovers it through
    :func:`cepgeo.filters.outer_factor`, which keeps root order and
    signature (its coordinate residual, the largest |xi_back - xi|, a NaN
    kept).  The twin's rounded 1/conj(zeta) moves S by up to about
    2 eps/(1 - |zeta|) beside zeta, so the leg states ``sdf_floor`` =
    4 eps/(1 - |zeta|).  A zero whose round trip rounds into the margin
    band, as one at |zeta| = 1 - eps_stab can, is passed over for the next,
    and so is one whose twin would leave the normal floats (a zero below
    about 2.2e-308, whose 1/conj(zeta) overflows, or a gain sigma sqrt|zeta|
    that underflows); the leg is None when no zero qualifies.  The sdf
    residual is max |expm1(log S' - log S)| on 1024 circle nodes, read off
    :func:`_log_sdf`.  ``cfg`` is not read, and stays in the signature only
    because the benchmark passes one.
    """
    # zeros whose twin keeps its zero 1/conj(zeta) and its gain sigma sqrt|zeta| normal
    tiny = sys.float_info.min
    normal = [j for j, zt in enumerate(f.zeros) if min(abs(zt), f.gain * abs(zt) ** 0.5) >= tiny]
    for j in sorted(normal, key=lambda j: -abs(f.zeros[j])):
        twin = reflect_zero_out(f, j)  # same S, no longer minimum phase
        try:
            recovered = outer_factor(twin, f.eps_stab)
        except ZeroOnCircle:  # the round trip rounded into the margin band
            continue
        moved = np.abs(np.subtract(recovered.coordinates, f.coordinates))
        z = _nodes(1024, 0, 1024)
        sdf = float(np.max(np.abs(np.expm1(_log_sdf(twin, z) - _log_sdf(f, z)))))
        floor = 4.0 * sys.float_info.epsilon / (1.0 - abs(f.zeros[j]))
        return InvarianceReport(TransformResiduals(float(np.max(moved)), sdf, floor))
    return InvarianceReport(None)


@dataclass(frozen=True)
class DualityReport:
    """Residuals of the alpha-duality identity on the grid and of the reciprocal's root swap."""

    duality_residual: float
    reciprocal_residual: float


def _row_sums(r: np.ndarray) -> np.ndarray:
    """Row sums of r r and of r conj(r), formed in one temporary."""
    prod = r * r
    rr = np.sum(prod, axis=1)
    np.multiply(r, np.conjugate(r, out=prod), out=prod)
    return np.stack([rr, np.sum(prod, axis=1)])


def _duality_pass(f: ValidatedFilter, cfg: QuadratureConfig):
    """<dd_i E_b> and the two Wirtinger derivatives of <d_i E_b>, in one pass.

    E = [conj(d); d] is the sample's row order, the full index D = [d; conj(d)]
    with its halves swapped.  d_mu <D_a D_b> is a central Wirtinger
    difference in xi_i or conj(xi_i), i = mu mod n.  log h separates per
    root, so moving xi_i by +-h or +-ih changes row i of d alone, and
    d_mu <D_a D_b> is zero outside rows and columns i and n+i.  Row n+i of
    each derivative is row i of the other conjugated, column halves
    swapped (g_{a+n,b+n} = conj(g_{ab})), so each is returned in the row of
    d_i alone: ``hol`` = d_i <d_i E_b> and ``anti`` = d_(n+i) <d_i E_b>, in
    xi_i and conj(xi_i), each (n, 2n) like <dd_i E_b>.  Each of the four
    steps goes through :func:`cepgeo.filters.validate` as one filter with
    every root moved (its rules are per root), and its error, code kept,
    names the step.  The 4n moved rows r are sampled root by root, then by
    step, in the same blocks as f, 7n rows in all: one product per block
    takes <r E_b> with <dd_i E_b>.
    """
    n, h, p = f.dimension, DERIV_STEP, len(f.poles)
    moved = [[xi + s for xi in f.coordinates] for s in (h, -h, 1j * h, -1j * h)]
    for step, coords in zip(("+ h", "- h", "+ ih", "- ih"), moved):
        try:
            validate(replace(f.to_spec(), poles=coords[:p], zeros=coords[p:]), f.eps_stab)
        except FilterError as exc:  # the code stays; the message says the step moved the root
            exc.args = (f"{exc} after the duality check's step xi -> xi {step}, h = {h:g}",)
            raise
    roots = [*f.coordinates, *np.transpose(moved).ravel()]
    signs = [*f.signature, *np.repeat(f.signature, 4)]
    second, diag = 0, 0
    (blocks,) = _sample(roots, signs, ((cfg.nodes, 0, 1),), n, n)
    for block in blocks:  # conj(d) and d of f, r, dd of f
        second = second + block[2 * n :] @ block[: 2 * n].T
        diag = diag + _row_sums(block[2 * n : 6 * n])
    m = cfg.nodes
    # u[i, step, b] = <r E_b>, with <r conj(r)> at b = i and <r r> at b = n+i
    u = second[: 4 * n].reshape(n, 4, 2 * n) / m
    i = np.arange(n)
    u[i, :, n + i], u[i, :, i] = diag.reshape(2, n, 4) / m
    dx, dy = (u[:, 0] - u[:, 1]) / (2.0 * h), (u[:, 2] - u[:, 3]) / (2.0 * h)
    return second[4 * n :] / m, 0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy)


def duality_check(
    f: ValidatedFilter,
    alpha: float,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> DualityReport:
    """Residuals of d_mu g_{nu rho} = Gamma^{(a)}_{mu nu,rho} + Gamma^{(-a)}_{mu rho,nu}.

    The indices run over all holomorphic and anti-holomorphic coordinates.
    Gamma^(a) = Gamma^(0) - (a/2) T with T fully symmetric, so the +-a
    terms cancel and the identity is metric compatibility,
    d_mu g_{nu rho} = Gamma^(0)_{mu nu,rho} + Gamma^(0)_{mu rho,nu}, for
    every a: ``alpha`` is not read, and stays in the signature only because
    the benchmark passes one.  The left side is a central Wirtinger
    difference of the quadrature metric (see :func:`_duality_pass`), so
    the residual is finite-difference limited.  Gamma^(0)_{mu nu,rho} =
    delta_{mu nu} <dd_mu D_rho> is zero outside row mu, so both sides are
    compared in the row of d_i (i = mu mod n) that the left side moves,
    row n+i being the other derivative's row i conjugated; by symmetry the
    columns add nothing.  The reciprocal residual is the largest |xi' - xi|
    between the reciprocal's poles and f's zeros and between its zeros and
    f's poles (a NaN kept, inf if the counts differ): 1/h has f's roots with
    poles and zeros exchanged.  A filter with no roots has residuals of 0.
    """
    n = f.dimension
    # the Blaschke factors leave the coordinates alone, so the reciprocal leg takes the root part
    rec = reciprocal(validate(replace(f.to_spec(), blaschke_points=()), f.eps_stab))
    swap = math.inf  # unless the root counts swap too; np.max, unlike max(), keeps a NaN
    if (len(rec.poles), len(rec.zeros)) == (len(f.zeros), len(f.poles)):
        swap = float(np.max(np.abs(np.subtract(rec.coordinates, f.zeros + f.poles)), initial=0.0))
    second, hol, anti = _duality_pass(f, cfg)
    i = np.arange(n)
    hol -= second  # delta_{mu nu} <dd_mu E_rho>, mu = nu = i
    hol[i, n + i] -= second[i, n + i]  # delta_{mu rho} <dd_i d_i>, rho = mu = i
    anti[i, i] -= second[i, i].conj()  # delta_{mu rho} <conj(dd_i) d_i>, rho = mu = n+i
    worst = np.max(np.abs([hol, anti]), initial=0.0)
    return DualityReport(duality_residual=float(worst), reciprocal_residual=swap)
