import cmath
import dataclasses
import functools
import hashlib
import itertools
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cepgeo import closed_form
from cepgeo.closed_form import (
    CoincidentRootsError,
    CoincidentRootsWarning,
    DeterminantUnderflowWarning,
    ModelPoint,
    SCALAR_ERROR_BOUND,
    ScalarCancellationWarning,
    alpha_connection,
    alpha_ricci,
    cauchy_inverse,
    connection0,
    inverse_metric,
    kahler_potential,
    metric,
    metric_determinant,
    ricci0,
    t_tensor,
    _li2,
)
from cepgeo.filters import reciprocal
from cepgeo.sampling import sample_root_tuples

from conftest import (
    GAIN,
    arma_from_roots,
    mp_inverse_metric,
    peak_mib,
    replace_param,
    wirtinger_mixed_hessian,
)

AR1 = ModelPoint((0.5,), (-1,))
ARMA11 = ModelPoint((0.5, 0.3), (-1, 1))
AR2 = ModelPoint((0.5, 0.3), (-1, -1))

# partial-sum oracle for the dilogarithm value of the AR(1) potential
LI2_QUARTER = float(sum(0.25**r / r**2 for r in range(1, 201)))


def random_points(seed, count, n=4, signature=(-1, -1, 1, 1), radius=0.9, sep=0.05):
    rows = sample_root_tuples(seed, count, n, radius, sep)
    return [ModelPoint(tuple(row), signature) for row in rows]


def mixed_signature(n):
    return (-1,) * ((n + 1) // 2) + (1,) * (n // 2)


def max_relative(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def edge_points():
    """n = 0..32 at random, with a root at 0, near the circle and in a near-coincident pair."""
    rng = np.random.default_rng(41)
    for n in range(33):
        signature = mixed_signature(n)
        xi = 0.9 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        yield ModelPoint(tuple(xi), signature)
        if n:
            yield ModelPoint((0.0, *xi[1:]), signature)
            yield ModelPoint(tuple((1.0 - 1e-6) * xi / np.abs(xi)), signature)
        if n > 1:
            for sep in (1e-6, 1e-10):
                yield ModelPoint((xi[1] + sep, *xi[1:]), signature)


# 16 poles and 16 zeros whose det g, about 1.56e-406, underflows
ARMA16_16 = ModelPoint(tuple(sample_root_tuples(1, 1, 32, 0.5, 0.02)[0]), (-1,) * 16 + (1,) * 16)


def hermitian_from_upper(x):
    """x from its upper triangle and the real part of its diagonal."""
    upper = np.triu(x, 1)
    return upper + upper.conj().T + np.diag(x.diagonal().real.astype(complex))


def one_signature_scalar(m, alpha):
    """(1 + alpha c)(n(n-1)/2 - Re sum_ij 1/(1 - xi^i conj(xi^j))), the scalar at one signature."""
    xi = np.asarray(m.params, dtype=complex)
    a = 1.0 - np.outer(xi, xi.conj())
    return (1.0 + alpha * m.signature[0]) * (m.n * (m.n - 1) / 2 - float(np.sum(1.0 / a).real))


def mp_scalar_terms(mp, m):
    """sum_ij B[i][j] R^0_{i jbar} and sum_ij B[i][j] (c_i + c_j) R^0_{i jbar}, in mpmath.

    The contraction of the alpha-Ricci block is their first plus alpha/2 times the second.
    """
    b = mp_inverse_metric(mp, m)
    xi = [mp.mpc(p) for p in m.params]
    c = m.signature
    r0 = [[-1 / (1 - xi[i] * mp.conj(xi[j])) ** 2 for j in range(m.n)] for i in range(m.n)]
    pairs = [(i, j) for i in range(m.n) for j in range(m.n)]
    return (
        mp.re(mp.fsum(b[i, j] * r0[i][j] for i, j in pairs)),
        mp.re(mp.fsum(b[i, j] * (c[i] + c[j]) * r0[i][j] for i, j in pairs)),
    )


def alpha_ricci_correction(m):
    # d_jbar T^k_{ik} (Hermitian part) as alpha_ricci applies it
    return alpha_ricci(m, 2.0).ricci - ricci0(m).ricci


def mp_alpha_ricci_correction(mp, m):
    """Hermitian part of d_jbar (B[k,l] T[i,k,l]) by the product rule.

    d_jbar B = -B (d_jbar g^T) B, and d_jbar g[k,l] and d_jbar T[i,k,l] are
    nonzero only at l = j.
    """
    n, c = m.n, m.signature
    b = mp_inverse_metric(mp, m)
    xi = [mp.mpc(p) for p in m.params]
    xb = [mp.conj(x) for x in xi]
    a = [[1 - xi[i] * xb[j] for j in range(n)] for i in range(n)]
    # t[i] is T[i,k,l] flattened over (k, l)
    t = [
        [-2 * c[i] * c[k] * c[l] * xb[l] / (a[i][l] * a[k][l]) for k in range(n) for l in range(n)]
        for i in range(n)
    ]
    raw = [[None] * n for _ in range(n)]
    for j in range(n):
        dg = [c[k] * c[j] * xi[k] / a[k][j] ** 2 for k in range(n)]
        w = [mp.fdot(dg, [b[q, l] for q in range(n)]) for l in range(n)]
        db = [b[k, j] * w[l] for k in range(n) for l in range(n)]  # -d_jbar B, flattened
        b_col = [b[k, j] for k in range(n)]
        for i in range(n):
            dt = [
                -2 * c[i] * c[k] * c[j] * (1 - xi[i] * xi[k] * xb[j] ** 2)
                / (a[i][j] ** 2 * a[k][j] ** 2)
                for k in range(n)
            ]
            raw[i][j] = mp.fdot(b_col, dt) - mp.fdot(db, t[i])
    return np.array(
        [[complex((raw[i][j] + mp.conj(raw[j][i])) / 2) for j in range(n)] for i in range(n)]
    )


class TestModelPoint:
    def test_from_filter_ordering(self, arma11):
        m = ModelPoint.from_filter(arma11)
        assert m.params == (0.5, 0.3)
        assert m.signature == (-1, 1)
        assert m.labels == ("pole0", "zero1")

    def test_rejects_unit_modulus(self):
        with pytest.raises(ValueError):
            ModelPoint((1.0,), (-1,))

    # from_filter always pairs the coordinates with their signature: library only
    @pytest.mark.parametrize(
        "params, signature, message",
        [
            ((0.5,), (-1, 1), "params and signature must have equal length"),
            ((0.5, 0.3), (-1, 0), "signature entries must be -1 (pole) or +1 (zero)"),
        ],
        ids=["length-mismatch", "bad-signature"],
    )
    def test_rejects_malformed_input(self, params, signature, message):
        with pytest.raises(ValueError) as exc_info:
            ModelPoint(params, signature)
        assert str(exc_info.value) == message


def li2_test_points(seed=5):
    """Seeded |w| < 1 covering w -> 0, w -> +-1, the Re w = 1/2 seam and the circle."""
    rng = np.random.default_rng(seed)
    near_circle = (1.0 - 10.0 ** rng.uniform(-12, 0, 200)) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, 200)
    )
    tiny = 10.0 ** rng.uniform(-8, -1, 100) * np.exp(1j * rng.uniform(-np.pi, np.pi, 100))
    height = rng.uniform(-0.86, 0.86, 50)
    seam = np.concatenate([0.5 + 1j * height, np.nextafter(0.5, 1.0) + 1j * height])
    gap = 10.0 ** rng.uniform(-12, 0, 50)
    real = np.concatenate([1.0 - gap, gap - 1.0]).astype(complex)
    return np.concatenate([near_circle, tiny, seam, real])


def mp_potential(mp, m):
    """Sum_{i,j} c_i c_j Li2(xi^i conj(xi^j)) at the working precision.

    Li2(conj w) = conj(Li2(w)), so each pair i < j is counted twice.
    """
    xi = [mp.mpc(p) for p in m.params]
    c = m.signature
    return mp.fsum(
        (1 if i == j else 2) * c[i] * c[j] * mp.re(mp.polylog(2, xi[i] * mp.conj(xi[j])))
        for i in range(m.n)
        for j in range(i, m.n)
    )


# 24 equally spaced roots at radius 0.999998, twelve poles then twelve zeros:
# the 256-term series gave 240.064 here, against the true 240.158
CIRCLE24 = ModelPoint(
    tuple(0.999998 * np.exp(2j * np.pi * np.arange(24) / 24)), (-1,) * 12 + (1,) * 12
)


class TestDilogarithm:
    def test_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        w = li2_test_points()
        assert np.all(np.abs(w) < 1.0)
        got = _li2(w)
        with mp.workdps(40):
            ref = np.array([complex(mp.polylog(2, mp.mpc(z.real, z.imag))) for z in w])
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 2e-15

    def test_origin_and_real_values(self):
        assert _li2(np.zeros(3, dtype=complex)).tolist() == [0.0, 0.0, 0.0]
        # Li2(1/2) = pi^2/12 - log(2)^2/2, and Li2(w) -> -pi^2/12 as w -> -1
        half = np.pi**2 / 12 - np.log(2.0) ** 2 / 2
        assert _li2(np.array([0.5 + 0j]))[0] == pytest.approx(half, rel=1e-15)
        near_minus_one = np.array([np.nextafter(-1.0, 0.0) + 0j])
        assert _li2(near_minus_one)[0] == pytest.approx(-np.pi**2 / 12, rel=1e-15)


class TestKahlerPotential:
    def test_origin_vanishes(self):
        assert kahler_potential(ModelPoint((0.0,), (-1,))).value == 0.0

    def test_ar1_dilogarithm(self):
        pot = kahler_potential(AR1)
        assert pot.value == pytest.approx(LI2_QUARTER, abs=1e-14)
        assert pot.value == pytest.approx(0.2676526390827326, abs=1e-13)

    def test_signature_cancellation(self):
        assert kahler_potential(ModelPoint((0.4, 0.4), (-1, 1))).value == 0.0

    @pytest.mark.parametrize(
        "m",
        [ModelPoint((0.999,), (-1,)), ModelPoint((1.0 - 1e-6,), (-1,)), CIRCLE24],
        ids=["ar1-0.999", "ar1-1e-6", "circle24"],
    )
    def test_matches_mpmath_near_the_circle(self, m):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            ref = float(mp_potential(mp, m))
        assert kahler_potential(m).value == pytest.approx(ref, rel=1e-14)

    def test_mixed_hessian_of_potential_is_metric(self):
        # the defining property g_{i jbar} = d_i d_jbar K, by Wirtinger
        # central differences
        for m in random_points(3, 5):
            hess = wirtinger_mixed_hessian(lambda pt: kahler_potential(pt).value, m, step=1e-4)
            assert np.max(np.abs(hess - metric(m).mixed)) < 1e-6


class TestMetric:
    def test_ar1_value(self):
        assert metric(AR1).mixed[0, 0] == pytest.approx(4.0 / 3.0)

    def test_arma11_matrix(self):
        expected = np.array([[4.0 / 3.0, -1.0 / 0.85], [-1.0 / 0.85, 1.0 / 0.91]])
        assert np.allclose(metric(ARMA11).mixed, expected, rtol=1e-14)

    def test_ar2_off_diagonal_sign(self):
        assert metric(AR2).mixed[0, 1] == pytest.approx(1.0 / 0.85)

    def test_exactly_hermitian_and_positive_definite(self):
        for m in random_points(5, 5):
            g = metric(m).mixed
            assert np.array_equal(g, g.conj().T)
            assert np.min(np.linalg.eigvalsh(g)) > 0.0

    def test_pure_block_vanishes(self):
        assert np.all(metric(ARMA11).pure == 0.0)

    @pytest.mark.parametrize("radius", [0.999, 0.99999])
    def test_diagonals_match_mpmath_near_the_circle(self, radius):
        # The diagonals read Re(1 - xi conj(xi)) = 1 - (x^2 + y^2) off the factor
        # matrix.  Relative to eps/(1 - r^2), 40 points of 8 roots on |xi| = r
        # were at most 0.49 (metric) and 0.95 (Ricci) from 40-digit values; with
        # 1 - |xi|^2 through a hypot they were 1.68 and 3.35.
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(5)
        unit = np.finfo(float).eps / (1.0 - radius**2)
        worst_g = worst_r = 0.0
        for _ in range(40):
            angles = 2.0 * np.pi * (np.arange(8) + 0.5 * rng.random(8)) / 8
            m = ModelPoint(tuple(radius * np.exp(1j * angles)), mixed_signature(8))
            g, r = metric(m).mixed.diagonal(), ricci0(m).ricci.diagonal()
            assert not np.any(g.imag) and not np.any(r.imag)
            with mp.workdps(40):
                for i, p in enumerate(m.params):
                    edge = 1 - mp.mpf(p.real) ** 2 - mp.mpf(p.imag) ** 2
                    worst_g = max(worst_g, float(abs(g[i].real * edge - 1)))
                    worst_r = max(worst_r, float(abs(r[i].real * edge**2 + 1)))
        assert worst_g <= unit
        assert worst_r <= 2.0 * unit

    def test_kahler_closedness(self):
        # d_k g_{i jbar} == d_i g_{k jbar} by central Wirtinger differences
        step = 1e-5
        for m in random_points(7, 3):
            n = m.n

            def d_hol(k, pt):
                xi = pt.params[k]
                gx = (
                    metric(replace_param(pt, k, xi + step)).mixed
                    - metric(replace_param(pt, k, xi - step)).mixed
                ) / (2 * step)
                gy = (
                    metric(replace_param(pt, k, xi + 1j * step)).mixed
                    - metric(replace_param(pt, k, xi - 1j * step)).mixed
                ) / (2 * step)
                return 0.5 * (gx - 1j * gy)

            grads = [d_hol(k, m) for k in range(n)]
            worst = max(
                float(np.max(np.abs(grads[k][i, :] - grads[i][k, :])))
                for i in range(n)
                for k in range(n)
            )
            assert worst < 1e-6

    def test_ar_submanifold_block_matches_ar_model(self):
        arma = ModelPoint((0.5, -0.2 + 0.4j, 0.3, 0.1j), (-1, -1, 1, 1))
        ar = ModelPoint((0.5, -0.2 + 0.4j), (-1, -1))
        assert np.array_equal(metric(arma).mixed[:2, :2], metric(ar).mixed)

    def test_ar_ma_duality_leaves_metric_invariant(self):
        swapped = ModelPoint(ARMA11.params, tuple(-c for c in ARMA11.signature))
        assert np.array_equal(metric(swapped).mixed, metric(ARMA11).mixed)


class TestInverseMetric:
    def test_ar1_scalar_reciprocal(self):
        assert inverse_metric(AR1)[0, 0] == pytest.approx(0.75)

    def test_product_is_identity(self):
        for m in random_points(9, 5):
            b = inverse_metric(m)
            g = metric(m).mixed
            product = np.einsum("ij,kj->ik", b, g)
            assert np.max(np.abs(product - np.eye(m.n))) < 1e-10

    def test_near_coincident_falls_back(self):
        m = ModelPoint((0.5, 0.5 + 1e-12), (-1, -1))
        with pytest.warns(CoincidentRootsWarning):
            inverse_metric(m)

    def test_exact_coincidence_raises(self):
        m = ModelPoint((0.5, 0.5), (-1, -1))
        with pytest.warns(CoincidentRootsWarning):
            with pytest.raises(CoincidentRootsError):
                inverse_metric(m)

    def test_non_finite_result_raises(self):
        # the separation 1e-160 squares to below the double range
        m = ModelPoint((0.0, 1e-160), (-1, -1))
        with pytest.warns(CoincidentRootsWarning):
            with pytest.raises(CoincidentRootsError):
                inverse_metric(m)

    @pytest.mark.parametrize("n", [0, 1, 2, 4, 8])
    def test_batched_rows_match_per_point_bitwise(self, n):
        # 20000 tuples, past the size where numpy reuses temporaries in place
        signature = mixed_signature(n)
        rows = sample_root_tuples(6, 20000, n, 1.0 - 1e-6, 1e-4)
        batched = cauchy_inverse(rows, np.asarray(signature, dtype=float))
        assert batched.shape == (20000, n, n)
        for s in range(0, 20000, 499):
            assert np.array_equal(batched[s], inverse_metric(ModelPoint(tuple(rows[s]), signature)))

    def test_batched_coincidence_warns_and_raises(self):
        rows = np.array([[0.1, 0.5], [0.5, 0.5]], dtype=complex)
        with pytest.warns(CoincidentRootsWarning):
            with pytest.raises(CoincidentRootsError):
                cauchy_inverse(rows, np.array([-1.0, -1.0]))

    @pytest.mark.parametrize("sep", [1e-6, 1e-9, 1e-12])
    def test_entrywise_accurate_near_coincidence(self, sep):
        mp = pytest.importorskip("mpmath")
        base = random_points(11, 1)[0].params
        params = (base[0], base[0] + sep * cmath.exp(0.7j)) + base[2:]
        m = ModelPoint(params, (-1, -1, 1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CoincidentRootsWarning)
            b = inverse_metric(m)
        with mp.workdps(80):
            ref = mp_inverse_metric(mp, m)
        ref = np.array([[complex(ref[i, j]) for j in range(m.n)] for i in range(m.n)])
        assert np.max(np.abs(b - ref) / np.abs(ref)) <= 1e-13


class TestDeterminant:
    def test_arma11_value(self):
        # direct 2x2 determinant of the closed-form metric
        g = metric(ARMA11).mixed
        direct = float(np.linalg.det(g).real)
        assert metric_determinant(ARMA11) == pytest.approx(direct, rel=1e-12)
        assert metric_determinant(ARMA11) == pytest.approx(0.08111842021876624, rel=1e-12)

    def test_origin_is_one(self):
        assert metric_determinant(ModelPoint((0.0,), (-1,))) == pytest.approx(1.0)

    def test_equal_roots_vanish(self):
        assert metric_determinant(ModelPoint((0.5, 0.5), (-1, -1))) == 0.0

    def test_signature_independent(self):
        swapped = ModelPoint(ARMA11.params, (1, -1))
        assert metric_determinant(swapped) == pytest.approx(metric_determinant(ARMA11))

    @staticmethod
    def mp_det(mp, m):
        # the determinant of the metric matrix itself, not the product formula
        xi = [mp.mpc(p) for p in m.params]
        c = m.signature
        g = mp.matrix([[c[i] * c[j] / (1 - xi[i] * mp.conj(xi[j])) for j in range(m.n)] for i in range(m.n)])
        return mp.det(g)

    @pytest.mark.parametrize("radius", [0.9, 0.99, 0.999])
    def test_matches_mpmath_n32_near_the_circle(self, radius):
        mp = pytest.importorskip("mpmath")
        sig = mixed_signature(32)
        sampled = random_points(29, 1, n=32, signature=sig, radius=radius, sep=1e-3)[0]
        angles = [2.0 * np.pi * k / 32 + 0.05 * np.sin(3.0 * k) for k in range(32)]
        ring = ModelPoint(tuple(radius * cmath.exp(1j * a) for a in angles), sig)
        # With every root on |xi| = r, each diagonal factor 1 - xi conj(xi)
        # comes from a product rounded near 1 and keeps only (1 - r^2) of its
        # relative accuracy (1.4e-13 at r = 0.999), so the ring is held to
        # that loss and the sampled roots to 1e-13.
        for m, tol in ((sampled, 1e-13), (ring, 32 * np.finfo(float).eps / (1.0 - radius**2))):
            with mp.workdps(80):
                ref = self.mp_det(mp, m)
                assert abs(metric_determinant(m) - ref.real) / ref.real <= tol

    def test_underflow_at_distinct_coordinates_warns(self):
        # 30-digit det g is about 1.56e-406, below the double range
        mp = pytest.importorskip("mpmath")
        m = ARMA16_16
        with mp.workdps(30):
            xi = [mp.mpc(p) for p in m.params]
            pairs = [abs(xi[k] - xi[j]) ** 2 for j in range(m.n) for k in range(j + 1, m.n)]
            den = mp.fprod(1 - xi[j] * mp.conj(xi[k]) for j in range(m.n) for k in range(m.n))
            ref = mp.fprod(pairs) / mp.re(den)
        assert 0 < ref < sys.float_info.min
        with pytest.warns(DeterminantUnderflowWarning, match="underflowed"):
            det = metric_determinant(m)
        assert det < sys.float_info.min

    def test_coincident_pair_is_zero_without_the_underflow_warning(self):
        params = ARMA16_16.params
        for m in (
            ModelPoint((0.5, 0.5), (-1, -1)),
            ModelPoint((params[1], *params[1:]), ARMA16_16.signature),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert metric_determinant(m) == 0.0

    # each seed puts a pair whose libm-pow square abs(q - p) ** 2 is an ulp off
    @pytest.mark.parametrize("n, seed", [(8, 54), (32, 6)])
    def test_numerator_is_the_correctly_rounded_product(self, monkeypatch, n, seed):
        # Gaussian-rational coordinates on a 2^-20 grid: every q - p is exact, so each
        # factor must be its float modulus squared with one rounding, as Fraction gives it
        scale, rng = 1 << 20, np.random.default_rng(seed)
        params = []
        while len(params) < n:
            a, b = (int(v) for v in rng.integers(-(9 * scale) // 10, (9 * scale) // 10, 2))
            if a * a + b * b < (9 * scale // 10) ** 2:
                params.append(complex(a, b) / scale)
        calls, prod = [], math.prod

        def recorded(factors):
            calls.append((factors, prod(factors)))
            return calls[-1][1]

        monkeypatch.setattr(math, "prod", recorded)
        metric_determinant(ModelPoint(tuple(params), mixed_signature(n)))
        ((factors, num),) = calls
        moduli = [abs(q - p) for p, q in itertools.combinations(params, 2)]
        assert factors == [float(Fraction(d) ** 2) for d in moduli]
        exact = Fraction(1)
        for factor in factors:  # the sequential product, each step rounded once
            exact = Fraction(float(exact * Fraction(factor)))
        assert num == float(exact)

    @pytest.mark.parametrize("sep", [1e-4, 1e-6, 1e-8, 1e-10])
    def test_matches_mpmath_at_a_near_coincident_pair(self, sep):
        mp = pytest.importorskip("mpmath")
        base = random_points(19, 1)[0].params
        m = ModelPoint((base[0], base[0] + sep * cmath.exp(0.7j)) + base[2:], (-1, -1, 1, 1))
        with mp.workdps(80):
            ref = self.mp_det(mp, m)
            assert abs(metric_determinant(m) - ref.real) / ref.real <= 1e-13


class TestConnection:
    def test_ar1_value(self):
        assert connection0(AR1).gamma_mixed[0, 0, 0] == pytest.approx(8.0 / 9.0)

    def test_off_diagonal_first_pair_vanishes(self):
        for m in random_points(11, 3):
            gamma = connection0(m).gamma_mixed
            for i in range(m.n):
                for j in range(m.n):
                    if i != j:
                        assert np.all(gamma[i, j, :] == 0.0)

    def test_origin_vanishes(self):
        m = ModelPoint((0.0, 0.0), (-1, 1))
        assert np.all(connection0(m).gamma_mixed == 0.0)

    def test_levi_civita_from_potential(self):
        # Gamma^0_{ij,kbar} = d_i d_j d_kbar K: third derivative of the
        # potential by differencing the analytic metric (= d_i d_kbar K)
        step = 1e-5
        m = ModelPoint((0.5,), (-1,))
        xi = m.params[0]
        gx = (
            metric(replace_param(m, 0, xi + step)).mixed[0, 0]
            - metric(replace_param(m, 0, xi - step)).mixed[0, 0]
        ) / (2 * step)
        gy = (
            metric(replace_param(m, 0, xi + 1j * step)).mixed[0, 0]
            - metric(replace_param(m, 0, xi - 1j * step)).mixed[0, 0]
        ) / (2 * step)
        third = 0.5 * (gx - 1j * gy)
        assert connection0(m).gamma_mixed[0, 0, 0] == pytest.approx(third, abs=1e-8)


class TestTTensor:
    def test_ar1_value_fixed_by_quadrature_oracle(self):
        # the defining contour integral gives +2 xi / (1-|xi|^2)^2 for a pole
        assert t_tensor(AR1).t_mixed[0, 0, 0] == pytest.approx(16.0 / 9.0)

    def test_ma1_sign(self):
        m = ModelPoint((0.3,), (1,))
        assert t_tensor(m).t_mixed[0, 0, 0] == pytest.approx(-2.0 * 0.3 / 0.91**2)

    def test_origin_vanishes(self):
        assert np.all(t_tensor(ModelPoint((0.0,), (-1,))).t_mixed == 0.0)

    @pytest.mark.parametrize("n", [1, 2, 4, 7, 33])
    def test_symmetric_in_first_two_indices(self, n):
        # compared as bytes, so a signed zero or a last bit counts; the cross
        # families are one scale of T and one conjugate of gamma_cross
        for m in random_points(13, 3, n=n, signature=mixed_signature(n)):
            t = t_tensor(m).t_mixed
            assert t.tobytes() == np.ascontiguousarray(t.transpose(1, 0, 2)).tobytes()
            for alpha in (0.5, -1.0):
                conn = alpha_connection(m, alpha)
                assert conn.t_mixed.tobytes() == t.tobytes()
                cross = np.multiply(-0.5 * alpha, t.transpose(0, 2, 1))
                assert conn.gamma_cross.tobytes() == cross.tobytes()
                cross_bar = np.conjugate(conn.gamma_cross.transpose(1, 2, 0))
                assert conn.gamma_cross_bar.tobytes() == cross_bar.tobytes()


ALPHAS = [pytest.param(a, id=f"alpha{a:g}") for a in (0.0, 0.5, -1.0)]


class TestAlphaConnection:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_is_the_levi_civita_diagonal_minus_half_alpha_t_bitwise(self, alpha):
        # Gamma^0 as its own formula: zero off i = j, c_j c_k conj(xi^k) / a[j][k]^2 on it
        for m in edge_points():
            xi, c = np.asarray(m.params, dtype=complex), np.asarray(m.signature, dtype=float)
            a = 1.0 - np.outer(xi, xi.conj())
            conn = alpha_connection(m, alpha)
            half_t = 0.5 * alpha * conn.t_mixed
            gamma = 0.0 - half_t
            diag = np.arange(m.n)
            gamma[diag, diag] = np.outer(c, c) * xi.conj() / a**2 - half_t[diag, diag]
            assert np.array_equal(conn.gamma_mixed, gamma), (m.n, m.params[:2])

    def test_ar1_alpha_one_flat(self):
        # Gamma^0 and (1/2) T coincide for AR(1), so the alpha=1 family is flat
        assert alpha_connection(AR1, 1.0).gamma_mixed[0, 0, 0] == pytest.approx(0.0, abs=1e-15)
        assert alpha_connection(AR1, -1.0).gamma_mixed[0, 0, 0] == pytest.approx(16.0 / 9.0)

    def test_affine_identity(self):
        for m in random_points(17, 3):
            plus = alpha_connection(m, 0.7).gamma_mixed
            minus = alpha_connection(m, -0.7).gamma_mixed
            assert np.max(np.abs((plus + minus) / 2 - connection0(m).gamma_mixed)) < 1e-14

    def test_ar_ma_swap_maps_alpha_to_minus_alpha(self):
        swapped = ModelPoint(ARMA11.params, tuple(-c for c in ARMA11.signature))
        for alpha in (0.5, 1.0):
            a = alpha_connection(swapped, alpha).gamma_mixed
            b = alpha_connection(ARMA11, -alpha).gamma_mixed
            assert np.max(np.abs(a - b)) < 1e-14

    @pytest.mark.parametrize("alpha", [0.5, -1.0, 2.0])
    def test_reciprocal_filter_maps_alpha_to_minus_alpha(self, alpha):
        # 1/h has the roots of h with poles and zeros exchanged, its zeros
        # first: its alpha family is the -alpha family of h, its T the
        # negated T and its metric the metric, each with the roots permuted back
        for n in range(1, 17):
            f = arma_from_roots(sample_root_tuples(90 + n, 1, n, 0.9, 0.05)[0], (n + 1) // 2)
            point, rec = ModelPoint.from_filter(f), ModelPoint.from_filter(reciprocal(f))
            perm = np.array([*range(len(f.poles), n), *range(len(f.poles))])
            cube = perm[:, None, None], perm[:, None], perm
            conn, ref = alpha_connection(rec, alpha), alpha_connection(point, -alpha)
            families = ("gamma_mixed", "gamma_pure", "gamma_cross", "gamma_cross_bar")
            pairs = [(getattr(conn, name), getattr(ref, name)[cube]) for name in families]
            pairs += [
                (conn.t_mixed, -ref.t_mixed[cube]),
                (metric(rec).mixed, metric(point).mixed[np.ix_(perm, perm)]),
            ]
            for got, want in pairs:
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), n

    def test_holds_no_n3_temporary(self):
        # the four dense (32, 32, 32) complex results hold 2 MiB and the two
        # zero views nothing; T is written in place and the (n, n) work
        # arrays stay well under 1/4 MiB
        m = random_points(23, 1, n=32, signature=mixed_signature(32), radius=0.95, sep=1e-3)[0]
        peak, conn = peak_mib(lambda: alpha_connection(m, 0.5))
        assert conn.gamma_mixed.nbytes == 2**19
        assert peak <= 2.25

    @pytest.mark.parametrize("n", [0, 1, 32])
    def test_pure_blocks_are_read_only_zero_views(self, n):
        m = random_points(29, 1, n=n, signature=mixed_signature(n))[0]
        conn = alpha_connection(m, 0.5)
        for block in (metric(m).pure, conn.gamma_pure, conn.t_pure):
            assert block.shape == (n,) * block.ndim
            assert not block.flags.writeable
            with pytest.raises(ValueError):
                block.flags.writeable = True  # no caller can write into the shared zero
            assert set(block.strides) <= {0}
            assert block.dtype == complex
            assert np.all(block == 0.0)
            assert not np.signbit(block.real).any() and not np.signbit(block.imag).any()

    def test_cross_families_scale_with_alpha(self):
        m = ARMA11
        conn = alpha_connection(m, 0.5)
        t = t_tensor(m).t_mixed
        assert np.allclose(conn.gamma_cross, -0.25 * np.transpose(t, (0, 2, 1)))
        assert np.all(alpha_connection(m, 0.0).gamma_cross == 0.0)


# one wrong expression per connection family, each as the fields it replaces,
# with the tests that must catch it: a family written as a transpose of
# another has no test of its own that could fail, since the test restates it
CONNECTION_MUTANTS = {
    "cross-bar-unconjugated": (
        lambda conn: {"gamma_cross_bar": conn.gamma_cross.transpose(1, 2, 0).copy()},
        {"oracle"},
    ),
    "cross-bar-transposed-201": (
        lambda conn: {"gamma_cross_bar": np.conjugate(conn.gamma_cross.transpose(2, 0, 1))},
        {"oracle"},
    ),
    "mixed-without-levi-civita": (
        lambda conn: {"gamma_mixed": np.multiply(-0.5 * conn.alpha, conn.t_mixed)},
        {"oracle", "levi-civita"},
    ),
}


@pytest.mark.parametrize("name", sorted(CONNECTION_MUTANTS))
def test_each_connection_mutant_fails_a_family_test(monkeypatch, name):
    import test_quadrature  # imported here, so its tests are not collected twice

    edit, catchers = CONNECTION_MUTANTS[name]

    def mutant(m, alpha):
        conn = closed_form.alpha_connection(m, alpha)
        return dataclasses.replace(conn, **edit(conn))

    bitwise = TestAlphaConnection().test_is_the_levi_civita_diagonal_minus_half_alpha_t_bitwise
    families = test_quadrature.TestConnectionFamiliesAtNonzeroAlpha()
    checks = {
        "levi-civita": lambda: bitwise(0.5),
        "oracle": families.test_every_family_matches_closed_form,
    }
    monkeypatch.setattr(sys.modules[__name__], "alpha_connection", mutant)
    monkeypatch.setattr(test_quadrature, "alpha_connection", mutant)
    failed = set()
    for check, run in checks.items():
        try:
            run()
        except AssertionError:
            failed.add(check)
    assert failed == catchers


class TestRicci:
    @pytest.mark.parametrize("n", [0, 1, 2, 8, 32])
    @pytest.mark.parametrize("mixed", [False, True], ids=["one-signature", "mixed"])
    def test_inverse_is_inverse_metric_bitwise(self, n, mixed):
        # alpha_ricci forms g^{i jbar} from the factor matrix it holds,
        # inverse_metric from its own; both must give the same bytes
        signature = mixed_signature(n) if mixed else (-1,) * n
        for m in random_points(37, 2, n=n, signature=signature):
            for alpha in (0.0, 0.5):
                assert alpha_ricci(m, alpha).inverse.tobytes() == inverse_metric(m).tobytes()

    def test_origin(self):
        report = ricci0(ModelPoint((0.0,), (-1,)))
        assert report.ricci[0, 0] == pytest.approx(-1.0)

    def test_ar1_values(self):
        report = ricci0(AR1)
        assert report.ricci[0, 0] == pytest.approx(-16.0 / 9.0)
        assert report.scalar == pytest.approx(-4.0 / 3.0)
        assert metric_determinant(AR1) == pytest.approx(4.0 / 3.0)

    def test_report_holds_no_determinant(self):
        # det g has one path, metric_determinant
        report = ricci0(ARMA11)
        assert not hasattr(report, "det_g")
        fields = [f.name for f in dataclasses.fields(report)]
        assert fields == ["alpha", "ricci", "scalar", "inverse"]

    def test_arma11_off_diagonal(self):
        assert ricci0(ARMA11).ricci[0, 1] == pytest.approx(-1.0 / 0.85**2)

    def test_matches_log_determinant_hessian(self):
        # oracle: R_{i jbar} = -d_i d_jbar log det g by finite differences;
        # well-separated roots keep the neglected higher derivatives small
        for params in [
            (0.5, -0.4 + 0.2j, 0.1 - 0.55j),
            (0.6j, -0.5, 0.45 + 0.3j),
        ]:
            m = ModelPoint(params, (-1, -1, 1))
            hess = wirtinger_mixed_hessian(
                lambda pt: np.log(metric_determinant(pt)), m, step=1e-3
            )
            assert np.max(np.abs(ricci0(m).ricci + hess)) < 1e-4

    def test_signature_independent(self):
        swapped = ModelPoint(ARMA11.params, (1, -1))
        assert np.array_equal(ricci0(swapped).ricci, ricci0(ARMA11).ricci)

    def test_scalar_contraction_matches_printed_double_sum_on_ar(self):
        # on AR-only models the inverse-metric signature placement is
        # unambiguous, so the explicit double sum can serve as a test target
        for m in random_points(21, 3, n=3, signature=(-1, -1, -1)):
            xi = np.asarray(m.params)
            n = m.n
            total = 0.0
            for i in range(n):
                for j in range(n):
                    num = 1.0 + 0.0j
                    for k in range(n):
                        if k != i:
                            num *= 1.0 - xi[k] * xi[j].conjugate()
                    for k in range(n):
                        if k != j:
                            num *= 1.0 - xi[i] * xi[k].conjugate()
                    den = 1.0 - xi[i] * xi[j].conjugate()
                    for k in range(n):
                        if k != i:
                            den *= xi[k] - xi[i]
                    for k in range(n):
                        if k != j:
                            den *= (xi[k] - xi[j]).conjugate()
                    total -= (num / den).real
            assert ricci0(m).scalar == pytest.approx(total, rel=1e-9)

    def test_scalar_raises_at_exact_coincidence(self):
        for signature in ((-1, -1), (-1, 1)):
            m = ModelPoint((0.4, 0.4), signature)
            with pytest.warns(CoincidentRootsWarning):
                with pytest.raises(CoincidentRootsError):
                    ricci0(m)


AR16_ROOTS = tuple(sample_root_tuples(1, 1, 16, 0.5, 0.05)[0])
# one-signature points whose contracted scalar missed 50-digit mpmath by
# 1.8e-2 (AR(16), MA(16)), 5.3e-3 (AR(2)) and 1e-4, 1.3e-6 (AR(32))
ONE_SIGNATURE = {
    "ar16": ModelPoint(AR16_ROOTS, (-1,) * 16),
    "ma16": ModelPoint(AR16_ROOTS, (1,) * 16),
    "ar2-1e-7": ModelPoint((0.5 + 0.2j, 0.5 + 0.2j + 1e-7), (-1, -1)),
    **{
        f"ar32-{k}": ModelPoint(tuple(row), (-1,) * 32)
        for k, row in enumerate(sample_root_tuples(7, 10, 32, 0.9, 0.05)[:2])
    },
}


@functools.lru_cache(maxsize=None)
def mp_scalar_terms_50(m):
    """:func:`mp_scalar_terms` at 50 digits, once per point."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        return mp_scalar_terms(mp, m)


class TestOneSignatureScalar:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("name", sorted(ONE_SIGNATURE))
    def test_matches_mpmath_contraction(self, name, alpha):
        m = ONE_SIGNATURE[name]
        scalar, corr = mp_scalar_terms_50(m)
        got = alpha_ricci(m, alpha).scalar
        if 1.0 + alpha * m.signature[0] == 0.0:  # the MA model is flat at alpha = -1
            assert got == 0.0 and str(got) == "0.0"
        else:
            ref = float(scalar + alpha / 2 * corr)
            assert abs(got - ref) <= 1e-12 * abs(ref)

    @settings(max_examples=50, deadline=None)
    @given(
        angles=st.lists(st.integers(0, 359), min_size=1, max_size=6, unique=True),
        radius=st.floats(0.05, 0.95),
        pole=st.booleans(),
    )
    def test_scalar_is_below_minus_n(self, angles, radius, pole):
        # n(n-1)/2 - Re sum 1/(1 - w): each Re 1/(1 - w) > 1/2 off the diagonal
        # and >= 1 on it, so S^0 <= -n < 0
        n = len(angles)
        radii = radius * (1.0 + np.arange(n)) / n
        xi = radii * np.exp(1j * np.deg2rad(angles))
        m = ModelPoint(tuple(xi), ((-1,) if pole else (1,)) * n)
        assert ricci0(m).scalar <= -n

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 16),
        split=st.floats(0.0, 1.0),
        radius=st.floats(0.05, 0.99),
    )
    def test_scalar_is_negative_at_mixed_signatures(self, seed, n, split, radius):
        # S = -sum_ij u_i conj(u_j)/(1 - xi_i conj(xi_j))^3, a positive-definite kernel
        poles = 1 + min(int(split * (n - 1)), n - 2)  # 1 to n - 1 poles, the rest zeros
        row = sample_root_tuples(seed, 1, n, radius, 1e-3)[0]
        m = ModelPoint(tuple(row), (-1,) * poles + (1,) * (n - poles))
        # roots 1e-3 apart can cancel for real: at seed 3506956682, n = 15, one
        # pole, radius 0.5, S is off by 5.6e-8 against 50-digit mpmath and warns
        # (kappa eps 1.2e-7); the sign, which is what is asserted, holds
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ScalarCancellationWarning)
            assert alpha_ricci(m, 0.0).scalar < 0


def spiral_point(n):
    """n roots on a spiral from radius 0.3 to 0.9, the first half poles (as in the CLI tests)."""
    return ModelPoint(
        tuple((0.3 + 0.6 * k / n) * cmath.exp(2.4j * k) for k in range(n)), mixed_signature(n)
    )


ARMA22_ZEROS = (-0.3 + 0.2j, 0.1 - 0.4j)
# mixed-signature points and whether their scalar warns; against 50-digit mpmath
# the alpha = 0 scalar is off by 6.3e-4 (kappa eps 3.1e-3) with the poles 1e-7
# apart, 6.2e-10 (3.1e-9) with them 1e-4 apart, 1.3e-12 (9.0e-12) on the n = 32
# spiral and 3.5e-16 (1.6e-15) on the n = 8 spiral
CANCELLING = {
    "arma22-1e-7": (ModelPoint((0.5, 0.5 + 1e-7, *ARMA22_ZEROS), (-1, -1, 1, 1)), True),
    "arma22-1e-4": (ModelPoint((0.5, 0.5 + 1e-4, *ARMA22_ZEROS), (-1, -1, 1, 1)), False),
    "spiral32": (spiral_point(32), False),
    "spiral8": (spiral_point(8), False),
}


class TestAlphaRicci:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_is_r0_plus_the_separate_correction_bitwise(self, alpha):
        # R^0 and the correction -(c_i + c_j) / a^2 as two formulas of their own;
        # the scalar is the contraction at a mixed signature, the closed form at one,
        # and the contraction warns where kappa eps passes the bound
        uniform = cancelled = 0
        for m in edge_points():
            xi, c = np.asarray(m.params, dtype=complex), np.asarray(m.signature, dtype=float)
            a2 = (1.0 - np.outer(xi, xi.conj())) ** 2
            r0 = hermitian_from_upper(-1.0 / a2)
            corr = hermitian_from_upper(-(c[:, None] + c[None, :]) / a2)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                report = alpha_ricci(m, alpha)
            raised = {w.category for w in caught} - {CoincidentRootsWarning}
            assert np.array_equal(report.ricci, r0 + 0.5 * alpha * corr), (m.n, m.params[:2])
            if len(set(m.signature)) == 1:
                uniform += 1
                assert report.scalar == one_signature_scalar(m, alpha) + 0.0
                assert raised == set()
            else:
                terms, corr_terms = report.inverse * r0, report.inverse * corr
                scalar = float(np.sum(terms).real)
                corr_scalar = float(np.sum(corr_terms).real)
                assert report.scalar == scalar + 0.5 * alpha * corr_scalar
                size = np.sum(np.abs(terms)) + 0.5 * abs(alpha) * np.sum(np.abs(corr_terms))
                warns = size * sys.float_info.epsilon > SCALAR_ERROR_BOUND * abs(report.scalar)
                cancelled += warns
                assert raised == ({ScalarCancellationWarning} if warns else set()), m.n
        assert uniform == 3  # the three points at n = 1
        assert cancelled > 0  # the near-coincident pairs

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("name", sorted(CANCELLING))
    def test_scalar_warns_where_it_misses_mpmath(self, name, alpha):
        m, warns = CANCELLING[name]
        scalar, corr = mp_scalar_terms_50(m)
        ref = float(scalar + alpha / 2 * corr)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = alpha_ricci(m, alpha).scalar
        assert [w.category for w in caught] == ([ScalarCancellationWarning] if warns else [])
        # a silent scalar is within the bound; a flagged one here is far outside it
        assert (abs(got - ref) > SCALAR_ERROR_BOUND * abs(ref)) == warns

    def test_ar1_analytic_values(self):
        # T^1_{11} = 2 conj(xi)/(1-|xi|^2) gives d_1bar T^1_11 = 2/(1-|xi|^2)^2,
        # hence R^(a) = (a - 1)/(1-|xi|^2)^2: flat at a=+1
        assert alpha_ricci(AR1, 1.0).ricci[0, 0] == pytest.approx(0.0, abs=1e-8)
        assert alpha_ricci(AR1, -1.0).ricci[0, 0] == pytest.approx(-32.0 / 9.0, abs=1e-8)

    def test_exactly_linear_in_alpha(self):
        for m in random_points(25, 3):
            r_minus = alpha_ricci(m, -1.0).ricci
            r_zero = alpha_ricci(m, 0.0).ricci
            r_plus = alpha_ricci(m, 1.0).ricci
            assert np.max(np.abs((r_minus + r_plus) / 2.0 - r_zero)) < 1e-12

    def test_hermitian(self):
        for m in random_points(27, 2):
            r = alpha_ricci(m, 0.7).ricci
            assert np.max(np.abs(r - r.conj().T)) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_matches_wirtinger_difference_oracle(self, n):
        # central Wirtinger differences of t_i = g^{k lbar} T_{ik,lbar}
        step = 1e-5
        m = random_points(11, 1, n=n, signature=mixed_signature(n))[0]

        def t_contracted(pt):
            return np.einsum("kl,ikl->i", inverse_metric(pt), t_tensor(pt).t_mixed)

        raw = np.empty((n, n), dtype=complex)
        for j in range(n):
            xi_j = m.params[j]
            dx = t_contracted(replace_param(m, j, xi_j + step)) - t_contracted(
                replace_param(m, j, xi_j - step)
            )
            dy = t_contracted(replace_param(m, j, xi_j + 1j * step)) - t_contracted(
                replace_param(m, j, xi_j - 1j * step)
            )
            raw[:, j] = 0.5 * (dx + 1j * dy) / (2.0 * step)  # d/d conj(xi^j)
        oracle = 0.5 * (raw + raw.conj().T)
        assert max_relative(alpha_ricci_correction(m), oracle) <= 1e-7

    def test_matches_mpmath_product_rule_n16(self):
        mp = pytest.importorskip("mpmath")
        m = random_points(11, 1, n=16, signature=mixed_signature(16))[0]
        with mp.workdps(30):
            ref = mp_alpha_ricci_correction(mp, m)
        assert max_relative(alpha_ricci_correction(m), ref) <= 1e-12


def grid_draws(n):
    """Three mixed-signature points at n: random in the 0.9 disk, real roots, a root at 0."""
    rng = np.random.default_rng(4100 + n)
    xi = 0.9 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    real = 0.9 * (2.0 * rng.random(n) - 1.0)
    signature = mixed_signature(n)
    return [ModelPoint(tuple(p), signature) for p in (xi, real, np.r_[0.0, xi[1:]][:n])]


CONNECTION_BLOCKS = (
    "gamma_mixed", "gamma_pure", "gamma_cross", "gamma_cross_bar", "t_mixed", "t_pure"
)


def output_digest(n):
    """sha256 over every closed-form output at the draws of n, each array plus 0.0."""
    h = hashlib.sha256()
    for m in grid_draws(n):
        g = metric(m)
        arrays = [g.mixed, g.pure]
        for alpha in (0.0, 0.5, -1.0, 1.0, 2.0):
            conn = alpha_connection(m, alpha)
            arrays += [getattr(conn, name) for name in CONNECTION_BLOCKS]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ScalarCancellationWarning)
                ricci = alpha_ricci(m, alpha)
            arrays += [ricci.ricci, ricci.inverse, np.float64(ricci.scalar)]
        for arr in arrays:
            h.update((arr + 0.0).tobytes())
    return h.hexdigest()


# keyed by n; the closed forms fix each array's value, and its bits up to the
# sign of a zero, so the digests are of arr + 0.0.  Recorded with numpy 2.4 on
# x86-64 with AVX2 and FMA, before each connection family became one
# expression of T (which moved the sign of some zeros and no other bit)
OUTPUT_DIGESTS = {
    0: "6edd9f6f9cc92cded36e6c4a580933f9c9f1b90562b46903b806f21902a1a54f",
    1: "25a007dedee2085fa95a5fb1991496c6ae26fe50e698803aa0494f6c7e03b731",
    2: "b9a791c622adec35ce29681eece06f7b155ab31c05613481162fe8645a18dbd7",
    3: "1f59647e044d1cb4eef4b2bd0428877d495dc0c3c949d25468f7a439e7d86ba3",
    4: "97db1c50c04e66da7836bdbe6037ff7a7e38156dd67ad0333f32bb8e9eae1bf4",
    5: "05c4972ff260bba992d605798e87820032215d097f025a1458832663653b7cdd",
    6: "a63012e304dae428684d59a298465772013ab0e6f01f7d98e8baa222cf3a7099",
    7: "ee8c68171e77494105b593b64c6a86b7d1f4759dc588e105388a08b4f79362ea",
    8: "760fef77d993cb3c762ca1f99e9d80be0c430a3d64b4440f87f340e4a2b92bad",
    9: "503088a60e9eee34dcea0dc8259bf0b46e95e81307bb133cc0ce200c935e2b8d",
    16: "4e751e64d1d84d6a45b93d3712307b5d782a383fc4b1ecc300e5c08918195537",
    32: "3099cda4c97ede499d8eb18487b166feaed669ba63c662850f40b4633846b2f2",
    33: "20d49cbfc65da474d0b4cc26381e7894959c221b34a222a4c93145e84b97605f",
}


@pytest.mark.parametrize("n", sorted(OUTPUT_DIGESTS))
def test_outputs_are_pinned_up_to_the_sign_of_zero(n):
    assert output_digest(n) == OUTPUT_DIGESTS[n]
