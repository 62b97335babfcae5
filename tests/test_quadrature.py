import ast
import hashlib
import inspect
import math
import pickle
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cepgeo import closed_form, quadrature
from cepgeo.cli import oracle_compare
from cepgeo.closed_form import (
    ModelPoint,
    alpha_connection,
    connection0,
    metric,
    ricci0,
    t_tensor,
)
from cepgeo.filters import (
    EPS_STAB_DEFAULT,
    FilterSpec,
    ZeroOnCircle,
    cepstrum,
    outer_factor,
    reciprocal,
    reflect_zero_out,
    validate,
)
from cepgeo.quadrature import (
    QuadratureConfig,
    QuadratureUnconvergedWarning,
    circle_nodes,
    connection_numeric,
    divergence,
    duality_check,
    invariance_suite,
    metric_numeric,
    ricci_numeric,
    t_tensor_numeric,
)
from cepgeo.sampling import sample_root_tuples

from conftest import (
    GAIN,
    MARGIN,
    arma_from_roots,
    cepstrum_fft,
    make_filter,
    peak_mib,
    schema_filters,
)

CFG = QuadratureConfig(nodes=2048)
# the unpatched density, for the tests that patch quadrature._log_sdf
LOG_SDF = quadrature._log_sdf
LI2_QUARTER = float(sum(0.25**r / r**2 for r in range(1, 201)))


def sampled(f, m=CFG.nodes, conj=0, second=0):
    """The sampler's rows (conj(d), d, dd) on the m-node grid, as one array."""
    (blocks,) = quadrature._sample(f.coordinates, f.signature, ((m, 0, 1),), conj, second)
    return np.hstack([block.copy() for block in blocks])


def first_derivs(f, m=CFG.nodes):
    """d_i log h on the m-node grid."""
    return sampled(f, m)


def triples(d, *third):
    """The third moments of ``quadrature._grid_means`` against the named rows, over one block."""
    return quadrature._grid_means([np.vstack([d.conj(), d])], len(d), third=third)[1]


class TestQuadratureConfig:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            QuadratureConfig(nodes=1000)

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            QuadratureConfig(nodes=32)

    def test_rejects_a_grid_no_process_could_hold(self):
        assert QuadratureConfig(nodes=2**42).nodes == 2**42
        with pytest.raises(ValueError, match="too large to allocate"):
            QuadratureConfig(nodes=2**43)


class TestLogDerivatives:
    def test_pole_substitution(self, ar1):
        d = first_derivs(ar1)
        assert d[0, 0] == pytest.approx(1.0 / (1.0 - 0.5))  # node 0 is z = 1

    def test_zero_substitution(self):
        f = make_filter(zeros=(0.3,))
        d = first_derivs(f)
        assert d[0, 0] == pytest.approx(-1.0 / 0.7)

    def test_no_constant_fourier_mode(self, arma11):
        d = first_derivs(arma11)
        assert np.max(np.abs(d.mean(axis=1))) < 1e-12


class TestMetricNumeric:
    def test_ar1_value(self, ar1):
        g = metric_numeric(ar1, CFG)
        assert g.mixed[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert g.converged and g.residual < 1e-9

    def test_origin(self):
        f = make_filter(poles=(0.0,))
        assert metric_numeric(f, CFG).mixed[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_arma11_matrix(self, arma11):
        expected = np.array([[4.0 / 3.0, -1.0 / 0.85], [-1.0 / 0.85, 1.0 / 0.91]])
        assert np.allclose(metric_numeric(arma11, CFG).mixed, expected, atol=1e-12)

    def test_exactly_hermitian_by_construction(self):
        rows = sample_root_tuples(2, 3, 4, 0.9, 0.02)
        for row in rows:
            g = metric_numeric(arma_from_roots(row, 2), CFG)
            assert np.array_equal(g.mixed, g.mixed.conj().T)
            assert np.min(np.linalg.eigvalsh(g.mixed)) > 0.0

    def test_entries_match_independent_recomputation(self, arma11):
        g = metric_numeric(arma11, CFG).mixed
        z = circle_nodes(CFG.nodes)
        d = first_derivs(arma11)
        for i in range(2):
            for j in range(2):
                direct = np.mean(d[i] * d[j].conj())
                assert abs(g[i, j] - direct) < 1e-12

    def test_pure_block_vanishes_at_constant_gain(self, arma11):
        assert np.max(np.abs(metric_numeric(arma11, CFG).pure)) < 1e-12

    def test_gain_coordinate_orthogonal_to_roots(self, arma11):
        # with the gain as a coordinate, d_sigma log h = 2/sigma is a constant
        # row; it is orthogonal to the roots in the mixed block, but the pure
        # block is nonzero once the gain varies
        d = first_derivs(arma11)
        with_gain = np.vstack([np.full(d.shape[1], 2.0 / arma11.gain, dtype=complex), d])
        block = np.vstack([with_gain.conj(), with_gain])
        (mixed, pure), _ = quadrature._grid_means([block], len(with_gain), [("d", "dc"), ("d", "d")])
        assert np.max(np.abs(mixed[0, 1:])) < 1e-10
        assert mixed[0, 0] == pytest.approx(4.0 / arma11.gain**2, rel=1e-12)
        assert pure[0, 0] == pytest.approx(4.0 / arma11.gain**2, rel=1e-12)

    def test_convergence_at_doubled_grid(self):
        rows = sample_root_tuples(4, 3, 4, 0.9, 0.0)
        for row in rows:
            assert metric_numeric(arma_from_roots(row, 2), CFG).residual < 1e-9

    def test_slow_convergence_warns_instead_of_aborting(self):
        f = make_filter(poles=(0.9999,), gain=GAIN)
        with pytest.warns(QuadratureUnconvergedWarning):
            g = metric_numeric(f, QuadratureConfig(nodes=64))
        assert not g.converged
        assert g.residual > 1e-9


class TestConnectionNumeric:
    def test_ar1_levi_civita(self, ar1):
        conn = connection_numeric(ar1, 0.0, CFG)
        assert conn.gamma_mixed[0, 0, 0] == pytest.approx(8.0 / 9.0, abs=1e-12)

    def test_origin_vanishes(self):
        f = make_filter(poles=(0.0,))
        conn = connection_numeric(f, 0.0, CFG)
        assert np.max(np.abs(conn.gamma_mixed)) < 1e-14

    def test_mixed_pair_components_vanish_at_alpha_zero(self, arma11):
        conn = connection_numeric(arma11, 0.0, CFG)
        assert np.all(conn.gamma_cross == 0.0)
        assert np.all(conn.gamma_cross_bar == 0.0)

    def test_ar1_alpha_one_flat(self, ar1):
        conn = connection_numeric(ar1, 1.0, CFG)
        assert abs(conn.gamma_mixed[0, 0, 0]) < 1e-12


class TestTTensorNumeric:
    def test_ar1_value(self, ar1):
        t = t_tensor_numeric(ar1, CFG)
        assert t.t_mixed[0, 0, 0] == pytest.approx(16.0 / 9.0, abs=1e-12)

    def test_origin(self):
        f = make_filter(poles=(0.0,))
        assert np.max(np.abs(t_tensor_numeric(f, CFG).t_mixed)) < 1e-14

    def test_symmetry_in_first_two_indices(self, arma11):
        t = t_tensor_numeric(arma11, CFG).t_mixed
        assert np.max(np.abs(t - np.transpose(t, (1, 0, 2)))) < 1e-12

    # sha256 of the bytes of t_mixed and t_pure.  n = 3 and 6 recorded again
    # when each third moment got a matrix product of its own, which gives T
    # the bits of oracle_tensors at every n (largest change 3.6e-16 relative)
    DIGESTS = {
        (91, 3, 2048): (
            "53a6ecdf96b4dedec44e280b8f1c6315450c290fea0f85e3c7a4e9a460ede839",
            "8a430026dbceae81554338f801cf18ccd6d4a94c58b8a424075f745149700b55",
        ),
        (44, 6, 4096): (
            "2fbdf2b8829249bd36ffacc3b42650605b15d621fcada5245a0a6861686022d6",
            "099b593a9cf482e3b33d4c0a3c085818c950134ad6c06fe29ead757a3e5e58a6",
        ),
        (16, 8, 4096): (
            "a32a5dc536a1014145ba8a75f69c8cfd43bff22a4fc08bd8c683d86c72f9ef10",
            "0f991f1ec1d4cdf60f6abdd886d871166c5b8c71e22b2eb295ae35ae4ae19405",
        ),
        (33, 3, 65536): (
            "b917eb73f34b42a5fefbe4cd79bdb0e2d6b2ffce7b0cebf393c5d2c0aea58fce",
            "94c59ee948b14344ed9b59d37af1bdb342fefa27b56dfc573ac49ae895923a8d",
        ),
    }

    @pytest.mark.parametrize("seed, n, m", sorted(DIGESTS))
    def test_bits_are_pinned(self, seed, n, m):
        t = t_tensor_numeric(_mixed_filter(seed, n), QuadratureConfig(nodes=m))
        digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (t.t_mixed, t.t_pure))
        assert digests == self.DIGESTS[seed, n, m]


class TestOracleAgreement:
    def test_closed_forms_match_quadrature(self):
        rows = sample_root_tuples(6, 5, 4, 0.9, 0.05)
        cfg = QuadratureConfig(nodes=4096)
        for row in rows:
            f = arma_from_roots(row, 2)
            m = ModelPoint.from_filter(f)
            assert np.max(np.abs(metric(m).mixed - metric_numeric(f, cfg).mixed)) < 1e-10
            assert (
                np.max(
                    np.abs(
                        connection0(m).gamma_mixed
                        - connection_numeric(f, 0.0, cfg).gamma_mixed
                    )
                )
                < 1e-10
            )
            assert (
                np.max(np.abs(t_tensor(m).t_mixed - t_tensor_numeric(f, cfg).t_mixed))
                < 1e-10
            )
            ricci = ricci_numeric(f, cfg)
            assert np.max(np.abs(ricci0(m).ricci - ricci)) < 1e-8
            # the scalar g^{i jbar} R_{i jbar} from the numeric metric and Ricci block
            scalar = np.trace(np.linalg.inv(metric_numeric(f, cfg).mixed) @ ricci).real
            assert ricci0(m).scalar == pytest.approx(scalar, abs=1e-8)


class TestRicciNumeric:
    def test_n16_matches_closed_form(self):
        # the Gram-inverse oracle was off by up to 5.9e9 (relative) on these
        cfg = QuadratureConfig(nodes=4096)
        for row in sample_root_tuples(16, 8, 16, 0.9, 0.05):
            f = arma_from_roots(row, 8)
            ricci, ref = ricci_numeric(f, cfg), ricci0(ModelPoint.from_filter(f)).ricci
            assert np.max(np.abs(ricci - ref)) <= 1e-8 * np.max(np.abs(ref))

    @pytest.mark.parametrize("m", [4096, 65536])
    def test_memory_stays_flat_in_the_node_count(self, m):
        # the QR takes [d | dd] a QR block of nodes at a time, never as one copy,
        # even when the whole grid comes as one sample block
        block = sampled(_mixed_filter(81, 16), m, 16, 16)
        assert peak_mib(lambda: quadrature._grid_means([block], 16, ricci=True))[0] < 1

    # sha256 of the bytes of ricci_numeric; n = 6 and 3 recorded again when the
    # QR slices became a power of two of nodes (both then matched the closed
    # form more closely: 1.7e-15 -> 9.8e-16 and 2.1e-15 -> 5.9e-16 relative)
    DIGESTS = {
        (91, 6, 2048): "a641f23f3b8bac778349bce21a90db1ee58f8df43abfcb32d7df7eb9f6ba091b",
        (16, 16, 4096): "8f4920b45cc99356d4d11539bbf3db711eb05749145caf19bb6c8bf26a197242",
        (33, 3, 65536): "beb6e0dd0331257e8d5e10e28fe195321cf15e3b86cd1ad4bd3436fd3364bff1",
    }

    @pytest.mark.parametrize("seed, n, m", sorted(DIGESTS))
    def test_bits_are_those_of_the_whole_grid_sample(self, seed, n, m):
        ricci = ricci_numeric(_mixed_filter(seed, n), QuadratureConfig(nodes=m))
        assert hashlib.sha256(ricci.tobytes()).hexdigest() == self.DIGESTS[seed, n, m]

    @pytest.mark.parametrize("n", [3, 6, 16])
    def test_bits_do_not_depend_on_the_sample_blocks(self, n):
        # the QR takes whole slices of 2^k nodes of every block of 2^j >= 2^k nodes
        m = 4096
        whole = sampled(_mixed_filter(90 + n, n), m, n, n)
        ricci = quadrature._grid_means([whole], n, ricci=True)[-1]
        step = 1 << (quadrature._QR_BLOCK_BYTES // (32 * n)).bit_length() - 1
        for width in (step << j for j in range(m.bit_length() - step.bit_length())):
            blocks = [whole[:, start : start + width] for start in range(0, m, width)]
            assert np.array_equal(quadrature._grid_means(blocks, n, ricci=True)[-1], ricci), width

    def test_one_sample_gives_the_legs_of_the_separate_routines(self):
        f = _mixed_filter(91, 6)
        # the Ricci block has the one path that DIGESTS pins
        g, gamma, t, _ = quadrature.oracle_tensors(f, CFG)
        # the even half of the doubled grid is bitwise the m-node grid
        assert np.array_equal(g, metric_numeric(f, CFG).mixed)
        conn = connection_numeric(f, 0.0, CFG)
        assert np.array_equal(gamma, conn.gamma_mixed)
        assert np.array_equal(t, conn.t_mixed)

    def test_every_entry_point_gives_the_metric_the_same_bits(self):
        # the sample blocks are sized as if every root carried dd, so the metric
        # of oracle_tensors is reduced in the blocks of metric_numeric; each
        # third moment is its own matrix product, so T and Gamma^0 of the one
        # factor of oracle_tensors are those of the two of connection_numeric
        cfg = QuadratureConfig(nodes=4096)
        for n in range(1, 33):
            f = _mixed_filter(100 + n, n)
            g, gamma, t, _ = quadrature.oracle_tensors(f, cfg)
            assert np.array_equal(g, metric_numeric(f, cfg).mixed), n
            conn = connection_numeric(f, 0.0, cfg)
            assert np.array_equal(gamma, conn.gamma_mixed), n
            assert np.array_equal(t, conn.t_mixed), n

    @pytest.mark.parametrize("n", [8, 16])
    def test_fine_grid_legs_match_closed_forms(self, n):
        # 16 sample blocks or more per grid half, each summed into the moments
        residuals = oracle_compare(_mixed_filter(60 + n, n), QuadratureConfig(nodes=65536))
        assert max(residuals[leg] for leg in ("metric", "connection0", "t_tensor")) <= 1e-14


class TestConnectionFamiliesAtNonzeroAlpha:
    FAMILIES = ("gamma_mixed", "gamma_pure", "gamma_cross", "gamma_cross_bar", "t_mixed", "t_pure")

    def test_every_family_matches_closed_form(self):
        rows = sample_root_tuples(21, 3, 4, 0.9, 0.05)
        for row in rows:
            f = arma_from_roots(row, 2)
            closed = alpha_connection(ModelPoint.from_filter(f), 0.5)
            # the families and T from one connection_numeric call
            conn = connection_numeric(f, 0.5, CFG)
            # zero families (gamma_pure, t_pure) are measured against the
            # size of the connection
            scale = max(np.max(np.abs(getattr(closed, name))) for name in self.FAMILIES)
            for name in self.FAMILIES:
                err = np.max(np.abs(getattr(conn, name) - getattr(closed, name)))
                assert err <= 1e-10 * scale, name

    def test_triple_families_match_direct_grid_means(self):
        # the matrix-product kernels against plain grid means on the same nodes
        f = arma_from_roots(sample_root_tuples(22, 1, 4, 0.9, 0.05)[0], 2)
        d = first_derivs(f)
        dc = d.conj()
        conn = connection_numeric(f, 0.5, CFG)
        m = CFG.nodes
        pairs = {
            "gamma_cross": (conn.gamma_cross, -0.5 * np.einsum("im,jm,km->ijk", d, dc, d) / m),
            "gamma_cross_bar": (
                conn.gamma_cross_bar,
                -0.5 * np.einsum("im,jm,km->ijk", d, dc, dc) / m,
            ),
            "t_mixed": (conn.t_mixed, 2.0 * np.einsum("im,jm,km->ijk", d, d, dc) / m),
            "t_pure": (conn.t_pure, 2.0 * np.einsum("im,jm,km->ijk", d, d, d) / m),
        }
        scale = np.max(np.abs(conn.t_mixed))
        for name, (actual, expected) in pairs.items():
            assert np.max(np.abs(actual - expected)) <= 1e-13 * scale, name


class TestDivergence:
    def test_identical_inputs_give_zero(self, arma11):
        for alpha in (-1.0, -0.5, 0.0, 0.5, 1.0):
            assert divergence(arma11, arma11, alpha, CFG).value == 0.0

    def test_zero_alpha_equals_potential_for_normalised_filter(self, ar1):
        allpass = make_filter()
        d = divergence(allpass, ar1, 0.0, CFG)
        assert d.value == pytest.approx(LI2_QUARTER, abs=1e-12)

    def test_reciprocal_pair_swaps_alpha_sign(self):
        rows = sample_root_tuples(8, 4, 4, 0.9, 0.0)
        f1 = arma_from_roots(rows[0], 2)
        f2 = arma_from_roots(rows[1], 2)
        lhs = divergence(reciprocal(f1), reciprocal(f2), 0.5, CFG).value
        rhs = divergence(f1, f2, -0.5, CFG).value
        assert abs(lhs - rhs) < 1e-10

    def test_nonnegative_for_alpha_family(self):
        rows = sample_root_tuples(10, 4, 4, 0.9, 0.0)
        f1 = arma_from_roots(rows[0], 2)
        f2 = arma_from_roots(rows[1], 2)
        for alpha in np.linspace(-2.0, 2.0, 9):
            assert divergence(f1, f2, float(alpha), CFG).value >= -1e-12

    @pytest.mark.parametrize("alpha", [0.0, 1e-3, 1e-8, 1e-12, 1e-16, 1e-17, -1e-17])
    def test_small_alpha_matches_high_precision(self, alpha):
        # (e^(alpha l) - 1 - alpha l)/alpha^2 cancels as alpha goes to 0; the
        # reference is the same m-node rule with every node and log in 60 digits
        mp = pytest.importorskip("mpmath")
        f, m = make_filter(poles=(0.5, 0.3 + 0.4j), zeros=(-0.6j,)), 256
        got = divergence(make_filter(), f, alpha, QuadratureConfig(nodes=m)).value
        with mp.workdps(60):
            a, terms = mp.mpf(alpha), []
            for k in range(m):
                z = mp.expjpi(mp.mpf(2 * k) / m)
                ell = sum(mp.log(abs(1 - mp.mpc(r) / z) ** 2) for r in f.zeros) - sum(
                    mp.log(abs(1 - mp.mpc(r) / z) ** 2) for r in f.poles
                )
                terms.append(ell**2 / 2 if alpha == 0.0 else (mp.exp(a * ell) - 1 - a * ell) / a**2)
            ref = mp.fsum(terms) / m
        assert abs(got - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5])
    def test_z_power_does_not_reach_the_density(self, alpha):
        # z^R has modulus 1 on the circle, however large R is
        f, g = make_filter(poles=(0.5,)), make_filter(poles=(0.5,), z_power=10**20)
        result = divergence(f, g, alpha, CFG)
        assert (result.value, result.residual, result.converged) == (0.0, 0.0, True)

    def test_multiplication_rule(self):
        allpass = make_filter()
        f = arma_from_roots(sample_root_tuples(12, 1, 4, 0.9, 0.0)[0], 2)
        d1 = divergence(allpass, reciprocal(f), 0.0, CFG).value
        d2 = divergence(allpass, f, 0.0, CFG).value
        d3 = divergence(f, allpass, 0.0, CFG).value
        assert abs(d1 - d2) < 1e-10
        assert abs(d2 - d3) < 1e-10


class TestConvergenceFlag:
    """The doubling change is held to ``tol * max(1, scale)``: rounding alone flags nothing."""

    def test_same_roots_divergence_converges_at_any_gain_ratio(self):
        # log(S2/S1) is constant, so every grid gives the exact value; at gains
        # this far apart the values pass 1e10, where one ulp is far above 1e-9
        rng = np.random.default_rng(31)
        for _ in range(40):
            radii, turns = 0.9 * np.sqrt(rng.uniform(size=2)), rng.uniform(size=2)
            poles = tuple(radii * np.exp(2j * np.pi * turns))
            small, large = 10 ** rng.uniform(-1, 1), 10 ** rng.uniform(5, 12)
            f1, f2 = make_filter(poles=poles, gain=small), make_filter(poles=poles, gain=large)
            for alpha in (0.5, 1.0):
                result = divergence(f1, f2, alpha)  # a warning fails the test
                assert result.converged and result.value > 1e10, (poles, small, large, alpha)

    def test_a_nan_change_is_the_residual(self):
        # a NaN block after a finite one stays the residual, and is never converged
        with pytest.warns(QuadratureUnconvergedWarning, match="by nan"):
            _, residual, converged = quadrature._checked(
                [1.0, np.nan], [1.0 + 1e-12, 0.0], 1e-9, "leg"
            )
        assert math.isnan(residual) and not converged

    def test_near_circle_oracle_warns_only_while_truncated(self):
        f = make_filter(poles=(0.999,), zeros=(-0.3 + 0.2j,))
        # 0.999^131072 < e^-131: the doubling change, 5.5e-9 at most, is rounding
        assert oracle_compare(f, QuadratureConfig(nodes=131072))["max"] < 1e-12
        with pytest.warns(QuadratureUnconvergedWarning) as caught:
            oracle_compare(f, QuadratureConfig(nodes=4096))  # 0.999^4096 is 1.7e-2
        legs = [str(w.message).split(":")[0] for w in caught]
        assert legs == ["metric", "connection", "t_tensor"]


def _log_moduli(f, z):
    """Each log-modulus term of log S at the nodes z, one row per term, as _log_sdf sums them."""

    def log_sq(w):
        return np.log(np.abs(w) ** 2)

    return np.array([log_sq(z - zt) for zt in f.zeros] + [-log_sq(z - p) for p in f.poles])


def _mp_log_sdf(mp, f, z):
    """ln|h(z)|^2 at 50 digits, h multiplied out at the float node z taken exactly.

    The unimodular factors are taken at z/|z|, on the circle: the float node
    is off it by up to an ulp, which a Blaschke point at 0.99 magnifies
    about 200 times, and log S is the density on the circle.
    """
    with mp.workdps(50):
        z = mp.mpc(z)
        u = z / abs(z)
        h = mp.mpf(f.gain) ** 2 / (2 * mp.pi) * u**f.z_power
        for zt in f.zeros:
            h *= 1 - mp.mpc(zt) / z
        for p in f.poles:
            h /= 1 - mp.mpc(p) / z
        for zs in map(mp.mpc, f.blaschke_points):
            h *= u if zs == 0 else abs(zs) / zs * (zs - u) / (1 - mp.conj(zs) * u)
        return float(mp.log(abs(h) ** 2))


LOG_SDF_EDGES = {
    "root-at-margin": dict(gain=GAIN, poles=(MARGIN,), zeros=(-MARGIN * 1j,)),
    "gain-1e300": dict(gain=1e300, poles=(0.5 + 0.2j,), zeros=(-0.3 + 0.4j,)),
    "gain-1e-300": dict(gain=1e-300, poles=(0.5 + 0.2j,), zeros=(-0.3 + 0.4j,)),
    "blaschke-0.99": dict(gain=GAIN, poles=(0.5,), blaschke_points=(0.99 * np.exp(0.3j),)),
    "z-power-7": dict(gain=GAIN, poles=(0.5 + 0.2j,), zeros=(-0.3 + 0.4j,), z_power=7),
}


class TestLogDensity:
    """log S sums the log-moduli of h's factors: no filter that validate accepts overflows it."""

    @pytest.mark.parametrize("name", sorted(LOG_SDF_EDGES))
    def test_matches_mpmath_on_the_invariance_nodes(self, name):
        mp = pytest.importorskip("mpmath")
        f = validate(FilterSpec(**LOG_SDF_EDGES[name]))
        z = circle_nodes(1024)
        got = quadrature._log_sdf(f, z)
        ref = np.array([_mp_log_sdf(mp, f, zk) for zk in z])
        terms = np.sum(np.abs(_log_moduli(f, z)), axis=0)
        bound = 8 * np.finfo(float).eps * (abs(4.0 * math.log(f.gain)) + terms + 1.0)
        assert np.all(np.abs(got - ref) <= bound)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(spec=schema_filters(), other_gain=st.floats(-300.0, 300.0))
    def test_every_valid_filter_gives_finite_reports(self, spec, other_gain):
        cfg = QuadratureConfig(nodes=256)
        f = validate(spec)
        g = validate(replace(spec, gain=10.0**other_gain))
        minimum_phase = validate(replace(spec, blaschke_points=(), z_power=0))
        log_ratio = math.log(g.gain) - math.log(f.gain)
        assume(abs(log_ratio) >= 1.0)
        with warnings.catch_warnings():  # roots at the margin converge slowly
            warnings.simplefilter("ignore", QuadratureUnconvergedWarning)
            for alpha in (-1.0, 0.0, 0.5):
                same = divergence(f, f, alpha, cfg)
                assert (same.value, same.converged) == (0.0, True)
                # z^R and the Blaschke factors have modulus 1 on the circle
                unimodular = divergence(f, minimum_phase, alpha, cfg)
                assert (unimodular.value, unimodular.converged) == (0.0, True)
            # the same roots: log(S2/S1) is 4 ln(sigma2/sigma1) at every node
            assert divergence(f, g, 0.0, cfg).value == pytest.approx(
                8.0 * log_ratio**2, rel=1e-12
            )
        if (leg := invariance_suite(f).outer_reflection) is not None:
            # the twin's zero 1/conj(zeta) rounds, which moves S by up to about
            # 2 eps/(1 - |zeta|) at a node beside it: 1.76e-10 at |zeta| = 1 - 1e-6
            assert leg.sdf_floor <= 4.0 * np.finfo(float).eps / (1.0 - max(map(abs, f.zeros)))
            assert leg.sdf_residual < 1e-10 + leg.sdf_floor
            assert leg.coordinate_residual < 1e-10


class TestCepstrumFFT:
    def test_matches_power_sum_route(self, arma11):
        coeffs = cepstrum_fft(arma11, 16)
        series = cepstrum(arma11, 16)
        assert abs(coeffs[0] - series.phi0) < 1e-13
        assert np.max(np.abs(coeffs[1:] - series.coeffs)) < 1e-13

    def test_rejects_winding_factors(self):
        f = make_filter(poles=(0.5,), z_power=2)
        with pytest.raises(ValueError):
            cepstrum_fft(f, 8)


def _disable_closed_forms(monkeypatch):
    """Replace every function of ``closed_form`` by one that raises, and return that stub."""

    def stub(*args, **kwargs):
        raise AssertionError("a disabled routine ran")

    for name, value in vars(closed_form).items():
        if inspect.isfunction(value) and value.__module__ == closed_form.__name__:
            monkeypatch.setattr(closed_form, name, stub)
    return stub


class TestInvarianceSuite:
    def test_all_legs_within_tolerance(self, arma11):
        report = invariance_suite(arma11, CFG)
        assert report.outer_reflection is not None
        assert report.outer_reflection.coordinate_residual < 1e-10
        assert report.max_metric_residual == report.outer_reflection.coordinate_residual

    def test_sdf_preserved_by_each_transformation(self, arma11):
        report = invariance_suite(arma11, CFG)
        assert report.outer_reflection.sdf_residual < 1e-10

    def test_reflection_leg_absent_without_zeros(self, ar1):
        report = invariance_suite(ar1, CFG)
        assert report.outer_reflection is None
        assert report.max_metric_residual == 0.0

    @pytest.mark.parametrize("zeros", [(), (0.0,), (0.3, -0.2j)])
    def test_no_quadrature_and_no_closed_form(self, monkeypatch, zeros):
        f = make_filter(poles=(0.5,), zeros=zeros, blaschke=(0.2j,), z_power=3)
        expected = invariance_suite(f, CFG)
        monkeypatch.setattr(quadrature, "metric_numeric", _disable_closed_forms(monkeypatch))
        assert invariance_suite(f, CFG) == expected

    def test_zero_on_the_margin_at_every_angle(self):
        # at |zeta| = 1 - eps_stab, 1/conj(zeta) or zeta reflected back can
        # round into the margin band; such a zero is not the one reflected
        limit = 1.0 - EPS_STAB_DEFAULT
        turns = np.exp(2j * np.pi * np.arange(400) / 400)
        refused = 0
        for zt in limit * turns:
            if abs(zt) > limit:
                continue
            f = make_filter(zeros=(zt,))
            try:
                outer_factor(reflect_zero_out(f, 0))
            except ZeroOnCircle:
                refused += 1
                assert invariance_suite(f).outer_reflection is None
                both = invariance_suite(make_filter(zeros=(zt, 0.5)))
                assert both.outer_reflection is not None  # 0.5 is reflected instead
            else:
                assert invariance_suite(f).outer_reflection is not None
        assert refused > 0

    def test_reflection_without_gain_compensation_fails_the_sdf_leg(self, monkeypatch, arma11):
        monkeypatch.setattr(
            quadrature, "reflect_zero_out", lambda f, j: replace(reflect_zero_out(f, j), gain=f.gain)
        )
        report = invariance_suite(arma11, CFG)
        assert report.outer_reflection.sdf_residual > 1e-3
        assert report.outer_reflection.coordinate_residual == 0.0  # the gain is no coordinate

    def test_recovery_to_one_over_zeta_fails_the_coordinate_leg(self, monkeypatch):
        def unconjugated(spec, eps_stab):
            # 1/zeta in place of 1/conj(zeta), the conjugate of each recovered zero
            zeros = [zt.conjugate() if abs(zt) > 1.0 else zt for zt in spec.zeros]
            return outer_factor(replace(spec, zeros=tuple(zeros)), eps_stab)

        monkeypatch.setattr(quadrature, "outer_factor", unconjugated)
        report = invariance_suite(make_filter(poles=(0.5,), zeros=(0.3 + 0.4j,)), CFG)
        # |conj(zeta) - zeta| = 2 |Im zeta|
        assert report.outer_reflection.coordinate_residual == pytest.approx(0.8, rel=1e-12)
        assert report.outer_reflection.sdf_residual < 1e-10  # the twin itself is right

    @pytest.mark.parametrize(
        "leg, faulty",
        [("outer_reflection.sdf_residual", lambda f: any(abs(zt) > 1.0 for zt in f.zeros))],
        ids=["outer_reflection-sdf"],
    )
    def test_each_leg_keeps_a_nan(self, monkeypatch, arma11, leg, faulty):
        def values(f, z):
            log_s = LOG_SDF(f, z)
            if faulty(f):  # a NaN in S at one node of this leg's filter
                log_s[3] = np.nan
            return log_s

        monkeypatch.setattr(quadrature, "_log_sdf", values)
        report = invariance_suite(arma11, CFG)
        head, _, field = leg.partition(".")
        value = getattr(report, head)
        assert np.isnan(getattr(value, field) if field else value)

    def test_reflection_coordinate_leg_keeps_a_nan(self, monkeypatch, arma11):
        def recovered(spec, eps_stab):
            # the pole moved by 1, then a NaN zero: max() would return the 1.0
            back = outer_factor(spec, eps_stab)
            return replace(back, poles=(back.poles[0] + 1.0,), zeros=(np.nan,))

        monkeypatch.setattr(quadrature, "outer_factor", recovered)
        report = invariance_suite(arma11, CFG)
        assert np.isnan(report.outer_reflection.coordinate_residual)
        assert np.isnan(report.max_metric_residual)


class TestDualityCheck:
    def test_ar1_identity_holds(self, ar1):
        report = duality_check(ar1, 0.0, CFG)
        assert report.duality_residual < 1e-6

    def test_report_is_the_same_at_every_alpha(self, arma11):
        # the +-alpha terms of the identity cancel, so alpha is not read
        reports = [duality_check(arma11, alpha, CFG) for alpha in (-1.0, 0.0, 0.5, 3.0)]
        assert all(report == reports[0] for report in reports)

    def test_reciprocal_connection_swap(self):
        f = arma_from_roots(sample_root_tuples(14, 1, 4, 0.9, 0.05)[0], 2)
        assert duality_check(f, 0.5, CFG).reciprocal_residual == 0.0


def _mixed_filter(seed, n):
    # ceil(n/2) poles, the rest zeros
    return arma_from_roots(sample_root_tuples(seed, 1, n, 0.9, 0.05)[0], (n + 1) // 2)


def _second_derivs_direct(f, z):
    return np.array([-c / (z - root) ** 2 for root, c in zip(f.coordinates, f.signature)])


def _full_metric(f, z):
    # <D_a D_b> over D = [d; conj(d)], all 2n rows rebuilt
    d = first_derivs(f, z.size)
    full = np.vstack([d, d.conj()])
    return np.einsum("am,bm->ab", full, full) / z.size


def _sample_order(n):
    # full-index columns [d; conj(d)] taken in the sample's order [conj(d); d]
    return np.r_[n : 2 * n, :n]


def _full_metric_difference(f, i, step, z):
    """Central Wirtinger differences of the whole 2n x 2n metric in xi_i."""
    xi = f.coordinates[i]

    def moved(s):
        coords = list(f.coordinates)
        coords[i] = xi + s
        p = len(f.poles)
        return _full_metric(make_filter(poles=coords[:p], zeros=coords[p:], gain=f.gain), z)

    dx = (moved(step) - moved(-step)) / (2.0 * step)
    dy = (moved(1j * step) - moved(-1j * step)) / (2.0 * step)
    return 0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy)


class TestDualityParts:
    """The duality pass and the third-moment kernel against the full-index computations."""

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_second_moments_match_full_index_grid_means(self, n):
        f = _mixed_filter(30 + n, n)
        z = circle_nodes(CFG.nodes)
        d = first_derivs(f)
        dd = _second_derivs_direct(f, z)
        full, full2 = np.vstack([d, d.conj()]), np.vstack([dd, dd.conj()])
        second, _, _, _ = quadrature._duality_pass(f, reciprocal(f), CFG)
        # rows :n of the full-index reference, in the sample's column order [conj(d); d]
        expected = np.einsum("am,bm->ab", full2, full)[:n, _sample_order(n)] / z.size
        assert second.shape == expected.shape == (n, 2 * n)
        assert np.max(np.abs(second - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_triples_are_exactly_symmetric_in_first_two_indices(self):
        d = first_derivs(_mixed_filter(41, 8))
        for t in triples(d, "dc", "d"):
            assert np.array_equal(t, t.transpose(1, 0, 2))

    # m = 64 is one chunk at n <= 16; m = 16384 is many chunks at every n
    @pytest.mark.parametrize("m", [64, 16384])
    @pytest.mark.parametrize("n", [1, 16, 32])
    def test_triples_match_einsum_grid_means(self, n, m):
        d = first_derivs(_mixed_filter(70 + n, n), m)
        mixed, pure = triples(d, "dc", "d")
        expected = [
            np.stack([np.einsum("jm,km->jk", row * d, e, optimize=True) for row in d]) / m
            for e in (d.conj(), d)
        ]
        scale = np.max(np.abs(expected[0]))
        for actual, want in zip((mixed, pure), expected):
            assert actual.shape == want.shape == (n, n, n)
            assert np.max(np.abs(actual - want)) <= 1e-13 * scale

    # m = 64 is one chunk at n <= 16; m = 16384 is many chunks at every n
    @pytest.mark.parametrize("m", [64, 16384])
    @pytest.mark.parametrize("n", [1, 16, 32])
    def test_a_factor_has_the_same_bits_alone_and_with_another(self, n, m):
        # connection_numeric asks for ("dc", "d"), oracle_tensors for ("dc",) alone
        d = first_derivs(_mixed_filter(70 + n, n), m)
        (alone,) = triples(d, "dc")
        mixed, _ = triples(d, "dc", "d")
        assert np.array_equal(mixed, alone)

    @pytest.mark.parametrize("m", [4096, 65536])
    def test_triples_memory_stays_flat_in_the_node_count(self, m):
        d = first_derivs(_mixed_filter(80, 16), m)
        block = np.vstack([d.conj(), d])
        assert peak_mib(lambda: quadrature._grid_means([block], 16, third=("dc", "d")))[0] < 1

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_one_row_step_matches_full_metric_difference(self, n):
        f = _mixed_filter(50 + n, n)
        z = circle_nodes(CFG.nodes)
        step = quadrature.DERIV_STEP
        _, hol, anti, _ = quadrature._duality_pass(f, reciprocal(f), CFG)
        assert hol.shape == anti.shape == (n, 2 * n)
        for i in range(n):
            still = np.ones(2 * n, dtype=bool)
            still[[i, n + i]] = False
            for fast, slow in zip((hol, anti), _full_metric_difference(f, i, step, z)):
                # row i, for d_mu with mu = i and mu = n+i, in the sample's column order
                assert np.max(np.abs(fast[i] - slow[i, _sample_order(n)])) <= 1e-9
                # only rows and columns i and n+i of the metric move
                assert np.max(np.abs(slow[np.ix_(still, still)]), initial=0.0) <= 1e-12

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_row_n_plus_i_is_the_other_derivative_conjugated(self, n):
        # what lets the check compare row i alone: g_{a+n,b+n} = conj(g_{ab})
        f = _mixed_filter(50 + n, n)
        z = circle_nodes(CFG.nodes)
        swap = _sample_order(n)  # the column halves exchanged
        for i in range(n):
            hol, anti = _full_metric_difference(f, i, quadrature.DERIV_STEP, z)
            scale = max(np.max(np.abs(hol)), np.max(np.abs(anti)))
            assert np.max(np.abs(hol[n + i] - anti[i, swap].conj())) <= 1e-12 * scale
            assert np.max(np.abs(anti[n + i] - hol[i, swap].conj())) <= 1e-12 * scale

    def test_check_is_not_tautological(self, monkeypatch):
        f = _mixed_filter(60, 4)
        assert duality_check(f, 0.5, CFG).duality_residual < 1e-6
        exact = quadrature._duality_pass

        def scaled(*args):
            second, hol, anti, swap = exact(*args)
            return 1.01 * second, hol, anti, swap

        def without_anti_term(*args):
            second, hol, anti, swap = exact(*args)
            i = np.arange(len(second))
            anti[i, i] += second[i, i].conj()  # undoes delta_{mu rho} <conj(dd_i) d_i>
            return second, hol, anti, swap

        for mutant in (scaled, without_anti_term):
            monkeypatch.setattr(quadrature, "_duality_pass", mutant)
            assert duality_check(f, 0.5, CFG).duality_residual > 1e-4


MEMORY_ROUTINES = {
    "oracle_tensors": quadrature.oracle_tensors,
    "duality_check": lambda f, cfg: duality_check(f, 0.5, cfg),
    "metric_numeric": metric_numeric,
    "connection_numeric": lambda f, cfg: connection_numeric(f, 0.5, cfg),
    "t_tensor_numeric": t_tensor_numeric,
    "divergence": lambda f, cfg: divergence(make_filter(), f, -1.0, cfg),
}


@pytest.mark.parametrize("m", [4096, 65536])
@pytest.mark.parametrize("routine", sorted(MEMORY_ROUTINES))
def test_memory_stays_flat_in_the_node_count(routine, m):
    # one (16, 65536) complex sample is 16 MiB; the node blocks and the n^3
    # moments fit 4 MiB
    f, cfg = _mixed_filter(81, 16), QuadratureConfig(nodes=m)
    circle_nodes(m), circle_nodes(2 * m)  # a cached grid is not the routine's
    assert peak_mib(lambda: MEMORY_ROUTINES[routine](f, cfg))[0] < 4


def test_divergence_memory_does_not_grow_past_the_cache():
    # the 2m-node grids of 2^17 and 2^19 nodes are never held whole
    f, peaks = _mixed_filter(81, 16), []
    for m in (65536, 1 << 18):
        cfg = QuadratureConfig(nodes=m)
        peaks.append(peak_mib(lambda: divergence(make_filter(), f, -1.0, cfg))[0])
    assert max(peaks) < 4
    assert max(peaks) <= 1.1 * min(peaks)


@pytest.mark.parametrize("n", [16, 32])
def test_duality_check_holds_no_full_index_cube(n):
    # a full-index (2n)^3 array would be 0.5 MiB at n = 16 and 4 MiB at n = 32
    f = _mixed_filter(81, n)
    circle_nodes(CFG.nodes)
    assert peak_mib(lambda: duality_check(f, 0.5, CFG))[0] <= 2


def test_oracle_imports_only_closed_form_types():
    # the oracle must never call the closed forms it checks: it takes the two
    # record classes by name, and never reaches the module as a name or an
    # attribute (``closed_form.f``, ``cepgeo.closed_form.f``)
    tree = ast.parse(Path(quadrature.__file__).read_text())
    allowed = {"ConnectionTensors", "HermitianMetric"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any("closed_form" in alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if "closed_form" in (node.module or ""):
                assert names <= allowed, names
            else:
                assert "closed_form" not in names
        elif isinstance(node, ast.Attribute):
            assert node.attr != "closed_form", ast.unparse(node)
        elif isinstance(node, ast.Name):
            assert node.id != "closed_form"


@pytest.mark.parametrize(
    "run",
    [
        quadrature.oracle_tensors,
        lambda f, cfg: divergence(make_filter(poles=(0.3,)), f, -1.0, cfg),
        lambda f, cfg: duality_check(f, 0.5, cfg),
    ],
    ids=["oracle_tensors", "divergence", "duality_check"],
)
def test_the_oracle_runs_with_every_closed_form_disabled(monkeypatch, run):
    # the same bits with closed_form's functions raising, so no result leans on them
    f = arma_from_roots((0.6 + 0.2j, -0.4 + 0.3j, 0.5j, -0.3), 2)
    cfg = QuadratureConfig(nodes=512)
    expected = pickle.dumps(run(f, cfg))
    _disable_closed_forms(monkeypatch)
    assert pickle.dumps(run(f, cfg)) == expected


class TestGridCache:
    def test_grids_are_shared_and_read_only(self):
        grid = circle_nodes(256)
        assert circle_nodes(256) is grid
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0] = 0.0

    def test_cached_grids_are_the_formula(self):
        m = 512
        assert np.array_equal(circle_nodes(m), np.exp(2j * np.pi * np.arange(m) / m))
        fine = np.exp(2j * np.pi * np.arange(2 * m) / (2 * m))
        # the even nodes of the doubled grid are the m-node grid, bit for bit
        assert np.array_equal(circle_nodes(2 * m)[::2], circle_nodes(m))
        assert np.array_equal(circle_nodes(2 * m), fine)

    def test_only_grids_within_the_node_bound_are_cached(self):
        # four grids of at most 16384 nodes (256 KiB each): 1 MiB in all
        info = quadrature._grid.cache_info()
        assert info.maxsize * 16 * quadrature._CACHED_NODES <= 1 << 20
        limit = quadrature._CACHED_NODES
        assert circle_nodes(limit) is circle_nodes(limit)
        # a larger grid is formed, not kept, and read-only all the same
        large = circle_nodes(2 * limit)
        assert large is not circle_nodes(2 * limit) and not large.flags.writeable
        f, before = _mixed_filter(82, 2), quadrature._grid.cache_info()
        cfg = QuadratureConfig(nodes=1 << 15)  # grids of 2^15 and 2^16 nodes
        metric_numeric(f, cfg), duality_check(f, 0.5, cfg), divergence(make_filter(), f, 0.0, cfg)
        # no node of theirs went through the cache
        assert quadrature._grid.cache_info()[:2] == before[:2]

    def test_default_grids_stay_cached(self):
        f = _mixed_filter(83, 4)
        duality_check(f, 0.5, QuadratureConfig())
        invariance_suite(f)
        divergence(make_filter(), f, 0.0, QuadratureConfig())  # the doubled grid
        misses = quadrature._grid.cache_info().misses
        for m in (1024, 4096, 8192):
            circle_nodes(m)
        assert quadrature._grid.cache_info().misses == misses

    def test_blocks_formed_from_indices_match_the_grid(self):
        m = 1 << 17  # too large to cache
        expected = circle_nodes(m)
        for start, stop, step in [(0, 4096, 1), (1, m, 2), (m - 10, m, 2), (70000, 70500, 1)]:
            assert np.array_equal(quadrature._nodes(m, start, stop, step), expected[start:stop:step])

    def test_results_do_not_depend_on_a_warm_cache(self):
        f = arma_from_roots((0.6 + 0.2j, -0.4 + 0.3j, 0.5j), 2)
        cfg = QuadratureConfig(nodes=256)

        def run():
            return (
                metric_numeric(f, cfg),
                connection_numeric(f, 0.5, cfg),
                ricci_numeric(f, cfg),
                duality_check(f, 0.5, cfg),
                invariance_suite(f, cfg),
                divergence(make_filter(poles=(0.3,)), f, -1.0, cfg),
            )

        quadrature._grid.cache_clear()
        cold = run()
        warm = run()
        # pickles hold every float and array bit for bit
        assert pickle.dumps(cold) == pickle.dumps(warm)
