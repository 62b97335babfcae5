import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cepgeo.filters import (
    EPS_STAB_DEFAULT,
    BlaschkePointOutsideDisk,
    FilterError,
    FilterSpec,
    NonPositiveGain,
    PoleOutsideDisk,
    ZeroOnCircle,
    ZeroOutsideDisk,
    cepstrum,
    outer_factor,
    reciprocal,
    reflect_zero_out,
    validate,
)

from conftest import GAIN, gain_term, input_error, make_filter, transfer_values

GRID = np.linspace(-np.pi, np.pi, 1024, endpoint=False)


def sdf(f):
    """Spectral density |h(e^{iw})|^2 on GRID."""
    return np.abs(transfer_values(f, np.exp(1j * GRID))) ** 2


class TestValidate:
    def test_single_stable_pole(self):
        f = validate(FilterSpec(gain=1.0, poles=(0.5,)))
        assert f.dimension == 1
        assert f.signature == (-1,)
        assert f.labels == ("pole0",)

    def test_pole_on_boundary_rejected(self):
        with pytest.raises(PoleOutsideDisk) as exc_info:
            validate(FilterSpec(gain=1.0, poles=(1.0,)))
        assert exc_info.value.violations == [(0, 1.0)]
        assert exc_info.value.code == "POLE_OUTSIDE_DISK"

    def test_zero_outside_disk_reported(self):
        with pytest.raises(ZeroOutsideDisk) as exc_info:
            validate(FilterSpec(gain=1.0, zeros=(2.0,)))
        assert exc_info.value.violations == [(0, 2.0)]

    def test_zero_near_circle_is_hard_error(self):
        with pytest.raises(ZeroOnCircle):
            validate(FilterSpec(gain=1.0, zeros=(1.0 - 1e-8,)))
        with pytest.raises(ZeroOnCircle):
            validate(FilterSpec(gain=1.0, zeros=(1.0 + 1e-8,)))

    def test_non_positive_gain(self):
        with pytest.raises(NonPositiveGain):
            validate(FilterSpec(gain=0.0))

    def test_margin_is_configurable(self):
        spec = FilterSpec(gain=1.0, poles=(0.95,))
        validate(spec, eps_stab=1e-2)
        with pytest.raises(PoleOutsideDisk):
            validate(spec, eps_stab=0.1)

    @pytest.mark.parametrize("eps_stab", [2.0**-54, 1e-17, 1e-300, 5e-324])
    def test_margin_that_rounds_away_is_rejected(self, eps_stab):
        # 1 - eps_stab rounds to 1, so a root on the circle would pass the margin
        with pytest.raises(ValueError, match="1 - eps_stab rounds to 1"):
            validate(FilterSpec(gain=1.0, poles=(1.0,)), eps_stab=eps_stab)

    @pytest.mark.parametrize("eps_stab", [2.0**-53, 1e-16])
    def test_smallest_margins_that_move_one_are_accepted(self, eps_stab):
        assert validate(FilterSpec(gain=1.0, poles=(0.5,)), eps_stab=eps_stab).eps_stab == eps_stab
        with pytest.raises(PoleOutsideDisk):
            validate(FilterSpec(gain=1.0, poles=(1.0,)), eps_stab=eps_stab)
        with pytest.raises(ZeroOnCircle):
            validate(FilterSpec(gain=1.0, zeros=(1j,)), eps_stab=eps_stab)

    def test_exact_cancellation_flagged_not_cancelled(self):
        f = validate(FilterSpec(gain=1.0, poles=(0.4,), zeros=(0.4,)))
        assert f.has_exact_cancellation
        assert f.dimension == 2

    def test_nan_rejected_at_construction(self):
        with pytest.raises(ValueError):
            FilterSpec(gain=1.0, poles=(complex("nan"),))


class TestEvalTransfer:
    def test_ar1_direct_substitution(self, ar1):
        h = transfer_values(ar1, np.array([1.0, -1.0]))
        assert h == pytest.approx([2.0, 1.0 / 1.5])

    def test_blaschke_at_origin_is_z(self):
        f = make_filter(blaschke=(0.0,))
        z = np.array([1.0, 1j, np.exp(0.7j)])
        assert transfer_values(f, z) == pytest.approx(z)

    def test_gain_term_prefactor(self):
        f = make_filter(gain=2.0)
        assert transfer_values(f, 1.0) == pytest.approx(4.0 / (2.0 * math.pi))


class TestUnimodularFactors:
    """The z power and the Blaschke factors of h, where |h|^2 on the circle cannot see them.

    Both have modulus 1 on the circle, so nothing built on the spectral
    density S tests them: only values off the circle and the phase on it.
    """

    B = 0.4 + 0.3j  # |B| = 0.5

    def test_z_power_off_the_circle(self):
        z = np.array([0.5 + 0.25j, -2.0 + 1.0j, 1.5j])
        base = make_filter(poles=(0.5,), zeros=(0.3j,))
        shifted = make_filter(poles=(0.5,), zeros=(0.3j,), z_power=3)
        ratio = transfer_values(shifted, z) / transfer_values(base, z)
        assert np.allclose(ratio, z**3, rtol=1e-14, atol=0.0)

    def test_blaschke_factor_off_the_circle(self):
        # (|b|/b)(b - z)/(1 - conj(b) z) is |b| at 0, 0 at b, and -1 at 2b when |b| = 1/2
        f = make_filter(blaschke=(self.B,))
        h = transfer_values(f, np.array([0.0, self.B, 2.0 * self.B]))
        assert h == pytest.approx([0.5, 0.0, -1.0], abs=1e-15)

    def test_blaschke_zero_inside_other_roots(self):
        f = make_filter(poles=(0.5,), zeros=(0.3j,), blaschke=(self.B,))
        assert transfer_values(f, np.array([self.B]))[0] == 0.0

    @pytest.mark.parametrize(
        "z_power, blaschke",
        [(0, ()), (5, ()), (0, (B, -0.7j)), (2, (B,))],
        ids=["none", "z5", "two-points", "z2-one-point"],
    )
    def test_phase_on_the_circle_winds_once_per_factor(self, z_power, blaschke):
        # the minimum-phase part does not wind around 0; z^k winds k times and
        # each Blaschke factor once
        f = make_filter(poles=(0.5, -0.2j), zeros=(0.6,), blaschke=blaschke, z_power=z_power)
        h = transfer_values(f, np.exp(1j * GRID))
        steps = np.angle(np.roll(h, -1) / h)
        assert np.sum(steps) / (2.0 * np.pi) == pytest.approx(z_power + len(blaschke), abs=1e-9)


class TestSpectralDensity:
    def test_allpass_cancelling_pair_is_constant(self):
        f = make_filter(poles=(0.5,), zeros=(0.5,))
        s = sdf(f)
        assert np.allclose(s, 1.0, atol=1e-12)

    def test_ar1_at_zero_frequency(self, ar1):
        assert abs(transfer_values(ar1, 1.0)) ** 2 == pytest.approx(4.0)

    def test_blaschke_point_leaves_sdf_unchanged(self, ar1):
        f2 = make_filter(poles=(0.5,), blaschke=(0.3,))
        assert np.allclose(sdf(ar1), sdf(f2), rtol=1e-12)

    def test_nonnegative(self, arma11):
        assert np.all(sdf(arma11) >= 0.0)


class TestCepstrum:
    def test_ar1_series_coefficients(self, ar1):
        # oracle: Taylor series of -log(1 - p/z) has coefficient p^r / r
        series = cepstrum(ar1, 6)
        expected = np.array([0.5**r / r for r in range(1, 7)])
        assert np.allclose(series.coeffs, expected, atol=1e-15)
        assert series.coeffs[0] == pytest.approx(0.5)
        assert series.coeffs[1] == pytest.approx(0.125)
        assert series.coeffs[2] == pytest.approx(0.0416666666667)

    def test_ma1_sign(self):
        f = make_filter(zeros=(0.3,))
        series = cepstrum(f, 3)
        assert series.coeffs[0] == pytest.approx(-0.3)

    def test_cancelling_pair_gives_null_series(self):
        f = make_filter(poles=(0.4,), zeros=(0.4,))
        series = cepstrum(f, 64)
        assert np.max(np.abs(series.coeffs)) < 1e-14

    def test_phi0_is_log_gain_term(self):
        f = make_filter(gain=2.0, poles=(0.1,))
        assert cepstrum(f, 2).phi0 == pytest.approx(math.log(4.0 / (2 * math.pi)))

    @pytest.mark.parametrize("gain", [1e-300, 1e-161, 1e-157, 1e200, 1e300])
    def test_phi0_matches_mpmath_at_every_gain(self, gain):
        # sigma^2/(2 pi) leaves the doubles at these gains, ln(sigma^2/(2 pi)) does not
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            ref = float(mp.log(mp.mpf(gain) ** 2 / (2 * mp.pi)))
        phi0 = cepstrum(make_filter(gain=gain, poles=(0.1,)), 2).phi0
        assert phi0.imag == 0.0
        assert phi0.real == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_phi0_is_zero_at_unit_gain_term(self):
        assert cepstrum(make_filter(gain=GAIN, poles=(0.1,)), 2).phi0 == 0.0

    def test_blaschke_coefficients(self):
        zs = 0.4 + 0.1j
        f = make_filter(blaschke=(zs,))
        series = cepstrum(f, 5)
        r = np.arange(1, 6)
        expected = (abs(zs) ** (2.0 * r) - 1.0) / zs**r / r
        assert np.allclose(series.blaschke_coeffs, expected, rtol=1e-13)

    def test_blaschke_at_origin_contributes_nothing(self):
        series = cepstrum(make_filter(blaschke=(0.0,)), 4)
        assert np.all(series.blaschke_coeffs == 0.0)

    def test_tail_bound_sound_and_monotone(self):
        f = make_filter(poles=(0.8, -0.6 + 0.3j), zeros=(0.55j,))
        for n in (8, 16, 32):
            series = cepstrum(f, n)
            extended = cepstrum(f, 2 * n)
            direct = float(np.sum(np.abs(extended.coeffs[n:]) ** 2))
            assert series.tail_bound >= direct
            assert series.tail_bound >= cepstrum(f, n + 1).tail_bound >= 0.0

    def test_parseval_balance_of_conjugate_series(self, arma11):
        # log S has Fourier coefficients a_{-r} = phi_r, a_r = conj(phi_r);
        # the conjugate series (a_r / i for r>0, -a_r / i for r<0) carries the
        # same power.
        phi = cepstrum(arma11, 128).coeffs
        a_pos = phi.conj()
        a_neg = phi
        conj_pos = a_pos / 1j
        conj_neg = -a_neg / 1j
        power = np.sum(np.abs(a_pos) ** 2) + np.sum(np.abs(a_neg) ** 2)
        power_conj = np.sum(np.abs(conj_pos) ** 2) + np.sum(np.abs(conj_neg) ** 2)
        assert power == pytest.approx(power_conj, rel=1e-14)


class TestOuterFactor:
    def test_reflects_zero_and_compensates_gain(self):
        spec = FilterSpec(gain=1.0, zeros=(2.0,))
        f = outer_factor(spec)
        assert f.zeros == (0.5,)
        assert gain_term(f) == pytest.approx(2.0 * gain_term(spec))
        s_before = sdf(spec)
        s_after = sdf(f)
        assert np.max(np.abs(s_before - s_after) / s_before) < 1e-10

    def test_negative_zero_example(self):
        spec = FilterSpec(gain=1.0, zeros=(-1.25,))
        f = outer_factor(spec)
        assert f.zeros[0] == pytest.approx(-0.8)
        assert gain_term(f) == pytest.approx(1.25 * gain_term(spec))

    def test_minimum_phase_fixed_point(self, arma11):
        f = outer_factor(arma11.to_spec())
        assert f.zeros == arma11.zeros
        assert f.gain == arma11.gain

    def test_zero_on_circle_rejected(self):
        with pytest.raises(ZeroOnCircle):
            outer_factor(FilterSpec(gain=1.0, zeros=(np.exp(0.3j),)))


class TestReciprocal:
    def test_swaps_roles_and_inverts_gain_term(self, arma11):
        r = reciprocal(arma11)
        assert r.poles == (0.3,)
        assert r.zeros == (0.5,)
        assert gain_term(r) == pytest.approx(1.0 / gain_term(arma11))
        z = np.exp(1j * GRID)
        assert np.allclose(
            transfer_values(r, z) * transfer_values(arma11, z), 1.0, atol=1e-12
        )

    def test_rejects_blaschke(self):
        f = make_filter(poles=(0.5,), blaschke=(0.2,))
        with pytest.raises(ValueError):
            reciprocal(f)


inner_complex = st.complex_numbers(max_magnitude=0.85, allow_nan=False, allow_infinity=False)
outer_complex = st.complex_numbers(
    min_magnitude=1.2, max_magnitude=4.0, allow_nan=False, allow_infinity=False
)


@settings(max_examples=50, deadline=None)
@given(
    poles=st.lists(inner_complex, max_size=3),
    zeros_in=st.lists(inner_complex, max_size=2),
    zeros_out=st.lists(outer_complex, max_size=2),
)
def test_outer_factor_idempotent_and_sdf_preserving(poles, zeros_in, zeros_out):
    spec = FilterSpec(gain=1.0, poles=tuple(poles), zeros=tuple(zeros_in + zeros_out))
    once = outer_factor(spec)
    twice = outer_factor(once.to_spec())
    assert once.zeros == twice.zeros
    assert once.gain == twice.gain
    s_before = sdf(spec)
    s_after = sdf(once)
    assert np.max(np.abs(s_before - s_after) / s_before) < 1e-10


@settings(max_examples=50, deadline=None)
@given(zs=st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False))
def test_blaschke_factor_unimodular_on_circle(zs):
    f = make_filter(blaschke=(zs,))
    magnitude = np.abs(transfer_values(f, np.exp(1j * GRID)))
    assert np.max(np.abs(magnitude - 1.0)) < 1e-12


ARMA11_DOC = {"gain": GAIN, "poles": [{"re": 0.5, "im": 0.0}], "zeros": [{"re": 0.3, "im": 0.0}]}


@pytest.mark.parametrize(
    "run, code, message",
    [
        (
            ["validate", {"gain": GAIN, "blaschke": [{"re": 0.0, "im": 1.0}]}],
            "BLASCHKE_POINT_OUTSIDE_DISK",
            "Blaschke points must lie inside the open unit disk: blaschke[0] has modulus 1",
        ),
        # json.load reads Infinity
        (["validate", {"gain": math.inf}], "INVALID_INPUT", "gain must be finite, got inf"),
        (
            ["cepstrum", ARMA11_DOC, "--trunc", "0"],
            "INVALID_INPUT",
            "truncation must be >= 1, got 0",
        ),
        (
            lambda: reflect_zero_out(make_filter(zeros=(0.0, 0.3)), 0),
            "INVALID_INPUT",
            "cannot reflect a zero at the origin",
        ),
    ],
    ids=[
        "blaschke-on-circle",
        "infinite-gain",
        "trunc-0",
        "reflect-origin",
    ],
)
def test_input_checks(capsys, tmp_path, run, code, message):
    assert input_error(capsys, tmp_path, run) == (code, message)


ZERO_ON_CIRCLE_MESSAGE = (
    "zeros on (or within the stability margin of) the unit circle are not representable:"
    " the log-transfer series diverges there: zeros[1] has modulus 1, zeros[2] has modulus 1"
)


@pytest.mark.parametrize(
    "run, error, code, violations, message",
    [
        (
            lambda: validate(FilterSpec(gain=1.0, poles=(0.5, 1.5, -2j, 1 - 1e-8))),
            PoleOutsideDisk,
            "POLE_OUTSIDE_DISK",
            [(1, 1.5), (2, 2.0), (3, 0.99999999)],
            "poles must lie strictly inside the unit disk: poles[1] has modulus 1.5,"
            " poles[2] has modulus 2, poles[3] has modulus 1",
        ),
        (
            lambda: validate(FilterSpec(gain=1.0, zeros=(0.3, 1 + 1e-9, -1j * (1 - 1e-8)))),
            ZeroOnCircle,
            "ZERO_ON_CIRCLE",
            [(1, 1.000000001), (2, 0.99999999)],
            ZERO_ON_CIRCLE_MESSAGE,
        ),
        (
            lambda: validate(FilterSpec(gain=1.0, zeros=(2.0, 0.5, 3j, -1.5))),
            ZeroOutsideDisk,
            "ZERO_OUTSIDE_DISK",
            [(0, 2.0), (2, 3.0), (3, 1.5)],
            "zeros outside the unit disk (filter is not minimum phase): zeros[0] has modulus 2,"
            " zeros[2] has modulus 3, zeros[3] has modulus 1.5",
        ),
        (
            lambda: validate(FilterSpec(gain=1.0, blaschke_points=(0.5, 1.0, 2j))),
            BlaschkePointOutsideDisk,
            "BLASCHKE_POINT_OUTSIDE_DISK",
            [(1, 1.0), (2, 2.0)],
            "Blaschke points must lie inside the open unit disk: blaschke[1] has modulus 1,"
            " blaschke[2] has modulus 2",
        ),
        (
            lambda: outer_factor(FilterSpec(gain=1.0, zeros=(2.0, 1 + 1e-9, 1j * (1 - 1e-8)))),
            ZeroOnCircle,
            "ZERO_ON_CIRCLE",
            [(1, 1.000000001), (2, 0.99999999)],
            ZERO_ON_CIRCLE_MESSAGE,
        ),
        (
            lambda: validate(FilterSpec(gain=-1.0)),
            NonPositiveGain,
            "NON_POSITIVE_GAIN",
            None,
            "gain must be positive, got -1.0",
        ),
    ],
    ids=["poles", "zeros-on-circle", "zeros-outside", "blaschke", "outer-factor-band", "gain"],
)
def test_root_errors_are_pinned(run, error, code, violations, message):
    """Class, code, violations and the message the CLI prints, for several offending roots."""
    with pytest.raises(FilterError) as exc_info:
        run()
    exc = exc_info.value
    assert type(exc) is error
    assert exc.code == code
    assert getattr(exc, "violations", None) == violations
    assert str(exc) == message


def test_derived_filters_are_pinned():
    f = validate(FilterSpec(gain=1.3, poles=(0.5, 0.2 + 0.3j), zeros=(0.3 - 0.1j, -0.4), z_power=2))
    assert repr(reciprocal(f)) == (
        "ValidatedFilter(gain=4.83321946706122, poles=((0.3-0.1j), (-0.4+0j)),"
        " zeros=((0.5+0j), (0.2+0.3j)), blaschke_points=(), z_power=-2, eps_stab=1e-06,"
        " has_exact_cancellation=False)"
    )
    assert repr(reflect_zero_out(f, 0)) == (
        "FilterSpec(gain=0.7310437227474538, poles=((0.5+0j), (0.2+0.3j)),"
        " zeros=((3-1.0000000000000002j), (-0.4+0j)), blaschke_points=(), z_power=2)"
    )
    assert repr(outer_factor(reflect_zero_out(f, 0))) == (
        "ValidatedFilter(gain=1.2999999999999998, poles=((0.5+0j), (0.2+0.3j)),"
        " zeros=((0.3-0.10000000000000002j), (-0.4+0j)), blaschke_points=(), z_power=2,"
        " eps_stab=1e-06, has_exact_cancellation=False)"
    )
