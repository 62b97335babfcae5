import cmath
import dataclasses
import warnings

import numpy as np
import pytest

from cepgeo import priors, sampling
from cepgeo.closed_form import CoincidentRootsWarning, ModelPoint
from cepgeo.priors import (
    BUILTINS,
    PriorFunction,
    check_superharmonic,
    laplace_beltrami,
    prior_psi1,
    prior_psi2,
    prior_psi3,
)
from cepgeo.sampling import sample_root_tuples

from conftest import input_error, mp_inverse_metric, peak_mib, wirtinger_mixed_hessian

AR1_HALF = ModelPoint((0.5,), (-1,))
AR2 = ModelPoint((0.4 + 0.2j, -0.3 + 0.5j), (-1, -1))


def hessian_at(psi, m):
    """The candidate's analytic mixed Hessian at one model point."""
    return psi.hessians(np.array([m.params]))[0]


class DifferencedPrior:
    """A candidate whose mixed Hessian is the Wirtinger difference oracle, tuple by tuple.

    It has what the kernels read of a candidate: ``kind``, ``values`` and
    ``hessians`` over root tuples of shape (S, n).
    """

    kind = "custom"

    def __init__(self, evaluate):
        self.evaluate = evaluate

    @staticmethod
    def _points(xi):
        # a candidate reads the coordinates alone; the signature only completes a ModelPoint
        return [ModelPoint(tuple(row), (-1,) * len(row)) for row in xi]

    def values(self, xi):
        return np.array([self.evaluate(m) for m in self._points(xi)])

    def hessians(self, xi):
        return np.array([wirtinger_mixed_hessian(self.evaluate, m) for m in self._points(xi)])


class TestLaplaceBeltrami:
    def test_constant_function_maps_to_zero(self):
        psi = DifferencedPrior(lambda m: 3.0)
        assert laplace_beltrami(psi, AR2) == pytest.approx(0.0, abs=1e-8)

    def test_single_boundary_factor_on_ar1(self):
        # Delta (1 - |xi|^2) = -2 g^{11bar} = -2 (1 - |xi|^2) at a single pole
        psi = prior_psi1(1)
        assert laplace_beltrami(psi, AR1_HALF) == pytest.approx(-1.5)

    def test_psi3_ratio_is_minus_six(self):
        psi = prior_psi3()
        for row in sample_root_tuples(42, 25, 2, 0.999, 1e-4):
            m = ModelPoint(tuple(row), (-1, -1))
            ratio = laplace_beltrami(psi, m) / psi.evaluate(m)
            assert ratio == pytest.approx(-6.0, abs=1e-8)

    def test_additivity(self):
        psi1 = prior_psi1(2)
        psi2 = prior_psi2(2)
        combined = DifferencedPrior(lambda m: psi1.evaluate(m) + psi2.evaluate(m))
        for row in sample_root_tuples(7, 5, 2, 0.9, 1e-3):
            m = ModelPoint(tuple(row), (-1, -1))
            total = laplace_beltrami(psi1, m) + laplace_beltrami(psi2, m)
            assert laplace_beltrami(combined, m) == pytest.approx(total, abs=1e-6)

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_psi3_rejects_other_dimensions(self, n):
        # psi3 reads xi^1 and xi^2: n = 1 has no xi^2, and n = 4 would ignore two coordinates
        with pytest.raises(ValueError, match="two coordinates"):
            prior_psi3(n)
        with pytest.raises(ValueError, match="two coordinates"):
            BUILTINS["psi3"](n=n)

    def test_builtin_hessians_match_wirtinger_differences(self):
        for maker in (lambda: prior_psi1(2), lambda: prior_psi2(2), prior_psi3):
            psi = maker()
            for row in sample_root_tuples(9, 5, 2, 0.9, 1e-3):
                m = ModelPoint(tuple(row), (-1, -1))
                fd = wirtinger_mixed_hessian(psi.evaluate, m, step=1e-4)
                assert np.max(np.abs(hessian_at(psi, m) - fd)) < 1e-6

    def test_ar2_closed_ratio_for_product_prior(self):
        # Delta psi2 / psi2 = -2 (2 - 2 Re(xi1 conj(xi2))) / |xi1 - xi2|^2 on AR(2)
        psi = prior_psi2(2)
        for row in sample_root_tuples(21, 10, 2, 0.9, 1e-2):
            x1, x2 = row
            m = ModelPoint((x1, x2), (-1, -1))
            expected = (
                -2.0 * (2.0 - 2.0 * (x1 * x2.conjugate()).real) / abs(x1 - x2) ** 2
            )
            ratio = laplace_beltrami(psi, m) / psi.evaluate(m)
            assert ratio == pytest.approx(expected, rel=1e-9)

    def test_product_prior_not_superharmonic_with_mixed_signature(self):
        # mixed pole/zero signature flips the off-diagonal metric sign and the
        # product candidate stops being superharmonic: aligned, large-modulus
        # pole/zero pairs push the Laplacian positive
        psi = prior_psi2(2)
        m = ModelPoint((0.9, 0.85), (-1, 1))
        value = laplace_beltrami(psi, m)
        assert value == pytest.approx(10.507038, rel=1e-6)
        fd = wirtinger_mixed_hessian(psi.evaluate, m, step=1e-4)
        assert np.max(np.abs(hessian_at(psi, m) - fd)) < 1e-6  # not a Hessian bug

    def test_builtins_are_their_factor_terms(self):
        # a candidate is a plain record: equal terms make an equal candidate
        assert [f.name for f in dataclasses.fields(PriorFunction)] == ["kind", "terms"]
        assert prior_psi1(2) == PriorFunction("psi1", (((0, 0),), ((1, 1),)))
        assert prior_psi2(3) == PriorFunction("psi2", (((0, 0), (1, 1), (2, 2)),))
        assert prior_psi3() == PriorFunction("psi3", (((0, 1), (1, 0), (0, 0), (1, 1)),))

    def test_custom_subharmonic_counterexample(self):
        psi = DifferencedPrior(lambda m: abs(m.params[0]) ** 2)
        assert laplace_beltrami(psi, AR1_HALF) > 0.0


class TestCheckSuperharmonic:
    def test_psi1_ar2_no_violations(self):
        report = check_superharmonic(prior_psi1(2), (2, 0), 200, seed=3)
        assert report.violations == 0
        assert report.worst_value < 0.0
        assert report.samples == 200

    def test_psi2_ar2_no_violations(self):
        report = check_superharmonic(prior_psi2(2), (2, 0), 200, seed=3)
        assert report.violations == 0

    def test_subharmonic_candidate_violates_everywhere(self):
        psi = DifferencedPrior(lambda m: abs(m.params[0]) ** 2)
        report = check_superharmonic(psi, (2, 0), 100, seed=3)
        assert report.violations == report.samples

    @pytest.mark.parametrize("eps_stab", [2.0, -1.0, 0.0, 1.0, float("nan")])
    def test_eps_stab_outside_unit_interval_is_rejected(self, eps_stab):
        # as filters.validate: a margin of 2 would sample at radius -1
        with pytest.raises(ValueError, match=r"eps_stab must be in \(0, 1\)"):
            check_superharmonic(prior_psi1(2), (2, 0), 10, seed=3, eps_stab=eps_stab)

    def test_eps_stab_that_rounds_away_is_rejected(self):
        # the sampling radius 1 - eps_stab would be 1
        with pytest.raises(ValueError, match="1 - eps_stab rounds to 1"):
            check_superharmonic(prior_psi1(2), (2, 0), 10, seed=3, eps_stab=1e-300)

    def test_deterministic_for_fixed_seed(self):
        a = check_superharmonic(prior_psi2(2), (1, 1), 100, seed=11)
        b = check_superharmonic(prior_psi2(2), (1, 1), 100, seed=11)
        assert a == b

    def test_margin_histogram_describes_samples(self):
        report = check_superharmonic(prior_psi1(2), (2, 0), 100, seed=5)
        hist = report.margin_histogram
        assert hist["min"] <= hist["p25"] <= hist["p50"] <= hist["p75"] <= hist["max"]
        assert report.worst_value == hist["max"]

    def test_positivity_of_builtins_on_sampled_points(self):
        for psi in (prior_psi1(2), prior_psi2(2), prior_psi3()):
            for row in sample_root_tuples(13, 50, 2, 1.0 - 1e-6, 1e-4):
                assert psi.evaluate(ModelPoint(tuple(row), (-1, -1))) > 0.0


SHAPES = [(2, 0), (1, 1), (2, 2)]


def signature_of(shape):
    return (-1,) * shape[0] + (1,) * shape[1]


class TestBatchedAgainstPerPoint:
    @pytest.mark.parametrize(
        "psi_name, shape",
        [
            pytest.param(psi, shape, id=f"{psi}-shape{k}")
            for psi in ("psi1", "psi2", "psi3")
            for k, shape in enumerate(SHAPES)
            if psi != "psi3" or sum(shape) == 2  # psi3 reads exactly two coordinates
        ],
    )
    def test_check_repeats_per_point_values_bitwise(self, monkeypatch, psi_name, shape):
        # rounds of 97 tuples: the report must not depend on where they split
        n = sum(shape)
        monkeypatch.setattr(sampling, "_ROUND_BYTES", 97 * 16 * n * n)
        psi = BUILTINS[psi_name](n=n)
        report = check_superharmonic(psi, shape, 400, seed=9)
        rows = sample_root_tuples(9, 400, n, 1.0 - 1e-6, priors.REJECT_RADIUS_DEFAULT)
        values = np.array(
            [laplace_beltrami(psi, ModelPoint(tuple(row), signature_of(shape))) for row in rows]
        )
        assert report.worst_value == values.max()
        assert report.violations == int(np.sum(values > 0.0))

    @pytest.mark.parametrize(
        "psi_name, shape", [("psi1", (2, 2)), ("psi2", (2, 2)), ("psi2", (4, 4)), ("psi3", (1, 1))]
    )
    def test_large_batches_keep_each_tuples_bits(self, psi_name, shape):
        # 20000 tuples: numpy reuses large temporaries in place, and a
        # complex product must still see its factors in the per-point order
        n = sum(shape)
        psi = BUILTINS[psi_name](n=n)
        rows = sample_root_tuples(4, 20000, n, 1.0 - 1e-6, 1e-4)
        batched = priors._laplace_beltrami(psi, rows, np.asarray(signature_of(shape), dtype=float))
        for s in range(0, 20000, 499):
            m = ModelPoint(tuple(rows[s]), signature_of(shape))
            assert batched[s] == laplace_beltrami(psi, m)
            assert psi.values(rows)[s] == psi.evaluate(m)

    def test_per_point_methods_are_the_one_tuple_case(self):
        psi = prior_psi3()
        xi = np.array([AR2.params])
        assert psi.evaluate(AR2) == psi.values(xi)[0]


def test_check_memory_does_not_grow_with_samples_or_dimension():
    # at n = 32 one tuple's (n, n) complex array is 16 KiB; 2000 of them at once would be 31 MiB
    peak, report = peak_mib(lambda: check_superharmonic(prior_psi1(32), (16, 16), 2000, seed=2))
    assert report.samples == 2000
    assert peak < 4


class TestQuartiles:
    @pytest.mark.parametrize("size", [1, 2, 5, 1000, 100_000])
    @pytest.mark.parametrize("ties", [False, True])
    def test_bitwise_as_percentile(self, size, ties):
        rng = np.random.default_rng(size)
        values = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4, size)
        if ties:
            values = np.round(values, 1)
        # equal doubles are equal bits, except that -0.0 == 0.0: among tied
        # zeros of both signs, a sort and np.percentile's partition may pick
        # different ones
        assert np.array_equal(priors._quartiles(values), np.percentile(values, [0, 25, 50, 75, 100]))


# the candidates as defined, for the high-precision reference
MP_CANDIDATES = {
    "psi1": lambda mp, z: sum(1 - abs(x) ** 2 for x in z),
    "psi2": lambda mp, z: mp.fprod(1 - abs(x) ** 2 for x in z),
    "psi3": lambda mp, z: (
        abs(1 - z[0] * mp.conj(z[1])) ** 2 * (1 - abs(z[0]) ** 2) * (1 - abs(z[1]) ** 2)
    ),
}


def mp_laplace_beltrami(mp, psi_name, m):
    """2 Re sum_ij g^{i jbar} d_i d_jbar psi from mpmath partial derivatives of psi itself."""
    n = m.n
    point = [q for x in m.params for q in (mp.mpf(x.real), mp.mpf(x.imag))]

    def psi(*v):
        return MP_CANDIDATES[psi_name](mp, [mp.mpc(v[2 * k], v[2 * k + 1]) for k in range(n)])

    def d2(p, q):
        order = [0] * (2 * n)
        order[p] += 1
        order[q] += 1
        return mp.diff(psi, point, tuple(order))

    b = mp_inverse_metric(mp, m)
    total = 0
    for i in range(n):
        for j in range(n):
            # d_i d_jbar = (d_xi d_xj + d_yi d_yj + i (d_xi d_yj - d_yi d_xj)) / 4
            hess = (
                d2(2 * i, 2 * j)
                + d2(2 * i + 1, 2 * j + 1)
                + 1j * (d2(2 * i, 2 * j + 1) - d2(2 * i + 1, 2 * j))
            ) / 4
            total += b[i, j] * hess
    return 2 * mp.re(total)


# worst relative error of Delta psi at radius 1 - 1e-6, over the three
# candidates on AR(2) and ARMA(1,1); psi3 on AR(2) sets every bound (it
# measured 5.7e-9, 4.4e-5 and 0.78 over a 9-point sweep), psi1 and psi2
# stay within about 1e-10 at every separation
SEPARATION_BOUNDS = {1e-4: 1e-8, 1e-6: 1e-4, 1e-8: 1.0}


@pytest.mark.parametrize("sep", sorted(SEPARATION_BOUNDS, reverse=True))
def test_reject_radius_against_mpmath(sep):
    mp = pytest.importorskip("mpmath")
    worst = {}
    for theta in (0.7, -1.3):
        for turn in (2.0, 3.1):
            x1 = (1.0 - 1e-6) * cmath.exp(1j * theta)
            x2 = x1 + sep * cmath.exp(1j * (theta + turn))  # turned inwards
            for shape in [(2, 0), (1, 1)]:
                m = ModelPoint((x1, x2), signature_of(shape))
                for psi_name in ("psi1", "psi2", "psi3"):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", CoincidentRootsWarning)
                        got = priors._laplace_beltrami(
                            BUILTINS[psi_name](n=2), np.array([m.params]), np.array(m.signature, float)
                        )[0]
                    with mp.workdps(50):
                        ref = float(mp_laplace_beltrami(mp, psi_name, m))
                    err = abs(got - ref) / abs(ref)
                    worst[psi_name] = max(worst.get(psi_name, 0.0), err)
    assert max(worst.values()) < SEPARATION_BOUNDS[sep], worst
    assert max(worst["psi1"], worst["psi2"]) < 1e-9, worst


@pytest.mark.parametrize(
    "run, message",
    [
        (
            ["check-prior", "--psi", "psi1", "--model", "ar:1", "--samples", "0"],
            "samples must be >= 1",
        ),
        # the CLI refuses an empty model shape while parsing it: library only
        (
            lambda: check_superharmonic(prior_psi1(n=0), (0, 0), 10, 0),
            "model shape must have at least one coordinate",
        ),
        # two roots of a disk of radius 1e-5 are never 1e-4 apart
        (
            ["check-prior", "--psi", "psi1", "--model", "ar:2", "--eps-stab", "0.99999"],
            "cannot sample 2 roots pairwise 0.0001 apart in a disk of radius 1e-05:"
            " more than 100000 tuples rejected",
        ),
    ],
    ids=["no-samples", "no-coordinates", "separation-too-large-for-the-disk"],
)
def test_input_checks(capsys, tmp_path, run, message):
    assert input_error(capsys, tmp_path, run) == ("INVALID_INPUT", message)
