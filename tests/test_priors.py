import numpy as np
import pytest

from cepgeo.closed_form import ModelPoint
from cepgeo.priors import (
    PriorFunction,
    check_superharmonic,
    laplace_beltrami,
    prior_psi1,
    prior_psi2,
    prior_psi3,
)
from cepgeo.sampling import sample_root_tuples

from conftest import wirtinger_mixed_hessian

AR1_HALF = ModelPoint((0.5,), (-1,))
AR2 = ModelPoint((0.4 + 0.2j, -0.3 + 0.5j), (-1, -1))


def differenced_prior(evaluate):
    """A candidate whose mixed Hessian is the Wirtinger difference oracle."""
    return PriorFunction("custom", evaluate, lambda m: wirtinger_mixed_hessian(evaluate, m))


class TestLaplaceBeltrami:
    def test_constant_function_maps_to_zero(self):
        psi = differenced_prior(lambda m: 3.0)
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
        combined = differenced_prior(lambda m: psi1.evaluate(m) + psi2.evaluate(m))
        for row in sample_root_tuples(7, 5, 2, 0.9, 1e-3):
            m = ModelPoint(tuple(row), (-1, -1))
            total = laplace_beltrami(psi1, m) + laplace_beltrami(psi2, m)
            assert laplace_beltrami(combined, m) == pytest.approx(total, abs=1e-6)

    def test_builtin_hessians_match_wirtinger_differences(self):
        for maker in (lambda: prior_psi1(2), lambda: prior_psi2(2), prior_psi3):
            psi = maker()
            for row in sample_root_tuples(9, 5, 2, 0.9, 1e-3):
                m = ModelPoint(tuple(row), (-1, -1))
                fd = wirtinger_mixed_hessian(psi.evaluate, m, step=1e-4)
                assert np.max(np.abs(psi.mixed_hessian(m) - fd)) < 1e-6

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
        assert np.max(np.abs(psi.mixed_hessian(m) - fd)) < 1e-6  # not a Hessian bug

    def test_custom_subharmonic_counterexample(self):
        psi = differenced_prior(lambda m: abs(m.params[0]) ** 2)
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
        psi = differenced_prior(lambda m: abs(m.params[0]) ** 2)
        report = check_superharmonic(psi, (2, 0), 100, seed=3)
        assert report.violations == report.samples

    @pytest.mark.parametrize("eps_stab", [2.0, -1.0, 0.0, 1.0, float("nan")])
    def test_eps_stab_outside_unit_interval_is_rejected(self, eps_stab):
        # as filters.validate: a margin of 2 would sample at radius -1
        with pytest.raises(ValueError, match=r"eps_stab must be in \(0, 1\)"):
            check_superharmonic(prior_psi1(2), (2, 0), 10, seed=3, eps_stab=eps_stab)

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

