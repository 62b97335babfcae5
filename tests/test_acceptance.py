"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Criterion 3 is expected to fail on one leg: the product
candidate prior is provably not superharmonic on mixed pole/zero models
(see TestLaplaceBeltrami.test_product_prior_not_superharmonic_with_mixed_signature
for the pointwise counterexample); the criterion is asserted as stated
rather than weakened.
"""

import math
import time

import numpy as np
import pytest

from cepgeo.cli import oracle_compare
from cepgeo.closed_form import ModelPoint, alpha_ricci, connection0, kahler_potential, metric, ricci0, t_tensor
from cepgeo.filters import FilterSpec, reciprocal, validate
from cepgeo.priors import check_superharmonic, laplace_beltrami, prior_psi1, prior_psi2, prior_psi3
from cepgeo.quadrature import (
    QuadratureConfig,
    _nodes,
    divergence,
    duality_check,
    invariance_suite,
)
from cepgeo.sampling import sample_root_tuples

from conftest import GAIN, arma_from_roots, make_filter, transfer_values

CFG = QuadratureConfig(nodes=4096)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_1_oracle_equivalence():
    """Closed forms match quadrature to relative 1e-8 on 100 ARMA(2,2) points."""
    start = time.time()
    rows = sample_root_tuples(11, 100, 4, 0.9, 0.05)
    worst = 0.0
    for row in rows:
        residuals = oracle_compare(arma_from_roots(row, 2), CFG)
        worst = max(worst, residuals["max"])
    elapsed = time.time() - start
    ok = worst < 1e-8 and elapsed < 60.0
    report(1, ok, f"worst relative residual {worst:.3e}, elapsed {elapsed:.1f}s")
    assert worst < 1e-8
    assert elapsed < 60.0


def test_criterion_2_psi3_ratio_constant():
    """Delta psi3 / psi3 = -6 at 1000 sampled AR(2) points, tolerance 1e-8."""
    psi = prior_psi3()
    rows = sample_root_tuples(23, 1000, 2, 1.0 - 1e-6, 1e-4)
    worst = 0.0
    for row in rows:
        m = ModelPoint(tuple(row), (-1, -1))
        ratio = laplace_beltrami(psi, m) / psi.evaluate(m)
        worst = max(worst, abs(ratio + 6.0))
    ok = worst < 1e-8
    report(2, ok, f"worst |ratio + 6| = {worst:.3e} over 1000 points")
    assert worst < 1e-8


@pytest.mark.parametrize(
    "psi_name,maker,shape",
    [
        ("psi1", prior_psi1, (2, 0)),
        ("psi1", prior_psi1, (1, 1)),
        ("psi2", prior_psi2, (2, 0)),
        ("psi2", prior_psi2, (1, 1)),
    ],
    ids=["psi1-ar2", "psi1-arma11", "psi2-ar2", "psi2-arma11"],
)
def test_criterion_3_superharmonicity(psi_name, maker, shape):
    """psi1 and psi2 show zero violations over 1000 sampled points per shape."""
    rep = check_superharmonic(maker(2), shape, 1000, seed=5)
    ok = rep.violations == 0
    report(
        3,
        ok,
        f"{psi_name} on shape {shape}: {rep.violations} violations, "
        f"worst Delta psi = {rep.worst_value:.3e}",
    )
    assert rep.violations == 0, (
        f"{psi_name} violated superharmonicity at {rep.violations}/1000 sampled "
        f"points on shape {shape} (worst Delta psi = {rep.worst_value:.3g}); for the "
        "mixed pole/zero signature this is a real property of the geometry, not a "
        "numerical artifact - see the pointwise counterexample in test_priors.py"
    )


def test_criterion_4_potential_is_zero_alpha_divergence():
    """D0(all-pass || h) equals the potential to 1e-9 for 50 normalised filters."""
    rng = np.random.default_rng(47)
    allpass = make_filter()
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(0, 3))
        q = int(rng.integers(0, 3))
        if p + q == 0:
            p = 1
        roots = sample_root_tuples(rng, 1, p + q, 0.9)[0]
        f = validate(FilterSpec(gain=GAIN, poles=tuple(roots[:p]), zeros=tuple(roots[p:])))
        k = kahler_potential(ModelPoint.from_filter(f)).value
        d0 = divergence(allpass, f, 0.0, CFG).value
        worst = max(worst, abs(d0 - k))
    ok = worst < 1e-9
    report(4, ok, f"worst |D0 - K| = {worst:.3e} over 50 filters")
    assert worst < 1e-9


def test_criterion_5_unimodular_invariance():
    """Residuals of S and of the coordinates under a zero's reflection, below 1e-10."""
    rows = sample_root_tuples(53, 50, 4, 0.9, 0.0)
    coords, sdf = [], []
    for row in rows:
        leg = invariance_suite(arma_from_roots(row, 2), CFG).outer_reflection
        assert leg is not None
        coords.append(leg.coordinate_residual)
        sdf.append(leg.sdf_residual)
    worst_coord, worst_sdf = np.max(coords), np.max(sdf)  # np.max, unlike max(), keeps a NaN
    ok = bool(worst_coord < 1e-10 and worst_sdf < 1e-10)
    detail = f"worst reflection sdf residual {worst_sdf:.3e} over 50 filters"
    report(5, ok, f"{detail}, worst reflection coordinate residual {worst_coord:.3e}")
    assert ok


def test_criterion_6_duality():
    """Duality identity and reciprocal connection swap hold to 1e-6."""
    rows = sample_root_tuples(31, 20, 4, 0.9, 0.05)
    worst_duality = 0.0
    worst_reciprocal = 0.0
    for row in rows:
        f = arma_from_roots(row, 2)
        for alpha in (0.5, 1.0):
            rep = duality_check(f, alpha, CFG)
            worst_duality = max(worst_duality, rep.duality_residual)
            worst_reciprocal = max(worst_reciprocal, rep.reciprocal_residual)
    ok = worst_duality < 1e-6 and worst_reciprocal < 1e-6
    report(
        6,
        ok,
        f"duality residual {worst_duality:.3e}, reciprocal swap {worst_reciprocal:.3e}",
    )
    assert worst_duality < 1e-6
    assert worst_reciprocal < 1e-6


def test_criterion_7_alpha_linearity():
    """Ricci entries at alpha in {-1, 0, 1} are collinear to 1e-12."""
    rows = sample_root_tuples(71, 10, 4, 0.9, 0.05)
    worst = 0.0
    for row in rows:
        m = ModelPoint(tuple(row), (-1, -1, 1, 1))
        r_minus = alpha_ricci(m, -1.0).ricci
        r_zero = alpha_ricci(m, 0.0).ricci
        r_plus = alpha_ricci(m, 1.0).ricci
        worst = max(worst, float(np.max(np.abs((r_minus + r_plus) / 2.0 - r_zero))))
    ok = worst < 1e-12
    report(7, ok, f"worst midpoint residual {worst:.3e} over 10 points")
    assert worst < 1e-12


def test_criterion_8_divergence_identities():
    """KL and squared-log forms, and the reciprocal multiplication rule, to 1e-10."""
    rows = sample_root_tuples(61, 40, 4, 0.9, 0.0)
    allpass = make_filter()
    nodes = _nodes(CFG.nodes, 0, CFG.nodes)
    worst_kl = worst_sq = worst_mult = 0.0
    for i in range(20):
        f1 = arma_from_roots(rows[2 * i], 2)
        f2 = arma_from_roots(rows[2 * i + 1], 2)
        s1 = np.abs(transfer_values(f1, nodes)) ** 2
        s2 = np.abs(transfer_values(f2, nodes)) ** 2
        # independently coded Kullback-Leibler (Itakura-Saito) integrand
        kl = float(np.mean(s1 / s2 - 1.0 - np.log(s1 / s2)))
        worst_kl = max(worst_kl, abs(divergence(f1, f2, -1.0, CFG).value - kl))
        # independently coded squared-log form of the 0-divergence
        sq = float(np.mean((np.log(s2) - np.log(s1)) ** 2) / 2.0)
        worst_sq = max(worst_sq, abs(divergence(f1, f2, 0.0, CFG).value - sq))
        d1 = divergence(allpass, reciprocal(f1), 0.0, CFG).value
        d2 = divergence(allpass, f1, 0.0, CFG).value
        d3 = divergence(f1, allpass, 0.0, CFG).value
        worst_mult = max(worst_mult, abs(d1 - d2), abs(d2 - d3))
    ok = max(worst_kl, worst_sq, worst_mult) < 1e-10
    report(
        8,
        ok,
        f"KL residual {worst_kl:.3e}, squared-log {worst_sq:.3e}, "
        f"multiplication rule {worst_mult:.3e}",
    )
    assert worst_kl < 1e-10
    assert worst_sq < 1e-10
    assert worst_mult < 1e-10


def test_criterion_9_analytic_anchors():
    """AR(1) at 0.5: g = 4/3, Gamma = 8/9, R = -16/9, scalar = -4/3, K = Li2(1/4)."""
    m = ModelPoint((0.5,), (-1,))
    li2_partial = sum(0.25**r / r**2 for r in range(1, 201))
    values = {
        "metric": (metric(m).mixed[0, 0].real, 4.0 / 3.0),
        "connection0": (connection0(m).gamma_mixed[0, 0, 0].real, 8.0 / 9.0),
        "ricci0": (ricci0(m).ricci[0, 0].real, -16.0 / 9.0),
        "scalar": (ricci0(m).scalar, -4.0 / 3.0),
        "potential": (kahler_potential(m).value, li2_partial),
    }
    worst = max(abs(got - want) for got, want in values.values())
    ok = worst < 1e-9
    report(9, ok, f"worst anchor deviation {worst:.3e}")
    for name, (got, want) in values.items():
        assert got == pytest.approx(want, abs=1e-9), name
