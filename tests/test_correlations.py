"""Collective-spin moments against the dense reference and frozen values.

The frozen literals below were produced by the dense reference implementation
(oracle module) and pin the numerical path down to double-precision noise;
live cross-checks against the same reference run next to them at small N.
"""
import math

import numpy as np
import pytest

from xythermo import correlations, oracle, thermometry
from xythermo.spectrum import ChainSpec

SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def _ens(gamma=1.0, field_ratio=0.5, sites=8, T=0.3):
    return thermometry.ensemble(ChainSpec(gamma=gamma, field_ratio=field_ratio, sites=sites), T)


def _pair_xx_operator(n, a, b):
    op = np.ones((1, 1))
    for site in range(n):
        op = np.kron(op, SX if site in (a, b) else np.eye(2))
    return op


# ---- kernel ------------------------------------------------------------------

def test_kernel_matches_dense_string_contractions():
    ens = _ens()
    kern = correlations.kernel(ens)
    sys = oracle.build(ens.spec, oracle.MATCHED)
    worst = max(abs(kern.coefficient(b - a) - oracle.string_contraction(sys, 0.3, a, b))
                for a in range(8) for b in range(8))
    assert worst < 1e-12


def test_kernel_infinite_temperature_has_no_structure():
    kern = correlations.kernel(_ens(T=math.inf))
    assert all(kern.coefficient(j) == 0.0 for j in range(-7, 8))


def test_kernel_antiperiodic_wraparound():
    kern = correlations.kernel(_ens(gamma=0.6, field_ratio=0.9, T=0.4))
    for j in (1, 2, 3):
        assert kern.coefficient(8 - j) == pytest.approx(-kern.coefficient(-j), abs=1e-14)


def test_kernel_coefficient_range_checked():
    kern = correlations.kernel(_ens())
    with pytest.raises(ValueError):
        kern.coefficient(8)
    with pytest.raises(ValueError):
        kern.coefficient(-8)


def test_kernel_frozen_values():
    kern = correlations.kernel(_ens())
    assert kern.coefficient(-1) == pytest.approx(0.9223761966732211, rel=1e-12)
    assert kern.coefficient(0) == pytest.approx(-0.26790476610639774, rel=1e-12)


# ---- two-point correlations ----------------------------------------------------

def test_xx_correlation_base_cases():
    kern = correlations.kernel(_ens(gamma=0.7, field_ratio=0.4, sites=6, T=0.37))
    assert correlations.xx_correlation(kern, 0) == 1.0
    assert correlations.xx_correlation(kern, 1) == pytest.approx(kern.coefficient(-1), rel=1e-14)


def test_xx_correlation_matches_dense_pair():
    ens = _ens()
    kern = correlations.kernel(ens)
    sys = oracle.build(ens.spec, oracle.MATCHED)
    for r in (1, 2, 3, 5):
        want = oracle.thermal_expectation(sys, 0.3, _pair_xx_operator(8, 0, r))
        assert correlations.xx_correlation(kern, r) == pytest.approx(want, abs=1e-10)


def test_xx_correlation_bounded():
    for T in (0.1, 0.5, 2.0):
        kern = correlations.kernel(_ens(gamma=0.8, field_ratio=0.7, sites=12, T=T))
        for r in range(12):
            assert abs(correlations.xx_correlation(kern, r)) <= 1.0 + 1e-12


def test_xx_correlation_rejects_out_of_range():
    kern = correlations.kernel(_ens())
    for r in (-1, 8):
        with pytest.raises(ValueError):
            correlations.xx_correlation(kern, r)


def test_yy_correlation_matches_axis_swap():
    # exchanging the x and y axes is the same as flipping the anisotropy sign
    kern_plus = correlations.kernel(_ens(gamma=0.45, field_ratio=0.8, T=0.5))
    kern_minus = correlations.kernel(_ens(gamma=-0.45, field_ratio=0.8, T=0.5))
    for r in range(8):
        assert correlations.yy_correlation(kern_plus, r) == pytest.approx(
            correlations.xx_correlation(kern_minus, r), abs=1e-12)


# ---- second moments -------------------------------------------------------------

def test_var_jx_matches_dense_reference():
    ens = _ens()
    sys = oracle.build(ens.spec, oracle.MATCHED)
    got = correlations.var_jx(correlations.kernel(ens))
    assert got == pytest.approx(oracle.oracle_var_jx(sys, 0.3), rel=1e-12)
    assert got == pytest.approx(58.27565463531814, rel=1e-12)


def test_mean_jz_matches_dense_reference():
    ens = _ens()
    sys = oracle.build(ens.spec, oracle.MATCHED)
    assert correlations.mean_jz(ens) == pytest.approx(oracle.oracle_mean_jz(sys, 0.3), rel=1e-12)
    assert correlations.mean_jz(ens) == pytest.approx(2.143238128851182, rel=1e-12)


def test_var_jz_matches_dense_reference():
    ens = _ens()
    sys = oracle.build(ens.spec, oracle.MATCHED)
    assert correlations.var_jz(ens) == pytest.approx(oracle.oracle_var_jz(sys, 0.3), rel=1e-12)
    assert correlations.var_jz(ens) == pytest.approx(8.095489328865874, rel=1e-12)


def test_half_modulation_against_dense_reference():
    ens = _ens(gamma=0.5, field_ratio=1.5, T=0.4)
    sys = oracle.build(ens.spec, oracle.MATCHED)
    assert correlations.mean_jz(ens, "half") == pytest.approx(
        oracle.oracle_mean_jz(sys, 0.4, "half"), rel=1e-10)
    assert correlations.var_jz(ens, "half") == pytest.approx(
        oracle.oracle_var_jz(sys, 0.4, "half"), rel=1e-10)


def test_modulation_weights():
    assert np.all(correlations.modulation_weights("uniform", 6) == 1.0)
    assert np.allclose(correlations.modulation_weights("half", 6), [1, 0, 1, 0, 1, 0], atol=1e-15)
    with pytest.raises(ValueError):
        correlations.modulation_weights("quarter", 6)
    with pytest.raises(ValueError):
        correlations.mean_jz(_ens(), "quarter")


def test_var_jy_matches_dense_reference():
    ens = _ens()
    kern = correlations.kernel(ens)
    sys = oracle.build(ens.spec, oracle.MATCHED)
    assert correlations.var_jy(kern) == pytest.approx(oracle.oracle_var_jy(sys, 0.3), rel=1e-12)


def test_var_jy_equals_var_jx_at_flipped_anisotropy():
    for n in (8, 50, 300):
        kern = correlations.kernel(_ens(gamma=0.35, field_ratio=0.7, sites=n, T=0.25))
        flipped = correlations.kernel(_ens(gamma=-0.35, field_ratio=0.7, sites=n, T=0.25))
        assert correlations.var_jy(kern) == pytest.approx(
            correlations.var_jx(flipped), rel=1e-12)


# ---- fourth moment ---------------------------------------------------------------

def test_fourth_moment_matches_dense_reference():
    ens = _ens()
    got = correlations.fourth_moment_jx(ens)
    sys = oracle.build(ens.spec, oracle.MATCHED)
    assert got == pytest.approx(oracle.oracle_fourth_jx(sys, 0.3), rel=1e-10)
    assert got == pytest.approx(3587.9710065310455, rel=1e-12)


def test_fourth_moment_second_parameter_point():
    ens = _ens(gamma=0.7, field_ratio=0.4, sites=6, T=0.37)
    assert correlations.fourth_moment_jx(ens) == pytest.approx(1110.0851286681527, rel=1e-12)
    sys = oracle.build(ens.spec, oracle.MATCHED)
    assert correlations.fourth_moment_jx(ens) == pytest.approx(
        oracle.oracle_fourth_jx(sys, 0.37), rel=1e-10)


def test_fourth_moment_repeat_call_is_stable():
    ens = _ens(gamma=0.9, field_ratio=0.2, T=0.6)
    first = correlations.fourth_moment_jx(ens)
    assert correlations.fourth_moment_jx(ens) == first


def test_fourth_dominates_squared_variance():
    # Var(J_x^2) = <J_x^4> - <J_x^2>^2 >= 0
    for gamma, f, T in ((1.0, 0.0, 0.1), (0.5, 1.0, 0.5), (0.2, 1.8, 1.5)):
        m = correlations.moments(_ens(gamma=gamma, field_ratio=f, T=T))
        assert m.var_jx_squared >= 0.0
        assert m.fourth_jx == pytest.approx(m.var_jx**2 + m.var_jx_squared, rel=1e-12)


def test_large_ring_frozen_values():
    """Regression guard for the nested-minor path of <J_x^4> at N = 50.

    The frozen value came from the one-det-per-class path; the nested-minor
    path reproduces it within the tolerance.
    """
    ens = _ens(sites=50)
    kern = correlations.kernel(ens)
    assert correlations.var_jx(kern) == pytest.approx(1911.0116605307207, rel=1e-11)
    assert correlations.fourth_moment_jx(ens) == pytest.approx(4286944.630758701, rel=1e-10)


# ordered, critical, cold paramagnetic, XX and gamma < 0 points
NESTED_GRID = ((1.0, 0.5, 0.3), (1.0, 1.0, 0.3), (1.0, 2.0, 0.05), (0.0, 0.5, 0.3),
               (-0.5, 0.5, 0.3), (-0.7, 0.3, 0.05))


@pytest.mark.parametrize("sites", (4, 6, 14, 30, 60))
def test_nested_minors_match_by_class_reference(sites):
    for gamma, field, T in NESTED_GRID:
        kern = correlations.kernel(_ens(gamma=gamma, field_ratio=field, sites=sites, T=T))
        nested = correlations._nested_quad_sum(kern)
        assert nested is not None, (gamma, field, T)
        want = correlations._quad_correlations_by_class(kern)
        fourth = correlations.fourth_moment_from_kernel(kern)
        assert 24.0 * abs(nested - want) <= 1e-10 * fourth, (gamma, field, T)


def test_nested_minors_split_stacks_at_the_element_cap(monkeypatch):
    kern = correlations.kernel(_ens(sites=14))
    whole = correlations._nested_quad_sum(kern)
    monkeypatch.setattr(correlations, "_DET_BATCH_ELEMENTS", 200)  # 1-2 matrices a stack
    assert correlations._nested_quad_sum(kern) == pytest.approx(whole, rel=1e-13)


@pytest.mark.parametrize("gamma, field, T",
                         ((-1.0, 0.0, 0.3), (1.0, 0.5, math.inf), (0.0, 2.0, 0.05)))
def test_breakdown_falls_back_to_by_class_path(gamma, field, T, monkeypatch):
    # every pair matrix is singular on the gamma = -1, h/J = 0 line, g = 0 at
    # T = inf, and the cold XX chain at h/J > 1 is fully polarized; in each
    # case the x spins are uncorrelated
    n = 30
    kern = correlations.kernel(_ens(gamma=gamma, field_ratio=field, sites=n, T=T))
    assert correlations._nested_quad_sum(kern) is None
    by_class = correlations._quad_correlations_by_class
    calls = []
    monkeypatch.setattr(correlations, "_quad_correlations_by_class",
                        lambda k: calls.append(k) or by_class(k))
    fourth = correlations.fourth_moment_from_kernel(kern)
    assert calls == [kern]
    assert fourth == pytest.approx(3 * n * n - 2 * n, rel=1e-12)
    if T == math.inf:
        assert fourth == 3 * n * n - 2 * n


def test_fourth_moment_makes_no_det_calls(monkeypatch):
    kern = correlations.kernel(_ens(sites=50))
    correlations.var_jx(kern)  # fills the pair memo, as a ReadoutPoint does
    det = np.linalg.det
    calls = []
    monkeypatch.setattr(np.linalg, "det", lambda a: calls.append(np.shape(a)) or det(a))
    assert correlations.fourth_moment_from_kernel(kern) == pytest.approx(
        4286944.630758701, rel=1e-10)
    assert calls == []


# ---- pair correlators from one row-updating QR sweep -------------------------------

# NESTED_GRID plus a singular line point, a cold polarized XX point and T = inf
PAIR_GRID = NESTED_GRID + ((-1.0, 0.0, 0.3), (0.0, 2.0, 0.05), (1.0, 0.5, math.inf))


def _per_separation_pair_sum(kern, shift):
    n = kern.ensemble.spec.sites
    corr = np.array([correlations._pair_correlation(kern, r, shift) for r in range(n)])
    return n + correlations._pair_sum(corr)


@pytest.mark.parametrize("sites, grid", [(4, PAIR_GRID), (6, PAIR_GRID), (14, PAIR_GRID),
                                         (60, PAIR_GRID), (300, PAIR_GRID[1:3])])
def test_qr_pair_sums_match_per_separation_dets(sites, grid):
    for gamma, field, T in grid:
        kern = correlations.kernel(_ens(gamma=gamma, field_ratio=field, sites=sites, T=T))
        assert correlations.var_jx(kern) == pytest.approx(
            _per_separation_pair_sum(kern, -1), rel=1e-13), (gamma, field, T)
        assert correlations.var_jy(kern) == pytest.approx(
            _per_separation_pair_sum(kern, +1), rel=1e-13), (gamma, field, T)


def test_qr_correlators_keep_the_sign_of_negative_minors():
    # in the paramagnetic phase y pairs at gamma > 0 and x pairs at
    # gamma < 0 alternate in sign with the separation
    for gamma, shift in ((0.8, +1), (-0.6, -1)):
        kern = correlations.kernel(_ens(gamma=gamma, field_ratio=1.2, sites=60, T=0.5))
        got = correlations._pair_correlations(kern, shift)
        want = np.array([correlations._pair_correlation(kern, r, shift) for r in range(60)])
        assert np.count_nonzero(want < -1e-8) >= 5
        large = np.abs(want) > 1e-8
        assert np.array_equal(np.sign(got[large]), np.sign(want[large]))
        assert np.max(np.abs(got - want)) <= 1e-12


def test_qr_pair_sums_exact_at_infinite_temperature():
    for n in (4, 60, 300):
        kern = correlations.kernel(_ens(sites=n, T=math.inf))
        assert correlations.var_jx(kern) == n
        assert correlations.var_jy(kern) == n


def test_var_jx_makes_no_det_calls_on_a_real_kernel(monkeypatch):
    kern = correlations.kernel(_ens(sites=300))
    det = np.linalg.det
    calls = []
    monkeypatch.setattr(np.linalg, "det", lambda a: calls.append(np.shape(a)) or det(a))
    assert correlations.var_jx(kern) == pytest.approx(32907.35782295236, rel=1e-13)
    assert correlations.xx_correlation(kern, 299) == kern._xx[299]
    assert calls == []


def test_var_jx_slope_keeps_the_per_separation_path():
    # the complex-step kernel is not rotated: the slope is the same number,
    # to the last bit, as when every pair took one LAPACK det
    kern = correlations.kernel(_ens(sites=50))
    assert correlations.var_jx_slope(kern) == -1427.6011376405074
    kern = correlations.kernel(_ens(gamma=-0.5, field_ratio=1.0, sites=50, T=0.126))
    assert correlations.var_jx_slope(kern) == 7.9362301658129955


# ---- bundles and limits -----------------------------------------------------------

def test_moments_bundle_consistent_with_parts():
    ens = _ens(gamma=0.6, field_ratio=1.1, T=0.45)
    kern = correlations.kernel(ens)
    m = correlations.moments(ens)
    assert m.mean_jx == 0.0
    assert m.var_jx == pytest.approx(correlations.var_jx(kern), rel=1e-14)
    assert m.mean_jz == pytest.approx(correlations.mean_jz(ens), rel=1e-14)
    assert m.var_jz == pytest.approx(correlations.var_jz(ens), rel=1e-14)
    assert m.fourth_jx == pytest.approx(correlations.fourth_moment_jx(ens), rel=1e-14)


def test_infinite_temperature_moments_are_exact():
    n = 8
    m = correlations.moments(_ens(sites=n, T=math.inf))
    assert (m.mean_jx, m.var_jx, m.var_jz, m.fourth_jx) == (0.0, n, n, 3 * n * n - 2 * n)
    assert m.mean_jz == 0.0
    assert m.var_jx_squared == 2 * n * n - 2 * n


def test_saturated_paramagnet_limits():
    ens = _ens(gamma=0.0, field_ratio=1e3, T=0.01)
    assert correlations.mean_jz(ens) == pytest.approx(8.0, abs=1e-9)
    assert correlations.var_jz(ens) == pytest.approx(0.0, abs=1e-9)
    kern = correlations.kernel(ens)
    for j in range(-7, 8):
        want = -1.0 if j == 0 else 0.0  # fully polarized: g_j -> -delta_j0
        assert kern.coefficient(j) == pytest.approx(want, abs=1e-9)


def test_var_jx_approaches_independent_spins_at_high_temperature():
    spec = ChainSpec(gamma=0.8, field_ratio=0.6, sites=12)
    grid = np.geomspace(0.2, 2e4, 29)
    vals = np.array([correlations.var_jx(correlations.kernel(
        thermometry.ensemble(spec, float(t)))) for t in grid])
    gaps = np.abs(vals - 12.0)
    assert np.all(np.diff(gaps) < 1e-12)
    assert gaps[-1] < 1e-3  # correction falls off as 1/T


def test_var_jx_dominates_var_jz_for_positive_anisotropy():
    for gamma in (0.3, 0.7, 1.0):
        for f, T in ((0.0, 0.2), (0.8, 0.5), (1.5, 1.0)):
            ens = _ens(gamma=gamma, field_ratio=f, T=T)
            assert correlations.var_jx(correlations.kernel(ens)) >= correlations.var_jz(ens)


def test_per_site_var_jx_grows_with_anisotropy_at_zero_field():
    values = []
    for gamma in (0.05, 0.3, 1.0):
        ens = _ens(gamma=gamma, field_ratio=0.0, sites=50, T=0.4)
        values.append(correlations.var_jx(correlations.kernel(ens)) / 50)
    assert values[0] <= values[1] <= values[2]


def test_raw_var_jx_at_least_one():
    for gamma, f, T in ((1.0, 0.0, 0.05), (0.5, 1.5, 0.3), (0.0, 0.5, 1.0), (0.3, 1.0, 5.0)):
        ens = _ens(gamma=gamma, field_ratio=f, sites=20, T=T)
        assert correlations.var_jx(correlations.kernel(ens)) >= 1.0


def test_ferromagnetic_plateau_value():
    # deep in the ordered phase the collective moment locks to N^2
    ens = _ens(gamma=1.0, field_ratio=0.0, sites=20, T=0.01)
    assert correlations.var_jx(correlations.kernel(ens)) == pytest.approx(400.0, rel=1e-10)
