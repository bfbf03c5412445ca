import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from xythermo import correlations, faraday, minors, oracle, thermometry
from xythermo.faraday import FaradaySetup, NoiseUnderflowError, ReadoutPoint
from xythermo.spectrum import ChainSpec


def _ens(gamma=1.0, field_ratio=0.5, sites=8, T=0.3):
    return thermometry.ensemble(ChainSpec(gamma=gamma, field_ratio=field_ratio, sites=sites), T)


def test_setup_validation():
    with pytest.raises(ValueError):
        FaradaySetup(kappa=0.0)
    with pytest.raises(ValueError):
        FaradaySetup(kappa=-2.0)
    with pytest.raises(ValueError):
        FaradaySetup(kappa=math.inf)
    # kappa^2 enters the output variance and the shot-noise floor: it must
    # neither overflow nor underflow, to 0 or to a subnormal float (1e-320)
    for kappa in (1e200, 1.5e154, 1e-200, 1e-160, math.nan):
        with pytest.raises(ValueError):
            FaradaySetup(kappa=kappa)
    assert ReadoutPoint(_ens(), FaradaySetup(kappa=1e154)).output_variance > 0.0
    with pytest.raises(ValueError):
        FaradaySetup(modulation="quarter")
    # the coherent input's shot noise is a constant, not a setting
    with pytest.raises(TypeError):
        FaradaySetup(input_quadrature_variance=1.0)
    assert faraday.INPUT_QUADRATURE_VARIANCE == 0.5


def test_output_statistics_at_infinite_temperature():
    point = ReadoutPoint(_ens(T=math.inf), FaradaySetup(kappa=1.0))
    assert point.output_mean == 0.0
    assert point.output_variance == pytest.approx(1.5, abs=1e-12)  # 1/2 + N/N


def test_output_statistics_saturated_paramagnet():
    point = ReadoutPoint(_ens(gamma=0.0, field_ratio=1e3, T=0.01), FaradaySetup(kappa=1.0))
    assert point.output_mean == pytest.approx(-math.sqrt(8.0), abs=1e-9)
    assert point.output_variance == pytest.approx(0.5, abs=1e-9)


def test_output_statistics_match_dense_reference():
    ens = _ens(gamma=0.6, field_ratio=0.9, T=0.4)
    sys = oracle.build(ens.spec, oracle.MATCHED)
    point = ReadoutPoint(ens, FaradaySetup(kappa=2.0))
    want_mean = -(2.0 / math.sqrt(8.0)) * oracle.oracle_mean_jz(sys, 0.4)
    want_var = 0.5 + (4.0 / 8.0) * oracle.oracle_var_jz(sys, 0.4)
    assert point.output_mean == pytest.approx(want_mean, rel=1e-10)
    assert point.output_variance == pytest.approx(want_var, rel=1e-10)


def test_quadrature_maps_are_affine():
    # round-trip the atomic moments of randomized points through the
    # point's linear maps
    rng = np.random.default_rng(5)
    for _ in range(20):
        kappa = float(rng.uniform(0.5, 10.0))
        n = int(rng.choice([8, 50, 200]))
        ens = _ens(gamma=float(rng.uniform(-1.0, 1.0)), field_ratio=float(rng.uniform(0.0, 2.0)),
                   sites=n, T=float(10.0 ** rng.uniform(-1.3, 0.7)))
        point = ReadoutPoint(ens, FaradaySetup(kappa=kappa))
        mz, vz = point.mean_jz, point.var_jz
        x = point.output_mean
        assert mz == pytest.approx(-x * math.sqrt(n) / kappa, rel=1e-12)
        v = point.output_variance
        assert vz == pytest.approx((v - 0.5) * n / kappa**2, rel=1e-12, abs=1e-12)


def _counting(monkeypatch, *fns):
    # wraps each function wherever the modules a point calls hold it by name
    calls = collections.Counter()
    for fn in fns:
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)
        for module in (correlations, faraday, minors):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_point_reading_every_member_builds_one_kernel_and_one_quad_sum(monkeypatch):
    calls = _counting(monkeypatch, correlations.kernel, minors._gap_class_sum)
    point = ReadoutPoint(_ens(gamma=0.6, field_ratio=0.9, sites=10, T=0.4), FaradaySetup())
    members = ("snr_crb", "snr_varjx", "snr_meanjz", "var_jx_slope", "mean_jz_slope",
               "output_mean", "output_variance", "var_jx_squared")
    first = [getattr(point, name) for name in members]
    assert [getattr(point, name) for name in members] == first
    assert calls == {"kernel": 1, "_gap_class_sum": 1}


def test_point_is_read_only_and_computes_each_member_once(monkeypatch):
    # a reassigned ensemble would leave the members read from the old one
    # in place: at (1, 0.5), N = 8, snr_crb read at T = 0.3 is 0.8101 and
    # the T = 3 ensemble's own is 0.9323
    calls = _counting(monkeypatch, correlations.kernel, correlations.mean_jz,
                      correlations.var_jz, thermometry.snr_crb)
    point = ReadoutPoint(_ens(T=0.3), FaradaySetup())
    ceiling = point.snr_crb
    for name, value in (("ensemble", _ens(T=3.0)), ("setup", FaradaySetup(kappa=3.0)),
                        ("snr_crb", 1.0), ("mean_jz", 0.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(point, name, value)
    assert point.snr_crb == ceiling == thermometry.snr_crb(_ens(T=0.3))
    for _ in range(2):
        point.snr_meanjz, point.output_mean, point.output_variance, point.var_jx
    assert calls == {"kernel": 1, "mean_jz": 1, "var_jz": 1, "snr_crb": 1}


def test_point_reading_only_jz_members_builds_no_kernel(monkeypatch):
    built = []
    init = correlations.CorrelationKernel.__init__
    monkeypatch.setattr(correlations.CorrelationKernel, "__init__",
                        lambda self, *args: built.append(1) or init(self, *args))
    for setup in (FaradaySetup(), FaradaySetup(modulation="half", include_shot_noise=True)):
        point = ReadoutPoint(_ens(gamma=0.6, field_ratio=0.9, sites=10, T=0.4), setup)
        values = (point.output_mean, point.output_variance, point.snr_crb, point.snr_meanjz)
        assert all(math.isfinite(v) for v in values)
    assert built == []


def _readout_snrs(ens, setup):
    # the two readouts of one point: (snr_meanjz, snr_varjx)
    point = ReadoutPoint(ens, setup)
    return point.snr_meanjz, point.snr_varjx


def test_snr_exact_at_temperature_extremes():
    setup = FaradaySetup()
    cold = _ens(T=1e-4)
    for snr in _readout_snrs(cold, setup):
        assert 0.0 <= snr <= thermometry.snr_crb(cold)
    assert _readout_snrs(_ens(T=math.inf), setup) == (0.0, 0.0)


def test_varjx_snr_where_every_pair_matrix_is_singular():
    # gamma = -1, h/J = 0: all pair determinants vanish at every T
    setup = FaradaySetup()
    for sites in (10, 50):
        for T in (0.05, 0.3, 5.0):
            ens = _ens(gamma=-1.0, field_ratio=0.0, sites=sites, T=T)
            snr = ReadoutPoint(ens, setup).snr_varjx
            assert math.isfinite(snr)
            assert 0.0 <= snr <= thermometry.snr_crb(ens)


def test_snr_noise_underflow_on_saturated_state():
    ens = _ens(gamma=0.0, field_ratio=1e3, T=0.01)
    with pytest.raises(NoiseUnderflowError):
        ReadoutPoint(ens, FaradaySetup()).snr_meanjz
    assert issubclass(NoiseUnderflowError, ArithmeticError)


def test_snr_vanishes_at_very_high_temperature():
    ens = _ens(T=1e5)
    setup = FaradaySetup()
    for snr in _readout_snrs(ens, setup):
        assert snr < 1e-6


def test_snr_below_cramer_rao_ceiling():
    setup = FaradaySetup()
    for gamma, f in ((1.0, 0.0), (0.5, 0.8), (0.0, 1.5), (0.8, 1.2)):
        for T in (0.15, 0.4, 1.1):
            ens = _ens(gamma=gamma, field_ratio=f, sites=10, T=T)
            ceiling = thermometry.snr_crb(ens)
            for snr in _readout_snrs(ens, setup):
                assert snr <= ceiling * (1.0 + 1e-3)


SETUPS = tuple(FaradaySetup(modulation=modulation, include_shot_noise=noisy)
               for modulation in ("uniform", "half") for noisy in (False, True))


@seed(2029)
@settings(max_examples=200, deadline=None, database=None)
@given(half_sites=st.integers(2, 15), gamma=st.floats(-1.0, 1.0),
       field=st.floats(-2.0, 2.0), log10_T=st.floats(math.log10(0.05), math.log10(5.0)))
def test_variances_are_non_negative_and_snrs_below_the_ceiling(half_sites, gamma, field,
                                                               log10_T):
    # at any point and either probe, with or without shot noise: each SNR is
    # refused or lies in [0, snr_crb (1 + 1e-3)], the slack of validate and
    # of criterion 7
    ens = _ens(gamma=gamma, field_ratio=field, sites=2 * half_sites, T=10.0 ** log10_T)
    for setup in SETUPS:
        point = ReadoutPoint(ens, setup)
        assert point.var_jx >= 0.0 and point.var_jz >= 0.0, setup
        ceiling = point.snr_crb * (1.0 + 1e-3)
        for name in ("snr_varjx", "snr_meanjz"):
            try:
                snr = getattr(point, name)
            except NoiseUnderflowError:
                continue
            assert 0.0 <= snr <= ceiling, (name, setup)


def test_shot_noise_never_helps_and_vanishes_at_large_coupling():
    ens = _ens(gamma=0.4, field_ratio=1.3, T=0.5)
    for kappa in (1.0, 2.0, 5.0):
        ideal = ReadoutPoint(ens, FaradaySetup(kappa=kappa)).snr_meanjz
        noisy = ReadoutPoint(ens, FaradaySetup(kappa=kappa, include_shot_noise=True)).snr_meanjz
        assert noisy <= ideal
    ideal = ReadoutPoint(ens, FaradaySetup(kappa=1e4)).snr_meanjz
    noisy = ReadoutPoint(ens, FaradaySetup(kappa=1e4, include_shot_noise=True)).snr_meanjz
    assert noisy == pytest.approx(ideal, rel=1e-6)


def test_regime_preference_matches_phases():
    setup = FaradaySetup()
    for T in (0.1, 0.2, 0.4):
        mz, vx = _readout_snrs(_ens(gamma=1.0, field_ratio=0.0, sites=12, T=T), setup)
        assert vx > mz
        mz, vx = _readout_snrs(_ens(gamma=0.0, field_ratio=1.5, sites=12, T=T), setup)
        assert mz > vx


def test_snr_against_independent_derivative_of_dense_moments():
    """Slope and noise from the dense reference, the slope differentiated exactly.

    With Boltzmann weights p_i, dp_i/dT = p_i (E_i - <E>)/T^2, so
    d<A>/dT = sum_i dp_i A_ii with A_ii the eigenbasis diagonal of A.
    """
    spec = ChainSpec(gamma=0.5, field_ratio=0.8, sites=8)
    T = 0.4
    sys = oracle.build(spec, oracle.MATCHED)
    setup = FaradaySetup()
    point = ReadoutPoint(thermometry.ensemble(spec, T), setup)

    e, vecs = sys.eigenvalues, sys.eigenvectors
    p = np.exp(-(e - e[0]) / T)
    p /= p.sum()
    dp = p * (e - p @ e) / T**2
    # J_z of basis state b: +1 per up spin (bit 0), -1 per down spin (bit 1)
    jz = np.array([8.0 - 2.0 * bin(b).count("1") for b in range(2**8)])

    slope = dp @ ((vecs**2).T @ jz)
    want = slope**2 * T**2 / oracle.oracle_var_jz(sys, T)
    assert point.snr_meanjz == pytest.approx(want, rel=1e-9)

    jx = vecs.T @ oracle.collective_x(8) @ vecs
    slope = dp @ np.diag(jx @ jx)
    noise = oracle.oracle_fourth_jx(sys, T) - oracle.oracle_var_jx(sys, T) ** 2
    assert point.snr_varjx == pytest.approx(slope**2 * T**2 / noise, rel=1e-9)


def test_sensitivity_report_bundles_and_normalizes():
    # one point bundles the ceiling and both readouts, each the slope^2 over
    # noise that the standalone functions give
    spec = ChainSpec(gamma=1.0, field_ratio=0.2, sites=8)
    setup = FaradaySetup()
    ens = thermometry.ensemble(spec, 0.35)
    point = ReadoutPoint(ens, setup)
    kern = correlations.kernel(ens)
    noise = correlations.fourth_moment_from_kernel(kern) - correlations.var_jx(kern) ** 2
    assert point.snr_crb == pytest.approx(thermometry.snr_crb(ens), rel=1e-12)
    assert point.snr_varjx == pytest.approx(
        correlations.var_jx_slope(kern) ** 2 / noise, rel=1e-12)
    assert point.snr_meanjz == pytest.approx(
        correlations.mean_jz_slope(ens) ** 2 / correlations.var_jz(ens), rel=1e-12)


def test_report_snrs_vanish_toward_zero_temperature():
    spec = ChainSpec(gamma=1.0, field_ratio=0.3, sites=8)
    point = ReadoutPoint(thermometry.ensemble(spec, 0.02), FaradaySetup())
    assert point.snr_crb < 1e-15
    assert point.snr_varjx < 1e-10
    assert point.snr_meanjz < 1e-10
