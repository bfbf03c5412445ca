import dataclasses
import math
import sys

import numpy as np
import pytest
from scipy.special import expit  # reference only; the package does not import scipy

from xythermo import correlations, oracle, thermometry
from xythermo.spectrum import ChainSpec


def _flat(sites=8):
    return ChainSpec(gamma=1.0, field_ratio=0.0, sites=sites)


def test_rejects_nonpositive_temperature():
    spec = _flat()
    for bad in (0.0, -0.3, -math.inf, math.nan):
        with pytest.raises(ValueError):
            thermometry.ensemble(spec, bad)


def test_occupations_limits():
    spec = ChainSpec(gamma=0.5, field_ratio=0.5, sites=8)
    hot = thermometry.ensemble(spec, 1e9)
    assert np.max(np.abs(hot.occupations - 0.5)) < 1e-8
    cold = thermometry.ensemble(spec, 1e-9)
    assert np.max(cold.occupations) < 1e-8
    mid = thermometry.ensemble(spec, 0.7)
    assert np.all(mid.occupations > 0.0) and np.all(mid.occupations < 0.5)
    assert len(mid.occupations) == 8


def _expit_grid():
    # a dense grid of reduced energies x = eps/T: 0, the bulk, the subnormal
    # results near x = 709.75, a few ulps either side of the overflow edge of
    # exp at log(DBL_MAX), beyond it, and inf
    edge = math.log(sys.float_info.max)
    ulps = [edge]
    for _ in range(20):
        ulps = [np.nextafter(ulps[0], -math.inf), *ulps, np.nextafter(ulps[-1], math.inf)]
    return np.concatenate((np.linspace(0.0, 40.0, 40_001), np.linspace(40.0, 800.0, 76_001),
                           np.linspace(708.0, 745.2, 20_001), ulps, [1e3, 1e300, math.inf]))


def test_occupations_equal_scipy_expit_bitwise():
    x = _expit_grid()
    got = thermometry._fermi_factors(x)
    assert np.array_equal(got, expit(-x))
    assert not np.signbit(got).any()
    # the subnormal range is reached, and past the overflow edge n is exactly 0
    assert 0.0 < got[x == 709.75][0] < sys.float_info.min
    assert np.all(got[x > math.log(sys.float_info.max) + 1e-12] == 0.0)


@pytest.mark.parametrize("temperature", (1e-3, 0.05, 0.3, 5.0, math.inf))
def test_ensemble_occupations_equal_scipy_expit_bitwise(temperature):
    for gamma, field in ((1.0, 0.5), (0.0, 2.0), (-0.7, 0.3), (1.0, 0.0)):
        for sites in (6, 50):
            spec = ChainSpec(gamma=gamma, field_ratio=field, sites=sites)
            ens = thermometry.ensemble(spec, temperature)
            want = expit(-(ens.modes.energies / temperature))
            assert np.array_equal(ens.occupations, want), (gamma, field, sites)


def test_occupations_reach_exactly_zero_once_exp_overflows():
    # eps/T = 3/1e-3 is far past log(DBL_MAX): the documented [0, 1/2] range
    ens = thermometry.ensemble(ChainSpec(gamma=1.0, field_ratio=0.5, sites=8), 1e-3)
    assert np.all(ens.occupations == 0.0)
    assert thermometry.snr_crb(ens) == 0.0


def test_cold_limit_ceiling_is_exactly_zero():
    # at T = 1e-300, or h/J = 1e300, (eps/T)^2 overflows where n(1-n) = 0, and
    # below T ~ 1e-81 T^4 underflows: both ceilings are exactly 0, with no
    # floating-point warning, and the terms of a live mode keep their bits
    for spec, T in ((_flat(), 1e-300), (ChainSpec(gamma=1.0, field_ratio=1e300, sites=8), 0.3),
                    (_flat(), 1e-100)):
        ens = thermometry.ensemble(spec, T)
        with np.errstate(all="raise"):
            assert thermometry.snr_crb(ens) == 0.0, (spec, T)
            assert thermometry.qfi(ens) == 0.0, (spec, T)
    ens = thermometry.ensemble(ChainSpec(gamma=0.5, field_ratio=0.5, sites=8), 0.3)
    x = ens.reduced_energies
    assert thermometry.snr_crb(ens) == float((x * x * ens.fluctuation_weights).sum())


def test_qfi_above_the_overflow_of_t4():
    # T^4 overflows above T ~ 1.2e77: the qfi is snr_crb / T / T there, 0 at
    # T = 1e100 and at T = inf, and 3.4e-200 where h/J = T = 1e100; where
    # T^4 is finite it keeps its bits
    spec = ChainSpec(gamma=1.0, field_ratio=0.5, sites=8)
    for T in (1e100, math.inf):
        assert thermometry.qfi(thermometry.ensemble(spec, T)) == 0.0, T
    ens = thermometry.ensemble(spec, 1e77)
    assert thermometry.qfi(ens) == thermometry.energy_variance(ens) / 1e77**4 > 0.0
    ens = thermometry.ensemble(ChainSpec(gamma=1.0, field_ratio=1e100, sites=8), 1e100)
    want = thermometry.energy_variance(ens) / 1e200 / 1e200
    assert thermometry.qfi(ens) == pytest.approx(want, rel=1e-14)
    assert 1e-201 < want < 1e-199


def test_flat_band_occupation_closed_form():
    ens = thermometry.ensemble(_flat(), 2.0)  # every mode at energy 2J, T = 2J
    assert np.allclose(ens.occupations, 1.0 / (1.0 + math.e), atol=1e-14)


def test_infinite_temperature_is_exact():
    ens = thermometry.ensemble(_flat(), math.inf)
    assert np.all(ens.occupations == 0.5)
    assert thermometry.energy_variance(ens) == pytest.approx(8.0 * 4.0 * 0.25)
    assert thermometry.qfi(ens) == 0.0
    assert thermometry.snr_crb(ens) == 0.0


def test_energy_variance_flat_band():
    for T in (0.2, 1.0, 3.0):
        ens = thermometry.ensemble(_flat(), T)
        n = 1.0 / (1.0 + math.exp(2.0 / T))
        assert thermometry.energy_variance(ens) == pytest.approx(8 * 4 * n * (1 - n), rel=1e-13)
    cold = thermometry.ensemble(ChainSpec(gamma=0.5, field_ratio=0.5, sites=8), 1e-9)
    assert thermometry.energy_variance(cold) == pytest.approx(0.0, abs=1e-12)


def test_energy_variance_matches_dense_reference():
    spec = ChainSpec(gamma=0.5, field_ratio=0.5, sites=8)
    sys = oracle.build(spec, oracle.MATCHED)
    got = thermometry.energy_variance(thermometry.ensemble(spec, 0.3))
    h1 = oracle.thermal_expectation(sys, 0.3, "H")
    h2 = oracle.thermal_expectation(sys, 0.3, "H2")
    assert got == pytest.approx(h2 - h1 * h1, rel=1e-9)


def test_qfi_flat_band_and_decay():
    for T in (0.5, 2.0):
        ens = thermometry.ensemble(_flat(), T)
        n = 1.0 / (1.0 + math.exp(2.0 / T))
        assert thermometry.qfi(ens) == pytest.approx(8 * (2.0 / T**2) ** 2 * n * (1 - n), rel=1e-12)
    big = thermometry.qfi(thermometry.ensemble(_flat(), 1e6))
    assert 0.0 < big < 1e-23  # ~ const/T^4


def test_qfi_additive_over_modes():
    spec = ChainSpec(gamma=0.3, field_ratio=1.2, sites=10)
    ens = thermometry.ensemble(spec, 0.4)
    per_mode = (ens.modes.energies / 0.4**2) ** 2 * ens.occupations * (1 - ens.occupations)
    assert thermometry.qfi(ens) == pytest.approx(float(np.sum(per_mode)), rel=1e-14)


def test_qfi_matches_dense_reference():
    spec = ChainSpec(gamma=0.3, field_ratio=1.2, sites=8)
    sys = oracle.build(spec, oracle.MATCHED)
    for T in (0.1, 0.4, 1.0):
        got = thermometry.qfi(thermometry.ensemble(spec, T))
        assert got == pytest.approx(oracle.oracle_qfi(sys, T), rel=1e-10)


def test_uncertainty_relation_saturates_by_construction():
    # (dH)^2 * (dT)^2 / T^4 = 1 with (dT)^2 = 1/qfi
    for gamma, f, T in ((1.0, 0.0, 0.2), (0.5, 1.5, 0.7), (0.0, 0.4, 1.3)):
        ens = thermometry.ensemble(ChainSpec(gamma=gamma, field_ratio=f, sites=8), T)
        lhs = thermometry.energy_variance(ens) / thermometry.qfi(ens) / T**4
        assert lhs == pytest.approx(1.0, abs=1e-12)


def test_snr_crb_flat_band_value():
    ens = thermometry.ensemble(_flat(), 0.2)
    n = 1.0 / (1.0 + math.exp(10.0))
    assert thermometry.snr_crb(ens) == pytest.approx(8 * 100 * n * (1 - n), rel=1e-12)


def test_snr_crb_equals_t2_qfi():
    ens = thermometry.ensemble(ChainSpec(gamma=0.6, field_ratio=0.9, sites=12), 0.35)
    assert thermometry.snr_crb(ens) == pytest.approx(0.35**2 * thermometry.qfi(ens), rel=1e-12)


def test_snr_crb_parameter_symmetries():
    base = ChainSpec(gamma=0.7, field_ratio=0.8, sites=12)
    ref = thermometry.snr_crb(thermometry.ensemble(base, 0.3))
    for g, f in ((0.7, -0.8), (-0.7, 0.8)):
        other = ChainSpec(gamma=g, field_ratio=f, sites=12)
        assert thermometry.snr_crb(thermometry.ensemble(other, 0.3)) == pytest.approx(ref, rel=1e-10)


def test_snr_crb_vanishes_at_both_extremes_and_is_unimodal():
    spec = ChainSpec(gamma=0.5, field_ratio=0.5, sites=12)
    grid = np.geomspace(1e-3, 1e4, 61)
    values = np.array([thermometry.snr_crb(thermometry.ensemble(spec, float(t))) for t in grid])
    assert values[0] < 1e-10 and values[-1] < 1e-6  # tails fall off as 1/T^2
    assert np.all(values >= 0.0)
    rises = np.diff(values) > 0
    # monotone up to the peak, monotone down after: exactly one switch
    switches = int(np.sum(rises[:-1] != rises[1:]))
    assert switches == 1


def test_reduced_energies_and_fluctuation_weights():
    ens = thermometry.ensemble(ChainSpec(gamma=0.4, field_ratio=1.1, sites=8), 0.5)
    assert np.allclose(ens.reduced_energies, ens.modes.energies / 0.5, atol=1e-15)
    w = ens.fluctuation_weights
    assert np.allclose(w, ens.occupations * (1 - ens.occupations), atol=1e-15)
    # shared read-only by every reader
    assert not w.flags.writeable and not ens.reduced_energies.flags.writeable
    # t = 1 - 2 n and its slope T dt/dT, bit for bit the formulas they replace
    assert np.array_equal(ens.polarizations, 1.0 - 2.0 * ens.occupations)
    assert np.array_equal(ens.polarization_slopes, -2.0 * w * ens.reduced_energies)


def _record_arrays(record):
    # every array field of a record, a tuple field's arrays under field[i]
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if isinstance(value, np.ndarray):
            yield field.name, value
        elif isinstance(value, tuple):
            yield from ((f"{field.name}[{i}]", x) for i, x in enumerate(value))


@pytest.mark.parametrize("temperature", (0.3, math.inf))
def test_mode_table_and_ensemble_arrays_refuse_writes(temperature):
    ens = thermometry.ensemble(ChainSpec(gamma=0.4, field_ratio=1.1, sites=8), temperature)
    arrays = dict(_record_arrays(ens.modes)) | dict(_record_arrays(ens))
    assert sorted(arrays) == sorted([
        "momenta", "energies", "angles", "rotation[0]", "rotation[1]", "double_angle[0]",
        "double_angle[1]", "occupations", "reduced_energies", "fluctuation_weights",
        "polarizations", "polarization_slopes"])
    for name, x in arrays.items():
        assert x.shape == (8,) and not x.flags.writeable, name
        with pytest.raises(ValueError):
            x[0] = 0.25


@pytest.mark.parametrize("field, temperature", ((1e10, 1e-300), (1.0, 1e-308), (1e308, 0.3)))
def test_polarization_slopes_are_zero_where_the_reduced_energy_overflows(field, temperature):
    # eps/T leaves the float range at every mode (h/J = 1e10, T = 1e-300),
    # at some (h/J = 1, T = 1e-308, where eps is 1.53 or 3.70 at N = 4), or
    # eps itself does (h/J = 1e308): each such x is inf, and there, as at
    # every mode so cold, n(1 - n) is 0.  Every slope T dt/dT must be an
    # exact 0, not inf * 0 = nan, and the mean's slope with it.  An energy
    # past the float range is inf, which the mode table gives without a
    # warning; an invalid operation on the way raises
    with np.errstate(over="ignore", invalid="raise"):
        ens = thermometry.ensemble(ChainSpec(gamma=1.0, field_ratio=field, sites=4), temperature)
        slope = correlations.mean_jz_slope(ens)
    assert np.any(np.isinf(ens.reduced_energies)) and np.all(ens.fluctuation_weights == 0.0)
    assert np.all(ens.polarization_slopes == 0.0)
    assert slope == 0.0
