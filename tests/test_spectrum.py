import math

import numpy as np
import pytest

from xythermo import oracle, spectrum
from xythermo.spectrum import (
    ChainSpec,
    dispersion,
    energy_gap,
    factorization_field,
    mode_table,
    momentum_grid,
)


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(gamma=1.2, field_ratio=0.0, sites=8)
    with pytest.raises(ValueError):
        ChainSpec(gamma=0.5, field_ratio=0.0, sites=5)
    with pytest.raises(ValueError):
        ChainSpec(gamma=0.5, field_ratio=0.0, sites=2)
    with pytest.raises(ValueError):
        ChainSpec(gamma=0.5, field_ratio=math.nan, sites=8)
    for sites in (True, 8.0, np.float64(8.0), np.int64(7), np.int64(2), "8"):
        with pytest.raises(ValueError, match="sites must be an even integer >= 4"):
            ChainSpec(gamma=0.5, field_ratio=0.0, sites=sites)
    # any integral value that is not a bool is accepted and stored as an int
    for sites in (np.int64(8), np.int32(8), np.uint8(8)):
        spec = ChainSpec(1.0, 0.5, sites)
        assert type(spec.sites) is int and spec.sites == 8
        assert spec == ChainSpec(1.0, 0.5, 8) and repr(spec) == repr(ChainSpec(1.0, 0.5, 8))


def test_dispersion_point_values():
    ising = ChainSpec(gamma=1.0, field_ratio=0.0, sites=8)
    for k in (-2.0, 0.3, math.pi):
        assert dispersion(ising, k) == pytest.approx(2.0, abs=1e-14)
    tilted = ChainSpec(gamma=0.33, field_ratio=0.75, sites=8)
    assert dispersion(tilted, 0.0) == pytest.approx(2.0 * abs(1.0 - 0.75), abs=1e-14)
    xx = ChainSpec(gamma=0.0, field_ratio=0.5, sites=8)
    assert dispersion(xx, math.pi / 3) == pytest.approx(0.0, abs=1e-14)


def test_dispersion_even_in_k():
    spec = ChainSpec(gamma=0.4, field_ratio=1.3, sites=8)
    ks = np.linspace(0.0, math.pi, 23)
    assert np.allclose(dispersion(spec, ks), dispersion(spec, -ks), atol=1e-15)


def test_mode_table_grid():
    mt = mode_table(ChainSpec(gamma=1.0, field_ratio=0.0, sites=4))
    want = np.array([-3 * math.pi / 4, -math.pi / 4, math.pi / 4, 3 * math.pi / 4])
    assert np.allclose(np.sort(mt.momenta), want, atol=1e-15)
    assert np.allclose(mt.energies, 2.0, atol=1e-14)  # flat Ising band
    assert len(mt.momenta) == len(mt.energies) == len(mt.angles) == 4


def test_mode_energies_nonnegative_and_k_even():
    mt = mode_table(ChainSpec(gamma=-0.8, field_ratio=1.7, sites=10))
    assert np.all(mt.energies >= 0.0)
    # multiset symmetric under k -> -k
    assert np.allclose(np.sort(mt.energies), np.sort(mt.energies[::-1]), atol=1e-15)


def test_angles_diagonalize_within_first_quadrant_for_positive_gamma():
    mt = mode_table(ChainSpec(gamma=0.5, field_ratio=0.5, sites=8))
    pos = mt.momenta > 0
    assert np.all(mt.angles[pos] >= 0.0) and np.all(mt.angles[pos] <= math.pi / 2)
    # odd in k
    assert np.allclose(mt.angles[pos], -mt.angles[~pos][::-1], atol=1e-15)


@pytest.mark.parametrize("gamma,field_ratio", [(1.0, 0.8), (0.5, 0.5), (-0.7, 1.4), (0.0, 0.3)])
def test_energy_multiset_symmetries(gamma, field_ratio):
    base = np.sort(mode_table(ChainSpec(gamma=gamma, field_ratio=field_ratio, sites=12)).energies)
    for g, f in ((gamma, -field_ratio), (-gamma, field_ratio)):
        other = np.sort(mode_table(ChainSpec(gamma=g, field_ratio=f, sites=12)).energies)
        assert np.allclose(base, other, atol=1e-12)


def test_energy_gap_closed_forms():
    assert energy_gap(ChainSpec(gamma=1.0, field_ratio=1.0, sites=8)) == 0.0
    assert energy_gap(ChainSpec(gamma=0.0, field_ratio=0.3, sites=8)) == 0.0
    assert energy_gap(ChainSpec(gamma=1.0, field_ratio=0.0, sites=8)) == pytest.approx(2.0)
    # far side of the transition the gap is set by the k=0 mode
    assert energy_gap(ChainSpec(gamma=0.6, field_ratio=1.8, sites=8)) == pytest.approx(1.6)


def test_energy_gap_lower_bounds_continuum_band():
    for gamma, field_ratio in ((0.45, 0.9), (0.2, 0.97), (0.9, 1.1), (0.35, 0.6)):
        spec = ChainSpec(gamma=gamma, field_ratio=field_ratio, sites=8)
        ks = np.linspace(0.0, math.pi, 20001)
        band_min = float(np.min(dispersion(spec, ks)))
        gap = energy_gap(spec)
        assert gap <= band_min + 1e-12
        assert gap == pytest.approx(band_min, abs=1e-7)


def test_gap_positive_off_critical():
    assert energy_gap(ChainSpec(gamma=0.5, field_ratio=0.5, sites=8)) > 0.0
    assert energy_gap(ChainSpec(gamma=0.0, field_ratio=1.5, sites=8)) > 0.0


def test_factorization_field_values():
    assert factorization_field(0.0) == pytest.approx(1.0)
    assert factorization_field(1.0) == pytest.approx(0.0)
    assert factorization_field(0.6) == pytest.approx(0.8)
    # the factorization line stays inside the gapped region
    for gamma in (0.3, 0.6, 0.9):
        spec = ChainSpec(gamma=gamma, field_ratio=factorization_field(gamma), sites=8)
        assert energy_gap(spec) > 0.0


def test_mode_energies_match_quadratic_form():
    for gamma, field_ratio in ((0.5, 0.5), (1.0, 1.5), (-0.4, 0.0)):
        spec = ChainSpec(gamma=gamma, field_ratio=field_ratio, sites=8)
        got = np.sort(mode_table(spec).energies)
        want = oracle.single_particle_energies(spec)
        scale = max(1.0, float(want[-1]))
        assert np.max(np.abs(got - want)) / scale < 1e-12


# the parameter points of the kernel tests, plus a generic one
MODE_SPECS = ((1.0, 0.5), (1.0, 2.0), (0.0, 0.5), (-0.5, 0.5), (-0.7, 0.3), (-1.0, 0.0),
              (0.0, 2.0), (1.0, 1.0), (0.6, 0.8))


def _fresh_rotation(spec, k):
    # (cos theta, sin theta) by the half-angle formula on freshly built trig
    a = np.cos(k) - spec.field_ratio
    b = spec.gamma * np.sin(k)
    r = np.hypot(a, b)
    large = np.sqrt(0.5 + 0.5 * np.divide(np.abs(a), r, out=np.ones_like(r), where=r > 0))
    small = 0.5 * np.divide(np.abs(b), r, out=np.zeros_like(r), where=r > 0) / large
    return np.where(a >= 0, large, small), np.copysign(np.where(a >= 0, small, large), b)


@pytest.mark.parametrize("sites", (4, 6, 50, 300))
def test_mode_table_equals_fresh_trig_formulas_bitwise(sites):
    # the memoized cos k and sin k give the energies of dispersion() and the
    # angles, rotation and double angle of the formulas on np.cos(k),
    # np.sin(k), to the last bit
    k = momentum_grid(sites)
    for gamma, field in MODE_SPECS:
        spec = ChainSpec(gamma=gamma, field_ratio=field, sites=sites)
        mt = mode_table(spec)
        assert np.array_equal(mt.momenta, k)
        assert np.array_equal(mt.energies, dispersion(spec, k))
        angles = 0.5 * np.arctan2(gamma * np.sin(k), np.cos(k) - field)
        assert np.array_equal(mt.angles, angles)
        for got, want in zip(mt.rotation, _fresh_rotation(spec, k)):
            assert np.array_equal(got, want)
        for got, want in zip(mt.double_angle, (np.cos(2.0 * angles), np.sin(2.0 * angles))):
            assert np.array_equal(got, want)


def test_mode_table_derived_arrays_are_computed_once():
    mt = mode_table(ChainSpec(gamma=0.5, field_ratio=0.5, sites=8))
    assert mt.rotation is mt.rotation
    assert mt.double_angle is mt.double_angle


def test_grid_memo_is_read_only_and_follows_alternating_ring_sizes():
    spectrum._grid_trig.cache_clear()
    for n in (50, 300, 50, 8):
        mt = mode_table(ChainSpec(gamma=0.5, field_ratio=0.5, sites=n))
        k, cos_k, sin_k = spectrum._grid_trig(n)
        assert mt.momenta is k and np.array_equal(k, momentum_grid(n))
        assert np.array_equal(cos_k, np.cos(k)) and np.array_equal(sin_k, np.sin(k))
        assert spectrum._grid_trig.cache_info().currsize == 1
        for x in (k, cos_k, sin_k):
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[0] = 1.0
    assert spectrum._grid_trig.cache_info().misses == 4
