"""Checks on the dense brute-force reference implementation itself.

Everything else in the test suite leans on this module, so it is validated
against first principles only: operator algebra, closed-form spectra, and
limits that need no numerics.
"""
import ast

import numpy as np
import pytest

from xythermo import oracle, spectrum
from xythermo.spectrum import ChainSpec, mode_table


def _spec(gamma=0.7, field_ratio=0.4, sites=6):
    return ChainSpec(gamma=gamma, field_ratio=field_ratio, sites=sites)


@pytest.mark.parametrize("sector", [oracle.PHYSICAL, oracle.MATCHED])
def test_hamiltonian_real_symmetric(sector):
    ham = oracle.hamiltonian(_spec(), sector)
    assert ham.dtype == np.float64
    assert np.max(np.abs(ham - ham.T)) < 1e-14


def test_ising_zero_field_spectrum_is_classical():
    # h=0, gamma=1: only the bond term survives; eigenvalues count satisfied
    # bonds, and the ring constraint keeps the violation count even
    sys = oracle.build(_spec(gamma=1.0, field_ratio=0.0, sites=4), oracle.PHYSICAL)
    levels = sorted(set(np.round(sys.eigenvalues, 10)))
    assert levels == [-4.0, 0.0, 4.0]


@pytest.mark.parametrize("gamma,field_ratio", [(1.0, 0.0), (0.7, 0.4), (0.3, 1.5)])
def test_matched_sector_spectrum_is_free(gamma, field_ratio):
    spec = _spec(gamma=gamma, field_ratio=field_ratio, sites=6)
    sys = oracle.build(spec, oracle.MATCHED)
    free = oracle.free_spectrum(mode_table(spec).energies)
    assert np.max(np.abs(sys.eigenvalues - free)) < 1e-9


def test_ground_energy_equals_mode_sum():
    spec = _spec(gamma=1.0, field_ratio=0.0, sites=4)
    sys = oracle.build(spec, oracle.MATCHED)
    mt = mode_table(spec)
    assert sys.eigenvalues[0] == pytest.approx(-0.5 * float(np.sum(mt.energies)), abs=1e-12)


def test_field_sign_symmetry():
    up = oracle.build(_spec(field_ratio=0.8), oracle.PHYSICAL)
    down = oracle.build(_spec(field_ratio=-0.8), oracle.PHYSICAL)
    assert np.allclose(up.eigenvalues, down.eigenvalues, atol=1e-10)


def test_thermal_expectation_identity_and_traceless_h():
    sys = oracle.build(_spec(), oracle.PHYSICAL)
    eye = np.ones(2 ** 6)
    assert oracle.thermal_expectation(sys, 0.9, np.diag(eye)) == pytest.approx(1.0, abs=1e-12)
    # H is a sum of Pauli strings, hence traceless; at very large T the
    # thermal mean approaches Tr(H)/2^N = 0
    assert abs(oracle.thermal_expectation(sys, 1e9, "H")) < 1e-6


def test_collective_x_mean_vanishes():
    sys = oracle.build(_spec(gamma=0.9, field_ratio=0.6), oracle.PHYSICAL)
    jx = oracle.collective_x(sys.spec.sites)
    assert abs(oracle.thermal_expectation(sys, 0.3, jx)) < 1e-12


def test_large_field_ground_state_polarized():
    spec = _spec(gamma=0.0, field_ratio=2.0, sites=4)
    sys = oracle.build(spec, oracle.PHYSICAL)
    assert sys.eigenvalues[1] - sys.eigenvalues[0] > 1.0  # nondegenerate
    assert oracle.oracle_mean_jz(sys, 1e-3) == pytest.approx(4.0, abs=1e-9)


def test_infinite_temperature_contractions_vanish():
    sys = oracle.build(_spec(), oracle.MATCHED)
    worst = max(abs(oracle.string_contraction(sys, 1e9, 0, j)) for j in range(6))
    assert worst < 1e-6


def test_build_rejects_out_of_range_sizes():
    with pytest.raises(ValueError):
        oracle.build(ChainSpec(gamma=0.5, field_ratio=0.5, sites=14), oracle.MATCHED)
    with pytest.raises(ValueError):
        oracle.build(ChainSpec(gamma=0.5, field_ratio=0.5, sites=7), oracle.MATCHED)
    with pytest.raises(ValueError):
        oracle.build(_spec(), "twisted")


def test_single_particle_energies_match_dispersion():
    spec = _spec(gamma=0.5, field_ratio=0.5, sites=8)
    mt = mode_table(spec)
    got = oracle.single_particle_energies(spec)
    assert np.max(np.abs(np.sort(mt.energies) - got)) < 1e-12


def test_oracle_imports_nothing_from_correlations():
    # a weight or formula shared with the Wick route would cancel out of
    # every comparison against this reference
    with open(oracle.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    assert not [name for name in imported if "correlations" in name.split(".")]


def test_oracle_binds_only_chain_spec_from_spectrum():
    # free_spectrum is handed the mode energies: a mode table or dispersion
    # built here would be the route under test checking itself
    bound = [name for name, value in vars(oracle).items()
             if value is spectrum or getattr(value, "__module__", None) == spectrum.__name__]
    assert bound == ["ChainSpec"]
    with open(oracle.__file__) as fh:
        tree = ast.parse(fh.read())
    taken = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("spectrum")
             for alias in node.names]
    assert taken == ["ChainSpec"]  # a function-local import included
