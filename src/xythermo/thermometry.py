"""Thermal occupations and temperature-estimation bounds.

For a thermal state of the free-fermion solution, the quantum Fisher
information for temperature is the energy variance over T^4, and the
corresponding Cramer-Rao bound caps the signal-to-noise ratio (T/dT)^2 of
any temperature estimate at snr_crb = T^2 * qfi.  Everything here is a mode
sum, exact at any N.  The Fermi factors come from libm's exp, one mode at a
time (see ensemble), so this module needs numpy alone.

Temperature is dimensionless throughout: the ``temperature`` argument means
T/J with k_B = 1.  ``temperature = math.inf`` is accepted and gives the
exact maximally-mixed values (every occupation exactly 1/2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import ChainSpec, ModeTable, _read_only, mode_table

__all__ = ["ThermalEnsemble", "ensemble", "energy_variance", "qfi", "snr_crb"]


@dataclass(frozen=True, eq=False)
class ThermalEnsemble:
    """A chain at fixed temperature with its per-mode thermal arrays.

    ``occupations`` are the Fermi factors n_k = 1/(1 + exp(eps_k/T)), one per
    mode, each in [0, 1/2] (the upper bound is attained only for zero-energy
    modes or infinite temperature, and the lower one once exp(eps_k/T)
    overflows, at eps_k/T just above log(DBL_MAX) = 709.78).
    ``reduced_energies`` are eps_k/T, the only combination thermal
    quantities depend on; ``fluctuation_weights`` are n_k(1 - n_k), stable
    down to occupations ~ 1e-300; ``polarizations`` are t_k = 1 - 2 n_k, and
    ``polarization_slopes`` their T dt_k/dT = -2 n_k(1 - n_k) eps_k/T,
    exactly 0 at T = inf and 0 (not inf * 0) once n_k(1 - n_k) underflows
    at low T.  ensemble() builds every array, read-only, and every mode sum
    reads them from here.
    """

    spec: ChainSpec
    temperature: float  # units of J
    modes: ModeTable
    occupations: np.ndarray
    reduced_energies: np.ndarray
    fluctuation_weights: np.ndarray
    polarizations: np.ndarray
    polarization_slopes: np.ndarray


def ensemble(spec: ChainSpec, temperature: float) -> ThermalEnsemble:
    """Thermal ensemble of a chain at temperature T/J > 0 (inf allowed)."""
    if not temperature > 0:
        raise ValueError(f"temperature must be > 0 (in units of J), got {temperature}")
    modes = mode_table(spec)
    # n_k = 1/(1 + e^x) from libm's exp (see _fermi_factors): exactly 0 once
    # e^x overflows, and exactly 1/2 at temperature = inf, where x = eps/inf = 0
    x = modes.energies / temperature
    n = _fermi_factors(x)
    weights = n * (1.0 - n)
    t, slopes = 1.0 - 2.0 * n, -2.0 * weights * x
    _read_only(n, x, weights, t, slopes)
    return ThermalEnsemble(spec=spec, temperature=temperature, modes=modes, occupations=n,
                           reduced_energies=x, fluctuation_weights=weights,
                           polarizations=t, polarization_slopes=slopes)


def _fermi_factors(x: np.ndarray) -> np.ndarray:
    # 1/(1 + e^x) with e^x from libm's exp, one element at a time: bit for bit
    # what scipy.special.expit(-x) gives, since + and / are correctly rounded
    # in numpy as in C, and 0 where e^x overflows (x above log(DBL_MAX)),
    # which Python reports by raising.  np.exp is not used: its SIMD code
    # differs from libm in the last bit for a few per cent of arguments, and
    # the cancellations of the cold readouts amplify that
    values = x.tolist()
    try:
        e = np.fromiter(map(math.exp, values), float, len(values))
    except OverflowError:
        e = np.fromiter(map(_exp_or_inf, values), float, len(values))
    return 1.0 / (1.0 + e)


def _exp_or_inf(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _fluctuation_sum(ens: ThermalEnsemble, x: np.ndarray) -> float:
    # sum_k x_k^2 n_k(1 - n_k), with x_k read as 0 wherever n_k(1 - n_k) is 0,
    # where x_k^2 may overflow (inf * 0 would be nan): those terms are an
    # exact 0, and every other term, and the order of the sum, is that of
    # the plain product.  Zeroing x first needs no floating-point error state
    weights = ens.fluctuation_weights
    x = np.where(weights, x, 0.0)
    return float((x * x * weights).sum())


def energy_variance(ens: ThermalEnsemble) -> float:
    """<H^2> - <H>^2 = sum_k eps_k^2 n_k (1 - n_k), in squared energy units."""
    return _fluctuation_sum(ens, ens.modes.energies)


def qfi(ens: ThermalEnsemble) -> float:
    """Quantum Fisher information for temperature, in units of 1/J^2.

    Equals energy_variance / T^4 and is additive over modes.  Decays to zero
    at both temperature extremes for gapped chains.  Exactly 0 where the
    energy variance is, as below T ~ 1e-81, where T^4 underflows.
    """
    variance = energy_variance(ens)
    return variance / ens.temperature**4 if variance else 0.0


def snr_crb(ens: ThermalEnsemble) -> float:
    """Cramer-Rao ceiling on (T/dT)^2 for a single-shot measurement.

    Computed as sum_k (eps_k/T)^2 n_k(1-n_k) rather than T^2 * qfi so that
    temperature = inf yields an exact 0 instead of inf * 0.  A mode whose
    n_k(1-n_k) is 0 adds an exact 0 too, also where (eps_k/T)^2 overflows
    (T = 1e-300, or h/J = 1e300).
    """
    return _fluctuation_sum(ens, ens.reduced_energies)
