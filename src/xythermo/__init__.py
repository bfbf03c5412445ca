"""Thermometry bounds and Faraday-readout statistics for the XY ring.

The package solves the transverse-field XY chain on a ring exactly through
its free-fermion modes and computes, at finite temperature: the quantum
Fisher information and Cramer-Rao signal-to-noise ceiling for temperature
estimation, the collective-spin moments <J_z>, Var(J_z), Var(J_x), <J_x^4>,
and the error-propagated sensitivity of a quantum-non-demolition Faraday
readout.  ``ReadoutPoint`` holds every result of one (ensemble, probe
setup) point, each computed once, on first read: the moments, the output
quadrature, the slopes and the three SNRs.  A dense small-ring reference
(``oracle``) backs every formula.
"""
from .correlations import (
    CorrelationKernel,
    fourth_moment_jx,
    kernel,
    mean_jz,
    var_jx,
    var_jz,
    xx_correlation,
)
from .faraday import (
    FaradaySetup,
    NoiseUnderflowError,
    ReadoutPoint,
)
from .spectrum import (
    ChainSpec,
    ModeTable,
    dispersion,
    energy_gap,
    factorization_field,
    mode_table,
)
from .thermometry import ThermalEnsemble, energy_variance, ensemble, qfi, snr_crb

__version__ = "0.1.0"

__all__ = [
    "ChainSpec",
    "ModeTable",
    "ThermalEnsemble",
    "CorrelationKernel",
    "FaradaySetup",
    "ReadoutPoint",
    "NoiseUnderflowError",
    "dispersion",
    "mode_table",
    "energy_gap",
    "factorization_field",
    "ensemble",
    "energy_variance",
    "qfi",
    "snr_crb",
    "kernel",
    "xx_correlation",
    "var_jx",
    "mean_jz",
    "var_jz",
    "fourth_moment_jx",
    "__version__",
]
