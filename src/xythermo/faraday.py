"""Light-quadrature statistics and temperature sensitivity of a QND probe.

An off-resonant probe pulse crossing the chain picks up a Faraday rotation
proportional to the (possibly spatially modulated) collective spin J_z:
the output quadrature is X_out = X_in - (kappa/sqrt(N)) J_z with coherent
input of mean zero and variance INPUT_QUADRATURE_VARIANCE = 1/2.  Reading
out a thermal observable A (either J_z through the quadrature directly, or
J_x^2 after an ideal spin rotation) estimates temperature with error
propagation

    (T/dT)^2 = (d<A>/dT)^2 T^2 / Var(A),

which is capped by the Cramer-Rao value of the thermometry module.  The
slope T d<A>/dT is exact, from T dn_k/dT = n_k (1 - n_k) eps_k/T, and
exactly 0 at T = inf.  The noise Var(A) is the atomic variance, plus the
light shot-noise floor N/(2 kappa^2) for the J_z readout when requested.
Every J_z statistic is a mode sum over the ensemble; only the J_x readout
builds a correlation kernel.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

from .correlations import (
    MODULATIONS,
    CorrelationKernel,
    fourth_moment_from_kernel,
    kernel,
    mean_jz,
    mean_jz_slope,
    var_jx,
    var_jx_slope,
    var_jz,
)
from .spectrum import ChainSpec
from .thermometry import ThermalEnsemble, ensemble, snr_crb

__all__ = [
    "INPUT_QUADRATURE_VARIANCE",
    "FaradaySetup",
    "ReadoutObservable",
    "ReadoutPoint",
    "SensitivityReport",
    "NoiseUnderflowError",
    "output_mean",
    "output_variance",
    "temperature_snr",
    "sensitivity_report",
]


# shot noise of the coherent probe input, in vacuum units
INPUT_QUADRATURE_VARIANCE = 0.5


class NoiseUnderflowError(ArithmeticError):
    """Raised when a readout's noise variance is zero or the SNR non-finite.

    Happens for saturated / frozen states (T -> 0 limits) where the atomic
    variance underflows: the error-propagation formula becomes 0/0 and no
    meaningful sensitivity exists.
    """


class ReadoutObservable(enum.Enum):
    """Which thermal observable the probe sequence measures."""

    MEAN_JZ = "meanjz"  # direct quadrature shift, A = J_z
    VAR_JX = "varjx"    # variance readout, A = J_x^2 (mean J_x vanishes)


@dataclass(frozen=True)
class FaradaySetup:
    """Probe configuration.

    kappa is the dimensionless light-matter coupling (sane experimental
    range is roughly 1-10, but any positive value is accepted).
    include_shot_noise adds the light-noise floor to the MeanJz readout;
    the default models the strong-coupling optimum where atomic noise
    dominates.
    """

    kappa: float = 2.0
    modulation: str = "uniform"
    include_shot_noise: bool = False

    def __post_init__(self) -> None:
        if not (self.kappa > 0 and math.isfinite(self.kappa)):
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")
        if self.modulation not in MODULATIONS:
            raise ValueError(f"unknown modulation {self.modulation!r}")


@dataclass(frozen=True)
class SensitivityReport:
    """CRB ceiling and per-readout SNRs at one (gamma, h/J, T) point."""

    gamma: float
    field_ratio: float
    temperature: float
    snr_crb: float
    snr_varjx: float
    snr_meanjz: float
    per_site: bool


def _mean_shift(mean_jz_value: float, setup: FaradaySetup, n: int) -> float:
    return -(setup.kappa / math.sqrt(n)) * mean_jz_value


def _variance_shift(var_jz_value: float, setup: FaradaySetup, n: int) -> float:
    return INPUT_QUADRATURE_VARIANCE + (setup.kappa**2 / n) * var_jz_value


def output_mean(ens: ThermalEnsemble, setup: FaradaySetup) -> float:
    """Mean output quadrature, -(kappa/sqrt(N)) <J_z>."""
    return _mean_shift(mean_jz(ens, setup.modulation), setup, ens.spec.sites)


def output_variance(ens: ThermalEnsemble, setup: FaradaySetup) -> float:
    """Output quadrature variance, 1/2 + (kappa^2/N) Var(J_z)."""
    return _variance_shift(var_jz(ens, setup.modulation), setup, ens.spec.sites)


@dataclass(eq=False)
class ReadoutPoint:
    """Moments, slopes (T d/dT) and SNRs of one (ensemble, setup) point.

    Each member is computed at most once, on first read.  The J_x members
    share one kernel; the J_z members read the ensemble alone, so a point
    that reads only snr_crb and snr_meanjz builds no kernel.  Reading an
    SNR raises NoiseUnderflowError when its noise variance is not positive
    or the SNR is not finite.
    """

    ensemble: ThermalEnsemble
    setup: FaradaySetup

    @cached_property
    def kernel(self) -> CorrelationKernel:
        return kernel(self.ensemble)

    @cached_property
    def var_jx(self) -> float:
        return var_jx(self.kernel)

    @cached_property
    def fourth_jx(self) -> float:
        return fourth_moment_from_kernel(self.kernel)

    @cached_property
    def mean_jz(self) -> float:
        return mean_jz(self.ensemble, self.setup.modulation)

    @cached_property
    def var_jz(self) -> float:
        return var_jz(self.ensemble, self.setup.modulation)

    @cached_property
    def var_jx_slope(self) -> float:
        return var_jx_slope(self.kernel)

    @cached_property
    def mean_jz_slope(self) -> float:
        return mean_jz_slope(self.ensemble, self.setup.modulation)

    @cached_property
    def snr_crb(self) -> float:
        return snr_crb(self.ensemble)

    @cached_property
    def snr_varjx(self) -> float:
        noise = self.fourth_jx - self.var_jx * self.var_jx
        return self._snr(ReadoutObservable.VAR_JX, self.var_jx_slope, noise)

    @cached_property
    def snr_meanjz(self) -> float:
        noise = self.var_jz
        if self.setup.include_shot_noise:
            # invert the quadrature map: measured X_out variance 1/2 + (k^2/N)V
            # corresponds to inferring J_z with extra variance N/(2 kappa^2)
            noise += self.ensemble.spec.sites / (2.0 * self.setup.kappa**2)
        return self._snr(ReadoutObservable.MEAN_JZ, self.mean_jz_slope, noise)

    def _snr(self, observable: ReadoutObservable, slope: float, noise: float) -> float:
        spec, t = self.ensemble.spec, self.ensemble.temperature
        if not (noise > 0.0 and math.isfinite(noise)):
            raise NoiseUnderflowError(
                f"{observable.value} noise variance {noise} at T={t} "
                f"(gamma={spec.gamma}, h/J={spec.field_ratio})")
        snr = slope * slope / noise
        if not math.isfinite(snr):
            raise NoiseUnderflowError(f"non-finite {observable.value} SNR at T={t}")
        return snr


def temperature_snr(ens: ThermalEnsemble, setup: FaradaySetup,
                    observable: ReadoutObservable) -> float:
    """Error-propagated (T/dT)^2 of one readout at the ensemble's temperature.

    Exactly 0 at T = inf.  Raises NoiseUnderflowError when the readout noise
    is not positive or the resulting SNR is non-finite.
    """
    if not isinstance(observable, ReadoutObservable):
        raise TypeError(f"unknown readout observable {observable!r}")
    return getattr(ReadoutPoint(ens, setup), f"snr_{observable.value}")


def sensitivity_report(spec: ChainSpec, temperature: float, setup: FaradaySetup,
                       per_site: bool = False) -> SensitivityReport:
    """CRB ceiling plus both readout SNRs at one parameter point.

    With per_site=True every SNR is divided by N, the natural normalization
    for comparing chains of different length.
    """
    point = ReadoutPoint(ensemble(spec, temperature), setup)
    scale = 1.0 / spec.sites if per_site else 1.0
    return SensitivityReport(
        gamma=spec.gamma,
        field_ratio=spec.field_ratio,
        temperature=temperature,
        snr_crb=scale * point.snr_crb,
        snr_varjx=scale * point.snr_varjx,
        snr_meanjz=scale * point.snr_meanjz,
        per_site=per_site,
    )
