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
ReadoutPoint holds every result of one (ensemble, setup) point, each
computed once, on first read; only its J_x members build a correlation
kernel, one per point.
"""
from __future__ import annotations

import math
import sys
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
from .thermometry import ThermalEnsemble, snr_crb

__all__ = [
    "INPUT_QUADRATURE_VARIANCE",
    "FaradaySetup",
    "ReadoutPoint",
    "NoiseUnderflowError",
]


# shot noise of the coherent probe input, in vacuum units
INPUT_QUADRATURE_VARIANCE = 0.5


class NoiseUnderflowError(ArithmeticError):
    """Raised when a readout's noise variance is zero or the SNR non-finite.

    Happens for saturated / frozen states (T -> 0 limits) where the atomic
    variance underflows: the error-propagation formula becomes 0/0 and no
    meaningful sensitivity exists.
    """


@dataclass(frozen=True)
class FaradaySetup:
    """Probe configuration.

    kappa is the dimensionless light-matter coupling (sane experimental
    range is roughly 1-10, but any positive value whose square is a
    finite, normal float is accepted).
    include_shot_noise adds the light-noise floor to the MeanJz readout;
    the default models the strong-coupling optimum where atomic noise
    dominates.
    """

    kappa: float = 2.0
    modulation: str = "uniform"
    include_shot_noise: bool = False

    def __post_init__(self) -> None:
        # kappa^2 enters the output variance and the shot-noise floor, which
        # divides by it: a subnormal square (kappa = 1e-160) is refused too
        if not (self.kappa > 0 and sys.float_info.min <= self.kappa * self.kappa < math.inf):
            raise ValueError(f"kappa must be > 0 with a finite, normal square, got {self.kappa}")
        if self.modulation not in MODULATIONS:
            raise ValueError(f"unknown modulation {self.modulation!r}")


@dataclass(frozen=True, eq=False)
class ReadoutPoint:
    """Moments, output statistics, slopes (T d/dT) and SNRs of one point.

    A read-only record: neither its ensemble and setup nor any member can
    be assigned, so no member read from one ensemble outlives it.  Each
    member is computed at most once, on first read.  The J_x members
    share one kernel, and <J_x^4> is summed once; the J_z members, the
    output quadrature and the ceiling read the ensemble alone, so a point
    that reads only those, snr_crb and snr_meanjz builds no kernel.
    <J_x> has no member: the thermal state commutes with the ring parity
    while J_x anticommutes with it, so every odd x-moment is exactly 0,
    and var_jx is <J_x^2>.  Reading an SNR raises NoiseUnderflowError when
    its noise variance is not positive or the SNR is not finite.
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
    def var_jx_squared(self) -> float:
        """Var(J_x^2) = <J_x^4> - Var(J_x)^2, the noise of the VAR_JX readout."""
        return self.fourth_jx - self.var_jx * self.var_jx

    @cached_property
    def output_mean(self) -> float:
        """Mean output quadrature, -(kappa/sqrt(N)) <J_z>."""
        return -(self.setup.kappa / math.sqrt(self.ensemble.spec.sites)) * self.mean_jz

    @cached_property
    def output_variance(self) -> float:
        """Output quadrature variance, 1/2 + (kappa^2/N) Var(J_z)."""
        return (INPUT_QUADRATURE_VARIANCE
                + (self.setup.kappa**2 / self.ensemble.spec.sites) * self.var_jz)

    @cached_property
    def snr_crb(self) -> float:
        return snr_crb(self.ensemble)

    @cached_property
    def snr_varjx(self) -> float:
        return self._snr("varjx", self.var_jx_slope, self.var_jx_squared)

    @cached_property
    def snr_meanjz(self) -> float:
        noise = self.var_jz
        if self.setup.include_shot_noise:
            # invert the quadrature map: measured X_out variance 1/2 + (k^2/N)V
            # corresponds to inferring J_z with extra variance N/(2 kappa^2)
            noise += self.ensemble.spec.sites / (2.0 * self.setup.kappa**2)
        return self._snr("meanjz", self.mean_jz_slope, noise)

    def _snr(self, readout: str, slope: float, noise: float) -> float:
        spec, t = self.ensemble.spec, self.ensemble.temperature
        if not (noise > 0.0 and math.isfinite(noise)):
            raise NoiseUnderflowError(
                f"{readout} noise variance {noise} at T={t} "
                f"(gamma={spec.gamma}, h/J={spec.field_ratio})")
        snr = slope * slope / noise
        if not math.isfinite(snr):
            raise NoiseUnderflowError(f"non-finite {readout} SNR at T={t}")
        return snr
