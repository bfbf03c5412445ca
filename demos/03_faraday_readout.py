"""
Faraday-probe thermometry: two readouts, one ceiling
====================================================

A dispersive light probe couples to the collective spin J_z and leaves
the chain's energy alone, so repeated shots are cheap.  Temperature can
then be inferred from either of two homodyne statistics:

  * MEAN_JZ -- the mean rotation angle, tracking <J_z>(T)
  * VAR_JX  -- the added light noise, tracking Var(J_x)(T)

Neither can beat the Cramer-Rao ceiling snr_crb from the thermal state
itself; this script shows how close each gets, and where each one wins.
"""

import numpy as np

from xythermo import correlations, faraday, thermometry
from xythermo.spectrum import ChainSpec

setup = faraday.FaradaySetup(kappa=2.0)

# -- 1. what the probe sees -------------------------------------------------
spec = ChainSpec(gamma=1.0, field_ratio=0.5, sites=50)
for T in (0.1, 0.5, 2.0):
    point = faraday.ReadoutPoint(thermometry.ensemble(spec, T), setup)
    print(f"T = {T:<4} output mean = {point.output_mean:+8.4f}  "
          f"output variance = {point.output_variance:8.4f}")

# -- 2. temperature scan: ordered vs paramagnetic working point -------------
temps = np.geomspace(0.05, 5.0, 25)

def scan(spec, label):
    print(f"\n{label}  (gamma = {spec.gamma}, h/J = {spec.field_ratio}, "
          f"N = {spec.sites})")
    print(f"{'T':>7} {'snr_crb':>9} {'var_jx':>9} {'mean_jz':>9}   winner")
    for T in temps[::4]:
        # one point per temperature: its three SNRs share one kernel
        point = faraday.ReadoutPoint(thermometry.ensemble(spec, float(T)), setup)
        crb, vx, mz = point.snr_crb, point.snr_varjx, point.snr_meanjz
        winner = "var_jx" if vx >= mz else "mean_jz"
        print(f"{T:>7.3f} {crb:>9.3f} {vx:>9.3f} {mz:>9.3f}   {winner}")

# Deep in the ordered phase <J_z> barely moves with T, so the noise
# readout carries the signal...
scan(ChainSpec(gamma=1.0, field_ratio=0.0, sites=50), "ferromagnet")

# ...while in the polarized paramagnet the magnetization thaws with T and
# the mean rotation is nearly optimal.
scan(ChainSpec(gamma=0.0, field_ratio=1.5, sites=50), "paramagnet")

# -- 3. how much of the ceiling do we keep? ---------------------------------
spec = ChainSpec(gamma=0.0, field_ratio=1.5, sites=50)
print("\nmean_jz readout efficiency (fraction of the quantum ceiling):")
for T in (0.2, 0.3, 0.4, 0.5):
    point = faraday.ReadoutPoint(thermometry.ensemble(spec, T), setup)
    print(f"  T = {T}: {point.snr_meanjz / point.snr_crb:.1%}")

# -- 4. shot noise ------------------------------------------------------------
# A real probe adds photon shot noise ~ N/(2 kappa^2) under the mean-based
# readout.  Stronger coupling buys it back.
spec = ChainSpec(gamma=0.0, field_ratio=1.5, sites=50)
ens = thermometry.ensemble(spec, 0.3)
ideal = faraday.ReadoutPoint(ens, setup).snr_meanjz
print(f"\nmean_jz snr at T = 0.3 without shot noise: {ideal:.3f}")
for kappa in (0.5, 1.0, 2.0, 5.0, 20.0):
    noisy = faraday.ReadoutPoint(
        ens, faraday.FaradaySetup(kappa=kappa, include_shot_noise=True)).snr_meanjz
    print(f"  kappa = {kappa:<4} with shot noise: {noisy:.3f}")

# -- 5. spatially modulated probe -------------------------------------------
# Addressing the ring with a half-wavelength intensity profile weights
# each site by cos^2, trading signal for access to a different moment mix.
for modulation in ("uniform", "half"):
    ens = thermometry.ensemble(ChainSpec(gamma=0.5, field_ratio=1.2, sites=50), 0.4)
    mz = correlations.mean_jz(ens, modulation=modulation)
    print(f"modulation = {modulation:<8} <J_z> = {mz:.4f}")
