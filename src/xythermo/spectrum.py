"""Exact free-fermion solution of the transverse-field XY ring.

The model is the spin-1/2 chain

    H = -J sum_l [ (1+gamma)/2 sx_l sx_{l+1} + (1-gamma)/2 sy_l sy_{l+1} ]
        - h sum_l sz_l

on a ring of N sites (site N+1 = site 1), with ferromagnetic J > 0 and
transverse field h = field_ratio * J.  A Jordan-Wigner map followed by a
Bogoliubov rotation diagonalizes it into free fermionic modes on the
antiperiodic momentum grid k_j = pi*(2j+1)/N; this module provides that
grid, the dispersion, the mode table (momenta, energies, rotation
angles, and the cosines and sines of the rotation that every mode sum
reads, each built with the table, read-only), the exact minimum gap over
continuous k, and the field at which the ground state factorizes into a
product state.  cos k and sin k of the grid depend on N alone and are
kept for one ring size at a time.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChainSpec",
    "ModeTable",
    "dispersion",
    "mode_table",
    "momentum_grid",
    "energy_gap",
    "factorization_field",
]


@dataclass(frozen=True)
class ChainSpec:
    """Parameters of the XY ring.

    The exchange energy J is the unit: every energy downstream (mode
    energies, gaps, temperatures) is in units of J.

    Attributes
    ----------
    gamma : float
        Anisotropy in [-1, 1]: gamma = +-1 is the Ising chain, gamma = 0
        the isotropic XX chain.
    field_ratio : float
        Transverse field over coupling, h/J.  Any finite real value.
    sites : int
        Number of spins N.  Even and >= 4; for N = 2 the periodic bond sum
        would double-count the single bond, so it is excluded.  Any
        integral value that is not a bool is accepted (numpy integers
        too) and stored as a plain int.
    """

    gamma: float
    field_ratio: float
    sites: int

    def __post_init__(self) -> None:
        if not -1.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [-1, 1], got {self.gamma}")
        if not math.isfinite(self.field_ratio):
            raise ValueError(f"field_ratio must be finite, got {self.field_ratio}")
        try:
            sites = None if isinstance(self.sites, bool) else operator.index(self.sites)
        except TypeError:
            sites = None
        if sites is None or sites < 4 or sites % 2:
            raise ValueError(f"sites must be an even integer >= 4, got {self.sites!r}")
        object.__setattr__(self, "sites", sites)


@dataclass(frozen=True, eq=False)
class ModeTable:
    """Free-fermion modes of a chain: momenta, energies, Bogoliubov angles.

    ``momenta`` is the antiperiodic grid k_j = pi*(2j+1)/N for
    j = -N/2 ... N/2-1, in increasing order, shared with the other tables
    of the same ring size.  ``energies`` holds the dispersion at each
    momentum (nonnegative, in units of J).  ``angles`` holds the rotation
    angle theta_k of the Bogoliubov transformation that diagonalizes the
    quadratic fermion Hamiltonian with all mode energies nonnegative:

        2*theta_k = atan2(gamma * sin k, cos k - h/J)

    The angles are odd in k; for k >= 0 and gamma >= 0 they lie in
    [0, pi/2].  This branch is the one validated against dense-matrix
    correlation functions (see the test suite), which pins the convention
    unambiguously.

    ``rotation`` is (cos theta_k, sin theta_k), by the half-angle formula
    from a = cos k - h/J and b = gamma sin k: nothing cancels, and where b
    = 0 they are exactly 0 and +-1, which cos and sin of the angles are
    not (sin(2 * pi/2) = 1.2e-16); a zero mode (a = b = 0) has theta = 0.
    ``double_angle`` is (cos 2 theta_k, sin 2 theta_k) of the angles.
    mode_table() builds every array of the table, read-only, and every
    mode sum of the ensemble reads them from here.
    """

    spec: ChainSpec
    momenta: np.ndarray
    energies: np.ndarray
    angles: np.ndarray
    rotation: tuple[np.ndarray, np.ndarray]
    double_angle: tuple[np.ndarray, np.ndarray]


def dispersion(spec: ChainSpec, k):
    """Single-particle energy 2J*sqrt((cos k - h/J)^2 + (gamma sin k)^2).

    Accepts a scalar momentum or an array; the result is 2*pi-periodic and
    even in k, so any real k is meaningful.
    """
    k = np.asarray(k, dtype=float)
    lam = spec.field_ratio
    # an energy past the float range is inf, and needs no warning
    with np.errstate(over="ignore"):
        e = 2.0 * np.hypot(np.cos(k) - lam, spec.gamma * np.sin(k))
    return float(e) if e.ndim == 0 else e


def momentum_grid(n: int) -> np.ndarray:
    """The antiperiodic grid k_j = pi*(2j+1)/N, j = -N/2 ... N/2-1, of N modes.

    The one definition of the grid: the mode table and the correlation
    kernel's cos/sin tables both take their momenta from here.
    """
    j = np.arange(-(n // 2), n // 2)
    return np.pi * (2 * j + 1) / n


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    # the arrays, made read-only in place
    for x in arrays:
        x.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=1)
def _grid_trig(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the grid of N modes with its cos k and sin k, read-only: they depend
    # on N alone, so a sweep at fixed N builds them for its first point only
    k = momentum_grid(n)
    return _read_only(k, np.cos(k), np.sin(k))


def mode_table(spec: ChainSpec) -> ModeTable:
    """Momenta, energies, Bogoliubov angles and rotations for all N modes of a chain.

    The momenta and their cos k and sin k come from a memo on N (one ring
    size at a time, read-only), so the table costs no trigonometry beyond
    its angles and double angles; the energies are those of dispersion()
    to the last bit.
    """
    k, cos_k, sin_k = _grid_trig(spec.sites)
    a = cos_k - spec.field_ratio
    b = spec.gamma * sin_k
    r = np.hypot(a, b)
    # every eps_k is at most 2 (1 + |h/J| + |gamma|), as thermometry.ensemble
    # reads it: only where twice that leaves the float range can 2 r overflow,
    # and there dispersion() gives the same bits, inf past the float range,
    # without numpy's warning.  A per-table errstate would cost every point
    energies = (2.0 * r if 4.0 * (1.0 + abs(spec.field_ratio) + abs(spec.gamma)) < math.inf
                else dispersion(spec, k))
    # atan2 keeps the quadrant so that the rotated quadratic form has
    # energy +eps_k for every mode, including cos k < h/J where the naive
    # arctan branch would flip sign.
    angles = 0.5 * np.arctan2(b, a)
    nonzero, right = r > 0, a >= 0
    large = np.sqrt(0.5 + 0.5 * np.divide(np.abs(a), r, out=np.ones_like(r), where=nonzero))
    small = 0.5 * np.divide(np.abs(b), r, out=np.zeros_like(r), where=nonzero) / large
    rotation = np.where(right, large, small), np.copysign(np.where(right, small, large), b)
    double_angle = np.cos(2.0 * angles), np.sin(2.0 * angles)
    _read_only(energies, angles, *rotation, *double_angle)
    return ModeTable(spec=spec, momenta=k, energies=energies, angles=angles,
                     rotation=rotation, double_angle=double_angle)


def energy_gap(spec: ChainSpec) -> float:
    """Minimum of the dispersion over continuous k in [0, pi].

    The minimum is found from the closed-form stationary points rather than
    the finite momentum grid, so the result is N-independent: candidates are
    the band edges k = 0 and k = pi plus the interior extremum at
    cos k = (h/J)/(1 - gamma^2) whenever that lies in [-1, 1].  Exactly zero
    on the critical lines |h/J| = 1 and on the segment gamma = 0, |h/J| <= 1.
    """
    gamma, lam = spec.gamma, spec.field_ratio
    candidates = [2.0 * abs(1.0 - lam), 2.0 * abs(1.0 + lam)]
    g2 = gamma * gamma
    if g2 < 1.0 and abs(lam) <= 1.0 - g2:
        # interior stationary point; the radicand is >= 0 exactly on this
        # parameter range, clamp to guard roundoff at its boundary
        radicand = max(0.0, 1.0 - lam * lam / (1.0 - g2))
        candidates.append(2.0 * abs(gamma) * math.sqrt(radicand))
    return min(candidates)


def factorization_field(gamma: float) -> float:
    """Field ratio h/J = sqrt(1 - gamma^2) where the ground state factorizes.

    On this line the ground state is an exact product of single-spin states
    (the positive branch is returned; the model is symmetric under
    h -> -h).  Despite the classical-looking ground state the spectrum stays
    gapped for gamma != 0.
    """
    if not abs(gamma) <= 1.0:
        raise ValueError(f"gamma must lie in [-1, 1], got {gamma}")
    return math.sqrt(1.0 - gamma * gamma)
