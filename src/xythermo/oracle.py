"""Brute-force dense reference for small rings (N <= 12).

Everything here is deliberately unclever: build the 2^N x 2^N Hamiltonian
from Pauli strings, diagonalize it, and take thermal traces.  The rest of
the package must agree with these numbers; nothing here shares code with
the free-fermion route beyond the ChainSpec itself.

Two Hamiltonian variants ("sectors") are built:

  physical-pbc          the literal ring Hamiltonian.
  antiperiodic-matched  same bulk, but the boundary bond operators are
                        multiplied by the ring parity prod_l sz_l.  This is
                        the variant whose Jordan-Wigner fermions are exactly
                        antiperiodic in every parity sector, i.e. the one
                        the mode-sum formulas describe at finite N.

Their difference is a boundary effect that shrinks with N; comparing them
quantifies how far the finite ring is from the thermodynamic limit.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .spectrum import ChainSpec, mode_table

__all__ = [
    "PHYSICAL",
    "MATCHED",
    "DenseSystem",
    "build",
    "hamiltonian",
    "thermal_expectation",
    "thermal_variance",
    "oracle_qfi",
    "oracle_var_jx",
    "oracle_fourth_jx",
    "oracle_mean_jz",
    "oracle_var_jz",
    "oracle_var_jy",
    "string_contraction",
    "collective_x",
    "free_spectrum",
    "bdg_matrix",
    "single_particle_energies",
]

PHYSICAL = "physical-pbc"
MATCHED = "antiperiodic-matched"
_SECTORS = (PHYSICAL, MATCHED)

_I2 = np.eye(2)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_IY = np.array([[0.0, 1.0], [-1.0, 0.0]])  # i*sigma_y, kept real
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


def _chain(n, factors):
    # factors: {site: [2x2, ...]} applied left-to-right at that site
    mats = []
    for site in range(n):
        ops = factors.get(site)
        mats.append(reduce(np.matmul, ops) if ops else _I2)
    return reduce(np.kron, mats)


def _site(op, l, n):
    return _chain(n, {l: [op]})


def hamiltonian(spec: ChainSpec, sector: str = MATCHED) -> np.ndarray:
    """Dense Hamiltonian of the requested sector (real symmetric)."""
    if sector not in _SECTORS:
        raise ValueError(f"unknown sector {sector!r}; expected one of {_SECTORS}")
    n, gamma, h = spec.sites, spec.gamma, spec.field_ratio
    cx = (1.0 + gamma) / 2.0
    cy = (1.0 - gamma) / 2.0
    dim = 2**n
    H = np.zeros((dim, dim))
    for l in range(n - 1):
        H -= cx * _chain(n, {l: [_SX], l + 1: [_SX]})
        H += cy * _chain(n, {l: [_IY], l + 1: [_IY]})  # sy sy = -(i sy)(i sy)
    if sector == PHYSICAL:
        H -= cx * _chain(n, {n - 1: [_SX], 0: [_SX]})
        H += cy * _chain(n, {n - 1: [_IY], 0: [_IY]})
    else:
        # boundary bond operators times the ring parity prod_m sz_m
        xx = {m: [_SZ] for m in range(1, n - 1)}
        xx[0] = [_SX, _SZ]
        xx[n - 1] = [_SX, _SZ]
        yy = dict(xx)
        yy[0] = [_IY, _SZ]
        yy[n - 1] = [_IY, _SZ]
        H -= cx * _chain(n, xx)
        H += cy * _chain(n, yy)
    for l in range(n):
        H -= h * _site(_SZ, l, n)
    return H


@dataclass(frozen=True, eq=False)
class DenseSystem:
    """Eigendecomposition of one dense Hamiltonian."""

    spec: ChainSpec
    sector: str
    eigenvalues: np.ndarray   # ascending
    eigenvectors: np.ndarray  # columns


def build(spec: ChainSpec, sector: str = MATCHED) -> DenseSystem:
    """Diagonalize the dense Hamiltonian; refuses sites > 12 (memory guard)."""
    if spec.sites > 12:
        raise ValueError(f"dense reference capped at 12 sites, got {spec.sites}")
    evals, evecs = np.linalg.eigh(hamiltonian(spec, sector))
    return DenseSystem(spec=spec, sector=sector, eigenvalues=evals, eigenvectors=evecs)


def _weights(sys: DenseSystem, temperature: float) -> np.ndarray:
    if not temperature > 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    e = sys.eigenvalues
    x = (e - e[0]) / temperature  # shift: no overflow
    w = np.exp(-x)
    return w / w.sum()


def thermal_expectation(sys: DenseSystem, temperature: float, observable) -> float:
    """Tr(O exp(-H/T))/Z.  ``observable`` is a dense matrix, or "H" / "H2"."""
    p = _weights(sys, temperature)
    if isinstance(observable, str):
        if observable == "H":
            return float(p @ sys.eigenvalues)
        if observable == "H2":
            return float(p @ sys.eigenvalues**2)
        raise ValueError(f"unknown observable tag {observable!r}")
    V = sys.eigenvectors
    diag = np.einsum("bi,bi->i", V, observable @ V)
    return float(p @ diag)


def thermal_variance(sys: DenseSystem, temperature: float, observable: np.ndarray) -> float:
    """<O^2> - <O>^2 without cancellation: rotate, shift by the mean, square."""
    p = _weights(sys, temperature)
    V = sys.eigenvectors
    D = V.T @ observable @ V
    m = float(p @ np.diag(D))
    D[np.diag_indices_from(D)] -= m
    return float(p @ np.einsum("ij,ij->i", D, D))


def oracle_qfi(sys: DenseSystem, temperature: float) -> float:
    """Thermal energy variance over T^4, from the dense spectrum alone."""
    p = _weights(sys, temperature)
    e = sys.eigenvalues
    mean = float(p @ e)
    var = float(p @ (e - mean) ** 2)
    return var / temperature**4


# ---- collective observables ------------------------------------------------

def collective_x(n: int) -> np.ndarray:
    return sum(_site(_SX, l, n) for l in range(n))


def _z_diagonal(l, n):
    return np.kron(np.ones(2**l), np.kron([1.0, -1.0], np.ones(2 ** (n - 1 - l))))


def _modulated_z_diagonal(n, modulation):
    # site l is weighted cos^2(k_p l d), with k_p d = pi (uniform) or pi/2 (half)
    kp = {"uniform": np.pi, "half": np.pi / 2}[modulation]
    w = np.cos(kp * np.arange(n)) ** 2
    return sum(w[l] * _z_diagonal(l, n) for l in range(n))


def oracle_var_jx(sys: DenseSystem, temperature: float) -> float:
    # <J_x> = 0 by parity, so the variance is the plain second moment
    p = _weights(sys, temperature)
    M = sys.eigenvectors.T @ collective_x(sys.spec.sites) @ sys.eigenvectors
    return float(p @ np.einsum("ij,ij->i", M, M))


def oracle_fourth_jx(sys: DenseSystem, temperature: float) -> float:
    p = _weights(sys, temperature)
    M = sys.eigenvectors.T @ collective_x(sys.spec.sites) @ sys.eigenvectors
    K = M @ M
    return float(p @ np.einsum("ij,ij->i", K, K))


def oracle_mean_jz(sys: DenseSystem, temperature: float, modulation="uniform") -> float:
    p = _weights(sys, temperature)
    z = _modulated_z_diagonal(sys.spec.sites, modulation)
    return float(p @ ((sys.eigenvectors**2).T @ z))


def oracle_var_jz(sys: DenseSystem, temperature: float, modulation="uniform") -> float:
    # J_z is diagonal in the computational basis; shift by the thermal mean
    # before squaring so saturated states don't lose precision
    p = _weights(sys, temperature)
    z = _modulated_z_diagonal(sys.spec.sites, modulation)
    amp = (sys.eigenvectors**2).T  # amp[i, b] = |V_bi|^2
    m = float(p @ (amp @ z))
    return float(p @ (amp @ (z - m) ** 2))


def oracle_var_jy(sys: DenseSystem, temperature: float) -> float:
    n = sys.spec.sites
    Y = sum(_site(_IY, l, n) for l in range(n))  # i*J_y, real antisymmetric
    p = _weights(sys, temperature)
    M = sys.eigenvectors.T @ Y @ sys.eigenvectors
    return float(p @ np.einsum("ij,ij->i", M, M))  # <J_y^2> = -<(iJ_y)^2>


def string_contraction(sys: DenseSystem, temperature: float, a_site: int, b_site: int) -> float:
    """<A_a B_b> with A_l = sx_l prod_{m<l} sz_m and B_l = i sy_l prod_{m<l} sz_m."""
    n = sys.spec.sites
    fa = {m: [_SZ] for m in range(a_site)}
    fa[a_site] = [_SX]
    fb = {m: [_SZ] for m in range(b_site)}
    fb[b_site] = [_IY]
    op = _chain(n, fa) @ _chain(n, fb)
    return thermal_expectation(sys, temperature, op)


# ---- free-fermion cross-checks ----------------------------------------------

def free_spectrum(spec: ChainSpec) -> np.ndarray:
    """All 2^N many-body energies of the mode solution, sorted ascending.

    Every subset of modes may be occupied; the matched-sector dense spectrum
    must equal this multiset exactly.
    """
    if spec.sites > 12:
        raise ValueError("2^N subset enumeration capped at 12 sites")
    eps = mode_table(spec).energies
    occ = np.indices((2,) * spec.sites).reshape(spec.sites, -1).T
    return np.sort(occ @ eps - eps.sum() / 2.0)


def bdg_matrix(spec: ChainSpec) -> np.ndarray:
    """2N x 2N single-particle matrix of the antiperiodic quadratic form.

    Eigenvalues come in +-eps_k pairs; the positive half must match the
    dispersion on the antiperiodic grid.
    """
    n, gamma, h = spec.sites, spec.gamma, spec.field_ratio
    hop = np.zeros((n, n))
    for l in range(n - 1):
        hop[l, l + 1] = 1.0
    hop[n - 1, 0] = -1.0  # antiperiodic wrap
    A = hop + hop.T - 2.0 * h * np.eye(n)
    B = gamma * (hop - hop.T)
    return np.block([[A, B], [-B, -A]])


def single_particle_energies(spec: ChainSpec) -> np.ndarray:
    """Positive half of the quadratic-form spectrum, ascending."""
    n = spec.sites
    return np.linalg.eigvalsh(bdg_matrix(spec))[n:]
