"""Collective-spin moments of the thermal chain via Wick's theorem.

All x-basis statistics reduce to determinants built from a single vector of
fermionic contractions g_j (the correlation kernel).  Writing A_l and B_l
for the two Majorana-like string operators at site l (A_l^2 = 1,
B_l^2 = -1, all pairs anticommute), the thermal contractions are

    <A_l A_m> = delta_lm,   <B_l B_m> = -delta_lm,
    <A_l B_{l+j}> = g_j = (1/N) sum_k cos(k j + 2 theta_k) (1 - 2 n_k),

with g antiperiodic, g_{j+N} = -g_j.  Pair correlators become Toeplitz
determinants; quadruple correlators become Pfaffians whose interleaved
skew-symmetric matrices reduce exactly (block structure, sign +1) to plain
determinants of contraction submatrices.

The pair correlator at separation r is the leading r x r minor of one
(N-1) x (N-1) Toeplitz matrix, so every separation comes from a single
sweep that updates an orthogonal factorization one row at a time: O(N^3)
flops for all N - 1 minors, instead of O(N^4) for one det per separation.
Elimination without row exchanges would be cheaper still, but it is
unstable here: the pair correlator falls to ~1e-19 halfway round the ring
and grows again toward r = N - 1, and the pivot ratios blow up with it.

The <J_x^4> sum needs one such determinant per gap class (t1, t2, t3) of
the four sites, about N^3/12 of them.  For fixed (t1, t2) the matrices of
successive t3 are nested: each is the leading principal submatrix of the
next.  So one Gaussian elimination without row exchanges gives all of them
as products of its pivots, and the sum costs O(N^5) flops instead of the
O(N^6) of one det per class.  Where that elimination breaks down on a
pivot that is zero to working precision (see fourth_moment_from_kernel),
the kernel falls back to the one-det-per-class path, which also serves
the tests as reference.

A subtlety worth stating once: these formulas describe the Hamiltonian
variant whose fermions are exactly antiperiodic (the boundary bond carries
the ring parity operator; see the oracle module).  That variant is
translation invariant for the fermions but not for the spins, so a spin
pair at sites (l, m), l < m, correlates through the determinant at linear
separation m - l even when the ring distance N - (m - l) is shorter.  Pair
sums below therefore weight separation d by 2(N - d) instead of assuming
ring symmetry; this reproduces the dense matrix values to machine precision
at any size, and differs from the physical periodic chain only by the
boundary term both descriptions shed in the large-N limit.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import qr_insert, toeplitz

from .thermometry import ThermalEnsemble

__all__ = [
    "CorrelationKernel",
    "MomentSet",
    "kernel",
    "xx_correlation",
    "yy_correlation",
    "var_jx",
    "var_jx_slope",
    "var_jy",
    "mean_jz",
    "mean_jz_slope",
    "var_jz",
    "fourth_moment_jx",
    "moments",
    "modulation_weights",
]

MODULATIONS = ("uniform", "half")

# cap on matrix entries per batched det or elimination stack (~160 MB of
# float64 scratch)
_DET_BATCH_ELEMENTS = 20_000_000
# width of the diagonal panels inside which _leading_minors takes scalar steps
_PANEL = 8
# a multiplier above 1/eps means its pivot is below roundoff of the entries
# it eliminates, i.e. zero to working precision
_MULTIPLIER_LIMIT = 1.0 / np.finfo(float).eps


class CorrelationKernel:
    """The g_j vector for one ensemble, plus its <sx sx> correlators.

    The correlators of every separation are computed together, once, on
    first use; xx_correlation, var_jx and fourth_moment_from_kernel all
    read that one array.
    """

    __slots__ = ("ensemble", "_g", "_off", "_xx")

    def __init__(self, ensemble: ThermalEnsemble, values: np.ndarray):
        n = ensemble.spec.sites
        if values.shape != (2 * n - 1,):
            raise ValueError(f"need 2N-1 coefficients, got shape {values.shape}")
        self.ensemble = ensemble
        self._g = values
        self._off = n - 1  # position of j = 0
        self._xx: np.ndarray | None = None  # <sx_0 sx_r>, r = 0 ... N-1

    def coefficient(self, j: int) -> float:
        n = self.ensemble.spec.sites
        if not -(n - 1) <= j <= n - 1:
            raise ValueError(f"j must lie in [-(N-1), N-1], got {j}")
        return float(self._g[self._off + j])


def _contractions(ens: ThermalEnsemble, t: np.ndarray) -> np.ndarray:
    # g_j = (1/N) sum_k cos(k j + 2 theta_k) t_k for j = -(N-1) ... N-1; the
    # kernel has t = 1 - 2 n_k, its slope t = T d(1 - 2 n_k)/dT
    n = ens.spec.sites
    k = ens.modes.momenta
    a = np.cos(2.0 * ens.modes.angles) * t
    b = np.sin(2.0 * ens.modes.angles) * t
    j = np.arange(-(n - 1), n)
    kj = np.outer(j, k)
    return (np.cos(kj) @ a - np.sin(kj) @ b) / n


def _occupation_slope(ens: ThermalEnsemble) -> np.ndarray:
    # T d(1 - 2 n_k)/dT = -2 n_k (1 - n_k) eps_k/T: exactly 0 at T = inf,
    # and 0 (not inf * 0) once n_k(1 - n_k) underflows at low T
    return -2.0 * ens.fluctuation_weights() * ens.reduced_energies()


def kernel(ens: ThermalEnsemble) -> CorrelationKernel:
    """Contraction vector g_j of a thermal ensemble.

    At infinite temperature 1 - 2 n_k = 0 for every mode, so g vanishes
    identically and all Wick structure collapses to on-site values.
    """
    return CorrelationKernel(ens, _contractions(ens, 1.0 - 2.0 * ens.occupations))


def xx_correlation(kern: CorrelationKernel, r: int) -> float:
    """<sx_l sx_{l+r}> as the r x r Toeplitz determinant with entries g_{a-b-1}.

    r = 0 returns 1 (same site); valid for 0 <= r <= N-1.  Reads the
    kernel's correlator array, which one row-updating QR sweep fills for
    all r at once (see _pair_correlations).
    """
    r = int(r)
    n = kern.ensemble.spec.sites
    if not 0 <= r <= n - 1:
        raise ValueError(f"separation must lie in [0, N-1], got {r}")
    return _xx_correlations(kern)[r].item()


def yy_correlation(kern: CorrelationKernel, r: int) -> float:
    """<sy_l sy_{l+r}>; same Toeplitz structure with entries g_{a-b+1}.

    Not part of the main observable set -- it exists because the y-axis
    variance at anisotropy gamma must equal the x-axis variance at -gamma,
    which makes a sharp cross-check of the whole kernel machinery.
    """
    return _pair_correlation(kern, int(r), shift=+1)


def _pair_correlation(kern, r, shift):
    # one LAPACK det for one separation: yy_correlation, the pairs of a
    # complex kernel, and the test reference for the QR sweep
    n = kern.ensemble.spec.sites
    if not 0 <= r <= n - 1:
        raise ValueError(f"separation must lie in [0, N-1], got {r}")
    if r == 0:
        return 1.0
    g, off = kern._g, kern._off
    steps = np.arange(r)
    col = g[off + shift + steps]  # g_{shift} ... g_{shift+r-1}
    row = g[off + shift - steps]  # g_{shift} ... g_{shift-r+1}
    return np.linalg.det(toeplitz(col, row)).item()  # complex for var_jx_slope


def _pair_correlations(kern: CorrelationKernel, shift: int) -> np.ndarray:
    """Pair correlators of every separation r = 0 ... N-1 (x: shift -1, y: +1).

    Correlator r is the leading r x r minor of the (N-1) x (N-1) Toeplitz
    matrix M[a, b] = g_{shift+a-b}.  For a real kernel one sweep gives them
    all: starting from the first row, each step appends the next row of M
    to a full-width QR factorization with Givens rotations (Golub & Van
    Loan, Matrix Computations, "Updating matrix factorizations"), and after
    k rows the minor of order k is the product of the first k diagonal
    entries of R, because the orthogonal factor is a product of rotations
    with determinant +1.  That is O(N^3) flops with no pivot to break down,
    so singular matrices and g = 0 (T = inf, exact zeros) need no fallback.
    Rotations take |.| and conjugates, so they are not complex-analytic;
    a complex kernel (var_jx_slope's complex step) takes one LAPACK det
    per separation instead, O(N^4) flops.
    """
    n = kern.ensemble.spec.sites
    if np.iscomplexobj(kern._g):
        return np.array([_pair_correlation(kern, r, shift) for r in range(n)])
    a = np.arange(n - 1)
    mat = np.asarray_chkfinite(kern._g[kern._off + shift + a[:, None] - a[None, :]])
    minors = np.empty(n)
    minors[0] = 1.0
    q, r = np.ones((1, 1)), mat[:1].copy()
    minors[1] = r[0, 0]
    for k in range(1, n - 1):
        q, r = qr_insert(q, r, mat[k], k, which="row", check_finite=False)
        minors[k + 1] = np.prod(np.diagonal(r)[:k + 1])
    return minors


def _xx_correlations(kern: CorrelationKernel) -> np.ndarray:
    if kern._xx is None:
        kern._xx = _pair_correlations(kern, shift=-1)
    return kern._xx


def _pair_sum(corr: np.ndarray) -> float:
    # sum of <s s> over all ordered site pairs: separation d pairs up
    # (N - d) times each way along the fermionic ordering
    n = len(corr)
    return 2.0 * sum((n - d) * c for d, c in enumerate(corr.tolist()) if d)


def var_jx(kern: CorrelationKernel) -> float:
    """Variance of J_x = sum_l sx_l; equals <J_x^2> since <J_x> = 0."""
    return kern.ensemble.spec.sites + _pair_sum(_xx_correlations(kern))


def var_jx_slope(kern: CorrelationKernel) -> float:
    """T * dVar(J_x)/dT, exact to roundoff (complex-step derivative).

    The pair determinants are polynomials in the g_j, so the pair sums of
    the complex kernel g + i s T dg/dT are Var(J_x) + i s T dVar(J_x)/dT +
    O(s^2), with no subtraction.  Unlike det * tr(M^-1 dM) this stays finite
    where pair matrices are singular (gamma = -1, h/J = 0).
    """
    ens = kern.ensemble
    step = 2.0**-64  # a power of two, so scaling by it is exact
    slope = _contractions(ens, _occupation_slope(ens))
    return var_jx(CorrelationKernel(ens, kern._g + 1j * step * slope)).imag / step


def var_jy(kern: CorrelationKernel) -> float:
    """Variance of J_y; satisfies var_jy(gamma) = var_jx(-gamma) exactly."""
    return kern.ensemble.spec.sites + _pair_sum(_pair_correlations(kern, shift=+1))


def modulation_weights(modulation: str, n: int) -> np.ndarray:
    """Per-site probe weights cos^2(k_p l d) for the supported probe modes.

    "uniform" is the unmodulated probe (k_p d = pi, every weight 1); "half"
    modulates at k_p d = pi/2, weighting even sites 1 and odd sites 0.
    """
    if modulation == "uniform":
        return np.ones(n)
    if modulation == "half":
        w = np.zeros(n)
        w[::2] = 1.0
        return w
    raise ValueError(f"unknown modulation {modulation!r}; expected one of {MODULATIONS}")


def _jz_mode_sum(ens: ThermalEnsemble, modulation: str, t: np.ndarray) -> float:
    # sum_l w_l <sz_l> with <sz_l> = -g_0, an O(N) mode sum without a kernel
    w = modulation_weights(modulation, ens.spec.sites)
    g0 = float(np.sum(np.cos(2.0 * ens.modes.angles) * t)) / ens.spec.sites
    return float(np.sum(w)) * -g0


def mean_jz(ens: ThermalEnsemble, modulation: str = "uniform") -> float:
    """Mean of the modulated J_z = sum_l w_l sz_l.

    With h > 0 the chain polarizes toward +z (Hamiltonian -h sum sz), so the
    uniform value approaches +N in a saturating field.
    """
    return _jz_mode_sum(ens, modulation, 1.0 - 2.0 * ens.occupations)


def mean_jz_slope(ens: ThermalEnsemble, modulation: str = "uniform") -> float:
    """T * d<J_z>/dT, exact: the mean's mode sum with T d(1 - 2 n_k)/dT."""
    return _jz_mode_sum(ens, modulation, _occupation_slope(ens))


def var_jz_from_kernel(kern: CorrelationKernel, modulation: str = "uniform") -> float:
    """Variance of the modulated J_z given an existing kernel."""
    n = kern.ensemble.spec.sites
    g, off = kern._g, kern._off
    w = modulation_weights(modulation, n)
    # connected <sz_l sz_{l+r}>: on-site 1 - g_0^2, else -g_r g_{-r}; the
    # product g_r g_{-r} is invariant under r -> r - N (antiperiodicity), so
    # indexing by r mod N is exact
    conn = np.empty(n)
    conn[0] = 1.0 - g[off] ** 2
    r = np.arange(1, n)
    conn[1:] = -g[off + r] * g[off - r]
    i = np.arange(n)
    autocorr = w[(i[:, None] + i) % n] @ w  # sum_l w_l w_{l+r}; exact integers
    return float(np.dot(autocorr, conn))


def var_jz(ens: ThermalEnsemble, modulation: str = "uniform") -> float:
    """Variance of the modulated J_z = sum_l w_l sz_l (density-density Wick)."""
    return var_jz_from_kernel(kernel(ens), modulation)


@lru_cache(maxsize=None)
def _gap_classes(n: int) -> dict[tuple[int, int, int], int]:
    """Gap signatures (t1, t2, t3) of site quadruples l1<l2<l3<l4, with counts.

    A quadruple is determined by its gaps t_i = l_{i+1} - l_i and the origin
    l1, so the signature (t1, t2, t3) occurs N - (t1+t2+t3) times.  The
    correlator value only depends on the signature, and is invariant under
    reversal (t1,t2,t3) -> (t3,t2,t1) -- a transpose identity of the
    contraction determinant -- so reversed pairs are merged.  Only the
    by-class reference path enumerates classes; the nested-minor path uses
    the same reversal symmetry by summing t1 <= t3 alone.
    """
    classes: dict[tuple[int, int, int], int] = {}
    for t1 in range(1, n - 2):
        for t2 in range(1, n - 1 - t1):
            for t3 in range(1, n - t1 - t2):
                key = (t1, t2, t3)
                rev = (t3, t2, t1)
                if rev < key:
                    key = rev
                classes[key] = classes.get(key, 0) + (n - t1 - t2 - t3)
    return classes


def _quad_sites(t1: int, t2: int, t3: int) -> np.ndarray:
    # B-operator sites of the four-string product starting at the origin;
    # the A-operator sites are these + 1
    return np.concatenate([np.arange(t1), np.arange(t1 + t2, t1 + t2 + t3)])


def _quad_correlations_by_class(kern: CorrelationKernel) -> float:
    """sum over quadruples l1<l2<l3<l4 of <sx sx sx sx>, one det per gap class.

    The reference for the nested-minor path, and its fallback on breakdown.
    """
    n = kern.ensemble.spec.sites
    g, off = kern._g, kern._off
    classes = _gap_classes(n)
    total = 0.0
    by_size: dict[int, list[tuple[int, int, int]]] = {}
    for key in classes:
        by_size.setdefault(key[0] + key[2], []).append(key)
    for m, keys in by_size.items():
        chunk = max(1, _DET_BATCH_ELEMENTS // (m * m))
        for lo in range(0, len(keys), chunk):
            batch = keys[lo: lo + chunk]
            mats = np.empty((len(batch), m, m))
            for i, (t1, t2, t3) in enumerate(batch):
                b_sites = _quad_sites(t1, t2, t3)
                mats[i] = g[off + (b_sites[:, None] - (b_sites + 1)[None, :])]
            dets = np.linalg.det(mats)
            for key, val in zip(batch, dets):
                total += classes[key] * float(val)
    return total


def _leading_minors(mats: np.ndarray) -> np.ndarray | None:
    """Every leading principal minor of each matrix in a (B, m, m) stack.

    Gaussian elimination without row exchanges, in place: the minor of
    order k is the product of the first k pivots (Golub & Van Loan, Matrix
    Computations, sec. 3.2).  Scalar steps run only inside _PANEL-wide
    diagonal panels, where they also forward-substitute the panel rows of
    the upper factor; the trailing Schur complement then takes one batched
    matmul per panel.  Returns None on breakdown: a pivot that is zero to
    working precision (some multiplier above _MULTIPLIER_LIMIT), or any
    value that is not finite.
    """
    m = mats.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k0 in range(0, m, _PANEL):
            k1 = min(k0 + _PANEL, m)
            for k in range(k0, k1):
                col = mats[:, k + 1:, k]
                col /= mats[:, k, k, None]
                mats[:, k + 1:, k + 1:k1] -= col[:, :, None] * mats[:, k, None, k + 1:k1]
                mats[:, k + 1:k1, k1:] -= col[:, :k1 - k - 1, None] * mats[:, k, None, k1:]
            multipliers = np.tril(mats[:, k0:, k0:k1], -1)
            if not np.max(np.abs(multipliers), initial=0.0) <= _MULTIPLIER_LIMIT:
                return None
            mats[:, k1:, k1:] -= mats[:, k1:, k0:k1] @ mats[:, k0:k1, k1:]
        minors = np.cumprod(np.diagonal(mats, axis1=1, axis2=2), axis=1)
    return minors if np.isfinite(minors).all() else None


def _nested_quad_sum(kern: CorrelationKernel) -> float | None:
    """sum over quadruples l1<l2<l3<l4 of <sx sx sx sx>, by nested minors.

    For fixed (t1, t2) the contraction matrix of gap t3 is the leading
    principal submatrix of order t1+t3 of one m x m matrix, m = N-1-t2,
    whose B sites are [0, t1) u [t1+t2, N-1); one elimination therefore
    gives every t3.  All t1 of one t2 share m and go through
    _leading_minors as one stack, split so that no stack holds more than
    _DET_BATCH_ELEMENTS entries.  By the reversal symmetry only t1 <= t3 is
    summed, t1 < t3 with twice the weight N - t1 - t2 - t3.  Returns None
    where _leading_minors breaks down.
    """
    n = kern.ensemble.spec.sites
    g, off = kern._g, kern._off
    total = 0.0
    for t2 in range(1, n - 2):
        m = n - 1 - t2
        order = np.arange(1, m + 1)
        chunk = max(1, _DET_BATCH_ELEMENTS // (m * m))
        for lo in range(1, m // 2 + 1, chunk):
            t1 = np.arange(lo, min(lo + chunk, m // 2 + 1))[:, None]
            b_sites = order - 1 + np.where(order > t1, t2, 0)
            minors = _leading_minors(g[off + b_sites[:, :, None] - b_sites[:, None, :] - 1])
            if minors is None:
                return None
            t3 = order - t1  # the minor of order t1 + t3
            copies = np.where(t3 > t1, 2, t3 == t1)
            total += float(np.sum(copies * (n - t1 - t2 - t3) * minors))
    return total


def fourth_moment_from_kernel(kern: CorrelationKernel) -> float:
    """<J_x^4> given an existing kernel (shared with var_jx computations).

    The all-distinct quadruple sum comes from nested leading minors, one
    blocked elimination per stack of equal-order matrices, in O(N^5) flops.
    Where that elimination breaks down, the whole kernel goes to the
    by-class path instead: one LAPACK det per gap class, O(N^6) flops.  A
    breakdown is a pivot that is zero to working precision, as at T = inf
    (g = 0), on the gamma = -1, h/J = 0 line (every pair matrix singular)
    and in the cold XX chain polarized by h/J > 1.

    Accuracy, measured against the pivoted by-class path at N = 50: over
    two seeded rounds of tscan-quartic points (113 nested points each) the
    quadruple sums differ by up to 2.4e-10 of <J_x^4>, and 9.3e-11 on the
    gamma = -1, h/J = 1 line, both at T = 0.792; at (-0.892, 0.767, 0.792)
    the difference is 1.6e-9.  The other points of those rounds stay within
    1.7e-12.  The large differences sit at gamma < 0 near the critical line,
    where the elimination without row exchanges grows the entries of its
    upper factor by up to 1e17 (about 1 at gamma > 0), yet no multiplier
    crosses the breakdown limit.
    """
    n = kern.ensemble.spec.sites
    pair_sum = _pair_sum(_xx_correlations(kern))
    quad = _nested_quad_sum(kern)
    if quad is None:
        quad = _quad_correlations_by_class(kern)
    # quadruple sum split by coincidence pattern of the four site indices:
    #   all equal            -> N
    #   two distinct pairs   -> 3 N (N-1)
    #   three equal + one    -> 4 * pair_sum
    #   one pair + two others-> 6 (N-2) * pair_sum
    #   all distinct         -> 24 * ordered-quadruple sum
    return (
        n
        + 3.0 * n * (n - 1)
        + (6.0 * n - 8.0) * pair_sum
        + 24.0 * quad
    )


def fourth_moment_jx(ens: ThermalEnsemble) -> float:
    """<J_x^4> of the thermal chain.

    At infinite temperature this is 3N^2 - 2N, the fourth moment of a sum of
    N independent +-1 spins.
    """
    return fourth_moment_from_kernel(kernel(ens))


@dataclass(frozen=True)
class MomentSet:
    """Collective-spin moments of one thermal state (all dimensionless).

    mean_jx is identically zero: the thermal state commutes with the ring
    parity while J_x anticommutes with it, so odd x-moments vanish without
    any numerical cancellation.  var_jx_squared = fourth_jx - var_jx^2 is
    the variance of the observable J_x^2, the noise term of a variance-based
    readout.
    """

    mean_jx: float
    var_jx: float
    mean_jz: float
    var_jz: float
    fourth_jx: float
    var_jx_squared: float


def moments(ens: ThermalEnsemble, modulation: str = "uniform") -> MomentSet:
    """All collective moments of one ensemble with a single shared kernel."""
    kern = kernel(ens)
    vx = var_jx(kern)
    fourth = fourth_moment_from_kernel(kern)
    return MomentSet(
        mean_jx=0.0,
        var_jx=vx,
        mean_jz=mean_jz(ens, modulation),
        var_jz=var_jz_from_kernel(kern, modulation),
        fourth_jx=fourth,
        var_jx_squared=fourth - vx * vx,
    )
