"""Collective-spin moments of the thermal chain via Wick's theorem.

The J_z statistics need no kernel: <J_z>, its slope and Var(J_z) are O(N)
mode sums over the ensemble (Var(J_z) is a density structure factor).  They
read cos(theta_k), sin(theta_k) and cos(2 theta_k) from the mode table and
t_k = 1 - 2 n_k and its slope from the ensemble, each built with its record
(spectrum.ModeTable, thermometry.ThermalEnsemble), and take no
trigonometry of their own.

All x-basis statistics reduce to determinants built from a single vector of
fermionic contractions g_j (the correlation kernel).  Writing A_l and B_l
for the two Majorana-like string operators at site l (A_l^2 = 1,
B_l^2 = -1, all pairs anticommute), the thermal contractions are

    <A_l A_m> = delta_lm,   <B_l B_m> = -delta_lm,
    <A_l B_{l+j}> = g_j = (1/N) sum_k cos(k j + 2 theta_k) (1 - 2 n_k),

with g antiperiodic, g_{j+N} = -g_j.  The cos(k j) and sin(k j) tables
of that sum depend on N alone, so they are built once per ring size and
kept (see _trig_tables): every kernel of a sweep at fixed N after the first
costs two matrix-vector products, and the memo holds 2(2N-1)N floats (2.9
MB at N = 300, 32 MB at N = 1000).  Pair correlators become Toeplitz
determinants; quadruple correlators become Pfaffians whose interleaved
skew-symmetric matrices reduce exactly (block structure, sign +1) to plain
determinants of contraction submatrices.

The pair correlator at separation r is the leading r x r minor of one
(N-1) x (N-1) Toeplitz matrix T, so every separation comes from the
leading minors of a single matrix.  T is the leading block of the
skew-circulant C of order N, whose det is prod t_k and whose inverse is
the kernel with theta -> -theta and t -> 1/t; by Jacobi's
complementary-minor identity the correlators past (N-1)//2 are det C
times leading minors of C^-1, so the leading blocks of T and C^-1 of
order m = N - (N-1)//2 give them all (see _pair_correlations).  Where C
is singular to working precision (at infinite temperature, and at the XX
chain's zero mode at h/J = 0, N = 2 mod 4) the two blocks disagree on
the separation they share, and T takes its minors whole.  The minors
come from orthogonal factors (see the minors module), which keep every
correlator accurate to near roundoff of 1, in absolute terms, on both
blocks: the singular values of C^-1 reach coth(eps_min / 2T), but |det
C| times the volume of any columns of C^-1 is the volume of the
complementary rows of C, at most 1.  A correlator far below 1 has
correspondingly fewer correct digits.  What this and every other layer
costs per call is in the README's layer-timings table.

The <J_x^4> sum needs one such determinant per gap class (t1, t2, t3) of
the four sites, about N^3/12 of them.  Each is a principal minor of the
same pair matrix T, on the sites [0, t1) u [t1+t2, t1+t2+t3), and the
reversed class (t3, t2, t1) has the same determinant, and so has the
class (t3, d, t1) of the four sites rotated round the ring, d = N - t1 -
t2 - t3, so only t1 <= t3 and t2 <= d are summed, each for its whole
orbit.  Read from the reversed class, by Schur's determinant formula, it
is the pair correlator c(t3) times the leading t1 x t1 minor of the window
Sigma_t3[t2:, t2:] of the Schur complement that t3 steps of elimination of
T leave behind, and c(t3) is the product of those t3 pivots.  One O(N^3)
elimination of T therefore serves every class, and for fixed (t3, t2)
every t1 is a leading minor of the window's leading block of order
min(t3, N-t3-2 t2), which one elimination without row exchanges gives as
products of its pivots: O(N^5) flops for the sum instead of the O(N^6) of
one det per class.  The whole sum is one call of the minors module
(minors._gap_class_sum), which takes T and the tolerance below which the
sum may be left out, one ulp of <J_x^4>'s leading terms over 24 (see
fourth_moment_from_kernel).  Where any elimination, of T or of a window
stack, breaks down on a pivot that is zero to working precision, the
engine takes the whole sum another way: it is left out if Hadamard's
inequality certifies it below that tolerance, and otherwise every class
takes the leading minors of its own contraction matrix from orthogonal
factors, as the pair correlators do.  The quadruple sum takes no LAPACK
det; the one-det-per-class sum lives in the tests, as the reference.

A subtlety worth stating once: these formulas describe the Hamiltonian
variant whose fermions are exactly antiperiodic (the boundary bond carries
the ring parity operator; see the oracle module).  That variant is
translation invariant for the fermions but not for the spins, so a spin
pair at sites (l, m), l < m, correlates through the determinant at linear
separation m - l even when the ring distance N - (m - l) is shorter.  Pair
sums below therefore weight separation d by 2(N - d) instead of assuming
ring symmetry; this reproduces the dense matrix values to machine precision
at any size.  It is not the physical periodic chain, and the difference is
not a boundary term: the matched ring admits single domain walls at cost
e^{-Delta/T}, the physical ring only pairs of them, so the two agree only
once N >> e^{Delta/T}.  In the ordered phase at low T that is no ring this
package runs: the Cramer-Rao ceiling at (gamma, h/J, T) = (1, 0.5, 0.05),
N = 50, is 9.6e7 times the physical ring's, and 2.4e15 times at (1, 0, 0.05).
"""
from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import minors
from .spectrum import _read_only, momentum_grid
from .thermometry import ThermalEnsemble

__all__ = [
    "CorrelationKernel",
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
]

MODULATIONS = ("uniform", "half")

# largest difference of the two values of c((N-1)//2) at which the pair
# correlators take the skew-circulant split (see _pair_correlations).
# Measured: at most 2.6e-15 at N = 50 and 60, 5.9e-14 at N = 300 and 9.5e-14
# at N = 1000 where C is regular; 1.9e-5 and more at the zero-mode points of
# N = 50, and 6.9e-10 at N = 1002, T = 0.05.  Where a zero-mode point agrees
# to within it (N = 302, T = 0.3; N = 1002, T >= 0.126), the split is within
# 5.7e-16 of the whole matrix's halving
_SPLIT_AGREEMENT = 1e-12


@dataclass(frozen=True, eq=False)
class CorrelationKernel:
    """The g_j vector of one ensemble, plus its <sx sx> and <sy sy> correlators.

    g holds g_j for j = -(N-1) ... N-1 (g_0 at g[N-1]) and is made
    read-only.  The correlators of every separation along one axis are
    computed together, once, on first read, to an absolute accuracy near
    roundoff of 1 (see _pair_correlations); xx_correlation, var_jx and the
    pair sum of fourth_moment_from_kernel read xx, yy_correlation and
    var_jy read yy.
    """

    ensemble: ThermalEnsemble
    g: np.ndarray

    def __post_init__(self) -> None:
        n = self.ensemble.spec.sites
        if self.g.shape != (2 * n - 1,):
            raise ValueError(f"need 2N-1 coefficients, got shape {self.g.shape}")
        _read_only(self.g)

    @functools.cached_property
    def xx(self) -> np.ndarray:
        """<sx_0 sx_r>, r = 0 ... N-1, read-only."""
        return _read_only(_pair_correlations(self, shift=-1))[0]

    @functools.cached_property
    def yy(self) -> np.ndarray:
        """<sy_0 sy_r>, r = 0 ... N-1, read-only."""
        return _read_only(_pair_correlations(self, shift=+1))[0]

    def coefficient(self, j: int) -> float:
        n = self.ensemble.spec.sites
        if not (-(n - 1) <= j <= n - 1 and j == int(j)):
            raise ValueError(f"j must be an integer in [-(N-1), N-1], got {j}")
        return float(self.g[n - 1 + int(j)])


@functools.lru_cache(maxsize=1)
def _trig_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    # cos(k j) and sin(k j) for j = -(N-1) ... N-1 down the rows and k on the
    # antiperiodic grid of the mode table across, read-only: they depend on N
    # alone, so a sweep at fixed N builds them for its first kernel only
    kj = np.outer(np.arange(-(n - 1), n), momentum_grid(n))
    return _read_only(np.cos(kj), np.sin(kj))


def _contractions(ens: ThermalEnsemble, t: np.ndarray, rows: slice = slice(None),
                  angle_sign: float = 1.0) -> np.ndarray:
    """(1/N) sum_k cos(k j + 2 s theta_k) t_k, s = angle_sign, on rows of j = -(N-1) ... N-1.

    The one mode transform of the module: the kernel's g reads t from the
    ensemble's polarizations t_k = 1 - 2 n_k, var_jx_slope's vector their
    slopes T dt_k/dT, and _inverse_block the entries of C^-1 with theta
    -> -theta (angle_sign -1) and t -> 1/t, on the rows it needs.  By the
    angle-sum formula the sum is (cos(kj) @ a - sin(kj) @ b) / N with the
    O(N) products a = cos(2 theta) t and b = angle_sign sin(2 theta) t,
    whose cos(2 theta) and sin(2 theta) the mode table holds; the (2N-1) x
    N tables come from the memo of _trig_tables, which keeps the last ring
    size's pair alive (2(2N-1)N floats: 2.9 MB at N = 300, 32 MB at N =
    1000) and rebuilds them only when N changes.  The rows are sliced
    before the products: slicing the full product moves last bits.
    """
    cos_kj, sin_kj = _trig_tables(ens.spec.sites)
    cos_2t, sin_2t = ens.modes.double_angle
    return (cos_kj[rows] @ (cos_2t * t)
            - sin_kj[rows] @ (angle_sign * sin_2t * t)) / ens.spec.sites


def kernel(ens: ThermalEnsemble) -> CorrelationKernel:
    """Contraction vector g_j of a thermal ensemble.

    At infinite temperature 1 - 2 n_k = 0 for every mode, so g vanishes
    identically and all Wick structure collapses to on-site values.  The
    cos(kj) and sin(kj) tables are memoized on N, one ring size at a time
    (2(2N-1)N floats, 32 MB at N = 1000): the first kernel of a ring size
    builds them in O(N^2) transcendental evaluations, and every later one
    costs two matrix-vector products.
    """
    return CorrelationKernel(ens, _contractions(ens, ens.polarizations))


def xx_correlation(kern: CorrelationKernel, r: int) -> float:
    """<sx_l sx_{l+r}> as the r x r Toeplitz determinant with entries g_{a-b-1}.

    r = 0 returns 1 (same site); valid for 0 <= r <= N-1.  Reads the
    kernel's correlator array, which one recursive QR halving of two
    blocks of about half order, stacked, fills for all r at once (see
    _pair_correlations).  The error is
    absolute, near roundoff of 1 whatever the size of the correlator,
    because the minors come from orthogonal factors, whose minors are at
    most 1 in magnitude: a correlator of 1e-10 keeps only about six correct
    digits.  Var(J_x) weights them by at most 2N, so its absolute error is
    at most about N^2 times theirs; against the 40-digit reference of
    tools/mp_reference.py, Var(J_x) and Var(J_y) are within 8.8e-15
    relative at the nine test grid points, N = 60 and 300.
    """
    return kern.xx[_separation(kern, r)].item()


def yy_correlation(kern: CorrelationKernel, r: int) -> float:
    """<sy_l sy_{l+r}>; same Toeplitz structure with entries g_{a-b+1}.

    Not part of the main observable set -- it exists because the y-axis
    variance at anisotropy gamma must equal the x-axis variance at -gamma,
    which makes a sharp cross-check of the whole kernel machinery.  Reads
    the kernel's y correlator array, filled as the x one is (see
    xx_correlation).
    """
    return kern.yy[_separation(kern, r)].item()


def _separation(kern: CorrelationKernel, r) -> int:
    # r as an int; a separation outside [0, N-1] or not integral is refused
    n = kern.ensemble.spec.sites
    if not (0 <= r <= n - 1 and r == int(r)):
        raise ValueError(f"separation must be an integer in [0, N-1], got {r}")
    return int(r)


def _toeplitz(values: np.ndarray, diagonal: int, m: int) -> np.ndarray:
    # the m x m matrix M[a, b] = values[diagonal + a - b]
    a = np.arange(m)
    return values[diagonal + a[:, None] - a[None, :]]



def _inverse_block(kern: CorrelationKernel, shift: int, m: int) -> np.ndarray | None:
    """The leading block of order m of C^-1, or None where some 1/t_k or entry is not finite.

    C[a, b] = g_{shift+a-b}, a, b = 0 ... N-1, with g_{j+N} = -g_j, is
    skew-circulant: the antiperiodic modes diagonalize it, with eigenvalues
    e^{i(k shift + 2 theta_k)} t_k whose phases cancel in pairs k, -k, so
    det C = prod t_k, and C^-1 is the kernel sum with theta -> -theta and
    t -> 1/t, C^-1[a, b] = (1/N) sum_k cos(k (a-b-shift) - 2 theta_k) / t_k,
    the kernel's own mode transform (_contractions).
    """
    n = kern.ensemble.spec.sites
    # C^-1[a, b] reads j = a - b - shift in [-(m-1) - shift, m-1 - shift]
    rows = slice(n - m - shift, n + m - 1 - shift)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values = _contractions(kern.ensemble, 1.0 / kern.ensemble.polarizations, rows,
                               angle_sign=-1.0)
    return _toeplitz(values, m - 1, m) if np.isfinite(values).all() else None


def _pair_correlations(kern: CorrelationKernel, shift: int) -> np.ndarray:
    """Pair correlators of every separation r = 0 ... N-1 (x: shift -1, y: +1).

    Correlator r is the leading r x r minor of the (N-1) x (N-1) Toeplitz
    matrix M[a, b] = g_{shift+a-b}, and minors._halving_minors gives them from
    orthogonal factors, with no pivot to break down.  M is the leading
    block of the skew-circulant C of order N (see _inverse_block), so by
    Jacobi's complementary-minor identity c(r) = det C * det C^-1[r:, r:],
    and C^-1 is Toeplitz too: its trailing block of order N-r is its
    leading one.  So with h = (N-1)//2 and m = N-h, M's leading block of
    order m gives c(1) ... c(h), and C^-1's leading block of order m gives
    c(h) ... c(N-1): both blocks go down the halving as one (2, m, m)
    stack in one call, minors._complementary_minors, about a quarter of
    the flops of one halving of order N-1, which scales C^-1's minors by
    det C = prod t_k without leaving the float range (det C is 1e-1002 for
    the XX chain at h/J = 0, N = 1000 and temperature 5).
    Both give c(h), and the split is taken only where they agree to
    _SPLIT_AGREEMENT.  Elsewhere C is singular to working precision (at
    infinite temperature, where g = 0 and every t_k = 0, or at the zero
    mode of the XX chain at h/J = 0 and N = 2 mod 4, where t_k of k = pi/2
    is roundoff), and the whole matrix M takes one halving, which needs no
    inverse: at N = 50 the split is off by up to 2.7e-2 there.
    M is a block of the Majorana correlation matrix, whose singular values
    tanh(eps_k / 2T) are at most 1, so every prod |R_ii| of its
    halving is at most 1 too, and the error of every correlator is
    absolute, near roundoff of 1, not relative to the correlator.  The
    singular values of C^-1 reach coth(eps_min / 2T), but the error of
    the second half stays absolute all the same: |det C| times the volume
    of any set of columns of C^-1 is the volume of the complementary rows
    of C (Jacobi again), at most 1, and the leading columns of C^-1's block
    have at most the volume of the columns they are cut from, so |det C|
    prod_{i<=r} |R_ii| <= 1 for every r.
    Householder reflections take norms, which are not complex-analytic:
    the kernel must be real.
    """
    n = kern.ensemble.spec.sites
    g = np.asarray_chkfinite(kern.g)
    h = (n - 1) // 2
    m = n - h
    inverse = _inverse_block(kern, shift, m)
    if inverse is not None:
        lead, tail = minors._complementary_minors(
            np.stack((_toeplitz(g, n - 1 + shift, m), inverse)), kern.ensemble.polarizations)
        if abs(tail[-1] - lead[h - 1]) <= _SPLIT_AGREEMENT:
            return np.concatenate(([1.0], lead[:h], tail[-2::-1]))
    return np.concatenate(([1.0], minors._halving_minors(_toeplitz(g, n - 1 + shift, n - 1))))


def _pair_sum(corr: np.ndarray) -> float:
    # sum of <s s> over all ordered site pairs: separation d pairs up
    # (N - d) times each way along the fermionic ordering
    n = len(corr)
    return 2.0 * sum((n - d) * c for d, c in enumerate(corr.tolist()) if d)


def var_jx(kern: CorrelationKernel) -> float:
    """Variance of J_x = sum_l sx_l; equals <J_x^2> since <J_x> = 0."""
    return kern.ensemble.spec.sites + _pair_sum(kern.xx)


def var_jx_slope(kern: CorrelationKernel) -> float:
    """T * dVar(J_x)/dT, exact to roundoff (complex-step derivative).

    The pair determinants are polynomials in the g_j, so the pair sums of
    the complex kernel g + i s T dg/dT are Var(J_x) + i s T dVar(J_x)/dT +
    O(s^2), with no subtraction.  Unlike det * tr(M^-1 dM) this stays finite
    where pair matrices are singular (gamma = -1, h/J = 0).  The complex
    (N-1) x (N-1) pair matrix is gathered once, and, as Householder
    reflections are not complex-analytic, each of its leading r x r blocks
    takes one LAPACK det (minors._det_minors): O(N^4) flops.
    """
    ens = kern.ensemble
    n = ens.spec.sites
    step = 2.0**-64  # a power of two, so scaling by it is exact
    stepped = kern.g + 1j * step * _contractions(ens, ens.polarization_slopes)
    corr = minors._det_minors(_toeplitz(stepped, n - 2, n - 1))
    return (n + _pair_sum(corr)).imag / step


def var_jy(kern: CorrelationKernel) -> float:
    """Variance of J_y; satisfies var_jy(gamma) = var_jx(-gamma) exactly."""
    return kern.ensemble.spec.sites + _pair_sum(kern.yy)


def _check_modulation(modulation: str) -> None:
    """Refuse a probe other than those of the J_z functions.

    The probe weights site l by cos^2(k_p l d): "uniform" is the
    unmodulated probe (k_p d = pi, every weight 1); "half" modulates at
    k_p d = pi/2, weighting even sites 1 and odd sites 0.
    """
    if modulation not in MODULATIONS:
        raise ValueError(f"unknown modulation {modulation!r}; expected one of {MODULATIONS}")


def _jz_mode_sum(ens: ThermalEnsemble, modulation: str, t: np.ndarray) -> float:
    # sum_l w_l <sz_l> with <sz_l> = -g_0, an O(N) mode sum without a kernel;
    # the weights sum to N (uniform) or N/2 (half), both exact
    _check_modulation(modulation)
    n = ens.spec.sites
    g0 = float((ens.modes.double_angle[0] * t).sum()) / n
    return (n if modulation == "uniform" else n / 2) * -g0


def mean_jz(ens: ThermalEnsemble, modulation: str = "uniform") -> float:
    """Mean of the modulated J_z = sum_l w_l sz_l.

    With h > 0 the chain polarizes toward +z (Hamiltonian -h sum sz), so the
    uniform value approaches +N in a saturating field.
    """
    return _jz_mode_sum(ens, modulation, ens.polarizations)


def mean_jz_slope(ens: ThermalEnsemble, modulation: str = "uniform") -> float:
    """T * d<J_z>/dT, exact: the mean's mode sum with T d(1 - 2 n_k)/dT."""
    return _jz_mode_sum(ens, modulation, ens.polarization_slopes)


def _structure_terms(modes: Sequence[np.ndarray], shifted: Sequence[np.ndarray]) -> np.ndarray:
    """The terms of S(q) = sum_{l, m} e^{iq(l - m)} <sz_l sz_m>_c, one per mode.

    The free-fermion density structure factor (Barouch & McCoy, Phys. Rev.
    A 3, 786, 1971), with t_k = 1 - 2 n_k >= 0 on the antiperiodic grid:

        S(q) = 2 sum_k [n_k (1 - n_{k+q}) + n_{k+q} (1 - n_k)
                        + sin^2(theta_k + theta_{k+q}) t_k t_{k+q}],

    their cos^2/sin^2 form regrouped so that every term is non-negative.
    modes holds the rows (cos theta_k, sin theta_k, n_k, t_k), and shifted
    the same rows at k + q; the bracket comes back column by column.
    """
    cos_t, sin_t, n, t = modes
    cos_q, sin_q, n_q, t_q = shifted
    pairing = (sin_t * cos_q + cos_t * sin_q) ** 2  # sin^2(theta_k + theta_{k+q})
    return n * (1.0 - n_q) + n_q * (1.0 - n) + pairing * t * t_q


def var_jz(ens: ThermalEnsemble, modulation: str = "uniform") -> float:
    """Variance of the modulated J_z = sum_l w_l sz_l, an O(N) mode sum.

    The uniform probe reads S(0).  The half probe weights w_l = (1 + (-1)^l)/2,
    so it reads (S(0) + S(pi))/4: N is even, and momentum conservation
    removes the cross term.  Exactly 0 in a frozen chain.  The rotation
    comes from the mode table, n and t = 1 - 2 n from the ensemble.  k + q
    is a shift of the grid's index (see _structure_terms): none for q = 0,
    and N/2 for q = pi, the mode rows rolled by N/2.
    """
    _check_modulation(modulation)
    rows = (*ens.modes.rotation, ens.occupations, ens.polarizations)
    s0 = 2.0 * float(_structure_terms(rows, rows).sum())
    if modulation == "uniform":
        return s0
    # the rows rolled by N/2, by two slices: a fifth of the time of np.roll
    modes, h = np.array(rows), ens.spec.sites // 2
    s_pi = 2.0 * float(_structure_terms(modes, np.hstack((modes[:, h:], modes[:, :h]))).sum())
    return 0.25 * (s0 + s_pi)


def fourth_moment_from_kernel(kern: CorrelationKernel) -> float:
    """<J_x^4> given an existing kernel (shared with var_jx computations).

    The all-distinct part sums <sx sx sx sx> over quadruples l1 < l2 < l3
    < l4, one term per gap class (t1, t2, t3) of the four sites, weighted
    by its N - t1 - t2 - t3 origins.  The contraction matrix of class (t1,
    t2, t3) is T[S, S] for the pair matrix T[a, b] = g_{a-b-1} on bond
    sites 0 ... N-2 and S = [0, t1) u [t1+t2, t1+t2+t3).  Reversing the
    order of the sites transposes it and reverses its rows and columns, so
    the reversed class (t3, t2, t1) has the same det, and only t1 <= t3 is
    summed, each class read from its reverse: S' = F u W, F = [0, t3), W =
    [t3+t2, t3+t2+t1).  By Schur's determinant formula that det is c(t3) *
    det Sigma_t3[W, W], with c(t3) = det T[F, F] the pair correlator, and
    W is the leading t1 x t1 block of the window Sigma_t3[t2:, t2:].
    Rotating the four sites round the ring by one maps class (t1, t2, t3)
    to (t3, d, t1), d = N - t1 - t2 - t3, with the same det, so only t2 <=
    d is read, and a class with t2 < d counts for its partner (t1, d, t3)
    too.  As t1 <= min(t3, N-t3-2 t2), the window is needed only to that
    order, and one elimination of its leading block of that order gives
    every t1 of its (t3, t2): the quotient property of Schur complements
    (Crabtree & Haynsworth, 1969) makes the window's own elimination
    continue that of T.  So one elimination of T, kept for N-3 steps,
    gives every Sigma_t3, 576 windows at N = 50 (1128 with every t2 read),
    and the whole sum is one call of the minors engine,
    minors._gap_class_sum, which takes T and a tolerance: O(N^5) flops
    (timed in the README's layer-timings table).  Reading each class from
    its smaller outer gap t1 instead, as c(t1) times a minor of order t3 of
    Sigma_t1[t2:, t2:], eliminates every window whole: 576 windows at N =
    50 too, but 13.5 times the flops, and at the four gamma < 0 points of
    test_nested_minors_near_the_negative_gamma_critical_line, N = 50, it
    was 1.2e-10 to 8.9e-10 of <J_x^4> off, where this order is 1.9e-13 to
    2.9e-11 off.

    c(t3) is the product of the first t3 pivots of that elimination of T:
    Schur's formula in the elimination's own arithmetic.  The kernel's
    memo of pair correlators, which the pair sum reads, is accurate in
    absolute terms only; at (1, 2, 0.05), N = 60, its c(29) = 2.6e-10 is
    5.5e-7 off in relative terms, and with c(t3) read from the memo the
    sum would be 1.2e-9 of <J_x^4> off there (8.5e-9 at (-0.7, 0.3,
    0.05), N = 60), against 4e-17 and 3e-18 from the pivots.

    A breakdown is a pivot that is zero to working precision, as at T =
    inf (g = 0), on the gamma = -1, h/J = 0 line (every pair matrix
    singular) and in the cold XX chain polarized by h/J > 1.  Where any
    elimination breaks down, the pair matrix's at any step or a window
    stack's, the engine takes the whole quadruple sum another way, over
    the same classes, one per ring-rotation orbit, with the same weights:
    it is 0 if Hadamard's inequality certifies that the classes move
    <J_x^4> by less than one ulp of its two leading terms N + 3N(N-1), so
    the tolerance is eps (N + 3N(N-1)) / 24, as the sum enters times 24,
    and otherwise every class takes the leading minors of its own
    contraction matrix from orthogonal factors, 300 matrices at N = 50.
    No LAPACK det runs.  On those lines the x spins are uncorrelated, and
    the certified points give 3N^2 - 2N to roundoff (timed in the
    breakdown rows of the README's layer-timings table).  Measured at N =
    30, 40, 50, 60, 80 and 100, the bound certifies gamma = -1, h/J = 0 at T =
    0.05, 0.3 and 5, the cold XX chain at h/J = 2, T = 0.05, and T = inf,
    where the sum is exactly 0.  Below 30 sites the gamma = -1 line at T
    <= 0.3 sits at the bound's edge (24 * margin * bound / (eps * lead) =
    0.45 ... 2.1), and the rings of 6, 8, 12 and 14 sites, and of 16 at
    T = 0.05, take the orthogonal minors; so does a breakdown at a point
    whose correlations are not negligible, where the bound is O(1).  The
    fallback takes the whole point, never the classes of the broken stack
    alone: at (-0.9653537597782795, 0.2609446655556303, 0.05), N = 50,
    where one window stack breaks down, that split left the quadruple sum
    1.8e-8 of <J_x^4> off the by-class reference, as the windows that did
    not break down lose about 8 digits there; the whole-point fallback is
    2.8e-17 off.

    Accuracy, measured against the pivoted one-det-per-gap-class sum at
    N = 50: over the 186 distinct points of round 0 of tscan-quartic at
    seeds 4 and 11 the quadruple sums differ by at most 1.9e-15 of <J_x^4>
    at gamma >= 0 (102 points) and by up to 1.20e-10 at gamma < 0 (84
    points, worst at (-1, 1, 0.7924), the only one above 1e-11).  On a 7 x
    7 grid of gamma in [-0.979, -0.973], h/J in [0.382, 0.388] at T =
    0.3155 the median is 1.8e-13 and the largest 6.9e-13.  Neither sample
    bounds the gamma < 0 error.  It comes from
    elimination without row exchanges, whose upper factor can grow by up
    to 1e17 near that critical line (about 1 at gamma > 0) while no
    multiplier crosses the breakdown limit; a bound needs orthogonal
    factors.
    """
    n = kern.ensemble.spec.sites
    pair_sum = _pair_sum(kern.xx)
    lead = n + 3.0 * n * (n - 1)
    quad = minors._gap_class_sum(_toeplitz(kern.g, n - 2, n - 1), minors._EPS * lead / 24.0)
    # quadruple sum split by coincidence pattern of the four site indices:
    #   all equal            -> N
    #   two distinct pairs   -> 3 N (N-1)
    #   three equal + one    -> 4 * pair_sum
    #   one pair + two others-> 6 (N-2) * pair_sum
    #   all distinct         -> 24 * ordered-quadruple sum
    return lead + (6.0 * n - 8.0) * pair_sum + 24.0 * quad


def fourth_moment_jx(ens: ThermalEnsemble) -> float:
    """<J_x^4> of the thermal chain.

    At infinite temperature this is 3N^2 - 2N, the fourth moment of a sum of
    N independent +-1 spins.
    """
    return fourth_moment_from_kernel(kernel(ens))

