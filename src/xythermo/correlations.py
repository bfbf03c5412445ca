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
leading minors of a single matrix.  They come from orthogonal factors
alone, by recursive halving (see _halving_minors): O(N^3) flops for all
N - 1 minors, instead of O(N^4) for one det per separation.  The halving
takes a stack of matrices of one order: each step of its recursion
factors the whole stack in one call of numpy's stacked LAPACK QR (the
gufuncs np.linalg.qr is built from), and blocks of order _LEAF or less
take every minor from one more, so that no code path of the package
imports scipy.  Every matrix of a stack gets the LAPACK calls it would
get alone, so its minors are the same bits.  Var(J_x) takes medians of
0.56 ref units (calls of the benchmark's speed probe, about 1 ms) at N =
50, 4.6 at N = 300 and 59 at N = 1000 (BENCH_24.json).  T is the
leading block of the skew-circulant C of order N, whose det is prod t_k
and whose inverse is the kernel with theta -> -theta and t -> 1/t; by
Jacobi's complementary-minor identity the correlators past
(N-1)//2 are det C times leading minors of C^-1, so the leading blocks of
T and C^-1 of order m = N - (N-1)//2 give them all, a quarter of the
flops of one halving of T.  They go down the halving as one (2, m, m)
stack, and each level splits a block into two of equal order ceil(n/2),
so the whole route takes one stacked call of each LAPACK routine per
level (see _pair_correlations).  Where C is singular to working precision (at
infinite temperature, and at the XX chain's zero mode at h/J = 0, N = 2
mod 4) the two halves disagree on the separation they share, and T takes
one halving whole.
Elimination without row exchanges would be cheaper still, but it is
unstable here: the pair correlator falls to ~1e-19 halfway round the
ring and grows again toward r = N - 1, and the pivot ratios blow up with
it.  Orthogonal factors keep every correlator accurate to near roundoff
of 1, in absolute terms, on both halves: the singular values of C^-1
reach coth(eps_min / 2T), but |det C| times the volume of any columns of
C^-1 is the volume of the complementary rows of C, at most 1.  A
correlator far below 1 has correspondingly fewer correct digits.

The <J_x^4> sum needs one such determinant per gap class (t1, t2, t3) of
the four sites, about N^3/12 of them.  Each is a principal minor of the
same pair matrix T, on the sites [0, t1) u [t1+t2, t1+t2+t3), and the
reversed class (t3, t2, t1) has the same determinant, so only t1 <= t3 is
summed.  Read from the reversed class, by Schur's determinant formula, it
is the pair correlator c(t3) times the leading t1 x t1 minor of the window
Sigma_t3[t2:, t2:] of the Schur complement that t3 steps of elimination of
T leave behind, and c(t3) is the product of those t3 pivots.  One O(N^3)
elimination of T therefore serves every class, and for fixed (t3, t2)
every t1 is a leading minor of the window's leading block of order
min(t3, N-1-t3-t2), which one elimination without row exchanges gives as
products of its pivots: O(N^5) flops for the sum instead of the O(N^6) of
one det per class, and by a (2/3) k^3 flop count 7.1 (N = 50) to 7.4 (N =
200) times fewer than reading each class from its smaller outer gap t1,
whose windows must be eliminated whole.  The windows are eliminated in
stacks, each at a panel-aligned offset in an identity matrix, so that no
flop goes to the identity before a window and a window's pivots do not
depend on its stack.  Where any elimination, of T or of a window stack,
breaks down on a pivot that is zero to working precision (see
fourth_moment_from_kernel), the whole sum goes to one fallback instead: it
is left out if Hadamard's inequality certifies it below one ulp of
<J_x^4>, and otherwise every class takes the leading minors of its own
contraction matrix from orthogonal factors, as the pair correlators do.
The quadruple sum takes no LAPACK det; the one-det-per-class sum lives in
the tests, as the reference.

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
from numpy.lib.stride_tricks import sliding_window_view
from numpy.linalg import _umath_linalg

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

# cap on matrix entries in one stack of the quadruple sum (2.4 MB of
# float64), whether it holds Schur windows or, at a point where an
# elimination broke down, the contraction matrices of one t2 that
# _fallback_sum bounds and, failing that, minors; chosen by timing
# the windows of order min(t3, N-1-t3-t2), medians at (1, 0.5, 0.3) and
# (-0.977, 0.386, 0.3155): 100k-400k entries time alike at N = 50 (600k is
# 10 % slower), 200k-400k at N = 100 (100k is 10 % and 600k 25 % slower),
# and 300k-600k at N = 200 (200k is 10 % and 100k 30 % slower).  The
# fallback's stacks keep the value they were timed with (200k-300k fastest
# at N = 100, breakdown points)
_DET_BATCH_ELEMENTS = 300_000
# width of the diagonal panels inside which _leading_minors takes scalar steps,
# and where a panel's multipliers sit in its diagonal block; every window of
# a stack starts at a multiple of it
_PANEL = 8
_STRICTLY_LOWER = np.tri(_PANEL, k=-1, dtype=bool)
_EPS = np.finfo(float).eps
# a multiplier above 1/eps means its pivot is below roundoff of the entries
# it eliminates, i.e. zero to working precision
_MULTIPLIER_LIMIT = 1.0 / _EPS
# order at and below which a block of the halving recursion takes all its
# leading minors from one stacked QR (_leaf_minors) instead of recursing;
# chosen by timing var_jx at N = 50, 300 and 1000 and the fallback sum of
# a window breakdown point at N = 50, best of four: 16 and 20 time alike
# (within 9 %); 12 is 18 % and 8 31 % slower at N = 50, and 24 and 32
# are 40-55 % slower on the fallback sum
_LEAF = 16
# mantissas in [1/2, 1) whose product stays a normal float: (1/2)^1000 > 2^-1022
_MANTISSA_RUN = 1000
# largest difference of the two values of c((N-1)//2) at which the pair
# correlators take the skew-circulant split (see _pair_correlations).
# Measured: at most 2.6e-15 at N = 50 and 60, 5.9e-14 at N = 300 and 9.5e-14
# at N = 1000 where C is regular; 1.9e-5 and more at the zero-mode points of
# N = 50, and 6.9e-10 at N = 1002, T = 0.05.  Where a zero-mode point agrees
# to within it (N = 302, T = 0.3; N = 1002, T >= 0.126), the split is within
# 5.7e-16 of the whole matrix's halving
_SPLIT_AGREEMENT = 1e-12
# factor on Hadamard's bound of the classes of a breakdown point; it
# covers the rounding of the computed bound, a sum of at most N^3/12
# non-negative terms, each a product of at most N square roots of prefix sums
# of squares, whose relative error is below (N^2 + N^3/12) eps, far below 1
_ROUNDING_MARGIN = 2.0


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


def _halving_minors(a: np.ndarray) -> np.ndarray:
    """Leading principal minors det a[..., :r, :r], r = 1 ... n, of a real (..., n, n) stack.

    With a = QR (LAPACK dgeqrf/dorgqr), minor r of a is minor r of Q times
    the product of the first r diagonal entries of R, and det Q = -1 to the
    number of Householder reflections that are not the identity.
    Since Q is orthogonal, Jacobi's complementary-minor identity gives
    det Q[:r, :r] = det Q * det Q[r:, r:].  So with h = ceil(n/2) the
    minors of order up to h are the leading minors of Q[:h, :h], those of
    higher order the trailing minors of Q[n-h:, n-h:], i.e. the leading
    minors of that block reversed in rows and columns; for odd n the two
    blocks overlap by one row and column, and both give minor h.  The two
    blocks are of one order, so they go down as one stack, to order
    _LEAF, where one stacked QR gives every minor of a block (see
    _leaf_minors): O(n^3) flops, with no division and no pivot.  Each
    level factors its whole stack in one call of numpy's stacked LAPACK QR
    (see _split), so a stack costs as many calls as one matrix, one per
    level whatever the parity of its order.  Every matrix gets the LAPACK
    calls it would get alone, on the same bytes, so its minors do not
    depend on the stack it comes in.
    Every block that recurses is part of an orthogonal matrix, so its
    minors are at most 1 in magnitude and come out with an absolute error
    of a few ulps of 1; minor r of a carries that error times prod |R_ii|.
    """
    if a.shape[-1] <= _LEAF:
        return _leaf_minors(a)
    minors, diagonal = _split(a)
    return minors * np.cumprod(diagonal, axis=-1)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One level of the halving: a = QR for each matrix of a (..., n, n) stack.

    Returns Q's leading minors, from the halving of its leading and
    trailing diagonal blocks of order ceil(n/2) as one (2, ..., h, h)
    stack, and R's diagonal, whose cumulative products the caller
    multiplies in.  The factors come from the two gufuncs that
    np.linalg.qr is built from: qr_r_raw (dgeqrf, in place, returning the
    reflections' tau, which np.linalg.qr does not return with Q) and
    qr_reduced (dorgqr).  A LAPACK failure sets the invalid flag, which
    raises.
    """
    n = a.shape[-1]
    h = (n + 1) // 2
    factors = np.array(a, dtype=float)  # qr_r_raw overwrites it with the factors
    with np.errstate(invalid="raise"):
        tau = _umath_linalg.qr_r_raw(factors)
        q = _umath_linalg.qr_reduced(factors, tau)
    lead, trail = _halving_minors(np.stack((q[..., :h, :h],
                                            q[..., n - h:, n - h:][..., ::-1, ::-1])))
    # minor r > h of Q is det Q times det Q[r:, r:], minor n-r of the
    # reversed trailing block, or the empty det 1 at r = n; that block's
    # minors of order n-h and up would give minors h and below again
    minors = np.concatenate((lead, np.flip(trail[..., :n - h - 1], -1),
                             np.ones(lead.shape[:-1] + (1,))), axis=-1)
    minors[..., h:] *= (1.0 - 2.0 * (np.count_nonzero(tau, axis=-1) % 2))[..., None]
    return minors, np.diagonal(factors, axis1=-2, axis2=-1)


@functools.lru_cache(maxsize=_LEAF)
def _outside_leading_blocks(n: int) -> np.ndarray:
    # (n, n, n) mask, read-only: entry [j, a, b] is outside the leading
    # (j+1) x (j+1) block
    order = np.arange(n)
    return _read_only(np.maximum.outer(order, order) > order[:, None, None])[0]


def _leaf_minors(a: np.ndarray) -> np.ndarray:
    """Every leading minor of each small block of a (..., n, n) stack, from one stacked QR.

    Matrix j of a block's stack is the identity with its leading (j+1) x
    (j+1) block replaced by the block's, so its det is minor j + 1.  One
    call of LAPACK dgeqrf through numpy's stacked gufunc (qr_r_raw, as in
    _split) factors every matrix of every block, and det = prod R_ii
    times -1 to the number of reflections that are not the identity, the
    sign rule of the recursion: on the identity's columns there is nothing
    below the diagonal to reflect, so tau = 0 and R_ii = 1.
    """
    n = a.shape[-1]
    factors = np.where(_outside_leading_blocks(n), np.eye(n), a[..., None, :, :])
    with np.errstate(invalid="raise"):
        tau = _umath_linalg.qr_r_raw(factors)
    signs = 1.0 - 2.0 * (np.count_nonzero(tau, axis=-1) % 2)
    return signs * np.prod(np.diagonal(factors, axis1=-2, axis2=-1), axis=-1)


def _binary_cumprod(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative products of x as mantissas m and integer exponents e, m 2^e.

    No product leaves the float range, however many factors there are: the
    mantissas of x (np.frexp, in [1/2, 1)) multiply in runs of
    _MANTISSA_RUN, short enough to stay normal floats, each run scaled by
    the last mantissa of the run before it, renormalized.
    """
    mantissas, exponents = np.frexp(x)
    exponents = np.cumsum(exponents)
    carry, shift = 1.0, 0
    for lo in range(0, len(x), _MANTISSA_RUN):
        run = mantissas[lo:lo + _MANTISSA_RUN]
        np.cumprod(run, out=run)
        run *= carry
        exponents[lo:lo + _MANTISSA_RUN] += shift
        carry, step = np.frexp(run[-1])
        shift += int(step)
    return mantissas, exponents


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
    matrix M[a, b] = g_{shift+a-b}, and _halving_minors gives them from
    orthogonal factors, with no pivot to break down.  M is the leading
    block of the skew-circulant C of order N (see _inverse_block), so by
    Jacobi's complementary-minor identity c(r) = det C * det C^-1[r:, r:],
    and C^-1 is Toeplitz too: its trailing block of order N-r is its
    leading one.  So with h = (N-1)//2 and m = N-h, M's leading block of
    order m gives c(1) ... c(h), and C^-1's leading block of order m gives
    c(h) ... c(N-1): both blocks go down the halving as one (2, m, m)
    stack, from one _split, each level in one stacked call of each LAPACK
    routine, about a quarter of the flops of one halving of order N-1.  M's minors take
    the cumulative products of its R diagonal, C^-1's det C = prod t_k
    times those of its own, carried in mantissas and exponents
    (_binary_cumprod): det C is 1e-1002 for the XX chain at h/J = 0, N =
    1000 and temperature 5.
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
        minors, diagonal = _split(np.stack((_toeplitz(g, n - 1 + shift, m), inverse)))
        lead = minors[0, :h] * np.cumprod(diagonal[0, :h])
        mantissas, exponents = _binary_cumprod(np.concatenate((kern.ensemble.polarizations,
                                                               diagonal[1])))
        tail = np.ldexp(mantissas[n:] * minors[1], exponents[n:])
        if abs(tail[-1] - lead[-1]) <= _SPLIT_AGREEMENT:
            return np.concatenate(([1.0], lead, tail[-2::-1]))
    return np.concatenate(([1.0], _halving_minors(_toeplitz(g, n - 1 + shift, n - 1))))


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
    takes one LAPACK det: O(N^4) flops.
    """
    ens = kern.ensemble
    n = ens.spec.sites
    step = 2.0**-64  # a power of two, so scaling by it is exact
    stepped = kern.g + 1j * step * _contractions(ens, ens.polarization_slopes)
    pairs = _toeplitz(stepped, n - 2, n - 1)
    corr = np.array([np.linalg.det(pairs[:r, :r]) for r in range(n)])
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


def _leading_minors(mats: np.ndarray, offsets: np.ndarray) -> np.ndarray | None:
    """Every leading principal minor of each matrix in a (B, m, m) stack.

    Gaussian elimination without row exchanges, in place: the minor of
    order k is the product of the first k pivots (Golub & Van Loan, Matrix
    Computations, sec. 3.2).  Matrix i counts as the identity on its first
    offsets[i] rows and columns, a multiple of _PANEL that ascends down the
    stack, so the diagonal panel [k0, k1) is factored only for the prefix
    of matrices with an offset below k1; the others keep pivots of 1, and
    no entry of a matrix before its offset is read.
    Scalar steps run only inside a panel, on contiguous copies of its
    columns and of its rows of the upper factor with the batch axis
    innermost, and keep nothing but its pivots; the trailing Schur
    complement then takes one batched matmul of contiguous multipliers and
    upper rows.  A matrix's pivots are thus the same floating-point
    operations, whatever its offset and whatever else shares its stack.
    Returns None on breakdown: a pivot that is zero to working precision
    (some multiplier above _MULTIPLIER_LIMIT), or any value that is not
    finite.
    """
    m = mats.shape[-1]
    pivots = np.ones(mats.shape[:2])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k0 in range(0, m, _PANEL):
            k1 = min(k0 + _PANEL, m)
            w, active = k1 - k0, np.searchsorted(offsets, k1)
            cols = mats[:active, k0:, k0:k1].transpose(1, 2, 0).copy()  # (m - k0, w, B)
            rows = mats[:active, k0:k1, k1:].transpose(1, 2, 0).copy()  # (w, m - k1, B)
            for j in range(w):
                cols[j + 1:, j] /= cols[j, j]
                cols[j + 1:, j + 1:] -= cols[j + 1:, j, None] * cols[j, None, j + 1:]
                rows[j + 1:] -= cols[j + 1:w, j, None] * rows[j, None]
            below = np.max(np.abs(cols[w:]), initial=0.0)
            inside = np.max(np.abs(cols[:w][_STRICTLY_LOWER[:w, :w]]), initial=0.0)
            if not max(below, inside) <= _MULTIPLIER_LIMIT:
                return None
            pivots[:active, k0:k1] = np.diagonal(cols[:w])
            mats[:active, k1:, k1:] -= (np.ascontiguousarray(cols[w:].transpose(2, 0, 1))
                                        @ np.ascontiguousarray(rows.transpose(2, 0, 1)))
        minors = np.cumprod(pivots, axis=1)
    return minors if np.isfinite(minors).all() else None


def _class_weights(n: int, t1, t2, t3) -> np.ndarray:
    # how often the gap class (t1, t2, t3) enters the ordered-quadruple sum:
    # N - t1 - t2 - t3 origins, twice for t1 < t3 by the reversal symmetry,
    # and 0 for t1 > t3 (counted as its reverse) or past the end of the ring
    copies = np.where(t3 > t1, 2, t3 == t1)
    return copies * np.maximum(n - t1 - t2 - t3, 0)


def _schur_snapshots(kern: CorrelationKernel) -> tuple[np.ndarray, np.ndarray] | None:
    """Trailing blocks of the pair matrix after t = 1 ... N-3 elimination steps.

    T[a, b] = g_{a-b-1} on bond sites 0 ... N-2 is the matrix whose leading
    minors are the pair correlators.  After t steps of Gaussian elimination
    without row exchanges its trailing block is the Schur complement

        Sigma_t = T[G, G] - T[G, F] T[F, F]^-1 T[F, G],   F = [0, t), G = [t, N-1),

    of order N-1-t (local index 0 is site t).  Returns (store, starts):
    every Sigma_t is kept row-major in one flat store, from store[starts[t -
    1]], so that windows of many snapshots gather in one indexing operation
    (see _window_stack).  The store ends in 2(N-2) spare entries, zero but
    for a 1 at store[-(N-2)]: their runs of m <= N-2 entries are the rows of
    an m x m identity, and their first zeros take what a window row of the
    last snapshot runs on into.  Returns None at a breakdown: a pivot that
    is zero to working precision or a value that is not finite.
    """
    n = kern.ensemble.spec.sites
    orders = np.arange(n - 2, 1, -1)
    ends = np.cumsum(orders * orders)
    store = np.zeros(ends[-1] + 2 * (n - 2))
    store[-(n - 2)] = 1.0
    block = _toeplitz(kern.g, n - 2, n - 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for order, end in zip(orders.tolist(), ends.tolist()):
            col = block[1:, 0] / block[0, 0]
            if not np.max(np.abs(col), initial=0.0) <= _MULTIPLIER_LIMIT:
                return None
            snapshot = store[end - order * order:end].reshape(order, order)
            np.multiply(col[:, None], block[0, None, 1:], out=snapshot)
            np.subtract(block[1:, 1:], snapshot, out=snapshot)
            if not np.isfinite(snapshot).all():
                return None
            block = snapshot
    return store, ends - orders * orders


def _window_stack(store: np.ndarray, starts: np.ndarray, n: int, t3: np.ndarray,
                  t2: np.ndarray, order: np.ndarray, offsets: np.ndarray, m: int) -> np.ndarray:
    """The windows Sigma_t3[t2:t2+k, t2:t2+k], k = order, of a store of _schur_snapshots.

    Window i sits in an m x m identity on rows and columns from offsets[i],
    so that its leading minor of order j is the stack's of order offsets[i]
    + j.  Each row of the stack is one run of m entries of the store, and
    all B m rows come in one gather: a window row runs on along its row of
    Sigma_t3 (into the next row, or the next snapshot), and those columns are
    zeroed, once for every run of windows of one order; every other row is
    a row of the identity at the end of the store.  The columns before a
    window's offset keep what its rows ran over: no step of _leading_minors
    reads them.
    """
    local = np.arange(m) - offsets[:, None]
    size = n - 1 - t3
    rows = np.where((local >= 0) & (local < order[:, None]),
                    (starts[t3 - 1] + t2 * size + t2 - offsets)[:, None] + local * size[:, None],
                    len(store) - (n - 2) - np.arange(m))
    stack = sliding_window_view(store, m)[rows]
    runs = np.flatnonzero(np.diff(order, prepend=-1)).tolist()
    for lo, hi in zip(runs, runs[1:] + [len(order)]):
        o, end = offsets[lo], offsets[lo] + order[lo]
        stack[lo:hi, o:end, end:] = 0.0
    return stack


def _quad_index(kern: CorrelationKernel, t1: np.ndarray, t2: int,
                order: np.ndarray) -> np.ndarray:
    # kernel position of every entry of the m x m contraction matrix of each
    # t1 in the column t1, with B sites [0, t1) u [t1+t2, N-1); the leading
    # minor of order t1 + t3 of that matrix is gap class (t1, t2, t3)
    b_sites = order - 1 + np.where(order > t1, t2, 0)
    return kern.ensemble.spec.sites - 2 + b_sites[:, :, None] - b_sites[:, None, :]


def _hadamard_products(kern: CorrelationKernel, t1: np.ndarray, t2: int,
                       order: np.ndarray) -> np.ndarray:
    """Hadamard's bound on every leading minor of a column of contraction matrices.

    |det M| <= prod_i ||M[i, :]||_2 (Hadamard's inequality; Horn & Johnson,
    Matrix Analysis).  Entry [b, k-1] bounds the minor of order k of the
    matrix of t1[b] (see _quad_index), gap class (t1, t2, k - t1): its rows
    are restricted to that class's own sites, so each row norm is a prefix
    sum of squares along a row of the m x m matrix, never a difference of
    two sums.  O(m^2) flops per matrix.
    """
    norms = np.sqrt(np.cumsum(np.square(kern.g)[_quad_index(kern, t1, t2, order)], axis=2))
    # norms[b, i, k-1] is the norm of row i of the leading k x k block, and
    # the bound of order k is the product over its rows i < k
    norms[:, order[:, None] > order] = 1.0
    return np.prod(norms, axis=1)


def _fallback_sum(kern: CorrelationKernel) -> float:
    """The quadruple sum of _nested_quad_sum where one of its eliminations broke down.

    Every summed class (t1, t2, t3), t1 <= t3, is the leading minor of
    order t1 + t3 of the m x m contraction matrix of (t1, t2), m = N-1-t2
    (see _quad_index), t1 = 1 ... m // 2; _class_weights weights each minor
    as its class and gives those of order below 2 t1 none.  The matrices go
    in stacks of one t2, t2 ascending, by ascending t1, under the cap of
    _DET_BATCH_ELEMENTS entries.  First the classes' weighted Hadamard
    bounds (_hadamard_products) are summed: O(N^4) flops.  If 24 times that
    sum, times _ROUNDING_MARGIN, is at most eps * (N + 3N(N-1)), the
    classes move <J_x^4> by less than one ulp of its two leading terms and
    the sum is 0 (a NaN bound certifies nothing).  Otherwise each stack
    goes to _halving_minors in one call, which gives every leading minor of
    each contraction matrix from orthogonal factors, with no pivot to break
    down, and the class weights sum them: O(m^3) flops per matrix.  At the
    window breakdown point (-0.9654, 0.2609, 0.05), N = 50, its 576
    matrices make <J_x^4> take a median of 93 ref units (BENCH_24.json),
    against 155 with one call per matrix (BENCH_23.json).  Each matrix is
    a principal block of the pair matrix, whose singular values are at
    most 1, so every minor is accurate to near roundoff of 1 in absolute
    terms, as the pair correlators are.
    """
    n = kern.ensemble.spec.sites
    stacks = []
    for t2 in range(1, n - 2):
        m = n - 1 - t2
        order = np.arange(1, m + 1)
        chunk = max(1, _DET_BATCH_ELEMENTS // (m * m))
        for lo in range(1, m // 2 + 1, chunk):
            t1 = np.arange(lo, min(lo + chunk, m // 2 + 1))[:, None]
            stacks.append((t1, t2, order, _class_weights(n, t1, t2, order - t1)))
    bound = sum(float(np.sum(weights * _hadamard_products(kern, t1, t2, order),
                             where=weights != 0))
                for t1, t2, order, weights in stacks)
    if 24.0 * _ROUNDING_MARGIN * bound <= _EPS * (n + 3.0 * n * (n - 1)):
        return 0.0
    total = 0.0
    for t1, t2, order, weights in stacks:
        minors = _halving_minors(kern.g[_quad_index(kern, t1, t2, order)])
        total += float(np.sum(weights * minors))
    return total


def _nested_quad_sum(kern: CorrelationKernel) -> float | None:
    """sum over quadruples l1<l2<l3<l4 of <sx sx sx sx>, by Schur windows.

    The contraction matrix of gap class (t1, t2, t3) is T[S, S] for the
    pair matrix T of _schur_snapshots and S = [0, t1) u [t1+t2,
    t1+t2+t3).  Reversing the order of the sites transposes it and
    reverses its rows and columns, so the reversed class (t3, t2, t1) has
    the same det, and only t1 <= t3 is summed, each class read from its
    reverse: S' = F u W, F = [0, t3), W = [t3+t2, t3+t2+t1).  By Schur's
    determinant formula that det is c(t3) * det Sigma_t3[W, W], with c(t3)
    = det T[F, F] the pair correlator, and W is the leading t1 x t1 block
    of the window Sigma_t3[t2:, t2:].  As t1 <= min(t3, N-1-t3-t2), the
    window is needed only to that order, and one elimination of its
    leading block of that order gives every t1 of its (t3, t2): the
    quotient property of Schur complements (Crabtree & Haynsworth, 1969)
    makes the window's own elimination continue that of T.  So one
    elimination of T, kept for N-3 steps, gives every Sigma_t3 (and c(t3),
    see below), and the windows, 1128 at N = 50, go through
    _leading_minors largest first, in stacks of at most
    _DET_BATCH_ELEMENTS entries sized by the first, largest window, each
    stack gathered by _window_stack in one indexing operation.  Each
    window sits in the identity at the largest multiple of _PANEL that
    leaves it room, so it starts on a panel boundary, as it would alone,
    and the panels before its offset skip it: at most _PANEL - 1 rows of
    identity after it are eliminated with it, and its minor of order t1 is
    the stack's of order offset + t1.  Reading each class from its
    smaller outer gap t1 instead, as c(t1) times a minor of order t3 of
    Sigma_t1[t2:, t2:], eliminates every window whole: 576 windows at N
    = 50, but 7.1 times the flops, and at the four gamma < 0 points of
    test_nested_minors_near_the_negative_gamma_critical_line, N = 50, it
    was 1.2e-10 to 8.9e-10 of <J_x^4> off, where this order is 8.7e-14 to
    3.2e-11 off (see fourth_moment_from_kernel).

    c(t3) is the product of the first t3 pivots of that elimination of T:
    Schur's formula in the elimination's own arithmetic.  The kernel's
    memo of pair correlators is accurate in absolute terms only; at (1, 2,
    0.05), N = 60, its c(29) = 2.6e-10 is 5.5e-7 off in relative terms,
    and with c(t3) read from the memo the sum would be 1.2e-9 of <J_x^4>
    off there (8.5e-9 at (-0.7, 0.3, 0.05), N = 60), against 4e-17 and
    3e-18 from the pivots.

    If any elimination breaks down, that of T at any step or that of any
    window stack, the sum stops there and returns None, and its caller
    takes the whole sum from _fallback_sum instead, which reads every class
    from the contraction matrices of the pairs (t1, t2), t1 <= (N-2)/2,
    with no elimination.  A point is never split between the two: the
    windows that do not break down at a point where one stack does can be
    far less accurate than the fallback (see fourth_moment_from_kernel).
    Measured at N = 30, 40, 50, 60, 80 and 100, the fallback's Hadamard
    bound certifies the zero-correlation lines: gamma = -1, h/J = 0 at T =
    0.05, 0.3 and 5, the cold XX chain at h/J = 2, T = 0.05, and T = inf,
    where it is exactly 0.  Below 30 sites the gamma = -1 line at T <= 0.3
    sits at the bound's edge (24 * margin * bound / (eps * lead) = 0.5 ...
    2), and the rings of 6 to 16 sites, and of 24 at T = 0.3, take the
    orthogonal minors; so does a breakdown at a point whose correlations
    are not negligible, where the bound is O(1).
    """
    n = kern.ensemble.spec.sites
    snapshots = _schur_snapshots(kern)
    if snapshots is None:
        return None
    store, starts = snapshots
    # c(t) for t = 0 ... N-3: products of the pivots T[0, 0] = g_{-1} and
    # Sigma_t[0, 0], t = 1 ... N-4
    pairs = np.cumprod(np.concatenate(([1.0, kern.g[n - 2]], store[starts[:-1]])))
    # the windows (t3, t2) of every outer gap t3, of order min(t3,
    # N-1-t3-t2), largest first
    t3, t2 = np.nonzero(np.add.outer(np.arange(n - 3), np.arange(n - 3)) <= n - 4)
    t3, t2 = t3 + 1, t2 + 1
    order = np.minimum(t3, n - 1 - t3 - t2)
    rank = np.argsort(-order, kind="stable")
    t3, t2, order = t3[rank], t2[rank], order[rank]
    total = 0.0
    start = 0
    while start < len(t3):
        m = order[start]
        stop = start + max(1, _DET_BATCH_ELEMENTS // (m * m))
        a, b, k = t3[start:stop], t2[start:stop], order[start:stop]
        # each window starts on the last panel boundary that leaves it room
        offsets = (m - k) // _PANEL * _PANEL
        minors = _leading_minors(_window_stack(store, starts, n, a, b, k, offsets, m), offsets)
        if minors is None:
            return None
        # stack minor q is the window's of order j = q - offset, class (j,
        # t2, t3); the minors before the offset (j < 1) weigh nothing
        j = np.arange(1, m + 1) - offsets[:, None]
        weights = _class_weights(n, j, b[:, None], a[:, None]) * (j > 0)
        total += float(np.sum(pairs[a, None] * weights * minors))
        start = stop
    return total


def fourth_moment_from_kernel(kern: CorrelationKernel) -> float:
    """<J_x^4> given an existing kernel (shared with var_jx computations).

    The all-distinct quadruple sum comes from one elimination of the pair
    matrix, whose Schur-complement snapshots times the pair correlators
    give every gap class, and one blocked elimination per stack of Schur
    windows (see _nested_quad_sum): O(N^5) flops, medians of 6.2 ref units
    (calls of the benchmark's speed probe, about 1 ms) at N = 50, 71 at N =
    100 and 715 at N = 200 (BENCH_20.json).  A breakdown is a pivot that
    is zero to working precision, as at T = inf (g = 0), on the gamma =
    -1, h/J = 0 line (every pair matrix singular) and in the cold XX chain
    polarized by h/J > 1.  Where any elimination breaks down, the pair
    matrix's at any step or a window stack's, the whole quadruple sum
    comes from _fallback_sum instead: it is 0 if Hadamard's inequality
    certifies that the classes move the result by less than one ulp of N
    + 3N(N-1), and otherwise every contraction matrix takes its leading
    minors from orthogonal factors (_halving_minors).  No LAPACK det runs.
    On those lines the x spins are uncorrelated, and at N = 50 the
    certified points give 3N^2 - 2N to roundoff in 8.7-9.1 ref units.  The
    fallback takes the whole point, never the classes of the broken stack
    alone: at (-0.9653537597782795, 0.2609446655556303, 0.05), N = 50,
    where one window stack breaks down, that split left the quadruple sum
    1.8e-8 of <J_x^4> off the by-class reference, as the windows that did
    not break down lose about 8 digits there; the whole-point fallback is
    2.8e-17 off.

    The pair sum reads the kernel's memo of pair correlators; the
    quadruple sum does not (see _nested_quad_sum).

    Accuracy, measured against the pivoted one-det-per-gap-class sum at
    N = 50: over the 186 distinct points of round 0 of tscan-quartic at
    seeds 4 and 11 the quadruple sums differ by at most 1.9e-15 of <J_x^4>
    at gamma >= 0 (102 points) and by up to 1.21e-10 at gamma < 0 (84
    points, worst at (-1, 1, 0.7924), the only one above 1e-11).  On a 7 x
    7 grid of gamma in [-0.979, -0.973], h/J in [0.382, 0.388] at T =
    0.3155 the median is 1.7e-13 and the largest 7.2e-13.  Neither sample
    bounds the gamma < 0 error.  It comes from
    elimination without row exchanges, whose upper factor can grow by up
    to 1e17 near that critical line (about 1 at gamma > 0) while no
    multiplier crosses the breakdown limit; a bound needs orthogonal
    factors.
    """
    n = kern.ensemble.spec.sites
    pair_sum = _pair_sum(kern.xx)
    quad = _nested_quad_sum(kern)
    if quad is None:
        quad = _fallback_sum(kern)
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

