"""Leading principal minors of stacks of matrices: the numerical engine of correlations.

Every x-basis moment of the correlations module is a sum of leading
principal minors, of one Toeplitz pair matrix T, of the blocks of its
Schur complements, or of principal submatrices of T on four-site index
sets.  This module takes those minors and sums them, and knows no
physics: its functions take arrays and a tolerance, never a kernel, an
ensemble or a callable.  It is the one module of the package that calls
LAPACK through numpy's private _umath_linalg (the gufuncs np.linalg.qr
and np.linalg.det are built from) and the one that gathers with
sliding_window_view.  There are four routes, each one call:
_halving_minors, _complementary_minors, _gap_class_sum and _det_minors.

Orthogonal minors (_halving_minors) come from orthogonal factors alone,
by recursive halving: O(n^3) flops for all n leading minors of an n x n
matrix, instead of O(n^4) for one det per order.  The halving takes a
stack of matrices of one order: each step of its recursion factors the
whole stack in one call of numpy's stacked LAPACK QR (see _split), and
blocks of order _LEAF or less take every minor from one more (see
_leaf_minors), so that no code path of the package imports scipy.
Every matrix of a stack gets the LAPACK calls it would get alone, so its
minors are the same bits.  Each level splits a block into two of equal
order ceil(n/2), so a stack takes one stacked call of each LAPACK
routine per level.  The pair correlators take the leading minors of two
blocks of order m = N - (N-1)//2, one of them scaled by det C = prod t_k,
as one (2, m, m) stack (_complementary_minors); the README's
layer-timings table gives what Var(J_x) costs that way.
_binary_cumprod carries products of many factors, such as det C, in
mantissas and exponents, so that none leaves the float range.
Elimination without row exchanges would be cheaper still, but it is
unstable for the pair matrix: the pair correlator falls to ~1e-19
halfway round the ring and grows again toward r = N - 1, and the pivot
ratios blow up with it.  Orthogonal factors keep every minor of a
contraction accurate to near roundoff of 1, in absolute terms; a minor
far below 1 has correspondingly fewer correct digits.

The gap-class sum (_gap_class_sum) takes T and a tolerance and returns
the sum over gap classes (t1, t2, t3) of the principal minors of T on
[0, t1) u [t1+t2, t1+t2+t3), each weighted by how many index sets
l1 < l2 < l3 < l4 of [0, N) have those gaps; the correlations module
reads <J_x^4> from it.  Every class of a ring-rotation orbit {(t1, t2,
t3), (t3, t2, t1), (t3, d, t1), (t1, d, t3)}, d = N - t1 - t2 - t3 the
gap that closes the ring, has the same minor, so every way reads only
the representative t1 <= t3, t2 <= d, weighted for its whole orbit
(_orbit_weights).  It has three ways, and takes one for the whole sum.

The windows (_window_sum) come first.  By Schur's determinant formula
class (t1, t2, t3), read from its reverse, is c(t3) = det T[:t3, :t3]
times a leading minor of the window Sigma_t3[t2:, t2:] of the Schur
complement that t3 steps of elimination of T leave behind.  Window (t3,
t2) is needed to order min(t3, N - t3 - 2 t2), and there are 576
windows at N = 50, 2401 at N = 100 and 9801 at N = 200.  One
elimination of T, kept as its N-3 snapshots (_schur_snapshots), gives
every window and every c(t3); one elimination without row exchanges of
a window's leading block (_leading_minors) gives every minor of it as
products of its pivots: O(N^5) flops for the sum instead of the O(N^6)
of one det per class.  By a (2/3) k^3 flop
count that is 1.9 (N = 50) to 2.0 (N = 200) times fewer than reading
every t2 of each t3, and 13.5 to 14.6 times fewer than reading each
class from its smaller outer gap, whose windows must be eliminated
whole.  The windows are eliminated in stacks, each at a panel-aligned
offset in an identity matrix, so that no flop goes to the identity
before a window and a window's pivots do not depend on its stack.  Which
windows there are, how they are stacked, where each row of a stack is
gathered from and how each minor is weighted depend on N alone: they are
planned once per ring size (_window_plan), and a point takes the
elimination of T, then one gather (_window_stack) and one elimination
per stack; the README's layer-timings table gives what <J_x^4> costs
that way.

Where any elimination, of T or of a window stack, breaks down on a pivot
that is zero to working precision, the whole sum goes to _fallback_sum.
It reads the classes the windows read, one principal submatrix of T
per pair (t1, t2), 300 at N = 50.  It first sums Hadamard's bound on
every weighted class (the certificate, _hadamard_products) and returns 0
if that sum times _ROUNDING_MARGIN is at most the tolerance; otherwise
every class takes the leading minors of its own principal submatrix from
orthogonal factors, in stacks handed to _halving_minors.

Complex minors (_det_minors) take one LAPACK det per order, for the
complex-step slope of Var(J_x), whose kernel is complex: Householder
reflections take norms, which are not complex-analytic.
"""
import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.linalg import _umath_linalg

from .spectrum import _read_only

# cap on matrix entries in one stack of the quadruple sum (2.4 MB of
# float64), whether it holds Schur windows (the plan of a ring size,
# _window_plan, is keyed on it, so a new cap takes a new plan) or, at a
# point where an elimination broke down, the principal submatrices of one
# t2 that _fallback_sum bounds and, failing that, minors.
# The cap has this one owner, so that the plan and the fallback's chunks
# follow one value.  Chosen by timing the windows of order min(t3,
# N-1-t3-t2), every t2 of each t3 (before each ring-rotation orbit was read
# once), medians at (1, 0.5, 0.3) and (-0.977, 0.386, 0.3155):
# 100k-400k entries time alike at N = 50 (600k is 10 % slower), 200k-400k
# at N = 100 (100k is 10 % and 600k 25 % slower), and 300k-600k at N =
# 200 (200k is 10 % and 100k 30 % slower).  The fallback's stacks keep the
# value they were timed with (200k-300k fastest at N = 100, breakdown
# points)
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
# factor on Hadamard's bound of the gap classes in _fallback_sum; it covers
# the rounding of the computed bound, a sum of at most N^3/12 non-negative
# terms, each a product of at most N square roots of prefix sums of squares,
# whose relative error is below (N^2 + N^3/12) eps, far below 1
_ROUNDING_MARGIN = 2.0


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
    a must be a float64 array the caller does not read again: a stack of
    order above _LEAF is overwritten with its QR factors (see _split).
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
    raises.  qr_r_raw overwrites a, a float64 stack, with the factors:
    every caller hands in a stack it built for the call and does not read
    again, so no copy is made.
    """
    n = a.shape[-1]
    h = (n + 1) // 2
    with np.errstate(invalid="raise"):
        tau = _umath_linalg.qr_r_raw(a)
        q = _umath_linalg.qr_reduced(a, tau)
    lead, trail = _halving_minors(np.stack((q[..., :h, :h],
                                            q[..., n - h:, n - h:][..., ::-1, ::-1])))
    # minor r > h of Q is det Q times det Q[r:, r:], minor n-r of the
    # reversed trailing block, or the empty det 1 at r = n; that block's
    # minors of order n-h and up would give minors h and below again
    minors = np.concatenate((lead, np.flip(trail[..., :n - h - 1], -1),
                             np.ones(lead.shape[:-1] + (1,))), axis=-1)
    minors[..., h:] *= (1.0 - 2.0 * (np.count_nonzero(tau, axis=-1) % 2))[..., None]
    return minors, np.diagonal(a, axis1=-2, axis2=-1)


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
    # entry [j, r, c] is outside the leading (j+1) x (j+1) block: max(r, c) > j
    outside = np.indices((n, n)).max(axis=0) > np.arange(n)[:, None, None]
    factors = np.where(outside, np.eye(n), a[..., None, :, :])
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


def _complementary_minors(a: np.ndarray, factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leading minors of a[0], and prod(factors) times those of a[1], for a (2, m, m) stack.

    Both matrices go down the halving as one stack, from one _split, each
    level in one stacked call of each LAPACK routine.  The minors of a[0]
    are its Q-minors times the cumulative products of its R diagonal.  For
    a[1] the factors and its R diagonal are carried in mantissas and
    exponents (_binary_cumprod), so that no product leaves the float range
    however small prod(factors) is (det C = prod t_k is 1e-1002 for the XX
    chain at h/J = 0, N = 1000 and temperature 5); only the scaled minors
    are rounded to floats.  a is overwritten with its QR factors (see
    _split).
    """
    k = len(factors)
    halved, diagonal = _split(a)
    mantissas, exponents = _binary_cumprod(np.concatenate((factors, diagonal[1])))
    return (halved[0] * np.cumprod(diagonal[0]),
            np.ldexp(mantissas[k:] * halved[1], exponents[k:]))


def _det_minors(a: np.ndarray) -> np.ndarray:
    """Leading principal minors det a[:r, :r], r = 0 ... n, of a complex n x n matrix.

    One LAPACK det per order, from the gufunc np.linalg.det is built from,
    called directly (the same bits, without the wrapper's checks): O(n^4)
    flops.  Minor 0 is the empty det 1.
    """
    return np.array([_umath_linalg.det(a[:r, :r], signature="D->D") for r in range(len(a) + 1)])


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


def _schur_snapshots(block: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Trailing blocks of the pair matrix after t = 1 ... N-3 elimination steps.

    block is the pair matrix T[a, b] = g_{a-b-1} on bond sites 0 ... N-2,
    whose leading minors are the pair correlators (correlations builds it
    from the kernel).  After t steps of Gaussian elimination without row
    exchanges its trailing block is the Schur complement

        Sigma_t = T[G, G] - T[G, F] T[F, F]^-1 T[F, G],   F = [0, t), G = [t, N-1),

    of order N-1-t (local index 0 is site t).  Returns (store, starts):
    every Sigma_t is kept row-major in one flat store, from store[starts[t -
    1]], so that windows of many snapshots gather in one indexing operation
    (see _window_stack).  The store ends in 2(N-2) spare entries, zero but
    for a 1 at store[-(N-2)]: their runs of m <= N-2 entries are the rows of
    an m x m identity, and their first zeros take what a window row of the
    last snapshot runs on into.  Returns None at a breakdown: a pivot that
    is zero to working precision or a value that is not finite.
    A step is three numpy calls: the multipliers go to a (N-3, N-2) array,
    and their product with the pivot row is subtracted into the store.
    Breakdown is decided once, after the last step, from every multiplier
    and the whole store: a check after every step would give None at the
    same points and leave the same store bits elsewhere.  Checks during the
    elimination would stop the breakdown points early, but cost every
    regular point: timed alone (medians of 10 calls, one BLAS thread, five
    alternations), the snapshots of (1, 0.5, 0.3) at N = 50 take 0.47-0.51
    ref units, against 0.55-0.59 with a check after every eighth step,
    and those of the breakdown points (-1, 0, 0.3), (0, 2, 0.05) and (1,
    0.5, inf) take 0.45-0.50 against 0.05-0.10 (1.6-1.9 against 0.24-0.33
    at N = 100, (-1, 0, 0.3)).  Breakdown points are 21 of the 360 of
    round 0 of tscan-quartic at seeds 777, 4 and 11, and that workload
    runs no slower without the checks.
    """
    n = len(block) + 1
    orders, ends = _snapshot_layout(n)
    store = np.zeros(ends[-1] + 2 * (n - 2))
    store[-(n - 2)] = 1.0
    multipliers = np.zeros((len(orders), n - 2))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for step, (order, end) in enumerate(zip(orders.tolist(), ends.tolist())):
            col = np.divide(block[1:, 0], block[0, 0], out=multipliers[step, :order])
            snapshot = store[end - order * order:end].reshape(order, order)
            np.multiply(col[:, None], block[0, None, 1:], out=snapshot)
            np.subtract(block[1:, 1:], snapshot, out=snapshot)
            block = snapshot
    if not (np.max(np.abs(multipliers)) <= _MULTIPLIER_LIMIT and np.isfinite(store).all()):
        return None
    return store, ends - orders * orders


def _snapshot_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    # the orders N-2 ... 2 of Sigma_t, t = 1 ... N-3, and where each ends in
    # the store of _schur_snapshots, before its 2(N-2) spare entries
    orders = np.arange(n - 2, 1, -1)
    return orders, np.cumsum(orders * orders)


@dataclass(frozen=True, eq=False)
class _WindowStack:
    """One stack of Schur windows Sigma_t3[t2:t2+k, t2:t2+k] of the quadruple sum, k = order.

    Window i sits in an m x m identity on rows and columns from offsets[i],
    so that its leading minor of order j is the stack's of order offsets[i]
    + j.  rows[i, q] is where row q of matrix i starts in the store of
    _schur_snapshots: a window row runs on along its row of Sigma_t3 (into
    the next row, or the next snapshot) past column offsets[i] + k, every
    other row is a row of the identity at the end of the store.
    weights[i, q - 1] weights stack minor q as the ring-rotation orbit of
    class (q - offsets[i], t2, t3), and 0 outside offsets[i] < q <=
    offsets[i] + k.  The columns a window row runs on into are gathered
    as they are, and that is safe: they feed only stack minors past the
    window's own order, which have class weight 0, and the identity rows
    below a window carry multipliers that are exactly 0, so their pivots
    stay exactly 1 while those columns stay finite.  The store they come
    from is finite wherever _schur_snapshots returns it; should the
    elimination carry one of them past the float range, 0 times it makes
    the pivot of the identity row of its column NaN, and the stack
    breaks down rather than give a wrong minor.
    Everything in it depends on N alone, and its arrays are read-only.
    """

    t3: np.ndarray
    t2: np.ndarray
    offsets: np.ndarray
    m: int
    rows: np.ndarray
    weights: np.ndarray


def _orbit_weights(n: int, t1, t2, t3) -> np.ndarray:
    # how many index sets l1 < l2 < l3 < l4 of [0, N) have their gaps in the
    # ring-rotation orbit of class (t1, t2, t3), read from its representative
    # t1 <= t3, t2 <= d = N - t1 - t2 - t3: d origins of the class and, for
    # t2 < d, t2 of its rotated partner (t1, d, t3), twice for t1 < t3, as
    # the reversed gaps are counted with them; 0 for any other class
    d = n - t1 - t2 - t3
    return np.where(t3 > t1, 2, t3 == t1) * (d * (t2 <= d) + t2 * (t2 < d))


def _plan_stack(n: int, t3: np.ndarray, t2: np.ndarray, order: np.ndarray,
                offsets: np.ndarray, m: int) -> _WindowStack:
    # the stack of the windows (t3, t2) of the given orders at the given
    # offsets, minor j weighted as the orbit of its gap class (j, t2, t3)
    # (_orbit_weights); a class with d < t2 is read in the orbit of another
    # window
    _, ends = _snapshot_layout(n)
    local = np.arange(m) - offsets[:, None]
    size = n - 1 - t3
    rows = np.where((local >= 0) & (local < order[:, None]),
                    (ends[t3 - 1] - size * size + t2 * size + t2 - offsets)[:, None]
                    + local * size[:, None],
                    ends[-1] + (n - 2) - np.arange(m))
    j = np.arange(1, m + 1) - offsets[:, None]
    weights = _orbit_weights(n, j, t2[:, None], t3[:, None]) * (j > 0)
    return _WindowStack(*_read_only(t3, t2, offsets), m, _read_only(rows)[0],
                        _read_only(weights)[0])


@functools.lru_cache(maxsize=1)
def _window_plan(n: int, cap: int) -> tuple[_WindowStack, ...]:
    """The stacks of Schur windows of the quadruple sum at N = n, built once per ring size.

    Each gap class is read once per ring-rotation orbit, from its
    representative t1 <= t3, t2 <= d = N - t1 - t2 - t3, so window (t3,
    t2) is needed to order min(t3, N - t3 - 2 t2) and windows of order
    below 1 are left out: 576 windows at N = 50, 2401 at N = 100, 9801 at
    N = 200, about half of those of every t2.  They go largest first, in
    stacks of at most cap entries sized by the first, largest window; each
    window sits in the identity at the largest multiple of _PANEL that
    leaves it room.  None of it reads a kernel, so a sweep at fixed N
    builds the plan for its first point only (0.22 MB at N = 50, 0.93 at
    N = 100, 5.8 at N = 200, below the store of snapshots); the cap is
    passed in, _DET_BATCH_ELEMENTS, so that the plan follows it.  The plan
    applies the weights of the orbits (see _plan_stack) to every minor of
    every stack once; over the plan they add up to C(N, 4).
    """
    # (t3 - 1) + 2 (t2 - 1) <= N - 4: order N - t3 - 2 t2 >= 1
    t3, t2 = np.nonzero(np.add.outer(np.arange(n - 3), 2 * np.arange(n - 3)) <= n - 4)
    t3, t2 = t3 + 1, t2 + 1
    order = np.minimum(t3, n - t3 - 2 * t2)
    rank = np.argsort(-order, kind="stable")
    t3, t2, order = t3[rank], t2[rank], order[rank]
    stacks, start = [], 0
    while start < len(t3):
        m = int(order[start])
        stop = start + max(1, cap // (m * m))
        k = order[start:stop]
        stacks.append(_plan_stack(n, t3[start:stop], t2[start:stop], k,
                                  (m - k) // _PANEL * _PANEL, m))
        start = stop
    return tuple(stacks)


def _window_stack(store: np.ndarray, stack: _WindowStack) -> np.ndarray:
    """The windows of a planned stack, gathered from a store of _schur_snapshots.

    Each row of the (B, m, m) stack is one run of m entries of the store,
    at the plan's rows, and all B m rows come in one gather.  The columns
    before a window's offset keep what its rows ran over, as no step of
    _leading_minors reads them, and so do the columns after it (see
    _WindowStack).
    """
    return sliding_window_view(store, stack.m)[stack.rows]


def _window_sum(block: np.ndarray) -> float | None:
    """The weighted sum of every window minor of the pair matrix, or None at a breakdown.

    block is the pair matrix T of order N-1 (see _schur_snapshots).
    Class (t1, t2, t3), t1 <= t3, is c(t3) times the leading minor of
    order t1 of the window Sigma_t3[t2:, t2:], and the sum is over every
    class of the plan (_window_plan), t2 <= d, with the weight of its
    ring-rotation orbit.
    c(t3) is the product of the first t3 pivots of the elimination of T,
    T[0, 0] and the first entries Sigma_t[0, 0] of the snapshots: Schur's
    formula in the elimination's own arithmetic.  A point takes the
    snapshots, then per stack one gather (_window_stack), one elimination
    (_leading_minors) and one weighted sum.  None if any elimination breaks
    down, that of T at any step or that of any window stack; no stack
    after a broken one is gathered.
    """
    n = len(block) + 1
    snapshots = _schur_snapshots(block)
    if snapshots is None:
        return None
    store, starts = snapshots
    # c(t) for t = 0 ... N-3: products of the pivots T[0, 0] and Sigma_t[0,
    # 0], t = 1 ... N-4
    pairs = np.cumprod(np.concatenate(([1.0, block[0, 0]], store[starts[:-1]])))
    total = 0.0
    for stack in _window_plan(n, _DET_BATCH_ELEMENTS):
        eliminated = _leading_minors(_window_stack(store, stack), stack.offsets)
        if eliminated is None:
            return None
        total += float(np.sum(pairs[stack.t3, None] * stack.weights * eliminated))
    return total


def _quad_index(size: int, t1: np.ndarray, t2: int, order: np.ndarray) -> np.ndarray:
    # flat position in T (size x size, row-major) of every entry of the m x m
    # principal submatrix of each t1 in the column t1, m = len(order), on the
    # sites [0, t1) u [t1+t2, t2+m); its leading minor of order t1 + t3 is
    # gap class (t1, t2, t3)
    sites = order - 1 + np.where(order > t1, t2, 0)
    return sites[:, :, None] * size + sites[:, None, :]


def _hadamard_products(squares: np.ndarray, t1: np.ndarray, t2: int,
                       order: np.ndarray) -> np.ndarray:
    """Hadamard's bound on every leading minor of a column of principal submatrices of T.

    squares holds the squares of T's entries.  |det M| <= prod_i ||M[i,
    :]||_2 (Hadamard's inequality; Horn & Johnson, Matrix Analysis).  Entry
    [b, k-1] bounds the minor of order k of the submatrix of t1[b] (see
    _quad_index), gap class (t1, t2, k - t1): its rows are restricted to
    that class's own sites, so each row norm is a prefix sum of squares
    along a row of the m x m submatrix, never a difference of two sums.
    O(m^2) flops per submatrix.
    """
    norms = np.sqrt(np.cumsum(squares.ravel()[_quad_index(len(squares), t1, t2, order)], axis=2))
    # norms[b, i, k-1] is the norm of row i of the leading k x k block, and
    # the bound of order k is the product over its rows i < k
    norms[:, order[:, None] > order] = 1.0
    return np.prod(norms, axis=1)


def _fallback_sum(block: np.ndarray, tolerance: float) -> float:
    """The sum of _gap_class_sum without an elimination: 0 if certified below tolerance.

    The summed classes are those of the window plan: the representative
    (t1, t2, t3), t1 <= t3, t2 <= d = N - t1 - t2 - t3, of each
    ring-rotation orbit.  Each is the leading minor of order t1 + t3 of the
    m x m principal submatrix of T on the sites [0, t1) u [t1+t2, N-t2),
    m = N - 2 t2 (see _quad_index), t2 = 1 ... (N-2) // 2, t1 = 1 ...
    m // 2, as t3 <= m - t1 is d >= t2; _orbit_weights weights each minor
    as its orbit and gives those of order below 2 t1 none.  The
    submatrices go in stacks of one t2, t2 ascending, by ascending t1,
    under the cap of _DET_BATCH_ELEMENTS entries.  First the classes'
    weighted Hadamard bounds (_hadamard_products, from the squares of T
    taken once) are summed: O(N^4) flops.  Every class of an orbit has the
    representative's exact minor, so its bound times the orbit's weight
    bounds the orbit's share of the sum.  If that sum times
    _ROUNDING_MARGIN is at most tolerance, the sum is 0 (a NaN bound
    certifies nothing).  Otherwise each stack goes to _halving_minors in
    one call, which gives every leading minor of each submatrix from
    orthogonal factors, with no pivot to break down, and the orbit weights
    sum them: O(m^3) flops per submatrix.  Each is gathered through one flat index into T.  The
    window breakdown point of tools/bench_layers.py sends all 300 of its
    N = 50 submatrices here, and its row of the README's layer-timings
    table times this route.  Where T's singular values are at most 1, as
    the pair matrix's are, so are every submatrix's, and every minor is
    accurate to near roundoff of 1 in absolute terms.
    """
    n = len(block) + 1
    stacks = []
    for t2 in range(1, n // 2):
        m = n - 2 * t2
        order = np.arange(1, m + 1)
        chunk = max(1, _DET_BATCH_ELEMENTS // (m * m))
        for lo in range(1, m // 2 + 1, chunk):
            t1 = np.arange(lo, min(lo + chunk, m // 2 + 1))[:, None]
            stacks.append((t1, t2, order, _orbit_weights(n, t1, t2, order - t1)))
    squares = np.square(block)
    bound = sum(float(np.sum(weights * _hadamard_products(squares, t1, t2, order),
                             where=weights != 0))
                for t1, t2, order, weights in stacks)
    if _ROUNDING_MARGIN * bound <= tolerance:
        return 0.0
    flat, total = block.ravel(), 0.0
    for t1, t2, order, weights in stacks:
        total += float(np.sum(weights * _halving_minors(flat[_quad_index(n - 1, t1, t2, order)])))
    return total


def _gap_class_sum(block: np.ndarray, tolerance: float) -> float:
    """Sum over gap classes (t1, t2, t3) of T's principal minors on [0, t1) u [t1+t2, t1+t2+t3).

    block is the Toeplitz matrix T of order N-1, and each minor is weighted
    by how many index sets of [0, N) have its gaps.  The reversed class
    (t3, t2, t1) and the rotated class (t3, d, t1), d = N - t1 - t2 - t3,
    have the same minor for a Toeplitz T, so both routes read each
    ring-rotation orbit once, from its representative t1 <= t3, t2 <= d,
    weighted for the whole orbit (_orbit_weights).  The windows take it
    (_window_sum), 576 of them at N = 50 (see _window_plan).  Wherever any
    of their eliminations breaks down, the whole sum goes to _fallback_sum
    instead, which returns 0 if Hadamard's bound times _ROUNDING_MARGIN is
    at most tolerance, and otherwise takes orthogonal minors for every
    class, from 300 submatrices at N = 50.  A sum is never split between
    the two routes: the windows that do not break down at a point where
    one stack does can be far less accurate than the fallback.
    """
    total = _window_sum(block)
    return _fallback_sum(block, tolerance) if total is None else total
