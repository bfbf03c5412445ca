"""Collective-spin moments against the dense reference and frozen values.

The frozen literals below were produced by the dense reference implementation
(oracle module) and pin the numerical path down to double-precision noise;
live cross-checks against the same reference run next to them at small N.
"""
import collections
import dataclasses
import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
import types

import mpmath
import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from xythermo import cli, correlations, faraday, minors, oracle, thermometry
from xythermo.spectrum import ChainSpec

# the engine's kernel-free tests live in test_minors; importing them here
# also keeps them collected under the test_correlations ids that earlier
# test records name
from test_minors import (_scipy_halving_minors,  # noqa: F401
                         test_halving_minors_equal_the_scipy_lapack_recursion_bitwise,
                         test_halving_minors_match_one_det_per_order)

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _ens(gamma=1.0, field_ratio=0.5, sites=8, T=0.3):
    return thermometry.ensemble(ChainSpec(gamma=gamma, field_ratio=field_ratio, sites=sites), T)


def _pair_xx_operator(n, a, b):
    op = np.ones((1, 1))
    for site in range(n):
        op = np.kron(op, SX if site in (a, b) else np.eye(2))
    return op


# ---- kernel ------------------------------------------------------------------

def test_kernel_matches_dense_string_contractions():
    ens = _ens()
    kern = correlations.kernel(ens)
    sys = oracle.build(ens.spec, oracle.MATCHED)
    worst = max(abs(kern.coefficient(b - a) - oracle.string_contraction(sys, 0.3, a, b))
                for a in range(8) for b in range(8))
    assert worst < 1e-12


def test_kernel_infinite_temperature_has_no_structure():
    kern = correlations.kernel(_ens(T=math.inf))
    assert all(kern.coefficient(j) == 0.0 for j in range(-7, 8))


def test_kernel_antiperiodic_wraparound():
    kern = correlations.kernel(_ens(gamma=0.6, field_ratio=0.9, T=0.4))
    for j in (1, 2, 3):
        assert kern.coefficient(8 - j) == pytest.approx(-kern.coefficient(-j), abs=1e-14)


def test_kernel_coefficient_range_checked():
    kern = correlations.kernel(_ens())
    with pytest.raises(ValueError):
        kern.coefficient(8)
    with pytest.raises(ValueError):
        kern.coefficient(-8)
    with pytest.raises(ValueError):  # not truncated to j = 1
        kern.coefficient(1.5)


def test_kernel_frozen_values():
    kern = correlations.kernel(_ens())
    assert kern.coefficient(-1) == pytest.approx(0.9223761966732211, rel=1e-12)
    assert kern.coefficient(0) == pytest.approx(-0.26790476610639774, rel=1e-12)


def _direct_contractions(ens, t):
    # the kernel sum with its cos/sin tables built on the spot, as before the memo
    n = ens.spec.sites
    kj = np.outer(np.arange(-(n - 1), n), ens.modes.momenta)
    a = np.cos(2.0 * ens.modes.angles) * t
    b = np.sin(2.0 * ens.modes.angles) * t
    return (np.cos(kj) @ a - np.sin(kj) @ b) / n


def _assert_kernels_match_direct_build(n):
    for gamma, field, T in PAIR_GRID:
        ens = _ens(gamma=gamma, field_ratio=field, sites=n, T=T)
        slope = ens.polarization_slopes
        assert np.array_equal(correlations.kernel(ens).g,
                              _direct_contractions(ens, 1.0 - 2.0 * ens.occupations)), (n, T)
        assert np.array_equal(correlations._contractions(ens, slope),
                              _direct_contractions(ens, slope)), (n, T)


@pytest.mark.parametrize("sites", (4, 6, 50, 300))
def test_memoized_tables_give_the_directly_built_kernel(sites):
    # bit for bit, with the memo cold, warm at the same N, and holding another
    # N's tables; T = inf gives exact zeros either way
    correlations._trig_tables.cache_clear()
    _assert_kernels_match_direct_build(sites)
    assert correlations._trig_tables.cache_info().misses == 1
    _assert_kernels_match_direct_build(sites)
    assert correlations._trig_tables.cache_info().misses == 1
    correlations.kernel(_ens(sites=8))
    _assert_kernels_match_direct_build(sites)
    assert correlations.kernel(_ens(sites=sites, T=math.inf)).g.tolist() == [0.0] * (2 * sites - 1)


def test_memo_follows_alternating_ring_sizes():
    for n in (50, 300, 50):
        ens = _ens(gamma=-0.5, field_ratio=0.5, sites=n)
        kern = correlations.kernel(ens)
        assert kern.g.shape == (2 * n - 1,)
        assert np.array_equal(kern.g, _direct_contractions(ens, 1.0 - 2.0 * ens.occupations))
        assert correlations._trig_tables.cache_info().currsize == 1


def test_memoized_tables_are_read_only():
    for table in correlations._trig_tables(8):
        assert table.shape == (15, 8) and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0


def test_kernel_is_a_read_only_record():
    # g, and each correlator array once read, refuse writes; no attribute
    # can be assigned; a g of the wrong length is refused
    kern = correlations.kernel(_ens())
    for x in (kern.g, kern.xx, kern.yy):
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.25
    assert kern.xx is kern.xx
    for name in ("ensemble", "g", "xx", "yy"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(kern, name, None)
    with pytest.raises(ValueError, match="2N-1"):
        correlations.CorrelationKernel(kern.ensemble, np.zeros(14))


def test_sweep_builds_the_tables_once(capsys):
    # 6 points, each one kernel, one inverse kernel of the pair correlators'
    # skew-circulant split and one slope kernel of var_jx_slope: 18 reads
    # and a single miss
    correlations._trig_tables.cache_clear()
    code = cli.main(["tscan", "--gamma", "0.5", "--field", "0.8", "--temp", "0.1:2:6:log",
                     "--sites", "30", "--obs", "crb,varjx,meanjz"])
    assert code == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 7
    info = correlations._trig_tables.cache_info()
    assert (info.misses, info.hits) == (1, 17)


# ---- two-point correlations ----------------------------------------------------

def test_xx_correlation_base_cases():
    kern = correlations.kernel(_ens(gamma=0.7, field_ratio=0.4, sites=6, T=0.37))
    assert correlations.xx_correlation(kern, 0) == 1.0
    assert correlations.xx_correlation(kern, 1) == pytest.approx(kern.coefficient(-1), rel=1e-14)


def test_xx_correlation_matches_dense_pair():
    ens = _ens()
    kern = correlations.kernel(ens)
    sys = oracle.build(ens.spec, oracle.MATCHED)
    for r in (1, 2, 3, 5):
        want = oracle.thermal_expectation(sys, 0.3, _pair_xx_operator(8, 0, r))
        assert correlations.xx_correlation(kern, r) == pytest.approx(want, abs=1e-10)


def test_xx_correlation_bounded():
    for T in (0.1, 0.5, 2.0):
        kern = correlations.kernel(_ens(gamma=0.8, field_ratio=0.7, sites=12, T=T))
        for r in range(12):
            assert abs(correlations.xx_correlation(kern, r)) <= 1.0 + 1e-12


def test_xx_correlation_rejects_out_of_range():
    kern = correlations.kernel(_ens())
    for r in (-1, 8, 2.9):  # a fractional separation is not truncated
        with pytest.raises(ValueError):
            correlations.xx_correlation(kern, r)
    with pytest.raises(ValueError):
        correlations.yy_correlation(kern, 1.5)


def test_yy_correlation_matches_axis_swap():
    # exchanging the x and y axes is the same as flipping the anisotropy sign
    kern_plus = correlations.kernel(_ens(gamma=0.45, field_ratio=0.8, T=0.5))
    kern_minus = correlations.kernel(_ens(gamma=-0.45, field_ratio=0.8, T=0.5))
    for r in range(8):
        assert correlations.yy_correlation(kern_plus, r) == pytest.approx(
            correlations.xx_correlation(kern_minus, r), abs=1e-12)


# ---- second moments -------------------------------------------------------------

def test_var_jx_matches_dense_reference():
    ens = _ens()
    sys = oracle.build(ens.spec, oracle.MATCHED)
    got = correlations.var_jx(correlations.kernel(ens))
    assert got == pytest.approx(oracle.oracle_var_jx(sys, 0.3), rel=1e-12)
    assert got == pytest.approx(58.27565463531814, rel=1e-12)


def test_mean_jz_matches_dense_reference():
    ens = _ens()
    sys = oracle.build(ens.spec, oracle.MATCHED)
    assert correlations.mean_jz(ens) == pytest.approx(oracle.oracle_mean_jz(sys, 0.3), rel=1e-12)
    assert correlations.mean_jz(ens) == pytest.approx(2.143238128851182, rel=1e-12)


def test_var_jz_matches_dense_reference():
    ens = _ens()
    sys = oracle.build(ens.spec, oracle.MATCHED)
    assert correlations.var_jz(ens) == pytest.approx(oracle.oracle_var_jz(sys, 0.3), rel=1e-12)
    assert correlations.var_jz(ens) == pytest.approx(8.095489328865874, rel=1e-12)


def test_half_modulation_against_dense_reference():
    ens = _ens(gamma=0.5, field_ratio=1.5, T=0.4)
    sys = oracle.build(ens.spec, oracle.MATCHED)
    assert correlations.mean_jz(ens, "half") == pytest.approx(
        oracle.oracle_mean_jz(sys, 0.4, "half"), rel=1e-10)
    assert correlations.var_jz(ens, "half") == pytest.approx(
        oracle.oracle_var_jz(sys, 0.4, "half"), rel=1e-10)


def modulation_weights(modulation, n):
    """Per-site probe weights cos^2(k_p l d), for the references below.

    "uniform" is the unmodulated probe (k_p d = pi, every weight 1); "half"
    modulates at k_p d = pi/2, weighting even sites 1 and odd sites 0.
    """
    w = np.ones(n)
    if modulation == "half":
        w[1::2] = 0.0
    return w


def test_modulation_weights():
    assert np.all(modulation_weights("uniform", 6) == 1.0)
    assert np.array_equal(modulation_weights("half", 6), [1, 0, 1, 0, 1, 0])
    ens = _ens()
    for jz_statistic in (correlations.mean_jz, correlations.mean_jz_slope, correlations.var_jz):
        with pytest.raises(ValueError):
            jz_statistic(ens, "quarter")


def test_var_jy_matches_dense_reference():
    ens = _ens()
    kern = correlations.kernel(ens)
    sys = oracle.build(ens.spec, oracle.MATCHED)
    assert correlations.var_jy(kern) == pytest.approx(oracle.oracle_var_jy(sys, 0.3), rel=1e-12)


def test_var_jy_equals_var_jx_at_flipped_anisotropy():
    for n in (8, 50, 300):
        kern = correlations.kernel(_ens(gamma=0.35, field_ratio=0.7, sites=n, T=0.25))
        flipped = correlations.kernel(_ens(gamma=-0.35, field_ratio=0.7, sites=n, T=0.25))
        assert correlations.var_jy(kern) == pytest.approx(
            correlations.var_jx(flipped), rel=1e-12)


# ---- fourth moment ---------------------------------------------------------------

def test_fourth_moment_matches_dense_reference():
    ens = _ens()
    got = correlations.fourth_moment_jx(ens)
    sys = oracle.build(ens.spec, oracle.MATCHED)
    assert got == pytest.approx(oracle.oracle_fourth_jx(sys, 0.3), rel=1e-10)
    assert got == pytest.approx(3587.9710065310455, rel=1e-12)


def test_fourth_moment_second_parameter_point():
    ens = _ens(gamma=0.7, field_ratio=0.4, sites=6, T=0.37)
    assert correlations.fourth_moment_jx(ens) == pytest.approx(1110.0851286681527, rel=1e-12)
    sys = oracle.build(ens.spec, oracle.MATCHED)
    assert correlations.fourth_moment_jx(ens) == pytest.approx(
        oracle.oracle_fourth_jx(sys, 0.37), rel=1e-10)


def test_fourth_moment_repeat_call_is_stable():
    ens = _ens(gamma=0.9, field_ratio=0.2, T=0.6)
    first = correlations.fourth_moment_jx(ens)
    assert correlations.fourth_moment_jx(ens) == first


def test_fourth_dominates_squared_variance():
    # Var(J_x^2) = <J_x^4> - <J_x^2>^2 >= 0
    for gamma, f, T in ((1.0, 0.0, 0.1), (0.5, 1.0, 0.5), (0.2, 1.8, 1.5)):
        m = faraday.ReadoutPoint(_ens(gamma=gamma, field_ratio=f, T=T), faraday.FaradaySetup())
        assert m.var_jx_squared >= 0.0
        assert m.fourth_jx == pytest.approx(m.var_jx**2 + m.var_jx_squared, rel=1e-12)


def test_large_ring_frozen_values():
    """Regression guard for the nested-minor path of <J_x^4> at N = 50.

    The frozen value came from the one-det-per-class path; the nested-minor
    path reproduces it within the tolerance.
    """
    ens = _ens(sites=50)
    kern = correlations.kernel(ens)
    assert correlations.var_jx(kern) == pytest.approx(1911.0116605307207, rel=1e-11)
    assert correlations.fourth_moment_jx(ens) == pytest.approx(4286944.630758701, rel=1e-10)


def _gap_classes(n):
    """Gap signatures (t1, t2, t3) of site quadruples l1<l2<l3<l4, with counts.

    A quadruple is determined by its gaps t_i = l_{i+1} - l_i and the origin
    l1, so the signature (t1, t2, t3) occurs N - (t1+t2+t3) times.  The
    correlator value only depends on the signature, and is invariant under
    reversal (t1,t2,t3) -> (t3,t2,t1) -- a transpose identity of the
    contraction determinant -- so reversed pairs are merged.
    """
    classes = {}
    for t1 in range(1, n - 2):
        for t2 in range(1, n - 1 - t1):
            for t3 in range(1, n - t1 - t2):
                key = min((t1, t2, t3), (t3, t2, t1))
                classes[key] = classes.get(key, 0) + (n - t1 - t2 - t3)
    return classes


def _class_dets(kern, classes):
    # det T[S, S] of each gap class (t1, t2, t3), one LAPACK det per class.
    # The B-operator sites of a class are S = [0, t1) u [t1+t2, t1+t2+t3),
    # the A-operator sites those + 1; the classes of one order t1 + t3 share
    # a batched det.  Yields each order's classes and their dets
    g, off = kern.g, kern.ensemble.spec.sites - 1
    by_size = collections.defaultdict(list)
    for key in classes:
        by_size[key[0] + key[2]].append(key)
    for keys in by_size.values():
        b_sites = np.array([np.r_[0:t1, t1 + t2:t1 + t2 + t3] for t1, t2, t3 in keys])
        yield keys, np.linalg.det(g[off + b_sites[:, :, None] - b_sites[:, None, :] - 1])


def quad_sum_by_class(kern):
    """sum over quadruples l1<l2<l3<l4 of <sx sx sx sx>, one LAPACK det per gap class.

    The reference for minors._gap_class_sum.
    """
    classes = _gap_classes(kern.ensemble.spec.sites)
    total = 0.0
    for keys, dets in _class_dets(kern, classes):
        total += sum(classes[key] * float(d) for key, d in zip(keys, dets))
    return total


def _count_dets(monkeypatch):
    # the shape of every LAPACK det taken until monkeypatch.undo(): through
    # np.linalg.det, and through the gufunc it is built from, which
    # minors._det_minors calls directly
    calls, engine = [], minors._umath_linalg

    def counted(det):
        return lambda a, *args, **kwargs: calls.append(np.shape(a)) or det(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "det", counted(np.linalg.det))
    monkeypatch.setattr(minors, "_umath_linalg", types.SimpleNamespace(
        qr_r_raw=engine.qr_r_raw, qr_reduced=engine.qr_reduced, det=counted(engine.det)))
    return calls


def test_det_counter_sees_the_engine_dets(monkeypatch):
    # the positive control of every "no det" assertion: the slope's complex
    # pair minors take one det per order, 0 ... N-1, through the engine
    kern = correlations.kernel(_ens(sites=20))
    calls = _count_dets(monkeypatch)
    correlations.var_jx_slope(kern)
    monkeypatch.undo()
    assert calls == [(r, r) for r in range(20)]


# ordered, critical, cold paramagnetic, XX and gamma < 0 points
NESTED_GRID = ((1.0, 0.5, 0.3), (1.0, 1.0, 0.3), (1.0, 2.0, 0.05), (0.0, 0.5, 0.3),
               (-0.5, 0.5, 0.3), (-0.7, 0.3, 0.05))
# every pair matrix is singular on the gamma = -1, h/J = 0 line, the cold XX
# chain at h/J > 1 is fully polarized, and g = 0 at T = inf; in each case the
# x spins are uncorrelated and some elimination stacks break down
BREAKDOWN_GRID = ((-1.0, 0.0, 0.3), (0.0, 2.0, 0.05), (1.0, 0.5, math.inf))


@pytest.mark.parametrize("sites", (4, 6, 14, 30, 60))
def test_nested_minors_match_by_class_reference(sites, monkeypatch):
    for gamma, field, T in NESTED_GRID:
        kern = correlations.kernel(_ens(gamma=gamma, field_ratio=field, sites=sites, T=T))
        want = quad_sum_by_class(kern)
        calls = _count_dets(monkeypatch)
        nested = minors._window_sum(_pair_matrix(kern))
        assert calls == [], (gamma, field, T)
        monkeypatch.undo()
        fourth = correlations.fourth_moment_from_kernel(kern)
        assert 24.0 * abs(nested - want) <= 1e-13 * fourth, (gamma, field, T)


@pytest.mark.parametrize("gamma, field, T", ((-0.892, 0.767, 0.792), (-1.0, 1.0, 0.792),
                                             (-0.977, 0.386, 0.3155), (-0.697, 1.091, 0.792)))
def test_nested_minors_near_the_negative_gamma_critical_line(gamma, field, T):
    # elimination without row exchanges grows its upper factor by up to 1e17
    # near this line.  Each class is c(t3) times a window minor of order t1
    # <= t3, read once per ring-rotation orbit (t2 <= d), and these points
    # measure 1.9e-13, 2.9e-11, 2.2e-13 and 7.4e-13 of <J_x^4> against the
    # by-class reference (8.7e-14, 3.2e-11, 2.1e-13 and 7.1e-13 with every
    # t2 read); with _PANEL = 1, 2, 4, 8 and 16 alone they stay within
    # 9.4e-14 ... 2.0e-13, 2.9e-11, 2.2e-13 and 2.9e-13 ... 1.9e-12.  That
    # is a margin over rounding orders, not a bound of the algorithm: (-1,
    # 1, 0.7924466) measures 1.2e-10
    kern = correlations.kernel(_ens(gamma=gamma, field_ratio=field, sites=50, T=T))
    nested = minors._window_sum(_pair_matrix(kern))
    fourth = correlations.fourth_moment_from_kernel(kern)
    assert 24.0 * abs(nested - quad_sum_by_class(kern)) <= 1e-10 * fourth


def _windows(n):
    # the (s, t2) Schur windows of the quadruple sum: one per ring-rotation
    # orbit, t1 <= s and t2 <= d = N - t1 - t2 - s for some t1 >= 1
    return sorted((s, b) for s in range(1, n) for b in range(1, n) if s + 2 * b <= n - 1)


def _orbit_classes(n):
    # the representative (t1, t2, t3), t1 <= t3 and t2 <= d = N - t1 - t2 -
    # t3, of every ring-rotation orbit: the classes both routes read
    return sorted((a, b, c) for a in range(1, n) for b in range(1, n) for c in range(a, n)
                  if a + 2 * b + c <= n)


def _pair_classes(n, pairs):
    # the representatives (t1, t2, t3) that the contraction matrices of the
    # pairs (t1, t2) hold as their leading minors of order t1 + t3, t1 <=
    # t3 <= N - t1 - 2 t2
    return sorted((a, b, c) for a, b in pairs for c in range(a, n - a - 2 * b + 1))


def _record_stacks(monkeypatch):
    # the (s, t2) of every window gathered, stack by stack, and the pairs
    # (t1, t2) whose contraction matrices the fallback bounds
    windows, pairs = [], []
    window_stack, hadamard = minors._window_stack, minors._hadamard_products

    def gather(store, stack):
        windows.append(list(zip(stack.t3.tolist(), stack.t2.tolist())))
        return window_stack(store, stack)

    def bound(squares, t1, t2, order):
        pairs.extend((a, t2) for a in t1.ravel().tolist())
        return hadamard(squares, t1, t2, order)

    monkeypatch.setattr(minors, "_window_stack", gather)
    monkeypatch.setattr(minors, "_hadamard_products", bound)
    return windows, pairs


def _record_halvings(monkeypatch):
    # the shape of every stack handed to the orthogonal halving from outside
    # it, whether to the halving or to one level of it (the pair
    # correlators' two blocks enter one level through
    # _complementary_minors).  The halving recurses through the module
    # attribute, and each level's split calls back into it, so a depth
    # counter shared by both leaves out every call the halving makes of itself
    shapes, depth = [], [0]

    def entry(fn, record):
        def wrapped(a):
            if record and not depth[0]:
                shapes.append(a.shape)
            depth[0] += 1
            try:
                return fn(a)
            finally:
                depth[0] -= 1
        return wrapped

    monkeypatch.setattr(minors, "_halving_minors", entry(minors._halving_minors, True))
    monkeypatch.setattr(minors, "_split", entry(minors._split, True))
    return shapes


def _singular_at(kern, steps):
    # a kernel of the same ensemble whose pair matrix T has pivots of 1 for
    # the given number of elimination steps and then an exact 0: T is the
    # identity plus ones at that distance above and below the diagonal, so
    # that only the first step changes the pivot it then meets (1 - 1 * 1),
    # and T = 0 for no steps
    n = kern.ensemble.spec.sites
    g = np.zeros(2 * n - 1)
    if steps:
        g[n - 2] = g[n - 2 + steps] = g[n - 2 - steps] = 1.0
    return correlations.CorrelationKernel(kern.ensemble, g)


def _break_pair_matrix_after(monkeypatch, kern, steps):
    # a breakdown of the pair matrix forced after the given number of steps:
    # the snapshots come from the elimination of _singular_at's matrix
    snapshots = minors._schur_snapshots
    singular = _pair_matrix(_singular_at(kern, steps))
    monkeypatch.setattr(minors, "_schur_snapshots", lambda block: snapshots(singular))


def _pair_matrix(kern):
    # T[a, b] = g_{a-b-1} on the N-1 bond sites, as the quadruple sum builds it
    n = kern.ensemble.spec.sites
    return correlations._toeplitz(kern.g, n - 2, n - 1)


def _fallback(kern):
    # the engine's fallback on the pair matrix, at the tolerance
    # fourth_moment_from_kernel hands the engine: one ulp of N + 3N(N-1), over 24
    n = kern.ensemble.spec.sites
    return minors._fallback_sum(_pair_matrix(kern), minors._EPS * (n + 3.0 * n * (n - 1)) / 24.0)


def _plain_elimination(kern):
    # the largest multiplier of the N-3 elimination steps of the pair matrix
    # and the first step whose snapshot is not finite (None if none is)
    n = kern.ensemble.spec.sites
    block, largest, first = _pair_matrix(kern), 0.0, None
    with np.errstate(all="ignore"):
        for step in range(n - 3):
            col = block[1:, 0] / block[0, 0]
            largest = max(largest, float(np.max(np.abs(col))))
            block = block[1:, 1:] - col[:, None] * block[0, None, 1:]
            if first is None and not np.isfinite(block).all():
                first = step
    return largest, first


def test_pair_matrix_elimination_breaks_down_at_the_forced_step():
    # steps 0 ... N-4 are checked; the pivot of step N-3 is never taken.
    # Every multiplier is checked once, after the last step, so every forced
    # step is caught.  A snapshot that overflows while every multiplier
    # stays finite and at most 1 breaks the elimination down too: entries
    # of 1e308 two and three places above the diagonal and -1 two and three
    # below add up to inf in the second snapshot, Sigma_2
    n = 30
    kern = correlations.kernel(_ens(sites=n))
    assert minors._schur_snapshots(_pair_matrix(kern)) is not None
    for steps in (0, 1, 5, 20, n - 4):
        assert minors._schur_snapshots(_pair_matrix(_singular_at(kern, steps))) is None, steps
    assert minors._schur_snapshots(_pair_matrix(_singular_at(kern, n - 3))) is not None
    g = np.zeros(2 * n - 1)
    g[n - 2] = 1.0
    g[[n, n + 1]] = -1.0
    g[[n - 4, n - 5]] = 1e308
    overflowing = correlations.CorrelationKernel(kern.ensemble, g)
    assert _plain_elimination(overflowing) == (1.0, 1)
    assert minors._schur_snapshots(_pair_matrix(overflowing)) is None


def test_nested_minors_split_stacks_at_the_element_cap(monkeypatch):
    # a cap of 200 entries leaves a few matrices a stack.  At the regular
    # point each of the 36 Schur windows of N = 14 is eliminated in exactly
    # one stack and nothing goes to the fallback.  With a breakdown of the
    # pair matrix forced at its first pivot, at the same point, the whole
    # sum goes to the fallback, whose Hadamard bounds run in chunks of one
    # t2, of order N - 2 t2, under the cap; the bound is O(1) and certifies
    # nothing, so every orbit representative takes the orthogonal minors of
    # its own contraction matrix, the matrices handed to the engine in those
    # same stacks
    n, cap = 14, 200
    gamma, field, T = NESTED_GRID[0]
    kern = correlations.kernel(_ens(gamma=gamma, field_ratio=field, sites=n, T=T))
    fourth = correlations.fourth_moment_from_kernel(kern)
    for breaks in (False, True):
        whole = _fallback(kern) if breaks else minors._window_sum(_pair_matrix(kern))
        if breaks:
            _break_pair_matrix_after(monkeypatch, kern, 0)
        monkeypatch.setattr(minors, "_DET_BATCH_ELEMENTS", cap)
        leading, hadamard = minors._leading_minors, minors._hadamard_products
        shapes, bounded = [], []
        monkeypatch.setattr(minors, "_leading_minors", lambda mats, offsets:
                            shapes.append(mats.shape) or leading(mats, offsets))
        monkeypatch.setattr(minors, "_hadamard_products", lambda squares, t1, t2, order:
                            bounded.append((len(t1), t2)) or hadamard(squares, t1, t2, order))
        halved = _record_halvings(monkeypatch)
        windows, pairs = _record_stacks(monkeypatch)
        calls = _count_dets(monkeypatch)
        split = minors._window_sum(_pair_matrix(kern))
        if breaks:
            assert split is None
            split = _fallback(kern)
        monkeypatch.undo()
        assert all(b == 1 or b * m * m <= cap for b, m, _ in shapes), breaks
        assert all(b == 1 or b * (n - 2 * t2) ** 2 <= cap for b, t2 in bounded), breaks
        assert all(b == 1 or b * m * m <= cap for b, m, _ in halved), breaks
        assert sum(b for b, _ in bounded) == len(pairs) == sum(b for b, _, _ in halved), breaks
        assert sorted(sum(windows, [])) == ([] if breaks else _windows(n))
        assert len(shapes) == len(windows)
        assert _pair_classes(n, pairs) == (_orbit_classes(n) if breaks else [])
        assert bool(halved) == breaks and calls == [], breaks
        assert split == pytest.approx(whole, rel=1e-13), breaks
        assert 24.0 * abs(split - quad_sum_by_class(kern)) <= 1e-12 * fourth, breaks


@pytest.mark.parametrize("gamma, field, T", BREAKDOWN_GRID)
def test_breakdown_points_take_the_fallback_without_dets(gamma, field, T, monkeypatch):
    # the pair matrix breaks down at its first pivot, and Hadamard's bound
    # certifies every class at N = 24 and up.  Below that the gamma = -1,
    # h/J = 0 point sits at the certificate's edge, and the rings of 6, 8
    # and 14 sites take orthogonal minors, so there the by-class dets check
    # an independent algorithm.  No det runs at any N
    for n in (6, 8, 14, 24, 30, 50):
        kern = correlations.kernel(_ens(gamma=gamma, field_ratio=field, sites=n, T=T))
        want = quad_sum_by_class(kern)
        calls = _count_dets(monkeypatch)
        fourth = correlations.fourth_moment_from_kernel(kern)
        monkeypatch.undo()
        assert calls == [], f"dets taken at N={n}"
        assert minors._window_sum(_pair_matrix(kern)) is None, n
        assert 24.0 * abs(_fallback(kern) - want) <= 1e-12 * fourth, n
        assert fourth == pytest.approx(3 * n * n - 2 * n, rel=1e-12), n
        if T == math.inf:
            assert fourth == 3 * n * n - 2 * n


@pytest.mark.parametrize("gamma, field, T", BREAKDOWN_GRID)
def test_breakdown_points_keep_the_certified_route(gamma, field, T, monkeypatch):
    # past a breakdown of the pair matrix at its first pivot every orbit
    # representative goes to the fallback, one contraction matrix per pair
    # (t1, t2), t2 <= (N-2)/2 and t1 <= (N - 2 t2)/2, whose Hadamard bounds
    # certify every class at N = 30 and 50, so no window is gathered and no
    # orthogonal minor is taken
    for n in (30, 50):
        kern = correlations.kernel(_ens(gamma=gamma, field_ratio=field, sites=n, T=T))
        correlations.var_jx(kern)  # the pair correlators take orthogonal minors of their own
        halved = _record_halvings(monkeypatch)
        windows, pairs = _record_stacks(monkeypatch)
        correlations.fourth_moment_from_kernel(kern)
        monkeypatch.undo()
        assert windows == [] and halved == [], n
        assert sorted(pairs) == sorted((a, b) for b in range(1, (n - 2) // 2 + 1)
                                       for a in range(1, (n - 2 * b) // 2 + 1)), n
        assert _pair_classes(n, pairs) == _orbit_classes(n), n


@pytest.mark.parametrize("gamma, field, T", NESTED_GRID + BREAKDOWN_GRID)
def test_hadamard_products_bound_every_class_det(gamma, field, T):
    # each summed class (every orbit representative, weight > 0) at N = 14,
    # against the det of its contraction matrix built here from the class's
    # own sites: a site off by one or a dropped wrap column would put the
    # product below |det|
    n = 14
    kern = correlations.kernel(_ens(gamma=gamma, field_ratio=field, sites=n, T=T))
    g, off = kern.g, n - 1
    checked = 0
    for t2 in range(1, (n - 2) // 2 + 1):
        m = n - 2 * t2
        order = np.arange(1, m + 1)
        t1 = np.arange(1, m // 2 + 1)[:, None]
        products = minors._hadamard_products(np.square(_pair_matrix(kern)), t1, t2, order)
        weights = minors._orbit_weights(n, t1, t2, order - t1)
        for b, k in zip(*np.nonzero(weights)):
            a = b + 1
            sites = np.r_[0:a, a + t2:t2 + k + 1]
            det = np.linalg.det(g[off + sites[:, None] - sites[None, :] - 1])
            assert abs(det) <= products[b, k] * (1.0 + 1e-13), (a, t2, k + 1 - a)
            checked += 1
    assert checked == len(_orbit_classes(n))


def _orbit_gaps(kern, *orbits):
    # per orbit, max |det T[S, S] of (t1, t2, t3) - that of orbit(t1, t2,
    # t3, d)| over every gap class, d = N - t1 - t2 - t3 >= 1, over the
    # largest |det|
    n = kern.ensemble.spec.sites
    classes = [(t1, t2, t3) for t1 in range(1, n) for t2 in range(1, n - t1)
               for t3 in range(1, n - t1 - t2)]
    dets = {key: float(d) for keys, ds in _class_dets(kern, classes) for key, d in zip(keys, ds)}
    scale = max(abs(d) for d in dets.values())
    return [max(abs(dets[key] - dets[orbit(*key, n - sum(key))]) for key in classes) / scale
            for orbit in orbits]


@pytest.mark.parametrize("sites", (14, 30))
def test_class_minors_are_invariant_under_the_ring_rotation(sites):
    # the four gaps (t1, t2, t3, d) close the ring, and rotating the four
    # sites by one maps class (t1, t2, t3) to (t3, d, t1): same det.  The
    # dets, one per class, measure within 5.9e-15 of the largest at gamma >=
    # 0 and 9.7e-14 at gamma < 0; the bounds allow 8x and 10x that.  Swapping
    # the first two gaps is no symmetry, and moves some det by 0.1 of the
    # largest or more, so the bound catches a wrong orbit
    for gamma, field, T in NESTED_GRID:
        kern = correlations.kernel(_ens(gamma=gamma, field_ratio=field, sites=sites, T=T))
        rotation, swap = _orbit_gaps(kern, lambda t1, t2, t3, d: (t3, d, t1),
                                     lambda t1, t2, t3, d: (t2, t1, t3))
        bound = 5e-14 if gamma >= 0 else 1e-12
        assert rotation <= bound < swap, (gamma, field, T)


def test_window_minors_do_not_depend_on_their_stack():
    # windows of orders 24, 20, 15, 10, 7, 3 and 1 share one stack at the
    # panel-aligned offsets 0, 0, 8, 8, 16, 16 and 16, so the first panels
    # factor only a prefix of it.  Orders 20, 10 and 3 are leading blocks of
    # Sigma_s[t2:, t2:] whose rows run on in the store past the window,
    # orders 15, 7 and 1 are its whole trailing blocks, and order 1 is
    # that of the last snapshot, whose rows run into the store's spare
    # entries.  Each window block and the identity rows around it must be
    # gathered exactly as a zero-filled stack holds them, whatever the
    # columns a window row runs on into hold; the stack's minors must be
    # bitwise those of the zero-filled stack, each window's bitwise those
    # it gets alone, and the identity must leave pivots of 1.  A first
    # pivot of the order-7 window, which the first two panels skip, that is
    # zero or below roundoff of its column must still break the stack down
    n, panel = 50, minors._PANEL
    s, t2 = np.array([24, 20, 30, 10, 40, 3, 47]), np.array([1, 3, 4, 5, 2, 40, 1])
    orders = np.minimum(s, n - 1 - s - t2)
    m = orders[0]
    offsets = (m - orders) // panel * panel
    assert orders.tolist() == [24, 20, 15, 10, 7, 3, 1]
    assert offsets.tolist() == [0, 0, 8, 8, 16, 16, 16]
    origin = np.zeros(1, dtype=int)
    for gamma, field, T in (NESTED_GRID[0], (-0.892, 0.767, 0.792)):
        kern = correlations.kernel(_ens(gamma=gamma, field_ratio=field, sites=n, T=T))
        store, starts = minors._schur_snapshots(_pair_matrix(kern))
        assert len(starts) == n - 3
        stack = minors._window_stack(
            store, minors._plan_stack(n, s, t2, orders, offsets, m))
        filled = np.zeros_like(stack)
        filled[:, np.arange(m), np.arange(m)] = 1.0
        for mat, a, b, k, o in zip(filled, s.tolist(), t2.tolist(), orders.tolist(),
                                   offsets.tolist()):
            size = n - 1 - a
            snapshot = store[starts[a - 1]:starts[a - 1] + size * size].reshape(size, size)
            mat[o:o + k, o:o + k] = snapshot[b:b + k, b:b + k]
        for mat, want, k, o in zip(stack, filled, orders.tolist(), offsets.tolist()):
            assert np.array_equal(mat[o:o + k, o:o + k], want[o:o + k, o:o + k])
            assert np.array_equal(mat[:o], want[:o]) and np.array_equal(mat[o + k:], want[o + k:])
        stacked = minors._leading_minors(stack.copy(), offsets)
        assert np.array_equal(stacked, minors._leading_minors(filled, offsets))
        for i, (k, o) in enumerate(zip(orders.tolist(), offsets.tolist())):
            alone = minors._leading_minors(minors._window_stack(
                store, minors._plan_stack(n, s[i:i + 1], t2[i:i + 1], orders[i:i + 1],
                                          origin, k)), origin)
            assert np.array_equal(stacked[i, o:o + k], alone[0]), (gamma, k)
            assert np.all(stacked[i, :o] == 1.0) and np.all(stacked[i, o + k:] == alone[0, -1])
        for pivot in (0.0, 1e-18):
            stack[4, offsets[4], offsets[4]] = pivot
            assert minors._leading_minors(stack.copy(), offsets) is None, (gamma, pivot)


def _check_whole_point_in_fallback(monkeypatch, kern, label):
    # with a breakdown already forced: the nested sum stops at it, no window
    # after it is gathered, and every orbit representative reaches the
    # fallback exactly once, through one contraction matrix per pair (t1,
    # t2); no det runs.
    # Returns the windows gathered, stack by stack
    n = kern.ensemble.spec.sites
    fallback, taken = minors._fallback_sum, []
    monkeypatch.setattr(minors, "_fallback_sum", lambda block, tolerance:
                        taken.append(fallback(block, tolerance)) or taken[-1])
    windows, pairs = _record_stacks(monkeypatch)
    calls = _count_dets(monkeypatch)
    fourth = correlations.fourth_moment_from_kernel(kern)
    monkeypatch.undo()
    assert len(set(sum(windows, []))) == len(sum(windows, [])), label
    assert len(taken) == 1 and _pair_classes(n, pairs) == _orbit_classes(n), label
    assert calls == [], label
    assert 24.0 * abs(taken[0] - quad_sum_by_class(kern)) <= 1e-12 * fourth, label
    return windows


def test_window_stack_breakdown_sends_the_whole_point_to_the_fallback(monkeypatch):
    # a breakdown forced on a middle window stack at a point where none
    # breaks down: the stacks after it are not gathered and the whole point
    # goes to the fallback, which takes no det
    n, cap = 30, 5000
    kern = correlations.kernel(_ens(sites=n))
    broken = len(minors._window_plan(n, cap)) // 2
    assert 0 < broken < len(minors._window_plan(n, cap)) - 1
    monkeypatch.setattr(minors, "_DET_BATCH_ELEMENTS", cap)
    leading, count = minors._leading_minors, itertools.count()
    monkeypatch.setattr(minors, "_leading_minors", lambda mats, offsets:
                        None if next(count) == broken else leading(mats, offsets))
    assert len(_check_whole_point_in_fallback(monkeypatch, kern, "window")) == broken + 1


def test_window_plan_is_built_once_per_ring_size(monkeypatch):
    # the windows' stacks depend on N alone: a sweep at fixed N plans them
    # for its first point only, a change of ring size rebuilds the same
    # plan, and every array of it refuses writes
    minors._window_plan.cache_clear()
    setup = faraday.FaradaySetup()
    for T in np.geomspace(0.1, 2.0, 6):
        assert faraday.ReadoutPoint(_ens(sites=50, T=T), setup).snr_varjx > 0.0
    assert minors._window_plan.cache_info().misses == 1

    def plan(n):
        return minors._window_plan(n, minors._DET_BATCH_ELEMENTS)

    first = {n: plan(n) for n in (14, 50)}
    for i, n in enumerate((14, 50, 14, 50)):
        misses = minors._window_plan.cache_info().misses
        stacks = plan(n)
        assert minors._window_plan.cache_info().misses == misses + 1, i
        assert minors._window_plan.cache_info().currsize == 1
        assert len(stacks) == len(first[n]) and [a.m for a in stacks] == [b.m for b in first[n]]
        for a, b in zip(stacks, first[n]):
            for name in ("t3", "t2", "offsets", "rows", "weights"):
                x = getattr(a, name)
                assert np.array_equal(x, getattr(b, name)), (n, name)
                assert not x.flags.writeable
                with pytest.raises(ValueError):
                    x[0] = 0
    # a different cap is a different plan
    monkeypatch.setattr(minors, "_DET_BATCH_ELEMENTS", 200)
    assert len(plan(14)) > len(first[14])


def test_window_plan_weights_no_minor_past_a_window():
    # the columns a window row runs on into are gathered as they are: they
    # feed only stack minors past the window's own order, so every such
    # minor, and every one before the offset, must have class weight 0.
    # A cap of 200 entries stacks windows of several orders together
    for n in (6, 14, 50, 100):
        for cap in (minors._DET_BATCH_ELEMENTS, 200):
            for stack in minors._window_plan(n, cap):
                order = np.minimum(stack.t3, n - stack.t3 - 2 * stack.t2)[:, None]
                q = np.arange(1, stack.m + 1) - stack.offsets[:, None]
                assert np.all(stack.weights[(q <= 0) | (q > order)] == 0), (n, cap)


def test_window_plan_counts_every_quadruple_once():
    # each gap class is read once per ring-rotation orbit {(t1, t2, t3),
    # (t3, t2, t1), (t3, d, t1), (t1, d, t3)}, so the plan's weights must
    # count every index set l1 < l2 < l3 < l4 of [0, N) exactly once; the
    # plan holds every orbit window, and only those
    for n in (6, 14, 50, 100, 200):
        for cap in (minors._DET_BATCH_ELEMENTS, 200):
            plan = minors._window_plan(n, cap)
            assert sum(int(stack.weights.sum()) for stack in plan) == math.comb(n, 4), (n, cap)
            assert sorted(zip(np.concatenate([s.t3 for s in plan]).tolist(),
                              np.concatenate([s.t2 for s in plan]).tolist())) == _windows(n)


def _reversal_weights(n, t1, t2, t3):
    # the weights of counting each class with its reverse alone, N - t1 - t2
    # - t3 origins twice for t1 < t3: the negative control of the orbit rule
    return np.where(t3 > t1, 2, t3 == t1) * np.maximum(n - t1 - t2 - t3, 0)


def _weights_by_route(n, monkeypatch):
    # {(t1, t2, t3): weight} of every class the window plan of N = n weights,
    # and of every class the fallback bounds, from minors._orbit_weights as
    # it stands; the fallback runs on T = 0, whose bound 0 certifies it
    plan = {}
    for stack in minors._window_plan.__wrapped__(n, minors._DET_BATCH_ELEMENTS):
        for i, q in zip(*np.nonzero(stack.weights)):
            key = (int(q + 1 - stack.offsets[i]), int(stack.t2[i]), int(stack.t3[i]))
            plan[key] = int(stack.weights[i, q])
    fallback, weights = {}, minors._orbit_weights

    def record(n, t1, t2, t3):
        w = weights(n, t1, t2, t3)
        for b, k in zip(*np.nonzero(w)):
            fallback[(int(t1[b, 0]), t2, int(t3[b, k]))] = int(w[b, k])
        return w

    with monkeypatch.context() as patch:
        patch.setattr(minors, "_orbit_weights", record)
        assert minors._fallback_sum(np.zeros((n - 1, n - 1)), 0.0) == 0.0
    return plan, fallback


def test_fallback_reads_the_classes_and_weights_of_the_window_plan(monkeypatch):
    # the window plan and the fallback hold one rule for which gap classes
    # make up the quadruple sum and how each is weighted: the representative
    # of each ring-rotation orbit, weighted for the whole orbit, so that
    # every index set l1 < l2 < l3 < l4 of [0, N) counts once.  Negative
    # control: with the reversal-only weights the fallback's weights differ
    # from the plan's, and in both routes they do not count C(N, 4)
    for n in (6, 14, 50):
        plan, fallback = _weights_by_route(n, monkeypatch)
        assert sorted(plan) == _orbit_classes(n), n
        assert fallback == plan, n
        assert sum(plan.values()) == math.comb(n, 4), n
        with monkeypatch.context() as patch:
            patch.setattr(minors, "_orbit_weights", _reversal_weights)
            reversal_plan, reversal_fallback = _weights_by_route(n, monkeypatch)
        assert sorted(reversal_fallback) == sorted(plan) and reversal_fallback != plan, n
        assert sum(reversal_plan.values()) != math.comb(n, 4), n


# float.hex of the quadruple sum on NESTED_GRID at N = 50, then at (1, 0.5,
# 0.3), N = 100, as the windows of one ring-rotation orbit each give them
NESTED_BITS = ("0x1.300c0689bd67ep+17", "0x1.e1459fc531b88p+13", "0x1.a8c8ffef8fe51p+7",
               "0x1.6c98090eee686p+11", "0x1.f7eb2ed57fa62p+4", "0x1.0898a504b149ap+3",
               "0x1.012307594c182p+21")


def test_nested_quad_sum_keeps_its_bits():
    points = [(50, p) for p in NESTED_GRID] + [(100, NESTED_GRID[0])]
    for (n, (gamma, field, T)), bits in zip(points, NESTED_BITS, strict=True):
        kern = correlations.kernel(_ens(gamma=gamma, field_ratio=field, sites=n, T=T))
        assert minors._window_sum(_pair_matrix(kern)).hex() == bits, (n, gamma, field, T)


def test_pair_matrix_breakdown_sends_the_whole_point_to_the_fallback(monkeypatch):
    # a breakdown of the pair matrix forced after p = 0, 5 and 20 steps, at
    # a point where none breaks down: no window is gathered and the whole
    # point goes to the fallback, which takes no det
    kern = correlations.kernel(_ens(sites=30))
    for p in (0, 5, 20):
        _break_pair_matrix_after(monkeypatch, kern, p)
        assert _check_whole_point_in_fallback(monkeypatch, kern, p) == [], p


def test_window_breakdown_point_of_the_quartic_sweep(monkeypatch):
    # a tscan-quartic point at which one window stack breaks down.  There
    # the windows that do not break down lose about 8 digits: sending the
    # broken stack's classes alone to the fallback left the quadruple sum
    # 1.8e-8 of <J_x^4> off, the whole point in the fallback 2.8e-17
    kern = correlations.kernel(_ens(gamma=-0.9653537597782795, field_ratio=0.2609446655556303,
                                    sites=50, T=0.05))
    fallback, taken = minors._fallback_sum, []
    monkeypatch.setattr(minors, "_fallback_sum", lambda *args:
                        taken.append(fallback(*args)) or taken[-1])
    calls = _count_dets(monkeypatch)
    fourth = correlations.fourth_moment_from_kernel(kern)
    monkeypatch.undo()
    assert calls == [] and len(taken) == 1
    assert 24.0 * abs(taken[0] - quad_sum_by_class(kern)) <= 1e-15 * fourth


def test_fourth_moment_makes_no_det_calls(monkeypatch):
    kern = correlations.kernel(_ens(sites=50))
    correlations.var_jx(kern)  # fills the pair memo, as a ReadoutPoint does
    calls = _count_dets(monkeypatch)
    assert correlations.fourth_moment_from_kernel(kern) == pytest.approx(
        4286944.630758701, rel=1e-10)
    assert calls == []


# ---- pair correlators from recursive QR halving ------------------------------------

def _pair_matrices(sites):
    # both pair matrices (x: shift -1, y: +1) of every PAIR_GRID point
    a = np.arange(sites - 1)
    for gamma, field, T in PAIR_GRID:
        kern = correlations.kernel(_ens(gamma=gamma, field_ratio=field, sites=sites, T=T))
        for shift in (-1, +1):
            yield (gamma, field, T, shift), kern.g[sites - 1 + shift + a[:, None] - a[None, :]]


def _assert_halving_equals_scipy_recursion(sites):
    for label, mat in _pair_matrices(sites):
        assert np.array_equal(minors._halving_minors(mat.copy()),
                              _scipy_halving_minors(mat)), label


@pytest.mark.parametrize("sites", (4, 50))
def test_pair_matrix_minors_equal_the_scipy_lapack_recursion_bitwise(sites):
    _assert_halving_equals_scipy_recursion(sites)


def test_large_pair_matrix_minors_equal_the_scipy_lapack_recursion_bitwise():
    # at N = 300 the blocked QR runs multi-threaded unless BLAS is pinned, and
    # numpy and scipy bundle separately built OpenBLAS libraries, whose
    # threaded reductions group sums differently; with one thread each, as
    # the benchmark and the README pin it, the two agree to the last bit
    script = ("import sys\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "import test_correlations\n"
              "test_correlations._assert_halving_equals_scipy_recursion(300)\n"
              "print('ok')\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script, os.path.dirname(__file__)],
                          capture_output=True, text=True, env=env)
    assert proc.stdout.split() == ["ok"], proc.stderr[-2000:]


def _mp_leading_minors(mat):
    # every leading minor of a float matrix, exactly as given, by elimination
    # without row exchanges in 60-digit arithmetic
    with mpmath.workdps(60):
        rows = [[mpmath.mpf(float(x)) for x in row] for row in mat]
        minors, product = [mpmath.mpf(1)], mpmath.mpf(1)
        for k in range(len(rows)):
            pivot = rows[k][k]
            assert pivot != 0
            product *= pivot
            minors.append(product)
            for row in rows[k + 1:]:
                factor = row[k] / pivot
                row[k + 1:] = [x - factor * y for x, y in zip(row[k + 1:], rows[k][k + 1:])]
        return minors


@pytest.mark.parametrize("gamma, field, T", ((1.0, 2.0, 0.05), (0.3, 0.7, 0.4)))
def test_pair_correlators_are_accurate_in_absolute_terms(gamma, field, T):
    # against 60-digit arithmetic on the same kernel: every correlator is
    # within 2e-15 absolute (5.2e-16 and 5.0e-16 measured), not relative;
    # at the cold point c(29) = 2.6e-10 keeps only about six digits, and
    # Var(J_x) stays within 1e-14 relative.  A few separations of the
    # reference are checked against a pivoted 60-digit det
    n = 60
    kern = correlations.kernel(_ens(gamma=gamma, field_ratio=field, sites=n, T=T))
    a = np.arange(n - 1)
    mat = kern.g[n - 2 + a[:, None] - a[None, :]]
    exact = _mp_leading_minors(mat)
    with mpmath.workdps(60):
        for r in (1, 17, 29, 59):
            assert abs(mpmath.det(mpmath.matrix(mat[:r, :r].tolist())) - exact[r]) <= (
                mpmath.mpf(10) ** -40 * abs(exact[r]))
        var_exact = n + 2 * sum((n - d) * exact[d] for d in range(1, n))
    got = kern.xx
    assert np.max(np.abs(got - np.array([float(x) for x in exact]))) <= 2e-15
    assert abs(correlations.var_jx(kern) - float(var_exact)) <= 1e-14 * float(var_exact)


def test_pair_variances_match_the_40_digit_reference():
    # tools/mp_reference.py: Var(J_x) and Var(J_y) from occupations and
    # kernel in mpmath and fixed-point Givens minors, at every PAIR_GRID
    # point for N = 60 and 300.  Unlike the 60-digit minors of the float
    # kernel above, it holds where the true correlators vanish below the
    # kernel's rounding, as at (0, 2, 0.05)
    with open(os.path.join(os.path.dirname(__file__), "pair_reference.json")) as fh:
        points = json.load(fh)["points"]
    grid = {(p["gamma"], p["field_ratio"], float(p["temperature"])) for p in points}
    assert grid == set(PAIR_GRID) and {p["sites"] for p in points} == {60, 300}
    for p in points:
        kern = correlations.kernel(_ens(gamma=p["gamma"], field_ratio=p["field_ratio"],
                                        sites=p["sites"], T=float(p["temperature"])))
        for name in ("var_jx", "var_jy"):
            exact = mpmath.mpf(p[name])
            assert abs(getattr(correlations, name)(kern) - exact) <= 1e-14 * exact, (p, name)


def test_40_digit_reference_method_matches_the_dense_oracle():
    # the reference's own route (mpmath kernel, fixed-point Givens minors)
    # against exact diagonalization of the 8-site matched ring, with
    # var_jy(gamma) read as var_jx(-gamma)
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "tools", "mp_reference.py")
    spec = importlib.util.spec_from_file_location("mp_reference", path)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    n = 8
    for gamma, field, T in PAIR_GRID[:-1]:
        g = reference.kernel(n, gamma, field, T)
        for shift, sign in ((-1, 1.0), (+1, -1.0)):
            dense = oracle.build(ChainSpec(gamma=sign * gamma, field_ratio=field, sites=n),
                                 oracle.MATCHED)
            want = oracle.oracle_var_jx(dense, T)
            assert float(reference.variance(n, g, shift)) == pytest.approx(want, rel=1e-12), (
                gamma, field, T, shift)


def _whole_matrix_correlators(kern, shift):
    # every correlator from one halving of the (N-1) x (N-1) pair matrix
    n = kern.ensemble.spec.sites
    pairs = correlations._toeplitz(kern.g, n - 1 + shift, n - 1)
    return np.concatenate(([1.0], minors._halving_minors(pairs)))


@pytest.mark.parametrize("T", cli.parse_axis("0.05:5:6:log"))
def test_zero_mode_points_take_the_whole_matrix_halving(T):
    # gamma = 0, h/J = 0 and N = 50 = 2 (mod 4): k = pi/2 is on the grid and
    # its t_k is roundoff, so C is singular to working precision; the two
    # values of c(h) disagree and every correlator comes from the whole
    # matrix, bit for bit, at every temperature of a tscan sweep
    n, h = 50, 24
    kern = correlations.kernel(_ens(gamma=0.0, field_ratio=0.0, sites=n, T=T))
    for shift in (-1, +1):
        lead = minors._halving_minors(correlations._toeplitz(kern.g, n - 1 + shift, h))
        inverse = correlations._inverse_block(kern, shift, n - h)
        tail = None if inverse is None else (np.prod(kern.ensemble.polarizations)
                                             * minors._halving_minors(inverse))
        assert tail is None or not abs(tail[-1] - lead[-1]) <= correlations._SPLIT_AGREEMENT
        assert np.array_equal(correlations._pair_correlations(kern, shift),
                              _whole_matrix_correlators(kern, shift)), (T, shift)


@pytest.mark.parametrize("sites, log10_det", ((300, -300.3), (1000, -1002.3)))
def test_split_stays_in_range_where_det_c_underflows(sites, log10_det, monkeypatch):
    # the gapless XX chain at T = 5: det C = prod t_k is 1e-300 (N = 300) and
    # 1e-1002 (N = 1000, below the float range), and 1/t_min reaches 480
    # and 1600; the split is taken: the pair matrix's and C^-1's leading
    # blocks of order N - (N-1)//2 go to the engine as one stack, and
    # nothing of order N-1 does.  Every correlator is finite and within
    # 2e-15 of the whole matrix's halving
    ens = _ens(gamma=0.0, field_ratio=0.0, sites=sites, T=5.0)
    assert np.log10(ens.polarizations).sum() == pytest.approx(log10_det, abs=0.05)
    kern = correlations.kernel(ens)
    m = sites - (sites - 1) // 2
    for shift in (-1, +1):
        halved = _record_halvings(monkeypatch)
        got = correlations._pair_correlations(kern, shift)
        monkeypatch.undo()
        assert halved == [(2, m, m)], shift
        want = _whole_matrix_correlators(kern, shift)
        assert np.isfinite(got).all() and np.max(np.abs(got - want)) <= 2e-15, shift


@seed(2026)
@settings(max_examples=40, deadline=None, database=None)
@given(half_sites=st.integers(3, 30), gamma=st.floats(-1.0, 1.0),
       field=st.floats(0.0, 2.0), log10_T=st.floats(-1.3, 0.7))
def test_var_jy_is_var_jx_at_flipped_anisotropy_for_any_point(half_sites, gamma, field, log10_T):
    # whichever route each takes: split, or whole matrix at a zero mode
    n, T = 2 * half_sites, 10.0 ** log10_T
    kern = correlations.kernel(_ens(gamma=gamma, field_ratio=field, sites=n, T=T))
    flipped = correlations.kernel(_ens(gamma=-gamma, field_ratio=field, sites=n, T=T))
    assert correlations.var_jy(kern) == pytest.approx(correlations.var_jx(flipped), rel=1e-13)


@seed(2027)
@settings(max_examples=30, deadline=None, database=None)
@given(half_sites=st.integers(2, 30), gamma=st.floats(-1.0, 1.0), field=st.floats(-2.0, 2.0))
def test_infinite_temperature_moments_are_exact_at_any_size(half_sites, gamma, field):
    # every n_k = 1/2, so the spins are N independent +-1 variables, and
    # every moment is exact, through the fallback of the quadruple sum too
    n = 2 * half_sites
    ens = _ens(gamma=gamma, field_ratio=field, sites=n, T=math.inf)
    kern = correlations.kernel(ens)
    assert correlations.var_jx(kern) == correlations.var_jy(kern) == n
    assert correlations.fourth_moment_from_kernel(kern) == 3 * n * n - 2 * n
    for modulation, weight in (("uniform", n), ("half", n / 2)):
        assert correlations.mean_jz(ens, modulation) == 0.0
        assert correlations.var_jz(ens, modulation) == weight


@seed(2028)
@settings(max_examples=40, deadline=None, database=None)
@given(half_sites=st.integers(2, 25), gamma=st.floats(-1.0, 1.0), field=st.floats(0.0, 2.0),
       log10_T=st.floats(-1.3, 0.7), modulation=st.sampled_from(correlations.MODULATIONS))
def test_field_reversal_keeps_the_moments_and_flips_the_magnetization(
        half_sites, gamma, field, log10_T, modulation):
    # a pi rotation of every spin about x maps h to -h, on the matched ring
    # too (its boundary parity factor is even for even N): the ceiling,
    # Var(J_z), Var(J_x) and its slope stay, <J_z> flips.  Measured over
    # 500 points: at most 8.6e-15 relative for the first three, 9.4e-15 of
    # Var(J_x) for the slope, whose error is near roundoff of Var(J_x), not
    # of itself, and 2.3e-16 of N for <J_z>, which is roundoff at h = 0.
    # <J_x^4> stays at gamma >= 0: at most 1.6e-14 relative over 500 points
    # drawn with N <= 50 and T in 10^[-1.3, 0.7], and 1.1e-14 over the 54 of
    # gamma in {0, 1} x h/J in {0, 1, 2} x N in {4, 30, 50} x T in {0.05,
    # 0.3, 5}.  At gamma < 0 the windows' elimination without row exchanges
    # moves it by a rounding order, 6.1e-12 at (-0.892, 0.767, 0.792), N = 50
    n, T = 2 * half_sites, 10.0 ** log10_T
    ens, mirrored = (_ens(gamma=gamma, field_ratio=f, sites=n, T=T) for f in (field, -field))
    kern, mirrored_kern = correlations.kernel(ens), correlations.kernel(mirrored)
    var = correlations.var_jx(kern)
    for want, got in ((thermometry.snr_crb(ens), thermometry.snr_crb(mirrored)),
                      (correlations.var_jz(ens, modulation),
                       correlations.var_jz(mirrored, modulation)),
                      (var, correlations.var_jx(mirrored_kern))):
        assert abs(got - want) <= 1e-13 * abs(want)
    slope = correlations.var_jx_slope(kern)
    assert abs(correlations.var_jx_slope(mirrored_kern) - slope) <= 1e-13 * (abs(slope) + var)
    mean = correlations.mean_jz(ens, modulation)
    assert abs(correlations.mean_jz(mirrored, modulation) + mean) <= 1e-13 * (abs(mean) + n)
    if gamma >= 0:
        fourth = correlations.fourth_moment_from_kernel(kern)
        assert abs(correlations.fourth_moment_from_kernel(mirrored_kern) - fourth) <= 1e-13 * fourth


@seed(2029)
@settings(max_examples=40, deadline=None, database=None)
@given(half_sites=st.integers(2, 15), gamma=st.floats(0.0, 1.0), field=st.floats(0.0, 2.0),
       log10_T=st.floats(-1.3, 0.7))
def test_window_and_fallback_quad_sums_agree_at_any_point(half_sites, gamma, field, log10_T):
    # the two routes of the quadruple sum, the Schur windows' eliminations
    # and the fallback's orthogonal minors of every class, wherever the
    # first does not break down.  Measured at 368 points, the 36 of gamma
    # in {0, 0.5, 1} x h/J in {0, 1, 2} x T in {0.05, 5} x N in {4, 30} and
    # 332 drawn as here: at most 4.1e-16 of <J_x^4> at the 366 where no
    # window broke down, and none was certified, so every fallback took
    # orthogonal minors.  gamma < 0 is left out: there the windows'
    # elimination without row exchanges is correct to a rounding order only
    kern = correlations.kernel(_ens(gamma=gamma, field_ratio=field, sites=2 * half_sites,
                                    T=10.0 ** log10_T))
    nested = minors._window_sum(_pair_matrix(kern))
    if nested is not None:
        fourth = correlations.fourth_moment_from_kernel(kern)
        assert 24.0 * abs(nested - _fallback(kern)) <= 1e-13 * fourth


def test_quad_sum_takes_pair_correlators_from_its_pivots():
    # the quadruple sum reads c(t1) from its own elimination of the pair
    # matrix, not from the kernel's memo, which is accurate in absolute
    # terms only: a poisoned memo leaves the sum as it was
    n = 60
    kern = correlations.kernel(_ens(gamma=1.0, field_ratio=2.0, sites=n, T=0.05))
    want = minors._window_sum(_pair_matrix(kern))
    kern.__dict__["xx"] = np.full(n, np.nan)
    assert np.isnan(kern.xx).all()
    assert minors._window_sum(_pair_matrix(kern)) == want


# NESTED_GRID plus a singular line point, a cold polarized XX point and T = inf
PAIR_GRID = NESTED_GRID + ((-1.0, 0.0, 0.3), (0.0, 2.0, 0.05), (1.0, 0.5, math.inf))


def _pair_correlation(kern, r, shift):
    # one LAPACK det for one separation 0 <= r <= N-1: the reference for
    # the halving
    if r == 0:
        return 1.0
    a = np.arange(r)
    off = kern.ensemble.spec.sites - 1 + shift
    return np.linalg.det(kern.g[off + a[:, None] - a[None, :]]).item()


def _per_separation_pair_sum(kern, shift):
    n = kern.ensemble.spec.sites
    corr = np.array([_pair_correlation(kern, r, shift) for r in range(n)])
    return n + correlations._pair_sum(corr)


@pytest.mark.parametrize("sites, grid", [(4, PAIR_GRID), (6, PAIR_GRID), (14, PAIR_GRID),
                                         (60, PAIR_GRID), (300, PAIR_GRID[1:3])])
def test_qr_pair_sums_match_per_separation_dets(sites, grid):
    for gamma, field, T in grid:
        kern = correlations.kernel(_ens(gamma=gamma, field_ratio=field, sites=sites, T=T))
        assert correlations.var_jx(kern) == pytest.approx(
            _per_separation_pair_sum(kern, -1), rel=1e-13), (gamma, field, T)
        assert correlations.var_jy(kern) == pytest.approx(
            _per_separation_pair_sum(kern, +1), rel=1e-13), (gamma, field, T)


def test_qr_correlators_keep_the_sign_of_negative_minors():
    # in the paramagnetic phase y pairs at gamma > 0 and x pairs at
    # gamma < 0 alternate in sign with the separation
    for gamma, shift in ((0.8, +1), (-0.6, -1)):
        kern = correlations.kernel(_ens(gamma=gamma, field_ratio=1.2, sites=60, T=0.5))
        got = correlations._pair_correlations(kern, shift)
        want = np.array([_pair_correlation(kern, r, shift) for r in range(60)])
        assert np.count_nonzero(want < -1e-8) >= 5
        large = np.abs(want) > 1e-8
        assert np.array_equal(np.sign(got[large]), np.sign(want[large]))
        assert np.max(np.abs(got - want)) <= 1e-12


def test_qr_pair_sums_exact_at_infinite_temperature():
    for n in (4, 60, 300):
        kern = correlations.kernel(_ens(sites=n, T=math.inf))
        assert correlations.var_jx(kern) == n
        assert correlations.var_jy(kern) == n


def test_var_jx_makes_no_det_calls_on_a_real_kernel(monkeypatch):
    kern = correlations.kernel(_ens(sites=300))
    calls = _count_dets(monkeypatch)
    assert correlations.var_jx(kern) == pytest.approx(32907.35782295236, rel=1e-13)
    assert correlations.xx_correlation(kern, 299) == kern.xx[299]
    assert calls == []


def test_yy_pairs_make_no_det_calls_on_a_real_kernel(monkeypatch):
    kern = correlations.kernel(_ens(sites=300))
    calls = _count_dets(monkeypatch)
    var_y = correlations.var_jy(kern)
    assert var_y == kern.ensemble.spec.sites + correlations._pair_sum(kern.yy)
    assert correlations.yy_correlation(kern, 299) == kern.yy[299]
    assert correlations.var_jy(kern) == var_y
    assert calls == []


@pytest.mark.parametrize("sites, factorizations, orthogonalizations", ((50, 2, 1), (300, 5, 4)))
def test_pair_correlators_make_one_lapack_call_per_level(sites, factorizations,
                                                         orthogonalizations, monkeypatch):
    # the pair matrix's block and C^-1's, both of order m = N - (N-1)//2,
    # go down the halving as one stack whatever the parity of each level's
    # order: m = 26 splits once into blocks of order 13, leaves; m = 151
    # splits into 76, 38, 19 and leaves of order 10.  Each split makes one
    # dgeqrf and one dorgqr call, the leaves one dgeqrf
    kern = correlations.kernel(_ens(sites=sites))
    engine, calls = minors._umath_linalg, collections.Counter()

    def counted(name):
        fn = getattr(engine, name)
        return lambda *args: calls.update([name]) or fn(*args)

    monkeypatch.setattr(minors, "_umath_linalg", types.SimpleNamespace(
        qr_r_raw=counted("qr_r_raw"), qr_reduced=counted("qr_reduced")))
    got = correlations._pair_correlations(kern, -1)
    monkeypatch.undo()
    assert calls == {"qr_r_raw": factorizations, "qr_reduced": orthogonalizations}
    assert np.array_equal(got, correlations._pair_correlations(kern, -1))


def test_var_jx_slope_keeps_the_per_separation_path():
    # the complex-step kernel is not rotated: the slope is the same number,
    # to the last bit, as when every pair took one LAPACK det
    kern = correlations.kernel(_ens(sites=50))
    assert correlations.var_jx_slope(kern) == -1427.6011376405074
    kern = correlations.kernel(_ens(gamma=-0.5, field_ratio=1.0, sites=50, T=0.126))
    assert correlations.var_jx_slope(kern) == 7.9362301658129955


# ---- Var(J_z) as a structure-factor mode sum ----------------------------------------

def _site_space_var_jz(kern, modulation):
    # the former kernel route: sum_r (sum_l w_l w_{l+r}) <sz_0 sz_r>_c, with the
    # connected correlator 1 - g_0^2 on site and -g_r g_{-r} off site
    n = kern.ensemble.spec.sites
    w = modulation_weights(modulation, n)
    conn = np.array([1.0 - kern.coefficient(0) ** 2]
                    + [-kern.coefficient(r) * kern.coefficient(-r) for r in range(1, n)])
    autocorr = np.array([w @ np.roll(w, -r) for r in range(n)])
    return float(autocorr @ conn)


@pytest.mark.parametrize("modulation", correlations.MODULATIONS)
def test_var_jz_matches_site_space_kernel_formula(modulation):
    for gamma, field, T in NESTED_GRID:
        ens = _ens(gamma=gamma, field_ratio=field, sites=50, T=T)
        want = _site_space_var_jz(correlations.kernel(ens), modulation)
        assert correlations.var_jz(ens, modulation) == pytest.approx(want, rel=1e-12), (
            gamma, field, T)


@pytest.mark.parametrize("field", (2.0, 1.9))
@pytest.mark.parametrize("modulation", correlations.MODULATIONS)
def test_var_jz_of_cold_polarized_xx_chain_matches_dense_reference(field, modulation):
    # Var(J_z) ~ 1e-16 .. 1e-18 here; the kernel route returned roundoff of either sign
    ens = _ens(gamma=0.0, field_ratio=field, sites=10, T=0.05)
    want = oracle.oracle_var_jz(oracle.build(ens.spec, oracle.MATCHED), 0.05, modulation)
    assert 0.0 < want < 1e-15
    assert correlations.var_jz(ens, modulation) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("sites", (50, 300))
def test_uniform_var_jz_of_xx_chain_is_four_fluctuation_weights(sites):
    # at gamma = 0 particle number is conserved: Var(J_z) = 4 sum_k n_k (1 - n_k)
    for field, T in ((0.5, 0.3), (1.0, 0.05), (1.9, 0.05), (2.0, 0.05), (3.0, 1.0)):
        ens = _ens(gamma=0.0, field_ratio=field, sites=sites, T=T)
        want = 4.0 * float(np.sum(ens.fluctuation_weights))
        assert correlations.var_jz(ens) == pytest.approx(want, rel=1e-12), (field, T)


def test_var_jz_is_exactly_zero_in_a_frozen_chain():
    ens = _ens(gamma=0.0, field_ratio=1e3, T=0.01)
    assert correlations.var_jz(ens) == 0.0
    assert correlations.var_jz(ens, "half") == 0.0


def test_var_jz_rejects_unknown_modulation():
    with pytest.raises(ValueError):
        correlations.var_jz(_ens(), "quarter")


def _rolled_var_jz(ens, modulation):
    # the structure-factor sums as they were: the rotation from freshly built
    # trig, t = 1 - 2n formed once per S(q), and k + q by four np.roll copies
    k = ens.modes.momenta
    a = np.cos(k) - ens.spec.field_ratio
    b = ens.spec.gamma * np.sin(k)
    r = np.hypot(a, b)
    large = np.sqrt(0.5 + 0.5 * np.divide(np.abs(a), r, out=np.ones_like(r), where=r > 0))
    small = 0.5 * np.divide(np.abs(b), r, out=np.zeros_like(r), where=r > 0) / large
    cos_t, sin_t = np.where(a >= 0, large, small), np.copysign(np.where(a >= 0, small, large), b)

    def structure_factor(shift):
        n = ens.occupations
        t = 1.0 - 2.0 * n
        cos_q, sin_q, n_q, t_q = (np.roll(x, -shift) for x in (cos_t, sin_t, n, t))
        pairing = (sin_t * cos_q + cos_t * sin_q) ** 2
        return 2.0 * float(np.sum(n * (1.0 - n_q) + n_q * (1.0 - n) + pairing * t * t_q))

    s0 = structure_factor(0)
    if modulation == "uniform":
        return s0
    return 0.25 * (s0 + structure_factor(ens.spec.sites // 2))


def _fresh_jz_mode_sum(ens, modulation, t):
    w = modulation_weights(modulation, ens.spec.sites)
    g0 = float(np.sum(np.cos(2.0 * ens.modes.angles) * t)) / ens.spec.sites
    return float(np.sum(w)) * -g0


@pytest.mark.parametrize("sites", (6, 50, 300))
@pytest.mark.parametrize("modulation", correlations.MODULATIONS)
def test_jz_statistics_equal_the_fresh_trig_formulas_bitwise(sites, modulation):
    # the mode table's rotation and double angle, the one t of var_jz and its
    # sliced k + pi shift change no bit of Var(J_z), <J_z> or its slope
    for gamma, field, T in PAIR_GRID:
        ens = _ens(gamma=gamma, field_ratio=field, sites=sites, T=T)
        label = (gamma, field, T)
        assert correlations.var_jz(ens, modulation) == _rolled_var_jz(ens, modulation), label
        assert correlations.mean_jz(ens, modulation) == _fresh_jz_mode_sum(
            ens, modulation, 1.0 - 2.0 * ens.occupations), label
        assert correlations.mean_jz_slope(ens, modulation) == _fresh_jz_mode_sum(
            ens, modulation, ens.polarization_slopes), label


# ---- bundles and limits -----------------------------------------------------------

def test_moments_bundle_consistent_with_parts():
    # every moment of a point is, bit for bit, what the standalone function gives
    ens = _ens(gamma=0.6, field_ratio=1.1, T=0.45)
    kern = correlations.kernel(ens)
    for modulation in correlations.MODULATIONS:
        m = faraday.ReadoutPoint(ens, faraday.FaradaySetup(modulation=modulation))
        assert m.var_jx == correlations.var_jx(kern)
        assert m.mean_jz == correlations.mean_jz(ens, modulation)
        assert m.var_jz == correlations.var_jz(ens, modulation)
        assert m.fourth_jx == correlations.fourth_moment_jx(ens)
        assert m.var_jx_slope == correlations.var_jx_slope(kern)
        assert m.mean_jz_slope == correlations.mean_jz_slope(ens, modulation)
        assert m.var_jx_squared == m.fourth_jx - m.var_jx * m.var_jx
    # the point has no <J_x>: the ring parity makes it vanish, as the dense
    # reference confirms
    dense = oracle.build(ens.spec, oracle.MATCHED)
    assert oracle.thermal_expectation(dense, 0.45, oracle.collective_x(8)) == pytest.approx(
        0.0, abs=1e-12)


def test_infinite_temperature_moments_are_exact():
    n = 8
    m = faraday.ReadoutPoint(_ens(sites=n, T=math.inf), faraday.FaradaySetup())
    assert (m.var_jx, m.var_jz, m.fourth_jx) == (n, n, 3 * n * n - 2 * n)
    assert m.mean_jz == 0.0
    assert m.var_jx_squared == 2 * n * n - 2 * n


def test_saturated_paramagnet_limits():
    ens = _ens(gamma=0.0, field_ratio=1e3, T=0.01)
    assert correlations.mean_jz(ens) == pytest.approx(8.0, abs=1e-9)
    assert correlations.var_jz(ens) == pytest.approx(0.0, abs=1e-9)
    kern = correlations.kernel(ens)
    for j in range(-7, 8):
        want = -1.0 if j == 0 else 0.0  # fully polarized: g_j -> -delta_j0
        assert kern.coefficient(j) == pytest.approx(want, abs=1e-9)


def test_var_jx_approaches_independent_spins_at_high_temperature():
    spec = ChainSpec(gamma=0.8, field_ratio=0.6, sites=12)
    grid = np.geomspace(0.2, 2e4, 29)
    vals = np.array([correlations.var_jx(correlations.kernel(
        thermometry.ensemble(spec, float(t)))) for t in grid])
    gaps = np.abs(vals - 12.0)
    assert np.all(np.diff(gaps) < 1e-12)
    assert gaps[-1] < 1e-3  # correction falls off as 1/T


def test_var_jx_dominates_var_jz_for_positive_anisotropy():
    for gamma in (0.3, 0.7, 1.0):
        for f, T in ((0.0, 0.2), (0.8, 0.5), (1.5, 1.0)):
            ens = _ens(gamma=gamma, field_ratio=f, T=T)
            assert correlations.var_jx(correlations.kernel(ens)) >= correlations.var_jz(ens)


def test_per_site_var_jx_grows_with_anisotropy_at_zero_field():
    values = []
    for gamma in (0.05, 0.3, 1.0):
        ens = _ens(gamma=gamma, field_ratio=0.0, sites=50, T=0.4)
        values.append(correlations.var_jx(correlations.kernel(ens)) / 50)
    assert values[0] <= values[1] <= values[2]


def test_raw_var_jx_at_least_one():
    for gamma, f, T in ((1.0, 0.0, 0.05), (0.5, 1.5, 0.3), (0.0, 0.5, 1.0), (0.3, 1.0, 5.0)):
        ens = _ens(gamma=gamma, field_ratio=f, sites=20, T=T)
        assert correlations.var_jx(correlations.kernel(ens)) >= 1.0


def test_ferromagnetic_plateau_value():
    # deep in the ordered phase the collective moment locks to N^2
    ens = _ens(gamma=1.0, field_ratio=0.0, sites=20, T=0.01)
    assert correlations.var_jx(correlations.kernel(ens)) == pytest.approx(400.0, rel=1e-10)
