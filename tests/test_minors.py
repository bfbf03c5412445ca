"""The leading-minor engine alone: stacks of matrices, no kernel.

The orthogonal minors against one LAPACK det per order and against the
same recursion taken one matrix at a time with scipy's LAPACK, and the
boundary of the engine's module: what it imports and what imports it.
"""
import ast
import os

import numpy as np
import pytest

import xythermo
from xythermo import minors

PACKAGE = os.path.dirname(os.path.abspath(xythermo.__file__))


def _halving_cases(n, rng):
    # contractions (|minor| <= 1), as the pair matrices are, so that one
    # absolute bound fits every order
    general = rng.standard_normal((n, n))
    general /= np.linalg.norm(general, 2)
    zero_row, zero_column = general.copy(), general.copy()
    zero_row[n // 2] = 0.0
    zero_column[:, n // 2] = 0.0
    # L diag(d) U with every d_i < 0: the minors prod d_i alternate in sign
    lower = np.tril(0.3 * rng.uniform(-1.0, 1.0, (n, n)) / n, -1) + np.eye(n)
    upper = np.triu(0.3 * rng.uniform(-1.0, 1.0, (n, n)) / n, 1) + np.eye(n)
    negative = lower @ np.diag(-rng.uniform(0.6, 1.0, n)) @ upper
    return {
        "general": general,
        "orthogonal": np.linalg.qr(rng.standard_normal((n, n)))[0],
        "signed permutation": np.eye(n)[rng.permutation(n)] * rng.choice((-1.0, 1.0), n),
        "zero row": zero_row,
        "zero column": zero_column,
        "zero": np.zeros((n, n)),
        "negative minors": negative / np.linalg.norm(negative, 2),
    }


def _assert_stacks_are_their_rows(cases):
    # the cases as one (B, n, n) stack, and the same stack with one more
    # leading axis: each row is bit-identical to its matrix's own 2-D call
    alone = {name: minors._halving_minors(a) for name, a in cases.items()}
    stack = np.stack(list(cases.values()))
    for got in (minors._halving_minors(stack),
                minors._halving_minors(stack.reshape(1, *stack.shape))[0]):
        assert got.shape == stack.shape[:-1]
        for name, row in zip(cases, got):
            assert np.array_equal(row, alone[name]), name


@pytest.mark.parametrize("n", (*range(1, 10), 17, 31, 33, 64, 151))
def test_halving_minors_match_one_det_per_order(n):
    rng = np.random.default_rng(n)
    cases = _halving_cases(n, rng)
    _assert_stacks_are_their_rows(cases)
    for name, a in cases.items():
        got = minors._halving_minors(a.copy())
        want = np.array([np.linalg.det(a[:r, :r]) for r in range(1, n + 1)])
        assert got.shape == (n,), name
        assert np.max(np.abs(got - want)) <= 1e-13, name
        clear = np.abs(want) > 1e-13
        assert np.array_equal(np.sign(got[clear]), np.sign(want[clear])), name
        if name in ("zero column", "zero"):  # a zero column of R: exact zeros
            assert np.all(got[n // 2 if name == "zero column" else 0:] == 0.0), name
        if name == "negative minors":
            assert np.array_equal(np.sign(got), (-1.0) ** np.arange(1, n + 1)), name


def _scipy_halving_minors(a):
    # the halving recursion, with scipy.linalg.lapack's QR, one matrix at a
    # time at every level and at the leaves: the reference for the
    # package's stacked calls of numpy's LAPACK QR gufuncs, which factor
    # the stack of a whole level at once
    from scipy.linalg import lapack

    def halve_into(a, out):
        n = len(a)
        if n <= minors._LEAF:
            # matrix j: the identity around a's leading (j+1) x (j+1) block
            stack = np.broadcast_to(np.eye(n), (n, n, n)).copy()
            for j in range(n):
                stack[j, :j + 1, :j + 1] = a[:j + 1, :j + 1]
            factors = [lapack.dgeqrf(m) for m in stack]
            assert all(info == 0 for *_, info in factors)
            diagonals = np.array([np.diagonal(qr) for qr, *_ in factors])
            signs = 1.0 - 2.0 * np.array([np.count_nonzero(tau) % 2 for _, tau, *_ in factors])
            out[:] = signs * np.prod(diagonals, axis=-1)
            return
        qr, tau, _, info = lapack.dgeqrf(a, lwork=32 * n)
        products = np.cumprod(np.diagonal(qr))
        q, _, orth_info = lapack.dorgqr(qr, tau, lwork=32 * n, overwrite_a=True)
        assert info == orth_info == 0
        # two blocks of order ceil(n/2); for odd n they share minor h, and
        # the leading block's, written last, is the one kept
        h = (n + 1) // 2
        halve_into(q[n - h:, n - h:][::-1, ::-1], out[n - 2::-1][:h])
        halve_into(q[:h, :h], out[:h])
        out[-1] = 1.0
        if np.count_nonzero(tau) % 2:
            out[h:] *= -1.0
        out *= products

    result = np.empty(len(a))
    halve_into(a, result)
    return result


@pytest.mark.parametrize("n", (*range(1, 10), 33, 64))
def test_halving_minors_equal_the_scipy_lapack_recursion_bitwise(n):
    rng = np.random.default_rng(n)
    cases = _halving_cases(n, rng)
    for name, a in cases.items():
        assert np.array_equal(minors._halving_minors(a), _scipy_halving_minors(a)), name
    _assert_stacks_are_their_rows(cases)


def _used_names(module):
    # every dotted name the module's source imports (relative imports read
    # as xythermo.<module>), and every attribute name it reads
    with open(os.path.join(PACKAGE, module + ".py")) as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "xythermo" + ("." + node.module if node.module else "") if node.level \
                else node.module
            names.update(f"{base}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_only_the_engine_takes_numpy_private_lapack_and_windows():
    # the private gufuncs and the windowed gather are the engine's: no
    # other module of the package imports or reads them
    private = ("_umath_linalg", "sliding_window_view")
    modules = sorted(name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py"))
    assert "correlations" in modules and "minors" in modules
    users = {module for module in modules
             if any(name.split(".")[-1] in private for name in _used_names(module))}
    assert users == {"minors"}


def test_the_engine_imports_no_physics():
    # the engine takes arrays: of the package it may read the read-only
    # helper of spectrum, and nothing of thermometry, correlations, faraday,
    # cli or oracle, the modules built on the kernel (nor the package root,
    # which imports them all)
    ours = {name for name in _used_names("minors") if name.split(".")[0] == "xythermo"}
    assert ours <= {"xythermo.spectrum._read_only"}


def test_the_physics_reaches_the_engine_by_one_call_per_route():
    # correlations hands the engine matrices and gets minors or a sum back:
    # of the engine it reads the four routes, the stack cap its fallback
    # chunks by, and the unit roundoff, never the snapshots, the window
    # plan, one level of the halving or a mantissa/exponent product
    with open(os.path.join(PACKAGE, "correlations.py")) as fh:
        tree = ast.parse(fh.read())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "minors"}
    assert read == {"_halving_minors", "_complementary_minors", "_window_sum", "_det_minors",
                    "_DET_BATCH_ELEMENTS", "_EPS"}
