"""A Pfaffian with exact sign, and the Wick cross-check that needs it.

The package evaluates every string correlator as a plain determinant; the
Pfaffian lives here, on the test side, as an independent second route to
the pair correlators (test_wick_pfaffian_matches_toeplitz_route).  It is
Parlett-Reid tridiagonalization with partial pivoting: O(m^3), numerically
on par with an LU factorization, with the sign tracked through the
row/column swaps, since sqrt(det) would lose the physical sign.
"""
import numpy as np
import pytest

from xythermo import correlations, thermometry
from xythermo.spectrum import ChainSpec


def pfaffian(mat: np.ndarray) -> float:
    """Pfaffian of a real skew-symmetric matrix of even dimension.

    Raises ValueError for non-square or odd-dimensional input (the Pfaffian
    of an odd-dimensional skew matrix is identically zero only as a
    convention; callers here always mean even dimension) and for input that
    is not skew-symmetric to ~1e-12.
    """
    a = np.array(mat, dtype=float, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    m = a.shape[0]
    if m % 2 != 0:
        raise ValueError(f"Pfaffian requires even dimension, got {m}")
    if m == 0:
        return 1.0
    scale = max(1.0, float(np.max(np.abs(a))))
    if np.max(np.abs(a + a.T)) > 1e-12 * scale:
        raise ValueError("matrix is not skew-symmetric")

    pf = 1.0
    for j in range(0, m - 1, 2):
        # pivot: largest |a[i, j]| for i > j
        col = np.abs(a[j + 1:, j])
        p = j + 1 + int(np.argmax(col))
        if col[p - j - 1] == 0.0:
            return 0.0  # column of zeros -> singular skew matrix
        if p != j + 1:
            a[[j + 1, p], :] = a[[p, j + 1], :]
            a[:, [j + 1, p]] = a[:, [p, j + 1]]
            pf = -pf  # simultaneous row+column swap flips the sign once
        pivot = a[j + 1, j]
        pf *= -pivot  # Pf of the 2x2 block [[0, a_{j,j+1}], [., 0]]
        if j + 2 < m:
            # eliminate the rest of column/row j and j+1 with a congruence,
            # which leaves the Pfaffian of the trailing block unchanged
            tau = a[j + 2:, j] / pivot
            a[j + 2:, j + 2:] += np.outer(tau, a[j + 2:, j + 1])
            a[j + 2:, j + 2:] -= np.outer(a[j + 2:, j + 1], tau)
    return float(pf)


def random_skew(m, rng):
    a = rng.standard_normal((m, m))
    return a - a.T


def test_two_by_two():
    assert pfaffian(np.array([[0.0, 3.5], [-3.5, 0.0]])) == 3.5


def test_four_by_four_closed_form():
    rng = np.random.default_rng(7)
    a, b, c, d, e, f = rng.standard_normal(6)
    mat = np.array([
        [0.0, a, b, c],
        [-a, 0.0, d, e],
        [-b, -d, 0.0, f],
        [-c, -e, -f, 0.0],
    ])
    assert pfaffian(mat) == pytest.approx(a * f - b * e + c * d, rel=1e-12)


@pytest.mark.parametrize("m", [2, 4, 6, 8, 12])
def test_square_equals_determinant(m):
    rng = np.random.default_rng(m)
    for _ in range(5):
        mat = random_skew(m, rng)
        assert pfaffian(mat) ** 2 == pytest.approx(np.linalg.det(mat), rel=1e-9)


def test_empty_matrix_is_one():
    assert pfaffian(np.zeros((0, 0))) == 1.0


def test_zero_row_gives_zero():
    mat = random_skew(6, np.random.default_rng(3))
    mat[2, :] = 0.0
    mat[:, 2] = 0.0
    assert pfaffian(mat) == 0.0


def test_block_form_reduces_to_determinant():
    # Pf([[0, C], [-C^T, 0]]) = (-1)^(m(m-1)/2) det C
    rng = np.random.default_rng(11)
    for m in (2, 3, 4):
        C = rng.standard_normal((m, m))
        mat = np.block([[np.zeros((m, m)), C], [-C.T, np.zeros((m, m))]])
        want = (-1) ** (m * (m - 1) // 2) * np.linalg.det(C)
        assert pfaffian(mat) == pytest.approx(want, rel=1e-10)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        pfaffian(np.zeros((3, 3)))  # odd dimension
    with pytest.raises(ValueError):
        pfaffian(np.ones((4, 4)))  # not skew-symmetric
    with pytest.raises(ValueError):
        pfaffian(np.zeros((4, 2)))


def test_wick_pfaffian_matches_toeplitz_route():
    """The pair correlator evaluated two independent ways.

    <sx_l sx_{l+r}> is a determinant of the r x r Toeplitz matrix of string
    coefficients, but it is also (-1)^r times the Pfaffian of the full 2r x 2r
    antisymmetric table of pairwise contractions of the string factors
    (B_l, A_{l+1}, B_{l+1}, ..., A_{l+r}).  Both must agree.
    """
    spec = ChainSpec(gamma=0.7, field_ratio=0.4, sites=10)
    kern = correlations.kernel(thermometry.ensemble(spec, 0.45))

    def contraction(op_a, op_b):
        kind_a, site_a = op_a
        kind_b, site_b = op_b
        if kind_a == kind_b:  # <A_i A_j> = delta, <B_i B_j> = -delta, i != j here
            return 0.0
        if kind_a == "A":
            return kern.coefficient(site_b - site_a)
        return -kern.coefficient(site_a - site_b)

    for r in (1, 2, 3, 4):
        ops = []
        for j in range(r):
            ops.append(("B", j))
            ops.append(("A", j + 1))
        mat = np.zeros((2 * r, 2 * r))
        for p in range(2 * r):
            for q in range(p + 1, 2 * r):
                mat[p, q] = contraction(ops[p], ops[q])
                mat[q, p] = -mat[p, q]
        via_pf = (-1) ** r * pfaffian(mat)
        assert via_pf == pytest.approx(correlations.xx_correlation(kern, r), abs=1e-12)
