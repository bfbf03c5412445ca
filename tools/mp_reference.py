"""40-digit reference values of Var(J_x) and Var(J_y) at fixed chain points.

Everything is recomputed from the chain parameters in extended precision,
independently of the package's numerics: the occupations and the kernel g_j
= (1/N) sum_k cos(k j + 2 theta_k) t_k with mpmath at 80 digits, then the
pair correlators as the leading minors of the Toeplitz pair matrices
g_{a-b-1} (x) and g_{a-b+1} (y) in 256-bit fixed-point integer arithmetic,
and the variances N + 2 sum_d (N - d) c(d).  The minors come from a QR
factorization updated one row and column at a time by Givens rotations
(det of the leading r x r block = product of the diagonal of its R, det Q
= 1): an orthogonal method, so singular pair matrices (T = inf, the gamma =
-1, h/J = 0 line) need no pivot, and every entry stays below 1 in
magnitude, where fixed point loses nothing.  Rounding is a few units of
2^-256 per operation, far below the 40 digits written.

The points are the pair grid of the test suite at N = 60 and 300; the
values go to a JSON file that the tests read, written so that a rerun
reproduces it byte for byte (about four minutes, most of it at N = 300):

    python tools/mp_reference.py --out tests/pair_reference.json

The tests also check this route against exact diagonalization of the
8-site ring.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import mpmath
import numpy as np

SITES = (60, 300)
# (gamma, h/J, T): six regular points, a point of the singular gamma = -1,
# h/J = 0 line, the cold polarized XX chain and T = inf
GRID = ((1.0, 0.5, 0.3), (1.0, 1.0, 0.3), (1.0, 2.0, 0.05), (0.0, 0.5, 0.3),
        (-0.5, 0.5, 0.3), (-0.7, 0.3, 0.05), (-1.0, 0.0, 0.3), (0.0, 2.0, 0.05),
        (1.0, 0.5, math.inf))
DIGITS = 40
KERNEL_DPS = 80
BITS = 256  # fixed-point fraction bits of the minors
ONE = 1 << BITS


def _fixed(x: mpmath.mpf) -> int:
    return int(mpmath.nint(x * ONE))


def kernel(n: int, gamma: float, field: float, temp: float) -> list[int]:
    """g_j, j = -N ... N, in fixed point, from the modes in mpmath."""
    with mpmath.workdps(KERNEL_DPS):
        gamma, field = mpmath.mpf(gamma), mpmath.mpf(field)
        # cos and sin of pi q / N, q = 0 ... 2N-1: every k j of the antiperiodic
        # grid k = pi (2m+1) / N is one of them, modulo 2 pi
        unit = [mpmath.pi * q / n for q in range(2 * n)]
        cos_q, sin_q = [mpmath.cos(u) for u in unit], [mpmath.sin(u) for u in unit]
        odd = [2 * m + 1 for m in range(-(n // 2), n // 2)]
        weights = []
        for q in odd:
            a, b = cos_q[q % (2 * n)] - field, gamma * sin_q[q % (2 * n)]
            r = mpmath.sqrt(a * a + b * b)
            if temp == math.inf or r == 0:
                t = mpmath.mpf(0)
            else:
                t = mpmath.tanh(r / mpmath.mpf(temp))  # 1 - 2 n_k, eps_k = 2 r
            # t cos 2 theta and t sin 2 theta, 2 theta = atan2(b, a)
            weights.append((t * a / r, t * b / r) if r else (t, mpmath.mpf(0)))
        g = []
        for j in range(-n, n + 1):
            total = mpmath.fsum(cos_q[q * j % (2 * n)] * wc - sin_q[q * j % (2 * n)] * ws
                                for q, (wc, ws) in zip(odd, weights))
            g.append(_fixed(total / n))
    return g


def leading_minors(mat: np.ndarray) -> list[int]:
    """det mat[:r, :r], r = 1 ... n, of a fixed-point integer matrix.

    The QR factors of the leading r x r block take the next row and column
    in O(r^2) work: Q^T times the new column extends R, and r Givens
    rotations clear the new row of R.  Each rotation has det 1, so the
    minor is the product of R's diagonal.
    """
    n = len(mat)
    r_mat = np.zeros((n, n), dtype=object)
    q_mat = np.zeros((n, n), dtype=object)
    minors = []
    for r in range(n):
        if r:
            r_mat[:r, r] = q_mat[:r, :r].T.dot(mat[:r, r]) >> BITS
        r_mat[r, :r + 1] = mat[r, :r + 1]
        q_mat[r, r] = ONE
        for i in range(r):
            a, b = int(r_mat[i, i]), int(r_mat[r, i])
            if b == 0:
                continue
            rho = math.isqrt(a * a + b * b)
            cs, sn = (a << BITS) // rho, (b << BITS) // rho
            top, bottom = r_mat[i, i:r + 1].copy(), r_mat[r, i:r + 1].copy()
            r_mat[i, i:r + 1] = (cs * top + sn * bottom) >> BITS
            r_mat[r, i:r + 1] = (cs * bottom - sn * top) >> BITS
            r_mat[r, i] = 0
            left, right = q_mat[:r + 1, i].copy(), q_mat[:r + 1, r].copy()
            q_mat[:r + 1, i] = (cs * left + sn * right) >> BITS
            q_mat[:r + 1, r] = (cs * right - sn * left) >> BITS
        product = ONE
        for i in range(r + 1):
            product = product * int(r_mat[i, i]) >> BITS
        minors.append(product)
    return minors


def variance(n: int, g: list[int], shift: int) -> str:
    """N + 2 sum_d (N - d) c(d) from the pair matrix g_{shift+a-b}, as a decimal string."""
    index = np.arange(n - 1)
    mat = np.array(g, dtype=object)[n + shift + index[:, None] - index[None, :]]
    total = sum((n - d) * c for d, c in enumerate(leading_minors(mat), start=1))
    with mpmath.workdps(KERNEL_DPS):
        return mpmath.nstr(n + 2 * mpmath.mpf(total) / ONE, DIGITS, strip_zeros=False)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    points = []
    for n in SITES:
        for gamma, field, temp in GRID:
            g = kernel(n, gamma, field, temp)
            points.append({"sites": n, "gamma": gamma, "field_ratio": field,
                           "temperature": repr(temp),
                           "var_jx": variance(n, g, -1), "var_jy": variance(n, g, +1)})
            print(f"N={n} ({gamma:g}, {field:g}, {temp:g}) done", file=sys.stderr, flush=True)
    result = {"what": f"Var(J_x) and Var(J_y) to {DIGITS} significant digits, from mpmath "
                      f"occupations and kernel ({KERNEL_DPS} digits) and {BITS}-bit "
                      "fixed-point Givens minors; temperature as Python repr",
              "points": points}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
