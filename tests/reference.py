"""50-digit references for golden columns (test-only).

Each function takes a product's float64 spans as exact, forms its blocks
at 50 significant digits (T_k = P_N ... P_1 with P = X X^H for the ``ritt``
rows, orthonormal bases of the spans for the minimax columns), and
recomputes what a golden column reports, so that a test can gate the
float64 values by their forward error against the truth.  ``mpmath`` is a
test extra; importing this module skips the tests that use it when it is
missing.
"""

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

DIGITS = 50


def _blocks(cp) -> list:
    """T's diagonal blocks as real mpmath matrices, from the exact spans;
    every fixture is real, and complex spans are refused."""
    if any(s.imag.any() for s in cp._spans):
        raise ValueError("the reference takes real spans")
    blocks = []
    for k in range(cp._spans[0].shape[0]):
        t = None
        for span in cp._spans:
            x = mpmath.matrix(span[k].real.tolist())
            p = x * x.H
            t = p if t is None else p * t
        blocks.append(t)
    return blocks


def _extreme_sigma(a, top: bool):
    """The largest or the smallest singular value of ``a``: the square root
    of an extreme eigenvalue of its Gram matrix, which 50 digits resolve
    far below a float64 ulp at the sizes and conditions used here."""
    w = mpmath.mp.eighe(a.H * a, eigvals_only=True)
    return mpmath.sqrt(max(max(w) if top else min(w), 0))


def power_rows(cp, n_max: int) -> list:
    """n ||T^n (I - T)|| for n = 1..n_max, each norm the largest over the blocks."""
    with mpmath.workdps(DIGITS):
        blocks = _blocks(cp)
        ks = [t * (mpmath.eye(t.rows) - t) for t in blocks]
        rows = []
        for n in range(1, n_max + 1):
            rows.append(n * max(_extreme_sigma(k, True) for k in ks))
            ks = [t * k for t, k in zip(blocks, ks)]
        return rows


def resolvent_rows(cp, radii, angles: int = 64) -> list:
    """Per radius r, the largest |lambda - 1| / sigma_min(lambda I - T) over
    lambda = r e^{2 pi i j / angles}, each sigma_min the smallest over the
    blocks, and the smallest sigma_min on the circle: one (value, floor)
    pair per radius.

    lambda is formed in float64, as the grid it samples, and then taken as
    exact.  T is real, so sigma_min and |lambda - 1| are the same at
    conj(lambda): the closed upper half of the circle, j = 0..angles // 2,
    gives the value.
    """
    phis = 2.0 * np.pi * np.arange(angles // 2 + 1) / angles
    with mpmath.workdps(DIGITS):
        blocks = _blocks(cp)
        eye = mpmath.eye(blocks[0].rows)
        rows = []
        for r in radii:
            best, floor = 0, mpmath.inf
            for lam in r * np.exp(1j * phis):
                lam = mpmath.mpc(lam.real, lam.imag)
                sigma = min(_extreme_sigma(lam * eye - t, False) for t in blocks)
                best, floor = max(best, abs(lam - 1) / sigma), min(floor, sigma)
            rows.append((best, floor))
        return rows


def _orthonormal(x):
    """An orthonormal basis of the column span of the mpmath matrix ``x``."""
    return mpmath.qr(x, mode="skinny")[0]


def minimax_rows(cp) -> tuple:
    """(ell, iota) of a two-subspace family with M = {0}, the spans' column
    spaces taken as exact and orthonormalized at 50 digits, block by block.

    iota is its definition: the smallest over n and over the blocks of
    sqrt(lambda_min(Q_n^H (I - Q_k Q_k^H) Q_n)), k the other factor, the
    one form of the inner dual.  ell is sqrt((1 - c)/2), c the largest
    singular value of Q_1^H Q_2 over the blocks: weights (1/2, 1/2) give
    the lower bound sqrt(lambda_min(I - (P_1 + P_2)/2)) = sqrt((1 - c)/2),
    and the bisector of the principal vectors u_1, u_2 with <u_1, u_2> = c
    attains it, since P_1 u_2 = c u_1 puts it at that distance from both.
    """
    if cp.N != 2 or np.any(cp._m_blocks != 0):
        raise ValueError("the reference takes two subspaces with M = {0}")
    if any(s.imag.any() for s in cp._spans):
        raise ValueError("the reference takes real spans")
    with mpmath.workdps(DIGITS):
        c, iota = mpmath.mpf(0), mpmath.inf
        for k in range(cp._spans[0].shape[0]):
            q = [_orthonormal(mpmath.matrix(s[k].real.tolist())) for s in cp._spans]
            g = q[0].H * q[1]
            c = max(c, mpmath.sqrt(max(mpmath.mp.eighe(g.H * g, eigvals_only=True))))
            for n in (0, 1):
                form = q[n].H * (mpmath.eye(q[n].rows) - q[1 - n] * q[1 - n].H) * q[n]
                iota = min(iota, mpmath.sqrt(min(mpmath.mp.eighe(form, eigvals_only=True))))
        return mpmath.sqrt((1 - c) / 2), iota
