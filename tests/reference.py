"""50-digit references for golden columns (test-only).

Each function takes a product's float64 spans as exact, forms its blocks
at 50 significant digits (T_k = P_N ... P_1 with P = X X^H for the ``ritt``
rows, orthonormal bases of the spans for the minimax columns), and
recomputes what a golden column reports, so that a test can gate the
float64 values by their forward error against the truth.  The two-subspace
references (``minimax_rows``, ``numrange_rows``) read the principal angles
of the orthonormalized spans instead of forming T.  ``mpmath`` is a
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
    """(c, ell, iota) of a two-subspace family with M = {0}, the spans' column
    spaces taken as exact and orthonormalized at 50 digits, block by block.

    c is the Friedrichs number: at N = 2 with M = {0}, the cosine of the
    smallest principal angle, the largest singular value of Q_1^H Q_2 over
    the blocks.  iota is its definition: the smallest over n and over the
    blocks of sqrt(lambda_min(Q_n^H (I - Q_k Q_k^H) Q_n)), k the other
    factor, the one form of the inner dual.  ell is sqrt((1 - c)/2):
    weights (1/2, 1/2) give the lower bound
    sqrt(lambda_min(I - (P_1 + P_2)/2)) = sqrt((1 - c)/2),
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
        return c, mpmath.sqrt((1 - c) / 2), iota


def numrange_rows(cp, phis) -> list:
    """(h, z, gap) at each support angle phi of a two-subspace family with
    M = {0}, the spans' column spaces taken as exact and orthonormalized at
    50 digits, block by block, and each phi taken as exact.

    The cosines c of the principal angles are the singular values of
    Q_1^H Q_2.  Each splits off a 2 x 2 block [[c^2, 0], [c s, 0]] of T
    (s = sqrt(1 - c^2)), and T is zero beside them, so W(T) is the convex
    hull of the blocks' ranges: ellipses with foci 0 and c^2, centre c^2/2,
    semi-axes c/2 and c s/2.  With rho = sqrt(cos^2 phi + s^2 sin^2 phi), an
    ellipse's support value at phi is (c^2/2) cos phi + (c/2) rho, attained
    at c^2/2 + (c/2)(cos phi + i s^2 sin phi)/rho, and its block of the
    Hermitian part of e^{-i phi} T has the eigenvalues
    (c^2/2) cos phi +- (c/2) rho.  h is the largest support value over the
    ellipses, z its point, and gap the distance from h to the next of those
    eigenvalues over every ellipse.
    """
    if cp.N != 2 or np.any(cp._m_blocks != 0):
        raise ValueError("the reference takes two subspaces with M = {0}")
    if any(s.imag.any() for s in cp._spans):
        raise ValueError("the reference takes real spans")
    with mpmath.workdps(DIGITS):
        squares = []  # c^2 of every principal angle, over the blocks
        for k in range(cp._spans[0].shape[0]):
            q = [_orthonormal(mpmath.matrix(s[k].real.tolist())) for s in cp._spans]
            g = q[0].H * q[1]
            w = mpmath.mp.eighe(g * g.H if g.rows <= g.cols else g.H * g, eigvals_only=True)
            squares += [w[i] for i in range(w.rows)]
        rows = []
        for phi in phis:
            cos, sin = mpmath.cos(phi), mpmath.sin(phi)
            best, values = None, []
            for a in squares:
                c, rho = mpmath.sqrt(a), mpmath.sqrt(cos**2 + (1 - a) * sin**2)
                h = a / 2 * cos + c / 2 * rho
                values += [h, a / 2 * cos - c / 2 * rho]
                if best is None or h > best[0]:
                    best = h, a / 2 + c / 2 * mpmath.mpc(cos, (1 - a) * sin) / rho
            values.sort(reverse=True)
            rows.append((best[0], best[1], values[0] - values[1]))
        return rows
