"""The ``ritt``, ``geometry`` and ``numrange`` goldens against a 50-digit reference.

``altproj ritt`` and ``altproj numrange`` run on the lines, rand6 and
blocks fixtures, and ``altproj geometry`` on the two-subspace fixtures, as
the golden test runs them, and each value's forward error against
``reference`` (the fixture's float64 spans and the grid's float64 lambda
and phi taken as exact) must stay within the bound derived below; the
Friedrichs columns (``c``, ``ell2``, ``theta0``, ``rate_base``) must also
tell a ``c`` off by 1e-12 from the truth, and the ``numrange`` columns a
column off by 1e-12.  The l2 inclinations of the block model are also checked
in process at K = 2000 and 20,000.
"""

import csv
import io

import numpy as np
import pytest

from altproj import block_aligned, ell2, ell2_direct, iota2, rate_base, theta0
from altproj.cli import _load_instance_text
from altproj.geometry import _CLUSTER
from reference import minimax_rows, mpmath, numrange_rows, power_rows, resolvent_rows
from test_golden import FIXTURES, _run

EPS = np.finfo(float).eps

# The power rows: K_n = C^{n-1} K_1 takes n - 1 products whose inner
# dimension b is the last span's width (at most 3, rand6's), each rounding
# by about b eps relative, and the Gram eigenvalue and its square root add a
# few eps; at n <= 30 that is (30 b + 4) eps.  Measured: 15 eps (lines,
# where n ||T^n (I - T)|| falls to 4e-17 at n = 30), 4 eps (blocks).
POWER_BOUND = (30 * 3 + 4) * EPS

# The resolvent rows: T is formed from the spans with an error of about
# (N + 1) d eps (N = 2 factors of d <= 6 rows), the core C = Q^H T Q adds a
# QR and two products, about 3 d eps more, and LAPACK's SVD about
# d eps ||lambda I - T|| <= d eps (r + 1); so each sigma_min(lambda I - T)
# moves by about (N + 5) d eps (r + 1), relative to the smallest sigma_min
# on its circle at worst, and |lambda - 1| and the quotient add 2 eps.
# Measured: at most 1.5 eps (rand6), against bounds of 94-220 eps on lines
# and rand6 and up to 1.1e4 eps on blocks, whose top eigenvalue cos^2(1/12)
# is 0.008 from the finest circle.
def _resolvent_bound(r, floor):
    return (2 + 5) * 6 * EPS * (r + 1.0) / float(floor) + 2 * EPS


@pytest.mark.parametrize("fx", ["lines", "rand6", "blocks"])
def test_ritt_rows_stay_near_the_50_digit_reference(fx, tmp_path):
    code, data = _run(f"ritt-{fx}", str(tmp_path))
    assert code == 0
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))[1:]
    power = [float(v) for section, _, v in rows if section == "power"]
    radii = [float(r) for section, r, _ in rows if section == "resolvent"]
    resolvent = [float(v) for section, _, v in rows if section == "resolvent"]
    cp = _load_instance_text(FIXTURES[fx]).cyclic()
    assert len(power) == 30 and radii == [1.0 + 2.0**-k for k in range(1, 11)]
    assert all(abs(mpmath.mpf(v) - e) / e <= POWER_BOUND
               for v, e in zip(power, power_rows(cp, len(power))))
    assert all(abs(mpmath.mpf(v) - e) / e <= _resolvent_bound(r, floor)
               for v, r, (e, floor) in zip(resolvent, radii, resolvent_rows(cp, radii)))


# The minimax columns near a value v, with b the block size and r the
# rank of the feasible set per block.  A lower bound sqrt(lambda_min(A)),
# A = R^H R and R = (I - P_k) B, is exact at the dual weights it reports
# but for rounding: R carries about 2 b eps absolute from two products of
# inner dimension <= b, which moves sigma_min(R) = sqrt(lambda_min) by as
# much (2 b eps / v relative); forming A and its eigenvalue adds b eps
# relative when r = 1 and r eps ||A|| <= r eps absolute, r eps / (2 v^2)
# relative on the root, when r > 1; the square root and the last
# comparison add 2 eps.  An upper bound ||x - P_k x|| / ||x|| at a computed
# x rounds by about 3 b eps / v: x leaves the feasible set by b eps, and
# the subtraction of P_k x costs 2 b eps absolute.
def _lower_rounding(v, b, r):
    return (2 * b / v + (b if r == 1 else r / (2 * v**2)) + 2) * EPS


def _upper_rounding(v, b):
    return (3 * b / v + 2) * EPS


# Beyond rounding, iota's one-form dual is exact at lam = [1] and its bottom
# eigenvector attains it, so both bounds of iota sit at the truth.  ell's
# lower bound is the barrier path's at its last weight, 1e-14 of its start
# 2 N / ell2^2 <= 2 N / ell^2, where the central path's gap in
# sum mu = 1/ell^2 is the weight times the barrier's order q + N (q <= d,
# the size of S): N (q + N) 1e-14 relative on ell.  ell's upper bound comes
# from the bottom cluster, where sum_k lam_k A_k <= ell^2 + _CLUSTER and the
# rank reduction levels the active forms, so ell_hi^2 <= ell^2 + _CLUSTER.
# Measured: every bound within 2.5 eps of the truth but rand6's ell_hi
# (58 eps above) and blocks200's (1e-8 above, two blocks in the cluster);
# lines' iota_lo is float(sqrt(3)/2).
def _geometry_case(fx, tmp_path):
    """The ``altproj geometry`` row of a fixture as mpmath numbers by column,
    the fixture's product, and its (c, ell, iota) at 50 digits."""
    code, data = _run(f"geometry-{fx}", str(tmp_path))
    assert code == 0
    header, row = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    cp = _load_instance_text(FIXTURES[fx]).cyclic()
    return {k: mpmath.mpf(v) for k, v in zip(header, row)}, cp, minimax_rows(cp)


@pytest.mark.parametrize("fx", ["lines", "rand6", "blocks", "blocks200"])
def test_minimax_columns_bracket_the_50_digit_reference(fx, tmp_path):
    row, cp, (_, ell, iota) = _geometry_case(fx, tmp_path)
    n, b = cp.N, cp._spans[0].shape[1]
    d = cp._spans[0].shape[0] * b
    rank = max(s.shape[-1] for s in cp._spans)
    gaps = {  # column: (truth, rounding, allowance beyond rounding)
        "ell_lo": (ell, _lower_rounding(float(ell), b, b), n * (d + n) * 1e-14),
        "ell_hi": (ell, _upper_rounding(float(ell), b),
                   float(mpmath.sqrt(1 + _CLUSTER / ell**2) - 1)),
        "iota_lo": (iota, _lower_rounding(float(iota), b, rank), 0.0),
        "iota_hi": (iota, _upper_rounding(float(iota), b), 0.0),
    }
    for column, (truth, rounding, allowance) in gaps.items():
        # a lower bound below the truth, an upper one above, but for rounding
        excess = (row[column] - truth) / truth * (1 if column.endswith("hi") else -1)
        assert -rounding <= excess <= rounding + allowance, column


# The l2 columns near a value v.  ell2_direct and iota2 are sigma_min of a
# stack of residuals R_k = (I - P_k) B, k over N' <= N spans of block size
# b.  Each R_k carries about 3 b eps absolute: two products of inner
# dimension <= b, and X X^H is off a projector by X's own b eps off
# orthonormality.  B's span is off the exact one by about b eps, which
# moves sigma_min by b eps ||R|| with ||R|| <= sqrt(N'); and LAPACK's SVD of
# the (N' b) x r stack errs by about N' b eps ||R||.  So sigma_min moves by
# (4 + N') b sqrt(N') eps absolute at most, divided by v relative.
# Measured on rand6 (b = 6): 2.1 eps against bounds of 77 and 102 eps.
def _sigma_rounding(v, n, b):
    return (4 + n) * b * np.sqrt(n) * EPS / v


# On a family of 2 x 2 blocks spanned by e_1 and u = (c, s) (lines, the
# block model) the absolute count above is far too coarse: it would allow
# eps / s relative, the error of 1 - c^2.  Rounding puts at most eps absolute
# on the diagonal of R = I - u u^H and about eps s off it, and the SVD of the
# tall stack starts with a Householder QR, whose error is eps times each
# column's norm (about s and 1).  At sigma_min = sqrt(2) sin(theta/2) the
# right singular vector is (1, s/2) and the left one's R part (s, -1)/sqrt(2)
# to first order, so each error moves sigma_min by about eps s: relative,
# about eps from R and eps from the QR, and the bidiagonal SVD after it is
# relatively accurate (Demmel-Kahan 1990).  iota2 is the smaller of
# ||(I - u u^H) e_1|| = sin(theta), by the same count, and |s|, within
# eps of s / |u|.  So 4 eps relative.  Measured: at most 1.0 eps on lines,
# blocks and blocks200, and 0.8 eps on the block model at K = 2000 and
# 20,000, where the route from lambda_min(B^H (N I - sum P_k) B) was 2e6
# and 2e7 eps off (1300 eps on blocks200).
BLOCK_SIGMA_ROUNDING = 4 * EPS


@pytest.mark.parametrize("fx", ["lines", "rand6", "blocks", "blocks200"])
def test_l2_columns_stay_near_the_50_digit_reference(fx, tmp_path):
    row, cp, (_, ell, iota) = _geometry_case(fx, tmp_path)
    # N = 2 and M = {0}: ell2^2 = 1 - c = 2 ell^2, and iota2 is the one-form iota
    b = cp._spans[0].shape[1]
    for column, truth, n in (("ell2_direct", mpmath.sqrt(2) * ell, 2), ("iota2", iota, 1)):
        bound = BLOCK_SIGMA_ROUNDING if b == 2 else _sigma_rounding(float(truth), n, b)
        assert abs(row[column] - truth) / truth <= bound, column


# The Friedrichs columns of an N = 2 family with M = {0}.  c is
# lambda_max(B^H B) - 1 for B = [Q_1, Q_2], each Q_k the SVD's left factor of
# an orthonormal span of b rows: a basis within about b eps of an exact one,
# column by column, so with w the width of B and ||B|| <= sqrt(2),
# lambda_max moves by at most 2 sqrt(2 w) b eps.  Forming B^H B (inner
# dimension b, entries at most 1) adds w b eps in norm, and eigh about
# w eps ||B^H B|| <= 2 w eps; lambda_max - 1 is exact (Sterbenz, lambda_max in
# [1, 2]).  That absolute bound dc carries into the columns built on 1 - c:
# ell2 = sqrt((N-1)(1-c)) by dc / (2 (1 - c)) relative, plus 2 eps for 1 - c
# and the root.  The squared rate base s^2 = 1 - q, q = 3 (N-1)(1-c) / N^3,
# moves by 3 (N-1) dc / N^3 plus eps for its two roundings, so the rate base
# s by that over 2 s plus s eps / 2 for its root, and theta0 = asin(s) by
# that over cos(theta0) = sqrt(q), plus eps theta0 for the arcsine.  At
# blocks200, 1 - c = 1.25e-5, so ell2's bound is about 6.4e5 eps and
# theta0's 1.2e3 eps: the Gram route's cancellation, which only 1 - c taken
# from sines rather than from lambda_max - 1 would remove.  Measured: c
# within 0.6 eps absolute (rand6), ell2 within 455 eps and theta0 within
# 24 eps (blocks200), and rate_base within 0.3 eps relative (lines).
def _c_rounding(b, w):
    return (2 * np.sqrt(2 * w) * b + w * b + 2 * w) * EPS


@pytest.mark.parametrize("fx", ["lines", "rand6", "blocks", "blocks200"])
def test_friedrichs_columns_stay_near_the_50_digit_reference(fx, tmp_path):
    row, cp, (c, _, _) = _geometry_case(fx, tmp_path)
    n, b = cp.N, cp._spans[0].shape[1]
    dc = _c_rounding(b, sum(s.shape[-1] for s in cp._spans))
    with mpmath.workdps(50):
        q = 3 * (n - 1) * (1 - c) / n**3
        s = mpmath.sqrt(1 - q)
        theta = mpmath.asin(s)
        ds = (3 * (n - 1) * dc / n**3 + EPS) / (2 * s) + s * EPS / 2
        columns = {  # column: (truth, relative bound, the column computed from a float c)
            "c": (c, dc / c, float),
            "ell2": (mpmath.sqrt((n - 1) * (1 - c)), dc / (2 * (1 - c)) + 2 * EPS,
                     lambda v: ell2(v, n)),
            "theta0": (theta, (ds / mpmath.sqrt(q) + EPS * theta) / theta,
                       lambda v: theta0(v, n)),
            "rate_base": (s, ds / s, lambda v: rate_base(v, n)),
        }
        for column, (truth, bound, of_c) in columns.items():
            assert abs(row[column] - truth) / truth <= bound, column
            # a c off by 1e-12 either way fails the gate
            for planted in (float(row["c"]) - 1e-12, float(row["c"]) + 1e-12):
                assert abs(of_c(planted) - truth) / truth > bound, (column, planted)


# The numrange columns at a support angle phi.  numrange_boundary takes h as
# the top eigenvalue of H = sym(e^{-i phi} T) over T's blocks (over the 4 x 4
# core C = Q^H T Q for rand6) and z = <T x, x> at its eigenvector x.  Each
# rounding before x is a perturbation of T in norm: T (or C) carries about
# (N + 4) b eps, as for the resolvent rows, with b the block size of the
# spans; the multiplier e^{-i phi} and the product with it add 4 eps; a
# mirrored row of a real T is factored at an angle within 4 eps of its phi;
# and eigh is backward stable to about b eps ||H|| <= b eps.  So x is the
# exact top eigenvector of sym(e^{-i phi} T') for some ||T' - T|| <= E =
# ((N + 5) b + 8) eps, and h is within E of the truth (Weyl).  By
# Davis-Kahan, x is within sqrt(2) E / (gap - E) of the true eigenvector
# x_0 (up to phase), gap the reference's distance from h to the next
# eigenvalue of H, so <T x, x> is within 2 sqrt(2) E / (gap - E) of z_0;
# T' - T and forming <T x, x> add E and (b + 2) eps <= E: so
# |z - z_0| <= 2 E + 3 E / (gap - E), on re_z and im_z alike.  The gap falls
# to 8.4e-5 on blocks, where two ellipses nearly share a support line, and
# to 3.4e-3 on rand6; z's bound is below 1e-12 on all 64 lines rows, 35
# rand6 rows and 37 blocks rows.  Measured: h within 1.6 eps, and re_z and
# im_z within 2.5 eps (rand6 and blocks), against E = 22 eps (lines,
# blocks) and 50 eps (rand6).
@pytest.mark.parametrize("fx", ["lines", "rand6", "blocks"])
def test_numrange_columns_stay_near_the_50_digit_reference(fx, tmp_path):
    code, data = _run(f"numrange-{fx}", str(tmp_path))
    assert code == 0
    header, *rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    assert header[:4] == ["phi", "h", "re_z", "im_z"] and len(rows) == 64
    cp = _load_instance_text(FIXTURES[fx]).cyclic()
    e = ((cp.N + 5) * cp._spans[0].shape[1] + 8) * EPS
    truth = {"h": [], "re_z": [], "im_z": []}
    bound = {"h": [], "re_z": [], "im_z": []}
    for h, z, gap in numrange_rows(cp, [float(r[0]) for r in rows]):
        point = 2 * e + 3 * e / (gap - e) if gap > e else mpmath.inf
        for column, value, b in (("h", h, e), ("re_z", z.real, point), ("im_z", z.imag, point)):
            truth[column].append(value)
            bound[column].append(b)
    for j, column in enumerate(header[1:4], start=1):
        values = [float(r[j]) for r in rows]

        def within(shift):
            return all(abs(mpmath.mpf(v + shift) - t) <= b
                       for v, t, b in zip(values, truth[column], bound[column]))

        assert within(0.0), column
        # the column off by 1e-12 either way fails the gate
        assert not within(-1e-12) and not within(1e-12), column


@pytest.mark.parametrize("k_blocks", [2000, 20000])
def test_l2_inclinations_of_the_block_model_to_a_few_eps(k_blocks):
    cp = block_aligned(k_blocks, "1/k").cyclic()
    c, s = cp._spans[1][-1, :, 0].real  # the smallest angle is the last block's
    with mpmath.workdps(50):
        theta = mpmath.atan2(s, c)
        truths = mpmath.sqrt(2) * mpmath.sin(theta / 2), mpmath.sin(theta)
    for value, truth in zip((ell2_direct(cp), iota2(cp)), truths):
        assert abs(value - truth) / truth <= BLOCK_SIGMA_ROUNDING
