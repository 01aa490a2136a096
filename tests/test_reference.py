"""The ``ritt`` and ``geometry`` goldens against a 50-digit reference.

``altproj ritt`` runs on the lines, rand6 and blocks fixtures, and
``altproj geometry`` on the two-subspace fixtures, as the golden test runs
them, and each value's relative forward error against ``reference`` (the
fixture's float64 spans and the grid's float64 lambda taken as exact)
must stay within the bound derived below.  The l2 inclinations of the
block model are also checked in process at K = 2000 and 20,000.
"""

import csv
import io

import numpy as np
import pytest

from altproj import block_aligned, ell2_direct, iota2
from altproj.cli import _load_instance_text
from altproj.geometry import _CLUSTER
from reference import minimax_rows, mpmath, power_rows, resolvent_rows
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
    the fixture's product, and its (ell, iota) at 50 digits."""
    code, data = _run(f"geometry-{fx}", str(tmp_path))
    assert code == 0
    header, row = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    cp = _load_instance_text(FIXTURES[fx]).cyclic()
    return {k: mpmath.mpf(v) for k, v in zip(header, row)}, cp, minimax_rows(cp)


@pytest.mark.parametrize("fx", ["lines", "rand6", "blocks", "blocks200"])
def test_minimax_columns_bracket_the_50_digit_reference(fx, tmp_path):
    row, cp, (ell, iota) = _geometry_case(fx, tmp_path)
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
    row, cp, (ell, iota) = _geometry_case(fx, tmp_path)
    # N = 2 and M = {0}: ell2^2 = 1 - c = 2 ell^2, and iota2 is the one-form iota
    b = cp._spans[0].shape[1]
    for column, truth, n in (("ell2_direct", mpmath.sqrt(2) * ell, 2), ("iota2", iota, 1)):
        bound = BLOCK_SIGMA_ROUNDING if b == 2 else _sigma_rounding(float(truth), n, b)
        assert abs(row[column] - truth) / truth <= bound, column


@pytest.mark.parametrize("k_blocks", [2000, 20000])
def test_l2_inclinations_of_the_block_model_to_a_few_eps(k_blocks):
    cp = block_aligned(k_blocks, "1/k").cyclic()
    c, s = cp._spans[1][-1, :, 0].real  # the smallest angle is the last block's
    with mpmath.workdps(50):
        theta = mpmath.atan2(s, c)
        truths = mpmath.sqrt(2) * mpmath.sin(theta / 2), mpmath.sin(theta)
    for value, truth in zip((ell2_direct(cp), iota2(cp)), truths):
        assert abs(value - truth) / truth <= BLOCK_SIGMA_ROUNDING
