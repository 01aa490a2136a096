"""The ``ritt`` goldens against a 50-digit reference.

``altproj ritt`` runs on the lines, rand6 and blocks fixtures as the golden
test runs it, and each row's relative forward error against
``reference`` (the fixture's float64 spans and the grid's float64 lambda
taken as exact) must stay within the rounding bound derived below.
"""

import csv
import io

import numpy as np
import pytest

from altproj.cli import _load_instance_text
from reference import mpmath, power_rows, resolvent_rows
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
