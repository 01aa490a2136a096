"""End-to-end acceptance battery: one test per numbered criterion.

All criteria share one seeded instance pool and the battery takes about
5 seconds, so it runs exactly once per session; each test then prints
the verdict line of its criterion and asserts it.
"""

import pytest

from altproj import acceptance
from altproj.acceptance import criterion_ids, run_all
from altproj.spectral import resolvent_diagnostic

_IDS = criterion_ids()


@pytest.fixture(scope="session")
def battery():
    return {res.cid: res for res in run_all()}


def test_registry_is_complete():
    assert tuple(_IDS) == tuple(range(1, 12))


@pytest.mark.parametrize("cid", _IDS, ids=[f"{cid:02d}" for cid in _IDS])
def test_criterion(battery, cid):
    res = battery[cid]
    print(res.line())
    assert res.passed, res.line()


# Exact verdict line of every criterion.  The lines print measured figures to
# a few digits, so a rounding change anywhere in the pool, the block model
# or the kernels they run shows here as a reviewed diff of this table, not
# only as a difference in `altproj suite` output.
_PINNED_LINES = {
    1: ("criterion 01 two_subspace_law: PASS (max |norm - cos^(2n-1) theta| = "
        "5.00e-16 over 3 angles, n <= 20)"),
    2: ("criterion 02 exponential_rate_bounds: PASS (min bound slack over 200 "
        "instances, n <= 200: friedrichs 1.00e-09, inner 9.99e-10)"),
    3: ("criterion 03 inclination_identity: PASS (max |ell2_direct - ell2(c)| = "
        "6.91e-14; min iota2 - ell2 = 2.41e-06)"),
    4: ("criterion 04 friedrichs_oracle: PASS (68 sampled instances, min margins "
        "1.0e-06 below / 3.15e-02 above; 40 two-subspace instances, max |c - "
        "sigma_max| = 1.6e-15)"),
    5: ("criterion 05 sweep_energy_inequality: PASS (10000 (instance, x) pairs, 0 "
        "violations at 1e-10 ||x||^2)"),
    6: ("criterion 06 numerical_range_containment: PASS (100 instances + 2 averaged "
        "fixtures, 0 escapes, worst margin -2.7e-15)"),
    7: ("criterion 07 ritt_diagnostics: PASS (sup n||T^n(I-T)|| <= 0.499; norm "
        "profile non-increasing past the peak (slack -2.0e-17); 28/200 weighted "
        "profiles multi-modal; resolvent variation 0.078%; zero-product constant "
        "1.9990)"),
    8: ("criterion 08 unconditional_convergence: PASS (max permuted deviation "
        "1.00e-07 of 2e-06 allowed; max telescoping residual 4.15e-14; longest "
        "truncation K = 92904)"),
    9: ("criterion 09 fractional_decay: PASS (alpha=0.5: slope -0.751, weighted "
        "tail non-increasing, sums bounded (sup 0.971); alpha=1: slope -1.250, "
        "weighted tail non-increasing, sums bounded (sup 0.723); alpha=2: slope "
        "-2.246, weighted tail non-increasing)"),
    10: ("criterion 10 slow_vector_construction: PASS (min e_n - r_n = 1.35e-01 over "
         "n <= 1000; ||x|| = 1.5772 <= 1.5870)"),
    11: ("criterion 11 stolz_angle_recursion: PASS (theta_1 = 0.0; |theta_2 - pi/6| "
         "= 0.0e+00; strictly increasing up to theta_10 = 1.5672)"),
}


@pytest.mark.parametrize("cid", sorted(_PINNED_LINES))
def test_verdict_line_is_pinned(battery, cid):
    assert battery[cid].line() == _PINNED_LINES[cid]


def test_ritt_criterion_takes_each_resolvent_in_one_call(monkeypatch):
    # both radii of an instance in one call, and one for the zero product
    radii = []

    def counted(t, *args, **kwargs):
        values = resolvent_diagnostic(t, *args, **kwargs)
        radii.append(len(values))
        return values

    monkeypatch.setattr(acceptance, "resolvent_diagnostic", counted)
    passed, _ = acceptance._ritt_diagnostics(acceptance._pool()[:5])
    assert passed and radii == [2] * 5 + [10]
