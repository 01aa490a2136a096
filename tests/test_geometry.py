"""Friedrichs numbers, inclinations, and the assembled geometry report."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from altproj import geometry
from altproj.linalg import eigh_sym
from altproj import (
    Subspace,
    block_aligned,
    complement_within,
    ell2,
    ell2_direct,
    friedrichs_number,
    friedrichs_number_sampled,
    geometry_report,
    intersection,
    iota2,
    minimax_inclination_estimate,
    orthonormalize,
    random_instance,
    rate_base,
    sandwich_check,
    two_lines,
)


@pytest.mark.parametrize("theta", [np.pi / 6, np.pi / 4, np.pi / 3, 1.0, 1.4])
def test_two_lines_friedrichs_is_the_cosine(theta):
    assert friedrichs_number(two_lines(theta)) == pytest.approx(np.cos(theta), abs=1e-12)


def test_orthogonal_lines_are_maximally_inclined():
    subs = two_lines(np.pi / 2)
    assert friedrichs_number(subs) == pytest.approx(0.0, abs=1e-12)
    assert ell2_direct(subs) == pytest.approx(1.0, abs=1e-12)
    assert iota2(subs) == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_lines_minimax_bounds():
    subs = two_lines(np.pi / 2)
    # the worst direction sits halfway between the lines; the bottom
    # eigenspace of the dual is the whole plane, so it has to be combined
    g = minimax_inclination_estimate(subs, kind="global")
    i = minimax_inclination_estimate(subs, kind="inner")
    assert g == pytest.approx((np.sqrt(0.5), np.sqrt(0.5)), abs=1e-12)
    assert i == pytest.approx((1.0, 1.0), abs=1e-12)
    with pytest.raises(ValueError):
        minimax_inclination_estimate(subs, kind="sideways")


def test_equal_subspaces_degenerate_quantities():
    # M_1 = M_2 = M: no complement directions remain anywhere
    s = orthonormalize(np.eye(3)[:, :2])
    subs = [s, s]
    assert friedrichs_number(subs) == 0.0
    assert ell2_direct(subs) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    with pytest.warns(UserWarning):
        assert iota2(subs) == np.inf


_ENTRY_POINTS = [
    friedrichs_number,
    lambda subs: friedrichs_number_sampled(subs, None, 100, seed=1),
    ell2_direct,
    iota2,
    minimax_inclination_estimate,
    geometry_report,
]


@pytest.mark.parametrize("entry", _ENTRY_POINTS)
def test_every_angle_quantity_refuses_a_single_subspace(entry):
    with pytest.raises(ValueError, match="at least two"):
        entry([orthonormalize(np.eye(3)[:, :2])])


def test_empty_feasible_sets_keep_their_answers():
    # M is the whole plane: M^perp and every M_n ∩ M^perp are zero
    subs = [Subspace(np.eye(2))] * 2
    m = intersection(subs)
    assert friedrichs_number(subs) == 0.0
    assert friedrichs_number_sampled(subs, m, 100, seed=1) == 0.0
    with pytest.warns(UserWarning, match="l2 inclination is \\+inf"):
        assert ell2_direct(subs) == np.inf
    with pytest.warns(UserWarning, match="inner inclination is \\+inf"):
        assert iota2(subs) == np.inf
    with pytest.warns(UserWarning, match="is \\+inf"):
        rep = geometry_report(subs)
    assert (rep.c, rep.ell2, rep.ell2_direct, rep.iota2) == (0.0, 1.0, np.inf, np.inf)
    assert (rep.ell_lo, rep.ell_hi, rep.iota_lo, rep.iota_hi) == (np.inf,) * 4
    for kind in ("global", "inner"):
        assert minimax_inclination_estimate(subs, kind=kind) == (np.inf, np.inf)


@pytest.mark.parametrize("seed", range(10))
def test_inclination_identity_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    d = int(rng.integers(3, 10))
    dims = tuple(int(rng.integers(1, d)) for _ in range(n))
    subs = random_instance(d, dims, seed=int(rng.integers(0, 2**31)))
    c = friedrichs_number(subs)
    direct = ell2_direct(subs)
    assert direct == pytest.approx(ell2(c, n), abs=1e-8)
    assert iota2(subs) >= direct - 1e-9


def test_sampled_friedrichs_brackets_the_eigenvalue_route():
    subs = random_instance(6, (2, 3), seed=42)
    m = intersection(subs)
    c = friedrichs_number(subs, m)
    cs = friedrichs_number_sampled(subs, m, 20000, seed=7)
    assert cs <= c + 1e-9  # sampling never exceeds the supremum
    assert cs >= c - 0.05  # and comes close at this sample count


def test_two_subspace_friedrichs_is_the_largest_singular_value():
    subs = random_instance(5, (2, 2), seed=11)
    b1, b2 = subs[0].basis, subs[1].basis
    sigma = np.linalg.svd(b1.conj().T @ b2, compute_uv=False).max()
    assert friedrichs_number(subs) == pytest.approx(sigma, abs=1e-9)


def test_friedrichs_number_reuses_the_validated_eigenvalues(monkeypatch):
    subs = random_instance(6, (2, 3, 3), seed=4)
    m = intersection(subs)
    b = np.concatenate([complement_within(s, m).basis for s in subs], axis=1)
    w, _ = eigh_sym(b.conj().T @ b)
    expected = float(np.clip((w[-1] - 1.0) / 2, 0.0, 1.0))
    calls = []

    def counted(a):
        calls.append(a.shape)
        return eigh_sym(a)

    monkeypatch.setattr(geometry, "eigh_sym", counted)
    assert friedrichs_number(subs, m) == expected  # bit-identical
    assert len(calls) == 1  # one eigh gives both the range check and c


def test_scalar_input_validation():
    with pytest.raises(ValueError):
        ell2(1.5, 2)
    with pytest.raises(ValueError):
        ell2(0.5, 1)
    with pytest.raises(ValueError):
        rate_base(-0.1, 3)
    assert ell2(1.0, 4) == 0.0


def test_geometry_report_and_sandwich_check():
    subs = random_instance(6, (2, 2, 3), seed=3)
    rep = geometry_report(subs)
    assert rep.N == 3
    assert rep.ell2 == pytest.approx(ell2(rep.c, 3), abs=1e-12)
    assert 0.0 <= rep.rate_base < 1.0
    assert rep.ell_hi - rep.ell_lo <= 1e-9 and rep.iota_hi - rep.iota_lo <= 1e-9
    assert all(ok for _, ok, _ in sandwich_check(rep))


def test_geometry_report_refuses_crossed_bounds():
    rep = geometry_report(two_lines(1.0))
    with pytest.raises(ValueError, match="lower bound exceeds"):
        dataclasses.replace(rep, ell_lo=rep.ell_hi + 1e-3)


def test_geometry_report_is_deterministic():
    subs = random_instance(5, (2, 2), seed=4)
    assert geometry_report(subs) == geometry_report(subs)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.floats(np.log(1e-3), np.log(np.pi / 2)))
def test_two_lines_minimax_inclinations(log_theta):
    theta = min(float(np.exp(log_theta)), np.pi / 2)
    subs = two_lines(theta)
    ell = minimax_inclination_estimate(subs, kind="global")
    iota = minimax_inclination_estimate(subs, kind="inner")
    assert ell == pytest.approx((np.sin(theta / 2),) * 2, abs=1e-12)
    assert iota == pytest.approx((np.sin(theta),) * 2, abs=1e-12)


@pytest.mark.parametrize("k_blocks", [1, 5, 12])
def test_block_model_minimax_inclinations_sit_in_the_last_block(k_blocks):
    subs = block_aligned(k_blocks, "1/k").subspaces
    theta = 1.0 / k_blocks
    ell = minimax_inclination_estimate(subs, kind="global")
    iota = minimax_inclination_estimate(subs, kind="inner")
    assert ell == pytest.approx((np.sin(theta / 2),) * 2, abs=1e-12)
    assert iota == pytest.approx((np.sin(theta),) * 2, abs=1e-12)


def _form_values(forms, y):
    m = y.conj().T @ forms @ y
    return np.trace(m, axis1=1, axis2=2).real / np.trace(y.conj().T @ y).real


@pytest.mark.parametrize("s", [0.3 * np.exp(0.7j), 0.3j])
def test_rank_reduction_stops_where_an_inactive_value_catches_up(s):
    # f1 = f2 = 1/2 at X = I/2 while f3 = 0.4; on the rank-one points with
    # f1 = f2, f3 ranges over [0.1, 0.7], so the reduction must let form 3
    # join the held values when it reaches them
    forms = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                      [[0.4, s], [np.conj(s), 0.4]]], dtype=complex)
    y = geometry._rank_one_factor(forms, np.eye(2) / np.sqrt(2), np.array([True, True, False]))
    assert y.shape[1] == 1
    f1, f2, f3 = _form_values(forms, y)
    assert f1 == pytest.approx(0.5, abs=1e-12) and f2 == pytest.approx(0.5, abs=1e-12)
    assert f3 <= 0.5 + 1e-12


def test_rank_reduction_never_raises_the_active_value():
    forms = np.array([[[0.8, 0.3j], [-0.3j, 0.4]]])
    y = geometry._rank_one_factor(forms, np.eye(2) / np.sqrt(2), np.array([True]))
    assert y.shape[1] == 1
    assert _form_values(forms, y)[0] <= 0.6 + 1e-12  # its value at X = I/2


# three lines in C^3 and a 7-dimensional N = 3 family (pool instances 95
# and 157) whose dual optimum has a degenerate bottom eigenspace: the
# primal point must be leveled and rank-reduced inside it
@pytest.mark.parametrize("d,dims,seed", [(3, (1, 1, 1), 782407891), (7, (2, 4, 3), 1382147062)])
def test_degenerate_three_subspace_bounds_meet(d, dims, seed):
    lo, hi = minimax_inclination_estimate(random_instance(d, dims, seed=seed), kind="global")
    assert 0.0 <= hi - lo <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 4), st.integers(3, 10), st.integers(0, 2**31 - 1), st.data())
def test_minimax_bounds_on_random_families(n, d, seed, data):
    dims = data.draw(st.lists(st.integers(1, d - 1), min_size=n, max_size=n))
    subs = random_instance(d, dims, seed=seed)
    m = intersection(subs)
    l2 = ell2_direct(subs, m)
    ell_lo, ell_hi = minimax_inclination_estimate(subs, m, kind="global")
    iota_lo, iota_hi = minimax_inclination_estimate(subs, m, kind="inner")
    # max_k dist^2 >= (1/N) sum_k dist^2, and max_k dist <= the l2 norm
    assert l2 / np.sqrt(n) - 1e-12 <= ell_lo <= ell_hi
    assert ell_lo <= l2 + 1e-12
    assert iota_lo >= ell_lo - 1e-12 and iota_lo <= iota_hi
    if n == 2:
        assert ell_hi - ell_lo <= 1e-9 and iota_hi - iota_lo <= 1e-9
