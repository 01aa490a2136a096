"""Cyclic products: error traces, rate bounds, sweep energy, series sums."""

import numpy as np
import pytest

from altproj import (
    AmbientSpace,
    CapacityError,
    IterationTrace,
    NumericalContractError,
    build_cyclic,
    friedrichs_number,
    iota2,
    iota2_rate_bound,
    iterate,
    operator_error_norm,
    random_instance,
    rate_bound,
    sweep_diagnostic,
    two_lines,
    unconditional_sum_test,
)


@pytest.mark.parametrize("theta", [np.pi / 6, np.pi / 4, np.pi / 3])
def test_two_subspace_operator_norm_law(theta):
    # ||T^n - P_M|| = cos(theta)^(2n-1) exactly for two lines at angle theta
    cp = build_cyclic(two_lines(theta))
    for n in range(1, 8):
        expected = np.cos(theta) ** (2 * n - 1)
        assert operator_error_norm(cp, n) == pytest.approx(expected, abs=1e-12)


def test_operator_error_norm_before_any_sweep():
    cp = build_cyclic(two_lines(np.pi / 3))
    assert operator_error_norm(cp, 0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        operator_error_norm(cp, -1)


def test_rate_bound_reference_values():
    # (1 - 3(N-1)(1-c)/N^3)^{n/2} at c = 1/2, N = 2, n = 2
    assert rate_bound(0.5, 2, 2) == pytest.approx(0.8125, abs=1e-15)
    # (1 - 3 iota2^2/N^3)^{n/2} at iota2 = 1, N = 2, n = 2
    assert iota2_rate_bound(1.0, 2, 2) == pytest.approx(0.625, abs=1e-15)
    assert rate_bound(0.3, 4, 0) == 1.0
    # the +inf sentinel asserts immediate convergence
    assert iota2_rate_bound(np.inf, 2, 5) == 0.0
    assert iota2_rate_bound(np.inf, 2, 0) == 1.0
    with pytest.raises(ValueError):
        rate_bound(1.2, 2, 1)
    with pytest.raises(ValueError):
        iota2_rate_bound(-0.5, 2, 1)


def test_build_cyclic_validation():
    one = two_lines(1.0)[0]
    with pytest.raises(ValueError):
        build_cyclic([one])
    with pytest.raises(ValueError):
        build_cyclic([one, AmbientSpace(3).full()])


def test_iterate_trace_and_attached_bounds():
    subs = random_instance(6, (2, 3), seed=21)
    cp = build_cyclic(subs)
    c = friedrichs_number(subs)
    i2 = iota2(subs)
    x = np.random.default_rng(0).standard_normal(6)
    trace = iterate(cp, x, 50, c=c, iota2=i2)
    assert len(trace.errors) == 51
    e0 = np.linalg.norm(x - cp.pm.apply(x))
    assert trace.errors[0] == pytest.approx(e0, abs=1e-12)
    assert np.all(np.diff(trace.errors) <= 1e-12)
    assert np.all(trace.errors <= trace.bound_c + 1e-9)
    assert np.all(trace.errors <= trace.bound_iota2 + 1e-9)
    assert trace.bound_c[0] == pytest.approx(e0, abs=1e-12)


def test_iterate_requires_at_least_one_sweep():
    cp = build_cyclic(two_lines(1.0))
    with pytest.raises(ValueError):
        iterate(cp, np.array([1.0, 0.0]), 0)


def test_trace_validation():
    with pytest.raises(NumericalContractError):
        IterationTrace(errors=np.array([1.0, 0.5, 0.7]), x0_norm=1.0)
    with pytest.raises(NumericalContractError):
        IterationTrace(errors=np.array([-1.0, -2.0]), x0_norm=1.0)


def test_sweep_diagnostic_closed_form_on_two_lines():
    theta = 0.7
    cp = build_cyclic(two_lines(theta))
    steps = sweep_diagnostic(cp, np.array([1.0, 0.0]))
    # P_1 fixes the start, then P_2 removes exactly sin(theta)^2 of the energy
    assert steps == pytest.approx([0.0, np.sin(theta) ** 2], abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_sweep_energy_inequality_on_random_draws(seed):
    subs = random_instance(7, (3, 2, 4), seed=seed + 100)
    cp = build_cyclic(subs)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        x = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        steps = sweep_diagnostic(cp, x)  # raises on any budget violation
        assert len(steps) == 3
        assert steps.min() >= 0.0


def test_unconditional_sum_on_two_lines():
    cp = build_cyclic(two_lines(np.pi / 3))
    rep = unconditional_sum_test(cp, np.array([1.0, 0.0]), 20, 1e-6, seed=99)
    assert rep.K == 13
    assert rep.telescoping_residual <= 1e-12
    assert rep.limit_deviation <= 1e-6
    assert rep.perm_deviations.max() <= 2e-6
    assert len(rep.perm_deviations) == 20
    assert 0.5 <= rep.constant_estimate <= 1.1
    assert rep.trunc_tol == 1e-6


def _tail_rule_truncation(cp, x, trunc_tol):
    """K of the series' stopping rule, written out with a list of all norms."""
    cur, norms = x, []
    while True:
        nxt = cp.apply(cur)
        norms.append(float(np.linalg.norm(cur - nxt)))
        cur = nxt
        if norms[-1] == 0.0:
            return len(norms)
        if len(norms) > 10:
            recent = norms[-11:]
            ratios = [b / a for a, b in zip(recent[:-1], recent[1:]) if a > 0.0]
            if ratios and max(ratios) < 1.0:
                rho = max(ratios)
                if 10.0 * norms[-1] * rho / (1.0 - rho) <= trunc_tol:
                    return len(norms)


# the (7, (3, 2, 4)) draws stop at K = 11 and 12, where the first ten-ratio
# window closes, so a window one ratio too long changes their K
@pytest.mark.parametrize("d, dims, seed", [(6, (2, 3), 0), (7, (3, 2, 4), 10),
                                           (7, (3, 2, 4), 32)])
def test_unconditional_sum_matches_an_explicit_reiteration(d, dims, seed):
    cp = build_cyclic(random_instance(d, dims, seed=seed + 21))
    x = np.random.default_rng(seed).standard_normal(d).astype(np.complex128)
    rep = unconditional_sum_test(cp, x, 5, 1e-6, seed=seed)
    assert rep.K == _tail_rule_truncation(cp, x, 1e-6)
    terms = []
    t_k_x = x
    for _ in range(rep.K):
        nxt = cp.apply(t_k_x)
        terms.append(t_k_x - nxt)
        t_k_x = nxt
    total = np.array(terms).sum(axis=0)
    assert rep.telescoping_residual == float(np.linalg.norm(total - (x - t_k_x)))


def test_unconditional_sum_stops_at_a_zero_term():
    cp = build_cyclic(two_lines(np.pi / 2))  # T = P2 P1 = 0
    rep = unconditional_sum_test(cp, np.array([1.0, 0.0]), 3, 1e-6, seed=1)
    # y_1 = x, then y_2 = T x - T^2 x = 0 stops the series
    assert rep.K == 2
    assert rep.tail_estimate == 0.0
    assert rep.telescoping_residual == 0.0
    assert rep.limit_deviation <= 1e-15


@pytest.mark.parametrize("i2", [0.4, np.inf])
def test_iterate_bounds_equal_the_per_n_rate_bounds(i2):
    subs = random_instance(6, (2, 3), seed=21)
    cp = build_cyclic(subs)
    c = friedrichs_number(subs)
    trace = iterate(cp, np.random.default_rng(0).standard_normal(6), 40, c=c, iota2=i2)
    e0 = trace.errors[0]
    assert np.array_equal(trace.bound_c,
                          e0 * np.array([rate_bound(c, cp.N, n) for n in range(41)]))
    assert np.array_equal(trace.bound_iota2,
                          e0 * np.array([iota2_rate_bound(i2, cp.N, n) for n in range(41)]))


def test_near_aligned_series_exceeds_capacity():
    cp = build_cyclic(two_lines(0.005))
    with pytest.raises(CapacityError):
        unconditional_sum_test(cp, np.array([1.0, 0.0]), 3, 1e-6, seed=1)

