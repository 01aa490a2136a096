"""Fractional powers (I - T)^alpha: series and spectral application, decay."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from altproj import fracpow
from altproj.acceptance import _block_model, _pool, _start_vector
from altproj.linalg import diagonalize
from altproj import (
    CapacityError,
    NumericalContractError,
    Subspace,
    block_aligned,
    build_cyclic,
    decay_slope,
    frac_power_apply,
    make_alpha_vector,
    orthonormalize,
    partial_sum_characterization,
    random_instance,
    two_lines,
)


def _reference(cp, alpha, x, tol):
    """The reference series of (I - T)^alpha x, run as ``frac_power_apply`` runs it."""
    x = np.asarray(x, dtype=complex)
    if alpha == 0.0:
        return x.copy()
    return fracpow._series_apply(cp.apply, alpha, x - cp.pm_apply(x), tol, fracpow._TERM_CAP)


def _series_of(t, alpha, x, tol, max_terms=fracpow._TERM_CAP):
    """The reference series on a generic contraction ``t``, a plain matrix."""
    return fracpow._series_apply(lambda v: t @ v, alpha, x, tol, max_terms)


def _nilpotent_product():
    # the lines e1, (e1 + e2)/sqrt 2 and e2: T = e2 e2^T (1 1; 1 1)/2 e1 e1^T
    # = e2 e1^T / 2, with T^2 = 0 and M = {0}
    e = np.eye(2)
    return build_cyclic([Subspace(e[:, [0]]), Subspace(np.ones((2, 1)) / math.sqrt(2.0)),
                         Subspace(e[:, [1]])])


def _failing_eig(a):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


# diagonal T with spectrum in [0, 1), where (I - T)^alpha acts entrywise
# as (1 - t)^alpha
_SPECTRUM = np.array([0.0, 0.3, 0.9, 0.99])


def test_half_power_series_matches_the_closed_form():
    x = np.ones(4)
    out = _series_of(np.diag(_SPECTRUM), 0.5, x, 1e-3)
    assert np.abs(out - np.sqrt(1.0 - _SPECTRUM)).max() <= 1e-3


# the series guarantee assumes only ||T^n|| <= 1, so the affordable
# tolerance scales with alpha: the tail shrinks like n^-alpha
@pytest.mark.parametrize("alpha,tol", [(0.25, 0.05), (0.5, 1e-3), (1.0, 1e-15),
                                       (1.7, 1e-8), (2.0, 1e-15)])
def test_series_error_stays_within_tol(alpha, tol):
    x = np.array([1.0, -0.5, 0.25, 1.0])
    out = _series_of(np.diag(_SPECTRUM), alpha, x, tol)
    assert np.linalg.norm(out - (1.0 - _SPECTRUM) ** alpha * x) <= tol + 1e-15


def test_integer_alpha_series_terminates():
    # alpha = 2 is two sweeps x <- x - T x and no series terms
    t = np.array([[0.5, 0.2], [0.1, 0.3]])
    x = np.array([1.0, 2.0])
    out = _series_of(t, 2.0, x, 1e-15)
    assert np.allclose(out, x - 2.0 * t @ x + t @ (t @ x), atol=1e-15)


def test_series_capacity_limit():
    # at the fixed point t = 1 the tail decays only like n^-alpha
    with pytest.raises(CapacityError, match="alpha too small / tol too tight"):
        _series_of(np.eye(2), 1e-4, np.ones(2), 1e-12, 10_000)


def test_sweeps_past_the_cap_name_their_cause():
    # floor(alpha) = 2 * 10^6 sweeps of I - T exceed the 10^6-term cap
    # before any series term is formed
    with pytest.raises(CapacityError, match=r"floor\(alpha\) = 2000000 sweeps exceed "
                                            r"the 1000000-term cap"):
        frac_power_apply(_nilpotent_product(), 2e6, np.array([1.0, 0.3]), 1e-10)


def test_alpha_zero_is_the_identity_and_alpha_one_is_i_minus_t():
    cp = build_cyclic(two_lines(0.8))
    x = np.array([0.3, 1.1], dtype=complex)
    assert np.allclose(frac_power_apply(cp, 0.0, x, 1e-12), x)
    assert np.allclose(frac_power_apply(cp, 1.0, x, 1e-12), x - cp.apply(x), atol=1e-10)


def test_half_power_applied_twice_matches_one_application_of_i_minus_t():
    cp = build_cyclic(two_lines(0.8))
    x = np.array([1.0, -0.5], dtype=complex)
    once = frac_power_apply(cp, 0.5, x, 1e-12)
    twice = frac_power_apply(cp, 0.5, once, 1e-12)
    assert np.allclose(twice, x - cp.apply(x), atol=1e-9)


def test_series_and_spectral_paths_agree():
    cp = build_cyclic(random_instance(5, (2, 2), seed=14))
    x = np.random.default_rng(2).standard_normal(5)
    a = _reference(cp, 0.5, x, 1e-11)
    b = fracpow._eig_apply(cp, 0.5, x)
    assert np.allclose(a, b, atol=1e-9)


def test_defective_block_matches_the_closed_form():
    # J has the single defective eigenvalue 0.4; on the principal branch
    # (I - J)^(1/2) = [[sqrt(.6), -0.3/(2 sqrt(.6))], [0, sqrt(.6)]]
    j = np.array([[0.4, 0.3], [0.0, 0.4]])
    root = np.sqrt(0.6)
    closed = np.array([[root, -0.3 / (2.0 * root)], [0.0, root]])
    assert diagonalize(j[None]) is None
    for col in np.eye(2):
        out = _series_of(j, 0.5, col, 1e-12)
        assert np.allclose(out, closed @ col, atol=1e-12)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.5, 2.0])
def test_a_nilpotent_product_takes_the_reference_series(alpha):
    # T = N with N^2 = 0 has no eigenbasis, and (I - N)^alpha = I - alpha N
    cp = _nilpotent_product()
    assert cp._eigenbasis is None
    x = np.array([1.0, 0.3])
    with pytest.raises(NumericalContractError):
        fracpow._eig_apply(cp, alpha, x)
    out = frac_power_apply(cp, alpha, x, 1e-12)
    assert out.tobytes() == _reference(cp, alpha, x, 1e-12).tobytes()
    assert np.allclose(out, x - alpha * np.array([0.0, 0.5]), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_a_nilpotent_product_sums_literally(alpha):
    # T x = (0, 1/2) and T^k x = 0 for k >= 2, so every partial sum is T x
    cp = _nilpotent_product()
    x = np.array([1.0, 0.3])
    got = partial_sum_characterization(cp, x, alpha, 100)
    assert got == fracpow._partial_sum_literal(cp.apply, x.astype(complex), alpha, 100)
    assert got[0] == pytest.approx(0.5, abs=1e-15) and got[1]


def test_fracpow_input_validation():
    cp = build_cyclic(two_lines(1.0))
    x = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        frac_power_apply(cp, -0.5, x, 1e-8)
    with pytest.raises(ValueError):
        frac_power_apply(cp, 0.5, x, 0.0)
    with pytest.raises(ValueError):
        make_alpha_vector(cp, 0.0, seed=1)
    with pytest.raises(ValueError):
        frac_power_apply(cp, np.nan, x, 1e-8)
    with pytest.raises(ValueError):
        frac_power_apply(cp, np.inf, x, 1e-8)
    with pytest.raises(ValueError):
        frac_power_apply(cp, 0.5, x, np.nan)
    with pytest.raises(ValueError):
        make_alpha_vector(cp, np.nan, seed=1)


@pytest.mark.parametrize("entry", [
    lambda t: frac_power_apply(t, 0.5, np.ones(2), 1e-8),
    lambda t: partial_sum_characterization(t, np.ones(2), 0.5, 100),
    lambda t: make_alpha_vector(t, 0.5, seed=1),
], ids=["frac_power_apply", "partial_sum_characterization", "make_alpha_vector"])
def test_fracpow_takes_a_product_only(entry):
    # a plain matrix, even T's own, and a family of subspaces are refused
    # with the angle quantities' message
    family = two_lines(0.8)
    for bad in (build_cyclic(family).matrix, 0.5 * np.eye(2), family):
        with pytest.raises(TypeError, match=r"need a CyclicProduct, not \w+; for a family "
                                            r"of subspaces pass build_cyclic\(subspaces\)"):
            entry(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_vectors_are_refused(bad):
    for cp in (build_cyclic(two_lines(1.0)), block_aligned(4, "1/k").cyclic()):
        x = np.zeros(cp.dim)
        x[1] = bad
        with pytest.raises(ValueError, match="x must be finite"):
            frac_power_apply(cp, 0.5, x, 1e-8)
        with pytest.raises(ValueError, match="x must be finite"):
            partial_sum_characterization(cp, x, 0.5, 100)
        with pytest.raises(ValueError, match="y must be finite"):
            make_alpha_vector(cp, 0.5, seed=1, y=x)
        with pytest.raises(ValueError, match="z must be finite"):
            make_alpha_vector(cp, 0.5, seed=1, z=x)


def test_literal_partial_sums_of_a_defective_matrix():
    # a Jordan block has no eigenbasis; the fallback sums one sweep at a time
    t = np.array([[0.5, 0.4], [0.0, 0.5]], dtype=complex)
    x = np.array([0.0, 1.0], dtype=complex)
    cur, s, norms = x, np.zeros(2, dtype=complex), []
    for k in range(1, 101):
        cur = t @ cur
        s = s + k ** -0.5 * cur
        norms.append(np.linalg.norm(s))
    sup = max(norms)
    assert fracpow._partial_sum_literal(lambda v: t @ v, x, 0.5, 100) == (
        sup, sup - max(norms[:10]) < 1e-6)


def test_block_model_is_eigendecomposed_once(monkeypatch):
    # the auto path applies the power at alpha = 0.5 through the eigenbasis,
    # and the partial sums reuse the same one
    calls = []
    eig = np.linalg.eig

    def counting_eig(a):
        calls.append(a.shape)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    cp = block_aligned(200, "1/k").cyclic()
    assert not calls  # nothing is decomposed when the product is built
    x = make_alpha_vector(cp, 0.5, seed=4).x
    partial_sum_characterization(cp, x, 0.5, 100)
    partial_sum_characterization(cp, x, 1.0, 100)
    assert calls == [(200, 2, 2)]  # one call on the stack of T's blocks


def _unit_vector(d, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return x / np.linalg.norm(x)


@pytest.mark.parametrize("k_blocks", [12, 200, 400])
def test_auto_path_is_the_eigenbasis_for_non_integer_alpha(k_blocks):
    rand12 = build_cyclic(random_instance(12, (4, 5, 6), seed=k_blocks))
    for cp in (block_aligned(k_blocks, "1/k").cyclic(), rand12):
        x = _unit_vector(cp.dim, k_blocks)
        for alpha in (0.3, 0.5, 1.5, 100.5, 200.5, 400.5):
            auto = frac_power_apply(cp, alpha, x, 1e-10)
            assert auto.tobytes() == fracpow._eig_apply(cp, alpha, x).tobytes()


def test_integer_alpha_takes_the_reference_series():
    # an integer alpha is that many sweeps of I - T, with no series terms;
    # a defective T is test_a_nilpotent_product_takes_the_reference_series
    for cp in (block_aligned(12, "1/k").cyclic(),
               build_cyclic(random_instance(12, (4, 5, 6), seed=12))):
        x = _unit_vector(cp.dim, 3)
        for alpha in (1.0, 2.0, 3.0):
            auto = frac_power_apply(cp, alpha, x, 1e-10)
            assert auto.tobytes() == _reference(cp, alpha, x, 1e-10).tobytes()


def test_auto_path_falls_back_to_the_series_when_eig_fails(monkeypatch):
    monkeypatch.setattr(np.linalg, "eig", _failing_eig)
    for cp in (block_aligned(12, "1/k").cyclic(), build_cyclic(two_lines(0.8))):
        # neither eigenbasis is cached yet
        x = _unit_vector(cp.dim, 2)
        auto = frac_power_apply(cp, 0.5, x, 1e-10)
        assert auto.tobytes() == _reference(cp, 0.5, x, 1e-10).tobytes()


# The reference takes alpha = m + f as m sweeps of I - T and the series at
# f in [0, 1), whose coefficients do not change sign past n = 0.  The whole
# series at alpha cancelled: on the block model its error against the
# eigenbasis was 4.6e-11 at alpha = 20, 45 at 60 and 1.4e13 at 100.  The
# sweeps carry rounding that grows with m, about m eps relative to the
# result (5.4e-13 measured at m = 1938), and the eigen path its own.


@functools.cache
def _eigen_products():
    products = [e.cp for e in _pool()] + [block_aligned(12, "1/k").cyclic()]
    return [cp for cp in products if cp._eigenbasis is not None]


@st.composite
def _alpha_cases(draw):
    # an instance with an accepted eigenbasis, alpha in [0, 2000] (half of
    # them integers) and a seeded start vector that keeps or drops its
    # component in M
    products = _eigen_products()
    cp = products[draw(st.integers(0, len(products) - 1))]
    alpha = draw(st.one_of(st.floats(0.0, 2000.0), st.integers(0, 2000).map(float)))
    x = _unit_vector(cp.dim, draw(st.integers(0, 2**31 - 1)))
    return cp, alpha, x if draw(st.booleans()) else x - cp.pm_apply(x)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_alpha_cases())
def test_series_matches_the_eigenbasis_for_every_alpha(case):
    # (I - T)^alpha x = (I - T)^alpha (x - P_M x) for alpha > 0; the eigen
    # path is given x - P_M x, since at small alpha the tiny 1 - lambda of
    # M's eigenvalues, rounded away from 0, would scale up M's part
    cp, alpha, x = case
    tol = 1e-10
    series = _reference(cp, alpha, x, tol)
    eigen = x if alpha == 0.0 else fracpow._eig_apply(cp, alpha, x - cp.pm_apply(x))
    scale = (alpha + 1.0) * np.finfo(float).eps * np.linalg.norm(eigen)
    assert np.linalg.norm(series - eigen) <= tol + 8.0 * scale


def test_series_ignores_the_part_of_x_in_m(monkeypatch):
    # M = span(e0): T^n x tends to P_M x = e0, and the series at alpha = 0.5
    # ran to its 10^6-term cap and raised CapacityError after about 10 s.
    # A failing eig sends frac_power_apply to the series
    e = np.eye(3)
    cp = build_cyclic([Subspace(e[:, [0, 1]]), Subspace(e[:, [0, 2]])])
    x = np.array([1.0, 0.3, 0.2])
    monkeypatch.setattr(np.linalg, "eig", _failing_eig)
    out = frac_power_apply(cp, 0.5, x, 1e-10)
    monkeypatch.undo()
    assert np.array_equal(out, fracpow._eig_apply(cp, 0.5, x))
    assert np.array_equal(out, [0.0, 0.3, 0.2])


def test_large_integer_alpha_runs_sweeps_not_the_series():
    # the coefficients binom(1100, n) overflow, and the whole series ran to
    # its 10^6-term cap and raised CapacityError
    cp = build_cyclic(two_lines(1.0))
    x = np.array([1.0, 0.5])
    out = frac_power_apply(cp, 1100.0, x, 1e-10)
    assert np.linalg.norm(out - fracpow._eig_apply(cp, 1100.0, x)) <= 1e-12


@pytest.mark.parametrize("alpha", [0.5, 1.5, 20.0, 60.5])
def test_block_model_fractional_powers_match_mpmath(alpha):
    # per 2x2 block, I - T_k = [[sin^2, 0], [-cos sin, 1]] of the block's
    # float angle, raised to alpha by mpmath.powm at 30 digits; the auto
    # path takes the eigenbasis at a non-integer alpha and 20 sweeps at 20
    mpmath = pytest.importorskip("mpmath")
    model = block_aligned(12, "1/k")
    x = _unit_vector(model.ambient_dim, 12)
    out = frac_power_apply(model.cyclic(), alpha, x, 1e-12).reshape(-1, 2)
    with mpmath.workdps(30):
        for k, theta in enumerate(model.angles):
            c, s = mpmath.cos(theta), mpmath.sin(theta)
            power = mpmath.powm(mpmath.matrix([[s * s, 0], [-c * s, 1]]), alpha)
            want = power * mpmath.matrix([mpmath.mpc(z) for z in x[2 * k:2 * k + 2]])
            err = mpmath.norm(mpmath.matrix([mpmath.mpc(z) for z in out[k]]) - want)
            assert err <= 8.0 * (alpha + 1.0) * np.finfo(float).eps * mpmath.norm(want)


def test_auto_path_meets_tol_wherever_the_series_does():
    # on every 4th pool instance and the lines, rand6, rand12 and rand64 CLI
    # fixtures: wherever the series certifies its truncation to tol within
    # 2000 terms (279 of 324 cases), the eigen path lies within tol of it
    fixtures = [two_lines(math.pi / 3), random_instance(6, (2, 3), seed=11),
                random_instance(12, (4, 5, 6), seed=12),
                random_instance(64, (20, 30, 40), seed=64)]
    cps = [e.cp for e in _pool()[::4]] + [build_cyclic(f) for f in fixtures]
    checked = 0
    for i, cp in enumerate(cps):
        x = _unit_vector(cp.dim, i)
        for alpha in (0.3, 0.5, 1.5):
            for tol in (1e-6, 1e-10):
                try:
                    series = fracpow._series_apply(cp.apply, alpha, x, tol, 2000)
                except CapacityError:
                    continue
                checked += 1
                assert np.linalg.norm(frac_power_apply(cp, alpha, x, tol) - series) <= tol
    assert checked >= 250


@pytest.mark.parametrize("rule", ["1/k", "1/sqrt(k)", "custom"])
@pytest.mark.parametrize("k_blocks", [2, 12, 200])
def test_eigen_paths_on_the_block_stack_match_the_dense_build(k_blocks, rule):
    # the dense eig returns each block's eigenvectors bit for bit, but in
    # its own column order, which fixes the summation order of v @ (scale w):
    # (I - T)^alpha x agrees to rounding, and bit for bit where the orders
    # coincide (as on the 1/k model that the fracpow-blocks200 golden pins)
    angles = np.geomspace(1.5, 1e-3, k_blocks) if rule == "custom" else rule
    model = block_aligned(k_blocks, angles)
    cp = model.cyclic()
    rng = np.random.default_rng(k_blocks)
    x = rng.standard_normal(cp.dim) + 1j * rng.standard_normal(cp.dim)
    applied = fracpow._eig_apply(cp, 0.5, x)
    # 10^4 steps: the certificate, and so the Holder bound on the block
    # basis, decides where each run stops
    sums = [partial_sum_characterization(cp, x, a, 10**4) for a in (0.5, 1.0)]
    assert not {"factors", "matrix", "pm"} & set(vars(cp))
    dense = build_cyclic(model.subspaces)  # the same T as one d x d block
    assert np.abs(applied - fracpow._eig_apply(dense, 0.5, x)).max() <= 1e-15
    assert sums == [partial_sum_characterization(dense, x, a, 10**4) for a in (0.5, 1.0)]


@pytest.mark.parametrize("gap,conditioned", [(3e-6, True), (1.67e-6, False)])
def test_diagonalize_conditions_the_basis_across_blocks(gap, conditioned):
    # a near-defective block next to a diagonal one: the eigenvector basis
    # has condition number 2 / gap, the top singular value of one block
    # (about sqrt 2) over the smallest of the other, as for the dense matrix
    blocks = np.array([[[0.4, 1.0], [0.0, 0.4 + gap]], [[0.5, 0.0], [0.0, 0.2]]], dtype=complex)
    dense = np.zeros((1, 4, 4), dtype=complex)
    dense[0, :2, :2], dense[0, 2:, 2:] = blocks
    assert (diagonalize(blocks) is not None) == conditioned
    assert (diagonalize(dense) is not None) == conditioned


def test_alpha_vector_is_seed_reproducible():
    cp = build_cyclic(random_instance(5, (2, 2), seed=3))
    a1 = make_alpha_vector(cp, 0.5, seed=42)
    a2 = make_alpha_vector(cp, 0.5, seed=42)
    assert np.array_equal(a1.x, a2.x)
    assert a1.alpha == 0.5
    assert a1.provenance


def test_alpha_vector_with_explicit_components():
    cp = build_cyclic(two_lines(0.7))
    y = np.array([1.0, 0.0], dtype=complex)
    z = np.zeros(2, dtype=complex)
    av = make_alpha_vector(cp, 1.0, seed=0, y=y, z=z)
    assert np.allclose(av.x, y - cp.apply(y), atol=1e-10)


def test_decay_slope_recovers_a_power_law():
    ns = np.arange(301)
    errors = 1.0 / np.maximum(ns, 1) ** 2
    assert decay_slope(errors, (10, 300)) == pytest.approx(-2.0, abs=1e-9)
    with pytest.raises(ValueError):
        decay_slope(errors, (0, 300))
    with pytest.raises(ValueError):
        decay_slope(errors, (100, 100))
    with pytest.raises(ValueError):
        decay_slope(errors[:5], (1, 300))  # fewer than 5 usable points


def test_decay_slope_converged_sentinel():
    assert decay_slope(np.zeros(50), (1, 40)) == -np.inf


def test_partial_sums_bounded_and_matched_by_a_dense_loop():
    cp = build_cyclic(two_lines(0.3))
    u = np.array([1.0, 0.0])
    sup, bounded = partial_sum_characterization(cp, u, 0.5, 200_000)
    assert bounded
    acc = np.zeros(2, dtype=complex)
    cur = u.astype(complex)
    worst = 0.0
    for k in range(1, 2001):
        cur = cp.apply(cur)
        acc += float(k) ** -0.5 * cur
        worst = max(worst, float(np.linalg.norm(acc)))
    # geometric decay: 2000 terms already realize the supremum
    assert worst == pytest.approx(sup, rel=1e-9)


def test_partial_sums_diverge_along_the_fixed_space():
    e = np.eye(3)
    planes = [orthonormalize([e[0], e[1]]), orthonormalize([e[0], e[2]])]
    cp = build_cyclic(planes)
    sup, bounded = partial_sum_characterization(cp, e[0], 1.0, 50_000)
    assert not bounded
    assert sup > 1.0


def _literal_partial_sums(t, x, alpha, n_max, sample):
    """||sum_{k<=n} k^(alpha-1) T^k x|| by one matvec per step, at the n in sample."""
    cur = np.asarray(x, dtype=complex)
    acc = np.zeros_like(cur)
    norms = {}
    for k in range(1, n_max + 1):
        cur = t @ cur
        acc += float(k) ** (alpha - 1.0) * cur
        if k in sample:
            norms[k] = float(np.linalg.norm(acc))
    return norms


# the last block's angle 3e-3 gives the eigenvalue cos^2 = 1 - 9e-6, so the
# tail certificate cannot stop the run before n_max.  A steeper taper puts
# less weight there: at power 3 the sup stabilizes inside the first decade,
# and at 2.25 over 5001 steps it grows 4.9e-6 after step 2048 (the head
# cut) but only 9e-7 after step 4096
@pytest.mark.parametrize("taper_power,alpha,n_max", [(1, 0.5, 70001), (3, 1.0, 70001),
                                                     (2.25, 0.5, 5001)])
def test_blocked_partial_sums_match_a_per_step_loop(taper_power, alpha, n_max):
    model = block_aligned(30, np.geomspace(1.0, 3e-3, 30))
    cp = model.cyclic()
    taper = np.arange(1.0, 31.0) ** -taper_power
    y = model.m1_vector(taper / np.linalg.norm(taper))
    x = make_alpha_vector(cp, alpha, seed=7, y=y, z=np.zeros(model.ambient_dim)).x
    sup, bounded = partial_sum_characterization(cp, x, alpha, n_max)
    # runs beyond 65536 steps read the norm every 256 steps and at n_max;
    # the flag compares the sup with the sup up to the first chunk end
    # (chunks of 2048 steps) at or past n_max // 10
    stride = 256 if n_max > 65536 else 1
    sample = set(range(stride, n_max + 1, stride)) | {n_max}
    norms = _literal_partial_sums(cp.matrix, x, alpha, n_max, sample)
    head_end = -(-(n_max // 10) // 2048) * 2048
    want_sup = max(norms.values())
    want_head = max(v for n, v in norms.items() if n <= head_end)
    assert sup == pytest.approx(want_sup, rel=1e-12)
    assert bounded == ((want_sup - want_head) < 1e-6)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_block_model_partial_sums_meet_the_polylog_limit(alpha):
    # per block, T^j x_k = cos^(2j-1)(theta_k) <u1, x_k> u2, so the partial
    # sums are a growing multiple of u2 and their norm increases to the
    # limit sqrt(sum_k |<u1, x_k>|^2 (Li_{1-alpha}(cos^2 theta_k) / cos theta_k)^2);
    # the tail certificate stops within 1e-6 of it
    mpmath = pytest.importorskip("mpmath")
    model = block_aligned(100, "1/k")
    cp = model.cyclic()
    k = np.arange(1.0, 101.0)
    y = model.m1_vector((1.0 / k) / np.linalg.norm(1.0 / k))
    x = make_alpha_vector(cp, alpha, seed=3, y=y, z=np.zeros(model.ambient_dim)).x
    sup, bounded = partial_sum_characterization(cp, x, alpha, 5 * 10**6)
    assert bounded
    with mpmath.workdps(30):
        per_block = [abs(x[2 * i]) * mpmath.polylog(1.0 - alpha, mpmath.cos(theta) ** 2)
                     / mpmath.cos(theta) for i, theta in enumerate(model.angles)]
        limit = float(mpmath.sqrt(mpmath.fsum(b ** 2 for b in per_block)))
    assert 0.0 <= limit - sup <= 1e-6 + 1e-12


def _jittered_input(seed, alpha):
    # block_decay's start vector: the 1/k taper times a seeded jitter in [0.8, 1.2]
    model = block_aligned(200, "1/k")
    cp = model.cyclic()
    k = np.arange(1.0, 201.0)
    taper = np.random.default_rng(seed).uniform(0.8, 1.2, 200) / k
    y = model.m1_vector(taper / np.linalg.norm(taper))
    return cp, make_alpha_vector(cp, alpha, seed, y=y, z=np.zeros(model.ambient_dim)).x


def _criterion_9_input(alpha):
    model, cp = _block_model()
    k = np.arange(1.0, model.k_blocks + 1.0)
    y = model.m1_vector((1.0 / k) / np.linalg.norm(1.0 / k))
    return cp, make_alpha_vector(cp, alpha, 1234, y=y, z=np.zeros(model.ambient_dim)).x


def _complex_input():
    # non-real eigenvalues, so the imaginary part of the lam^i table is used
    rng = np.random.default_rng(7)
    cp = build_cyclic([orthonormalize(rng.standard_normal((8, r))
                                      + 1j * rng.standard_normal((8, r))) for r in (3, 5, 4)])
    return cp, np.random.default_rng(8).standard_normal(8) + 0j


def _pool_input(index):
    entry = _pool()[index]
    return entry.cp, _start_vector(entry)


def _fixed_line_input():
    e = np.eye(3)
    cp = build_cyclic([orthonormalize([e[0], e[1]]), orthonormalize([e[0], e[2]])])
    return cp, np.array([1.0, 0.5, 0.25])


# (input, alpha, n_max) -> (sup.hex(), flag).  Every block of the 1/k model
# has an exact zero eigenvalue (half of the coordinates), pool instances 38
# (complex spectrum) and 45 (real) have one each, two orthogonal lines give
# T = 0, and the fixed line makes the run go to n_max, past the last full
# chunk, with an unbounded verdict
_PINNED_PARTIAL_SUMS = [
    (lambda: _jittered_input(1, 0.5), 0.5, 5 * 10**6, "0x1.f4113940edf8fp-1", True),
    (lambda: _jittered_input(1, 1.0), 1.0, 5 * 10**6, "0x1.75c02f70752e0p-1", True),
    (lambda: _jittered_input(2, 0.5), 0.5, 5 * 10**6, "0x1.012d40c9249bbp+0", True),
    (lambda: _jittered_input(2, 1.0), 1.0, 5 * 10**6, "0x1.7a53d53eadf9cp-1", True),
    (lambda: _jittered_input(3, 0.5), 0.5, 5 * 10**6, "0x1.095211ad6edb7p+0", True),
    (lambda: _jittered_input(3, 1.0), 1.0, 5 * 10**6, "0x1.82738d9d5b706p-1", True),
    (lambda: _criterion_9_input(0.5), 0.5, 5 * 10**6, "0x1.f12220c075006p-1", True),
    (lambda: _criterion_9_input(1.0), 1.0, 5 * 10**6, "0x1.71fb09275b90bp-1", True),
    (lambda: _jittered_input(1, 0.5), 0.5, 20000, "0x1.f357213007b1ap-1", False),
    (lambda: _pool_input(38), 0.5, 20000, "0x1.63f0ea7f430cbp-2", True),
    (lambda: _pool_input(38), 1.0, 20000, "0x1.7d49e98250a67p-2", True),
    (lambda: _pool_input(45), 0.5, 20000, "0x1.b91bb10712b62p-2", True),
    (lambda: _pool_input(45), 1.0, 20000, "0x1.e5dd5210a78d2p-2", True),
    (_complex_input, 0.5, 20000, "0x1.22304704d9409p+1", True),
    (lambda: (build_cyclic(two_lines(math.pi / 2)), np.array([1.0, 0.0])), 0.5, 20000,
     "0x0.0p+0", True),
    (_fixed_line_input, 1.0, 50000, "0x1.86a0000000000p+15", False),
]


@pytest.mark.parametrize("make,alpha,n_max,sup_hex,flag", _PINNED_PARTIAL_SUMS,
                         ids=["jitter1-a0.5", "jitter1-a1", "jitter2-a0.5", "jitter2-a1",
                              "jitter3-a0.5", "jitter3-a1", "criterion9-a0.5",
                              "criterion9-a1", "stride1", "pool38-a0.5", "pool38-a1",
                              "pool45-a0.5", "pool45-a1", "complex", "orthogonal-lines",
                              "fixed-line"])
def test_partial_sums_are_pinned_bit_for_bit(make, alpha, n_max, sup_hex, flag):
    cp, x = make()
    sup, bounded = partial_sum_characterization(cp, x, alpha, n_max)
    assert (sup.hex(), bounded) == (sup_hex, flag)
