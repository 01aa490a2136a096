"""Fractional powers (I - T)^alpha: series and spectral application, decay."""

import numpy as np
import pytest

from altproj import fracpow
from altproj.linalg import diagonalize
from altproj import (
    CapacityError,
    NumericalContractError,
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


# diagonal T with spectrum in [0, 1), where (I - T)^alpha acts entrywise
# as (1 - t)^alpha
_SPECTRUM = np.array([0.0, 0.3, 0.9, 0.99])


def test_half_power_series_matches_the_closed_form():
    x = np.ones(4)
    out = frac_power_apply(np.diag(_SPECTRUM), 0.5, x, 1e-3, method="series")
    assert np.abs(out - np.sqrt(1.0 - _SPECTRUM)).max() <= 1e-3


# the series guarantee assumes only ||T^n|| <= 1, so the affordable
# tolerance scales with alpha: the tail shrinks like n^-alpha
@pytest.mark.parametrize("alpha,tol", [(0.25, 0.05), (0.5, 1e-3), (1.0, 1e-15),
                                       (1.7, 1e-8), (2.0, 1e-15)])
def test_series_error_stays_within_tol(alpha, tol):
    x = np.array([1.0, -0.5, 0.25, 1.0])
    out = frac_power_apply(np.diag(_SPECTRUM), alpha, x, tol, method="series")
    assert np.linalg.norm(out - (1.0 - _SPECTRUM) ** alpha * x) <= tol + 1e-15


def test_integer_alpha_series_terminates():
    # c_3 = 0 for alpha = 2, so the series is (I - T)^2 exactly
    t = np.array([[0.5, 0.2], [0.1, 0.3]])
    x = np.array([1.0, 2.0])
    out = frac_power_apply(t, 2.0, x, 1e-15, method="series")
    assert np.allclose(out, x - 2.0 * t @ x + t @ (t @ x), atol=1e-15)


def test_series_capacity_limit(monkeypatch):
    # at the fixed point t = 1 the tail decays only like n^-alpha
    monkeypatch.setattr(fracpow, "_TERM_CAP", 10_000)
    with pytest.raises(CapacityError, match="alpha too small / tol too tight"):
        frac_power_apply(np.eye(2), 1e-4, np.ones(2), 1e-12, method="series")


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
    a = frac_power_apply(cp, 0.5, x, 1e-11, method="series")
    b = fracpow._eig_apply(cp.matrix, 0.5, x)
    assert np.allclose(a, b, atol=1e-9)
    with pytest.raises(ValueError):
        frac_power_apply(cp, 0.5, x, 1e-11, method="newton")


def test_defective_block_matches_the_closed_form():
    # J has the single defective eigenvalue 0.4; on the principal branch
    # (I - J)^(1/2) = [[sqrt(.6), -0.3/(2 sqrt(.6))], [0, sqrt(.6)]]
    j = np.array([[0.4, 0.3], [0.0, 0.4]])
    root = np.sqrt(0.6)
    closed = np.array([[root, -0.3 / (2.0 * root)], [0.0, root]])
    for col in np.eye(2):
        out = frac_power_apply(j, 0.5, col, 1e-12, method="series")
        assert np.allclose(out, closed @ col, atol=1e-12)
    with pytest.raises(NumericalContractError):
        fracpow._eig_apply(j, 0.5, np.array([1.0, 0.0]))
    # auto falls back to the reference series on the defective block
    auto = frac_power_apply(j, 0.5, np.array([0.0, 1.0]), 1e-12, method="auto")
    assert np.allclose(auto, closed[:, 1], atol=1e-10)


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
    with pytest.raises(ValueError):
        frac_power_apply(1.5 * np.eye(2), 0.5, x, 1e-8)  # not a contraction


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
    # a Jordan block has no eigenbasis, so the sums are taken one sweep at a time
    t = np.array([[0.5, 0.4], [0.0, 0.5]])
    x = np.array([0.0, 1.0])
    cur, s, norms = x.astype(complex), np.zeros(2, dtype=complex), []
    for k in range(1, 101):
        cur = t.astype(complex) @ cur
        s = s + k ** -0.5 * cur
        norms.append(np.linalg.norm(s))
    sup = max(norms)
    assert partial_sum_characterization(t, x, 0.5, 100) == (sup, sup - max(norms[:10]) < 1e-6)
    for bad in (2.0 * t, np.diag([1.5, 0.5])):
        with pytest.raises(ValueError, match="contraction"):
            partial_sum_characterization(bad, x, 0.5, 100)


def test_block_model_is_eigendecomposed_once(monkeypatch):
    # the auto path falls back to the eigenbasis here (the series budget at
    # d = 400 is too small), and the partial sums reuse the same one
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
