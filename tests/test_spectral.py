"""Stolz domains, the disc-and-sector region, numerical-range boundaries,
and the power/resolvent diagnostics."""

import numpy as np
import pytest

from altproj import (
    NumericalContractError,
    OmegaRegion,
    block_aligned,
    build_cyclic,
    containment_check,
    numrange_boundary,
    omega_contains,
    random_instance,
    resolvent_diagnostic,
    ritt_power_diagnostic,
    stolz_contains,
    stolz_margin,
    theta0,
    theta_recursion,
    two_lines,
)
from altproj.linalg import eigh_sym, stack_chunk, sym


def test_theta_recursion_first_values():
    assert theta_recursion(1) == 0.0
    assert theta_recursion(2) == pytest.approx(np.pi / 6, abs=1e-12)
    assert theta_recursion(3) == pytest.approx(1.0386496167677106, abs=1e-12)


def test_theta_recursion_increases_toward_pi_half():
    vals = [theta_recursion(n) for n in range(1, 11)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < np.pi / 2
    with pytest.raises(ValueError):
        theta_recursion(0)


def test_theta0_reference_values():
    assert theta0(0.5, 2) == pytest.approx(1.122963929865964, abs=1e-12)
    # c = 1 degenerates the domain to the closed disc
    assert theta0(1.0, 3) == pytest.approx(np.pi / 2, abs=1e-12)
    with pytest.raises(ValueError):
        theta0(-0.1, 2)
    with pytest.raises(ValueError):
        theta0(0.5, 1)


def test_stolz_membership():
    theta = np.pi / 6  # disc of radius sin(theta) = 1/2
    assert stolz_contains(0.0, theta)
    assert stolz_contains(1.0, theta)
    assert stolz_contains(0.99, theta)
    assert stolz_contains(0.49j, theta)
    assert not stolz_contains(0.51j, theta)
    assert not stolz_contains(1.0 + 1e-6, theta)
    assert stolz_contains(1.0 + 1e-6, theta, slack=1e-5)
    with pytest.raises(ValueError):
        stolz_contains(0.0, -0.1)


def test_stolz_degenerate_segment():
    # theta = 0 collapses the hull to the segment [0, 1]
    assert stolz_contains(0.5, 0.0)
    assert not stolz_contains(0.5 + 1e-3j, 0.0)
    with pytest.raises(ValueError):
        stolz_contains(0.0, -0.1)


def test_stolz_margin_at_the_origin_is_the_radius():
    for theta in (0.3, 0.7, 1.2):
        assert stolz_margin(0.0, theta) == pytest.approx(np.sin(theta), abs=1e-12)
    assert stolz_margin(1.1, 0.5) < 0.0
    with pytest.raises(ValueError):
        stolz_margin(0.0, -0.1)


def _sweep(seed, count):
    """Seeded thetas in [0, pi/2] (both ends included) and points |z| <= 1.2,
    a fifth of them within 0.2 of the vertex 1."""
    rng = np.random.default_rng(seed)
    thetas = np.concatenate([[0.0, np.pi / 2], rng.uniform(0.0, np.pi / 2, 38)])
    far = np.arange(count) % 5 > 0
    radii = np.sqrt(rng.uniform(size=count)) * np.where(far, 1.2, 0.2)
    zs = np.where(far, 0.0, 1.0) + radii * np.exp(2j * np.pi * rng.uniform(size=count))
    return thetas, zs


def test_stolz_margin_is_the_support_function_minimum():
    # min_phi h(phi) - Re(e^{-i phi} z) on 10^5 angles plus the kinks
    # phi = +-(pi/2 - theta) of h(phi) = max(sin theta, cos phi), where a
    # grid alone errs to first order in its spacing
    thetas, zs = _sweep(20, 25)
    grid = 2.0 * np.pi * np.arange(10**5) / 10**5
    for theta in thetas:
        phi = np.concatenate([grid, [np.pi / 2 - theta, theta - np.pi / 2]])
        h = np.maximum(np.sin(theta), np.cos(phi))
        ref = (h[:, None] - np.real(np.exp(-1j * phi)[:, None] * zs[None, :])).min(axis=0)
        got = np.array([stolz_margin(z, theta) for z in zs])
        assert np.abs(got - ref).max() <= 1e-9


def test_membership_is_decided_by_the_margin():
    thetas, zs = _sweep(21, 50)
    region = OmegaRegion(3)
    for slack in (0.0, 1e-7, 1e-3):
        for z in zs:
            assert omega_contains(z, region, slack) == (region.margin(z) >= -slack)
            for theta in thetas[::4]:
                assert stolz_contains(z, theta, slack) == (stolz_margin(z, theta) >= -slack)


def test_stolz_extremes_are_the_segment_and_the_disc():
    _, zs = _sweep(22, 200)
    for z in zs:
        assert not stolz_contains(z, 0.0)
        assert stolz_contains(z, np.pi / 2) == (abs(z) <= 1.0)
    # (z, on the segment [0, 1], in the closed unit disc), exact at slack 0
    edge = [(0.0, True, True), (0.5, True, True), (1.0, True, True), (1.0 - 1e-12, True, True),
            (-1e-12, False, True), (1.0 + 1e-12, False, False), (0.5 + 1e-12j, False, True),
            (1j, False, True), (-1.0, False, True), (-1j, False, True),
            ((1.0 - 1e-12) * 1j, False, True), (-1.0 - 1e-12, False, False)]
    for z, on_segment, in_disc in edge:
        assert stolz_contains(z, 0.0) == on_segment
        assert stolz_contains(z, np.pi / 2) == in_disc
    assert stolz_margin(0.5 + 0.25j, 0.0) == pytest.approx(-0.25, abs=1e-15)
    assert stolz_margin(2.0, np.pi / 2) == pytest.approx(-1.0, abs=1e-15)


def test_omega_region_membership():
    region = OmegaRegion(2)  # disc |z - 1/4| <= 3/4 cut by a pi/6 sector at 1
    assert region.thetaN == pytest.approx(np.pi / 6, abs=1e-12)
    assert omega_contains(1.0, region)  # the vertex itself counts
    assert omega_contains(0.0, region)
    assert omega_contains(-0.5, region)  # on the disc boundary
    assert not omega_contains(-0.51, region)
    assert omega_contains(-0.51, region, slack=0.02)
    assert omega_contains(0.5 + 0.2j, region)
    assert not omega_contains(0.5 + 0.4j, region)  # inside the disc, outside the sector
    with pytest.raises(ValueError):
        OmegaRegion(1)


def test_omega_region_angle_follows_n():
    assert OmegaRegion(3).thetaN == theta_recursion(3)
    with pytest.raises(TypeError):
        OmegaRegion(3, thetaN=0.1)


def test_omega_margin_signs():
    region = OmegaRegion(2)
    assert region.margin(0.0) == pytest.approx(0.5, abs=1e-12)
    assert region.margin(1.0) == pytest.approx(0.0, abs=1e-12)
    assert region.margin(-0.6) < 0.0


def test_boundary_of_a_diagonal_contraction():
    nb = numrange_boundary(np.diag([0.9, 0.1]), 64)
    assert len(nb) == 64
    i0 = int(np.argmin(np.abs(nb.angles - 0.0)))
    ipi = int(np.argmin(np.abs(nb.angles - np.pi)))
    assert nb.support[i0] == pytest.approx(0.9, abs=1e-12)
    assert nb.support[ipi] == pytest.approx(-0.1, abs=1e-12)
    # Hermitian operator: the numerical range is the segment [0.1, 0.9]
    assert np.abs(nb.points.imag).max() <= 1e-9
    assert nb.points.real.min() >= 0.1 - 1e-9
    assert nb.points.real.max() <= 0.9 + 1e-9


def test_boundary_rejects_non_contractions():
    with pytest.raises(NumericalContractError):
        numrange_boundary(np.diag([1.2, 0.0]), 16)
    with pytest.raises(ValueError):
        numrange_boundary(np.diag([0.5, 0.0]), 4)


def test_containment_holds_for_a_cyclic_product():
    cp = build_cyclic(two_lines(np.pi / 4))
    rep = containment_check(cp, np.cos(np.pi / 4), 2, m=128)
    assert rep.all_contained
    assert bool(np.all(rep.in_omega)) and bool(np.all(rep.in_stolz))
    assert rep.margins.min() >= -1e-7


def test_containment_flags_a_violator():
    t = np.diag([-0.9, 0.0])  # well outside both regions near z = -0.9
    rep = containment_check(t, 0.0, 2)
    assert not rep.all_contained
    worst_z, worst_margin = rep.worst()
    assert worst_margin < -0.1
    assert worst_z.real < 0.0


def test_power_profile_of_a_scaled_identity():
    # T = I/2: n ||T^n (I - T)|| = n 2^{-(n+1)}, maximal (0.25) first at n = 1
    sup, n_star, profile = ritt_power_diagnostic(0.5 * np.eye(2), 30)
    ns = np.arange(1, 31)
    assert np.allclose(profile, ns * 0.5 ** (ns + 1), atol=1e-15)
    assert sup == pytest.approx(0.25, abs=1e-15)
    assert n_star == 1
    with pytest.raises(ValueError):
        ritt_power_diagnostic(0.5 * np.eye(2), 0)


def test_power_profile_of_an_orthogonal_product_is_zero():
    cp = build_cyclic(two_lines(np.pi / 2))  # T = P2 P1 = 0
    sup, _, profile = ritt_power_diagnostic(cp, 10)
    assert sup == 0.0
    assert np.allclose(profile, 0.0)


def test_resolvent_diagnostic_of_the_zero_operator():
    cp = build_cyclic(two_lines(np.pi / 2))
    val = resolvent_diagnostic(cp)
    # sup over the default grid is attained at lambda = -(1 + 2^-10)
    expected = (2.0 + 2.0**-10) / (1.0 + 2.0**-10)
    assert val == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError):
        resolvent_diagnostic(cp, radii=[0.99])
    # a constant measured from no samples at all is refused
    with pytest.raises(ValueError):
        resolvent_diagnostic(cp, radii=[])
    with pytest.raises(ValueError):
        resolvent_diagnostic(cp, radii=[1.5], angles_per_radius=0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            resolvent_diagnostic(cp, radii=[1.5, bad])


@pytest.mark.parametrize("slack", [np.nan, np.inf, -np.inf])
def test_non_finite_slack_is_refused(slack):
    with pytest.raises(ValueError):
        stolz_contains(0.5, 0.3, slack=slack)
    with pytest.raises(ValueError):
        omega_contains(0.5, OmegaRegion(3), slack=slack)
    with pytest.raises(ValueError):
        containment_check(build_cyclic(two_lines(1.0)), 0.5, 2, slack=slack)


# The stacked kernels against literal one-matrix-per-call loops, with exact
# equality, at d = 64 where a stack holds CHUNK matrices and so splits.
D = 64
CHUNK = stack_chunk(D)


@pytest.fixture(scope="module")
def t64():
    return build_cyclic(random_instance(D, (20, 30, 40), seed=64)).matrix


def test_stack_chunk_caps_a_stack_at_2_mib():
    assert CHUNK == 32
    assert stack_chunk(12) == 910
    assert stack_chunk(1024) == 1


def test_sym_and_eigh_sym_act_on_each_matrix_of_a_stack():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
    h = sym(a)
    w, v = eigh_sym(a)
    for j in range(3):
        assert np.array_equal(h[j], 0.5 * (a[j] + a[j].conj().T))
        wj, vj = eigh_sym(a[j])
        assert np.array_equal(w[j], wj) and np.array_equal(v[j], vj)


@pytest.mark.parametrize("n_max", [1, CHUNK - 1, CHUNK, CHUNK + 1, 500])
def test_power_profile_matches_a_per_power_loop(t64, n_max):
    defect = np.eye(D) - t64
    power = np.eye(D, dtype=np.complex128)
    expected = np.empty(n_max)
    for n in range(1, n_max + 1):
        power = power @ t64
        expected[n - 1] = n * float(np.linalg.norm(power @ defect, 2))
    sup, n_star, profile = ritt_power_diagnostic(t64, n_max)
    assert np.array_equal(profile, expected)
    assert n_star == int(np.argmax(expected)) + 1 and sup == expected[n_star - 1]


def _resolvent_loop(t, radius, count):
    eye = np.eye(t.shape[0], dtype=np.complex128)
    best = 0.0
    for phi in 2.0 * np.pi * np.arange(count) / count:
        lam = radius * np.exp(1j * phi)
        best = max(best, abs(lam - 1.0) / np.linalg.svd(lam * eye - t, compute_uv=False)[-1])
    return float(best)


@pytest.mark.parametrize("k", [CHUNK - 1, CHUNK, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 5])
def test_resolvent_matches_a_per_lambda_loop(t64, k):
    # T's top eigenvalue is real; scaled to modulus 0.99 and turned to the
    # k-th grid angle it puts a sharp supremum on that sample, so each
    # chunk edge in turn carries the maximum
    count = 2 * CHUNK + 6
    rho = np.abs(np.linalg.eigvals(t64)).max()
    t = (0.99 / rho) * np.exp(2j * np.pi * k / count) * t64
    assert resolvent_diagnostic(t, radii=[1.01], angles_per_radius=count) == \
        _resolvent_loop(t, 1.01, count)


def test_numrange_boundary_matches_a_per_angle_loop(t64):
    b = numrange_boundary(t64, 256)
    for i, phi in enumerate(2.0 * np.pi * np.arange(256) / 256):
        w, v = eigh_sym(np.exp(-1j * phi) * t64)
        x = v[:, -1]
        assert b.support[i] == w[-1]
        assert b.points[i] == x.conj() @ (t64 @ x)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)  # tells signed zeros apart


@pytest.mark.parametrize("rule", ["1/k", "1/sqrt(k)", "custom"])
@pytest.mark.parametrize("k_blocks", [2, 12, 200])
def test_spectral_kernels_on_the_block_stack_match_the_dense_matrix(k_blocks, rule):
    # the norms and support values split exactly over T's 2x2 blocks; the
    # boundary points and sigma_min come from 2x2 factorizations instead
    # of d x d ones and agree to rounding
    angles = np.geomspace(1.5, 1e-3, k_blocks) if rule == "custom" else rule
    cp = block_aligned(k_blocks, angles).cyclic()
    radii = [1.5, 1.0 + 2.0**-10]
    boundary = numrange_boundary(cp, 8)
    _, n_star, profile = ritt_power_diagnostic(cp, 8)
    constant = resolvent_diagnostic(cp, radii, 4)
    assert not {"factors", "matrix", "pm"} & set(vars(cp))
    t = cp.matrix
    dense = numrange_boundary(t, 8)
    assert np.array_equal(_bits(boundary.support), _bits(dense.support))
    assert np.abs(boundary.points - dense.points).max() <= 1e-15
    _, dense_n_star, dense_profile = ritt_power_diagnostic(t, 8)
    assert np.array_equal(_bits(profile), _bits(dense_profile)) and n_star == dense_n_star
    assert abs(constant - resolvent_diagnostic(t, radii, 4)) <= 1e-15


def test_block_kernels_split_their_stacks_at_chunk_edges():
    # at 1100 blocks a capped stack holds stack_chunk(2) // 1100 = 29
    # angles, powers or values of lambda, so every call spans three chunks
    k_blocks = 1100
    cp = block_aligned(k_blocks, "1/sqrt(k)").cyclic()
    t = cp._t_blocks
    count = 2 * (stack_chunk(2) // k_blocks) + 3
    b = numrange_boundary(cp, count)
    w, v = eigh_sym(np.array([np.exp(-1j * phi) * t for phi in b.angles]))
    top = np.argmax(w[:, :, -1], axis=1)
    for i, k in enumerate(top):
        x = v[i, k, :, -1]
        assert b.support[i] == w[i, k, -1] == w[i, :, -1].max()
        assert b.points[i] == x.conj() @ (t[k] @ x)
    eye = np.eye(2, dtype=np.complex128)
    power = np.broadcast_to(eye, t.shape)
    expected = np.empty(count)
    for n in range(1, count + 1):
        power = power @ t
        expected[n - 1] = n * np.linalg.svd(power @ (eye - t), compute_uv=False).max()
    assert np.array_equal(ritt_power_diagnostic(cp, count)[2], expected)
    best = 0.0
    for phi in 2.0 * np.pi * np.arange(count) / count:
        lam = 1.01 * np.exp(1j * phi)
        sigma_min = np.linalg.svd(lam * eye - t, compute_uv=False)[:, -1].min()
        best = max(best, abs(lam - 1.0) / sigma_min)
    assert resolvent_diagnostic(cp, radii=[1.01], angles_per_radius=count) == best
