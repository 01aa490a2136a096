"""Stolz domains, the disc-and-sector region, numerical-range boundaries,
and the power/resolvent diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from altproj import (
    NumericalContractError,
    OmegaRegion,
    Subspace,
    block_aligned,
    build_cyclic,
    containment_check,
    convex_combination,
    numrange_boundary,
    omega_contains,
    orthonormalize,
    random_instance,
    resolvent_diagnostic,
    ritt_power_diagnostic,
    stolz_contains,
    stolz_margin,
    theta0,
    theta_recursion,
    two_lines,
)
from altproj import spectral
from altproj.acceptance import _pool
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


def _stolz_margin_scalar(z, theta):
    """``stolz_margin`` as it was written for one point, in Python's complex arithmetic."""
    z = complex(z)
    r, s = float(np.sin(theta)), float(np.cos(theta))
    x, y = z.real, abs(z.imag)
    m = r - x * r - y * s
    if x <= r * abs(z):
        m = min(m, r - abs(z))
    if x - 1.0 >= r * abs(z - 1.0):
        m = min(m, -abs(z - 1.0))
    return m


def _omega_margin_scalar(region, z):
    """``OmegaRegion.margin`` as it was written for one point."""
    z = complex(z)
    p = 2.0 ** (-region.N)
    disc = (1.0 - p) - abs(z - p)
    w = 1.0 - z
    sector = region.thetaN - (0.0 if abs(w) <= 1e-12 else abs(np.angle(w)))
    return float(min(disc, sector))


def _margin_points(n, theta):
    """0, 1, 2^-N, points with +-0 imaginary parts, points on the boundary of
    Omega_N and of S_theta, and seeded points near both."""
    p = 2.0 ** (-n)
    t_n = theta_recursion(n)
    r = np.sin(theta)
    phi = np.linspace(-np.pi, np.pi, 41)
    t = np.linspace(0.0, 1.0, 11)
    special = [0.0, 1.0, p, complex(0.0, -0.0), complex(1.0, -0.0), complex(p, -0.0),
               complex(-0.5, 0.0), complex(-0.5, -0.0), complex(1.5, -0.0), 1.0 + 1e-13j,
               1.0 - 1e-12, complex(1.0 - 1e-12, -0.0), 2.0**-1074, -(2.0**-1074)]
    _, near = _sweep(23, 200)
    return np.concatenate([
        np.array(special, dtype=complex),
        p + (1.0 - p) * np.exp(1j * phi),  # the disc of Omega_N
        1.0 - np.outer(t, np.exp([1j * t_n, -1j * t_n])).ravel(),  # its sector
        r * np.exp(1j * phi),  # the arc of S_theta
        1.0 - np.outer(t, np.exp([1j * (np.pi / 2 - theta),
                                  -1j * (np.pi / 2 - theta)])).ravel(),  # its segments
        near])


@pytest.mark.parametrize("n", [2, 3, 10, 60])
def test_margins_of_an_array_have_the_bits_of_the_scalar_margins(n):
    region = OmegaRegion(n)
    for theta in (0.0, theta0(0.3, n), theta0(0.999, n), np.pi / 2):
        zs = _margin_points(n, theta)
        omega, stolz = region.margin(zs), stolz_margin(zs, theta)
        scalar_omega = [region.margin(z) for z in zs]
        scalar_stolz = [stolz_margin(z, theta) for z in zs]
        assert all(type(v) is float for v in scalar_omega + scalar_stolz)
        for got in (np.array(scalar_omega),
                    np.array([_omega_margin_scalar(region, z) for z in zs])):
            assert got.tobytes() == omega.tobytes()
        for got in (np.array(scalar_stolz),
                    np.array([_stolz_margin_scalar(z, theta) for z in zs])):
            assert got.tobytes() == stolz.tobytes()


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
    # one value per default radius r = 1 + 2^-k, k = 1..10, each attained
    # at lambda = -r
    assert len(val) == 10
    assert val == pytest.approx([(1.0 + r) / r for r in spectral._RADII], abs=1e-12)
    with pytest.raises(ValueError):
        resolvent_diagnostic(cp, radii=[0.99])
    # a constant measured from no samples at all is refused
    with pytest.raises(ValueError):
        resolvent_diagnostic(cp, radii=[])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            resolvent_diagnostic(cp, radii=[1.5, bad])


@pytest.mark.parametrize("slack", [np.nan, np.inf, -np.inf])
def test_non_finite_slack_is_refused(slack):
    with pytest.raises(ValueError):
        stolz_contains(0.5, 0.3, slack=slack)
    with pytest.raises(ValueError):
        omega_contains(0.5, OmegaRegion(3), slack=slack)


_KERNELS = pytest.mark.parametrize("kernel", [
    lambda t: ritt_power_diagnostic(t, 10),
    resolvent_diagnostic,
    lambda t: numrange_boundary(t, 8),
], ids=["ritt_power_diagnostic", "resolvent_diagnostic", "numrange_boundary"])


@_KERNELS
def test_non_finite_plain_matrices_are_refused(kernel):
    # before LAPACK, which would fail with "did not converge"
    with pytest.raises(ValueError, match="T must be finite"):
        kernel(np.full((3, 3), np.nan))
    t = np.zeros((3, 3))
    t[1, 2] = np.inf
    with pytest.raises(ValueError, match="T must be finite"):
        kernel(t)


@_KERNELS
def test_empty_plain_matrices_are_refused(kernel):
    # before the chunk size of a 0 x 0 stack, which divides by zero
    with pytest.raises(ValueError, match="T must not be empty"):
        kernel(np.zeros((0, 0)))


@_KERNELS
def test_non_square_plain_matrices_are_refused(kernel):
    # before NumPy's broadcasting or matmul core-dimension errors
    with pytest.raises(ValueError, match="T must be square"):
        kernel(np.zeros((2, 3)))


# The stacked kernels against literal one-matrix-per-call loops, with exact
# equality (the power profile to rounding), at d = 64 where a stack holds
# CHUNK matrices and so splits.
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
    # the profile comes from T's core and C's powers by doubling, so it
    # agrees with the per-power products to rounding (2.5e-16 measured)
    assert np.abs(profile - expected).max() <= 1e-12 * expected.max()
    assert n_star == int(np.argmax(expected)) + 1 and sup == profile[n_star - 1]


def _grid(count):
    return 2.0 * np.pi * np.arange(count) / count


def _resolvent_loop(t, lams):
    """max |lambda - 1| / sigma_min(lambda I - T) over lams (one circle), one
    SVD call per lambda; sigma_min of an (n, b, b) stack is the smallest over
    its blocks."""
    eye = np.eye(t.shape[-1], dtype=np.complex128)
    best = 0.0
    for lam in lams:
        sigma_min = np.linalg.svd(lam * eye - t, compute_uv=False)[..., -1].min()
        best = max(best, abs(lam - 1.0) / sigma_min)
    return float(best)


@pytest.mark.parametrize("k", [CHUNK - 1, CHUNK, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 5])
def test_resolvent_matches_a_per_lambda_loop(t64, k, monkeypatch):
    # T's top eigenvalue is real; scaled to modulus 0.99 and turned to the
    # k-th grid angle it puts a sharp supremum on that sample, so each
    # chunk edge in turn carries the maximum; the grid of the second circle
    # starts 6 values into a chunk, so chunks straddle the two circles
    count = 2 * CHUNK + 6
    monkeypatch.setattr(spectral, "_ANGLES_PER_RADIUS", count)
    rho = np.abs(np.linalg.eigvals(t64)).max()
    t = (0.99 / rho) * np.exp(2j * np.pi * k / count) * t64
    radii = [1.5, 1.01]
    expected = [_resolvent_loop(t, r * np.exp(1j * _grid(count))) for r in radii]
    assert np.array_equal(resolvent_diagnostic(t, radii), expected)


def _mirrored(mu):
    """A real T's multipliers as ``resolvent_diagnostic`` uses them: rows
    j = 0..m // 2 as given, each row j > m // 2 the conjugate of row m - j."""
    mu = np.array(mu)
    m = len(mu)
    j = np.arange(m // 2 + 1, m)
    mu[j] = mu[m - j].conj()
    return mu


def _numrange_rows(m, real):
    """Each row's multiplier and eigenpair (-1 the top, 0 the bottom) as
    ``numrange_boundary`` reads them: row j at e^{-i phi_j}, top; for an
    even m, row j + m / 2 at row j's multiplier, bottom; for a real T, each
    row the kernel does not factor at the conjugate of row m - j's
    multiplier, with its pair."""
    mu = np.exp(-1j * _grid(m))
    pair = np.full(m, -1)
    half = m // 2 if m % 2 == 0 else 0
    if half:
        mu[half:], pair[half:] = mu[:half], 0
    if real:
        count = m // 4 + 1 if half else m // 2 + 1
        for j in range(count, m):
            if not (half and half <= j < half + count):
                mu[j], pair[j] = mu[m - j].conj(), pair[m - j]
    return mu, pair


def _numrange_loop(t, rows):
    """Support values and boundary points of an (n, b, b) stack, one
    ``eigh_sym`` call per row of ``_numrange_rows``: the top eigenvalue over
    the blocks, or minus the bottom one, and <Tx, x> at its eigenvector."""
    mus, pairs = rows
    support = np.empty(len(mus))
    points = np.empty(len(mus), dtype=np.complex128)
    for i, (mu, pair) in enumerate(zip(mus, pairs)):
        w, v = eigh_sym(mu * t)
        ext = w[:, pair] if pair == -1 else -w[:, pair]
        k = int(np.argmax(ext))
        x = v[k, :, pair]
        support[i], points[i] = ext[k], x.conj() @ (t[k] @ x)
    return support, points


def test_numrange_boundary_matches_a_per_angle_loop(t64):
    b = numrange_boundary(t64, 256)
    support, points = _numrange_loop(t64[None], _numrange_rows(256, True))
    assert np.array_equal(b.support, support) and np.array_equal(b.points, points)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)  # tells signed zeros apart


@pytest.mark.parametrize("rule", ["1/k", "1/sqrt(k)", "custom"])
@pytest.mark.parametrize("k_blocks", [2, 12, 200])
def test_spectral_kernels_on_the_block_stack_match_the_dense_matrix(k_blocks, rule,
                                                                   monkeypatch):
    # the support values split exactly over T's 2x2 blocks; the boundary
    # points and sigma_min come from 2x2 factorizations instead of d x d
    # ones, the power profile from the cores of the blocks instead of the
    # d x d matrix, and they agree to rounding
    angles = np.geomspace(1.5, 1e-3, k_blocks) if rule == "custom" else rule
    cp = block_aligned(k_blocks, angles).cyclic()
    radii = [1.5, 1.0 + 2.0**-10]
    monkeypatch.setattr(spectral, "_ANGLES_PER_RADIUS", 4)  # d x d SVDs at d = 400
    boundary = numrange_boundary(cp, 8)
    _, n_star, profile = ritt_power_diagnostic(cp, 8)
    constant = resolvent_diagnostic(cp, radii)
    assert not {"factors", "matrix", "pm"} & set(vars(cp))
    t = cp.matrix
    dense = numrange_boundary(t, 8)
    assert np.array_equal(_bits(boundary.support), _bits(dense.support))
    assert np.abs(boundary.points - dense.points).max() <= 1e-15
    _, dense_n_star, dense_profile = ritt_power_diagnostic(t, 8)
    assert np.abs(profile - dense_profile).max() <= 1e-14 and n_star == dense_n_star
    assert np.abs(constant - resolvent_diagnostic(t, radii)).max() <= 1e-15


def test_block_kernels_split_their_stacks_at_chunk_edges(monkeypatch):
    # at 1100 blocks a capped stack holds stack_chunk(2) // 1100 = 29
    # angles, powers or values of lambda, so every call spans three chunks
    k_blocks = 1100
    cp = block_aligned(k_blocks, "1/sqrt(k)").cyclic()
    t = cp._t_blocks
    count = 2 * (stack_chunk(2) // k_blocks) + 3
    monkeypatch.setattr(spectral, "_ANGLES_PER_RADIUS", count)
    # a real T factors m // 2 + 1 = 31 angles of the odd grid and
    # m // 4 + 1 = 2 * 29 + 2 of the even one
    for m in (count, 4 * (count - 2)):
        b = numrange_boundary(cp, m)
        support, points = _numrange_loop(t, _numrange_rows(m, True))
        assert np.array_equal(b.support, support) and np.array_equal(b.points, points)
    eye = np.eye(2, dtype=np.complex128)
    power = np.broadcast_to(eye, t.shape)
    expected = np.empty(count)
    for n in range(1, count + 1):
        power = power @ t
        expected[n - 1] = n * np.linalg.svd(power @ (eye - t), compute_uv=False).max()
    # the profile from the blocks' cores agrees to rounding (1.5e-14 of the
    # supremum measured)
    assert np.abs(ritt_power_diagnostic(cp, count)[2] - expected).max() <= 1e-12 * expected.max()
    # 31 values of lambda per circle, 29 per call: the second call holds
    # both circles
    radii = [1.5, 1.01]
    expected = [_resolvent_loop(t, _mirrored(r * np.exp(1j * _grid(count)))) for r in radii]
    assert np.array_equal(resolvent_diagnostic(cp, radii), expected)


# For a real T the kernels factor the closed upper half of each angle grid
# and mirror the rest; a complex T goes through the full grid.


def _factored(t):
    """The stack the kernels factor: C of ``t._core`` where it exists, else
    T's blocks (a plain matrix is one block)."""
    if not hasattr(t, "_t_blocks"):
        return t[None]
    return t._t_blocks if t._core is None else t._core[1]


def _complex_product(d, dims, seed):
    rng = np.random.default_rng(seed)
    return build_cyclic([orthonormalize(rng.standard_normal((d, r))
                                        + 1j * rng.standard_normal((d, r))) for r in dims])


@pytest.mark.parametrize("m", [61, 64])
def test_real_kernels_match_per_angle_loops_at_their_multipliers(t64, m, monkeypatch):
    # the rows j + m / 2 of an even m are the bottom eigenpairs at row j's
    # multiplier, and the mirrored rows the eigh_sym and SVD results at the
    # conjugate of row m - j's multiplier, bit for bit
    monkeypatch.setattr(spectral, "_ANGLES_PER_RADIUS", m)
    radii = [1.5, 1.01]
    operators = [entry.cp for entry in _pool()[:20:4]]
    operators += [block_aligned(12, "1/k").cyclic(), t64]
    for t in operators:
        blocks = _factored(t)
        assert not blocks.imag.any()
        b = numrange_boundary(t, m)
        support, points = _numrange_loop(blocks, _numrange_rows(m, True))
        assert np.array_equal(b.support, support) and np.array_equal(b.points, points)
        expected = [_resolvent_loop(blocks, _mirrored(r * np.exp(1j * _grid(m))))
                    for r in radii]
        assert np.array_equal(resolvent_diagnostic(t, radii), expected)


def test_complex_operators_get_the_full_grid():
    # W(T) of a complex product is not its own mirror image; rows
    # j + 32 come from the bottom eigenpairs at row j's multiplier
    cp = _complex_product(8, (3, 5, 4), 7)
    b = numrange_boundary(cp, 64)
    support, points = _numrange_loop(_factored(cp), _numrange_rows(64, False))
    assert np.array_equal(b.support, support) and np.array_equal(b.points, points)
    assert np.abs(b.support[1:] - b.support[:0:-1]).max() > 1e-3  # h(phi) != h(-phi)
    radii = [1.5, 1.01]
    expected = [_resolvent_loop(_factored(cp), r * np.exp(1j * _grid(64))) for r in radii]
    assert np.array_equal(resolvent_diagnostic(cp, radii), expected)


@pytest.mark.parametrize("m", [8, 9, 10, 61, 100, 256])
def test_numrange_boundary_matches_a_full_per_angle_loop(t64, m):
    # the exact multiplier e^{-i phi_j} and the top eigenpair at every row,
    # against the kernel's opposite and mirrored rows: a support value is
    # an eigenvalue, which two LAPACK calls on Hermitian matrices an ulp
    # apart place within a small multiple of eps (2.1e-15 at worst over
    # the pool, on a mirrored row at m = 256, as in the parent), and a
    # point is fixed only up to eps / gap in its tangential part, gap the
    # distance of the top eigenvalue to the next
    eps = np.finfo(float).eps
    cores = [e.cp for e in _pool()[:40] if e.cp._core is not None][:4]
    operators = [t64, _complex_product(8, (3, 5, 4), 7), _complex_product(D, (20, 30, 40), 64),
                 block_aligned(12, "1/k").cyclic(), block_aligned(1100, "1/sqrt(k)").cyclic(),
                 build_cyclic(_family(8, (4, 5, 3), "all", 1))] + cores
    for t in operators:
        blocks = _factored(t)
        b = numrange_boundary(t, m)
        w, v = eigh_sym(np.exp(-1j * _grid(m))[:, None, None, None] * blocks)
        top = np.argmax(w[:, :, -1], axis=1)
        rows = np.arange(m)
        x = v[rows, top, :, -1]
        points = np.einsum("ja,jab,jb->j", x.conj(), blocks[top], x)
        flat = np.sort(w.reshape(m, -1), axis=1)
        gap = flat[:, -1] - flat[:, -2] if flat.shape[1] > 1 else np.inf
        assert np.abs(b.support - w[rows, top, -1]).max() <= 16.0 * eps
        with np.errstate(divide="ignore"):
            assert (np.abs(b.points - points) <= 1e-15 + 8.0 * eps / gap).all()


def test_kernels_factor_half_of_each_grid_for_a_real_operator(t64, monkeypatch):
    # matrices per boundary and per radius, counted over the angles of
    # every stacked call (at d = 64 the 33 angles of a real T split 32 + 1):
    # an even m factors half of the boundary's grid for a complex T and a
    # quarter and one for a real T, an odd m all of it or half and one
    counts = []

    def spy(kernel):
        def counted(a, *args, **kwargs):
            counts.append(len(a))
            return kernel(a, *args, **kwargs)
        return counted

    monkeypatch.setattr(spectral, "eigh_sym", spy(eigh_sym))
    monkeypatch.setattr(np.linalg, "svd", spy(np.linalg.svd))
    radii = [1.5, 1.2, 1.01]
    for t, real in [(t64, True), (block_aligned(12, "1/k").cyclic(), True),
                    (_complex_product(D, (20, 30, 40), 64), False)]:
        for m in (64, 61):
            counts.clear()
            numrange_boundary(t, m)
            if m % 2:
                assert sum(counts) == (m // 2 + 1 if real else m)
            else:
                assert sum(counts) == (m // 4 + 1 if real else m // 2)
        counts.clear()
        resolvent_diagnostic(t, radii)
        assert sum(counts) == len(radii) * (33 if real else 64)


# A product with 0 < 2m < b, m = min(r_1, r_N), has a core (Q, C): T is
# C = Q^H T Q on span Q and 0 beside it, and C is singular, so the numerical
# range and the resolvent factor C and agree with T's d x d block to
# rounding.  A boundary point is fixed only up to eps / gap in its tangential
# part, where gap is the distance of the top eigenvalue of the Hermitian part
# to the next (2e-3 at worst on the pool, where points move by 2.3e-14).


def _family(d, dims, shared_by, seed):
    """Real bases of R^d of the given dimensions; every basis holds the
    vector e_1 when ``shared_by`` is "all" (so M holds it), only the
    first and last do when it is "ends" (M_1 ∩ M_N holds it, M = {0})."""
    rng = np.random.default_rng(seed)
    u = np.eye(d)[:, :1]
    shared = {"all": range(len(dims)), "ends": (0, len(dims) - 1)}[shared_by]
    return [orthonormalize(np.hstack([u, rng.standard_normal((d, r - 1))]) if k in shared
                           else rng.standard_normal((d, r))) for k, r in enumerate(dims)]


def test_core_kernels_match_the_full_blocks_to_rounding():
    eps = np.finfo(float).eps
    pool = [e.cp for e in _pool() if e.cp._core is not None]
    assert len(pool) == 140
    planted = build_cyclic(_family(8, (4, 5, 3), "all", 1))
    ends = build_cyclic(_family(8, (3, 5, 3), "ends", 2))
    assert planted.m.dim == 1 and ends.m.dim == 0
    products = pool + [_complex_product(8, (3, 5, 4), 7), planted, ends]
    # the QR columns of the "ends" family lie in M_1 + M_N, of dimension 5 < 2m = 6
    assert np.linalg.matrix_rank(np.hstack([ends._spans[0][0], ends._spans[-1][0]])) == 5
    lams = np.concatenate([r * np.exp(1j * _grid(64)) for r in (1.5, 1.01)])
    for cp in products:
        q, c = (a[0] for a in cp._core)
        t = cp.matrix
        assert q.shape[1] < cp.dim and np.abs(q.conj().T @ q - np.eye(q.shape[1])).max() <= 1e-14
        assert np.abs(q @ c @ q.conj().T - t).max() <= 1e-14
        assert np.linalg.svd(c, compute_uv=False)[-1] <= 1e-14  # a kernel vector of T in S
        core, full = numrange_boundary(cp, 64), numrange_boundary(t, 64)
        assert np.abs(core.support - full.support).max() <= 1e-14
        w = eigh_sym(np.exp(-1j * full.angles)[:, None, None] * t)[0]
        with np.errstate(divide="ignore"):
            tol = 1e-14 + 8.0 * eps / (w[:, -1] - w[:, -2])
        assert (np.abs(core.points - full.points) <= tol).all()
        eye = np.eye(len(c))
        sigma_core = np.linalg.svd(lams[:, None, None] * eye - c, compute_uv=False)[:, -1]
        sigma_full = np.linalg.svd(lams[:, None, None] * np.eye(cp.dim) - t,
                                   compute_uv=False)[:, -1]
        assert np.abs(sigma_core - sigma_full).max() <= 1e-14


def test_products_without_a_core_keep_their_blocks():
    # m = 0 (a zero-dimensional first or last factor) and 2m >= b leave
    # nothing to compress; the zero-dimensional families keep T = 0's values
    plane, zero = Subspace(np.eye(4)[:, :2]), Subspace(np.zeros((4, 0)))
    for family in ([plane, zero], [zero, plane]):
        cp = build_cyclic(family)
        assert cp._core is None
        assert np.array_equal(resolvent_diagnostic(cp, radii=[1.5]), [5.0 / 3.0])
        assert np.array_equal(resolvent_diagnostic(cp), [(1.0 + r) / r for r in spectral._RADII])
        b = numrange_boundary(cp, 16)
        assert np.array_equal(b.support, np.zeros(16)) and not np.abs(b.points).any()
        assert ritt_power_diagnostic(cp, 10)[0] == 0.0
    for cp in (build_cyclic(two_lines(1.0)), block_aligned(12, "1/k").cyclic(),
               build_cyclic(random_instance(6, (3, 4), seed=1))):
        assert cp._core is None


# The power profile on T's core against one product T^n (I - T) and one
# SVD per power: equal to 1e-12 of the supremum, and the argmax a maximizer
# of the reference to that tolerance.  The tolerance adds the rounding
# bound d n_max eps of a product of n_max d x d contractions, which decides
# when the supremum is tiny: 1.4e-3 for one family with a plane in M, where
# values n ||T^n (I - T)|| of 1e-15 and below differ by up to 5e-15.


def _per_power_profile(t, n_max):
    """n ||T^n (I - T)|| of a matrix, or over the blocks of an (n, b, b) stack."""
    eye = np.eye(t.shape[-1], dtype=np.complex128)
    power = np.broadcast_to(eye, t.shape)
    profile = np.empty(n_max)
    for n in range(1, n_max + 1):
        power = power @ t
        profile[n - 1] = n * np.linalg.svd(power @ (eye - t), compute_uv=False).max()
    return profile


def _assert_matches_per_power_profile(t, reference, n_max):
    sup, n_star, profile = ritt_power_diagnostic(t, n_max)
    expected = _per_power_profile(reference, n_max)
    tol = 1e-12 * expected.max() + reference.shape[-1] * n_max * np.finfo(float).eps
    assert np.abs(profile - expected).max() <= tol
    assert sup == profile[n_star - 1] == profile.max()
    assert expected[n_star - 1] >= expected.max() - tol


@st.composite
def _profile_families(draw):
    # N = 2-4 subspaces of C^d (d <= 12), real or complex, holding a planted
    # common subspace of dimension p; the first or last factor may be a line
    n, d = draw(st.integers(2, 4)), draw(st.integers(2, 12))
    line = draw(st.sampled_from([None, 0, -1]))
    p = draw(st.integers(0, min(1, d - 2) if line is not None else d - 2))
    dims = draw(st.lists(st.integers(p + 1, d - 1), min_size=n, max_size=n))
    if line is not None:
        dims[line] = 1
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    draw_complex = draw(st.booleans())

    def gauss(cols):
        g = rng.standard_normal((d, cols))
        return g + 1j * rng.standard_normal((d, cols)) if draw_complex else g

    planted = gauss(p)
    return [orthonormalize(np.hstack([planted, gauss(r - p)])) for r in dims]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_profile_families())
def test_core_profile_matches_the_per_power_loop_on_random_families(family):
    cp = build_cyclic(family)
    _assert_matches_per_power_profile(cp, cp.matrix, 200)


def test_core_profile_of_a_zero_dimensional_factor_is_zero():
    zero, line, plane = (Subspace(np.eye(3)[:, :r]) for r in (0, 1, 2))
    for family in ([zero, line], [line, zero], [line, zero, plane], [plane, line, zero]):
        sup, n_star, profile = ritt_power_diagnostic(build_cyclic(family), 40)
        assert sup == 0.0 and n_star == 1 and np.array_equal(profile, np.zeros(40))


def test_core_profile_of_convex_combinations_matches_the_per_power_loop():
    products = [build_cyclic(random_instance(8, dims, seed))
                for seed, dims in enumerate([(3, 5), (4, 2, 6), (7, 1)])]
    for weights in ([0.5, 0.5, 0.0], [0.2, 0.3, 0.5]):
        kept = [(p, w) for p, w in zip(products, weights) if w > 0.0]
        t = convex_combination([p for p, _ in kept], [w for _, w in kept])
        _assert_matches_per_power_profile(t, t, 300)


@pytest.mark.parametrize("k_blocks", [12, 1100])
def test_core_profile_of_the_block_model_matches_the_per_power_loop(k_blocks):
    # at 1100 blocks 90 powers span four chunks of 29; at 12 blocks the
    # reference is the dense 24 x 24 matrix
    cp = block_aligned(k_blocks, "1/k").cyclic()
    reference = cp.matrix if k_blocks == 12 else cp._t_blocks
    _assert_matches_per_power_profile(cp, reference, 90)


# The power profile takes each ||K_n|| from the top eigenvalue of K_n's
# smaller Gram matrix after an exact power-of-two scaling: against the SVD
# of the same K_n, at every magnitude the scaling admits.


@st.composite
def _scaled_stacks(draw):
    # a (count, n, p, q) stack of K's with p, q in 0..12 (1 x r and r x 1
    # among them), real or complex, whose blocks spread over 2^-60..1 and
    # whose whole stack is scaled by 2^k, k in [-1000, 1000]
    shape = draw(st.sampled_from(["any", "row", "column"]))
    p, q = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    p, q = {"any": (p, q), "row": (1, q), "column": (p, 1)}[shape]
    count, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    k = rng.standard_normal((count, n, p, q))
    if draw(st.booleans()):
        k = k + 1j * rng.standard_normal((count, n, p, q))
    spread = np.ldexp(1.0, -rng.integers(0, 61, size=(count, n, 1, 1)))
    return k * spread * 2.0 ** draw(st.integers(-1000, 1000))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_scaled_stacks())
def test_gram_norms_match_the_svd_at_every_scale(stack):
    got = spectral._top_norms(stack)
    expected = np.linalg.svd(stack, compute_uv=False).max(axis=(1, 2), initial=0.0)
    assert got.dtype == np.float64 and got.shape == (len(stack),)
    assert (np.abs(got - expected) <= 1e-13 * expected).all()


def _svd_norms(k):
    """The largest singular value over the blocks of each K, by SVD."""
    return np.linalg.svd(k, compute_uv=False).max(axis=(1, 2), initial=0.0)


def test_profile_matches_per_power_svds_on_the_pool_and_the_fixtures(monkeypatch):
    # the profile at criterion 7's n_max against the same K_n's SVDs:
    # within 1e-13 relative at every power (1.7e-14 measured), 1e-15
    # absolute (3.3e-16 measured), and the same argmax
    from altproj.cli import _load_instance_text
    from test_golden import FIXTURES

    operators = [e.cp for e in _pool()]
    for name, text in FIXTURES.items():
        if name != "near":  # refused: T does not commute with its limit projector
            inst = _load_instance_text(text)
            operators.append(inst.cyclic() if inst.matrix is None else inst.matrix)
    for t in operators:
        sup, n_star, profile = ritt_power_diagnostic(t, 500)
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_top_norms", _svd_norms)
            ref_sup, ref_n_star, expected = ritt_power_diagnostic(t, 500)
        assert (np.abs(profile - expected) <= 1e-13 * expected).all()
        assert np.abs(profile - expected).max() <= 1e-15
        assert n_star == ref_n_star and abs(sup - ref_sup) <= 1e-15
