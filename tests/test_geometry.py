"""Friedrichs numbers, inclinations, and the assembled geometry report."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from altproj import acceptance, geometry
from altproj.cli import _load_instance_text
from altproj.linalg import eigh_sym, orthonormal_columns
from altproj import (
    CyclicProduct,
    Subspace,
    block_aligned,
    build_cyclic,
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
from blockspans import spans_of
from test_golden import FIXTURES


@pytest.mark.parametrize("theta", [np.pi / 6, np.pi / 4, np.pi / 3, 1.0, 1.4])
def test_two_lines_friedrichs_is_the_cosine(theta):
    assert friedrichs_number(build_cyclic(two_lines(theta))) == pytest.approx(np.cos(theta),
                                                                            abs=1e-12)


def test_orthogonal_lines_are_maximally_inclined():
    cp = build_cyclic(two_lines(np.pi / 2))
    assert friedrichs_number(cp) == pytest.approx(0.0, abs=1e-12)
    assert ell2_direct(cp) == pytest.approx(1.0, abs=1e-12)
    assert iota2(cp) == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_lines_minimax_bounds():
    cp = build_cyclic(two_lines(np.pi / 2))
    # the worst direction sits halfway between the lines; the bottom
    # eigenspace of the dual is the whole plane, so it has to be combined
    g = minimax_inclination_estimate(cp, kind="global")
    i = minimax_inclination_estimate(cp, kind="inner")
    assert g == pytest.approx((np.sqrt(0.5), np.sqrt(0.5)), abs=1e-12)
    assert i == pytest.approx((1.0, 1.0), abs=1e-12)
    with pytest.raises(ValueError):
        minimax_inclination_estimate(cp, kind="sideways")


def test_equal_subspaces_degenerate_quantities():
    # M_1 = M_2 = M: no complement directions remain anywhere
    s = orthonormalize(np.eye(3)[:, :2])
    cp = build_cyclic([s, s])
    assert friedrichs_number(cp) == 0.0
    assert ell2_direct(cp) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    with pytest.warns(UserWarning):
        assert iota2(cp) == np.inf


_ENTRY_POINTS = [
    friedrichs_number,
    lambda cp: friedrichs_number_sampled(cp, 100, seed=1),
    ell2_direct,
    iota2,
    minimax_inclination_estimate,
    geometry_report,
]


def _one_factor():
    s = orthonormalize(np.eye(3)[:, :2])
    return CyclicProduct([s.basis[None]])


# (input, the error it raises, its message): a family goes in as its
# product, and a product of one factor is refused when it is built
_REFUSED = {
    "subspace list": (lambda: two_lines(1.0), TypeError, "build_cyclic"),
    "one factor": (_one_factor, ValueError, "at least two"),
}


@pytest.mark.parametrize("case", _REFUSED)
@pytest.mark.parametrize("entry", _ENTRY_POINTS)
def test_every_angle_quantity_takes_a_product_of_two_or_more_factors(entry, case):
    make, error, message = _REFUSED[case]
    with pytest.raises(error, match=message):
        entry(make())


def test_the_raw_constructor_finds_the_intersection_itself():
    # two planes of R^3 meeting in the first axis at pi/4: a product rebuilt
    # from the spans alone finds that line, so c is the angle's cosine, not
    # 1, and P_M fixes the line
    e = np.eye(3)
    planes = [orthonormalize([e[0], e[1]]),
              orthonormalize([e[0], np.cos(np.pi / 4) * e[1] + np.sin(np.pi / 4) * e[2]])]
    cp = build_cyclic(planes)
    raw = CyclicProduct(cp._spans)
    assert raw.m.dim == 1
    assert friedrichs_number(raw) == pytest.approx(np.cos(np.pi / 4), abs=1e-15)
    assert np.allclose(raw.pm_apply(e[0]), e[0], rtol=0.0, atol=1e-15)


def test_empty_feasible_sets_keep_their_answers():
    # M is the whole plane: M^perp and every M_n ∩ M^perp are zero
    cp = build_cyclic([Subspace(np.eye(2))] * 2)
    assert friedrichs_number(cp) == 0.0
    assert friedrichs_number_sampled(cp, 100, seed=1) == 0.0
    with pytest.warns(UserWarning, match="l2 inclination is \\+inf"):
        assert ell2_direct(cp) == np.inf
    with pytest.warns(UserWarning, match="inner inclination is \\+inf"):
        assert iota2(cp) == np.inf
    with pytest.warns(UserWarning, match="is \\+inf"):
        rep = geometry_report(cp)
    assert (rep.c, rep.ell2, rep.ell2_direct, rep.iota2) == (0.0, 1.0, np.inf, np.inf)
    assert (rep.ell_lo, rep.ell_hi, rep.iota_lo, rep.iota_hi) == (np.inf,) * 4
    for kind in ("global", "inner"):
        assert minimax_inclination_estimate(cp, kind=kind) == (np.inf, np.inf)


@pytest.mark.parametrize("seed", range(10))
def test_inclination_identity_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    d = int(rng.integers(3, 10))
    dims = tuple(int(rng.integers(1, d)) for _ in range(n))
    cp = build_cyclic(random_instance(d, dims, seed=int(rng.integers(0, 2**31))))
    c = friedrichs_number(cp)
    direct = ell2_direct(cp)
    assert direct == pytest.approx(ell2(c, n), abs=1e-8)
    assert iota2(cp) >= direct - 1e-9


def test_sampled_friedrichs_brackets_the_eigenvalue_route():
    cp = build_cyclic(random_instance(6, (2, 3), seed=42))
    c = friedrichs_number(cp)
    cs = friedrichs_number_sampled(cp, 20000, seed=7)
    assert cs <= c + 1e-9  # sampling never exceeds the supremum
    assert cs >= c - 0.05  # and comes close at this sample count


def _sampled_reference(cp, num_samples, seed):
    """``friedrichs_number_sampled`` as it scattered each draw into zero-filled
    coordinates and squared ``abs`` of the products."""
    b = np.concatenate([f for _, f in geometry._feasible(cp, "inner")], axis=-1)
    kept = np.any(b != 0, axis=-2)
    total = int(kept.sum())
    real = np.all(b.imag == 0.0)
    if real:
        b = b.real
    rng = np.random.default_rng(seed)
    best = -np.inf
    remaining = num_samples
    while remaining > 0:
        take = min(remaining, 20000)
        a = rng.standard_normal((total, take))
        if not real:
            a = a + 1j * rng.standard_normal((total, take))
        a /= np.linalg.norm(a, axis=0)
        coords = np.zeros(kept.shape + (take,), dtype=a.dtype)
        coords[kept] = a
        best = max(best, float(np.sum(np.abs(b @ coords) ** 2, axis=-2).sum(axis=0).max()))
        remaining -= take
    return (best - 1.0) / (cp.N - 1)


def test_sampled_friedrichs_keeps_the_bits_of_scattered_coordinates():
    rng = np.random.default_rng(5)
    cases = [build_cyclic(random_instance(d, dims, seed=s))
             for d, dims, s in [(6, (2, 3), 1), (8, (3, 4, 5), 2), (12, (5, 7), 3)]]
    # a complex family
    cases.append(build_cyclic([Subspace(orthonormal_columns(
        rng.standard_normal((7, r)) + 1j * rng.standard_normal((7, r)))) for r in (3, 4)]))
    # lines in 2x2 blocks, the first factor zero in block 0: the sampler
    # keeps only the blocks' nonzero coordinates
    k_blocks = 5
    ang = rng.uniform(0.1, 1.4, (2, k_blocks))
    lines = np.stack([np.cos(ang), np.sin(ang)], axis=-1)[..., None]
    lines[0, 0] = 0.0
    cases.append(CyclicProduct(tuple(lines)))
    for cp in cases:
        assert friedrichs_number_sampled(cp, 30000, 9) == _sampled_reference(cp, 30000, 9)


def test_two_subspace_friedrichs_is_the_largest_singular_value():
    subs = random_instance(5, (2, 2), seed=11)
    b1, b2 = subs[0].basis, subs[1].basis
    sigma = np.linalg.svd(b1.conj().T @ b2, compute_uv=False).max()
    assert friedrichs_number(build_cyclic(subs)) == pytest.approx(sigma, abs=1e-9)


def test_friedrichs_number_reuses_the_validated_eigenvalues(monkeypatch):
    subs = random_instance(6, (2, 3, 3), seed=4)
    cp = build_cyclic(subs)
    m = intersection(subs)
    b = np.concatenate([complement_within(s, m).basis for s in subs], axis=1)
    w, _ = eigh_sym(b.conj().T @ b)
    expected = float(np.clip((w[-1] - 1.0) / 2, 0.0, 1.0))
    calls = []

    def counted(a):
        calls.append(a.shape)
        return eigh_sym(a)

    monkeypatch.setattr(geometry, "eigh_sym", counted)
    assert friedrichs_number(cp) == expected  # bit-identical
    assert len(calls) == 1  # one eigh gives both the range check and c


def test_scalar_input_validation():
    with pytest.raises(ValueError):
        ell2(1.5, 2)
    with pytest.raises(ValueError):
        ell2(0.5, 1)
    with pytest.raises(ValueError):
        rate_base(-0.1, 3)
    cp = build_cyclic(two_lines(0.5))
    for count in (0, -5):
        with pytest.raises(ValueError, match="num_samples"):
            friedrichs_number_sampled(cp, count, 1)
    assert ell2(1.0, 4) == 0.0


def test_geometry_report_and_sandwich_check():
    rep = geometry_report(build_cyclic(random_instance(6, (2, 2, 3), seed=3)))
    assert rep.N == 3
    assert rep.ell2 == pytest.approx(ell2(rep.c, 3), abs=1e-12)
    assert 0.0 <= rep.rate_base < 1.0
    assert rep.ell_hi - rep.ell_lo <= 1e-9 and rep.iota_hi - rep.iota_lo <= 1e-9
    assert all(ok for _, ok, _ in sandwich_check(rep))


def test_geometry_report_refuses_crossed_bounds():
    rep = geometry_report(build_cyclic(two_lines(1.0)))
    with pytest.raises(ValueError, match="lower bound exceeds"):
        dataclasses.replace(rep, ell_lo=rep.ell_hi + 1e-3)


def test_geometry_report_is_deterministic():
    cp = build_cyclic(random_instance(5, (2, 2), seed=4))
    assert geometry_report(cp) == geometry_report(cp)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.floats(np.log(1e-3), np.log(np.pi / 2)))
def test_two_lines_minimax_inclinations(log_theta):
    theta = min(float(np.exp(log_theta)), np.pi / 2)
    cp = build_cyclic(two_lines(theta))
    ell = minimax_inclination_estimate(cp, kind="global")
    iota = minimax_inclination_estimate(cp, kind="inner")
    assert ell == pytest.approx((np.sin(theta / 2),) * 2, abs=1e-12)
    assert iota == pytest.approx((np.sin(theta),) * 2, abs=1e-12)


@pytest.mark.parametrize("k_blocks", [1, 5, 12])
def test_block_model_minimax_inclinations_sit_in_the_last_block(k_blocks):
    cp = build_cyclic(block_aligned(k_blocks, "1/k").subspaces)
    theta = 1.0 / k_blocks
    ell = minimax_inclination_estimate(cp, kind="global")
    iota = minimax_inclination_estimate(cp, kind="inner")
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
    lo, hi = minimax_inclination_estimate(build_cyclic(random_instance(d, dims, seed=seed)),
                                          kind="global")
    assert 0.0 <= hi - lo <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 4), st.integers(3, 10), st.integers(0, 2**31 - 1), st.data())
def test_minimax_bounds_on_random_families(n, d, seed, data):
    dims = data.draw(st.lists(st.integers(1, d - 1), min_size=n, max_size=n))
    cp = build_cyclic(random_instance(d, dims, seed=seed))
    l2 = ell2_direct(cp)
    ell_lo, ell_hi = minimax_inclination_estimate(cp, kind="global")
    iota_lo, iota_hi = minimax_inclination_estimate(cp, kind="inner")
    # max_k dist^2 >= (1/N) sum_k dist^2, and max_k dist <= the l2 norm
    assert l2 / np.sqrt(n) - 1e-12 <= ell_lo <= ell_hi
    assert ell_lo <= l2 + 1e-12
    assert iota_lo >= ell_lo - 1e-12 and iota_lo <= iota_hi
    # the inner dual has N - 1 <= 3 forms: its bounds meet
    assert iota_hi - iota_lo <= 1e-9
    if n == 2:
        assert ell_hi - ell_lo <= 1e-9


def _two_subspace_families():
    pool = [e.cp for e in acceptance._pool() if e.cp.N == 2]
    return pool + [_load_instance_text(FIXTURES[fx]).cyclic()
                   for fx in ("lines", "rand6", "blocks", "blocks200")]


def test_two_subspace_inner_bounds_meet_to_rounding():
    # one form, so lam = [1] is optimal and its bottom eigenvector attains
    # iota: the gap is rounding.  The upper bound ||x - P x|| / ||x|| rounds
    # by about 3 b eps / iota relative (b the block size: x leaves M_n by
    # b eps, the subtraction costs 2 b eps absolute); the lower bound
    # sqrt(lambda_min(R^H R)), R = (I - P) B, by 2 b eps / iota from R's
    # rounding and b eps / (2 iota^2) from the eigenvalue of a b x b form
    # at ||R^H R|| <= 1.  Measured: at most 3.1e-14 relative (7 eps / iota,
    # pool instance 192), against 5.0e-14 before the one-form path.
    families = _two_subspace_families()
    assert len(families) == 74
    for cp in families:
        lo, hi = minimax_inclination_estimate(cp, kind="inner")
        b, eps = cp._spans[0].shape[1], np.finfo(float).eps
        assert 0.0 <= (hi - lo) / hi <= b * eps * (5 / hi + 1 / (2 * hi**2))


def test_l2_inclinations_keep_their_values_under_a_rotation():
    # Q M_k for an orthogonal Q leaves every angle unchanged.  Each side
    # computes sigma_min within (4 + N) d sqrt(N) eps absolute of the exact
    # value for its own float spans (``_sigma_rounding`` in
    # test_reference.py, one block of size d), and the rotated bases Q X_k
    # are off the exact rotation by about d eps each, which moves the exact
    # sigma_min by up to d sqrt(N) eps (the residual stack's norm is at most
    # sqrt(N)).  Measured over every 4th pool instance: at most 2.5e-15
    # (ell2_direct) and 1.6e-15 (iota2) relative, 3% of the bound, against
    # 3.9e-13 and 2.1e-13 from lambda_min(B^H (N I - sum P_k) B), both at
    # instance 192 (34% of the bound).
    rng = np.random.default_rng(19)
    eps = np.finfo(float).eps
    entries = acceptance._pool()[::4]
    assert len(entries) == 50
    for entry in entries:
        q = np.linalg.qr(rng.standard_normal((entry.d, entry.d)))[0]
        cp = build_cyclic(tuple(Subspace(q @ s.basis) for s in entry.subspaces))
        n = cp.N
        bound = (2 * (4 + n) + 1) * entry.d * np.sqrt(n) * eps
        for value, rotated in ((entry.l2d, ell2_direct(cp)), (entry.i2, iota2(cp))):
            assert abs(rotated - value) <= bound, entry.index


def test_a_one_form_dual_takes_no_newton_step(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return barrier_eigh(*args)

    barrier_eigh = geometry._barrier_eigh
    monkeypatch.setattr(geometry, "_barrier_eigh", counted)
    theta = 0.3
    cp = build_cyclic(two_lines(theta))
    assert minimax_inclination_estimate(cp, kind="inner") == pytest.approx(
        (np.sin(theta),) * 2, rel=1e-15)
    assert not calls
    minimax_inclination_estimate(cp, kind="global")  # two forms: the barrier path
    assert calls
    # lam = [1] and X the projector on the bottom eigenvector over all groups
    forms = [np.array([[[[2.0, 0.0], [0.0, 3.0]]]]), np.array([[[[5.0]], [[1.5]]]])]
    lam, x_mat = geometry._dual_path(forms)
    assert lam.tolist() == [1.0]
    assert np.array_equal(x_mat[0], np.zeros((1, 2, 2)))
    assert np.array_equal(x_mat[1], np.array([[[0.0]], [[1.0]]]))


def test_inner_estimate_of_the_block_model_at_two_thousand_blocks():
    # M_n ∩ M^perp = M_n, one line per block, measured against the other
    # factor alone: the dual is one 1 x 1 form per block
    cp = block_aligned(2000, "1/k").cyclic()
    tracemalloc.start()
    try:
        lo, hi = minimax_inclination_estimate(cp, kind="inner")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    exact = math.sin(1.0 / 2000)
    assert abs(lo - exact) <= 4 * np.spacing(exact) and abs(hi - exact) <= 4 * np.spacing(exact)
    assert peak < 32 * 2**20


def test_sandwich_check_holds_on_empty_feasible_sets():
    # M is the whole plane: every angle quantity is its empty-set answer
    with pytest.warns(UserWarning, match="is \\+inf"):
        rep = geometry_report(build_cyclic([Subspace(np.eye(2))] * 2))
    checks = sandwich_check(rep)
    assert all(ok for _, ok, _ in checks)
    assert not any(np.isnan(slack) for _, _, slack in checks)


@pytest.mark.parametrize("d,dims,seed", [(3, (3, 2), 1), (5, (5, 3), 2), (4, (4, 4, 2), 3)])
def test_families_with_a_whole_space_member(d, dims, seed):
    # the other member is M itself, which has no direction in M^perp: it
    # must not add rounding noise to the feasible sets.  The f whole-space
    # members each have feasible set M^perp, so c = (f - 1)/(N - 1), and
    # each l2 floor is the N - f members equal to M, which P_k moves fully
    rep = geometry_report(build_cyclic(random_instance(d, dims, seed=seed)))
    n, f = len(dims), sum(r == d for r in dims)
    assert rep.c == pytest.approx((f - 1) / (n - 1), abs=1e-12)
    expected = np.sqrt(n - f)
    assert rep.ell2_direct == pytest.approx(expected, abs=1e-12)
    assert rep.iota2 == pytest.approx(expected, abs=1e-12)
    assert all(ok for _, ok, _ in sandwich_check(rep))


def _angle_rules(k_blocks):
    return ["1/k", "1/sqrt(k)", list(np.geomspace(1.2, 1e-3, k_blocks))]


def _quantities(cp):
    return (friedrichs_number(cp), iota2(cp), ell2_direct(cp))


@pytest.mark.parametrize("k_blocks", [2, 12, 200])
@pytest.mark.parametrize("rule", range(3), ids=["1/k", "1/sqrt(k)", "list"])
def test_block_route_matches_the_dense_family(k_blocks, rule):
    model = block_aligned(k_blocks, _angle_rules(k_blocks)[rule])
    cp, dense = model.cyclic(), build_cyclic(model.subspaces)
    c, i2, l2d = _quantities(cp)
    dense_c, dense_i2, dense_l2d = _quantities(dense)
    assert c == pytest.approx(dense_c, abs=1e-14)
    assert i2 == pytest.approx(dense_i2, rel=1e-13)
    assert l2d == pytest.approx(dense_l2d, rel=1e-13)
    theta = model.angles[-1]
    assert c == pytest.approx(np.cos(theta), abs=1e-14)
    if k_blocks <= 12:
        for kind in ("global", "inner"):
            assert minimax_inclination_estimate(cp, kind=kind) == pytest.approx(
                minimax_inclination_estimate(dense, kind=kind), rel=1e-13)
    # the bounds bracket the last block's angle; at K = 200 two or more
    # blocks share the bottom cluster, which leaves a gap of about 1e-8
    for kind, exact in (("global", np.sin(theta / 2)), ("inner", np.sin(theta))):
        lo, hi = minimax_inclination_estimate(cp, kind=kind)
        assert lo <= exact * (1 + 1e-12) and hi >= exact * (1 - 1e-12)
        assert hi - lo <= 1e-7 * hi


def test_block_route_minimax_bounds_at_two_hundred_blocks():
    # the dense route's bounds for the 1/k model at K = 200 (20 s each)
    cp = block_aligned(200, "1/k").cyclic()
    assert minimax_inclination_estimate(cp, kind="global") == pytest.approx(
        (0.0024999973958341475, 0.0024999974208344496), rel=1e-13)
    assert minimax_inclination_estimate(cp, kind="inner") == pytest.approx(
        (0.0049999791666926084, 0.0049999791666927081), rel=1e-13)


@pytest.mark.parametrize("rule", ["1/k", "1/sqrt(k)"])
@pytest.mark.parametrize("k_blocks", [12, 200, 400, 2000])
def test_block_model_friedrichs_number_is_the_last_cosine_to_one_ulp(k_blocks, rule):
    # the line bases are the spans, so the slowest block's Gram matrix is
    # [[1, cos], [cos, 1]]; projector blocks as spans left c up to 7 ulp off
    model = block_aligned(k_blocks, rule)
    expected = math.cos(model.angles[-1])
    assert abs(friedrichs_number(model.cyclic()) - expected) <= np.spacing(expected)


def test_block_model_ell2_of_c_matches_the_direct_route():
    # ell2(c) = sqrt(1 - c) at N = 2 is the ill-conditioned side: 1.8e-11
    # relative apart when the spans were the projector blocks
    cp = block_aligned(200, "1/k").cyclic()
    assert ell2(friedrichs_number(cp), 2) == pytest.approx(ell2_direct(cp), rel=1e-12, abs=0.0)


def _mixed_blocks(k_blocks, seed):
    """Three (K, 2, 2) projector stacks whose blocks cycle through four
    patterns: M = {0} with feasible ranks (1, 1, 2); M a line with every
    M_k equal to it; M a line inside two planes; and a zero factor."""
    rng = np.random.default_rng(seed)
    eye, zero = np.eye(2), np.zeros((2, 2))
    stacks = ([], [], [])
    for k in range(k_blocks):
        u, v = (np.outer(w, w) for w in (np.array([np.cos(a), np.sin(a)])
                                          for a in rng.uniform(0.1, 3.0, 2)))
        pattern = [(np.diag([1.0, 0.0]), u, eye), (v, v, v), (eye, eye, v), (zero, u, eye)]
        for stack, p in zip(stacks, pattern[k % 4]):
            stack.append(p)
    return tuple(np.array(s) for s in stacks)


@pytest.mark.parametrize("k_blocks,seed", [(4, 0), (12, 1), (30, 2)])
def test_block_route_on_blocks_of_mixed_ranks(k_blocks, seed):
    cp = CyclicProduct(spans_of(*_mixed_blocks(k_blocks, seed)))
    assert 0 < cp.m.dim < k_blocks
    dense = build_cyclic([Subspace(orthonormal_columns(p)) for p in cp.factors])
    assert dense.m.dim == cp.m.dim
    assert friedrichs_number(cp) == pytest.approx(friedrichs_number(dense), abs=1e-13)
    assert iota2(cp) == pytest.approx(iota2(dense), rel=1e-12)
    assert ell2_direct(cp) == pytest.approx(ell2_direct(dense), rel=1e-12)
    for kind in ("global", "inner"):
        lo, hi = minimax_inclination_estimate(cp, kind=kind)
        dense_lo, dense_hi = minimax_inclination_estimate(dense, kind=kind)
        assert lo == pytest.approx(dense_lo, rel=1e-9)
        assert lo <= hi and dense_lo <= hi * (1 + 1e-12) and lo <= dense_hi * (1 + 1e-12)
    rep = geometry_report(cp)
    assert all(ok for _, ok, _ in sandwich_check(rep))

