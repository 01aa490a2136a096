"""Cyclic products: error traces, rate bounds, sweep energy, series sums."""

import tracemalloc
import warnings
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from altproj import (
    CapacityError,
    CyclicProduct,
    IterationTrace,
    NumericalContractError,
    Subspace,
    block_aligned,
    build_cyclic,
    ell2_direct,
    frac_power_apply,
    friedrichs_number,
    iota2,
    iota2_rate_bound,
    intersection,
    iterate,
    make_alpha_vector,
    numrange_boundary,
    operator_error_norm,
    orthonormalize,
    partial_sum_characterization,
    random_instance,
    rate_bound,
    resolvent_diagnostic,
    ritt_power_diagnostic,
    slow_vector,
    sweep_diagnostic,
    two_lines,
    unconditional_sum_test,
)
from altproj import fracpow, iteration, linalg, spectral
from altproj.acceptance import (
    _SALT_PERM,
    _SALT_SWEEP,
    _pool,
    _start_vector,
    _sweep_energy_inequality,
)
from altproj.iteration import _block_diagonal
from altproj.linalg import _finite
from blockspans import spans_of


def _pm(cp):
    """The dense matrix of P_M, the tests' reference for ``pm_apply``."""
    return _block_diagonal(cp._pm_blocks)


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
    with pytest.raises(ValueError):
        iota2_rate_bound(np.nan, 2, 3)
    with pytest.raises(ValueError):
        rate_bound(np.nan, 2, 3)


def test_build_cyclic_validation():
    one = two_lines(1.0)[0]
    with pytest.raises(ValueError):
        build_cyclic([one])
    with pytest.raises(ValueError):
        build_cyclic([one, Subspace(np.eye(3))])


def test_cyclic_product_stores_read_only_projection_matrices():
    subs = random_instance(5, (2, 3, 2), seed=8)
    cp = build_cyclic(subs)
    for k, s in enumerate(subs):
        assert np.array_equal(cp.factors[k], s.basis @ s.basis.conj().T)
        with pytest.raises(ValueError):
            cp.factors[k][0, 0] = 1.0
    p1, p2, p3 = cp.factors
    rng = np.random.default_rng(3)
    for x in (rng.standard_normal(5), rng.standard_normal(5) + 1j * rng.standard_normal(5)):
        assert np.array_equal(cp.apply(x), p3 @ (p2 @ (p1 @ x)))


def _dense_sweep(cp, x):
    for p in cp.factors:
        x = p @ x
    return x


@pytest.mark.parametrize("k_blocks", [1, 2, 12, 200])
def test_block_sweep_reproduces_the_dense_sweep_bit_for_bit(k_blocks):
    model = block_aligned(k_blocks, "1/k")
    cp = model.cyclic()
    dense = build_cyclic(model.subspaces)
    assert cp._blocks is not None
    rng = np.random.default_rng(k_blocks)
    d = cp.dim
    for x in (rng.standard_normal(d), rng.standard_normal(d) + 1j * rng.standard_normal(d)):
        fast = slow = x
        for _ in range(1000):
            fast = cp.apply(fast)
            slow = _dense_sweep(dense, slow)
            assert np.array_equal(fast, slow)
    # stacked columns sweep block by block too, with the bits of the dense products
    cols = rng.standard_normal((d, 3))
    assert np.array_equal(cp.apply(cols), _dense_sweep(dense, cols))


def _planted_blocks(k_blocks, generic):
    # two factors of 2x2 projector blocks with intersections planted in the
    # first three blocks: a shared line, the whole block, and a line of M_2
    # inside the whole block of M_1.  The others are the block model's
    # (M_1 on the first axis, M_2 on a line of angle 1/k), or, if generic,
    # random complex lines for both
    rng = np.random.default_rng(k_blocks)
    if generic:
        phi, psi = rng.uniform(0.0, np.pi, (2, 2, k_blocks))
    else:
        phi, psi = np.array([np.zeros(k_blocks), 1.0 / np.arange(1, k_blocks + 1)]), 0.0
    u = np.stack([np.cos(phi), np.exp(1j * psi) * np.sin(phi)], axis=-1)
    p1, p2 = u[..., :, None] * u.conj()[..., None, :]
    p2[0] = p1[0]
    p1[1] = p2[1] = p1[2] = np.eye(2)
    if not generic:
        p2[2] = np.diag([0.0, 1.0])
    return p1, p2


@pytest.mark.parametrize("generic", [False, True])
@pytest.mark.parametrize("k_blocks", [3, 12, 200])
def test_block_product_with_an_intersection_never_reads_dense_members(k_blocks, generic):
    # the reference is the dense members of a twin product, column by column;
    # on the block model every sum has one nonzero term, so the bits agree
    # exactly, and on generic blocks to rounding
    same = (lambda a, b: np.allclose(a, b, rtol=0.0, atol=1e-14)) if generic else np.array_equal
    spans = spans_of(*_planted_blocks(k_blocks, generic))
    cp, twin = CyclicProduct(spans), CyclicProduct(spans)
    assert cp.m.dim == 4
    rng = np.random.default_rng(k_blocks)
    d = cp.dim
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    for cols in (rng.standard_normal((d, 3)), rng.standard_normal((d, 7)) + 1j * x[:, None]):
        assert same(cp.apply(cols), np.column_stack([_dense_sweep(twin, c) for c in cols.T]))
        assert same(cp.pm_apply(cols), np.column_stack([_pm(twin) @ c for c in cols.T]))
    target = _pm(twin) @ x
    assert same(cp.pm_apply(x), target)
    us = [x - target]
    for p in twin.factors:
        us.append(p @ (us[-1] + target) - target)
    steps = [float(np.linalg.norm(a - b) ** 2) for a, b in zip(us, us[1:])]
    assert same(sweep_diagnostic(cp, x), steps)
    assert not {"factors", "matrix", "pm"} & set(vars(cp))


def _off_block_model():
    # the block model with ambient coordinates 1 and 2 of M2 swapped, so
    # that P_2 couples the first two blocks
    model = block_aligned(12, "1/k")
    b2 = model.m2.basis.copy()
    b2[[1, 2]] = b2[[2, 1]]
    return build_cyclic([model.m1, Subspace(b2)])


def test_dense_build_holds_one_block_per_factor():
    # build_cyclic stores each factor as one (1, d, d) block, also for a 2x2
    # block-diagonal family such as the block model's subspaces, hands that
    # block out as the factor itself, and sweeps with the products p @ x
    dense = [build_cyclic(two_lines(1.0)),
             build_cyclic(random_instance(64, (20, 30, 40), seed=64)),
             build_cyclic(block_aligned(12, "1/k").subspaces),
             _off_block_model()]
    dense += [e.cp for e in _pool()]
    rng = np.random.default_rng(5)
    for cp in dense:
        d = cp.dim
        assert [b.shape for b in cp._blocks] == [(1, d, d)] * cp.N
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        y = x
        for b in cp._blocks:
            y = b[0] @ y
        assert np.array_equal(cp.apply(x), y)
        assert "factors" not in vars(cp)  # the sweep reads the blocks
        assert all(np.shares_memory(p, b) for p, b in zip(cp.factors, cp._blocks))


def test_sweep_diagnostic_of_the_block_model_matches_the_dense_build():
    model = block_aligned(200, "1/k")
    cp = model.cyclic()
    x = np.random.default_rng(9).standard_normal(cp.dim)
    steps = sweep_diagnostic(cp, x)
    assert np.array_equal(steps, sweep_diagnostic(build_cyclic(model.subspaces), x))
    assert not {"factors", "matrix", "pm"} & set(vars(cp))


@st.composite
def _families(draw):
    # N = 2-4 random subspaces of C^d (d <= 10), real or complex, each
    # holding a planted common subspace of dimension p
    n, d = draw(st.integers(2, 4)), draw(st.integers(2, 10))
    p = draw(st.integers(0, d - 2))
    dims = draw(st.lists(st.integers(p + 1, d - 1), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    draw_complex = draw(st.booleans())

    def gauss(cols):
        g = rng.standard_normal((d, cols))
        return g + 1j * rng.standard_normal((d, cols)) if draw_complex else g

    planted = gauss(p)
    return [orthonormalize(np.hstack([planted, gauss(r - p)])) for r in dims], planted


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_families())
def test_dense_build_on_random_families(family):
    subs, planted = family
    cp = build_cyclic(subs)
    d = cp.dim
    ps = [s.basis @ s.basis.conj().T for s in subs]
    x = np.random.default_rng(d).standard_normal(d) + 0j
    y, t = x, np.eye(d, dtype=np.complex128)
    for p in ps:
        y, t = p @ y, p @ t
    assert np.array_equal(_bits(cp.apply(x)), _bits(y))
    assert np.array_equal(_bits(cp.matrix), _bits(t))
    m = intersection(subs)
    assert np.array_equal(_bits(cp.m.basis), _bits(m.basis))
    # P_M fixes every planted vector to 1e-10, relative to max(1, ||v||)
    drift = np.linalg.norm(m.project(planted) - planted, axis=0)
    assert (drift <= 1e-10 * np.maximum(1.0, np.linalg.norm(planted, axis=0))).all()


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)  # tells signed zeros apart


@pytest.mark.parametrize("rule", ["1/k", "1/sqrt(k)", "custom"])
@pytest.mark.parametrize("k_blocks", [1, 2, 12, 200, 400])
def test_block_built_product_matches_the_dense_build_bit_for_bit(k_blocks, rule):
    angles = np.geomspace(1.5, 1e-3, k_blocks) if rule == "custom" else rule
    model = block_aligned(k_blocks, angles)
    cp = model.cyclic()
    dense = build_cyclic(model.subspaces)
    assert (cp.N, cp.dim, cp.m.dim) == (dense.N, dense.dim, dense.m.dim) == (2, 2 * k_blocks, 0)
    assert len(cp.factors) == 2
    for a, b in zip(cp.factors, dense.factors):
        assert np.array_equal(_bits(a), _bits(b))
    for a, b in [(cp.matrix, dense.matrix), (_pm(cp), _pm(dense))]:
        assert np.array_equal(_bits(a), _bits(b))
    # one eig call per 2x2 block gives the spectrum of one eig call on T
    assert cp._eigenbasis[1].shape == (k_blocks, 2, 2)
    assert dense._eigenbasis[1].shape == (1, 2 * k_blocks, 2 * k_blocks)
    spectra = [np.sort(e._eigenbasis[0].reshape(-1)) for e in (cp, dense)]
    assert np.array_equal(_bits(spectra[0]), _bits(spectra[1]))


@pytest.mark.parametrize("rule", ["1/k", "1/sqrt(k)", "custom"])
@pytest.mark.parametrize("k_blocks", [2, 12, 200])
def test_operator_error_norm_on_the_block_stack_matches_the_dense_build(k_blocks, rule):
    angles = np.geomspace(1.5, 1e-3, k_blocks) if rule == "custom" else rule
    model = block_aligned(k_blocks, angles)
    cp = model.cyclic()
    norms = [operator_error_norm(cp, n) for n in (0, 1, 5)]
    assert not {"matrix", "pm"} & set(vars(cp))
    dense = build_cyclic(model.subspaces)
    assert norms == [operator_error_norm(dense, n) for n in (0, 1, 5)]


def test_sweeps_refuse_a_vector_of_the_wrong_length():
    model = block_aligned(12, "1/k")
    for cp in (model.cyclic(), build_cyclic(model.subspaces)):
        for x in (np.ones(12), np.ones(25)):
            with pytest.raises(ValueError):
                cp.apply(x)
            with pytest.raises(ValueError):
                list(cp._iterates(x))


@pytest.mark.parametrize("last", [1e-4, 1e-5, 1e-6])
def test_block_built_product_refuses_what_the_dense_build_refuses(last):
    # an angle below about 2e-5 passes the eigenvalue cut of the intersection
    model = block_aligned(3, [0.9, 0.3, last])
    if last > 2e-5:
        assert model.cyclic().m.dim == build_cyclic(model.subspaces).m.dim == 0
        return
    for build in (model.cyclic, lambda: build_cyclic(model.subspaces)):
        with pytest.raises(NumericalContractError, match="does not commute"):
            build()


def test_block_built_product_forms_dense_members_on_first_use(monkeypatch):
    monkeypatch.setattr(spectral, "_ANGLES_PER_RADIUS", 8)  # for speed
    cp = block_aligned(12, "1/k").cyclic()
    x = np.arange(24.0)
    assert (cp.N, cp.dim) == (2, 24)
    assert np.array_equal(cp.pm_apply(x), np.zeros(24, dtype=complex))
    assert cp.pm_apply(x).dtype == np.complex128
    assert iterate(cp, x, 5).errors[0] == np.linalg.norm(x)
    # every kernel reads the block stacks, never a dense member
    kernels = [
        lambda: sweep_diagnostic(cp, x),
        lambda: operator_error_norm(cp, 3),
        lambda: numrange_boundary(cp, 16),
        lambda: ritt_power_diagnostic(cp, 10),
        lambda: resolvent_diagnostic(cp),
        lambda: frac_power_apply(cp, 0.5, x, 1e-8),
        lambda: fracpow._eig_apply(cp, 0.5, x),
        lambda: make_alpha_vector(cp, 0.5, seed=1),
        lambda: partial_sum_characterization(cp, x, 0.5, 100),
    ]
    for kernel in kernels:
        kernel()
        assert not {"factors", "matrix", "pm", "m"} & set(vars(cp))
    for name in ("factors", "matrix"):
        assert getattr(cp, name) is getattr(cp, name)  # kept once built
    for a in cp.factors + (cp.matrix,):
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
    with pytest.raises(AttributeError):
        cp.m = None


@pytest.mark.parametrize("d, dims, seed", [(6, (4, 5), 3), (7, (5, 5, 6), 8), (5, (2, 3), 1)])
def test_intersection_of_a_dense_build_is_built_on_first_read(d, dims, seed):
    subs = random_instance(d, dims, seed)
    cp = build_cyclic(subs)
    assert "m" not in vars(cp)
    m = intersection(subs)
    assert cp.m is cp.m and cp.m.dim == m.dim == max(0, sum(dims) - (len(dims) - 1) * d)
    assert np.array_equal(_bits(cp.m.basis), _bits(m.basis))


def test_block_intersection_at_four_thousand_blocks_stays_in_block_stacks():
    # (line, whole block) pairs: M is the line of every block, so the parent's
    # dense (n b, r) basis would be an 8000 x 4000 complex array (512 MB)
    k_blocks = 4000
    u = np.eye(2)[np.arange(k_blocks) % 2]  # e1, e2, e1, ...: exact answers
    whole = np.broadcast_to(np.eye(2), (k_blocks, 2, 2))
    x = np.random.default_rng(4).standard_normal(2 * k_blocks)
    tracemalloc.start()
    try:
        cp = CyclicProduct((u[:, :, None], whole))
        px = cp.pm_apply(x)
        values = (cp.dim, friedrichs_number(cp), iota2(cp), ell2_direct(cp))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert values == (2 * k_blocks, 0.0, 1.0, 1.0)
    coef = np.einsum("ki,ki->k", u, x.reshape(k_blocks, 2))
    assert np.array_equal(px, (coef[:, None] * u).reshape(-1))
    assert "m" not in vars(cp)
    arrays = [a for v in vars(cp).values() for a in (v if isinstance(v, tuple) else (v,))]
    assert all(a.shape[0] == k_blocks and a.ndim == 3 for a in arrays)


def test_constructor_validation():
    e1 = np.array([[[1.0], [0.0]]])
    for spans in [(e1,),  # one factor
                  (e1, np.eye(2)),  # not a stack
                  (e1, np.concatenate([e1, e1])),  # another block count
                  (e1, np.ones((1, 3, 1))),  # another block size
                  (e1[:0], e1[:0]),  # no blocks
                  (e1, 2.0 * e1),  # X X^H is not a projection
                  (e1, (1.0 + 1e-6) * e1)]:  # nor one to 1e-12: 2e-6 off
        with pytest.raises(ValueError):
            CyclicProduct(spans)
    cp = CyclicProduct((e1, e1))
    assert cp.m.dim == 1
    assert np.array_equal(cp.pm_apply(np.array([2.0, 3.0])), np.array([2.0, 0.0]))
    # zero columns stand for a lower rank: the block model's line basis
    # padded by a zero column builds the same product, bit for bit
    model = block_aligned(12, "1/k").cyclic()
    padded = CyclicProduct([np.concatenate([x, np.zeros_like(x)], axis=-1) for x in model._spans])
    assert all(np.array_equal(p, q) for p, q in zip(padded._blocks, model._blocks))
    assert friedrichs_number(padded) == friedrichs_number(model)


def test_the_constructor_copies_the_callers_spans():
    # the product keeps read-only copies: the caller's arrays stay
    # writeable, and writing to them later does not change the product
    x = np.array([[[1.0], [0.0]]], dtype=np.complex128)
    y = np.array([[[0.6], [0.8]]], dtype=np.complex128)
    cp = CyclicProduct((x, y))
    v = np.array([1.0, 2.0])
    before = cp.apply(v)
    assert x.flags.writeable and y.flags.writeable
    x[0] = [[0.0], [1.0]]
    y[0] = [[1.0], [0.0]]
    assert np.array_equal(cp.apply(v), before)
    assert np.array_equal(cp._spans[0], [[[1.0], [0.0]]])
    # a read-only view of a writeable array is copied too; a frozen basis,
    # which no caller can write, is shared
    view = y.view()
    view.setflags(write=False)
    cp = CyclicProduct((x, view))
    y[0] = [[0.6], [0.8]]
    assert np.array_equal(cp._spans[1], [[[1.0], [0.0]]])
    family = two_lines(0.3)
    cp = build_cyclic(family)
    assert all(np.shares_memory(x, s.basis) for x, s in zip(cp._spans, family))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_the_constructor_refuses_non_finite_spans(bad):
    # a NaN span once built a product (X X^H - P_k was NaN, which failed no
    # tolerance check)
    cp = build_cyclic(two_lines(0.3))
    for k in range(2):
        spans = [np.array(x) for x in cp._spans]
        spans[k][0, 0, 0] = bad
        with pytest.raises(ValueError, match="span must be finite"):
            CyclicProduct(spans)


def test_a_huge_finite_span_is_refused_without_an_overflow_warning():
    # X X^H overflows to infinite and NaN entries, which are refused;
    # forming them must not warn first (a RuntimeWarning is an error here)
    cp = build_cyclic(two_lines(0.3))
    one = np.ones((1, 1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spans in ([np.array([[[1e200, 1e200], [1e200, -1e200]]]), cp._spans[1]],
                      [1e200 * one, one], [one, 1e200 * one]):
            with pytest.raises(ValueError, match="X X\\^H is not finite"):
                CyclicProduct(spans)


def test_block_model_at_two_thousand_blocks_stays_small():
    # one dense d x d complex array would take 256 MB at d = 4000
    tracemalloc.start()
    try:
        model = block_aligned(2000, "1/k")
        cp = model.cyclic()
        r = 1.0 / np.log(np.arange(1001.0) + 2.0)
        x = slow_vector(model, r, 1000, 0.1)
        trace = iterate(cp, x, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert np.all(trace.errors >= r - 1e-12)
    assert not {"factors", "matrix", "pm", "m1", "m2"} & (set(vars(cp)) | set(vars(model)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_start_vectors_are_refused(bad):
    for cp in (build_cyclic(two_lines(1.0)), block_aligned(1, "1/k").cyclic()):
        x = np.array([1.0, bad])
        with pytest.raises(ValueError, match="finite"):
            iterate(cp, x, 3)
        with pytest.raises(ValueError, match="finite"):
            sweep_diagnostic(cp, x)
        with pytest.raises(ValueError, match="finite"):
            unconditional_sum_test(cp, x, 3, 1e-6, seed=1)


def test_iterate_trace_and_attached_bounds():
    subs = random_instance(6, (2, 3), seed=21)
    cp = build_cyclic(subs)
    c = friedrichs_number(cp)
    i2 = iota2(cp)
    x = np.random.default_rng(0).standard_normal(6)
    trace = iterate(cp, x, 50, c=c, iota2=i2)
    assert len(trace.errors) == 51
    e0 = np.linalg.norm(x - _pm(cp) @ x)
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
    with pytest.raises(NumericalContractError, match=r"beyond 1e-12 of \|\|x\|\|"):
        IterationTrace(errors=np.array([1.0, 0.5, 0.7]))
    # the increase 1e-17 is below an absolute 1e-12, but 1e-9 of e_0, the
    # start vector's norm that a trace of errors alone assumes
    with pytest.raises(NumericalContractError, match=r"beyond 1e-12 of \|\|x\|\|"):
        IterationTrace(errors=np.array([1e-8, 0.5e-8, 0.5e-8 + 1e-17]))
    with pytest.raises(NumericalContractError):
        IterationTrace(errors=np.array([-1.0, -2.0]))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 199), st.floats(np.log(1e-8), np.log(1e8)))
@example(23, np.log(1e8))  # its rounding increase is 5.7e-15 of e_0 at every scale
def test_traces_are_accepted_at_every_scale(index, log_scale):
    # a sweep rounds relative to the vector, so the monotonicity cut is
    # relative to ||x||: an absolute 1e-12 refused 26 of the 200 pool start
    # vectors at scale 1e6
    entry = _pool()[index]
    iterate(entry.cp, np.exp(log_scale) * _start_vector(entry), 200)


@pytest.mark.parametrize("s", [1e-3, 1e-6, 0.0])
def test_traces_near_m_are_accepted(s):
    # a sweep rounds relative to the whole vector, its part in M included,
    # so the cut scales with ||x||, not e_0: with the cut at e_0, P_M x +
    # s (x - P_M x) was refused on 8 of these 34 instances at s = 1e-3, on
    # 31 at 1e-6, and a start vector in M (s = 0) at its first increase
    entries = [e for e in _pool() if e.cp.m.dim > 0]
    assert len(entries) == 34
    for entry in entries:
        x = _start_vector(entry)
        pm_x = entry.cp.pm_apply(x)
        iterate(entry.cp, pm_x + s * (x - pm_x), 200)


def test_iterate_refuses_anything_but_one_vector_of_the_space():
    cp = build_cyclic(two_lines(0.5))
    # a (d, k) stack used to return a trace of Frobenius norms
    with pytest.raises(ValueError, match=r"shape \(2,\), not \(2, 3\)"):
        iterate(cp, np.ones((2, 3)), 5)
    # a wrong length used to fail inside NumPy's matmul
    with pytest.raises(ValueError, match=r"shape \(2,\), not \(3,\)"):
        iterate(cp, np.ones(3), 5)
    with pytest.raises(ValueError, match=r"shape \(24,\), not \(12,\)"):
        iterate(block_aligned(12, "1/k").cyclic(), np.ones(12), 5)


_EPS = np.finfo(float).eps


def _swept_errors(cp, x, n_max):
    """e_0..e_{n_max} by n_max literal per-factor sweeps (``apply``), one norm
    each: the reference for ``iterate``'s chunked orbit."""
    x = _finite(x)
    target = cp.pm_apply(x)
    errors = [np.linalg.norm(x - target)]
    for _ in range(n_max):
        x = cp.apply(x)
        errors.append(np.linalg.norm(x - target))
    return np.array(errors)


def _assert_orbit_matches_the_sweeps(cp, x, n_max):
    """|iterate's e_n - the swept e_n| <= n (N + 2) sqrt(d) eps ||x||.

    T's blocks and every power of them are contractions, so an error made at
    one step is not amplified later, and the two orbits drift apart at most
    by the sum of the errors of their steps.  Each step of either route is a
    product of a contraction with a d-vector, which rounds by about
    sqrt(d) eps of that vector's norm (<= ||x||; probabilistic rounding
    analysis, the worst case being d eps): N of them per sweep on the
    reference side; on the power side, about one per iterate to form T^i by
    doubling (the error of T^i grows like i products, amortized over the i
    iterates it serves) and one to apply it to the chunk's start.
    """
    got = iterate(cp, x, n_max).errors
    ref = _swept_errors(cp, x, n_max)
    assert len(got) == n_max + 1
    assert got[0] == ref[0]
    n = np.arange(n_max + 1)
    assert np.all(np.abs(got - ref) <= n * (cp.N + 2) * np.sqrt(cp.dim) * _EPS
                  * np.linalg.norm(x))


def test_orbit_matches_the_sweeps_on_the_whole_pool():
    # the largest drift is 0.96 n eps ||x||, at most a tenth of its bound
    for e in _pool():
        _assert_orbit_matches_the_sweeps(e.cp, _start_vector(e), 1000)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.floats(np.log(2e-5), np.log(np.pi / 2)), st.floats(0.0, np.pi / 2),
       st.floats(0.0, 2 * np.pi), st.floats(0.0, 2 * np.pi))
@example(np.log(2e-5), 0.0, 0.0, 0.0)
@example(np.log(np.pi / 2), 1.0, 2.0, 3.0)
def test_orbit_matches_the_sweeps_on_two_lines(log_theta, a, b, c):
    # every complex unit vector of C^2: (cos a, e^{ib} sin a) times a phase
    x = np.exp(1j * c) * np.array([np.cos(a), np.exp(1j * b) * np.sin(a)])
    _assert_orbit_matches_the_sweeps(build_cyclic(two_lines(np.exp(log_theta))), x, 2000)


@pytest.mark.parametrize("k_blocks", [12, 200, 2000])
def test_orbit_matches_the_sweeps_on_the_block_model(k_blocks):
    # Per block: T_k = cos t_k u_k e_1^T maps every vector onto u_k, and
    # T_k u_k = cos^2 t_k u_k.  So after the first step block k of the
    # orbit shrinks by cos^2 t_k per sweep, while an error made in it at
    # step j grows to at most ||T_k^{n-j}|| = cos^{2(n-j)-1} t_k of itself:
    # each block's drift stays relative to that block's own iterate, within
    # n (N + 2) sqrt(b) eps / cos t_1 of it (the step count of the bound
    # above, on 2x2 blocks, t_1 = 1 the widest angle).  With M = {0} the
    # blocks' iterates make up e_n, so e_n moves by that share of itself.
    # The largest drift is 2.1 n eps e_n at K = 2000 (16 iterates a chunk,
    # 3000 not a multiple of 16), a fifth of the bound.
    model = block_aligned(k_blocks, "1/k")
    cp = model.cyclic()
    x = np.random.default_rng(k_blocks).standard_normal(cp.dim)
    got = iterate(cp, x, 3000).errors
    ref = _swept_errors(cp, x, 3000)
    n = np.arange(3001)
    assert got[0] == ref[0]
    assert np.all(np.abs(got - ref) <= n * (cp.N + 2) * np.sqrt(2) * _EPS / np.cos(1.0) * ref)


def _generic_block_stacks():
    # complex 2x2 blocks with a planted M (dim 4), and three factors of
    # random complex planes in 3x3 blocks: every column of T's blocks is live
    rng = np.random.default_rng(3)
    draws = rng.standard_normal((3, 2, 50, 3, 2))
    planes = [np.linalg.qr(re + 1j * im)[0] for re, im in draws]
    return [CyclicProduct(spans_of(*_planted_blocks(12, True))), CyclicProduct(planes)]


def test_orbit_matches_the_sweeps_on_generic_block_stacks():
    rng = np.random.default_rng(4)
    for cp in _generic_block_stacks():
        x = rng.standard_normal(cp.dim) + 1j * rng.standard_normal(cp.dim)
        _assert_orbit_matches_the_sweeps(cp, x, 1000)


@pytest.mark.parametrize("n_max", [1, 5, 45])
def test_orbit_at_the_chunk_edges(n_max):
    # one sweep; fewer sweeps than a chunk of 32; a last chunk cut short
    pool = _pool()
    cases = [(build_cyclic(two_lines(0.5)), np.array([1.0, 0.0])),
             (pool[0].cp, _start_vector(pool[0])),
             (pool[178].cp, _start_vector(pool[178])),
             (block_aligned(12, "1/k").cyclic(), np.ones(24))]
    cases += [(cp, np.ones(cp.dim)) for cp in _generic_block_stacks()]
    for cp, x in cases:
        _assert_orbit_matches_the_sweeps(cp, x, n_max)


def test_orbit_of_one_power_per_chunk():
    # 20,000 blocks of 2x2: one power of T already fills the 2 MiB stack
    assert linalg._blocks_chunk(20000, 2) == 1
    cp = block_aligned(20000, "1/k").cyclic()
    _assert_orbit_matches_the_sweeps(cp, np.random.default_rng(0).standard_normal(cp.dim), 4)


@pytest.mark.parametrize("k", [-600, -40, 20, 40, 600])
def test_iterate_scales_with_its_start_vector_bit_for_bit(k):
    # scaling by 2^k is exact in binary floating point away from underflow
    # and overflow, and the trace's cut scales with ||x||, so the trace is
    # accepted at every scale (iterate raises otherwise).  The norms scale
    # their rows by a power of two where NumPy's squares would leave the
    # normal range, so only the iterates themselves can lose bits, once
    # their entries fall below 2^-1022.  Each e_n is compared where it is at
    # least 2^-980 at both scales: a subnormal rounding errs by at most
    # 2^-1075, so over at most 1000 steps of 400 entries the iterates drift
    # by under 2^-1055, below 2^-75 of e_n and far below half an ulp.  The
    # mismatches seen sit at e_n < 2^-1017.  At 2^-600 and 2^600 every
    # square of the start vector leaves the normal range.
    model = block_aligned(200, "1/k")
    cases = [(e.cp, _start_vector(e), 200) for e in _pool()]
    cases.append((model.cyclic(), np.random.default_rng(1).standard_normal(400), 1000))
    compared = 0
    for cp, x, n_max in cases:
        ref, got = iterate(cp, x, n_max).errors, iterate(cp, 2.0**k * x, n_max).errors
        live = np.minimum(ref, 2.0**k * ref) >= 2.0**-980
        assert np.array_equal(got[live], 2.0**k * ref[live])
        compared += np.count_nonzero(live)
    assert compared > 0.75 * (200 * 201 + 1001)


@lru_cache(maxsize=None)
def _block_product(k_blocks):
    return block_aligned(k_blocks, "1/k").cyclic()


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([150, 200, 400]), st.integers(-600, 600), st.integers(1, 1000),
       st.integers(0, 2**32 - 1))
@example(400, -600, 1000, 0)
@example(150, 600, 1000, 1)
@example(200, 0, 33, 2)  # one chunk of 32 iterates and one of 1
def test_real_orbit_has_the_bits_of_the_complex_one(k_blocks, k, n_max, seed):
    # the block model is real, so a real start runs its orbit in float64;
    # the start 1j x has a nonzero imaginary part and runs in complex128,
    # with iterates 1j times the real ones and the same norms
    cp = _block_product(k_blocks)
    assert cp._real
    x = 2.0**k * np.random.default_rng(seed).standard_normal(cp.dim)
    assert np.array_equal(iterate(cp, 1j * x, n_max).errors, iterate(cp, x, n_max).errors)


def test_real_orbit_at_four_hundred_blocks_stays_under_the_complex_peak():
    # iterate(cp, x, 1000) at K = 400 peaked at 2,494,240 bytes with T's 32
    # powers and each chunk's iterates in complex128; in float64 it measured
    # 1,265,664
    cp = _block_product(400)
    x = np.random.default_rng(2).standard_normal(cp.dim)
    tracemalloc.start()
    try:
        iterate(cp, x, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * 2_494_240


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


def test_stacked_sweep_diagnostic_matches_per_column_calls():
    # stacked columns go through one matmul or einsum per factor and one
    # norm per step, so they agree with the per-column calls to rounding,
    # on the pool, the block model and a dense d = 64 product
    rng = np.random.default_rng(57)
    products = [e.cp for e in _pool()] + [block_aligned(200, "1/k").cyclic(),
                                          build_cyclic(random_instance(64, (20, 30, 40), 64))]
    for cp in products:
        xs = rng.standard_normal((cp.dim, 7)) + 1j * rng.standard_normal((cp.dim, 7))
        steps = sweep_diagnostic(cp, xs)
        assert steps.shape == (cp.N, xs.shape[1])
        ref = np.column_stack([sweep_diagnostic(cp, x) for x in xs.T])
        scale = np.linalg.norm(xs, axis=0) ** 2
        assert (np.abs(steps - ref).max(axis=0) <= 1e-14 * scale).all()


def test_apply_is_the_last_step_of_the_sweep():
    # one d x d block and a stack of 2x2 blocks, each for a vector and for
    # a (d, k) stack of columns
    rng = np.random.default_rng(36)
    for cp in (build_cyclic(random_instance(6, (3, 4, 2), 5)), block_aligned(12, "1/k").cyclic()):
        d = cp.dim
        for x in (rng.standard_normal(d) + 1j * rng.standard_normal(d),
                  rng.standard_normal((d, 3))):
            *_, last = cp._iterates(x)
            assert np.array_equal(cp.apply(x), last)


def test_sweep_diagnostic_holds_its_verdicts_at_every_scale(monkeypatch):
    # the check runs on each column scaled by a power of two, so scaling x
    # by 2^k changes neither verdict, and the steps scale by exactly 4^k
    # where that is representable (beyond the range they read 0 or inf)
    cp = build_cyclic(random_instance(6, (3, 4, 2), 5))
    rng = np.random.default_rng(6)
    xs = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    steps = sweep_diagnostic(cp, xs)
    with np.errstate(over="ignore"):
        for k in range(-600, 601):
            scaled = sweep_diagnostic(cp, np.ldexp(xs.real, k) + 1j * np.ldexp(xs.imag, k))
            expected = np.ldexp(steps, 2 * k)
            exact = np.ldexp(expected, -2 * k) == steps
            assert np.array_equal(scaled[exact], expected[exact])
    # a first step three times as long has 9 times the square, beyond the
    # budget when the step carries more than a ninth of it
    sweep = CyclicProduct._iterates

    def tripled(self, x):
        steps = sweep(self, x)
        yield x + 3.0 * (next(steps) - x)
        yield from steps

    monkeypatch.setattr(CyclicProduct, "_iterates", tripled)
    for k in range(-600, 601):
        with pytest.raises(NumericalContractError, match="exceeds the energy budget"):
            sweep_diagnostic(cp, np.ldexp(xs.real, k) + 1j * np.ldexp(xs.imag, k))


class _Doubling:
    """A fake product on C^2 whose one factor doubles a column with |x_0| > 1
    and fixes the others: such a column breaks its energy budget."""

    def pm_apply(self, x):
        return np.zeros(np.shape(x), dtype=np.complex128)

    def _iterates(self, x):
        yield x * np.where(np.abs(x[:1]) > 1.0, 2.0, 1.0)


def test_stacked_sweep_diagnostic_raises_when_one_column_breaks_its_budget():
    xs = np.array([[0.5, 0.2, 0.9], [1.0, 3.0, -2.0]])
    assert np.array_equal(sweep_diagnostic(_Doubling(), xs), np.zeros((1, 3)))
    xs[0, 1] = 1.5  # budget 1.5^2 + 3^2 - 4 (1.5^2 + 3^2) < 0
    with pytest.raises(NumericalContractError, match="exceeds the energy budget"):
        sweep_diagnostic(_Doubling(), xs)
    assert np.array_equal(sweep_diagnostic(_Doubling(), xs[:, [0, 2]]), np.zeros((1, 2)))


def test_sweep_criterion_counts_the_violating_columns():
    # a stack that raises is checked column by column; the expected count
    # comes from the 50 vectors drawn one at a time, real part then
    # imaginary part, which the stacked draw must reproduce
    pool = [SimpleNamespace(seed=seed, d=2, cp=_Doubling()) for seed in (3, 4, 5)]
    expected = 0
    for e in pool:
        rng = np.random.default_rng(e.seed ^ _SALT_SWEEP)
        for _ in range(50):
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            expected += bool(abs(x[0]) > 1.0)
    assert 0 < expected < 150
    ok, detail = _sweep_energy_inequality(pool)
    assert not ok
    assert detail == f"150 (instance, x) pairs, {expected} violations at 1e-10 ||x||^2"


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


@pytest.mark.parametrize("num_perms, trunc_tol", [(0, 1e-6), (5, 0.0), (5, np.nan)])
def test_unconditional_sum_input_validation(num_perms, trunc_tol):
    cp = build_cyclic(two_lines(np.pi / 3))
    with pytest.raises(ValueError):
        unconditional_sum_test(cp, np.array([1.0, 0.0]), num_perms, trunc_tol, seed=1)


def _reiterated_terms(cp, x, trunc_tol):
    """The series' terms T^n (I - T) x by per-factor sweeps, up to the first K
    with 10 ||T^K x - P_M x|| <= trunc_tol, the stopping rule of the series."""
    target, cur, terms = _pm(cp) @ x, x, []
    while True:
        nxt = cp.apply(cur)
        terms.append(cur - nxt)
        cur = nxt
        if 10.0 * np.linalg.norm(cur - target) <= trunc_tol:
            return np.array(terms)


def _assert_series_matches_the_reiteration(cp, x, trunc_tol):
    """``_series_terms`` stops at the reiteration's K, and every term agrees with
    the reiterated one to 1e-14 relative to the largest term; returns K."""
    ys, _, _ = iteration._series_terms(cp, x, cp.pm_apply(x), trunc_tol)
    ref = _reiterated_terms(cp, x, trunc_tol)
    assert len(ys) == len(ref)
    scale = np.linalg.norm(ref, axis=1).max()
    assert np.abs(ys - ref).max() <= 1e-14 * scale
    return len(ys)


@pytest.mark.parametrize("d, dims, seed", [(6, (2, 3), 0), (7, (3, 2, 4), 10),
                                           (7, (3, 2, 4), 32)])
def test_unconditional_sum_matches_an_explicit_reiteration(d, dims, seed):
    cp = build_cyclic(random_instance(d, dims, seed=seed + 21))
    x = np.random.default_rng(seed).standard_normal(d).astype(np.complex128)
    rep = unconditional_sum_test(cp, x, 5, 1e-6, seed=seed)
    assert rep.K == len(_reiterated_terms(cp, x, 1e-6))
    assert _assert_series_matches_the_reiteration(cp, x, 1e-6) == rep.K


def test_series_matches_the_reiteration_on_the_whole_pool():
    # the chunked powers of T stop where the per-factor sweeps stop, on every
    # instance of the acceptance pool, up to its longest series (K = 92904)
    for e in _pool():
        _assert_series_matches_the_reiteration(e.cp, _finite(_start_vector(e)), 1e-6)


def _line_and_whole_block(k_blocks):
    u = np.eye(2)[np.arange(k_blocks) % 2]
    return u[:, :, None] * u[:, None, :], np.broadcast_to(np.eye(2), (k_blocks, 2, 2))


# the block model (M = {0}), (line, whole block) pairs (T = P_M, so the
# first term is exact) and planted intersections in generic blocks (dim M = 4)
@pytest.mark.parametrize("spans, k", [
    (block_aligned(12, "1/k").cyclic()._spans, 2261),
    (spans_of(*_line_and_whole_block(12)), 1),
    (spans_of(*_planted_blocks(12, True)), 235),
], ids=["block_model", "line_whole", "planted"])
def test_series_of_block_products_matches_the_reiteration(spans, k):
    cp = CyclicProduct(spans)
    x = np.random.default_rng(0).standard_normal(cp.dim)
    assert unconditional_sum_test(cp, x, 5, 1e-6, seed=1).K == k
    assert _assert_series_matches_the_reiteration(cp, _finite(x), 1e-6) == k


def test_series_cap_cuts_the_last_chunk(monkeypatch):
    # two lines at pi/3 need K = 13 terms; neither cap is a multiple of a chunk
    cp, x = build_cyclic(two_lines(np.pi / 3)), np.array([1.0, 0.0])
    monkeypatch.setattr(iteration, "_SERIES_CAP", 13)
    assert unconditional_sum_test(cp, x, 3, 1e-6, seed=1).K == 13
    monkeypatch.setattr(iteration, "_SERIES_CAP", 12)
    with pytest.raises(CapacityError):
        unconditional_sum_test(cp, x, 3, 1e-6, seed=1)


def test_unconditional_sum_stops_at_a_zero_term():
    cp = build_cyclic(two_lines(np.pi / 2))  # T = P2 P1 = 0
    rep = unconditional_sum_test(cp, np.array([1.0, 0.0]), 3, 1e-6, seed=1)
    # y_1 = x - T x = x leaves T x = 0 = P_M x: the first term is exact
    assert rep.K == 1
    assert rep.tail_estimate == 0.0
    assert rep.telescoping_residual == 0.0
    assert rep.limit_deviation <= 1e-15


def _per_permutation_reference(cp, x, num_perms, trunc_tol, seed):
    """``unconditional_sum_test`` as it re-summed one permutation and one
    sign pattern at a time, through a (min(K, 2048) + 1, d) complex buffer
    whose first row carries the running sum, with all its report fields;
    the terms are taken as complex128 even where the series stores them in
    float64."""
    x = _finite(x)
    target = cp.pm_apply(x)
    stack, tail, t_k_x = iteration._series_terms(cp, x, target, trunc_tol)
    stack = stack.astype(np.complex128)
    k = len(stack)
    total = stack.sum(axis=0)
    buf = np.empty((min(k, 2048) + 1,) + x.shape, dtype=np.complex128)

    def chunked_sum(fill):
        buf[0] = 0.0
        size = len(buf) - 1
        for a in range(0, k, size):
            m = min(size, k - a)
            fill(a, m, buf[1:m + 1])
            buf[0] = buf[:m + 1].sum(axis=0)
        return buf[0]

    rng = np.random.default_rng(seed)
    perm_devs = np.empty(num_perms)
    for j in range(num_perms):
        perm = rng.permutation(k)
        s = chunked_sum(lambda a, m, out: np.take(stack, perm[a:a + m], axis=0, out=out))
        perm_devs[j] = np.linalg.norm(s - (x - target))
    sign_sums = np.empty(10)
    for j in range(10):
        signs = rng.integers(0, 2, size=k) * 2 - 1
        sign_sums[j] = np.linalg.norm(chunked_sum(
            lambda a, m, out: np.multiply(signs[a:a + m, None], stack[a:a + m], out=out)))
    return dict(K=k, tail_estimate=tail,
                telescoping_residual=float(np.linalg.norm(total - (x - t_k_x))),
                limit_deviation=float(np.linalg.norm(total - (x - target))),
                perm_deviations=perm_devs, sign_sums=sign_sums,
                constant_estimate=float(sign_sums.max() / np.linalg.norm(x)),
                trunc_tol=trunc_tol)


def _stored_dtype(cp, x):
    x = _finite(x)
    return iteration._series_terms(cp, x, cp.pm_apply(x), 1e-6)[0].dtype


def test_grouped_resums_keep_the_bits_of_one_sum_at_a_time():
    # with criterion 8's arguments: every pool instance with K <= 2048
    # (several sums per buffer), two long pool series (K = 16855 and 92904)
    # and the block model (K = 2261), all real and stored in float64, whose
    # re-sums go five at a time in 409-row chunks; then complex starts on a
    # short pool series and on the block model, stored in complex128
    pool = _pool()
    cases = [(e.cp, _start_vector(e), e.seed ^ _SALT_PERM) for e in pool]
    model = block_aligned(12, "1/k").cyclic()
    rng = np.random.default_rng(0)
    cases.append((model, rng.standard_normal(model.dim), 1))
    long = {133, 178, len(cases) - 1}
    for cp in (pool[0].cp, model):
        z = rng.standard_normal((2, cp.dim))
        cases.append((cp, z[0] + 1j * z[1], 2))
    checked = {}
    for i, (cp, x, seed) in enumerate(cases):
        rep = unconditional_sum_test(cp, x, 50, 1e-6, seed)
        if rep.K > 2048 and i not in long and np.isrealobj(x):
            continue
        ref = _per_permutation_reference(cp, x, 50, 1e-6, seed)
        for name, value in ref.items():
            assert np.array_equal(getattr(rep, name), value), (i, name)
        checked[i] = rep.K, _stored_dtype(cp, x)
    assert len(checked) == 197
    assert [checked[i][0] for i in (133, 178, 200, 201, 202)] == [16855, 92904, 2261, 144, 2388]
    assert {checked[i][1] for i in checked if i <= 200} == {np.dtype(np.float64)}
    assert checked[201][1] == checked[202][1] == np.complex128


def test_resums_of_the_longest_pool_series_stay_small():
    # pool instance 178 (K = 92904, d = 7): its terms are stored in float64,
    # in a buffer sized for the series cap (5.6 MB; 11.2 MB in complex128).
    # The bound is the peak measured with the complex buffer and one draw
    # call per re-sum; this code measured 10.3 MB
    e = _pool()[178]
    x = _start_vector(e)
    assert _stored_dtype(e.cp, x) == np.float64
    tracemalloc.start()
    try:
        rep = unconditional_sum_test(e.cp, x, 50, 1e-6, e.seed ^ _SALT_PERM)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.K == 92904
    assert peak <= 14_445_116


@pytest.mark.parametrize("k", [1, 2, 7, 10, 2049, 5000])
def test_one_draw_call_per_group_gives_the_numbers_of_one_call_per_draw(k):
    # criterion 8 draws each group of permutations and of sign patterns in
    # one call; the rows must be those of h successive calls, and the
    # generator must end in the same state, or the pinned verdict would move
    h = 5
    one, many = np.random.default_rng(11), np.random.default_rng(11)
    perms = one.permuted(np.broadcast_to(np.arange(k), (h, k)), axis=1)
    assert np.array_equal(perms, [many.permutation(k) for _ in range(h)])
    signs = one.integers(0, 2, size=(h, k))
    assert np.array_equal(signs, [many.integers(0, 2, size=k) for _ in range(h)])
    assert one.bit_generator.state == many.bit_generator.state


@pytest.mark.parametrize("i2", [0.4, np.inf])
def test_iterate_bounds_equal_the_per_n_rate_bounds(i2):
    subs = random_instance(6, (2, 3), seed=21)
    cp = build_cyclic(subs)
    c = friedrichs_number(cp)
    trace = iterate(cp, np.random.default_rng(0).standard_normal(6), 40, c=c, iota2=i2)
    e0 = trace.errors[0]
    assert np.array_equal(trace.bound_c,
                          e0 * np.array([rate_bound(c, cp.N, n) for n in range(41)]))
    assert np.array_equal(trace.bound_iota2,
                          e0 * np.array([iota2_rate_bound(i2, cp.N, n) for n in range(41)]))


@pytest.mark.parametrize("k", [-600, -300, 300, 600])
def test_unconditional_report_scales_with_its_start_vector_bit_for_bit(k):
    # x and trunc_tol scaled by 2^k: every sum scales exactly, and every
    # norm takes its squares in the normal range.  With NumPy's squares the
    # tail errors underflowed at 2^-600, and all 40 pool instances stopped
    # at K = 1 (instance 0 needs 149 terms); at 2^600 the permuted
    # deviations overflowed and the check raised
    s = 2.0**k
    cases = [(e.cp, _start_vector(e), e.seed ^ _SALT_PERM) for e in _pool()[:40]]
    model = _block_product(12)
    cases.append((model, np.random.default_rng(3).standard_normal(model.dim), 1))
    for cp, x, seed in cases:
        ref = unconditional_sum_test(cp, x, 5, 1e-6, seed)
        got = unconditional_sum_test(cp, s * x, 5, s * 1e-6, seed)
        assert got.K == ref.K
        assert got.tail_estimate == s * ref.tail_estimate
        assert np.array_equal(got.perm_deviations, s * ref.perm_deviations)
        assert np.array_equal(got.sign_sums, s * ref.sign_sums)
        assert (got.telescoping_residual, got.limit_deviation, got.constant_estimate) \
            == (s * ref.telescoping_residual, s * ref.limit_deviation, ref.constant_estimate)


@pytest.mark.parametrize("k", [-600, 0, 600])
def test_triangle_cut_refuses_a_planted_violation_at_every_scale(k, monkeypatch):
    # the sign-flipped sums doubled by a patched re-sum: at T = P_2 P_1 of
    # two lines at 1.2 rad the first term carries nearly all of the budget
    # sum ||y_n||, so every doubled sum exceeds it.  An absolute cut
    # (budget + 1e-9) let them through at 2^-600
    s = 2.0**k
    cp, x = build_cyclic(two_lines(1.2)), np.array([s, 0.0])
    unconditional_sum_test(cp, x, 3, s * 1e-6, seed=1)  # passes unpatched
    calls = []
    resums = iteration._resums

    def doubled(*args):
        calls.append(None)
        sums = resums(*args)
        return 2.0 * sums if len(calls) == 2 else sums  # the sign patterns come second

    monkeypatch.setattr(iteration, "_resums", doubled)
    with pytest.raises(NumericalContractError, match="triangle bound"):
        unconditional_sum_test(cp, x, 3, s * 1e-6, seed=1)


def test_near_aligned_series_exceeds_capacity():
    cp = build_cyclic(two_lines(0.005))
    with pytest.raises(CapacityError):
        unconditional_sum_test(cp, np.array([1.0, 0.0]), 3, 1e-6, seed=1)

