"""The cyclic projection product T = P_N ... P_1 and its iteration.

Provides the operator object itself, the alternating-projection sweep
x_{n+1} = P_N ... P_1 x_n with its error trace e_n = ||x_n - P_M x||,
the two exponential rate bounds (one from the Friedrichs number, a
sharper one from the inner l2-inclination), the per-sweep energy
inequality, for one start vector or a stack of them, and the series
diagnostic: unconditional convergence of sum_n T^n(I - T)x under
permutations and sign flips, re-summed several permutations or sign
patterns at a time, each sum with the bits of an ordered one.

Sweeps always apply the factor projectors one at a time, never the
assembled dense T; that preserves the per-factor contraction structure
(and hence monotone error decay) in floating point.  The one exception is
the series diagnostic, which advances its terms in chunks of T's block
powers and agrees with the per-factor sweeps to rounding.  A product is
stored as stacks of diagonal blocks, one d x d block for a dense family
and 2x2 blocks for the block-aligned model; it forms dense matrices only
when a routine reads them, and ``sweep_diagnostic`` reads the steps of its
own sweep.  The routines that take a start vector refuse a non-finite one
once, up front.
"""

from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, NumericalContractError
from .linalg import _blocks_chunk, _finite, _powers, diagonalize, spectral_norm
from .subspace import (Subspace, _basis_stacks, _dense_columns, _freeze, _frozen_copy,
                       _projector, _top_eigenspace)

__all__ = [
    "CyclicProduct",
    "IterationTrace",
    "build_cyclic",
    "iterate",
    "operator_error_norm",
    "rate_bound",
    "iota2_rate_bound",
    "sweep_diagnostic",
    "UnconditionalReport",
    "unconditional_sum_test",
]

_SERIES_CAP = 10**5  # hard cap on adaptively truncated series
_TAIL_SAFETY = 10.0  # safety factor applied to the truncation error
_RESUM_CHUNK = 2048  # rows per step of the permuted and sign-flipped re-sums


class CyclicProduct:
    """T = P_N ... P_1 together with its factors and the limit projector.

    Built from one span per factor, applied in order: an (n, b, r) stack
    of blocks X, the diagonal blocks of a basis of M_k, with zero columns
    where a block has lower rank (one d x r block from ``build_cyclic``,
    K line bases from the block model).  Each factor's (n, b, b) blocks
    are P_k = X X^H.  Construction refuses fewer than two factors, spans
    that are not 3-d stacks of one nonempty (n, b), a NaN or infinite
    entry in a span or in its X X^H, and an X X^H that is not idempotent
    to 1e-12, and finds M itself, by the cut of ``intersection`` on the
    blocks: M is stored once, as the (n, b, r) stack of the kept
    eigenvectors, zero where a block keeps none (r = 0 when M = {0}).  It
    then checks, block by block, that T is a contraction, that
    T P_M = P_M T = P_M, and that M is fixed pointwise.  The angle
    quantities of ``geometry`` read the spans and M's basis blocks, and
    the power profile of ``spectral`` the first and last spans.
    ``factors`` (the P_k), ``matrix`` (T) and ``m`` (M as a ``Subspace``)
    are read-only and built on first access; a single block is returned
    as is.  ``apply`` and ``pm_apply`` run one ``einsum`` per factor over
    2x2 blocks, O(d) per column, which agrees with the dense ``p @ x`` to
    rounding and, on the block model, bit for bit (a stacked ``matmul``
    does not); a single block keeps ``p @ x``.  The kernels read T's
    blocks, whose eigendecomposition is computed on first use and kept.
    So is T's 2m-dimensional core (``_core``), m = min(r_1, r_N) for
    first and last spans of r_1 and r_N columns, where 0 < 2m < b: Q^H T Q
    on a 2m-dimensional subspace S that holds Ran T, Ran T^H and, as
    dim S > m >= rank T, a kernel vector of T.  T is 0 on S^perp, so the
    numerical range and sigma_min(lambda I - T) of ``spectral`` are those
    of the singular 2m x 2m core.
    """

    def __init__(self, spans):
        spans = tuple(_finite(_frozen_copy(x), "span") for x in spans)
        if len(spans) < 2:
            raise ValueError("need at least two subspaces")
        if any(x.ndim != 3 or x.shape[:2] != spans[0].shape[:2] for x in spans) \
                or 0 in spans[0].shape[:2]:
            raise ValueError("need one (n, b, r) span stack per factor, all of one nonempty (n, b)")
        blocks = tuple(_freeze(_projector(x)) for x in spans)
        t = blocks[0]
        for b in blocks[1:]:
            t = b @ t
        basis = _top_eigenspace(blocks)
        pm = basis @ basis.conj().swapaxes(-1, -2)
        _check_product(t, pm, basis)
        vars(self).update(_blocks=blocks, _t_blocks=_freeze(t), _pm_blocks=_freeze(pm),
                          _m_blocks=_freeze(basis), _spans=spans)

    def __setattr__(self, name, value):
        raise AttributeError("CyclicProduct is immutable")

    @cached_property
    def factors(self) -> tuple:
        return tuple(_block_diagonal(b) for b in self._blocks)

    @cached_property
    def matrix(self) -> np.ndarray:
        return _block_diagonal(self._t_blocks)

    @cached_property
    def m(self) -> Subspace:
        return Subspace(_dense_columns(self._m_blocks))

    @property
    def N(self) -> int:
        return len(self._blocks)

    @property
    def dim(self) -> int:
        n, b, _ = self._blocks[0].shape
        return n * b

    @cached_property
    def _eigenbasis(self):
        """``diagonalize`` of T's blocks: (lam, v) stacks, or None when ill-conditioned."""
        return diagonalize(self._t_blocks)

    @cached_property
    def _core(self):
        """(Q, C): T compressed to a 2m-dimensional subspace S per block, or None.

        With X_1 and X_N the first and last spans (r_1 and r_N columns),
        T = X_N K X_1^H for K = X_N^H T X_1, and m = min(r_1, r_N).  Q is
        the (n, b, 2m) reduced QR factor of [X_N Q_K, X_1 Q_{K^H}], where
        Q_K and Q_{K^H}, the reduced QR factors of K and K^H, have m
        columns each, and C = Q^H T Q is (n, 2m, 2m).  S = span Q holds
        Ran T and Ran T^H, so T maps S into itself and vanishes on S^perp:
        T is C on S and 0 beside it.  Householder QR gives 2m orthonormal columns
        even when the stacked columns are dependent, and dim S = 2m > m
        >= rank T puts a kernel vector of T in S, so C is singular.  None
        unless 0 < 2m < b: otherwise there is nothing to compress.
        """
        first, last = self._spans[0], self._spans[-1]
        m = min(first.shape[-1], last.shape[-1])
        t = self._t_blocks
        if not 0 < 2 * m < t.shape[-1]:
            return None
        k = last.conj().swapaxes(-1, -2) @ (t @ first)
        q_k = np.linalg.qr(k)[0]
        q_kh = np.linalg.qr(k.conj().swapaxes(-1, -2))[0]
        q = np.linalg.qr(np.concatenate([last @ q_k, first @ q_kh], axis=-1))[0]
        return _freeze(q), _freeze(q.conj().swapaxes(-1, -2) @ (t @ q))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """One full sweep: P_N ... P_1 x, factor by factor."""
        # ``_block_apply`` inlined: a call per factor costs the pool's small
        # dense sweeps about 15%
        n, b, _ = self._blocks[0].shape
        if n == 1:
            for p in self._blocks:
                x = p[0] @ x
            return x
        x = np.asarray(x)
        y = x.reshape((n, b) + x.shape[1:])
        for p in self._blocks:
            y = np.einsum("kij,kj...->ki...", p, y)
        return y.reshape(x.shape)

    def _iterates(self, x: np.ndarray):
        """P_1 x, P_2 P_1 x, ..., P_N ... P_1 x: the steps of ``apply``, same bits."""
        for p in self._blocks:
            x = _block_apply(p, x)
            yield x

    def pm_apply(self, x: np.ndarray) -> np.ndarray:
        """P_M x, block by block: complex zeros when M = {0}."""
        if not self._m_blocks.size:
            return np.zeros(np.shape(x), dtype=np.complex128)
        return _block_apply(self._pm_blocks, x)


def _block_apply(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix of an (n, b, b) stack applied to a vector or to
    stacked columns: ``p @ x`` for one block, else one ``einsum`` over the blocks."""
    if len(blocks) == 1:
        return blocks[0] @ x
    x = np.asarray(x)
    y = x.reshape(blocks.shape[:2] + x.shape[1:])
    return np.einsum("kij,kj...->ki...", blocks, y).reshape(x.shape)


def _require_product(cp) -> None:
    """Refuse anything but a ``CyclicProduct`` (``geometry``, ``fracpow``) with ``TypeError``."""
    if not isinstance(cp, CyclicProduct):
        raise TypeError(f"need a CyclicProduct, not {type(cp).__name__}; "
                        "for a family of subspaces pass build_cyclic(subspaces)")


def _check_product(t, p, basis):
    """Contraction, commutation and fixed-M checks on (n, b, b) stacks of T
    and P_M and an (n, b, r) stack of M's basis."""
    if spectral_norm(t) > 1.0 + 1e-10:
        raise NumericalContractError("product of projections is not a contraction")
    if max(_inf_norm(t @ p - p), _inf_norm(p @ t - p)) > 1e-10:
        raise NumericalContractError("T does not commute with the limit projector")
    if basis.size and np.linalg.norm(t @ basis - basis, axis=-2).max() > 1e-9:
        raise NumericalContractError("intersection is not fixed by T")


def _inf_norm(a: np.ndarray) -> float:
    """Largest induced infinity norm (maximum absolute row sum) over a stack."""
    return float(np.abs(a).sum(axis=-1).max())


def _block_diagonal(blocks: np.ndarray) -> np.ndarray:
    """Read-only matrix with the (n, b, b) stack on its diagonal; one block is itself."""
    if len(blocks) == 1:
        return blocks[0]
    n, b, _ = blocks.shape
    out = np.zeros((n * b, n * b), dtype=np.complex128)
    idx = np.arange(n)
    out.reshape(n, b, n, b)[idx, :, idx, :] = blocks
    return _freeze(out)


def build_cyclic(subspaces) -> CyclicProduct:
    """T = P_N ... P_1 of a family of subspaces, as one d x d block per factor
    with the family's bases as spans; M is found by the constructor."""
    return CyclicProduct(_basis_stacks(list(subspaces)))


@dataclass(frozen=True)
class IterationTrace:
    """Errors e_n = ||x_n - P_M x|| of one alternating-projection run.

    A negative error, or an increase along a sweep beyond 1e-12 of the
    start vector's norm, raises NumericalContractError.  A sweep rounds
    relative to all of x, its part in M included: ``iterate`` passes ||x||
    as ``_scale``; errors alone take e_0, the ||x|| of an x orthogonal to M.
    """

    errors: np.ndarray
    bound_c: np.ndarray | None = None
    bound_iota2: np.ndarray | None = None
    _scale: InitVar[float | None] = None

    def __post_init__(self, _scale):
        e = np.asarray(self.errors, dtype=float)
        if e.min(initial=0.0) < 0.0:
            raise NumericalContractError("negative error in trace")
        if e.size > 1 and np.max(np.diff(e)) > 1e-12 * (e[0] if _scale is None else _scale):
            raise NumericalContractError("errors increased along a sweep beyond 1e-12 of ||x||")

    def __len__(self) -> int:
        return len(self.errors)


def _rate_base_squared(n_subspaces: int, *, c: float | None = None,
                       iota2: float | None = None) -> float:
    """The squared rate base 1 - k q/N^3 clipped to [0, 1], from ``c`` or ``iota2``.

    (k, q) is (3(N-1), 1-c) for the Friedrichs factor and (3, iota2^2) for
    the inner one; the +inf iota2 sentinel gives 0.  The one copy behind
    both rate bounds, ``iterate``'s bound sequences, ``geometry.rate_base``
    and ``spectral.theta0``.
    """
    if iota2 is None:
        if not 0.0 <= c <= 1.0:
            raise ValueError("c must lie in [0, 1]")
        k, q = 3.0 * (n_subspaces - 1), 1.0 - c
    else:
        if not iota2 >= 0.0:
            raise ValueError("iota2 must be >= 0")
        k, q = 3.0, iota2**2
    if n_subspaces < 2:
        raise ValueError("need at least two subspaces")
    return float(np.clip(1.0 - k * q / n_subspaces**3, 0.0, 1.0))


def rate_bound(c: float, n_subspaces: int, n: int) -> float:
    """(1 - 3(N-1)(1-c)/N^3)^{n/2}, the Friedrichs-number rate factor."""
    base = _rate_base_squared(n_subspaces, c=c)
    if n < 0:
        raise ValueError("n must be >= 0")
    return float(base ** (n / 2.0))


def iota2_rate_bound(iota2: float, n_subspaces: int, n: int) -> float:
    """(1 - 3 iota2^2 / N^3)^{n/2}; sharper than the Friedrichs factor.

    The +inf sentinel (every subspace equals the intersection) clamps the
    base to 0, i.e. the bound asserts immediate convergence, which is
    what actually happens for such instances.
    """
    base = _rate_base_squared(n_subspaces, iota2=iota2)
    if n < 0:
        raise ValueError("n must be >= 0")
    return float(base ** (n / 2.0))


def _half_powers(base: float, n_max: int) -> np.ndarray:
    """base^{n/2} for n = 0..n_max, one scalar power each.

    An array ``np.power`` would be faster but differs from the scalar
    power by 1 ulp on some inputs, and the bounds are printed to 17 digits.
    """
    return np.array([float(base ** (n / 2.0)) for n in range(n_max + 1)])


def iterate(cp: CyclicProduct, x: np.ndarray, n_max: int, *,
            c: float | None = None, iota2: float | None = None) -> IterationTrace:
    """Run n_max full sweeps from x and record the error after each.

    When ``c`` or ``iota2`` are supplied the corresponding rate-bound
    sequences rate^n * e_0 are attached to the trace.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    x = _finite(x)
    target = cp.pm_apply(x)
    errors = np.empty(n_max + 1)
    errors[0] = np.linalg.norm(x - target)
    cur = x
    for n in range(1, n_max + 1):
        cur = cp.apply(cur)
        errors[n] = np.linalg.norm(cur - target)
    e0 = errors[0]
    bound_c = None if c is None else e0 * _half_powers(_rate_base_squared(cp.N, c=c), n_max)
    bound_i = (None if iota2 is None
               else e0 * _half_powers(_rate_base_squared(cp.N, iota2=iota2), n_max))
    return IterationTrace(errors, bound_c, bound_i, np.linalg.norm(x))


def operator_error_norm(cp: CyclicProduct, n: int) -> float:
    """Spectral norm ||T^n - P_M|| by repeated multiplication and SVD of T's blocks."""
    if n < 0:
        raise ValueError("n must be >= 0")
    t = cp._t_blocks
    power = np.broadcast_to(np.eye(t.shape[-1], dtype=np.complex128), t.shape)
    for _ in range(n):
        power = t @ power
    return spectral_norm(power - cp._pm_blocks)


def sweep_diagnostic(cp: CyclicProduct, x: np.ndarray) -> np.ndarray:
    """Squared step sizes ||u_{k-1} - u_k||^2 of one sweep.

    u_0 = x - P_M x and u_k = P_k ... P_1 x - P_M x.  Each entry is
    checked against the per-sweep energy inequality
    ||u_{k-1} - u_k||^2 <= ||x - P_M x||^2 - ||Tx - P_M x||^2 (within
    1e-10); a violation would falsify the implementation and raises.
    ``x`` is a vector, giving N steps, or a (d, k) stack of columns,
    giving (N, k) steps, each column checked against its own budget; one
    violating column raises for the stack.
    """
    x = _finite(x)
    target = cp.pm_apply(x)
    us = [x - target] + [u - target for u in cp._iterates(x)]
    steps = np.array([_squared_norm(a - b) for a, b in zip(us, us[1:])])
    budget = _squared_norm(us[0]) - _squared_norm(us[-1])
    worst = steps.max(axis=0)
    bad = np.flatnonzero(worst > budget + 1e-10)
    if bad.size:
        j = bad[0]
        raise NumericalContractError(
            f"sweep step {np.ravel(worst)[j]:.3e} exceeds the energy budget "
            f"{np.ravel(budget)[j]:.3e}"
        )
    return steps


def _squared_norm(u: np.ndarray):
    """||u||^2 of a vector as a float, or of each column of a (d, k) stack."""
    if u.ndim == 1:
        return float(np.linalg.norm(u) ** 2)
    return np.linalg.norm(u, axis=0) ** 2


@dataclass(frozen=True)
class UnconditionalReport:
    """Measured data for the unconditional convergence of sum T^n(I-T)x."""

    K: int
    tail_estimate: float
    telescoping_residual: float
    limit_deviation: float
    perm_deviations: np.ndarray
    sign_sums: np.ndarray
    constant_estimate: float
    trunc_tol: float


def _series_terms(cp: CyclicProduct, x: np.ndarray, target: np.ndarray, trunc_tol: float):
    """Terms y_n = T^n (I - T) x until the truncation error clears trunc_tol.

    The first K terms telescope to x - T^K x, so they miss the limit
    x - P_M x (``target`` is P_M x) by exactly e_K = ||T^K x - P_M x||.
    The run stops at the first K with safety(10) * e_K <= trunc_tol; a
    hard cap of 1e5 terms applies.  Returns the (K, d) terms, e_K and T^K x.
    The series advances B terms per step: T's block powers T^0..T^B are
    formed once, by doubling (``linalg._powers``), with B = min(256,
    ``stack_chunk(b) // n``) over T's (n, b, b) blocks, so the power stack
    stays near 2 MiB, and one ``einsum`` gives T^{k..k+B} x, whose B
    errors take one vectorized norm.  The terms fill the leading rows of
    one buffer sized for the cap; at most one chunk past K is written, so
    the pages of the rows beyond it are never touched.
    """
    t = cp._t_blocks
    size = min(256, _blocks_chunk(len(t), t.shape[-1]))
    powers = _powers(t, size + 1)
    ys = np.empty((_SERIES_CAP,) + x.shape, dtype=np.complex128)
    cur = x.reshape(t.shape[:2])
    for k in range(0, _SERIES_CAP, size):
        m = min(size, _SERIES_CAP - k)
        v = np.einsum("jkab,kb->jka", powers[:m + 1], cur).reshape(m + 1, -1)
        np.subtract(v[:-1], v[1:], out=ys[k:k + m])
        errors = np.linalg.norm(v[1:] - target, axis=-1)
        hit = np.flatnonzero(_TAIL_SAFETY * errors <= trunc_tol)
        if hit.size:
            j = int(hit[0])
            return ys[:k + j + 1], float(errors[j]), v[j + 1]
        cur = v[-1].reshape(t.shape[:2])
    raise CapacityError("aligned or near-aligned instance; increase cap or tolerance")


def _resums(stack: np.ndarray, count: int, draw, place) -> np.ndarray:
    """The (count, d) sums of ``count`` permutations or sign patterns of the
    (K, d) ``stack``'s rows.

    ``draw(h)`` returns a (K, h) block of the next h of them, one per
    column, and ``place(block, a, m, out)`` writes their rows a..a+m-1 into
    the (m, h, d) ``out``.  g = max(1, min(count, 2048 // K)) sums are
    formed at a time from a (rows, g, d) buffer of at most 2049 x d
    entries: for K <= 2048 the K rows of g sums at once, and for larger K
    one sum at a time, 2048 rows per chunk after a row that carries the
    running sum.  NumPy adds the rows of an axis-0 sum one after the
    other, so each sum has the bits of one ordered sum over its K rows.
    """
    k, d = stack.shape
    g = max(1, min(count, _RESUM_CHUNK // k))
    size = min(k, _RESUM_CHUNK)
    carry = int(k > size)
    buf = np.empty((carry + size) * g * d, dtype=np.complex128)
    sums = np.empty((count, d), dtype=np.complex128)
    for j in range(0, count, g):
        h = min(g, count - j)
        rows = buf[:(carry + size) * h * d].reshape(carry + size, h, d)
        block = draw(h)
        rows[:carry] = 0.0
        for a in range(0, k, size):
            m = min(size, k - a)
            place(block, a, m, rows[carry:carry + m])
            s = rows[:carry + m].sum(axis=0)
            rows[:carry] = s
        sums[j:j + h] = s
    return sums


def unconditional_sum_test(cp: CyclicProduct, x: np.ndarray, num_perms: int,
                           trunc_tol: float, seed) -> UnconditionalReport:
    """Probe unconditional convergence of sum_n T^n(I-T)x to x - P_M x.

    Truncates at the first K whose exact truncation error, reported as
    ``tail_estimate``, is at most trunc_tol / 10 (safety factor 10), then
    re-sums under ``num_perms`` seeded permutations (each permuted sum
    must stay within 2 * trunc_tol of x - P_M x) and under 10 seeded +-1
    sign patterns (each flipped sum must respect the triangle bound
    sum ||y_n||).  The largest flipped sum divided by ||x|| is reported
    as a measured lower estimate of the unconditional constant; no
    universal value is asserted.  The re-sums run g = max(1, min(count,
    2048 // K)) at a time through one bounded buffer (``_resums``), in
    the order the seeded draws come: the permutations first, then the
    sign patterns.
    """
    if num_perms < 1:
        raise ValueError("num_perms must be >= 1")
    if not trunc_tol > 0.0:
        raise ValueError("trunc_tol must be positive")
    x = _finite(x)
    target = cp.pm_apply(x)
    stack, tail, t_k_x = _series_terms(cp, x, target, trunc_tol)
    k = len(stack)

    total = stack.sum(axis=0)
    # telescoping: the ordered sum collapses to x - T^K x
    telescoping = float(np.linalg.norm(total - (x - t_k_x)))
    limit = x - target
    limit_dev = float(np.linalg.norm(total - limit))

    rng = np.random.default_rng(seed)
    perm_sums = _resums(stack, num_perms,
                        lambda h: np.column_stack([rng.permutation(k) for _ in range(h)]),
                        # permutation indices are in range: "clip" skips the
                        # buffered bounds check of the default mode
                        lambda idx, a, m, out: np.take(stack, idx[a:a + m], axis=0, out=out,
                                                       mode="clip"))
    # one 1-D norm per sum: the axis= form rounds differently
    perm_devs = np.array([np.linalg.norm(s - limit) for s in perm_sums])
    if perm_devs.max(initial=0.0) > 2.0 * trunc_tol:
        raise NumericalContractError(
            f"permuted series strayed {perm_devs.max():.3e} from the limit "
            f"(allowed {2.0 * trunc_tol:.3e})"
        )

    # the row norms a chunk at a time: one call over all K rows makes two
    # K x d temporaries
    row_norms = np.empty(k)
    for a in range(0, k, _RESUM_CHUNK):
        row_norms[a:a + _RESUM_CHUNK] = np.linalg.norm(stack[a:a + _RESUM_CHUNK], axis=1)
    norm_budget = float(row_norms.sum())
    sign_sums = np.array([np.linalg.norm(s) for s in _resums(
        stack, 10,
        lambda h: np.column_stack([rng.integers(0, 2, size=k) * 2 - 1 for _ in range(h)]),
        lambda signs, a, m, out: np.multiply(signs[a:a + m, :, None], stack[a:a + m, None],
                                             out=out))])
    if sign_sums.max() > norm_budget + 1e-9:
        raise NumericalContractError("sign-flipped sum exceeded the triangle bound")
    xn = float(np.linalg.norm(x))
    constant = float(sign_sums.max() / xn) if xn > 0.0 else 0.0

    return UnconditionalReport(K=k, tail_estimate=tail,
                               telescoping_residual=telescoping,
                               limit_deviation=limit_dev,
                               perm_deviations=perm_devs, sign_sums=sign_sums,
                               constant_estimate=constant, trunc_tol=trunc_tol)
