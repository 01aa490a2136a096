"""The cyclic projection product T = P_N ... P_1 and its iteration.

Provides the operator object itself, the alternating-projection sweep
x_{n+1} = P_N ... P_1 x_n with its error trace e_n = ||x_n - P_M x||,
the two exponential rate bounds (one from the Friedrichs number, a
sharper one from the inner l2-inclination), the per-sweep energy
inequality, and the series diagnostic: unconditional convergence of
sum_n T^n(I - T)x under permutations and sign flips.

Sweeps always apply the factor projectors one at a time, never the
assembled dense T; that preserves the per-factor contraction structure
(and hence monotone error decay) in floating point.  A product is stored
as stacks of diagonal blocks, one d x d block for a dense family and 2x2
blocks for the block-aligned model; it forms dense matrices only when a
routine reads them, and ``sweep_diagnostic`` reads the steps of its own
sweep.  The routines that take a start vector refuse a non-finite one
once, up front.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, NumericalContractError
from .geometry import _rate_base_squared
from .linalg import _finite, diagonalize, spectral_norm
from .subspace import Subspace, _dense_columns, _freeze, _top_eigenspace, intersection

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


class CyclicProduct:
    """T = P_N ... P_1 together with its factors and the limit projector.

    Stored as one (n, b, b) stack of diagonal blocks per factor, applied
    in order, and the (n, b, r) stack of a basis of M, the one stored form
    of M (zero columns allowed; ``from_blocks`` keeps the (n, b, b) stack
    of its eigenvalue cut): ``build_cyclic`` gives one d x d block
    (n = 1), ``from_blocks`` 2x2 blocks (b = 2).  Each factor also keeps a
    span, an (n, b, s) stack of blocks X with X X^H = P_k: the family's
    basis of M_k for ``build_cyclic``, the projector blocks themselves for
    ``from_blocks``.  The angle quantities of ``geometry`` read the spans
    and M's basis blocks.  Construction forms the blocks of T and P_M and
    checks, block by block, that T is a contraction, that
    T P_M = P_M T = P_M, and that M is fixed pointwise.  ``factors`` (the
    P_k), ``matrix`` (T) and ``pm`` (P_M) are read-only complex d x d
    arrays assembled on first access; a single block is returned as is.
    ``m``, the intersection M as a ``Subspace`` of the nonzero basis
    columns, is built on first access too; ``dim`` reads the block shapes
    and ``pm_apply`` the basis stack.  ``apply`` and ``pm_apply`` never
    read a dense member: on a vector or on stacked columns they run one
    ``einsum`` per factor over 2x2 blocks, O(d) per column, which agrees
    with the dense ``p @ x`` to rounding and, on the block model, bit for
    bit (a stacked ``matmul`` does not); a single block keeps ``p @ x``.
    The kernels read T's blocks, and their eigendecomposition is computed
    on first use and kept.
    """

    def __init__(self, blocks, basis: np.ndarray, spans):
        blocks = tuple(_freeze(np.asarray(b, dtype=np.complex128)) for b in blocks)
        t = blocks[0]
        for b in blocks[1:]:
            t = b @ t
        pm = basis @ basis.conj().swapaxes(-1, -2)
        _check_product(t, pm, basis)
        vars(self).update(_blocks=blocks, _t_blocks=_freeze(t), _pm_blocks=_freeze(pm),
                          _m_blocks=_freeze(basis), _spans=tuple(spans))

    @classmethod
    def from_blocks(cls, blocks) -> "CyclicProduct":
        """The product of projections given by one (K, 2, 2) stack of diagonal
        blocks per factor, in the order they are applied; M is the cut of
        ``intersection`` run on each block."""
        blocks = tuple(np.asarray(b, dtype=np.complex128) for b in blocks)
        if len(blocks) < 2:
            raise ValueError("need at least two subspaces")
        if blocks[0].ndim != 3 or blocks[0].shape[1:] != (2, 2) \
                or any(b.shape != blocks[0].shape for b in blocks):
            raise ValueError("need one (K, 2, 2) stack of blocks per factor")
        for b in blocks:
            if not (np.allclose(b @ b, b, atol=1e-12)
                    and np.allclose(b, b.conj().swapaxes(-1, -2), atol=1e-12)):
                raise ValueError("blocks must be orthogonal projections")
        return cls(blocks, _top_eigenspace(blocks), blocks)  # a projector is its own span

    def __setattr__(self, name, value):
        raise AttributeError("CyclicProduct is immutable")

    @cached_property
    def factors(self) -> tuple:
        return tuple(_block_diagonal(b) for b in self._blocks)

    @cached_property
    def matrix(self) -> np.ndarray:
        return _block_diagonal(self._t_blocks)

    @cached_property
    def pm(self) -> np.ndarray:
        return _block_diagonal(self._pm_blocks)

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

    def apply(self, x: np.ndarray) -> np.ndarray:
        """One full sweep: P_N ... P_1 x, factor by factor."""
        # ``_block_apply`` inlined: a call per factor costs the pool's small
        # dense sweeps about 15%
        n, b, _ = self._blocks[0].shape
        if n == 1:
            for p in self.factors:
                x = p @ x
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
        if not self._m_blocks.any():
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
    """T = P_N ... P_1 and P_M of a family of subspaces, as one d x d block each."""
    subspaces = list(subspaces)
    if len(subspaces) < 2:
        raise ValueError("need at least two subspaces")
    m = intersection(subspaces)  # also refuses mixed ambient dimensions
    factors = [(s.basis @ s.basis.conj().T)[None] for s in subspaces]
    return CyclicProduct(factors, m.basis[None], [s.basis[None] for s in subspaces])


@dataclass(frozen=True)
class IterationTrace:
    """Errors e_n = ||x_n - P_M x|| of one alternating-projection run."""

    errors: np.ndarray
    bound_c: np.ndarray | None = None
    bound_iota2: np.ndarray | None = None

    def __post_init__(self):
        e = np.asarray(self.errors, dtype=float)
        if e.min(initial=0.0) < 0.0:
            raise NumericalContractError("negative error in trace")
        if e.size > 1 and np.max(np.diff(e)) > 1e-12:
            raise NumericalContractError("errors increased along a sweep beyond 1e-12")

    def __len__(self) -> int:
        return len(self.errors)


def rate_bound(c: float, n_subspaces: int, n: int) -> float:
    """(1 - 3(N-1)(1-c)/N^3)^{n/2}, the Friedrichs-number rate factor."""
    base = _rate_base_squared(c, n_subspaces)
    if n < 0:
        raise ValueError("n must be >= 0")
    return float(base ** (n / 2.0))


def _iota2_base_squared(iota2: float, n_subspaces: int) -> float:
    """b = 1 - 3 iota2^2/N^3 clipped to [0, 1]; 0 for the +inf sentinel."""
    if not iota2 >= 0.0:
        raise ValueError("iota2 must be >= 0")
    if n_subspaces < 2:
        raise ValueError("need at least two subspaces")
    return np.clip(1.0 - 3.0 * iota2**2 / n_subspaces**3, 0.0, 1.0)


def iota2_rate_bound(iota2: float, n_subspaces: int, n: int) -> float:
    """(1 - 3 iota2^2 / N^3)^{n/2}; sharper than the Friedrichs factor.

    The +inf sentinel (every subspace equals the intersection) clamps the
    base to 0, i.e. the bound asserts immediate convergence, which is
    what actually happens for such instances.
    """
    base = _iota2_base_squared(iota2, n_subspaces)
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
    bound_c = None if c is None else e0 * _half_powers(_rate_base_squared(c, cp.N), n_max)
    bound_i = None if iota2 is None else e0 * _half_powers(_iota2_base_squared(iota2, cp.N),
                                                           n_max)
    return IterationTrace(errors=errors, bound_c=bound_c, bound_iota2=bound_i)


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
    """
    x = _finite(x)
    target = cp.pm_apply(x)
    us = [x - target] + [u - target for u in cp._iterates(x)]
    steps = np.array([float(np.linalg.norm(us[k - 1] - us[k]) ** 2)
                      for k in range(1, len(us))])
    budget = float(np.linalg.norm(us[0]) ** 2 - np.linalg.norm(us[-1]) ** 2)
    if steps.size and steps.max() > budget + 1e-10:
        raise NumericalContractError(
            f"sweep step {steps.max():.3e} exceeds the energy budget {budget:.3e}"
        )
    return steps


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
    The terms fill the leading rows of one buffer sized for the cap; the
    rows past K are never written, so their pages are never touched.
    """
    ys = np.empty((_SERIES_CAP,) + x.shape, dtype=np.complex128)
    cur = x
    for k in range(_SERIES_CAP):
        nxt = cp.apply(cur)
        ys[k] = cur - nxt
        cur = nxt
        error = float(np.linalg.norm(cur - target))
        if _TAIL_SAFETY * error <= trunc_tol:
            return ys[:k + 1], error, cur
    raise CapacityError("aligned or near-aligned instance; increase cap or tolerance")


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
    universal value is asserted.
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
    limit_dev = float(np.linalg.norm(total - (x - target)))

    rng = np.random.default_rng(seed)
    perm_devs = np.empty(num_perms)
    for j in range(num_perms):
        perm = rng.permutation(k)
        s = stack[perm].sum(axis=0)
        perm_devs[j] = np.linalg.norm(s - (x - target))
    if perm_devs.max(initial=0.0) > 2.0 * trunc_tol:
        raise NumericalContractError(
            f"permuted series strayed {perm_devs.max():.3e} from the limit "
            f"(allowed {2.0 * trunc_tol:.3e})"
        )

    norm_budget = float(np.linalg.norm(stack, axis=1).sum())
    sign_sums = np.empty(10)
    for j in range(10):
        signs = rng.integers(0, 2, size=k) * 2 - 1
        sign_sums[j] = np.linalg.norm((signs[:, None] * stack).sum(axis=0))
    if sign_sums.max() > norm_budget + 1e-9:
        raise NumericalContractError("sign-flipped sum exceeded the triangle bound")
    xn = float(np.linalg.norm(x))
    constant = float(sign_sums.max() / xn) if xn > 0.0 else 0.0

    return UnconditionalReport(K=k, tail_estimate=tail,
                               telescoping_residual=telescoping,
                               limit_deviation=limit_dev,
                               perm_deviations=perm_devs, sign_sums=sign_sums,
                               constant_estimate=constant, trunc_tol=trunc_tol)
