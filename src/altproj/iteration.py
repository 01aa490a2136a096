"""The cyclic projection product T = P_N ... P_1 and its iteration.

Provides the operator object itself, the alternating-projection sweep
x_{n+1} = P_N ... P_1 x_n with its error trace e_n = ||x_n - P_M x||,
the two exponential rate bounds (one from the Friedrichs number, a
sharper one from the inner l2-inclination), the per-sweep energy
inequality, and the series diagnostic: unconditional convergence of
sum_n T^n(I - T)x under permutations and sign flips.

Sweeps always apply the factor projectors one at a time, never the
assembled dense T; that preserves the per-factor contraction structure
(and hence monotone error decay) in floating point.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, NumericalContractError
from .geometry import _rate_base_squared
from .linalg import spectral_norm
from .subspace import Projector, Subspace, intersection, projector

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
_TAIL_SAFETY = 10.0  # safety factor applied to the measured tail estimate


@dataclass(frozen=True)
class CyclicProduct:
    """T = P_N ... P_1 together with its factors and the limit projector.

    ``factors[0]`` is applied first.  Construction validates that T is a
    contraction, that it commutes with P_M as T P_M = P_M T = P_M, and
    that the intersection is fixed pointwise.
    """

    factors: tuple
    matrix: np.ndarray
    pm: Projector
    m: Subspace

    def __post_init__(self):
        t = self.matrix
        if spectral_norm(t) > 1.0 + 1e-10:
            raise NumericalContractError("product of projections is not a contraction")
        p = self.pm.matrix
        if max(np.linalg.norm(t @ p - p, np.inf), np.linalg.norm(p @ t - p, np.inf)) > 1e-10:
            raise NumericalContractError("T does not commute with the limit projector")
        if self.m.dim:
            drift = np.linalg.norm(t @ self.m.basis - self.m.basis, axis=0)
            if drift.max() > 1e-9:
                raise NumericalContractError("intersection is not fixed by T")

    @property
    def N(self) -> int:
        return len(self.factors)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """One full sweep: P_N ... P_1 x, factor by factor."""
        for p in self.factors:
            x = p.apply(x)
        return x


def build_cyclic(subspaces) -> CyclicProduct:
    """Assemble T = P_N ... P_1 and P_M from a family of subspaces."""
    subspaces = list(subspaces)
    if len(subspaces) < 2:
        raise ValueError("need at least two subspaces")
    d = subspaces[0].ambient_dim
    if any(s.ambient_dim != d for s in subspaces):
        raise ValueError("subspaces live in different ambient dimensions")
    factors = tuple(projector(s) for s in subspaces)
    t = np.eye(d, dtype=np.complex128)
    for p in factors:
        t = p.matrix @ t
    m = intersection(subspaces)
    return CyclicProduct(factors=factors, matrix=t, pm=projector(m), m=m)


@dataclass(frozen=True)
class IterationTrace:
    """Errors e_n = ||x_n - P_M x|| of one alternating-projection run."""

    errors: np.ndarray
    x0_norm: float
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
    if iota2 < 0.0:
        raise ValueError("iota2 must be >= 0")
    if n_subspaces < 2:
        raise ValueError("need at least two subspaces")
    with np.errstate(invalid="ignore"):
        base = np.clip(1.0 - 3.0 * iota2**2 / n_subspaces**3, 0.0, 1.0)
    if np.isnan(base):  # iota2 = +inf
        base = 0.0
    return base


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
    x = np.asarray(x, dtype=np.complex128)
    target = cp.pm.apply(x)
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
    return IterationTrace(errors=errors, x0_norm=float(e0),
                          bound_c=bound_c, bound_iota2=bound_i)


def operator_error_norm(cp: CyclicProduct, n: int) -> float:
    """Spectral norm ||T^n - P_M|| by repeated multiplication and SVD."""
    if n < 0:
        raise ValueError("n must be >= 0")
    power = np.eye(cp.dim, dtype=np.complex128)
    for _ in range(n):
        power = cp.matrix @ power
    return spectral_norm(power - cp.pm.matrix)


def sweep_diagnostic(cp: CyclicProduct, x: np.ndarray) -> np.ndarray:
    """Squared step sizes ||u_{k-1} - u_k||^2 of one sweep.

    u_0 = x - P_M x and u_k = P_k ... P_1 x - P_M x.  Each entry is
    checked against the per-sweep energy inequality
    ||u_{k-1} - u_k||^2 <= ||x - P_M x||^2 - ||Tx - P_M x||^2 (within
    1e-10); a violation would falsify the implementation and raises.
    """
    x = np.asarray(x, dtype=np.complex128)
    target = cp.pm.apply(x)
    us = [x - target]
    cur = x
    for p in cp.factors:
        cur = p.apply(cur)
        us.append(cur - target)
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


def _series_terms(cp: CyclicProduct, x: np.ndarray, trunc_tol: float):
    """Terms y_n = T^n (I - T) x until the measured tail clears trunc_tol.

    The remaining tail sum is estimated from the largest of the last ten
    norm ratios rho as ||y_last|| rho/(1 - rho) and must fall below
    trunc_tol / safety(10).  A hard cap of 1e5 terms applies.  Returns
    the terms, the tail estimate and T^K x, the iterate the K sweeps
    end on.
    """
    ys = []
    window = 10
    ratios = deque(maxlen=window)  # the last ten ratios ||y_n|| / ||y_{n-1}||
    prev = 0.0
    cur = np.asarray(x, dtype=np.complex128)
    while len(ys) < _SERIES_CAP:
        nxt = cp.apply(cur)
        y = cur - nxt
        ys.append(y)
        norm = float(np.linalg.norm(y))
        cur = nxt
        if norm == 0.0:
            return ys, 0.0, cur
        if prev > 0.0:
            ratios.append(norm / prev)
        prev = norm
        if len(ys) > window and ratios:
            rho = max(ratios)
            if rho < 1.0:
                tail = norm * rho / (1.0 - rho)
                if _TAIL_SAFETY * tail <= trunc_tol:
                    return ys, tail, cur
    raise CapacityError("aligned or near-aligned instance; increase cap or tolerance")


def unconditional_sum_test(cp: CyclicProduct, x: np.ndarray, num_perms: int,
                           trunc_tol: float, seed) -> UnconditionalReport:
    """Probe unconditional convergence of sum_n T^n(I-T)x to x - P_M x.

    Truncates at K terms chosen so the measured tail is below trunc_tol
    (safety factor 10), then re-sums under ``num_perms`` seeded
    permutations (each permuted sum must stay within 2 * trunc_tol of
    x - P_M x) and under 10 seeded +-1 sign patterns (each flipped sum
    must respect the triangle bound sum ||y_n||).  The largest flipped
    sum divided by ||x|| is reported as a measured lower estimate of the
    unconditional constant; no universal value is asserted.
    """
    if num_perms < 1:
        raise ValueError("num_perms must be >= 1")
    if trunc_tol <= 0.0:
        raise ValueError("trunc_tol must be positive")
    x = np.asarray(x, dtype=np.complex128)
    target = cp.pm.apply(x)
    ys, tail, t_k_x = _series_terms(cp, x, trunc_tol)
    stack = np.array(ys)
    k = len(ys)

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
