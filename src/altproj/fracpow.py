"""Fractional powers (I - T)^alpha of the projection product.

Every routine takes the ``CyclicProduct`` T = P_N ... P_1 and refuses
anything else with ``TypeError``.  ``frac_power_apply`` takes the
spectral path for a non-integer alpha: an eigendecomposition of T's
blocks, used when the eigenvector basis is well-conditioned.  An integer
alpha is that many sweeps, and a defective or ill-conditioned T has no
usable eigenbasis; both run the reference ``_series_apply``, which tests
compare the spectral path against.  The reference splits alpha = m + f
with m = floor(alpha): it applies I - T m times, then the binomial series
(I - T)^f = sum_n (-1)^n binom(f, n) T^n for f in [0, 1), certified to
``tol``.

On top of these the module builds vectors of the regularity class
Fix(T) + Ran(I-T)^alpha, fits the polynomial decay exponent of their
iteration error, and probes boundedness of the weighted partial sums
sum_{k<=n} k^{-(1-alpha)} T^k x that characterize membership in the
class.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, NumericalContractError
from .iteration import _require_product
from .linalg import _finite

__all__ = [
    "AlphaVector",
    "frac_power_apply",
    "make_alpha_vector",
    "decay_slope",
    "partial_sum_characterization",
]

_TERM_CAP = 10**6  # hard cap on series terms


def _series_apply(apply_t, alpha: float, x: np.ndarray, tol: float,
                  max_terms: int) -> np.ndarray:
    """(I - T)^m (I - T)^f x for alpha = m + f, m = floor(alpha), f in [0, 1).

    The integer part is m sweeps x <- x - T x, exact polynomial evaluation
    that carries only rounding; an integer alpha stops there.  The
    fractional part is the certified series sum, which stops once
    tail(coeffs) * ||T^n x|| <= tol.  Past n = 0 its coefficients
    c_n = (-1)^n binom(f, n) are all negative, so the sum does not cancel,
    and because T is a contraction, ||T^k x|| <= ||T^n x|| for k >= n, so
    sum_{k>n} |c_k| ||T^k x|| <= |sum_{k<=n} c_k| * ||T^n x||.  This
    refines the coarser rule based on ||T^n|| <= 1 alone and shares its
    guarantee.  The m sweeps count against ``max_terms`` with the terms.
    """
    m = math.floor(alpha)
    f = alpha - m
    if m > max_terms:
        raise CapacityError(f"floor(alpha) = {m} sweeps exceed the {max_terms}-term cap")
    x = x.astype(np.complex128)
    for _ in range(m):
        x = x - apply_t(x)
    if f == 0.0:
        return x
    acc = cur = x
    comp = np.zeros_like(acc)
    c = 1.0
    partial = 1.0
    pcomp = 0.0
    n = 0
    while True:
        # |sum_{k > n} c_k| is the running partial sum once n >= 1
        tail = abs(partial + pcomp) if n >= 1 else math.inf
        if tail * np.linalg.norm(cur) <= tol:
            return acc + comp
        if m + n >= max_terms:
            raise CapacityError("alpha too small / tol too tight")
        c = c * (n - f) / (n + 1)
        n += 1
        cur = apply_t(cur)
        # Kahan step for the vector accumulation
        y = c * cur - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        y = c - pcomp
        t = partial + y
        pcomp = (t - partial) - y
        partial = t


def _eigencoordinates(cp, x: np.ndarray):
    """Eigenvalues lam, eigenvectors v and the coordinates w of x with v w = x,
    as (n, b), (n, b, b) and (n, b) stacks over T's blocks.

    Reads the product's cached ``diagonalize`` result.  Raises
    NumericalContractError when the eigenvector basis is singular or too
    ill-conditioned (see ``diagonalize``), and ``eig``'s LinAlgError.
    """
    basis = cp._eigenbasis
    if basis is None:
        raise NumericalContractError(
            "eigenvector basis too ill-conditioned for the spectral path")
    lam, v = basis
    return lam, v, np.linalg.solve(v, x.reshape(lam.shape + (1,)))[..., 0]


def _eig_apply(cp, alpha: float, x: np.ndarray) -> np.ndarray:
    """(I-T)^alpha x through an eigendecomposition, principal branch."""
    lam, v, w = _eigencoordinates(cp, x.astype(np.complex128))
    scale = (1.0 - lam).astype(np.complex128) ** alpha
    return (v @ (scale * w)[..., None]).reshape(x.shape)


def frac_power_apply(cp, alpha: float, x, tol: float) -> np.ndarray:
    """Apply (I - T)^alpha to x for the product ``cp``.

    A non-integer alpha takes the spectral path when T's eigenvector
    basis is well-conditioned.  Otherwise (an integer alpha, a refused
    basis, or ``eig`` raising LinAlgError) it runs the reference series:
    floor(alpha) sweeps of I - T, then the series at the fractional part,
    with truncation error at most ``tol``; ``tol`` bounds the truncation
    only there.  The reference runs on x - P_M x, which (I - T)^alpha maps
    to the same vector for alpha > 0, so a part of x in M does not stall
    the series.  Anything but a ``CyclicProduct`` raises ``TypeError``, and
    a non-finite ``x`` raises ``ValueError``.
    """
    _require_product(cp)
    if not 0.0 <= alpha < math.inf:
        raise ValueError("alpha must be finite and >= 0")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    x = _finite(x)
    if alpha == 0.0:
        return x.copy()
    if not float(alpha).is_integer():
        try:
            return _eig_apply(cp, alpha, x)
        except (np.linalg.LinAlgError, NumericalContractError):
            pass  # defective or ill-conditioned: the reference series
    # (I - T)^alpha P_M = 0 for alpha > 0, and T^n P_M x = P_M x does not
    # decay, so the series stops only on x - P_M x
    return _series_apply(cp.apply, alpha, x - cp.pm_apply(x), tol, _TERM_CAP)


@dataclass(frozen=True)
class AlphaVector:
    """x = (I-T)^alpha y + P_M z, a point of the regularity class."""

    alpha: float
    x: np.ndarray
    provenance: tuple


def _unit(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def make_alpha_vector(cp, alpha: float, seed, *, y=None, z=None,
                      tol: float = 1e-10) -> AlphaVector:
    """Draw y, z (unit norm, seeded) and form x = (I-T)^alpha y + P_M z.

    Explicit ``y``/``z`` override the draws, e.g. to shape the spectral
    profile of y while keeping the construction itself unchanged; a
    non-finite one raises ``ValueError``, and anything but a
    ``CyclicProduct`` ``TypeError``.
    """
    _require_product(cp)
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    rng = np.random.default_rng(seed)
    d = cp.dim
    y = _unit(rng, d) if y is None else _finite(y, "y")
    z = _unit(rng, d) if z is None else _finite(z, "z")
    x = frac_power_apply(cp, alpha, y, tol) + cp.pm_apply(z)
    leak = np.linalg.norm(cp.pm_apply(x - cp.pm_apply(x)))
    if leak > 1e-10:
        raise NumericalContractError("x - P_M x is not orthogonal to M")
    return AlphaVector(alpha=float(alpha), x=x, provenance=(y, z))


def decay_slope(trace, window) -> float:
    """Least-squares slope of log e_n against log n on the window.

    ``trace`` is an IterationTrace or a bare error sequence.  Returns
    -inf when an error on the window is zero or negative (already
    converged).  Fewer than 5 available points is an input error.
    """
    errors = np.asarray(getattr(trace, "errors", trace), dtype=float)
    n_lo, n_hi = int(window[0]), int(window[1])
    if n_lo < 1 or n_hi <= n_lo:
        raise ValueError("window must satisfy n_hi > n_lo >= 1")
    ns = np.arange(n_lo, min(n_hi, len(errors) - 1) + 1)
    if len(ns) < 5:
        raise ValueError("need at least 5 points in the fit window")
    e = errors[ns]
    if e.min() <= 0.0:
        return -math.inf
    return float(np.polyfit(np.log(ns), np.log(e), 1)[0])


def _partial_sum_literal(apply_t, x: np.ndarray, alpha: float, n_max: int):
    cur = x
    s = np.zeros_like(x)
    vals = np.empty(n_max)
    for k in range(1, n_max + 1):
        cur = apply_t(cur)
        s = s + k ** (-(1.0 - alpha)) * cur
        vals[k - 1] = np.linalg.norm(s)
    sup = float(vals.max(initial=0.0))
    head = float(vals[: max(1, n_max // 10)].max(initial=0.0))
    return sup, (sup - head) < 1e-6


def partial_sum_characterization(cp, x, alpha: float, n_max: int):
    """sup_n ||sum_{k<=n} k^{-(1-alpha)} T^k x|| for n <= n_max, with a
    flag for whether the supremum has stabilized.

    On a diagonalizable T the sum is driven in eigencoordinates, which
    allows an analytic per-eigenvalue tail bound: the run stops early
    with a "stabilized" verdict as soon as the certified remaining
    increase drops below 1e-6.  Components along eigenvalues on the unit
    circle make the sum diverge and force the flag to false.  If the
    eigenvector basis is ill-conditioned the fallback sums literally, one
    sweep per step, and measures the last-decade increase instead.

    The eigencoordinate sums advance in chunks of 2048 steps, built block
    by block: the inner sums sum_i lam^i (a + i)^(alpha-1) of every block
    in a chunk come from one real GEMM against a table of lam^i, and only
    the partial sums at block ends are formed.  This chunk arithmetic runs
    on the live coordinates only, those with lam != 0 (a zero eigenvalue
    adds nothing to the sums; every 2x2 block of the block model has
    one), and the GEMM against the imaginary part of the table runs only
    for a non-real spectrum.  Runs of up to 65536
    steps use blocks of one step, so the sup is taken over every n.
    Longer runs use blocks of 256 steps: the sup is sampled every 256
    steps and at n_max, and the certificate decides the flag.  A
    non-finite ``x`` raises ``ValueError``, and anything but a
    ``CyclicProduct`` ``TypeError``.
    """
    _require_product(cp)
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    x = _finite(x)
    if np.linalg.norm(x) == 0.0:
        return 0.0, True
    try:
        lam, v, w = _eigencoordinates(cp, x)
    except (np.linalg.LinAlgError, NumericalContractError):
        return _partial_sum_literal(cp.apply, x, alpha, n_max)

    # rigorous upper bound on ||V||_2 via Holder, avoids a large SVD
    v_norm = math.sqrt(np.abs(v).sum(axis=-2).max() * np.abs(v).sum(axis=-1).max())
    lam, w = lam.reshape(-1), w.reshape(-1)
    absl = np.abs(lam)
    near_one = absl >= 1.0 - 1e-9
    divergent = near_one & (np.abs(w) > 1e-12 * max(1.0, float(np.linalg.norm(w))))
    stable = ~near_one

    # a block starting after step a adds w lam^a times the inner sum
    # sum_i lam^i (a + i)^(alpha-1), i = 1..stride; a chunk's inner sums are
    # one real GEMM of the table lam^i against weights that are zero past
    # the chunk end.  A zero eigenvalue adds nothing to the sums, so the
    # chunk arithmetic runs on the live coordinates (lam != 0); their
    # partial sums fill the live rows of ``full``, whose dead rows stay
    # zero, and ``v @ full`` sees the matrix the full-length sums gave
    chunk = 2048
    stride = 1 if n_max <= 65536 else 256
    dlen = len(w)
    live = lam != 0
    nlive = int(live.sum())
    table = np.cumprod(np.broadcast_to(lam[live, None], (nlive, stride)), axis=1)
    table_re = np.ascontiguousarray(table.real)
    table_im = np.ascontiguousarray(table.imag) if table.imag.any() else None
    offsets = np.arange(1.0, stride + 1.0)[:, None]
    wp = w[live]  # w lam^k at the chunk start
    s = np.zeros(nlive, dtype=np.complex128)
    full = np.zeros((dlen, chunk // stride), dtype=np.complex128)
    sup = 0.0
    head_sup = None
    head_cut = max(1, n_max // 10)
    k = 0
    while k < n_max:
        m = min(chunk, n_max - k)
        nb = -(-m // stride)
        steps = offsets + np.arange(k, k + nb * stride, stride, dtype=float)
        weights = np.where(steps <= k + m, steps ** (-(1.0 - alpha)), 0.0)
        if table_im is None:  # a real spectrum
            inner = (table_re @ weights).astype(np.complex128)
        else:
            inner = table_re @ weights + 1j * (table_im @ weights)
        # w lam^(k + b*stride) for b = 0..nb; column nb starts the next
        # chunk, which follows only a full one
        starts = np.empty((nlive, nb + 1), dtype=np.complex128)
        starts[:, 0] = wp
        starts[:, 1:] = table[:, -1:]
        starts = np.cumprod(starts, axis=1)
        wp = starts[:, -1]
        partial = s[:, None] + np.cumsum(starts[:, :-1] * inner, axis=1)
        s = partial[:, -1]
        full[live, :nb] = partial
        vals = np.linalg.norm(v @ full[:, :nb].reshape(v.shape[:2] + (-1,)), axis=(0, 1))
        sup = max(sup, float(vals.max()))
        k += m
        if head_sup is None and k >= head_cut:
            head_sup = sup
        if not divergent.any():
            # remaining increase: per-eigenvalue geometric/polynomial tail
            tail = np.zeros(dlen)
            with np.errstate(divide="ignore", invalid="ignore"):
                geo = np.abs(w) * (k + 1) ** (-(1.0 - alpha)) * absl ** (k + 1) \
                    / (1.0 - absl)
            tail[stable] = geo[stable]
            # circle-adjacent components with negligible weight: worst-case
            # polynomial growth up to n_max
            rest = near_one & ~divergent
            if rest.any():
                tail[rest] = np.abs(w[rest]) * ((n_max + 1) ** alpha - k ** alpha + 1.0) / alpha
            if v_norm * float(np.linalg.norm(tail)) < 1e-6:
                return sup, True
    if divergent.any():
        return sup, False
    head = sup if head_sup is None else head_sup
    return sup, (sup - head) < 1e-6
