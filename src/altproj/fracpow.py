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
class.  Those sums run in T's eigencoordinates, several 2048-step chunks
to a pass of NumPy calls and in float64 where the spectrum, eigenvectors
and coordinates are real, with the bits of one chunk per pass in complex
arithmetic.
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
_ALPHA_TOL = 1e-10  # truncation tolerance of ``make_alpha_vector``'s series
# bytes of a pass of ``partial_sum_characterization``, for its (d, columns)
# sums and its (stride, columns) weights each.  256 KiB gives 10 chunks per
# pass on block_decay's input (K = 200, real): 16-21 ms a call against
# 38-43 ms for one chunk per pass, and a tracemalloc peak of 1.43 MB against
# 1.57 MB; a 2 MiB pass took 34-37 ms and peaked at 7.5 MB
_PASS_BYTES = 1 << 18


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


def make_alpha_vector(cp, alpha: float, seed, *, y=None, z=None) -> AlphaVector:
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
    x = frac_power_apply(cp, alpha, y, _ALPHA_TOL) + cp.pm_apply(z)
    # zero but for the rounding of P_M, which is relative to ||x||
    leak = np.linalg.norm(cp.pm_apply(x - cp.pm_apply(x)))
    if leak > 1e-10 * np.linalg.norm(x):
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


def _tails(absl, absw, stable, rest, alpha: float, n_max: int, ends) -> np.ndarray:
    """Per-eigenvalue bounds on the remaining increase after each step k in
    ``ends``, one row per k: geometric/polynomial tails on the stable
    coordinates, worst-case growth up to n_max on the ``rest``."""
    tails = np.zeros((len(ends), len(absl)))
    a = absl[stable]
    decay = np.array([(k + 1) ** (-(1.0 - alpha)) for k in ends])[:, None]
    # a ** (k + 1) row by row, since a ** 2 squares where pow(a, 2.0) rounds
    # differently
    tails[:, stable] = absw[stable] * decay * np.array([a ** (k + 1) for k in ends]) / (1.0 - a)
    if rest.any():
        growth = np.array([(n_max + 1) ** alpha - k ** alpha + 1.0 for k in ends])[:, None]
        tails[:, rest] = absw[rest] * growth / alpha
    return tails


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
    come from one real GEMM against a table of lam^i, and only the partial
    sums at block ends are formed.  This chunk arithmetic runs on the live
    coordinates only, those with lam != 0 (a zero eigenvalue adds nothing
    to the sums; every 2x2 block of the block model has one), and the GEMM
    against the imaginary part of the table runs only for a non-real
    spectrum.  When lam, the eigenvectors and x's coordinates are all
    real (the block model, two lines, a real pool instance), it runs in
    float64, which gives the bits of the complex arithmetic.  Runs of up
    to 65536 steps use blocks of one step, so the sup is taken over every
    n.  Longer runs use blocks of 256 steps: the sup is sampled every 256
    steps and at n_max, and the certificate decides the flag.

    A pass takes as many full chunks as keep its (d, columns) sums and its
    (stride, columns) weights within ``_PASS_BYTES`` (one chunk at stride
    1 once d exceeds 8), and the short last chunk of a run goes alone: one
    GEMM, one cumprod of the block starts and one product with the
    eigenvectors, with its norms, serve them all.  Each chunk keeps its
    own cumsum, carried from the chunk before by an ordered cumsum of the
    chunk ends, and the sup, the head cut and the certificate are taken at
    every chunk end in order, so a run returns the bits of one chunk per
    pass.  A non-finite ``x`` raises ``ValueError``, and anything but a
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
    absl, absw = np.abs(lam), np.abs(w)
    near_one = absl >= 1.0 - 1e-9
    divergent = near_one & (absw > 1e-12 * max(1.0, float(np.linalg.norm(w))))
    stable = ~near_one
    # circle-adjacent components with negligible weight: worst-case
    # polynomial growth up to n_max
    rest = near_one & ~divergent
    if not (lam.imag.any() or v.imag.any() or w.imag.any()):
        # every product and sum below is then real, and float64 gives the
        # complex arithmetic's bits at half the work
        lam, v, w = lam.real, np.ascontiguousarray(v.real), w.real

    # a block starting after step a adds w lam^a times the inner sum
    # sum_i lam^i (a + i)^(alpha-1), i = 1..stride; a pass's inner sums are
    # one real GEMM of the table lam^i against weights that are zero past
    # the run's end.  A zero eigenvalue adds nothing to the sums, so the
    # chunk arithmetic runs on the live coordinates (lam != 0); their
    # partial sums fill the live rows of ``full``, whose dead rows stay
    # zero, and ``v @ full`` sees the matrix the full-length sums gave
    chunk = 2048
    stride = 1 if n_max <= 65536 else 256
    cols = chunk // stride  # block ends per chunk
    dlen = len(w)
    # chunks per pass: its (dlen, columns) sums and (stride, columns) weights
    # each stay within _PASS_BYTES
    per_pass = max(1, _PASS_BYTES // (cols * max(dlen * w.itemsize, stride * 8)))
    live = lam != 0
    nlive = int(live.sum())
    table = np.cumprod(np.broadcast_to(lam[live, None], (nlive, stride)), axis=1)
    table_re = np.ascontiguousarray(table.real)
    table_im = np.ascontiguousarray(table.imag) if table.imag.any() else None
    offsets = np.arange(1.0, stride + 1.0)[:, None]
    wp = w[live]  # w lam^k at the pass start
    s = np.zeros(nlive, dtype=w.dtype)
    full = np.zeros((dlen, per_pass * cols), dtype=w.dtype)
    sup = 0.0
    head_sup = None
    head_cut = max(1, n_max // 10)
    k = 0
    while k < n_max:
        # up to ``per_pass`` full chunks, or the short last one alone: below
        # a full chunk's columns, a GEMM's bits depend on its width
        nc = min(per_pass, (n_max - k) // chunk) or 1
        m = min(nc * chunk, n_max - k)
        nb = -(-m // stride)
        weights = offsets + np.arange(k, k + nb * stride, stride, dtype=float)  # steps
        np.power(weights, -(1.0 - alpha), out=weights)
        weights[m - (nb - 1) * stride:, -1] = 0.0  # the steps past k + m
        inner = table_re @ weights
        if table_im is not None:  # a non-real spectrum
            inner = inner + 1j * (table_im @ weights)
        # w lam^(k + b*stride) for b = 0..nb; column nb starts the next
        # pass, which follows only full chunks
        starts = np.empty((nlive, nb + 1), dtype=w.dtype)
        starts[:, 0] = wp
        starts[:, 1:] = table[:, -1:]
        np.cumprod(starts, axis=1, out=starts)
        wp = starts[:, -1].copy()
        # each chunk's partial sums, in place of its starts: the carried s
        # plus a cumsum within the chunk, the carries an ordered cumsum of
        # the chunk ends
        sums = starts[:, :-1]
        sums *= inner
        sums = sums.reshape(nlive, nc, nb // nc)
        np.cumsum(sums, axis=2, out=sums)
        sums += np.cumsum(np.concatenate([s[:, None], sums[:, :-1, -1]], axis=1), axis=1)[..., None]
        s = sums[:, -1, -1].copy()
        full[live, :nb] = sums.reshape(nlive, nb)
        del weights, inner, starts, sums  # the norms below need the room
        vals = np.linalg.norm(v @ full[:, :nb].reshape(v.shape[:2] + (-1,)), axis=(0, 1))
        ends = [min(k + chunk * (j + 1), k + m) for j in range(nc)]
        tails = None if divergent.any() else _tails(absl, absw, stable, rest, alpha, n_max, ends)
        # the sup, head cut and certificate at every chunk end, in order
        for j, top in enumerate(vals.reshape(nc, -1).max(axis=1)):
            sup = max(sup, float(top))
            k = ends[j]
            if head_sup is None and k >= head_cut:
                head_sup = sup
            # the 1-D norm (a dot product) of each row, as one chunk per pass
            # took it; an axis norm rounds differently
            if tails is not None and v_norm * float(np.linalg.norm(tails[j])) < 1e-6:
                return sup, True
    if divergent.any():
        return sup, False
    head = sup if head_sup is None else head_sup
    return sup, (sup - head) < 1e-6
