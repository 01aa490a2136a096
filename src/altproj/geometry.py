"""Angles between families of subspaces and the inequalities relating them.

Central quantities, for subspaces M_1, ..., M_N with intersection M:

* the Friedrichs number ``c``, the supremum of
  (1/(N-1)) sum_{j != k} <m_j, m_k> over m_k in M_k ∩ M^perp with
  sum ||m_k||^2 = 1;
* the l2-inclination ``ell2 = sqrt((N-1)(1-c))``, equivalently the
  smallest constant in sum_k dist(x, M_k)^2 >= ell2^2 dist(x, M)^2;
* the inner l2-inclination ``iota2``, the same infimum restricted to
  x in M_n \\ M, minimized over n;
* certified lower and upper bounds of the minimax inclinations ``ell``
  and ``iota`` (infima of max_k dist(x,M_k)/dist(x,M)).

The supremum defining ``c`` reduces exactly to the top eigenvalue of a
Gram block matrix, kept with an independent sphere-sampling maximizer as
its oracle.  Both l2 inclinations are the smallest singular value of the
stacked residuals [(I - P_1) B; ...; (I - P_N) B] of a feasible basis B
(Björck–Golub 1973): those scale like the sines of the angles, where the
eigenvalue of B^H (sum_k (I - P_k)) B would cancel.  The minimax
inclinations come from the eigenvalue dual max over the simplex of
lambda_min(sum_k lam_k A_k) (Overton 1992): any weights give a lower
bound and any explicit x an upper one.  The inner dual on M_n ∩ M^perp
takes only the forms of k != n, since A_n vanishes there; at N = 2 that
is one form, which needs no dual: a bottom eigenvector of its bottom
block attains both bounds.  With at most three active subspaces the two
bounds meet, so for iota whenever N <= 4; with four or more the dual can
have a gap, and the pair then reports it.

Every quantity takes the ``CyclicProduct`` of the family and reads it
through ``_feasible``: the feasible sets M^perp and M_k ∩ M^perp, which
the product forms once, on first use, and keeps, and the spans (bases of
the M_k) each set is measured against, all as (n, b, .) stacks of
diagonal blocks.  So every angle quantity of one product shares one set
of bases, and no complement is computed here.  On a block-diagonal family
every feasible set, residual, Gram matrix and quadratic form is
block-diagonal too: c is the largest block Gram eigenvalue, the l2
inclinations are minima over stacked block SVDs, and the dual path takes
lambda_min(sum_k lam_k A_k) as the minimum over blocks.  No d x d or
d x K array is formed for a block-built product; ``build_cyclic`` of a
Subspace family is the one-block case.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .iteration import CyclicProduct, _rate_base_squared, _require_product
from .linalg import eigh_sym, sym
from .spectral import theta0
from .subspace import _residual

__all__ = [
    "GeometryReport",
    "friedrichs_number",
    "friedrichs_number_sampled",
    "ell2",
    "ell2_direct",
    "iota2",
    "minimax_inclination_estimate",
    "rate_base",
    "geometry_report",
    "sandwich_check",
]


def _feasible(cp, kind: str) -> list:
    """(spans, basis) of each nonzero feasible set of the angle quantities of
    the product ``cp``, with the spans it is measured against: M^perp for
    ``kind="global"``, against every span, and each M_n ∩ M^perp for
    ``kind="inner"``, against the spans k != n, since dist(x, M_n) = 0
    there.  Anything but a ``CyclicProduct`` is refused first.

    The bases are the product's own, ``cp._perp_blocks`` and
    ``cp._inner_blocks``, formed once per product.  Each is an (n, b, w)
    stack whose blocks keep their basis in their leading columns and zeros
    after them (see ``_rank_groups``); M^perp of M = {0} is a read-only
    broadcast identity.
    """
    _require_product(cp)
    if kind == "global":
        spaces = [(None, cp._perp_blocks)]
    elif kind == "inner":
        spaces = list(enumerate(cp._inner_blocks))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return [([x for k, x in enumerate(cp._spans) if k != n], f)
            for n, f in spaces if f.shape[-1]]


def _rank_groups(f: np.ndarray) -> list:
    """(blocks, bases) per rank r > 0 of a feasible stack: the indices of its
    blocks with r nonzero columns and their (count, b, r) leading columns."""
    rank = np.count_nonzero(np.any(f != 0, axis=-2), axis=-1)
    groups = []
    for r in np.unique(rank[rank > 0]):
        idx = np.flatnonzero(rank == r)
        groups.append((idx, f[idx, :, :r]))
    return groups


def friedrichs_number(cp: CyclicProduct) -> float:
    """Friedrichs number c of the family, via the Gram-matrix reduction.

    Equals (lambda_max(B^H B) - 1)/(N - 1) with B the stacked orthonormal
    bases of the n nonzero M_k ∩ M^perp, using
    sum_{j != k} <m_j, m_k> = ||sum m_k||^2 - sum ||m_k||^2.  On a
    block-diagonal family B^H B is block-diagonal, and its top eigenvalue
    is the largest over the blocks.  Gram eigenvalues outside [0, n]
    beyond 1e-8 raise ``ValueError``.  When every M_k ∩ M^perp is zero
    the constraint set is empty and c = 0 by convention.  The result is
    clamped to [0, 1].  ``cp`` is the family's product, as for every
    angle quantity (see ``_feasible``).
    """
    bases = [f for _, f in _feasible(cp, "inner")]
    if not bases:
        return 0.0
    b = np.concatenate(bases, axis=-1)
    w, _ = eigh_sym(b.conj().swapaxes(-1, -2) @ b)
    if w[..., 0].min() < -1e-8 or w[..., -1].max() > len(bases) + 1e-8:
        raise ValueError(f"Gram eigenvalues leave [0, {len(bases)}]")
    return float(np.clip((w[..., -1].max() - 1.0) / (cp.N - 1), 0.0, 1.0))


def friedrichs_number_sampled(cp: CyclicProduct, num_samples: int, seed) -> float:
    """Sphere-sampling maximizer of the supremum defining c.

    Draws ``num_samples`` uniform points on the unit sphere of the
    stacked complement coordinates and evaluates
    (||sum_k m_k||^2 - 1)/(N - 1) at each.  This is an independent lower
    estimate of c kept as an oracle for the eigenvalue route; it is not
    clamped.  Fewer than one sample raises ``ValueError``.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    bases = [f for _, f in _feasible(cp, "inner")]
    if not bases:
        return 0.0
    b = np.concatenate(bases, axis=-1)
    kept = np.any(b != 0, axis=-2)  # the coordinates: each block's nonzero columns
    total = int(kept.sum())
    # a real instance has a real maximizer: sampling the real sphere
    # halves the dimension and sharpens the oracle considerably
    real = np.all(b.imag == 0.0)
    if real:
        b = b.real  # a real GEMM in b @ coords, same values
    rng = np.random.default_rng(seed)
    best = -np.inf
    # chunked so 1e5 samples in dimension <= 12 stay cache-friendly
    remaining = int(num_samples)
    while remaining > 0:
        take = min(remaining, 20000)
        a = rng.standard_normal((total, take))
        if not real:
            a = a + 1j * rng.standard_normal((total, take))
        a /= np.linalg.norm(a, axis=0)
        if total == kept.size:  # every coordinate kept: a is coords, in order
            coords = a.reshape(kept.shape + (take,))
        else:
            coords = np.zeros(kept.shape + (take,), dtype=a.dtype)
            coords[kept] = a
        y = b @ coords
        if real:
            y *= y  # the bits of abs(y) ** 2
        else:
            y = np.abs(y) ** 2
        vals = np.sum(y, axis=-2).sum(axis=0)
        best = max(best, float(vals.max()))
        remaining -= take
    return (best - 1.0) / (cp.N - 1)


def ell2(c: float, n: int) -> float:
    """l2-inclination from the Friedrichs number: sqrt((N-1)(1-c))."""
    if not 0.0 <= c <= 1.0:
        raise ValueError("c must lie in [0, 1]")
    if n < 2:
        raise ValueError("need at least two subspaces")
    return float(np.sqrt((n - 1) * (1.0 - c)))


def _l2_floor(cp: CyclicProduct, kind: str) -> float:
    """Smallest singular value of the stacked residuals [(I - P_k) B] over the
    feasible bases B of ``kind`` and the spans each is measured against.

    The l2-inclination over the feasible sets of ``kind``, the one route
    behind ``ell2_direct`` and ``iota2``: sum_k ||(I - P_k) B v||^2 is the
    squared norm of the stack applied to v.  B and every residual are
    block-diagonal, so sigma_min is the smallest over stacked block SVDs,
    one stack per block rank.  With no nonzero feasible set the infimum is
    over the empty set: +inf, with a warning.
    """
    feasible = _feasible(cp, kind)
    if not feasible:
        warnings.warn(f"empty feasible set; {'l2' if kind == 'global' else 'inner'} "
                      "inclination is +inf")
        return math.inf
    return min(float(np.linalg.svd(np.concatenate([_residual(x[idx], f) for x in spans], axis=-2),
                                   compute_uv=False)[..., -1].min())
               for spans, basis in feasible for idx, f in _rank_groups(basis))


def ell2_direct(cp: CyclicProduct) -> float:
    """l2-inclination by its definition, as a smallest singular value.

    Returns sigma_min([(I - P_1) Q; ...; (I - P_N) Q]) with Q an
    orthonormal basis of M^perp, which is sqrt(lambda_min(Q^H (sum_k
    (I - P_k)) Q)) without forming that sum.  Independent of the
    Friedrichs route; the two agree through the identity
    ell2 = sqrt((N-1)(1-c)) whenever some M_k ∩ M^perp is nonzero.  If M
    is the whole space the +inf sentinel is returned with a warning, as by
    ``iota2``.
    """
    return _l2_floor(cp, "global")


def iota2(cp: CyclicProduct) -> float:
    """Inner l2-inclination: the l2 infimum restricted to each M_n.

    min over n of sigma_min of the residuals (I - P_k) B_n stacked over
    k != n, with B_n an orthonormal basis of M_n ∩ M^perp ((I - P_n) B_n
    vanishes); subspaces equal to M are skipped.  If all of them equal M
    the +inf sentinel is returned with a warning.
    """
    return _l2_floor(cp, "inner")


# Barrier weights of the dual path relative to its start, down to the
# smallest that double precision resolves; X is read off at _PRIMAL_WEIGHT,
# where S is still well resolved.
_BARRIER_WEIGHTS = 10.0 ** -np.arange(15)
_PRIMAL_WEIGHT = 1e-8
_CLUSTER = 1e-7  # spread of the bottom eigenspace; dual weights of inactive forms


def _barrier_eigh(mu, flat: list, eyes: list) -> list:
    """``eigh_sym`` of S = sum_k mu_k A_k - I on each rank group's stack.

    ``flat`` holds each group's forms as one (N, count * r * r) array and
    ``eyes`` its r x r identity.  The weighted sum is the ``np.dot`` of a
    (1, N) row with it, as ``np.tensordot(mu, forms, 1)`` computes it.
    """
    return [eigh_sym(np.dot(mu[None], f).reshape(-1, *eye.shape) - eye)
            for f, eye in zip(flat, eyes)]


def _dual_path(forms: list):
    """Log-barrier Newton path for max over the simplex of lambda_min(sum lam_k A_k).

    Homogeneous form: minimize sum mu_k subject to S = sum_k mu_k A_k - I > 0
    (optimum 1/ell^2 at lam = mu/sum mu) by damped Newton steps on
    sum mu/tau - log det S - sum log mu_k for shrinking tau.  The forms
    are block-diagonal, given as one (N, count, r, r) stack per rank
    group: S, its log det and its trace terms split over the blocks.
    Returns lam and X = S^{-1}/tr S^{-1} (trace one, tr(A_k X) near the
    optimum) as one (count, r, r) stack per group, formed once from the
    last step taken at a weight of at least ``_PRIMAL_WEIGHT``.
    """
    n = forms[0].shape[0]
    q = sum(f.shape[1] * f.shape[2] for f in forms)
    flat = [f.reshape(n, -1) for f in forms]
    eyes = [np.eye(f.shape[-1]) for f in forms]
    mu = np.full(n, 2.0 / min(np.linalg.eigvalsh(f.sum(axis=0))[..., 0].min()
                              for f in forms))  # S >= I
    sig_u = _barrier_eigh(mu, flat, eyes)
    primal = None  # the sig_u of the last step at weight >= _PRIMAL_WEIGHT
    try:
        for weight, tau in zip(_BARRIER_WEIGHTS, mu.sum() * _BARRIER_WEIGHTS):
            for _ in range(50):
                g = []  # S^{-1/2} A_k S^{-1/2}
                for f, (sig, u) in zip(forms, sig_u):
                    scale = 1.0 / np.sqrt(sig)
                    g.append(scale[..., :, None] * (u.conj().swapaxes(-1, -2) @ f @ u)
                             * scale[..., None, :])
                flat_g = np.concatenate([gk.reshape(n, -1) for gk in g], axis=1)
                hess = (flat_g @ flat_g.conj().T).real + np.diag(1.0 / mu**2)
                trace = sum(np.trace(gk, axis1=-2, axis2=-1).real.sum(axis=1) for gk in g)
                grad = 1.0 / tau - trace - 1.0 / mu
                step = np.linalg.solve(hess, -grad)
                decrement = np.sqrt(max(step @ hess @ step, 0.0))
                # the damped step stays feasible in exact arithmetic
                trial = mu + (step / (1.0 + decrement) if decrement > 0.25 else step)
                sig_u_t = _barrier_eigh(trial, flat, eyes)
                if min(sig[..., 0].min() for sig, _ in sig_u_t) <= 0.0 or trial.min() <= 0.0:
                    raise np.linalg.LinAlgError("rounding left the feasible set")
                mu, sig_u = trial, sig_u_t
                if weight >= _PRIMAL_WEIGHT:
                    primal = sig_u
                if decrement < 0.1:
                    break
    except np.linalg.LinAlgError:  # rounding has swamped the barrier: stop here
        pass
    if primal is None:
        return mu / mu.sum(), [np.broadcast_to(eye / q, f.shape[1:])
                               for f, eye in zip(forms, eyes)]
    total = sum(np.sum(1.0 / sig) for sig, _ in primal)
    return mu / mu.sum(), [(u / sig[..., None, :]) @ u.conj().swapaxes(-1, -2) / total
                           for sig, u in primal]


def _rank_one_factor(forms: np.ndarray, y: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Pataki rank reduction of X = Y Y^H over the forms.

    A least-squares change first levels the active values tr(A_k X); then
    X moves along Hermitian directions keeping tr X and their differences,
    never raising them, until X loses rank or an inactive value joins
    them.  Stops at r^2 <= #active: r = 1 for up to three.
    """
    level = y.shape[1] > 1  # a single direction has nothing to level
    while True:
        act = np.flatnonzero(active)
        r, k0 = y.shape[1], act[0]
        iu, ju = np.triu_indices(r)  # basis E_j of the r x r Hermitian matrices over R
        e = np.zeros((len(iu), r, r), dtype=np.complex128)
        e[np.arange(len(iu)), iu, ju] = 1.0
        basis = np.concatenate([e + e.conj().swapaxes(1, 2), 1j * (e - e.swapaxes(1, 2))[iu < ju]])
        m = np.concatenate([[y.conj().T @ y], y.conj().T @ forms @ y])
        coords = np.einsum("kab,jba->kj", m, basis).real  # tr(M_k E_j)
        vals = np.trace(m[1:], axis1=1, axis2=2).real
        rows = np.vstack([coords[:1], coords[1:][act[1:]] - coords[1 + k0]])
        if level:
            z = np.linalg.lstsq(rows, np.append(0.0, vals[k0] - vals[act[1:]]), rcond=None)[0]
            delta, level = np.tensordot(z, basis, 1), False
        elif r * r <= len(rows):
            return y
        else:
            z = np.linalg.svd(rows)[2][-1]
            rate = coords[1:] @ z
            sign = -1.0 if rate[k0] > 0.0 else 1.0
            delta = sign * np.tensordot(z, basis, 1)
            length, hit = 1.0 / np.max(-np.linalg.eigvalsh(delta)), None
            for k in np.flatnonzero(~active):
                closing = sign * (rate[k] - rate[k0])
                if closing > 0.0 and max(vals[k0] - vals[k], 0.0) / closing < length:
                    length, hit = max(vals[k0] - vals[k], 0.0) / closing, k
            if hit is not None:  # an inactive value caught up: it joins the held ones
                active[hit] = True
            delta = length * delta
        # Y <- Y (I + delta)^{1/2}, dropping the directions where I + delta is not positive
        w, v = eigh_sym(np.eye(r) + delta)
        keep = w > 1e-12 * w[-1]
        y = (y @ v[:, keep]) * np.sqrt(w[keep])


def _minimax_bounds(spans, groups: list) -> tuple:
    """(lower, upper) for inf over x = B v of max_k dist(x, M_k)/||x||.

    B is the block-diagonal basis given by its rank ``groups`` (see
    ``_rank_groups``).  With A_k = B^H (I - P_k) B, any simplex weights
    give the lower bound sqrt(lambda_min(sum_k lam_k A_k)) (weak duality),
    the smallest over the blocks; the upper bound is the ratio at an
    explicit x, each of whose vectors lies in one block.  One form has the
    one-point simplex lam = [1] and needs no dual: a bottom eigenvector of
    A_1 in its bottom block attains lambda_min, and is x.  More forms take
    x from the final bottom eigenspace.
    """
    forms = []
    for idx, f in groups:
        # A_k as R^H R with R = (I - P_k) B: small distances keep their accuracy
        rs = [_residual(x[idx], f) for x in spans]
        forms.append(sym(np.stack([r.conj().swapaxes(-1, -2) @ r for r in rs])))
    lam, x_mat = _dual_path(forms) if len(spans) > 1 else (np.ones(1), None)
    eig = [eigh_sym(np.tensordot(lam, f, 1)) for f in forms]
    low = min(w[..., 0].min() for w, _ in eig)
    if x_mat is None:
        g = min(range(len(eig)), key=lambda i: eig[i][0][..., 0].min())
        j = int(np.argmin(eig[g][0][..., 0]))
        idx, f = groups[g]
        x = np.zeros(spans[0].shape[:2], dtype=np.complex128)
        x[idx[j]] = f[j] @ eig[g][1][j][:, 0]
        upper = _distance(x, spans[0]) / float(np.linalg.norm(x))
        return min(float(np.sqrt(max(low, 0.0))), upper), upper
    pieces = []  # (group, block, its bottom eigenvectors)
    for g, (w, v) in enumerate(eig):
        bottom = w - low <= _CLUSTER
        pieces += [(g, j, v[j][:, bottom[j]]) for j in np.flatnonzero(bottom.any(axis=-1))]
    ends = np.cumsum([p.shape[1] for _, _, p in pieces])
    gram = np.zeros((ends[-1], ends[-1]), dtype=np.complex128)
    reduced = np.zeros((len(lam), ends[-1], ends[-1]), dtype=np.complex128)
    for (g, j, p), end in zip(pieces, ends):
        at = slice(end - p.shape[1], end)
        gram[at, at] = p.conj().T @ x_mat[g][j] @ p
        reduced[:, at, at] = p.conj().T @ forms[g][:, j] @ p
    gw, gv = eigh_sym(gram)
    keep = gw > 1e-12 * gw[-1]
    y = _rank_one_factor(reduced, gv[:, keep] * np.sqrt(gw[keep]), lam > _CLUSTER)
    xs = np.zeros(spans[0].shape[:2] + y.shape[1:], dtype=np.complex128)
    for (g, j, p), end in zip(pieces, ends):
        idx, f = groups[g]
        xs[idx[j]] = f[j] @ p @ y[end - p.shape[1]:end]
    upper = float(min(max(_distance(x, xk) for xk in spans) / np.linalg.norm(x)
                      for x in np.moveaxis(xs, -1, 0)))
    # rounding can leave the computed lower bound a few ulps above the upper
    return min(float(np.sqrt(max(low, 0.0))), upper), upper


def _distance(x: np.ndarray, span: np.ndarray) -> float:
    """||x - P x|| for an (n, b) block vector x and the (n, b, s) span of P."""
    return float(np.linalg.norm(_residual(span, x[..., None])[..., 0]))


def minimax_inclination_estimate(cp: CyclicProduct, *, kind: str = "global") -> tuple:
    """Certified (lower, upper) bounds of the minimax inclination ell or iota.

    ell (``kind="global"``): inf of max_k dist(x, M_k)/dist(x, M) over
    x in M^perp; iota (``kind="inner"``): the same over x in M_n ∩ M^perp,
    minimized over n.  dist(x, M_n) = 0 on M_n, so each M_n ∩ M^perp is
    measured against the other spans only, which leaves max_k unchanged.
    The bounds meet to rounding when at most three subspaces are active at
    the optimum.  Empty feasible sets give (inf, inf).
    """
    bounds = [_minimax_bounds(spans, _rank_groups(f)) for spans, f in _feasible(cp, kind)]
    lows, highs = zip(*bounds) if bounds else ((math.inf,), (math.inf,))
    return min(lows), min(highs)


def rate_base(c: float, n: int) -> float:
    """The per-step contraction base (1 - 3(N-1)(1-c)/N^3)^{1/2}."""
    return float(np.sqrt(_rate_base_squared(n, c=c)))


@dataclass(frozen=True)
class GeometryReport:
    """All computed angle quantities for one family of subspaces."""

    N: int
    c: float
    ell2: float
    ell2_direct: float
    iota2: float
    ell_lo: float
    ell_hi: float
    iota_lo: float
    iota_hi: float
    theta0: float
    rate_base: float

    def __post_init__(self):
        if not -1e-9 <= self.c <= 1.0 + 1e-9:
            raise ValueError("c outside [0, 1]")
        expected = np.sqrt((self.N - 1) * (1.0 - min(self.c, 1.0)))
        if abs(self.ell2 - expected) > 1e-9:
            raise ValueError("ell2 field disagrees with sqrt((N-1)(1-c))")
        if self.iota2 < self.ell2 - 1e-9:
            raise ValueError("iota2 below ell2")
        if not (self.ell_lo <= self.ell_hi and self.iota_lo <= self.iota_hi):
            raise ValueError("a minimax lower bound exceeds its upper bound")
        if not 0.0 <= self.rate_base <= 1.0:
            raise ValueError("rate_base outside [0, 1]")


def geometry_report(cp: CyclicProduct) -> GeometryReport:
    """Compute every GeometryReport field for one instance."""
    c = friedrichs_number(cp)  # refuses anything but a product before cp.N is read
    n = cp.N
    ell_lo, ell_hi = minimax_inclination_estimate(cp, kind="global")
    iota_lo, iota_hi = minimax_inclination_estimate(cp, kind="inner")
    return GeometryReport(
        N=n,
        c=c,
        ell2=ell2(c, n),
        ell2_direct=ell2_direct(cp),
        iota2=iota2(cp),
        ell_lo=ell_lo,
        ell_hi=ell_hi,
        iota_lo=iota_lo,
        iota_hi=iota_hi,
        theta0=theta0(c, n),
        rate_base=rate_base(c, n),
    )


def sandwich_check(report: GeometryReport):
    """Evaluate the inequality chain among the angle quantities.

    Returns a list of (inequality, satisfied, slack) triples; an
    inequality holds when its slack is at least -1e-6.  The first
    two compare certified lower bounds: ell >= (N-1)(1-c)/(2N), and
    iota >= ell because for every dual weight, restricting the forms to a
    subspace of M^perp can only raise lambda_min.  The +inf answers of
    empty feasible sets are met as such: inf >= inf holds with slack 0,
    and the identity ell2_direct = ell2(c) is vacuous when every
    M_k ∩ M^perp is zero (iota2 = +inf), where c = 0 is a convention.
    """
    lower = (report.N - 1) * (1.0 - report.c) / (2.0 * report.N)
    identity_gap = 0.0 if math.isinf(report.iota2) else abs(report.ell2_direct - report.ell2)
    checks = [
        ("ell_lo >= (N-1)(1-c)/(2N)", report.ell_lo - lower),
        ("iota_lo >= ell_lo", 0.0 if report.iota_lo == report.ell_lo
         else report.iota_lo - report.ell_lo),
        ("iota2 >= ell2", report.iota2 - report.ell2),
        ("|ell2_direct - ell2(c)| small", 1e-6 - identity_gap),
    ]
    return [(name, bool(slack >= -1e-6), float(slack)) for name, slack in checks]
