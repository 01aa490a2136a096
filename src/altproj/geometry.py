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
Gram block matrix, and both inclinations reduce to extreme eigenvalues
of restricted quadratic forms; those reductions are what is implemented
here, with an independent sphere-sampling maximizer kept alongside as an
oracle.  The minimax inclinations come from the eigenvalue dual
max over the simplex of lambda_min(sum_k lam_k A_k) (Overton 1992): any
weights give a lower bound and any explicit x an upper one.  With at
most three active subspaces the two meet; with four or more the dual can
have a gap, and the pair then reports it.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import eigh_sym, sym
from .subspace import Subspace, complement_within, intersection, orthogonal_complement

__all__ = [
    "GeometryReport",
    "GramBlock",
    "assemble_gram",
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


@dataclass(frozen=True)
class GramBlock:
    """Gram matrix of the stacked bases of the nonzero complements M_k ∩ M^perp.

    ``matrix`` is R x R with R = sum of the complement dimensions and
    ``slices[j]`` locates the j-th nonzero complement.  Diagonal blocks are identities since
    each basis is orthonormal.  ``eigenvalues`` (ascending) are the ones
    the validation computes.
    """

    matrix: np.ndarray
    slices: tuple
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = self.matrix
        if g.size and np.linalg.norm(g - g.conj().T, np.inf) > 1e-12:
            raise ValueError("Gram block matrix is not Hermitian to 1e-12")
        for sl in self.slices:
            block = g[sl, sl]
            if not np.allclose(block, np.eye(block.shape[0]), atol=1e-12):
                raise ValueError("diagonal Gram blocks must be identities")
        n = len(self.slices)
        w = np.zeros(0)
        if g.shape[0]:
            w, _ = eigh_sym(g)
            if w[0] < -1e-8 or w[-1] > n + 1e-8:
                raise ValueError(f"Gram eigenvalues leave [0, {n}]")
        object.__setattr__(self, "eigenvalues", w)


def _family(subspaces, m):
    """The family as a list and its intersection M (computed when ``m`` is None);
    fewer than two subspaces are refused."""
    subspaces = list(subspaces)
    if len(subspaces) < 2:
        raise ValueError("need at least two subspaces")
    return subspaces, intersection(subspaces) if m is None else m


def _feasible(subspaces, m: Subspace, kind: str) -> list:
    """Orthonormal bases of the nonzero feasible sets of the angle quantities:
    M^perp for ``kind="global"``, each M_n ∩ M^perp for ``kind="inner"``."""
    if kind == "global":
        spaces = [orthogonal_complement(m)]
    elif kind == "inner":
        spaces = [complement_within(s, m) for s in subspaces]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return [s.basis for s in spaces if s.dim]


def assemble_gram(subspaces, m: Subspace) -> GramBlock:
    """GramBlock of the family, blocks B_j^H B_k over the nonzero M_k ∩ M^perp."""
    bases = _feasible(subspaces, m, "inner")
    offsets = np.cumsum([0] + [b.shape[1] for b in bases])
    slices = tuple(slice(int(a), int(b)) for a, b in zip(offsets[:-1], offsets[1:]))
    if not bases:
        return GramBlock(np.zeros((0, 0), dtype=np.complex128), slices)
    b = np.concatenate(bases, axis=1)
    g = b.conj().T @ b
    return GramBlock(0.5 * (g + g.conj().T), slices)


def friedrichs_number(subspaces, m: Subspace | None = None) -> float:
    """Friedrichs number c of the family, via the Gram-block reduction.

    Equals (lambda_max(G) - 1)/(N - 1), using
    sum_{j != k} <m_j, m_k> = ||sum m_k||^2 - sum ||m_k||^2.  When every
    M_k ∩ M^perp is zero the constraint set is empty and c = 0 by
    convention.  The result is clamped to [0, 1].
    """
    subspaces, m = _family(subspaces, m)
    gram = assemble_gram(subspaces, m)
    if gram.matrix.shape[0] == 0:
        return 0.0
    return float(np.clip((gram.eigenvalues[-1] - 1.0) / (len(subspaces) - 1), 0.0, 1.0))


def friedrichs_number_sampled(subspaces, m: Subspace, num_samples: int, seed) -> float:
    """Sphere-sampling maximizer of the supremum defining c.

    Draws ``num_samples`` uniform points on the unit sphere of the
    stacked complement coordinates and evaluates
    (||sum_k m_k||^2 - 1)/(N - 1) at each.  This is an independent lower
    estimate of c kept as an oracle for the eigenvalue route; it is not
    clamped.
    """
    subspaces, m = _family(subspaces, m)
    bases = _feasible(subspaces, m, "inner")
    if not bases:
        return 0.0
    b = np.concatenate(bases, axis=1)
    total = b.shape[1]
    # a real instance has a real maximizer: sampling the real sphere
    # halves the dimension and sharpens the oracle considerably
    real = np.all(b.imag == 0.0)
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
        vals = np.sum(np.abs(b @ a) ** 2, axis=0)
        best = max(best, float(vals.max()))
        remaining -= take
    return (best - 1.0) / (len(subspaces) - 1)


def ell2(c: float, n: int) -> float:
    """l2-inclination from the Friedrichs number: sqrt((N-1)(1-c))."""
    if not 0.0 <= c <= 1.0:
        raise ValueError("c must lie in [0, 1]")
    if n < 2:
        raise ValueError("need at least two subspaces")
    return float(np.sqrt((n - 1) * (1.0 - c)))


def _l2_floors(subspaces, bases) -> list:
    """max(lambda_min(B^H (sum_k (I - P_k)) B), 0) for each orthonormal basis B.

    The squared l2-inclination over span B, the one route behind
    ``ell2_direct`` and ``iota2``.
    """
    d = subspaces[0].ambient_dim
    defect = len(subspaces) * np.eye(d, dtype=np.complex128)
    for sub in subspaces:
        defect -= sub.basis @ sub.basis.conj().T
    return [max(float(eigh_sym(b.conj().T @ defect @ b)[0][0]), 0.0) for b in bases]


def ell2_direct(subspaces, m: Subspace | None = None) -> float:
    """l2-inclination by its definition, as an extreme eigenvalue.

    Returns sqrt(lambda_min(Q^H (sum_k (I - P_k)) Q)) with Q an
    orthonormal basis of M^perp.  Independent of the Friedrichs route;
    the two agree through the identity ell2 = sqrt((N-1)(1-c)) whenever
    some M_k ∩ M^perp is nonzero.
    """
    subspaces, m = _family(subspaces, m)
    floors = _l2_floors(subspaces, _feasible(subspaces, m, "global"))
    if not floors:
        raise ValueError("intersection is the whole space; infimum over empty set")
    return float(np.sqrt(floors[0]))


def iota2(subspaces, m: Subspace | None = None) -> float:
    """Inner l2-inclination: the l2 infimum restricted to each M_n.

    min over n of sqrt(lambda_min(B_n^H (sum_k (I - P_k)) B_n)) with B_n
    an orthonormal basis of M_n ∩ M^perp; subspaces equal to M are
    skipped.  If all of them equal M the infima are over empty sets and
    the +inf sentinel is returned with a warning.
    """
    subspaces, m = _family(subspaces, m)
    floors = _l2_floors(subspaces, _feasible(subspaces, m, "inner"))
    if not floors:
        warnings.warn("every subspace equals the intersection; inner inclination is +inf")
        return float("inf")
    return float(np.sqrt(min(floors)))


# Barrier weights of the dual path relative to its start, down to the
# smallest that double precision resolves; X is read off at _PRIMAL_WEIGHT,
# where S is still well resolved.
_BARRIER_WEIGHTS = 10.0 ** -np.arange(15)
_PRIMAL_WEIGHT = 1e-8
_CLUSTER = 1e-7  # spread of the bottom eigenspace; dual weights of inactive forms


def _dual_path(forms: np.ndarray):
    """Log-barrier Newton path for max over the simplex of lambda_min(sum lam_k A_k).

    Homogeneous form: minimize sum mu_k subject to S = sum_k mu_k A_k - I > 0
    (optimum 1/ell^2 at lam = mu/sum mu) by damped Newton steps on
    sum mu/tau - log det S - sum log mu_k for shrinking tau.  Returns lam
    and X = S^{-1}/tr S^{-1} (trace one, tr(A_k X) near the optimum).
    """
    n, q = forms.shape[0], forms.shape[1]
    mu = np.full(n, 2.0 / np.linalg.eigvalsh(forms.sum(axis=0))[0])  # S >= I
    sig, u = eigh_sym(np.tensordot(mu, forms, 1) - np.eye(q))
    x_mat = np.eye(q) / q
    try:
        for weight, tau in zip(_BARRIER_WEIGHTS, mu.sum() * _BARRIER_WEIGHTS):
            for _ in range(50):
                scale = 1.0 / np.sqrt(sig)
                g = scale[:, None] * (u.conj().T @ forms @ u) * scale  # S^{-1/2} A_k S^{-1/2}
                flat = g.reshape(n, -1)
                hess = (flat @ flat.conj().T).real + np.diag(1.0 / mu**2)
                grad = 1.0 / tau - np.trace(g, axis1=1, axis2=2).real - 1.0 / mu
                step = np.linalg.solve(hess, -grad)
                decrement = np.sqrt(max(step @ hess @ step, 0.0))
                # the damped step stays feasible in exact arithmetic
                trial = mu + (step / (1.0 + decrement) if decrement > 0.25 else step)
                sig_t, u_t = eigh_sym(np.tensordot(trial, forms, 1) - np.eye(q))
                if sig_t[0] <= 0.0 or trial.min() <= 0.0:
                    raise np.linalg.LinAlgError("rounding left the feasible set")
                mu, sig, u = trial, sig_t, u_t
                if weight >= _PRIMAL_WEIGHT:
                    x_mat = (u / sig) @ u.conj().T / np.sum(1.0 / sig)
                if decrement < 0.1:
                    break
    except np.linalg.LinAlgError:  # rounding has swamped the barrier: stop here
        pass
    return mu / mu.sum(), x_mat


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


def _minimax_bounds(subspaces, basis: np.ndarray) -> tuple:
    """(lower, upper) for inf over x = B v of max_k dist(x, M_k)/||x||.

    With A_k = B^H (I - P_k) B, any simplex weights give the lower bound
    sqrt(lambda_min(sum_k lam_k A_k)) (weak duality); the upper bound is
    the ratio at an explicit x from the final bottom eigenspace.
    """
    # A_k as R^H R with R = (I - P_k) B: small distances keep their accuracy
    rs = [basis - sub.basis @ (sub.basis.conj().T @ basis) for sub in subspaces]
    forms = sym(np.stack([r.conj().T @ r for r in rs]))
    lam, x_mat = _dual_path(forms)
    w, v = eigh_sym(np.tensordot(lam, forms, 1))
    bottom = v[:, w - w[0] <= _CLUSTER]
    gw, gv = eigh_sym(bottom.conj().T @ x_mat @ bottom)
    keep = gw > 1e-12 * gw[-1]
    y = _rank_one_factor(bottom.conj().T @ forms @ bottom, gv[:, keep] * np.sqrt(gw[keep]),
                         lam > _CLUSTER)
    upper = float(min(max(sub.distance(x) for sub in subspaces) / np.linalg.norm(x)
                      for x in (basis @ bottom @ y).T))
    # rounding can leave the computed lower bound a few ulps above the upper
    return min(float(np.sqrt(max(w[0], 0.0))), upper), upper


def minimax_inclination_estimate(subspaces, m: Subspace | None = None, *,
                                 kind: str = "global") -> tuple:
    """Certified (lower, upper) bounds of the minimax inclination ell or iota.

    ell (``kind="global"``): inf of max_k dist(x, M_k)/dist(x, M) over
    x in M^perp; iota (``kind="inner"``): the same over x in M_n ∩ M^perp,
    minimized over n.  The bounds meet to rounding when at most three
    subspaces are active at the optimum.  Empty feasible sets give (inf, inf);
    a family of fewer than two subspaces is refused, as by every angle quantity.
    """
    subspaces, m = _family(subspaces, m)
    bounds = [_minimax_bounds(subspaces, b) for b in _feasible(subspaces, m, kind)]
    lows, highs = zip(*bounds) if bounds else ((math.inf,), (math.inf,))
    return min(lows), min(highs)


def _rate_base_squared(c: float, n: int) -> float:
    """b = 1 - 3(N-1)(1-c)/N^3 clipped to [0, 1], the squared rate base.

    The one copy behind ``rate_base``, ``iteration.rate_bound`` and
    ``spectral.theta0``.
    """
    if not 0.0 <= c <= 1.0:
        raise ValueError("c must lie in [0, 1]")
    if n < 2:
        raise ValueError("need at least two subspaces")
    return float(np.clip(1.0 - 3.0 * (n - 1) * (1.0 - c) / n**3, 0.0, 1.0))


def rate_base(c: float, n: int) -> float:
    """The per-step contraction base (1 - 3(N-1)(1-c)/N^3)^{1/2}."""
    return float(np.sqrt(_rate_base_squared(c, n)))


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


def geometry_report(subspaces, m: Subspace | None = None) -> GeometryReport:
    """Compute every GeometryReport field for one instance."""
    from .spectral import theta0 as theta0_fn

    subspaces, m = _family(subspaces, m)
    n = len(subspaces)
    c = friedrichs_number(subspaces, m)
    ell_lo, ell_hi = minimax_inclination_estimate(subspaces, m, kind="global")
    iota_lo, iota_hi = minimax_inclination_estimate(subspaces, m, kind="inner")
    return GeometryReport(
        N=n,
        c=c,
        ell2=ell2(c, n),
        ell2_direct=ell2_direct(subspaces, m),
        iota2=iota2(subspaces, m),
        ell_lo=ell_lo,
        ell_hi=ell_hi,
        iota_lo=iota_lo,
        iota_hi=iota_hi,
        theta0=theta0_fn(c, n),
        rate_base=rate_base(c, n),
    )


def sandwich_check(report: GeometryReport, tol: float = 1e-6):
    """Evaluate the inequality chain among the angle quantities.

    Returns a list of (inequality, satisfied, slack) triples.  The first
    two compare certified lower bounds: ell >= (N-1)(1-c)/(2N), and
    iota >= ell because for every dual weight, restricting the forms to a
    subspace of M^perp can only raise lambda_min.
    """
    lower = (report.N - 1) * (1.0 - report.c) / (2.0 * report.N)
    identity_gap = abs(report.ell2_direct - report.ell2)
    checks = [
        ("ell_lo >= (N-1)(1-c)/(2N)", report.ell_lo - lower),
        ("iota_lo >= ell_lo", report.iota_lo - report.ell_lo),
        ("iota2 >= ell2", report.iota2 - report.ell2),
        ("|ell2_direct - ell2(c)| small", tol - identity_gap),
    ]
    return [(name, bool(slack >= -tol), float(slack)) for name, slack in checks]
