"""Angles between families of subspaces and the inequalities relating them.

Central quantities, for subspaces M_1, ..., M_N with intersection M:

* the Friedrichs number ``c``, the supremum of
  (1/(N-1)) sum_{j != k} <m_j, m_k> over m_k in M_k ∩ M^perp with
  sum ||m_k||^2 = 1;
* the l2-inclination ``ell2 = sqrt((N-1)(1-c))``, equivalently the
  smallest constant in sum_k dist(x, M_k)^2 >= ell2^2 dist(x, M)^2;
* the inner l2-inclination ``iota2``, the same infimum restricted to
  x in M_n \\ M, minimized over n;
* heuristic upper estimates of the minimax inclinations ``ell`` and
  ``iota`` (infima of max_k dist(x,M_k)/dist(x,M)).

The supremum defining ``c`` reduces exactly to the top eigenvalue of a
Gram block matrix, and both inclinations reduce to extreme eigenvalues
of restricted quadratic forms; those reductions are what is implemented
here, with an independent sphere-sampling maximizer kept alongside as an
oracle.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .linalg import eigh_sym
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
    """Gram matrix of the stacked bases of the complements M_k ∩ M^perp.

    ``matrix`` is R x R with R = sum of the complement dimensions and
    ``slices[k]`` locates block k.  Diagonal blocks are identities since
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


def _complements(subspaces, m):
    return [complement_within(s, m) for s in subspaces]


def assemble_gram(subspaces, m: Subspace) -> GramBlock:
    """GramBlock of the family, blocks B_j^H B_k over M_k ∩ M^perp."""
    comps = _complements(subspaces, m)
    dims = [c.dim for c in comps]
    offsets = np.concatenate([[0], np.cumsum(dims)])
    slices = tuple(slice(int(a), int(b)) for a, b in zip(offsets[:-1], offsets[1:]))
    if offsets[-1] == 0:
        return GramBlock(np.zeros((0, 0), dtype=np.complex128), slices)
    b = np.concatenate([c.basis for c in comps], axis=1)
    g = b.conj().T @ b
    return GramBlock(0.5 * (g + g.conj().T), slices)


def friedrichs_number(subspaces, m: Subspace | None = None) -> float:
    """Friedrichs number c of the family, via the Gram-block reduction.

    Equals (lambda_max(G) - 1)/(N - 1), using
    sum_{j != k} <m_j, m_k> = ||sum m_k||^2 - sum ||m_k||^2.  When every
    M_k ∩ M^perp is zero the constraint set is empty and c = 0 by
    convention.  The result is clamped to [0, 1].
    """
    subspaces = list(subspaces)
    n = len(subspaces)
    if n < 2:
        raise ValueError("need at least two subspaces")
    if m is None:
        m = intersection(subspaces)
    gram = assemble_gram(subspaces, m)
    if gram.matrix.shape[0] == 0:
        return 0.0
    return float(np.clip((gram.eigenvalues[-1] - 1.0) / (n - 1), 0.0, 1.0))


def friedrichs_number_sampled(subspaces, m: Subspace, num_samples: int, seed) -> float:
    """Sphere-sampling maximizer of the supremum defining c.

    Draws ``num_samples`` uniform points on the unit sphere of the
    stacked complement coordinates and evaluates
    (||sum_k m_k||^2 - 1)/(N - 1) at each.  This is an independent lower
    estimate of c kept as an oracle for the eigenvalue route; it is not
    clamped.
    """
    subspaces = list(subspaces)
    n = len(subspaces)
    if n < 2:
        raise ValueError("need at least two subspaces")
    comps = _complements(subspaces, m)
    total = sum(c.dim for c in comps)
    if total == 0:
        return 0.0
    b = np.concatenate([c.basis for c in comps if c.dim], axis=1)
    # a real instance has a real maximizer: sampling the real sphere
    # halves the dimension and sharpens the oracle considerably
    real = bool(np.isrealobj(b)) or not np.iscomplexobj(b) or np.all(b.imag == 0.0)
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
    return (best - 1.0) / (n - 1)


def ell2(c: float, n: int) -> float:
    """l2-inclination from the Friedrichs number: sqrt((N-1)(1-c))."""
    if not 0.0 <= c <= 1.0:
        raise ValueError("c must lie in [0, 1]")
    if n < 2:
        raise ValueError("need at least two subspaces")
    return float(np.sqrt((n - 1) * (1.0 - c)))


def _sum_defect(subspaces) -> np.ndarray:
    """Matrix of sum_k (I - P_k)."""
    d = subspaces[0].ambient_dim
    s = len(subspaces) * np.eye(d, dtype=np.complex128)
    for sub in subspaces:
        s -= sub.basis @ sub.basis.conj().T
    return s


def ell2_direct(subspaces, m: Subspace | None = None) -> float:
    """l2-inclination by its definition, as an extreme eigenvalue.

    Returns sqrt(lambda_min(Q^H (sum_k (I - P_k)) Q)) with Q an
    orthonormal basis of M^perp.  Independent of the Friedrichs route;
    the two agree through the identity ell2 = sqrt((N-1)(1-c)) whenever
    some M_k ∩ M^perp is nonzero.
    """
    subspaces = list(subspaces)
    if len(subspaces) < 2:
        raise ValueError("need at least two subspaces")
    if m is None:
        m = intersection(subspaces)
    q = orthogonal_complement(m)
    if q.dim == 0:
        raise ValueError("intersection is the whole space; infimum over empty set")
    a = q.basis.conj().T @ _sum_defect(subspaces) @ q.basis
    w, _ = eigh_sym(a)
    return float(np.sqrt(max(w[0], 0.0)))


def iota2(subspaces, m: Subspace | None = None) -> float:
    """Inner l2-inclination: the l2 infimum restricted to each M_n.

    min over n of sqrt(lambda_min(B_n^H (sum_k (I - P_k)) B_n)) with B_n
    an orthonormal basis of M_n ∩ M^perp; subspaces equal to M are
    skipped.  If all of them equal M the infima are over empty sets and
    the +inf sentinel is returned with a warning.
    """
    subspaces = list(subspaces)
    if len(subspaces) < 2:
        raise ValueError("need at least two subspaces")
    if m is None:
        m = intersection(subspaces)
    defect = _sum_defect(subspaces)
    vals = []
    for comp in _complements(subspaces, m):
        if comp.dim == 0:
            continue
        w, _ = eigh_sym(comp.basis.conj().T @ defect @ comp.basis)
        vals.append(max(float(w[0]), 0.0))
    if not vals:
        warnings.warn("every subspace equals the intersection; inner inclination is +inf")
        return float("inf")
    return float(np.sqrt(min(vals)))


def _max_ratio(subspaces, point: np.ndarray) -> float:
    nx = np.linalg.norm(point)
    if nx < 1e-150:
        return 2.0  # off-scale; any feasible point beats this
    return max(float(np.linalg.norm(point - s.project(point)) / nx) for s in subspaces)


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _search_over(subspaces, feasible_basis: np.ndarray, restarts: int, seed) -> float:
    """Multi-start Nelder-Mead upper estimate of inf max_k dist ratio."""
    q = feasible_basis.shape[1]

    def objective(v):
        x = feasible_basis @ (v[:q] + 1j * v[q:])
        return _max_ratio(subspaces, x)

    best = np.inf
    for child_seed in _seed_sequence(seed).spawn(restarts):
        v0 = np.random.default_rng(child_seed).standard_normal(2 * q)
        res = minimize(objective, v0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
        best = min(best, float(res.fun))
    return best


def minimax_inclination_estimate(subspaces, m: Subspace | None = None, *,
                                 kind: str = "global", restarts: int = 8, seed) -> float:
    """Upper estimate of the minimax inclination ell (global) or iota (inner).

    Best value of max_k dist(x, M_k)/dist(x, M) found by seeded
    multi-start local search over the unit sphere of M^perp (global) or
    of each M_n ∩ M^perp (inner).  This is only an upper bound on the
    infimum; no convergence to the true value is claimed, and nothing
    downstream relies on these numbers for a guarantee.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if kind not in ("global", "inner"):
        raise ValueError(f"unknown kind {kind!r}")
    subspaces = list(subspaces)
    if m is None:
        m = intersection(subspaces)
    if kind == "global":
        q = orthogonal_complement(m)
        if q.dim == 0:
            return float("inf")
        return _search_over(subspaces, q.basis, restarts, seed)
    estimates = []
    seeds = _seed_sequence(seed).spawn(len(subspaces))
    for comp, sub_seed in zip(_complements(subspaces, m), seeds):
        if comp.dim == 0:
            continue
        estimates.append(_search_over(subspaces, comp.basis, restarts, sub_seed))
    return min(estimates) if estimates else float("inf")


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
    ell_est: float
    iota_est: float
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
        if not 0.0 <= self.rate_base <= 1.0:
            raise ValueError("rate_base outside [0, 1]")


def geometry_report(subspaces, m: Subspace | None = None, *,
                    seed, restarts: int = 8) -> GeometryReport:
    """Compute every GeometryReport field for one instance."""
    from .spectral import theta0 as theta0_fn

    subspaces = list(subspaces)
    if m is None:
        m = intersection(subspaces)
    n = len(subspaces)
    c = friedrichs_number(subspaces, m)
    seeds = _seed_sequence(seed).spawn(2)
    return GeometryReport(
        N=n,
        c=c,
        ell2=ell2(c, n),
        ell2_direct=ell2_direct(subspaces, m),
        iota2=iota2(subspaces, m),
        ell_est=minimax_inclination_estimate(subspaces, m, kind="global",
                                             restarts=restarts, seed=seeds[0]),
        iota_est=minimax_inclination_estimate(subspaces, m, kind="inner",
                                              restarts=restarts, seed=seeds[1]),
        theta0=theta0_fn(c, n),
        rate_base=rate_base(c, n),
    )


def sandwich_check(report: GeometryReport, tol: float = 1e-6):
    """Evaluate the inequality chain among the angle quantities.

    Returns a list of (inequality, satisfied, slack) triples.  The lower
    bound on ell is sound for an upper estimate (ell_est >= ell >= bound);
    the ell_est vs iota_est comparison is only a heuristic diagnostic,
    both being upper estimates of different infima.
    """
    lower = (report.N - 1) * (1.0 - report.c) / (2.0 * report.N)
    identity_gap = abs(report.ell2_direct - report.ell2)
    checks = [
        ("ell_est >= (N-1)(1-c)/(2N)", report.ell_est - lower),
        ("iota_est >= ell_est  [heuristic]", report.iota_est - report.ell_est),
        ("iota2 >= ell2", report.iota2 - report.ell2),
        ("|ell2_direct - ell2(c)| small", tol - identity_gap),
    ]
    return [(name, bool(slack >= -tol), float(slack)) for name, slack in checks]
