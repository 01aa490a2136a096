"""Numerical range, spectral regions, and resolvent/power diagnostics.

The numerical range W(T) = {<Tx, x> : ||x|| = 1} of a contraction is
convex and compact, so its boundary is recovered from support functions:
for each angle phi the largest eigenvalue of the Hermitian part of
e^{-i phi} T is the support value h(phi), and the top eigenvector yields
a boundary point.  Products of N orthogonal projections have W(T)
contained in Omega_N (a disc-and-sector region with angle theta_N from
an explicit recursion) intersected with a Stolz domain S_theta0, where
sin(theta0) is the contraction base computed from the Friedrichs number.
Membership is decided from a margin alone, by ``stolz_contains`` and
``omega_contains``: for the Stolz domain the margin is ``stolz_margin``,
the exact signed distance in closed form; for Omega_N it is the smaller
of the disc and sector slacks of ``OmegaRegion.margin``.

The power profile n ||T^n (I - T)|| and the sampled resolvent quantity
|lambda - 1| ||(lambda I - T)^{-1}|| are the two operational faces of the
Ritt property; both are reported as measured values on declared grids,
never asserted as universal constants.  The profile is measured on the
core of T: with X_k X_k^H = P_k for the first and last factors, T^n (I - T)
has the singular values of X_N^H T^n (I - T) X_1 = C^{n-1} K_1, where
C = X_N^H T X_N and K_1 = X_N^H T (I - T) X_1 are r_N x r_N and r_N x r_1
per block (X_k has r_k columns, dim M_k for a family's basis), and C's
powers come by doubling.

The numerical range and the resolvent are measured on T's 2m-dimensional
core, m = min(r_1, r_N), where a product has one (``CyclicProduct._core``,
when 0 < 2m < b): an (n, b, 2m) stack Q with orthonormal columns whose
span S holds Ran T and Ran T^H, and C = Q^H T Q.  T maps S into itself and
vanishes on S^perp, and since dim S = 2m > m >= rank T, S holds a kernel
vector of T, so C is singular.  Hence W(T) = W(C), which contains 0, and
sigma_min(lambda I - T) = sigma_min(lambda I - C), which is at most
|lambda|: the zero block beside C adds nothing to either.  Plain matrices
and products without a core factor T's blocks.

For a real T both angle grids are symmetric under conjugation: W(T) is
its own mirror image, with h(-phi) = h(phi), and ||(lambda I - T)^{-1}||
and |lambda - 1| do not change when lambda is conjugated.  So for a T
whose factored stack (T's blocks or C) has no nonzero imaginary entry,
``numrange_boundary`` and ``resolvent_diagnostic`` factor only the closed
upper half of their grid, angles 2 pi j / m for j = 0..m // 2, and mirror
the rest; a complex T goes through the full grid.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalContractError
from .iteration import _rate_base_squared
from .linalg import _blocks_chunk, _finite, _powers, as_complex_matrix, eigh_sym

__all__ = [
    "OmegaRegion",
    "NumericalRangeBoundary",
    "numrange_boundary",
    "theta_recursion",
    "theta0",
    "stolz_contains",
    "stolz_margin",
    "omega_contains",
    "ContainmentReport",
    "containment_check",
    "ritt_power_diagnostic",
    "resolvent_diagnostic",
]

_ANGLES_PER_RADIUS = 64  # angle grid on each circle of ``resolvent_diagnostic``


def _grid_count(blocks: np.ndarray, count: int) -> int:
    """Points to evaluate of a ``count``-point angle grid 2 pi j / count.

    For real blocks the closed upper half, j = 0..count // 2: the support
    values and resolvent norms at the conjugate multipliers are the same,
    so the rest of the grid mirrors it.  For complex blocks all count.
    """
    return count if blocks.imag.any() else count // 2 + 1


def _stack(t) -> np.ndarray:
    """T's (n, b, b) block stack: a product's ``_t_blocks``, or a plain matrix as one block.

    Only this module takes a plain matrix (``models.convex_combination``);
    one that is not square, is empty or is not finite raises ``ValueError``.
    """
    if hasattr(t, "_t_blocks"):
        return t._t_blocks
    blocks = _finite(as_complex_matrix(t), "T")[None]
    if blocks.shape[-1] != blocks.shape[-2]:
        raise ValueError("T must be square")
    if blocks.size == 0:
        raise ValueError("T must not be empty")
    return blocks


def _core_stack(t):
    """The stack that ``numrange_boundary`` and ``resolvent_diagnostic``
    factor, and its chunk ``stack_chunk(b) // n``: C of a product's
    ``_core`` where it has one, else ``_stack(t)``."""
    core = getattr(t, "_core", None)
    c = _stack(t) if core is None else core[1]
    return c, _blocks_chunk(len(c), c.shape[-1])


def theta_recursion(n: int) -> float:
    """Angle theta_N: theta_1 = 0 and
    theta_{k+1} = arctan(2 tan(theta_k)/(1 + 2^{-k}) + sqrt((1 - 2^{-k})/(1 + 2^{-k}))).
    """
    if n < 1:
        raise ValueError("N must be >= 1")
    theta = 0.0
    for k in range(1, n):
        p = 2.0 ** (-k)
        theta = np.arctan(2.0 * np.tan(theta) / (1.0 + p) + np.sqrt((1.0 - p) / (1.0 + p)))
    return float(theta)


def theta0(c: float, n: int) -> float:
    """Stolz angle with sin(theta0) = (1 - 3(N-1)(1-c)/N^3)^{1/2}.

    c = 1 returns the pi/2 sentinel (the domain degenerates to the
    closed unit disc) so aligned instances still flow through reporting.
    """
    return float(np.arcsin(np.sqrt(_rate_base_squared(n, c=c))))


def _check_slack(slack: float) -> None:
    if not np.isfinite(slack):
        raise ValueError("slack must be finite")


def stolz_contains(z: complex, theta: float, slack: float = 0.0) -> bool:
    """Membership of z in the Stolz domain S_theta, decided within slack.

    True iff stolz_margin(z, theta) >= -slack; the margin is exact, so the
    verdict is exact up to rounding.  A non-finite slack is refused.
    """
    _check_slack(slack)
    return stolz_margin(z, theta) >= -slack


def stolz_margin(z: complex, theta: float) -> float:
    """Exact signed distance of z to S_theta, positive inside.

    This is the support-function minimum min_phi (h(phi) - Re(e^{-i phi} z))
    with h(phi) = max(sin theta, cos phi), in closed form: the minimizing
    direction is a kink phi = +-(pi/2 - theta) (the tangent segments), the
    direction of z when it points at the arc of the disc, or that of
    z - 1 when it points into the normal cone at the vertex 1.
    """
    if not 0.0 <= theta <= np.pi / 2:
        raise ValueError("theta must lie in [0, pi/2]")
    z = complex(z)
    r = float(np.sin(theta))
    s = float(np.cos(theta))
    x, y = z.real, abs(z.imag)
    m = r - x * r - y * s
    if x <= r * abs(z):
        m = min(m, r - abs(z))
    if x - 1.0 >= r * abs(z - 1.0):
        m = min(m, -abs(z - 1.0))
    return m


@dataclass(frozen=True)
class OmegaRegion:
    """Region of eq-style membership: a disc around 2^{-N} cut by a sector at 1.

    lambda belongs iff |lambda - 2^{-N}| <= 1 - 2^{-N} and
    |arg(1 - lambda)| <= theta_N, with arg(0) taken as 0 so that
    lambda = 1 is a member.
    """

    N: int
    thetaN: float = field(init=False)  # always theta_recursion(N)

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N must be >= 2")
        object.__setattr__(self, "thetaN", theta_recursion(self.N))

    def margin(self, z: complex) -> float:
        """min of the disc slack and the sector slack (heterogeneous units)."""
        z = complex(z)
        p = 2.0 ** (-self.N)
        disc = (1.0 - p) - abs(z - p)
        w = 1.0 - z
        sector = self.thetaN - (0.0 if abs(w) <= 1e-12 else abs(np.angle(w)))
        return float(min(disc, sector))


def omega_contains(z: complex, region: OmegaRegion, slack: float = 0.0) -> bool:
    """Both defining inequalities of the region, each within slack."""
    _check_slack(slack)
    return region.margin(z) >= -slack


@dataclass(frozen=True)
class NumericalRangeBoundary:
    """Support-function samples of the numerical range of a contraction."""

    angles: np.ndarray
    support: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        resid = np.abs(np.real(np.exp(-1j * self.angles) * self.points) - self.support)
        if resid.size and resid.max() > 1e-9:
            raise NumericalContractError("boundary point does not realize its support value")
        if self.points.size and np.abs(self.points).max() > 1.0 + 1e-9:
            raise NumericalContractError("numerical range leaves the closed unit disc")

    def __len__(self) -> int:
        return len(self.angles)


def numrange_boundary(t, m: int) -> NumericalRangeBoundary:
    """Boundary of W(T) at m equally spaced support angles.

    For each phi, h(phi) is the top eigenvalue of the Hermitian part of
    e^{-i phi} T and the boundary point is <Tx, x> at the corresponding
    top eigenvector, so Re(e^{-i phi} z(phi)) = h(phi) by construction.
    On T's (n, b, b) block stack h(phi) is the largest block value and x
    lies in the top block.  Where the product has a 2m-dimensional core,
    its (n, 2m, 2m) stack C takes the place of T's blocks, with b = 2m: T is
    C on span Q and 0 beside it, and C is singular, so W(T) = W(C) and
    the support values and points are C's (see the module docstring).
    The rotated stacks go to ``eigh_sym`` at most
    ``stack_chunk(b) // n`` angles per call, with the same bits as one
    call per angle and block.  For a real T only rows j = 0..m // 2 are
    factored; row m - j copies h from row j and takes the conjugate of its
    point, which is the boundary point at the multiplier conj(e^{-i phi_j})
    (within an ulp of e^{-i phi_{m-j}}).  The angles stay 2 pi j / m.
    """
    if m < 8:
        raise ValueError("need at least 8 support angles")
    t, chunk = _core_stack(t)
    count = _grid_count(t, m)
    angles = 2.0 * np.pi * np.arange(m) / m
    support = np.empty(m)
    points = np.empty(m, dtype=np.complex128)
    for start in range(0, count, chunk):
        part = angles[start:min(start + chunk, count)]
        w, v = eigh_sym(np.exp(-1j * part)[:, None, None, None] * t)
        top = np.argmax(w[:, :, -1], axis=1)
        support[start:start + len(part)] = w[np.arange(len(part)), top, -1]
        for j, k in enumerate(top.tolist()):
            x = v[j, k, :, -1]
            points[start + j] = x.conj() @ (t[k] @ x)
    # real T: row m - j is row j at the conjugate multiplier (nothing when count is m)
    support[count:] = support[m - count:0:-1]
    np.conjugate(points[m - count:0:-1], out=points[count:])
    return NumericalRangeBoundary(angles=angles, support=support, points=points)


@dataclass(frozen=True)
class ContainmentReport:
    """Per-point verdicts for W(T) ⊆ Omega_N ∩ S_theta0."""

    boundary: NumericalRangeBoundary
    in_omega: np.ndarray
    in_stolz: np.ndarray
    margins: np.ndarray

    @property
    def all_contained(self) -> bool:
        return bool(np.all(self.in_omega) and np.all(self.in_stolz))

    def worst(self):
        i = int(np.argmin(self.margins))
        return complex(self.boundary.points[i]), float(self.margins[i])


def containment_check(t, c: float, n: int, m: int = 256,
                      slack: float = 1e-7) -> ContainmentReport:
    """Check every sampled boundary point of W(T) against Omega_N ∩ S_theta0.

    theta0 is derived from the Friedrichs number c of the instance.  A
    point is inside a region when its margin is at least -slack; the
    report holds the verdicts, and a violation is left to the caller.
    """
    _check_slack(slack)
    boundary = numrange_boundary(t, m)
    region = OmegaRegion(n)
    theta = theta0(c, n)
    omega = np.array([region.margin(z) for z in boundary.points])
    stolz = np.array([stolz_margin(z, theta) for z in boundary.points])
    return ContainmentReport(boundary=boundary, in_omega=omega >= -slack,
                             in_stolz=stolz >= -slack, margins=np.minimum(omega, stolz))


def ritt_power_diagnostic(t, n_max: int):
    """Profile n ||T^n (I - T)|| for n = 1..n_max.

    Returns (sup value, argmax n, full profile).  Boundedness of the
    profile is one operational face of the Ritt property.  The norms are
    taken on the r_N x r_1 core of T.  With X_k the product's (n, b, r_k)
    spans (X_k X_k^H = P_k; the identity for a plain matrix), Ran T ⊆ M_N
    and T P_1 = T give T^n (I - T) = P_N T^n (I - T) P_1, so

        K_n = X_N^H T^n (I - T) X_1 = C^{n-1} K_1,  C = X_N^H T X_N,

    has the singular values of T^n (I - T).  C^0..C^{B-1} are formed
    once, by doubling (``linalg._powers``), with B =
    ``stack_chunk(max(r_N, r_1)) // n`` over the n blocks.  Each chunk of
    B norms is one stacked product C^j K_m (j < B) and one SVD call, each
    norm the largest over the blocks (0 on an empty core), and the next
    chunk starts from K_{m+B} = C K_{m+B-1}.  The profile agrees with one
    product T^n (I - T) per power to rounding, not bit for bit.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    blocks = _stack(t)
    if hasattr(t, "_spans"):
        first, last = t._spans[0], t._spans[-1]
    else:
        first = last = np.eye(blocks.shape[-1], dtype=np.complex128)[None]
    last_h = last.conj().swapaxes(-1, -2)
    core = last_h @ (blocks @ last)
    head = last_h @ (blocks @ (first - blocks @ first))  # K_1, then each chunk's first K_m
    width = max(core.shape[-1], head.shape[-1], 1)
    powers = _powers(core, min(_blocks_chunk(len(blocks), width), n_max))
    stack = np.empty(powers.shape[:-1] + head.shape[-1:], dtype=np.complex128)
    norms = np.empty(n_max)
    for start in range(0, n_max, len(powers)):
        count = min(len(powers), n_max - start)
        np.matmul(powers[:count], head, out=stack[:count])
        norms[start:start + count] = np.linalg.svd(
            stack[:count], compute_uv=False).max((1, 2), initial=0.0)
        head = core @ stack[count - 1]
    profile = np.arange(1, n_max + 1) * norms
    argmax = int(np.argmax(profile)) + 1
    return float(profile[argmax - 1]), argmax, profile


def resolvent_diagnostic(t, radii=None) -> float:
    """Sampled lower estimate of sup |lambda - 1| ||(lambda I - T)^{-1}||.

    lambda runs over ``_ANGLES_PER_RADIUS`` (64) equally spaced points on
    each circle |lambda| = r, pi among them; the default radii
    1 + 2^{-k}, k = 1..10, shrink geometrically toward the unit circle.
    The supremum over all |lambda| > 1 cannot be sampled exhaustively, so
    this is a measured value on a declared grid, and an empty grid
    raises.  For a real T only the closed upper half of each circle,
    angles 2 pi j / 64 for j = 0..32, is evaluated: sigma_min and
    |lambda - 1| are the same at conj(lambda).  Where the product has a
    2m-dimensional core, sigma_min(lambda I - T) = sigma_min(lambda I - C)
    exactly, since C is singular and T is 0 beside it, and the (n, 2m, 2m)
    stack C takes the place of T's blocks, with b = 2m.  The stacks
    lambda I - T over the (n, b, b) block stack go to the SVD at most
    ``stack_chunk(b) // n`` values of lambda per call, with the same
    smallest singular values, each the smallest over the blocks, as one
    call per lambda.
    """
    t, chunk = _core_stack(t)
    if radii is None:
        radii = [1.0 + 2.0 ** (-k) for k in range(1, 11)]
    radii = list(radii)
    if not radii:
        raise ValueError("need at least one radius")
    if not all(1.0 < r < np.inf for r in radii):
        raise ValueError("all radii must be finite and exceed 1")
    eye = np.eye(t.shape[-1], dtype=np.complex128)[None]
    count = _grid_count(t, _ANGLES_PER_RADIUS)
    phis = 2.0 * np.pi * np.arange(count) / _ANGLES_PER_RADIUS
    best = 0.0
    for r in radii:
        for start in range(0, count, chunk):
            lams = r * np.exp(1j * phis[start:start + chunk])
            sigma_min = np.linalg.svd(lams[:, None, None, None] * eye - t,
                                      compute_uv=False)[..., -1].min(axis=-1)
            for lam, s in zip(lams, sigma_min):
                if s <= 0.0:
                    raise NumericalContractError("singular resolvent at |lambda| > 1")
                best = max(best, abs(lam - 1.0) / s)
    return float(best)
