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
never asserted as universal constants.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalContractError
from .geometry import _rate_base_squared
from .linalg import _stack, eigh_sym

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
    return float(np.arcsin(np.sqrt(_rate_base_squared(c, n))))


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
    lies in the top block.  The rotated stacks go to ``eigh_sym`` at most
    ``stack_chunk(b) // n`` angles per call, with the same bits as one
    call per angle and block.
    """
    if m < 8:
        raise ValueError("need at least 8 support angles")
    t, chunk = _stack(t)
    angles = 2.0 * np.pi * np.arange(m) / m
    support = np.empty(m)
    points = np.empty(m, dtype=np.complex128)
    for start in range(0, m, chunk):
        part = angles[start:start + chunk]
        w, v = eigh_sym(np.array([np.exp(-1j * phi) * t for phi in part]))
        top = np.argmax(w[:, :, -1], axis=1)
        support[start:start + len(part)] = w[np.arange(len(part)), top, -1]
        for j, k in enumerate(top.tolist()):
            x = v[j, k, :, -1]
            points[start + j] = x.conj() @ (t[k] @ x)
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
    profile is one operational face of the Ritt property.  The products
    T^n (I - T) are formed one by one on T's (n, b, b) block stack and
    collected into stacks of at most ``stack_chunk(b) // n`` powers; one
    SVD call per stack gives the same norms, each the largest over the
    blocks, as one call per power.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    t, chunk = _stack(t)
    eye = np.eye(t.shape[-1], dtype=np.complex128)
    defect = eye - t
    stack = np.empty((min(chunk, n_max),) + t.shape, dtype=np.complex128)
    norms = np.empty(n_max)
    power = np.broadcast_to(eye, t.shape)
    for start in range(0, n_max, chunk):
        count = min(chunk, n_max - start)
        for j in range(count):
            power = power @ t
            np.matmul(power, defect, out=stack[j])
        norms[start:start + count] = np.linalg.svd(stack[:count], compute_uv=False).max((1, 2))
    profile = np.arange(1, n_max + 1) * norms
    argmax = int(np.argmax(profile)) + 1
    return float(profile[argmax - 1]), argmax, profile


def resolvent_diagnostic(t, radii=None, angles_per_radius: int = 64) -> float:
    """Sampled lower estimate of sup |lambda - 1| ||(lambda I - T)^{-1}||.

    lambda runs over ``angles_per_radius`` equally spaced points on each
    circle |lambda| = r; the default radii 1 + 2^{-k}, k = 1..10, shrink
    geometrically toward the unit circle.  The angle grid includes pi
    when the count is even.  The supremum over all |lambda| > 1 cannot be
    sampled exhaustively, so this is a measured value on a declared grid,
    and an empty grid raises.  The stacks lambda I - T over T's (n, b, b)
    block stack go to the SVD at most ``stack_chunk(b) // n`` values of
    lambda per call, with the same smallest singular values, each the
    smallest over the blocks, as one call per lambda.
    """
    t, chunk = _stack(t)
    if radii is None:
        radii = [1.0 + 2.0 ** (-k) for k in range(1, 11)]
    radii = list(radii)
    if not radii or angles_per_radius < 1:
        raise ValueError("need at least one radius and one angle per radius")
    if not all(1.0 < r < np.inf for r in radii):
        raise ValueError("all radii must be finite and exceed 1")
    eye = np.eye(t.shape[-1], dtype=np.complex128)[None]
    phis = 2.0 * np.pi * np.arange(angles_per_radius) / angles_per_radius
    best = 0.0
    for r in radii:
        for start in range(0, angles_per_radius, chunk):
            lams = [r * np.exp(1j * phi) for phi in phis[start:start + chunk]]
            sigma_min = np.linalg.svd(np.array([lam * eye - t for lam in lams]),
                                      compute_uv=False)[..., -1].min(axis=-1)
            for lam, s in zip(lams, sigma_min):
                if s <= 0.0:
                    raise NumericalContractError("singular resolvent at |lambda| > 1")
                best = max(best, abs(lam - 1.0) / s)
    return float(best)
