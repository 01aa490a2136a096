"""Problem-instance generators.

Random subspace families, the two-line instance, the block-diagonal
quasi-aligned model (arbitrarily slow convergence at a finite
truncation), the slow-vector construction with its norm guarantee, and
convex combinations of projection products.  Every generator is
deterministic given its seed, so instances can be reproduced
bit-for-bit from a short description.  The block model stores only its
angles and hands the line bases of its 2x2 blocks to the product, so
building and sweeping it takes O(K) memory at K blocks.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, NumericalContractError
from .iteration import CyclicProduct, build_cyclic
from .subspace import Subspace, orthonormalize

__all__ = [
    "two_lines",
    "random_instance",
    "BlockAlignedModel",
    "block_aligned",
    "slow_vector",
    "convex_combination",
    "InstanceSpec",
    "Instance",
]


def two_lines(theta: float):
    """Two lines in the plane at angle theta; the Friedrichs number is cos(theta)."""
    if not 0.0 < theta <= math.pi / 2:
        raise ValueError("theta must lie in (0, pi/2]")
    m1 = orthonormalize([[1.0, 0.0]])
    m2 = orthonormalize([[math.cos(theta), math.sin(theta)]])
    return m1, m2


def random_instance(d: int, dims, seed) -> list:
    """N random subspaces of the given ranks, Gaussian bases orthonormalized."""
    dims = [int(r) for r in dims]
    if len(dims) < 2:
        raise ValueError("need at least two subspaces")
    if any(not 1 <= r <= d for r in dims):
        raise ValueError("each rank must satisfy 1 <= rank <= d")
    if all(r == d for r in dims):
        raise ValueError("all subspaces would equal the whole space; nothing to project")
    rng = np.random.default_rng(seed)
    return [orthonormalize(rng.standard_normal((d, r))) for r in dims]


@dataclass(frozen=True)
class BlockAlignedModel:
    """2x2-block model: per block, a fixed line and one at angle theta_k.

    Angles decrease, so the last block relaxes slowest and the overall
    Friedrichs number is cos(theta_K) -> 1 as the angles shrink.  T acts
    per block as cos(theta_k) u2 u1^T, giving the exact law
    T^n u1 = cos^{2n-1}(theta_k) u2; ``error_norm`` evaluates it.

    The model stores its angles only.  The d x K bases ``m1`` and ``m2``
    are built on first access, and ``cyclic()`` builds the product from
    its line bases, e1 and u_k = (cos, sin)(theta_k) as (K, 2, 1) spans,
    so no d x d or d x K array is formed unless a routine reads one.
    """

    angles: np.ndarray
    angle_rule: str | None = None

    def __post_init__(self):
        a = self.angles
        if a.ndim != 1 or len(a) < 1:
            raise ValueError("need at least one block")
        if not (a.min() > 0.0 and a.max() <= math.pi / 2 + 1e-15):
            raise ValueError("angles must lie in (0, pi/2]")
        if len(a) > 1 and np.max(np.diff(a)) >= 0.0:
            raise ValueError("angles must decrease")
        a.setflags(write=False)

    @property
    def k_blocks(self) -> int:
        return len(self.angles)

    @property
    def ambient_dim(self) -> int:
        return 2 * len(self.angles)

    @cached_property
    def _directions(self) -> np.ndarray:
        """(K, 2) array of u_k = (cos theta_k, sin theta_k), from ``math``."""
        return np.array([(math.cos(a), math.sin(a)) for a in self.angles])

    @cached_property
    def m1(self) -> Subspace:
        return self._line_basis(np.array([1.0, 0.0]))

    @cached_property
    def m2(self) -> Subspace:
        return self._line_basis(self._directions)

    def _line_basis(self, u) -> Subspace:
        """Subspace with block-k column u_k placed in ambient rows 2k, 2k+1."""
        k = self.k_blocks
        b = np.zeros((k, 2, k))
        b[np.arange(k), :, np.arange(k)] = u
        return Subspace(basis=b.reshape(2 * k, k))

    @property
    def subspaces(self):
        return (self.m1, self.m2)

    def cyclic(self) -> CyclicProduct:
        """T = P_2 P_1 from the line bases of its factors; see ``CyclicProduct``."""
        e1 = np.zeros((self.k_blocks, 2, 1))
        e1[:, 0] = 1.0
        return CyclicProduct((e1, self._directions[:, :, None]))

    def _block_coefficients(self, coeffs) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.k_blocks,):
            raise ValueError("need one coefficient per block")
        return coeffs

    def m1_vector(self, coeffs) -> np.ndarray:
        """Ambient vector with block-k coefficient coeffs[k] on the M1 line."""
        x = np.zeros(self.ambient_dim)
        x[0::2] = self._block_coefficients(coeffs)
        return x

    def error_norm(self, coeffs, n: int) -> float:
        """Exact ||T^n x|| for x = m1_vector(coeffs): block factors cos^{2n-1}."""
        if n < 0:
            raise ValueError("n must be >= 0")
        coeffs = self._block_coefficients(coeffs)
        if n == 0:
            return float(np.linalg.norm(coeffs))
        return float(np.linalg.norm(coeffs * np.cos(self.angles) ** (2 * n - 1)))


def block_aligned(k_blocks: int, angle_rule) -> BlockAlignedModel:
    """Assemble the block model; angle_rule is "1/k", "1/sqrt(k)" or a list."""
    if k_blocks < 1:
        raise ValueError("k_blocks must be >= 1")
    rule_name = None
    if isinstance(angle_rule, str):
        if angle_rule == "1/k":
            angles = 1.0 / np.arange(1, k_blocks + 1)
        elif angle_rule == "1/sqrt(k)":
            angles = 1.0 / np.sqrt(np.arange(1, k_blocks + 1))
        else:
            raise ValueError("angle_rule must be '1/k', '1/sqrt(k)' or a list")
        rule_name = angle_rule
    else:
        angles = np.asarray(angle_rule, dtype=float)
        if angles.shape != (k_blocks,):
            raise ValueError("custom angle list must have one angle per block")
    return BlockAlignedModel(angles=angles, angle_rule=rule_name)


def _theta_needed(n_end: int, eps: float) -> float:
    """Largest block angle whose coverage reaches n_end."""
    if n_end < 1:
        return math.pi / 2
    q = (1.0 / (1.0 + eps / 2.0)) ** (1.0 / (2 * n_end - 1))
    return math.acos(q)


def _rule_index(rule: str, theta: float) -> int:
    if rule == "1/k":
        return max(1, math.ceil(1.0 / theta))
    return max(1, math.ceil(1.0 / theta**2))  # 1/sqrt(k)


def slow_vector(model: BlockAlignedModel, r, horizon: int, eps: float) -> np.ndarray:
    """A vector whose iteration error dominates the target sequence r.

    Greedy construction: block coefficients a = (1 + eps/2) r_{n_start}
    on successive M1 directions, each block serving the range of sweeps
    over which its decay cos^{2n-1} stays above 1/(1 + eps/2).  Range
    boundaries are placed where r has fallen enough for the next
    coefficient to fit a geometrically shrinking share of the norm
    budget, which keeps ||x|| <= (1 + eps) r_0 by construction.
    Guarantees e_n = ||T^n x|| >= r_n for n = 0..horizon.
    """
    r = np.asarray(r, dtype=float)
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if len(r) < horizon + 1:
        raise ValueError("need a target value for every n <= horizon")
    if not (np.isfinite(r[: horizon + 1]).all() and np.min(r[: horizon + 1]) > 0.0):
        raise ValueError("targets must be positive and finite")
    if horizon >= 1 and np.max(np.diff(r[: horizon + 1])) > 1e-15:
        raise ValueError("targets must be non-increasing")
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    inflate = 1.0 + eps / 2.0
    try:
        with np.errstate(over="raise"):
            budget = ((1.0 + eps) ** 2 - inflate**2) * r[0] ** 2
    except ArithmeticError:  # OverflowError from floats, FloatingPointError from numpy
        raise ValueError("the norm budget ((1 + eps) r_0)^2 overflows") from None

    kb = model.k_blocks
    coeffs = np.zeros(kb)
    if horizon == 0:
        coeffs[0] = (1.0 + eps) * r[0]
        return model.m1_vector(coeffs)

    # the slowest block must survive the whole horizon relative to r
    if math.cos(model.angles[-1]) ** (2 * horizon) < r[horizon] / r[0]:
        _fail_capacity(model, horizon, eps)

    share = budget / 2.0
    n_start = 0
    block = -1  # last block index used
    used = []
    while n_start <= horizon:
        # end of this range: where the next coefficient fits its share
        n_next = n_start + 1
        while n_next <= horizon and (inflate * r[n_next]) ** 2 > share:
            n_next += 1
        n_end = min(n_next - 1, horizon)
        theta_max = _theta_needed(n_end, eps)
        k = block + 1
        while k < kb and model.angles[k] > theta_max:
            k += 1
        if k >= kb:
            _fail_capacity(model, horizon, eps)
        coeffs[k] = inflate * r[n_start]
        used.append(k)
        block = k
        n_start = n_end + 1
        share /= 2.0

    x = model.m1_vector(coeffs)
    # self-check against the exact per-block law (``error_norm``) for every
    # n at once: a row coeffs_k cos^(2n-1) theta_k per n over the blocks in
    # use, and coeffs_k itself at n = 0
    powers = np.maximum(2.0 * np.arange(horizon + 1) - 1.0, 0.0)[:, None]
    table = coeffs[used] * np.cos(model.angles[used]) ** powers
    if (np.linalg.norm(table, axis=1) < r[: horizon + 1] * (1.0 - 1e-12)).any():
        raise NumericalContractError("constructed vector misses the target sequence")
    if np.linalg.norm(x) > (1.0 + eps) * r[0] * (1.0 + 1e-12):
        raise NumericalContractError("constructed vector exceeds the norm budget")
    return x


def _fail_capacity(model: BlockAlignedModel, horizon: int, eps: float):
    """Raise with the smallest block count that would have sufficed."""
    theta = _theta_needed(horizon, eps)
    if model.angle_rule is not None:
        k_min = _rule_index(model.angle_rule, theta)
        raise CapacityError(
            f"increase K or relax horizon (smallest sufficient K: {k_min})")
    raise CapacityError(
        f"increase K or relax horizon (need a block angle <= {theta:.6g})")


def convex_combination(products, weights) -> np.ndarray:
    """Weighted average sum w_i T_i of ``CyclicProduct`` objects, a dense matrix."""
    products = list(products)
    if not products:
        raise ValueError("need at least one product")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(products),):
        raise ValueError("need one weight per product")
    if not np.isfinite(weights).all():
        raise ValueError("weights must be finite")
    if weights.min() <= 0.0:
        raise ValueError("weights must be positive")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError("weights must sum to 1 within 1e-12")
    mats = [p.matrix for p in products]
    d = mats[0].shape[0]
    if any(m.shape != (d, d) for m in mats):
        raise ValueError("products live in different ambient dimensions")
    out = np.zeros((d, d), dtype=np.complex128)
    for w, m in zip(weights, mats):
        out += w * m
    return out


# The one instance schema: the parameter names of each kind, in canonical
# order; the kinds in _SEEDED also read InstanceSpec.seed.  The CLI's
# instance files take their field names from here.
_PARAMETERS = {"random": ("d", "dims"), "two_lines": ("theta",),
               "block_aligned": ("k_blocks", "angle_rule"),
               "convex_combination": ("components", "weights")}
_SEEDED = ("random",)


@dataclass(frozen=True)
class Instance:
    """A realized instance: a subspace family and/or a dense operator.

    A convex combination keeps its realized ``components`` and a
    block_aligned instance its ``model``.  ``cyclic()`` builds the
    projection product on first use, through ``model.cyclic()`` when there
    is a model, and returns that object afterwards.
    """

    spec: "InstanceSpec"
    family: tuple | None
    matrix: np.ndarray | None
    components: tuple = ()
    model: BlockAlignedModel | None = None

    def cyclic(self) -> CyclicProduct:
        if self.model is None and self.family is None:
            raise ValueError(f"instances of kind '{self.spec.kind}' carry no subspace family")
        return self._cyclic

    @cached_property
    def _cyclic(self) -> CyclicProduct:
        if self.model is not None:
            return self.model.cyclic()
        return build_cyclic(self.family)


@dataclass(frozen=True)
class InstanceSpec:
    """Reproducible description of an instance; realize() is deterministic."""

    kind: str
    parameters: dict
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in _PARAMETERS:
            raise ValueError(f"kind must be one of {tuple(_PARAMETERS)}")
        names = _PARAMETERS[self.kind]
        bad = ([f"missing {k!r}" for k in names if k not in self.parameters]
               + [f"unknown {k!r}" for k in self.parameters if k not in names])
        if bad:
            raise ValueError(f"kind '{self.kind}' parameters: {', '.join(bad)}")
        comps = self.parameters.get("components")
        if comps is not None:  # component dicts become specs once, here
            comps = tuple(c if isinstance(c, InstanceSpec) else InstanceSpec(**c) for c in comps)
            if any(c.kind == "convex_combination" for c in comps):
                raise ValueError("convex combinations do not nest")
            object.__setattr__(self, "parameters", {**self.parameters, "components": comps})

    def realize(self) -> Instance:
        p = self.parameters
        if self.kind == "random":
            if self.seed is None:
                raise ValueError("random instances require a seed")
            subs = random_instance(int(p["d"]), p["dims"], self.seed)
            return Instance(spec=self, family=tuple(subs), matrix=None)
        if self.kind == "two_lines":
            return Instance(spec=self, family=two_lines(float(p["theta"])), matrix=None)
        if self.kind == "block_aligned":
            model = block_aligned(int(p["k_blocks"]), p["angle_rule"])
            return Instance(spec=self, family=None, matrix=None, model=model)
        comps = tuple(c.realize() for c in p["components"])
        mat = convex_combination([c.cyclic() for c in comps], p["weights"])
        return Instance(spec=self, family=None, matrix=mat, components=comps)
