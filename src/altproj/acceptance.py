"""End-to-end acceptance battery for the whole package.

Eleven seeded checks, each verifying an advertised guarantee against an
independent route: closed-form laws, a sphere-sampling oracle, permutation
re-summation, or direct iteration.  The random instance pool is frozen by
MASTER_SEED, so every run reproduces the same measured margins; nothing is
drawn from wall-clock entropy.

``run_all`` returns one CriterionResult per criterion and never raises: a
crash inside a criterion is reported as that criterion failing.  The CLI
``suite`` command prints one ``CriterionResult.line()`` per criterion and
exits nonzero when any failed; the test suite asserts them individually.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalContractError
from .fracpow import decay_slope, make_alpha_vector, partial_sum_characterization
from .geometry import (
    ell2,
    ell2_direct,
    friedrichs_number,
    friedrichs_number_sampled,
    iota2,
)
from .iteration import (
    CyclicProduct,
    build_cyclic,
    iterate,
    operator_error_norm,
    sweep_diagnostic,
    unconditional_sum_test,
)
from .models import block_aligned, convex_combination, random_instance, slow_vector, two_lines
from .spectral import (
    containment_check,
    resolvent_diagnostic,
    ritt_power_diagnostic,
    theta_recursion,
)

__all__ = [
    "MASTER_SEED",
    "N_POOL",
    "CriterionResult",
    "PoolEntry",
    "build_pool",
    "criterion_ids",
    "iter_results",
    "run_all",
]

MASTER_SEED = 77
N_POOL = 200

# salts decorrelate the per-purpose streams derived from one instance seed
_SALT_START = 0xABCDEF  # start vectors of iteration-based checks
_SALT_SWEEP = 0x777  # sample draws for the sweep inequality
_SALT_SAMPLER = 0x5A5A  # sphere-sampling oracle
_SALT_PERM = 0x123  # permutation stream


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one acceptance criterion."""

    cid: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.cid:02d} {self.name}: {status} ({self.detail})"


@dataclass(frozen=True)
class PoolEntry:
    """One frozen random instance with its precomputed angle quantities."""

    index: int
    d: int
    dims: tuple
    seed: int
    subspaces: tuple
    cp: CyclicProduct
    c: float
    i2: float
    l2d: float

    @property
    def m(self):
        return self.cp.m


def build_pool(count: int = N_POOL) -> list:
    """The instance pool: sizes, ranks and seeds all from the MASTER_SEED stream."""
    rng = np.random.default_rng(MASTER_SEED)
    pool = []
    for i in range(count):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(3, 13))
        dims = tuple(int(rng.integers(1, d)) for _ in range(n))
        seed = int(rng.integers(0, 2**31))
        subs = tuple(random_instance(d, dims, seed))
        cp = build_cyclic(subs)
        pool.append(
            PoolEntry(
                index=i,
                d=d,
                dims=dims,
                seed=seed,
                subspaces=subs,
                cp=cp,
                c=friedrichs_number(cp),
                i2=iota2(cp),
                l2d=ell2_direct(cp),
            )
        )
    return pool


@lru_cache(maxsize=1)
def _pool() -> tuple:
    return tuple(build_pool())


@lru_cache(maxsize=1)
def _block_model():
    model = block_aligned(400, "1/k")
    return model, model.cyclic()


def _start_vector(entry: PoolEntry) -> np.ndarray:
    # real draw: pool instances are real, and the truncation lengths of the
    # unconditional-sum check stay well inside the series cap
    rng = np.random.default_rng(entry.seed ^ _SALT_START)
    return rng.standard_normal(entry.d)


def _two_subspace_law(pool):
    dev = 0.0
    for theta in (math.pi / 6, math.pi / 4, math.pi / 3):
        cp = build_cyclic(two_lines(theta))
        for n in range(1, 21):
            dev = max(dev, abs(operator_error_norm(cp, n) - math.cos(theta) ** (2 * n - 1)))
    return dev <= 1e-10, f"max |norm - cos^(2n-1) theta| = {dev:.2e} over 3 angles, n <= 20"


def _exponential_rate_bounds(pool):
    slack_c = math.inf
    slack_i = math.inf
    for e in pool:
        tr = iterate(e.cp, _start_vector(e), 200, c=e.c, iota2=e.i2)
        slack_c = min(slack_c, float((tr.bound_c + 1e-9 - tr.errors).min()))
        slack_i = min(slack_i, float((tr.bound_iota2 + 1e-9 - tr.errors).min()))
    ok = slack_c >= 0.0 and slack_i >= 0.0
    return ok, (
        f"min bound slack over {len(pool)} instances, n <= 200: "
        f"friedrichs {slack_c:.2e}, inner {slack_i:.2e}"
    )


def _inclination_identity(pool):
    gap = max(abs(e.l2d - ell2(e.c, len(e.subspaces))) for e in pool)
    islack = min(e.i2 - ell2(e.c, len(e.subspaces)) for e in pool)
    ok = gap <= 1e-8 and islack >= -1e-9
    return ok, f"max |ell2_direct - ell2(c)| = {gap:.2e}; min iota2 - ell2 = {islack:.2e}"


def _friedrichs_oracle(pool):
    below = math.inf  # c - (c_sample - 1e-6), must stay >= 0
    above = math.inf  # (c_sample + 0.05) - c, must stay >= 0
    sampled = 0
    for e in pool:
        # dim(M_k ∩ M^perp) = dim M_k - dim M since M ⊆ M_k
        total = sum(s.dim for s in e.subspaces) - len(e.subspaces) * e.m.dim
        if not 0 < total <= 6:
            continue
        cs = friedrichs_number_sampled(e.cp, None, 10**5, e.seed ^ _SALT_SAMPLER)
        below = min(below, e.c - cs + 1e-6)
        above = min(above, cs + 0.05 - e.c)
        sampled += 1
    dev = 0.0
    pairs = 0
    for e in pool:
        if len(e.subspaces) == 2 and e.m.dim == 0:
            sv = np.linalg.svd(
                e.subspaces[0].basis.conj().T @ e.subspaces[1].basis, compute_uv=False
            )
            dev = max(dev, abs(e.c - float(sv[0])))
            pairs += 1
    ok = sampled > 0 and pairs > 0 and below >= 0.0 and above >= 0.0 and dev <= 1e-9
    return ok, (
        f"{sampled} sampled instances, min margins {below:.1e} below / {above:.2e} above; "
        f"{pairs} two-subspace instances, max |c - sigma_max| = {dev:.1e}"
    )


def _sweep_energy_inequality(pool):
    checked = 0
    violations = 0
    for e in pool:
        rng = np.random.default_rng(e.seed ^ _SALT_SWEEP)
        for _ in range(50):
            x = rng.standard_normal(e.d) + 1j * rng.standard_normal(e.d)
            try:
                sweep_diagnostic(e.cp, x)
            except NumericalContractError:
                violations += 1
            checked += 1
    ok = checked == 10**4 and violations == 0
    return ok, f"{checked} (instance, x) pairs, {violations} violations at 1e-10"


def _numerical_range_containment(pool):
    escapes = 0
    worst = math.inf

    def check(t, c, n):
        nonlocal escapes, worst
        rep = containment_check(t, c, n, m=256, slack=1e-7)
        escapes += 0 if rep.all_contained else 1
        worst = min(worst, float(rep.margins.min()))

    for e in pool[:100]:
        check(e.cp, e.c, e.cp.N)
    subs_a = random_instance(6, (3, 3), 1001)
    cp_a, cp_b = build_cyclic(subs_a), build_cyclic(random_instance(6, (2, 4), 1002))
    ca = friedrichs_number(cp_a)
    cb = friedrichs_number(cp_b)
    # averaging products enlarges neither region: check at the larger c
    check(convex_combination([cp_a, cp_b], [0.5, 0.5]), max(ca, cb), 2)
    p1, p2 = (s.basis @ s.basis.conj().T for s in subs_a)
    check(0.5 * (p1 + p2), ca, 2)
    ok = escapes == 0
    return ok, f"100 instances + 2 averaged fixtures, {escapes} escapes, worst margin {worst:.1e}"


def _ritt_diagnostics(pool):
    sup_all = 0.0
    mono_slack = math.inf
    multimodal = 0
    var_max = 0.0
    for e in pool:
        sup, argmax, profile = ritt_power_diagnostic(e.cp, 500)
        sup_all = max(sup_all, sup)
        norms = profile / np.arange(1, len(profile) + 1)
        dn = np.diff(norms[argmax - 1 :])
        if dn.size:
            mono_slack = min(mono_slack, -float(dn.max()))
        dw = np.diff(profile[argmax - 1 :])
        if dw.size and float(dw.max()) > 1e-10:
            multimodal += 1
        coarse = resolvent_diagnostic(e.cp, radii=[1.0 + 2.0**-9])
        fine = resolvent_diagnostic(e.cp, radii=[1.0 + 2.0**-10])
        var_max = max(var_max, abs(coarse - fine) / max(coarse, fine))
    r_zero = resolvent_diagnostic(build_cyclic(two_lines(math.pi / 2)))
    ok = (
        np.isfinite(sup_all)
        and mono_slack >= -1e-10
        and var_max <= 0.01
        and 1.9 <= r_zero <= 2.0
    )
    return ok, (
        f"sup n||T^n(I-T)|| <= {sup_all:.3f}; norm profile non-increasing past the peak "
        f"(slack {mono_slack:.1e}); {multimodal}/{len(pool)} weighted profiles multi-modal; "
        f"resolvent variation {100.0 * var_max:.3f}%; zero-product constant {r_zero:.4f}"
    )


def _unconditional_convergence(pool):
    k_max = 0
    perm_worst = 0.0
    tel_worst = 0.0
    for e in pool:
        rep = unconditional_sum_test(e.cp, _start_vector(e), 50, 1e-6, e.seed ^ _SALT_PERM)
        k_max = max(k_max, rep.K)
        perm_worst = max(perm_worst, float(rep.perm_deviations.max()))
        tel_worst = max(tel_worst, rep.telescoping_residual)
    ok = perm_worst <= 2e-6 and tel_worst <= 1e-12
    return ok, (
        f"max permuted deviation {perm_worst:.2e} of 2e-06 allowed; "
        f"max telescoping residual {tel_worst:.2e}; longest truncation K = {k_max}"
    )


def _fractional_decay(pool):
    model, cp = _block_model()
    k = np.arange(1.0, model.k_blocks + 1.0)
    taper = (1.0 / k) / np.linalg.norm(1.0 / k)
    y = model.m1_vector(taper)
    z = np.zeros(model.ambient_dim)
    ok = True
    parts = []
    for alpha in (0.5, 1.0, 2.0):
        av = make_alpha_vector(cp, alpha, 1234, y=y, z=z)
        tr = iterate(cp, av.x, 1000)
        slope = decay_slope(tr, (100, 1000))
        weighted = np.arange(100.0, 1001.0) ** alpha * tr.errors[100:1001]
        mono = float(np.diff(weighted).max()) <= 1e-12
        ok = ok and slope <= -alpha + 0.1 and mono
        part = (f"alpha={alpha:g}: slope {slope:.3f}, "
                f"weighted tail {'non-increasing' if mono else 'RISES'}")
        if alpha <= 1.0:
            sup, bounded = partial_sum_characterization(cp, av.x, alpha, 5 * 10**6)
            ok = ok and bounded
            part += f", sums {'bounded' if bounded else 'UNBOUNDED'} (sup {sup:.3f})"
        parts.append(part)
    return bool(ok), "; ".join(parts)


def _slow_vector_construction(pool):
    model, cp = _block_model()
    r = 1.0 / np.log(np.arange(1001.0) + 2.0)
    x = slow_vector(model, r, 1000, 0.1)
    tr = iterate(cp, x, 1000)
    margin = float((tr.errors[:1001] - r).min())
    norm_x = float(np.linalg.norm(x))
    cap = 1.1 * r[0]
    ok = margin >= -1e-12 and norm_x <= cap * (1.0 + 1e-12)
    return ok, f"min e_n - r_n = {margin:.2e} over n <= 1000; ||x|| = {norm_x:.4f} <= {cap:.4f}"


def _stolz_angle_recursion(pool):
    thetas = [theta_recursion(n) for n in range(1, 11)]
    dev2 = abs(thetas[1] - math.pi / 6)
    increasing = bool(np.min(np.diff(thetas)) > 0.0)
    ok = thetas[0] == 0.0 and dev2 <= 1e-12 and increasing
    return ok, (
        f"theta_1 = {thetas[0]:.1f}; |theta_2 - pi/6| = {dev2:.1e}; "
        f"strictly increasing up to theta_10 = {thetas[-1]:.4f}"
    )


# (id, name, function, needs the random pool)
_CRITERIA = (
    (1, "two_subspace_law", _two_subspace_law, False),
    (2, "exponential_rate_bounds", _exponential_rate_bounds, True),
    (3, "inclination_identity", _inclination_identity, True),
    (4, "friedrichs_oracle", _friedrichs_oracle, True),
    (5, "sweep_energy_inequality", _sweep_energy_inequality, True),
    (6, "numerical_range_containment", _numerical_range_containment, True),
    (7, "ritt_diagnostics", _ritt_diagnostics, True),
    (8, "unconditional_convergence", _unconditional_convergence, True),
    (9, "fractional_decay", _fractional_decay, False),
    (10, "slow_vector_construction", _slow_vector_construction, False),
    (11, "stolz_angle_recursion", _stolz_angle_recursion, False),
)


def criterion_ids() -> tuple:
    return tuple(cid for cid, _, _, _ in _CRITERIA)


def iter_results(pool=None, ids=None):
    """Yield CriterionResult per selected criterion, in id order.

    ``ids`` restricts the run (unknown ids are an input error).  The pool
    is built lazily, only when a selected criterion needs it.
    """
    if ids is not None:
        unknown = set(ids) - set(criterion_ids())
        if unknown:
            raise ValueError(f"unknown criterion ids: {sorted(unknown)}")
    entries = pool
    for cid, name, fn, needs_pool in _CRITERIA:
        if ids is not None and cid not in set(ids):
            continue
        if needs_pool and entries is None:
            entries = _pool()
        try:
            passed, detail = fn(entries)
        except Exception as exc:  # a crash is a failure of this criterion, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        yield CriterionResult(cid=cid, name=name, passed=passed, detail=detail)


def run_all(pool=None) -> list:
    """Run the full battery; one result per criterion, failures included."""
    return list(iter_results(pool))
