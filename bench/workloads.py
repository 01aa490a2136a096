"""The benchmark's three workloads: seeded inputs, operations and their checks.

Each workload class turns a seed into inputs (``setup``) and returns the
list of operations of one pass over them.  An operation calls altproj
through its public functions or through ``altproj.cli.main`` and then
checks the result against a guarantee the README states.  It raises
``WrongResult`` when an output breaks such a guarantee; any other
exception, or a non-zero exit code, is a refusal.  Both count as failed
operations, and both make the run incorrect unless the operation is one
of the known refusals (``Op.may_refuse``).

Functions are looked up on their modules at call time (``iteration.iterate``
rather than a name imported once), so the traced mode's wrappers see
every call.
"""

import contextlib
import dataclasses
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from altproj import acceptance, cli, fracpow, iteration, models, subspace


class WrongResult(Exception):
    """An output that contradicts a guarantee the program states."""


class Refused(Exception):
    """A command that exited non-zero."""


@dataclass(frozen=True)
class Op:
    span: str  # trace span name, e.g. "acceptance.c02" or "cli.geometry"
    label: str  # unique within a pass
    run: Callable[[], None]
    may_refuse: bool = False  # a known refusal: it fails without making the run incorrect


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the defaults are the benchmark's, tests use tiny ones."""

    pool_count: int = acceptance.N_POOL
    k_blocks: int = 200
    sweeps: int = 1000
    partial_sum_steps: int = 5 * 10**6
    # (d, ranks) of the rand6, rand12 and rand64 fixtures
    rand6: tuple = (6, (2, 3))
    rand12: tuple = (12, (4, 5, 6))
    rand64: tuple = (64, (20, 30, 40))


TINY = Sizes(pool_count=12, k_blocks=12, sweeps=60, partial_sum_steps=2000,
             rand6=(3, (1, 2)), rand12=(3, (1, 2)), rand64=(6, (2, 3, 4)))

POOL_CRITERIA = (1, 2, 3, 4, 5, 6, 7, 8, 11)
ALPHAS = (0.5, 1.0, 2.0)


# ---------------------------------------------------------------------------
# pool_battery


def _orthogonal_fixing(rng: np.random.Generator, x: np.ndarray) -> np.ndarray:
    """Haar-random real orthogonal matrix, times the reflection that maps it back onto x."""
    q, r = np.linalg.qr(rng.standard_normal((len(x), len(x))))
    q *= np.sign(np.diag(r))
    unit = x / np.linalg.norm(x)
    v = q @ unit - unit
    if np.linalg.norm(v) > 0.0:
        q -= 2.0 * np.outer(v, v @ q) / (v @ v)
    return q


def _rotated(entry, q: np.ndarray):
    """The pool entry after the change of basis q; its angles carry over unchanged."""
    subs = tuple(subspace.Subspace(q @ s.basis) for s in entry.subspaces)
    return dataclasses.replace(entry, subspaces=subs, cp=iteration.build_cyclic(subs))


class PoolBattery:
    """Criteria 1-8 and 11 of the acceptance battery, one operation each.

    The pool is the suite's frozen pool in a seeded basis: each instance
    is turned by a random orthogonal matrix that fixes the start vector
    the criteria iterate from.  Every matrix entry changes, but no angle,
    error trace or series length does, so the work and the verdicts of a
    pass do not depend on the seed.  (Without the fixed start vector some
    seeds make criterion 8 need more than its 1e5 series terms on a
    near-aligned instance and raise CapacityError.)
    """

    def __init__(self, sizes: Sizes, workdir: str):
        self.sizes = sizes

    def setup(self, seed: int) -> list:
        frozen = acceptance.build_pool(count=self.sizes.pool_count)
        rng = np.random.default_rng(seed)
        # the criteria draw their start vectors from the entry seed, not the basis
        pool = [_rotated(e, _orthogonal_fixing(rng, acceptance._start_vector(e)))
                for e in frozen]
        return [Op(f"acceptance.c{cid:02d}", f"c{cid:02d}", self._criterion(pool, cid))
                for cid in POOL_CRITERIA]

    @staticmethod
    def _criterion(pool, cid):
        def run():
            (res,) = acceptance.iter_results(pool, ids=[cid])
            if not res.passed:
                raise WrongResult(res.line())
        return run


# ---------------------------------------------------------------------------
# block_decay


class BlockDecay:
    """The public-call chain of criteria 9 and 10 on the 1/k block model.

    y is the 1/k taper times a seeded jitter in [0.8, 1.2]; the checks are
    the criteria's: slope <= -alpha + 0.1, non-increasing n^alpha e_n on
    [100, 1000], bounded weighted partial sums for alpha <= 1, and a slow
    vector above 1/log(n+2) within its 10% norm budget.
    """

    def __init__(self, sizes: Sizes, workdir: str):
        self.sizes = sizes

    def setup(self, seed: int) -> list:
        s = self.sizes
        model = models.block_aligned(s.k_blocks, "1/k")
        cp = model.cyclic()
        rng = np.random.default_rng(seed)
        k = np.arange(1.0, s.k_blocks + 1.0)
        taper = rng.uniform(0.8, 1.2, s.k_blocks) / k
        y = model.m1_vector(taper / np.linalg.norm(taper))
        z = np.zeros(model.ambient_dim)
        vectors = {}
        ops = []
        for alpha in ALPHAS:
            ops.append(Op("bench.decay", f"decay a={alpha:g}",
                          self._decay(cp, alpha, seed, y, z, vectors)))
        for alpha in ALPHAS:
            if alpha <= 1.0:
                ops.append(Op("bench.partial_sums", f"partial_sums a={alpha:g}",
                              self._partial_sums(cp, alpha, vectors)))
        ops.append(Op("bench.slow_vector", "slow_vector", self._slow(model, cp)))
        return ops

    def _decay(self, cp, alpha, seed, y, z, vectors):
        n = self.sizes.sweeps
        lo = n // 10

        def run():
            vectors.pop(alpha, None)  # a failed draw must not leave last pass's vector behind
            av = fracpow.make_alpha_vector(cp, alpha, seed, y=y, z=z)
            tr = iteration.iterate(cp, av.x, n)
            slope = fracpow.decay_slope(tr, (lo, n))
            weighted = np.arange(lo, n + 1.0) ** alpha * tr.errors[lo:n + 1]
            vectors[alpha] = av.x
            if slope > -alpha + 0.1:
                raise WrongResult(f"alpha={alpha:g}: slope {slope:.3f} > {-alpha + 0.1:.3f}")
            if float(np.diff(weighted).max()) > 1e-12:
                raise WrongResult(f"alpha={alpha:g}: weighted tail rises")
        return run

    def _partial_sums(self, cp, alpha, vectors):
        def run():
            sup, bounded = fracpow.partial_sum_characterization(
                cp, vectors[alpha], alpha, self.sizes.partial_sum_steps)
            if not bounded:
                raise WrongResult(f"alpha={alpha:g}: partial sums unbounded (sup {sup:.3f})")
        return run

    def _slow(self, model, cp):
        n = self.sizes.sweeps

        def run():
            r = 1.0 / np.log(np.arange(n + 1.0) + 2.0)
            x = models.slow_vector(model, r, n, 0.1)
            tr = iteration.iterate(cp, x, n)
            margin = float((tr.errors[:n + 1] - r).min())
            if margin < -1e-12:
                raise WrongResult(f"slow vector misses the targets by {-margin:.2e}")
            if np.linalg.norm(x) > 1.1 * r[0] * (1.0 + 1e-12):
                raise WrongResult("slow vector exceeds its norm budget")
        return run


# ---------------------------------------------------------------------------
# cli_commands

_HEADER = "altproj-instance v1\n"

CLI_CALLS = (
    ("geometry", ("lines", "rand6", "rand12")),
    ("iterate", ("lines", "near", "rand12", "rand64", "blocks")),
    ("numrange", ("lines", "near", "rand12", "rand64", "mix")),
    ("ritt", ("rand12", "rand64", "mix")),
    ("fracpow", ("rand12", "rand64", "blocks")),
    ("slowvec", ("blocks",)),
)


# Nelder-Mead in geometry costs 9-15 s on a d = 12 instance depending on the
# instance and the search seed, which would swamp every other change of the
# pass, so the two fixtures geometry searches on and its search seed are
# frozen (rand6 is the README's example instance).  All other fixture
# parameters and seeds come from the workload seed.
FROZEN_SEEDS = {"rand6": 11, "rand12": 12}
GEOMETRY_SEED = 7

# Calls that exit 3 today with "T does not commute with the limit projector"
# (two lines at 1e-6 rad, ROADMAP item 3); they count in the failed fraction.
KNOWN_REFUSALS = frozenset({"iterate near", "numrange near"})


def fixture_texts(seed: int, sizes: Sizes) -> dict:
    """Instance files in the v1 format."""
    rng = np.random.default_rng(seed)

    def seed_():
        return int(rng.integers(0, 2**31))

    def rand(d, ranks, instance_seed):
        return (f"{_HEADER}kind random\nseed {instance_seed}\nd {d}\n"
                f"dims {' '.join(map(str, ranks))}\n")

    theta = float(rng.uniform(0.2, 1.4))
    texts = {
        "lines": f"{_HEADER}kind two_lines\ntheta {theta!r}\n",
        "near": f"{_HEADER}kind two_lines\ntheta 1e-06\n",
        "rand6": rand(*sizes.rand6, FROZEN_SEEDS["rand6"]),
        "rand12": rand(*sizes.rand12, FROZEN_SEEDS["rand12"]),
        "rand64": rand(*sizes.rand64, seed_()),
        "blocks": f"{_HEADER}kind block_aligned\nk_blocks {sizes.k_blocks}\nangle_rule 1/k\n",
    }
    d6, ranks6 = sizes.rand6
    comps = "".join(f"component random seed={seed_()} d={d6} dims={','.join(map(str, r))}\n"
                    for r in (ranks6, ranks6[::-1]))
    texts["mix"] = f"{_HEADER}kind convex_combination\nweights 0.25 0.75\n{comps}"
    return texts


def _rows(csv_text: str) -> list:
    return [line.split(",") for line in csv_text.splitlines()[1:]]


def _check_iterate(rows, theta):
    err = np.array([float(r[1]) for r in rows])
    bound_c = np.array([float(r[2]) for r in rows])
    bound_i = np.array([float(r[3]) for r in rows])
    if np.diff(err).max(initial=0.0) > 1e-12:
        raise WrongResult("iterate errors increase")
    if (err > bound_c + 1e-9).any() or (err > bound_i + 1e-9).any():
        raise WrongResult("iterate error above a rate bound")
    if theta is not None:
        n = np.arange(1, len(err))
        dev = np.abs(err[1:] - math.cos(theta) ** (2 * n - 1)).max()
        if dev > 1e-10:
            raise WrongResult(f"two-line law missed by {dev:.2e}")


def _check_geometry(rows, theta):
    n, c, ell2, _, iota2 = (float(v) for v in rows[0][:5])
    if abs(ell2 - math.sqrt((n - 1) * (1.0 - c))) > 1e-12:
        raise WrongResult("ell2 != sqrt((N-1)(1-c))")
    if iota2 < ell2 - 1e-9:
        raise WrongResult("iota2 < ell2")


def _check_numrange(rows, theta):
    if any(r[4] != "1" or r[5] != "1" for r in rows):
        raise WrongResult("a boundary point lies outside Omega_N or the Stolz domain")


def _check_ritt(rows, theta):
    if not all(math.isfinite(float(r[2])) for r in rows):
        raise WrongResult("non-finite Ritt profile value")


def _check_fracpow(rows, theta):
    if not all(math.isfinite(float(r[3])) for r in rows):
        raise WrongResult("sup n^alpha e_n is not finite")


def _check_slowvec(rows, theta, eps=0.1):
    sections = {}
    for section, _, value in rows:
        sections.setdefault(section, []).append(float(value))
    x = np.array(sections["vector"])
    r = np.array(sections["target"])
    margin = float((np.array(sections["error"]) - r).min())
    if margin < -1e-12:
        raise WrongResult(f"slow vector misses the targets by {-margin:.2e}")
    if np.linalg.norm(x) > (1.0 + eps) * r[0] * (1.0 + 1e-12):
        raise WrongResult("slow vector exceeds its norm budget")


_CHECKS = {"geometry": _check_geometry, "iterate": _check_iterate,
           "numrange": _check_numrange, "ritt": _check_ritt,
           "fracpow": _check_fracpow, "slowvec": _check_slowvec}


class CliCommands:
    """About twenty ``altproj`` commands at default flags on seeded fixture files.

    The ``near`` fixture (two lines at 1e-6 rad) is kept on purpose: its
    iterate and numrange calls exit 3 today and count as failed, as known
    refusals (``KNOWN_REFUSALS``); a refusal of any other call, or a wrong
    CSV from any call, makes the run incorrect.  ``seen``
    keeps the first CSV of every call, so a later pass of the same
    workload object must reproduce it byte for byte.
    """

    def __init__(self, sizes: Sizes, workdir: str):
        self.sizes = sizes
        self.workdir = workdir
        self.seen = {}

    def setup(self, seed: int) -> list:
        texts = fixture_texts(seed, self.sizes)
        paths = {}
        for name, text in texts.items():
            paths[name] = os.path.join(self.workdir, f"{name}.txt")
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        thetas = {"lines": float(texts["lines"].split()[-1]), "near": 1e-6}
        seeds = {"geometry": str(GEOMETRY_SEED), "fracpow": str(seed % 2**31)}
        ops = []
        for command, fixtures in CLI_CALLS:
            for fx in fixtures:
                argv = [command, "--instance", paths[fx]]
                if command in seeds:
                    argv += ["--seed", seeds[command]]
                label = f"{command} {fx}"
                ops.append(Op(f"cli.{command}", label, self._call(label, argv, thetas.get(fx)),
                              may_refuse=label in KNOWN_REFUSALS))
        return ops

    def _call(self, label, argv, theta):
        check = _CHECKS[argv[0]]

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            text = out.getvalue()
            # checked before the exit code: numrange writes its CSV, then
            # exits 3 when the containment fails
            if text:
                if self.seen.setdefault(label, text) != text:
                    raise WrongResult("CSV differs from the first pass")
                check(_rows(text), theta)
            elif code == 0:
                raise WrongResult("exit 0 without a CSV")
            if code != 0:
                raise Refused(f"exit {code}: {err.getvalue().strip()}")
        return run


WORKLOADS = {"pool_battery": PoolBattery, "block_decay": BlockDecay,
             "cli_commands": CliCommands}
