"""Friedrichs numbers, inclinations, and the assembled geometry report."""

import numpy as np
import pytest

from altproj import geometry
from altproj.linalg import eigh_sym
from altproj import (
    assemble_gram,
    ell2,
    ell2_direct,
    friedrichs_number,
    friedrichs_number_sampled,
    geometry_report,
    intersection,
    iota2,
    minimax_inclination_estimate,
    orthonormalize,
    random_instance,
    rate_base,
    sandwich_check,
    two_lines,
)


@pytest.mark.parametrize("theta", [np.pi / 6, np.pi / 4, np.pi / 3, 1.0, 1.4])
def test_two_lines_friedrichs_is_the_cosine(theta):
    assert friedrichs_number(two_lines(theta)) == pytest.approx(np.cos(theta), abs=1e-12)


def test_orthogonal_lines_are_maximally_inclined():
    subs = two_lines(np.pi / 2)
    assert friedrichs_number(subs) == pytest.approx(0.0, abs=1e-12)
    assert ell2_direct(subs) == pytest.approx(1.0, abs=1e-12)
    assert iota2(subs) == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_lines_minimax_estimates():
    subs = two_lines(np.pi / 2)
    # the worst direction sits halfway between the lines
    g = minimax_inclination_estimate(subs, kind="global", seed=0)
    i = minimax_inclination_estimate(subs, kind="inner", seed=0)
    assert g == pytest.approx(np.sqrt(0.5), abs=1e-6)
    assert i == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        minimax_inclination_estimate(subs, kind="sideways", seed=0)
    with pytest.raises(ValueError):
        minimax_inclination_estimate(subs, restarts=0, seed=0)


def test_equal_subspaces_degenerate_quantities():
    # M_1 = M_2 = M: no complement directions remain anywhere
    s = orthonormalize(np.eye(3)[:, :2])
    subs = [s, s]
    assert friedrichs_number(subs) == 0.0
    assert ell2_direct(subs) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    with pytest.warns(UserWarning):
        assert iota2(subs) == np.inf


@pytest.mark.parametrize("seed", range(10))
def test_inclination_identity_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    d = int(rng.integers(3, 10))
    dims = tuple(int(rng.integers(1, d)) for _ in range(n))
    subs = random_instance(d, dims, seed=int(rng.integers(0, 2**31)))
    c = friedrichs_number(subs)
    direct = ell2_direct(subs)
    assert direct == pytest.approx(ell2(c, n), abs=1e-8)
    assert iota2(subs) >= direct - 1e-9


def test_sampled_friedrichs_brackets_the_eigenvalue_route():
    subs = random_instance(6, (2, 3), seed=42)
    m = intersection(subs)
    c = friedrichs_number(subs, m)
    cs = friedrichs_number_sampled(subs, m, 20000, seed=7)
    assert cs <= c + 1e-9  # sampling never exceeds the supremum
    assert cs >= c - 0.05  # and comes close at this sample count


def test_two_subspace_friedrichs_is_the_largest_singular_value():
    subs = random_instance(5, (2, 2), seed=11)
    b1, b2 = subs[0].basis, subs[1].basis
    sigma = np.linalg.svd(b1.conj().T @ b2, compute_uv=False).max()
    assert friedrichs_number(subs) == pytest.approx(sigma, abs=1e-9)


def test_gram_assembly_structure():
    subs = random_instance(5, (2, 2), seed=8)
    gram = assemble_gram(subs, intersection(subs))
    g = gram.matrix
    assert g.shape == (4, 4)
    s0, s1 = gram.slices
    assert np.allclose(g[s0, s0], np.eye(2), atol=1e-12)
    assert np.allclose(g[s1, s1], np.eye(2), atol=1e-12)
    w = np.linalg.eigvalsh(g)
    assert w.min() >= -1e-12 and w.max() <= 2.0 + 1e-12


def test_friedrichs_number_reuses_the_validated_eigenvalues(monkeypatch):
    subs = random_instance(6, (2, 3, 3), seed=4)
    m = intersection(subs)
    w, _ = eigh_sym(assemble_gram(subs, m).matrix)
    expected = float(np.clip((w[-1] - 1.0) / 2, 0.0, 1.0))
    calls = []

    def counted(a):
        calls.append(a.shape)
        return eigh_sym(a)

    monkeypatch.setattr(geometry, "eigh_sym", counted)
    assert friedrichs_number(subs, m) == expected  # bit-identical
    assert len(calls) == 1  # the GramBlock validation, not a second eigh


def test_scalar_input_validation():
    with pytest.raises(ValueError):
        ell2(1.5, 2)
    with pytest.raises(ValueError):
        ell2(0.5, 1)
    with pytest.raises(ValueError):
        rate_base(-0.1, 3)
    assert ell2(1.0, 4) == 0.0


def test_geometry_report_and_sandwich_check():
    subs = random_instance(6, (2, 2, 3), seed=3)
    rep = geometry_report(subs, seed=123)
    assert rep.N == 3
    assert rep.ell2 == pytest.approx(ell2(rep.c, 3), abs=1e-12)
    assert 0.0 <= rep.rate_base < 1.0
    checks = sandwich_check(rep)
    # both estimates are upper bounds of different infima, so their
    # mutual ordering is a heuristic only; everything else must hold
    assert all(ok for name, ok, slack in checks if "heuristic" not in name)


def test_geometry_report_is_seed_reproducible():
    subs = random_instance(5, (2, 2), seed=4)
    a = geometry_report(subs, seed=99)
    b = geometry_report(subs, seed=99)
    assert a == b
