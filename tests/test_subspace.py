"""Subspace construction, projections, intersections, and complements."""

import numpy as np
import pytest

from altproj import (
    Subspace,
    complement_within,
    intersection,
    orthogonal_complement,
    orthonormalize,
)


def test_orthonormalize_from_vector_list():
    s = orthonormalize([np.array([1.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0])])
    assert s.dim == 2
    gram = s.basis.conj().T @ s.basis
    assert np.allclose(gram, np.eye(2), atol=1e-14)
    # the span is preserved: both generators are fixed by the projection
    for v in ([1.0, 1.0, 0.0], [1.0, 0.0, 0.0]):
        assert s.contains(np.array(v))


def test_orthonormalize_drops_dependent_vectors():
    v = np.array([1.0, 2.0, -1.0])
    s = orthonormalize([v, 2.0 * v, -0.5 * v])
    assert s.dim == 1
    assert s.contains(v)


def test_orthonormalize_matrix_and_list_inputs_agree():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    from_matrix = orthonormalize(a)
    from_list = orthonormalize(list(a.T))
    assert from_matrix.dim == from_list.dim == 2
    assert np.allclose(from_matrix.project(a), a, atol=1e-12)
    assert np.allclose(from_list.project(a), a, atol=1e-12)


def test_zero_and_full_subspaces():
    z, f = Subspace(np.zeros((3, 0))), Subspace(np.eye(3))
    assert z.dim == 0 and f.dim == 3
    x = np.array([1.0, -2.0, 0.5])
    assert np.allclose(z.project(x), 0.0)
    assert z.distance(x) == pytest.approx(np.linalg.norm(x))
    assert f.contains(x)
    assert f.distance(x) == pytest.approx(0.0, abs=1e-12)


def test_subspace_rejects_non_orthonormal_basis():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_basis_is_immutable():
    s = Subspace(np.eye(2))
    with pytest.raises(ValueError):
        s.basis[0, 0] = 5.0


@pytest.mark.parametrize("seed", range(6))
def test_projector_is_hermitian_and_idempotent(seed):
    rng = np.random.default_rng(seed)
    s = orthonormalize(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
    p = s.basis @ s.basis.conj().T
    assert np.allclose(p, p.conj().T, atol=1e-12)
    assert np.allclose(p @ p, p, atol=1e-12)
    assert np.trace(p).real == pytest.approx(s.dim, abs=1e-10)
    x = rng.standard_normal(6)
    assert np.allclose(p @ x, s.project(x), atol=1e-12)


def test_intersection_of_two_planes_is_a_line():
    e = np.eye(3)
    a = orthonormalize([e[0], e[1]])
    b = orthonormalize([e[1], e[2]])
    line = intersection([a, b])
    assert line.dim == 1
    assert line.contains(e[1])


def test_intersection_of_orthogonal_lines_is_zero():
    e = np.eye(2)
    m = intersection([orthonormalize([e[0]]), orthonormalize([e[1]])])
    assert m.dim == 0


def test_intersection_of_identical_subspaces():
    s = orthonormalize(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]]))
    m = intersection([s, s, s])
    assert m.dim == s.dim
    assert np.allclose(s.project(m.basis), m.basis, atol=1e-12)


def test_intersection_input_validation():
    with pytest.raises(ValueError):
        intersection([])
    with pytest.raises(ValueError):
        intersection([Subspace(np.eye(2)), Subspace(np.eye(3))])


@pytest.mark.parametrize("tol", [np.nan, np.inf])
def test_non_finite_tolerances_are_refused(tol):
    lines = [orthonormalize([[1.0, 0.0]]), orthonormalize([[np.cos(1.0), np.sin(1.0)]])]
    with pytest.raises(ValueError):
        orthonormalize(np.eye(3), rank_tol=tol)
    with pytest.raises(ValueError):
        intersection(lines, eig_tol=tol)


def test_complement_within():
    e = np.eye(3)
    mk = orthonormalize([e[0], e[1]])
    m = orthonormalize([e[0]])
    comp = complement_within(mk, m)
    assert comp.dim == 1
    assert comp.contains(e[1])
    assert np.allclose(m.project(comp.basis), 0.0, atol=1e-12)


def test_complement_within_requires_containment():
    e = np.eye(3)
    with pytest.raises(ValueError):
        complement_within(orthonormalize([e[0], e[1]]), orthonormalize([e[2]]))


@pytest.mark.parametrize("seed", range(4))
def test_orthogonal_complement_completes_the_space(seed):
    rng = np.random.default_rng(seed)
    s = orthonormalize(rng.standard_normal((5, 2)))
    perp = orthogonal_complement(s)
    assert s.dim + perp.dim == 5
    q = np.hstack([s.basis, perp.basis])
    assert np.allclose(q.conj().T @ q, np.eye(5), atol=1e-12)


def test_orthogonal_complement_of_zero_is_full():
    z = Subspace(np.zeros((4, 0)))
    assert orthogonal_complement(z).dim == 4
