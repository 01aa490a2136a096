"""Subspace construction, projections, intersections, and complements."""

import numpy as np
import pytest

from altproj import (
    Subspace,
    complement_within,
    intersection,
    orthonormalize,
)
from altproj.linalg import orthonormal_columns
from altproj.subspace import _complement_within_blocks


def _contains(s, x):
    """x lies in s: P x = x to 1e-10, relative to max(1, ||x||)."""
    x = np.asarray(x, dtype=np.complex128)
    return np.linalg.norm(s.project(x) - x) <= 1e-10 * max(1.0, np.linalg.norm(x))


def test_orthonormalize_from_vector_list():
    s = orthonormalize([np.array([1.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0])])
    assert s.dim == 2
    gram = s.basis.conj().T @ s.basis
    assert np.allclose(gram, np.eye(2), atol=1e-14)
    # the span is preserved: both generators are fixed by the projection
    for v in ([1.0, 1.0, 0.0], [1.0, 0.0, 0.0]):
        assert _contains(s, v)


def test_orthonormalize_drops_dependent_vectors():
    v = np.array([1.0, 2.0, -1.0])
    s = orthonormalize([v, 2.0 * v, -0.5 * v])
    assert s.dim == 1
    assert _contains(s, v)


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
    assert np.array_equal(z.project(x), np.zeros(3))
    assert np.allclose(f.project(x), x, atol=1e-15)
    # the empty basis takes the general expressions: zeros of the right shape
    cols = z.project(np.ones((3, 2)))
    assert cols.shape == (3, 2) and cols.dtype == np.complex128 and not cols.any()
    assert complement_within(z, z).dim == 0 and complement_within(f, z).dim == 3
    assert orthonormal_columns(np.zeros((3, 0))).shape == (3, 0)


def test_subspace_rejects_non_orthonormal_basis():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))
    # the check is absolute: a Gram entry of 1.000008 once passed the
    # relative part of np.allclose's default tolerance
    with pytest.raises(ValueError, match="orthonormal to 1e-12"):
        Subspace(np.array([[1.0 + 4e-6], [0.0]]))
    Subspace(np.array([[1.0 + 4e-13], [0.0]]))


@pytest.mark.parametrize("basis,refusal", [
    ([[np.nan], [0.0]], "finite"),
    ([[np.inf], [0.0]], "finite"),
    ([[1.0, 2e-12], [0.0, 1.0]], "orthonormal to 1e-12"),  # a Gram entry 2e-12 off
    (np.zeros((3, 0)), None),
], ids=["nan", "inf", "2e-12 off", "empty"])
def test_orthonormality_check_keeps_the_verdicts_of_allclose(basis, refusal):
    b = np.asarray(basis, dtype=np.complex128)
    with np.errstate(invalid="ignore"):  # inf * 0 in the Gram product
        gram = b.conj().T @ b
        assert np.allclose(gram, np.eye(b.shape[1]), rtol=0.0, atol=1e-12) == (refusal is None)
        if refusal is None:
            assert Subspace(b).dim == b.shape[1]
        else:
            with pytest.raises(ValueError, match=refusal):
                Subspace(b)


# without np.errstate: under the suite's error::RuntimeWarning filter a
# warning from the Gram product would surface in place of the refusal
@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_a_non_finite_basis_is_refused_before_its_gram_matrix(entry):
    with pytest.raises(ValueError, match="finite"):
        Subspace(np.array([[entry], [0.0]]))


def test_basis_is_immutable():
    s = Subspace(np.eye(2))
    with pytest.raises(ValueError):
        s.basis[0, 0] = 5.0


def test_the_callers_basis_stays_writeable():
    b = np.eye(3, 2, dtype=np.complex128)
    s = Subspace(b)
    assert b.flags.writeable
    b[0, 0] = 5.0
    assert np.array_equal(s.basis, np.eye(3, 2))


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
    assert _contains(line, e[1])


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


def test_subspace_constructors_take_no_tolerance():
    lines = [orthonormalize([[1.0, 0.0]]), orthonormalize([[np.cos(1.0), np.sin(1.0)]])]
    with pytest.raises(TypeError):
        orthonormalize(np.eye(3), rank_tol=1e-10)
    with pytest.raises(TypeError):
        orthonormal_columns(np.eye(3), rank_tol=1e-10)
    with pytest.raises(TypeError):
        intersection(lines, eig_tol=1e-10)
    with pytest.raises(TypeError):
        complement_within(lines[0], intersection(lines), rank_tol=1e-10)


def test_complement_within():
    e = np.eye(3)
    mk = orthonormalize([e[0], e[1]])
    m = orthonormalize([e[0]])
    comp = complement_within(mk, m)
    assert comp.dim == 1
    assert _contains(comp, e[1])
    assert np.allclose(m.project(comp.basis), 0.0, atol=1e-12)


def test_complement_within_requires_containment():
    e = np.eye(3)
    with pytest.raises(ValueError):
        complement_within(orthonormalize([e[0], e[1]]), orthonormalize([e[2]]))


# M^perp, which geometry's global feasible set is built from: the
# complement of M within the identity's span, here on one block
@pytest.mark.parametrize("seed", range(4))
def test_orthogonal_complement_completes_the_space(seed):
    rng = np.random.default_rng(seed)
    s = orthonormalize(rng.standard_normal((5, 2)))
    perp = _complement_within_blocks(np.eye(5, dtype=np.complex128)[None], s.basis[None])[0]
    assert perp.shape == (5, 3)
    q = np.hstack([s.basis, perp])
    assert np.allclose(q.conj().T @ q, np.eye(5), atol=1e-12)


@pytest.mark.parametrize("b", [2, 3, 4, 6, 12, 64])
def test_orthogonal_complement_of_zero_is_full(b):
    eye = np.eye(b, dtype=np.complex128)[None]
    perp = _complement_within_blocks(eye, np.zeros((1, b, 0), dtype=np.complex128))[0]
    assert np.array_equal(perp, np.eye(b))
