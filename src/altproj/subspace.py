"""Closed subspaces of a finite-dimensional complex Hilbert space.

A subspace is represented by a ``d x r`` matrix with orthonormal columns;
``r = 0`` encodes the zero subspace.  Real input is promoted to complex.
The orthogonal projection onto a subspace is ``B B^H`` for its basis
``B``; the orthonormality check at construction is what makes that matrix
Hermitian and idempotent, so no separate projection type exists.  All
rank decisions are made through singular values with a relative
threshold, and all constructed objects are immutable.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalContractError
from .linalg import as_complex_matrix, eigh_sym, orthonormal_columns

__all__ = [
    "Subspace",
    "orthonormalize",
    "intersection",
    "complement_within",
    "orthogonal_complement",
]

_EIG_TOL = 1e-10  # eigenvalue cut of ``intersection``


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Subspace:
    """Column span of a matrix with orthonormal columns.

    Parameters
    ----------
    basis : (d, r) complex array
        Orthonormal columns; ``r = 0`` is the zero subspace.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = as_complex_matrix(self.basis)
        object.__setattr__(self, "basis", _freeze(b))
        gram = b.conj().T @ b
        if not np.allclose(gram, np.eye(b.shape[1]), atol=1e-12):
            raise ValueError("basis columns are not orthonormal to 1e-12")

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def project(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projection of ``x`` (vector or stacked columns)."""
        if self.dim == 0:
            return np.zeros_like(np.asarray(x, dtype=np.complex128))
        return self.basis @ (self.basis.conj().T @ np.asarray(x, dtype=np.complex128))

    def contains(self, x: np.ndarray) -> bool:
        """Membership of ``x`` to 1e-10, relative to max(1, ||x||)."""
        x = np.asarray(x, dtype=np.complex128)
        return bool(np.linalg.norm(self.project(x) - x) <= 1e-10 * max(1.0, np.linalg.norm(x)))

    def distance(self, x: np.ndarray) -> float:
        """dist(x, subspace) = ||x - Px||."""
        x = np.asarray(x, dtype=np.complex128)
        return float(np.linalg.norm(x - self.project(x)))


def orthonormalize(vectors) -> Subspace:
    """Subspace spanned by the given vectors (columns or a list of 1-d arrays).

    Rank is the number of singular values above 1e-10 times the largest;
    the spanned space is unchanged up to that cut.
    """
    a = np.asarray(vectors, dtype=np.complex128)
    if a.ndim == 1:
        a = a[:, None]
    elif a.ndim == 2 and not isinstance(vectors, np.ndarray):
        # a list/tuple of 1-d vectors arrives row-wise
        a = a.T
    return Subspace(orthonormal_columns(a))


def _top_eigenspace(projectors):
    """Eigenvalue cut of ``intersection`` on (n, b, b) projector stacks, block by block.

    Returns the eigenvectors of the mean above ``1 - _EIG_TOL`` as an
    (n, b, b) stack with the other columns zeroed, and as the (n b, r)
    columns of the block-diagonal space they span.  An accepted vector
    that some projector moves by more than sqrt(_EIG_TOL) raises
    ``NumericalContractError``.
    """
    w, v = eigh_sym(sum(projectors) / len(projectors))
    keep = w > 1.0 - _EIG_TOL
    basis = np.where(keep[:, None, :], v, 0.0)
    kept = basis[..., keep.any(axis=0)]  # O(b^2 r) per block, not O(b^3)
    for p in projectors:
        if kept.size and np.linalg.norm(p @ kept - kept, axis=-2).max() > np.sqrt(_EIG_TOL):
            raise NumericalContractError(
                "ill-conditioned intersection; a projector moves an accepted vector"
            )
    n, b, _ = basis.shape
    ks, js = np.nonzero(keep)
    cols = np.zeros((n, b, len(ks)), dtype=np.complex128)
    cols[ks, :, np.arange(len(ks))] = basis[ks, :, js]
    return basis, cols.reshape(n * b, -1)


def intersection(subspaces) -> Subspace:
    """Intersection of finitely many subspaces of one ambient space.

    Computed as the top eigenspace of the averaged projector
    (1/N) sum_k P_k: eigenvalues exceeding 1 - 1e-10 are taken.  Every
    accepted eigenvector is cross-checked against each individual
    projector; a vector moved by more than 1e-5 means the eigenvalue cut
    is not trustworthy at this scale.  The same cut, run block by block
    in ``_top_eigenspace``, gives the intersection of a block-built
    ``CyclicProduct``.
    """
    subspaces = list(subspaces)
    if not subspaces:
        raise ValueError("need at least one subspace")
    d = subspaces[0].ambient_dim
    if any(s.ambient_dim != d for s in subspaces):
        raise ValueError("subspaces live in different ambient dimensions")
    _, basis = _top_eigenspace([(s.basis @ s.basis.conj().T)[None] for s in subspaces])
    return Subspace(orthonormal_columns(basis, rank_tol=1e-12))


def complement_within(mk: Subspace, m: Subspace) -> Subspace:
    """Orthogonal complement of ``m`` inside ``mk``, i.e. ``mk ∩ m^perp``.

    Requires ``m`` to be contained in ``mk`` (each basis vector of ``m``
    must be reproduced by the projection onto ``mk`` within 1e-10).
    """
    if mk.ambient_dim != m.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    if m.dim:
        drift = np.linalg.norm(mk.project(m.basis) - m.basis, axis=0)
        if drift.max() > 1e-10:
            raise ValueError("second argument is not contained in the first")
    reduced = mk.basis - m.project(mk.basis)
    return Subspace(orthonormal_columns(reduced))


def orthogonal_complement(s: Subspace) -> Subspace:
    """The full orthogonal complement of ``s`` in its ambient space."""
    d = s.ambient_dim
    if s.dim == 0:
        return Subspace(np.eye(d, dtype=np.complex128))
    u, sv, _ = np.linalg.svd(s.basis, full_matrices=True)
    return Subspace(u[:, s.dim:])
