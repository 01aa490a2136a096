"""Closed subspaces of a finite-dimensional complex Hilbert space.

A subspace is represented by a ``d x r`` matrix with orthonormal columns;
``r = 0`` encodes the zero subspace.  Real input is promoted to complex.
The orthogonal projection onto a subspace is ``B B^H`` for its basis
``B``; the orthonormality check at construction is what makes that matrix
Hermitian and idempotent, so no separate projection type exists.  Rank
decisions are made through singular values, with a threshold relative
to the largest one where the scale of the input is unknown; all
constructed objects are immutable.  The complements that the angle
quantities need are computed on (n, b, .) stacks of diagonal blocks, a
Subspace being one block.
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
    (n, b, b) stack with the other columns zeroed.  An accepted vector
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
    return basis


def _dense_columns(mb: np.ndarray) -> np.ndarray:
    """The nonzero columns of an (n, b, w) block stack as (n b, r) columns of the
    block-diagonal space they span, block by block and in column order."""
    n, b, _ = mb.shape
    ks, js = np.nonzero(np.any(mb != 0, axis=-2))
    cols = np.zeros((n, b, len(ks)), dtype=np.complex128)
    cols[ks, :, np.arange(len(ks))] = mb[ks, :, js]
    return cols.reshape(n * b, -1)


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
    basis = _top_eigenspace([(s.basis @ s.basis.conj().T)[None] for s in subspaces])
    return Subspace(orthonormal_columns(_dense_columns(basis), rank_tol=1e-12))


def _complement_within_blocks(span: np.ndarray, mb: np.ndarray) -> np.ndarray:
    """Orthonormal bases of M_k ∩ M^perp, block by block, as an (n, b, w) stack.

    ``span`` is an (n, b, s) stack of blocks X with X X^H = P_k, an
    orthonormal basis of M_k or its projector, and ``mb`` an (n, b, r)
    stack of M's basis (zero columns allowed).  M must lie in M_k: a
    basis vector of M that P_k moves by more than 1e-10 raises
    ``ValueError``.  The singular values of (I - P_M) X are 0 or 1 up to
    rounding, so a block's rank is the count above 1/2; a block where M_k
    equals M has rank 0.  Each block keeps its rank's leading columns and
    zeros after them, and w is the largest rank.
    """
    if mb.shape[-1]:
        drift = np.linalg.norm(span @ (span.conj().swapaxes(-1, -2) @ mb) - mb, axis=-2)
        if drift.max() > 1e-10:
            raise ValueError("second argument is not contained in the first")
    reduced = span - mb @ (mb.conj().swapaxes(-1, -2) @ span)
    if 0 in reduced.shape[1:]:
        return np.zeros(reduced.shape[:2] + (0,), dtype=np.complex128)
    u, s, _ = np.linalg.svd(reduced, full_matrices=False)
    rank = np.count_nonzero(s > 0.5, axis=-1)
    width = int(rank.max())
    return np.where(np.arange(width) < rank[:, None, None], u[..., :width], 0.0)


def _orthogonal_complement_blocks(mb: np.ndarray) -> np.ndarray:
    """Orthonormal bases of M^perp, block by block, as an (n, b, w) stack.

    ``mb`` is an (n, b, r) stack of M's basis; a block's rank is its count
    of nonzero columns.  A block of rank r keeps the last b - r left
    singular vectors of its M block (all of I when r = 0) as its leading
    columns, zeros after them; w is b minus the smallest rank.
    """
    n, b, _ = mb.shape
    rank = np.count_nonzero(np.any(mb != 0, axis=-2), axis=-1)
    u = np.broadcast_to(np.eye(b, dtype=np.complex128), (n, b, b))
    if rank.any():
        u = np.where(rank[:, None, None] > 0, np.linalg.svd(mb)[0], u)
    cols = rank[:, None] + np.arange(b - rank.min())
    kept = np.take_along_axis(u, np.minimum(cols, b - 1)[:, None, :], axis=-1)
    return np.where(cols[:, None, :] < b, kept, 0.0)


def complement_within(mk: Subspace, m: Subspace) -> Subspace:
    """Orthogonal complement of ``m`` inside ``mk``, i.e. ``mk ∩ m^perp``.

    Requires ``m`` to be contained in ``mk`` (each basis vector of ``m``
    must be reproduced by the projection onto ``mk`` within 1e-10).
    Computed by ``_complement_within_blocks`` on one block.
    """
    if mk.ambient_dim != m.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    return Subspace(_complement_within_blocks(mk.basis[None], m.basis[None])[0])


def orthogonal_complement(s: Subspace) -> Subspace:
    """The full orthogonal complement of ``s`` in its ambient space."""
    return Subspace(_orthogonal_complement_blocks(s.basis[None])[0])
