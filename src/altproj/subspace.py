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
Subspace being one block: M_k ∩ M^perp from M_k's span, and M^perp from
the identity's where M != {0}.  Every projection onto a span is taken by
one expression, ``_onto``, and every part of a stack off a span by
``_residual``, its difference; an empty span takes the same expressions,
whose products NumPy returns as zeros of the right shape.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalContractError
from .linalg import _finite, as_complex_matrix, eigh_sym, orthonormal_columns

__all__ = [
    "Subspace",
    "orthonormalize",
    "intersection",
    "complement_within",
]

_EIG_TOL = 1e-10  # eigenvalue cut of ``intersection``


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _frozen_copy(x) -> np.ndarray:
    """``x`` as a read-only complex128 array that no caller can write.

    A read-only C-contiguous complex128 array over read-only memory (a
    frozen basis or a view of one) is kept; anything else is copied, so a
    caller's writeable array stays writeable and cannot change the copy.
    """
    a = np.asarray(x)
    owner = a if a.base is None else a.base
    if (a.dtype == np.complex128 and a.flags.c_contiguous
            and isinstance(owner, np.ndarray) and not owner.flags.writeable):
        return a
    return _freeze(np.array(a, dtype=np.complex128, order="C"))


@dataclass(frozen=True)
class Subspace:
    """Column span of a matrix with orthonormal columns.

    Parameters
    ----------
    basis : (d, r) complex array
        Orthonormal columns; ``r = 0`` is the zero subspace.  A NaN or
        infinite entry raises ``ValueError`` before the Gram matrix is
        formed, and so does a Gram entry more than 1e-12 off the identity.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = _finite(as_complex_matrix(_frozen_copy(self.basis)), "basis")
        object.__setattr__(self, "basis", b)
        gram = b.conj().T @ b
        if not (np.abs(gram - np.eye(b.shape[1])) <= 1e-12).all():
            raise ValueError("basis columns are not orthonormal to 1e-12")

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def project(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projection of ``x`` (vector or stacked columns)."""
        return _onto(self.basis, np.asarray(x, dtype=np.complex128))


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
    """The intersection cut on (n, b, b) projector stacks, block by block.

    Returns the eigenvectors of the mean above ``1 - _EIG_TOL`` as an
    (n, b, r) stack: the columns that some block keeps, zeroed in the
    blocks that do not keep them, so r = 0 when M = {0}.  An accepted
    vector that some projector moves by more than sqrt(_EIG_TOL) raises
    ``NumericalContractError``.
    """
    w, v = eigh_sym(sum(projectors) / len(projectors))
    keep = w > 1.0 - _EIG_TOL
    cols = keep.any(axis=0)
    kept = np.where(keep[:, None, cols], v[..., cols], 0.0)
    for p in projectors:  # p @ kept is O(b^2 r) per block, not O(b^3)
        if np.linalg.norm(p @ kept - kept, axis=-2).max(initial=0.0) > np.sqrt(_EIG_TOL):
            raise NumericalContractError(
                "ill-conditioned intersection; a projector moves an accepted vector"
            )
    return kept


def _dense_columns(mb: np.ndarray) -> np.ndarray:
    """The nonzero columns of an (n, b, w) block stack as (n b, r) columns of the
    block-diagonal space they span, block by block and in column order."""
    n, b, _ = mb.shape
    ks, js = np.nonzero(np.any(mb != 0, axis=-2))
    cols = np.zeros((n, b, len(ks)), dtype=np.complex128)
    cols[ks, :, np.arange(len(ks))] = mb[ks, :, js]
    return cols.reshape(n * b, -1)


def _basis_stacks(subspaces: list) -> list:
    """The (1, d, r) span stacks of a list of subspaces, their bases; an empty
    list and mixed ambient dimensions are refused."""
    if not subspaces:
        raise ValueError("need at least one subspace")
    d = subspaces[0].ambient_dim
    if any(s.ambient_dim != d for s in subspaces):
        raise ValueError("subspaces live in different ambient dimensions")
    return [s.basis[None] for s in subspaces]


def _projector(x: np.ndarray) -> np.ndarray:
    """The blocks X X^H of a finite, nonempty (n, b, r) span stack, formed
    without an overflow warning; ``ValueError`` unless they are finite and
    idempotent to 1e-12, entry by entry."""
    with np.errstate(over="ignore", invalid="ignore"):
        p = x @ x.conj().swapaxes(-1, -2)
        if not (np.isfinite(p).all() and np.abs(p @ p - p).max() <= 1e-12):
            raise ValueError("span does not give a projection: X X^H is not finite and idempotent")
    return p


def intersection(subspaces) -> Subspace:
    """Intersection of finitely many subspaces of one ambient space.

    The eigenvectors of the averaged projector (1/N) sum_k P_k with
    eigenvalues above 1 - 1e-10, each cross-checked against every P_k: a
    vector moved by more than 1e-5 means the cut is not trustworthy at
    this scale.  ``CyclicProduct`` runs the same cut on its own blocks, so
    this equals ``build_cyclic(subspaces).m`` bit for bit.
    """
    blocks = [_projector(x) for x in _basis_stacks(list(subspaces))]
    return Subspace(_dense_columns(_top_eigenspace(blocks)))


def _onto(span: np.ndarray, v: np.ndarray) -> np.ndarray:
    """X (X^H v) on (..., b, .) stacks: the projection of ``v`` onto the span of
    X, block by block; zeros of ``v``'s shape when X has no columns."""
    return span @ (span.conj().swapaxes(-1, -2) @ v)


def _residual(span: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v - X (X^H v) on (n, b, .) stacks: the part of ``v`` off the span of X,
    block by block."""
    return v - _onto(span, v)


def _complement_within_blocks(span: np.ndarray, mb: np.ndarray) -> np.ndarray:
    """Orthonormal bases of M_k ∩ M^perp, block by block, as an (n, b, w) stack.

    ``span`` is an (n, b, s) stack of blocks X with X X^H = P_k and ``mb``
    an (n, b, r) stack of M's basis, zero columns allowed in both.  M
    must lie in M_k: a basis vector of M that P_k moves by more than
    1e-10 raises ``ValueError``.  The singular values of (I - P_M) X are
    0 or 1 up to rounding, so a block's rank is the count above 1/2; a
    block where M_k equals M has rank 0.  Each block keeps its rank's
    leading columns and zeros after them, and w is the largest rank.
    An identity stack as ``span`` gives M^perp.  ``CyclicProduct`` takes
    that route only where M != {0}; for M = {0} it keeps the identity
    without an SVD, whose LAPACK result would be the identity bit for bit.
    """
    if np.linalg.norm(_residual(span, mb), axis=-2).max(initial=0.0) > 1e-10:
        raise ValueError("second argument is not contained in the first")
    u, s, _ = np.linalg.svd(_residual(mb, span), full_matrices=False)
    rank = np.count_nonzero(s > 0.5, axis=-1)
    width = int(rank.max())
    return np.where(np.arange(width) < rank[:, None, None], u[..., :width], 0.0)


def complement_within(mk: Subspace, m: Subspace) -> Subspace:
    """Orthogonal complement of ``m`` inside ``mk``, i.e. ``mk ∩ m^perp``.

    Requires ``m`` to be contained in ``mk`` (each basis vector of ``m``
    must be reproduced by the projection onto ``mk`` within 1e-10).
    Computed by ``_complement_within_blocks`` on one block.
    """
    if mk.ambient_dim != m.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    return Subspace(_complement_within_blocks(mk.basis[None], m.basis[None])[0])
