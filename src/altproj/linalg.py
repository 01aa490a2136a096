"""Small dense linear-algebra helpers used throughout the package.

Eigenvalue routines for Hermitian data always symmetrize their input
explicitly before calling LAPACK, so that downstream guarantees never
depend on how a caller assembled the matrix.  ``sym`` and ``eigh_sym``
accept a single matrix or a ``(..., d, d)`` stack; LAPACK factors each
matrix of a stack on its own, so one call over a stack returns the same
bits as a loop of calls.  Kernels that stack many matrices cut the stack
into chunks of ``stack_chunk(d)`` matrices (about 2 MiB of complex data),
which bounds their memory and changes no result.
"""

import numpy as np

__all__ = [
    "as_complex_matrix",
    "stack_chunk",
    "sym",
    "eigh_sym",
    "spectral_norm",
    "diagonalize",
    "orthonormal_columns",
]

_EIG_COND_CAP = 1e6  # eigenvector conditioning limit of ``diagonalize``


def as_complex_matrix(a) -> np.ndarray:
    """Return ``a`` as a 2-d complex128 array (real input is promoted)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    return m


def _finite(x, name: str = "x") -> np.ndarray:
    """``x`` as a complex128 array; ``ValueError`` when an entry is NaN or infinite."""
    a = np.asarray(x, dtype=np.complex128)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def _dense(t) -> np.ndarray:
    """The matrix of an operator: a ``CyclicProduct``'s ``matrix``, or ``t`` itself."""
    return as_complex_matrix(getattr(t, "matrix", t))


_STACK_BYTES = 2**21  # cap on one stack of complex matrices


def stack_chunk(d: int) -> int:
    """Number of complex d x d matrices that fit in one capped stack (at least 1)."""
    return max(1, _STACK_BYTES // (16 * d * d))


def sym(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^H)/2 of a matrix or of each matrix of a stack."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def eigh_sym(a: np.ndarray):
    """Eigendecomposition of the explicitly symmetrized input.

    Returns ``(w, v)`` with eigenvalues ascending, like ``numpy.linalg.eigh``;
    a ``(..., d, d)`` stack gives ``(..., d)`` and ``(..., d, d)`` results.
    """
    return np.linalg.eigh(sym(np.asarray(a, dtype=np.complex128)))


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of ``a`` (0.0 for an empty matrix)."""
    a = np.atleast_2d(np.asarray(a))
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def diagonalize(a: np.ndarray):
    """Eigenvalues and eigenvectors ``(lam, v)`` of ``a``, both read-only.

    Returns None when the eigenvector basis is singular or its condition
    number reaches ``_EIG_COND_CAP``; ``numpy.linalg.eig`` errors propagate.
    """
    lam, v = np.linalg.eig(a)
    sv = np.linalg.svd(v, compute_uv=False)
    if sv[-1] == 0.0 or sv[0] / sv[-1] >= _EIG_COND_CAP:
        return None
    lam.setflags(write=False)
    v.setflags(write=False)
    return lam, v


def orthonormal_columns(a: np.ndarray, rank_tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis for the column span of ``a``.

    Rank is decided by singular values larger than ``rank_tol`` times the
    largest one, so the cut is relative to the scale of the input.  An
    all-zero (or empty) input yields a ``(d, 0)`` array, and a non-finite
    ``rank_tol`` is refused.
    """
    if not np.isfinite(rank_tol):
        raise ValueError("rank_tol must be finite")
    a = as_complex_matrix(a)
    d = a.shape[0]
    if a.shape[1] == 0:
        return np.zeros((d, 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros((d, 0), dtype=np.complex128)
    rank = int(np.count_nonzero(s > rank_tol * s[0]))
    return u[:, :rank]
