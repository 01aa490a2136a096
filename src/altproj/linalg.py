"""Small dense linear-algebra helpers used throughout the package.

Eigenvalue routines for Hermitian data always symmetrize their input
explicitly before calling LAPACK, so that downstream guarantees never
depend on how a caller assembled the matrix.  ``sym`` and ``eigh_sym``
accept a single matrix or a ``(..., d, d)`` stack; LAPACK factors each
matrix of a stack on its own, so one call over a stack returns the same
bits as a loop of calls.  Kernels that stack many matrices cut the stack
into chunks of ``stack_chunk(d)`` matrices (about 2 MiB of complex data),
which bounds their memory and changes no result.  ``_powers`` forms the
powers of a stack by doubling, in the stack's own dtype, for the orbit
and the series of ``iteration`` and the power profile of ``spectral``.
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


def _powers(a: np.ndarray, count: int) -> np.ndarray:
    """a^0, ..., a^{count-1} of an (n, b, b) stack, as one (count, n, b, b) array.

    Built by doubling: once a^0..a^h are known, one stacked ``matmul``
    a^j a^h gives the next min(h, count - 1 - h) of them, so count powers
    take about log2(count) calls.  The powers have ``a``'s dtype: float64
    for the real blocks of ``iteration.iterate``, complex128 elsewhere.
    """
    powers = np.empty((count,) + a.shape, dtype=a.dtype)
    powers[0] = np.eye(a.shape[-1])
    powers[1:2] = a  # nothing when count is 1
    h = 1
    while h < count - 1:
        g = min(h, count - 1 - h)
        np.matmul(powers[1:g + 1], powers[h], out=powers[h + 1:h + g + 1])
        h += g
    return powers


_STACK_BYTES = 2**21  # cap on one stack of complex matrices


def stack_chunk(d: int) -> int:
    """Number of complex d x d matrices that fit in one capped stack (at least 1)."""
    return max(1, _STACK_BYTES // (16 * d * d))


def _blocks_chunk(n: int, b: int) -> int:
    """Number of (n, b, b) block stacks that fit in one capped stack (at least 1)."""
    return max(1, stack_chunk(b) // n)


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
    """Largest singular value of ``a``, or over a stack (0.0 when empty)."""
    a = np.atleast_2d(np.asarray(a))
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False).max())


def diagonalize(a: np.ndarray):
    """Eigenvalues and eigenvectors ``(lam, v)`` of an (n, b, b) stack, both read-only.

    Returns None when the eigenvector basis is singular or its condition
    number, the largest singular value over all blocks over the smallest,
    reaches ``_EIG_COND_CAP``; ``numpy.linalg.eig`` errors propagate.
    """
    lam, v = np.linalg.eig(a)
    sv = np.linalg.svd(v, compute_uv=False)
    if sv.min() == 0.0 or sv.max() / sv.min() >= _EIG_COND_CAP:
        return None
    lam.setflags(write=False)
    v.setflags(write=False)
    return lam, v


def orthonormal_columns(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis for the column span of ``a``.

    Rank is decided by singular values larger than 1e-10 times the
    largest one, so the cut is relative to the scale of the input.  An
    all-zero (or empty) input yields a ``(d, 0)`` array.
    """
    a = as_complex_matrix(a)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros((a.shape[0], 0), dtype=np.complex128)
    rank = int(np.count_nonzero(s > 1e-10 * s[0]))
    return u[:, :rank]
