"""Spans for synthetic products given by their projector blocks.

``CyclicProduct`` takes one (K, b, r) span stack X per factor and forms
its blocks as X X^H.  Tests that plant projector blocks directly (lines,
whole blocks, zero blocks) turn each (K, b, b) stack into such a span
with ``spans_of``.
"""

import numpy as np


def spans_of(*stacks) -> tuple:
    """One span per (K, b, b) projector stack: each block's eigenvectors of
    eigenvalue above 1/2 in its leading columns, zeros after them, r the
    largest rank.  ``eigh`` returns the unit vectors of a diagonal block
    exactly, so the spans of the e_1 e_1^T, e_2 e_2^T, identity and zero
    blocks give those blocks back bit for bit."""
    spans = []
    for p in stacks:
        w, v = np.linalg.eigh(np.asarray(p, dtype=np.complex128))
        w, v = w[..., ::-1], v[..., ::-1]  # descending: the kept columns first
        rank = np.count_nonzero(w > 0.5, axis=-1)
        width = int(rank.max())
        spans.append(np.where(np.arange(width) < rank[:, None, None], v[..., :width], 0.0))
    return tuple(spans)
