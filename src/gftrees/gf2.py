"""Dense Z2 linear algebra on numpy uint8 arrays (values 0/1)."""

from __future__ import annotations

import numpy as np


def asmat(A):
    M = np.asarray(A, dtype=np.uint8) % 2
    if M.ndim == 1:
        M = M.reshape(1, -1)
    return M


def rref(A):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    R = asmat(A).copy()
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hits = np.nonzero(R[r:, c])[0]
        if len(hits) == 0:
            continue
        pr = r + hits[0]
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        others = np.nonzero(R[:, c])[0]
        for o in others:
            if o != r:
                R[o] ^= R[r]
        pivots.append(c)
        r += 1
    return R, pivots


def rank(A):
    return len(rref(A)[1])


def nullspace(A):
    """Columns spanning ker(A), in the pivot-free parametrization: free
    column j gets the basis vector with a 1 at j and pivot back-substitution
    above."""
    R, pivots = rref(A)
    cols = R.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.uint8)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for r, pc in enumerate(pivots):
            if R[r, fc]:
                basis[pc, k] = 1
    return basis


def solve(A, b):
    """One solution x of A x = b over Z2, or None if inconsistent."""
    A = asmat(A)
    b = np.asarray(b, dtype=np.uint8) % 2
    aug = np.column_stack([A, b])
    R, pivots = rref(aug)
    cols = A.shape[1]
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.uint8)
    for r, pc in enumerate(pivots):
        x[pc] = R[r, cols]
    return x
