"""The pivoted Gaussian elimination that solved the normal equations before
the fit moved to numpy.linalg, kept verbatim as a reference for its
coefficients, covariances and SingularDesign decisions."""

import numpy as np

from threadtone.errors import SingularDesign

_PIVOT_RTOL = 1e-10


def _solve_pivoted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b by Gaussian elimination with partial pivoting.

    Raises SingularDesign when a pivot falls below _PIVOT_RTOL relative to
    the largest entry of ``a``.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    k = a.shape[0]
    if a.shape != (k, k):
        raise ValueError("matrix must be square")
    b_was_vector = b.ndim == 1
    if b_was_vector:
        b = b[:, None]
    scale = np.abs(a).max()
    if scale == 0.0:
        raise SingularDesign("all-zero normal equations")
    tol = _PIVOT_RTOL * scale
    for col in range(k):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[pivot_row, col]) <= tol:
            raise SingularDesign(f"rank-deficient design (pivot {col})")
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            b[[col, pivot_row]] = b[[pivot_row, col]]
        for row in range(col + 1, k):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros_like(b)
    for col in range(k - 1, -1, -1):
        x[col] = (b[col] - a[col, col + 1:] @ x[col + 1:]) / a[col, col]
    return x[:, 0] if b_was_vector else x
