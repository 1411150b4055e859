"""Dense matrices of the Dirichlet-truncated system on the 2m+1 sites
-m..m, written entry by entry from the componentwise formulas with
x_j = 0 for |j| > m:

    (D- x)_i = x_{i-1} - x_i,        (D+ x)_i = x_{i+1} - x_i,

and the truncated Laplacian, tridiagonal with off-diagonals -1 and
diagonal (2, ..., 2, 1).  Nothing here calls the package, so the tests use
these as the independent oracle of its truncated kernels."""

import numpy as np


def d_minus_matrix(m: int) -> np.ndarray:
    n = 2 * m + 1
    D = np.zeros((n, n))
    for i in range(n):
        D[i, i] = -1.0
        if i > 0:
            D[i, i - 1] = 1.0
    return D


def d_plus_matrix(m: int) -> np.ndarray:
    n = 2 * m + 1
    D = np.zeros((n, n))
    for i in range(n):
        D[i, i] = -1.0
        if i < n - 1:
            D[i, i + 1] = 1.0
    return D


def laplacian_matrix(m: int) -> np.ndarray:
    n = 2 * m + 1
    L = np.zeros((n, n))
    for i in range(n):
        L[i, i] = 2.0 if i < n - 1 else 1.0
        if i > 0:
            L[i, i - 1] = -1.0
        if i < n - 1:
            L[i, i + 1] = -1.0
    return L


def dense_truncated_field(p, X: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The truncated system's field at X (the sites in its last axis) with
    forcing f, from the matrices above."""
    m = (X.shape[-1] - 1) // 2
    nu = -p.nu if p.laplacian_sign == "continuum" else p.nu
    return (nu * X @ laplacian_matrix(m).T
            - p.alpha * X * (X @ d_minus_matrix(m).T)
            + p.beta * X * (1 - X) * (X - p.gamma) - p.lam * X + f)
