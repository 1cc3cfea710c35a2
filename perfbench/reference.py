"""Independent NumPy reference for the deficits of polynomial maps.

The benchmark checks every deficit the program returns against these
values.  They are computed from the maps' monomial coefficients with plain
array arithmetic (power tables and matrix products, no code from
``spherestab``), on the same quadrature nodes, in chunks of nodes so the
check does not raise the process's peak memory above the program's own.
On the benchmark's degree-3 maps the integrands are polynomials well
inside the exactness degree of the grids, so the quadrature values agree
with the program's exact-moment route at n = 3 to rounding error.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 4096


def _values_and_jacobians(terms, X):
    """terms: per component a list of (exponent tuple, coefficient)."""
    N, n = X.shape
    exps = sorted({e for comp in terms for e, _ in comp})
    index = {e: j for j, e in enumerate(exps)}
    E = np.array(exps)                                   # (K, n)
    C = np.zeros((len(exps), len(terms)))                # (K, m)
    for i, comp in enumerate(terms):
        for e, c in comp:
            C[index[e], i] = c
    pw = np.ones((n, E.max() + 1, N))                    # pw[l, p] = x_l ** p
    for p in range(1, E.max() + 1):
        pw[:, p] = pw[:, p - 1] * X.T

    def monomials(E):                                    # (N, K)
        return np.prod(pw[np.arange(n), E], axis=1).T

    U = monomials(E) @ C
    J = np.empty((N, len(terms), n))
    for l in range(n):
        El = np.clip(E - np.eye(n, dtype=int)[l], 0, None)
        J[:, :, l] = monomials(El) @ (C * E[:, l:l + 1])
    return U, J


def deficits(terms, nodes: np.ndarray, weights: np.ndarray) -> dict[str, float]:
    """D, P, V, E and the stretch deficits of one polynomial map S^{n-1} -> R^n."""
    n = nodes.shape[1]
    acc = {"D": 0.0, "P": 0.0, "V": 0.0, "delta": 0.0, "delta_isom": 0.0, "sgap": 0.0}
    for a in range(0, nodes.shape[0], _CHUNK):
        X = nodes[a:a + _CHUNK]
        w = weights[a:a + _CHUNK]
        U, J = _values_and_jacobians(terms, X)
        Jx = np.matmul(J, X[:, :, None])                     # (N, n, 1)
        TJ = J - Jx * X[:, None, :]                           # J (I - x x^t)
        sq = np.sum(TJ * TJ, axis=(1, 2))
        acc["D"] += w @ (sq / (n - 1)) ** ((n - 1) / 2.0)
        H = np.matmul(np.swapaxes(TJ, 1, 2), TJ)
        acc["P"] += w @ np.sqrt(np.clip(np.linalg.det(H + X[:, :, None] * X[:, None, :]), 0.0, None))
        acc["V"] += w @ np.linalg.det(TJ + U[:, :, None] * X[:, None, :])
        # H x = 0, so the squared stretches are the n-1 largest eigenvalues
        s = np.sqrt(np.clip(np.linalg.eigvalsh(H)[:, 1:], 0.0, None))
        top = s[:, -1] - 1.0
        acc["delta"] += w @ np.clip(top, 0.0, None) ** 2
        acc["sgap"] += w @ (top * top)
        acc["delta_isom"] += w @ np.sum((s - 1.0) ** 2, axis=1)
    out = {k: float(v) for k, v in acc.items()}
    for k in ("delta", "sgap", "delta_isom"):
        out[k] = float(np.sqrt(out[k]))
    out["epsilon"] = max(0.0, 1.0 - abs(out["V"]))
    out["E"] = out["D"] ** (n / (n - 1)) / abs(out["V"]) - 1.0
    return out
