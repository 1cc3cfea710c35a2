"""Maps from S^{n-1} into R^m and their pointwise surface calculus.

A map is backed either by exact polynomials per component, by sampled
values + ambient Jacobians on a fixed grid, or by callables (used for
Moebius maps and compositions; not serializable).  All geometric
quantities are assembled frame-invariantly from the ambient Jacobian J
and the projector P = I - x x^t:

    tangential Jacobian      J P = J - (J x) x^t
    first fundamental form   H = (J P)^t (J P), with H x = 0
    surface divergence       tr(J P)
    principal stretches      square roots of the n-1 largest eigenvalues of H
    volume-form integrand    det(J P + u x^t)

so no local tangent frame is ever chosen.  The kernels contract with
broadcasts and batched matmuls.  The determinant convention is fixed so
that the identity map has signed volume +1 in every dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .polynomials import Poly, evaluate
from .quadrature import SphereGrid, default_sphere_grid

__all__ = [
    "SphereMap",
    "identity_map",
    "poly_map",
    "sampled_map",
    "callable_map",
    "projectors",
    "tangential_jacobians",
    "surface_divergence",
    "principal_stretch_values",
    "volume_integrand",
    "area_integrand",
    "dirichlet_integrand",
    "a_operator_values",
    "sym_tangential_part",
]


@dataclass
class PolyBacking:
    components: tuple[Poly, ...]


@dataclass
class SampledBacking:
    grid: SphereGrid
    values: np.ndarray              # (N, m)
    jacobians: np.ndarray | None    # (N, m, n) ambient Jacobians


@dataclass
class CallableBacking:
    value_fn: Callable[[np.ndarray], np.ndarray]
    jacobian_fn: Callable[[np.ndarray], np.ndarray] | None


@dataclass
class SphereMap:
    """A map S^{n-1} -> R^m with one of three backings."""

    n: int
    m: int
    backing: PolyBacking | SampledBacking | CallableBacking

    # -- queries -----------------------------------------------------------
    @property
    def is_poly(self) -> bool:
        return isinstance(self.backing, PolyBacking)

    @property
    def is_sampled(self) -> bool:
        return isinstance(self.backing, SampledBacking)

    @property
    def components(self) -> tuple[Poly, ...]:
        if not self.is_poly:
            raise TypeError("components only available for poly-backed maps")
        return self.backing.components

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Values at arbitrary points, shape (N, m)."""
        pts = np.atleast_2d(points)
        if self.is_poly:
            return evaluate(self.backing.components, pts)
        if isinstance(self.backing, CallableBacking):
            return np.asarray(self.backing.value_fn(pts))
        raise TypeError("sampled maps only carry values at their own grid nodes")

    def jac(self, points: np.ndarray) -> np.ndarray:
        """Ambient Jacobians at arbitrary points, shape (N, m, n)."""
        pts = np.atleast_2d(points)
        if self.is_poly:
            grads = [c.diff(l) for c in self.backing.components for l in range(self.n)]
            return evaluate(grads, pts).reshape(-1, self.m, self.n)
        if isinstance(self.backing, CallableBacking):
            if self.backing.jacobian_fn is None:
                raise TypeError("map has no gradient data")
            return np.asarray(self.backing.jacobian_fn(pts))
        raise TypeError("sampled maps only carry gradients at their own grid nodes")

    def sample(self, grid: SphereGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(nodes, values, jacobians) on the given grid."""
        if self.is_sampled:
            b = self.backing
            if b.grid.size != grid.size or b.grid is not grid:
                if not np.array_equal(b.grid.nodes, grid.nodes):
                    raise ValueError("sampled map is bound to its own grid")
            return b.grid.nodes, b.values, b.jacobians
        X = grid.nodes
        U = self.eval(X)
        try:
            J = self.jac(X)
        except TypeError:
            J = None
        return X, U, J

    @property
    def grid(self) -> SphereGrid | None:
        return self.backing.grid if self.is_sampled else None

    # -- algebra (poly maps) -------------------------------------------------
    def __add__(self, other: "SphereMap") -> "SphereMap":
        if not (self.is_poly and other.is_poly):
            raise TypeError("map addition requires poly backing")
        comps = tuple(a + b for a, b in zip(self.components, other.components))
        return SphereMap(self.n, self.m, PolyBacking(comps))

    def scale(self, a: float) -> "SphereMap":
        if not self.is_poly:
            raise TypeError("scaling requires poly backing")
        return SphereMap(self.n, self.m, PolyBacking(tuple(c.scale(a) for c in self.components)))


def poly_map(n: int, components) -> SphereMap:
    comps = tuple(components)
    return SphereMap(n, len(comps), PolyBacking(comps))


def sampled_map(grid: SphereGrid, values: np.ndarray, jacobians: np.ndarray | None) -> SphereMap:
    values = np.asarray(values, dtype=float)
    return SphereMap(grid.n, values.shape[1], SampledBacking(grid, values, jacobians))


def callable_map(n: int, m: int, value_fn, jacobian_fn=None) -> SphereMap:
    return SphereMap(n, m, CallableBacking(value_fn, jacobian_fn))


def identity_map(n: int) -> SphereMap:
    return poly_map(n, [Poly.coordinate(n, i) for i in range(n)])


def linear_map(A: np.ndarray) -> SphereMap:
    """The map x -> A x as a poly-backed SphereMap."""
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    units = [tuple(np.eye(n, dtype=int)[l].tolist()) for l in range(n)]
    comps = tuple(Poly(n, dict(zip(units, A[i]))) for i in range(m))
    return SphereMap(n, m, PolyBacking(comps))


def _node_data(u: SphereMap, grid: SphereGrid | None):
    """(grid, nodes, values, Jacobians) of u on the given grid, else on its
    own grid, else on the default grid of its dimension."""
    g = grid or u.grid or default_sphere_grid(u.n)
    X, U, J = u.sample(g)
    if J is None:
        raise ValueError("map has no gradient data")
    return g, X, U, J


# ---------------------------------------------------------------------------
# pointwise geometry kernels (vectorized over nodes)
# ---------------------------------------------------------------------------

def projectors(X: np.ndarray) -> np.ndarray:
    """P = I - x x^t per node, shape (N, n, n)."""
    n = X.shape[1]
    return np.eye(n) - X[:, :, None] * X[:, None, :]


def tangential_jacobians(J: np.ndarray, X: np.ndarray) -> np.ndarray:
    """J P per node."""
    return J - (J @ X[:, :, None]) * X[:, None, :]


def _pjp(J: np.ndarray, X: np.ndarray) -> np.ndarray:
    """P J P = J P - x (x^t J P) per node (square J)."""
    TJ = tangential_jacobians(J, X)
    return TJ - X[:, :, None] * (X[:, None, :] @ TJ)


def _stretches(TJ: np.ndarray) -> np.ndarray:
    """Principal stretches (ascending) from tangential Jacobians, shape (N, n-1).

    H = TJ^t TJ annihilates x, so the squared stretches are its n-1
    largest eigenvalues.
    """
    H = np.swapaxes(TJ, 1, 2) @ TJ
    return np.sqrt(np.clip(np.linalg.eigvalsh(H)[:, 1:], 0.0, None))


def surface_divergence(J: np.ndarray, X: np.ndarray) -> np.ndarray:
    """tr(J P) = tr J - x^t J x per node (square J)."""
    Jx = (J @ X[:, :, None])[:, :, 0]
    return np.trace(J, axis1=1, axis2=2) - np.sum(X * Jx, axis=1)


def principal_stretch_values(J: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Sorted principal stretches (ascending), shape (N, n-1)."""
    return _stretches(tangential_jacobians(J, X))


def _volume_density(U: np.ndarray, TJ: np.ndarray, X: np.ndarray) -> np.ndarray:
    return np.linalg.det(TJ + U[:, :, None] * X[:, None, :])


def _dirichlet_density(sq: np.ndarray, n: int) -> np.ndarray:
    """(|grad_T u|^2 / (n-1))^((n-1)/2) from |grad_T u|^2 per node."""
    return (sq / (n - 1)) ** ((n - 1) / 2.0)


def volume_integrand(U: np.ndarray, J: np.ndarray, X: np.ndarray) -> np.ndarray:
    """det(J P + u x^t) per node; integrates to the signed volume V_n."""
    return _volume_density(U, tangential_jacobians(J, X), X)


def area_integrand(J: np.ndarray, X: np.ndarray) -> np.ndarray:
    """sqrt(det of the tangential first fundamental form) per node."""
    TJ = tangential_jacobians(J, X)
    G = np.swapaxes(TJ, 1, 2) @ TJ + X[:, :, None] * X[:, None, :]
    return np.sqrt(np.clip(np.linalg.det(G), 0.0, None))


def dirichlet_integrand(J: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(|grad_T u|^2 / (n-1))^((n-1)/2) per node."""
    TJ = tangential_jacobians(J, X)
    return _dirichlet_density(np.sum(TJ * TJ, axis=(1, 2)), X.shape[1])


def a_operator_values(U: np.ndarray, J: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(div_S w) x - sum_j x_j grad_T w^j per node (m == n)."""
    TJ = tangential_jacobians(J, X)
    div = np.einsum("aii->a", TJ)
    return div[:, None] * X - np.einsum("aj,ajl->al", X, TJ)


def sym_tangential_part(J: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(P J P)_sym per node: the symmetrized tangential-tangential block."""
    PJP = _pjp(J, X)
    return 0.5 * (PJP + np.swapaxes(PJP, 1, 2))
