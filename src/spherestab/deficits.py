"""Nonlinear deficit functionals: stretches, signed volume, Dirichlet
energy, generalized perimeter, and the combined conformal-isoperimetric
deficit.

The signed volume is computed frame-free as the integral of
det(J P + u x^t); with the convention that the outward normal closes a
positively oriented frame this gives V(id) = +1 in every dimension, and
V(Ax) = det A by multilinearity.  For n = 3 polynomial maps it is
evaluated exactly through moments, and the bulk identity
avg_{B_1} det grad(u_h) = V_3(u) is available as an independent check.

`deficit_report` and `combined_deficit` sample the map once and build the
tangential Jacobians once.  The report takes every quadrature integrand
from the principal stretches s_i (square roots of the eigenvalues of the
first fundamental form): the perimeter density is prod s_i and the
Dirichlet density (sum s_i^2 / (n-1))^((n-1)/2).  The volume and the
Dirichlet energy of n = 3 polynomial maps keep their exact moment routes,
so every field equals its standalone functional.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedDeficitError
from .harmonics import harmonicize
from .polynomials import Poly
from .quadrature import SphereGrid
from .spheremap import (
    SphereMap,
    _dirichlet_density,
    _node_data,
    _stretches,
    _volume_density,
    area_integrand,
    dirichlet_integrand,
    principal_stretch_values,
    tangential_jacobians,
    volume_integrand,
)

__all__ = [
    "principal_stretches",
    "isometric_deficit",
    "full_isometric_deficit",
    "stretch_norm",
    "isoperimetric_deficit",
    "signed_volume",
    "dirichlet",
    "perimeter",
    "combined_deficit",
    "bulk_volume",
    "volume_expansion_check",
    "DeficitReport",
    "deficit_report",
]

_VOL_EPS = 1e-10


def _exact_route(u: SphereMap) -> bool:
    """Poly maps of S^2 get V and D exactly through moments."""
    return u.is_poly and u.n == 3


def _check_square(u: SphereMap) -> None:
    if u.m != u.n:
        raise ValueError("signed volume needs a map into R^n")


def principal_stretches(G: np.ndarray) -> np.ndarray:
    """Sorted singular values of a tangential gradient matrix.

    Accepts the honest m x (n-1) matrix, or the ambient m x n matrix J P
    (in which case the structural zero singular value is dropped).
    """
    G = np.asarray(G, dtype=float)
    s = np.linalg.svd(G, compute_uv=False)
    if G.shape[1] == G.shape[0]:  # ambient square representation
        s = s[:-1]
    return np.sort(s)


def isometric_deficit(u: SphereMap, grid: SphereGrid | None = None) -> float:
    """delta(u): L2 norm of the positive part of (largest stretch - 1)."""
    g, X, U, J = _node_data(u, grid)
    s = principal_stretch_values(J, X)
    top = np.clip(s[:, -1] - 1.0, 0.0, None)
    return float(np.sqrt(g.weights @ (top * top)))


def stretch_norm(u: SphereMap, grid: SphereGrid | None = None) -> float:
    """L2 norm of (largest stretch - 1), without the positive part."""
    g, X, U, J = _node_data(u, grid)
    s = principal_stretch_values(J, X)
    d = s[:, -1] - 1.0
    return float(np.sqrt(g.weights @ (d * d)))


def full_isometric_deficit(u: SphereMap, grid: SphereGrid | None = None) -> float:
    """L2 distance of sqrt(grad_T u^t grad_T u) from the identity."""
    g, X, U, J = _node_data(u, grid)
    s = principal_stretch_values(J, X)
    d = np.sum((s - 1.0) ** 2, axis=1)
    return float(np.sqrt(g.weights @ d))


def signed_volume(u: SphereMap, grid: SphereGrid | None = None) -> float:
    """V_n(u): normalized integral of det(J P + u x^t).

    Exact for poly maps with n = 3 (moment route); quadrature otherwise,
    which is still exact whenever the integrand degree fits the grid.
    """
    _check_square(u)
    if _exact_route(u):
        return _poly_volume_integrand(u).sphere_integral()
    g, X, U, J = _node_data(u, grid)
    return float(g.weights @ volume_integrand(U, J, X))


def _poly_volume_integrand(u: SphereMap) -> Poly:
    """det(J P + u x^t) as an exact polynomial (n = 3).

    Entry (i, l) is d_l u^i - <x, grad u^i> x_l + u^i x_l, and <x, grad u^i>
    is the Euler operator applied to u^i.
    """
    B = [[c.diff(l) - c.euler().xmul(l) + c.xmul(l) for l in range(3)] for c in u.components]
    return _det3(B)


def _det3(B) -> Poly:
    return (
        B[0][0] * (B[1][1] * B[2][2] - B[1][2] * B[2][1])
        - B[0][1] * (B[1][0] * B[2][2] - B[1][2] * B[2][0])
        + B[0][2] * (B[1][0] * B[2][1] - B[1][1] * B[2][0])
    )


def isoperimetric_deficit(u: SphereMap, grid: SphereGrid | None = None) -> float:
    """epsilon(u) = (1 - |V_n(u)|)_+."""
    return max(0.0, 1.0 - abs(signed_volume(u, grid)))


def dirichlet(u: SphereMap, grid: SphereGrid | None = None) -> float:
    """(n-1)-Dirichlet energy: integral of (|grad_T u|^2/(n-1))^((n-1)/2).

    For n = 3 this is half the tangential energy and is exact on poly maps.
    """
    if _exact_route(u):
        from .forms import tangential_energy

        return 0.5 * tangential_energy(u)
    g, X, U, J = _node_data(u, grid)
    return float(g.weights @ dirichlet_integrand(J, X))


def perimeter(u: SphereMap, grid: SphereGrid | None = None) -> float:
    """Generalized area: integral of sqrt(det(grad_T u^t grad_T u))."""
    g, X, U, J = _node_data(u, grid)
    return float(g.weights @ area_integrand(J, X))


def combined_deficit(u: SphereMap, grid: SphereGrid | None = None) -> float:
    """E_{n-1}(u) = D^{n/(n-1)} / |V| - 1; undefined when V vanishes."""
    n = u.n
    if _exact_route(u):
        V, D = signed_volume(u), dirichlet(u)
    else:
        _check_square(u)
        g, X, U, J = _node_data(u, grid)
        TJ = tangential_jacobians(J, X)
        V = float(g.weights @ _volume_density(U, TJ, X))
        D = float(g.weights @ _dirichlet_density(np.sum(TJ * TJ, axis=(1, 2)), n))
    if abs(V) <= _VOL_EPS:
        raise UndefinedDeficitError("signed volume vanishes; combined deficit undefined")
    return D ** (n / (n - 1)) / abs(V) - 1.0


def bulk_volume(u: SphereMap) -> float:
    """Normalized ball integral of det grad(u_h), u_h the harmonic extension.

    Independent of the surface route: the extension is harmonicized
    exactly and the determinant integrated with ball moments.
    """
    if u.n != 3 or u.m != 3:
        raise ValueError("bulk volume implemented for maps of S^2 into R^3")
    if not u.is_poly:
        raise ValueError("bulk volume needs a poly-backed map")
    uh = harmonicize(u)
    J = [[c.diff(l) for l in range(3)] for c in uh.components]
    return _det3(J).ball_integral()


def volume_expansion_check(w: SphereMap) -> tuple[float, float, float, float]:
    """Cubic coefficients of t -> V_3(id + t w), fitted exactly.

    Returns (a0, a1, a2, a3); the expansion identities give a0 = 1,
    a1 = 3 * avg<w, x>, a2 = q_vol(w, w), a3 = V_3(w).
    """
    from .spheremap import identity_map

    if not w.is_poly or w.n != 3:
        raise ValueError("expansion check needs a poly map into R^3")
    iden = identity_map(3)
    ts = np.array([-1.0, -0.5, 0.5, 1.0])
    vals = np.array([signed_volume(iden + w.scale(t)) for t in ts])
    Vmat = np.vander(ts, 4, increasing=True)
    a = np.linalg.solve(Vmat, vals)
    return tuple(float(x) for x in a)


@dataclass(frozen=True)
class DeficitReport:
    """All deficits of one map, plus degree and norm diagnostics."""

    n: int
    delta: float
    delta_isom: float
    stretch_gap_norm: float          # L2 norm of (largest stretch - 1)
    epsilon: float
    dirichlet: float
    perimeter: float
    volume: float
    combined: float | None           # None when |volume| ~ 0
    combined_defined: bool
    degree_estimate: int | None      # round(volume) for unit-norm maps
    unit_norm: bool
    grad_lp_norm: float              # L^{2(n-2)} norm of grad_T u (n >= 3)
    grad_lp_exponent: int


def deficit_report(u: SphereMap, grid: SphereGrid | None = None) -> DeficitReport:
    """Assemble every deficit for one map on one grid pass."""
    n = u.n
    _check_square(u)
    g, X, U, J = _node_data(u, grid)
    w = g.weights
    TJ = tangential_jacobians(J, X)
    s = _stretches(TJ)
    sq = np.sum(s * s, axis=1)
    top = s[:, -1] - 1.0
    delta = float(np.sqrt(w @ np.clip(top, 0.0, None) ** 2))
    sgap = float(np.sqrt(w @ (top * top)))
    disom = float(np.sqrt(w @ np.sum((s - 1.0) ** 2, axis=1)))
    if _exact_route(u):
        V, D = signed_volume(u), dirichlet(u)
    else:
        V = float(w @ _volume_density(U, TJ, X))
        D = float(w @ _dirichlet_density(sq, n))
    eps = max(0.0, 1.0 - abs(V))
    P = float(w @ np.prod(s, axis=1))
    defined = abs(V) > _VOL_EPS
    E = D ** (n / (n - 1)) / abs(V) - 1.0 if defined else None
    unit = bool(np.max(np.abs(np.linalg.norm(U, axis=1) - 1.0)) <= 1e-6)
    degree = int(round(V)) if unit and defined else None
    p = 2 * (n - 2) if n >= 3 else 2
    gnorm = float((w @ sq ** (p / 2.0)) ** (1.0 / p))
    return DeficitReport(
        n=n, delta=delta, delta_isom=disom, stretch_gap_norm=sgap, epsilon=eps,
        dirichlet=D, perimeter=P, volume=V, combined=E, combined_defined=defined,
        degree_estimate=degree, unit_norm=unit, grad_lp_norm=gnorm, grad_lp_exponent=p,
    )
