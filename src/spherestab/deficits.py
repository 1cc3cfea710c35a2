"""Nonlinear deficit functionals: stretches, signed volume, Dirichlet
energy, generalized perimeter, and the combined conformal-isoperimetric
deficit.

The signed volume is the integral of det(J P + u x^t); with the convention
that the outward normal closes a positively oriented frame this gives
V(id) = +1 in every dimension, and V(Ax) = det A by multilinearity.  The
bulk identity avg_{B_1} det grad(u_h) = V_3(u) is available as an
independent check.

Every functional reads an integral of the node bundle of
:func:`spherestab.spheremap.node_bundle`, which streams the grid in blocks
of nodes and holds only scalars, so a poly map is sampled once per grid
however many functionals ask for it, `deficit_report` and
`combined_deficit` sample any map once, and each field of the report
equals its standalone functional.  Only `deficit_report` and
`isometric_deficit` ask the bundle for the principal stretches, an
eigen-solve for n >= 4; a poly map bundled without them is sampled once
more when they are asked for.  Each deficit has one route: for a
degree-d poly map the volume density is a polynomial of degree n(d+1),
and at n = 3 the Dirichlet density one of degree 2d; when the grid's
exactness is below that degree, the density is integrated on the
smallest grid that covers it, so these values are exact on any grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedDeficitError
from .harmonics import harmonicize
from .polynomials import evaluate
from .quadrature import SphereGrid, covering_ball_grid, covering_sphere_grid, integrate
from .spheremap import NodeBundle, SphereMap, _det, node_bundle

__all__ = [
    "isometric_deficit",
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


def _check_square(u: SphereMap) -> None:
    if u.m != u.n:
        raise ValueError("signed volume needs a map into R^n")


def _exact(u: SphereMap, b: NodeBundle, degree: int) -> NodeBundle:
    """b, or the bundle on the smallest grid exact to the degree of a
    polynomial density when b's grid is not."""
    if degree > b.grid.exactness:
        return node_bundle(u, covering_sphere_grid(u.n, degree))
    return b


def _volume(u: SphereMap, b: NodeBundle) -> float:
    if u.is_poly:
        b = _exact(u, b, u.n * (u.degree() + 1))
    return b.volume


def _dirichlet(u: SphereMap, b: NodeBundle) -> float:
    if u.is_poly and u.n == 3:
        b = _exact(u, b, 2 * u.degree())
    return b.dirichlet


def isometric_deficit(u: SphereMap, grid: SphereGrid | None = None) -> float:
    """delta(u): L2 norm of the positive part of (largest stretch - 1)."""
    return node_bundle(u, grid, stretches=True).delta


def signed_volume(u: SphereMap, grid: SphereGrid | None = None) -> float:
    """V_n(u): normalized integral of det(J P + u x^t); exact for poly maps."""
    _check_square(u)
    return _volume(u, node_bundle(u, grid))


def isoperimetric_deficit(u: SphereMap, grid: SphereGrid | None = None) -> float:
    """epsilon(u) = (1 - |V_n(u)|)_+."""
    return max(0.0, 1.0 - abs(signed_volume(u, grid)))


def dirichlet(u: SphereMap, grid: SphereGrid | None = None) -> float:
    """(n-1)-Dirichlet energy: integral of (|grad_T u|^2/(n-1))^((n-1)/2).

    For n = 3 this is half the tangential energy and is exact on poly maps.
    """
    return _dirichlet(u, node_bundle(u, grid))


def perimeter(u: SphereMap, grid: SphereGrid | None = None) -> float:
    """Generalized area: integral of sqrt(det(grad_T u^t grad_T u))."""
    return node_bundle(u, grid).perimeter


def combined_deficit(u: SphereMap, grid: SphereGrid | None = None) -> float:
    """E_{n-1}(u) = D^{n/(n-1)} / |V| - 1; undefined when V vanishes."""
    _check_square(u)
    b = node_bundle(u, grid)
    V = _volume(u, b)
    if abs(V) <= _VOL_EPS:
        raise UndefinedDeficitError("signed volume vanishes; combined deficit undefined")
    return _dirichlet(u, b) ** (u.n / (u.n - 1)) / abs(V) - 1.0


def bulk_volume(u: SphereMap) -> float:
    """Normalized ball integral of det grad(u_h), u_h the harmonic extension.

    Independent of the surface route: the extension is harmonicized
    exactly, its Jacobian blocks are evaluated at the nodes of the smallest
    ball grid exact to the degree 3(d - 1) of the determinant, and the
    determinant is integrated with the ball weights.
    """
    if u.n != 3 or u.m != 3:
        raise ValueError("bulk volume implemented for maps of S^2 into R^3")
    if not u.is_poly:
        raise ValueError("bulk volume needs a poly-backed map")
    jac = harmonicize(u).stack.jac                  # d_l u_h^i, row-major over (i, l)
    g = covering_ball_grid(3, 3 * max(jac, default=0))
    J = evaluate([(9, jac)], g.nodes).reshape(3, 3, -1)
    return integrate(g, _det(J))


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
    """Assemble every deficit for one map from one node bundle."""
    n = u.n
    _check_square(u)
    b = node_bundle(u, grid, stretches=True)
    V, D = _volume(u, b), _dirichlet(u, b)
    eps = max(0.0, 1.0 - abs(V))
    defined = abs(V) > _VOL_EPS
    E = D ** (n / (n - 1)) / abs(V) - 1.0 if defined else None
    degree = int(round(V)) if b.unit_norm and defined else None
    return DeficitReport(
        n=n, delta=b.delta, delta_isom=b.delta_isom, stretch_gap_norm=b.stretch_gap_norm,
        epsilon=eps, dirichlet=D, perimeter=b.perimeter, volume=V, combined=E,
        combined_defined=defined, degree_estimate=degree, unit_norm=b.unit_norm,
        grad_lp_norm=b.grad_lp_norm, grad_lp_exponent=b.grad_lp_exponent,
    )
