"""Quadratic forms of the linearized deficits and their coercivity.

All forms act on displacement fields w: S^{n-1} -> R^n.  The volume form
q_vol is the second derivative of the signed volume at the identity; the
conformal-isoperimetric form q_n combines it with the Dirichlet and
divergence energies and vanishes exactly on the span of skew linear
fields and the degree-2 complement.  Korn's identity ties the symmetrized
tangential gradient to the full one through q_vol.

Polynomial maps evaluate exactly on their coefficient stacks
(:mod:`spherestab.homogeneous`): each form is a sum of Gram-matrix
pairings of the field's Jacobian, J x, J^t x, <f, x>, div_S and A blocks,
with the one exact A.  Sampled or callable maps fall back to quadrature
on their grid (or the default grid).
"""

from __future__ import annotations

import numpy as np

from .errors import IntegrityError
from .homogeneous import a_gram, div_gram, energy_gram, pjp_gram, sym_gram
from .operator import EigenField, project_h_n, project_kernel
from .quadrature import SphereGrid, integrate
from .spheremap import (
    SphereMap,
    _node_data,
    _pjp,
    a_operator_values,
    surface_divergence,
    sym_tangential_part,
    tangential_jacobians,
)

__all__ = [
    "tangential_energy",
    "surface_div_sq",
    "q_vol",
    "q_n",
    "q_conf",
    "q_isop",
    "q_isom",
    "korn_residual",
    "mixed_div_term",
    "mixed_term_allowed",
    "coercivity_ratio",
]


def tangential_energy(u: SphereMap, grid: SphereGrid | None = None) -> float:
    """Integral of |grad_T u|^2 (normalized measure)."""
    if u.is_poly:
        return float(energy_gram(u.stack, u.stack)[0, 0])
    g, X, U, J = _node_data(u, grid)
    TJ = tangential_jacobians(J, X)
    return integrate(g, np.einsum("aik,aik->a", TJ, TJ))


def surface_div_sq(u: SphereMap, grid: SphereGrid | None = None) -> float:
    """Integral of (div_S u)^2."""
    if u.is_poly:
        return float(div_gram(u.stack, u.stack)[0, 0])
    g, X, U, J = _node_data(u, grid)
    d = surface_divergence(J, X)
    return integrate(g, d * d)


def q_vol(v: SphereMap, w: SphereMap, grid: SphereGrid | None = None) -> float:
    """(n/2) * integral of <v, A(w)>: the volume-form bilinear pairing."""
    if v.n != w.n or v.m != w.n:
        raise ValueError("q_vol needs two maps into R^n")
    n = v.n
    if v.is_poly and w.is_poly:
        return 0.5 * n * float(a_gram(v.stack, w.stack)[0, 0])
    g, X, U, J = _node_data(w, grid)
    Vv = v.eval(X) if not v.is_sampled else v.sample(g)[1]
    av = a_operator_values(U, J, X)
    return 0.5 * n * integrate(g, np.einsum("ai,ai->a", Vv, av))


def _sym_energy(u: SphereMap, grid: SphereGrid | None) -> float:
    """Integral of |(P J P)_sym|^2."""
    if u.is_poly:
        return float(sym_gram(u.stack, u.stack)[0, 0])
    g, X, U, J = _node_data(u, grid)
    S = sym_tangential_part(J, X)
    return integrate(g, np.einsum("aik,aik->a", S, S))


def _pjp_energy(u: SphereMap, grid: SphereGrid | None) -> float:
    """Integral of |P J P|^2 (unsymmetrized tangential block)."""
    if u.is_poly:
        return float(pjp_gram(u.stack, u.stack)[0, 0])
    g, X, U, J = _node_data(u, grid)
    M = _pjp(J, X)
    return integrate(g, np.einsum("aik,aik->a", M, M))


def q_n(w: SphereMap, grid: SphereGrid | None = None, project: bool = True) -> float:
    """The conformal-isoperimetric quadratic form

    n/(2(n-1)) * int(|grad_T w|^2 + (n-3)/(n-1) (div_S w)^2) - q_vol(w, w).
    """
    n = w.n
    if project:
        w, _ = project_h_n(w, grid=grid)
    e = tangential_energy(w, grid)
    d2 = surface_div_sq(w, grid) if n != 3 else 0.0
    lead = n / (2.0 * (n - 1)) * (e + (n - 3) / (n - 1) * d2)
    return lead - q_vol(w, w, grid)


def q_conf(w: SphereMap, grid: SphereGrid | None = None) -> float:
    """Conformal part: n/(n-1) * int |(P^t grad_T w)_sym - div_S w/(n-1) I|^2."""
    n = w.n
    return n / (n - 1) * (_sym_energy(w, grid) - surface_div_sq(w, grid) / (n - 1))


def q_isop(w: SphereMap, grid: SphereGrid | None = None) -> float:
    """Isoperimetric part: n/(2(n-1)) * int(|grad_T w|^2 + (div_S w)^2
    - 2 |(P^t grad_T w)_sym|^2) - q_vol(w, w)."""
    n = w.n
    val = (
        tangential_energy(w, grid)
        + surface_div_sq(w, grid)
        - 2.0 * _sym_energy(w, grid)
    )
    return n / (2.0 * (n - 1)) * val - q_vol(w, w, grid)


def q_isom(w: SphereMap, grid: SphereGrid | None = None) -> float:
    """Isometric part: int |(P^t grad_T w)_sym|^2."""
    return _sym_energy(w, grid)


def korn_residual(w: SphereMap, grid: SphereGrid | None = None) -> float:
    """|LHS - RHS| of the surface Korn identity

    int |(P^t grad_T w)_sym|^2
        = 1/2 int(|P^t grad_T w|^2 + (div_S w)^2) - (n-2)/n q_vol(w, w).
    """
    n = w.n
    lhs = _sym_energy(w, grid)
    rhs = 0.5 * (_pjp_energy(w, grid) + surface_div_sq(w, grid)) - (n - 2) / n * q_vol(w, w, grid)
    return abs(lhs - rhs)


def mixed_div_term(a: EigenField, b: EigenField, grid: SphereGrid | None = None) -> float:
    """Integral of div_S w_a div_S w_b for two labeled eigenfields."""
    if not isinstance(a, EigenField) or not isinstance(b, EigenField):
        raise TypeError("mixed_div_term needs labeled eigenfields")
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    return float(div_gram(a.map.stack, b.map.stack)[0, 0])


def mixed_term_allowed(k: int, i: int, l: int, j: int) -> bool:
    """Whether the (k,i)-(l,j) divergence cross term may be nonzero.

    Only pairs of the shapes {(m,1),(m+2,3)} (m >= 1) and {(m,3),(m+2,1)}
    (m >= 3) survive; the borderline {(2,3),(4,1)} pair vanishes by an
    extra degree-2 cancellation.
    """
    if (k, i) == (l, j):
        return True
    pair = {(k, i), (l, j)}
    for m in range(1, max(k, l) + 1):
        if pair == {(m, 1), (m + 2, 3)}:
            return True
        if pair == {(m, 3), (m + 2, 1)} and m >= 3:
            return True
    return False


def coercivity_ratio(w: SphereMap, grid: SphereGrid | None = None) -> float:
    """q_n(w) / tangential energy of w minus its kernel projection."""
    w, _ = project_h_n(w, grid=grid)
    pk = project_kernel(w, grid=grid)
    if w.is_poly and pk.is_poly:
        resid = (w + pk.scale(-1.0)).stack
        denom = float(energy_gram(resid, resid)[0, 0])
    else:
        g, X, U, J = _node_data(w, grid)
        Jk = pk.jac(X) if not pk.is_sampled else pk.sample(g)[2]
        TJ = tangential_jacobians(J - Jk, X)
        denom = integrate(g, np.einsum("aik,aik->a", TJ, TJ))
    if denom < 1e-12:
        raise IntegrityError("field lies in the kernel; coercivity ratio undefined")
    return q_n(w, grid, project=False) / denom
