"""Quadratic forms of the linearized deficits and their coercivity.

All forms act on displacement fields w: S^{n-1} -> R^n.  The volume form
q_vol is the second derivative of the signed volume at the identity; the
conformal-isoperimetric form q_n combines it with the Dirichlet and
divergence energies and vanishes exactly on the span of skew linear
fields and the degree-2 complement.  Korn's identity ties the symmetrized
tangential gradient to the full one through q_vol.

The forms take poly maps only and evaluate exactly on their coefficient
stacks (:mod:`spherestab.homogeneous`): each is a sum of Gram-matrix
pairings of the field's Jacobian, J x, J^t x, <f, x>, div_S and A blocks,
with the one exact A.  A sampled or callable map is refused by
:attr:`SphereMap.stack`.
"""

from __future__ import annotations

from .errors import IntegrityError
from .homogeneous import a_gram, div_gram, energy_gram, pjp_gram, sym_gram
from .operator import EigenField, project_h_n, project_kernel
from .spheremap import SphereMap

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


def tangential_energy(u: SphereMap) -> float:
    """Integral of |grad_T u|^2 (normalized measure)."""
    return float(energy_gram(u.stack, u.stack)[0, 0])


def surface_div_sq(u: SphereMap) -> float:
    """Integral of (div_S u)^2."""
    return float(div_gram(u.stack, u.stack)[0, 0])


def q_vol(v: SphereMap, w: SphereMap) -> float:
    """(n/2) * integral of <v, A(w)>: the volume-form bilinear pairing."""
    if v.n != w.n or v.m != w.n:
        raise ValueError("q_vol needs two maps into R^n")
    return 0.5 * v.n * float(a_gram(v.stack, w.stack)[0, 0])


def _sym_energy(u: SphereMap) -> float:
    """Integral of |(P J P)_sym|^2."""
    return float(sym_gram(u.stack, u.stack)[0, 0])


def _pjp_energy(u: SphereMap) -> float:
    """Integral of |P J P|^2 (unsymmetrized tangential block)."""
    return float(pjp_gram(u.stack, u.stack)[0, 0])


def q_n(w: SphereMap, project: bool = True) -> float:
    """The conformal-isoperimetric quadratic form

    n/(2(n-1)) * int(|grad_T w|^2 + (n-3)/(n-1) (div_S w)^2) - q_vol(w, w).
    """
    n = w.n
    if project:
        w = project_h_n(w)
    e = tangential_energy(w)
    d2 = surface_div_sq(w) if n != 3 else 0.0
    lead = n / (2.0 * (n - 1)) * (e + (n - 3) / (n - 1) * d2)
    return lead - q_vol(w, w)


def q_conf(w: SphereMap) -> float:
    """Conformal part: n/(n-1) * int |(P^t grad_T w)_sym - div_S w/(n-1) I|^2."""
    n = w.n
    return n / (n - 1) * (_sym_energy(w) - surface_div_sq(w) / (n - 1))


def q_isop(w: SphereMap) -> float:
    """Isoperimetric part: n/(2(n-1)) * int(|grad_T w|^2 + (div_S w)^2
    - 2 |(P^t grad_T w)_sym|^2) - q_vol(w, w)."""
    n = w.n
    val = tangential_energy(w) + surface_div_sq(w) - 2.0 * _sym_energy(w)
    return n / (2.0 * (n - 1)) * val - q_vol(w, w)


def q_isom(w: SphereMap) -> float:
    """Isometric part: int |(P^t grad_T w)_sym|^2."""
    return _sym_energy(w)


def korn_residual(w: SphereMap) -> float:
    """|LHS - RHS| of the surface Korn identity

    int |(P^t grad_T w)_sym|^2
        = 1/2 int(|P^t grad_T w|^2 + (div_S w)^2) - (n-2)/n q_vol(w, w).
    """
    n = w.n
    lhs = _sym_energy(w)
    rhs = 0.5 * (_pjp_energy(w) + surface_div_sq(w)) - (n - 2) / n * q_vol(w, w)
    return abs(lhs - rhs)


def mixed_div_term(a: EigenField, b: EigenField) -> float:
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


def coercivity_ratio(w: SphereMap) -> float:
    """q_n(w) / tangential energy of w minus its kernel projection."""
    w = project_h_n(w)
    resid = (w + project_kernel(w).scale(-1.0)).stack
    denom = float(energy_gram(resid, resid)[0, 0])
    if denom < 1e-12:
        raise IntegrityError("field lies in the kernel; coercivity ratio undefined")
    return q_n(w, project=False) / denom
