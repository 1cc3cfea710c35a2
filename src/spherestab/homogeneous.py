"""Field operators: exact surface calculus on polynomial vector fields.

A vector field is a sequence of :class:`~spherestab.polynomials.Poly`
components, one per ambient coordinate, as in ``u.components`` of a
poly-backed map.  The operators below assemble the surface divergence,
the volume-form operator A, the tangential Jacobian blocks and their
energies from the block algebra of :mod:`spherestab.polynomials`, so the
quadratic-form evaluations (energies, divergences, the volume-form
operator) are both exact and fast.

``exps``, ``gram`` and ``gram_rect`` are re-exported from
:mod:`spherestab.polynomials`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .polynomials import Poly, exps, gram, gram_rect

__all__ = [
    "exps",
    "gram",
    "gram_rect",
    "field_radials",
    "field_inner_x",
    "field_surface_div",
    "field_a_operator",
    "field_pair",
    "field_mean",
    "field_tangential_energy",
    "field_pjp_entries",
    "field_pjp_sym",
    "matrix_frobenius_pair",
]

Field = Sequence[Poly]


# ---------------------------------------------------------------------------
# first-order surface operators on poly vector fields (exact)
# ---------------------------------------------------------------------------

def field_radials(f: Field) -> Field:
    """r_i = <x, grad f^i> = Euler operator on each component."""
    return [c.euler() for c in f]


def field_inner_x(f: Field) -> Poly:
    """<f, x> as a Poly."""
    out = Poly(f[0].n)
    for i, c in enumerate(f):
        out = out + c.xmul(i)
    return out


def field_surface_div(f: Field) -> Poly:
    """div_S f = tr(J P) = div f - <x, (grad f) x> for an n-component field."""
    n = f[0].n
    out = Poly(n)
    for i in range(n):
        out = out + f[i].diff(i)
    return out - field_inner_x(field_radials(f))


def field_a_operator(f: Field) -> Field:
    """A(f) = (div_S f) x - sum_j x_j grad_T f^j, componentwise Polys."""
    n = f[0].n
    div_s = field_surface_div(f)
    radials = field_radials(f)
    s = field_inner_x(radials)
    out = []
    for i in range(n):
        ai = div_s.xmul(i) + s.xmul(i)
        for j in range(n):
            ai = ai - f[j].diff(i).xmul(j)
        out.append(ai)
    return out


def field_pair(f: Field, g: Field) -> float:
    """Exact integral of <f, g> over the sphere."""
    return sum(a.pair(b) for a, b in zip(f, g))


def field_mean(f: Field) -> np.ndarray:
    return np.array([c.sphere_integral() for c in f])


def field_tangential_energy(f: Field) -> float:
    """Integral of |grad_T f|^2 = sum_i (|grad f^i|^2 - <x, grad f^i>^2)."""
    n = f[0].n
    total = 0.0
    for c in f:
        for l in range(n):
            dl = c.diff(l)
            total += dl.pair(dl)
        r = c.euler()
        total -= r.pair(r)
    return total


def field_pjp_entries(f: Field) -> list[Field]:
    """Entries of P J P as Polys (the tangential-tangential block of the
    Jacobian, expressed in ambient coordinates)."""
    n = f[0].n
    radials = field_radials(f)          # r_i = <x, grad f^i>, per component
    rho = []                            # rho_l = sum_a x_a d_l f^a
    for l in range(n):
        p = Poly(n)
        for a in range(n):
            p = p + f[a].diff(l).xmul(a)
        rho.append(p)
    s = field_inner_x(radials)          # sum_ab x_a d_b f^a x_b
    M = [[None] * n for _ in range(n)]
    for i in range(n):
        for l in range(n):
            M[i][l] = f[i].diff(l) - rho[l].xmul(i) - radials[i].xmul(l) + s.xmul(i).xmul(l)
    return M


def field_pjp_sym(f: Field) -> list[Field]:
    """Entries of (P J P)_sym as Polys."""
    n = f[0].n
    M = field_pjp_entries(f)
    return [[(M[i][l] + M[l][i]).scale(0.5) for l in range(n)] for i in range(n)]


def matrix_frobenius_pair(M1: list[Field], M2: list[Field]) -> float:
    return sum(M1[i][l].pair(M2[i][l]) for i in range(len(M1)) for l in range(len(M1)))
