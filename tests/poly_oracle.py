"""Test-only oracle: the quadratic forms through per-call Poly algebra.

Every operator here is a chain of ``Poly.diff``, ``Poly.xmul``, ``+``
and ``Poly.pair`` on the components of a field, and the forms, projections
and the nearest-rotation moment are built from them.  The package
evaluates the same quantities on coefficient stacks
(:mod:`spherestab.homogeneous`); the tests hold it to these.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from spherestab.polynomials import Poly

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


# ---------------------------------------------------------------------------
# the forms and operators of the package, Poly route
# ---------------------------------------------------------------------------

def tangential_energy(f: Field) -> float:
    return field_tangential_energy(f)


def surface_div_sq(f: Field) -> float:
    d = field_surface_div(f)
    return d.pair(d)


def q_vol(fv: Field, fw: Field) -> float:
    return 0.5 * fv[0].n * field_pair(fv, field_a_operator(fw))


def q_vol_alt(f: Field) -> float:
    n = f[0].n
    d = field_surface_div(f)
    r = field_inner_x(f)
    return 0.5 * n * (2.0 * d.pair(r) - n * r.pair(r) + field_pair(f, f))


def sym_energy(f: Field) -> float:
    S = field_pjp_sym(f)
    return matrix_frobenius_pair(S, S)


def pjp_energy(f: Field) -> float:
    M = field_pjp_entries(f)
    return matrix_frobenius_pair(M, M)


def mixed_div_term(fa: Field, fb: Field) -> float:
    return field_surface_div(fa).pair(field_surface_div(fb))


def project_h_n(f: Field) -> list[Poly]:
    n = f[0].n
    mean = field_mean(f)
    radial = field_inner_x(f).sphere_integral()
    return [c + Poly.constant(n, -float(mean[i])) + Poly.coordinate(n, i).scale(-radial)
            for i, c in enumerate(f)]


def project_kernel(f: Field) -> list[Poly]:
    from spherestab.operator import kernel_subspaces

    n = f[0].n
    f = project_h_n(f)
    acc = []
    for S in kernel_subspaces(n):
        block = np.zeros_like(S.coeffs[0])
        for a in range(S.dim):
            block += field_pair(f, S.maps[a].components) * S.coeffs[a]
        acc.append(block)
    return [Poly.from_blocks(n, {1: acc[0][i], 2: acc[1][i]}) for i in range(n)]


def poincare_deficit(f: Field) -> float:
    n = f[0].n
    var = 0.0
    for c in f:
        mean = c.sphere_integral()
        var += c.pair(c) - mean * mean
    return field_tangential_energy(f) / (n - 1) - var


def rotation_moment(f: Field) -> np.ndarray:
    """avg of grad f P, the matrix M of the nearest rotation."""
    n = f[0].n
    radials = field_radials(f)
    M = np.empty((n, n))
    for i in range(n):
        for l in range(n):
            M[i, l] = (f[i].diff(l) - radials[i].xmul(l)).sphere_integral()
    return M
