"""Differential test: the exact-moment route against product quadrature.

The linear layer (the forms, the Poincare deficit and the H_n and kernel
projections) takes poly maps only and works on exact rational moments; it
is held to the quadrature oracle of ``poly_oracle``, which integrates the
einsum definitions of the same quantities from the map's values and
Jacobians at the grid's nodes.  The nearest rotation, which keeps a
quadrature branch for sampled maps, is evaluated both ways.  The grids'
exactness covers every integrand degree that degree <= 3 maps produce, so
the results agree to roundoff.  The signed volume and the n = 3 Dirichlet
energy have a single quadrature route; they are checked against the
moment values of their polynomial densities, also on grids too coarse to
integrate those densities.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherestab.config import Config
from spherestab.deficits import dirichlet, signed_volume
from spherestab.forms import _pjp_energy, _sym_energy, q_vol, surface_div_sq, tangential_energy
from spherestab.harmonics import poincare_deficit
from spherestab.moebius import nearest_rotation
from spherestab.operator import project_h_n, project_kernel
from spherestab.polynomials import Poly
from spherestab.quadrature import sphere_grid
from spherestab.spheremap import identity_map, poly_map, sampled_map, tangential_jacobians, volume_integrand

from poly_oracle import (
    add,
    diff,
    euler,
    monomial_exponents,
    mul,
    quadrature_forms,
    quadrature_project_h_n,
    quadrature_project_kernel,
    sphere_integral,
    sub,
    xmul,
)

REL = 1e-12


def _agree(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) <= REL * scale


def _poly_det(B) -> Poly:
    """Determinant of a square array of polynomials, by Laplace expansion."""
    if len(B) == 1:
        return B[0][0]
    out = Poly(B[0][0].n)
    for j, entry in enumerate(B[0]):
        term = mul(entry, _poly_det([row[:j] + row[j + 1:] for row in B[1:]]))
        out = add(out, term) if j % 2 == 0 else sub(out, term)
    return out


def _poly_volume_integrand(u) -> Poly:
    """det(J P + u x^t) as an exact polynomial.

    Entry (i, l) is d_l u^i - <x, grad u^i> x_l + u^i x_l, and <x, grad u^i>
    is the Euler operator applied to u^i.
    """
    B = [[add(sub(diff(c, l), xmul(euler(c), l)), xmul(c, l)) for l in range(u.n)] for c in u.components]
    return _poly_det(B)


@st.composite
def poly_maps(draw, n):
    deg = draw(st.integers(0, 3))
    exps = [e for d in range(deg + 1) for e in monomial_exponents(n, d)]
    coeff = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    comps = []
    for _ in range(n):
        values = draw(st.lists(coeff, min_size=len(exps), max_size=len(exps)))
        comps.append(Poly(n, dict(zip(exps, values))))
    return poly_map(n, comps)


def _check(u):
    g = Config().grid(u.n)
    X = g.nodes
    U, J = u.eval(X), u.at(X)[1]()
    s = sampled_map(g, U, J)
    quad = quadrature_forms(g, U, J)
    for f in (tangential_energy, surface_div_sq, poincare_deficit, _sym_energy, _pjp_energy):
        assert _agree(f(u), quad[f.__name__.lstrip("_")]), f.__name__
    assert _agree(q_vol(u, u), quad["q_vol"])

    pu = project_h_n(u)
    for a, b in zip((pu.eval(X), pu.at(X)[1]()), quadrature_project_h_n(g, U, J)):
        assert _agree(a, b)

    Ou, vu = nearest_rotation(u)
    Os, vs = nearest_rotation(s)
    assert _agree(vu, vs)
    # the optimal rotation is unique only where the singular values of
    # M = avg grad_T u are distinct and nonzero
    sv = np.linalg.svd(np.einsum("a,ail->il", g.weights, tangential_jacobians(s.sample(g)[2], X)),
                       compute_uv=False)
    gap = min(float(np.min(-np.diff(sv))), float(sv[-1]))
    if gap > 1e-6:
        assert np.max(np.abs(Ou - Os)) <= REL / gap

    if u.n == 3:
        ku = project_kernel(u)
        for a, b in zip((ku.eval(X), ku.at(X)[1]()), quadrature_project_kernel(g, U, J)):
            assert _agree(a, b)
        assert _agree(dirichlet(u), dirichlet(s))
        assert _agree(dirichlet(u), 0.5 * tangential_energy(u))
    assert _agree(signed_volume(u), signed_volume(s))
    assert _agree(signed_volume(u), sphere_integral(_poly_volume_integrand(u)))


@settings(max_examples=25, deadline=None)
@given(poly_maps(3))
def test_exact_vs_quadrature_n3(u):
    _check(u)


@settings(max_examples=15, deadline=None)
@given(poly_maps(4))
def test_exact_vs_quadrature_n4(u):
    _check(u)


@pytest.mark.parametrize("n", [3, 4])
def test_volume_and_dirichlet_exact_on_coarse_grids(n):
    # sphere_grid(n, 3) is exact to degree 5 only; the volume density of a
    # degree-3 map has degree 4n and the n = 3 Dirichlet density degree 6
    rng = np.random.default_rng(7)
    exps = [e for d in range(4) for e in monomial_exponents(n, d)]
    w = poly_map(n, [Poly(n, dict(zip(exps, rng.uniform(-0.2, 0.2, len(exps))))) for _ in range(n)])
    u = identity_map(n) + w
    g = sphere_grid(n, 3)
    assert g.exactness == 5 and u.degree() == 3
    exact = sphere_integral(_poly_volume_integrand(u))
    X, U, J = u.sample(g)
    assert abs(g.weights @ volume_integrand(U, J, X) - exact) > 1e-8  # the grid alone is not exact
    assert abs(signed_volume(u, g) - exact) <= 1e-12 * max(1.0, abs(exact))
    if n == 3:
        half = 0.5 * tangential_energy(u)
        assert abs(dirichlet(u, g) - half) <= 1e-12 * max(1.0, half)
