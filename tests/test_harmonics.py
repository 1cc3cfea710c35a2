"""Scalar/vector harmonic bases, analysis, extension estimates."""

import numpy as np
import pytest

from spherestab.harmonics import (
    Subspace,
    analyze,
    grad_origin,
    harmonic_dimension,
    harmonic_energy_check,
    laplace_eigenvalue,
    poincare_deficit,
    scalar_basis_coeffs,
    synthesize,
    vector_space_coeffs,
)
from spherestab.homogeneous import gram, gram_rect
from spherestab.polynomials import Poly, evaluate
from spherestab.spheremap import identity_map, linear_map, poly_map

from poly_oracle import constant, coordinate, field_pair, is_zero, laplacian, mul, scalar_basis_coeffs_mgs, zero


@pytest.mark.parametrize("n,k,dim", [(3, 1, 3), (3, 2, 5), (2, 3, 2), (4, 2, 9), (2, 1, 2), (3, 0, 1)])
def test_scalar_dimensions(n, k, dim):
    assert harmonic_dimension(n, k) == dim
    assert len(scalar_basis_coeffs(n, k)) == dim


def _harmonic(n, k, j):
    """The j-th orthonormal scalar harmonic of degree k as a Poly."""
    return Poly.from_blocks(n, {k: scalar_basis_coeffs(n, k)[j]})


def _basis_values(n, k, points):
    """The orthonormal scalar harmonics of degree k at the points, (h_k, N)."""
    C = scalar_basis_coeffs(n, k)
    return evaluate([(len(C), {k: C})], points)


def test_scalar_basis_k1_spans_coordinates(sphere_points):
    # each basis function is a linear polynomial; their span is {x1,x2,x3}
    M = _basis_values(3, 1, sphere_points)
    C = np.stack([sphere_points[:, i] for i in range(3)])
    resid = np.linalg.lstsq(M.T, C.T, rcond=None)[1]
    assert np.max(resid) < 1e-20


def test_scalar_basis_n2_k3_is_cos_sin(sphere_points):
    theta = np.linspace(0.1, 6.0, 17)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    M = _basis_values(2, 3, pts)
    C = np.stack([np.cos(3 * theta), np.sin(3 * theta)])
    resid = np.linalg.lstsq(M.T, C.T, rcond=None)[1]
    assert np.max(resid) < 1e-18


@pytest.mark.parametrize("n,k", [(3, 2), (3, 5), (4, 3), (2, 4)])
def test_gram_identity_and_harmonicity(n, k):
    B = scalar_basis_coeffs(n, k)
    G = B @ gram(n, k) @ B.T
    assert np.max(np.abs(G - np.eye(B.shape[0]))) < 1e-10
    for j in range(len(B)):
        assert is_zero(laplacian(_harmonic(n, k, j)), tol=1e-12)


def test_cross_degree_orthogonality():
    B2 = scalar_basis_coeffs(3, 2)
    B4 = scalar_basis_coeffs(3, 4)
    assert np.max(np.abs(B2 @ gram_rect(3, 2, 4) @ B4.T)) < 1e-10


def _gram_residual(B, G):
    return float(np.max(np.abs(B @ G @ B.T - np.eye(len(B)))))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cholqr2_bases_span_the_mgs_spaces(n):
    # both orthonormalize the same kernel rows under the same Gram matrix
    for k in range(12):
        B, ref, G = scalar_basis_coeffs(n, k), scalar_basis_coeffs_mgs(n, k), gram(n, k)
        assert B.shape == ref.shape
        s = np.linalg.svd(B @ G @ ref.T, compute_uv=False)
        assert np.max(np.abs(1.0 - s)) <= 1e-12


@pytest.mark.parametrize("n,k", [(3, 24), (4, 12)])
def test_cholqr2_orthonormal_at_least_as_well_as_mgs(n, k):
    G = gram(n, k)
    assert _gram_residual(scalar_basis_coeffs(n, k), G) <= _gram_residual(scalar_basis_coeffs_mgs(n, k), G)


@pytest.mark.parametrize("n,k", [(3, 1), (3, 3), (4, 2), (2, 5)])
def test_laplace_beltrami_eigenvalue(n, k):
    lam = laplace_eigenvalue(n, k)
    for j in range(min(3, harmonic_dimension(n, k))):
        u = poly_map(n, [_harmonic(n, k, j)])
        from spherestab.forms import tangential_energy

        e = tangential_energy(u)
        m = field_pair(u.components, u.components)
        assert abs(e - lam * m) < 1e-10


@pytest.mark.parametrize("n,k,dim", [(3, 1, 8), (3, 2, 15), (4, 1, 15), (4, 2, 36)])
def test_vector_space_dimensions(n, k, dim):
    assert vector_space_coeffs(n, k).shape[0] == dim


def test_analyze_identity_map():
    e = analyze(identity_map(3), 2)
    assert np.max(np.abs(e.blocks[0])) < 1e-12
    assert np.max(np.abs(e.blocks[2])) < 1e-12
    assert np.sum(e.blocks[1] ** 2) > 0


def test_analyze_x1_squared():
    u = poly_map(3, [Poly(3, {(2, 0, 0): 1.0})])
    e = analyze(u, 2)
    assert abs(e.blocks[0][0, 0] - 1.0 / 3.0) < 1e-12
    assert np.max(np.abs(e.blocks[1])) < 1e-12
    assert np.sum(e.blocks[2] ** 2) > 0


def test_analyze_orthonormality_roundtrip(sphere_points):
    u = poly_map(3, [_harmonic(3, 2, 2)])
    e = analyze(u, 3)
    blk = e.blocks[2][0]
    assert abs(np.linalg.norm(blk) - 1.0) < 1e-10
    assert np.max(np.abs(e.blocks[1])) < 1e-10
    v = synthesize(e)
    assert np.max(np.abs(u.eval(sphere_points) - v.eval(sphere_points))) < 1e-10


def test_analyze_quadrature_path(grid3, sphere_points):
    from spherestab.spheremap import sampled_map

    u = poly_map(3, [Poly(3, {(1, 1, 0): 1.0})])
    U = u.eval(grid3.nodes)
    us = sampled_map(grid3, U, None)
    e = analyze(us, 2, grid=grid3)
    ep = analyze(u, 2)
    for k in range(3):
        assert np.max(np.abs(e.blocks[k] - ep.blocks[k])) < 1e-12


def test_analyze_warns_beyond_exactness():
    from spherestab.quadrature import build_sphere_grid
    from spherestab.spheremap import sampled_map

    g = build_sphere_grid(3, 4)
    us = sampled_map(g, np.ones((g.size, 1)), None)
    with pytest.warns(UserWarning):
        e = analyze(us, 6, grid=g)
    assert e.quadrature_warning


def test_grad_origin_examples(sphere_points):
    assert np.allclose(grad_origin(identity_map(3)), np.eye(3), atol=1e-12)
    A = np.diag([1.0, 1.0, 2.0])
    assert np.allclose(grad_origin(linear_map(A)), A, atol=1e-12)
    # psi * x with psi = x1 x2: the degree-1 harmonic parts of x1^2 x2 and
    # x1 x2^2 are x2/5 and x1/5, so the matrix is (E12 + E21)/5
    psi = Poly(3, {(1, 1, 0): 1.0})
    u = poly_map(3, [mul(psi, coordinate(3, i)) for i in range(3)])
    expect = np.zeros((3, 3))
    expect[0, 1] = expect[1, 0] = 0.2
    assert np.allclose(grad_origin(u), expect, atol=1e-12)


def test_grad_origin_is_degree1_block(rng):
    comps = [Poly(3, {(1, 0, 0): rng.normal(), (1, 1, 1): rng.normal(), (3, 0, 0): rng.normal()}) for _ in range(3)]
    u = poly_map(3, comps)
    B = grad_origin(u)
    e = analyze(u, 1)
    v = synthesize(e)
    # degree-1 part of the synthesis is exactly B x
    X = rng.normal(size=(20, 3))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    deg1 = v.eval(X) - e.blocks[0][:, 0]
    assert np.max(np.abs(deg1 - X @ B.T)) < 1e-10


def test_poincare_deficit_examples(rng):
    A = rng.normal(size=(3, 3))
    assert abs(poincare_deficit(linear_map(A))) < 1e-10
    const = poly_map(3, [constant(3, 2.0)])
    assert abs(poincare_deficit(const)) < 1e-14
    w = Subspace(3, 2, np.eye(15)).element(np.eye(15)[0])
    from spherestab.forms import tangential_energy

    assert abs(poincare_deficit(w) - tangential_energy(w) / 3.0) < 1e-10
    # nonnegative on random fields
    for _ in range(5):
        comps = [Poly(3, {(2, 1, 0): rng.normal(), (0, 0, 1): rng.normal()}) for _ in range(2)]
        assert poincare_deficit(poly_map(3, comps)) >= -1e-10


def test_harmonic_energy_check():
    rep = harmonic_energy_check(poly_map(3, [zero(3)] * 3))
    assert rep.ball_energy == rep.surface_energy == rep.tangential_energy == 0.0
    A = np.diag([1.0, 2.0, 0.5])
    rep = harmonic_energy_check(linear_map(A))
    assert rep.bounds_ok
    assert abs(rep.ball_energy - rep.surface_energy) < 1e-12
    assert abs(rep.surface_energy - 1.5 * rep.tangential_energy) < 1e-12
    # single degree-k harmonic: surface = (1 + k/(k+n-2)) tangential
    k, n = 3, 3
    rep = harmonic_energy_check(poly_map(n, [_harmonic(n, k, 1)]))
    assert rep.bounds_ok
    factor = 1 + k / (k + n - 2)
    assert abs(rep.surface_energy - factor * rep.tangential_energy) < 1e-10
    assert abs(rep.ball_energy - n * k / laplace_eigenvalue(n, k) * rep.tangential_energy) < 1e-10
