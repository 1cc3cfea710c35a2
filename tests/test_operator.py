"""Volume-form operator: spectrum, Helmholtz split, kernel projection."""

from dataclasses import replace

import numpy as np
import pytest

from spherestab.harmonics import analyze, harmonic_dimension, vector_space_coeffs
from spherestab.operator import (
    a_matrix,
    apply_A,
    eigenspaces,
    helmholtz_split,
    kernel_subspaces,
    project_h_n,
    project_kernel,
    random_eigenfield,
    random_h_field,
    self_adjointness_residual,
)
from spherestab.polynomials import gram
from spherestab.spheremap import linear_map, poly_map, surface_divergence

from poly_oracle import (
    a_coefficient_matrix,
    a_matrix_from_gradients,
    add,
    constant,
    coordinate,
    diff,
    eigenfield_by_gram_pairing,
    eigenspaces_eigh,
    field_pair,
    h_field_by_basis,
    helmholtz_split_svd,
    is_zero,
    kernel_characterization_residual,
    scale,
    sphere_integral,
    sub,
    subspace_angle,
    zero,
)

SKEW = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
SYM = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def test_apply_A_on_linear_fields(sphere_points):
    w = linear_map(SKEW)
    aw = apply_A(w)
    assert np.max(np.abs(aw.eval(sphere_points) - w.eval(sphere_points))) < 1e-12
    w = linear_map(SYM)
    aw = apply_A(w)
    assert np.max(np.abs(aw.eval(sphere_points) + w.eval(sphere_points))) < 1e-12
    z = poly_map(3, [zero(3)] * 3)
    assert np.max(np.abs(apply_A(z).eval(sphere_points))) == 0.0


def test_apply_A_dimension_guard():
    with pytest.raises(ValueError):
        apply_A(poly_map(3, [coordinate(3, 0)]))


def test_apply_A_pointwise_matches_poly(grid3, rng):
    from spherestab.spheremap import sampled_map

    w = random_eigenfield(3, 3, 1, rng).map
    X = grid3.nodes
    ws = sampled_map(grid3, w.eval(X), w.jac(X))
    a1 = apply_A(w).eval(X)
    a2 = apply_A(ws).sample(grid3)[1]
    assert np.max(np.abs(a1 - a2)) < 1e-11


@pytest.mark.parametrize("n,k,expected", [
    (3, 1, {-1, 1}), (3, 2, {-2, 1, 3}), (3, 4, {-4, 1, 5}),
    (4, 1, {-1, 1}), (4, 3, {-3, 1, 5}), (2, 1, {-1, 1}), (2, 3, {-3, 3}),
])
def test_spectrum_clusters(n, k, expected):
    spaces = eigenspaces(n, k)
    got = {int(round(s.eigenvalue)) for s in spaces if s.dim > 0}
    assert got == expected


def _einsum_pairs(C1, C2, G):
    """Reference contraction sum_{i,m,p} C1[a,i,m] G[m,p] C2[b,i,p]."""
    return np.einsum("aim,mp,bip->ab", C1, G, C2)


@pytest.mark.parametrize("n,kmax", [(3, 8), (4, 5)])
def test_a_matrix_and_subspace_angle_match_einsum(n, kmax):
    for k in range(1, kmax + 1):
        B = vector_space_coeffs(n, k)
        dim, _, M = B.shape
        AB = (a_coefficient_matrix(n, k) @ B.reshape(dim, n * M).T).T.reshape(dim, n, M)
        ref = _einsum_pairs(B, AB, gram(n, k))
        assert np.max(np.abs(a_matrix(n, k) - ref)) <= 1e-12 * np.max(np.abs(ref))
        spaces = eigenspaces(n, k)
        for S1, S2 in [(spaces[2], helmholtz_split(n, k)[1]), (spaces[0], spaces[0]), (spaces[1], spaces[1])]:
            if S1.dim == 0:
                continue
            C = _einsum_pairs(S1.coeffs, S2.coeffs, gram(n, k))
            want = float(np.max(np.abs(1.0 - np.linalg.svd(C, compute_uv=False))))
            assert abs(subspace_angle(S1.coeffs, S2.coeffs, gram(n, k)) - want) <= 1e-12


@pytest.mark.parametrize("n,k", [(3, k) for k in range(1, 25)] + [(4, k) for k in range(1, 13)])
def test_spectrum_up_to_the_degree_ceiling(n, k):
    # dims h(n,k+1), n h(n,k) - h(n,k+1) - h(n,k-1), h(n,k-1); the top block is empty at k = 1
    h = lambda d: harmonic_dimension(n, d)
    top = h(k - 1) if k >= 2 else 0
    dims = [h(k + 1), n * h(k) - h(k + 1) - h(k - 1), top]
    assert [S.dim for S in eigenspaces(n, k)] == dims
    centres = np.repeat([-k, 1.0, k + n - 2], dims)
    evals = np.linalg.eigvalsh(0.5 * (a_matrix(n, k) + a_matrix(n, k).T))
    assert np.max(np.abs(evals - np.sort(centres))) < 1e-8


@pytest.mark.parametrize("n,k", [(3, k) for k in range(1, 25)] + [(4, k) for k in range(1, 13)])
def test_constructed_spectrum_matches_the_eigh_and_svd_oracle(n, k):
    # 1 - cos of the largest principal angle; measured 5.3e-15 at (3, 12), 4.9e-11 at (3, 24), 2.4e-14 at (4, 12)
    bound = 1e-12 if k <= 12 else 1e-9
    spaces = eigenspaces(n, k)
    for S, want in zip(spaces + helmholtz_split(n, k), eigenspaces_eigh(n, k) + helmholtz_split_svd(n, k)):
        assert subspace_angle(S.coeffs, want, gram(n, k)) <= bound


@pytest.mark.parametrize("n,k", [(3, k) for k in range(1, 13)] + [(4, k) for k in range(1, 13)])
def test_a_matrix_matches_the_gradient_form(n, k):
    want = a_matrix_from_gradients(n, k)
    assert np.max(np.abs(a_matrix(n, k) - want)) <= 1e-12 * np.max(np.abs(want))


def _eigen_residual(n, k, S):
    """max |A E - lambda E| and max |E E^t - I| of a space in the coordinates of the basis of H_{n,k}."""
    E = _einsum_pairs(S.coeffs, vector_space_coeffs(n, k), gram(n, k))
    return (float(np.max(np.abs(E @ a_matrix(n, k).T - S.eigenvalue * E), initial=0.0)),
            float(np.max(np.abs(E @ E.T - np.eye(S.dim)), initial=0.0)))


@pytest.mark.parametrize("k,dims", [(1, [2, 1, 0])] + [(k, [2, 0, 2]) for k in (2, 3, 4)])
def test_spectrum_at_n2_where_eigenvalues_collide(k, dims):
    # at k = 1 the values 1 and k+n-2 coincide; for k >= 2 eig2 is empty
    spaces = eigenspaces(2, k)
    assert [S.dim for S in spaces] == dims
    for S in spaces:
        assert max(_eigen_residual(2, k, S)) <= 1e-12


@pytest.mark.parametrize("n,k", [(3, 4), (3, 8), (4, 5)])
def test_draws_do_not_depend_on_the_eigenbases(n, k, monkeypatch):
    import spherestab.operator as op

    spaces, rng = eigenspaces(n, k), np.random.default_rng(11)
    rotated = tuple(replace(S, coords=np.linalg.qr(rng.normal(size=(S.dim, S.dim)))[0] @ S.coords) for S in spaces)

    def draws():
        r = np.random.default_rng(3)
        maps = [op.random_eigenfield(n, k, i, r).map for i in (1, 2, 3) if spaces[i - 1].dim]
        return maps + [op.random_h_field(n, k, r)]

    before, unrotated = draws(), op.eigenspaces
    monkeypatch.setattr(op, "eigenspaces", lambda n2, k2: rotated if (n2, k2) == (n, k) else unrotated(n2, k2))
    for a, b in zip(before, draws(), strict=True):
        assert a.stack.blocks.keys() == b.stack.blocks.keys()
        for d, C in a.stack.blocks.items():
            assert np.max(np.abs(C - b.stack.blocks[d])) <= 1e-13 * np.max(np.abs(C))


@pytest.mark.parametrize("n,kmax", [(3, 6), (4, 4)])
def test_draws_match_the_gram_pairing_route(n, kmax):
    # candidate coordinates against the Gaussian mapped to monomials and paired under the Gram
    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    for k in range(1, kmax + 1):
        for i in (1, 2, 3):
            if eigenspaces(n, k)[i - 1].dim:
                got = random_eigenfield(n, k, i, np.random.default_rng(5)).map.stack.blocks
                assert list(got) == [k]
                assert close(got[k][0], eigenfield_by_gram_pairing(n, k, i, np.random.default_rng(5)))
    got = random_h_field(n, kmax, np.random.default_rng(5)).stack.blocks
    want = h_field_by_basis(n, kmax, np.random.default_rng(5))
    assert list(got) == list(want) == list(range(1, kmax + 1))
    assert all(close(got[k][0], want[k]) for k in want)


@pytest.mark.parametrize("n,k", [(2, 29), (3, 28)])
def test_the_top_stated_blocks_keep_their_margin_under_the_spectrum_tolerance(n, k):
    # the largest eigen- or orthonormality residual over the 1e-8 tolerance of the check in
    # eigenspaces; measured 0.673 at (2, 29) and 0.814 at (3, 28) (0.732 at (2, 28)).  A rise
    # past 0.9 eats into the stated degree range before any block fails outright
    M = a_matrix(n, k)
    worst = max(max(float(np.max(np.abs(S.coords @ M.T - S.eigenvalue * S.coords), initial=0.0)),
                    float(np.max(np.abs(S.coords @ S.coords.T - np.eye(S.dim)), initial=0.0)))
                for S in eigenspaces(n, k))
    assert worst / 1e-8 <= 0.9


def test_eigenvalue_residuals(rng):
    for (n, k, i) in [(3, 2, 1), (3, 4, 2), (3, 3, 3), (4, 2, 3), (4, 4, 1)]:
        ef = random_eigenfield(n, k, i, rng)
        sig = {1: -k, 2: 1.0, 3: k + n - 2}[i]
        aw = apply_A(ef.map)
        resid = [sub(a, b) for a, b in zip(aw.components, ef.map.scale(sig).components)]
        assert np.sqrt(field_pair(resid, resid)) < 1e-9


def test_helmholtz_dimensions():
    sol, perp = helmholtz_split(3, 1)
    assert sol.dim == 8 and perp.dim == 0
    assert helmholtz_split(3, 2)[1].dim == 3
    assert helmholtz_split(4, 2)[1].dim == 4
    for n, k in [(3, 3), (4, 3)]:
        sol, perp = helmholtz_split(n, k)
        from spherestab.harmonics import vector_space_coeffs

        assert sol.dim + perp.dim == vector_space_coeffs(n, k).shape[0]


def test_sol_fields_have_divergence_free_extension(rng):
    sol, _ = helmholtz_split(3, 3)
    c = rng.normal(size=sol.dim)
    w = sol.element(c / np.linalg.norm(c))
    div = add(*(diff(comp, i) for i, comp in enumerate(w.components)))
    assert is_zero(div, tol=1e-10)


def test_eig3_equals_sol_complement():
    for n, k in [(3, 2), (3, 4), (4, 2), (4, 3)]:
        eig3 = eigenspaces(n, k)[2]
        perp = helmholtz_split(n, k)[1]
        assert eig3.dim == perp.dim
        assert subspace_angle(eig3.coeffs, perp.coeffs, gram(n, k)) < 1e-8


@pytest.mark.parametrize("n,ks", [(3, range(1, 6)), (4, range(1, 5)), (2, range(1, 6))])
def test_self_adjointness(n, ks):
    for k in ks:
        assert self_adjointness_residual(n, k) < 1e-10


def test_degree_preservation(rng):
    w = random_eigenfield(3, 3, 1, rng).map
    aw = apply_A(w)
    e = analyze(aw, 5)
    for k, blk in e.blocks.items():
        if k != 3 and blk.size:
            assert np.max(np.abs(blk)) < 1e-10


def test_eig2_tangential_divergence_free(grid3, rng):
    X = grid3.nodes[::40]
    for k in (2, 4):
        ef = random_eigenfield(3, k, 2, rng)
        U, J = ef.map.eval(X), ef.map.jac(X)
        assert np.max(np.abs(np.einsum("ai,ai->a", U, X))) < 1e-9
        assert np.max(np.abs(surface_divergence(J, X))) < 1e-9


def test_kernel_dimensions():
    k12, k23 = kernel_subspaces(3)
    assert k12.dim == 3 and k23.dim == 3
    k12, k23 = kernel_subspaces(4)
    assert k12.dim == 6 and k23.dim == 4


def test_project_kernel_examples(sphere_points, rng):
    pk = project_kernel(linear_map(SKEW))
    assert np.max(np.abs(pk.eval(sphere_points) - sphere_points @ SKEW.T)) < 1e-10
    assert np.max(np.abs(project_kernel(linear_map(SYM)).eval(sphere_points))) < 1e-10
    w3 = random_eigenfield(3, 3, 2, rng).map
    assert np.max(np.abs(project_kernel(w3).eval(sphere_points))) < 1e-10


def test_project_kernel_residual_characterization(rng):
    for n in (3, 4):
        w = random_h_field(n, 3, rng)
        resid = w + project_kernel(w).scale(-1.0)
        skew, divmom = kernel_characterization_residual(resid.components)
        assert skew < 1e-8
        assert divmom < 1e-8


def test_projection_idempotent_symmetric(rng):
    w = random_h_field(3, 3, rng)
    v = random_h_field(3, 3, rng)
    p1 = project_kernel(w)
    p2 = project_kernel(p1)
    d = [sub(a, b) for a, b in zip(p1.components, p2.components)]
    assert np.sqrt(field_pair(d, d)) < 1e-10
    s1 = field_pair(project_kernel(v).components, w.components)
    s2 = field_pair(v.components, p1.components)
    assert abs(s1 - s2) < 1e-10


def test_project_h_n_reports(rng):
    n = 3
    comps = [add(constant(n, 1.5), scale(coordinate(n, i), 2.0)) for i in range(n)]
    w = poly_map(n, comps)
    w2, report = project_h_n(w)
    assert np.allclose(report["removed_mean"], 1.5)
    assert abs(report["removed_radial"] - 2.0) < 1e-12
    from poly_oracle import field_inner_x, field_mean

    f = w2.components
    assert np.max(np.abs(field_mean(f))) < 1e-12
    assert abs(sphere_integral(field_inner_x(f))) < 1e-12


def test_trivial_eigenspace_raises(rng):
    with pytest.raises(ValueError):
        random_eigenfield(3, 1, 3, rng)


def _on_callable_maps():
    """Functions that integrate a map on a grid, each called as fn(u, grid); apply_A
    takes no grid, so its explicit form is the map sampled on that grid."""
    from spherestab.forms import q_n
    from spherestab.harmonics import grad_origin, poincare_deficit
    from spherestab.spheremap import sampled_map

    return {
        "apply_A": lambda u, g: apply_A(u if g is None else sampled_map(g, *u.sample(g)[1:])),
        "project_h_n": lambda u, g: project_h_n(u, grid=g)[0],
        "project_kernel": lambda u, g: project_kernel(u, grid=g),
        "grad_origin": grad_origin,
        "poincare_deficit": poincare_deficit,
        "q_n": q_n,
    }


@pytest.mark.parametrize("name", sorted(_on_callable_maps()))
def test_callable_maps_integrate_on_the_default_grid(name, rng):
    from spherestab.moebius import as_sphere_map, random_moebius
    from spherestab.quadrature import default_sphere_grid
    from spherestab.spheremap import SphereMap

    fn, g = _on_callable_maps()[name], default_sphere_grid(3)
    u = as_sphere_map(random_moebius(rng))

    def arrays(r):  # a map by its values and Jacobians on g
        return list(r.sample(g)[1:]) if isinstance(r, SphereMap) else [r]

    for a, b in zip(arrays(fn(u, None)), arrays(fn(u, g)), strict=True):
        assert (a is None and b is None) or np.array_equal(a, b)


def _project_kernel_per_field(w, grid):
    """project_kernel of a non-poly map as a loop over the kernel basis, one
    monomial table per basis field."""
    from spherestab.quadrature import integrate

    w, _ = project_h_n(w, grid=grid)
    X, U, J = w.sample(grid)
    vals, jac = np.zeros_like(U), None if J is None else np.zeros((len(X), w.n, w.n))
    for S in kernel_subspaces(w.n):
        for bmap in map(S.element, np.eye(S.dim)):
            BV, BJ = bmap.values_and_jacobians(X)
            c = integrate(grid, np.einsum("ai,ai->a", U, BV))
            vals += c * BV
            if jac is not None:
                jac += c * BJ()
    return vals, jac


@pytest.mark.parametrize("kind", ["callable", "sampled", "sampled-no-jacobians"])
def test_project_kernel_of_a_non_poly_map_matches_the_per_field_loop(kind, rng):
    from spherestab.moebius import as_sphere_map, random_moebius
    from spherestab.quadrature import default_sphere_grid
    from spherestab.spheremap import sampled_map

    n = 3 if kind == "callable" else 4
    g = default_sphere_grid(n)
    if kind == "callable":
        u = as_sphere_map(random_moebius(rng))
    else:
        _, U, J = random_h_field(n, 3, rng).sample(g)
        u = sampled_map(g, U, None if kind == "sampled-no-jacobians" else J)
    got = project_kernel(u, grid=g).sample(g)[1:]
    want = _project_kernel_per_field(u, g)
    assert (got[1] is None) == (want[1] is None) == (kind == "sampled-no-jacobians")
    for a, b in zip(got, want):
        if b is not None:
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_project_h_n_samples_a_callable_map_once(grid3, rng):
    from spherestab.moebius import moebius_apply, moebius_jacobian, random_moebius
    from spherestab.spheremap import callable_map

    phi, calls = random_moebius(rng), []

    def value(X):
        calls.append("value")
        return moebius_apply(phi, X)

    def jacobian(X):
        calls.append("jacobian")
        return moebius_jacobian(phi, X)

    w, report = project_h_n(callable_map(3, 3, value, jacobian), grid3)
    assert np.max(np.abs(report["removed_mean"])) > 1e-3
    assert sorted(calls) == ["jacobian", "value"]
    assert np.max(np.abs(grid3.weights @ w.sample(grid3)[1])) < 1e-14
