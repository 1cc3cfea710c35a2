"""Moebius group: closed formula, group law, solvers, nearest fits."""

import numpy as np
import pytest

from spherestab.forms import tangential_energy
from spherestab.moebius import (
    MoebiusMap,
    as_sphere_map,
    compose,
    compose_with_map,
    conformality_residual,
    dilation_scale,
    gauge_fix,
    inverse,
    moebius_apply,
    moebius_jacobian,
    nearest_moebius,
    nearest_rotation,
    psi_functional,
    random_moebius,
    recenter,
)
from spherestab.operator import project_kernel, random_h_field
from spherestab.quadrature import build_sphere_grid
from spherestab.spheremap import callable_map, identity_map, linear_map, poly_map

from poly_oracle import inf_moebius_field

IDENTITY = MoebiusMap(3, np.eye(3), np.array([0, 0, 1.0]), 1.0)


def test_identity_parameters(sphere_points):
    assert np.max(np.abs(moebius_apply(IDENTITY, sphere_points) - sphere_points)) < 1e-12


def test_validation():
    with pytest.raises(ValueError):
        MoebiusMap(3, 2 * np.eye(3), np.array([0, 0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        MoebiusMap(3, np.eye(3), np.array([0, 0, 2.0]), 1.0)
    with pytest.raises(ValueError):
        MoebiusMap(3, np.eye(3), np.array([0, 0, 1.0]), -1.0)


def test_fixed_points(rng):
    phi = random_moebius(rng)
    assert np.allclose(moebius_apply(phi, phi.xi[None]), (phi.O @ phi.xi)[None], atol=1e-12)
    assert np.allclose(moebius_apply(phi, -phi.xi[None]), -(phi.O @ phi.xi)[None], atol=1e-12)


def test_output_on_sphere(rng, sphere_points):
    phi = random_moebius(rng, lam_range=(0.3, 3.0))
    Y = moebius_apply(phi, sphere_points)
    assert np.max(np.abs(np.linalg.norm(Y, axis=1) - 1.0)) < 1e-12


def test_jacobian_matches_finite_differences(rng, sphere_points):
    phi = random_moebius(rng)
    J = moebius_jacobian(phi, sphere_points)
    eps = 1e-7
    for a in range(5):
        x = sphere_points[a]
        t = np.cross(x, rng.normal(size=3))
        t /= np.linalg.norm(t)
        xp = (x + eps * t) / np.linalg.norm(x + eps * t)
        xm = (x - eps * t) / np.linalg.norm(x - eps * t)
        fd = (moebius_apply(phi, xp[None])[0] - moebius_apply(phi, xm[None])[0]) / (2 * eps)
        assert np.max(np.abs(J[a] @ t - fd)) < 1e-6


def test_parameter_mirror_identity(sphere_points):
    # phi_{-xi, lam} is the same map as phi_{xi, 1/lam}
    xi = np.array([0.0, 0.0, 1.0])
    p1 = MoebiusMap(3, np.eye(3), -xi, 2.0)
    p2 = MoebiusMap(3, np.eye(3), xi, 0.5)
    assert np.max(np.abs(moebius_apply(p1, sphere_points) - moebius_apply(p2, sphere_points))) < 1e-14


def test_inverse_round_trip(rng, sphere_points):
    phi = random_moebius(rng)
    inv = inverse(phi)
    assert np.max(np.abs(moebius_apply(inv, moebius_apply(phi, sphere_points)) - sphere_points)) < 1e-10
    ident = inverse(IDENTITY)
    assert np.max(np.abs(moebius_apply(ident, sphere_points) - sphere_points)) < 1e-12
    p = MoebiusMap(3, np.eye(3), np.array([0, 0, 1.0]), 2.0)
    ip = inverse(p)
    assert abs(ip.lam - 0.5) < 1e-14


def test_compose_group_law(rng, sphere_points):
    for _ in range(5):
        p1 = random_moebius(rng, lam_range=(0.4, 2.5))
        p2 = random_moebius(rng, lam_range=(0.4, 2.5))
        comp = compose(p1, p2)
        lhs = moebius_apply(comp, sphere_points)
        rhs = moebius_apply(p1, moebius_apply(p2, sphere_points))
        assert np.max(np.abs(lhs - rhs)) < 1e-10
    p1 = random_moebius(rng)
    cid = compose(p1, inverse(p1))
    assert np.max(np.abs(moebius_apply(cid, sphere_points) - sphere_points)) < 1e-10


def test_conformality(rng):
    for _ in range(8):
        phi = random_moebius(rng, lam_range=(0.3, 3.0))
        assert conformality_residual(phi) < 1e-9


def test_moebius_dirichlet_energy(grid3, rng):
    # conformal invariance: D_2(phi) = 1 at grid tolerance
    from spherestab.deficits import combined_deficit, dirichlet

    for _ in range(4):
        phi = random_moebius(rng, lam_range=(0.5, 2.0))
        u = as_sphere_map(phi)
        assert abs(dirichlet(u, grid3) - 1.0) < 1e-6
        assert combined_deficit(u, grid3) < 1e-6


def test_recenter_identity(grid3):
    phi = recenter(identity_map(3), grid3)
    m = grid3.weights @ identity_map(3).eval(moebius_apply(phi, grid3.nodes))
    assert np.linalg.norm(m) < 1e-8


def test_recenter_rotation(grid3, rng):
    R = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    if np.linalg.det(R) < 0:
        R[:, 0] = -R[:, 0]
    u = linear_map(R)
    phi = recenter(u, grid3)
    assert np.linalg.norm(grid3.weights @ u.eval(moebius_apply(phi, grid3.nodes))) < 1e-8


def test_recenter_recovers_group_inverse(grid3):
    xi = np.array([0.0, 0.0, 1.0])
    target = MoebiusMap(3, np.eye(3), xi, 2.0)
    u = as_sphere_map(target)
    phi = recenter(u, grid3)
    expect = MoebiusMap(3, np.eye(3), xi, 0.5)
    pts = grid3.nodes[::101]
    assert np.max(np.abs(moebius_apply(phi, pts) - moebius_apply(expect, pts))) < 1e-6
    assert np.linalg.norm(grid3.weights @ u.eval(moebius_apply(phi, grid3.nodes))) < 1e-8


def test_recenter_rejects_non_unit(grid3):
    with pytest.raises(ValueError):
        recenter(linear_map(np.diag([1.0, 1.0, 2.0])), grid3)


def test_infinitesimal_field_lies_in_kernel_block(rng, sphere_points):
    S = np.array([[0.0, 0.3, -0.1], [-0.3, 0.0, 0.2], [0.1, -0.2, 0.0]])
    xi = rng.normal(size=3)
    xi /= np.linalg.norm(xi)
    Y = poly_map(3, inf_moebius_field(S, 0.7, xi))
    from spherestab.operator import project_h_n

    Yc = project_h_n(Y)   # removes the constant part
    pk = project_kernel(Yc)
    resid = Yc.eval(sphere_points) - pk.eval(sphere_points)
    assert np.max(np.abs(resid)) < 1e-9


def test_psi_diagonal_action_on_lie_algebra(grid3):
    # the differential of the gauge functional at the identity acts as
    # (2/3) S_ij on the skew part and (10/9) mu xi on the dilation part
    S = np.array([[0.0, 0.4, -0.2], [-0.4, 0.0, 0.1], [0.2, -0.1, 0.0]])
    xi = np.array([1.0, 2.0, 2.0]) / 3.0
    mu = 0.9
    Y = poly_map(3, inf_moebius_field(S, mu, xi))
    psi = psi_functional(Y, grid3)
    # avg(Y^i x_j - Y^j x_i) = (2/3) S_ij; avg (div Y_h) x = (10/9) mu xi
    assert np.allclose(psi[:3], (2.0 / 3.0) * np.array([S[0, 1], S[0, 2], S[1, 2]]), atol=1e-12)
    assert np.allclose(psi[3:], (10.0 / 9.0) * mu * xi, atol=1e-10)


def test_gauge_fix_identity(grid3):
    phi = gauge_fix(identity_map(3), grid3)
    r = np.linalg.norm(psi_functional(compose_with_map(identity_map(3), phi), grid3))
    assert r < 1e-7


def test_gauge_fix_small_rotation(grid3):
    from spherestab.moebius import _rotation_from_axis_angle

    R = _rotation_from_axis_angle(np.array([0.03, -0.02, 0.04]))
    u = linear_map(R)
    phi = gauge_fix(u, grid3)
    assert np.linalg.norm(psi_functional(compose_with_map(u, phi), grid3)) < 1e-7


def test_gauge_fix_perturbed_identity(grid3, rng):
    w = random_h_field(3, 4, rng)
    w = w.scale(0.05 / np.sqrt(tangential_energy(w)))
    u = identity_map(3) + w
    phi = gauge_fix(u, grid3)
    v = compose_with_map(u, phi)
    assert np.linalg.norm(psi_functional(v, grid3)) < 1e-7
    # equivalently, the first-moment matrix is symmetric
    m = np.einsum("a,ai,aj->ij", grid3.weights, v.eval(grid3.nodes), grid3.nodes)
    assert np.max(np.abs(m - m.T)) < 1e-7


def test_scale_formula_bound(grid3, rng):
    from spherestab.families import grad_gap_to_identity

    for _ in range(5):
        w = random_h_field(3, 4, rng)
        w = w.scale(0.1 / np.sqrt(tangential_energy(w)))
        u = identity_map(3) + w
        lam = dilation_scale(u, grid3)
        theta = np.sqrt(grad_gap_to_identity(u, grid3))
        assert abs(lam - 1.0) <= theta / np.sqrt(2.0) + 1e-12


def test_nearest_rotation_examples(rng):
    O, val = nearest_rotation(identity_map(3))
    assert np.allclose(O, np.eye(3), atol=1e-12) and val < 1e-12
    R = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    O, val = nearest_rotation(linear_map(R))
    assert np.max(np.abs(O - R)) < 1e-10 and val < 1e-10
    O, val = nearest_rotation(linear_map(np.diag([1.0, 1.0, 1.2])))
    assert np.allclose(O, np.eye(3), atol=1e-10)
    assert abs(val - (2.0 / 3.0) * 0.04) < 1e-12


def test_nearest_rotation_n2():
    theta = 0.3
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    O, val = nearest_rotation(linear_map(R))
    assert np.max(np.abs(O - R)) < 1e-10 and val < 1e-10


def test_nearest_moebius_exact_target(grid3, rng):
    xi = rng.normal(size=3)
    xi /= np.linalg.norm(xi)
    tgt = MoebiusMap(3, np.eye(3), xi, 2.0)
    u = callable_map(3, 3, lambda P: 3.0 * moebius_apply(tgt, P),
                     lambda P: 3.0 * moebius_jacobian(tgt, P))
    res = nearest_moebius(u, grid3)
    assert res.value < 1e-6
    assert abs(res.lam - 3.0) < 1e-4


def test_nearest_moebius_samples_a_callable_map_once_before_recentring(grid3, rng):
    # one grid sample (values and Jacobians) gives the fit data, the
    # signed-volume check and the recentring's start at v = 0
    xi = rng.normal(size=3)
    tgt = MoebiusMap(3, np.eye(3), xi / np.linalg.norm(xi), 2.0)
    evals = {"map_evals": 0}

    def counted(f):
        def call(P):
            evals["map_evals"] += 1
            return f(P)
        return call

    u = callable_map(3, 3, counted(lambda P: 3.0 * moebius_apply(tgt, P)),
                     counted(lambda P: 3.0 * moebius_jacobian(tgt, P)))
    res = nearest_moebius(u, grid3)
    assert res.recentred and res.converged and abs(res.lam - 3.0) < 1e-12
    assert evals["map_evals"] <= 7


def test_nearest_moebius_identity(grid3):
    res = nearest_moebius(identity_map(3), grid3)
    assert res.value < 1e-10
    assert abs(res.lam - 1.0) < 1e-8


def test_nearest_moebius_requires_volume(grid3):
    with pytest.raises(ValueError):
        nearest_moebius(linear_map(np.diag([1.0, 1.0, 0.0])), grid3)


# fit values of the earlier six-parameter Nelder-Mead search on Config().grid(3);
# the value is an achieved upper bound, so it may improve but not worsen
_ELLIPSOID_FIT_VALUES = {0.01: 4.4148648497222e-05, 0.1: 0.004153686396675127,
                         0.3: 0.03252032520325199}


def test_nearest_moebius_ellipsoid_ratio_sweep(grid3):
    from spherestab.deficits import combined_deficit

    ratios = []
    for s, previous in _ELLIPSOID_FIT_VALUES.items():
        u = linear_map(np.diag([1.0, 1.0, 1.0 + s]))
        res = nearest_moebius(u, grid3)
        assert res.value <= previous * (1.0 + 1e-9)
        assert res.converged and 0 < res.nfev <= 30
        assert res.grad_norm <= 1e-9
        ratios.append(res.value / combined_deficit(u, grid3))
    assert max(ratios) < 100
    assert max(ratios) / min(ratios) < 10


def test_fit_terms_match_generic_quadrature(grid3, rng):
    # the O(N) contraction of the per-boost step against the (N,3,3) path
    from spherestab.moebius import _boost_moebius, _fit_terms
    from spherestab.spheremap import tangential_jacobians

    X, w = grid3.nodes, grid3.weights
    u = identity_map(3) + random_h_field(3, 3, rng).scale(0.3)
    assert u.is_poly
    TJ_u = tangential_jacobians(u.at(X)[1](), X)
    for _ in range(8):
        xi = rng.normal(size=3)
        xi /= np.linalg.norm(xi)
        v = np.log(rng.uniform(0.3, 3.0)) * xi
        O, b, c, _, _ = _fit_terms(v, TJ_u, X, w)
        phi = _boost_moebius(O, v)
        TJp = tangential_jacobians(moebius_jacobian(phi, X), X)
        b_ref = float(w @ np.einsum("aik,aik->a", TJ_u, TJp))
        c_ref = float(w @ np.einsum("aik,aik->a", TJp, TJp))
        assert abs(b - b_ref) <= 1e-12 * abs(b_ref)
        assert abs(c - c_ref) <= 1e-12 * abs(c_ref)
        # no rotation beats the closed-form one
        for _ in range(3):
            R = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            R *= np.sign(np.linalg.det(R))
            TJr = tangential_jacobians(moebius_jacobian(MoebiusMap(3, R @ phi.O, phi.xi, phi.lam), X), X)
            assert float(w @ np.einsum("aik,aik->a", TJ_u, TJr)) <= b + 1e-12


def _perturbed_moebius(rng, eps):
    """A callable map: a random Moebius map plus eps times a unit-energy h-field."""
    psi = random_moebius(rng, lam_range=(0.5, 2.0))
    w = random_h_field(3, 3, rng)
    w = w.scale(eps / np.sqrt(tangential_energy(w)))
    return callable_map(3, 3, lambda P: moebius_apply(psi, P) + w.eval(P),
                        lambda P: moebius_jacobian(psi, P) + w.at(P)[1]())


def test_fit_gradient_matches_finite_differences(grid3, rng):
    from spherestab.moebius import _SERIES_CUTOFF, _boost_coefficients, _fit_terms
    from spherestab.spheremap import tangential_jacobians

    # the Taylor branch of the boost coefficients meets the closed forms
    below = np.array(_boost_coefficients(_SERIES_CUTOFF * (1.0 - 1e-12)))
    above = np.array(_boost_coefficients(_SERIES_CUTOFF))
    assert np.max(np.abs(below - above) / above) <= 1e-10

    X, w = grid3.nodes, grid3.weights
    xi = rng.normal(size=3)
    tgt = MoebiusMap(3, np.eye(3), xi / np.linalg.norm(xi), 2.0)
    maps = [linear_map(np.diag([1.0, 1.0, 1.3])),
            callable_map(3, 3, lambda P: 3.0 * moebius_apply(tgt, P),
                         lambda P: 3.0 * moebius_jacobian(tgt, P)),
            _perturbed_moebius(rng, 0.2)]
    # v = 0, |v| below the series cutoff, |v| about 1, and |v| = 3 (lam = 20),
    # where c = avg |grad_T phi_v|^2 departs from its constant value 2 by
    # quadrature error only, so that its gradient is not zero
    radii = (0.0, 0.5 * _SERIES_CUTOFF, 1.0, 3.0)
    h = 1e-5
    for u in maps:
        TJ_u = tangential_jacobians(u.at(X)[1](), X)
        for r in radii:
            d = rng.normal(size=3)
            v = r * d / np.linalg.norm(d)
            _, _, _, db, dc = _fit_terms(v, TJ_u, X, w)
            fd = np.empty((2, 3))
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                _, bp, cp, _, _ = _fit_terms(v + e, TJ_u, X, w)
                _, bm, cm, _, _ = _fit_terms(v - e, TJ_u, X, w)
                fd[:, j] = (bp - bm) / (2 * h), (cp - cm) / (2 * h)
            for grad, ref in ((db, fd[0]), (dc, fd[1])):
                assert np.max(np.abs(grad - ref)) <= 1e-6 * max(1.0, np.linalg.norm(ref))
        assert np.linalg.norm(dc) > 1e-3    # the last case, |v| = 3, resolves dc


def test_nearest_moebius_value_survives_node_permutation(grid3, rng):
    # the fit value does not depend on the order of the nodes; phi is not
    # compared, because the minimiser need not be unique
    from spherestab.quadrature import SphereGrid

    perm = rng.permutation(grid3.size)
    shuffled = SphereGrid(grid3.n, grid3.nodes[perm], grid3.weights[perm], grid3.exactness)
    maps = [linear_map(np.diag([1.0, 1.0, 1.2])), _perturbed_moebius(rng, 0.05),
            identity_map(3) + random_h_field(3, 4, rng).scale(0.1)]
    for u in maps:
        ref = nearest_moebius(u, grid3)
        res = nearest_moebius(u, shuffled)
        assert res.converged and ref.converged
        assert abs(res.value - ref.value) <= 1e-12


def _einsum_moebius_jacobian(phi, X):
    # the einsum formulation that moebius_jacobian replaced, kept as the reference
    from spherestab.moebius import _dilation_parts

    D, N, JN = _dilation_parts(X, phi.xi, phi.lam)
    J = JN / D[:, None, None] - np.einsum("ai,j->aij", N, (1.0 - phi.lam**2) * phi.xi) / (D**2)[:, None, None]
    return np.einsum("ij,ajk->aik", phi.O, J)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_moebius_kernels_match_einsum_reference(n, rng):
    from spherestab.quadrature import sphere_grid
    from spherestab.spheremap import projectors, tangential_jacobians

    g = sphere_grid(n, 6)
    X = g.nodes
    for _ in range(3):
        phi = random_moebius(rng, n=n, lam_range=(0.3, 3.0))
        ref = _einsum_moebius_jacobian(phi, X)
        assert np.max(np.abs(moebius_jacobian(phi, X) - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))
        A = rng.normal(size=(n, n))
        comp = compose_with_map(linear_map(A), phi)
        ref_c = np.einsum("aij,ajk->aik", np.broadcast_to(A, (len(X), n, n)), ref)
        assert np.max(np.abs(comp.at(X)[1]() - ref_c)) <= 1e-13 * max(1.0, np.max(np.abs(ref_c)))
        TJ = tangential_jacobians(ref, X)
        R = np.einsum("aki,akj->aij", TJ, TJ) - (np.einsum("aik,aik->a", TJ, TJ) / (n - 1))[:, None, None] * projectors(X)
        ref_r = float(np.max(np.sqrt(np.einsum("aij,aij->a", R, R))))
        assert abs(conformality_residual(phi, g) - ref_r) <= 1e-13
    # D = <x, xi> (1 - lam^2) + 1 + lam^2 vanishes at <x, xi> = 5/3 for lam = 2
    phi = MoebiusMap(n, np.eye(n), np.eye(n)[0], 2.0)
    with pytest.raises(ValueError, match="degenerate denominator"):
        moebius_jacobian(phi, (5.0 / 3.0) * np.eye(n)[:1])


def _rotation(rng):
    from spherestab.moebius import _rotation_from_axis_angle

    return _rotation_from_axis_angle(rng.normal(size=3))


def test_chart_jacobians_match_central_differences(grid3, rng):
    # d phi_v / dv itself (u = identity, the moments against B = I on a coarse
    # grid are the values per node), the recentering Jacobian (mean of a
    # Moebius map) and the gauge Jacobian (Psi of a poly map, rotation columns
    # by R <- exp(omega) R), at |v| = 0, below the series cutoff, about 1 and 3
    from spherestab.moebius import _SERIES_CUTOFF, _chart_residual, _psi_moments, _rotation_from_axis_angle

    w = random_h_field(3, 4, rng)
    u = identity_map(3) + w.scale(0.2 / np.sqrt(tangential_energy(w)))
    coarse = build_sphere_grid(3, 8)
    cases = [
        (_chart_residual(identity_map(3), coarse, np.eye(3 * coarse.size), np.eye(coarse.size), turns=False), False),
        (_chart_residual(as_sphere_map(random_moebius(rng)), grid3, np.eye(3), grid3.weights[None], turns=False),
         False),
        (_chart_residual(u, grid3, *_psi_moments(grid3), turns=True), True),
    ]
    h = 1e-6
    for residual, turns in cases:
        R = _rotation(rng) if turns else np.eye(3)
        for r in (0.0, 0.5 * _SERIES_CUTOFF, 1.0, 3.0):
            d = rng.normal(size=3)
            v = r * d / np.linalg.norm(d)
            J = residual((R, v))[1]()
            fd = [(residual((R, v + h * e))[0] - residual((R, v - h * e))[0]) / (2 * h) for e in np.eye(3)]
            if turns:
                fd = [(residual((_rotation_from_axis_angle(h * e) @ R, v))[0]
                       - residual((_rotation_from_axis_angle(-h * e) @ R, v))[0]) / (2 * h) for e in np.eye(3)] + fd
            fd = np.column_stack(fd)
            assert J.shape == fd.shape
            assert np.max(np.abs(J - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))


def test_poly_and_callable_layouts_give_one_jacobian(grid3, rng):
    # one poly map, poly-backed (transposed views of its node-last monomial
    # table) and as a callable (its own row-major arrays): the recentering and
    # gauge residuals and Jacobians agree to roundoff
    from spherestab.moebius import _chart_residual, _psi_moments

    w = random_h_field(3, 4, rng)
    u = identity_map(3) + w.scale(0.2 / np.sqrt(tangential_energy(w)))
    uc = callable_map(3, 3, u.eval, lambda X: u.at(X)[1]())
    for L, B, turns in ((np.eye(3), grid3.weights[None], False), (*_psi_moments(grid3), True)):
        poly, call = (_chart_residual(m, grid3, L, B, turns) for m in (u, uc))
        for r in (0.0, 0.05, 1.0):
            d = rng.normal(size=3)
            state = (_rotation(rng) if turns else np.eye(3), r * d / np.linalg.norm(d))
            (fp, jp), (fc, jc) = poly(state), call(state)
            Jp, Jc = jp(), jc()
            assert np.max(np.abs(fp - fc)) <= 1e-13 * max(1.0, np.max(np.abs(fp)))
            assert np.max(np.abs(Jp - Jc)) <= 1e-13 * np.max(np.abs(Jp))


def test_gauge_jacobian_peak_memory(rng):
    # the node blocks keep one gauge Jacobian on the 4 608-node grid at most
    # half of the 903 KiB peak of the column-by-column (N, 3) contraction
    import tracemalloc

    from spherestab.moebius import _chart_residual, _psi_moments
    from spherestab.quadrature import default_sphere_grid

    g = default_sphere_grid(3)
    assert g.size == 4608
    w = random_h_field(3, 4, rng)
    u = identity_map(3) + w.scale(0.05 / np.sqrt(tangential_energy(w)))
    residual = _chart_residual(u, g, *_psi_moments(g), turns=True)
    _, jac = residual((_rotation(rng), np.array([0.02, -0.01, 0.03])))
    jac()
    tracemalloc.start()
    try:
        jac()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 903 * 1024 / 2


def test_compose_with_map_applies_phi_once_per_sample(grid3, rng, monkeypatch):
    import spherestab.moebius as moebius
    import spherestab.spheremap as spheremap

    w = random_h_field(3, 3, rng)
    u = identity_map(3) + w.scale(0.2 / np.sqrt(tangential_energy(w)))
    phi = random_moebius(rng)
    X = grid3.nodes
    want_U = u.eval(moebius_apply(phi, X))
    want_J = u.at(moebius_apply(phi, X))[1]() @ moebius_jacobian(phi, X)
    counts = {"phi": 0, "evaluate": 0}
    parts, evaluate = moebius._dilation_parts, spheremap.evaluate

    def counting_parts(*args):
        counts["phi"] += 1
        return parts(*args)

    def counting_evaluate(*args):
        counts["evaluate"] += 1
        return evaluate(*args)

    monkeypatch.setattr(moebius, "_dilation_parts", counting_parts)
    monkeypatch.setattr(spheremap, "evaluate", counting_evaluate)
    v = compose_with_map(u, phi)
    _, U, J = v.sample(grid3)
    assert counts == {"phi": 1, "evaluate": 1}        # one phi, one monomial table of u's values and Jacobians
    assert np.array_equal(U, want_U)
    assert np.max(np.abs(J - want_J)) <= 1e-13 * np.max(np.abs(want_J))
    for query in (v.eval, lambda X: v.at(X)[1]()):
        counts.update(phi=0, evaluate=0)
        query(X)
        assert counts == {"phi": 1, "evaluate": 1}


def _counting_moebius(tgt, counts):
    def value(P):
        counts["value"] += 1
        counts["value_on_grid"] += P.shape[0] > 1000 and bool(np.all(P == counts["grid"]))
        return moebius_apply(tgt, P)

    def jac(P):
        counts["jac"] += 1
        return moebius_jacobian(tgt, P)

    return callable_map(3, 3, value, jac)


def test_recenter_converges_on_wide_dilations(grid3, rng):
    for _ in range(6):
        tgt = random_moebius(rng, lam_range=(0.15, 6.0), rotate=True)
        u = as_sphere_map(tgt)
        phi = recenter(u, grid3)
        assert np.linalg.norm(grid3.weights @ u.eval(moebius_apply(phi, grid3.nodes))) <= 1e-8


def test_recenter_map_calls(grid3, rng):
    # Newton on the analytic Jacobian from v = 0: a few value and Jacobian
    # calls per target, and the values on the grid are taken once
    for _ in range(8):
        tgt = random_moebius(rng, lam_range=(0.5, 2.0), rotate=True)
        counts = {"value": 0, "jac": 0, "value_on_grid": 0, "grid": grid3.nodes}
        phi = recenter(_counting_moebius(tgt, counts), grid3)
        assert counts["value"] + counts["jac"] <= 20
        assert counts["value_on_grid"] == 1
        assert np.linalg.norm(grid3.weights @ moebius_apply(tgt, moebius_apply(phi, grid3.nodes))) <= 1e-8


def test_gauge_fix_evaluates_once_per_step(grid3, rng, monkeypatch):
    import spherestab.moebius as moebius
    import spherestab.spheremap as spheremap
    from spherestab.polynomials import evaluate

    psi_functional(identity_map(3), grid3)       # the Psi tables are cached per grid
    calls = []

    def counting(parts, points):
        calls.append(sum(width for width, _ in parts))
        return evaluate(parts, points)

    monkeypatch.setattr(moebius, "evaluate", counting)
    monkeypatch.setattr(spheremap, "evaluate", counting)
    for _ in range(4):
        w = random_h_field(3, 4, rng)
        u = identity_map(3) + w.scale(0.05 / np.sqrt(tangential_energy(w)))
        calls.clear()
        phi = gauge_fix(u, grid3)
        assert 1 <= len(calls) <= 5
        assert set(calls) == {12}                  # values and derivatives in one table
        assert np.linalg.norm(psi_functional(compose_with_map(u, phi), grid3)) < 1e-7


def test_solvers_refuse_maps_without_gradient_data():
    # a map without Jacobians is refused where it is made, so no solver meets one
    calls = []

    def value(P):
        calls.append(len(P))
        return np.asarray(P, dtype=float)

    with pytest.raises(ValueError, match="^map has no gradient data$"):
        callable_map(3, 3, value)
    assert calls == []


def test_nearest_moebius_recentres_callable_maps(grid3, rng):
    # the recentring start needs the Jacobians of u, which the callable map carries
    res = nearest_moebius(_perturbed_moebius(rng, 0.05), grid3)
    assert res.recentred and res.converged


def _bent_moebius(ti, li, rep):
    """u = f o phi / |f o phi| with f(y) = y + t Q q(y), q_i(y) = y^t C_i y, as a
    callable map with chain-rule Jacobians.  (t, lam) = ((0.3, 0.6, 0.9, 1.2)[ti],
    (2, 5, 10, 20)[li]); C (symmetric in its last two axes), the orthogonal Q
    and phi, a Moebius map of dilation lam, are drawn from the seed [ti, li, rep]."""
    t, lam = (0.3, 0.6, 0.9, 1.2)[ti], (2.0, 5.0, 10.0, 20.0)[li]
    rng = np.random.default_rng([ti, li, rep])
    C = rng.normal(size=(3, 3, 3))
    C = 0.5 * (C + C.transpose(0, 2, 1))
    Q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    phi = random_moebius(rng, lam_range=(lam, lam), rotate=True)

    def f(Y):
        return Y + t * np.einsum("ikl,ak,al->ai", C, Y, Y) @ Q.T

    def value(X):
        Z = f(moebius_apply(phi, X))
        return Z / np.linalg.norm(Z, axis=1, keepdims=True)

    def jac(X):
        Y = moebius_apply(phi, X)
        Z = f(Y)
        r = np.linalg.norm(Z, axis=1)
        Zh = Z / r[:, None]
        Df = np.eye(3) + 2.0 * t * np.einsum("ij,jkl,al->aik", Q, C, Y)
        Dn = (np.eye(3) - Zh[:, :, None] * Zh[:, None, :]) / r[:, None, None]
        return Dn @ Df @ moebius_jacobian(phi, X)

    return callable_map(3, 3, value, jac)


def _counting(u, counts):
    """The callable map u, counting its value and Jacobian calls in counts."""
    def value(P):
        counts["value"] += 1
        return u.eval(P)

    def jac(P):
        counts["jac"] += 1
        return u.at(P)[1]()

    return callable_map(3, 3, value, jac)


@pytest.mark.parametrize("case, runs, evals", [([3, 0, 7], range(2, 6), (82, 13)), ([3, 1, 18], [6], (859, 18))],
                         ids=["ladder", "sweep"])
def test_recenter_rescues_a_stalled_newton(case, runs, evals, grid3, monkeypatch):
    # Newton from v = 0 stalls on both maps; the ladder along the mean rescues
    # the first within its 4 Newton runs, the coarse sweep the second in its one
    import spherestab.moebius as moebius

    u = _bent_moebius(*case)
    I = np.eye(3)
    residual = moebius._chart_residual(u, grid3, np.eye(3), grid3.weights[None], turns=False)
    stalled = moebius._damped_newton(residual, lambda x, d: (I, x[1] + d), (I, np.zeros(3)),
                                     residual((I, np.zeros(3))), 1e-8)[1]
    assert stalled > 0.1
    runs_made = []
    newton = moebius._damped_newton
    monkeypatch.setattr(moebius, "_damped_newton", lambda *args: runs_made.append(args[2]) or newton(*args))
    # the coarse sweep takes its poles from the cached grid and builds none
    import spherestab.quadrature as quadrature

    quadrature.sphere_grid(3, 8)
    built, build = [], quadrature.build_sphere_grid
    for module in (quadrature, moebius):
        monkeypatch.setattr(module, "build_sphere_grid", lambda *a: built.append(a) or build(*a), raising=False)
    counts = {"value": 0, "jac": 0}
    phi = recenter(_counting(u, counts), grid3)
    assert built == []
    assert len(runs_made) in runs
    # the ladder direction is the mean of the first solve's start: no evaluation at v = 0 of its own
    assert (counts["value"], counts["jac"]) == evals
    assert np.linalg.norm(grid3.weights @ u.eval(moebius_apply(phi, grid3.nodes))) <= 1e-8


def test_recenter_failure_reports_the_solve(grid3):
    from poly_oracle import constant, zero
    from spherestab.errors import SolverError
    from spherestab.spheremap import poly_map

    # a constant unit map: its mean is e_1 for every Moebius map
    u = poly_map(3, [constant(3, 1.0), zero(3), zero(3)])
    with pytest.raises(SolverError, match=r"after \d+ Newton steps, \d+ residual and \d+ Jacobian "
                                          r"evaluations \(residual 1\.00e\+00\)"):
        recenter(u, grid3)
