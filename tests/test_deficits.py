"""Nonlinear deficits: stretches, volumes, Wente chain, bulk identity."""

import numpy as np
import pytest

from spherestab.deficits import (
    bulk_volume,
    combined_deficit,
    deficit_report,
    dirichlet,
    isometric_deficit,
    isoperimetric_deficit,
    perimeter,
    signed_volume,
    volume_expansion_check,
)
from spherestab.errors import UndefinedDeficitError
from spherestab.forms import q_vol, tangential_energy
from spherestab.moebius import as_sphere_map, random_moebius
from spherestab.operator import random_eigenfield, random_h_field
from spherestab.polynomials import Poly, exps
from spherestab.spheremap import identity_map, linear_map, poly_map

import poly_oracle as oracle
from poly_oracle import add, coordinate, scale, zero

SKEW = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def test_principal_stretch_values_examples():
    from spherestab.spheremap import principal_stretch_values

    X = np.array([[0.0, 0.0, 1.0]] * 3)
    # diag(1,1,2) at the north pole acts as the identity on the tangent plane
    J = np.array([np.eye(3), 2 * np.eye(3), np.diag([1.0, 1.0, 2.0])])
    assert np.allclose(principal_stretch_values(J, X), [[1.0, 1.0], [2.0, 2.0], [1.0, 1.0]])


def test_isometric_deficit_vanishes_on_rotations(rng):
    R = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    assert isometric_deficit(linear_map(R)) < 1e-12
    assert deficit_report(linear_map(R)).delta_isom < 1e-12


def test_short_homothety():
    u = linear_map(0.5 * np.eye(3))
    assert isometric_deficit(u) < 1e-12       # short: no stretches above 1
    assert abs(isoperimetric_deficit(u) - 7.0 / 8.0) < 1e-12
    assert deficit_report(u).delta_isom > 0


def test_deficit_chain_orderings(rng):
    # delta <= ||sigma_top - 1|| <= delta_isom pointwise, always
    for _ in range(5):
        w = random_h_field(3, 3, rng)
        u = identity_map(3) + w.scale(0.3 / np.sqrt(tangential_energy(w)))
        rep = deficit_report(u)
        d, s, di = rep.delta, rep.stretch_gap_norm, rep.delta_isom
        assert d <= s + 1e-12
        assert s <= di + 1e-12
    # conformal maps meet the sqrt(2) bound with equality
    phi = random_moebius(rng)
    rep = deficit_report(as_sphere_map(phi))
    assert abs(rep.delta_isom - np.sqrt(2) * rep.stretch_gap_norm) < 1e-9


def test_signed_volume_examples(rng):
    assert abs(signed_volume(identity_map(3)) - 1.0) < 1e-14
    assert abs(signed_volume(linear_map(np.diag([1.0, 1.0, 2.0]))) - 2.0) < 1e-12
    assert abs(signed_volume(identity_map(4)) - 1.0) < 1e-12
    A = rng.normal(size=(3, 3))
    assert abs(signed_volume(linear_map(A)) - np.linalg.det(A)) < 1e-10


def test_signed_volume_orthogonal_covariance(rng):
    w = random_h_field(3, 3, rng)
    u = identity_map(3) + w.scale(0.2)
    R = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    comps = [add(Poly(3), *(scale(u.components[j], R[i, j]) for j in range(3))) for i in range(3)]
    Ru = poly_map(3, comps)
    assert abs(signed_volume(Ru) - np.linalg.det(R) * signed_volume(u)) < 1e-9


def test_moebius_volume_and_degree(grid3, rng):
    for _ in range(3):
        phi = random_moebius(rng, lam_range=(0.5, 2.0))
        u = as_sphere_map(phi)
        rep = deficit_report(u, grid3)
        assert rep.unit_norm
        assert rep.degree_estimate in (-1, 1)
        assert abs(rep.volume - rep.degree_estimate) < 1e-6


def test_dirichlet_perimeter_examples():
    assert abs(dirichlet(identity_map(3)) - 1.0) < 1e-14
    assert abs(perimeter(identity_map(3)) - 1.0) < 1e-12
    u = linear_map(np.diag([1.0, 1.0, 1.1]))
    assert abs(dirichlet(u) - (2 + 1.21) / 3) < 1e-12
    assert abs(dirichlet(identity_map(4)) - 1.0) < 1e-12


def test_combined_deficit_examples(rng):
    u = linear_map(np.diag([1.0, 1.0, 1.1]))
    expect = ((2 + 1.21) / 3) ** 1.5 / 1.1 - 1.0
    E = combined_deficit(u)
    assert abs(E - expect) < 1e-12
    # scaling invariance
    assert abs(combined_deficit(u.scale(2.0)) - E) < 1e-10
    assert abs(combined_deficit(identity_map(3).scale(2.0))) < 1e-12
    # Moebius precomposition invariance at grid tolerance
    from spherestab.moebius import compose_with_map

    phi = random_moebius(rng, lam_range=(0.7, 1.5), rotate=False)
    from spherestab.quadrature import default_sphere_grid

    g = default_sphere_grid(3)
    assert abs(combined_deficit(compose_with_map(u, phi), g) - E) < 1e-6


def test_combined_deficit_undefined():
    # a rank-deficient map with zero signed volume
    u = linear_map(np.diag([1.0, 1.0, 0.0]))
    with pytest.raises(UndefinedDeficitError):
        combined_deficit(u)


@pytest.mark.parametrize("n", [3, 4])
def test_wente_chain_random_maps(n, rng):
    for _ in range(15):
        w = random_h_field(n, 3, rng)
        u = identity_map(n) + w.scale(0.3 / np.sqrt(tangential_energy(w)))
        D, P, V = dirichlet(u), perimeter(u), signed_volume(u)
        p = n / (n - 1)
        assert D**p >= P**p - 1e-9
        assert P**p >= abs(V) - 1e-9


def test_bulk_volume_identity(rng):
    assert abs(bulk_volume(identity_map(3)) - 1.0) < 1e-13
    A = np.diag([1.0, 1.0, 2.0])
    assert abs(bulk_volume(linear_map(A)) - 2.0) < 1e-12
    w = random_eigenfield(3, 2, 3, rng).map
    u = identity_map(3) + w.scale(0.2)
    assert abs(bulk_volume(u) - signed_volume(u)) < 1e-9
    # a degree-4 map, harmonic in no block: the determinant has degree 9, which
    # only the ball grid exact to degree 9 integrates; the exact moment route agrees
    comps = [Poly(3, {e: 0.3 * rng.normal() for d in range(5) for e in exps(3, d)}) for _ in range(3)]
    u = identity_map(3) + poly_map(3, comps)
    assert u.degree() == 4
    assert abs(bulk_volume(u) - signed_volume(u)) < 1e-12
    assert abs(bulk_volume(u) - oracle.bulk_volume(u)) < 1e-13


def test_volume_expansion_coefficients(rng):
    a0, a1, a2, a3 = volume_expansion_check(poly_map(3, [zero(3)] * 3))
    assert abs(a0 - 1) < 1e-12 and abs(a1) < 1e-12 and abs(a2) < 1e-12 and abs(a3) < 1e-12
    w = linear_map(SKEW)
    a0, a1, a2, a3 = volume_expansion_check(w)
    assert abs(a0 - 1) < 1e-12
    assert abs(a1) < 1e-12
    assert abs(a2 - q_vol(w, w)) < 1e-10
    assert abs(a3) < 1e-12  # det of odd-dimensional skew matrix
    wf = random_eigenfield(3, 2, 3, rng)
    a0, a1, a2, a3 = volume_expansion_check(wf.map)
    assert abs(a2 - 0.75 * tangential_energy(wf.map)) < 1e-9
    assert abs(a3 - signed_volume(wf.map)) < 1e-9
    # a field with nonzero radial first moment picks up the linear term
    u = poly_map(3, [scale(coordinate(3, i), 0.5) for i in range(3)])
    a0, a1, a2, a3 = volume_expansion_check(u)
    assert abs(a1 - 1.5) < 1e-10  # 3 * avg<w, x> = 3 * 0.5


def test_report_invariance_under_rotation(grid3, rng):
    w = random_h_field(3, 3, rng)
    u = identity_map(3) + w.scale(0.2 / np.sqrt(tangential_energy(w)))
    R = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    comps = [add(Poly(3), *(scale(u.components[j], R[i, j]) for j in range(3))) for i in range(3)]
    Ru = poly_map(3, comps)
    r1, r2 = deficit_report(u, grid3), deficit_report(Ru, grid3)
    for f in ("delta", "delta_isom", "epsilon", "dirichlet", "perimeter"):
        assert abs(getattr(r1, f) - getattr(r2, f)) < 1e-9
    assert abs(abs(r1.volume) - abs(r2.volume)) < 1e-9
    assert r1.combined is not None and abs(r1.combined - r2.combined) < 1e-9


def test_signed_volume_precomposition_covariance(grid3, rng):
    # V(u compose R) = det(R) V(u) for orthogonal R acting on the domain
    from spherestab.spheremap import callable_map

    w = random_h_field(3, 3, rng)
    u = identity_map(3) + w.scale(0.2)
    R = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    uR = callable_map(3, 3, lambda X: u.eval(X @ R.T), lambda X: u.at(X @ R.T)[1]() @ R)
    assert abs(signed_volume(uR, grid3) - np.linalg.det(R) * signed_volume(u)) < 1e-9


def test_moebius_flip_reverses_volume(grid3, rng):
    from spherestab.moebius import MoebiusMap, as_sphere_map, compose, random_moebius

    phi = random_moebius(rng, lam_range=(0.6, 1.8))
    flip = MoebiusMap(3, np.diag([1.0, 1.0, -1.0]), np.array([0.0, 0.0, 1.0]), 1.0)
    assert abs(signed_volume(as_sphere_map(phi), grid3) - 1.0) < 1e-6
    assert abs(signed_volume(as_sphere_map(compose(flip, phi)), grid3) + 1.0) < 1e-6


def test_report_norm_fields(grid3):
    rep = deficit_report(identity_map(3), grid3)
    assert rep.grad_lp_exponent == 2
    assert abs(rep.grad_lp_norm - np.sqrt(2.0)) < 1e-12
    rep4 = deficit_report(identity_map(4))
    assert rep4.grad_lp_exponent == 4
    assert abs(rep4.grad_lp_norm - 3.0 ** 0.5) < 1e-9


def _report_maps(rng):
    maps = []
    for n in (3, 4):
        for _ in range(2):
            w = random_h_field(n, 3, rng)
            maps.append(identity_map(n) + w.scale(0.3 / np.sqrt(tangential_energy(w))))
    maps.append(as_sphere_map(random_moebius(rng, lam_range=(0.5, 2.0))))
    return maps


def test_report_fields_equal_standalone_functionals(rng):
    from spherestab.quadrature import default_sphere_grid

    for u in _report_maps(rng):
        g = default_sphere_grid(u.n)
        rep = deficit_report(u, g)
        pairs = [
            (rep.volume, signed_volume(u, g)),
            (rep.dirichlet, dirichlet(u, g)),
            (rep.perimeter, perimeter(u, g)),
            (rep.delta, isometric_deficit(u, g)),
            (rep.epsilon, isoperimetric_deficit(u, g)),
            (rep.combined, combined_deficit(u, g)),
        ]
        for got, want in pairs:
            assert abs(got - want) <= 1e-12 * abs(want) + 1e-15, (u.n, got, want)


def test_principal_stretch_values_match_svd(rng):
    from spherestab.families import ellipsoid_family
    from spherestab.quadrature import default_sphere_grid
    from spherestab.spheremap import principal_stretch_values, tangential_jacobians

    maps = [m for m in _report_maps(rng) if m.is_poly]
    maps += [ellipsoid_family(s, n) for s in (0.05, 0.4) for n in (3, 4)]
    maps.append(linear_map(np.diag([1.0, 1.0, 0.0])))
    samples = [u.sample(default_sphere_grid(u.n))[::2] for u in maps]
    # n = 5, which has no grid: random unit points and Jacobians reach the eigvalsh branch
    X = rng.normal(size=(500, 5))
    samples.append((X / np.linalg.norm(X, axis=1, keepdims=True), rng.normal(size=(500, 5, 5))))
    for X, J in samples:
        s = principal_stretch_values(J, X)
        sv = np.linalg.svd(tangential_jacobians(J, X), compute_uv=False)[:, : X.shape[1] - 1][:, ::-1]
        assert s.shape == sv.shape
        assert np.max(np.abs(s - sv)) <= 1e-12 * np.max(sv)


def test_report_and_combined_sample_once(grid3, rng):
    from spherestab.spheremap import callable_map

    phi = as_sphere_map(random_moebius(rng, lam_range=(0.5, 2.0)))
    calls = {"value": 0, "jacobian": 0}

    def value(X):
        calls["value"] += 1
        return phi.eval(X)

    def jacobian(X):
        calls["jacobian"] += 1
        return phi.at(X)[1]()

    u = callable_map(3, 3, value, jacobian)
    for fn in (deficit_report, combined_deficit):
        calls.update(value=0, jacobian=0)
        fn(u, grid3)
        assert calls == {"value": 1, "jacobian": 1}, fn.__name__


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kernels_match_einsum_reference(n, rng):
    # the einsum forms are the definitions; the kernels contract by matmuls
    from spherestab.spheremap import (
        area_integrand,
        dirichlet_integrand,
        projectors,
        surface_divergence,
        tangential_jacobians,
        volume_integrand,
    )

    X = rng.normal(size=(50, n))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    J, U = rng.normal(size=(50, n, n)), rng.normal(size=(50, n))
    P = np.eye(n)[None] - np.einsum("ai,aj->aij", X, X)
    TJ = J - np.einsum("ail,al,ak->aik", J, X, X)
    G = np.einsum("aki,akj->aij", TJ, TJ) + np.einsum("ai,aj->aij", X, X)
    pairs = [
        (projectors(X), P),
        (tangential_jacobians(J, X), TJ),
        (tangential_jacobians(J[:, :2], X), TJ[:, :2]),
        (surface_divergence(J, X), np.einsum("aii->a", J) - np.einsum("ai,ail,al->a", X, J, X)),
        (volume_integrand(U, J, X), np.linalg.det(TJ + np.einsum("ai,aj->aij", U, X))),
        (area_integrand(J, X), np.sqrt(np.clip(np.linalg.det(G), 0.0, None))),
        (dirichlet_integrand(J, X), (np.einsum("aik,aik->a", TJ, TJ) / (n - 1)) ** ((n - 1) / 2.0)),
    ]
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_linear_kernels_give_the_same_bits_on_any_layout(n, rng):
    # a poly map's sample is a strided view of its monomial table: the linear
    # kernels round alike on it, on a C copy and on a Fortran copy
    from spherestab.quadrature import default_sphere_grid
    from spherestab.spheremap import surface_divergence, tangential_jacobians

    u, g = _near_identity(n, rng), default_sphere_grid(n)
    X, _, J = u.sample(g)
    assert not J.flags.c_contiguous
    for kernel in (tangential_jacobians, surface_divergence):
        want = kernel(J, X)
        assert np.array_equal(kernel(np.ascontiguousarray(J), X), want)
        assert np.array_equal(kernel(np.asfortranarray(J), X), want)


def _near_identity(n, rng, scale=0.3):
    w = random_h_field(n, 3, rng)
    return identity_map(n) + w.scale(scale / np.sqrt(tangential_energy(w)))


def _count_evaluate(monkeypatch):
    import spherestab.spheremap as sm

    calls = []
    real = sm.evaluate

    def counting(parts, points):
        calls.append(points)
        return real(parts, points)

    monkeypatch.setattr(sm, "evaluate", counting)
    return calls


def _blocks_cover_the_grid_once(points, g):
    """The blocks are consecutive runs of the grid's nodes, each node in exactly
    one, and every block but the last holds _BLOCK_NODES nodes."""
    import spherestab.spheremap as sm

    sizes = [len(P) for P in points]
    return (all(k == sm._BLOCK_NODES for k in sizes[:-1]) and 0 < sizes[-1] <= sm._BLOCK_NODES
            and np.array_equal(np.concatenate(points), g.nodes))


@pytest.mark.parametrize("n", [3, 4])
def test_poly_map_sampled_once_per_grid(n, rng, monkeypatch):
    # every node is evaluated exactly once, block by block: one block at n = 3,
    # 3 x 8 192 + 3 072 nodes at n = 4
    from spherestab.quadrature import default_sphere_grid

    u, g = _near_identity(n, rng), default_sphere_grid(n)
    calls = _count_evaluate(monkeypatch)
    rep = deficit_report(u, g)
    values = [dirichlet(u, g), perimeter(u, g), signed_volume(u, g), isometric_deficit(u, g),
              combined_deficit(u, g)]
    assert [len(P) for P in calls] == ([4608] if n == 3 else [8192, 8192, 8192, 3072])
    assert _blocks_cover_the_grid_once(calls, g)
    assert values == [rep.dirichlet, rep.perimeter, rep.volume, rep.delta, rep.combined]


@pytest.mark.parametrize("backing", ["poly", "sampled", "callable"])
@pytest.mark.parametrize("n", [3, 4])
def test_report_fields_are_integrals_of_the_public_kernels(n, backing, rng):
    # the streamed bundle integrates each density over the whole grid: every
    # field equals integrate() of the row-major kernels on one whole sample,
    # bit for bit, on the one-block n = 3 grid and the four-block n = 4 grid
    from spherestab.polynomials import _CHUNK
    from spherestab.quadrature import default_sphere_grid, integrate
    from spherestab.spheremap import (_BLOCK_NODES, area_integrand, callable_map, dirichlet_integrand,
                                      principal_stretch_values, sampled_map, tangential_jacobians,
                                      volume_integrand)

    assert _BLOCK_NODES % _CHUNK == 0
    p, g = _near_identity(n, rng), default_sphere_grid(n)
    u = {"poly": p, "sampled": sampled_map(g, *p.sample(g)[1:]),
         "callable": callable_map(n, n, p.eval, lambda X: p.at(X)[1]())}[backing]
    rep = deficit_report(u, g)
    X, U, J = u.sample(g)
    s = principal_stretch_values(J, X)
    top = s[:, -1] - 1.0
    assert rep.perimeter == integrate(g, area_integrand(J, X))
    assert rep.dirichlet == integrate(g, dirichlet_integrand(J, X))
    assert rep.volume == integrate(g, volume_integrand(U, J, X))
    assert rep.delta == np.sqrt(integrate(g, np.clip(top, 0.0, None) ** 2))
    assert rep.stretch_gap_norm == np.sqrt(integrate(g, top * top))
    assert rep.delta_isom == np.sqrt(integrate(g, np.sum((s - 1.0) ** 2, axis=1)))
    if n == 3:   # |grad_T u|^2 = 2 x the Dirichlet density, exactly
        assert rep.grad_lp_norm == integrate(g, 2.0 * dirichlet_integrand(J, X)) ** 0.5
    else:        # |grad_T u|^2 = |J P|^2 in another order of summation
        TJ = tangential_jacobians(J, X)
        want = integrate(g, np.sum(TJ * TJ, axis=(1, 2)) ** 2) ** 0.25
        assert abs(rep.grad_lp_norm - want) <= 1e-14 * want
    assert rep.unit_norm is False and rep.grad_lp_exponent == 2 * (n - 2)


def test_a_report_holds_under_100_bytes_per_node(rng):
    # the streamed bundle keeps its per-node temporaries to one block of nodes
    # and holds only the grid-length densities it integrates; before, one
    # report held the whole sample, the frame Jacobians, the forms and the
    # eigen-solve's temporaries, 384 bytes per node at this size
    import tracemalloc

    from spherestab.quadrature import sphere_grid

    u, g = _near_identity(4, rng), sphere_grid(4, 48)
    assert g.size == 221184
    tracemalloc.start()
    try:
        deficit_report(u, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100 * g.size, peak / g.size


def _fresh_volume(u, g):
    from spherestab.spheremap import volume_integrand

    X, U, J = u.sample(g)
    return float(g.weights @ volume_integrand(U, J, X))


def test_node_bundle_never_stale(grid3, rng, monkeypatch):
    from spherestab.quadrature import build_sphere_grid

    u, v = _near_identity(3, rng), _near_identity(3, rng)
    signed_volume(u, grid3)
    calls = _count_evaluate(monkeypatch)
    g2 = build_sphere_grid(3, 48)  # equal nodes, another grid object
    cases = [(u, g2), (v, grid3), (u.scale(2.0), grid3), (u, grid3)]
    for w, g in cases:
        before = len(calls)
        got = signed_volume(w, g)
        assert len(calls) == before + 1
        assert abs(got - _fresh_volume(w, g)) <= 1e-13 * abs(got)
    assert abs(signed_volume(u.scale(2.0), grid3) - 8.0 * signed_volume(u, grid3)) <= 1e-12 * 8.0


def test_node_bundle_does_not_keep_the_map_alive(grid3, rng):
    import gc
    import weakref

    u = _near_identity(3, rng)
    deficit_report(u, grid3)
    ref = weakref.ref(u)
    del u
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("n", [3, 4])
def test_callable_map_sampled_on_every_call(n, grid3, grid4, rng):
    # at n = 4 the bundle reads the one sample in four blocks
    from spherestab.spheremap import callable_map

    g = {3: grid3, 4: grid4}[n]
    phi = as_sphere_map(random_moebius(rng, n, lam_range=(0.5, 2.0)))
    calls = {"value": 0, "jacobian": 0}

    def value(X):
        calls["value"] += 1
        return phi.eval(X)

    def jacobian(X):
        calls["jacobian"] += 1
        return phi.at(X)[1]()

    u = callable_map(n, n, value, jacobian)
    fns = (deficit_report, combined_deficit, dirichlet, perimeter, signed_volume,
           isometric_deficit)
    for fn in fns + fns:
        calls.update(value=0, jacobian=0)
        fn(u, g)
        assert calls == {"value": 1, "jacobian": 1}, fn.__name__


def test_only_the_stretch_readers_solve_for_stretches(grid4, rng, monkeypatch):
    # perimeter, dirichlet, signed_volume and combined_deficit read no stretch
    # integral, so their bundles run no eigen-solve; a poly map bundled without
    # the stretches is bundled once more, block by block, when they are asked for
    import spherestab.spheremap as sm
    from spherestab.spheremap import callable_map

    solved, real = [], sm._stretches
    monkeypatch.setattr(sm, "_stretches", lambda G: solved.append(G.shape[-1]) or real(G))
    u = _near_identity(4, rng)
    phi = as_sphere_map(random_moebius(rng, 4, lam_range=(0.5, 2.0)))
    for w in (u, callable_map(4, 4, phi.eval, lambda X: phi.at(X)[1]())):
        for fn in (perimeter, dirichlet, signed_volume, combined_deficit):
            fn(w, grid4)
    assert solved == []
    v = _near_identity(4, rng)
    calls = _count_evaluate(monkeypatch)
    area = perimeter(v, grid4)
    delta = isometric_deficit(v, grid4)
    assert [perimeter(v, grid4), isometric_deficit(v, grid4)] == [area, delta]
    assert len(calls) == 8
    assert _blocks_cover_the_grid_once(calls[:4], grid4) and _blocks_cover_the_grid_once(calls[4:], grid4)
    assert solved == [len(P) for P in calls[4:]]
    rep = deficit_report(v, grid4)
    assert (rep.perimeter, rep.delta) == (area, delta)


def test_stretches_with_a_repeated_stretch_match_svd(rng, grid4):
    # every tangent space meets the b-eigenspace in two dimensions or more
    from spherestab.spheremap import principal_stretch_values, tangential_jacobians

    for a, b in ((1.3, 0.7), (0.5, 2.0), (1.0, 1.0 + 1e-9)):
        Q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        u = linear_map(Q @ np.diag([a, b, b, b]) @ Q.T)
        X, U, J = u.sample(grid4)
        s = principal_stretch_values(J, X)
        sv = np.linalg.svd(tangential_jacobians(J, X), compute_uv=False)[:, :3][:, ::-1]
        assert np.max(np.abs(s - sv)) <= 1e-12 * np.max(sv)


def _psd_stack(k, spectra, rng):
    """Node-last (k, k, N) stack Q diag(spectrum) Q^t over random orthogonal Q."""
    G = []
    for lam in spectra:
        Q = np.linalg.qr(rng.normal(size=(k, k)))[0]
        G.append((Q * lam) @ Q.T)
    return np.ascontiguousarray(np.moveaxis(np.array(G), 0, -1))


@pytest.mark.parametrize("k", [3, 4])
def test_jacobi_eigenvalues_match_eigvalsh(k, rng):
    from poly_oracle import JACOBI_SWEEPS, jacobi_eigenvalues

    spectra = [rng.uniform(0.0, 2.0, size=k) for _ in range(200)]
    spectra += [np.full(k, 1.3), np.r_[0.7, np.full(k - 1, 1.3)], np.r_[np.full(k - 1, 1.3), 0.7]]
    spectra += [np.r_[0.0, rng.uniform(0.5, 2.0, size=k - 1)], np.zeros(k), np.r_[1.0, 1.0, 2.0, 2.0][:k]]
    base = _psd_stack(k, spectra, rng)
    diagonal = np.zeros((k, k, 3))
    for j, lam in enumerate((np.arange(1.0, k + 1), np.full(k, 2.0), np.zeros(k))):
        diagonal[np.arange(k), np.arange(k), j] = lam
    # swept alongside the full forms, the diagonal ones meet d = b = 0
    mixed = np.concatenate([diagonal, base], axis=2)
    for G in (base, 1e-8 * base, 1e8 * base, diagonal, mixed):
        lam, sweeps = jacobi_eigenvalues(G)
        want = np.linalg.eigvalsh(np.moveaxis(G, -1, 0))
        norm = np.max(np.abs(want), axis=1, keepdims=True)
        assert lam.shape == want.shape
        assert np.all(np.abs(lam - want) <= 32 * np.finfo(float).eps * norm)
        assert sweeps < JACOBI_SWEEPS
    assert jacobi_eigenvalues(diagonal)[1] == 0
    assert jacobi_eigenvalues(base)[1] <= 6


def test_jacobi_raises_at_the_sweep_cap(rng, monkeypatch):
    from spherestab.errors import SolverError

    G = _psd_stack(3, [rng.uniform(0.5, 2.0, size=3) for _ in range(20)], rng)
    monkeypatch.setattr(oracle, "JACOBI_SWEEPS", 1)
    with pytest.raises(SolverError, match="did not converge in 1 sweeps"):
        oracle.jacobi_eigenvalues(G)


@pytest.mark.parametrize("diagonal", [True, False])
def test_jacobi_keeps_a_nan_form_nan(diagonal, rng):
    # with diagonal forms elsewhere no sweep runs, so no rotation spreads the NaN
    from poly_oracle import jacobi_eigenvalues

    spectra = [rng.uniform(0.5, 2.0, size=3) for _ in range(4)]
    G = np.stack([np.diag(lam) for lam in spectra], axis=-1) if diagonal else _psd_stack(3, spectra, rng)
    want = jacobi_eigenvalues(G)[0]
    G[0, 1, 2] = G[1, 0, 2] = np.nan
    lam = jacobi_eigenvalues(G)[0]
    assert np.all(np.isnan(lam[2]))
    assert np.array_equal(np.delete(lam, 2, axis=0), np.delete(want, 2, axis=0))


def test_closed_form_3x3_matches_eigvalsh_and_jacobi(rng):
    from poly_oracle import jacobi_eigenvalues
    from spherestab.spheremap import _eigenvalues_3x3

    spectra = [rng.uniform(0.0, 2.0, size=3) for _ in range(200)]
    spectra += [np.full(3, 1.3), np.zeros(3), np.array([0.7, 1.3, 1.3]), np.array([0.7, 0.7, 1.3])]  # triple, double
    spectra += [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.8, 1.7]), np.array([0.0, 1.0, 1.0])]     # zeros
    spectra += [np.array([1.0, 1.0 + 1e-9, 1.0 + 1e-9]), np.array([1.0, 1.0, 1.0 + 1e-9])]
    spectra += [np.array([1.0, 1.0 + t, 1.0 + t]) for t in 10.0 ** -np.arange(1, 16)]
    base = _psd_stack(3, spectra, rng)
    diagonal = np.zeros((3, 3, 4))
    for j, lam in enumerate(([1.0, 2.0, 3.0], [3.0, 2.0, 2.0], [2.0, 2.0, 2.0], [0.0, 0.0, 0.0])):
        diagonal[np.arange(3), np.arange(3), j] = lam
    eps = np.finfo(float).eps
    for G in (base, 1e-8 * base, 1e8 * base, diagonal):
        lam = _eigenvalues_3x3(G).T
        want = np.linalg.eigvalsh(np.moveaxis(G, -1, 0))
        norm = np.max(np.abs(want), axis=1, keepdims=True)
        assert lam.shape == want.shape
        assert np.all(np.diff(lam, axis=1) >= 0.0)
        assert np.all(np.abs(lam - want) <= 32 * eps * norm)
        assert np.all(np.abs(lam - jacobi_eigenvalues(G)[0]) <= 32 * eps * norm)
    # exactly diagonal forms, zero and repeated eigenvalues included, come out exact
    assert np.array_equal(_eigenvalues_3x3(diagonal[:, :, 2:]).T, [[2.0, 2.0, 2.0], [0.0, 0.0, 0.0]])


def test_closed_form_3x3_keeps_a_nan_form_nan(rng):
    from spherestab.spheremap import _eigenvalues_3x3

    G = _psd_stack(3, [rng.uniform(0.5, 2.0, size=3) for _ in range(5)], rng)
    want = _eigenvalues_3x3(G)
    G[0, 1, 2] = G[1, 0, 2] = np.nan
    lam = _eigenvalues_3x3(G)
    assert np.all(np.isnan(lam[:, 2]))
    assert np.array_equal(np.delete(lam, 2, axis=1), np.delete(want, 2, axis=1))


@pytest.mark.parametrize("n", [3, 4])
def test_poly_node_bundle_runs_no_eigvalsh_and_copies_no_sample(n, rng, monkeypatch):
    # one `at` per block of nodes, every node in exactly one, whose transposes
    # are the contiguous rows of the block's monomial table: the bundle works
    # node-last on them without a copy, and takes no whole-grid sample
    import spherestab.spheremap as sm
    from spherestab.quadrature import default_sphere_grid

    calls, points = [], []
    eigvalsh, sample, at = np.linalg.eigvalsh, sm.SphereMap.sample, sm.SphereMap.at

    def spy(u, P):
        U, jac = at(u, P)
        J = jac()
        points.append(P)
        calls.append(("at", U.T.flags.c_contiguous and J.transpose(1, 2, 0).flags.c_contiguous))
        return U, lambda: J

    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: calls.append("eigvalsh") or eigvalsh(*a))
    monkeypatch.setattr(sm.SphereMap, "sample", lambda *a: calls.append("sample") or sample(*a))
    monkeypatch.setattr(sm.SphereMap, "at", spy)
    u, g = _near_identity(n, rng), default_sphere_grid(n)
    rep = deficit_report(u, g)
    assert rep.delta_isom > 0.0
    assert calls == [("at", True)] * len(points)
    assert _blocks_cover_the_grid_once(points, g)


@pytest.mark.parametrize("n", [3, 4])
def test_volume_density_minors_from_row_views(n, rng):
    # the minors take the rows of A as views: the density is bit-identical to
    # the one from fancy-indexed copies of the rows
    from spherestab.spheremap import _det, _volume_density

    N = 1000
    U, A, s = rng.normal(size=(n, N)), rng.normal(size=(n, n - 1, N)), np.sign(rng.normal(size=N))
    want = np.zeros(N)
    for i in range(n):
        minor = _det(A[[r for r in range(n) if r != i]])
        want += minor * U[i] if (n - 1 - i) % 2 == 0 else -minor * U[i]
    assert np.array_equal(_volume_density(U, A, s), want * s)
