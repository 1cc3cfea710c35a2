"""Poly maps hold one representation, their coefficient stack.

The stack routes are held to the Poly-component routes of
:mod:`poly_oracle` (bit for bit, except where a sum runs in another order),
and a guard holds Poly to its serialization surface while it runs the
exact paths.
"""

import numpy as np
import pytest

import poly_oracle as oracle
from spherestab.harmonics import analyze, grad_origin, synthesize
from spherestab.homogeneous import Stack
from spherestab.moebius import _psi_moments, _psi_tables
from spherestab.polynomials import Poly, exps
from spherestab.quadrature import build_sphere_grid
from spherestab.spheremap import identity_map, linear_map, poly_map

# sums taken in another order than the Poly route, relative to the L2 norm
# of the field: grad_origin and the divergence moments pair a block with
# gram_rect(n, d, 1), not x_j times it with the moments of degree d + 1
REORDERED = 1e-15


def _field(rng, n, degrees):
    return poly_map(n, [Poly.from_blocks(n, {d: rng.normal(size=len(exps(n, d))) for d in degrees})
                        for _ in range(n)])


def _fields(rng, n, count=6):
    """Fields of mixed degrees <= 6, then a copy of the last one whose first
    component lacks the top-degree block."""
    out = [_field(rng, n, sorted(rng.choice(7, size=rng.integers(1, 5), replace=False).tolist()))
           for _ in range(count)]
    f = list(out[-1].components)
    top = oracle.degree(f[0])
    f[0] = Poly.from_blocks(n, {d: v for d, v in f[0].blocks.items() if d != top})
    out.append(poly_map(n, f))
    return out


def _points(rng, n, count=300):
    X = rng.normal(size=(count, n))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def _same(got, want):
    """Equal Poly components: the same nonzero degree blocks, bit for bit."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert set(a.blocks) == set(b.blocks), (set(a.blocks), set(b.blocks))
        for d in a.blocks:
            assert np.array_equal(a.blocks[d], b.blocks[d]), d


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stack_holds_the_components(n, rng):
    for u in _fields(rng, n):
        f = u.components
        assert all(C.any() for C in u.stack.blocks.values())
        assert u.degree() == max(oracle.degree(c) for c in f)
        _same(poly_map(n, f).components, f)
        for d, C in u.stack.blocks.items():
            assert all(np.shares_memory(c.blocks[d], C) for c in f if d in c.blocks)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sampling_matches_the_component_route(n, rng):
    X = _points(rng, n)
    g = build_sphere_grid(n, 8)
    for u in _fields(rng, n):
        f = u.components
        U, J = oracle.sample(f, X)
        V, jac = u.at(X)
        Ug, Jg = oracle.sample(f, g.nodes)
        _, Vg, Kg = u.sample(g)
        assert u.eval(X).flags.c_contiguous and np.array_equal(u.eval(X), U)
        # row-major views of one node-last monomial table, whose rows are contiguous
        for (got_U, got_J), (want_U, want_J) in [((V, jac()), (U, J)), ((Vg, Kg), (Ug, Jg))]:
            assert np.array_equal(got_U, want_U) and np.array_equal(got_J, want_J)
            assert got_U.base is got_J.base
            assert got_U.T.flags.c_contiguous and got_J.transpose(1, 2, 0).flags.c_contiguous


@pytest.mark.parametrize("n", [2, 3, 4])
def test_map_algebra_matches_the_component_route(n, rng):
    fields = _fields(rng, n)
    for u, v in zip(fields, fields[1:]):
        a = float(rng.normal())
        _same((u + v).components, oracle.field_add(u.components, v.components))
        _same(u.scale(a).components, oracle.field_scale(u.components, a))
        _same((u + u.scale(-1.0)).components, [Poly(n)] * n)
    A = rng.normal(size=(n + 1, n))
    A[0, 1 % n] = 0.0
    _same(linear_map(A).components, oracle.linear_map(A))
    _same(identity_map(n).components, [oracle.coordinate(n, i) for i in range(n)])
    with pytest.raises(ValueError, match="one shape"):
        identity_map(n) + linear_map(A)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_harmonic_routes_match_the_component_route(n, rng):
    for u in _fields(rng, n):
        f, kmax = u.components, u.degree()
        e, want = analyze(u, kmax), oracle.analyze(f, kmax)
        assert set(e.blocks) == set(want)
        assert all(np.array_equal(e.blocks[k], want[k]) for k in want)
        _same(synthesize(e).components, oracle.synthesize(n, want))
        tol = REORDERED * np.sqrt(oracle.field_pair(f, f))
        assert np.max(np.abs(grad_origin(u) - oracle.grad_origin(f))) <= tol


def test_moebius_tables_match_the_component_route():
    g = build_sphere_grid(3, 12)
    L, B = _psi_moments(g)
    want_vals, want_dcoef = oracle.psi_tables(g)
    assert np.array_equal(B, g.weights * np.vstack([g.nodes.T, want_vals]))
    # L on the moments P[b, i] = avg B_b v^i (b-major): three skew pairs, then avg (div v_h) x_l
    L = L.reshape(6, 8, 3)
    skew = np.zeros((3, 8, 3))
    for p, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)]):
        skew[p, j, i], skew[p, i, j] = 1.0, -1.0
    assert np.array_equal(L[:3], skew) and not L[3:, :3].any()
    assert np.array_equal(L[3:, 3:], want_dcoef.transpose(2, 1, 0) / 3)


def test_exact_routes_never_reach_poly_algebra(grid3, rng):
    from spherestab.deficits import bulk_volume, deficit_report
    from spherestab.forms import coercivity_ratio, q_n, tangential_energy
    from spherestab.moebius import gauge_fix
    from spherestab.operator import apply_A, project_kernel, random_h_field

    w = random_h_field(3, 4, rng)
    u = identity_map(3) + w.scale(0.05 / np.sqrt(tangential_energy(w)))
    v = _field(rng, 4, [0, 1, 2, 5])
    _psi_tables.cache_clear()

    # Poly is a serialization view: it carries no algebra for an exact route to reach
    plumbing = {"__module__", "__qualname__", "__doc__", "__slots__", "__firstlineno__", "__static_attributes__"}
    assert Poly.__bases__ == (object,) and Poly.__slots__ == ("n", "blocks")
    assert set(vars(Poly)) - plumbing == {"n", "blocks", "__init__", "from_blocks", "coeffs", "__call__", "__repr__"}
    deficit_report(u, grid3)
    bulk_volume(u)
    q_n(w)
    coercivity_ratio(w)
    apply_A(v)
    project_kernel(v)
    gauge_fix(u, grid3)
    synthesize(analyze(v, v.degree()))
    grad_origin(v)
    assert isinstance(u.stack, Stack)
