"""Coefficient stacks against the Poly-algebra oracle, and the tables they rest on."""

import numpy as np
import pytest

import poly_oracle as oracle
from spherestab.forms import (
    _pjp_energy,
    _sym_energy,
    mixed_div_term,
    q_vol,
    surface_div_sq,
    tangential_energy,
)
from spherestab.harmonics import _laplacian, poincare_deficit
from spherestab.homogeneous import Stack, a_gram, div_gram, energy_gram, sym_gram
from spherestab.moebius import _poly_tangential_mean
from spherestab.moments import sphere_moment
from spherestab.operator import (
    EigenField,
    apply_A,
    eigenspaces,
    project_h_n,
    project_kernel,
)
from spherestab.polynomials import Poly, _moments, exps, grad_index, xdot
from spherestab.spheremap import poly_map

REL = 1e-12


def _random_field(rng, n, degrees):
    return poly_map(n, [Poly.from_blocks(n, {d: rng.normal(size=len(exps(n, d))) for d in degrees})
                        for _ in range(n)])


def _fields(rng, n, count=6):
    """Mixed-degree fields in degrees 0..6; the first ones always carry a constant
    and a linear block, so the mean and the radial moment are nonzero."""
    out = []
    for j in range(count):
        degrees = set(rng.choice(7, size=rng.integers(1, 5), replace=False).tolist())
        if j < count // 2:
            degrees |= {0, 1}
        out.append(_random_field(rng, n, sorted(degrees)))
    return out


def _norm(f):
    return np.sqrt(oracle.field_pair(f, f))


def _close(got, want, scale):
    assert abs(got - want) <= REL * scale, (got, want, scale)


def _close_polys(got, want):
    scale = max((np.max(np.abs(v)) for c in want for v in c.blocks.values()), default=0.0)
    for a, b in zip(got, want):
        for d in set(a.blocks) | set(b.blocks):
            diff = np.max(np.abs(a.blocks.get(d, 0.0) - b.blocks.get(d, 0.0)))
            assert diff <= REL * scale, (d, diff, scale)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_forms_match_the_poly_oracle(n, rng):
    fields = _fields(rng, n)
    for u, v in zip(fields, fields[1:] + fields[:1]):
        f, g = u.components, v.components
        te = oracle.tangential_energy(f)
        d2 = oracle.surface_div_sq(f)
        _close(tangential_energy(u), te, te)
        _close(surface_div_sq(u), d2, d2)
        _close(_pjp_energy(u), oracle.pjp_energy(f), oracle.pjp_energy(f))
        _close(_sym_energy(u), oracle.sym_energy(f), oracle.sym_energy(f))
        # pairings: relative to the Cauchy-Schwarz bound of the integrand
        _close(q_vol(v, u), oracle.q_vol(g, f), 0.5 * n * _norm(g) * _norm(oracle.field_a_operator(f)))
        r = oracle.field_inner_x(f)
        rr = oracle.pair(r, r)
        _close(q_vol(u, u), oracle.q_vol_alt(f),
               0.5 * n * (2.0 * np.sqrt(d2 * rr) + n * rr + _norm(f) ** 2))
        _close(mixed_div_term(EigenField(u, n, 1, 1), EigenField(v, n, 1, 1)), oracle.mixed_div_term(f, g),
               np.sqrt(d2 * oracle.surface_div_sq(g)))
        _close(poincare_deficit(u), oracle.poincare_deficit(f), te / (n - 1) + _norm(f) ** 2)
        M, want = _poly_tangential_mean(u), oracle.rotation_moment(f)
        assert np.max(np.abs(M - want)) <= REL * np.max(np.abs(want))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_operators_match_the_poly_oracle(n, rng):
    removed = []
    for u in _fields(rng, n):
        f = u.components
        _close_polys(apply_A(u).components, oracle.field_a_operator(f))
        projected = project_h_n(u)
        removed.append(min(abs(oracle.sphere_integral(oracle.field_inner_x(f))), np.min(np.abs(oracle.field_mean(f)))))
        _close_polys(projected.components, oracle.project_h_n(f))
        _close_polys(project_kernel(u).components, oracle.project_kernel(f))
    assert max(removed) > 0.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_coefficient_matrix_is_A_on_any_homogeneous_block(n, rng):
    # harmonic or not: (A w)_i = (div w) x_i - sum_j x_j d_i w^j holds as polynomials
    for d in range(1, 7):
        M = len(exps(n, d))
        C = rng.normal(size=(n, M))
        want = oracle.field_a_operator([Poly.from_blocks(n, {d: c}) for c in C])
        assert all(set(c.blocks) <= {d} for c in want)
        got = (oracle.a_coefficient_matrix(n, d) @ C.ravel()).reshape(n, M)
        ref = np.array([c.blocks.get(d, np.zeros(M)) for c in want])
        assert np.max(np.abs(got - ref)) <= REL * np.max(np.abs(ref))


def test_kernel_gram_matches_the_pairwise_poly_loop():
    # the bilinear forms between different fields of one batch, as in check_kernel_intersection
    n = 3
    maps = [poly_map(n, [oracle.constant(n, 1.0 if j == i else 0.0) for j in range(n)]) for i in range(n)]
    for k in (1, 2, 3):
        for S in eigenspaces(n, k):
            maps.extend(S.element(e) for e in np.eye(S.dim)[:4])
    B = Stack.of([m.components for m in maps])
    got = {"sym": sym_gram(B, B), "energy": energy_gram(B, B), "div": div_gram(B, B), "a": a_gram(B, B)}
    pre = [{"f": f, "sym": oracle.field_pjp_sym(f), "div": oracle.field_surface_div(f),
            "a": oracle.field_a_operator(f), "diffs": [[oracle.diff(c, l) for l in range(n)] for c in f],
            "eulers": [oracle.euler(c) for c in f]} for f in (m.components for m in maps)]
    for a, pa in enumerate(pre):
        for b, pb in enumerate(pre):
            want = {
                "sym": oracle.matrix_frobenius_pair(pa["sym"], pb["sym"]),
                "energy": sum(oracle.pair(pa["diffs"][i][l], pb["diffs"][i][l]) for i in range(n) for l in range(n))
                - sum(oracle.pair(pa["eulers"][i], pb["eulers"][i]) for i in range(n)),
                "div": oracle.pair(pa["div"], pb["div"]),
                "a": oracle.field_pair(pa["f"], pb["a"]),
            }
            for key, w in want.items():
                assert abs(got[key][a, b] - w) <= REL * max(1.0, abs(w)), (key, a, b)


def test_moment_tables_are_the_exact_fractions_bit_for_bit():
    for n, kmax in ((2, 30), (3, 48), (4, 24), (5, 16)):
        for k in range(kmax + 1):
            want = np.array([float(sphere_moment(n, e)) for e in exps(n, k)])
            assert _moments(n, k).tobytes() == want.tobytes(), (n, k)


def test_gradient_and_x_index_maps_follow_the_monomial_rules():
    for n in range(2, 6):
        for k in range(7):
            pos = {e: c for c, e in enumerate(exps(n, k))}
            pos_up = {e: c for c, e in enumerate(exps(n, k + 1))}
            M = len(pos)
            # unit stacks: field (i, c) has the monomial exps(n, k)[c] in component i
            X = xdot(np.eye(n * M).reshape(n * M, n, M), n, k)
            for i in range(n):
                for c, e in enumerate(exps(n, k)):
                    want = np.zeros(len(pos_up))
                    want[pos_up[tuple(p + (j == i) for j, p in enumerate(e))]] = 1.0
                    assert np.array_equal(X[i * M + c], want), (n, k, i, e)
            if k:
                src, coef = (a.reshape(n, -1) for a in grad_index(n, k))
                for l in range(n):
                    for q, e in enumerate(exps(n, k - 1)):
                        assert src[l, q] == pos[tuple(p + (j == l) for j, p in enumerate(e))], (n, k, l, e)
                        assert coef[l, q] == e[l] + 1


def test_xdot_equals_the_dense_product_to_a_few_ulps(rng):
    # the scatter adds the n terms of an entry in coordinate order, BLAS in its own
    for n in range(2, 6):
        for d in range(9):
            M = len(exps(n, d))
            for lead in ((), (3,), (2, n)):
                W = rng.normal(size=(*lead, n, M)) * 10.0 ** rng.integers(-4, 4, (*lead, n, 1))
                X = oracle.xdot_matrix(n, d)
                want = W.reshape(*lead, n * M) @ X.T
                scale = np.abs(W).reshape(*lead, n * M) @ X.T
                got = xdot(W, n, d)
                assert got.shape == want.shape
                assert np.all(np.abs(got - want) <= 2 * (n - 1) * np.finfo(float).eps * scale), (n, d, lead)
            with pytest.raises(ValueError, match="components"):
                xdot(np.ones((n + 1, M)), n, d)        # a component past n is refused, not dropped


def test_laplacian_equals_the_dense_product_bit_for_bit():
    for n, kmax in ((2, 20), (3, 14), (4, 11), (5, 8)):
        for k in range(2, kmax + 1):
            want = sum(oracle.diff_matrix(n, k - 1, i) @ oracle.diff_matrix(n, k, i) for i in range(n))
            assert _laplacian(n, k).tobytes() == want.tobytes(), (n, k)


def test_jacobian_gather_equals_the_gradient_matrix_product(rng):
    # one nonzero per row of grad_matrix, so the gather rounds exactly as the matmul
    for n in range(2, 6):
        for d in range(1, 9 if n <= 3 else 6):
            for size, width in ((1, n), (3, n), (2, 1)):
                C = rng.normal(size=(size, width, len(exps(n, d)))) * 10.0 ** rng.integers(-8, 8, (size, width, 1))
                C[rng.random(C.shape) < 0.3] = 0.0
                want = (C @ oracle.grad_matrix(n, d).T).reshape(size, width * n, -1)
                assert np.array_equal(Stack(n, size, width, {d: C}).jac[d - 1], want), (n, d, size, width)


def test_zero_block_pruning_keeps_nan_and_drops_signed_zero():
    nan = Poly(3, {(1, 0, 0): float("nan")})
    assert list(nan.blocks) == [1] and np.isnan(nan.blocks[1]).any()
    assert list(Poly.from_blocks(3, {2: np.array([0.0] * 5 + [np.nan])}).blocks) == [2]
    assert Poly(3, {(1, 0, 0): -0.0, (0, 2, 0): 0.0}).blocks == {}
    assert Poly.from_blocks(3, {0: np.array([-0.0]), 1: np.array([0.0, -0.0, 0.0])}).blocks == {}
    p = Poly(2, {(1, 0): 1.0})
    assert oracle.sub(p, p).blocks == {} and oracle.add(p, oracle.scale(p, -1.0)).blocks == {}


def test_a_is_applied_once_per_stack(rng):
    # the spectrum ratio check takes q_vol(w, w) and q_n(w), which pairs w with A w again
    from spherestab.forms import q_n
    from spherestab.operator import random_eigenfield

    w = random_eigenfield(3, 3, 2, rng).map
    q_vol(w, w)
    Aw = w.stack.a_field
    q_n(w, project=False)
    assert w.stack.a_field is Aw
    assert all(apply_A(w).stack.blocks[d] is C for d, C in Aw.blocks.items())


def test_the_exact_algebra_path_builds_no_exponent_tuples(rng):
    # with every cache from the monomial spaces up to the spectrum cleared, one
    # block's spectrum, A and the forms of one eigenfield run in full on the
    # exponent arrays; the tuple view exps is never built
    import spherestab.harmonics as harmonics
    import spherestab.operator as operator
    import spherestab.polynomials as polynomials
    from spherestab.forms import q_n

    for module in (polynomials, harmonics, operator):
        for f in vars(module).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()
    assert not polynomials.table_cache.entries      # the loop reached the one table cache
    eigenspaces(3, 8)
    operator.a_matrix(3, 8)
    w = operator.random_eigenfield(3, 8, 2, rng).map
    tangential_energy(w), q_vol(w, w), surface_div_sq(w), q_n(w, project=False)
    assert polynomials._exponents.cache_info().misses > 0
    assert polynomials.exps.cache_info().misses == 0
