"""Exact constant tables and the quadratic forms they diagonalize."""

from fractions import Fraction as F

import numpy as np
import pytest

from spherestab.constants import (
    C_prime_ratio,
    C_ratio,
    C_tilde_ratio,
    alpha_ratio,
    c_ratio,
    min_constant,
    valid_rows,
)
from spherestab.errors import IntegrityError
from spherestab.forms import (
    coercivity_ratio,
    korn_residual,
    mixed_div_term,
    mixed_term_allowed,
    q_conf,
    q_isom,
    q_isop,
    q_n,
    q_vol,
    surface_div_sq,
    tangential_energy,
)
from spherestab.operator import random_eigenfield, random_h_field
from spherestab.polynomials import Poly
from spherestab.spheremap import linear_map, poly_map

import poly_oracle as oracle
from poly_oracle import add, constant, coordinate, mul, zero

ROT_GEN = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


# ---------------------------------------------------------------------------
# rational tables
# ---------------------------------------------------------------------------

def test_n3_closed_forms():
    for k in range(1, 10):
        assert c_ratio(3, k, 1) == F(-3, 2 * (k + 1))
        assert c_ratio(3, k, 2) == F(3, 2 * k * (k + 1))
        assert C_ratio(3, k, 1) == F(3 * (k + 3), 4 * (k + 1))
        assert C_ratio(3, k, 2) == F(3 * (k - 1) * (k + 2), 4 * k * (k + 1))
        if k >= 2:
            assert c_ratio(3, k, 3) == F(3, 2 * k)
            assert C_ratio(3, k, 3) == F(3 * (k - 2), 4 * k)


def test_table_landmarks():
    assert c_ratio(3, 1, 1) == F(-3, 4)
    assert C_ratio(3, 3, 3) == F(1, 4)
    assert C_ratio(3, 1, 2) == 0 and C_ratio(3, 2, 3) == 0
    assert C_ratio(4, 2, 3) == 0
    assert C_prime_ratio(3, 2, 2) == C_ratio(3, 2, 2) == F(1, 2)
    assert C_ratio(3, 1, 1) == F(3, 2)


def test_general_n_closed_forms():
    for n in (3, 4, 5):
        for k in range(1, 8):
            assert c_ratio(n, k, 1) == F(-n, 2 * (k + n - 2))
            assert alpha_ratio(n, k, 1) == F(k * (k + 1), (k + n - 2) * (2 * k + n))
            assert alpha_ratio(n, k, 2) == 0
            assert C_ratio(n, k, 2) == F(n, 2) * F((k - 1) * (k + n - 1), (n - 1) * k * (k + n - 2))
            if k >= 2:
                assert c_ratio(n, k, 3) == F(n, 2 * k)
                assert alpha_ratio(n, k, 3) == F((k + n - 2) * (k + n - 3), k * (2 * k + n - 4))
                assert C_ratio(n, k, 3) == F(
                    n * (k - 2) * ((3 * n - 5) * k + (n * n - 6 * n + 7)),
                    2 * (n - 1) ** 2 * k * (2 * k + n - 4),
                )


def test_prime_constants_ordering():
    for n in (4, 5):
        for k in range(2, 8):
            assert C_prime_ratio(n, k, 1) > C_ratio(n, k, 1)
            assert C_prime_ratio(n, k, 2) == C_ratio(n, k, 2)
            assert C_prime_ratio(n, k, 3) > C_ratio(n, k, 3)


def test_tilde_constants():
    # n = 3: the cross-term correction carries the factor n - 3 and vanishes
    for k in range(3, 12):
        assert C_tilde_ratio(3, k, 1) == C_ratio(3, k, 1)
        assert C_tilde_ratio(3, k, 3) == C_ratio(3, k, 3)
    for n in (4, 5):
        for (k, i) in valid_rows(200):
            assert C_tilde_ratio(n, k, i) > 0
        lim = F(n, 2 * (n - 1))
        for i in (1, 2, 3):
            assert abs(float(C_tilde_ratio(n, 10**7, i) - lim)) < 1e-5


def test_min_constant_sharp():
    m = min_constant(3, 200)
    assert m.value == F(1, 4)
    assert m.argmin == (3, 3)
    assert m.limit == F(3, 4)
    for n in (4, 5):
        m = min_constant(n, 200)
        assert m.value > 0
        assert m.limit == F(n, 2 * (n - 1))
        assert m.tail_monotone


def test_invalid_rows():
    with pytest.raises(ValueError):
        c_ratio(3, 1, 3)
    with pytest.raises(ValueError):
        C_tilde_ratio(4, 2, 3)
    with pytest.raises(ValueError):
        min_constant(3, 5)


# ---------------------------------------------------------------------------
# forms on fields
# ---------------------------------------------------------------------------

def test_q_vol_rotation_generator():
    w = linear_map(ROT_GEN)
    assert abs(q_vol(w, w) - 1.0) < 1e-12
    assert abs(oracle.q_vol_alt(w.components) - 1.0) < 1e-12


def test_q_vol_symmetry(rng):
    v = random_h_field(3, 3, rng)
    w = random_h_field(3, 3, rng)
    assert abs(q_vol(v, w) - q_vol(w, v)) < 1e-9


def test_q_vol_dimension_guard():
    with pytest.raises(ValueError):
        q_vol(poly_map(3, [coordinate(3, 0)]), linear_map(np.eye(3)))


@pytest.mark.parametrize("n", [3, 4])
def test_measured_ratios_match_tables(n, rng):
    for k in range(1, 7):
        for i in (1, 2, 3):
            if i == 3 and k < 2:
                continue
            try:
                ef = random_eigenfield(n, k, i, rng)
            except ValueError:
                continue
            e = tangential_energy(ef.map)
            assert abs(q_vol(ef.map, ef.map) / e - float(c_ratio(n, k, i))) < 1e-9
            assert abs(surface_div_sq(ef.map) / e - float(alpha_ratio(n, k, i))) < 1e-9
            assert abs(q_n(ef.map, project=False) / e - float(C_ratio(n, k, i))) < 1e-9
            q_prime = n / (n - 1) * q_isom(ef.map) + q_isop(ef.map)
            assert abs(q_prime / e - float(C_prime_ratio(n, k, i))) < 1e-9


def test_q_vol_cross_eigenspace_orthogonality(rng):
    a = random_eigenfield(3, 2, 1, rng).map
    b = random_eigenfield(3, 4, 3, rng).map
    assert abs(q_vol(a, b)) < 1e-9
    c = random_eigenfield(3, 2, 2, rng).map
    assert abs(q_vol(a, c)) < 1e-9


def test_q_n_kernel_rows(rng):
    assert abs(q_n(random_eigenfield(3, 1, 2, rng).map, project=False)) < 1e-10
    assert abs(q_n(random_eigenfield(3, 2, 3, rng).map, project=False)) < 1e-10
    assert abs(q_n(random_eigenfield(4, 2, 3, rng).map, project=False)) < 1e-10


def test_q_n_sharp_row(rng):
    ef = random_eigenfield(3, 3, 3, rng)
    e = tangential_energy(ef.map)
    assert abs(q_n(ef.map, project=False) / e - 0.25) < 1e-9


def test_q_conf_kernel_radial_fields():
    phi = Poly(3, {(1, 1, 0): 1.0})
    w = poly_map(3, [mul(phi, coordinate(3, i)) for i in range(3)])
    assert abs(q_conf(w)) < 1e-10


def test_q_isop_kernel_tangential_fields(rng):
    for k in (2, 3):
        assert abs(q_isop(random_eigenfield(3, k, 2, rng).map)) < 1e-10


def test_q_isom_kernel_and_alpha(rng):
    w = linear_map(ROT_GEN)
    assert abs(q_isom(w)) < 1e-12
    shifted = poly_map(3, [add(c, constant(3, 0.7)) for c in w.components])
    for alpha in (0.5, 1.0, 3.0):
        assert abs(alpha * q_isom(shifted) + q_isop(shifted)) < 1e-10


def test_decomposition_and_nonnegativity(rng):
    for n in (3, 4):
        for _ in range(4):
            w = random_h_field(n, 4, rng)
            qc, qi, qq = q_conf(w), q_isop(w), q_n(w, project=False)
            assert abs(qc + qi - qq) < 1e-9
            assert qc >= -1e-10 and qi >= -1e-10 and qq >= -1e-9


def test_forms_translation_invariance(rng):
    for n in (3, 4):
        w = random_h_field(n, 3, rng)
        b = rng.normal(size=n)
        shifted = poly_map(n, [add(c, constant(n, b[i])) for i, c in enumerate(w.components)])
        assert abs(q_conf(shifted) - q_conf(w)) < 1e-10
        assert abs(q_isop(shifted) - q_isop(w)) < 1e-10
        assert abs(q_isom(shifted) - q_isom(w)) < 1e-10


@pytest.mark.parametrize("n", [3, 4])
def test_korn_identity(n, rng):
    from spherestab.homogeneous import exps

    for _ in range(5):
        comps = []
        for _ in range(n):
            coeffs = {}
            for d in range(4):
                for e in exps(n, d):
                    coeffs[e] = 0.3 * rng.normal()
            comps.append(Poly(n, coeffs))
        u = poly_map(n, comps)
        assert korn_residual(u) < 1e-10
    assert korn_residual(poly_map(n, [zero(n)] * n)) == 0.0


def test_mixed_term_pattern(rng):
    # eig2 fields are divergence free
    a = random_eigenfield(4, 2, 2, rng)
    b = random_eigenfield(4, 4, 1, rng)
    assert abs(mixed_div_term(a, b)) < 1e-9
    # the extra vanishing pair (2,3)-(4,1)
    a = random_eigenfield(4, 2, 3, rng)
    assert abs(mixed_div_term(a, b)) < 1e-9
    # a permitted pair is generically nonzero
    a = random_eigenfield(4, 1, 1, rng)
    c = random_eigenfield(4, 3, 3, rng)
    assert abs(mixed_div_term(a, c)) > 1e-6
    assert mixed_term_allowed(1, 1, 3, 3)
    assert mixed_term_allowed(3, 3, 5, 1)
    assert not mixed_term_allowed(2, 3, 4, 1)
    assert not mixed_term_allowed(1, 1, 4, 3)
    assert not mixed_term_allowed(2, 1, 3, 3)
    with pytest.raises(TypeError):
        mixed_div_term(a.map, c.map)


def test_coercivity_examples(rng):
    assert abs(coercivity_ratio(random_eigenfield(3, 3, 3, rng).map) - 0.25) < 1e-9
    assert abs(coercivity_ratio(random_eigenfield(3, 1, 1, rng).map) - 1.5) < 1e-9
    mix = random_eigenfield(3, 3, 3, rng).map + random_eigenfield(3, 1, 2, rng).map \
        + random_eigenfield(3, 2, 3, rng).map
    assert abs(coercivity_ratio(mix) - 0.25) < 1e-9


def test_coercivity_kernel_raises(rng):
    with pytest.raises(IntegrityError):
        coercivity_ratio(random_eigenfield(3, 1, 2, rng).map)


def test_coercivity_random_fields(rng):
    for _ in range(10):
        w = random_h_field(3, 5, rng)
        assert coercivity_ratio(w) >= 0.25 - 1e-8


def test_q_n_fourier_reconstruction(rng):
    # q_n of a multi-block field equals the diagonal sum plus the permitted
    # divergence cross terms only
    n = 4
    pieces = []
    for (k, i) in [(1, 1), (2, 2), (3, 3), (2, 1), (4, 3), (4, 1)]:
        pieces.append(random_eigenfield(n, k, i, rng))
    w = pieces[0].map
    for p in pieces[1:]:
        w = w + p.map
    total = q_n(w, project=False)
    partial = sum(q_n(p.map, project=False) for p in pieces)
    coef = 0.5 * n * (n - 3) / (n - 1) ** 2
    for a in range(len(pieces)):
        for b in range(a + 1, len(pieces)):
            pa, pb = pieces[a], pieces[b]
            if mixed_term_allowed(pa.k, pa.i, pb.k, pb.i):
                partial += 2.0 * coef * mixed_div_term(pa, pb)
    assert abs(total - partial) < 1e-8
