"""Named invariant checks backing the `verify` command.

Each check returns (ok, detail): a compact numeric witness of one module
invariant, run at the configured tolerances so tightening them surfaces
which checks are quadrature- or solver-limited.
"""

from __future__ import annotations

import math

import numpy as np

from .config import Config
from .constants import C_ratio, alpha_ratio, c_ratio, min_constant
from .deficits import (
    bulk_volume,
    combined_deficit,
    deficit_report,
    isometric_deficit,
    isoperimetric_deficit,
    signed_volume,
    volume_expansion_check,
)
from .families import (
    expansion_suite,
    flip_family,
    grad_gap_to_identity,
    signed_speed_gap,
    stretch_family,
)
from .forms import (
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
from .harmonics import (
    analyze,
    grad_origin,
    harmonic_energy_check,
    laplace_eigenvalue,
    poincare_deficit,
    scalar_basis_coeffs,
    synthesize,
)
from .homogeneous import Stack, a_gram, div_gram, energy_gram, l2_gram, sym_gram
from .moebius import (
    as_sphere_map,
    compose,
    compose_with_map,
    conformality_residual,
    dilation_scale,
    gauge_fix,
    inverse,
    moebius_apply,
    psi_functional,
    random_moebius,
    recenter,
)
from .operator import (
    eigenspaces,
    kernel_subspaces,
    project_kernel,
    random_eigenfield,
    random_h_field,
    self_adjointness_residual,
)
from .polynomials import gram, gram_rect, linear_order
from .quadrature import ball_grid_moment_residual, build_ball_grid, grid_moment_residual, integrate
from .spheremap import identity_map, stack_map, surface_divergence

__all__ = ["ALL_CHECKS", "run_checks"]


def _random_poly_field(n, rng):
    """A map S^{n-1} -> R^n of degree 3 with N(0, 0.3^2) coefficients."""
    blocks = {d: np.empty((1, n, math.comb(n + d - 1, d))) for d in range(4)}
    for i in range(n):
        for d in range(4):
            blocks[d][0, i] = [rng.normal() * 0.3 for _ in range(blocks[d].shape[2])]
    return stack_map(Stack(n, 1, n, blocks))


def check_grid_exactness(cfg: Config):
    worst = 0.0
    for n in (2, 3, 4):
        g = cfg.grid(n)
        rng = np.random.default_rng(cfg.seed)
        for _ in range(12):
            p = tuple(2 * rng.integers(0, 3, size=n))
            if sum(p) > g.exactness:
                continue
            worst = max(worst, grid_moment_residual(g, p))
        worst = max(worst, abs(g.weights.sum() - 1.0))
        if g.weights.min() < 0:
            return False, f"negative weight on the n={n} grid"
    return worst <= cfg.tol_exact, f"worst moment/mass residual {worst:.3e}"


def check_integrate_linearity(cfg: Config):
    g = cfg.grid(2)
    rng = np.random.default_rng(cfg.seed)
    a, b = rng.normal(size=2)
    f1, f2 = rng.normal(size=(2, g.size))
    lhs = integrate(g, a * f1 + b * f2)
    rhs = a * integrate(g, f1) + b * integrate(g, f2)
    return abs(lhs - rhs) <= 1e-12, f"linearity residual {abs(lhs - rhs):.3e}"


def check_ball_grid(cfg: Config):
    g = build_ball_grid(3, cfg.resolutions[3] // 2)
    worst = 0.0
    for p in [(2, 0, 0), (4, 2, 0), (1, 0, 0), (0, 0, 6)]:
        worst = max(worst, ball_grid_moment_residual(g, p))
    return worst <= cfg.tol_exact, f"worst ball moment residual {worst:.3e}"


def check_basis_orthonormal(cfg: Config):
    worst = 0.0
    for n, kk in ((2, 5), (3, 6), (4, 4)):
        for k in range(kk + 1):
            B = scalar_basis_coeffs(n, k)
            G = B @ gram(n, k) @ B.T
            worst = max(worst, float(np.max(np.abs(G - np.eye(B.shape[0])))))
        # cross-degree orthogonality (parity-compatible pairs)
        B1, B3 = scalar_basis_coeffs(n, 1), scalar_basis_coeffs(n, 3)
        worst = max(worst, float(np.max(np.abs(B1 @ gram_rect(n, 1, 3) @ B3.T))))
    return worst <= cfg.tol_exact, f"worst Gram residual {worst:.3e}"


def check_laplace_eigen_identity(cfg: Config):
    worst = 0.0
    for n, k in ((3, 4), (4, 3), (2, 5)):
        for psi in scalar_basis_coeffs(n, k):
            u = stack_map(Stack(n, 1, 1, {k: psi[None, None]}))
            e = tangential_energy(u)
            m = float(l2_gram(u.stack, u.stack)[0, 0])
            worst = max(worst, abs(e - laplace_eigenvalue(n, k) * m))
    return worst <= cfg.tol_exact, f"worst eigen-identity residual {worst:.3e}"


def check_analysis_roundtrip(cfg: Config):
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for n in (3, 4):
        u = _random_poly_field(n, rng)
        v = synthesize(analyze(u, 3))
        X = rng.normal(size=(40, n))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        worst = max(worst, float(np.max(np.abs(u.eval(X) - v.eval(X)))))
    return worst <= cfg.tol_exact, f"worst roundtrip residual {worst:.3e}"


def check_grad_origin_block(cfg: Config):
    rng = np.random.default_rng(cfg.seed + 1)
    u = _random_poly_field(3, rng)
    B = grad_origin(u)
    e = analyze(u, 1)
    S = scalar_basis_coeffs(3, 1)
    # coefficient matrix of the degree-1 block in coordinates
    M = linear_order(e.blocks[1] @ S)  # (m, monomials of degree 1) -> (m, coordinates)
    worst = float(np.max(np.abs(B - M)))
    return worst <= cfg.tol_exact, f"degree-1 block residual {worst:.3e}"


def check_poincare_and_extension(cfg: Config):
    rng = np.random.default_rng(cfg.seed + 2)
    ok = True
    worst = 0.0
    for n in (3, 4):
        u = _random_poly_field(n, rng)
        pd = poincare_deficit(u)
        worst = min(worst, pd)
        rep = harmonic_energy_check(u)
        ok = ok and rep.bounds_ok
    return (worst >= -1e-10) and ok, f"min Poincare deficit {worst:.3e}, extension bounds ok={ok}"


def check_spectrum(cfg: Config):
    for n, kk in ((3, 6), (4, 4), (5, 4)):
        for k in range(1, kk + 1):
            eigenspaces(n, k)  # raises IntegrityError when a constructed space fails its check
            if self_adjointness_residual(n, k) > cfg.tol_exact:
                return False, f"asymmetry at (n={n}, k={k})"
    if eigenspaces(3, 1)[2].dim != 0 or eigenspaces(4, 1)[2].dim != 0:
        return False, "degree-1 complement eigenspace not trivial"
    for n in (3, 4):
        k12, k23 = kernel_subspaces(n)
        if k12.dim != n * (n - 1) // 2 or k23.dim != n:
            return False, f"kernel dims wrong at n={n}"
    return True, "clusters, self-adjointness and kernel dims verified"


def check_a_degree_preservation(cfg: Config):
    from .operator import apply_A

    rng = np.random.default_rng(cfg.seed + 3)
    worst = 0.0
    for (n, k) in ((3, 3), (4, 2)):
        w = random_eigenfield(n, k, 1, rng).map
        aw = apply_A(w)
        e = analyze(aw, k + 2)
        for kk, blk in e.blocks.items():
            if kk != k:
                worst = max(worst, float(np.max(np.abs(blk))) if blk.size else 0.0)
    return worst <= cfg.tol_exact, f"off-degree leakage {worst:.3e}"


def check_eig2_pointwise(cfg: Config):
    rng = np.random.default_rng(cfg.seed + 4)
    g = cfg.grid(3)
    X = g.nodes[:: max(1, g.size // 200)]
    worst = 0.0
    for k in (2, 3):
        ef = random_eigenfield(3, k, 2, rng)
        U, jac = ef.map.at(X)
        worst = max(worst, float(np.max(np.abs(np.sum(U * X, axis=1)))))
        worst = max(worst, float(np.max(np.abs(surface_divergence(jac(), X)))))
    return worst <= 1e-9, f"max normal part / divergence {worst:.3e}"


def check_projection_idempotent(cfg: Config):
    rng = np.random.default_rng(cfg.seed + 5)
    worst = 0.0
    for _ in range(3):
        w = random_h_field(3, 3, rng)
        p1 = project_kernel(w)
        p2 = project_kernel(p1)
        d = (p1 + p2.scale(-1.0)).stack
        worst = max(worst, np.sqrt(l2_gram(d, d)[0, 0]))
        v = random_h_field(3, 3, rng)
        s1 = float(l2_gram(project_kernel(v).stack, w.stack)[0, 0])
        s2 = float(l2_gram(v.stack, p1.stack)[0, 0])
        worst = max(worst, abs(s1 - s2))
    return worst <= cfg.tol_exact, f"idempotency/symmetry residual {worst:.3e}"


def check_constant_tables(cfg: Config):
    rng = np.random.default_rng(cfg.seed + 6)
    worst = 0.0
    for n in (3, 4):
        for k in range(1, 5):
            for i in (1, 2, 3):
                if i == 3 and k < 2:
                    continue
                try:
                    ef = random_eigenfield(n, k, i, rng)
                except ValueError:
                    continue
                e = tangential_energy(ef.map)
                worst = max(worst, abs(q_vol(ef.map, ef.map) / e - float(c_ratio(n, k, i))))
                worst = max(worst, abs(surface_div_sq(ef.map) / e - float(alpha_ratio(n, k, i))))
                worst = max(worst, abs(q_n(ef.map, project=False) / e - float(C_ratio(n, k, i))))
    return worst <= 1e-9, f"worst measured-ratio residual {worst:.3e}"


def check_q_decomposition(cfg: Config):
    rng = np.random.default_rng(cfg.seed + 7)
    worst = 0.0
    for n in (3, 4):
        for _ in range(3):
            w = random_h_field(n, 4, rng)
            worst = max(worst, abs(q_conf(w) + q_isop(w) - q_n(w, project=False)))
            if q_n(w, project=False) < -1e-9 or q_conf(w) < -1e-10 or q_isop(w) < -1e-10:
                return False, "negativity of a nonnegative form"
    return worst <= 1e-9, f"worst q_conf+q_isop-q_n residual {worst:.3e}"


def check_q_reconstruction(cfg: Config):
    """Fourier reconstruction of q_n with only the permitted cross terms."""
    rng = np.random.default_rng(cfg.seed + 8)
    n = 4
    pieces = []
    for (k, i) in [(1, 1), (2, 2), (3, 3), (2, 1), (4, 3)]:
        try:
            pieces.append(random_eigenfield(n, k, i, rng))
        except ValueError:
            continue
    w = None
    for p in pieces:
        w = p.map if w is None else w + p.map
    total = q_n(w, project=False)
    partial = sum(q_n(p.map, project=False) for p in pieces)
    coef = 0.5 * n * (n - 3) / (n - 1) ** 2
    for a in range(len(pieces)):
        for b in range(a + 1, len(pieces)):
            pa, pb = pieces[a], pieces[b]
            if mixed_term_allowed(pa.k, pa.i, pb.k, pb.i):
                partial += 2.0 * coef * mixed_div_term(pa, pb)
    worst = abs(total - partial)
    return worst <= 1e-8, f"reconstruction residual {worst:.3e}"


def check_mixed_pattern(cfg: Config):
    rng = np.random.default_rng(cfg.seed + 9)
    worst = 0.0
    fields = {}
    for (k, i) in [(1, 1), (2, 2), (2, 3), (3, 1), (3, 3), (4, 1), (5, 3)]:
        try:
            fields[(k, i)] = random_eigenfield(4, k, i, rng)
        except ValueError:
            pass
    keys = sorted(fields)
    for a in range(len(keys)):
        for b in range(a + 1, len(keys)):
            ka, kb = keys[a], keys[b]
            v = mixed_div_term(fields[ka], fields[kb])
            if not mixed_term_allowed(*ka, *kb):
                worst = max(worst, abs(v))
    return worst <= 1e-9, f"worst forbidden mixed term {worst:.3e}"


def check_korn(cfg: Config):
    rng = np.random.default_rng(cfg.seed + 10)
    worst = 0.0
    for n in (3, 4):
        for _ in range(5):
            u = _random_poly_field(n, rng)
            worst = max(worst, korn_residual(u))
    return worst <= cfg.tol_exact, f"worst Korn residual {worst:.3e}"


def check_form_translation_invariance(cfg: Config):
    rng = np.random.default_rng(cfg.seed + 11)
    worst = 0.0
    for n in (3, 4):
        w = random_h_field(n, 3, rng)
        b = rng.normal(size=n)
        shifted = w + stack_map(Stack(n, 1, n, {0: b[None, :, None]}))
        for f in (q_conf, q_isop, q_isom):
            worst = max(worst, abs(f(shifted) - f(w)))
    return worst <= 1e-10, f"worst translation drift {worst:.3e}"


def check_kernel_intersection(cfg: Config):
    """Common null space of q_isom and q_isop inside constants + degrees <= 4."""
    n = 3
    # the basis as one stack: n constant fields, then the eigenspaces of degrees 1..4
    spaces = [eigenspaces(n, k)[i - 1] for k in range(1, 5) for i in (1, 2, 3)]
    dim = n + sum(S.dim for S in spaces)
    blocks = {0: np.zeros((dim, n, 1)), **{k: np.zeros((dim, n, math.comb(n + k - 1, k))) for k in range(1, 5)}}
    blocks[0][np.arange(n), np.arange(n), 0] = 1.0
    row = n
    for S in spaces:
        blocks[S.k][row : row + S.dim] = S.coeffs
        row += S.dim
    B = Stack(n, dim, n, blocks)
    cc = n / (2.0 * (n - 1))
    sym = sym_gram(B, B)
    isop = cc * (energy_gram(B, B) + div_gram(B, B) - 2.0 * sym) - 0.5 * n * a_gram(B, B)
    Q = sym + isop
    Gq = np.triu(Q) + np.triu(Q, 1).T  # row a pairs field a with A of field b, a <= b
    evals, _ = np.linalg.eigh(Gq)
    null_dim = int(np.sum(np.abs(evals) < 1e-8))
    expected = n * (n - 1) // 2 + n  # skew fields + constants
    return null_dim == expected, f"null dim {null_dim}, expected {expected} (skew + translations)"


def check_min_constant(cfg: Config):
    m3 = min_constant(3, 200)
    from fractions import Fraction

    if m3.value != Fraction(1, 4) or m3.argmin != (3, 3):
        return False, f"sharp constant wrong: {m3.value} at {m3.argmin}"
    for n in (4, 5):
        m = min_constant(n, 200)
        if not m.value > 0:
            return False, f"nonpositive minimum at n={n}"
        if abs(float(m.limit) - n / (2 * (n - 1))) > 1e-12:
            return False, f"limit mismatch at n={n}"
    return True, "1/4 sharp at (3,3); n=4,5 minima positive with correct limits"


def check_coercivity(cfg: Config):
    rng = np.random.default_rng(cfg.seed + 12)
    worst = np.inf
    for _ in range(10):
        w = random_h_field(3, 5, rng)
        worst = min(worst, coercivity_ratio(w))
    ok = worst >= 0.25 - 1e-8
    return ok, f"min coercivity ratio {worst:.6f} (sharp bound 0.25)"


def check_wente_chain(cfg: Config):
    rng = np.random.default_rng(cfg.seed + 13)
    worst = np.inf
    for n in (3, 4):
        for _ in range(10):
            w = random_h_field(n, 3, rng)
            u = identity_map(n) + w.scale(0.25 / np.sqrt(tangential_energy(w)))
            rep = deficit_report(u, cfg.grid(n))
            p = n / (n - 1)
            worst = min(worst, rep.dirichlet**p - rep.perimeter**p, rep.perimeter**p - abs(rep.volume))
    return worst >= -1e-9, f"min chain slack {worst:.3e}"


def check_deficit_invariance(cfg: Config):
    rng = np.random.default_rng(cfg.seed + 14)
    n = 3
    w = random_h_field(n, 3, rng)
    u = identity_map(n) + w.scale(0.2 / np.sqrt(tangential_energy(w)))
    R = np.linalg.qr(rng.normal(size=(n, n)))[0]
    RuM = _compose_linear(R, u)
    r1, r2 = deficit_report(u, cfg.grid(n)), deficit_report(RuM, cfg.grid(n))
    worst = max(
        abs(r1.delta - r2.delta), abs(r1.delta_isom - r2.delta_isom),
        abs(r1.dirichlet - r2.dirichlet), abs(r1.perimeter - r2.perimeter),
        abs(abs(r1.volume) - abs(r2.volume)),
    )
    vol_sign = abs(r2.volume - np.linalg.det(R) * r1.volume)
    return max(worst, vol_sign) <= 1e-9, f"orthogonal-invariance residual {max(worst, vol_sign):.3e}"


def _compose_linear(R, u):
    return stack_map(Stack(u.n, 1, u.n, {d: R @ C for d, C in u.stack.blocks.items()}))


def check_bulk_surface(cfg: Config):
    rng = np.random.default_rng(cfg.seed + 15)
    worst = 0.0
    for _ in range(5):
        u = _random_poly_field(3, rng)
        worst = max(worst, abs(bulk_volume(u) - signed_volume(u)))
    w = random_h_field(3, 3, rng)
    a0, a1, a2, a3 = volume_expansion_check(w)
    worst2 = max(
        abs(a0 - 1.0),
        abs(a1 - 3.0 * dilation_scale(w, cfg.grid(3))),
        abs(a2 - q_vol(w, w)),
        abs(a3 - signed_volume(w)),
    )
    return max(worst, worst2) <= 1e-8, f"bulk/expansion residual {max(worst, worst2):.3e}"


def check_moebius_identities(cfg: Config):
    rng = np.random.default_rng(cfg.seed + 16)
    g = cfg.grid(3)
    X = g.nodes[:: max(1, g.size // 50)]
    worst = 0.0
    for _ in range(5):
        p1 = random_moebius(rng, lam_range=(0.3, 3.0))
        p2 = random_moebius(rng, lam_range=(0.3, 3.0))
        worst = max(worst, conformality_residual(p1, g))
        worst_grp = np.max(np.abs(moebius_apply(compose(p1, p2), X) - moebius_apply(p1, moebius_apply(p2, X))))
        worst_inv = np.max(np.abs(moebius_apply(inverse(p1), moebius_apply(p1, X)) - X))
        worst = max(worst, float(worst_grp), float(worst_inv))
    return worst <= 1e-9, f"worst conformality/group residual {worst:.3e}"


def check_moebius_volume(cfg: Config):
    rng = np.random.default_rng(cfg.seed + 17)
    g = cfg.grid(3)
    worst = 0.0
    for _ in range(5):
        phi = random_moebius(rng, lam_range=(0.5, 2.0))
        sm = as_sphere_map(phi)
        worst = max(worst, abs(signed_volume(sm, g) - 1.0))
        worst = max(worst, combined_deficit(sm, g))
    return worst <= cfg.tol_quad, f"worst V-1 / E residual {worst:.3e}"


def check_scale_formula(cfg: Config):
    rng = np.random.default_rng(cfg.seed + 18)
    g = cfg.grid(3)
    worst = 0.0
    for _ in range(5):
        w = random_h_field(3, 4, rng)
        w = w.scale(0.1 / np.sqrt(tangential_energy(w)))
        u = identity_map(3) + w
        lam = dilation_scale(u, g)
        theta = np.sqrt(grad_gap_to_identity(u, g))
        if abs(lam - 1.0) > theta / np.sqrt(2.0) + 1e-12:
            worst = max(worst, abs(lam - 1.0) - theta / np.sqrt(2.0))
    return worst == 0.0, f"scale-bound violation {worst:.3e}"


def check_gauge_and_recenter(cfg: Config):
    rng = np.random.default_rng(cfg.seed + 19)
    g = cfg.grid(3)
    w = random_h_field(3, 4, rng)
    w = w.scale(0.05 / np.sqrt(tangential_energy(w)))
    u = identity_map(3) + w
    phi = gauge_fix(u, g, tol=cfg.tol_solver * 10)
    r1 = float(np.linalg.norm(psi_functional(compose_with_map(u, phi), g)))
    tgt = random_moebius(rng, lam_range=(0.6, 1.8), rotate=False)
    um = as_sphere_map(tgt)
    phi2 = recenter(um, g, tol=cfg.tol_solver)
    r2 = float(np.linalg.norm(g.weights @ um.eval(moebius_apply(phi2, g.nodes))))
    # the residuals of converged solves are roundoff, so only a failing one is printed
    checks = (("gauge", r1, cfg.tol_solver * 10), ("recenter", r2, cfg.tol_solver))
    detail = ", ".join(f"{name} residual <= {tol:.0e}" if r <= tol else f"{name} residual {r:.2e} > {tol:.0e}"
                       for name, r, tol in checks)
    return all(r <= tol for _, r, tol in checks), detail


def check_families(cfg: Config):
    worst = 0.0
    for s in (0.1, 0.5, 1.0):
        u = flip_family(s)
        exact = (s - np.sin(s)) / np.pi
        worst = max(worst, abs(grad_gap_to_identity(u) - exact), abs(isoperimetric_deficit(u) - exact))
        worst = max(worst, isometric_deficit(u))
    for s in (0.02, 0.1):
        u = stretch_family(s)
        worst = max(worst, abs(isometric_deficit(u) ** 2 - 4 * s * s / (1 - 2 * s)))
        worst = max(worst, isoperimetric_deficit(u))
        worst = max(worst, abs(signed_speed_gap(u) - (4 * s + 4 * s * s / (1 - 2 * s))))
    return worst <= cfg.tol_exact, f"worst family closed-form residual {worst:.3e}"


def check_expansion_remainder(cfg: Config):
    rows = expansion_suite(3, count=4, kmax=3, ts=(2e-3, 1e-3), seed=cfg.seed)
    ok = True
    detail = []
    for a, b in zip(rows[::2], rows[1::2]):
        if b.remainder > 1e-15:
            factor = a.remainder / b.remainder
            ok = ok and factor >= 6.0
            detail.append(round(factor, 2))
    return ok, f"remainder shrink factors per halving: {detail} (cubic: 8)"


ALL_CHECKS = [
    ("quadrature.exactness", check_grid_exactness),
    ("quadrature.linearity", check_integrate_linearity),
    ("quadrature.ball", check_ball_grid),
    ("harmonics.orthonormal", check_basis_orthonormal),
    ("harmonics.eigen_identity", check_laplace_eigen_identity),
    ("harmonics.roundtrip", check_analysis_roundtrip),
    ("harmonics.grad_origin", check_grad_origin_block),
    ("harmonics.poincare_extension", check_poincare_and_extension),
    ("operator.spectrum", check_spectrum),
    ("operator.degree_preservation", check_a_degree_preservation),
    ("operator.eig2_pointwise", check_eig2_pointwise),
    ("operator.projection", check_projection_idempotent),
    ("forms.constant_tables", check_constant_tables),
    ("forms.q_decomposition", check_q_decomposition),
    ("forms.q_reconstruction", check_q_reconstruction),
    ("forms.mixed_pattern", check_mixed_pattern),
    ("forms.korn", check_korn),
    ("forms.translation_invariance", check_form_translation_invariance),
    ("forms.kernel_intersection", check_kernel_intersection),
    ("forms.min_constant", check_min_constant),
    ("forms.coercivity", check_coercivity),
    ("deficits.wente_chain", check_wente_chain),
    ("deficits.invariance", check_deficit_invariance),
    ("deficits.bulk_surface", check_bulk_surface),
    ("moebius.identities", check_moebius_identities),
    ("moebius.volume_deficit", check_moebius_volume),
    ("moebius.scale_formula", check_scale_formula),
    ("moebius.solvers", check_gauge_and_recenter),
    ("experiments.families", check_families),
    ("experiments.expansion_remainder", check_expansion_remainder),
]


def run_checks(cfg: Config, names: list[str] | None = None):
    """Run the registry; returns (all_ok, results list of dicts)."""
    import time

    results = []
    all_ok = True
    for name, fn in ALL_CHECKS:
        if names and name not in names:
            continue
        t0 = time.time()
        try:
            ok, detail = fn(cfg)
        except Exception as exc:  # a check crash is a failure with diagnostics
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append({
            "name": name,
            "passed": bool(ok),
            "detail": detail,
            "seconds": round(time.time() - t0, 3),
        })
        all_ok = all_ok and ok
    return all_ok, results
