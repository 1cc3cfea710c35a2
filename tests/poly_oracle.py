"""Test-only oracle: the package's exact routes through per-call Poly algebra.

The package's :class:`~spherestab.polynomials.Poly` is a serialization
view with no algebra, and its monomial operators are index maps.  The
first section keeps those maps as the dense 0/1-pattern matrices that the
index maps replaced (``grad_matrix``, ``xdot_matrix`` and their blocks
``diff_matrix``, ``xmul_matrix``).  The next gives Poly an algebra on
them, as free functions: sums, scaling, products, ``diff``, ``xmul``, the
Euler operator and the Laplacian, and the exact sphere and ball
integrals by moment sums.  Every
operator after it is a chain of those on the components of a field, and
the forms, projections and the nearest-rotation moment are built from
them.  A later section treats a poly map as a tuple of Poly components:
sampling through the components and their gradients, map arithmetic,
harmonic analysis and synthesis, the first moments, the infinitesimal
Moebius fields and the bulk volume by exact ball moments.  The package
evaluates the same quantities on coefficient stacks
(:mod:`spherestab.homogeneous`); the tests hold it to these.  A quadrature
oracle follows: the linear layer's integrals and its H_n and kernel
projections from the values and Jacobians of a map sampled on a grid,
by the einsum definitions of the pointwise quantities, for the
exact-against-quadrature cross-check.  The last sections keep the dense matrix of A and the modified
Gram-Schmidt loop that the exact-algebra engine replaced, the numerical
spectrum that the constructed eigenspaces replaced (A applied to the
basis stack, ``eigh`` with clustering, and the Helmholtz split by an SVD
with a rank cut) with ``subspace_angle``, the principal-angle measure the
tests compare eigenspaces by, the seeded draws by Gram pairings against
the monomial basis of H_{n,k} that the candidate coordinates replaced,
the tuple enumeration of monomial spaces that the exponent arrays
replaced, and the cyclic Jacobi eigen-solver that ``eigvalsh`` replaced
at n >= 5.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Sequence

import numpy as np

from spherestab.errors import SolverError
from spherestab.harmonics import (
    _field_pairs,
    harmonicize,
    laplace_eigenvalue,
    scalar_basis_coeffs,
    vector_space_coeffs,
)
from spherestab.homogeneous import Stack
from spherestab.moments import ball_moment
from spherestab.operator import kernel_subspaces
from spherestab.polynomials import (
    Poly,
    _exponents,
    _moments,
    _product_index,
    evaluate,
    exps,
    grad_index,
    gram,
    gram_rect,
)
from spherestab.quadrature import integrate

Field = Sequence[Poly]


# ---------------------------------------------------------------------------
# dense monomial matrices: the index maps of the package as 0/1-pattern matrices
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def grad_matrix(n: int, k: int) -> np.ndarray:
    """The gradient on degree-k coefficients, (n M_{k-1} x M_k): row block l is d/dx_l.

    Row (l, q) has one nonzero, q_l + 1, in the column of the monomial q + e_l
    (``grad_index``).
    """
    src, coef = grad_index(n, k)
    G = np.zeros((len(src), len(_exponents(n, k))))
    G[np.arange(len(src)), src] = coef
    return G


@lru_cache(maxsize=None)
def xdot_matrix(n: int, k: int) -> np.ndarray:
    """f -> <f, x> on degree-k coefficient stacks, (M_{k+1} x n M_k): column block i is x_i."""
    m = len(_exponents(n, k))
    dst = _product_index(n, 1, k).reshape(n, m)[::-1]
    X = np.zeros((len(_exponents(n, k + 1)), n, m))
    X[dst, np.arange(n)[:, None], np.arange(m)] = 1.0
    return X.reshape(-1, n * m)


def diff_matrix(n: int, k: int, i: int) -> np.ndarray:
    """d/dx_i as a (M_{k-1} x M_k) matrix on monomial coefficients: a row block of :func:`grad_matrix`."""
    m = len(_exponents(n, k - 1))
    return grad_matrix(n, k)[i * m : (i + 1) * m]


def xmul_matrix(n: int, k: int, i: int) -> np.ndarray:
    """Multiplication by x_i as a (M_{k+1} x M_k) matrix: a column block of :func:`xdot_matrix`."""
    m = len(_exponents(n, k))
    return xdot_matrix(n, k)[:, i * m : (i + 1) * m]


# ---------------------------------------------------------------------------
# Poly algebra
# ---------------------------------------------------------------------------

def monomial_exponents(n: int, k: int) -> list[tuple[int, ...]]:
    """``exps(n, k)`` as a list."""
    return list(exps(n, k))


def zero(n: int) -> Poly:
    return Poly(n)


def constant(n: int, c: float) -> Poly:
    return Poly(n, {(0,) * n: float(c)})


def coordinate(n: int, i: int) -> Poly:
    e = [0] * n
    e[i] = 1
    return Poly(n, {tuple(e): 1.0})


def add(*ps: Poly) -> Poly:
    """The sum of one or more Polys in the same variables, taken left to right."""
    out: dict[int, np.ndarray] = {}
    for p in ps:
        for d, v in p.blocks.items():
            out[d] = out[d] + v if d in out else v
    return Poly.from_blocks(ps[0].n, out)


def sub(p: Poly, q: Poly) -> Poly:
    out = dict(p.blocks)
    for d, v in q.blocks.items():
        out[d] = out[d] - v if d in out else -v
    return Poly.from_blocks(p.n, out)


def scale(p: Poly, a: float) -> Poly:
    return Poly.from_blocks(p.n, {d: a * v for d, v in p.blocks.items()})


def mul(p: Poly, q: Poly) -> Poly:
    n = p.n
    out: dict[int, np.ndarray] = {}
    for d1, v1 in p.blocks.items():
        for d2, v2 in q.blocks.items():
            d = d1 + d2
            v = np.bincount(_product_index(n, d1, d2), weights=np.outer(v1, v2).ravel(),
                            minlength=len(_exponents(n, d)))
            out[d] = out[d] + v if d in out else v
    return Poly.from_blocks(n, out)


def diff(p: Poly, i: int) -> Poly:
    return Poly.from_blocks(p.n, {d - 1: diff_matrix(p.n, d, i) @ v for d, v in p.blocks.items() if d >= 1})


def xmul(p: Poly, i: int) -> Poly:
    """Multiplication by the coordinate x_i."""
    return Poly.from_blocks(p.n, {d + 1: xmul_matrix(p.n, d, i) @ v for d, v in p.blocks.items()})


def euler(p: Poly) -> Poly:
    """sum_i x_i d/dx_i, i.e. degree-weighting of homogeneous parts."""
    return Poly.from_blocks(p.n, {d: d * v for d, v in p.blocks.items()})


def laplacian(p: Poly) -> Poly:
    return add(Poly(p.n), *(diff(diff(p, i), i) for i in range(p.n)))


def degree(p: Poly) -> int:
    return max(p.blocks, default=0)


def is_zero(p: Poly, tol: float = 0.0) -> bool:
    return all(np.all(np.abs(v) <= tol) for v in p.blocks.values())


def pair(p: Poly, q: Poly) -> float:
    """Exact normalized sphere integral of the product."""
    total = 0.0
    for d1, v1 in p.blocks.items():
        for d2, v2 in q.blocks.items():
            if (d1 + d2) % 2 == 0:
                total += v1 @ gram_rect(p.n, d1, d2) @ v2
    return float(total)


@lru_cache(maxsize=None)
def _ball_moments(n: int, d: int) -> np.ndarray:
    """Ball moments of the monomials exps(n, d), each the float of its exact fraction."""
    return np.array([float(ball_moment(n, e)) for e in exps(n, d)])


def _moment_sum(p: Poly, ball: bool) -> float:
    moments = _ball_moments if ball else _moments
    total = 0.0
    for d, v in p.blocks.items():
        if d % 2 == 0:  # odd moments vanish
            total += moments(p.n, d) @ v
    return float(total)


def sphere_integral(p: Poly) -> float:
    """Normalized integral over S^{n-1}, exact moment sum."""
    return _moment_sum(p, ball=False)


def ball_integral(p: Poly) -> float:
    """Normalized integral over B_1, exact moment sum."""
    return _moment_sum(p, ball=True)


# ---------------------------------------------------------------------------
# first-order surface operators on poly vector fields (exact)
# ---------------------------------------------------------------------------

def field_radials(f: Field) -> Field:
    """r_i = <x, grad f^i> = Euler operator on each component."""
    return [euler(c) for c in f]


def field_inner_x(f: Field) -> Poly:
    """<f, x> as a Poly."""
    return add(Poly(f[0].n), *(xmul(c, i) for i, c in enumerate(f)))


def field_surface_div(f: Field) -> Poly:
    """div_S f = tr(J P) = div f - <x, (grad f) x> for an n-component field."""
    n = f[0].n
    return sub(add(Poly(n), *(diff(f[i], i) for i in range(n))), field_inner_x(field_radials(f)))


def field_a_operator(f: Field) -> Field:
    """A(f) = (div_S f) x - sum_j x_j grad_T f^j, componentwise Polys."""
    n = f[0].n
    div_s = field_surface_div(f)
    radials = field_radials(f)
    s = field_inner_x(radials)
    out = []
    for i in range(n):
        ai = add(xmul(div_s, i), xmul(s, i))
        for j in range(n):
            ai = sub(ai, xmul(diff(f[j], i), j))
        out.append(ai)
    return out


def field_pair(f: Field, g: Field) -> float:
    """Exact integral of <f, g> over the sphere."""
    return sum(pair(a, b) for a, b in zip(f, g))


def field_mean(f: Field) -> np.ndarray:
    return np.array([sphere_integral(c) for c in f])


def field_tangential_energy(f: Field) -> float:
    """Integral of |grad_T f|^2 = sum_i (|grad f^i|^2 - <x, grad f^i>^2)."""
    n = f[0].n
    total = 0.0
    for c in f:
        for l in range(n):
            dl = diff(c, l)
            total += pair(dl, dl)
        r = euler(c)
        total -= pair(r, r)
    return total


def field_pjp_entries(f: Field) -> list[Field]:
    """Entries of P J P as Polys (the tangential-tangential block of the
    Jacobian, expressed in ambient coordinates)."""
    n = f[0].n
    radials = field_radials(f)          # r_i = <x, grad f^i>, per component
    # rho_l = sum_a x_a d_l f^a
    rho = [add(Poly(n), *(xmul(diff(f[a], l), a) for a in range(n))) for l in range(n)]
    s = field_inner_x(radials)          # sum_ab x_a d_b f^a x_b
    M = [[None] * n for _ in range(n)]
    for i in range(n):
        for l in range(n):
            M[i][l] = add(sub(sub(diff(f[i], l), xmul(rho[l], i)), xmul(radials[i], l)), xmul(xmul(s, i), l))
    return M


def field_pjp_sym(f: Field) -> list[Field]:
    """Entries of (P J P)_sym as Polys."""
    n = f[0].n
    M = field_pjp_entries(f)
    return [[scale(add(M[i][l], M[l][i]), 0.5) for l in range(n)] for i in range(n)]


def matrix_frobenius_pair(M1: list[Field], M2: list[Field]) -> float:
    return sum(pair(M1[i][l], M2[i][l]) for i in range(len(M1)) for l in range(len(M1)))


# ---------------------------------------------------------------------------
# the forms and operators of the package, Poly route
# ---------------------------------------------------------------------------

def tangential_energy(f: Field) -> float:
    return field_tangential_energy(f)


def surface_div_sq(f: Field) -> float:
    d = field_surface_div(f)
    return pair(d, d)


def q_vol(fv: Field, fw: Field) -> float:
    return 0.5 * fv[0].n * field_pair(fv, field_a_operator(fw))


def q_vol_alt(f: Field) -> float:
    n = f[0].n
    d = field_surface_div(f)
    r = field_inner_x(f)
    return 0.5 * n * (2.0 * pair(d, r) - n * pair(r, r) + field_pair(f, f))


def sym_energy(f: Field) -> float:
    S = field_pjp_sym(f)
    return matrix_frobenius_pair(S, S)


def pjp_energy(f: Field) -> float:
    M = field_pjp_entries(f)
    return matrix_frobenius_pair(M, M)


def mixed_div_term(fa: Field, fb: Field) -> float:
    return pair(field_surface_div(fa), field_surface_div(fb))


def project_h_n(f: Field) -> list[Poly]:
    n = f[0].n
    mean = field_mean(f)
    radial = sphere_integral(field_inner_x(f))
    return [add(c, constant(n, -float(mean[i])), scale(coordinate(n, i), -radial)) for i, c in enumerate(f)]


def project_kernel(f: Field) -> list[Poly]:
    from spherestab.operator import kernel_subspaces

    n = f[0].n
    f = project_h_n(f)
    acc = []
    for S in kernel_subspaces(n):
        block = np.zeros_like(S.coeffs[0])
        for a in range(S.dim):
            block += field_pair(f, S.element(np.eye(S.dim)[a]).components) * S.coeffs[a]
        acc.append(block)
    return [Poly.from_blocks(n, {1: acc[0][i], 2: acc[1][i]}) for i in range(n)]


def poincare_deficit(f: Field) -> float:
    n = f[0].n
    var = 0.0
    for c in f:
        mean = sphere_integral(c)
        var += pair(c, c) - mean * mean
    return field_tangential_energy(f) / (n - 1) - var


def rotation_moment(f: Field) -> np.ndarray:
    """avg of grad f P, the matrix M of the nearest rotation."""
    n = f[0].n
    radials = field_radials(f)
    M = np.empty((n, n))
    for i in range(n):
        for l in range(n):
            M[i, l] = sphere_integral(sub(diff(f[i], l), xmul(radials[i], l)))
    return M


# ---------------------------------------------------------------------------
# poly maps as tuples of Poly components
# ---------------------------------------------------------------------------

def gradients(f: Field) -> list[Poly]:
    """d f^i / d x_l, row-major over (i, l)."""
    return [diff(c, l) for c in f for l in range(f[0].n)]


def sample(f: Field, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and Jacobians at X from one table of the components and their gradients."""
    m, n = len(f), f[0].n
    table = evaluate([(1, p.blocks) for p in [*f, *gradients(f)]], X).T
    return table[:, :m], table[:, m:].reshape(-1, m, n)


def field_add(f: Field, g: Field) -> list[Poly]:
    return [add(a, b) for a, b in zip(f, g)]


def field_scale(f: Field, a: float) -> list[Poly]:
    return [scale(c, a) for c in f]


def linear_map(A: np.ndarray) -> list[Poly]:
    """Components of x -> A x."""
    m, n = A.shape
    units = [tuple(np.eye(n, dtype=int)[l].tolist()) for l in range(n)]
    return [Poly(n, dict(zip(units, A[i]))) for i in range(m)]


def analyze(f: Field, kmax: int) -> dict[int, np.ndarray]:
    """Blocks of coefficients against the orthonormal scalar harmonics, per component."""
    n = f[0].n
    blocks = {}
    for k in range(kmax + 1):
        S = scalar_basis_coeffs(n, k)
        blk = np.zeros((len(f), S.shape[0]))
        for i, c in enumerate(f):
            for d, v in c.blocks.items():
                if (d + k) % 2 == 0:
                    blk[i] += S @ gram_rect(n, k, d) @ v
        blocks[k] = blk
    return blocks


def synthesize(n: int, blocks: dict[int, np.ndarray]) -> list[Poly]:
    m = next(iter(blocks.values())).shape[0]
    return [Poly.from_blocks(n, {k: blk[i] @ scalar_basis_coeffs(n, k) for k, blk in blocks.items()})
            for i in range(m)]


def grad_origin(f: Field) -> np.ndarray:
    """n * avg f x^t."""
    n = f[0].n
    return np.array([[n * sphere_integral(xmul(c, j)) for j in range(n)] for c in f])


def kernel_characterization_residual(f: Field) -> tuple[float, float]:
    n = f[0].n
    B = grad_origin(f)
    wh = synthesize(n, analyze(f, max(degree(c) for c in f)))
    div = add(Poly(n), *(diff(c, i) for i, c in enumerate(wh)))
    return float(np.max(np.abs(B - B.T))), max(abs(sphere_integral(xmul(div, k))) for k in range(n))


def inf_moebius_field(S: np.ndarray, mu: float, xi: np.ndarray) -> list[Poly]:
    """S x + mu (<x, xi> x - xi)."""
    n = S.shape[0]
    rotation = linear_map(S)
    inner = linear_map(mu * xi[None, :])[0]
    return [add(rotation[i], xmul(inner, i), constant(n, -mu * xi[i])) for i in range(n)]


def psi_tables(grid) -> tuple[np.ndarray, np.ndarray]:
    """Degree-2 harmonics at the nodes, and dcoef[i, g, l], the x_l coefficient of d_i psi_g."""
    n = grid.n
    basis = [Poly.from_blocks(n, {2: row}) for row in scalar_basis_coeffs(n, 2)]
    dcoef = np.zeros((n, len(basis), n))
    for gidx, b in enumerate(basis):
        for i in range(n):
            for e, cc in diff(b, i).coeffs.items():
                dcoef[i, gidx, list(e).index(1)] = cc
    return evaluate([(1, b.blocks) for b in basis], grid.nodes), dcoef


def det3(B: list[Field]) -> Poly:
    """Determinant of a 3 x 3 array of Polys."""
    return add(sub(mul(B[0][0], sub(mul(B[1][1], B[2][2]), mul(B[1][2], B[2][1]))),
                   mul(B[0][1], sub(mul(B[1][0], B[2][2]), mul(B[1][2], B[2][0])))),
               mul(B[0][2], sub(mul(B[1][0], B[2][1]), mul(B[1][1], B[2][0]))))


def bulk_volume(u) -> float:
    """Normalized ball integral of det grad(u_h) for a poly map of S^2 into R^3, by
    exact ball moments of the determinant's Poly product."""
    J = gradients(harmonicize(u).components)
    return ball_integral(det3([J[3 * i : 3 * i + 3] for i in range(3)]))


# ---------------------------------------------------------------------------
# quadrature oracle: the linear layer from sampled values and Jacobians
# ---------------------------------------------------------------------------

def quadrature_forms(grid, U: np.ndarray, J: np.ndarray) -> dict[str, float]:
    """The linear layer's integrals of a map into R^n, from its values U (N, n) and
    Jacobians J (N, n, n) at the grid's nodes: the einsum definitions of the
    pointwise quantities, integrated by the grid's quadrature."""
    X, n = grid.nodes, grid.n
    P = np.eye(n)[None] - np.einsum("ai,aj->aij", X, X)
    TJ = J - np.einsum("ail,al,ak->aik", J, X, X)
    PJP = np.einsum("aij,ajk,akl->ail", P, J, P)
    sym = 0.5 * (PJP + np.transpose(PJP, (0, 2, 1)))
    div = np.einsum("aii->a", TJ)
    AU = div[:, None] * X - np.einsum("aj,ajl->al", X, TJ)
    energy = integrate(grid, np.einsum("aik,aik->a", TJ, TJ))
    C = U - grid.weights @ U
    return {
        "tangential_energy": energy,
        "surface_div_sq": integrate(grid, div * div),
        "poincare_deficit": energy / (n - 1) - integrate(grid, np.einsum("ai,ai->a", C, C)),
        "q_vol": 0.5 * n * integrate(grid, np.einsum("ai,ai->a", U, AU)),
        "sym_energy": integrate(grid, np.einsum("aik,aik->a", sym, sym)),
        "pjp_energy": integrate(grid, np.einsum("aik,aik->a", PJP, PJP)),
    }


def quadrature_project_h_n(grid, U: np.ndarray, J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and Jacobians at the nodes of the map less its mean and its radial first
    moment, both by quadrature."""
    mean = grid.weights @ U
    radial = integrate(grid, np.einsum("ai,ai->a", U, grid.nodes))
    return U - mean - radial * grid.nodes, J - radial * np.eye(grid.n)


def quadrature_project_kernel(grid, U: np.ndarray, J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and Jacobians at the nodes of the kernel projection, after the H_n
    projection: one quadrature pairing per field of the kernel blocks' bases."""
    U, J = quadrature_project_h_n(grid, U, J)
    X = grid.nodes
    vals, jac = np.zeros_like(U), np.zeros_like(J)
    for S in kernel_subspaces(grid.n):
        for field in map(S.element, np.eye(S.dim)):
            BV = field.eval(X)
            c = integrate(grid, np.einsum("ai,ai->a", U, BV))
            vals += c * BV
            jac += c * field.at(X)[1]()
    return vals, jac


# ---------------------------------------------------------------------------
# dense A and modified Gram-Schmidt
# ---------------------------------------------------------------------------

# unit coefficient stacks pushed through A at once when assembling its matrix
_UNIT_CHUNK = 32


def a_coefficient_matrix(n: int, k: int) -> np.ndarray:
    """A on degree-k coefficient stacks as an (n M_k)^2 matrix, block (i,j) = X_i D_j - X_j D_i.

    This is :attr:`Stack.a_field` of the unit stacks.  It equals the
    volume-form operator on every homogeneous degree-k representative,
    harmonic or not: (A w)_i = (div w) x_i - sum_j x_j d_i w^j holds as a
    polynomial identity, and each term maps degree k to degree k.
    """
    N = n * len(exps(n, k))
    out = np.empty((N, N))
    for c in range(0, N, _UNIT_CHUNK):   # a few unit stacks at a time keep the transients small
        m = min(_UNIT_CHUNK, N - c)
        units = np.zeros((m, N))
        units[np.arange(m), c + np.arange(m)] = 1.0
        images = Stack(n, m, n, {k: units.reshape(m, n, -1)}).a_field.blocks[k]
        out[:, c : c + m] = images.reshape(m, N).T
    return out


def mgs(rows: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt of row vectors under inner(u,v) = u G v^t.

    Each accepted row is kept with its product b G, which is the first step
    of evaluating b @ G @ w."""
    out = []
    for v in rows:
        w = v.copy()
        for b, bG in out:
            w = w - (bG @ w) * b
        # second pass for numerical orthogonality
        for b, bG in out:
            w = w - (bG @ w) * b
        nrm = math.sqrt(w @ G @ w)
        if nrm > 1e-12:
            b = w / nrm
            out.append((b, b @ G))
    return np.array([b for b, _ in out])


def scalar_basis_coeffs_mgs(n: int, k: int) -> np.ndarray:
    """Orthonormal degree-k scalar harmonics by :func:`mgs` of the Laplacian's kernel."""
    M = len(exps(n, k))
    if k <= 1:
        kernel = np.eye(M)
    else:
        L = sum(diff_matrix(n, k - 1, i) @ diff_matrix(n, k, i) for i in range(n))
        _, s, vh = np.linalg.svd(L)
        kernel = vh[int(np.sum(s > 1e-10 * s[0])):]
    basis = mgs(kernel, gram(n, k))
    return np.abs(basis) if k == 0 else basis


# ---------------------------------------------------------------------------
# the numerical spectrum: A on the basis stack, eigh, the Helmholtz SVD, and
# the principal angles between two subspaces
# ---------------------------------------------------------------------------

def _combine(W: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The combinations sum_b W[a,b] C[b] of a stack of fields, as one matmul."""
    return (W @ C.reshape(len(C), -1)).reshape(len(W), *C.shape[1:])


def a_matrix_a_field(n: int, k: int) -> np.ndarray:
    """The matrix of A on the orthonormal basis of H_{n,k}: ``Stack.a_field`` of
    the n h-row basis stack, paired with the basis."""
    B = vector_space_coeffs(n, k)
    AB = Stack(n, len(B), n, {k: B}).a_field.blocks[k]
    return _field_pairs(B, AB, gram(n, k))


def a_matrix_from_gradients(n: int, k: int) -> np.ndarray:
    """The matrix of A on the orthonormal basis of H_{n,k} as (D_i^t D_j - D_j^t D_i) / (n+2k-2).

    D_j = <psi^{k-1}, d_j psi^k> from the dense ``diff_matrix``; the pairing
    <psi^k_a, x_i psi^{k-1}_c> equals D_i[c, a] / (n+2k-2) by the divergence
    theorem on the ball, which makes this form symmetric by construction.
    At k = 1 it is conjugated by the coordinates of the basis in the
    candidates e_j psi_b.
    """
    S, Sm = scalar_basis_coeffs(n, k), scalar_basis_coeffs(n, k - 1)
    D = [Sm @ gram(n, k - 1) @ diff_matrix(n, k, j) @ S.T for j in range(n)]
    M = np.block([[D[i].T @ D[j] - D[j].T @ D[i] for j in range(n)] for i in range(n)]) / (n + 2 * k - 2)
    if k == 1:
        B = vector_space_coeffs(n, 1)
        C = (B @ gram(n, 1) @ S.T).reshape(len(B), -1)
        M = C @ M @ C.T
    return M


def eigenspaces_eigh(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients (dim_i, n, M_k) of the eigenspaces of A on H_{n,k} for (-k, 1, k+n-2):
    ``eigh`` of the symmetrized :func:`a_matrix_a_field`, every eigenvalue
    assigned to its nearest predicted value (within 1e-8)."""
    B = vector_space_coeffs(n, k)
    M = a_matrix_a_field(n, k)
    evals, evecs = np.linalg.eigh(0.5 * (M + M.T))
    centers = np.array([-k, 1.0, k + n - 2])
    dists = np.abs(evals[:, None] - centers)
    assert np.max(dists.min(axis=1)) <= 1e-8, f"an eigenvalue of A on H_({n},{k}) is off the predicted values"
    which = np.argmin(dists, axis=1)
    if k == 1:
        which[which == 2] = 1   # H_{n,1,3} is trivial; for n = 2, k = 1 the values 1 and k+n-2 collide
    return tuple(_combine(evecs[:, which == j].T, B) for j in range(3))


def helmholtz_split_svd(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the divergence-free part of H_{n,k} and of its complement: the
    null and row spaces of the divergence map, with the rank counting singular
    values above 1e-10 max(1, s_max)."""
    B = vector_space_coeffs(n, k)
    Dmap = sum(diff_matrix(n, k, i) @ B[:, i, :].T for i in range(n))
    _, s, vh = np.linalg.svd(Dmap)
    rank = int(np.sum(s > 1e-10 * max(1.0, s[0])))
    return _combine(vh[rank:], B), _combine(vh[:rank], B)


def subspace_angle(C1: np.ndarray, C2: np.ndarray, G: np.ndarray) -> float:
    """Deviation of the spans of two stacks of same-degree fields (dim, n, M_k): 1 - smallest
    principal cosine, by an SVD of their L2 pairings under the moment Gram G (1 when
    the dims differ)."""
    if len(C1) != len(C2):
        return 1.0
    if len(C1) == 0:
        return 0.0
    s = np.linalg.svd(_field_pairs(C1, C2, G), compute_uv=False)
    return float(np.max(np.abs(1.0 - s)))


def eigenfield_by_gram_pairing(n: int, k: int, i: int, rng: np.random.Generator) -> np.ndarray:
    """Coefficients (n, M_k) of ``random_eigenfield``'s draw by the monomial route it
    replaced: N(0, I) in the coordinates of ``vector_space_coeffs``, paired with
    the eigenspace's fields under ``gram``, normalized to unit tangential energy."""
    from spherestab.operator import eigenspaces

    S = eigenspaces(n, k)[i - 1]
    B = vector_space_coeffs(n, k)
    g = rng.normal(size=len(B)) @ B.reshape(len(B), -1)
    c = _field_pairs(g.reshape(1, n, -1), S.coeffs, gram(n, k))[0]
    c /= np.linalg.norm(c)
    c /= np.sqrt(laplace_eigenvalue(n, k))
    return np.einsum("a,aim->im", c, S.coeffs)


def h_field_by_basis(n: int, kmax: int, rng: np.random.Generator) -> dict[int, np.ndarray]:
    """Blocks {k: (n, M_k)} of ``random_h_field``'s draw by the monomial route it replaced:
    N(0, I) in the coordinates of ``vector_space_coeffs`` for each k."""
    blocks = {}
    for k in range(1, kmax + 1):
        B = vector_space_coeffs(n, k)
        blocks[k] = (rng.normal(size=len(B)) @ B.reshape(len(B), -1)).reshape(n, -1)
    return blocks


def exps_enumerated(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All exponents of total degree exactly k, in sorted order, enumerated as
    multisets of k coordinates."""
    out = []
    for combo in combinations_with_replacement(range(n), k):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# cyclic Jacobi
# ---------------------------------------------------------------------------

# cyclic Jacobi converges quadratically: the forms of n = 4 maps settle in
# about 4 sweeps, so reaching this cap means a bug, not a hard input
JACOBI_SWEEPS = 30


def jacobi_eigenvalues(G: np.ndarray) -> tuple[np.ndarray, int]:
    """Eigenvalues (ascending, shape (N, k)) of node-last symmetric k x k forms,
    and the number of sweeps taken.

    One cyclic Jacobi run over all nodes at once, eigenvalues only.  Each
    rotation zeroes the (p, q) entry b with t = b / (d + copysign(hypot(d, b), d)),
    d = (a_qq - a_pp) / 2 (t = 0 when d = b = 0), c = 1/sqrt(1 + t^2) and
    s = t c.  Sweeps stop once sum |off-diagonal| <= eps sum |diagonal| at
    every node; a node holding a NaN returns NaN, as LAPACK does.
    """
    k = G.shape[0]
    A = G.copy()
    pairs = [(p, q) for p in range(k) for q in range(p + 1, k)]
    eps = np.finfo(float).eps
    sweeps = 0
    while True:
        off = sum(np.abs(A[p, q]) for p, q in pairs)
        if not np.any(off > eps * sum(np.abs(A[p, p]) for p in range(k))):
            break
        if sweeps == JACOBI_SWEEPS:
            raise SolverError(f"Jacobi eigen-solve did not converge in {JACOBI_SWEEPS} sweeps")
        sweeps += 1
        for p, q in pairs:
            b = A[p, q]
            d = 0.5 * (A[q, q] - A[p, p])
            den = d + np.copysign(np.hypot(d, b), d)
            t = b / np.where(den == 0.0, 1.0, den)  # den = 0 only where d = b = 0
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            tb = t * b
            A[p, p] -= tb
            A[q, q] += tb
            A[p, q] = A[q, p] = 0.0
            for r in range(k):
                if r != p and r != q:
                    arp, arq = A[r, p], A[r, q]
                    A[r, p], A[r, q] = c * arp - s * arq, s * arp + c * arq
                    A[p, r], A[q, r] = A[r, p], A[r, q]
    lam = np.stack([A[p, p] for p in range(k)], axis=1) + 0.0 * off[:, None]  # keeps a NaN a NaN
    return np.sort(lam, axis=1), sweeps
