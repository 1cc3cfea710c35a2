"""Scalar and vector spherical harmonics as homogeneous harmonic polynomials.

Bases are built per (n, k) by solving the Laplace constraint on monomial
coefficients and orthonormalizing against the exact moment inner product,
and kept, read-only, in the bounded table cache of
:mod:`spherestab.polynomials`.  The orthonormalization is CholQR2 (Fukaya et al.,
2014): two passes of K <- L^-1 K, with L the Cholesky factor of the Gram
matrix K G K^t of the rows K under the moment matrix G.  Degree-k
restrictions satisfy -Lap_S psi = lambda_{n,k} psi with
lambda_{n,k} = k(k+n-2).  Analysis, the harmonic extension and its
energies, grad u_h(0) and the Poincare deficit take poly maps only and
are exact on their coefficient stacks; :attr:`SphereMap.stack` refuses
any other map.

Degree-k vector fields are held by their coordinates in the candidates
e_j psi_b, the orthonormal scalar basis placed in each component j.  For
k >= 2 the candidates are an orthonormal basis of H_{n,k}; at k = 1 the
basis of H_{n,1} is the orthonormal complement of the radial field among
them (:func:`degree1_coords`).  A :class:`Subspace` stores these
coordinates, and :func:`candidate_coeffs`, the one conversion to monomial
coefficients, runs only where a caller needs a polynomial.
:func:`vector_space_coeffs` is the basis of H_{n,k} as a dense monomial
tensor, for the benchmark's layer timing and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrityError
from .homogeneous import Stack, energy_gram, l2_gram
from .polynomials import grad_index, gram, gram_rect, linear_order, table_cache
from .spheremap import SphereMap, stack_map

__all__ = [
    "Subspace",
    "harmonic_dimension",
    "laplace_eigenvalue",
    "scalar_basis_coeffs",
    "candidate_coeffs",
    "degree1_coords",
    "vector_space_coeffs",
    "HarmonicExpansion",
    "analyze",
    "synthesize",
    "harmonicize",
    "grad_origin",
    "poincare_deficit",
    "harmonic_energy_check",
]

_NULL_TOL = 1e-10


@dataclass
class Subspace:
    """An L2-orthonormal set of degree-k vector-harmonic fields, held by their
    coordinates in the candidates e_j psi_b (:func:`candidate_coeffs`)."""

    n: int
    k: int
    coords: np.ndarray            # (dim, n h_k): row a holds field a over the candidates (j, b)
    eigenvalue: float | None = None

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def coeffs(self) -> np.ndarray:
        """The fields as a (dim, n, M_k) monomial coefficient tensor, built on each call."""
        return candidate_coeffs(self.n, self.k, self.coords)

    def element(self, combo: np.ndarray) -> SphereMap:
        """Linear combination of basis fields with the given coefficients."""
        vec = candidate_coeffs(self.n, self.k, (np.asarray(combo, dtype=float) @ self.coords)[None])
        return stack_map(Stack(self.n, 1, self.n, {self.k: vec}))


def candidate_coeffs(n: int, k: int, coords: np.ndarray) -> np.ndarray:
    """Monomial coefficients (r, n, M_k) of the fields with coordinates (r, n h_k) in the
    candidates e_j psi_b, the degree-k scalar basis psi placed in each component j."""
    S = scalar_basis_coeffs(n, k)
    return (coords.reshape(-1, len(S)) @ S).reshape(len(coords), n, S.shape[1])


def laplace_eigenvalue(n: int, k: int) -> int:
    return k * (k + n - 2)


def harmonic_dimension(n: int, k: int) -> int:
    """dim of degree-k scalar spherical harmonics: C(n+k-1,k) - C(n+k-3,k-2)."""
    if k == 0:
        return 1
    a = math.comb(n + k - 1, k)
    b = math.comb(n + k - 3, k - 2) if k >= 2 else 0
    return a - b


def _laplacian(n: int, k: int) -> np.ndarray:
    """The Laplacian on degree-k coefficients, a (M_{k-2} x M_k) matrix: the
    ``grad_index`` gather taken twice along each x_i.  Row r holds
    (r_i + 1)(r_i + 2) in the column of r + 2 e_i, each entry one exact
    integer product."""
    src1, coef1 = (a.reshape(n, -1) for a in grad_index(n, k - 1))
    src2, coef2 = (a.reshape(n, -1) for a in grad_index(n, k))
    i = np.arange(n)[:, None]
    rows = src1.shape[1]
    L = np.zeros((rows, math.comb(n + k - 1, k)))
    L[np.arange(rows), src2[i, src1]] = coef1 * coef2[i, src1]
    return L


@table_cache
def scalar_basis_coeffs(n: int, k: int) -> np.ndarray:
    """Orthonormal degree-k scalar harmonics as rows over monomial coefficients."""
    M = math.comb(n + k - 1, k)
    if k <= 1:
        kernel = np.eye(M)
    else:
        # kernel of the Laplacian = harmonic coefficients
        _, s, vh = np.linalg.svd(_laplacian(n, k))
        ncon = int(np.sum(s > _NULL_TOL * s[0]))
        kernel = vh[ncon:]
    expected = harmonic_dimension(n, k)
    if kernel.shape[0] != expected:
        raise IntegrityError(
            f"harmonic space dim mismatch at (n={n}, k={k}): got {kernel.shape[0]}, want {expected}"
        )
    basis = _cholqr2(kernel, gram(n, k))
    if k == 0:
        basis = np.abs(basis)  # fix the constant to +1
    return basis


def _field_pairs(C1: np.ndarray, C2: np.ndarray, G: np.ndarray) -> np.ndarray:
    """L2 pairings sum_{i,m,p} C1[a,i,m] G[m,p] C2[b,i,p] of two stacks of fields, as one matmul
    (scalar rows (a, m) pair the same way)."""
    return (C1 @ G).reshape(len(C1), -1) @ C2.reshape(len(C2), -1).T


def _cholqr2(rows: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Rows of a stack orthonormalized under the moment Gram G: K <- L^-1 K with
    L L^t = K G K^t, twice (the second pass restores orthogonality to roundoff).
    The Gram matrix is symmetrized first, so both triangles inform L."""
    for _ in range(2):
        P = _field_pairs(rows, rows, G)
        try:
            L = np.linalg.cholesky(0.5 * (P + P.T))
        except np.linalg.LinAlgError:
            raise IntegrityError(f"orthonormalization lost rank: {len(rows)} rows") from None
        rows = np.linalg.solve(L, rows.reshape(len(rows), -1)).reshape(rows.shape)
    return rows


@table_cache
def degree1_coords(n: int) -> np.ndarray:
    """Orthonormal basis of H_{n,1} in the candidates e_j psi_b, shape (n^2 - 1, n^2): the
    complement of the radial field, whose coordinates are con[j, b] = avg psi_b x_j."""
    con = (scalar_basis_coeffs(n, 1) @ linear_order(gram(n, 1))).T.reshape(1, -1)
    return np.linalg.svd(con)[2][1:]


@table_cache
def vector_space_coeffs(n: int, k: int) -> np.ndarray:
    """Orthonormal basis of H_{n,k} as a (dim, n, M_k) coefficient tensor.

    Candidates are e_i (x) psi_j; the mean-zero condition is automatic for
    k >= 1 and the radial moment constraint <w, x> integrating to zero only
    removes one dimension at k = 1 (:func:`degree1_coords`).
    """
    if k < 1:
        raise ValueError("vector harmonics need k >= 1")
    if k == 1:
        return candidate_coeffs(n, 1, degree1_coords(n))
    S = scalar_basis_coeffs(n, k)   # (G, M)
    G_cnt, M = S.shape
    cand = np.zeros((n * G_cnt, n, M))
    for i in range(n):
        cand[i * G_cnt : (i + 1) * G_cnt, i] = S
    return cand


# ---------------------------------------------------------------------------
# analysis / synthesis
# ---------------------------------------------------------------------------

@dataclass
class HarmonicExpansion:
    """Blocks of coefficients against the cached orthonormal scalar bases."""

    n: int
    m: int
    kmax: int
    blocks: dict[int, np.ndarray]   # k -> (m, G_{n,k})


def analyze(u: SphereMap, kmax: int) -> HarmonicExpansion:
    """Expand a poly map in spherical harmonics up to degree kmax, exactly (moment-based)."""
    n, m = u.n, u.m
    blocks: dict[int, np.ndarray] = {}
    for k in range(kmax + 1):
        S = scalar_basis_coeffs(n, k)
        blk = np.zeros((m, S.shape[0]))
        for d, C in u.stack.blocks.items():
            if (d + k) % 2 == 0:   # one product per component; one matrix product sums in another order
                blk += (S @ gram_rect(n, k, d) @ C[0, :, :, None])[..., 0]
        blocks[k] = blk
    return HarmonicExpansion(n, m, kmax, blocks)


def synthesize(e: HarmonicExpansion) -> SphereMap:
    """Poly-backed map whose components are the expansion's harmonic sums."""
    # one product per component; one matrix product sums in another order
    blocks = {k: (blk[:, None] @ scalar_basis_coeffs(e.n, k)).reshape(1, e.m, -1) for k, blk in e.blocks.items()}
    return stack_map(Stack(e.n, 1, e.m, blocks))


def harmonicize(u: SphereMap) -> SphereMap:
    """The componentwise harmonic extension of a poly map's restriction,
    itself represented as a polynomial map (exact)."""
    return synthesize(analyze(u, u.degree()))


def grad_origin(u: SphereMap) -> np.ndarray:
    """grad u_h(0) = n * integral of u (x) x, an (m, n) matrix."""
    return u.n * u.stack.first_moments()[0]


# ---------------------------------------------------------------------------
# Poincare deficit and harmonic-extension energies
# ---------------------------------------------------------------------------

def poincare_deficit(u: SphereMap) -> float:
    """(1/(n-1)) * tangential energy - variance; nonnegative up to roundoff."""
    S = u.stack
    mean = S.integral()[0]
    var = float(l2_gram(S, S)[0, 0]) - float(mean @ mean)
    return float(energy_gram(S, S)[0, 0]) / (u.n - 1) - var


@dataclass(frozen=True)
class HarmonicEnergyReport:
    ball_energy: float          # avg over B_1 of |grad u_h|^2
    surface_energy: float       # avg over S of |grad u_h|^2
    tangential_energy: float    # avg over S of |grad_T u|^2
    bounds_ok: bool


def harmonic_energy_check(u: SphereMap) -> HarmonicEnergyReport:
    """Energies of the harmonic extension of a poly map and the extension inequalities.

    ball <= n/(n-1) * tangential <= surface <= 2 * tangential to 1e-9, with
    equalities tight on degree-1 fields.
    """
    n = u.n
    e = analyze(u, u.degree())
    ball = surface = tang = 0.0
    for k, blk in e.blocks.items():
        if k == 0:
            continue
        nrm = float(np.sum(blk * blk))
        lam = laplace_eigenvalue(n, k)
        ball += n * k * nrm
        surface += (lam + k * k) * nrm
        tang += lam * nrm
    c = n / (n - 1)
    tol = 1e-9
    ok = (ball <= c * tang + tol) and (c * tang <= surface + tol) and (surface <= 2 * tang + tol)
    return HarmonicEnergyReport(ball, surface, tang, ok)
