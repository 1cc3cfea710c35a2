"""Maps from S^{n-1} into R^m and their pointwise surface calculus.

A map is backed either by exact polynomials, held only as their coefficient
stacks (:class:`spherestab.homogeneous.Stack`), by sampled values + ambient
Jacobians on a fixed grid, or by callables (used for Moebius maps and
compositions; not serializable).

The deficit densities are taken in a tangent frame built per node from
X on the fly: with s = sign(x_n) and v = s x + e_n (so |v|^2 >= 2), E is
the first n-1 columns of the Householder reflection I - 2 v v^t / |v|^2.
Its columns are an orthonormal basis of x^perp and det[E | x] = s.  With
A = J E = J[:, :-1] - (2/|v|^2) (J v) v[:-1]^t:

    first fundamental form   G = A^t A, (n-1) x (n-1)
    principal stretches      square roots of the eigenvalues of G: one
                             hypot rotation at n = 3, the closed
                             trigonometric form at n = 4, LAPACK's
                             eigvalsh only for n >= 5
    perimeter density        sqrt(det G)
    Dirichlet density        (tr G / (n-1))^((n-1)/2)
    volume-form integrand    det([A | u]) s = det(J P + u x^t)

The two linear kernels stay frame-free, with the projector P = I - x x^t:
the tangential Jacobian J P = J - (J x) x^t and the surface divergence
tr(J P); they contract with broadcasts and batched matmuls, and
:func:`_node_dots` sums their per-node products.  They serve the deficits,
the Moebius solvers and the families; the quadratic forms and the
operator A act on coefficient stacks and take no samples.  The
determinant convention is fixed so that the identity map has signed
volume +1 in every dimension.

Every map carries its Jacobians: a sampled or callable map without them
is refused where it is made, since every deficit is a functional of the
gradient.  :meth:`SphereMap.at` is the one reader at arbitrary points,
values (N, m) and a thunk for the Jacobians (N, m, n), and
:meth:`SphereMap.sample` the one reader on a grid, built on it.  A poly
map's arrays are transposed views of its one node-last monomial table, a
callable map's its own arrays.

:func:`node_bundle` computes the deficit integrals of one map on one grid
once; the bundle of the last poly-backed map asked for is kept in a single
slot, so the report and the standalone functionals sample it once.  The
bundle streams the grid in blocks of 8 192 nodes, node-last: a poly map is
evaluated block by block, each block's arrays the contiguous rows of its
own monomial table, and another map's one sample is copied node-last a
block at a time.  Only the densities are kept the length of the grid, to
be integrated once each, so the report is bit-identical to one pass over
the whole grid in a fraction of its memory (a traced peak of 80 rather
than 384 bytes per node on the n = 4 grid of resolution 48).  The
principal stretches are computed only for the callers that read them.
The public kernels take and return the row-major arrays of
:meth:`SphereMap.sample`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from .homogeneous import Stack
from .polynomials import Poly, evaluate, linear_order
from .quadrature import SphereGrid, default_sphere_grid, integrate

__all__ = [
    "SphereMap",
    "NodeBundle",
    "node_bundle",
    "identity_map",
    "poly_map",
    "stack_map",
    "linear_map",
    "sampled_map",
    "callable_map",
    "projectors",
    "tangential_jacobians",
    "surface_divergence",
    "principal_stretch_values",
    "volume_integrand",
    "area_integrand",
    "dirichlet_integrand",
]


@dataclass(frozen=True)
class SampledBacking:
    grid: SphereGrid
    values: np.ndarray       # (N, m)
    jacobians: np.ndarray    # (N, m, n) ambient Jacobians


@dataclass(frozen=True)
class CallableBacking:
    value_fn: Callable[[np.ndarray], np.ndarray]    # values (N, m) at the rows of X
    # values and a thunk for the Jacobians (N, m, n) at the same points, from one pass
    joint_fn: Callable[[np.ndarray], tuple[np.ndarray, Callable[[], np.ndarray]]]


@dataclass(frozen=True, eq=False)  # identity semantics: node bundles are keyed on the map object
class SphereMap:
    """A map S^{n-1} -> R^m with one of three backings.

    A poly map is backed by its coefficient stacks, a batch of one with no
    all-zero degree block; one monomial table of its blocks and of its
    Jacobian blocks gives its values and Jacobians at any points.
    """

    n: int
    m: int
    backing: Stack | SampledBacking | CallableBacking

    # -- queries -----------------------------------------------------------
    @property
    def is_poly(self) -> bool:
        return isinstance(self.backing, Stack)

    @property
    def is_sampled(self) -> bool:
        return isinstance(self.backing, SampledBacking)

    @property
    def stack(self) -> Stack:
        """Coefficient stacks of a poly-backed map: its one representation."""
        if not self.is_poly:
            raise TypeError("coefficient stacks only available for poly-backed maps")
        return self.backing

    @property
    def components(self) -> tuple[Poly, ...]:
        """The components of a poly-backed map as Polys viewing the stack's blocks."""
        return tuple(self.stack.polys())

    def degree(self) -> int:
        """Top degree of the components of a poly-backed map."""
        return max(self.stack.blocks, default=0)

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Values at arbitrary points, shape (N, m)."""
        pts = np.atleast_2d(points)
        if self.is_poly:
            return evaluate([(self.m, self.backing.blocks)], pts).T.copy()
        if isinstance(self.backing, CallableBacking):
            return self.backing.value_fn(pts)
        raise TypeError("sampled maps only carry values at their own grid nodes")

    def at(self, points: np.ndarray) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
        """Values (N, m) at the rows of points and a thunk for the Jacobians (N, m, n) there.

        A poly map evaluates both in one monomial table and returns
        transposed views of it; a callable map returns its joint function's
        arrays.  Neither is copied.
        """
        pts = np.atleast_2d(points)
        if self.is_poly:
            m, S = self.m, self.backing
            table = evaluate([(m, S.blocks), (m * self.n, S.jac)], pts)
            return table[:m].T, lambda: table[m:].reshape(m, self.n, -1).transpose(2, 0, 1)
        if isinstance(self.backing, CallableBacking):
            return self.backing.joint_fn(pts)
        raise TypeError("sampled maps only carry values at their own grid nodes")

    def sample(self, grid: SphereGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(nodes, values (N, m), Jacobians (N, m, n)) on the given grid: a sampled
        map's own arrays, another map's from :meth:`at` its nodes."""
        if self.is_sampled:
            b = self.backing
            if b.grid is not grid and not np.array_equal(b.grid.nodes, grid.nodes):
                raise ValueError("sampled map is bound to its own grid")
            return b.grid.nodes, b.values, b.jacobians
        U, jac = self.at(grid.nodes)
        return grid.nodes, U, jac()

    @property
    def grid(self) -> SphereGrid | None:
        return self.backing.grid if self.is_sampled else None

    # -- algebra (poly maps) -------------------------------------------------
    def __add__(self, other: "SphereMap") -> "SphereMap":
        if not (self.is_poly and other.is_poly):
            raise TypeError("map addition requires poly backing")
        if (self.n, self.m) != (other.n, other.m):
            raise ValueError("map addition requires maps of one shape")
        blocks = dict(self.stack.blocks)
        for d, C in other.stack.blocks.items():
            blocks[d] = blocks[d] + C if d in blocks else C
        return stack_map(Stack(self.n, 1, self.m, blocks))

    def scale(self, a: float) -> "SphereMap":
        if not self.is_poly:
            raise TypeError("scaling requires poly backing")
        return stack_map(Stack(self.n, 1, self.m, {d: a * C for d, C in self.stack.blocks.items()}))


def stack_map(S: Stack) -> SphereMap:
    """The poly map of a single field given as coefficient stacks; all-zero degree blocks are dropped."""
    blocks = {d: C for d, C in S.blocks.items() if C.any()}
    return SphereMap(S.n, S.width, Stack(S.n, 1, S.width, blocks))


def poly_map(n: int, components) -> SphereMap:
    """The poly map with the given Poly components."""
    comps = tuple(components)
    return stack_map(Stack.of([comps]) if comps else Stack(n, 1, 0, {}))


def sampled_map(grid: SphereGrid, values: np.ndarray, jacobians: np.ndarray) -> SphereMap:
    """The map with the given values (N, m) and ambient Jacobians (N, m, n) at the
    grid's nodes; a map without Jacobians is refused."""
    if jacobians is None:
        raise ValueError("map has no gradient data")
    values, jacobians = np.asarray(values, dtype=float), np.asarray(jacobians, dtype=float)
    want = (grid.size, values.shape[1], grid.n)
    if jacobians.shape != want:
        raise ValueError(f"jacobians must have shape {want} for the grid's {grid.size} nodes, not {jacobians.shape}")
    return SphereMap(grid.n, values.shape[1], SampledBacking(grid, values, jacobians))


def callable_map(n: int, m: int, value_fn, jacobian_fn=None) -> SphereMap:
    """The map given by value_fn(X) (N, m) and jacobian_fn(X) (N, m, n) at the rows
    of X; a map without jacobian_fn is refused."""
    if jacobian_fn is None:
        raise ValueError("map has no gradient data")
    values = lambda X: np.asarray(value_fn(X))
    return SphereMap(n, m, CallableBacking(values, lambda X: (values(X), lambda: np.asarray(jacobian_fn(X)))))


def identity_map(n: int) -> SphereMap:
    return linear_map(np.eye(n))


def linear_map(A: np.ndarray) -> SphereMap:
    """The map x -> A x as a poly-backed SphereMap."""
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    return stack_map(Stack(n, 1, m, {1: linear_order(A)[None].copy()}))


def _grid_for(u: SphereMap, grid: SphereGrid | None) -> SphereGrid:
    """The given grid, else the map's own grid, else the default grid of its dimension."""
    return grid or u.grid or default_sphere_grid(u.n)


# ---------------------------------------------------------------------------
# node bundles: the deficit integrals of one map on one grid
# ---------------------------------------------------------------------------

# The one block rule: work over the nodes of a grid goes in blocks of nodes
# sized from this many bytes, half glibc's 128 KiB mmap threshold.  A vector
# of one value per node of a block stays under that threshold, so it comes
# from the heap and the next block reuses it instead of faulting in fresh
# pages.  Only those vectors are held to it: the node bundle's blocks of
# several rows (a poly map's monomial table, J, A and G) and the Moebius
# residual's (rows x nodes) arrays (moebius._chart_residual) are larger.
_BLOCK_BYTES = 1 << 16
# nodes per block of the node bundle; a multiple of polynomials._CHUNK, so a
# poly map's values come out of the same monomial tables as in one pass over
# the whole grid, and every per-node value is bit-identical to that pass
_BLOCK_NODES = _BLOCK_BYTES // 8


class NodeBundle:
    """The deficit integrals of one map on one grid, each computed once.

    The grid is worked through in blocks of :data:`_BLOCK_NODES` nodes
    (:func:`_node_last_blocks`).  Per block the frame Jacobians give the
    first fundamental forms and every density; only the densities are
    written into rows the length of the grid, and each row is integrated
    once with :func:`quadrature.integrate`.  So every field equals the
    integral of its density over the whole grid, bit for bit, while no
    other per-node array outlives its block.  The principal stretches (an
    eigen-solve for n >= 4) and their three integrals ``delta``,
    ``stretch_gap_norm`` and ``delta_isom`` are computed only when asked
    for with ``stretches``; otherwise the three are None.  The bundle holds
    these scalars alone, and no reference to the map.
    """

    def __init__(self, u: SphereMap, grid: SphereGrid, stretches: bool = False):
        n = u.n
        p = 2 * (n - 2) if n >= 3 else 2
        square = u.m == n
        # rows: area, Dirichlet, |grad_T u|^p, for maps into R^n the volume form and,
        # with the stretches, (largest stretch - 1)^2, its positive part squared and
        # sum (stretch - 1)^2
        dens = np.empty((3 + square + 3 * stretches, grid.size))
        norm_gap = 0.0
        for blk, U, J in _node_last_blocks(u, grid):
            A, s = _frame_jacobians(J, grid.nodes[blk])
            G = _forms(A)
            trace = np.trace(G)
            d = dens[:, blk]
            d[0] = _area_density(G)
            d[1] = _dirichlet_density(trace, n)
            d[2] = trace ** (p / 2.0)
            if square:
                d[3] = _volume_density(U, A, s)
            if stretches:
                lam = _stretches(G)
                top = lam[-1] - 1.0
                pos = np.clip(top, 0.0, None)
                d[-3] = top * top
                d[-2] = pos * pos
                d[-1] = np.sum((lam - 1.0) ** 2, axis=0)
            norm_gap = np.maximum(norm_gap, np.max(np.abs(np.sqrt(sum(Ui * Ui for Ui in U)) - 1.0)))
        area, dirichlet, grad_p, *rest = (integrate(grid, row) for row in dens)
        self.grid = grid
        self.perimeter, self.dirichlet = area, dirichlet
        self.volume = rest.pop(0) if square else None
        self.stretches = stretches
        # the L2 norms of (largest stretch - 1), of its positive part and of the stretches - 1
        self.stretch_gap_norm, self.delta, self.delta_isom = (
            tuple(float(np.sqrt(x)) for x in rest) if stretches else (None, None, None))
        self.grad_lp_exponent = p
        self.grad_lp_norm = grad_p ** (1.0 / p)       # L^p norm of grad_T u
        self.unit_norm = bool(norm_gap <= 1e-6)


def _node_last_blocks(u: SphereMap, grid: SphereGrid):
    """(block, values (m, k), Jacobians (m, n, k)) of u on consecutive blocks of
    the grid's nodes, node-last and contiguous.

    A poly map is evaluated by :meth:`SphereMap.at` on each block's nodes, so
    every node once; its arrays are the rows of the block's monomial table.
    Another map is sampled once on the whole grid, as a callable map must be,
    and its arrays are copied node-last block by block.
    """
    if not u.is_poly:
        _, U, J = u.sample(grid)
    for a in range(0, grid.size, _BLOCK_NODES):
        blk = slice(a, a + _BLOCK_NODES)
        if u.is_poly:
            Ub, jac = u.at(grid.nodes[blk])
            yield blk, Ub.T, jac().transpose(1, 2, 0)
        else:
            yield blk, np.ascontiguousarray(U[blk].T), np.ascontiguousarray(J[blk].transpose(1, 2, 0))


# (map weakref, bundle) of the last poly-backed map asked for: one slot for
# the whole process, so a caller holding many maps keeps one bundle alive,
# and none once that map is gone
_slot: tuple[weakref.ref, NodeBundle] | None = None


def _drop_slot(ref: weakref.ref) -> None:
    global _slot
    if _slot is not None and _slot[0] is ref:
        _slot = None


def node_bundle(u: SphereMap, grid: SphereGrid | None = None, stretches: bool = False) -> NodeBundle:
    """The node bundle of u on the grid of :func:`_grid_for`, with the
    stretch integrals if ``stretches``.

    Poly-backed maps hit the slot when the same map object is asked for on
    the same grid object, unless the stretches are asked for and the slot's
    bundle has none; then the map is bundled once more, stretches included.
    Callable and sampled maps are bundled afresh on every call (a callable
    may be impure).
    """
    global _slot
    g = _grid_for(u, grid)
    if not u.is_poly:
        return NodeBundle(u, g, stretches)
    hit = _slot
    if hit is not None and hit[0]() is u and hit[1].grid is g and (hit[1].stretches or not stretches):
        return hit[1]
    _slot = None  # free the old bundle before sampling
    bundle = NodeBundle(u, g, stretches)
    _slot = (weakref.ref(u, _drop_slot), bundle)
    return bundle


# ---------------------------------------------------------------------------
# pointwise geometry kernels (vectorized over nodes)
# ---------------------------------------------------------------------------

def projectors(X: np.ndarray) -> np.ndarray:
    """P = I - x x^t per node, shape (N, n, n)."""
    n = X.shape[1]
    return np.eye(n) - X[:, :, None] * X[:, None, :]


def _jx(J: np.ndarray, X: np.ndarray) -> np.ndarray:
    """J x per node, (N, m), as an explicit sum over the n columns: elementwise
    products and sums round alike on any memory layout of J, where a batched
    matmul rounds a strided stack differently from a contiguous one."""
    Jx = J[:, :, 0] * X[:, :1]
    for l in range(1, X.shape[1]):
        Jx = Jx + J[:, :, l] * X[:, l:l + 1]
    return Jx


def tangential_jacobians(J: np.ndarray, X: np.ndarray) -> np.ndarray:
    """J P = J - (J x) x^t per node."""
    return J - _jx(J, X)[:, :, None] * X[:, None, :]


def _node_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Per node a, the sum of A[a] * B[a] over the other axes, as one batched
    matmul: no temporary the size of A."""
    N = len(A)
    return (A.reshape(N, 1, -1) @ B.reshape(N, -1, 1)).ravel()


# The frame kernels work node-last: an (r, c, N) stack keeps each entry's
# N values contiguous, so every product of the small matrices is a
# handful of vector operations.

def _frame_jacobians(J: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A = J E node-last, shape (m, n-1, N), and s = det[E | x] = sign(x_n),
    from node-last Jacobians J (m, n, N)."""
    m, n = J.shape[:2]
    s = np.where(X[:, -1] < 0.0, -1.0, 1.0)
    v = np.multiply(X.T, s, order="C")           # node-last with contiguous rows, as J
    v[-1] += 1.0
    c = 2.0 / np.sum(v * v, axis=0)
    A = np.empty((m, n - 1, X.shape[0]))
    for i in range(m):
        Jv = sum(J[i, l] * v[l] for l in range(n)) * c
        A[i] = J[i, :-1] - Jv * v[:-1]
    return A, s


def _forms(A: np.ndarray) -> np.ndarray:
    """G = A^t A node-last, shape (n-1, n-1, N)."""
    k = A.shape[1]
    G = np.empty((k, k, A.shape[2]))
    for i in range(k):
        for j in range(i, k):
            G[i, j] = G[j, i] = sum(A[r, i] * A[r, j] for r in range(A.shape[0]))
    return G


def _det(M) -> np.ndarray:
    """Determinants of node-last k x k matrices, in closed form for k <= 3.

    M is a node-last (k, k, N) stack or a sequence of its k rows (k, N).
    """
    k = len(M)
    if k == 1:
        return M[0][0]
    if k == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    if k == 3:
        return (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
                - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
                + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))
    return np.linalg.det(np.moveaxis(np.asarray(M), -1, 0))


def _stretches(G: np.ndarray) -> np.ndarray:
    """Principal stretches (ascending) node-last, shape (n-1, N), from node-last forms G.

    For 2 x 2 forms [[a, b], [b, c]] the eigenvalues are m -+ hypot((a-c)/2, b)
    with m = (a+c)/2, which has no cancellation near the identity: one exact
    Jacobi rotation.  3 x 3 forms (n = 4) take the closed form of
    :func:`_eigenvalues_3x3`; only larger ones (n >= 5, a dimension with
    no grid) take LAPACK's ``eigvalsh``.
    """
    k = G.shape[0]
    if k == 1:
        lam = G[0]
    elif k == 2:
        m, h = 0.5 * (G[0, 0] + G[1, 1]), np.hypot(0.5 * (G[0, 0] - G[1, 1]), G[0, 1])
        lam = np.stack([m - h, m + h])
    elif k == 3:
        lam = _eigenvalues_3x3(G)
    else:
        lam = np.linalg.eigvalsh(np.moveaxis(G, -1, 0)).T
    return np.sqrt(np.clip(lam, 0.0, None))


def _eigenvalues_3x3(G: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending, node-last (3, N)) of node-last symmetric 3 x 3 forms.

    Smith's trigonometric solution on the deviator B = G - q I, q = tr G / 3,
    in the form of Harari & Albocher (2023): the eigenvalues are
    q + 2 sqrt(J2/3) cos(theta + 2 pi j/3), with J2 = tr B^2 / 2 and
    theta = atan2(sqrt(Delta), 3 sqrt(3) det B) / 3 in [0, pi/3].  The
    discriminant Delta = prod (lam_i - lam_j)^2 = 4 J2^3 - 27 det(B)^2
    cancels where eigenvalues meet; it is taken instead as the Gram
    determinant of {I, B, B^2} under the Frobenius product.  By
    Cauchy-Binet that is a sum of squared 3 x 3 minors of their entries,
    the off-diagonal rows weighted 2 (each entry counts twice) and the
    minors with no nonzero in I's column left out: the minor of the three
    diagonal rows, 2 x the nine with two diagonal rows and one off-diagonal
    row, and 12 x the three with two off-diagonal rows (each met from all
    three diagonal rows).  As sums of squares, J2 and Delta keep full
    accuracy at repeated eigenvalues.  Written as q + r (-cos t -
    sqrt3 sin t), q + r (sqrt3 sin t - cos t) and q + 2 r cos t, with
    r = sqrt(J2/3), the three come out ascending; the middle one is capped
    at the top one, which it meets at t = pi/3, against roundoff.  A node
    holding a NaN returns NaN and leaves the others untouched.
    """
    a, b, c = G[0, 0], G[1, 1], G[2, 2]
    d, e, f = G[0, 1], G[0, 2], G[1, 2]
    q = (a + b + c) / 3.0
    x0, x1, x2 = a - q, b - q, c - q            # the diagonal of B
    dab, dbc, dca = a - b, b - c, c - a          # its differences, exactly those of G
    dd, ee, ff = d * d, e * e, f * f
    J2 = (dab * dab + dbc * dbc + dca * dca) / 6.0 + dd + ee + ff
    det = x0 * x1 * x2 + 2.0 * d * e * f - x0 * ff - x1 * ee - x2 * dd
    # off-diagonal entries of B^2 and differences of its diagonal (x0 + x1 + x2 = 0)
    off = ((d, e * f - x2 * d), (e, d * f - x1 * e), (f, d * e - x0 * f))
    diag = ((dab, ee - ff - x2 * dab), (dbc, dd - ee - x0 * dbc), (dca, ff - dd - x1 * dca))
    D0 = dab * diag[1][1] - dbc * diag[0][1]
    # the squared minors with two diagonal rows and with one
    two = sum((db * s - ds * bo) ** 2 for db, ds in diag for bo, s in off)
    one = sum((b1 * s2 - b2 * s1) ** 2 for (b1, s1), (b2, s2) in combinations(off, 2))
    t = np.arctan2(np.sqrt(D0 * D0 + 2.0 * two + 12.0 * one), np.sqrt(27.0) * det) / 3.0
    cos, sin = np.cos(t), np.sqrt(3.0) * np.sin(t)
    top = 2.0 * cos
    return q + np.sqrt(J2 / 3.0) * np.stack([-cos - sin, np.minimum(sin - cos, top), top])


def _volume_density(U: np.ndarray, A: np.ndarray, s: np.ndarray) -> np.ndarray:
    """det([A | u]) s per node from node-last values U (n, N), expanded along the
    column u; each minor takes the rows of A as views."""
    n = U.shape[0]
    out = np.zeros(U.shape[1])
    for i in range(n):
        minor = _det([A[r] for r in range(n) if r != i])
        out += minor * U[i] if (n - 1 - i) % 2 == 0 else -minor * U[i]
    return out * s


def _area_density(G: np.ndarray) -> np.ndarray:
    """sqrt(det G) per node from node-last forms G."""
    return np.sqrt(np.clip(_det(G), 0.0, None))


def _dirichlet_density(sq: np.ndarray, n: int) -> np.ndarray:
    """(|grad_T u|^2 / (n-1))^((n-1)/2) from |grad_T u|^2 per node."""
    return (sq / (n - 1)) ** ((n - 1) / 2.0)


def surface_divergence(J: np.ndarray, X: np.ndarray) -> np.ndarray:
    """tr(J P) = tr J - x^t J x per node (square J), each a sum over the n
    coordinates in order, so that any layout of J gives the same bits."""
    Jx, n = _jx(J, X), X.shape[1]
    return sum(J[:, l, l] for l in range(n)) - sum(X[:, l] * Jx[:, l] for l in range(n))


# The density kernels below take the row-major (N, m, n) Jacobians of
# SphereMap.sample and hand the frame kernels a node-last view of them.

def principal_stretch_values(J: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Sorted principal stretches (ascending), shape (N, n-1)."""
    return _stretches(_forms(_frame_jacobians(J.transpose(1, 2, 0), X)[0])).T


def volume_integrand(U: np.ndarray, J: np.ndarray, X: np.ndarray) -> np.ndarray:
    """det(J P + u x^t) per node; integrates to the signed volume V_n."""
    return _volume_density(U.T, *_frame_jacobians(J.transpose(1, 2, 0), X))


def area_integrand(J: np.ndarray, X: np.ndarray) -> np.ndarray:
    """sqrt(det of the tangential first fundamental form) per node."""
    return _area_density(_forms(_frame_jacobians(J.transpose(1, 2, 0), X)[0]))


def dirichlet_integrand(J: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(|grad_T u|^2 / (n-1))^((n-1)/2) per node."""
    return _dirichlet_density(np.trace(_forms(_frame_jacobians(J.transpose(1, 2, 0), X)[0])), X.shape[1])
