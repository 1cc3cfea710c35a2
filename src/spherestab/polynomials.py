"""Monomial spaces, the index maps and Gram matrices between them, and a scalar polynomial type.

A homogeneous block of degree d in n variables is a coefficient vector
over the monomials of degree d in lexicographic order.  A monomial space
is one integer array, ``_exponents(n, d)`` (M_d x n, read-only), built in
closed form; :func:`exps` is its tuple view, for :class:`Poly` terms,
serialization and the tests.  Positions are found by base-b codes of the
exponent rows: the codes of a space ascend, so a lookup is one
``searchsorted``.  On these blocks, differentiation and coordinate
multiplication are index maps between degree spaces, never matrices: the
gradient is a gather on the cached :func:`grad_index`, and the pairing
<f, x> of a stack with x is a scatter-add on the same indices
(:func:`xdot`).  Integrals over S^{n-1} contract the blocks with the
exact moments of :mod:`spherestab.moments`, as floats (the Gram matrices
of :func:`gram_rect` for products of two polynomials).  The coefficient
stacks of :mod:`spherestab.homogeneous`, which back every poly map, are
built on these maps, and :func:`evaluate` gives the values of any rows
of blocks at points from one monomial table.

The tables whose size grows with the degree share one bounded cache,
``table_cache``: the index maps and Gram matrices here, the bases of
:mod:`spherestab.harmonics` and the A-matrices and eigenspaces of
:mod:`spherestab.operator`.  Past 2 MiB it drops the least recently used
entries, but never the 20 newest, so a spectrum sweep holds the working
set of its last blocks rather than every block; a dropped table is
rebuilt bit for bit when asked for again.  Its arrays are read-only.
The small index tables (``_exponents``, ``exps``, ``grad_index``,
``_moments``, ``_exponent_table``), together under 0.25 MiB and looked
up thousands of times per block, keep plain ``lru_cache``s.

:class:`Poly` is one scalar polynomial as ``{degree: block}``, a view with
no algebra: it serves serialization (``SphereMap.components`` views a
map's stack as Polys), the scalar harmonics and evaluation at points.
The package's one polynomial algebra is the coefficient stack; the Poly
algebra of the reference routes that the tests hold the stacks to is in
``tests/poly_oracle.py``.  Two polynomials that agree on the sphere
(e.g. representatives differing by a multiple of |x|^2 - 1) have equal
sphere integrals, so any smooth extension may be used as a
representative.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from functools import lru_cache, wraps
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "Poly",
    "evaluate",
    "exps",
    "linear_order",
    "grad_index",
    "xdot",
    "gram",
    "gram_rect",
]

Exponent = tuple[int, ...]

# nodes per monomial power table in `evaluate`: the table (monomials x
# nodes) then stays in cache and adds little to peak memory on the
# large n = 4 grids; larger chunks measured slower, not faster
_CHUNK = 1024
# the table cache drops entries past 2 MiB, but never the 20 newest.  A
# spectrum block reuses the bases the block before it made after about 17
# newer entries, so with 20 no block rebuilds them (with 12, `spectrum --n 4
# --kmax 14` rebuilt its top scalar bases); a deficit-batch or moebius-fit
# set-up fills under 0.3 MiB and drops nothing
_TABLE_BYTES = 2 << 20
_TABLE_KEEP = 20


# ---------------------------------------------------------------------------
# the one cache of the per-degree tables
# ---------------------------------------------------------------------------

def _freeze(value) -> int:
    """Make every array of a cached value read-only and return its size in bytes.
    A value is an array, an object holding one as ``coords`` (a Subspace, whose
    ``coeffs`` are built from them on each call), or a tuple of these."""
    if isinstance(value, tuple):
        return sum(map(_freeze, value))
    a = getattr(value, "coords", value)
    a.flags.writeable = False
    return a.nbytes


class TableCache:
    """One least-recently-used cache shared by the tables whose size grows with
    the degree: Gram matrices, bases, coordinates and eigenspaces.

    Decorating a function with the instance caches its results by argument.
    Once the entries hold more than ``limit`` bytes, the least recently used
    are dropped, but never the ``keep`` newest.  Every array handed out is
    read-only, so a caller that writes into a shared table raises instead
    of corrupting later users.  Each decorated function's ``cache_clear``
    empties the whole cache.
    """

    def __init__(self, limit: int, keep: int):
        self.limit, self.keep = limit, keep
        self.entries: OrderedDict = OrderedDict()   # (function, args) -> (value, bytes)
        self.nbytes = 0

    def __call__(self, f):
        @wraps(f)
        def cached(*args):
            key = (f, args)
            hit = self.entries.get(key)
            if hit is not None:
                self.entries.move_to_end(key)
                return hit[0]
            value = cached.__wrapped__(*args)   # looked up per miss, so it can be substituted
            size = _freeze(value)
            self.entries[key] = value, size
            self.nbytes += size
            while self.nbytes > self.limit and len(self.entries) > self.keep:
                self.nbytes -= self.entries.popitem(last=False)[1][1]
            return value

        cached.cache_clear = self.clear
        return cached

    def clear(self) -> None:
        self.entries.clear()
        self.nbytes = 0


table_cache = TableCache(_TABLE_BYTES, _TABLE_KEEP)


# ---------------------------------------------------------------------------
# monomial spaces and the cached linear maps between them
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _exponents(n: int, k: int) -> np.ndarray:
    """The exponents of total degree exactly k, a read-only (M_k x n) int64 array
    in lexicographic order: e_0 = 0, ..., k, each followed by the rows of
    ``_exponents(n - 1, k - e_0)``."""
    if n == 1:
        E = np.full((1, 1), k, dtype=np.int64)
    elif n == 2:
        e0 = np.arange(k + 1, dtype=np.int64)
        E = np.column_stack((e0, k - e0))
    else:
        E = np.empty((math.comb(n + k - 1, k), n), dtype=np.int64)
        row = 0
        for e0 in range(k + 1):
            tail = _exponents(n - 1, k - e0)
            E[row : row + len(tail), 0] = e0
            E[row : row + len(tail), 1:] = tail
            row += len(tail)
    E.flags.writeable = False
    return E


def _codes(E: np.ndarray, base: int) -> np.ndarray:
    """Exponent rows as base-``base`` numbers, leading digit e[0]: with every
    digit below the base, lexicographic order is the order of the codes."""
    return E @ base ** np.arange(E.shape[-1] - 1, -1, -1, dtype=np.int64)


@lru_cache(maxsize=None)
def exps(n: int, k: int) -> tuple[Exponent, ...]:
    """All exponent multi-indices of total degree exactly k, in sorted order:
    the rows of ``_exponents(n, k)`` as tuples."""
    return tuple(map(tuple, _exponents(n, k).tolist()))


def linear_order(a: np.ndarray) -> np.ndarray:
    """a with its last axis reversed: coefficients of x_0, ..., x_{n-1} become a
    degree-1 block over exps(n, 1), which lists x_{n-1} first, and back."""
    return a[..., ::-1]


@lru_cache(maxsize=None)
def grad_index(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The gradient on degree-k coefficients as a gather: entry (l, q) of the
    gradient of f is coef[l, q] * f[src[l, q]], with src the column of the
    monomial q + e_l and coef = q_l + 1.  Both are flat over (l, q)."""
    src = _product_index(n, 1, k - 1).reshape(n, -1)[::-1]   # exps(n, 1) lists e_{n-1} first
    coef = _exponents(n, k - 1).T + 1.0
    return src.ravel(), coef.ravel()


def xdot(W: np.ndarray, n: int, d: int) -> np.ndarray:
    """<f, x> on degree-d coefficient stacks: W (..., n, M_d), with component i of f
    in W[..., i, :], to the degree-(d+1) blocks (..., M_{d+1}) of sum_i x_i f^i.

    x_i places monomial q on q + e_i, the ``grad_index(n, d + 1)`` source of
    (i, q), so <f, x> is n scatter-adds; within one i the placement is
    injective, so a fancy-index ``+=`` adds every term.
    """
    if W.shape[-2] != n:   # a matmul would refuse; the scatter would drop components past n
        raise ValueError(f"xdot pairs n = {n} components with x, not {W.shape[-2]}")
    dst = grad_index(n, d + 1)[0].reshape(n, -1)
    out = np.zeros(W.shape[:-2] + (len(_exponents(n, d + 1)),))
    for i in range(n):
        out[..., dst[i]] += W[..., i, :]
    return out


@table_cache
def _product_index(n: int, k1: int, k2: int) -> np.ndarray:
    """Position in exps(n, k1+k2) of p + q, for (p, q) over exps(n, k1) x exps(n, k2) row-major.

    In base k1+k2+1 sums of codes never carry, so the code of p + q is the
    sum of the codes of p and q.
    """
    base = k1 + k2 + 1
    sums = np.add.outer(_codes(_exponents(n, k1), base), _codes(_exponents(n, k2), base))
    return np.searchsorted(_codes(_exponents(n, k1 + k2), base), sums.ravel())


@lru_cache(maxsize=None)
def _moments(n: int, k: int) -> np.ndarray:
    """Sphere moments of the monomials exps(n, k), each the float of its exact value.

    Only the monomials x^(2f), f of degree h = k/2, have nonzero moments,
    prod_i (2 f_i - 1)!! / prod_{j<h} (n + 2j) (:mod:`spherestab.moments`).
    Each is one true division of Python ints, which CPython rounds
    correctly, so it equals the float of the exact fraction bit for bit.
    The values are placed by the base-(k+1) codes of 2f.
    """
    out = np.zeros(len(_exponents(n, k)))
    if k % 2:
        return out
    h = k // 2
    odd = [1]                                   # odd[m] = (2m - 1)!!
    for m in range(1, h + 1):
        odd.append(odd[-1] * (2 * m - 1))
    den = math.prod(range(n, n + k, 2))         # prod_{j<h} (n + 2j)
    F = _exponents(n, h)
    out[np.searchsorted(_codes(_exponents(n, k), k + 1), _codes(2 * F, k + 1))] = [
        math.prod(map(odd.__getitem__, f)) / den for f in F.tolist()
    ]
    return out


def gram(n: int, k: int) -> np.ndarray:
    return gram_rect(n, k, k)


@table_cache
def gram_rect(n: int, k1: int, k2: int) -> np.ndarray:
    """Moments of x^(p+q) for deg-k1 p against deg-k2 q (exact, as floats)."""
    G = _moments(n, k1 + k2)[_product_index(n, k1, k2)]
    return G.reshape(len(_exponents(n, k1)), len(_exponents(n, k2)))


@lru_cache(maxsize=None)
def _exponent_table(n: int, kmax: int) -> np.ndarray:
    """Exponents of all monomials of degree <= kmax, blocks stacked by degree."""
    return np.concatenate([_exponents(n, d) for d in range(kmax + 1)], dtype=np.intp)


# ---------------------------------------------------------------------------
# the polynomial type
# ---------------------------------------------------------------------------

class Poly:
    """Polynomial in n variables stored as {degree: coefficient vector over exps(n, degree)}.

    ``Poly(n, {exponent: coeff})`` builds one from monomial terms and
    :meth:`from_blocks` from degree blocks.  Identically zero blocks are
    not stored.  A Poly is a view for serialization and evaluation: it has
    no algebra, which the coefficient stacks of
    :mod:`spherestab.homogeneous` carry.
    """

    __slots__ = ("n", "blocks")

    def __init__(self, n: int, coeffs: dict[Exponent, float] | None = None):
        self.n = n
        terms: dict[int, list[tuple[Exponent, float]]] = {}
        for e, c in (coeffs or {}).items():
            if c != 0.0:
                terms.setdefault(sum(e), []).append((e, c))
        blocks: dict[int, np.ndarray] = {}
        for d, dterms in terms.items():
            E = np.array([e for e, _ in dterms], dtype=np.int64)
            table = _exponents(n, d)
            pos = np.searchsorted(_codes(table, d + 1), _codes(E, d + 1)).clip(max=len(table) - 1)
            if not np.array_equal(table[pos], E):
                raise KeyError(f"not exponents in {n} variables: {E.tolist()}")
            blocks[d] = np.zeros(len(table))
            blocks[d][pos] = [c for _, c in dterms]
        self.blocks = {d: v for d, v in blocks.items() if v.any()}

    @classmethod
    def from_blocks(cls, n: int, blocks: dict[int, np.ndarray]) -> "Poly":
        """Poly from {degree d: coefficient vector over exps(n, d)}; the vectors are not copied."""
        p = cls.__new__(cls)
        p.n = n
        p.blocks = {}
        for d, v in blocks.items():
            v = np.asarray(v, dtype=float)
            if v.any():
                p.blocks[d] = v
        return p

    @property
    def coeffs(self) -> dict[Exponent, float]:
        """{exponent: coefficient} view of the nonzero terms."""
        return {
            e: c
            for d, v in self.blocks.items()
            for e, c in zip(exps(self.n, d), v.tolist())
            if c != 0.0
        }

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at points, shape (N, n) or (n,)."""
        out = evaluate([(1, self.blocks)], points)[0]
        if np.ndim(points) == 1:
            return out[0]
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"Poly(n={self.n}, {dict(sorted(self.coeffs.items()))})"


def evaluate(parts: Sequence[tuple[int, Mapping[int, np.ndarray]]], points: np.ndarray) -> np.ndarray:
    """Values at points (N, n) of batches of polynomials given by coefficient rows,
    node-last: shape (total width, N).

    A part (w, blocks) holds w polynomials: ``blocks[d]``, reshaped to
    (w, M_d), has in row j the degree-d block of polynomial j over
    ``exps(n, d)``.  The parts fill consecutive rows of the result.  The
    coefficients are stacked into one matrix; per chunk of nodes, that
    matrix transposed times one table of all monomials up to the top
    degree gives every value.  The table is built node-last, (monomials,
    nodes), from powers laid out (n, kmax+1, nodes), so every gather copies
    a row; its entries are the products x_0^e0 x_1^e1 ... taken in that
    order.  Row-major callers take the transpose.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[1]
    kmax = max((d for _, blocks in parts for d in blocks), default=0)
    E = _exponent_table(n, kmax)
    C = np.zeros((E.shape[0], sum(w for w, _ in parts)))
    col = 0
    for w, blocks in parts:
        for d, v in blocks.items():
            o = math.comb(n + d - 1, n)  # monomials of degree < d precede block d
            C[o : o + v.shape[-1], col : col + w] = v.reshape(w, -1).T
        col += w
    out = np.empty((C.shape[1], pts.shape[0]))
    for s in range(0, pts.shape[0], _CHUNK):
        chunk = pts[s : s + _CHUNK].T
        powers = np.empty((n, kmax + 1, chunk.shape[1]))
        powers[:, 0] = 1.0
        for j in range(1, kmax + 1):
            powers[:, j] = powers[:, j - 1] * chunk
        table = powers[0, E[:, 0]]
        for i in range(1, n):
            table *= powers[i, E[:, i]]
        np.matmul(C.T, table, out=out[:, s : s + _CHUNK])
    return out
