"""The one bounded cache of the exact-algebra tables."""

import tracemalloc

import numpy as np
import pytest

import spherestab.harmonics as harmonics
import spherestab.operator as operator
import spherestab.polynomials as polynomials
from spherestab.cli import main

CACHED = [
    polynomials._product_index, polynomials.gram_rect, harmonics.scalar_basis_coeffs, harmonics.degree1_coords,
    harmonics.vector_space_coeffs, operator._grad_coords, operator.a_matrix, operator.eigenspaces,
    operator.kernel_subspaces,
]


def _clear():
    for f in CACHED:
        f.cache_clear()


def test_a_spectrum_sweep_keeps_a_bounded_cache_and_builds_each_scalar_basis_once(tmp_path, monkeypatch):
    # spectrum --n 4 --kmax 12 uses each block once: every block kept holds about 50 MiB
    # at the end, the bounded cache about 31 MiB, the working set of the last blocks
    calls = []
    build = harmonics.scalar_basis_coeffs.__wrapped__
    monkeypatch.setattr(harmonics.scalar_basis_coeffs, "__wrapped__",
                        lambda n, k: calls.append((n, k)) or build(n, k))
    _clear()
    tracemalloc.start()
    try:
        assert main(["spectrum", "--n", "4", "--kmax", "12", "--out", str(tmp_path / "s.csv")]) == 0
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        _clear()
    assert held < 64 * 2**20, f"{held / 2**20:.1f} MiB held after the sweep"
    # no block recomputes a basis that an earlier block made: one build per degree
    assert sorted(calls) == [(4, k) for k in range(14)]


def test_a_spectrum_sweep_builds_no_dense_vector_basis(tmp_path, monkeypatch):
    # the eigenspaces and the seeded draws stay in candidate coordinates
    calls = []
    build = harmonics.vector_space_coeffs.__wrapped__
    monkeypatch.setattr(harmonics.vector_space_coeffs, "__wrapped__",
                        lambda n, k: calls.append((n, k)) or build(n, k))
    _clear()
    try:
        assert main(["spectrum", "--n", "4", "--kmax", "8", "--out", str(tmp_path / "s.csv")]) == 0
    finally:
        _clear()
    assert calls == []


def test_an_evicted_table_is_remade_bit_for_bit():
    _clear()
    first = [S.coeffs.copy() for S in operator.eigenspaces(3, 6)]
    A = operator.a_matrix(3, 6).copy()
    spaces = operator.eigenspaces(3, 6)
    for k in range(7, 17):      # later blocks push (3, 6) out of the cache
        operator.eigenspaces(3, k)
    assert all(key[1] != (3, 6) for key in polynomials.table_cache.entries)
    again = operator.eigenspaces(3, 6)
    assert again is not spaces
    assert all(a.coeffs.tobytes() == b.tobytes() for a, b in zip(again, first))
    assert operator.a_matrix(3, 6).tobytes() == A.tobytes()


def test_cached_tables_are_read_only():
    tables = [
        polynomials._product_index(3, 2, 3), polynomials.gram_rect(3, 2, 3), polynomials.gram(3, 2),
        harmonics.scalar_basis_coeffs(3, 4), harmonics.vector_space_coeffs(3, 4),
        operator._grad_coords(3, 4), operator.a_matrix(3, 4),
        *(S.coords for S in operator.eigenspaces(3, 4)), *(S.coords for S in operator.kernel_subspaces(3)),
    ]
    for T in tables:
        assert not T.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            T *= 1      # would leave the values as they are, were it allowed


def test_the_cache_drops_the_least_recently_used_past_its_limit_but_keeps_the_newest():
    cache = polynomials.TableCache(limit=3 * 800, keep=2)
    made = []

    @cache
    def table(i):
        made.append(i)
        return np.zeros(100)    # 800 bytes

    for i in range(4):
        table(i)
    assert [key[1] for key in cache.entries] == [(1,), (2,), (3,)] and cache.nbytes == 2400
    table(1)                    # a hit makes 1 the newest
    table(4)                    # over the limit: 2, the least recently used, goes
    assert [key[1] for key in cache.entries] == [(3,), (1,), (4,)]
    big = polynomials.TableCache(limit=0, keep=2)
    big(lambda i: np.zeros(10))(0)
    assert len(big.entries) == 1    # under the limit of entries kept, nothing goes
    table.cache_clear()
    assert not cache.entries and cache.nbytes == 0
    assert made == [0, 1, 2, 3, 4]
