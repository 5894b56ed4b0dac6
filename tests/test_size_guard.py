"""The one deck-size guard, partitions.check_n, at every capped entry point.

Each entry point takes n as an int (numpy integers and bools too), raises
TypeError for a float or a string before it builds any partition source,
table or matrix, and raises SizeLimitError "... limited to lo <= n <= hi"
outside its range.
"""

import functools
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from shuffle_spectra import exact_chain as ec
from shuffle_spectra import partitions, profiles, spectra
from shuffle_spectra.partitions import SizeLimitError, check_n

THIS = sys.modules[__name__]


class _NoWork:
    """A matrix stand-in that fails on any use: the guard must reject n first."""

    def __getattr__(self, name):
        raise AssertionError("the matrix was used before the size check")

    def __matmul__(self, other):
        raise AssertionError("the matrix was used before the size check")


def _built(*args, **kwargs):
    raise AssertionError("built before the size check")


@functools.lru_cache(maxsize=None)
def _source_matrix(chain):
    return ec.build_matrix(chain, 4)


def _relabel(chain, n):
    """The 4-card matrix of chain, labelled with deck size n."""
    m = _source_matrix(chain)
    return ec.SparseScaledMatrix(n, m.scale, m.mat)


def _dense(m):
    return type(m.n), m.n, m.scale, m.mat.toarray().tolist()


def _no_partitions(mp):
    mp.setattr(partitions, "_source", _built)


def _no_blocks(mp):
    mp.setattr(spectra, "enumerate_partitions", _built)


def _no_table(mp):
    mp.setattr(profiles, "_spectral_table", _built)


def _no_matrix(mp):
    mp.setattr(ec, "_build_from_weights", _built)


def _no_given_matrix(mp):
    mp.setattr(THIS, "_source_matrix", lambda chain: SimpleNamespace(scale=1, mat=_NoWork()))


def _no_table_or_matrix(mp):
    _no_table(mp)
    _no_matrix(mp)


# name: (lo, hi, an n in range, the call, what it must not build before the check)
ENTRY_POINTS = {
    "partition_blocks": (
        0, 60, 6, lambda n: [b.tolist() for b in partitions.partition_blocks(n, 5)],
        _no_partitions,
    ),
    "enumerate_partitions": (0, 60, 6, partitions.enumerate_partitions, _no_partitions),
    "blocks": (2, 30, 6, spectra.blocks, _no_blocks),
    "spectrum_rows": (2, 30, 6, lambda n: spectra.spectrum_rows("star", n), _no_blocks),
    "total_multiplicity": (2, 30, 6, lambda n: spectra.total_multiplicity("rt", n), _no_blocks),
    "spectrum_trace": (2, 30, 6, lambda n: spectra.spectrum_trace("star", n), _no_blocks),
    "comparison_bound": (2, 60, 6, lambda n: profiles.comparison_bound(n, 0.5), _no_table),
    "bound_decomposition": (
        2, 60, 6, lambda n: profiles.bound_decomposition(n, 0.5, 2), _no_table,
    ),
    "l2_bound": (2, 60, 6, lambda n: profiles.l2_bound("star", n, 7), _no_table),
    "spectral_rhs": (2, 60, 6, lambda n: ec.spectral_rhs(n, 2, 4), _no_table),
    "build_matrix": (2, 8, 4, lambda n: _dense(ec.build_matrix("rt", n)), _no_matrix),
    "build_skewed_matrix": (2, 8, 4, lambda n: _dense(ec.build_skewed_matrix(n)), _no_matrix),
    "commutation_check": (2, 7, 4, ec.commutation_check, _no_matrix),
    "exact_commutes": (
        2, 7, 4, lambda n: ec.exact_commutes(_relabel("star", n), _relabel("rt", n)),
        _no_given_matrix,
    ),
    "numeric_eig_multiset": (
        2, 6, 4, lambda n: ec.numeric_eig_multiset(_relabel("rt", n)).tolist(), _no_given_matrix,
    ),
    "lemma_l2_check": (2, 8, 4, lambda n: ec.lemma_l2_check(n, 3, 5), _no_table_or_matrix),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("kind", [float, str])
def test_non_integer_n_refused_before_any_work(name, kind, monkeypatch):
    _, _, n, call, unbuild = ENTRY_POINTS[name]
    unbuild(monkeypatch)
    with pytest.raises(TypeError):
        call(kind(n))


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_n_outside_range_is_size_limit_error(name, monkeypatch):
    lo, hi, _, call, unbuild = ENTRY_POINTS[name]
    unbuild(monkeypatch)
    for n in (lo - 1, hi + 1):
        with pytest.raises(SizeLimitError, match=re.escape(f"limited to {lo} <= n <= {hi}")):
            call(n)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_numpy_integer_n_same_as_int(name):
    _, _, n, call, _ = ENTRY_POINTS[name]
    assert call(np.int64(n)) == call(n)


def test_check_n():
    n = check_n(np.int16(5), 2, 8, "x")
    assert n == 5 and type(n) is int
    assert check_n(True, 0, 8, "x") == 1
    for n in (1, 9):
        with pytest.raises(SizeLimitError, match=r"^widgets limited to 2 <= n <= 8$"):
            check_n(n, 2, 8, "widgets")
    for n in (5.0, 5.5, "5", None):
        with pytest.raises(TypeError):
            check_n(n, 2, 8, "widgets")
