import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shuffle_spectra import partitions, profiles, spectra
from shuffle_spectra.partitions import (
    SizeLimitError,
    check_partition,
    corners,
    enumerate_partitions,
    exact_dim,
    transpose,
)

from corner_oracle import corner_columns
from partition_oracle import iter_partitions


def partition_count(n):
    """Independent p(n) oracle via the pentagonal-number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n]


def count_syt_bruteforce(shape):
    """Count standard fillings by trying every assignment of 1..n to boxes."""
    boxes = [(i, j) for i, p in enumerate(shape) for j in range(p)]
    n = len(boxes)
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        grid = {b: v for b, v in zip(boxes, perm)}
        ok = True
        for (i, j), v in grid.items():
            if (i, j + 1) in grid and grid[(i, j + 1)] < v:
                ok = False
                break
            if (i + 1, j) in grid and grid[(i + 1, j)] < v:
                ok = False
                break
        count += ok
    return count


def hook_lengths_bruteforce(shape):
    """Hook of each box, row by row: the box, the boxes right of it and below it."""
    boxes = {(i, j) for i, p in enumerate(shape) for j in range(p)}
    return [
        1
        + sum((i, k) in boxes for k in range(j + 1, p))
        + sum((k, j) in boxes for k in range(i + 1, len(shape)))
        for i, p in enumerate(shape)
        for j in range(p)
    ]


partitions_small = st.integers(1, 12).flatmap(
    lambda n: st.sampled_from(enumerate_partitions(n))
)


class TestEnumeration:
    def test_zero(self):
        assert enumerate_partitions(0) == [()]
        with pytest.raises(TypeError):
            enumerate_partitions(0.0)

    def test_four(self):
        assert enumerate_partitions(4) == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    @pytest.mark.parametrize("n", [1, 5, 10, 20, 40])
    def test_count_matches_pentagonal_oracle(self, n):
        assert len(enumerate_partitions(n)) == partition_count(n)

    def test_ten_has_42(self):
        assert len(enumerate_partitions(10)) == 42

    def test_all_distinct_and_valid(self):
        parts = enumerate_partitions(12)
        assert len(set(parts)) == len(parts)
        for lam in parts:
            assert check_partition(lam) == lam
            assert sum(lam) == 12

    def test_reverse_lex_order(self):
        parts = enumerate_partitions(9)
        assert parts[0] == (9,)
        assert all(a > b for a, b in zip(parts, parts[1:]))

    def test_cap(self):
        with pytest.raises(SizeLimitError):
            enumerate_partitions(101)
        with pytest.raises(ValueError):
            enumerate_partitions(-1)

    def test_cap_is_the_bound_cap(self, monkeypatch):
        # the check comes before the source is built
        monkeypatch.setattr(partitions, "_source", None)
        with pytest.raises(SizeLimitError):
            enumerate_partitions(partitions.PARTITION_CAP + 1)
        with pytest.raises(SizeLimitError):
            next(partitions.partition_blocks(partitions.PARTITION_CAP + 1, 1))

    @pytest.mark.parametrize("n", range(36))
    def test_matches_generator(self, n):
        got = enumerate_partitions(n)
        assert got == list(iter_partitions(n))
        assert all(type(p) is tuple and all(type(x) is int for x in p) for p in got)

    @pytest.mark.parametrize("size, error", [(-1, ValueError), (0, ValueError), (2.5, TypeError)])
    def test_block_size_must_be_a_positive_integer(self, size, error):
        for n in (0, 5):
            with pytest.raises(error):
                next(partitions.partition_blocks(n, size))

    @pytest.mark.parametrize("size", [1, 7, 4096])
    def test_blocks_match_generator(self, size):
        for n in (0, 1, 2, 9, 20):
            rows = [r for block in partitions.partition_blocks(n, size) for r in block.tolist()]
            assert [tuple(x for x in r if x) for r in rows] == list(iter_partitions(n))


def decode(first, tail, r):
    # follow the tail indices of entry r down to level 0, the empty partition
    parts = []
    while first[r]:
        parts.append(int(first[r]))
        r = tail[r]
    return tuple(parts)


class TestSource:
    @pytest.mark.parametrize("n", range(1, 26))
    def test_levels_follow_the_generator(self, n):
        # level k holds the partitions of k with first part at most n - k, a
        # suffix of the reverse-lex list
        first, tail, off = partitions._source(n)
        assert not any(a.flags.writeable for a in (first, tail, off))
        assert off[-1] == len(first) == len(list(iter_partitions(n)))
        for k in range(n):
            level = [decode(first, tail, r) for r in range(off[k], off[k + 1])]
            assert level == [mu for mu in iter_partitions(k) if not mu or mu[0] <= n - k]

    def test_whole_levels(self):
        # at n = 50 every level k <= 25 holds all the partitions of k
        first, tail, off = partitions._source(50)
        for k in range(26):
            level = [decode(first, tail, r) for r in range(off[k], off[k + 1])]
            assert level == list(iter_partitions(k))

    def test_nothing_built_at_import(self):
        src = str(Path(partitions.__file__).parents[1])
        code = (
            "import shuffle_spectra\n"
            "from shuffle_spectra import partitions, profiles\n"
            "assert partitions._source.cache_info().currsize == 0\n"
            "assert profiles._spectral_table.cache_info().currsize == 0\n"
            "partitions.enumerate_partitions(5)\n"
            "assert partitions._source.cache_info().currsize == 1\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, env=dict(os.environ, PYTHONPATH=src))


class TestTranspose:
    def test_example(self):
        assert transpose((3, 2)) == (2, 2, 1)

    def test_row_to_column(self):
        assert transpose((6,)) == (1,) * 6

    def test_involution_all_small(self):
        for n in range(0, 21):
            for lam in enumerate_partitions(n):
                assert transpose(transpose(lam)) == lam

    @given(partitions_small)
    def test_involution_property(self, lam):
        assert transpose(transpose(lam)) == lam


class TestHooks:
    # exact_dim's hook product against hooks counted box by box on the diagram

    def test_example(self):
        assert hook_lengths_bruteforce((3, 2)) == [4, 3, 1, 2, 1]
        assert exact_dim((3, 2)) == math.factorial(5) // math.prod([4, 3, 1, 2, 1])

    def test_single_row(self):
        assert hook_lengths_bruteforce((5,)) == [5, 4, 3, 2, 1]
        assert exact_dim((5,)) == math.factorial(5) // math.prod([5, 4, 3, 2, 1])


class TestDim:
    def test_example(self):
        assert exact_dim((3, 2)) == 5

    def test_row_and_column(self):
        assert exact_dim((7,)) == 1
        assert exact_dim((1,) * 7) == 1

    def test_transpose_invariant(self):
        # transposing permutes the boxes and keeps every hook length
        for n in range(1, 16):
            for lam in enumerate_partitions(n):
                assert exact_dim(lam) == exact_dim(transpose(lam))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_hook_formula_vs_bruteforce(self, n):
        for lam in enumerate_partitions(n):
            assert exact_dim(lam) == count_syt_bruteforce(lam)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_near_row_shape(self, n):
        assert exact_dim((n - 1, 1)) == n - 1

    def test_hook_shapes_binomial(self):
        # d of (n - k, 1^k) is C(n - 1, k), up to the cap itself
        for n in range(1, 31):
            for k in range(n):
                assert exact_dim((n - k,) + (1,) * k) == math.comb(n - 1, k)

    def test_empty_partition(self):
        assert exact_dim(()) == 1

    def test_log_agrees_with_exact(self):
        # the spectral table's log d and log d_corner against exact integers
        for n in (10, 20, 30):
            lams = enumerate_partitions(n)
            tab, tab_corners = profiles._spectral_table(n), corner_columns(n)
            logd = [math.log(exact_dim(lam)) for lam in lams]
            logd_red = [
                math.log(exact_dim(c.reduced)) for lam in lams for c in corners(lam)
            ]
            np.testing.assert_allclose(tab.logd, logd, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(tab_corners.logd_red, logd_red, rtol=1e-9, atol=1e-9)

    def test_exact_cap(self):
        lam = (16,) * 2  # partition of 32
        with pytest.raises(SizeLimitError, match="exact dimension limited to 0 <= n <= 30"):
            exact_dim(lam)


class TestCorners:
    def test_two_corners(self):
        got = [(c.row, c.reduced) for c in corners((4, 1))]
        assert got == [(1, (3, 1)), (2, (4,))]

    def test_rectangle_single_corner(self):
        got = [(c.row, c.reduced) for c in corners((3, 3))]
        assert got == [(2, (3, 2))]

    def test_column(self):
        got = [(c.row, c.reduced) for c in corners((1, 1, 1))]
        assert got == [(3, (1, 1))]

    def test_reduced_valid(self):
        for lam in enumerate_partitions(10):
            for c in corners(lam):
                assert check_partition(c.reduced) == c.reduced
                assert sum(c.reduced) == 9

    def test_branching_small(self):
        for n in range(1, 15):
            for lam in enumerate_partitions(n):
                assert exact_dim(lam) == sum(
                    exact_dim(c.reduced) for c in corners(lam)
                )


class TestValidation:
    def test_increasing_rejected(self):
        with pytest.raises(ValueError):
            check_partition((1, 2))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            check_partition((3, 0))

    @pytest.mark.parametrize("parts", [(2.5, 1), (3.0,), "21"], ids=["float", "whole-float", "str"])
    @pytest.mark.parametrize(
        "func",
        [exact_dim, transpose, corners, spectra.rt_eigenvalue, spectra.star_eigenvalues],
        ids=lambda f: f.__name__,
    )
    def test_non_integer_parts_rejected(self, func, parts):
        with pytest.raises(ValueError, match="partition parts must be integers"):
            func(parts)

    def test_numpy_and_bool_parts_accepted(self):
        assert check_partition(np.array([3, 1], dtype=np.int8)) == (3, 1)
        assert type(check_partition(np.array([2]))[0]) is int
        assert transpose((True,)) == (1,)
