import math
import re
from collections import Counter
from fractions import Fraction

import pytest

from shuffle_spectra.partitions import (
    SizeLimitError,
    corners,
    enumerate_partitions,
    exact_dim,
    transpose,
)
from shuffle_spectra import partitions, profiles, spectra

from partition_oracle import iter_partitions


class TestRtEigenvalue:
    def test_trivial_block(self):
        e = spectra.rt_eigenvalue((6,))
        assert e.r == 1 and e.s == 1 and exact_dim(e.lam) ** 2 == 1

    def test_sign_block(self):
        # n=4 single column: s = (2-n)/n = -1/2
        e = spectra.rt_eigenvalue((1, 1, 1, 1))
        assert e.s == Fraction(-1, 2)

    def test_standard_block(self):
        e = spectra.rt_eigenvalue((4, 1))
        assert e.s == Fraction(3, 5)
        assert exact_dim(e.lam) ** 2 == 16

    def test_affine_relation(self):
        for lam in enumerate_partitions(7):
            e = spectra.rt_eigenvalue(lam)
            n = 7
            assert e.s == Fraction(1, n) + Fraction(n - 1, n) * e.r
            assert -1 <= e.r <= 1
            assert (e.r == 1) == (lam == (n,))

    def test_transpose_antisymmetry(self):
        for n in range(2, 21):
            for lam in enumerate_partitions(n):
                r_t = spectra.rt_eigenvalue(transpose(lam)).r
                assert r_t == -spectra.rt_eigenvalue(lam).r

    def test_too_small(self):
        with pytest.raises(ValueError):
            spectra.rt_eigenvalue((1,))

    def test_mult_exact_only_within_cap(self):
        # eigenvalues exist at any n; exact multiplicities stop at EXACT_DIM_CAP
        assert spectra.rt_eigenvalue((49, 1)).s == Fraction(24, 25)
        (_, e) = spectra.star_eigenvalues((49, 1))
        assert e.s_bar == 0
        for parts in (e.lam, e.reduced):
            with pytest.raises(SizeLimitError):
                exact_dim(parts)
        assert exact_dim(spectra.rt_eigenvalue((29, 1)).lam) ** 2 == 29**2


class TestStarEigenvalues:
    def test_two_corner_shape(self):
        got = [
            (e.corner_row, e.s_bar, exact_dim(e.lam) * exact_dim(e.reduced))
            for e in spectra.star_eigenvalues((4, 1))
        ]
        assert got == [(1, Fraction(4, 5), 12), (2, Fraction(0), 4)]

    def test_trivial_block(self):
        (e,) = spectra.star_eigenvalues((6,))
        assert e.corner_row == 1 and e.s_bar == 1
        assert exact_dim(e.lam) * exact_dim(e.reduced) == 1

    def test_sign_block(self):
        (e,) = spectra.star_eigenvalues((1, 1, 1, 1))
        assert e.corner_row == 4 and e.s_bar == Fraction(-1, 2)
        assert exact_dim(e.lam) * exact_dim(e.reduced) == 1

    def test_star_transpose_antisymmetry(self):
        # rbar = (lam_i - i)/(n-1) flips sign at the dual corner of the transpose
        for n in range(2, 21):
            for lam in enumerate_partitions(n):
                tr = transpose(lam)
                for c in corners(lam):
                    lam_i = lam[c.row - 1]
                    r_bar = Fraction(lam_i - c.row, n - 1)
                    dual = next(cc for cc in corners(tr) if cc.row == lam_i)
                    r_bar_dual = Fraction(tr[dual.row - 1] - dual.row, n - 1)
                    assert r_bar_dual == -r_bar

    def test_block_multiplicity_sums_to_d_squared(self):
        for lam in enumerate_partitions(9):
            eigs = spectra.star_eigenvalues(lam)
            d2 = exact_dim(spectra.rt_eigenvalue(lam).lam) ** 2
            assert sum(exact_dim(e.lam) * exact_dim(e.reduced) for e in eigs) == d2


class TestFullSpectrum:
    def test_rt_n3(self):
        multiset = Counter()
        for _, eig, mult in spectra.spectrum_rows("rt", 3):
            multiset[eig] += mult
        assert multiset == Counter({Fraction(1): 1, Fraction(1, 3): 4, Fraction(-1, 3): 1})

    def test_star_n3(self):
        multiset = Counter()
        for _, eig, mult in spectra.spectrum_rows("star", 3):
            multiset[eig] += mult
        assert multiset == Counter(
            {Fraction(1): 1, Fraction(2, 3): 2, Fraction(0): 2, Fraction(-1, 3): 1}
        )

    @pytest.mark.parametrize("chain", spectra.CHAINS)
    @pytest.mark.parametrize("n", range(2, 13))
    def test_completeness(self, chain, n):
        assert spectra.total_multiplicity(chain, n) == math.factorial(n)

    @pytest.mark.parametrize("chain", spectra.CHAINS)
    @pytest.mark.parametrize("n", [*range(2, 14), 20, 30])
    def test_trace(self, chain, n):
        assert spectra.spectrum_trace(chain, n) == Fraction(math.factorial(n - 1))

    def test_bad_chain(self):
        for rows in (spectra.spectrum_rows, spectra.spectrum_trace, spectra.total_multiplicity):
            with pytest.raises(ValueError):
                rows("riffle", 4)

    def test_trace_guard(self):
        # the trace reads blocks(n), so it stops where blocks does
        for chain in spectra.CHAINS:
            with pytest.raises(SizeLimitError, match=re.escape("limited to 2 <= n <= 30")):
                spectra.spectrum_trace(chain, 31)


class TestAsymptotics:
    # frozen constant: the measured worst case of n^2 |s - (1 - 2j/n)| over
    # j in {1,2,3}, n in {50,100,200} is 12; 15 leaves slack
    FROZEN_C = 15.0

    @pytest.mark.parametrize("n", [50, 100, 200])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_near_row_eigenvalue_expansion(self, n, j):
        for mu in enumerate_partitions(j):
            lam = (n - j,) + mu
            s = spectra.rt_eigenvalue(lam).s
            dev = abs(float(s - (1 - Fraction(2 * j, n))))
            assert dev <= self.FROZEN_C / n**2


class TestSpectrumRows:
    def test_row_count_star(self):
        rows = spectra.spectrum_rows("star", 5)
        n_corners = sum(len(corners(lam)) for lam in enumerate_partitions(5))
        assert len(rows) == n_corners

    def test_size_guards(self):
        for n in (-1, 0, 1):
            with pytest.raises(ValueError):
                spectra.spectrum_rows("rt", n)
        with pytest.raises(SizeLimitError):
            spectra.spectrum_rows("star", 31)

    def test_rows_follow_enumeration_order(self):
        rows = spectra.spectrum_rows("rt", 6)
        assert [r[0] for r in rows] == enumerate_partitions(6)


def oracle_blocks(n):
    """blocks(n) built from the public single-partition helpers alone."""
    return tuple(
        (
            lam,
            transpose(lam),
            exact_dim(lam),
            spectra.rt_eigenvalue(lam).s,
            tuple((e.corner_row, exact_dim(e.reduced), e.s_bar) for e in spectra.star_eigenvalues(lam)),
        )
        for lam in iter_partitions(n)
    )


class TestBlocks:
    @pytest.mark.parametrize("n", [*range(2, 21), 30])
    def test_matches_public_helpers(self, n):
        got, want = spectra.blocks(n), oracle_blocks(n)
        # repr tells an int from an equal Fraction
        assert got == want and repr(got) == repr(want)

    def test_batches_of_the_level_recursion(self, monkeypatch):
        # blocks reads every batch of _partition_rows, and corners that lift
        # into an earlier batch, as one batch does
        monkeypatch.setattr(profiles, "_TABLE_CHUNK", 7)
        spectra.blocks.cache_clear()
        assert len(list(profiles._partition_rows(12))) == 11  # p(12) = 77
        assert spectra.blocks(12) == oracle_blocks(12)
        spectra.blocks.cache_clear()

    def test_each_shape_transposed_once_and_not_rechecked(self, monkeypatch):
        checked, transposed, passes = [], [], []
        check, transpose_ = partitions.check_partition, partitions._transpose
        rows = profiles._partition_rows

        def counted_check(parts):
            checked.append(parts)
            return check(parts)

        def counted_transpose(parts):
            transposed.append(parts)
            return transpose_(parts)

        def counted_rows(n):
            passes.append(n)
            return rows(n)

        for module in (partitions, spectra):
            monkeypatch.setattr(module, "check_partition", counted_check)
            monkeypatch.setattr(module, "_transpose", counted_transpose)
        monkeypatch.setattr(profiles, "_partition_rows", counted_rows)
        spectra.blocks.cache_clear()
        misses = spectra.blocks.cache_info().misses
        lams = [lam for lam, *_ in spectra.blocks(12)]
        assert spectra.blocks.cache_info().misses == misses + 1
        assert lams == enumerate_partitions(12)
        assert checked == [] and passes == [12]  # one pass of the level recursion
        # one transpose per shape of n, none of n - 1: p(12) = 77
        assert len(transposed) == len(set(transposed)) == 77
