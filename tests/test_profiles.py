import functools
import itertools
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shuffle_spectra import exact_chain as ec
from shuffle_spectra import profiles as pr
from shuffle_spectra import spectra
from shuffle_spectra.partitions import SizeLimitError, exact_dim

from corner_oracle import corner_columns, corner_l2, corner_sums
from partition_oracle import iter_partitions


# the oracle's per-corner columns, built once per n
corner_table = functools.lru_cache(maxsize=3)(corner_columns)


def poisson_tv_oracle(mu1, mu2, terms=500):
    """Brute-force 500-term summation with recursive pmf terms."""
    p1 = math.exp(-mu1)
    p2 = math.exp(-mu2)
    total = abs(p1 - p2)
    for k in range(1, terms):
        p1 *= mu1 / k
        p2 *= mu2 / k
        total += abs(p1 - p2)
    return 0.5 * total


def naive_sums(n, t, t_star, m):
    """Plain double-precision comparison sum and its four error terms, with
    exact dimensions (no log space); the split is at lam_1 = n - m."""
    cut = n - m
    total = 0.0
    parts = [0.0] * 4
    for lam in iter_partitions(n):
        d = exact_dim(lam)
        s = float(spectra.rt_eigenvalue(lam).s)
        inner = lam[0] <= cut and len(lam) <= cut
        if lam[0] <= cut:
            parts[0] += d * d * s ** (2 * t)
        for e in spectra.star_eigenvalues(lam):
            dr, sb = exact_dim(e.reduced), float(e.s_bar)
            term = d * dr * (s**t - sb**t_star) ** 2
            total += term
            if inner:
                parts[1] += d * dr * sb ** (2 * t_star)
                parts[2] += d * abs(s) ** t * dr * abs(sb) ** t_star
            parts[3] += term * ((lam[0] > cut) + (len(lam) > cut))
    return total, parts


def naive_l2(chain, n, t):
    total = 0.0
    for lam in iter_partitions(n):
        if lam == (n,):
            continue
        d = exact_dim(lam)
        if chain == "rt":
            total += d * d * float(spectra.rt_eigenvalue(lam).s) ** (2 * t)
        else:
            for e in spectra.star_eigenvalues(lam):
                total += d * exact_dim(e.reduced) * float(e.s_bar) ** (2 * t)
    return 0.5 * math.sqrt(total)


def naive_comparison_total(n, c):
    t, t_star = pr.cutoff_times(n, c)
    return 0.5 * math.sqrt(naive_sums(n, t, t_star, 1)[0])


def signed_log(*xs):
    """Floats as (sign, log magnitude) arrays, the form the comparison sums use."""
    xs = np.array(xs)
    with np.errstate(divide="ignore"):
        return np.sign(xs).astype(np.int8), np.log(np.abs(xs))


def signed_float(sign, log_mag):
    return np.where(sign == 0, 0.0, sign * np.exp(log_mag))


class TestSignedLogReal:
    """The vectorised signed log-space helpers _signed_pow and _signed_diff."""

    def test_pow_sign_tracking(self):
        x = signed_log(-0.5, 0.5)
        assert signed_float(*pr._signed_pow(*x, 3)) == pytest.approx([-0.125, 0.125], rel=1e-12)
        assert signed_float(*pr._signed_pow(*x, 4)) == pytest.approx([0.0625, 0.0625], rel=1e-12)
        sign, log_mag = pr._signed_pow(*x, 0)
        assert sign.tolist() == [1, 1] and log_mag.tolist() == [0.0, 0.0]

    def test_zero(self):
        zero = signed_log(0.0)
        assert zero[0][0] == 0
        sign, log_mag = pr._signed_pow(*zero, 5)
        assert sign[0] == 0 and log_mag[0] == float("-inf")
        sign, log_mag = pr._signed_pow(*zero, 0)  # 0**0 = 1, not nan
        assert sign[0] == 1 and log_mag[0] == 0.0
        assert signed_float(*pr._signed_diff(*zero, *signed_log(3.0))) == (
            pytest.approx([-3.0], rel=1e-12)
        )
        assert signed_float(*pr._signed_diff(*signed_log(3.0), *zero)) == (
            pytest.approx([3.0], rel=1e-12)
        )
        assert pr._signed_diff(*zero, *zero)[0][0] == 0

    def test_subtraction(self):
        a, b = signed_log(5.0, 3.0, 5.0), signed_log(3.0, 5.0, -3.0)
        assert signed_float(*pr._signed_diff(*a, *b)) == pytest.approx([2.0, -2.0, 8.0], rel=1e-12)

    def test_near_equal_guard(self):
        sign, _ = pr._signed_diff(*signed_log(1.0), np.array([1], np.int8), np.array([5e-14]))
        assert sign[0] == 0

    @given(
        st.floats(-50, 50).filter(lambda x: abs(x) > 1e-6),
        st.floats(-50, 50).filter(lambda x: abs(x) > 1e-6),
    )
    def test_addition_matches_floats(self, x, y):
        sy, ly = signed_log(y)
        got = signed_float(*pr._signed_diff(*signed_log(x), -sy, ly))
        assert got[0] == pytest.approx(x + y, rel=1e-9, abs=1e-10)

    def test_pow_over_time_array(self):
        x = signed_log(-0.5, 0.0, 0.5)
        ts = np.array([[0, 1, 2], [3, 4, 7]])
        sign, log_mag = pr._signed_pow(*x, ts)
        assert sign.shape == log_mag.shape == (2, 3, 3)
        for idx in np.ndindex(ts.shape):
            want_sign, want_log = pr._signed_pow(*x, int(ts[idx]))
            assert np.array_equal(sign[idx], want_sign) and np.array_equal(log_mag[idx], want_log)


class TestPoissonTv:
    def test_identical(self):
        assert pr._poisson_tv_raw(1.0, 1.0) == 0.0

    def test_far_apart(self):
        assert pr._poisson_tv_raw(40.0, 1.0) > 0.999

    def test_against_bruteforce_oracle(self):
        assert pr._poisson_tv_raw(2.0, 1.0) == pytest.approx(
            poisson_tv_oracle(2.0, 1.0), abs=1e-12
        )

    def test_symmetric(self):
        assert pr._poisson_tv_raw(2.5, 1.5) == pytest.approx(
            pr._poisson_tv_raw(1.5, 2.5), abs=1e-14
        )


class TestProfiles:
    def test_large_c_vanishes(self):
        assert pr.star_profile(12.0).value < 1e-4

    def test_small_c_saturates(self):
        assert pr.star_profile(-8.0).value > 0.99

    def test_monotone_on_grid(self):
        values = [pr.star_profile(c).value for c in np.arange(-8.0, 12.0 + 1e-9, 0.1)]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_rt_equals_star_profile(self):
        # one function serves both chains, each at its own cutoff:
        # TV(Poisson(1 + e^-c), Poisson(1))
        for c in np.arange(-4.0, 4.5, 0.5):
            point = pr.star_profile(c)
            assert point.c == c
            want = poisson_tv_oracle(1.0 + math.exp(-c), 1.0)
            assert point.value == pytest.approx(want, abs=1e-12)

    def test_rt_at_zero(self):
        assert pr.star_profile(0.0).value == pr._poisson_tv_raw(2.0, 1.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            pr.star_profile(-8.5)
        with pytest.raises(ValueError):
            pr.star_profile(12.5)


class TestProfileCurve:
    def test_grid_size(self):
        points = pr.profile_curve(-4.0, 4.0, 1.0)
        assert len(points) == 9
        assert all(0.0 <= p.value <= 1.0 for p in points)

    def test_endpoints_match_pointwise(self):
        points = pr.profile_curve(-4.0, 4.0, 1.0)
        assert points[0].value == pr.star_profile(-4.0).value
        assert points[-1].value == pr.star_profile(4.0).value

    def test_strictly_decreasing_until_tiny(self):
        points = pr.profile_curve(-4.0, 8.0, 0.5)
        for a, b in zip(points, points[1:]):
            if a.value > 1e-4:
                assert b.value < a.value

    def test_degenerate_single_point(self):
        points = pr.profile_curve(0.0, 0.0, 1.0)
        assert len(points) == 1 and points[0].c == 0.0

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            pr.profile_curve(1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            pr.profile_curve(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):  # 10^9 points
            pr.profile_curve(0.0, 1.0, 1e-9)
        for step in (1e-15, 1e-300):  # the 1e-9 end slack counts toward the cap
            with pytest.raises(ValueError, match="points"):
                pr.profile_curve(0.0, 0.0, step)


class TestCutoffTimes:
    def test_n100(self):
        t, t_star = pr.cutoff_times(100, 0.0)
        assert t_star == 461
        assert t in (230, 231) and t % 2 == t_star % 2

    def test_parity_always_matches(self):
        for n in (5, 8, 13, 20, 48, 60):
            for c in (-1.5, -0.3, 0.0, 0.7, 2.0):
                t, t_star = pr.cutoff_times(n, c)
                assert t % 2 == t_star % 2
                assert t >= 0 and t_star >= 0

    def test_integer_n(self):
        assert pr.cutoff_times(np.int64(10), 0.0) == pr.cutoff_times(10, 0.0)
        with pytest.raises(TypeError):  # not rounded to some deck size
            pr.cutoff_times(10.5, 0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            pr.cutoff_times(5, -20.0)
        with pytest.raises(ValueError, match="negative times"):  # c inside the window
            pr.cutoff_times(5, -8.0)

    @pytest.mark.parametrize("c", [1e300, 12.5, -8.5, float("nan")])
    def test_c_outside_window_rejected(self, c):
        with pytest.raises(ValueError, match="c must be in"):
            pr.cutoff_times(8, c)


class TestComparisonBound:
    @pytest.mark.parametrize("c", [-1.0, 0.0, 1.0])
    def test_matches_naive_summation_n5(self, c):
        rep = pr.comparison_bound(5, c)
        assert rep.total == pytest.approx(naive_comparison_total(5, c), rel=1e-9)

    def test_cross_module_consistency_n5(self):
        rep = pr.comparison_bound(5, 0.0)
        _, rhs = ec.lemma_l2_check(5, rep.t, rep.t_star)
        assert rep.total**2 == pytest.approx(rhs**2 / 4.0, rel=1e-9)

    def test_vanishing_trend_at_zero(self):
        # frozen witnesses: 0.1432 at n=16 vs 0.1089 at n=48
        assert pr.comparison_bound(48, 0.0).total < pr.comparison_bound(16, 0.0).total

    def test_report_fields(self):
        rep = pr.comparison_bound(8, 0.0, truncation_m=2)
        assert rep.truncation_m == 2
        assert len(rep.parts) == 4 and all(p >= 0.0 for p in rep.parts)

    def test_guard(self):
        with pytest.raises(SizeLimitError):
            pr.comparison_bound(61, 0.0)

    def test_walks_partitions_once(self, monkeypatch):
        builds = []
        build = pr._spectral_table.__wrapped__

        def counting_build(n):
            builds.append(n)
            return build(n)

        monkeypatch.setattr(pr, "_spectral_table", functools.lru_cache(maxsize=1)(counting_build))
        pr.comparison_bound(20, 0.0)
        pr.bound_decomposition(20, 0.5, 3)
        pr.l2_bound("rt", 20, 7)
        pr.l2_bound("star", 20, 7)
        assert builds == [20]
        pr.l2_bound("star", 21, 7)
        assert builds == [20, 21]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_edges_match_naive_sums(self, n):
        # t = 0 and s = 0 (n = 2) are where t * log|s| would be nan
        for t, t_star in ((0, 0), (0, 3), (3, 0), (1, 1)):
            for m in range(1, n // 2 + 1):
                want, want_parts = naive_sums(n, t, t_star, m)
                log_total, parts = pr._comparison_sums(n, t, t_star, m)
                assert math.exp(log_total) == pytest.approx(want, rel=1e-9, abs=0.0)
                assert parts == pytest.approx(want_parts, rel=1e-9, abs=0.0)
            rhs = ec.spectral_rhs(n, t, t_star)
            assert rhs == pytest.approx(math.sqrt(want), rel=1e-9, abs=0.0)
            for chain, steps in (("rt", t), ("star", t_star)):
                want_l2 = naive_l2(chain, n, steps)
                assert pr.l2_bound(chain, n, steps) == pytest.approx(want_l2, rel=1e-9, abs=0.0)

    def test_parts_equal_decomposition(self):
        rep = pr.comparison_bound(20, -0.3, truncation_m=3)
        assert rep.parts == pr.bound_decomposition(20, -0.3, 3)

    @pytest.mark.parametrize("c", [-1.0, 0.0, 0.5, 1.7])
    @pytest.mark.parametrize("n", [12, 33, 48])
    def test_keys_match_corner_oracle(self, n, c):
        # grouping corners by (s, j, sbar) reorders the sums, nothing else
        tab, corners = pr._spectral_table(n), corner_table(n)
        t, t_star = pr.cutoff_times(n, c)
        for m in sorted({1, min(5, n // 2), n // 2}):
            want_log, want_parts = corner_sums(tab, corners, n, t, t_star, m)
            log_total, parts = pr._comparison_sums(n, t, t_star, m)
            assert math.exp(log_total) == pytest.approx(math.exp(want_log), rel=1e-12, abs=0.0)
            assert parts == pytest.approx(want_parts, rel=1e-12, abs=0.0)
        for chain, steps in (("rt", t), ("star", t_star)):
            want = corner_l2(tab, corners, chain, steps)
            assert pr.l2_bound(chain, n, steps) == pytest.approx(want, rel=1e-12, abs=0.0)


class TestBoundDecomposition:
    def test_m1_boundary_terms(self):
        # at M=1 the boundary covers only (n,) and (1^n); the (n,) block is a
        # zero contribution and (1^n) enters once, through the transpose half
        n, c = 10, 0.0
        t, t_star = pr.cutoff_times(n, c)
        terms = pr.bound_decomposition(n, c, 1)
        s = float(spectra.rt_eigenvalue((1,) * n).s)
        (e,) = spectra.star_eigenvalues((1,) * n)
        expected = (s**t - float(e.s_bar) ** t_star) ** 2
        assert terms[3] == pytest.approx(expected, rel=1e-9)

    def test_overcounts_full_sum(self):
        rep = pr.comparison_bound(30, 0.0, truncation_m=4)
        t1, t2, t3, t4 = rep.parts
        assert t1 + t2 + 2.0 * t3 + t4 >= 4.0 * rep.total**2 * (1.0 - 1e-9)

    def test_monotone_in_truncation(self):
        # index sets: terms 1-3 shrink as M grows, the boundary term grows
        prev = None
        for m in range(2, 9):
            terms = pr.bound_decomposition(30, 0.0, m)
            if prev is not None:
                assert terms[0] <= prev[0] + 1e-15
                assert terms[1] <= prev[1] + 1e-15
                assert terms[2] <= prev[2] + 1e-15
                assert terms[3] >= prev[3] - 1e-15
            prev = terms

    def test_bad_truncation(self):
        with pytest.raises(ValueError):
            pr.bound_decomposition(30, 0.0, 0)
        with pytest.raises(ValueError):
            pr.bound_decomposition(30, 0.0, 16)

    @pytest.mark.parametrize("m", [4.5, 3.0, "3"])
    def test_non_integer_truncation_refused(self, m):
        # 4.5 once gave M = 5's terms, labelled 4.5
        with pytest.raises(TypeError):
            pr.comparison_bound(30, 0.0, m)
        with pytest.raises(TypeError):
            pr.bound_decomposition(30, 0.0, m)

    def test_numpy_integer_truncation(self):
        rep = pr.comparison_bound(30, 0.0, np.int64(3))
        assert rep == pr.comparison_bound(30, 0.0, 3) and type(rep.truncation_m) is int


class TestL2Bound:
    def test_t_zero_value(self):
        for chain, n in (("rt", 6), ("star", 8)):
            expect = 0.5 * math.sqrt(math.factorial(n) - 1)
            assert pr.l2_bound(chain, n, 0) == pytest.approx(expect, rel=1e-12)

    def test_leading_block_dominance(self):
        # frozen witness at n=60, c=3: the (n-1,1) corner-1 block carries
        # more than 99% of the squared sum; d_(m-1,1) = m - 1
        n = 60
        t_star = pr.cutoff_times(n, 3.0)[1]
        bound = pr.l2_bound("star", n, t_star)
        lead = math.exp(
            math.log(n - 1) + math.log(n - 2) + 2 * t_star * math.log((n - 1) / n)
        )
        assert lead / (2.0 * bound) ** 2 >= 0.8

    def test_decreasing_in_c(self):
        n = 60
        vals = {c: pr.l2_bound("star", n, pr.cutoff_times(n, c)[1]) for c in (-3.0, 0.0, 3.0)}
        assert vals[3.0] < vals[0.0] < vals[-3.0]

    def test_matches_exact_l2_identity_small(self):
        # cross-check against the dense matrix: sum of mult*eig^(2t) equals
        # tr(M^(2t)), the squared Frobenius norm of M^t
        n, t = 4, 3
        m = ec.build_matrix("star", n).dense_float()
        mt = np.linalg.matrix_power(m, t)
        frob_sq = np.sum(mt * mt)
        expect = 0.5 * math.sqrt(frob_sq - 1.0)
        assert pr.l2_bound("star", n, t) == pytest.approx(expect, rel=1e-10)

    def test_guards(self):
        with pytest.raises(ValueError):
            pr.l2_bound("star", 8, -1)
        with pytest.raises(ValueError):
            pr.l2_bound("riffle", 8, 1)
        with pytest.raises(TypeError):
            pr.l2_bound("rt", 5, 2.5)

    def test_time_2_62_underflows_to_zero(self):
        # 2 * t is past int64 here; every power of an |eig| < 1 underflows to 0
        assert pr.l2_bound("rt", 5, 2**62) == 0.0 and pr.l2_bound("star", 5, 2**62) == 0.0

    def test_time_beyond_int64_refused_before_table(self, monkeypatch):
        def no_table(n):
            raise AssertionError("the table was read")

        monkeypatch.setattr(pr, "_spectral_table", no_table)
        for chain in ("rt", "star"):
            with pytest.raises(ValueError, match=str(2**70)):
                pr.l2_bound(chain, 5, 2**70)


class TestTimeGrid:
    """_comparison_sums over integer arrays of times against its scalar calls."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_grid_matches_scalar_calls(self, n):
        ts = np.arange(21)
        tab = pr._spectral_table(n)
        if n == 2:  # no inner corner: term2 and term3 reduce an empty key axis
            assert not (tab.key_j >= 1).any()
        for m in range(1, n // 2 + 1):
            log_sq, parts = pr._comparison_sums(n, ts[:, None], ts, m)
            assert log_sq.shape == (21, 21) and all(p.shape == (21, 21) for p in parts)
            want = [[pr._comparison_sums(n, t, u, m) for u in range(21)] for t in range(21)]
            # one evaluation path: each grid entry is the scalar call's float
            assert np.array_equal(log_sq, [[log_w for log_w, _ in row] for row in want])
            for k, part in enumerate(parts):
                assert np.array_equal(part, [[w[k] for _, w in row] for row in want])

    def test_scalar_times_give_floats(self):
        want = pr._comparison_sums(6, 4, 9, 2)
        for t, t_star in ((4, 9), (np.int64(4), np.int32(9)), (np.array(4), np.array(9))):
            log_sq, parts = pr._comparison_sums(6, t, t_star, 2)
            assert type(log_sq) is float and all(type(p) is float for p in parts)
            assert (log_sq, parts) == want

    def test_one_time_array_broadcasts(self):
        ts = np.arange(5)
        log_sq, parts = pr._comparison_sums(6, 3, ts, 1)
        assert log_sq.shape == (5,) and all(p.shape == (5,) for p in parts)
        for u in ts.tolist():
            want_log, want_parts = pr._comparison_sums(6, 3, u, 1)
            assert log_sq[u] == want_log and tuple(p[u] for p in parts) == want_parts


def partition_counts(n):
    """p(0), ..., p(n) by the coin-change recurrence over part sizes."""
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for k in range(part, n + 1):
            counts[k] += counts[k - part]
    return counts


def scalar_log_dim(lam):
    """log of the hook-length formula, one box at a time."""
    if not lam:
        return 0.0
    cols = [sum(1 for p in lam if p > j) for j in range(lam[0])]
    acc = math.lgamma(sum(lam) + 1)
    for i, p in enumerate(lam):
        for j in range(p):
            acc -= math.log((p - j) + (cols[j] - i) - 1)
    return acc


def scalar_table(n):
    """Per-partition and per-corner columns from plain loops: each corner's
    reduced shape is built explicitly and its dimension computed anew;
    s is exact, as a Fraction."""
    rows = {"lam1": [], "lam1_t": [], "logd": [], "s": []}
    corners = {"parent": [], "logd_red": [], "sbar_idx": [], "sbar": []}
    for idx, lam in enumerate(iter_partitions(n)):
        cols = [sum(1 for p in lam if p > j) for j in range(lam[0])]
        num = sum(p * (p - 1) // 2 for p in lam) - sum(q * (q - 1) // 2 for q in cols)
        rows["lam1"].append(lam[0])
        rows["lam1_t"].append(len(lam))
        rows["logd"].append(scalar_log_dim(lam))
        rows["s"].append(Fraction(1, n) + Fraction((n - 1) * num, n * (n * (n - 1) // 2)))
        for i, p in enumerate(lam):
            if i + 1 < len(lam) and lam[i + 1] == p:
                continue  # the box (i, p - 1) has a box below it
            reduced = list(lam)
            reduced[i] -= 1
            corners["parent"].append(idx)
            corners["logd_red"].append(scalar_log_dim(tuple(x for x in reduced if x)))
            corners["sbar_idx"].append(p - i + n - 2)
            corners["sbar"].append(Fraction(p - i, n))
    return rows, corners


def sign_of(x):
    return (x > 0) - (x < 0)


class TestSpectralTable:
    @pytest.mark.parametrize("n", range(2, 23))
    def test_matches_scalar_construction(self, n):
        tab, tab_corners = pr._spectral_table(n), corner_table(n)
        rows, corners = scalar_table(n)
        counts = partition_counts(n)
        assert len(tab.lam1) == counts[n]
        assert len(tab_corners.parent) == sum(counts[n - k] for k in range(1, n + 1))
        for name in ("lam1", "lam1_t"):
            assert getattr(tab, name).tolist() == rows[name]
        for name in ("parent", "sbar_idx"):
            assert getattr(tab_corners, name).tolist() == corners[name]
        # the build subtracts the same logs in the same order as the scalar walk
        assert tab.logd.tolist() == rows["logd"]
        assert tab_corners.logd_red.tolist() == corners["logd_red"]
        s_exact = rows["s"]
        nonzero = np.array([s != 0 for s in s_exact])
        assert tab.s_sign[nonzero].tolist() == [sign_of(s) for s in s_exact if s]
        np.testing.assert_allclose(
            tab.s_log[nonzero], [math.log(abs(s)) for s in s_exact if s], rtol=1e-12
        )
        assert np.all(tab.s_log[~nonzero] == -math.inf)
        sbar = corners["sbar"]
        idx = tab_corners.sbar_idx
        assert tab.sbar_sign[idx].tolist() == [sign_of(v) for v in sbar]
        np.testing.assert_allclose(
            tab.sbar_log[idx], [math.log(abs(v)) if v else -math.inf for v in sbar], rtol=1e-12
        )

    @pytest.mark.parametrize("n", range(2, 23))
    def test_zero_eigenvalues_are_exact(self, n):
        # s = 0 where 2 * (sum of contents) = -n; a float residue there would
        # keep (s^t - sbar^t*) terms that should vanish
        s_exact = scalar_table(n)[0]["s"]
        tab = pr._spectral_table.__wrapped__(n)
        assert (tab.s_sign == 0).tolist() == [s == 0 for s in s_exact]

    @pytest.mark.parametrize("n", range(2, 49))
    def test_key_weights_sum_to_n_factorial(self, n):
        # sum of d^2 over partitions, and of d * d_corner over corners by the
        # branching rule d = sum over corners of d_corner, are both n!
        tab = pr._spectral_table(n)
        log_fact = math.lgamma(n + 1)
        for weights in (tab.pkey_logw, tab.key_logw):
            assert math.exp(pr._log_sum(weights) - log_fact) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_keys_group_the_corners(self, n):
        tab = pr._spectral_table.__wrapped__(n)
        half, sums, pweight, cweight = n // 2, [], {}, {}
        for lam in iter_partitions(n):
            d = exact_dim(lam)
            sums.append(sum(j - i for i, p in enumerate(lam) for j in range(p)) + n * (n - 1) // 2)
            key = (sums[-1], min(n - lam[0], half))
            pweight[key] = pweight.get(key, 0) + d * d
            j = min(n - lam[0], n - len(lam), half)
            for i, p in enumerate(lam):
                if i + 1 < len(lam) and lam[i + 1] == p:
                    continue
                reduced = tuple(x - (k == i) for k, x in enumerate(lam) if x - (k == i))
                key = (sums[-1], j, p - i + n - 2)
                cweight[key] = cweight.get(key, 0) + d * exact_dim(reduced)
        assert np.array_equal(tab.sum_sign[sums], tab.s_sign)
        assert np.array_equal(tab.sum_log[sums], tab.s_log)
        pkeys = list(zip(tab.pkey_sum.tolist(), tab.pkey_j.tolist()))
        ckeys = list(zip(tab.key_sum.tolist(), tab.key_j.tolist(), tab.key_sbar.tolist()))
        assert pkeys == sorted(pweight) and ckeys == sorted(cweight)
        # an absolute error in a log weight is a relative error in the weight
        for got, weight, keys in ((tab.pkey_logw, pweight, pkeys), (tab.key_logw, cweight, ckeys)):
            np.testing.assert_allclose(got, [math.log(weight[k]) for k in keys], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [*range(2, 31), 48])
    def test_key_weights_are_sums_in_table_order(self, n):
        # each key's weight is np.add.at over its corners' d d_corner / n! (its
        # partitions' d^2 / n!) in table order, to the bit
        tab, corners = pr._spectral_table(n), corner_table(n)
        sums, _ = pr._content_sums(n)
        log_fact, span, width = math.lgamma(n + 1), n // 2 + 1, 2 * n - 1

        def grouped(code, log_weight):
            keys, inverse = np.unique(code, return_inverse=True)
            acc = np.zeros(len(keys))
            np.add.at(acc, inverse, np.exp(log_weight - log_fact))
            return keys, np.log(acc) + log_fact

        jp = np.minimum(n - tab.lam1, span - 1)
        keys, logw = grouped(sums * span + jp, 2.0 * tab.logd)
        assert np.array_equal(tab.pkey_sum * span + tab.pkey_j, keys)
        assert np.array_equal(tab.pkey_logw, logw)
        cell, parent = sums * span + np.minimum(jp, n - tab.lam1_t), corners.parent
        keys, logw = grouped(
            cell[parent] * width + corners.sbar_idx, tab.logd[parent] + corners.logd_red
        )
        assert np.array_equal((tab.key_sum * span + tab.key_j) * width + tab.key_sbar, keys)
        assert np.array_equal(tab.key_logw, logw)

    @pytest.mark.parametrize("n", [48, 60])
    def test_sampled_corners_match_scalar_walk(self, n):
        # 2,000 sampled corners' log d_corner and 2,000 sampled partitions' log d
        tab, corners = pr._spectral_table(n), corner_table(n)
        rng = np.random.default_rng(n)
        picks = set(rng.choice(len(corners.parent), 2000, replace=False).tolist())
        rows = set(rng.choice(len(tab.logd), 2000, replace=False).tolist())
        want, got, want_d, k = [], [], [], 0
        for idx, lam in enumerate(iter_partitions(n)):
            if idx in rows:
                want_d.append(scalar_log_dim(lam))
            for i, p in enumerate(lam):
                if i + 1 < len(lam) and lam[i + 1] == p:
                    continue
                if k in picks:
                    assert corners.parent[k] == idx
                    reduced = list(lam)
                    reduced[i] -= 1
                    want.append(scalar_log_dim(tuple(x for x in reduced if x)))
                    got.append(corners.logd_red[k])
                k += 1
        assert k == len(corners.parent) and len(got) == 2000
        assert got == want
        assert len(want_d) == 2000 and tab.logd[sorted(rows)].tolist() == want_d

    @pytest.mark.parametrize("n", range(1, 26))
    def test_corner_lifts_match_enumeration(self, n):
        # the level recursion against plain loops: hooks in box order, and per
        # corner its partition, its row (by its sbar index lam_i - i + n - 2)
        # and its lift lam - e_i + e_1, which keeps the reduced shape lam - e_i,
        # with its corner in row 1; the level walk's lam'_1 and content sums
        parts = list(iter_partitions(n))
        index = {lam: idx for idx, lam in enumerate(parts)}
        want = {name: [] for name in ("hooks", "lam1_t", "sums", "parent", "sbar", "lift")}
        for idx, lam in enumerate(parts):
            cols = [sum(1 for p in lam if p > j) for j in range(lam[0])]
            boxes = [(i, j) for i, p in enumerate(lam) for j in range(p)]
            want["hooks"].append([lam[i] - j + cols[j] - i - 1 for i, j in boxes])
            want["lam1_t"].append(len(lam))
            want["sums"].append(sum(j - i for i, j in boxes) + n * (n - 1) // 2)
            for i, p in enumerate(lam):
                if i + 1 < len(lam) and lam[i + 1] == p:
                    continue
                moved = list(lam)
                moved[i] -= 1
                moved[0] += 1
                want["parent"].append(idx)
                want["sbar"].append(p - i + n - 2)
                want["lift"].append(index[tuple(x for x in moved if x)])
        got = {name: [] for name in want}
        for lo, hooks, counts, lift, sbar in pr._partition_rows(n):
            assert lo == len(got["hooks"])
            got["hooks"] += hooks.tolist()
            got["parent"] += np.repeat(np.arange(lo, lo + len(hooks)), counts).tolist()
            got["sbar"] += sbar.tolist()
            got["lift"] += lift.tolist()
        sums, lam1_t = pr._content_sums(n)
        got["sums"], got["lam1_t"] = sums.tolist(), lam1_t.tolist()
        assert got == want

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunk_boundaries(self, monkeypatch, chunk):
        # the key weights too: np.add.at sums in table order in any batching;
        # p(20) = 627 is one batch inline, and 627 or 90 through the worker
        want = pr._spectral_table.__wrapped__(20)
        monkeypatch.setattr(pr, "_TABLE_CHUNK", chunk)
        got = through_worker(monkeypatch, 20)
        for name, column in zip(want._fields, got):
            expected = getattr(want, name)
            assert column.dtype == expected.dtype, name
            assert np.array_equal(column, expected), name

    def test_columns_are_read_only(self):
        tab = pr._spectral_table(9)
        assert {"sum_log", "pkey_logw", "key_logw"} <= set(tab._fields)
        # the table holds no per-corner column
        assert not {"parent", "logd_red", "sbar_idx"} & set(tab._fields)
        assert not any(column.flags.writeable for column in tab)


def through_worker(monkeypatch, n):
    """_spectral_table(n) built anew, checking that it went through _ahead."""
    calls, ahead = [], pr._ahead
    monkeypatch.setattr(pr, "_ahead", lambda batches: calls.append(n) or ahead(batches))
    table = pr._spectral_table.__wrapped__(n)
    monkeypatch.setattr(pr, "_ahead", ahead)
    assert calls == [n]
    return table


class FailAt:
    """_LOG_INT for the caller's log d loop, raising exc at the call-th take."""

    def __init__(self, call, exc):
        self.calls, self.call, self.exc = 0, call, exc

    def take(self, box):
        self.calls += 1
        if self.calls == self.call:
            raise self.exc
        return pr._LOG_INT.take(box)


class Boom(Exception):
    pass


class TestTablePipeline:
    """The level recursion runs on one worker thread ahead of the log d and
    key sums once p(n) > _TABLE_CHUNK, n >= 32; no thread outlives a build."""

    @pytest.mark.parametrize("n", [32, 33, 48])
    def test_matches_inline_build(self, monkeypatch, n):
        # 32 is the first n with two batches
        got = through_worker(monkeypatch, n)
        monkeypatch.setattr(pr, "_ahead", lambda batches: batches)
        want = pr._spectral_table.__wrapped__(n)
        for name, column in zip(want._fields, got):
            expected = getattr(want, name)
            assert column.dtype == expected.dtype, name
            assert column.tobytes() == expected.tobytes(), name

    def test_worker_error_reraises(self, monkeypatch):
        rows = pr._partition_rows

        def failing(n):
            batches = rows(n)
            yield next(batches)
            raise Boom("no second batch")

        monkeypatch.setattr(pr, "_partition_rows", failing)
        before = threading.enumerate()
        with pytest.raises(Boom, match="^no second batch$"):
            pr._spectral_table.__wrapped__(40)
        assert threading.enumerate() == before

    @pytest.mark.parametrize("exc", [ValueError("caller"), KeyboardInterrupt()])
    def test_caller_error_stops_worker(self, monkeypatch, exc):
        # the first take of the second batch, when the worker may wait on a full queue
        monkeypatch.setattr(pr, "_LOG_INT", FailAt(48 + 1, exc))
        before = threading.enumerate()
        with pytest.raises(type(exc)):
            pr._spectral_table.__wrapped__(48)
        assert threading.enumerate() == before

    def test_close_stops_worker(self):
        before = threading.enumerate()
        batches = pr._ahead(itertools.count())
        assert [next(batches) for _ in range(5)] == [0, 1, 2, 3, 4]
        # GeneratorExit at the yield, with the queue full; a worker left
        # blocked on it would hang close(), so close() gets a thread of its own
        closer = threading.Thread(target=batches.close, daemon=True)
        closer.start()
        closer.join(10)
        assert not closer.is_alive()
        assert threading.enumerate() == before

    def test_order_under_fast_switching(self):
        # every item once, in order, with a thread switch every microsecond
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert list(pr._ahead(iter(range(5_000)))) == list(range(5_000))
        finally:
            sys.setswitchinterval(interval)

    def test_worker_reads_only_cached_sources(self, monkeypatch):
        pr._source(40)
        pr.count_table(8)  # _source(40) is cached, count_table(40) is not
        misses = []
        for name in ("_source", "count_table"):
            cached = getattr(pr, name)

            def spy(n, cached=cached):
                before = cached.cache_info().misses
                result = cached(n)
                if threading.current_thread() is not threading.main_thread():
                    misses.append(cached.cache_info().misses - before)
                return result

            monkeypatch.setattr(pr, name, spy)
        through_worker(monkeypatch, 40)
        assert misses == [0, 0]

    @pytest.mark.parametrize("n", [2, 8, 31])
    def test_one_batch_starts_no_thread(self, monkeypatch, n):
        def no_thread(*args, **kwargs):
            raise AssertionError("thread started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        assert len(pr._spectral_table.__wrapped__(n).lam1) == partition_counts(n)[n]
        with pytest.raises(AssertionError, match="thread started"):
            pr._spectral_table.__wrapped__(32)
