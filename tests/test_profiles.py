import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shuffle_spectra import exact_chain as ec
from shuffle_spectra import profiles as pr
from shuffle_spectra import spectra
from shuffle_spectra.partitions import (
    SizeLimitError,
    exact_dim,
    iter_partitions,
    log_dim,
)


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


def naive_comparison_total(n, c):
    """Plain double-precision summation with exact dimensions (no log space)."""
    t, t_star = pr.cutoff_times(n, c)
    total = 0.0
    for lam in iter_partitions(n):
        d = exact_dim(lam)
        s = float(spectra.rt_eigenvalue(lam).s)
        for e in spectra.star_eigenvalues(lam):
            total += d * exact_dim(e.reduced) * (s**t - float(e.s_bar) ** t_star) ** 2
    return 0.5 * math.sqrt(total)


def signed_log(x):
    """A float as (sign, log magnitude), the form the comparison sums use."""
    if x == 0.0:
        return 0, float("-inf")
    return (1 if x > 0 else -1), math.log(abs(x))


def signed_float(sign, log_mag):
    return 0.0 if sign == 0 else sign * math.exp(log_mag)


class TestSignedLogReal:
    """The signed log-space helpers _signed_pow and _signed_diff."""

    def test_pow_sign_tracking(self):
        assert signed_float(*pr._signed_pow(-0.5, 3)) == pytest.approx(-0.125, rel=1e-12)
        assert signed_float(*pr._signed_pow(-0.5, 4)) == pytest.approx(0.0625, rel=1e-12)
        assert pr._signed_pow(-0.5, 0) == (1, 0.0)

    def test_zero(self):
        assert signed_log(0.0)[0] == 0
        assert pr._signed_pow(0.0, 5) == (0, float("-inf"))
        assert signed_float(*pr._signed_diff(*signed_log(0.0), *signed_log(3.0))) == (
            pytest.approx(-3.0, rel=1e-12)
        )

    def test_subtraction(self):
        five, three = signed_log(5.0), signed_log(3.0)
        assert signed_float(*pr._signed_diff(*five, *three)) == pytest.approx(2.0, rel=1e-12)
        assert signed_float(*pr._signed_diff(*three, *five)) == pytest.approx(-2.0, rel=1e-12)
        minus_three = signed_log(-3.0)
        assert signed_float(*pr._signed_diff(*five, *minus_three)) == pytest.approx(
            8.0, rel=1e-12
        )

    def test_near_equal_guard(self):
        assert pr._signed_diff(*signed_log(1.0), 1, 5e-14)[0] == 0

    @given(
        st.floats(-50, 50).filter(lambda x: abs(x) > 1e-6),
        st.floats(-50, 50).filter(lambda x: abs(x) > 1e-6),
    )
    def test_addition_matches_floats(self, x, y):
        sy, ly = signed_log(y)
        got = signed_float(*pr._signed_diff(*signed_log(x), -sy, ly))
        assert got == pytest.approx(x + y, rel=1e-9, abs=1e-10)


class TestPoissonTv:
    def test_identical(self):
        assert pr.poisson_tv(1.0, 1.0) == 0.0

    def test_far_apart(self):
        assert pr.poisson_tv(40.0, 1.0) > 0.999

    def test_against_bruteforce_oracle(self):
        assert pr.poisson_tv(2.0, 1.0) == pytest.approx(
            poisson_tv_oracle(2.0, 1.0), abs=1e-12
        )

    def test_symmetric(self):
        assert pr.poisson_tv(2.5, 1.5) == pytest.approx(pr.poisson_tv(1.5, 2.5), abs=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            pr.poisson_tv(0.0, 1.0)
        with pytest.raises(ValueError):
            pr.poisson_tv(1.0, 51.0)


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
        for c in np.arange(-4.0, 4.5, 0.5):
            assert pr.rt_profile(c).value == pr.star_profile(c).value

    def test_rt_at_zero(self):
        assert pr.rt_profile(0.0).value == pytest.approx(pr.poisson_tv(2.0, 1.0), abs=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            pr.star_profile(-8.5)
        with pytest.raises(ValueError):
            pr.rt_profile(12.5)


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

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            pr.cutoff_times(5, -20.0)


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
        calls = []
        blocks = pr._blocks

        def counting_blocks(n):
            calls.append(n)
            return blocks(n)

        monkeypatch.setattr(pr, "_blocks", counting_blocks)
        pr.comparison_bound(20, 0.0)
        assert calls == [20]

    def test_parts_equal_decomposition(self):
        rep = pr.comparison_bound(20, -0.3, truncation_m=3)
        assert rep.parts == pr.bound_decomposition(20, -0.3, 3)


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


class TestL2Bound:
    def test_t_zero_value(self):
        for chain, n in (("rt", 6), ("star", 8)):
            expect = 0.5 * math.sqrt(math.factorial(n) - 1)
            assert pr.l2_bound(chain, n, 0) == pytest.approx(expect, rel=1e-12)

    def test_leading_block_dominance(self):
        # frozen witness at n=60, c=3: the (n-1,1) corner-1 block carries
        # more than 99% of the squared sum
        n = 60
        t_star = pr.cutoff_times(n, 3.0)[1]
        bound = pr.l2_bound("star", n, t_star)
        lead = math.exp(
            log_dim((n - 1, 1)) + log_dim((n - 2, 1)) + 2 * t_star * math.log((n - 1) / n)
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
