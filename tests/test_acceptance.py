"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The module is self-contained (its own oracles) so a red criterion here points
at the library, not at a shared test helper.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from shuffle_spectra import cli, exact_chain as ec, profiles as pr, spectra
from shuffle_spectra.partitions import corners, enumerate_partitions, exact_dim, transpose

from partition_oracle import iter_partitions


def _report(capsys, num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_01_dimension_identity(capsys):
    start = time.perf_counter()
    ok = all(
        sum(exact_dim(lam) ** 2 for lam in enumerate_partitions(n)) == math.factorial(n)
        for n in range(1, 15)
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report(capsys, 1, "sum d^2 = n! for n <= 14", ok, f"{elapsed:.2f}s")


def test_criterion_02_branching_and_duality(capsys):
    ok = True
    for n in range(2, 31):
        for lam in iter_partitions(n):
            if exact_dim(lam) != sum(exact_dim(c.reduced) for c in corners(lam)):
                ok = False
    for n in range(2, 21):
        for lam in iter_partitions(n):
            tr = transpose(lam)
            for c in corners(lam):
                dual = next(cc for cc in corners(tr) if cc.row == lam[c.row - 1])
                if exact_dim(c.reduced) != exact_dim(dual.reduced):
                    ok = False
    _report(capsys, 2, "branching n <= 30 and transpose duality n <= 20", ok)


def test_criterion_03_dimension_and_corner_bounds(capsys):
    violations = 0
    for n in range(2, 26):
        for lam in iter_partitions(n):
            j = n - lam[0]
            d = exact_dim(lam)
            if d * d > math.comb(n, j) ** 2 * math.factorial(j):
                violations += 1
            for c in corners(lam):
                if c.row > 1:
                    if n * exact_dim(c.reduced) > 4**j * d:
                        violations += 1
                    if not -j <= lam[c.row - 1] - c.row + 1 <= n - j:
                        violations += 1
    _report(capsys, 3, "dimension and corner bounds n <= 25", violations == 0,
            f"{violations} violations")


def test_criterion_04_completeness_and_trace(capsys):
    ok = True
    for chain in spectra.CHAINS:
        for n in range(2, 13):
            if spectra.total_multiplicity(chain, n) != math.factorial(n):
                ok = False
            if spectra.spectrum_trace(chain, n) != Fraction(math.factorial(n - 1)):
                ok = False
    _report(capsys, 4, "spectrum completeness and trace n <= 12", ok)


def _binned(values, gap=1e-6):
    values = np.sort(np.asarray(values))
    bins = []
    for v in values:
        if bins and v - bins[-1][0] < gap:
            val, cnt = bins[-1]
            bins[-1] = ((val * cnt + v) / (cnt + 1), cnt + 1)
        else:
            bins.append((v, 1))
    return bins


def test_criterion_05_formula_vs_numeric_spectra(capsys):
    start = time.perf_counter()
    ok = True
    for n in (3, 4, 5, 6):
        for chain in spectra.CHAINS:
            numeric = _binned(ec.numeric_eig_multiset(ec.build_matrix(chain, n)))
            acc = {}
            for _, eig, mult in spectra.spectrum_rows(chain, n):
                acc[eig] = acc.get(eig, 0) + mult
            formula = sorted((float(v), m) for v, m in acc.items())
            if len(numeric) != len(formula):
                ok = False
                continue
            for (nv, nc), (fv, fc) in zip(numeric, formula):
                if abs(nv - fv) > 1e-8 or nc != fc:
                    ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    _report(capsys, 5, "numeric spectra (eigvalsh) match formulas, n <= 6", ok, f"{elapsed:.0f}s")


def test_criterion_06_commutation(capsys):
    ok = all(ec.commutation_check(n) for n in range(2, 8))
    ok = ok and not ec.exact_commutes(ec.build_matrix("star", 3), ec.build_skewed_matrix(3))
    _report(capsys, 6, "exact commutation n <= 7 with negative control", ok)


def _formula_blocks(n):
    out = []
    for lam in enumerate_partitions(n):
        d = exact_dim(lam)
        s = float(spectra.rt_eigenvalue(lam).s)
        cs = [(exact_dim(e.reduced), float(e.s_bar)) for e in spectra.star_eigenvalues(lam)]
        out.append((d, s, cs))
    return out


def _rhs_from_blocks(blocks, t, t_star):
    total = 0.0
    for d, s, cs in blocks:
        st = s**t
        for dr, sb in cs:
            total += d * dr * (st - sb**t_star) ** 2
    return math.sqrt(total)


def _rhs_numeric(n, t, t_star):
    """Rebuild the rhs from numpy-diagonalized matrices, pairing eigenvalues
    inside each degenerate block of the random-transpositions chain."""
    p = ec.build_matrix("star", n).dense_float()
    q = ec.build_matrix("rt", n).dense_float()
    wq, v = np.linalg.eigh(q)
    total = 0.0
    i = 0
    while i < len(wq):
        j = i
        while j + 1 < len(wq) and wq[j + 1] - wq[i] < 1e-6:
            j += 1
        vg = v[:, i : j + 1]
        block = vg.T @ p @ vg
        betas = np.linalg.eigvalsh((block + block.T) / 2)
        qval = wq[i : j + 1].mean()
        for beta in betas:
            total += (qval**t - beta**t_star) ** 2
        i = j + 1
    return math.sqrt(total)


def test_criterion_07_comparison_inequality(capsys):
    ok = True
    worst = -math.inf
    for n in (5, 6):
        blocks = _formula_blocks(n)
        p = ec.build_matrix("star", n)
        q = ec.build_matrix("rt", n)
        dp = [ec.evolve(p, 0, t) for t in range(41)]
        dq = [ec.evolve(q, 0, t) for t in range(41)]
        for t in range(41):
            for t_star in range(41):
                lhs = np.abs(dq[t] - dp[t_star]).sum()  # 2 TV, summed over S_n
                rhs = _rhs_from_blocks(blocks, t, t_star)
                worst = max(worst, lhs - rhs)
                if lhs > rhs + 1e-10:
                    ok = False
        for t, t_star in ((0, 0), (2, 4), (4, 8), (11, 21), (40, 40)):
            if abs(_rhs_from_blocks(blocks, t, t_star) - _rhs_numeric(n, t, t_star)) > 1e-7:
                ok = False
    _report(capsys, 7, "2 TV <= spectral rhs on [0,40]^2, n in {5,6}", ok,
            f"max lhs-rhs {worst:.2e}")


def _naive_total(n, c):
    t, t_star = pr.cutoff_times(n, c)
    total = 0.0
    for lam in iter_partitions(n):
        d = exact_dim(lam)
        s = float(spectra.rt_eigenvalue(lam).s)
        for e in spectra.star_eigenvalues(lam):
            total += d * exact_dim(e.reduced) * (s**t - float(e.s_bar) ** t_star) ** 2
    return 0.5 * math.sqrt(total)


def test_criterion_08_log_space_correctness(capsys):
    worst = 0.0
    for n in (5, 8):
        for c in (-1.0, 0.0, 1.0):
            got = pr.comparison_bound(n, c).total
            want = _naive_total(n, c)
            if want > 0:
                worst = max(worst, abs(got - want) / want)
    _report(capsys, 8, "log-space bound matches naive summation", worst <= 1e-9,
            f"worst rel {worst:.2e}")


@pytest.mark.parametrize("c", [-1.0, 0.0, 1.0])
def test_criterion_09_vanishing_trend(capsys, c):
    v16 = pr.comparison_bound(16, c).total
    start = time.perf_counter()
    v48 = pr.comparison_bound(48, c).total
    elapsed = time.perf_counter() - start
    ok = v48 < v16 and elapsed < 60.0
    _report(capsys, 9, f"bound decreases 16 -> 48 at c={c:+.0f}", ok,
            f"{v16:.4f} -> {v48:.4f}, {elapsed:.1f}s")


def _poisson_oracle(mu1, mu2, terms=500):
    p1 = math.exp(-mu1)
    p2 = math.exp(-mu2)
    total = abs(p1 - p2)
    for k in range(1, terms):
        p1 *= mu1 / k
        p2 *= mu2 / k
        total += abs(p1 - p2)
    return 0.5 * total


def test_criterion_10_poisson_profile(capsys):
    ok = abs(pr.star_profile(0.0).value - _poisson_oracle(2.0, 1.0)) <= 1e-12
    values = [pr.star_profile(c).value for c in np.arange(-8.0, 12.0 + 1e-9, 0.1)]
    ok = ok and all(0.0 <= v <= 1.0 for v in values)
    ok = ok and all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    ok = ok and values[-1] < 1e-4 and values[0] > 0.99
    _report(capsys, 10, "Poisson profile vs oracle, monotone on [-8,12]", ok)


def test_criterion_11_exact_cutoff_sanity_n8(capsys):
    n = 8
    m = ec.build_matrix("star", n)
    a = m.mat.astype(np.float64).multiply(1.0 / m.denom).tocsr()
    d = np.zeros(math.factorial(n))
    d[0] = 1.0
    ok = True
    prev = math.inf
    for t in range(81):
        tv = ec.tv_to_uniform(d)
        if not (-1e-12 <= tv <= 1.0 + 1e-12 and tv <= prev + 1e-12):
            ok = False
        if tv > min(1.0, pr.l2_bound("star", n, t)) + 1e-10:
            ok = False
        prev = tv
        d = a.T @ d
    _report(capsys, 11, "exact star TV curve at n=8 under the l2 bound", ok)


def test_criterion_12_cli_determinism(capsys):
    invocations = [
        ["spectrum", "--chain", "star", "--n", "5"],
        ["bound", "--n", "8", "--c", "0.0"],
        ["decompose", "--n", "10", "--c", "0", "--M", "3"],
        ["profile", "--c-min", "-2", "--c-max", "2", "--step", "0.5"],
        ["exact-tv", "--chain", "star", "--n", "5", "--t-max", "20"],
        ["compare", "--n", "6", "--c", "0"],
        ["verify", "--n", "5"],
    ]
    ok = True
    for argv in invocations:
        code1 = cli.run(argv)
        out1 = capsys.readouterr().out
        code2 = cli.run(argv)
        out2 = capsys.readouterr().out
        if code1 != 0 or code2 != 0 or out1.encode() != out2.encode():
            ok = False
    verify_code = cli.run(["verify", "--n", "5"])
    capsys.readouterr()
    ok = ok and verify_code == 0
    _report(capsys, 12, "CLI byte-identical reruns; verify --n 5 exits 0", ok)
