import itertools
import math
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse

from shuffle_spectra import exact_chain as ec
from shuffle_spectra import profiles as pr
from shuffle_spectra import spectra
from shuffle_spectra.partitions import SizeLimitError, enumerate_partitions

from partition_oracle import iter_partitions


def binned_multiset(values, gap=1e-6):
    """Merge sorted eigenvalues closer than gap into (value, count) bins."""
    values = np.sort(np.asarray(values))
    bins = []
    for v in values:
        if bins and v - bins[-1][0] < gap:
            val, cnt = bins[-1]
            bins[-1] = ((val * cnt + v) / (cnt + 1), cnt + 1)
        else:
            bins.append((v, 1))
    return bins


def formula_multiset(chain, n):
    """(eigenvalue, multiplicity) pairs from the closed forms, merged exactly."""
    acc = {}
    for lam, eig, mult in spectra.spectrum_rows(chain, n):
        acc[eig] = acc.get(eig, 0) + mult
    return sorted((float(v), m) for v, m in acc.items())


def lex_order(n):
    """Every permutation of n in lexicographic order, the documented state order."""
    return list(itertools.permutations(range(n)))


def lex_rank(n):
    """Oracle state index: position in lexicographic order."""
    return {p: i for i, p in enumerate(lex_order(n))}


def all_swaps(n):
    return list(itertools.combinations(range(n), 2))


def swap(p, a, b):
    """p * (a b): the cards at positions a and b exchanged."""
    q = list(p)
    q[a], q[b] = q[b], q[a]
    return tuple(q)


class TestRanking:
    """The build's rank maps pi[x] = rank(x * (a b)) against the lexicographic oracle."""

    def test_identity_rank_zero(self):
        for n in range(2, 9):
            assert lex_order(n)[0] == tuple(range(n))
            rank = lex_rank(n)
            for (a, b), pi in ec._swap_maps(n, all_swaps(n)).items():
                assert pi[0] == rank[swap(range(n), a, b)]

    def test_bijection_n3(self):
        for pi in ec._swap_maps(3, all_swaps(3)).values():
            assert sorted(pi.tolist()) == list(range(6))
            assert pi[pi].tolist() == list(range(6))  # a swap undoes itself

    def test_rank_is_lexicographic_index(self):
        for n in range(2, 8):
            rank = lex_rank(n)
            maps = ec._swap_maps(n, all_swaps(n))
            assert list(maps) == all_swaps(n)
            for (a, b), pi in maps.items():
                assert pi.dtype == np.int32
                assert pi.tolist() == [rank[swap(p, a, b)] for p in rank], (n, a, b)

    def test_random_round_trip_n8(self):
        rng = random.Random(20230817)
        rank = lex_rank(8)
        maps = ec._swap_maps(8, all_swaps(8))
        for _ in range(10_000):
            p = list(range(8))
            rng.shuffle(p)
            for (a, b), pi in maps.items():
                assert pi[rank[tuple(p)]] == rank[swap(p, a, b)]


class TestBuildMatrix:
    def test_star_identity_row_n3(self):
        m = ec.build_matrix("star", 3)
        row = m.mat[0].toarray().ravel()
        expect = np.zeros(6)
        expect[0] = 1  # identity
        rank = lex_rank(3)
        expect[rank[(1, 0, 2)]] = 1  # swap positions 0,1
        expect[rank[(2, 1, 0)]] = 1  # swap positions 0,2
        assert m.scale == 1 and m.denom == 3
        assert np.array_equal(row, expect)

    def test_rt_identity_row_n3(self):
        m = ec.build_matrix("rt", 3)
        row = m.mat[0].toarray().ravel()
        assert m.scale == 2 and m.denom == 9
        assert row[0] == 3
        swaps = [(1, 0, 2), (2, 1, 0), (0, 2, 1)]
        rank = lex_rank(3)
        for s in swaps:
            assert row[rank[s]] == 2

    @pytest.mark.parametrize("chain", ["rt", "star"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_stochastic_and_symmetric(self, chain, n):
        m = ec.build_matrix(chain, n)
        assert np.all(m.mat.sum(axis=1) == m.denom)
        assert m.is_symmetric_exact()

    def test_guards(self):
        with pytest.raises(SizeLimitError):
            ec.build_matrix("rt", 9)
        with pytest.raises(ValueError):
            ec.build_matrix("riffle", 4)


def naive_matrix(n, weights):
    """Dense integer matrix of the walk x -> x * g, state by state."""
    rank = lex_rank(n)
    out = np.zeros((len(rank), len(rank)), dtype=np.int64)
    for p, x in rank.items():
        for g, w in weights.items():
            out[x, rank[tuple(p[g[i]] for i in range(n))]] += w
    return out


def lehmer_ranks(perms):
    """Lexicographic rank of each row of perms by its Lehmer code: the count of
    smaller entries to the right of position i, times (n - 1 - i)!."""
    n = perms.shape[1]
    ranks = np.zeros(len(perms), dtype=np.int64)
    for i in range(n - 1):
        smaller = (perms[:, i + 1 :] < perms[:, i : i + 1]).sum(axis=1)
        ranks += smaller * math.factorial(n - 1 - i)
    return ranks


class TestBuildMatrixOracle:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_naive_construction(self, n):
        ident = tuple(range(n))
        rt = {ident: n, **{swap(ident, a, b): 2 for a in range(n) for b in range(a + 1, n)}}
        star = {ident: 1, **{swap(ident, 0, j): 1 for j in range(1, n)}}
        skewed = {ident: 1, swap(ident, 0, 1): n - 1}
        cases = [
            (ec.build_matrix("rt", n), rt, 2),
            (ec.build_matrix("star", n), star, 1),
            (ec.build_skewed_matrix(n), skewed, 1),
        ]
        for built, weights, scale in cases:
            assert built.n == n and built.scale == scale
            assert built.mat.has_canonical_format
            assert built.mat.indices.dtype == built.mat.indptr.dtype == np.int32
            assert built.mat.dtype == np.int8
            assert np.array_equal(built.mat.toarray(), naive_matrix(n, weights))

    @pytest.mark.parametrize("n", [7, 8])
    def test_matches_lehmer_oracle(self, n):
        # each generator as the column order it puts the cards in
        ident = tuple(range(n))
        perms = np.array(lex_order(n), dtype=np.int8)
        m = len(perms)
        rt = [(ident, n)] + [(swap(ident, a, b), 2) for a, b in all_swaps(n)]
        star = [(ident, 1)] + [(swap(ident, 0, j), 1) for j in range(1, n)]
        skewed = [(ident, 1), (swap(ident, 0, 1), n - 1)]
        cases = [
            (ec.build_matrix("rt", n), rt),
            (ec.build_matrix("star", n), star),
            (ec.build_skewed_matrix(n), skewed),
        ]
        for built, weights in cases:
            rows = np.tile(np.arange(m), len(weights))
            cols = np.concatenate([lehmer_ranks(perms[:, list(g)]) for g, _ in weights])
            data = np.repeat(np.array([w for _, w in weights], dtype=np.int64), m)
            oracle = sparse.coo_matrix((data, (rows, cols)), shape=(m, m)).tocsr()
            oracle.sum_duplicates()
            oracle.sort_indices()
            mat = built.mat
            assert mat.has_canonical_format
            assert mat.indptr.dtype == mat.indices.dtype == np.int32 and mat.data.dtype == np.int8
            assert np.array_equal(mat.indptr, oracle.indptr)
            assert np.array_equal(mat.indices, oracle.indices)
            assert np.array_equal(mat.data, oracle.data)

    def test_vectorised_rank_is_itertools_order(self):
        # the state of rank x is perms[x], so perms[pi] must be perms with columns swapped
        perms = np.array(lex_order(8), dtype=np.int8)
        for (a, b), pi in ec._swap_maps(8, all_swaps(8)).items():
            cols = list(range(8))
            cols[a], cols[b] = b, a
            assert np.array_equal(perms[pi], perms[:, cols]), (a, b)
            assert np.array_equal(pi[pi], np.arange(40320))


def sparse_walk(m, start, t_max):
    """In-test oracle: every distribution up to t_max, one sparse step at a
    time over a float operator built by astype, multiply and tocsr."""
    a = m.mat.astype(np.float64).multiply(1.0 / m.denom).tocsr()
    d = np.zeros(m.mat.shape[0])
    d[start] = 1.0
    dists = [d]
    for _ in range(t_max):
        d = a.T @ d
        dists.append(d)
    return dists


def fraction_walk(n, weights, denom, start, t_max):
    """Exact oracle: every distribution up to t_max in rationals, state by
    state, from the point mass at rank start; weights maps generator -> weight."""
    perms = lex_order(n)
    rank = lex_rank(n)
    steps = [[(rank[tuple(p[g[i]] for i in range(n))], w) for g, w in weights.items()] for p in perms]
    d = [Fraction(0)] * len(perms)
    d[start] = Fraction(1)
    dists = [d]
    for _ in range(t_max):
        nxt = [Fraction(0)] * len(perms)
        for x, mass in enumerate(d):
            if mass:
                for y, w in steps[x]:
                    nxt[y] += mass * w
        d = [v / denom for v in nxt]
        dists.append(d)
    return dists


def chain_weights(chain, n):
    """Generator -> integer weight of build_matrix(chain, n), from the docstring."""
    ident = tuple(range(n))
    if chain == "rt":
        return {ident: n, **{swap(ident, a, b): 2 for a, b in all_swaps(n)}}
    return {ident: 1, **{swap(ident, 0, j): 1 for j in range(1, n)}}


def assert_relative(got, want, rel=1e-13):
    """Each entry within rel of the reference, relative to the reference;
    an entry that is 0 in the reference must be 0."""
    want = np.array([float(w) for w in want]) if isinstance(want, list) else want
    assert np.all(np.abs(got - want) <= rel * np.abs(want)), np.abs(got - want).max()


class TestEvolve:
    def test_point_mass_at_zero_steps(self):
        m = ec.build_matrix("star", 4)
        d = ec.evolve(m, 0, 0)
        assert d[0] == 1.0 and d.sum() == 1.0

    def test_one_star_step_n3(self):
        m = ec.build_matrix("star", 3)
        d = ec.evolve(m, 0, 1)
        rank = lex_rank(3)
        support = {0, rank[(1, 0, 2)], rank[(2, 1, 0)]}
        for i, v in enumerate(d):
            assert v == pytest.approx(1 / 3 if i in support else 0.0, abs=1e-15)

    def test_convergence_to_uniform_n5(self):
        m = ec.build_matrix("star", 5)
        d = ec.evolve(m, 0, 200)
        assert np.abs(d - 1 / 120).max() < 1e-12

    def test_negative_time(self):
        with pytest.raises(ValueError):
            ec.evolve(ec.build_matrix("star", 3), 0, -1)

    def test_matches_matrix_powers(self):
        m = ec.build_matrix("rt", 4)
        dense = m.dense_float()
        for t in range(7):
            d = ec.evolve(m, 3, t)
            expect = np.linalg.matrix_power(dense, t)[3]
            assert np.abs(d - expect).max() < 1e-14

    @pytest.mark.parametrize("chain", ["rt", "star"])
    def test_matches_exact_rational_walk(self, chain):
        m = ec.build_matrix(chain, 4)
        exact = fraction_walk(4, chain_weights(chain, 4), m.denom, 0, 40)
        for t in range(41):
            assert_relative(ec.evolve(m, 0, t), exact[t])

    @pytest.mark.parametrize("chain", ["rt", "star"])
    def test_start_translation(self, chain):
        # the walk from s is the identity's walk translated: P(s w = x) = P(w = s^-1 x)
        m = ec.build_matrix(chain, 4)
        for start in (1, 5, 14, 23):
            exact = fraction_walk(4, chain_weights(chain, 4), m.denom, start, 12)
            for t in range(13):
                assert_relative(ec.evolve(m, start, t), exact[t])

    @pytest.mark.parametrize("chain", ["rt", "star"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_sparse_walk(self, chain, n):
        m = ec.build_matrix(chain, n)
        for start in (0, math.factorial(n) // 3):
            for t, want in enumerate(sparse_walk(m, start, 40)):
                assert_relative(ec.evolve(m, start, t), want)

    @pytest.mark.parametrize("chain", ["rt", "star"])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_fresh_walk_in_any_order(self, chain, n):
        # a resumed walk takes the same float steps as a fresh twin's walk
        m = ec.build_matrix(chain, n)
        start = m.mat.shape[0] // 2
        expect = sparse_walk(m, start, 25)
        order = list(range(26)) + [25, 25, 24, 11, 11, 0, 7, 25]
        for t in order:
            d = ec.evolve(m, start, t)
            assert np.array_equal(d, ec.evolve(ec.build_matrix(chain, n), start, t)), t
            assert_relative(d, expect[t])

    @pytest.mark.parametrize("chain", ["rt", "star"])
    def test_switching_start_and_back(self, chain):
        m = ec.build_matrix(chain, 5)
        walks = {s: sparse_walk(m, s, 12) for s in (0, 119)}
        for s, t in [(0, 5), (119, 7), (0, 9), (0, 12), (119, 3), (119, 8), (0, 2)]:
            d = ec.evolve(m, s, t)
            assert np.array_equal(d, ec.evolve(ec.build_matrix(chain, 5), s, t)), (s, t)
            assert_relative(d, walks[s][t])

    def test_returned_array_not_shared(self):
        m = ec.build_matrix("star", 5)
        twin = ec.build_matrix("star", 5)
        expect = {t: ec.evolve(twin, 0, t) for t in (4, 6)}
        d = ec.evolve(m, 0, 4)
        d[:] = 7.0
        assert np.array_equal(ec.evolve(m, 0, 4), expect[4])
        ec.evolve(m, 0, 4)[:] = -1.0
        assert np.array_equal(ec.evolve(m, 0, 6), expect[6])

    def test_guards_with_warm_cursor(self):
        m = ec.build_matrix("rt", 4)
        ec.evolve(m, 7, 5)
        cursor = m._cursor
        with pytest.raises(ValueError):
            ec.evolve(m, 0, -1)
        for start in (-1, 24):
            with pytest.raises(ValueError):
                ec.evolve(m, start, 5)
        for start, t in ((0.5, 5), (7, 5.0)):
            with pytest.raises(TypeError):
                ec.evolve(m, start, t)
        assert m._cursor is cursor
        assert np.array_equal(ec.evolve(m, 7, 5), ec.evolve(ec.build_matrix("rt", 4), 7, 5))

    def test_equality_ignores_cursor(self):
        m = ec.build_matrix("star", 4)
        twin = ec.SparseScaledMatrix(m.n, m.scale, m.mat)
        ec.evolve(m, 3, 3)
        assert m._cursor is not None and m._orbit_op is not None
        assert twin._cursor is None and twin._orbit_op is None
        assert m.chain == "star" and twin.chain is None
        assert m == twin
        assert repr(m) == repr(twin)

    def test_operator_built_once_per_matrix(self):
        m = ec.build_matrix("rt", 5)
        ec.evolve(m, 0, 0)
        assert m._orbit_op is None  # no step taken, no operator
        ec.evolve(m, 0, 2)
        op = m._orbit_op
        ec.evolve(m, 3, 4)
        ec.evolve(m, 1, 3)
        assert m._orbit_op is op
        assert op.dtype == np.float64 and op.shape == (7, 7)  # p(5) cycle types

    @pytest.mark.parametrize("n", range(2, 9))
    def test_operator_data_is_scaled_integer_data(self, n):
        for m in (ec.build_matrix("rt", n), ec.build_matrix("star", n)):
            ec.evolve(m, 0, 1)
            labels, _, reps = ec._orbits(n)[m.chain]
            k = ec._orbit_matrix(m, labels, reps)
            assert k.dtype == np.int64
            assert np.array_equal(m._orbit_op, k / m.denom)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_matrix_without_a_chain_refused(self, n):
        # the skewed walk is not conjugacy-invariant, so it has no lumped chain
        unknown = ec.build_matrix("rt", n)
        unknown.chain = "rt2"
        for m in (ec.build_skewed_matrix(n), ec.SparseScaledMatrix(n, 2, ec.build_matrix("rt", n).mat), unknown):
            with pytest.raises(ValueError, match="only the rt and star matrices"):
                ec.evolve(m, 0, 1)
            assert m._cursor is None and m._orbit_op is None

    def test_start_index_kept_across_curve_points(self):
        # a TV curve from a nonzero start must not redo the 2.5 ms lift per point
        m = ec.build_matrix("rt", 6)
        ec.evolve(m, 100, 3)
        index = ec._start_index(6, "rt", 100)
        ec.evolve(ec.build_matrix("star", 6), 100, 3)
        ec.evolve(m, 100, 4)
        assert ec._start_index(6, "rt", 100) is index
        assert not index.flags.writeable

    def test_chain_is_not_a_constructor_argument(self):
        # only build_matrix may say a matrix lumps: the skewed one must not pass as rt
        with pytest.raises(TypeError):
            ec.SparseScaledMatrix(4, 1, ec.build_skewed_matrix(4).mat, "rt")

    def test_bool_start_is_rank_one(self):
        m = ec.build_matrix("star", 4)
        expect = {t: ec.evolve(ec.build_matrix("star", 4), 1, t) for t in (2, 3, 5)}
        assert np.array_equal(ec.evolve(m, True, 3), expect[3])
        assert np.array_equal(ec.evolve(m, 1, 5), expect[5])
        assert np.array_equal(ec.evolve(m, np.int64(1), np.int64(2)), expect[2])

    @pytest.mark.parametrize("start, t", [(0, 2.0), (0.5, 2), (1.0, 0), (0, "2")])
    def test_non_integer_start_or_time(self, start, t):
        m = ec.build_matrix("star", 4)
        with pytest.raises(TypeError):
            ec.evolve(m, start, t)
        assert m._cursor is None and m._orbit_op is None


def cycle_type(p):
    """(cycle lengths in decreasing order, length of 0's cycle) of a permutation tuple."""
    seen, lengths = set(), []
    for i in range(len(p)):
        length, j = 0, i
        while j not in seen:
            seen.add(j)
            j, length = p[j], length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True)), lengths[0]


def z(lengths):
    """z_mu: the order of the centraliser of a permutation of cycle type mu."""
    out = 1
    for k in set(lengths):
        out *= k ** lengths.count(k) * math.factorial(lengths.count(k))
    return out


def orbit_oracle(chain, n):
    """The orbit of each rank as a hashable: cycle type, and 0's cycle for star."""
    types = [cycle_type(p) for p in lex_order(n)]
    return [t if chain == "star" else t[0] for t in types]


def rows_by_orbit(m, labels, k):
    """Every row of the integer matrix summed by the orbit of its columns: (n!, k)."""
    one_hot = sparse.csr_matrix(
        (np.ones(len(labels), dtype=np.int64), labels, np.arange(len(labels) + 1)),
        shape=(len(labels), k),
    )
    return (m.mat @ one_hot).toarray()


class TestLumping:
    """The orbit labels, sizes and integer orbit matrix evolve walks on."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_enumeration_is_rank_order(self, n):
        perms = ec._lex_perms(n)
        assert perms.dtype == np.int8
        assert perms.tolist() == [list(p) for p in lex_order(n)]
        assert np.array_equal(ec._ranks(perms), np.arange(len(perms)))
        shuffled = perms[::-7]
        assert np.array_equal(ec._ranks(shuffled), lehmer_ranks(shuffled))

    @pytest.mark.parametrize("chain", ["rt", "star"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_labels_are_the_orbits(self, chain, n):
        labels, sizes, reps = ec._orbits(n)[chain]
        oracle = orbit_oracle(chain, n)
        pairs = set(zip(labels.tolist(), oracle))
        assert len(pairs) == len(set(oracle)) == len(sizes)  # one orbit per label
        assert labels[0] == labels[reps[labels[0]]] and reps[labels[0]] == 0
        assert np.array_equal(labels[reps], np.arange(len(sizes)))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_orbit_counts(self, n):
        p = [sum(1 for _ in iter_partitions(k)) for k in range(n + 1)]
        orbits = ec._orbits(n)
        assert len(orbits["rt"][1]) == p[n]
        assert len(orbits["star"][1]) == sum(p[:n])

    @pytest.mark.parametrize("chain", ["rt", "star"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_orbit_sizes(self, chain, n):
        # n!/z_mu for a cycle type, (n - 1)!/z_mu for 0's cycle and mu the rest
        labels, sizes, reps = ec._orbits(n)[chain]
        perms = lex_order(n)
        for size, rep in zip(sizes.tolist(), reps.tolist()):
            lengths, zero = cycle_type(perms[rep])
            if chain == "rt":
                total, rest = math.factorial(n), list(lengths)
            else:
                total, rest = math.factorial(n - 1), list(lengths)
                rest.remove(zero)
            assert total % z(rest) == 0 and size == total // z(rest)
        assert sum(sizes.tolist()) == math.factorial(n)
        assert np.array_equal(np.bincount(labels), sizes)

    @pytest.mark.parametrize("chain", ["rt", "star"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_row_lumps_to_its_orbit_row(self, chain, n):
        m = ec.build_matrix(chain, n)
        labels, sizes, reps = ec._orbits(n)[chain]
        k = ec._orbit_matrix(m, labels, reps)
        assert k.dtype == np.int64 and k.shape == (len(sizes), len(sizes))
        assert np.array_equal(rows_by_orbit(m, labels, len(sizes)), k[labels])
        assert np.all(k.sum(axis=1) == m.denom)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_skewed_matrix_does_not_lump(self, n):
        # negative control: one transposition's walk is not conjugacy-invariant
        m = ec.build_skewed_matrix(n)
        for chain in ("rt", "star"):
            labels, sizes, reps = ec._orbits(n)[chain]
            k = ec._orbit_matrix(m, labels, reps)
            assert np.all(k.sum(axis=1) == m.denom)
            assert not np.array_equal(rows_by_orbit(m, labels, len(sizes)), k[labels])

    def test_nothing_built_at_import(self):
        code = (
            "from shuffle_spectra import exact_chain as ec; "
            "assert ec._orbits.cache_info().currsize == 0; "
            "assert ec._lex_perms.cache_info().currsize == 0"
        )
        subprocess.run([sys.executable, "-c", code], check=True)


def tv_pair(a, b):
    """Oracle: total variation distance between two distribution vectors."""
    return 0.5 * np.abs(np.asarray(a) - np.asarray(b)).sum()


class TestTotalVariation:
    def test_point_mass_n3(self):
        d = np.zeros(6)
        d[0] = 1.0
        assert ec.tv_to_uniform(d) == pytest.approx(5 / 6, abs=1e-15)

    def test_uniform_is_zero(self):
        assert ec.tv_to_uniform(np.full(24, 1 / 24)) == pytest.approx(0.0, abs=1e-15)

    def test_point_vs_uniform_n4(self):
        d1 = np.zeros(24)
        d1[5] = 1.0
        d2 = np.full(24, 1 / 24)
        assert tv_pair(d1, d2) == pytest.approx(23 / 24, abs=1e-15)
        assert ec.tv_to_uniform(d1) == tv_pair(d1, d2)

    def test_empty_vector_raises(self):
        with pytest.raises(ValueError, match="empty"):
            ec.tv_to_uniform([])

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        a = rng.dirichlet(np.ones(24))
        b = rng.dirichlet(np.ones(24))
        assert tv_pair(a, b) == tv_pair(b, a)
        assert ec.tv_to_uniform(a) == pytest.approx(tv_pair(a, np.full(24, 1 / 24)), abs=1e-15)

    def test_star_tv_nonincreasing_n5(self):
        m = ec.build_matrix("star", 5)
        a = m.mat.astype(float).multiply(1.0 / m.denom).tocsr()
        d = np.zeros(120)
        d[0] = 1.0
        prev = ec.tv_to_uniform(d)
        for _ in range(100):
            d = a.T @ d
            cur = ec.tv_to_uniform(d)
            assert cur <= prev + 1e-12
            assert -1e-12 <= cur <= 1 + 1e-12
            prev = cur


class TestCommutation:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_star_commutes_with_rt(self, n):
        assert ec.commutation_check(n)

    def test_negative_control_n3(self):
        star = ec.build_matrix("star", 3)
        skewed = ec.build_skewed_matrix(3)
        assert not ec.exact_commutes(star, skewed)

    def test_products_do_not_wrap(self):
        # AB = 256 e11 and BA = 256 e22 are equal mod 256: int8 products would match
        a, b = (
            ec.SparseScaledMatrix(2, 4, sparse.csr_matrix(np.array(x, dtype=np.int8)))
            for x in ([[0, 16], [0, 0]], [[0, 0], [16, 0]])
        )
        assert a.mat.dtype == b.mat.dtype == np.int8
        assert not ec.exact_commutes(a, b)
        assert ec.exact_commutes(a, a)

    def test_skewed_is_symmetric(self):
        assert ec.build_skewed_matrix(3).is_symmetric_exact()

    def test_guard(self):
        with pytest.raises(SizeLimitError):
            ec.commutation_check(8)


class TestNumericSpectra:
    @pytest.mark.parametrize("chain", ["rt", "star"])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_numeric_multiplicities_match_formula(self, chain, n):
        numeric = ec.numeric_eig_multiset(ec.build_matrix(chain, n))
        formula = formula_multiset(chain, n)
        counts = [int((np.abs(numeric - v) < 1e-9).sum()) for v, _ in formula]
        assert counts == [mult for _, mult in formula]
        expect = np.repeat([v for v, _ in formula], [mult for _, mult in formula])
        assert np.abs(numeric - expect).max() <= 1e-12

    def test_rejects_asymmetric_integer_matrix(self):
        # eigvalsh would read one triangle and answer silently
        mat = sparse.csr_matrix(np.array([[1, 2, 0], [1, 1, 0], [0, 0, 3]], dtype=np.int64))
        with pytest.raises(ValueError, match="symmetric"):
            ec.numeric_eig_multiset(ec.SparseScaledMatrix(3, 1, mat))

    def test_star_n3_multiset(self):
        w = ec.numeric_eig_multiset(ec.build_matrix("star", 3))
        expect = np.sort([-1 / 3, 0, 0, 2 / 3, 2 / 3, 1])
        assert np.allclose(w, expect, atol=1e-8)

    def test_rt_n3_multiset(self):
        w = ec.numeric_eig_multiset(ec.build_matrix("rt", 3))
        expect = np.sort([-1 / 3, 1 / 3, 1 / 3, 1 / 3, 1 / 3, 1])
        assert np.allclose(w, expect, atol=1e-8)

    @pytest.mark.parametrize("chain", ["rt", "star"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_formula_spectrum_agreement(self, chain, n):
        numeric = ec.numeric_eig_multiset(ec.build_matrix(chain, n))
        bins = binned_multiset(numeric)
        formula = formula_multiset(chain, n)
        assert len(bins) == len(formula)
        for (nv, nc), (fv, fc) in zip(bins, formula):
            assert abs(nv - fv) < 1e-8
            assert nc == fc

    def test_guard(self):
        with pytest.raises(SizeLimitError):
            ec.numeric_eig_multiset(ec.build_matrix("star", 7))


def rhs_from_numeric_diagonalization(n, t, t_star):
    """Independent bound oracle: diagonalize rt numerically, conjugate star into
    that basis, and pair eigenvalues per degenerate block. Uses numpy only."""
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


class TestLemmaInequality:
    def test_zero_times(self):
        lhs, rhs = ec.lemma_l2_check(4, 0, 0)
        assert lhs == 0.0 and rhs == 0.0

    def test_spot_values_n5(self):
        lhs, rhs = ec.lemma_l2_check(5, 4, 8)
        assert lhs <= rhs + 1e-10

    def test_grid_n5(self):
        p = ec.build_matrix("star", 5)
        q = ec.build_matrix("rt", 5)
        dp = [ec.evolve(p, 0, t) for t in range(21)]
        dq = [ec.evolve(q, 0, t) for t in range(21)]
        for t in range(21):
            for t_star in range(21):
                lhs = 2.0 * tv_pair(dq[t], dp[t_star])
                assert lhs <= ec.spectral_rhs(5, t, t_star) + 1e-10

    def test_array_times_refused_before_any_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(ec, "build_matrix", refuse)
        monkeypatch.setattr(ec, "_comparison_sums", refuse)
        for t, t_star in ((np.arange(3), 2), (2, np.arange(3)), (np.array([4]), 8)):
            with pytest.raises(TypeError, match="scalar"):
                ec.lemma_l2_check(5, t, t_star)

    def test_numpy_scalar_times(self):
        want = ec.lemma_l2_check(5, 4, 8)
        for t, t_star in ((np.int64(4), np.int32(8)), (np.array(4), np.array(8))):
            assert ec.lemma_l2_check(5, t, t_star) == want

    def test_rhs_matches_numeric_oracle(self):
        formula = ec.spectral_rhs(5, 4, 8)
        numeric = rhs_from_numeric_diagonalization(5, 4, 8)
        assert abs(formula - numeric) < 1e-9
        _, rhs = ec.lemma_l2_check(5, 4, 8)
        assert rhs == formula

    @pytest.mark.parametrize("c", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("n", [7, 8])
    def test_cutoff_times_up_to_build_cap(self, n, c):
        t, t_star = pr.cutoff_times(n, c)
        lhs, rhs = ec.lemma_l2_check(n, t, t_star)
        assert lhs <= rhs

    def test_guards(self):
        with pytest.raises(SizeLimitError, match="matrix construction limited to 2 <= n <= 8"):
            ec.lemma_l2_check(9, 1, 1)
        with pytest.raises(ValueError):
            ec.lemma_l2_check(4, -1, 0)
        for t, t_star in ((-1, 3), (3, -2)):
            with pytest.raises(ValueError):
                ec.spectral_rhs(5, t, t_star)
        for t, t_star in ((2.5, 3), (3, 2.0)):
            with pytest.raises(TypeError):
                ec.spectral_rhs(5, t, t_star)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_rhs_grid_matches_scalar_calls(self, n):
        ts = np.arange(21)
        grid = ec.spectral_rhs(n, ts[:, None], ts)
        assert isinstance(grid, np.ndarray) and grid.shape == (21, 21)
        want = [[ec.spectral_rhs(n, t, u) for u in range(21)] for t in range(21)]
        assert all(type(w) is float for row in want for w in row)
        assert np.array_equal(grid, want)

    def test_rhs_scalar_forms_give_floats(self):
        want = ec.spectral_rhs(5, 4, 8)
        for t, t_star in ((np.int64(4), np.int64(8)), (np.array(4), np.array(8))):
            got = ec.spectral_rhs(5, t, t_star)
            assert type(got) is float and got == want

    def test_rhs_bool_time_is_an_int(self):
        assert ec.spectral_rhs(5, True, 3) == ec.spectral_rhs(5, 1, 3)
        assert ec.spectral_rhs(5, 3, False) == ec.spectral_rhs(5, 3, 0)

    def test_rhs_time_2_62(self):
        # s^t underflows to 0 off the trivial block, leaving the sbar^t* side
        assert ec.spectral_rhs(5, 2**62, 2) == float.fromhex("0x1.83bc8a7784dd1p+1")

    def test_rhs_time_beyond_int64_refused_before_table(self, monkeypatch):
        def no_table(n):
            raise AssertionError("the table was read")

        monkeypatch.setattr(pr, "_spectral_table", no_table)
        for args in ((2**70, 1), (1, 2**70), (np.arange(3), 2**70)):
            with pytest.raises(ValueError, match=str(2**70)):
                ec.spectral_rhs(5, *args)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_plancherel_identity(self, n):
        # both walks are diagonal in the Young basis, so n! |rt^t - star^t*|^2
        # equals rhs^2, up to rounding on the scale of the terms of both sides
        p, q = ec.build_matrix("star", n), ec.build_matrix("rt", n)
        dp = np.array([ec.evolve(p, 0, t) for t in range(21)])
        dq = np.array([ec.evolve(q, 0, t) for t in range(21)])
        f, ts = math.factorial(n), np.arange(21)
        sq = ec.spectral_rhs(n, ts[:, None], ts) ** 2
        gap = np.abs(f * ((dq[:, None] - dp[None]) ** 2).sum(-1) - sq)
        dev = f * ((dq - 1 / f) ** 2).sum(-1)[:, None] + f * ((dp - 1 / f) ** 2).sum(-1)
        assert (gap <= 1e-12 * (sq + dev)).all()

    @pytest.mark.parametrize("n", [0, 1, 61])
    def test_rhs_n_guard(self, n):
        for t in (1, np.arange(3)):
            with pytest.raises(SizeLimitError):
                ec.spectral_rhs(n, t, 1)

    def test_rhs_array_time_guards_before_table(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("the sums were read")

        monkeypatch.setattr(ec, "_comparison_sums", no_table)
        ts = np.arange(3)
        for bad, error in (
            (ts + 0.5, TypeError),
            (ts.astype(float), TypeError),
            (ts > 0, TypeError),
            (ts - 1, ValueError),
            (np.array([[2], [-3]]), ValueError),
        ):
            for args in ((bad, ts), (ts, bad), (bad, 1), (1, bad)):
                with pytest.raises(error):
                    ec.spectral_rhs(5, *args)


def lifted_pair_sums(n, ts):
    """Oracle: the pair sums over all n! ranks of the walks from evolve."""
    p, q = ec.build_matrix("star", n), ec.build_matrix("rt", n)
    dp = np.array([ec.evolve(p, 0, t) for t in ts])
    dq = np.array([ec.evolve(q, 0, t) for t in ts])
    diff = dq[:, None] - dp
    u = 1 / math.factorial(n)
    return (
        np.abs(diff).sum(-1),
        (diff * diff).sum(-1),
        ((dq - u) ** 2).sum(-1),
        ((dp - u) ** 2).sum(-1),
    )


class TestPairSums:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_star_orbits_lie_in_rt_orbits(self, n):
        orbits = ec._orbits(n)
        rt_labels = orbits["rt"][0]
        star_labels, star_sizes, star_reps = orbits["star"]
        # each star orbit's ranks all carry the rt label of its representative
        assert np.array_equal(rt_labels, rt_labels[star_reps][star_labels])
        assert star_sizes.sum() == math.factorial(n)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_grid_matches_lifted_sums(self, n):
        ts = np.arange(21)
        p, q = ec.build_matrix("star", n), ec.build_matrix("rt", n)
        got = ec._pair_sums(p, q, ts, ts)
        want = lifted_pair_sums(n, ts)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            np.testing.assert_allclose(g, w, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_lemma_lhs_is_the_grid_entry(self, n):
        ts = np.arange(21)
        p, q = ec.build_matrix("star", n), ec.build_matrix("rt", n)
        l1 = ec._pair_sums(p, q, ts, ts)[0]
        for t, t_star in itertools.product((0, 1, 6, 13, 20), repeat=2):
            lhs, _ = ec.lemma_l2_check(n, t, t_star)
            assert lhs == l1[t, t_star]

    def test_times_in_any_order(self):
        # the walks restart when a time goes back; each entry keeps its bits
        p, q = ec.build_matrix("star", 6), ec.build_matrix("rt", 6)
        ts = np.array([9, 2, 17, 0, 2])
        got = ec._pair_sums(p, q, ts, ts[::-1])
        want = ec._pair_sums(p, q, np.arange(18), np.arange(18))
        for g, w in zip(got[:2], want[:2]):
            assert np.array_equal(g, w[np.ix_(ts, ts[::-1])])
        assert np.array_equal(got[2], want[2][ts]) and np.array_equal(got[3], want[3][ts[::-1]])


class TestSpectralTraceAgainstMatrix:
    @pytest.mark.parametrize("chain", ["rt", "star"])
    def test_matrix_trace_n4(self, chain):
        m = ec.build_matrix(chain, 4)
        trace = Fraction(int(m.mat.diagonal().sum()), m.denom)
        assert trace == spectra.spectrum_trace(chain, 4)
        assert trace == Fraction(math.factorial(3))


def traced_mib(call):
    """(peak, kept) MiB that call allocates under tracemalloc, which numpy
    reports its array buffers to; kept is what the result still holds."""
    tracemalloc.start()
    try:
        result = call()  # held, so that its memory counts as kept
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20, kept / 2**20


class TestAllocationBudget:
    """Allocation peaks of the exact engine's n!-wide steps. Each budget is
    the figure measured with the narrow integer types (numpy 2.4, scipy 1.17)
    plus about 10%; the figure with the wide ones is given beside it."""

    def test_build_rt8(self):
        peak, kept = traced_mib(lambda: ec.build_matrix("rt", 8))
        assert peak <= 11.3  # measured 10.2 MiB; 18.0 MiB with int64 weights
        # int32 columns and int8 weights, 29 entries per state
        assert kept <= 6.3  # measured 5.75 MiB; 13.6 MiB with int64 weights

    def test_orbits8(self):
        ec._lex_perms(8)  # cached, and kept: not part of the labelling's peak
        peak, _ = traced_mib(lambda: ec._orbits.__wrapped__(8))
        assert peak <= 5.6  # measured 5.08 MiB; 10.8 MiB with intp flat indices

    def test_exact_commutes7(self):
        star, rt = ec.build_matrix("star", 7), ec.build_matrix("rt", 7)
        peak, _ = traced_mib(lambda: ec.exact_commutes(star, rt))
        # measured 5.86 MiB with one product AB - BA; 12.8 MiB with scipy's !=
        # on AB and BA, and 18.4 MiB with int64 products
        assert peak <= 6.4
