"""Exact chains on a five-card deck.

Builds the integer transition matrices, walks them to uniform, and checks
the commutation and comparison facts that the large-n machinery relies on.
"""

from shuffle_spectra import exact_chain as ec

N = 5


def main():
    star = ec.build_matrix("star", N)
    rt = ec.build_matrix("rt", N)
    print(f"S_{N}: {star.mat.shape[0]} states")
    print(f"star matrix: {N} * P has integer entries, row sums {star.mat.sum(axis=1)[0, 0]}")
    print(f"rt matrix:   {N}^2 * Q has integer entries, row sums {rt.mat.sum(axis=1)[0, 0]}")
    print(f"both symmetric: {star.is_symmetric_exact()} {rt.is_symmetric_exact()}")
    print(f"exact commutation: {ec.exact_commutes(star, rt)}")
    skewed = ec.build_skewed_matrix(N)
    print(f"negative control (single-transposition walk) commutes: "
          f"{ec.exact_commutes(star, skewed)}")

    print()
    print("TV distance to uniform from the identity deck:")
    print("  t   star        rt")
    for t in range(0, 31, 3):
        tv_star = ec.tv_to_uniform(ec.evolve(star, 0, t))
        tv_rt = ec.tv_to_uniform(ec.evolve(rt, 0, t))
        print(f"  {t:>2}  {tv_star:.6f}  {tv_rt:.6f}")

    print()
    print("comparison inequality 2 TV(rt^t, star^t*) <= spectral rhs:")
    for t, t_star in [(2, 4), (4, 8), (6, 12), (10, 20)]:
        lhs, rhs = ec.lemma_l2_check(N, t, t_star)
        print(f"  t={t:>2} t*={t_star:>2}:  {lhs:.6f} <= {rhs:.6f}")


if __name__ == "__main__":
    main()
