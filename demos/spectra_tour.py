"""Tour of the closed-form spectra for a small deck.

Prints every irreducible block of both chains at n = 5 and shows the
transpose antisymmetry of the normalized eigenvalues.
"""

from fractions import Fraction

from shuffle_spectra import spectra
from shuffle_spectra.partitions import enumerate_partitions, exact_dim, transpose

N = 5


def main():
    print(f"random transpositions on S_{N}: one eigenvalue per partition")
    for lam in enumerate_partitions(N):
        e = spectra.rt_eigenvalue(lam)
        print(f"  {str(lam):<18} s = {str(e.s):>6}   mult d^2 = {exact_dim(lam) ** 2}")

    print()
    print(f"star transpositions on S_{N}: one eigenvalue per removable corner")
    for lam in enumerate_partitions(N):
        for e in spectra.star_eigenvalues(lam):
            print(
                f"  {str(lam):<18} corner row {e.corner_row}: "
                f"sbar = {str(e.s_bar):>6}   "
                f"mult d*d_corner = {exact_dim(lam) * exact_dim(e.reduced)}"
            )

    print()
    print("transposing the diagram negates the normalized rt eigenvalue r:")
    for lam in [(5,), (4, 1), (3, 2)]:
        r = spectra.rt_eigenvalue(lam).r
        rt = spectra.rt_eigenvalue(transpose(lam)).r
        assert rt == -r
        print(f"  r{lam} = {r},  r{transpose(lam)} = {rt}")

    print()
    print("the affine map s = 1/n + (1 - 1/n) r ties the two normalizations:")
    e = spectra.rt_eigenvalue((3, 1, 1))
    print(f"  (3,1,1): r = {e.r}, s = {e.s} = 1/5 + (4/5)({e.r})")
    assert e.s == Fraction(1, N) + Fraction(N - 1, N) * e.r


if __name__ == "__main__":
    main()
