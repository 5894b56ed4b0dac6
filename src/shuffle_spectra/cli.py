"""Command-line front end: spectra, bounds, profiles, exact verification, CSV."""

import argparse
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import profiles, spectra
from .partitions import MAX_EXACT_PRODUCT_N

SEP = ";"


def _fmt(x):
    if isinstance(x, Fraction):
        x = float(x)
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _render(header, rows, fmt):
    if fmt == "csv":
        lines = [SEP.join(header)]
        lines += [SEP.join(_fmt(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    # pretty: fixed-width columns
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(header)
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for r in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def _cmd_spectrum(args):
    rows = [
        (",".join(str(p) for p in lam), eig, mult, args.chain)
        for lam, eig, mult in spectra.spectrum_rows(args.chain, args.n)
    ]
    return _render(["partition", "eigenvalue", "multiplicity", "chain"], rows, args.format)


def _cmd_bound(args):
    rep = profiles.comparison_bound(args.n, args.c, args.truncation)
    rows = [(rep.n, rep.c, rep.t, rep.t_star, rep.total, *rep.parts)]
    header = ["n", "c", "t", "tstar", "total", "term1", "term2", "term3", "term4"]
    return _render(header, rows, args.format)


def _cmd_decompose(args):
    terms = profiles.bound_decomposition(args.n, args.c, args.truncation)
    rows = [(args.n, args.c, args.truncation, *terms)]
    header = ["n", "c", "M", "term1", "term2", "term3", "term4"]
    return _render(header, rows, args.format)


def _cmd_profile(args):
    points = profiles.profile_curve(args.c_min, args.c_max, args.step)
    return _render(["c", "phi"], [(p.c, p.value) for p in points], args.format)


def _cmd_exact_tv(args):
    from . import exact_chain  # loads scipy, which only the exact engine needs

    if args.t_max > exact_chain.EXACT_TV_T_CAP:
        raise ValueError(f"--t-max must be at most {exact_chain.EXACT_TV_T_CAP}")
    exact_chain.check_build_n(args.n)  # a bad n is named before a bad time
    if args.t_max < 0:  # else the empty range below prints a bare header
        raise ValueError("t must be nonnegative")
    matrix = exact_chain.build_matrix(args.chain, args.n)
    rows = [
        (args.n, args.chain, t, exact_chain.tv_to_uniform(exact_chain.evolve(matrix, 0, t)))
        for t in range(args.t_max + 1)
    ]
    return _render(["n", "chain", "t", "tv"], rows, args.format)


def _cmd_compare(args):
    from . import exact_chain

    exact_chain.check_build_n(args.n)  # before the spectral table, which costs seconds at n = 60
    rep = profiles.comparison_bound(args.n, args.c)
    p = exact_chain.build_matrix("star", args.n)
    q = exact_chain.build_matrix("rt", args.n)
    tv_star = exact_chain.tv_to_uniform(exact_chain.evolve(p, 0, rep.t_star))
    tv_rt = exact_chain.tv_to_uniform(exact_chain.evolve(q, 0, rep.t))
    diff = abs(tv_star - tv_rt)
    rows = [(args.n, args.c, rep.t, rep.t_star, tv_star, tv_rt, diff, rep.total)]
    header = ["n", "c", "t", "tstar", "tv_star", "tv_rt", "diff", "bound"]
    return _render(header, rows, args.format)


def _verify_checks(n):
    """Identity suite at deck size n. Yields (name, "pass"/"fail"/"skip").

    Only the last three checks read matrices: one star and one rt matrix, built
    through exact_chain, and with it scipy, only at n <= MAX_EXACT_PRODUCT_N.
    """
    blocks = spectra.blocks(n)
    # each corner's d_corner and s_bar by (partition, row), for the transpose pairings
    d_corner = {(lam, row): d_c for lam, _, _, _, cs in blocks for row, d_c, _ in cs}
    s_bar = {(lam, row): sb for lam, _, _, _, cs in blocks for row, _, sb in cs}
    s_of = {lam: s for lam, _, _, s, _ in blocks}

    def status(ok):
        return "pass" if ok else "fail"

    yield "dimension-squares-sum", status(
        sum(d * d for _, _, d, _, _ in blocks) == math.factorial(n)
    )
    ok = all(d == sum(d_c for _, d_c, _ in cs) for _, _, d, _, cs in blocks)
    yield "branching-rule", status(ok)
    # corner row i of lam is corner row lam_i of lam'; a missing pair reads None
    ok = all(
        d_corner.get((lam_t, lam[row - 1])) == d_c
        for lam, lam_t, _, _, cs in blocks for row, d_c, _ in cs
    )
    yield "transpose-duality", status(ok)
    ok = all(
        d * d <= math.comb(n, n - lam[0]) ** 2 * math.factorial(n - lam[0])
        for lam, _, d, _, _ in blocks
    )
    yield "dimension-bound", status(ok)
    # below the first row: n d_corner <= 4^j d and -j <= n s_bar <= n - j, j = n - lam_1
    ok = all(
        n * d_c <= 4 ** (n - lam[0]) * d and lam[0] - n <= n * sb <= lam[0]
        for lam, _, d, _, cs in blocks for row, d_c, sb in cs if row > 1
    )
    yield "corner-bounds", status(ok)
    for chain in spectra.CHAINS:
        yield f"completeness-{chain}", status(
            spectra.total_multiplicity(chain, n) == math.factorial(n)
        )
    for chain in spectra.CHAINS:
        yield f"trace-{chain}", status(
            spectra.spectrum_trace(chain, n) == Fraction(math.factorial(n - 1))
        )
    # s = 1/n + (n-1) r / n and s_bar = (lam_i - i + 1) / n, so r' = -r and
    # r_bar' = -r_bar read s' + s = 2/n and s_bar' + s_bar = 2/n
    two_n = Fraction(2, n)
    ok = all(s_of.get(lam_t) == two_n - s for lam, lam_t, _, s, _ in blocks) and all(
        s_bar.get((lam_t, lam[row - 1])) == two_n - sb
        for lam, lam_t, _, _, cs in blocks for row, _, sb in cs
    )
    yield "transpose-antisymmetry", status(ok)
    if n > MAX_EXACT_PRODUCT_N:  # the commutation check's cap, for all three
        for name in ("commutation", "spectrum-vs-numeric", "comparison-inequality"):
            yield name, "skip"
        return
    from . import exact_chain
    mats = {chain: exact_chain.build_matrix(chain, n) for chain in spectra.CHAINS}
    yield "commutation", status(exact_chain.exact_commutes(mats["star"], mats["rt"]))
    if n <= 5:  # two dense eigensolves take 0.07 s at n = 6, ten times the rest of verify
        ok = True
        for chain in spectra.CHAINS:
            numeric = exact_chain.numeric_eig_multiset(mats[chain])
            rows = spectra.spectrum_rows(chain, n)
            formula = np.sort(
                np.repeat([float(e) for lam, e, m in rows], [m for lam, e, m in rows])
            )
            ok &= numeric.size == formula.size and np.abs(numeric - formula).max() <= 1e-8
        yield "spectrum-vs-numeric", status(ok)
    else:
        yield "spectrum-vs-numeric", "skip"
    # 2 TV(rt^t, star^t*) <= rhs on the grid t, t* = 0..20, each side in one
    # pass, the left one over star's orbits; both walks are diagonal in the
    # Young basis, so by Plancherel n! |dq - dp|^2 = rhs^2, to rounding on the
    # scale of both sides' terms
    ts = np.arange(21)
    l1, sq, sq_q, sq_p = exact_chain._pair_sums(mats["star"], mats["rt"], ts, ts)
    rhs = exact_chain.spectral_rhs(n, ts[:, None], ts)
    f = math.factorial(n)
    gap = np.abs(f * sq - rhs * rhs)
    scale = rhs * rhs + f * (sq_q[:, None] + sq_p)
    ok = (l1 <= rhs + 1e-10) & (gap <= 1e-12 * scale)
    yield "comparison-inequality", status(bool(ok.all()))


def _cmd_verify(args):
    rows = list(_verify_checks(args.n))  # its first step, spectra.blocks, checks n
    text = _render(["check", "status"], rows, args.format)
    if any(st == "fail" for _, st in rows):
        raise _VerifyFailure(text)
    return text


class _VerifyFailure(Exception):
    def __init__(self, text):
        super().__init__("verification failed")
        self.text = text


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shuffle-spectra",
        description="Spectra, limit profiles and comparison bounds for the "
        "star-transpositions and random-transpositions shuffles.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="write output to a file")
        p.add_argument("--format", choices=["csv", "pretty"], default="csv")

    p = sub.add_parser("spectrum", help="CSV eigenvalue spectrum of one chain")
    p.add_argument("--chain", choices=["rt", "star"], required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("bound", help="comparison bound report at cutoff times")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--M", dest="truncation", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("decompose", help="four-part error decomposition")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--M", dest="truncation", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("profile", help="Poisson limit-profile curve")
    p.add_argument("--c-min", type=float, required=True)
    p.add_argument("--c-max", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    common(p)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("exact-tv", help="exact TV-to-uniform curve at small n")
    p.add_argument("--chain", choices=["rt", "star"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t-max", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_exact_tv)

    p = sub.add_parser("compare", help="exact TV difference against the bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    common(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("verify", help="run the identity suite at one deck size")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="", flush=True)


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        text, code = args.func(args), 0
    except _VerifyFailure as exc:
        text, code = exc.text, 1
    except ValueError as exc:  # includes SizeLimitError guard violations
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(text, args.out)
    except OSError as exc:
        where = f"--out {args.out}" if args.out else "stdout"
        if not args.out:  # stdout to devnull, or the flush at exit fails once more
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write {where}: {exc.strerror}", file=sys.stderr)
        return 1
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
