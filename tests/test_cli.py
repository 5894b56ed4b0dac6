import errno
import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from shuffle_spectra import cli, exact_chain, partitions, profiles, spectra


def run_cli(argv, capsys):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, out


SUBCOMMANDS = {
    "spectrum": ["spectrum", "--chain", "star", "--n", "5"],
    "bound": ["bound", "--n", "8", "--c", "0.0"],
    "decompose": ["decompose", "--n", "10", "--c", "0", "--M", "3"],
    "profile": ["profile", "--c-min", "-2", "--c-max", "2", "--step", "0.5"],
    "exact-tv": ["exact-tv", "--chain", "star", "--n", "5", "--t-max", "20"],
    "compare": ["compare", "--n", "6", "--c", "0"],
    "verify": ["verify", "--n", "5"],
}


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
    def test_two_runs_identical(self, name, capsys):
        code1, out1 = run_cli(SUBCOMMANDS[name], capsys)
        code2, out2 = run_cli(SUBCOMMANDS[name], capsys)
        assert code1 == code2 == 0
        assert out1.encode() == out2.encode()
        assert out1.endswith("\n")


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, _ = run_cli(["profile", "--c-min", "0", "--c-max", "1", "--step", "1"], capsys)
        assert code == 0

    def test_guard_error_is_one(self, capsys):
        code, _ = run_cli(["spectrum", "--chain", "rt", "--n", "31"], capsys)
        assert code == 1

    def test_domain_error_is_one(self, capsys):
        code, _ = run_cli(["profile", "--c-min", "1", "--c-max", "0", "--step", "1"], capsys)
        assert code == 1

    @pytest.mark.parametrize("c", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize(
        "argv",
        [["bound", "--n", "8"], ["compare", "--n", "5"], ["decompose", "--n", "8", "--M", "2"]],
        ids=["bound", "compare", "decompose"],
    )
    def test_non_finite_c_is_one(self, argv, c, capsys):
        code = cli.run(argv + [f"--c={c}"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bound", "--n", "8", "--c", "1e300"], "c must be in"),
            (["compare", "--n", "5", "--c", "13"], "c must be in"),
            (["verify", "--n", "0"], "exact multiplicities limited to 2 <= n <= 30"),
            (["verify", "--n", "1"], "exact multiplicities limited to 2 <= n <= 30"),
            (["verify", "--n", "31"], "exact multiplicities limited to 2 <= n <= 30"),
            (["profile", "--c-min", "0", "--c-max", "1", "--step", "1e-9"], "points"),
            (["profile", "--c-min", "0", "--c-max", "1", "--step", "inf"], "step"),
            (["profile", "--c-min", "0", "--c-max", "1", "--step", "nan"], "step"),
            (["profile", "--c-min", "0", "--c-max", "0", "--step", "1e-15"], "points"),
            (["profile", "--c-min", "0", "--c-max", "0", "--step", "1e-300"], "points"),
            (["exact-tv", "--chain", "rt", "--n", "4", "--t-max", "-1"], "t must be nonnegative"),
            (["exact-tv", "--chain", "rt", "--n", "9", "--t-max", "-1"], "limited to 2 <= n <= 8"),
        ],
        ids=[
            "bound-c-1e300",
            "compare-c-13",
            "verify-n0",
            "verify-n1",
            "verify-n31",
            "profile-1e9-points",
            "profile-step-inf",
            "profile-step-nan",
            "profile-slack-1e6-points",
            "profile-slack-1e291-points",
            "exact-tv-negative-t-max",
            "exact-tv-n-checked-first",
        ],
    )
    def test_out_of_range_input_is_one(self, argv, message, capsys):
        code = cli.run(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    @pytest.mark.parametrize("bound", ["--c-min", "--c-max"])
    def test_non_finite_profile_range_is_one(self, bound, value, capsys):
        argv = {"--c-min": "-1", "--c-max": "1", bound: value}
        code = cli.run(["profile", "--step", "0.5"] + [f"{k}={v}" for k, v in argv.items()])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: c_min and c_max must be finite\n"

    def test_negative_t_max_is_one(self, capsys):
        code = cli.run(["exact-tv", "--chain", "star", "--n", "4", "--t-max", "-3"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("n", ["60", "9", "1"])
    def test_compare_n_out_of_range_builds_no_table(self, n, capsys):
        misses = profiles._spectral_table.cache_info().misses
        code = cli.run(["compare", "--n", n, "--c", "0"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: matrix construction limited to 2 <= n <= 8\n"
        assert profiles._spectral_table.cache_info().misses == misses

    def test_usage_error_is_two(self, capsys):
        assert run_cli(["bound", "--n", "8"], capsys)[0] == 2  # missing --c
        assert run_cli(["no-such-command"], capsys)[0] == 2
        assert run_cli([], capsys)[0] == 2


class TestVerify:
    def test_n5_all_pass(self, capsys):
        code, out = run_cli(["verify", "--n", "5"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "check;status"
        assert all(line.endswith(";pass") for line in lines[1:])
        assert "fail" not in out

    def test_n6_passes_with_skips(self, capsys):
        # the spectrum-vs-numeric check is capped at n=5 and reports skip
        code, out = run_cli(["verify", "--n", "6"], capsys)
        assert code == 0
        assert "spectrum-vs-numeric;skip" in out

    @pytest.mark.parametrize("n", range(2, 8))
    def test_small_n_no_fail(self, n, capsys):
        code, out = run_cli(["verify", "--n", str(n)], capsys)
        status = dict(line.split(";") for line in out.splitlines()[1:])
        assert code == 0 and "fail" not in status.values()
        assert status["comparison-inequality"] == "pass"

    def test_comparison_inequality_negative_control(self, monkeypatch, capsys):
        # a right-hand side of zero is below 2 TV(rt^t, star^t*) off t = t* = 0
        def zero_rhs(n, t, t_star):
            return np.zeros(np.broadcast(t, t_star).shape)

        monkeypatch.setattr(exact_chain, "spectral_rhs", zero_rhs)
        code, out = run_cli(["verify", "--n", "5"], capsys)
        status = dict(line.split(";") for line in out.splitlines()[1:])
        assert code == 1
        assert [name for name, st in status.items() if st == "fail"] == ["comparison-inequality"]

    @pytest.mark.parametrize("n", range(2, 8))
    def test_comparison_identity_negative_control(self, n, monkeypatch, capsys):
        # a right-hand side 1e-6 too large still bounds 2 TV(rt^t, star^t*),
        # but breaks n! |rt^t - star^t*|^2 = rhs^2
        spectral_rhs = exact_chain.spectral_rhs

        def inflated_rhs(n, t, t_star):
            return spectral_rhs(n, t, t_star) * (1 + 1e-6)

        monkeypatch.setattr(exact_chain, "spectral_rhs", inflated_rhs)
        code, out = run_cli(["verify", "--n", str(n)], capsys)
        status = dict(line.split(";") for line in out.splitlines()[1:])
        assert code == 1
        assert [name for name, st in status.items() if st == "fail"] == ["comparison-inequality"]

    # each edit changes the corner in row 2 of (5, 2, 1) at n = 8, and the
    # checks that must then fail
    @pytest.mark.parametrize(
        "edit, broken",
        [
            (lambda c: ((c[0], c[1] + 1, c[2]),), {"branching-rule", "transpose-duality"}),
            (lambda c: ((c[0], c[1], c[2] + Fraction(1, 8)),), {"transpose-antisymmetry"}),
            (lambda c: (), {"branching-rule", "transpose-duality", "transpose-antisymmetry"}),
        ],
        ids=["d_corner-off-by-one", "s_bar-off-by-1/n", "corner-missing"],
    )
    def test_corrupted_blocks_fail(self, edit, broken, monkeypatch, capsys):
        good = spectra.blocks(8)

        def corrupted(n):
            return tuple(
                (lam, lam_t, d, s, cs[:1] + edit(cs[1]) + cs[2:] if lam == (5, 2, 1) else cs)
                for lam, lam_t, d, s, cs in good
            )

        monkeypatch.setattr(spectra, "blocks", corrupted)
        code = cli.run(["verify", "--n", "8"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        assert captured.out.startswith("check;status\n")
        status = dict(line.split(";") for line in captured.out.splitlines()[1:])
        assert len(status) == 13 and status["dimension-squares-sum"] == "pass"
        assert broken <= {name for name, st in status.items() if st == "fail"}

    def test_one_block_build_per_run(self, monkeypatch, capsys):
        calls = []
        dim = partitions._dim  # the hook length product behind exact_dim

        def counted(parts, tr):
            calls.append(parts)
            return dim(parts, tr)

        for module in (partitions, spectra, cli):
            if hasattr(module, "_dim"):
                monkeypatch.setattr(module, "_dim", counted)
        spectra.blocks.cache_clear()
        misses = spectra.blocks.cache_info().misses
        assert run_cli(["verify", "--n", "30"], capsys)[0] == 0
        assert spectra.blocks.cache_info().misses == misses + 1
        # one call per shape of n and n - 1: p(30) + p(29) = 5,604 + 4,565
        assert len(calls) == len(set(calls)) == 10_169

    @pytest.mark.parametrize("n, builds", [(5, 2), (6, 2), (7, 2), (8, 0)])
    def test_one_matrix_per_chain_per_run(self, n, builds, monkeypatch, capsys):
        calls = []
        build = exact_chain.build_matrix

        def counted(chain, n):
            calls.append(chain)
            return build(chain, n)

        monkeypatch.setattr(exact_chain, "build_matrix", counted)
        assert run_cli(["verify", "--n", str(n)], capsys)[0] == 0
        assert len(calls) == len(set(calls)) == builds


class TestBound:
    def test_total_matches_library_bit_for_bit(self, capsys):
        _, out = run_cli(["bound", "--n", "5", "--c", "0"], capsys)
        header, row = out.strip().split("\n")
        fields = dict(zip(header.split(";"), row.split(";")))
        rep = profiles.comparison_bound(5, 0.0)
        assert fields["total"] == f"{rep.total:.12g}"
        assert fields["t"] == str(rep.t) and fields["tstar"] == str(rep.t_star)

    def test_truncation_flag_forwarded(self, capsys):
        _, out = run_cli(["bound", "--n", "10", "--c", "0", "--M", "2"], capsys)
        header, row = out.strip().split("\n")
        fields = dict(zip(header.split(";"), row.split(";")))
        rep = profiles.comparison_bound(10, 0.0, truncation_m=2)
        for i, name in enumerate(["term1", "term2", "term3", "term4"]):
            assert fields[name] == f"{rep.parts[i]:.12g}"


class TestProfile:
    def test_degenerate_grid_single_row(self, capsys):
        _, out = run_cli(["profile", "--c-min", "0", "--c-max", "0", "--step", "1"], capsys)
        lines = out.strip().split("\n")
        phi = profiles.star_profile(0.0).value
        assert lines == ["c;phi", f"0;{phi:.12g}"]

    @pytest.mark.parametrize(
        "c_min, c_max, step, rows",
        [("-7.9", "12", "0.1", 200), ("-1.1", "12", "0.05", 263), ("0", "0", "3e-10", 1)],
    )
    def test_last_point_past_c_max_by_rounding(self, c_min, c_max, step, rows, capsys):
        # c_min + k step lands a few ulps past c_max = 12, the window's edge,
        # or, with a step below the 1e-9 slack, several times within it
        argv = ["profile", "--c-min", c_min, "--c-max", c_max, "--step", step]
        code, out = run_cli(argv, capsys)
        lines = out.splitlines()
        assert code == 0 and len(lines) == 1 + rows
        assert lines[-1].startswith(f"{c_max};")
        assert lines[-1] == f"{c_max};{profiles.star_profile(float(c_max)).value:.12g}"


class TestSpectrum:
    def test_star_n3_rows(self, capsys):
        _, out = run_cli(["spectrum", "--chain", "star", "--n", "3"], capsys)
        lines = out.strip().split("\n")
        assert lines[0] == "partition;eigenvalue;multiplicity;chain"
        assert lines[1:] == [
            "3;1;1;star",
            "2,1;0.666666666667;2;star",
            "2,1;0;2;star",
            "1,1,1;-0.333333333333;1;star",
        ]


class TestExactTv:
    def test_row_count_and_start(self, capsys):
        _, out = run_cli(["exact-tv", "--chain", "rt", "--n", "4", "--t-max", "12"], capsys)
        lines = out.strip().split("\n")
        assert len(lines) == 14  # header + t = 0..12
        first = lines[1].split(";")
        assert first[2] == "0"
        assert float(first[3]) == pytest.approx(1.0 - 1.0 / math.factorial(4), abs=1e-12)

    def test_t_max_at_cap(self, capsys):
        cap = exact_chain.EXACT_TV_T_CAP
        code, out = run_cli(["exact-tv", "--chain", "star", "--n", "2", "--t-max", str(cap)], capsys)
        lines = out.strip().split("\n")
        assert code == 0 and len(lines) == cap + 2  # header + t = 0..cap
        assert lines[-1].split(";")[2] == str(cap)

    def test_t_max_over_cap_is_one(self, capsys):
        t_max = str(exact_chain.EXACT_TV_T_CAP + 1)
        code = cli.run(["exact-tv", "--chain", "rt", "--n", "8", "--t-max", t_max])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "--t-max" in captured.err

    @pytest.mark.parametrize("t_max", ["-1", "-3", str(exact_chain.EXACT_TV_T_CAP + 1)])
    def test_rejected_time_builds_no_matrix(self, t_max, monkeypatch, capsys):
        def built(chain, n):
            raise AssertionError("built a matrix for a rejected time")

        monkeypatch.setattr(exact_chain, "build_matrix", built)
        code = cli.run(["exact-tv", "--chain", "rt", "--n", "8", "--t-max", t_max])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


COLD_START = f"""
import contextlib, io, sys
import shuffle_spectra
assert "scipy" not in sys.modules, "import shuffle_spectra"
from shuffle_spectra import cli
assert "scipy" not in sys.modules, "import cli"
with contextlib.redirect_stdout(io.StringIO()):
    for argv in {[SUBCOMMANDS[name] for name in ("bound", "decompose", "profile", "spectrum")]!r}:
        assert cli.run(argv) == 0, argv
        assert "scipy" not in sys.modules, argv
    assert cli.run(["compare", "--n", "4", "--c", "0"]) == 0
assert "scipy" in sys.modules, "compare"
"""

VERIFY_COLD = """
import contextlib, io, sys
from shuffle_spectra import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert cli.run(["verify", "--n", "9"]) == 0
assert "commutation;skip" in out.getvalue()
assert "scipy" not in sys.modules, "verify --n 9"
"""

ROOT_MODULES = """
import sys
import shuffle_spectra
public = {name for name in vars(shuffle_spectra) if not name.startswith("_")}
assert public == {"partitions", "profiles", "spectra"}, sorted(public)
assert "scipy" not in sys.modules
from shuffle_spectra import exact_chain
assert exact_chain is shuffle_spectra.exact_chain is sys.modules["shuffle_spectra.exact_chain"]
assert "scipy" in sys.modules
"""


class TestColdImport:
    """The package and the spectral-sum commands load no scipy; the exact engine does."""

    @pytest.mark.parametrize(
        "script",
        [COLD_START, VERIFY_COLD, ROOT_MODULES],
        ids=["cli", "verify-skips", "root-modules"],
    )
    def test_fresh_interpreter(self, script):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr


class TestOutputModes:
    def test_out_file_matches_stdout(self, tmp_path, capsys):
        _, stdout_text = run_cli(["spectrum", "--chain", "rt", "--n", "4"], capsys)
        path = tmp_path / "spec.csv"
        code, out = run_cli(["spectrum", "--chain", "rt", "--n", "4", "--out", str(path)], capsys)
        assert code == 0 and out == ""
        assert path.read_text() == stdout_text

    @pytest.mark.parametrize("verify_fails", [False, True], ids=["result", "verify-failure"])
    @pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
    def test_unwritable_out_is_one(self, where, verify_fails, tmp_path, monkeypatch, capsys):
        path = tmp_path / "missing" / "x.csv" if where == "missing-dir" else tmp_path
        if verify_fails:
            monkeypatch.setattr(cli, "_verify_checks", lambda n: iter([("check", "fail")]))
        code = cli.run(["verify", "--n", "4", "--out", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"error: cannot write --out {path}: ")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "command", ["exact-tv --chain rt --n 3 --t-max 10000", "bound --n 5 --c 0"]
    )
    def test_full_stdout_is_one(self, command, buffered):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), PYTHONUNBUFFERED="1")
        if buffered:  # a short text then fails only when stdout is flushed
            del env["PYTHONUNBUFFERED"]
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "shuffle_spectra.cli", *command.split()],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env,
            )
        assert proc.returncode == 1
        assert proc.stderr == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"

    def test_pretty_format_aligned(self, capsys):
        _, out = run_cli(["spectrum", "--chain", "rt", "--n", "4", "--format", "pretty"], capsys)
        lines = out.rstrip("\n").split("\n")
        assert ";" not in out
        assert lines[0].split() == ["partition", "eigenvalue", "multiplicity", "chain"]
        # fixed-width columns: every padded row has the same length
        assert len({len(line) for line in lines}) == 1


# Exact stdout recorded before the comparison sums were merged into one pass
# (the spectrum and verify --n 13 entries: before the dimension helpers were
# folded into exact_dim; the n = 48 and n = 60 entries, the sizes the benchmark
# and CI run: before the table build became one pass; verify --n 30 and the
# spectrum digests at n = 30, the exact cap: before spectra.blocks; the verify
# entries' two trace rows read skip while the exact trace stopped at n = 12);
# any change to these bytes is a change to the program's output.
GOLDEN = {
    "bound --n 60 --c -1": (
        "n;c;t;tstar;total;term1;term2;term3;term4\n"
        "60;-1;94;186;1.87475962459;24.8289921621;42.5524533165;30.0179268058;6.77313528313\n"
    ),
    "bound --n 48 --c 0.5 --M 3": (
        "n;c;t;tstar;total;term1;term2;term3;term4\n"
        "48;0.5;106;210;0.0523578370595;0.00179914961366;0.00258448700607;"
        "0.00196625818821;0.0106579235155\n"
    ),
    "decompose --n 48 --c 0 --M 5": (
        "n;c;M;term1;term2;term3;term4\n"
        "48;0;5;0.000783784128888;0.000442266935148;0.00028838133611;0.0473561279345\n"
    ),
    "bound --n 30 --c -1": (
        "n;c;t;tstar;total;term1;term2;term3;term4\n"
        "30;-1;36;72;1.47096945818;6.4255928271;6.97871864076;5.50438575447;6.38402993299\n"
    ),
    "bound --n 12 --c 0.5 --M 3": (
        "n;c;t;tstar;total;term1;term2;term3;term4\n"
        "12;0.5;18;36;0.0768902955094;0.00158357536269;0.000112083937698;"
        "7.33982612786e-05;0.0235661788434\n"
    ),
    "decompose --n 20 --c 0.25 --M 4": (
        "n;c;M;term1;term2;term3;term4\n"
        "20;0.25;4;0.00115038173819;6.93314069575e-05;3.97027162834e-05;0.0368640385602\n"
    ),
    "compare --n 8 --c 1": (
        "n;c;t;tstar;tv_star;tv_rt;diff;bound\n"
        "8;1;13;25;0.0858042935913;0.0643774128206;0.0214268807707;0.0511019479639\n"
    ),
    "compare --n 6 --c 0": (
        "n;c;t;tstar;tv_star;tv_rt;diff;bound\n"
        "6;0;5;11;0.21605439709;0.263795534217;0.0477411371276;0.172070440353\n"
    ),
    "exact-tv --chain rt --n 5 --t-max 12": (
        "n;chain;t;tv\n"
        "5;rt;0;0.991666666667\n"
        "5;rt;1;0.908333333333\n"
        "5;rt;2;0.616666666667\n"
        "5;rt;3;0.288546666667\n"
        "5;rt;4;0.223450666667\n"
        "5;rt;5;0.117595370667\n"
        "5;rt;6;0.0793763242667\n"
        "5;rt;7;0.0443489226411\n"
        "5;rt;8;0.0283883515767\n"
        "5;rt;9;0.0162282330632\n"
        "5;rt;10;0.0101935977268\n"
        "5;rt;11;0.00587626074152\n"
        "5;rt;12;0.00366622022209\n"
    ),
    "exact-tv --chain star --n 7 --t-max 30": (
        "n;chain;t;tv\n"
        "7;star;0;0.999801587302\n"
        "7;star;1;0.998611111111\n"
        "7;star;2;0.992658730159\n"
        "7;star;3;0.965873015873\n"
        "7;star;4;0.874603174603\n"
        "7;star;5;0.754382929071\n"
        "7;star;6;0.684255367425\n"
        "7;star;7;0.610816579165\n"
        "7;star;8;0.537252895007\n"
        "7;star;9;0.466865135122\n"
        "7;star;10;0.403214107063\n"
        "7;star;11;0.346509184421\n"
        "7;star;12;0.297126511403\n"
        "7;star;13;0.254306331255\n"
        "7;star;14;0.219055788174\n"
        "7;star;15;0.191385135297\n"
        "7;star;16;0.16707969287\n"
        "7;star;17;0.145469118651\n"
        "7;star;18;0.126260119419\n"
        "7;star;19;0.109388532733\n"
        "7;star;20;0.094571509736\n"
        "7;star;21;0.0816603866381\n"
        "7;star;22;0.0704103521168\n"
        "7;star;23;0.0606588280208\n"
        "7;star;24;0.0522062115778\n"
        "7;star;25;0.0449053329399\n"
        "7;star;26;0.0385991912156\n"
        "7;star;27;0.0331653535172\n"
        "7;star;28;0.0284830975209\n"
        "7;star;29;0.0244551195196\n"
        "7;star;30;0.0209899532649\n"
    ),
    "verify --n 6": (
        "check;status\n"
        "dimension-squares-sum;pass\n"
        "branching-rule;pass\n"
        "transpose-duality;pass\n"
        "dimension-bound;pass\n"
        "corner-bounds;pass\n"
        "completeness-rt;pass\n"
        "completeness-star;pass\n"
        "trace-rt;pass\n"
        "trace-star;pass\n"
        "transpose-antisymmetry;pass\n"
        "commutation;pass\n"
        "spectrum-vs-numeric;skip\n"
        "comparison-inequality;pass\n"
    ),
    "spectrum --chain star --n 5": (
        "partition;eigenvalue;multiplicity;chain\n"
        "5;1;1;star\n"
        "4,1;0.8;12;star\n"
        "4,1;0;4;star\n"
        "3,2;0.6;10;star\n"
        "3,2;0.2;15;star\n"
        "3,1,1;0.6;18;star\n"
        "3,1,1;-0.2;18;star\n"
        "2,2,1;0.2;15;star\n"
        "2,2,1;-0.2;10;star\n"
        "2,1,1,1;0.4;4;star\n"
        "2,1,1,1;-0.4;12;star\n"
        "1,1,1,1,1;-0.6;1;star\n"
    ),
    "spectrum --chain rt --n 6": (
        "partition;eigenvalue;multiplicity;chain\n"
        "6;1;1;rt\n"
        "5,1;0.666666666667;25;rt\n"
        "4,2;0.444444444444;81;rt\n"
        "4,1,1;0.333333333333;100;rt\n"
        "3,3;0.333333333333;25;rt\n"
        "3,2,1;0.166666666667;256;rt\n"
        "3,1,1,1;0;100;rt\n"
        "2,2,2;0;25;rt\n"
        "2,2,1,1;-0.111111111111;81;rt\n"
        "2,1,1,1,1;-0.333333333333;25;rt\n"
        "1,1,1,1,1,1;-0.666666666667;1;rt\n"
    ),
    "verify --n 13": (
        "check;status\n"
        "dimension-squares-sum;pass\n"
        "branching-rule;pass\n"
        "transpose-duality;pass\n"
        "dimension-bound;pass\n"
        "corner-bounds;pass\n"
        "completeness-rt;pass\n"
        "completeness-star;pass\n"
        "trace-rt;pass\n"
        "trace-star;pass\n"
        "transpose-antisymmetry;pass\n"
        "commutation;skip\n"
        "spectrum-vs-numeric;skip\n"
        "comparison-inequality;skip\n"
    ),
}
GOLDEN["verify --n 30"] = GOLDEN["verify --n 13"]  # the same checks run and skip

# chain: (lines, sha256) of spectrum --chain <chain> --n 30
SPECTRUM_30 = {
    "rt": (5605, "78a1f49c46d189ea45ebf321cd119253c527a7a1676f3a832665c82ab49d2335"),
    "star": (23026, "1fcb74896e4c3e1e60678f021476f71246373991efea71bc10af2093c1cb6c4e"),
}


class TestGoldenBytes:
    @pytest.mark.parametrize("command", sorted(GOLDEN))
    def test_stdout_bytes(self, command, capsys):
        code, out = run_cli(command.split(), capsys)
        assert code == 0
        assert out.encode() == GOLDEN[command].encode()

    @pytest.mark.parametrize("chain", sorted(SPECTRUM_30))
    def test_spectrum_at_exact_cap(self, chain, capsys):
        code, out = run_cli(["spectrum", "--chain", chain, "--n", "30"], capsys)
        lines, digest = SPECTRUM_30[chain]
        assert code == 0 and out.count("\n") == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest
