"""End-to-end checks of the command-line interface (in-process)."""

import hashlib
import os
import shlex
import sys
import time
from pathlib import Path

import pytest

from qsteiner.cli import main
from qsteiner.designs import build_parallelism, construct_uniform_design
from qsteiner.files import (parse_design_file, parse_parallelism_file,
                            serialize_parallelism, write_design,
                            write_parallelism)

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gauss(capsys):
    code, out, _ = run(capsys, "gauss", "7", "2", "2")
    assert code == 0 and out.strip() == "2667"
    code, out, _ = run(capsys, "gauss", "3", "2", "2")
    assert code == 0 and out.strip() == "7"
    code, out, _ = run(capsys, "gauss", "5", "0", "3")
    assert code == 0 and out.strip() == "1"


def test_gauss_prints_past_the_int_digit_limit(capsys):
    """[300 choose 150]_2 has 6,774 digits, more than ``str`` of an int
    gives by default (4,300 since Python 3.10.7); the printed digits
    equal the value built by the q-Pascal rule
    [n k] = [n-1 k-1] + q^k [n-1 k], read with the limit lifted."""
    code, out, err = run(capsys, "gauss", "300", "150", "2")
    assert code == 0 and err == ""
    row = [1] + [0] * 150
    for n in range(1, 301):
        row = [1] + [row[k - 1] + 2 ** k * row[k] for k in range(1, 151)]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        assert out == f"{row[150]}\n"
        assert len(out) == 6775
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_necessary_exit_codes(capsys):
    code, out, _ = run(capsys, "necessary", "2", "3", "7", "2")
    assert code == 0 and out.strip().endswith("PASS")
    assert "381" in out and "21" in out
    code, out, _ = run(capsys, "necessary", "2", "3", "8", "2")
    assert code == 1 and "FAIL" in out and "i=0" in out
    code, out, _ = run(capsys, "necessary", "1", "2", "6", "2")
    assert code == 0 and "21" in out


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "N", "2", "5", "3", "7", "2")
    assert code == 0 and "MATCH" in out and "12" in out
    code, out, _ = run(capsys, "oracle", "C", "2", "2", "2", "3", "2")
    assert code == 0 and "4" in out
    code, out, _ = run(capsys, "oracle", "D", "1", "2", "4", "2")
    assert code == 0 and "7" in out


def test_uniform_solve(capsys):
    code, out, _ = run(capsys, "uniform-solve", "2", "2", "3", "7", "4",
                       "--pin", "X0=1")
    assert code == 0
    assert "X_0 = 1" in out and "X_1 = 0" in out
    assert "X_2 = 4" in out and "X_3 = 16" in out
    assert "nonnegative integers: yes" in out
    # unpinned, one variable stays free
    code, out, _ = run(capsys, "uniform-solve", "2", "2", "3", "7", "4")
    assert code == 0 and out.splitlines() == [
        "status: underdetermined", "X_0 = 31", "X_1 = -14", "X_2 = 16", "X_3 = 0",
        "free variables: 1", "nonnegative integers: no"]


def test_full_solve_alias(capsys):
    code, out, _ = run(capsys, "full-solve", "2", "2", "3", "7", "2")
    assert code == 0 and "status: unique" in out
    values = [ln.split(" = ")[1] for ln in out.splitlines() if ln.startswith("a[")]
    assert values == ["5", "40", "40", "40", "256"]


def test_uniform_solve_open_m6_case(capsys):
    code, out, _ = run(capsys, "uniform-solve", "2", "2", "3", "7", "6")
    assert code == 0
    assert "status: unique" in out
    assert "nonnegative integers: no" in out


def test_build_verify_puncture_cycle(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "build", "fano-m4", "--q", "2")
    assert code == 0 and "PASS" in out and "381" in out
    assert os.path.exists("fano-m4-q2.design")

    code, out, _ = run(capsys, "verify", "fano-m4-q2.design")
    assert code == 0 and "PASS" in out

    code, out, _ = run(capsys, "build", "fano-m5", "--q", "2",
                       "--parallelism", "auto")
    assert code == 0 and "PASS" in out

    code, out, _ = run(capsys, "puncture", "fano-m5-q2.design")
    assert code == 0 and "PASS" in out
    punctured = parse_design_file("fano-m5-q2-m4.design")
    assert punctured.params.m == 4
    assert punctured == parse_design_file("fano-m4-q2.design")


def test_verify_corrupted_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(capsys, "build", "fano-m4", "--q", "2")
    text = Path("fano-m4-q2.design").read_text()
    with open("corrupt.design", "w") as fh:
        fh.write(text.replace("block 16 3", "block 15 3", 1))
    code, out, _ = run(capsys, "verify", "corrupt.design")
    assert code == 1
    assert out.startswith("FAIL: equation for the")
    with open("signed.design", "w") as fh:
        fh.write(text.replace("q=2 ", "q=+2 ", 1))
    code, out, err = run(capsys, "verify", "signed.design")
    assert code == 2 and out == ""
    assert err.startswith("error: bad parameter line 'q=+2 ")


@pytest.mark.parametrize("q, got, expected, count", [(2, 65, 64, 7),
                                                      (3, 730, 729, 13)])
def test_verify_reports_first_violation(tmp_path, capsys, monkeypatch,
                                        q, got, expected, count):
    """One block of fano-m4 raised by 1 breaks the equations of its
    2-subspaces; the report names the first of them in canonical order."""
    monkeypatch.chdir(tmp_path)
    run(capsys, "build", "fano-m4", "--q", str(q))
    text = Path(f"fano-m4-q{q}.design").read_text()
    mult, rows = q ** 4 * (q - 1), "1001;0101;0011"
    line = f"block {mult} 3 {rows}\n"
    assert line in text
    Path("raised.design").write_text(text.replace(line, f"block {mult + 1} 3 {rows}\n"))
    code, out, _ = run(capsys, "verify", "raised.design")
    assert code == 1
    assert out == (f"FAIL: equation for the 2-subspace [0101;0011] gives {got}, "
                   f"expected {expected} ({count} violated equations)\n")


def test_verify_non_decimal_multiplicity(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(capsys, "build", "fano-m4", "--q", "2")
    text = Path("fano-m4-q2.design").read_text()
    with open("bad.design", "w") as fh:
        fh.write(text + "block x 0 -\n")
    code, out, err = run(capsys, "verify", "bad.design")
    assert code == 2 and out == ""
    assert err == ("error: multiplicity and dimension must be ASCII decimal "
                   "numbers in 'block x 0 -'\n")


@pytest.mark.parametrize("target, q", [
    ("fano-m4", 2), ("s3484", 2), ("s3485", 2), ("fano-m5", 2),
    ("recursive", 2), ("s3485", 3), ("fano-m5", 3)])
def test_verify_repeats_the_build_verdict(tmp_path, capsys, monkeypatch, target, q):
    """``build`` checks its families by class sums, ``verify`` reads the
    file back and checks it equation by equation: both print the same
    ``PASS:`` line."""
    monkeypatch.chdir(tmp_path)
    k = ["--k", "3"] if target == "recursive" else []
    code, out, _ = run(capsys, "build", target, "--q", str(q), *k, "-o", "x.design")
    wrote, verdict = out.splitlines()
    assert code == 0 and wrote.startswith("wrote x.design (")
    assert verdict.startswith("PASS: ")
    code, out, _ = run(capsys, "verify", "x.design")
    assert code == 0 and out == verdict + "\n"


def test_build_s3485_and_recursive(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "build", "s3485", "--q", "2")
    assert code == 0 and "6477" in out
    code, out, _ = run(capsys, "build", "s3484", "--q", "2")
    assert code == 0 and "6477" in out
    code, out, _ = run(capsys, "build", "recursive", "--q", "2", "--k", "3")
    assert code == 0 and "381" in out


def test_verify_reports_illegal_block_dimension(tmp_path, capsys, monkeypatch):
    """A 4-dimensional block in fano-m4 (legal dimensions 0..3) is named
    by the report; no equation counts it, so none is violated."""
    monkeypatch.chdir(tmp_path)
    run(capsys, "build", "fano-m4", "--q", "2")
    text = Path("fano-m4-q2.design").read_text()
    Path("whole.design").write_text(text + "block 1 4 1000;0100;0010;0001\n")
    code, out, _ = run(capsys, "verify", "whole.design")
    assert code == 1
    assert out == ("FAIL: block 1000;0100;0010;0001 has dimension 4 "
                   "outside the legal range\n")


def test_build_recursive_from_base_file(tmp_path, capsys, monkeypatch):
    """``--base FILE`` reads the base design: the uniform S_2(2,3,3;1)
    gives the pinned recursive k = 3 file, and a base that fails
    verification is bad input, with no file written."""
    monkeypatch.chdir(tmp_path)
    write_design(construct_uniform_design(2, 2, 3, 3, 1, {1: 1}), "base.design")
    code, out, _ = run(capsys, "build", "recursive", "--q", "2", "--k", "3",
                       "--base", "base.design", "-o", "rec.design")
    assert code == 0
    assert out == ("wrote rec.design (201 distinct blocks)\n"
                   "PASS: 187 equations, total multiplicity 381\n")
    assert sha256(Path("rec.design").read_text()) == (
        "c31fb486bddb1a2fb4efad2c65cc2162d9be1a814d71ad4fc68c6fc9e62d784a")
    write_design(construct_uniform_design(2, 2, 3, 3, 1, {1: 2}), "twice.design")
    code, out, err = run(capsys, "build", "recursive", "--q", "2", "--k", "3",
                         "--base", "twice.design", "-o", "bad.design")
    assert (code, out, err) == (2, "", "error: base design fails verification\n")
    assert not os.path.exists("bad.design")


def test_build_recursive_q3_k3(tmp_path, capsys, monkeypatch):
    """At q = 3 the recursive construction takes the shipped parallelism
    of F_3^4 and the uniform base S_3(2,3,3;1); its file is pinned, and
    its puncture is fano-m4 at q = 3."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "build", "recursive", "--q", "3", "--k", "3")
    assert code == 0 and err == ""
    assert out == ("wrote recursive-q3.design (1531 distinct blocks)\n"
                   "PASS: 1332 equations, total multiplicity 7651\n")
    text = Path("recursive-q3.design").read_text()
    assert sha256(text) == (
        "f41eebc8f88d21700048fe3f26cb06cec55a34d828b29886df9f789402db15c8")
    assert run(capsys, "puncture", "recursive-q3.design")[0] == 0
    assert run(capsys, "build", "fano-m4", "--q", "3")[0] == 0
    assert (parse_design_file("recursive-q3-m4.design")
            == parse_design_file("fano-m4-q3.design"))


def test_spread_and_parallelism_commands(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "spread", "2", "4")
    assert code == 0
    assert out.splitlines()[0] == "qsteiner-spread v1"
    assert "5 lines" in out

    # -o writes what stdout shows, and names the file in its place
    code, written, _ = run(capsys, "spread", "2", "4", "-o", "sp.txt")
    text, verdict = out[:out.index("PASS: ")], out[out.index("PASS: "):]
    assert code == 0 and written == f"wrote sp.txt\n{verdict}"
    assert Path("sp.txt").read_bytes() == text.encode("ascii")

    code, out, _ = run(capsys, "parallelism", "2", "4", "-o", "p.txt")
    assert code == 0
    para = parse_parallelism_file("p.txt")
    assert len(para.spreads) == 7


def test_parallelism_from_packaged_data(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "parallelism", "3", "4")
    assert code == 0
    assert len(parse_parallelism_file("parallelism-q3-n4.txt").spreads) == 13


def test_parallelism_source_errors(tmp_path, capsys, monkeypatch):
    para26 = tmp_path / "parallelism-q2-n6.txt"
    write_parallelism(build_parallelism(2, 6), para26)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    code, out, err = run(capsys, "build", "fano-m5", "--q", "2", "--parallelism",
                         str(para26))
    assert code == 2 and out == ""
    assert err == "error: file holds a parallelism for q=2, n=6, requested q=2, n=4\n"
    assert os.listdir(work) == []
    for argv in ("parallelism 3 4 --source search", "parallelism 2 12",
                 "parallelism 2 5"):
        code, out, err = run(capsys, *argv.split())
        assert code == 2 and out == "", argv
        assert err == ("error: search mode supports q = 2 with n in "
                       "{2, 4, 6, 8, 10}; use a file for other parameters\n")
    assert os.listdir(work) == []


def test_qsteiner_data_dir_lookup(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(capsys, "parallelism", "2", "4", "-o",
        str(tmp_path / "parallelism-q2-n4.txt"))
    monkeypatch.setenv("QSTEINER_DATA", str(tmp_path))
    code, out, _ = run(capsys, "build", "fano-m5", "--q", "2",
                       "--parallelism", "auto")
    assert code == 0 and "PASS" in out


def test_transform_command(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(capsys, "build", "fano-m4", "--q", "2")
    code, out, _ = run(capsys, "transform", "fano-m4-q2.design",
                       "--op", "1=1,1,0,0", "--op", "3=0,0,1,1")
    assert code == 0 and "PASS" in out
    transformed = parse_design_file("fano-m4-q2-transformed.design")
    assert transformed.params.m == 4

    code, _, err = run(capsys, "transform", "fano-m4-q2.design",
                       "--op", "1=1,0,0,0")
    assert code == 2 and "nonzero" in err
    code, _, err = run(capsys, "transform", "fano-m4-q2.design", "--op", "x")
    assert code == 2 and "bad op" in err
    code, _, err = run(capsys, "transform", "fano-m4-q2.design", "--op", "1=1,1")
    assert code == 2 and "needs 4 coefficients" in err
    # argparse reads a separate "-1=..." as an option; joined, it is --op's
    code, out, err = run(capsys, "transform", "fano-m4-q2.design", "--op=-1=1,1,0,0")
    assert code == 2 and out == "" and err == "error: column index -1 out of range\n"


@pytest.mark.parametrize("argv, default", [
    ("puncture fano-m4-q2.design", "fano-m4-q2-m3.design"),
    ("transform fano-m4-q2.design --op 1=1,1,0,0", "fano-m4-q2-transformed.design"),
])
def test_output_option_writes_the_default_file(tmp_path, capsys, monkeypatch,
                                               argv, default):
    """``-o`` writes, byte for byte, the file written by default, and
    stdout names it there."""
    monkeypatch.chdir(tmp_path)
    run(capsys, "build", "fano-m4", "--q", "2")
    code, out, _ = run(capsys, *argv.split())
    wrote, verdict = out.splitlines()
    assert code == 0 and wrote == f"wrote {default}"
    code, out, _ = run(capsys, *argv.split(), "-o", "out.design")
    assert code == 0 and out.splitlines() == ["wrote out.design", verdict]
    assert Path("out.design").read_bytes() == Path(default).read_bytes()


def test_deterministic_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _, out1, _ = run(capsys, "build", "fano-m4", "--q", "2")
    _, out2, _ = run(capsys, "build", "fano-m4", "--q", "2")
    assert out1 == out2
    assert (Path("fano-m4-q2.design").read_text()
            == Path("fano-m4-q2.design").read_text())


def test_bad_arguments_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["gauss", "7", "2"])
    assert exc.value.code == 2
    code, _, err = run(capsys, "verify", "no-such-file.design")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "uniform-solve", "2", "2", "3", "7", "4",
                       "--pin", "Y0=1")
    assert code == 2 and "bad pin" in err
    code, out, err = run(capsys, "uniform-solve", "2", "2", "3", "7", "6",
                         "--pin", "X0=1")
    assert code == 2 and out == ""
    assert err == "error: pin for unknown variable 0\n"
    with pytest.raises(SystemExit) as exc:   # full-solve has no --pin
        main(["full-solve", "2", "2", "3", "7", "4", "--pin", "X0=1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --pin X0=1" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:   # the full system is full-solve
        main(["uniform-solve", "2", "2", "3", "7", "4", "--full", "--pin", "X2=1/3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --full" in capsys.readouterr().err
    code, _, err = run(capsys, "build", "recursive", "--q", "2")
    assert code == 2 and "needs --k" in err
    code, _, err = run(capsys, "build", "recursive", "--q", "2", "--k", "7")
    assert code == 2 and "needs --base" in err


@pytest.mark.parametrize("argv, refused", [
    ("build s3485 --q 2 --k 9 --base nothere.design --parallelism nothere.txt",
     "--k, --base, --parallelism"),
    ("build fano-m4 --q 2 --k 3", "--k"),
    ("build s3484 --q 2 --base nothere.design", "--base"),
    ("build fano-m5 --q 2 --k 3", "--k"),
    ("build s3485 --q 2 --parallelism auto", "--parallelism"),
])
def test_build_refuses_options_its_target_does_not_read(tmp_path, capsys,
                                                         monkeypatch, argv, refused):
    """``--k`` and ``--base`` are for ``recursive`` only, ``--parallelism``
    for ``fano-m5`` and ``recursive``: any other target exits 2 with one
    ``error:`` line naming the options, and writes nothing."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == "" and os.listdir() == []
    target = argv.split()[1]
    assert err == f"error: build {target} does not take {refused}\n"


@pytest.mark.parametrize("argv, message", [
    ("gauss 7 2 1", "q >= 2"),
    ("gauss 7 2 0", "q >= 2"),
    ("necessary 2 3 7 1", "q >= 2"),
    ("uniform-solve 1 2 3 7 4", "q >= 2"),
    ("uniform-solve 0 2 3 7 4 --pin X0=1", "q >= 2"),
    ("uniform-solve 2 2 3 7 4 --pin X0=1/0", "bad pin 'X0=1/0'"),
    ("uniform-solve 2 2 3 7 4 --pin X0=abc", "bad pin 'X0=abc'; expected e.g. X0=1"),
    ("uniform-solve 2 2 3 7 4 --pin Xa=1", "bad pin 'Xa=1'; expected e.g. X0=1"),
    # a variable is named by X and ASCII decimal digits only, and once
    ("uniform-solve 2 2 3 7 4 --pin X+0=1", "bad pin 'X+0=1'; expected e.g. X0=1"),
    ("uniform-solve 2 2 3 7 4 --pin X\u0660=1",     # an Arabic-Indic zero
     "bad pin 'X\u0660=1'; expected e.g. X0=1"),
    ("uniform-solve 2 2 3 7 4 --pin X=1", "bad pin 'X=1'; expected e.g. X0=1"),
    # and a value by ASCII characters, without the underscores Fraction reads
    ("uniform-solve 2 2 3 7 4 --pin X0=\u0663",     # an Arabic-Indic three
     "bad pin 'X0=\u0663'; expected e.g. X0=1"),
    ("uniform-solve 2 2 3 7 4 --pin X0=1_0", "bad pin 'X0=1_0'; expected e.g. X0=1"),
    ("uniform-solve 2 2 3 7 4 --pin X0=1 --pin X0=2",
     "bad pin 'X0=2'; X0 is pinned twice"),
    ("uniform-solve 2 2 3 7 4 --pin X0=1 --pin X00=5",
     "bad pin 'X00=5'; X0 is pinned twice"),
    ("uniform-solve 6 2 3 7 4 --pin X0=1", "unsupported field order 6"),
    # refused before it is built, where the dense form exhausted memory
    ("full-solve 4 2 3 7 6", "full system would have 8471463 nonzero coefficients"),
    # no base makes such a k valid, so it is refused before a base is read
    ("build recursive --q 2 --k 5", "need k = 1 or 3 (mod 6), k >= 3"),
    ("build recursive --q 2 --k 1", "need k = 1 or 3 (mod 6), k >= 3"),
    ("build recursive --q 2 --k 0", "need k = 1 or 3 (mod 6), k >= 3"),
    ("build recursive --q 2 --k -1", "need k = 1 or 3 (mod 6), k >= 3"),
    ("build recursive --q 2 --k 5 --base nothere.design",
     "need k = 1 or 3 (mod 6), k >= 3"),
    ("oracle C 0 1 1 40 2", "oracle would enumerate"),
    ("oracle N 1 2 3", "oracle N takes 5 numbers: s m t n q"),
    ("oracle C 1 2 1 4", "oracle C takes 5 numbers: s t r k q"),
    ("oracle D 1 2 3 4 5", "oracle D takes 4 numbers: s r m q"),
    # refused before either count, and before any number too long to print
    ("oracle D 0 3000 6000 2", "oracle would enumerate at least 2^9000000 subspaces"),
    ("oracle D 0 100 400 2", "oracle would enumerate at least 2^30000 subspaces"),
    ("full-solve 2 40 41 3000 2900",
     "full system would have at least 2^117261 nonzero coefficients"),
])
def test_degenerate_arguments_exit_2(capsys, argv, message):
    """Degenerate numbers are bad input: exit 2 within a second, with
    one ``error:`` line, no traceback and no stdout."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("argv", [
    "full-solve 2 2 3 7 \u0662",  # an Arabic-Indic two
    "full-solve 2 2 3 +7 6",
    "gauss 1_0 1 2",
    "gauss ' 10' 1 2",
    "gauss 10 1 '2\u00a0'",  # a no-break space
    "necessary 2 3 7 \u0662",
    "oracle N 1 4 2 7 \u0662",
    "spread 2 \uff14",  # a fullwidth four
    "parallelism 2 1_0",
    "build fano-m4 --q \u0662",
    "build recursive --q 2 --k \u0663",
    "build recursive --q 2 --k -",
    "transform fano-m4-q2.design --op \u0660=1,0,0,0",
    "transform fano-m4-q2.design --op ' 1=1,1,0,0'",
    "transform fano-m4-q2.design --op 1=1,1,0,+0",
    "transform fano-m4-q2.design --op 1=1,0_1,0,0",
    "transform fano-m4-q2.design --op 1=1,--1,0,0",
])
def test_integer_arguments_are_ascii_decimal(tmp_path, capsys, monkeypatch, argv):
    """Every integer argument is ASCII decimal digits after an optional
    ``-``, as ``--pin`` names are; ``int`` would also take spaces, a
    ``+``, underscores and non-ASCII digits.  Each line exits 2 and
    writes no file."""
    monkeypatch.chdir(tmp_path)
    write_design(construct_uniform_design(2, 2, 3, 7, 4, {0: 1, 1: 0, 2: 4, 3: 16}),
                 "fano-m4-q2.design")
    try:
        code = main(shlex.split(argv))
    except SystemExit as exc:    # argparse rejected the line
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "error:" in err
    assert os.listdir() == ["fano-m4-q2.design"]


def test_negative_integer_arguments_keep_their_messages(capsys):
    """A leading ``-`` still reaches the range checks."""
    code, out, err = run(capsys, "gauss", "7", "2", "-2")
    assert code == 2 and out == "" and "q >= 2" in err
    code, out, err = run(capsys, "full-solve", "2", "2", "3", "7", "-1")
    assert code == 2 and out == "" and err.startswith("error: ")


def test_readme_commands_run(tmp_path, capsys, monkeypatch):
    """Every line of the fenced block under ``## Command line`` in
    README.md, without ``qsteiner`` and ``# comments``, exits 0."""
    block = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    commands = [shlex.split(line, comments=True)[1:]
                for line in block.split("```", 2)[1].splitlines() if line.strip()]
    assert len(commands) > 10 and all(commands)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QSTEINER_DATA", raising=False)
    codes = {}
    for argv in commands:
        try:
            codes[shlex.join(argv)] = main(argv)
        except SystemExit as exc:    # argparse rejected the line
            codes[shlex.join(argv)] = exc.code
        capsys.readouterr()
    assert codes == dict.fromkeys(codes, 0)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def test_parallelism_and_spread_outputs_pinned(capsys):
    """Parallelism files of the search and ``spread`` stdout, pinned by
    their sha256."""
    for n, digest in (
            (6, "bc10601a1252fa2f3306e5b155e5532b9c6d7b573eff3c2785dfa2ef68732721"),
            (8, "8f441bf41a70ec3df53312df204f796b31064c0c361dc3d113ded15c479d0700")):
        assert sha256(serialize_parallelism(build_parallelism(2, n))) == digest
    for argv, digest in (
            (("2", "6"), "6d2cb729775566ef9e197bcc6359800ea0ed2d283cd7ebbdc60ca3ae9ea58022"),
            (("3", "4"), "77efed336041ad0ba62334adf641be22d9564ff7769ed7a462737a3043d48820")):
        code, out, _ = run(capsys, "spread", *argv)
        assert code == 0 and sha256(out) == digest


def test_broken_pipe_exits_quietly(capsys, monkeypatch):
    """A reader that closes stdout early (``| head -1``) ends the command
    with exit code 141 and no message, and stdout's descriptor then
    points at os.devnull, so the last flush cannot fail again."""
    read_end, write_end = os.pipe()

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return write_end

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    try:
        assert main(["full-solve", "2", "2", "3", "7", "5"]) == 141
        os.write(write_end, b"left over")
    finally:
        os.close(write_end)
    with os.fdopen(read_end, "rb") as reader:
        assert reader.read() == b""        # the pipe was closed, unwritten
    assert capsys.readouterr().err == ""
