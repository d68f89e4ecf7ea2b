import json
import random
import subprocess
import sys

import pytest

from tlmonoid import enumerate_TL
from tlmonoid import rewrite
from tlmonoid.cli import main, render_tangle

ALPHA = "n=9; blocks=(1,-3)(2,7)(3,4)(5,6)(8,-6)(9,-9)(-8,-7)(-5,-4)(-2,-1)"
BETA = "n=9; blocks=(1,2)(3,4)(5,6)(7,-7)(8,9)(-2,-1)(-5,-4)(-6,-3)(-9,-8)"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "tlmonoid", *args],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_nf_worked_example():
    code, out, _ = run_cli("nf", "--n", "9", "L5 L3 L2 R1 R4 R7")
    assert code == 0
    assert out == "x=(5,3,2) y=(7,4,1)\n"


def test_eq_equal_and_not():
    code, out, _ = run_cli("eq", "--n", "5", "E1 E2 E1", "E1")
    assert (code, out) == (0, "equal\n")
    code, out, _ = run_cli("eq", "--n", "5", "L1 L4", "L1")
    assert (code, out) == (0, "equal\n")
    code, out, _ = run_cli("eq", "--n", "5", "E1", "E2")
    assert code == 1
    assert out.startswith("not-equal\n")
    assert len(out.strip().splitlines()) == 3


def test_enumerate_count():
    code, out, _ = run_cli("enumerate", "4")
    assert code == 0
    assert len(out.strip().splitlines()) == 14


def test_eval_with_loops():
    code, out, _ = run_cli("eval", "--n", "5", "E4 E4")
    assert code == 0
    assert out.splitlines()[1] == "m=1"


def test_mul_dagger_factorize_files(tmp_path):
    fa = tmp_path / "a.tl"
    fb = tmp_path / "b.tl"
    fa.write_text(ALPHA + "\n")
    fb.write_text(BETA + "\n")
    code, out, _ = run_cli("mul", str(fa), str(fb))
    assert code == 0
    assert out.splitlines()[1] == "m=1"
    code, out, _ = run_cli("dagger", str(fa))
    assert code == 0
    assert out.strip().startswith("n=9; blocks=(1,2)(3,-1)")
    code, out, _ = run_cli("factorize", str(fa))
    assert (code, out) == (0, "x=(5,3,2) y=(7,4,1)\n")


def test_build_round_trip():
    code, out, _ = run_cli("build", "--n", "9", "(5,3,2)", "(7,4,1)")
    assert code == 0
    assert out.strip() == ALPHA


def test_cert_write_and_check(tmp_path):
    cert = tmp_path / "d.cert"
    code, out, _ = run_cli("nf", "--n", "5", "R2 L2", "--cert", str(cert))
    assert code == 0 and out == "x=(4) y=(4)\n"
    assert cert.read_text().startswith("n=5; family=Omega\n")
    code, out, _ = run_cli("check-cert", str(cert), "--n", "5", "R2 L2")
    assert code == 0 and out == "ok: end=L4 R4\n"
    # tampering must be caught
    lines = cert.read_text().splitlines()
    lines[1] = "0:RL2(2,1):fwd"
    cert.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli("check-cert", str(cert), "--n", "5", "R2 L2")
    assert code == 3
    assert "rejected" in err


def test_a_push_past_its_budget_exits_three_and_writes_no_file(
        monkeypatch, tmp_path, capsys):
    # W_12 at n = 25, whose push takes 4095 RL steps, one past the budget
    monkeypatch.setattr(rewrite, "MAX_PUSH_STEPS", 2 ** 12 - 2)
    cert = tmp_path / "w12.cert"
    w12 = " ".join(f"R{i}" for i in range(1, 24, 2)) + " L1"
    assert main(["nf", "--n", "25", w12, "--cert", str(cert)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: a push took more than 4094 RL steps\n"
    assert not cert.exists()


def test_xi_cert_for_hook_words(tmp_path):
    cert = tmp_path / "e.cert"
    code, out, _ = run_cli("nf", "--n", "5", "E1 E2 E1", "--cert", str(cert))
    assert code == 0 and out == "x=(1) y=(1)\n"
    assert cert.read_text().startswith("n=5; family=Xi\n")
    code, out, _ = run_cli("check-cert", str(cert), "--n", "5", "E1 E2 E1")
    assert code == 0


@pytest.mark.parametrize("word", ["R2 L2", "E1 E2 E1", "1", "L1 R1 L2"])
def test_a_certificate_checks_against_the_word_it_certifies(word, tmp_path):
    cert = str(tmp_path / "f.cert")
    assert run_cli("nf", "--n", "5", word, "--cert", cert)[0] == 0
    assert run_cli("check-cert", cert, "--n", "5", word)[0] == 0


@pytest.mark.parametrize("word", ["E1 L2", "L3 E1 R2"])
def test_nf_cert_refuses_a_word_mixing_the_alphabets(word, tmp_path):
    # neither presentation has both E and L/R letters, so no certificate
    # can start at the word
    cert = tmp_path / "f.cert"
    code, out, err = run_cli("nf", "--n", "5", word, "--cert", str(cert))
    assert (code, out) == (2, "")
    assert "E1" in err
    assert not cert.exists()


def test_alg_element_output():
    code, out, _ = run_cli("alg", "--n", "5", "E4 E4", "--delta", "2")
    assert code == 0
    assert out == ("delta=2; n=5;\n"
                   "2 * n=5; blocks=(1,-1)(2,-2)(3,-3)(4,5)(-5,-4)\n")


def test_doc_format_is_json():
    code, out, _ = run_cli("nf", "--n", "9", "L5 L3 L2 R1 R4 R7",
                           "--format", "doc")
    assert code == 0
    doc = json.loads(out)
    assert doc["x"] == [5, 3, 2] and doc["y"] == [7, 4, 1]
    code, out, _ = run_cli("eval", "--n", "5", "E4 E4", "--format", "doc")
    doc = json.loads(out)
    assert doc["m"] == 1 and doc["tangle"]["n"] == 5


def test_verify_exit_codes():
    code, out, _ = run_cli("verify", "3", "--fuzz", "25", "--seed", "1")
    assert code == 0
    assert "result: pass" in out


def test_render_smoke():
    code, out, _ = run_cli("render", ALPHA)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == [str(i) for i in range(1, 10)]
    assert "strings: 1-3' 8-6' 9-9'" in out
    assert lines[-1].split() == [f"{i}'" for i in range(1, 10)]


def _drawn_arcs(line, cw):
    # the arcs a rendered row draws, as point pairs, each a bracket pair at
    # its points' columns joined by dashes
    cols = [c for c, ch in enumerate(line) if ch in "[]"]
    assert "".join(line[c] for c in cols) == "[]" * (len(cols) // 2)
    assert all(c % cw == 0 for c in cols)
    arcs = set(zip(cols[::2], cols[1::2]))
    assert all(line[x + 1:y] == "-" * (y - x - 1) for x, y in arcs)
    return {(x // cw + 1, y // cw + 1) for x, y in arcs}


def _by_depth(arcs):
    # row d: the arcs that exactly d arcs of the same side enclose
    rows = {}
    for a, b in arcs:
        d = sum(c < a and b < e for c, e in arcs)
        rows.setdefault(d, set()).add((a, b))
    return [rows[d] for d in sorted(rows)]


def test_render_rows_read_back_as_the_arcs_by_depth():
    # every tangle up to n = 7: the rows above the through line or legend
    # draw the upper arcs, those below it the lower arcs, and an arc is in
    # row d counted away from its label row exactly when d arcs enclose it
    for n in range(1, 8):
        cw = len(str(n)) + 2
        for t in enumerate_TL(n):
            upper = {(u, v) for u, v in t.blocks if u > 0 and v > 0}
            lower = {(-v, -u) for u, v in t.blocks if u < 0 and v < 0}
            through = n - len(upper) - len(lower)
            up, low = _by_depth(upper), _by_depth(lower)
            lines = render_tangle(t).splitlines()
            assert len(lines) == 2 + len(up) + (through > 0) + len(low)
            assert lines[0].split() == [str(i) for i in range(1, n + 1)]
            assert lines[-1].split() == [f"{i}'" for i in range(1, n + 1)]
            assert [_drawn_arcs(ln, cw) for ln in lines[1:1 + len(up)]] == up
            assert [_drawn_arcs(ln, cw)
                    for ln in lines[-2:-2 - len(low):-1]] == low
            if through:
                mid = lines[1 + len(up)]
                assert mid.startswith("strings: ") or set(mid) <= {"|", " "}


def test_usage_errors_exit_two(tmp_path):
    code, _, err = run_cli("nf", "--n", "5", "L9 bogus")
    assert code == 2 and "bogus" in err
    code, _, err = run_cli("nf", "L1")
    assert code == 2
    code, _, _ = run_cli("frobnicate")
    assert code == 2
    cert = tmp_path / "s.cert"
    cert.write_text("n=5; family=Sigma\nend=L1\n")
    code, _, err = run_cli("check-cert", str(cert), "--n", "5", "L1")
    assert code == 2 and "bad derivation header" in err
    cert.write_text("n=2; family=Omega\nend=1\n")
    code, _, err = run_cli("check-cert", str(cert), "--n", "2", "1")
    assert code == 2 and "presentations need n >= 3" in err


# every command that takes `--n` refuses a degree below 1 by the one rule
@pytest.mark.parametrize("argv", [
    ["eval", "1"], ["nf", "1"], ["eq", "1", "1"], ["build", "()", "()"],
    ["alg", "1", "--delta", "2"], ["check-cert", "CERT", "1"],
], ids=lambda argv: argv[0])
def test_a_degree_below_one_is_refused(argv, tmp_path):
    cert = tmp_path / "zero.cert"
    cert.write_text("n=0; family=Omega\nend=1\n")
    argv = [str(cert) if a == "CERT" else a for a in argv]
    code, out, err = run_cli(*argv, "--n", "0")
    assert (code, out) == (2, "")
    assert err == "error: degree must be a positive integer, got 0\n"


# every integer is read only in the spelling `str(int)` gives
@pytest.mark.parametrize("argv, token", [
    (["build", "--n", "5", "(+5, 3,2)", "()"], "'(+5, 3,2)'"),
    (["build", "--n", "5", "(3)", "(03)"], "'(03)'"),
    (["build", "--n", "5", "(\u0663)", "(3)"], "'(\u0663)'"),
    (["nf", "--n", "12", "L03 R2"], "'L03'"),
    (["eq", "--n", "12", "L1", "L\u0663"], "'L\u0663'"),
    (["eval", "--n", "5", "L\u00b2"], "'L\u00b2'"),
    (["render", "n=02; blocks=(1,2)(-1,-2)"], "'n=02'"),
    # integer options and `--delta`, which argparse refuses
    (["nf", "--n", "05", "L1 R2"], "'05'"),
    (["nf", "--n", "+5", "L1 R2"], "'+5'"),
    (["nf", "--n", "\u0665", "L1 R2"], "'\u0665'"),
    (["nf", "--n", "5_0", "L1 R2"], "'5_0'"),
    (["eq", "--n", " 5", "L1", "L1"], "' 5'"),
    (["enumerate", "04"], "'04'"),
    (["verify", "03"], "'03'"),
    (["verify", "3", "--fuzz", "05"], "'05'"),
    (["verify", "3", "--fuzz", "4", "--seed", "+1"], "'+1'"),
    (["verify", "3", "--fuzz", "4", "--max-len", "1_0"], "'1_0'"),
    (["alg", "--n", "5", "E4", "--delta", "+2"], "'+2'"),
    (["alg", "--n", "5", "E4", "--delta", "1/\u0663"], "'1/\u0663'"),
])
def test_non_canonical_integers_exit_two_naming_the_token(argv, token,
                                                          capsys):
    from tlmonoid import cli
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and token in err


def test_build_reads_space_around_tuple_entries():
    code, out, _ = run_cli("build", "--n", "9", "( 5, 3 ,2 )", "(7,4,1)")
    assert (code, out.strip()) == (0, ALPHA)


def test_unexpected_exception_exits_four(monkeypatch, capsys):
    from tlmonoid import cli

    def boom(args):
        raise RuntimeError("simulated failure")

    monkeypatch.setattr(cli, "_cmd_eval", boom)
    assert cli.main(["eval", "--n", "5", "L1"]) == cli.INTERNAL_ERROR == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: simulated failure\n"


def test_determinism_of_nf_and_verify():
    args = ("verify", "4", "--fuzz", "40", "--seed", "11")
    outs = {run_cli(*args)[1] for _ in range(2)}
    assert len(outs) == 1
    outs = {run_cli("nf", "--n", "7", "R2 L3 E1 R5")[1] for _ in range(2)}
    assert len(outs) == 1


def main_in_process(argv, capsys):
    """(exit code, stdout) of `cli.main`, also when argparse exits."""
    from tlmonoid import cli
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["mul", "{a}", "{a}", "--n", "9"],
    ["dagger", "{a}", "--n", "9"],
    ["factorize", "{a}", "--n", "9"],
    ["enumerate", "4", "--n", "4"],
    ["verify", "4", "--n", "4"],
    ["render", ALPHA, "--n", "9"],
    ["render", ALPHA, "--format", "text"],
    ["check-cert", "{cert}", "--n", "5", "R2 L2", "--format", "text"],
    ["nf", "L1"],
    ["build", "(1)", "(1)"],
])
def test_dropped_and_missing_options_exit_two(argv, tmp_path, capsys):
    # the files exist, so only the option itself can be refused
    paths = {"a": str(tmp_path / "a.tl"), "cert": str(tmp_path / "d.cert")}
    (tmp_path / "a.tl").write_text(ALPHA + "\n")
    main_in_process(["nf", "--n", "5", "R2 L2", "--cert", paths["cert"]],
                    capsys)
    argv = [a.format(**paths) for a in argv]
    assert main_in_process(argv, capsys) == (2, "")


@pytest.mark.parametrize("argv", [
    ["alg", "--n", "5", "E4 E4", "--delta", "1/0"],
    ["verify", "3", "--fuzz", "-5"],
    ["verify", "3", "--fuzz", "4", "--max-len", "-1"],
])
def test_bad_numbers_exit_two_before_any_output(argv, capsys):
    assert main_in_process(argv, capsys) == (2, "")


@pytest.mark.parametrize("argv", [
    ["eval", "--n", "10000000", "1"],
    ["nf", "--n", "1000001", "L1"],
])
def test_a_degree_above_the_bound_exits_two_before_the_command_runs(
        argv, monkeypatch, capsys):
    from tlmonoid import cli

    def boom(args):
        raise AssertionError("the command ran")   # would exit 4

    monkeypatch.setattr(cli, f"_cmd_{argv[0]}", boom)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: degree must be at most 1000000, got {argv[2]}\n")


def _random_word(rng, n, alphabet):
    return " ".join(f"{rng.choice(alphabet)}{rng.randint(1, n - 1)}"
                    for _ in range(rng.randint(0, 12))) or "1"


def test_nf_and_eq_from_the_diagram_agree_with_rewriting(capsys):
    # without --cert, nf and eq read their answers off the diagram; the
    # rewriting normal forms must give the same fields and verdicts.  A word
    # mixing E with L/R letters is certified by neither presentation, so
    # its reference is the normal form of its lift E_i -> L_i R_i
    from tlmonoid import (certify, equal_words, hooks_to_pairs,
                          word_from_text, word_to_text)

    def unmixed(w):
        mixed = "E" in w.alphabets() and len(w.alphabets()) > 1
        return hooks_to_pairs(w) if mixed else w

    rng = random.Random(12)
    verdicts = set()
    for _ in range(150):
        n = rng.randint(3, 9)
        alphabet = rng.choice(["LR", "LRE", "E"])
        text = _random_word(rng, n, alphabet)
        w = word_from_text(n, text)
        nf, d = certify(unmixed(w))
        canonical = d.end_word()
        code, out = main_in_process(
            ["nf", "--n", str(n), text, "--format", "doc"], capsys)
        assert code == 0
        assert json.loads(out) == {
            "x": list(nf.x.entries), "y": list(nf.y.entries),
            "word": word_to_text(nf.word),
            "canonical": word_to_text(canonical)}
        for other in (word_to_text(canonical),
                      _random_word(rng, n, alphabet)):
            equal = equal_words(unmixed(w),
                                unmixed(word_from_text(n, other))).equal
            code, out = main_in_process(["eq", "--n", str(n), text, other],
                                        capsys)
            assert (code, out.splitlines()[0]) == (
                (0, "equal") if equal else (1, "not-equal"))
            verdicts.add(equal)
    assert verdicts == {True, False}


def test_eq_and_nf_without_cert_do_not_rewrite(monkeypatch, capsys):
    # W_24 = R1 R3 ... R47 L1 has an exponentially long certificate, and
    # pushing L2500 through 1,200 rho letters is too deep to rewrite
    from tlmonoid import cli

    def refuse(*args):
        raise AssertionError("rewriting without --cert")

    monkeypatch.setattr(cli, "certify", refuse)
    w24 = " ".join(f"R{i}" for i in range(1, 48, 2)) + " L1"
    assert main_in_process(["eq", "--n", "49", w24, w24], capsys) == (
        0, "equal\n")
    code, out = main_in_process(["nf", "--n", "49", w24], capsys)
    assert (code, out) == (0, "x=(" + ",".join(map(str, range(48, 0, -2)))
                           + ") y=(48," + ",".join(map(str, range(45, 0, -2)))
                           + ")\n")
    deep = " ".join(f"R{i}" for i in range(1, 2400, 2)) + " L2500"
    code, out = main_in_process(["eq", "--n", "2501", deep, "L1"], capsys)
    assert code == 1 and out.startswith("not-equal\n")
    assert main_in_process(["eq", "--n", "2", "1", "1"], capsys) == (2, "")
