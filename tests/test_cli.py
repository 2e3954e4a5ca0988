import argparse
import os
import resource
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hyperhaar import FiniteHypergroup, cli, fileio
from hyperhaar.cli import build_parser, main
from hyperhaar.core import AXIOM_TOL, validate
from hyperhaar.fileio import parse_hypergroup, serialize_hypergroup
from hyperhaar.oracles import _FAMILIES, cosine_grid_hypergroup, cyclic_hypergroup, theta_hypergroup

from conftest import dense


@pytest.fixture
def theta_file(tmp_path):
    path = tmp_path / "theta.hg"
    path.write_text(serialize_hypergroup(theta_hypergroup(0.5)))
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    h = cyclic_hypergroup(4)
    c = dense(h)
    c[1, 1, 2] = 0.9
    path = tmp_path / "broken.hg"
    path.write_text(serialize_hypergroup(FiniteHypergroup(4, 0, h.inv, c)))
    return str(path)


def test_validate_ok(theta_file, capsys):
    assert main(["validate", theta_file]) == 0
    out = capsys.readouterr().out
    assert "H6: pass" in out


def test_validate_broken_exits_nonzero(broken_file, capsys):
    assert main(["validate", broken_file]) == 1
    out = capsys.readouterr().out
    assert "H1 row-stochastic: FAIL" in out
    assert "associativity: FAIL" in out


def test_validate_sparse_path_prints_int_witness(tmp_path, capsys):
    # n = 128 takes the sparse associativity path; H1 still holds
    text = serialize_hypergroup(cosine_grid_hypergroup(128))
    text = text.replace("c 1 1 0 0.5\n", "c 1 1 0 0.75\n").replace("c 1 1 2 0.5\n", "c 1 1 2 0.25\n")
    path = tmp_path / "grid128.hg"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "H1 row-stochastic: pass" in out
    assert "associativity: FAIL worst=3.750e-01 witness=(1, 1, 2, 2)" in out
    assert [line for line in out if "FAIL" in line] == [out[-1]]


def test_haar_methods_agree(theta_file, capsys):
    rows = {}
    for method in ("net", "jewett", "solve"):
        assert main(["haar", theta_file, "--method", method]) == 0
        w = np.array([float(x) for x in capsys.readouterr().out.split()])
        rows[method] = w / w.sum()
    np.testing.assert_allclose(rows["net"], rows["jewett"], atol=1e-12)
    np.testing.assert_allclose(rows["net"], rows["solve"], atol=1e-10)
    np.testing.assert_allclose(rows["solve"], [1 / 3, 2 / 3], atol=1e-10)


def test_haar_dirac_f0_and_trace(theta_file, tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    assert main(["haar", theta_file, "--method", "net", "--f0", "dirac:0",
                 "--trace", str(trace_path)]) == 0
    w = np.array([float(x) for x in capsys.readouterr().out.split()])
    np.testing.assert_allclose(w, [1.0, 2.0], atol=1e-12)
    lines = trace_path.read_text().strip().splitlines()
    assert lines[0].startswith("step,|U|")
    assert len(lines) >= 2


def test_haar_custom_mu0(theta_file, tmp_path, capsys):
    mu0_path = tmp_path / "mu0.txt"
    mu0_path.write_text("0.7 2.3\n")
    assert main(["haar", theta_file, "--method", "net", "--mu0", str(mu0_path)]) == 0
    w = np.array([float(x) for x in capsys.readouterr().out.split()])
    np.testing.assert_allclose(w / w.sum(), [1 / 3, 2 / 3], atol=1e-10)


def test_compare_ok(theta_file, capsys):
    assert main(["compare", theta_file]) == 0
    out = capsys.readouterr().out
    assert "net:" in out and "jewett:" in out and "solve:" in out
    assert "invariance residual" in out


def test_gen_round_trips_through_validate(tmp_path, capsys):
    out_path = tmp_path / "gen.hg"
    assert main(["gen", "--family", "cosine-grid", "--param", "5",
                 "-o", str(out_path)]) == 0
    assert main(["validate", str(out_path), "--tol", "1e-12"]) == 0


def test_gen_to_stdout(capsys):
    assert main(["gen", "--family", "cyclic", "--param", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("hypergroup v1\nn 3\n")


def test_gen_product(tmp_path, capsys):
    out_path = tmp_path / "prod.hg"
    assert main(["gen", "--family", "product", "--param", "cyclic:2,theta2:0.5",
                 "-o", str(out_path)]) == 0
    assert main(["compare", str(out_path)]) == 0


def test_gen_family_choices_are_the_builders(capsys):
    with pytest.raises(SystemExit):
        main(["gen", "--help"])
    # argparse prints the choices as one unbroken {a,b,...} group
    assert "{" + ",".join(_FAMILIES) + "}" in capsys.readouterr().out


class TestParserBuiltOnce:
    """main builds its argparse tree once per process; one call leaves nothing
    behind in it for the next."""

    def test_one_tree(self):
        assert build_parser() is build_parser()

    def test_trace_flag_does_not_carry_over(self, theta_file, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        assert main(["haar", theta_file, "--method", "net", "--trace", str(trace)]) == 0
        trace.unlink()
        assert main(["haar", theta_file, "--method", "jewett"]) == 0
        assert main(["haar", theta_file, "--method", "net"]) == 0
        assert not trace.exists()

    def test_tol_does_not_carry_over(self, tmp_path, capsys):
        # H1 is off by 1e-6: a pass at --tol 1, a failure at AXIOM_TOL
        text = serialize_hypergroup(theta_hypergroup(0.5)).replace(
            "c 1 1 0 0.5\n", "c 1 1 0 0.500001\n")
        path = tmp_path / "off.hg"
        path.write_text(text)
        h = parse_hypergroup(text)
        main(["validate", str(path), "--tol", "1"])
        loose = capsys.readouterr().out
        assert loose == validate(h, 1.0).summary() + "\n"
        assert "H1 row-stochastic: pass" in loose
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == validate(h, AXIOM_TOL).summary() + "\n"

    def test_usage_error_then_valid_command(self, theta_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["haar", theta_file, "--method", "lstsq"])
        assert exc.value.code == 2
        assert main(["validate", theta_file]) == 0

    def test_gen_help_unchanged(self, theta_file, capsys):
        def gen_help():
            with pytest.raises(SystemExit) as exc:
                main(["gen", "--help"])
            assert exc.value.code == 0
            return capsys.readouterr().out

        first = gen_help()
        assert main(["gen", "--family", "cyclic", "--param", "3"]) == 0
        assert main(["haar", theta_file, "--method", "solve"]) == 0
        capsys.readouterr()
        fresh = build_parser.__wrapped__()  # a tree no call has used
        with pytest.raises(SystemExit):
            fresh.parse_args(["gen", "--help"])
        assert capsys.readouterr().out == first == gen_help()


# one small parameter per family gen knows
SMALL_PARAMS = {"cyclic": "3", "theta2": "0.5", "conj-class": "s3", "cosine-grid": "3",
                "product": "cyclic:2,theta2:0.5"}


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_gen_every_family_validates(tmp_path, family, capsys):
    out_path = tmp_path / f"{family}.hg"
    assert main(["gen", "--family", family, "--param", SMALL_PARAMS[family],
                 "-o", str(out_path)]) == 0
    assert main(["validate", str(out_path)]) == 0


def test_check_lemmas(theta_file, capsys):
    assert main(["check-lemmas", theta_file, "--seed", "7", "--trials", "50"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "terminal reconstruction gap: pass" in out


@pytest.fixture
def z4_file(tmp_path):
    path = tmp_path / "z4.hg"
    path.write_text(serialize_hypergroup(cyclic_hypergroup(4)))
    return str(path)


def run_cli(*argv, cap=None, stdin=None, stdout=subprocess.PIPE):
    """The CLI in a fresh interpreter, as a user runs it; with cap, its address
    space is limited to cap bytes (RLIMIT_AS) and BLAS runs one thread; stdin
    is the text written to its standard input, a pipe; stdout is where its
    standard output goes, captured by default."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    limit = None
    if cap is not None:
        env["OPENBLAS_NUM_THREADS"] = "1"

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    return subprocess.run([sys.executable, "-m", "hyperhaar.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=120,
                          preexec_fn=limit, input=stdin)


@pytest.mark.parametrize("method", ["jewett", "solve"])
def test_document_on_standard_input(z4_file, method):
    """A document piped to /dev/stdin is read once, as the file is read."""
    proc = run_cli("haar", "/dev/stdin", "--method", method, stdin=Path(z4_file).read_text())
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run_cli("haar", z4_file, "--method", method).stdout


def test_form_feed_in_an_entry_is_one_line_diagnosis(tmp_path):
    """str.splitlines breaks a line at a form feed, which numpy's reader takes
    for a space: the line-by-line reader refuses the document."""
    path = tmp_path / "formfeed.hg"
    path.write_text("hypergroup v1\nn 2\ne 0\ninv 0 1\nc 0 0 0 1\nc 0 1 1 1\nc 1 0 1 1\n"
                    "c 1 1\f0 1\n")
    proc = run_cli("validate", str(path))
    assert proc.returncode == 1
    assert proc.stderr.strip().splitlines() == [
        f"hypergroup file {path}: line 8: 'c' line has 2 fields, expected 4"]


@pytest.mark.parametrize("weights,message", [
    ("1 2 3", "3 weights, expected n=4"),
    ("1 -2 3 1", "weights must be positive"),
    ("inf 1 1 1", "weights must be finite"),
])
def test_bad_mu0_is_one_line_diagnosis(z4_file, tmp_path, weights, message):
    mu0_path = tmp_path / "mu0.txt"
    mu0_path.write_text(weights + "\n")
    proc = run_cli("haar", z4_file, "--method", "net", "--mu0", str(mu0_path))
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [f"mu0 file {mu0_path}: {message}"]


@pytest.mark.parametrize("spec", ["dirac:9", "dirac:x"])
def test_bad_f0_is_one_line_diagnosis(z4_file, spec):
    proc = run_cli("haar", z4_file, "--method", "net", "--f0", spec)
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [
        f"f0 spec {spec!r}: the point must be an integer in 0..3"]


@pytest.mark.parametrize("argv", [
    ("validate",),
    ("haar", "--method", "solve"),
    ("compare",),
    ("check-lemmas",),
])
def test_missing_document_is_one_line_diagnosis(tmp_path, argv):
    missing = tmp_path / "missing.hg"
    proc = run_cli(argv[0], str(missing), *argv[1:])
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [
        f"hypergroup file {missing}: [Errno 2] No such file or directory: '{missing}'"]


@pytest.mark.parametrize("argv", [
    ("validate",),
    ("haar", "--method", "solve"),
    ("compare",),
    ("check-lemmas",),
])
@pytest.mark.parametrize("text,message", [
    ("hypergroup v1\nn x\n", "line 2: invalid literal for int() with base 10: 'x'"),
    ("hypergroup v1\nn 2\ne 0\ninv 0 0\nc 0 0 0 1\n", "involution is not a permutation"),
], ids=["parse-error", "inconsistent"])
def test_bad_document_is_one_line_diagnosis(tmp_path, argv, text, message):
    path = tmp_path / "bad.hg"
    path.write_text(text)
    proc = run_cli(argv[0], str(path), *argv[1:])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [f"hypergroup file {path}: {message}"]


@pytest.mark.parametrize("argv", [
    ("validate",),
    ("haar", "--method", "net"),
    ("haar", "--method", "jewett"),
    ("haar", "--method", "solve"),
    ("compare",),
    ("check-lemmas",),
], ids=["validate", "net", "jewett", "solve", "compare", "check-lemmas"])
def test_non_finite_value_is_one_line_diagnosis(tmp_path, argv):
    path = tmp_path / "nan.hg"
    path.write_text("hypergroup v1\nn 2\ne 0\ninv 0 1\nc 0 0 0 1\nc 0 1 1 1\n"
                    "c 1 0 1 1\nc 1 1 0 nan\nc 1 1 1 0.5\n")
    proc = run_cli(argv[0], str(path), *argv[1:])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [
        f"hypergroup file {path}: line 8: value 'nan' is not finite"]
    assert proc.stdout == ""


def test_undecodable_document_is_one_line_diagnosis(tmp_path):
    path = tmp_path / "binary.hg"
    path.write_bytes(b"hypergroup v1\n\xff\xfe\n")
    proc = run_cli("validate", str(path))
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    # the decoder's wording depends on the locale's encoding
    [line] = proc.stderr.strip().splitlines()
    assert line.startswith(f"hypergroup file {path}: ") and "decode" in line


def test_missing_group_table_is_one_line_diagnosis(tmp_path):
    missing = tmp_path / "table.txt"
    proc = run_cli("gen", "--family", "conj-class", "--param", str(missing))
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [
        f"gen --param {missing}: [Errno 2] No such file or directory: '{missing}'"]


@pytest.mark.parametrize("family,param,table,message", [
    ("cyclic", "0", None, "n must be at least 1"),
    ("cyclic", "x", None, "invalid literal for int() with base 10: 'x'"),
    ("theta2", "2", None, "theta must lie in (0, 1]"),
    ("conj-class", "table.txt", "0 1 2\n1 0 0\n2 0 0\n", "group table not associative at (1, 1)"),
    ("conj-class", "table.txt", "0 1\n1\n",
     "setting an array element with a sequence. The requested array has an inhomogeneous "
     "shape after 1 dimensions. The detected shape was (2,) + inhomogeneous part."),
    ("conj-class", "table.txt", "0 1\n1 x\n", "invalid literal for int() with base 10: 'x'"),
    ("product", "cyclic,cyclic", None,
     "product parameter must be '<family>:<param>,<family>:<param>'"),
], ids=["cyclic-0", "cyclic-x", "theta2-2", "table-malformed", "table-ragged", "table-x",
        "product-no-params"])
def test_bad_gen_param_is_one_line_diagnosis(tmp_path, family, param, table, message):
    if table is not None:
        param = str(tmp_path / param)
        Path(param).write_text(table)
    out = tmp_path / "out.hg"
    proc = run_cli("gen", "--family", family, "--param", param, "-o", str(out))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [f"gen --param {param}: {message}"]
    assert not out.exists()


def test_non_ascii_entry_is_one_line_diagnosis(tmp_path):
    path = tmp_path / "underscore.hg"
    path.write_text("hypergroup v1\nn 2\ne 0\ninv 0 1\nc 0 0 1_0 1\n")
    proc = run_cli("validate", str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [
        f"hypergroup file {path}: line 5: index '1_0' must be written in ASCII digits "
        "without underscores"]


# theta = 0: dirac_1 * dirac_1 = dirac_1, so (dirac_1 * dirac_1)(e) = 0 (H6 fails)
THETA0_DOC = "hypergroup v1\nn 2\ne 0\ninv 0 1\nc 0 0 0 1\nc 0 1 1 1\nc 1 0 1 1\nc 1 1 1 1\n"
# every left translation is the identity map: the invariance nullspace is 2-d
IDENTITY_TRANSLATIONS_DOC = ("hypergroup v1\nn 2\ne 0\ninv 0 1\n"
                             "c 0 0 0 1\nc 1 0 0 1\nc 0 1 1 1\nc 1 1 1 1\n")
# c[1] is not row-stochastic; the mass-one invariance solution is (2, -1)
NEGATIVE_DOC = ("hypergroup v1\nn 2\ne 0\ninv 0 1\n"
                "c 0 0 0 1\nc 0 1 1 1\nc 1 0 0 1.5\nc 1 1 0 1\nc 1 1 1 1\n")
# dirac_1 * dirac_e != dirac_1 (H4 fails): the chain runs, but its limit is not invariant
NOT_INVARIANT_DOC = ("hypergroup v1\nn 2\ne 0\ninv 0 1\nc 0 0 0 1\nc 0 1 1 1\n"
                     "c 1 0 0 0.2\nc 1 0 1 0.8\nc 1 1 0 0.5\nc 1 1 1 0.5\n")
# Z3 with four masses at 1e308 (not a hypergroup): ||A||_F and the block sum
# overflow, and an SVD of that block sum does not return
HANG_DOC = ("hypergroup v1\nn 3\ne 0\ninv 0 2 1\nc 0 0 0 1e308\nc 0 1 1 1e308\nc 0 2 2 1\n"
            "c 1 0 0 1e308\nc 1 0 1 1\nc 1 1 2 1\nc 1 2 0 1\nc 2 0 2 1\nc 2 1 0 1\n"
            "c 2 1 1 1e308\nc 2 2 1 1\n")
# Z3 with c[0, 1, 1] = 1e308 and an added c[1, 1, 1] = 1e308: the net's first
# denominator overflows too
OVERFLOW_DOC = ("hypergroup v1\nn 3\ne 0\ninv 0 2 1\nc 0 0 0 1\nc 0 1 1 1e308\nc 0 2 2 1\n"
                "c 1 0 1 1\nc 1 1 1 1e308\nc 1 1 2 1\nc 1 2 0 1\nc 2 0 2 1\nc 2 1 0 1\n"
                "c 2 2 1 1\n")
OVERFLOW_REFUSAL = ("DegenerateNullspace: the invariance operator overflows: ||A||_F is not "
                    "finite, so its nullspace cannot be decided")
# Z3's table with inv a three-cycle (1 2 0): a permutation, but not an involution
THREE_CYCLE_DOC = ("hypergroup v1\nn 3\ne 0\ninv 1 2 0\n" + "".join(
    f"c {s} {t} {(s + t) % 3} 1\n" for s in range(3) for t in range(3)))
# the same table with inv swapping the identity 0 and 1
MOVED_IDENTITY_DOC = THREE_CYCLE_DOC.replace("inv 1 2 0", "inv 1 0 2")


@pytest.mark.parametrize("doc,argv,message", [
    (THETA0_DOC, ("haar", "--method", "net"), "NoCover: no translate of f0 reaches point 1"),
    (THETA0_DOC, ("compare",), "NoCover: no translate of f0 reaches point 1"),
    (THETA0_DOC, ("haar", "--method", "jewett"),
     "H6Violation: (dirac_1 * dirac_1)(e) = 0.0 <= 0"),
    (THETA0_DOC, ("check-lemmas",), "ZeroDenominator: (mu0 * g)(1) = 0.0 <= 0"),
    (IDENTITY_TRANSLATIONS_DOC, ("haar", "--method", "solve"),
     "DegenerateNullspace: invariance nullspace has dimension 2, expected 1 (threshold "
     "1e-08*sigma_hat = 0.000e+00; smallest singular values of the reduced operator "
     "0.000e+00, 0.000e+00)"),
    (NEGATIVE_DOC, ("haar", "--method", "solve"),
     "NegativeSolution: weight 1 is -1, below -tol (tol = 1e-09)"),
    (HANG_DOC, ("haar", "--method", "solve"), OVERFLOW_REFUSAL),
    (OVERFLOW_DOC, ("haar", "--method", "solve"), OVERFLOW_REFUSAL),
    (NOT_INVARIANT_DOC, ("haar", "--method", "net"),
     "NotConverged: invariance residual 1.176e-01 above 1.000e-10 after exhausting the chain"),
    (THREE_CYCLE_DOC, ("haar", "--method", "net"),
     "NoChain: neighborhood 1 is not involution-stable"),
    (THREE_CYCLE_DOC, ("compare",), "NoChain: neighborhood 1 is not involution-stable"),
    (THREE_CYCLE_DOC, ("check-lemmas", "--trials", "5"),
     "NoChain: neighborhood 1 is not involution-stable"),
    (MOVED_IDENTITY_DOC, ("haar", "--method", "net"),
     "NoChain: neighborhood 2 does not contain the identity"),
    (MOVED_IDENTITY_DOC, ("compare",), "NoChain: neighborhood 2 does not contain the identity"),
    (MOVED_IDENTITY_DOC, ("check-lemmas", "--trials", "5"),
     "NoChain: neighborhood 2 does not contain the identity"),
], ids=["net-NoCover", "compare-NoCover", "jewett-H6Violation", "lemmas-ZeroDenominator",
        "solve-DegenerateNullspace", "solve-NegativeSolution",
        "solve-DegenerateNullspace-hang", "solve-DegenerateNullspace-overflow", "net-NotConverged",
        "net-NoChain", "compare-NoChain", "lemmas-NoChain",
        "net-NoChain-identity", "compare-NoChain-identity", "lemmas-NoChain-identity"])
def test_refusal_is_one_line_diagnosis(tmp_path, doc, argv, message):
    path = tmp_path / "refused.hg"
    path.write_text(doc)
    proc = run_cli(argv[0], str(path), *argv[1:])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [f"hypergroup file {path}: {message}"]
    assert proc.stdout == ""


@pytest.mark.parametrize("big", ["1e300", "1.7e308"])
def test_overflow_is_inf_without_warnings(tmp_path, big):
    # 1e300 squared overflows the associativity products; 1.7e308 doubled, H1's row sum too
    path = tmp_path / "overflow.hg"
    path.write_text("hypergroup v1\nn 2\ne 0\ninv 0 1\nc 0 0 0 1\nc 0 1 1 1\n"
                    f"c 1 0 1 1\nc 1 1 0 {big}\nc 1 1 1 {big}\n")
    proc = run_cli("validate", str(path))
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert "associativity: FAIL worst=inf witness=(1, 1, 1, 0)" in proc.stdout.splitlines()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_lemmas_overflow_fails_without_warnings(tmp_path, capsys):
    # three entries of Z4 at 1e300: the suites' products overflow to inf and nan
    c = dense(cyclic_hypergroup(4))
    c[1, 1, 2] = c[2, 2, 0] = c[3, 3, 2] = 1e300
    path = tmp_path / "overflow.hg"
    path.write_text(serialize_hypergroup(FiniteHypergroup(4, 0, [0, 3, 2, 1], c)))
    assert main(["check-lemmas", str(path), "--trials", "20"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 11
    assert "(mu*nu)*f = mu*(nu*f): FAIL worst=inf" in lines
    assert "terminal sandwich ratio: FAIL worst=inf" in lines


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("doc", [HANG_DOC, OVERFLOW_DOC], ids=["hang", "overflow"])
@pytest.mark.parametrize("argv", [
    ("haar", "--method", "net"),
    ("haar", "--method", "jewett"),
    ("haar", "--method", "solve"),
    ("compare",),
], ids=["net", "jewett", "solve", "compare"])
def test_overflowing_document_writes_no_warning(tmp_path, capsys, doc, argv):
    path = tmp_path / "overflow.hg"
    path.write_text(doc)
    try:
        main([argv[0], str(path), *argv[1:]])
    except SystemExit as exc:
        assert exc.code.startswith(f"hypergroup file {path}: ") and "\n" not in exc.code
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ("validate", "{doc}"),
    ("haar", "{doc}", "--method", "net"),
    ("compare", "{doc}"),
    ("check-lemmas", "{doc}", "--trials", "5"),
    ("gen", "--family", "cyclic", "--param", "4"),
], ids=["validate", "haar", "compare", "check-lemmas", "gen"])
def test_closed_stdout_is_one_line_diagnosis(z4_file, monkeypatch, argv, buffered):
    """A write to a pipe whose reader has exited fails, in print or in the
    final flush, whenever the command makes it."""
    if buffered:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    else:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_cli(*(a.format(doc=z4_file) for a in argv), stdout=write)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"{argv[0]}: [Errno 32] Broken pipe"]


def test_usage_error_exits_2(z4_file):
    proc = run_cli("haar", z4_file, "--method", "lstsq")
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


def _assert_one_line_refusal(proc, line):
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [line]
    assert proc.stdout == ""


# The dense tensor of cyclic 512 is 1 GiB, so it cannot be formed under this
# address-space cap: validate's n^3 associativity accumulator is refused, while
# every route of haar, compare and check-lemmas, which read c's entries or its
# bounded slabs, fit under it.
_CAP = 2 ** 30


@pytest.fixture(scope="module")
def cyclic512_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("capped") / "cyclic512.hg"
    path.write_text(serialize_hypergroup(cyclic_hypergroup(512)))
    return str(path)


@pytest.mark.parametrize("argv", [("validate",)], ids=["validate"])
def test_unallocatable_document_is_one_line_diagnosis(cyclic512_file, argv):
    proc = run_cli(argv[0], cyclic512_file, *argv[1:], cap=_CAP)
    [line] = proc.stderr.strip().splitlines()
    assert line.startswith(f"hypergroup file {cyclic512_file}: Unable to allocate 1.00 GiB")
    _assert_one_line_refusal(proc, line)


def test_check_lemmas_answers_under_the_cap(cyclic512_file):
    proc = run_cli("check-lemmas", cyclic512_file, "--trials", "1", cap=_CAP)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert len(lines) == 11
    assert all(": pass worst=" in line for line in lines)


@pytest.mark.parametrize("method", ["jewett", "solve", "net"])
def test_entry_routes_answer_under_the_cap(cyclic512_file, method):
    proc = run_cli("haar", cyclic512_file, "--method", method, cap=_CAP)
    assert (proc.returncode, proc.stderr) == (0, "")
    w = np.array(proc.stdout.split(), dtype=float)
    np.testing.assert_allclose(w / w.sum(), np.full(512, 1 / 512), rtol=1e-12)


def test_compare_answers_under_the_cap(cyclic512_file):
    proc = run_cli("compare", cyclic512_file, cap=_CAP)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:3]] == ["net", "jewett", "solve"]
    for line in lines[:3]:
        w = np.array(line.split()[1:], dtype=float)
        np.testing.assert_allclose(w, np.full(512, 1 / 512), rtol=1e-12)


def test_unallocatable_gen_is_one_line_diagnosis(tmp_path):
    # cyclic 10^5 has 10^10 entries; the cap refuses them on any machine
    out = tmp_path / "out.hg"
    proc = run_cli("gen", "--family", "cyclic", "--param", "100000", "-o", str(out), cap=_CAP)
    [line] = proc.stderr.strip().splitlines()
    assert line.startswith("gen --param 100000: Unable to allocate")
    _assert_one_line_refusal(proc, line)
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (("haar", "--method", "net", "--tol", "0"), "argument --tol: '0' is not a finite number > 0"),
    (("haar", "--method", "net", "--tol", "-0.5"),
     "argument --tol: '-0.5' is not a finite number > 0"),
    (("haar", "--method", "net", "--tol", "nan"),
     "argument --tol: 'nan' is not a finite number > 0"),
    (("validate", "--tol", "nan"), "argument --tol: 'nan' is not a finite number >= 0"),
    (("compare", "--tol", "-1"), "argument --tol: '-1' is not a finite number >= 0"),
    (("check-lemmas", "--trials", "-5"), "argument --trials: '-5' is not an integer >= 1"),
    (("check-lemmas", "--trials", "0"), "argument --trials: '0' is not an integer >= 1"),
    (("check-lemmas", "--seed", "-1"), "argument --seed: '-1' is not an integer >= 0"),
    (("check-lemmas", "--trials", "x"), "argument --trials: invalid int value: 'x'"),
], ids=["haar-tol-0", "haar-tol-negative", "haar-tol-nan", "validate-tol-nan",
        "compare-tol-negative", "trials-negative", "trials-0", "seed-negative", "trials-x"])
def test_out_of_range_flag_is_usage_error(z4_file, argv, message):
    proc = run_cli(argv[0], z4_file, *argv[1:])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    # argparse prints its usage block, then the one error line
    assert proc.stderr.strip().splitlines()[-1] == f"hyperhaar {argv[0]}: error: {message}"
    assert proc.stdout == ""


def test_unwritable_trace_is_one_line_diagnosis(z4_file, tmp_path):
    trace = tmp_path / "missing" / "t.csv"
    proc = run_cli("haar", z4_file, "--method", "net", "--trace", str(trace))
    _assert_one_line_refusal(
        proc, f"trace file {trace}: [Errno 2] No such file or directory: '{trace}'")


def test_unwritable_gen_output_is_one_line_diagnosis(tmp_path):
    out = tmp_path / "missing" / "x.hg"
    proc = run_cli("gen", "--family", "cyclic", "--param", "4", "-o", str(out))
    _assert_one_line_refusal(proc, f"gen -o {out}: [Errno 2] No such file or directory: '{out}'")
    assert not out.parent.exists()


def _gen_refusal(argv, capsys):
    """gen's exit message, which the interpreter prints as one stderr line; the
    command writes nothing else."""
    with pytest.raises(SystemExit) as exc:
        main(["gen", *argv])
    assert capsys.readouterr().err == ""
    assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
    return exc.value.code


class _FailingStream:
    """Passes its first `writes` writes on to out (gen's header, then one block
    each), then raises MemoryError(), as a refused allocation does."""

    def __init__(self, out, writes):
        self.out, self.writes = out, writes

    def write(self, text):
        if self.writes == 0:
            raise MemoryError()
        self.writes -= 1
        self.out.write(text)


def _fail_after(monkeypatch, writes):
    monkeypatch.setattr(cli, "write_hypergroup",
                        lambda h, out: fileio.write_hypergroup(h, _FailingStream(out, writes)))


def test_gen_out_of_memory_in_the_build_blames_the_parameter(tmp_path, monkeypatch, capsys):
    def build_family(family, param):
        raise MemoryError()
    monkeypatch.setattr(cli, "build_family", build_family)
    out = tmp_path / "out.hg"
    argv = ["--family", "cosine-grid", "--param", "1024", "-o", str(out)]
    assert _gen_refusal(argv, capsys) == "gen --param 1024: out of memory"
    assert not out.exists()


@pytest.mark.parametrize("output", [True, False], ids=["file", "stdout"])
def test_gen_out_of_memory_after_the_first_block(tmp_path, monkeypatch, capsys, output):
    monkeypatch.setattr(fileio, "_BLOCK", 4)
    _fail_after(monkeypatch, 2)
    out = tmp_path / "out.hg"
    argv = ["--family", "cyclic", "--param", "4"] + (["-o", str(out)] if output else [])
    if output:
        assert _gen_refusal(argv, capsys) == f"gen -o {out}: out of memory"
        assert list(tmp_path.iterdir()) == []  # the partial document is removed
    else:
        assert _gen_refusal(argv, capsys) == "gen: out of memory"


def test_gen_failure_leaves_a_fifo_alone(tmp_path, monkeypatch, capsys):
    _fail_after(monkeypatch, 1)
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_text()), daemon=True)
    reader.start()
    argv = ["--family", "cyclic", "--param", "4", "-o", str(fifo)]
    assert _gen_refusal(argv, capsys) == f"gen -o {fifo}: out of memory"
    reader.join(timeout=30)
    assert read == ["hypergroup v1\nn 4\ne 0\ninv 0 3 2 1\n"]
    assert fifo.is_fifo()


def test_memory_error_names_a_command_without_a_document(monkeypatch):
    def func(args):
        raise MemoryError()
    args = argparse.Namespace(command="gen", func=func)
    monkeypatch.setattr(cli, "build_parser", lambda: SimpleNamespace(parse_args=lambda argv: args))
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == "gen: out of memory"
