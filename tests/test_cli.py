import inspect
import json

import pytest

from classconv import class_algebra as ca, verify as vf
from classconv.cli import main
from classconv.partitions import Partition
from cli_pins import PINS, masked

P = lambda *parts: Partition(parts)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, want", PINS, ids=[" ".join(argv) for argv, _ in PINS])
def test_pinned_command_lines(capsys, argv, want):
    # the rows CI also runs through the installed console script
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert masked(out) == want


def test_mult_plain(capsys):
    code, out, _ = run(capsys, "mult", "--basis", "A", "--lhs", "2", "--rhs", "2")
    assert code == 0
    assert out == "1 A(1,1)\n3 A(3)\n2 A(2,2)\n"


def test_mult_truncated_and_a_basis(capsys):
    code, out, _ = run(capsys, "mult", "--basis", "A", "--lhs", "2", "--rhs", "2",
                       "--n", "3")
    assert code == 0
    assert out == "1 A(1,1)\n3 A(3)\n"
    code, out, _ = run(capsys, "mult", "--basis", "a", "--lhs", "3", "--rhs", "3")
    assert code == 0
    assert out.splitlines()[0] == "3 a(3)"
    assert "9 a(5)" in out.splitlines()


def test_mult_zero_product_prints_zero(capsys):
    # (2)*(2) has no term of size 0, so truncating at n = 0 leaves the zero vector
    code, out, _ = run(capsys, "mult", "--lhs", "2", "--rhs", "2", "--n", "0")
    assert code == 0
    assert out == "0\n"
    code, out, _ = run(capsys, "mult", "--lhs", "2", "--rhs", "2", "--n", "0", "--json")
    assert code == 0
    assert json.loads(out)["results"] == []


def test_mult_json_roundtrip(capsys):
    code, out, _ = run(capsys, "mult", "--basis", "A", "--lhs", "2", "--rhs", "2",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "mult"
    assert doc["inputs"] == {"basis": "A", "lhs": [2], "rhs": [2], "n": None}
    results = {tuple(r["partition"]): r["coeff"] for r in doc["results"]}
    assert results == {(1, 1): 1, (3,): 3, (2, 2): 2}
    # every printed partition parses back to an equal value
    for r in doc["results"]:
        text = ",".join(str(x) for x in r["partition"])
        assert Partition.from_string(text).parts == tuple(r["partition"])


def test_gconst_and_fconst(capsys):
    code, out, _ = run(capsys, "gconst", "--sigma", "2", "--tau", "2", "--rho", "3")
    assert (code, out) == (0, "3\n")
    code, out, _ = run(capsys, "fconst", "--sigma", "2", "--tau", "2", "--rho", "3")
    assert (code, out) == (0, "4\n")


def test_qpoly(capsys):
    code, out, _ = run(capsys, "qpoly", "--sigma", "3", "--tau", "3", "--rho", "3")
    assert code == 0
    assert out == "[1,3]\n3n-8\n"
    code, out, _ = run(capsys, "qpoly", "--sigma", "3", "--tau", "3", "--rho", "",
                       "--json")
    doc = json.loads(out)
    assert doc["results"] == {"coeffs": [0, 0, 0, 2], "monomial": "n^3/3-n^2+2n/3"}


def test_qpoly_rejects_nonproper(capsys):
    code, _, err = run(capsys, "qpoly", "--sigma", "2,1", "--tau", "3", "--rho", "3")
    assert code == 2 and "unit parts" in err


def test_csn_mult(capsys):
    code, out, _ = run(capsys, "csn-mult", "--sigma", "3", "--tau", "3", "--n", "4")
    assert code == 0
    assert out == "8 C()\n4 C(3)\n8 C(2,2)\n"


def test_fillings_commands(capsys):
    code, out, _ = run(capsys, "fillings-conv", "--lhs", "3,4,5,6,9;2,1,7",
                       "--rhs", "4,3,2;1,9,6;8")
    assert (code, out) == (0, "5,6,7,2;3,1;4;9;8\n")
    code, out, _ = run(capsys, "fillings-count", "--sigma", "2", "--tau", "2",
                       "--rho", "3")
    assert (code, out) == (0, "4\n")
    code, out, _ = run(capsys, "fillings-count", "--sigma", "4", "--tau", "4",
                       "--rho", "30")
    assert (code, out) == (0, "0\n")


def test_peval_sstar_feval(capsys):
    code, out, _ = run(capsys, "peval", "--rho", "2", "--lam", "2")
    assert (code, out) == (0, "2\n")
    code, out, _ = run(capsys, "sstar", "--mu", "1", "--lam", "3,2")
    assert (code, out) == (0, "5\n")
    code, out, _ = run(capsys, "sstar", "--mu", "2,2", "--lam", "2,1", "--json")
    doc = json.loads(out)
    assert doc["results"] == 0
    code, out, _ = run(capsys, "feval", "--lam", "2,1", "--term", "1:")
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "feval", "--lam", "3,1", "--term", "1/2:1")
    assert (code, out) == (0, "2\n")
    # a negative coefficient must be joined to the flag with '='
    code, out, _ = run(capsys, "feval", "--lam", "3,1", "--term=-1:2")
    assert (code, out) == (0, "-2\n")


def test_feval_fraction_results(capsys):
    code, out, _ = run(capsys, "feval", "--lam", "3,1", "--term", "1/3:1")
    assert (code, out) == (0, "4/3\n")
    code, out, _ = run(capsys, "feval", "--lam", "3,1", "--term", "1/3:1", "--json")
    assert code == 0 and json.loads(out)["results"] == {"num": 4, "den": 3}


def test_verify_failure_document(capsys, monkeypatch):
    monkeypatch.setitem(vf.SUITES, "gamma",
                        lambda K=8: [vf.Check("always fails", False, "on purpose")])
    code, out, _ = run(capsys, "verify", "--suite", "gamma")
    assert code == 1 and "FAIL always fails (on purpose)" in out.splitlines()
    code, out, _ = run(capsys, "verify", "--suite", "gamma", "--json")
    doc = json.loads(out)
    assert code == 1 and doc["ok"] is False
    assert doc["violations"] == ["FAIL always fails (on purpose)"]


@pytest.mark.parametrize("argv, inputs, results", [
    ("gconst --sigma 2 --tau 2 --rho 3", {"sigma": [2], "tau": [2], "rho": [3]}, 3),
    ("fconst --sigma 2 --tau 2 --rho 3", {"sigma": [2], "tau": [2], "rho": [3]}, 4),
    ("csn-mult --sigma 3 --tau 3 --n 4", {"sigma": [3], "tau": [3], "n": 4},
     [{"coeff": 8, "partition": []}, {"coeff": 4, "partition": [3]},
      {"coeff": 8, "partition": [2, 2]}]),
    ("fillings-conv --lhs 1,2 --rhs 2;1", {"lhs": "1,2", "rhs": "2;1"},
     {"filling": "1,2", "rows": [[1, 2]]}),
    ("fillings-count --sigma 2 --tau 2 --rho 3", {"sigma": [2], "tau": [2], "rho": [3]}, 4),
    ("feval --lam 3,1 --term 1:2 --term 1/2:1,1",
     {"lam": [3, 1], "terms": [{"coeff": 1, "partition": [2]},
                               {"coeff": {"num": 1, "den": 2}, "partition": [1, 1]}]},
     5),
    ("feval --lam 2,1", {"lam": [2, 1], "terms": []}, 0),
])
def test_json_document(capsys, argv, inputs, results):
    code, out, err = run(capsys, *argv.split(), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"command": argv.split()[0], "inputs": inputs,
                               "results": results}


def test_usage_errors(capsys):
    code, _, err = run(capsys, "mult", "--basis", "A", "--lhs", "2,x", "--rhs", "2")
    assert code == 2 and "malformed partition string" in err
    code, _, err = run(capsys, "mult", "--basis", "A", "--lhs", "6,6", "--rhs", "5,5")
    assert code == 2 and "size bounds exceeded" in err
    code, out, err = run(capsys, "mult", "--basis", "A", "--lhs", "2", "--rhs", "2",
                         "--n", "-1")
    assert code == 2 and out == "" and "nonnegative integer" in err
    code, _, err = run(capsys, "fillings-count", "--sigma", "5", "--tau", "2",
                       "--rho", "5,2")
    assert code == 2 and "size bounds exceeded" in err
    code, _, err = run(capsys, "feval", "--lam", "2", "--term", "nonsense")
    assert code == 2 and "malformed term" in err
    code, out, err = run(capsys, "feval", "--lam", "2", "--term=1/0:2")
    assert code == 2 and out == "" and "malformed coefficient in term '1/0:2'" in err
    code, _, err = run(capsys, "verify", "--suite", "nosuch")
    assert code == 2 and "unknown suite" in err


@pytest.mark.parametrize("argv, call", [
    ("qpoly --sigma 2,1 --tau 3 --rho 3", lambda: ca.q_polynomial(P(2, 1), P(3), P(3))),
    ("csn-mult --sigma 3 --tau 2 --n 2", lambda: ca.convolve_C_classes(P(3), P(2), 2)),
    ("csn-mult --sigma 2 --tau 2 --n -1", lambda: ca.convolve_C_classes(P(2), P(2), -1)),
])
def test_library_value_errors_exit_2(capsys, argv, call):
    # main prints the library's own message; no handler re-checks or re-words it
    with pytest.raises(ValueError) as exc:
        call()
    code, out, err = run(capsys, *argv.split())
    assert (code, out, err) == (2, "", f"error: {exc.value}\n")


def test_library_runtime_error_propagates(capsys, monkeypatch):
    # an internal fault is not bad input: it leaves main instead of exiting 2
    def fault(*args):
        raise RuntimeError("internal bug")

    monkeypatch.setattr(ca, "g_constant", fault)
    with pytest.raises(RuntimeError, match="internal bug"):
        main(["gconst", "--sigma", "2", "--tau", "2", "--rho", "3"])


def test_verify_suites_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "section6")
    assert code == 0
    assert out.splitlines()[-1].startswith("suite section6: 4/4")
    code, out, _ = run(capsys, "verify", "--suite", "gamma", "--json")
    doc = json.loads(out)
    assert doc["ok"] is True and "violations" not in doc
    assert all(c["ok"] for c in doc["results"])


@pytest.mark.parametrize("suite", sorted(vf.SUITES))
def test_verify_max_size_only_raises_a_suite_bound(capsys, monkeypatch, suite):
    ran = []

    def fake_run(name, **options):
        ran.append(options)
        return vf.SuiteResult(name, [vf.Check("ran", True)], 0.0)

    monkeypatch.setattr(vf, "run_suite", fake_run)
    params = list(inspect.signature(vf.SUITES[suite]).parameters.values())
    if not params:
        code, _, err = run(capsys, "verify", "--suite", suite, "--max-size", "1")
        assert code == 2 and "does not take --max-size" in err
        assert ran == []
        return
    bound = params[0]
    for below in sorted({bound.default - 1, 0, -1}):
        code, out, err = run(capsys, "verify", "--suite", suite, "--max-size", str(below))
        assert code == 2 and out == "" and "below suite default" in err
    assert ran == []
    code, _, err = run(capsys, "verify", "--suite", suite,
                       "--max-size", str(bound.default))
    assert code == 0 and err == ""
    assert ran == [{bound.name: bound.default}]


def test_verify_override_warns(capsys):
    code, out, err = run(capsys, "verify", "--suite", "gamma", "--max-size", "9")
    assert code == 0
    assert "warning" in err
    code, out, err = run(capsys, "verify", "--suite", "nosuch", "--max-size", "9")
    assert (code, out) == (2, "") and "unknown suite" in err and "warning" not in err


def test_cost_warning_on_raised_bound(capsys):
    code, out, err = run(capsys, "mult", "--basis", "A", "--lhs", "2", "--rhs", "2",
                         "--max-size", "13")
    assert code == 0 and "warning" in err
    # a refused size is refused before any warning
    code, out, err = run(capsys, "mult", "--lhs", "7", "--rhs", "7", "--max-size", "13")
    assert (code, out) == (2, "") and err.startswith("error: size bounds exceeded")
    assert "warning" not in err


def test_argparse_usage_exit():
    with pytest.raises(SystemExit) as exc:
        main(["mult"])  # missing required flags
    assert exc.value.code == 2
