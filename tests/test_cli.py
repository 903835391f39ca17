import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mvla import parse_structure, verify_axioms
from mvla.cli import main
from mvla.goldens import GOLDENS, load_golden


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    return code


def test_verify_exit_codes(capsys):
    assert run_cli("verify", "builtin:K", "--kind", "multifield") == 0
    out = capsys.readouterr().out
    assert "verdict=pass" in out and out.endswith("\n")
    assert run_cli("verify", "builtin:X2", "--kind", "hyperring") == 1
    assert "witness.1=hyper-dist" in capsys.readouterr().out


def test_verify_window(capsys):
    assert run_cli("verify", "builtin:Trop", "--kind", "multifield",
                   "--window", "-5", "5") == 0
    assert "pass-on-window" in capsys.readouterr().out


def test_window_check_is_charged_its_instances(capsys):
    # the window -5..5 and inf has 12 elements: 12**3 = 1728 instances per law over triples
    assert run_cli("--budget", "1727", "verify", "builtin:Trop", "--kind", "multifield",
                   "--window", "-5", "5") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: window axiom instances: 1728 exceeds budget 1727\n"
    assert run_cli("--budget", "1728", "verify", "builtin:Trop", "--kind", "multifield",
                   "--window", "-5", "5") == 0


def test_window_on_a_finite_structure_is_an_error_line(capsys):
    assert run_cli("verify", "builtin:K", "--kind", "superfield", "--window", "0", "1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: K is finite: only a lazy structure takes a window\n"


def test_window_without_the_unit_is_an_error_line(capsys):
    assert run_cli("verify", "builtin:Trop", "--kind", "superfield", "--window", "1", "5") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tropical window [1, 5] does not hold the unit 0\n"


def test_structure_file_loading(tmp_path, capsys, H3):
    from mvla import serialize_structure
    path = tmp_path / "h3.struct"
    path.write_text(serialize_structure(H3))
    assert run_cli("verify", str(path), "--kind", "hyperfield") == 0


def test_morphism_verbs(capsys):
    assert run_cli("morphism", "builtin:H2", "builtin:H3") == 0
    assert run_cli("morphism", "builtin:H2", "builtin:H3", "--full") == 1
    assert run_cli("morphism", "builtin:K", "builtin:Q2") == 1
    assert run_cli("morphism", "builtin:K", "builtin:K",
                   "--map", "0:0,1:1", "--full") == 0


def test_matrix_verbs(tmp_path, capsys):
    m = tmp_path / "m.txt"
    m.write_text("2 2\n1 1\n1 1\n")
    assert run_cli("det", str(m), "--structure", "builtin:K") == 0
    assert "det={0 1}" in capsys.readouterr().out
    assert run_cli("matmul", str(m), str(m), "--structure", "builtin:K") == 0
    assert "members=" in capsys.readouterr().out


def test_divmod_and_eval_and_irreducible(capsys):
    assert run_cli("divmod", "--structure", "builtin:H3",
                   "--f", "1,0,1", "--g", "1,1", "--all") == 0
    assert "pairs=3" in capsys.readouterr().out
    assert run_cli("eval", "--structure", "builtin:K",
                   "--poly", "1,1", "--at", "1") == 0
    assert "root=yes" in capsys.readouterr().out
    assert run_cli("irreducible", "--structure", "builtin:F2",
                   "--poly", "1,1,1") == 0
    assert run_cli("irreducible", "--structure", "builtin:F2",
                   "--poly", "0,0,1") == 1


def test_solve_exit_codes(tmp_path):
    solvable = tmp_path / "a.sys"
    solvable.write_text("1 2\n1 1\nrhs {0}\n")
    assert run_cli("solve", str(solvable), "--structure", "builtin:H3") == 0
    impossible = tmp_path / "b.sys"
    impossible.write_text("1 1\n0\nrhs {1}\n")
    assert run_cli("solve", str(impossible), "--structure", "builtin:H3") == 1


def test_kernel_and_closed(tmp_path, capsys):
    m = tmp_path / "k.txt"
    m.write_text("1 2\n1 1\n")
    assert run_cli("kernel", str(m), "--structure", "builtin:H3") == 0
    assert run_cli("closed", "--structure", "builtin:H3",
                   "--max-n", "1", "--max-m", "2") == 0


def test_closed_refuses_max_n_below_one(capsys):
    assert run_cli("closed", "--structure", "builtin:H3", "--max-n", "0", "--max-m", "1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need max_n >= 1\n"


def test_quotient_round_trips_into_verify(tmp_path, capsys):
    assert run_cli("quotient", "builtin:F2", "--poly", "1,1,1") == 0
    emitted = capsys.readouterr().out
    back = parse_structure(emitted)
    assert len(back.elements) == 4
    assert verify_axioms(back, "superfield").passed
    path = tmp_path / "gf4.struct"
    path.write_text(emitted)
    assert run_cli("verify", str(path), "--kind", "superfield") == 0


def test_failing_quotient_exits_one_with_its_witness(capsys):
    # an exhaustive axiom failure is a definite fail (1), not inconclusive (2)
    assert run_cli("quotient", "builtin:H3", "--poly", "1,0,1") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: quotient by Poly<1,0,1> fails the superfield axioms\n"
                            "witness.1=no-zero-div @ ((1, 1), (1, 1))\n")


def test_reducible_quotient_exits_one_with_its_divisor(capsys):
    # a divisor found by the scan is a definite fail (1), not inconclusive (2)
    assert run_cli("quotient", "builtin:H3", "--poly", "0,0,1") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: Poly<0,0,1> is reducible (witness Poly<0,1>)\n"
                            "witness.1=divisor @ Poly<0,1>\n")


def test_closed_charges_its_scan_against_the_budget(capsys):
    start = time.perf_counter()
    assert run_cli("--budget", "1", "closed", "--structure", "builtin:H3",
                   "--max-n", "2", "--max-m", "3") == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: closedness work 90 at 1x2 exceeds budget 1\n"


def test_irreducible_charges_every_slice_it_builds(capsys):
    # 125 polynomials per slice over H5 at degree 2: the first slice the scan reads fits,
    # the second does not
    start = time.perf_counter()
    assert run_cli("--budget", "125", "irreducible", "--structure", "builtin:H5",
                   "--poly", "1,0,2") == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ideal slice polynomials: 250 exceeds budget 125\n"


def test_extension_and_vspace_verbs(capsys):
    assert run_cli("extension", "builtin:H2", "builtin:H3") == 0
    assert "class=extension" in capsys.readouterr().out
    assert run_cli("vspace", "--structure", "builtin:H3",
                   "--space", "fn", "--n", "2") == 0
    assert run_cli("vspace", "--structure", "builtin:H3",
                   "--space", "fn", "--n", "2", "--full") == 1


def test_vspace_verb_rejects_nonpositive_shapes(capsys):
    for shape in (["--space", "matrix", "--n", "-1"], ["--space", "matrix", "--n", "0"],
                  ["--space", "matrix", "--n", "2", "--m", "0"],
                  ["--space", "poly", "--n", "-1"], ["--space", "fn", "--n", "0"],
                  # --m shapes only a matrix space
                  ["--space", "fn", "--n", "2", "--m", "7"],
                  ["--space", "poly", "--n", "2", "--m", "2"]):
        assert run_cli("vspace", "--structure", "builtin:K", *shape) == 2, shape
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), shape
    assert run_cli("vspace", "--structure", "builtin:K", "--space", "matrix",
                   "--n", "1", "--m", "2") == 0
    assert "space=M1x2(K)" in capsys.readouterr().out


_TROP_VERBS = {
    "verify": ["verify", "builtin:Trop", "--kind", "multifield"],
    "morphism": ["morphism", "builtin:Trop", "builtin:K"],
    "morphism-target": ["morphism", "builtin:K", "builtin:Trop"],
    "det": ["det", "{matrix}", "--structure", "builtin:Trop"],
    "matmul": ["matmul", "{matrix}", "{matrix}", "--structure", "builtin:Trop"],
    "divmod": ["divmod", "--structure", "builtin:Trop", "--f", "1,1", "--g", "1"],
    "eval": ["eval", "--structure", "builtin:Trop", "--poly", "1,1", "--at", "0"],
    "eval-ambient": ["eval", "--structure", "builtin:K", "--poly", "1,1", "--at", "0",
                     "--ambient", "builtin:Trop"],
    "irreducible": ["irreducible", "--structure", "builtin:Trop", "--poly", "1,0,1"],
    "solve": ["solve", "{system}", "--structure", "builtin:Trop"],
    "kernel": ["kernel", "{matrix}", "--structure", "builtin:Trop"],
    "closed": ["closed", "--structure", "builtin:Trop", "--max-n", "1", "--max-m", "2"],
    "quotient": ["quotient", "builtin:Trop", "--poly", "1,0,1"],
    "extension": ["extension", "builtin:Trop", "builtin:K"],
    "extension-big": ["extension", "builtin:K", "builtin:Trop"],
    "vspace": ["vspace", "--structure", "builtin:Trop", "--n", "2"],
}


@pytest.mark.parametrize("case", sorted(_TROP_VERBS))
def test_lazy_structure_needs_a_window_on_every_verb(tmp_path, capsys, case):
    """Trop loads only for verify --window; anywhere else it is an error line, exit 2."""
    (tmp_path / "m.txt").write_text("1 1\n0\n")
    (tmp_path / "s.txt").write_text("1 1\n0 | 0\n")
    files = {"{matrix}": str(tmp_path / "m.txt"), "{system}": str(tmp_path / "s.txt")}
    argv = [files.get(arg, arg) for arg in _TROP_VERBS[case]]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: builtin:Trop is lazy: only verify --window LO HI can "
                            "check it; this command needs a window\n")


def test_reproduce_all_goldens(capsys):
    for name in sorted(GOLDENS):
        assert load_golden(name) is not None, name
        assert run_cli("reproduce", name) == 0, name


def test_reproduce_unknown_name(capsys):
    assert run_cli("reproduce", "nope") == 2
    assert "error:" in capsys.readouterr().err


def test_reports_are_deterministic(capsys):
    run_cli("verify", "builtin:Q2", "--kind", "multifield")
    first = capsys.readouterr().out
    run_cli("verify", "builtin:Q2", "--kind", "multifield")
    assert capsys.readouterr().out == first


def test_error_paths(tmp_path, capsys):
    assert run_cli("verify", str(tmp_path / "missing.struct"),
                   "--kind", "multifield") == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.struct"
    bad.write_text("structure X\nelements 0\nend\n")
    assert run_cli("verify", str(bad), "--kind", "multifield") == 2


# A commutative-looking 3-element structure with string tokens whose sum is
# not a multigroup (z + a = {z, b}); its fn space has M1 failures with several
# failing c per pair, so witness order shows whether a scan follows carrier
# order or the hash order of frozensets.
_ZAB = """structure ZAB
elements z a b
zero z
one a
neg z -> z
neg a -> a
neg b -> b
sum z z -> z
sum z a -> z b
sum a z -> a
sum z b -> b
sum b z -> b
sum a a -> z a b
sum b b -> z a b
sum a b -> a b
sum b a -> a b
prod z z -> z
prod z a -> z
prod a z -> z
prod z b -> z
prod b z -> z
prod a a -> a
prod a b -> b
prod b a -> b
prod b b -> a
end
"""

# p + p is the whole 4-element carrier, mapped onto a target where a + a = {z}:
# three m-add witnesses (p, p, c) fail at the same pair.
_S4 = """structure S4
elements z p q r
zero z
one p
neg z -> z
neg p -> p
neg q -> q
neg r -> r
symmetric
sum z z -> z
sum z p -> p
sum z q -> q
sum z r -> r
sum p p -> z p q r
sum p q -> z p q r
sum p r -> z p q r
sum q q -> z p q r
sum q r -> z p q r
sum r r -> z p q r
prod z z -> z
prod z p -> z
prod z q -> z
prod z r -> z
prod p p -> p
prod p q -> q
prod p r -> r
prod q q -> p
prod q r -> p
prod r r -> p
end
"""

_T2 = """structure T2
elements z a
zero z
one a
neg z -> z
neg a -> a
sum z z -> z
sum z a -> a
sum a z -> a
sum a a -> z
prod z z -> z
prod z a -> z
prod a z -> z
prod a a -> a
end
"""


def _cli_under_seed(seed, *argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "mvla.cli", *argv], env=env,
                          capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("verb", ["vspace", "morphism"])
def test_witness_order_ignores_the_hash_seed(tmp_path, verb):
    for name, text in (("zab", _ZAB), ("s4", _S4), ("t2", _T2)):
        (tmp_path / f"{name}.struct").write_text(text)
    if verb == "vspace":
        argv = ("vspace", "--structure", str(tmp_path / "zab.struct"),
                "--space", "fn", "--n", "2")
        expect = "witness.1=group-M1 @ (('z', 'z'), ('z', 'a'), ('z', 'z'))\n"
    else:
        argv = ("morphism", str(tmp_path / "s4.struct"), str(tmp_path / "t2.struct"),
                "--map", "z:z,p:a,q:a,r:a")
        expect = ("witness.1=m-add @ ('p', 'p', 'p')\nwitness.2=m-add @ ('p', 'p', 'q')\n"
                  "witness.3=m-add @ ('p', 'p', 'r')\n")
    first = _cli_under_seed(1, *argv)
    assert first[0] == 1, first
    assert expect in first[1]
    assert _cli_under_seed(3, *argv) == first


def _pinned_reports(name):
    """The expected output of each pinned command line, keyed by its arguments."""
    text = (Path(__file__).parent / "data" / name).read_text()
    sections = text.split("### mvla ")[1:]
    return dict(section.split("\n", 1) for section in sections)


_PINNED = _pinned_reports("box_verb_reports.txt")


# The box verbs print whole reports: each must match its stored bytes, not only
# a substring.  a.txt and b.txt are the X2 matrices A and B of the worked example.
@pytest.mark.parametrize("command", sorted(_PINNED))
def test_box_verb_reports_are_pinned(tmp_path, monkeypatch, capsys, command):
    (tmp_path / "a.txt").write_text("2 2\n1 1\n0 1\n")
    (tmp_path / "b.txt").write_text("2 2\n-1 1\n0 -1\n")
    monkeypatch.chdir(tmp_path)
    assert run_cli(*command.split()) == 0
    assert capsys.readouterr().out == _PINNED[command]


# Its sum is commutative and reversible with a neutral z, so M1, M2 and M4
# hold, but (a + b) + c = {z, a, b, c} is not within a + (b + c) = {b, c}.
_M3FAIL = """structure M3FAIL
elements z a b c
zero z
one a
neg z -> z
neg a -> a
neg b -> b
neg c -> c
symmetric
sum z z -> z
sum z a -> a
sum z b -> b
sum z c -> c
sum a a -> z
sum a b -> b c
sum a c -> b c
sum b b -> z a c
sum b c -> a b
sum c c -> z a c
prod z z -> z
prod z a -> z
prod z b -> z
prod z c -> z
prod a a -> a
prod a b -> b
prod a c -> c
prod b b -> a
prod b c -> a
prod c c -> a
end
"""

_AXIOM_PINNED = _pinned_reports("axiom_verb_reports.txt")


# The axiom verbs: each section holds the exit code and the whole stdout.
@pytest.mark.parametrize("command", sorted(_AXIOM_PINNED))
def test_axiom_verb_reports_are_pinned(tmp_path, monkeypatch, capsys, command):
    (tmp_path / "m3fail.struct").write_text(_M3FAIL)
    monkeypatch.chdir(tmp_path)
    code = run_cli(*command.split())
    assert f"exit={code}\n" + capsys.readouterr().out == _AXIOM_PINNED[command]


# System and matrix files for the linsys verbs.  diag.sys carries comments and
# a blank line; none.sys has no weak solution, so a budget below its 9
# candidate vectors leaves the solver inconclusive.  fallback.sys is upper
# triangular but not in echelon form (both live rows pivot at column 1); the
# scaled route walks it and answers, and the file keeps the name it had when
# such input was passed through unscaled and reached the fallback.
_LINSYS_FILES = {
    "solved.sys": "2 3\n0 1 2\n0 2 0\nrhs {2}\nrhs {1}\n",
    "weak.sys": "3 3\n1 2 1\n2 2 2\n2 0 1\nrhs {2}\nrhs {0}\nrhs {1}\n",
    "none.sys": "2 2\n2 0\n2 0\nrhs {0}\nrhs {1 2}\n",
    "fallback.sys": "3 3\n0 2 0\n0 1 2\n0 0 0\nrhs {2}\nrhs {0}\nrhs {0}\n",
    "diag.sys": "# a diagonal system over F3\n2 2\n\n2 0  # first row\n0 2\nrhs {1}\nrhs {2}\n",
    "k12.txt": "1 2\n1 1\n",
    "k23.txt": "2 3\n4 3 2\n3 1 2\n",
    "k35.txt": "3 5\n1 2 2 1 2\n1 1 1 1 2\n0 2 0 2 0\n",
}

_LINSYS_PINNED = _pinned_reports("linsys_verb_reports.txt")


# The verbs built on polys, matrices and linsys: exit code and whole stdout.
@pytest.mark.parametrize("command", sorted(_LINSYS_PINNED))
def test_linsys_verb_reports_are_pinned(tmp_path, monkeypatch, capsys, command):
    for name, text in _LINSYS_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code = run_cli(*command.split())
    assert f"exit={code}\n" + capsys.readouterr().out == _LINSYS_PINNED[command]


# Each verb that searches, on an input whose search takes more than one unit of
# work: under --budget 1 it ends inconclusive at once and names the bound.
_BUDGET_ONE = {
    "closed": "closed --structure builtin:H3 --max-n 2 --max-m 3",
    "det": "det m.txt --structure builtin:H3",
    "divmod": "divmod --structure builtin:H3 --f 1,0,1 --g 1,1 --all",
    "irreducible": "irreducible --structure builtin:H5 --poly 1,0,2",
    "kernel": "kernel k35.txt --structure builtin:H3",
    "matmul": "matmul m.txt m.txt --structure builtin:H3",
    "quotient": "quotient builtin:H3 --poly 1,0,2",
    "solve": "solve none.sys --structure builtin:H3",
    "verify-window": "verify builtin:Trop --kind multifield --window -5 5",
    "vspace": "vspace --structure builtin:H3 --space fn --n 4",
}


@pytest.mark.parametrize("verb", sorted(_BUDGET_ONE))
def test_budget_one_stops_every_searching_verb(tmp_path, monkeypatch, capsys, verb):
    for name, text in _LINSYS_FILES.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "m.txt").write_text("2 2\n1 2\n0 1\n")
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    assert run_cli("--budget", "1", *_BUDGET_ONE[verb].split()) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    if verb in ("solve", "kernel"):
        assert re.search(r"^note=.* exceeds cap$", captured.out, re.M), captured.out
    else:
        assert captured.out == ""
        assert re.fullmatch(r"error: .* budget 1\n", captured.err), captured.err


def test_bad_budget_variable_is_an_error_line(monkeypatch, capsys):
    monkeypatch.setenv("MVLA_BUDGET", "abc")
    assert run_cli("verify", "builtin:K", "--kind", "hyperfield") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "MVLA_BUDGET" in err
    monkeypatch.setenv("MVLA_BUDGET", "5")
    assert run_cli("verify", "builtin:K", "--kind", "hyperfield") == 0
