"""End-to-end command-line behavior: exit codes, reports, negative controls."""
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import threading

import pytest

import gvc
import gvc.algebra
import gvc.brst
import gvc.jets
import gvc.noether
from gvc import cli
from gvc.algebra import Registry
from gvc.cli import (_parse_checks, _residual_text, apply_sign_mutation,
                     build_report, mutation_sites, run, run_checks)
from gvc.parser import MAX_NESTING, TheorySpec, parse_theory
from gvc.theories import builtin_path
from conftest import all_pass, cached, count_calls, count_passes, fresh

MINI = """\
theory mini;
dim 1;
field s even;
L = 1/2 * s[;0] * s[;0];
"""


def _python_m_gvc(*args):
    """Run ``python -m gvc`` on the gvc this suite imports."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(gvc.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", "gvc", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_python_m_gvc_runs_the_cli(tmp_path):
    done = _python_m_gvc("verify", "--builtin", "bf")
    assert done.returncode == 0, done.stderr
    assert "\noverall: pass\n" in done.stdout
    done = _python_m_gvc("verify", "--theory", str(tmp_path / "missing.gvc"))
    assert done.returncode == 2
    assert done.stderr.startswith("error: cannot read theory file")
    assert "Traceback" not in done.stderr


def test_verify_builtin_text_report(capsys):
    assert run(["verify", "--builtin", "bf"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("theory: bf\njet order: 4\n"
                          "checks: ni,kt,gauge,brst\nmutation: none\n")
    assert "\noverall: pass\n" in out
    assert re.search(r"canonical: sha256:[0-9a-f]{64}\n$", out)
    assert re.search(r"\[pass\] ni: e\[\] \(\d+\.\d{3}s\)", out)


def test_sign_mutation_turns_the_fixture_red(capsys):
    assert run(["verify", "--builtin", "bf", "--mutate", "sign"]) == 1
    out = capsys.readouterr().out
    assert "mutation: sign (sign of leading Lagrangian term)" in out
    assert "[fail] ni: e[]" in out
    assert "residual: -2*B[1;0,2]" in out
    assert "overall: fail" in out


# canonical_sha256 of every check, plain and with --mutate sign; a change of
# the kernel or of its key layout must leave each of them as it is
_PINNED_DIGESTS = {
    ("bf", "none"):
        "18e067b1393d70db0e9570a5b13ce1639689e2f31e2fda89e4c33c6608512b12",
    ("bf", "sign"):
        "f5b93ac893d35ed4d9ab5ce8650140184378730e0c05425547564634cf1752fd",
    ("cs3", "none"):
        "8799ea51dbc21fbd4c6cf62eb0ffa0411a39c69cd1b32c8bc872445e4caaace9",
    ("cs3", "sign"):
        "c63ec1e319b9cb82c5a9b195a48c47018f1ce9edfcd5cd846c28620ea1d1c5f4",
    ("ym4", "none"):
        "2cad62a9865cf2e6d9802f78944b0f445cc41f63c665887f01204bad8c99585f",
    ("ym4", "sign"):
        "a4e2b9e338e0da0056d0d109a8c003174761ab64b57f8a3ebe05595f9254271c",
}


@pytest.mark.parametrize("name,mutate", sorted(_PINNED_DIGESTS))
def test_canonical_digests_are_pinned(capsys, name, mutate):
    code = run(["verify", "--builtin", name, "--check",
                "ni,stages,kt,extended,gauge,brst,antibracket,triviality",
                "--format", "json", "--mutate", mutate])
    assert code == (0 if mutate == "none" else 1)
    report = json.loads(capsys.readouterr().out)
    assert report["canonical_sha256"] == _PINNED_DIGESTS[name, mutate]


# grav4 is the builtin whose kt check takes the by-parts route of
# jets.prolong_apply
_PINNED_GRAV4_DIGESTS = {
    "none": "8d80e6bcecd1e606b7955048e540427bc7f4aaafb04d16a49b757c498827dce6",
    "sign": "2f66b216644fe7cd09680f5d6aaa12e3dd5b675bba8999c8b0638f5975e3a3b2",
}


@pytest.mark.parametrize("mutate", sorted(_PINNED_GRAV4_DIGESTS))
def test_grav4_digests_are_pinned(capsys, mutate):
    code = run(["verify", "--builtin", "grav4", "--check", "kt,gauge,brst",
                "--format", "json", "--mutate", mutate])
    assert code == (0 if mutate == "none" else 1)
    report = json.loads(capsys.readouterr().out)
    assert report["canonical_sha256"] == _PINNED_GRAV4_DIGESTS[mutate]


def test_exit_two_on_unknown_check(capsys):
    assert run(["verify", "--builtin", "bf", "--check", "ni,bogus"]) == 2
    err = capsys.readouterr().err
    assert ("error: unknown check 'bogus'; available: "
            "ni,stages,kt,extended,gauge,brst,antibracket,triviality") in err


def test_exit_two_on_unreadable_file(capsys):
    assert run(["verify", "--theory", "/nonexistent/x.gvc"]) == 2
    assert "error: cannot read theory file" in capsys.readouterr().err


def test_exit_two_on_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.gvc"
    bad.write_text("dim 1;\nfield s even;\n")
    assert run(["verify", "--theory", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error: theory must declare a Lagrangian" in err


def test_exit_two_on_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "latin1.gvc"
    path.write_bytes(b"# \xff\xfe\n" + MINI.encode())
    assert run(["verify", "--theory", str(path), "--check", "ni"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read theory file: 'utf-8' codec")


@pytest.mark.parametrize("callee", ["parse_theory", "build_report"])
def test_exit_two_when_memory_runs_out(capsys, monkeypatch, callee):
    # huge index ranges can exhaust memory while parsing or checking; the
    # error is raised here, not provoked by allocating
    def exhausted(*args, **kwargs):
        raise MemoryError()
    monkeypatch.setattr(cli, callee, exhausted)
    assert run(["verify", "--builtin", "bf", "--check", "ni"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory\n"
    assert captured.out == ""


@pytest.mark.parametrize("opener,closer",
                         [("(", ")"), ("-", ""), ("sum(i:1){", "}")])
def test_expression_nesting_is_bounded(tmp_path, capsys, opener, closer):
    path = tmp_path / "deep.gvc"

    def verify(depth):
        path.write_text("dim 1;\nfield s even;\nL = %ss%s;\n"
                        % (opener * depth, closer * depth))
        return run(["verify", "--theory", str(path), "--check", "ni"])

    assert verify(MAX_NESTING) == 0
    capsys.readouterr()
    assert verify(3000) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: expression nested deeper than %d levels "
                          "(line 3, column " % MAX_NESTING)


def _verify_text(tmp_path, capsys, text):
    """Exit code and stderr of ``gvc verify --check ni`` on ``text``."""
    path = tmp_path / "theory.gvc"
    path.write_text(text)
    code = run(["verify", "--theory", str(path), "--check", "ni"])
    return code, capsys.readouterr().err


_DECLS = ("dim 2;\ntable k[2,2]{ [0,1]=1; }\nfield g[2,2] sym even;\n"
          "field a[2] even;\nfield b[3] even;\nfield s even;\n")


def _assert_positioned_error(code, err, message):
    assert code == 2
    assert err.startswith("error: ")
    assert re.search(r"\(line \d+, column \d+\)\n$", err)
    assert "Traceback" not in err
    if message is not None:
        assert message in err


# Where a message is None, only the exit code and the position are pinned.
@pytest.mark.parametrize("body, message", [
    ("L = s;\nni c[] { (g[m,n]) = k[m,n]; }",
     "row (g[0,1]; ) receives conflicting values under component symmetry"),
    ("L = s;\ngauge { (g[m,n]) = k[m,n]; }",
     "component g[0,1] receives conflicting values"),
    ("L = s;\ngauge { (s; 0) = 1; }", None),
    ("L = s;\ngauge { (s[;0]) = 1; }", None),
    ("L = sum(m){ 1 };", "cannot infer a range for index 'm'"),
    ("L = sum(m){ a[m;] * b[m;] };",
     "index 'm' is used with conflicting ranges [2, 3]"),
    ("L = a[m;];", "unbound index 'm'"),
    # key jets are checked like a variable's: direction, then the cap
    ("L = s;\nni c[] { (s; 3) = 1; }",
     "jet direction 3 out of range for dim 2 (line 8, column 10)"),
    ("L = s;\nni c[] { (s; 0,0,0,0,0) = 1; }",
     "jet order 5 of s(0, 0, 0, 0, 0) exceeds the cap 4"),
    # a constant index far past its slot is refused where it is met, by
    # the statement and by the key that hold it
    ("L = a[99999999999999999999;];", "component index "
     "99999999999999999999 out of range 2 for a (line 7, column 1)"),
    ("L = s;\nni c[] { (s; 99999999999999999999) = 1; }", "jet direction "
     "99999999999999999999 out of range for dim 2 (line 8, column 10)"),
    # no check reads an alpha block without its stage block
    ("L = s;\nni c[] { (s) = 1; }\nalpha 0 { (s) = 1; }",
     "alpha blocks start at stage 1 (line 9, column 7)"),
    ("L = s;\nni c[] { (s) = 1; }\nalpha 1 { (s) = 1; }",
     "alpha 1: no stage 1 block declared (line 9, column 7)"),
    ("L = s;\nstage 0 c[] { (s) = 1; }",
     "stage blocks start at 1; stage-0 records are `ni` blocks "
     "(line 8, column 7)"),
])
def test_key_and_index_errors_exit_2(tmp_path, capsys, body, message):
    _assert_positioned_error(*_verify_text(tmp_path, capsys, _DECLS + body),
                             message)


# A product ends at its first zero factor, but every reference in it is
# still validated: k[0,0] is an absent table entry.
@pytest.mark.parametrize("zero", ["k[0,0]", "0", "(1/2 - 1/2)"],
                         ids=["table", "literal", "cancelled"])
@pytest.mark.parametrize("bad, message", [
    ("nosuch", "unknown symbol 'nosuch'"),
    ("a[0,1]", "a expects 1 component indices, got (0, 1)"),
    ("a[7]", "component index 7 out of range 2 for a"),
    ("k[0,1;0]", "constant table 'k' cannot carry jet indices"),
    ("s[;0,0,0,0,0]", "jet order 5 of s(0, 0, 0, 0, 0) exceeds the cap 4"),
    ("a[m]", "unbound index 'm'"),
    ("sum(m){ 1 }", "cannot infer a range for index 'm'"),
], ids=["unknown", "arity", "range", "table-jets", "cap", "unbound",
        "no-range"])
@pytest.mark.parametrize("statement, position", [
    ("L = s + %s;", "(line 7, column 1)"),
    ("L = s;\nni c[] { (s) = 1 + %s; }", "(line 8, column 10)"),
    ("L = s;\ngauge { (s) = %s; }", "(line 8, column 9)"),
], ids=["L", "ni", "gauge"])
def test_no_zero_factor_hides_an_invalid_reference(tmp_path, capsys, zero,
                                                   bad, message, statement,
                                                   position):
    body = statement % ("%s * %s" % (zero, bad))
    code, err = _verify_text(tmp_path, capsys, _DECLS + body)
    _assert_positioned_error(code, err, message)
    assert err.endswith(position + "\n")


_ANTISYM = _DECLS + "field B[2,2] antisym even;\n"


# A variable or key the antisymmetry kills is zero, but its jets are checked,
# and so is its value, after the live keys': the first error of (B[i,m]) is
# the one met at (i, m) = (0, 1), the first live key.
@pytest.mark.parametrize("body, message", [
    ("L = s + k[0,0] * B[0,0;7];",
     "jet direction 7 out of range for dim 2 (line 8, column 1)"),
    ("L = s + 0 * B[1,1;0,0,0,0,0];",
     "jet order 5 of B(0, 0, 0, 0, 0) exceeds the cap 4"),
    ("L = s;\nni c[] { (B[0,0]; 7) = 1; }",
     "jet direction 7 out of range for dim 2 (line 9, column 10)"),
    ("L = s;\ngauge { (B[i,m]) = a[m,0]; }",
     "a expects 1 component indices, got (1, 0) (line 9, column 9)"),
    ("L = s;\ngauge { (B[0,0]) = nosuch; }",
     "unknown symbol 'nosuch' (line 9, column 9)"),
    ("L = s;\ngauge { (B[i,i]) = nosuch; }",
     "unknown symbol 'nosuch' (line 9, column 9)"),
    ("L = s;\nni c[] { (B[1,1]) = 1 + a[3]; }",
     "component index 3 out of range 2 for a (line 9, column 10)"),
])
def test_antisymmetric_zeros_hide_no_invalid_jets(tmp_path, capsys, body,
                                                  message):
    _assert_positioned_error(*_verify_text(tmp_path, capsys, _ANTISYM + body),
                             message)


# No index range is empty: an empty sum or ghost family would never evaluate
# what it holds.
@pytest.mark.parametrize("body, position", [
    ("L = sum(i:0){ s };", "(line 7, column 11)"),
    ("L = s;\nni c[j:0] { (s) = 1; }", "(line 8, column 8)"),
    ("L = s;\nni c[p:1, j:0] { (s) = 1; }", "(line 8, column 13)"),
    ("field q[0] even;\nL = s;", "(line 7, column 9)"),
    ("table t[2,0]{ }\nL = s;", "(line 7, column 11)"),
], ids=["sum", "ghost", "ghost-pair", "field", "table"])
def test_empty_ranges_exit_2(tmp_path, capsys, body, position):
    _assert_positioned_error(*_verify_text(tmp_path, capsys, _DECLS + body),
                             "a range must be at least 1, got 0 " + position)


# Every comma-separated list, missing a comma and with a trailing comma.
@pytest.mark.parametrize("body, message", [
    ("L = sum(i:2 j:2){ s };", "expected ')', found 'j' (line 7, column 13)"),
    ("L = sum(i:2,){ s };", "expected 'NAME', found ')' (line 7, column 13)"),
    ("L = s;\nni c[i:2 j:2] { (s) = 1; }",
     "expected ']', found 'j' (line 8, column 10)"),
    ("L = s;\nni c[i:2,] { (s) = 1; }",
     "expected 'NAME', found ']' (line 8, column 10)"),
    ("field q[2 2] even;\nL = s;",
     "expected ']', found 2 (line 7, column 11)"),
    ("field q[2,] even;\nL = s;",
     "expected 'INT', found ']' (line 7, column 11)"),
    ("table t[2 2]{ }\nL = s;", "expected ']', found 2 (line 7, column 11)"),
    ("table t[2,]{ }\nL = s;",
     "expected 'INT', found ']' (line 7, column 11)"),
    ("table t[2,2]{ [0 1]=1; }\nL = s;",
     "expected ']', found 1 (line 7, column 18)"),
    ("table t[2,2]{ [0,]=1; }\nL = s;",
     "expected 'INT', found ']' (line 7, column 18)"),
    ("L = g[0 1;];", "expected ']', found 1 (line 7, column 9)"),
    ("L = g[0,;];", "expected an index (line 7, column 9)"),
    ("L = s[;0 1];", "expected ']', found 1 (line 7, column 10)"),
    ("L = s[;0,];", "expected an index (line 7, column 10)"),
    ("L = s;\nni c[] { (g[i j]) = 1; }",
     "expected ']', found 'j' (line 8, column 15)"),
    ("L = s;\nni c[] { (g[i,]) = 1; }",
     "expected an index (line 8, column 15)"),
    ("L = s;\nni c[] { (s; 0 1) = 1; }",
     "expected ')', found 1 (line 8, column 16)"),
    ("L = s;\nni c[] { (s; 0,) = 1; }",
     "expected an index (line 8, column 16)"),
])
def test_comma_lists_exit_2(tmp_path, capsys, body, message):
    _assert_positioned_error(*_verify_text(tmp_path, capsys, _DECLS + body),
                             message)


@pytest.mark.parametrize("body, message", [
    ("table z[1]{ [0]=1/0; }\nL = s;",
     "division by zero (line 7, column 19)"),
    ("L = sum(m){ a[m,m;] };", "a expects 1 component indices"),
    # a key's jets follow its closing bracket, never inside it
    ("L = s;\nni c[] { (s[;0]; 1) = 1; }",
     "expected ']', found ';' (line 8, column 13)"),
    ("L = sum(m:2, m:2){ s };",
     "index 'm' is bound twice (line 7, column 14)"),
    ("L = s;\nni c[j:2, j:2] { (s) = 1; }",
     "index 'j' is bound twice (line 8, column 11)"),
])
def test_malformed_rationals_keys_and_binders_exit_2(tmp_path, capsys, body,
                                                    message):
    _assert_positioned_error(*_verify_text(tmp_path, capsys, _DECLS + body),
                             message)


@pytest.mark.parametrize("table, message", [
    ("table p[2,2]{ [0,0]=1; }", "table p expects 2 indices"),
    ("table p[1]{ [0]=1; }", "index (1,) out of bounds for table p"),
])
def test_parity_table_of_wrong_shape_exits_2(tmp_path, capsys, table,
                                             message):
    body = table + "\nfield q[2] parity p@0;\nL = s;"
    _assert_positioned_error(*_verify_text(tmp_path, capsys, _DECLS + body),
                             message + " (line 8, column 12)")


def test_antibracket_on_a_theory_without_records(tmp_path, capsys):
    path = tmp_path / "mini.gvc"
    path.write_text("dim 1; field s even; L = 1/2 * s[;0] * s[;0];\n")
    assert run(["verify", "--theory", str(path), "--check", "antibracket"]) == 0
    assert "[pass] antibracket: u (" in capsys.readouterr().out


_NO_LEADING_TERM = ("error: --mutate sign needs a gamma block or a "
                    "Lagrangian with a non-constant term\n")


@pytest.mark.parametrize("text, message", [
    ("dim 1; field s even; L = 0;", _NO_LEADING_TERM),
    ("dim 1; field s even; L = 3;", _NO_LEADING_TERM),
    ("dim 1; field s even; L = s[;0]^2;\nni c[] { (s; 0) = 1; }\n"
     "gamma { (c) = 0; }", "error: a zero polynomial has no sign to flip\n"),
])
def test_sign_mutation_without_a_sign_to_flip_exits_2(tmp_path, capsys, text,
                                                      message):
    path = tmp_path / "flat.gvc"
    path.write_text(text)
    assert run(["verify", "--theory", str(path), "--mutate", "sign"]) == 2
    assert capsys.readouterr().err == message


def test_zero_components_offer_no_sign_to_flip(capsys):
    th = parse_theory("dim 1; field s even; L = s[;0]^2;\n"
                      "ni c[] { (s; 0) = 1; }\nni e[] { (s; 0) = 2; }\n"
                      "gauge { (s) = 0; (c) = 1; }\n"
                      "gamma { (c) = 0; (e) = c * c[;0]; }")
    sites = mutation_sites(th)
    assert [label for label, _build in sites] == [
        "lagrangian", "record c[]", "record e[]", "gauge c[]", "gamma e[]"]
    for _label, build in sites:
        build()
    mutant, label = apply_sign_mutation(th)
    assert label == "sign of leading gamma term on e[]"
    assert mutant.gamma[("e", ())] == -th.gamma[("e", ())]
    assert mutant.gamma[("c", ())] == th.gamma[("c", ())]


def test_mutation_sites_skip_a_constant_lagrangian_not_constant_rows():
    th = parse_theory("dim 1; field s even; L = 3;\nni c[] { (s; 0) = 1; }")
    ((label, build),) = mutation_sites(th)
    assert label == "record c[]"
    (row,) = build().records[0].rows.values()
    assert row == -th.registry.one


def test_checks_run_on_the_calling_thread(monkeypatch):
    seen = {}
    for name, runner in cli._RUNNERS.items():
        def spy(theory, _name=name, _runner=runner):
            seen[_name] = threading.get_ident()
            return _runner(theory)
        monkeypatch.setitem(cli._RUNNERS, name, spy)
    run_checks(cached("ym4"), list(cli.CHECK_NAMES))
    assert seen == dict.fromkeys(cli.CHECK_NAMES, threading.get_ident())


def test_gauge_check_builds_the_gauge_operator_once(monkeypatch):
    builds = count_calls(monkeypatch, "gauge_from_ni")
    all_pass(run_checks(fresh("bf4"), ["gauge"]))
    assert len(builds) == 1  # shared by the stage-0 and stage-1 conditions


def test_stages_check_builds_kt_once(monkeypatch):
    # every stage identity is delta_KT(Delta_r), one pass per stage, with or
    # without h certificates (toy has one, bf4 none)
    builds = count_calls(monkeypatch, "assemble_kt")
    all_pass(run_checks(fresh("bf4"), ["stages"]))
    assert len(builds) == 1
    all_pass(run_checks(fresh("toy"), ["stages"]))
    assert len(builds) == 2


@pytest.mark.parametrize("label", ["lagrangian", "record e[]"])
def test_mutants_of_a_warm_theory_still_fail(label):
    # the healthy theory stores its residuals and gauge operator first; a
    # mutant keeps what its edit leaves unchanged (an L mutant the gauge
    # stages and their images, a record mutant E_A) and holds, for each
    # object the edit changes, the parent objects its update reads, never
    # the parent; it derives its own residuals by the difference and fails
    healthy = fresh("bf")
    all_pass(run_checks(healthy, [c for c in cli.CHECK_NAMES
                                  if c != "triviality"]))
    (build,) = [b for lab, b in mutation_sites(healthy) if lab == label]
    mutant = build()
    kept = {key for key, obj in mutant.derived.items()
            if not isinstance(obj, gvc.noether.Parent)}
    parents = {key: obj for key, obj in mutant.derived.items()
               if isinstance(obj, gvc.noether.Parent)}
    assert (kept, set(parents)) == (
        ({"el"}, {"kt", "residuals", "gauge", "brst", "stage images"})
        if label != "lagrangian" else
        ({"gauge", "brst", "stage images", "antibracket", "b certificate"},
         {"el", "kt", "residuals"}))
    for key, parent in parents.items():
        assert set(parent.reads) == set(gvc.noether.READS[key]), key
        for name in parent.reads:
            if name in healthy.derived:
                assert parent.get(name) is healthy.derived[name], (key, name)
    for check in ("ni", "kt", "gauge", "extended"):
        entries = run_checks(mutant, [check])
        assert any(e["status"] == "fail" for e in entries), check


# the check each kind of single sign flip must break; grav4's first record
# flips a row on k[0,0,0], whose Euler-Lagrange derivative vanishes, so
# only the declared gauge operator catches it
_CATCHER = {"lagrangian": "ni", "record": "ni", "stage": "kt",
            "gauge": "gauge", "gamma": "brst"}


def _warm_and_cold_sites(name):
    """(label, warm build, cold build) for every mutation site of theory
    ``name`` (grav4: the first of each kind).  The warm parent has run every
    check; the cold one is parsed afresh and never run."""
    warm, cold = fresh(name), fresh(name)
    run_checks(warm, cli.CHECK_NAMES)
    sites = mutation_sites(warm)
    if name == "grav4":
        sites = list({label.split()[0]: (label, build)
                      for label, build in reversed(sites)}.values())
    cold_sites = dict(mutation_sites(cold))
    return [(label, build, cold_sites[label]) for label, build in sites]


@pytest.mark.parametrize("name", ["bf", "bf4", "toy", "cs3", "ym4",
                                  "ym4_super", "grav4"])
def test_warm_and_cold_mutants_agree(name):
    # a mutant inherits from a warm parent exactly what its edit leaves
    # unchanged, so every check digests as on a mutant with nothing stored
    for label, warm, cold in _warm_and_cold_sites(name):
        inherits, fresh_mutant = warm(), cold()
        for check in cli.CHECK_NAMES:
            assert build_report(inherits, [check])["canonical_sha256"] == \
                build_report(fresh_mutant, [check])["canonical_sha256"], \
                (label, check)
        kind = label.split()[0]
        catcher = "gauge" if (name, kind) == ("grav4", "record") \
            else _CATCHER[kind]
        assert build_report(inherits, [catcher])["overall"] == "fail", label


def test_every_grav4_site_stays_red_warm_and_cold():
    # a warm mutant derives b's images from a parent that took them at the
    # first keys of its component orbits; a cold one finds its own orbits
    warm, cold = fresh("grav4"), fresh("grav4")
    run_checks(warm, cli.DEFAULT_CHECKS.split(","))
    cold_sites = dict(mutation_sites(cold))
    sites = mutation_sites(warm)
    assert len(sites) == 83
    for label, build in sites:
        kind = label.split()[0]
        catcher = "gauge" if kind == "record" else _CATCHER[kind]
        inherits, fresh_mutant = [build_report(mutant(), [catcher, "brst"])
                                  for mutant in (build, cold_sites[label])]
        assert inherits["canonical_sha256"] == \
            fresh_mutant["canonical_sha256"], label
        assert any(e["check"] == catcher and e["status"] == "fail"
                   for e in inherits["entries"]), label


def test_a_cold_grav4_with_one_gamma_sign_flipped_fails_as_the_warm_mutant():
    # the warm gamma mutant adds the difference of its flip to the images
    # of a parent that took b squared at the first keys of its orbits; the
    # same theory parsed, the flip of cm[0;0]*cm[0;] written through a
    # table d that the swaps fixing cm[0] map to itself, keeps those swaps,
    # the images at some of its first keys are not zero, and it takes their
    # orbits too
    warm = fresh("grav4")
    run_checks(warm, cli.DEFAULT_CHECKS.split(","))
    mutant = next(build for label, build in mutation_sites(warm)
                  if label.startswith("gamma "))()
    text = pathlib.Path(builtin_path("grav4")).read_text(encoding="utf-8")
    gamma = "gamma { (cm[l]) = sum(m){ cm[l;m]*cm[m;] }; }"
    assert text.count(gamma) == 1
    cold = parse_theory(text.replace("dim 4;", "dim 4;\ntable d[4]{ [0]=1; }")
                        .replace(gamma, "gamma { (cm[l]) = sum(m){ cm[l;m]*"
                                 "cm[m;] } - 2 * d[l] * cm[l;l]*cm[l;]; }"))
    assert cold.gamma == mutant.gamma
    assert cold.derived["b certificate"] == {1: 1, 2: 1}
    assert gvc.brst._orbits(cold)
    reports = [build_report(theory, ["brst"]) for theory in (mutant, cold)]
    assert reports[0]["canonical_sha256"] == reports[1]["canonical_sha256"]
    fails = [[e["target"] for e in report["entries"] if e["status"] == "fail"]
             for report in reports]
    assert fails[0] and fails[0] == fails[1]


@pytest.mark.parametrize("name", ["bf4", "toy", "ym4"])
def test_a_chain_of_edits_digests_as_a_cold_chain(name):
    # each link updates from the one before, whose memo holds objects it
    # derived, objects it kept and parents it never derived: every other
    # check runs on each link, so all three kinds occur
    warm, cold = fresh(name), fresh(name)
    run_checks(warm, cli.CHECK_NAMES)
    firsts = {}
    for label, _build in mutation_sites(warm):
        firsts.setdefault(label.split()[0], label)
    for i, label in enumerate(firsts.values()):
        warm = dict(mutation_sites(warm))[label]()
        run_checks(warm, cli.CHECK_NAMES[i % 2::2])
        cold = dict(mutation_sites(cold))[label]()
    for check in cli.CHECK_NAMES:
        assert build_report(warm, [check])["canonical_sha256"] == \
            build_report(cold, [check])["canonical_sha256"], check


def _doubled_record(theory):
    rec = theory.records[0]
    rows = {key: row.scale(2) for key, row in rec.rows.items()}
    return {"records": (gvc.noether.NoetherRecord(rec.ghost, rec.component,
                                                  rows, rec.stage, rec.h),)
            + theory.records[1:]}


def _removed_record(theory):
    """The last stage-0 record that no stage-1 row targets dropped; None
    when every one is targeted."""
    targets = {(name, comp) for rec in theory.stage_records(1)
               for name, comp, _index in rec.rows}
    free = [i for i, rec in enumerate(theory.records)
            if (rec.ghost, rec.component) not in targets]
    if not free:
        return None
    return {"records": theory.records[:free[-1]]
            + theory.records[free[-1] + 1:]}


# edits that are not sign flips, each a function of the parent to the fields
# it replaces, or to None where it does not apply
_EDITS = {"L doubled": lambda th: {"lagrangian": th.lagrangian.scale(2)},
          "record doubled": _doubled_record,
          # delta' - delta meets Delta' - Delta only when both change
          "L flipped, record doubled": lambda th: {
              "lagrangian": cli._flip_leading(th.lagrangian),
              **_doubled_record(th)},
          # keys leave the residuals and the images of b and the stages
          "record removed": _removed_record,
          "gamma emptied": lambda th: {"gamma": {}},
          "gauge emptied": lambda th: {"gauge_candidate": {}}}


@pytest.mark.parametrize("name", ["bf", "bf4", "toy", "cs3", "ym4",
                                  "ym4_super", "grav4"])
def test_warm_and_cold_edits_agree(name):
    # an edited theory inherits from a warm parent only what the edit leaves
    # unchanged, whatever the edit; the shared parse may be warm already
    warm, cold = cached(name), fresh(name)
    run_checks(warm, cli.CHECK_NAMES)
    edits = ["L doubled"] if name == "grav4" else sorted(_EDITS)
    for edit in edits:
        fields = _EDITS[edit](warm)
        if fields is None:
            continue
        inherits = cli._rebuild(warm, **fields)
        fresh_edit = cli._rebuild(cold, **_EDITS[edit](cold))
        for check in cli.CHECK_NAMES:
            assert build_report(inherits, [check])["canonical_sha256"] == \
                build_report(fresh_edit, [check])["canonical_sha256"], \
                (edit, check)


def test_mutants_of_a_warm_theory_recompute_only_what_their_edit_touches(
        monkeypatch):
    sites = {label.split()[0]: warm
             for label, warm, _cold in reversed(_warm_and_cold_sites("ym4"))}
    for kind in ("gauge", "gamma"):
        assert count_passes(
            monkeypatch, sites[kind](), ["ni", "kt", "extended"]) == [], kind
    assert count_passes(
        monkeypatch, sites["lagrangian"](), ["brst"]) == []
    assert count_passes(
        monkeypatch, sites["gauge"](), ["brst"]) == []
    # an L mutant passes delta' - delta, which is E(L' - L) on the field
    # antifields, over the three parent Delta
    assert count_passes(
        monkeypatch, sites["lagrangian"](), ["ni"]) == [3]
    # a gamma mutant updates b's images: b' - b = gamma' - gamma on every
    # component of the parent's b, then b' on the one component the flip
    # changed
    mutant = sites["gamma"]()
    (u,) = gvc.brst.stored_gauge(mutant)
    n = len(mutant.gamma)
    assert count_passes(
        monkeypatch, mutant, ["brst"]) == [len(u.components) + n, 1]
    # one stage-0 record flipped: delta' - delta, the change of its Delta,
    # on the parent's three Delta, and delta' on that change
    assert count_passes(
        monkeypatch, sites["record"](), ["ni"]) == [3, 1]


def _pairs_multiplied(monkeypatch, build, checks):
    """The ``_mul_terms`` pairs that building a theory and running the
    checks on it take."""
    pairs = [0]
    for mod in (gvc.algebra, gvc.jets, gvc.noether, gvc.brst, gvc.parser):
        def counted(t1, t2, out=None, _fn=mod._mul_terms):
            pairs[0] += len(t1) * len(t2)
            return _fn(t1, t2, out)
        monkeypatch.setattr(mod, "_mul_terms", counted)
    run_checks(build(), checks)
    monkeypatch.undo()
    return pairs[0]


def test_warm_grav4_mutants_take_a_hundredth_of_the_cold_work(monkeypatch):
    # an L or record flip changes E_A, delta_KT, the residuals and u by the
    # images of one monomial, so its updates take a sliver of the pairs of
    # a cold mutant, which redoes the 396,672-pair stage-0 residual pass
    checks = cli.DEFAULT_CHECKS.split(",")
    warm, cold = fresh("grav4"), fresh("grav4")
    run_checks(warm, checks)
    cold_sites = dict(mutation_sites(cold))
    firsts = {}
    for label, build in mutation_sites(warm):
        firsts.setdefault(label.split()[0], (label, build))
    for kind in ("lagrangian", "record"):
        label, build = firsts[kind]
        work = _pairs_multiplied(monkeypatch, build, checks)
        cold_work = _pairs_multiplied(monkeypatch, cold_sites[label], checks)
        assert 0 < 100 * work <= cold_work, (label, work, cold_work)


# The work of every check on a theory with nothing stored: (the _mul_terms
# pairs, the polynomials of each prolong_apply pass); a cold build is the
# update from the empty parent.  bf4 and grav4 take their stage-0 pass over
# one record per orbit of the direction swaps, and grav4 its sums by parts
# over one multi-index per orbit of the swaps that fix its record.  Every
# theory takes one pass of b over its components, and bf4 and toy one of
# u^(1) over those of u; bf, bf4, cs3, ym4, ym4_super and grav4 take them
# over one component per orbit, and toy has no such orbit: cs3 over 7 of
# its 15, as the swaps act on the slots of a, cv and eps3 that carry a
# direction and leave its su(2) index and f alone (15 and 2127 pairs
# when every slot of range dim carried one).  toy takes
# u^(1)(u^A) twice, in b(b^A) and in the stage-1 image.  bf4 and grav4 run
# eta on the first record of each orbit alone and map its part of u onto
# the other members.
_COLD_WORK = {
    "bf": (30, [2, 2]),
    "bf4": (81, [2, 1, 3, 2]),
    "toy": (100, [2, 1, 4, 2, 2]),
    "cs3": (1253, [6, 7]),
    "ym4": (1440, [3, 6]),
    "ym4_super": (6234, [5, 10]),
    "grav4": (63331, [1, 8]),
}


@pytest.mark.parametrize("name", sorted(_COLD_WORK))
def test_a_cold_theory_takes_the_work_of_a_full_build(monkeypatch, name):
    one, two = fresh(name), fresh(name)
    assert (_pairs_multiplied(monkeypatch, lambda: one, cli.CHECK_NAMES),
            count_passes(monkeypatch, two, cli.CHECK_NAMES)
            ) == _COLD_WORK[name]


# The _mul_terms pairs of a parse, powers included.  A factor of a
# product in a sum that computes a polynomial, and a rational beside one,
# is evaluated in the scope of the binders it reads, so grav4's L
# multiplies its factor of the outer direction once per value of it, and
# its contraction over b, c and d the factor of b and c once per value of
# them.  A sum with no direction bound around it is taken at the first
# value of each orbit of its directions, and any other value multiplies
# its factors' images: grav4's L at m = 0, ym4's at m = 0 and 1 for each
# i; gauge components once per orbit of their indices, cs3's a[r,l] once
# per r (198 when its su(2) index r counted as a direction, which refused
# the orbit).  When every factor was evaluated at every binding: bf 6, bf4
# 24, toy 15, cs3 204, ym4 1062, ym4_super 2490, grav4 40064.
_PARSE_WORK = {"bf": 6, "bf4": 24, "toy": 15, "cs3": 150, "ym4": 528,
               "ym4_super": 2436, "grav4": 11544}


@pytest.mark.parametrize("name", sorted(_PARSE_WORK))
def test_a_parse_takes_its_pinned_pairs(monkeypatch, name):
    assert _pairs_multiplied(monkeypatch, lambda: fresh(name), ()) == \
        _PARSE_WORK[name]


@pytest.mark.parametrize("name", ["bf4", "toy"])
def test_every_check_of_a_warm_theory_formats_stored_objects(monkeypatch,
                                                             name):
    # brst, antibracket, the stage-k gauge check and triviality included
    theory = fresh(name)
    run_checks(theory, cli.CHECK_NAMES)
    assert count_passes(
        monkeypatch, theory, cli.CHECK_NAMES) == []


def test_every_memo_key_names_the_fields_it_reads():
    # a key missing from DERIVED_FROM would make _rebuild raise, and a
    # misspelled field would make inherited() keep nothing
    for name in ("bf", "bf4", "toy", "cs3", "ym4", "ym4_super", "grav4"):
        theory = cached(name)
        run_checks(theory, cli.CHECK_NAMES)
        assert set(theory.derived) <= set(gvc.noether.DERIVED_FROM), name
    fields = set(gvc.noether._UNREAD).union(*gvc.noether.DERIVED_FROM.values())
    assert fields == set(TheorySpec.__slots__) - {"derived"}
    # an update reads its own key, memo objects and fields
    for key, reads in gvc.noether.READS.items():
        assert key in reads and set(reads) <= set(gvc.noether.DERIVED_FROM) \
            | {"lagrangian", "records", "gamma"}, key


_BF_WITH_S = pathlib.Path(builtin_path("bf")).read_text(
    encoding="utf-8").replace("field B[3] even;",
                              "field B[3] even;\nfield s even;")


# The gauge and extended checks rest on E_c(sum_A u^A E_A) = delta_KT(Delta),
# which needs L even and field-only, field-only row coefficients, and no
# ghost in h.  Each input below breaks that rule, so that the checks could
# disagree on it; every check refuses it the same way.
@pytest.mark.parametrize("text, message", [
    (_BF_WITH_S.replace("B[l;n] };", "B[l;n] } + s*s*s;").replace(
        "(A[m]; m) = -1;", "(A[m]; m) = -1; (s) = s_bar * A_bar[0];"),
     "record e[]: row coefficients must hold only fields, not A_bar[0;] "
     "(line 10, column 1)"),
    (_BF_WITH_S.replace("B[l;n] };", "B[l;n] } + s * s_bar * A_bar[0];"),
     "L must hold only fields, not A_bar[0;] (line 9, column 1)"),
    ("dim 1; field s even; field t even; L = s[;0] * t[;0];\n"
     "ni c[] { (s; 0) = 1; }\nni e[] { (t[]; 0) = c[;] * s[;]; }",
     "record e[]: row coefficients must hold only fields, not c "
     "(line 3, column 1)"),
    ("dim 1; field y even; field z even; L = 1/2 * (y[;0] - z)^2;\n"
     "ni ca[] { (y) = 1; (z; 0) = -1; }\nni cb[] { (y) = 1; (z; 0) = -1; }\n"
     "stage 1 ps[] { (ca) = 1; (cb) = -1; h { ca * y_bar }; }",
     "record ps[]: h must hold no ghost, not ca (line 4, column 1)"),
    ("dim 1; field s even; field p odd; L = s * p[;0];\n"
     "ni c[] { (s; 0) = 1; }", "L must be even (line 1, column 35)"),
])
def test_inputs_outside_the_identity_exit_2(tmp_path, capsys, text, message):
    path = tmp_path / "theory.gvc"
    path.write_text(text)
    for check in ("ni", "kt", "extended", "gauge", "brst"):
        assert run(["verify", "--theory", str(path), "--check", check]) == 2
        assert capsys.readouterr().err == "error: %s\n" % message


# Each file breaks an input rule that only some checks used to test, so its
# exit code hung on --check: an h of another parity than its ghost, a gamma
# holding an antifield, a gamma that makes b even.  The theory is refused
# when it is built, with a position, whatever the check.
_OUTSIDE_THE_CONTRACT = {
    "h-parity": (
        "dim 1; field x even; field p odd; L = x[;0] * x[;0];\n"
        "ni c0[] { (x) = p; }\n"
        "stage 1 s0[] { (c0) = p; h { x_bar * p_bar }; }",
        "record s0[]: h must be even, the parity of its ghost "
        "(line 3, column 1)"),
    "gamma-antifield": (
        "dim 1; field x even; L = x[;0] * x[;0];\nni c[] { (x; 0) = 1; }\n"
        "gamma { (c) = x_bar * c[;0]; }",
        "gamma component for c[] must hold no antifield, not x_bar "
        "(line 3, column 9)"),
    "gamma-even-b": (
        "dim 1; field x even; L = x[;0] * x[;0];\nni c[] { (x; 0) = 1; }\n"
        "gamma { (c) = c[;0]; }",
        "gamma component for c[] must be even, so that b is odd "
        "(line 3, column 9)"),
}


@pytest.mark.parametrize("check", cli.CHECK_NAMES)
@pytest.mark.parametrize("text, message", list(_OUTSIDE_THE_CONTRACT.values()),
                         ids=list(_OUTSIDE_THE_CONTRACT))
def test_inputs_outside_the_contract_exit_2_on_every_check(
        tmp_path, capsys, text, message, check):
    path = tmp_path / "theory.gvc"
    path.write_text(text)
    assert run(["verify", "--theory", str(path), "--check", check]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


def _json_report(capsys, argv):
    code = run(argv + ["--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def test_env_var_sets_the_default_jet_order(tmp_path, capsys, monkeypatch):
    path = tmp_path / "mini.gvc"
    path.write_text(MINI)
    monkeypatch.setenv("GVC_JET_ORDER", "5")
    code, rep = _json_report(capsys, ["verify", "--theory", str(path),
                                      "--check", "ni"])
    assert code == 0
    assert rep["jet_order"] == 5
    # an explicit flag still wins over the environment
    code, rep = _json_report(capsys, ["verify", "--theory", str(path),
                                      "--check", "ni", "--jet-order", "6"])
    assert rep["jet_order"] == 6


def test_bad_env_var_is_reported(capsys, monkeypatch):
    monkeypatch.setenv("GVC_JET_ORDER", "ten")
    assert run(["verify", "--builtin", "bf", "--check", "ni"]) == 2
    err = capsys.readouterr().err
    assert "error: GVC_JET_ORDER must be an integer, got 'ten'" in err


@pytest.mark.parametrize("cap", ["0", "17", "99999999999999999999"])
def test_out_of_range_jet_order_exits_2(tmp_path, capsys, monkeypatch, cap):
    path = tmp_path / "mini.gvc"
    path.write_text(MINI)
    capped = tmp_path / "capped.gvc"
    capped.write_text(MINI.replace("dim 1;\n", "dim 1;\njet_order %s;\n" % cap))
    argv = ["verify", "--theory", str(path), "--check", "ni"]
    # the file statement, the flag and the environment each reject it
    assert run(["verify", "--theory", str(capped), "--check", "ni"]) == 2
    assert run(argv + ["--jet-order", cap]) == 2
    monkeypatch.setenv("GVC_JET_ORDER", cap)
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    assert all("jet-order cap must be between 1 and 16" in e for e in err)
    # the file statement keeps its position; the flag and the environment
    # are named instead, with no position in a file that holds no bad value
    assert err[0].startswith("error: ")
    assert err[0].endswith("(line 3, column 1)")
    assert err[1].startswith("error: --jet-order: ")
    assert err[2].startswith("error: GVC_JET_ORDER: ")
    assert "line" not in err[1] + err[2]


def test_json_report_shape_and_entry_order(capsys):
    code, rep = _json_report(capsys, ["verify", "--builtin", "bf"])
    assert code == 0
    assert sorted(rep) == ["canonical_sha256", "checks", "entries",
                           "jet_order", "mutation", "overall", "theory"]
    assert rep["checks"] == ["ni", "kt", "gauge", "brst"]
    keys = [(e["check"], e["target"], e["status"]) for e in rep["entries"]]
    assert keys == sorted(keys)
    assert all(e["status"] == "pass" for e in rep["entries"])


def test_out_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code = run(["verify", "--builtin", "bf", "--check", "ni",
                "--format", "json", "--out", str(dest)])
    assert code == 0
    assert capsys.readouterr().out == "wrote %s (overall: pass)\n" % dest
    rep = json.loads(dest.read_text())
    assert rep["overall"] == "pass"


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    dest = tmp_path / "missing" / "report.txt"
    code = run(["verify", "--builtin", "bf", "--check", "ni",
                "--out", str(dest)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write report: ")
    assert "Traceback" not in captured.err
    assert not dest.exists()


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_max_residual_terms_below_one_exits_2(capsys, limit):
    code = run(["verify", "--builtin", "bf", "--mutate", "sign",
                "--check", "ni", "--max-residual-terms", limit])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --max-residual-terms must be at least 1, got %s\n" % limit)


def test_canonical_digest_is_reproducible():
    bf = cached("bf")
    first = build_report(bf, ["ni", "kt"])
    second = build_report(bf, ["ni", "kt"])
    assert first["canonical_sha256"] == second["canonical_sha256"]
    # the digest covers everything except wall times and itself
    doc = {k: v for k, v in first.items() if k != "canonical_sha256"}
    doc["entries"] = [{k: v for k, v in e.items() if k != "time"}
                      for e in first["entries"]]
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert first["canonical_sha256"] == hashlib.sha256(
        blob.encode("utf-8")).hexdigest()
    mutant, label = apply_sign_mutation(bf)
    other = build_report(mutant, ["ni", "kt"], "sign (%s)" % label)
    assert other["canonical_sha256"] != first["canonical_sha256"]


def test_parse_checks_orders_and_dedups():
    assert _parse_checks("kt,ni") == ["ni", "kt"]
    assert _parse_checks("ni, ni ,brst") == ["ni", "brst"]
    from gvc.algebra import GvcError
    with pytest.raises(GvcError, match="no checks selected"):
        _parse_checks(" , ")


def test_mutation_site_labels():
    bf = cached("bf")
    sites = mutation_sites(bf)
    assert [label for label, _build in sites] == [
        "lagrangian", "record e[]", "record x[]",
        "gauge A[0]", "gauge A[1]", "gauge A[2]",
        "gauge B[0]", "gauge B[1]", "gauge B[2]"]
    before = bf.lagrangian
    mutants = [build() for _label, build in sites]
    assert bf.lagrangian == before  # the original is never modified
    assert mutants[0].lagrangian != before
    bf4 = cached("bf4")
    assert [label for label, _build in mutation_sites(bf4)] == [
        "lagrangian", "record e[]", "record x[0]", "record x[1]",
        "record x[2]", "record x[3]", "stage record xi[]",
        "gauge A[0]", "gauge A[1]", "gauge A[2]", "gauge A[3]",
        "gauge B[0,1]", "gauge B[0,2]", "gauge B[0,3]", "gauge B[1,2]",
        "gauge B[1,3]", "gauge B[2,3]",
        "gauge x[0]", "gauge x[1]", "gauge x[2]", "gauge x[3]"]
    ym = cached("ym4")
    labels = [label for label, _build in mutation_sites(ym)]
    assert "gamma c[0]" in labels
    assert len(labels) >= 5
    _mut, label = apply_sign_mutation(ym)
    assert label == "sign of leading gamma term on c[0]"


def _flipped_polys(theory):
    """The polynomial each mutation site flips a sign of, in site order."""
    polys = [theory.lagrangian] if theory.lagrangian.variables() else []
    polys += [rec.rows[sorted(rec.rows)[0]]
              for k in [0] + theory.stage_numbers()
              for rec in theory.stage_records(k)]
    return polys + [block[key] for block in (theory.gauge_candidate or {},
                                             theory.gamma)
                    for key in sorted(block) if not block[key].is_zero()]


@pytest.mark.parametrize("name", ["bf", "bf4", "toy", "cs3", "ym4",
                                  "ym4_super", "grav4"])
def test_a_flip_takes_the_first_term_in_print_order(name):
    # the first non-constant term that global_terms orders, or the constant
    # when it is the only term
    theory = cached(name)
    polys = _flipped_polys(theory)
    assert len(polys) == len(mutation_sites(theory))
    for poly in polys:
        rows = poly.global_terms()
        want = next((key for key, _c, evens, odds in rows if evens or odds),
                    rows[0][0])
        flipped = cli._flip_leading(poly).terms
        assert [key for key, c in poly.terms.items()
                if flipped[key] != c] == [want]
        assert flipped[want] == -poly.terms[want]


def test_residual_truncation_helper():
    reg = Registry(1)
    names = ["s"] + ["s%d" % i for i in range(1, 8)]
    for name in names:
        reg.declare_field(name)
    s, s1, s2, s3, s4, s5, s6, s7 = [reg.var(name) for name in names]
    assert _residual_text(s + s1 + s2 - s3 + s4 + s5 + s6 - s7, 3) == \
        "s + s1 + s2 + [truncated: 3 of 8 terms shown]"
    assert _residual_text(s + s1, 3) == "s + s1"
    assert _residual_text(-s - s1 - s2 - s3, 2) == \
        "-s - s1 + [truncated: 2 of 4 terms shown]"


def test_residual_truncation_in_reports(capsys):
    code = run(["verify", "--builtin", "ym4", "--mutate", "sign",
                "--check", "brst", "--max-residual-terms", "1"])
    assert code == 1
    out = capsys.readouterr().out
    assert "residual: 2*c[1;]*c[2;0] + [truncated: 1 of 2 terms shown]" in out
    assert "note: failing ghost degrees: 2" in out


def test_default_checks_constant_is_valid():
    assert _parse_checks(cli.DEFAULT_CHECKS) == ["ni", "kt", "gauge", "brst"]
