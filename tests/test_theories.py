"""The shipped fixture catalog: files, generators, validation, worked demo."""
import gc
import itertools
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gvc.algebra import GvcError
from gvc.brst import check_brst_nilpotent, check_gauge_symmetry
from gvc.cli import DEFAULT_CHECKS, build_report, mutation_sites
from gvc.jets import EvolutionaryDerivation, prolong_apply, total_derivative
from gvc.noether import (NoetherRecord, _entry, assemble_kt,
                         check_kt_nilpotent, solve_trivial_witness, verify_ni)
from gvc.parser import parse_theory
from gvc.variational import check_variational_symmetry, euler_lagrange
from gvc import theories as T
from conftest import all_pass, cached, fresh


def test_files_match_their_generators():
    for name in T.BUILTINS:
        with open(T.builtin_path(name), encoding="utf-8") as fh:
            assert fh.read() == T.fixture_text(name), name
    with open(T.builtin_path("ym4_super"), encoding="utf-8") as fh:
        assert fh.read() == T.fixture_text("ym4", algebra="osp12")


@pytest.mark.parametrize("name", T.BUILTINS + ("ym4_super",))
def test_a_theory_is_freed_with_its_last_reference(name):
    # nothing of a parsed theory, its mutants or what their checks store
    # sits in a reference cycle, so its memory goes at the last ``del``
    # rather than at whichever collection comes next
    enabled = gc.isenabled()
    gc.disable()
    try:
        theory = fresh(name)
        mutant = mutation_sites(theory)[0][1]()
        for th in (theory, mutant):
            build_report(th, DEFAULT_CHECKS.split(","))
        registry = weakref.ref(theory.registry)
        del theory, mutant, th
        assert registry() is None
    finally:
        if enabled:
            gc.enable()


def test_builtin_name_guards():
    with pytest.raises(GvcError, match="unknown fixture"):
        T.fixture_text("nosuch")
    with pytest.raises(GvcError, match="no shipped fixture"):
        T.builtin_path("nosuch")
    with pytest.raises(GvcError, match="unsupported BF split"):
        T.fixture_text("bf", n=5, p=2, q=2)


def test_structure_constants_keep_the_coefficient_rule():
    # ints when integral, so validate runs the Jacobi check in ints
    for sc in (T.su2(), T.osp12()):
        assert {type(v) for v in sc.c.values()} == {int}
        assert {type(v) for v in sc.casimir.values()} == {int}
        assert type(sc.bracket(0, 0, 0)) is int and sc.bracket(0, 0, 0) == 0
        assert type(sc.form(0, 1)) is int and sc.form(0, 1) == 0
    half = T.StructureConstants(1, (0,), {(0, 0, 0): Fraction(2, 2)},
                                {(0, 0): Fraction(1, 2)})
    assert type(half.c[(0, 0, 0)]) is int
    assert half.form(0, 0) == Fraction(1, 2)


def test_structure_constant_validation():
    T.su2().validate()
    T.osp12().validate()

    bad = T.su2()
    bad.c[(0, 1, 2)] = Fraction(2)
    with pytest.raises(GvcError, match="not graded-antisymmetric"):
        bad.validate()

    bad = T.su2()
    # still antisymmetric, but closes wrong: [e0,e0] would have to be 2*e1
    bad.c[(0, 0, 1)] = Fraction(1)
    bad.c[(0, 1, 0)] = Fraction(-1)
    with pytest.raises(GvcError, match="Jacobi identity fails"):
        bad.validate()

    bad = T.su2()
    bad.casimir[(0, 1)] = Fraction(1)
    with pytest.raises(GvcError, match="not graded-symmetric"):
        bad.validate()

    with pytest.raises(GvcError, match="degenerate"):
        T.StructureConstants(2, (0, 0), {}, {(0, 0): 1}).validate()


def _dense_validate(sc):
    """The message of the first rule ``sc`` breaks, each checked over every
    index in order as ``validate`` once did, or None: the reference for
    the sparse checks."""
    n, par, c, k = sc.dim, sc.parities, sc.bracket, sc.form
    rng = range(n)
    for (r, i, j) in sc.c:
        if not (0 <= r < n and 0 <= i < n and 0 <= j < n):
            return "bracket index %r out of range" % ((r, i, j),)
        if par[r] != (par[i] + par[j]) % 2:
            return "bracket entry %r violates the grading" % ((r, i, j),)

    def sgn(i, j):
        return -1 if par[i] and par[j] else 1
    for r, i, j in itertools.product(rng, repeat=3):
        if c(r, i, j) != -sgn(i, j) * c(r, j, i):
            return "bracket not graded-antisymmetric at %r" % ((r, i, j),)
    for r, i, j, l in itertools.product(rng, repeat=4):
        lhs = sum(c(s, j, l) * c(r, i, s) for s in rng)
        rhs = sum(c(s, i, j) * c(r, s, l) for s in rng) + sgn(i, j) * sum(
            c(s, i, l) * c(r, j, s) for s in rng)
        if lhs != rhs:
            return "graded Jacobi identity fails at %r" % ((r, i, j, l),)
    for (i, j) in sc.casimir:
        if par[i] != par[j]:
            return "Casimir form pairs opposite parities at %r" % ((i, j),)
    for i, j in itertools.product(rng, repeat=2):
        if k(j, i) != sgn(i, j) * k(i, j):
            return "Casimir form not graded-symmetric at %r" % ((i, j),)
    for i, j, l in itertools.product(rng, repeat=3):
        if sum(c(s, i, j) * k(s, l) for s in rng) != \
                sum(k(i, s) * c(s, j, l) for s in rng):
            return "Casimir form not invariant at %r" % ((i, j, l),)
    return None


@settings(max_examples=200)
@given(st.data())
def test_validation_names_the_first_failing_index_of_a_dense_scan(data):
    # entries planted into su2 or osp12, mostly within the grading and often
    # in graded-antisymmetric pairs, so that each later check is reached
    sc = data.draw(st.sampled_from([T.su2, T.osp12]))()
    n, par = sc.dim, sc.parities
    index = st.integers(0, n - 1)
    value = st.sampled_from([0, 1, -1, 2, Fraction(1, 2)])
    for _ in range(data.draw(st.integers(1, 3))):
        if data.draw(st.integers(0, 2)):
            r, i, j = (data.draw(index) for _ in range(3))
            if data.draw(st.integers(0, 5)):
                r = next((r2 for r2 in range(n)
                          if par[r2] == (par[i] + par[j]) % 2), r)
            sc.c[r, i, j] = v = data.draw(value)
            if data.draw(st.booleans()):
                sc.c[r, j, i] = -v if not (par[i] and par[j]) else v
        else:
            i, j = data.draw(index), data.draw(index)
            sc.casimir[i, j] = data.draw(value)
    for table in (sc.c, sc.casimir):
        for key in [key for key, v in table.items() if not v]:
            del table[key]
    try:
        sc.validate()
        got = None
    except GvcError as exc:
        got = str(exc)
    want = _dense_validate(sc)
    assert got == want or want is None and got.startswith("Casimir form is "
                                                          "degenerate")


def test_bracket_and_form_lookup():
    sc = T.su2()
    assert sc.bracket(2, 0, 1) == 1
    assert sc.bracket(2, 1, 0) == -1
    assert sc.bracket(0, 0, 0) == 0
    assert sc.form(1, 1) == 1
    assert sc.form(0, 1) == 0


def test_bf_splits():
    bf = cached("bf")
    assert bf.name == "bf"
    assert bf.stage_numbers() == []
    bf4 = cached("bf4")
    assert bf4.name == "bf4"
    assert bf4.stage_numbers() == [1]
    assert bf4.registry.symbols["B"].symmetry == "antisym"


def test_ym_su2_chain(ym4):
    all_pass(verify_ni(ym4))
    all_pass(check_kt_nilpotent(ym4))
    all_pass(check_gauge_symmetry(ym4, 0))
    all_pass(check_brst_nilpotent(ym4))


def test_super_instance_parities_and_density(ym4_super):
    sup = ym4_super
    reg = sup.registry
    sc = T.osp12()
    assert reg.symbols["a"].parities == (0, sc.parities)
    flipped = tuple((p + 1) % 2 for p in sc.parities)
    assert reg.symbols["c"].parities == (0, flipped)

    def a(r, lam, *jets):
        return reg.var("a", (r, lam), jets)

    G = [1, -1, -1, -1]

    def field_strength(i, lam, be):
        out = a(i, be, lam) - a(i, lam, be)
        for (r, p, q), v in sc.c.items():
            if r == i:
                out = out + (a(p, lam) * a(q, be)).scale(v)
        return out

    L = reg.zero
    for (i, j), h in sc.casimir.items():
        for lam in range(4):
            for be in range(4):
                L = L + (field_strength(i, lam, be)
                         * field_strength(j, lam, be)).scale(
                    Fraction(h * G[lam] * G[be], 4))
    assert sup.lagrangian == L
    assert sup.lagrangian.num_terms() == 414


def test_custom_algebra_must_validate():
    bad = T.su2()
    bad.c[(0, 1, 2)] = Fraction(2)
    with pytest.raises(GvcError, match="not graded-antisymmetric"):
        T.build_fixture("ym4", algebra=bad)


def test_cs_field_equation_is_the_dual_curvature(cs3):
    reg = cs3.registry
    sc = T.su2()

    def a(r, lam, *jets):
        return reg.var("a", (r, lam), jets)

    def curv(i, lam, mu):
        out = a(i, mu, lam) - a(i, lam, mu)
        for (r, p, q), v in sc.c.items():
            if r == i:
                out = out + (a(p, lam) * a(q, mu)).scale(v)
        return out

    eps = T._eps(3)
    el = euler_lagrange(cs3.lagrangian, wrt={"a"})
    for r in range(3):
        for lam in range(3):
            want = reg.zero
            for p in range(3):
                h = sc.casimir.get((r, p), 0)
                if not h:
                    continue
                for (l2, be, ga), s in eps.items():
                    if l2 == lam:
                        want = want + curv(p, be, ga).scale(s * h)
            assert el.get("a", (r, lam)) == want, (r, lam)


def _el_text(res):
    return {k: v.pretty() for k, v in res.components.items() if not v.is_zero()}


def test_cs_background_terms_do_not_reach_the_field_equation(cs3):
    el = euler_lagrange(cs3.lagrangian, wrt={"a"})
    free = T.build_fixture("cs3", background=None)
    assert cs3.lagrangian.num_terms() != free.lagrangian.num_terms()
    assert _el_text(euler_lagrange(free.lagrangian, wrt={"a"})) == _el_text(el)
    other = T.build_fixture("cs3",
                            background={(0, 0): Fraction(7, 3), (2, 1): -1})
    assert _el_text(euler_lagrange(other.lagrangian, wrt={"a"})) == _el_text(el)
    all_pass(verify_ni(free))


def test_grav_parse_pins():
    gt = cached("grav4")
    assert gt.registry.jet_order == 3
    assert gt.lagrangian.num_terms() == 6432
    assert len(gt.records) == 4
    assert gt.registry.symbols["sigma"].symmetry == "sym"
    assert set(gt.gamma) == {("cm", (l,)) for l in range(4)}


# ---------------------------------------------------------------------------
# worked triviality comparison on the Chern-Simons fixture


def _cs5_text():
    return """theory cs5;
dim 5;
%s
field a[5] even;
L = sum(m,n,r,s,t){ eps5[m,n,r,s,t] * a[m;] * a[r;n] * a[t;s] };
ni cv[w:5] { (a[l];) = a[w;l] - a[l;w]; }
""" % T._table_text("eps5", (5,) * 5, T._eps(5), per_line=5)


def cs_triviality_demo():
    """Worked comparison of the two symmetry presentations of ``cs3``.

    The fixture declares gauge records (one per internal direction) and
    base-translation records (one per base direction).  Contracting the
    curvature into the translation identities gives an equivalent
    presentation whose records are Koszul-Tate boundaries; the demo derives
    those certificates, rewrites the declared operator through the ghost
    shift c' = c - a.cv, and confirms that what is left over is exactly the
    curvature contraction -- so the only symmetry surviving the rewriting is
    the gauge one.  A five-dimensional analogue runs last: its curvature
    identity still holds, but no quadratic certificate exists, and the
    report says so instead of claiming triviality.
    """
    th = T.load_builtin("cs3")
    reg = th.registry
    sc = T.su2()
    entries = list(verify_ni(th))

    def a(r, lam, *jets):
        return reg.var("a", (r, lam), jets)

    def curv(r, lam, mu):
        out = a(r, mu, lam) - a(r, lam, mu)
        for (s, p, q), v in sc.c.items():
            if s == r:
                out = out + (a(p, lam) * a(q, mu)).scale(v)
        return out

    declared = {(rec.ghost, rec.component): rec for rec in th.records}
    primes = []
    for mu in range(3):
        rows = {}
        for r in range(3):
            for lam in range(3):
                coeff = curv(r, lam, mu)
                if not coeff.is_zero():
                    rows[("a", (r, lam), ())] = coeff
        rec = NoetherRecord("cv'", (mu,), rows)
        primes.append(rec)
        res = prolong_apply(assemble_kt(th), [rec.delta_poly(reg)])[0]
        entries.append(_entry("ni", rec.label(),
                              "pass" if res.is_zero() else "fail", res,
                              note="curvature presentation"))

    # The two presentations differ by field multiples of the gauge records,
    # which is what makes them equivalent as identities.
    for mu in range(3):
        want = declared[("cv", (mu,))].delta_poly(reg)
        for j in range(3):
            want = want + a(j, mu) * declared[("c", (j,))].delta_poly(reg)
        diff = primes[mu].delta_poly(reg) - want
        entries.append(_entry(
            "equivalence", primes[mu].label(),
            "pass" if diff.is_zero() else "fail", diff,
            note="equals declared record plus field multiples of gauge records"))

    for rec in primes:
        H = solve_trivial_witness(th, rec)
        if H is None:
            entries.append(_entry("triviality", rec.label(), "fail",
                                  note="no quadratic certificate found"))
        else:
            ok = prolong_apply(assemble_kt(th), [H])[0] == rec.delta_poly(reg)
            entries.append(_entry(
                "triviality", rec.label(), "pass" if ok else "fail",
                note="boundary certificate with %d terms" % H.num_terms()))
    for j in range(3):
        rec = declared[("c", (j,))]
        H = solve_trivial_witness(th, rec)
        if H is None:
            entries.append(_entry(
                "triviality", rec.label(), "skipped",
                note="not certified trivial by the quadratic ansatz"))
        else:
            entries.append(_entry(
                "triviality", rec.label(), "fail",
                note="gauge record unexpectedly certified trivial"))

    # Ghost shift: u on a (declared) = standard gauge transformation of the
    # shifted ghost + curvature contracted with the translation ghost.
    def cprime(r):
        out = reg.var("c", (r,))
        for mu in range(3):
            out = out - a(r, mu) * reg.var("cv", (mu,))
        return out

    reduced = {}
    defect = reg.zero
    for r in range(3):
        for lam in range(3):
            expr = total_derivative(cprime(r), lam)
            for (s, p, q), v in sc.c.items():
                if s == r:
                    expr = expr - (cprime(p) * a(q, lam)).scale(v)
            reduced[("a", (r, lam))] = expr
            diff = th.gauge_candidate[("a", (r, lam))] - expr
            for mu in range(3):
                diff = diff - reg.var("cv", (mu,)) * curv(r, lam, mu)
            defect = defect + diff
    entries.append(_entry(
        "rewriting", "declared operator",
        "pass" if defect.is_zero() else "fail", defect,
        note="ghost shift leaves exactly the curvature contraction"))
    u_red = EvolutionaryDerivation(reg, reduced)
    ok = check_variational_symmetry(u_red, th.lagrangian)
    entries.append(_entry(
        "rewriting", "reduced operator", "pass" if ok else "fail",
        note="shifted-ghost gauge transformation is a variational symmetry"))

    five = parse_theory(_cs5_text())
    for ent in verify_ni(five):
        ent["note"] = "five-dimensional analogue"
        entries.append(ent)
    for rec in five.records:
        H = solve_trivial_witness(five, rec)
        if H is None:
            entries.append(_entry(
                "triviality", rec.label(), "skipped",
                note="five-dimensional analogue: not certified trivial "
                     "by the quadratic ansatz"))
        else:
            entries.append(_entry(
                "triviality", rec.label(), "fail",
                note="five-dimensional analogue unexpectedly certified"))

    status = "pass"
    if any(e["status"] == "fail" for e in entries):
        status = "fail"
    return {"theory": "cs3", "status": status, "entries": entries}


def test_triviality_demo_profile():
    rep = cs_triviality_demo()
    assert rep["theory"] == "cs3"
    assert rep["status"] == "pass"
    by = {}
    for e in rep["entries"]:
        by.setdefault((e["check"], e["status"]), []).append(e)
    assert len(by[("ni", "pass")]) == 6 + 3 + 5  # declared, curvature, dim-5
    assert len(by[("equivalence", "pass")]) == 3
    assert len(by[("triviality", "pass")]) == 3
    assert len(by[("triviality", "skipped")]) == 3 + 5
    assert len(by[("rewriting", "pass")]) == 2
    assert ("triviality", "fail") not in by
    assert not any(status == "fail" for (_c, status) in by)
    for e in by[("triviality", "pass")]:
        assert "boundary certificate" in e["note"]
    notes = [e.get("note", "") for e in rep["entries"]]
    assert any("curvature presentation" in n for n in notes)
    assert any("five-dimensional analogue" in n for n in notes)
