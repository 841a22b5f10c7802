"""Gauge operators from records, stage conditions, BRST nilpotency."""
from fractions import Fraction

import pytest

from gvc.algebra import GradedPoly, GvcError, _mul_terms
from gvc.brst import (
    BRSTCandidate,
    GaugeOperator,
    check_antibracket,
    check_brst_nilpotent,
    check_gauge_symmetry,
    brst_candidate,
    gauge_from_ni,
    lie_antibracket_defect,
)
from gvc.jets import EvolutionaryDerivation, nilpotency_residuals
from gvc.noether import _el, verify_ni
from gvc.theories import osp12
from gvc.variational import variational_derivative
from conftest import all_pass


def ghost_variation_residuals(theory):
    """Variational derivatives of the pairing sum u^A E_A with respect to
    every stage-0 ghost component: zero exactly when the records hold."""
    u = gauge_from_ni(theory).stages[0]
    el = _el(theory)
    terms = {}
    for (name, comp), ups in u.components.items():
        _mul_terms(ups.terms, el.get(name, comp).terms, terms)
    pairing = GradedPoly(theory.registry, terms)
    out = {}
    for rec in theory.records:
        res = variational_derivative(pairing, rec.ghost, rec.component)
        if not res.is_zero():
            out[(rec.ghost, rec.component)] = res
    return out


def test_bf_operator_matches_declared_candidate(bf):
    g = gauge_from_ni(bf)
    reg = bf.registry
    for mu in range(3):
        assert g.stages[0].components[("A", (mu,))] == reg.var("e", (), (mu,))
        assert g.stages[0].components[("B", (mu,))] == reg.var("x", (), (mu,))
    assert g.stages[0].components == bf.gauge_candidate
    all_pass(check_gauge_symmetry(bf, 0))
    all_pass(check_brst_nilpotent(brst_candidate(bf)))
    all_pass(check_antibracket(bf))
    assert not ghost_variation_residuals(bf)


def test_bf4_reducible_tower(bf4):
    g = gauge_from_ni(bf4)
    reg = bf4.registry
    for nu in range(4):
        for rho in range(nu + 1, 4):
            want = reg.var("x", (rho,), (nu,)) - reg.var("x", (nu,), (rho,))
            assert g.stages[0].components[("B", (nu, rho))] == want
            assert bf4.gauge_candidate[("B", (nu, rho))] == want
    for rho in range(4):
        assert g.stages[1].components[("x", (rho,))] == reg.var("xi", (), (rho,))
    assert any(not u.is_zero() for u in g.stages[1:])
    all_pass(check_gauge_symmetry(bf4, 0))
    all_pass(check_gauge_symmetry(bf4, 1))  # closes off shell, no alpha needed
    all_pass(check_gauge_symmetry(bf4, 2))  # vacuous
    all_pass(check_brst_nilpotent(brst_candidate(bf4)))
    all_pass(check_antibracket(bf4))


def test_vacuous_stage_condition_notes(bf):
    entries = check_gauge_symmetry(bf, 3)
    assert entries == [{"check": "gauge", "target": "stage 3",
                        "status": "pass",
                        "note": "no stage-3 records declared"}]


def test_alpha_certificates_close_on_shell_conditions(toy):
    all_pass(check_gauge_symmetry(toy, 0))
    bare = check_gauge_symmetry(toy, 1, alpha={})
    assert {e["status"] for e in bare} == {"unverified-on-shell"}
    assert all("without alpha" in e["note"] for e in bare)
    certified = all_pass(check_gauge_symmetry(toy, 1, alpha=toy.alpha(1)))
    assert all("with alpha certificate" in e["note"] for e in certified)
    # the default pulls the declared alpha block
    all_pass(check_gauge_symmetry(toy, 1))


def test_toy_ascent_operator_is_not_nilpotent(toy):
    """On-shell-only stage conditions show up as a genuine b^2 failure."""
    entries = check_brst_nilpotent(brst_candidate(toy))
    assert {e["target"] for e in entries if e["status"] == "fail"} == \
        {"y[]", "z[]"}


def test_ym_brst_cube(ym4):
    all_pass(verify := check_gauge_symmetry(ym4, 0))
    assert verify[0]["target"] == "u"
    cand = brst_candidate(ym4)
    all_pass(check_brst_nilpotent(cand))
    all_pass(check_antibracket(ym4))
    assert not ghost_variation_residuals(ym4)
    g1 = EvolutionaryDerivation(ym4.registry, ym4.gamma)
    assert not nilpotency_residuals(g1)
    defects = lie_antibracket_defect(gauge_from_ni(ym4).stages[0], g1)
    assert all(v.is_zero() for v in defects.values())


def test_doubled_gamma_fails_in_the_quadratic_bucket(ym4):
    bad_gamma = {k: v.scale(2) for k, v in ym4.gamma.items()}
    bad = BRSTCandidate(gauge_from_ni(ym4), bad_gamma)
    entries = check_brst_nilpotent(bad)
    fails = [e for e in entries if e["status"] == "fail"]
    assert fails
    for e in fails:
        assert e["note"] == "failing ghost degrees: 2"
        assert e["residual"]


def test_antibracket_normalization_note(ym4):
    (entry,) = check_antibracket(ym4)
    assert entry["status"] == "pass"
    assert entry["note"] == "commutator normalization [u,u] = -2*gamma(u) holds"


def test_gauge_operator_guards(bf):
    reg = bf.registry
    even = EvolutionaryDerivation(reg, {("A", (0,)): reg.var("A", (1,))})
    with pytest.raises(GvcError, match="must be odd"):
        GaugeOperator([even])
    g = gauge_from_ni(bf)
    with pytest.raises(GvcError, match="only act on ghosts"):
        BRSTCandidate(g, {("A", (0,)): reg.var("e", (), (0,))})
    with pytest.raises(GvcError, match="contains antifields"):
        BRSTCandidate(g, {("e", ()): reg.var("x") * reg.var("A_bar", (0,))})


def test_super_instance_needs_sign_decorated_gamma(ym4_super):
    """For a graded gauge algebra the quadratic gamma coefficients carry
    (-1) on odd directions; the plain formula is not nilpotent."""
    sup = ym4_super
    reg = sup.registry
    entries = all_pass(verify_ni(sup))
    assert len(entries) == 5
    g = gauge_from_ni(sup)
    assert g.stages[0].components == sup.gauge_candidate
    all_pass(check_brst_nilpotent(brst_candidate(sup)))
    all_pass(check_antibracket(sup))
    plain = {}
    for r in range(5):
        out = reg.zero
        for (rr, i, j), v in osp12().c.items():
            if rr == r:
                out = out + (reg.var("c", (i,)) * reg.var("c", (j,))).scale(
                    Fraction(-v, 2))
        plain[("c", (r,))] = out
    entries = check_brst_nilpotent(BRSTCandidate(g, plain))
    assert any(e["status"] == "fail" for e in entries)
