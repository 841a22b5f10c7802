"""Gauge operators from records, stage conditions, BRST nilpotency."""
import importlib.util
import pathlib
from fractions import Fraction

import pytest

import gvc.brst
import gvc.jets
import gvc.noether
from gvc.algebra import GradedPoly, GvcError, Registry, _mul_terms
from gvc.brst import (
    check_antibracket,
    check_brst_nilpotent,
    check_gauge_symmetry,
    gauge_from_ni,
    stored_gauge,
)
from gvc.cli import _rebuild, run_checks
from gvc.jets import EvolutionaryDerivation
from gvc.noether import NoetherRecord, _el, verify_ni
from gvc.parser import TheorySpec, parse_theory
from gvc.symmetry import DirectionSwap, direction_swap
from gvc.theories import builtin_path, fixture_text, osp12
from gvc.variational import variational_derivative
from conftest import all_pass, certified_swaps_hold, count_calls, \
    count_passes, derivation_sum, fresh, nilpotency_residuals, part_sign, \
    prolong_oracle, two_routes, uncertified


def ghost_variation_residuals(theory):
    """Variational derivatives of the pairing sum u^A E_A with respect to
    every stage-0 ghost component: zero exactly when the records hold."""
    u = gauge_from_ni(theory)[0]
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
        assert g[0].components[("A", (mu,))] == reg.var("e", (), (mu,))
        assert g[0].components[("B", (mu,))] == reg.var("x", (), (mu,))
    assert g[0].components == bf.gauge_candidate
    all_pass(check_gauge_symmetry(bf, 0))
    all_pass(check_brst_nilpotent(bf))
    all_pass(check_antibracket(bf))
    assert not ghost_variation_residuals(bf)


def test_bf4_reducible_tower(bf4):
    g = gauge_from_ni(bf4)
    reg = bf4.registry
    for nu in range(4):
        for rho in range(nu + 1, 4):
            want = reg.var("x", (rho,), (nu,)) - reg.var("x", (nu,), (rho,))
            assert g[0].components[("B", (nu, rho))] == want
            assert bf4.gauge_candidate[("B", (nu, rho))] == want
    for rho in range(4):
        assert g[1].components[("x", (rho,))] == reg.var("xi", (), (rho,))
    assert any(not u.is_zero() for u in g[1:])
    all_pass(check_gauge_symmetry(bf4, 0))
    all_pass(check_gauge_symmetry(bf4, 1))  # closes off shell, no alpha needed
    all_pass(check_gauge_symmetry(bf4, 2))  # vacuous
    all_pass(check_brst_nilpotent(bf4))
    all_pass(check_antibracket(bf4))


def test_vacuous_stage_condition_notes(bf):
    entries = check_gauge_symmetry(bf, 3)
    assert entries == [{"check": "gauge", "target": "stage 3",
                        "status": "pass",
                        "note": "no stage-3 records declared"}]


def test_alpha_certificates_close_on_shell_conditions(toy):
    all_pass(check_gauge_symmetry(toy, 0))
    bare = check_gauge_symmetry(_rebuild(toy, alphas={}), 1)
    assert {e["status"] for e in bare} == {"unverified-on-shell"}
    assert all("without alpha" in e["note"] for e in bare)
    # the check reads the declared alpha block
    certified = all_pass(check_gauge_symmetry(toy, 1))
    assert all("with alpha certificate" in e["note"] for e in certified)


def test_toy_ascent_operator_is_not_nilpotent(toy):
    """On-shell-only stage conditions show up as a genuine b^2 failure."""
    entries = check_brst_nilpotent(toy)
    assert {e["target"] for e in entries if e["status"] == "fail"} == \
        {"y[]", "z[]"}


def test_ym_brst_cube(ym4):
    all_pass(verify := check_gauge_symmetry(ym4, 0))
    assert verify[0]["target"] == "u"
    all_pass(check_brst_nilpotent(ym4))
    all_pass(check_antibracket(ym4))
    assert not ghost_variation_residuals(ym4)
    g1 = EvolutionaryDerivation(ym4.registry, ym4.gamma)
    assert not nilpotency_residuals(g1)
    u = gauge_from_ni(ym4)[0]
    b1 = derivation_sum(ym4.registry, [u, g1])
    assert all(prolong_oracle(b1, v).is_zero() for v in u.components.values())


def test_doubled_gamma_fails_in_the_quadratic_bucket(ym4):
    bad_gamma = {k: v.scale(2) for k, v in ym4.gamma.items()}
    entries = check_brst_nilpotent(_rebuild(ym4, gamma=bad_gamma))
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
    # u and b are odd, and b acts on ghosts through gamma alone, because no
    # theory is built against the input rules: a library-built record whose
    # Delta has another parity than its ghost is refused, and so is a gamma
    # on a field, one holding an antifield, and one that would make b even
    reg = Registry(dim=1)
    reg.declare_field("s")
    reg.declare_ghost_antifield(reg.declare_ghost("c", stage=0, parities=0))
    odd_delta = NoetherRecord("c", (), {("s", (), (0,)): reg.one})
    with pytest.raises(GvcError, match=r"record c\[\]: the coefficient of "
                       r"s\[\] must be odd, so that Delta has its ghost's"):
        TheorySpec("t", reg, reg.var("s", (), (0,)) ** 2, [odd_delta], {})
    reg = bf.registry
    with pytest.raises(GvcError, match=r"only act on ghost components, not "
                       r"A\[0\]"):
        _rebuild(bf, gamma={("A", (0,)): reg.var("e", (), (0,))})
    with pytest.raises(GvcError, match=r"only act on ghost components, not "
                       r"e\[0\]"):
        _rebuild(bf, gamma={("e", (0,)): reg.var("x") * reg.var("e")})
    with pytest.raises(GvcError, match=r"gamma component for e\[\] must "
                       "hold no antifield, not A_bar"):
        _rebuild(bf, gamma={("e", ()): reg.var("x") * reg.var("A_bar", (0,))})
    with pytest.raises(GvcError, match=r"gamma component for e\[\] must be "
                       "even, so that b is odd"):
        _rebuild(bf, gamma={("e", ()): reg.var("x")})


def test_super_instance_needs_sign_decorated_gamma(ym4_super):
    """For a graded gauge algebra the quadratic gamma coefficients carry
    (-1) on odd directions; the plain formula is not nilpotent."""
    sup = ym4_super
    reg = sup.registry
    entries = all_pass(verify_ni(sup))
    assert len(entries) == 5
    assert gauge_from_ni(sup)[0].components == sup.gauge_candidate
    all_pass(check_brst_nilpotent(sup))
    all_pass(check_antibracket(sup))
    plain = {}
    for r in range(5):
        out = reg.zero
        for (rr, i, j), v in osp12().c.items():
            if rr == r:
                out = out + (reg.var("c", (i,)) * reg.var("c", (j,))).scale(
                    Fraction(-v, 2))
        plain[("c", (r,))] = out
    entries = check_brst_nilpotent(_rebuild(sup, gamma=plain))
    assert any(e["status"] == "fail" for e in entries)


# -- b's images per component orbit -------------------------------------------

# (the component keys of b's parts, the first keys of their orbits under the
# swaps that the source proves map every part of b to one sign times itself)
_B_ORBITS = {"bf": (6, 2), "bf4": (14, 3), "toy": (4, 4), "cs3": (15, 7),
             "ym4": (15, 6), "ym4_super": (25, 10), "grav4": (78, 8)}


@pytest.mark.parametrize("name", sorted(_B_ORBITS))
def test_the_b_symmetry_test_finds_each_builtins_component_orbits(name):
    theory = fresh(name)
    parts = stored_gauge(theory) + [gvc.brst._gamma(theory)]
    keys = {key for part in parts for key in part.components}
    interned = len(theory.registry.by_rank)
    orbits = gvc.brst._orbits(theory)
    assert (len(keys), len(keys) - len(orbits)) == _B_ORBITS[name]
    assert set(orbits.values()) <= keys - set(orbits)
    assert all(key > first for key, first in orbits.items())
    assert len(theory.registry.by_rank) == interned


_CS3_B_ORBITS = {("a", (r, l)): ("a", (r, 0)) for r in range(3)
                 for l in (1, 2)}
_CS3_B_ORBITS.update({("cv", (1,)): ("cv", (0,)), ("cv", (2,)): ("cv", (0,))})


def _variant_backgrounds():
    """The ten backgrounds of a seed-0 round of the benchmark's variants."""
    path = pathlib.Path(__file__).parent.parent / "perfbench" / \
        "bench_workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.variant_backgrounds(0)


def test_cs3s_b_orbit_map_comes_from_its_certificate_and_maps_no_key(
        monkeypatch):
    # cs3's variants are parsed afresh, so each of them builds b's orbit
    # map.  Its su(2) index r and the table f carry no direction, so both
    # swaps map the records c, cv and gamma by +1, and the swaps act on
    # a's second slot and on cv: b's 15 keys fall into 7 orbits, a[r,l]
    # joining a[r,0] and cv[l] cv[0], read from the certificate without
    # mapping a key.  So on the ten variants of a benchmark round, whose
    # backgrounds bg refuse every swap of L.
    theories = [fresh("cs3")] + [
        parse_theory(fixture_text("cs3", background=bg))
        for bg in _variant_backgrounds()]
    assert len(theories) == 11
    for theory in theories:
        assert theory.derived == {"certificate": {},
                                  "b certificate": {0: 1, 1: 1}}
        assert theory.registry.symbols["c"].directions == (False,)
        stored_gauge(theory)
        mapped = []
        key = DirectionSwap.key
        with monkeypatch.context() as mp:
            mp.setattr(DirectionSwap, "key",
                       lambda swap, k: mapped.append(k) or key(swap, k))
            assert gvc.brst._orbits(theory) == _CS3_B_ORBITS
        assert not mapped


# a stage-0 family c[g] of one sign under (0 1), with a stage-0 or stage-1
# family or a gamma block of the other sign: (0 1) maps u to +u and the
# other part to -itself, so b's table has no orbit although each part maps
# onto its components; with the signs alike it has one.  L's x[g;g] puts
# x's slot, and so c's, with the jets, so that they carry a direction.
_MIXED = ("dim 2; field x[2] even; field y odd;\n"
          "table e[2]{ [0]=1; [1]=-1; }\nL = y * y[;0] + sum(g){ x[g;g] };\n"
          "ni c[g:2] { (x[g]) = y; }\n%s\n")


def test_a_swap_must_map_every_part_by_one_sign_onto_components():
    for block, signs in [
            ("", {0: 1}),
            ("ni d[g:2] { (x[g]) = e[g] * y; }", {}),
            ("ni d[g:2] { (x[g]) = y; }", {0: 1}),
            ("gamma { (c[g]) = e[g] * y * c[g;]; }", {}),
            ("gamma { (c[g]) = y * c[g;]; }", {0: 1}),
            ("stage 1 s[g:2] { (c[g]) = e[g]; }", {}),
            ("stage 1 s[g:2] { (c[g]) = 1; }", {0: 1})]:
        text = _MIXED % block
        theory = parse_theory(text)
        assert theory.derived["b certificate"] == signs, block
        certified_swaps_hold(theory)
        # the exact test agrees
        parts = stored_gauge(theory) + [gvc.brst._gamma(theory)]
        assert part_sign(direction_swap(theory.registry, 0), parts) == \
            signs.get(0, 0), block
        orbits = {("c", (1,)): ("c", (0,))} if "{ (c[g])" in block else {}
        orbits.update({("x", (1,)): ("x", (0,))})
        assert gvc.brst._orbits(theory) == (orbits if signs else {}), block
        (memo, entries, digest), reference = two_routes(
            lambda: parse_theory(text), ("brst", "antibracket"))
        assert (memo, entries, digest) == reference, block


@pytest.mark.parametrize("name", sorted(_B_ORBITS))
def test_the_stored_antibracket_is_u_plus_gamma_on_each_component_of_u(name):
    # b(b^A) less the stage-1 image u^(1)(u^A), on the builtin, red only on
    # toy, whose stage conditions hold on shell, and on it with c * c'
    # added to gamma at c, for its first two odd stage-0 ghost components c
    # and c', which turns it red
    theory = fresh(name)
    reg = theory.registry
    c, c2 = [(rec.ghost, rec.component) for rec in theory.records
             if reg.symbols[rec.ghost].parity(rec.component)][:2]
    gamma = dict(theory.gamma)
    gamma[c] = gamma.get(c, reg.zero) + reg.var(*c) * reg.var(*c2)
    for th, red in ((theory, name == "toy"),
                    (_rebuild(theory, gamma=gamma), True)):
        check_antibracket(th)
        u = stored_gauge(th)[0]
        b1 = derivation_sum(reg, [u, EvolutionaryDerivation(reg, th.gamma)])
        want = {key: res for key, comp in sorted(u.components.items())
                if (res := prolong_oracle(b1, comp)).terms}
        assert th.derived["antibracket"] == want and bool(want) == red


@pytest.mark.parametrize("name", ["bf4", "ym4", "ym4_super", "grav4"])
def test_b_images_by_parts_with_their_stabilizers_match_the_full_pass(
        monkeypatch, name):
    # b's passes never go by parts on the builtins; forced to, they take
    # b at the first key of each component orbit, as the full pass does at
    # every key, with no stabilizer: one never pruned a builtin's sums
    monkeypatch.setattr(gvc.jets, "_by_parts", lambda phi, f: True)
    (memo, entries, digest), reference = two_routes(
        lambda: fresh(name), ("brst", "antibracket", "gauge"))
    assert (memo, entries, digest) == reference
    assert gvc.brst._orbits(fresh(name))


def test_a_cold_grav4_runs_eta_on_one_record_per_orbit(monkeypatch):
    # cm[1], cm[2] and cm[3] take cm[0]'s 74 components of u mapped along
    # the swaps; with no symmetry found, eta runs on all 296
    calls = []
    eta = gvc.brst.eta
    monkeypatch.setattr(gvc.brst, "eta", lambda f: calls.append(f) or eta(f))
    stored_gauge(fresh("grav4"))
    assert len(calls) == 74
    stored_gauge(uncertified(fresh("grav4")))
    assert len(calls) == 74 + 296


def test_a_cold_grav4_maps_no_key_of_l_or_of_a_delta(monkeypatch):
    # the source proves grav4's swaps, so the keys the checks map are those
    # of u's images alone (parsing maps L's and the records' own)
    mapped = []
    key = DirectionSwap.key
    theory = fresh("grav4")
    monkeypatch.setattr(DirectionSwap, "key", lambda swap, k: (
        mapped.append(k) or key(swap, k)))
    for check in ("kt", "gauge", "brst"):
        all_pass(run_checks(theory, [check]))
    reg = theory.registry
    forbidden = set(theory.lagrangian.terms).union(
        *(rec.delta_poly(reg).terms for rec in theory.records))
    assert mapped and forbidden.isdisjoint(mapped)


@pytest.mark.parametrize("name", ["cs3", "grav4"])
def test_brst_alone_on_a_cold_theory_builds_no_euler_lagrange_derivative(
        monkeypatch, name):
    # u's orbits read each Delta from its record, with or without the
    # certificate; cs3's exact tests run on its Deltas and L
    calls = count_calls(monkeypatch, "euler_lagrange")
    theory = fresh(name)
    all_pass(run_checks(theory, ["brst"]))
    assert not calls and "el" not in theory.derived


def test_a_healthy_grav4_takes_b_squared_at_its_first_keys(monkeypatch):
    # b on its 8 first keys, 7 of u and the one of gamma; every image there
    # is zero, so nothing more is taken, and the antibracket takes no pass
    theory = fresh("grav4")
    assert count_passes(monkeypatch, theory, ["brst", "antibracket"]) == [8]
    all_pass(check_brst_nilpotent(theory))


def test_a_gamma_that_breaks_b_squared_alike_completes_the_tables(
        monkeypatch):
    # gamma negated maps to +gamma under every swap, as u does, so the
    # orbits hold; b squared is not zero at most of their first keys, and
    # brst takes the 67 other keys of those orbits in a second pass of b
    text = pathlib.Path(builtin_path("grav4")).read_text(
        encoding="utf-8").replace("= sum(m){ cm[l;m]", "= -sum(m){ cm[l;m]")
    theory = parse_theory(text)
    assert len(gvc.brst._orbits(theory)) == 70
    assert count_passes(monkeypatch, theory, ["brst"]) == [8, 67]
    assert count_passes(monkeypatch, theory, ["antibracket", "brst"]) == []
    checks = ("brst", "antibracket")
    (memo, entries, digest), reference = two_routes(
        lambda: parse_theory(text), checks)
    assert (memo, entries, digest) == reference
    assert {e["check"] for e in entries if e["status"] == "fail"} == \
        set(checks)
