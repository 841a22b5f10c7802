"""Noether records, stage identities, the Koszul-Tate operator, triviality."""
import pathlib
import random
import re

import pytest

import gvc.jets
import gvc.noether
from gvc.algebra import KIND_GHOST, GvcError
from gvc.brst import check_gauge_symmetry, stored_gauge
from gvc.cli import (_flip_leading, _rebuild, build_report, mutation_sites,
                     run_checks)
from gvc.jets import prolong_apply
from gvc.noether import (
    NoetherRecord,
    _residuals,
    assemble_kt,
    check_extended,
    check_kt_nilpotent,
    comp_label,
    solve_trivial_witness,
    triviality_report,
    verify_ni,
    verify_stage_ni,
)
from gvc.parser import TheorySpec, parse_theory
from gvc.symmetry import direction_swap
from gvc.theories import builtin_path, fixture_text
from gvc.variational import check_variational_symmetry, euler_lagrange
from conftest import (TOY_TEXT, all_pass, by_orbit_and_full_pass, cached,
                      certified_swaps_hold,
                      count_calls, extended_lagrangian, fresh, maps_to,
                      two_routes, variational_pairing)


def rebuilt(th, **over):
    kw = dict(name=th.name, registry=th.registry, lagrangian=th.lagrangian,
              records=th.records, stages=th.stages,
              gauge_candidate=th.gauge_candidate, gamma=th.gamma,
              alphas=th.alphas)
    kw.update(over)
    return TheorySpec(**kw)


def test_bf_identities_hold(bf):
    all_pass(verify_ni(bf))
    entries = verify_stage_ni(bf, 1)  # vacuous: irreducible theory
    all_pass(entries)
    assert entries[0]["note"] == "no stage-1 records declared"
    all_pass(check_kt_nilpotent(bf))
    all_pass(check_extended(bf))


def test_corrupted_record_fails_with_residual(bf):
    rec = bf.records[0]
    rows = dict(rec.rows)
    key = sorted(rows)[0]
    rows[key] = rows[key].scale(-1)
    bad = rebuilt(bf, records=[NoetherRecord(rec.ghost, rec.component, rows)]
                  + list(bf.records[1:]))
    entries = verify_ni(bad)
    assert entries[0]["status"] == "fail"
    assert entries[0]["residual"]  # pretty-printed, nonzero
    assert entries[1]["status"] == "pass"
    # the conjunction collapses in the same way on the KT side
    assert any(e["status"] == "fail" for e in check_kt_nilpotent(bad))


def test_kt_sends_antifields_to_their_pairings(bf):
    el = euler_lagrange(bf.lagrangian)
    kt = assemble_kt(bf)
    reg = bf.registry
    for mu in range(3):
        assert prolong_apply(kt, [reg.var("A_bar", (mu,))])[0] == el.get("A", (mu,))
    img = prolong_apply(kt, [reg.var("e_bar")])[0]
    assert img == bf.records[0].delta_poly(reg)
    assert img.pretty() == "-A_bar[0;0] - A_bar[1;1] - A_bar[2;2]"
    # everything outside the antifield sector is annihilated
    assert prolong_apply(kt, [reg.var("A", (0,))])[0].is_zero()
    assert prolong_apply(kt, [reg.var("e")])[0].is_zero()


def test_kt_squares_to_zero_on_random_antifield_polys(bf4):
    kt = assemble_kt(bf4)
    reg = bf4.registry
    atoms = [reg.var("A_bar", (0,)), reg.var("A_bar", (1,), (2,)),
             reg.var("B_bar", (0, 1)), reg.var("x_bar", (2,)),
             reg.var("x_bar", (3,), (0,)), reg.var("xi_bar"),
             reg.var("A", (0,)), reg.var("B", (1, 2), (3,)), reg.var("x", (1,))]
    rng = random.Random(17)
    for _ in range(20):
        p = reg.zero
        for _ in range(rng.randint(1, 3)):
            term = reg.const(rng.choice((1, -1)) * rng.randint(1, 3))
            for _ in range(rng.randint(1, 3)):
                term = term * rng.choice(atoms)
            p = p + term
        assert prolong_apply(kt, prolong_apply(kt, [p]))[0].is_zero()


def test_reducible_stage_records_close_off_shell(bf4):
    all_pass(verify_ni(bf4))
    entries = all_pass(verify_stage_ni(bf4, 1))
    # no certificates declared: the identities hold identically
    assert all(rec.h is None for rec in bf4.stage_records(1))
    assert all("note" not in e for e in entries)
    all_pass(verify_stage_ni(bf4, 2))
    all_pass(check_kt_nilpotent(bf4))
    all_pass(check_extended(bf4))


def test_stage_identity_with_h_certificate(toy):
    all_pass(verify_ni(toy))
    entries = all_pass(verify_stage_ni(toy, 1))
    assert entries[0]["note"] == "with h certificate"
    all_pass(check_kt_nilpotent(toy))
    all_pass(check_extended(toy))


def test_stage_identity_without_certificate_is_flagged():
    noh = parse_theory(TOY_TEXT.replace("h { y_bar * z_bar }; ", ""))
    entries = verify_stage_ni(noh, 1)
    assert [e["status"] for e in entries] == ["unverified-on-shell"]
    assert "without certificate" in entries[0]["note"]
    assert entries[0]["residual"]


def test_stage_row_must_target_a_previous_record(toy):
    reg = toy.registry
    # y is declared but carries no stage-0 record, so delta_KT would pair
    # the row with E_y; the theory is refused when it is built, before any
    # check assembles delta_KT
    bad = NoetherRecord("ps", (), {("y", (), ()): reg.var("z")}, stage=1)
    with pytest.raises(GvcError, match="no stage-0 record"):
        rebuilt(toy, stages={1: [bad]})
    # an undeclared name is named as an unknown symbol
    with pytest.raises(GvcError, match="unknown symbol"):
        rebuilt(toy, stages={1: [NoetherRecord(
            "ps", (), {("nosuch", (), ()): reg.one}, stage=1)]})
    # the same rule holds at stage 0: a library-built Noether record
    # naming an undeclared field is refused, not looked up blindly
    with pytest.raises(GvcError, match="unknown symbol 'nosuch'"):
        rebuilt(toy, records=[NoetherRecord(
            "ca", (), {("nosuch", (), ()): reg.one})])
    # stage-0 rows target fields: a row on a ghost or an antifield would be
    # paired with the wrong object under delta_KT (E_ca(L) = 0, so the ghost
    # row used to pass), and is refused as the parser refuses it
    for name in ("ca", "y_bar"):
        with pytest.raises(GvcError, match=r"stage 0 row targets %s\[\] "
                           "which is not a field component" % name):
            rebuilt(toy, records=[NoetherRecord(
                "ca", (), {(name, (), ()): reg.one})] + list(toy.records[1:]))
    # and stage-1 rows target stage-0 ghosts, not their antifields
    with pytest.raises(GvcError, match="no stage-0 record"):
        rebuilt(toy, stages={1: [NoetherRecord(
            "ps", (), {("ca_bar", (), ()): reg.var("y")}, stage=1)]})


@pytest.mark.parametrize("name, edit", [
    ("ym4", lambda th: setattr(th, "lagrangian", th.registry.zero)),
    ("ym4", lambda th: th.records.__setitem__(0, th.records[1])),
    ("ym4", lambda th: setattr(th.records[0], "h", th.registry.one)),
    ("ym4", lambda th: th.records[0].rows.__setitem__(
        sorted(th.records[0].rows)[0], th.registry.zero)),
    ("ym4", lambda th: th.gamma.__setitem__(sorted(th.gamma)[0],
                                            th.registry.zero)),
    ("bf4", lambda th: th.stages[1].__setitem__(0, th.stages[1][0])),
    ("bf4", lambda th: th.stages.__setitem__(1, ())),
    ("ym4", lambda th: setattr(th.registry, "jet_order", 1)),
    ("ym4", lambda th: setattr(th.registry, "dim", 2)),
], ids=["L", "records", "record", "row", "gamma", "stage", "stages",
        "jet_order", "dim"])
def test_a_theory_is_a_value(name, edit):
    # the memo trusts that nothing it was derived from changes, so every
    # in-place edit raises; an edited theory is a new one (cli._rebuild)
    theory = cached(name)
    checks = ["ni", "kt", "gauge", "brst"]
    before = build_report(theory, checks)["canonical_sha256"]
    with pytest.raises((AttributeError, TypeError)):
        edit(theory)
    assert build_report(theory, checks)["canonical_sha256"] == before


def test_each_antifield_has_one_pairing(toy):
    # delta_KT keeps one image per antifield, so a second record under the
    # same label, or under a field's name, would be checked against the
    # other's Delta; the theory is refused when it is built
    reg = toy.registry
    twin = NoetherRecord("ca", (), {("y", (), ()): reg.one})
    with pytest.raises(GvcError, match=r"record ca\[\] is declared twice"):
        rebuilt(toy, records=list(toy.records) + [twin])
    # and a record is labelled by a component of a ghost of its stage
    for ghost, comp in (("y", ()), ("ca", (5,)), ("ps", ())):
        stray = NoetherRecord(ghost, comp, {("y", (), ()): reg.one})
        with pytest.raises(GvcError, match=r"record %s does not belong at "
                           "stage 0" % re.escape(comp_label(ghost, comp))):
            rebuilt(toy, records=list(toy.records) + [stray])


@pytest.mark.parametrize("name", ["bf", "bf4", "toy", "cs3", "ym4", "ym4_super"])
def test_each_identity_is_its_kt_component(name):
    # the ni and stages entry of record r is delta_KT(Delta_r), which the kt
    # check reports at <ghost>_bar[comp]: one fails exactly when the other
    # does not pass, with the same residual, healthy and at every mutant.
    # The stored residuals are also the ghost Euler-Lagrange components of
    # the two pairings that gauge and extended decide (the inverse second
    # Noether theorem): u with L, whose stage-0 ghost components they are,
    # and delta_KT with L_e, at every stage.  On the healthy theory every
    # other component vanishes too, so each pairing is a total divergence.
    th = cached(name)
    ghosts = {n for n, sym in th.registry.symbols.items()
              if sym.kind == KIND_GHOST}
    failed = 0
    for label, build in [("plain", lambda: th)] + mutation_sites(th):
        mt = build()
        stages = [0] + mt.stage_numbers()
        recs = [r for k in stages for r in mt.stage_records(k)]
        entries = verify_ni(mt) + [e for k in mt.stage_numbers()
                                   for e in verify_stage_ni(mt, k)]
        assert len(entries) == len(recs)
        ids = {comp_label(r.ghost + "_bar", r.component): e["residual"]
               for r, e in zip(recs, entries) if e["status"] != "pass"}
        kt = {e["target"]: e["residual"] for e in check_kt_nilpotent(mt)
              if e["status"] != "pass"}
        assert ids == kt, label
        failed += bool(kt)
        residuals = {k: dict(zip(((r.ghost, r.component)
                                  for r in mt.stage_records(k)),
                                 _residuals(mt, k))) for k in stages}
        for target, u, L, held in (
                ("u", stored_gauge(mt)[0], mt.lagrangian, [0]),
                ("L_e", assemble_kt(mt), extended_lagrangian(mt), stages)):
            want = {key: res for k in held for key, res in residuals[k].items()}
            el = euler_lagrange(variational_pairing(u, L),
                                None if label == "plain" else ghosts)
            for key, comp in el.components.items():
                assert comp == want.get(key, mt.registry.zero), \
                    (label, target, key)
            ok = all(res.is_zero() for res in want.values())
            verdict = check_gauge_symmetry(mt, 0)[0] if target == "u" \
                else check_extended(mt)[0]
            assert verdict["status"] == ("pass" if ok else "fail"), \
                (label, target)
    assert failed  # some mutant breaks an identity


def test_extended_lagrangian_structure(toy):
    Le = extended_lagrangian(toy)
    extra = Le - toy.lagrangian
    assert sorted(extra.ghost_degree_parts()) == [1]
    assert extra.num_terms() == 11
    kt = assemble_kt(toy)
    assert check_variational_symmetry(kt, Le)
    # with a corrupted record the extended density loses its KT symmetry
    rec = toy.records[0]
    rows = {k: v.scale(3) for k, v in rec.rows.items()}
    bad = rebuilt(toy, records=[NoetherRecord(rec.ghost, rec.component, rows)]
                  + list(toy.records[1:]))
    assert check_extended(bad)[0]["status"] == "fail"


def _su2_eps():
    return {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
            (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}


def _curvature_record(cs3, mu):
    """The mu-th translation identity of cs3 rewritten through the curvature."""
    reg = cs3.registry

    def a(r, lam, *jets):
        return reg.var("a", (r, lam), jets)

    def curv(r, lam, mu):
        out = a(r, mu, lam) - a(r, lam, mu)
        for (s, p, q), v in _su2_eps().items():
            if s == r:
                out = out + (a(p, lam) * a(q, mu)).scale(v)
        return out

    rows = {("a", (r, lam), ()): curv(r, lam, mu)
            for r in range(3) for lam in range(3)}
    return NoetherRecord("cv", (mu,), rows)


def test_curvature_records_are_kt_boundaries(cs3, monkeypatch):
    """The translation identities rewritten through the curvature are trivial:
    a quadratic antifield witness H with Delta = delta_KT(H) exists."""
    reg = cs3.registry
    builds = count_calls(monkeypatch, "assemble_kt")
    for mu in range(3):
        rec = _curvature_record(cs3, mu)
        assert prolong_apply(assemble_kt(cs3), [rec.delta_poly(reg)])[0].is_zero()
        H = solve_trivial_witness(cs3, rec)
        assert H is not None
        assert prolong_apply(assemble_kt(cs3), [H])[0] == rec.delta_poly(cs3.registry)
        assert H.antifield_number() == 2
    # the witness search reads the theory's stored delta_KT, so it is built
    # at most once for all the records, and not at all once a check stored it
    assert len(builds) <= 1


def test_checks_share_the_stored_residuals_and_gauge(monkeypatch):
    # one delta_KT and one gauge operator serve every check that reads the
    # stored residuals or the stored operator, however often they run
    kts = count_calls(monkeypatch, "assemble_kt")
    gauges = count_calls(monkeypatch, "gauge_from_ni")
    bf4 = fresh("bf4")
    checks = ["ni", "stages", "kt", "extended", "gauge", "brst",
              "antibracket"]
    for _ in range(2):
        all_pass(run_checks(bf4, checks))
        assert (len(kts), len(gauges)) == (1, 1)
    # the stage-1 gauge check takes its delta_KT(alpha) images from the
    # stored delta_KT as well (toy fails brst and antibracket: no gamma)
    del kts[:]
    run_checks(fresh("toy"), checks)
    assert len(kts) == 1
    # so does the triviality witness search, for each record whose Delta it
    # cannot rule out by shape
    cs3 = fresh("cs3")
    trivial = rebuilt(cs3, records=[_curvature_record(cs3, mu)
                                    for mu in range(3)])
    all_pass(run_checks(trivial, ["ni"]))
    del kts[:]
    all_pass(run_checks(trivial, ["triviality"]))
    assert len(kts) == 0


def test_a_record_edit_drops_the_stored_witnesses(cs3):
    # the witnesses read the stage-0 records, so an edit of them is searched
    # afresh: cs3's own gauge records are not certified trivial
    trivial = rebuilt(cs3, records=[_curvature_record(cs3, mu)
                                    for mu in range(3)])
    all_pass(run_checks(trivial, ["triviality"]))
    back = _rebuild(trivial, records=cs3.records)
    assert [e["status"] for e in triviality_report(back)] == \
        ["skipped"] * len(cs3.records)


def test_a_witness_that_misses_its_target_is_no_certificate(cs3, monkeypatch):
    # checked by comparison, not by assert, so it also holds under -O
    rec = _curvature_record(cs3, 0)
    trivial = rebuilt(cs3, records=[rec])
    assert [e["status"] for e in triviality_report(trivial)] == ["pass"]
    solve = gvc.noether._solve_exact

    def wrong(columns, target):
        x = solve(columns, target)
        return None if x is None else [c + 1 for c in x]
    monkeypatch.setattr(gvc.noether, "_solve_exact", wrong)
    assert solve_trivial_witness(cs3, rec) is None
    # the report keeps its witnesses, so a theory with nothing stored asks
    (entry,) = triviality_report(rebuilt(cs3, records=[rec]))
    assert entry["status"] == "skipped"


def test_witness_search_rejects_out_of_span_targets(cs3, toy):
    # a declared gauge record is not a boundary of the quadratic ansatz
    assert solve_trivial_witness(cs3, cs3.records[0]) is None
    # rows with jet indices put derivatives on the antifield: provably
    # outside the span, detected without building the linear system
    rec = NoetherRecord("cv", (0,), {("y", (), (0,)): toy.registry.one})
    assert solve_trivial_witness(toy, rec) is None


def test_triviality_report_shapes(cs3):
    entries = triviality_report(cs3)
    assert len(entries) == 6
    assert {e["status"] for e in entries} == {"skipped"}
    assert all("not certified trivial" in e["note"] for e in entries)
    mini = parse_theory("dim 1; field s even; L = 1/2*s[;0]^2;")
    entries = triviality_report(mini)
    assert entries == [{"check": "triviality", "target": "-", "status": "pass",
                        "note": "no records declared"}]
    assert verify_ni(mini)[0]["note"] == "no records declared"


def test_stage_record_guard(toy):
    with pytest.raises(GvcError, match="start at stage 0"):
        NoetherRecord("ps", (), {}, stage=-1)
    # an on-shell certificate belongs to identities among identities only
    with pytest.raises(GvcError, match="stage 1 or above"):
        NoetherRecord("ca", (), {}, h=toy.registry.one)
    rec = NoetherRecord("ps", (), {}, stage=1, h=toy.registry.one)
    assert (rec.stage, rec.h) == (1, toy.registry.one)
    assert NoetherRecord("ca", (), {}).stage == 0


# -- stage-0 residuals by orbit -----------------------------------------------

# The orbits of each builtin's stage-0 records under the transpositions of
# base directions: {record: the first record of its orbit}, by index.
_ORBITS = {"bf": {}, "bf4": {2: 1, 3: 1, 4: 1}, "toy": {}, "cs3": {},
           "ym4": {}, "ym4_super": {}, "grav4": {1: 0, 2: 0, 3: 0}}


@pytest.mark.parametrize("name", sorted(_ORBITS))
def test_the_candidate_test_finds_each_builtins_orbits_and_interns_nothing(
        name):
    theory = fresh(name)
    interned = len(theory.registry.by_rank)
    assert gvc.noether._orbits(theory)[0] == _ORBITS[name]
    assert len(theory.registry.by_rank) == interned


def test_a_parity_read_from_a_direction_slot_refuses_its_swaps():
    # f[0] is odd and f[1], f[2], f[3] even: swapping directions 0 and 1
    # would change a parity, so only x[1], x[2], x[3] stay one orbit
    text = fixture_text("bf", n=4, p=1, q=2).replace(
        "field A[4] even;", "table pf[4]{ [0]=1; }\nfield f[4] parity pf@0;\n"
        "field A[4] even;")
    theory = parse_theory(text)
    assert direction_swap(theory.registry, 0) is None
    assert gvc.noether._orbits(theory)[0] == {3: 2, 4: 2}


def test_a_record_flipped_cold_breaks_grav4s_orbit_and_alone_turns_red():
    # the row of k[0,0,1] of cm[1], whose E_A is not zero
    recs = list(fresh("grav4").records)
    rows = dict(recs[1].rows)
    key = ("k", (0, 0, 1), ())
    rows[key] = _flip_leading(rows[key])
    recs[1] = NoetherRecord("cm", (1,), rows)
    (residuals, verdicts, digest), full = by_orbit_and_full_pass(
        lambda: _rebuild(fresh("grav4"), records=recs), ("ni",))
    assert (residuals, verdicts, digest) == full
    assert verdicts == [("cm[%d]" % w, "fail" if w == 1 else "pass")
                        for w in range(4)]


def test_a_sign_flipped_in_grav4s_family_keeps_its_orbit_all_red():
    # one row of ni cm[w:4] changes sign in every record alike, so the
    # orbit holds and its first record's residual is not zero: the other
    # three are computed in a second pass
    text = pathlib.Path(builtin_path("grav4")).read_text(encoding="utf-8")
    text = text.replace("+ k[w,a,b;m];",
                        "- k[w,a,b;m];")
    theory = parse_theory(text)
    # the source still states every swap, so none is tested
    assert certified_swaps_hold(theory) == {0, 1, 2}
    assert gvc.noether._orbits(theory)[0] == {1: 0, 2: 0, 3: 0}
    (residuals, verdicts, digest), full = by_orbit_and_full_pass(
        lambda: parse_theory(text), ("ni",))
    assert (residuals, verdicts, digest) == full
    assert verdicts == [("cm[%d]" % w, "fail") for w in range(4)]


# The swaps (lam, lam + 1) of base directions that each builtin's source
# proves symmetries of L and of every stage-0 record family
_CERTIFIED = {"bf": {0, 1}, "bf4": {0, 1, 2}, "toy": set(), "cs3": set(),
              "ym4": {1, 2}, "ym4_super": {1, 2}, "grav4": {0, 1, 2}}


# and those it proves map the records of every stage and gamma by one sign,
# which b's orbits read: L, which refuses ym4's (0 1), is not among them
_B_CERTIFIED = {"bf": {0, 1}, "bf4": {0, 1, 2}, "toy": set(), "cs3": set(),
                "ym4": {0, 1, 2}, "ym4_super": {0, 1, 2},
                "grav4": {0, 1, 2}}


@pytest.mark.parametrize("name", sorted(_CERTIFIED))
def test_each_swap_a_builtins_source_proves_passes_the_exact_maps(name):
    # cs3's tables f and bg refuse every swap, ym4's metric g the swap
    # (0 1); toy has one base direction
    theory = fresh(name)
    assert certified_swaps_hold(theory) == _CERTIFIED[name]
    assert set(theory.derived["b certificate"]) == _B_CERTIFIED[name]


_CERTIFICATES = {"certificate", "b certificate"}


@pytest.mark.parametrize("name, site, dropped", [
    ("bf4", "lagrangian", {"certificate"}),
    ("ym4", "lagrangian", {"certificate"}),
    ("bf4", "record x[0]", _CERTIFICATES),
    ("bf4", "stage record xi[]", {"b certificate"}),
    ("ym4", "gamma c[0]", {"b certificate"}),
])
def test_each_edit_drops_only_the_certificate_that_reads_its_field(
        name, site, dropped):
    # the record certificate reads L and the stage-0 records, b's the
    # records of every stage and gamma; an edit keeps the other as it is,
    # and the edit built cold gives the verdicts and digest of the full pass
    parent = fresh(name)
    build = dict(mutation_sites(parent))[site]
    edited, kept = build(), _CERTIFICATES - dropped
    assert _CERTIFICATES & set(edited.derived) == kept
    assert all(edited.derived[key] is parent.derived[key] for key in kept)
    (memo, entries, digest), reference = two_routes(
        build, ("ni", "stages", "kt", "extended", "brst", "antibracket",
                "gauge"))
    assert (memo, entries, digest) == reference


@pytest.mark.parametrize("term, exact", [
    # a term that cancels: L is grav4's, and the exact maps accept every
    # swap, as they do on grav4
    ("+ k[0,0,0;] * k[0,0,0;] - k[0,0,0;] * k[0,0,0;]", [0, 1, 2]),
    # (2 3) maps this term to minus itself, as it does L, and (0 1) and
    # (1 2) map it to terms that L lacks
    ("+ k[0,0,2;] * k[0,0,2;] - k[0,0,3;] * k[0,0,3;]", [2]),
])
def test_a_constant_index_term_of_l_refuses_the_swaps_it_moves(term, exact):
    # the source refuses every swap here, each moving a constant index, so
    # the records take their passes in full, although the exact maps of the
    # tests accept some swaps; b does not read L, and keeps its orbits
    text = pathlib.Path(builtin_path("grav4")).read_text(encoding="utf-8")
    assert text.count("k[b,d,t;]) } };") == 1
    text = text.replace("k[b,d,t;]) } };", "k[b,d,t;]) } } %s;" % term)
    theory = parse_theory(text)
    reg, lag = theory.registry, theory.lagrangian.terms
    assert certified_swaps_hold(theory) == set()
    assert [lam for lam in range(3)
            if maps_to(direction_swap(reg, lam), lag, lag)] == exact
    assert gvc.noether._orbits(theory)[0] == {}
    assert theory.derived["b certificate"] == {0: 1, 1: 1, 2: 1}
    (residuals, verdicts, digest), full = by_orbit_and_full_pass(
        lambda: parse_theory(text), ("ni",))
    assert (residuals, verdicts, digest) == full


def test_an_l_that_breaks_a_swap_alone_keeps_its_records_apart():
    # the records map to one another under every swap, but the mass term
    # of B[1,2] maps to one of B[0,2] under (0 1), which L lacks: c[0]
    # holds its gauge identity and c[1], c[2], on which the term acts, do
    # not.  (1 2) maps L to itself, but the source refuses it with (0 1),
    # each moving a constant index of the term, so no records join
    text = ("dim 3; field B[3,3] antisym even;\n"
            "L = sum(i:3, j:3, l:3){ (B[i,j;l] + B[j,l;i] + B[l,i;j])^2 }"
            " + B[1,2;] * B[1,2;];\nni c[g:3] { (B[k,g]; k) = -1; }\n")
    theory = parse_theory(text)
    reg, lag = theory.registry, theory.lagrangian.terms
    assert certified_swaps_hold(theory) == set()
    assert [lam for lam in range(2)
            if maps_to(direction_swap(reg, lam), lag, lag)] == [1]
    assert gvc.noether._orbits(theory)[0] == {}
    (residuals, verdicts, digest), full = by_orbit_and_full_pass(
        lambda: parse_theory(text))
    assert (residuals, verdicts, digest) == full
    assert verdicts == [("c[0]", "pass"), ("c[1]", "fail"), ("c[2]", "fail")]


def _by_parts_pairs(text, pruned):
    """(the ``_mul_terms`` pairs of the by-parts sums of the stage-0
    residual passes of a cold theory parsed from ``text``, its stage-0
    residuals), with the representatives' sums pruned by their stabilizers
    or, when not ``pruned``, every multi-index taken."""
    theory = parse_theory(text)
    pairs = [0]
    pair_into = gvc.jets._pair_into

    def counted(into, g, phi, f_left=True):
        pairs[0] += len(g.terms) * len(phi.terms)
        return pair_into(into, g, phi, f_left)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gvc.jets, "_pair_into", counted)
        if not pruned:
            mp.setattr(gvc.jets, "_orbit_first",
                       lambda swaps: lambda index: index)
        residuals = _residuals(theory, 0)
    return pairs[0], residuals


def test_grav4s_stabilizer_prunes_its_representatives_sums_by_parts():
    # (1 2) and (2 3) fix cm[0]: of the sums z[Lambda], each of which
    # cancels before the fold, those of (2,), (3,), (0,2), (0,3), (1,3) and
    # (2,3) are never taken
    theory = fresh("grav4")
    _orbit, fixing, _steps = gvc.noether._orbits(theory)
    assert [[swap.lam for swap in fixing[i]] for i in sorted(fixing)] == \
        [[1, 2]]
    text = pathlib.Path(builtin_path("grav4")).read_text(encoding="utf-8")
    (pruned, residuals), (full, same) = (_by_parts_pairs(text, True),
                                         _by_parts_pairs(text, False))
    assert (pruned, full) == (57248, 99168) and residuals == same


def test_a_nonzero_representative_sum_by_parts_takes_its_orbit():
    # a first-order row of the family flips alike in every record, so the
    # orbit and the stabilizer hold and z[(1,)] is no longer zero: the
    # pass takes z[(2,)] and z[(3,)] too, and skips only the second-order
    # sums that still cancel
    text = pathlib.Path(builtin_path("grav4")).read_text(
        encoding="utf-8").replace("+ kd[n,b]*k[m,a,w;]",
                                  "- kd[n,b]*k[m,a,w;]")
    theory = parse_theory(text)
    assert gvc.noether._orbits(theory)[0] == {1: 0, 2: 0, 3: 0}
    (pruned, residuals), (full, same) = (_by_parts_pairs(text, True),
                                         _by_parts_pairs(text, False))
    assert full - pruned == 2 * 1288 + 2 * 808 and residuals == same
    assert all(not res.is_zero() for res in residuals)


# every check, b's sums before the stage-k gauge check, which reads every
# pair of b's table
_ALL_CHECKS = ("ni", "stages", "kt", "extended", "brst", "antibracket",
               "gauge", "triviality")


@pytest.mark.parametrize("name", ["bf", "bf4", "toy", "cs3", "ym4",
                                  "ym4_super", "grav4"])
def test_both_symmetry_steps_leave_every_builtins_report_alone(name):
    # the stage-0 residuals by orbit with pruned sums by parts, and b's
    # tables per component orbit, against every pass in full
    (memo, entries, digest), reference = two_routes(lambda: fresh(name),
                                                    _ALL_CHECKS)
    assert (memo, entries, digest) == reference
    # toy's b squares to zero only on shell
    assert ("fail" in {e["status"] for e in entries}) == (name == "toy")
