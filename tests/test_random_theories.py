"""A differential oracle on random theories written in the grammar.

The fixed theories are seven; here Hypothesis writes small ones: dimension
1-3, one or two even fields and at most one odd one, a Lagrangian with
rational coefficients and jets of order at most one, stage-0 records and
an optional stage-1 record whose rows hold only fields, and optional ``h``,
``gauge`` and ``gamma`` blocks.  Now and then one breaks an input rule on
purpose, with an ``h`` of another parity than its ghost or a ``gamma``
holding an antifield: ``parse_theory`` must refuse it with a position.
Most of the others fail ``ni``; that is fine, because each route is checked
against the others, not against a verdict:

- the stored residual delta_KT(Delta_r) of every record is the memo-free
  prolongation of the Koszul-Tate operator, and the ``kt`` check reports
  it at the antifield of the record's ghost;
- the residuals are the ghost Euler-Lagrange components of both pairings:
  the gauge operator with L (stage 0) and delta_KT with L_e (every stage);
- ``prolong_apply`` gives the same residuals, and the same BRST residuals,
  with every pair forced by parts and forced down the prefix chain; so do
  b's stored images on its components, the antibracket they give, and the
  stage images u^(k)(u^(k-1)^X);
- the theory stored with ``Fraction`` coefficients digests alike;
- each mutant of a theory whose checks have run, which inherits what its
  edit leaves unchanged, digests like the same mutant of a theory parsed
  afresh: a stage-1 record with ``h`` must not keep stage-1 residuals
  across a record edit;
- ``cli.run`` exits 0 or 1 on every check of an accepted theory, and 0, 1
  or 2 under ``--mutate sign`` (a constant L with no gamma has no sign to
  flip), and raises nothing; no check raises an input rule's error.
"""
import os
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import gvc.jets
import gvc.noether
from gvc.algebra import KIND_GHOST, GvcError
from gvc.brst import check_antibracket, check_brst_nilpotent, stored_gauge
from gvc.cli import CHECK_NAMES, build_report, mutation_sites, run, \
    run_checks
from gvc.jets import EvolutionaryDerivation
from gvc.noether import (_residuals, _stage_residuals, assemble_kt,
                         check_kt_nilpotent, comp_label, verify_ni,
                         verify_stage_ni)
from gvc.parser import ParseError, parse_theory
from gvc.symmetry import direction_swap
from gvc.variational import euler_lagrange
from conftest import (both_routes, brst_operator, certified_swaps_hold,
                      derivation_sum, extended_lagrangian, fraction_twin,
                      label_signs, maps_to, nilpotency_residuals,
                      parsed_text, prolong_oracle, two_routes,
                      variational_pairing)

EVEN, ODD = ("x", "y"), ("p",)


def _parity(name):
    return 1 if name in ODD else 0


@st.composite
def _rational(draw):
    num = draw(st.integers(1, 3))
    den = draw(st.sampled_from((1, 1, 2, 3)))
    return str(num) if den == 1 else "%d/%d" % (num, den)


@st.composite
def _ref(draw, names, dim, order=1):
    """A jet variable ``name[;Lambda]`` of one of ``names``, |Lambda| <=
    ``order``."""
    name = draw(st.sampled_from(names))
    index = sorted(draw(st.lists(st.integers(0, dim - 1), max_size=order)))
    return name + ("[;%s]" % ",".join(map(str, index)) if index else "")


@st.composite
def _monomial(draw, fields, dim, parity):
    """A rational times field jets, of the given parity: up to two even
    factors and one or two distinct odd ones as the parity asks, or None
    when no field can make it odd."""
    evens = [n for n in fields if not _parity(n)]
    odds = [n for n in fields if _parity(n)]
    if not odds:
        if parity:
            return None
        n_odd = 0
    else:
        n_odd = 1 if parity else draw(st.sampled_from((0, 0, 2)))
    factors = [draw(_rational())]
    factors += [draw(_ref(evens, dim))
                for _ in range(draw(st.integers(0, 2)))]
    # distinct odd factors, so the monomial is not zero
    factors += draw(st.lists(_ref(odds, dim), min_size=n_odd,
                             max_size=n_odd, unique=True))
    return " * ".join(factors)


@st.composite
def _poly(draw, fields, dim, parity, max_terms=2):
    """A signed sum of 1-``max_terms`` monomials of one parity, or None."""
    text = ""
    for _ in range(draw(st.integers(1, max_terms))):
        mono = draw(_monomial(fields, dim, parity))
        if mono is None:
            return None
        sign = draw(st.sampled_from("+-"))
        text += ("-" if sign == "-" else "") + mono if not text \
            else " %s %s" % (sign, mono)
    return text


@st.composite
def _rows(draw, targets, dim, fields, parity_of):
    """Row statements ``(T; Lambda) = coefficient;`` for one record: each
    coefficient takes the parity that ``parity_of(T)`` asks, so the rows
    agree on the record's parity."""
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(targets))
        index = sorted(draw(st.lists(st.integers(0, dim - 1), max_size=1)))
        coeff = draw(_poly(fields, dim, parity_of(target)))
        if coeff is not None:
            key = target + ("; %s" % ",".join(map(str, index)) if index else "")
            rows.append("(%s) = %s;" % (key, coeff))
    return rows


def _breaks():
    """Whether to break an input rule: false in most draws."""
    return st.sampled_from((False, False, False, True))


@st.composite
def theories(draw):
    """(text, broken) for a small random theory; ``broken`` names the input
    rule that the text breaks on purpose, or is None."""
    broken = None
    dim = draw(st.integers(1, 3))
    fields = list(EVEN[:draw(st.integers(1, 2))]) + \
        list(ODD[:draw(st.integers(0, 1))])
    lines = ["theory random;", "dim %d;" % dim, "jet_order 6;"]
    lines += ["field %s %s;" % (n, "odd" if _parity(n) else "even")
              for n in fields]
    lines.append("L = %s;" % (draw(_poly(fields, dim, 0, 3)) or "0"))
    # ghost name -> parity; a record's parity t is that of its coefficient
    # times its target, and its ghost has parity t + 1
    ghosts = {}
    for r in range(draw(st.integers(1, 2))):
        t = draw(st.sampled_from((0, 0, 1))) if ODD[0] in fields else 0
        rows = draw(_rows(fields, dim, fields, lambda n: (t + _parity(n)) & 1))
        if rows:
            ghosts["c%d" % r] = (t + 1) & 1
            lines.append("ni c%d[] { %s }" % (r, " ".join(rows)))
    if ghosts and draw(st.booleans()):
        # Delta = coefficient * c_bar takes parity t: c_bar has parity p(c) + 1
        t = draw(st.sampled_from((0, 0, 1))) if ODD[0] in fields else 0
        rows = draw(_rows(sorted(ghosts), dim, fields,
                          lambda c: (t + ghosts[c] + 1) & 1))
        if rows:
            if draw(st.booleans()):
                a, b = draw(st.lists(st.sampled_from(fields), min_size=2,
                                     max_size=2))
                # and so does h, unless it breaks the rule; it is zero
                # when a = b is even
                wrong = (a != b or _parity(a)) and draw(_breaks())
                mono = draw(_monomial(
                    fields, dim, (t + _parity(a) + _parity(b) + wrong) & 1))
                if mono is not None:
                    rows.append("h { %s * %s_bar * %s_bar };" % (mono, a, b))
                    broken = "h" if wrong else None
            lines.append("stage 1 s0[] { %s }" % " ".join(rows))
    if ghosts and draw(st.booleans()):
        comps = []
        for n in draw(st.lists(st.sampled_from(fields), min_size=1,
                               max_size=2, unique=True)):
            c = draw(st.sampled_from(sorted(ghosts)))
            # a ghost jet times fields: parity p(n) + 1
            mono = draw(_monomial(fields, dim,
                                  (_parity(n) + 1 + ghosts[c]) & 1))
            if mono is not None:
                comps.append("(%s) = %s * %s;" % (n, draw(_ref([c], dim)),
                                                   mono))
        if comps:
            lines.append("gauge { %s }" % " ".join(comps))
    odd_ghosts = sorted(c for c, p in ghosts.items() if p)
    if odd_ghosts and draw(st.booleans()):
        c = draw(st.sampled_from(odd_ghosts))
        # two odd ghost jets make the even, ghost-number-2 gamma(c); when
        # they differ, the even x_bar * x_bar[;0] breaks the rule and not
        # the parity
        a, b = (draw(_ref(odd_ghosts, dim)) for _ in range(2))
        bad = " * x_bar * x_bar[;0]" if a != b and draw(_breaks()) else ""
        lines.append("gamma { (%s) = %s * %s * %s%s; }" % (
            c, draw(_rational()), a, b, bad))
        broken = broken or ("gamma" if bad else None)
    return "\n".join(lines) + "\n", broken


_RULE_ERRORS = {"h": "must be (even|odd), the parity of its ghost",
                "gamma": "must hold no antifield"}


@settings(max_examples=40)
@given(theories())
def test_random_theories_agree_across_routes(case):
    text, broken = case
    try:
        theory = parse_theory(text)
    except ParseError as exc:
        # every refusal has a position, and a broken rule gives its error
        assert re.search(r" \(line \d+, column \d+\)$", str(exc)), text
        assert broken is None or re.search(_RULE_ERRORS[broken], str(exc)), \
            text
        theory = None
    assert theory is None or broken is None, text
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "random.gvc")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for extra, codes in (([], (0, 1)), (["--mutate", "sign"], (0, 1, 2))):
            code = run(["verify", "--theory", path, "--check",
                        ",".join(CHECK_NAMES), "--out",
                        os.path.join(tmp, "report.txt")] + extra)
            assert code in (codes if theory is not None else (2,)), text
    if theory is None:
        return
    reg = theory.registry
    kt = assemble_kt(theory)
    stages = [0] + theory.stage_numbers()
    residuals = {}
    for k in stages:
        for rec, res in zip(theory.stage_records(k), _residuals(theory, k)):
            delta = kt.components[(rec.ghost + "_bar", rec.component)]
            assert res == prolong_oracle(kt, delta), text
            residuals[(rec.ghost, rec.component)] = (k, res)
    # the ni and stages entries are the kt check's, residual for residual
    recs = [r for k in stages for r in theory.stage_records(k)]
    entries = verify_ni(theory) + [e for k in theory.stage_numbers()
                                   for e in verify_stage_ni(theory, k)]
    ids = {comp_label(r.ghost + "_bar", r.component): e.get("residual")
           for r, e in zip(recs, entries) if e["status"] != "pass"}
    assert ids == {e["target"]: e.get("residual")
                   for e in check_kt_nilpotent(theory)
                   if e["status"] != "pass"}, text
    ghosts = {n for n, sym in reg.symbols.items() if sym.kind == KIND_GHOST}
    for u, L, held in ((stored_gauge(theory)[0], theory.lagrangian,
                        [0]),
                       (kt, extended_lagrangian(theory), stages)):
        el = euler_lagrange(variational_pairing(u, L), ghosts)
        for key, comp in el.components.items():
            k, res = residuals.get(key, (None, reg.zero))
            assert comp == (res if k in held else reg.zero), (text, key)
    checks = list(CHECK_NAMES)
    assert build_report(fraction_twin(theory), checks)["canonical_sha256"] \
        == build_report(theory, checks)["canonical_sha256"], text


def _nonzero(images):
    return {key: res for key, res in images.items() if not res.is_zero()}


def _check_table(theory, text):
    """b's stored images against the memo-free prolongation: b(b^X) at each
    component X of b, the antibracket (u + gamma)(u^A) at each component A
    of u, green or red, and the stage images u^(k)(u^(k-1)^X)."""
    reg = theory.registry
    b = brst_operator(theory)
    want = _nonzero({key: prolong_oracle(b, comp)
                     for key, comp in b.components.items()})
    assert nilpotency_residuals(b) == want, text
    check_brst_nilpotent(theory)
    assert _nonzero(theory.derived["brst"]) == want, text
    gauge = stored_gauge(theory)
    u = gauge[0]
    b1 = derivation_sum(reg, [u, EvolutionaryDerivation(reg, theory.gamma)])
    check_antibracket(theory)
    assert theory.derived["antibracket"] == _nonzero(
        {key: prolong_oracle(b1, comp)
         for key, comp in u.components.items()}), text
    images = theory.derived["stage images"]
    for upper, lower in zip(gauge[1:], gauge):
        for key, comp in lower.components.items():
            assert images[upper.name][key] == prolong_oracle(upper, comp), \
                (upper.name, key, text)


@settings(max_examples=30)
@given(theories())
def test_random_theories_pair_alike_by_parts_and_on_the_chain(case):
    text, _broken = case
    try:
        theory = parse_theory(text)
    except GvcError:
        return
    routes = []
    for route in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gvc.jets, "_by_parts", lambda phi, f, route=route: route)
            routes.append(_stage_residuals(theory))
            # a theory parsed afresh builds its table on this route
            _check_table(parse_theory(text), text)
    assert routes[0] == routes[1], text


@settings(max_examples=30)
@given(theories())
def test_random_mutants_digest_alike_warm_and_cold(case):
    text, _broken = case
    try:
        warm, cold = parse_theory(text), parse_theory(text)
    except GvcError:
        return
    run_checks(warm, CHECK_NAMES)
    cold_sites = dict(mutation_sites(cold))
    for label, build in mutation_sites(warm):
        inherits, fresh_mutant = build(), cold_sites[label]()
        for check in CHECK_NAMES:
            assert build_report(inherits, [check])["canonical_sha256"] == \
                build_report(fresh_mutant, [check])["canonical_sha256"], \
                (label, check, text)


# -- planted symmetries -------------------------------------------------------


@st.composite
def _covariant(draw, letters, parity, signed):
    """A rational times field references and ``w`` entries whose every index
    is one of ``letters``, with one odd factor when ``parity`` is odd and
    none or two otherwise, and one ``e`` entry when ``signed``, whose two
    indices also sit in jets of even factors.  No index
    names a direction, so the transposition (0 1) of base directions maps
    its sum over the letters to itself, times -1 for an ``e``, when w[0] =
    w[1]."""
    letter = st.sampled_from(letters)

    def ref(name, slots, jet=None):
        comps = ",".join(draw(letter) for _ in range(slots))
        jets = draw(st.lists(letter, max_size=1)) if jet is None else [jet]
        return "%s[%s;%s]" % (name, comps, ",".join(jets))
    factors = [draw(_rational())]
    for _ in range(draw(st.integers(0, 2))):
        factors.append(ref(*draw(st.sampled_from((("x", 1), ("y", 0),
                                                  ("B", 2))))))
    odd = 1 if parity else draw(st.sampled_from((0, 0, 2)))
    # the second odd factor carries a jet, so the two differ
    factors += [ref("p", 1, draw(letter) if n else None) for n in range(odd)]
    if draw(st.booleans()):
        factors.append("w[%s]" % draw(letter))
    if signed:
        a, b = draw(st.lists(letter, min_size=2, max_size=2, unique=True))
        # y[;a] * x[a;b] puts both of e's indices in jets, so the typing
        # moves both of e's slots: sigma does not act on a table's entries,
        # and e[sigma a, b] is not +-e[a, b]
        factors += ["e[%s,%s]" % (a, b), "y[;%s]" % a, "x[%s;%s]" % (a, b)]
    return " * ".join(factors)


@st.composite
def _planted(draw):
    """(text, near_miss): a theory built symmetric under the transposition
    (0 1) of base directions, with an odd field ``p`` and an antisymmetric
    ``B``; L maps to +-L, and each record family c[g], d[g] to +- itself.
    Either L and the rows are random, so most records are red, or L is a
    function of the field strength of B and the record c[g] its gauge
    identity, which holds.  A near miss flips the sign of w[1], which
    breaks the symmetry wherever ``w`` occurs.  When c[g] is odd, gamma may
    act on it by a sum that (0 1) maps to itself, as it does u unless a
    signed row flips u, and that takes a random sign, which b's square
    need not survive."""
    dim = draw(st.integers(2, 3))
    near = draw(st.booleans())
    w = [draw(_rational()), draw(_rational())]
    w.insert(1, ("-" if near else "") + w[0])
    lines = ["theory planted;", "dim %d;" % dim, "jet_order 6;",
             "table w[%d]{ %s }" % (dim, " ".join(
                 "[%d]=%s;" % pair for pair in enumerate(w[:dim]))),
             # e[1,0] = -e[0,1], e[1,2] = -e[0,2] and e[2,1] = -e[2,0]
             "table e[%d,%d]{ [0,1]=1; [1,0]=-1; %s}" % (dim, dim, "" if
                                                         dim < 3 else
                 "[0,2]=1; [1,2]=-1; [2,0]=1; [2,1]=-1; "),
             "field x[%d] even;" % dim, "field y even;",
             "field p[%d] odd;" % dim,
             "field B[%d,%d] antisym even;" % (dim, dim)]
    over = "sum(%s){ %%s }" % ", ".join("%s:%d" % (i, dim) for i in "ijl")

    def gamma():
        if draw(st.booleans()):
            lines.append("gamma { (c[g]) = %ssum(i){ w[i] * c[i;] * c[g;i] }; "
                         "}" % draw(st.sampled_from(("", "-"))))
        return "\n".join(lines) + "\n", near
    if draw(st.booleans()):
        h = "(B[i,j;l] + B[j,l;i] + B[l,i;j])"
        lines.append("L = %s;" % over % ("%s * w[l] * %s * %s" % (
            draw(_rational()), h, h)))
        lines.append("ni c[g:%d] { (B[k,g]; k) = -1; }" % dim)
        return gamma()
    signed = draw(st.booleans())
    lines.append("L = %s;" % " + ".join(
        over % draw(_covariant("ijl", 0, signed))
        for _ in range(draw(st.integers(1, 3)))))
    odd = False
    for ghost in ("c", "d")[:draw(st.integers(1, 2))]:
        t, signed = draw(st.integers(0, 1)), draw(st.booleans())
        # Delta, so the ghost, has the parity t + 1 of every row
        odd = odd or (ghost == "c" and not t)
        rows = []
        for _ in range(draw(st.integers(1, 2))):
            target, slots = draw(st.sampled_from((("x", 1), ("y", 0),
                                                  ("p", 1), ("B", 2))))
            # B[g,g] is zero, so B's components are g and k in some order
            comps = draw(st.permutations("gk") if slots == 2 else
                         st.lists(st.sampled_from("gk"), min_size=slots,
                                  max_size=slots))
            jets = draw(st.lists(st.sampled_from("gk"), max_size=1))
            letters = sorted({"g", "i", *comps, *jets})
            coeff = draw(_covariant(letters, (t + (target == "p")) & 1,
                                    signed))
            rows.append("(%s[%s]%s) = sum(i:%d){ %s };" % (
                target, ",".join(comps), "; " + jets[0] if jets else "",
                dim, coeff))
        lines.append("ni %s[g:%d] { %s }" % (ghost, dim, " ".join(rows)))
    return gamma() if odd else ("\n".join(lines) + "\n", near)


# the checks that read the stage-0 residuals or b's table
_PLANTED_CHECKS = ("ni", "kt", "extended", "brst", "antibracket", "gauge")


@settings(max_examples=30)
@given(_planted())
def test_planted_symmetries_give_every_record_the_full_pass_verdict(case):
    text, near = case
    try:
        theory = parse_theory(text)
    except GvcError:
        return
    if not near:
        # the planted transposition holds, by the exact maps of the tests,
        # on the slots that carry a direction, and c[0] goes to c[1]
        # exactly when the source proves it and c's slot carries one
        swap, lag = direction_swap(theory.registry, 0), theory.lagrangian.terms
        deltas = {(rec.ghost, rec.component): rec.delta_poly(theory.registry)
                  for rec in theory.records}
        assert maps_to(swap, lag, lag), text
        assert all(label_signs(swap, deltas).values()), text
        assert (gvc.noether._orbits(theory)[0].get(1) == 0) == (
            0 in theory.derived["certificate"] and
            theory.registry.symbols["c"].directions == (True,)), text
    orbit, full = two_routes(lambda: parse_theory(text), _PLANTED_CHECKS)
    assert orbit == full, text
    # a record flipped on a cold theory breaks its orbit
    for label, build in mutation_sites(parse_theory(text)):
        if label.startswith("record"):
            orbit, full = two_routes(build, _PLANTED_CHECKS)
            assert orbit == full, (label, text)
            break


@settings(max_examples=40)
@given(st.one_of(theories(), _planted()))
def test_every_swap_a_random_source_proves_passes_the_exact_maps(case):
    # random theories, whose constant jet indices refuse the swaps that
    # move them, and planted ones, near misses included
    text, _ = case
    try:
        theory = parse_theory(text)
    except GvcError:
        return
    certified_swaps_hold(theory)


@settings(max_examples=40)
@given(st.one_of(theories(), _planted()))
def test_a_random_source_parses_as_the_tree_walker_parses_it(case):
    # the compiled evaluator hoists factors and takes values by orbit, the
    # walker neither: planted sources, their near misses and random ones
    # with odd fields give the same objects, certificates and errors
    both_routes(parsed_text(case[0]))
