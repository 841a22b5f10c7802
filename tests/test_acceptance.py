"""Acceptance gate: one test per criterion, reported as one line each.

Every identity below is decided by exact rational arithmetic -- "pass" means
the residual is literally the zero polynomial, never a numerical tolerance.
Every criterion finishes by asserting a wall-time budget, so a slow
regression fails on the same line a wrong answer would.
Theories are built through a module-local cache: the first criterion that
needs a fixture pays for parsing it inside its own timed window.
"""
import random
import time
from fractions import Fraction

import pytest

from gvc.algebra import GvcError, Registry
from gvc.brst import (check_antibracket, check_brst_nilpotent,
                      check_gauge_symmetry, gauge_from_ni)
from gvc.cli import _rebuild, mutation_sites, run_checks
from gvc.jets import prolong_apply, total_derivative
from gvc.noether import (NoetherRecord, _el, assemble_kt, check_extended,
                         check_kt_nilpotent, solve_trivial_witness, verify_ni,
                         verify_stage_ni)
from gvc.parser import parse_theory
from gvc.theories import build_fixture, load_builtin, osp12, su2
from gvc.variational import eta, euler_lagrange
from conftest import TOY_TEXT, all_pass, eta_pairing, iterated_derivative

_FIX = {}


def fix(name):
    if name not in _FIX:
        if name == "bf4":
            _FIX[name] = build_fixture("bf", n=4, p=1, q=2)
        elif name == "toy":
            _FIX[name] = parse_theory(TOY_TEXT)
        else:
            _FIX[name] = load_builtin(name)
    return _FIX[name]


def _budget(t0, seconds, label):
    dt = time.perf_counter() - t0
    print("%s: %.1fs (budget %ds)" % (label, dt, seconds))
    assert dt < seconds, "%s took %.1fs, budget %ds" % (label, dt, seconds)


def _eps_sign(perm):
    n = len(perm)
    if set(perm) != set(range(n)):
        return 0
    sign, p = 1, list(perm)
    for i in range(n):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            sign = -sign
    return sign


# ---------------------------------------------------------------------------
# randomized inputs for criteria 1 and 2


def _rand_registry(dim):
    # integrating by parts pushes intermediate jet orders past the order-2
    # inputs, so the cap needs headroom
    reg = Registry(dim, jet_order=6)
    reg.declare_field("s")
    reg.declare_field("t", parities=1)
    reg.declare_field("w", slots=(dim,))
    reg.freeze()
    return reg


def _rand_var(rng, reg):
    name = rng.choice(("s", "s", "t", "w"))
    comp = (rng.randrange(reg.dim),) if name == "w" else ()
    jets = tuple(sorted(rng.randrange(reg.dim)
                        for _ in range(rng.randrange(3))))
    return reg.var(name, comp, jets)


def _rand_poly(rng, reg, max_terms=3):
    while True:
        out = reg.zero
        for _ in range(1 + rng.randrange(max_terms)):
            coeff = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                             rng.choice((1, 2, 3)))
            mono = reg.const(coeff)
            for _ in range(1 + rng.randrange(2)):
                mono = mono * _rand_var(rng, reg)
            out = out + mono
        if not out.is_zero():
            return out


def _rand_family(rng, reg):
    candidates = [()]
    candidates += [(m,) for m in range(reg.dim)]
    candidates += [tuple(sorted((m, n)))
                   for m in range(reg.dim) for n in range(m, reg.dim)]
    rng.shuffle(candidates)
    return {index: _rand_poly(rng, reg)
            for index in candidates[:1 + rng.randrange(3)]}


def test_criterion_1_eta_involution_and_adjunction_are_exact():
    t0 = time.perf_counter()
    rng = random.Random(1405)
    regs = {d: _rand_registry(d) for d in (1, 2, 3)}
    for trial in range(200):
        reg = regs[1 + trial % 3]
        f = _rand_family(rng, reg)
        ef = eta(f)
        assert eta(ef) == f, trial
        phi = _rand_poly(rng, reg)
        lhs = reg.zero
        for index, coeff in f.items():
            term = iterated_derivative(coeff * phi, index)
            lhs = lhs + (term if len(index) % 2 == 0 else -term)
        assert lhs == eta_pairing(ef, phi), trial
    _budget(t0, 30, "criterion 1")


def test_criterion_2_field_equations_annihilate_total_derivatives():
    t0 = time.perf_counter()
    rng = random.Random(977)
    regs = {d: _rand_registry(d) for d in (1, 2, 3)}
    for trial in range(100):
        reg = regs[1 + trial % 3]
        density = total_derivative(_rand_poly(rng, reg, max_terms=4),
                                   rng.randrange(reg.dim))
        assert euler_lagrange(density).is_zero(), trial
    _budget(t0, 10, "criterion 2")


def test_criterion_3_yang_mills_su2_chain_with_sign_control():
    t0 = time.perf_counter()
    ym = fix("ym4")
    all_pass(verify_ni(ym))
    assert gauge_from_ni(ym)[0].components == ym.gauge_candidate
    all_pass(check_brst_nilpotent(ym))
    # -1 in place of -1/2 on the ghost quadratic: only the two-ghost
    # bucket of b^2 survives, and it must be reported as such
    doubled = {key: val.scale(2) for key, val in ym.gamma.items()}
    entries = check_brst_nilpotent(_rebuild(ym, gamma=doubled))
    fails = [e for e in entries if e["status"] == "fail"]
    assert fails
    assert all(e["note"] == "failing ghost degrees: 2" for e in fails)
    _budget(t0, 60, "criterion 3")


def test_criterion_4_graded_gauge_algebra_instance():
    t0 = time.perf_counter()
    osp12().validate()
    bad = osp12()
    bad.c[(0, 1, 2)] = Fraction(2)
    with pytest.raises(GvcError, match="not graded-antisymmetric"):
        bad.validate()
    bad = osp12()
    bad.c[(0, 0, 1)] = Fraction(1)
    bad.c[(0, 1, 0)] = Fraction(-1)
    with pytest.raises(GvcError, match="Jacobi identity fails"):
        bad.validate()

    sup = fix("ym4_super")
    all_pass(verify_ni(sup))
    all_pass(check_brst_nilpotent(sup))
    # without the sign decoration on odd directions the ghost quadratic
    # is not nilpotent
    reg = sup.registry
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
    _budget(t0, 60, "criterion 4")


def test_criterion_5_chern_simons_identities_and_triviality():
    t0 = time.perf_counter()
    cs = fix("cs3")
    reg = cs.registry
    sc = su2()

    def a(r, lam, *jets):
        return reg.var("a", (r, lam), jets)

    def curv(i, lam, mu):
        out = a(i, mu, lam) - a(i, lam, mu)
        for (r, p, q), v in sc.c.items():
            if r == i:
                out = out + (a(p, lam) * a(q, mu)).scale(v)
        return out

    # the field equation is the form-contracted dual curvature, exactly
    el = euler_lagrange(cs.lagrangian, wrt={"a"})
    for r in range(3):
        for lam in range(3):
            want = reg.zero
            for p in range(3):
                h = sc.casimir.get((r, p), 0)
                if not h:
                    continue
                for be in range(3):
                    for ga in range(3):
                        s = _eps_sign((lam, be, ga))
                        if s:
                            want = want + curv(p, be, ga).scale(s * h)
            assert el.get("a", (r, lam)) == want, (r, lam)

    # declared presentation of the identities
    all_pass(verify_ni(cs))
    # curvature presentation: residual zero, and trivial by a quadratic
    # antifield witness found by the linear solve
    for mu in range(3):
        rows = {("a", (r, lam), ()): curv(r, lam, mu)
                for r in range(3) for lam in range(3)}
        rec = NoetherRecord("cv", (mu,), rows)
        delta = rec.delta_poly(cs.registry)
        assert prolong_apply(assemble_kt(cs), [delta])[0].is_zero(), mu
        H = solve_trivial_witness(cs, rec)
        assert H is not None and H.antifield_number() == 2
        assert prolong_apply(assemble_kt(cs), [H])[0] == delta

    # the background enters the density but not the field equations
    def el_text(theory):
        res = euler_lagrange(theory.lagrangian, wrt={"a"})
        return {k: v.pretty() for k, v in res.components.items()
                if not v.is_zero()}

    free = build_fixture("cs3", background=None)
    other = build_fixture("cs3",
                          background={(0, 0): Fraction(7, 3), (2, 1): -1})
    assert cs.lagrangian.num_terms() != free.lagrangian.num_terms()
    assert el_text(free) == el_text(other) == el_text(cs)

    all_pass(check_brst_nilpotent(cs))
    _budget(t0, 120, "criterion 5")


def _grav_gauge_rows(reg, lam):
    """Row families of the infinitesimal diffeomorphism, one per component."""
    sg = lambda x, y, *jets: reg.var("sigma", (x, y), jets)
    kk = lambda m, x, y, *jets: reg.var("k", (m, x, y), jets)
    rows = {}
    for al in range(4):
        for be in range(al, 4):
            fam = {(): -sg(al, be, lam)}
            for nu in range(4):
                coeff = reg.zero
                if al == lam:
                    coeff = coeff + sg(nu, be)
                if be == lam:
                    coeff = coeff + sg(al, nu)
                if not coeff.is_zero():
                    fam[(nu,)] = coeff
            rows[("sigma", (al, be))] = fam
    for mu in range(4):
        for al in range(4):
            for be in range(4):
                fam = {(): -kk(mu, al, be, lam)}
                for nu in range(4):
                    coeff = reg.zero
                    if al == lam:
                        coeff = coeff + kk(mu, nu, be)
                    if nu == be:
                        coeff = coeff - kk(mu, al, lam)
                    if nu == mu:
                        coeff = coeff - kk(lam, al, be)
                    if not coeff.is_zero():
                        fam[(nu,)] = coeff
                if al == lam:
                    idx = tuple(sorted((mu, be)))
                    fam[idx] = fam.get(idx, reg.zero) + reg.const(1)
                rows[("k", (mu, al, be))] = fam
    return rows


def test_criterion_6_gravity_diffeomorphism_chain():
    t0 = time.perf_counter()
    gt = fix("grav4")
    reg = gt.registry
    assert reg.jet_order == 3
    # the density is not itself a boundary term: its equations are nonzero
    assert not _el(gt).is_zero()
    all_pass(check_gauge_symmetry(gt, 0))
    # the declared identity rows agree with re-deriving them from the
    # transformation rows through the eta involution
    recs = {rec.component[0]: rec.rows for rec in gt.records}
    for lam in range(4):
        want = {}
        for (name, comp), fam in _grav_gauge_rows(reg, lam).items():
            for idx, coeff in eta(fam).items():
                if not coeff.is_zero():
                    want[(name, comp, idx)] = coeff
        assert recs[lam] == want, lam
    all_pass(verify_ni(gt))
    # b = u + c^lam_mu c^mu d/dc^lam, and it squares to zero
    for l in range(4):
        quad = reg.zero
        for m in range(4):
            quad = quad + reg.var("cm", (l,), (m,)) * reg.var("cm", (m,))
        assert gt.gamma[("cm", (l,))] == quad, l
    all_pass(check_brst_nilpotent(gt))
    _budget(t0, 300, "criterion 6")


def test_criterion_7_bf_chain_including_reducible_tower():
    t0 = time.perf_counter()
    bf = fix("bf")
    all_pass(verify_ni(bf))
    for k in bf.stage_numbers() or [1]:
        all_pass(verify_stage_ni(bf, k))
    all_pass(check_kt_nilpotent(bf))
    all_pass(check_extended(bf))
    assert not bf.gamma  # b = u: nothing quadratic in the ghosts
    all_pass(check_brst_nilpotent(bf))

    bf4 = fix("bf4")
    assert bf4.stage_numbers() == [1]
    assert all(rec.h is None for rec in bf4.stage_records(1))
    all_pass(verify_ni(bf4))
    all_pass(verify_stage_ni(bf4, 1))
    all_pass(check_kt_nilpotent(bf4))
    all_pass(check_extended(bf4))
    all_pass(check_gauge_symmetry(bf4, 0))
    all_pass(check_gauge_symmetry(bf4, 1))
    all_pass(check_brst_nilpotent(bf4))
    all_pass(check_antibracket(bf4))
    _budget(t0, 60, "criterion 7")


FIXTURES = ("bf", "bf4", "ym4", "ym4_super", "cs3", "grav4")


def _routes(theory):
    kt = all(e["status"] == "pass" for e in check_kt_nilpotent(theory))
    ni = all(e["status"] == "pass" for e in verify_ni(theory))
    stages = all(e["status"] == "pass"
                 for k in theory.stage_numbers() or [1]
                 for e in verify_stage_ni(theory, k))
    return kt, ni and stages


def test_criterion_8_bookkeeping_routes_agree():
    t0 = time.perf_counter()
    for name in FIXTURES:
        kt, direct = _routes(fix(name))
        assert kt and direct, name
    # a flipped identity row breaks both routes at once
    for name in ("bf4", "ym4"):
        sites = dict(mutation_sites(fix(name)))
        label = next(l for l in sites if l.startswith("record "))
        kt, direct = _routes(sites[label]())
        assert not kt and not direct, name
    stage_sites = dict(mutation_sites(fix("bf4")))
    label = next(l for l in stage_sites if l.startswith("stage record "))
    kt, direct = _routes(stage_sites[label]())
    assert not kt and not direct

    # nilpotent BRST operators come with off-shell stage conditions: no
    # alpha certificate is ever needed for the shipped theories
    for name in FIXTURES:
        th = fix(name)
        all_pass(check_brst_nilpotent(th))
        for k in [0] + th.stage_numbers():
            all_pass(check_gauge_symmetry(_rebuild(th, alphas={}), k))
    # contrapositive: when a stage condition only closes on shell, the
    # ascent operator fails to square to zero exactly there
    toy = fix("toy")
    bare = check_gauge_symmetry(_rebuild(toy, alphas={}), 1)
    assert any(e["status"] == "unverified-on-shell" for e in bare)
    fails = {e["target"]
             for e in check_brst_nilpotent(toy)
             if e["status"] == "fail"}
    assert fails == {"y[]", "z[]"}
    _budget(t0, 45, "criterion 8")


def _catcher(label):
    """The one check a given sign flip must break.

    A corrupted stage record leaves the stage check honestly "unverified"
    (the residual could still be delta_KT-exact), but the nilpotency of
    delta_KT itself fails decisively, so that is the catcher."""
    if label.startswith("stage record "):
        return ["kt"]
    if label.startswith("record "):
        return ["ni"]
    if label.startswith("gauge "):
        return ["gauge"]
    if label.startswith("gamma "):
        return ["brst"]
    return ["ni"]  # lagrangian


def _pick_sites(sites, minimum=5):
    chosen, seen = [], set()
    for label, build in sites:
        kind = label.split(" ")[0]
        if kind not in seen:
            seen.add(kind)
            chosen.append((label, build))
    for site in sites:
        if len(chosen) >= minimum:
            break
        if site not in chosen:
            chosen.append(site)
    return chosen


def test_criterion_9_every_sign_mutation_is_caught():
    t0 = time.perf_counter()
    for name in ("bf", "bf4", "ym4", "ym4_super", "cs3"):
        th = fix(name)
        _el(th)  # mutants that keep the Lagrangian inherit this cache
        sites = mutation_sites(th)
        assert len(sites) >= 5, name
        for label, build in _pick_sites(sites):
            entries = run_checks(build(), _catcher(label))
            assert any(e["status"] == "fail" for e in entries), (name, label)
    # the gravity fixture: a Lagrangian flip moves the field equations, so
    # the identities fail; a record flip lands on a row whose paired
    # equation vanishes identically (the density only sees antisymmetrized
    # k-combinations), so the decisive catcher is the declared-operator
    # comparison instead
    gt = fix("grav4")
    _el(gt)
    sites = mutation_sites(gt)
    assert len(sites) >= 5
    narrowed = [(label, build, ["ni"] if label == "lagrangian" else ["gauge"])
                for label, build in sites
                if label == "lagrangian" or label.startswith("record ")]
    assert len(narrowed) == 5
    for label, build, checks in narrowed:
        entries = run_checks(build(), checks)
        assert any(e["status"] == "fail" for e in entries), label
    _budget(t0, 75, "criterion 9")
