"""Checks that do not share the kernel's code paths.

Monomial keys hold intern ranks, and odd factors multiply in rank order, an
order that follows parsing and checking.  Output must not depend on it:
``GradedPoly.global_terms`` turns every term into the global variable order.

- Order independence: a theory whose variables are interned in reversed or
  shuffled order gives the same digests and the same printed polynomials.
- A round trip from ``pretty`` to ``parse_expr`` with odd factors and
  antisymmetric families, in a registry whose rank order is not the global
  order.
- The ring kernel against factor words: products, total derivatives and
  left and right partial derivatives of random mixed-parity monomials, read
  only through ``global_terms``, against the words sorted by
  ``JetVariable.key`` with the sign of that permutation.
- A sympy oracle for the even sector: ``euler_lagrange`` against
  ``sympy.calculus.euler.euler_equations`` and ``total_derivative`` against
  ``sympy.diff``.
- Monomial keys are flat tuples of ints, so the first collection that sees
  one stops tracking it.
"""
import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from gvc.algebra import KIND_FIELD, GradedPoly, Registry
from gvc.cli import (CHECK_NAMES, DEFAULT_CHECKS, apply_sign_mutation,
                     build_report)
from gvc.jets import total_derivative
from gvc.parser import parse_expr
from gvc.theories import load_builtin
from gvc.variational import euler_lagrange
from conftest import cached, fresh


# -- order independence -------------------------------------------------------

def _fingerprint(theory, checks, mutant_checks):
    """Digests of ``checks`` and of ``mutant_checks`` on the ``--mutate sign``
    mutant, whose residuals are printed, and the printed Lagrangian,
    records, gauge and gamma components and Euler-Lagrange derivatives."""
    reg = theory.registry
    out = {"check " + c: build_report(theory, [c])["canonical_sha256"]
           for c in checks}
    mutant, label = apply_sign_mutation(theory)
    out["mutant " + label] = build_report(
        mutant, list(mutant_checks))["canonical_sha256"]
    out["L"] = theory.lagrangian.pretty()
    for rec in theory.records:
        out["record " + rec.label()] = rec.delta_poly(reg).pretty()
    for what, comps in (("gauge", theory.gauge_candidate or {}),
                        ("gamma", theory.gamma)):
        for key, p in comps.items():
            out["%s %r" % (what, key)] = p.pretty()
    for key, p in euler_lagrange(theory.lagrangian).components.items():
        out["EL %r" % (key,)] = p.pretty()
    return out


_DEFAULT = DEFAULT_CHECKS.split(",")
_ORDER_CASES = {"bf": (CHECK_NAMES, _DEFAULT),
                "ym4_super": (CHECK_NAMES, _DEFAULT),
                "cs3": (CHECK_NAMES, _DEFAULT),
                "grav4": (("kt",), ("brst",))}
_REFERENCE = {}


def _reference(name):
    """The fingerprint of a theory interned in its natural order, with the
    keys of every variable that run interned, in rank order.  The theory is
    parsed afresh, so that it runs the checks the reordered one runs, cold:
    a shared parse may be warm, and a warm mutant derives its tables by the
    difference of its edit, which takes other pairs than a cold build."""
    if name not in _REFERENCE:
        theory = fresh(name)
        fingerprint = _fingerprint(theory, *_ORDER_CASES[name])
        keys = [(v.symbol.name, v.component, v.index)
                for v in theory.registry.by_rank]
        _REFERENCE[name] = fingerprint, keys
    return _REFERENCE[name]


def _load_preinterned(monkeypatch, name, keys):
    """Parse ``name`` into a fresh registry that interns ``keys`` first, in
    the given order: before each interner call, every pending key whose
    symbol is declared by then is interned."""
    pending = list(keys)
    declared = [0]
    jet_var = Registry.jet_var

    def preinterning(reg, symbol, component=(), index=()):
        if pending and len(reg.symbols) != declared[0]:
            declared[0] = len(reg.symbols)
            ready = [k for k in pending if k[0] in reg.symbols]
            pending[:] = [k for k in pending if k[0] not in reg.symbols]
            for key in ready:
                jet_var(reg, *key)
        return jet_var(reg, symbol, component, index)

    monkeypatch.setattr(Registry, "jet_var", preinterning)
    theory = load_builtin(name)
    monkeypatch.undo()
    assert not pending
    return theory


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
@pytest.mark.parametrize("name", sorted(_ORDER_CASES))
def test_output_does_not_depend_on_intern_order(monkeypatch, name, order):
    want, keys = _reference(name)
    keys = list(reversed(keys))
    if order == "shuffled":
        random.Random(name).shuffle(keys)
    theory = _load_preinterned(monkeypatch, name, keys)
    by_rank = theory.registry.by_rank
    # the rank order of odd variables is not the global order, so every odd
    # monomial with two factors or more is stored with a different sign
    odd = [v for v in by_rank if v.parity]
    assert any(a.key > b.key for a, b in zip(odd, odd[1:]))
    got = _fingerprint(theory, *_ORDER_CASES[name])
    assert got == want
    # no variable was interned that the natural order did not intern
    assert len(by_rank) == len(keys)


# -- pretty -> parse_expr round trip -----------------------------------------

def _round_trip_registry(reverse):
    """A registry that interns its low jets in the global order (natural) or
    against it (reversed), before anything else."""
    reg = Registry(3)
    reg.declare_field("s")
    reg.declare_field("psi", slots=(3,), parities=1)
    reg.declare_field("B", slots=(3, 3), symmetry="antisym")
    reg.declare_field("F", slots=(3, 3), parities=1, symmetry="antisym")
    c = reg.declare_ghost("c", 0, slots=(3,), parities=1)
    reg.declare_ghost_antifield(c)
    reg.freeze()
    keys = [(sym, comp, index) for sym in reg.symbols.values()
            for comp in sym.components() for index in ((), (0,), (1, 2))]
    keys.sort(key=lambda k: (k[0].kind, k[0].name, k[1], k[2]),
              reverse=reverse)
    for key in keys:
        reg.jet_var(*key)
    return reg


_RT_NATURAL = _round_trip_registry(False)
_RT_REVERSED = _round_trip_registry(True)
# (symbol, component, jets); B and F components out of canonical order carry
# a sign, and F[2,2] vanishes
_RT_ATOMS = [("s", (), ()), ("s", (), (1, 2)), ("psi", (0,), ()),
             ("psi", (2,), (0,)), ("psi", (1,), (1, 2)), ("B", (1, 0), ()),
             ("B", (0, 2), (0,)), ("F", (2, 1), ()), ("F", (0, 1), (1, 2)),
             ("F", (2, 2), ()), ("c", (1,), ()), ("c", (0,), (0,)),
             ("c_bar", (2,), ()), ("s_bar", (), (0,)), ("psi_bar", (1,), ())]

_coefficients = st.one_of(
    st.integers(-9, 9).filter(bool),
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool))
_recipes = st.lists(st.tuples(_coefficients,
                              st.lists(st.sampled_from(_RT_ATOMS),
                                       max_size=4)),
                    max_size=4)


def _build(reg, recipe):
    p = reg.zero
    for c, atoms in recipe:
        term = reg.const(c)
        for atom in atoms:
            term = term * reg.var(*atom)
        p = p + term
    return p


@given(_recipes)
def test_pretty_parse_round_trip_in_any_rank_order(recipe):
    natural = _build(_RT_NATURAL, recipe)
    reversed_ = _build(_RT_REVERSED, recipe)
    text = reversed_.pretty()
    assert text == natural.pretty()
    assert parse_expr(text, _RT_REVERSED) == reversed_
    assert parse_expr(text, _RT_NATURAL) == natural


def test_natural_registry_stores_odd_products_against_the_global_order():
    # odd factors are stored in decreasing rank, which the natural registry
    # interned in the global order: the stored product runs against it
    reg = _RT_NATURAL
    r0 = reg.jet_var("psi", (0,))[0].rank
    r2 = reg.jet_var("psi", (2,))[0].rank
    assert r0 < r2
    p = reg.var("psi", (0,)) * reg.var("psi", (2,))
    assert p.terms == {(~r2, ~r0): -1}
    assert p.pretty() == "psi[0;]*psi[2;]"
    q = _RT_REVERSED.var("psi", (0,)) * _RT_REVERSED.var("psi", (2,))
    assert list(q.terms.values()) == [1]
    assert q.pretty() == p.pretty()


# -- the kernel against factor words ------------------------------------------
#
# A monomial is a word of jet variables.  Its normal form sorts the word by
# JetVariable.key, with the sign of the permutation of its odd factors; a
# repeated odd factor makes it zero.  Nothing here reads a monomial key: the
# kernel's results are read through global_terms.

def _normal(terms):
    """{sorted word: coeff} of sum c * word over ``terms``, pairs of a
    coefficient and a list of jet variables, zeros dropped."""
    out = {}
    for c, word in terms:
        odd = [v.key for v in word if v.parity]
        if len(set(odd)) < len(odd):
            continue
        # one transposition per pair of odd factors out of order
        flips = sum(1 for i, a in enumerate(odd) for b in odd[i + 1:]
                    if a > b)
        key = tuple(sorted(word, key=lambda v: v.key))
        out[key] = out.get(key, 0) + (-c if flips & 1 else c)
    return {k: c for k, c in out.items() if c}


def _read(p):
    """p as {sorted word: coeff}, through global_terms only."""
    out = {}
    for _, c, evens, odds in p.global_terms():
        word = [v for v, e in evens for _ in range(e)] + list(odds)
        out[tuple(sorted(word, key=lambda v: v.key))] = c
    return out


def _words(reg, recipe):
    """The (coeff, word) terms of a recipe; antisymmetric components carry
    their sign, and a vanishing one drops the term."""
    terms = []
    for c, atoms in recipe:
        word = []
        for atom in atoms:
            v, sign = reg.jet_var(*atom)
            if not sign:
                break
            c *= sign
            word.append(v)
        else:
            terms.append((c, word))
    return terms


@st.composite
def _word_recipes(draw):
    """Recipes whose words often repeat a factor, odd ones included."""
    recipe = []
    for c, atoms in draw(_recipes):
        atoms = list(atoms)
        if atoms and draw(st.booleans()):
            atoms.insert(draw(st.integers(0, len(atoms))),
                         draw(st.sampled_from(atoms)))
        recipe.append((c, atoms))
    return recipe


@settings(max_examples=60)
@given(st.sampled_from(["natural", "reversed"]), _word_recipes(),
       _word_recipes(), st.integers(0, 2))
def test_kernel_matches_sorted_factor_words(order, r1, r2, lam):
    reg = _RT_NATURAL if order == "natural" else _RT_REVERSED
    w1, w2 = _words(reg, r1), _words(reg, r2)
    p1, p2 = _build(reg, r1), _build(reg, r2)
    assert _read(p1) == _normal(w1)
    assert _read(p2) == _normal(w2)
    # _mul_terms, through GradedPoly.__mul__
    assert _read(p1 * p2) == _normal(
        [(c1 * c2, a + b) for c1, a in w1 for c2, b in w2])
    # total_derivative: d_lam replaces each factor in turn
    dw = []
    for c, word in w1:
        for i, v in enumerate(word):
            dv, _ = reg.jet_var(v.symbol, v.component, v.index + (lam,))
            dw.append((c, word[:i] + [dv] + word[i + 1:]))
    assert _read(total_derivative(p1, lam)) == _normal(dw)
    # partials: a left derivative moves the factor to the front, a right
    # one to the end, across the odd factors it passes
    for side in ("left", "right"):
        want = {}
        for word, c in _normal(w1).items():
            for i, v in enumerate(word):
                rest = word[i + 1:] if side == "right" else word[:i]
                passed = sum(u.parity for u in rest)
                sign = -1 if v.parity and passed & 1 else 1
                want.setdefault(v, []).append(
                    (sign * c, word[:i] + word[i + 1:]))
        want = {v: _normal(t) for v, t in want.items()}
        assert {v: _read(d) for v, d in p1.partials(side)} == \
            {v: t for v, t in want.items() if t}


# -- sympy oracle for the even sector -----------------------------------------

def _sympy_setup(reg):
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x0:%d" % reg.dim)
    funcs = {}
    for name, sym in sorted(reg.symbols.items()):
        if sym.kind != KIND_FIELD:
            continue
        for comp in sym.components():
            if not sym.parity(comp):
                label = "_".join([name] + [str(i) for i in comp])
                funcs[(name, comp)] = sympy.Function(label)(*xs)
    return sympy, xs, funcs


def _to_sympy(sympy, xs, funcs, p):
    terms = []
    for _, c, evens, odds in p.global_terms():
        assert not odds
        factors = [sympy.Rational(c.numerator, c.denominator)]
        for v, e in evens:
            f = funcs[(v.symbol.name, v.component)]
            if v.index:
                f = f.diff(*[xs[lam] for lam in v.index])
            factors.append(f ** e)
        terms.append(sympy.Mul(*factors))
    return sympy.Add(*terms)


def _even_field_part(L, funcs):
    """The terms of L whose factors are all even field variables."""
    return GradedPoly(L.reg, {
        key: L.terms[key] for key, _, evens, odds in L.global_terms()
        if not odds and all((v.symbol.name, v.component) in funcs
                            for v, _ in evens)})


def _assert_el_matches_sympy(L, keys=None):
    """Compare ``euler_lagrange`` with sympy's on the even field part of L,
    for the components ``keys`` (every even field component by default)."""
    sympy, xs, funcs = _sympy_setup(L.reg)
    from sympy.calculus.euler import euler_equations
    L = _even_field_part(L, funcs)
    keys = sorted(funcs) if keys is None else keys
    el = euler_lagrange(L, {name for name, _ in keys})
    # euler_equations drops an equation whose left side is a constant
    # (Eq(c, 0) evaluates to a boolean); the term z_A * f_A keeps each one
    zs = sympy.symbols("z0:%d" % len(keys))
    expr = _to_sympy(sympy, xs, funcs, L) + sympy.Add(
        *[z * funcs[key] for z, key in zip(zs, keys)])
    eqs = euler_equations(expr, [funcs[key] for key in keys], xs)
    assert len(eqs) == len(keys)
    for key, z, eq in zip(keys, zs, eqs):
        assert eq.rhs == 0
        ours = _to_sympy(sympy, xs, funcs, el.get(*key))
        assert sympy.expand(eq.lhs - z - ours) == 0, key
    return L


def test_euler_lagrange_matches_sympy_on_fixtures():
    assert _assert_el_matches_sympy(cached("bf").lagrangian).num_terms() == 6
    # sympy takes about 0.4 s per component of ym4: one per color
    L = _assert_el_matches_sympy(cached("ym4").lagrangian,
                                 [("a", (0, 0)), ("a", (1, 2)), ("a", (2, 3))])
    assert L.num_terms() == 180


def test_total_derivative_matches_sympy_diff():
    L = cached("bf").lagrangian
    sympy, xs, funcs = _sympy_setup(L.reg)
    ours = _to_sympy(sympy, xs, funcs, total_derivative(L, 1))
    expr = sympy.diff(_to_sympy(sympy, xs, funcs, L), xs[1])
    assert sympy.expand(expr - ours) == 0


def _oracle_registry():
    reg = Registry(2)
    reg.declare_field("u")
    reg.declare_field("w")
    reg.freeze()
    return reg


_ORACLE_REG = _oracle_registry()
_ORACLE_ATOMS = [(name, (), index) for name in ("u", "w")
                 for index in ((), (0,), (1,), (0, 0), (0, 1), (1, 1))]


@settings(max_examples=20)
@given(st.lists(st.tuples(st.integers(-4, 4).filter(bool),
                          st.lists(st.sampled_from(_ORACLE_ATOMS),
                                   min_size=1, max_size=3)),
                min_size=1, max_size=4))
def test_euler_lagrange_and_total_derivative_match_sympy_on_random_lagrangians(
        recipe):
    reg = _ORACLE_REG
    L = reg.zero
    for c, atoms in recipe:
        term = reg.const(c)
        for atom in atoms:
            term = term * reg.var(*atom)
        L = L + term
    _assert_el_matches_sympy(L)
    sympy, xs, funcs = _sympy_setup(reg)
    ours = _to_sympy(sympy, xs, funcs, total_derivative(L, 1))
    expr = sympy.diff(_to_sympy(sympy, xs, funcs, L), xs[1])
    assert sympy.expand(expr - ours) == 0


# -- keys the garbage collector does not track ------------------------------

def test_monomial_keys_hold_only_ints_and_are_not_tracked_by_gc():
    L = cached("grav4").lagrangian
    el = euler_lagrange(L)
    # A collection untracks a tuple whose items are all untracked.  A key is
    # one flat tuple of ints, so the first collection that sees it untracks
    # it; a key of nested tuples would need one collection per level.
    gc.collect()
    polys = [L] + list(el.components.values())
    assert sum(p.num_terms() for p in polys) > 10000
    for p in polys:
        for key in p.terms:
            assert type(key) is tuple
            assert all(type(r) is int for r in key)
            assert not gc.is_tracked(key)
