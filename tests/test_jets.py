"""Total derivatives, prolongations, commutators, nilpotency residuals."""
import gc
import random

import pytest
from hypothesis import given, strategies as st

import gvc.jets
from gvc.algebra import (GradedPoly, GradingError, GvcError, JetOrderCapError,
                         JetVariable, Registry)
from gvc.cli import CHECK_NAMES, build_report
from gvc.noether import assemble_kt
from gvc.parser import parse_theory
from gvc.theories import build_fixture, load_builtin
from gvc.variational import euler_lagrange
from gvc.jets import (
    EvolutionaryDerivation,
    prolong_apply,
    total_derivative,
)
from conftest import iterated_derivative, nilpotency_residuals, prolong_oracle


def make_registry():
    reg = Registry(2)
    reg.declare_field("s")
    reg.declare_field("t", parities=1)
    reg.freeze()
    return reg


REG = make_registry()
S = REG.var("s")
T = REG.var("t")


def rand_poly(rng, reg=REG, max_order=2):
    names = [n for n, sym in reg.symbols.items()]
    p = reg.zero
    for _ in range(rng.randint(1, 3)):
        term = reg.const(rng.choice((1, -1)) * rng.randint(1, 3))
        for _ in range(rng.randint(0, 2)):
            name = rng.choice(names)
            idx = tuple(rng.randrange(reg.dim)
                        for _ in range(rng.randint(0, max_order)))
            term = term * reg.var(name, (), idx)
        p = p + term
    return p


def test_total_derivative_on_generators():
    assert total_derivative(S, 0) == REG.var("s", (), (0,))
    assert total_derivative(REG.var("s", (), (0,)), 1) == REG.var("s", (), (0, 1))
    assert total_derivative(REG.const(7), 0).is_zero()


def test_total_derivative_is_an_even_derivation():
    # no Koszul sign even through odd factors
    t0 = REG.var("t", (), (0,))
    assert total_derivative(S * T, 0) == REG.var("s", (), (0,)) * T + S * t0
    t01 = REG.var("t", (), (0, 1))
    t1 = REG.var("t", (), (1,))
    assert total_derivative(T * t0, 1) == t1 * t0 + T * t01


def test_total_derivatives_commute():
    rng = random.Random(7)
    for _ in range(25):
        p = rand_poly(rng)
        assert total_derivative(total_derivative(p, 0), 1) == \
            total_derivative(total_derivative(p, 1), 0)


def test_iterated_derivative_matches_composition():
    rng = random.Random(11)
    for _ in range(10):
        p = rand_poly(rng, max_order=1)
        q = total_derivative(total_derivative(total_derivative(p, 0), 1), 1)
        assert iterated_derivative(p, (0, 1, 1)) == q
        assert iterated_derivative(p, ()) == p


def test_derivative_beyond_cap_raises():
    # on every call: a successor beyond the cap is never memoized
    reg = Registry(1, jet_order=1)
    reg.declare_field("s")
    reg.declare_field("t", parities=1)
    reg.freeze()
    for name in ("s", "t"):
        base = reg.var(name)
        top = total_derivative(base, 0)
        (v,) = base.variables()
        (dv,) = top.variables()
        assert v.succ == {0: dv}
        for _ in range(2):
            with pytest.raises(JetOrderCapError):
                total_derivative(top, 0)
            with pytest.raises(JetOrderCapError):
                total_derivative(base * top, 0)
        assert dv.succ == {}


def test_prolongation_reaches_jet_variables():
    u = EvolutionaryDerivation(REG, {("s", ()): S * S})
    s0 = REG.var("s", (), (0,))
    assert prolong_apply(u, [s0])[0] == total_derivative(S * S, 0)
    assert prolong_apply(u, [REG.var("s", (), (0, 1))])[0] == \
        iterated_derivative(S * S, (0, 1))
    assert prolong_apply(u, [REG.const(3)])[0].is_zero()
    # derivation property on a product
    assert prolong_apply(u, [S * s0])[0] == (S * S) * s0 + S * total_derivative(S * S, 0)


def test_left_and_right_odd_derivations_mirror_signs():
    # u(t) = s with u odd; on t*t0 the two conventions differ by a sign
    u = EvolutionaryDerivation(REG, {("t", ()): S})
    ur = EvolutionaryDerivation(REG, {("t", ()): S}, right=True)
    t0 = REG.var("t", (), (0,))
    s0 = REG.var("s", (), (0,))
    left = prolong_apply(u, [T * t0])[0]
    assert left == S * t0 - T * s0
    assert prolong_apply(ur, [T * t0])[0] == -left
    # on even arguments both act identically
    p = S * REG.var("s", (), (1,))
    assert prolong_apply(u, [p])[0] == prolong_apply(ur, [p])[0]


def test_derivation_parity_consistency_enforced():
    with pytest.raises(GradingError, match="parity is inconsistent"):
        EvolutionaryDerivation(REG, {("s", ()): T, ("t", ()): T})


def commutator(u, v):
    """The graded commutator [u, v] as an evolutionary derivation.

    Components: [u,v]^A = u(v^A) - (-1)^{[u][v]} v(u^A), where application is
    by prolongation.  Both arguments must be on the same side.
    """
    if u.right != v.right:
        raise GvcError("cannot commute a left with a right derivation")
    sign = -1 if (u.parity & v.parity) else 1
    comps = {}
    keys = set(u.components) | set(v.components)
    for key in keys:
        a = prolong_apply(u, [v.components.get(key, u.reg.zero)])[0]
        b = prolong_apply(v, [u.components.get(key, u.reg.zero)])[0]
        w = a - b if sign == 1 else a + b
        if not w.is_zero():
            comps[key] = w
    return EvolutionaryDerivation(u.reg, comps, right=u.right)


def test_commutator_against_direct_composition():
    rng = random.Random(3)
    u = EvolutionaryDerivation(REG, {("s", ()): S * S})
    v = EvolutionaryDerivation(REG, {("s", ()): REG.var("s", (), (0,))})
    w = commutator(u, v)
    for _ in range(6):
        p = rand_poly(rng)
        (uv,) = prolong_apply(u, prolong_apply(v, [p]))
        (vu,) = prolong_apply(v, prolong_apply(u, [p]))
        assert prolong_apply(w, [p])[0] == uv - vu


def test_commutator_of_odd_derivations_is_graded():
    # for odd u the graded bracket [u,u] equals 2 u^2
    u = EvolutionaryDerivation(REG, {("s", ()): T, ("t", ()): S})
    w = commutator(u, u)
    rng = random.Random(5)
    for _ in range(6):
        p = rand_poly(rng)
        assert prolong_apply(w, [p])[0] == \
            prolong_apply(u, prolong_apply(u, [p]))[0].scale(2)


def test_nilpotency_residuals_and_certificates():
    reg = Registry(1)
    reg.declare_field("A")
    reg.declare_ghost("e", 0, parities=1)
    reg.freeze()
    good = EvolutionaryDerivation(reg, {("A", ()): reg.var("e", (), (0,))})
    assert nilpotency_residuals(good) == {}
    bad = EvolutionaryDerivation(
        reg, {("A", ()): reg.var("e"), ("e", ()): reg.var("A")})
    res = nilpotency_residuals(bad)
    assert res[("A", ())] == reg.var("A")
    assert res[("e", ())] == reg.var("e")


def test_derivation_algebra_helpers():
    u = EvolutionaryDerivation(REG, {("s", ()): S})
    assert u.parity == 0
    z = EvolutionaryDerivation(REG, {})
    assert z.is_zero()
    assert prolong_apply(z, [S * S])[0].is_zero()


@given(st.integers(0, 1), st.integers(0, 1), st.integers(0, 2**32 - 1))
def test_leibniz_rule_randomized(lam, mu, seed):
    rng = random.Random(seed)
    p, q = rand_poly(rng), rand_poly(rng)
    d = total_derivative(p * q, lam)
    assert d == total_derivative(p, lam) * q + p * total_derivative(q, lam)
    dd = iterated_derivative(p, (lam, mu))
    assert dd == iterated_derivative(p, (mu, lam))


# -- the successor memo --------------------------------------------------------

def make_family_registry(jet_order=3):
    """Even and odd families, plain, symmetric and antisymmetric."""
    reg = Registry(2, jet_order=jet_order)
    reg.declare_field("s")
    reg.declare_field("psi", slots=(2,), parities=1)
    reg.declare_field("g", slots=(2, 2), symmetry="sym")
    reg.declare_field("B", slots=(3, 3), symmetry="antisym")
    reg.declare_field("chi", slots=(3, 3), parities=1, symmetry="antisym")
    reg.freeze()
    return reg


def rand_family_poly(rng, reg, max_order=2):
    p = reg.zero
    for _ in range(rng.randint(1, 4)):
        term = reg.const(rng.choice((1, -1)) * rng.randint(1, 3))
        for _ in range(rng.randint(1, 3)):
            sym = reg.symbols[rng.choice(sorted(reg.symbols))]
            comp = tuple(rng.randrange(n) for n in sym.slots)
            idx = tuple(rng.randrange(reg.dim)
                        for _ in range(rng.randint(0, max_order)))
            term = term * reg.var(sym.name, comp, idx)
        p = p + term
    return p


def reference_total_derivative(p, lam):
    """sum_v d_lam(v) * dp/dv, each d_lam(v) interned by Registry.jet_var."""
    reg = p.reg
    out = reg.zero
    for v, part in p.partials("left"):
        dv, sign = reg.jet_var(v.symbol, v.component, v.index + (lam,))
        assert sign == 1
        out = out + GradedPoly.from_var(reg, dv) * part
    return out


def test_memoized_total_derivative_matches_the_interner():
    rng = random.Random(17)
    reg = make_family_registry()
    for _ in range(60):
        p = rand_family_poly(rng, reg)
        lam = rng.randrange(reg.dim)
        cold = total_derivative(p, lam)
        warm = total_derivative(p, lam)
        assert cold == warm == reference_total_derivative(p, lam)
        for v in p.variables():
            assert v.succ[lam] is \
                reg.jet_var(v.symbol, v.component, v.index + (lam,))[0]


def _full_run(name):
    if name == "bf4":
        return build_fixture("bf", n=4, p=1, q=2)
    return load_builtin(name)


@pytest.mark.parametrize("name", ["ym4_super", "bf4"])
def test_interned_variables_stay_unique_after_full_runs(name):
    theory = _full_run(name)
    assert build_report(theory, list(CHECK_NAMES))["overall"] == "pass"
    reg = theory.registry
    interned = reg._vars
    memoized = 0
    for key, v in interned.items():
        assert key == (v.symbol.name, v.component, v.index)
        for lam, dv in v.succ.items():
            index = tuple(sorted(v.index + (lam,)))
            assert interned[(v.symbol.name, v.component, index)] is dv
            memoized += 1
    assert memoized
    # no key was interned twice: every live variable of this registry is
    # the one the interner holds for its key
    gc.collect()
    symbols = {id(sym) for sym in reg.symbols.values()}
    live = [o for o in gc.get_objects()
            if type(o) is JetVariable and id(o.symbol) in symbols]
    assert len(live) == len(interned)
    for o in live:
        assert interned[(o.symbol.name, o.component, o.index)] is o


def test_accumulators_leave_operands_and_zero_unchanged():
    reg = make_family_registry()
    L = reg.var("s", (), (0,)) ** 2 + \
        reg.var("s") * reg.var("psi", (0,)) * reg.var("psi", (1,), (1,)) + \
        reg.var("B", (0, 1), (0,)) * reg.var("g", (0, 0))
    L_terms = dict(L.terms)
    el = euler_lagrange(L)
    zero = [k for k, e in el.components.items() if e.is_zero()]
    assert zero and len(zero) < len(el.components)
    assert L.terms == L_terms
    assert reg.zero.terms == {}
    assert all(e.terms is not reg.zero.terms and e.terms is not L.terms
               for e in el.components.values())
    u = EvolutionaryDerivation(
        reg, {("s", ()): reg.var("psi", (0,)) * reg.var("psi", (1,)),
              ("psi", (1,)): reg.var("psi", (0,), (1,))})
    u_terms = {k: dict(c.terms) for k, c in u.components.items()}
    for p in [L, reg.zero, reg.one, reg.var("g", (0, 1))] + \
            [el.get(*k) for k in zero]:
        p_terms = dict(p.terms)
        out = prolong_apply(u, [p])[0]
        assert out.terms is not p.terms and out.terms is not reg.zero.terms
        assert p.terms == p_terms
    assert prolong_apply(u, [reg.var("g", (0, 1))])[0].is_zero()
    assert {k: c.terms for k, c in u.components.items()} == u_terms
    assert L.terms == L_terms
    assert reg.zero.terms == {}


# -- the one-pass prolongation ---------------------------------------------------

# a cap of 6 leaves room for the by-parts route on jets of order 3: it
# derives a partial of order 3 up to three more times
DEEP = make_family_registry(jet_order=6)


def rand_derivation(rng, reg, right):
    """A derivation of random parity; each component keeps the part of a
    random polynomial of the parity the derivation needs there."""
    parity = rng.randrange(2)
    comps = {}
    for _ in range(rng.randint(1, 4)):
        sym = reg.symbols[rng.choice(sorted(reg.symbols))]
        comp = tuple(rng.randrange(n) for n in sym.slots)
        want = (parity + sym.parity(comp)) & 1
        val = rand_family_poly(rng, reg, max_order=1)
        comps[(sym.name, comp)] = GradedPoly(
            reg, {k: c for k, c, factors in val.monomials()
                  if sum(v.parity for v in factors) & 1 == want})
    return EvolutionaryDerivation(reg, comps, right=right)


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_prolong_apply_matches_the_memo_free_oracle(seed, right):
    # left and right derivations; lists with repeats, zeros and constants;
    # u's own components, whose images, u's nilpotency residuals, do not
    # all vanish for about a quarter of the random u
    rng = random.Random(seed)
    u = rand_derivation(rng, DEEP, right)
    ps = [rand_family_poly(rng, DEEP, max_order=3)
          for _ in range(rng.randint(1, 4))]
    ps += list(u.components.values())
    ps += [DEEP.zero, DEEP.const(rng.randint(1, 3))]
    ps += rng.choices(ps, k=2)
    rng.shuffle(ps)
    assert prolong_apply(u, ps) == [prolong_oracle(u, p) for p in ps]
    assert nilpotency_residuals(u) == {
        key: r for key, r in ((key, prolong_oracle(u, val))
                              for key, val in u.components.items())
        if not r.is_zero()}


def test_one_pass_derives_each_prefix_once(monkeypatch):
    # rows of jet order 2 that share the prefixes (0,) and (1,), spread over
    # two records; the identities need not hold to count the work
    th = parse_theory("""
dim 2;
field y even;
field z even;
L = 1/2 * (y[;0] - z)^2 + 1/2 * y[;1]^2;
ni c[] { (y) = 1; (z; 0,1) = 1; (z; 0,0) = y; }
ni k[] { (z; 0) = z[;1]; (z; 0,1) = y[;0]; (z; 1,1) = 1; (y; 1) = z; }
""")
    kt = assemble_kt(th)
    prefixes = set()
    for val in kt.components.values():
        for v in val.variables():
            if (v.symbol.name, v.component) in kt.components:
                for k in range(1, v.order + 1):
                    prefixes.add((v.symbol.name, v.component, v.index[:k]))
    assert len(prefixes) == 6
    calls = []
    derive = gvc.jets.total_derivative

    def counted(p, lam):
        calls.append(lam)
        return derive(p, lam)
    monkeypatch.setattr(gvc.jets, "total_derivative", counted)
    first = nilpotency_residuals(kt)
    assert first and len(calls) == len(prefixes)
    assert nilpotency_residuals(kt) == first
    assert len(calls) == 2 * len(prefixes)


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_both_prolongation_routes_match_the_memo_free_oracle(seed, right):
    # every polynomial of the pass forced down the prefix chain, then down
    # the by-parts route; u of random parity, so f and upsilon^A are odd or
    # even on either side, and jets of order 3 in the polynomials
    rng = random.Random(seed)
    u = rand_derivation(rng, DEEP, right)
    ps = [rand_family_poly(rng, DEEP, max_order=3)
          for _ in range(rng.randint(1, 3))]
    ps += list(u.components.values())
    want = [prolong_oracle(u, p) for p in ps]
    for route in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gvc.jets, "_by_parts", lambda phi, f, route=route: route)
            assert prolong_apply(u, ps) == want


def test_by_parts_stays_under_the_jet_order_cap():
    # by parts, the partial y[;0,0] would be derived twice more, past the
    # cap of 2; deriving upsilon needs only d_00 of an order-0 polynomial
    reg = Registry(1, jet_order=2)
    reg.declare_field("x")
    reg.declare_field("y")
    reg.freeze()
    y, y0, y00 = (reg.var("y", (), (0,) * k) for k in range(3))
    phi = sum((y ** k for k in range(1, 10)), reg.zero)
    assert len(phi.terms) > gvc.jets.BY_PARTS_RATIO * 2
    assert gvc.jets._by_parts(phi, {(0,): y, (0, 0): y})
    assert not gvc.jets._by_parts(phi, {(0,): y0, (0, 0): y00})
    u = EvolutionaryDerivation(reg, {("x", ()): phi}, right=True)
    p = y00 * reg.var("x", (), (0, 0)) + y0 * reg.var("x", (), (0,))
    (image,) = prolong_apply(u, [p])
    assert image == prolong_oracle(u, p)


def test_grav4_kt_derives_by_parts(monkeypatch):
    # the prefix chain alone, which derives each d_Lambda E_A, feeds 174,912
    # terms to total_derivative and multiplies 1,313,952 pairs; by parts
    # 26,400 and 396,672
    theory = load_builtin("grav4")
    terms, pairs = [], []
    derive, mul = gvc.jets.total_derivative, gvc.jets._mul_terms

    def counted_derive(p, lam, *args):
        terms.append(len(p.terms))
        return derive(p, lam, *args)

    def counted_mul(t1, t2, out=None):
        pairs.append(len(t1) * len(t2))
        return mul(t1, t2, out)
    monkeypatch.setattr(gvc.jets, "total_derivative", counted_derive)
    monkeypatch.setattr(gvc.jets, "_mul_terms", counted_mul)
    assert build_report(theory, ["kt"])["overall"] == "pass"
    assert sum(terms) <= 60000
    assert sum(pairs) <= 800000
