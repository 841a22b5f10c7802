"""The coefficient rule of ``gvc.algebra._rat``: a coefficient is an int
exactly when it is integral.  Parsing gives birth to it, the kernels keep
it, and every object a check stores holds it; a Fraction that is whole
prints, compares and digests like the int it equals."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gvc.algebra import GradedPoly, Registry, _holds_fraction
from gvc.cli import DEFAULT_CHECKS, build_report, mutation_sites, run_checks
from gvc.jets import EvolutionaryDerivation, prolong_apply, total_derivative
from gvc.variational import eta, euler_lagrange
from conftest import fraction_twin, fresh

CHECKS = DEFAULT_CHECKS.split(",")


def whole_fractions(p):
    """The coefficients of ``p`` that break the rule."""
    return [c for c in p.terms.values()
            if type(c) is Fraction and c.denominator == 1]


def keeps_rule(polys):
    return all(not whole_fractions(p) for p in polys)


# -- the kernels -----------------------------------------------------------------

def _registry():
    reg = Registry(2, jet_order=5)
    reg.declare_field("s")
    reg.declare_field("r")
    reg.declare_field("psi", slots=(2,), parities=1)
    reg.freeze()
    return reg


REG = _registry()
ATOMS = [REG.var(name, comp, jets)
         for name, comp in [("s", ()), ("r", ()), ("psi", (0,)),
                            ("psi", (1,))]
         for jets in [(), (0,), (1,), (0, 1)]]
COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4) \
    .filter(bool)


@st.composite
def rational_polys(draw):
    p = REG.zero
    for _ in range(draw(st.integers(0, 4))):
        term = REG.const(draw(COEFFS))
        for atom in draw(st.lists(st.sampled_from(ATOMS), max_size=3)):
            term = term * atom
        p = p + term
    return p


def _part(p, parity):
    """The terms of ``p`` of one parity."""
    return GradedPoly(p.reg, {k: c for k, c, factors in p.monomials()
                              if sum(v.parity for v in factors) & 1 == parity})


@given(rational_polys(), rational_polys(), rational_polys(), COEFFS,
       st.booleans())
def test_every_kernel_output_keeps_the_rule(a, b, c, k, right):
    assert keeps_rule([a, b, c])
    outs = [a * b, b * a, a + b, a - b, a.scale(k), a.scale(2), -a]
    outs += [part for p in (a, b) for side in ("left", "right")
             for _v, part in p.partials(side)]
    outs += [total_derivative(p, lam) for p in (a, b) for lam in (0, 1)]
    outs += list(eta({(): a, (0,): b, (0, 1): c}).values())
    outs += list(euler_lagrange(a).components.values())
    u = EvolutionaryDerivation(REG, {("s", ()): _part(b, 0),
                                     ("psi", (1,)): _part(c, 1)}, right)
    outs += prolong_apply(u, [a, b, c, a * a])
    assert keeps_rule(outs)


def test_whole_sums_and_products_become_ints():
    half = REG.const(Fraction(1, 2))
    s, s0 = REG.var("s"), REG.var("s", (), (0,))
    for p in [half + half, half.scale(2), half * REG.const(2),
              next(part for _v, part in (half * s * s).partials()),
              total_derivative(half * s * s, 0),
              euler_lagrange(half * s0 * s0).get("s")]:
        assert {type(c) for c in p.terms.values()} == {int}, p


@given(st.lists(st.one_of(st.integers(-9, 9).filter(bool),
                          st.fractions(max_denominator=4).filter(
                              lambda q: q.denominator > 1))))
def test_each_kernel_asks_whether_any_coefficient_is_a_fraction(coeffs):
    # a Fraction first answers before the sum; one anywhere else, by it
    terms = dict(enumerate(coeffs))
    assert _holds_fraction(terms) == any(type(c) is Fraction for c in coeffs)


# -- the fixtures --------------------------------------------------------------

def stored_polys(theory):
    """L and every polynomial the checks stored: E_A, delta_KT, each
    residual, the gauge operator."""
    derived = theory.derived
    yield theory.lagrangian
    yield from derived["el"].components.values()
    yield from derived["kt"].components.values()
    for residuals in derived["residuals"].values():
        yield from residuals
    for u in derived["gauge"]:
        yield from u.components.values()


def _sites(theory, name):
    """Every mutation site; on grav4, whose 83 sites take about a minute,
    the first of each kind (its coefficients are all ints anyway)."""
    sites = mutation_sites(theory)
    if name != "grav4":
        return sites
    firsts = {}
    for label, build in sites:
        firsts.setdefault(label.split()[0], (label, build))
    return list(firsts.values())


@pytest.mark.parametrize("name", ["bf", "bf4", "cs3", "grav4", "toy", "ym4",
                                  "ym4_super"])
def test_stored_objects_keep_the_rule(name):
    healthy = fresh(name)
    for label, build in [("healthy", lambda: healthy)] + \
            _sites(healthy, name):
        theory = build()
        run_checks(theory, CHECKS)
        assert keeps_rule(stored_polys(theory)), label


@pytest.mark.parametrize("name", ["cs3", "toy", "ym4"])
def test_fraction_storage_prints_and_digests_the_same(name):
    theory = fresh(name)
    twin = fraction_twin(theory)
    L = twin.lagrangian
    assert whole_fractions(L) and L == theory.lagrangian
    assert L.pretty() == theory.lagrangian.pretty()
    for check in CHECKS + ["stages", "extended"]:
        assert build_report(twin, [check])["canonical_sha256"] == \
            build_report(theory, [check])["canonical_sha256"], check
