"""Canonical form, grading, and sign bookkeeping of the polynomial ring."""
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from gvc.algebra import (
    GvcError,
    GradedPoly,
    GradingError,
    JetOrderCapError,
    KIND_ANTIFIELD,
    KIND_FIELD,
    KIND_GHOST,
    Registry,
    SymbolDecl,
    _mul_terms,
)
from gvc.symmetry import direction_swap
import conftest
from conftest import constant_term, degree_parts, maps_to, swapped_key


def make_registry():
    reg = Registry(2)
    reg.declare_field("s")
    reg.declare_field("t", parities=1)
    reg.declare_field("B", slots=(2, 2), symmetry="antisym")
    reg.declare_field("g", slots=(2, 2), symmetry="sym")
    reg.freeze()
    return reg


REG = make_registry()
S = REG.var("s")
T = REG.var("t")
T0 = REG.var("t", (), (0,))
T1 = REG.var("t", (), (1,))


def test_constants_are_exact_rationals():
    third = REG.const(Fraction(1, 3))
    assert third.scale(3) == REG.one
    assert (third + third + third) == REG.one
    # integral fractions normalize to plain ints in the term map
    half2 = REG.const(Fraction(4, 2))
    assert half2.terms == {(): 2}
    assert isinstance(half2.terms[()], int)


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        REG.const(0.5)


@pytest.mark.parametrize("other", [1.5, "s"])
def test_foreign_operands_raise_type_error(other):
    p = S + T
    for op in (lambda: p + other, lambda: other + p, lambda: p - other,
               lambda: other - p, lambda: p * other, lambda: other * p):
        with pytest.raises(TypeError):
            op()


def test_odd_variables_square_to_zero():
    assert (T * T).is_zero()
    assert ((S * T) * (S * T)).is_zero()
    assert not (T * T0).is_zero()


def test_odd_variables_anticommute():
    assert T * T0 == -(T0 * T)
    assert (T * T0).pretty() == "t*t[;0]"


def test_koszul_sign_of_full_reversal():
    # reversing three distinct odd factors is an odd permutation
    assert T1 * T0 * T == -(T * T0 * T1)


def test_even_factors_commute_with_everything():
    assert S * T == T * S
    assert S * REG.var("s", (), (0,)) == REG.var("s", (), (0,)) * S


def test_power_expansion_respects_parity():
    assert (S + T) ** 2 == S * S + (S * T).scale(2)
    assert ((T + T0) ** 2).is_zero()
    assert (S + REG.one) ** 3 == S**3 + S.scale(3) * S + S.scale(3) + REG.one


def test_antisym_component_canonicalization():
    assert REG.var("B", (1, 0)) == -REG.var("B", (0, 1))
    assert REG.var("B", (0, 0)).is_zero()
    assert REG.var("B", (0, 1)).pretty() == "B[0,1;]"


def test_sym_component_canonicalization():
    assert REG.var("g", (1, 0)) == REG.var("g", (0, 1))


def test_multi_index_is_a_sorted_multiset():
    assert REG.var("s", (), (1, 0)) == REG.var("s", (), (0, 1))
    assert REG.var("s", (), (0, 1)).pretty() == "s[;0,1]"


def test_pretty_pins():
    assert REG.zero.pretty() == "0"
    assert REG.const(Fraction(-7, 3)).pretty() == "-7/3"
    assert (REG.const(3) - S + S * S).pretty() == "3 - s + s^2"


def test_parity_queries():
    assert S.parity() == 0
    assert T.parity() == 1
    assert (S * T).parity() == 1
    assert (S + T).parity() is None  # inhomogeneous
    assert REG.zero.parity() is None


def test_degree_helpers():
    p = S * S * T + T
    assert sorted(degree_parts(p)) == [1, 3]
    assert max(v.order for v in p.variables()) == 0
    assert max(v.order for v in (T0 * S).variables()) == 1
    assert constant_term(S + REG.const(5)) == 5
    assert p.num_terms() == 2


def test_registry_dimension_and_cap_guards():
    with pytest.raises(ValueError):
        Registry(0)
    with pytest.raises(ValueError):
        Registry(9)
    with pytest.raises(ValueError):
        Registry(1, jet_order=0)
    with pytest.raises(ValueError, match="between 1 and 16"):
        Registry(1, jet_order=Registry.MAX_JET_ORDER + 1)
    assert Registry(1, jet_order=Registry.MAX_JET_ORDER).jet_order == 16


def test_jet_order_cap_error():
    with pytest.raises(JetOrderCapError) as ei:
        REG.var("s", (), (0, 0, 0, 0, 0))
    assert isinstance(ei.value, GvcError)
    assert ei.value.symbol == "s"
    assert ei.value.cap == 4
    assert "exceeds the cap" in str(ei.value)


def test_declaration_guards():
    reg = Registry(1)
    reg.declare_field("s")
    with pytest.raises(GvcError, match="already declared"):
        reg.declare_field("s")
    with pytest.raises(GvcError, match="already declared"):
        reg.declare_table("s", (2,))
    reg.freeze()
    with pytest.raises(GvcError, match="frozen"):
        reg.declare_field("u")
    with pytest.raises(GvcError, match="unknown symbol"):
        reg.var("nope")
    with pytest.raises(ValueError, match="out of range"):
        reg.var("s", (), (3,))


def test_component_validation():
    sym = REG.symbols["B"]
    with pytest.raises(ValueError, match="expects 2 component indices"):
        sym.canonicalize((0,))
    with pytest.raises(ValueError, match="out of range"):
        sym.canonicalize((0, 5))
    with pytest.raises(ValueError):
        SymbolDecl("x", KIND_FIELD, (2, 3), symmetry="sym")
    with pytest.raises(ValueError):
        SymbolDecl("x", KIND_FIELD, (2,), symmetry="weird")


def test_a_typing_of_the_direction_slots_is_consistent():
    # by default the slots of range dim carry a direction; one given must
    # have range dim, and a symmetric family's slots carry one or none
    reg = Registry(2)
    assert reg.declare_field("a", (3, 2))[0].directions == (False, True)
    assert reg.declare_field("b", (2, 2), directions=(False, True))[
        1].directions == (False, True)
    assert reg.declare_table("t", (2,), directions=(False,)).directions == \
        (False,)
    for slots, directions in [((3,), (True,)), ((2,), ()),
                              ((2, 2), (True, False))]:
        with pytest.raises(ValueError):
            reg.declare_field("c", slots, symmetry="sym",
                              directions=directions)


def test_antifields_are_declared_with_fields():
    reg = Registry(1)
    reg.declare_field("y", parities=0)
    reg.freeze()
    bar = reg.symbols["y_bar"]
    assert bar.kind == KIND_ANTIFIELD
    assert bar.parities == 1  # parity flips
    assert bar.ghost_number == -1
    assert bar.antifield_number == 1


def test_ghost_number_ladder():
    reg = Registry(1)
    reg.declare_field("y")
    c = reg.declare_ghost("c", 0, parities=1)
    reg.declare_ghost_antifield(c)
    ps = reg.declare_ghost("ps", 1, parities=0)
    reg.declare_ghost_antifield(ps)
    reg.freeze()
    assert reg.symbols["c"].ghost_number == 1
    assert reg.symbols["c_bar"].ghost_number == -2
    assert reg.symbols["c_bar"].antifield_number == 2
    assert reg.symbols["ps"].ghost_number == 2
    assert reg.symbols["ps_bar"].antifield_number == 3
    p = reg.var("c") * reg.var("y_bar")
    assert p.ghost_number() == 0
    # ghosts carry negative antifield number, mirroring their ghost number
    assert p.antifield_number() == 0
    assert reg.var("y_bar").antifield_number() == 1
    # buckets count ghost factors per monomial, not ghost number
    parts = (reg.var("c") + reg.var("c") * reg.var("ps")).ghost_degree_parts()
    assert sorted(parts) == [1, 2]
    assert parts[1] == reg.var("c")
    assert parts[2] == reg.var("c") * reg.var("ps")


def test_parity_vector_per_component():
    reg = Registry(1)
    reg.declare_field("a", slots=(3,), parities=(0, (0, 1, 0)))
    reg.freeze()
    assert reg.var("a", (0,)).parity() == 0
    assert reg.var("a", (1,)).parity() == 1
    assert reg.symbols["a_bar"].parities == (0, (1, 0, 1))
    # odd components of the same family anticommute, even ones commute
    a1 = reg.var("a", (1,))
    assert (a1 * a1).is_zero()
    a0 = reg.var("a", (0,))
    assert a0 * a1 == a1 * a0


def test_table_lookup_defaults_and_bounds():
    reg = Registry(2)
    tab = reg.declare_table("k", (2, 2), {(0, 1): Fraction(1, 2)})
    assert tab[(0, 1)] == Fraction(1, 2)
    assert tab[(1, 1)] == 0
    with pytest.raises(ValueError):
        tab[(0, 2)]


# -- randomized ring laws ----------------------------------------------------

ATOMS = [S, T, T0, T1, REG.var("s", (), (0,)), REG.var("B", (0, 1)),
         REG.var("g", (0, 0)), REG.var("t_bar"), REG.var("s_bar", (), (1,))]


@st.composite
def monomials(draw):
    coeff = draw(st.one_of(
        st.integers(-4, 4).filter(lambda n: n != 0),
        st.fractions(min_value=-3, max_value=3, max_denominator=4)
        .filter(lambda f: f != 0)))
    factors = draw(st.lists(st.sampled_from(ATOMS), min_size=0, max_size=3))
    p = REG.const(coeff)
    for f in factors:
        p = p * f
    return p


@st.composite
def polys(draw):
    parts = draw(st.lists(monomials(), min_size=0, max_size=3))
    p = REG.zero
    for q in parts:
        p = p + q
    return p


@given(monomials(), monomials())
def test_graded_commutativity(a, b):
    if a.is_zero() or b.is_zero():
        assert a * b == b * a
        return
    sign = -1 if (a.parity() == 1 and b.parity() == 1) else 1
    assert a * b == (b * a).scale(sign)


@given(polys(), polys(), polys())
def test_ring_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a - a == REG.zero
    assert a * REG.one == a
    assert (a * REG.zero).is_zero()


@given(polys())
def test_negation_and_scaling(p):
    assert -(-p) == p
    assert p.scale(Fraction(1, 2)).scale(2) == p
    assert p + (-p) == REG.zero


@given(polys(), polys(), polys(), polys(), polys())
def test_fused_multiply_accumulate_equals_the_sum_of_products(a, b, c, d, e):
    operands = (a, b, c, d, e)
    before = [dict(x.terms) for x in operands]
    out = dict(e.terms)
    assert _mul_terms(a.terms, b.terms, out) is out
    _mul_terms(c.terms, d.terms, out)
    assert GradedPoly(REG, out) == e + a * b + c * d
    # the same products, negated, cancel in place and leave no zero entry
    _mul_terms((-a).terms, b.terms, out)
    _mul_terms(c.terms, (-d).terms, out)
    assert out == e.terms
    assert [x.terms for x in operands] == before
    assert REG.zero.terms == {}


# -- partial derivatives -------------------------------------------------------

def _var_poly(v):
    return REG.var(v.symbol.name, v.component, v.index)


@given(polys())
def test_partials_satisfy_the_graded_euler_identity(p):
    # on each homogeneous part, sum_v v * dL/dv = deg * q = sum_v dR/dv * v
    for d, q in degree_parts(p).items():
        left = sum((_var_poly(v) * part for v, part in q.partials("left")),
                   REG.zero)
        right = sum((part * _var_poly(v) for v, part in q.partials("right")),
                    REG.zero)
        assert left == q.scale(d)
        assert right == q.scale(d)


@given(polys(), st.sampled_from([0, 1]))
def test_partials_obey_the_chain_rule_of_total_derivatives(p, lam):
    from gvc.jets import total_derivative
    chain = REG.zero
    for v, part in p.partials("left"):
        chain = chain + REG.var(v.symbol.name, v.component,
                                v.index + (lam,)) * part
    assert chain == total_derivative(p, lam)


@given(polys(), st.sampled_from(["left", "right"]))
def test_partials_are_ordered_and_agree_with_derivative(p, side):
    pairs = list(p.partials(side))
    assert [v.key for v, _ in pairs] == sorted(v.key for v in p.variables())
    for v, part in pairs:
        assert not part.is_zero()
        assert p.derivative(v, side) == part
    absent, _ = REG.jet_var("s", (), (1, 1))
    assert p.derivative(absent, side).is_zero()


def test_partials_skip_components_outside_only():
    p = S * T0 + T * T1 + REG.var("B", (0, 1))
    keys = [(v.symbol.name, v.component)
            for v, _ in p.partials("left", {("t", ())})]
    assert keys == [("t", ()), ("t", ()), ("t", ())]
    with pytest.raises(ValueError, match="side"):
        next(p.partials("middle"))


@given(polys(), st.sampled_from(["left", "right"]),
       st.sets(st.sampled_from([(v.symbol.name, v.component)
                                for v in REG.by_rank])))
def test_partials_only_yields_the_filtered_partials(p, side, only):
    # ``only`` indexes the wanted components alone; what comes out must be
    # the unfiltered sequence with the other components left out
    want = [(v, part) for v, part in p.partials(side)
            if (v.symbol.name, v.component) in only]
    assert list(p.partials(side, only)) == want


# -- the direction-swap key map -----------------------------------------------

# dim 3 with a family of each kind the map signs: odd vectors, a sym and an
# antisym two-slot family (odd and even), one slot of another range, and an
# odd scalar; every variable to jet order 2 is interned, so no image misses
_SW = Registry(3)
_SW.declare_field("p", slots=(3,), parities=1)
_SW.declare_field("g", slots=(3, 3), symmetry="sym")
_SW.declare_field("W", slots=(3, 3), symmetry="antisym", parities=1)
_SW.declare_field("B", slots=(3, 3), symmetry="antisym")
_SW.declare_field("b", slots=(2, 3))
_SW.declare_field("q", parities=1)
_SW.freeze()
for _sym in list(_SW.symbols.values()):
    for _comp in _sym.components():
        for _order in range(3):
            for _index in combinations_with_replacement(range(3), _order):
                _SW.jet_var(_sym, _comp, _index)


@st.composite
def _factors(draw):
    """A few (name, component, multi-index) factors, the components not
    always canonical and the antisym ones never killed."""
    out = []
    for _ in range(draw(st.integers(1, 5))):
        name = draw(st.sampled_from(sorted(_SW.symbols)))
        slots = _SW.symbols[name].slots
        comp = draw(st.permutations(range(3)))[:len(slots)] \
            if name in ("W", "W_bar", "B", "B_bar") else \
            tuple(draw(st.integers(0, n - 1)) for n in slots)
        index = draw(st.lists(st.integers(0, 2), max_size=2))
        out.append((name, tuple(comp), tuple(index)))
    return out


@given(_factors(), st.integers(0, 1))
def test_a_swapped_key_is_the_product_of_the_swapped_variables(factors, lam):
    # the product of the images through GradedPoly, in the order the
    # monomial was built in, is the image that the swap and the exact key
    # map of the tests' oracle give
    def swapped(d):
        return {lam: lam + 1, lam + 1: lam}.get(d, d)
    mono = image = _SW.one
    for name, comp, index in factors:
        slots = _SW.symbols[name].slots
        mono = mono * _SW.var(name, comp, index)
        image = image * _SW.var(name, [swapped(c) if n == 3 else c
                                       for c, n in zip(comp, slots)],
                                [swapped(d) for d in index])
    interned = len(_SW.by_rank)
    swap = direction_swap(_SW, lam)
    for key, c in mono.terms.items():
        new, sign = swap.key(key)
        assert image.terms == {new: sign * c}
        assert swapped_key(swap, key) == (new, sign)
    assert swap.image(mono.terms) == image.terms
    assert image.is_zero() == mono.is_zero()
    assert len(_SW.by_rank) == interned


def test_a_swap_misses_a_variable_it_would_have_to_intern():
    # the oracle's key map misses the image s[;1] that was never interned;
    # the swap's own map interns it
    reg = Registry(2)
    reg.declare_field("s")
    reg.freeze()
    var, _sign = reg.jet_var("s", (), (0,))
    reg.jet_var("s", (), (0, 0))
    swap = direction_swap(reg, 0)
    assert swapped_key(swap, (var.rank,)) is None
    assert len(reg.by_rank) == 2
    assert not maps_to(swap, {(var.rank,): 1}, {(var.rank,): 1})
    assert swap.image({(var.rank,): 1}) == {
        (reg.jet_var("s", (), (1,))[0].rank,): 1}
    assert len(reg.by_rank) == 3


def test_a_self_map_tests_each_pair_once_and_still_sees_one_altered(
        monkeypatch):
    # sigma = (0 1) maps x[0]^2 + x[1]^2 + x[0] x[1] to itself; the test
    # maps one key of the pair {x[0]^2, x[1]^2} and the fixed x[0] x[1],
    # and still refuses an L with one coefficient of the pair altered, or
    # the pair mapped by a sign that the fixed key does not share
    reg = Registry(2)
    reg.declare_field("x", slots=(2,))
    reg.freeze()
    x0, x1 = reg.var("x", (0,)), reg.var("x", (1,))
    swap = direction_swap(reg, 0)
    mapped = []
    monkeypatch.setattr(conftest, "swapped_key", lambda swap, k: (
        mapped.append(k) or swapped_key(swap, k)))
    lag = x0 * x0 + x1 * x1 + x0 * x1
    assert maps_to(swap, lag.terms, lag.terms) == 1 and len(mapped) == 2
    odd = x0 * x0 - x1 * x1
    assert maps_to(swap, odd.terms, odd.terms) == -1
    for bad in (x0 * x0 + x1 * x1 * 2 + x0 * x1, x1 * x1 * 2 + x0 * x0,
                x0 * x0 - x1 * x1 + x0 * x1):
        assert maps_to(swap, bad.terms, bad.terms) == 0


def test_a_swap_that_changes_a_parity_is_refused():
    reg = Registry(3)
    reg.declare_field("f", slots=(3,), parities=(0, (1, 0, 0)))
    reg.declare_field("h", slots=(2,), parities=(0, (1, 0)))
    reg.freeze()
    assert direction_swap(reg, 0) is None
    assert direction_swap(reg, 1) is not None
