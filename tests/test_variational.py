"""Euler-Lagrange operators, the eta calculus, and divergence testing."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gvc import cli
from gvc.algebra import KIND_GHOST, Registry
from gvc.brst import check_gauge_symmetry, stored_gauge
from gvc.jets import EvolutionaryDerivation, prolong_apply, total_derivative
from gvc.noether import assemble_kt, check_extended
from gvc.parser import parse_theory
from gvc.variational import (
    check_variational_symmetry,
    eta,
    euler_lagrange,
    is_total_divergence,
    variational_derivative,
)
from conftest import (cached, degree_parts, divergence_witness, eta_pairing,
                      extended_lagrangian, variational_pairing)


def make_registry():
    # a generous cap: integrating an order-2 density by parts can push
    # intermediate jet orders well past the default of 4
    reg = Registry(2, jet_order=8)
    reg.declare_field("s")
    reg.declare_field("t", parities=1)
    reg.freeze()
    return reg


REG = make_registry()
S = REG.var("s")


def sj(*idx):
    return REG.var("s", (), idx)


def test_free_field_equation():
    th = parse_theory("dim 1; field s even; L = 1/2*s[;0]^2 - 1/2*s^2;")
    el = euler_lagrange(th.lagrangian)
    want = -(th.registry.var("s", (), (0, 0)) + th.registry.var("s"))
    assert el.get("s", ()) == want
    assert el.get("s", ()).pretty() == "-s - s[;0,0]"


def test_second_order_density():
    # L = 1/2 s_{00}^2 needs two integrations by parts
    L = sj(0, 0) * sj(0, 0)
    el = euler_lagrange(L.scale(Fraction(1, 2)))
    assert el.get("s", ()) == sj(0, 0, 0, 0)


def test_el_component_filter():
    L = S * S + REG.var("t") * REG.var("t", (), (0,))
    full = euler_lagrange(L)
    only_s = euler_lagrange(L, wrt={"s"})
    assert only_s.get("s", ()) == full.get("s", ())
    assert ("t", ()) not in only_s.components
    with pytest.raises(KeyError):
        only_s.get("t", ())
    assert not full.get("t", ()).is_zero()
    assert not full.is_zero()
    assert set(full.nonzero()) == {("s", ()), ("t", ())}


def test_odd_variational_derivative_sides():
    reg = Registry(1)
    reg.declare_field("c", parities=1)
    reg.freeze()
    L = reg.var("c") * reg.var("c", (), (0,))
    assert variational_derivative(L, "c").pretty() == "2*c[;0]"
    assert variational_derivative(L, "c", side="right").pretty() == "-2*c[;0]"


def test_el_kernel_contains_total_derivatives():
    rng = random.Random(41)
    for _ in range(10):
        p = _rand_poly(rng)
        lam = rng.randrange(2)
        assert euler_lagrange(total_derivative(p, lam)).is_zero()


def test_eta_pins():
    f = {(0,): sj(0)}
    ef = eta(f)
    assert ef == {(): -sj(0, 0), (0,): -sj(0)}
    assert eta(ef) == f
    # adjunction on a concrete test polynomial
    phi = S
    lhs = -total_derivative(sj(0) * phi, 0)
    assert lhs == eta_pairing(ef, phi)


def test_eta_degenerate_inputs():
    assert eta({}) == {}
    assert eta({(0,): REG.zero}) == {}
    # an order-zero family is its own eta transform
    f = {(): S * S}
    assert eta(f) == f


def test_eta_binomial_weights_in_one_dimension():
    reg = Registry(1, jet_order=6)
    reg.declare_field("y")
    reg.freeze()
    y = reg.var("y")
    f = {(0, 0): y}
    ef = eta(f)
    # eta(f)^(0) picks up the binomial factor C(2,1) = 2
    assert ef[()] == reg.var("y", (), (0, 0))
    assert ef[(0,)] == reg.var("y", (), (0,)).scale(2)
    assert ef[(0, 0)] == y
    assert eta(ef) == f


def test_divergence_witness_reconstructs():
    q = S * S * sj(1) + REG.var("t") * REG.var("t", (), (0,))
    p = total_derivative(q, 0) + REG.const(5)
    assert is_total_divergence(p)
    constant, sigma = divergence_witness(p)
    assert constant == 5
    back = REG.const(constant)
    for lam, sig in enumerate(sigma):
        back = back + total_derivative(sig, lam)
    assert back == p


def test_divergence_negative_has_euler_witness():
    assert not is_total_divergence(S * S)
    assert not euler_lagrange(S * S).is_zero()
    assert divergence_witness(S * S) is None


def test_constant_is_trivially_a_divergence():
    assert is_total_divergence(REG.const(5))
    constant, sigma = divergence_witness(REG.const(5))
    assert constant == 5
    assert all(s.is_zero() for s in sigma)


def test_translation_is_a_variational_symmetry():
    L = sj(0) * sj(0)
    u = EvolutionaryDerivation(REG, {("s", ()): sj(0)})
    assert check_variational_symmetry(u, L)
    # the Lie derivative itself is the total derivative of the density
    assert prolong_apply(u, [L])[0] == total_derivative(L, 0)


def test_scaling_is_not_a_symmetry_of_the_free_density():
    L = sj(0) * sj(0)
    u = EvolutionaryDerivation(REG, {("s", ()): S})
    assert not check_variational_symmetry(u, L)


def _rand_poly(rng):
    p = REG.zero
    for _ in range(rng.randint(1, 3)):
        term = REG.const(rng.choice((1, -1)) * rng.randint(1, 3))
        for _ in range(rng.randint(0, 2)):
            name = rng.choice(("s", "t"))
            idx = tuple(rng.randrange(2) for _ in range(rng.randint(0, 2)))
            term = term * REG.var(name, (), idx)
        p = p + term
    return p


def test_first_variation_pairing_is_exact():
    """v(L) - sum_A v^A * E_A is a total divergence, for any v and L."""
    rng = random.Random(99)
    for _ in range(12):
        L = _rand_poly(rng)
        el = euler_lagrange(L)
        comps = {}
        par = rng.randint(0, 1)
        for name in ("s", "t"):
            want = (REG.symbols[name].parities + par) % 2
            q = _rand_poly(rng)
            part = {0: REG.zero, 1: REG.zero, None: REG.zero}
            for d, piece in degree_parts(q).items():
                pp = piece.parity()
                part[pp] = part[pp] + piece
            comps[(name, ())] = part[want]
        v = EvolutionaryDerivation(REG, comps)
        pairing = REG.zero
        for (name, comp), ups in v.components.items():
            pairing = pairing + ups * el.get(name, comp)
        assert is_total_divergence(prolong_apply(v, [L])[0] - pairing)


@given(st.integers(0, 1), st.integers(0, 2**32 - 1))
def test_divergences_are_always_recognized(lam, seed):
    rng = random.Random(seed)
    p = total_derivative(_rand_poly(rng), lam)
    assert is_total_divergence(p)
    constant, sigma = divergence_witness(p)
    back = REG.const(constant)
    for mu, sig in enumerate(sigma):
        back = back + total_derivative(sig, mu)
    assert back == p


def _symmetry_pairs(theory):
    """(label, verdict, u, L) for the two symmetry checks of a theory: the
    gauge operator u with the Lagrangian, and delta_KT with L_e, each with
    the verdict its check reads off the stored residuals."""
    return (("u", check_gauge_symmetry(theory, 0)[0]["status"],
             stored_gauge(theory)[0], theory.lagrangian),
            ("L_e", check_extended(theory)[0]["status"],
             assemble_kt(theory), extended_lagrangian(theory)))


@pytest.mark.parametrize("name", ["bf", "bf4", "cs3", "ym4", "ym4_super"])
def test_ghost_cover_decides_like_every_symbol(name):
    """The gauge and extended verdicts come from the Koszul-Tate residuals,
    which are the ghost Euler-Lagrange components of the two pairings.
    Deciding each pairing over every declared symbol agrees, on the healthy
    theory and each mutation site, and a trivial pairing has an exact
    witness built on the ghosts alone.  Gauge and gamma sites flip only the
    declared gauge operator or gamma, which neither pairing reads, so they
    repeat the healthy pairings and are checked to do so instead."""
    healthy = cached(name)
    ghosts = {n for n, sym in healthy.registry.symbols.items()
              if sym.kind == KIND_GHOST}
    verdicts = set()
    for label, build in [("healthy", lambda: healthy)] + \
            cli.mutation_sites(healthy):
        theory = build()
        if label.startswith(("gauge ", "gamma ")):
            assert theory.lagrangian is healthy.lagrangian
            assert theory.records == healthy.records
            assert theory.stages == healthy.stages
            continue
        for target, status, u, L in _symmetry_pairs(theory):
            trivial = check_variational_symmetry(u, L)
            assert status == ("pass" if trivial else "fail"), (label, target)
            if trivial:
                p = variational_pairing(u, L)
                assert divergence_witness(p, ghosts) is not None
            verdicts.add((label == "healthy", trivial))
    # the healthy theory passes both checks, and some mutant fails one
    assert (True, False) not in verdicts
    assert (False, False) in verdicts


def test_a_pairing_without_a_ghost_cover_is_decided_on_every_symbol():
    # no term of this pairing holds a ghost; check_variational_symmetry
    # decides it from the derivatives of every declared symbol
    L = sj(0) * sj(0)
    u = EvolutionaryDerivation(REG, {("s", ()): sj(0)})
    p = variational_pairing(u, L)
    assert p == sj(0) * euler_lagrange(L).get("s", ())
    assert is_total_divergence(p)
    assert check_variational_symmetry(u, L)
    scale = EvolutionaryDerivation(REG, {("s", ()): S})
    assert not is_total_divergence(variational_pairing(scale, L))
    assert not check_variational_symmetry(scale, L)
