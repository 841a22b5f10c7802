"""Variational calculus: Euler-Lagrange operators, the total-divergence
test, and variational symmetries.  The higher Euler operators ``eta`` live
in ``gvc.jets``, whose prolongation uses them, and are re-exported here.

A density is represented by its coefficient polynomial (the ``L`` in
``L d^n x``).  Working on a chart with polynomial coefficients and no explicit
base-point dependence, a density is variationally trivial, a total divergence
plus a constant, exactly when all its Euler-Lagrange derivatives vanish.

When every non-constant monomial of p holds a variable of a symbol set S (a
cover), the derivatives E_S of the symbols in S decide alone: split p by its
degree d >= 1 in S, which E_S respects, and the counting operator of S gives
d * p_d = sum_{A in S} s^A * E_A(p_d) + a total divergence (Barnich, Brandt
and Henneaux, Phys. Rep. 338 (2000) 439; Olver, Applications of Lie Groups
to Differential Equations, Thm 4.7).  Symmetry pairings hold a ghost in
every term, so they are decided on the ghost sector.
"""

from __future__ import annotations

from itertools import groupby

from gvc.algebra import KIND_GHOST, GradedPoly, GvcError, _mul_terms
from gvc.jets import _fold, eta

__all__ = [
    "EulerLagrangeResult",
    "euler_lagrange",
    "variational_derivative",
    "eta",
    "is_total_divergence",
    "variational_pairing",
    "check_variational_symmetry",
]


class EulerLagrangeResult:
    """Euler-Lagrange derivatives per symbol component."""

    __slots__ = ("reg", "components")

    def __init__(self, reg, components):
        self.reg = reg
        self.components = components

    def get(self, sym_name, comp=()):
        return self.components[(sym_name, tuple(comp))]

    def is_zero(self):
        return all(v.is_zero() for v in self.components.values())

    def nonzero(self):
        return {k: v for k, v in self.components.items() if not v.is_zero()}

    def items(self):
        return sorted(self.components.items())


def euler_lagrange(L, wrt=None, side="left"):
    """E_A = sum over Lambda of (-1)^{|Lambda|} d_Lambda(dL/ds^A_Lambda).

    ``wrt`` may be a set of symbol names; by default every declared symbol
    (fields, ghosts, antifields) gets a component in the result, so that
    variational triviality can be decided from one call.  ``side='right'``
    uses right partial derivatives throughout, which is the orientation
    natural to right derivations acting on antifields.  The partials of one
    component are folded Horner-wise as they arrive (``jets._fold``), so
    the multi-indices that share a prefix share its total derivatives.
    """
    reg = L.reg
    if wrt is None:
        names = set(reg.symbols)
    else:
        names = set(wrt)
        for n in names:
            if n not in reg.symbols:
                raise GvcError("unknown symbol %r" % n)
    acc = {(name, comp): {} for name in sorted(names)
           for comp in reg.symbols[name].components()}
    for comp, group in groupby(L.partials(side, acc),
                               lambda vp: (vp[0].symbol.name, vp[0].component)):
        acc[comp] = _fold(reg, ((v.index, part.terms) for v, part in group))
    return EulerLagrangeResult(
        reg, {key: GradedPoly(reg, terms) for key, terms in acc.items()})


def variational_derivative(L, sym_name, comp=(), side="left"):
    """The single variational derivative of L with respect to one component."""
    sym = L.reg.symbols.get(sym_name)
    if sym is None:
        raise GvcError("unknown symbol %r" % sym_name)
    comp, sign = sym.canonicalize(comp)
    if sign == 0:
        return L.reg.zero
    e = euler_lagrange(L, {sym_name}, side).get(sym_name, comp)
    return e if sign == 1 else e.scale(sign)


# ---------------------------------------------------------------------------
# Divergence testing and symmetry checks
# ---------------------------------------------------------------------------

def is_total_divergence(p, wrt=None):
    """Whether p is a total divergence plus a constant.

    The answer is exact: every Euler-Lagrange derivative of p for the symbols
    in ``wrt`` vanishes.  ``wrt`` must be a cover of p, a set of symbol names
    such that every non-constant monomial of p holds a variable of one of
    them (see the module docstring); every declared symbol by default.
    """
    return euler_lagrange(p, wrt).is_zero()


def _every_term_holds(p, names):
    """Whether every monomial of p has a factor of a symbol in ``names``."""
    return all(any(v.symbol.name in names for v in factors)
               for _, _, factors in p.monomials())


def variational_pairing(u, L):
    """``(P, S)``: the Euler-Lagrange pairing P of u with L and a cover S.

    For a left derivation P = sum_A upsilon^A * E_A; for a right derivation
    the mirrored pairing sum_A E^(right)_A * upsilon^A.  Either way P
    differs from the Lie derivative of L by a total divergence.  S is the
    set of ghost symbols when, for every component A, every term of
    upsilon^A or every term of E_A holds a ghost, so that every term of P
    does; otherwise it is every declared symbol.
    """
    reg = L.reg
    names = {name for (name, _comp) in u.components}
    el = euler_lagrange(L, names, "right" if u.right else "left")
    ghosts = {name for name, sym in reg.symbols.items()
              if sym.kind == KIND_GHOST}
    covered = True
    pairing = {}
    for (name, comp), ups in sorted(u.components.items()):
        e = el.get(name, comp)
        covered = covered and (_every_term_holds(ups, ghosts)
                               or _every_term_holds(e, ghosts))
        if u.right:
            _mul_terms(e.terms, ups.terms, pairing)
        else:
            _mul_terms(ups.terms, e.terms, pairing)
    return GradedPoly(reg, pairing), ghosts if covered else set(reg.symbols)


def check_variational_symmetry(u, L):
    """True iff the Euler-Lagrange pairing of u with L is variationally
    trivial, decided on the cover ``variational_pairing`` finds."""
    return is_total_divergence(*variational_pairing(u, L))
