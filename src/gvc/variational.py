"""Variational calculus: Euler-Lagrange operators, the total-divergence
test, and variational symmetries.  The higher Euler operators ``eta`` live
in ``gvc.jets``, whose prolongation uses them, and are re-exported here.

A density is represented by its coefficient polynomial (the ``L`` in
``L d^n x``).  Working on a chart with polynomial coefficients and no explicit
base-point dependence, a density is variationally trivial, a total divergence
plus a constant, exactly when all its Euler-Lagrange derivatives vanish.

The ``gauge`` and ``extended`` checks need no pairing from here: the
Koszul-Tate residuals of ``gvc.noether`` decide them.
"""

from __future__ import annotations

from itertools import groupby

from gvc.algebra import GradedPoly, GvcError
from gvc.jets import _fold, eta

__all__ = [
    "EulerLagrangeResult",
    "euler_lagrange",
    "variational_derivative",
    "eta",
    "is_total_divergence",
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

def is_total_divergence(p):
    """Whether p is a total divergence plus a constant.

    The answer is exact: every Euler-Lagrange derivative of p vanishes.
    """
    return euler_lagrange(p).is_zero()


def check_variational_symmetry(u, L):
    """True iff the Euler-Lagrange pairing of u with L is a total divergence.

    For a left derivation the pairing is sum_A upsilon^A * E_A; for a right
    derivation the mirrored sum_A E^(right)_A * upsilon^A.  Either way it
    differs from the Lie derivative of L by a total divergence.
    """
    el = euler_lagrange(L, {name for (name, _comp) in u.components},
                        "right" if u.right else "left")
    pairing = L.reg.zero
    for (name, comp), ups in u.components.items():
        e = el.get(name, comp)
        pairing = pairing + (e * ups if u.right else ups * e)
    return is_total_divergence(pairing)
