"""Variational calculus: Euler-Lagrange operators, the higher Euler (eta)
operators, divergence testing, and variational symmetries.

A density is represented by its coefficient polynomial (the ``L`` in
``L d^n x``).  Working on a chart with polynomial coefficients and no explicit
base-point dependence, a density is variationally trivial exactly when it is a
total divergence plus a constant; the constant is reported separately by the
divergence test.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from math import comb

from gvc.algebra import GradedPoly, GvcError, _add_into, _mul_terms
from gvc.jets import iterated_derivative, total_derivative

__all__ = [
    "EulerLagrangeResult",
    "euler_lagrange",
    "variational_derivative",
    "eta",
    "eta_pairing",
    "DivergenceTest",
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

    def items(self):
        return sorted(self.components.items())


def euler_lagrange(L, wrt=None, side="left"):
    """E_A = sum over Lambda of (-1)^{|Lambda|} d_Lambda(dL/ds^A_Lambda).

    ``wrt`` may be a set of symbol names; by default every declared symbol
    (fields, ghosts, antifields) gets a component in the result, so that
    variational triviality can be decided from one call.  ``side='right'``
    uses right partial derivatives throughout, which is the orientation
    natural to right derivations acting on antifields.
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
    for v, part in L.partials(side, acc):
        _add_into(acc[(v.symbol.name, v.component)],
                  iterated_derivative(part, v.index).terms, len(v.index) & 1)
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
# Higher Euler operators
# ---------------------------------------------------------------------------

def _index_counts(index, dim):
    counts = [0] * dim
    for lam in index:
        counts[lam] += 1
    return counts


def _multiset_contains(big, small):
    return all(b >= s for b, s in zip(big, small))


def _counts_to_index(counts):
    out = []
    for lam, m in enumerate(counts):
        out.extend([lam] * m)
    return tuple(out)


def eta(f, dim=None):
    """The higher Euler operators applied to a finite tuple of coefficients.

    ``f`` maps multi-indices (sorted tuples of base directions) to
    polynomials.  The result tuple satisfies, for every test polynomial phi,

        sum_Lambda (-1)^{|Lambda|} d_Lambda(f^Lambda * phi)
            = sum_Lambda eta(f)^Lambda * d_Lambda(phi)

    and applying it twice is the identity.  The binomial weight is taken per
    base direction; in dimension one it reduces to the factorial quotient
    |Sigma+Lambda|! / (|Sigma|! |Lambda|!).
    """
    f = {tuple(sorted(k)): v for k, v in f.items() if not v.is_zero()}
    if not f:
        return {}
    reg = next(iter(f.values())).reg
    if dim is None:
        dim = reg.dim
    counts = {k: _index_counts(k, dim) for k in f}
    out = {}
    # every output index is a sub-multiset of some input index
    candidates = set()
    for theta in counts.values():
        _submultisets(tuple(theta), candidates)
    for xi_counts in sorted(candidates):
        acc = {}
        for theta_key, theta in counts.items():
            if not _multiset_contains(theta, xi_counts):
                continue
            weight = 1
            for m_theta, m_xi in zip(theta, xi_counts):
                weight *= comb(m_theta, m_xi)
            sigma = tuple(
                lam
                for lam, (m_theta, m_xi) in enumerate(zip(theta, xi_counts))
                for _ in range(m_theta - m_xi)
            )
            term = iterated_derivative(f[theta_key], sigma)
            if len(theta_key) & 1:
                weight = -weight
            _add_into(acc, term.scale(weight).terms)
        if acc:
            out[_counts_to_index(xi_counts)] = GradedPoly(reg, acc)
    return out


def _submultisets(counts, into):
    """Add every sub-multiset of a count vector to ``into`` (as count tuples)."""
    counts = tuple(counts)
    def rec(pos, cur):
        if pos == len(counts):
            into.add(tuple(cur))
            return
        for m in range(counts[pos] + 1):
            cur.append(m)
            rec(pos + 1, cur)
            cur.pop()
    rec(0, [])


def eta_pairing(f, phi):
    """sum_Lambda f^Lambda * d_Lambda(phi), the pairing eta is adjoint for."""
    acc = {}
    for index, coeff in f.items():
        _mul_terms(coeff.terms, iterated_derivative(phi, index).terms, acc)
    return GradedPoly(phi.reg, acc)


# ---------------------------------------------------------------------------
# Divergence testing
# ---------------------------------------------------------------------------

class DivergenceTest:
    """Outcome of a variational-triviality test.

    ``trivial`` is the exact yes/no answer; ``constant`` the split-off
    constant term.  When a witness was requested and the answer is yes,
    ``sigma`` holds one polynomial per base direction with
    p = constant + sum_lam d_lam(sigma[lam]).
    """

    __slots__ = ("trivial", "constant", "sigma", "euler")

    def __init__(self, trivial, constant, sigma, euler):
        self.trivial = trivial
        self.constant = constant
        self.sigma = sigma
        self.euler = euler

    def __bool__(self):
        return self.trivial


def is_total_divergence(p, witness=False):
    """Decide whether p is a total divergence plus a constant.

    The decision is by exact vanishing of every Euler-Lagrange derivative of
    p (all declared symbols).  With ``witness=True`` an explicit divergence
    witness is assembled degree by degree: writing the degree-d part as
    (1/d) * sum f^Lambda_A d_Lambda(s^A) and splitting each family with the
    eta operators leaves the boundary terms, whose zero-order coefficients
    are exactly the (right) Euler-Lagrange derivatives and vanish here.  The
    reconstruction p = constant + sum d_lam(sigma^lam) is re-checked exactly.
    """
    reg = p.reg
    el = euler_lagrange(p)
    trivial = el.is_zero()
    constant = p.constant_term()
    sigma = None
    if witness and trivial:
        sigma = [{} for _ in range(reg.dim)]
        for d, q in p.degree_parts().items():
            if d == 0:
                continue
            for (name, comp), group in groupby(q.partials("right"), _component):
                f = {v.index: part for v, part in group}
                ef = eta(f, reg.dim)
                base = reg.var(name, comp)
                for index, coeff in ef.items():
                    if not index:
                        continue
                    lam, rest = index[0], index[1:]
                    term = iterated_derivative(coeff * base, rest)
                    w = Fraction(1, d) if (len(index) & 1 == 0) else Fraction(-1, d)
                    _add_into(sigma[lam], term.scale(w).terms)
        sigma = tuple(GradedPoly(reg, terms) for terms in sigma)
        check = (p - reg.const(constant)).terms
        for lam in range(reg.dim):
            _add_into(check, total_derivative(sigma[lam], lam).terms, True)
        if check:
            raise GvcError(
                "internal error: divergence witness failed to reconstruct input")
    return DivergenceTest(trivial, constant, sigma, el)


def _component(var_part):
    v = var_part[0]
    return v.symbol.name, v.component


# ---------------------------------------------------------------------------
# Symmetry checks
# ---------------------------------------------------------------------------

def check_variational_symmetry(u, L):
    """True iff the Euler-Lagrange pairing of u with L is variationally trivial.

    For a left derivation the pairing is sum_A upsilon^A * E_A; for a right
    derivation the mirrored pairing sum_A E^(right)_A * upsilon^A is used.
    Either way the result differs from the Lie derivative by an exact term.
    """
    names = {name for (name, _comp) in u.components}
    el = euler_lagrange(L, names, "right" if u.right else "left")
    pairing = {}
    for (name, comp), ups in sorted(u.components.items()):
        e = el.get(name, comp).terms
        if u.right:
            _mul_terms(e, ups.terms, pairing)
        else:
            _mul_terms(ups.terms, e, pairing)
    return is_total_divergence(GradedPoly(L.reg, pairing))
