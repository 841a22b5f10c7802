"""Total derivatives and evolutionary derivations on graded jet polynomials.

The total derivative here is the restriction of d_lambda to polynomials with
no explicit base-coordinate dependence: d_lambda = sum_{A,Lambda}
s^A_{lambda Lambda} * d/ds^A_Lambda.  All built-in theories are autonomous
with constant coefficient tables, so the dropped del/del-x^lambda term acts
as zero; this reduction is documented in the README.

An evolutionary derivation is determined by its values on zero-jet variables;
its prolongation acts on arbitrary jets through d_Lambda of those values.
Only vertical derivations are supported (no base-vector part): a derivation
whose horizontal part matters can always be traded for its vertical part when
testing variational identities, and the fixtures never need more.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import merge

from gvc.algebra import (
    GradedPoly,
    GradingError,
    GvcError,
    _mul_terms,
)

__all__ = [
    "total_derivative",
    "iterated_derivative",
    "EvolutionaryDerivation",
    "prolong_apply",
    "nilpotency_residuals",
]


def total_derivative(p, lam):
    """d_lam applied to p; an even derivation raising jet orders by one.

    Each factor ``v`` of a monomial is replaced by ``d_lam(v)`` in turn.  In
    the one-tuple keys of ``algebra`` that is a removal and a ``bisect``
    insert: an even factor carries its exponent as a coefficient, an odd
    one the sign of moving the new factor from the old one's slot to its
    own.  Raises JetOrderCapError when a produced jet would exceed the
    registry cap.
    """
    reg = p.reg
    by_rank = reg.by_rank
    succ = {}  # key entry -> the entry of its d_lam, for this call
    out = {}
    get = out.get
    for key, c in p.terms.items():
        prev = None
        for i, r in enumerate(key):
            if r == prev:
                continue
            prev = r
            dr = succ.get(r)
            if dr is None:
                dr = succ[r] = _successor(reg, by_rank[r if r >= 0 else ~r],
                                          lam).entry
            new = list(key)
            del new[i]
            if r >= 0:
                insort(new, dr)
                s = c * key.count(r)
            else:
                j = bisect_left(new, dr)
                if j < len(new) and new[j] == dr:
                    continue
                # d_lam(v) takes v's slot i; moving it to slot j costs
                # |i - j| transpositions of odd factors
                new.insert(j, dr)
                s = -c if (i - j) & 1 else c
            new = tuple(new)
            s += get(new, 0)
            if s:
                out[new] = s
            else:
                del out[new]
    return GradedPoly(reg, out)


def _successor(reg, v, lam):
    """d_lam(v), interned on first use and memoized in ``v.succ``.

    Canonicalization, sorting and the bounds and cap checks of
    ``Registry.jet_var`` thus run once per (variable, direction).  A cap
    overflow raises before anything is stored, so it raises on every call.
    """
    dv = v.succ.get(lam)
    if dv is None:
        dv, _ = reg.jet_var(v.symbol, v.component, v.index + (lam,))
        v.succ[lam] = dv
    return dv


def iterated_derivative(p, index):
    """d_Lambda = d_{lam1} ... d_{lamk}; the empty multi-index is the identity."""
    for lam in index:
        p = total_derivative(p, lam)
    return p


class EvolutionaryDerivation:
    """A vertical derivation determined by zero-jet components.

    ``components`` maps (symbol name, component tuple) to the polynomial value
    on that zero-jet variable.  ``right=False`` gives a left derivation (the
    gauge/BRST case); ``right=True`` a right derivation (the Koszul-Tate
    case).  Parity is inferred from the components and must be consistent
    across all of them.
    """

    __slots__ = ("reg", "components", "right", "parity", "name")

    def __init__(self, reg, components, right=False, name=None):
        self.reg = reg
        self.right = bool(right)
        self.name = name
        comps = {}
        for (sym_name, comp), val in components.items():
            sym = reg.symbols.get(sym_name)
            if sym is None:
                raise GvcError("unknown symbol %r in derivation" % sym_name)
            comp, sign = sym.canonicalize(comp)
            if sign == 0:
                continue
            if sign != 1:
                val = val.scale(sign)
            if not val.is_zero():
                if (sym_name, comp) in comps:
                    comps[(sym_name, comp)] = comps[(sym_name, comp)] + val
                else:
                    comps[(sym_name, comp)] = val
        self.components = comps
        self.parity = self._infer_parity()

    def _infer_parity(self):
        parity = None
        for (sym_name, comp), val in self.components.items():
            vp = val.parity()
            if vp is None:
                raise GradingError(
                    "component for %s%r has mixed parity" % (sym_name, comp))
            p = (vp - self.reg.symbols[sym_name].parity(comp)) & 1
            if parity is None:
                parity = p
            elif p != parity:
                raise GradingError(
                    "derivation parity is inconsistent at %s%r" % (sym_name, comp))
        return 0 if parity is None else parity

    def coefficient(self, var, chain):
        """d_Lambda(upsilon^A) for the jet variable var = s^A_Lambda.

        ``chain`` is the prefix chain of one ``prolong_apply`` pass: chain[0]
        is ((A, component), upsilon^A) and chain[k] is (Lambda'[k-1],
        d_{Lambda'[:k]} upsilon^A) for the variable Lambda' asked for last.
        The entries that are not prefixes of Lambda are dropped, and the rest
        of Lambda is derived from the deepest one kept, one total derivative
        per direction; chain then holds Lambda's own chain.
        """
        comp = (var.symbol.name, var.component)
        if not chain or chain[0][0] != comp:
            chain[:] = [(comp, self.components[comp])]
        index = var.index
        k = 0
        while k < len(index) and k + 1 < len(chain) and \
                chain[k + 1][0] == index[k]:
            k += 1
        del chain[k + 1:]
        for lam in index[k:]:
            chain.append((lam, total_derivative(chain[-1][1], lam)))
        return chain[-1][1]

    def is_zero(self):
        return not self.components

    def __add__(self, other):
        if self.right != other.right:
            raise GvcError("cannot add left and right derivations")
        comps = dict(self.components)
        for k, v in other.components.items():
            comps[k] = comps.get(k, self.reg.zero) + v
        return EvolutionaryDerivation(self.reg, comps, right=self.right)

    def __neg__(self):
        return EvolutionaryDerivation(
            self.reg, {k: -v for k, v in self.components.items()}, right=self.right)

    def __repr__(self):
        label = self.name or "derivation"
        return "<%s %s on %d components>" % (
            "right" if self.right else "left", label, len(self.components))


def prolong_apply(u, polys):
    """The images of ``polys`` under the jet prolongation of u, in order.

    Left derivations: sum over jet variables v = s^A_Lambda of
    d_Lambda(upsilon^A) * left_derivative(p, v).  Right derivations put the
    coefficient on the right of the right derivative instead.  Every product
    is accumulated in place into one fresh dict per polynomial.

    One pass serves all of ``polys``: their ``partials`` streams, each in
    ``var.key`` order, are merged, so each jet variable is met once across
    them.  Within one component that order is the preorder of the tree of
    multi-indices under "Lambda[:-1] is the parent of Lambda", so the walk
    leaves each subtree for good and ``coefficient`` needs to keep only the
    prefix chain of the current variable, at most ``jet_order + 1`` values:
    each d_Lambda(upsilon^A) is built exactly once and dropped as soon as
    the walk leaves its subtree.
    """
    side = "right" if u.right else "left"
    outs = [{} for _ in polys]
    chain = []
    for _key, i, v, part in merge(*[_tagged(i, p.partials(side, u.components))
                                    for i, p in enumerate(polys)]):
        coef = u.coefficient(v, chain)
        if u.right:
            _mul_terms(part.terms, coef.terms, outs[i])
        else:
            _mul_terms(coef.terms, part.terms, outs[i])
    return [GradedPoly(p.reg, out) for p, out in zip(polys, outs)]


def _tagged(i, partials):
    """The ``(var, partial)`` stream of polynomial i as merge items: ordered
    by ``var.key``, ties (one variable in several polynomials) by i."""
    for v, part in partials:
        yield v.key, i, v, part


def nilpotency_residuals(u):
    """{component key: u(upsilon^A)} for every component of u, zeros dropped.

    For odd u this is the full nilpotency certificate: the prolongation of u
    squares to zero exactly when every residual vanishes.
    """
    keys = sorted(u.components)
    images = prolong_apply(u, [u.components[key] for key in keys])
    return {key: r for key, r in zip(keys, images) if not r.is_zero()}
