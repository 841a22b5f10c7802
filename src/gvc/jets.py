"""Total derivatives and evolutionary derivations on graded jet polynomials.

The total derivative here is the restriction of d_lambda to polynomials with
no explicit base-coordinate dependence: d_lambda = sum_{A,Lambda}
s^A_{lambda Lambda} * d/ds^A_Lambda.  All built-in theories are autonomous
with constant coefficient tables, so the dropped del/del-x^lambda term acts
as zero; this reduction is documented in the README.

An evolutionary derivation is determined by its values on zero-jet variables;
its prolongation acts on arbitrary jets through d_Lambda of those values.
``prolong_apply`` pairs the partials of a polynomial with d_Lambda of a
component in one of two ways: from a prefix chain of the d_Lambda(upsilon^A)
themselves, or by parts, through the higher Euler operators ``eta`` defined
here, so that the total derivatives act on the smaller factor.
``update_images`` keeps every image that the package stores, one
derivation's on keyed polynomials, and updates it across an edit.

Every alternating sum sum_Lambda (-1)^{|Lambda|} d_Lambda(...) of the package
is taken by one Horner fold, ``_fold``: the Euler-Lagrange derivatives of
``gvc.variational``, the by-parts sum of ``prolong_apply``, and each
component of ``eta``.

Only vertical derivations are supported (no base-vector part): a derivation
whose horizontal part matters can always be traded for its vertical part when
testing variational identities, and the fixtures never need more.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import merge
from itertools import groupby, product
from math import comb

from gvc.algebra import (
    GradedPoly,
    GradingError,
    GvcError,
    _holds_fraction,
    _mul_terms,
)
from gvc.symmetry import _orbit_first

__all__ = [
    "total_derivative",
    "EvolutionaryDerivation",
    "prolong_apply",
    "update_images",
    "eta",
]

# prolong_apply pairs the partials f^Lambda of a polynomial with one
# component upsilon^A by parts when |upsilon^A| exceeds this many times the
# terms of all the f^Lambda.  On grav4's kt check, where upsilon^A is an
# Euler-Lagrange derivative of 404-644 terms and the f^Lambda are record
# rows of 3-13 terms in all, by parts took about a third of the time of the
# prefix chain (0.65-0.73 s against 2.01-2.19 s).  The chain shares
# d_Lambda upsilon^A across the polynomials of a pass, which wins when
# upsilon^A is small: with by parts everywhere, cs3's kt and brst checks,
# whose upsilon^A have 4 terms, were 25-80% slower in three runs.  ym4's
# pairs (36-term E_A against one-term constant rows) go by parts and are
# still a little slower there than on the chain (medians of 15 in-process
# alternations: kt 2.6 against 2.2 ms, ni 3.9 against 3.4 ms), but a ratio
# of 40, which would send them down the chain, made grav4's kt twice as
# slow (1.18 against 0.57 s), whose ratios run from 31 to 215.
BY_PARTS_RATIO = 4


def total_derivative(p, lam, out=None, neg=False):
    """d_lam applied to p; an even derivation raising jet orders by one.

    Each factor ``v`` of a monomial is replaced by ``d_lam(v)`` in turn.  In
    the one-tuple keys of ``algebra`` that is a removal and a ``bisect``
    insert: an even factor carries its exponent as a coefficient, an odd
    one the sign of moving the new factor from the old one's slot to its
    own.  Raises JetOrderCapError when a produced jet would exceed the
    registry cap.

    As ``algebra._mul_terms`` does, it adds the result into the term dict
    ``out`` in place (subtracts it when ``neg``), a fresh dict when None,
    and returns ``out`` as a polynomial; ``out`` must be a dict the caller
    owns (see ``algebra._add_into``).  It keeps the coefficient rule of
    ``algebra._rat``: a sum is whole only when both operands are
    Fractions, so the rule is applied only when ``p`` holds one.
    """
    reg = p.reg
    by_rank = reg.by_rank
    succ = {}  # key entry -> the entry of its d_lam, for this call
    if out is None:
        out = {}
    get = out.get
    frac = _holds_fraction(p.terms)
    for key, c in p.terms.items():
        if neg:
            c = -c
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
                if frac and s.denominator == 1:
                    s = s.numerator
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
                key = (sym_name, comp)
                comps[key] = comps[key] + val if key in comps else val
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
        """d_Lambda(upsilon^A) for the jet variable var = s^A_Lambda, on the
        prefix-chain route of ``prolong_apply``.

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
        """The sum of two derivations of one side, named as ``self``.  A
        component only one of them has is shared, not copied or checked
        again, so adding the difference of an edit costs what it changed."""
        if not other.components:
            return self
        if self.components and other.parity != self.parity:
            raise GradingError("derivation parity is inconsistent")
        comps = dict(self.components)
        for key, val in other.components.items():
            if key in comps:
                val = comps[key] + val
            if val.terms:
                comps[key] = val
            else:
                del comps[key]
        out = EvolutionaryDerivation(self.reg, {}, self.right, self.name)
        out.components = comps
        out.parity = other.parity if comps else 0
        return out

    def __sub__(self, other):
        """self - other, over the components where the two hold different
        objects: the derivations of an edited theory share every component
        its edit left alone, so the difference costs what the edit
        changed."""
        comps = {key: val if other.components.get(key) is None
                 else val - other.components[key]
                 for key, val in self.components.items()
                 if val is not other.components.get(key)}
        comps.update((key, -val) for key, val in other.components.items()
                     if key not in self.components)
        return EvolutionaryDerivation(self.reg, comps, self.right)


def prolong_apply(u, polys, symmetries=None):
    """The images of ``polys`` under the jet prolongation of u, in order.

    Left derivations: sum over jet variables v = s^A_Lambda of
    d_Lambda(upsilon^A) * left_derivative(p, v).  Right derivations put the
    coefficient on the right of the right derivative instead.  Every product
    is accumulated in place, into one fresh dict per polynomial and, on the
    by-parts route, per multi-index.

    One pass serves all of ``polys``: their ``partials`` streams, each in
    ``var.key`` order, are merged, so each jet variable is met once across
    them, and the partials f^Lambda of one component A arrive together.
    Each polynomial pairs its f^Lambda with upsilon^A by one of two routes:

    - by parts (``_pair_into``), when ``_by_parts`` finds some Lambda
      nonempty and upsilon^A more than ``BY_PARTS_RATIO`` times the terms
      of all the f^Lambda: the total derivatives then act on the products
      eta(f)^Lambda * upsilon^A, summed over the components and folded
      once per polynomial at the end of the pass, and no
      d_Lambda(upsilon^A) is built;
    - otherwise the prefix chain, shared by the polynomials of the pass.
      Within one component the ``var.key`` order is the preorder of the
      tree of multi-indices under "Lambda[:-1] is the parent of Lambda", so
      the walk leaves each subtree for good and ``coefficient`` keeps only
      the prefix chain of the current variable, at most ``jet_order + 1``
      values: each d_Lambda(upsilon^A) is built once and dropped as soon as
      the walk leaves its subtree.

    ``symmetries``, when given, lists for each polynomial p the
    ``DirectionSwap``s sigma with sigma(p) = +-p and sigma u = +-u sigma,
    under which its by-parts sums have z[sigma Lambda] = +-sigma(z[Lambda])
    (the proof is in ``gvc.symmetry``).  The pass then accumulates
    z[Lambda] for the least Lambda of each orbit of the group they
    generate, and the rest of an orbit, after the components, only when
    that sum is not zero.
    """
    side = "right" if u.right else "left"
    outs = [{} for _ in polys]
    zs = {}  # i -> the by-parts sums of polynomial i, folded at the end
    firsts = [_orbit_first(swaps) if swaps else None
              for swaps in symmetries or [None] * len(polys)]
    owed = {}  # i -> the (Lambda, eta(f)^Lambda, phi) it has yet to pair
    chain = []
    stream = merge(*[_tagged(i, p.partials(side, u.components))
                     for i, p in enumerate(polys)])
    for comp, group in groupby(stream, lambda item: item[0][1:3]):
        phi = u.components[comp]
        group = list(group)
        rows = {}
        for _key, i, v, part in group:
            rows.setdefault(i, {})[v.index] = part
        by_parts = {i for i, f in rows.items() if _by_parts(phi, f)}
        for i in by_parts:
            z = zs.setdefault(i, {(): outs[i]})
            for index, g in eta(rows[i]).items():
                if firsts[i] and firsts[i](index) != index:
                    owed.setdefault(i, []).append((index, g, phi))
                else:
                    _pair_into(z.setdefault(index, {}), g, phi, u.right)
        for _key, i, v, part in group:
            if i in by_parts:
                continue
            coef = u.coefficient(v, chain)
            if u.right:
                _mul_terms(part.terms, coef.terms, outs[i])
            else:
                _mul_terms(coef.terms, part.terms, outs[i])
    for i, items in owed.items():
        z = zs[i]
        for index, g, phi in items:
            if z.get(firsts[i](index)):
                _pair_into(z.setdefault(index, {}), g, phi, u.right)
    for z in zs.values():
        _fold(u.reg, sorted(z.items()))
    return [GradedPoly(p.reg, out) for p, out in zip(polys, outs)]


def update_images(op, items, was=None, old=None, orbits=({}, {})):
    """{key: op(x)} for each ``(key, x, x_was)`` of ``items``, updated
    from the images ``old`` = {key: was(x_was)} of the parent's operator
    ``was`` by the split of the bilinear form

        op(x) = was(x_was) + (op - was)(x_was) + op(x - x_was):

    one ``prolong_apply`` pass of op - was over every x_was, then one of op
    over the x - x_was that are not zero, so an edit costs what it changed.
    A ``was``, an x_was or an image of ``old`` that is None is zero; with
    none of them this is the cold build, one pass of op over every x.

    ``orbits`` = ({key: the first key of its orbit}, {first key: the swaps
    that fix it}) prunes a cold build by a group of ``DirectionSwap``s
    under which each image at a key is +- sigma of the image at its first
    key: the pass takes the x at the first keys, each with its swaps
    (``prolong_apply``'s ``symmetries``), and a second pass the other x
    whose first key's image is not zero; the rest are zero with it.

    An image's dict keeps the table its terms grew to before they
    cancelled (grav4's residuals reach ~88k terms), so each image not
    shared with ``old`` is a right-sized copy."""
    old = old or {}
    orbit, fixing = orbits
    sums = {key: [old[key]] if key in old else [] for key, _x, _was in items}

    def add(u, todo):
        if todo:
            for (key, _x), image in zip(todo, prolong_apply(
                    u, [x for _key, x in todo],
                    fixing and [fixing.get(key) for key, _x in todo])):
                sums[key].append(image)
    diff = op if was is None else op - was
    if not diff.is_zero():
        add(diff, [(key, x_was) for key, _x, x_was in items
                   if x_was is not None])
    changed = [(key, x if x_was is None else x - x_was)
               for key, x, x_was in items if x is not x_was]
    add(op, [(key, d) for key, d in changed if d.terms and key not in orbit])
    add(op, [(key, x) for key, x, _was in items
             if key in orbit and any(p.terms for p in sums[orbit[key]])])
    zero = op.reg.zero
    out = {}
    for key, images in sums.items():
        images = [p for p in images if p.terms]
        p = sum(images[1:], images[0]) if images else zero
        out[key] = zero if not p.terms else p if p is old.get(key) else \
            GradedPoly(p.reg, dict(p.terms))
    return out


def _tagged(i, partials):
    """The ``(var, partial)`` stream of polynomial i as merge items: ordered
    by ``var.key`` = (kind, name, component, index), ties (one variable in
    several polynomials) by i."""
    for v, part in partials:
        yield v.key, i, v, part


def _by_parts(phi, f):
    """Whether sum_Lambda f^Lambda d_Lambda(phi) is taken by parts: some
    Lambda is nonempty, phi has more than ``BY_PARTS_RATIO`` times the terms
    of all the f^Lambda, and no derivative of f passes the jet-order cap.

    By parts, f^Lambda is derived up to |Lambda| times: its jets reach its
    own order plus |Lambda| before they cancel in the sum."""
    if not any(f) or len(phi.terms) <= \
            BY_PARTS_RATIO * sum(len(g.terms) for g in f.values()):
        return False
    reg = phi.reg
    by_rank = reg.by_rank
    return all(len(index) + max((by_rank[r if r >= 0 else ~r].order
                                 for key in g.terms for r in key), default=0)
               <= reg.jet_order for index, g in f.items())


def _pair_into(into, g, phi, f_left=True):
    """Add g * phi, or phi * g when not ``f_left``, into the term dict
    ``into``: one term of the by-parts sum z[Lambda], g = eta(f)^Lambda.

    ``prolong_apply`` takes sum_Lambda f^Lambda * d_Lambda(phi), or
    sum_Lambda d_Lambda(phi) * f^Lambda, through the adjunction of ``eta``,

        sum_Lambda f^Lambda d_Lambda(phi)
            = sum_Lambda (-1)^{|Lambda|} d_Lambda(eta(f)^Lambda * phi),

    whose mirror, with phi on the left, holds because d_Lambda is an even
    derivation: eta(f)^Lambda * phi is added into z[Lambda], and ``_fold``
    sums z.  Sums over several (f, phi) into one z share their total
    derivatives, and their cancellations happen before any is taken.
    Callers ask ``_by_parts`` first.
    """
    if f_left:
        _mul_terms(g.terms, phi.terms, into)
    else:
        _mul_terms(phi.terms, g.terms, into)


def _fold(reg, items):
    """sum over the ``(Lambda, terms)`` items of (-1)^{|Lambda|} *
    d_Lambda(terms), as a term dict: the terms of the empty multi-index
    when there are any, added into in place.

    The items come in increasing Lambda, sorted multi-indices, which is the
    preorder of the tree under "Lambda[:-1] is the parent of Lambda"; the
    term dicts are handed over and consumed.  The sum is folded Horner-wise:
    when the walk leaves the subtree of Lambda, terms[Lambda[:-1]] -=
    d_{Lambda[-1]} terms[Lambda], taken by ``total_derivative`` straight
    into the parent's dict, so the multi-indices that share a prefix share
    its total derivatives, and only the chain of open prefixes, at most
    ``jet_order + 1`` dicts, is held.
    """
    chain = [((), {})]

    def close():
        index, terms = chain.pop()
        total_derivative(GradedPoly(reg, terms), index[-1], chain[-1][1],
                         True)

    for index, terms in items:
        while index[:len(chain[-1][0])] != chain[-1][0]:
            close()
        if not index:
            # the first item, so nothing has been folded into the root yet
            chain[0] = ((), terms)
            continue
        for k in range(len(chain[-1][0]) + 1, len(index)):
            chain.append((index[:k], {}))
        chain.append((index, terms))
    while len(chain) > 1:
        close()
    return chain[0][1]


# ---------------------------------------------------------------------------
# Higher Euler operators
# ---------------------------------------------------------------------------

def eta(f):
    """The higher Euler operators applied to a finite tuple of coefficients.

    ``f`` maps multi-indices (sorted tuples of base directions) to
    polynomials.  The result tuple satisfies, for every test polynomial phi,

        sum_Lambda (-1)^{|Lambda|} d_Lambda(f^Lambda * phi)
            = sum_Lambda eta(f)^Lambda * d_Lambda(phi)

    and applying it twice is the identity, so the identity also reads with
    f and eta(f) swapped: that is how ``_pair_into`` moves the total
    derivatives of a pairing off phi.  Each component is one ``_fold``,

        eta(f)^Xi = (-1)^{|Xi|} sum_Sigma (-1)^{|Sigma|}
                        d_Sigma(binom(Xi + Sigma, Xi) * f^{Xi + Sigma}),

    over the Sigma with Xi + Sigma a key of f, the binomial taken per base
    direction: it counts the ways Xi sits in Xi + Sigma.  In dimension one
    it reduces to |Xi+Sigma|! / (|Xi|! |Sigma|!).
    """
    f = {tuple(sorted(k)): v for k, v in f.items() if not v.is_zero()}
    if not f:
        return f
    reg = next(iter(f.values())).reg
    folds = {}  # Xi -> the (Sigma, terms) items of its fold
    for theta, g in f.items():
        runs = [(lam, len(list(grp))) for lam, grp in groupby(theta)]
        # every split of each run of theta into Xi's share and Sigma's
        for ks in product(*[range(m + 1) for _lam, m in runs]):
            xi = sigma = ()
            weight = 1
            for (lam, m), k in zip(runs, ks):
                xi += (lam,) * k
                sigma += (lam,) * (m - k)
                weight *= comb(m, k)
            # _fold consumes its items, so each is a fresh dict
            folds.setdefault(xi, []).append(
                (sigma, g.scale(-weight if len(xi) & 1 else weight).terms))
    out = {}
    for xi in sorted(folds):
        terms = _fold(reg, sorted(folds[xi]))
        if terms:
            out[xi] = GradedPoly(reg, terms)
    return out
