"""Exact graded-commutative polynomial algebra on jet coordinates.

Everything downstream (total derivatives, Euler-Lagrange operators, Noether
identities, BRST algebra) reduces to arithmetic in one ring: polynomials with
rational coefficients in jet variables ``s^A_Lambda``, where the base symbols
``s^A`` carry a Grassmann parity and the multi-index ``Lambda`` is a sorted
multiset of base-coordinate directions.  Even variables commute, odd variables
anticommute and square to zero.

Monomial keys hold only ints.  Every ``JetVariable`` gets a fixed ``rank``,
its intern index in its ``Registry``, and ``Registry.by_rank`` maps ranks back
to variables.  A key is one sorted tuple of ints: an even factor of rank ``r``
appears as ``r``, once per unit of exponent, and an odd factor as ``~r``
(``-r - 1``).  Sorting puts the odd factors first, in decreasing rank, and
that is the order in which they multiply; ``bisect_left(key, 0)`` counts
them, and the constant monomial is ``()``.  A product key is
``tuple(sorted(k1 + k2))`` for every parity, run in C; the odd prefixes give
its Koszul sign.

The layout is chosen for CPython's cyclic garbage collector, which stops
tracking a tuple once a collection finds that all its items are untracked.
A flat tuple of ints goes the first time a collection sees it; a key that
nests tuples goes one level per collection, and one that holds objects is
rescanned at every collection.  Most keys die young in accumulators, and on
the largest fixture such rescans cost from a sixth to over a third of the
check time.

Rank order follows the order of interning, which depends on parse and check
order, so it never reaches the output.  Output follows the global variable
order ``JetVariable.key`` (kind rank, symbol name, component tuple,
multi-index): ``GradedPoly.global_terms`` is the one converter, which re-sorts
the odd factors by ``key`` and applies the sign of that permutation.  Any
fixed total order gives a valid normal form for odd monomials, so verdicts do
not depend on the rank order either.

Coefficients are exact, and a coefficient is an ``int`` exactly when it is
integral, a ``fractions.Fraction`` otherwise (``_rat`` states the rule).
No floats anywhere.  The rule is kept where a ``Fraction`` is born, in
parsing, and where one can become whole: only a ``Fraction`` operand can
make a whole sum or product, so each kernel asks once per call whether its
input holds one (``_holds_fraction``) and applies the rule inline only
then.  Theories whose coefficients are all integral never pay for it.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from fractions import Fraction
from itertools import (combinations, combinations_with_replacement, groupby,
                       product)

__all__ = [
    "GvcError",
    "GradingError",
    "JetOrderCapError",
    "SymbolDecl",
    "JetVariable",
    "ConstantTable",
    "Registry",
    "GradedPoly",
    "KIND_FIELD",
    "KIND_GHOST",
    "KIND_ANTIFIELD",
]


class GvcError(Exception):
    """Base class for everything this package raises on purpose."""


class GradingError(GvcError):
    """A parity / ghost-number / antifield-number bookkeeping rule was violated."""


class JetOrderCapError(GvcError):
    """A requested jet variable exceeds the configured jet-order cap."""

    def __init__(self, symbol, index, cap):
        super().__init__(
            "jet order %d of %s%r exceeds the cap %d; raise the cap via "
            "Registry(jet_order=...) or the --jet-order flag / GVC_JET_ORDER"
            % (len(index), symbol, tuple(index), cap)
        )
        self.symbol = symbol
        self.index = tuple(index)
        self.cap = cap


# Kind ranks fix the coarse level of the global variable order.
KIND_FIELD = 0
KIND_GHOST = 1
KIND_ANTIFIELD = 2

_KIND_NAMES = {KIND_FIELD: "field", KIND_GHOST: "ghost", KIND_ANTIFIELD: "antifield"}


def sorting_sign(items):
    """The sign of the permutation that sorts ``items``, which are distinct:
    -1 when it has an odd number of even-length cycles."""
    perm = sorted(range(len(items)), key=items.__getitem__)
    odd = len(perm)  # parity of (length - number of cycles)
    for i in range(len(perm)):
        if perm[i] is not None:
            odd -= 1
            j = i
            while perm[j] is not None:
                perm[j], j = None, perm[j]
    return -1 if odd & 1 else 1


def _rat(x):
    """The coefficient rule: ``x`` as an int when it is integral, else as
    the Fraction it is.  The kernels inline it as ``c.numerator`` when
    ``c.denominator == 1``, which ints pass unchanged."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError("expected an exact rational, got %r" % (x,))


def _decimal(c):
    """``str(c)`` of a coefficient of any size.  ``str`` refuses an int past
    ``sys.get_int_max_str_digits()`` digits, a limit the whole process
    shares, so such an int is printed as halves that it takes."""
    try:
        return str(c)
    except ValueError:
        if isinstance(c, Fraction):
            return "%s/%s" % (_decimal(c.numerator), _decimal(c.denominator))
        k = c.bit_length() * 3 // 20  # about half its digits
        hi, lo = divmod(abs(c), 10 ** k)
        return ("-" if c < 0 else "") + _decimal(hi) + _decimal(lo).zfill(k)


def _holds_fraction(terms):
    """Whether the term dict ``terms`` holds a Fraction coefficient, the one
    kind of operand whose sums and products can be whole: exactly when the
    sum of its coefficients is a Fraction.  A sum of ints runs in C; the
    first coefficient, when a Fraction, answers before any Fraction is
    added in Python."""
    values = terms.values()
    return type(next(iter(values), 0)) is Fraction or \
        type(sum(values)) is Fraction


class SymbolDecl:
    """One declared symbol family (a field, a ghost, or an antifield).

    A family such as ``a[r:3, mu:4]`` expands to one scalar jet coordinate per
    concrete component; the declaration records parity per component, the
    ghost/antifield numbers shared by the family, and an optional symmetry of
    the component tuple (``sym`` sorts components, ``antisym`` sorts with a
    sign and kills repeated indices).  ``directions`` says of each slot
    whether it carries a base direction, which a ``DirectionSwap`` permutes
    (``gvc.symmetry``); ``Registry`` defaults it to the slots of range
    ``dim``.
    """

    __slots__ = (
        "name",
        "kind",
        "stage",
        "slots",
        "parities",
        "ghost_number",
        "antifield_number",
        "symmetry",
        "directions",
        "_components",
    )

    def __init__(self, name, kind, slots=(), parities=0, ghost_number=0,
                 antifield_number=0, symmetry=None, stage=None,
                 directions=None):
        self.name = name
        self.kind = kind
        self.stage = stage
        self.slots = tuple(int(s) for s in slots)
        self.ghost_number = int(ghost_number)
        self.antifield_number = int(antifield_number)
        if symmetry not in (None, "sym", "antisym"):
            raise ValueError("symmetry must be None, 'sym' or 'antisym'")
        if symmetry and len(set(self.slots)) > 1:
            raise ValueError("symmetric component slots must share one range")
        self.symmetry = symmetry
        self.directions = (False,) * len(self.slots) if directions is None \
            else tuple(map(bool, directions))
        if symmetry and len(set(self.directions)) > 1:
            raise ValueError("symmetric component slots must all carry "
                             "directions or none")
        # parities: either a single 0/1 for the whole family, or a map keyed
        # by the value of one slot position: (slot_pos, (p_0, p_1, ...)).
        if isinstance(parities, tuple):
            pos, vec = parities
            self.parities = (int(pos), tuple(int(v) & 1 for v in vec))
        else:
            self.parities = int(parities) & 1
        self._components = None

    def parity(self, component):
        if isinstance(self.parities, int):
            return self.parities
        pos, vec = self.parities
        return vec[component[pos]]

    def canonicalize(self, component):
        """Return (canonical component tuple, sign) honoring the symmetry flag.

        Sign is 0 when an antisymmetric family is hit with a repeated index.
        """
        component = tuple(component)
        if len(component) != len(self.slots):
            raise ValueError(
                "%s expects %d component indices, got %r"
                % (self.name, len(self.slots), component)
            )
        for i, c in enumerate(component):
            if not 0 <= c < self.slots[i]:
                raise ValueError(
                    "component index %d out of range %d for %s"
                    % (c, self.slots[i], self.name)
                )
        if self.symmetry is None or len(component) < 2:
            return component, 1
        if self.symmetry == "sym":
            return tuple(sorted(component)), 1
        if len(set(component)) != len(component):
            return tuple(sorted(component)), 0
        return tuple(sorted(component)), sorting_sign(component)

    def components(self):
        """All canonical component tuples, in lexicographic order."""
        if self._components is None:
            if self.symmetry is None or len(self.slots) < 2:
                comps = product(*(range(n) for n in self.slots))
            else:
                pick = combinations_with_replacement \
                    if self.symmetry == "sym" else combinations
                comps = pick(range(self.slots[0]), len(self.slots))
            self._components = tuple(comps)
        return self._components

    def __repr__(self):
        return "SymbolDecl(%s:%s)" % (self.name, _KIND_NAMES[self.kind])


class JetVariable:
    """An interned scalar jet coordinate: (symbol family, component, multi-index).

    Instances are unique per registry, so identity comparison is safe.
    ``rank`` is the intern index, fixed for the life of the registry, and
    ``entry`` what a monomial key holds for one factor of the variable:
    ``rank`` when even, ``~rank`` when odd.  Every key shares this one int
    object, since a negative int is a fresh object each time it is
    computed.  ``key``
    is the global-order sort key, used only where output is made (see
    ``GradedPoly.global_terms``) and for the order in which
    ``GradedPoly.partials`` yields.  ``succ`` memoizes the successors
    ``s^A_{Lambda lam}`` by direction ``lam`` (see ``jets.total_derivative``).
    """

    __slots__ = ("symbol", "component", "index", "parity", "key", "order",
                 "rank", "entry", "succ")

    def __init__(self, symbol, component, index, rank):
        self.symbol = symbol
        self.component = component
        self.index = index
        self.parity = symbol.parity(component)
        self.order = len(index)
        self.rank = rank
        self.entry = ~rank if self.parity else rank
        self.key = (symbol.kind, symbol.name, component, index)
        # direction -> the interned d_direction of this variable, filled by
        # total_derivative on first use
        self.succ = {}

    def __repr__(self):
        return self.name()

    def name(self):
        bits = ",".join(str(c) for c in self.component)
        jets = ",".join(str(j) for j in self.index)
        if not bits and not jets:
            return self.symbol.name
        return "%s[%s;%s]" % (self.symbol.name, bits, jets)

    def __lt__(self, other):
        return self.key < other.key


class ConstantTable:
    """A named tensor of exact rationals, stored sparsely.

    Used for structure constants, metrics, Casimir forms and Levi-Civita
    symbols; entries absent from the map read as the int 0.  ``directions``
    is as a ``SymbolDecl``'s.
    """

    __slots__ = ("name", "shape", "entries", "directions")

    def __init__(self, name, shape, entries=None, directions=None):
        self.name = name
        self.shape = tuple(int(s) for s in shape)
        self.directions = (False,) * len(self.shape) if directions is None \
            else tuple(map(bool, directions))
        self.entries = {}
        for idx, val in (entries or {}).items():
            self[idx]  # bounds check
            val = _rat(val)
            if val:
                self.entries[tuple(idx)] = val

    def __getitem__(self, idx):
        idx = tuple(idx)
        if len(idx) != len(self.shape):
            raise ValueError("table %s expects %d indices" % (self.name, len(self.shape)))
        for i, v in zip(idx, self.shape):
            if not 0 <= i < v:
                raise ValueError("index %r out of bounds for table %s" % (idx, self.name))
        return self.entries.get(idx, 0)

    def __setitem__(self, idx, val):
        val = _rat(val)
        idx = tuple(idx)
        self[idx]  # bounds check
        if val:
            self.entries[idx] = val
        else:
            self.entries.pop(idx, None)

    def __iter__(self):
        return iter(sorted(self.entries.items()))


def _odd_sign(left, n, right):
    """The Koszul sign of the product of two monomial keys, ``left`` first.

    ``left`` has ``n`` odd factors.  Returns the sign of the permutation that
    sorts the odd factors of ``left`` followed by those of ``right`` into key
    order, or 0 when a factor repeats (odd squares vanish).
    """
    flips = 0
    for r in right:
        if r >= 0:
            break
        # r jumps over the odd factors of left that sort after it
        i = bisect_left(left, r, 0, n)
        if i < n and left[i] == r:
            return 0
        flips += n - i
    return -1 if flips & 1 else 1


def _mul_terms(t1, t2, out=None):
    """Multiply two term dicts {key: coeff}, ``t1`` on the left, adding the
    product into ``out`` in place (a fresh dict when None); returns ``out``.

    A product key is the sorted concatenation of the two keys.  Only when
    both keys hold odd factors does the product carry a sign, from
    ``_odd_sign``, which also kills a repeated odd factor.  ``out`` keeps
    the coefficient rule of ``_rat``.
    """
    if out is None:
        out = {}
    frac = _holds_fraction(t1) or _holds_fraction(t2)
    if len(t1) > len(t2):
        t1, t2 = t2, t1
        swapped = True
    else:
        swapped = False
    get = out.get
    for k1, c1 in t1.items():
        n1 = bisect_left(k1, 0)
        for k2, c2 in t2.items():
            c = c1 * c2
            if n1 and k2 and k2[0] < 0:
                sign = _odd_sign(k2, bisect_left(k2, 0), k1) if swapped \
                    else _odd_sign(k1, n1, k2)
                if not sign:
                    continue
                if sign < 0:
                    c = -c
            key = tuple(sorted(k1 + k2)) if k1 and k2 else k1 or k2
            c += get(key, 0)
            if c:
                if frac and c.denominator == 1:
                    c = c.numerator
                out[key] = c
            else:
                del out[key]
    return out


def _add_into(out, terms, neg=False):
    """Add the term dict ``terms`` into ``out`` in place (subtract when
    ``neg``); returns ``out``.

    ``out`` must be a dict the caller owns: a fresh ``{}`` or a copy, never
    the ``terms`` of a live polynomial.  ``out`` keeps the coefficient rule
    of ``_rat``; a sum is whole only when both operands are Fractions, so
    the rule is applied only when ``terms`` holds one.
    """
    frac = _holds_fraction(terms)
    get = out.get
    if neg:
        for key, c in terms.items():
            s = get(key, 0) - c
            if s:
                if frac and s.denominator == 1:
                    s = s.numerator
                out[key] = s
            else:
                del out[key]
    else:
        for key, c in terms.items():
            s = get(key, 0) + c
            if s:
                if frac and s.denominator == 1:
                    s = s.numerator
                out[key] = s
            else:
                del out[key]
    return out


def _scale_terms(terms, c):
    """The term dict ``terms`` times the rational ``c``, a fresh dict that
    keeps the coefficient rule of ``_rat``."""
    c = _rat(c)
    if not c:
        return {}
    if type(c) is int and not _holds_fraction(terms):
        return {k: v * c for k, v in terms.items()}
    return {k: _rat(v * c) for k, v in terms.items()}


class GradedPoly:
    """A graded-commutative polynomial in canonical form.

    ``terms`` maps a monomial key to a nonzero rational coefficient, an int
    exactly when it is integral (see ``_rat``).  A key is
    the sorted tuple of the ``JetVariable.entry`` of its factors: ``rank``
    for each unit of exponent of an even factor and ``~rank`` for an odd
    one, so the odd factors come first, each at most once, and multiply in
    key order.
    Keys hold ints only, so the garbage collector stops tracking them (see
    the module docstring).  Only this module, ``jets`` and
    ``gvc.symmetry`` (``DirectionSwap.key`` and ``image``) read the entries
    of a key, and ``gvc.evaluator`` builds the key ``(var.entry,)`` of one
    variable and the empty key ``()`` of a constant; other code takes keys
    whole or goes through ``monomials`` or ``global_terms``.  Canonical form
    makes equality checking a dict compare within one registry.  Output goes
    through ``global_terms``, which puts every term in the global variable
    order.
    """

    __slots__ = ("reg", "terms")

    def __init__(self, reg, terms):
        self.reg = reg
        self.terms = terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(reg, c):
        c = _rat(c)
        return GradedPoly(reg, {(): c} if c else {})

    @staticmethod
    def from_var(reg, var):
        return GradedPoly(reg, {(var.entry,): 1})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        if len(self.terms) < len(other.terms):
            self, other = other, self
        return GradedPoly(self.reg, _add_into(dict(self.terms), other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return GradedPoly(self.reg,
                          _add_into(dict(self.terms), other.terms, True))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return other - self

    def __neg__(self):
        return GradedPoly(self.reg, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return GradedPoly(self.reg, _mul_terms(self.terms, other.terms))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = GradedPoly.constant(self.reg, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def scale(self, c):
        return GradedPoly(self.reg, _scale_terms(self.terms, c))

    def _coerce(self, other):
        if isinstance(other, GradedPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return GradedPoly.constant(self.reg, other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedPoly.constant(self.reg, other)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    # -- gradings ----------------------------------------------------------

    def parity(self):
        """0 or 1 for a parity-homogeneous polynomial, None when mixed or zero."""
        seen = None
        for key in self.terms:
            p = bisect_left(key, 0) & 1
            if seen is None:
                seen = p
            elif seen != p:
                return None
        return seen

    def _weight(self, attr):
        seen = None
        for _, _, factors in self.monomials():
            w = sum(getattr(v.symbol, attr) for v in factors)
            if seen is None:
                seen = w
            elif seen != w:
                return None
        return seen

    def ghost_number(self):
        """Total ghost number when homogeneous, else None (0 for the zero poly)."""
        return 0 if not self.terms else self._weight("ghost_number")

    def antifield_number(self):
        return 0 if not self.terms else self._weight("antifield_number")

    def ghost_degree_parts(self):
        """Split into {ghost polynomial degree: part}; degree counts ghost factors."""
        parts = {}
        for key, c, factors in self.monomials():
            d = sum(1 for v in factors if v.symbol.kind == KIND_GHOST)
            parts.setdefault(d, {})[key] = c
        return {d: GradedPoly(self.reg, t) for d, t in sorted(parts.items())}

    # -- structure queries ---------------------------------------------------

    def monomials(self):
        """Yield ``(key, coeff, factors)`` for every term, in storage order.

        ``factors`` lists the jet variables of the monomial, one per unit of
        exponent.  This is the decoder for code that asks which variables a
        term holds; output order comes from ``global_terms``.
        """
        by_rank = self.reg.by_rank
        for key, c in self.terms.items():
            yield key, c, [by_rank[r if r >= 0 else ~r] for r in key]

    def variables(self):
        """The set of jet variables occurring in this polynomial."""
        by_rank = self.reg.by_rank
        return {by_rank[r if r >= 0 else ~r] for key in self.terms for r in key}

    def num_terms(self):
        return len(self.terms)

    # -- derivatives ---------------------------------------------------------

    def partials(self, side="left", only=None):
        """Yield ``(var, dp/dvar)`` for every jet variable ``var`` of p.

        ``side='left'`` differentiates acting from the left, ``side='right'``
        from the right; for odd variables the two differ by the sign
        (-1)^([v]([p]+[v])) on parity-homogeneous input.  ``only``, when
        given, is a container of (symbol name, component) keys; variables of
        other components are skipped.

        One pass indexes the monomials containing each variable of p, and
        ``only`` filters those, not every variable interned.  The partials
        then come out one at a time, built only when the generator
        reaches them, in increasing global variable order (``var.key``), so
        all jets of one symbol component arrive together.  That order is
        load-bearing: callers fold each partial (or each component's group of
        partials) into their result and drop it before the next is built,
        whereas building them all at once, or yielding them unordered so that
        a caller must collect them before grouping, keeps every partial alive
        together and multiplies peak memory.
        Removing one factor of ``var`` maps distinct monomials to distinct
        monomials, so no coefficient cancels and every partial is nonzero.
        """
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        by_rank = self.reg.by_rank
        where = {}
        for key in self.terms:
            prev = None
            for r in key:
                if r != prev:
                    where.setdefault(r, []).append(key)
                    prev = r
        wanted = {}
        for r in where:
            v = by_rank[r if r >= 0 else ~r]
            if only is None or (v.symbol.name, v.component) in only:
                wanted[r] = v
        terms = self.terms
        frac = _holds_fraction(terms)
        right = side == "right"
        for r in sorted(wanted, key=lambda r: wanted[r].key):
            out = {}
            if r < 0:
                # the odd factor at slot i moves to the front (left) or
                # to the end of the odd prefix (right)
                for key in where[r]:
                    i = key.index(r)
                    c = terms[key]
                    flip = bisect_left(key, 0) - 1 - i if right else i
                    out[key[:i] + key[i + 1:]] = -c if flip & 1 else c
            else:
                for key in where[r]:
                    i = key.index(r)
                    c = terms[key] * key.count(r)
                    if frac and c.denominator == 1:
                        c = c.numerator
                    out[key[:i] + key[i + 1:]] = c
            yield wanted[r], GradedPoly(self.reg, out)

    def derivative(self, var, side="left"):
        """The graded partial derivative by one jet variable; zero if absent."""
        parts = self.partials(side, {(var.symbol.name, var.component)})
        return next((d for v, d in parts if v is var), self.reg.zero)

    # -- printing ------------------------------------------------------------

    def global_key(self, key):
        """The place of the stored monomial ``key`` in the global order: its
        even factors as (``JetVariable.key``, exponent) pairs, then its odd
        factors' ``JetVariable.key``, each increasing."""
        by_rank = self.reg.by_rank
        n = bisect_left(key, 0)
        evens = key[n:]
        return (tuple(sorted([(by_rank[r].key, evens.count(r))
                              for r in set(evens)])),
                tuple(sorted([by_rank[~r].key for r in key[:n]])))

    def global_terms(self, limit=None):
        """The terms in the global variable order, for output: the first
        ``limit`` of them when a limit is given.

        Returns a list of ``(key, coeff, evens, odds)`` sorted by
        ``global_key``: ``evens`` is a tuple of (JetVariable, exponent)
        pairs and ``odds`` a tuple of JetVariables, each increasing in
        ``JetVariable.key``, and ``coeff`` is the coefficient of that
        product, i.e. the stored coefficient times the sign of the
        permutation from stored order (decreasing rank) to global order of
        the odd factors.  ``key`` is the stored monomial key.  This is the
        one place where rank order is turned into the order that output is
        made in.
        """
        keys = sorted(self.terms, key=self.global_key) if limit is None \
            else heapq.nsmallest(limit, self.terms, key=self.global_key)
        by_rank = self.reg.by_rank
        rows = []
        for key in keys:
            n = bisect_left(key, 0)
            ev = sorted(((by_rank[r], len(list(run)))
                         for r, run in groupby(key[n:])),
                        key=lambda pair: pair[0].key)
            od = [by_rank[~r] for r in key[:n]]
            sign = sorting_sign([v.key for v in od])
            od = tuple(sorted(od, key=lambda v: v.key))
            rows.append((key, sign * self.terms[key], tuple(ev), od))
        return rows

    def pretty(self, limit=None):
        """Canonical text form; parses back to an equal polynomial.  With
        ``limit``, the first ``limit`` terms alone."""
        if not self.terms:
            return "0"
        chunks = []
        for _, c, evens, odds in self.global_terms(limit):
            factors = []
            for v, e in evens:
                factors.append(v.name() + ("^%d" % e if e > 1 else ""))
            for v in odds:
                factors.append(v.name())
            neg = c < 0
            c = -c if neg else c
            body = "*".join(factors)
            if not factors:
                coeff = _decimal(c)
            elif c == 1:
                coeff = body
            else:
                coeff = "%s*%s" % (_decimal(c), body)
            if not chunks:
                chunks.append("-" + coeff if neg else coeff)
            else:
                chunks.append((" - " if neg else " + ") + coeff)
        return "".join(chunks)

    def __repr__(self):
        s = self.pretty()
        return s if len(s) <= 120 else s[:117] + "..."


class Registry:
    """Owns symbol declarations, constant tables, and the jet-variable interner.

    The registry is the single source of truth for the global variable order,
    the rank of each interned variable (``by_rank[v.rank] is v``) and the
    jet-order cap.  It starts open; a theory loader freezes it after
    the last declaration, after which registering symbols raises, and so
    does changing ``dim`` or ``jet_order``, under which every variable was
    interned and every verdict reached.
    """

    DEFAULT_JET_ORDER = 4
    MAX_JET_ORDER = 16

    def __init__(self, dim, jet_order=None):
        dim = int(dim)
        if not 1 <= dim <= 8:
            raise ValueError("spacetime dimension must be between 1 and 8")
        self.dim = dim
        self.jet_order = Registry.checked_jet_order(
            Registry.DEFAULT_JET_ORDER if jet_order is None else jet_order)
        self.symbols = {}
        self.tables = {}
        self.frozen = False
        self._vars = {}
        self.by_rank = []

    # Built on demand: a polynomial kept here would point back at the
    # registry, and the cycle would leave every theory to the cyclic
    # garbage collector.
    @property
    def zero(self):
        return GradedPoly(self, {})

    @property
    def one(self):
        return GradedPoly.constant(self, 1)

    @staticmethod
    def checked_jet_order(cap):
        """The jet-order cap as an int; ValueError outside 1..MAX_JET_ORDER."""
        cap = int(cap)
        if not 1 <= cap <= Registry.MAX_JET_ORDER:
            raise ValueError("jet-order cap must be between 1 and %d, got %d"
                             % (Registry.MAX_JET_ORDER, cap))
        return cap

    # -- declaration ---------------------------------------------------------

    def _check_open(self, what):
        if self.frozen:
            raise GvcError("registry is frozen; cannot declare %s" % what)

    def _check_name(self, name):
        if name in self.symbols or name in self.tables:
            raise GvcError("name %r is already declared" % name)

    def typed(self, shape, directions=None):
        """``directions`` of a family or table of the slot ranges ``shape``:
        by default, the slots of range ``dim``.  A slot that carries a
        direction has range ``dim``, which ``gvc.symmetry``'s proofs
        assume."""
        if directions is None:
            return tuple(n == self.dim for n in shape)
        if len(directions) != len(shape) or any(
                moved and n != self.dim for n, moved in zip(shape, directions)):
            raise ValueError("a slot that carries a direction has range dim")
        return tuple(directions)

    def declare_field(self, name, slots=(), parities=0, symmetry=None,
                      directions=None):
        """Declare a field family and, implicitly, its antifield family ``<name>_bar``.

        The antifield copies the component slots, their ``directions`` and
        the symmetry, flips the parity of every component, and carries
        antifield number 1 and ghost number -1.
        """
        self._check_open("field %s" % name)
        self._check_name(name)
        sym = SymbolDecl(name, KIND_FIELD, slots, parities, 0, 0, symmetry,
                         directions=self.typed(slots, directions))
        self.symbols[name] = sym
        bar = self._declare_antifield(name + "_bar", sym, stage=-1)
        return sym, bar

    def declare_ghost(self, name, stage, slots=(), parities=0, symmetry=None,
                      directions=None):
        """Declare a stage-k ghost family: ghost number k+1, antifield number -(k+1)."""
        self._check_open("ghost %s" % name)
        self._check_name(name)
        sym = SymbolDecl(name, KIND_GHOST, slots, parities,
                         ghost_number=stage + 1, antifield_number=-(stage + 1),
                         symmetry=symmetry, stage=stage,
                         directions=self.typed(slots, directions))
        self.symbols[name] = sym
        return sym

    def _declare_antifield(self, name, base, stage):
        self._check_name(name)
        if isinstance(base.parities, int):
            parities = (base.parities + 1) & 1
        else:
            pos, vec = base.parities
            parities = (pos, tuple((v + 1) & 1 for v in vec))
        # Field antifields (stage -1) carry antifield number 1; the antifield
        # paired with a stage-k ghost carries k+2.
        ant = 1 if stage == -1 else stage + 2
        sym = SymbolDecl(name, KIND_ANTIFIELD, base.slots, parities,
                         ghost_number=-ant, antifield_number=ant,
                         symmetry=base.symmetry, stage=stage,
                         directions=base.directions)
        self.symbols[name] = sym
        return sym

    def declare_ghost_antifield(self, ghost):
        """Declare the antifield paired with a ghost family (name ``<ghost>_bar``)."""
        self._check_open("antifield for %s" % ghost.name)
        return self._declare_antifield(ghost.name + "_bar", ghost, stage=ghost.stage)

    def declare_table(self, name, shape, entries=None, directions=None):
        self._check_open("table %s" % name)
        self._check_name(name)
        tab = ConstantTable(name, shape, entries,
                            self.typed(shape, directions))
        self.tables[name] = tab
        return tab

    def __setattr__(self, name, value):
        if name in ("dim", "jet_order", "frozen") and \
                getattr(self, "frozen", False):
            raise AttributeError("registry is frozen; %s is read-only" % name)
        object.__setattr__(self, name, value)

    def freeze(self):
        if not self.frozen:
            self.frozen = True
        return self

    # -- jet variables ---------------------------------------------------------

    def jet_var(self, symbol, component=(), index=()):
        """The interned jet variable for (symbol, component, multi-index).

        The multi-index is sorted here, so permutations of the same directions
        name the same variable.  Returns (variable, sign) where sign comes
        from component canonicalization of sym/antisym families (0 kills the
        variable entirely).
        """
        if isinstance(symbol, str):
            try:
                symbol = self.symbols[symbol]
            except KeyError:
                raise GvcError("unknown symbol %r" % symbol) from None
        component, sign = symbol.canonicalize(component)
        index = self.checked_index(symbol, index)
        if sign == 0:
            return None, 0
        k = (symbol.name, component, index)
        v = self._vars.get(k)
        if v is None:
            v = JetVariable(symbol, component, index, len(self.by_rank))
            self._vars[k] = v
            self.by_rank.append(v)
        return v, sign

    def checked_index(self, symbol, index):
        """The multi-index of a ``symbol`` variable, sorted; ValueError for a
        direction outside the base, JetOrderCapError past the cap."""
        index = tuple(sorted(index))
        for lam in index:
            if not 0 <= lam < self.dim:
                raise ValueError("jet direction %d out of range for dim %d" % (lam, self.dim))
        if len(index) > self.jet_order:
            raise JetOrderCapError(symbol.name, index, self.jet_order)
        return index

    def var(self, name, component=(), index=()):
        """A single jet variable as a polynomial (signed for antisym components)."""
        v, sign = self.jet_var(name, component, index)
        if sign == 0:
            return self.zero
        p = GradedPoly.from_var(self, v)
        return p if sign == 1 else p.scale(sign)

    def const(self, c):
        return GradedPoly.constant(self, c)
