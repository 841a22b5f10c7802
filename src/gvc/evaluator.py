"""Statement evaluation against a registry: each statement compiled once
into closures, with the values and signs of its nodes.

A ``sum``, the records of a ghost family and the free indices of a key,
whose canonical component, sign and value come from ``_Eval.key``, mean
every value of their indices, in the order of ``itertools.product`` of the
ranges, the last index varying fastest.  Evaluation may take fewer: a
factor of a ``sum``'s body that computes a polynomial, or a rational beside
one, is evaluated once per value of the binders it reads, and a value that
the symmetry proof below maps from an earlier one is that value's image
(``_Eval``); the keys and records still come in that order.  ``+`` and
``sum`` accumulate in place.

Each statement is compiled once (``_Eval``) and its closures evaluated for
every record and key.  Errors come from evaluation itself.  Compiling
decides, given the range of every index bound around it (ghost binders, the
key's free indices, each ``sum``'s explicit or inferred range), whether each
node is clean, that is whether no reference in it can fail under any
assignment.  A product whose factors are clean stops at its first zero
factor, so no zero costs the factors after it.  Any other evaluates every
factor, so the first error a statement raises is the one that evaluating
every factor meets, where it meets it: a clean node raises nothing.  No
index range is empty, the jets of a variable an antisymmetric family kills
are still checked, and so is the unclean value of a killed key, so no zero
hides an invalid reference.  The same walk proves which transpositions of
two adjacent base directions map L to +-L and each record family and the
gamma block onto themselves; a parsed theory's memo starts with them, its
two certificates (``gvc.parser._TheoryBuilder.certificates``), the only
proof of a symmetry that ``gvc.symmetry`` accepts.  Those transpositions
act on the slots that carry a direction (``gvc.grammar._directions``).

Everything is exact rational arithmetic.  A number is born under the
coefficient rule of ``algebra._rat``, an int when it is integral, and a
rational that evaluation makes whole, such as ``2 * 1/2``, enters a
polynomial through ``GradedPoly.constant`` or ``scale``, which apply the
rule.
"""
from __future__ import annotations

import itertools
from contextlib import contextmanager
from operator import itemgetter, mul

from .algebra import GvcError, GradedPoly, _add_into, _mul_terms, _rat, \
    _scale_terms
from .grammar import ParseError
from .symmetry import direction_swap, orbit_step


def _getter(slots):
    """A function of the slot values ``v`` that returns ``(v[s] for s in
    slots)`` as a tuple."""
    if len(slots) > 1:
        return itemgetter(*slots)
    if slots:
        slot, = slots
        return lambda v: (v[slot],)
    return lambda v: ()


def _scaled_by(c, terms):
    return _scale_terms(terms, c)


def _times(a, b):
    """The signs of a product of two nodes."""
    return a[0] & b[0], a[1] ^ b[1]


def _agree(signs):
    """The signs of a sum of nodes: the one sign they share for each swap,
    refused where two differ."""
    ok, neg = signs[0]
    for other_ok, other_neg in signs[1:]:
        ok &= other_ok & ~(other_neg ^ neg)
    return ok, neg


def _sign(neg, lam):
    """The sign under the swap lam of a node whose -1 mask is ``neg``."""
    return -1 if neg >> lam & 1 else 1


def _table_signs(tab, dim):
    """The signs of the table t: for each swap sigma of directions lam and
    lam + 1, acting on each of its direction slots, the sign e with t[sigma
    x] = e t[x] for every index x, refused when there is none.  A zero maps
    to a zero, since sigma is an involution that maps every nonzero entry
    to one."""
    moved = tab.directions
    ok = neg = 0
    for lam in range(dim - 1):
        sign = 1
        for n, (idx, c) in enumerate(tab.entries.items()):
            img = tuple(2 * lam + 1 - i if m and 0 <= i - lam <= 1 else i
                        for i, m in zip(idx, moved))
            d = tab.entries.get(img)
            if d is None or abs(d) != abs(c) or n and d != sign * c:
                break
            sign = 1 if d == c else -1
        else:
            ok |= 1 << lam
            neg |= (sign < 0) << lam
    return ok, neg


def _as_terms(look):
    """The term dict of the reference whose ``(key, sign)`` ``look``
    returns."""
    def ref(v):
        key, sign = look(v)
        return {key: sign} if sign else {}
    return ref


def _valued(fold, poly):
    """fn(v), the value of the ``_fold`` function ``fold``: a fresh term
    dict when ``poly``, else a rational."""
    if not poly:
        return lambda v: fold(v, None)

    def total(v):
        out = {}
        const = fold(v, out)
        return _add_into(out, {(): _rat(const)}) if const else out
    return total


def _added(folds):
    """fn(v, out) that runs each ``_fold`` function of ``folds`` in turn and
    returns the sum of their rational parts."""
    def add(v, out):
        const = 0
        for fold in folds:
            const += fold(v, out)
        return const
    return add


def _raiser(message, tok=None):
    """A compiled node whose evaluation raises ``GvcError(message)``,
    placed at ``tok`` (``_placed``)."""
    def fail(*_args):
        raise _placed(GvcError(message), tok)
    return fail


def _placed(exc, tok):
    """exc, carrying the token of the reference or ``sum`` that raised it,
    unless it carries one: ``parse_expr`` reports it there, a theory
    statement at its own start."""
    if tok is not None and not hasattr(exc, "tok"):
        exc.tok = tok
    return exc


class _Eval:
    """Compiles each statement once into closures, then evaluates them.

    ``statement`` and ``key`` walk a statement's tree once, into closures
    over one list of slots, one per bound index and per constant index,
    with table and symbol names and each ``sum``'s ranges resolved.  Beside
    the slots' initial values (``init``) they keep each slot's bound, so
    each compiled node also says whether it is clean, that is whether no
    evaluation of it can fail.  A statement interns each jet variable once,
    where the tree walk first meets it, and reads it from a map of its own
    after that.  ``+`` and ``sum`` fold references, and rationals times one
    reference, straight into one term dict.  One compiler of products,
    ``_product``, multiplies every factor: a product's, a lone node's as a
    product of one, and the values that ``_by_orbit`` takes or maps.  A
    product whose factors are clean stops at its first zero factor, so no
    zero costs the factors after it.  Any other evaluates every factor, and
    a ``sum`` whose range cannot be inferred raises where it is evaluated,
    so the first error is the one evaluating every factor meets, where it
    meets it.  The closures hold the registry, never the evaluator, so a
    statement leaves no reference cycle behind.

    Two routes spare work, both exact and both taken by clean nodes alone,
    so no error can move.  A factor of a product in a ``sum`` that
    computes a polynomial, and a rational beside one, is evaluated in the
    scope of the binders it reads (``_levels``): by distributivity the sum
    over the binders is the sum over the leading ones of that factor times
    the sum over the rest.
    And a value that the walk below proves sigma to map to e times
    another's is taken as that image (``gvc.symmetry`` states the proof):
    a ``sum`` with no direction bound around it, over its binders
    (``_by_orbit``), the keys of a component block, over their free
    indices, and the records of a family (``_TheoryBuilder``).

    The same walk proves the direction symmetries that the statement
    states: for each swap sigma of base directions lam and lam + 1, that
    sigma(N(v)) = e N(sigma v) at every node N, where v are the values of
    the indices bound around N and sigma v applies sigma to those that are
    directions.  Each slot says whether it is one (``directed``): a
    ``sum``'s binder or a key's free index when it has range ``dim`` and
    sits in a jet or a direction slot (the ``directions`` of a family or
    table), a record block's binder as its ghost's slot does.  The proof
    reindexes each ``sum`` and each binder: a direction runs over the
    directions, which sigma permutes.  An index in a direction slot, or in
    a jet, must be a direction or a constant that sigma fixes, and a
    direction may sit only there; then a symbol reference has e = 1, as
    sigma and canonicalizing a component commute, a table t the sign e_t
    with t[sigma x] = e_t t[x] for every x (``_table_signs``), a product the
    product of its factors' signs, a power its base's sign to its
    exponent, and ``-`` and ``sum`` their child's.  A sum of items needs
    one sign across them.  A node's signs are two bit masks over lam, ok
    where the walk has not refused lam at a miss and neg where the sign is
    -1, and ``statement`` and ``key`` leave the top one's in ``signs``,
    beside ``clean`` and the number ``sums`` of its sums.  The evaluators
    of one theory share ``table_signs``, each table's signs, and ``swaps``,
    the ``DirectionSwap`` of each lam."""

    def __init__(self, reg, table_signs=None, swaps=None):
        self.reg = reg
        self.unit = ((1 << (reg.dim - 1)) - 1, 0)
        self.refused = self.signs = (0, 0)
        self.table_signs = {} if table_signs is None else table_signs
        self.swaps = {} if swaps is None else swaps

    def resolve(self, binders, body):
        """(binders, directed) of a ``sum``: its binders with each missing
        range inferred from the slots its index sits in within ``body``,
        where no inner ``sum`` binds it again, and whether each is a
        direction: of range ``dim`` and in some jet or direction slot
        there."""
        found, directed = self._reads([var for var, _rng in binders], body)
        out = []
        for var, rng in binders:
            if rng is None:
                if not found[var]:
                    raise GvcError("cannot infer a range for index %r" % var)
                if len(found[var]) > 1:
                    raise GvcError("index %r is used with conflicting ranges "
                                   "%s" % (var, sorted(found[var])))
                rng, = found[var]
            out.append((var, rng))
        dim = self.reg.dim
        return out, [rng == dim and var in directed for var, rng in out]

    def _reads(self, names, body):
        """({index: the ranges of the slots it sits in}, the indices that
        sit in a jet or a direction slot) for the indices ``names`` within
        ``body``, where no inner ``sum`` binds them again, in one scan."""
        found, directed = {var: set() for var in names}, set()
        todo, dim = [(body, ())], self.reg.dim
        while todo:
            n, hidden = todo.pop()
            kind = n[0]
            if kind == "ref":
                sym = self.reg.symbols.get(n[1])
                tab = self.reg.tables.get(n[1])
                slots, moves = (sym.slots, sym.directions) \
                    if sym is not None else (tab.shape, tab.directions) \
                    if tab is not None else ((), ())
                # zip stops at the arity: evaluation reports an over-indexed
                # reference
                for atom, rng, moved in zip(n[2], slots, moves):
                    if atom[1] in found and atom[1] not in hidden:
                        found[atom[1]].add(rng)
                        if moved:
                            directed.add(atom[1])
                for atom in n[3]:
                    if atom[1] in found and atom[1] not in hidden:
                        found[atom[1]].add(dim)
                        directed.add(atom[1])
            elif kind == "add":
                todo.extend((item, hidden) for _s, item in n[1])
            elif kind == "mul":
                todo.extend((item, hidden) for item in n[1])
            elif kind in ("neg", "pow"):
                todo.append((n[1], hidden))
            elif kind == "sum":
                todo.append((n[2], (*hidden, *(var for var, _rng in n[1]))))
        return found, directed

    # -- compilation -----------------------------------------------------------

    def statement(self, node, binders, directed=()):
        """Compile ``node`` once; returns a function of the values of the
        ``(index, range)`` binders around it, in order, that returns its
        value as a polynomial.  ``directed`` says which binders are
        directions."""
        value, self.clean, self.signs = self._top(
            node, self._start(binders, directed))
        tail = self.init[len(binders):]
        return lambda values: value([*values, *tail])

    def key(self, sym, comps, jets, node, binders, directed=()):
        """Compile one key statement once: the key's arity, then its value
        with the ``(index, range)`` binders around it, ``directed`` saying
        which are directions, and the key's own free indices, each running
        over the first component slot it sits in, otherwise over the base
        directions, and a direction when of range ``dim`` and in a jet or a
        direction slot of the key or its value.  Returns a function of the
        binders' values that yields ``(component, jets, value)`` for each
        value of the free indices, the last varying fastest.  Components
        come out canonical and jets sorted and checked like a variable's;
        the value carries the symmetry sign, and keys the symmetry kills
        are skipped.  An unclean value is still evaluated for each killed
        key, after the live ones, so that no key hides an invalid reference
        and the first error is one a live key meets.  ``signs`` is then the
        value's, refused where the key's own indices break the rules of a
        symmetry: sigma maps the rows at the binders' values v to e times
        those at sigma v, the free indices being reindexed like a ``sum``'s
        binders.  With no binders, a clean value that holds a sum is taken
        at the first value of the free indices in each orbit of the swaps
        it proves, and at any other value as e sigma of its step's: the
        same keys, in the same order, with the same values."""
        if len(comps) != len(sym.slots):
            raise GvcError("%s expects %d component indices"
                           % (sym.name, len(sym.slots)))
        free, bound, dim = {}, dict(binders), self.reg.dim
        moves, moved = sym.directions + (True,) * len(jets), set()
        for atom, rng, move in zip(comps + jets, sym.slots + (dim,) * len(
                jets), moves):
            if atom[0] == "var" and atom[1] not in bound:
                free.setdefault(atom[1], rng)
                if move:
                    moved.add(atom[1])
        moved |= self._reads(list(free), node)[1]
        free_directed = [rng == dim and var in moved
                         for var, rng in free.items()]
        first = len(binders)
        scope = self._start(list(binders) + list(free.items()),
                            [*directed, *free_directed])
        indices = _getter([self._slot(a, scope) for a in comps + jets])
        value, clean, signs = self._top(node, scope)
        self.clean, self.signs = clean, _times(signs, self._moves(
            comps + jets, moves, scope))
        tail, n, seen = self.init[first:], len(comps), {}
        end = first + len(free)
        ranges = [range(rng) for rng in free.values()]
        canonicalize, checked_index = sym.canonicalize, self.reg.checked_index
        # a record block takes whole records by orbit (``build_records``)
        orbit = not binders and clean and self.sums and self.orbit(
            free_directed, self.signs)
        reg, done = self.reg, {}

        def expand(values):
            v = [*values, *tail]
            killed = []
            for v[first:end] in itertools.product(*ranges):
                at = indices(v)
                hit = seen.get(at)
                if hit is None:
                    hit = seen[at] = canonicalize(at[:n]) + (
                        checked_index(sym, at[n:]),)
                canon, sign, jet = hit
                if sign == 0:
                    killed.append(v[first:end])
                    continue
                if not orbit:
                    out = value(v)
                elif (step := orbit_step(at := tuple(v[:end]), *orbit)):
                    src, swap, e = step
                    out = done[at] = GradedPoly(
                        reg, swap.image(done[src].terms, e))
                else:
                    out = done[at] = value(v)
                yield canon, jet, out if sign == 1 else out.scale(sign)
            if not clean:
                for v[first:end] in killed:
                    value(v)
        return expand

    def _start(self, binders, directed):
        """Lay out one slot per ``(index, range)`` binder, in order, each a
        direction where ``directed`` says so; the constant indices and inner
        binders get theirs as compiling meets them.  Returns the scope,
        index -> slot."""
        self.init, self.bounds = [0] * len(binders), [r for _v, r in binders]
        self.directed = [*directed] if directed else [False] * len(binders)
        self.consts, self.interned, self.read = {}, {}, []
        self.sums = 0
        return {var: slot for slot, (var, _rng) in enumerate(binders)}

    def _top(self, node, scope):
        """``(fn, clean, signs)``: ``node`` as a function of its slot values
        that returns a polynomial, whether it is clean, and its signs."""
        value, poly, clean, signs = self._value(node, scope)
        reg = self.reg
        if poly:
            return (lambda v: GradedPoly(reg, value(v))), clean, signs
        return (lambda v: GradedPoly.constant(reg, value(v))), clean, signs

    def _new_slot(self, value, bound, directed=False):
        """A new slot, set to ``value``, whose values stay below ``bound``,
        a direction when ``directed``."""
        self.init.append(value)
        self.bounds.append(bound)
        self.directed.append(directed)
        return len(self.init) - 1

    def _slot(self, atom, scope):
        """The slot that holds an index atom's value, None when unbound."""
        if atom[0] == "var":
            return scope.get(atom[1])
        if atom[1] not in self.consts:
            self.consts[atom[1]] = self._new_slot(atom[1], atom[1] + 1)
        return self.consts[atom[1]]

    def _moves(self, atoms, moves, scope):
        """The signs of the index ``atoms`` that sit in slots that ``moves``
        says are directions (jets are): +1 for each swap under which they
        keep the rules of a symmetry (see the class), refused for the
        others."""
        dim = self.reg.dim
        if len(atoms) != len(moves):
            return self.refused
        ok = self.unit[0]
        for atom, moved in zip(atoms, moves):
            if atom[0] == "var":
                if self.directed[scope[atom[1]]] != moved:
                    return self.refused
            elif moved and atom[1] < dim:
                # sigma moves a direction c when lam is c or c - 1; a larger
                # constant raises where it is evaluated
                ok &= ~(3 << atom[1] >> 1)
        return ok, 0

    def _value(self, node, scope):
        """``(fn, poly, clean, signs)``: fn(v) is the value of ``node`` under
        the slot values ``v``, a term dict that no caller changes when
        ``poly``, else a rational; ``clean`` when no evaluation of it can
        fail; ``signs`` its sign under each swap (see the class)."""
        kind = node[0]
        if kind == "num":
            return (lambda v, c=node[1]: c), False, True, self.unit
        if kind == "ref":
            value, poly, clean, signs = self._ref(node, scope)
            return (_as_terms(value) if poly else value), poly, clean, signs
        if kind == "pow":
            value, poly, clean, signs = self._value(node[1], scope)
            n, reg = node[2], self.reg
            signs = signs if n & 1 else (signs[0], 0)
            if poly:
                return (lambda v: (GradedPoly(reg, value(v)) ** n).terms,
                        True, clean, signs)
            return (lambda v: value(v) ** n), False, clean, signs
        fold, poly, clean, signs = self._fold(node, scope, 1)
        return _valued(fold, poly), poly, clean, signs

    def _fold(self, node, scope, sign):
        """``(fn, poly, clean, signs)``: fn(v, out) adds ``sign`` times the
        value of ``node`` under the slot values ``v`` into the term dict
        ``out`` and returns ``sign`` times its rational part, which the
        caller adds last; ``poly``, ``clean`` and ``signs`` as ``_value``
        returns them."""
        kind = node[0]
        if kind == "neg":
            return self._fold(node[1], scope, -sign)
        if kind == "add":
            folds, polys, cleans, signs = zip(*(
                self._fold(item, scope, sign * s) for s, item in node[1]))
            return _added(folds), any(polys), all(cleans), _agree(signs)
        if kind == "sum":
            return self._sum(node[1], node[2], node[3], scope, sign)
        parts = [self._factor(item, scope)
                 for item in (node[1] if kind == "mul" else [node])]
        if kind == "mul" or parts[0][1] != 2:
            return self._product(parts, sign)
        value, _kind, clean, signs = parts[0]

        def ref(v, out):
            key, s = value(v)
            if s:
                # an int added to a coefficient under the rule keeps the rule
                c = out.get(key, 0) + s * sign
                if c:
                    out[key] = c
                else:
                    del out[key]
            return 0
        return ref, True, clean, signs

    def _sum(self, binders, body, tok, scope, sign):
        """``_fold`` of ``sum(binders){body}``: each binding is written into
        the binders' slots, the last binder varying fastest.  A ``sum``
        whose range cannot be inferred raises where it is evaluated, placed
        at its token ``tok``."""
        try:
            binders, directed = self.resolve(binders, body)
        except GvcError as exc:
            return _raiser(str(exc), tok), False, False, self.refused
        k, sums = len(binders), self.sums
        inner, first = dict(scope), len(self.init)
        for (var, rng), moved in zip(binders, directed):
            inner[var] = self._new_slot(0, rng, moved)
        ranges, cut, outer = [range(rng) for _v, rng in binders], [k], sign
        if body[0] != "mul":
            # the fold holds the sign
            fold, poly, clean, signs = self._fold(body, inner, sign)
            factors, sign = None, 1
        else:
            parts, marks = [], []
            for node in body[1]:
                marks.append(len(self.read))
                parts.append(self._factor(node, inner))
            levels = any(kind == 1 and ok for _v, kind, ok, _s in parts) \
                and self._levels(parts, marks, first, k)
            if levels:
                cut, sign = sorted({*levels, k}), 1
            factors = [p for p, n in zip(parts, levels) if n == k] if levels \
                else parts
            fold, poly, clean, signs = self._product(factors, sign)
        self.sums += 1
        # a clean polynomial body that holds a sum, whose orbits run over
        # the binders alone, as sigma fixes every index bound around them
        nested = clean and (len(cut) > 1 or poly and self.sums > sums + 1) \
            and not any(self.directed[slot] for slot in scope.values())
        # each factor in the scope of the binders it reads: the sum over
        # the binders below cut[i] of the factors at cut[i] times the sum
        # over those below the next cut
        for lo, hi in reversed(list(zip(cut, cut[1:]))):
            orbit = nested and not lo and self.orbit(directed[:hi], signs)
            loop = self._by_orbit(first, ranges[:hi], factors, sign, orbit) \
                if orbit else self._loop(first + lo, ranges[lo:hi], fold)
            factors = [p for p, n in zip(parts, levels) if n == lo] + [
                (_valued(loop, poly), int(poly), clean, signs)]
            sign = outer if lo == cut[0] else 1
            fold, poly, clean, signs = self._product(factors, sign)
        if cut[0]:
            orbit = nested and self.orbit(directed[:cut[0]], signs)
            fold = self._by_orbit(first, ranges[:cut[0]], factors or [
                (_valued(fold, poly), 1, clean, signs)], sign, orbit) \
                if orbit else self._loop(first, ranges[:cut[0]], fold)
        return fold, poly, clean, signs

    def _levels(self, parts, marks, first, k):
        """The scope of each factor ``parts`` of a product in a sum over k
        binders, a product that holds a clean factor that computes a
        polynomial (a sum, a power or a parenthesized expression), given
        their reads from ``marks`` on: the number of leading binders that
        hold the indices it reads, for such a factor or a clean rational,
        else k.  A reference costs one lookup wherever it is evaluated; a
        rational taken out ends the inner sum at its zero and scales it
        once.  A polynomial factor takes no smaller scope than one before
        it, so the factors keep their order, and the deepest take all k;
        None when every factor does."""
        out, top = [], 0
        for (_value, kind, clean, _signs), mark, end in zip(
                parts, marks, marks[1:] + [len(self.read)]):
            level = k
            if clean and kind != 2:
                level = max((slot - first + 1 for slot in self.read[mark:end]
                             if 0 <= slot - first < k), default=0)
            if kind:
                level = top = max(top, level)
            out.append(level)
        top = max(out)
        return [k if n == top else n for n in out] if min(out) < top else \
            None

    def _loop(self, first, ranges, fold):
        """fn(v, out) that folds ``fold`` for every value of the slots from
        ``first`` on over ``ranges``, the last varying fastest, and returns
        the sum of its rational parts."""
        end = first + len(ranges)

        def total(v, out):
            const = 0
            for v[first:end] in itertools.product(*ranges):
                const += fold(v, out)
            return const
        return total

    def _by_orbit(self, first, ranges, factors, sign, orbit):
        """``_loop`` of ``sign`` times the product of the ``_factor``s
        ``factors``, a clean polynomial, by ``orbit`` (moved, swaps): at the
        first value of each orbit (``gvc.symmetry.orbit_step``) each factor
        is evaluated, up to its first zero, and at any other each is e_F
        sigma of its value at the step's, e_F its sign.  One ``_product``
        multiplies the values of each, a reference's as a term dict, and
        adds nothing for a list cut at its zero."""
        end, (moved, swaps) = first + len(ranges), orbit
        kinds = [kind for _value, kind, _clean, _signs in factors]
        values = [_as_terms(value) if kind == 2 else value
                  for value, kind, _clean, _signs in factors]
        signs = [{lam: _sign(neg, lam) for lam, _swap, _e in swaps}
                 for _value, _kind, _clean, (_ok, neg) in factors]
        product = self._product([
            (itemgetter(i), min(kind, 1), True, self.unit)
            for i, kind in enumerate(kinds)], sign)[0]

        def by_orbit(v, out):
            done = {}
            for at in itertools.product(*ranges):
                step = orbit_step(at, moved, swaps)
                if step is None:
                    v[first:end], vals = at, []
                    for value in values:
                        val = value(v)
                        vals.append(val)
                        if not val:
                            break
                else:
                    src, swap, _e = step
                    vals = [swap.image(val, e[swap.lam]) if kind else
                            e[swap.lam] * val
                            for val, kind, e in zip(done[src], kinds, signs)]
                done[at] = vals
                product(vals, out)
            return 0
        return by_orbit

    def orbit(self, directed, signs):
        """(moved, swaps) for a loop over binders whose body has ``signs``:
        the positions of the binders that ``directed`` says are directions,
        and (lam, sigma, e) for each swap sigma that the signs prove and that
        keeps every parity; None when there is no such position or swap.  The
        callers ask only for a body that is clean, a polynomial and holds
        a ``sum``: one that holds none is a few products of references,
        which cost no more to evaluate than to map."""
        dim = self.reg.dim
        moved = [i for i, d in enumerate(directed) if d]
        if not moved:
            return None
        ok, neg = signs
        swaps = [(lam, swap, _sign(neg, lam)) for lam in range(dim - 1)
                 if ok >> lam & 1 and (swap := self._swap(lam)) is not None]
        return (moved, swaps) if swaps else None

    def _swap(self, lam):
        """The ``DirectionSwap`` of lam, one for the evaluators of a theory
        so that they share its images, or None when it changes a parity of
        a family declared by now (``gvc.symmetry.direction_swap``), which
        a family declared later can."""
        known = lam, len(self.reg.symbols)
        if known not in self.swaps:
            swap = direction_swap(self.reg, lam)
            self.swaps[known] = swap and self.swaps.setdefault(lam, swap)
        return self.swaps[known]

    def _factor(self, node, scope):
        """``(value, kind, clean, signs)`` of one factor of a product:
        kind 2 for a reference to a symbol, whose value is ``(key,
        sign)``, 1 for a term dict, 0 for a rational."""
        if node[0] == "ref":
            value, poly, clean, signs = self._ref(node, scope)
            return value, 2 if poly else 0, clean, signs
        value, poly, clean, signs = self._value(node, scope)
        return value, int(poly), clean, signs

    def _product(self, factors, sign):
        """``_fold`` of the product of the ``_factor``s ``factors``, in
        order; a product whose factors are all clean stops at its first
        zero factor.  Rationals times at most one reference make at most
        one term.  Any other product multiplies its last factor straight
        into ``out`` when that step multiplies two polynomials and ``sign``
        is positive."""
        parts, clean, signs = [], True, self.unit
        for value, kind, ok, node_signs in factors:
            parts.append((value, kind))
            clean, signs = clean and ok, _times(signs, node_signs)
        kinds = [kind for _value, kind in parts]
        if 1 not in kinds and kinds.count(2) < 2:
            poly = 2 in kinds

            def monomial(v, out):
                c = sign
                for value, kind in parts:
                    val = value(v)
                    if kind:
                        key, val = val
                    if clean and not val:
                        return 0
                    c *= val
                if not poly:
                    return c
                if c:
                    _add_into(out, {key: _rat(c)})
                return 0
            return monomial, poly, clean, signs
        if len(parts) == 1:
            (value, _kind), neg = parts[0], sign < 0

            def add(v, out):
                _add_into(out, value(v), neg)
                return 0
            return add, True, clean, signs
        steps, poly = [], False
        for value, kind in parts:
            steps.append((_as_terms(value) if kind == 2 else value,
                          _mul_terms if poly and kind else
                          _scale_terms if poly else
                          _scaled_by if kind else mul))
            poly = poly or kind > 0
        (first, _op), head, (last, op) = steps[0], steps[1:-1], steps[-1]
        fused, neg = op is _mul_terms and sign > 0, sign < 0

        def product(v, out):
            total = first(v)
            if clean and not total:
                return 0
            for value, step in head:
                val = value(v)
                if clean and not val:
                    return 0
                total = step(total, val)
            val = last(v)
            if clean and not val:
                return 0
            if fused:
                _mul_terms(total, val, out)
            else:
                _add_into(out, op(total, val), neg)
            return 0
        return product, True, clean, signs

    def _ref(self, node, scope):
        """``(look, True, clean, signs)`` for a reference to a symbol,
        look(v) the ``(key, sign)`` of its jet variable under the slot
        values ``v``, ``(None, 0)`` when its family kills it; ``(fn, False,
        clean, signs)`` for a table, fn(v) the entry.  Either raises the
        reference's error, as ``Registry.jet_var`` and ``ConstantTable``
        do; an unbound index raises when it is evaluated.  The reference is
        clean when a symbol, or a table with no jets, has as many indices
        as slots and at most the cap of jets, and every index stays inside
        the slot it sits in (``dim`` for jets)."""
        _ref, name, comps, jets, tok = node
        slots = [self._slot(atom, scope) for atom in comps + jets]
        if None in slots:
            unbound = (comps + jets)[slots.index(None)][1]
            return (_raiser("unbound index %r" % unbound, tok), False, False,
                    self.refused)
        indices, bounds, dim = _getter(slots), self.bounds, self.reg.dim
        self.read += slots

        def within(sizes):
            return len(slots) == len(sizes) and all(
                bounds[slot] <= size for slot, size in zip(slots, sizes))
        tab = self.reg.tables.get(name)
        if tab is not None:
            if jets:
                return _raiser("constant table %r cannot carry jet indices"
                               % name, tok), False, False, self.refused
            signs = self.table_signs.get(name)
            if signs is None:
                signs = self.table_signs[name] = _table_signs(tab, dim)
            signs = _times(self._moves(comps, tab.directions, scope), signs)
            if within(tab.shape):
                entries = tab.entries
                return ((lambda v: entries.get(indices(v), 0)), False, True,
                        signs)

            def entry(v):
                try:
                    return tab[indices(v)]
                except ValueError as exc:
                    raise _placed(exc, tok)
            return entry, False, False, signs
        sym = self.reg.symbols.get(name)
        if sym is None:
            return (_raiser("unknown symbol %r" % name, tok), False, False,
                    self.refused)
        sizes = sym.slots + (dim,) * len(jets)
        clean = len(jets) <= self.reg.jet_order and within(sizes)
        # one map per symbol and arity for the whole statement
        jet_var, n = self.reg.jet_var, len(comps)
        seen = self.interned.setdefault((name, n), {})

        def look(v):
            at = indices(v)
            hit = seen.get(at)
            if hit is None:
                try:
                    var, sign = jet_var(sym, at[:n], at[n:])
                except (GvcError, ValueError) as exc:
                    raise _placed(exc, tok)
                hit = seen[at] = ((var.entry,), sign) if sign else (None, 0)
            return hit
        return look, True, clean, self._moves(
            comps + jets, sym.directions + (True,) * len(jets), scope)


@contextmanager
def _at(tok):
    """Re-raise a ``GvcError`` or ``ValueError`` of the body as a
    ``ParseError`` at ``tok``."""
    try:
        yield
    except (GvcError, ValueError) as exc:
        raise ParseError(str(exc), tok[2], tok[3])
