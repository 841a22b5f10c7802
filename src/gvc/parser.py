"""Theory-spec parsing: declarations, expressions, and record blocks.

The file format is line-oriented and semicolon-terminated.  Summary of the
grammar (the full EBNF lives in the README):

    theory NAME ;
    dim INT ;  jet_order INT ;
    table NAME[d1,...] { [i,...] = RAT ; ... }
    field NAME[d1,...] (sym|antisym)? (even|odd|parity TBL@SLOT) ;
    L = EXPR ;
    ni GHOST[i:RANGE,...] { ( FIELD[idx...] ; jets... ) = EXPR ; ... }
    stage K GHOST[...] { ( PREVGHOST[idx...] ; jets... ) = EXPR ; ...
                         h { EXPR } ; }
    gauge { ( TARGET[idx...] ) = EXPR ; ... }
    gamma { ( GHOST[idx...] ) = EXPR ; ... }
    alpha K { ( TARGET[idx...] ) = EXPR ; ... }

Expressions: rationals, references ``name[components;jetindices]`` (either
half may be empty; a bare name means no indices at all), ``+ - * ^``,
parentheses, and explicit contractions ``sum(i,j){ ... }`` whose ranges are
inferred from where the indices sit (or written ``sum(i:4)``).  Ghosts are
not declared directly: each ``ni``/``stage`` block introduces its ghost
family, with Grassmann parity read off the record itself.

Row and component keys are one statement form, ``( NAME[idx...] ; jets )``:
a key's jets follow its closing bracket.  Every index runs over
``itertools.product`` of its range, the last index varying fastest: ``sum``
bodies, the records of a ghost family, and the free indices of a key, whose
canonical component, sign and value come from ``_Eval.key``.
Rows add duplicate keys within a statement; component blocks reject
conflicting ones.  ``+`` and ``sum`` accumulate in place.

Each statement is compiled once (``_Eval``) and its closures evaluated for
every record and key.  Errors come from evaluation itself.  ``_Eval.check``
walks each expression once, without evaluating it, given the range of
every index bound around it (ghost binders, the key's free indices, each
``sum``'s explicit or inferred range): it resolves the ``sum`` ranges and
decides whether the expression is clean, that is whether no reference in
it can fail under any assignment.  A clean expression ends a product at
its first zero factor, so no zero costs the factors after it.  Any other
is evaluated in full, every factor of every product, so the first error it
raises is the one that evaluating every factor meets, where it meets it.
No index range is empty, the jets of a variable an antisymmetric family
kills are still checked, and so is the unclean value of a killed key, so
no zero hides an invalid reference.

Blocks that mention ghosts (gauge, gamma, alpha) must come after all record
blocks.  The input rules of ``gvc.noether`` are checked at the statement
or block that breaks them, and the error comes there.
Everything is exact rational arithmetic.  A number is born under the
coefficient rule of ``algebra._rat``, an int when it is integral, and a
rational that evaluation makes whole, such as ``2 * 1/2``, enters a
polynomial through ``GradedPoly.constant`` or ``scale``, which apply the
rule.  Parsing is deterministic.
"""
from __future__ import annotations

import itertools
import string
from fractions import Fraction
from operator import itemgetter, mul
from types import MappingProxyType

from .algebra import (KIND_ANTIFIELD, KIND_FIELD, KIND_GHOST, GvcError,
                      GradedPoly, Registry, _add_into, _mul_terms, _rat,
                      _scale_terms)
from .noether import (Frozen, NoetherRecord, delta_parity, require_gamma,
                      require_lagrangian, require_record, require_theory)


class ParseError(GvcError):
    """Lexical/syntax/validation error with source position."""

    def __init__(self, message, line, col):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.line = line
        self.col = col


_PUNCT = set(";,(){}[]=+-*^/:@")
_NAME_START = set(string.ascii_letters + "_")
_NAME_CONT = _NAME_START | set(string.digits)
# Parentheses, unary minus and sum bodies may nest at most this deep.  The
# parser and the evaluator recurse on every level, so deeper input would
# exhaust the interpreter stack instead of failing with a position.
MAX_NESTING = 100


def _tokenize(text):
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in _PUNCT:
            toks.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch in string.digits:
            j = i
            while j < n and text[j] in string.digits:
                j += 1
            toks.append(("INT", int(text[i:j]), line, col))
            col += j - i
            i = j
            continue
        if ch in _NAME_START:
            j = i
            while j < n and text[j] in _NAME_CONT:
                j += 1
            toks.append(("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    toks.append(("EOF", None, line, col))
    return toks


# ---------------------------------------------------------------------------
# Expression AST: tuples tagged by kind.
#   ("num", int or Fraction)         ("ref", name, comps, jets)
#   ("neg", node)                    ("add", [(sign, node), ...])
#   ("mul", [node, ...])             ("pow", node, int)
#   ("sum", [(var, range-or-None)], node)
# comps/jets entries: ("int", v) or ("var", name)


class TheorySpec(Frozen):
    """A theory under the input rules: registry, L, records, candidates.
    It is a value: its fields are read-only, and an edited theory is a new
    one (``cli._rebuild``).  Building one checks every input rule
    (``require_theory``); only the parser, which checks each rule at the
    statement that could break it, skips that second pass."""

    __slots__ = ("name", "registry", "lagrangian", "records", "stages",
                 "gauge_candidate", "gamma", "alphas", "derived")

    def __init__(self, *fields, **named):
        self._fill(*fields, **named)
        require_theory(self)

    @classmethod
    def _parsed(cls, *fields):
        theory = cls.__new__(cls)
        theory._fill(*fields)
        return theory

    def _fill(self, name, registry, lagrangian, records, stages,
              gauge_candidate=None, gamma=None, alphas=None):
        self._init(
            name=name, registry=registry, lagrangian=lagrangian,
            records=tuple(records),
            stages=MappingProxyType({k: tuple(v)
                                     for k, v in (stages or {}).items()}),
            gauge_candidate=MappingProxyType(dict(gauge_candidate or {})),
            gamma=MappingProxyType(dict(gamma or {})),
            alphas=MappingProxyType({k: MappingProxyType(dict(v))
                                     for k, v in (alphas or {}).items()}),
            # objects derived once per theory, by gvc.noether.stored
            derived={})

    def stage_numbers(self):
        return sorted(self.stages)

    def stage_records(self, k):
        """The stage-k records; stage 0 holds the Noether records."""
        return self.records if k == 0 else self.stages.get(k, ())

    def alpha(self, k):
        return self.alphas.get(k, {})


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0

    # -- token plumbing ------------------------------------------------------

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError("expected %r, found %r" % (kind, tok[1] if tok[0] != "EOF" else "end of input"),
                             tok[2], tok[3])
        return tok

    def at(self, kind, value=None):
        tok = self.peek()
        return tok[0] == kind and (value is None or tok[1] == value)

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok[2], tok[3])

    def nested(self, tok, parse):
        """Run ``parse`` one nesting level below ``tok``."""
        if self.depth >= MAX_NESTING:
            self.error("expression nested deeper than %d levels" % MAX_NESTING,
                       tok)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    # -- expression grammar ----------------------------------------------------

    def parse_expression(self):
        items = []
        sign = 1
        if self.at("+") or self.at("-"):
            sign = -1 if self.next()[0] == "-" else 1
        items.append((sign, self.parse_term()))
        while self.at("+") or self.at("-"):
            sign = -1 if self.next()[0] == "-" else 1
            items.append((sign, self.parse_term()))
        if len(items) == 1 and items[0][0] == 1:
            return items[0][1]
        return ("add", items)

    def parse_term(self):
        factors = [self.parse_power()]
        while self.at("*"):
            self.next()
            factors.append(self.parse_power())
        if len(factors) == 1:
            return factors[0]
        return ("mul", factors)

    def parse_power(self):
        base = self.parse_atom()
        if self.at("^"):
            self.next()
            tok = self.expect("INT")
            return ("pow", base, tok[1])
        return base

    def parse_atom(self):
        tok = self.peek()
        if tok[0] == "-":
            self.next()
            return ("neg", self.nested(tok, self.parse_power))
        if tok[0] == "(":
            self.next()
            node = self.nested(tok, self.parse_expression)
            self.expect(")")
            return node
        if tok[0] == "INT":
            return ("num", self.rational())
        if tok[0] == "NAME" and tok[1] == "sum":
            self.next()
            self.expect("(")
            binders = self.binders(ranged=False)
            self.expect(")")
            self.expect("{")
            body = self.nested(tok, self.parse_expression)
            self.expect("}")
            return ("sum", binders, body)
        if tok[0] == "NAME":
            self.next()
            comps, jets = self.parse_index_group()
            return ("ref", tok[1], comps, jets)
        self.error("expected an expression")

    def items(self, read, close=()):
        """``read {"," read}``: what each ``read()`` returns, in a list, or
        an empty list when the next token is one of ``close``."""
        if self.peek()[0] in close:
            return []
        out = [read()]
        while self.at(","):
            self.next()
            out.append(read())
        return out

    def size(self):
        """A range, slot size or table extent: an INT of at least 1."""
        tok = self.expect("INT")
        if tok[1] < 1:
            self.error("a range must be at least 1, got %d" % tok[1], tok)
        return tok[1]

    def index(self):
        """``INT | NAME`` as ``("int", value)`` or ``("var", name)``."""
        tok = self.next()
        if tok[0] == "INT":
            return ("int", tok[1])
        if tok[0] == "NAME":
            return ("var", tok[1])
        raise ParseError("expected an index", tok[2], tok[3])

    def binders(self, ranged, close=()):
        """``binder {"," binder}``, each ``NAME [":" size]`` with the range
        required when ``ranged``, as ``(index, range-or-None)`` pairs; one
        index binds once."""
        seen = set()

        def binder():
            tok = self.expect("NAME")
            rng = None
            if ranged or self.at(":"):
                self.expect(":")
                rng = self.size()
            if tok[1] in seen:
                self.error("index %r is bound twice" % tok[1], tok)
            seen.add(tok[1])
            return tok[1], rng
        return self.items(binder, close)

    def rational(self):
        """``INT [/ INT]`` as an int when it is integral, else a Fraction;
        a zero denominator is an error."""
        num = self.expect("INT")[1]
        if self.at("/"):
            self.next()
            den = self.expect("INT")
            if den[1] == 0:
                self.error("division by zero", den)
            num = _rat(Fraction(num, den[1]))
        return num

    def parse_index_group(self):
        """Optional [comps;jets] group; a bare name has no indices at all."""
        if not self.at("["):
            return [], []
        self.next()
        comps = self.items(self.index, close=(";", "]"))
        jets = []
        if self.at(";"):
            self.next()
            jets = self.items(self.index, close=("]",))
        self.expect("]")
        return comps, jets


# ---------------------------------------------------------------------------
# Evaluation against a registry


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


def _as_terms(look):
    """The term dict of the reference whose ``(key, sign)`` ``look``
    returns."""
    def ref(v):
        key, sign = look(v)
        return {key: sign} if sign else {}
    return ref


def _raiser(message):
    """A compiled node whose evaluation raises ``GvcError(message)``."""
    def fail(*_args):
        raise GvcError(message)
    return fail


class _Eval:
    """Compiles each statement once into closures, then evaluates them.

    ``check`` walks a statement's tree once, without evaluating it, given
    the range of every index bound around it: it resolves each ``sum``'s
    ranges where they can be inferred and decides whether the statement is
    clean, that is whether no reference in it can fail under any
    assignment.  ``statement`` and ``key`` then compile the checked tree
    into closures over one list of slots, one per bound index and per
    constant index, with table and symbol names resolved.  A statement
    interns each jet variable once, where the tree walk first met it, and
    reads it from a map of its own after that.  ``+`` and ``sum`` fold
    references, and rationals times one reference, straight into one term
    dict.  A clean statement ends a product at its first zero factor, so
    no zero costs the factors after it.  Any other evaluates every factor,
    and a ``sum`` whose range cannot be inferred raises where it is
    evaluated, so the first error is the one evaluating every factor
    meets, where it meets it.  The closures hold the registry, never the
    evaluator, so a statement leaves no reference cycle behind."""

    def __init__(self, reg):
        self.reg = reg

    def infer_range(self, var, node):
        """Scan for usages of ``var`` and return the index range it must have."""
        found = set()
        todo = [node]
        while todo:
            n = todo.pop()
            kind = n[0]
            if kind == "ref":
                sym = self.reg.symbols.get(n[1])
                tab = self.reg.tables.get(n[1])
                slots = sym.slots if sym is not None else \
                    tab.shape if tab is not None else ()
                # zip stops at the arity: evaluation reports an over-indexed
                # reference
                for atom, rng in zip(n[2], slots):
                    if atom == ("var", var):
                        found.add(rng)
                if ("var", var) in n[3]:
                    found.add(self.reg.dim)
            elif kind == "add":
                todo.extend(item for _s, item in n[1])
            elif kind == "mul":
                todo.extend(n[1])
            elif kind in ("neg", "pow"):
                todo.append(n[1])
            elif kind == "sum":
                if not any(b[0] == var for b in n[1]):
                    todo.append(n[2])
        if len(found) == 1:
            return found.pop()
        if not found:
            raise GvcError("cannot infer a range for index %r" % var)
        raise GvcError("index %r is used with conflicting ranges %s"
                       % (var, sorted(found)))

    def resolve(self, binders, body):
        """A ``sum``'s binders with each missing range inferred from its
        ``body``."""
        return [(v, r if r is not None else self.infer_range(v, body))
                for v, r in binders]

    def check(self, node, ranges):
        """``(node, clean)``: ``node`` with each ``sum``'s ranges resolved
        where they can be inferred, and whether it is clean, given the
        range of every index bound around it (``ranges``, index -> range).
        A ``sum`` whose range cannot be inferred is unclean."""
        kind = node[0]
        if kind == "num":
            return node, True
        if kind == "ref":
            return node, self.clean_ref(node, ranges)
        if kind in ("neg", "pow"):
            inner, clean = self.check(node[1], ranges)
            return (kind, inner) + node[2:], clean
        if kind == "add":
            signs, items = zip(*node[1])
            nodes, cleans = zip(*(self.check(item, ranges) for item in items))
            return ("add", list(zip(signs, nodes))), all(cleans)
        if kind == "mul":
            nodes, cleans = zip(*(self.check(item, ranges) for item in node[1]))
            return ("mul", nodes), all(cleans)
        try:
            binders = self.resolve(node[1], node[2])
        except GvcError:
            return node, False
        body, clean = self.check(node[2], {**ranges, **dict(binders)})
        return ("sum", binders, body), clean

    def clean_ref(self, node, ranges):
        """Whether the reference ``node`` evaluates without error under
        every assignment of ``ranges``: a symbol, or a table with no jets,
        with as many indices as slots and at most the cap of jets, and every
        index bound and inside each slot it sits in (``dim`` for jets)."""
        _ref, name, comps, jets = node
        tab = self.reg.tables.get(name)
        sym = self.reg.symbols.get(name)
        if tab is not None and not jets:
            slots = tab.shape
        elif sym is not None and len(jets) <= self.reg.jet_order:
            slots = sym.slots
        else:
            return False
        if len(comps) != len(slots):
            return False
        for atom, size in zip(comps + jets, slots + (self.reg.dim,) * len(jets)):
            rng = atom[1] + 1 if atom[0] == "int" else ranges.get(atom[1])
            if rng is None or rng > size:
                return False
        return True

    # -- compilation -----------------------------------------------------------

    def statement(self, node, binders):
        """Compile ``node`` once; returns a function of the values of the
        ``(index, range)`` binders around it, in order, that returns its
        value as a polynomial."""
        scope = self._start(node, binders)
        value = self._top(scope)
        tail = self.init[len(binders):]
        return lambda values: value([*values, *tail])

    def key(self, sym, comps, jets, node, binders):
        """Compile one key statement once: the key's arity, then its value
        with the ``(index, range)`` binders around it and the key's own free
        indices, each running over the first component slot it sits in,
        otherwise over the base directions.  Returns a function of the
        binders' values that yields ``(component, jets, value)`` for each
        value of the free indices, the last varying fastest.  Components
        come out canonical and jets sorted and checked like a variable's;
        the value carries the symmetry sign, and keys the symmetry kills
        are skipped.  An unclean value is still evaluated for each killed
        key, after the live ones, so that no key hides an invalid reference
        and the first error is one a live key meets."""
        if len(comps) != len(sym.slots):
            raise GvcError("%s expects %d component indices"
                           % (sym.name, len(sym.slots)))
        free, bound = {}, dict(binders)
        for atom, rng in zip(comps + jets,
                             sym.slots + (self.reg.dim,) * len(jets)):
            if atom[0] == "var" and atom[1] not in bound:
                free.setdefault(atom[1], rng)
        first = len(binders)
        scope = self._start(node, list(binders) + list(free.items()))
        indices = _getter([self._slot(a, scope) for a in comps + jets])
        value, clean = self._top(scope), self.clean
        tail, n, seen = self.init[first:], len(comps), {}
        end = first + len(free)
        ranges = [range(rng) for rng in free.values()]
        canonicalize, checked_index = sym.canonicalize, self.reg.checked_index

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
                out = value(v)
                yield canon, jet, out if sign == 1 else out.scale(sign)
            if not clean:
                for v[first:end] in killed:
                    value(v)
        return expand

    def _start(self, node, binders):
        """Check ``node`` under ``binders`` and lay out its slots: one per
        binder, in order, then one per constant index and per inner binder,
        as compiling meets them.  Returns the scope, index -> slot."""
        self.node, self.clean = self.check(node, dict(binders))
        self.init, self.consts, self.interned = [0] * len(binders), {}, {}
        return {var: slot for slot, (var, _rng) in enumerate(binders)}

    def _top(self, scope):
        """The checked statement as a function of its slot values that
        returns a polynomial."""
        value, poly = self._value(self.node, scope)
        reg = self.reg
        if poly:
            return lambda v: GradedPoly(reg, value(v))
        return lambda v: GradedPoly.constant(reg, value(v))

    def _slot(self, atom, scope):
        """The slot that holds an index atom's value, None when unbound."""
        if atom[0] == "var":
            return scope.get(atom[1])
        if atom[1] not in self.consts:
            self.consts[atom[1]] = len(self.init)
            self.init.append(atom[1])
        return self.consts[atom[1]]

    def _value(self, node, scope):
        """``(fn, poly)``: fn(v) is the value of ``node`` under the slot
        values ``v``, a term dict that no caller changes when ``poly``, else
        a rational."""
        kind = node[0]
        if kind == "num":
            return (lambda v, c=node[1]: c), False
        if kind == "ref":
            value, poly = self._ref(node, scope)
            return (_as_terms(value) if poly else value), poly
        if kind == "pow":
            value, poly = self._value(node[1], scope)
            n, reg = node[2], self.reg
            if poly:
                return (lambda v: (GradedPoly(reg, value(v)) ** n).terms), True
            return (lambda v: value(v) ** n), False
        fold, poly = self._fold(node, scope, 1)
        if not poly:
            return (lambda v: fold(v, None)), False

        def total(v):
            out = {}
            const = fold(v, out)
            return _add_into(out, {(): _rat(const)}) if const else out
        return total, True

    def _fold(self, node, scope, sign):
        """``(fn, poly)``: fn(v, out) adds ``sign`` times the value of
        ``node`` under the slot values ``v`` into the term dict ``out`` and
        returns ``sign`` times its rational part, which the caller adds
        last; ``poly`` as ``_value`` returns it."""
        kind = node[0]
        if kind == "neg":
            return self._fold(node[1], scope, -sign)
        if kind == "add":
            parts = [self._fold(item, scope, sign * s) for s, item in node[1]]
            folds = [fold for fold, _poly in parts]

            def add(v, out):
                const = 0
                for fold in folds:
                    const += fold(v, out)
                return const
            return add, any(poly for _fold, poly in parts)
        if kind == "sum":
            return self._sum(node[1], node[2], scope, sign)
        if kind == "mul":
            return self._mul(node[1], scope, sign)
        if kind == "ref":
            value, poly = self._ref(node, scope)
            if poly:
                def ref(v, out):
                    key, s = value(v)
                    if s:
                        # an int added to a coefficient under the rule keeps
                        # the rule
                        c = out.get(key, 0) + s * sign
                        if c:
                            out[key] = c
                        else:
                            del out[key]
                    return 0
                return ref, True
        else:
            value, poly = self._value(node, scope)
        if poly:
            neg = sign < 0

            def add(v, out):
                _add_into(out, value(v), neg)
                return 0
            return add, True
        if sign > 0:
            return (lambda v, out: value(v)), False
        return (lambda v, out: -value(v)), False

    def _sum(self, binders, body, scope, sign):
        """``_fold`` of ``sum(binders){body}``: each binding is written into
        the binders' slots, the last binder varying fastest."""
        if any(rng is None for _var, rng in binders):
            try:
                self.resolve(binders, body)
            except GvcError as exc:
                return _raiser(str(exc)), False
        inner, first = dict(scope), len(self.init)
        for var, _rng in binders:
            inner[var] = len(self.init)
            self.init.append(0)
        end, ranges = len(self.init), [range(rng) for _v, rng in binders]
        fold, poly = self._fold(body, inner, sign)

        def total(v, out):
            const = 0
            for v[first:end] in itertools.product(*ranges):
                const += fold(v, out)
            return const
        return total, poly

    def _mul(self, nodes, scope, sign):
        """``_fold`` of the product of ``nodes``, in order; a clean statement
        stops at its first zero factor.  Rationals times at most one
        reference make at most one term.  Any other product multiplies its
        last factor straight into ``out`` when that step multiplies two
        polynomials and ``sign`` is positive."""
        clean, parts = self.clean, []
        for node in nodes:
            if node[0] == "ref":
                value, poly = self._ref(node, scope)
                parts.append((value, 2 if poly else 0))
            else:
                value, poly = self._value(node, scope)
                parts.append((value, 1 if poly else 0))
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
            return monomial, poly
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
        return product, True

    def _ref(self, node, scope):
        """``(look, True)`` for a reference to a symbol, look(v) the
        ``(key, sign)`` of its jet variable under the slot values ``v``,
        ``(None, 0)`` when its family kills it; ``(fn, False)`` for a table,
        fn(v) the entry.  Either raises the reference's error, as
        ``Registry.jet_var`` and ``ConstantTable`` do; an unbound index
        raises when it is evaluated."""
        _ref, name, comps, jets = node
        slots = [self._slot(atom, scope) for atom in comps + jets]
        if None in slots:
            return _raiser("unbound index %r"
                           % (comps + jets)[slots.index(None)][1]), False
        indices = _getter(slots)
        tab = self.reg.tables.get(name)
        if tab is not None:
            if jets:
                return _raiser("constant table %r cannot carry jet indices"
                               % name), False
            if self.clean:
                entries = tab.entries
                return (lambda v: entries.get(indices(v), 0)), False
            return (lambda v: tab[indices(v)]), False
        sym = self.reg.symbols.get(name)
        if sym is None:
            return _raiser("unknown symbol %r" % name), False
        # one map per symbol and arity for the whole statement
        jet_var, n = self.reg.jet_var, len(comps)
        seen = self.interned.setdefault((name, n), {})

        def look(v):
            at = indices(v)
            hit = seen.get(at)
            if hit is None:
                var, sign = jet_var(sym, at[:n], at[n:])
                hit = seen[at] = ((var.entry,), sign) if sign else (None, 0)
            return hit
        return look, True


class _TheoryBuilder:
    """Drives statement parsing; owns the registry life cycle."""

    def __init__(self, text, jet_order=None, default_jet_order=None):
        self.p = _Parser(text)
        self.jet_order = jet_order
        self.default_jet_order = default_jet_order
        self.reg = None
        self.name = "theory"
        self.lagrangian = None
        self.stages = {}  # stage -> records; stage 0 holds the ni blocks
        self.gauge_candidate = None
        self.gamma = {}
        self.alphas = {}
        self.frozen = False

    def run(self):
        while not self.p.at("EOF"):
            self.statement()
        if self.reg is None:
            self.p.error("theory must declare a dimension")
        if self.lagrangian is None:
            self.p.error("theory must declare a Lagrangian")
        if not self.frozen:
            self.freeze()
        return TheorySpec._parsed(self.name, self.reg, self.lagrangian,
                                  self.stages.pop(0, []), self.stages,
                                  self.gauge_candidate, self.gamma, self.alphas)

    def freeze(self):
        self.reg.freeze()
        self.frozen = True

    def need_reg(self, tok):
        if self.reg is None:
            raise ParseError("dim must be declared first", tok[2], tok[3])

    def statement(self):
        tok = self.p.expect("NAME")
        word = tok[1]
        if word == "theory":
            self.name = self.p.expect("NAME")[1]
            self.p.expect(";")
        elif word == "dim":
            if self.reg is not None:
                raise ParseError("dim declared twice", tok[2], tok[3])
            dim = self.p.expect("INT")[1]
            self.p.expect(";")
            cap = self.jet_order
            if cap is None:
                cap = self.default_jet_order
            try:
                self.reg = Registry(dim=dim, jet_order=cap)
            except (GvcError, ValueError) as exc:
                raise ParseError(str(exc), tok[2], tok[3])
        elif word == "jet_order":
            self.need_reg(tok)
            cap = self.p.expect("INT")[1]
            self.p.expect(";")
            try:
                cap = Registry.checked_jet_order(cap)
            except ValueError as exc:
                raise ParseError(str(exc), tok[2], tok[3])
            if self.jet_order is None:  # an explicit override wins over the file
                self.reg.jet_order = cap
        elif word == "table":
            self.table_stmt(tok)
        elif word == "field":
            self.field_stmt(tok)
        elif word == "L":
            self.lagrangian_stmt(tok)
        elif word == "ni":
            self.record_block(tok, stage=0)
        elif word == "stage":
            ktok = self.p.expect("INT")
            if ktok[1] < 1:
                raise ParseError("stage blocks start at 1; stage-0 records "
                                 "are `ni` blocks", ktok[2], ktok[3])
            self.record_block(tok, stage=ktok[1])
        elif word == "gauge":
            self.gauge_candidate = self.component_block(tok, self.gauge_candidate)
        elif word == "gamma":
            self.gamma = self.component_block(tok, self.gamma, require_gamma)
        elif word == "alpha":
            ktok = self.p.expect("INT")
            k = ktok[1]
            if k < 1 or k not in self.stages:  # nothing would read it
                raise ParseError("alpha blocks start at stage 1" if k < 1 else
                                 "alpha %d: no stage %d block declared" % (k, k),
                                 ktok[2], ktok[3])
            self.alphas[k] = self.component_block(tok, self.alphas.get(k))
        else:
            raise ParseError("unknown statement %r" % word, tok[2], tok[3])

    # -- declarations ---------------------------------------------------------

    def table_stmt(self, tok):
        self.need_reg(tok)
        name = self.p.expect("NAME")[1]
        self.p.expect("[")
        shape = self.p.items(self.p.size)
        self.p.expect("]")
        self.p.expect("{")
        entries = {}
        while not self.p.at("}"):
            self.p.expect("[")
            idx = self.p.items(lambda: self.p.expect("INT")[1])
            self.p.expect("]")
            self.p.expect("=")
            sign = 1
            while self.p.at("-") or self.p.at("+"):
                if self.p.next()[0] == "-":
                    sign = -sign
            entries[tuple(idx)] = sign * self.p.rational()
            self.p.expect(";")
        self.p.next()
        try:
            self.reg.declare_table(name, tuple(shape), entries)
        except (GvcError, ValueError) as exc:
            raise ParseError(str(exc), tok[2], tok[3])

    def field_stmt(self, tok):
        self.need_reg(tok)
        if self.frozen:
            raise ParseError("field declared after gauge/gamma/alpha", tok[2], tok[3])
        name = self.p.expect("NAME")[1]
        slots = []
        if self.p.at("["):
            self.p.next()
            slots = self.p.items(self.p.size)
            self.p.expect("]")
        symmetry = None
        if self.p.at("NAME", "sym") or self.p.at("NAME", "antisym"):
            symmetry = self.p.next()[1]
        ptok = self.p.expect("NAME")
        if ptok[1] == "even":
            parities = 0
        elif ptok[1] == "odd":
            parities = 1
        elif ptok[1] == "parity":
            tname = self.p.expect("NAME")[1]
            self.p.expect("@")
            slot = self.p.expect("INT")[1]
            tab = self.reg.tables.get(tname)
            if tab is None:
                raise ParseError("unknown parity table %r" % tname, ptok[2], ptok[3])
            if slot >= len(slots):
                raise ParseError("parity slot %d out of range" % slot, ptok[2], ptok[3])
            vec = []
            for i in range(slots[slot]):
                try:
                    v = tab[(i,)]
                except ValueError as exc:
                    raise ParseError(str(exc), ptok[2], ptok[3])
                if v.denominator != 1 or v not in (0, 1):
                    raise ParseError("parity table entries must be 0 or 1",
                                     ptok[2], ptok[3])
                vec.append(int(v))
            parities = (slot, tuple(vec))
        else:
            raise ParseError("expected even, odd or parity", ptok[2], ptok[3])
        self.p.expect(";")
        try:
            self.reg.declare_field(name, tuple(slots), parities, symmetry)
        except (GvcError, ValueError) as exc:
            raise ParseError(str(exc), tok[2], tok[3])

    def lagrangian_stmt(self, tok):
        self.need_reg(tok)
        if self.lagrangian is not None:
            raise ParseError("L declared twice", tok[2], tok[3])
        self.p.expect("=")
        node = self.p.parse_expression()
        self.p.expect(";")
        try:
            self.lagrangian = _Eval(self.reg).statement(node, [])(())
            require_lagrangian(self.lagrangian)
        except (GvcError, ValueError) as exc:
            raise ParseError(str(exc), tok[2], tok[3])

    # -- record blocks ----------------------------------------------------------

    def record_block(self, tok, stage):
        self.need_reg(tok)
        if self.frozen:
            raise ParseError("records must come before gauge/gamma/alpha blocks",
                             tok[2], tok[3])
        if self.lagrangian is None:
            raise ParseError("records must come after the Lagrangian", tok[2], tok[3])
        ghost = self.p.expect("NAME")[1]
        self.p.expect("[")  # [i:RANGE, ...], an empty group for scalars
        binders = self.p.binders(ranged=True, close=("]",))
        self.p.expect("]")
        self.p.expect("{")
        rows_stmts = []
        h_node = None
        while not self.p.at("}"):
            if self.p.at("NAME", "h"):
                htok = self.p.next()
                if stage == 0:
                    raise ParseError("h certificates belong to stage blocks",
                                     htok[2], htok[3])
                if h_node is not None:
                    raise ParseError("h declared twice", htok[2], htok[3])
                self.p.expect("{")
                h_node = self.p.parse_expression()
                self.p.expect("}")
                self.p.expect(";")
                continue
            rows_stmts.append(self.row_stmt())
        self.p.next()
        self.build_records(tok, stage, ghost, binders, rows_stmts, h_node)

    def row_stmt(self):
        """``( NAME[idx,...] ; jets ) = EXPR ;``, the key statement of
        record and component blocks; a key's jets follow its bracket."""
        tok = self.p.expect("(")
        name = self.p.expect("NAME")[1]
        comps, jets = [], []
        if self.p.at("["):
            self.p.next()
            comps = self.p.items(self.p.index, close=(";", "]"))
            self.p.expect("]")
        if self.p.at(";"):
            self.p.next()
            jets = self.p.items(self.p.index, close=(")",))
        self.p.expect(")")
        self.p.expect("=")
        node = self.p.parse_expression()
        self.p.expect(";")
        return (tok, name, comps, jets, node)

    def _row_statement(self, stage, binders, stmt, evaluator):
        """Resolve and compile one row statement for every record of a
        block; ``binders`` are the block's ghost indices and ranges."""
        tok, name, comps, jets, node = stmt
        sym = self.reg.symbols.get(name)
        if sym is None:
            raise ParseError("unknown row target %r" % name, tok[2], tok[3])
        if stage == 0 and sym.kind != KIND_FIELD:
            raise ParseError("rows of an ni block must target fields",
                             tok[2], tok[3])
        if stage >= 1 and not (sym.kind == KIND_GHOST and sym.stage == stage - 1):
            raise ParseError(
                "rows of a stage-%d block must target stage-%d ghosts"
                % (stage, stage - 1), tok[2], tok[3])
        try:
            return tok, sym, evaluator.key(sym, comps, jets, node, binders)
        except (GvcError, ValueError) as exc:
            raise ParseError(str(exc), tok[2], tok[3])

    def _expand_rows(self, stage, binders, comp, rows_stmts, statements,
                     evaluator):
        """The rows of the record ``comp``.  ``statements`` collects each
        row statement of the block resolved and compiled, the first record
        compiling it where it reaches it, so errors keep evaluation order."""
        rows = {}
        for i, stmt in enumerate(rows_stmts):
            if i == len(statements):
                statements.append(self._row_statement(stage, binders, stmt,
                                                      evaluator))
            tok, sym, expand = statements[i]
            statement_rows = {}
            try:
                for canon, jet, coeff in expand(comp):
                    if statement_rows.setdefault((sym.name, canon, jet),
                                                 coeff) != coeff:
                        raise GvcError(
                            "row (%s[%s]; %s) receives conflicting values under "
                            "component symmetry" % (sym.name, ",".join(map(str, canon)),
                                                    ",".join(map(str, jet))))
            except (GvcError, ValueError) as exc:
                raise ParseError(str(exc), tok[2], tok[3])
            for key, coeff in statement_rows.items():
                rows[key] = rows[key] + coeff if key in rows else coeff
        return {k: v for k, v in rows.items() if not v.is_zero()}

    def build_records(self, tok, stage, ghost, binders, rows_stmts, h_node):
        if ghost in self.reg.symbols:
            raise ParseError("ghost %r declared twice" % ghost, tok[2], tok[3])
        evaluator, statements = _Eval(self.reg), []
        slots = tuple(rng for _v, rng in binders)
        produced = []  # (component, rows, parity)
        for comp in itertools.product(*(range(rng) for rng in slots)):
            rows = self._expand_rows(stage, binders, comp, rows_stmts,
                                     statements, evaluator)
            if not rows:
                raise ParseError("record %s[%s] has no rows"
                                 % (ghost, ",".join(map(str, comp))), tok[2], tok[3])
            par = delta_parity(self.reg, rows)
            if par is None:
                raise ParseError(
                    "record %s[%s] mixes Grassmann parities"
                    % (ghost, ",".join(map(str, comp))), tok[2], tok[3])
            produced.append((comp, rows, par))
        parities = self._parity_spec(tok, ghost, slots, produced)
        gh = self.reg.declare_ghost(ghost, stage=stage, slots=slots, parities=parities)
        self.reg.declare_ghost_antifield(gh)
        records = self.stages.setdefault(stage, [])
        try:
            h_of = None if h_node is None else \
                evaluator.statement(h_node, binders)
            for comp, rows, _par in produced:
                h = None if h_of is None else h_of(comp)
                records.append(NoetherRecord(ghost, comp, rows, stage, h))
                require_record(self.reg, records[-1], stage)
        except (GvcError, ValueError) as exc:
            raise ParseError(str(exc), tok[2], tok[3])

    def _parity_spec(self, tok, ghost, slots, produced):
        # the ghost inherits the parity of its record: [c^r] = [Delta_r]
        values = {comp: par for comp, _rows, par in produced}
        distinct = set(values.values())
        if len(distinct) == 1:
            return distinct.pop()
        for pos in range(len(slots)):
            by = {}
            ok = True
            for comp, par in values.items():
                if by.setdefault(comp[pos], par) != par:
                    ok = False
                    break
            if ok:
                return (pos, tuple(by[i] for i in range(slots[pos])))
        raise ParseError("ghost %r needs a parity depending on several indices"
                         % ghost, tok[2], tok[3])

    # -- component blocks (gauge / gamma / alpha) -------------------------------

    def component_block(self, tok, existing, rule=None):
        """A gauge, gamma or alpha block, each component checked by rule."""
        self.need_reg(tok)
        if self.lagrangian is None:
            raise ParseError("component blocks must come after the Lagrangian",
                             tok[2], tok[3])
        if not self.frozen:
            self.freeze()
        evaluator = _Eval(self.reg)
        out = dict(existing or {})
        self.p.expect("{")
        while not self.p.at("}"):
            rtok, name, comps, jets, node = self.row_stmt()
            if jets:
                raise ParseError("component keys carry no jet indices",
                                 rtok[2], rtok[3])
            sym = self.reg.symbols.get(name)
            if sym is None:
                raise ParseError("unknown component target %r" % name,
                                 rtok[2], rtok[3])
            if sym.kind == KIND_ANTIFIELD:
                raise ParseError("component keys cannot target antifields",
                                 rtok[2], rtok[3])
            try:
                expand = evaluator.key(sym, comps, jets, node, [])
                for canon, _jet, val in expand(()):
                    if out.setdefault((name, canon), val) != val:
                        raise GvcError(
                            "component %s[%s] receives conflicting values"
                            % (name, ",".join(map(str, canon))))
                    if rule is not None:
                        rule(self.reg, (name, canon), val)
            except (GvcError, ValueError) as exc:
                raise ParseError(str(exc), rtok[2], rtok[3])
        self.p.next()
        return out


def parse_theory(text, jet_order=None, default_jet_order=None):
    """Parse a theory-spec file into a TheorySpec.

    ``jet_order`` overrides any cap in the file; ``default_jet_order`` is
    used only when the file has no ``jet_order`` statement.
    """
    return _TheoryBuilder(text, jet_order, default_jet_order).run()


def parse_expr(text, registry):
    """Parse one expression against a frozen registry; returns a GradedPoly."""
    p = _Parser(text)
    node = p.parse_expression()
    tok = p.peek()
    if tok[0] != "EOF":
        raise ParseError("trailing input after expression", tok[2], tok[3])
    try:
        return _Eval(registry).statement(node, [])(())
    except (GvcError, ValueError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(str(exc), 1, 1)
