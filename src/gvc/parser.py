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
a key's jets follow its closing bracket.  Every index is expanded by one
enumerator, ``_assignments``, the last index varying fastest: ``sum``
bodies, the records of a ghost family, and the free indices of a key, whose
ranges come from ``_Eval.check_key`` and whose canonical component, sign
and value come from ``_Eval.expand``.
Rows add duplicate keys within a statement; component blocks reject
conflicting ones.  ``+`` and ``sum`` accumulate in place.

Errors come from evaluation itself.  ``_Eval.check`` walks each expression
once, without evaluating it, given the range of every index bound around
it (ghost binders, the key's free indices, each ``sum``'s explicit or
inferred range): it resolves the ``sum`` ranges and decides whether the
expression is clean, that is whether no reference in it can fail under any
assignment.  A clean expression ends a product at its first zero factor,
so no zero costs the factors after it.  Any other is evaluated in full,
every factor of every product, so the first error it raises is the one
that evaluating every factor meets, where it meets it.  No index range is
empty, the jets of a variable an antisymmetric family kills are still
checked, and so is the unclean value of a killed key, so no zero hides an
invalid reference.

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
from types import MappingProxyType

from .algebra import (KIND_ANTIFIELD, KIND_FIELD, KIND_GHOST, GvcError,
                      GradedPoly, Registry, _add_into, _rat)
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
    one (``cli._rebuild``)."""

    __slots__ = ("name", "registry", "lagrangian", "records", "stages",
                 "gauge_candidate", "gamma", "alphas", "derived")

    def __init__(self, name, registry, lagrangian, records, stages,
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
        require_theory(self)

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


def _assignments(binders, env):
    """Yield ``env`` extended by every value of the ``(index, range)``
    binders, a fresh dict each time, the last binder varying fastest."""
    names = [var for var, _rng in binders]
    for values in itertools.product(*(range(rng) for _var, rng in binders)):
        out = dict(env)
        out.update(zip(names, values))
        yield out


def _value(atom, env):
    if atom[0] == "int":
        return atom[1]
    try:
        return env[atom[1]]
    except KeyError:
        raise GvcError("unbound index %r" % atom[1]) from None


class _Eval:
    """Evaluates expressions.  ``check`` resolves each ``sum``'s ranges once
    and decides, without evaluating anything, whether an expression is
    clean: no reference in it can fail under any assignment of the indices
    bound around it.  A clean expression ends a product at its first zero
    factor; any other is evaluated in full, so the first error it raises is
    the one evaluating every factor meets, where it meets it."""

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

    def accumulate(self, signed):
        """The sum of ``(sign, value)`` pairs: rationals add into one
        constant, polynomials through ``_add_into`` into one fresh dict."""
        const, terms = 0, None
        for sign, val in signed:
            if isinstance(val, GradedPoly):
                terms = _add_into({} if terms is None else terms, val.terms,
                                  sign < 0)
            else:
                const = const + val if sign > 0 else const - val
        if terms is None:
            return const
        return GradedPoly(self.reg,
                          _add_into(terms, self.reg.const(const).terms))

    def eval(self, node, env, clean):
        """The value of a checked ``node`` under ``env``; a product ends at
        its first zero factor only when ``node`` is ``clean``."""
        kind = node[0]
        if kind == "num":
            return node[1]
        if kind == "neg":
            return -self.eval(node[1], env, clean)
        if kind == "add":
            return self.accumulate((sign, self.eval(item, env, clean))
                                   for sign, item in node[1])
        if kind == "mul":
            total = None
            for item in node[1]:
                val = self.eval(item, env, clean)
                if clean and not val:
                    return 0
                total = val if total is None else total * val
            return total
        if kind == "pow":
            return self.eval(node[1], env, clean) ** node[2]
        if kind == "sum":
            binders = node[1] if clean else self.resolve(node[1], node[2])
            return self.accumulate((1, self.eval(node[2], inner, clean))
                                   for inner in _assignments(binders, env))
        _ref, name, comps, jets = node
        comps = tuple(_value(atom, env) for atom in comps)
        jets = tuple(_value(atom, env) for atom in jets)
        tab = self.reg.tables.get(name)
        if tab is None:
            return self.reg.var(name, comps, jets)
        if jets:
            raise GvcError("constant table %r cannot carry jet indices" % name)
        return tab[comps]

    def poly(self, checked, env):
        """The value under ``env`` of an expression ``check`` returned."""
        node, clean = checked
        val = self.eval(node, env, clean)
        if isinstance(val, GradedPoly):
            return val
        return self.reg.const(val)

    def check_key(self, sym, comps, jets, node, bound):
        """Check one key statement once: the key's arity, then its value
        with the indices of ``bound`` (index -> range) and the key's own.
        Returns the key's free ``(index, range)`` binders, each running over
        the first component slot it sits in, otherwise over the base
        directions, and the checked value."""
        if len(comps) != len(sym.slots):
            raise GvcError("%s expects %d component indices"
                           % (sym.name, len(sym.slots)))
        free = {}
        for atom, rng in zip(comps + jets,
                             sym.slots + (self.reg.dim,) * len(jets)):
            if atom[0] == "var" and atom[1] not in bound:
                free.setdefault(atom[1], rng)
        return list(free.items()), self.check(node, {**bound, **free})

    def expand(self, sym, comps, jets, free, checked, env):
        """Yield ``(component, jets, value)`` for each value of the ``free``
        binders of a key, with ``free`` and ``checked`` from ``check_key``.
        Components come out canonical and jets sorted and checked like a
        variable's; the value carries the symmetry sign, and keys the
        symmetry kills are skipped.  An unclean value is still evaluated
        for each killed key, after the live ones, so that no key hides an
        invalid reference and the first error is one a live key meets."""
        killed = []
        for inner in _assignments(free, env):
            canon, sign = sym.canonicalize(_value(a, inner) for a in comps)
            jet = self.reg.checked_index(sym, (_value(a, inner) for a in jets))
            if sign == 0:
                killed.append(inner)
                continue
            value = self.poly(checked, inner)
            yield canon, jet, value if sign == 1 else value.scale(sign)
        if not checked[1]:
            for inner in killed:
                self.poly(checked, inner)


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
        return TheorySpec(self.name, self.reg, self.lagrangian,
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
        evaluator = _Eval(self.reg)
        try:
            self.lagrangian = evaluator.poly(evaluator.check(node, {}), {})
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

    def _row_statement(self, stage, bound, stmt, evaluator):
        """Resolve and check one row statement for every record of a block;
        ``bound`` holds the ranges of the block's ghost indices."""
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
            free, checked = evaluator.check_key(sym, comps, jets, node, bound)
        except (GvcError, ValueError) as exc:
            raise ParseError(str(exc), tok[2], tok[3])
        return tok, sym, comps, jets, free, checked

    def _expand_rows(self, stage, bound, ghost_env, rows_stmts, statements,
                     evaluator):
        """The rows of one record.  ``statements`` collects each row
        statement of the block resolved and checked, the first record
        resolving it where it reaches it, so errors keep evaluation order."""
        rows = {}
        for i, stmt in enumerate(rows_stmts):
            if i == len(statements):
                statements.append(self._row_statement(stage, bound, stmt,
                                                      evaluator))
            tok, sym, comps, jets, free, checked = statements[i]
            statement_rows = {}
            try:
                for canon, jet, coeff in evaluator.expand(sym, comps, jets, free,
                                                          checked, ghost_env):
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
        evaluator = _Eval(self.reg)
        bound, statements = dict(binders), []
        slots = tuple(rng for _v, rng in binders)
        produced = []  # (component, env, rows, parity)
        for env in _assignments(binders, {}):
            comp = tuple(env[var] for var, _rng in binders)
            rows = self._expand_rows(stage, bound, env, rows_stmts, statements,
                                     evaluator)
            if not rows:
                raise ParseError("record %s[%s] has no rows"
                                 % (ghost, ",".join(map(str, comp))), tok[2], tok[3])
            par = delta_parity(self.reg, rows)
            if par is None:
                raise ParseError(
                    "record %s[%s] mixes Grassmann parities"
                    % (ghost, ",".join(map(str, comp))), tok[2], tok[3])
            produced.append((comp, env, rows, par))
        parities = self._parity_spec(tok, ghost, slots, produced)
        gh = self.reg.declare_ghost(ghost, stage=stage, slots=slots, parities=parities)
        self.reg.declare_ghost_antifield(gh)
        records = self.stages.setdefault(stage, [])
        try:
            checked = None if h_node is None else evaluator.check(h_node, bound)
            for comp, env, rows, _par in produced:
                h = None if checked is None else evaluator.poly(checked, env)
                records.append(NoetherRecord(ghost, comp, rows, stage, h))
                require_record(self.reg, records[-1], stage)
        except (GvcError, ValueError) as exc:
            raise ParseError(str(exc), tok[2], tok[3])

    def _parity_spec(self, tok, ghost, slots, produced):
        # the ghost inherits the parity of its record: [c^r] = [Delta_r]
        values = {comp: par for comp, _env, _rows, par in produced}
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
                free, checked = evaluator.check_key(sym, comps, jets, node, {})
                for canon, _jet, val in evaluator.expand(sym, comps, jets, free,
                                                         checked, {}):
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
    evaluator = _Eval(registry)
    try:
        return evaluator.poly(evaluator.check(node, {}), {})
    except (GvcError, ValueError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(str(exc), 1, 1)
