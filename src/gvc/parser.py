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
a key's jets follow its closing bracket.  A ``sum``, the records of a ghost
family and the free indices of a key, whose canonical component, sign and
value come from ``_Eval.key``, mean every value of their indices, in the
order of ``itertools.product`` of the ranges, the last index varying
fastest.  Evaluation may take fewer: a factor of a ``sum``'s body that
computes a polynomial, or a rational beside one, is evaluated once per
value of the binders it reads, and a value that the symmetry proof below
maps from an earlier one is that value's image (``_Eval``); the keys and
records still come in that order.
The rows that separate statements of a block give one key add up; within
one statement, keys that a symmetric family maps to one canonical key count
once and must agree, and component blocks reject conflicting values for
one key.  ``+`` and ``sum`` accumulate in place.

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
two certificates (``_TheoryBuilder.certificates``), the only proof of a
symmetry that ``gvc.symmetry`` accepts.  Those transpositions act on the
slots that carry a direction, which one pass over the whole source decides
before the first statement is evaluated (``_directions``); it raises
nothing, so every error comes where it did.

Blocks that mention ghosts (gauge, gamma, alpha) must come after all record
blocks, field and jet_order statements.  The input rules of
``gvc.noether`` are checked at the statement or block that breaks them, and
the error comes there.
Everything is exact rational arithmetic.  A number is born under the
coefficient rule of ``algebra._rat``, an int when it is integral, and a
rational that evaluation makes whole, such as ``2 * 1/2``, enters a
polynomial through ``GradedPoly.constant`` or ``scale``, which apply the
rule.  Parsing is deterministic.
"""
from __future__ import annotations

import itertools
import string
from contextlib import contextmanager
from fractions import Fraction
from operator import itemgetter, mul
from types import MappingProxyType

from .algebra import (KIND_ANTIFIELD, KIND_FIELD, KIND_GHOST, GvcError,
                      GradedPoly, Registry, _add_into, _mul_terms, _rat,
                      _scale_terms)
from .noether import (Frozen, NoetherRecord, delta_parity, require_gamma,
                      require_lagrangian, require_record, require_theory)
from .symmetry import direction_swap, orbit_step


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
#   ("num", int or Fraction)         ("ref", name, comps, jets, token)
#   ("neg", node)                    ("add", [(sign, node), ...])
#   ("mul", [node, ...])             ("pow", node, int)
#   ("sum", [(var, range-or-None)], node, token)
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
        self.read = {}  # (reader, token position) -> (tree, end position)

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
            self.error("expected %r, found %r" % (
                kind, tok[1] if tok[0] != "EOF" else "end of input"), tok)
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

    def once(self, read):
        """What ``read()`` reads from here, read once however often the
        tokens are read (``_directions`` reads them before the builder): it
        depends on the tokens alone, and what fails to read is read again,
        to fail there."""
        at = read.__name__, self.pos
        hit = self.read.get(at)
        if hit is None:
            hit = self.read[at] = read(), self.pos
        out, self.pos = hit
        return out

    def expression(self):
        """A statement's expression (``once``)."""
        return self.once(self.parse_expression)

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
            return ("sum", binders, body, tok)
        if tok[0] == "NAME":
            self.next()
            comps, jets = self.parse_index_group()
            return ("ref", tok[1], comps, jets, tok)
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
        self.error("expected an index", tok)

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

    # -- statement grammar: what a statement reads, its checks aside ---------

    def table(self):
        """``NAME[sizes] { [INT,...] = RAT ; ... }`` as (name, shape,
        entries)."""
        name = self.expect("NAME")[1]
        self.expect("[")
        shape = self.items(self.size)
        self.expect("]")
        self.expect("{")
        entries = {}
        while not self.at("}"):
            self.expect("[")
            idx = self.items(lambda: self.expect("INT")[1])
            self.expect("]")
            self.expect("=")
            sign = 1
            while self.at("-") or self.at("+"):
                if self.next()[0] == "-":
                    sign = -sign
            entries[tuple(idx)] = sign * self.rational()
            self.expect(";")
        self.next()
        return name, tuple(shape), entries

    def field(self):
        """``NAME [[sizes]] [sym|antisym] PARITY``, a field statement up to
        its ``;``, as (name, slots, symmetry, the parity token, (table
        name, slot) when it is ``parity TBL@SLOT``)."""
        name = self.expect("NAME")[1]
        slots = []
        if self.at("["):
            self.next()
            slots = self.items(self.size)
            self.expect("]")
        symmetry = None
        if self.at("NAME", "sym") or self.at("NAME", "antisym"):
            symmetry = self.next()[1]
        ptok, table = self.expect("NAME"), None
        if ptok[1] == "parity":
            tname = self.expect("NAME")[1]
            self.expect("@")
            table = tname, self.expect("INT")[1]
        return name, slots, symmetry, ptok, table

    def records(self, stage):
        """``GHOST[binders] { rows and h }``, a stage-``stage`` record
        block, as (ghost, binders, row statements, h or None)."""
        ghost = self.expect("NAME")[1]
        self.expect("[")  # [i:RANGE, ...], an empty group for scalars
        binders = self.binders(ranged=True, close=("]",))
        self.expect("]")
        self.expect("{")
        rows, h_node = [], None
        while not self.at("}"):
            if self.at("NAME", "h"):
                htok = self.next()
                if stage == 0:
                    self.error("h certificates belong to stage blocks", htok)
                if h_node is not None:
                    self.error("h declared twice", htok)
                self.expect("{")
                h_node = self.expression()
                self.expect("}")
                self.expect(";")
                continue
            rows.append(self.row())
        self.next()
        return ghost, binders, rows, h_node

    def row(self):
        """``( NAME[idx,...] ; jets ) = EXPR ;``, the key statement of
        record and component blocks; a key's jets follow its bracket
        (``once``)."""
        return self.once(self._row)

    def _row(self):
        tok = self.expect("(")
        name = self.expect("NAME")[1]
        comps, jets = [], []
        if self.at("["):
            self.next()
            comps = self.items(self.index, close=(";", "]"))
            self.expect("]")
        if self.at(";"):
            self.next()
            jets = self.items(self.index, close=(")",))
        self.expect(")")
        self.expect("=")
        node = self.parse_expression()
        self.expect(";")
        return (tok, name, comps, jets, node)


def _directions(p):
    """{family or table: whether each of its slots carries a base
    direction}, read from the whole source of the parser ``p`` at its
    start, before any statement is evaluated; None when it cannot be read,
    and never an error: the builder meets any error where it did before.

    A union-find joins each slot (family, position) with every index that
    sits in it, and every index that sits in a jet with the jets.  Indices
    are scoped as the statements bind them: each ``sum``'s binders, a
    record block's binders (its ghost's slots), a key statement's free
    indices.  A symmetric family joins its slots, and an antifield
    ``X_bar`` reads X's.  A slot of range ``dim`` joined with the jets
    carries a direction; no other does.  A name or ``dim`` declared twice is
    read at its first declaration, as the builder reads it.  Any such choice is sound (see
    ``gvc.symmetry``): this one makes sigma fix the slots that no
    direction reaches, such as an internal index of range ``dim``."""
    root, shapes, bases, binder = {}, {}, set(), itertools.count()
    refs, in_jets, dim = set(), set(), None  # (index, name, position), index

    def find(x):
        while (up := root.get(x, x)) != x:
            root[x] = up = root.get(up, up)
            x = up
        return x

    def join(a, b):
        root[find(a)] = find(b)

    def walk(node, scope):
        todo = [(node, scope)]
        while todo:
            n, scope = todo.pop()
            kind = n[0]
            if kind == "ref":
                refs.update((scope[a[1]], n[1], i) for i, a in enumerate(n[2])
                            if a[1] in scope)
                in_jets.update(scope[a[1]] for a in n[3] if a[1] in scope)
            elif kind == "add":
                todo.extend((item, scope) for _s, item in n[1])
            elif kind == "mul":
                todo.extend((item, scope) for item in n[1])
            elif kind in ("neg", "pow"):
                todo.append((n[1], scope))
            elif kind == "sum":
                inner = dict(scope)
                inner.update((var, next(binder)) for var, _rng in n[1])
                todo.append((n[2], inner))

    def key(row, scope):
        _tok, name, comps, jets, node = row
        inner = dict(scope)
        for a in comps + jets:
            if a[0] == "var" and a[1] not in inner:
                inner[a[1]] = next(binder)
        walk(("ref", name, comps, jets, None), inner)
        walk(node, inner)
    try:
        while not p.at("EOF"):
            word = p.expect("NAME")[1]
            if word == "theory":
                p.expect("NAME")
            elif word in ("dim", "jet_order"):
                n = p.expect("INT")[1]
                if word == "dim" and dim is None:
                    dim = n
            elif word == "table":
                name = p.expect("NAME")[1]
                p.expect("[")
                shapes.setdefault(name, p.items(p.size))
                while p.toks[p.pos][0] not in ("}", "EOF"):  # the entries
                    p.pos += 1
                p.expect("}")
                continue
            elif word == "field":
                name, slots, symmetry, _ptok, _table = p.field()
                shapes.setdefault(name, slots)
                bases.add(name)
                for i in range(1, len(slots) if symmetry else 0):
                    join((name, i), (name, 0))
            elif word == "L":
                p.expect("=")
                walk(p.expression(), {})
            elif word in ("ni", "stage"):
                stage = p.expect("INT")[1] if word == "stage" else 0
                ghost, binders, rows, h_node = p.records(stage)
                shapes.setdefault(ghost, [rng for _var, rng in binders])
                bases.add(ghost)
                scope = {var: (ghost, i) for i, (var, _r) in enumerate(binders)}
                for row in rows:
                    key(row, scope)
                if h_node is not None:
                    walk(h_node, scope)
                continue
            elif word in ("gauge", "gamma", "alpha"):
                if word == "alpha":
                    p.expect("INT")
                p.expect("{")
                while not p.at("}"):
                    key(p.row(), {})
                p.next()
                continue
            else:
                return None
            p.expect(";")
    except ParseError:
        return None
    for index, name, i in refs:
        if name not in shapes and name.endswith("_bar") and \
                name[:-4] in bases:
            name = name[:-4]
        join(index, (name, i))
    jet = ("jet",)
    for index in in_jets:
        join(index, jet)
    jet = find(jet)
    return {name: tuple(n == dim and find((name, i)) == jet
                        for i, n in enumerate(shape))
            for name, shape in shapes.items()}


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


def _multiply(vals, kinds, sign, out):
    """Add ``sign`` times the product of ``vals``, in order, into the term
    dict ``out``: term dicts where ``kinds`` is nonzero, else rationals;
    nothing when one is zero, as the last of a list cut at its first zero
    is."""
    c, dicts = sign, []
    for val, kind in zip(vals, kinds):
        if not val:
            return
        if kind:
            dicts.append(val)
        else:
            c *= val
    total = dicts[0]
    for val in dicts[1:-1]:
        total = _mul_terms(total, val)
    if len(dicts) > 1 and c == 1:
        _mul_terms(total, dicts[-1], out)
        return
    if len(dicts) > 1:
        total = _mul_terms(total, dicts[-1])
    _add_into(out, total if c == 1 else _scale_terms(total, c))


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
    reference, straight into one term dict.  A product whose factors are
    clean stops at its first zero factor, so no zero costs the factors
    after it.  Any other evaluates every factor, and a ``sum`` whose range
    cannot be inferred raises where it is evaluated, so the first error is
    the one evaluating every factor meets, where it meets it.  The closures
    hold the registry, never the evaluator, so a statement leaves no
    reference cycle behind.

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

            def add(v, out):
                const = 0
                for fold in folds:
                    const += fold(v, out)
                return const
            return add, any(polys), all(cleans), _agree(signs)
        if kind == "sum":
            return self._sum(node[1], node[2], node[3], scope, sign)
        if kind == "mul":
            return self._product([self._factor(item, scope)
                                  for item in node[1]], sign)
        if kind == "ref":
            value, poly, clean, signs = self._ref(node, scope)
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
                return ref, True, clean, signs
        else:
            value, poly, clean, signs = self._value(node, scope)
        if poly:
            neg = sign < 0

            def add(v, out):
                _add_into(out, value(v), neg)
                return 0
            return add, True, clean, signs
        if sign > 0:
            return (lambda v, out: value(v)), False, clean, signs
        return (lambda v, out: -value(v)), False, clean, signs

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
        sigma of its value at the step's, e_F its sign, and multiplied."""
        end, (moved, swaps) = first + len(ranges), orbit
        kinds = [kind for _value, kind, _clean, _signs in factors]
        signs = [{lam: _sign(neg, lam) for lam, _swap, _e in swaps}
                 for _value, _kind, _clean, (_ok, neg) in factors]

        def by_orbit(v, out):
            done = {}
            for at in itertools.product(*ranges):
                step = orbit_step(at, moved, swaps)
                if step is None:
                    v[first:end], vals = at, []
                    for value, kind, _clean, _signs in factors:
                        val = value(v)
                        if kind == 2:
                            val = {val[0]: val[1]} if val[1] else {}
                        vals.append(val)
                        if not val:
                            break
                else:
                    src, swap, _e = step
                    vals = [swap.image(val, e[swap.lam]) if kind else
                            e[swap.lam] * val
                            for val, kind, e in zip(done[src], kinds, signs)]
                done[at] = vals
                _multiply(vals, kinds, sign, out)
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


class _TheoryBuilder:
    """Drives statement parsing; owns the registry life cycle."""

    def __init__(self, text, jet_order=None, default_jet_order=None):
        self.p = _Parser(text)
        # the direction slots of each family and table, then the statements
        # from the start
        self.directions = _directions(self.p) or {}
        self.p.pos = self.p.depth = 0
        self.jet_order = jet_order
        self.default_jet_order = default_jet_order
        self.reg = None
        self.name = "theory"
        self.lagrangian = None
        self.stages = {}  # stage -> records; stage 0 holds the ni blocks
        self.gauge_candidate = None
        self.gamma = {}
        self.alphas = {}
        # the signs (``_Eval``) of L, of each record family by its ghost, of
        # each statement of the gamma blocks and of each table, and the
        # direction swaps that its evaluators share
        self.lagrangian_signs, self.family_signs = None, {}
        self.gamma_signs, self.table_signs, self.swaps = [], {}, {}

    def run(self):
        while not self.p.at("EOF"):
            self.statement()
        if self.reg is None:
            self.p.error("theory must declare a dimension")
        if self.lagrangian is None:
            self.p.error("theory must declare a Lagrangian")
        self.reg.freeze()
        theory = TheorySpec._parsed(
            self.name, self.reg, self.lagrangian, self.stages.pop(0, []),
            self.stages, self.gauge_candidate, self.gamma, self.alphas)
        theory.derived.update(self.certificates())
        return theory

    def certificates(self):
        """The swaps sigma of base directions lam and lam + 1 that the
        source proves, as the two memo entries that ``gvc.symmetry`` reads:
        "certificate", {lam: {ghost: e}} for each sigma with sigma L = +-L
        and sigma Delta_b = e Delta_{sigma b} for each record b of every
        stage-0 family ``ghost``, sigma b its label's image; and "b
        certificate", {lam: e} for each sigma that maps the rows of every
        record family of every stage, and gamma, by one sign e."""
        stage0 = {ghost: signs for ghost, signs in self.family_signs.items()
                  if not self.reg.symbols[ghost].stage}
        ok = self.lagrangian_signs[0]
        for family_ok, _neg in stage0.values():
            ok &= family_ok
        b_ok, b_neg = _agree([*self.family_signs.values(), *self.gamma_signs]
                             or [(-1, 0)])
        swaps = range(self.reg.dim - 1)
        records = {lam: {ghost: _sign(neg, lam)
                         for ghost, (_ok, neg) in stage0.items()}
                   for lam in swaps if ok >> lam & 1}
        return {"certificate": records, "b certificate": {
            lam: _sign(b_neg, lam) for lam in swaps if b_ok >> lam & 1}}

    def evaluator(self):
        """A statement evaluator that shares the theory's table signs and
        direction swaps."""
        return _Eval(self.reg, self.table_signs, self.swaps)

    def typed(self, name, shape):
        """Whether each slot of the family or table ``name`` carries a base
        direction, as ``_directions`` found at its first declaration, or by
        default (a source it could not read, or a name declared again,
        which fails where it did) each slot of range ``dim``."""
        again = name in self.reg.symbols or name in self.reg.tables
        return self.reg.typed(shape, None if again else
                              self.directions.get(name))

    def need_reg(self, tok):
        if self.reg is None:
            self.p.error("dim must be declared first", tok)

    def statement(self):
        tok = self.p.expect("NAME")
        word = tok[1]
        if word == "theory":
            self.name = self.p.expect("NAME")[1]
            self.p.expect(";")
        elif word == "dim":
            if self.reg is not None:
                self.p.error("dim declared twice", tok)
            dim = self.p.expect("INT")[1]
            self.p.expect(";")
            cap = self.jet_order
            if cap is None:
                cap = self.default_jet_order
            with _at(tok):
                self.reg = Registry(dim=dim, jet_order=cap)
        elif word == "jet_order":
            self.need_reg(tok)
            if self.reg.frozen:
                self.p.error("jet_order declared after gauge/gamma/alpha", tok)
            cap = self.p.expect("INT")[1]
            self.p.expect(";")
            with _at(tok):
                cap = Registry.checked_jet_order(cap)
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
                self.p.error("stage blocks start at 1; stage-0 records are "
                             "`ni` blocks", ktok)
            self.record_block(tok, stage=ktok[1])
        elif word == "gauge":
            self.gauge_candidate = self.component_block(
                tok, self.gauge_candidate)[0]
        elif word == "gamma":
            self.gamma, signs = self.component_block(tok, self.gamma,
                                                     require_gamma)
            self.gamma_signs += signs
        elif word == "alpha":
            ktok = self.p.expect("INT")
            k = ktok[1]
            if k < 1 or k not in self.stages:  # nothing would read it
                self.p.error("alpha blocks start at stage 1" if k < 1 else
                             "alpha %d: no stage %d block declared" % (k, k),
                             ktok)
            self.alphas[k] = self.component_block(tok, self.alphas.get(k))[0]
        else:
            self.p.error("unknown statement %r" % word, tok)

    # -- declarations ---------------------------------------------------------

    def table_stmt(self, tok):
        self.need_reg(tok)
        name, shape, entries = self.p.table()
        with _at(tok):
            self.reg.declare_table(name, shape, entries,
                                   self.typed(name, shape))

    def field_stmt(self, tok):
        self.need_reg(tok)
        if self.reg.frozen:
            self.p.error("field declared after gauge/gamma/alpha", tok)
        name, slots, symmetry, ptok, table = self.p.field()
        if ptok[1] == "even":
            parities = 0
        elif ptok[1] == "odd":
            parities = 1
        elif ptok[1] == "parity":
            tname, slot = table
            tab = self.reg.tables.get(tname)
            if tab is None:
                self.p.error("unknown parity table %r" % tname, ptok)
            if slot >= len(slots):
                self.p.error("parity slot %d out of range" % slot, ptok)
            vec = []
            with _at(ptok):
                for i in range(slots[slot]):
                    vec.append(tab[(i,)])
                    if vec[-1] not in (0, 1):
                        raise GvcError("parity table entries must be 0 or 1")
            parities = (slot, tuple(map(int, vec)))
        else:
            self.p.error("expected even, odd or parity", ptok)
        self.p.expect(";")
        with _at(tok):
            self.reg.declare_field(name, tuple(slots), parities, symmetry,
                                   self.typed(name, slots))

    def lagrangian_stmt(self, tok):
        self.need_reg(tok)
        if self.lagrangian is not None:
            self.p.error("L declared twice", tok)
        self.p.expect("=")
        node = self.p.expression()
        self.p.expect(";")
        with _at(tok):
            evaluator = self.evaluator()
            self.lagrangian = evaluator.statement(node, [])(())
            require_lagrangian(self.lagrangian)
        self.lagrangian_signs = evaluator.signs

    # -- record blocks ----------------------------------------------------------

    def record_block(self, tok, stage):
        self.need_reg(tok)
        if self.reg.frozen:
            self.p.error("records must come before gauge/gamma/alpha blocks",
                         tok)
        if self.lagrangian is None:
            self.p.error("records must come after the Lagrangian", tok)
        self.build_records(tok, stage, *self.p.records(stage))

    def _row_statement(self, stage, binders, stmt, evaluator):
        """Resolve and compile one row statement for every record of a
        block; ``binders`` is (the block's ghost indices and ranges, whether
        each is a direction)."""
        tok, name, comps, jets, node = stmt
        sym = self.reg.symbols.get(name)
        if sym is None:
            self.p.error("unknown row target %r" % name, tok)
        if stage == 0 and sym.kind != KIND_FIELD:
            self.p.error("rows of an ni block must target fields", tok)
        if stage >= 1 and not (sym.kind == KIND_GHOST and sym.stage == stage - 1):
            self.p.error("rows of a stage-%d block must target stage-%d ghosts"
                         % (stage, stage - 1), tok)
        with _at(tok):
            expand = evaluator.key(sym, comps, jets, node, *binders)
            return (tok, sym, expand, evaluator.clean, evaluator.sums,
                    evaluator.signs)

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
            tok, sym, expand, *_proof = statements[i]
            statement_rows = {}
            with _at(tok):
                for canon, jet, coeff in expand(comp):
                    if statement_rows.setdefault((sym.name, canon, jet),
                                                 coeff) != coeff:
                        raise GvcError(
                            "row (%s[%s]; %s) receives conflicting values under "
                            "component symmetry" % (sym.name, ",".join(map(str, canon)),
                                                    ",".join(map(str, jet))))
            for key, coeff in statement_rows.items():
                rows[key] = rows[key] + coeff if key in rows else coeff
        return {k: v for k, v in rows.items() if not v.is_zero()}

    def _image_rows(self, rows, swap, e):
        """The rows of the record sigma b from the ``rows`` of b, sigma
        Delta_b = e Delta_{sigma b}: e s_A sigma(coefficient) at (sigma A,
        sigma Lambda), s_A the sign of canonicalizing sigma A."""
        reg, out, comps, indices = self.reg, {}, {}, {}
        for (name, comp, index), coeff in rows.items():
            if (name, comp) not in comps:
                comps[name, comp] = swap.component(reg.symbols[name], comp)
            if index not in indices:
                indices[index] = swap.index(index)
            image, s = comps[name, comp]
            out[name, image, indices[index]] = GradedPoly(
                reg, swap.image(coeff.terms, e * s))
        return out

    def build_records(self, tok, stage, ghost, binders, rows_stmts, h_node):
        if ghost in self.reg.symbols:
            self.p.error("ghost %r declared twice" % ghost, tok)
        evaluator, statements, reg = self.evaluator(), [], self.reg
        slots = tuple(rng for _v, rng in binders)
        directed = self.typed(ghost, slots)
        produced, done, orbit = [], {}, None  # (component, rows, parity)
        for comp in itertools.product(*(range(rng) for rng in slots)):
            step = orbit and orbit_step(comp, *orbit)
            if step:
                src, swap, e = step
                rows = self._image_rows(done[src][0], swap, e)
                # an image has its source's parity
                par = done[src][1]
            else:
                rows = self._expand_rows(stage, (binders, directed), comp,
                                         rows_stmts, statements, evaluator)
                par = delta_parity(reg, rows) if rows else None
            # parsing, not the first check to build Delta, fixes the ranks
            # of its antifield jets
            for name, comp_, index in sorted(rows):
                reg.jet_var(name + "_bar", comp_, index)
            if par is None:
                self.p.error("record %s[%s] %s" % (
                    ghost, ",".join(map(str, comp)),
                    "mixes Grassmann parities" if rows else "has no rows"),
                    tok)
            if not produced:
                # the first record compiles every statement; a clean family
                # that holds a sum takes every record past the first of its
                # orbit as the image of an earlier one (``gvc.symmetry``)
                signs = self.family_signs[ghost] = _agree(
                    [signs for *_x, signs in statements])
                cleans, sums = zip(*(stmt[3:5] for stmt in statements))
                orbit = all(cleans) and any(sums) and evaluator.orbit(
                    directed, signs)
            done[comp] = rows, par
            produced.append((comp, rows, par))
        parities = self._parity_spec(tok, ghost, slots, produced)
        gh = reg.declare_ghost(ghost, stage=stage, slots=slots,
                               parities=parities, directions=directed)
        reg.declare_ghost_antifield(gh)
        records = self.stages.setdefault(stage, [])
        with _at(tok):
            h_of = None if h_node is None else \
                evaluator.statement(h_node, binders, directed)
            for comp, rows, _par in produced:
                h = None if h_of is None else h_of(comp)
                records.append(NoetherRecord(ghost, comp, rows, stage, h))
                require_record(self.reg, records[-1], stage)

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
        self.p.error("ghost %r needs a parity depending on several indices"
                     % ghost, tok)

    # -- component blocks (gauge / gamma / alpha) -------------------------------

    def component_block(self, tok, existing, rule=None):
        """(The components of a gauge, gamma or alpha block added to those
        of ``existing``, each checked by rule; the signs of each of its
        statements.)"""
        self.need_reg(tok)
        if self.lagrangian is None:
            self.p.error("component blocks must come after the Lagrangian",
                         tok)
        self.reg.freeze()
        evaluator = self.evaluator()
        out, signs = dict(existing or {}), []
        self.p.expect("{")
        while not self.p.at("}"):
            rtok, name, comps, jets, node = self.p.row()
            if jets:
                self.p.error("component keys carry no jet indices", rtok)
            sym = self.reg.symbols.get(name)
            if sym is None:
                self.p.error("unknown component target %r" % name, rtok)
            if sym.kind == KIND_ANTIFIELD:
                self.p.error("component keys cannot target antifields", rtok)
            with _at(rtok):
                expand = evaluator.key(sym, comps, jets, node, [])
                signs.append(evaluator.signs)
                for canon, _jet, val in expand(()):
                    if out.setdefault((name, canon), val) != val:
                        raise GvcError(
                            "component %s[%s] receives conflicting values"
                            % (name, ",".join(map(str, canon))))
                    if rule is not None:
                        rule(self.reg, (name, canon), val)
        self.p.next()
        return out, signs


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
    if not p.at("EOF"):
        p.error("trailing input after expression")
    try:
        return _Eval(registry).statement(node, [])(())
    except (GvcError, ValueError) as exc:
        # at the reference or sum that raised it, else the start of the input
        tok = getattr(exc, "tok", (None, None, 1, 1))
        raise ParseError(str(exc), tok[2], tok[3]) from None
