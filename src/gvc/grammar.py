"""Theory-spec syntax: tokens, the statement grammar, and the typing of
the slots that carry a direction.

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
a key's jets follow its closing bracket.  ``_Parser`` reads what each
statement says, its checks aside, for the builder (``gvc.parser``) and for
the typing pass, and each statement's expression and key once for both
(``_Parser.once``).

The direction swaps of ``gvc.symmetry`` act on the slots that carry a
direction, which one pass over the whole source decides before the first
statement is evaluated (``_directions``); it raises nothing, so every error
comes where it did.
"""
from __future__ import annotations

import itertools
import sys
from fractions import Fraction

from .algebra import GvcError, _rat


class ParseError(GvcError):
    """Lexical/syntax/validation error with source position."""

    def __init__(self, message, line, col):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.line = line
        self.col = col


_PUNCT = set(";,(){}[]=+-*^/:@")
_DIGITS = "0123456789"
_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CONT = _NAME_START | set(_DIGITS)
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
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:
                # str -> int refuses a literal past the interpreter's limit
                raise ParseError("integer literal longer than %d digits"
                                 % sys.get_int_max_str_digits(), line, col)
            toks.append(("INT", value, line, col))
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
        block, as (the ghost's token, binders, row statements, h or
        None)."""
        ghost = self.expect("NAME")
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
                gtok, binders, rows, h_node = p.records(stage)
                ghost = gtok[1]
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
