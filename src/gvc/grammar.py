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
a key's jets follow its closing bracket.  ``_Parser.statements`` reads the
source once, each statement whole with every check that depends on its
tokens alone, for the builder (``gvc.parser``) and for the typing pass.

As it reads, the parser resolves each index to its innermost binder and
notes the binder's sites, every slot and jet its index sits in
(``_Parser.sit``).  The typing of the slots that carry a direction, which
the swaps of ``gvc.symmetry`` act on, reads those lists before any
statement is evaluated (``_directions``), and ``sum`` range inference as
each statement is compiled; neither walks a tree.
"""
from __future__ import annotations

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
#   ("sum", [(var, range-or-None)], node, token, [sites of each binder])
# comps/jets entries: ("int", v) or ("var", name)
# A site is (family or table name, slot position), or JET for a jet.
JET = ("jet",)


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0
        # each bound index -> the site list of its innermost binder; the
        # site lists of the binders the statement being read opens
        self.scope, self.opened = {}, []

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

    def bind(self, frame):
        """Open the scope ``frame``, {index: its list of sites}, whose indices
        shadow those bound outside it, until the caller sets ``scope`` back
        to the outer scope returned."""
        outer = self.scope
        self.scope = {**outer, **frame}
        self.opened += frame.values()
        return outer

    def sit(self, name, comps, jets):
        """Add the sites of the reference ``name[comps; jets]`` to the
        innermost binder of each of its indices: ``(name, position)`` for a
        component, JET for a jet.  An index that nothing binds has none."""
        scope, n = self.scope, len(comps)
        # a constant atom holds an int, which names no index
        for i, atom in enumerate(comps + jets):
            if atom[1] in scope:
                scope[atom[1]].append((name, i) if i < n else JET)

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
            frame = {var: [] for var, _rng in binders}
            outer = self.bind(frame)
            body = self.nested(tok, self.parse_expression)
            self.scope = outer
            self.expect("}")
            return ("sum", binders, body, tok, [*frame.values()])
        if tok[0] == "NAME":
            self.next()
            comps, jets = self.parse_index_group()
            self.sit(tok[1], comps, jets)
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

    # -- statement grammar: each statement read whole -----------------------

    def statements(self):
        """The source read from start to end, one whole statement at a time:
        the list of ``(first token, parts)`` of each statement read, the
        site lists of every binder those statements open (``bind``), and
        the ParseError that stopped the reading, or None."""
        out, sites = [], []
        try:
            while not self.at("EOF"):
                self.opened = []
                out.append(self.statement())
                sites += self.opened
        except ParseError as exc:
            return out, sites, exc
        return out, sites, None

    def statement(self):
        """One statement up to its ``;`` or ``}`` as (its first token,
        parts): a NAME or INT value, the tree of ``L``, the rows of
        ``gauge``/``gamma``, (K's token, rows) of ``alpha K``, or what
        ``table``, ``field`` or ``records`` reads."""
        tok = self.expect("NAME")
        word = tok[1]
        if word in ("theory", "dim", "jet_order"):
            parts = self.expect("NAME" if word == "theory" else "INT")[1]
        elif word == "table":
            return tok, self.table()
        elif word == "field":
            parts = self.field()
        elif word == "L":
            self.expect("=")
            parts = self.parse_expression()
        elif word == "ni":
            return tok, self.records(0)
        elif word == "stage":
            return tok, self.records(self.order(
                "stage blocks start at 1; stage-0 records are `ni` blocks")[1])
        elif word in ("gauge", "gamma"):
            return tok, self.rows()
        elif word == "alpha":
            return tok, (self.order("alpha blocks start at stage 1"),
                         self.rows())
        else:
            self.error("unknown statement %r" % word, tok)
        self.expect(";")
        return tok, parts

    def order(self, message):
        """The token of K in ``stage K`` or ``alpha K``, at least 1."""
        tok = self.expect("INT")
        if tok[1] < 1:
            self.error(message, tok)
        return tok

    def table(self):
        """``NAME[sizes] { [INT,...] = RAT ; ... }`` as (name, shape,
        entries); an entry is given once."""
        name = self.expect("NAME")[1]
        self.expect("[")
        shape = self.items(self.size)
        self.expect("]")
        self.expect("{")
        entries = {}
        while not self.at("}"):
            at = self.expect("[")
            idx = tuple(self.items(lambda: self.expect("INT")[1]))
            self.expect("]")
            if idx in entries:
                self.error("table entry %s[%s] given twice" % (
                    name, ",".join(map(str, idx))), at)
            self.expect("=")
            sign = 1
            while self.at("-") or self.at("+"):
                if self.next()[0] == "-":
                    sign = -sign
            entries[idx] = sign * self.rational()
            self.expect(";")
        self.next()
        return name, tuple(shape), entries

    def field(self):
        """``NAME [[sizes]] [sym|antisym] (even|odd|parity TBL@SLOT)`` as
        (name, slots, symmetry, the parity word's token, 0 for even, 1 for
        odd, or (table name, slot))."""
        name = self.expect("NAME")[1]
        slots = []
        if self.at("["):
            self.next()
            slots = self.items(self.size)
            self.expect("]")
        symmetry = None
        if self.at("NAME", "sym") or self.at("NAME", "antisym"):
            symmetry = self.next()[1]
        ptok = self.expect("NAME")
        if ptok[1] == "parity":
            tname = self.expect("NAME")[1]
            self.expect("@")
            parity = tname, self.expect("INT")[1]
        elif ptok[1] in ("even", "odd"):
            parity = int(ptok[1] == "odd")
        else:
            self.error("expected even, odd or parity", ptok)
        return name, slots, symmetry, ptok, parity

    def records(self, stage):
        """``GHOST[binders] { rows and h }``, a stage-``stage`` record
        block, as (stage, the ghost's token, binders, row statements, h or
        None)."""
        ghost = self.expect("NAME")
        self.expect("[")  # [i:RANGE, ...], an empty group for scalars
        binders = self.binders(ranged=True, close=("]",))
        self.expect("]")
        self.expect("{")
        # each binder sits in its ghost's slot
        outer = self.bind({var: [(ghost[1], i)]
                           for i, (var, _rng) in enumerate(binders)})
        rows, h_node = [], None
        while not self.at("}"):
            if self.at("NAME", "h"):
                htok = self.next()
                if stage == 0:
                    self.error("h certificates belong to stage blocks", htok)
                if h_node is not None:
                    self.error("h declared twice", htok)
                self.expect("{")
                h_node = self.parse_expression()
                self.expect("}")
                self.expect(";")
                continue
            rows.append(self.row())
        self.scope = outer
        self.next()
        return stage, ghost, binders, rows, h_node

    def rows(self):
        """``{ row ... }``, the key statements of a component block."""
        self.expect("{")
        rows = []
        while not self.at("}"):
            rows.append(self.row())
        self.next()
        return rows

    def row(self):
        """``( NAME[idx,...] ; jets ) = EXPR ;``, the key statement of
        record and component blocks; a key's jets follow its bracket.  The
        key binds its free indices over itself and its value."""
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
        outer = self.bind({atom[1]: [] for atom in comps + jets
                           if atom[0] == "var" and atom[1] not in self.scope})
        self.sit(name, comps, jets)
        node = self.parse_expression()
        self.scope = outer
        self.expect(";")
        return (tok, name, comps, jets, node)


def _directions(statements, sites):
    """{family or table: whether each of its slots carries a base
    direction}, read from ``statements`` and the ``sites`` of their binders
    (``_Parser.statements``) before any statement is evaluated; a source
    that stops reading is typed from the statements before its error.

    A union-find joins each binder with its sites (``_Parser.sit``), the
    slots and jets its index sits in.  A symmetric family joins its slots,
    and an antifield ``X_bar`` reads X's.  A slot of range ``dim`` joined
    with the jets carries a direction; no other does.  A name or ``dim``
    declared twice is read at its first declaration, as the builder reads
    it.  Any such choice is sound (see ``gvc.symmetry``): this one makes
    sigma fix the slots that no direction reaches, such as an internal
    index of range ``dim``."""
    root, shapes, bases, dim = {}, {}, set(), None

    def find(x):
        while (up := root.get(x, x)) != x:
            root[x] = up = root.get(up, up)
            x = up
        return x

    def join(a, b):
        root[find(a)] = find(b)
    for tok, parts in statements:
        word = tok[1]
        if word == "dim" and dim is None:
            dim = parts
        elif word == "table":
            shapes.setdefault(parts[0], parts[1])
        elif word == "field":
            name, slots, symmetry, _ptok, _parity = parts
            shapes.setdefault(name, slots)
            bases.add(name)
            for i in range(1, len(slots) if symmetry else 0):
                join((name, i), (name, 0))
        elif word in ("ni", "stage"):
            _stage, gtok, binders, _rows, _h = parts
            shapes.setdefault(gtok[1], [rng for _var, rng in binders])
            bases.add(gtok[1])
    for binder, at in enumerate(sites):
        for site in at:
            name = site[0]
            if name not in shapes and name.endswith("_bar") and \
                    name[:-4] in bases:
                site = name[:-4], site[1]
            join(binder, site)
    jet = find(JET)
    return {name: tuple(n == dim and find((name, i)) == jet
                        for i, n in enumerate(shape))
            for name, shape in shapes.items()}
