"""Theory-spec parsing: a theory built statement by statement.

``parse_theory`` reads a source with the grammar of ``gvc.grammar`` and
evaluates each statement with the compiled evaluator of ``gvc.evaluator``
(``_Eval``), as it comes.  The rows that separate statements of a block
give one key add up; within one statement, keys that a symmetric family
maps to one canonical key count once and must agree, and component blocks
reject conflicting values for one key.  A clean record family that holds a
sum takes each record past the first of its orbit as the image of an
earlier one (``gvc.symmetry``).

Blocks that mention ghosts (gauge, gamma, alpha) must come after all record
blocks, field and jet_order statements.  The input rules of
``gvc.noether`` are checked at the statement or block that breaks them, and
the error comes there.  Parsing is deterministic.
"""
from __future__ import annotations

import itertools
from types import MappingProxyType

from .algebra import (KIND_ANTIFIELD, KIND_FIELD, KIND_GHOST, GvcError,
                      GradedPoly, Registry)
# ``_Eval`` is looked up here at each call, so a test can swap it
from .evaluator import _Eval, _agree, _at, _sign
from .grammar import MAX_NESTING, ParseError, _Parser, _directions
from .noether import (Frozen, NoetherRecord, delta_parity, require_gamma,
                      require_lagrangian, require_record, require_theory)
from .symmetry import orbit_step

__all__ = ["MAX_NESTING", "ParseError", "TheorySpec", "parse_expr",
           "parse_theory"]


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

    def build_records(self, tok, stage, gtok, binders, rows_stmts, h_node):
        ghost, reg = gtok[1], self.reg
        if ghost in reg.symbols:
            self.p.error("ghost %r declared twice" % ghost, tok)
        # the names the registry declares for the family, checked before
        # any row is evaluated
        for name in (ghost, ghost + "_bar"):
            if name in reg.symbols or name in reg.tables:
                self.p.error("name %r is already declared" % name, gtok)
        evaluator, statements = self.evaluator(), []
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
