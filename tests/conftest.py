"""Shared test fixtures: parsed theories are reused across modules.

Parsing the shipped fixture files is cheap but not free, and several test
modules exercise the same theories; everything here is parse-once.  A
check stores what it derives (the Euler-Lagrange result, the Koszul-Tate
residuals, the gauge operator) in the theory's ``derived`` memo, so a
shared theory is warm after its first check.  Its fields are read-only
(negative controls rebuild), so sharing is safe for verdicts; a test that
counts how often something is built must parse a fresh theory.
"""
import sys
from bisect import bisect_left
from contextlib import contextmanager
from fractions import Fraction
from itertools import count, groupby, product

import pytest
from hypothesis import settings

import gvc.brst
import gvc.cli
import gvc.evaluator
import gvc.grammar
import gvc.parser
from gvc.algebra import GradedPoly, GvcError, _add_into, _mul_terms, \
    sorting_sign
from gvc.jets import EvolutionaryDerivation, prolong_apply, total_derivative
from gvc.noether import NoetherRecord
from gvc.evaluator import _Eval
from gvc.grammar import _Parser
from gvc.parser import TheorySpec, parse_theory
from gvc.symmetry import direction_swap
from gvc.theories import build_fixture, load_builtin
from gvc.variational import eta, euler_lagrange

settings.register_profile("gvc", deadline=None, max_examples=60)
settings.load_profile("gvc")


# A synthetic reducible theory whose stage identity closes only on shell:
# it carries an h certificate on the stage record and alpha certificates for
# the stage-1 gauge condition, which none of the shipped fixtures need.
TOY_TEXT = """
theory toy;
dim 1;
field y even;
field z even;
L = 1/2 * (y[;0] - z)^2;
ni ca[] { (y) = 1; (z; 0) = -1; }
ni cb[] { (y) = 1 + z - y[;0]; (z; 0) = -1; (z) = -z[;0] + y[;0,0]; }
stage 1 ps[] { (ca) = 1; (cb) = -1; h { y_bar * z_bar }; }
gauge { (y) = ca + (1 + z - y[;0]) * cb;
        (z) = ca[;0] + (-z[;0] + y[;0,0]) * cb + cb[;0];
        (ca) = ps; (cb) = -ps; }
alpha 1 { (y) = -ps * z_bar; (z) = ps * y_bar; }
"""

_CACHE = {}


def unlimited_str(c):
    """``str(c)`` with the interpreter's str-to-int digit limit lifted for
    the call alone."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(c)
    finally:
        sys.set_int_max_str_digits(limit)


def fresh(name):
    """A newly parsed theory, with nothing derived yet."""
    if name == "bf4":
        return build_fixture("bf", n=4, p=1, q=2)
    if name == "toy":
        return parse_theory(TOY_TEXT)
    return load_builtin(name)


def cached(name):
    """Parse-once accessor, also usable outside fixture contexts."""
    if name not in _CACHE:
        _CACHE[name] = fresh(name)
    return _CACHE[name]


@pytest.fixture(scope="session")
def bf():
    return cached("bf")


@pytest.fixture(scope="session")
def bf4():
    return cached("bf4")


@pytest.fixture(scope="session")
def toy():
    return cached("toy")


@pytest.fixture(scope="session")
def ym4():
    return cached("ym4")


@pytest.fixture(scope="session")
def cs3():
    return cached("cs3")


@pytest.fixture(scope="session")
def ym4_super():
    return cached("ym4_super")


def all_pass(entries):
    assert entries, "no report entries"
    for e in entries:
        assert e["status"] == "pass", e
    return entries


def binding(name):
    """The loaded ``gvc`` modules that bind ``name``, its own and each that
    imports it, so that a counter patched into each sees every call,
    however the package is split into modules."""
    return [mod for key, mod in sorted(sys.modules.items())
            if key.split(".")[0] == "gvc" and name in vars(mod)]


def count_calls(monkeypatch, name):
    """Record every call of ``name`` made through the gvc modules that hold
    it (``binding``); returns the call list."""
    calls = []
    for mod in binding(name):
        def counted(*args, _fn=getattr(mod, name), **kwargs):
            calls.append(args)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    return calls


# -- the exact maps, the oracle of the parser's certificates ------------------

def swapped_key(swap, key):
    """(sigma's image of a monomial key, its sign), as ``DirectionSwap.key``
    gives it, or None on a miss: this map interns nothing, so a variable
    whose image was never interned misses."""
    reg, out, sign = swap.reg, [], 1
    for entry in key:
        v = reg.by_rank[entry if entry >= 0 else ~entry]
        comp, s = swap.component(v.symbol, v.component)
        w = reg._vars.get((v.symbol.name, comp, swap.index(v.index)))
        if w is None:
            return None
        out.append(w.entry)
        sign *= s
    n = bisect_left(key, 0)
    if n > 1:
        sign *= sorting_sign(out[:n])
    return tuple(sorted(out)), sign


def maps_to(swap, terms, target):
    """The sign e with sigma(``terms``) = e * ``target`` exactly, one sign
    for every term (1 for two empty dicts), or 0 when there is none; it
    stops at the first term whose image misses.  When ``terms`` is
    ``target`` it tests each pair {k, sigma k} of keys once: sigma is an
    involution, and the test at k, which reads the coefficient at sigma k,
    is the test at sigma k."""
    if len(terms) != len(target):
        return 0
    done = set() if terms is target else None
    sign = 0
    for key, c in terms.items():
        if done is not None and key in done:
            continue
        img = swapped_key(swap, key)
        d = None if img is None else target.get(img[0])
        if d is None or abs(d) != abs(c):
            return 0
        e = 1 if d == img[1] * c else -1
        if sign != e:
            if sign:
                return 0
            sign = e
        if done is not None:
            done.add(img[0])
    return sign or 1


def part_sign(swap, parts):
    """The one sign e with P^{sigma X} = e s sigma(P^X) at every component X
    of every derivation P of ``parts``, s the sign of canonicalizing sigma
    X, 0 when there is none, and None when they have no component."""
    reg, sign = swap.reg, 0
    for part in parts:
        comps = part.components
        for (name, comp), val in comps.items():
            image, s = swap.component(reg.symbols[name], comp)
            image = comps.get((name, image))
            e = image is not None and s * maps_to(swap, val.terms, image.terms)
            if not e or sign not in (0, e):
                return 0
            sign = e
    return sign or None


def label_signs(swap, polys):
    """{label: the sign e with sigma(polys[label]) = e polys[sigma label],
    0 when there is none} over the record labels of ``polys``."""
    reg = swap.reg
    return {(ghost, comp): maps_to(swap, poly.terms, polys[
        ghost, swap.component(reg.symbols[ghost], comp)[0]].terms)
        for (ghost, comp), poly in polys.items()}


def typed_swap_holds(swap):
    """That sigma, acting on the slots that carry a direction, is the
    automorphism the certificates' proofs assume: each such slot has range
    dim, a symmetric family moves all its slots or none, an antifield moves
    its base's, and on every interned variable sigma keeps the parity and
    is an involution up to the one sign of canonicalizing."""
    reg = swap.reg
    for sym in reg.symbols.values():
        assert all(n == reg.dim for n, moved in
                   zip(sym.slots, sym.directions) if moved), sym
        assert not sym.symmetry or len(set(sym.directions)) < 2, sym
        if sym.name.endswith("_bar"):
            assert sym.directions == \
                reg.symbols[sym.name[:-4]].directions, sym
    for v in list(reg.by_rank):
        image, s = swap.component(v.symbol, v.component)
        back, t = swap.component(v.symbol, image)
        assert (back, s * t, v.symbol.parity(image)) == \
            (v.component, 1, v.parity), v
    return True


def uncertified(theory):
    """A copy of theory, on its registry, with nothing derived and so no
    certificate: a theory built through the API, whose cold builds take
    every pass in full."""
    out = gvc.cli._rebuild(theory)
    out.derived.clear()
    return out


def certified_swaps_hold(theory):
    """The lams of the swaps of theory's record "certificate", once both
    of the parser's certificates are checked by the exact maps:

    - each swap of "certificate" maps L to +-L and every stage-0 record's
      Delta to the sign the source gives its family times the Delta at
      the image label;
    - each swap of "b certificate", with its sign e, maps the rows of
      every record of every stage to e times those at the image label,
      and every part of b, gamma and each u^(k) built without orbits, by
      the one sign e onto its components (``part_sign``).

    Each swap checked is first checked to be an automorphism
    (``typed_swap_holds``); a swap that changes a parity is never a
    candidate, and is not checked."""
    reg, lag = theory.registry, theory.lagrangian.terms
    deltas = {(rec.ghost, rec.component): rec.delta_poly(reg)
              for rec in theory.records}
    for lam, signs in theory.derived["certificate"].items():
        swap = direction_swap(reg, lam)
        if swap is not None:
            assert typed_swap_holds(swap)
            assert maps_to(swap, lag, lag), lam
            assert label_signs(swap, deltas) == {
                label: signs[label[0]] for label in deltas}, lam
    rows = {(rec.ghost, rec.component): NoetherRecord(
        rec.ghost, rec.component, rec.rows, rec.stage).delta_poly(reg)
        for k in [0] + theory.stage_numbers()
        for rec in theory.stage_records(k)}
    parts = gvc.brst.stored_gauge(uncertified(theory)) + [
        gvc.brst._gamma(theory)]
    for lam, e in theory.derived["b certificate"].items():
        swap = direction_swap(reg, lam)
        if swap is not None:
            assert typed_swap_holds(swap)
            assert label_signs(swap, rows) == dict.fromkeys(rows, e), lam
            assert part_sign(swap, parts) in (e, None), lam
    return set(theory.derived["certificate"])


def two_routes(build, checks):
    """({memo key: object}, entries, report digest) of the checks on a
    theory that ``build()`` returns cold, twice: as built, with the stage-0
    residuals taken by orbit, the representatives' sums by parts pruned, u
    built by orbit and b's images taken per component orbit, and for
    reference on its copy with no certificate (``uncertified``), which
    takes every pass in full and runs eta on every record.  The memo
    objects are the residuals, the components of each gauge stage, the
    images of b and of the stages and the ``antibracket``; the entries are
    each check's own, unrendered, in the order of ``checks``."""
    theory = build()
    out = []
    for th in (theory, uncertified(theory)):
        entries = [e for check in checks
                   for e in gvc.cli._RUNNERS[check](th)]
        digest = gvc.cli.build_report(th, list(checks))["canonical_sha256"]
        memo = {key: th.derived.get(key) for key in
                ("residuals", "brst", "stage images", "antibracket")}
        memo["gauge"] = [u.components for u in th.derived.get("gauge", ())]
        out.append((memo, entries, digest))
    return out


def count_passes(monkeypatch, theory, checks):
    """The number of polynomials of each ``prolong_apply`` pass that the
    checks make on theory: those of ``gvc.jets.update_images``, which takes
    every stored image, and those of the triviality search."""
    calls = []
    with monkeypatch.context() as mp:
        for mod in binding("prolong_apply"):
            def counted(u, polys, *symmetries, _fn=mod.prolong_apply):
                calls.append(len(polys))
                return _fn(u, polys, *symmetries)
            mp.setattr(mod, "prolong_apply", counted)
        gvc.cli.run_checks(theory, list(checks))
    return calls


def by_orbit_and_full_pass(build, checks=("ni", "kt", "extended")):
    """(residuals, ni verdicts, report digest) of each route of
    ``two_routes``."""
    return [(memo["residuals"], [(e["target"], e["status"]) for e in entries
                                 if e["check"] == "ni"], digest)
            for memo, entries, digest in two_routes(build, checks)]


def _as_fractions(p):
    return GradedPoly(p.reg, {k: Fraction(c) for k, c in p.terms.items()})


def fraction_twin(theory):
    """The theory with L, every row and every h stored with ``Fraction``
    coefficients, whole ones included; it must print and digest alike."""
    def records(recs):
        return [NoetherRecord(r.ghost, r.component,
                              {k: _as_fractions(c) for k, c in r.rows.items()},
                              r.stage, r.h and _as_fractions(r.h))
                for r in recs]
    return TheorySpec(theory.name, theory.registry,
                      _as_fractions(theory.lagrangian),
                      records(theory.records),
                      {k: records(v) for k, v in theory.stages.items()},
                      theory.gauge_candidate, theory.gamma, theory.alphas)


# -- oracles of the jet layer ---------------------------------------------------

def iterated_derivative(p, index):
    """d_Lambda = d_{lam1} ... d_{lamk}; the empty multi-index is the identity."""
    for lam in index:
        p = total_derivative(p, lam)
    return p


def prolong_oracle(u, p):
    """u applied to p with no memo: the sum over the jet variables
    v = s^A_Lambda of p of d_Lambda(upsilon^A) times the partial of p by v,
    on u's side, each coefficient derived afresh from upsilon^A."""
    out = p.reg.zero
    for v, part in p.partials("right" if u.right else "left"):
        base = u.components.get((v.symbol.name, v.component))
        if base is not None:
            coef = iterated_derivative(base, v.index)
            out = out + (part * coef if u.right else coef * part)
    return out


def nilpotency_residuals(u):
    """{component key: u(upsilon^A)} for every component of u, zeros
    dropped, from one ``prolong_apply`` pass.  For odd u the prolongation
    of u squares to zero exactly when every residual vanishes."""
    keys = sorted(u.components)
    images = prolong_apply(u, [u.components[key] for key in keys])
    return {key: r for key, r in zip(keys, images) if not r.is_zero()}


def derivation_sum(reg, parts):
    """The left derivation whose components are the sums of the parts'."""
    comps = {}
    for part in parts:
        for key, val in part.components.items():
            comps[key] = comps[key] + val if key in comps else val
    return EvolutionaryDerivation(reg, comps)


def brst_operator(theory):
    """b, the ascent operator sum_k u^(k) plus gamma, as one derivation."""
    reg = theory.registry
    return derivation_sum(reg, gvc.brst.stored_gauge(theory) + [
        EvolutionaryDerivation(reg, theory.gamma)])


# -- oracles of the variational layer -----------------------------------------

def variational_pairing(u, L):
    """The Euler-Lagrange pairing of u with L: sum_A upsilon^A * E_A for a
    left derivation, the mirrored sum_A E^(right)_A * upsilon^A for a right
    one.  Either way it differs from the Lie derivative of L by a total
    divergence, so u is a variational symmetry of L exactly when every
    Euler-Lagrange derivative of the pairing vanishes."""
    el = euler_lagrange(L, {name for (name, _comp) in u.components},
                        "right" if u.right else "left")
    out = {}
    for (name, comp), ups in sorted(u.components.items()):
        e = el.get(name, comp)
        if u.right:
            _mul_terms(e.terms, ups.terms, out)
        else:
            _mul_terms(ups.terms, e.terms, out)
    return GradedPoly(L.reg, out)


def extended_lagrangian(theory):
    """L_e = L + sum over all records of ghost * Delta (ghosts multiply from
    the left); delta_KT is a variational symmetry of L_e exactly when every
    identity holds."""
    reg = theory.registry
    out = dict(theory.lagrangian.terms)
    for k in [0] + theory.stage_numbers():
        for rec in theory.stage_records(k):
            _mul_terms(reg.var(rec.ghost, rec.component).terms,
                       rec.delta_poly(reg).terms, out)
    return GradedPoly(reg, out)


def eta_pairing(f, phi):
    """sum_Lambda f^Lambda * d_Lambda(phi), the pairing eta is adjoint for."""
    acc = {}
    for index, coeff in f.items():
        _mul_terms(coeff.terms, iterated_derivative(phi, index).terms, acc)
    return GradedPoly(phi.reg, acc)


def degree_parts(p, names=None):
    """{degree: part} of p, the degree counting the factors of the symbols
    in ``names`` (every factor when None)."""
    parts = {}
    for key, c, factors in p.monomials():
        d = sum(1 for v in factors if names is None or v.symbol.name in names)
        parts.setdefault(d, {})[key] = c
    return {d: GradedPoly(p.reg, t) for d, t in sorted(parts.items())}


def constant_term(p):
    return next((c for _, c, factors in p.monomials() if not factors), 0)


def divergence_witness(p, wrt=None):
    """An explicit divergence witness: ``(c, sigma)`` with
    p = c + sum_lam d_lam(sigma[lam]), checked exactly here, or None when
    an Euler-Lagrange derivative of p for the symbols in ``wrt`` (every
    declared symbol by default) is nonzero.

    ``wrt`` must cover p: every non-constant monomial holds a variable of
    one of its symbols.  The witness is built degree by degree in those
    symbols.  Writing the degree-d part as (1/d) * sum f^Lambda_A s^A_Lambda
    over their jets, with right partials f, and splitting each family with
    the eta operators leaves boundary terms whose zero-order coefficients
    are the (right) Euler-Lagrange derivatives, which vanish here.  So a
    reconstruction of p proves that the derivatives of ``wrt`` decide.
    """
    reg = p.reg
    names = set(reg.symbols) if wrt is None else set(wrt)
    if not euler_lagrange(p, names).is_zero():
        return None
    constant = constant_term(p)
    only = {(name, comp) for name in names
            for comp in reg.symbols[name].components()}
    sigma = [{} for _ in range(reg.dim)]
    for d, q in degree_parts(p, names).items():
        if d == 0:
            assert q == reg.const(constant), "wrt does not cover p"
            continue
        for (name, comp), group in groupby(
                q.partials("right", only),
                lambda vp: (vp[0].symbol.name, vp[0].component)):
            base = reg.var(name, comp)
            for index, coeff in eta(
                    {v.index: part for v, part in group}).items():
                if index:
                    w = Fraction(-1 if len(index) & 1 else 1, d)
                    term = iterated_derivative(coeff * base, index[1:])
                    _add_into(sigma[index[0]], term.scale(w).terms)
    sigma = tuple(GradedPoly(reg, terms) for terms in sigma)
    back = reg.const(constant)
    for lam, s in enumerate(sigma):
        back = back + total_derivative(s, lam)
    assert back == p, "the divergence witness does not reconstruct p"
    return constant, sigma


# -- the parser's tree walker, the oracle of its compiled evaluator -----------

def _assignments(binders, env):
    """Yield ``env`` extended by every value of the ``(index, range)``
    binders, a fresh dict each time, the last binder varying fastest."""
    names = [var for var, _rng in binders]
    for values in product(*(range(rng) for _var, rng in binders)):
        out = dict(env)
        out.update(zip(names, values))
        yield out


def _index_value(atom, env):
    if atom[0] == "int":
        return atom[1]
    try:
        return env[atom[1]]
    except KeyError:
        raise GvcError("unbound index %r" % atom[1]) from None


class WalkerEval(_Eval):
    """The evaluator the parser had before it compiled statements: it
    re-walks a statement's tree for every binding, with one env dict per
    binding, every ``sum`` in source order and every record and key on its
    own: no factor hoisted, no value taken by orbit.  ``statement`` and
    ``key`` give it the compiled evaluator's interface, and compile the
    statement as the parser does only for its clean flag and signs, so
    ``parse_theory`` runs on it under ``walker_eval()`` and makes the same
    certificates."""

    def orbit(self, *_args):
        return None

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
            try:
                binders, _directed = self.resolve(node[1], node[4])
            except GvcError as exc:
                # parse_expr reports where the sum is
                raise gvc.evaluator._placed(exc, node[3])
            return self.accumulate((1, self.eval(node[2], inner, clean))
                                   for inner in _assignments(binders, env))
        _ref, name, comps, jets, tok = node
        try:
            return self.ref(name, comps, jets, env)
        except (GvcError, ValueError) as exc:
            # parse_expr reports where the reference is
            raise gvc.evaluator._placed(exc, tok)

    def ref(self, name, comps, jets, env):
        comps = tuple(_index_value(atom, env) for atom in comps)
        jets = tuple(_index_value(atom, env) for atom in jets)
        tab = self.reg.tables.get(name)
        if tab is None:
            return self.reg.var(name, comps, jets)
        if jets:
            raise GvcError("constant table %r cannot carry jet indices" % name)
        return tab[comps]

    def poly(self, node, env, clean):
        val = self.eval(node, env, clean)
        return val if isinstance(val, GradedPoly) else self.reg.const(val)

    def statement(self, node, binders, directed=()):
        _Eval.statement(self, node, binders, directed)
        names, clean = [var for var, _rng in binders], self.clean
        return lambda values: self.poly(node, dict(zip(names, values)), clean)

    def key(self, sym, comps, jets, node, binders, directed=()):
        _Eval.key(self, sym, comps, jets, node, binders, directed)
        bound, free, clean = dict(binders), {}, self.clean
        for atom, rng in zip(comps + jets,
                             sym.slots + (self.reg.dim,) * len(jets)):
            if atom[0] == "var" and atom[1] not in bound:
                free.setdefault(atom[1], rng)
        names = [var for var, _rng in binders]

        def expand(values):
            killed = []
            for inner in _assignments(list(free.items()),
                                      dict(zip(names, values))):
                canon, sign = sym.canonicalize(
                    _index_value(a, inner) for a in comps)
                jet = self.reg.checked_index(
                    sym, canon, (_index_value(a, inner) for a in jets))
                if sign == 0:
                    killed.append(inner)
                    continue
                value = self.poly(node, inner, clean)
                yield canon, jet, value if sign == 1 else value.scale(sign)
            if not clean:
                for inner in killed:
                    self.eval(node, inner, clean)
        return expand


@contextmanager
def walker_eval():
    """Parse with ``WalkerEval`` in place of the compiled evaluator."""
    compiled = gvc.parser._Eval
    gvc.parser._Eval = WalkerEval
    try:
        yield
    finally:
        gvc.parser._Eval = compiled


# -- the walks that the parser's binder sites replaced, as oracles -----------

def reference_directions(statements):
    """The typing of ``gvc.grammar._directions`` by one walk of every
    statement tree, with a scope dict of binders per ``sum``, record block
    and key, as it was before the parser noted each binder's sites."""
    root, shapes, bases, binder = {}, {}, set(), count()
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
        elif word == "L":
            walk(parts, {})
        elif word in ("ni", "stage"):
            _stage, gtok, binders, rows, h_node = parts
            ghost = gtok[1]
            shapes.setdefault(ghost, [rng for _var, rng in binders])
            bases.add(ghost)
            scope = {var: (ghost, i) for i, (var, _r) in enumerate(binders)}
            for row in rows:
                key(row, scope)
            if h_node is not None:
                walk(h_node, scope)
        elif word in ("gauge", "gamma", "alpha"):
            for row in parts[1] if word == "alpha" else parts:
                key(row, {})
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


def reference_reads(reg, names, body):
    """({index: the ranges of the slots it sits in}, the indices that sit
    in a jet or a direction slot) for the indices ``names`` within
    ``body``, where no inner ``sum`` binds them again: one scan of the
    tree, the registry read for each reference."""
    found, directed = {var: set() for var in names}, set()
    todo, dim = [(body, ())], reg.dim
    while todo:
        n, hidden = todo.pop()
        kind = n[0]
        if kind == "ref":
            sym = reg.symbols.get(n[1])
            tab = reg.tables.get(n[1])
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


def reference_resolve(reg, binders, body):
    """``_Eval.resolve`` by a scan of the ``sum``'s ``body``
    (``reference_reads``): (binders, directed), or the same error."""
    found, directed = reference_reads(reg, [var for var, _rng in binders],
                                      body)
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
    return out, [rng == reg.dim and var in directed for var, rng in out]


def _resolved(resolve):
    """What ``resolve()`` gives: (binders, directed), or its error."""
    try:
        return resolve()
    except GvcError as exc:
        return str(exc)


class ReferenceEval(_Eval):
    """``_Eval`` whose ``sum``s infer their ranges and directions by the
    scan of each body (``reference_resolve``), not from the binder sites
    that the parser notes: ``_sum`` hands ``resolve`` the body."""

    def _sum(self, binders, body, tok, _sites, scope, sign):
        return _Eval._sum(self, binders, body, tok, body, scope, sign)

    def resolve(self, binders, body):
        return reference_resolve(self.reg, binders, body)


class SiteCheckedEval(_Eval):
    """``_Eval`` that asserts, at each ``sum`` it compiles, that its binder
    sites give the ranges and directions (or the error) of the scan of its
    body, and at each key that its free indices are directions where the
    key's slots and the scan of its value made them ones."""

    def _sum(self, binders, body, tok, sites, scope, sign):
        assert _resolved(lambda: self.resolve(binders, sites)) == _resolved(
            lambda: reference_resolve(self.reg, binders, body)), binders
        return _Eval._sum(self, binders, body, tok, sites, scope, sign)

    def key(self, sym, comps, jets, node, binders, directed=()):
        expand = _Eval.key(self, sym, comps, jets, node, binders, directed)
        free, moved, dim = {}, set(), self.reg.dim
        for atom, rng, move in zip(comps + jets,
                                   sym.slots + (dim,) * len(jets),
                                   sym.directions + (True,) * len(jets)):
            if atom[0] == "var" and atom[1] not in dict(binders):
                free.setdefault(atom[1], rng)
                if move:
                    moved.add(atom[1])
        moved |= reference_reads(self.reg, list(free), node)[1]
        first = len(binders)
        assert self.directed[first:first + len(free)] == [
            rng == dim and var in moved for var, rng in free.items()], free
        return expand


@contextmanager
def _parsing_with(directions, evaluator):
    """Parse with ``directions`` and ``evaluator`` in place of the typing
    and of the compiled evaluator."""
    typing, compiled = gvc.parser._directions, gvc.parser._Eval
    gvc.parser._directions, gvc.parser._Eval = directions, evaluator
    try:
        yield
    finally:
        gvc.parser._directions, gvc.parser._Eval = typing, compiled


def reference_typing():
    """Parse with the oracles in place of the typing from binder sites
    and of ``sum`` range inference from them."""
    return _parsing_with(
        lambda statements, _sites: reference_directions(statements),
        ReferenceEval)


def assert_sites_match_walks(text):
    """Assert that the typing of ``text`` and every ``sum``'s ranges and
    directions, and each key's free directions, are the oracles'."""
    statements, sites, _error = _Parser(text).statements()
    assert gvc.grammar._directions(statements, sites) == \
        reference_directions(statements), text
    with _parsing_with(gvc.parser._directions, SiteCheckedEval):
        try:
            parse_theory(text)
        except GvcError:
            pass


def parse_outcome(text):
    """The error ``parse_theory(text)`` raises, (message, line, column),
    or L's ``pretty(5)`` and both certificates of the theory."""
    try:
        theory = parse_theory(text)
    except GvcError as exc:
        return str(exc), getattr(exc, "line", None), getattr(exc, "col", None)
    return (theory.lagrangian.pretty(5), theory.derived["certificate"],
            theory.derived["b certificate"])


def in_global_order(p):
    """The terms of ``p`` in the global variable order, each coefficient
    with its type, which the coefficient rule fixes: nothing of the rank
    order that interning left."""
    return [(tuple((v.key, n) for v, n in evens), tuple(v.key for v in odds),
             c, type(c)) for _key, c, evens, odds in p.global_terms()]


def parsed_objects(th):
    """Every polynomial a parse makes, by label, as ``in_global_order``,
    and the two certificates."""
    out = {"L": in_global_order(th.lagrangian), "certificates": (
        th.derived["certificate"], th.derived["b certificate"])}
    for k in [0] + th.stage_numbers():
        for rec in th.stage_records(k):
            for key, row in rec.rows.items():
                out[rec.label(), key] = in_global_order(row)
            if rec.h is not None:
                out[rec.label(), "h"] = in_global_order(rec.h)
    blocks = [("gauge", th.gauge_candidate), ("gamma", th.gamma)]
    blocks += [("alpha%d" % k, comps) for k, comps in th.alphas.items()]
    for what, comps in blocks:
        for key, value in comps.items():
            out[what, key] = in_global_order(value)
    return out


def _outcome(parse):
    """What ``parse()`` gives: its objects, or the error it raises."""
    try:
        return parse()
    except Exception as exc:  # noqa: BLE001 (any error must match)
        return type(exc).__name__, str(exc)


def both_routes(parse):
    """``parse()``'s outcome, asserted equal to its outcome under
    ``walker_eval()``: the compiled evaluator hoists factors and takes
    values by orbit, the walker neither."""
    compiled = _outcome(parse)
    with walker_eval():
        walked = _outcome(parse)
    assert compiled == walked
    return compiled


def parsed_text(text):
    """A ``both_routes`` parse of the theory ``text``."""
    return lambda: parsed_objects(parse_theory(text))
