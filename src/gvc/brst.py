"""Gauge operators from Noether records, stage conditions, and BRST checks.

The inverse second Noether theorem turns each record into gauge-symmetry
components by applying the eta operators to its rows and contracting with
ghost jets (ghosts multiply from the left):

    u^A = sum over Lambda of  c^r_Lambda * eta(Delta_r^{A,.})^Lambda

Stage-k records produce the operators u^(k) acting on stage-(k-1) ghosts the
same way.  The BRST operator b adds gamma to the ascent operator
sum_k u^(k); the input rules of ``gvc.noether`` make both odd.

Every condition on b is a component of b^2, so one table of images P(Q^X),
for the parts P, Q in {u, u^(1), ..., gamma} and the components X of Q,
serves them all; the memo keeps the pairs that involve gamma apart, and an
edited theory adds the difference of its parts to both (``_table``).
``brst`` sums the pairs at each X, b(b^X), and buckets the residuals by
ghost degree, which pinpoints whether the gauge symmetry, the bracket
structure, or a higher structure function is at fault; ``antibracket`` sums
u(u^A) + gamma(u^A), and the stage-k ``gauge`` check reads u^(k)(u^(k-1)).
A cold build takes the pairs at one component X per orbit of the
transpositions of base directions that map every part of b to one sign
times itself (``_orbits``), and owes the rest: ``brst`` and
``antibracket`` pass when their sums there are zero, and a nonzero sum, or
anything else that reads another pair, takes the rest first.
"""
from __future__ import annotations

from .algebra import GradedPoly, _add_into, _mul_terms
from .jets import EvolutionaryDerivation, eta, prolong_apply
from .noether import EMPTY, comp_label, _candidates, _changed, _entry, \
    _first_of_orbits, _minus, _plus, _residuals, stored, stored_kt


def _components_from_records(reg, records):
    comps = {}
    for rec in records:
        per = {}
        for (name, comp, index), coeff in rec.rows.items():
            per.setdefault((name, comp), {})[index] = coeff
        for (name, comp), fmap in per.items():
            acc = comps.setdefault((name, comp), {})
            for index, coeff in eta(fmap).items():
                _mul_terms(reg.var(rec.ghost, rec.component, index).terms,
                           coeff.terms, acc)
    return {key: GradedPoly(reg, terms) for key, terms in comps.items()}


def gauge_from_ni(theory, parent=EMPTY):
    """The odd stages u = u^(0), u^(1), ... built from the records via eta:
    each the parent's stage plus the components of its records' changes
    (``_changed``), u being linear in the rows."""
    reg = theory.registry
    old = {u.name: u for u in parent.get("gauge", ())}
    changes = list(_changed(theory, parent).values())
    out = []
    for k in [0] + theory.stage_numbers():
        name = "u^(%d)" % k if k else "u"
        out.append(_plus(old.get(name), EvolutionaryDerivation(
            reg, _components_from_records(
                reg, [rec for rec in changes if rec.stage == k]), name=name)))
    return out


def stored_gauge(theory):
    """The theory's gauge stages, built once by ``gauge_from_ni``."""
    return stored(theory, "gauge", gauge_from_ni)


class _Cold(dict):
    """Pairs {(P, Q, X): P(Q^X)} of b's table, by name, built with nothing
    to inherit.  Pruned by ``orbits`` ({X: its orbit's first key}, see
    ``_orbits``), it holds the pairs at the first keys and owes the rest,
    each with its P: ``complete`` takes them, one pass of each P over its
    members, and stores them."""

    __slots__ = ("orbits", "owed")

    def __init__(self, orbits=None):
        super().__init__()
        self.orbits, self.owed = orbits or {}, []

    def take(self, p, items):
        """Store p(val) at each (pair, val) of items, from one pass."""
        if items:
            for (pair, _val), image in zip(items, prolong_apply(
                    p, [val for _pair, val in items])):
                self[pair] = image

    def complete(self):
        for p, items in self.owed:
            self.take(p, items)
        self.orbits, self.owed = {}, []
        return self

    def pairs(self):
        return set(self).union(pair for _p, items in self.owed
                               for pair, _val in items)


class _Table:
    """b's table {(P, Q, X): P(Q^X)}, by name, as the sum of the pairs
    ``cold``, a ``_Cold``, and ``edits``, what the edits since the cold
    build added to them.  Every pair of ``cold`` is one of the table's, so
    an edit reads no pair that its cold build owes."""

    __slots__ = ("cold", "edits")

    def __init__(self, cold, edits):
        self.cold, self.edits = cold, edits

    def entries(self):
        """Every pair, the cold build completed first."""
        out = dict(self.cold.complete())
        for pair, diff in self.edits.items():
            out[pair] = _plus(out.get(pair), diff)
        return out


def _table(table, plan, old, orbits=None):
    """b's table of P(Q^X) for each (P, parts) of ``plan`` with P nonzero,
    each Q of parts and each component X of Q, as a ``_Table``.

    With no parent ``table`` it is built cold: one pass of each P over
    every Q^X, or, with ``orbits``, over the Q^X at the first key of each
    orbit, the rest owed.  An edited theory adds to the parent's edits the
    difference at each pair,

        P'(Q'^X) - P(Q^X) = (P' - P)(Q'^X) + P(Q'^X - Q^X),

    from the parent's parts (``old``, by name): one pass of each P' - P
    over the Q'^X and one of each parent P over the Q'^X - Q^X that the
    edit changed.  An edit that drops a pair of the cold build (a part or
    a component gone) makes the parent's whole table, completed, its new
    cold build, so every pair of a cold build stays the table's."""
    todos = [(p, [((p.name, q.name, x), val) for q in parts
                  for x, val in sorted(q.components.items())])
             for p, parts in plan if not p.is_zero()]
    if table is None:
        cold = _Cold(orbits)
        for p, todo in todos:
            owed = [item for item in todo if item[0][2] in cold.orbits]
            if owed:
                cold.owed.append((p, owed))
            cold.take(p, [item for item in todo
                          if item[0][2] not in cold.orbits])
        return _Table(cold, {})
    pairs = {pair for _p, todo in todos for pair, _val in todo}
    cold, edits = table.cold, table.edits
    if not cold.pairs() <= pairs:
        cold, edits = _Cold(), {}
        cold.update((pair, entry) for pair, entry in table.entries().items()
                    if pair in pairs)
    edits = {pair: diff for pair, diff in edits.items() if pair in pairs}
    for p, todo in todos:
        was = old.get(p.name)
        changed = []
        if was is not None and not was.is_zero():
            for pair, val in todo:
                q = old.get(pair[1])
                before = None if q is None else q.components.get(pair[2])
                if val is not before:
                    diff = _minus(val, before)
                    if diff.terms:
                        changed.append((pair, diff))
        for u, items in ((_minus(p, was), todo), (was, changed)):
            if items and not u.is_zero():
                for (pair, _val), image in zip(items, prolong_apply(
                        u, [val for _pair, val in items])):
                    edits[pair] = _plus(edits.get(pair), image)
    return _Table(cold, edits)


def _gamma(theory):
    return EvolutionaryDerivation(theory.registry, theory.gamma, name="gamma")


def _symmetries(reg, parts, labels):
    """The moved lists of the ``_candidates`` sigma of b's component keys
    ``labels`` that map every part P of b to e P, one sign e for all:
    P^{sigma X} = e s sigma(P^X) at each component X of each P, s the sign
    of canonicalizing sigma X.  The components are tested smallest first,
    and the test stops at the first miss.  sigma is an involution, so a
    component whose image key sorts before it was tested from there."""
    items = sorted((len(val.terms), i, x) for i, p in enumerate(parts)
                   for x, val in p.components.items())
    out = []
    for swap, moved in _candidates(reg, labels):
        sign = 0
        for _n, i, x in items:
            comps = parts[i].components
            comp, s = swap.component(reg.symbols[x[0]], x[1])
            image = comps.get((x[0], comp))
            if image is not None and (x[0], comp) < x:
                continue
            e = image is not None and s * swap.maps_to(comps[x].terms,
                                                       image.terms)
            if not e or sign not in (0, e):
                break
            sign = e
        else:
            out.append(moved)
    return out


def _orbits(theory):
    """{X: the first key of X's orbit} for each component key X of b's
    parts whose orbit under ``_symmetries`` holds an earlier key.

    Such a sigma is an automorphism of the jet algebra with sigma d_lam =
    d_{sigma lam} sigma, and sigma P sigma = e P on the generators, so on
    every jet: P(sigma F) = e sigma(P(F)) for each part P and polynomial F.
    With Q^{sigma X} = e s sigma(Q^X), each pair has P(Q^{sigma X}) =
    e^2 s sigma(P(Q^X)) = s sigma(P(Q^X)), and so has every sum of pairs at
    sigma X: b(b^{sigma X}), and u(u^{sigma A}) + gamma(u^{sigma A}), are
    zero exactly when they are at X.  One e for all parts is what makes
    the signs of a sum's pairs agree."""
    parts = stored_gauge(theory) + [_gamma(theory)]
    labels = sorted({x for p in parts for x in p.components})
    orbit = _first_of_orbits(len(labels), _symmetries(
        theory.registry, parts, labels))
    return {labels[i]: labels[j] for i, j in orbit.items()}


def _stage_pairs(theory, parent, orbits=None):
    gauge = stored_gauge(theory)
    return _table(parent.get("pairs"), [(u, gauge) for u in gauge],
                  {u.name: u for u in parent.get("gauge", ())}, orbits)


def _gamma_pairs(theory, parent, orbits=None):
    """gamma on every part of b, and every gauge stage on gamma."""
    reg = theory.registry
    gauge = stored_gauge(theory)
    gamma = _gamma(theory)
    old = {u.name: u for u in parent.get("gauge", ())}
    if parent.get("gamma") is not None:
        old["gamma"] = EvolutionaryDerivation(reg, parent.get("gamma"),
                                              name="gamma")
    return _table(parent.get("gamma pairs"),
                  [(gamma, gauge + [gamma])] + [(u, [gamma]) for u in gauge],
                  old, orbits)


def _tables(theory):
    """b's two tables, the pairs of gauge stages and those with gamma.
    When both are built cold, one ``_orbits`` test prunes them alike."""
    orbits = None
    if all(theory.derived.get(key) is None
           for key in ("pairs", "gamma pairs")):
        orbits = _orbits(theory)
    return [stored(theory, "pairs",
                   lambda th, parent: _stage_pairs(th, parent, orbits)),
            stored(theory, "gamma pairs",
                   lambda th, parent: _gamma_pairs(th, parent, orbits))]


def _sum_into(sums, pairs, pick):
    for (p, q, key), image in pairs.items():
        if pick(p, q):
            _add_into(sums.setdefault(key, {}), image.terms)
    return sums


def _sums(theory, pick):
    """{X: the sum of the pairs P(Q^X) with pick(P, Q)}, where nonzero.

    The cold builds of the two tables count only when pruned alike, by one
    ``_orbits`` test: then their sums at the first keys of the orbits
    decide, for when every one is zero, so is every other.  Otherwise, or
    when one is not zero, they are completed and summed in full, so a sum
    reported is never a mapped one.  The edits' differences add to that."""
    tables = _tables(theory)
    colds = [table.cold for table in tables]
    if colds[0].orbits is not colds[1].orbits:
        for cold in colds:
            cold.complete()
    sums = {}
    for cold in colds:
        _sum_into(sums, cold, pick)
    if colds[0].orbits and any(sums.values()):
        sums = {}
        for cold in colds:
            _sum_into(sums, cold.complete(), pick)
    for table in tables:
        _sum_into(sums, table.edits, pick)
    return {key: GradedPoly(theory.registry, terms)
            for key, terms in sorted(sums.items()) if terms}


def _alpha_images(theory, _parent):
    """{(k, X): delta_KT(alpha^X)} for every alpha certificate, one pass."""
    todo = sorted((k, key) for k in theory.alphas for key in theory.alpha(k))
    return dict(zip(todo, prolong_apply(stored_kt(theory), [
        theory.alpha(k)[key] for k, key in todo]))) if todo else {}


def check_gauge_symmetry(theory, k):
    """Stage-k gauge-symmetry condition.

    Stage 0 asks whether u is a variational symmetry of the Lagrangian,
    that is whether every stage-0 delta_KT(Delta_r) vanishes (see
    ``gvc.noether``), and, when the theory declares the operator explicitly,
    that the declared components agree with the ones rebuilt from the
    records via eta.  For k >= 1 the residual is the pairs u^(k)(u^(k-1))
    of b's table, less delta_KT(alpha) for the stage-k alpha certificates of
    identities that close only on shell.
    """
    gauge = stored_gauge(theory)
    reg = theory.registry
    if k == 0:
        ok = all(res.is_zero() for res in _residuals(theory, 0))
        entries = [_entry("gauge", "u", "pass" if ok else "fail")]
        if theory.gauge_candidate:
            derived = {key: val for u in gauge
                       for key, val in u.components.items()}
            for key, declared in sorted(theory.gauge_candidate.items()):
                res = derived.get(key, reg.zero) - declared
                entries.append(_entry(
                    "gauge", comp_label(*key),
                    "pass" if res.is_zero() else "fail", res,
                    note="declared operator vs records"))
        return entries
    if k >= len(gauge):
        return [_entry("gauge", "stage %d" % k, "pass",
                       note="no stage-%d records declared" % k)]
    upper, lower = gauge[k], gauge[k - 1]
    pairs = stored(theory, "pairs", _stage_pairs).entries()
    certs = stored(theory, "alpha", _alpha_images)
    entries = []
    for key in sorted(lower.components):
        res = pairs.get((upper.name, lower.name, key), reg.zero)
        if (k, key) in certs:
            res = res - certs[k, key]
            status = "pass" if res.is_zero() else "fail"
            note = "stage %d, with alpha certificate" % k
        elif res.is_zero():
            status, note = "pass", "stage %d" % k
        else:
            status = "unverified-on-shell"
            note = "stage %d: on-shell condition unverified without alpha" % k
        entries.append(_entry("gauge", comp_label(*key), status, res, note))
    return entries


def check_brst_nilpotent(theory):
    """b(b^X) at each component X of b, the sum of the pairs P(Q^X) over
    the parts P and Q of b; any residual is bucketed by ghost degree."""
    entries = []
    for (name, comp), res in stored(
            theory, "brst", lambda th, _: _sums(th, lambda p, q: True)).items():
        degrees = ",".join(str(d) for d in res.ghost_degree_parts())
        entries.append(_entry("brst", comp_label(name, comp), "fail", res,
                              note="failing ghost degrees: %s" % degrees))
    return entries or [_entry("brst", "b", "pass")]


def check_antibracket(theory):
    """(u + gamma)(u^A) = u(u^A) + gamma(u^A) at each component u^A of u,
    where gamma meets only stage-0 ghosts, so acts as gamma_0; it vanishes
    exactly when the commutator normalization [u,u] = -2 gamma(u) holds."""
    bad = stored(theory, "antibracket", lambda th, _: _sums(
        th, lambda p, q: q == "u" and p in ("u", "gamma")))
    if not bad:
        return [_entry("antibracket", "u", "pass",
                       note="commutator normalization [u,u] = -2*gamma(u) holds")]
    return [_entry("antibracket", comp_label(n, c), "fail", v)
            for (n, c), v in bad.items()]
