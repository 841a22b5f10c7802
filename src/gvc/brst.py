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
edited theory updates both by the difference of its parts (``_table``).
``brst`` sums the pairs at each X, b(b^X), and buckets the residuals by
ghost degree, which pinpoints whether the gauge symmetry, the bracket
structure, or a higher structure function is at fault; ``antibracket`` sums
u(u^A) + gamma(u^A), and the stage-k ``gauge`` check reads u^(k)(u^(k-1)).
"""
from __future__ import annotations

from .algebra import GradedPoly, _add_into, _mul_terms
from .jets import EvolutionaryDerivation, eta, prolong_apply
from .noether import EMPTY, comp_label, _changed, _entry, _minus, _plus, \
    _residuals, stored, stored_kt


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


def _table(table, plan, old):
    """{(P, Q, X): P(Q^X)} for each (P, parts) of ``plan`` with P nonzero,
    each Q of parts and each component X of Q, from the parent's ``table``
    and parts (``old``, by name):

        P'(Q'^X) = P(Q^X) + (P' - P)(Q'^X) + P(Q'^X - Q^X),

    one pass of each P' - P over the Q'^X and one of each parent P over
    the Q'^X - Q^X that the edit changed, so every pair gets a pass or a
    parent entry.  From ``EMPTY`` that is one pass of each P over every
    Q^X."""
    out = {}
    for p, parts in plan:
        if p.is_zero():
            continue
        todo = [((p.name, q.name, x), val) for q in parts
                for x, val in sorted(q.components.items())]
        for pair, _val in todo:
            out[pair] = table.get(pair)
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
                    out[pair] = _plus(out[pair], image)
    return out


def _stage_pairs(theory, parent):
    gauge = stored_gauge(theory)
    return _table(parent.get("pairs", {}), [(u, gauge) for u in gauge],
                  {u.name: u for u in parent.get("gauge", ())})


def _gamma_pairs(theory, parent):
    """gamma on every part of b, and every gauge stage on gamma."""
    reg = theory.registry
    gauge = stored_gauge(theory)
    gamma = EvolutionaryDerivation(reg, theory.gamma, name="gamma")
    old = {u.name: u for u in parent.get("gauge", ())}
    if parent.get("gamma") is not None:
        old["gamma"] = EvolutionaryDerivation(reg, parent.get("gamma"),
                                              name="gamma")
    return _table(parent.get("gamma pairs", {}),
                  [(gamma, gauge + [gamma])] + [(u, [gamma]) for u in gauge],
                  old)


def stored_pairs(theory):
    """b's table: {(P, Q, X): P(Q^X)} for the parts P and Q of b, by name."""
    return {**stored(theory, "pairs", _stage_pairs),
            **stored(theory, "gamma pairs", _gamma_pairs)}


def _sums(theory, pick):
    """{X: the sum of the pairs P(Q^X) with pick(P, Q)}, where nonzero."""
    sums = {}
    for (p, q, key), image in stored_pairs(theory).items():
        if pick(p, q):
            _add_into(sums.setdefault(key, {}), image.terms)
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
    pairs = stored(theory, "pairs", _stage_pairs)
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
