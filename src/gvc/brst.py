"""Gauge operators from Noether records, stage conditions, and BRST checks.

The inverse second Noether theorem turns each record into gauge-symmetry
components by applying the eta operators to its rows and contracting with
ghost jets (ghosts multiply from the left):

    u^A = sum over Lambda of  c^r_Lambda * eta(Delta_r^{A,.})^Lambda

Stage-k records produce the operators u^(k) acting on stage-(k-1) ghosts the
same way.  A cold build runs eta on the first record of each stage-0 orbit
alone and maps its components onto the other members
(``gvc.noether._orbits``).  The BRST operator b adds gamma to the ascent
operator sum_k u^(k); the input rules of ``gvc.noether`` make both odd.

Every condition on b is a component of b^2, and prolongation is linear in
the derivation, so the sum of the parts' images sum_{P,Q} P(Q^X) is one
image b(b^X) of b, itself one derivation, the sum of its parts.  ``brst``
stores one ``update_images`` of b over its components and buckets each
nonzero image by ghost degree, which pinpoints whether the gauge symmetry,
the bracket structure, or a higher structure function is at fault; the
stage-k ``gauge`` check reads one of u^(k) over the components of
u^(k-1); ``antibracket`` reads both (``_antibracket``).  A cold build takes
both at one component X per orbit of the transpositions of base directions
that the parser proves map every part of b to one sign times itself
(``_orbits``): the image at another key is zero with its first key's, and
else computed.
"""
from __future__ import annotations

from .algebra import GradedPoly, _add_into, _mul_terms
from .jets import EvolutionaryDerivation, eta, update_images
from .noether import EMPTY, comp_label, _changed, _entry, _minus, _plus, \
    _residuals, stored, stored_kt
from .noether import _orbits as _record_orbits
from .symmetry import b_orbits


def _record_components(reg, rec):
    """{(name, component): the term dict of rec's part of u^A} for each
    field or ghost A that rec's rows target, by eta."""
    per, comps = {}, {}
    for (name, comp, index), coeff in rec.rows.items():
        per.setdefault((name, comp), {})[index] = coeff
    for key, fmap in per.items():
        acc = comps[key] = {}
        for index, coeff in eta(fmap).items():
            _mul_terms(reg.var(rec.ghost, rec.component, index).terms,
                       coeff.terms, acc)
    return comps


def _orbit_components(theory):
    """``_record_components`` of every stage-0 record, eta run on the
    first record of each orbit alone: a member i with step (j, sigma, e)
    of ``gvc.noether._orbits`` gets u_i^{sigma A} = e s_A sigma(u_j^A),
    s_A the sign of canonicalizing sigma A (the proof is in
    ``gvc.symmetry``)."""
    reg, recs = theory.registry, theory.records
    orbit, _fixing, steps = _record_orbits(theory)
    out = {i: _record_components(reg, rec) for i, rec in enumerate(recs)
           if i not in orbit}
    for i, (j, swap, e) in steps.items():
        out[i] = {}
        for (name, comp), terms in out[j].items():
            image, s = swap.component(reg.symbols[name], comp)
            out[i][name, image] = swap.image(terms, e * s)
    return [out[i] for i in range(len(recs))]


def gauge_from_ni(theory, parent=EMPTY):
    """The odd stages u = u^(0), u^(1), ... built from the records via eta:
    each the parent's stage plus the components of its records' changes
    (``_changed``), u being linear in the rows.  Built cold, u takes its
    records by orbit (``_orbit_components``)."""
    reg = theory.registry
    old = {u.name: u for u in parent.get("gauge", ())}
    changes = list(_changed(theory, parent).values())
    out = []
    for k in [0] + theory.stage_numbers():
        name = "u^(%d)" % k if k else "u"
        parts = _orbit_components(theory) if parent is EMPTY and not k \
            else [_record_components(reg, rec) for rec in changes
                  if rec.stage == k]
        comps = {}
        for part in parts:
            for key, terms in part.items():
                _add_into(comps.setdefault(key, {}), terms)
        out.append(_plus(old.get(name), EvolutionaryDerivation(reg, {
            key: GradedPoly(reg, terms) for key, terms in comps.items()},
            name=name)))
    return out


def stored_gauge(theory):
    """The theory's gauge stages, built once by ``gauge_from_ni``."""
    return stored(theory, "gauge", gauge_from_ni)


def _gamma(theory):
    return EvolutionaryDerivation(theory.registry, theory.gamma, name="gamma")


def _orbits(theory):
    """{X: the first key of X's orbit} for each component key X of b's
    parts whose orbit holds an earlier key, the orbit map of
    ``update_images``, from the parser's "b certificate" by
    ``gvc.symmetry.b_orbits``; the proof is in ``gvc.symmetry``."""
    labels = sorted({x for p in stored_gauge(theory) + [_gamma(theory)]
                     for x in p.components})
    return b_orbits(theory.registry, labels,
                    theory.derived.get("b certificate", {}))


def _b(reg, gauge, gamma):
    """b = gamma + u + u^(1) + ..., one derivation; a component that one
    part alone has is that part's own object."""
    return sum(gauge, EvolutionaryDerivation(reg, gamma, name="b"))


def _over(op, target, was, was_target, old, orbit):
    """``update_images`` of op over the components of the derivation
    ``target``, from the parent's ``was`` and ``was_target``, pruned by the
    ``orbit`` map of a cold build."""
    return update_images(op, [
        (x, val, was_target and was_target.components.get(x))
        for x, val in sorted(target.components.items())], was, old,
        (orbit or {}, {}))


def _b_images(theory, parent, orbit=None):
    """{X: b(b^X)} for each component X of b, updated from the parent's:
    b(b^X) = sum over the parts P, Q of b of P(Q^X), prolongation being
    linear in the derivation."""
    reg = theory.registry
    b = _b(reg, stored_gauge(theory), theory.gamma)
    was = None if parent is EMPTY else _b(reg, parent.get("gauge"),
                                          parent.get("gamma"))
    return _over(b, b, was, was, parent.get("brst"), orbit)


def _stage_images(theory, parent, orbit=None):
    """{u^(k) by name: {X: u^(k)(u^(k-1)^X)} for each component X of
    u^(k-1)} for each stage k >= 1, updated from the parent's."""
    gauge = stored_gauge(theory)
    was = {u.name: u for u in parent.get("gauge", ())}
    old = parent.get("stage images", {})
    return {upper.name: _over(upper, lower, was.get(upper.name),
                              was.get(lower.name), old.get(upper.name), orbit)
            for upper, lower in zip(gauge[1:], gauge)}


def _images(theory):
    """[b's images, the stage images], each stored.  Both are built at
    once, so that when they are built cold one ``_orbits`` map prunes
    them."""
    orbit = None
    if all(theory.derived.get(key) is None
           for key in ("brst", "stage images")):
        orbit = _orbits(theory)
    return [stored(theory, key, lambda th, parent, build=build:
                   build(th, parent, orbit))
            for key, build in (("brst", _b_images),
                               ("stage images", _stage_images))]


def _antibracket(theory, _parent):
    """{A: (u + gamma)(u^A)} at each component A of u where it is not zero.

    b^A = u^A, because gamma acts only on ghosts (``require_gamma``) and
    u^(k) for k >= 1 only on stage-(k-1) ghosts.  u^A holds no ghost of
    stage 1 or above, so u^(k) for k >= 2 does not act on it, and b(u^A) =
    u(u^A) + gamma(u^A) + u^(1)(u^A): the antibracket is b(b^A) less the
    stage-1 image u^(1)(u^A), and takes no pass of its own."""
    u, *higher = stored_gauge(theory)
    brst, stages = _images(theory)
    ascent = stages[higher[0].name] if higher else {}
    out = {}
    for key in sorted(u.components):
        res = _minus(brst[key], ascent.get(key))
        if res.terms:
            out[key] = res
    return out


def _alpha_images(theory, _parent):
    """{(k, X): delta_KT(alpha^X)} for every alpha certificate, one pass."""
    return update_images(stored_kt(theory), [
        ((k, key), val, None) for k in theory.alphas
        for key, val in sorted(theory.alpha(k).items())])


def check_gauge_symmetry(theory, k):
    """Stage-k gauge-symmetry condition.

    Stage 0 asks whether u is a variational symmetry of the Lagrangian,
    that is whether every stage-0 delta_KT(Delta_r) vanishes (see
    ``gvc.noether``), and, when the theory declares the operator explicitly,
    that the declared components agree with the ones rebuilt from the
    records via eta.  For k >= 1 the residual at each component X of
    u^(k-1) is the stage image u^(k)(u^(k-1)^X), less delta_KT(alpha^X) for
    the stage-k alpha certificates of identities that close only on shell.
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
    images = _images(theory)[1][gauge[k].name]
    certs = stored(theory, "alpha", _alpha_images)
    entries = []
    for key, res in images.items():
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
    """b(b^X) at each component X of b; any residual is bucketed by ghost
    degree."""
    entries = []
    for (name, comp), res in _images(theory)[0].items():
        if res.terms:
            degrees = ",".join(str(d) for d in res.ghost_degree_parts())
            entries.append(_entry("brst", comp_label(name, comp), "fail", res,
                                  note="failing ghost degrees: %s" % degrees))
    return entries or [_entry("brst", "b", "pass")]


def check_antibracket(theory):
    """(u + gamma)(u^A) = u(u^A) + gamma(u^A) at each component u^A of u,
    where gamma meets only stage-0 ghosts, so acts as gamma_0; it vanishes
    exactly when the commutator normalization [u,u] = -2 gamma(u) holds."""
    bad = stored(theory, "antibracket", _antibracket)
    if not bad:
        return [_entry("antibracket", "u", "pass",
                       note="commutator normalization [u,u] = -2*gamma(u) holds")]
    return [_entry("antibracket", comp_label(n, c), "fail", v)
            for (n, c), v in bad.items()]
