"""Gauge operators from Noether records, stage conditions, and BRST checks.

The inverse second Noether theorem turns each record into gauge-symmetry
components by applying the eta operators to its rows and contracting with
ghost jets (ghosts multiply from the left):

    u^A = sum over Lambda of  c^r_Lambda * eta(Delta_r^{A,.})^Lambda

Stage-k records produce the operators u^(k) acting on stage-(k-1) ghosts the
same way.  The BRST operator b adds gamma to the ascent operator
sum_k u^(k); the input rules of ``gvc.noether`` make both odd.  Its
nilpotency residuals are reported bucketed by ghost polynomial degree,
which pinpoints whether the gauge symmetry, the bracket structure, or a
higher structure function is at fault.
"""
from __future__ import annotations

from .algebra import GradedPoly, _mul_terms
from .jets import EvolutionaryDerivation, eta, nilpotency_residuals, \
    prolong_apply
from .noether import comp_label, _entry, _residuals, stored, stored_kt


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


def gauge_from_ni(theory):
    """The odd stages u = u^(0), u^(1), ... built from the records via eta."""
    reg = theory.registry
    return [EvolutionaryDerivation(
                reg, _components_from_records(reg, theory.stage_records(k)),
                name="u^(%d)" % k if k else "u")
            for k in [0] + theory.stage_numbers()]


def stored_gauge(theory):
    """The theory's gauge stages, built once by ``gauge_from_ni``."""
    return stored(theory, "gauge", gauge_from_ni)


def check_gauge_symmetry(theory, k, alpha=None):
    """Stage-k gauge-symmetry condition.

    Stage 0 asks whether u is a variational symmetry of the Lagrangian,
    that is whether every stage-0 delta_KT(Delta_r) vanishes (see
    ``gvc.noether``), and, when the theory declares the operator explicitly,
    that the declared components agree with the ones rebuilt from the
    records via eta.  For k >= 1 the residual applies u^(k) through the
    ghost dependence of the previous stage's components; alpha maps those
    component keys to antifield certificates subtracted as delta_KT(alpha)
    for identities that close only on shell.
    """
    gauge = stored_gauge(theory)
    if alpha is None:
        alpha = theory.alpha(k)
    if k == 0:
        ok = all(res.is_zero() for res in _residuals(theory, 0))
        entries = [_entry("gauge", "u", "pass" if ok else "fail")]
        if theory.gauge_candidate:
            derived = {key: val for u in gauge
                       for key, val in u.components.items()}
            reg = theory.registry
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
    keys = sorted(lower.components)
    lowers = prolong_apply(upper, [lower.components[key] for key in keys])
    certs = [alpha[key] for key in keys if key in alpha]
    images = iter(prolong_apply(stored_kt(theory), certs) if certs else ())
    entries = []
    for (name, comp), res in zip(keys, lowers):
        if (name, comp) in alpha:
            res = res - next(images)
            status = "pass" if res.is_zero() else "fail"
            entries.append(_entry("gauge", comp_label(name, comp), status, res,
                                  note="stage %d, with alpha certificate" % k))
        elif res.is_zero():
            entries.append(_entry("gauge", comp_label(name, comp), "pass",
                                  note="stage %d" % k))
        else:
            entries.append(_entry(
                "gauge", comp_label(name, comp), "unverified-on-shell", res,
                note="stage %d: on-shell condition unverified without alpha" % k))
    return entries


def lie_antibracket_defect(u, gamma1):
    """Componentwise residual of (u + gamma^(1)) applied to u's components."""
    b1 = u if gamma1.is_zero() else u + gamma1
    keys = sorted(u.components)
    return dict(zip(keys, prolong_apply(b1, [u.components[k] for k in keys])))


def _brst_residuals(theory):
    """The nonzero images of b's components under b, where b is the ascent
    operator sum_k u^(k) plus gamma."""
    u, *upper = stored_gauge(theory)
    return nilpotency_residuals(
        sum(upper, u) + EvolutionaryDerivation(theory.registry, theory.gamma))


def check_brst_nilpotent(theory):
    """Apply b, the ascent operator sum_k u^(k) plus gamma, to each
    component of b; bucket any residual by ghost degree."""
    entries = []
    for (name, comp), res in stored(theory, "brst", _brst_residuals).items():
        degrees = ",".join(str(d) for d in res.ghost_degree_parts())
        entries.append(_entry("brst", comp_label(name, comp), "fail", res,
                              note="failing ghost degrees: %s" % degrees))
    return entries or [_entry("brst", "b", "pass")]


def check_antibracket(theory):
    """Report on (u + gamma^(1))(u); confirms the commutator normalization
    [u,u] = -2 gamma(u) when the defect vanishes."""
    u = stored_gauge(theory)[0]
    defects = lie_antibracket_defect(u, EvolutionaryDerivation(u.reg, {
        key: val for key, val in theory.gamma.items()
        if u.reg.symbols[key[0]].stage == 0}))
    bad = {k: v for k, v in defects.items() if not v.is_zero()}
    if not bad:
        return [_entry("antibracket", "u", "pass",
                       note="commutator normalization [u,u] = -2*gamma(u) holds")]
    return [_entry("antibracket", comp_label(n, c), "fail", v)
            for (n, c), v in sorted(bad.items())]
