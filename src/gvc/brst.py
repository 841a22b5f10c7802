"""Gauge operators from Noether records, stage conditions, and BRST checks.

The inverse second Noether theorem turns each record into gauge-symmetry
components by applying the eta operators to its rows and contracting with
ghost jets (ghosts multiply from the left):

    u^A = sum over Lambda of  c^r_Lambda * eta(Delta_r^{A,.})^Lambda

Stage-k records produce the operators u^(k) acting on stage-(k-1) ghosts the
same way.  BRST candidates add antifield-free gamma terms on ghosts; their
nilpotency residuals are reported bucketed by ghost polynomial degree, which
pinpoints whether the gauge symmetry, the bracket structure, or a higher
structure function is at fault.
"""
from __future__ import annotations

from .algebra import KIND_ANTIFIELD, KIND_GHOST, GradedPoly, GvcError, \
    _mul_terms
from .jets import EvolutionaryDerivation, eta, nilpotency_residuals, \
    prolong_apply
from .noether import comp_label, _entry, _residuals, stored, stored_kt


class GaugeOperator:
    """The stages u = u^(0), u^(1), ..., each an odd ghost-number-1 derivation."""

    __slots__ = ("stages",)

    def __init__(self, stages):
        self.stages = list(stages)
        for k, u in enumerate(self.stages):
            if u.parity != 1 and not u.is_zero():
                raise GvcError("stage-%d gauge operator must be odd" % k)

    def total(self):
        """The ascent operator: the sum of all stages."""
        out = self.stages[0]
        for u in self.stages[1:]:
            out = out + u
        return out


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
    """Build the gauge operator of a theory from its records via eta."""
    reg = theory.registry
    return GaugeOperator(
        EvolutionaryDerivation(
            reg, _components_from_records(reg, theory.stage_records(k)),
            name="u^(%d)" % k if k else "u")
        for k in [0] + theory.stage_numbers())


def stored_gauge(theory):
    """The theory's gauge operator, built once by ``gauge_from_ni``."""
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
            derived = {}
            for u in gauge.stages:
                derived.update(u.components)
            reg = theory.registry
            for key, declared in sorted(theory.gauge_candidate.items()):
                res = derived.get(key, reg.zero) - declared
                entries.append(_entry(
                    "gauge", comp_label(*key),
                    "pass" if res.is_zero() else "fail", res,
                    note="declared operator vs records"))
        return entries
    if k >= len(gauge.stages):
        return [_entry("gauge", "stage %d" % k, "pass",
                       note="no stage-%d records declared" % k)]
    upper, lower = gauge.stages[k], gauge.stages[k - 1]
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
    b1 = u if gamma1 is None or gamma1.is_zero() else u + gamma1
    keys = sorted(u.components)
    return dict(zip(keys, prolong_apply(b1, [u.components[k] for k in keys])))


class BRSTCandidate:
    """A gauge operator together with antifield-free gamma terms on ghosts."""

    __slots__ = ("gauge", "gamma")

    def __init__(self, gauge, gamma):
        self.gauge = gauge
        reg = gauge.stages[0].reg
        comps = dict(gamma or {})
        for (name, comp), val in comps.items():
            sym = reg.symbols.get(name)
            if sym is None or sym.kind != KIND_GHOST:
                raise GvcError("gamma may only act on ghosts, not %r" % name)
            if any(v.symbol.kind == KIND_ANTIFIELD for v in val.variables()):
                raise GvcError("gamma component for %s contains antifields"
                               % comp_label(name, comp))
        self.gamma = EvolutionaryDerivation(reg, comps, name="gamma")

    def operator(self):
        b = self.gauge.total()
        if not self.gamma.is_zero():
            b = b + self.gamma
        return b


def check_brst_nilpotent(candidate):
    """Apply b to each component of b; bucket any residual by ghost degree."""
    entries = []
    for (name, comp), res in nilpotency_residuals(candidate.operator()).items():
        degrees = ",".join(str(d) for d in res.ghost_degree_parts())
        entries.append(_entry("brst", comp_label(name, comp), "fail", res,
                              note="failing ghost degrees: %s" % degrees))
    return entries or [_entry("brst", "b", "pass")]


def brst_candidate(theory):
    """Assemble the theory's BRST candidate: constructed gauge stages plus
    any declared gamma components (gamma = 0 when none are declared)."""
    return BRSTCandidate(stored_gauge(theory), theory.gamma)


def check_antibracket(theory):
    """Report on (u + gamma^(1))(u); confirms the commutator normalization
    [u,u] = -2 gamma(u) when the defect vanishes."""
    u = stored_gauge(theory).stages[0]
    reg = u.reg
    gamma1 = {}
    for (name, comp), val in theory.gamma.items():
        sym = reg.symbols[name]
        if sym.kind == KIND_GHOST and sym.stage == 0:
            gamma1[(name, comp)] = val
    g1 = EvolutionaryDerivation(reg, gamma1) if gamma1 else None
    defects = lie_antibracket_defect(u, g1)
    bad = {k: v for k, v in defects.items() if not v.is_zero()}
    if not bad:
        return [_entry("antibracket", "u", "pass",
                       note="commutator normalization [u,u] = -2*gamma(u) holds")]
    return [_entry("antibracket", comp_label(n, c), "fail", v)
            for (n, c), v in sorted(bad.items())]
