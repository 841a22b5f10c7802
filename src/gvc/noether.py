"""Noether identities, higher-stage identities, and the Koszul-Tate operator.

Identities form one ladder of records, one class for every stage.  A record
is a map of coefficient rows from (name, component, multi-index) to a
polynomial coefficient; its antifield polynomial is

    Delta_r = sum rows[(A, comp, Lambda)] * s_bar^A_{comp, Lambda}

with coefficients multiplying from the left.  The Koszul-Tate operator
delta_KT sends each field antifield to its Euler-Lagrange derivative and
each ghost antifield to its record's Delta, and the identity of record r is
the exact vanishing of delta_KT(Delta_r), computed by ``prolong_apply``: at
stage 0, where rows are keyed by fields, it is sum rows * d_Lambda(E_A); at
stage k >= 1, where rows are keyed by stage-(k-1) ghosts, it contracts the
stage-(k-1) Delta polynomials.  A stage-k >= 1 record may carry a quadratic
certificate h for an identity that only holds on shell; delta_KT(Delta_r)
then includes delta_KT(h).

The input rules live here, each stated where it is checked; ``TheorySpec``
checks them all through ``require_theory``, the parser at each statement,
and the checks trust them.  A theory and its records are values, read-only
once built; an edited theory is a new one (``cli._rebuild``).

Every check formats objects kept in the theory's memo, built on first use:
here E_A, delta_KT, the residuals delta_KT(Delta_r) and the triviality
witnesses, in ``gvc.brst`` the gauge stages and b's table.  ``DERIVED_FROM``
names the fields each is computed from, so that a copy with some fields
replaced keeps the rest.  Under the input rules the inverse second
Noether theorem gives E_{c^r}(sum_A u^A E_A) = delta_KT(Delta_r) for the
gauge operator u, and the same for delta_KT paired with the extended
Lagrangian.  So ``ni``, ``stages`` and ``kt`` (delta_KT(E_A) = 0) report the
residuals, and ``extended`` and the stage-0 ``gauge`` verdict pass exactly
when they vanish.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from types import MappingProxyType

from .algebra import (KIND_ANTIFIELD, KIND_FIELD, KIND_GHOST, GradedPoly,
                      GvcError, _add_into, _mul_terms)
from .jets import EvolutionaryDerivation, prolong_apply
from .variational import euler_lagrange


def comp_label(name, comp):
    return "%s[%s]" % (name, ",".join(str(i) for i in comp))


def _require_kinds(polys, kinds, what):
    """Refuse ``polys`` if one holds a variable of a kind not in ``kinds``."""
    bad = [v for p in polys for v in p.variables()
           if v.symbol.kind not in kinds]
    if bad:
        raise GvcError("%s, not %s" % (what, min(bad).name()))


class Frozen:
    """Slots set once, by ``_init``; assigning one afterwards raises."""

    __slots__ = ()

    def _init(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("%s is read-only" % type(self).__name__)


class NoetherRecord(Frozen):
    """One identity of the ladder, labelled by a ghost component.

    At stage 0 it is a Noether identity: rows keyed by fields, contracted
    with the Euler-Lagrange derivatives.  At stage k >= 1 it is an
    identity among identities: rows keyed by stage-(k-1) ghosts, contracted
    with their Delta polynomials.  ``h`` is the optional on-shell
    certificate of a stage-k >= 1 record, part of ``delta_poly``.
    """

    __slots__ = ("ghost", "component", "rows", "stage", "h")

    def __init__(self, ghost, component, rows, stage=0, h=None):
        if stage < 0:
            raise GvcError("record stages start at stage 0")
        if h is not None and stage == 0:
            raise GvcError("h certificates belong to records of stage 1 or above")
        self._init(ghost=ghost, component=tuple(component),
                   rows=MappingProxyType(dict(rows)), stage=stage, h=h)

    def label(self):
        return comp_label(self.ghost, self.component)

    def delta_poly(self, reg):
        """The full Delta polynomial: the linear part sum rows[(A, comp,
        Lambda)] * s_bar^A_{comp, Lambda} plus the certificate h."""
        out = {}
        for (name, comp, index), coeff in sorted(self.rows.items()):
            _mul_terms(coeff.terms, reg.var(name + "_bar", comp, index).terms,
                       out)
        out = GradedPoly(reg, out)
        return out if self.h is None else out + self.h


# ---------------------------------------------------------------------------
# the input rules


def _require_parity(poly, parity, message):
    """Refuse a nonzero ``poly`` not of ``parity``, named at message's %s."""
    if poly.terms and poly.parity() != parity:
        raise GvcError(message % ("even", "odd")[parity])


def require_lagrangian(L):
    """The input rule on L: even, and holding only fields."""
    _require_parity(L, 0, "L must be %s")
    _require_kinds([L], (KIND_FIELD,), "L must hold only fields")


def _row_parity(reg, key, coeff):
    """The parity of a record row's term coefficient * s_bar^A of Delta,
    [coefficient] + [A] + 1, or None when the coefficient mixes parities."""
    par = coeff.parity()
    if par is None:
        return None
    return par ^ reg.symbols[key[0]].parity(key[1]) ^ 1


def delta_parity(reg, rows):
    """The parity of the Delta that a record's rows stand for, read from the
    rows alone, or None when they mix parities.  It interns Delta's
    antifield jets in row order, so that parsing, not the first check to
    build Delta, fixes their ranks."""
    for name, comp, index in sorted(rows):
        reg.jet_var(name + "_bar", comp, index)
    parities = {_row_parity(reg, key, coeff) for key, coeff in rows.items()}
    return parities.pop() if len(parities) == 1 else None


def require_record(reg, rec, k):
    """The input rules on a stage-k record: a stage-k ghost component labels
    it, row coefficients hold only fields, h holds no ghost, and Delta_r, h
    included, has its ghost's parity, which makes every u^(k) odd."""
    label = rec.label()
    ghost = reg.symbols.get(rec.ghost)
    if ghost is None or ghost.kind != KIND_GHOST or ghost.stage != k or \
            rec.stage != k or rec.component not in ghost.components():
        raise GvcError("record %s does not belong at stage %d" % (label, k))
    _require_kinds(rec.rows.values(), (KIND_FIELD,), "record %s: row "
                   "coefficients must hold only fields" % label)
    parity = ghost.parity(rec.component)
    for key, coeff in rec.rows.items():
        if coeff.terms and _row_parity(reg, key, coeff) != parity:
            # the coefficient parity that gives the row Delta's parity
            want = parity ^ _row_parity(reg, key, reg.one)
            raise GvcError("record %s: the coefficient of %s must be %s, so "
                           "that Delta has its ghost's parity" % (
                               label, comp_label(*key[:2]),
                               ("even", "odd")[want]))
    if rec.h is not None:
        _require_kinds([rec.h], (KIND_FIELD, KIND_ANTIFIELD),
                       "record %s: h must hold no ghost" % label)
        _require_parity(rec.h, parity, "record %s: h must be %%s, the "
                        "parity of its ghost" % label)


def require_gamma(reg, key, value):
    """The input rules on gamma at ``key``: it acts on a ghost c, holds no
    antifield, and has parity [c] + 1, so that b = u + gamma is odd."""
    sym, label = reg.symbols.get(key[0]), comp_label(*key)
    if not sym or sym.kind != KIND_GHOST or key[1] not in sym.components():
        raise GvcError("gamma may only act on ghost components, not %s" % label)
    _require_kinds([value], (KIND_FIELD, KIND_GHOST),
                   "gamma component for %s must hold no antifield" % label)
    _require_parity(value, sym.parity(key[1]) ^ 1, "gamma component for %s"
                    " must be %%s, so that b is odd" % label)


def require_theory(theory):
    """Every input rule, checked once per ``TheorySpec``.  Two tie records
    together, as delta_KT pairs them: stage-k rows target field components
    at k = 0, else the labels of stage-(k-1) records; no label repeats."""
    reg = theory.registry
    require_lagrangian(theory.lagrangian)
    fields = {(name, comp) for name, sym in reg.symbols.items()
              if sym.kind == KIND_FIELD for comp in sym.components()}
    seen = set()
    for k in [0] + theory.stage_numbers():
        targets = fields if not k else {
            (r.ghost, r.component) for r in theory.stage_records(k - 1)}
        for rec in theory.stage_records(k):
            for name, comp, _index in sorted(rec.rows):
                if (name, comp) not in targets:
                    if name not in reg.symbols:
                        raise GvcError("unknown symbol %r" % name)
                    raise GvcError("stage %d row targets %s which %s" % (
                        k, comp_label(name, comp),
                        "has no stage-%d record" % (k - 1) if k
                        else "is not a field component"))
            require_record(reg, rec, k)
            if (rec.ghost, rec.component) in seen:
                raise GvcError("record %s is declared twice" % rec.label())
            seen.add((rec.ghost, rec.component))
    for key, value in theory.gamma.items():
        require_gamma(reg, key, value)


# The theory fields each object of ``TheorySpec.derived`` is computed from,
# one entry per memo key; the registry underlies them all.  "ni" maps each
# stage-0 record object to its residual, which reads only L and that
# record's rows (stage-0 rows sit on fields, and no stage-0 record has an
# h); so do the "triviality" witnesses, whose images under delta_KT are
# E_A.  "pairs" holds b's table of part-on-part images without gamma,
# "gamma pairs" the rest, "brst" and "antibracket" sums of them, and
# "alpha" the images delta_KT(alpha) (see ``gvc.brst``).  No object reads
# the name or the declared gauge operator.
DERIVED_FROM = {
    "el": ("registry", "lagrangian"),
    "ni": ("registry", "lagrangian"),
    "kt": ("registry", "lagrangian", "records", "stages"),
    "residuals": ("registry", "lagrangian", "records", "stages"),
    "triviality": ("registry", "lagrangian", "records"),
    "gauge": ("registry", "records", "stages"),
    "pairs": ("registry", "records", "stages"),
    "gamma pairs": ("registry", "records", "stages", "gamma"),
    "brst": ("registry", "records", "stages", "gamma"),
    "antibracket": ("registry", "records", "stages", "gamma"),
    "alpha": ("registry", "lagrangian", "records", "stages", "alphas"),
}
_UNREAD = {"name", "gauge_candidate"}


def stored(theory, key, build):
    """``build(theory)``, built on first use and kept in the theory's memo.
    A copy of a theory with some fields replaced shares every object whose
    ``DERIVED_FROM`` inputs it keeps (see ``inherited``).  Callers must not
    mutate the ``terms`` of a stored polynomial (see ``_add_into``)."""
    memo = theory.derived
    if key not in memo:
        memo[key] = build(theory)
    return memo[key]


def inherited(theory, replaced):
    """The objects of theory's memo that stay valid when the fields named in
    ``replaced`` change: those computed from none of them.  A field the
    table does not know invalidates them all."""
    replaced = set(replaced)
    if not replaced <= _UNREAD.union(*DERIVED_FROM.values()):
        return {}
    return {key: obj for key, obj in theory.derived.items()
            if replaced.isdisjoint(DERIVED_FROM[key])}


def _el(theory):
    return stored(theory, "el", lambda th: euler_lagrange(th.lagrangian))


def _entry(check, target, status, residual=None, note=""):
    out = {"check": check, "target": target, "status": status}
    if residual is not None and not residual.is_zero():
        out["residual"] = residual.pretty()
    if note:
        out["note"] = note
    return out


def _stage_residuals(theory, known=None):
    """{k: delta_KT(Delta_r) for every stage-k record r, in order}, one
    pass per stage; zero exactly when the identity holds, its h certificate
    included.  A stage-0 record in ``known``, a map from records to their
    residuals under the same L, keeps its residual; the pass takes the rest."""
    reg = theory.registry
    kt = stored_kt(theory)
    known = known or {}
    out = {}
    for k in [0] + theory.stage_numbers():
        recs = theory.stage_records(k)
        todo = [rec for rec in recs if k or rec not in known]
        images = prolong_apply(kt, [
            kt.components.get((rec.ghost + "_bar", rec.component), reg.zero)
            for rec in todo])
        # a residual's dict keeps the table its terms grew to before they
        # cancelled (grav4's reach ~88k terms), so keep right-sized copies
        found = {rec: GradedPoly(reg, dict(res.terms))
                 for rec, res in zip(todo, images)}
        out[k] = [found[rec] if rec in found else known[rec] for rec in recs]
    return out


def _stored_residuals(theory):
    """``_stage_residuals``, reusing the "ni" map that a copy with the same
    L inherits; "ni" then maps this theory's own stage-0 records, in a fresh
    dict, so an inherited one stays as its theory left it."""
    out = _stage_residuals(theory, theory.derived.get("ni"))
    theory.derived["ni"] = dict(zip(theory.records, out[0]))
    return out


def _residuals(theory, k):
    """The stored delta_KT(Delta_r) of the stage-k records, in order."""
    return stored(theory, "residuals", _stored_residuals).get(k, [])


def verify_ni(theory):
    """One report entry per Noether record; pass iff the residual vanishes."""
    if not theory.records:
        return [_entry("ni", "-", "pass", note="no records declared")]
    return [_entry("ni", r.label(), "pass" if res.is_zero() else "fail", res)
            for r, res in zip(theory.records, _residuals(theory, 0))]


def verify_stage_ni(theory, k):
    """Report entries for every stage-k record.

    A record passes when delta_KT(Delta_r) = 0, its h certificate included;
    a record with no certificate that does not close off shell is only
    'unverified-on-shell'.
    """
    recs = theory.stage_records(k)
    if not recs:
        return [_entry("stages", "stage %d" % k, "pass",
                       note="no stage-%d records declared" % k)]
    entries = []
    for rec, res in zip(recs, _residuals(theory, k)):
        status, note = "pass", ""
        if rec.h is not None:
            status = "pass" if res.is_zero() else "fail"
            note = "with h certificate"
        elif not res.is_zero():
            status = "unverified-on-shell"
            note = "on-shell identity unverified without certificate"
        entries.append(_entry("stages", rec.label(), status, res, note))
    return entries


def assemble_kt(theory):
    """The Koszul-Tate operator: the right derivation sending each antifield
    to the object it pairs with and everything else to zero."""
    reg = theory.registry
    comps = {}
    el = _el(theory)
    for name, sym in reg.symbols.items():
        if sym.kind == KIND_FIELD:
            for comp in sym.components():
                comps[(name + "_bar", comp)] = el.get(name, comp)
    for rec in (r for k in [0] + theory.stage_numbers()
                for r in theory.stage_records(k)):
        comps[(rec.ghost + "_bar", rec.component)] = rec.delta_poly(reg)
    return EvolutionaryDerivation(reg, comps, right=True, name="delta_KT")


def stored_kt(theory):
    """The theory's Koszul-Tate operator, built once by ``assemble_kt``."""
    return stored(theory, "kt", assemble_kt)


def check_kt_nilpotent(theory):
    """delta_KT squared, component by component: zero on the field
    antifields, whose images E_A hold only fields, and delta_KT(Delta_r)
    on the antifield of each record's ghost."""
    entries = [_entry("kt", comp_label(rec.ghost + "_bar", rec.component),
                      "fail", res)
               for k in [0] + theory.stage_numbers()
               for rec, res in zip(theory.stage_records(k),
                                   _residuals(theory, k))
               if not res.is_zero()]
    return entries or [_entry("kt", "delta_KT", "pass")]


def check_extended(theory):
    """Report entry: is delta_KT a variational symmetry of L_e?  Exactly
    when every stored residual vanishes."""
    ok = all(res.is_zero() for k in [0] + theory.stage_numbers()
             for res in _residuals(theory, k))
    return [_entry("extended", "L_e", "pass" if ok else "fail")]


def _solve_exact(columns, target):
    """Solve an exact rational linear system sum x_k columns[k] = target.

    Each column and the target are GradedPolys; rows of the matrix are
    indexed by the monomials that occur anywhere.  Returns a coefficient
    list or None when the system is inconsistent.
    """
    rows = {}
    ncol = len(columns)
    for k, poly in enumerate(columns):
        for key, c in poly.terms.items():
            rows.setdefault(key, [Fraction(0)] * (ncol + 1))[k] += c
    for key, c in target.terms.items():
        rows.setdefault(key, [Fraction(0)] * (ncol + 1))[ncol] += c
    M = [list(map(Fraction, r)) for r in rows.values()]
    pivots = []
    r0 = 0
    for col in range(ncol):
        sel = next((r for r in range(r0, len(M)) if M[r][col]), None)
        if sel is None:
            continue
        M[r0], M[sel] = M[sel], M[r0]
        inv = 1 / M[r0][col]
        M[r0] = [x * inv for x in M[r0]]
        for r in range(len(M)):
            if r != r0 and M[r][col]:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[r0])]
        pivots.append((r0, col))
        r0 += 1
    if any(M[r][ncol] for r in range(r0, len(M))):
        return None
    x = [Fraction(0)] * ncol
    for r, col in pivots:
        x[col] = M[r][ncol]
    return x


def solve_trivial_witness(theory, record):
    """Brute-force search for H with Delta_r = delta_KT(H), H quadratic in
    zero-order field antifields with constant rational coefficients.

    Returns the certificate polynomial, or None when no such H exists (which
    does not preclude triviality by a more general witness).
    """
    reg = theory.registry
    target = record.delta_poly(reg)
    # Every image delta_KT(xbar*ybar) carries exactly one surviving antifield
    # factor, and it is an undifferentiated field antifield.  A target
    # monomial of any other shape is outside the span, so reject it before
    # building the (expensive) image system.
    for _, _, evens, odds in target.global_terms():
        anti = [(v, e) for v, e in evens if v.symbol.kind == KIND_ANTIFIELD]
        anti += [(v, 1) for v in odds if v.symbol.kind == KIND_ANTIFIELD]
        if sum(e for _, e in anti) != 1:
            return None
        v = anti[0][0]
        if v.index or v.symbol.antifield_number != 1:
            return None
    # H holds only field antifields, whose images are the E_A that the
    # theory's stored operator shares
    kt = stored_kt(theory)
    bases = [reg.var(name, comp) for name, sym in sorted(reg.symbols.items())
             if sym.kind == KIND_ANTIFIELD and sym.antifield_number == 1
             for comp in sym.components()]
    monomials = [m for x, y in combinations_with_replacement(bases, 2)
                 if not (m := x * y).is_zero()]
    coeffs = _solve_exact(prolong_apply(kt, monomials), target)
    if coeffs is None:
        return None
    terms = {}
    for c, m in zip(coeffs, monomials):
        if c:
            _add_into(terms, m.scale(c).terms)
    H = GradedPoly(reg, terms)
    # a witness whose image misses the target certifies nothing
    return H if prolong_apply(kt, [H])[0] == target else None


def triviality_report(theory):
    """Classify each Noether record by the quadratic-witness search.

    A record that admits a boundary certificate is reported as trivial
    (``pass`` with the certificate size); when the search finds nothing the
    entry is ``skipped`` -- the ansatz is not exhaustive, so absence of a
    witness is not a disproof.  The witnesses are kept in the memo.
    """
    entries = []
    for rec, H in zip(theory.records, stored(theory, "triviality", lambda th: [
            solve_trivial_witness(th, r) for r in th.records])):
        if H is not None:
            entries.append(_entry(
                "triviality", rec.label(), "pass",
                note="trivial: boundary certificate with %d terms"
                % H.num_terms()))
        else:
            entries.append(_entry(
                "triviality", rec.label(), "skipped",
                note="not certified trivial by the quadratic ansatz"))
    if not theory.records:
        entries.append(_entry("triviality", "-", "pass",
                              note="no records declared"))
    return entries
