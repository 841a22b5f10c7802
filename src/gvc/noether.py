"""Noether identities, higher-stage identities, and the Koszul-Tate operator.

Identities form one ladder of records, one class for every stage.  A record
is a map of coefficient rows from (name, component, multi-index) to a
polynomial coefficient; its antifield polynomial is

    Delta_r = sum rows[(A, comp, Lambda)] * s_bar^A_{comp, Lambda}

with coefficients multiplying from the left.  The Koszul-Tate operator
delta_KT sends each field antifield to its Euler-Lagrange derivative and
each ghost antifield to its record's Delta, and the identity of record r is
the exact vanishing of delta_KT(Delta_r), one ``jets.update_images`` per
stage: at stage 0, where rows are keyed by fields, it is sum rows *
d_Lambda(E_A); at stage k >= 1, where rows are keyed by stage-(k-1) ghosts,
it contracts the stage-(k-1) Delta polynomials.  A stage-k >= 1 record may
carry a quadratic certificate h for an identity that only holds on shell;
delta_KT(Delta_r) then includes delta_KT(h).  A cold build takes the
stage-0 pass over one record per orbit (``_orbits``): a transposition of
base directions that maps L to +-L and each record's Delta to +- another's
maps their residuals alike, so a residual is zero exactly when its orbit's
first one is.  The transpositions that fix a first record prune its pass
the same way, one sum by parts per orbit of multi-indices, and
``gvc.brst`` maps the first record's gauge components onto the other
members.  Only the transpositions that the parser proves from the source
count (its "certificate"); the proofs are in ``gvc.symmetry``.

The input rules live here, each stated where it is checked; ``TheorySpec``
checks them all through ``require_theory``, the parser at each statement,
and the checks trust them.  A theory and its records are values, read-only
once built; an edited theory is a new one (``cli._rebuild``).

Every check formats objects kept in the theory's memo, built on first use:
here E_A, delta_KT, the residuals delta_KT(Delta_r) and the triviality
witnesses, in ``gvc.brst`` the gauge stages and their images.
``DERIVED_FROM`` names the fields each is computed from, so that a copy
with some fields replaced keeps the rest, and derives each object of
``READS`` that it changes from the parent's by the difference of the edit:
each is linear or bilinear in the fields.  Under the input rules the
inverse second Noether theorem gives E_{c^r}(sum_A u^A E_A) =
delta_KT(Delta_r) for the gauge operator u, and the same for delta_KT
paired with the extended Lagrangian.  So ``ni``, ``stages`` and ``kt``
(delta_KT(E_A) = 0) report the residuals, and ``extended`` and the stage-0
``gauge`` verdict pass exactly when they vanish.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from types import MappingProxyType

from .algebra import (KIND_ANTIFIELD, KIND_FIELD, KIND_GHOST, GradedPoly,
                      GvcError, _add_into, _mul_terms)
from .jets import EvolutionaryDerivation, prolong_apply, update_images
from .symmetry import record_orbits
from .variational import EulerLagrangeResult, euler_lagrange


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
# one entry per memo key; the registry underlies them all.  The parser's
# two certificates (``gvc.parser._TheoryBuilder.certificates``) each read
# the fields of the statements they prove: "certificate" L and the stage-0
# records, as "orbits", the stage-0 record orbits (``_orbits``) built from
# it, do; "b certificate" the records of every stage and gamma, which b's
# orbits read (``gvc.brst._orbits``).  The "triviality" witnesses read no
# stage k >= 1: their images under delta_KT are E_A.  "brst" holds the
# images b(b^X) of the BRST operator on its components, "stage images"
# those of each u^(k) on the components of u^(k-1), "antibracket" the
# difference of the two at the components of u, and "alpha" the images
# delta_KT(alpha) (see ``gvc.brst``).  No object reads the name or the
# declared gauge operator.
DERIVED_FROM = {
    "certificate": ("registry", "lagrangian", "records"),
    "orbits": ("registry", "lagrangian", "records"),
    "b certificate": ("registry", "records", "stages", "gamma"),
    "el": ("registry", "lagrangian"),
    "kt": ("registry", "lagrangian", "records", "stages"),
    "residuals": ("registry", "lagrangian", "records", "stages"),
    "triviality": ("registry", "lagrangian", "records"),
    "gauge": ("registry", "records", "stages"),
    "brst": ("registry", "records", "stages", "gamma"),
    "stage images": ("registry", "records", "stages"),
    "antibracket": ("registry", "records", "stages", "gamma"),
    "alpha": ("registry", "lagrangian", "records", "stages", "alphas"),
}
_UNREAD = {"name", "gauge_candidate"}

# The objects that an edited theory derives from its parent's by the
# difference of the edit, each being linear or bilinear in the fields, and
# what each update reads of the parent: its own version, the parent objects
# it adds to, and the parent fields ("records" maps the record labels of
# every stage to their records).  Primes mark the edited theory:
#   el:         E(L') = E(L) + E(L' - L);
#   kt:         delta' = delta + (E'_A - E_A on the field antifields, and
#               Delta'_r - Delta_r on each record's antifield);
#   gauge:      u' = u + u(the records the edit put in)
#               - u(the records they replaced);
#   residuals, brst, stage images:  the images of one operator on keyed
#               polynomials, op'(x') = op(x) + (op' - op)(x) + op'(x' - x)
#               (``jets.update_images``): delta_KT on each record label's
#               Delta_r, b on its components b^X, u^(k) on those of u^(k-1).
# Updating from ``EMPTY``, the parent with nothing, is the cold build.
READS = {
    "el": ("el", "lagrangian"),
    "kt": ("kt", "records"),
    "residuals": ("residuals", "kt", "records"),
    "gauge": ("gauge", "records"),
    "brst": ("brst", "gauge", "gamma"),
    "stage images": ("stage images", "gauge"),
}


class Parent(Frozen):
    """What the update of one memo object of an edited theory reads of the
    parent theory, by the names of ``READS``; never the parent itself, so
    a chain of edits keeps no ancestor alive.  A theory's memo holds one in
    place of an object still to be derived."""

    __slots__ = ("reads",)

    def __init__(self, reads):
        self._init(reads=MappingProxyType(reads))

    def get(self, name, default=None):
        return self.reads.get(name, default)


EMPTY = Parent({})


def _ladder(theory):
    """{(ghost, component): record} over every stage, in stage order."""
    return {(rec.ghost, rec.component): rec
            for k in [0] + theory.stage_numbers()
            for rec in theory.stage_records(k)}


def _bar(label):
    """The antifield component of a record label's ghost."""
    return label[0] + "_bar", label[1]


def _changed(theory, parent):
    """{label: change} for each record label whose record the edit put in,
    replaced or removed.  A change is a record whose rows and h are the
    new record's less the parent's: Delta and u are linear in them, and
    an edit shares every row it leaves alone, so a change holds only the
    rows the edit touched.  From ``EMPTY``, every record as it is."""
    was = parent.get("records", {})
    now = _ladder(theory)
    out = {label: rec for label, rec in now.items() if label not in was}
    for label, old in was.items():
        rec = now.get(label)
        if rec is old:
            continue
        rows = {} if rec is None else rec.rows
        diff = {key: _minus(c, old.rows.get(key)) for key, c in rows.items()
                if c is not old.rows.get(key)}
        diff.update((key, -c) for key, c in old.rows.items() if key not in rows)
        h = None if rec is None else rec.h
        h = None if h is old.h else -old.h if h is None else _minus(h, old.h)
        out[label] = NoetherRecord(old.ghost, old.component, {
            key: c for key, c in diff.items() if c.terms}, old.stage, h)
    return out


def _parent(theory, key):
    """What the update of memo object ``key`` of an edited copy of theory
    reads: the Parent that theory's memo holds for key when it has one,
    else what ``READS`` names; None when the memo lacks an object named."""
    memo = theory.derived
    if isinstance(memo[key], Parent):
        return memo[key]
    fields = {"lagrangian": theory.lagrangian, "gamma": theory.gamma,
              "records": _ladder(theory)}
    reads = {name: fields[name] if name in fields else memo.get(name)
             for name in READS[key]}
    if any(obj is None or isinstance(obj, Parent) for obj in reads.values()):
        return None
    return Parent(reads)


def stored(theory, key, build):
    """``build(theory, parent)``, built on first use and kept in the
    theory's memo.  ``parent`` is the ``Parent`` the memo holds for key
    when the theory is an edited copy (see ``inherited``), else ``EMPTY``:
    an object of ``READS`` is updated from it by the difference of the
    edit, and every other object is built from the theory alone.  Callers
    must not mutate the ``terms`` of a stored polynomial (see
    ``_add_into``)."""
    memo = theory.derived
    obj = memo.get(key)
    if obj is None or isinstance(obj, Parent):
        obj = memo[key] = build(theory, obj or EMPTY)
    return obj


def inherited(theory, replaced):
    """The memo of a copy of theory whose fields named in ``replaced``
    change: each object computed from none of them, and for each other
    object of ``READS`` the ``Parent`` it is updated from.  A change of
    registry, or of a field the table does not know, leaves nothing."""
    replaced = set(replaced)
    if "registry" in replaced or \
            not replaced <= _UNREAD.union(*DERIVED_FROM.values()):
        return {}
    out = {}
    for key, obj in theory.derived.items():
        if replaced.isdisjoint(DERIVED_FROM[key]):
            out[key] = obj
        elif key in READS and (parent := _parent(theory, key)):
            out[key] = parent
    return out


def _minus(new, old):
    """new - old; new itself when there is no old."""
    return new if old is None else new - old


def _plus(old, new):
    """old + new, sharing either one when the other is absent or zero:
    the objects an edit leaves alone stay the parent's."""
    if old is None or old.is_zero():
        return new
    return old if new.is_zero() else old + new


def _el(theory):
    return stored(theory, "el", _el_update)


def _el_update(theory, parent):
    """E(L), updated from the parent's by E(L - L_parent)."""
    old = parent.get("el")
    old = old.components if old else {}
    diff = euler_lagrange(_minus(theory.lagrangian, parent.get("lagrangian")))
    return EulerLagrangeResult(theory.registry, {
        key: _plus(old.get(key), val) for key, val in diff.components.items()})


def _entry(check, target, status, residual=None, note=""):
    """One report entry; a nonzero residual is kept as the polynomial, and
    the report renders the terms it shows (``cli.run_checks``)."""
    out = {"check": check, "target": target, "status": status}
    if residual is not None and not residual.is_zero():
        out["residual"] = residual
    if note:
        out["note"] = note
    return out


def _orbits(theory):
    """(orbit, fixing, steps) of the stage-0 records, built once per theory
    from the parser's "certificate" by ``gvc.symmetry.record_orbits``; the
    proofs are in ``gvc.symmetry``."""
    return stored(theory, "orbits", lambda th, _parent: record_orbits(
        th.registry, [(rec.ghost, rec.component) for rec in th.records],
        th.derived.get("certificate", {})))


def _stage_residuals(theory, parent=EMPTY):
    """{k: delta_KT(Delta_r) for every stage-k record r, in order}; zero
    exactly when the identity holds, its h certificate included.

    Per stage, ``update_images`` of delta_KT over the records' Delta, from
    the parent's residuals by the difference of the edit.  From ``EMPTY``
    the stage-0 pass takes one record per orbit (``_orbits``), each with
    the swaps that fix it to prune its sums by parts."""
    reg = theory.registry
    kt = stored_kt(theory)
    old_kt = parent.get("kt")
    # the parent's residuals follow its records, stage by stage
    old = dict(zip(parent.get("records", {}), (
        res for stage in parent.get("residuals", {}).values()
        for res in stage)))
    out = {}
    for k in [0] + theory.stage_numbers():
        recs = theory.stage_records(k)
        labels = [(rec.ghost, rec.component) for rec in recs]
        items = [(i, kt.components.get(_bar(label), reg.zero),
                  old_kt and old_kt.components.get(_bar(label)))
                 for i, label in enumerate(labels)]
        orbits = _orbits(theory)[:2] if old_kt is None and not k \
            else ({}, {})
        out[k] = list(update_images(kt, items, old_kt, {
            i: old[label] for i, label in enumerate(labels) if label in old},
            orbits).values())
    return out


def _residuals(theory, k):
    """The stored delta_KT(Delta_r) of the stage-k records, in order."""
    return stored(theory, "residuals", _stage_residuals).get(k, [])


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


def assemble_kt(theory, parent=EMPTY):
    """The Koszul-Tate operator: the right derivation sending each antifield
    to the object it pairs with and everything else to zero.  It is the
    parent's plus delta' - delta: E'_A - E_A where E_A changed, and the
    Delta of each record's change (``_changed``)."""
    reg = theory.registry
    old = parent.get("kt")
    was = old.components if old else {}
    el = _el(theory)
    diff = {}
    for name, sym in reg.symbols.items():
        if sym.kind == KIND_FIELD:
            for comp in sym.components():
                key, val = (name + "_bar", comp), el.get(name, comp)
                if val is not was.get(key):
                    diff[key] = _minus(val, was.get(key))
    for label, change in _changed(theory, parent).items():
        diff[_bar(label)] = change.delta_poly(reg)
    return _plus(old, EvolutionaryDerivation(reg, diff, right=True,
                                             name="delta_KT"))


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
    for rec, H in zip(theory.records, stored(theory, "triviality", lambda th, _: [
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
