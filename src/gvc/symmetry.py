"""Direction symmetries: transpositions of base directions and their orbits.

A transposition sigma of two adjacent base directions lam and lam + 1 acts
on every multi-index and on every component slot that carries a base
direction (``DirectionSwap``), as the family's ``directions`` say; no other
slot moves.  The parser types the slots from the sites of each binder, the
slots and jets its index sits in, which it notes as it reads the source
(``gvc.grammar._directions``, from the statements before the error of a
source that stops reading); a family declared through the API has the
slots of range ``dim``.  The typing has one proof obligation: it is consistent, that is each slot that carries
a direction has range ``dim`` (``Registry.typed`` refuses any other), a
symmetric family's slots all carry one or none (``SymbolDecl``), and an
antifield's are its base's.  Then sigma permutes the values of every such
slot and commutes with canonicalizing a component, so when it keeps every
parity it is an automorphism of the jet algebra that sends each variable
to +- a variable, with sigma d_lam = d_{sigma lam} sigma.  Every proof
below is relative to that sigma, whichever consistent typing gave it; a
typing that moves fewer slots only proves other swaps, such as those of a
theory whose internal index has range ``dim``.  A cold build prunes its
passes by such sigma, and decides which ones hold only from the parser's
two certificates (``gvc.parser._TheoryBuilder.certificates``), each a
proof on the source statements that no expansion is needed for:

- "certificate", {lam: {ghost: e}}: sigma L = +-L, and sigma(Delta_r) = e
  Delta_{sigma r} for every record r of each stage-0 family ``ghost``;
- "b certificate", {lam: e}: the rows of every record r of every stage
  map to e times those of sigma r, and gamma^{sigma X} = e s_X
  sigma(gamma^X) at each of its components X, one e for all, with s_X the
  sign of canonicalizing sigma X.

The parser takes its own values by the per-node proofs behind them.  A
theory without them, built through the API or edited in the fields they
read, takes every pass in full: correct, only unpruned.  The proofs:

Residuals (``record_orbits``).  sigma L = +-L gives E_{sigma A} =
+-sigma(E_A), so delta_KT sigma = +-sigma delta_KT on fields and their
antifields, which is all a stage-0 Delta holds: delta_KT(Delta_{sigma r})
= +-sigma(delta_KT(Delta_r)), zero exactly when delta_KT(Delta_r) is.  A
stage-0 pass takes one record per orbit.

Sums by parts (``prolong_apply``'s ``symmetries``).  A sigma that fixes
record r maps Delta_r to e Delta_r, so it prunes r's own pass: there each
by-parts sum z[Lambda] = sum over the by-parts components A of
eta(f_A)^Lambda * E_A, with f_A^Lambda the coefficient of s_bar^A_Lambda
in Delta_r, has z[sigma Lambda] = +-sigma(z[Lambda]).  For
sigma(s_bar^A_Lambda) = s_A s_bar^{sigma A}_{sigma Lambda}, Delta_r = e
sigma(Delta_r) gives f_{sigma A}^{sigma Lambda} = e s_A
sigma(f_A^Lambda), so eta(f_{sigma A})^{sigma Xi} = e s_A
sigma(eta(f_A)^Xi) (sigma permutes the directions of d_Lambda and of
eta's binomials alike), and E_{sigma A} = e' s_A sigma(E_A); their product
is e e' sigma(eta(f_A)^Xi * E_A).  The by-parts route is chosen from term
counts and jet orders, which sigma keeps, so sigma maps the by-parts
components to themselves, and z[Lambda] is zero exactly when z[sigma
Lambda] is.  The pass sums one Lambda per orbit (``_orbit_first``).

Gauge components (``gvc.brst.gauge_from_ni``).  Record r contributes u_r^A
= sum over Xi of c^r_Xi eta(f_{r, A})^Xi to u^A.  For sigma(Delta_r) = e
Delta_{sigma r}, f_{sigma r, sigma A}^{sigma Lambda} = e s_A
sigma(f_{r, A}^Lambda), so eta(f_{sigma r, sigma A})^{sigma Xi} = e s_A
sigma(eta(f_{r, A})^Xi), and sigma(c^r_Xi) = c^{sigma r}_{sigma Xi}, a
ghost family having no component symmetry.  Summing over sigma Xi, which
runs over every multi-index as Xi does, u_{sigma r}^{sigma A} = e s_A
sigma(u_r^A): a member's components are its step's images, exactly.  The
rows alone make u, so this holds at every stage, for u^(k) too.

Statement values (``gvc.evaluator``).  For each swap sigma and each clean
node N of a statement the parser's walk proves sigma(N(v)) = e N(sigma v),
v the values of the indices bound around N, sigma acting on those that are
directions: a direction sits only in jets and direction slots, of range
``dim``, and only a direction or a constant that sigma fixes sits there;
so N(sigma v) = e sigma(N(v)).  Where sigma fixes every index
bound outside a loop, the loop needs its body only at the first value of
each orbit of its binders (``orbit_step``): the body at any other value is
e sigma of the body at its step's, an earlier value.  sigma is an
automorphism, so sigma(F_1 ... F_n) = sigma(F_1) ... sigma(F_n), and each
factor F of a product body, proved with its own e_F, may be mapped alone
and the images multiplied.  A key statement's free indices are such a
loop's binders, and its canonical key at sigma v is computed as at any
value.  A record family whose rows give sigma Delta_b = e Delta_{sigma b}
has at (sigma A, sigma Lambda) the rows e s_A sigma of b's at (A,
Lambda), s_A the sign of canonicalizing sigma A, as for u below.  A node
that can fail is evaluated at every value, so its first error stays where
it was.

b's images (``b_orbits``).  With one e for the rows of every family of
stage k, summing the last identity over the records gives P^{sigma X} = e
s_X sigma(P^X) for P = u^(k), and the "b certificate" gives it for gamma,
one e for every part P of b.  Then sigma P sigma = e P on the generators,
so on every jet: P(sigma F) = e sigma(P(F)) for each part P and
polynomial F, and for every sum of parts, b and each u^(k) among them.
So b(b^{sigma X}) = e^2 s_X sigma(b(b^X)) = s_X sigma(b(b^X)), and likewise
u^(k)(u^(k-1)^{sigma X}): each image is zero exactly when the one at X
is.  One e for all parts is what makes it one for their sum b.  L is not
read.
"""
from __future__ import annotations

from bisect import bisect_left

from .algebra import sorting_sign


def direction_swap(reg, lam):
    """The transposition of base directions ``lam`` and ``lam + 1`` as a
    ``DirectionSwap``, or None when it changes some variable's parity,
    which a family whose parity is read from a direction slot can."""
    for sym in reg.symbols.values():
        if isinstance(sym.parities, tuple):
            pos, vec = sym.parities
            if sym.directions[pos] and vec[lam] != vec[lam + 1]:
                return None
    return DirectionSwap(reg, lam)


class DirectionSwap:
    """A parity-preserving transposition sigma of two base directions,
    acting on every direction slot of a family and on multi-indices:
    an automorphism of the jet algebra that sends each variable to +- a
    variable, with sigma d_lam = d_{sigma lam} sigma.  ``image`` maps a
    term dict and interns the images it makes."""

    __slots__ = ("reg", "lam", "images")

    def __init__(self, reg, lam):
        self.reg, self.lam = reg, lam
        self.images = {}  # key entry -> (image entry, sign)

    def direction(self, d):
        return 2 * self.lam + 1 - d if 0 <= d - self.lam <= 1 else d

    def index(self, index):
        """The image of the multi-index ``index``, sorted."""
        return tuple(sorted(map(self.direction, index)))

    def component(self, sym, comp):
        """(The canonical image of ``sym``'s component ``comp``, its
        ``sym``/``antisym`` sign)."""
        lam = self.lam
        image = [2 * lam + 1 - c if moved and 0 <= c - lam <= 1 else c
                 for c, moved in zip(comp, sym.directions)]
        # sigma keeps every index in its slot's range
        return (tuple(image), 1) if sym.symmetry is None else \
            sym.canonicalize(image)

    def key(self, key):
        """(The image of a monomial key, its sign).  The sign is the product
        of the factors' canonicalization signs, one per unit of exponent,
        times the Koszul sign of re-sorting the images of the odd
        factors."""
        images, out, sign = self.images, [], 1
        for entry in key:
            img = images.get(entry)
            if img is None:
                v = self.reg.by_rank[entry if entry >= 0 else ~entry]
                comp, s = self.component(v.symbol, v.component)
                w = self.reg.jet_var(v.symbol, comp, self.index(v.index))[0]
                img = images[entry] = (w.entry, s)
            out.append(img[0])
            sign *= img[1]
        n = bisect_left(key, 0)
        if n > 1:
            sign *= sorting_sign(out[:n])
        return tuple(sorted(out)), sign

    def image(self, terms, sign=1):
        """``sign`` times sigma(``terms``), a fresh term dict."""
        out = {}
        for key, c in terms.items():
            img, s = self.key(key)
            out[img] = c if s == sign else -c
        return out


def _candidates(reg, labels):
    """(sigma, moved) for each transposition sigma of two adjacent base
    directions that keeps every parity, moves some of the component
    ``labels`` (name, component) and maps each to one of them: moved[i] is
    the index of the image of label i."""
    if not any(True in reg.symbols[name].directions for name, _comp in labels):
        return  # no label has a slot that a swap acts on
    where = {label: i for i, label in enumerate(labels)}
    for lam in range(reg.dim - 1):
        swap = direction_swap(reg, lam)
        if swap is None:
            continue
        moved = [where.get((name, swap.component(reg.symbols[name], comp)[0]))
                 for name, comp in labels]
        if None not in moved and moved != list(range(len(labels))):
            yield swap, moved


def _orbit_map(n, moves):
    """{i: j} for each i < n whose orbit under the permutations ``moves``
    of range(n) holds an earlier index, j the orbit's first, by
    union-find."""
    root = list(range(n))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i
    for moved in moves:
        for i, j in enumerate(moved):
            a, b = sorted((find(i), find(j)))
            root[b] = a
    return {i: find(i) for i in range(n) if find(i) != i}


def _orbit_first(swaps):
    """The map from a multi-index to the least one of its orbit under the
    group that the ``DirectionSwap``s ``swaps`` generate, memoized."""
    memo = {}

    def first(index):
        out = memo.get(index)
        if out is None:
            orbit, todo = {index}, [index]
            while todo:
                lam = todo.pop()
                for swap in swaps:
                    img = swap.index(lam)
                    if img not in orbit:
                        orbit.add(img)
                        todo.append(img)
            out = min(orbit)
            memo.update(dict.fromkeys(orbit, out))
        return out
    return first


def orbit_step(values, moved, swaps):
    """(sigma values, sigma, e) for the first of the ``swaps`` (lam,
    sigma, e) that maps the assignment ``values``, a tuple whose positions
    ``moved`` hold directions, to an earlier one, or None when ``values``
    is the first of its orbit.  sigma moves it earlier exactly when, of
    the positions ``moved`` that hold lam or lam + 1, the first holds
    lam + 1.  When none does, the directions in each block of the group's
    consecutive swaps first appear in increasing order and leave no gap,
    so no element of the group moves ``values`` earlier."""
    first = {}
    for i in moved:
        first.setdefault(values[i], i)
    for lam, swap, e in swaps:
        hi = first.get(lam + 1)
        if hi is not None and hi < first.get(lam, hi + 1):
            out = list(values)
            for i in moved:
                out[i] = swap.direction(out[i])
            return tuple(out), swap, e
    return None


def record_orbits(reg, labels, certificate):
    """(orbit, fixing, steps) of the stage-0 record ``labels`` (ghost,
    component) under the ``_candidates`` sigma of the record
    ``certificate`` {lam: {ghost: e}}: orbit = {i: j} for each record i
    whose orbit holds an earlier record, j the orbit's first; fixing = {i:
    the stabilizer of each first record i, the sigma that fix its label};
    steps = {i: (j, sigma, e)} for each record i of orbit, with
    sigma(Delta_j) = e Delta_i and j a first record or a step before i,
    breadth first from each first record."""
    found = [(swap, moved, [signs[ghost] for ghost, _comp in labels])
             for swap, moved in _candidates(reg, labels)
             if (signs := certificate.get(swap.lam)) is not None]
    orbit = _orbit_map(len(labels), [moved for _swap, moved, _e in found])
    fixing = {i: [swap for swap, moved, _e in found if moved[i] == i]
              for i in range(len(labels)) if i not in orbit}
    steps, todo = {}, list(fixing)
    for j in todo:
        for swap, moved, signs in found:
            i = moved[j]
            if i in orbit and i not in steps:
                steps[i] = (j, swap, signs[j])
                todo.append(i)
    return orbit, fixing, steps


def b_orbits(reg, labels, certificate):
    """{X: the first key of X's orbit} for each of b's component keys
    ``labels``, sorted, whose orbit under the ``_candidates`` sigma of the
    "b certificate" holds an earlier key."""
    orbit = _orbit_map(len(labels), [
        moved for swap, moved in _candidates(reg, labels)
        if swap.lam in certificate])
    return {labels[i]: labels[j] for i, j in orbit.items()}
