"""Built-in theory fixtures and their constant-tensor builders.

Four fixture families ship as text files in this directory, each written in
the theory grammar and regenerated verbatim by ``fixture_text``:

    bf      topological system L = eps * A * dB; splits (n, p, q) of
            (3, 1, 1) by default or (4, 1, 2), the latter carrying a
            one-stage reducible chain for the two-form factor
    cs3     Chern-Simons connection theory on a three-dimensional base,
            with an optional constant background folded into the density
    grav4   frame field plus connection-type field on a four-dimensional
            base with a torsion-cubed invariant density
    ym4     Yang-Mills; ``algebra='su2'`` by default, ``algebra='osp12'``
            selects a five-generator graded instance with two odd
            directions (shipped separately as ``ym4_super.gvc``)

``build_fixture`` regenerates a text (validating the structure constants
first) and parses it; ``load_builtin`` parses the shipped file instead, so a
test can pin the two routes to byte equality.
"""
from __future__ import annotations

import itertools
import os
from fractions import Fraction

from ..algebra import GvcError, _rat, sorting_sign
from ..parser import parse_theory

BUILTINS = ("bf", "cs3", "grav4", "ym4")

_DIR = os.path.dirname(os.path.abspath(__file__))


def _eps(n):
    """Entries of the rank-n Levi-Civita symbol."""
    return {perm: sorting_sign(perm)
            for perm in itertools.permutations(range(n))}


def _rat_text(v):
    v = Fraction(v)
    if v.denominator == 1:
        return str(v.numerator)
    return "%d/%d" % (v.numerator, v.denominator)


def _table_text(name, shape, entries, per_line=6):
    """Render one table statement with sorted entries and wrapped lines."""
    items = ["[%s]=%s;" % (",".join(str(i) for i in idx), _rat_text(v))
             for idx, v in sorted(entries.items()) if v]
    lines = ["  " + " ".join(items[i:i + per_line])
             for i in range(0, len(items), per_line)]
    return "table %s[%s]{\n%s\n}" % (
        name, ",".join(str(n) for n in shape), "\n".join(lines))


def _accumulate(sums, key, v):
    sums[key] = sums.get(key, 0) + v


def _first_failing(message, failing):
    """Raise ``GvcError(message % index)`` at the least of the ``failing``
    indices, if there is one."""
    first = min(failing, default=None)
    if first is not None:
        raise GvcError(message % (first,))


class StructureConstants:
    """A finite graded Lie algebra presented by tables.

    ``c[(r, i, j)]`` are bracket coefficients, ``parities[i]`` lies in
    {0, 1}, and ``casimir[(i, j)]`` is the invariant bilinear form used for
    quadratic densities.  ``validate`` enforces the grading of the bracket,
    graded antisymmetry, the graded Jacobi identity, and that the form is
    even, graded-symmetric, invariant, and nondegenerate.
    """

    __slots__ = ("dim", "parities", "c", "casimir")

    def __init__(self, dim, parities, c, casimir):
        self.dim = dim
        self.parities = tuple(parities)
        # under the coefficient rule, so validate runs in int arithmetic
        self.c = {k: _rat(Fraction(v)) for k, v in c.items() if v}
        self.casimir = {k: _rat(Fraction(v)) for k, v in casimir.items() if v}

    def bracket(self, r, i, j):
        return self.c.get((r, i, j), 0)

    def form(self, i, j):
        return self.casimir.get((i, j), 0)

    def validate(self):
        """Check every rule, each over the nonzero entries alone: an index
        where a rule fails holds a nonzero entry or a nonzero sum of
        products of entries.  The error names the least failing index, as
        a check over every index in order would."""
        n, par = self.dim, self.parities
        if len(par) != n or any(p not in (0, 1) for p in par):
            raise GvcError("parities must be a Z2 vector of length %d" % n)
        rng = range(n)
        for (r, i, j), v in self.c.items():
            if not (0 <= r < n and 0 <= i < n and 0 <= j < n):
                raise GvcError("bracket index %r out of range" % ((r, i, j),))
            if par[r] != (par[i] + par[j]) % 2:
                raise GvcError("bracket entry %r violates the grading"
                               % ((r, i, j),))

        def sgn(i, j):
            return -1 if par[i] and par[j] else 1
        _first_failing(
            "bracket not graded-antisymmetric at %r",
            ((r, i, j) for (r, a, b) in self.c for i, j in ((a, b), (b, a))
             if self.bracket(r, i, j) != -sgn(i, j) * self.bracket(r, j, i)))
        # lhs - rhs of the graded Jacobi identity at every (r, i, j, k)
        by_first, by_mid, by_last = {}, {}, {}
        for (r, i, j), v in self.c.items():
            by_first.setdefault(r, []).append((i, j, v))
            by_mid.setdefault(i, []).append((r, j, v))
            by_last.setdefault(j, []).append((r, i, v))
        jacobi = {}
        for (s, a, b), v in self.c.items():
            for r, i, w in by_last.get(s, ()):
                _accumulate(jacobi, (r, i, a, b), v * w)
            for r, k, w in by_mid.get(s, ()):
                _accumulate(jacobi, (r, a, b, k), -v * w)
            for r, j, w in by_last.get(s, ()):
                _accumulate(jacobi, (r, a, j, b), -sgn(a, j) * v * w)
        _first_failing("graded Jacobi identity fails at %r",
                       (key for key, v in jacobi.items() if v))
        for (i, j), v in self.casimir.items():
            if par[i] != par[j]:
                raise GvcError("Casimir form pairs opposite parities at %r"
                               % ((i, j),))
        _first_failing(
            "Casimir form not graded-symmetric at %r",
            ((i, j) for (a, b) in self.casimir for i, j in ((a, b), (b, a))
             if self.form(j, i) != sgn(i, j) * self.form(i, j)))
        invariant = {}
        for (s, i, j), v in self.c.items():
            for (t, k), w in self.casimir.items():
                if t == s:
                    _accumulate(invariant, (i, j, k), v * w)
        for (i, s), w in self.casimir.items():
            for j, k, v in by_first.get(s, ()):
                _accumulate(invariant, (i, j, k), -w * v)
        _first_failing("Casimir form not invariant at %r",
                       (key for key, v in invariant.items() if v))
        m = [[self.form(i, j) for j in rng] for i in rng]
        rank = 0
        for col in rng:
            sel = next((r for r in range(rank, n) if m[r][col]), None)
            if sel is None:
                continue
            m[rank], m[sel] = m[sel], m[rank]
            for r in range(n):
                if r != rank and m[r][col]:
                    f = Fraction(m[r][col], m[rank][col])
                    m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
            rank += 1
        if rank != n:
            raise GvcError("Casimir form is degenerate (rank %d of %d)"
                           % (rank, n))
        return self


def su2():
    """Three even generators with the Levi-Civita bracket and unit form."""
    return StructureConstants(3, (0, 0, 0), _eps(3),
                              {(i, i): 1 for i in range(3)})


def osp12():
    """A minimal graded instance: three even generators spanning the su(2)
    complexification sl(2) plus two odd generators in its spinor module.

    The tables come from the matrix realization with supertrace form; the
    even block of the form is nondegenerate, and the odd-odd block is
    graded-symmetric (antisymmetric as a matrix).
    """
    c = {
        (0, 1, 2): 1, (0, 2, 1): -1, (0, 3, 4): -1, (0, 4, 3): -1,
        (1, 0, 1): 2, (1, 1, 0): -2, (1, 4, 4): -2,
        (2, 0, 2): -2, (2, 2, 0): 2, (2, 3, 3): 2,
        (3, 0, 3): -1, (3, 2, 4): -1, (3, 3, 0): 1, (3, 4, 2): 1,
        (4, 0, 4): 1, (4, 1, 3): -1, (4, 3, 1): 1, (4, 4, 0): -1,
    }
    k = {(0, 0): 6, (1, 2): 3, (2, 1): 3, (3, 4): 6, (4, 3): -6}
    return StructureConstants(5, (0, 0, 0, 1, 1), c, k)


ALGEBRAS = {"su2": su2, "osp12": osp12}


# ---------------------------------------------------------------------------
# text generators


def _bf_text(n=3, p=1, q=1):
    if (n, p, q) == (3, 1, 1):
        return """theory bf;
dim 3;
%s
field A[3] even;
field B[3] even;
L = sum(m,n,l){ eps3[m,n,l] * A[m;] * B[l;n] };
ni e[] { (A[m]; m) = -1; }
ni x[] { (B[m]; m) = -1; }
gauge {
  (A[m]) = e[;m];
  (B[m]) = x[;m];
}
""" % _table_text("eps3", (3, 3, 3), _eps(3))
    if (n, p, q) == (4, 1, 2):
        return """theory bf4;
dim 4;
%s
field A[4] even;
field B[4,4] antisym even;
L = sum(m,n,t,r){ eps4[m,n,t,r] * A[m;] * B[t,r;n] };
ni e[] { (A[m]; m) = -1; }
ni x[g:4] { (B[n,g]; n) = -1; }
stage 1 xi[] { (x[r]; r) = -1; }
gauge {
  (A[m]) = e[;m];
  (B[n,r]) = x[r;n] - x[n;r];
  (x[r]) = xi[;r];
}
""" % _table_text("eps4", (4, 4, 4, 4), _eps(4))
    raise GvcError(
        "unsupported BF split (n, p, q) = %r; available: (3, 1, 1), (4, 1, 2)"
        % ((n, p, q),))


_CS_BACKGROUND = {(0, 1): Fraction(1, 2), (1, 0): Fraction(-2),
                  (1, 2): Fraction(1), (2, 2): Fraction(3)}


def _cs3_text(background=_CS_BACKGROUND):
    sc = su2().validate()
    tables = [_table_text("f", (3, 3, 3), sc.c),
              _table_text("eps3", (3, 3, 3), _eps(3))]
    if background is not None:
        tables.append(_table_text("bg", (3, 3), dict(background)))
        density = """L = sum(m,al,be,ga){ eps3[al,be,ga] * ( 1/2 * a[m,al;] *
        ( a[m,ga;be] - a[m,be;ga]
          + 2/3 * sum(p,q){ f[m,p,q] * a[p,be;] * a[q,ga;] } )
      - 1/3 * bg[m,al] * sum(p,q){ f[m,p,q] * bg[p,be] * bg[q,ga] }
      - bg[m,ga] * a[m,be;al] ) };"""
    else:
        density = """L = sum(m,al,be,ga){ eps3[al,be,ga] * 1/2 * a[m,al;] *
        ( a[m,ga;be] - a[m,be;ga]
          + 2/3 * sum(p,q){ f[m,p,q] * a[p,be;] * a[q,ga;] } ) };"""
    return """theory cs3;
dim 3;
%s
field a[3,3] even;
%s
ni c[j:3] { (a[r,m];) = -sum(i){ f[r,j,i] * a[i,m;] };
            (a[j,m]; m) = -1; }
ni cv[w:3] { (a[r,l];) = a[r,w;l] - a[r,l;w];
             (a[r,l]; l) = a[r,w;]; }
gauge { (a[r,l]) = c[r;l] - sum(j,i){ f[r,j,i] * c[j;] * a[i,l;] }
                 - sum(m){ cv[m;l] * a[r,m;] + cv[m;] * a[r,l;m] }; }
gamma { (c[r]) = -1/2 * sum(i,j){ f[r,i,j] * c[i;] * c[j;] }
               - sum(m){ cv[m;] * c[r;m] };
        (cv[l]) = sum(m){ cv[l;m] * cv[m;] }; }
""" % ("\n".join(tables), density)


def _grav4_text():
    tables = [_table_text("eps4", (4, 4, 4, 4), _eps(4)),
              _table_text("kd", (4, 4), {(i, i): 1 for i in range(4)})]
    return """theory grav4;
dim 4;
jet_order 3;
%s
field sigma[4,4] sym even;
field k[4,4,4] even;
L = sum(m,n,r,t){ eps4[m,n,r,t]
      * sum(a){ k[m,a,a;] - k[a,a,m;] }
      * sum(b,c,d){ (k[n,b,c;] - k[c,b,n;])
                  * (k[r,c,d;] - k[d,c,r;])
                  * (k[t,d,b;] - k[b,d,t;]) } };
ni cm[w:4] {
  (sigma[p,q];) = -sigma[p,q;w]
                  - sum(n){ kd[p,w]*sigma[n,q;n] + kd[q,w]*sigma[p,n;n] };
  (sigma[p,q]; n) = -kd[p,w]*sigma[n,q;] - kd[q,w]*sigma[p,n;];
  (k[m,a,b];) = -k[m,a,b;w] - sum(n){ kd[a,w]*k[m,n,b;n] }
                + k[m,a,w;b] + k[w,a,b;m];
  (k[m,a,b]; n) = -kd[a,w]*k[m,n,b;] + kd[n,b]*k[m,a,w;] + kd[n,m]*k[w,a,b;];
  (k[m,a,b]; m,b) = kd[a,w];
}
gauge { (sigma[al,be]) = sum(n){ cm[al;n]*sigma[n,be;] + cm[be;n]*sigma[al,n;] }
                       - sum(l){ cm[l;]*sigma[al,be;l] };
        (k[m,al,be]) = cm[al;m,be]
                     + sum(n){ cm[al;n]*k[m,n,be;] - cm[n;be]*k[m,al,n;]
                             - cm[n;m]*k[n,al,be;] }
                     - sum(l){ cm[l;]*k[m,al,be;l] }; }
gamma { (cm[l]) = sum(m){ cm[l;m]*cm[m;] }; }
""" % "\n".join(tables)


def _ym4_text(algebra="su2"):
    if isinstance(algebra, str):
        try:
            sc = ALGEBRAS[algebra]()
        except KeyError:
            raise GvcError("unknown algebra %r; available: %s"
                           % (algebra, ", ".join(sorted(ALGEBRAS))))
    else:
        sc = algebra
    sc.validate()
    if isinstance(algebra, str) and algebra == "su2":
        return """theory ym4;
dim 4;
%s
%s
field a[3,4] even;
L = sum(i,m,n){ 1/4 * g[m,m] * g[n,n]
      * (a[i,n;m] - a[i,m;n] + sum(p,q){ f[i,p,q] * a[p,m;] * a[q,n;] })^2 };
ni c[j:3] { (a[r,m];) = -sum(i){ f[r,j,i] * a[i,m;] };
            (a[j,m]; m) = -1; }
gauge { (a[r,m]) = c[r;m] - sum(j,i){ f[r,j,i] * c[j;] * a[i,m;] }; }
gamma { (c[r]) = -1/2 * sum(i,j){ f[r,i,j] * c[i;] * c[j;] }; }
""" % (_table_text("f", (3, 3, 3), sc.c),
            _table_text("g", (4, 4), _minkowski(4)))
    d = sc.dim
    par = {(i,): sc.parities[i] for i in range(d)}
    sg = {(i,): -1 if sc.parities[i] else 1 for i in range(d)}
    tables = [_table_text("f", (d, d, d), sc.c),
              _table_text("kf", (d, d), sc.casimir),
              _table_text("g", (4, 4), _minkowski(4)),
              _table_text("par", (d,), par),
              _table_text("sg", (d,), sg)]
    return """theory ym4_super;
dim 4;
%s
field a[%d,4] parity par@0;
L = sum(i,j,m,n){ 1/4 * kf[i,j] * g[m,m] * g[n,n]
      * (a[i,n;m] - a[i,m;n] + sum(p,q){ f[i,p,q] * a[p,m;] * a[q,n;] })
      * (a[j,n;m] - a[j,m;n] + sum(p,q){ f[j,p,q] * a[p,m;] * a[q,n;] }) };
ni c[j:%d] { (a[r,m];) = -sum(i){ f[r,j,i] * a[i,m;] };
            (a[j,m]; m) = -1; }
gauge { (a[r,m]) = c[r;m] - sum(j,i){ f[r,j,i] * c[j;] * a[i,m;] }; }
gamma { (c[r]) = -1/2 * sum(i,j){ sg[i] * f[r,i,j] * c[i;] * c[j;] }; }
""" % ("\n".join(tables), d, d)


def _minkowski(n):
    out = {(0, 0): 1}
    for i in range(1, n):
        out[(i, i)] = -1
    return out


_GENERATORS = {"bf": _bf_text, "cs3": _cs3_text, "grav4": _grav4_text,
               "ym4": _ym4_text}


def fixture_text(name, **params):
    """Regenerate the grammar text of a built-in fixture.

    Without parameters this reproduces the shipped file byte for byte;
    parameters re-instantiate the same template (a BF split, a different
    Chern-Simons background, another gauge algebra).
    """
    try:
        gen = _GENERATORS[name]
    except KeyError:
        raise GvcError("unknown fixture %r; built-ins: %s"
                       % (name, ", ".join(BUILTINS)))
    return gen(**params)


def build_fixture(name, jet_order=None, **params):
    """Generate and parse a fixture, validating its constant tables first.

    Structure-constant inputs that break graded antisymmetry, the graded
    Jacobi identity, or the Casimir requirements are rejected before any
    parsing happens.
    """
    return parse_theory(fixture_text(name, **params), jet_order=jet_order)


def builtin_path(name):
    """Path of a shipped fixture file (the four built-ins plus ym4_super)."""
    if name not in BUILTINS + ("ym4_super",):
        raise GvcError("no shipped fixture named %r" % name)
    return os.path.join(_DIR, name + ".gvc")


def load_builtin(name, jet_order=None):
    """Parse one of the shipped fixture files."""
    with open(builtin_path(name), "r", encoding="utf-8") as fh:
        return parse_theory(fh.read(), jet_order=jet_order)
