"""Grammar round trips, record canonicalization, and error reporting."""
import hashlib
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gvc import parser
from gvc.algebra import GvcError, Registry
from gvc.noether import require_record
from gvc.parser import ParseError, _Parser, parse_expr, parse_theory
from gvc.theories import build_fixture, fixture_text, load_builtin
from conftest import cached, certified_swaps_hold, fresh


def test_minimal_theory():
    th = parse_theory("dim 1; field s even; L = 1/2 * s[;0]^2;")
    assert th.name == "theory"  # the default when no theory statement names it
    assert th.registry.dim == 1
    assert th.records == ()
    assert th.lagrangian == th.registry.var("s", (), (0,)) ** 2 * Fraction(1, 2)


def test_numbers_are_ints_exactly_when_integral():
    for text, value in [("4/2", 2), ("1/1", 1), ("3", 3),
                        ("1/2", Fraction(1, 2))]:
        num = _Parser(text).rational()
        assert num == value and type(num) is type(value), text
    th = parse_theory("dim 1; table k[4]{ [0]=4/2; [1]=1/1; [2]=-3; [3]=1/2; }"
                      "\nfield s even;"
                      "\nL = 4/2 * s + 1/1 * s^2 - 3 * s^3 + 1/2 * s^4"
                      " + 2 * 1/2 + (1/2)^0 + 1/2 + 1/2;")
    entries = [v for _idx, v in th.registry.tables["k"]]
    assert entries == [2, 1, -3, Fraction(1, 2)]
    assert [type(v) for v in entries] == [int, int, int, Fraction]
    by_degree = {len(factors): c
                 for _key, c, factors in th.lagrangian.monomials()}
    assert by_degree == {0: 3, 1: 2, 2: 1, 3: -3, 4: Fraction(1, 2)}
    assert [type(by_degree[d]) for d in range(5)] == [int] * 4 + [Fraction]


def test_field_parity_is_mandatory():
    with pytest.raises(ParseError):
        parse_theory("dim 1; field s; L = s;")


_AB = "dim 1; field s even; field a[2] even; field b[3] even; "


@pytest.mark.parametrize("text, message", [
    ("dim 1; field s even; L = s; L = s;", "L declared twice"),
    ("dim 1; field s even; L = q;", "unknown symbol 'q'"),
    ("dim 1; field s even; ni c[] { (s) = 1; } L = s;",
     "records must come after the Lagrangian"),
    ("dim 1; field s even; L = s; gauge { (s_bar) = 1; }",
     "component keys cannot target antifields"),
    ("dim 2; table k[2,2]{ [0,3]=1; } field s even; L = s;",
     "index (0, 3) out of bounds for table k"),
    ("dim 1; field s even;", "theory must declare a Lagrangian"),
    ("dim 1; field s even; L = s;\nni c[] { (s) = 1; h { s_bar }; }",
     "h certificates belong to stage blocks"),
    ("dim 1; field s even; L = s;\nni c[] { (s) = 1; }\nni c[] { (s) = 2; }",
     "ghost 'c' declared twice"),
    # of several errors, the one evaluation meets first: a[2] is met only
    # after every other value of the index
    (_AB + "L = s;\nni c[j:3] { (s) = a[j;]; (s) = nosuch; }",
     "unknown symbol 'nosuch' (line 2, column 26)"),
    (_AB + "L = s;\nni c[j:3] { (s) = a[j;] - a[j;]; }",
     "record c[0] has no rows (line 2, column 1)"),
    (_AB + "L = s;\ngauge { (b[i]) = a[i;] + nosuch; }",
     "unknown symbol 'nosuch' (line 2, column 9)"),
    (_AB + "table k[2]{ [0]=1; } L = s;\ngauge { (b[i]) = a[i;] + k[0;0]; }",
     "constant table 'k' cannot carry jet indices (line 2, column 9)"),
    (_AB + "L = sum(m:3){ a[m;] } + nosuch;",
     "component index 2 out of range 2 for a (line 1, column 56)"),
    # the registry is frozen at the first gauge, gamma or alpha block
    ("dim 1; field s even; L = 1/2*s[;0]*s[;0]; ni e[] { (s[];) = s[;0]; }\n"
     "gauge { (s) = e[;0]; } jet_order 2;",
     "jet_order declared after gauge/gamma/alpha (line 2, column 24)"),
    ("dim 1; field s even; L = s; gauge { (s) = 1; }\nfield r even;",
     "field declared after gauge/gamma/alpha (line 2, column 1)"),
    # the input rule of gvc.noether: an odd L is refused at its statement
    ("dim 1; field s even; field p odd; L = s * p[;0];\n"
     "ni c[] { (s; 0) = 1; }", "L must be even (line 1, column 35)"),
])
def test_error_messages(text, message):
    with pytest.raises(ParseError) as ei:
        parse_theory(text)
    assert message in str(ei.value)


def test_errors_carry_line_and_column():
    with pytest.raises(ParseError) as ei:
        parse_theory("dim 1;\nfield s even;\nL = s[;0,0,0];", jet_order=2)
    msg = str(ei.value)
    assert "exceeds the cap" in msg
    assert re.search(r"\(line 3, column \d+\)", msg)


_XY = "theory t;\ndim 4;\nfield x[4] even;\nfield y[3] even;\n"
_XX = "L = sum(m){ x[m;] * x[m;] };\n"


@pytest.mark.parametrize("text, message", [
    (_XY + "L = sum(m:4){ x[m;] * x[m;] * y[m;] };",
     "component index 3 out of range 3 for y (line 5, column 1)"),
    (_XY + _XX + "ni c[w:4] { (x[w]; w) = x[w;] * y[w;]; }",
     "component index 3 out of range 3 for y (line 6, column 13)"),
    (_XY + _XX + "ni c[w:4] { (x[w]; w) = -1; }\n"
     "gauge { (x[m]) = c[m;m] + y[m;] * c[m;]; }",
     "component index 3 out of range 3 for y (line 7, column 9)"),
])
def test_an_error_at_the_last_member_of_an_orbit_is_raised_there(text,
                                                                  message):
    # every swap maps x[0] to x[3], but y[m] leaves its range at m = 3
    # alone: a node that can fail is no statement's proof, so L's sum, the
    # records c[w] and the gauge components are all evaluated, and the error
    # is the one every assignment in order meets, where it meets it
    with pytest.raises(ParseError) as ei:
        parse_theory(text)
    assert str(ei.value) == message


def test_jet_order_precedence():
    with_stmt = "dim 1; jet_order 3; field s even; L = s;"
    without = "dim 1; field s even; L = s;"
    assert parse_theory(with_stmt).registry.jet_order == 3
    # a file statement beats the ambient default, an explicit cap beats both
    assert parse_theory(with_stmt, default_jet_order=2).registry.jet_order == 3
    assert parse_theory(with_stmt, jet_order=5).registry.jet_order == 5
    assert parse_theory(without, default_jet_order=2).registry.jet_order == 2
    assert parse_theory(without).registry.jet_order == 4


def test_sum_binder_contracts_tables():
    th = parse_theory(
        "dim 2; table k[2,2]{ [0,1]=2; [1,0]=-1; } field s even;\n"
        "L = sum(m,n){ k[m,n] * s[;m] * s[;n] };")
    reg = th.registry
    want = reg.var("s", (), (0,)) * reg.var("s", (), (1,))
    assert th.lagrangian == want


def test_duplicate_row_keys_accumulate_across_statements():
    th = parse_theory("dim 1; field s even; L = 1/2*s[;0]^2;\n"
                      "ni c[] { (s; 0) = 1; (s; 0) = 2; }")
    assert th.records[0].rows == {("s", (), (0,)): th.registry.const(3)}


_SYM = "dim 2; field s[2,2] sym even; L = sum(i,j){ s[i,j;0] * s[i,j;0] };\n"


def test_duplicate_row_keys_count_once_within_a_statement():
    # (0,1) and (1,0) name one canonical key of the sym family
    th = parse_theory(_SYM + "ni c[] { (s[i,j];) = s[0,1;0]; }")
    assert th.records[0].rows[("s", (0, 1), ())] == \
        th.registry.var("s", (0, 1), (0,))


def test_duplicate_row_keys_must_agree_within_a_statement():
    with pytest.raises(ParseError, match=re.escape(
            "row (s[0,1]; ) receives conflicting values under component "
            "symmetry (line 2, column 10)")):
        parse_theory(_SYM + "ni c[] { (s[i,j];) = s[i,i;0]; }")


def test_zero_rows_are_dropped():
    th = parse_theory("dim 1; field s even; L = 1/2*s[;0]^2;\n"
                      "ni c[] { (s; 0) = s - s; (s) = 1; }")
    assert set(th.records[0].rows) == {("s", (), ())}


def test_free_variables_expand_record_families():
    th = parse_theory("dim 1; field a[2] even; L = 1/2*sum(j){ a[j;0]^2 };\n"
                      "ni c[j:2] { (a[j]; 0) = -1; }")
    assert len(th.records) == 2
    by_comp = {rec.component: rec.rows for rec in th.records}
    for j in range(2):
        assert by_comp[(j,)] == {("a", (j,), (0,)): th.registry.const(-1)}


def test_antisym_family_rows_canonicalize():
    """Rows hitting B[n,g] with n > g must fold onto B[g,n] with a sign."""
    bf4 = cached("bf4")
    reg = bf4.registry
    xrec = {rec.component: rec.rows for rec in bf4.records if rec.ghost == "x"}
    for ga in range(4):
        want = {}
        for nu in range(4):
            for rho in range(nu + 1, 4):
                if rho == ga:
                    want[("B", (nu, rho), (nu,))] = reg.const(-1)
                if nu == ga:
                    want[("B", (nu, rho), (rho,))] = reg.const(1)
        assert xrec[(ga,)] == want


def test_ghost_parities_infer_from_records():
    bf4 = cached("bf4")
    assert bf4.registry.symbols["x"].parities == 1
    assert bf4.registry.symbols["xi"].parities == 0
    assert bf4.registry.symbols["xi"].stage == 1


_XP = "dim 1; field x even; field p odd; L = x[;0]^2;\n"


@pytest.mark.parametrize("rows, parities", [
    ("(x) = p; (p; 0) = x;", 0),        # [p] + [x] + 1 = [x] + [p] + 1
    ("(x; 0) = 1;", 1),
    ("(p) = 1;", 0),
    ("(x) = p + x;", "mixes"),          # a coefficient of mixed parity
    ("(x) = p; (x; 0) = 1;", "mixes"),  # rows of two parities
])
def test_a_ghost_takes_the_parity_of_its_rows(rows, parities):
    # each row's term coefficient * s_bar^A of Delta has parity
    # [coefficient] + [A] + 1, and the ghost takes Delta's parity
    text = _XP + "ni c[] { %s }" % rows
    if parities == "mixes":
        with pytest.raises(ParseError, match=re.escape(
                "record c[] mixes Grassmann parities (line 2, column 1)")):
            parse_theory(text)
    else:
        assert parse_theory(text).registry.symbols["c"].parities == parities


def test_parity_table_indexed_by_slot():
    th = parse_theory(
        "dim 1; table p2[2]{ [1]=1; } field a[2] parity p2@0; L = a[0;]^2;")
    reg = th.registry
    assert reg.symbols["a"].parities == (0, (0, 1))
    assert reg.symbols["a_bar"].parities == (0, (1, 0))
    assert reg.var("a", (0,)).parity() == 0
    assert reg.var("a", (1,)).parity() == 1


def test_stage_and_alpha_blocks_round_trip():
    toy = cached("toy")
    assert toy.stage_numbers() == [1]
    (rec,) = toy.stage_records(1)
    assert rec.h is not None
    assert rec.h == toy.registry.var("y_bar") * toy.registry.var("z_bar")
    assert set(toy.alpha(1)) == {("y", ()), ("z", ())}
    assert toy.alpha(2) == {}


def test_gauge_and_gamma_blocks_round_trip():
    ym = cached("ym4")
    assert set(ym.gauge_candidate) == {("a", (r, m))
                                       for r in range(3) for m in range(4)}
    assert set(ym.gamma) == {("c", (r,)) for r in range(3)}
    for val in ym.gamma.values():
        assert val.parity() == 0  # ups of an odd ghost under an odd operator


def test_parse_expr_reports_location():
    reg = Registry(1)
    reg.declare_field("s")
    reg.freeze()
    with pytest.raises(ParseError, match="unknown symbol 'nope'"):
        parse_expr("nope + 1", reg)
    with pytest.raises(ParseError):
        parse_expr("s +", reg)


@pytest.mark.parametrize("text, message", [
    ("s + s[;0] +\n  nope", "unknown symbol 'nope' (line 2, column 3)"),
    ("s\n+ s[;0]\n  - s[;0,0,0,0,0]", "jet order 5 of s(0, 0, 0, 0, 0) "
     "exceeds the cap 4; raise the cap via Registry(jet_order=...) or the "
     "--jet-order flag / GVC_JET_ORDER (line 3, column 5)"),
    ("s +\n s[;1]", "jet direction 1 out of range for dim 1 (line 2, "
     "column 2)"),
    ("s * k[2]", "index (2,) out of bounds for table k (line 1, column 5)"),
    ("1 +\n\n k[0;0]", "constant table 'k' cannot carry jet indices "
     "(line 3, column 2)"),
    ("s + s[m]", "unbound index 'm' (line 1, column 5)"),
    ("s +\n sum(m){ 1 }", "cannot infer a range for index 'm' "
     "(line 2, column 2)"),
])
def test_parse_expr_places_each_error_at_its_reference(text, message):
    reg = Registry(1)
    reg.declare_field("s")
    reg.declare_table("k", (2,))
    reg.freeze()
    with pytest.raises(ParseError) as err:
        parse_expr(text, reg)
    assert str(err.value) == message


def test_pretty_round_trip_of_fixture_objects():
    for name in ("bf", "bf4", "toy", "ym4"):
        th = cached(name)
        objs = [th.lagrangian] + [rec.delta_poly(th.registry)
                                  for rec in th.records]
        objs.extend(th.gamma.values())
        objs.extend((th.gauge_candidate or {}).values())
        for p in objs:
            assert parse_expr(p.pretty(), th.registry) == p


def _parsed_objects(th):
    """``(label, polynomial)`` for everything a theory file defines: L,
    every record row and h, and every gauge, gamma and alpha component."""
    yield "L", th.lagrangian
    for k in [0] + th.stage_numbers():
        for rec in th.stage_records(k):
            for key in sorted(rec.rows):
                yield "row %d %s %r" % (k, rec.label(), key), rec.rows[key]
            if rec.h is not None:
                yield "h %s" % rec.label(), rec.h
    blocks = [("gauge", th.gauge_candidate or {}), ("gamma", th.gamma)]
    blocks.extend(("alpha%d" % k, comps) for k, comps in sorted(th.alphas.items()))
    for what, comps in blocks:
        for key in sorted(comps):
            yield "%s %r" % (what, key), comps[key]


# sha256 of every parsed object's label and pretty() text, the same as when
# every factor of a product was evaluated, and the number of jet variables
# parsing interns: a variable met only under a zero factor is not interned,
# nor one that cancels in a value mapped from its orbit's first: ym4's L
# at a[i,m;m] for m = 2, 3, which interned 99 when every value was
# evaluated.
_PARSED = {
    "bf": ("9800ed37098fdafd404d56b9633551fe0f3bb0963f7b472b3041fd9e1173c503", 21),
    "bf4": ("ee8e107ab9cd425c8a1bad023faf01cd5254cb948caa44e9e15820561e5f1e0d", 56),
    "cs3": ("f6b6ff502a8e433e1f6de7ec93a22c7c8d7e0f9a4a353477aaa287e3d870c653", 78),
    "grav4": ("c1f5160cef7e23a094fcb9af0340c5600dbe0629abb9d2c079aa8ea39563d7ed", 864),
    "ym4": ("3a954b35a0276aa5e76201bfd30ac846236ef9875b13f028387bf5adf7260e93", 93),
    "ym4_super": ("22f802e126e0322827c270d4b8dd9a57e31b603df77c4b78772c2b3ffc85d130", 165),
}


@pytest.mark.parametrize("name", sorted(_PARSED))
def test_parsing_keeps_each_builtin(name):
    th = (build_fixture("bf", n=4, p=1, q=2) if name == "bf4"
          else load_builtin(name))
    digest, interned = _PARSED[name]
    assert len(th.registry.by_rank) == interned
    lines = []
    for label, p in _parsed_objects(th):
        text = p.pretty()
        assert parse_expr(text, th.registry).pretty() == text, label
        lines.append("%s %s" % (label, text))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


def test_a_parse_checks_each_record_once(monkeypatch):
    # the parser checks every input rule at the statement that could break
    # it, so the theory it builds skips require_theory's second pass; one
    # built from the same fields runs it
    checked = []
    monkeypatch.setattr(parser, "require_record",
                        lambda reg, rec, k: checked.append(rec) or
                        require_record(reg, rec, k))
    monkeypatch.setattr(parser, "require_theory",
                        lambda th: checked.append("theory"))
    th = build_fixture("bf", n=4, p=1, q=2)
    records = [rec for k in [0] + th.stage_numbers()
               for rec in th.stage_records(k)]
    assert len(records) == 6
    assert [id(rec) for rec in checked] == [id(rec) for rec in records]
    checked.clear()
    parser.TheorySpec(th.name, th.registry, th.lagrangian, th.records,
                      th.stages, th.gauge_candidate, th.gamma, th.alphas)
    assert checked == ["theory"]


def test_parsing_grav4_resolves_few_jet_variables(monkeypatch):
    # each statement interns each of its jet variables once: 1,980 calls
    calls = []
    jet_var = Registry.jet_var

    def counted(self, *args):
        calls.append(None)
        return jet_var(self, *args)
    monkeypatch.setattr(Registry, "jet_var", counted)
    parse_theory(fixture_text("grav4"))
    assert len(calls) <= 2500


# -- randomized round trip ----------------------------------------------------

_REG = cached("bf4").registry
_ATOMS = [
    _REG.var("A", (2,)),
    _REG.var("A", (0,), (1, 3)),
    _REG.var("B", (0, 1)),
    _REG.var("B", (2, 3), (0,)),
    _REG.var("x", (1,)),
    _REG.var("xi", (), (2,)),
    _REG.var("A_bar", (3,)),
    _REG.var("x_bar", (0,), (1,)),
]


@st.composite
def round_trip_polys(draw):
    p = _REG.zero
    for _ in range(draw(st.integers(0, 3))):
        term = _REG.const(draw(st.one_of(
            st.integers(-9, 9).filter(lambda n: n != 0),
            st.fractions(min_value=-5, max_value=5, max_denominator=7)
            .filter(lambda f: f != 0))))
        for atom in draw(st.lists(st.sampled_from(_ATOMS), max_size=3)):
            term = term * atom
        p = p + term
    return p


@given(round_trip_polys())
def test_pretty_parse_round_trip(p):
    assert parse_expr(p.pretty(), _REG) == p


_X = "field x[3] even;\n"
_EPS3 = ("table e[3,3,3]{ [0,1,2]=1; [1,2,0]=1; [2,0,1]=1; [0,2,1]=-1; "
         "[2,1,0]=-1; [1,0,2]=-1; }\n" + _X)
_CURL = "sum(i, j, k){ e[i,j,k] * x[i;j] * x[k;] }"
# a record family that puts x's slot with the jets, so that it carries a
# direction; it maps to itself under every swap
_D = "\nni d[g:3] { (x[g]; g) = 1; }"
# (the statements of a theory of dimension 3, the swaps (lam, lam + 1) its
# source proves for L and every stage-0 record family)
_SOURCES = [
    # binders of range dim in slots of range dim and in jets: every swap
    (_X + "L = sum(i, j){ x[i;j] * x[j;i] };", {0, 1}),
    # a constant index in a direction slot keeps only the swaps that fix it
    (_X + "L = x[2;] * x[2;];" + _D, {0}),
    (_X + "L = x[2;] * x[2;0];" + _D, set()),
    # a binder of another range may not sit in a direction slot, nor a
    # direction in another slot: (1 2) maps neither L to +-L
    (_X + "L = sum(i:2){ x[i;] * x[i;] };" + _D, set()),
    (_X + "field y[4] even;\nL = sum(i:3){ y[i;] * x[i;] };" + _D, set()),
    # a table's sign is read from its entries: t is no symmetry, e flips
    # under every swap, and so does _CURL, but not its square
    ("table t[3]{ [0]=1; [1]=2; }\n" + _X + "L = sum(i){ t[i] * x[i;] };" +
     _D, set()),
    (_EPS3 + "L = %s;" % _CURL + _D, {0, 1}),
    (_EPS3 + "L = (%s)^2 + sum(i){ x[i;] * x[i;] };" % _CURL + _D, {0, 1}),
    # a sum needs one sign across its items
    (_EPS3 + "L = (%s)^2 + %s;" % (_CURL, _CURL) + _D, set()),
    # a record key's own indices keep the same rules: the constant 0 refuses
    # (0 1), and the record family's sign must hold for every row
    (_X + "L = sum(i){ x[i;] * x[i;] };\nni c[g:3] { (x[0]; g) = 1; }" + _D,
     {1}),
    (_EPS3 + "L = sum(i){ x[i;] * x[i;] };\n"
     "ni c[g:3] { (x[g];) = 1; (x[k]; l) = e[g,k,l]; }", set()),
    # the same sources where x meets no jet: its slot carries no direction,
    # so sigma fixes x, and only the indices that reach a jet move.  An
    # internal index of range dim no longer refuses a swap; a jet's
    # constant still does
    (_X + "L = x[2;] * x[2;0];", {1}),
    (_X + "L = sum(i:2){ x[i;] * x[i;] };", {0, 1}),
    (_X + "field y[4] even;\nL = sum(i:3){ y[i;] * x[i;] };", {0, 1}),
    ("table t[3]{ [0]=1; [1]=2; }\n" + _X + "L = sum(i){ t[i] * x[i;] };",
     {0, 1}),
    (_X + "L = sum(i){ x[i;] * x[i;] };\nni c[g:3] { (x[0]; g) = 1; }",
     {0, 1}),
    # a missed direction only costs a swap: _CURL's x[k;] leaves x, and e's
    # first and last slots, apart from the jets, and e has no sign under a
    # swap of its middle slot alone
    (_EPS3 + "L = %s;" % _CURL, set()),
    # an index used both ways types as a direction everywhere: t's slot
    # meets a jet through j, so sigma moves t[i] too, which refuses
    ("table t[3]{ [0]=1; [1]=2; }\nfield y even;\n" + _X +
     "L = sum(i){ t[i] * x[i;] } + sum(j){ t[j] * y[;j] };", set()),
    # a symmetric family moves all its slots or none: i reaches a jet, so
    # g's second slot carries a direction too, and sigma keeps the sorting
    ("field g[3,3] sym even;\nL = sum(i, j){ g[i,j;i] * g[i,j;] };",
     {0, 1}),
]


# Each builtin's direction slots: a family's or table's slot carries a
# direction where an index joins it with a jet.  cs3's and ym4's su(2)
# index, f and ym4_super's parity tables carry none; grav4's and bf's
# every slot of range dim does.
_DIRECTIONS = {
    "bf": {"A": (True,), "B": (True,), "e": (), "x": (),
           "eps3": (True, True, True)},
    "bf4": {"A": (True,), "B": (True, True), "e": (), "x": (True,),
            "xi": (), "eps4": (True,) * 4},
    "toy": {"y": (), "z": (), "ca": (), "cb": (), "ps": ()},
    "cs3": {"a": (False, True), "c": (False,), "cv": (True,),
            "f": (False,) * 3, "eps3": (True,) * 3, "bg": (False, True)},
    "ym4": {"a": (False, True), "c": (False,), "f": (False,) * 3,
            "g": (True, True)},
    "ym4_super": {"a": (False, True), "c": (False,), "f": (False,) * 3,
                  "kf": (False, False), "g": (True, True), "par": (False,),
                  "sg": (False,)},
    "grav4": {"sigma": (True, True), "k": (True,) * 3, "cm": (True,),
              "eps4": (True,) * 4, "kd": (True, True)},
}


@pytest.mark.parametrize("name", sorted(_DIRECTIONS))
def test_each_builtin_types_the_slots_that_carry_a_direction(name):
    reg = fresh(name).registry
    found = {sym.name: sym.directions for sym in reg.symbols.values()
             if not sym.name.endswith("_bar")}
    found.update((tab.name, tab.directions) for tab in reg.tables.values())
    assert found == _DIRECTIONS[name]
    for sym in reg.symbols.values():
        if sym.name.endswith("_bar"):
            base = reg.symbols[sym.name[:-4]]
            assert sym.directions == base.directions
        assert all(n == reg.dim for n, moved in
                   zip(sym.slots, sym.directions) if moved)


def test_a_source_the_typing_cannot_read_keeps_the_slots_of_range_dim():
    # the typing pass reads the whole source first and never raises: a
    # syntax error past the first statements leaves every slot of range
    # dim a direction, and the parse fails where it did
    text = (_EPS3 + "L = %s;\n" % _CURL) + "ni c[g:3] { (x[g]) = ; }"
    assert parser._directions(parser._Parser(text)) is None
    with pytest.raises(ParseError) as err:
        parse_theory("dim 3;\n" + text)
    assert (err.value.line, err.value.col) == (5, 22)


@pytest.mark.parametrize("text, message, line", [
    # read at their first declarations, as the builder reads them, a field
    # and a dim declared twice type no slot that the builder refuses: the
    # parse fails at the second declaration, as it did
    ("dim 3;\nfield x[2] even;\nfield x[3] even;\nL = sum(i){ x[i;i] };",
     "already declared", 3),
    ("dim 4;\nfield x[3] even;\ndim 3;\nL = sum(i){ x[i;i] };",
     "dim declared twice", 3),
    # and a ghost named as a table fails where the registry declares it,
    # after its rows, with no position, not at the table's typing of
    # another shape
    ("dim 3;\nfield x[3] even;\ntable c[2]{ [0]=1; }\nL = sum(i){ x[i;i] };"
     "\nni c[g:3, h:3] { (x[g]; h) = 1; }", "already declared", None),
])
def test_a_name_declared_twice_is_typed_as_the_builder_reads_it(
        text, message, line):
    with pytest.raises(GvcError, match=message) as err:
        parse_theory(text)
    assert getattr(err.value, "line", None) == line


@pytest.mark.parametrize("text, proved", _SOURCES)
def test_the_source_proves_only_the_swaps_its_indices_allow(text, proved):
    theory = parse_theory("dim 3;\n%s\n" % text)
    assert certified_swaps_hold(theory) == proved
