"""The parser's compiled evaluator against the tree walker it replaced.

``WalkerEval`` (tests/conftest.py) re-walks each statement's tree for every
binding, with no factor hoisted and no value taken by orbit.  Parsing under
it and under the compiled evaluator must give the same objects in the
global variable order, coefficient types included, the same certificates,
and raise the same first error, on every builtin and on random statements.
The order in which they intern jet variables may differ: the compiled one
interns a value's images as it maps them, and rank order never reaches the
output (``gvc.algebra``).
"""
import pytest
from hypothesis import given, settings, strategies as st

from gvc.parser import parse_expr, parse_theory
from gvc.theories import BUILTINS, fixture_text
from conftest import TOY_TEXT, both_routes, in_global_order, parsed_text


_TEXTS = {name: fixture_text(name) for name in BUILTINS}
_TEXTS.update(bf4=fixture_text("bf", n=4, p=1, q=2),
              ym4_super=fixture_text("ym4", algebra="osp12"), toy=TOY_TEXT)


@pytest.mark.parametrize("name", sorted(_TEXTS))
def test_every_builtin_statement_evaluates_as_the_walker_does(name):
    objects = both_routes(parsed_text(_TEXTS[name]))
    assert isinstance(objects, dict), objects  # parsed, not an error


# -- random statements --------------------------------------------------------

_DECLS = """dim 2; jet_order 2;
table g[2,2]{ [0,0]=1; [0,1]=1/2; [1,1]=-1; }
table z[3]{ [1]=2; [2]=-1/3; }
field s even; field a[2] even; field p[2] odd;
field F[3,3] antisym even; field S[2,2] sym even;
L = s;
"""
_ARITY = {"s": 0, "a": 1, "p": 1, "F": 2, "S": 2, "g": 2, "z": 1,
          "nosuch": 1}
# factors that are zero for every binding, in front of a reference that
# may be invalid: a clean statement never evaluates what follows them
_ZEROS = ["0", "g[1,0]", "z[0]", "F[1,1;]", "(a[0;] - a[0;])"]


@st.composite
def _refs(draw, bound):
    """Mostly valid references; now and then one with an unbound index
    ``q``, an index out of range, the wrong arity, jets past the cap or on
    a table, or an unknown name."""
    name = draw(st.sampled_from(sorted(_ARITY) + ["s", "a", "F", "S"] * 2))
    index = st.sampled_from(list(bound) * 6 + ["0", "1"] * 2 +
                            ["2", "3", "q"])
    arity = _ARITY[name]
    if not draw(st.integers(0, 15)):
        arity = draw(st.integers(0, 3))
    comps = draw(st.lists(index, min_size=arity, max_size=arity))
    jets = []
    if draw(st.integers(0, 9 if name in ("g", "z") else 1)) == 1:
        jets = draw(st.lists(index, min_size=1,
                             max_size=3 if draw(st.integers(0, 9)) else 2))
    if not comps and not jets:
        return name
    return "%s[%s;%s]" % (name, ",".join(comps), ",".join(jets))


@st.composite
def _expressions(draw, bound, depth=3):
    if not depth or not draw(st.integers(0, 2)):
        if draw(st.integers(0, 3)):
            return draw(_refs(bound))
        return draw(st.sampled_from(["0", "2", "1/2", "-3"]))
    shape = draw(st.sampled_from(
        ["add", "mul", "neg", "pow", "sum", "sum", "zero", "late", "split",
         "split", "scaled"]))
    if shape in ("add", "mul"):
        items = draw(st.lists(_expressions(bound, depth - 1), min_size=2,
                              max_size=3))
        if shape == "mul":
            return " * ".join("(%s)" % item for item in items)
        signs = draw(st.lists(st.sampled_from(["+", "-"]),
                              min_size=len(items), max_size=len(items)))
        return " ".join(s + " (%s)" % item for s, item in zip(signs, items))
    if shape == "neg":
        return "-(%s)" % draw(_expressions(bound, depth - 1))
    if shape == "pow":
        return "(%s)^%d" % (draw(_expressions(bound, depth - 1)),
                            draw(st.integers(0, 2)))
    if shape == "zero":
        return "%s * (%s)" % (draw(st.sampled_from(_ZEROS)),
                              draw(_expressions(bound, depth - 1)))
    if shape == "scaled":
        # a whole product of rationals is an int
        pair = draw(st.sampled_from([("2", "1/2"), ("3/2", "-2/3"),
                                     ("g[0,1]", "2"), ("1/2", "1/2")]))
        return "%s * %s * (%s)" % (pair + (draw(_expressions(bound,
                                                             depth - 1)),))
    if shape == "late":
        # a sum whose range cannot be inferred fails only where it is
        # evaluated, after any error of what comes before it
        return "(%s) + sum(n){ %s }" % (draw(_expressions(bound, depth - 1)),
                                        draw(_expressions(bound, depth - 1)))
    if shape == "split":
        # the same index values, split otherwise between components and
        # jets: another variable, or an invalid reference
        ref = draw(_refs(bound))
        if "[" not in ref:
            return ref
        name, inner = ref[:-1].split("[")
        atoms = [a for a in inner.replace(";", ",").split(",") if a]
        cut = draw(st.integers(0, len(atoms)))
        return "%s * %s[%s;%s]" % (ref, name, ",".join(atoms[:cut]),
                                   ",".join(atoms[cut:]))
    # binders may shadow an index bound around them; a binder with no
    # range is inferred from its uses, or cannot be, or conflicts
    names = draw(st.lists(st.sampled_from("ijkm"), min_size=1, max_size=2,
                          unique=True))
    binders = ["%s:%d" % (n, draw(st.integers(1, 3)))
               if draw(st.integers(0, 2)) else n for n in names]
    body = draw(_expressions(sorted(set(bound) | set(names)), depth - 1))
    return "sum(%s){ %s }" % (",".join(binders), body)


# (context, indices bound around the value): ``(F[0,i])`` kills the key
# with i = 0, ``(F[i,i])`` every key
_CONTEXTS = [
    ("%s", ()),
    ("gauge { (F[0,i]) = %s; }", ("i",)),
    ("gauge { (F[i,i]) = %s; (a[j]) = a[j;]; }", ("i",)),
    ("gauge { (S[i,1]) = %s; }", ("i",)),
    ("ni c[w:2] { (a[i]; j) = %s; }", ("w", "i", "j")),
    ("ni c[w:2] { (F[i,w]) = %s; }", ("w", "i")),
]


# one statement of each shape the random ones draw from, in every context
_SHAPES = [
    "g[1,0] * nosuch", "F[1,1;] * a[5;] + a[0;]",  # zeros hide bad refs
    "a[0;] * sum(n){ 2 }", "a[9;] + sum(n){ 2 }",  # uninferable sums
    "sum(i){ a[i;] * sum(i:3){ z[i] * F[i,2;] } }",  # shadowing binders
    "2 * 1/2 * a[0;] + 3/2 * -2/3 * s",  # whole products of rationals
    "F[0,1;] * F[0;1]", "S[1,0;] - 2 * S[0,1;]",  # one variable, two ways
    # a clean zero product beside an invalid reference: the walker's
    # statement-wide rule evaluates its factors, the compiled per-product
    # rule stops at its zero
    "0 * a[0;1] + nosuch", "z[0] * a[1;0] + a[2;]",
    # a factor that computes a polynomial is evaluated in the scope of the
    # binders it reads only when it is clean, and after no odd factor it
    # would have to pass
    "sum(i, j){ (s + s) * g[j,3] * (a[i;5] + s) }",
    "sum(i, j){ g[i,j] * (p[j;] + p[j;i]) * (p[i;] + a[i;] * p[i;i]) }",
]


def test_each_shape_evaluates_as_the_walker_does():
    for context, _bound in _CONTEXTS[1:]:
        for expr in _SHAPES:
            both_routes(parsed_text(_DECLS + context % expr))


# sums with no direction bound around them, gauge components and record
# families, each taken by orbit of the swap (0 1): every factor of a sum's
# body is mapped by its own sign, a table's -1 and an odd field's included
_ORBIT_DECLS = """dim 2; jet_order 2;
table h[2]{ [0]=1; [1]=-1; }
field a[2] even; field p[2] odd;
"""
_ORBIT_TEXTS = [
    "L = sum(i){ h[i] * a[i;] * sum(j){ a[j;] * a[j;i] } };",
    "L = sum(i){ p[i;] * sum(j){ h[j] * p[j;i] } } + a[0;] * a[1;];",
    "L = a[0;] - sum(i){ a[i;] * sum(j){ a[j;i] } + a[i;i] };",
    "L = a[0;] - sum(i, j){ (a[i;] + a[i;i]) * h[j] * p[j;] * p[j;i] };",
    # a product that is zero at its orbit's first member, cut there, and
    # whose image adds nothing
    "L = sum(i){ (a[i;] - a[i;]) * sum(j){ a[j;] * a[j;i] } } + a[0;] * "
    "a[1;];",
    "L = a[0;] * a[1;];\nni c[w:2] { (a[w]) = h[w] * sum(j){ a[j;w] }; "
    "(p[w]; w) = h[w] * sum(j){ p[j;] }; }\n"
    "gauge { (a[i]) = sum(j){ c[j;i] * h[j] * a[j;] }; }",
]


@pytest.mark.parametrize("text", _ORBIT_TEXTS)
def test_each_value_taken_by_orbit_evaluates_as_the_walker_does(text):
    objects = both_routes(parsed_text(_ORBIT_DECLS + text))
    assert isinstance(objects, dict), objects


@settings(max_examples=150)
@given(st.data())
def test_random_statements_evaluate_as_the_walker_does(data):
    context, bound = data.draw(st.sampled_from(_CONTEXTS))
    expr = data.draw(_expressions(bound))
    if context == "%s":
        both_routes(lambda: in_global_order(parse_expr(
            expr, parse_theory(_DECLS).registry)))
    else:
        both_routes(parsed_text(_DECLS + context % expr))
