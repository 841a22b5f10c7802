"""The parser's binder sites against the tree walks they replaced.

As it reads, ``gvc.grammar._Parser`` resolves each index to its innermost
binder and notes the binder's sites, every slot and jet its index sits in;
the typing (``_directions``) and each ``sum``'s range inference
(``_Eval.resolve``) read those lists.  The walks they replaced, one over
every statement tree for the typing and one scan of each ``sum`` body, are
the oracles of ``tests/conftest.py``.  On every builtin, on random and
planted theories (``tests/test_random_theories.py``) and on a seeded sample
of edited builtin sources, both give the same typing, ranges and
directions, the same theory and the same first error.
"""
import random

import pytest

from gvc.parser import ParseError, parse_theory
from gvc.theories import fixture_text
from conftest import (assert_sites_match_walks, parse_outcome,
                      reference_typing)

_SOURCES = {name: fixture_text(name) for name in ("bf", "cs3", "grav4",
                                                  "ym4")}
_SOURCES.update(bf4=fixture_text("bf", n=4, p=1, q=2),
                ym4_super=fixture_text("ym4", algebra="osp12"))


@pytest.mark.parametrize("name", sorted(_SOURCES))
def test_each_builtin_types_and_infers_ranges_as_the_walks_do(name):
    assert_sites_match_walks(_SOURCES[name])


# -- an index bound again -----------------------------------------------------

_DECLS = "dim 2;\ntable t[3]{ [0]=1; [1]=2; [2]=3; }\nfield x[2] even;\n"


def test_an_inner_sum_rebinds_an_index_of_its_own_range():
    # the inner i runs over t's 3 entries (1 + 2 + 3), the outer over x's
    # slot, which no jet reaches
    text = _DECLS + "L = sum(i){ x[i;] * sum(i){ t[i] } }^2;"
    theory = parse_theory(text)
    expected = parse_theory(_DECLS + "L = 36 * (x[0;] + x[1;])^2;")
    assert theory.lagrangian.pretty() == expected.lagrangian.pretty()
    assert theory.registry.symbols["x"].directions == (False,)
    assert_sites_match_walks(text)


def test_an_index_only_an_inner_sum_reads_has_no_range():
    text = _DECLS + "L = sum(i){ sum(i){ t[i] } };"
    with pytest.raises(ParseError) as err:
        parse_theory(text)
    assert str(err.value) == \
        "cannot infer a range for index 'i' (line 4, column 1)"
    assert_sites_match_walks(text)


@pytest.mark.parametrize("block, rows", [
    # a sum rebinds the key's free jet index n
    ("ni c[w:2] { (x[w]; n) = sum(n){ x[n;w] }; }",
     {("x", (0,), (0,)): "x[0;0] + x[1;0]",
      ("x", (0,), (1,)): "x[0;0] + x[1;0]"}),
    # a sum rebinds the record binder w
    ("ni c[w:2] { (x[n]; w) = sum(w:2){ x[w;n] }; }",
     {("x", (0,), (0,)): "x[0;0] + x[1;0]",
      ("x", (1,), (0,)): "x[0;1] + x[1;1]"}),
])
def test_a_sum_in_a_row_rebinds_an_index_of_its_key(block, rows):
    # the rows of the record c[0]
    text = _DECLS + "L = x[0;]^2;\n" + block
    first, _second = parse_theory(text).records
    assert {key: row.pretty() for key, row in first.rows.items()} == rows
    assert_sites_match_walks(text)


# -- no error moves -----------------------------------------------------------

# bytes an edit writes: indices, digits and the punctuation of the grammar
_BYTES = "ijmnrtw0123;,:()[]{}=+-* \n"


def _edited(rng, text):
    """``text`` cut at a random byte, or with 1-3 random bytes replaced,
    inserted or deleted there."""
    at, n, how = rng.randrange(len(text)), rng.randint(1, 3), rng.randrange(4)
    new = "".join(rng.choice(_BYTES) for _ in range(n))
    return (text[:at], text[:at] + new + text[at + n:],
            text[:at] + new + text[at:], text[:at] + text[at + n:])[how]


def test_no_edit_of_a_builtin_moves_its_outcome_off_the_walks():
    # a fixed sample of truncations and small edits of the six builtin
    # sources parses to the same theory, or fails with the same error at
    # the same place, when the oracles type it and infer its ranges
    rng, outcomes = random.Random(20261022), []
    for name in sorted(_SOURCES):
        for _ in range(16 if name == "grav4" else 40):
            text = _edited(rng, _SOURCES[name])
            outcome = parse_outcome(text)
            with reference_typing():
                assert parse_outcome(text) == outcome, (name, text)
            outcomes.append(outcome)
    # the sample holds both: theories, whose certificates are dicts, and
    # errors
    assert {isinstance(out[1], dict) for out in outcomes} == {True, False}
