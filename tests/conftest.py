"""Shared test fixtures: parsed theories are reused across modules.

Parsing the shipped fixture files is cheap but not free, and several test
modules exercise the same theories; everything here is parse-once.  The
checks themselves never mutate a TheorySpec (negative controls rebuild),
so sharing is safe.
"""
import pytest
from hypothesis import settings

import gvc.brst
import gvc.cli
import gvc.noether
from gvc.parser import parse_theory
from gvc.theories import build_fixture, load_builtin

settings.register_profile("gvc", deadline=None, max_examples=60)
settings.load_profile("gvc")


# A synthetic reducible theory whose stage identity closes only on shell:
# it carries an h certificate on the stage record and alpha certificates for
# the stage-1 gauge condition, which none of the shipped fixtures need.
TOY_TEXT = """
theory toy;
dim 1;
field y even;
field z even;
L = 1/2 * (y[;0] - z)^2;
ni ca[] { (y) = 1; (z; 0) = -1; }
ni cb[] { (y) = 1 + z - y[;0]; (z; 0) = -1; (z) = -z[;0] + y[;0,0]; }
stage 1 ps[] { (ca) = 1; (cb) = -1; h { y_bar * z_bar }; }
gauge { (y) = ca + (1 + z - y[;0]) * cb;
        (z) = ca[;0] + (-z[;0] + y[;0,0]) * cb + cb[;0];
        (ca) = ps; (cb) = -ps; }
alpha 1 { (y) = -ps * z_bar; (z) = ps * y_bar; }
"""

_CACHE = {}


def cached(name):
    """Parse-once accessor, also usable outside fixture contexts."""
    if name not in _CACHE:
        if name == "bf4":
            _CACHE[name] = build_fixture("bf", n=4, p=1, q=2)
        elif name == "toy":
            _CACHE[name] = parse_theory(TOY_TEXT)
        else:
            _CACHE[name] = load_builtin(name)
    return _CACHE[name]


@pytest.fixture(scope="session")
def bf():
    return cached("bf")


@pytest.fixture(scope="session")
def bf4():
    return cached("bf4")


@pytest.fixture(scope="session")
def toy():
    return cached("toy")


@pytest.fixture(scope="session")
def ym4():
    return cached("ym4")


@pytest.fixture(scope="session")
def cs3():
    return cached("cs3")


@pytest.fixture(scope="session")
def ym4_super():
    return cached("ym4_super")


def all_pass(entries):
    assert entries, "no report entries"
    for e in entries:
        assert e["status"] == "pass", e
    return entries


def count_calls(monkeypatch, name):
    """Record every call of ``name`` made through the gvc modules that hold
    it (its own module and each that imports it); returns the call list."""
    calls = []
    for mod in (gvc.noether, gvc.brst, gvc.cli):
        fn = getattr(mod, name, None)
        if fn is None:
            continue

        def counted(*args, _fn=fn, **kwargs):
            calls.append(args)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    return calls
