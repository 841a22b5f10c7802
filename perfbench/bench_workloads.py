"""The three workloads: inputs drawn from a seed, rounds of checks, verdicts.

A workload builds the inputs of one round (``build``) and lists the jobs of
that round.  A job is one check on one theory.  Each job is its own
``gvc.cli.build_report(theory, [check])`` call, rendered with ``render_text``:
``cli.run_checks`` hands the selected checks to a thread pool, and with one
check per call that pool never runs two checks at once.  Running checks
concurrently there loses CPU to the interpreter lock and races in the
jet-variable interner (see CHANGES.md), and a benchmark must not count either.

Every verdict is checked against what it must be, never against a stored
copy of earlier output.  A wrong verdict, or an exception, counts as a failed
job and the round goes on.
"""
from __future__ import annotations

import functools
import random
from fractions import Fraction

DEFAULT_CHECKS = ("ni", "kt", "gauge", "brst")
# ni is left out on grav4 only: its 25 s round would not fit the run budget
# (see README.md), and kt already drives the same jet-layer kernels.
GRAV4_CHECKS = ("kt", "gauge", "brst")
VARIANTS_PER_ROUND = 10
MUTANT_THEORIES = ("bf", "bf4", "ym4", "ym4_super", "cs3")


class Job:
    """One check on one theory, with the verdict it must produce.

    ``theory`` is a callable so that mutants are built inside the round,
    after the healthy theory has run (mutants that keep the Lagrangian
    inherit its Euler-Lagrange cache, as they do for any caller).
    ``expect`` is a predicate on the report; it returns True when the
    verdict is right.
    """

    __slots__ = ("label", "theory", "check", "expect", "first_of_theory")

    def __init__(self, label, theory, check, expect, first_of_theory=False):
        self.label = label
        self.theory = theory
        self.check = check
        self.expect = expect
        self.first_of_theory = first_of_theory


# ---------------------------------------------------------------------------
# verdict predicates


def all_pass(report):
    return report["overall"] == "pass" and bool(report["entries"]) and all(
        e["status"] == "pass" for e in report["entries"])


def has_fail(report):
    return any(e["status"] == "fail" for e in report["entries"])


def anything(report):
    return True


def catcher(label):
    """The check a single sign flip of this mutation site must break."""
    kind = label.split(" ")[0]
    return {"lagrangian": "ni", "record": "ni", "stage": "kt",
            "gauge": "gauge", "gamma": "brst"}[kind]


def _targets(report):
    return sorted(e["target"] for e in report["entries"])


def grav4_expect(theory, check):
    """Every entry passes; ``ni`` has one entry per record, ``gauge`` one
    for ``u`` plus one per declared gauge component."""
    if check == "ni":
        want = sorted(r.label() for r in theory.records)
    elif check == "gauge":
        from gvc.noether import comp_label
        want = sorted(["u"] + [comp_label(*k)
                               for k in theory.gauge_candidate])
    elif check == "kt":
        want = ["delta_KT"]
    else:
        want = ["b"]
    return lambda report: all_pass(report) and _targets(report) == want


def el_signature(theory):
    """Euler-Lagrange components as canonical text, comparable across
    registries (jet variables of two registries are distinct objects)."""
    from gvc.variational import euler_lagrange
    el = euler_lagrange(theory.lagrangian)
    return {key: poly.pretty() for key, poly in el.components.items()}


# ---------------------------------------------------------------------------
# workloads


def _theory_text(name):
    from gvc import theories
    if name == "bf4":
        return theories.fixture_text("bf", n=4, p=1, q=2)
    if name == "ym4_super":
        return theories.fixture_text("ym4", algebra="osp12")
    return theories.fixture_text(name)


def _parse(text):
    from gvc.parser import parse_theory
    return parse_theory(text)


class Grav4:
    """The shipped grav4 (its generator's text is byte-identical to the
    shipped file) with ``GRAV4_CHECKS``.  The seed is not used."""

    name = "grav4"
    min_rounds = 1

    def build(self, seed):
        return _parse(_theory_text("grav4"))

    def reference(self):
        return None

    def jobs(self, theory, reference=None):
        return [Job("grav4", lambda: theory, check,
                    grav4_expect(theory, check), i == 0)
                for i, check in enumerate(GRAV4_CHECKS)]


class Mutants:
    """Five healthy theories, each followed by one single-sign mutant per
    ingredient kind (Lagrangian, record, stage record, gauge, gamma): the
    first site of each kind in ``mutation_sites`` order.  The seed is not
    used: which record is flipped changes the cost of a round by up to a
    fifth, and the runs must stay comparable across seeds."""

    name = "mutants"
    min_rounds = 3

    def build(self, seed):
        from gvc.cli import mutation_sites
        out = []
        for name in MUTANT_THEORIES:
            theory = _parse(_theory_text(name))
            by_kind = {}
            for label, build in mutation_sites(theory):
                by_kind.setdefault(label.split(" ")[0], (label, build))
            out.append((name, theory, list(by_kind.values())))
        return out

    def reference(self):
        return None

    def jobs(self, inputs, reference=None):
        jobs = []
        for name, theory, picked in inputs:
            for i, check in enumerate(DEFAULT_CHECKS):
                jobs.append(Job(name, lambda t=theory: t, check, all_pass,
                                i == 0))
            for label, build in picked:
                mutant = functools.cache(build)  # built once, at first use
                want = catcher(label)
                for i, check in enumerate(DEFAULT_CHECKS):
                    jobs.append(Job("%s: %s" % (name, label), mutant, check,
                                    has_fail if check == want else anything,
                                    i == 0))
        return jobs


def variant_backgrounds(seed, count=VARIANTS_PER_ROUND):
    """Constant cs3 backgrounds: four nonzero entries of the 3x3 table at
    seeded positions, each a seeded rational p/q with 1 <= |p| <= 9 and
    1 <= q <= 4, so every variant has the same shape and size."""
    rng = random.Random("variants:%d" % seed)
    out = []
    cells = [(i, j) for i in range(3) for j in range(3)]
    for _ in range(count):
        bg = {}
        for cell in rng.sample(cells, 4):
            bg[cell] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                                rng.randint(1, 4))
        out.append(bg)
    return out


class Variants:
    """Seeded constant-background variants of cs3, each parsed fresh."""

    name = "variants"
    min_rounds = 3

    def build(self, seed):
        from gvc import theories
        texts = [theories.fixture_text("cs3", background=bg)
                 for bg in variant_backgrounds(seed)]
        return [_parse(text) for text in texts]

    def reference(self):
        """Field equations of the background-free cs3, as canonical text."""
        from gvc import theories
        return el_signature(_parse(theories.fixture_text(
            "cs3", background=None)))

    def jobs(self, inputs, reference):
        jobs = []
        for k, theory in enumerate(inputs):
            def ni_ok(report, theory=theory):
                # a constant background adds only a divergence and a
                # constant, so the field equations must not move
                return all_pass(report) and \
                    el_signature(theory) == reference
            for i, check in enumerate(DEFAULT_CHECKS):
                jobs.append(Job("cs3 variant %d" % k, lambda t=theory: t,
                                check, ni_ok if check == "ni" else all_pass,
                                i == 0))
        return jobs


WORKLOADS = {w.name: w for w in (Grav4(), Mutants(), Variants())}

