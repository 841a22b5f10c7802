"""Per-layer tracing of gvc from outside the package.

``Tracer.install`` replaces the public functions and methods listed in
``TARGETS`` with timing wrappers.  Plain functions are rebound wherever a
``gvc`` module holds them: as a module global, or as a value of a module-level
dict (``cli._RUNNERS`` keeps the check runners there).  Methods are rebound on
their class, under every attribute name that refers to them (``__radd__`` is
``__add__``).  The program's source is never edited.

Every call pushes a frame on one shared stack, so a layer's self time is its
duration minus the time of wrapped calls inside it.  The stack is shared
across threads because ``cli.run_checks`` runs each check on a pool thread
while the calling thread waits in ``build_report``; the benchmark hands each
``build_report`` one check, so at most one thread runs gvc code at a time and
the nesting stays exact.  Spans record their thread all the same.

Calls of *hot* targets (the ring, the interner, the jet layer) are folded
into per-parent aggregates instead of one span each: ``Registry.jet_var``
alone runs about a million times in one grav4 round.  Everything else keeps
one span per call.  All of it stays in memory until ``dump`` writes it out.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import sys
import threading
import time

# (metric prefix, module, attribute, hot)
TARGETS = (
    ("parser.parse_theory", "gvc.parser", "parse_theory", False),
    ("theories.fixture_text", "gvc.theories", "fixture_text", False),
    ("algebra.mul", "gvc.algebra", "GradedPoly.__mul__", True),
    ("algebra.add", "gvc.algebra", "GradedPoly.__add__", True),
    ("algebra.derivative", "gvc.algebra", "GradedPoly.derivative", True),
    ("algebra.jet_var", "gvc.algebra", "Registry.jet_var", True),
    ("algebra.pretty", "gvc.algebra", "GradedPoly.pretty", True),
    ("jets.total_derivative", "gvc.jets", "total_derivative", True),
    ("jets.prolong_apply", "gvc.jets", "prolong_apply", True),
    ("jets.coefficient", "gvc.jets", "EvolutionaryDerivation.coefficient",
     True),
    ("variational.euler_lagrange", "gvc.variational", "euler_lagrange",
     False),
    ("variational.variational_derivative", "gvc.variational",
     "variational_derivative", False),
    ("variational.eta", "gvc.variational", "eta", False),
    ("variational.is_total_divergence", "gvc.variational",
     "is_total_divergence", False),
    ("variational.check_variational_symmetry", "gvc.variational",
     "check_variational_symmetry", False),
    ("noether.verify_ni", "gvc.noether", "verify_ni", False),
    ("noether.check_kt_nilpotent", "gvc.noether", "check_kt_nilpotent",
     False),
    ("noether.assemble_kt", "gvc.noether", "assemble_kt", False),
    ("brst.gauge_from_ni", "gvc.brst", "gauge_from_ni", False),
    ("brst.check_gauge_symmetry", "gvc.brst", "check_gauge_symmetry", False),
    ("brst.check_brst_nilpotent", "gvc.brst", "check_brst_nilpotent", False),
    ("cli.build_report", "gvc.cli", "build_report", False),
    ("cli.render_text", "gvc.cli", "render_text", False),
    ("cli.mutation_sites", "gvc.cli", "mutation_sites", False),
)


class Tracer:
    """Timing wrappers around gvc's layers, with spans kept in memory."""

    def __init__(self):
        # A frame is [seconds spent in wrapped children, enclosing span id].
        self.stack = [[0.0, 0]]
        self.spans = []   # (id, name, start, end, parent id, thread, self s)
        self.aggs = {}    # hot name -> {parent span id: [calls, total, self]}
        self.counts = {}  # counter name -> int
        self._ids = itertools.count(1)
        self._undo = []
        self._jet_vars = set()
        self._coef_pairs = {}

    # -- wrappers ------------------------------------------------------------

    def _hot(self, name, fn, extra=None):
        stack, rows, pc = self.stack, self.aggs.setdefault(name, {}), \
            time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            t0 = pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = pc() - t0
                stack.pop()
                parent[0] += dt
                row = rows.get(parent[1])
                if row is None:
                    row = rows[parent[1]] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += dt
                row[2] += dt - frame[0]
            if extra is not None:
                extra(args, result)
            return result
        return wrapper

    def _span(self, name, fn, extra=None):
        span = self.span

        def wrapper(*args, **kwargs):
            with span(name):
                result = fn(*args, **kwargs)
            if extra is not None:
                extra(args, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """One span around the block; the benchmark's own spans use it too."""
        stack = self.stack
        parent = stack[-1]
        frame = [0.0, next(self._ids)]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            parent[0] += t1 - t0
            self.spans.append((frame[1], name, t0, t1, parent[1],
                               threading.get_ident(), t1 - t0 - frame[0]))

    # -- counters ------------------------------------------------------------

    def _count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def _extras(self):
        count = self._count
        jet_vars, pairs = self._jet_vars, self._coef_pairs

        def mul(args, result):
            count("algebra.mul.terms_out", len(result.terms))

        def add(args, result):
            # __add__ copies the larger operand's dict, then merges the other
            a, b = args
            nb = len(b.terms) if hasattr(b, "terms") else 1
            count("algebra.add.terms_copied", max(len(a.terms), nb))

        def derivative(args, result):
            count("algebra.derivative.terms_scanned", len(args[0].terms))
            count("algebra.derivative.terms_out", len(result.terms))

        def jet_var(args, result):
            var = result[0]
            if var is not None:
                jet_vars.add(id(var))

        def total_derivative(args, result):
            count("jets.total_derivative.terms_out", len(result.terms))

        def coefficient(args, result):
            seen = pairs.get(id(args[0]))
            if seen is None:
                seen = pairs[id(args[0])] = set()
            seen.add(id(args[1]))

        def parse_theory(args, result):
            count("parser.bytes", len(args[0].encode("utf-8")))

        return {"algebra.mul": mul, "algebra.add": add,
                "algebra.derivative": derivative, "algebra.jet_var": jet_var,
                "jets.total_derivative": total_derivative,
                "jets.coefficient": coefficient,
                "parser.parse_theory": parse_theory}

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every target; ``uninstall`` puts the originals back."""
        import gvc.cli  # noqa: F401  (loads every gvc module)
        from gvc.jets import EvolutionaryDerivation

        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "gvc" or n.startswith("gvc.")) and m is not None]
        extras = self._extras()
        for name, modname, attr, hot in TARGETS:
            make = self._hot if hot else self._span
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                wrapped = make(name, orig, extras.get(name))
                for key, val in list(cls.__dict__.items()):
                    if val is orig:
                        self._set(cls, key, wrapped)
                continue
            orig = getattr(owner, attr)
            wrapped = make(name, orig, extras.get(name))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapped)
                    elif type(val) is dict:
                        for k, v in list(val.items()):
                            if v is orig:
                                self._undo.append((val.__setitem__, k, orig))
                                val[k] = wrapped

        # A derivation's id can be reused once it is freed: forget the pairs
        # recorded under an id whenever a new derivation takes it.
        init = EvolutionaryDerivation.__init__
        pairs = self._coef_pairs

        def fresh_init(obj, *args, **kwargs):
            pairs.pop(id(obj), None)
            init(obj, *args, **kwargs)
        self._set(EvolutionaryDerivation, "__init__", fresh_init)
        return self

    def _set(self, owner, key, value):
        old = getattr(owner, key) if not isinstance(owner, type) \
            else owner.__dict__[key]
        self._undo.append((lambda k, v, o=owner: setattr(o, k, v), key, old))
        setattr(owner, key, value)

    def uninstall(self):
        for setter, key, old in reversed(self._undo):
            setter(key, old)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def totals(self):
        """{name: [calls, inclusive seconds, self seconds]} over the run."""
        out = {name: [0, 0.0, 0.0] for name, _m, _a, _h in TARGETS}
        for name, rows in self.aggs.items():
            tot = out[name]
            for calls, total, self_s in rows.values():
                tot[0] += calls
                tot[1] += total
                tot[2] += self_s
        for _sid, name, t0, t1, _p, _t, self_s in self.spans:
            tot = out.setdefault(name, [0, 0.0, 0.0])
            tot[0] += 1
            tot[1] += t1 - t0
            tot[2] += self_s
        return out

    def coefficient_distinct_pairs(self):
        return sum(len(s) for s in self._coef_pairs.values())

    def jet_vars_seen(self):
        return len(self._jet_vars)

    def wrapped_calls(self):
        hot = sum(row[0] for rows in self.aggs.values()
                  for row in rows.values())
        return hot, len(self.spans)

    def dump(self, path, meta):
        """Write spans and per-parent aggregates as one JSON document."""
        names = {sid: name for sid, name, *_rest in self.spans}
        names[0] = "(root)"
        doc = {
            "meta": meta,
            "spans": [{"id": sid, "name": name, "start": t0, "end": t1,
                       "parent": parent, "thread": thread, "self_s": self_s}
                      for sid, name, t0, t1, parent, thread, self_s
                      in self.spans],
            "aggregates": [{"name": name, "parent": pid,
                            "parent_name": names.get(pid, "?"),
                            "calls": row[0], "total_s": row[1],
                            "self_s": row[2]}
                           for name, rows in sorted(self.aggs.items())
                           for pid, row in sorted(rows.items())],
            "counts": self.counts,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def wrapper_cost(calls=50_000):
    """Seconds one hot and one span wrapper add per call, measured now."""
    def noop(x):
        return x
    probe = Tracer()
    hot, span = probe._hot("probe", noop), probe._span("probe", noop)
    costs = []
    for fn in (hot, span):
        best = None
        for _ in range(3):
            t0 = time.perf_counter()
            for i in range(calls):
                noop(i)
            raw = time.perf_counter() - t0
            probe.spans.clear()
            t0 = time.perf_counter()
            for i in range(calls):
                fn(i)
            dt = (time.perf_counter() - t0 - raw) / calls
            best = dt if best is None else min(best, dt)
        costs.append(max(best, 0.0))
    return tuple(costs)
