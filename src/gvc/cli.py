"""Command-line driver: load a theory, run selected checks, report, exit.

The report is deterministic: entries are sorted by check and target, and a
canonical digest is printed that covers everything except the per-entry wall
times, so two runs of the same invocation can be compared by digest even
though their timings differ.  Checks run one after another, and each entry's
``time`` is the wall time of its own check.  Exit code 0 means every selected
check passed; 1 means at least one check failed or was only verifiable on
shell; 2 means the input could not be read, parsed or validated at all, or
that checking it ran out of memory.

Negative controls: ``--mutate sign`` flips one sign before checking (the
leading gamma term when the theory declares gamma, otherwise the leading
non-constant Lagrangian term; a theory with neither is rejected with exit
2), which must turn a healthy fixture red.  The finer-grained
``mutation_sites`` enumerates one single-sign mutation per structural
ingredient for harness use.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial

try:
    # the interpreter's own SHA-256: hashlib's would load OpenSSL
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from .algebra import GradedPoly, GvcError, Registry
from .brst import check_antibracket, check_brst_nilpotent, \
    check_gauge_symmetry
from .noether import NoetherRecord, check_extended, \
    check_kt_nilpotent, comp_label, inherited, triviality_report, \
    verify_ni, verify_stage_ni
from .parser import TheorySpec, parse_theory
from . import theories

CHECK_NAMES = ("ni", "stages", "kt", "extended", "gauge", "brst",
               "antibracket", "triviality")
DEFAULT_CHECKS = "ni,kt,gauge,brst"


_RUNNERS = {
    "ni": verify_ni,
    "stages": lambda theory: [e for k in theory.stage_numbers() or [1]
                              for e in verify_stage_ni(theory, k)],
    "kt": check_kt_nilpotent,
    "extended": check_extended,
    "gauge": lambda theory: [e for k in [0] + theory.stage_numbers()
                             for e in check_gauge_symmetry(theory, k)],
    "brst": check_brst_nilpotent,
    "antibracket": check_antibracket,
    "triviality": triviality_report,
}


# ---------------------------------------------------------------------------
# sign mutations (negative controls)


def _varies(poly):
    """Whether poly has a non-constant term.  Flipping an additive constant
    of a Lagrangian changes no variational identity, so it would be an
    undetectable mutation."""
    return bool(poly.variables())


def _flip_leading(poly):
    """Flip the sign of the first monomial in canonical print order,
    skipping a constant one unless it is the only term (a constant row
    coefficient is an honest mutation)."""
    if not poly.terms:
        raise GvcError("a zero polynomial has no sign to flip")
    key = min((k for k in poly.terms if k), key=poly.global_key, default=())
    terms = dict(poly.terms)
    terms[key] = -terms[key]
    return GradedPoly(poly.reg, terms)


def _rebuild(theory, **over):
    """A copy of theory with the fields in ``over`` replaced, the one way to
    an edited theory, since a theory is read-only.  Its memo starts with
    every derived object whose inputs ``over`` leaves alone, and, for each
    object of ``noether.READS`` that the edit changes, what its update
    reads of theory (``noether.inherited``).  On first use each of those
    is derived from theory's version by the difference of the edit, the
    rest are built afresh."""
    kw = dict(name=theory.name, registry=theory.registry,
              lagrangian=theory.lagrangian, records=theory.records,
              stages=theory.stages, gauge_candidate=theory.gauge_candidate,
              gamma=theory.gamma, alphas=theory.alphas)
    kw.update(over)
    out = TheorySpec(**kw)
    out.derived.update(inherited(theory, over))
    return out


def _flipped(theory, field, key=None):
    """A copy of theory with one leading sign flipped (``_flip_leading``):
    that of the polynomial ``field``, or with ``key`` that of the component
    ``key`` of the block ``field``."""
    value = getattr(theory, field)
    if key is None:
        return _rebuild(theory, **{field: _flip_leading(value)})
    block = dict(value)
    block[key] = _flip_leading(block[key])
    return _rebuild(theory, **{field: block})


def _flip_record(rec):
    key = sorted(rec.rows)[0]
    rows = dict(rec.rows)
    rows[key] = _flip_leading(rows[key])
    return NoetherRecord(rec.ghost, rec.component, rows, rec.stage, rec.h)


def _nonzero_keys(components):
    """The keys of a component block with a sign to flip, sorted."""
    return [key for key in sorted(components)
            if not components[key].is_zero()]


def mutation_sites(theory):
    """Deterministic single-sign negative controls.

    Returns (label, build) pairs; each build() yields a copy of the theory
    with exactly one sign flipped -- in a Lagrangian term, one row of one
    record, one nonzero gauge-candidate or gamma component.  Flipping
    a single sign never changes parity, so the mutants stay well formed and
    only the verified identities break.  Each build goes through
    ``_rebuild``, so a mutant of a theory whose checks have run inherits
    what its edit leaves unchanged: a gauge or gamma mutant the residuals,
    a record mutant E_A, an L mutant the gauge stages and their images.
    It derives the rest from the parent's by the flipped monomial: an L
    mutant adds E(L' - L) to E_A and (delta' - delta)(Delta) to the
    residuals, a record mutant the images of its one changed row, a gamma
    mutant the images (gamma' - gamma)(b^X) and b'(gamma'^c - gamma^c).
    """
    sites = []
    if _varies(theory.lagrangian):
        sites.append(("lagrangian", partial(_flipped, theory, "lagrangian")))

    def record_site(k, i):
        def build():
            recs = list(theory.stage_records(k))
            recs[i] = _flip_record(recs[i])
            if k:
                return _rebuild(theory, stages={**theory.stages, k: recs})
            return _rebuild(theory, records=recs)
        return build

    for k in [0] + theory.stage_numbers():
        prefix = "stage record" if k else "record"
        for i, rec in enumerate(theory.stage_records(k)):
            sites.append(("%s %s" % (prefix, rec.label()), record_site(k, i)))
    for field, name in (("gauge_candidate", "gauge"), ("gamma", "gamma")):
        for key in _nonzero_keys(getattr(theory, field) or {}):
            sites.append(("%s %s" % (name, comp_label(*key)),
                          partial(_flipped, theory, field, key)))
    return sites


def apply_sign_mutation(theory):
    """The single mutation behind ``--mutate sign``; returns (mutant, label)."""
    if theory.gamma:
        # with every component zero, _flip_leading reports the first one
        key = (_nonzero_keys(theory.gamma) or sorted(theory.gamma))[0]
        return (_flipped(theory, "gamma", key),
                "sign of leading gamma term on %s" % comp_label(*key))
    if not _varies(theory.lagrangian):
        raise GvcError("--mutate sign needs a gamma block or a Lagrangian "
                       "with a non-constant term")
    return _flipped(theory, "lagrangian"), "sign of leading Lagrangian term"


# ---------------------------------------------------------------------------
# report assembly


def _residual_text(poly, limit):
    """A residual as report text: its first ``limit`` terms in canonical
    order, then how many there are when that is not all of them.  Only the
    terms shown are rendered."""
    text = poly.pretty(limit)
    if poly.num_terms() <= limit:
        return text
    return "%s + [truncated: %d of %d terms shown]" % (text, limit,
                                                       poly.num_terms())


def run_checks(theory, selected, max_residual_terms=8):
    out = []
    for name in selected:
        t0 = time.perf_counter()
        entries = _RUNNERS[name](theory)
        dt = time.perf_counter() - t0
        for e in entries:
            e["time"] = dt
            if "residual" in e:
                e["residual"] = _residual_text(e["residual"],
                                               max_residual_terms)
        out.extend(entries)
    out.sort(key=lambda e: (e["check"], e["target"], e["status"]))
    return out


def _overall(entries):
    statuses = {e["status"] for e in entries}
    if "fail" in statuses:
        return "fail"
    if "unverified-on-shell" in statuses:
        return "unverified"
    return "pass"


def _canonical_digest(report):
    doc = {k: v for k, v in report.items() if k != "canonical_sha256"}
    doc["entries"] = [{k: v for k, v in e.items() if k != "time"}
                      for e in report["entries"]]
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode("utf-8")).hexdigest()


def build_report(theory, selected, mutation="none", max_residual_terms=8):
    entries = run_checks(theory, selected, max_residual_terms)
    report = {
        "theory": theory.name or "(unnamed)",
        "jet_order": theory.registry.jet_order,
        "checks": list(selected),
        "mutation": mutation,
        "overall": _overall(entries),
        "entries": entries,
    }
    report["canonical_sha256"] = _canonical_digest(report)
    return report


def render_text(report):
    lines = [
        "theory: %s" % report["theory"],
        "jet order: %d" % report["jet_order"],
        "checks: %s" % ",".join(report["checks"]),
        "mutation: %s" % report["mutation"],
        "",
    ]
    for e in report["entries"]:
        lines.append("[%s] %s: %s (%.3fs)"
                     % (e["status"], e["check"], e["target"], e["time"]))
        if "note" in e:
            lines.append("    note: %s" % e["note"])
        if "residual" in e:
            lines.append("    residual: %s" % e["residual"])
    lines.append("")
    lines.append("overall: %s" % report["overall"])
    lines.append("canonical: sha256:%s" % report["canonical_sha256"])
    return "\n".join(lines) + "\n"


def render_json(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# argument handling


def build_arg_parser():
    ap = argparse.ArgumentParser(
        prog="gvc",
        description="Verify variational identities of graded field theories.")
    sub = ap.add_subparsers(dest="command", required=True)
    v = sub.add_parser("verify", help="run checks on a theory and report")
    src = v.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", choices=theories.BUILTINS,
                     help="one of the shipped fixtures")
    src.add_argument("--theory", metavar="PATH",
                     help="path to a theory file in the gvc grammar")
    v.add_argument("--check", default=DEFAULT_CHECKS, metavar="CSV",
                   help="comma-separated checks from: %s (default: %s)"
                        % (",".join(CHECK_NAMES), DEFAULT_CHECKS))
    v.add_argument("--jet-order", type=int, default=None,
                   help="override the jet-order cap (else the file's "
                        "statement, the GVC_JET_ORDER env var, or 4)")
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.add_argument("--out", metavar="PATH", default=None,
                   help="write the report to a file instead of stdout")
    v.add_argument("--mutate", choices=("none", "sign"), default="none",
                   help="negative control: flip one sign before checking")
    v.add_argument("--max-residual-terms", type=int, default=8,
                   help="truncate printed residuals to this many terms")
    return ap


def _parse_checks(csv):
    names = [n.strip() for n in csv.split(",") if n.strip()]
    if not names:
        raise GvcError("no checks selected")
    for n in names:
        if n not in CHECK_NAMES:
            raise GvcError("unknown check %r; available: %s"
                           % (n, ",".join(CHECK_NAMES)))
    seen = []
    for n in sorted(names, key=CHECK_NAMES.index):
        if n not in seen:
            seen.append(n)
    return seen


def _checked_cap(cap, source):
    """A jet-order cap from the command line or the environment, validated
    before parsing so that an error names its source, not a file position."""
    if cap is None:
        return None
    try:
        return Registry.checked_jet_order(cap)
    except ValueError as exc:
        raise GvcError("%s: %s" % (source, exc))


def _load_theory(args):
    env = os.environ.get("GVC_JET_ORDER")
    default_jo = None
    if env:
        try:
            default_jo = int(env)
        except ValueError:
            raise GvcError("GVC_JET_ORDER must be an integer, got %r" % env)
    jet_order = _checked_cap(args.jet_order, "--jet-order")
    default_jo = _checked_cap(default_jo, "GVC_JET_ORDER")
    path = theories.builtin_path(args.builtin) if args.builtin else args.theory
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GvcError("cannot read theory file: %s" % exc)
    return parse_theory(text, jet_order=jet_order,
                        default_jet_order=default_jo)


def run(argv):
    """Parse arguments, verify, write the report; returns the exit code."""
    args = build_arg_parser().parse_args(argv)
    try:
        if args.max_residual_terms < 1:
            raise GvcError("--max-residual-terms must be at least 1, got %d"
                           % args.max_residual_terms)
        selected = _parse_checks(args.check)
        theory = _load_theory(args)
        mutation = "none"
        if args.mutate == "sign":
            theory, label = apply_sign_mutation(theory)
            mutation = "sign (%s)" % label
        report = build_report(theory, selected, mutation,
                              args.max_residual_terms)
    except (GvcError, MemoryError) as exc:
        # a MemoryError usually carries no message of its own
        print("error: %s" % (str(exc) or "out of memory"), file=sys.stderr)
        return 2
    text = render_text(report) if args.format == "text" else \
        render_json(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print("error: cannot write report: %s" % exc, file=sys.stderr)
            return 2
        print("wrote %s (overall: %s)" % (args.out, report["overall"]))
    else:
        sys.stdout.write(text)
    return 0 if report["overall"] == "pass" else 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
