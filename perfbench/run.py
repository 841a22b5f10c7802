"""gvc benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py                      # every workload, a table
    python3 perfbench/run.py --workload grav4 --seed 1 --seconds 8 --trace 0

With ``--workload`` the run stays in this process and prints, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  Without it, each workload runs in a fresh child process
and a table follows.  Results, report digests and spans go to
``perfbench/results/``.  See perfbench/README.md.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
from contextlib import nullcontext  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import bench_trace  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOAD_NAMES = tuple(WORKLOADS)
SETUP_REPEATS = 3

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
             "checks_per_s": "1/s", "peak_rss_mb": "MB"}


def import_gvc():
    """Put the checkout's ``src`` first on the path and import gvc from it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gvc", "cli.py")):
        raise SystemExit("error: no gvc sources at %s" % src)
    sys.path.insert(0, src)
    import gvc.cli  # noqa: F401


def pin_to_one_cpu():
    """Keep the workload on one CPU.

    ``cli.run_checks`` hands every check to a pool thread and waits for it.
    Left free, the two threads sit on two CPUs, and each hand-off waits for
    a sleeping CPU to wake; on a shared virtual machine that wait swings
    with other tenants' load and made short checks' wall time unsteady.  The
    loop runs one check at a time, so one CPU is all it can use."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def cpu_seconds():
    """CPU time of this process (all threads) and its waited-for children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ch = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, ch) / 1024.0


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_round(jobs, tracer=None):
    """Run every job once; judging happens afterwards, untimed.

    Returns (walls, cpus, outcomes): each job's wall and CPU seconds, and
    per job (job, report, None) or, when the job raised, (job, None, error)."""
    from gvc.cli import build_report, render_text
    walls, cpus, outcomes = [], [], []
    for job in jobs:
        t0, c0 = time.perf_counter(), cpu_seconds()
        try:
            with tracer.span("bench.check") if tracer else nullcontext():
                report = build_report(job.theory(), [job.check])
                render_text(report)
            outcomes.append((job, report, None))
        except Exception as exc:  # a crash is a failed job, not a dead run
            outcomes.append((job, None, exc))
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - c0)
    return walls, cpus, outcomes


def per_theory(jobs, walls):
    """Seconds spent on each theory: the sum of its checks."""
    out = []
    for job, wall in zip(jobs, walls):
        if job.first_of_theory:
            out.append(0.0)
        out[-1] += wall
    return out


def judge(outcomes):
    """(failed count, digest lines) for one round's outcomes."""
    failed, digests = 0, []
    for job, report, error in outcomes:
        if report is None:
            failed += 1
            digests.append("%s\t%s\terror: %r" % (job.label, job.check, error))
            continue
        try:
            ok = job.expect(report)
        except Exception:
            ok = False
        failed += not ok
        digests.append("%s\t%s\t%s" % (job.label, job.check,
                                       report["canonical_sha256"]))
    return failed, digests


def run_workload(name, seed, seconds, trace, digests_path=None):
    workload = WORKLOADS[name]
    import_s = time.perf_counter() - T_START
    reference = workload.reference()  # the checker's data, not set-up
    if trace:
        return run_traced(workload, seed, reference, digests_path)
    setups, inputs = [], None
    for _ in range(SETUP_REPEATS):
        inputs = None
        t0 = time.perf_counter()
        inputs = workload.build(seed)
        setups.append(time.perf_counter() - t0)
    walls, cpus, attempted, failed, digests = [], [], 0, 0, None
    while True:
        jobs = workload.jobs(inputs, reference)
        wall, cpu, outcomes = run_round(jobs)
        walls.append(wall)
        cpus.append(cpu)
        bad, lines = judge(outcomes)
        attempted += len(jobs)
        failed += bad
        digests = digests or lines
        jobs = outcomes = None
        if len(walls) >= workload.min_rounds and \
                sum(map(sum, walls)) >= seconds:
            break
        inputs = None
        t0 = time.perf_counter()
        inputs = workload.build(seed)
        setups.append(time.perf_counter() - t0)
    # Each check's median over the rounds, summed over a round's checks: a
    # burst of interference slows some checks of one round, not the sum.
    wall_s = sum(statistics.median(col) for col in zip(*walls))
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "wall_s": wall_s,
        "cpu_s": sum(statistics.median(col) for col in zip(*cpus)),
        "checks_per_s": len(walls[0]) / wall_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {"rounds": len(walls), "round_wall_s": list(map(sum, walls)),
             "round_cpu_s": list(map(sum, cpus)), "setup_samples_s": setups,
             "import_s": import_s}
    return finish(name, seed, 0, attempted, failed, metrics, E2E_UNITS,
                  digests, extra, digests_path)


def run_traced(workload, seed, reference, digests_path):
    """One set-up and one round under the tracer: the counts are exact."""
    hot_cost, span_cost = bench_trace.wrapper_cost()
    tracer = bench_trace.Tracer().install()
    try:
        with tracer.span("bench.setup"):
            inputs = workload.build(seed)
        with tracer.span("bench.round"):
            jobs = workload.jobs(inputs, reference)
            walls, cpus, outcomes = run_round(jobs, tracer)
    finally:
        tracer.uninstall()
    failed, digests = judge(outcomes)
    wall, cpu = sum(walls), sum(cpus)
    metrics = layer_metrics(tracer, wall, cpu, per_theory(jobs, walls),
                            hot_cost, span_cost)
    units = {k: unit_of(k) for k in metrics}
    os.makedirs(RESULTS, exist_ok=True)
    tracer.dump(os.path.join(RESULTS, "trace-%s-seed%d.json"
                             % (workload.name, seed)),
                {"workload": workload.name, "seed": seed, "wall_s": wall,
                 "cpu_s": cpu})
    return finish(workload.name, seed, 1, len(jobs), failed, metrics, units,
                  digests, {}, digests_path)


def layer_metrics(tracer, wall, cpu, theory_walls, hot_cost, span_cost):
    tot = tracer.totals()
    counts = tracer.counts
    m = {}

    def calls(name):
        m[name + ".calls"] = tot[name][0]

    def self_s(name):
        m[name + ".self_s"] = tot[name][2]

    for name in ("parser.parse_theory", "algebra.mul", "algebra.add",
                 "algebra.derivative", "algebra.jet_var", "algebra.pretty",
                 "jets.total_derivative", "jets.prolong_apply",
                 "jets.coefficient", "variational.euler_lagrange",
                 "variational.variational_derivative", "variational.eta",
                 "variational.is_total_divergence", "noether.assemble_kt",
                 "brst.gauge_from_ni", "cli.build_report"):
        calls(name)
    for name, *_rest in bench_trace.TARGETS:
        if name != "jets.coefficient":
            self_s(name)
    parse_total = tot["parser.parse_theory"][1]
    m["parser.parse_theory.bytes_per_s"] = \
        counts.get("parser.bytes", 0) / parse_total if parse_total else 0.0
    for key in ("algebra.mul.terms_out", "algebra.add.terms_copied",
                "algebra.derivative.terms_scanned",
                "algebra.derivative.terms_out",
                "jets.total_derivative.terms_out"):
        m[key] = counts.get(key, 0)
    m["algebra.jet_vars_interned"] = tracer.jet_vars_seen()
    coef_calls = tot["jets.coefficient"][0]
    m["jets.coefficient.hit_ratio"] = (
        (coef_calls - tracer.coefficient_distinct_pairs()) / coef_calls
        if coef_calls else 0.0)
    m["cli.theory.p50_s"] = percentile(theory_walls, 0.5)
    m["cli.theory.p90_s"] = percentile(theory_walls, 0.9)
    m["process.wait_s"] = wall - cpu
    hot, spans = tracer.wrapped_calls()
    m["process.trace.overhead_s"] = hot * hot_cost + spans * span_cost
    return m


def unit_of(metric):
    if metric.endswith("bytes_per_s"):
        return "B/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("hit_ratio"):
        return "ratio"
    return "count"


def finish(name, seed, trace, attempted, failed, metrics, units, digests,
           extra, digests_path):
    out = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": v, "unit": units[k]}
                       for k, v in metrics.items()}}
    os.makedirs(RESULTS, exist_ok=True)
    record = dict(out, workload=name, seed=seed, trace=trace,
                  python=sys.version.split()[0], nproc=os.cpu_count(),
                  digests=digests, **extra)
    with open(os.path.join(RESULTS, "%s-seed%d-trace%d.json"
                           % (name, seed, trace)), "w") as fh:
        json.dump(record, fh, indent=1)
    if digests_path:
        with open(digests_path, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in digests))
    return out


def run_all(args):
    """Each workload in its own fresh process, then one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit("error: workload %s exited with %d"
                             % (name, proc.returncode))
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        print("%s: attempted %d, failed %d, correct %s"
              % (name, res["attempted"], res["failed"], res["correct"]))
        for metric, v in res["metrics"].items():
            print("  %-44s %14.6g %s" % (metric, v["value"], v["unit"]))
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--digests", metavar="PATH",
                    help="also write one round's report digests to PATH")
    args = ap.parse_args(argv)
    import_gvc()
    if args.workload is None:
        return run_all(args)
    pin_to_one_cpu()
    out = run_workload(args.workload, args.seed, args.seconds, args.trace,
                       args.digests)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
