"""The benchmark's seed-0 report digests against the ones it keeps.

``perfbench/run.py --workload W --seed 0 --digests F`` writes one ``label,
check, canonical_sha256`` line per job of a round, and
``perfbench/reference/W-seed0.txt`` keeps those lines for each workload.
A change that keeps every report byte-identical keeps them.  They are
computed here in process, by the benchmark's own ``run_round`` and
``judge``, and no file is written.
"""
import importlib.util
import os
import sys

import pytest

_BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def bench():
    # run.py imports bench_trace and bench_workloads by name
    if _BENCH not in sys.path:
        sys.path.insert(0, _BENCH)
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(_BENCH, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["grav4", "mutants", "variants"])
def test_seed0_digests_equal_the_reference(bench, name):
    workload = bench.WORKLOADS[name]
    jobs = workload.jobs(workload.build(0), workload.reference())
    _walls, _cpus, outcomes = bench.run_round(jobs)
    failed, digests = bench.judge(outcomes)
    path = os.path.join(_BENCH, "reference", "%s-seed0.txt" % name)
    with open(path, encoding="utf-8") as fh:
        assert "".join(line + "\n" for line in digests) == fh.read()
    assert failed == 0
