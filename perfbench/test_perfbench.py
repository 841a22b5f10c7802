"""The benchmark counts a wrong verdict as a failed check and runs on."""
import importlib.util
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gvc.cli  # noqa: E402
import bench_workloads as bw  # noqa: E402

_spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(HERE, "run.py"))
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


@pytest.fixture
def bf_jobs():
    theory = bw._parse(bw._theory_text("bf"))
    sites = dict(gvc.cli.mutation_sites(theory))
    inputs = [("bf", theory, [("lagrangian", sites["lagrangian"])])]
    return bw.Mutants().jobs(inputs)


def test_honest_round_has_no_failures(bf_jobs):
    walls, _cpus, outcomes = bench.run_round(bf_jobs)
    failed, digests = bench.judge(outcomes)
    assert (failed, len(outcomes)) == (0, 8)
    assert len(bench.per_theory(bf_jobs, walls)) == 2
    assert all(len(line.split("\t")[-1]) == 64 for line in digests)


def test_planted_wrong_verdict_is_counted(bf_jobs, monkeypatch):
    real = gvc.cli.build_report

    def lying(theory, selected, *args, **kwargs):
        report = real(theory, selected, *args, **kwargs)
        if selected == ["kt"]:  # a healthy kt reported red, a broken one green
            for e in report["entries"]:
                e["status"] = "pass" if e["status"] == "fail" else "fail"
        return report

    monkeypatch.setattr(gvc.cli, "build_report", lying)
    _walls, _cpus, outcomes = bench.run_round(bf_jobs)
    failed, _digests = bench.judge(outcomes)
    # the healthy kt now fails; the mutant's kt has no required verdict
    assert (failed, len(outcomes)) == (1, 8)


def test_planted_missing_failure_and_crash_are_counted(bf_jobs, monkeypatch):
    real = gvc.cli.build_report

    def lying(theory, selected, *args, **kwargs):
        if theory is not bf_jobs[0].theory() and selected == ["brst"]:
            raise RuntimeError("planted crash")
        report = real(theory, selected, *args, **kwargs)
        for e in report["entries"]:
            e["status"] = "pass"  # hides the mutant's broken identities
        return report

    monkeypatch.setattr(gvc.cli, "build_report", lying)
    _walls, _cpus, outcomes = bench.run_round(bf_jobs)
    failed, digests = bench.judge(outcomes)
    # the mutant's ni passing is wrong, and its brst crashed
    assert (failed, len(outcomes)) == (2, 8)
    assert sum("planted crash" in line for line in digests) == 1


def test_variants_are_seeded_and_alike():
    assert bw.variant_backgrounds(3) == bw.variant_backgrounds(3)
    assert bw.variant_backgrounds(3) != bw.variant_backgrounds(4)
    assert {len(bg) for bg in bw.variant_backgrounds(3)} == {4}
