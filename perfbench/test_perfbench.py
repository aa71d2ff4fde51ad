"""Tests of the benchmark itself: job lists, oracles, failure counting, spans."""

import json
import math
import os
import sys

import pytest

import harness
import oracles
import tracer
import workloads
from torusdimer import cli, fsc, kasteleyn, lattice, specialfn

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_job_list(workload):
    first = [(j.key, j.oracle) for j in workloads.job_list(workload, 7)]
    again = [(j.key, j.oracle) for j in workloads.job_list(workload, 7)]
    other = [(j.key, j.oracle) for j in workloads.job_list(workload, 8)]
    assert first == again
    assert first != other
    assert len(first) == len(other)


def test_every_stored_job_has_a_reference():
    refs = oracles.load_stored()
    for workload in workloads.WORKLOADS:
        for seed in range(5):
            for job in workloads.job_list(workload, seed):
                if job.oracle == "stored":
                    assert job.key in refs


@pytest.mark.parametrize("name", lattice.BUILTIN_NAMES)
def test_fiber_oracle_matches_enumeration(name):
    dom = lattice.builtin(name, a=0.7, b=1.3)
    for E in ([[2, 0], [0, 2]], [[2, 1], [0, 2]], [[1, 0], [2, 3]]):
        L, pf, sectors = oracles._sectors_from_pfaffians(oracles.fiber_pfaffians(dom, E))
        L2, pf2, sectors2 = oracles._sectors_from_masses(
            kasteleyn.enumerate_matchings(dom, E).sectors)
        ratio = math.exp(L - L2)
        assert list(sectors * ratio) == pytest.approx(list(sectors2), abs=1e-9)
        assert list(pf * ratio) == pytest.approx(list(pf2), abs=1e-9)


class _CorruptingCli:
    """Runs the real CLI, then changes one digit of what it printed."""

    @staticmethod
    def run(argv):
        code, text = harness.run_job(cli, argv)
        i = next(i for i, ch in enumerate(text) if ch in "123456789")
        sys.stdout.write(text[:i] + str(int(text[i]) % 9 + 1) + text[i + 1:])
        return code


def _small_jobs():
    jobs = [j for j in workloads.job_list("dense-sectors", 3)
            if j.oracle in ("enumerate", "fisher-unit")]
    return jobs, {j.key: oracles.reference(j) for j in jobs}


def test_correct_outputs_pass():
    jobs, refs = _small_jobs()
    loop = harness.Loop(cli, jobs, refs, oracles.check)
    loop.one_pass()
    assert loop.attempted == len(jobs) and loop.failures == []


def test_corrupted_output_counts_as_failure():
    jobs, refs = _small_jobs()
    loop = harness.Loop(_CorruptingCli, jobs, refs, oracles.check)
    loop.one_pass()
    assert loop.attempted == len(jobs)
    assert len(loop.failures) == len(jobs)


def test_bad_exit_counts_as_failure():
    jobs, refs = _small_jobs()
    job = workloads.Job(jobs[0].argv + ["--no-such-flag"], jobs[0].oracle)
    loop = harness.Loop(cli, [job], {job.key: refs[jobs[0].key]}, oracles.check)
    loop.one_pass()
    assert len(loop.failures) == 1


def test_wrapper_patches_every_binding_and_restores():
    original = specialfn.log_xi
    with tracer.Tracer() as tr:
        assert tr.unwrapped_bindings() == []
        assert fsc.log_xi is specialfn.log_xi is not original
        assert kasteleyn.hnf_residues is lattice.hnf_residues
        import torusdimer
        assert torusdimer.log_xi is specialfn.log_xi
    assert fsc.log_xi is original and specialfn.log_xi is original
    assert kasteleyn.hnf_residues.__name__ == "hnf_residues"
    assert not hasattr(kasteleyn.hnf_residues, "__wrapped__")


def test_self_check_reports_an_unwrapped_alias():
    with tracer.Tracer() as tr:
        fsc._stray_alias = tr.originals["specialfn.log_xi"]
        try:
            leaks = tr.unwrapped_bindings()
        finally:
            del fsc._stray_alias
    assert any("_stray_alias" in leak for leak in leaks)


def test_spans_account_for_the_job():
    jobs, refs = _small_jobs()
    loop = harness.Loop(cli, jobs, refs, oracles.check)
    with tracer.Tracer() as tr:
        loop.one_pass(tracer=tr)
    metrics = tr.layer_metrics(1)
    assert metrics["cli.run.calls"] == len(jobs)
    assert metrics["kasteleyn.sector_table.calls"] >= len(jobs)
    assert metrics["charpoly.find_nodes.calls"] == 0
    covered = sum(tr.self_time.values())
    assert covered == pytest.approx(metrics["cli.run.total_s"], rel=1e-6)
    assert loop.failures == []


def test_benchmark_json_lists_what_the_harness_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.per_layer_names()
