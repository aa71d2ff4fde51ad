"""Closed-loop benchmark of the torusdimer command line.

One client runs the workload's job list in passes; each job is an
in-process `torusdimer.cli.run(argv)` call with stdout captured, started
only after the previous one returned.  Passes repeat until the run's
time budget is spent.  After each pass every output is checked against
its oracle (oracles.py); a non-zero exit, an exception or a mismatch
counts as a failed job.

A shared host can change speed by tens of percent over seconds to
minutes.  So a fixed calibration kernel -- interpreter and LAPACK work that
calls no torusdimer code -- runs between jobs, and the end-to-end times are
reported at reference speed: each job's seconds times CAL_REF_S over the
mean of the calibrations just before and after it.  Raw seconds are kept
in the detail line.

--trace 0 reports the end-to-end metrics; --trace 1 spends half the
budget untraced and half with the layer spans of tracer.py, then times
the ROADMAP baseline rows that belong to the workload, and reports the
per-layer metrics in raw seconds.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time

import numpy

import oracles
import tracer
import workloads
from run import THREAD_VARS
from torusdimer import charpoly, cli, fsc, kasteleyn, lattice

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 7
CAL_REF_S = 0.0025  # calibration time on an unloaded 2 GHz x86-64 core
_CAL_MATRIX = numpy.random.default_rng(0).random((64, 64)) + 0j

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_p90_s": "s",
    "success_rate": "ratio", "peak_rss_mb": "MB",
}
TRACE_SUMMARY = {
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.self_sum_s": "s",
    "tracing_overhead_s": "s",
}


# ROADMAP baseline rows at fixed sizes: (workload, metric name, call); each row
# is timed, untraced, in the traced run of the workload whose layers it uses
BASELINE_ROWS = (
    ("dense-sectors", "baseline.sector_table.hexagonal_32x32_s",
     lambda: kasteleyn.sector_table(lattice.builtin("hexagonal"), [[32, 0], [0, 32]])),
    ("dense-sectors", "baseline.sector_table.fisher_12x12_s",
     lambda: kasteleyn.sector_table(lattice.builtin("fisher"), [[12, 0], [0, 12]])),
    ("dense-sectors", "baseline.sector_table.square-2x1_16x16_s",
     lambda: kasteleyn.sector_table(lattice.builtin("square-2x1"), [[16, 0], [0, 16]])),
    ("large-torus", "baseline.sector_table_auto.hexagonal_1000x1000_s",
     lambda: fsc.sector_table_auto(lattice.builtin("hexagonal"), [[1000, 0], [0, 1000]])),
    ("large-torus", "baseline.find_nodes.fisher_unit_s",
     lambda: charpoly.find_nodes(charpoly.build_charpoly(lattice.builtin("fisher")))),
    ("large-torus", "baseline.cli.criticality_fisher_s",
     lambda: run_job(cli, ["criticality", "--lattice", "fisher"])),
    ("winding", "baseline.winding_distribution_exact.hexagonal_6x6_M16_s",
     lambda: kasteleyn.winding_distribution_exact(
         lattice.builtin("hexagonal"), [[6, 0], [0, 6]], M=16)),
    ("winding", "baseline.cli.winding_hexagonal_6x6_s",
     lambda: run_job(cli, ["winding", "--lattice", "hexagonal", "--E", "6,0,0,6"])),
)


def per_layer_names():
    """{metric: unit} reported with --trace 1, in BENCHMARK.json order."""
    out = tracer.layer_metric_names()
    out.update(TRACE_SUMMARY)
    out.update({name: "s" for _workload, name, _call in BASELINE_ROWS})
    return out


# -- running jobs -----------------------------------------------------------------


def run_job(cli, argv):
    """(exit code, stdout) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a crashing job is a failed job
            code = "exception: %r" % (exc,)
    return code, out.getvalue()


def calibrate():
    """Seconds taken by a fixed mix of interpreter and LAPACK work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(30000):
        acc += i * i
    for _ in range(10):
        numpy.linalg.slogdet(_CAL_MATRIX)
    return time.perf_counter() - t0


class Loop:
    """Runs passes over a job list and keeps latencies and failures.

    `latencies`/`pass_walls` are raw seconds; the `_ref` lists hold the same
    at reference speed (see the module docstring).
    """

    def __init__(self, cli, jobs, refs, check):
        self.cli, self.jobs, self.refs, self.check = cli, jobs, refs, check
        self.latencies, self.latencies_ref = [], []
        self.pass_walls, self.pass_walls_ref = [], []
        self.attempted = 0
        self.failures = []

    def one_pass(self, tracer=None):
        outputs, raw, cals = [], [], [calibrate()]
        clock = time.perf_counter
        for job in self.jobs:
            if tracer is not None:
                tracer.label = job.label
            t0 = clock()
            code, text = run_job(self.cli, job.argv)
            raw.append(clock() - t0)
            cals.append(calibrate())
            outputs.append((code, text))
        ref = [t * 2.0 * CAL_REF_S / (c0 + c1) for t, c0, c1 in zip(raw, cals, cals[1:])]
        self.latencies += raw
        self.latencies_ref += ref
        self.pass_walls.append(sum(raw))
        self.pass_walls_ref.append(sum(ref))
        for job, (code, text) in zip(self.jobs, outputs):
            self.attempted += 1
            reason = self.check(job, self.refs[job.key], code, text)
            if reason is not None:
                self.failures.append("%s: %s" % (job.key, reason))
        return sum(raw)

    def run_for(self, seconds, tracer=None):
        """Whole passes until the budget is spent; returns the raw pass walls."""
        walls = []
        start = time.perf_counter()
        while True:
            walls.append(self.one_pass(tracer))
            elapsed = time.perf_counter() - start
            # start another pass only if it should end near the budget
            if elapsed + 0.5 * statistics.median(walls) > seconds:
                return walls


def prepare(workload, seed):
    """(jobs, refs): the job list and each job's reference."""
    jobs = workloads.job_list(workload, seed)
    stored = oracles.load_stored() if any(j.oracle == "stored" for j in jobs) else None
    refs = {}
    for job in jobs:
        if job.key not in refs:
            refs[job.key] = oracles.reference(job, stored)
    return jobs, refs


# -- environment ------------------------------------------------------------------


def git_revision(root=ROOT):
    """HEAD commit read from .git without running git; None outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def environment(workload, seed):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = None
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "numpy": numpy.__version__, "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": nproc, "python": platform.python_version(),
        "git_revision": git_revision(), "workload": workload, "seed": seed,
        "why": workloads.WHY[workload],
    }


# -- metrics -------------------------------------------------------------------------


def measure_setup(workload, seed):
    """Median time, at reference speed, of fresh processes that import and
    build the job list."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    times = []
    before = calibrate()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
        # a blocking wait, unlike a polling wait with a timeout, returns the
        # moment the probe exits; the timer only guards against a hang
        guard = threading.Timer(120.0, proc.kill)
        guard.start()
        try:
            code = proc.wait()
        finally:
            guard.cancel()
        elapsed = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError("set-up probe exited with %r" % code)
        after = calibrate()
        times.append(elapsed * 2.0 * CAL_REF_S / (before + after))
        before = after
    return statistics.median(times)


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _quantiles(latencies):
    cuts = statistics.quantiles(latencies, n=10, method="inclusive")
    return statistics.median(latencies), cuts[8]


def end_to_end(loop, setup_s):
    p50, p90 = _quantiles(loop.latencies_ref)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(loop.pass_walls_ref),
        "job_p50_s": p50, "job_p90_s": p90,
        "success_rate": (loop.attempted - len(loop.failures)) / loop.attempted,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}


def traced_run(loop, workload, seconds):
    untraced = loop.run_for(seconds / 2.0)
    with tracer.Tracer() as tr:
        leaks = tr.unwrapped_bindings()
        if leaks:
            raise RuntimeError("layer functions still reachable unwrapped: %s"
                               % "; ".join(leaks))
        traced = loop.run_for(seconds / 2.0, tracer=tr)
    passes = len(traced)
    values = tr.layer_metrics(passes)
    wall_traced = statistics.median(traced)
    wall_untraced = statistics.median(untraced)
    values.update({
        "trace.wall_s": wall_traced,
        "trace.untraced_wall_s": wall_untraced,
        "trace.self_sum_s": sum(tr.self_time.values()) / passes,
        "tracing_overhead_s": wall_traced - wall_untraced,
    })
    for row_workload, name, call in BASELINE_ROWS:
        if row_workload != workload:
            values[name] = 0.0  # this row is timed on its own workload
            continue
        t0 = time.perf_counter()
        call()
        values[name] = time.perf_counter() - t0
    metrics = {name: _metric(values[name], unit) for name, unit in per_layer_names().items()}
    detail = {"traced_passes": passes, "untraced_passes": len(untraced),
              "span_tree": tr.span_tree(passes),
              "self_s_by_job": tr.self_by_label(passes)}
    return metrics, detail


# -- entry point --------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import and build the job list (times set-up)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:  # importing this module did the rest of the set-up
        workloads.job_list(args.workload, args.seed)
        return 0
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    jobs, refs = prepare(args.workload, args.seed)
    loop = Loop(cli, jobs, refs, oracles.check)
    detail = {"environment": environment(args.workload, args.seed), "jobs": len(jobs)}
    if args.trace:
        metrics, extra = traced_run(loop, args.workload, args.seconds)
        detail.update(extra)
    else:
        loop.run_for(args.seconds)
        metrics = end_to_end(loop, setup_s)
    detail.update({"passes": len(loop.pass_walls), "pass_walls_s": loop.pass_walls,
                   "pass_walls_ref_s": loop.pass_walls_ref,
                   "samples": len(loop.latencies),
                   "failures": loop.failures[:10]})
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": not loop.failures, "attempted": loop.attempted,
                      "failed": len(loop.failures), "metrics": metrics}))
    return 0

