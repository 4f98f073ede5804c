"""Benchmark of the wsemigroups CLI verbs, run in-process.

    python3 bench/run.py --workload onepoint-series --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from ./src.
Set-up writes the workload's seeded inputs as JSON files under
.bench_run/, imports the package and runs one warm-up pass; it is done
three times and its median reported.  Then the workload's job list runs
in passes, each job a call of `wsemigroups.cli.main(argv)`, until
--seconds have passed.  Every job's exit code and output is checked
against reference answers computed without the package (reference.py).

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1, traced and untraced passes
alternate and it holds the per-layer metrics (tracing.py) together
with the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_ROUNDS = 3
MIN_PASSES = 3
VERB_METRICS = {"analyze": "analyze_s", "expand": "expand_s",
                "verify": "verify_s"}
MODULES = ("cli", "onepoint", "series", "twopoint", "oracle")


def import_package():
    """Import wsemigroups afresh from ./src; return (a namespace of its
    modules, seconds taken)."""
    for name in [n for n in sys.modules
                 if n == "wsemigroups" or n.startswith("wsemigroups.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    start = time.perf_counter()
    mods = {name: importlib.import_module(f"wsemigroups.{name}")
            for name in MODULES}
    elapsed = time.perf_counter() - start
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"wsemigroups imported from {origin}, not {SRC}")
    return types.SimpleNamespace(**mods), elapsed


class Runner:
    """Runs and judges the jobs of one workload."""

    def __init__(self, workload, rundir):
        self.workload = workload
        self.rundir = rundir
        self.refs = {name: reference.reference_for(inp)
                     for name, inp in workload.inputs.items()}
        self.judged = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures = []
        self.pkg = None

    def write_inputs(self):
        self.rundir.mkdir(parents=True, exist_ok=True)
        for name, inp in self.workload.inputs.items():
            (self.rundir / f"{name}.json").write_text(json.dumps(inp))

    def call(self, job):
        """One CLI call: (exit code or exception, stdout, seconds)."""
        argv = job.argv(str(self.rundir / f"{job.input}.json"))
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = self.pkg.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crashing job is a failed job
            code = exc
        return code, out.getvalue(), time.perf_counter() - start

    def check(self, job, code, text):
        """Count the job; a raise, an exit 2 or a wrong answer fails it."""
        self.attempted += 1
        if not isinstance(code, int) or isinstance(code, bool) or code == 2:
            self.fail(job, f"exit {code!r}")
            return
        key = (job, code, hashlib.sha256(text.encode()).digest())
        if key not in self.judged:
            # an output byte-identical to one judged before gets its verdict
            try:
                reference.judge(self.workload.inputs[job.input],
                                self.refs[job.input], job.verb, job.args,
                                code, text)
                self.judged[key] = None
            except reference.Mismatch as exc:
                self.judged[key] = str(exc)
        if self.judged[key] is not None:
            self.wrong += 1
            self.fail(job, self.judged[key])

    def fail(self, job, why):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append((job, why))

    def run_pass(self, tracer=None):
        """One pass over the job list: seconds per job."""
        gc.collect()
        times = []
        for job in self.workload.jobs:
            code, text, elapsed = self.call(job)
            times.append(elapsed)
            if tracer is not None and job.verb == "expand" and \
                    isinstance(self.refs[job.input], reference.TwoPointRef):
                tracer.count["twopoint.expand.cells"] += \
                    tracing.points_in(self.refs[job.input].window)
            self.check(job, code, text)
        return times

    def pass_metrics(self, times):
        out = {"pass_s": sum(times)}
        for verb, metric in VERB_METRICS.items():
            out[metric] = sum(t for job, t in zip(self.workload.jobs, times)
                              if job.verb == verb)
        return out


def mean_of(rows, key):
    return statistics.fmean(row[key] for row in rows)


def measure(runner, seconds, trace):
    setups = []
    for _ in range(SETUP_ROUNDS):
        runner.pkg, import_s = import_package()
        start = time.perf_counter()
        runner.write_inputs()
        write_s = time.perf_counter() - start
        setups.append(import_s + write_s + sum(runner.run_pass()))

    plain, traced, layers = [], [], []
    tracer = tracing.Tracer() if trace else None
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or
           min(len(plain), len(traced) if trace else MIN_PASSES) < MIN_PASSES):
        plain.append(runner.pass_metrics(runner.run_pass()))
        if trace:
            tracer.reset()
            restore = tracing.install(tracer, runner.pkg)
            try:
                traced.append(runner.pass_metrics(runner.run_pass(tracer)))
            finally:
                restore()
            layers.append(tracing.layer_values(tracer))

    if not trace:
        metrics = {name: (mean_of(plain, name), "s")
                   for name in ("pass_s", *VERB_METRICS.values())}
        metrics["setup_s"] = (statistics.median(setups), "s")
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak / 1024, "MB")
        return metrics
    metrics = {}
    for name in tracing.LAYER_METRICS:
        metrics[name] = (mean_of(layers, name),
                         "count" if tracing.is_count(name) else "s")
    untraced, with_trace = mean_of(plain, "pass_s"), mean_of(traced, "pass_s")
    metrics["trace.pass_s"] = (with_trace, "s")
    metrics["trace.untraced_pass_s"] = (untraced, "s")
    metrics["trace.overhead_pct"] = (100 * (with_trace / untraced - 1), "%")
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "wsemigroups" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'wsemigroups'}; run "
              f"from the root of a wsemigroups checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.build(args.workload, args.seed)
    rundir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(workload, rundir)
    try:
        metrics = measure(runner, args.seconds, args.trace)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        with contextlib.suppress(OSError):
            rundir.parent.rmdir()

    for job, why in runner.failures:
        print(f"failed: {job.verb} {' '.join(job.args)} on {job.input}: "
              f"{why}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name:44s} {value:14.6f} {unit}")
    print(f"{args.workload}  jobs attempted {runner.attempted}, "
          f"failed {runner.failed}")
    print(json.dumps({
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
