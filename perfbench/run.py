"""Benchmark for the ffstats command line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload prime-dist --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

A workload is a fixed list of ``ffstats`` jobs (see :mod:`workloads`).  One
process runs it as a closed loop with a single client: it calls
``ffstats.cli.main(argv)`` in-process, job after job, and starts the list
again until ``--seconds`` have passed.  Every report's ``result`` is checked
against an oracle; a job fails if it exits non-zero, fails its check, or,
for a ``--threads 2`` twin, gives a result that is not byte-identical to the
1-thread job's.

Before each job the program's memo caches are emptied, so that every pass
does the work a fresh ``ffstats`` process would do.

``--trace 0`` reports the end-to-end metrics, medians over the passes over
the list, with times scaled to the reference speed of :mod:`yardstick`;
``--trace 1`` reports the per-layer metrics of :mod:`layers` and
writes the recorded spans to ``.perfbench-out/<workload>-seed<seed>/``.
The metric names and units are those listed in ``BENCHMARK.json``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1 if any
job failed.  ``--workload all`` runs each workload in its own process and
prints one row per workload.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import layers
import workloads
import yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
BENCHMARK = ROOT / "BENCHMARK.json"
PACKAGE = "ffstats"
SETUP_REPEATS = 9


def declared(section):
    """{name: unit} of the metrics BENCHMARK.json lists under section."""
    doc = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[section]}


@dataclass
class Tally:
    """Jobs attempted and failed, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{label}: {'; '.join(problems)}")


def _result_of(code, text):
    if code is None:
        return None, [f"raised {text.strip().splitlines()[-1]}"]
    if code != 0:
        return None, [f"exit code {code}"]
    try:
        return json.loads(text)["result"], []
    except (ValueError, KeyError, TypeError) as exc:
        return None, [f"unreadable report: {exc!r}"]


def judge(jobs, outputs, tally):
    """Check each job's report and count it in the tally."""
    results = {}
    for job in jobs:
        result, problems = _result_of(*outputs[job.label])
        results[job.label] = result
        if result is not None:
            try:
                problems = job.check(result)
            except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
                problems = [f"check could not read the result: {exc!r}"]
            if job.twin_of:
                base = results.get(job.twin_of)
                if json.dumps(result) != json.dumps(base):
                    problems = problems + [f"result differs from {job.twin_of}"]
        tally.record(job.label, problems)


def fresh_state():
    """Empty every memo cache (``functools.lru_cache`` and the like) held at
    module level in the program, as a new process would start without them."""
    for name, mod in list(sys.modules.items()):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            for value in list(vars(mod).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def run_jobs(jobs, tally, yard=None, clock=time.perf_counter):
    """Run the job list once, check every report, return seconds per job
    as clock counts them.

    When yard is a list, a yardstick reading taken just before each job is
    appended to it."""
    from ffstats import cli

    seconds = {}
    outputs = {}
    for job in jobs:
        fresh_state()
        if yard is not None:
            yard.append(yardstick.measure())
        buf = io.StringIO()
        start = clock()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(job.argv))
        except Exception:  # a crash fails the job, not the benchmark
            code = None
            buf = io.StringIO(traceback.format_exc())
            print(buf.getvalue(), file=sys.stderr)
        seconds[job.label] = clock() - start
        outputs[job.label] = (code, buf.getvalue())
    judge(jobs, outputs, tally)
    return seconds


def scaled_pass(jobs, tally):
    """Run the job list once; seconds per job at the yardstick's reference
    speed, and the yardstick reading of the pass."""
    yard = []
    seconds = run_jobs(jobs, tally, yard)
    reading = statistics.median(yard)
    scale = yardstick.REFERENCE_S / reading
    return {label: s * scale for label, s in seconds.items()}, reading


def list_metrics(jobs, seconds):
    """End-to-end figures of one pass over the job list."""

    def rate(count):
        chosen = [j for j in jobs if count(j)]
        busy = sum(seconds[j.label] for j in chosen)
        return sum(count(j) for j in chosen) / busy if busy else 0.0

    twins = [j for j in jobs if j.twin_of]
    twin_s = sum(seconds[j.label] for j in twins)
    return {
        "wall_s": sum(seconds[j.label] for j in jobs),
        "points_per_s": rate(lambda j: j.points),
        "freqs_per_s": rate(lambda j: j.freqs),
        "speedup_2t": sum(seconds[j.twin_of] for j in twins) / twin_s if twin_s else 0.0,
    }


def child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def measure_setup(repeats=SETUP_REPEATS):
    """Median time for a fresh interpreter to import ffstats.cli, numpy and
    everything else it loads included, at the yardstick's reference speed.

    Each interpreter reads the yardstick (which imports only ``time``) and
    then times its own import of the program, so that how soon this process
    wakes after the child exits adds no noise.  numpy's BLAS gets one thread:
    starting its thread pool made the import time swing by a third with the
    load on the other CPU.  One untimed import first, so that every timed
    one finds the bytecode cache written."""
    code = (
        "import time, yardstick; c = yardstick.measure(); t = time.perf_counter(); "
        "import ffstats.cli; print(time.perf_counter() - t, c)"
    )
    cmd = [sys.executable, "-c", code]
    env = child_env()
    env["PYTHONPATH"] += os.pathsep + str(HERE)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def once():
        out = subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120, capture_output=True, text=True)
        seconds, reading = (float(x) for x in out.stdout.split()[-2:])
        return seconds * yardstick.REFERENCE_S / reading

    once()
    return statistics.median(once() for _ in range(repeats))


def measure(jobs, seconds, tally):
    """Closed loop over the job list for the given time; medians per metric."""
    passes = []
    readings = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        scaled, reading = scaled_pass(jobs, tally)
        passes.append(list_metrics(jobs, scaled))
        readings.append(reading)
    medians = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    return medians, len(passes), statistics.median(readings)


def measure_layers(jobs, seconds, tally, seed, trace_path):
    """Counting pass, then passes in which each job runs untraced and traced
    back to back, then probes."""
    tracer = layers.Tracer()
    start = time.perf_counter()
    with tracer.counting():
        run_jobs(jobs, tally)
    # Twins run their work in worker threads, which the recorder skips.
    single = [j for j in jobs if not j.twin_of]
    # Traced over untraced CPU time of a pass: tracing costs CPU time, and
    # CPU time does not count the time the process waits for a CPU, which
    # on a shared machine swamps an overhead of a few percent.
    ratios = []
    while not ratios or time.perf_counter() - start < seconds:
        plain = traced = 0.0
        for job in single:
            # Alternate which of the two runs goes first, so that whatever
            # the first leaves warm for the second favours neither.
            for traced_run in (False, True) if len(ratios) % 2 == 0 else (True, False):
                with tracer.tracing() if traced_run else contextlib.nullcontext():
                    s = run_jobs([job], tally, clock=time.process_time)[job.label]
                if traced_run:
                    traced += s
                else:
                    plain += s
        tracer.recorder.end_iteration()
        ratios.append(traced / plain)
    metrics = tracer.metrics(seed, declared("per_layer"))
    metrics["trace.overhead_pct"] = (statistics.median(ratios) - 1) * 100
    trace_path.write_text(json.dumps(tracer.recorder.to_json()), encoding="utf-8")
    return metrics, tracer.missing, len(ratios)


def run_workload(workload, seed, seconds, trace, size="full"):
    """Everything one invocation reports: (metrics with units, tally, notes)."""
    workdir = OUT / f"{workload}-seed{seed}"
    tally = Tally()
    notes = []
    if trace:
        jobs = workloads.build(workload, seed, workdir, size)
        values, missing, passes = measure_layers(jobs, seconds, tally, seed, workdir / "trace.json")
        units = declared("per_layer")
        notes.append(f"traced passes: {passes}; spans written to {workdir / 'trace.json'}")
        for target, reason in missing.items():
            notes.append(f"missing: {target} ({reason})")
    else:
        setup = measure_setup()
        jobs = workloads.build(workload, seed, workdir, size)
        values, passes, reading = measure(jobs, seconds, tally)
        values["setup_s"] = setup
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = declared("end_to_end")
        notes.append(f"passes over the job list: {passes} ({len(jobs)} jobs each)")
        notes.append(
            f"times are at reference speed: median yardstick {reading * 1e3:.3f} ms "
            f"against {yardstick.REFERENCE_S * 1e3:g} ms"
        )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return metrics, tally, notes


def summary(metrics, tally):
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def print_table(workload, metrics, tally, notes):
    print(f"workload {workload}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'error_rate':36s} {tally.failed / max(tally.attempted, 1):>16.6g} ratio")
    for note in notes:
        print(f"  {note}")
    for msg in tally.messages:
        print(f"  FAILED {msg}", file=sys.stderr)


def run_all(args):
    """Each workload in its own process; one row per workload."""
    rows = {}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False, timeout=900)
        lines = proc.stdout.strip().splitlines()
        try:
            rows[workload] = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{workload}: exit code {proc.returncode} without a result", file=sys.stderr)
            return 1
    first = next(iter(rows.values()))["metrics"]
    names = list(first)
    headers = [f"{n} [{first[n]['unit']}]" for n in names] + ["error_rate [ratio]"]
    width = max(len(h) for h in headers) + 2
    print("workload".ljust(16) + "".join(h.rjust(width) for h in headers))
    for workload, row in rows.items():
        cells = [f"{row['metrics'][n]['value']:.6g}" for n in names]
        cells.append(f"{row['failed'] / row['attempted']:.6g}")
        print(workload.ljust(16) + "".join(c.rjust(width) for c in cells))
    print(json.dumps(rows))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ffstats" / "cli.py").is_file():
        print(f"perfbench: no ffstats sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    metrics, tally, notes = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_table(args.workload, metrics, tally, notes)
    print(json.dumps(summary(metrics, tally)))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
