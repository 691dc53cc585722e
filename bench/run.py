"""curvlab benchmark: one workload per run, a closed loop of calls into curvlab's entry points.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; curvlab is imported from its ``src``.

``--trace 0`` times calls for S seconds (always at least one call) and
prints the end-to-end metrics; call costs are given in reference ticks, the
time of a fixed computation timed next to every call (see reference_tick),
and also in seconds on the human-readable lines.  ``--trace 1`` runs a fixed number of calls
twice, untraced then traced, and prints the per-layer metrics from the
traced pass; the call counts then depend on the seed alone.  Both check
every output for exactness and print, as the last line of standard output,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A fuller record, with the environment and, when traced, the spans, is
written under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracing import TRACED, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench" / "results"

# Set-up is timed in this many fresh interpreters, spread evenly over the
# timed loop so that one slow spell on the host cannot hold them all; the
# fastest is reported, because interference from other work only adds time.
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
# Determinism re-runs after a timed loop are capped at this many inputs.
MAX_REPEATS = 4
# Terms of the reference computation timed around every call (3-5 ms), and
# the interval at which it is also timed inside a call.
REF_TERMS = 400
REF_INTERVAL_S = 0.25

# Per-layer call counts divided by configurations or by points.
PER_CONFIG = ("connection.christoffel", "connection.curvature")
PER_POINT = ("metric.torsion_forms", "algebra.exterior_d")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("scoreboard", "structural", "golden-queries", "defect-queries",
                            "flow"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def import_workloads():
    """Import the workloads module, which imports curvlab from this checkout's src."""
    sys.path.insert(0, str(SRC))
    import workloads

    import curvlab

    if Path(curvlab.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"curvlab was imported from {curvlab.__file__}, not from {SRC}")
    return workloads


def setup_probe(args):
    """Child side of the set-up measurement: import curvlab and draw the first input.

    That is the work a run does before its first timed call; later inputs are
    drawn between calls, outside the timing.
    """
    t0 = time.perf_counter()
    workloads = import_workloads()
    wl = workloads.WORKLOADS[args.workload]()
    next(wl.inputs(args.seed))
    print(repr(time.perf_counter() - t0))


def reference_tick():
    """Time a fixed piece of exact rational arithmetic on the standard library's Fraction.

    It shares no code with curvlab, so its time follows only the speed the
    host gives this process, which on a shared machine can swing by 1.4x or
    more, for a fraction of a second or for minutes.  Call times divided by
    it are steady across such swings.
    """
    t0 = time.perf_counter()
    x, acc = Fraction(1, 3), Fraction(0)
    for i in range(1, REF_TERMS):
        acc += x * Fraction(i, i + 7) - Fraction(i * i, 3 * i + 1)
        if i % 20 == 0:
            acc = Fraction(acc.numerator % 10**30, acc.denominator % 10**20 + 1)
    return time.perf_counter() - t0


@contextlib.contextmanager
def ticking(ticks):
    """Append a reference tick to ``ticks`` every REF_INTERVAL_S inside the block.

    A call of several seconds sees the host change speed many times, so the
    ticks just before and after it do not show the speed it ran at.  The
    ticks run from a SIGALRM handler, between the call's bytecodes.
    """
    def on_alarm(signum, frame):
        ticks.append(reference_tick())

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def setup_sample(args):
    """Set-up time of one fresh interpreter running setup_probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=SETUP_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment():
    from curvlab.scalars import Rat

    return {
        "backend": "gmpy2" if Rat.__module__.startswith("gmpy2") else "fractions",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


class Run:
    """Outcome of a sequence of calls: per-call wall and CPU times, sizes and check results."""

    def __init__(self, ticked=False):
        self.ticked = ticked
        self.times = []
        self.cpu_times = []
        self.ref_ticks = []
        self.inner_ticks = []
        self.setup_samples = []
        self.configs = self.points = self.steps = 0
        self.attempted = 0
        self.failures = []
        self.overhead = None

    def add_check(self, result):
        attempted, failures = result
        self.attempted += attempted
        self.failures += failures

    def ref_call_times(self):
        """Each call's time over the mean of the reference ticks before, inside and after it."""
        r = self.ref_ticks
        return [t / statistics.mean([r[i], *self.inner_ticks[i], r[i + 1]])
                for i, t in enumerate(self.times)]


def one_call(wl, inp, tracer, run, index):
    """Time one call, then check its output; ticks inside a ticked run's call are not its time."""
    tracer.call_id = index
    inner = []
    c0, t0 = time.process_time(), time.perf_counter()
    with ticking(inner) if run.ticked else contextlib.nullcontext():
        out = wl.call(inp)
    run.times.append(time.perf_counter() - t0 - sum(inner))
    run.cpu_times.append(time.process_time() - c0 - sum(inner))
    run.inner_ticks.append(inner)
    configs, points, steps = wl.size(out)
    run.configs += configs
    run.points += points
    run.steps += steps
    run.add_check(wl.check(inp, out, tracer))
    return out


def compare(wl, index, fingerprint, out, run):
    run.attempted += 1
    if wl.fingerprint(out) != fingerprint:
        run.failures.append(f"input #{index} gave a different output on a second pass")


def run_timed(wl, args, tracer):
    """Closed loop for --seconds, then a second pass over the inputs marked for repeat.

    A reference tick is timed before every call and after the last one, and
    every REF_INTERVAL_S inside a call.
    Set-up sample j is taken between calls once j/SETUP_REPEATS of the loop
    has passed; the time the samples take does not count against --seconds.
    """
    run = Run(ticked=True)
    repeats = []
    start = time.perf_counter()
    sampling = 0.0

    def elapsed():
        return time.perf_counter() - start - sampling

    def take_due_setup_samples(until):
        nonlocal sampling
        while (len(run.setup_samples) < SETUP_REPEATS
               and until >= len(run.setup_samples) / SETUP_REPEATS):
            t0 = time.perf_counter()
            run.setup_samples.append(setup_sample(args))
            sampling += time.perf_counter() - t0

    for index, inp in enumerate(wl.inputs(args.seed)):
        take_due_setup_samples(elapsed() / args.seconds)
        run.ref_ticks.append(reference_tick())
        out = one_call(wl, inp, tracer, run, index)
        if len(repeats) < MAX_REPEATS and wl.repeat(index, out):
            repeats.append((index, inp, wl.fingerprint(out)))
        if elapsed() >= args.seconds:
            break
    run.ref_ticks.append(reference_tick())
    take_due_setup_samples(1.0)
    for index, inp, fingerprint in repeats:
        compare(wl, index, fingerprint, wl.call(inp), run)
    return run


def run_traced(wl, args, tracer):
    """Each of a fixed set of inputs runs untraced, then traced; the two outputs must agree.

    Interleaving the two passes keeps drift in machine speed out of the overhead.
    """
    plain, traced = Run(), Run()
    for index, inp in zip(range(wl.trace_calls), wl.inputs(args.seed)):
        fingerprint = wl.fingerprint(one_call(wl, inp, tracer, plain, index))
        with tracer.recording():
            out = one_call(wl, inp, tracer, traced, index)
        compare(wl, index, fingerprint, out, traced)
    traced.overhead = sum(traced.times) / sum(plain.times) - 1.0
    traced.attempted += plain.attempted
    traced.failures = plain.failures + traced.failures
    return traced


def end_to_end_metrics(run):
    """The bounded metrics: call cost in reference ticks, set-up and memory as measured."""
    ref_times = run.ref_call_times()
    return {
        "setup_s": (min(run.setup_samples), "s"),
        "call_p50_ref": (statistics.median(ref_times), "ref"),
        "configs_per_kref": (1e3 * run.configs / sum(ref_times), "1/kref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def wall_clock_metrics(run):
    """The same calls in seconds as measured; they follow the host's speed."""
    metrics = {
        "call_p50_ms": (statistics.median(run.times) * 1e3, "ms"),
        "configs_per_s": (run.configs / sum(run.times), "1/s"),
        "ref_tick_ms": (statistics.median(run.ref_ticks) * 1e3, "ms"),
    }
    if len(run.times) >= 100:
        metrics["call_p90_ms"] = (statistics.quantiles(run.times, n=10)[-1] * 1e3, "ms")
    if run.steps:
        metrics["flow_steps_per_s"] = (run.steps / sum(run.times), "1/s")
    return metrics


def per_layer_metrics(run, tracer):
    totals = tracer.layer_totals()
    metrics = {}
    for mod_name, fn_name in TRACED:
        name = f"{mod_name}.{fn_name}"
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    for name in PER_CONFIG:
        metrics[f"{name}.calls_per_config"] = (metrics[f"{name}.calls"][0] / run.configs,
                                               "calls/config")
    for name in PER_POINT:
        metrics[f"{name}.calls_per_point"] = (metrics[f"{name}.calls"][0] / run.points,
                                              "calls/point")
    metrics["connection.curvature.max_num_bits"] = (tracer.max_num_bits, "bits")
    metrics["connection.curvature.max_den_bits"] = (tracer.max_den_bits, "bits")
    metrics["bench.configs"] = (run.configs, "count")
    metrics["bench.points"] = (run.points, "count")
    metrics["bench.trace_overhead_frac"] = (run.overhead, "ratio")
    return metrics


def report_lines(args, env, run, metrics):
    """Human-readable summary; every end-to-end metric, including those not in the JSON line."""
    lines = [f"# curvlab bench workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace} " +
             " ".join(f"{k}={v}" for k, v in env.items())]
    extra = {} if args.trace else wall_clock_metrics(run)
    n = len(run.times)
    extra["fail_frac"] = (len(run.failures) / run.attempted, "ratio")
    for name, (value, unit) in {**metrics, **extra}.items():
        lines.append(f"{name:<48} {value:>14.6g} {unit}")
    lines.append(f"# {n} calls, {run.configs} configs, {run.points} points, "
                 f"{run.attempted} checks, {len(run.failures)} failed; "
                 f"setup samples {[round(s, 4) for s in run.setup_samples]}")
    lines += [f"# FAIL {f}" for f in run.failures[:20]]
    return lines


def main(argv=None):
    args = parse_args(argv)
    # the benchmark is single-process: no worker pool may escape the spans
    os.environ.pop("CURVLAB_THREADS", None)
    if args.setup_probe:
        setup_probe(args)
        return 0
    try:
        workloads = import_workloads()
    except ImportError as exc:
        print(f"bench: cannot import curvlab from {SRC}: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    tracer = Tracer()
    if args.trace:
        run = run_traced(wl, args, tracer)
        metrics = per_layer_metrics(run, tracer)
    else:
        run = run_timed(wl, args, tracer)
        metrics = end_to_end_metrics(run)
    metrics_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    env = environment()

    for line in report_lines(args, env, run, metrics):
        print(line)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "calls": len(run.times),
        "call_times_s": run.times, "call_cpu_s": run.cpu_times, "ref_ticks_s": run.ref_ticks,
        "inner_ref_ticks_s": run.inner_ticks,
        "setup_samples_s": run.setup_samples,
        "configs": run.configs, "points": run.points, "attempted": run.attempted,
        "failures": run.failures, "metrics": metrics_json,
    }
    if args.trace:
        record["spans"] = tracer.span_records()
    RESULTS.mkdir(parents=True, exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics_json,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
