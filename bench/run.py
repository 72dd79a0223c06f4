"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload ladders_xyz --seed 1 --seconds 18 --trace 0

With --trace 0 the workload's ops run in a closed loop (one op at a
time, the next one as soon as the last returns) for --seconds seconds
in this single process, after a warm-up, and the end-to-end metrics are
printed.  With --trace 1 whole passes over the workload's inputs run
untraced and traced in turn until --seconds have passed, and the
per-layer metrics of the traced passes are printed, per pass.

Times are scaled to a reference machine speed measured between ops
(see speed.py).  Every op's output is checked outside the timed region;
an op that raised or failed its check counts in `failed`.  The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Spans and a copy of the result go to bench/out/.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import MODULES, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# numpy's BLAS/OpenMP pools and the package's own worker cap
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOADS = ("ladders_xyz", "ladders_optimized", "oracle_audit", "cli")
SETUP_PROBES = 5
START_PROBES = 5
TAIL_PERCENTILES = (99, 90, 50)
TAIL_BEYOND = 10

END_TO_END = {
    "throughput_ops_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# wrapped public functions whose calls and self time are reported
LAYER_FUNCTIONS = (
    "search.threshold_lambda",
    "search.direction_coefficients",
    "search.build_table",
    "search.optimize_angles",
    "cascade.value_from_state",
    "cascade.propagate",
    "cascade.run_cascade",
    "cascade.run_cascade_oracle",
    "cascade.no_signalling_audit",
    "inequalities.required_terms",
    "qop.direction_observable",
    "qop.validate_density",
    "qop.tensor3",
    "qop.effect_sqrt",
    "measurement.averaged_channel",
    "measurement.joint_probability",
    "measurement.luders_update",
    "measurement.effect",
    "measurement.correlation1",
    "measurement.correlation2",
    "measurement.correlation3",
    "states.build_state",
    "cli.main",
)


def per_layer_units():
    units = {}
    for name in LAYER_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units["search.evals_per_threshold"] = "evals/call"
    units["cascade.oracle_branches"] = "count"
    units["cli.python_start_ms"] = "ms"
    units["cli.import_ms"] = "ms"
    units["cli.main_ms"] = "ms"
    for module in MODULES:
        units[f"{module}.errors"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


PER_LAYER = per_layer_units()


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def pin_environment():
    """One BLAS/OpenMP thread and no SEQSTEER_THREADS, for this process
    and its children; children import the checkout's package."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("SEQSTEER_THREADS", None)
    src = ROOT / "src"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p
    )
    sys.path.insert(0, str(src))


def import_package():
    required = (
        ROOT / "src" / "seqsteer" / "__init__.py",
        ROOT / "tests" / "util.py",
        ROOT / "tests" / "golden",
    )
    missing = [str(p.relative_to(ROOT)) for p in required if not p.exists()]
    if missing:
        raise SetupError("checkout lacks " + ", ".join(missing))
    import seqsteer

    expected = (ROOT / "src" / "seqsteer").resolve()
    if Path(seqsteer.__file__).resolve().parent != expected:
        raise SetupError(f"imported seqsteer from {seqsteer.__file__}, not from {expected}")
    return seqsteer


def provenance():
    import numpy
    from importlib import metadata

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "git": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def spawn_probe(workload, seed):
    """Seconds from spawning a fresh interpreter to the probe reporting
    ready, and the probe's own import time in milliseconds."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "probe.py"), workload, str(seed)],
        stdout=subprocess.PIPE,
        cwd=ROOT,
    )
    with proc.stdout:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
    if proc.wait(timeout=120) != 0 or not line:
        raise SetupError(f"set-up probe for {workload} failed (exit {proc.returncode})")
    return ready, json.loads(line)["import_ms"]


def setup_probes(workload, seed, speed):
    """Median set-up seconds and import milliseconds over fresh
    processes, each scaled by the fresh-process slowness around it,
    after one untimed probe fills the bytecode cache."""
    spawn_probe(workload, seed)
    runs = []
    for _ in range(SETUP_PROBES):
        speed.burst()
        start = time.perf_counter()
        runs.append((start, *spawn_probe(workload, seed)))
    speed.burst()
    ready, imports = [], []
    for start, seconds, import_ms in runs:
        slowness = speed.around(start, start + seconds)
        ready.append(seconds / slowness)
        imports.append(import_ms / slowness)
    return statistics.median(ready), statistics.median(imports)


def python_start_ms():
    """Median wall time of a bare interpreter start and exit, unscaled:
    it is the fresh-process speed reference itself."""
    times = []
    for _ in range(START_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


@dataclass
class Record:
    """One op: which input, when it started (seconds after its loop
    began), how long it took, what it returned or raised, the machine
    slowness around it, and why it failed its check."""

    index: int
    start: float
    seconds: float
    output: object
    error: str
    slowness: float = 1.0
    problem: str = None

    @property
    def scaled(self):
        """Seconds at reference machine speed."""
        return self.seconds / self.slowness


def run_op(run, pool, index, records, began):
    start = time.perf_counter()
    try:
        output, error = run(pool[index]), None
    except Exception as exc:  # a failing op is counted, the run goes on
        output, error = None, f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    records.append(Record(index, start - began, end - start, output, error))
    return end


def closed_loop(run, pool, seconds, speed):
    """Ops in pool order, cycling, until `seconds` have passed, with
    speed references between them."""
    records = []
    start = time.perf_counter()
    i = 0
    while True:
        speed.burst_if_due()
        end = run_op(run, pool, i % len(pool), records, start)
        i += 1
        if end - start >= seconds:
            break
    mark_slowness(records, start, speed)
    return records, end - start


def one_pass(run, pool, speed, tracer=None, first_op=0):
    records = []
    start = time.perf_counter()
    for index in range(len(pool)):
        if tracer is not None:
            tracer.op = first_op + index
        speed.burst_if_due()
        run_op(run, pool, index, records, start)
    mark_slowness(records, start, speed)
    return records


def mark_slowness(records, began, speed):
    """Close a loop with a burst and give each op the slowness around it."""
    speed.burst()
    for rec in records:
        rec.slowness = speed.around(began + rec.start, began + rec.start + rec.seconds)


def check(workload, pool, records):
    """Verify the first good output of each input in full and compare
    every other output of that input with it; set `problem` on each
    record that fails.  Returns the first output per input."""
    from workloads import CheckFailure

    verdicts, firsts = {}, {}
    for rec in records:
        rec.problem = None
        if rec.error is not None:
            rec.problem = f"{pool[rec.index]!r:.80}: raised {rec.error}"
            continue
        fingerprint = workload.fingerprint(rec.output)
        if rec.index not in verdicts:
            try:
                workload.verify(pool[rec.index], rec.output)
                problem = None
            except CheckFailure as exc:
                problem = str(exc)
            except Exception as exc:  # the check itself broke: the op is not verified
                problem = f"check raised {type(exc).__name__}: {exc}"
            verdicts[rec.index] = (fingerprint, problem)
            firsts[rec.index] = rec.output
        reference, problem = verdicts[rec.index]
        if problem is None and fingerprint != reference:
            problem = f"input {rec.index}: output differs from an earlier op on the same input"
        rec.problem = problem
    return firsts


def throughput(records, seconds):
    """Verified ops per second of op time at reference machine speed.
    The op still running when the window closes counts by the share of
    it that fell inside, so a long last op does not skew the mix."""
    done = busy = 0.0
    for rec in records:
        inside = min(1.0, max(0.0, (seconds - rec.start) / rec.seconds)) if rec.seconds else 1.0
        busy += inside * rec.scaled
        if rec.problem is None:
            done += inside
    return done / busy


def tail(latencies_ms):
    """(value, percentile, samples beyond it) for the highest of
    TAIL_PERCENTILES with at least TAIL_BEYOND samples above it, by
    nearest rank.  With fewer than 2 * TAIL_BEYOND samples this is the
    median, and the label says how few samples lie beyond it."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100 * n)
        if n - rank >= TAIL_BEYOND or q == TAIL_PERCENTILES[-1]:
            return ordered[rank - 1], f"p{q}", n - rank


def slowness_note(records):
    values = sorted(r.slowness for r in records)
    return (
        f"slowness around ops: median {statistics.median(values):.3f},"
        f" min {values[0]:.3f}, max {values[-1]:.3f}"
    )


def timed_run(workload, pool, seconds, speed):
    workload.run(pool[0])  # warm-up, untimed
    records, wall = closed_loop(workload.run, pool, seconds, speed)
    if workload.name == "cli":
        peak_kb = max(r.output.max_rss_kb for r in records if r.output is not None)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    checked = time.perf_counter()
    firsts = check(workload, pool, records)
    check_s = time.perf_counter() - checked
    latencies = [r.scaled * 1e3 for r in records]
    tail_ms, tail_label, beyond = tail(latencies)
    metrics = {
        "throughput_ops_s": throughput(records, seconds),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": peak_kb / 1024,
    }
    raw_p50 = statistics.median(r.seconds for r in records) * 1e3
    notes = [
        f"ops {len(records)} in {wall:.3f} s; tail is {tail_label} with {beyond} samples beyond",
        slowness_note(records) + f"; unscaled op p50 {raw_p50:.1f} ms",
        f"output checks took {check_s:.1f} s",
    ]
    return records, firsts, metrics, notes


def traced_run(workload, pool, seconds, speed):
    workload.run_traced(pool[0])  # warm-up, untimed
    tracer = Tracer()
    untraced, traced, passes = [], [], 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        untraced += one_pass(workload.run_traced, pool, speed)
        with tracer:
            traced += one_pass(workload.run_traced, pool, speed, tracer, passes * len(pool))
        passes += 1
    records = untraced + traced
    firsts = check(workload, pool, records)

    # spans are scaled by the traced passes' overall slowness
    slowness = sum(r.seconds for r in traced) / sum(r.scaled for r in traced)
    metrics = {}
    for name in LAYER_FUNCTIONS:
        calls, self_ms = tracer.stat(name)
        metrics[f"{name}.calls"] = calls / passes
        metrics[f"{name}.self_ms"] = self_ms / slowness / passes
    thresholds = tracer.stat("search.threshold_lambda")[0]
    evals = tracer.edge_calls("search.threshold_lambda", "cascade.value_from_state") + tracer.edge_calls(
        "search.threshold_lambda", "search.direction_coefficients"
    )
    metrics["search.evals_per_threshold"] = evals / thresholds if thresholds else 0.0
    metrics["cascade.oracle_branches"] = (
        tracer.edge_calls("cascade.run_cascade_oracle", "measurement.luders_update") / passes
    )
    untraced_ms = [r.scaled * 1e3 for r in untraced]
    metrics["cli.main_ms"] = statistics.median(untraced_ms) if workload.name == "cli" else 0.0
    for module in MODULES:
        metrics[f"{module}.errors"] = tracer.errors[module] / passes
    metrics["trace.overhead_ratio"] = sum(r.scaled for r in traced) / sum(r.scaled for r in untraced)

    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{workload.name}.spans.csv.gz"
    tracer.write_spans(spans)
    notes = [
        f"passes {passes} of {len(pool)} ops; unscaled op time untraced"
        f" {sum(r.seconds for r in untraced):.3f} s, traced {sum(r.seconds for r in traced):.3f} s",
        slowness_note(records),
        f"spans {len(tracer.span_id)} written to {spans.relative_to(ROOT)}",
    ]
    notes += profile_lines(tracer, passes)
    return records, firsts, metrics, notes


def profile_lines(tracer, passes, top=6):
    """The functions with the most self time and the most inclusive
    time, as shares of all time spent inside wrapped functions."""
    lines = []
    inside_ns = sum(tracer.self_ns.values()) or 1
    for label, table in (("self", tracer.self_ns), ("inclusive", tracer.total_ns)):
        for i, ns in table.most_common(top):
            lines.append(
                f"{label} time {tracer.names[i]}: {ns / inside_ns:.1%}"
                f" ({tracer.calls[i] / passes:g} calls per pass)"
            )
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_environment()
    try:
        import_package()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import speed
    import workloads

    info = provenance()
    spawn_speed = speed.fresh_process()
    began = time.perf_counter()
    setup_s, import_ms = setup_probes(args.workload, args.seed, spawn_speed)
    probes_s = time.perf_counter() - began
    workload = workloads.make(args.workload, ROOT)
    pool = workload.pool(args.seed)
    if args.trace:
        records, firsts, metrics, notes = traced_run(workload, pool, args.seconds, speed.in_process())
        metrics["cli.python_start_ms"] = python_start_ms()
        metrics["cli.import_ms"] = import_ms
        units = PER_LAYER
    else:
        op_speed = spawn_speed if workload.fresh_process else speed.in_process()
        records, firsts, metrics, notes = timed_run(workload, pool, args.seconds, op_speed)
        metrics["setup_s"] = setup_s
        units = END_TO_END

    failures = [r.problem for r in records if r.problem is not None]
    attempted, failed = len(records), len(failures)
    notes.append(f"set-up probes took {probes_s:.1f} s, the whole run {time.perf_counter() - began:.1f} s")
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("# provenance " + json.dumps(info))
    for line in notes + workload.describe(pool, firsts):
        print("# " + line)
    for problem in failures[:10]:
        print("# FAILED " + problem)
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "provenance": info, "notes": notes}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
