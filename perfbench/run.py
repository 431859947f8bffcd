"""Benchmark of the lunephase package: one closed-loop client, one workload
per run, every result checked.

    python3 perfbench/run.py --workload chain|trajectory|grid|loop|cli \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/lunephase``. With
``--trace 0`` it prints the end-to-end metrics named in BENCHMARK.json; with
``--trace 1`` it runs the same requests untraced and then traced, and prints
the per-layer metrics, the tracing overhead included. The last line of
stdout is one JSON object; details go to ``.perfbench/`` in the checkout.
See perfbench/NOTES.md for why the workloads are what they are.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench"
# One BLAS thread: the machine is small and shared, and a second thread makes
# the SVD timings of check_geodesic swing from run to run.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)
sys.path.insert(1, str(ROOT / "src"))

import numpy as np  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 20
TAIL_BEYOND = 10
TAIL_PERCENTILE = 90
# On the shared host this was tuned on, each CPU in turn runs the same code
# up to 1.8x slower for stretches of seconds to minutes while neighbours load
# it. So every SETTLE_S the process moves to the CPU that runs a fixed
# machine probe fastest at that moment, the probe runs again after every
# request, and every timed value is scaled to a machine on which the probe
# takes REFERENCE_PROBE_S: it is multiplied by REFERENCE_PROBE_S over the
# slower of the probes just before and just after it. The probe does not
# touch the package, so a change in the package's speed is not scaled away.
SETTLE_S = 0.2
PROBE_REPEATS = 200
REFERENCE_PROBE_S = 1e-3
MAX_PROBED_CPUS = 4
IMPORT_PROBE = """\
import importlib, sys, time
t0 = time.perf_counter()
errors = []
for name in dict.fromkeys(["lunephase", *sys.argv[1:]]):
    try:
        importlib.import_module(name)
    except Exception as exc:
        errors.append(f"{name}: {type(exc).__name__}: {exc}")
print(time.perf_counter() - t0)
print("; ".join(errors))
"""
PULSE_LEVEL = ("lunephase.pulse", "lunephase.qcore")
# name: (request stream, runner, check factory, the modules the runner takes).
# chain and trajectory need only the pulse and qcore layers; see NOTES.md for
# why grid, loop and cli are not in BENCHMARK.json yet.
WORKLOADS = {
    "chain": (workloads.chain_requests, workloads.run_chain,
              lambda: workloads.check_chain, PULSE_LEVEL),
    "trajectory": (workloads.trajectory_requests, workloads.run_trajectory,
                   lambda: workloads.check_trajectory, PULSE_LEVEL),
    "grid": (workloads.grid_requests, workloads.run_grid,
             lambda: workloads.check_grid, ("lunephase",)),
    "loop": (workloads.loop_requests, workloads.run_loop,
             lambda: workloads.check_loop, ("lunephase",)),
    "cli": (workloads.cli_requests, workloads.run_cli_inprocess,
            workloads.make_cli_check, ("lunephase",)),
}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def machine_probe(a=np.eye(4, dtype=complex)) -> float:
    """Seconds for a fixed run of small-matrix work, the kind the package
    does; it changes only when the machine does."""
    t0 = perf_counter()
    for _ in range(PROBE_REPEATS):
        np.max(np.abs(a @ a))
    return perf_counter() - t0


def settle(cpus: list[int]) -> float:
    """Move this process to whichever of cpus runs the machine probe fastest
    now and return that probe time."""
    if len(cpus) < 2:
        return machine_probe()
    best_time, best_cpu = math.inf, cpus[0]
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        t = machine_probe()
        if t < best_time:
            best_time, best_cpu = t, cpu
    os.sched_setaffinity(0, {best_cpu})
    return best_time


def probed_cpus() -> list[int]:
    """The CPUs settle() chooses from: up to MAX_PROBED_CPUS of those this
    process may run on, or none where affinity cannot be set."""
    if not hasattr(os, "sched_setaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))[:MAX_PROBED_CPUS]


def measure_setup(env: dict, modules, cpus: list[int]) -> tuple[float, str]:
    """Median, over SETUP_PROBES fresh interpreters, of the scaled time to
    ``import lunephase`` and then the modules the workload uses; one
    discarded interpreter first, so bytecode caches exist as they do for a
    user. Each interpreter runs on the CPU the probe before it chose."""
    times, error = [], ""
    for i in range(SETUP_PROBES + 1):
        before = settle(cpus)
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *modules], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, error = (proc.stdout.split("\n") + [""])[:2]
        if i:
            times.append(float(seconds) * REFERENCE_PROBE_S / max(before, machine_probe()))
    return statistics.median(times), error


def import_package(modules) -> tuple[Exception | None, float]:
    """(error, milliseconds) of this process's own cold import of the
    package and of the modules the workload uses.

    The package is imported first, as a user's first line would. If that
    raises, the layers that finished importing before the failure stay in
    ``sys.modules`` (the import system keeps them) and remain importable by
    their full names; that is how the package's own pulse-level tests run
    while ``import lunephase`` fails.
    """
    t0 = perf_counter()
    error = None
    try:
        import lunephase  # noqa: F401
        import lunephase.cli  # noqa: F401
    except Exception as exc:  # the package's import failure is a measured result
        error = exc
    for name in modules:
        try:
            importlib.import_module(name)
        except Exception as exc:  # reported; each request then fails on it
            error = exc
    return error, 1e3 * (perf_counter() - t0)


class Pass:
    """Closed-loop results of one pass over a request stream."""

    def __init__(self) -> None:
        self.latencies = array("d")
        self.units = 0
        # slower of the machine probes just before and just after each request
        self.slowness = array("d")
        self.failed = 0
        self.failures: Counter = Counter()
        self.by_label: dict[str, list[float]] = defaultdict(list)

    def run_one(self, request, execute, check) -> None:
        t0 = perf_counter()
        try:
            execute(request)
            error = None
        except Exception as exc:  # a failed operation, counted and reported
            error = exc
        latency = perf_counter() - t0
        problems = check(request, error)
        self.latencies.append(latency)
        self.units += request.units
        if "label" in request.args:
            self.by_label[request.args["label"]].append(latency)
        if problems:
            self.failed += 1
            self.failures[problems[0]] += 1

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def scaled_latencies(self) -> list[float]:
        """Latencies at the reference machine speed (see REFERENCE_PROBE_S)."""
        return [t * REFERENCE_PROBE_S / p for t, p in zip(self.latencies, self.slowness)]


def drive(stream, execute, check, seconds: float, cpus: list[int]) -> Pass:
    result = Pass()
    deadline = perf_counter() + seconds
    next_settle = 0.0
    while perf_counter() < deadline:
        if perf_counter() >= next_settle:
            before = settle(cpus)
            next_settle = perf_counter() + SETTLE_S
        result.run_one(next(stream), execute, check)
        after = machine_probe()
        result.slowness.append(max(before, after))
        before = after
    return result


def replay(stream, count: int, execute, check, tracer) -> Pass:
    """The first count requests of a fresh stream, each under its own
    request id."""
    result = Pass()
    for i in range(count):
        tracer.request = i
        result.run_one(next(stream), execute, check)
    return result


def tail(latencies) -> tuple[float, float]:
    """(value, percentile) at TAIL_PERCENTILE, or lower where fewer than
    TAIL_BEYOND samples would lie above it; the maximum when there are too
    few samples. A fixed percentile keeps a faster run, which gathers more
    samples, from being read further out in its tail."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = min(math.ceil(TAIL_PERCENTILE / 100.0 * n) - 1, n - TAIL_BEYOND - 1)
    k = max(k, 0) if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n


def executors(workload: str, env, inprocess: bool):
    """(execute, check) for one request. In-process requests look their
    modules up on every call, so a module that fails to import fails each
    request with its own import error, at the cost of that attempt."""
    _, run, make_check, modules = WORKLOADS[workload]
    if workload == "cli" and not inprocess:
        def execute(request):
            workloads.run_cli_subprocess(env, str(ROOT), request)
    else:
        def execute(request):
            run(*[importlib.import_module(name) for name in modules], request)
    return execute, make_check()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "thread_pins": THREAD_PINS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lunephase" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'lunephase'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    os.chdir(ROOT)
    env = child_env()
    streams, modules = WORKLOADS[args.workload][0], WORKLOADS[args.workload][3]

    cpus = probed_cpus()
    setup_s, setup_error = (None, "") if args.trace else measure_setup(env, modules, cpus)
    import_error, import_ms = import_package(modules)
    execute, check = executors(args.workload, env, inprocess=bool(args.trace))
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "environment": environment(),
               "import_error": import_error and f"{type(import_error).__name__}: {import_error}"}
    if import_error:
        print(f"import: {details['import_error']}", file=sys.stderr)

    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        plain = drive(streams(random.Random(args.seed)), execute, check, args.seconds / 2, cpus)
        tracer = spans.Tracer()
        with spans.installed(tracer):
            traced = replay(streams(random.Random(args.seed)), len(plain.latencies),
                            execute, check, tracer)
        spans_file = OUT_DIR / f"spans-{args.workload}.jsonl"
        tracer.write(spans_file)
        values = spans.layer_metrics(tracer, traced.units)
        values["package.import_ms"] = import_ms
        values["trace.overhead_pct"] = (
            100.0 * (traced.busy / plain.busy - 1.0) if plain.busy else 0.0)
        passes = (plain, traced)
        wanted = spec["per_layer"]
        details["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        measured = drive(streams(random.Random(args.seed)), execute, check, args.seconds, cpus)
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        latencies = measured.scaled_latencies()
        busy = sum(latencies)
        tail_value, tail_pct = tail(latencies)
        values = {
            "setup_s": setup_s,
            "units_per_s": measured.units / busy if busy else 0.0,
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_tail_ms": 1e3 * tail_value,
            "peak_rss_mib": (children if args.workload == "cli" else own) / 1024.0,
        }
        passes = (measured,)
        wanted = spec["end_to_end"]
        details.update(
            setup_import_error=setup_error or None,
            samples=len(latencies),
            tail_percentile=tail_pct,
            units=measured.units,
            probe_ms={"min": 1e3 * min(measured.slowness),
                      "median": 1e3 * statistics.median(measured.slowness),
                      "max": 1e3 * max(measured.slowness)},
            unscaled={"units_per_s": measured.units / measured.busy if measured.busy else 0.0,
                      "latency_p50_ms": 1e3 * statistics.median(measured.latencies)},
            per_label_p50_ms={label: 1e3 * statistics.median(v)
                              for label, v in sorted(measured.by_label.items())},
        )

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    failures = sum((p.failures for p in passes), Counter())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    details.update(attempted=attempted, failed=failed,
                   failed_ratio=failed / attempted if attempted else 1.0,
                   failures=dict(failures.most_common(20)), metrics=metrics)
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")

    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"failed_ratio = {details['failed_ratio']:.6g} ({failed} of {attempted} requests)")
    if not args.trace:
        print(f"timings scaled to a {1e3 * REFERENCE_PROBE_S:g} ms machine probe "
              f"(median probe here {details['probe_ms']['median']:.3g} ms); "
              f"latency_tail is p{details['tail_percentile']:.1f} of {details['samples']} requests")
        for label, value in details["per_label_p50_ms"].items():
            print(f"  p50 {label}: {value:.1f} ms")
    for message, count in failures.most_common(5):
        print(f"FAILED x{count}: {message}")
    print(f"details: {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
