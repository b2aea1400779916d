"""Solver benchmark: one workload, one seed, one line of JSON metrics.

    python3 perfbench/run.py --workload hvc-lp --seed 1 --seconds 15 --trace 0

Run from the repository root.  The solver is imported from `src/` next to
this directory.  Set-up imports the solver and generates and serializes
the workload's instances from the seed; it runs in this process and in two
fresh interpreters, and `setup_s` is the median.  The timed phase then
solves every instance the way `bulkrobust solve` does, minus file I/O
(`parse_instance` -> `solve` -> `json.dumps(solution_dict(...))`), in as
many whole passes over the workload as fit in `--seconds` (at least one).
Every pass must give the same outputs as the first.  All times are
seconds at a reference CPU speed (see `clock.py`).  Each instance's
latency is its best time over the passes; `solve_s` is their sum, and
`latency_ms.p50` / `.p90` are percentiles over the instances.  Afterwards
every output is checked (see `checks.py`); a failed check or a solver
exception fails the instance, and any failure makes the exit code 1.

With `--trace 1` the timed phase is followed by one pass with every solver
layer wrapped (see `tracing.py`); its outputs must equal the untraced ones
byte for byte, its spans go to `.bench_out/spans-<workload>.tsv`, and the
printed metrics are the per-layer ones instead of the end-to-end ones.

The last line of standard output is
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
"""

import time

T_START = time.perf_counter()

import os

# Single-threaded numerics, set here and never in the package.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 2            # fresh-interpreter set-ups besides this process's own
FAILURES_SHOWN = 20
UNITS = {"solve_s": "s", "latency_ms.p50": "ms", "latency_ms.p90": "ms",
         "setup_s": "s", "peak_rss_mb": "MB", "cost_sum": "weight"}


@dataclass
class Pass:
    wall_s: float
    latencies: list         # seconds per instance, at the reference speed
    outputs: list           # solution JSON text, None where the solver raised
    errors: dict            # instance index -> exception text
    speed: clock.SpeedProbe     # the probes taken during the pass


def import_solver():
    """Import the package from `src/`, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import bulkrobust
    except ImportError as exc:
        sys.exit(f"run.py: cannot import the solver from {SRC}: {exc}")
    if Path(bulkrobust.__file__).resolve().parent.parent != SRC:
        sys.exit(f"run.py: imported bulkrobust from {bulkrobust.__file__}, not {SRC}")


def solve_pass(cases, tracer=None):
    """Solve every case once, timing each; module attributes are looked up
    per call so that traced wrappers take effect."""
    from bulkrobust import driver, instance

    spans, outputs, errors = [], [], {}
    with clock.SpeedProbe() as speed:
        started = time.perf_counter()
        for idx, case in enumerate(cases):
            if tracer is not None:
                tracer.start_case(idx)
            t0 = time.perf_counter()
            try:
                inst = instance.parse_instance(case.text)
                x, trace = driver.solve(inst)
                out = json.dumps(driver.solution_dict(inst, x, trace))
            except Exception as exc:    # any solver exception fails the instance
                out = None
                errors[idx] = f"{type(exc).__name__}: {exc}"
            spans.append((t0, time.perf_counter()))
            outputs.append(out)
        wall_s = time.perf_counter() - started
    return Pass(wall_s, [speed.scaled(*span) for span in spans], outputs, errors, speed)


def probe_setup(args):
    """Set up once in a fresh interpreter; returns (seconds, inputs digest)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["inputs_sha256"]


def set_up(argv=None):
    """Import the solver, read the arguments and generate the workload;
    returns (args, cases, set-up seconds since this script started)."""
    with clock.SpeedProbe() as speed:
        import_solver()
        args = parse_args(argv)
        import workloads
        cases = workloads.generate(args.workload, args.seed)
        done = time.perf_counter()
    return args, cases, speed.scaled(T_START, done)


def run(args, cases, own_setup_s):
    import checks
    import tracing
    import workloads

    inputs_sha = workloads.digest(case.text for case in cases)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_s, "inputs_sha256": inputs_sha}))
        return 0

    failures = {}

    def fail(idx, message):
        failures.setdefault(idx, []).append(message)

    setup_samples = [own_setup_s]
    if not args.trace:
        for _ in range(SETUP_PROBES):
            seconds, sha = probe_setup(args)
            setup_samples.append(seconds)
            if sha != inputs_sha:
                fail(-1, f"set-up in a fresh interpreter gave other inputs ({sha})")

    # -- timed phase --------------------------------------------------------
    # Whole passes, as many as fit in --seconds going by the last one; at
    # least one.  Only the first pass keeps its outputs.
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started + passes[-1].wall_s <= args.seconds:
        p = solve_pass(cases)
        for idx, message in p.errors.items():
            fail(idx, message)
        if passes:
            for idx, out in enumerate(p.outputs):
                if out != passes[0].outputs[idx]:
                    fail(idx, "output differs between passes")
            p.outputs = None
        passes.append(p)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    first = passes[0].outputs

    if args.trace:
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = solve_pass(cases, tracer)
        leftover = tracer.leftover_wrappers()
        if leftover:
            fail(-1, f"bindings not restored after tracing: {leftover}")
        for idx, out in enumerate(traced.outputs):
            if out != first[idx]:
                fail(idx, "traced output differs from untraced output")
        # Span lengths at the reference speed, as for the end-to-end times.
        spans = [(name, start, start + traced.speed.scaled(start, end), *rest)
                 for name, start, end, *rest in tracer.spans]
        tracing.write_spans(spans, ROOT / ".bench_out" / f"spans-{args.workload}.tsv")

    # -- checks, outside the timed phase and with tracing stopped -------------
    with clock.SpeedProbe() as speed:
        check_started = time.perf_counter()
        references, worst_ratio = 0, 0.0
        for idx, (case, out) in enumerate(zip(cases, first)):
            if out is None:
                continue
            problems, opt = checks.check_case(case, out)
            for message in problems:
                fail(idx, message)
            if opt:
                references += 1
                worst_ratio = max(worst_ratio, json.loads(out)["cost"] / opt)
        check_done = time.perf_counter()
    check_s = speed.scaled(check_started, check_done)

    # -- report ---------------------------------------------------------------
    # Each instance is timed at its best pass, which filters out what the
    # speed scale misses of slowdowns caused by other load.
    best_ms = [min(times) * 1e3 for times in zip(*(p.latencies for p in passes))]
    pass_s = statistics.median(p.wall_s for p in passes)
    scaled_pass_s = statistics.median(sum(p.latencies) for p in passes)
    # A failure outside any one instance (index -1) fails the whole run.
    failed = len(cases) if -1 in failures else len(failures)
    print(f"workload {args.workload} seed {args.seed}: {len(cases)} instances, "
          f"{len(passes)} passes, median pass {pass_s:.3f} s wall, "
          f"{scaled_pass_s:.3f} s at the reference speed; latencies are each "
          f"instance's best of {len(passes)} passes at the reference speed")
    print(f"inputs_sha256 {inputs_sha}")
    print(f"outputs_sha256 {workloads.digest(out or '' for out in first)}")
    print(f"references {references}, worst ratio to OPT {worst_ratio:.4f}, "
          f"checks {check_s:.3f} s")
    print(f"fail_rate {failed / len(cases)} ratio ({failed}/{len(cases)})")
    for idx in sorted(failures)[:FAILURES_SHOWN]:
        where = cases[idx].label if idx >= 0 else "benchmark"
        print(f"FAILED {idx} [{where}]: {'; '.join(failures[idx])}", file=sys.stderr)

    if args.trace:
        metrics = tracing.layer_metrics(spans, tracer.counters)
        metrics["oracle.check_s"] = check_s
        metrics["trace.overhead"] = sum(traced.latencies) / scaled_pass_s - 1
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "solve_s": sum(best_ms) / 1e3,
            "latency_ms.p50": statistics.median(best_ms),
            "latency_ms.p90": statistics.quantiles(best_ms, n=10, method="inclusive")[8],
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
            "cost_sum": sum(json.loads(out)["cost"] for out in first if out),
        }
        units = UNITS
    for name, value in metrics.items():
        print(f"  {name} {value} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(cases),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not failures else 1


def layer_unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith((".s", ".self_s", ".max_s", ".check_s")) or ".by_" in name:
        return "s"
    if name.endswith(("_rate", ".overhead")):
        return "ratio"
    if name.endswith("tableau_cells"):
        return "cells"
    return "count"


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and inputs digest, exit")
    return parser.parse_args(argv)


if __name__ == "__main__":
    sys.exit(run(*set_up()))
