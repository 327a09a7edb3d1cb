"""ccflab benchmark runner.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 36 --trace 0

Runs one workload from the root of a source checkout, as a closed loop with
a single caller in one process, against the package under ``src/``.  It
prints every metric by name with its unit, appends a record (with the run
environment) to a results file, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
untraced loop for half of ``--seconds``, replays exactly the same units with
the layer tracer installed, and reports the per-layer metrics and the
tracing overhead (traced minus untraced).  See README.md in this directory for why
each workload exists and which metric each layer number should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Fresh-process set-ups per run: some before the timed loop and some after
# it, so that their median spans the run.
SETUP_PROBES_BEFORE = 3
SETUP_PROBES_AFTER = 2
TAIL_BEYOND = 10


def import_program():
    """Import ccflab from this checkout's ``src/``, and nowhere else."""
    src = ROOT / "src"
    if not (src / "ccflab" / "__init__.py").is_file():
        raise SystemExit(f"error: no ccflab package under {src}")
    sys.path.insert(0, str(src))
    import ccflab
    import ccflab.cli

    if Path(ccflab.__file__).resolve().parent != src / "ccflab":
        raise SystemExit(f"error: imported ccflab from {ccflab.__file__}, not {src}")
    return ccflab


def pin_single_caller(threads: int) -> list[int]:
    """Keep a one-thread workload on one CPU, the last one it may use.

    A lone busy thread stays on whichever CPU the scheduler first gives it,
    and CPUs can differ in speed (the first one also takes most interrupts),
    so an unpinned run measures whichever it landed on.  Multi-threaded
    workloads keep every CPU.  Set-up probes inherit the pinning.
    """
    if threads == 1 and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def set_up(name: str, seed: int, tiny: bool):
    ccflab = import_program()
    wl = workloads.make_workload(name, ccflab, seed, tiny)
    with wl.session():
        wl.warm_up()
    return ccflab, wl


def fresh_setup_seconds(args, probes: int) -> list[float]:
    """Wall time of fresh processes that import ccflab, make the inputs and
    warm up, exactly as this run did before its timed loop."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        # No timeout: waiting with one polls in steps of up to 50 ms.
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def measure(wl, seconds: float | None = None, units: int | None = None, min_units: int | None = None):
    """Run whole units until ``seconds`` have passed (and at least
    ``min_units``, by default ``wl.min_units``, ran), or exactly ``units``."""
    min_units = wl.min_units if min_units is None else min_units
    done = []
    t0 = time.perf_counter()
    with wl.session():
        while True:
            if units is not None:
                if len(done) >= units:
                    break
            elif len(done) >= min_units and time.perf_counter() - t0 >= seconds:
                break
            done.append(wl.run_unit(len(done)))
    return done, time.perf_counter() - t0


def loop_stats(units, wall: float) -> dict:
    ops = sum(len(u.latencies) for u in units)
    lat = sorted(workloads.latency_samples(units))
    n = len(lat)
    # The highest percentile with TAIL_BEYOND samples beyond it; with
    # fewer samples than that, the slowest one.
    tail_index = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return {
        "ops": ops,
        "latency_samples": n,
        "attempted": sum(u.attempted for u in units),
        "wall_s": wall,
        "ops_per_s": ops / wall if wall > 0 else 0.0,
        "op_p50_ms": 1e3 * statistics.median(lat) if lat else 0.0,
        "op_tail_ms": 1e3 * lat[tail_index] if lat else 0.0,
        "tail_percentile": 100.0 * (tail_index + 1) / n if n else 0.0,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(units, wall, report, setup_times, peak_rss) -> tuple[dict, dict]:
    s = loop_stats(units, wall)
    attempted = s["attempted"]
    failed = len(report.failed_ops)
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (s["ops_per_s"], "1/s"),
        "op_p50_ms": (s["op_p50_ms"], "ms"),
        "op_tail_ms": (s["op_tail_ms"], "ms"),
        "ok_rate": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss, "MB"),
        "max_rel_gap": (workloads.max_rel_gap(units), "ratio"),
    }
    info = dict(s, error_rate=failed / attempted, failed=failed, setup_runs_s=setup_times)
    return values, info


def layer_metrics(tracer: Tracer, wl, units, wall, base) -> dict:
    summary = tracer.summary()
    c = tracer.counters

    def calls(name):
        return summary[name]["calls"]

    def self_s(name):
        return summary[name]["self_s"]

    proposals, accepted = c["sampling.proposals"], c["sampling.accepted"]
    points = c["solver.points"]
    idle = wl.threads * summary["ccf.ccnf_scan"]["total_s"] - tracer.child_time(
        "ccf.ccnf_scan", "ccf.estimate_r_tz"
    )
    traced = loop_stats(units, wall)
    return {
        "norms.eval_norm.calls": (calls("norms.eval_norm"), "count"),
        "norms.eval_norm.rows": (c["norms.eval_norm.rows"], "count"),
        "norms.eval_norm.self_s": (self_s("norms.eval_norm"), "s"),
        "norms.norm_subgradient.calls": (calls("norms.norm_subgradient"), "count"),
        "norms.norm_subgradient.self_s": (self_s("norms.norm_subgradient"), "s"),
        "sampling.rejection_sample_two_balls.calls": (calls("sampling.rejection_sample_two_balls"), "count"),
        "sampling.rejection_sample_two_balls.self_s": (self_s("sampling.rejection_sample_two_balls"), "s"),
        "sampling.proposals": (proposals, "count"),
        "sampling.accepted": (accepted, "count"),
        "sampling.accept_ratio": (accepted / proposals if proposals else 0.0, "ratio"),
        "sets.outer_radius.calls": (calls("sets.outer_radius"), "count"),
        "sets.outer_radius.self_s": (self_s("sets.outer_radius"), "s"),
        "sets.farthest_set.calls": (calls("sets.farthest_set"), "count"),
        "sets.farthest_set.self_s": (self_s("sets.farthest_set"), "s"),
        "sets.diameter.self_s": (self_s("sets.diameter"), "s"),
        "solver.chebyshev_center.calls": (calls("solver.chebyshev_center"), "count"),
        "solver.chebyshev_center.self_s": (self_s("solver.chebyshev_center"), "s"),
        "solver.iterations": (c["solver.iterations"], "count"),
        "solver.points": (points, "count"),
        "solver.active_ratio": (c["solver.achievers"] / points if points else 0.0, "ratio"),
        "solver.not_converged": (c["solver.not_converged"], "count"),
        "solver.symmetric_line_minimize.self_s": (self_s("solver.symmetric_line_minimize"), "s"),
        "ccf.estimate_r_tz.self_s": (self_s("ccf.estimate_r_tz"), "s"),
        "ccf.verify_ccf_witness.self_s": (self_s("ccf.verify_ccf_witness"), "s"),
        "ccf.ccnf_scan.worker_idle_s": (idle, "s"),
        "reproductions.self_s": (
            sum(v["self_s"] for k, v in summary.items() if k.startswith("reproductions.")), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.bytes_written": (wl.bytes_written(units), "bytes"),
        "trace.spans": (len(tracer), "count"),
        "trace.overhead.wall_s": (traced["wall_s"] - base["wall_s"], "s"),
        "trace.overhead.ops_per_s": (traced["ops_per_s"] - base["ops_per_s"], "1/s"),
        "trace.overhead.op_p50_ms": (traced["op_p50_ms"] - base["op_p50_ms"], "ms"),
        "trace.overhead.op_tail_ms": (traced["op_tail_ms"] - base["op_tail_ms"], "ms"),
    }


def _observe_eval_norm(counters, args, kwargs, result):
    counters["norms.eval_norm.rows"] += getattr(result, "size", 1)


def _observe_sampler(counters, args, kwargs, result):
    _, accepted, proposals = result
    counters["sampling.accepted"] += accepted
    counters["sampling.proposals"] += proposals


def _observe_center(counters, args, kwargs, result):
    A = args[0] if args else kwargs["A"]
    counters["solver.iterations"] += result.iterations
    counters["solver.points"] += len(A)
    counters["solver.achievers"] += len(result.achieving_indices)
    counters["solver.not_converged"] += not result.converged


OBSERVERS = {
    "norms.eval_norm": _observe_eval_norm,
    "sampling.rejection_sample_two_balls": _observe_sampler,
    "solver.chebyshev_center": _observe_center,
}


def git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, wl) -> dict:
    import numpy
    import scipy

    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(),
        "seed": args.seed,
        "workload": args.workload,
        "CCFLAB_THREADS": wl.threads,
    }


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", default=str(ROOT / ".bench_out" / "results.jsonl"),
                   help="JSONL file that each run appends its record to")
    p.add_argument("--spans", default=None,
                   help="gzip'd CSV for the traced run's spans (default: next to --results)")
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        set_up(args.workload, args.seed, args.tiny)
        return 0

    import_program()  # fail before any timing if the sources are missing
    cpus = pin_single_caller(workloads.threads_for(args.workload))
    probes = not args.trace
    setup_times = fresh_setup_seconds(args, 1 if args.tiny else SETUP_PROBES_BEFORE) if probes else []
    ccflab, wl = set_up(args.workload, args.seed, args.tiny)

    if args.trace:
        # Half as long untraced, from one unit up, then the same units traced,
        # so that a traced run ends in about the time of an untraced one.  The
        # traced replay must reproduce the untraced outputs byte for byte.
        units, wall = measure(wl, seconds=args.seconds / 2, min_units=1)
    else:
        units, wall = measure(wl, seconds=args.seconds)
    # Read before the checks, whose oracle and re-scans are not measured.
    peak_rss = peak_rss_mb()
    if probes and not args.tiny:
        setup_times += fresh_setup_seconds(args, SETUP_PROBES_AFTER)
    report = wl.check(units)
    if args.trace:
        base = loop_stats(units, wall)
        tracer = Tracer(ccflab, OBSERVERS)
        tracer.install()
        try:
            traced_units, traced_wall = measure(wl, units=len(units))
        finally:
            tracer.uninstall()
        for u, (a, b) in enumerate(zip(units, traced_units)):
            report.fail("trace.outputs_differ", [("traced", u, i) for i in range(wl.differing_ops(a, b))])
        metrics = layer_metrics(tracer, wl, traced_units, traced_wall, base)
        attempted = base["attempted"] + sum(u.attempted for u in traced_units)
        info = dict(base, traced_wall_s=traced_wall)
        spans = Path(args.spans or Path(args.results).parent / f"spans-{args.workload}-seed{args.seed}.csv.gz")
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans)
        info["spans_file"] = str(spans)
        print_metrics(f"{args.workload} (traced): {len(traced_units)} units replayed", metrics)
        print(f"  spans written to {spans}")
    else:
        metrics, info = end_to_end(units, wall, report, setup_times, peak_rss)
        attempted = info["attempted"]
        print_metrics(
            f"{args.workload}: {info['ops']} operations in {len(units)} units, {wall:.2f} s, "
            f"CCFLAB_THREADS={wl.threads}",
            metrics,
        )
        per = "operation" if info["latency_samples"] == info["ops"] else f"request (its median over {len(units)} passes)"
        print(f"  op_tail_ms is the p{info['tail_percentile']:.1f} latency: {TAIL_BEYOND} of "
              f"{info['latency_samples']} latency samples, one per {per}, lie beyond it")
        print(f"  error_rate {info['error_rate']:.6g} ({info['failed']} of {attempted} operations failed)")
    failed = len(report.failed_ops)
    print("failed checks: " + (", ".join(f"{k} ({v})" for k, v in sorted(report.by_name.items())) or "none"))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "units": len(units),
        "attempted": attempted,
        "failed": failed,
        "failed_checks": dict(report.by_name),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
        "env": dict(environment(args, wl), cpu_affinity=cpus),
    }
    results = Path(args.results)
    results.parent.mkdir(parents=True, exist_ok=True)
    with results.open("a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
