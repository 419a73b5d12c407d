#!/usr/bin/env python3
"""flarevt benchmark: one workload per invocation, measured from outside the program.

Run from the repository root:

    python3 perfbench/run.py --workload archive_csv_5y --seed 7 --seconds 20 --trace 0

The workloads and metrics are listed in BENCHMARK.json at the root.  Each
invocation starts two fresh single-threaded processes, one after the
other: the set-up process generates the inputs from ``--seed`` (several
times, to time it) and the measuring process loads them and runs timed
passes for ``--seconds``.  The program is imported from ``src/`` of the
current directory and nowhere else.

``--trace 0`` prints the end-to-end metrics.  The gated time, ``wall_ref``,
is the pass time over the time of a reference block of the same kind of
work, timed between and inside the passes (see workloads.py).
``--trace 1`` runs one untraced and one traced pass and prints the
per-layer metrics; the spans go to ``.perfbench/spans/``.  Every line but
the last is for people; the last is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every correctness check passed and no operation failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
CACHE = WORK / "cache"
DEADLINE_S = 175.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# printed beside the end-to-end metrics, but not in the result line
EXTRA_UNITS = {"wall_s": "s", "ref_ms": "ms", "replicate_ms_p50": "ms",
               "replicate_ms_tail": "ms"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def seed_arg(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return seed


def parse_args(argv, bench: dict):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=seed_arg, default=7)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "setup", "measure"), default="main",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def cache_dir(args) -> Path:
    return CACHE / f"{args.workload}-seed{args.seed}"


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def import_program():
    """Import flarevt from ./src, refusing any other copy."""
    import flarevt
    src = (ROOT / "src").resolve()
    if src not in Path(flarevt.__file__).resolve().parents:
        raise BenchError(f"flarevt was imported from {flarevt.__file__}, not {src}")
    return flarevt


def setup_role(args) -> dict:
    """Generate the inputs; time each generation when setup_s is reported."""
    import_program()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    final = cache_dir(args)
    if args.trace and final.is_dir():
        return {"setup_s": []}
    tmp = final.with_name(final.name + ".tmp")
    times = []
    for _ in range(1 if args.trace else workload.setup_repeats):
        _remove(tmp)
        tmp.mkdir(parents=True)
        t0 = time.perf_counter()
        workload.setup(args.seed, tmp)
        times.append(time.perf_counter() - t0)
    _remove(final)
    tmp.rename(final)
    # keep one seed per workload on disk
    for other in CACHE.glob(f"{args.workload}-seed*"):
        if other != final:
            _remove(other)
    return {"setup_s": times}


def _remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def machine(flarevt) -> dict:
    import numpy
    import scipy
    try:
        from flarevt import _kernels
        backend = _kernels.backend()
    except (ImportError, AttributeError):
        backend = "absent"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "flarevt": flarevt.__version__,
            "kernel_backend": backend}


def measure_role(args) -> dict:
    """Load the inputs and run timed passes (or one untraced and one traced)."""
    flarevt = import_program()
    from flarevt import pipeline
    from tracing import (PIPELINE_NAMES, Tracer, layer_metrics, plain_call, self_times,
                         unmeasured)
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    state = workload.load(cache_dir(args))
    workload.warm_up(state)
    workload.reference(state)

    passes, errors = [], []

    def run(call, pause=None):
        try:
            passes.append(workload.run_pass(state, call, pause))
        except Exception as exc:  # a failed pass is counted, not fatal
            errors.append(f"{type(exc).__name__}: {exc}")

    ref_s = []

    def reference_block():
        t0 = time.perf_counter()
        workload.reference(state)
        ref_s.append(time.perf_counter() - t0)

    def reference():
        for _ in range(workload.ref_blocks):
            reference_block()

    result = {"machine": machine(flarevt)}
    if not args.trace:
        # reference blocks before the first pass, after each and, where the
        # workload pauses, inside it; stop before a pass and its blocks
        # would run past --seconds
        start = time.perf_counter()
        reference()
        while True:
            run(plain_call, reference_block)
            reference()
            done = len(passes) + len(errors)
            elapsed = time.perf_counter() - start
            if done >= workload.min_passes and elapsed * (done + 1) / done > args.seconds:
                break
    else:
        run(plain_call)
        tracer = Tracer()
        with tracer.patched(pipeline, PIPELINE_NAMES) as missing:
            run(tracer.call)
        if len(passes) == 2:
            probe = workload.memory_probe(state)
            overhead = passes[1].wall_s - passes[0].wall_s
            result["trace"] = {
                "metrics": layer_metrics(tracer.spans, probe, workload.artifacts(state),
                                         overhead),
                "unmeasured": unmeasured(tracer.spans, workload.expected_spans, probe),
                "missing_names": missing,
                "self_s": self_times(tracer.spans),
                "untraced_wall_s": passes[0].wall_s,
                "traced_wall_s": passes[1].wall_s,
            }
            spans_file = WORK / "spans" / f"{args.workload}-seed{args.seed}.json"
            spans_file.parent.mkdir(parents=True, exist_ok=True)
            spans_file.write_text(json.dumps([s.to_json() for s in tracer.spans]))
            result["trace"]["spans_file"] = str(spans_file.relative_to(ROOT))

    checks = []
    if passes and not errors:
        checks = [(name, bool(ok), detail) for name, ok, detail
                  in workload.checks(state, [p.outcome for p in passes])]
    result.update({
        "wall_s": [p.wall_s for p in passes],
        "ref_s": ref_s,
        "op_s": [p.op_s for p in passes],
        "failed_ops": sum(p.failed for p in passes) + len(errors),
        "ops": sum(len(p.op_s) for p in passes) + len(errors),
        "errors": errors,
        "checks": checks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return result


# ---------------------------------------------------------------------------
# the parent: start the children one at a time, then report
# ---------------------------------------------------------------------------

def run_child(role: str, args, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"the {role} process ran past the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"the {role} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of values at or below it."""
    ordered = sorted(values)
    rank = math.ceil(round(p * len(ordered) / 100.0, 9)) - 1
    return ordered[min(max(rank, 0), len(ordered) - 1)]


def tail_percentile(n: int) -> float:
    """Highest of p99.9/p99/p90 with at least ten samples beyond it, else 100."""
    for p in (99.9, 99.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10.0:
            return p
    return 100.0


def latency_tail(op_s) -> tuple[float, float, int]:
    """(tail latency in ms, its percentile, samples it is read from).

    Where a pass holds enough operations for a percentile with ten beyond
    it, the tail is that percentile of each pass, and the median over
    passes, so that it does not depend on how many passes fit in a run.
    Otherwise it is read from all operations of the run.
    """
    per_pass = min(len(ops) for ops in op_s)
    p = tail_percentile(per_pass)
    if p < 100.0:
        return statistics.median(percentile(ops, p) for ops in op_s) * 1e3, p, per_pass
    pooled = [x for ops in op_s for x in ops]
    p = tail_percentile(len(pooled))
    return percentile(pooled, p) * 1e3, p, len(pooled)


def end_to_end(setup: dict, meas: dict) -> tuple[dict, dict]:
    """The end-to-end metrics, and the notes printed beside them.

    ``wall_ref`` is the mean pass over the mean reference block of the same
    run; on a shared host it holds still while ``wall_s`` follows the host.
    Where a pass holds many operations (the replicates of mc_fit_study),
    their median and tail latency are added.  Only the metrics
    BENCHMARK.json lists go into the result line.
    """
    op_s = meas["op_s"]
    wall_s = statistics.median(meas["wall_s"])
    ref_s = statistics.median(meas["ref_s"])
    metrics = {
        "wall_ref": statistics.fmean(meas["wall_s"]) / statistics.fmean(meas["ref_s"]),
        "peak_rss_mb": meas["peak_rss_mb"],
        "setup_s": statistics.median(setup["setup_s"]),
        "wall_s": wall_s,
        "ref_ms": ref_s * 1e3,
    }
    notes = {
        "wall_ref": "mean pass / mean reference block of this run",
        "peak_rss_mb": "ru_maxrss of the measuring process",
        "setup_s": f"median of {len(setup['setup_s'])} set-ups",
        "wall_s": f"median of {len(op_s)} passes",
        "ref_ms": f"median of {len(meas['ref_s'])} reference blocks",
    }
    if min(len(ops) for ops in op_s) > 1:
        n_ops = sum(len(ops) for ops in op_s)
        tail_ms, tail_p, tail_n = latency_tail(op_s)
        # like the tail, a statistic of each pass, so passes of the same size compare
        metrics["replicate_ms_p50"] = statistics.median(
            statistics.median(ops) for ops in op_s) * 1e3
        metrics["replicate_ms_tail"] = tail_ms
        notes["replicate_ms_p50"] = (f"median of each pass, median over {len(op_s)} "
                                     f"passes ({n_ops} operations)")
        notes["replicate_ms_tail"] = (f"p{tail_p:g} of {tail_n} operations"
                                      + (" per pass, median over passes"
                                         if tail_n < n_ops else ""))
    return metrics, notes


def main_role(args, bench: dict) -> int:
    if not (ROOT / "src" / "flarevt" / "__init__.py").is_file():
        raise BenchError("run from the repository root: src/flarevt is missing")
    deadline = time.monotonic() + DEADLINE_S
    setup = run_child("setup", args, deadline)
    meas = run_child("measure", args, deadline)
    if not meas["wall_s"]:
        raise BenchError("no pass completed: " + "; ".join(meas["errors"]))

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in meas["machine"].items()))
    failed_checks = sum(1 for _, ok, _ in meas["checks"] if not ok)
    # checks are skipped after a failed pass; that counts as one failed check
    attempted = meas["ops"] + max(len(meas["checks"]), 1)
    failed = meas["failed_ops"] + failed_checks + (0 if meas["checks"] else 1)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    if args.trace:
        trace = meas.get("trace")
        if trace is None:
            raise BenchError("the traced pass failed: " + "; ".join(meas["errors"]))
        metrics, notes = trace["metrics"], {}
        for name in trace["unmeasured"]:
            metrics.pop(name, None)
        print(f"tracing overhead: {trace['traced_wall_s'] - trace['untraced_wall_s']:+.4f} s"
              f" (traced {trace['traced_wall_s']:.4f} s, untraced "
              f"{trace['untraced_wall_s']:.4f} s); spans in {trace['spans_file']}")
        print("self time by layer: " + ", ".join(
            f"{layer} {seconds:.4f} s" for layer, seconds in trace["self_s"].items()))
        for name in trace["missing_names"]:
            print(f"UNMEASURED: flarevt.pipeline has no '{name}' to trace")
    else:
        metrics, notes = end_to_end(setup, meas)
    units = {e["name"]: e["unit"] for e in wanted}
    if not args.trace:
        units.update({name: unit for name, unit in EXTRA_UNITS.items() if name in metrics})
    for name, unit in units.items():
        value = metrics.get(name)
        shown = "unmeasured" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:26s} {shown:22s} {notes.get(name, '')}")
    print(f"  {'failed_share':26s} {f'{failed / attempted:.6g} ratio':22s} "
          f"{failed} failed of {attempted} attempted")
    for error in meas["errors"]:
        print(f"FAILED pass: {error}")
    for name, ok, detail in meas["checks"]:
        print(f"check {'ok' if ok else 'FAILED'}: {name} ({detail})")

    absent = [e["name"] for e in wanted if e["name"] not in metrics]
    if absent:
        raise BenchError("no value for " + ", ".join(absent))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": meas["machine"], "metrics": metrics, "notes": notes,
              "failed": failed, "attempted": attempted, "checks": meas["checks"],
              "errors": meas["errors"]}
    results = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=2) + "\n")

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {e["name"]: {"value": metrics[e["name"]],
                                              "unit": e["unit"]} for e in wanted}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    bench_file = ROOT / "BENCHMARK.json"
    try:
        bench = json.loads(bench_file.read_text(encoding="utf-8"))
    except OSError:
        print(f"perfbench: no {bench_file.name} here; run from the repository root",
              file=sys.stderr)
        return 2
    args = parse_args(argv, bench)
    try:
        if args.role == "main":
            return main_role(args, bench)
        result = setup_role(args) if args.role == "setup" else measure_role(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
