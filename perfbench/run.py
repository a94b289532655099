"""graphpool benchmark: training, evaluation and loader throughput.

Usage (from the repository root):

    python3 perfbench/run.py --workload train-lcpool --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
separate traced run that reports the per-layer metrics.  The second-to-last
line of standard output is a JSON report (environment, fixture counts,
sample counts, error rate, per-model step times); the last line is the
result object ``{"correct", "attempted", "failed", "metrics"}``.  Metric
names and units must match ``BENCHMARK.json``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

sys.dont_write_bytecode = True

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(REPO_ROOT, "src")

# A claim measured on other seeds is confirmed on this seed, which is
# never used while a change is being written.
HELD_OUT_SEED = 7919
SETUP_REPEATS = 3


def _cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; numpy reads it on import."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def _environment(nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "machine": platform.machine(),
    }


def _declared_metrics() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SOURCE, "graphpool", "__init__.py")):
        print(f"graphpool sources not found under {SOURCE}", file=sys.stderr)
        return 2
    nproc = _cap_blas_threads()
    sys.path.insert(0, SOURCE)
    import graphpool

    if os.path.dirname(os.path.dirname(os.path.abspath(graphpool.__file__))) != SOURCE:
        print(f"imported graphpool from {graphpool.__file__}, not {SOURCE}", file=sys.stderr)
        return 2
    import measure
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = workloads.WORKLOADS[args.workload]
    declared = _declared_metrics()[args.trace]

    out_dir = workloads.scratch_dir(REPO_ROOT)
    scratch = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    report = {"workload": workload.name, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
              "trace": args.trace, "environment": _environment(nproc)}
    try:
        setups = []
        for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
            t0 = time.perf_counter()
            state = workloads.setup(workload, args.seed, scratch)
            setups.append(time.perf_counter() - t0)
        report["fixture"] = vars(state.counts)
        gate = workloads.Samples()
        counters, entries = workloads.gate_probe(state, gate)
        if args.trace == 0:
            samples, metrics, detail = measure.untraced(state, args.seconds)
            metrics["setup_s"] = statistics.median(setups)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            out_path = os.path.join(out_dir, f"spans-{workload.name}-seed{args.seed}.json")
            samples, metrics, detail = measure.traced(state, args.seconds, out_path)
            detail["spans_file"] = os.path.relpath(out_path, REPO_ROOT)
            metrics.update(counters)
            metrics["diff.tape_entries"] = entries
        samples.attempted += gate.attempted
        samples.failures = gate.failures + samples.failures
        report["detail"] = detail
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        print(f"metrics disagree with BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        return 2
    failed = len(samples.failures)
    report["error_rate"] = failed / samples.attempted
    report["failures"] = samples.failures[:20]
    print(json.dumps(report))
    correct = failed == 0
    values = {k: {"value": metrics[k], "unit": declared[k]} for k in sorted(metrics)}
    result = {"correct": correct, "attempted": samples.attempted, "failed": failed,
              "metrics": values if correct else {}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
