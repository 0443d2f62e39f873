"""mxspec benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 bench/run.py --workload sbm-sweep --seed 1 --seconds 25 --trace 0

Workloads: sbm-sweep, kway-sweep, cluster-large, cut-oracle (see
workloads.py and README.md).  The run sets up its inputs from --seed,
runs repetitions of the workload in one process for --seconds, checks
every op's output, and prints, before its last line, the environment and
the SHA-256 of the workload's reference outputs.  The last line is one
JSON object with keys correct, attempted, failed and metrics: with
--trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics
from spans (spans.py) and the tracing overhead.
"""

import os
import sys
import time

T_START = time.perf_counter()

# Pinned before numpy is imported and the same on every commit.  One
# thread: on a shared 2-core machine a second OpenBLAS thread that has
# to wait for a busy core made m = 200 eigensolves 30x slower.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

DEFAULT_SEED = 1
# never used while tuning the benchmark; a claimed gain must also hold here
HELD_OUT_SEED = 20170316

SETUP_REPEATS = 3
# each op is timed as the best of at least this many repetitions
MIN_REPS = 3
WORKLOAD_NAMES = ("sbm-sweep", "kway-sweep", "cluster-large", "cut-oracle")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; held out: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measure for at least this long (whole repetitions)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment(np, scipy) -> dict:
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _best_of(reps) -> tuple:
    """Per-op latency as the best over the repetitions, and the seconds per
    op that gives with the smallest time a repetition spent outside ops.

    A shared host has slow periods lasting seconds; the best of several
    repetitions of the same op measures the program, not those periods.
    """
    best = [min(times) for times in zip(*(rep.latencies for rep in reps))]
    outside = min(rep.busy - sum(rep.latencies) for rep in reps)
    return best, (sum(best) + outside) / len(best)


def _percentile_class(latencies, sizes, q) -> int:
    """Operator size m of the op at quantile q of the latency order."""
    order = sorted(range(len(latencies)), key=latencies.__getitem__)
    return sizes[order[round(q * (len(order) - 1))]]


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "mxspec" / "__init__.py").is_file():
        print(f"error: no mxspec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np
    import scipy

    import spans
    import workloads

    imports_s = time.perf_counter() - T_START
    clock = time.perf_counter
    workload = workloads.WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = clock()
            workload.setup(args.seed, workdir)
            setups.append(clock() - start)

        tracer = spans.Tracer() if args.trace else None
        reps = []  # (traced, RepResult)
        start = clock()
        # a traced run alternates untraced and traced repetitions, so the
        # tracing overhead is the difference between the two within one run
        while len(reps) < MIN_REPS or clock() - start < args.seconds:
            on = tracer is not None and len(reps) % 2 == 1
            with tracer.installed() if on else contextlib.nullcontext():
                reps.append((on, workload.rep(not reps, tracer if on else None)))
        wall = clock() - start
        hashes = {path.name: _sha256(path) for path in reps[0][1].files}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        tracer.check_kinds(workload.expected_kinds)
    reference = reps[0][1].outputs
    attempted = sum(len(rep.outputs) for _, rep in reps)
    failed = sum(out is None or out != ref
                 for _, rep in reps for out, ref in zip(rep.outputs, reference))
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetitions of "
          f"{len(reference)} ops in {wall:.2f} s, {attempted} ops attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.4f})")
    print(json.dumps({"env": _environment(np, scipy)}))
    print(json.dumps({"outputs_sha256": hashes}))

    if args.trace:
        traced = [rep for on, rep in reps if on]
        ops = sum(len(rep.latencies) for rep in traced)
        per_op = {"plain": _best_of([rep for on, rep in reps if not on])[1],
                  "traced": _best_of(traced)[1]}
        metrics = {name: _metric(value, unit)
                   for name, (value, unit) in tracer.layer_metrics(ops).items()}
        metrics["trace.overhead_pct"] = _metric(
            100.0 * (per_op["traced"] / per_op["plain"] - 1.0), "%")
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(trace_path)
        print(f"traced {ops} ops ({len(tracer.spans)} spans, written to {trace_path}); "
              f"best {per_op['traced'] * 1e3:.3f} ms/op traced vs "
              f"{per_op['plain'] * 1e3:.3f} ms/op untraced")
    else:
        best, per_op = _best_of([rep for _, rep in reps])
        sizes = reps[0][1].sizes
        counts = {m: sizes.count(m) for m in sorted(set(sizes))}
        print(f"{len(best)} ops, each timed as the best of {len(reps)} repetitions; "
              f"ops by operator size m: {counts}; "
              f"p50 lies among m={_percentile_class(best, sizes, 0.5)} ops, "
              f"p90 among m={_percentile_class(best, sizes, 0.9)} ops")
        metrics = {
            "setup_s": _metric(imports_s + statistics.median(setups), "s"),
            "ops_per_s": _metric(1.0 / per_op, "1/s"),
            "op_p50_ms": _metric(statistics.median(best) * 1e3, "ms"),
            "op_p90_ms": _metric(
                statistics.quantiles(best, n=10, method="inclusive")[8] * 1e3, "ms"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        }

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
