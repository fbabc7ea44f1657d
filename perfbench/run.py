"""genuskit benchmark: seeded workloads, end-to-end metrics, per-layer trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 36 --trace 0

Each pass runs the workload's whole query list once in a fresh worker
process (``worker.py``), so caches start cold as for every CLI invocation.
Passes repeat until ``--seconds`` is used up.  Every answer is checked
against ``oracle.py``, which runs here, outside the timed passes.

With ``--trace 0`` the last stdout line reports the end-to-end metrics,
each the median over the passes; ``setup_s`` also takes the set-up-only
workers that follow each pass.  With ``--trace 1`` untraced and traced
passes alternate, and the line reports the per-layer metrics of
``tracing.py``.  Lines before it state the environment, the pass and
sample counts, the query latency percentiles and the failure rate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
MIN_PASSES = 3
# set-up-only workers after each untraced pass: set-up is short and noisy,
# so a median over more samples keeps setup_s steady at little cost
SETUP_PROBES = 2
WORKER_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "batch_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# a latency percentile is printed only with at least this many samples
# beyond it: p50 from 20 queries, p90 from 100
TAIL_SAMPLES = 10


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def load_program():
    """Import genuskit from the checkout's sources, or stop with status 2."""
    if not (ROOT / "src" / "genuskit" / "__init__.py").is_file():
        print(f"error: no genuskit sources under {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import genuskit
    import numpy

    return genuskit, numpy


def run_worker(workload: str, seed: int, mode: str, workdir: Path) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode,
           str(workdir)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker exited with status {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, pattern, workdir: Path,
               min_rounds: int) -> list[tuple[str, dict]]:
    """Repeat ``pattern`` (worker modes of one round) at least ``min_rounds``
    times, and then while another round as slow as the slowest so far
    still fits in ``seconds``."""
    passes: list[tuple[str, dict]] = []
    rounds: list[float] = []
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for mode in pattern:
            passes.append((mode, run_worker(workload, seed, mode, workdir)))
        rounds.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - started
        if len(rounds) >= min_rounds and elapsed + max(rounds) > seconds:
            return passes


def count_failures(queries, expected, answers) -> int:
    return sum(not oracle.accepts(q, e, a) for q, e, a in zip(queries, expected, answers))


def query_latencies(passes: list[dict]) -> list[float]:
    """One latency per query: its median over the passes."""
    return [statistics.median(ts) for ts in zip(*(p["latencies"] for p in passes))]


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    return {
        "batch_s": statistics.median(p["batch_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setups),
    }


def latency_line(latencies: list[float]) -> str:
    """Query latency percentiles that have enough samples beyond them."""
    n = len(latencies)
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    shown = [
        f"p{10 * k} {deciles[k - 1] * 1000:.3f} ms ({n - n * k // 10} beyond)"
        for k in (5, 9)
        if n - n * k // 10 >= TAIL_SAMPLES
    ]
    return f"query latency over {n} queries: {'; '.join(shown) or 'too few queries for a percentile'}"


def per_layer(traced: list[dict], untraced: list[dict], counts: dict) -> tuple[dict, bool]:
    values, steady = tracing.combine([tracing.pass_metrics(p["spans"]) for p in traced])
    values["orders.subring_elems"] = counts["subring_elems"]
    values["orders.unit_elems"] = counts["unit_elems"]
    values["trace.overhead_s"] = (
        statistics.median(p["batch_s"] for p in traced)
        - statistics.median(p["batch_s"] for p in untraced)
    )
    return values, steady


def _stop(signum, frame):
    # unwinding lets subprocess.run kill and reap the running worker
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    args = parse_args(argv)
    genuskit, numpy = load_program()
    data = workloads.build(args.workload, args.seed)
    queries = data["queries"]
    expected, counts = oracle.expected_answers(data)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    pattern = ("run", "trace") if args.trace else ("run",) + ("setup",) * SETUP_PROBES
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, pattern, workdir,
                            min_rounds=1 if args.trace else MIN_PASSES)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [p for mode, p in passes if mode == "run"]
    traced = [p for mode, p in passes if mode == "trace"]
    failed = sum(count_failures(queries, expected, p["answers"]) for p in untraced + traced)
    attempted = len(queries) * len(untraced + traced)
    correct = failed == 0

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"environment: python {platform.python_version()}, numpy {numpy.__version__}, "
          f"genuskit {genuskit.__version__}, nproc {cpus}")
    print(f"workload {args.workload}: seed {args.seed}, {len(queries)} queries per pass, "
          f"shapes {', '.join(workloads.shape_list(args.workload))}")
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"failure_rate {failed}/{attempted} = {failed / attempted:.4f}")

    if args.trace:
        values, steady = per_layer(traced, untraced, counts)
        correct &= steady
        last = traced[-1]
        trace_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(last["spans"]), encoding="utf-8")
        sums = tracing.pass_metrics(last["spans"])
        print(f"trace: {len(last['spans'])} spans in {trace_file.name}; layer self "
              f"times sum to {sums['layers.self_sum_s']:.6f} s of "
              f"{sums['layers.root_s']:.6f} s in root spans; exact counts "
              f"{'repeat' if steady else 'DIFFER'} across traced passes")
        metrics = {name: {"value": float(values[name]) if unit == "s" else values[name],
                          "unit": unit}
                   for name, unit in tracing.UNITS.items()}
    else:
        setups = [p["setup_s"] for mode, p in passes]
        values = end_to_end(untraced, setups)
        print(f"set-up samples: {len(setups)}")
        print(latency_line(query_latencies(untraced)))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
