"""Write BENCH_<pr>.json: the end-to-end metrics of BENCHMARK.json for one
or more checkouts, each a median and quartiles over seeded benchmark runs.

Usage, from the root of a checkout:

    python3 tools/write_bench.py --pr 23 [CHECKOUT ...]

Each CHECKOUT (default: this repository) is a git checkout whose own
``perfbench/run.py --seconds 8 --trace 0`` is run for every workload on
the fixed seeds 1, 2 and 3 and the held-out seed 11, four times each.
The runs of all checkouts are interleaved, and the order of the checkouts
alternates from one (round, seed) to the next, so that drift in the
machine's load falls on every side alike.  Every run has
``PYTHONDONTWRITEBYTECODE=1`` and starts from no ``__pycache__``, as a
first run after a checkout does: a stale bytecode cache lowers
``setup_s``.  The fixed seeds and the held-out seed are summarised apart,
so that a gain can be checked on a seed it was not tuned on.  With two
checkouts, ``wins`` counts the pairs of runs, on the same seed in the same
round, in which the second checkout reads better than the first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 8  # --seconds of each perfbench run
ROUNDS = 4  # runs of each checkout per workload and seed
SEEDS = (1, 2, 3)
HELD_OUT = 11


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True,
                        help="number in the name of the file written")
    parser.add_argument("checkouts", nargs="*", type=Path, default=[ROOT])
    return parser.parse_args(argv)


def git_sha(checkout: Path) -> tuple[str, bool]:
    """The checkout's HEAD commit, and whether its tracked files differ from it."""
    def git(*cmd):
        return subprocess.run(["git", "-C", str(checkout), *cmd], check=True,
                              capture_output=True, text=True).stdout.strip()
    return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--untracked-files=no"))


def clear_bytecode(checkout: Path) -> None:
    for cache in checkout.rglob("__pycache__"):
        shutil.rmtree(cache)


def run_bench(checkout: Path, workload: str, seed: int) -> dict:
    """The result object that ``perfbench/run.py`` prints last."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    checkouts = [path.resolve() for path in args.checkouts]
    for checkout in checkouts:
        clear_bytecode(checkout)

    seeds = [*SEEDS, HELD_OUT]
    # runs[checkout][workload][seed] lists one result object per round
    runs = [{w: {s: [] for s in seeds} for w in workloads} for _ in checkouts]
    for rnd in range(ROUNDS):
        for i, seed in enumerate(seeds):
            order = list(range(len(checkouts)))
            if (rnd + i) % 2:
                order.reverse()
            for workload in workloads:
                for c in order:
                    result = run_bench(checkouts[c], workload, seed)
                    runs[c][workload][seed].append(result)
                    print(f"round {rnd} seed {seed} {workload} checkout {c}: "
                          + ", ".join(f"{name} {result['metrics'][name]['value']:.4g}"
                                      for name in metrics), flush=True)

    def values(c, workload, seed_set, name):
        return [r["metrics"][name]["value"]
                for s in seed_set for r in runs[c][workload][s]]

    groups = {"fixed": SEEDS, "held_out": [HELD_OUT]}
    out = {
        "pr": args.pr,
        "command": ("python3 perfbench/run.py --workload W --seed S "
                    f"--seconds {SECONDS} --trace 0"),
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "machine": platform.machine(),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
        "seeds": {"fixed": list(SEEDS), "held_out": HELD_OUT},
        "rounds": ROUNDS,
        "checkouts": [],
    }
    for c, checkout in enumerate(checkouts):
        sha, dirty = git_sha(checkout)
        entry = {"sha": sha, "uncommitted_changes": dirty, "workloads": {}}
        for workload in workloads:
            every = [r for s in seeds for r in runs[c][workload][s]]
            entry["workloads"][workload] = {
                "failed": sum(r["failed"] for r in every),
                "attempted": sum(r["attempted"] for r in every),
                "correct": all(r["correct"] for r in every),
                **{group: {name: summary(values(c, workload, seed_set, name))
                           for name in metrics}
                   for group, seed_set in groups.items()},
            }
        out["checkouts"].append(entry)
    if len(checkouts) == 2:
        out["wins"] = {
            workload: {
                group: {
                    name: {"second_better": sum(
                        (b < a) if better == "lower" else (b > a)
                        for a, b in zip(values(0, workload, seed_set, name),
                                        values(1, workload, seed_set, name))),
                           "pairs": len(values(0, workload, seed_set, name))}
                    for name, better in metrics.items()}
                for group, seed_set in groups.items()}
            for workload in workloads}
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
