"""One pass of one workload in a fresh interpreter, so caches start cold.

Usage: python3 perfbench/worker.py <workload> <seed> <mode> <workdir>

``mode`` is ``run`` for a pass, ``trace`` for a traced pass, or ``setup``
to stop after the set-up, which gives one more set-up sample for little
time.  Prints one JSON object: set-up time and, for a pass, the batch
wall time, per-query latencies, the answers, peak RSS and, when traced,
the spans.  The answers are checked by the parent process, outside the
timed pass.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import genuskit  # noqa: E402
import genuskit.cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _setup(workload: str, seed: int, workdir: Path) -> list:
    """Build the inputs: spec files for CLI queries, OrderSpecs otherwise."""
    data = workloads.build(workload, seed)
    calls = []
    if workload == "catalog":
        workdir.mkdir(parents=True, exist_ok=True)
        paths = []
        for idx, spec in enumerate(data["specs"]):
            path = workdir / f"spec-{idx:03d}.json"
            path.write_text(json.dumps(spec), encoding="utf-8")
            paths.append(str(path))
        for q in data["queries"]:
            argv = list(q["argv"])
            if q["spec"] is not None:
                argv.append(paths[q["spec"]])
            calls.append(argv + ["--json"])
    else:
        specs = [genuskit.order_spec_from_dict(s) for s in data["specs"]]
        calls = [specs[q["spec"]] for q in data["queries"]]
    return calls


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = genuskit.cli.main(argv)
    return status, out.getvalue()


def run_pass(workload: str, seed: int, trace: bool, workdir: Path) -> dict:
    calls = _setup(workload, seed, workdir)
    setup_s = time.perf_counter() - _STARTED
    tracer = tracing.Tracer()
    if trace:
        tracer.install()
    latencies, raw = [], []
    first = time.perf_counter()
    for idx, call in enumerate(calls):
        tracer.query = idx
        start = time.perf_counter()
        try:
            if workload == "catalog":
                outcome = _run_cli(call)
            else:
                # looked up on every call so that a traced pass sees the wrapper
                outcome = genuskit.genus(call)
        except Exception as exc:  # a failed query is counted, not fatal
            outcome = exc
        latencies.append(time.perf_counter() - start)
        raw.append(outcome)
    batch_s = time.perf_counter() - first
    tracer.uninstall()
    answers = [_answer(workload, outcome) for outcome in raw]
    return {
        "setup_s": setup_s,
        "batch_s": batch_s,
        "latencies": latencies,
        "answers": answers,
        "peak_rss_mb": peak_rss_mb(),
        "spans": tracer.spans,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB.

    Linux folds the spawning parent's memory into ``ru_maxrss`` across
    fork and exec, so a worker started by a large parent would report the
    parent's peak.  VmHWM counts this process's own address space only.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _answer(workload: str, outcome) -> dict:
    if isinstance(outcome, Exception):
        return {"error": f"{type(outcome).__name__}: {outcome}"}
    if workload == "catalog":
        status, text = outcome
        try:
            result = json.loads(text)["result"] if status == 0 else None
        except (ValueError, KeyError) as exc:
            return {"error": f"unparsable output: {exc}"}
        return {"status": status, "result": result}
    return {"status": 0, "result": {"total": outcome.total,
                                    "relative": outcome.relative_count,
                                    "bound": outcome.bound}}


def main() -> None:
    workload, seed, mode, workdir = sys.argv[1:5]
    if mode == "setup":
        _setup(workload, int(seed), Path(workdir))
        result = {"setup_s": time.perf_counter() - _STARTED}
    else:
        result = run_pass(workload, int(seed), mode == "trace", Path(workdir))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
