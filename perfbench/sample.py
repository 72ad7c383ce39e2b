"""One benchmark sample: a fresh interpreter that runs every invocation of a
workload through ``markedgc.cli.main`` and checks each output.

Run by ``run.py``; prints one JSON object on its standard output.

    python3 perfbench/sample.py --workload W --seed S --sample K [--trace] [--setup-only]

``ready_s`` is the CLOCK_MONOTONIC reading once the interpreter is up,
``markedgc.cli`` is imported and the temp cache directory exists; the
parent subtracts its own reading from before the spawn to get set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = HERE / "work"
RESULTS_DIR = HERE / "results"

sys.path.insert(0, str(SRC))
import markedgc.cli  # noqa: E402
import markedgc.graphs  # noqa: E402

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def run_invocation(argv: list[str]):
    """Exit code (or a description of what escaped ``main``) and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = markedgc.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - reported as a failure
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sample", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    ready_s = time.monotonic()
    try:
        if args.setup_only:
            result = {"ready_s": ready_s}
        else:
            result = _sample(args, cache_dir)
            result["ready_s"] = ready_s
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _sample(args, cache_dir: str) -> dict:
    problems = []
    if not Path(markedgc.cli.__file__).resolve().is_relative_to(SRC):
        problems.append(f"markedgc imported from {markedgc.cli.__file__}, not {SRC}")
    if len(markedgc.graphs._class_cache) != 0:
        problems.append("class cache not empty before the first invocation")
    if os.listdir(cache_dir):
        problems.append("cache directory not empty before the first invocation")

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    invocations = workloads.invocations(args.workload, args.seed)
    runs = []
    first = time.perf_counter()
    for invocation in invocations:
        argv = [cache_dir if word == workloads.CACHE else word for word in invocation]
        runs.append(run_invocation(argv))
    wall_s = time.perf_counter() - first

    usage = resource.getrusage(resource.RUSAGE_SELF)
    golden = workloads.load_golden(args.workload)
    failures = {}
    for invocation, (code, text) in zip(invocations, runs):
        key = workloads.key(invocation)
        reason = workloads.check(golden, key, code, text)
        if reason is not None:
            failures[key] = reason

    result = {
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "attempted": len(invocations),
        "failures": failures,
        "problems": problems,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(len(markedgc.graphs._class_cache))
        tracer.write_spans(
            RESULTS_DIR / f"spans-{args.workload}-seed{args.seed}-sample{args.sample}.tsv.gz",
            args.workload,
            args.sample,
        )
    return result


if __name__ == "__main__":
    sys.exit(main())
