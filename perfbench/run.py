"""Benchmark runner for markedgc.

    python3 perfbench/run.py --workload {homology,grid-cores,smoke,all}
                             --seed N --seconds S --trace {0,1}

Closed loop, one client per CPU (up to ``CLIENTS``), each pinned to its
CPU: a client's samples run one after another, each in a fresh
interpreter (``sample.py``) that runs all of the workload's invocations
through ``markedgc.cli.main`` and checks every output against the golden
JSON.  A fresh process per sample matters: ``graphs._class_cache`` is
process-global and only grows, so repeating invocations in one process
would time a warm program that no user runs.  New samples start while the
run can still be expected to fit one more within ``--seconds``; there is
always at least one.

``--trace 0`` reports the end-to-end metrics (medians over the samples).
``--trace 1`` runs untraced and traced samples side by side and reports
the per-layer metrics of the traced ones, the tracing overhead, and the
layer-coverage self-check.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full record, with the environment and every sample, goes to
``perfbench/results/``.  Exit code 0 when every output is correct, 1 when
one is not, 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS_DIR = HERE / "results"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK_WORKLOADS = ("homology", "grid-cores")
# Set-up is short and noisy, so before each of its samples an untraced run
# makes set-up-only probes, spreading the set-up readings over the whole
# run, and reports their median.
SETUP_PROBES_PER_SAMPLE = 2
# The host slows each CPU in phases of seconds, partly independently, so
# one client runs on each of this many CPUs at once (see _collect).
CLIENTS = 2
# A run must end within 180 s; no sample may push it past this.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class SampleError(RuntimeError):
    """A sample process could not run or report (not a wrong output)."""


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    return {**tracing.metric_units(), "trace.overhead_s": "s"}


def _spawn(workload: str, seed: int, sample: int, deadline: float,
           trace: bool = False, setup_only: bool = False, cpu: int | None = None) -> dict:
    """Run one sample process, pinned to ``cpu`` when given, and return its
    result.  The process has ended when this returns or raises."""
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", workload,
           "--seed", str(seed), f"--sample={sample}"]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        if cpu is not None:
            os.sched_setaffinity(proc.pid, {cpu})
        out, _ = proc.communicate(timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"sample {sample} of {workload} timed out") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError(
            f"sample {sample} of {workload} exited with {proc.returncode}"
        )
    result = json.loads(lines[-1])
    result["setup_s"] = result.pop("ready_s") - started
    return result


def _client(workload: str, seed: int, seconds: int, trace: bool,
            client: int, cpus: list[int], start: float):
    """One client's closed loop on ``cpus[client]``: run samples while
    another is expected to end within ``seconds`` of ``start``, taking the
    median time of this client's samples so far as the next one's.

    In an untraced run, set-up-only probes come before each sample.  In a
    traced run with one CPU the client alternates untraced and traced
    samples; with more, odd clients run the traced ones.  Returns
    (untraced samples, traced samples, set-up readings).
    """
    deadline = start + RUN_LIMIT_S
    cpu = cpus[client]
    if not trace:
        kinds = (False,)
    elif len(cpus) == 1:
        kinds = (False, True)
    else:
        kinds = (client % 2 == 1,)
    plain, traced, setups, took = [], [], [], []
    while True:
        begun = time.monotonic()
        for is_traced in kinds:
            sample = client + len(cpus) * (len(plain) + len(traced))
            if not trace:
                setups += [
                    _spawn(workload, seed, -1, deadline, setup_only=True, cpu=cpu)["setup_s"]
                    for _ in range(SETUP_PROBES_PER_SAMPLE)
                ]
            result = _spawn(workload, seed, sample, deadline, trace=is_traced, cpu=cpu)
            (traced if is_traced else plain).append(result)
        took.append(time.monotonic() - begun)
        if time.monotonic() - start + statistics.median(took) > seconds:
            return plain, traced, setups


def _collect(workload: str, seed: int, seconds: int, trace: bool):
    """Run one client per CPU, up to ``CLIENTS``, at once.

    Returns (untraced samples, traced samples, set-up readings)."""
    start = time.monotonic()
    cpus = sorted(os.sched_getaffinity(0))[:CLIENTS]
    with ThreadPoolExecutor(len(cpus)) as pool:
        futures = [
            pool.submit(_client, workload, seed, seconds, trace, client, cpus, start)
            for client in range(len(cpus))
        ]
        parts = [future.result() for future in futures]
    plain = [s for part in parts for s in part[0]]
    traced = [s for part in parts for s in part[1]]
    setups = [r for part in parts for r in part[2]]
    setups += [s["setup_s"] for s in plain + traced]
    return plain, traced, setups


def _median(samples: list[dict], field: str) -> float:
    return statistics.median(s[field] for s in samples)


def coverage_violations(workload: str, layers: dict[str, float]) -> list[str]:
    """Layers whose call counts break the workload's prediction."""
    exercised = workloads.EXERCISES[workload]
    found = []
    for name in tracing.LAYER_NAMES:
        calls = layers[f"{name}.calls"]
        if name in exercised and calls == 0:
            found.append(f"{name} predicted called, but never called")
        elif name not in exercised and calls:
            found.append(f"{name} predicted bypassed, but called {calls} times")
    return found


def _layer_metrics(traced: list[dict], plain: list[dict]) -> dict[str, float]:
    metrics = {
        name: statistics.median(s["layers"][name] for s in traced)
        for name in tracing.metric_units()
    }
    metrics["trace.overhead_s"] = _median(traced, "wall_s") - _median(plain, "wall_s")
    return metrics


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": os.getloadavg(),
        "seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run of one workload: the result object plus its record."""
    env = environment(seed)
    plain, traced, setups = _collect(workload, seed, seconds, trace)
    everything = plain + traced
    attempted = sum(s["attempted"] for s in everything)
    failures = [
        f"sample {i}: {key}: {reason}"
        for i, s in enumerate(everything)
        for key, reason in sorted(s["failures"].items())
    ]
    failures += [p for s in everything for p in s["problems"]]
    failed = sum(len(s["failures"]) for s in everything)
    if trace:
        metrics = _layer_metrics(traced, plain)
        units = per_layer_units()
        for s in traced:
            failures += [f"coverage: {v}" for v in coverage_violations(workload, s["layers"])]
    else:
        metrics = {
            "wall_s": _median(plain, "wall_s"),
            "cpu_s": _median(plain, "cpu_s"),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": _median(plain, "peak_rss_mb"),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    env.update({
        "clients": min(CLIENTS, env["nproc"]),
        "samples": len(plain),
        "traced_samples": len(traced),
        "setup_readings": len(setups),
        "trace_overhead_s": metrics.get("trace.overhead_s"),
    })
    record = {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "environment": env,
        "invocations": [workloads.key(i) for i in workloads.invocations(workload, seed)],
        "failures": failures,
        "result": result,
        "samples": plain,
        "traced_samples": traced,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return record


def _summary(record: dict) -> list[str]:
    result, env = record["result"], record["environment"]
    n = env["traced_samples"] if record["trace"] else env["samples"]
    lines = [
        f"{record['workload']}: seed {env['seed']}, {env['clients']} clients, "
        f"{env['samples']} untraced and {env['traced_samples']} traced samples, "
        f"git {env['git_sha'][:12]}, "
        f"python {env['python']}, nproc {env['nproc']}, {env['cpu_model']}, "
        f"load {env['loadavg_at_start'][0]:.2f}"
    ]
    for name, m in result["metrics"].items():
        count = env["setup_readings"] if name == "setup_s" else n
        lines.append(f"  {name:<46} {m['value']:>14.6g} {m['unit']:<6} median of {count}")
    ratio = result["failed"] / result["attempted"]
    lines.append(
        f"  {'failed_ratio':<46} {ratio:>14.6g} {'ratio':<6} "
        f"{result['failed']} of {result['attempted']} invocations"
    )
    lines += [f"  FAILED {f}" for f in record["failures"]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=sorted(workloads.WORKLOADS) + ["all"],
        help="a workload, or 'all' for every benchmark workload in turn",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "markedgc" / "cli.py").is_file():
        print(f"error: no markedgc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = BENCHMARK_WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [
            run_workload(name, args.seed, args.seconds, bool(args.trace))
            for name in names
        ]
    except SampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for record in records:
        print("\n".join(_summary(record)))
    if len(records) == 1:
        result = records[0]["result"]
    else:
        result = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {
                f"{r['workload']}.{name}": m
                for r in records
                for name, m in r["result"]["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
