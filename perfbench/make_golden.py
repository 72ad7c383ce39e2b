"""Regenerate the golden outputs in ``perfbench/golden/``.

    python3 perfbench/make_golden.py [WORKLOAD ...]

Runs each workload's invocations in their listed order and stores, per
invocation, its exit code and parsed JSON output.  The golden files are the
behaviour contract: regenerate them only for a deliberate change of output,
never to make a failing benchmark pass.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import sample
import workloads


def main(names: list[str]) -> int:
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    sample.WORK_DIR.mkdir(parents=True, exist_ok=True)
    for name in names or sorted(workloads.WORKLOADS):
        cache_dir = tempfile.mkdtemp(prefix=f"golden-{name}-", dir=sample.WORK_DIR)
        golden = {}
        try:
            for stage in workloads.WORKLOADS[name]:
                for invocation in stage:
                    argv = [cache_dir if w == workloads.CACHE else w for w in invocation]
                    code, text = sample.run_invocation(argv)
                    golden[workloads.key(invocation)] = {
                        "exit": code,
                        "output": json.loads(text),
                    }
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        path = workloads.GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"{path}: {len(golden)} invocations")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
