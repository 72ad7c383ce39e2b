"""Run the mutation register, ``tests/mutations.json``.

Each entry names a file, an exact old text, the new text that replaces
it, and the tests that must fail once it does.  Every mutation is made
in a fresh temporary copy of ``src/`` and ``tests/``, and only its named
tests run there.  A named test kills the mutation when it fails or
errors (for a parametrized test, any one of its cases will do).

    python tests/mutate.py

The named tests first run once on the unmutated copy and must pass.
Exits 1 if one of them fails there, if a mutation's old text does not
occur exactly once in its file, or if a mutation survives one of its
named tests.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REGISTER = ROOT / "tests" / "mutations.json"


def run_tests(tree: Path, tests: list[str]) -> tuple[set[str], int, str]:
    """Run ``tests`` in ``tree``; return the named tests that failed or
    errored, pytest's exit status and its output."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE",
         "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    failed = set()
    for line in proc.stdout.splitlines():
        outcome, _, rest = line.partition(" ")
        if outcome not in ("FAILED", "ERROR"):
            continue
        node = rest.split(" - ", 1)[0]
        failed.update(
            t for t in tests if node == t or node.startswith(t + "[")
        )
    return failed, proc.returncode, proc.stdout + proc.stderr


def fresh_tree(parent: Path) -> Path:
    tree = Path(tempfile.mkdtemp(dir=parent))
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, tree / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", tree)
    return tree


def main() -> int:
    register = json.loads(REGISTER.read_text())
    ok = True
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        named = sorted({t for m in register for t in m["tests"]})
        _, status, output = run_tests(fresh_tree(scratch), named)
        if status:
            print(output)
            print("the named tests do not pass on the unmutated tree")
            return 1
        for m in register:
            tree = fresh_tree(scratch)
            path = tree / m["file"]
            text = path.read_text()
            count = text.count(m["old"])
            if count != 1:
                print(f"STALE     {m['name']}: old text occurs {count} times in {m['file']}")
                ok = False
                continue
            path.write_text(text.replace(m["old"], m["new"]))
            start = time.perf_counter()
            failed, _, output = run_tests(tree, m["tests"])
            seconds = time.perf_counter() - start
            survived = [t for t in m["tests"] if t not in failed]
            if survived:
                print(output)
                print(f"SURVIVED  {m['name']}: passes {survived}")
                ok = False
            else:
                print(f"killed    {m['name']} ({len(failed)} tests, {seconds:.1f} s)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
