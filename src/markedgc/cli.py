"""Command-line interface: enumeration, homology, stability analysis,
stable multiplicities, genus-1 checks, and aggregated verification.

Exit codes: 0 on success, 1 when a verification finds a violation, 2 on
usage errors and unwritable caches, 3 when an internal invariant check
(d^2 = 0, a factorized differential's pivot count against the rank,
character dimension, admissibility of enumerated cores) fails.  Output
is JSON (machine-readable, schema version 1) or an aligned text table
with footer lines; both are deterministic for a fixed invocation.  Each
command is declared once in `build_parser`: its integer flags, then
`--format`; only `enumerate` and `complex` add `--cache-dir`.  The
stability facts (`stability`, `stable-mult`, the `core-bounds` and
`vanishing` suites) need genus >= 1, and `markedgc.whitehouse` loads
only for the genus-1 checks.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .complexes import CacheError, build_complex, enumerate_marked_graphs
from .graphs import degree
from .homology import homology_decomposition
from .partitions import parse_partition
from .stability import (
    check_consistent_sequence,
    stable_multiplicity,
    verify_core_bounds,
    verify_edge_cut_rows,
    verify_vanishing,
)

JSON_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _emit(payload: dict, fmt: str, rows: list[list[str]], *footer: str) -> None:
    """Print the payload as JSON, or the rows as an aligned table and
    then the footer lines."""
    if fmt == "json":
        json.dump({"schema": JSON_SCHEMA_VERSION, **payload}, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return
    widths = [max(map(len, column)) for column in zip(*rows)]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    for line in footer:
        print(line)


def _gnr(args) -> dict:
    """The payload header of a command on one complex B(g, n, r)."""
    return {"g": args.g, "n": args.n, "r": args.r}


def _whitehouse(n: int):
    from .whitehouse import whitehouse_checks  # only the genus-1 checks load it

    return whitehouse_checks(n)


def _cmd_enumerate(args) -> int:
    classes = enumerate_marked_graphs(args.g, args.n, args.r, args.cache_dir)
    by_degree: dict[int, int] = {}
    for xi, _ in classes:
        i = degree(xi.graph)
        by_degree[i] = by_degree.get(i, 0) + 1
    counts = sorted(by_degree.items())
    payload = {
        **_gnr(args),
        "total": len(classes),
        "classes_by_degree": {str(i): c for i, c in counts},
    }
    rows = [["degree", "classes"]] + [[str(i), str(c)] for i, c in counts]
    _emit(payload, args.format, rows, f"total  {len(classes)}")
    return EXIT_OK


def _cmd_complex(args) -> int:
    c = build_complex(args.g, args.n, args.r, cache_dir=args.cache_dir)
    euler = c.euler_characteristic()
    payload = {
        **_gnr(args),
        "excess": c.excess,
        "dims": {str(i): c.dim(i) for i in c.degrees()},
        "euler_characteristic": euler,
        "d_squared_zero": True,
    }
    rows = [["degree", "dim"]] + [[str(i), str(c.dim(i))] for i in c.degrees()]
    _emit(payload, args.format, rows, f"euler characteristic  {euler}")
    return EXIT_OK


def _cmd_homology(args) -> int:
    profile = homology_decomposition(build_complex(args.g, args.n, args.r))
    rows = [["degree", "dim", "decomposition"]] + [
        [str(i), str(dim), str(profile.decompositions[i])]
        for i, dim in sorted(profile.dims.items())
        if dim
    ]
    _emit({**_gnr(args), "homology": profile.to_json()}, args.format, rows)
    return EXIT_OK


def _cmd_stability(args) -> int:
    report = check_consistent_sequence(args.g, args.l, args.window)
    rows = [["n", "injective", "generates", "multiplicities match"]] + [
        [str(n)] + [str(bool(f)) for f in flags]
        for n, flags in sorted(report.conditions.items())
    ]
    _emit(
        report.to_json(),
        args.format,
        rows,
        f"predicted sharp bound  {report.predicted}",
        f"detected sharp point   {report.detected}",
    )
    failing = [n for n, flags in report.conditions.items() if not all(flags)]
    if any(n >= report.predicted for n in failing):
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_stable_mult(args) -> int:
    lam = parse_partition(args.lam)
    mult = stable_multiplicity(lam, args.g)
    payload = {"lambda": list(lam), "g": args.g, "multiplicity": mult}
    _emit(payload, args.format, [[str(mult)]])
    return EXIT_OK


def _cmd_whitehouse(args) -> int:
    report = _whitehouse(args.n)
    rows = [["check", "result"]]
    for entry in report.checks:
        if "recursion" in entry:
            n, r = entry["recursion"]
            rows.append([f"recursion B(1,{n},{r})", str(entry["holds"])])
        else:
            rows.append(
                [
                    f"B(1,{entry['n']},{entry['r']})",
                    f"dim {entry['dim']} (expected {entry['stirling_dim']})",
                ]
            )
    _emit(report.to_json(), args.format, rows, f"ok  {report.ok}")
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_verify(args) -> int:
    g, n, r, wanted = args.g, args.n, args.r, args.suite
    more = "needs more parameters (see --help)"
    # name -> (what the suite lacks, None when it can run; its run)
    table = {
        "core-bounds": (
            more if g is None else None,
            lambda: verify_core_bounds(g, ell_max=0 if g >= 3 else 2),
        ),
        "edge-cut-rows": (
            more if g is None else (f"needs --g >= 2, got {g}" if g < 2 else None),
            lambda: verify_edge_cut_rows(g, ell_max=0 if g >= 3 else 1),
        ),
        "vanishing": (
            more if None in (g, n, r) else None,
            lambda: verify_vanishing(homology_decomposition(build_complex(g, n, r))),
        ),
        "genus-one": (None, lambda: _whitehouse(4 if n is None else n).violations),
    }
    if wanted is not None:
        if wanted not in table:
            raise ValueError(f"unknown or unavailable suite {wanted!r}")
        if table[wanted][0] is not None:
            raise ValueError(f"suite {wanted!r} {table[wanted][0]}")
    suites = {
        name: run()
        for name, (missing, run) in table.items()
        if missing is None and wanted in (None, name)
    }
    violations = [v for found in suites.values() for v in found]
    payload = {
        "suites": dict(sorted(suites.items())),
        "violations": violations,
        "ok": not violations,
    }
    rows = [["suite", "violations"]] + [
        [name, str(len(found))] for name, found in sorted(suites.items())
    ]
    _emit(payload, args.format, rows, f"ok  {not violations}")
    return EXIT_OK if not violations else EXIT_VIOLATION


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="markedgc",
        description=(
            "Exact equivariant homology of marked graph complexes and "
            "their representation-stability invariants."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, about, func, *flags, required=True):
        """Add a subcommand with ``flags`` in help order, each an integer
        flag or a (flag, options) pair, then --format."""
        p = sub.add_parser(name, help=about)
        for flag in flags:
            if isinstance(flag, str):
                flag = (flag, {"type": int, "required": required})
            p.add_argument(flag[0], **flag[1])
        p.add_argument("--format", choices=["json", "table"], default="table")
        p.set_defaults(func=func)
        return p

    gnr = ("--g", "--n", "--r")
    for name, about, func in (
        ("enumerate", "count canonical classes by degree", _cmd_enumerate),
        ("complex", "build the chain complex (checks d^2=0)", _cmd_complex),
    ):
        command(name, about, func, *gnr).add_argument("--cache-dir", default=None)
    command("homology", "homology decomposition", _cmd_homology, *gnr)
    command(
        "stability", "sharp stabilization detection", _cmd_stability,
        "--g", "--l", "--window",
    )
    command(
        "stable-mult", "stable multiplicity of a partition", _cmd_stable_mult,
        "--g", ("--lambda", {"dest": "lam", "required": True}),
    )
    command("whitehouse", "genus-1 oracle checks", _cmd_whitehouse, "--n")
    command(
        "verify", "run verification suites", _cmd_verify,
        ("--suite", {}), *gnr, required=False,
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag in ("g", "n", "r"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            print(f"error: --{flag} must be nonnegative, got {value}", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, CacheError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
