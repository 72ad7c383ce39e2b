"""Command-line interface: enumeration, homology, stability analysis,
stable multiplicities, genus-1 checks, and aggregated verification.

Exit codes: 0 on success, 1 when a verification finds a violation, 2 on
usage errors and unwritable caches, 3 when an internal invariant check
(d^2 = 0, a factorized differential's pivot count against the rank,
character dimension, admissibility of enumerated cores) fails.  Output
is JSON (machine-readable, schema version 1) or aligned text tables;
both are deterministic for a fixed invocation.  Only `enumerate` and
`complex` take `--cache-dir`.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .complexes import CacheError, build_complex, enumerate_marked_graphs
from .graphs import degree
from .homology import homology_decomposition
from .partitions import parse_partition, strip_ones
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


def _emit(payload: dict, fmt: str, table_lines) -> None:
    if fmt == "json":
        payload = {"schema": JSON_SCHEMA_VERSION, **payload}
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for line in table_lines:
            print(line)


def _aligned(rows: list[list[str]]) -> list[str]:
    if not rows:
        return []
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    ]


def _stable_notation(dec) -> str:
    """Paper-style table notation with explicit 1^k padding."""
    if dec.is_zero():
        return "0"
    terms = []
    for lam, mult in dec.items():
        head, ones = strip_ones(lam)
        body = ",".join(str(p) for p in head)
        if ones:
            pad = f"1^{ones}" if ones > 1 else "1"
            body = f"{body},{pad}" if body else pad
        coeff = str(mult) if mult != 1 else ""
        terms.append(f"{coeff}({body})")
    return " + ".join(terms)


def _cmd_enumerate(args) -> int:
    classes = enumerate_marked_graphs(args.g, args.n, args.r, args.cache_dir)
    by_degree: dict[int, int] = {}
    for xi, _ in classes:
        i = degree(xi.graph)
        by_degree[i] = by_degree.get(i, 0) + 1
    payload = {
        "g": args.g,
        "n": args.n,
        "r": args.r,
        "total": len(classes),
        "classes_by_degree": {str(i): c for i, c in sorted(by_degree.items())},
    }
    rows = [["degree", "classes"]] + [
        [str(i), str(c)] for i, c in sorted(by_degree.items())
    ]
    _emit(payload, args.format, _aligned(rows) + [f"total  {len(classes)}"])
    return EXIT_OK


def _cmd_complex(args) -> int:
    c = build_complex(args.g, args.n, args.r, cache_dir=args.cache_dir)
    payload = {
        "g": args.g,
        "n": args.n,
        "r": args.r,
        "excess": c.excess,
        "dims": {str(i): c.dim(i) for i in c.degrees()},
        "euler_characteristic": c.euler_characteristic(),
        "d_squared_zero": True,
    }
    rows = [["degree", "dim"]] + [[str(i), str(c.dim(i))] for i in c.degrees()]
    _emit(
        payload,
        args.format,
        _aligned(rows)
        + [f"euler characteristic  {c.euler_characteristic()}"],
    )
    return EXIT_OK


def _cmd_homology(args) -> int:
    profile = homology_decomposition(build_complex(args.g, args.n, args.r))
    payload = {
        "g": args.g,
        "n": args.n,
        "r": args.r,
        "homology": profile.to_json(),
    }
    rows = [["degree", "dim", "decomposition"]]
    for i in sorted(profile.dims):
        if not profile.dims[i]:
            continue
        rows.append(
            [
                str(i),
                str(profile.dims[i]),
                _stable_notation(profile.decompositions[i]),
            ]
        )
    _emit(payload, args.format, _aligned(rows))
    return EXIT_OK


def _cmd_stability(args) -> int:
    report = check_consistent_sequence(args.g, args.l, args.window)
    payload = report.to_json()
    rows = [["n", "injective", "generates", "multiplicities match"]]
    for n, flags in sorted(report.conditions.items()):
        rows.append([str(n)] + [str(bool(f)) for f in flags])
    lines = _aligned(rows) + [
        f"predicted sharp bound  {report.predicted}",
        f"detected sharp point   {report.detected}",
    ]
    _emit(payload, args.format, lines)
    failing = [n for n, flags in report.conditions.items() if not all(flags)]
    if any(n >= report.predicted for n in failing):
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_stable_mult(args) -> int:
    lam = parse_partition(args.lam)
    mult = stable_multiplicity(lam, args.g)
    payload = {"lambda": list(lam), "g": args.g, "multiplicity": mult}
    _emit(payload, args.format, [str(mult)])
    return EXIT_OK


def _cmd_whitehouse(args) -> int:
    from .whitehouse import whitehouse_checks  # only its commands load it

    report = whitehouse_checks(args.n)
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
    lines = _aligned(rows) + [f"ok  {report.ok}"]
    _emit(report.to_json(), args.format, lines)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _verify_suites(args) -> tuple[dict, list[str]]:
    suites = {}
    violations: list[str] = []
    wanted = args.suite

    def run(name: str, missing: str | None, thunk) -> None:
        """``missing`` says what the suite lacks, None when it can run."""
        if wanted is not None and wanted != name:
            return
        if missing is not None:
            if wanted == name:
                raise ValueError(f"suite {name!r} {missing}")
            return
        found = thunk()
        suites[name] = found
        violations.extend(found)

    g = args.g
    more = "needs more parameters (see --help)"
    run(
        "core-bounds",
        more if g is None else None,
        lambda: verify_core_bounds(g, ell_max=0 if g >= 3 else 2),
    )
    run(
        "edge-cut-rows",
        more if g is None else (f"needs --g >= 2, got {g}" if g < 2 else None),
        lambda: verify_edge_cut_rows(g, ell_max=0 if g >= 3 else 1),
    )
    run(
        "vanishing",
        more if None in (g, args.n, args.r) else None,
        lambda: verify_vanishing(
            homology_decomposition(build_complex(g, args.n, args.r))
        ),
    )

    def genus_one() -> list[str]:
        from .whitehouse import whitehouse_checks

        n = args.n if args.n is not None else 4
        return whitehouse_checks(n).violations

    run("genus-one", None, genus_one)
    if wanted is not None and wanted not in suites:
        raise ValueError(f"unknown or unavailable suite {wanted!r}")
    return suites, violations


def _cmd_verify(args) -> int:
    suites, violations = _verify_suites(args)
    payload = {
        "suites": {name: found for name, found in sorted(suites.items())},
        "violations": violations,
        "ok": not violations,
    }
    rows = [["suite", "violations"]] + [
        [name, str(len(found))] for name, found in sorted(suites.items())
    ]
    _emit(payload, args.format, _aligned(rows) + [f"ok  {not violations}"])
    return EXIT_OK if not violations else EXIT_VIOLATION


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["json", "table"], default="table")


def _add_common(p: argparse.ArgumentParser) -> None:
    _add_format(p)
    p.add_argument("--cache-dir", default=None)


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

    p = sub.add_parser("enumerate", help="count canonical classes by degree")
    for flag in ("--g", "--n", "--r"):
        p.add_argument(flag, type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("complex", help="build the chain complex (checks d^2=0)")
    for flag in ("--g", "--n", "--r"):
        p.add_argument(flag, type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_complex)

    p = sub.add_parser("homology", help="homology decomposition")
    for flag in ("--g", "--n", "--r"):
        p.add_argument(flag, type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("stability", help="sharp stabilization detection")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--window", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("stable-mult", help="stable multiplicity of a partition")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_stable_mult)

    p = sub.add_parser("whitehouse", help="genus-1 oracle checks")
    p.add_argument("--n", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_whitehouse)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default=None)
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    _add_format(p)
    p.set_defaults(func=_cmd_verify)

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
