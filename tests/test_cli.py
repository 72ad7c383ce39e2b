import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import markedgc
import markedgc.homology
import markedgc.stability
from markedgc.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    build_parser,
    main,
)
from markedgc.complexes import (
    cache_path,
    enumerate_marked_graphs,
    load_enumeration,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_enumerate_json(capsys):
    code, payload = run_json(capsys, "enumerate", "--g", "1", "--n", "3", "--r", "2")
    assert code == EXIT_OK
    assert payload["schema"] == 1
    assert payload["total"] == 7
    assert payload["classes_by_degree"] == {"0": 1, "1": 3, "2": 3}


def test_parser_is_built_once_per_process(capsys):
    build_parser.cache_clear()
    first = run(capsys, "enumerate", "--g", "1", "--n", "3", "--r", "2")
    other = run(capsys, "complex", "--g", "1", "--n", "3", "--r", "2")
    again = run(capsys, "enumerate", "--g", "1", "--n", "3", "--r", "2")
    assert first == again and first[0] == other[0] == EXIT_OK
    assert build_parser.cache_info().misses == 1


def test_complex_reports_dims(capsys):
    code, payload = run_json(capsys, "complex", "--g", "2", "--n", "3", "--r", "3")
    assert code == EXIT_OK
    assert payload["dims"] == {"0": 1, "1": 7, "2": 15, "3": 9}
    assert payload["d_squared_zero"] is True


def test_homology_table_uses_stable_notation(capsys):
    code, out = run(capsys, "homology", "--g", "2", "--n", "5", "--r", "5")
    assert code == EXIT_OK
    assert "(4,1)" in out and "(3,2)" in out and "(3,1^2)" in out


def test_homology_json(capsys):
    code, payload = run_json(capsys, "homology", "--g", "1", "--n", "4", "--r", "3")
    assert code == EXIT_OK
    rows = {entry["degree"]: entry for entry in payload["homology"]}
    assert rows[2]["dim"] == 3


def test_stability_detects_sharp_point(capsys):
    code, payload = run_json(
        capsys, "stability", "--g", "1", "--l", "1", "--window", "4"
    )
    assert code == EXIT_OK
    assert payload["predicted_sharp_bound"] == 3
    assert payload["detected_sharp_point"] == 3


def test_stability_table_heads_condition_two_generates(capsys):
    # condition 2 asks whether the orbit of psi's image generates C(n + 1)
    code, out = run(capsys, "stability", "--g", "1", "--l", "1", "--window", "4")
    assert code == EXIT_OK
    assert out.splitlines()[0].split() == [
        "n", "injective", "generates", "multiplicities", "match"
    ]


@pytest.mark.parametrize("failing", [3, 4])
def test_stability_violation_from_the_bound_on_exits_1(capsys, monkeypatch, failing):
    # predicted 3; a failure at the top n = 4 leaves no detected point
    generating = markedgc.stability._generating
    monkeypatch.setattr(
        markedgc.stability,
        "_generating",
        lambda psi, target: target.n != failing + 1 and generating(psi, target),
    )
    code, payload = run_json(
        capsys, "stability", "--g", "1", "--l", "1", "--window", "4"
    )
    assert payload["conditions"][str(failing)] == [True, False, True]
    assert payload["detected_sharp_point"] == (None if failing == 4 else 4)
    assert code == EXIT_VIOLATION


def test_stability_image_outside_target_exits_3(capsys, monkeypatch):
    # the complexes are built first; then the stabilization adds no leg,
    # which sends each class outside the next complex's basis
    stabilize = markedgc.stability.stabilization_map

    def without_leg(source, target):
        monkeypatch.setattr(
            markedgc.complexes, "add_marked_legs", lambda cls, tau, b, j: (cls, tau)
        )
        return stabilize(source, target)

    monkeypatch.setattr(markedgc.stability, "stabilization_map", without_leg)
    code = main(["stability", "--g", "2", "--l", "0", "--window", "5"])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert captured.out == ""
    assert captured.err.startswith(
        "internal error: stabilization of a degree-0 class left the enumerated basis"
    )
    assert captured.err.count("\n") == 1


def test_stable_mult_value(capsys):
    code, out = run(capsys, "stable-mult", "--g", "5", "--lambda", "[5,1]")
    assert code == EXIT_OK
    assert out.strip() == "3"


def test_stable_mult_size_mismatch_is_usage_error(capsys):
    # |lambda| = 4 is ceil(3m/2) for no excess m; [4] has the one row that
    # m = floor(2 * 4 / 3) = 2 asks for, so only the size check rejects it.
    # The excess m = 2 * 10^9 of [3000000000] is read off |lambda| at once,
    # and one row is not ceil(m/2)
    for lam in ("[3,1]", "[4]", "[3000000000]"):
        code = main(["stable-mult", "--g", "5", "--lambda", lam])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.count("\n") == 1


STABLE_MULT = ("stable-mult", "--g", "5", "--lambda", "[5,1]")


@pytest.mark.parametrize(
    "argv, option",
    [
        (("homology", "--g", "2", "--n", "3", "--r", "3"), "--cache-dir"),
        (("stability", "--g", "1", "--l", "1", "--window", "4"), "--cache-dir"),
        (("whitehouse", "--n", "3"), "--cache-dir"),
        (("verify", "--suite", "core-bounds", "--g", "2"), "--cache-dir"),
        (STABLE_MULT, "--cache-dir"),
        (STABLE_MULT, "--m"),
    ],
    ids=["homology", "stability", "whitehouse", "verify", "stable-mult", "--m"],
)
def test_dropped_options_are_usage_errors(capsys, tmp_path, argv, option):
    # only enumerate and complex take --cache-dir; stable-mult reads the
    # excess m off |lambda|
    value = str(tmp_path) if option == "--cache-dir" else "4"
    with pytest.raises(SystemExit) as exc:
        main([*argv, option, value])
    assert exc.value.code == EXIT_USAGE
    assert option in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_whitehouse_command(capsys):
    code, payload = run_json(capsys, "whitehouse", "--n", "4")
    assert code == EXIT_OK
    assert payload["ok"] is True


def test_verify_single_suite(capsys):
    code, payload = run_json(
        capsys, "verify", "--suite", "vanishing", "--g", "1", "--n", "4", "--r", "2"
    )
    assert code == EXIT_OK
    assert payload["suites"] == {"vanishing": []}


def test_verify_unknown_suite(capsys):
    code, _ = run(capsys, "verify", "--suite", "nope")
    assert code == EXIT_USAGE


def test_verify_suite_missing_parameters_exits_2(capsys):
    code = main(["verify", "--suite", "core-bounds"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.splitlines() == [
        "error: suite 'core-bounds' needs more parameters (see --help)"
    ]


def test_verify_edge_cut_rows_below_genus_two_says_so(capsys):
    code = main(["verify", "--suite", "edge-cut-rows", "--g", "1"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.splitlines() == ["error: suite 'edge-cut-rows' needs --g >= 2, got 1"]


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["homology", "--g", "1"])
    assert exc.value.code == 2


def test_unknown_option_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--g", "1", "--n", "2", "--r", "1", "--jobs", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize(
    "argv",
    [
        ("complex", "--g", "1", "--n", "-1", "--r", "0"),
        ("complex", "--g", "-1", "--n", "2", "--r", "0"),
        ("enumerate", "--g", "1", "--n", "-1", "--r", "0"),
        ("homology", "--g", "-1", "--n", "2", "--r", "0"),
        ("stability", "--g", "-1", "--l", "0", "--window", "3"),
        ("stable-mult", "--g", "-1", "--lambda", "[1]"),
        ("whitehouse", "--n", "-1"),
        ("verify", "--suite", "genus-one", "--n", "-2"),
    ],
)
def test_negative_genus_or_legs_is_usage_error(capsys, argv, fmt):
    code = main([*argv, "--format", fmt])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: --")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize(
    "argv",
    [
        ("complex", "--g", "1", "--n", "3", "--r", "-2"),
        ("enumerate", "--g", "1", "--n", "3", "--r", "-1"),
        ("homology", "--g", "2", "--n", "2", "--r", "-1"),
        ("verify", "--suite", "vanishing", "--g", "1", "--n", "3", "--r", "-2"),
    ],
)
def test_negative_marked_count_is_usage_error(capsys, argv, fmt):
    code = main([*argv, "--format", fmt])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: --r ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize(
    "argv",
    [
        ("stability", "--g", "2", "--l", "0", "--window", "-1"),
        ("stability", "--g", "1", "--l", "1", "--window", "0"),
    ],
)
def test_stability_window_below_first_n_is_usage_error(capsys, argv, fmt):
    code = main([*argv, "--format", fmt])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: window ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize(
    "argv",
    [
        ("stability", "--g", "0", "--l", "3", "--window", "4"),
        ("verify", "--suite", "vanishing", "--g", "0", "--n", "3", "--r", "0"),
        ("stable-mult", "--g", "0", "--lambda", "[5,1]"),
        ("verify", "--suite", "core-bounds", "--g", "0"),
        ("verify", "--g", "0"),
        ("verify", "--suite", "vanishing", "--g", "0", "--n", "3", "--r", "3"),
    ],
)
def test_genus_zero_stability_is_usage_error(capsys, argv, fmt):
    # B(0, n, r) = 0: no connected graph has genus 0, whatever the excess
    # (m = 3 in the first two cases, -3 in the last)
    code = main([*argv, "--format", fmt])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == "error: the stability facts need genus >= 1, got 0\n"


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_vanishing_at_negative_excess_is_usage_error(capsys, fmt):
    # B(1, 1, 2): l = -1, so m = -2
    argv = ["verify", "--suite", "vanishing", "--g", "1", "--n", "1", "--r", "2"]
    code = main([*argv, "--format", fmt])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == "error: negative excess has no stable range\n"


def test_cache_dir_roundtrip(capsys, tmp_path):
    code1, payload1 = run_json(
        capsys, "enumerate", "--g", "1", "--n", "4", "--r", "3",
        "--cache-dir", str(tmp_path),
    )
    assert (tmp_path / "basis-1-4-3.txt").exists()
    code2, payload2 = run_json(
        capsys, "enumerate", "--g", "1", "--n", "4", "--r", "3",
        "--cache-dir", str(tmp_path),
    )
    assert code1 == code2 == EXIT_OK
    assert payload1 == payload2


def run_fresh(script, *args):
    """Run ``script`` in a fresh interpreter that imports this tree's
    `markedgc`; pytest and the tests import hashlib themselves."""
    src = str(Path(markedgc.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


FOOTPRINT = """
import contextlib, io, sys
from markedgc.cli import main
from markedgc.complexes import load_enumeration

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0, argv
    unwanted = {"hashlib", "_hashlib", "dataclasses", "inspect", "markedgc.whitehouse"}
    loaded = unwanted & set(sys.modules)
    assert not loaded, f"{argv[0]} loaded {sorted(loaded)}"
    return out.getvalue()

run("homology", "--g", "2", "--n", "3", "--r", "3")
run("stability", "--g", "1", "--l", "1", "--window", "4")
run("verify", "--suite", "core-bounds", "--g", "2")
for command in ("enumerate", "complex"):
    cache_dir = f"{sys.argv[1]}/{command}"
    cache = [command, "--g", "2", "--n", "3", "--r", "3", "--cache-dir", cache_dir]
    first = run(*cache)
    assert run(*cache) == first
    assert load_enumeration(cache_dir, 2, 3, 3) is not None
"""


def test_no_command_loads_openssl(tmp_path):
    # with and without a cache, no command imports hashlib or _hashlib,
    # dataclasses or inspect, and none but the genus-1 checks imports
    # markedgc.whitehouse
    run_fresh(FOOTPRINT, str(tmp_path))
    for command in ("enumerate", "complex"):
        assert (tmp_path / command / "basis-2-3-3.txt").exists()


GENUS_ONE = """
import contextlib, io, sys
from markedgc.cli import main

assert "markedgc.whitehouse" not in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[1:]) == 0
assert "markedgc.whitehouse" in sys.modules
"""


@pytest.mark.parametrize(
    "argv", [("verify", "--suite", "genus-one", "--n", "3"), ("whitehouse", "--n", "3")]
)
def test_genus_one_commands_load_whitehouse(argv):
    run_fresh(GENUS_ONE, *argv)


FALLBACK = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import contextlib, io, json
from markedgc.cli import main
from markedgc.complexes import _checksum, load_enumeration

argv = ["complex", "--g", "2", "--n", "3", "--r", "3", "--cache-dir", sys.argv[1]]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(argv) == 0
assert "hashlib" in sys.modules
assert load_enumeration(sys.argv[1], 2, 3, 3) is not None
print(json.dumps([_checksum(body) for body in json.loads(sys.argv[2])]))
"""


def test_checksum_falls_back_to_hashlib(tmp_path):
    # without the interpreter's built-in SHA-256 modules the checksum
    # comes from hashlib: same digests, the same cache bytes, reread
    lean, fallback = tmp_path / "lean", tmp_path / "fallback"
    assert enumerate_marked_graphs(2, 3, 3, cache_dir=lean)
    written = cache_path(lean, 2, 3, 3).read_text()
    bodies = ["", "0|1|0|0,0,0|0,1,2|0,1,2|*\n", written.partition("\n")[2]]
    digests = json.loads(run_fresh(FALLBACK, str(fallback), json.dumps(bodies)))
    assert digests == [hashlib.sha256(b.encode()).hexdigest() for b in bodies]
    assert cache_path(fallback, 2, 3, 3).read_text() == written
    reread = load_enumeration(fallback, 2, 3, 3)
    assert reread == enumerate_marked_graphs(2, 3, 3, None)


@pytest.mark.parametrize("blocker", ["directory at the cache file", "file as cache dir"])
def test_unwritable_cache_is_usage_error(capsys, tmp_path, blocker):
    if blocker == "directory at the cache file":
        cache_dir = tmp_path
        (tmp_path / "basis-1-3-2.txt").mkdir()
    else:
        cache_dir = tmp_path / "cache"
        cache_dir.write_text("")
    code = main(
        ["complex", "--g", "1", "--n", "3", "--r", "2", "--cache-dir", str(cache_dir)]
    )
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: cache ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_homology_negative_excess(capsys, fmt):
    code, out = run(
        capsys, "homology", "--g", "2", "--n", "1", "--r", "3", "--format", fmt
    )
    assert code == EXIT_OK
    if fmt == "json":
        assert json.loads(out)["homology"] == []
    else:
        assert out.splitlines() == ["degree  dim  decomposition"]


def test_corrupt_cache_header_recomputes(capsys, tmp_path):
    args = (
        "complex", "--g", "1", "--n", "3", "--r", "2",
        "--cache-dir", str(tmp_path),
    )
    code, first = run_json(capsys, *args)
    path = tmp_path / "basis-1-3-2.txt"
    _, _, body = path.read_text().partition("\n")
    path.write_text("[1,2]\n" + body)
    code2, second = run_json(capsys, *args)
    assert code == code2 == EXIT_OK
    assert first == second


def test_cache_of_another_complex_recomputes(capsys, tmp_path):
    # the classes of B(2,3,3) under a B(1,3,2) header whose count and
    # checksum match them: every line is admissible and canonical, but of
    # another type, so the cache is a miss
    run(capsys, "complex", "--g", "2", "--n", "3", "--r", "3", "--cache-dir", str(tmp_path))
    head, _, body = (tmp_path / "basis-2-3-3.txt").read_text().partition("\n")
    header = {**json.loads(head), "g": 1, "n": 3, "r": 2}
    (tmp_path / "basis-1-3-2.txt").write_text(json.dumps(header) + "\n" + body)
    code, payload = run_json(
        capsys, "complex", "--g", "1", "--n", "3", "--r", "2", "--cache-dir", str(tmp_path)
    )
    assert code == EXIT_OK
    assert payload["dims"] == {"0": 1, "1": 3, "2": 3}
    assert json.loads((tmp_path / "basis-1-3-2.txt").read_text().partition("\n")[0])[
        "count"
    ] == 7


def test_internal_invariant_failure_exits_3(capsys, monkeypatch):
    def broken(c):
        raise AssertionError("d^2 != 0 on a test complex")

    monkeypatch.setattr("markedgc.complexes._check_d_squared", broken)
    code = main(["complex", "--g", "1", "--n", "3", "--r", "2"])
    err = capsys.readouterr().err
    assert code == EXIT_INTERNAL
    assert err == "internal error: d^2 != 0 on a test complex\n"


def test_pivot_count_differing_from_rank_exits_3(capsys, monkeypatch):
    # one less than the true rank keeps every dimension non-negative, so
    # only the pivot count differs
    rank = markedgc.homology.rank
    monkeypatch.setattr(
        markedgc.homology, "rank", lambda cols: max(rank(cols) - 1, 0)
    )
    code = main(["homology", "--g", "2", "--n", "5", "--r", "5"])
    err = capsys.readouterr().err
    assert code == EXIT_INTERNAL
    assert err.startswith("internal error: d_") and "pivots, rank gives" in err
