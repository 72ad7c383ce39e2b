import json
from dataclasses import replace

import pytest

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
        lambda psi: psi.source.n != failing and generating(psi),
    )
    code, payload = run_json(
        capsys, "stability", "--g", "1", "--l", "1", "--window", "4"
    )
    assert payload["conditions"][str(failing)] == [True, False, True]
    assert payload["detected_sharp_point"] == (None if failing == 4 else 4)
    assert code == EXIT_VIOLATION


def test_stability_column_with_two_entries_exits_3(capsys, monkeypatch):
    stabilize = markedgc.stability.stabilization_map

    def two_entries(source, target):
        psi = stabilize(source, target)
        i = max(psi.cols)
        cols = [{0: 1, 1: 1}] + psi.cols[i][1:]
        return replace(psi, cols={**psi.cols, i: cols})

    monkeypatch.setattr(markedgc.stability, "stabilization_map", two_entries)
    code = main(["stability", "--g", "2", "--l", "0", "--window", "5"])
    assert code == EXIT_INTERNAL
    assert "2 entries" in capsys.readouterr().err


def test_stable_mult_value(capsys):
    code, out = run(
        capsys, "stable-mult", "--m", "4", "--g", "5", "--lambda", "[5,1]"
    )
    assert code == EXIT_OK
    assert out.strip() == "3"


def test_stable_mult_size_mismatch_is_usage_error(capsys):
    code, _ = run(
        capsys, "stable-mult", "--m", "4", "--g", "5", "--lambda", "[3,1]"
    )
    assert code == EXIT_USAGE


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
    # one less than the true rank keeps every dimension non-negative and
    # the Euler characteristic unchanged, so only the pivot count differs
    rank = markedgc.homology.rank
    monkeypatch.setattr(
        markedgc.homology, "rank", lambda cols: max(rank(cols) - 1, 0)
    )
    code = main(["homology", "--g", "2", "--n", "5", "--r", "5"])
    err = capsys.readouterr().err
    assert code == EXIT_INTERNAL
    assert err.startswith("internal error: d_") and "pivots, rank gives" in err
