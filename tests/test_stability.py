from dataclasses import replace
from itertools import combinations

import pytest

import markedgc.complexes
import markedgc.stability
from markedgc.cli import EXIT_INTERNAL, main
from markedgc.complexes import (
    _assemble,
    _leg_distributions,
    build_complex,
    chain_character,
    stabilization_map,
)
from markedgc.graphs import MarkedGraph, canonical_form, validate
from markedgc.homology import homology_decomposition
from markedgc.partitions import enumerate_partitions, size
from markedgc.reptheory import decompose
from markedgc.stability import (
    _generating,
    _injective,
    check_consistent_sequence,
    core_decomposition,
    core_module,
    enumerate_core_graphs,
    excess,
    lambda_set,
    predicted_sharp_bound,
    rho_of_core,
    stab_module,
    stable_multiplicity,
    theta_classes,
    verify_core_bounds,
    verify_edge_cut_rows,
    verify_vanishing,
)
from enumeration_oracle import _edge_multisets
from fraction_oracle import assert_decompose_matches
from stability_oracle import conditions as rank_conditions


# ---------------------------------------------------------------------------
# bounds


def test_excess_and_predicted_bound():
    assert excess(2, 0) == 3
    assert excess(1, 1) == 2
    assert predicted_sharp_bound(2, 0) == 5
    assert predicted_sharp_bound(1, 1) == 3
    assert predicted_sharp_bound(1, 0) == 0
    with pytest.raises(ValueError):
        predicted_sharp_bound(0, 0)


# ---------------------------------------------------------------------------
# core graphs


def test_theta_rho_statistics():
    # m + rho for the sharpness witnesses
    th30 = theta_classes(3, 0)
    assert sorted(th30) == [0, 2]
    assert excess(3, 0) + rho_of_core(th30[0]) == 9
    th20 = theta_classes(2, 0)
    assert sorted(th20) == [1]
    assert excess(2, 0) + rho_of_core(th20[1]) == 5


def test_theta_core_module_decomposition():
    # the p=0 extremal core at (3, 0) induces the doubles of partitions
    # of 3: (6) + (4,2) + (2,2,2)
    module = core_module(theta_classes(3, 0)[0])
    assert dict(module.items()) == {(6,): 1, (4, 2): 1, (2, 2, 2): 1}


def test_core_counts_at_excess():
    # at n = m the only cores are the extremal family
    for g, ell in [(2, 0), (2, 1), (3, 0)]:
        m = excess(g, ell)
        cores = enumerate_core_graphs(g, m, m - ell)
        assert {cls.key for cls in cores} == {
            cls.key for cls in theta_classes(g, ell).values()
        }


def oracle_enumerate_core_graphs(g, n, r, validated, canonicalized):
    """Core enumeration choosing markings anew for every leg placement;
    logs each graph it canonicalizes, and the unmarked graph of each leg
    placement that has a marking (the graph `_core_classes` validates).
    Every marked graph must be admissible."""
    if g < 0 or n < 0 or r < 0:
        return []
    seen = {}
    e_max = 3 * (g - 1) + n - r
    for ne in range(max(g - 1, 0), e_max + 1):
        nv = ne - g + 2
        if nv < 1 or 2 * ne < r:
            continue
        for chosen in _edge_multisets(nv, ne):
            edge_valence = [0] * nv
            for v, w in chosen:
                edge_valence[v] += 1
                edge_valence[w] += 1
            for legs_at in _leg_distributions(nv, n, edge_valence):
                base = _assemble(nv, chosen, legs_at)
                internal = [
                    f
                    for f in range(base.nf)
                    if base.adj[f] == 0 and base.inv[f] != f
                ]
                marked_any = False
                for sub in combinations(internal, r):
                    picked = set(sub)
                    if any(base.inv[f] in picked for f in sub):
                        continue
                    graph = MarkedGraph(
                        nv=base.nv,
                        dv=0,
                        adj=base.adj,
                        inv=base.inv,
                        marked=frozenset(picked),
                    )
                    if not marked_any:
                        validated.append(base)
                        marked_any = True
                    assert validate(graph) == []
                    canonicalized.append(graph)
                    cls, _ = canonical_form(graph)
                    seen.setdefault(cls.key, cls)
    return [seen[k] for k in sorted(seen)]


CORE_CASES = [
    (g, n, r) for g in range(3) for n in range(5) for r in range(n + 3)
] + [(2, 6, 4), (2, 7, 5), (2, 8, 6), (2, 9, 7)]


@pytest.mark.parametrize("key", CORE_CASES, ids=str)
def test_enumerate_core_graphs_matches_per_placement_markings(key, monkeypatch):
    validated, canonicalized = [], []

    def spy_validate(graph):
        validated.append(graph)
        return validate(graph)

    def spy_canonical_form(graph):
        canonicalized.append(graph)
        return canonical_form(graph)

    # `_core_classes` is memoised; start cold so the spies see every call
    markedgc.complexes._core_classes.cache_clear()
    monkeypatch.setattr(markedgc.complexes, "validate", spy_validate)
    monkeypatch.setattr(markedgc.complexes, "canonical_form", spy_canonical_form)
    got = enumerate_core_graphs(*key)
    expected_validated, expected_canonicalized = [], []
    expected = oracle_enumerate_core_graphs(
        *key, expected_validated, expected_canonicalized
    )
    assert [cls.key for cls in got] == [cls.key for cls in expected]
    # one skeleton per class, so fewer decorations than the oracle's
    # labelled multisets; each is admissible and has its placement validated
    assert all(validate(graph) == [] for graph in canonicalized)
    bases = {replace(graph, marked=frozenset()) for graph in canonicalized}
    assert all(graph in bases for graph in validated)
    assert len(canonicalized) <= len(expected_canonicalized)


def test_core_enumeration_raises_on_an_inadmissible_placement(monkeypatch, capsys):
    # without legs, some skeleton leaves a neutral vertex below valence 3
    markedgc.complexes._core_classes.cache_clear()
    monkeypatch.setattr(
        markedgc.complexes, "_leg_distributions", lambda nv, n, valence: [(0,) * nv]
    )
    with pytest.raises(AssertionError, match="inadmissible core"):
        enumerate_core_graphs(2, 2, 1)
    assert main(["enumerate", "--g", "2", "--n", "2", "--r", "1"]) == EXIT_INTERNAL
    assert "inadmissible core" in capsys.readouterr().err


@pytest.mark.parametrize("g", [1, 2])
def test_core_bounds_exhaustive(g):
    assert verify_core_bounds(g, ell_max=2) == []


def test_edge_cut_row_monotonicity_small():
    assert verify_edge_cut_rows(2, ell_max=1) == []


def test_core_decomposition_matches_chain_character():
    g, n, r = 2, 3, 3
    c = build_complex(g, n, r)
    for i in c.degrees():
        summands = core_decomposition(g, n, r, i)
        total = sum(dim for _, dim, _ in summands)
        assert total == c.dim(i)
        chain = decompose(chain_character(c, i))
        combined = {}
        for _, _, widehat in summands:
            for lam, mult in widehat.items():
                combined[lam] = combined.get(lam, 0) + mult
        assert combined == dict(chain.items())


# ---------------------------------------------------------------------------
# sharp-point detection


def test_sharp_point_trivial_sequence():
    report = check_consistent_sequence(1, 0, 2, None)
    assert report.detected == 0 == report.predicted


def test_sharp_point_genus_one_marked():
    report = check_consistent_sequence(1, 1, 4, None)
    assert report.predicted == 3
    assert report.detected == 3
    # sharpness: the multiplicity condition fails one below the bound
    assert report.conditions[2][2] is False
    payload = report.to_json()
    assert payload["detected_sharp_point"] == 3


# Conditions 1-2 read off psi's columns against their rank-based oracle,
# at every n of these windows (g, l): n_max.
ORACLE_WINDOWS = {(2, 0): 6, (1, 1): 5, (1, 2): 6, (2, 1): 5, (3, 0): 3}


def stabilization(g, ell, n):
    return stabilization_map(
        build_complex(g, n, n - ell), build_complex(g, n + 1, n + 1 - ell)
    )


def column_conditions(psi):
    return _injective(psi), _generating(psi)


@pytest.mark.parametrize(
    "case",
    [
        (g, ell, n)
        for (g, ell), n_max in ORACLE_WINDOWS.items()
        for n in range(max(ell, 0), n_max + 1)
    ],
    ids=str,
)
def test_column_conditions_match_rank_oracle(case):
    psi = stabilization(*case)
    assert column_conditions(psi) == rank_conditions(psi)


# Synthetic maps derived from psi for (g, l, n) = (2, 0, 5).  The rank
# oracle's condition 2 stacks the coset translates of psi's columns, which
# spans the S_{n+1}-orbit only when the hit rows are S_n-stable, so every
# edit below changes whole source classes: a class with one labeling is an
# S_n-fixed basis element up to sign.


def edit_columns(psi, i, edit):
    cols = [dict(col) for col in psi.cols[i]]
    edit(cols)
    return replace(psi, cols={**psi.cols, i: cols})


def one_labeling_class(psi, i):
    """The position of a degree-i source class with a single labeling."""
    return next(
        p
        for positions in psi.source.basis[i].values()
        if len(positions) == 1
        for p in positions.values()
    )


def two_columns_on_one_row(psi, i):
    single = one_labeling_class(psi, i)
    other = next(
        positions
        for positions in psi.source.basis[i].values()
        if single not in positions.values()
    )

    def onto_single(cols):
        for p in other.values():
            cols[p] = dict(cols[single])

    return edit_columns(psi, i, onto_single)


def emptied_column(psi, i):
    single = one_labeling_class(psi, i)
    return edit_columns(psi, i, lambda cols: cols.__setitem__(single, {}))


def class_dropped(psi, i):
    """psi without a one-labeling source class and its column, so every
    column into the class's target is gone."""
    single = one_labeling_class(psi, i)
    table = {
        xi: {rho: p - (p > single) for rho, p in positions.items()}
        for xi, positions in psi.source.basis[i].items()
        if single not in positions.values()
    }
    source = replace(psi.source, basis={**psi.source.basis, i: table})
    cols = psi.cols[i][:single] + psi.cols[i][single + 1 :]
    return replace(psi, source=source, cols={**psi.cols, i: cols})


# (edit, degree, expected (condition 1, condition 2)); degrees 0 and 1 of
# psi for (2, 0, 5) each hold a class with one labeling, degree 1 two more.
SYNTHETIC_CASES = [
    (two_columns_on_one_row, 1, (False, False)),
    (emptied_column, 0, (False, False)),
    (emptied_column, 1, (False, False)),
    (class_dropped, 0, (True, False)),
    (class_dropped, 1, (True, False)),
]


@pytest.mark.parametrize(
    "edit, i, expected",
    SYNTHETIC_CASES,
    ids=[f"{edit.__name__}-{i}" for edit, i, _ in SYNTHETIC_CASES],
)
def test_synthetic_chain_maps_match_rank_oracle(edit, i, expected):
    psi = stabilization(2, 0, 5)
    assert column_conditions(psi) == rank_conditions(psi) == (True, True)
    broken = edit(psi, i)
    assert column_conditions(broken) == rank_conditions(broken) == expected


def test_column_with_two_entries_is_a_broken_invariant():
    psi = stabilization(2, 0, 5)
    single = one_labeling_class(psi, 1)
    broken = edit_columns(psi, 1, lambda cols: cols[single].update(cols[single + 1]))
    with pytest.raises(AssertionError, match="2 entries"):
        _injective(broken)
    with pytest.raises(AssertionError, match="2 entries"):
        _generating(broken)


# ---------------------------------------------------------------------------
# the stable module


def test_lambda_set_members_shape():
    for y, p in [(0, 1), (1, 0), (1, 1), (2, 0), (0, 3), (2, 3)]:
        m = 2 * y + p
        members = lambda_set(y, p)
        assert members
        for lam, mult in members.items():
            assert mult >= 1
            assert size(lam) == (3 * m + 1) // 2
            assert len(lam) == (m + 1) // 2


def test_lambda_set_excess_three():
    # the excess-3 stable module at g=2 comes from p=1 alone
    assert lambda_set(0, 3) == {(4, 1): 1}
    assert lambda_set(1, 1) == {(4, 1): 1, (3, 2): 1}
    assert lambda_set(2, 0) == {(5, 1): 1, (3, 3): 1}


def test_stab_module_excess_three():
    # paper table: Stab(2, n, n) = (4,1,1^{n-5}) + (3,2,1^{n-5})
    stab = stab_module(2, 5, 0)
    assert dict(stab.items()) == {(4, 1): 1, (3, 2): 1}
    stab6 = stab_module(2, 6, 0)
    assert dict(stab6.items()) == {(4, 1, 1): 1, (3, 2, 1): 1}
    with pytest.raises(ValueError):
        stab_module(2, 4, 0)


def test_stable_multiplicity_paper_values():
    # excess 3: multiplicities stabilize to 1 for (4,1) and (3,2)
    assert stable_multiplicity((4, 1), 2) == 1
    assert stable_multiplicity((3, 2), 2) == 1
    # excess 4 at g=3: 2(5,1) + (4,2) + 2(3,3)
    assert stable_multiplicity((5, 1), 3) == 2
    assert stable_multiplicity((4, 2), 3) == 1
    assert stable_multiplicity((3, 3), 3) == 2
    # excess 4 at g=5: 3(5,1)
    assert stable_multiplicity((5, 1), 5) == 3
    # excess 7 head of the table at g in {6, 7}; one more copy enters at 8
    assert stable_multiplicity((8, 1, 1, 1), 6) == 3
    assert stable_multiplicity((8, 1, 1, 1), 7) == 3
    assert stable_multiplicity((8, 1, 1, 1), 8) == 4
    assert stable_multiplicity((3, 3, 3, 2), 6) == 1


def test_stable_multiplicity_rejects_bad_shapes():
    with pytest.raises(ValueError):
        stable_multiplicity((2, 1), 3)  # |lam|=3 is not ceil(3m/2) shape/rows


@pytest.mark.parametrize("m", range(0, 7))
def test_lambda_multiset_equals_lr_formula(m):
    """The two independent constructions of the stable multiplicity must
    agree: counting Lambda members vs the Littlewood-Richardson sum."""
    bound = (3 * m + 1) // 2
    rows = (m + 1) // 2
    for g in range(1, 7):
        counted = {}
        for p in range(m % 2, min(g - 1, m) + 1, 2):
            for lam, mult in lambda_set((m - p) // 2, p).items():
                counted[lam] = counted.get(lam, 0) + mult
        for lam in enumerate_partitions(bound):
            if len(lam) != rows:
                continue
            assert counted.get(lam, 0) == stable_multiplicity(lam, g)


# ---------------------------------------------------------------------------
# vanishing


@pytest.mark.parametrize("key", [(2, 5, 5), (1, 4, 2), (2, 4, 4)])
def test_vanishing_assertions_hold(key):
    profile = homology_decomposition(build_complex(*key))
    assert verify_vanishing(profile) == []


def test_core_modules_of_genus_two_suites_match_fraction_oracle(monkeypatch):
    """Every character `core_module` decomposes in the genus-2 core-bounds
    and edge-cut-rows suites gives the Fraction oracle's decomposition."""
    seen = []

    def spy(chi):
        seen.append(chi)
        return decompose(chi)

    monkeypatch.setattr(markedgc.stability, "decompose", spy)
    assert verify_core_bounds(2, ell_max=2) == []
    assert verify_edge_cut_rows(2, ell_max=1) == []
    assert len(seen) > 100
    for chi in seen:
        assert_decompose_matches(chi)
