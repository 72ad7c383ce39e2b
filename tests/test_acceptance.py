"""End-to-end acceptance suite.

Each test here corresponds to one externally checkable guarantee of the
engine: differential validity across the full desk-scale grid, agreement
of computed homology with independently known tables and oracles,
sharp-bound detection, core-graph bounds, and cross-validation of the
two constructions of the stable multiplicity formula.
"""

from fractions import Fraction

import pytest

from markedgc.complexes import (
    build_complex,
    enumerate_marked_graphs,
    enumerate_unlabeled_classes,
)
from markedgc.homology import (
    differential_ranks,
    homology_decomposition,
    homology_dimensions,
)
from markedgc.partitions import cycle_types, enumerate_partitions
from markedgc.reptheory import (
    IrrDecomposition,
    centralizer_order,
    character_value,
    decompose,
    hyperoctahedral_doubles,
    induce_from_subgroup,
    lr_coefficient,
)
from markedgc.stability import (
    check_consistent_sequence,
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
from markedgc.whitehouse import whitehouse_checks
import enumeration_oracle
from fraction_oracle import lr_by_characters
from perms import generated_subgroup


@pytest.fixture(scope="module")
def profiles():
    """Homology profiles shared between the table and vanishing criteria."""
    return {
        key: homology_decomposition(build_complex(*key))
        for key in [(2, 5, 5), (2, 6, 6), (3, 6, 7)]
    }


# ---------------------------------------------------------------------------
# criterion 1: the differential squares to zero across the grid


def test_criterion_1_d_squared_zero_grid():
    """Every complex with g <= 3, n <= 6, 0 <= excess <= 6 under 50k
    classes must build; build_complex verifies d^2 = 0 and raises
    otherwise."""
    for g in (1, 2, 3):
        for n in range(7):
            for m in range(7):
                diff = m - 3 * (g - 1)
                if diff % 2:
                    continue
                r = n - diff // 2
                if r < 0:
                    continue
                if len(enumerate_marked_graphs(g, n, r, None)) >= 50_000:
                    continue
                build_complex(g, n, r)


GENUS_FOUR_SLICE = [
    (4, 0, 2), (4, 0, 3), (4, 0, 4), (4, 1, 3),
    (4, 1, 4), (4, 2, 4), (4, 2, 5), (4, 3, 5),
]


@pytest.mark.parametrize("key", GENUS_FOUR_SLICE, ids=str)
def test_criterion_1_genus_four_slice(key):
    """Genus 4 at excess <= 5: the complex builds (d^2 = 0 is checked
    there), its Euler characteristic is its homology's, and its classes
    are the labelled enumeration's."""
    c = build_complex(*key)
    assert c.excess <= 5
    dims = homology_dimensions(c, differential_ranks(c))
    assert sum((-1) ** i * d for i, d in dims.items()) == c.euler_characteristic()
    got = enumerate_unlabeled_classes(*key)
    expected = enumeration_oracle.unlabeled_classes(*key)
    assert [(x.key, x.graph) for x in got] == [(x.key, x.graph) for x in expected]


# ---------------------------------------------------------------------------
# criterion 2: the smallest complex


def test_criterion_2_point_homology():
    profile = homology_decomposition(build_complex(1, 0, 0))
    assert profile.dims == {0: 1}
    assert profile.nonzero_degrees() == [0]


# ---------------------------------------------------------------------------
# criterion 3: genus-1 suite


def test_criterion_3_genus_one_suite():
    """Concentration, Stirling dimensions, restriction characters, and
    the two-step recursion for 2 <= r <= n <= 6."""
    report = whitehouse_checks(6)
    assert report.ok, report.violations
    entries = {(e["n"], e["r"]): e for e in report.checks if "n" in e}
    assert entries[(4, 3)]["dim"] == 3
    assert entries[(5, 3)]["dim"] == 11
    assert all(
        e["restriction_matches"]
        for e in entries.values()
        if "restriction_matches" in e
    )
    recursions = [e for e in report.checks if "recursion" in e]
    assert recursions and all(e["holds"] for e in recursions)


# ---------------------------------------------------------------------------
# criteria 4 and 5: known homology tables


def test_criterion_4_excess_three_table(profiles):
    h5 = profiles[(2, 5, 5)]
    assert h5.multiplicity(3, (4, 1)) == 1
    assert h5.multiplicity(3, (3, 2)) == 1
    h6 = profiles[(2, 6, 6)]
    assert h6.multiplicity(3, (4, 1, 1)) == 1
    assert h6.multiplicity(3, (3, 2, 1)) == 1


def test_criterion_5_excess_four_table(profiles):
    h = profiles[(3, 6, 7)]
    assert h.multiplicity(4, (5, 1)) == 2
    assert h.multiplicity(4, (4, 2)) == 1
    assert h.multiplicity(4, (3, 3)) == 2


# ---------------------------------------------------------------------------
# criterion 6: vanishing assertions on every computed homology above


def test_criterion_6_vanishing(profiles):
    for profile in profiles.values():
        assert verify_vanishing(profile) == []


# ---------------------------------------------------------------------------
# criterion 7: sharp-bound detection


def test_criterion_7_sharp_points():
    report = check_consistent_sequence(2, 0, 6)
    assert report.predicted == 5
    assert report.detected == 5
    assert report.conditions[4][2] is False  # sharpness one below

    report = check_consistent_sequence(1, 1, 5)
    assert report.predicted == 3
    assert report.detected == 3
    assert report.conditions[2][2] is False

    report = check_consistent_sequence(1, 2, 7)
    assert report.predicted == 6
    assert report.detected == 6
    assert report.conditions[5][2] is False


# ---------------------------------------------------------------------------
# criterion 8: core-graph properties


def test_criterion_8_core_bounds():
    assert verify_core_bounds(1, ell_max=2) == []
    assert verify_core_bounds(2, ell_max=2) == []
    assert verify_core_bounds(3, ell_max=0) == []
    # rho statistics of the sharpness witnesses: m + rho = 9 and 5
    assert excess(3, 0) + rho_of_core(theta_classes(3, 0)[0]) == 9
    assert excess(2, 0) + rho_of_core(theta_classes(2, 0)[1]) == 5


# ---------------------------------------------------------------------------
# criterion 9: the stable multiplicity formula


EXCESS_SEVEN_TABLE = {
    (8, 1, 1, 1): 3,
    (7, 2, 1, 1): 3,
    (6, 3, 1, 1): 4,
    (5, 4, 1, 1): 2,
    (5, 3, 2, 1): 2,
    (4, 3, 3, 1): 2,
    (3, 3, 3, 2): 1,
}


def test_criterion_9_lambda_vs_lr_formula():
    for m in range(9):
        bound = (3 * m + 1) // 2
        rows = (m + 1) // 2
        for g in range(1, 9):
            counted: dict[tuple, int] = {}
            for p in range(m % 2, min(g - 1, m) + 1, 2):
                for lam, mult in lambda_set((m - p) // 2, p).items():
                    counted[lam] = counted.get(lam, 0) + mult
            for lam in enumerate_partitions(bound):
                if len(lam) != rows:
                    continue
                assert counted.get(lam, 0) == stable_multiplicity(lam, g), (
                    m, g, lam,
                )


def test_criterion_9_stab_module_is_top_homology_at_its_row_count(profiles):
    # B(g, n, n - l) at n >= ceil(3m/2): the irreducibles of H_m with
    # exactly ceil(m/2) + (n - ceil(3m/2)) rows are stab_module(g, n, l);
    # H_m has further irreducibles with more rows
    for (g, n, r), profile in profiles.items():
        ell = n - r
        m = excess(g, ell)
        rows = (m + 1) // 2 + n - predicted_sharp_bound(g, ell)
        top = profile.decompositions[m]
        widest = {lam: mult for lam, mult in top.items() if len(lam) == rows}
        assert IrrDecomposition(n, widest) == stab_module(g, n, ell), (g, n, r)
        assert any(len(lam) > rows for lam, _ in top.items())


def test_criterion_9_excess_seven_table():
    for lam, mult in EXCESS_SEVEN_TABLE.items():
        assert stable_multiplicity(lam, 6) == mult
        assert stable_multiplicity(lam, 7) == mult


def test_criterion_9_large_case_prediction():
    # the excess-4 prediction at high genus: 3(5,1,1^2) + (4,2,1^2) + 2(3,3,1^2)
    assert stable_multiplicity((5, 1), 7) == 3
    assert stable_multiplicity((4, 2), 7) == 1
    assert stable_multiplicity((3, 3), 7) == 2


# ---------------------------------------------------------------------------
# criterion 10: representation-theory backend


def test_criterion_10_lr_coefficients():
    for n in range(2, 9):
        for lam in enumerate_partitions(n):
            for a in range(n + 1):
                for mu in enumerate_partitions(a):
                    for nu in enumerate_partitions(n - a):
                        assert lr_coefficient(lam, mu, nu) == lr_by_characters(
                            lam, mu, nu
                        )


def test_criterion_10_hyperoctahedral():
    from math import factorial

    for y in (1, 2, 3):
        n = 2 * y
        gens = []
        for i in range(y):
            swap = list(range(n))
            swap[2 * i], swap[2 * i + 1] = swap[2 * i + 1], swap[2 * i]
            gens.append(tuple(swap))
        for i in range(y - 1):
            block = list(range(n))
            block[2 * i], block[2 * i + 2] = block[2 * i + 2], block[2 * i]
            block[2 * i + 1], block[2 * i + 3] = (
                block[2 * i + 3],
                block[2 * i + 1],
            )
            gens.append(tuple(block))
        subgroup = generated_subgroup(n, gens)
        assert len(subgroup) == 2**y * factorial(y)
        induced = decompose(
            induce_from_subgroup(n, {h: 1 for h in subgroup})
        )
        assert induced == hyperoctahedral_doubles(y)


def test_criterion_10_character_orthogonality():
    from math import factorial

    for n in range(1, 8):
        irreps = enumerate_partitions(n)
        for a in irreps:
            for b in irreps:
                total = sum(
                    Fraction(factorial(n), centralizer_order(mu))
                    * character_value(a, mu)
                    * character_value(b, mu)
                    for mu in cycle_types(n)
                )
                assert total == (factorial(n) if a == b else 0)


# ---------------------------------------------------------------------------
# criterion 11: edge-cutting row bound


def test_criterion_11_edge_cut_rows():
    assert verify_edge_cut_rows(2, ell_max=1) == []
    assert verify_edge_cut_rows(3, ell_max=0) == []
