import pytest

import markedgc.complexes
import markedgc.graphs
import markedgc.homology
from markedgc.complexes import _targets, boundary_terms, build_complex, chain_character
from markedgc.graphs import LegGroup
from markedgc.homology import (
    differential_ranks,
    homology_decomposition,
    homology_dimensions,
)
from markedgc.reptheory import perm_cycle_type
from fraction_oracle import assert_decompose_matches
from solve_oracle import character_by_solves


def profile_of(g, n, r):
    return homology_decomposition(build_complex(g, n, r))


def cross_checked_profile(g, n, r):
    """The profile, with every nonzero degree's character checked against
    image traces recomputed by direct linear solves."""
    c = build_complex(g, n, r)
    profile = homology_decomposition(c)
    assert profile.nonzero_degrees()
    for i in profile.nonzero_degrees():
        assert profile.characters[i] == character_by_solves(c, i)
    return profile


def test_point_complex_is_rational_line():
    profile = profile_of(1, 0, 0)
    assert profile.dims == {0: 1}
    assert profile.decompositions[0].dim == 1


def test_rank_nullity_consistency():
    c = build_complex(2, 3, 3)
    ranks = differential_ranks(c)
    dims = homology_dimensions(c, ranks)
    for i in c.degrees():
        assert c.dim(i) == dims[i] + ranks.get(i, 0) + ranks.get(i + 1, 0)


def test_genus_one_concentration_with_cross_check():
    profile = cross_checked_profile(1, 4, 3)
    assert profile.nonzero_degrees() == [2]
    assert profile.dims[2] == 3
    # s(3, 2) = 3 permutations of 3 letters with 2 cycles
    assert profile.decompositions[2].dim == 3


def test_genus_one_higher_window():
    # all homology in the top degree 2(n - r), of dimension c(n - 1, r - 1),
    # the unsigned Stirling number of the first kind
    for key, dim in [((1, 5, 3), 11), ((1, 6, 3), 50), ((1, 6, 4), 35)]:
        profile = cross_checked_profile(*key)
        top = 2 * (key[1] - key[2])
        assert profile.nonzero_degrees() == [top]
        assert profile.dims[top] == dim


def test_two_nonzero_degrees_with_cross_check():
    # H_3 and H_4: d_4 is factorized for H_3, and nothing above H_4
    profile = cross_checked_profile(3, 6, 7)
    assert profile.nonzero_degrees() == [3, 4]
    assert profile.dims == {0: 0, 1: 0, 2: 0, 3: 10, 4: 89}


def test_excess_three_table_n5():
    # top homology of the first excess-3 group in the stable range
    profile = cross_checked_profile(2, 5, 5)
    assert profile.nonzero_degrees() == [3]
    dec = profile.decompositions[3]
    assert dict(dec.items()) == {(4, 1): 1, (3, 2): 1, (3, 1, 1): 1}


def test_multiplicity_accessor_and_json():
    profile = profile_of(1, 3, 2)
    i = profile.nonzero_degrees()[0]
    dec = profile.decompositions[i]
    lam = next(iter(dict(dec.items())))
    assert profile.multiplicity(i, lam) == dec[lam]
    assert profile.multiplicity(99, lam) == 0
    payload = profile.to_json()
    assert isinstance(payload, list)
    assert {entry["degree"] for entry in payload} == set(profile.dims)


def test_characters_match_dimensions():
    profile = profile_of(2, 4, 4)
    for i in profile.nonzero_degrees():
        assert profile.characters[i].dim == profile.dims[i]
        assert profile.decompositions[i].dim == profile.dims[i]


def test_character_dimension_is_checked_on_s0(monkeypatch):
    """On S_0 too, a homology character whose dimension is not the
    rank-nullity dimension is rejected."""
    c = build_complex(1, 0, 0)
    assert homology_decomposition(c).dims == {0: 1}
    characters = markedgc.homology.homology_characters

    def doubled(c, dims, ranks):
        return {i: chi + chi for i, chi in characters(c, dims, ranks).items()}

    monkeypatch.setattr(markedgc.homology, "homology_characters", doubled)
    with pytest.raises(AssertionError, match="character dimension 2"):
        homology_decomposition(c)


def test_euler_characteristic_of_homology():
    c = build_complex(2, 4, 4)
    profile = homology_decomposition(c)
    assert sum((-1) ** i * d for i, d in profile.dims.items()) == (
        c.euler_characteristic()
    )


def test_coset_passes_only_for_the_generators(monkeypatch):
    """Every walk over a degree, the chain character's and the image
    trace's alike, runs `group_action_matrix` only for (0 1) and the
    n-cycle, once each; every other cycle type's action is composed.
    Those two read the orbits' actions, so homology takes no coset
    minimum.  Built again, the complex takes one coset minimum per term
    of each class's identity column and walks no orbit."""
    calls, minima, walks = [], [], []
    act = markedgc.complexes.group_action_matrix
    coset_min, walk = LegGroup.coset_min, LegGroup._walk

    def spy(c, i, sigma):
        calls.append((i, perm_cycle_type(sigma)))
        return act(c, i, sigma)

    def spy_coset_min(group, rho):
        minima.append(rho)
        return coset_min(group, rho)

    def spy_walk(group):
        walks.append(group.structure)
        return walk(group)

    c = build_complex(3, 6, 7)
    monkeypatch.setattr(markedgc.complexes, "group_action_matrix", spy)
    monkeypatch.setattr(LegGroup, "coset_min", spy_coset_min)
    monkeypatch.setattr(LegGroup, "_walk", spy_walk)
    generators = [(2, 1, 1, 1, 1), (6,)]
    profile = homology_decomposition(c)
    assert profile.nonzero_degrees() == [3, 4]
    # the chain characters walk C_0 ... C_4, and the trace on im d_4,
    # under the nonzero H_3, walks C_4 once more; C_5 is zero
    walks_over = [0, 1, 2, 3, 4, 4]
    assert sorted(calls) == sorted((k, mu) for k in walks_over for mu in generators)
    for i in c.degrees():
        calls.clear()
        chain_character(c, i)
        assert sorted(calls) == [(i, mu) for mu in generators]
    assert minima == []

    again = build_complex(3, 6, 7)
    assert walks == []
    assert minima == [
        tau
        for i in again.degrees()
        for xi in again.basis[i]
        for _, _, tau, _ in _targets(boundary_terms(xi), again.basis.get(i - 1, {}), i)
    ]


def test_groups_of_one_structure_share_one_walk(monkeypatch):
    """Leg groups with equal (n, blocks, ordered) share one orbit, walked
    once, whichever of them asks first."""
    walks = []
    walk = LegGroup._walk

    def spy_walk(group):
        walks.append(group.structure)
        return walk(group)

    monkeypatch.setattr(markedgc.graphs, "_orbits", {})
    monkeypatch.setattr(LegGroup, "_walk", spy_walk)
    # twins {1, 2} and {3, 4}, and a tie that swaps the two pairs
    blocks = (((1, 2), True), ((3, 4), True))
    swap = ((0, 1, 2, 3, 4), 1), ((0, 3, 4, 1, 2), 1)
    first = LegGroup(5, blocks, swap)
    second = LegGroup(5, tuple(list(blocks)), tuple(list(swap)))
    assert first is not second and first.structure == second.structure
    assert first.orbit() is second.orbit()
    assert len(second.labelings()) == 15  # 5! / 8
    assert walks == [first.structure]
    # a structure that differs in blocks or in ordered has its own walk
    others = [LegGroup(5, blocks[:1], swap[:1]), LegGroup(5, blocks, swap[:1])]
    assert [len(group.labelings()) for group in others] == [60, 30]
    assert walks == [group.structure for group in [first, *others]]


@pytest.mark.parametrize(
    "key, factorized",
    [((2, 5, 5), []), ((3, 6, 7), [4]), ((1, 6, 3), [])],
    ids=str,
)
def test_only_differentials_above_a_nonzero_homology_are_factorized(
    monkeypatch, key, factorized
):
    """B(2,5,5) and the genus-1 B(1,6,3) have homology in their top degree
    only, so nothing is factorized; B(3,6,7) has H_3 and H_4 nonzero and
    C_5 zero, so only d_4 is."""
    c = build_complex(*key)
    seen = []
    factorize = markedgc.homology.column_factorization

    def spy(cols):
        seen.append(next(i for i, d in c.diff.items() if d is cols))
        return factorize(cols)

    monkeypatch.setattr(markedgc.homology, "column_factorization", spy)
    homology_decomposition(c)
    assert seen == factorized


def test_zero_homology_walks_no_degree(monkeypatch):
    """B(2,3,3) has zero homology: no chain character is taken and
    nothing is decomposed."""
    def forbidden(*args):
        raise AssertionError("called on a complex with zero homology")

    c = build_complex(2, 3, 3)
    for name in ("chain_character", "decompose", "column_factorization"):
        monkeypatch.setattr(markedgc.homology, name, forbidden)
    profile = homology_decomposition(c)
    assert profile.nonzero_degrees() == []
    assert profile.characters == profile.decompositions == {}
    assert all(row["decomposition"] == [] for row in profile.to_json())


@pytest.mark.parametrize("key", [(2, 5, 5), (2, 6, 6), (3, 6, 7)], ids=str)
def test_decompose_matches_fraction_oracle_on_acceptance_complexes(key):
    c = build_complex(*key)
    profile = homology_decomposition(c)
    for i in c.degrees():
        assert_decompose_matches(chain_character(c, i))
    assert list(profile.characters) == profile.nonzero_degrees()
    for chi in profile.characters.values():
        assert_decompose_matches(chi)
