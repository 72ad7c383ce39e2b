import pytest

import markedgc.complexes
import markedgc.homology
from markedgc.complexes import build_complex, chain_character
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
    profile = profile_of(1, 5, 3)
    assert profile.nonzero_degrees() == [4]
    assert profile.dims[4] == 11


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


def test_euler_characteristic_of_homology():
    c = build_complex(2, 4, 4)
    profile = homology_decomposition(c)
    assert sum((-1) ** i * d for i, d in profile.dims.items()) == (
        c.euler_characteristic()
    )


def test_one_action_per_degree_and_cycle_type(monkeypatch):
    acted = []
    act = markedgc.complexes.group_action_matrix

    def spy(c, i, sigma):
        acted.append((i, perm_cycle_type(sigma)))
        return act(c, i, sigma)

    c = build_complex(3, 6, 7)
    for module in (markedgc.complexes, markedgc.homology):
        monkeypatch.setattr(module, "group_action_matrix", spy)
    profile = homology_decomposition(c)
    assert profile.nonzero_degrees() == [3, 4]
    assert acted
    assert len(set(acted)) == len(acted)


@pytest.mark.parametrize("key", [(2, 5, 5), (2, 6, 6), (3, 6, 7)], ids=str)
def test_decompose_matches_fraction_oracle_on_acceptance_complexes(key):
    c = build_complex(*key)
    profile = homology_decomposition(c)
    for i in c.degrees():
        assert_decompose_matches(chain_character(c, i))
        assert_decompose_matches(profile.characters[i])
