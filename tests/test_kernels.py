"""The search and coset kernels of `graphs` against the min()-selection
kernels they replaced, kept in `kernel_oracle`.  The one-pass
`_least_encoding` gives the oracle's least encoding and ties, in order,
over the oracle's vertex orderings, and `_orientation_sign` its sign on
the flag map of every ordering.  Coset minima and labelings of every leg
group agree exactly with the oracle's, the order of labelings included."""

import random
from itertools import permutations

import pytest

import kernel_oracle
from kernel_oracle import labeled_canonical_form
from markedgc.complexes import enumerate_unlabeled_classes
from markedgc.graphs import (
    _graph_of,
    _least_encoding,
    _orientation_sign,
    canonical_form,
)
from test_acceptance import GENUS_FOUR_SLICE
from test_complexes import d2_grid_cases
from test_graphs import REKEYING_CASES, rekeying_inputs, shuffled_copy

# B(2,6,6) adds leg groups on six legs, with marked blocks of up to six
CASES = sorted(
    set(REKEYING_CASES) | set(d2_grid_cases()) | set(GENUS_FOUR_SLICE) | {(2, 6, 6)}
)


def search_inputs(key):
    """The rekeying test's inputs for ``key``, if it has any, and shuffled
    copies of every unlabeled class of B(key)."""
    rng = random.Random(repr(key))
    graphs = rekeying_inputs(key) if key in REKEYING_CASES else []
    return graphs + [
        shuffled_copy(cls.graph, rng) for cls in enumerate_unlabeled_classes(*key)
    ]


def assert_search_matches_oracle(g):
    # without a labeling, the oracle's encodings end in a None label table
    best, ties = None, []
    for vorder in kernel_oracle._orderings(g, None):
        encoding, phi = kernel_oracle._flag_assignment(g, None, vorder)
        assert encoding[5] is None
        encoding = encoding[:5]
        # every ordering's flag map, tied or not, is signed alike
        assert _orientation_sign(g, phi) == kernel_oracle._orientation_sign(
            g, _graph_of(encoding), phi
        )
        if best is None or encoding < best:
            best, ties = encoding, [phi]
        elif encoding == best:
            ties.append(phi)
    assert _least_encoding(g) == (best, ties)
    form = canonical_form(g)
    assert (form[0].key, form.phi, form[1]) == (
        best,
        ties[0],
        kernel_oracle._orientation_sign(g, _graph_of(best), ties[0]),
    )
    assert labeled_canonical_form(g, None) == (best + (None,), form[1])


@pytest.mark.parametrize("key", CASES, ids=str)
def test_search_kernels_match_oracle(key):
    for g in search_inputs(key):
        assert_search_matches_oracle(g)


@pytest.mark.parametrize("key", CASES, ids=str)
def test_coset_kernels_match_oracle(key):
    """Every ρ when n <= 5, 200 seeded ρ otherwise."""
    rng = random.Random(repr(key))
    groups = {}
    for g in search_inputs(key):
        group = canonical_form(g)[0].leg_group
        if group is not None:
            groups.setdefault((group.n, group.blocks, group.ordered), group)
    for group in groups.values():
        assert list(group.labelings()) == list(kernel_oracle.labelings(group))
        n = group.n
        if n <= 5:
            rhos = permutations(range(n))
        else:
            rhos = (tuple(rng.sample(range(n), n)) for _ in range(200))
        for rho in rhos:
            assert group.coset_min(rho) == kernel_oracle.coset_min(group, rho)
