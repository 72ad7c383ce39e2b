import hashlib
import json
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from markedgc.complexes import (
    EquivariantComplex,
    boundary_terms,
    build_complex,
    cache_path,
    chain_character,
    cycle_type_actions,
    enumerate_core_graphs,
    enumerate_marked_graphs,
    enumerate_unlabeled_classes,
    group_action_matrix,
    load_enumeration,
    save_enumeration,
    stabilization_map,
    _checksum,
    _check_d_squared,
    _compose_sparse,
    _core_boundary,
    _core_classes,
    _leg_distributions,
    _leg_map,
    _skeletons,
    core_types,
)
import markedgc.graphs
import markedgc.stability
from markedgc.cli import EXIT_OK, main
from markedgc.graphs import (
    LegGroup,
    MarkedGraph,
    _graph_of,
    _least_encoding,
    _orientation_sign,
    add_marked_legs,
    assemble,
    build_theta,
    canonical_form,
    contract_edge,
    core_class,
    decode_graph,
    degree,
    encode_graph,
    insert_marked_legs,
    mark_flag,
    validate,
)
from markedgc.partitions import cycle_types
from markedgc.reptheory import (
    ClassFunction,
    cycle_type_representative,
    perm_cycle_type,
    perm_sign,
)
import enumeration_oracle
import moves_oracle
from enumeration_oracle import _edge_multisets
from kernel_oracle import label_table, labeled_canonical_form, labeled_graph_of
from perms import basis_elements, compose
from search_oracle import automorphisms, iso_det_sign
from stability_oracle import columns
from test_stability import CORE_CASES


# ---------------------------------------------------------------------------
# enumeration

_VANISHES: dict[tuple, bool] = {}


def oracle_vanishes(key):
    """Whether an automorphism of the labeled class ``key`` (a key of
    `labeled_canonical_form`) that fixes its labels reverses its
    orientation, by full search; memoised per key."""
    if key not in _VANISHES:
        g, rho = labeled_graph_of(key)
        _VANISHES[key] = any(
            iso_det_sign(g, g, phi) == -1 for phi in automorphisms(g, rho)
        )
    return _VANISHES[key]


def encode_labeled(g, rho) -> str:
    """`encode_graph`'s line for ``g`` with the labeling ``rho`` written
    into its leg-label field, as format-1 cache files held it."""
    head, _, _ = encode_graph(g).rpartition("|")
    return f"{head}|{','.join(map(str, label_table(g, rho)))}"


# Dimension tables computed once by this engine and frozen; the genus-1
# rows are independently forced by the Stirling-number dimension count
# (sum of s(n-1, r-1) over the concentration degrees).
KNOWN_DIMS = {
    (1, 2, 1): {0: 1, 1: 2, 2: 1},
    (1, 3, 2): {0: 1, 1: 3, 2: 3},
    (1, 4, 3): {0: 1, 1: 4, 2: 6},
    (2, 3, 3): {0: 1, 1: 7, 2: 15, 3: 9},
    (2, 2, 1): {0: 1, 1: 5, 2: 9, 3: 7, 4: 3, 5: 1},
    (2, 4, 4): {0: 1, 1: 9, 2: 28, 3: 24},
}


@pytest.mark.parametrize("key", sorted(KNOWN_DIMS))
def test_complex_dimensions(key):
    c = build_complex(*key)
    assert {i: c.dim(i) for i in c.degrees()} == KNOWN_DIMS[key]


def test_enumeration_sorted_and_typed():
    g, n, r = 2, 3, 3
    classes = enumerate_marked_graphs(g, n, r, None)
    degrees = [degree(xi.graph) for xi, _ in classes]
    assert degrees == sorted(degrees)
    for xi, rho in classes:
        graph = xi.graph
        assert graph.genus == g and graph.n_legs == n
        assert graph.n_marked >= r
        assert not oracle_vanishes(labeled_canonical_form(graph, rho)[0])


def test_unlabeled_enumeration_no_duplicates():
    classes = enumerate_unlabeled_classes(2, 2, 2)
    assert len({cls.key for cls in classes}) == len(classes)


# Oracle: the enumerator that places the legs first and then marks every
# admissible set of distinguished-vertex flags, legs included.


def _marking_choices(g, min_marked):
    """Subsets of dv-flags usable as the marked set (no double-marked edge)."""
    dv_flags = [f for f in range(g.nf) if g.adj[f] == 0]
    for s in range(max(min_marked, 0), len(dv_flags) + 1):
        for sub in combinations(dv_flags, s):
            chosen = set(sub)
            if any(g.inv[f] != f and g.inv[f] in chosen for f in sub):
                continue  # would double-mark a tadpole
            yield frozenset(chosen)


def oracle_enumerate_unlabeled_classes(g, n, r):
    seen = {}
    e_max = 3 * (g - 1) + n - max(r, 0)
    for ne in range(max(g - 1, 0), e_max + 1):
        nv = ne - g + 2
        if nv < 1:
            continue
        for chosen in _edge_multisets(nv, ne):
            edge_valence = [0] * nv
            for v, w in chosen:
                edge_valence[v] += 1
                edge_valence[w] += 1
            for legs_at in _leg_distributions(nv, n, edge_valence):
                base = assemble(nv, chosen, legs_at)
                if validate(base):
                    continue
                for marked in _marking_choices(base, r):
                    if ne + n - len(marked) > 3 * (g - 1) + 2 * (n - len(marked)):
                        continue  # degree above the excess: no admissible class
                    cls, _ = canonical_form(MarkedGraph(base.nv, base.adj, base.inv, marked))
                    seen.setdefault(cls.key, cls)
    return [seen[k] for k in sorted(seen)]


def d2_grid_cases():
    """The benchmark's d^2 grid: g <= 3, n <= 4, 0 <= excess <= 6."""
    cases = []
    for g in (1, 2, 3):
        for n in range(5):
            for m in range(7):
                diff = m - 3 * (g - 1)
                if diff % 2 == 0 and n - diff // 2 >= 0:
                    cases.append((g, n, n - diff // 2))
    return cases


# The complexes of the benchmark's homology workload: the three tables and
# the windows of the (2, 0) and (1, 1) stability runs.
HOMOLOGY_CASES = (
    [(2, 5, 5), (2, 6, 6), (3, 6, 7)]
    + [(2, n, n) for n in range(8)]
    + [(1, n, n - 1) for n in range(1, 7)]
)
# Genus 0 (always empty) and more marks than legs.
EDGE_CASES = [(0, n, r) for n in range(5) for r in range(n + 2)] + [
    (g, n, r) for g in (1, 2, 3) for n in range(4) for r in range(n + 1, n + 4)
]
ENUMERATION_CASES = sorted(set(d2_grid_cases() + HOMOLOGY_CASES + EDGE_CASES))


@pytest.mark.parametrize("key", ENUMERATION_CASES, ids=str)
def test_unlabeled_enumeration_matches_marking_oracle(key):
    got = enumerate_unlabeled_classes(*key)
    expected = oracle_enumerate_unlabeled_classes(*key)
    assert [(c.key, c.graph) for c in got] == [(c.key, c.graph) for c in expected]


def requested_core_types():
    """The core types that the enumeration cases and the core suite's
    cases ask `_core_classes` for."""
    types = set(CORE_CASES)
    for g, n, r in ENUMERATION_CASES:
        types.update((g, n - j, u) for j, u in core_types(g, n, r))
    return sorted(types)


@pytest.mark.parametrize("key", requested_core_types(), ids=str)
def test_core_classes_match_the_labelled_oracle(key):
    got = _core_classes(*key)
    expected = enumeration_oracle._core_classes(*key)
    assert [(c.key, c.graph) for c in got] == [(c.key, c.graph) for c in expected]


@cache
def _bare_encoding(nv, chosen):
    return markedgc.graphs._least_encoding(assemble(nv, chosen, (0,) * nv))[0]


@pytest.mark.parametrize(
    "nv, ne",
    [(nv, ne) for nv in range(1, 6) for ne in range(nv - 1, 7)],
    ids=str,
)
def test_skeleton_classes_match_the_labelled_multisets(nv, ne):
    # one class per distinct bare-skeleton encoding of the labelled
    # multisets, under every leg budget (2 per neutral vertex prunes
    # nothing) and every mark count
    budgets = {}  # encoding -> (legs needed, edges at the dv)
    for chosen in _edge_multisets(nv, ne):
        valence = [0] * nv
        for v, w in chosen:
            valence[v] += 1
            valence[w] += 1
        legs = sum(max(0, 3 - val) for val in valence[1:])
        at_dv = sum(1 for v, _ in chosen if v == 0)
        budgets.setdefault(_bare_encoding(nv, chosen), (legs, at_dv))
    for n in range(2 * (nv - 1) + 1):
        for r in range(ne + 2):
            got = [_bare_encoding(nv, chosen) for chosen in _skeletons(nv, ne, n, r)]
            expected = {
                enc for enc, (legs, at_dv) in budgets.items() if legs <= n and at_dv >= r
            }
            assert len(set(got)) == len(got)
            assert set(got) == expected, (n, r)


@pytest.mark.parametrize("key", ENUMERATION_CASES, ids=str)
def test_class_is_a_core_plus_marked_legs(key):
    g, n, r = key
    cores = {}
    seen = set()
    for cls in enumerate_unlabeled_classes(*key):
        j = len(cls.graph.marked_legs())
        u = cls.graph.n_marked - j
        if (j, u) not in cores:
            cores[j, u] = {xi.key for xi in enumerate_core_graphs(g, n - j, u)}
        xi = canonical_form(moves_oracle.core(cls.graph))[0]
        assert xi.key in cores[j, u]
        assert (xi.key, j) not in seen
        seen.add((xi.key, j))


# The lift of a class by marked legs, against the search it replaces.
LIFT_CASES = d2_grid_cases() + [(2, 5, 5), (2, 6, 6), (3, 6, 7)]


@cache
def lift_classes():
    """Every class of the lift cases, once each."""
    seen = {}
    for key in LIFT_CASES:
        for cls in enumerate_unlabeled_classes(*key):
            seen.setdefault(cls.key, cls)
    return tuple(seen.values())


def group_form(group):
    return None if group is None else (group.n, group.blocks, group.ordered)


@pytest.mark.parametrize("j", [1, 2, 3])
def test_add_marked_legs_matches_the_search(j):
    """Adding j marked legs, labelled n..n+j-1, to [cls, id] with no
    search gives the class object and leg map that canonicalizing the
    graph after j `moves_oracle.add_marked_leg` calls gives, whose sign is (-1)^(j·u)
    for u marked edge flags; the leg group is read again from that
    search's ties."""
    classes = lift_classes()
    assert len(classes) > 1000
    assert any(cls.leg_group is None for cls in classes)
    for cls in classes:
        h = cls.graph
        for _ in range(j):
            h = moves_oracle.add_marked_leg(h, (), ())[0]
        n = cls.graph.n_legs
        lifted, tau = add_marked_legs(cls, tuple(range(n)), n, j)
        encoding, ties = _least_encoding(h)
        form = canonical_form(h)
        assert lifted is form[0]
        assert lifted.key == encoding
        assert tau == _leg_map(h, form)
        u = cls.graph.n_marked - len(cls.graph.marked_legs())
        assert form[1] == (-1) ** (j * u)
        searched = LegGroup.of(h, _graph_of(encoding), ties, form[1])
        assert group_form(lifted.leg_group) == group_form(searched)


def marked_dv_labels(eta, tau):
    h = eta.graph
    return [tau[k] for k, f in enumerate(h.legs) if h.adj[f] == 0 and f in h.marked]


def test_terms_increase_along_marked_dv_legs():
    """The one fact the lift's insertion point rests on: along the marked
    dv legs of every core boundary term, tau increases.  A core term has
    at most one marked dv leg, as one move marks one flag; the lift keeps
    the fact on the terms of every class."""
    cores = {core_class(cls)[0] for cls in lift_classes()}
    terms = 0
    for kappa in cores:
        for eta, tau, _, _ in _core_boundary(kappa)[0]:
            assert len(marked_dv_labels(eta, tau)) <= 1
            terms += 1
    assert len(cores) > 300 and terms > 1000
    ordered = 0
    for cls in lift_classes():
        if _core_boundary(core_class(cls)[0])[1]:
            continue  # an inadmissible move result: no terms
        for eta, tau in boundary_terms(cls):
            labels = marked_dv_labels(eta, tau)
            assert labels == sorted(labels), (encode_graph(eta.graph), tau)
            ordered += len(labels) > 1
    assert ordered > 500


def test_inserted_marked_legs_give_a_class_graph():
    """Marked legs inserted at any place among a class graph's marked dv
    legs give a graph that is its own least encoding, reached first by
    the identity with sign +1, and the lifted leg group is the one that
    search's ties give."""
    places = 0
    for cls in lift_classes():
        g = cls.graph
        dv_legs = [f for f in g.legs if g.adj[f] == 0]
        first = len([f for f in dv_legs if f not in g.marked])
        for at in range(first, len(dv_legs) + 1):
            places += at > first
            for j in (1, 2):
                lifted = insert_marked_legs(cls, j, at)
                h = lifted.graph
                encoding, ties = _least_encoding(h)
                assert encoding == lifted.key
                assert ties[0] == tuple(range(h.nf))
                assert _orientation_sign(h, ties[0]) == 1
                searched = LegGroup.of(h, h, ties, 1)
                assert group_form(lifted.leg_group) == group_form(searched)
    assert places > 100


def test_core_class_inverts_the_insertion():
    for cls in lift_classes():
        kappa, j, at = core_class(cls)
        assert kappa is canonical_form(moves_oracle.core(cls.graph))[0]
        assert j == len(cls.graph.marked_legs())
        assert not kappa.graph.marked_legs()
        assert insert_marked_legs(kappa, j, at) is cls


def test_trivial_complex():
    c = build_complex(1, 0, 0)
    assert {i: c.dim(i) for i in c.degrees()} == {0: 1}


# ---------------------------------------------------------------------------
# the differential


@pytest.mark.parametrize("key", [(1, 3, 2), (2, 3, 3), (1, 4, 2), (3, 1, 1)])
def test_d_squared_is_zero(key):
    c = build_complex(*key)
    for i in c.degrees():
        if i - 1 not in c.diff or i not in c.diff:
            continue
        square = _compose_sparse(c.diff[i - 1], c.diff[i])
        assert all(not col for col in square)


@pytest.mark.parametrize("key", [(2, 3, 3), (1, 4, 2)], ids=str)
def test_d_squared_failure_names_the_element(key):
    c = build_complex(*key)
    i = max(c.degrees())
    # adding row ``row`` to column ``pos`` of d_i adds d_{i-1} of that
    # basis element, which is nonzero, to d_{i-1} d_i of column ``pos``
    pos, row = [
        (p, row)
        for p, col in enumerate(c.diff[i])
        for row in col
        if c.diff[i - 1][row]
    ][-1]
    diff = {k: [dict(col) for col in cols] for k, cols in c.diff.items()}
    diff[i][pos][row] += 1
    xi, rho = list(basis_elements(c, i))[pos]
    with pytest.raises(AssertionError) as failure:
        _check_d_squared(EquivariantComplex(c.g, c.n, c.r, c.basis, diff))
    assert (
        f"degree {i} basis element {pos} [{encode_graph(xi.graph)}, {rho}]: "
        in str(failure.value)
    )


def test_boundary_drops_degree_by_one():
    for xi in {xi for xi, _ in enumerate_marked_graphs(2, 2, 2, None)}:
        for (eta, tau), coeff in boundary_terms(xi).items():
            assert degree(eta.graph) == degree(xi.graph) - 1
            assert sorted(tau) == list(range(xi.graph.n_legs))
            assert coeff != 0


def test_euler_characteristic_alternating_sum():
    c = build_complex(2, 3, 3)
    assert c.euler_characteristic() == sum(
        (-1) ** i * c.dim(i) for i in c.degrees()
    )


# ---------------------------------------------------------------------------
# the group action


def test_action_is_signed_permutation():
    c = build_complex(1, 3, 2)
    sigma = cycle_type_representative((2, 1))
    for i in c.degrees():
        images, signs = group_action_matrix(c, i, sigma)
        assert set(signs) <= {1, -1}
        assert len(signs) == len(images)
        assert sorted(images) == list(range(c.dim(i)))


def as_columns(action):
    """A signed permutation as a sparse matrix, one {row: sign} per column."""
    images, signs = action
    return [{row: sign} for row, sign in zip(images, signs)]


def test_action_is_homomorphism():
    c = build_complex(1, 3, 3)
    a = cycle_type_representative((2, 1))
    b = cycle_type_representative((3,))
    ab = compose(a, b)
    for i in c.degrees():
        left = _compose_sparse(
            as_columns(group_action_matrix(c, i, a)),
            as_columns(group_action_matrix(c, i, b)),
        )
        assert left == as_columns(group_action_matrix(c, i, ab))


def test_chain_character_dimension_at_identity():
    c = build_complex(2, 3, 3)
    for i in c.degrees():
        chi = chain_character(c, i)
        assert chi((1, 1, 1)) == c.dim(i)


def test_chain_character_constant_on_class():
    c = build_complex(1, 4, 3)
    sigma = (1, 0, 3, 2)  # cycle type (2, 2)
    assert perm_cycle_type(sigma) == (2, 2)
    chi = chain_character(c, 2)
    # conjugating the representative cannot change the trace
    rep = cycle_type_representative((2, 2))
    cols_a = as_columns(group_action_matrix(c, 2, sigma))
    cols_b = as_columns(group_action_matrix(c, 2, rep))
    trace = lambda cols: sum(
        col.get(j, 0) for j, col in enumerate(cols)
    )
    assert trace(cols_a) == trace(cols_b) == chi((2, 2))


# Oracles: the group action by re-canonicalizing every relabeled basis
# element as a labeled graph, and labelings by comparing each labeling with
# its whole orbit.  Relabeling [xi, rho] by sigma gives [xi, sigma∘rho].


def labeled_index(c, i):
    """Labeled canonical key -> (position, sign) with [basis element] =
    sign·[labeled canonical class], over degree ``i``."""
    index = {}
    for pos, (xi, rho) in enumerate(basis_elements(c, i)):
        key, sign = labeled_canonical_form(xi.graph, rho)
        assert key not in index
        index[key] = (pos, sign)
    return index


def oracle_group_action_matrix(c, i, sigma):
    index = labeled_index(c, i)
    images, signs = [], []
    for xi, rho in basis_elements(c, i):
        key, sign = labeled_canonical_form(xi.graph, compose(sigma, rho))
        pos, sign2 = index[key]
        images.append(pos)
        signs.append(sign * sign2)
    return images, signs


def oracle_chain_character(c, i):
    values = {}
    for mu in cycle_types(c.n):
        sigma = cycle_type_representative(mu)
        trace = 0
        for xi, rho in basis_elements(c, i):
            source, sign = labeled_canonical_form(xi.graph, rho)
            target, sign2 = labeled_canonical_form(xi.graph, compose(sigma, rho))
            if target == source:
                trace += sign * sign2
        values[mu] = Fraction(trace)
    return ClassFunction(c.n, values)


def oracle_labelings(g, n):
    """Each labeling rho that is lex-least among rho∘p over the leg
    permutations p of g's automorphisms, by full search."""
    legs = g.legs
    index = {f: i for i, f in enumerate(legs)}
    leg_perms = {
        tuple(index[phi[f]] for f in legs) for phi in automorphisms(g, None)
    }
    for rho in permutations(range(n)):
        if all(rho <= compose(rho, p) for p in leg_perms):
            yield rho


def coset_representatives(n):
    """Cycle-type representatives and the transpositions (j, n)."""
    reps = [cycle_type_representative(mu) for mu in cycle_types(n)]
    for j in range(n - 1):
        t = list(range(n))
        t[j], t[n - 1] = t[n - 1], t[j]
        reps.append(tuple(t))
    return reps


def assert_action_matches_oracle(c, sigmas):
    for i in c.degrees():
        for sigma in sigmas:
            assert group_action_matrix(c, i, sigma) == oracle_group_action_matrix(
                c, i, sigma
            )
        assert chain_character(c, i) == oracle_chain_character(c, i)


@pytest.mark.parametrize(
    "key", [(1, 3, 3), (2, 3, 3), (2, 4, 4), (2, 4, 3), (3, 4, 5), (1, 5, 4)]
)
def test_action_matches_oracle_on_all_of_sn(key):
    c = build_complex(*key)
    assert_action_matches_oracle(c, list(permutations(range(c.n))))


@pytest.mark.parametrize("key", [(2, 5, 5), (2, 6, 6)])
def test_action_matches_oracle_on_coset_representatives(key):
    c = build_complex(*key)
    assert_action_matches_oracle(c, coset_representatives(c.n))


def test_action_matches_oracle_on_cached_basis(tmp_path):
    build_complex(2, 4, 3, cache_dir=tmp_path)
    assert load_enumeration(tmp_path, 2, 4, 3) is not None
    c = build_complex(2, 4, 3, cache_dir=tmp_path)
    assert_action_matches_oracle(c, coset_representatives(c.n))


def composition_parent(mu):
    """The cycle type whose action `cycle_type_actions` composes mu's
    from: mu with its last part above 1 dropped when that part is 2 and
    lowered by one otherwise; None for the identity's type."""
    parts = [p for p in mu if p > 1]
    if not parts:
        return None
    if parts[-1] == 2:
        parts.pop()
    else:
        parts[-1] -= 1
    return tuple(parts) + (1,) * (sum(mu) - sum(parts))


@pytest.mark.parametrize(
    "key",
    [(1, 3, 3), (2, 3, 3), (2, 4, 4), (2, 4, 3), (3, 4, 5), (1, 5, 4)]
    + [(2, 5, 5), (2, 6, 6), (3, 6, 7)]
    + [key for key in d2_grid_cases() if key[1] <= 2],
    ids=str,
)
def test_cycle_type_actions_match_group_action_matrix(key):
    """Every composed action is, entry for entry, the coset-minimum action
    of the cycle type's representative, and every cycle type comes once,
    after its parent."""
    c = build_complex(*key)
    assert c.degrees()
    for i in c.degrees():
        order = []
        for mu, action in cycle_type_actions(c, i):
            parent = composition_parent(mu)
            assert parent is None or parent in order, (mu, order)
            assert action == group_action_matrix(c, i, cycle_type_representative(mu))
            order.append(mu)
        assert sorted(order) == sorted(cycle_types(c.n))
        assert len(set(order)) == len(order)


@pytest.mark.parametrize(
    "key",
    [(2, 4, 3), (3, 4, 5), (2, 5, 5), (2, 6, 6), (3, 6, 7), (1, 6, 5), (2, 6, 5)],
)
def test_labelings_match_oracle(key):
    n = key[1]
    for unl in enumerate_unlabeled_classes(*key):
        expected = list(oracle_labelings(unl.graph, n))
        group = unl.leg_group
        if group is None:
            # an odd automorphism fixes every leg: all labelings vanish
            assert all(
                oracle_vanishes(labeled_canonical_form(unl.graph, rho)[0])
                for rho in expected
            )
        else:
            assert list(group.labelings()) == expected


def _leg_groups(key):
    return [
        unl.leg_group
        for unl in enumerate_unlabeled_classes(*key)
        if unl.leg_group is not None
    ]


# B(2,5,5) and B(2,6,6) have marked blocks of up to six legs, and B(3,3,3)
# has groups with up to six tied orderings
LEG_GROUPS = [
    group for key in ((2, 5, 5), (2, 6, 6), (3, 3, 3)) for group in _leg_groups(key)
]


def test_leg_groups_cover_ties_and_marked_blocks():
    assert max(len(group.ordered) for group in LEG_GROUPS) >= 6
    assert any(
        len(group.ordered) > 1 and any(marked for _, marked in group.blocks)
        for group in LEG_GROUPS
    )
    assert max(len(ks) for group in LEG_GROUPS for ks, _ in group.blocks) >= 6


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_coset_min_is_brute_force_min(data):
    group = data.draw(st.sampled_from(LEG_GROUPS))
    elements = group.elements()
    rho = tuple(data.draw(st.permutations(range(group.n))))
    best = min(elements, key=lambda h: compose(rho, h))
    assert group.coset_min(rho) == (compose(rho, best), elements[best])


@pytest.mark.parametrize("u", [0, 1])
def test_seven_marked_legs_at_the_dv_form_one_block(u):
    identity = tuple(range(7))
    cores = enumerate_core_graphs(2, 0, u)
    assert cores
    for xi in cores:
        graph = xi.graph
        for _ in range(7):
            graph = moves_oracle.add_marked_leg(graph, (), ())[0]
        group = canonical_form(graph)[0].leg_group
        assert group.blocks == ((identity, True),)
        assert group.ordered == ((identity, 1),)
        assert len(group.elements()) == 5040


# ---------------------------------------------------------------------------
# stabilization


def test_stabilization_is_injective_chain_map():
    # one signed image per basis element, the images distinct; the chain
    # map check runs inside stabilization_map
    src = build_complex(1, 3, 2)
    target = build_complex(1, 4, 3)
    psi = stabilization_map(src, target)
    assert sorted(psi) == src.degrees()
    for i, (images, signs) in psi.items():
        assert len(images) == len(signs) == src.dim(i)
        assert len(set(images)) == len(images)
        assert set(images) <= set(range(target.dim(i)))
        assert set(signs) <= {1, -1}


# ---------------------------------------------------------------------------
# the moves against the order-taking moves they replaced


def reference_sign(h, edge_order, d_order):
    """The sign of the orders (edge_order, d_order) on h against h's
    reference orientation (sorted edges, sorted marks)."""
    edges = h.edges
    marks = sorted(h.marked)
    return perm_sign([edges.index(e) for e in edge_order]) * perm_sign(
        [marks.index(f) for f in d_order]
    )


@pytest.mark.parametrize("key", d2_grid_cases(), ids=str)
def test_moves_match_order_taking_oracle(key):
    for cls in enumerate_unlabeled_classes(*key):
        g = cls.graph
        eo, do = g.edges, tuple(sorted(g.marked))
        for e in g.edges:
            got = contract_edge(g, e)
            expected = [
                (h, s * reference_sign(h, eo2, do2))
                for h, eo2, do2, s in moves_oracle.contract_edge(g, e, eo, do)
            ]
            assert got == expected
        for f in range(g.nf):
            if g.adj[f] == 0 and f not in g.marked:
                got = mark_flag(g, f)
                old = moves_oracle.mark_flag(g, f, eo, do)
                if old is None:
                    assert got is None
                else:
                    h, eo2, do2, s = old
                    assert got == (h, s * reference_sign(h, eo2, do2))
        h, eo2, do2 = moves_oracle.add_marked_leg(g, eo, do)
        assert reference_sign(h, eo2, do2) == 1


def per_move_boundary_terms(xi):
    """`boundary_terms` as it was before moves were summed per result
    graph: every move is validated and canonicalized on its own."""
    g = xi.graph
    out = {}

    def accumulate(result, factor):
        h, s = result
        bad = validate(h)
        if bad:
            raise AssertionError(f"inadmissible boundary term from {encode_graph(g)}: {bad}")
        form = canonical_form(h)
        term = (form[0], _leg_map(h, form))
        out[term] = out.get(term, 0) + factor * s * form[1]

    for e in g.edges:
        for result in contract_edge(g, e):
            accumulate(result, 1)
    mark_sign = -1 if g.n_edges % 2 else 1
    for f in range(g.nf):
        if g.adj[f] == 0 and f not in g.marked:
            result = mark_flag(g, f)
            if result is not None:
                accumulate(result, mark_sign)
    return {t: v for t, v in out.items() if v}


@pytest.mark.parametrize(
    "key", d2_grid_cases() + [(2, 5, 5), (2, 6, 6), (3, 6, 7)], ids=str
)
def test_boundary_terms_match_per_move_oracle(key):
    """Same terms, coefficients and term order as canonicalizing every
    move on its own, or the same error where a move is inadmissible."""
    for xi in enumerate_unlabeled_classes(*key):
        try:
            expected = list(per_move_boundary_terms(xi).items())
        except AssertionError as failure:
            with pytest.raises(AssertionError) as got:
                boundary_terms(xi)
            assert str(got.value) == str(failure)
        else:
            assert list(boundary_terms(xi).items()) == expected


def test_boundary_is_computed_once_per_class(monkeypatch):
    """The move loop runs once per core: building B(2,5,5) and then
    B(2,5,4) runs it once for each core of their classes, and every other
    class's boundary is lifted from its core's.  A build from an empty
    memo gives the same differential."""

    def cores(key):
        return {
            canonical_form(moves_oracle.core(xi.graph))[0]
            for xi in enumerate_unlabeled_classes(*key)
            if xi.leg_group is not None
        }

    requested = []

    def spy(xi):
        requested.append(xi)
        return boundary_terms(xi)

    first, second = cores((2, 5, 5)), cores((2, 5, 4))
    assert first < second
    monkeypatch.setattr(markedgc.complexes, "boundary_terms", spy)
    _core_boundary.cache_clear()
    build_complex(2, 5, 5)
    assert _core_boundary.cache_info().misses == len(first)
    after = build_complex(2, 5, 4)
    info = _core_boundary.cache_info()
    assert info.misses == len(second)
    assert info.hits + info.misses == len(requested) > len(second)
    _core_boundary.cache_clear()
    fresh = build_complex(2, 5, 4)
    assert (after.basis, after.diff) == (fresh.basis, fresh.diff)


# ---------------------------------------------------------------------------
# the labeled path, kept as an oracle: every labeled class is canonicalized
# as a labeled graph by `labeled_canonical_form`, and the boundary and the
# stabilization map are taken class by class.  A labeled class is its key.
# The moves keep the legs in flag order, so a labeling carries through
# them unchanged, and adjoining a leg appends n to it.


def oracle_enumerate_marked_graphs(g, n, r):
    out = set()
    for unl in enumerate_unlabeled_classes(g, n, r):
        group = unl.leg_group
        if group is None:
            continue
        for rho in group.labelings():
            key, _ = labeled_canonical_form(unl.graph, rho)
            assert not oracle_vanishes(key)
            out.add(key)
    return sorted(out, key=lambda key: (degree(labeled_graph_of(key)[0]), key))


def oracle_boundary_terms(key):
    g, rho = labeled_graph_of(key)
    out = {}

    def accumulate(result, factor):
        h, s = result
        assert not validate(h)
        target, s2 = labeled_canonical_form(h, rho)
        if not oracle_vanishes(target):
            out[target] = out.get(target, 0) + factor * s * s2

    for e in g.edges:
        for result in contract_edge(g, e):
            accumulate(result, 1)
    mark_sign = -1 if g.n_edges % 2 else 1
    for f in range(g.nf):
        if g.adj[f] == 0 and f not in g.marked:
            result = mark_flag(g, f)
            if result is not None:
                accumulate(result, mark_sign)
    return {c: v for c, v in out.items() if v}


@cache
def oracle_build_complex(g, n, r):
    """(basis, index, diff) of the labeled path."""
    basis = {}
    for key in oracle_enumerate_marked_graphs(g, n, r):
        basis.setdefault(degree(labeled_graph_of(key)[0]), []).append(key)
    index = {key: (i, pos) for i, b in basis.items() for pos, key in enumerate(b)}
    diff = {}
    for i in sorted(basis):
        cols = []
        for key in basis[i]:
            col = {}
            for target, coeff in oracle_boundary_terms(key).items():
                deg, pos = index[target]
                assert deg == i - 1
                col[pos] = coeff
            cols.append(col)
        diff[i] = cols
    return basis, index, diff


def oracle_stabilization_cols(key):
    g, n, r = key
    basis, _, _ = oracle_build_complex(g, n, r)
    _, index, _ = oracle_build_complex(g, n + 1, r + 1)
    cols = {}
    for i, sources in basis.items():
        cols[i] = []
        for source in sources:
            graph, rho = labeled_graph_of(source)
            target, sign = labeled_canonical_form(
                moves_oracle.add_marked_leg(graph, (), ())[0], rho + (n,)
            )
            if oracle_vanishes(target):
                cols[i].append({})
                continue
            deg, pos = index[target]
            assert deg == i
            cols[i].append({pos: sign})
    return cols


def basis_permutation(c):
    """Degree -> [(oracle position, sign)] with [the p-th degree-i basis
    element] = sign·[oracle class], found by canonicalizing each basis
    graph; checks it is a bijection onto the oracle's basis."""
    basis, index, _ = oracle_build_complex(c.g, c.n, c.r)
    assert c.degrees() == sorted(basis)
    perm = {}
    for i in c.degrees():
        perm[i] = []
        for xi, rho in basis_elements(c, i):
            target, sign = labeled_canonical_form(xi.graph, rho)
            deg, pos = index[target]
            assert deg == i
            perm[i].append((pos, sign))
        assert sorted(q for q, _ in perm[i]) == list(range(len(basis[i])))
    return perm


def in_oracle_basis(cols, source_perm, target_perm):
    """A matrix between new bases, rewritten between the oracle's bases."""
    out = [None] * len(cols)
    for p, col in enumerate(cols):
        q, s = source_perm[p]
        out[q] = {target_perm[row][0]: s * target_perm[row][1] * v for row, v in col.items()}
    return out


def assert_differential_matches_oracle(c):
    _, _, diff = oracle_build_complex(c.g, c.n, c.r)
    perm = basis_permutation(c)
    for i in c.degrees():
        assert in_oracle_basis(c.diff[i], perm[i], perm.get(i - 1, [])) == diff[i]
    return perm


# The stability windows of the benchmark's homology workload:
# `stability --g 2 --l 0 --window 6` and `--g 1 --l 1 --window 5`.
WINDOW_CASES = [(2, n, n) for n in range(7)] + [(1, n, n - 1) for n in range(1, 6)]
ORACLE_CASES = sorted(
    set(d2_grid_cases() + [(2, 5, 5), (2, 6, 6), (3, 6, 7)] + WINDOW_CASES)
    | {(g, n + 1, r + 1) for g, n, r in WINDOW_CASES}
)


@pytest.mark.parametrize("key", ORACLE_CASES, ids=str)
def test_differential_matches_labeled_oracle(key):
    assert_differential_matches_oracle(build_complex(*key))


@pytest.mark.parametrize("key", WINDOW_CASES, ids=str)
def test_stabilization_matches_labeled_oracle(key):
    g, n, r = key
    src = build_complex(g, n, r)
    target = build_complex(g, n + 1, r + 1)
    psi = stabilization_map(src, target)
    source_perm = basis_permutation(src)
    target_perm = basis_permutation(target)
    expected = oracle_stabilization_cols(key)
    assert sorted(psi) == sorted(expected)
    for i, psi_i in psi.items():
        got = in_oracle_basis(columns(psi_i), source_perm[i], target_perm.get(i, []))
        assert got == expected[i]


def test_cached_differential_matches_labeled_oracle(tmp_path):
    build_complex(2, 4, 3, cache_dir=tmp_path)
    assert load_enumeration(tmp_path, 2, 4, 3) is not None
    assert_differential_matches_oracle(build_complex(2, 4, 3, cache_dir=tmp_path))


def test_one_search_per_canonical_form(tmp_path, monkeypatch):
    counts = {"canonical_form": 0, "search": 0}
    search = markedgc.graphs._least_encoding
    canonicalize = markedgc.graphs.canonical_form

    def spy_search(g):
        counts["search"] += 1
        return search(g)

    def spy_canonical_form(g):
        counts["canonical_form"] += 1
        return canonicalize(g)

    monkeypatch.setattr(markedgc.graphs, "_least_encoding", spy_search)
    for module in (markedgc.graphs, markedgc.complexes, markedgc.stability):
        monkeypatch.setattr(module, "canonical_form", spy_canonical_form)
    markedgc.graphs._class_cache.clear()
    _core_classes.cache_clear()  # it holds classes of the cleared cache
    cls, _ = markedgc.graphs.canonical_form(build_theta(3, 1, 0))
    assert counts == {"canonical_form": 1, "search": 1}
    assert cls.leg_group is not None
    assert counts["search"] == 1  # the group came with the class

    build_complex(2, 5, 5, cache_dir=tmp_path)
    assert load_enumeration(tmp_path, 2, 5, 5) is not None
    build_complex(2, 5, 5, cache_dir=tmp_path)
    assert markedgc.stability.verify_edge_cut_rows(2, 1) == []
    assert counts["search"] == counts["canonical_form"] > 1


@pytest.mark.parametrize("key", [(2, 4, 3), (2, 3, 3)], ids=str)
def test_a_labeled_class_has_a_leg_group_unless_it_vanishes(key):
    # the automorphisms that fix the labels of [xi, rho] fix every leg, so
    # it vanishes, under every rho alike, exactly when xi has no leg group
    n = key[1]
    outcomes = set()
    for unl in enumerate_unlabeled_classes(*key):
        for rho in permutations(range(n)):
            vanishes = oracle_vanishes(labeled_canonical_form(unl.graph, rho)[0])
            assert (unl.leg_group is None) == vanishes
            outcomes.add(vanishes)
    assert outcomes == {False, True}


# ---------------------------------------------------------------------------
# cache


def test_cache_roundtrip_identical(tmp_path):
    first = enumerate_marked_graphs(1, 4, 3, cache_dir=tmp_path)
    path = cache_path(tmp_path, 1, 4, 3)
    assert path.exists()
    text = path.read_text()
    again = enumerate_marked_graphs(1, 4, 3, cache_dir=tmp_path)
    assert again == first  # classes compare by key
    # reserialization is byte-identical
    save_enumeration(tmp_path, 1, 4, 3, again)
    assert path.read_text() == text


def test_cache_corruption_detected(tmp_path):
    enumerate_marked_graphs(1, 3, 2, cache_dir=tmp_path)
    path = cache_path(tmp_path, 1, 3, 2)
    lines = path.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]  # break the checksum
    path.write_text("\n".join(lines) + "\n")
    assert load_enumeration(tmp_path, 1, 3, 2) is None
    # enumeration falls back to recomputation and still agrees
    classes = enumerate_marked_graphs(1, 3, 2, cache_dir=tmp_path)
    assert len(classes) == 7


def test_cache_version_bump_recomputes(tmp_path):
    enumerate_marked_graphs(1, 3, 2, cache_dir=tmp_path)
    path = cache_path(tmp_path, 1, 3, 2)
    head, _, body = path.read_text().partition("\n")
    header = json.loads(head)
    header["format"] = 999
    path.write_text(json.dumps(header) + "\n" + body)
    assert load_enumeration(tmp_path, 1, 3, 2) is None


def test_cache_header_not_an_object_recomputes(tmp_path):
    enumerate_marked_graphs(1, 3, 2, cache_dir=tmp_path)
    path = cache_path(tmp_path, 1, 3, 2)
    _, _, body = path.read_text().partition("\n")
    path.write_text("[1,2]\n" + body)
    assert load_enumeration(tmp_path, 1, 3, 2) is None
    classes = enumerate_marked_graphs(1, 3, 2, cache_dir=tmp_path)
    assert len(classes) == 7
    assert load_enumeration(tmp_path, 1, 3, 2) is not None


def test_partial_temp_file_is_never_read(tmp_path, monkeypatch):
    classes = enumerate_marked_graphs(1, 3, 2, None)
    path = cache_path(tmp_path, 1, 3, 2)

    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr("markedgc.complexes.os.replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        save_enumeration(tmp_path, 1, 3, 2, classes)
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == []
    # a partial write left behind by a killed process is ignored
    save_enumeration(tmp_path, 1, 3, 2, classes)
    text = path.read_text()
    path.unlink()
    leftover = tmp_path / f"{path.name}.99999.tmp"
    leftover.write_text(text[: len(text) // 2])
    assert load_enumeration(tmp_path, 1, 3, 2) is None
    again = enumerate_marked_graphs(1, 3, 2, cache_dir=tmp_path)
    assert again == classes  # classes compare by key
    assert path.read_text() == text


def test_format_1_cache_is_recomputed_and_rewritten(tmp_path, capsys):
    classes = [labeled_graph_of(key) for key in oracle_enumerate_marked_graphs(1, 3, 2)]
    body = "".join(f"{degree(g)}|{encode_labeled(g, rho)}\n" for g, rho in classes)
    header = {
        "format": 1,
        "g": 1,
        "n": 3,
        "r": 2,
        "count": len(classes),
        "checksum": hashlib.sha256(body.encode()).hexdigest(),
    }
    path = cache_path(tmp_path, 1, 3, 2)
    path.write_text(json.dumps(header) + "\n" + body)
    argv = ["complex", "--g", "1", "--n", "3", "--r", "2", "--format", "json"]
    assert main(argv) == EXIT_OK
    expected = json.loads(capsys.readouterr().out)
    assert main(argv + ["--cache-dir", str(tmp_path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == expected
    assert json.loads(path.read_text().partition("\n")[0])["format"] == 2
    assert load_enumeration(tmp_path, 1, 3, 2) is not None


# The cache file of B(1,3,2), byte for byte: the format-2 layout, each
# class's line with its leg-label field ``*``.
B_1_3_2_CACHE = (
    '{"format": 2, "g": 1, "n": 3, "r": 2, "count": 7, "checksum": '
    '"88c8bce9976493ce05ea3cf7e479c7650121c4c45255aa396f134e7ba7c36596"}\n'
    "0|1|0|0,0,0|0,1,2|0,1,2|*\n"
    "1|1|0|0,0,0|0,1,2|1,2|*\n"
    "2|2|0|0,0,1,1,1|0,2,1,3,4|0,1|*\n"
)


def test_cache_format_2_bytes_are_pinned(tmp_path):
    enumerate_marked_graphs(1, 3, 2, cache_dir=tmp_path)
    path = cache_path(tmp_path, 1, 3, 2)
    assert path.read_text() == B_1_3_2_CACHE
    path.write_text(B_1_3_2_CACHE)
    assert load_enumeration(tmp_path, 1, 3, 2) == enumerate_marked_graphs(1, 3, 2, None)


@pytest.mark.parametrize(
    "body",
    ["", "0|1|0|0,0,0|0,1,2|0,1,2|*\n", B_1_3_2_CACHE.partition("\n")[2]],
    ids=["empty", "one line", "cache body"],
)
def test_checksum_is_hashlib_sha256(body):
    assert _checksum(body) == hashlib.sha256(body.encode()).hexdigest()


def assert_b_1_3_2_body_is_recomputed_and_rewritten(tmp_path, capsys, body):
    """A well-formed format-2 file of B(1,3,2) with ``body`` (header,
    count and checksum all agree) is a miss: the CLI recomputes, prints
    what it prints with no cache, and rewrites the file."""
    header = json.loads(B_1_3_2_CACHE.partition("\n")[0])
    header["checksum"] = hashlib.sha256(body.encode()).hexdigest()
    path = cache_path(tmp_path, 1, 3, 2)
    path.write_text(json.dumps(header) + "\n" + body)
    assert load_enumeration(tmp_path, 1, 3, 2) is None
    argv = ["complex", "--g", "1", "--n", "3", "--r", "2", "--format", "json"]
    assert main(argv) == EXIT_OK
    expected = json.loads(capsys.readouterr().out)
    assert main(argv + ["--cache-dir", str(tmp_path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == expected
    assert path.read_text() == B_1_3_2_CACHE


def test_cache_lines_with_leg_labels_are_recomputed_and_rewritten(tmp_path, capsys):
    # lines that carry leg labels, as format 1 wrote them
    lines = B_1_3_2_CACHE.splitlines()[1:]
    body = ""
    for line in lines:
        deg, _, text = line.partition("|")
        g = decode_graph(text)
        body += f"{deg}|{encode_labeled(g, tuple(range(g.n_legs)))}\n"
    assert_b_1_3_2_body_is_recomputed_and_rewritten(tmp_path, capsys, body)


def test_cache_line_with_its_dv_at_vertex_1_is_recomputed_and_rewritten(
    tmp_path, capsys
):
    # the last line's dv field reads 1; the dv is vertex 0 by definition,
    # so the line itself is rejected
    lines = B_1_3_2_CACHE.splitlines(keepends=True)[1:]
    deg, nv, dv, rest = lines[-1].split("|", 3)
    assert (deg, nv, dv) == ("2", "2", "0")
    lines[-1] = f"{deg}|{nv}|1|{rest}"
    with pytest.raises(ValueError):
        decode_graph(lines[-1].partition("|")[2])
    assert_b_1_3_2_body_is_recomputed_and_rewritten(tmp_path, capsys, "".join(lines))
