import hashlib
import json
from dataclasses import replace
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from markedgc.complexes import (
    boundary_terms,
    build_complex,
    cache_path,
    chain_character,
    enumerate_core_graphs,
    enumerate_marked_graphs,
    enumerate_unlabeled_classes,
    group_action_matrix,
    load_enumeration,
    save_enumeration,
    stabilization_map,
    _assemble,
    _compose_sparse,
    _core_classes,
    _edge_multisets,
    _leg_distributions,
)
import markedgc.graphs
import markedgc.stability
from markedgc.cli import EXIT_OK, main
from markedgc.graphs import (
    add_marked_leg,
    build_theta,
    canonical_form,
    contract_edge,
    core,
    degree,
    encode_graph,
    label_legs,
    mark_flag,
    validate,
)
from markedgc.homology import homology_decomposition
from markedgc.partitions import cycle_types
from markedgc.reptheory import (
    ClassFunction,
    cycle_type_representative,
    perm_cycle_type,
    perm_sign,
)
import moves_oracle
from perms import compose, relabel_legs
from search_oracle import automorphisms, iso_det_sign


# ---------------------------------------------------------------------------
# enumeration

_VANISHES: dict[tuple, bool] = {}


def oracle_vanishes(cls):
    """Whether an automorphism of the class (leg labels respected) reverses
    its orientation, by full search; memoised per class key."""
    if cls.key not in _VANISHES:
        g = cls.graph
        _VANISHES[cls.key] = any(
            iso_det_sign(g, g, phi) == -1 for phi in automorphisms(g)
        )
    return _VANISHES[cls.key]


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
    degrees = [degree(cls.graph) for cls in classes]
    assert degrees == sorted(degrees)
    for cls in classes:
        assert cls.graph.genus == g and cls.graph.n_legs == n
        assert cls.graph.n_marked >= r
        assert not oracle_vanishes(canonical_form(cls.graph)[0])


def test_unlabeled_enumeration_no_duplicates():
    classes = enumerate_unlabeled_classes(2, 2, 2)
    assert len({cls.key for cls in classes}) == len(classes)


# Oracle: the enumerator that places the legs first and then marks every
# admissible set of distinguished-vertex flags, legs included.


def _marking_choices(g, min_marked):
    """Subsets of dv-flags usable as the marked set (no double-marked edge)."""
    dv_flags = [f for f in range(g.nf) if g.adj[f] == g.dv]
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
                base = _assemble(nv, chosen, legs_at)
                if validate(base):
                    continue
                for marked in _marking_choices(base, r):
                    if ne + n - len(marked) > 3 * (g - 1) + 2 * (n - len(marked)):
                        continue  # degree above the excess: no admissible class
                    cls, _ = canonical_form(replace(base, marked=marked))
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
        xi = canonical_form(core(cls.graph))[0]
        assert xi.key in cores[j, u]
        assert (xi.key, j) not in seen
        seen.add((xi.key, j))


def test_trivial_complex():
    c = build_complex(1, 0, 0)
    assert {i: c.dim(i) for i in c.degrees()} == {0: 1}


# ---------------------------------------------------------------------------
# the differential


@pytest.mark.parametrize("key", [(1, 3, 2), (2, 3, 3), (1, 4, 2)])
def test_d_squared_is_zero(key):
    c = build_complex(*key)
    for i in c.degrees():
        if i - 1 not in c.diff or i not in c.diff:
            continue
        square = _compose_sparse(c.diff[i - 1], c.diff[i])
        assert all(not col for col in square)


def test_boundary_drops_degree_by_one():
    for xi in {cls.xi for cls in enumerate_marked_graphs(2, 2, 2, None)}:
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
        cols = group_action_matrix(c, i, sigma)
        images = []
        for col in cols:
            (row, sign), = col.items()
            assert sign in (1, -1)
            images.append(row)
        assert sorted(images) == list(range(c.dim(i)))


def test_action_is_homomorphism():
    c = build_complex(1, 3, 3)
    a = cycle_type_representative((2, 1))
    b = cycle_type_representative((3,))
    ab = compose(a, b)
    for i in c.degrees():
        left = _compose_sparse(
            group_action_matrix(c, i, a), group_action_matrix(c, i, b)
        )
        assert left == group_action_matrix(c, i, ab)


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
    cols_a = group_action_matrix(c, 2, sigma)
    cols_b = group_action_matrix(c, 2, rep)
    trace = lambda cols: sum(
        col.get(j, 0) for j, col in enumerate(cols)
    )
    assert trace(cols_a) == trace(cols_b) == chi((2, 2))


# Oracles: the group action by re-canonicalizing every relabeled basis
# graph, and labelings by comparing each assignment with its whole orbit.


def labeled_index(c, i):
    """Labeled canonical key -> (position, sign) with [basis element] =
    sign·[labeled canonical class], over degree ``i``."""
    index = {}
    for pos, cls in enumerate(c.basis.get(i, ())):
        target, sign = canonical_form(cls.graph)
        assert target.key not in index
        index[target.key] = (pos, sign)
    return index


def oracle_group_action_matrix(c, i, sigma):
    lut = {k + 1: sigma[k] + 1 for k in range(len(sigma))}
    index = labeled_index(c, i)
    cols = []
    for cls in c.basis.get(i, ()):
        target, sign = canonical_form(relabel_legs(cls.graph, lut))
        pos, sign2 = index[target.key]
        cols.append({pos: sign * sign2})
    return cols


def oracle_chain_character(c, i):
    values = {}
    for mu in cycle_types(c.n):
        lut = {k + 1: v + 1 for k, v in enumerate(cycle_type_representative(mu))}
        trace = 0
        for cls in c.basis.get(i, ()):
            source, sign = canonical_form(cls.graph)
            target, sign2 = canonical_form(relabel_legs(cls.graph, lut))
            if target.key == source.key:
                trace += sign * sign2
        values[mu] = Fraction(trace)
    return ClassFunction(c.n, values)


def oracle_labelings(g, n):
    legs = g.legs
    index = {f: i for i, f in enumerate(legs)}
    leg_perms = {tuple(index[phi[f]] for f in legs) for phi in automorphisms(g)}
    for assignment in permutations(range(1, n + 1)):
        if all(
            assignment <= tuple(assignment[p[i]] for i in range(n))
            for p in leg_perms
        ):
            yield {legs[i]: assignment[i] for i in range(n)}


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
                oracle_vanishes(canonical_form(label_legs(unl.graph, a))[0])
                for a in expected
            )
        else:
            legs = unl.graph.legs
            assert list(group.labelings()) == [
                tuple(a[f] - 1 for f in legs) for a in expected
            ]


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
            graph = add_marked_leg(graph)
        group = canonical_form(graph)[0].leg_group
        assert group.blocks == ((identity, True),)
        assert group.ordered == ((identity, 1),)
        assert len(group.elements()) == 5040


# ---------------------------------------------------------------------------
# stabilization


def test_stabilization_is_injective_chain_map():
    src = build_complex(1, 3, 2)
    psi = stabilization_map(src, build_complex(1, 4, 3))
    assert psi.target.n == 4 and psi.target.r == 3
    for i in src.degrees():
        # one nonzero entry per column: induced by a basis-to-basis map
        for col in psi.cols[i]:
            assert len(col) <= 1


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
        legs = cls.graph.legs
        labeled = label_legs(cls.graph, {f: k + 1 for k, f in enumerate(legs)})
        for g in (cls.graph, labeled):
            eo, do = g.edges, tuple(sorted(g.marked))
            for e in g.edges:
                got = contract_edge(g, e)
                expected = [
                    (h, s * reference_sign(h, eo2, do2))
                    for h, eo2, do2, s in moves_oracle.contract_edge(g, e, eo, do)
                ]
                assert got == expected
            for f in range(g.nf):
                if g.adj[f] == g.dv and f not in g.marked:
                    got = mark_flag(g, f)
                    old = moves_oracle.mark_flag(g, f, eo, do)
                    if old is None:
                        assert got is None
                    else:
                        h, eo2, do2, s = old
                        assert got == (h, s * reference_sign(h, eo2, do2))
            h, eo2, do2 = moves_oracle.add_marked_leg(g, eo, do)
            assert add_marked_leg(g) == h
            assert reference_sign(h, eo2, do2) == 1


# ---------------------------------------------------------------------------
# the labeled path, kept as an oracle: every labeled class is canonicalized
# as a labeled graph, and the boundary and the stabilization map are taken
# class by class


def oracle_enumerate_marked_graphs(g, n, r):
    out = {}
    for unl in enumerate_unlabeled_classes(g, n, r):
        group = unl.leg_group
        if group is None:
            continue
        legs = unl.graph.legs
        for rho in group.labelings():
            assignment = {f: rho[k] + 1 for k, f in enumerate(legs)}
            cls, _ = canonical_form(label_legs(unl.graph, assignment))
            assert not oracle_vanishes(cls)
            out.setdefault(cls.key, cls)
    return sorted(out.values(), key=lambda c: (degree(c.graph), c.key))


def oracle_boundary_terms(cls):
    g = cls.graph
    out = {}

    def accumulate(result, factor):
        h, s = result
        assert not validate(h)
        c, s2 = canonical_form(h)
        if not oracle_vanishes(c):
            out[c] = out.get(c, 0) + factor * s * s2

    for e in g.edges:
        for result in contract_edge(g, e):
            accumulate(result, 1)
    mark_sign = -1 if g.n_edges % 2 else 1
    for f in range(g.nf):
        if g.adj[f] == g.dv and f not in g.marked:
            result = mark_flag(g, f)
            if result is not None:
                accumulate(result, mark_sign)
    return {c: v for c, v in out.items() if v}


@cache
def oracle_build_complex(g, n, r):
    """(basis, index, diff) of the labeled path."""
    basis = {}
    for cls in oracle_enumerate_marked_graphs(g, n, r):
        basis.setdefault(degree(cls.graph), []).append(cls)
    index = {
        cls.key: (i, pos) for i, b in basis.items() for pos, cls in enumerate(b)
    }
    diff = {}
    for i in sorted(basis):
        cols = []
        for cls in basis[i]:
            col = {}
            for target, coeff in oracle_boundary_terms(cls).items():
                deg, pos = index[target.key]
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
    for i, classes in basis.items():
        cols[i] = []
        for cls in classes:
            target, sign = canonical_form(add_marked_leg(cls.graph))
            if oracle_vanishes(target):
                cols[i].append({})
                continue
            deg, pos = index[target.key]
            assert deg == i
            cols[i].append({pos: sign})
    return cols


def basis_permutation(c):
    """Degree -> [(oracle position, sign)] with [c.basis[i][p]] = sign·[oracle
    class], found by canonicalizing each basis graph; checks it is a
    bijection onto the oracle's basis."""
    basis, index, _ = oracle_build_complex(c.g, c.n, c.r)
    assert c.degrees() == sorted(basis)
    perm = {}
    for i in c.degrees():
        perm[i] = []
        for cls in c.basis[i]:
            target, sign = canonical_form(cls.graph)
            deg, pos = index[target.key]
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
    psi = stabilization_map(src, build_complex(g, n + 1, r + 1))
    source_perm = basis_permutation(src)
    target_perm = basis_permutation(psi.target)
    expected = oracle_stabilization_cols(key)
    assert sorted(psi.cols) == sorted(expected)
    for i, cols in psi.cols.items():
        got = in_oracle_basis(cols, source_perm[i], target_perm.get(i, []))
        assert got == expected[i]


def test_cached_differential_matches_labeled_oracle(tmp_path):
    build_complex(2, 4, 3, cache_dir=tmp_path)
    assert load_enumeration(tmp_path, 2, 4, 3) is not None
    assert_differential_matches_oracle(build_complex(2, 4, 3, cache_dir=tmp_path))


def test_production_path_canonicalizes_no_labeled_graph():
    markedgc.graphs._class_cache.clear()
    homology_decomposition(build_complex(3, 6, 7))
    source = build_complex(2, 5, 5)
    homology_decomposition(source)
    stabilization_map(source, build_complex(2, 6, 6))
    assert markedgc.graphs._class_cache
    # the key's last slot holds the leg labels
    assert all(key[5] is None for key in markedgc.graphs._class_cache)


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
    # a labeled class's group holds the automorphisms that fix its labels,
    # which fix every leg: the identity alone, or none when one is odd
    n = key[1]
    identity = tuple(range(n))
    outcomes = set()
    for unl in enumerate_unlabeled_classes(*key):
        legs = unl.graph.legs
        for labels in permutations(range(1, n + 1)):
            cls = canonical_form(label_legs(unl.graph, dict(zip(legs, labels))))[0]
            vanishes = oracle_vanishes(cls)
            assert (cls.leg_group is None) == vanishes
            if not vanishes:
                assert cls.leg_group.elements() == {identity: 1}
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
    assert [c.key for c in again] == [c.key for c in first]
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
    assert [c.key for c in again] == [c.key for c in classes]
    assert path.read_text() == text


def test_format_1_cache_is_recomputed_and_rewritten(tmp_path, capsys):
    classes = oracle_enumerate_marked_graphs(1, 3, 2)
    body = "".join(f"{degree(c.graph)}|{encode_graph(c.graph)}\n" for c in classes)
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
