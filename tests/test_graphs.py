import random

import pytest
from hypothesis import given, settings, strategies as st

from markedgc.complexes import (
    enumerate_core_graphs,
    enumerate_marked_graphs,
    enumerate_unlabeled_classes,
)
from markedgc.graphs import (
    MarkedGraph,
    OrientedClass,
    build_theta,
    canonical_form,
    contract_edge,
    cut_edge,
    decode_graph,
    degree,
    encode_graph,
    mark_flag,
    validate,
)
import markedgc.graphs
from markedgc.reptheory import perm_sign
import kernel_oracle
from perms import inverse
from moves_oracle import core
from search_oracle import automorphisms, iso_det_sign, isomorphisms


def tadpole_at_dv():
    """One vertex (the dv) with a single tadpole, one flag marked."""
    return MarkedGraph(nv=1, adj=(0, 0), inv=(1, 0), marked=frozenset({0}))


def theta_graph():
    """Two vertices joined by three parallel unmarked edges."""
    return MarkedGraph(
        nv=2,
        adj=(0, 1, 0, 1, 0, 1),
        inv=(1, 0, 3, 2, 5, 4),
        marked=frozenset(),
    )


def tadpole_and_leg():
    """The dv with a tadpole, one of its flags marked, and one leg."""
    return MarkedGraph(
        nv=1, adj=(0, 0, 0), inv=(1, 0, 2), marked=frozenset({0})
    )


def shuffled_copy(g: MarkedGraph, rng: random.Random) -> MarkedGraph:
    """An isomorphic presentation with vertices and flags renamed."""
    rest = list(range(1, g.nv))
    rng.shuffle(rest)
    vmap = [0, *rest]  # vmap[old] = new; the dv stays vertex 0
    fperm = list(range(g.nf))
    rng.shuffle(fperm)  # fperm[old] = new
    inv = [0] * g.nf
    adj = [0] * g.nf
    for f in range(g.nf):
        adj[fperm[f]] = vmap[g.adj[f]]
        inv[fperm[f]] = fperm[g.inv[f]]
    return MarkedGraph(
        nv=g.nv,
        adj=tuple(adj),
        inv=tuple(inv),
        marked=frozenset(fperm[f] for f in g.marked),
    )


# ---------------------------------------------------------------------------
# validation


def test_admissible_examples():
    assert validate(tadpole_at_dv()) == []
    assert validate(theta_graph()) == []


def test_neutral_valence_violation():
    # neutral vertex of valence 2
    g = MarkedGraph(
        nv=2,
        adj=(0, 1, 0, 1),
        inv=(1, 0, 3, 2),
        marked=frozenset(),
    )
    assert validate(g)


def test_tadpole_at_neutral_vertex_rejected():
    g = MarkedGraph(
        nv=2,
        adj=(0, 1, 1, 1, 0, 1),
        inv=(1, 0, 3, 2, 5, 4),
        marked=frozenset(),
    )
    assert any("tadpole" in p for p in validate(g))


def test_double_marked_edge_rejected():
    g = MarkedGraph(nv=1, adj=(0, 0), inv=(1, 0), marked=frozenset({0, 1}))
    assert validate(g)


# ---------------------------------------------------------------------------
# types and degrees


def oracle_connected(g):
    """Connectivity by a depth-first search from vertex 0."""
    neighbors = {v: set() for v in range(g.nv)}
    for f1, f2 in g.edges:
        neighbors[g.adj[f1]].add(g.adj[f2])
        neighbors[g.adj[f2]].add(g.adj[f1])
    seen, stack = {0}, [0]
    while stack:
        for w in neighbors[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == g.nv


def oracle_validate(g):
    """Admissibility by per-vertex valence rescans and a connectivity search."""
    problems = []
    nf = g.nf
    if len(g.inv) != nf or g.nv == 0:
        return ["malformed flag structure"]
    if any(f not in range(nf) for f in (*g.inv, *g.marked)):
        return ["malformed flag structure"]
    if any(not 0 <= g.adj[f] < g.nv for f in range(nf)):
        return ["adjacency out of range"]
    if any(g.inv[g.inv[f]] != f for f in range(nf)):
        problems.append("involution is not an involution")
        return problems
    if not oracle_connected(g):
        problems.append("graph is not connected")
    for v in range(1, g.nv):
        if sum(1 for f in range(nf) if g.adj[f] == v) < 3:
            problems.append(f"neutral vertex {v} has valence < 3")
    for f1, f2 in g.edges:
        if g.adj[f1] == g.adj[f2] and g.adj[f1] != 0:
            problems.append(f"tadpole at neutral vertex {g.adj[f1]}")
        if f1 in g.marked and f2 in g.marked:
            problems.append(f"edge ({f1},{f2}) marked on both flags")
    for f in g.marked:
        if g.adj[f] != 0:
            problems.append(f"marked flag {f} not at the distinguished vertex")
    return problems


@st.composite
def flag_structures(draw):
    """Flag structures that are mostly well formed: random involutions
    (or, sometimes, arbitrary maps with out-of-range entries), adjacency
    and marked flags occasionally out of range, and sometimes no vertex
    at all."""
    nv = draw(st.integers(0, 5))
    nf = draw(st.integers(0, 9))
    if draw(st.integers(0, 9)) == 0:
        vertex = st.integers(-1, nv)
    else:
        vertex = st.integers(0, max(nv - 1, 0))
    adj = tuple(draw(st.lists(vertex, min_size=nf, max_size=nf)))
    if draw(st.integers(0, 4)) == 0:
        inv = tuple(draw(st.lists(st.integers(-1, nf), min_size=nf, max_size=nf)))
    else:
        flags = draw(st.permutations(list(range(nf))))
        n_pairs = draw(st.integers(0, nf // 2))
        inv = list(range(nf))
        for i in range(n_pairs):
            a, b = flags[2 * i], flags[2 * i + 1]
            inv[a], inv[b] = b, a
        inv = tuple(inv)
    if draw(st.integers(0, 9)) == 0:
        flag = st.integers(-1, nf)
    else:
        flag = st.integers(0, max(nf - 1, 0))
    marked = frozenset(draw(st.sets(flag, max_size=nf)))
    return MarkedGraph(nv=nv, adj=adj, inv=inv, marked=marked)


@settings(max_examples=600, deadline=None)
@given(flag_structures())
def test_validate_matches_rescanning_oracle(g):
    assert validate(g) == oracle_validate(g)


@settings(max_examples=300, deadline=None)
@given(flag_structures())
def test_validate_never_raises(g):
    # cache lines come from outside the program: any flag structure
    # gets a list of clauses, never an exception
    assert all(isinstance(p, str) for p in validate(g))


@pytest.mark.parametrize(
    "inv, marked",
    [((1, 0), {-1}), ((1, 0), {2}), ((1, 0), {5}), ((5, 1), set()), ((-1, 0), set())],
)
def test_validate_rejects_out_of_range_flags(inv, marked):
    g = MarkedGraph(nv=1, adj=(0, 0), inv=inv, marked=frozenset(marked))
    assert validate(g) == oracle_validate(g) == ["malformed flag structure"]


def test_validate_matches_rescanning_oracle_on_enumerated_graphs():
    # every admissible class, and each with one edge cut (often a
    # disconnected or low-valence structure)
    for key in [(2, 4, 3), (3, 4, 5)]:
        for unl in enumerate_unlabeled_classes(*key):
            g = unl.graph
            assert validate(g) == oracle_validate(g) == []
            for f1, f2 in g.edges:
                inv = list(g.inv)
                inv[f1], inv[f2] = f1, f2
                cut = MarkedGraph(g.nv, g.adj, tuple(inv), g.marked)
                assert validate(cut) == oracle_validate(cut)


def test_validate_reports_every_clause_in_order():
    # flag 0 is a leg at the dv; vertex 1 carries a tadpole marked on both
    # flags; flag 3 is a leg at vertex 2, which nothing joins
    g = MarkedGraph(
        nv=3, adj=(0, 1, 1, 2), inv=(0, 2, 1, 3), marked=frozenset({1, 2})
    )
    expected = [
        "graph is not connected",
        "neutral vertex 1 has valence < 3",
        "neutral vertex 2 has valence < 3",
        "tadpole at neutral vertex 1",
        "edge (1,2) marked on both flags",
        "marked flag 1 not at the distinguished vertex",
        "marked flag 2 not at the distinguished vertex",
    ]
    assert validate(g) == oracle_validate(g) == expected


def graph_type(g):
    return g.genus, g.n_legs, g.n_marked


def test_graph_type_and_degree():
    assert graph_type(theta_graph()) == (3, 0, 0)
    assert degree(theta_graph()) == 3
    assert graph_type(tadpole_at_dv()) == (2, 0, 1)
    assert degree(tadpole_at_dv()) == 0


def test_theta_family_types():
    for g, ell in [(2, 0), (3, 0), (2, 1), (3, 1), (1, 1)]:
        m = 3 * (g - 1) + 2 * ell
        for p in range(0, g):
            if p > m or (g - p) % 2 == 0:
                continue
            theta = build_theta(g, ell, p)
            assert validate(theta) == []
            assert graph_type(theta) == (g, m, m - ell)


# ---------------------------------------------------------------------------
# canonical forms


@pytest.mark.parametrize("seed", range(25))
def test_canonical_form_isomorphism_invariant(seed):
    rng = random.Random(seed)
    for base in (tadpole_at_dv(), theta_graph(), tadpole_and_leg(),
                 build_theta(2, 1, 1), build_theta(3, 0, 0)):
        cls, _ = canonical_form(base)
        other = shuffled_copy(base, rng)
        cls2, _ = canonical_form(other)
        assert cls.key == cls2.key


def test_canonical_sign_tracks_edge_order():
    # Renumber the flags of a non-vanishing class so that two edges swap
    # places in the sorted edge order.  Every edge of a theta graph is
    # marked at the dv, so the sorted marked order swaps two marks too.
    g = build_theta(2, 1, 1)
    cls, sign = canonical_form(g)
    assert cls.leg_group is not None
    (a1, a2), (b1, b2) = g.edges[1], g.edges[2]
    pi = list(range(g.nf))
    pi[a1], pi[b1], pi[a2], pi[b2] = b1, a1, b2, a2  # an involution
    adj, inv = [0] * g.nf, [0] * g.nf
    for f in range(g.nf):
        adj[pi[f]] = g.adj[f]
        inv[pi[f]] = pi[g.inv[f]]
    h = MarkedGraph(
        nv=g.nv, adj=tuple(adj), inv=tuple(inv),
        marked=frozenset(pi[f] for f in g.marked),
    )
    # h's sorted orders, pulled back to g, against g's sorted orders
    pulled_edges = [tuple(sorted((pi[x], pi[y]))) for x, y in h.edges]
    edge_sign = perm_sign([g.edges.index(e) for e in pulled_edges])
    marks = sorted(g.marked)
    mark_sign = perm_sign([marks.index(pi[f]) for f in sorted(h.marked)])
    assert edge_sign == mark_sign == -1
    cls2, sign2 = canonical_form(h)
    assert cls2.key == cls.key
    assert sign2 == sign * edge_sign * mark_sign


def test_vanishing_class_detection():
    # theta graph has an automorphism swapping two edges: det sign -1
    cls, _ = canonical_form(theta_graph())
    assert cls.leg_group is None


def test_nonvanishing_example():
    cls, _ = canonical_form(tadpole_at_dv())
    assert cls.leg_group is not None
    assert cls.leg_group.elements() == {(): 1}


# ---------------------------------------------------------------------------
# the oracle search: isomorphisms and automorphisms


def test_automorphism_count_theta():
    # dv is fixed, so only the 3! edge arrangements remain
    assert len(list(automorphisms(theta_graph(), ()))) == 6


def test_iso_det_sign_identity():
    g = tadpole_at_dv()
    phi = tuple(range(g.nf))
    assert iso_det_sign(g, g, phi) == 1


def test_isomorphisms_respect_labels():
    # the automorphisms that fix a labeling fix every leg, and an
    # automorphism's leg permutation p is an isomorphism rho -> rho∘p^-1
    g = build_theta(3, 0, 0)
    identity = tuple(range(g.n_legs))
    unlabeled = list(automorphisms(g, None))
    fixing = [phi for phi in unlabeled if all(phi[f] == f for f in g.legs)]
    assert list(automorphisms(g, identity)) == fixing
    assert 0 < len(fixing) < len(unlabeled)
    index = {f: k for k, f in enumerate(g.legs)}
    for phi in unlabeled:
        p = tuple(index[phi[f]] for f in g.legs)
        assert phi in list(isomorphisms(g, identity, g, inverse(p)))


@pytest.mark.parametrize("key", [(2, 4, 3), (2, 5, 5)])
def test_automorphisms_match_isomorphisms_onto_a_copy(key):
    # `isomorphisms` skips its invariant checks when both graphs are one
    # object; onto an equal copy it runs them and must find the same maps
    for unl in enumerate_unlabeled_classes(*key):
        g = unl.graph
        identity = tuple(range(g.n_legs))
        copy = MarkedGraph(g.nv, g.adj, g.inv, g.marked)
        assert copy == g and copy is not g
        assert list(automorphisms(g, identity)) == list(
            isomorphisms(g, identity, copy, identity)
        )


# ---------------------------------------------------------------------------
# differential moves


def test_contract_unmarked_edge():
    # dv -- v with 3 unmarked parallel edges: contracting one merges the
    # vertices and keeps the other two as tadpoles at dv
    g = theta_graph()
    e = g.edges[0]
    results = contract_edge(g, e)
    assert len(results) == 1
    contracted, sign = results[0]
    assert contracted.nv == 1
    assert contracted.n_edges == 2
    assert sign == 1  # the first of three edges moves past two


def test_contract_tadpole_gives_nothing():
    g = tadpole_at_dv()
    assert contract_edge(g, g.edges[0]) == []


def test_mark_flag_creates_marked_leg_degree_drop():
    g = tadpole_and_leg()
    unmarked_dv_legs = [
        f for f in g.legs if f not in g.marked and g.adj[f] == 0
    ]
    assert unmarked_dv_legs
    f = unmarked_dv_legs[0]
    result = mark_flag(g, f)
    assert result is not None
    marked_graph, sign = result
    assert sign == -1  # f enters first, before the one mark below it
    assert marked_graph.n_marked == g.n_marked + 1
    assert f in marked_graph.marked


def test_mark_flag_rejects_double_marked_tadpole():
    g = tadpole_at_dv()
    assert mark_flag(g, 1) is None


# ---------------------------------------------------------------------------
# cores, cutting, gluing


def test_core_strips_marked_legs():
    g = MarkedGraph(
        nv=1,
        adj=(0, 0, 0, 0),
        inv=(1, 0, 2, 3),
        marked=frozenset({0, 2}),
    )
    assert validate(g) == []
    c = core(g)
    assert c.n_legs == 1
    assert c.n_marked == 1


def test_cut_then_glue_roundtrip():
    g = build_theta(3, 1, 0)
    e = g.edges[0]
    cut = cut_edge(g, e)
    assert cut.n_legs == g.n_legs + 2
    # glue the two new legs back into an edge
    inv = list(cut.inv)
    inv[e[0]], inv[e[1]] = e[1], e[0]
    reglued = MarkedGraph(cut.nv, cut.adj, tuple(inv), cut.marked)
    assert reglued == g
    cls1, _ = canonical_form(g)
    cls2, _ = canonical_form(reglued)
    assert cls1.key == cls2.key


def test_cut_disconnecting_edge_raises():
    # two tadpole vertices joined by a bridge: bridge disconnects
    g = MarkedGraph(
        nv=2,
        adj=(0, 0, 0, 1, 1, 1),
        inv=(1, 0, 3, 2, 5, 4),
        marked=frozenset({0, 2}),
    )
    # flags 2,3 form the bridge between vertex 0 and vertex 1
    with pytest.raises(ValueError):
        cut_edge(g, (2, 3))


# ---------------------------------------------------------------------------
# leg symmetries


def test_leg_symmetry_group_signs():
    g = build_theta(3, 0, 0)
    group = canonical_form(g)[0].leg_group
    assert group.n == g.n_legs
    symmetry = group.elements()
    ident = tuple(range(g.n_legs))
    assert symmetry[ident] == 1
    assert all(s in (1, -1) for s in symmetry.values())
    assert len(symmetry) > 1


def test_leg_symmetry_group_rejects_vanishing():
    # the theta class has no legs, and an odd automorphism (a swap of two
    # unmarked parallel edges) fixes all of them
    cls, _ = canonical_form(theta_graph())
    assert cls.leg_group is None
    g = cls.graph
    assert any(iso_det_sign(g, g, phi) == -1 for phi in automorphisms(g, ()))


def test_canonical_form_flag_map_is_an_isomorphism():
    g = build_theta(3, 1, 0)
    form = canonical_form(g)
    canon = form[0].graph
    vmap = {}
    for f in range(g.nf):
        f2 = form.phi[f]
        assert vmap.setdefault(g.adj[f], canon.adj[f2]) == canon.adj[f2]
        assert form.phi[g.inv[f]] == canon.inv[f2]
        assert (f in g.marked) == (f2 in canon.marked)
    assert sorted(form.phi) == list(range(g.nf))


def oracle_flag_assignment(g, vorder):
    """Flag numbering that re-keys every waiting flag after each choice."""
    vindex = {v: i for i, v in enumerate(vorder)}
    phi = [-1] * g.nf
    next_index = 0
    for v in vorder:

        def key(f):
            partner = g.inv[f]
            if partner != f and phi[partner] != -1:
                return (0, phi[partner], 0, 0)
            if partner == f:
                return (1, int(f in g.marked), 0, 0)
            return (
                2,
                vindex[g.adj[partner]],
                int(f in g.marked),
                int(partner in g.marked),
            )

        remaining = set(kernel_oracle.flags_at(g, v))
        while remaining:
            f = min(remaining, key=lambda x: (key(x), x))
            phi[f] = next_index
            next_index += 1
            remaining.remove(f)
    new_adj = [0] * g.nf
    new_inv = [0] * g.nf
    for f in range(g.nf):
        new_adj[phi[f]] = vindex[g.adj[f]]
        new_inv[phi[f]] = phi[g.inv[f]]
    encoding = (
        g.nv,
        g.nf,
        tuple(new_adj),
        tuple(new_inv),
        tuple(sorted(phi[f] for f in g.marked)),
    )
    return encoding, tuple(phi)


def oracle_canonical_form(g, edge_order, d_order):
    """(class key, sign, phi) from the re-keying flag assignment."""
    best = None
    for vorder in kernel_oracle._orderings(g, None):
        candidate = oracle_flag_assignment(g, vorder)
        if best is None or candidate[0] < best[0]:
            best = candidate
    encoding, phi = best
    _, nf, _, inv, marked = encoding
    ref_edges = [(f, inv[f]) for f in range(nf) if f < inv[f]]
    mapped = [tuple(sorted((phi[f1], phi[f2]))) for f1, f2 in edge_order]
    sign = perm_sign([ref_edges.index(e) for e in mapped])
    sign *= perm_sign([marked.index(phi[f]) for f in d_order])
    return encoding, sign, phi


REKEYING_CASES = [(2, 3, 3), (2, 4, 3), (3, 4, 5), (2, 5, 5), (3, 3, 4), (1, 4, 2)]


def rekeying_inputs(key):
    """Shuffled copies of every unlabeled class of B(key), and one more of
    its class for every basis element."""
    rng = random.Random(hash(key))
    graphs = [xi.graph for xi, _ in enumerate_marked_graphs(*key, None)]
    graphs += [cls.graph for cls in enumerate_unlabeled_classes(*key)]
    return [shuffled_copy(graph, rng) for graph in graphs]


@pytest.mark.parametrize("key", REKEYING_CASES, ids=str)
def test_canonical_form_matches_rekeying_flag_assignment(key):
    for g in rekeying_inputs(key):
        form = canonical_form(g)
        cls, sign = form
        assert (cls.key, sign, form.phi) == oracle_canonical_form(
            g, g.edges, sorted(g.marked)
        )


def oracle_leg_symmetry_group(g):
    """Every automorphism's leg permutation (legs in flag order) and
    det-sign, by full search; None when two automorphisms with one leg
    permutation differ in sign."""
    index = {f: k for k, f in enumerate(g.legs)}
    out = {}
    for phi in automorphisms(g, None):
        sigma = tuple(index[phi[f]] for f in g.legs)
        sign = iso_det_sign(g, g, phi)
        if out.setdefault(sigma, sign) != sign:
            return None
    return out


def assert_leg_group_matches_full_search(g):
    """The leg group of the class ``g`` creates against a full search on
    the class graph.  The class cache is cleared first: a cached class
    would keep the group read from the graph that created it."""
    markedgc.graphs._class_cache.clear()
    cls = canonical_form(g)[0]
    expected = oracle_leg_symmetry_group(cls.graph)
    group = cls.leg_group
    if expected is None:
        assert group is None
    else:
        assert group.n == g.n_legs
        assert group.elements() == expected


@pytest.mark.parametrize("key", [(2, 4, 3), (3, 4, 5), (2, 5, 5), (2, 6, 5)])
def test_leg_symmetry_group_matches_full_search(key):
    for unl in enumerate_unlabeled_classes(*key):
        assert_leg_group_matches_full_search(unl.graph)


def test_leg_group_matches_full_search_on_genus_two_cut_graphs():
    # the graphs whose modules `verify --suite edge-cut-rows --g 2` induces
    for ell in range(2):
        for n in range(3 + 2 * ell + 1):
            for xi in enumerate_core_graphs(2, n, n - ell):
                for e in xi.graph.edges:
                    try:
                        cut = cut_edge(xi.graph, e)
                    except ValueError:
                        continue
                    assert_leg_group_matches_full_search(cut)


@pytest.mark.parametrize(
    "key", [(2, 4, 3), (3, 4, 5), (2, 3, 0), (3, 0, 0), (3, 2, 1)], ids=str
)
def test_leg_group_matches_full_search_on_shuffled_classes(key):
    # on a shuffled presentation the first tied ordering's flag map is not
    # the identity, so its inverse and its sign enter every element
    rng = random.Random(str(key))
    for unl in enumerate_unlabeled_classes(*key):
        for _ in range(3):
            assert_leg_group_matches_full_search(shuffled_copy(unl.graph, rng))


# ---------------------------------------------------------------------------
# encoding


def test_encode_decode_roundtrip():
    for g in (tadpole_at_dv(), theta_graph(), tadpole_and_leg(),
              build_theta(3, 1, 0)):
        assert decode_graph(encode_graph(g)) == g


def test_decode_rejects_a_line_with_leg_labels():
    # cache format 2 keeps the leg-label field, always ``*``
    line = encode_graph(tadpole_and_leg())
    assert line == "1|0|0,0,0|1,0,2|0|*"
    with pytest.raises(ValueError):
        decode_graph("1|0|0,0,0|1,0,2|0|0,0,1")


def test_decode_rejects_a_dv_field_other_than_0():
    # the dv is vertex 0, and its field always reads 0
    assert decode_graph("2|0|0,1,1,1|1,0,2,3||*").nv == 2
    for dv in ("1", "-1", "00", ""):
        with pytest.raises(ValueError):
            decode_graph(f"2|{dv}|0,1,1,1|1,0,2,3||*")


def test_oriented_class_identity():
    cls1, _ = canonical_form(tadpole_at_dv())
    cls2, _ = canonical_form(tadpole_at_dv())
    assert cls1 == cls2 and hash(cls1) == hash(cls2)
    assert isinstance(cls1, OrientedClass)
