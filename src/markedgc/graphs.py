"""Marked graphs: admissibility, canonical forms, automorphisms and leg
groups, and the edge-contraction / flag-marking moves that generate the
differential.

A graph is a flag structure: ``adj`` sends each flag to its vertex and
``inv`` is an involution pairing flags into edges; fixed points are legs.
A marking is a distinguished vertex ``dv`` plus a set ``marked`` of flags
at ``dv``.  Legs carry labels 1..n, or no labels at all (core graphs).

Orientations are orderings of the edge set and of the marked set.  All
signs are reported relative to the reference orientation of a canonical
class, which is the sorted edge list and sorted marked list of the
canonical representative.

A class carries its leg group: the action of its automorphisms on its
legs, with their det-signs.  One automorphism search, made the first time
the group is asked for, decides both whether the class vanishes under
every labeling and how S_n acts on its labelings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import permutations, product

from .reptheory import Permutation, perm_sign

Edge = tuple[int, int]  # (flag, flag) with flag0 < flag1


@dataclass(frozen=True)
class MarkedGraph:
    nv: int
    dv: int
    adj: tuple[int, ...]
    inv: tuple[int, ...]
    marked: frozenset[int]
    labels: tuple[int, ...] | None = None  # flag -> label, 0 on non-legs

    @property
    def nf(self) -> int:
        return len(self.adj)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(
            (f, self.inv[f]) for f in range(self.nf) if f < self.inv[f]
        )

    @cached_property
    def legs(self) -> tuple[int, ...]:
        return tuple(f for f in range(self.nf) if self.inv[f] == f)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_legs(self) -> int:
        return len(self.legs)

    @property
    def genus(self) -> int:
        return self.n_edges - self.nv + 2  # beta + 1

    @property
    def n_marked(self) -> int:
        return len(self.marked)

    @property
    def labeled(self) -> bool:
        return self.labels is not None

    def label_of(self, f: int) -> int:
        return self.labels[f] if self.labels is not None else 0

    @cached_property
    def _flags_by_vertex(self) -> tuple[tuple[int, ...], ...]:
        table: list[list[int]] = [[] for _ in range(self.nv)]
        for f, v in enumerate(self.adj):
            table[v].append(f)
        return tuple(map(tuple, table))

    def flags_at(self, v: int) -> tuple[int, ...]:
        return self._flags_by_vertex[v]

    def is_connected(self) -> bool:
        if self.nv == 0:
            return False
        seen = {0}
        stack = [0]
        neighbors: dict[int, set[int]] = {v: set() for v in range(self.nv)}
        for f1, f2 in self.edges:
            neighbors[self.adj[f1]].add(self.adj[f2])
            neighbors[self.adj[f2]].add(self.adj[f1])
        while stack:
            v = stack.pop()
            for w in neighbors[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.nv

    def marked_legs(self) -> tuple[int, ...]:
        return tuple(f for f in self.legs if f in self.marked)


def validate(g: MarkedGraph) -> list[str]:
    """Return the list of violated admissibility clauses (empty = admissible)."""
    problems = []
    nf, nv, dv = g.nf, g.nv, g.dv
    adj, inv, marked = g.adj, g.inv, g.marked
    if len(inv) != nf or not (0 <= dv < nv):
        return ["malformed flag structure"]
    if any(not 0 <= v < nv for v in adj):
        return ["adjacency out of range"]
    if any(inv[p] != f for f, p in enumerate(inv)):
        problems.append("involution is not an involution")
        return problems
    # One pass over the flags: valences, the edges' union-find, and the
    # edge clauses (reported after the valence clauses, in edge order).
    valence = [0] * nv
    parent = list(range(nv))
    n_legs = 0
    edge_problems = []
    for f1, v in enumerate(adj):
        valence[v] += 1
        f2 = inv[f1]
        if f2 == f1:
            n_legs += 1
            continue
        if f2 < f1:
            continue
        w = adj[f2]
        if v == w:
            if v != dv:
                edge_problems.append(f"tadpole at neutral vertex {v}")
        else:
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            while parent[w] != w:
                parent[w] = w = parent[parent[w]]
            parent[v] = w
        if f1 in marked and f2 in marked:
            edge_problems.append(f"edge ({f1},{f2}) marked on both flags")
    if sum(1 for v in range(nv) if parent[v] == v) != 1:
        problems.append("graph is not connected")
    for v in range(nv):
        if v != dv and valence[v] < 3:
            problems.append(f"neutral vertex {v} has valence < 3")
    problems.extend(edge_problems)
    for f in marked:
        if adj[f] != dv:
            problems.append(f"marked flag {f} not at the distinguished vertex")
    if g.labels is not None:
        if len(g.labels) != nf:
            problems.append("label table length differs from flag count")
            return problems
        got = sorted(g.labels[f] for f in g.legs)
        if got != list(range(1, n_legs + 1)):
            problems.append("leg labels are not a bijection to 1..n")
        if any(g.labels[f] != 0 for f in range(nf) if inv[f] != f):
            problems.append("non-leg flag carries a label")
    return problems


def degree(g: MarkedGraph) -> int:
    return g.n_edges + g.n_legs - g.n_marked


# ---------------------------------------------------------------------------
# isomorphism search


def _vertex_invariant(g: MarkedGraph, v: int):
    flags = g.flags_at(v)
    leg_labels = sorted(g.label_of(f) for f in flags if g.inv[f] == f)
    return (
        v != g.dv,
        len(flags),
        len(leg_labels),
        tuple(leg_labels),
        sum(1 for f in flags if f in g.marked),
        sum(1 for f in flags if g.inv[f] != f and g.adj[g.inv[f]] == g.dv),
        sum(1 for f in flags if g.adj[g.inv[f]] == v),  # tadpole flags
    )


def isomorphisms(g1: MarkedGraph, g2: MarkedGraph, respect_labels: bool = True):
    """Yield all flag bijections realizing an isomorphism g1 -> g2.

    Isomorphisms fix the distinguished vertex, the marked set and, when
    ``respect_labels`` is set, every leg label.
    """
    if g1 is not g2 and (  # a graph agrees with itself
        g1.nv != g2.nv
        or g1.nf != g2.nf
        or g1.n_marked != g2.n_marked
        or g1.n_legs != g2.n_legs
        or sorted(map(len, map(g1.flags_at, range(g1.nv))))
        != sorted(map(len, map(g2.flags_at, range(g2.nv))))
    ):
        return
    nf = g1.nf
    phi = [-1] * nf
    used = [False] * nf
    vmap = [-1] * g1.nv
    vused = [False] * g2.nv
    vmap[g1.dv] = g2.dv
    vused[g2.dv] = True

    inv1, inv2 = g1.inv, g2.inv
    adj1, adj2 = g1.adj, g2.adj
    m1, m2 = g1.marked, g2.marked

    def compatible(f, f2) -> bool:
        if (f in m1) != (f2 in m2):
            return False
        leg1, leg2 = inv1[f] == f, inv2[f2] == f2
        if leg1 != leg2:
            return False
        if leg1 and respect_labels and g1.label_of(f) != g2.label_of(f2):
            return False
        return True

    def assign_vertex(v, w) -> bool:
        if vmap[v] == -1:
            if vused[w]:
                return False
            vmap[v] = w
            vused[w] = True
            return True
        return vmap[v] == w

    def search(f: int):
        while f < nf and phi[f] != -1:
            f += 1
        if f == nf:
            yield tuple(phi)
            return
        partner = inv1[f]
        for f2 in range(nf):
            if used[f2] or not compatible(f, f2):
                continue
            p2 = inv2[f2]
            if partner != f and (used[p2] or p2 == f2):
                continue
            if partner != f and not compatible(partner, p2):
                continue
            saved_vmap = list(vmap)
            saved_vused = list(vused)
            ok = assign_vertex(adj1[f], adj2[f2])
            if ok and partner != f:
                ok = assign_vertex(adj1[partner], adj2[p2])
            if ok:
                phi[f] = f2
                used[f2] = True
                if partner != f:
                    phi[partner] = p2
                    used[p2] = True
                yield from search(f + 1)
                phi[f] = -1
                used[f2] = False
                if partner != f:
                    phi[partner] = -1
                    used[p2] = False
            vmap[:] = saved_vmap
            vused[:] = saved_vused

    yield from search(0)


def iso_det_sign(g1: MarkedGraph, g2: MarkedGraph, phi: tuple[int, ...]) -> int:
    """Sign of phi on det(E) x det^{-1}(D), both sides in sorted reference
    order.  For an automorphism this is its det-sign."""
    e1 = g1.edges
    e2 = list(g2.edges)
    index2 = {e: i for i, e in enumerate(e2)}
    eperm = []
    for f1, f2 in e1:
        img = (phi[f1], phi[f2])
        img = (min(img), max(img))
        eperm.append(index2[img])
    d1 = sorted(g1.marked)
    index2d = {f: i for i, f in enumerate(sorted(g2.marked))}
    dperm = [index2d[phi[f]] for f in d1]
    return perm_sign(eperm) * perm_sign(dperm)


def automorphisms(g: MarkedGraph, respect_labels: bool = True):
    return isomorphisms(g, g, respect_labels=respect_labels)


# ---------------------------------------------------------------------------
# leg groups


class LegGroup:
    """The leg group of a graph: the image of its automorphisms on its ``n``
    legs (numbered in flag order), each element with its det-sign.

    Stored as a stabilizer chain: level j keeps, for each point b in the
    orbit of j under H_j = {h : h fixes 0..j-1}, one element of H_j sending
    j to b (the identity for b = j).  Levels where H_j fixes j are left out.
    """

    def __init__(self, elements: dict[Permutation, int]):
        self.n = len(next(iter(elements)))
        self.levels: list[tuple[int, dict[int, tuple[Permutation, int]]]] = []
        identity = tuple(range(self.n))
        stabilizer = list(elements.items())
        for j in identity:
            level = {j: (identity, 1)}
            for h, sign in stabilizer:
                level.setdefault(h[j], (h, sign))
            if len(level) > 1:
                self.levels.append((j, level))
                stabilizer = [(h, sign) for h, sign in stabilizer if h[j] == j]

    @classmethod
    def of(cls, g: MarkedGraph) -> LegGroup | None:
        """The leg group of ``g`` (leg labels are ignored), or None when an
        odd automorphism fixes every leg: then every labeling vanishes.

        Legs at one vertex with the same marked status are twins: permuting
        them is an automorphism, of sign +1 on unmarked twins and the
        permutation's sign on marked ones.  Every automorphism is, uniquely,
        one that keeps each twin class in flag order (found by a search that
        labels legs by their rank in their class) after a twin permutation.
        """
        legs = g.legs
        index = {f: k for k, f in enumerate(legs)}
        twins: dict[tuple[int, bool], list[int]] = {}
        for k, f in enumerate(legs):
            twins.setdefault((g.adj[f], f in g.marked), []).append(k)
        rank = [0] * g.nf
        for ks in twins.values():
            for r, k in enumerate(ks):
                rank[legs[k]] = r + 1
        ordered: dict[Permutation, int] = {}
        for phi in automorphisms(replace(g, labels=tuple(rank))):
            sign = iso_det_sign(g, g, phi)
            if ordered.setdefault(tuple([index[phi[f]] for f in legs]), sign) != sign:
                return None  # the two differ by an odd leg-fixing automorphism

        elements: dict[Permutation, int] = {}
        for shuffles in product(*map(permutations, twins.values())):
            tau = list(range(len(legs)))
            twin_sign = 1
            for ((_, marked), ks), images in zip(twins.items(), shuffles):
                for a, b in zip(ks, images):
                    tau[a] = b
                if marked:
                    twin_sign *= perm_sign([ks.index(b) for b in images])
            for sigma, sign in ordered.items():
                elements[tuple([sigma[t] for t in tau])] = sign * twin_sign
        return cls(elements)

    def elements(self) -> dict[Permutation, int]:
        """Every element with its det-sign: each is, uniquely, a product
        t_1∘t_2∘... of one chain element per level, in level order."""
        out = {tuple(range(self.n)): 1}
        for _, level in reversed(self.levels):
            out = {
                tuple([t[x] for x in h]): s * sign
                for t, s in level.values()
                for h, sign in out.items()
            }
        return out

    def coset_min(self, rho: Permutation) -> tuple[Permutation, int]:
        """The lex-least element rho∘h of the coset rho·H, with chi(h).

        Greedy down the chain: at level j pick the element that puts the
        least value of ``rho`` at position j, then keep positions < j fixed.
        """
        sign = 1
        for j, level in self.levels:
            b = min(level, key=rho.__getitem__)
            if b != j:
                h, s = level[b]
                rho = tuple([rho[x] for x in h])
                sign *= s
        return rho, sign


# ---------------------------------------------------------------------------
# canonical form

_class_cache: dict[tuple, "OrientedClass"] = {}


@dataclass(frozen=True)
class OrientedClass:
    """Canonical representative of an isomorphism class, with the reference
    orientation given by its sorted edge list and sorted marked list."""

    graph: MarkedGraph
    key: tuple = field(repr=False)

    @cached_property
    def leg_group(self) -> LegGroup | None:
        """The class's `LegGroup`, or None when an odd automorphism fixes
        every leg (the class is zero under every labeling).  Searched for
        on first use, once per class."""
        return LegGroup.of(self.graph)

    def __eq__(self, other) -> bool:
        return isinstance(other, OrientedClass) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    @property
    def edge_order(self) -> tuple[Edge, ...]:
        return self.graph.edges

    @property
    def d_order(self) -> tuple[int, ...]:
        return tuple(sorted(self.graph.marked))


def _neutral_orderings(g: MarkedGraph):
    """Vertex orderings (dv first) compatible with invariant classes."""
    classes: dict[tuple, list[int]] = {}
    for v in range(g.nv):
        if v == g.dv:
            continue
        classes.setdefault(_vertex_invariant(g, v), []).append(v)
    keys = sorted(classes)
    pools = [classes[k] for k in keys]

    def rec(i: int, prefix: tuple[int, ...]):
        if i == len(pools):
            yield prefix
            return
        for perm in permutations(pools[i]):
            yield from rec(i + 1, prefix + perm)

    yield from rec(0, (g.dv,))


def _flag_assignment(g: MarkedGraph, vorder: tuple[int, ...]):
    """Deterministic flag numbering for a given vertex ordering.

    Returns (encoding, phi) with phi the map old flag -> new index.
    """
    vindex = {v: i for i, v in enumerate(vorder)}
    phi = [-1] * g.nf
    next_index = 0
    for v in vorder:
        # Keys are computed once per vertex.  Placing a flag changes only
        # its partner's key, and only while that partner waits here (a
        # tadpole): it must then sort by the assigned index, or tadpole and
        # parallel-edge pairings would depend on input flag ids.
        keys = {}
        for f in g.flags_at(v):
            partner = g.inv[f]
            if partner == f:
                keys[f] = (1, int(f in g.marked), g.label_of(f), 0, f)
            elif phi[partner] != -1:
                keys[f] = (0, phi[partner], 0, 0, f)
            else:
                keys[f] = (
                    2,
                    vindex[g.adj[partner]],
                    int(f in g.marked),
                    int(partner in g.marked),
                    f,
                )
        while keys:
            f = min(keys, key=keys.__getitem__)
            phi[f] = next_index
            del keys[f]
            partner = g.inv[f]
            if partner in keys:
                keys[partner] = (0, next_index, 0, 0, partner)
            next_index += 1

    new_adj = [0] * g.nf
    new_inv = [0] * g.nf
    new_labels = [0] * g.nf
    for f in range(g.nf):
        new_adj[phi[f]] = vindex[g.adj[f]]
        new_inv[phi[f]] = phi[g.inv[f]]
        new_labels[phi[f]] = g.label_of(f)
    new_marked = tuple(sorted(phi[f] for f in g.marked))
    encoding = (
        g.nv,
        g.nf,
        tuple(new_adj),
        tuple(new_inv),
        new_marked,
        tuple(new_labels) if g.labels is not None else None,
    )
    return encoding, tuple(phi)


class CanonicalForm(tuple):
    """The ``(class, sign)`` pair returned by `canonical_form`.

    ``phi`` is the flag map of the same search: flag ``f`` of the input
    graph is flag ``phi[f]`` of ``class.graph``.
    """

    phi: tuple[int, ...]


def canonical_form(
    g: MarkedGraph,
    edge_order: tuple[Edge, ...] | None = None,
    d_order: tuple[int, ...] | None = None,
) -> tuple[OrientedClass, int]:
    """Canonicalize ``g`` and return the class together with the sign
    relating the given orientation to the class's reference orientation.

    ``edge_order``/``d_order`` default to the sorted orders of ``g`` itself.
    The sign is well defined for non-vanishing classes; for vanishing ones
    it is reported relative to an arbitrary but fixed choice.  The pair is
    a `CanonicalForm`, which also carries the flag map of the search.
    """
    if edge_order is None:
        edge_order = g.edges
    if d_order is None:
        d_order = tuple(sorted(g.marked))

    best = None
    for vorder in _neutral_orderings(g):
        encoding, phi = _flag_assignment(g, vorder)
        if best is None or encoding < best[0]:
            best = (encoding, phi)
    encoding, phi = best

    cls = _class_cache.get(encoding)
    if cls is None:
        nv, nf, adj, inv, marked, labels = encoding
        canon = MarkedGraph(
            nv=nv,
            dv=0,
            adj=adj,
            inv=inv,
            marked=frozenset(marked),
            labels=labels,
        )
        cls = OrientedClass(graph=canon, key=encoding)
        _class_cache[encoding] = cls
    canon = cls.graph

    mapped_edges = []
    for f1, f2 in edge_order:
        img = (phi[f1], phi[f2])
        mapped_edges.append((min(img), max(img)))
    ref_index = {e: i for i, e in enumerate(canon.edges)}
    esign = perm_sign([ref_index[e] for e in mapped_edges])
    ref_d = {f: i for i, f in enumerate(sorted(canon.marked))}
    dsign = perm_sign([ref_d[phi[f]] for f in d_order])
    out = CanonicalForm((cls, esign * dsign))
    out.phi = phi
    return out


# ---------------------------------------------------------------------------
# moves


def _rebuild(
    g: MarkedGraph,
    drop_flags: set[int],
    merge: dict[int, int] | None = None,
    new_marked: set[int] | None = None,
    new_labels: dict[int, int] | None = None,
):
    """Delete flags, optionally merge vertices, and re-index densely.

    Returns (graph, flag_map, vertex_map).
    """
    merge = merge or {}
    keep = [f for f in range(g.nf) if f not in drop_flags]
    fmap = {f: i for i, f in enumerate(keep)}
    vtarget = [merge.get(v, v) for v in range(g.nv)]
    vkeep = sorted(set(vtarget))
    vmap = {v: i for i, v in enumerate(vkeep)}
    marked_src = g.marked if new_marked is None else new_marked
    labels = None
    if g.labels is not None:
        labels = [0] * len(keep)
        for f in keep:
            lbl = g.labels[f]
            if new_labels and f in new_labels:
                lbl = new_labels[f]
            labels[fmap[f]] = lbl
    elif new_labels:
        raise ValueError("cannot label flags of an unlabeled graph")
    out = MarkedGraph(
        nv=len(vkeep),
        dv=vmap[vtarget[g.dv]],
        adj=tuple(vmap[vtarget[g.adj[f]]] for f in keep),
        inv=tuple(fmap[g.inv[f]] for f in keep),
        marked=frozenset(fmap[f] for f in marked_src if f not in drop_flags),
        labels=tuple(labels) if labels is not None else None,
    )
    return out, fmap, vmap


def contract_edge(
    g: MarkedGraph,
    e: Edge,
    edge_order: tuple[Edge, ...],
    d_order: tuple[int, ...],
):
    """All summands of the edge-contraction move on ``e``.

    Returns a list of (graph, edge_order, d_order, sign).  Tadpoles
    contract to zero (empty list); a marked edge produces one summand per
    flag newly adjacent to the distinguished vertex, discarding summands
    that would create a double-marked tadpole.
    """
    f1, f2 = e
    if g.inv[f1] != f2:
        raise ValueError(f"{e} is not an edge")
    v1, v2 = g.adj[f1], g.adj[f2]
    if v1 == v2:
        return []  # tadpole

    pos = edge_order.index(e)
    move_sign = -1 if (len(edge_order) - 1 - pos) % 2 else 1
    rest_edges = edge_order[:pos] + edge_order[pos + 1 :]

    marked_flags = [f for f in e if f in g.marked]
    if not marked_flags:
        # keep dv; otherwise keep the smaller index
        if v2 == g.dv or (v1 != g.dv and v2 < v1):
            v1, v2 = v2, v1
        out, fmap, _ = _rebuild(g, {f1, f2}, merge={v2: v1})
        new_eo = tuple(_map_edge(fmap, ed) for ed in rest_edges)
        new_do = tuple(fmap[f] for f in d_order)
        return [(out, new_eo, new_do, move_sign)]

    fm = marked_flags[0]
    w = g.adj[g.inv[fm]]  # neutral endpoint absorbed into dv
    newly_adjacent = [f for f in g.flags_at(w) if f != g.inv[fm]]
    dpos = d_order.index(fm)
    results = []
    for fi in newly_adjacent:
        if g.inv[fi] in g.marked:
            continue  # double-marked tadpole: zero by definition
        new_marked = (set(g.marked) - {fm}) | {fi}
        out, fmap, _ = _rebuild(g, {f1, f2}, merge={w: g.dv}, new_marked=new_marked)
        new_eo = tuple(_map_edge(fmap, ed) for ed in rest_edges)
        new_do = tuple(
            fmap[fi] if i == dpos else fmap[f] for i, f in enumerate(d_order)
        )
        results.append((out, new_eo, new_do, move_sign))
    return results


def _map_edge(fmap: dict[int, int], e: Edge) -> Edge:
    a, b = fmap[e[0]], fmap[e[1]]
    return (min(a, b), max(a, b))


def mark_flag(
    g: MarkedGraph,
    f: int,
    edge_order: tuple[Edge, ...],
    d_order: tuple[int, ...],
):
    """Mark the unmarked dv-flag ``f``, placing it first in the marked order.

    Returns (graph, edge_order, d_order, sign), or None when marking would
    create a double-marked tadpole.
    """
    if g.adj[f] != g.dv or f in g.marked:
        raise ValueError(f"flag {f} is not an unmarked flag at the dv")
    if g.inv[f] != f and g.inv[f] in g.marked:
        return None
    out = MarkedGraph(
        nv=g.nv,
        dv=g.dv,
        adj=g.adj,
        inv=g.inv,
        marked=g.marked | {f},
        labels=g.labels,
    )
    return out, edge_order, (f,) + d_order, 1


def core(g: MarkedGraph) -> MarkedGraph:
    """Forget leg labels and strip marked legs."""
    drop = set(g.marked_legs())
    kept = MarkedGraph(
        nv=g.nv,
        dv=g.dv,
        adj=g.adj,
        inv=g.inv,
        marked=g.marked,
        labels=None,
    )
    out, _, _ = _rebuild(kept, drop)
    return out


def add_marked_leg(
    g: MarkedGraph,
    edge_order: tuple[Edge, ...],
    d_order: tuple[int, ...],
):
    """Adjoin a marked leg labeled n+1 at the dv, last in the marked order."""
    f = g.nf
    labels = None
    if g.labels is not None:
        labels = g.labels + (g.n_legs + 1,)
    out = MarkedGraph(
        nv=g.nv,
        dv=g.dv,
        adj=g.adj + (g.dv,),
        inv=g.inv + (f,),
        marked=g.marked | {f},
        labels=labels,
    )
    return out, edge_order, d_order + (f,)


def label_legs(g: MarkedGraph, assignment: dict[int, int] | None = None) -> MarkedGraph:
    """Attach leg labels to an unlabeled graph.

    ``assignment`` maps leg flags to labels; by default legs are labeled
    1..n in flag order.
    """
    if g.labels is not None:
        raise ValueError("graph is already labeled")
    labels = [0] * g.nf
    if assignment is None:
        assignment = {f: i + 1 for i, f in enumerate(g.legs)}
    for f, lbl in assignment.items():
        labels[f] = lbl
    return MarkedGraph(
        nv=g.nv, dv=g.dv, adj=g.adj, inv=g.inv, marked=g.marked, labels=tuple(labels)
    )


def relabel_legs(g: MarkedGraph, sigma: dict[int, int]) -> MarkedGraph:
    """Apply the label permutation i -> sigma[i] (labels are 1-based)."""
    if g.labels is None:
        raise ValueError("graph has no leg labels")
    labels = tuple(sigma[l] if l else 0 for l in g.labels)
    return MarkedGraph(
        nv=g.nv, dv=g.dv, adj=g.adj, inv=g.inv, marked=g.marked, labels=labels
    )


def cut_edge(g: MarkedGraph, e: Edge) -> MarkedGraph:
    """Cut a non-disconnecting edge, labeling the new legs n+1 and n+2."""
    f1, f2 = e
    if g.inv[f1] != f2 or f1 == f2:
        raise ValueError(f"{e} is not an edge")
    if g.genus < 2:
        raise ValueError("cutting requires genus >= 2")
    inv = list(g.inv)
    inv[f1], inv[f2] = f1, f2
    labels = list(g.labels) if g.labels is not None else None
    if labels is not None:
        labels[f1] = g.n_legs + 1
        labels[f2] = g.n_legs + 2
    out = MarkedGraph(
        nv=g.nv,
        dv=g.dv,
        adj=g.adj,
        inv=tuple(inv),
        marked=g.marked,
        labels=tuple(labels) if labels is not None else None,
    )
    if not out.is_connected():
        raise ValueError(f"edge {e} disconnects the graph")
    return out


# ---------------------------------------------------------------------------
# the extremal core family


def build_theta(g: int, ell: int, p: int) -> MarkedGraph:
    """The extremal core graph with ``p`` double-edge neutral vertices.

    Built at the excess of (g, ell): a dv joined to p vertices by marked
    parallel edge pairs (one leg each), to (g-1-p)/2 vertices by marked
    triples, and to (m-p)/2 vertices by single marked edges (two legs each).
    """
    m = 3 * (g - 1) + 2 * ell
    if m < 0:
        raise ValueError("negative excess")
    if p < 0 or p >= g or p > m or (g - p) % 2 == 0:
        raise ValueError(f"invalid parameter p={p} for (g, ell)=({g}, {ell})")
    t = (g - 1 - p) // 2
    y = (m - p) // 2

    adj: list[int] = []
    inv: list[int] = []
    marked: set[int] = set()

    def new_flag(v: int) -> int:
        adj.append(v)
        inv.append(len(adj) - 1)
        return len(adj) - 1

    def edge(v: int, w: int, mark_at_v: bool):
        a, b = new_flag(v), new_flag(w)
        inv[a], inv[b] = b, a
        if mark_at_v:
            marked.add(a)

    def leg(v: int):
        new_flag(v)

    vertex = 1
    for _ in range(p):
        edge(0, vertex, True)
        edge(0, vertex, True)
        leg(vertex)
        vertex += 1
    for _ in range(t):
        for _ in range(3):
            edge(0, vertex, True)
        vertex += 1
    for _ in range(y):
        edge(0, vertex, True)
        leg(vertex)
        leg(vertex)
        vertex += 1

    return MarkedGraph(
        nv=vertex,
        dv=0,
        adj=tuple(adj),
        inv=tuple(inv),
        marked=frozenset(marked),
        labels=None,
    )


# ---------------------------------------------------------------------------
# textual encoding (used by cache files and CLI I/O)


def encode_graph(g: MarkedGraph) -> str:
    parts = [
        str(g.nv),
        str(g.dv),
        ",".join(map(str, g.adj)),
        ",".join(map(str, g.inv)),
        ",".join(map(str, sorted(g.marked))),
        ",".join(map(str, g.labels)) if g.labels is not None else "*",
    ]
    return "|".join(parts)


def decode_graph(text: str) -> MarkedGraph:
    nv, dv, adj, inv, marked, labels = text.strip().split("|")

    def ints(s: str) -> tuple[int, ...]:
        return tuple(int(x) for x in s.split(",")) if s else ()

    return MarkedGraph(
        nv=int(nv),
        dv=int(dv),
        adj=ints(adj),
        inv=ints(inv),
        marked=frozenset(ints(marked)),
        labels=None if labels == "*" else ints(labels),
    )
