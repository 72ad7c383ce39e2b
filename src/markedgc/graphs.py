"""Marked graphs: admissibility, canonical forms, automorphisms and leg
groups, and the edge-contraction / flag-marking moves that generate the
differential.

A graph is a flag structure: ``adj`` sends each flag to its vertex and
``inv`` is an involution pairing flags into edges; fixed points are legs.
A marking is a distinguished vertex ``dv`` plus a set ``marked`` of flags
at ``dv``.  A graph never carries its leg labeling: that is a permutation
rho, with label rho[k] + 1 on leg k (in flag order), kept beside it.

An orientation is an ordering of the edge set and of the marked set, and
every graph is in its reference orientation: its sorted edge list and its
sorted marked list.  Each move returns its result with the sign of the
move against the result's reference orientation, and `canonical_form`
returns the sign relating the graph's reference orientation to its
class's.

There is one graph search, `canonical_form`'s: it tries the vertex
orderings that vertex invariants allow and keeps the least encoding, and
the orderings that tie for it are the graph's automorphisms.  A class
carries its leg group, the action of its automorphisms on its legs with
their det-signs, read from the ties of the search that created the class;
it decides both whether the class vanishes under every labeling and how
S_n acts on its labelings.  It is kept as the search finds it, twin
blocks times the leg actions of the ties, and only `LegGroup.elements`
lists it: `LegGroup.coset_min` sorts a labeling within each block, once
per tie, and takes the sort's sign on marked blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    edge_problems = []
    for f1, v in enumerate(adj):
        valence[v] += 1
        f2 = inv[f1]
        if f2 <= f1:
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
    return problems


def degree(g: MarkedGraph) -> int:
    return g.n_edges + g.n_legs - g.n_marked


# ---------------------------------------------------------------------------
# leg groups


class LegGroup:
    """The leg group of a class graph: the image of its automorphisms on
    its ``n`` legs (numbered in flag order), each element with its
    det-sign, read by `LegGroup.of` from the orderings that tie in the
    `canonical_form` search that created the class.

    Kept as the search finds it: ``blocks`` holds ``(positions, marked)``
    for each twin class of two or more legs, and ``ordered`` the distinct
    ``(sigma, chi)`` of the ties, the identity first.  Every element is,
    uniquely, sigma∘tau with tau a twin permutation, of sign chi times
    the sign of tau on the marked blocks.  The least element of a coset
    takes, for some sigma, the tau that sorts the labeling within every
    block.
    """

    def __init__(self, n: int, blocks: tuple, ordered: tuple):
        self.n, self.blocks, self.ordered = n, blocks, ordered

    @classmethod
    def of(
        cls,
        g: MarkedGraph,
        canon: MarkedGraph,
        ties: list[tuple[int, ...]],
        sign0: int,
    ) -> LegGroup | None:
        """The leg group of ``canon``, or None when an odd automorphism
        fixes every leg: then ``canon`` vanishes.

        ``ties`` are the flag maps from ``g`` onto ``canon`` of the vertex
        orderings that tie in `canonical_form`'s search, and ``sign0`` is
        the orientation sign of the first.  Each phi∘phi_0^-1 is an
        automorphism of ``canon``, and every automorphism is one of these
        after one that fixes every vertex; phi_0∘phi_0^-1 is the identity,
        of sign +1.  A vertex-fixing automorphism permutes twins (legs at
        one vertex with the same marked status), of sign +1 on unmarked
        twins and the permutation's sign on marked ones; otherwise it swaps
        parallel edges or flips tadpoles, which is odd exactly when two
        unmarked edges share their ends.  The flag maps number twins in
        flag order, so every automorphism is, uniquely, some phi∘phi_0^-1
        on the legs after a twin permutation.
        """
        ends = set()
        for f1, f2 in canon.edges:
            if f1 not in canon.marked and f2 not in canon.marked:
                pair = tuple(sorted((canon.adj[f1], canon.adj[f2])))
                if pair in ends:
                    return None  # swapping the two is odd and fixes every leg
                ends.add(pair)
        back = [0] * g.nf
        for f, image in enumerate(ties[0]):
            back[image] = f
        legs = canon.legs
        index = {f: k for k, f in enumerate(legs)}
        twins: dict[tuple[int, bool], list[int]] = {}
        for k, f in enumerate(legs):
            twins.setdefault((canon.adj[f], f in canon.marked), []).append(k)
        ordered: dict[Permutation, int] = {tuple(range(len(legs))): 1}
        for phi in ties[1:]:
            sign = sign0 * _orientation_sign(g, phi)
            sigma = tuple([index[phi[back[f]]] for f in legs])
            if ordered.setdefault(sigma, sign) != sign:
                return None  # the two differ by an odd leg-fixing automorphism
        blocks = tuple(
            (tuple(ks), marked) for (_, marked), ks in twins.items() if len(ks) > 1
        )
        return cls(len(legs), blocks, tuple(ordered.items()))

    def elements(self) -> dict[Permutation, int]:
        """Every element with its det-sign."""
        out: dict[Permutation, int] = {}
        for shuffles in product(*(permutations(ks) for ks, _ in self.blocks)):
            tau = list(range(self.n))
            twin_sign = 1
            for (ks, marked), images in zip(self.blocks, shuffles):
                for a, b in zip(ks, images):
                    tau[a] = b
                if marked:
                    twin_sign *= perm_sign([ks.index(b) for b in images])
            for sigma, sign in self.ordered:
                out[tuple([sigma[t] for t in tau])] = sign * twin_sign
        return out

    def _sort_blocks(self, image: list[int]) -> int:
        """Sort ``image`` within every block, in place, and return the
        sign of the sort on the marked blocks."""
        sign = 1
        for ks, marked in self.blocks:
            values = [image[k] for k in ks]
            ordered = sorted(values)
            if ordered != values:
                for k, x in zip(ks, ordered):
                    image[k] = x
                if marked:
                    sign *= perm_sign(sorted(range(len(ks)), key=values.__getitem__))
        return sign

    def coset_min(self, rho: Permutation) -> tuple[Permutation, int]:
        """The lex-least element rho∘h of the coset rho·H, with chi(h).

        For each sigma, tau sorts rho∘sigma within every block, a
        permutation of twins whose sign counts on the marked blocks.
        """
        best, best_chi = None, 0
        for sigma, chi in self.ordered:
            image = [rho[x] for x in sigma]
            chi *= self._sort_blocks(image)
            if best is None or image < best:
                best, best_chi = image, chi
        return tuple(best), best_chi

    def labelings(self):
        """One leg labeling per coset: each permutation rho of 0..n-1 that
        is its coset's minimum, in increasing order.

        Values are chosen position by position, each above the value at
        the previous position of its block.  A candidate is then sorted
        within its blocks, so the identity tie leaves it as it is, and it
        is kept unless another tie sorts to a lex-smaller labeling.
        """
        n = self.n
        others = [sigma for sigma, _ in self.ordered[1:]]
        previous = [None] * n
        for ks, _ in self.blocks:
            for a, b in zip(ks, ks[1:]):
                previous[b] = a
        rho = [0] * n
        used = [False] * n

        def extend(p: int):
            if p == n:
                for sigma in others:
                    image = [rho[x] for x in sigma]
                    self._sort_blocks(image)
                    if image < rho:
                        return
                yield tuple(rho)
                return
            least = 0 if previous[p] is None else rho[previous[p]] + 1
            for v in range(least, n):
                if not used[v]:
                    used[v] = True
                    rho[p] = v
                    yield from extend(p + 1)
                    used[v] = False

        yield from extend(0)


# ---------------------------------------------------------------------------
# canonical form

_class_cache: dict[tuple, "OrientedClass"] = {}


@dataclass(frozen=True)
class OrientedClass:
    """Canonical representative of an isomorphism class, with the reference
    orientation given by its sorted edge list and sorted marked list, and
    its `LegGroup`, built with the class."""

    graph: MarkedGraph
    key: tuple = field(repr=False)
    # None when an odd automorphism fixes every leg: the class is zero
    # under every labeling
    leg_group: LegGroup | None = field(repr=False)

    def __eq__(self, other) -> bool:
        return isinstance(other, OrientedClass) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)


def _vertex_invariant(g: MarkedGraph, v: int):
    inv, adj, dv, marked = g.inv, g.adj, g.dv, g.marked
    flags = g.flags_at(v)
    n_legs = n_marked = to_dv = here = 0
    for f in flags:
        if f in marked:
            n_marked += 1
        partner = inv[f]
        if partner == f:
            n_legs += 1
            here += 1
        else:
            if adj[partner] == dv:
                to_dv += 1
            if adj[partner] == v:
                here += 1
    return (
        v != dv,
        len(flags),
        n_legs,
        n_marked,
        to_dv,
        here,  # flags whose partner is at v: legs and tadpole flags
    )


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
    adj, inv, marked = g.adj, g.inv, g.marked
    nf = len(adj)
    vindex = [0] * g.nv
    for i, v in enumerate(vorder):
        vindex[v] = i
    phi = [-1] * nf
    new_adj = [0] * nf
    new_inv = [0] * nf
    new_marked = []
    n = 0
    for i, v in enumerate(vorder):
        # Each vertex's keys are sorted once.  Numbering a flag changes
        # only its partner's key, and only while that partner waits here
        # (a tadpole): it then becomes the least key, so the partner is
        # numbered next, and tadpole and parallel-edge pairings do not
        # depend on input flag ids.
        keys = []
        for f in g.flags_at(v):
            partner = inv[f]
            if partner == f:
                keys.append((1, f in marked, f))
            elif phi[partner] != -1:
                keys.append((0, phi[partner], f))
            else:
                keys.append(
                    (2, vindex[adj[partner]], f in marked, partner in marked, f)
                )
        keys.sort()
        for key in keys:
            f = key[-1]
            while phi[f] == -1:
                phi[f] = n
                new_adj[n] = i
                if f in marked:
                    new_marked.append(n)
                partner = inv[f]
                if partner == f:
                    new_inv[n] = n
                elif phi[partner] != -1:
                    new_inv[n], new_inv[phi[partner]] = phi[partner], n
                elif adj[partner] == v:
                    f = partner  # the tadpole's other flag, numbered next
                n += 1
    encoding = (g.nv, nf, tuple(new_adj), tuple(new_inv), tuple(new_marked))
    return encoding, tuple(phi)


class CanonicalForm(tuple):
    """The ``(class, sign)`` pair returned by `canonical_form`.

    ``phi`` is the flag map of the same search: flag ``f`` of the input
    graph is flag ``phi[f]`` of ``class.graph``.
    """

    phi: tuple[int, ...]


def canonical_form(g: MarkedGraph) -> tuple[OrientedClass, int]:
    """Canonicalize ``g`` and return the class together with the sign
    relating ``g``'s reference orientation to the class's.

    The sign is well defined for non-vanishing classes; for vanishing ones
    it is reported relative to an arbitrary but fixed choice.  The pair is
    a `CanonicalForm`, which also carries the flag map of the search.
    """
    encoding, ties = _least_encoding(g)
    phi = ties[0]
    sign = _orientation_sign(g, phi)
    cls = _class_cache.get(encoding)
    if cls is None:
        canon = _graph_of(encoding)
        cls = OrientedClass(canon, encoding, LegGroup.of(g, canon, ties, sign))
        _class_cache[encoding] = cls
    out = CanonicalForm((cls, sign))
    out.phi = phi
    return out


def _least_encoding(g: MarkedGraph) -> tuple[tuple, list[tuple[int, ...]]]:
    """The least encoding over the vertex orderings `_neutral_orderings`
    allows, with the flag map of every ordering that reaches it, in the
    order they are found."""
    best, ties = None, []
    for vorder in _neutral_orderings(g):
        encoding, phi = _flag_assignment(g, vorder)
        if best is None or encoding < best:
            best, ties = encoding, [phi]
        elif encoding == best:
            ties.append(phi)
    return best, ties


def _graph_of(encoding: tuple) -> MarkedGraph:
    nv, _, adj, inv, marked = encoding
    return MarkedGraph(nv=nv, dv=0, adj=adj, inv=inv, marked=frozenset(marked))


def _orientation_sign(g: MarkedGraph, phi: tuple[int, ...]) -> int:
    """Sign of the flag map ``phi`` from ``g`` onto its class graph on
    det(E) x det^{-1}(D): g's sorted orders, mapped by phi, against the
    class graph's sorted orders.  Those sort edges by their lower flag
    and marks by flag, so each sign is the sign of the sort of the
    mapped lower flags, or of the mapped marks."""
    lows = [min(phi[f1], phi[f2]) for f1, f2 in g.edges]
    marks = [phi[f] for f in sorted(g.marked)]
    return perm_sign(sorted(range(len(lows)), key=lows.__getitem__)) * perm_sign(
        sorted(range(len(marks)), key=marks.__getitem__)
    )


# ---------------------------------------------------------------------------
# moves


def _rebuild(
    g: MarkedGraph,
    drop_flags: set[int],
    merge: dict[int, int] | None = None,
    new_marked: set[int] | None = None,
) -> MarkedGraph:
    """Delete flags, optionally merge vertices, and re-index densely.

    The remaining flags keep their order, so the remaining edges and marks
    stay sorted.
    """
    merge = merge or {}
    keep = [f for f in range(g.nf) if f not in drop_flags]
    fmap = {f: i for i, f in enumerate(keep)}
    vtarget = [merge.get(v, v) for v in range(g.nv)]
    vkeep = sorted(set(vtarget))
    vmap = {v: i for i, v in enumerate(vkeep)}
    marked_src = g.marked if new_marked is None else new_marked
    return MarkedGraph(
        nv=len(vkeep),
        dv=vmap[vtarget[g.dv]],
        adj=tuple(vmap[vtarget[g.adj[f]]] for f in keep),
        inv=tuple(fmap[g.inv[f]] for f in keep),
        marked=frozenset(fmap[f] for f in marked_src if f not in drop_flags),
    )


def contract_edge(g: MarkedGraph, e: Edge) -> list[tuple[MarkedGraph, int]]:
    """All summands of the edge-contraction move on ``e``, as (graph, sign)
    with the sign against the graph's reference orientation.

    ``e`` leaves from the last wedge position: (-1)^{|E|-1-pos} for e at
    ``pos`` in ``g.edges``.  Tadpoles contract to zero (empty list); a
    marked edge produces one summand per flag newly adjacent to the
    distinguished vertex, which takes the marked flag's slot in the marked
    order, discarding summands that would create a double-marked tadpole.
    """
    f1, f2 = e
    if g.inv[f1] != f2:
        raise ValueError(f"{e} is not an edge")
    v1, v2 = g.adj[f1], g.adj[f2]
    if v1 == v2:
        return []  # tadpole

    pos = g.edges.index(e)
    move_sign = -1 if (g.n_edges - 1 - pos) % 2 else 1

    marked_flags = [f for f in e if f in g.marked]
    if not marked_flags:
        # keep dv; otherwise keep the smaller index
        if v2 == g.dv or (v1 != g.dv and v2 < v1):
            v1, v2 = v2, v1
        return [(_rebuild(g, {f1, f2}, merge={v2: v1}), move_sign)]

    fm = marked_flags[0]
    w = g.adj[g.inv[fm]]  # neutral endpoint absorbed into dv
    newly_adjacent = [f for f in g.flags_at(w) if f != g.inv[fm]]
    results = []
    for fi in newly_adjacent:
        if g.inv[fi] in g.marked:
            continue  # double-marked tadpole: zero by definition
        lo, hi = min(fm, fi), max(fm, fi)
        between = sum(1 for f in g.marked if lo < f < hi)
        new_marked = (set(g.marked) - {fm}) | {fi}
        out = _rebuild(g, {f1, f2}, merge={w: g.dv}, new_marked=new_marked)
        results.append((out, -move_sign if between % 2 else move_sign))
    return results


def mark_flag(g: MarkedGraph, f: int) -> tuple[MarkedGraph, int] | None:
    """Mark the unmarked dv-flag ``f``, placing it first in the marked order.

    Returns (graph, sign), the sign (-1)^{#marks below f} against the
    graph's reference orientation, or None when marking would create a
    double-marked tadpole.
    """
    if g.adj[f] != g.dv or f in g.marked:
        raise ValueError(f"flag {f} is not an unmarked flag at the dv")
    if g.inv[f] != f and g.inv[f] in g.marked:
        return None
    out = MarkedGraph(nv=g.nv, dv=g.dv, adj=g.adj, inv=g.inv, marked=g.marked | {f})
    below = sum(1 for m in g.marked if m < f)
    return out, -1 if below % 2 else 1


def core(g: MarkedGraph) -> MarkedGraph:
    """Strip the marked legs."""
    return _rebuild(g, set(g.marked_legs()))


def add_marked_leg(g: MarkedGraph) -> MarkedGraph:
    """Adjoin a marked leg at the dv.  It is the last flag, so it is the
    last leg in flag order (a labeling rho extends by n), and the result is
    in its reference orientation with sign +1."""
    f = g.nf
    return MarkedGraph(
        nv=g.nv, dv=g.dv, adj=g.adj + (g.dv,), inv=g.inv + (f,), marked=g.marked | {f}
    )


def cut_edge(g: MarkedGraph, e: Edge) -> MarkedGraph:
    """Cut a non-disconnecting edge into two legs, which keep the edge's
    flags."""
    f1, f2 = e
    if g.inv[f1] != f2 or f1 == f2:
        raise ValueError(f"{e} is not an edge")
    if g.genus < 2:
        raise ValueError("cutting requires genus >= 2")
    inv = list(g.inv)
    inv[f1], inv[f2] = f1, f2
    out = MarkedGraph(nv=g.nv, dv=g.dv, adj=g.adj, inv=tuple(inv), marked=g.marked)
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
        "*",  # the leg-label field, kept so the cache format is unchanged
    ]
    return "|".join(parts)


def decode_graph(text: str) -> MarkedGraph:
    """The graph `encode_graph` wrote; a leg-label field other than ``*``
    raises ValueError."""
    nv, dv, adj, inv, marked, leg_field = text.strip().split("|")
    if leg_field != "*":
        raise ValueError(f"a graph line with a leg labeling: {text.strip()!r}")

    def ints(s: str) -> tuple[int, ...]:
        return tuple(int(x) for x in s.split(",")) if s else ()

    return MarkedGraph(
        nv=int(nv),
        dv=int(dv),
        adj=ints(adj),
        inv=ints(inv),
        marked=frozenset(ints(marked)),
    )
