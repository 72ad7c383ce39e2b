"""Marked graphs: admissibility, canonical forms, automorphisms and leg
groups, and the edge-contraction / flag-marking moves that generate the
differential.

A graph is a flag structure: ``adj`` sends each flag to its vertex and
``inv`` is an involution pairing flags into edges; fixed points are legs.
Vertex 0 is the distinguished vertex (the dv), and a marking is a set
``marked`` of flags at it.  `assemble` builds a graph from its edges and
per-vertex leg counts.  A graph never carries its leg labeling: that is a
permutation rho, with label rho[k] + 1 on leg k (in flag order), kept
beside it.

An orientation is an ordering of the edge set and of the marked set, and
every graph is in its reference orientation: its sorted edge list and its
sorted marked list.  Each move returns its result with the sign of the
move against the result's reference orientation, and `canonical_form`
returns the sign relating the graph's reference orientation to its
class's.

There is one graph search, `canonical_form`'s: it tries the vertex
orderings that vertex invariants allow and keeps the least encoding, and
the orderings that tie for it are the graph's automorphisms.  It reads
the flags once for the invariants, tries one ordering when they tell
every neutral vertex apart, and signs a flag map by `perm_sign`.
A class carries its leg group, the action of its automorphisms on its
legs with their det-signs, read from the ties of the search that created
the class; it decides both whether the class vanishes under every
labeling and how S_n acts on its labelings.  It is kept as the search
finds it, twin blocks times the leg actions of the ties, and only
`LegGroup.elements` lists it: `LegGroup.coset_min` sorts a labeling
within each block, once per tie, and takes the sort's sign on marked
blocks.  The labelings, one coset minimum per coset, are an orbit walk:
`LegGroup.orbit` walks the cosets from the identity's under the
`generators` (0 1) and the n-cycle, each image reduced by `coset_min`,
once per `LegGroup.structure` (n, blocks, ordered) and process.  The
`Orbit` keeps each generator's signed action on the labelings and the
walk's tree, from which `complexes` reads the generators' actions and
carries the differential's columns, with no further coset minimum.

Marked legs at the distinguished vertex ride along with no search.
Every ordering the search tries numbers the dv's legs first, so marked
dv legs added to a graph sit at one fixed place in every ordering's
encoding, and the least encoding, its ties and their flag maps carry
over (the insertion lemma, proved at `insert_marked_legs`).  So
`insert_marked_legs` gives a class with more marked legs, its leg group
included, from the class without them, and `core_class` reads a class's
core back off its encoding.  One rule places new legs in a labelled
term [cls, tau]: `add_marked_legs` puts them right after the marked dv
legs labelled below theirs.  The enumeration, the boundary lift and the
stabilization map all add legs through it.  A class is a core plus
marked legs, so only cores cost a search.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import chain, permutations, product

from .reptheory import Permutation, perm_sign

Edge = tuple[int, int]  # (flag, flag) with flag0 < flag1


class MarkedGraph:
    """A flag structure with a marking; equal graphs compare and hash
    equal field by field."""

    def __init__(
        self,
        nv: int,
        adj: tuple[int, ...],
        inv: tuple[int, ...],
        marked: frozenset[int],
    ):
        self.nv, self.adj, self.inv, self.marked = nv, adj, inv, marked

    def __eq__(self, other) -> bool:
        return isinstance(other, MarkedGraph) and (
            self.nv, self.adj, self.inv, self.marked
        ) == (other.nv, other.adj, other.inv, other.marked)

    def __hash__(self) -> int:
        return hash((self.nv, self.adj, self.inv, self.marked))

    def __repr__(self) -> str:
        return f"MarkedGraph({self.nv}, {self.adj}, {self.inv}, {self.marked})"

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

    def marked_legs(self) -> tuple[int, ...]:
        return tuple(f for f in self.legs if f in self.marked)


def validate(g: MarkedGraph) -> list[str]:
    """Return the list of violated admissibility clauses (empty = admissible)."""
    problems = []
    nf, nv = g.nf, g.nv
    adj, inv, marked = g.adj, g.inv, g.marked
    if (
        len(inv) != nf
        or nv < 1
        or any(not 0 <= f < nf for f in (*inv, *marked))
    ):
        return ["malformed flag structure"]
    if any(not 0 <= v < nv for v in adj):
        return ["adjacency out of range"]
    if any(inv[p] != f for f, p in enumerate(inv)):
        problems.append("involution is not an involution")
        return problems
    # One pass over the flags: valences and the edge clauses (reported
    # after the valence clauses, in edge order).
    valence = [0] * nv
    edge_problems = []
    for f1, v in enumerate(adj):
        valence[v] += 1
        f2 = inv[f1]
        if f2 <= f1:
            continue
        if v == adj[f2] != 0:
            edge_problems.append(f"tadpole at neutral vertex {v}")
        if f1 in marked and f2 in marked:
            edge_problems.append(f"edge ({f1},{f2}) marked on both flags")
    if not is_connected(g):
        problems.append("graph is not connected")
    for v in range(1, nv):
        if valence[v] < 3:
            problems.append(f"neutral vertex {v} has valence < 3")
    problems.extend(edge_problems)
    for f in marked:
        if adj[f] != 0:
            problems.append(f"marked flag {f} not at the distinguished vertex")
    return problems


def is_connected(g: MarkedGraph) -> bool:
    """Whether the edges join all of ``g``'s vertices: a union-find over
    the edges."""
    adj, parent = g.adj, list(range(g.nv))
    for f1, f2 in enumerate(g.inv):
        if f1 < f2:
            v, w = adj[f1], adj[f2]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            while parent[w] != w:
                parent[w] = w = parent[parent[w]]
            parent[v] = w
    return sum(1 for v, p in enumerate(parent) if v == p) == 1


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
        self._orbit: Orbit | None = None

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
        ordered: dict[Permutation, int] = {tuple(range(len(legs))): 1}
        for phi in ties[1:]:
            sign = sign0 * _orientation_sign(g, phi)
            sigma = tuple([index[phi[back[f]]] for f in legs])
            if ordered.setdefault(sigma, sign) != sign:
                return None  # the two differ by an odd leg-fixing automorphism
        return cls(len(legs), _twin_blocks(canon), tuple(ordered.items()))

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
                    twin_sign *= perm_sign(images)
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
                    sign *= perm_sign(values)
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

    @property
    def structure(self) -> tuple:
        """``(n, blocks, ordered)``: groups of equal structure are one
        group, with one orbit walk and one induced module."""
        return self.n, self.blocks, self.ordered

    def orbit(self) -> Orbit:
        """The `Orbit` of the cosets, walked once per structure and
        process."""
        if self._orbit is None:
            key = self.structure
            self._orbit = _orbits.get(key)
            if self._orbit is None:
                self._orbit = _orbits[key] = self._walk()
        return self._orbit

    def labelings(self) -> tuple[Permutation, ...]:
        """One leg labeling per coset: each permutation rho of 0..n-1 that
        is its coset's minimum, in increasing order."""
        return self.orbit().labelings

    def _walk(self) -> Orbit:
        """The orbit of the identity's coset under `generators`, breadth
        first.  Each generator s takes the coset of rho to that of s∘rho,
        reduced by `coset_min`; S_n is generated by them and acts on the
        cosets transitively, so the walk meets every coset minimum."""
        gens = generators(self.n)
        walk = [tuple(range(self.n))]  # the identity is its coset's minimum
        found = {walk[0]: 0}
        tree = []  # (walk index, its parent's, generator) but for the identity
        moves = [([], []) for _ in gens]  # (images, signs) in walk indices
        p = 0
        while p < len(walk):
            for k, s in enumerate(gens):
                moved = tuple([s[x] for x in walk[p]])
                image, chi = self.coset_min(moved)
                q = found.setdefault(image, len(walk))
                if q == len(walk):
                    walk.append(image)
                    tree.append((q, p, k))
                moves[k][0].append(q)
                moves[k][1].append(chi)
            p += 1
        order = sorted(range(len(walk)), key=walk.__getitem__)
        local = [0] * len(walk)
        for index, p in enumerate(order):
            local[p] = index
        return Orbit(
            tuple([walk[p] for p in order]),
            [([local[images[p]] for p in order], [signs[p] for p in order])
             for images, signs in moves],
            [(local[q], local[p], k) for q, p, k in tree],
        )


_orbits: dict[tuple, Orbit] = {}  # LegGroup.structure -> its orbit


class Orbit:
    """The cosets of a leg group H, walked by `LegGroup._walk`.

    ``labelings`` are their minima in increasing order; a labeling's
    index there is its local position.  ``actions`` holds one signed map
    ``(images, signs)`` per generator s of `generators`, in local
    positions: s·[xi, rho_p] = signs[p]·[xi, rho_images[p]].  ``tree``
    lists ``(p, parent, k)`` in walk order, the identity (position 0)
    left out: rho_p is reached from rho_parent, walked before it, by
    generator k.
    """

    def __init__(self, labelings: tuple, actions: list, tree: list):
        self.labelings, self.actions, self.tree = labelings, actions, tree


def generators(n: int) -> tuple[Permutation, ...]:
    """The generators of S_n that the orbit walk and the composed actions
    use: s_0 = (0 1) and the n-cycle x -> x + 1 mod n, which is s_0 when
    n = 2; none when n < 2."""
    if n < 2:
        return ()
    s_0 = (1, 0, *range(2, n))
    return (s_0,) if n == 2 else (s_0, (*range(1, n), 0))


def _twin_blocks(canon: MarkedGraph) -> tuple:
    """``(positions, marked)`` for each twin class of two or more legs of
    ``canon`` (legs at one vertex with one marked status), in order of
    each class's first leg."""
    twins: dict[tuple[int, bool], list[int]] = {}
    for k, f in enumerate(canon.legs):
        twins.setdefault((canon.adj[f], f in canon.marked), []).append(k)
    return tuple(
        (tuple(ks), marked) for (_, marked), ks in twins.items() if len(ks) > 1
    )


# ---------------------------------------------------------------------------
# canonical form

_class_cache: dict[tuple, "OrientedClass"] = {}


class OrientedClass:
    """Canonical representative of an isomorphism class, with the reference
    orientation given by its sorted edge list and sorted marked list, and
    its `LegGroup`, built with the class.  Classes compare by ``key``, the
    least encoding."""

    def __init__(self, graph: MarkedGraph, key: tuple, leg_group: LegGroup | None):
        self.graph, self.key = graph, key
        # None when an odd automorphism fixes every leg: the class is zero
        # under every labeling
        self.leg_group = leg_group

    def __repr__(self) -> str:
        return f"OrientedClass(graph={self.graph!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, OrientedClass) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)


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
    """The least encoding (nv, nf, adj, inv, marked) over the vertex
    orderings that vertex invariants allow, with the flag map of every
    ordering that reaches it, in the order they are found.

    One pass over the flags lists each vertex's flags and counts its
    invariant: flags, legs, marks, edge flags to the dv, and flags whose
    partner is here.  An ordering is the dv, vertex 0, then the pools of
    equal invariant in increasing order, each permuted; a discrete
    partition leaves one.  Each vertex's keys are sorted once.  Numbering a flag
    changes only its partner's key, and only while that partner waits
    here (a tadpole): it then becomes the least key, so the partner is
    numbered next, and tadpole and parallel-edge pairings do not depend
    on input flag ids.
    """
    nv, adj, inv, marked = g.nv, g.adj, g.inv, g.marked
    nf = len(adj)
    flags: list[list[int]] = [[] for _ in range(nv)]
    counts = [[0, 0, 0, 0, 0] for _ in range(nv)]
    for f, v in enumerate(adj):
        flags[v].append(f)
        partner = inv[f]
        w = adj[partner]
        count = counts[v]
        count[0] += 1
        count[1] += partner == f
        count[2] += f in marked
        count[3] += partner != f and w == 0
        count[4] += w == v
    pools: dict[tuple, list[int]] = {}
    for v in range(1, nv):
        pools.setdefault(tuple(counts[v]), []).append(v)
    invariants = sorted(pools)
    if len(invariants) == nv - 1:
        orderings = [(0, *[pools[k][0] for k in invariants])]
    else:
        orderings = (
            (0, *chain.from_iterable(parts))
            for parts in product(*[permutations(pools[k]) for k in invariants])
        )
    best, ties = None, []
    for vorder in orderings:
        vindex = [0] * nv
        for i, v in enumerate(vorder):
            vindex[v] = i
        phi = [-1] * nf
        new_adj = [0] * nf
        new_inv = [0] * nf
        new_marked = []
        n = 0
        for i, v in enumerate(vorder):
            keys = []
            for f in flags[v]:
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
        encoding = (nv, nf, tuple(new_adj), tuple(new_inv), tuple(new_marked))
        if best is None or encoding < best:
            best, ties = encoding, [tuple(phi)]
        elif encoding == best:
            ties.append(tuple(phi))
    return best, ties


def _graph_of(encoding: tuple) -> MarkedGraph:
    nv, _, adj, inv, marked = encoding
    return MarkedGraph(nv=nv, adj=adj, inv=inv, marked=frozenset(marked))


def _orientation_sign(g: MarkedGraph, phi: tuple[int, ...]) -> int:
    """Sign of the flag map ``phi`` from ``g`` onto its class graph on
    det(E) x det^{-1}(D).  The class graph sorts edges by lower flag and
    marks by flag, so the sign is that of the sort of the mapped lower
    flags of g's sorted edges times that of the sort of its mapped sorted
    marks."""
    lows = [phi[f] if phi[f] < phi[p] else phi[p] for f, p in enumerate(g.inv) if f < p]
    return perm_sign(lows) * perm_sign([phi[f] for f in sorted(g.marked)])


# ---------------------------------------------------------------------------
# marked legs ride along


def _marked_dv_legs(encoding: tuple) -> tuple[int, int]:
    """``(start, end)``: the marked dv legs of a class graph are its flags
    start..end-1.  The dv legs are its first flags, unmarked before
    marked, so flag k < end is also leg k."""
    _, nf, adj, inv, marked = encoding
    end = 0
    while end < nf and inv[end] == end and adj[end] == 0:
        end += 1
    return end - bisect_left(marked, end), end


def _edit_dv_legs(encoding: tuple, at: int, j: int) -> tuple:
    """``encoding`` with j marked dv legs inserted as flags at..at+j-1,
    or, when j < 0, with its flags at..at-j-1 removed."""
    nv, nf, adj, inv, marked = encoding
    end = at - min(j, 0)
    new = tuple(range(at, at + j))
    return (
        nv,
        nf + j,
        adj[:at] + (0,) * j + adj[end:],
        inv[:at] + new + tuple([f + j for f in inv[end:]]),
        marked[: bisect_left(marked, at)]
        + new
        + tuple([f + j for f in marked[bisect_left(marked, end) :]]),
    )


def _insert_labels(tau: Permutation, at: int, b: int, j: int) -> Permutation:
    """``tau`` with its labels >= b raised by j and the labels b..b+j-1
    inserted at positions at..at+j-1."""
    shifted = [k + j if k >= b else k for k in tau]
    return tuple(shifted[:at] + list(range(b, b + j)) + shifted[at:])


def insert_marked_legs(cls: OrientedClass, j: int, at: int) -> OrientedClass:
    """The class of ``cls.graph`` with ``j`` marked legs inserted at the
    distinguished vertex as flags at..at+j-1, found with no search.
    ``at`` lies between the graph's unmarked dv legs and the end of its
    dv legs; flag ``at`` is then leg ``at``.

    The insertion lemma.  Every ordering `_least_encoding` tries puts the
    dv first and numbers its legs first, unmarked then marked, each by
    flag id, and a leg at the dv changes no neutral vertex's invariant,
    so the inserted graph has the same orderings.  Each of them numbers
    the new legs at..at+j-1 and every other flag as before, shifted by j
    from ``at`` on, because a flag's key at a neutral vertex compares
    only numbers that the shift keeps in order.  So its encoding is the
    old one with j marked-leg flags inserted at ``at``.  That edit is
    injective and keeps the order of encodings: the flags before ``at``
    are dv legs in every ordering, and the shift is increasing.  The
    least encoding and its ties therefore carry over, with the flag maps
    shifted alike.  ``cls.graph`` is its own least encoding, reached
    first by the identity, so the inserted graph is its class graph in
    the same way, with sign +1.

    Its leg group: every tie numbers the new legs alike, so each tie's
    leg action fixes them, and sigma gains them as fixed points (the
    label insertion with b = at) and keeps its chi.  The new legs join
    the marked twin block at the dv, and the blocks are read off the new
    graph as `LegGroup.of` reads them.  The ties and their signs are
    those of ``cls``, and parallel unmarked edges are unchanged, so an
    odd automorphism fixing every leg exists exactly when it does for
    ``cls``: the class vanishes exactly when ``cls`` does.
    """
    key = _edit_dv_legs(cls.key, at, j)
    out = _class_cache.get(key)
    if out is None:
        canon = _graph_of(key)
        group = cls.leg_group
        if group is not None:
            ordered = tuple(
                (_insert_labels(sigma, at, at, j), chi) for sigma, chi in group.ordered
            )
            group = LegGroup(group.n + j, _twin_blocks(canon), ordered)
        out = OrientedClass(canon, key, group)
        _class_cache[key] = out
    return out


def add_marked_legs(
    cls: OrientedClass, tau: Permutation, b: int, j: int
) -> tuple[OrientedClass, Permutation]:
    """The labelled term [cls, tau] with ``j`` marked legs added at the
    distinguished vertex, labelled b..b+j-1, labels >= b raised by j: the
    class and its leg map (see `complexes._leg_map`), found with no
    search.

    The one rule: the new legs join the class's marked dv legs in label
    order, right after those with tau < b.  The class is then
    `insert_marked_legs` there, and the labels go in at the same place.

    Why.  Let [cls, tau] be the canonical form of a graph h whose leg k
    has label k, and h' be h with the new legs added as marked dv legs
    in label order: its legs b..b+j-1, the labels still following the
    flag order.  The search numbers a graph's marked dv legs by flag id,
    and so by label, so along the class's marked dv legs tau increases
    (the scan below relies on it), and the new legs land right after
    those with label < b.  Every other flag is numbered as for h, by the
    insertion lemma, so [class, tau'] is the canonical form of h'.  This
    covers j marked legs appended as the last flags (b = n) and a move
    result of a core with legs inserted after its b dv legs, since the
    moves keep flag order (`complexes._core_boundary`).  The lifted tau'
    again increases along the marked dv legs.
    """
    start, end = _marked_dv_legs(cls.key)
    at = start
    while at < end and tau[at] < b:
        at += 1
    return insert_marked_legs(cls, j, at), _insert_labels(tau, at, b, j)


def core_class(cls: OrientedClass) -> tuple[OrientedClass, int, int]:
    """``(core, j, b)`` with ``cls`` = `insert_marked_legs` ``(core, j,
    b)``: the class of ``cls.graph`` without its j marked legs, which
    are its flags b..b+j-1 after the core's b dv legs.  The core's
    encoding is ``cls``'s with those flags removed (the insertion lemma
    read backwards); a core not yet in the class cache costs one
    search."""
    start, end = _marked_dv_legs(cls.key)
    key = _edit_dv_legs(cls.key, start, start - end)
    core = _class_cache.get(key)
    if core is None:
        core = canonical_form(_graph_of(key))[0]
    return core, end - start, start


# ---------------------------------------------------------------------------
# moves


def _rebuild(
    g: MarkedGraph,
    drop_flags: set[int],
    merge: dict[int, int],
    new_marked: set[int] | None = None,
) -> MarkedGraph:
    """Delete flags, merge vertices, and re-index densely.

    The remaining flags keep their order, so the remaining edges and marks
    stay sorted.  A vertex merges into a smaller one, so vertex 0 stays
    the dv.
    """
    keep = [f for f in range(g.nf) if f not in drop_flags]
    fmap = {f: i for i, f in enumerate(keep)}
    vtarget = [merge.get(v, v) for v in range(g.nv)]
    vkeep = sorted(set(vtarget))
    vmap = {v: i for i, v in enumerate(vkeep)}
    marked_src = g.marked if new_marked is None else new_marked
    return MarkedGraph(
        nv=len(vkeep),
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
        # keep the smaller index, so the dv, vertex 0, stays
        return [(_rebuild(g, {f1, f2}, merge={max(v1, v2): min(v1, v2)}), move_sign)]

    fm = marked_flags[0]
    w = g.adj[g.inv[fm]]  # neutral endpoint absorbed into dv
    newly_adjacent = [f for f, v in enumerate(g.adj) if v == w and f != g.inv[fm]]
    results = []
    for fi in newly_adjacent:
        if g.inv[fi] in g.marked:
            continue  # double-marked tadpole: zero by definition
        lo, hi = min(fm, fi), max(fm, fi)
        between = sum(1 for f in g.marked if lo < f < hi)
        new_marked = (set(g.marked) - {fm}) | {fi}
        out = _rebuild(g, {f1, f2}, merge={w: 0}, new_marked=new_marked)
        results.append((out, -move_sign if between % 2 else move_sign))
    return results


def mark_flag(g: MarkedGraph, f: int) -> tuple[MarkedGraph, int] | None:
    """Mark the unmarked dv-flag ``f``, placing it first in the marked order.

    Returns (graph, sign), the sign (-1)^{#marks below f} against the
    graph's reference orientation, or None when marking would create a
    double-marked tadpole.
    """
    if g.adj[f] != 0 or f in g.marked:
        raise ValueError(f"flag {f} is not an unmarked flag at the dv")
    if g.inv[f] != f and g.inv[f] in g.marked:
        return None
    out = MarkedGraph(nv=g.nv, adj=g.adj, inv=g.inv, marked=g.marked | {f})
    below = sum(1 for m in g.marked if m < f)
    return out, -1 if below % 2 else 1


def cut_edge(g: MarkedGraph, e: Edge) -> MarkedGraph:
    """Cut a non-disconnecting edge into two legs, which keep the edge's
    flags."""
    f1, f2 = e
    if g.inv[f1] != f2 or f1 == f2:
        raise ValueError(f"{e} is not an edge")
    inv = list(g.inv)
    inv[f1], inv[f2] = f1, f2
    out = MarkedGraph(nv=g.nv, adj=g.adj, inv=tuple(inv), marked=g.marked)
    if not is_connected(out):
        raise ValueError(f"edge {e} disconnects the graph")
    return out


# ---------------------------------------------------------------------------
# assembly


def assemble(
    nv: int,
    edges: tuple[tuple[int, int], ...],
    legs_at: tuple[int, ...],
    marked: frozenset[int] = frozenset(),
) -> MarkedGraph:
    """The graph on the vertices 0..nv-1 with the edges ``edges``, as
    vertex pairs, and ``legs_at[v]`` legs at each vertex v.  Edge flags
    come first: edge k is the flags 2k at its first vertex and 2k + 1 at
    its second, so flag f's partner is f ^ 1.  The legs follow, in vertex
    order."""
    adj = [v for pair in edges for v in pair]
    inv = [f ^ 1 for f in range(len(adj))]
    for v, count in enumerate(legs_at):
        adj.extend([v] * count)
    inv.extend(range(len(inv), len(adj)))
    return MarkedGraph(nv=nv, adj=tuple(adj), inv=tuple(inv), marked=marked)


def excess(g: int, ell: int) -> int:
    """The excess m = 3(g - 1) + 2l of B(g, n, n - l)."""
    return 3 * (g - 1) + 2 * ell


def build_theta(g: int, ell: int, p: int) -> MarkedGraph:
    """The extremal core graph with ``p`` double-edge neutral vertices.

    Built at the excess of (g, ell): a dv joined to p vertices by marked
    parallel edge pairs (one leg each), to (g-1-p)/2 vertices by marked
    triples, and to (m-p)/2 vertices by single marked edges (two legs each).
    Every edge is marked at its dv flag.
    """
    m = excess(g, ell)
    if m < 0:
        raise ValueError("negative excess")
    if p < 0 or p >= g or p > m or (g - p) % 2 == 0:
        raise ValueError(f"invalid parameter p={p} for (g, ell)=({g}, {ell})")
    # (edges to the dv, legs) per neutral vertex
    shapes = [(2, 1)] * p + [(3, 0)] * ((g - 1 - p) // 2) + [(1, 2)] * ((m - p) // 2)
    edges = tuple((0, v) for v, (k, _) in enumerate(shapes, 1) for _ in range(k))
    legs_at = (0, *[legs for _, legs in shapes])
    marked = frozenset(range(0, 2 * len(edges), 2))  # flag 2k, edge k's at the dv
    return assemble(len(legs_at), edges, legs_at, marked)


# ---------------------------------------------------------------------------
# textual encoding (used by cache files and CLI I/O)


def encode_graph(g: MarkedGraph) -> str:
    parts = [
        str(g.nv),
        "0",  # the dv field: the dv is vertex 0
        ",".join(map(str, g.adj)),
        ",".join(map(str, g.inv)),
        ",".join(map(str, sorted(g.marked))),
        "*",  # the leg-label field, kept so the cache format is unchanged
    ]
    return "|".join(parts)


def decode_graph(text: str) -> MarkedGraph:
    """The graph `encode_graph` wrote; a dv field other than ``0`` or a
    leg-label field other than ``*`` raises ValueError."""
    nv, dv, adj, inv, marked, leg_field = text.strip().split("|")
    if dv != "0":
        raise ValueError(f"a graph line with its dv at vertex {dv}: {text.strip()!r}")
    if leg_field != "*":
        raise ValueError(f"a graph line with a leg labeling: {text.strip()!r}")

    def ints(s: str) -> tuple[int, ...]:
        return tuple(int(x) for x in s.split(",")) if s else ()

    return MarkedGraph(
        nv=int(nv),
        adj=ints(adj),
        inv=ints(inv),
        marked=frozenset(ints(marked)),
    )
