"""The min()-selection kernels that the sort-based ones in `graphs`
replaced, kept as the tests' oracle: `_flag_assignment` picks each
vertex's next flag by `min` over its remaining keys, `_vertex_invariant`
makes five passes over a vertex's flags, `_orientation_sign` looks the
mapped edges and marks up in the class graph's orders, and `coset_min`
selection-sorts within twin blocks, its `labelings` running a full
`coset_min` on every candidate.

The search kernels read leg labels from a labeling ``rho`` beside the
graph (leg k, in flag order, labeled rho[k] + 1; None for no labels), and
`labeled_canonical_form` is the labeled canonical form built on them, the
tests' oracle for a basis element [xi, rho] as a labeled graph.  It shares
no search code with `graphs`."""

from itertools import permutations, product

from markedgc.graphs import LegGroup, MarkedGraph
from markedgc.reptheory import Permutation, perm_sign


def label_table(g: MarkedGraph, rho: Permutation | None) -> tuple[int, ...]:
    """flag -> label: rho[k] + 1 on the k-th leg, 0 on every other flag
    and on every flag when ``rho`` is None."""
    table = [0] * g.nf
    if rho is not None:
        for k, f in enumerate(g.legs):
            table[f] = rho[k] + 1
    return tuple(table)


def _vertex_invariant(g: MarkedGraph, rho: Permutation | None, v: int):
    labels = label_table(g, rho)
    flags = g.flags_at(v)
    leg_labels = sorted(labels[f] for f in flags if g.inv[f] == f)
    return (
        v != g.dv,
        len(flags),
        len(leg_labels),
        tuple(leg_labels),
        sum(1 for f in flags if f in g.marked),
        sum(1 for f in flags if g.inv[f] != f and g.adj[g.inv[f]] == g.dv),
        sum(1 for f in flags if g.adj[g.inv[f]] == v),  # tadpole flags
    )


def _flag_assignment(
    g: MarkedGraph, rho: Permutation | None, vorder: tuple[int, ...]
):
    """Deterministic flag numbering for a given vertex ordering.

    Returns (encoding, phi) with phi the map old flag -> new index.  The
    encoding's last slot is the label table, None when ``rho`` is.
    """
    labels = label_table(g, rho)
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
                keys[f] = (1, int(f in g.marked), labels[f], 0, f)
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
    new_leg_labels = [0] * g.nf
    for f in range(g.nf):
        new_adj[phi[f]] = vindex[g.adj[f]]
        new_inv[phi[f]] = phi[g.inv[f]]
        new_leg_labels[phi[f]] = labels[f]
    new_marked = tuple(sorted(phi[f] for f in g.marked))
    encoding = (
        g.nv,
        g.nf,
        tuple(new_adj),
        tuple(new_inv),
        new_marked,
        tuple(new_leg_labels) if rho is not None else None,
    )
    return encoding, tuple(phi)


def _orderings(g: MarkedGraph, rho: Permutation | None):
    """Vertex orderings, dv first, that keep the neutral vertices sorted
    by invariant."""
    pools: dict[tuple, list[int]] = {}
    for v in range(g.nv):
        if v != g.dv:
            pools.setdefault(_vertex_invariant(g, rho, v), []).append(v)
    for parts in product(*(permutations(pools[k]) for k in sorted(pools))):
        yield (g.dv,) + sum(parts, ())


def labeled_graph_of(key: tuple) -> tuple[MarkedGraph, Permutation | None]:
    """The canonical graph and labeling that the key of
    `labeled_canonical_form` encodes."""
    nv, _, adj, inv, marked, labels = key
    graph = MarkedGraph(nv=nv, dv=0, adj=adj, inv=inv, marked=frozenset(marked))
    if labels is None:
        return graph, None
    return graph, tuple(labels[f] - 1 for f in graph.legs)


def labeled_canonical_form(
    g: MarkedGraph, rho: Permutation | None
) -> tuple[tuple, int]:
    """(key, sign) of the graph ``g`` with its legs labeled by ``rho``: the
    least encoding over `_orderings`, and the sign relating g's reference
    orientation to the class graph's under the first ordering reaching it.
    Isomorphic labeled graphs, and only they, share a key; the sign is
    well defined unless an odd automorphism fixes every label."""
    key, phi = min(
        (_flag_assignment(g, rho, vorder) for vorder in _orderings(g, rho)),
        key=lambda assignment: assignment[0],
    )
    return key, _orientation_sign(g, labeled_graph_of(key)[0], phi)


def _orientation_sign(
    g: MarkedGraph, canon: MarkedGraph, phi: tuple[int, ...]
) -> int:
    """Sign of the flag map ``phi`` from ``g`` onto ``canon`` on
    det(E) x det^{-1}(D): g's sorted orders, mapped by phi, against
    canon's sorted orders."""
    mapped_edges = []
    for f1, f2 in g.edges:
        img = (phi[f1], phi[f2])
        mapped_edges.append((min(img), max(img)))
    ref_index = {e: i for i, e in enumerate(canon.edges)}
    esign = perm_sign([ref_index[e] for e in mapped_edges])
    ref_d = {f: i for i, f in enumerate(sorted(canon.marked))}
    dsign = perm_sign([ref_d[phi[f]] for f in sorted(g.marked)])
    return esign * dsign


def _swaps(group: LegGroup) -> tuple:
    # selection sort: position j takes the least of its block after it
    return tuple(
        (j, ks[i + 1 :], marked)
        for ks, marked in group.blocks
        for i, j in enumerate(ks[:-1])
    )


def coset_min(group: LegGroup, rho: Permutation) -> tuple[Permutation, int]:
    """The lex-least element rho∘h of the coset rho·H, with chi(h).

    For each sigma, tau sorts rho∘sigma within every block; each swap
    is a transposition of twins, odd on a marked block.
    """
    swaps = _swaps(group)
    best = None
    for sigma, chi in group.ordered:
        image = [rho[x] for x in sigma]
        for j, orbit, marked in swaps:
            b = min(orbit, key=image.__getitem__)
            if image[b] < image[j]:
                image[j], image[b] = image[b], image[j]
                if marked:
                    chi = -chi
        image = tuple(image)
        if best is None or image < best[0]:
            best = (image, chi)
    return best


def labelings(group: LegGroup):
    """One leg labeling per coset: each permutation rho of 0..n-1 that
    is its coset's minimum, in increasing order.

    Labels are chosen position by position, each above the label at
    the previous position of its block; `coset_min` keeps a candidate
    when it leaves it unchanged.
    """
    n = group.n
    previous = [None] * n
    for ks, _ in group.blocks:
        for a, b in zip(ks, ks[1:]):
            previous[b] = a
    rho = [0] * n
    used = [False] * n

    def extend(p: int):
        if p == n:
            candidate = tuple(rho)
            if coset_min(group, candidate)[0] == candidate:
                yield candidate
            return
        least = 0 if previous[p] is None else rho[previous[p]] + 1
        for v in range(least, n):
            if not used[v]:
                used[v] = True
                rho[p] = v
                yield from extend(p + 1)
                used[v] = False

    yield from extend(0)
