"""The order-taking moves that `contract_edge` and `mark_flag` replaced,
kept as the tests' oracle for move signs; `add_marked_leg`, the only
function that adjoins a marked leg to a graph: the package adds marked
legs to classes with `graphs.add_marked_legs`, which the tests check
against this one; and `core`, which strips a graph's marked legs (the
package reads a class's core off its encoding with `graphs.core_class`).

Each move here carries an edge order and a marked order beside the graph
and returns them, mapped to the result, with the move's sign; the moves in
`markedgc.graphs` keep every graph in its reference orientation (sorted
edges, sorted marks) and fold the orders into the sign.
"""

from kernel_oracle import flags_at
from markedgc.graphs import Edge, MarkedGraph


def _rebuild(
    g: MarkedGraph,
    drop_flags: set[int],
    merge: dict[int, int] | None = None,
    new_marked: set[int] | None = None,
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
    out = MarkedGraph(
        nv=len(vkeep),
        adj=tuple(vmap[vtarget[g.adj[f]]] for f in keep),
        inv=tuple(fmap[g.inv[f]] for f in keep),
        marked=frozenset(fmap[f] for f in marked_src if f not in drop_flags),
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
        # keep the smaller index, so the dv, vertex 0, stays
        if v2 < v1:
            v1, v2 = v2, v1
        out, fmap, _ = _rebuild(g, {f1, f2}, merge={v2: v1})
        new_eo = tuple(_map_edge(fmap, ed) for ed in rest_edges)
        new_do = tuple(fmap[f] for f in d_order)
        return [(out, new_eo, new_do, move_sign)]

    fm = marked_flags[0]
    w = g.adj[g.inv[fm]]  # neutral endpoint absorbed into dv
    newly_adjacent = [f for f in flags_at(g, w) if f != g.inv[fm]]
    dpos = d_order.index(fm)
    results = []
    for fi in newly_adjacent:
        if g.inv[fi] in g.marked:
            continue  # double-marked tadpole: zero by definition
        new_marked = (set(g.marked) - {fm}) | {fi}
        out, fmap, _ = _rebuild(g, {f1, f2}, merge={w: 0}, new_marked=new_marked)
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
    if g.adj[f] != 0 or f in g.marked:
        raise ValueError(f"flag {f} is not an unmarked flag at the dv")
    if g.inv[f] != f and g.inv[f] in g.marked:
        return None
    out = MarkedGraph(nv=g.nv, adj=g.adj, inv=g.inv, marked=g.marked | {f})
    return out, edge_order, (f,) + d_order, 1


def add_marked_leg(
    g: MarkedGraph,
    edge_order: tuple[Edge, ...],
    d_order: tuple[int, ...],
):
    """Adjoin a marked leg at the dv, last in the marked order.  It is
    the last flag, so it is the last leg in flag order (a labeling rho
    extends by n), and with empty orders the result is in its reference
    orientation with sign +1."""
    f = g.nf
    out = MarkedGraph(
        nv=g.nv,
        adj=g.adj + (0,),
        inv=g.inv + (f,),
        marked=g.marked | {f},
    )
    return out, edge_order, d_order + (f,)


def core(g: MarkedGraph) -> MarkedGraph:
    """Strip the marked legs."""
    return _rebuild(g, set(g.marked_legs()))[0]
