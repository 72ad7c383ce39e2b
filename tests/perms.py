"""Permutation helpers that only the tests need: composition, inverses,
the subgroup a set of permutations generates, labeling and relabeling a
graph's legs, and a complex's basis elements as labeled graphs."""

from markedgc.graphs import MarkedGraph
from markedgc.reptheory import Permutation, identity


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def inverse(p: Permutation) -> Permutation:
    out = [0] * len(p)
    for i, img in enumerate(p):
        out[img] = i
    return tuple(out)


def generated_subgroup(n: int, generators) -> frozenset[Permutation]:
    elems = {identity(n)}
    frontier = [identity(n)]
    gens = [tuple(g) for g in generators]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = compose(g, cur)
            if nxt not in elems:
                elems.add(nxt)
                frontier.append(nxt)
    return frozenset(elems)


def relabel_legs(g: MarkedGraph, sigma: dict[int, int]) -> MarkedGraph:
    """Apply the label permutation i -> sigma[i] (labels are 1-based)."""
    if g.labels is None:
        raise ValueError("graph has no leg labels")
    labels = tuple(sigma[l] if l else 0 for l in g.labels)
    return MarkedGraph(
        nv=g.nv, dv=g.dv, adj=g.adj, inv=g.inv, marked=g.marked, labels=labels
    )


def label_legs(g: MarkedGraph, assignment: dict[int, int]) -> MarkedGraph:
    """Attach leg labels to an unlabeled graph: ``assignment`` maps leg
    flags to labels."""
    if g.labels is not None:
        raise ValueError("graph is already labeled")
    labels = [0] * g.nf
    for f, lbl in assignment.items():
        labels[f] = lbl
    return MarkedGraph(
        nv=g.nv, dv=g.dv, adj=g.adj, inv=g.inv, marked=g.marked, labels=tuple(labels)
    )


def labeled(xi, rho: Permutation) -> MarkedGraph:
    """The basis element [xi, rho] as a labeled graph: xi's canonical graph
    with leg k (in flag order) labeled rho[k] + 1."""
    return label_legs(xi.graph, {f: rho[k] + 1 for k, f in enumerate(xi.graph.legs)})


def basis_elements(c, i: int):
    """(xi, rho, labeled graph) of each degree-i basis element of the
    complex ``c``, in position order."""
    by_position = sorted(
        (pos, xi, rho)
        for xi, positions in c.basis.get(i, {}).items()
        for rho, pos in positions.items()
    )
    assert [pos for pos, _, _ in by_position] == list(range(c.dim(i)))
    for _, xi, rho in by_position:
        yield xi, rho, labeled(xi, rho)
