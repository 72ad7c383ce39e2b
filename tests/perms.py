"""Permutation helpers that only the tests need: composition, inverses,
the subgroup a set of permutations generates, and relabeling a graph's
legs."""

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
