"""The flag-by-flag backtracking isomorphism search that the tied
orderings of `canonical_form`'s search replaced, kept as the tests'
independent oracle for automorphisms and their det-signs."""

from kernel_oracle import label_table
from markedgc.graphs import MarkedGraph
from markedgc.reptheory import Permutation, perm_sign


def isomorphisms(
    g1: MarkedGraph,
    rho1: Permutation | None,
    g2: MarkedGraph,
    rho2: Permutation | None,
):
    """Yield all flag bijections realizing an isomorphism g1 -> g2.

    Isomorphisms fix the distinguished vertex and the marked set and, when
    the labelings ``rho1`` and ``rho2`` are given, every leg label (leg k
    in flag order labeled rho[k] + 1).
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
    labels1, labels2 = label_table(g1, rho1), label_table(g2, rho2)

    def compatible(f, f2) -> bool:
        if (f in m1) != (f2 in m2):
            return False
        leg1, leg2 = inv1[f] == f, inv2[f2] == f2
        if leg1 != leg2:
            return False
        if leg1 and labels1[f] != labels2[f2]:
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


def automorphisms(g: MarkedGraph, rho: Permutation | None):
    return isomorphisms(g, rho, g, rho)
