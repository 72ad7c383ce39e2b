"""Permutation helpers that only the tests need: composition, inverses,
the subgroup a set of permutations generates, and a complex's basis
elements (xi, rho) in position order."""

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


def basis_elements(c, i: int):
    """(xi, rho) of each degree-i basis element of the complex ``c``, in
    position order."""
    by_position = sorted(
        (pos, xi, rho)
        for xi, positions in c.basis.get(i, {}).items()
        for rho, pos in positions.items()
    )
    assert [pos for pos, _, _ in by_position] == list(range(c.dim(i)))
    for _, xi, rho in by_position:
        yield xi, rho
