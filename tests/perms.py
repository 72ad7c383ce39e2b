"""Permutation helpers that only the tests need: composition, inverses,
the sign by a cycle walk (`reptheory.perm_sign`'s oracle), the subgroup
a set of permutations generates, and a complex's basis elements
(xi, rho) in position order."""

from markedgc.reptheory import Permutation, identity


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def inverse(p: Permutation) -> Permutation:
    out = [0] * len(p)
    for i, img in enumerate(p):
        out[img] = i
    return tuple(out)


def cycle_walk_sign(p: Permutation) -> int:
    """Sign of a 0-indexed permutation given by its images: -1 to the
    number of its cycles of even length."""
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


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
