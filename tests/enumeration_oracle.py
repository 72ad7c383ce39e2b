"""The labelled core enumeration that `complexes._core_classes` replaced,
kept as the oracle for the skeleton-class enumeration.

`_edge_multisets` walks every labelled edge multiset on the vertices and
filters it; `_core_classes` decorates each multiset with legs and marks
and canonicalizes every decoration; `unlabeled_classes` adds marked legs
to those cores.
"""

from functools import cache
from itertools import combinations, combinations_with_replacement

from markedgc.complexes import _leg_distributions, core_types
from markedgc.graphs import (
    MarkedGraph,
    OrientedClass,
    assemble,
    canonical_form,
    encode_graph,
    validate,
)
from moves_oracle import add_marked_leg


@cache
def _edge_multisets(nv: int, ne: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Edge multisets on vertices 0..nv-1 (0 distinguished): connected,
    tadpoles only at 0, every other vertex met by at least one edge."""
    pairs = [(0, 0)] + [(v, w) for v in range(nv) for w in range(v + 1, nv)]
    out = []
    for combo in combinations_with_replacement(range(len(pairs)), ne):
        chosen = tuple(pairs[i] for i in combo)
        parent = list(range(nv))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        touched = {0}
        for v, w in chosen:
            touched.add(v)
            touched.add(w)
            parent[find(v)] = find(w)
        if len(touched) < nv:
            continue
        if len({find(v) for v in range(nv)}) != 1:
            continue
        out.append(chosen)
    return tuple(out)


@cache
def _core_classes(g: int, n: int, r: int) -> tuple[OrientedClass, ...]:
    """Canonical core classes (no marked legs, exactly r marked flags) of
    type (g, n, r), sorted by key.  Memoised: neighbouring complexes and
    the core suites ask for the same cores.

    Marks go only on internal flags at the distinguished vertex.  Those
    flags depend only on the edge multiset, so the markings are chosen
    once per multiset, and a multiset with no marking skips its leg
    placements.  The marking clauses of admissibility hold by
    construction (dv flags, at most one per edge), so `validate` runs once
    per leg placement, on the unmarked graph; a failure is a defect of
    the construction and raises.
    """
    if g < 0 or n < 0 or r < 0:
        return ()
    seen: dict[tuple, OrientedClass] = {}
    e_max = 3 * (g - 1) + n - r
    for ne in range(max(g - 1, 0), e_max + 1):
        nv = ne - g + 2
        if nv < 1 or 2 * ne < r:
            continue
        for chosen in _edge_multisets(nv, ne):
            # `assemble` numbers edge flags before legs: flag f is end
            # f % 2 of edge f // 2, and its partner is f ^ 1.
            internal = [f for f in range(2 * ne) if chosen[f // 2][f % 2] == 0]
            markings = []
            for sub in combinations(internal, r):
                picked = frozenset(sub)
                if not any(f ^ 1 in picked for f in sub):  # no double-marked edge
                    markings.append(picked)
            if not markings:
                continue
            edge_valence = [0] * nv
            for v, w in chosen:
                edge_valence[v] += 1
                edge_valence[w] += 1
            for legs_at in _leg_distributions(nv, n, edge_valence):
                base = assemble(nv, chosen, legs_at)
                bad = validate(base)
                if bad:
                    raise AssertionError(
                        f"inadmissible core {encode_graph(base)}: {bad}"
                    )
                for marked in markings:
                    cls, _ = canonical_form(MarkedGraph(base.nv, base.adj, base.inv, marked))
                    seen.setdefault(cls.key, cls)
    return tuple(seen[k] for k in sorted(seen))


def unlabeled_classes(g: int, n: int, r: int) -> list[OrientedClass]:
    """The classes of type (g, n, s), s >= r, built from this module's
    cores as `complexes.enumerate_unlabeled_classes` builds them."""
    seen: dict[tuple, OrientedClass] = {}
    for j, u in core_types(g, n, r):
        for xi in _core_classes(g, n - j, u):
            graph = xi.graph
            for _ in range(j):
                graph = add_marked_leg(graph, (), ())[0]
            cls = canonical_form(graph)[0]
            seen[cls.key] = cls
    return [seen[k] for k in sorted(seen)]
