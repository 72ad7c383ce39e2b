"""Enumeration of marked-graph classes and assembly of the equivariant
chain complexes B(g, n, r).

One loop, `_core_classes`, enumerates cores: classes with no marked
legs.  Every class is, uniquely, a core with marked legs added at the
distinguished vertex, and `enumerate_unlabeled_classes` builds it so.

A complex collects every non-vanishing isomorphism class of type (g, n, s)
with s >= r, graded by degree |E| + n - s.  The differential contracts
edges (the contracted edge is dropped from the last wedge position) and
marks flags (the new flag enters first in the marked order, with a global
(-1)^{|E|} factor).  d^2 = 0 is verified at build time and any failure
aborts with the offending basis pair.

The S_n action is coset arithmetic.  C_i is the sum over unlabeled classes
xi of Ind from Aut(xi) to S_n of the det-sign character, so each labeled
basis element is t·[xi, rho]: xi's canonical graph with leg k labeled
rho[k] + 1, rho the least element of its coset under xi's leg group (the
image of Aut(xi) on the legs, kept as a stabilizer chain).  Relabeling by
sigma sends rho to sigma∘rho; the chain reduces that to its coset minimum
and sign, and a per-degree table names the basis element, with no graph
search.  Enumeration picks one labeling per coset by the same test.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from functools import cache
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from pathlib import Path

from .graphs import (
    MarkedGraph,
    OrientedClass,
    canonical_form,
    contract_edge,
    add_marked_leg,
    decode_graph,
    degree,
    encode_graph,
    label_legs,
    leg_symmetry_group,
    mark_flag,
    validate,
)
from .partitions import Partition, cycle_types
from .reptheory import ClassFunction, Permutation, cycle_type_representative

CACHE_FORMAT = 1

SparseColumns = list[dict[int, int]]  # one {row: entry} per basis column


# ---------------------------------------------------------------------------
# enumeration


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


def _leg_distributions(nv: int, n_legs: int, edge_valence: list[int]):
    """All ways to place ``n_legs`` legs so every neutral vertex reaches
    valence >= 3."""
    minima = [0] + [max(0, 3 - edge_valence[v]) for v in range(1, nv)]
    spare = n_legs - sum(minima)
    if spare < 0:
        return

    def rec(v: int, left: int, acc: tuple[int, ...]):
        if v == nv - 1:
            yield acc + (minima[v] + left,)
            return
        for extra in range(left + 1):
            yield from rec(v + 1, left - extra, acc + (minima[v] + extra,))

    yield from rec(0, spare, ())


def _assemble(nv: int, chosen: tuple[tuple[int, int], ...], legs_at: tuple[int, ...]):
    """Flag structure for an edge multiset plus per-vertex leg counts."""
    adj: list[int] = []
    inv: list[int] = []
    for v, w in chosen:
        adj.extend([v, w])
        inv.extend([len(adj) - 1, len(adj) - 2])
    for v in range(nv):
        for _ in range(legs_at[v]):
            adj.append(v)
            inv.append(len(adj) - 1)
    return MarkedGraph(
        nv=nv, dv=0, adj=tuple(adj), inv=tuple(inv), marked=frozenset(), labels=None
    )


def _core_classes(g: int, n: int, r: int) -> list[OrientedClass]:
    """Canonical core classes (no marked legs, exactly r marked flags) of
    type (g, n, r), sorted by key.

    Marks go only on internal flags at the distinguished vertex.  Those
    flags depend only on the edge multiset, so the markings are chosen
    once per multiset, and a multiset with no marking skips its leg
    placements.
    """
    if g < 0 or n < 0 or r < 0:
        return []
    seen: dict[tuple, OrientedClass] = {}
    e_max = 3 * (g - 1) + n - r
    for ne in range(max(g - 1, 0), e_max + 1):
        nv = ne - g + 2
        if nv < 1 or 2 * ne < r:
            continue
        for chosen in _edge_multisets(nv, ne):
            # `_assemble` numbers edge flags before legs: flag f is end
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
                base = _assemble(nv, chosen, legs_at)
                for marked in markings:
                    graph = replace(base, marked=marked)
                    if validate(graph):
                        continue
                    cls, _ = canonical_form(graph)
                    seen.setdefault(cls.key, cls)
    return [seen[k] for k in sorted(seen)]


def enumerate_core_graphs(g: int, n: int, r: int) -> list[OrientedClass]:
    """All core classes (no marked legs, exactly r marked flags) of type
    (g, n, r), sorted by key.

    A separate function from `_core_classes`, which
    `enumerate_unlabeled_classes` calls: wrapping this one (as per-layer
    tracing does) then sees only direct requests for cores.
    """
    return _core_classes(g, n, r)


def enumerate_unlabeled_classes(g: int, n: int, r: int) -> list[OrientedClass]:
    """Canonical unlabeled marked-graph classes of type (g, n, s), s >= r.

    Each class is, uniquely, a core of type (g, n - j, u) with j marked
    legs added at the distinguished vertex, s = u + j.  No two marked
    flags share an edge, so u is at most the edge count, which is at most
    3(g - 1) + (n - j) - u.  Classes that vanish for every labeling are
    not filtered here; the orientation test depends on the labeling and
    happens downstream.
    """
    seen: dict[tuple, OrientedClass] = {}
    for j in range(n + 1):
        for u in range(max(r - j, 0), (3 * (g - 1) + n - j) // 2 + 1):
            for xi in _core_classes(g, n - j, u):
                graph = xi.graph
                for _ in range(j):
                    graph, _, _ = add_marked_leg(graph, (), ())
                cls = canonical_form(graph)[0] if j else xi
                seen[cls.key] = cls
    return [seen[k] for k in sorted(seen)]


class LegGroup:
    """The leg group of an unlabeled class xi: the image of Aut(xi) on its
    legs (numbered in flag order), each element with its det-sign.

    Stored as a stabilizer chain: level j keeps, for each point b in the
    orbit of j under H_j = {h : h fixes 0..j-1}, one element of H_j sending
    j to b (the identity for b = j).  Levels where H_j fixes j are left out.
    """

    def __init__(self, elements: dict[Permutation, int]):
        self.levels: list[tuple[int, dict[int, tuple[Permutation, int]]]] = []
        identity = tuple(range(len(next(iter(elements)))))
        stabilizer = list(elements.items())
        for j in identity:
            level = {j: (identity, 1)}
            for h, sign in stabilizer:
                level.setdefault(h[j], (h, sign))
            if len(level) > 1:
                self.levels.append((j, level))
                stabilizer = [(h, sign) for h, sign in stabilizer if h[j] == j]

    @classmethod
    def of(cls, graph: MarkedGraph) -> "LegGroup | None":
        """The leg group of an unlabeled graph, or None when an odd
        automorphism fixes every leg (then every labeling vanishes)."""
        try:
            return cls(leg_symmetry_group(label_legs(graph)))
        except ValueError:
            return None

    def coset_min(self, rho: Permutation) -> tuple[Permutation, int]:
        """The lex-least element rho∘h of the coset rho·H, with chi(h).

        Greedy down the chain: at level j pick the element that puts the
        least value of ``rho`` at position j, then keep positions < j fixed.
        """
        sign = 1
        for j, level in self.levels:
            b = min(level, key=rho.__getitem__)
            if b != j:
                h, s = level[b]
                rho = tuple([rho[x] for x in h])
                sign *= s
        return rho, sign

    def is_coset_min(self, rho: Permutation) -> bool:
        """Whether rho is the least element of rho·H: `coset_min` leaves rho
        unchanged exactly when, at each level j, rho[j] is the least value
        of rho over the level's orbit."""
        return all(rho[j] <= rho[b] for j, level in self.levels for b in level)


def _labelings_up_to_symmetry(g: MarkedGraph, group: LegGroup):
    """Leg-label assignments of the unlabeled ``g``, one per orbit of its
    leg group: those whose labels, read in leg order, are their coset's
    minimum."""
    legs = g.legs
    for rho in permutations(range(len(legs))):
        if group.is_coset_min(rho):
            yield {f: rho[k] + 1 for k, f in enumerate(legs)}


def enumerate_marked_graphs(
    g: int, n: int, r: int, cache_dir: str | Path | None = None
) -> list[OrientedClass]:
    """All non-vanishing labeled classes of B(g, n, r), deterministically
    ordered by (degree, canonical key)."""
    if cache_dir is not None:
        cached = load_enumeration(cache_dir, g, n, r)
        if cached is not None:
            return cached
    out: dict[tuple, OrientedClass] = {}
    for unl in enumerate_unlabeled_classes(g, n, r):
        group = LegGroup.of(unl.graph)
        if group is None:
            continue
        for assignment in _labelings_up_to_symmetry(unl.graph, group):
            cls, _ = canonical_form(label_legs(unl.graph, assignment))
            if cls.vanishes:
                raise AssertionError(
                    f"labeling of a class with a leg group vanishes: "
                    f"{encode_graph(cls.graph)}"
                )
            out.setdefault(cls.key, cls)
    classes = sorted(out.values(), key=lambda c: (degree(c.graph), c.key))
    if cache_dir is not None:
        save_enumeration(cache_dir, g, n, r, classes)
    return classes


# ---------------------------------------------------------------------------
# the chain complex


@dataclass(frozen=True)
class EquivariantComplex:
    g: int
    n: int
    r: int
    basis: dict[int, tuple[OrientedClass, ...]]
    diff: dict[int, SparseColumns]  # degree i -> matrix C_i -> C_{i-1}
    index: dict[tuple, tuple[int, int]]  # canonical key -> (degree, position)
    # degree -> its _Orbits, built on first use by the group action
    orbits: dict[int, "_Orbits"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def excess(self) -> int:
        return 3 * (self.g - 1) + 2 * (self.n - self.r)

    def degrees(self) -> list[int]:
        return sorted(self.basis)

    def dim(self, i: int) -> int:
        return len(self.basis.get(i, ()))

    def total_dim(self) -> int:
        return sum(len(b) for b in self.basis.values())

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * self.dim(i) for i in self.basis)


def boundary_terms(cls: OrientedClass) -> dict[OrientedClass, int]:
    """The differential of a basis class, as canonical classes with signs."""
    g = cls.graph
    eo, do = g.edges, tuple(sorted(g.marked))
    out: dict[OrientedClass, int] = {}

    def accumulate(result, factor: int):
        h, eo2, do2, s = result
        bad = validate(h)
        if bad:
            raise AssertionError(f"inadmissible boundary term from {encode_graph(g)}: {bad}")
        c, s2 = canonical_form(h, eo2, do2)
        if not c.vanishes:
            out[c] = out.get(c, 0) + factor * s * s2

    for e in eo:
        for result in contract_edge(g, e, eo, do):
            accumulate(result, 1)
    mark_sign = -1 if g.n_edges % 2 else 1
    for f in range(g.nf):
        if g.adj[f] == g.dv and f not in g.marked:
            result = mark_flag(g, f, eo, do)
            if result is not None:
                accumulate(result, mark_sign)
    return {c: v for c, v in out.items() if v}


def build_complex(
    g: int, n: int, r: int, cache_dir: str | Path | None = None
) -> EquivariantComplex:
    classes = enumerate_marked_graphs(g, n, r, cache_dir=cache_dir)
    basis: dict[int, list[OrientedClass]] = {}
    for cls in classes:
        basis.setdefault(degree(cls.graph), []).append(cls)
    index = {
        cls.key: (i, pos)
        for i, classes_i in basis.items()
        for pos, cls in enumerate(classes_i)
    }
    diff: dict[int, SparseColumns] = {}
    for i in sorted(basis):
        cols: SparseColumns = []
        for cls in basis[i]:
            col: dict[int, int] = {}
            for target, coeff in boundary_terms(cls).items():
                where = index.get(target.key)
                if where is None or where[0] != i - 1:
                    raise AssertionError(
                        f"boundary of a degree-{i} class left the enumerated "
                        f"basis: {encode_graph(target.graph)}"
                    )
                col[where[1]] = coeff
            cols.append(col)
        diff[i] = cols
    complex_ = EquivariantComplex(
        g=g, n=n, r=r,
        basis={i: tuple(b) for i, b in basis.items()},
        diff=diff,
        index=index,
    )
    _check_d_squared(complex_)
    return complex_


def _check_d_squared(c: EquivariantComplex) -> None:
    for i in c.degrees():
        if i - 1 not in c.diff:
            continue
        lower = c.diff[i - 1]
        for pos, col in enumerate(c.diff[i]):
            acc: dict[int, int] = {}
            for row, coeff in col.items():
                for row2, coeff2 in lower[row].items():
                    acc[row2] = acc.get(row2, 0) + coeff * coeff2
            bad = {k: v for k, v in acc.items() if v}
            if bad:
                cls = c.basis[i][pos]
                raise AssertionError(
                    f"d^2 != 0 on B({c.g},{c.n},{c.r}) degree {i} basis "
                    f"element {pos} ({encode_graph(cls.graph)}): {bad}"
                )


# ---------------------------------------------------------------------------
# group action and characters


@dataclass(frozen=True)
class _Orbits:
    """Degree-i basis elements as labelings of their unlabeled classes.

    Entry ``pos`` is ``(xi key, leg group, rho, t)`` with
    [basis[pos]] = t·[xi, rho], where [xi, rho] is xi's canonical graph in
    its reference orientation with leg k labeled rho[k] + 1, and rho is the
    least element of its coset under the leg group H.  Since an
    automorphism with leg action h gives [xi, rho] = chi(h)·[xi, rho∘h],
    each coset holds at most one basis element: ``where`` sends
    ``(xi key, rho)`` to ``(pos, t)``.
    """

    entries: list[tuple[tuple, LegGroup, Permutation, int]]
    where: dict[tuple[tuple, Permutation], tuple[int, int]]


def _orbits(c: EquivariantComplex, i: int) -> _Orbits:
    """The orbit table of degree ``i``, built from the basis on first use
    (one unlabeled canonical form per basis element)."""
    table = c.orbits.get(i)
    if table is not None:
        return table
    groups: dict[tuple, LegGroup] = {}
    entries = []
    where: dict[tuple[tuple, Permutation], tuple[int, int]] = {}
    for pos, cls in enumerate(c.basis.get(i, ())):
        graph = cls.graph
        form = canonical_form(replace(graph, labels=None))
        xi, s = form
        legs = xi.graph.legs
        group = groups.get(xi.key)
        if group is None:
            group = LegGroup.of(xi.graph)
            if group is None:
                raise AssertionError(
                    f"leg permutation with two signs on a basis class: "
                    f"{encode_graph(graph)}"
                )
            groups[xi.key] = group
        # tau: the labeling of ``graph`` pulled back to xi's legs
        tau = [0] * len(legs)
        leg_index = {f: k for k, f in enumerate(legs)}
        for f in graph.legs:
            tau[leg_index[form.phi[f]]] = graph.labels[f] - 1
        rho, chi = group.coset_min(tuple(tau))
        if (xi.key, rho) in where:
            raise AssertionError(
                f"two degree-{i} basis classes on one coset: {encode_graph(graph)}"
            )
        where[xi.key, rho] = (pos, s * chi)
        entries.append((xi.key, group, rho, s * chi))
    table = c.orbits[i] = _Orbits(entries, where)
    return table


def _act(c: EquivariantComplex, i: int, sigma: Permutation) -> list[tuple[int, int]]:
    """``(position, sign)`` of sigma·[L] for each degree-i basis element L.

    sigma·[L] = t_L·[xi, sigma∘rho_L] = t_L·chi(h)·[xi, rho'] with rho' the
    coset minimum, and [xi, rho'] = t_M·[M] for the basis element M there.
    """
    table = _orbits(c, i)
    out = []
    for key, group, rho, t in table.entries:
        image, chi = group.coset_min(tuple([sigma[x] for x in rho]))
        hit = table.where.get((key, image))
        if hit is None:
            raise AssertionError(
                f"relabeling left the degree-{i} basis of B({c.g},{c.n},{c.r})"
            )
        pos, t2 = hit
        out.append((pos, t * chi * t2))
    return out


def group_action_matrix(
    c: EquivariantComplex, i: int, sigma: Permutation
) -> SparseColumns:
    """Signed permutation matrix of the leg relabeling by ``sigma``
    (0-indexed images) on degree ``i``."""
    return [{pos: sign} for pos, sign in _act(c, i, sigma)]


def chain_character(c: EquivariantComplex, i: int) -> ClassFunction:
    """Character of the signed permutation action on C_i."""
    values: dict[Partition, Fraction] = {}
    for mu in cycle_types(c.n):
        action = _act(c, i, cycle_type_representative(mu))
        trace = sum(sign for pos, (image, sign) in enumerate(action) if image == pos)
        values[mu] = Fraction(trace)
    return ClassFunction(c.n, values)


# ---------------------------------------------------------------------------
# stabilization


@dataclass(frozen=True)
class ChainMap:
    source: EquivariantComplex
    target: EquivariantComplex
    cols: dict[int, SparseColumns]  # degree -> matrix source_i -> target_i


def stabilization_map(
    source: EquivariantComplex, target: EquivariantComplex | None = None,
    cache_dir: str | Path | None = None,
) -> ChainMap:
    """The chain map adjoining a marked leg labeled n+1 (degree 0)."""
    if target is None:
        target = build_complex(
            source.g, source.n + 1, source.r + 1, cache_dir=cache_dir
        )
    cols: dict[int, SparseColumns] = {}
    for i in source.degrees():
        cols_i: SparseColumns = []
        for cls in source.basis[i]:
            g = cls.graph
            h, eo, do = add_marked_leg(g, g.edges, tuple(sorted(g.marked)))
            tgt, sign = canonical_form(h, eo, do)
            if tgt.vanishes:
                cols_i.append({})
                continue
            deg, pos = target.index[tgt.key]
            if deg != i:
                raise AssertionError("stabilization changed the degree")
            cols_i.append({pos: sign})
        cols[i] = cols_i
    psi = ChainMap(source=source, target=target, cols=cols)
    _check_chain_map(psi)
    return psi


def _check_chain_map(f: ChainMap) -> None:
    for i in f.source.degrees():
        if i - 1 not in f.source.basis:
            continue
        lhs = _compose_sparse(f.cols.get(i - 1, []), f.source.diff.get(i, []))
        rhs = _compose_sparse(f.target.diff.get(i, []), f.cols.get(i, []))
        if lhs != rhs:
            raise AssertionError(
                f"stabilization fails to commute with d in degree {i}"
            )


def _compose_sparse(a: SparseColumns, b: SparseColumns) -> SparseColumns:
    """Columns of A·B where the columns of B index the composite's columns."""
    out: SparseColumns = []
    for col in b:
        acc: dict[int, int] = {}
        for mid, coeff in col.items():
            for row, coeff2 in a[mid].items():
                acc[row] = acc.get(row, 0) + coeff * coeff2
        out.append({k: v for k, v in acc.items() if v})
    return out


# ---------------------------------------------------------------------------
# enumeration cache


def cache_path(cache_dir: str | Path, g: int, n: int, r: int) -> Path:
    return Path(cache_dir) / f"basis-{g}-{n}-{r}.txt"


def save_enumeration(
    cache_dir: str | Path, g: int, n: int, r: int, classes: list[OrientedClass]
) -> Path:
    body = "".join(
        f"{degree(cls.graph)}|{encode_graph(cls.graph)}\n" for cls in classes
    )
    header = {
        "format": CACHE_FORMAT,
        "g": g,
        "n": n,
        "r": r,
        "count": len(classes),
        "checksum": hashlib.sha256(body.encode()).hexdigest(),
    }
    path = cache_path(cache_dir, g, n, r)
    path.parent.mkdir(parents=True, exist_ok=True)
    # write a sibling temp file and rename it over the cache, so an
    # interrupted write never leaves a partial file under the cache name
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(header) + "\n" + body)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_enumeration(
    cache_dir: str | Path, g: int, n: int, r: int
) -> list[OrientedClass] | None:
    """Reload a cached enumeration; any inconsistency discards the cache."""
    path = cache_path(cache_dir, g, n, r)
    if not path.exists():
        return None
    try:
        head, _, body = path.read_text().partition("\n")
        header = json.loads(head)
        if not isinstance(header, dict):
            return None
        if header.get("format") != CACHE_FORMAT or (
            header.get("g"), header.get("n"), header.get("r")
        ) != (g, n, r):
            return None
        if hashlib.sha256(body.encode()).hexdigest() != header["checksum"]:
            return None
        classes = []
        for line in body.splitlines():
            deg_text, _, graph_text = line.partition("|")
            graph = decode_graph(graph_text)
            cls, sign = canonical_form(graph)
            if (
                cls.graph != graph
                or sign != 1
                or cls.vanishes
                or int(deg_text) != degree(graph)
            ):
                return None
            classes.append(cls)
        if len(classes) != header["count"]:
            return None
        return classes
    except (ValueError, KeyError, IndexError):
        return None
