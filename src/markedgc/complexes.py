"""Enumeration of marked-graph classes and assembly of the equivariant
chain complexes B(g, n, r).

One loop, `_core_classes`, enumerates cores: classes with no marked
legs.  Every class is, uniquely, a core with marked legs added at the
distinguished vertex, and `enumerate_unlabeled_classes` builds it so,
with `graphs.add_marked_legs` and no search.
A core is its skeleton, the bare edge multigraph, decorated with legs
and marks.  `_skeletons` generates the skeletons up to isomorphism, with
the neutral vertices in non-increasing order of (edge valence, edges to
the distinguished vertex), and prunes them as they are built: the
neutral vertices' valence deficits below 3 must fit in the n legs, and
the r marks need r distinct edges at the distinguished vertex.  Each
skeleton class is decorated once, so a core is canonicalized once per
decoration of one skeleton, not once per labelled copy of it.

A complex collects every non-vanishing isomorphism class of type (g, n, s)
with s >= r, graded by degree |E| + n - s.  The differential contracts
edges (the contracted edge is dropped from the last wedge position) and
marks flags (the new flag enters first in the marked order, with a global
(-1)^{|E|} factor).  Every graph is in its reference orientation (sorted
edges, sorted marks), so each move returns its sign against its result's
reference orientation and `canonical_form` carries that to the class's.
d^2 = 0 is verified at build time and any failure aborts with the
offending basis pair.

C_i is the sum over unlabeled classes xi of Ind from Aut(xi) to S_n of
the det-sign character, and its basis is the pairs (xi, rho): [xi, rho]
is xi's canonical graph in its reference orientation with label
rho[k] + 1 on leg k, rho the least element of its coset under xi's leg group
H = `xi.leg_group` (the image of Aut(xi) on the legs, kept as its twin
blocks and tie automorphisms), and `H.labelings` lists those rho.  The
class carries H, read from the canonical-form search that created it; a
class without one (an odd automorphism fixes every leg) vanishes under
every labeling and is left out.  `EquivariantComplex.basis` is this
table and nothing else: degree -> {xi: {rho: position}}.
A graph never carries its labeling: the labeling is rho alone, and no
graph is built or canonicalized with one.  The boundary of [xi, id] is
a set of terms [eta, tau] that remember where each leg went.  The moves
run only on cores, once per core and process, each distinct move result
validated and canonicalized once (`_core_boundary`).  The moves never
touch marked legs and commute with adding them, so the boundary of a
core plus j marked legs is its core's with the legs added term by term
(`graphs.add_marked_legs`), found with no move, `validate` or search:
the legs add no neutral valence, edge or neutral mark, so each lifted
term is admissible because its core term is (proved at
`_core_boundary`).  The column of [xi, id] is those terms, each
reduced to its coset minimum with its sign.  The S_n action has one
format, a signed map (images, signs): sigma·[xi, rho] is
signs[p]·(basis element images[p]), p the position of [xi, rho].  The
actions of the generators (0 1) and the n-cycle take no coset minimum:
each class's orbit walk (`graphs.LegGroup.orbit`, once per leg-group
structure) holds their actions on its labelings, offset here by the
class's first position; any other sigma takes one coset pass.  Every
other column follows by the S_n-equivariance of d: when a generator s
takes [xi, rho] to chi·[xi, rho'], d[xi, rho'] = chi·s·d[xi, rho], so
the column of rho' is that of its parent in the walk's tree, moved by
s's action on the degree below and times chi (`_columns`).  The
stabilization map, which adds its leg once per xi as the enumeration
does, has the signed-map format into the next complex's basis, so it
composes with the action by `_then`.  Characters need one action per
cycle type; `cycle_type_actions` asks only for (0 1) and the n-cycle
and composes the rest.
The enumeration cache (format 2) stores only the xi; a reload accepts
only admissible classes of the complex's type.  Its SHA-256 checksum
comes from the interpreter's built-in module; `hashlib`, whose OpenSSL
costs about 3.5 MB of resident memory, is only the fallback.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator
from contextlib import suppress
from functools import cache
from fractions import Fraction
from itertools import combinations
from operator import mul
from pathlib import Path

from .graphs import (
    LegGroup,
    MarkedGraph,
    Orbit,
    OrientedClass,
    _least_encoding,
    add_marked_legs,
    assemble,
    canonical_form,
    contract_edge,
    core_class,
    decode_graph,
    degree,
    encode_graph,
    excess,
    generators,
    is_connected,
    mark_flag,
    validate,
)
from .partitions import Partition
from .reptheory import ClassFunction, Permutation

CACHE_FORMAT = 2

SparseColumns = list[dict[int, int]]  # one {row: entry} per basis column
# (images, signs): e_p -> signs[p]·e_{images[p]}, one of each per source basis element
SignedMap = tuple[list[int], list[int]]
BasisPairs = list[tuple[OrientedClass, Permutation]]  # one (xi, rho) per element


# ---------------------------------------------------------------------------
# enumeration


def _skeletons(nv: int, ne: int, n: int, r: int):
    """One edge multiset per skeleton class: edge multigraphs with ``ne``
    edges on the vertices 0..nv-1 (0 the distinguished vertex), connected,
    with tadpoles only at 0 and every neutral vertex on an edge, up to
    isomorphisms fixing 0.  Only skeletons that ``n`` legs can make
    admissible (the neutral vertices' valence deficits below 3 sum to at
    most n) and that have at least ``r`` edges at 0 (one mark each) are
    made.

    Each class is built with its neutral vertices in non-increasing order
    of (edge valence, edges to 0), an isomorphism invariant, so every
    class has such a labelling.  The invariants are chosen first, vertex
    by vertex and pruned by both budgets; then the neutral vertices are
    joined row by row to realize them.  Labellings that differ within a
    run of equal invariants are the same class: the least encoding of
    the bare skeleton (`graphs._least_encoding`, which does not touch the
    class cache) keeps the first.  A multiset lists its edges in
    increasing order of their end pairs.
    """
    k = nv - 1  # neutral vertices 1..k
    if k == 0:
        if ne >= r:
            yield ((0, 0),) * ne
        return
    seen = set()
    for tadpoles in range(ne):
        flags = 2 * (ne - tadpoles)  # flags on the edges that meet 1..k
        for invariants in _invariant_sequences(k, flags, n, r - tadpoles):
            head = ((0, 0),) * tadpoles
            for v, (_, a) in enumerate(invariants, 1):
                head += ((0, v),) * a
            for joins in _realizations([val - a for val, a in invariants]):
                chosen = head + joins
                bare = assemble(nv, chosen, (0,) * nv)
                if not is_connected(bare):
                    continue
                encoding = _least_encoding(bare)[0]
                if encoding not in seen:
                    seen.add(encoding)
                    yield chosen


def _invariant_sequences(k: int, flags: int, n: int, r: int):
    """The lists of k pairs (edge valence, edges to 0), lexicographically
    non-increasing, whose flags (valence plus edges to 0) sum to
    ``flags``, whose valence deficits below 3 sum to at most ``n``, whose
    edges to 0 number at least max(r, 1), and whose neutral-neutral
    valences can be joined without tadpoles."""

    def rec(left: int, flags_left: int, legs_left: int, marks_left: int, cap, acc):
        if left == 0:
            if flags_left == 0 and marks_left <= 0:
                inner = [val - a for val, a in acc]
                if sum(inner) % 2 == 0 and 2 * max(inner) <= sum(inner):
                    yield acc
            return
        for val in range(min(cap[0], flags_left), 0, -1):
            # later vertices have valence <= val, so each lacks as much
            if left * max(0, 3 - val) > legs_left:
                break
            for a in range(min(val, flags_left - val), -1, -1):
                if (val, a) > cap:
                    continue
                rest = flags_left - val - a
                if rest < left - 1 or rest > (left - 1) * 2 * val:
                    continue
                # a later vertex has at most val edges to 0, and spends
                # twice as many flags
                if a + min((left - 1) * val, rest // 2) < marks_left:
                    break
                yield from rec(
                    left - 1, rest, legs_left - max(0, 3 - val),
                    marks_left - a, (val, a), acc + ((val, a),),
                )

    yield from rec(k, flags, n, max(r, 1), (flags, flags), ())


def _realizations(inner: list[int]):
    """Every loopless multigraph on the neutral vertices 1..k in which
    vertex v has valence ``inner[v - 1]``, as its edges (v, w), v < w, in
    increasing order."""
    k = len(inner)
    left = [0, *inner]  # by vertex

    def rec(v: int, w: int, acc: tuple):
        if w > k:  # row v is done
            if left[v] == 0:
                if v == k:
                    yield acc
                else:
                    yield from rec(v + 1, v + 2, acc)
            return
        if left[v] > sum(left[w:]):
            return
        for m in range(min(left[v], left[w]), -1, -1):
            left[v] -= m
            left[w] -= m
            yield from rec(v, w + 1, acc + ((v, w),) * m)
            left[v] += m
            left[w] += m

    yield from rec(1, 2, ())


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


@cache
def _core_classes(g: int, n: int, r: int) -> tuple[OrientedClass, ...]:
    """Canonical core classes (no marked legs, exactly r marked flags) of
    type (g, n, r), sorted by key.  Memoised: neighbouring complexes and
    the core suites ask for the same cores.

    A core is its skeleton (its edges, the bare multigraph) decorated
    with n legs and r marks, so each core comes from exactly one skeleton
    class; decorations of one skeleton give the same core exactly when a
    skeleton automorphism carries one to the other.  Each skeleton class
    of `_skeletons` (pruned by the n legs and the r marks) is therefore
    decorated once, and every decoration is canonicalized once.

    Marks go only on internal flags at the distinguished vertex.  Those
    flags depend only on the skeleton, so the markings are chosen once
    per skeleton.  The marking clauses of admissibility hold by
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
        for chosen in _skeletons(nv, ne, n, r):
            # `assemble` numbers edge flags before legs: flag f is end
            # f % 2 of edge f // 2, and its partner is f ^ 1.
            internal = [f for f in range(2 * ne) if chosen[f // 2][f % 2] == 0]
            markings = []
            for sub in combinations(internal, r):
                picked = frozenset(sub)
                if not any(f ^ 1 in picked for f in sub):  # no double-marked edge
                    markings.append(picked)
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
                    cls, _ = canonical_form(MarkedGraph(nv, base.adj, base.inv, marked))
                    seen.setdefault(cls.key, cls)
    return tuple(seen[k] for k in sorted(seen))


def enumerate_core_graphs(g: int, n: int, r: int) -> list[OrientedClass]:
    """All core classes (no marked legs, exactly r marked flags) of type
    (g, n, r), sorted by key.

    A separate function from `_core_classes`, which
    `enumerate_unlabeled_classes` calls: wrapping this one (as per-layer
    tracing does) then sees only direct requests for cores.
    """
    return list(_core_classes(g, n, r))


def core_types(g: int, n: int, r: int):
    """The pairs (j, u) such that cores of type (g, n - j, u) with j marked
    legs added at the distinguished vertex give the classes of type
    (g, n, s), s = u + j >= r.

    No two marked flags share an edge, so u is at most the edge count,
    which is at most 3(g - 1) + (n - j) - u.
    """
    for j in range(n + 1):
        for u in range(max(r - j, 0), (3 * (g - 1) + n - j) // 2 + 1):
            yield j, u


def enumerate_unlabeled_classes(g: int, n: int, r: int) -> list[OrientedClass]:
    """Canonical unlabeled marked-graph classes of type (g, n, s), s >= r.

    Each class is, uniquely, a core of type (g, n - j, u) with j marked
    legs added at the distinguished vertex, for (j, u) in `core_types`.
    Classes that vanish for every labeling are not filtered here; the
    orientation test depends on the labeling and happens downstream.
    """
    seen: dict[tuple, OrientedClass] = {}
    for j, u in core_types(g, n, r):
        for xi in _core_classes(g, n - j, u):
            cls = add_marked_legs(xi, tuple(range(n - j)), n - j, j)[0]
            seen[cls.key] = cls
    return [seen[k] for k in sorted(seen)]


def enumerate_marked_graphs(
    g: int, n: int, r: int, cache_dir: str | Path | None
) -> BasisPairs:
    """The basis of B(g, n, r): every (xi, rho) with xi an unlabeled class
    that has a leg group, ordered by (degree, xi key, rho)."""
    if cache_dir is not None:
        cached = load_enumeration(cache_dir, g, n, r)
        if cached is not None:
            return cached
    xis = [
        xi for xi in enumerate_unlabeled_classes(g, n, r) if xi.leg_group is not None
    ]
    xis.sort(key=lambda xi: degree(xi.graph))  # stable: keys stay sorted
    classes = [(xi, rho) for xi in xis for rho in xi.leg_group.labelings()]
    if cache_dir is not None:
        save_enumeration(cache_dir, g, n, r, classes)
    return classes


# ---------------------------------------------------------------------------
# the chain complex

# xi -> {rho: position of [xi, rho] in xi's degree}, in basis order
DegreeTable = dict[OrientedClass, dict[Permutation, int]]


class EquivariantComplex:
    def __init__(self, g: int, n: int, r: int, basis, diff):
        self.g, self.n, self.r = g, n, r
        self.basis: dict[int, DegreeTable] = basis  # degree -> {xi: {rho: position}}
        self.diff: dict[int, SparseColumns] = diff  # degree i -> matrix C_i -> C_{i-1}

    @property
    def excess(self) -> int:
        return excess(self.g, self.n - self.r)

    def degrees(self) -> list[int]:
        return sorted(self.basis)

    def dim(self, i: int) -> int:
        return sum(map(len, self.basis.get(i, {}).values()))

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * self.dim(i) for i in self.basis)


def _leg_map(h: MarkedGraph, form) -> Permutation:
    """tau with tau[k'] = k when the k-th leg of ``h`` (in flag order) goes
    to the k'-th leg of the class of ``form``, a `CanonicalForm` of ``h``.

    Labeling h's leg k by rho[k] + 1 then gives that class with label
    rho[tau[k']] + 1 on leg k', in the same orientation.
    """
    index = {f: k for k, f in enumerate(form[0].graph.legs)}
    tau = [0] * len(index)
    for k, f in enumerate(h.legs):
        tau[index[form.phi[f]]] = k
    tau = tuple(tau)
    return _leg_maps.setdefault(tau, tau)


_leg_maps: dict[Permutation, Permutation] = {}  # one tuple per distinct tau


def boundary_terms(xi: OrientedClass) -> dict[tuple[OrientedClass, Permutation], int]:
    """The differential of [xi, id] as {(eta, tau): coefficient}, where the
    term (eta, tau) is eta in its reference orientation with label
    tau[k'] + 1 on leg k' (see `_leg_map`), in the order of the first move
    that reaches each term.

    xi is its core kappa with j marked legs inserted after kappa's b dv
    legs (`graphs.core_class`), and the moves run on kappa alone
    (`_core_boundary`, once per core and process).  Each term of xi is
    the matching term of kappa with the j legs, labelled b..b+j-1, added
    by `graphs.add_marked_legs`.  Its coefficient is kappa's, times
    (-1)^j for a mark on an edge flag.  An eta whose every labeling
    vanishes is kept; `build_complex` drops it.
    """
    kappa, j, b = core_class(xi)
    records, bad = _core_boundary(kappa)
    if bad:
        raise AssertionError(f"inadmissible boundary term from {encode_graph(xi.graph)}: {bad}")
    if not j:
        return {(eta, tau): coeff for eta, tau, coeff, _ in records}
    flip = -1 if j % 2 else 1
    return {
        add_marked_legs(eta, tau, b, j): flip * coeff if edge_mark else coeff
        for eta, tau, coeff, edge_mark in records
    }


@cache
def _core_boundary(kappa: OrientedClass) -> tuple[tuple, list[str]]:
    """The move loop on a class with no marked legs: ``(records,
    problems)``, with one record ``(eta, tau, coefficient, edge_mark)``
    per nonzero term in order of first occurrence, or no records and the
    `validate` problems of the first inadmissible move result.

    The moves drop only edge flags and keep the others in order, so the
    k-th leg of every term is the k-th leg of kappa.  Moves that give the
    same graph (contracting parallel edges, say) are summed first, and each
    distinct graph is validated and canonicalized once.  ``edge_mark``
    says that the term comes from marking an edge flag.

    Why the terms of kappa give those of xi = kappa + j marked legs: xi's
    graph is kappa's with the legs inserted as flags b..b+j-1, b being
    kappa's dv legs, before every edge flag, so the edges, the marking
    moves and their order are kappa's.  A move keeps the legs at the dv
    and in flag order, does not renumber vertices, and its results, equal
    or not, are kappa's with the legs inserted; its sign counts marks only
    between a marked dv edge flag and a flag of a neutral vertex
    (contraction) or below an unmarked dv flag (marking), so the legs
    change only a mark on an edge flag, by (-1)^j.  The legs add no
    neutral valence, edge or neutral mark, so a result of xi is
    admissible exactly when kappa's is, with the same problems: only the
    neutral-tadpole clause can fail, and its message names a vertex.
    Canonicalizing, the result is `graphs.add_marked_legs` of kappa's
    term (its proof: the legs are the result's legs b..b+j-1 in flag
    order), and the sign is kappa's: the legs' marks come in order and,
    in the sorted marks, after every mark whose image lies before them.
    Distinct terms stay distinct, and each term comes from one kind of
    move (contractions lose an edge; a mark on a leg adds a marked leg,
    on an edge flag a marked edge flag), so a coefficient never cancels.
    """
    g = kappa.graph
    moves: dict[MarkedGraph, int] = {}
    for e in g.edges:
        for h, s in contract_edge(g, e):
            moves[h] = moves.get(h, 0) + s
    mark_sign = -1 if g.n_edges % 2 else 1
    edge_marks = set()
    for f in range(g.nf):
        if g.adj[f] == 0 and f not in g.marked:
            result = mark_flag(g, f)
            if result is not None:
                h, s = result
                moves[h] = moves.get(h, 0) + mark_sign * s
                if g.inv[f] != f:
                    edge_marks.add(h)
    out: dict[tuple[OrientedClass, Permutation], int] = {}
    kinds: dict[tuple[OrientedClass, Permutation], bool] = {}
    for h, coeff in moves.items():
        bad = validate(h)
        if bad:
            return (), bad
        form = canonical_form(h)
        term = (form[0], _leg_map(h, form))
        out[term] = out.get(term, 0) + coeff * form[1]
        kinds[term] = h in edge_marks
    return tuple(
        (eta, tau, v, kinds[eta, tau]) for (eta, tau), v in out.items() if v
    ), []


def _targets(
    terms: dict[tuple[OrientedClass, Permutation], int], table: DegreeTable, i: int
) -> list[tuple[LegGroup, dict[Permutation, int], Permutation, int]]:
    """The boundary terms of a degree-``i`` class as (leg group, positions,
    tau, coefficient) rows of ``table``.  A term is zero exactly when its
    class has no leg group (an odd automorphism fixes every leg); any
    other class must be in the table."""
    out = []
    for (eta, tau), coeff in terms.items():
        positions = table.get(eta)
        if positions is None:
            if eta.leg_group is not None:
                raise AssertionError(
                    f"boundary of a degree-{i} class left the enumerated basis: "
                    f"{encode_graph(eta.graph)}"
                )
            continue
        out.append((eta.leg_group, positions, tau, coeff))
    return out


def _column(
    targets: list[tuple[LegGroup, dict[Permutation, int], Permutation, int]],
) -> dict[int, int]:
    """d[xi, id] for the boundary ``targets`` of xi: the term (eta, tau)
    is [eta, tau], which is chi·[eta, tau'] at its coset minimum tau'."""
    col: dict[int, int] = {}
    try:
        for group, positions, tau, coeff in targets:
            image, chi = group.coset_min(tau)
            pos = positions[image]
            col[pos] = col.get(pos, 0) + coeff * chi
    except KeyError:
        raise AssertionError("a coset minimum left the enumerated basis") from None
    return {pos: v for pos, v in col.items() if v}


def _columns(
    first: dict[int, int], orbit: Orbit, moves: list[SignedMap]
) -> SparseColumns:
    """d[xi, rho] for every labeling rho of xi, in labeling order, from
    ``first`` = d[xi, id] along the walk's tree.  When generator s takes
    [xi, rho] to chi·[xi, rho'], then [xi, rho'] = chi·s·[xi, rho], and
    d commutes with S_n, so d[xi, rho'] = chi·s·d[xi, rho], s acting on
    the degree below by ``moves[k]``: a signed map, so the column keeps
    its entries up to sign, at their images."""
    cols = [first] * len(orbit.labelings)
    for p, parent, k in orbit.tree:
        images, signs = moves[k]
        chi = orbit.actions[k][1][parent]
        cols[p] = {images[q]: chi * signs[q] * v for q, v in cols[parent].items()}
    return cols


def build_complex(
    g: int, n: int, r: int, cache_dir: str | Path | None = None
) -> EquivariantComplex:
    basis: dict[int, DegreeTable] = {}
    dims: dict[int, int] = {}
    for xi, rho in enumerate_marked_graphs(g, n, r, cache_dir=cache_dir):
        i = degree(xi.graph)
        dims[i] = dims.get(i, 0) + 1
        basis.setdefault(i, {}).setdefault(xi, {})[rho] = dims[i] - 1
    diff: dict[int, SparseColumns] = {}
    for i in sorted(basis):
        below = basis.get(i - 1, {})
        moves = [_generator_action(below, k) for k in range(len(generators(n)))]
        cols: SparseColumns = []
        for xi in basis[i]:
            targets = _targets(boundary_terms(xi), below, i)
            cols.extend(_columns(_column(targets), xi.leg_group.orbit(), moves))
        diff[i] = cols
    complex_ = EquivariantComplex(g=g, n=n, r=r, basis=basis, diff=diff)
    _check_d_squared(complex_)
    return complex_


def _check_d_squared(c: EquivariantComplex) -> None:
    for i in c.degrees():
        if i - 1 not in c.diff:
            continue
        for pos, bad in enumerate(_compose_sparse(c.diff[i - 1], c.diff[i])):
            if bad:
                xi, rho = next(
                    (xi, rho)
                    for xi, positions in c.basis[i].items()
                    for rho, p in positions.items()
                    if p == pos
                )
                raise AssertionError(
                    f"d^2 != 0 on B({c.g},{c.n},{c.r}) degree {i} basis "
                    f"element {pos} [{encode_graph(xi.graph)}, {rho}]: {bad}"
                )


# ---------------------------------------------------------------------------
# group action and characters


def group_action_matrix(
    c: EquivariantComplex, i: int, sigma: Permutation
) -> SignedMap:
    """The leg relabeling by ``sigma`` (0-indexed images) on degree ``i``:
    the position and the sign of sigma·[xi, rho] for each basis element.
    sigma·[xi, rho] = [xi, sigma∘rho] = chi·[xi, rho'] with rho' the coset
    minimum.  The `generators` read their orbits' actions; any other
    sigma takes one coset pass."""
    gens = generators(c.n)
    if sigma in gens:
        return _generator_action(c.basis.get(i, {}), gens.index(sigma))
    images, signs = [], []
    try:
        for xi, positions in c.basis.get(i, {}).items():
            group = xi.leg_group
            for rho in positions:
                image, chi = group.coset_min(tuple([sigma[x] for x in rho]))
                images.append(positions[image])
                signs.append(chi)
    except KeyError:
        raise AssertionError(
            f"relabeling left the degree-{i} basis of B({c.g},{c.n},{c.r})"
        ) from None
    return images, signs


def _generator_action(table: DegreeTable, k: int) -> SignedMap:
    """The action of generator k of `generators` on a degree with no
    coset pass: each class's orbit action, offset by the class's first
    position (a class's labelings hold consecutive positions, in the
    orbit's order)."""
    images: list[int] = []
    signs: list[int] = []
    for xi, positions in table.items():
        offset = next(iter(positions.values()))
        local, local_signs = xi.leg_group.orbit().actions[k]
        images.extend([offset + q for q in local])
        signs.extend(local_signs)
    return images, signs


def action_trace(action: SignedMap) -> int:
    """Trace of a signed permutation: the signs of its fixed positions."""
    images, signs = action
    return sum(signs[p] for p, image in enumerate(images) if image == p)


def _then(first: SignedMap, second: SignedMap) -> SignedMap:
    """The action of acting by ``first`` and then by ``second``: position
    p goes to second's image of first's image of p, with both signs."""
    (images1, signs1), (images2, signs2) = first, second
    return (
        list(map(images2.__getitem__, images1)),
        list(map(mul, map(signs2.__getitem__, images1), signs1)),
    )


def _inverse(action: SignedMap) -> SignedMap:
    images, signs = action
    inv_images, inv_signs = [0] * len(images), [0] * len(images)
    for p, q in enumerate(images):
        inv_images[q] = p
        inv_signs[q] = signs[p]
    return inv_images, inv_signs


def cycle_type_actions(
    c: EquivariantComplex, i: int
) -> Iterator[tuple[Partition, SignedMap]]:
    """Yield (mu, the action of ``cycle_type_representative(mu)`` on degree
    ``i``) for every mu in ``cycle_types(c.n)``, each mu after its parent
    (below); every action equals `group_action_matrix`'s.

    Only the generators' actions are asked for: `group_action_matrix`
    runs for s_0 = (0 1) and for the n-cycle kappa = (0 1 ... n-1), the
    `generators`, once each (once in all when n = 2, where they agree;
    never when n < 2), and reads them off the orbit walks.  kappa maps x to
    x + 1 mod n, so s_k = kappa s_{k-1} kappa^-1 = (k k+1), and each
    further s_k is two compositions.  The action is a group action,
    (sigma tau)·e = sigma·(tau·e), so the action of sigma∘s is s's
    followed by sigma's: one pass over the basis, no coset minimum.

    The representative of mu runs its cycles on consecutive points,
    longest first, so it moves exactly 0..S-1, S being the sum of mu's
    parts above 1, and its last nontrivial cycle is (a ... S-1).  A
    mu's parent drops its last nontrivial part when that part is 2, and
    lowers it by one otherwise; each mu thus has one parent, and (1^n),
    the identity, is the root.  Conversely, with sigma the parent's
    representative:
      * sigma∘s_{S-1} sends S-1 to sigma(S) = S and S to sigma(S-1) = a,
        and agrees with sigma elsewhere: it is sigma with its last cycle
        (a ... S-1) extended to (a ... S), the representative of the
        child whose last nontrivial part is one larger;
      * sigma∘s_S is sigma with the new cycle (S S+1) on two of its
        fixed points, the representative of the child with a new part 2.
    So each action is that of the representative itself, not of another
    element of its class.  The walk is depth first and takes the new
    2-cycle child first, so at most one pending action per 2-cycle on
    the current path is held besides the n - 1 swaps.
    """
    n, gens = c.n, generators(c.n)
    swaps: list[SignedMap] = []
    if n >= 2:
        swaps.append(group_action_matrix(c, i, gens[0]))
    if n >= 3:
        kappa = group_action_matrix(c, i, gens[1])
        kappa_inv = _inverse(kappa)
        while len(swaps) < n - 1:
            swaps.append(_then(_then(kappa_inv, swaps[-1]), kappa))
        del kappa, kappa_inv  # the walk needs only the swaps
    dim = c.dim(i)
    stack: list[tuple[Partition, SignedMap]] = [
        ((), (list(range(dim)), [1] * dim))
    ]
    while stack:
        parts, action = stack.pop()
        size = sum(parts)
        yield parts + (1,) * (n - size), action
        children = []
        if parts and size < n and (len(parts) == 1 or parts[-2] > parts[-1]):
            children.append((parts[:-1] + (parts[-1] + 1,), size - 1))
        if size + 2 <= n:
            children.append((parts + (2,), size))
        for child, k in children:
            stack.append((child, _then(swaps[k], action)))


def chain_character(c: EquivariantComplex, i: int) -> ClassFunction:
    """Character of the signed permutation action on C_i."""
    return ClassFunction(
        c.n,
        {mu: Fraction(action_trace(action)) for mu, action in cycle_type_actions(c, i)},
    )


# ---------------------------------------------------------------------------
# stabilization


def stabilization_map(
    source: EquivariantComplex, target: EquivariantComplex
) -> dict[int, SignedMap]:
    """The chain map adjoining a marked leg with label n+1 (degree 0), as
    {degree: (images, signs)} into ``target``'s basis.

    The leg is adjoined once per unlabeled class xi, as its last flag and
    last in the marked order, and `graphs.add_marked_legs` (b = n) gives
    its class eta and leg map with no search.  Appended last, its mark
    passes the u marked edge flags of xi on the way to its place among
    the marked legs, so the sign is (-1)^u.  [xi, rho] then maps like
    [xi, id] relabeled by rho extended by n -> n.  eta vanishes exactly
    when xi does (`graphs.insert_marked_legs`), so an image outside
    ``target``'s basis is a broken invariant.
    """
    identity = tuple(range(source.n))
    psi: dict[int, SignedMap] = {}
    for i in source.degrees():
        images, signs = psi[i] = [], []
        table = target.basis.get(i, {})
        for xi, positions in source.basis[i].items():
            u = xi.graph.n_marked - len(xi.graph.marked_legs())
            sign = -1 if u % 2 else 1
            eta, tau = add_marked_legs(xi, identity, source.n, 1)
            try:
                targets = table[eta]
                for rho in positions:
                    labels = rho + (source.n,)
                    image, chi = eta.leg_group.coset_min(tuple([labels[k] for k in tau]))
                    images.append(targets[image])
                    signs.append(sign * chi)
            except KeyError:
                raise AssertionError(
                    f"stabilization of a degree-{i} class left the enumerated "
                    f"basis: {encode_graph(eta.graph)}"
                ) from None
    _check_chain_map(source, target, psi)
    return psi


def _check_chain_map(
    source: EquivariantComplex, target: EquivariantComplex, psi: dict[int, SignedMap]
) -> None:
    """psi d = d' psi on every basis element."""
    for i in source.degrees():
        if i - 1 not in source.basis:
            continue
        (images, signs), (below, below_signs) = psi[i], psi[i - 1]
        for p, col in enumerate(source.diff[i]):
            psi_d: dict[int, int] = {}
            for q, v in col.items():
                psi_d[below[q]] = psi_d.get(below[q], 0) + below_signs[q] * v
            d_psi = {row: signs[p] * v for row, v in target.diff[i][images[p]].items()}
            if {row: v for row, v in psi_d.items() if v} != d_psi:
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


class CacheError(OSError):
    """A cache file could not be written."""


def cache_path(cache_dir: str | Path, g: int, n: int, r: int) -> Path:
    return Path(cache_dir) / f"basis-{g}-{n}-{r}.txt"


@cache
def _lean_sha256():
    """`sha256` from the built-in `_sha2` (3.12+) or `_sha256`, as `random`
    takes its `sha512`; `hashlib` is the fallback.  Imported on first use."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256


def _checksum(body: str) -> str:
    """The cache body's SHA-256 hex digest."""
    return _lean_sha256()(body.encode()).hexdigest()


def save_enumeration(
    cache_dir: str | Path, g: int, n: int, r: int, classes: BasisPairs
) -> Path:
    """Write the unlabeled classes of a basis, one per line in basis order;
    the header counts the basis elements (xi, rho)."""
    body = "".join(
        f"{degree(xi.graph)}|{encode_graph(xi.graph)}\n"
        for xi in dict.fromkeys(xi for xi, _ in classes)
    )
    header = {
        "format": CACHE_FORMAT,
        "g": g,
        "n": n,
        "r": r,
        "count": len(classes),
        "checksum": _checksum(body),
    }
    path = cache_path(cache_dir, g, n, r)
    # write a sibling temp file and rename it over the cache, so an
    # interrupted write never leaves a partial file under the cache name
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(json.dumps(header) + "\n" + body)
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise CacheError(f"cache not written: {exc}") from exc
        raise
    return path


def load_enumeration(
    cache_dir: str | Path, g: int, n: int, r: int
) -> BasisPairs | None:
    """Reload a cached enumeration; a file that cannot be read, or any
    inconsistency, discards the cache.  Each unlabeled class must be an
    admissible class of type (g, n, s >= r); it is canonicalized again, and
    its labelings are recomputed."""
    path = cache_path(cache_dir, g, n, r)
    try:
        head, _, body = path.read_text().partition("\n")
        header = json.loads(head)
        if not isinstance(header, dict):
            return None
        if header.get("format") != CACHE_FORMAT or (
            header.get("g"), header.get("n"), header.get("r")
        ) != (g, n, r):
            return None
        if _checksum(body) != header["checksum"]:
            return None
        xis = []
        last = None
        for line in body.splitlines():
            deg_text, _, graph_text = line.partition("|")
            graph = decode_graph(graph_text)
            if validate(graph):
                return None
            if graph.genus != g or graph.n_legs != n or graph.n_marked < r:
                return None  # a class of another complex
            xi, sign = canonical_form(graph)
            order = (int(deg_text), xi.key)
            if xi.graph != graph or sign != 1 or order[0] != degree(graph):
                return None
            if last is not None and order <= last:
                return None  # out of basis order, or repeated
            if xi.leg_group is None:
                return None
            xis.append(xi)
            last = order
        classes = [(xi, rho) for xi in xis for rho in xi.leg_group.labelings()]
        if len(classes) != header["count"]:
            return None
        return classes
    except (OSError, ValueError, KeyError, IndexError):
        return None
