"""Enumeration of marked-graph classes and assembly of the equivariant
chain complexes B(g, n, r).

One loop, `_core_classes`, enumerates cores: classes with no marked
legs.  Every class is, uniquely, a core with marked legs added at the
distinguished vertex, and `enumerate_unlabeled_classes` builds it so.
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
graph is built or canonicalized with one.  The boundary is computed
once per xi, on [xi, id], as terms [eta, tau] that remember where each
leg went; the column of [xi, rho] is the same terms relabeled by rho,
each reduced to its coset minimum with its sign.  The stabilization map
adjoins its leg once per xi in the same way.  The S_n action is the same
coset arithmetic, and its one format is a signed permutation: the
(position, sign) of sigma·[xi, rho] for each basis element in order.
The enumeration cache (format 2) stores only the xi; a reload accepts
only admissible classes of the complex's type.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import cache
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from .graphs import (
    LegGroup,
    MarkedGraph,
    OrientedClass,
    _least_encoding,
    canonical_form,
    contract_edge,
    add_marked_leg,
    decode_graph,
    degree,
    encode_graph,
    mark_flag,
    validate,
)
from .partitions import Partition, cycle_types
from .reptheory import ClassFunction, Permutation, cycle_type_representative

CACHE_FORMAT = 2

SparseColumns = list[dict[int, int]]  # one {row: entry} per basis column
SignedPermutation = list[tuple[int, int]]  # one (row, sign) per basis column
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
                bare = _assemble(nv, chosen, (0,) * nv)
                if not bare.is_connected():
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
        nv=nv, dv=0, adj=tuple(adj), inv=tuple(inv), marked=frozenset()
    )


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
            # `_assemble` numbers edge flags before legs: flag f is end
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
                base = _assemble(nv, chosen, legs_at)
                bad = validate(base)
                if bad:
                    raise AssertionError(
                        f"inadmissible core {encode_graph(base)}: {bad}"
                    )
                for marked in markings:
                    cls, _ = canonical_form(replace(base, marked=marked))
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
            graph = xi.graph
            for _ in range(j):
                graph = add_marked_leg(graph)
            cls = canonical_form(graph)[0] if j else xi
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


def excess(g: int, ell: int) -> int:
    """The excess m = 3(g - 1) + 2l of B(g, n, n - l)."""
    return 3 * (g - 1) + 2 * ell


@dataclass(frozen=True)
class EquivariantComplex:
    g: int
    n: int
    r: int
    basis: dict[int, DegreeTable]  # degree -> {xi: {rho: position}}
    diff: dict[int, SparseColumns]  # degree i -> matrix C_i -> C_{i-1}

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
    return tuple(tau)


def boundary_terms(xi: OrientedClass) -> dict[tuple[OrientedClass, Permutation], int]:
    """The differential of [xi, id] as {(eta, tau): coefficient}, where the
    term (eta, tau) is eta in its reference orientation with label
    tau[k'] + 1 on leg k' (see `_leg_map`).

    The moves drop only edge flags and keep the others in order, so the
    k-th leg of every term is the k-th leg of xi.  An eta whose every
    labeling vanishes is kept; `build_complex` drops it.
    """
    g = xi.graph
    out: dict[tuple[OrientedClass, Permutation], int] = {}

    def accumulate(result, factor: int):
        h, s = result
        bad = validate(h)
        if bad:
            raise AssertionError(f"inadmissible boundary term from {encode_graph(g)}: {bad}")
        form = canonical_form(h)
        term = (form[0], _leg_map(h, form))
        out[term] = out.get(term, 0) + factor * s * form[1]

    for e in g.edges:
        for result in contract_edge(g, e):
            accumulate(result, 1)
    mark_sign = -1 if g.n_edges % 2 else 1
    for f in range(g.nf):
        if g.adj[f] == g.dv and f not in g.marked:
            result = mark_flag(g, f)
            if result is not None:
                accumulate(result, mark_sign)
    return {t: v for t, v in out.items() if v}


def _targets(
    terms: dict[tuple[OrientedClass, Permutation], int], table: DegreeTable, where: str
) -> list[tuple[LegGroup, dict[Permutation, int], Permutation, int]]:
    """The terms as (leg group, positions, tau, coefficient) rows of
    ``table``.  A term is zero exactly when its class has no leg group (an
    odd automorphism fixes every leg); any other class must be in the
    table."""
    out = []
    for (eta, tau), coeff in terms.items():
        positions = table.get(eta)
        if positions is None:
            if eta.leg_group is not None:
                raise AssertionError(
                    f"{where} left the enumerated basis: {encode_graph(eta.graph)}"
                )
            continue
        out.append((eta.leg_group, positions, tau, coeff))
    return out


def _column(
    targets: list[tuple[LegGroup, dict[Permutation, int], Permutation, int]],
    rho: Permutation,
) -> dict[int, int]:
    """The image of [xi, rho] under a map with d[xi, id] given by
    ``targets``: relabeling by rho sends (eta, tau) to [eta, rho∘tau],
    which is chi·[eta, rho'] at its coset minimum rho'."""
    col: dict[int, int] = {}
    try:
        for group, positions, tau, coeff in targets:
            image, chi = group.coset_min(tuple([rho[k] for k in tau]))
            pos = positions[image]
            col[pos] = col.get(pos, 0) + coeff * chi
    except KeyError:
        raise AssertionError("a coset minimum left the enumerated basis") from None
    return {pos: v for pos, v in col.items() if v}


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
        cols: SparseColumns = []
        for xi, positions in basis[i].items():
            targets = _targets(
                boundary_terms(xi), below, f"boundary of a degree-{i} class"
            )
            cols.extend(_column(targets, rho) for rho in positions)
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
) -> SignedPermutation:
    """The leg relabeling by ``sigma`` (0-indexed images) on degree ``i``:
    the ``(position, sign)`` of sigma·[xi, rho] for each basis element.
    sigma·[xi, rho] = [xi, sigma∘rho] = chi·[xi, rho'] with rho' the coset
    minimum."""
    out = []
    try:
        for xi, positions in c.basis.get(i, {}).items():
            group = xi.leg_group
            for rho in positions:
                image, chi = group.coset_min(tuple([sigma[x] for x in rho]))
                out.append((positions[image], chi))
    except KeyError:
        raise AssertionError(
            f"relabeling left the degree-{i} basis of B({c.g},{c.n},{c.r})"
        ) from None
    return out


def action_trace(action: SignedPermutation) -> int:
    """Trace of a signed permutation: the signs of its fixed positions."""
    return sum(sign for pos, (image, sign) in enumerate(action) if image == pos)


def chain_character(c: EquivariantComplex, i: int) -> ClassFunction:
    """Character of the signed permutation action on C_i."""
    values: dict[Partition, Fraction] = {}
    for mu in cycle_types(c.n):
        action = group_action_matrix(c, i, cycle_type_representative(mu))
        values[mu] = Fraction(action_trace(action))
    return ClassFunction(c.n, values)


# ---------------------------------------------------------------------------
# stabilization


@dataclass(frozen=True)
class ChainMap:
    source: EquivariantComplex
    target: EquivariantComplex
    cols: dict[int, SparseColumns]  # degree -> matrix source_i -> target_i


def stabilization_map(
    source: EquivariantComplex, target: EquivariantComplex
) -> ChainMap:
    """The chain map adjoining a marked leg with label n+1 (degree 0).

    The leg is adjoined once per unlabeled class xi, last in flag order and
    in the marked order; [xi, rho] then maps like [xi, id] relabeled by rho
    extended by n -> n.
    """
    cols: dict[int, SparseColumns] = {}
    for i in source.degrees():
        cols_i: SparseColumns = []
        for xi, positions in source.basis[i].items():
            h = add_marked_leg(xi.graph)
            form = canonical_form(h)
            targets = _targets(
                {(form[0], _leg_map(h, form)): form[1]},
                target.basis.get(i, {}),
                f"stabilization of a degree-{i} class",
            )
            cols_i.extend(_column(targets, rho + (source.n,)) for rho in positions)
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


class CacheError(OSError):
    """A cache file could not be written."""


def cache_path(cache_dir: str | Path, g: int, n: int, r: int) -> Path:
    return Path(cache_dir) / f"basis-{g}-{n}-{r}.txt"


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
        "checksum": hashlib.sha256(body.encode()).hexdigest(),
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
        if hashlib.sha256(body.encode()).hexdigest() != header["checksum"]:
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
