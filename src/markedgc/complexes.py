"""Enumeration of marked-graph classes and assembly of the equivariant
chain complexes B(g, n, r).

One loop, `_core_classes`, enumerates cores: classes with no marked
legs.  Every class is, uniquely, a core with marked legs added at the
distinguished vertex, and `enumerate_unlabeled_classes` builds it so.

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
the det-sign character, and the basis is the table of pairs (xi, rho):
[xi, rho] is xi's canonical graph in its reference orientation with leg k
labeled rho[k] + 1, rho the least element of its coset under xi's leg
group H = `xi.leg_group` (the image of Aut(xi) on the legs, kept as its
twin blocks and tie automorphisms), and `H.labelings` lists those rho.
The class carries H, read from the canonical-form search that created
it; a class without one (an odd automorphism fixes every leg) vanishes
under every labeling and is left out.
No labeled graph is canonicalized.  The boundary is computed once per xi,
on [xi, id], as terms [eta, tau] that remember where each leg went; the
column of [xi, rho] is the same terms relabeled by rho, each reduced to
its coset minimum with its sign.  The stabilization map adjoins its leg
once per xi in the same way, and the S_n action is the same coset
arithmetic.  The enumeration cache (format 2) stores only the xi; a
reload accepts only admissible classes of the complex's type.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import cache
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from pathlib import Path

from .graphs import (
    LegGroup,
    MarkedGraph,
    OrientedClass,
    canonical_form,
    contract_edge,
    add_marked_leg,
    decode_graph,
    degree,
    encode_graph,
    label_legs,
    mark_flag,
    validate,
)
from .partitions import Partition, cycle_types
from .reptheory import ClassFunction, Permutation, cycle_type_representative

CACHE_FORMAT = 2

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


@dataclass(frozen=True, slots=True, eq=False)
class LabeledClass:
    """The basis element [xi, rho]: the unlabeled class xi's canonical graph
    in its reference orientation, with leg k (in flag order) labeled
    rho[k] + 1.

    rho is the least element of its coset under xi's leg group H.  An
    automorphism with leg action h gives [xi, rho] = chi(h)·[xi, rho∘h], so
    each coset holds exactly one basis element.
    """

    xi: OrientedClass
    rho: Permutation

    @property
    def key(self) -> tuple:
        return (self.xi.key, self.rho)

    @property
    def graph(self) -> MarkedGraph:
        """The labeled representative."""
        legs = self.xi.graph.legs
        return label_legs(
            self.xi.graph, {f: self.rho[k] + 1 for k, f in enumerate(legs)}
        )


def _labeled_classes(xis: list[OrientedClass]) -> list[LabeledClass]:
    """Every [xi, rho] of the given classes, in their order and then by rho."""
    return [
        LabeledClass(xi, rho)
        for xi in xis
        for rho in xi.leg_group.labelings()
    ]


def enumerate_marked_graphs(
    g: int, n: int, r: int, cache_dir: str | Path | None
) -> list[LabeledClass]:
    """The basis of B(g, n, r): every [xi, rho] with xi an unlabeled class
    that has a leg group, ordered by (degree, xi key, rho)."""
    if cache_dir is not None:
        cached = load_enumeration(cache_dir, g, n, r)
        if cached is not None:
            return cached
    xis = [
        xi for xi in enumerate_unlabeled_classes(g, n, r) if xi.leg_group is not None
    ]
    xis.sort(key=lambda xi: degree(xi.graph))  # stable: keys stay sorted
    classes = _labeled_classes(xis)
    if cache_dir is not None:
        save_enumeration(cache_dir, g, n, r, classes)
    return classes


# ---------------------------------------------------------------------------
# the chain complex

# xi key -> (xi, {rho: position of [xi, rho] in xi's degree})
DegreeTable = dict[tuple, tuple[OrientedClass, dict[Permutation, int]]]


@dataclass(frozen=True)
class EquivariantComplex:
    g: int
    n: int
    r: int
    basis: dict[int, tuple[LabeledClass, ...]]
    diff: dict[int, SparseColumns]  # degree i -> matrix C_i -> C_{i-1}
    table: dict[int, DegreeTable]  # degree -> its classes, in basis order

    @property
    def excess(self) -> int:
        return 3 * (self.g - 1) + 2 * (self.n - self.r)

    def degrees(self) -> list[int]:
        return sorted(self.basis)

    def dim(self, i: int) -> int:
        return len(self.basis.get(i, ()))

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * self.dim(i) for i in self.basis)


def _leg_map(h: MarkedGraph, form) -> Permutation:
    """tau with tau[k'] = k when the k-th leg of ``h`` (in flag order) goes
    to the k'-th leg of the class of ``form``, a `CanonicalForm` of ``h``.

    Labeling h's leg k by rho[k] + 1 then gives that class with leg k'
    labeled rho[tau[k']] + 1, in the same orientation.
    """
    index = {f: k for k, f in enumerate(form[0].graph.legs)}
    tau = [0] * len(index)
    for k, f in enumerate(h.legs):
        tau[index[form.phi[f]]] = k
    return tuple(tau)


def boundary_terms(xi: OrientedClass) -> dict[tuple[OrientedClass, Permutation], int]:
    """The differential of [xi, id] as {(eta, tau): coefficient}, where the
    term (eta, tau) is eta in its reference orientation with leg k' labeled
    tau[k'] + 1 (see `_leg_map`).

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
        entry = table.get(eta.key)
        if entry is None:
            if eta.leg_group is not None:
                raise AssertionError(
                    f"{where} left the enumerated basis: {encode_graph(eta.graph)}"
                )
            continue
        out.append((eta.leg_group, entry[1], tau, coeff))
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
    basis: dict[int, list[LabeledClass]] = {}
    table: dict[int, DegreeTable] = {}
    for cls in enumerate_marked_graphs(g, n, r, cache_dir=cache_dir):
        i = degree(cls.xi.graph)
        column = basis.setdefault(i, [])
        entry = table.setdefault(i, {}).setdefault(cls.xi.key, (cls.xi, {}))
        entry[1][cls.rho] = len(column)
        column.append(cls)
    diff: dict[int, SparseColumns] = {}
    for i in sorted(table):
        below = table.get(i - 1, {})
        cols: SparseColumns = []
        for xi, positions in table[i].values():
            targets = _targets(
                boundary_terms(xi), below, f"boundary of a degree-{i} class"
            )
            cols.extend(_column(targets, rho) for rho in positions)
        diff[i] = cols
    complex_ = EquivariantComplex(
        g=g, n=n, r=r,
        basis={i: tuple(b) for i, b in basis.items()},
        diff=diff,
        table=table,
    )
    _check_d_squared(complex_)
    return complex_


def _check_d_squared(c: EquivariantComplex) -> None:
    for i in c.degrees():
        if i - 1 not in c.diff:
            continue
        for pos, bad in enumerate(_compose_sparse(c.diff[i - 1], c.diff[i])):
            if bad:
                cls = c.basis[i][pos]
                raise AssertionError(
                    f"d^2 != 0 on B({c.g},{c.n},{c.r}) degree {i} basis "
                    f"element {pos} ({encode_graph(cls.graph)}): {bad}"
                )


# ---------------------------------------------------------------------------
# group action and characters


def _act(c: EquivariantComplex, i: int, sigma: Permutation) -> list[tuple[int, int]]:
    """``(position, sign)`` of sigma·[xi, rho] for each degree-i basis
    element: sigma·[xi, rho] = [xi, sigma∘rho] = chi·[xi, rho'] with rho'
    the coset minimum."""
    out = []
    try:
        for xi, positions in c.table.get(i, {}).values():
            group = xi.leg_group
            for rho in positions:
                image, chi = group.coset_min(tuple([sigma[x] for x in rho]))
                out.append((positions[image], chi))
    except KeyError:
        raise AssertionError(
            f"relabeling left the degree-{i} basis of B({c.g},{c.n},{c.r})"
        ) from None
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
    source: EquivariantComplex, target: EquivariantComplex
) -> ChainMap:
    """The chain map adjoining a marked leg labeled n+1 (degree 0).

    The leg is adjoined once per unlabeled class xi, last in flag order and
    in the marked order; [xi, rho] then maps like [xi, id] relabeled by rho
    extended by n -> n.
    """
    cols: dict[int, SparseColumns] = {}
    for i in source.degrees():
        cols_i: SparseColumns = []
        for xi, positions in source.table[i].values():
            h = add_marked_leg(xi.graph)
            form = canonical_form(h)
            targets = _targets(
                {(form[0], _leg_map(h, form)): form[1]},
                target.table.get(i, {}),
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
    cache_dir: str | Path, g: int, n: int, r: int, classes: list[LabeledClass]
) -> Path:
    """Write the unlabeled classes of a basis, one per line in basis order;
    the header counts the labeled basis elements."""
    body = "".join(
        f"{degree(xi.graph)}|{encode_graph(xi.graph)}\n"
        for xi in dict.fromkeys(cls.xi for cls in classes)
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
) -> list[LabeledClass] | None:
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
            if graph.labeled or validate(graph):
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
        classes = _labeled_classes(xis)
        if len(classes) != header["count"]:
            return None
        return classes
    except (OSError, ValueError, KeyError, IndexError):
        return None
