"""Consistent-sequence analysis of the complexes B(g, n, n - l).

Covers the core-graph direct-sum decomposition, the row statistic of a
core's induced module, empirical detection of the sharp stabilization
point against the predicted ceil(3m/2), the partition multisets
Lambda(y, p), the stable module, and the Littlewood-Richardson formula
for stable multiplicities.

Cores (classes with no marked legs) come from
`complexes.enumerate_core_graphs`, the package's one enumeration loop:
every class of B(g, n, r) is a core with marked legs added at the
distinguished vertex, which is how `core_decomposition` splits the
chain groups and how `complexes.enumerate_unlabeled_classes` lists
them.  Every module here is a class's: `core_module` induces it from
the class's leg group (`xi.leg_group`, listed by `LegGroup.elements`) by
`reptheory.induce_from_subgroup`, which counts the group's elements of
each cycle type rather than summing over S_n.  A cut graph is
canonicalized first, so its module is its class's too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    EquivariantComplex,
    ChainMap,
    build_complex,
    chain_character,
    core_types,
    enumerate_core_graphs,
    excess,
    group_action_matrix,
    stabilization_map,
)
from .graphs import (
    OrientedClass,
    build_theta,
    canonical_form,
    cut_edge,
    degree,
)
from .homology import HomologyProfile
from .linalg import rank
from .partitions import (
    Partition,
    double,
    enumerate_partitions,
    erase_first_column,
    pad_ones,
    size,
)
from .reptheory import (
    IrrDecomposition,
    decompose,
    decomposition_rows,
    induce_from_subgroup,
    induce_product,
    lr_coefficient,
    sign_decomposition,
    tensor_sign,
)


def predicted_sharp_bound(g: int, ell: int) -> int:
    """ceil(3m/2) for m = 3(g-1) + 2*ell."""
    m = excess(g, ell)
    if m < 0:
        raise ValueError("negative excess has no stable range")
    return (3 * m + 1) // 2


# ---------------------------------------------------------------------------
# core graphs


def core_module(xi: OrientedClass) -> IrrDecomposition | None:
    """A_xi: the module induced from xi's leg group (legs in flag order)
    acting by its det-signs, or None when xi vanishes."""
    group = xi.leg_group
    if group is None:
        return None
    return decompose(induce_from_subgroup(group.n, group.elements()))


def rho_of_core(xi: OrientedClass) -> int:
    """Maximum row count over the irreducibles of A_xi."""
    module = core_module(xi)
    if module is None:
        raise ValueError("vanishing core class has no row statistic")
    return decomposition_rows(module)


def theta_classes(g: int, ell: int) -> dict[int, OrientedClass]:
    """The extremal cores for (g, ell), keyed by their parameter p."""
    m = excess(g, ell)
    out = {}
    for p in range(0, g):
        if p > m or (g - p) % 2 == 0:
            continue
        out[p] = canonical_form(build_theta(g, ell, p))[0]
    return out


def core_decomposition(
    g: int, n: int, r: int, i: int
) -> list[tuple[OrientedClass, int, IrrDecomposition]]:
    """The degree-i summands of B(g, n, r) indexed by core classes.

    Cores of type (g, n - j, u), (j, u) in `complexes.core_types`, and of
    degree i each contribute A_xi composed with the sign column on the
    extra j legs.
    """
    out = []
    for j, u in core_types(g, n, r):
        for xi in enumerate_core_graphs(g, n - j, u):
            if degree(xi.graph) != i:
                continue
            module = core_module(xi)
            if module is None:
                continue
            widehat = induce_product(module, sign_decomposition(j))
            out.append((xi, widehat.dim, widehat))
    return out


# ---------------------------------------------------------------------------
# sharp-point detection


@dataclass(frozen=True)
class StabilityReport:
    g: int
    ell: int
    predicted: int
    window: tuple[int, int]
    conditions: dict[int, tuple[bool, bool, bool]]
    detected: int | None

    def to_json(self) -> dict:
        return {
            "g": self.g,
            "ell": self.ell,
            "predicted_sharp_bound": self.predicted,
            "window": list(self.window),
            "conditions": {
                str(n): list(flags) for n, flags in sorted(self.conditions.items())
            },
            "detected_sharp_point": self.detected,
        }


def conjugate_chain_decomposition(
    c: EquivariantComplex, i: int
) -> IrrDecomposition:
    """Sign-tensored decomposition of C_i, the conjugate convention."""
    return tensor_sign(decompose(chain_character(c, i)))


def _families(dec: IrrDecomposition) -> dict[Partition, int]:
    """Group multiplicities by the partition below the first row."""
    out: dict[Partition, int] = {}
    for lam, mult in dec.items():
        out[lam[1:]] = out.get(lam[1:], 0) + mult
    return out


def _injective(psi: ChainMap) -> bool:
    return all(
        rank(psi.cols[i]) == psi.source.dim(i) for i in psi.source.degrees()
    )


def _generating(psi: ChainMap) -> bool:
    """Does the S_{n+1}-orbit of the image span the target?

    Coset representatives of S_{n+1}/S_n suffice: the identity and the
    transpositions (j, n+1).
    """
    target = psi.target
    n1 = target.n
    reps = [tuple(range(n1))]
    for j in range(n1 - 1):
        t = list(range(n1))
        t[j], t[n1 - 1] = t[n1 - 1], t[j]
        reps.append(tuple(t))
    for i in target.degrees():
        dim = target.dim(i)
        if not dim:
            continue
        psi_cols = psi.cols.get(i, [])
        stacked = []
        for sigma in reps:
            action = group_action_matrix(target, i, sigma)
            stacked += [
                {action[row][0]: action[row][1] * v for row, v in col.items()}
                for col in psi_cols
            ]
        if rank(stacked) < dim:
            return False
    return True


def check_consistent_sequence(
    g: int, ell: int, n_max: int, cache_dir
) -> StabilityReport:
    """Test the three stability conditions along B(g, n, n - l).

    For each n in the window: (1) the stabilization map is injective in
    every degree, (2) its S_{n+1}-orbit generates the next complex, and
    (3) the conjugate multiplicity families agree between n and n+1.  The
    detected sharp point is the least n from which all three hold onward.
    """
    if excess(g, ell) < 0:
        raise ValueError("negative excess")
    n_min = max(ell, 0)
    if n_max < n_min:
        raise ValueError(
            f"window {n_max} ends below the first n = max(l, 0) = {n_min}"
        )
    complexes = {
        n: build_complex(g, n, n - ell, cache_dir=cache_dir)
        for n in range(n_min, n_max + 2)
    }
    decs = {
        n: {
            i: conjugate_chain_decomposition(complexes[n], i)
            for i in complexes[n].degrees()
        }
        for n in complexes
    }
    conditions: dict[int, tuple[bool, bool, bool]] = {}
    for n in range(n_min, n_max + 1):
        psi = stabilization_map(complexes[n], complexes[n + 1])
        cond1 = _injective(psi)
        cond2 = _generating(psi)
        degrees = sorted(set(decs[n]) | set(decs[n + 1]))
        cond3 = all(
            _families(decs[n].get(i, IrrDecomposition(n, {})))
            == _families(decs[n + 1].get(i, IrrDecomposition(n + 1, {})))
            for i in degrees
        )
        conditions[n] = (cond1, cond2, cond3)

    detected = None
    for n in sorted(conditions):
        if all(all(conditions[k]) for k in conditions if k >= n):
            detected = n
            break
    return StabilityReport(
        g=g,
        ell=ell,
        predicted=predicted_sharp_bound(g, ell),
        window=(n_min, n_max),
        conditions=conditions,
        detected=detected,
    )


# ---------------------------------------------------------------------------
# the stable module


def lambda_set(y: int, p: int) -> dict[Partition, int]:
    """The multiset Lambda(y, p) for m = 2y + p.

    Members are 1^{ceil(m/2)} + eta + pi with eta an even partition of 2y,
    pi a weak composition of p into y + 1 parts obeying the Pieri condition
    pi_{i+1} + eta_{i+1} <= eta_i; one member per (eta, pi) pair.
    """
    m = 2 * y + p
    rows = (m + 1) // 2
    out: dict[Partition, int] = {}
    for eta in enumerate_partitions(2 * y, even_only=True):
        padded_eta = tuple(eta) + (0,) * (y + 1 - len(eta))

        def compositions(i: int, left: int, acc: tuple[int, ...]):
            if i == y:
                yield acc + (left,)
                return
            for part in range(left + 1):
                yield from compositions(i + 1, left - part, acc + (part,))

        for pi in compositions(0, p, ()):
            if any(
                pi[i + 1] + padded_eta[i + 1] > padded_eta[i] for i in range(y)
            ):
                continue
            entries = [
                (1 if i < rows else 0)
                + (padded_eta[i] if i < len(padded_eta) else 0)
                + (pi[i] if i < len(pi) else 0)
                for i in range(max(rows, len(pi)))
            ]
            lam = tuple(e for e in entries if e)
            if len(lam) != rows or size(lam) != (3 * m + 1) // 2 or any(
                lam[i] < lam[i + 1] for i in range(len(lam) - 1)
            ):
                raise AssertionError(f"malformed member {lam} of Lambda({y},{p})")
            out[lam] = out.get(lam, 0) + 1
    return out


def _p_range(g: int, m: int):
    for p in range(g):
        if p <= m and (m - p) % 2 == 0:
            yield p


def stab_module(g: int, n: int, ell: int) -> IrrDecomposition:
    """The part of H_m(B(g, n, n - l)) that the Lambda sets predict at
    n >= ceil(3m/2): its irreducibles with exactly
    ceil(m/2) + (n - ceil(3m/2)) rows, each a member of Lambda((m - p)/2, p)
    padded with n - ceil(3m/2) ones.

    H_m has further irreducibles, with more rows, that this leaves out:
    H_3(B(2, 5, 5)) = (4,1) + (3,2) + (3,1,1), while stab_module(2, 5, 0)
    = (4,1) + (3,2).
    """
    m = excess(g, ell)
    bound = predicted_sharp_bound(g, ell)
    if n < bound:
        raise ValueError(f"n={n} is below the stable range {bound}")
    mult: dict[Partition, int] = {}
    for p in _p_range(g, m):
        for lam, c in lambda_set((m - p) // 2, p).items():
            padded = pad_ones(lam, n - bound)
            mult[padded] = mult.get(padded, 0) + c
    return IrrDecomposition(n, mult)


def stable_multiplicity(lam: Partition, g: int) -> int:
    """The n-independent multiplicity of (lam, 1^{n - ceil(3m/2)}) in the
    top homology degree, as a sum of Littlewood-Richardson coefficients."""
    total = size(lam)
    m = next(
        (mm for mm in range(2 * total + 2) if (3 * mm + 1) // 2 == total), None
    )
    if m is None or len(lam) != (m + 1) // 2:
        raise ValueError(
            f"{lam} is not a partition of ceil(3m/2) with ceil(m/2) rows"
        )
    lam_prime = erase_first_column(lam)
    result = 0
    for p in _p_range(g, m):
        nu = (p,) if p else ()
        for tau in enumerate_partitions((m - p) // 2):
            result += lr_coefficient(lam_prime, double(tau), nu)
    return result


# ---------------------------------------------------------------------------
# vanishing assertions


def verify_vanishing(profile: HomologyProfile) -> list[str]:
    """Check every asserted zero multiplicity on a computed homology.

    Applies to H(B(g, n, n - l)): partitions (lam, 1^{n-N}) vanish when
    N > ceil(3m/2) (first-column stability), when lam has fewer than
    ceil(m/2) rows at N = ceil(3m/2), and below degree m when it has
    exactly ceil(m/2) rows.
    """
    g, n, ell = profile.g, profile.n, profile.n - profile.r
    m = excess(g, ell)
    if m < 0:
        return []
    bound = predicted_sharp_bound(g, ell)
    half = (m + 1) // 2
    violations = []
    for i, dec in profile.decompositions.items():
        for mu, mult in dec.items():
            ones = 0
            while ones < len(mu) and mu[len(mu) - 1 - ones] == 1:
                ones += 1
            stripped = mu[: len(mu) - ones]
            if size(stripped) > bound:
                violations.append(
                    f"degree {i}: {mu} has multiplicity {mult} but its "
                    f"1-free head exceeds the stable bound {bound}"
                )
            if n - bound < 0 or ones < n - bound:
                continue
            lam = mu[: len(mu) - (n - bound)]
            k = len(lam)
            if k < half:
                violations.append(
                    f"degree {i}: {mu} has multiplicity {mult} but fewer "
                    f"than ceil(m/2) rows above the padding"
                )
            elif k == half and i < m:
                violations.append(
                    f"degree {i} < m={m}: {mu} has multiplicity {mult} with "
                    f"exactly ceil(m/2) rows above the padding"
                )
    return violations


# ---------------------------------------------------------------------------
# core-graph bounds


# How far past the excess m `verify_core_bounds` looks for (absent) cores.
CORE_BOUNDS_SLACK = 2


def verify_core_bounds(g: int, ell_max: int) -> list[str]:
    """Exhaustive core-graph bounds at a fixed genus.

    For every core class of type (g, n, n - ell) with ell <= ell_max and
    n ranging past the excess m by `CORE_BOUNDS_SLACK`: n <= m must hold, with
    equality exactly on the extremal theta family, and each nonvanishing
    core must satisfy n + rho <= ceil(9(g-1)/2) + 3*ell.
    """
    violations: list[str] = []
    cap = -(-9 * (g - 1) // 2)
    for ell in range(ell_max + 1):
        m = excess(g, ell)
        if m < 0:
            continue
        thetas = {cls.key for cls in theta_classes(g, ell).values()}
        for n in range(m + CORE_BOUNDS_SLACK + 1):
            r = n - ell
            if r < 0:
                continue
            cores = enumerate_core_graphs(g, n, r)
            if n > m and cores:
                violations.append(
                    f"(g={g}, n={n}, r={r}): core class with n > m = {m}"
                )
                continue
            if n == m and {cls.key for cls in cores} != thetas:
                violations.append(
                    f"(g={g}, ell={ell}): extremal cores differ from the "
                    "theta family"
                )
            for xi in cores:
                module = core_module(xi)
                if module is None:
                    continue
                if n + decomposition_rows(module) > cap + 3 * ell:
                    violations.append(
                        f"(g={g}, n={n}, r={r}): n + rho exceeds "
                        f"{cap + 3 * ell} on {xi.key}"
                    )
    return violations


def verify_edge_cut_rows(g: int, ell_max: int) -> list[str]:
    """Row monotonicity under edge cutting: for every core class at this
    genus and every non-disconnecting edge, rho of the graph is at most
    rho of the cut graph, which has two more legs."""
    if g < 2:
        raise ValueError("edge cutting requires genus >= 2")
    violations: list[str] = []
    for ell in range(ell_max + 1):
        m = excess(g, ell)
        for n in range(m + 1):
            r = n - ell
            if r < 0:
                continue
            for xi in enumerate_core_graphs(g, n, r):
                module = core_module(xi)
                if module is None:
                    continue
                rho = decomposition_rows(module)
                for e in xi.graph.edges:
                    try:
                        cut = cut_edge(xi.graph, e)
                    except ValueError:
                        continue  # disconnecting edge
                    cut_module = core_module(canonical_form(cut)[0])
                    rho_c = (
                        None if cut_module is None else decomposition_rows(cut_module)
                    )
                    if rho_c is None or rho > rho_c:
                        violations.append(
                            f"(g={g}, n={n}, r={r}): rho {rho} not bounded "
                            f"by cut rho {rho_c} at edge {e} of {xi.key}"
                        )
    return violations
