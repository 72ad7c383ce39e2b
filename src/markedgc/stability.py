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

Conditions 1 and 2 of `check_consistent_sequence` are set checks on the
images of the stabilization map psi: C(n) -> C(n + 1), which
`complexes.stabilization_map` gives in the S_n action's format (images,
signs): psi[xi, rho] = +-[eta, rho'] for the class eta of xi + leg,
which never vanishes.
(1) psi is injective in degree i exactly when its images are distinct.
(2) The S_{n+1}-orbit of the image spans C_i(n + 1) exactly when psi hits
    a labeling of every degree-i class eta: sigma[eta, rho] = +-[eta, rho']
    with rho' the coset minimum of sigma o rho, and S_{n+1} is transitive
    on the cosets, so the orbit of the hit basis elements spans the
    labelings of exactly the classes hit.
"""

from __future__ import annotations

from .complexes import (
    EquivariantComplex,
    SignedMap,
    build_complex,
    chain_character,
    core_types,
    enumerate_core_graphs,
    excess,
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
from .partitions import (
    Partition,
    double,
    enumerate_partitions,
    erase_first_column,
    pad_ones,
    size,
    strip_ones,
)
from .reptheory import (
    IrrDecomposition,
    decompose,
    decomposition_rows,
    induce_from_subgroup,
    induce_product,
    lr_coefficient,
    sign_decomposition,
)


def _require_genus(g: int) -> None:
    """The genus rule: no connected graph has genus below 1, so
    B(0, n, r) = 0 and the stability facts need g >= 1."""
    if g < 1:
        raise ValueError(f"the stability facts need genus >= 1, got {g}")


def predicted_sharp_bound(g: int, ell: int) -> int:
    """ceil(3m/2) for m = 3(g-1) + 2*ell."""
    _require_genus(g)
    m = excess(g, ell)
    if m < 0:
        raise ValueError("negative excess has no stable range")
    return (3 * m + 1) // 2


# ---------------------------------------------------------------------------
# core graphs


_core_modules: dict[tuple, IrrDecomposition] = {}  # (n, blocks, ordered) -> module


def core_module(xi: OrientedClass) -> IrrDecomposition | None:
    """A_xi: the module induced from xi's leg group (legs in flag order)
    acting by its det-signs, or None when xi vanishes.  Induced once per
    form of the group and shared, so callers only read it."""
    group = xi.leg_group
    if group is None:
        return None
    form = (group.n, group.blocks, group.ordered)
    if form not in _core_modules:
        _core_modules[form] = decompose(induce_from_subgroup(group.n, group.elements()))
    return _core_modules[form]


def rho_of_core(xi: OrientedClass) -> int | None:
    """Maximum row count over the irreducibles of A_xi, or None when xi
    vanishes."""
    module = core_module(xi)
    return None if module is None else decomposition_rows(module)


def theta_classes(g: int, ell: int) -> dict[int, OrientedClass]:
    """The extremal cores for (g, ell), keyed by their parameter p."""
    return {
        p: canonical_form(build_theta(g, ell, p))[0]
        for p in _p_range(g, excess(g, ell))
    }


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


class StabilityReport:
    def __init__(self, g: int, ell: int, predicted: int, window, conditions, detected):
        self.g, self.ell, self.predicted = g, ell, predicted
        self.window: tuple[int, int] = window
        self.conditions: dict[int, tuple[bool, bool, bool]] = conditions
        self.detected: int | None = detected

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


def _families(dec: IrrDecomposition) -> dict[Partition, int]:
    """Group multiplicities by lambda with its first column erased."""
    out: dict[Partition, int] = {}
    for lam, mult in dec.items():
        key = erase_first_column(lam)
        out[key] = out.get(key, 0) + mult
    return out


def _injective(psi: dict[int, SignedMap]) -> bool:
    """Condition 1: psi sends distinct basis elements to distinct ones."""
    return all(len(set(images)) == len(images) for images, _ in psi.values())


def _generating(psi: dict[int, SignedMap], target: EquivariantComplex) -> bool:
    """Condition 2: psi hits some labeling of every target class."""
    for i, table in target.basis.items():
        hit = set(psi.get(i, ([], []))[0])
        if any(hit.isdisjoint(positions.values()) for positions in table.values()):
            return False
    return True


def check_consistent_sequence(g: int, ell: int, n_max: int) -> StabilityReport:
    """Test the three stability conditions along B(g, n, n - l).

    For each n in the window: (1) the stabilization map is injective in
    every degree, (2) its S_{n+1}-orbit generates the next complex, and
    (3) the chain groups' multiplicity families agree between n and n+1,
    a family being the lambda with one erase_first_column(lambda).  That
    is the conjugate convention's comparison, which groups the
    sign-twisted decomposition by conj(lambda)[1:]: conj(lambda)[1:] =
    conj(erase_first_column(lambda)), and conj is a bijection, so both
    group the same lambda.  The detected sharp point is the least n from
    which all three hold onward.
    """
    predicted = predicted_sharp_bound(g, ell)
    n_min = max(ell, 0)
    if n_max < n_min:
        raise ValueError(
            f"window {n_max} ends below the first n = max(l, 0) = {n_min}"
        )
    complexes = {n: build_complex(g, n, n - ell) for n in range(n_min, n_max + 2)}
    decs = {
        n: {
            i: decompose(chain_character(complexes[n], i))
            for i in complexes[n].degrees()
        }
        for n in complexes
    }
    conditions: dict[int, tuple[bool, bool, bool]] = {}
    for n in range(n_min, n_max + 1):
        psi = stabilization_map(complexes[n], complexes[n + 1])
        cond1 = _injective(psi)
        cond2 = _generating(psi, complexes[n + 1])
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
        predicted=predicted,
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
    for eta in map(double, enumerate_partitions(y)):
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


def _excess_with_bound(total: int) -> int | None:
    """The excess m with ceil(3m/2) = total, or None when there is none."""
    m = 2 * total // 3
    return m if (3 * m + 1) // 2 == total else None


def stable_multiplicity(lam: Partition, g: int) -> int:
    """The n-independent multiplicity of (lam, 1^{n - ceil(3m/2)}) in the
    top homology degree, as a sum of Littlewood-Richardson coefficients."""
    _require_genus(g)
    m = _excess_with_bound(size(lam))
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
    bound = predicted_sharp_bound(g, ell)
    m = excess(g, ell)
    half = (m + 1) // 2
    violations = []
    for i, dec in profile.decompositions.items():
        for mu, mult in dec.items():
            stripped, ones = strip_ones(mu)
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


def _core_sweep(g: int, ell_max: int, slack: int):
    """(ell, m, n, r, cores) for every core type (g, n, r = n - ell) with
    ell <= ell_max and ell <= n <= m + slack, m the excess, in that order."""
    for ell in range(ell_max + 1):
        m = excess(g, ell)
        for n in range(ell, m + slack + 1):
            yield ell, m, n, n - ell, enumerate_core_graphs(g, n, n - ell)


def verify_core_bounds(g: int, ell_max: int) -> list[str]:
    """Exhaustive core-graph bounds at a fixed genus.

    For every core class of type (g, n, n - ell) with ell <= ell_max and
    n ranging past the excess m by `CORE_BOUNDS_SLACK`: n <= m must hold, with
    equality exactly on the extremal theta family, and each nonvanishing
    core must satisfy n + rho <= ceil(9(g-1)/2) + 3*ell.
    """
    _require_genus(g)
    violations: list[str] = []
    cap = -(-9 * (g - 1) // 2)
    for ell, m, n, r, cores in _core_sweep(g, ell_max, CORE_BOUNDS_SLACK):
        if n > m and cores:
            violations.append(f"(g={g}, n={n}, r={r}): core class with n > m = {m}")
            continue
        if n == m and {cls.key for cls in cores} != {
            cls.key for cls in theta_classes(g, ell).values()
        }:
            violations.append(
                f"(g={g}, ell={ell}): extremal cores differ from the theta family"
            )
        for xi in cores:
            rho = rho_of_core(xi)
            if rho is not None and n + rho > cap + 3 * ell:
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
    for _, _, n, r, cores in _core_sweep(g, ell_max, 0):
        for xi in cores:
            rho = rho_of_core(xi)
            if rho is None:
                continue
            for e in xi.graph.edges:
                try:
                    cut = cut_edge(xi.graph, e)
                except ValueError:
                    continue  # disconnecting edge
                rho_c = rho_of_core(canonical_form(cut)[0])
                if rho_c is None or rho > rho_c:
                    violations.append(
                        f"(g={g}, n={n}, r={r}): rho {rho} not bounded "
                        f"by cut rho {rho_c} at edge {e} of {xi.key}"
                    )
    return violations
